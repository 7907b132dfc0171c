"""Inputs and schedules are a pure function of the seeds."""

import random

import inputs
import library
import served


def test_same_seed_gives_identical_inputs():
    for workload in inputs.WORKLOADS:
        first = inputs.make_inputs(workload, seed=7, smoke=True)
        again = inputs.make_inputs(workload, seed=7, smoke=True)
        assert first.digest == again.digest
        assert first.batches == again.batches
        assert [s.sql for s in first.statements] == [s.sql for s in again.statements]


def test_seed_moves_the_insert_batches_but_not_the_tables():
    first = inputs.make_inputs("sp_cold", seed=1, smoke=True)
    other = inputs.make_inputs("sp_cold", seed=2, smoke=True)
    assert first.batches != other.batches and first.digest != other.digest
    assert [row.values for row in first.tables[0]] == [row.values for row in other.tables[0]]


def test_insert_batches_take_fresh_ids_and_leave_ground_truth_alone():
    made = inputs.make_inputs("point_lookup", seed=3, smoke=True)
    table = made.tables[0]
    new_ids = [row[0] for batch in made.batches for row in batch]
    assert new_ids == list(range(len(table) + 1, len(table) + 1 + len(new_ids)))
    assert all(len(batch) == inputs.BATCH_ROWS for batch in made.batches)
    # Link quality is judged on the seed-independent tables only.
    assert not {member for pair in made.truth["ppl"] for member in pair} & set(new_ids)
    assert made.truth["ppl"] == inputs.make_inputs("point_lookup", seed=4, smoke=True).truth["ppl"]


def test_pass_schedules():
    assert library.schedule("sp_cold", 2) == [
        ("clear", -1), ("cold", 0), ("warm", 0), ("clear", -1), ("cold", 1), ("warm", 1)]
    assert library.schedule("spj_session", 2) == [
        ("clear", -1), ("cold", 0), ("cold", 1), ("warm", 0), ("warm", 1)]


def test_client_draws_repeat_for_a_seed_and_differ_between_clients():
    made = inputs.make_inputs("serve_mix", seed=5, smoke=True)
    traffic = served.Traffic(made, seed=5)
    assert traffic.weights == sorted(traffic.weights, reverse=True)  # Zipf by rank

    def draws(client, seed):
        rng = served.client_rng(client, seed)
        return [rng.choices(range(len(made.statements)), weights=traffic.weights)[0]
                for _ in range(50)]

    assert draws(0, 5) == draws(0, 5)
    assert draws(0, 5) != draws(1, 5)
    assert draws(0, 5) != draws(0, 6)
    assert isinstance(served.client_rng(0, 5), random.Random)
