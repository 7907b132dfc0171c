"""Unit tests of the fault-injection registry (repro.resilience.faults)."""

from __future__ import annotations

import time

import pytest

from repro.resilience import (
    DEGRADATION,
    FaultError,
    FaultPlan,
    active,
    active_plan,
    clear_plan,
    inject,
    install_plan,
    plan_from_env,
)


@pytest.fixture(autouse=True)
def _isolated():
    clear_plan()
    DEGRADATION.clear()
    yield
    clear_plan()
    DEGRADATION.clear()


class TestFaultPlanBasics:
    def test_disarmed_inject_is_a_no_op(self):
        assert active_plan() is None
        inject("anything.at.all")  # must not raise

    def test_single_shot_default(self):
        plan = install_plan(FaultPlan().add("x"))
        with pytest.raises(FaultError) as excinfo:
            inject("x")
        assert excinfo.value.site == "x"
        assert excinfo.value.occurrence == 1
        inject("x")  # times=1 exhausted: silent from now on
        assert plan.fired_count("x") == 1

    def test_times_bound_and_inf(self):
        install_plan(FaultPlan().add("x", times=3).add("y", times=None))
        for _ in range(3):
            with pytest.raises(FaultError):
                inject("x")
        inject("x")
        for _ in range(10):
            with pytest.raises(FaultError):
                inject("y")

    def test_after_skips_leading_calls(self):
        plan = install_plan(FaultPlan().add("x", after=2, times=1))
        inject("x")
        inject("x")
        with pytest.raises(FaultError) as excinfo:
            inject("x")
        assert excinfo.value.occurrence == 1
        assert plan.spec("x").calls == 3

    def test_unarmed_site_never_fires(self):
        install_plan(FaultPlan().add("x"))
        inject("some.other.site")  # silent

    def test_hang_sleeps_instead_of_raising(self):
        install_plan(FaultPlan().add("x", kind="hang", delay=0.05))
        start = time.monotonic()
        inject("x")
        assert time.monotonic() - start >= 0.04

    def test_events_record_firing_order(self):
        plan = install_plan(FaultPlan().add("a", times=2).add("b"))
        for site in ("a", "b", "a"):
            with pytest.raises(FaultError):
                inject(site)
        assert plan.events == [("a", "raise", 1), ("b", "raise", 1), ("a", "raise", 2)]
        assert plan.fired_count() == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan().add("x", kind="explode")
        with pytest.raises(ValueError):
            FaultPlan().add("x", times=-1)
        with pytest.raises(ValueError):
            FaultPlan().add("x", probability=1.5)
        with pytest.raises(ValueError):
            FaultPlan().add("x", delay=-0.1)
        with pytest.raises(ValueError):
            FaultPlan().add("x", after=-1)


class TestProbabilisticFiring:
    def test_probability_is_seed_deterministic(self):
        def firings(seed: int) -> list:
            plan = FaultPlan(seed=seed).add("x", probability=0.5, times=None)
            fired = []
            with active(plan):
                for i in range(50):
                    try:
                        inject("x")
                        fired.append(False)
                    except FaultError:
                        fired.append(True)
            return fired

        assert firings(7) == firings(7)
        assert firings(7) != firings(8)  # astronomically unlikely to tie
        assert any(firings(7)) and not all(firings(7))

    def test_probability_zero_never_fires(self):
        with active(FaultPlan().add("x", probability=0.0, times=None)):
            for _ in range(20):
                inject("x")


class TestPlanParsing:
    def test_parse_full_syntax(self):
        plan = FaultPlan.parse(
            "seed=9,table.append_row:times=2,serving.slow:hang:delay=0.3,"
            "dml.index_delta:p=0.25:after=1:times=inf"
        )
        assert plan.seed == 9
        assert plan.sites == ["dml.index_delta", "serving.slow", "table.append_row"]
        assert plan.spec("table.append_row").times == 2
        slow = plan.spec("serving.slow")
        assert slow.kind == "hang" and slow.delay == 0.3
        dml = plan.spec("dml.index_delta")
        assert dml.probability == 0.25 and dml.after == 1 and dml.times is None

    def test_parse_kind_as_key(self):
        assert FaultPlan.parse("x:kind=hang").spec("x").kind == "hang"

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("x:notakeyvalue")
        with pytest.raises(ValueError):
            FaultPlan.parse("x:frequency=2")

    def test_parse_ignores_empty_specs(self):
        assert FaultPlan.parse("x, ,").sites == ["x"]

    def test_env_plan(self):
        environ = {"REPRO_FAULTS": "table.append_row:times=3", "REPRO_FAULTS_SEED": "11"}
        plan = plan_from_env(environ)
        assert plan is not None
        assert plan.seed == 11
        assert plan.spec("table.append_row").times == 3
        assert plan_from_env({}) is None
        assert plan_from_env({"REPRO_FAULTS": ""}) is None


class TestInstallation:
    def test_active_context_restores_previous_plan(self):
        outer = install_plan(FaultPlan().add("outer"))
        with active(FaultPlan().add("inner")):
            inject("outer")  # inner plan armed: outer site silent
            with pytest.raises(FaultError):
                inject("inner")
        assert active_plan() is outer
        with pytest.raises(FaultError):
            inject("outer")

    def test_clear_plan_disarms(self):
        install_plan(FaultPlan().add("x"))
        clear_plan()
        inject("x")
        assert active_plan() is None
