"""Percentile rule, failure accounting and span bookkeeping."""

from metrics import MIN_BEYOND, OP_TIMEOUT_S, OpLog, Tracer, median, percentile, rows_digest


def test_percentile_needs_ten_samples_beyond():
    # p50 of 19 samples has 9.5 on each side: not enough; 20 is.
    assert percentile(list(range(19)), 0.5) is None
    assert percentile(list(range(20)), 0.5) == 9.5
    # p90 needs 100 samples for 10 beyond it.
    assert percentile(list(range(99)), 0.9) is None
    assert percentile(list(range(100)), 0.9) is not None
    assert MIN_BEYOND == 10


def test_median_is_reported_whatever_the_sample_count():
    assert median([]) is None
    assert median([3.0]) == 3.0
    assert median([1.0, 2.0, 10.0]) == 2.0
    assert median([1.0, 3.0]) == 2.0


def test_failed_operations_are_counted_and_keep_no_latency():
    log = OpLog()
    assert log.record("cold", 0.010, checks=((("q", 1), "rows-a"),))
    assert log.record("cold", 0.012, checks=((("q", 1), "rows-a"),))
    # Same statement and epochs, different answer: failed.
    assert not log.record("cold", 0.011, checks=((("q", 1), "rows-b"),))
    # Raised / refused / too slow: failed.
    assert not log.record("cold", 0.001, ok=False, why="HTTP 503")
    assert not log.record("insert", OP_TIMEOUT_S + 1.0)
    assert (log.attempted, log.failed) == (5, 3)
    assert log.count("cold") == 2 and log.count("insert") == 0
    assert len(log.failures) == 3 and "HTTP 503" in log.failures[1]


def test_latencies_are_one_value_per_statement():
    log = OpLog()
    for statement, seconds in ((0, 0.010), (0, 0.014), (0, 0.011), (1, 0.100), (1, 0.300), (1, 0.120)):
        log.record("cold", seconds, statement)
    # Repeats of identical work: the fastest issue of each statement.
    assert sorted(log.fastest_ms("cold")) == [10.0, 100.0]
    # Traffic: the median per statement, the statements averaged — not
    # the pooled median, which would be one statement's sample.
    assert log.typical_ms("cold") == (11.0 + 120.0) / 2
    assert log.fastest_ms("warm") == [] and log.typical_ms("warm") is None


def test_rows_digest_ignores_row_order_only():
    assert rows_digest([(1, "a"), (2, "b")]) == rows_digest([[2, "b"], [1, "a"]])
    assert rows_digest([(1, "a")]) != rows_digest([(1, "b")])


def test_spans_nest_and_a_disabled_tracer_records_nothing():
    tracer = Tracer()
    with tracer.span("ignored"):
        pass
    assert tracer.spans == []
    tracer.enabled = True
    tracer.pass_id = 7
    with tracer.span("outer", statement=0) as outer:
        with tracer.span("inner", statement=0) as inner:
            inner["pairs"] = 3
    assert [s["name"] for s in tracer.spans] == ["outer", "inner"]
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["pass"] == 7 and inner["pairs"] == 3
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert len(tracer.durations_ms("inner", statement=0)) == 1
