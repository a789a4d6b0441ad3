"""Unit tests for the benchmark's own arithmetic, driven by a fake clock.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import pytest

from stats import (
    CALIBRATION_REF_S,
    Recorder,
    calibrate,
    calibration_loop,
    fail_frac,
    nearest_rank,
    summarize,
    tail_percentile,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.mark.parametrize("n, expected", [
    (1, None), (10, None), (11, 9), (20, 50), (100, 90), (1000, 99),
])
def test_tail_percentile(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("n", [11, 19, 20, 37, 100, 250])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    xs = list(range(n))
    p = tail_percentile(n)
    beyond = sum(1 for x in xs if x > nearest_rank(xs, p))
    assert beyond >= 10
    if p < 99:
        assert sum(1 for x in xs if x > nearest_rank(xs, p + 1)) < 10


def test_summarize_reports_count_and_tail():
    s = summarize([5.0] * 5 + [1.0] * 15)
    assert s["n"] == 20 and s["median"] == 1.0
    assert s["tail_p"] == 50 and s["tail"] == 1.0
    assert summarize([3.0, 1.0, 2.0]) == {
        "median": 2.0, "n": 3, "tail_p": None, "tail": None}


def test_calibrate_scales_times_and_rates_by_the_loop():
    slow = 2 * CALIBRATION_REF_S          # a host half the reference speed
    assert calibrate(3.0, "s", slow) == pytest.approx(1.5)
    assert calibrate(10.0, "1/s", slow) == pytest.approx(20.0)
    assert calibrate(3.0, "s", CALIBRATION_REF_S) == pytest.approx(3.0)
    assert calibrate(76.5, "MB", slow) == 76.5
    assert calibrate(7.0, "count", slow) == 7.0
    assert calibrate(3.0, "s", None) == 3.0
    with pytest.raises(ValueError):
        calibrate(1.0, "s", 0.0)


def test_calibration_loop_reads_its_clock_around_the_loop():
    clock = FakeClock()
    ticks = iter([1.0, 1.25])
    assert calibration_loop(lambda: next(ticks)) == pytest.approx(0.25)
    assert calibration_loop(clock) == 0.0


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.span("optimize.plan_s"):
        clock.advance(1.0)
        with rec.span("analysis.parallelize_s"):
            clock.advance(3.0)
        clock.advance(0.5)
    assert rec.inclusive["optimize.plan_s"] == pytest.approx(4.5)
    assert rec.inclusive["analysis.parallelize_s"] == pytest.approx(3.0)
    assert rec.self_time["optimize.plan_s"] == pytest.approx(1.5)
    assert rec.self_time["analysis.parallelize_s"] == pytest.approx(3.0)


def test_unattributed_is_wall_minus_top_level_spans():
    clock = FakeClock()
    rec = Recorder(clock)
    start = clock()
    clock.advance(0.25)                 # no layer claims this
    with rec.span("reference_s"):
        clock.advance(2.0)
    with rec.span("fortranlib.legacy.exec_s"):
        clock.advance(3.0)
        with rec.span("numeric.compare_s"):   # nested: counted once
            clock.advance(1.0)
    clock.advance(0.75)
    wall = clock() - start
    assert rec.top_level == pytest.approx(6.0)
    assert wall - rec.top_level == pytest.approx(1.0)


def test_reentered_span_is_timed_once():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.span("glafexec.interp.call_s"):
        clock.advance(1.0)
        with rec.span("glafexec.interp.call_s"):
            clock.advance(2.0)
    assert rec.inclusive["glafexec.interp.call_s"] == pytest.approx(3.0)
    assert rec.top_level == pytest.approx(3.0)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    rec = Recorder(clock)
    with pytest.raises(RuntimeError):
        with rec.span("lint.lint_s"):
            clock.advance(2.0)
            raise RuntimeError("boom")
    assert rec.inclusive["lint.lint_s"] == pytest.approx(2.0)
    with rec.span("codegen.fortran_s"):
        clock.advance(1.0)
    assert rec.top_level == pytest.approx(3.0)


def test_fail_frac():
    assert fail_frac(10, 0) == 0.0
    assert fail_frac(4, 1) == 0.25
    with pytest.raises(ValueError):
        fail_frac(0, 0)
    with pytest.raises(ValueError):
        fail_frac(3, 4)
