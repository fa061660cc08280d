"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import contextlib
import io
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_passes(name, 7, 2) == workloads.make_passes(name, 7, 2)
        assert workloads.make_pass(name, 7, 0) != workloads.make_pass(name, 8, 0)
        assert workloads.make_pass(name, 7, 0) != workloads.make_pass(name, 7, 1)


def test_invocations_are_distinct_within_a_pass():
    for name in workloads.WORKLOADS:
        calls = workloads.make_pass(name, 3, 0)
        assert len({tuple(c) for c in calls}) == len(calls)
    uni = workloads.make_pass("verify-uni", 3, 0)
    assert len(uni) == 36 and {c[0] for c in uni} == {"verify"}
    export = workloads.make_pass("export", 3, 0)
    assert {c[0] for c in export} == {"dims", "operators", "series"}


def test_closed_forms():
    assert workloads.expected_dims(3, [2, 1]) == (9, 7)
    assert workloads.expected_dims(5, [2]) == (5, 4)
    assert workloads.expected_dims(6, [4, 2]) == (36, 36)


def test_self_time_of_nested_spans():
    # root [0,10] holds a [1,4] (which holds a' [2,3]) and b [5,7]
    recorded = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0),
                ("a", 2.0, 3.0, 1), ("b", 5.0, 7.0, 0)]
    assert spans.self_times(recorded) == [5.0, 2.0, 1.0, 2.0]
    stats = spans.aggregate(recorded)
    # the nested "a" is inside an "a": its time is not counted twice
    assert stats["a"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert stats["root"]["total_s"] == 10.0


def test_tracer_records_parents_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span(lambda: None, "inner")
    outer = tracer.span(lambda: inner() or inner(), "outer")
    outer()
    assert [(n, p) for n, _, _, p in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_install_wraps_imported_names_and_uninstall_restores():
    from mellinsys import cli, series
    original = series.principal_series
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.principal_series is series.principal_series is not original
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["series", "3", "2", "--principal"]) == 0
    finally:
        tracer.uninstall()
    assert cli.principal_series is series.principal_series is original
    names = [n for n, _, _, _ in tracer.spans]
    assert names[0] == "cli.main" and "series.principal_series" in names
    stats = spans.aggregate(tracer.spans)
    layers = spans.layer_metrics(stats, tracer.counters, {"series.principal_series": 1})
    assert layers["series.principal_series.calls"] == (1, "count")
    assert layers["roots.lift_jets.calls"] == (0, "count")


def test_failing_argv_counts_in_fail_frac():
    from mellinsys import cli
    argvs = [["dims", "3", "2", "1"], ["verify", "3", "3"]]  # m_1 < m violated
    wall_s, records = worker.run_pass(cli, argvs)
    calls = worker.judge(records)
    assert [c["failed"] for c in calls] == [False, True]
    assert calls[1]["rc"] == 1 and calls[0]["problems"] == []
    result = {"wall_s": wall_s, "calls": calls, "peak_rss_mb": 1.0,
              "probe": [(calls[0]["t0"], run.REF_S)]}
    metrics = run.end_to_end([result], [{"setup_s": 0.1, "probe": [(0.0, run.REF_S)]}])
    assert metrics["pass_frac"] == (0.5, "fraction")
    assert run.summary([result]) == (2, 1, True)


def test_wrong_output_is_flagged():
    out = "rank      : 8\ndim Y     : 7\n"
    assert workloads.check_output(["dims", "3", "2", "1"], 0, out)
    good = out.replace("8", "9")
    assert workloads.check_output(["dims", "3", "2", "1"], 0, good) == []
    assert workloads.check_output(["dims", "3", "2", "--json"], 0, "{") == [
        "stdout is not JSON"]


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    value, pct = run.tail([float(v) for v in range(1, 21)])
    assert value == 10.0 and pct == 50.0


def test_calls_are_scaled_by_the_speed_around_them():
    # half speed (reference at 2 ms) before t = 10 s, full speed after
    probe = [(t / 2, 2 * run.REF_S if t < 20 else run.REF_S) for t in range(40)]
    calls = [{"t0": 1.0, "t1": 1.1, "ms": 100.0}, {"t0": 15.0, "t1": 15.1, "ms": 50.0}]
    assert run.normalised_ms({"probe": probe, "calls": calls}) == [50.0, 50.0]


def test_probe_time_is_taken_out_of_call_times():
    class BusyCli:
        @staticmethod
        def main(argv):
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
            return 0

    probe = worker.SpeedProbe()
    wall_s, records = worker.run_pass(BusyCli, [["a"], ["b"]], probe)
    assert len(probe.samples) >= 4
    (_, _, t0, t1, spent, _, _), _ = records
    assert spent > 0 and t1 - t0 > 0.2 - 1e-9
    assert abs(wall_s + probe.spent - (records[1][3] - t0)) < 0.01
