"""Tests for the benchmark's own statistics, tracer and gate, plus a
seconds-long smoke run of every workload.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402

# ---------------------------------------------------------------------------
# tail percentile: fixed per workload, with at least ten samples beyond it


@pytest.mark.parametrize("n, q, beyond", [(100, 90.0, 10), (99, 90.0, 9), (20, 50.0, 10),
                                          (1000, 99.0, 10), (10000, 99.9, 10)])
def test_tail_counts_samples_beyond_the_percentile(n, q, beyond):
    samples = [float(i) for i in reversed(range(n))]
    value, got, inputs = stats.tail(samples, q, keys=list(range(n)))
    assert (got, inputs) == (beyond, beyond)
    assert value == stats.nearest_rank(sorted(samples), q) == n - 1 - beyond


def test_tail_counts_distinct_inputs_beyond():
    # 57,600 samples that cycle over 576 inputs: p99.9 has 57 samples beyond
    # it but only half an input's worth
    samples = [float(i) for i in range(57_600)]
    keys = [i % 576 for i in range(57_600)]
    assert stats.tail(samples, 99.9, keys)[1:] == (57, 0)
    assert stats.tail(samples, 90.0, keys)[1:] == (5760, 57)
    assert stats.tail(samples, 99.9)[1:] == (57, 57)


@pytest.mark.parametrize("name", [n for n in run.workloads.NAMES if run.workloads.CYCLED[n]])
def test_cycled_pools_leave_ten_inputs_beyond_their_tail(name):
    ops = run.workloads.BUILDERS[name](1)
    ids = [op["id"] for op in ops]
    _, beyond, inputs = stats.tail([float(i) for i in ids], run.workloads.TAIL_Q[name], ids)
    assert min(beyond, inputs) >= stats.MIN_BEYOND


def test_run_keeps_the_rung_and_warns_when_short(capsys):
    untraced = {"ids": [0, 1, 2], "cpu_ns": [3_000_000, 1_000_000, 2_000_000],
                "wall_ns": [1] * 3, "cal_at": [0], "cal_ns": [2_000_000], "wall_s": 1.0}
    ops = {k: {"cls": "c"} for k in range(3)}
    result = {"rss_kb": 2048, "rss_children_kb": 1024}
    metrics, info = run.end_to_end("eval-separated", [1.0], [1.0], untraced,
                                   [stats.PASS] * 3, [], result, ops)
    assert info["tail_percentile"] == 90.0 and metrics["latency_tail_ms"] == 3.0
    assert "p90 tail has only 0 samples" in capsys.readouterr().err
    assert metrics["peak_rss_mb"] == 2.0
    metrics, _ = run.end_to_end("cli-cold", [1.0], [1.0], untraced, [stats.PASS] * 3, [],
                                result, ops)
    assert metrics["peak_rss_mb"] == 1.0  # the CLI children, not the worker


def test_normalize_uses_the_calibration_samples_around_each_op():
    # ops 0-1 ran while the calibration loop took 4 ms (half speed), ops 2-3
    # while it took the reference 2 ms; window 1 uses the nearest sample only
    out = stats.normalize([10, 10, 10, 10], [0, 2, 4], [4_000_000, 2_000_000, 2_000_000],
                          ref_ns=2_000_000, window=1)
    assert out == [5.0, 5.0, 10.0, 10.0]
    # window 3 takes the median of the samples before, at and after: op 1
    # lies after the sample taken at 1, so it uses median(1, 4, 2) = 2
    out = stats.normalize([8, 8, 8], [0, 1, 2], [1, 4, 2], ref_ns=4, window=3)
    assert out[1] == 8 * 4 / 2


# ---------------------------------------------------------------------------
# self time with nested spans


def _span(sid, parent, name, start, end, agg=None):
    s = tracer.Span(sid, parent, 0, name, start)
    s.end = end
    s.agg = agg or {}
    return s


def test_self_time_subtracts_children_and_merged_leaves():
    spans = [
        _span(1, None, "spherical.spherical_eval", 0, 100, {"series.hyper_f": [3, 5, 0, 0]}),
        _span(2, 1, "spherical.det_ratio", 10, 40),
        _span(3, 2, "spherical.schur_series", 15, 25),
        _span(4, 1, "limits.x", 50, 70),
    ]
    st = tracer.self_times(spans)
    assert st == {1: 100 - 30 - 20 - 5, 2: 30 - 10, 3: 10, 4: 20}
    layers = tracer.layer_self_ms(spans)
    assert layers == pytest.approx({"spherical": 75e-6, "series": 5e-6, "limits": 20e-6})
    # the layers' self times add up to the root's wall time
    assert sum(layers.values()) == pytest.approx(100e-6)


def test_self_time_uses_the_union_of_overlapping_children():
    # spans adopted from a child process may overlap; covered time is a union
    spans = [_span(1, None, "cli.process", 0, 100), _span(2, 1, "cli.import", 10, 60),
             _span(3, 1, "cli.main", 50, 80), _span(4, 1, "cli.late", 90, 120)]
    assert tracer.self_times(spans)[1] == 100 - 70 - 10


def test_install_wraps_and_restores_module_names():
    mod = types.ModuleType("fake_layer")
    mod.outer = lambda x: mod.inner(x) + 1
    mod.inner = lambda x: x * 2

    def fail():
        raise ValueError("boom")

    mod.fail = fail
    sys.modules["fake_layer"] = mod
    originals = (mod.outer, mod.inner, mod.fail)
    rec = tracer.Recorder()
    restore = tracer.install(rec, [("fake_layer", "outer", "spherical.outer", "span", False),
                                   ("fake_layer", "inner", "series.inner", "leaf", False),
                                   ("fake_layer", "fail", "spherical.fail", "span", False)])
    try:
        assert mod.outer(3) == 7
        with pytest.raises(ValueError):
            mod.fail()
    finally:
        restore()
        del sys.modules["fake_layer"]
    assert (mod.outer, mod.inner, mod.fail) == originals
    outer, failed = rec.spans
    assert outer.name == "spherical.outer" and outer.agg["series.inner"][0] == 1
    assert failed.error == "ValueError"
    assert tracer.layer_metrics(rec.spans, 2)["spherical.errors"] == 1.0


# ---------------------------------------------------------------------------
# failure accounting: exceptions and refusals vs oracle misses


def test_tally_separates_refusals_exceptions_and_oracle_misses():
    t = stats.tally([stats.PASS, stats.PASS, stats.raised("RangeError"),
                     stats.raised("ZeroDivisionError"), stats.OUTSIDE_BOUND])
    assert t["attempted"] == 5 and t["passed"] == 2
    assert (t["refused"], t["exceptions"], t["oracle_misses"]) == (1, 1, 1)
    assert t["fail_frac"] == pytest.approx(0.6) and t["pass_frac"] == pytest.approx(0.4)


def test_check_counts_raised_and_wrong_values_as_failed():
    import mpmath as mp

    j0 = float(mp.besselj(0, mp.mpf(1.5) * mp.mpf(0.5)))
    ops = [{"id": 0, "fn": "spherical_eval", "args": [[1.5], [0.5]], "cls": "n1"}]
    outputs = [
        {"value": j0, "abs_error": 1e-15},  # pass
        {"value": j0, "abs_error": 1e-3},  # honest but loose bound
        {"value": j0 + 1e-12, "abs_error": 1e-16},  # false bound, tiny error
        {"value": j0 + 1e-3, "abs_error": 1e-16},  # wrong value
    ]
    ops = [dict(ops[0], id=k) for k in range(5)]
    compact = {"ids": [0, 1, 2, 3, 4], "cpu_ns": [1000] * 5, "wall_ns": [1000] * 5,
               "cal_at": [0], "cal_ns": [2_000_000],
               "status": {"4": "RangeError"},  # refusal
               "outputs": {str(k): out for k, out in enumerate(outputs)}, "divergent": {}}
    outcomes, insane, claimed, _ = run.check(ops, [compact], {})
    assert outcomes == [stats.PASS, stats.BOUND_ABOVE_TARGET, stats.OUTSIDE_BOUND,
                        stats.OUTSIDE_BOUND, stats.raised("RangeError")]
    assert insane == 2  # the wrong value and the refusal
    assert claimed == [pytest.approx(1e-15 / abs(j0))]


# ---------------------------------------------------------------------------
# BENCHMARK.json and the runner agree


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.NAMES)


# ---------------------------------------------------------------------------
# smoke: every workload once at a tiny size


def test_smoke_every_workload_once():
    for name in run.workloads.NAMES:
        summary, meta, _, _ = run.run_workload(name, 3, 0.1, 0, 1, run.workloads.SMOKE)
        assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
        for metric, unit in run.END_TO_END.items():
            m = summary["metrics"][metric]
            assert m["unit"] == unit and m["value"] > 0, (name, metric, m)
        assert meta["seed"] == 3 and meta["src_lines"] > 0


def test_smoke_traced_cli_run_reports_layers():
    summary, _, _, _ = run.run_workload("cli-cold", 3, 0.1, 1, 1, run.workloads.SMOKE)
    metrics = summary["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["cli.import_ms"]["value"] > 0
    assert metrics["trace.layer_cover_frac"]["value"] > 0.5
