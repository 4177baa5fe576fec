"""The BENCH_<PR>.json writer's assembly, on canned perfbench/run.py output."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))
import bench_record  # noqa: E402

_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "pass_frac": "ratio", "peak_rss_mb": "MB",
}


# a few of the per-layer metrics a --trace 1 run prints
_LAYER_UNITS = {"montecarlo.phase_ms": "ms/op", "montecarlo.reduce_ms": "ms/op",
                "trace.overhead_frac": "ratio"}


def _stdout(seed, ops_per_s, failed=0, trace=0):
    # the runner's lines: header, meta, check, gate, info, metrics, result
    meta = {"workload": "eval-coincident", "seed": seed, "cpu_model": "test cpu"}
    units = _LAYER_UNITS if trace else _UNITS
    values = dict.fromkeys(units, 1.0) | {"ops_per_s": ops_per_s}
    result = {
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return "\n".join([
        f"workload eval-coincident seed {seed} seconds 6 trace {trace}",
        "meta " + json.dumps(meta),
        "check: correct=True attempted=100 failed=0 (...)",
        "gate: pass_frac=1.000000 fail_frac=0.000000",
        'info {"oracle_s": 1.0}',
        *(f"metric {k} = {values[k]!r} {u}" for k, u in units.items()),
        json.dumps(result),
    ]) + "\n"


def _assemble(runs, traced=None):
    lines = {side: {"spherical.py": 3, "total": 3} for side in runs}
    tier1 = {side: bench_record.parse_tier1(30.5, 0, "891 passed in 29.05s\n") for side in runs}
    cold = {side: {} for side in runs}
    return bench_record.assemble(44, 6.0, runs, lines, tier1, cold, traced or {
        side: {} for side in runs})


def test_assembly_keeps_per_seed_values_their_quartiles_and_each_run_verdict():
    runs = {
        "change": {"eval-coincident": [(s, s % 2 == 0, _stdout(s, v)) for s, v in
                                       [(3, 30.0), (1, 10.0), (4, 40.0), (2, 20.0), (5, 50.0)]]},
        "parent": {"eval-coincident": [(1, 1, _stdout(1, 9.0)), (2, 0, _stdout(2, 8.0, 2))]},
    }
    lines = {"change": {"spherical.py": 3, "total": 3}, "parent": {"spherical.py": 4, "total": 4}}
    tier1 = {"change": bench_record.parse_tier1(30.5, 0, "...\n891 passed in 29.05s\n"),
             "parent": bench_record.parse_tier1(31.0, 1, "..F.\n1 failed, 890 passed in 30s\n")}
    cold = {side: bench_record.cold_start_table({"python -c pass": [(0.02, 0.03, 0)]})
            for side in runs}
    record = bench_record.assemble(41, 6.0, runs, lines, tier1, cold, {side: {} for side in runs})
    assert record["pr"] == 41
    assert record["command"].endswith("--seconds 6 --trace 0")
    change = record["sides"]["change"]
    assert change["src_lines"] == lines["change"]
    ops = change["workloads"]["eval-coincident"]["metrics"]["ops_per_s"]
    assert ops == {"unit": "1/s", "median": 30.0, "q1": 20.0, "q3": 40.0,
                   "values": [10.0, 20.0, 30.0, 40.0, 50.0]}
    first = change["workloads"]["eval-coincident"]["runs"][0]
    assert (first["seed"], first["ran_first"], first["correct"], first["failed"]) == (
        1, True, True, 0)
    assert first["meta"]["cpu_model"] == "test cpu"
    assert set(first["metrics"]) == set(_UNITS)
    assert change["tier1"] == tier1["change"]
    assert change["cold_start"] == cold["change"]
    parent = record["sides"]["parent"]["workloads"]["eval-coincident"]
    assert [(r["ran_first"], r["correct"], r["failed"]) for r in parent["runs"]] == [
        (False, True, 0), (True, False, 2)]
    assert parent["metrics"]["ops_per_s"]["median"] == 8.5
    assert parent["metrics"]["setup_s"] == {
        "unit": "s", "median": 1.0, "q1": 1.0, "q3": 1.0, "values": [1.0, 1.0]}


def test_traced_runs_keep_their_layers_and_the_known_blind_spots():
    runs = {side: {"mc-haar": [(1, 0, _stdout(1, 10.0))]} for side in ("change", "parent")}
    traced = {"change": {"mc-haar": _stdout(1, 0.0, trace=1)},
              "parent": {"mc-haar": _stdout(1, 0.0, failed=3, trace=1)}}
    record = _assemble(runs, traced)
    assert record["layers"]["command"] == (
        "python3 perfbench/run.py --workload W --seed 1 --seconds 6 --trace 1")
    assert record["layers"]["blind_spots"] == bench_record.BLIND_SPOTS
    assert "montecarlo.svd_ms" in record["layers"]["blind_spots"]
    change = record["sides"]["change"]["layers"]["mc-haar"]
    assert (change["seed"], change["correct"], change["failed"]) == (1, True, 0)
    assert change["metrics"] == {k: {"value": 1.0, "unit": u} for k, u in _LAYER_UNITS.items()}
    parent = record["sides"]["parent"]["layers"]["mc-haar"]
    assert (parent["correct"], parent["failed"]) == (False, 3)
    # the end-to-end part is the same as without traced runs
    assert record["sides"]["change"]["workloads"] == _assemble(runs)["sides"]["change"]["workloads"]


def test_tier1_record_keeps_wall_time_exit_code_and_summary_counts():
    out = "..F..\n=== 15 failed, 876 passed, 5 warnings in 31.20s ===\n"
    assert bench_record.parse_tier1(33.5, 1, out) == {
        "wall_s": 33.5, "returncode": 1, "summary": "15 failed, 876 passed, 5 warnings in 31.20s",
        "counts": {"failed": 15, "passed": 876, "warnings": 5}}
    assert bench_record.parse_tier1(0.5, 4, "")["counts"] == {}


def test_a_run_without_a_meta_line_is_refused():
    with pytest.raises(ValueError, match="meta"):
        bench_record.parse_run('{"correct": true}\n')


def test_src_lines_counts_each_module():
    root = os.path.dirname(os.path.dirname(__file__))
    counts = bench_record.src_lines(root)
    assert counts["spherical.py"] > 0
    assert counts["total"] == sum(v for k, v in counts.items() if k != "total")


def test_cold_start_table_keeps_the_median_cpu_and_wall_time_and_the_exit_codes():
    table = bench_record.cold_start_table({
        "python -c pass": [(0.030, 0.034, 0), (0.020, 0.041, 0), (0.025, 0.036, 0)],
        "python -m spherica.cli validate --suite polya": [
            (0.050, 0.070, 0), (0.060, 0.058, 2)],
    })
    assert table["python -c pass"] == {
        "cpu_ms": pytest.approx(25.0), "wall_ms": pytest.approx(36.0), "spawns": 3,
        "exit_codes": [0]}
    assert table["python -m spherica.cli validate --suite polya"] == {
        "cpu_ms": pytest.approx(55.0), "wall_ms": pytest.approx(64.0), "spawns": 2,
        "exit_codes": [0, 2]}


def test_a_spawn_reports_child_cpu_wall_time_and_exit_code():
    root = os.path.dirname(os.path.dirname(__file__))
    cpu, wall, code = bench_record.spawn(root, ["-c", "import sys; sys.exit(3)"])
    assert code == 3
    assert 0.0 < cpu and 0.0 < wall
