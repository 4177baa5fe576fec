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


def _stdout(seed, ops_per_s, failed=0):
    # the runner's lines: header, meta, check, gate, info, metrics, result
    meta = {"workload": "eval-coincident", "seed": seed, "cpu_model": "test cpu"}
    values = dict.fromkeys(_UNITS, 1.0) | {"ops_per_s": ops_per_s}
    result = {
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in _UNITS.items()},
    }
    return "\n".join([
        f"workload eval-coincident seed {seed} seconds 6 trace 0",
        "meta " + json.dumps(meta),
        "check: correct=True attempted=100 failed=0 (...)",
        "gate: pass_frac=1.000000 fail_frac=0.000000",
        'info {"oracle_s": 1.0}',
        *(f"metric {k} = {values[k]!r} {u}" for k, u in _UNITS.items()),
        json.dumps(result),
    ]) + "\n"


def test_assembly_keeps_per_seed_values_their_quartiles_and_each_run_verdict():
    runs = {
        "change": {"eval-coincident": [(s, s % 2 == 0, _stdout(s, v)) for s, v in
                                       [(3, 30.0), (1, 10.0), (4, 40.0), (2, 20.0), (5, 50.0)]]},
        "parent": {"eval-coincident": [(1, 1, _stdout(1, 9.0)), (2, 0, _stdout(2, 8.0, 2))]},
    }
    lines = {"change": {"spherical.py": 3, "total": 3}, "parent": {"spherical.py": 4, "total": 4}}
    record = bench_record.assemble(41, 6.0, runs, lines)
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
    parent = record["sides"]["parent"]["workloads"]["eval-coincident"]
    assert [(r["ran_first"], r["correct"], r["failed"]) for r in parent["runs"]] == [
        (False, True, 0), (True, False, 2)]
    assert parent["metrics"]["ops_per_s"]["median"] == 8.5
    assert parent["metrics"]["setup_s"] == {
        "unit": "s", "median": 1.0, "q1": 1.0, "q3": 1.0, "values": [1.0, 1.0]}


def test_a_run_without_a_meta_line_is_refused():
    with pytest.raises(ValueError, match="meta"):
        bench_record.parse_run('{"correct": true}\n')


def test_src_lines_counts_each_module():
    root = os.path.dirname(os.path.dirname(__file__))
    counts = bench_record.src_lines(root)
    assert counts["spherical.py"] > 0
    assert counts["total"] == sum(v for k, v in counts.items() if k != "total")
