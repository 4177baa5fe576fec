"""Benchmark for spherica: four workloads, an independent correctness gate,
end-to-end metrics from an untraced run and per-layer metrics from a traced
run.

    python3 perfbench/run.py --workload eval-separated --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout of the repository (it needs src/).  One
process per run; a fresh worker process per set-up measurement; one client,
closed loop.  The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
run metadata, the correctness check and every metric by name and unit.
See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")  # trace files, result records, CLI work files
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

# name -> unit; the end-to-end metrics printed with --trace 0
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "pass_frac": "ratio",
    "peak_rss_mb": "MB",
}

# name -> unit; the per-layer metrics printed with --trace 1
PER_LAYER = {
    "series.calls": "count/op", "series.self_ms": "ms/op", "series.errors": "count",
    "spherical.route_det": "count/op", "spherical.route_series": "count/op",
    "spherical.lu_ms": "ms/op", "spherical.ratio_ms": "ms/op",
    "spherical.det_self_ms": "ms/op", "spherical.errors": "count",
    "spherical.series_self_ms": "ms/op", "spherical.tail_bound_calls": "count/op",
    "spherical.tail_bound_ms": "ms/op", "spherical.weight_doublings": "count/op",
    "spherical.series_useful_frac": "ratio",
    "symfunc.partitions": "count/op", "symfunc.partition_enum_ms": "ms/op",
    "symfunc.jt_calls": "count/op", "symfunc.jt_ms": "ms/op", "symfunc.h_table_ms": "ms/op",
    "limits.points": "count/op", "limits.self_ms": "ms/op",
    "polya.calls": "count/op", "polya.ms": "ms/op",
    "montecarlo.blocks": "count/op", "montecarlo.samples": "count/op",
    "montecarlo.uniforms_ms": "ms/op", "montecarlo.ndtri_ms": "ms/op",
    "montecarlo.qr_ms": "ms/op", "montecarlo.phase_ms": "ms/op",
    "montecarlo.contract_ms": "ms/op", "montecarlo.svd_ms": "ms/op",
    "montecarlo.reduce_ms": "ms/op", "montecarlo.block_bytes_computed": "bytes/op",
    "montecarlo.errors": "count",
    "cli.interpreter_ms": "ms/op", "cli.import_ms": "ms/op", "cli.import_scipy_ms": "ms/op",
    "cli.main_ms": "ms/op", "validate.ms": "ms/op",
    "trace.overhead_frac": "ratio", "trace.op_wall_ms": "ms/op",
    "trace.layer_cover_frac": "ratio",
}

BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
READY_TIMEOUT_S = 120.0
SETUPS = 7  # fresh worker spawns timed for setup_s (median)


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(BLAS_ENV)
    return env


def _spawn_ready(workload: str, env: dict):
    """Start a worker and wait for its "ready" line.  Returns (proc, set-up
    CPU seconds the worker reports rescaled to the reference speed of the
    calibration loop, wall seconds until ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), workload],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        if not line.startswith("ready "):
            raise BenchError(f"worker for {workload} did not start (got {line!r})")
    except BaseException:
        _stop(proc)
        raise
    _, cpu_s, cal_ns = line.split()
    return proc, float(cpu_s) * stats.REF_CALIBRATION_NS / int(cal_ns), time.perf_counter() - t0


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _materialize_files(ops, workdir):
    """Write the --omega/--mixture files of CLI ops and put their relative
    paths into argv."""
    for op in ops:
        if not op.get("files"):
            continue
        paths = {}
        for key, content in op["files"].items():
            path = os.path.join(workdir, f"{key}-{op['id']}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(content, fh)
            paths[key] = os.path.relpath(path, ROOT)
        op["args"] = [a.format(**paths) if a.startswith("{") else a for a in op["args"]]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def records(p):
    """(op id, cpu ns, status, output, wall ns) for each record of a pass."""
    for k, op_id in enumerate(p["ids"]):
        status = p["status"].get(str(k))
        out = None if status else p["divergent"].get(str(k), p["outputs"].get(str(op_id)))
        yield op_id, p["cpu_ns"][k], status, out, p["wall_ns"][k]


def check(ops, passes, cli_ref):
    """Oracle verdicts for every op record.  Returns (outcomes, insane,
    claimed, oracle_s): gate outcome per record, number of records that
    raised or failed the sanity check (an output that differs between
    repeats of one input counts too), claimed relative errors of passing
    records, and the time spent in the oracle."""
    by_id = {op["id"]: op for op in ops}
    cache: dict[int, object] = {}
    outcomes, claimed = [], []
    insane = sum(len(p["divergent"]) for p in passes)
    t0 = time.perf_counter()
    for p in passes:
        for op_id, _, status, out, _ in records(p):
            op = by_id[op_id]
            if status is not None:
                outcomes.append(stats.raised(status))
                insane += 1
                continue
            if op_id not in cache:
                cache[op_id] = oracle.oracle_for(op)
            outcome, sane = oracle.verdict(op, out, cache[op_id], cli_ref.get(str(op_id)))
            outcomes.append(outcome)
            insane += not sane
            if outcome == stats.PASS:
                rel = oracle.claimed_rel_err(op, out)
                if rel is not None:
                    claimed.append(rel)
    return outcomes, insane, claimed, time.perf_counter() - t0


def op_ms(p):
    """Per-op CPU milliseconds of a pass at the calibration reference speed."""
    return [ns / 1e6 for ns in stats.normalize(p["cpu_ns"], p["cal_at"], p["cal_ns"])]


def end_to_end(name, setup_cpu, setup_wall, untraced, outcomes, claimed, result, ops):
    """End-to-end metrics of the untraced pass.  Times are CPU times at the
    calibration reference speed (see NOTES.md); raw CPU and wall-clock
    counterparts go into the info line."""
    lat = op_ms(untraced)
    raw = [ns / 1e6 for ns in untraced["cpu_ns"]]
    wall = [ns / 1e6 for ns in untraced["wall_ns"]]
    by_cls: dict[str, list[float]] = {}
    for op_id, ms in zip(untraced["ids"], lat):
        by_cls.setdefault(ops[op_id]["cls"], []).append(ms)
    q = workloads.TAIL_Q[name]
    tail, beyond, inputs_beyond = stats.tail(lat, q, untraced["ids"])
    if min(beyond, inputs_beyond) < stats.MIN_BEYOND:
        print(f"warning: {name} p{q:g} tail has only {beyond} samples and {inputs_beyond} "
              f"inputs' worth beyond it (want {stats.MIN_BEYOND})", file=sys.stderr)
    t = stats.tally(outcomes)
    metrics = {
        "setup_s": statistics.median(setup_cpu),
        "ops_per_s": len(lat) / (sum(lat) / 1e3),
        "latency_p50_ms": stats.nearest_rank(sorted(lat), 50.0),
        "latency_tail_ms": tail,
        "pass_frac": t["pass_frac"],
        # cli-cold measures the CLI processes, not the worker that starts them
        "peak_rss_mb": result["rss_children_kb" if name == "cli-cold" else "rss_kb"] / 1024.0,
    }
    info = {"tail_percentile": q, "samples_beyond": beyond, "inputs_beyond": inputs_beyond,
            "latency_samples": len(lat), "wall_latency_p50_ms": stats.nearest_rank(sorted(wall), 50.0),
            "cpu_latency_p50_ms": stats.nearest_rank(sorted(raw), 50.0),
            "calibration_median_ms": statistics.median(untraced["cal_ns"]) / 1e6,
            "wall_ops_per_s": len(lat) / untraced["wall_s"],
            "setup_wall_s": statistics.median(setup_wall),
            "worker_rss_mb": result["rss_kb"] / 1024.0,
            # seed-dependent (see NOTES.md), so reported without a bound
            "claimed_rel_err_p50": statistics.median(claimed) if claimed else None,
            "claimed_samples": len(claimed),
            "class_median_ms": {k: [len(v), round(statistics.median(v), 4)]
                                for k, v in sorted(by_cls.items())}}
    return metrics, info


def per_layer(passes):
    untraced = next(p for p in passes if not p["traced"])
    traced = next(p for p in passes if p["traced"])
    metrics = dict(traced["layer"])
    n = len(traced["ids"])
    cpu_per_op_u = sum(op_ms(untraced)) / len(untraced["ids"])
    cpu_per_op_t = sum(op_ms(traced)) / n
    # extra CPU time per op with the wrappers installed
    metrics["trace.overhead_frac"] = cpu_per_op_t / cpu_per_op_u - 1.0
    metrics["trace.op_wall_ms"] = traced["op_ns"] / 1e6 / n
    named = sum(v for k, v in traced["layer_self_ms"].items() if k != "bench")
    metrics["trace.layer_cover_frac"] = named / (traced["op_ns"] / 1e6)
    return metrics, {"layer_self_ms_total": traced["layer_self_ms"]}


def run_workload(name, seed, seconds, trace, setups, size):
    ops = workloads.BUILDERS[name](seed, size)
    env = worker_env()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        _materialize_files(ops, workdir)
        setup_cpu, setup_wall = [], []
        proc = None
        for k in range(setups):
            proc, cpu, wall = _spawn_ready(name, env)
            setup_cpu.append(cpu)
            setup_wall.append(wall)
            if k < setups - 1:
                proc.stdin.close()
                proc.wait(timeout=READY_TIMEOUT_S)
        round_len = workloads.ROUND[name] or len(ops)
        if size is workloads.SMOKE and not workloads.CYCLED[name]:
            round_len = 1
        job = {
            "workload": name, "ops": ops, "seconds": seconds,
            "cycled": workloads.CYCLED[name], "round": round_len, "trace": bool(trace),
            "trace_path": os.path.join(OUT, f"trace-{name}.jsonl"), "cli_env": env,
        }
        try:
            stdout, _ = proc.communicate(json.dumps(job) + "\n", timeout=seconds * 2 + 60)
        finally:
            _stop(proc)
        if proc.returncode != 0 or not stdout.strip():
            raise BenchError(f"worker for {name} failed with exit code {proc.returncode}")
        result = json.loads(stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes, insane, claimed, oracle_s = check(ops, result["passes"], result["cli_ref"])
    untraced = next(p for p in result["passes"] if not p["traced"])
    if trace:
        metrics, info = per_layer(result["passes"])
        units = PER_LAYER
    else:
        metrics, info = end_to_end(name, setup_cpu, setup_wall, untraced, outcomes, claimed,
                                   result, ops)
        units = END_TO_END
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "setups": setups, "setup_cpu_s": setup_cpu, "setup_wall_s": setup_wall,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "blas_env": BLAS_ENV, "versions": result["versions"],
        "git_commit": _git_commit(), "src_lines": _src_lines(),
        "distinct_inputs": len({i for p in result["passes"] for i in p["ids"]}),
        "oracle_s": oracle_s,
    }
    tally = stats.tally(outcomes)
    summary = {
        "correct": insane == 0,
        "attempted": len(outcomes),
        "failed": insane,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return summary, meta, tally, info


def _report(summary, meta, tally, info) -> None:
    print(f"workload {meta['workload']} seed {meta['seed']} seconds {meta['seconds']} "
          f"trace {meta['trace']}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"check: correct={summary['correct']} attempted={summary['attempted']} "
          f"failed={summary['failed']} (raised or off by more than the claimed bound and "
          f"1e-8*max(1,|oracle|))")
    print(f"gate: pass_frac={tally['pass_frac']:.6f} fail_frac={tally['fail_frac']:.6f} "
          f"refused={tally['refused']} exceptions={tally['exceptions']} "
          f"oracle_misses={tally['oracle_misses']} by_kind={json.dumps(tally['by_kind'])}")
    print("info " + json.dumps(info, sort_keys=True))
    for k, m in summary["metrics"].items():
        print(f"metric {k} = {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spherica", "__init__.py")):
        print(f"error: no spherica sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: need --seconds > 0", file=sys.stderr)
        return 2
    try:
        summary, meta, tally, info = run_workload(
            args.workload, args.seed, args.seconds, args.trace, SETUPS, workloads.FULL)
    except (BenchError, oracle.OracleError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _report(summary, meta, tally, info)
    record = {"summary": summary, "meta": meta, "gate": tally, "info": info}
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
