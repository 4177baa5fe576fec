"""Record the benchmark's end-to-end metrics of a change, and of its parent,
in BENCH_<PR>.json.

    python3 tools/bench_record.py --pr 41 --parent ../parent --seconds 6 \\
        --workload eval-coincident:5 --workload mc-haar:2

Each WORKLOAD:K runs seeds 1..K.  Per seed, the script runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

as a subprocess from the root of the change checkout (the one holding this
script) and, given --parent, from the root of the parent checkout, one run
at a time; the side that runs first alternates from seed to seed, so a
drift of the machine falls on both sides alike.  From each run's stdout it
keeps the `meta {json}` line and the last line, the result object
{"correct", "attempted", "failed", "metrics"}.  The file holds, per side
and workload, the median, quartiles and per-seed values of the six
end-to-end metrics, `correct` and `failed` per run, each run's meta block,
and the line count of each src/spherica/*.py of the side; it is written at
the root of the change checkout.  Before the benchmark runs, each side runs
the Tier-1 suite once,

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

and the file keeps its wall time, exit code and pytest's summary counts.
Then each side spawns each cold-start command SPAWNS = 11 times,
`python -c pass`, `python -c 'import spherica.cli'` and four cheap
`python -m spherica.cli` subcommands, the side that spawns first
alternating from spawn to spawn; the file keeps, per side and command, the
median child CPU time (user + system, from wait4) and wall time of the
spawns and their exit codes.  Last, each side runs each workload once more
at seed 1 with --trace 1, the side that runs first alternating from
workload to workload, and the file keeps those runs' per-layer metrics
under "layers", with the tracer's known blind spots (BLIND_SPOTS: metrics
that read 0 or time something other than their name says).  Numbers from
different machines are not comparable; the meta blocks name the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
END_TO_END = (
    "setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "pass_frac", "peak_rss_mb",
)
TIER1 = ["python", "-m", "pytest", "-q", "--continue-on-collection-errors"]
SPAWNS = 11
TRACE_SEED = 1
# per-layer metrics of the --trace 1 runs that do not measure what they name
BLIND_SPOTS = {
    "series.*": "read 0 on every workload; kernel-matrix assembly has no span",
    "symfunc.*": "read 0 on every workload",
    "montecarlo.qr_ms": "reads 0: the Haar sampler has no QR stage",
    "montecarlo.svd_ms": "reads 0: no estimator takes an SVD",
    "spherical.ratio_ms": "counts the Newton pivot product",
    "spherical.tail_bound_*": "time and count only the tail bound's set-up",
    "trace.overhead_frac": "reads about 1.5 on cli-cold, whose traced run times no module loading",
}
COLD_START = (
    ["-c", "pass"],
    ["-c", "import spherica.cli"],
    ["-m", "spherica.cli", "eval-spherical", "--x", "1,2", "--xi", "0.5,1.5"],
    ["-m", "spherica.cli", "orbital", "--lam", "1,1", "--theta", "0.5,1.5"],
    ["-m", "spherica.cli", "sweep", "--kind", "weyl", "--m", "2", "--n-list", "4,8"],
    ["-m", "spherica.cli", "validate", "--suite", "polya"],
)


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(meta, result) from one run's stdout: the `meta {json}` line and the
    result object on the last line."""
    lines = stdout.strip().splitlines()
    meta = next((json.loads(ln[5:]) for ln in lines if ln.startswith("meta {")), None)
    if meta is None:
        raise ValueError("run output has no meta line")
    return meta, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of per-seed values."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def src_lines(root: str) -> dict[str, int]:
    """Line count of each src/spherica/*.py under root, and their total."""
    pkg = os.path.join(root, "src", "spherica")
    counts = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                counts[name] = sum(1 for _ in fh)
    counts["total"] = sum(counts.values())
    return counts


def parse_tier1(wall_s: float, returncode: int, stdout: str) -> dict:
    """The Tier-1 record of one side: wall time, exit code, and the counts
    of pytest's closing summary line ("15 failed, 876 passed in 31.20s")."""
    lines = stdout.strip().splitlines()
    summary = lines[-1].strip("= ") if lines else ""
    counts = {word: int(k) for k, word in re.findall(r"(\d+) (\w+)", summary.split(" in ")[0])}
    return {"wall_s": wall_s, "returncode": returncode, "summary": summary, "counts": counts}


def cold_start_table(spawns: dict) -> dict:
    """Per command, the median child CPU and wall time in ms and the exit
    codes of its spawns, from spawns[command], a list of (cpu_s, wall_s,
    exit code) per spawn."""
    return {
        command: {
            "cpu_ms": statistics.median(cpu for cpu, _, _ in runs) * 1e3,
            "wall_ms": statistics.median(wall for _, wall, _ in runs) * 1e3,
            "spawns": len(runs),
            "exit_codes": sorted({code for _, _, code in runs}),
        }
        for command, runs in spawns.items()
    }


def layer_record(stdout: str) -> dict:
    """The per-layer record of one --trace 1 run: its verdict and metrics."""
    meta, result = parse_run(stdout)
    return {"seed": meta["seed"], "correct": result["correct"], "failed": result["failed"],
            "metrics": result["metrics"]}


def assemble(
    pr: int, seconds: float, runs: dict, lines: dict, tier1: dict, cold: dict, traced: dict
) -> dict:
    """The BENCH record from runs[side][workload], a list of (seed, order,
    stdout) per run, order 0 where the side ran first, lines[side] from
    src_lines, tier1[side] from parse_tier1, cold[side] from
    cold_start_table and traced[side][workload], the stdout of the side's
    --trace 1 run."""
    sides = {}
    for side, by_workload in runs.items():
        workloads = {}
        for workload, side_runs in by_workload.items():
            parsed = [(seed, order, *parse_run(out)) for seed, order, out in sorted(side_runs)]
            records = [
                {
                    "seed": seed, "ran_first": order == 0,
                    "correct": result["correct"], "failed": result["failed"],
                    "attempted": result["attempted"],
                    "metrics": {k: result["metrics"][k]["value"] for k in END_TO_END},
                    "meta": meta,
                }
                for seed, order, meta, result in parsed
            ]
            units = {k: parsed[0][3]["metrics"][k]["unit"] for k in END_TO_END}
            workloads[workload] = {
                "metrics": {
                    k: {"unit": units[k], **summarize([r["metrics"][k] for r in records])}
                    for k in END_TO_END
                },
                "runs": records,
            }
        layers = {workload: layer_record(out) for workload, out in traced[side].items()}
        sides[side] = {"src_lines": lines[side], "tier1": tier1[side],
                       "cold_start": cold[side], "workloads": workloads, "layers": layers}
    command = "python3 perfbench/run.py --workload W --seed {} --seconds {:g} --trace {}"
    return {
        "pr": pr, "command": command.format("S", seconds, 0), "sides": sides,
        "layers": {"command": command.format(TRACE_SEED, seconds, 1),
                   "blind_spots": BLIND_SPOTS},
    }


def _run(root: str, workload: str, seed: int, seconds: float, trace: int = 0) -> str:
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _src_env() -> dict:
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _tier1(root: str) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=root, env=_src_env(), capture_output=True, text=True)
    return parse_tier1(time.perf_counter() - t0, proc.returncode, proc.stdout)


def spawn(root: str, argv: list[str]) -> tuple[float, float, int]:
    """(child CPU s, wall s, exit code) of one `python argv` run from root
    with src on PYTHONPATH, its output discarded."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=root, env=_src_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_utime + usage.ru_stime, wall, proc.returncode


def _workload(spec: str) -> tuple[str, int]:
    name, _, count = spec.partition(":")
    return name, int(count or 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True, help="number in the file name")
    p.add_argument("--workload", type=_workload, action="append", required=True,
                   metavar="NAME[:K]", help="run seeds 1..K (default 1)")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--parent", help="parent checkout to run alternately with this one")
    args = p.parse_args(argv)
    roots = {"change": ROOT}
    if args.parent:
        roots["parent"] = os.path.abspath(args.parent)
    tier1 = {}
    for side, root in roots.items():
        print(f"{side} tier-1", file=sys.stderr, flush=True)
        tier1[side] = _tier1(root)
    spawns = {side: {} for side in roots}
    for argv in COLD_START:
        command = shlex.join(["python", *argv])
        print(f"cold start {command}", file=sys.stderr, flush=True)
        for i in range(SPAWNS):
            for side in list(roots) if i % 2 == 0 else list(reversed(roots)):
                spawns[side].setdefault(command, []).append(spawn(roots[side], argv))
    runs = {side: {} for side in roots}
    for workload, count in args.workload:
        for seed in range(1, count + 1):
            # alternate which side runs first from seed to seed
            order = list(roots) if seed % 2 else list(reversed(roots))
            for position, side in enumerate(order):
                print(f"{side} {workload} seed {seed}", file=sys.stderr, flush=True)
                stdout = _run(roots[side], workload, seed, args.seconds)
                runs[side].setdefault(workload, []).append((seed, position, stdout))
    traced = {side: {} for side in roots}
    for i, (workload, _) in enumerate(args.workload):
        for side in list(roots) if i % 2 == 0 else list(reversed(roots)):
            print(f"{side} {workload} traced", file=sys.stderr, flush=True)
            traced[side][workload] = _run(roots[side], workload, TRACE_SEED, args.seconds, 1)
    lines = {side: src_lines(root) for side, root in roots.items()}
    cold = {side: cold_start_table(by_command) for side, by_command in spawns.items()}
    record = assemble(args.pr, args.seconds, runs, lines, tier1, cold, traced)
    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
