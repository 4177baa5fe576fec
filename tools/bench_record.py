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
the root of the change checkout.  Numbers from different machines are not
comparable; the meta blocks name the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
END_TO_END = (
    "setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "pass_frac", "peak_rss_mb",
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


def assemble(pr: int, seconds: float, runs: dict, lines: dict) -> dict:
    """The BENCH record from runs[side][workload], a list of (seed, order,
    stdout) per run, order 0 where the side ran first, and lines[side] from
    src_lines."""
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
        sides[side] = {"src_lines": lines[side], "workloads": workloads}
    command = f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
    return {"pr": pr, "command": command, "sides": sides}


def _run(root: str, workload: str, seed: int, seconds: float) -> str:
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


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
    runs = {side: {} for side in roots}
    for workload, count in args.workload:
        for seed in range(1, count + 1):
            # alternate which side runs first from seed to seed
            order = list(roots) if seed % 2 else list(reversed(roots))
            for position, side in enumerate(order):
                print(f"{side} {workload} seed {seed}", file=sys.stderr, flush=True)
                stdout = _run(roots[side], workload, seed, args.seconds)
                runs[side].setdefault(workload, []).append((seed, position, stdout))
    lines = {side: src_lines(root) for side, root in roots.items()}
    record = assemble(args.pr, args.seconds, runs, lines)
    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
