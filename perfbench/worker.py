"""Workload process: imports spherica, warms up, reports ready, then runs
the ops it is sent for the requested time.

Protocol (one JSON line each way, after the "ready" line):
  stdin  <- job  {"workload", "ops", "seconds", "cycled", "round", "trace",
                  "trace_path", "cli_env"}
  stdout -> result {"passes": [...], "cli_ref": {...}, "rss_kb": ..., ...}
EOF on stdin instead of a job means the spawn only measured set-up time.
The benchmark's tracer and spherica.cli (for the CLI reference) are
imported only where they are used, after the set-up time is read.

Run as `python3 perfbench/worker.py <workload>` from the checkout root with
src/ on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from array import array

import spherica

_now = time.perf_counter_ns
_cpu = time.process_time_ns
HERE = os.path.dirname(os.path.abspath(__file__))
# wall time between two runs of the calibration loop during a pass
CALIBRATE_EVERY_NS = 100_000_000


# keys of the dictionary half of the calibration loop
_CAL_KEYS = [(k * 7919) % 100003 for k in range(2500)]


def calibrate() -> int:
    """Geometric mean of the CPU nanoseconds of two fixed pure-Python loops,
    each 1.5 to 2 ms on an uncontended core of the 2-vCPU Xeon machine it was
    written on: a float recurrence, which stays in registers, and building,
    reading and sorting a dictionary of tuples and strings, whose memory use
    is closer to the library's.  Run between ops, it tracks how fast a shared
    machine currently runs this process; see NOTES.md."""
    t0 = _cpu()
    acc, t = 0.0, 1.0
    for k in range(1, 20000):
        t = t * 0.999 + 1.0 / k
        acc += t * t
    t1 = _cpu()
    d = {}
    for k in _CAL_KEYS:
        d[(k, k & 7)] = [k, str(k)]
    sum(d[(k, k & 7)][0] for k in _CAL_KEYS)
    sorted(d.items(), key=lambda kv: kv[1][1])
    t2 = _cpu()
    return round(math.sqrt((t1 - t0) * (t2 - t1)))


def _omega(d):
    return spherica.OmegaParam(d["alpha"], d["gamma"])


def _call(fn, args):
    """Make one library call and return its result."""
    if fn == "spherical_eval":
        return spherica.spherical.spherical_eval(args[0], args[1])
    if fn == "orbital_integral":
        return spherica.spherical.orbital_integral(args[0], args[1])
    if fn == "heat_kernel":
        return spherica.spherical.heat_kernel(args[0], args[1], args[2])
    if fn == "spherical_convergence":
        return spherica.limits.spherical_convergence(_omega(args[0]), args[1], args[2])
    if fn == "mc_spherical":
        return spherica.montecarlo.mc_spherical(args[0], args[1], args[2], seed=args[3])
    if fn == "mc_orbital_exp":
        return spherica.montecarlo.mc_orbital_exp(args[0], args[1], args[2], seed=args[3])
    if fn == "mc_biinvariant_avg":
        return spherica.montecarlo.mc_biinvariant_avg(
            _omega(args[0]), args[1], args[2], args[3], args[4], seed=args[5]
        )
    raise ValueError(f"unknown op {fn!r}")


def _plain(fn, out):
    if fn in ("spherical_eval", "orbital_integral"):
        return {"value": out.value, "abs_error": out.abs_error, "path": out.path}
    if fn == "heat_kernel":
        return {"value": out}
    if fn == "spherical_convergence":
        return {"values": list(out.values), "limit": out.limit_value}
    return {"mean": out.mean, "se": out.std_error}


def _warm_up(workload: str) -> None:
    """One small call of every op kind the workload makes (counted in
    set-up time): first calls load numpy/scipy code paths lazily.  cli-cold
    needs none: its ops run in child processes."""
    if workload == "eval-separated":
        for fn, args in (("spherical_eval", [[1.0, 0.5], [0.8, 0.3]]),
                         ("orbital_integral", [[1.0, 0.5], [0.8, 0.3]]),
                         ("heat_kernel", [1.0, [1.0, 0.5], [0.8, 0.3]])):
            _call(fn, args)
    elif workload == "eval-coincident":
        _call("spherical_eval", [[1.0, 1.0], [0.8, 0.3]])
        _call("orbital_integral", [[1.0, 0.5], [0.8, 0.8]])
        _call("spherical_convergence", [{"alpha": [0.5], "gamma": 0.0}, 1.0, [4, 8]])
    elif workload == "mc-haar":
        _call("mc_spherical", [[1.0, 0.5], [0.8, 0.3], 256, 0])
        _call("mc_orbital_exp", [[1.0, 0.5], [0.8, 0.3], 256, 0])
        _call("mc_biinvariant_avg", [{"alpha": [1.0], "gamma": 0.0}, [1.0], [1.0], 4, 256, 0])


def _importtime_scipy_ms(stderr: str) -> float:
    """Sum of the cumulative import time of the outermost scipy modules in
    `-X importtime` output."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        rows.append((depth, name.strip(), int(parts[1])))
    scipy_rows = [r for r in rows if r[1] == "scipy" or r[1].startswith("scipy.")]
    if not scipy_rows:
        return 0.0
    top = min(r[0] for r in scipy_rows)
    return sum(r[2] for r in scipy_rows if r[0] == top) / 1000.0


def _children_cpu_ns() -> int:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int((ru.ru_utime + ru.ru_stime) * 1e9)


class Runner:
    """Runs ops one after another (one client, closed loop).

    Each op is timed on the process CPU clock (plus the CPU time of its
    child process for CLI ops), which leaves out the time the shared machine
    takes the CPU away, and on the wall clock, which is only reported.  The
    calibration samples taken during a pass let the runner rescale the CPU
    times to a reference speed."""

    def __init__(self, job, rec=None):
        self.job = job
        self.rec = rec
        self.python = sys.executable

    def _cli(self, argv, bare_ns):
        env = self.job["cli_env"]
        if self.rec is None:
            cmd = [self.python, "-m", "spherica.cli", *argv]
        else:
            spans_path = self.job["trace_path"] + ".cli-spans.json"
            cmd = [self.python, "-X", "importtime", os.path.join(HERE, "cli_boot.py"),
                   spans_path, *argv]
            span = self.rec.open("cli.process")
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        out = {"code": proc.returncode, "stdout": proc.stdout}
        if self.rec is None:
            return out
        import tracer

        rec = self.rec
        rec.close(span)
        with open(spans_path, encoding="utf-8") as fh:
            child = [tracer.Span.from_json(d) for d in json.load(fh)]
        os.remove(spans_path)
        rec.adopt(child, under=span)
        span.counters["cli.interpreter_ms"] = bare_ns / 1e6
        span.counters["cli.import_scipy_ms"] = _importtime_scipy_ms(proc.stderr)
        return out

    def one(self, op):
        """(cpu ns, wall ns, status, output) for one op; status None means
        it returned, otherwise it names the exception raised."""
        fn, args = op["fn"], op["args"]
        rec = self.rec
        bare_ns = None
        if rec is not None:
            if fn == "cli":
                # bare interpreter start, measured outside the op
                b0 = _now()
                subprocess.run([self.python, "-c", "pass"], env=self.job["cli_env"],
                               capture_output=True)
                bare_ns = _now() - b0
            rec.op = op["id"]
            root = rec.open("bench.op")
        status = out = None
        c0, k0, w0 = _cpu(), _children_cpu_ns(), _now()
        try:
            if fn == "cli":
                out = self._cli(args, bare_ns)
            else:
                try:
                    res = _call(fn, args)
                except Exception as exc:  # a refusal or failure is a measured outcome
                    status = type(exc).__name__
        finally:
            w1, c1 = _now(), _cpu()
            cpu = c1 - c0 + (_children_cpu_ns() - k0 if fn == "cli" else 0)
            if rec is not None:
                rec.close(root)
        if fn != "cli" and status is None:
            out = _plain(fn, res)
        return cpu, w1 - w0, status, out

    def run_pass(self, seconds: float, start: int):
        """Rounds of ops until `seconds` of wall time have passed, with the
        calibration loop run at the start, every CALIBRATE_EVERY_NS between
        ops, and at the end.

        Returns the pass in compact form, so that memory does not grow much
        with the number of ops: op ids and CPU and wall nanoseconds in
        arrays, the exception name of each op that raised by record index,
        each input's first output, and any later output that differs from
        it (the library is deterministic, so none should); plus the next op
        index."""
        ops, cycled, round_len = self.job["ops"], self.job["cycled"], self.job["round"]
        ids, cpus, walls = array("q"), array("q"), array("q")
        # calibration samples: (number of ops done when taken, CPU ns)
        cal_at, cal_ns = array("q"), array("q")
        cal_at.append(0)
        cal_ns.append(calibrate())
        last_cal = _now()
        status_of, first, divergent = {}, {}, {}
        i = start
        t_start = _now()
        while True:
            for _ in range(round_len):
                if not cycled and i >= len(ops):
                    raise RuntimeError("workload ran out of generated ops; raise its size")
                op = ops[i % len(ops)]
                cpu, wall, status, out = self.one(op)
                k = len(ids)
                ids.append(op["id"])
                cpus.append(cpu)
                walls.append(wall)
                if status is not None:
                    status_of[k] = status
                elif op["id"] not in first:
                    first[op["id"]] = out
                elif out != first[op["id"]]:
                    divergent[k] = out
                i += 1
                if _now() - last_cal >= CALIBRATE_EVERY_NS:
                    cal_at.append(len(ids))
                    cal_ns.append(calibrate())
                    last_cal = _now()
            if _now() - t_start >= seconds * 1e9:
                break
        wall_s = (_now() - t_start) / 1e9
        cal_at.append(len(ids))
        cal_ns.append(calibrate())
        return {"ids": ids, "cpu_ns": cpus, "wall_ns": walls, "cal_at": cal_at,
                "cal_ns": cal_ns, "status": status_of,
                "outputs": first, "divergent": divergent, "wall_s": wall_s}, i


def _cli_reference(ops, ids):
    """In-process spherica.cli.main(argv) stdout and exit code per op id."""
    from spherica import cli as spherica_cli

    ref = {}
    for op in ops:
        if op["id"] in ids and op["fn"] == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = spherica_cli.main(list(op["args"]))
            ref[op["id"]] = {"code": code, "stdout": buf.getvalue()}
    return ref


def _blas_info():
    try:
        cfg = __import__("numpy").show_config(mode="dicts")
        return cfg.get("Build Dependencies", {}).get("blas", {}).get("version")
    except (TypeError, AttributeError):  # numpy < 1.25 has no mode="dicts"
        return None


def main() -> int:
    workload = sys.argv[1]
    # One CPU for this process and the CLI children it starts, so that the
    # calibration loop runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    _warm_up(workload)
    # CPU time of this process so far: interpreter start, imports, warm-up
    setup_cpu = time.process_time()
    cal = sorted(calibrate() for _ in range(5))
    sys.stdout.write(f"ready {setup_cpu!r} {cal[2]}\n")
    sys.stdout.flush()
    line = sys.stdin.readline()
    if not line:
        return 0
    job = json.loads(line)
    passes = []
    seconds = job["seconds"]
    if job["trace"]:
        untraced, nxt = Runner(job).run_pass(seconds / 2.0, 0)
        passes.append(dict(untraced, traced=False))
        import tracer

        rec = tracer.Recorder()
        restore = tracer.install(rec, tracer.IN_PROCESS_TARGETS)
        try:
            traced, _ = Runner(job, rec).run_pass(seconds / 2.0, 0 if job["cycled"] else nxt)
        finally:
            restore()
        op_spans = [s for s in rec.spans if s.name == "bench.op"]
        traced.update(traced=True, layer=tracer.layer_metrics(rec.spans, len(traced["ids"])),
                      op_ns=sum(s.end - s.start for s in op_spans),
                      layer_self_ms=tracer.layer_self_ms(rec.spans))
        passes.append(traced)
        rec.write_jsonl(job["trace_path"])
    else:
        untraced, _ = Runner(job).run_pass(seconds, 0)
        passes.append(dict(untraced, traced=False))
    # peak memory of the ops, read before the result is serialized
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for p in passes:
        for key in ("ids", "cpu_ns", "wall_ns", "cal_at", "cal_ns"):
            p[key] = p[key].tolist()
    ran = {i for p in passes for i in p["ids"]}
    result = {
        "passes": passes,
        "cli_ref": _cli_reference(job["ops"], ran) if workload == "cli-cold" else {},
        "rss_kb": rss_kb,
        "rss_children_kb": rss_children_kb,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": __import__("numpy").__version__,
            "scipy": __import__("scipy").__version__,
            "openblas": _blas_info(),
        },
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
