"""Statistics shared by the benchmark runner and its tests.

Nothing here imports spherica: these are the benchmark's own rules for
percentiles, rescaling CPU times and failure accounting.
"""

from __future__ import annotations

import bisect
import math
import statistics

# A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(q, n):
    # ceil(q/100 * n), rounded first so that 99.9% of 10000 is 9990, not 9991
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def nearest_rank(sorted_values, q):
    """Value at the nearest rank ceil(q/100 * N) (1-based) of sorted data."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(q, len(sorted_values)) - 1]


def tail(samples, q, keys=None):
    """Value at percentile ``q`` (nearest rank) and how much lies beyond it.

    The percentile is fixed per workload by the caller, so that two runs
    always compare the same order statistic, whatever their op counts.
    ``keys`` optionally names the input each sample came from: a cycled
    workload repeats each input many times, and repeats of one input are not
    independent samples of the input distribution.  Returns (value, samples
    beyond, inputs beyond), the last counted as floor((1 - q/100) * distinct
    inputs); the tail is well founded when both are at least MIN_BEYOND.
    """
    if not samples:
        raise ValueError("no samples")
    ranked = sorted(samples)
    n = len(ranked)
    distinct = len(set(keys)) if keys is not None else n
    rank = _rank(q, n)
    inputs_beyond = math.floor(round((1.0 - q / 100.0) * distinct, 9))
    return ranked[rank - 1], n - rank, inputs_beyond


# CPU time of the worker's calibration loop on an uncontended core of the
# machine the benchmark was written on (Intel Xeon, 2 vCPUs).
REF_CALIBRATION_NS = 2_000_000


def normalize(cpu_ns, cal_at, cal_ns, ref_ns=REF_CALIBRATION_NS, window=5):
    """Rescale op CPU times to the reference speed of the calibration loop.

    ``cal_at[j]`` is the number of ops done when calibration sample
    ``cal_ns[j]`` was taken (ascending).  Op k lies after the last sample
    taken at or before it; its time is multiplied by ref_ns over the median
    of the ``window`` samples centred there."""
    half = window // 2
    factors = [
        statistics.median(cal_ns[max(0, j - half): j + half + 1]) for j in range(len(cal_ns))
    ]
    out = []
    for k, ns in enumerate(cpu_ns):
        j = bisect.bisect_right(cal_at, k) - 1
        out.append(ns * ref_ns / factors[max(j, 0)])
    return out


# Outcome of one op after the oracle check.  PASS meets the certified gate;
# every other value names why it missed, and exceptions are "raised:<Class>".
PASS = "pass"
OUTSIDE_BOUND = "outside_bound"  # |value - oracle| > returned abs_error
BOUND_ABOVE_TARGET = "bound_above_target"  # abs_error > 1e-8 * max(1, |oracle|)
REL_ABOVE_TARGET = "rel_above_target"  # heat kernel: relative error > 1e-8
MC_MISS = "mc_outside_k_se"
CLI_MISMATCH = "cli_mismatch"
SWEEP_MISS = "sweep_value_miss"

# Refusals are the library's documented errors for inputs it declines.
REFUSALS = ("DegeneracyError", "DomainError", "RangeError", "ShapeError", "ConvergenceError")


def raised(exc_name: str) -> str:
    return f"raised:{exc_name}"


def tally(outcomes):
    """Count outcomes: returns a dict with attempted, passed, pass_frac,
    fail_frac, refused, exceptions, oracle_misses and by_kind."""
    by_kind: dict[str, int] = {}
    for o in outcomes:
        by_kind[o] = by_kind.get(o, 0) + 1
    attempted = len(outcomes)
    passed = by_kind.get(PASS, 0)
    refused = sum(c for k, c in by_kind.items()
                  if k.startswith("raised:") and k[7:] in REFUSALS)
    exceptions = sum(c for k, c in by_kind.items() if k.startswith("raised:")) - refused
    return {
        "attempted": attempted,
        "passed": passed,
        "pass_frac": passed / attempted if attempted else 0.0,
        "fail_frac": (attempted - passed) / attempted if attempted else 0.0,
        "refused": refused,
        "exceptions": exceptions,
        "oracle_misses": attempted - passed - refused - exceptions,
        "by_kind": dict(sorted(by_kind.items())),
    }
