"""Seeded inputs for the four workloads.

Each workload is a list of ops.  An op is a plain JSON-able dict
{"id", "fn", "args", "cls"}: ``fn`` names the library call the worker makes,
``args`` are its generated arguments and ``cls`` groups ops of one shape for
the report.  The op mix (kinds and sizes) is fixed per workload; the seed
only draws the numbers, so the cost of a round barely moves from seed to
seed while the values the library sees do.

``cycled`` workloads repeat one pool of distinct inputs until time is up
(their mpmath oracle is costly per input); the others draw fresh inputs for
every op and the oracle checks only the ops that ran.
"""

from __future__ import annotations

import random

NAMES = ("eval-separated", "eval-coincident", "mc-haar", "cli-cold")
CYCLED = {"eval-separated": True, "eval-coincident": True, "mc-haar": False, "cli-cold": False}

# Sizes for a full run and for the seconds-long smoke run of the tests.
# mc-haar and cli-cold draw fresh inputs per op: their sizes cover about
# 250 s of ops; a run that needs more stops with an error.
FULL = {"sep_per_class": 48, "coinc_rounds": 8, "mc_rounds": 100, "cli_rounds": 30}
SMOKE = {"sep_per_class": 1, "coinc_rounds": 1, "mc_rounds": 1, "cli_rounds": 1}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _separated(rng, n, lo, hi, min_gap):
    """Sorted entries in [lo, hi] whose squares differ pairwise by at least
    min_gap times the largest square."""
    while True:
        v = sorted((rng.uniform(lo, hi) for _ in range(n)), reverse=True)
        sq = [x * x for x in v]
        if all(sq[i] - sq[i + 1] > min_gap * sq[0] for i in range(n - 1)):
            return v


def _ops(specs):
    return [dict(spec, id=i) for i, spec in enumerate(specs)]


def eval_separated(seed: int, size=FULL):
    """spherical_eval / orbital_integral / heat_kernel at well separated
    points, n = 1..8, entries U(0.1, 4) so products reach 16."""
    rng = _rng("eval-separated", seed)
    specs = []
    for n in range(1, 9):
        for _ in range(size["sep_per_class"]):
            x, xi = _separated(rng, n, 0.1, 4.0, 0.01), _separated(rng, n, 0.1, 4.0, 0.01)
            specs.append({"fn": "spherical_eval", "args": [x, xi], "cls": f"spherical-n{n}"})
            lam, th = _separated(rng, n, 0.1, 4.0, 0.01), _separated(rng, n, 0.1, 4.0, 0.01)
            specs.append({"fn": "orbital_integral", "args": [lam, th], "cls": f"orbital-n{n}"})
            t = rng.uniform(0.5, 2.0)
            lam, th = _separated(rng, n, 0.1, 4.0, 0.01), _separated(rng, n, 0.1, 4.0, 0.01)
            specs.append({"fn": "heat_kernel", "args": [t, lam, th], "cls": f"heat-n{n}"})
    rng.shuffle(specs)
    return _ops(specs)


def _coincident(rng, n, pairs, zeros):
    """n entries in [0.2, 2] with ``pairs`` coincident pairs and ``zeros``
    trailing zeros; the other entries are separated."""
    free = n - 2 * pairs - zeros
    base = _separated(rng, pairs + free, 0.2, 2.0, 0.05)
    v = base[:pairs] * 2 + base[pairs:] + [0.0] * zeros
    return sorted(v, reverse=True)


def eval_coincident(seed: int, size=FULL):
    """Points with coincident or zero squared entries (routed to the Schur
    series by path="auto") and rank-one spherical_convergence sweeps.

    Per round of 25: eight sweeps over n = 25..200 (6 to 10 ms each), twelve
    n=2 evaluations (about 8 ms), four n=3 and one n=4 evaluation (about
    100 ms).  Sorted by cost, the median falls inside the n=2 class and p90
    inside the n=3/n=4 class.  Full-rank n=4 (about 1.5 s per op) is left
    out: one such op would outweigh a whole round.
    """
    rng = _rng("eval-coincident", seed)
    specs = []
    for _ in range(size["coinc_rounds"]):
        round_specs = []
        for k in range(8):
            # one or two alphas, gamma zero or not: the shares are fixed, the
            # seed draws the values (two-alpha sweeps run about twice as fast)
            alpha = sorted((rng.uniform(0.05, 0.8) for _ in range(1 + k % 2)), reverse=True)
            omega = {"alpha": alpha, "gamma": 0.0 if k < 4 else rng.uniform(0.05, 0.5)}
            round_specs.append({"fn": "spherical_convergence",
                                "args": [omega, rng.uniform(0.5, 2.0), [25, 50, 100, 200]],
                                "cls": "sweep-rank1"})
        for _ in range(6):
            round_specs.append({"fn": "spherical_eval",
                                "args": [_coincident(rng, 2, 1, 0), _separated(rng, 2, 0.2, 2.0, 0.05)],
                                "cls": "spherical-n2"})
            round_specs.append({"fn": "orbital_integral",
                                "args": [_separated(rng, 2, 0.2, 2.0, 0.05), _coincident(rng, 2, 1, 0)],
                                "cls": "orbital-n2"})
        for _ in range(2):
            round_specs.append({"fn": "spherical_eval",
                                "args": [_coincident(rng, 3, 1, 0), _separated(rng, 3, 0.2, 2.0, 0.05)],
                                "cls": "spherical-n3"})
            round_specs.append({"fn": "orbital_integral",
                                "args": [_separated(rng, 3, 0.2, 2.0, 0.05), _coincident(rng, 3, 1, 0)],
                                "cls": "orbital-n3"})
        round_specs.append({"fn": "spherical_eval",
                            "args": [_coincident(rng, 4, 1, 0), _coincident(rng, 4, 0, 1)],
                            "cls": "spherical-n4"})
        rng.shuffle(round_specs)
        specs.extend(round_specs)
    return _ops(specs)


def mc_haar(seed: int, size=FULL):
    """Haar Monte Carlo: mc_spherical / mc_orbital_exp at n = 2..4 with 16384
    samples, and mc_biinvariant_avg at n = 40 with 2000 samples.

    Per round of 13: two n=2, two n=3 and five n=4 small estimators, and
    four bi-invariant averages.  Sorted by cost, the median falls in the
    middle of the n=4 class and p75 in the lower part of the bi-invariant
    class, so neither percentile sits on a class boundary and each is an
    order statistic of a class with many samples.
    """
    rng = _rng("mc-haar", seed)
    fns = ("mc_spherical", "mc_orbital_exp")
    specs = []
    for r in range(size["mc_rounds"]):
        round_specs = []
        for k, n in enumerate((2, 2, 3, 3, 4, 4, 4, 4, 4)):
            fn = fns[(k + r) % 2]
            x, xi = _separated(rng, n, 0.2, 1.2, 0.05), _separated(rng, n, 0.2, 1.2, 0.05)
            round_specs.append({"fn": fn, "args": [x, xi, 16384, rng.randrange(1 << 31)],
                                "cls": f"{fn}-n{n}"})
        for n in (40, 40, 40, 40):
            omega = {"alpha": [rng.uniform(1.0, 4.0)], "gamma": rng.uniform(0.0, 0.5)}
            round_specs.append({"fn": "mc_biinvariant_avg",
                                "args": [omega, [rng.uniform(0.5, 1.5)], [rng.uniform(0.5, 1.5)],
                                         n, 2000, rng.randrange(1 << 31)],
                                "cls": f"biinvariant-n{n}"})
        rng.shuffle(round_specs)
        specs.extend(round_specs)
    return _ops(specs)


def _csv(values):
    return ",".join(repr(float(v)) for v in values)


def cli_cold(seed: int, size=FULL):
    """`python -m spherica.cli` over a fixed mix of cheap subcommands.  Ops
    that read an --omega/--mixture file carry its content in "files"; the
    runner writes it into its work directory and substitutes the path."""
    rng = _rng("cli-cold", seed)
    specs = []
    for _ in range(size["cli_rounds"]):
        x, xi = _separated(rng, 2, 0.2, 2.0, 0.05), _separated(rng, 2, 0.2, 2.0, 0.05)
        lam, th = _separated(rng, 2, 0.2, 2.0, 0.05), _separated(rng, 2, 0.2, 2.0, 0.05)
        omega = {"alpha": [round(rng.uniform(0.05, 1.0), 6)], "gamma": round(rng.uniform(0.0, 1.0), 6)}
        w = round(rng.uniform(0.2, 0.8), 6)
        mixture = {"components": [
            {"weight": w, "omega": {"alpha": [round(rng.uniform(0.1, 2.0), 6)], "gamma": 0.0}},
            {"weight": 1.0 - w, "omega": {"alpha": [], "gamma": round(rng.uniform(0.1, 2.0), 6)}},
        ]}
        round_specs = [
            {"argv": ["eval-spherical", "--x", _csv(x), "--xi", _csv(xi)], "cls": "eval-spherical"},
            {"argv": ["orbital", "--lam", _csv(lam), "--theta", _csv(th)], "cls": "orbital"},
            {"argv": ["heat-kernel", "--t", repr(rng.uniform(0.5, 2.0)), "--lam", _csv(lam),
                      "--theta", _csv(xi)], "cls": "heat-kernel"},
            {"argv": ["eval-polya", "--omega", "{omega}", "--lam", _csv(xi)],
             "files": {"omega": omega}, "cls": "eval-polya"},
            {"argv": ["eval-mixture", "--mixture", "{mixture}", "--lam", _csv(x)],
             "files": {"mixture": mixture}, "cls": "eval-mixture"},
            {"argv": ["sweep", "--kind", "powersum", "--omega", "{omega}", "--m", "2",
                      "--n-list", "8,16,32"], "files": {"omega": omega}, "cls": "sweep-powersum"},
            {"argv": ["sweep", "--kind", "weyl", "--m", "1", "--n-list", "4,8,16"],
             "cls": "sweep-weyl"},
            {"argv": ["validate", "--suite", "special"], "cls": "validate-special"},
            {"argv": ["validate", "--suite", "symfunc"], "cls": "validate-symfunc"},
            {"argv": ["validate", "--suite", "polya", "--format", "json"], "cls": "validate-polya"},
        ]
        rng.shuffle(round_specs)
        specs.extend({"fn": "cli", "args": s["argv"], "files": s.get("files", {}),
                      "cls": s["cls"]} for s in round_specs)
    return _ops(specs)


BUILDERS = {
    "eval-separated": eval_separated,
    "eval-coincident": eval_coincident,
    "mc-haar": mc_haar,
    "cli-cold": cli_cold,
}

# Tail percentile of each workload, fixed so that runs of different speed
# compare the same order statistic.  At the baseline each left at least ten
# samples, and ten inputs' worth of samples, beyond it: 1152 and 200
# distinct inputs for the cycled workloads, 65 to 104 mc-haar and about 20
# cli-cold ops per 15 s run.  (p99 on eval-separated would rest on 11 inputs.)  A run
# with fewer prints a warning; the rung does not move.
TAIL_Q = {
    "eval-separated": 90.0,
    "eval-coincident": 90.0,
    "mc-haar": 75.0,
    "cli-cold": 50.0,
}

# Ops in one round: the worker only stops at a round boundary, so every run
# sees the same op mix.
ROUND = {
    "eval-separated": None,  # the whole cycled pool
    "eval-coincident": 25,
    "mc-haar": 13,
    "cli-cold": 10,
}
