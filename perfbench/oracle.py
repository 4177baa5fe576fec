"""Oracles and pass rules, independent of spherica (mpmath only).

* Determinant-shaped ops use the closed determinant formulas in mpmath at
  dps >= 60, cross-checked at a higher dps.
* Coincident or repeated-zero entries are split by tiny distinct shifts and
  the same formulas are evaluated with enough digits to absorb the
  cancellation; two shift sizes must agree.
* Rank-one sweeps use the one-row Schur sum
  sum_k (-1)^k ((n-1)!/(k+n-1)!)^2 h_k(lam^2) (u^2/4)^k.
* Monte Carlo ops are compared with the closed forms within k standard
  errors.

Each op gets two verdicts.  ``gate`` is the certified-accuracy gate whose
share of passes is the ``pass_frac`` metric: an evaluation passes when
|value - oracle| <= abs_error <= 1e-8 * max(1, |oracle|), the heat kernel when
its relative error is <= 1e-8.  ``sane`` is the weaker check behind the
result's ``correct`` flag: no value may be off by more than both its claimed
bound and 1e-8 * max(1, |oracle|), no estimate more than 6 standard errors
from its closed form, and CLI bytes must match.
"""

from __future__ import annotations

import json
import math

import mpmath as mp

import stats

TARGET = 1e-8
MC_K = 4.0  # acceptance criteria 3/4 compare within 4 standard errors
MC_K_SANE = 6.0
BIINV_FLOOR = 0.02  # criterion 11: max(4 se, 0.02)


class OracleError(RuntimeError):
    """The oracle disagrees with itself at two precisions or shifts."""


def _gap_product(v):
    acc = mp.mpf(1)
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            acc *= v[i] ** 2 - v[j] ** 2
    return acc


def _det_formula(kind, a, b, t, dps):
    with mp.workdps(dps):
        n = len(a)
        A = [mp.mpf(v) for v in a]
        B = [mp.mpf(v) for v in b]
        superfact = mp.mpf(1)
        for j in range(1, n):
            superfact *= mp.factorial(j)
        M = mp.matrix(n, n)
        if kind == "spherical":
            for i in range(n):
                for j in range(n):
                    M[i, j] = mp.besselj(0, A[i] * B[j])
            pref = superfact**2 * mp.mpf(-4) ** (n * (n - 1) // 2)
        elif kind == "orbital":
            for i in range(n):
                for j in range(n):
                    M[i, j] = mp.besseli(0, A[i] * B[j])
            pref = mp.mpf(2) ** (n * (n - 1)) * superfact**2
        else:  # heat
            T = mp.mpf(t)
            for i in range(n):
                for j in range(n):
                    M[i, j] = mp.besseli(0, A[i] * B[j] / (2 * T))
            nrm = mp.fsum(v**2 for v in A) + mp.fsum(v**2 for v in B)
            pref = mp.exp(-nrm / (4 * T)) / (mp.factorial(n) * (2 * T) ** n)
        return +(pref * mp.det(M) / (_gap_product(A) * _gap_product(B)))


def _split(values, shift):
    """Shift repeated magnitudes apart: the k-th repeat of a nonzero value
    moves by k*shift*value, of zero by k*sqrt(shift) (the formulas depend on
    squares).  Returns (shifted entries as mpf, number of coincident pairs);
    with shift 0 only the count is of use."""
    out, seen, pairs = [], {}, 0
    for v in values:
        key = abs(float(v))
        k = seen.get(key, 0)
        seen[key] = k + 1
        pairs += k
        if k == 0:
            out.append(mp.mpf(key))
        elif key == 0.0:
            out.append(k * mp.sqrt(shift))
        else:
            out.append(mp.mpf(key) * (1 + k * shift))
    return out, pairs


def determinant_oracle(kind, a, b, t=None) -> float:
    """Closed form at (a, b); coincident entries handled by two shifts."""
    _, pa = _split(a, mp.mpf(0))
    _, pb = _split(b, mp.mpf(0))
    pairs = pa + pb
    if pairs == 0:
        lo = _det_formula(kind, a, b, t, 60)
        hi = _det_formula(kind, a, b, t, 90)
        tol = mp.mpf(10) ** -40
    else:
        dps = 60 + 45 * pairs
        with mp.workdps(dps):
            s1, s2 = mp.mpf(10) ** -30, mp.mpf(10) ** -36
            lo = _det_formula(kind, _split(a, s1)[0], _split(b, s1)[0], t, dps)
            hi = _det_formula(kind, _split(a, s2)[0], _split(b, s2)[0], t, dps + 20)
        tol = mp.mpf(10) ** -25
    if abs(lo - hi) > tol * max(1, abs(hi)):
        raise OracleError(f"{kind} oracle unstable at {a}, {b}: {lo} vs {hi}")
    return float(hi)


def _lambda_sequence(omega, n):
    """Entries of the documented size-n sequence for omega, as floats."""
    alpha, gamma = sorted(omega["alpha"], reverse=True), float(omega["gamma"])
    k = len(alpha)
    entries = [n * math.sqrt(a) for a in alpha]
    if gamma > 0.0:
        entries += [n * math.sqrt(gamma / (n - k))] * (n - k)
    else:
        entries += [0.0] * (n - k)
    return entries


def _complete_h(groups, K):
    """[h_0 .. h_K] of the multiset {c: multiplicity} of entries c (squared
    here).  The largest group is expanded in closed form, coefficients of
    (1 - c t)^(-g); the others are added one variable at a time by
    h_k <- h_k + c h_{k-1}."""
    nonzero = sorted(((g, c) for c, g in groups.items() if c != 0.0), reverse=True)
    if not nonzero:
        return [mp.mpf(1)] + [mp.mpf(0)] * K
    g0, c0 = nonzero[0]
    cc = mp.mpf(c0) ** 2
    h = [mp.mpf(1)]
    for j in range(1, K + 1):
        h.append(h[-1] * (j + g0 - 1) / j * cc)
    for g, c in nonzero[1:]:
        cc = mp.mpf(c) ** 2
        for _ in range(g):
            for k in range(1, K + 1):
                h[k] += cc * h[k - 1]
    return h


def _one_row_sum(lam, u, dps):
    """sum_k (-1)^k ((n-1)!/(k+n-1)!)^2 h_k(lam^2) (u^2/4)^k, summed until
    two consecutive terms fall below 1e-40 relative."""
    with mp.workdps(dps):
        n = len(lam)
        groups: dict[float, int] = {}
        for v in lam:
            groups[v] = groups.get(v, 0) + 1
        z = mp.mpf(u) ** 2 / 4
        K = 128
        while K <= 4096:
            h = _complete_h(groups, K)
            coef = mp.mpf(1)  # ((n-1)!/(k+n-1)!)^2
            terms = []
            for k in range(K + 1):
                if k:
                    coef /= mp.mpf(k + n - 1) ** 2
                terms.append((-1) ** k * coef * h[k] * z**k)
            total = mp.fsum(terms)
            if abs(terms[-1]) + abs(terms[-2]) < mp.mpf(10) ** -40 * max(1, abs(total)):
                return total
            K *= 2
        raise OracleError("one-row sum did not converge")


def sweep_oracle(omega, u, n_values):
    """(values along the grid, limit Pi(omega, u))."""
    values = []
    for n in n_values:
        lam = _lambda_sequence(omega, n)
        lo = _one_row_sum(lam, u, 60)
        hi = _one_row_sum(lam, u, 80)
        if abs(lo - hi) > mp.mpf(10) ** -35 * max(1, abs(hi)):
            raise OracleError(f"sweep oracle unstable at n={n}")
        values.append(float(hi))
    return values, polya_oracle(omega, [u])


def polya_oracle(omega, xs) -> float:
    with mp.workdps(40):
        acc = mp.mpf(1)
        for x in xs:
            q = mp.mpf(x) ** 2 / 4
            acc *= mp.exp(-mp.mpf(omega["gamma"]) * q)
            for a in omega["alpha"]:
                acc /= 1 + mp.mpf(a) * q
        return float(acc)


# ---------------------------------------------------------------------------
# Verdicts: (gate outcome, sane) for one op's output.


def check_eval(out, ref):
    err = abs(out["value"] - ref)
    floor = TARGET * max(1.0, abs(ref))
    sane = err <= max(out["abs_error"], floor)
    if err > out["abs_error"]:
        return stats.OUTSIDE_BOUND, sane
    if out["abs_error"] > floor:
        return stats.BOUND_ABOVE_TARGET, sane
    return stats.PASS, sane


def check_heat(out, ref):
    err = abs(out["value"] - ref)
    sane = err <= TARGET * max(1.0, abs(ref))
    if err > TARGET * abs(ref):
        return stats.REL_ABOVE_TARGET, sane
    return stats.PASS, sane


def check_sweep(out, ref):
    values, limit = ref
    ok = len(out["values"]) == len(values) and all(
        abs(v - o) <= TARGET * max(1.0, abs(o)) for v, o in zip(out["values"], values)
    ) and abs(out["limit"] - limit) <= 1e-14 * max(1.0, abs(limit))
    return (stats.PASS if ok else stats.SWEEP_MISS), ok


def check_mc(out, ref, floor=0.0):
    gap = abs(out["mean"] - ref)
    ok = gap <= max(MC_K * out["se"], floor)
    sane = gap <= max(MC_K_SANE * out["se"], floor)
    return (stats.PASS if ok else stats.MC_MISS), sane


def check_cli(out, ref):
    ok = out["code"] == ref["code"] and out["stdout"] == ref["stdout"]
    return (stats.PASS if ok else stats.CLI_MISMATCH), ok


def oracle_for(op):
    """Oracle value for one op (None for CLI ops, checked against the
    in-process reference instead)."""
    fn, a = op["fn"], op["args"]
    if fn == "spherical_eval":
        return determinant_oracle("spherical", a[0], a[1])
    if fn == "orbital_integral":
        return determinant_oracle("orbital", a[0], a[1])
    if fn == "heat_kernel":
        return determinant_oracle("heat", a[1], a[2], a[0])
    if fn == "spherical_convergence":
        return sweep_oracle(a[0], a[1], a[2])
    if fn == "mc_spherical":
        return determinant_oracle("spherical", a[0], a[1])
    if fn == "mc_orbital_exp":
        return determinant_oracle("orbital", a[0], a[1])
    if fn == "mc_biinvariant_avg":
        return polya_oracle(a[0], [a[1][0], a[2][0]])
    return None


def verdict(op, out, ref, cli_ref=None):
    """(gate outcome, sane) for a completed op, given its oracle value."""
    fn = op["fn"]
    if fn in ("spherical_eval", "orbital_integral"):
        return check_eval(out, ref)
    if fn == "heat_kernel":
        return check_heat(out, ref)
    if fn == "spherical_convergence":
        return check_sweep(out, ref)
    if fn in ("mc_spherical", "mc_orbital_exp"):
        return check_mc(out, ref)
    if fn == "mc_biinvariant_avg":
        return check_mc(out, ref, BIINV_FLOOR)
    if fn == "cli":
        return check_cli(out, cli_ref)
    raise ValueError(f"unknown op {fn!r}")


def claimed_rel_err(op, out):
    """Returned error claim over |value|, or None where the op returns none."""
    fn = op["fn"]
    if fn in ("spherical_eval", "orbital_integral"):
        return out["abs_error"] / abs(out["value"]) if out["value"] else None
    if fn.startswith("mc_"):
        return out["se"] / abs(out["mean"]) if out["mean"] else None
    if fn == "cli" and op["args"][0] in ("eval-spherical", "orbital"):
        printed = json.loads(out["stdout"])
        return printed["abs_error"] / abs(printed["value"]) if printed["value"] else None
    return None
