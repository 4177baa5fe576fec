"""Positive-definite spherical functions on n x n complex matrices.

The bi-unitarily invariant functions evaluated here depend only on singular
value vectors, so arguments are canonicalized diagonal points (entries made
nonnegative and sorted in decreasing order).

One core, ``_orbit_transform``, evaluates the Fourier transform of a
U(n) x U(n) orbit by one of three routes:

* "det": the closed determinant form with Bessel kernel entries over
  squared Vandermonde products (valid when all squared entries are well
  separated);
* the Newton-basis determinant (result path "newton"): the same
  determinant with the kernel expanded in the Newton basis of the squared
  entries, which cancels the Vandermonde products exactly (valid
  everywhere, pure Python, certified by a bound that grows with the entry
  products);
* "series": a Schur-function series with a certified tail bound (valid
  everywhere, the reference).

"det" and "series" can be forced; "auto" takes "det" at separated points
and the Newton-basis determinant elsewhere, and falls back to the series
when the Newton bound does not certify.  The J0 kernel
gives the spherical function, I0 (positive instead of negative squared
variables) the exponential orbital integral, and the radial heat kernel is
the orbital integral at a rescaled point times a Gaussian factor.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, takewhile
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import (
    ConvergenceError,
    DegeneracyError,
    DomainError,
    RangeError,
    ShapeError,
)
# hyper_f goes unused but stays: perfbench/tracer.py patches it here by name
from .series import bessel_i0, bessel_j0, hyper_f
from .symfunc import _jacobi_trudi_det, _partition_tuples, complete_h_table

if TYPE_CHECKING:
    import numpy as np

_EPS = 2.220446049250313e-16
# relative squared gap below which "auto" leaves the Bessel determinant (for
# the Newton-basis route, then the series)
_DEGENERACY_TOL = 1e-6
# partition weight of the series' first pass, and the cap of its doublings
_FIRST_WEIGHT = 64
_WEIGHT_CAP = 240
# relative tolerance the series tail and the Newton-basis route must certify
_REL_TOL = 1e-10
# truncation order beyond which the Newton-basis route gives up
_NEWTON_MAX_ORDER = 200


@dataclass(frozen=True)
class DiagonalPoint:
    """Canonical singular-value vector.

    Entries are stored as absolute values sorted in decreasing order; sign
    flips and permutations of the input are symmetries of everything computed
    from it, so two inputs on the same orbit compare equal.
    """

    values: tuple[float, ...]

    def __init__(self, values: Sequence[float]):
        vals = sorted(map(abs, map(float, values)), reverse=True)
        if not all(map(math.isfinite, vals)):
            raise DomainError("diagonal entries must be finite")
        object.__setattr__(self, "values", tuple(vals))

    @property
    def dimension(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class EvalResult:
    """Value with provenance.

    abs_error   certified (determinant: conditioning-based; newton: truncation,
                entry rounding and LU backward error through a Hadamard
                bound; series: tail bound plus rounding)
    terms_used  determinant: matrix order; newton: truncation order K of
                the kernel expansion; series: partitions summed in the
                returning pass, up to the weight where it stopped
    path        "determinant", "newton" or "series"
    """

    value: float
    abs_error: float
    terms_used: int
    path: str


def _as_point(x) -> DiagonalPoint:
    return x if isinstance(x, DiagonalPoint) else DiagonalPoint(x)


def _point_pair(x, xi) -> tuple[DiagonalPoint, DiagonalPoint]:
    """Canonicalize two arguments of one evaluation: equal, nonzero dimension."""
    x = _as_point(x)
    xi = _as_point(xi)
    if x.dimension != xi.dimension:
        raise ShapeError(f"dimension mismatch: {x.dimension} vs {xi.dimension}")
    if x.dimension == 0:
        raise DomainError("empty diagonal point")
    return x, xi


def _gap_factors(values: Sequence[float]) -> list[float]:
    # positive for canonical (descending) input with distinct squares
    out = []
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            out.append(values[i] * values[i] - values[j] * values[j])
    return out


def squared_gap_product(values: Sequence[float]) -> float:
    """D(v) = prod_{i<j} (v_i^2 - v_j^2)."""
    return math.prod(_gap_factors([float(v) for v in values]), start=1.0)


def _is_degenerate(values: Sequence[float]) -> bool:
    # nonempty canonical input: squares descend, so adjacent gaps are minimal
    sq = [v * v for v in values]
    scale = sq[0]
    return any(sq[i] - sq[i + 1] <= _DEGENERACY_TOL * scale for i in range(len(sq) - 1))


def _is_separated(x: DiagonalPoint, xi: DiagonalPoint) -> bool:
    return not (_is_degenerate(x.values) or _is_degenerate(xi.values))


def _canonical_order(x: DiagonalPoint, xi: DiagonalPoint):
    # the kernel determinants are symmetric in their two arguments; one fixed
    # evaluation order makes that symmetry hold bitwise
    return (x.values, xi.values) if x.values >= xi.values else (xi.values, x.values)


def _lu_full_pivot(a: list[list[float]]):
    """Elimination with full pivoting on a copy of ``a``.

    Returns (sign, diagonal pivots, lu, rows, cols): P a Q = L U, where row
    i of P a Q is row rows[i] of ``a`` and column j is column cols[j], lu
    holds the multipliers of the unit lower L below its diagonal and U on
    and above it, and sign is det(P) det(Q).  A zero pivot stops the
    elimination; the block left below it is zero.
    """
    n = len(a)
    a = [row[:] for row in a]
    rows = list(range(n))
    cols = list(range(n))
    sign = 1.0
    diag = []
    for k in range(n):
        p, q, best = k, k, -1.0
        for i in range(k, n):
            for j in range(k, n):
                v = abs(a[i][j])
                if v > best:
                    best, p, q = v, i, j
        if best == 0.0:
            diag.extend([0.0] * (n - k))
            break
        if p != k:
            a[k], a[p] = a[p], a[k]
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        if q != k:
            for row in a:
                row[k], row[q] = row[q], row[k]
            cols[k], cols[q] = cols[q], cols[k]
            sign = -sign
        piv = a[k][k]
        diag.append(piv)
        for i in range(k + 1, n):
            f = a[i][k] / piv
            a[i][k] = f
            if f != 0.0:
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
    return sign, diag, a, rows, cols


def _balanced_product(numerators: Sequence[float], denominators: Sequence[float]) -> float:
    """Product of numerators over denominators, interleaved to keep the
    running value near 1 in magnitude (all inputs positive)."""
    acc = 1.0
    i = j = 0
    n_num, n_den = len(numerators), len(denominators)
    while i < n_num or j < n_den:
        if j >= n_den or (i < n_num and acc <= 1.0):
            acc *= numerators[i]
            i += 1
        else:
            acc /= denominators[j]
            j += 1
    return acc


def _det_ratio(x: DiagonalPoint, xi: DiagonalPoint, oscillatory: bool) -> EvalResult:
    """The Bessel route of _orbit_transform at a separated pair: with (a, b)
    from _canonical_order and K = J0 (``oscillatory``) or I0,

    (delta!)^2 4^{n(n-1)/2} det(K(a_i b_j)) / (D(a) D(b)),

    times (-1)^{n(n-1)/2} for J0, with a conditioning-based absolute error
    estimate (Hadamard bound over |det|).  terms_used is n.
    """
    a, b = _canonical_order(x, xi)
    n = len(a)
    num = [float(math.factorial(j)) for j in range(n)] * 2 + [4.0] * (n * (n - 1) // 2)
    den = _gap_factors(a) + _gap_factors(b)
    sign = -1.0 if oscillatory and (n * (n - 1) // 2) % 2 else 1.0
    kernel = bessel_j0 if oscillatory else bessel_i0
    matrix = [[kernel(ai * bj) for bj in b] for ai in a]
    lu_sign, diag = _lu_full_pivot(matrix)[:2]
    for d in diag:
        if d < 0.0:
            lu_sign = -lu_sign
    mags = [abs(d) for d in diag]
    value = 0.0
    if all(m > 0.0 for m in mags):
        value = sign * lu_sign * _balanced_product(mags + num, den)
    rownorms = [math.sqrt(math.fsum(e * e for e in row)) for row in matrix]
    hadamard = _balanced_product([max(r, 1e-300) for r in rownorms] + num, den)
    abs_error = 8.0 * n * n * _EPS * hadamard + 1e-300
    return EvalResult(value, abs_error, n, "determinant")


def spherical_det(x, xi) -> EvalResult:
    """Determinant form of the spherical function.

    phi_x(xi) = (delta!)^2 (-4)^{n(n-1)/2} det(J0(x_j xi_k)) / (D(x) D(xi)),
    delta = (n-1, ..., 1, 0), D(v) = prod_{i<j}(v_i^2 - v_j^2).

    Requires all squared entries of x (and of xi) to be pairwise separated
    beyond 1e-6 relative to the largest square; otherwise a
    DegeneracyError directs the caller to the other routes.  The formula is
    symmetric under exchanging x and xi, and the implementation evaluates in a
    canonical argument order so the symmetry holds bitwise.
    """
    return _orbit_transform(*_point_pair(x, xi), True, "det")


def spherical_eval(x, xi, path: str = "auto") -> EvalResult:
    """Spherical function with explicit route selection.

    path "det" and "series" force the corresponding evaluator; "auto" takes
    the Bessel determinant when both arguments' squared entries are
    separated beyond 1e-6 relative to the largest square, and otherwise the
    Newton-basis determinant (result path "newton"), falling back to the
    series when that does not certify rel_tol = 1e-10.  "det" raises
    DegeneracyError at unseparated points.
    """
    return _orbit_transform(*_point_pair(x, xi), True, path)


# ---------------------------------------------------------------------------
# Newton-basis route


def _newton_rows(v: Sequence[float], top: int) -> list[list[float]]:
    """Row i, entry m: g_m(v; i) = i!/(i+m)! h_m(v_0..v_i), m = 0..top-i,
    by the subtraction-free recurrence g_m(i) = (i g_m(i-1) + v_i g_{m-1}(i))
    / (i+m) from g_0 = 1 (nonnegative v)."""
    rows = []
    prev = [0.0] * (top + 1)
    for i, vi in enumerate(v):
        row = [1.0]
        g = 1.0
        for m in range(1, top - i + 1):
            g = (i * prev[m] + vi * g) / (i + m)
            row.append(g)
        rows.append(row)
        prev = row
    return rows


def _newton_transform(x: DiagonalPoint, xi: DiagonalPoint, oscillatory: bool) -> EvalResult:
    """The orbit transform of _orbit_transform as a determinant with no gap
    division, valid at coincident and zero entries.

    With lam = a^2 and mu = b^2/4 for the pair (a, b) of _canonical_order,
    K(a_i b_j) = sum_k s^k lam_i^k mu_j^k / (k!)^2, s = -1 for J0 and +1 for
    I0.  In the Newton basis of the nodes lam_0..lam_{n-1},
    lam^k = sum_i h_{k-i}(lam_0..lam_i) prod_{q<i} (lam - lam_q), so the
    kernel matrix factors through two triangular Newton matrices whose
    determinants are the Vandermonde products; they cancel D(a) D(b) and
    the 4^{n(n-1)/2} exactly.  With (delta!)^2 placed in rows and columns,
    what is left is value = s^{n(n-1)/2} det M,

        M[i][j] = sum_{k=max(i,j)..K} s^k g_{k-i}(lam; i) g_{k-j}(mu; j)

    (g from _newton_rows), with no prefactor product.  abs_error bounds the
    distance to the untruncated, exactly rounded value (u = 2^-53):

    * truncation: h_m of i+1 variables has C(m+i, i) monomials, so
      0 <= g_m(v; i) <= v_0^m/m!, term k is at most
      t_k = lam_0^{k-i}/(k-i)! mu_0^{k-j}/(k-j)!, and for k > K
      t_{k+1}/t_k <= rho = lam_0 mu_0/((K+2-i)(K+2-j)); the tail is at most
      t_{K+1}/(1 - rho).  K is the least order >= n-1 where rho <= 1/2 and
      every t_{K+1} <= 2^-60, far below the rounding of a diagonal entry
      (whose terms sum to >= 1 in magnitude).  Past _NEWTON_MAX_ORDER the
      route gives up: value nan, abs_error inf.
    * entry rounding: v_i = fl(a_i^2) (or fl(b_i^2)/4) is one rounding and a
      recurrence step three more, so g_m(i) is within gamma_{4m+3i}
      relative (induction on m+i) and term k within gamma_{8k+1}.  The terms
      are summed from k = K down (for J0 even and odd k apart, then
      subtracted), so term k passes through at most k+2 additions: the
      entry is within u sum_k (9k+3)|t_k| (1 + O(Ku)).
    * LU: full-pivot elimination gives L^U^ = P fl(M) Q + dM with
      |dM| <= gamma_n |L^||U^| (Higham, Accuracy and Stability, Thm 9.3).
      So P M Q = L^(U^ + Z) with |Z| <= |L^^-1| W, W = |P(M - fl(M))Q| +
      |dM| (its first part bounded entrywise by the two items above), and
      |L^^-1| <= the inverse of the comparison matrix of L^ (unit
      diagonal, -|l_ik| below), applied by forward substitution without
      cancellation.  det U^ is the product of the pivots, rounded within
      gamma_n |value|.
    * Hadamard: for rows a_i and perturbation row norms f_i,
      |det(A + Z) - det A| <= prod(|a_i| + f_i) - prod|a_i| (expand in the
      rows, Hadamard each term), summed telescoped as
      sum_i f_i prod_{k<i}(|a_k| + f_k) prod_{k>i}|a_k|; here A = U^, whose
      full pivoting keeps |a_i| <= sqrt(n - i) |u_ii|, so the bound tracks
      the perturbation of each pivot rather than the conditioning of M.

    The sum of the parts is raised by a factor 1 + 1e-10 that covers the
    rounding of its own arithmetic (nonnegative, O((K + n) u) relative) and
    the O(Ku) factors above.  terms_used is K.
    """
    a, b = _canonical_order(x, xi)
    n = len(a)
    lam = [v * v for v in a]
    mu = [v * v / 4.0 for v in b]
    lam0, mu0 = lam[0], mu[0]
    product = lam0 * mu0
    # pl[m] = lam_0^m/m!, pm[m] = mu_0^m/m!: bounds on g_m of every prefix
    pl, pm = [1.0], [1.0]
    K = n - 1
    while True:
        for m in range(len(pl), K + 2):
            pl.append(pl[-1] * lam0 / m)
            pm.append(pm[-1] * mu0 / m)
        first_l = max(pl[K + 2 - n :])
        first_m = max(pm[K + 2 - n :])
        first = first_l * first_m if first_l and first_m else 0.0
        if first <= 2.0**-60 and 2.0 * product <= (K + 3 - n) ** 2:
            break
        if K >= _NEWTON_MAX_ORDER:
            return EvalResult(math.nan, math.inf, K, "newton")
        K += 1

    g_lam = _newton_rows(lam, K)
    g_mu = _newton_rows(mu, K)
    unit = _EPS / 2.0
    matrix, entry_err = [], []
    for i, gi in enumerate(g_lam):
        row, err_row = [], []
        for j, gj in enumerate(g_mu):
            lo = max(i, j)
            terms = list(map(operator.mul, gi[lo - i :], gj[lo - j :]))
            terms.reverse()  # k = K, K-1, ..., lo
            if oscillatory:
                total = sum(terms[::2]) - sum(terms[1::2])
                if K & 1:
                    total = -total
            else:
                total = sum(terms)
            weighted = sum(map(operator.mul, terms, range(9 * K + 3, 9 * lo, -9)))
            rho = product / ((K + 2 - i) * (K + 2 - j))
            tail = pl[K + 1 - i] * pm[K + 1 - j] if first else 0.0
            row.append(total)
            err_row.append(unit * weighted + tail / (1.0 - rho))
        matrix.append(row)
        entry_err.append(err_row)
    if not all(math.isfinite(v) for row in matrix for v in row):
        return EvalResult(math.nan, math.inf, K, "newton")

    lu_sign, diag, lu, rows, cols = _lu_full_pivot(matrix)
    if oscillatory and (n * (n - 1) // 2) % 2:
        lu_sign = -lu_sign
    value = lu_sign * math.prod(diag)
    if not math.isfinite(value):
        return EvalResult(math.nan, math.inf, K, "newton")

    gamma_n = n * unit / (1.0 - n * unit)
    z_rows = []  # rows of the bound on |Z|, by forward substitution
    for r in range(n):
        lu_r = lu[r]
        err_r = entry_err[rows[r]]
        z = [
            err_r[cols[c]]
            + gamma_n
            * (
                sum(abs(lu_r[k] * lu[k][c]) for k in range(min(r, c)))
                + abs(lu_r[c] if r <= c else lu_r[c] * lu[c][c])
            )
            for c in range(n)
        ]
        for k in range(r):
            z = [zc + abs(lu_r[k]) * yc for zc, yc in zip(z, z_rows[k])]
        z_rows.append(z)
    base = [math.hypot(*lu[r][r:]) for r in range(n)]
    bound = 0.0
    prefix = 1.0
    for i, z in enumerate(z_rows):
        f = math.hypot(*z)
        bound += f * prefix * math.prod(base[i + 1 :])
        prefix *= base[i] + f
    abs_error = (bound + gamma_n * abs(value)) * (1.0 + 1e-10)
    return EvalResult(value, abs_error, K, "newton")


# ---------------------------------------------------------------------------
# Schur series route

# entry t is math.lgamma(t + 1) = log t!, a float array after the first call;
# grown by building a longer array and rebinding the name, never in place, so
# every reader holds a complete table
_log_fact: Sequence[float] = [0.0]


def _log_factorials(top: int) -> np.ndarray:
    """The shared table of log t! (exactly math.lgamma(t + 1)), t = 0..top
    at least, for top >= 1."""
    global _log_fact
    table = _log_fact
    if len(table) <= top:
        import numpy as np

        grown = range(len(table), max(top + 1, 2 * len(table)))
        table = np.concatenate((table, [math.lgamma(t + 1) for t in grown]))
        _log_fact = table
    return table


def _series_tail_bound(
    p1_lam: float, xi_max: float, n: int, n_xi_vars: int, rows: int, max_weight: int
) -> list[float]:
    """Upper bounds on the absolute sum of all series layers beyond each
    weight: entry w of the returned list (w = 0..max_weight) bounds the
    layers of weight > w, and the list is non-increasing.

    Construction: for a partition m with at most ``rows`` parts,
      coefficient^2 <= prod_i ((n-rows)!/(m_i + n - rows)!)^2   (worst row),
      s_m(Lam)      <= p1(Lam)^{|m|}                            (monomial count),
      s_m(|Xi|)     <= prod_i C(m_i + K - 1, K - 1) max|Xi|^{m_i},
    so each layer is dominated by the coefficients of the ``rows``-fold
    convolution of v_j = C(j+K-1, K-1) (p1 max|Xi|)^j ((n-rows)!/(j+n-rows)!)^2,
    which decays factorially in j.  The finite convolution is summed exactly
    and the remainder is closed off geometrically; +inf means "not certified".
    """
    W = max_weight
    if p1_lam <= 0.0 or xi_max <= 0.0:
        return [0.0] * (W + 1)
    import numpy as np

    uncertified = [math.inf] * (W + 1)
    K = n_xi_vars
    J = W + 160
    base = n - rows
    lr = math.log(p1_lam) + math.log(xi_max)
    lf = _log_factorials(J + max(K - 1, base))  # lf[t] = lgamma(t + 1)
    # elementwise, in the order of the scalar formula, so the bits are the same
    logv = (
        lf[K - 1 : K + J]
        - lf[: J + 1]
        - lf[K - 1]
        + np.arange(J + 1) * lr
        + 2.0 * (lf[base] - lf[base : base + J + 1])
    )
    if np.max(logv) > 700.0:
        return uncertified
    with np.errstate(over="ignore", under="ignore"):
        v = np.exp(logv)
        conv = v.copy()
        for _ in range(rows - 1):
            conv = np.convolve(conv, v)[: J + 1]
    if not np.all(np.isfinite(conv)):
        return uncertified
    tail = float(np.sum(conv[W + 1 :]))
    c_last, c_prev = float(conv[J]), float(conv[J - 1])
    if c_last > 0.0:
        if c_prev <= 0.0:
            return uncertified
        rho = c_last / c_prev
        if rho >= 0.9:
            return uncertified
        tail += c_last * rho / (1.0 - rho)
    # suffix sums from the top: entry w adds the layer bounds w+1..W to entry W
    tails = np.cumsum(np.concatenate(([tail], conv[W:0:-1])))[::-1]
    return tails.tolist()


def _schur_fourier_series(
    xvals: Sequence[float],
    xivals: Sequence[float],
    alternating: bool,
    rel_tol: float,
) -> EvalResult:
    """sum over partitions m of (delta!/(m+delta)!)^2 s_m(Lam) s_m(Xi) with
    Lam = x^2 and |Xi| = xi^2/4, for canonical (nonnegative, descending)
    entries; ``alternating`` attaches (-1)^{|m|} (the J0-type kernel),
    otherwise all terms are positive (I0-type).

    Zero squares add nothing to a Schur function, so only the nonzero
    entries of Lam and Xi are kept; the dimension n enters through the
    coefficients alone.  Variables are rescaled by their maxima, and the
    scale is folded into each row's log coefficient, a running sum of
    log(scale) - log(d + t), so the routine stays in range and accurate for
    large dimensions and large entries.

    Each pass sums partitions of weight <= W in weight order, W = 64 at
    first.  The pass is cut at the first weight whose tail bound is below
    rounding of the empty partition, and it returns after any complete layer
    whose tail bound is below both the rounding term and rel_tol.  Otherwise
    the tail beyond W certifies the sum or W doubles, up to 240.  A term
    beyond double range raises RangeError.

    The error returned is the tail bound plus a rounding term: 4 eps times
    the absolute sum of the terms, plus each layer's absolute sum times the
    relative error a term of that weight can take from the rounding of its
    log coefficient (which grows like log n per unit of weight).
    """
    n = len(xvals)
    # canonical entries descend, so their squares do: keep the squares up to
    # the first zero one (a square can underflow to 0 where its entry does not)
    lam = list(takewhile(bool, (v * v for v in xvals)))
    xiq = list(takewhile(bool, (v * v / 4.0 for v in xivals)))
    rows = min(len(lam), len(xiq))
    if rows == 0:
        return EvalResult(1.0, 0.0, 1, "series")

    c_lam = max(lam[0], 1.0)
    xi_max = max(xiq)
    c_xi = max(xi_max, 1.0)
    half_logc = 0.5 * (math.log(c_lam) + math.log(c_xi))
    p1_lam = math.fsum(lam)
    lam_hat = [v / c_lam for v in lam]
    xi_hat = [q / c_xi for q in xiq]
    rounding = 4.0 * _EPS
    log = math.log

    W = _FIRST_WEIGHT
    while True:
        tails = _series_tail_bound(p1_lam, xi_max, n, len(xiq), rows, W)
        # the empty partition makes sum |t| >= 1: layers past this weight
        # cannot move the sum beyond the rounding term already claimed
        W = next((w for w, t in enumerate(tails) if t <= rounding), W)
        h_lam = complete_h_table(lam_hat, W + rows)
        h_xi = complete_h_table(xi_hat, W + rows)
        # row i of a partition contributes m_i half_logc + log(d! / (m_i + d)!),
        # d = n-1-i: a running sum of half_logc - log(d + t), whose steps are
        # small where the scale matches the dimension (the rank-one sweeps).
        # logs holds log(n-rows+1) .. log(n-1+W); row i reads W of them from
        # offset rows-1-i.
        logs = [log(k) for k in range(n - rows + 1, n + W)]
        row_coef = [
            list(accumulate([half_logc - v for v in logs[off : off + W]], initial=0.0))
            for off in range(rows - 1, -1, -1)
        ]
        # A weight-w log coefficient is off by at most log_err[w] + cross big[w].
        # half_logc is within 1.5 eps half_logc, each log within eps |log| and
        # each sum within eps/2 of its result, so step t of any row's running
        # sum is off by at most 2 eps half_logc + 1.5 eps log(n-1+t)
        # + eps/2 big[t], with big[t] the largest |row_coef| up to t (the rows
        # are monotone in d, so the first and last rows hold it).  The steps
        # grow with t, so their prefix sums log_err bound every split of w
        # between the rows; the rows - 1 additions across rows add cross
        # big[w].  A term exp(2 log a) then carries relative error
        # expm1(2 (log_err[w] + cross big[w])).
        big = list(accumulate(map(max, map(abs, row_coef[0]), map(abs, row_coef[-1])), max))
        fixed = 2.0 * _EPS * half_logc
        steps = (fixed + 1.5 * _EPS * v + 0.5 * _EPS * b for v, b in zip(logs[rows - 1 :], big[1:]))
        log_err = list(accumulate(steps, initial=0.0))
        cross = 0.5 * _EPS * rows * (rows - 1)
        jacobi_trudi = _jacobi_trudi_det
        exp = math.exp

        total = 1.0  # empty partition
        comp = 0.0
        abs_sum = 1.0
        coef_sum = 0.0  # per complete layer: its sum |t| times layer_err
        layer_start = 1.0  # abs_sum before the current layer
        layer_err = 0.0  # relative error of a term of this layer from its log
        count = 1
        layer = 0
        partitions = _partition_tuples(W, rows)
        next(partitions)  # the empty partition, summed above
        for parts in partitions:
            w = sum(parts)
            if w != layer:
                # layers 0..w-1 are complete
                coef_sum += layer_err * (abs_sum - layer_start)
                tail = tails[w - 1]
                if tail <= rounding * abs_sum and tail <= rel_tol * abs(total) + 1e-14:
                    err = tail + rounding * abs_sum + coef_sum * (1.0 + 1e-10)
                    return EvalResult(total, err, count, "series")
                layer = w
                layer_start = abs_sum
                layer_err = math.expm1(2.0 * (log_err[w] + cross * big[w]))
                negate = alternating and (w & 1)
            s_l = jacobi_trudi(parts, h_lam)
            if s_l == 0.0:
                continue
            s_x = jacobi_trudi(parts, h_xi)
            if s_x == 0.0:
                continue
            log_a = 0.0
            for coef, mi in zip(row_coef, parts):
                log_a += coef[mi]
            try:
                term = exp(2.0 * log_a) * s_l * s_x
            except OverflowError:
                raise RangeError(f"series term at weight {w} exceeds double range") from None
            if negate:
                term = -term
            count += 1
            abs_sum += abs(term)
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t

        coef_sum += layer_err * (abs_sum - layer_start)
        tail = tails[W]
        if tail <= rel_tol * abs(total) + 1e-14:
            err = tail + rounding * abs_sum + coef_sum * (1.0 + 1e-10)
            return EvalResult(total, err, count, "series")
        if W >= _WEIGHT_CAP:
            raise ConvergenceError(
                f"series tail not certified at max weight {W}",
                partial=total,
                abs_error=tail,
            )
        W = min(2 * W, _WEIGHT_CAP)


def _orbit_transform(
    x: DiagonalPoint,
    xi: DiagonalPoint,
    oscillatory: bool,
    path: str,
    rel_tol: float = _REL_TOL,
) -> EvalResult:
    """Fourier transform of the U(n) x U(n) orbit of x, evaluated at xi (a
    pair from _point_pair):

    (delta!)^2 4^{n(n-1)/2} det(K(x_i xi_j)) / (D(x) D(xi)),

    with K = J0 and the sign (-1)^{n(n-1)/2} when ``oscillatory`` (the
    spherical function), K = I0 otherwise (the exponential orbital integral).
    It only picks the route: ``path`` "det" takes this determinant
    (_det_ratio), "series" the Schur series (_schur_fourier_series, certified
    to ``rel_tol``), and "auto" the determinant when both arguments are
    separated, otherwise its Newton-basis form (_newton_transform) if that
    certifies ``rel_tol`` and the series if not.
    """
    if path not in ("auto", "det", "series"):
        raise DomainError(f"unknown path {path!r}")
    if path == "auto" and _is_separated(x, xi):
        path = "det"
    elif path == "auto":
        r = _newton_transform(x, xi, oscillatory)
        if r.abs_error <= rel_tol * abs(r.value):
            return r
        path = "series"
    elif path == "det" and not _is_separated(x, xi):
        raise DegeneracyError("coincident squared entries; use path 'auto' or 'series'")
    if path == "series":
        return _schur_fourier_series(x.values, xi.values, oscillatory, rel_tol)
    return _det_ratio(x, xi, oscillatory)


def spherical_series(x, xi, rel_tol: float = _REL_TOL) -> EvalResult:
    """Series form of the spherical function.

    Handles coincident and zero entries (no Vandermonde division).  Zero
    entries cost nothing beyond input validation and a run of equal entries
    costs what one entry does, so a rank-one sweep point (xi = (u, 0, ...,
    0), x from lambda_sequence_for) costs O(W) per pass beyond its O(n)
    set-up, whatever the dimension n.  The initial
    truncation weight 64 is doubled up to 240 until the tail bound certifies
    rel_tol; failure to certify raises ConvergenceError with the partial sum
    attached.  A pass stops before its truncation weight at the first
    complete weight whose tail bound is below both the rounding term and
    rel_tol.  abs_error is the tail bound plus the rounding term, which
    covers the error each term takes from its log-factorial coefficient as
    well as the summation.  rel_tol <= 0 raises DomainError; a term beyond
    double range raises RangeError.
    """
    if not rel_tol > 0.0:
        raise DomainError("rel_tol must be positive")
    return _orbit_transform(*_point_pair(x, xi), True, "series", rel_tol)


def orbital_integral(lam, theta, path: str = "auto") -> EvalResult:
    """Exponential orbital integral

    I(lam, theta) = 2^{n(n-1)} [1! ... (n-1)!]^2 det(I0(lam_i theta_j))
                    / (D(lam) D(theta)),

    the two-sided unitary average of exp(Re tr(lam u theta v*)).  ``path`` is
    "auto", "det" or "series", as in spherical_eval: "auto" takes
    the determinant when separated, otherwise the Newton-basis determinant
    or, where that does not certify, the series.  Both handle coincident and
    zero entries; theta = 0 gives 1 (exactly on the series).

    Arguments with max(lam) * max(theta) > 700 are refused (RangeError, I0
    overflow guard).  On the determinant route the 200-term cap of the I0
    series comes first: an entry product lam_i theta_j above about 262.3
    raises ConvergenceError.
    """
    lam, theta = _point_pair(lam, theta)
    if lam.values[0] * theta.values[0] > 700.0:
        raise RangeError("orbital_integral overflow guard: max(lam)*max(theta) > 700")
    return _orbit_transform(lam, theta, False, path)


def heat_kernel(t: float, lam, theta) -> float:
    """Radial heat kernel, the orbital integral at the rescaled point lam/2t:

    H0(t, lam, theta) = 1/(n! (2t)^n) * e^{-(|lam|^2+|theta|^2)/4t}
                        * det(I0(lam_i theta_j / 2t)) / (D(lam) D(theta))
                      = e^{-(|lam|^2+|theta|^2)/4t} * I(lam/2t, theta)
                        / (n! (2t)^n (4t)^{n(n-1)} (prod_{j<n} j!)^2).

    Requires finite t > 0.  Coincident entries take the "auto" route of
    orbital_integral at (lam/2t, theta): the Newton-basis determinant, or the
    series where that does not certify.  The orbital overflow guard applies
    to (lam/2t, theta).
    """
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise DomainError("heat_kernel requires finite t > 0")
    lam, theta = _point_pair(lam, theta)
    n = lam.dimension
    orbital = orbital_integral([v / (2.0 * t) for v in lam.values], theta)
    norm2 = math.fsum(v * v for v in lam.values) + math.fsum(
        v * v for v in theta.values
    )
    num = [orbital.value, math.exp(-norm2 / (4.0 * t))]
    # a running quotient: (4t)^{n(n-1)} alone can leave double range
    den = [float(math.factorial(n))] + [2.0 * t] * n + [4.0 * t] * (n * (n - 1))
    den += [float(math.factorial(j)) for j in range(n)] * 2
    return _balanced_product(num, den)


# ---------------------------------------------------------------------------
# Radial Laplacian


def radial_laplacian(
    F: Callable[[np.ndarray], float], lam, fd_step: float | None = None
) -> float:
    """Radial part of the flat Laplacian, applied by central differences:

    LF = sum_i (d^2F/dl_i^2 + (1/l_i) dF/dl_i)
         + 2 sum_{i<j} (d_iF - d_jF)/(l_i - l_j)
         + 2 sum_{i<j} (d_iF + d_jF)/(l_i + l_j).

    Entries must be nonzero and squared entries pairwise separated (the
    divided differences blow up otherwise).  Default step 1e-4 * (1 + |lam|).
    """
    import numpy as np

    lam = _as_point(lam)
    v = np.array(lam.values, dtype=float)
    n = len(v)
    if n == 0:
        raise DomainError("empty diagonal point")
    if _is_degenerate(lam.values) or v[-1] == 0.0:
        raise DegeneracyError("radial_laplacian needs nonzero, separated entries")
    h = float(fd_step) if fd_step is not None else 1e-4 * (1.0 + float(np.linalg.norm(v)))
    if not (h > 0.0):
        raise DomainError("fd_step must be positive")

    f0 = float(F(v))
    grad = np.empty(n)
    second = np.empty(n)
    for i in range(n):
        vp = v.copy()
        vm = v.copy()
        vp[i] += h
        vm[i] -= h
        fp = float(F(vp))
        fm = float(F(vm))
        grad[i] = (fp - fm) / (2.0 * h)
        second[i] = (fp - 2.0 * f0 + fm) / (h * h)

    pieces = [float(second[i] + grad[i] / v[i]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            pieces.append(2.0 * (grad[i] - grad[j]) / (v[i] - v[j]))
            pieces.append(2.0 * (grad[i] + grad[j]) / (v[i] + v[j]))
    return math.fsum(pieces)


def ambient_laplacian_fd(f: Callable[[np.ndarray], float], x: np.ndarray) -> float:
    """Flat Laplacian of f at the matrix x by central second differences over
    all 2n^2 real coordinates (real and imaginary part of every entry), with
    step 1e-4 * (1 + |x|)."""
    import numpy as np

    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {x.shape}")
    n = x.shape[0]
    h = 1e-4 * (1.0 + float(np.linalg.norm(x)))
    f0 = float(f(x))
    pieces = []
    for j in range(n):
        for k in range(n):
            for unit in (1.0, 1.0j):
                step = np.zeros((n, n), dtype=complex)
                step[j, k] = h * unit
                pieces.append(float(f(x + step)) - 2.0 * f0 + float(f(x - step)))
    return math.fsum(pieces) / (h * h)


def _eigen_identity(x, xi, fd_step: float = 2e-3) -> tuple[float, float]:
    """Both sides of the eigen-equation L phi_x = -|x|^2 phi_x at xi: the
    radial Laplacian of the tightly converged series, and the target."""
    g = lambda v: spherical_series(x, v, rel_tol=1e-13).value
    laplacian = radial_laplacian(g, xi, fd_step=fd_step)
    return laplacian, -math.fsum(v * v for v in x) * g(xi)


# ---------------------------------------------------------------------------
# Weyl integration constants and angular densities


def weyl_c_n(n: int) -> float:
    """Polar-coordinates constant c_n = 2^n pi^{n^2} / (n! (prod_{j<n} j!)^2).

    Computed in log space and exponentiated; underflows to subnormal/zero for
    n around 31+ (the constant genuinely leaves double range).  n > 50 is
    refused.
    """
    n = int(n)
    if n < 1:
        raise DomainError("weyl_c_n requires n >= 1")
    if n > 50:
        raise RangeError("weyl_c_n is out of double range beyond n = 50")
    log_c = (
        n * math.log(2.0)
        + n * n * math.log(math.pi)
        - math.lgamma(n + 1)
        - 2.0 * math.fsum(math.lgamma(j + 1) for j in range(1, n))
    )
    return math.exp(log_c)


def _weyl_density(m: int, n: int, theta):
    """Unnormalized angular density at theta, m angles, or on each row of an
    array of shape (batch, m)."""
    import numpy as np

    if isinstance(theta, np.ndarray):
        sin, cols = np.sin, [theta[:, i] for i in range(m)]
    else:
        sin, cols = math.sin, [float(v) for v in theta]
    acc = 1.0
    for i in range(m):
        for j in range(i + 1, m):
            acc = acc * (sin(cols[i] + cols[j]) * sin(cols[i] - cols[j])) ** 2
    for c in cols:
        acc = acc * (sin(2.0 * c) * sin(c) ** (2 * (n - 2 * m)))
    return abs(acc)


def _weyl_cmn(m: int, n: int) -> float:
    """c_{m,n} = 1 / (2^m S_m(n-2m+1, 1, 1)), S_m the Selberg integral: with
    x_i = sin^2 t_i the density is 2^m prod x_i^{n-2m} prod_{i<j} (x_i-x_j)^2
    on [0, 1]^m.  The factorials cancel to one exact quotient of integers,
    prod_j (n-m+j)!/(n-2m+j)! over 2^m prod_j j! (j+1)!, j < m."""
    num = math.prod(math.perm(n - m + j, m) for j in range(m))
    den = 2**m * math.prod(math.factorial(j) * math.factorial(j + 1) for j in range(m))
    try:
        return num / den
    except OverflowError:
        raise RangeError(f"c_{{m,n}} is out of double range at m={m}, n={n}") from None


def weyl_density_mn(m: int, n: int, theta: Sequence[float]) -> float:
    """Normalized angular density on [0, pi]^m:

    D_{m,n}(theta) = c_{m,n} | prod_{i<j} sin^2(t_i+t_j) sin^2(t_i-t_j)
                     * prod_i sin(2 t_i) sin^{2(n-2m)}(t_i) |.

    Requires n >= 2m >= 2.  The constant c_{m,n} is the Selberg closed form,
    computed exactly and rounded once; RangeError if it leaves double range.
    Mass concentrates at theta = (pi/2, ..., pi/2) as n grows.
    """
    m = int(m)
    n = int(n)
    if not (n >= 2 * m >= 2):
        raise DomainError("weyl_density_mn requires n >= 2m >= 2")
    th = [float(v) for v in theta]
    if len(th) != m:
        raise ShapeError(f"theta must have length {m}")
    for v in th:
        if not (0.0 <= v <= math.pi):
            raise DomainError("theta entries must lie in [0, pi]")
    return _weyl_cmn(m, n) * _weyl_density(m, n, th)
