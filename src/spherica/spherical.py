"""Positive-definite spherical functions on n x n complex matrices.

The bi-unitarily invariant functions evaluated here depend only on singular
value vectors, so arguments are canonicalized diagonal points (entries made
nonnegative and sorted in decreasing order).

One core, ``_orbit_transform``, evaluates the Fourier transform of a
U(n) x U(n) orbit by one of three routes:

* "det": the closed determinant form with Bessel kernel entries over
  squared Vandermonde products (valid where every squared gap
  (v_i - v_j)(v_i + v_j) is a normal double above 1e-6 v_0^2);
* the Newton-basis determinant (result path "newton"): the same
  determinant with the kernel expanded in the Newton basis of the squared
  entries, which cancels the Vandermonde products exactly (valid
  everywhere, pure Python);
* "series": a Schur-function series with a certified tail bound (valid
  everywhere, the reference), summed one weight at a time by one loop for
  every number of rows, its tail closed geometrically before each weight
  by one rule: by Cauchy's identity a layer is at most a complete-h value
  of the products of the squared entries times its largest coefficient.

Both determinants read one balanced pair (_canonical_order) and end in one
engine, _certified_det: full-pivot elimination (symfunc's _lu_full_pivot),
a Hadamard bound on the LU backward error and the entry errors, and one
composition with the route's prefactor into the EvalResult.
"det" and "series" can be forced; "auto" takes "det" at separated points
(unless its bound is infinite there and the Newton-basis determinant
certifies) and the Newton-basis determinant elsewhere, which must certify
1e-10 relative or raise ConvergenceError; it never sums the series.  The J0
kernel gives the spherical function, I0 (positive instead of negative
squared variables) the exponential orbital integral, and the radial heat
kernel is the orbital integral at a rescaled point times a Gaussian factor.
"""

from __future__ import annotations

import math
import operator
from itertools import combinations, groupby, islice
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from ._record import record
from .errors import (
    ConvergenceError,
    DegeneracyError,
    DomainError,
    RangeError,
    ShapeError,
    _integer,
)
# perfbench/tracer.py patches names here: bessel_j0, bessel_i0, hyper_f and
# complete_h_table are imported for it alone; the others it patches are used here
from .series import _ARG_MAX, _kernel_matrix, bessel_i0, bessel_j0, hyper_f
from .symfunc import _h_stream, _jacobi_trudi_det, _lu_full_pivot, _partition_tuples
from .symfunc import _runs, complete_h_table

if TYPE_CHECKING:
    import numpy as np

_EPS = 2.220446049250313e-16
# relative squared gap below which "auto" leaves the Bessel determinant for
# the Newton-basis route
_DEGENERACY_TOL = 1e-6
# partition weight past which the series need only certify rel_tol, or raises
_WEIGHT_CAP = 240
# relative tolerance the series tail and the Newton-basis route must certify
_REL_TOL = 1e-10
# truncation order beyond which the Newton-basis route gives up
_NEWTON_MAX_ORDER = 200


@record
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


@record
class EvalResult:
    """Value with provenance.

    abs_error   certified bound on |value - exact value|: for both
                determinants from _certified_det; for the series its tail
                bound plus rounding
    terms_used  determinant: matrix order; newton: truncation order K of
                the kernel expansion; series: partitions summed, up to the
                weight where it stopped
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


def _squared_gaps(v: Sequence[float]) -> list[float]:
    # v_i^2 - v_j^2 for i < j within three roundings: no cancellation
    return [(vi - vj) * (vi + vj) for vi, vj in combinations(v, 2)]


def squared_gap_product(values: Sequence[float]) -> float:
    """D(v) = prod_{i<j} (v_i^2 - v_j^2), each factor (v_i - v_j)(v_i + v_j):
    three roundings, no cancellation, inf where the product overflows."""
    return math.prod(_squared_gaps(list(map(float, values))), start=1.0)


def _separated_gaps(v: Sequence[float]) -> list[float] | None:
    """The squared gaps of a nonempty canonical side where it is separated,
    every gap (the adjacent ones are the least) above 1e-6 v_0^2 and above
    2^-1022, so a normal double; otherwise None."""
    gaps = _squared_gaps(v)
    floor = max(_DEGENERACY_TOL * (v[0] * v[0]), 2.0**-1022)
    return gaps if not gaps or min(gaps) > floor else None


def _canonical_order(x: DiagonalPoint, xi: DiagonalPoint):
    # one fixed order makes the kernel determinants' symmetry in their two
    # arguments hold bitwise; the balance (a 2^e, b 2^-e), e half the exponent
    # of b_0 less a_0's rounded toward zero, keeps each product a_i b_j (short
    # of subnormals) and puts lam_0 = a_0^2 and mu_0 = b_0^2/4 within 64x
    a, b = (x.values, xi.values) if x.values >= xi.values else (xi.values, x.values)
    e = int((math.frexp(b[0])[1] - math.frexp(a[0])[1]) / 2) if a[0] and b[0] else 0
    if e:
        a, b = tuple(math.ldexp(v, e) for v in a), tuple(math.ldexp(v, -e) for v in b)
    return a, b


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


def _refuse_non_finite(matrix) -> None:
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if not math.isfinite(v):
                raise DomainError(f"kernel matrix entry ({i}, {j}) is {v!r}, not finite")


def _certified_det(
    matrix, entry_err, oscillatory: bool, terms: int, path: str,
    num=(), den=(), roundings=0,
) -> EvalResult:
    """The EvalResult of both kernel determinants: s det(M) prod(num) /
    prod(den), s = (-1)^{n(n-1)/2} for J0 (``oscillatory``), else 1, where
    ``matrix`` is the n x n M within ``entry_err`` entrywise and the
    prefactor is off by ``roundings`` roundings of its own, nothing else;
    ``terms`` and ``path`` are passed through.

    Full-pivot elimination gives L^U^ = P fl(M) Q + dM with
    |dM| <= gamma_n |L^||U^| (Higham, Accuracy and Stability, Thm 9.3), so
    P M Q = L^(U^ + Z) with L^ Z = D, |D| <= W = |P E Q| + gamma_n |L^||U^|.
    Forward substitution without cancellation bounds the row norms of Z:
    |z_r| <= |E_r| + gamma_n |U_r| + sum_{k<r} |l_rk| (gamma_n |U_k| + |z_k|),
    O(n^2) after the LU (the sum over k < r by math.fsum).  Expanding
    det(U^ + Z) in its rows and bounding each term by Hadamard gives
    |det(U^ + Z) - det U^| <= prod(|U_r| + |z_r|) - prod|U_r|; full pivoting
    keeps |U_r| <= sqrt(n - r) |u_rr|, so the bound tracks the perturbation
    of each pivot rather than the conditioning of M.
    rel, the bound over prod|u_rr|, is raised by a factor 1 + 1e-10 that
    covers the rounding of its own arithmetic (nonnegative, O(n u) relative).

    The value, _balanced_product of the pivot magnitudes and ``num`` over
    ``den``, takes m = n + ``roundings`` roundings, so with rest = gamma_m
    (log1p(r) <= r) abs_error is
    |value| ((1 + rel) e^rest - 1) = |value| (rel e^rest + expm1(rest)),
    raised by 1 + 1e-10 for its own rounding.  A zero pivot gives 0.0; it
    or an infinite rel gives abs_error inf.  A value beyond double range
    raises RangeError.  A non-finite entry of ``matrix`` raises DomainError
    naming it instead: the pivot search skips nan, so such an entry ends in
    one of those three branches, and only they look for it.
    """
    n = len(matrix)
    lu_sign, diag, lu, rows = _lu_full_pivot(matrix)
    mags = list(map(abs, diag))
    if not all(mags):
        _refuse_non_finite(matrix)
        return EvalResult(0.0, math.inf, terms, path)
    sign = -1.0 if oscillatory and (n * (n - 1) // 2) % 2 else 1.0
    # a product keeps its sign through underflow and overflow
    sign *= math.copysign(1.0, lu_sign * math.prod(diag))
    value = sign * _balanced_product(mags + list(num), den)
    if not math.isfinite(value):
        _refuse_non_finite(matrix)
        raise RangeError("the determinant's value exceeds double range")
    unit = _EPS / 2.0
    gamma_n = n * unit / (1.0 - n * unit)
    hypot, fsum = math.hypot, math.fsum
    w = []  # w[k] = gamma_n |U_k| + |z_k|
    growth, ratio = 0.0, 1.0
    for r, (lu_r, m_r) in enumerate(zip(lu, mags)):
        u_r = hypot(*lu_r[r:])
        z_r = hypot(*entry_err[rows[r]]) + gamma_n * u_r
        z_r += fsum(map(operator.mul, map(abs, lu_r[:r]), w))
        w.append(gamma_n * u_r + z_r)
        growth += math.log1p(z_r / u_r)
        ratio *= u_r / m_r
    # expm1 raises OverflowError past about 709
    rel = math.expm1(growth) * ratio * (1.0 + 1e-10) if growth < 700.0 else math.inf
    if rel == math.inf:
        _refuse_non_finite(matrix)
        return EvalResult(value, math.inf, terms, path)
    m = n + roundings
    rest = m * unit / (1.0 - m * unit)
    abs_error = abs(value) * (rel * math.exp(rest) + math.expm1(rest)) * (1.0 + 1e-10)
    return EvalResult(value, abs_error, terms, path)


def _det_ratio(a, b, gaps: list[float], oscillatory: bool) -> EvalResult:
    """The Bessel route of _orbit_transform at a separated pair (a, b) from
    _canonical_order, with ``gaps`` the squared gaps of a and then of b
    (_separated_gaps): with K = J0 (``oscillatory``) or I0,

    (delta!)^2 4^{n(n-1)/2} det(K(a_i b_j)) / (D(a) D(b)),

    times (-1)^{n(n-1)/2} for J0, through _certified_det with these errors:

    * the entries: the kernel's own estimate, which counts the one
      rounding of its argument fl(a_i b_j), from series._kernel_matrix,
      the one pass that builds the values and estimates of all n^2 entries;
    * roundings: the prefactor's factors and quotients, the factorials
      beyond 22!, which are rounded to double, and three per gap: of
      exact inputs a sum or difference is exact where subnormal and within
      u relative otherwise, and a separated gap is a normal product.  An
      entry a_j that _canonical_order's ldexp rounded below 2^-1022 moves
      by at most 2^-1075, and a normal gap needs a_i^2 >= 2^-1022 (a_i
      normal, scaled exactly), so a_i^2 - a_j^2 moves by less than 2^-1073
      of itself, far inside the O(u^2) slack of gamma_m.

    terms_used is n.
    """
    n = len(a)
    num = [float(math.factorial(j)) for j in range(n)] * 2 + [4.0] * (n * (n - 1) // 2)
    matrix, entry_err, _ = _kernel_matrix(a, b, oscillatory, 1)
    roundings = len(num) + 4 * len(gaps) + 2 * max(0, n - 23)
    return _certified_det(matrix, entry_err, oscillatory, n, "determinant", num, gaps, roundings)


def spherical_det(x, xi) -> EvalResult:
    """Determinant form of the spherical function.

    phi_x(xi) = (delta!)^2 (-4)^{n(n-1)/2} det(J0(x_j xi_k)) / (D(x) D(xi)),
    delta = (n-1, ..., 1, 0), D(v) = prod_{i<j}(v_i^2 - v_j^2).

    Requires x and xi to be separated: every squared gap (v_i - v_j)(v_i + v_j)
    of each, once the pair is balanced by a power of two, a normal double
    above 1e-6 times its largest square; otherwise a DegeneracyError
    directs the caller to the other routes.  The formula is symmetric
    under exchanging x and xi, and the implementation evaluates in a
    canonical argument order so the symmetry holds bitwise.
    """
    return _orbit_transform(*_point_pair(x, xi), True, "det")


def spherical_eval(x, xi, path: str = "auto") -> EvalResult:
    """Spherical function with explicit route selection.

    path "det" and "series" force the corresponding evaluator; "auto" takes
    1.0 exactly (path "series", terms_used 1) where x or xi is all zero,
    the Bessel determinant where both are separated (every squared gap a
    normal double above 1e-6 times the largest square, as in
    spherical_det) unless its bound is infinite there and the Newton-basis
    determinant certifies, and otherwise the Newton-basis determinant
    (result path "newton"), which must certify 1e-10 relative: where it does not
    (coincident points with large entry products), ConvergenceError
    carries its value as ``partial`` and its bound as ``abs_error``, and
    path "series" sums the Schur series.  "det" raises DegeneracyError at
    unseparated points.
    """
    return _orbit_transform(*_point_pair(x, xi), True, path)


# ---------------------------------------------------------------------------
# Newton-basis route


def _newton_rows(v: Sequence[float], top: int) -> list[list[float]]:
    """Row i lists g_{k-i}(v; i) = i!/k! h_{k-i}(v_0..v_i) for k = top, ..., i
    (entry p at k = top - p), by the subtraction-free recurrence
    g_m(i) = (i g_m(i-1) + v_i g_{m-1}(i)) / (i+m) from g_0 = 1 (v >= 0)."""
    rows = []
    prev = [0.0] * (top + 1)
    for i, vi in enumerate(v):
        row = [1.0]
        g = 1.0
        for m in range(1, top - i + 1):
            g = (i * prev[m] + vi * g) / (i + m)
            row.append(g)
        rows.append(row[::-1])
        prev = row
    return rows


def _newton_transform(a: Sequence[float], b: Sequence[float], oscillatory: bool) -> EvalResult:
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
      t_{K+1}/(1 - rho).  K is the least order >= n-1 where (A) every
      t_{K+1} <= 2^-60, far below the rounding of a diagonal entry (whose
      terms sum to >= 1 in magnitude), tested as fl(max pl max pm) <= 2^-60
      over m = K+2-n..K+1, pl[m] = lam_0^m/m!, pm[m] = mu_0^m/m! (0 where a
      maximum is 0), and (B) 2 lam_0 mu_0 <= (K+3-n)^2: rho <= 1/2 at
      i = j = n-1.  A is tested only where two exact lower bounds hold: B,
      monotone in K, and fl(pl[K+1] pm[K+1]) <= 2^-60 or nan (a window's
      maximum is at least its last entry, rounding is monotone, and a zero
      maximum makes that product 0, or nan against an inf).  Where no order
      up to the cap max(n-1, _NEWTON_MAX_ORDER) passes (at once where B
      fails there, or lam_0 mu_0 is inf or nan), the route gives up: value
      nan, abs_error inf, terms_used the cap.  No entry overflows where
      neither side is all zero (_orbit_transform sends no other pair): B at
      an order up to the cap gives lam_0 mu_0 <= 20402 (n <= 201) or <= 2
      (n > 201), and the balanced pair keeps lam_0/mu_0 inside (1/4, 64), so
      lam_0 < 1143 and mu_0 < 286, every g_m with m <= 201 is below e^547
      (lam_0^m/m!; every g_m is below e^12 where n > 201), and every entry,
      with its error term, stays below e^573.  At an all-zero side an
      overflowed g_m times a zero one leaves nan entries, which
      _certified_det refuses with DomainError.
    * entry rounding: v_i = fl(a_i^2) (or fl(b_i^2)/4) is one rounding and a
      recurrence step three more, so g_m(i) is within gamma_{4m+3i}
      relative (induction on m+i) and term k within gamma_{8k+1}.  The terms
      are summed by math.fsum (for J0 even and odd k apart, then
      subtracted): a correctly rounded sum is within u of its exact value,
      so the sums add at most 2u sum_k |t_k|, and the entry is within
      u sum_k (9k+3)|t_k| (1 + O(Ku)).
    * LU, pivot product and composition: _certified_det, with the two
      items above as the entry errors and no prefactor; its factor
      1 + 1e-10 also covers the O(Ku) factors above.  terms_used is K.
    """
    n = len(a)
    lam = [v * v for v in a]
    mu = [v * v / 4.0 for v in b]
    lam0, mu0 = lam[0], mu[0]
    product = lam0 * mu0
    cap = max(n - 1, _NEWTON_MAX_ORDER)
    # pl[m] = lam_0^m/m!, pm[m] = mu_0^m/m!: bounds on g_m of every prefix
    pl, pm = [1.0], [1.0]
    p = q = 1.0
    for m in range(1, cap + 2) if 2.0 * product <= (cap + 3 - n) ** 2 else ():
        p = p * lam0 / m
        q = q * mu0 / m
        pl.append(p)
        pm.append(q)
        # order K = m - 1: the two lower bounds, then A itself
        if m < n or p * q > 2.0**-60 or 2.0 * product > (m + 2 - n) ** 2:
            continue
        first_l = max(pl[m + 1 - n :])
        first_m = max(pm[m + 1 - n :])
        first = first_l * first_m if first_l and first_m else 0.0
        if first <= 2.0**-60:
            break
    else:
        return EvalResult(math.nan, math.inf, cap, "newton")
    K = m - 1

    g_lam = _newton_rows(lam, K)
    g_mu = _newton_rows(mu, K)
    unit, fsum = _EPS / 2.0, math.fsum
    weights = [9.0 * k + 3.0 for k in range(K, -1, -1)]  # 9k + 3 for k = K, ..., 0
    matrix, entry_err = [], []
    for i, gi in enumerate(g_lam):
        row, err_row = [], []
        for j, gj in enumerate(g_mu):
            terms = list(map(operator.mul, gi, gj))  # k = K, K-1, ..., max(i, j)
            if oscillatory:
                total = fsum(terms[::2]) - fsum(terms[1::2])
                if K & 1:
                    total = -total
            else:
                total = fsum(terms)
            weighted = fsum(map(operator.mul, terms, weights))
            rho = product / ((K + 2 - i) * (K + 2 - j))
            tail = pl[K + 1 - i] * pm[K + 1 - j] if first else 0.0
            row.append(total)
            err_row.append(unit * weighted + tail / (1.0 - rho))
        matrix.append(row)
        entry_err.append(err_row)
    return _certified_det(matrix, entry_err, oscillatory, K, "newton")


# ---------------------------------------------------------------------------
# Schur series route

# the tail bound raises exp values below this to it: where the computed exp
# is below the floor the true one is too (up to the slack), so the layer bound
# stays an upper bound where exp underflows
_EXP_FLOOR = 1e-290


def _scaled_squares(runs, scale: float) -> list[tuple[float, int]]:
    """``runs`` (decreasing) with each value v replaced by (v / scale)^2;
    a run whose square underflows to 0 is dropped."""
    return [(s, m) for v, m in runs if (s := (v / scale) * (v / scale))]


def _series_tail_bound(lam_runs, xi_runs) -> tuple[int, Iterator[float]]:
    """The set-up of the series' tail bound: _h_stream over the products
    Lam^_i Xi^_j of the scaled squares, as runs (a b, ma mb) in decreasing
    order.  By Cauchy's identity (Macdonald, I.4.3) its entry h_w is the
    sum of s_m(Lam^) s_m(Xi^) over the partitions m of weight w.  Where one
    side is a single square, which scales to exactly 1, the stream is the
    other side's own."""
    runs = [(a * b, ma * mb) for a, ma in lam_runs for b, mb in xi_runs]
    return _h_stream(sorted(runs, reverse=True))


def _layer_terms(layer, coefs: list[list[float]], h_lam, h_xi, w: int) -> list[float]:
    """Series terms, before the sign (-1)^w, of the partitions ``layer`` of
    weight w, with the rows' log coefficients ``coefs``; partitions with a
    zero Schur factor are skipped."""
    jacobi_trudi = _jacobi_trudi_det
    exp = math.exp
    terms = []
    for parts in layer:
        s_l = jacobi_trudi(parts, h_lam)
        if s_l == 0.0:
            continue
        s_x = jacobi_trudi(parts, h_xi)
        if s_x == 0.0:
            continue
        log_a = 0.0
        for coef, mi in zip(coefs, parts):
            log_a += coef[mi]
        try:
            terms.append(exp(2.0 * log_a) * s_l * s_x)
        except OverflowError:
            raise RangeError(f"series term at weight {w} exceeds double range") from None
    return terms


def _schur_fourier_series(
    n: int,
    x_runs: Sequence[tuple[float, int]],
    xi_runs: Sequence[tuple[float, int]],
    alternating: bool,
    rel_tol: float,
) -> EvalResult:
    """sum over partitions m of (delta!/(m+delta)!)^2 s_m(Lam) s_m(Xi) with
    Lam = x^2 and |Xi| = xi^2/4, for two size-n points given by n and the
    runs (value, multiplicity) of their nonzero entries, in decreasing
    order, as symfunc._runs returns them (``x_runs``, ``xi_runs``; an
    empty list is an all-zero point); ``alternating`` attaches
    (-1)^{|m|} (the J0-type kernel), otherwise all terms are positive
    (I0-type).

    Zero squares add nothing to a Schur function, so only the nonzero
    entries of Lam and Xi are kept, and a partition has at most ``rows``
    parts, the smaller count of them; the dimension n enters through the
    coefficients alone, and where a side has no nonzero entry the series
    is its one term, 1.0 exactly.  Entries are divided by their largest
    ones before they are squared, so no square leaves double range on its
    own and every complete-h entry is at least 1, and the scale is folded
    into each row's log coefficient, a running sum of
    log(scale) - log(d + t); the routine stays in range and accurate for
    large dimensions and large or small entries.  Each run is scaled and
    squared once (_scaled_squares), and a run whose square underflows to
    0 is dropped; h_j comes from _h_stream, the recurrences of
    complete_h_table one weight at a time.  Nothing here reads n entries,
    so a point of one run and k others costs the same at every n.  Where
    one side has a single nonzero square (rows = 1, every rank-one sweep
    point) that side scales to exactly 1 and drops out, so exchanging x
    and xi gives the same bits.

    One loop serves every row count, one weight per step: it advances the
    complete-h streams and the log coefficients, closes the tail from
    weight w on, then sums layer w, the single term exp(2 c_w) h_w at
    rows = 1 and otherwise the weight-w partitions of _partition_tuples,
    two Jacobi-Trudi determinants each.  One tail rule serves every row
    count.  For nonnegative variables every s_m is nonnegative, and by
    Cauchy's identity the s_m(Lam^) s_m(Xi^) of weight w sum to
    h_w(Lam^ Xi^), the complete-h entry of the products of the scaled
    squares (_series_tail_bound); so layer w is at most
    v_w = exp(2 C_w) h_w(Lam^ Xi^), C_w the largest log coefficient of
    weight w.  A row's coefficient sums half_logc - log(d + s) over
    s = 1..m_i, and its factors d + s rise, so C_w sums the same step over
    the w smallest factors a_1 <= a_2 <= ... of all rows together
    (n - rows + j occurs min(j, rows) times); at rows = 1, a_t = n - 1 + t
    and v_w is the layer itself.  h_{j+1}/h_j of nonnegative variables does
    not increase (a Polya frequency sequence), nor does the step, so
    rho = exp(2 (half_logc - log a_w)) h_w / h_{w-1}, raised by exp(2 slack),
    bounds every later ratio, and the layers from weight w on sum to at
    most v_w / (1 - rho).  v_w is raised by exp(slack) for its rounding and
    to _EXP_FLOOR where exp(2 C_w) is below it, which bounds from above
    only.  Weight w costs O(k + rows) for the streams and coefficients (k
    entries outside the longest run of equal ones) and its layer, after an
    O(runs log n) set-up and one over the pairs of runs.  The sum stops
    before the first weight where the tail is below both the rounding term
    and rel_tol; past weight 240 it need only meet rel_tol, or
    ConvergenceError is raised with the partial sum.  A term, or its bound
    v_w, beyond double range raises RangeError.  With ``alternating`` the
    sum is a spherical function, bounded by 1, so a bound of 1 or more, or
    one that excludes [-1, 1], raises ConvergenceError with the value and
    the bound.

    Each layer is summed by math.fsum, correctly rounded (Shewchuk 1997) and
    so within u sum|t|, u = eps/2, of its exact sum in any order of its
    terms, and enters the total by one compensated step, which adds at most
    2u sum|layer| + O(W u^2) over W weights (Higham, 2nd ed., 4.3): the bits
    depend on the weight order alone.  The error returned is the tail bound
    plus 4 eps times the absolute sum of the terms, which covers both, plus
    each layer's absolute sum times the relative error a term of that weight
    can take from its log coefficient (which grows like log n per unit of
    weight) and from the complete-h entries it reads, at rows >= 2 their
    errors, not the Jacobi-Trudi determinant's cancellation.
    """
    if not (x_runs and xi_runs):
        return EvalResult(1.0, 0.0, 1, "series")
    x0, xi0 = x_runs[0][0], xi_runs[0][0]
    log_x0, log_xi0 = math.log(x0), math.log(xi0)
    half_logc = log_x0 + log_xi0 - math.log(2.0)
    # Each log is within eps |log|, log 2 and each sum within eps/2 of its
    # value (log x0 and log xi0 can cancel), so step t of a row's running
    # sum of log coefficients is off by at most eps L + 1.5 eps log(d + t)
    # + eps/2 |its result|, L = 1.5 (|log x0| + |log xi0|) + |half_logc| + 0.35.
    fixed = _EPS * (1.5 * (abs(log_x0) + abs(log_xi0)) + abs(half_logc) + 0.35)
    # Lam = x0^2 Lam^ and |Xi| = (xi0/2)^2 Xi^: entries are scaled before
    # they are squared, since a square can leave double range where the
    # products x_i xi_j do not.
    lam_runs, xi_runs = _scaled_squares(x_runs, x0), _scaled_squares(xi_runs, xi0)
    rows = min(sum(m for _, m in lam_runs), sum(m for _, m in xi_runs))
    # h_w of the products bounds layer w; at rows = 1 it is the layer's own
    k, hs = _series_tail_bound(lam_runs, xi_runs)
    # A weight-w log coefficient, C_w or a term's, is off by at most
    # log_err + cross big, with big the largest of |C_j| and the first
    # row's |coefficient| so far (the other rows lie between them) and
    # log_err the running sum of the step errors above at d = n - 1: every
    # factor a_t or d + t of weight t is at most n - 1 + t, so log_err
    # bounds C_w and every split of w between the rows; the rows - 1
    # additions across rows add cross big.  exp(2 log a) then carries
    # relative error expm1(2 (log_err + cross big)).  The scaled squares
    # carry two roundings each (scale, square), and an entry h_j of a table
    # with k folded variables k + 3j more (complete_h_table): a term's h
    # entries, at most rows per table with indices summing to w, are within
    # gamma_{rows k + 5w} each, and h_w of the products (three roundings
    # more each, k_prod folded) within gamma_{k_prod + 8w}.  With
    # k = max(k_prod, rows (k_lam + k_xi)), slack bounds both.
    cross = 0.5 * _EPS * rows * (rows - 1)
    if rows > 1:
        k_lam, hs_lam = _h_stream(lam_runs)
        k_xi, hs_xi = _h_stream(xi_runs)
        k = max(k, rows * (k_lam + k_xi))
        # weight w reads h entries up to w + rows - 1
        h_lam, h_xi = list(islice(hs_lam, rows)), list(islice(hs_xi, rows))
        # Row i of a partition contributes m_i half_logc + log(d!/(m_i + d)!),
        # d = n-1-i: a running sum of half_logc - log(d + t), whose steps
        # are small where the scale matches the dimension.
        coefs = [[0.0] for _ in range(rows)]
        layers = groupby(_partition_tuples(_WEIGHT_CAP, rows), sum)
        next(layers)  # the empty partition, summed below
        # a_t, the t-th smallest factor d + s of the rows d = n - 1 - i: the
        # value n - rows + j occurs min(j, rows) times (at one row,
        # a_t = n - 1 + t)
        factors = (
            n - rows + j for j in range(1, _WEIGHT_CAP + 2) for _ in range(min(j, rows))
        )
    coef = big = log_err = 0.0
    h_prev = next(hs)  # h_0 = 1
    total, comp, abs_sum, coef_sum, count = 1.0, 0.0, 1.0, 0.0, 1
    rounding = 4.0 * _EPS
    unit, log_eps, big_eps = _EPS / 2.0, 1.5 * _EPS, 0.5 * _EPS
    exp, log, expm1, floor, inf = math.exp, math.log, math.expm1, _EXP_FLOOR, math.inf
    for w, h in zip(range(1, _WEIGHT_CAP + 2), hs):
        log_d = log(n - 1 + w)
        step = half_logc - log_d
        if rows > 1:
            step = half_logc - log(next(factors))
            h_lam.append(next(hs_lam))
            h_xi.append(next(hs_xi))
            for i, row in enumerate(coefs):
                row.append(row[-1] + (half_logc - log(n - 1 - i + w)))
            big = max(big, abs(coefs[0][w]))
        coef += step
        if abs(coef) > big:
            big = abs(coef)
        log_err += fixed + log_eps * log_d + big_eps * big
        # gamma_m = m u / (1 - m u), u = 2^-53: m roundings, relative
        gamma = (k + 10 * w) * unit
        slack = 2.0 * (log_err + cross * big) + gamma / (1.0 - gamma)
        grow = exp(slack) * (1.0 + 1e-10)
        try:
            e = exp(2.0 * coef)
        except OverflowError:
            e = inf
        # the 1e-10 in grow also covers the rounding of v and of the tail
        v = (e if e > floor else floor) * h * grow
        if v == inf:
            raise RangeError(f"series term at weight {w} exceeds double range")
        # the steps fall, so exp(2 step) is finite where e is
        rho = exp(2.0 * step) * (h / h_prev) * grow * grow
        tail = v / (1.0 - rho) if rho < 1.0 else inf
        if tail <= rel_tol * abs(total) + 1e-14 and (
            tail <= rounding * abs_sum or w > _WEIGHT_CAP
        ):
            err = tail + rounding * abs_sum + coef_sum * (1.0 + 1e-10)
            if alternating and (err >= 1.0 or abs(total) - err > 1.0):
                # a spherical function is bounded by 1, so such a bound
                # certifies nothing: it missed the Jacobi-Trudi cancellation
                raise ConvergenceError(
                    f"series value {total:.17g} +- {err:.3g}: the bound is at least 1"
                    " or excludes [-1, 1]",
                    partial=total,
                    abs_error=err,
                )
            return EvalResult(total, err, count, "series")
        if w > _WEIGHT_CAP:
            raise ConvergenceError(
                f"series tail not certified at max weight {_WEIGHT_CAP}",
                partial=total,
                abs_error=tail,
            )
        if rows == 1:
            # the layer is its one term, e and h nonnegative
            layer = layer_abs = e * h
            count += 1
        else:
            terms = _layer_terms(next(layers)[1], coefs, h_lam, h_xi, w)
            layer, layer_abs = math.fsum(terms), math.fsum(map(abs, terms))
            count += len(terms)
        y = (-layer if alternating and w & 1 else layer) - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_sum += layer_abs
        coef_sum += expm1(slack) * layer_abs
        h_prev = h


def _orbit_transform(
    x: DiagonalPoint, xi: DiagonalPoint, oscillatory: bool, path: str
) -> EvalResult:
    """Fourier transform of the U(n) x U(n) orbit of x, evaluated at xi (a
    pair from _point_pair):

    (delta!)^2 4^{n(n-1)/2} det(K(x_i xi_j)) / (D(x) D(xi)),

    with K = J0 and the sign (-1)^{n(n-1)/2} when ``oscillatory`` (the
    spherical function), K = I0 otherwise (the exponential orbital integral).
    It only picks the route: ``path`` "series" takes the Schur series
    (_schur_fourier_series), and so does "auto" where x or xi is all zero:
    there the series is its one term, the empty partition's 1, and returns
    1.0 with abs_error 0.0, path "series" and terms_used 1.  Otherwise the
    routes read the balanced pair (a, b) of _canonical_order: a separated
    one takes this determinant (_det_ratio), "det" raises
    DegeneracyError at any other, and "auto" takes its Newton-basis
    form (_newton_transform), which must certify 1e-10 relative or raise
    ConvergenceError with its value and bound attached; where that route
    gives up (value nan), the message names the order cap.  Where the
    determinant's bound is infinite at a separated pair (a tiny one, whose
    kernel entries all round to 1, has a zero pivot), "auto" returns the
    Newton-basis form instead if that certifies 1e-10 relative, and the
    determinant's result otherwise.
    """
    if path not in ("auto", "det", "series"):
        raise DomainError(f"unknown path {path!r}")
    if path == "series" or (path == "auto" and not (x.values[0] and xi.values[0])):
        return _schur_fourier_series(
            len(x.values), _runs(x.values), _runs(xi.values), oscillatory, _REL_TOL
        )
    a, b = _canonical_order(x, xi)
    gaps_a, gaps_b = _separated_gaps(a), _separated_gaps(b)
    if gaps_a is not None and gaps_b is not None:
        r = _det_ratio(a, b, gaps_a + gaps_b, oscillatory)
        if r.abs_error < math.inf or path == "det":
            return r
        newton = _newton_transform(a, b, oscillatory)
        return newton if newton.abs_error <= _REL_TOL * abs(newton.value) else r
    if path == "det":
        raise DegeneracyError("unseparated squared entries; use path 'auto' or 'series'")
    r = _newton_transform(a, b, oscillatory)
    if r.abs_error <= _REL_TOL * abs(r.value):
        return r
    if math.isnan(r.value):
        why = f"finds no truncation order below its cap {r.terms_used} that bounds the tail"
    else:
        why = f"certifies {r.abs_error:.3g} absolute at value {r.value:.17g}, not 1e-10 relative"
    raise ConvergenceError(
        f"Newton-basis determinant {why}; path 'series' sums the Schur series",
        partial=r.value,
        abs_error=r.abs_error,
    )


def spherical_series(x, xi, rel_tol: float = _REL_TOL) -> EvalResult:
    """Series form of the spherical function.

    Handles coincident and zero entries (no Vandermonde division).  Zero
    entries cost nothing beyond input validation and a run of equal entries
    costs what one entry does.  Where x or xi has one nonzero entry (a
    rank-one sweep point: xi = (u, 0, ..., 0), x from lambda_sequence_for)
    the series has one row and costs O(k + 1) per term, k the entries
    outside the longest run, after input validation and one groupby for the
    runs, whatever the dimension n; validating and sorting the two size-n
    arguments is O(n log n), which spherical_convergence skips by building
    the runs from omega.  At any number of rows the series is
    summed one weight at a time, its tail closed geometrically before each
    weight from one bound (by Cauchy's identity, the weight's largest
    coefficient times h_w of the products x_i^2 xi_j^2 / 4), and it stops
    at the first weight where that tail is below both the rounding term
    and rel_tol; past weight 240 it raises ConvergenceError with the
    partial sum attached unless the tail meets rel_tol.  It loads no
    numpy.  abs_error is the tail bound plus the rounding term, which
    covers the error each term takes from its log-factorial coefficient
    and its complete-h entries as well as the summation, though not the
    cancellation of a Jacobi-Trudi determinant of two or more rows; where
    that cancellation leaves a bound of 1 or more, or one that excludes
    [-1, 1] (|phi| <= 1), ConvergenceError is raised with the value and
    the bound attached.  rel_tol <= 0 raises DomainError; a term beyond
    double range raises RangeError.
    """
    if not rel_tol > 0.0:
        raise DomainError("rel_tol must be positive")
    x, xi = _point_pair(x, xi)
    return _schur_fourier_series(len(x.values), _runs(x.values), _runs(xi.values), True, rel_tol)


def orbital_integral(lam, theta, path: str = "auto") -> EvalResult:
    """Exponential orbital integral

    I(lam, theta) = 2^{n(n-1)} [1! ... (n-1)!]^2 det(I0(lam_i theta_j))
                    / (D(lam) D(theta)),

    the two-sided unitary average of exp(Re tr(lam u theta v*)).  ``path`` is
    "auto", "det" or "series", as in spherical_eval: "auto" gives 1.0
    exactly where lam or theta is all zero, takes the determinant when
    separated (the Newton-basis one where the determinant's bound is
    infinite and that one certifies), otherwise the Newton-basis
    determinant, and raises ConvergenceError where that does not certify
    1e-10 relative.  The Newton-basis determinant and the series handle
    coincident and zero entries.

    Arguments with max(lam) * max(theta) > 700 are refused (RangeError, I0
    overflow guard); up to it every I0 entry of the determinant is
    certified (series._kernel_matrix, the scalar's bound), and a
    determinant whose value exceeds double range raises RangeError.
    """
    lam, theta = _point_pair(lam, theta)
    if lam.values[0] * theta.values[0] > _ARG_MAX:
        raise RangeError(f"orbital_integral overflow guard: max(lam)*max(theta) > {_ARG_MAX:g}")
    return _orbit_transform(lam, theta, False, path)


def heat_kernel(t: float, lam, theta) -> float:
    """Radial heat kernel, the orbital integral at the rescaled point lam/2t:

    H0(t, lam, theta) = 1/(n! (2t)^n) * e^{-(|lam|^2+|theta|^2)/4t}
                        * det(I0(lam_i theta_j / 2t)) / (D(lam) D(theta))
                      = e^{-(|lam|^2+|theta|^2)/4t} * I(lam/2t, theta)
                        / (n! (2t)^n (4t)^{n(n-1)} (prod_{j<n} j!)^2).

    Requires finite t > 0.  At theta = 0 the orbital integral is exactly 1
    and lam/2t is not formed.  Otherwise coincident entries take the "auto"
    route of orbital_integral at (lam/2t, theta): the Newton-basis
    determinant, which raises ConvergenceError where it does not certify.
    The orbital overflow guard applies to (lam/2t, theta), and an entry of
    lam/2t beyond double range raises RangeError as well, as does an
    orbital integral I(lam/2t, theta) beyond double range, even where H0
    itself is within it.
    """
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise DomainError("heat_kernel requires finite t > 0")
    lam, theta = _point_pair(lam, theta)
    n = lam.dimension
    orbital = 1.0
    if theta.values[0]:
        scaled = [v / (2.0 * t) for v in lam.values]
        if scaled[0] == math.inf:
            raise RangeError("heat_kernel overflow: lam/2t exceeds double range")
        orbital = orbital_integral(scaled, theta).value
    norm2 = math.fsum(v * v for v in lam.values) + math.fsum(
        v * v for v in theta.values
    )
    num = [orbital, math.exp(-norm2 / (4.0 * t))]
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
    divided differences blow up otherwise).  Default step 1e-4 * (1 + |lam|);
    a step that is not positive and finite raises DomainError.
    """
    import numpy as np

    lam = _as_point(lam)
    v = np.array(lam.values, dtype=float)
    n = len(v)
    if n == 0:
        raise DomainError("empty diagonal point")
    if _separated_gaps(lam.values) is None or v[-1] == 0.0:
        raise DegeneracyError("radial_laplacian needs nonzero, separated entries")
    h = float(fd_step) if fd_step is not None else 1e-4 * (1.0 + float(np.linalg.norm(v)))
    if not 0.0 < h < math.inf:  # False for nan as well
        raise DomainError("fd_step must be positive and finite")

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
    n = _integer(n, "n", 1)
    if n > 50:
        raise RangeError("weyl_c_n is out of double range beyond n = 50")
    log_c = (
        n * math.log(2.0)
        + n * n * math.log(math.pi)
        - math.lgamma(n + 1)
        - 2.0 * math.fsum(math.lgamma(j + 1) for j in range(1, n))
    )
    return math.exp(log_c)


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

    The constant c_{m,n} is the Selberg closed form, computed exactly and
    rounded once; RangeError if it leaves double range.
    Mass concentrates at theta = (pi/2, ..., pi/2) as n grows.
    """
    m = _integer(m, "m", 1)
    n = _integer(n, "n", 2 * m)
    th = [float(v) for v in theta]
    if len(th) != m:
        raise ShapeError(f"theta must have length {m}")
    for v in th:
        if not (0.0 <= v <= math.pi):
            raise DomainError("theta entries must lie in [0, pi]")
    acc = 1.0
    for i in range(m):
        for j in range(i + 1, m):
            acc *= (math.sin(th[i] + th[j]) * math.sin(th[i] - th[j])) ** 2
    for v in th:
        acc *= math.sin(2.0 * v) * math.sin(v) ** (2 * (n - 2 * m))
    return _weyl_cmn(m, n) * abs(acc)
