"""Symmetric-function algebra on real variable lists.

Partitions index everything downstream: Schur polynomials enter the series
form of the matrix-argument evaluators, and the power-sum / complete-homogeneous
bases carry the scaling limit.  All evaluation routines sort their variable
list once (descending), so results are bitwise invariant under permutation of
the inputs.  The complete-h table expands the longest run of equal variables
in closed form, so n entries of which all but k are one repeated value cost
O(n) to sort and O((k + 1) max_m) to fold; for nonnegative variables each
entry h_m is within about (k + 3m) 2^-53 relative of the exact sum.
"""

from __future__ import annotations

import math
from itertools import count, groupby, islice
from typing import Iterable, Iterator, Sequence

from ._record import record
from .errors import DomainError, RangeError, _integer


@record
class Partition:
    """A weakly decreasing tuple of nonnegative integers, trailing zeros trimmed.

    >>> Partition((3, 1, 0)).parts
    (3, 1)
    >>> Partition(()).weight
    0
    """

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()):
        cleaned = tuple(_integer(p, "partition part", 0) for p in parts)
        if any(cleaned[i] < cleaned[i + 1] for i in range(len(cleaned) - 1)):
            raise DomainError(f"partition parts must be weakly decreasing: {cleaned}")
        while cleaned and cleaned[-1] == 0:
            cleaned = cleaned[:-1]
        object.__setattr__(self, "parts", cleaned)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


def _as_sorted_vars(x: Sequence[float]) -> list[float]:
    vals = sorted(map(float, x), reverse=True)
    if not all(map(math.isfinite, vals)):
        raise DomainError("variables must be finite")
    return vals


def power_p(m: int, x: Sequence[float]) -> float:
    """Power sum p_m(x) = sum_k x_k^m for m >= 1; RangeError where it
    leaves double range."""
    m = _integer(m, "m", 1)
    try:
        total = float(sum(v**m for v in _as_sorted_vars(x)))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise RangeError(f"power sum p_{m} exceeds double range")
    return total


def complete_h_table(x: Sequence[float], max_m: int) -> list[float]:
    """[h_0(x), ..., h_max_m(x)] of the variable multiset x.

    The longest run of g >= 2 equal nonzero variables c (the largest c on
    ties) seeds the table in closed form, h_j = C(j+g-1, j) c^j, by the ratio
    recurrence h_j = h_{j-1} c (j+g-1) / j.  Every other nonzero variable is
    folded in by h_m(x_1..x_k) = h_m(x_1..x_{k-1}) + x_k h_{m-1}(x_1..x_k),
    in decreasing order; zeros leave the table unchanged and are skipped.
    The seed costs O(max_m) whatever g is, so one long run and k other
    variables cost O((k + 1) max_m) beyond sorting the input.

    For nonnegative variables both steps are subtraction-free.  A seeded
    h_j takes 3j roundings, and each of the k folds adds at most one
    rounding to every monomial of h_m beyond the two per degree it brings,
    so every monomial of h_m passes at most k + 3m roundings and h_m has
    relative error at most gamma_{k+3m} (about (k + 3m) 2^-53), k <= len(x)
    the number of folded variables.  Mixed signs can cancel, and then no
    relative bound holds.  RangeError where an entry leaves double range.
    """
    return _finite_h(x, _integer(max_m, "max_m", 0), "complete_h_table")


def _h_table(vals: Sequence[float], max_m: int) -> list[float]:
    # complete_h_table of sorted variables, entries past double range kept
    _, hs = _h_stream(_runs(vals))
    return list(islice(hs, max_m + 1))


def _finite_h(x: Sequence[float], max_m: int, name: str) -> list[float]:
    table = _h_table(_as_sorted_vars(x), max_m)
    for j, h in enumerate(table):
        if not math.isfinite(h):
            raise RangeError(f"{name}: h_{j} exceeds double range")
    return table


def _runs(vals: Sequence[float]) -> list[tuple[float, int]]:
    """Runs (value, multiplicity) of the nonzero entries of ``vals``, which
    are in decreasing order, so equal entries are adjacent."""
    return [(v, sum(1 for _ in run)) for v, run in groupby(vals) if v]


def _h_stream(runs: Sequence[tuple[float, int]]) -> tuple[int, Iterator[float]]:
    """complete_h_table one weight at a time, for nonzero variables given as
    runs (value, multiplicity) in decreasing order: the number k of
    variables folded in, and an endless iterator over h_0, h_1, ...  Each
    folded variable carries its own column h_{j-1}, so weight j costs
    O(k + 1)."""
    g, seed = 1, -1  # the longest run of g >= 2, the first (largest) on ties
    for i, (_, m) in enumerate(runs):
        if m > g:
            g, seed = m, i
    c = runs[seed][0] if g > 1 else 0.0
    folded = [v for i, (v, m) in enumerate(runs) if i != seed for _ in range(m)]

    def terms() -> Iterator[float]:
        carried = [1.0] * len(folded)  # h_{j-1} of the seed and the first i + 1 folds
        seeded = 1.0
        yield 1.0
        for j in count(1):
            seeded = seeded * c * (j + g - 1) / j
            h = seeded
            for i, xk in enumerate(folded):
                h = h + xk * carried[i]
                carried[i] = h
            yield h

    return len(folded), terms()


def complete_h(m: int, x: Sequence[float]) -> float:
    """Complete homogeneous sum h_m(x); h_0 = 1, h_m(()) = 0 for m >= 1.
    RangeError where one of h_0..h_m leaves double range."""
    m = _integer(m, "m", 0)
    return _finite_h(x, m, "complete_h")[m]


def newton_h_from_p(p: Sequence[float]) -> list[float]:
    """Recover [h_0..h_M] from power sums [p_1..p_M] via Newton's identities.

    m * h_m = sum_{i=1..m} p_i * h_{m-i}.  DomainError on a non-finite
    power sum, RangeError where an h_m leaves double range.
    """
    if not all(map(math.isfinite, p)):
        raise DomainError("newton_h_from_p: power sums must be finite")
    M = len(p)
    h = [0.0] * (M + 1)
    h[0] = 1.0
    for m in range(1, M + 1):
        acc = 0.0
        for i in range(1, m + 1):
            acc += p[i - 1] * h[m - i]
        h[m] = acc / m
        if not math.isfinite(h[m]):
            raise RangeError(f"newton_h_from_p: h_{m} exceeds double range")
    return h


def _lu_full_pivot(a: list[list[float]]):
    """Elimination with full pivoting on a copy of ``a``.

    Returns (sign, diagonal pivots, lu, rows): P a Q = L U, where row i of
    P a Q is row rows[i] of ``a``, lu holds the multipliers of the unit
    lower L below its diagonal and U on and above it, and sign is
    det(P) det(Q).  A zero pivot stops the elimination; the block left
    below it is zero.
    """
    n = len(a)
    a = [row[:] for row in a]
    rows = list(range(n))
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
            sign = -sign
        piv = a[k][k]
        diag.append(piv)
        for i in range(k + 1, n):
            f = a[i][k] / piv
            a[i][k] = f
            if f != 0.0:
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
    return sign, diag, a, rows


def _jacobi_trudi_det(parts: tuple[int, ...], h: Sequence[float]) -> float:
    """det(h_{m_i - i + j})_{1<=i,j<=l} with h_k = 0 for k < 0.

    ``parts`` are the positive parts of a partition, so the only index that
    can be negative in the closed forms for l <= 3 is c - 2 of the last row
    when c = 1; it reads an explicit 0.0.  The closed forms multiply the same
    entries in the same order as a cofactor expansion along the first row.
    Beyond three rows, the signed pivot product of _lu_full_pivot.
    """
    l = len(parts)
    if l == 0:
        return 1.0
    if l == 1:
        return h[parts[0]]
    if l == 2:
        a, b = parts
        return h[a] * h[b] - h[a + 1] * h[b - 1]
    if l == 3:
        a, b, c = parts
        h00, h01, h02 = h[a], h[a + 1], h[a + 2]
        h10, h11, h12 = h[b - 1], h[b], h[b + 1]
        h20, h21, h22 = (h[c - 2] if c >= 2 else 0.0), h[c - 1], h[c]
        return (
            h00 * (h11 * h22 - h12 * h21)
            - h01 * (h10 * h22 - h12 * h20)
            + h02 * (h10 * h21 - h11 * h20)
        )
    rows = [[h[k] if k >= 0 else 0.0 for k in range(p - i, p - i + l)] for i, p in enumerate(parts)]
    sign, diag, _, _ = _lu_full_pivot(rows)
    return sign * math.prod(diag)


def schur(m: Partition | Sequence[int], x: Sequence[float]) -> float:
    """Schur polynomial s_m(x) via the Jacobi-Trudi determinant.

    Returns 0.0 exactly when m has more nonzero parts than x has nonzero
    entries (stability under zero variables).  RangeError where the
    evaluation leaves double range.
    """
    part = m if isinstance(m, Partition) else Partition(m)
    vals = _as_sorted_vars(x)
    nonzero = sum(1 for v in vals if v != 0.0)
    if part.length > nonzero:
        return 0.0
    if part.length == 0:
        return 1.0
    max_index = part.parts[0] + part.length - 1
    value = _jacobi_trudi_det(part.parts, _h_table(vals, max_index))
    if not math.isfinite(value):
        raise RangeError(f"Schur polynomial s_{part.parts} exceeds double range")
    return value


def _partition_tuples(max_weight: int, max_length: int) -> Iterator[tuple[int, ...]]:
    """Parts of every partition of weight <= max_weight with at most
    max_length parts, starting with ().

    Order contract: weight ascending, lexicographically descending within a
    weight.  The series sums a weight's terms by math.fsum, so only the
    weight order reaches its bits; cauchy_lhs's bits depend on both.  Each
    step is the lexicographic predecessor: pop trailing parts until one can
    be decremented with the popped weight still fitting below the new part
    in the free slots, then refill greedily.
    """
    if max_weight < 0:
        return
    yield ()
    if max_length < 1:
        return
    for w in range(1, max_weight + 1):
        parts = [w]
        while True:
            yield tuple(parts)
            rem = 0
            while parts:
                top = parts.pop()
                rem += top
                top -= 1
                if rem <= top * (max_length - len(parts)):
                    break
            else:
                break  # (1, ..., 1) or the length limit: weight w is done
            # rem (>= top + 1) refills as top, top, ..., remainder
            q, r = divmod(rem, top)
            parts.extend([top] * q)
            if r:
                parts.append(r)


def enumerate_partitions(max_weight: int, max_length: int) -> Iterator[Partition]:
    """Every partition with weight <= max_weight and at most max_length parts.

    Deterministic order: weight ascending, then lexicographically descending
    within each weight, e.g. (2), (1, 1).  The order is a contract of this
    output, and cauchy_lhs sums in it; the Schur series route rounds each
    weight's sum once, so only the weight order reaches its bits.
    """
    max_weight = _integer(max_weight, "max_weight", 0)
    max_length = _integer(max_length, "max_length", 0)
    for parts in _partition_tuples(max_weight, max_length):
        yield Partition(parts)


def cauchy_rhs(x: Sequence[float], y: Sequence[float]) -> float:
    """prod_{i,j} 1/(1 - x_i y_j); requires every |x_i y_j| < 1."""
    xs = _as_sorted_vars(x)
    ys = _as_sorted_vars(y)
    acc = 1.0
    for xi in xs:
        for yj in ys:
            q = xi * yj
            if abs(q) >= 1.0:
                raise DomainError(f"cauchy_rhs requires |x_i y_j| < 1, got {q!r}")
            acc /= 1.0 - q
    return acc


def cauchy_lhs(x: Sequence[float], y: Sequence[float], max_weight: int) -> float:
    """sum over partitions of weight <= max_weight of s_m(x) s_m(y).

    Truncation of the Cauchy identity; partitions longer than either variable
    list contribute 0 and are skipped.  The pair is first balanced by a power
    of two, (x, y) -> (c x, y / c), which leaves each term unchanged.
    RangeError where a Schur value or the sum leaves double range.
    """
    max_weight = _integer(max_weight, "max_weight", 0)
    xs, ys = _as_sorted_vars(x), _as_sorted_vars(y)
    ax, ay = max(map(abs, xs), default=0.0), max(map(abs, ys), default=0.0)
    if not (ax and ay):  # only the empty partition is left
        return 1.0
    e = int((math.frexp(ay)[1] - math.frexp(ax)[1]) / 2)
    xs, ys = [math.ldexp(v, e) for v in xs], [math.ldexp(v, -e) for v in ys]
    max_len = min(len(xs), len(ys))
    top = max_weight + max_len
    hx, hy = _h_table(xs, top), _h_table(ys, top)
    acc = 0.0
    for parts in _partition_tuples(max_weight, max_len):
        acc += _jacobi_trudi_det(parts, hx) * _jacobi_trudi_det(parts, hy)
    if not math.isfinite(acc):
        raise RangeError("cauchy_lhs: s_m(x) s_m(y) or their sum exceeds double range")
    return acc
