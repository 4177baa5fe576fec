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
import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import DomainError


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of nonnegative integers, trailing zeros trimmed.

    >>> Partition((3, 1, 0)).parts
    (3, 1)
    >>> Partition(()).weight
    0
    """

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()):
        cleaned = tuple(int(p) for p in parts)
        if any(p < 0 for p in cleaned):
            raise DomainError(f"partition parts must be nonnegative: {cleaned}")
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
    """Power sum p_m(x) = sum_k x_k^m for m >= 1."""
    if m < 1:
        raise DomainError("power sums are indexed from m = 1")
    return float(sum(v**m for v in _as_sorted_vars(x)))


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
    relative bound holds.
    """
    if max_m < 0:
        raise DomainError("max_m must be nonnegative")
    return _h_table(_as_sorted_vars(x), max_m)[0]


def _h_table(vals: list[float], max_m: int) -> tuple[list[float], int]:
    """complete_h_table of finite variables already in decreasing order,
    and the number k of variables it folds in (its error bound's k)."""
    # equal entries are adjacent; find the longest nonzero run by bisection
    g, seed, start = 1, 0, 0
    while start < len(vals):
        end = bisect_right(vals, -vals[start], start, key=operator.neg)
        if vals[start] != 0.0 and end - start > g:
            g, seed = end - start, start
        start = end
    h = [1.0] + [0.0] * max_m
    if g >= 2:
        c = vals[seed]
        term = 1.0
        for j in range(1, max_m + 1):
            term = term * c * (j + g - 1) / j
            h[j] = term
        vals = vals[:seed] + vals[seed + g :]
    folds = 0
    for xk in vals:
        if xk == 0.0:
            continue  # h[j] += 0 * h[j-1] leaves the table unchanged
        folds += 1
        prev = 1.0  # h[j-1] after this variable's update, from h[0]
        for j in range(1, max_m + 1):
            prev = h[j] + xk * prev
            h[j] = prev
    return h, folds


def complete_h(m: int, x: Sequence[float]) -> float:
    """Complete homogeneous sum h_m(x); h_0 = 1, h_m(()) = 0 for m >= 1."""
    if m < 0:
        raise DomainError("complete_h is indexed from m = 0")
    return complete_h_table(x, m)[m]


def newton_h_from_p(p: Sequence[float]) -> list[float]:
    """Recover [h_0..h_M] from power sums [p_1..p_M] via Newton's identities.

    m * h_m = sum_{i=1..m} p_i * h_{m-i}.
    """
    M = len(p)
    h = [0.0] * (M + 1)
    h[0] = 1.0
    for m in range(1, M + 1):
        acc = 0.0
        for i in range(1, m + 1):
            acc += p[i - 1] * h[m - i]
        h[m] = acc / m
    return h


def _jacobi_trudi_det(parts: tuple[int, ...], h: Sequence[float]) -> float:
    """det(h_{m_i - i + j})_{1<=i,j<=l} with h_k = 0 for k < 0.

    ``parts`` are the positive parts of a partition, so the only index that
    can be negative in the closed forms for l <= 3 is c - 2 of the last row
    when c = 1; it reads an explicit 0.0.  The closed forms multiply the same
    entries in the same order as a cofactor expansion along the first row.
    Beyond three rows, LU with partial pivoting (numpy).
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
    import numpy as np

    rows = [[h[k] if k >= 0 else 0.0 for k in range(p - i, p - i + l)] for i, p in enumerate(parts)]
    return float(np.linalg.det(np.array(rows, dtype=float)))


def schur(m: Partition | Sequence[int], x: Sequence[float]) -> float:
    """Schur polynomial s_m(x) via the Jacobi-Trudi determinant.

    Returns 0.0 exactly when m has more nonzero parts than x has nonzero
    entries (stability under zero variables).
    """
    part = m if isinstance(m, Partition) else Partition(m)
    vals = _as_sorted_vars(x)
    nonzero = sum(1 for v in vals if v != 0.0)
    if part.length > nonzero:
        return 0.0
    if part.length == 0:
        return 1.0
    max_index = part.parts[0] + part.length - 1
    h = complete_h_table(vals, max_index)
    return _jacobi_trudi_det(part.parts, h)


def _partition_tuples(max_weight: int, max_length: int) -> Iterator[tuple[int, ...]]:
    """Parts of every partition of weight <= max_weight with at most
    max_length parts, starting with ().

    Order contract: weight ascending, lexicographically descending within a
    weight.  The series sums its terms in this order with compensated
    summation, so its bits (and the weight at which a pass may stop) depend
    on it.  Each step is the lexicographic predecessor: pop trailing parts
    until one can be decremented with the popped weight still fitting below
    the new part in the free slots, then refill greedily.
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
    within each weight, e.g. (2), (1, 1).  The order is a contract: the
    Schur series route sums in it, and its compensated sum's bits depend on
    the order of the terms.
    """
    if max_weight < 0 or max_length < 0:
        raise DomainError("max_weight and max_length must be nonnegative")
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
    list contribute 0 and are skipped.
    """
    xs = _as_sorted_vars(x)
    ys = _as_sorted_vars(y)
    max_len = min(len(xs), len(ys))
    top = max_weight + max_len
    hx = complete_h_table(xs, top)
    hy = complete_h_table(ys, top)
    acc = 0.0
    for parts in _partition_tuples(max_weight, max_len):
        acc += _jacobi_trudi_det(parts, hx) * _jacobi_trudi_det(parts, hy)
    return acc
