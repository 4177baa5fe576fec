"""Symmetric-function kernel: power sums, complete homogeneous, Schur."""

import math
import random
from itertools import groupby

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherica import (
    DomainError,
    Partition,
    RangeError,
    cauchy_lhs,
    cauchy_rhs,
    complete_h,
    complete_h_table,
    enumerate_partitions,
    newton_h_from_p,
    power_p,
    schur,
)
from spherica.spherical import _scaled_squares
from spherica.symfunc import _jacobi_trudi_det, _partition_tuples, _runs


def test_partition_trims_trailing_zeros():
    assert Partition((3, 1, 0)).parts == (3, 1)
    assert Partition(()).parts == ()
    assert Partition((2, 2, 1)).weight == 5
    assert Partition((2, 2, 1)).length == 3
    assert list(Partition((3, 1, 0))) == [3, 1]
    assert len(Partition((2, 2, 1))) == 3


def test_partition_rejects_bad_shapes():
    with pytest.raises(DomainError):
        Partition((1, 2))
    with pytest.raises(DomainError):
        Partition((-1,))


def test_power_sum_examples():
    assert power_p(2, (1.0, 2.0)) == 5.0
    assert power_p(1, (0.3, 0.3, 0.4)) == pytest.approx(1.0, abs=1e-15)
    assert power_p(3, (2.0,)) == 8.0


def test_power_sum_rejects_index_zero():
    with pytest.raises(DomainError):
        power_p(0, (1.0,))


def test_power_sum_beyond_double_range_is_a_range_error():
    # 10.0**400: float pow raised a bare OverflowError
    with pytest.raises(RangeError):
        power_p(400, (10.0,))


def test_schur_beyond_double_range_is_a_range_error():
    # h_300 h_200 - h_301 h_199 is inf - inf at (10, 9): it returned nan
    with pytest.raises(RangeError):
        schur((300, 200), (10.0, 9.0))


def test_complete_h_examples():
    assert complete_h(0, (7.0, 9.0)) == 1.0
    assert complete_h(2, (1.0, 1.0)) == 3.0
    assert complete_h(4, (1.5,)) == pytest.approx(5.0625, rel=1e-15)


def test_complete_h_table_prefix_consistent():
    x = (0.9, 0.4, 0.2)
    table = complete_h_table(x, 6)
    assert table[0] == 1.0
    for m in range(7):
        assert table[m] == complete_h(m, x)


@st.composite
def _with_zeros_inserted(draw):
    """A variable list and the same list with zeros (of either sign) inserted."""
    base = draw(st.lists(st.floats(-2.0, 2.0), min_size=0, max_size=4))
    padded = list(base)
    for _ in range(draw(st.integers(1, 4))):
        padded.insert(draw(st.integers(0, len(padded))), draw(st.sampled_from([0.0, -0.0])))
    return base, padded


def _bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    _with_zeros_inserted(),
    st.integers(0, 12),
    st.lists(st.integers(1, 4), min_size=0, max_size=3).map(lambda p: sorted(p, reverse=True)),
)
def test_zero_variables_leave_tables_and_schur_bitwise_unchanged(pair, max_m, parts):
    base, padded = pair
    assert _bits(complete_h_table(padded, max_m)) == _bits(complete_h_table(base, max_m))
    assert _bits([schur(parts, padded)]) == _bits([schur(parts, base)])


@st.composite
def _multiset_with_repeats(draw):
    """Nonnegative variables from a pool of at most three values (zero among
    the candidates), each repeated up to 40 times, in shuffled order.  No
    value is so small that its powers underflow, where no relative bound holds."""
    pool = draw(st.lists(st.floats(1e-3, 3.0) | st.just(0.0), min_size=1, max_size=3))
    x = [v for v in pool for _ in range(draw(st.integers(1, 40)))]
    return draw(st.permutations(x))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_multiset_with_repeats(), st.integers(0, 30))
def test_complete_h_table_on_repeated_entries_matches_mpmath(x, max_m):
    # the longest run enters in closed form: every entry stays within
    # 4 (len(x) + m) eps relative of the exact sum over the float inputs
    table = complete_h_table(x, max_m)
    with mp.workdps(60):
        exact = [mp.mpf(1)] + [mp.mpf(0)] * max_m
        for v in x:
            for m in range(1, max_m + 1):
                exact[m] += mp.mpf(v) * exact[m - 1]
        for m, (got, want) in enumerate(zip(table, exact)):
            assert abs(got - want) <= 4 * (len(x) + m) * 2.0**-52 * want


def test_newton_recursion_exponential_case():
    h = newton_h_from_p([2.0, 0.0, 0.0])
    assert h[0] == 1.0
    assert h[3] == pytest.approx(8.0 / 6.0, rel=1e-15)


def test_newton_recursion_geometric_case():
    a = 0.5
    h = newton_h_from_p([a, a**2, a**3, a**4])
    assert h[4] == pytest.approx(0.0625, rel=1e-15)


def test_newton_recursion_empty_input():
    assert newton_h_from_p([]) == [1.0]


def test_newton_reproduces_complete_h_on_random_points():
    rng = random.Random(42)
    for _ in range(20):
        x = [rng.uniform(0.0, 2.0) for _ in range(rng.randint(1, 5))]
        p = [power_p(m, x) for m in range(1, 7)]
        h = newton_h_from_p(p)
        for m in range(7):
            assert h[m] == pytest.approx(complete_h(m, x), rel=1e-10, abs=1e-12)


def test_schur_single_row_equals_complete_h():
    assert schur((3,), (1.0, 2.0)) == 15.0
    for m in range(6):
        x = (1.1, 0.3, 0.8)
        assert schur((m,), x) == complete_h(m, x)


def test_schur_column_example():
    assert schur((1, 1), (2.0, 3.0)) == pytest.approx(6.0, rel=1e-14)


def test_schur_vanishes_beyond_variable_count():
    assert schur((1, 1, 1), (1.0, 1.0)) == 0.0
    assert schur((2, 1), (0.3, 0.0)) == 0.0


def test_schur_empty_partition_is_one():
    assert schur((), (0.5, 0.7)) == 1.0


def test_schur_symmetric_under_permutation():
    a = schur((2, 1), (0.4, 1.3, 0.9))
    b = schur((2, 1), (1.3, 0.9, 0.4))
    assert a == b


def test_schur_nonnegative_on_nonnegative_points():
    rng = random.Random(7)
    parts = [(2,), (1, 1), (2, 1), (3, 2, 1)]
    for _ in range(25):
        x = [rng.uniform(0.0, 3.0) for _ in range(3)]
        for p in parts:
            assert schur(p, x) >= -1e-12


def test_partition_enumeration_small_cases():
    got = [p.parts for p in enumerate_partitions(2, 2)]
    assert got == [(), (1,), (2,), (1, 1)]
    assert [p.parts for p in enumerate_partitions(0, 5)] == [()]


def test_partition_enumeration_counts():
    assert sum(1 for _ in enumerate_partitions(5, 6)) == 19
    assert sum(1 for _ in enumerate_partitions(6, 6)) == 30


def _all_partitions(max_weight):
    """Every partition of weight <= max_weight, in no particular order."""
    found, frontier = [()], [()]
    while frontier:
        grown = []
        for parts in frontier:
            cap = parts[-1] if parts else max_weight
            for part in range(1, min(cap, max_weight - sum(parts)) + 1):
                grown.append(parts + (part,))
        found += grown
        frontier = grown
    return found


def test_partition_order_matches_sorted_reference():
    # cauchy_lhs sums in this order, and the series in its weight order:
    # weight ascending, lexicographically descending within a weight
    reference = sorted(_all_partitions(24), key=lambda p: (sum(p), [-v for v in p]))
    for max_weight in range(25):
        for max_length in range(7):
            expected = [p for p in reference if sum(p) <= max_weight and len(p) <= max_length]
            assert list(_partition_tuples(max_weight, max_length)) == expected


@pytest.mark.parametrize(
    "parts",
    [(1,), (4,), (1, 1), (3, 1), (2, 2), (5, 3)]
    + [(1, 1, 1), (3, 2, 1), (2, 2, 2), (4, 3, 2), (6, 1, 1)]
    + [(1, 1, 1, 1), (3, 2, 2, 1), (4, 4, 1, 1), (2, 2, 2, 2, 2), (5, 3, 2, 1, 1)],
)
def test_jacobi_trudi_closed_forms_match_numpy_det(parts):
    # b = 1 reads h_0 and c = 1 reads h_{-1} = 0 in the last row; four and
    # five rows take the full-pivot elimination
    rng = np.random.default_rng(sum(parts) + 10 * len(parts))
    l = len(parts)
    for _ in range(20):
        h = np.concatenate(([1.0], rng.uniform(-2.0, 2.0, parts[0] + l)))
        mat = np.array(
            [
                [h[p - i + j] if p - i + j >= 0 else 0.0 for j in range(l)]
                for i, p in enumerate(parts)
            ]
        )
        expected = np.linalg.det(mat)
        # rounding of a cofactor expansion is relative to the Hadamard bound
        scale = np.prod(np.linalg.norm(mat, axis=1))
        got = _jacobi_trudi_det(parts, h.tolist())
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-14 * scale)


def test_partition_enumeration_unique_and_bounded():
    seen = set()
    for p in enumerate_partitions(6, 3):
        assert p.weight <= 6
        assert p.length <= 3
        assert p.parts not in seen
        seen.add(p.parts)


def test_cauchy_product_single_factor():
    assert cauchy_rhs((0.5,), (0.5,)) == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_cauchy_sum_matches_product():
    lhs = cauchy_lhs((0.3, 0.2), (0.4,), 20)
    rhs = cauchy_rhs((0.3, 0.2), (0.4,))
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_cauchy_empty_arguments():
    assert cauchy_lhs((), (0.4,), 10) == 1.0
    assert cauchy_rhs((), (0.4,)) == 1.0


@pytest.mark.parametrize(
    "x, y, max_weight, want",
    [
        ((0.3, 0.1), (0.2, 0.4), 40, 1.2849675653627022),
        # the same products, so the same bits once balanced by a power of two
        ((0.3 * 2.0**600, 0.1 * 2.0**600), (0.2 * 2.0**-600, 0.4 * 2.0**-600), 40,
         1.2849675653627022),
        # each x_i y_j is 1 or 0, though s_2(x) alone is 1e400
        ((1e200, 0.0), (1e-200, 0.0), 2, 3.0),
        # a side of zeros leaves the empty partition only
        ((1e200,), (0.0,), 2, 1.0),
        ((0.0, 0.0), (1e300, 2.0), 5, 1.0),
    ],
)
def test_cauchy_sum_depends_only_on_the_products(x, y, max_weight, want):
    assert cauchy_lhs(x, y, max_weight) == want


def test_cauchy_sum_rejects_a_negative_weight():
    # a negative max_weight once summed no partition and returned 0.0
    with pytest.raises(DomainError, match="max_weight must be >= 0, got -1"):
        cauchy_lhs((0.3,), (0.2,), -1)


def test_cauchy_product_rejects_unit_products():
    with pytest.raises(DomainError):
        cauchy_rhs((2.0,), (0.5,))


def test_cauchy_agreement_on_random_small_points():
    rng = random.Random(11)
    for _ in range(10):
        x = [rng.uniform(0.0, 0.45) for _ in range(2)]
        y = [rng.uniform(0.0, 0.45) for _ in range(2)]
        q = max(x) * max(y)
        tail = q ** 21 / (1.0 - q) if q > 0 else 0.0
        assert abs(cauchy_lhs(x, y, 20) - cauchy_rhs(x, y)) <= tail + 1e-12


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([-1.5, -0.5, 0.0, 0.25, 1.0, 3.0]), max_size=30))
def test_runs_are_the_groups_of_nonzero_entries(x):
    # the h tables and the one-row series see their variables as runs;
    # zeros between the signs are skipped, and the series maps each run's
    # value to its scaled square
    vals = sorted(x, reverse=True)
    runs = [(v, len(list(group))) for v, group in groupby(vals) if v != 0.0]
    assert _runs(vals) == runs
    if vals and vals[-1] >= 0.0:
        assert _scaled_squares(_runs(vals), 3.0) == [((v / 3.0) * (v / 3.0), m) for v, m in runs]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 4.0]), max_size=30))
def test_runs_expand_back_to_the_nonzero_entries_in_decreasing_order(x):
    vals = sorted(x, reverse=True)
    runs = _runs(vals)
    assert [v for v, m in runs for _ in range(m)] == [v for v in vals if v]
    assert all(m >= 1 for _, m in runs)
    assert all(a > b for (a, _), (b, _) in zip(runs, runs[1:]))


@pytest.mark.parametrize(
    "call, error, name",
    [
        (lambda: complete_h(2, (1e200,)), RangeError, "complete_h: h_2"),
        (lambda: complete_h_table((1e200,), 3), RangeError, "complete_h_table: h_2"),
        (lambda: newton_h_from_p([1e200, 1e300]), RangeError, "newton_h_from_p: h_2"),
        (lambda: cauchy_lhs((1e200,), (1e200,), 2), RangeError, "cauchy_lhs"),
        (lambda: power_p(400, (10.0,)), RangeError, "power sum p_400"),
        (lambda: schur((300, 200), (10.0, 9.0)), RangeError, "Schur polynomial"),
        (lambda: newton_h_from_p([1.0, math.nan]), DomainError, "newton_h_from_p"),
        (lambda: newton_h_from_p([math.inf]), DomainError, "newton_h_from_p"),
        (lambda: newton_h_from_p([1.0, -math.inf]), DomainError, "newton_h_from_p"),
    ],
    ids=["complete_h", "complete_h_table", "newton_h_from_p", "cauchy_lhs", "power_p", "schur",
         "newton_h_from_p-nan", "newton_h_from_p-inf", "newton_h_from_p-minus-inf"],
)
def test_values_past_double_range_raise_naming_the_entry(call, error, name):
    # complete_h, complete_h_table, newton_h_from_p and cauchy_lhs returned
    # inf; power_p and schur keep their messages
    with pytest.raises(error, match=name):
        call()
