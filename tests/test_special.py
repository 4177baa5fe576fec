"""Kernel scalars: F, J0 and I0 from one trapezoidal sum."""

import json
import math

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spherica import (
    ConvergenceError,
    DomainError,
    RangeError,
    SphericaError,
    bessel_i0,
    bessel_j0,
    bessel_j0_with_error,
    hyper_f,
    hyper_f_with_error,
)
from spherica import series

F_AT_ONE = 2.2795853023360673
J0_AT_ONE = 0.7651976865579666
I0_AT_ONE = 1.2660658777520084
J0_FIRST_ZERO = 2.404825557695773


def test_f_at_zero_is_one():
    assert hyper_f(0.0) == 1.0


def test_f_at_one_frozen():
    assert hyper_f(1.0) == pytest.approx(F_AT_ONE, abs=1e-12)


def test_f_matches_j0_on_the_negative_axis():
    for x in (0.5, 1.0, 3.0):
        assert hyper_f(-x * x / 4.0) == bessel_j0(x)


def test_j0_at_zero_is_one():
    assert bessel_j0(0.0) == 1.0


def test_j0_at_one_frozen():
    assert bessel_j0(1.0) == pytest.approx(J0_AT_ONE, abs=1e-12)


def test_j0_is_even_bitwise():
    for x in (2.3, 0.7, 9.5):
        assert bessel_j0(-x) == bessel_j0(x)


def test_j0_bounded_by_one():
    for k in range(81):
        x = -10.0 + 0.25 * k
        assert abs(bessel_j0(x)) <= 1.0 + 1e-12


def test_j0_first_zero():
    assert abs(bessel_j0(J0_FIRST_ZERO)) <= 1e-12


def test_i0_at_zero_is_one():
    assert bessel_i0(0.0) == 1.0


def test_i0_at_one_frozen():
    assert bessel_i0(1.0) == pytest.approx(I0_AT_ONE, abs=1e-12)


def test_i0_at_two_equals_f_at_one_bitwise():
    assert bessel_i0(2.0) == hyper_f(1.0)


def test_i0_is_even_and_at_least_one():
    for x in (0.0, 0.4, 1.7, 5.0, 20.0):
        assert bessel_i0(-x) == bessel_i0(x)
        assert bessel_i0(x) >= 1.0


def test_i0_matches_f_of_quarter_square():
    for x in (0.3, 1.0, 6.0):
        assert bessel_i0(x) == hyper_f(x * x / 4.0)


def test_error_estimate_covers_reference_difference():
    with mp.workdps(40):
        for k in range(41):
            x = -10.0 + 0.5 * k
            value, est, _ = bessel_j0_with_error(x)
            assert abs(mp.mpf(value) - mp.besselj(0, mp.mpf(x))) <= est


def test_j0_error_estimate_bounds_the_true_error():
    with mp.workdps(40):
        for k in range(2401):
            x = 0.025 * k
            value, est, _ = bessel_j0_with_error(x)
            assert abs(mp.mpf(value) - mp.besselj(0, mp.mpf(x))) <= est


def test_with_error_value_matches_plain_call():
    for z in (-3.0, -0.25, 0.0, 1.0, 7.5):
        value, est, terms = hyper_f_with_error(z)
        assert value == hyper_f(z)
        assert est >= 0.0
        assert terms >= 1


def test_nonfinite_input_rejected():
    with pytest.raises(DomainError):
        hyper_f(float("nan"))
    with pytest.raises(DomainError):
        bessel_j0(float("inf"))


def test_overflow_guard_raises_range_error():
    with pytest.raises(RangeError):
        bessel_i0(701.0)
    with pytest.raises(RangeError):
        hyper_f(1.0e6)


def test_f_at_minus_1e5_is_certified():
    # J0 at x = 2 sqrt(1e5) = 632.46, near the 700 guard
    value, est, _ = hyper_f_with_error(-1e5)
    with mp.workdps(40):
        assert abs(mp.mpf(value) - mp.hyp0f1(1, -100000)) <= est <= 1e-12


def test_the_700_guard_decides_both_kernels():
    assert math.isfinite(bessel_i0(700.0))
    with pytest.raises(RangeError):
        bessel_i0(math.nextafter(700.0, math.inf))
    assert abs(bessel_j0(700.0)) <= 1.0
    with pytest.raises(ConvergenceError):
        bessel_j0(math.nextafter(700.0, math.inf))
    # F(z) = J0 or I0 at 2 sqrt|z|, so the guard sits at |z| = 122500
    assert math.isfinite(hyper_f(122500.0)) and abs(hyper_f(-122500.0)) <= 1.0
    with pytest.raises(RangeError):
        hyper_f(122501.0)
    with pytest.raises(ConvergenceError):
        hyper_f(-122501.0)


def _audit(x):
    """Each kernel at x against mpmath at 40 digits: the value is within its
    estimate, J0 absolutely and I0 relative to the value; so is F at +-x^2/4,
    whose estimate also counts the square root's rounding."""
    with mp.workdps(40):
        for oscillatory, exact in ((True, mp.besselj), (False, mp.besseli)):
            value, est, _ = series._kernel(x, oscillatory)
            assert abs(mp.mpf(value) - exact(0, mp.mpf(x))) <= est, (x, oscillatory)
        for z in (-(x * x) / 4.0, (x * x) / 4.0):
            value, est, _ = hyper_f_with_error(z)
            assert abs(mp.mpf(value) - mp.hyp0f1(1, mp.mpf(z))) <= est, z


def test_kernels_are_within_their_estimate_on_a_grid_to_700():
    for k in range(701):
        _audit(float(k))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.floats(0.0, 700.0, allow_nan=False))
# J0(40); both sides of the old Taylor caps of J0 (204 | 205) and I0
# (262 | 263); the kernel argument 270 of orbital_integral((1,), (270,));
# the x of F(-1e5); the guard
@example(40.0)
@example(204.0)
@example(205.0)
@example(262.0)
@example(263.0)
@example(270.0)
@example(632.4555320336759)
@example(700.0)
def test_kernels_are_within_their_estimate_anywhere_to_700(x):
    _audit(x)


def test_kernel_order_is_the_least_the_alias_test_allows():
    # x_N, the largest x that order N serves, rises with N, and order 495
    # ends the table at 700; the walk's start rises with x, so an order
    # returned at both ends of every range (x_{N-1}, x_N] is returned
    # throughout it
    log_alias = -61.0 * math.log(2.0)
    prev = 0.0
    for n in range(1, 496):
        x_n = series._rule(n)[0]
        assert x_n > prev
        q = 2.0 * math.log(0.5 * x_n)
        assert n * q - math.lgamma(2 * n + 1) == pytest.approx(log_alias, abs=1e-9)
        assert series._kernel(min(x_n, 700.0), True)[2] == n
        assert series._kernel(math.nextafter(prev, math.inf), True)[2] == n
        prev = x_n
    assert series._rule(494)[0] < 700.0 <= prev


def _entrywise_kernel(x, oscillatory, roundings):
    """The reference: the scalar kernel written for one entry, with its
    guard, order walk and node sum spelled out."""
    if not x <= 700.0:
        if not math.isfinite(x):
            raise DomainError("kernel argument must be finite")
        if oscillatory:
            raise ConvergenceError("J0 beyond the kernels' shared cap: |x| > 700")
        raise RangeError("I0 overflow guard: |x| > 700")
    n = max(1, int(39.5 / math.log1p(58.0 / x) - 1.0)) if x else 1
    while x > series._rule(n)[0]:
        n += 1
    f, nodes = (math.cos if oscillatory else math.cosh), series._rule(n)[1]
    value = (f(x) + 2.0 * math.fsum(map(f, map(x.__mul__, nodes))) + (n + 1) % 2) / n
    est = 2.0**-59 + ((5 + roundings) * x + 10.0) * 2.0**-53
    return value, est if oscillatory else est * value, n


def _per_entry(kernel, a, b, oscillatory, roundings):
    """What ``kernel`` gives entry by entry in row-major order: the bits of
    each value and estimate, and the largest order, or the class and
    message of the first refusal."""
    try:
        cells = [[kernel(ai * bj, oscillatory, roundings) for bj in b] for ai in a]
    except SphericaError as exc:
        return type(exc), str(exc)
    values = [[c[0].hex() for c in row] for row in cells]
    estimates = [[c[1].hex() for c in row] for row in cells]
    return values, estimates, max(c[2] for row in cells for c in row)


def _one_pass(a, b, oscillatory, roundings):
    """The same from one call of the matrix builder, checked against the
    scalar kernel and the reference entry by entry."""
    try:
        values, estimates, order = series._kernel_matrix(a, b, oscillatory, roundings)
        got = *([[v.hex() for v in row] for row in m] for m in (values, estimates)), order
    except SphericaError as exc:
        got = type(exc), str(exc)
    assert got == _per_entry(series._kernel, a, b, oscillatory, roundings)
    assert got == _per_entry(_entrywise_kernel, a, b, oscillatory, roundings)
    return got


# the ends x_N of a few orders' ranges, halved so that a factor 2 in the
# other argument lands the product on them, and the next float above
_ENDS = [series._rule(n)[0] for n in (1, 2, 3, 7, 12, 25, 26)]
_ON_ENDS = [x / 2.0 for x in _ENDS] + [math.nextafter(x, math.inf) / 2.0 for x in _ENDS]
_ENTRIES = st.one_of(st.floats(0.0, 13.0), st.sampled_from([0.0, 0.5, 1.0, 2.0, *_ON_ENDS]))


@st.composite
def _matrix_args(draw, entries=_ENTRIES):
    n = draw(st.integers(1, 8))
    pair = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(2)]
    # repeated entries: one side is sometimes the other, reversed
    if draw(st.booleans()):
        pair[1] = pair[0][::-1]
    return pair


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_matrix_args(), st.booleans(), st.integers(0, 1))
@example([[0.0, 0.0], [1.0, 0.0]], True, 1)
@example([[2.0, 2.0, 2.0], [_ENDS[5] / 2.0, 1.0, _ENDS[5] / 2.0]], False, 0)
def test_kernel_matrix_is_the_scalar_kernel_bit_for_bit(args, oscillatory, roundings):
    assert len(_one_pass(*args, oscillatory, roundings)) == 3


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 494), st.booleans(), st.lists(st.floats(0.0, 1.0), max_size=7),
       st.booleans(), st.integers(0, 1))
def test_kernel_matrix_meets_the_end_of_every_order(n, above, rest, oscillatory, roundings):
    # a_0 b_0 is x_N, the end of order N's range, or the next float, where
    # order N + 1 begins; every other product is at most a_0 b_0
    x_n = series._rule(n)[0]
    end = math.nextafter(x_n, math.inf) if above else x_n
    a = [end, *(r * end for r in rest)]
    b = [1.0, *rest]
    assert _one_pass(a, b, oscillatory, roundings)[2] == n + above


_REFUSED = st.one_of(
    st.floats(0.0, 40.0), st.sampled_from([0.0, 1.0, 700.0, 701.0, 1e308, math.inf, math.nan])
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_matrix_args(_REFUSED), st.booleans(), st.integers(0, 1))
@example([[30.0], [30.0]], True, 0)
@example([[30.0], [30.0]], False, 0)
@example([[1.0, math.inf], [0.0, 1.0]], True, 1)
@example([[1.0, math.nan], [1.0, 1.0]], False, 1)
def test_kernel_matrix_refuses_as_the_scalar_kernel_does(args, oscillatory, roundings):
    # products beyond 700, infinite (1e308 squared) or nan (0 times inf):
    # the first in row-major order decides the class and the message
    _one_pass(*args, oscillatory, roundings)


# Runs in a fresh interpreter: the node slots an import fills, those one
# scalar call fills, and four threads' first calls over orders that no
# call has built yet, started together and switching often
_NODE_SLOTS_CHILD = """
import json, sys, threading
from spherica import series
filled = lambda: [n for n, nodes in enumerate(series._NODES, 1) if nodes is not None]
report = {"import": filled()}
series.bessel_j0(16.0)
report["j0_16"] = filled()
xs = json.loads(sys.argv[1])
start = threading.Barrier(4)
results = [None] * 4

def first_calls(t):
    start.wait()
    out = {}
    for x in xs[10 * t :] + xs[: 10 * t]:
        out[repr(x)] = [[v.hex(), e.hex(), n] for v, e, n in
                        (series._kernel(x, True), series._kernel(x, False))]
    results[t] = out

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=first_calls, args=(t,)) for t in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
report["threads"] = results
report["after"] = filled()
print(json.dumps(report))
"""


def test_node_slots_fill_on_first_use_and_agree_across_threads(python_subprocess):
    # orders 300..339: the end x_N of each range and a point inside it
    orders = range(300, 340)
    xs = [x for n in orders for x in (series._XMAX[n - 1], sum(series._XMAX[n - 2 : n]) / 2.0)]
    proc = python_subprocess(["-c", _NODE_SLOTS_CHILD, json.dumps(xs)], timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    report = json.loads(proc.stdout.decode())
    assert report["import"] == [] and report["j0_16"] == [25]
    assert report["after"] == [25, *orders]
    serial = {
        repr(x): [[v.hex(), e.hex(), n] for v, e, n in (series._kernel(x, True), series._kernel(x, False))]
        for x in xs
    }
    assert report["threads"] == [serial] * 4
