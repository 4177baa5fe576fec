"""Kernel scalars: J0, I0 and F(z) = sum_k z^k/(k!)^2 = J0 or I0 at 2 sqrt|z|.

Both kernels are K(x) = (1/pi) int_0^pi f(x cos t) dt with f = cos (J0) or
cosh (I0) (DLMF 10.9.1, 10.32.1), evaluated by one sum: the 2N-point
trapezoidal rule on [0, 2 pi), folded by t -> 2 pi - t and t -> pi - t (f is
even), with c_k = cos(pi k / N):

    K_N(x) = (f(x) + 2 sum_{k=1}^{floor((N-1)/2)} f(x c_k) + [N even]) / N.

One loop, _kernel_matrix, sums it at every product a_i b_j of a determinant
in one pass; the scalars are its 1 x 1 case, with the same bits and order.

Alias (Trefethen & Weideman, SIAM Rev. 56 (2014) 385): by Jacobi-Anger
f(x cos t) = K(x) + 2 sum_{m>=1} s_m K_{2m}(x) cos(2mt), s_m = (-1)^m for J0
and 1 for I0, and the rule averages cos(2mt) to 1 where N divides m and to 0
elsewhere, so K_N = K + 2 sum_{j>=1} s_{Nj} K_{2Nj}.  With b = (x/2)^{2N}/(2N)!,
|J_nu(x)| <= (x/2)^nu/nu! (DLMF 10.14.4), I_nu(x) <= (x/2)^nu/nu! I0(x) (term
by term in DLMF 10.25.2) and (2Nj)! >= ((2N)!)^j, the alias is at most
2b/(1 - b), absolute for J0 and relative to I0 <= K_N for I0.  N is the least
order with b <= 2^-61; the bound claims 2^-59, which also covers the
rounding of that test.

Rounding, u = 2^-53, assuming math.cos and math.sin within 1 ulp and
math.cosh within 2 (k ulp of v is at most 2ku|v|):
* nodes: c_k is cos(pi k/N) where k/N <= 1/4, else sin(pi (N - 2k)/(2N)),
  an angle of at most pi/4 within 2.4u relative after three roundings, which
  moves c_k by at most 2.4u (pi/4) sin(pi/4) < 1.4u; the function adds 2u and
  the product fl(x c_k) u x, so every argument is within 4.4u x of x c_k.
  |cos'| <= 1 and |cosh'| <= cosh: a node value moves by at most 4.4u x,
  absolutely for J0, relative to itself (times 1 + 1e-12) for I0;
* node values: 2u absolute for J0 (|cos| <= 1), 4u relative for I0;
* the sum: math.fsum of the interior values, the two additions and the
  division are four roundings, each at most u sum_k w_k |f_k| / N, which is
  at most 1 for J0 and at most the value (positive terms) for I0.
An argument r roundings from the exact one moves the kernel by r u x more
(|J0'| = |J1| <= 1, I0' = I1 <= I0).  So the estimate is

    2^-59 + ((5 + r) x + 10) u,

absolute for J0 and times the value for I0; the spare 0.6u x and 2u cover
the second-order terms.  Arguments are limited to x <= 700, where I0 is
about 1.5e302: beyond, I0 raises RangeError and J0, which shares I0's cap
(its rules are built per order on demand and would serve larger x),
ConvergenceError.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError, RangeError

_UNIT = 2.0**-53
# largest kernel argument: I0 stays in double range, and J0 shares the cap
_ARG_MAX = 700.0
# the order test, b <= 2^-61, and the alias it certifies
_LOG_ALIAS = -61.0 * math.log(2.0)
_ALIAS = 2.0**-59
# order N -> (the largest x it serves, its nodes cos(pi k / N) for
# k = 1 .. floor((N - 1)/2)): the only state
_RULES: dict[int, tuple[float, tuple[float, ...]]] = {}


def _rule(n: int) -> tuple[float, tuple[float, ...]]:
    """The order-n entry of _RULES, built on first use.  b <= 2^-61 is
    x <= x_n = 2 exp((lgamma(2n + 1) - 61 log 2) / (2n)); the computed x_n
    is within about 1e-14 of it, which moves b by a factor below 1 + 1e-11."""
    rule = _RULES.get(n)
    if rule is None:
        x_max = 2.0 * math.exp((math.lgamma(2 * n + 1) + _LOG_ALIAS) / (2 * n))
        nodes = tuple(
            math.cos(math.pi * k / n) if 4 * k <= n else math.sin(math.pi * (n - 2 * k) / (2 * n))
            for k in range(1, (n + 1) // 2)
        )
        rule = _RULES[n] = (x_max, nodes)
    return rule


def _kernel_matrix(a, b, oscillatory: bool, roundings: int) -> tuple[list, list, int]:
    """(values, estimates, order): J0 (``oscillatory``) or I0 at every
    x = fl(a_i b_j) >= 0 in one pass, as rows, each estimate counting
    ``roundings`` roundings of the argument, and the largest order; the first
    product in row-major order beyond 700 or not finite raises.  An order N
    is the least whose x_N (see _rule) is at least x: the walk starts from
    the fit 39.5 / log1p(58 / x) - 1, which rises with x at the slope e/4 of
    the least order, never above it (tests check both ends of every order's
    range) and, on a dense grid over (0, 700], at most one below it."""
    f = math.cos if oscillatory else math.cosh
    fsum, log1p, rules = math.fsum, math.log1p, _RULES.get
    k = 5 + roundings
    values, estimates, top = [], [], 0
    for ai in a:
        row, row_est = [], []
        for bj in b:
            x = ai * bj
            if not x <= _ARG_MAX:
                if not math.isfinite(x):
                    raise DomainError("kernel argument must be finite")
                if oscillatory:
                    raise ConvergenceError(f"J0 beyond the kernels' shared cap: |x| > {_ARG_MAX:g}")
                raise RangeError(f"I0 overflow guard: |x| > {_ARG_MAX:g}")
            n = max(1, int(39.5 / log1p(58.0 / x) - 1.0)) if x else 1
            x_max, nodes = rules(n) or _rule(n)
            while x > x_max:
                n += 1
                x_max, nodes = rules(n) or _rule(n)
            # a plain loop costs less here than map or a comprehension
            interior = []
            for c in nodes:
                interior.append(f(x * c))
            value = (f(x) + 2.0 * fsum(interior) + (n + 1) % 2) / n
            est = _ALIAS + (k * x + 10.0) * _UNIT
            row.append(value)
            row_est.append(est if oscillatory else est * value)
            if n > top:
                top = n
        values.append(row)
        estimates.append(row_est)
    return values, estimates, top


def _kernel(x: float, oscillatory: bool, roundings: int = 0) -> tuple[float, float, int]:
    """(value, error estimate, order N) of J0(x) (``oscillatory``) or I0(x)
    at x >= 0, ``roundings`` roundings from the exact argument: the 1 x 1
    _kernel_matrix, whose one product x * 1.0 is x."""
    values, estimates, n = _kernel_matrix((x,), (1.0,), oscillatory, roundings)
    return values[0][0], estimates[0][0], n


def hyper_f(z: float) -> float:
    """F(z) = sum_k z^k/(k!)^2; the value of hyper_f_with_error."""
    return hyper_f_with_error(z)[0]


def hyper_f_with_error(z: float) -> tuple[float, float, int]:
    """(value, error estimate, order N) for F(z): the kernel at x = 2 sqrt|z|,
    J0 for z < 0 and I0 otherwise, its estimate counting the square root's
    rounding.  Non-finite z raises DomainError, z > 122500 (x > 700)
    RangeError and z < -122500 ConvergenceError."""
    z = float(z)
    return _kernel(2.0 * math.sqrt(abs(z)), z < 0.0, 1)


def bessel_j0(x: float) -> float:
    """J0(x), even in x bit for bit; the value of bessel_j0_with_error."""
    return bessel_j0_with_error(x)[0]


def bessel_i0(x: float) -> float:
    """I0(x), even in x bit for bit; |x| > 700 raises RangeError."""
    return _kernel(abs(float(x)), False)[0]


def bessel_j0_with_error(x: float) -> tuple[float, float, int]:
    """(value, absolute error estimate, order N) for J0; |x| > 700 raises
    ConvergenceError."""
    return _kernel(abs(float(x)), True)
