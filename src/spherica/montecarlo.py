"""Monte Carlo oracles over the two-sided unitary action.

Reproducibility contract
------------------------
* Core generator: Philox-4x64 (counter-based), keyed by the 128-bit pair
  (master_seed, stream_id).  Streams with distinct ids are independent.
* Gaussians are produced by inverse-transform sampling: 53-bit uniforms
  u = (k + 1/2) * 2^-53 with k the top 53 bits of a raw Philox word (so
  uniform on [0, 2^53)), kept below 1 at k = 2^53 - 1, mapped through the
  inverse normal CDF (scipy.special.ndtri).  No ziggurat, no rejection, so
  the stream consumption per sample is fixed and platform independent.
  The uniforms are Generator.random() plus 2^-54: random() is k * 2^-53
  for the same k, and fl(k * 2^-53 + 2^-54) = fl(k + 1/2) * 2^-53 exactly.
* Estimators consume samples in fixed-size blocks of 8192; block b draws all
  of its variates from stream (master_seed, b) in a documented order.  The
  one path from (n_samples, master_seed) to the McEstimate is _estimate.
  Per quantity, each block keeps its sum and its sum of squares about its
  own mean.  The mean is the exact sum (math.fsum, index order) of the block
  sums over n_samples; the variance adds the centred sums to the spread
  sum_b take_b (mean_b - mean)^2 (Chan-Golub-LeVeque merge), so a spread
  small against the mean is not lost to cancellation.  The estimate depends
  only on (master_seed, n_samples), not on any parallel execution plan.

Haar isometries: the first m columns of an n x n Haar unitary are the Q of
an n x m complex Ginibre slab whose R has a positive real diagonal (without
that phase condition Q is not Haar distributed).  Blocks orthonormalise the
slab by classical Gram-Schmidt run twice per column, vectorised over the
sample axis in a batch-last (m, n, count) layout: two passes are orthonormal
to working precision, and the R they imply has a positive diagonal, so the
phase is fixed without a separate step.  mc_spherical and mc_orbital_exp are
one pairing estimator (_pairing_estimate) of z = Re tr(diag(b) U diag(a) V*),
which draws the U slab, then the V slab; the first r rows of a Haar unitary
have the law of the transpose of an n x r Haar isometry, so both are
n x min(rank) slabs.  A single matrix (haar_unitary) has no batch to vectorise
over and takes LAPACK QR plus the phase fix instead.

A slab's draw is fused with its layout: the uniforms of its real parts, in
draw order (count, n, m), fill one flat scratch plane, and ndtri writes them
straight into the real plane of the batch-last slab; then the same for the
imaginary parts.  That plane, and every Gram-Schmidt temporary (written
through out=), live in a _Scratch that an estimator creates per call and
reuses across its blocks and slabs, so a slab allocates only the array it
returns, and nothing returned is a view of the scratch.  Each complex product
keeps the operand order of its defining formula: numpy may evaluate
Re(a b) as fma(a_r, b_r, -a_i b_i) where the CPU has FMA, so a * b and b * a
can differ in the last bit.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._record import record
from .errors import RangeError, _integer
from .polya import OmegaParam
from .spherical import _point_pair

_BLOCK = 8192
_MASK64 = (1 << 64) - 1
_HALF_ULP = 2.0**-54
_BELOW_ONE = 1.0 - 2.0**-53


def ndtri(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse normal CDF, written into out if given; scipy.special is
    loaded on the first call."""
    from scipy.special import ndtri as _ndtri

    return _ndtri(u, out=out)


class RngStream:
    """One reproducible substream: (master_seed, stream_id) -> Philox-4x64."""

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = _integer(master_seed, "seed")
        self.stream_id = _integer(stream_id, "stream_id")
        key = np.array(
            [self.master_seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniforms(self, shape, out: np.ndarray | None = None) -> np.ndarray:
        """Open-interval (0,1) uniforms with exactly 53 random bits each,
        written into out (C-contiguous float64 of that shape) if given.

        Generator.random() is k 2^-53 with k the top 53 bits of one raw
        Philox word, bit for bit integers(0, 2^53): Lemire's method for a
        range of 2^53 takes the high word of x 2^53 and never rejects.  Adding
        2^-54 gives (k + 1/2) 2^-53 correctly rounded, which is 1.0 at
        k = 2^53 - 1, so the result is clamped to 1 - 2^-53.
        """
        u = self._gen.random(shape, out=out)
        u += _HALF_ULP
        np.minimum(u, _BELOW_ONE, out=u)
        return u

    def normals(self, shape) -> np.ndarray:
        """Standard normals by the inverse CDF applied to uniforms()."""
        return ndtri(self.uniforms(shape))


@record
class McEstimate:
    """Sample mean with its standard error.

    imag_mean / imag_std_error carry the orthogonal-component diagnostic for
    oscillatory integrands (it should be 0 within noise) and are None when
    the integrand is real by construction.
    """

    mean: float
    std_error: float
    n_samples: int
    master_seed: int
    imag_mean: float | None = None
    imag_std_error: float | None = None


def haar_unitary(n: int, stream: RngStream) -> np.ndarray:
    """One n x n Haar-distributed unitary (Ginibre + QR + phase fix).

    Draws the same variates as _haar_isometry_batch(stream, 1, n, n).
    """
    n = _integer(n, "n", 1)
    z = stream.normals((2, n, n))
    q, r = np.linalg.qr((z[0] + 1j * z[1]) / math.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class _Scratch:
    """Scratch memory for one estimator call: a flat complex buffer, grown
    on demand, whose leading part each sampler stage carves into its
    temporaries.  Growing drops the old buffer before allocating the new
    one, so the two are never held together."""

    def __init__(self):
        self._buf = np.empty(0, dtype=complex)

    def __call__(self, size: int) -> np.ndarray:
        if len(self._buf) < size:
            self._buf = None
            self._buf = np.empty(size, dtype=complex)
        return self._buf[:size]


def _orthonormalise(q: np.ndarray, work: np.ndarray) -> np.ndarray:
    # in place on a batch-last (m, n, count) complex slab, column k = q[k]:
    # classical Gram-Schmidt, two passes per column, so Q R = slab with R
    # upper-triangular and its diagonal (the final norms) positive.  work is
    # flat complex scratch of (n + m - 1) count entries: the product t, whose
    # memory later holds the squared parts, and the coefficients c
    m, n, count = q.shape
    if not m:  # the empty slab of a zero argument
        return q
    t = work[: n * count].reshape(n, count)
    c = work[n * count : (n + m - 1) * count].reshape(m - 1, count)
    re2, im2 = work[: n * count].view(np.float64).reshape(2, n, count)
    norm = im2[0]
    for k in range(m):
        v = q[k]
        for _ in range(2 if k else 0):
            for i in range(k):
                np.sum(np.multiply(np.conjugate(q[i], out=t), v, out=t), axis=0, out=c[i])
            for i in range(k):
                v -= np.multiply(q[i], c[i], out=t)
        np.square(v.real, out=re2)
        re2 += np.square(v.imag, out=im2)
        v /= np.sqrt(np.sum(re2, axis=0, out=norm), out=norm)
    return q


def _haar_isometry_batch(
    stream: RngStream, count: int, n: int, m: int, scratch: _Scratch | None = None
) -> np.ndarray:
    # (count, n, m): first m columns of count Haar unitaries, the Q of an
    # n x m Ginibre slab (real parts, then imaginary parts) with positive R;
    # the array returned is the slab's own, the rest lives in scratch
    q = np.empty((m, n, count), dtype=complex)
    size = count * n * m
    work = (scratch or _Scratch())(max((size + 1) // 2, (n + m - 1) * count))
    plane = work.view(np.float64)[:size].reshape(count, n, m)
    for part in (q.real, q.imag):
        ndtri(stream.uniforms(plane.shape, out=plane).T, out=part)
    return _orthonormalise(q, work).T


def _blocks(n_samples: int):
    for b, start in enumerate(range(0, n_samples, _BLOCK)):
        yield b, min(_BLOCK, n_samples - start)


def _estimate(n_samples: int, seed: int, sample: Callable[[RngStream, int], tuple]) -> McEstimate:
    """The McEstimate of n_samples draws, with n_samples (an integer >= 100)
    and seed checked before any block is drawn.  sample(RngStream(seed, b),
    take) draws block b and returns one array of take values per quantity:
    the first gives mean and std_error, a second imag_mean and imag_std_error.
    A block whose sum is not finite raises RangeError naming it.
    """
    n_samples = _integer(n_samples, "n_samples", 100)
    seed = _integer(seed, "seed")
    blocks = []
    for b, take in _blocks(n_samples):
        stats = []
        for v in sample(RngStream(seed, b), take):
            if not math.isfinite(s := float(np.sum(v))):
                raise RangeError(f"Monte Carlo block {b}: the sum of its samples is {s!r}")
            stats.append((take, s, float(np.sum((v - s / take) ** 2))))
        blocks.append(stats)
    moments = []
    for quantity in zip(*blocks):
        mean = math.fsum(s for _, s, _ in quantity) / n_samples
        m2 = math.fsum(c + take * (s / take - mean) ** 2 for take, s, c in quantity)
        moments += mean, math.sqrt(m2 / (n_samples - 1) / n_samples)
    return McEstimate(*moments[:2], n_samples, seed, *moments[2:])


def _pairing_estimate(a, b, n_samples: int, seed: int, values: Callable) -> McEstimate:
    # the McEstimate of values(z), z = sum_{j,k} b_j a_k Re U_jk conj(V_jk) per
    # sample, for canonical points a, b: their zeros come last, so only columns
    # k < rank a and rows j < rank b enter, and (U, V) -> (U^T, V^T) swaps a, b
    a, b = np.array(a.values), np.array(b.values)
    if np.count_nonzero(b) < np.count_nonzero(a):
        a, b = b, a
    n, r = len(a), np.count_nonzero(a)
    scratch = _Scratch()

    def sample(stream, take):
        u = _haar_isometry_batch(stream, take, n, r, scratch)
        v = _haar_isometry_batch(stream, take, n, r, scratch)
        np.conjugate(v, out=v)
        return values(np.einsum("bja,a,bja->bj", u, a[:r].astype(complex), v).real @ b)

    return _estimate(n_samples, seed, sample)


def mc_spherical(x, xi, n_samples: int, seed: int = 0) -> McEstimate:
    """Haar average of exp(i <xi, U x V*>): mean of cos over samples of
    z = sum_j xi_j Re (U diag(x) V*)_{jj}, with the sin component reported as
    the imaginary-part diagnostic.

    Per block and sample the draw order is: U slab, then V slab.
    """
    x, xi = _point_pair(x, xi)
    return _pairing_estimate(x, xi, n_samples, seed, lambda z: (np.cos(z), np.sin(z)))


def mc_orbital_exp(lam, theta, n_samples: int, seed: int = 0) -> McEstimate:
    """Haar average of exp(Re tr(diag(lam) U diag(theta) V*)).

    The integrand is log-normal-like with heavy skew; the variance guard
    refuses |lam| * |theta| > 10 (Euclidean norms) where the estimator is
    useless at any affordable sample count.
    """
    lam, theta = _point_pair(lam, theta)
    if float(np.linalg.norm(lam.values)) * float(np.linalg.norm(theta.values)) > 10.0:
        raise RangeError("mc_orbital_exp variance guard: |lam|*|theta| > 10")
    return _pairing_estimate(theta, lam, n_samples, seed, lambda z: (np.exp(z),))


def _phi_omega_singvals(omega: OmegaParam, s: np.ndarray) -> np.ndarray:
    # s: (batch, n) singular values; prod_j Pi(omega, s_j) per row: the
    # tests' full-SVD reference, and a name perfbench's tracer patches
    q = 0.25 * s * s
    vals = np.exp(-omega.gamma * np.sum(q, axis=1))
    for a in omega.alpha:
        vals = vals / np.prod(1.0 + a * q, axis=1)
    return vals


def _gram(v: np.ndarray, m: int) -> np.ndarray:
    # A*A (batch, 2m, 2m) for A = [E, V], E the first m columns of I_n:
    # [[I, T], [T*, I]] with T the top m x m block of the isometry slab V
    t, eye = v[:, :m], np.broadcast_to(np.eye(m), (len(v), m, m))
    return np.block([[eye, t], [np.conjugate(t).transpose(0, 2, 1), eye]])


def mc_biinvariant_avg(
    omega: OmegaParam, x, y, n: int, n_samples: int, seed: int = 0
) -> McEstimate:
    """Average of phi_omega over a doubly averaged translate:

        E_{k1,k2} [ phi_omega( X + k1 Y k2* ) ],

    where X, Y embed the m-vectors x, y as the leading diagonal block of an
    n x n matrix (n >= 2m).  Only the first m columns of each Haar unitary
    matter, so the samplers draw n x m isometries: V1 slab then V2 slab.
    The translate is M = A1 D A2*, with A_k = [E, V_k], E the first m columns
    of I_n and D = diag(x, y), so by Sylvester's determinant identity each
    sample (the same draws as for the n x n form) needs only the 2m x 2m
    P = D G1 D G2, G_k = A_k* A_k = [[I, T_k], [T_k*, I]] with T_k the top
    m x m block of V_k: |M|_F^2 = tr P and det(I + c M*M) = det(I + c P), so
    phi_omega(M) = exp(-gamma |M|_F^2/4) / prod_a det(I + (a/4) M*M) takes
    one stacked determinant per atom and no SVD.
    """
    xs, ys = _point_pair(x, y)
    m = xs.dimension
    n = _integer(n, "n", 2 * m)
    d = np.array(xs.values + ys.values)
    scratch = _Scratch()

    def sample(stream, take):
        # G1 is taken before V2 is drawn, so one slab is held at a time
        g1, g2 = (_gram(_haar_isometry_batch(stream, take, n, m, scratch), m) for _ in range(2))
        p = np.einsum("i,bij,j,bjk->bik", d, g1, d, g2)
        fro = np.trace(p, axis1=1, axis2=2).real
        # at gamma = 0, exp(-0 * inf) would be nan where fro overflows
        acc = np.exp(-0.25 * omega.gamma * fro) if omega.gamma else np.ones(take)
        for a in omega.alpha:
            acc = acc / np.linalg.det(np.eye(2 * m) + 0.25 * a * p).real
        return (acc,)

    return _estimate(n_samples, seed, sample)
