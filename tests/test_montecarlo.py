"""Reproducible Haar-unitary Monte Carlo oracles."""

import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spherica import montecarlo
from spherica import (
    DomainError,
    OmegaParam,
    RangeError,
    RngStream,
    ambient_laplacian_fd,
    bessel_j0,
    haar_unitary,
    hyper_f,
    mc_biinvariant_avg,
    mc_orbital_exp,
    mc_spherical,
    orbital_integral,
    phi_omega,
    spherical_det,
    spherical_series,
)


def test_ndtri_is_scipy_ndtri_bit_for_bit():
    from scipy.special import ndtri

    u = np.concatenate(
        [RngStream(7, 3).uniforms((10_000,)), [0.5 * 2.0**-53, 1.0 - 2.0**-53]]
    )
    got = montecarlo.ndtri(u)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), ndtri(u).view(np.uint64))


def test_stream_is_deterministic_and_keyed():
    a = RngStream(7, 3).uniforms((16,))
    b = RngStream(7, 3).uniforms((16,))
    c = RngStream(7, 4).uniforms((16,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all((a > 0.0) & (a < 1.0))


def test_uniforms_are_the_documented_map_of_philox_words():
    got = RngStream(7, 3).uniforms((3, 1000))
    key = np.array([7, 3], dtype=np.uint64)
    k = np.random.Generator(np.random.Philox(key=key)).integers(
        0, 1 << 53, size=(3, 1000), dtype=np.uint64
    )
    want = (k.astype(np.float64) + 0.5) * 2.0**-53
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
def test_uniforms_keep_the_bits_of_bounded_integers_across_calls(seed):
    # several shapes drawn in turn from one stream, so stream continuation
    # is compared too; no draw here lands on k = 2^53 - 1
    stream = RngStream(seed, 11)
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 11], dtype=np.uint64)))
    for shape in [(5,), (3, 4), (2, 7, 3), (0,), (8192, 2)]:
        k = gen.integers(0, 1 << 53, size=shape, dtype=np.uint64)
        want = (k.astype(np.float64) + 0.5) * 2.0**-53
        got = stream.uniforms(shape)
        assert got.shape == shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_uniforms_stay_below_one_at_the_largest_integer():
    # (2^53 - 1 + 1/2) 2^-53 rounds to 1.0, where ndtri is inf
    assert ((2**53 - 1) + 0.5) * 2.0**-53 == 1.0
    top = (2**53 - 1) * 2.0**-53  # random() of a raw word whose 53 top bits are all set
    stream = RngStream(0)
    stream._gen = SimpleNamespace(random=lambda shape, out=None: np.full(shape, top))
    u = stream.uniforms((3,))
    assert np.array_equal(u, np.full(3, 1.0 - 2.0**-53))
    assert np.all(np.isfinite(stream.normals((3,))))


def test_stream_normals_are_finite():
    z = RngStream(1, 0).normals((1000,))
    assert np.all(np.isfinite(z))
    assert abs(float(np.mean(z))) < 0.2


def test_haar_matrix_is_unitary():
    u = haar_unitary(8, RngStream(5, 0))
    assert np.max(np.abs(u @ u.conj().T - np.eye(8))) <= 1e-12


def test_haar_matrix_is_deterministic_per_stream():
    u = haar_unitary(4, RngStream(9, 2))
    v = haar_unitary(4, RngStream(9, 2))
    assert np.array_equal(u, v)


def test_haar_first_entry_second_moment():
    # 100 000 n x n Haar unitaries in sampler blocks; haar_unitary draws the
    # batch of one (test_haar_unitary_is_the_batch_of_one)
    n, samples = 4, 100_000
    vals = np.concatenate(
        [
            np.abs(montecarlo._haar_isometry_batch(RngStream(7, b), take, n, n)[:, 0, 0]) ** 2
            for b, take in montecarlo._blocks(samples)
        ]
    )
    mean = float(np.mean(vals))
    se = float(np.std(vals)) / math.sqrt(samples)
    assert abs(mean - 1.0 / n) <= 4.0 * se


def test_haar_trace_distribution_is_translation_invariant():
    samples = 10_000
    w = haar_unitary(3, RngStream(99, 0))
    s1, s2 = RngStream(11, 0), RngStream(12, 0)
    a = np.sort([np.trace(w @ haar_unitary(3, s1)).real for _ in range(samples)])
    b = np.sort([np.trace(haar_unitary(3, s2)).real for _ in range(samples)])
    grid = np.concatenate([a, b])
    grid.sort()
    gap = np.max(
        np.abs(
            np.searchsorted(a, grid, side="right") / samples
            - np.searchsorted(b, grid, side="right") / samples
        )
    )
    critical = math.sqrt(-math.log(0.0005) / 2.0) * math.sqrt(2.0 / samples)
    assert gap < critical


def test_spherical_estimate_at_zero_is_exact():
    est = mc_spherical((0.0, 0.0), (0.5, 1.5), 1000, seed=0)
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_spherical_estimate_one_dimension():
    est = mc_spherical((1.0,), (1.0,), 100_000, seed=0)
    assert abs(est.mean - bessel_j0(1.0)) <= 4.0 * est.std_error


def test_spherical_estimate_matches_closed_form():
    est = mc_spherical((1.0, 2.0), (0.5, 1.5), 100_000, seed=0)
    closed = spherical_det((1.0, 2.0), (0.5, 1.5)).value
    assert abs(est.mean - closed) <= 4.0 * est.std_error
    assert abs(est.imag_mean) <= 4.0 * est.imag_std_error


def test_spherical_estimate_is_reproducible():
    a = mc_spherical((1.0, 2.0), (0.5, 1.5), 50_000, seed=3)
    b = mc_spherical((1.0, 2.0), (0.5, 1.5), 50_000, seed=3)
    assert a.mean == b.mean
    assert a.std_error == b.std_error
    assert a.n_samples == 50_000
    assert a.master_seed == 3


def test_standard_error_shrinks_like_root_n():
    half = mc_spherical((1.0, 2.0), (0.5, 1.5), 100_000, seed=0)
    full = mc_spherical((1.0, 2.0), (0.5, 1.5), 200_000, seed=0)
    assert 1.30 <= half.std_error / full.std_error <= 1.53
    half = mc_spherical((1.0, 2.0), (0.5, 1.5), 50_000, seed=3)
    full = mc_spherical((1.0, 2.0), (0.5, 1.5), 100_000, seed=3)
    assert 1.30 <= half.std_error / full.std_error <= 1.53


@pytest.mark.parametrize("scale", [1e-4, 1e-3])
def test_standard_error_of_a_spread_small_against_the_mean(scale):
    # n = 1: each sample is exp(scale^2 Re(u conj v)) with unit phases u, v;
    # expm1 gives the deviations from 1 to full relative precision, so their
    # sample SD over root n is the reference the estimator must reproduce
    n_samples = 20_000
    est = mc_orbital_exp((scale,), (scale,), n_samples, seed=1)
    dev = []
    for b, take in montecarlo._blocks(n_samples):
        stream = RngStream(1, b)
        u = montecarlo._haar_isometry_batch(stream, take, 1, 1)[:, 0, 0]
        v = montecarlo._haar_isometry_batch(stream, take, 1, 1)[:, 0, 0]
        dev.append(np.expm1(scale * scale * (u * v.conj()).real))
    reference = float(np.std(np.concatenate(dev), ddof=1)) / math.sqrt(n_samples)
    assert est.std_error == pytest.approx(reference, rel=1e-8, abs=0.0)


def test_sample_count_floor():
    with pytest.raises(DomainError):
        mc_spherical((1.0,), (1.0,), 99, seed=0)


_ESTIMATORS = {
    "spherical": lambda k, seed: mc_spherical((1.0, 0.5), (0.8, 0.3), k, seed=seed),
    "orbital_exp": lambda k, seed: mc_orbital_exp((1.0, 0.5), (0.8, 0.3), k, seed=seed),
    "biinvariant": lambda k, seed: mc_biinvariant_avg(
        OmegaParam([2.0, 0.5], 0.3), (0.7,), (1.1,), 3, k, seed=seed
    ),
}


@pytest.mark.parametrize("name", sorted(_ESTIMATORS))
@pytest.mark.parametrize("n_samples, seed", [(99, 0), (1000, 0.5)])
def test_counts_are_checked_before_any_stream_is_built(name, n_samples, seed, monkeypatch):
    built = []

    class Counting(RngStream):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(montecarlo, "RngStream", Counting)
    with pytest.raises(DomainError):
        _ESTIMATORS[name](n_samples, seed)
    assert built == []
    _ESTIMATORS[name](1000, 0)
    assert built == [(0, 0)]


def test_exponential_estimate_at_zero_is_exact():
    est = mc_orbital_exp((1.5, 0.5), (0.0, 0.0), 1000, seed=0)
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_exponential_estimate_one_dimension():
    est = mc_orbital_exp((1.0,), (2.0,), 1_000_000, seed=0)
    assert abs(est.mean - hyper_f(1.0)) <= 4.0 * est.std_error


def test_exponential_estimate_matches_determinant():
    est = mc_orbital_exp((1.0, 2.0), (0.5, 1.0), 100_000, seed=0)
    closed = orbital_integral((1.0, 2.0), (0.5, 1.0)).value
    assert abs(est.mean - closed) <= 4.0 * est.std_error


def test_exponential_estimate_variance_guard():
    with pytest.raises(RangeError):
        mc_orbital_exp((4.0,), (3.0,), 1000, seed=0)


def test_a_block_whose_sum_is_not_finite_raises_rather_than_returning_nan():
    with np.errstate(all="ignore"):
        # z overflows, and cos(inf) is nan
        with pytest.raises(RangeError, match="block 0"):
            mc_spherical((1e300,), (1e10,), 100)
        # every sample is phi_omega(Y) = 0.0, but the product P overflows to nan
        assert phi_omega(OmegaParam([1.0]), (1e160,)) == 0.0
        with pytest.raises(RangeError, match="block 0"):
            mc_biinvariant_avg(OmegaParam([1.0]), (0.0,), (1e160,), 2, 100)


def test_flat_laplacian_of_squared_norm():
    x = np.diag([1.0, 0.5]).astype(complex)
    got = ambient_laplacian_fd(lambda m: float(np.sum((m * m.conj()).real)), x)
    assert got == pytest.approx(16.0, rel=1e-6)


def test_flat_laplacian_of_gaussian():
    x = np.diag([1.0, 0.5]).astype(complex)
    f = lambda m: math.exp(-float(np.sum((m * m.conj()).real)))
    closed = -11.0 * math.exp(-1.25)
    assert ambient_laplacian_fd(f, x) == pytest.approx(closed, rel=1e-4)


def test_flat_laplacian_of_constant_is_zero():
    x = np.diag([1.0, 0.5]).astype(complex)
    assert ambient_laplacian_fd(lambda m: 2.5, x) == 0.0


def test_biinvariant_average_fixed_point():
    om = OmegaParam([4.0], 0.0)
    est = mc_biinvariant_avg(om, [1.0], [0.0], 8, 500, seed=0)
    assert est.mean == phi_omega(om, [1.0])
    assert est.std_error == 0.0


def test_biinvariant_average_at_zero():
    om = OmegaParam([4.0], 0.0)
    est = mc_biinvariant_avg(om, [0.0], [0.0], 8, 500, seed=0)
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_biinvariant_average_needs_room_to_embed():
    om = OmegaParam([4.0], 0.0)
    with pytest.raises(DomainError):
        mc_biinvariant_avg(om, [1.0, 2.0], [0.5, 1.0], 3, 500, seed=0)


# m-vectors in canonical (descending, nonnegative) order, so the estimator
# embeds them exactly as given
_X, _Y = (1.3, 0.4), (2.2, 0.9)
_SIZES = [(1, 2), (1, 3), (1, 40), (2, 4), (2, 5), (2, 40)]


def _translate(v1, v2, x, y):
    # X + V1 Y V2* assembled as the full n x n matrix, by the definition
    m = len(x)
    a = np.einsum("bim,m,bjm->bij", v1, np.asarray(y, dtype=complex), v2.conj())
    a[:, range(m), range(m)] += x
    return a


@pytest.mark.parametrize("m, n", _SIZES)
def test_top_block_grams_give_the_full_translate_determinant_and_norm(m, n):
    # Sylvester: M = A1 D A2* with A_k = [E, V_k], so det(I + c M*M) and
    # |M|_F^2 of the n x n translate come from the 2m x 2m P = D G1 D G2
    x, y = np.array(_X[:m]), np.array(_Y[:m], dtype=complex)
    stream = RngStream(11, 0)
    v1 = montecarlo._haar_isometry_batch(stream, 300, n, m)
    v2 = montecarlo._haar_isometry_batch(stream, 300, n, m)
    full = _translate(v1, v2, x, y)
    d = np.concatenate([x, y.real])
    p = np.einsum("i,bij,j,bjk->bik", d, montecarlo._gram(v1[:, :m]), d, montecarlo._gram(v2[:, :m]))
    fro = np.sum(np.abs(full) ** 2, axis=(1, 2))
    assert np.all(np.abs(np.trace(p, axis1=1, axis2=2) - fro) <= 1e-12 * fro)
    gram = np.conj(np.swapaxes(full, 1, 2)) @ full
    for c in (0.5, 0.125):
        want = np.linalg.det(np.eye(n) + c * gram).real
        got = np.linalg.det(np.eye(2 * m) + c * p)
        assert np.all(np.abs(got - want) <= 1e-12 * want)


@pytest.mark.parametrize("m, n, n_samples", [(m, n, 1000) for m, n in _SIZES] + [(2, 5, 9000)])
def test_biinvariant_average_matches_a_full_svd_estimator(m, n, n_samples):
    # the reference multiplies out the estimator's packed 2m x m stacks and
    # pads them with zero rows to n x m isometries with the same top blocks,
    # hence the same Grams with E and translates with the same singular values
    om = OmegaParam([2.0, 0.5], 0.3)
    x, y = _X[:m], _Y[:m]

    def sample(stream, take):
        pad = ((0, 0), (0, n - 2 * m), (0, 0))
        v1 = np.pad(_subgroup_reference(stream, take, n, m, m), pad)
        v2 = np.pad(_subgroup_reference(stream, take, n, m, m), pad)
        s = np.linalg.svd(_translate(v1, v2, x, y), compute_uv=False)
        return (montecarlo._phi_omega_singvals(om, s),)

    ref = montecarlo._estimate(n_samples, 5, sample)
    est = mc_biinvariant_avg(om, x, y, n, n_samples, seed=5)
    assert est.mean == pytest.approx(ref.mean, rel=1e-12, abs=0.0)
    assert est.std_error == pytest.approx(ref.std_error, rel=1e-12, abs=0.0)


@st.composite
def _slabs(draw):
    n = draw(st.integers(1, 6))
    return draw(st.sampled_from([1, 7])), n, draw(st.integers(1, n)), draw(st.integers(0, 999))


def _gram_defect(q):
    m = q.shape[-1]
    return np.linalg.norm(np.conj(np.swapaxes(q, -1, -2)) @ q - np.eye(m), axis=(-2, -1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_slabs())
def test_isometry_batch_is_orthonormal(slab):
    count, n, m, seed = slab
    q = montecarlo._haar_isometry_batch(RngStream(seed, 0), count, n, m)
    assert q.shape == (count, n, m)
    assert np.all(_gram_defect(q) <= 1e-14)


def _subgroup_reference(stream, count, n, m, rows):
    # the documented draws of _haar_isometry_batch(stream, count, n, m,
    # rows=rows) laid out as the whole stack (n rows, or rows + m where
    # rows < n, the last m the Bartlett factor's), multiplied out sample by
    # sample as explicit reflections of stack rows k..rows+k
    depth = rows + m if rows < n else n
    z = np.zeros((count, depth, m), dtype=complex)
    for k in range(m):
        top = min(rows + k, n)
        re = stream.normals((count, top - k))
        z[:, k:top, k] = re + 1j * stream.normals((count, top - k))
        if top < depth:
            gamma = -np.sum(np.log(stream.uniforms((count, n - top))), axis=1)
            z[:, top, k] = np.sqrt(2.0 * gamma)
    out = np.empty_like(z)
    for b in range(count):
        u = np.eye(depth, dtype=complex)
        for k in range(m):
            end = min(k + rows + 1, depth)
            w = z[b, k:end, k] / np.linalg.norm(z[b, k:end, k])
            ph = w[0] / abs(w[0])
            v = w + ph * np.eye(end - k)[0]
            h = np.eye(depth, dtype=complex)
            h[k:end, k:end] = -ph * (np.eye(end - k) - np.outer(v, v.conj()) / (1.0 + abs(w[0])))
            u = u @ h
        out[b] = u[:, :m]
    return out


@st.composite
def _stacks(draw):
    # a slab and the rows read from it: all n, or a packed top of m..n - m
    count, n, m, seed = draw(_slabs())
    return count, n, m, draw(st.sampled_from([n, *range(m, n - m + 1)])), seed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_stacks())
@example((1, 1, 1, 1, 0))  # count = 1, and a pure phase column
@example((7, 5, 5, 5, 3))  # m = n: the last column is a pure phase
@example((7, 6, 2, 6, 4))  # m < n
@example((7, 6, 2, 2, 4))  # packed: 2 top rows over the Bartlett factor of 4
@example((7, 6, 3, 3, 5))  # packed at n = 2m
def test_isometry_batch_is_the_product_of_its_reflections(stack):
    count, n, m, rows, seed = stack
    q = montecarlo._haar_isometry_batch(RngStream(seed, 0), count, n, m, rows=rows)
    ref = _subgroup_reference(RngStream(seed, 0), count, n, m, rows)
    assert q.shape == (count, rows, m)
    assert np.all(_gram_defect(ref) <= 1e-14)
    assert np.max(np.abs(q - ref[:, :rows])) <= 1e-13


@pytest.mark.parametrize("m, n", _SIZES + [(3, 6), (3, 7)])
def test_top_block_is_the_top_of_the_product_of_its_reflections(m, n):
    t = montecarlo._haar_isometry_batch(RngStream(11, 0), 300, n, m, rows=m)
    v = _subgroup_reference(RngStream(11, 0), 300, n, m, m)
    assert t.shape == (300, m, m)
    assert np.all(_gram_defect(v) <= 1e-14)
    assert np.max(np.abs(t - v[:, :m])) <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_isometry_batch_has_the_weingarten_moments(n):
    # E|U_11|^2 = 1/n, E|U_11|^4 = E|U_nn|^4 = 2/(n(n+1)), E|U_11 U_22|^2 =
    # 1/(n^2-1) and E U_11 U_22 conj(U_12 U_21) = -1/(n(n^2-1)), each real
    # and imaginary part within 5 standard errors over 32 fixed blocks
    u = np.concatenate(
        [montecarlo._haar_isometry_batch(RngStream(17, b), 8192, n, n) for b in range(32)]
    )
    a, d = np.abs(u[:, 0, 0]) ** 2, np.abs(u[:, 1, 1]) ** 2
    cross = u[:, 0, 0] * u[:, 1, 1] * np.conj(u[:, 0, 1] * u[:, 1, 0])
    for v, want in [
        (a, 1 / n), (a * a, 2 / (n * (n + 1))), (np.abs(u[:, -1, -1]) ** 4, 2 / (n * (n + 1))),
        (a * d, 1 / (n * n - 1)), (cross.real, -1 / (n * (n * n - 1))), (cross.imag, 0.0),
    ]:
        se = float(np.std(v)) / math.sqrt(len(v))
        assert abs(float(np.mean(v)) - want) <= 5.0 * se


@pytest.mark.parametrize("count, n, m", [(5, 4, 4), (3, 6, 2), (2, 5, 1), (1, 3, 3)])
def test_column_k_draws_n_minus_k_complex_normals(count, n, m, monkeypatch):
    shapes = []
    uniforms = RngStream.uniforms

    def recording(self, shape, out=None):
        shapes.append(tuple(shape))
        return uniforms(self, shape, out)

    monkeypatch.setattr(RngStream, "uniforms", recording)
    montecarlo._haar_isometry_batch(RngStream(0), count, n, m)
    assert shapes == [(count, n - k) for k in range(m) for _ in "re"]
    assert sum(math.prod(shape) for shape in shapes) == count * m * (2 * n - m + 1)


@pytest.mark.parametrize(
    "n, m", [(2, 1), (40, 1), (4, 2), (5, 2), (6, 3), (6, 2), (8, 1), (7, 3)])
def test_top_block_has_the_weingarten_moments(n, m):
    # the top rows of an n x m Haar isometry, packed at rows = m and at
    # rows = n - m, have the moments of the n x n Haar unitary's:
    # E|T_11|^2 = 1/n, E|T_11|^4 = E|T_rm|^4 = 2/(n(n+1)), and at m >= 2
    # E|T_11 T_22|^2 = 1/(n^2-1) and E T_11 T_22 conj(T_12 T_21) =
    # -1/(n(n^2-1)), each real and imaginary part within 5 standard errors
    # over 32 fixed blocks
    for rows in sorted({m, n - m}):
        t = np.concatenate([
            montecarlo._haar_isometry_batch(RngStream(17, b), 8192, n, m, rows=rows)
            for b in range(32)
        ])
        a = np.abs(t[:, 0, 0]) ** 2
        moments = [(a, 1 / n), (a * a, 2 / (n * (n + 1))),
                   (np.abs(t[:, -1, -1]) ** 4, 2 / (n * (n + 1)))]
        if m >= 2:
            cross = t[:, 0, 0] * t[:, 1, 1] * np.conj(t[:, 0, 1] * t[:, 1, 0])
            moments += [
                (a * np.abs(t[:, 1, 1]) ** 2, 1 / (n * n - 1)),
                (cross.real, -1 / (n * (n * n - 1))), (cross.imag, 0.0),
            ]
        for v, want in moments:
            se = float(np.std(v)) / math.sqrt(len(v))
            assert abs(float(np.mean(v)) - want) <= 5.0 * se, (rows, want)


@pytest.mark.parametrize("count, n, m", [(5, 2, 1), (3, 40, 1), (2, 5, 2), (1, 6, 3), (4, 9, 3)])
def test_top_block_draws_its_normals_then_one_gamma_plane_per_column(count, n, m, monkeypatch):
    # per column k of a packed stack: rows real parts, rows imaginary parts,
    # then n - rows - k uniforms for the Gamma variate, at every rows the
    # packing allows
    shapes = []
    uniforms = RngStream.uniforms

    def recording(self, shape, out=None):
        shapes.append(tuple(shape))
        return uniforms(self, shape, out)

    monkeypatch.setattr(RngStream, "uniforms", recording)
    for rows in range(m, n - m + 1):
        shapes.clear()
        montecarlo._haar_isometry_batch(RngStream(0), count, n, m, rows=rows)
        assert shapes == [
            shape for k in range(m) for shape in [(count, rows)] * 2 + [(count, n - rows - k)]]
        assert sum(math.prod(shape) for shape in shapes[2::3]) == count * (
            m * (n - rows) - m * (m - 1) // 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(0, 999), st.integers(0, 9))
def test_haar_unitary_is_the_batch_of_one(n, seed, block):
    u = haar_unitary(n, RngStream(seed, block))
    q = montecarlo._haar_isometry_batch(RngStream(seed, block), 1, n, n)[0]
    assert np.max(np.abs(u - q)) <= 1e-13


# full-rank estimates at seed 0 and 20000 samples (two full blocks and a
# partial one), as drawn by the subgroup sampler; each is within 4 standard
# errors of the closed form
_FULL_RANK = {
    2: ((1.0, 2.0), (0.5, 1.5), (0.42391749254286887, 0.00389664739699042),
        (2.033564191301158, 0.019605308822632485)),
    3: ((1.2, 0.8, 0.3), (0.9, 0.6, 0.2), (0.9292800791403253, 0.000637437456338733),
        (1.080619029418039, 0.002980295528151334)),
    4: ((1.1, 0.9, 0.5, 0.2), (1.0, 0.7, 0.4, 0.1),
        (0.9415387485248068, 0.0005398633691829102),
        (1.0638938268321187, 0.0026587949988836697)),
}


@pytest.mark.parametrize("n", sorted(_FULL_RANK))
def test_full_rank_estimates_keep_their_values(n):
    x, xi, sph, orb = _FULL_RANK[n]
    est = mc_spherical(x, xi, 20_000, seed=0)
    assert (est.mean, est.std_error) == pytest.approx(sph, rel=1e-12, abs=0.0)
    assert abs(est.mean - spherical_det(x, xi).value) <= 4.0 * est.std_error
    est = mc_orbital_exp(x, xi, 20_000, seed=0)
    assert (est.mean, est.std_error) == pytest.approx(orb, rel=1e-12, abs=0.0)
    assert abs(est.mean - orbital_integral(x, xi).value) <= 4.0 * est.std_error


_OM = OmegaParam([2.0, 0.5], 0.3)

# every field of each estimate, bit for bit (a float's repr round-trips):
# seed 3 at 1000 samples (one partial block), seed 11 at 9000 samples (a full
# block and a partial one), and seed 2 at the benchmark's shapes: n = 4 at
# 16384 samples (two full blocks) and n = 40, m = 1 at 2000 samples
_PINNED = [
    (mc_spherical, ((1.0, 0.5), (0.8, 0.3), 1000, 3),
     "McEstimate(mean=0.9441266649737313, std_error=0.0020591062461208618, n_samples=1000, "
     "master_seed=3, imag_mean=-0.005081508830452947, imag_std_error=0.010220949464078755)"),
    (mc_spherical, ((1.2, 0.7, 0.2), (0.9, 0.4, 0.1), 9000, 11),
     "McEstimate(mean=0.94890503727785, std_error=0.0006870345630993431, n_samples=9000, "
     "master_seed=11, imag_mean=0.00027912101686777786, imag_std_error=0.003254775457042717)"),
    (mc_orbital_exp, ((1.0, 0.5), (0.8, 0.3), 1000, 3),
     "McEstimate(mean=1.0565934154210928, std_error=0.011423112216483433, n_samples=1000, "
     "master_seed=3, imag_mean=None, imag_std_error=None)"),
    (mc_orbital_exp, ((0.6, 0.4, 0.2), (0.5, 0.3, 0.1), 9000, 11),
     "McEstimate(mean=1.0057327922561714, std_error=0.0010902053579745783, n_samples=9000, "
     "master_seed=11, imag_mean=None, imag_std_error=None)"),
    (mc_biinvariant_avg, (_OM, (0.7,), (1.1,), 3, 1000, 3),
     "McEstimate(mean=0.3850290558942464, std_error=0.002146136476638053, n_samples=1000, "
     "master_seed=3, imag_mean=None, imag_std_error=None)"),
    (mc_biinvariant_avg, (_OM, (0.7, 0.4), (1.1, 0.5), 5, 9000, 11),
     "McEstimate(mean=0.29221825171988464, std_error=0.0004138341276512081, n_samples=9000, "
     "master_seed=11, imag_mean=None, imag_std_error=None)"),
    (mc_spherical, ((1.1, 0.9, 0.5, 0.2), (1.0, 0.7, 0.4, 0.1), 16384, 2),
     "McEstimate(mean=0.9416050571849404, std_error=0.000604636990654025, n_samples=16384, "
     "master_seed=2, imag_mean=0.0008936166964481197, imag_std_error=0.002560263398902274)"),
    (mc_orbital_exp, ((1.1, 0.9, 0.5, 0.2), (1.0, 0.7, 0.4, 0.1), 16384, 2),
     "McEstimate(mean=1.0624377919038597, std_error=0.0029495545667690367, n_samples=16384, "
     "master_seed=2, imag_mean=None, imag_std_error=None)"),
    (mc_biinvariant_avg, (_OM, (1.2,), (0.9,), 40, 2000, 2),
     "McEstimate(mean=0.27075841547036805, std_error=9.423265874068288e-05, n_samples=2000, "
     "master_seed=2, imag_mean=None, imag_std_error=None)"),
]


@pytest.mark.parametrize("fn, args, want", _PINNED)
def test_estimates_keep_their_bits(fn, args, want):
    assert repr(fn(*args[:-1], seed=args[-1])) == want


# sha256 of the bytes of _haar_isometry_batch(RngStream(5, 2), count, n, m)
_BATCH_SHA256 = {
    (1, 1, 1): "3fe7ef2f23da956d7f0c42a8a4a6f906dd0a9e9a2c6ac7e1594de04074b9e644",
    (7, 6, 3): "74f209d0ebd245d4cbdf802acd59602fb70c6edd50d21ed807a9bb604e7db845",
    (8192, 4, 4): "b6c9448f61aab5b2bd1f93511c4351bf0a31faecb476f56ddf3171e99b051377",
    (2000, 40, 1): "c458203a0a257f6d25f3969ed49006e8dbc3700bc8209fb5c1ef1d20f02c77be",
}


@pytest.mark.parametrize("count, n, m", sorted(_BATCH_SHA256))
def test_isometry_batch_keeps_its_bits(count, n, m):
    q = montecarlo._haar_isometry_batch(RngStream(5, 2), count, n, m)
    assert q.shape == (count, n, m)
    assert hashlib.sha256(q.tobytes()).hexdigest() == _BATCH_SHA256[count, n, m]


def test_successive_isometry_batches_share_no_memory():
    stream = RngStream(5, 2)
    u = montecarlo._haar_isometry_batch(stream, 300, 4, 4)
    v = montecarlo._haar_isometry_batch(stream, 300, 4, 4)
    assert not np.shares_memory(u, v)


# traced peak of one warm call, in MiB, as measured at the sampler that
# allocated its temporaries per slab: the sampler may not need more
_PEAK_MIB = [
    (lambda: mc_spherical(*_FULL_RANK[4][:2], 20_000, seed=0), 7.32),
    (lambda: mc_orbital_exp(*_FULL_RANK[3][:2], 16_384, seed=0), 4.32),
    (lambda: mc_biinvariant_avg(_OM, (0.7,), (1.1,), 40, 2000, seed=0), 4.92),
]


@pytest.mark.parametrize("call, limit", _PEAK_MIB)
def test_estimator_memory_peak_stays_at_most_the_per_slab_samplers(call, limit):
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit * 2**20


def test_haar_unitary_keeps_its_bits():
    got = haar_unitary(3, RngStream(1, 0)).ravel().tolist()
    assert repr(got) == (
        "[(-0.16168291476737293-0.5863912716526976j), (-0.3739063950951099+0.5523755021503759j), "
        "(-0.009960983353803866-0.4300930163855062j), (0.3241769705248975+0.40347403704297924j), "
        "(0.33105214100613406+0.20779382847906766j), (0.2993070440236136-0.6998281870521175j), "
        "(-0.31774952176578775-0.5110353669101699j), (0.46545407467797434-0.43087587711316205j), "
        "(0.46078165369160634-0.152501953080817j)]"
    )


def _record_batches(monkeypatch):
    # the (n, m, rows) of every _haar_isometry_batch call, in call order
    calls = []
    batch = montecarlo._haar_isometry_batch

    def recording(stream, count, n, m, scratch=None, rows=None):
        calls.append((n, m, rows))
        return batch(stream, count, n, m, scratch, rows)

    monkeypatch.setattr(montecarlo, "_haar_isometry_batch", recording)
    return calls


_FULL_8 = (2.0, 1.7, 1.5, 1.2, 1.0, 0.7, 0.5, 0.2)
_RANK1_8 = (1.0,) + (0.0,) * 7


@pytest.mark.parametrize("x, xi", [(_FULL_8, _RANK1_8), (_RANK1_8, _FULL_8)])
def test_rank_one_argument_draws_one_column_and_matches_the_series(x, xi, monkeypatch):
    # x full rank: the pairing swaps the roles of x and xi; x rank one: it
    # does not.  Either way each slab is 8 x 1, read in full.
    shapes = _record_batches(monkeypatch)
    est = mc_spherical(x, xi, 20_000, seed=0)
    assert set(shapes) == {(8, 1, 8)}
    series = spherical_series(x, xi).value
    assert abs(est.mean - series) <= 4.0 * est.std_error
    assert abs(est.imag_mean) <= 4.0 * est.imag_std_error


_RANK2_6, _RANK1_6 = (1.0, 0.5, 0.0, 0.0, 0.0, 0.0), (1.3, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_rank_deficient_pairing_draws_only_the_rows_it_reads(monkeypatch):
    # xi has rank one and x rank two: z reads rows j < 2 of 6 x 1 slabs, and
    # 6 - 2 >= 1 leaves room for the packed stack
    shapes = _record_batches(monkeypatch)
    est = mc_spherical(_RANK2_6, _RANK1_6, 20_000, seed=0)
    assert set(shapes) == {(6, 1, 2)}
    series = spherical_series(_RANK2_6, _RANK1_6).value
    assert abs(est.mean - series) <= 4.0 * est.std_error
    assert abs(est.imag_mean) <= 4.0 * est.imag_std_error


_LAM_8 = (0.9, 0.7, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05)
_THETA_8 = (1.2,) + (0.0,) * 7


@pytest.mark.parametrize("lam, theta", [(_LAM_8, _THETA_8), (_THETA_8, _LAM_8)])
def test_rank_one_orbital_argument_draws_one_column_and_matches_the_integral(
    lam, theta, monkeypatch
):
    # the orbital estimator pairs theta on the columns and lam on the rows:
    # with theta rank one it keeps them, with lam rank one it swaps them
    shapes = _record_batches(monkeypatch)
    est = mc_orbital_exp(lam, theta, 20_000, seed=0)
    assert set(shapes) == {(8, 1, 8)}
    assert abs(est.mean - orbital_integral(lam, theta).value) <= 4.0 * est.std_error


# Prints a digest of sampler and estimator output; run under two BLAS
# thread counts, the digests must agree byte for byte.
_THREADS_CHILD = """
import hashlib, json
from spherica import OmegaParam, RngStream, mc_biinvariant_avg, mc_orbital_exp, mc_spherical
from spherica.montecarlo import _haar_isometry_batch
h = hashlib.sha256()
x4, xi4 = (1.1, 0.9, 0.5, 0.2), (1.0, 0.7, 0.4, 0.1)
for n, m in ((4, 4), (25, 25), (40, 1)):
    h.update(_haar_isometry_batch(RngStream(3, 1), 300, n, m).tobytes())
for x, xi in (((1.1, 0.9, 0.5, 0.2), (1.0, 0.7, 0.4, 0.1)), ((1.2, 0.8, 0.3), (1.0, 0.0, 0.0))):
    e = mc_spherical(x, xi, 9000, seed=4)
    h.update(json.dumps([e.mean, e.std_error, e.imag_mean, e.imag_std_error]).encode())
for e in (mc_spherical(x4, xi4, 16384, seed=2), mc_orbital_exp(x4, xi4, 16384, seed=2)):
    h.update(repr(e).encode())
e = mc_biinvariant_avg(OmegaParam([2.0], 0.3), [1.0], [0.8], 40, 2000, seed=4)
h.update(json.dumps([e.mean, e.std_error]).encode())
e = mc_biinvariant_avg(OmegaParam([2.0, 0.5], 0.3), (0.7, 0.4), (1.1, 0.5), 5, 9000, seed=11)
h.update(repr(e).encode())
h.update(repr(mc_spherical((1, .5, 0, 0, 0, 0), (1.3, 0, 0, 0, 0, 0), 20000)).encode())
print(h.hexdigest())
"""


def test_sampler_bits_do_not_depend_on_the_blas_thread_count(python_subprocess):
    digests = []
    for threads in ("1", "4"):
        proc = python_subprocess(["-c", _THREADS_CHILD], threads)
        assert proc.returncode == 0, proc.stderr.decode()
        digests.append(proc.stdout)
    assert digests[0] == digests[1]
