"""Reproducible Haar-unitary Monte Carlo oracles."""

import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
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
    p = np.einsum("i,bij,j,bjk->bik", d, montecarlo._gram(v1, m), d, montecarlo._gram(v2, m))
    fro = np.sum(np.abs(full) ** 2, axis=(1, 2))
    assert np.all(np.abs(np.trace(p, axis1=1, axis2=2) - fro) <= 1e-12 * fro)
    gram = np.conj(np.swapaxes(full, 1, 2)) @ full
    for c in (0.5, 0.125):
        want = np.linalg.det(np.eye(n) + c * gram).real
        got = np.linalg.det(np.eye(2 * m) + c * p)
        assert np.all(np.abs(got - want) <= 1e-12 * want)


@pytest.mark.parametrize("m, n, n_samples", [(m, n, 1000) for m, n in _SIZES] + [(2, 5, 9000)])
def test_biinvariant_average_matches_a_full_svd_estimator(m, n, n_samples):
    om = OmegaParam([2.0, 0.5], 0.3)
    x, y = _X[:m], _Y[:m]

    def sample(stream, take):
        v1 = montecarlo._haar_isometry_batch(stream, take, n, m)
        v2 = montecarlo._haar_isometry_batch(stream, take, n, m)
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


def _ginibre(seed, count, n, m):
    # the slab _haar_isometry_batch(RngStream(seed, 0), count, n, m) orthonormalises
    z = RngStream(seed, 0).normals((2, count, n, m))
    return z[0] + 1j * z[1]


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_slabs())
def test_isometry_batch_r_factor_is_triangular_with_positive_diagonal(slab):
    count, n, m, seed = slab
    z = _ginibre(seed, count, n, m)
    q = montecarlo._haar_isometry_batch(RngStream(seed, 0), count, n, m)
    r = np.conj(np.swapaxes(q, 1, 2)) @ z
    scale = np.max(np.abs(z))
    assert np.all(np.abs(np.tril(r, -1)) <= 1e-13 * scale)
    d = np.diagonal(r, axis1=1, axis2=2)
    assert np.all(d.real > 0.0)
    assert np.all(np.abs(d.imag) <= 1e-13 * scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_slabs())
def test_isometry_batch_is_lapack_qr_with_the_phase_fix(slab):
    count, n, m, seed = slab
    q_ref, r = np.linalg.qr(_ginibre(seed, count, n, m))
    d = np.diagonal(r, axis1=1, axis2=2)
    q_ref = q_ref * (d / np.abs(d))[:, None, :]
    q = montecarlo._haar_isometry_batch(RngStream(seed, 0), count, n, m)
    assert np.max(np.abs(q - q_ref)) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_slabs().filter(lambda slab: slab[2] >= 2))
def test_orthonormaliser_keeps_nearly_equal_columns_orthonormal(slab):
    # one Gram-Schmidt pass loses orthogonality in proportion to the
    # condition number (here ~1e8); the second pass restores it
    count, n, m, seed = slab
    z = _ginibre(seed, count, n, m)
    z[:, :, 1] = z[:, :, 0] * (1.0 + 1e-8 * _ginibre(seed + 1, count, n, 1)[:, :, 0])
    work = np.empty((n + m - 1) * count, dtype=complex)
    q = montecarlo._orthonormalise(np.ascontiguousarray(z.T), work).T
    assert np.all(_gram_defect(q) <= 1e-14)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(0, 999), st.integers(0, 9))
def test_haar_unitary_is_the_batch_of_one(n, seed, block):
    u = haar_unitary(n, RngStream(seed, block))
    q = montecarlo._haar_isometry_batch(RngStream(seed, block), 1, n, n)[0]
    assert np.max(np.abs(u - q)) <= 1e-13


# full-rank estimates at seed 0 and 20000 samples (two full blocks and a
# partial one), as computed with LAPACK QR and the phase fix: the
# Gram-Schmidt sampler moves them only by rounding
_FULL_RANK = {
    2: ((1.0, 2.0), (0.5, 1.5), (0.4290369821287487, 0.003912884147050905),
        (2.060930884239772, 0.019841975172662042)),
    3: ((1.2, 0.8, 0.3), (0.9, 0.6, 0.2), (0.930013108469132, 0.0006337843982050795),
        (1.0759115941543553, 0.0029702963235025775)),
    4: ((1.1, 0.9, 0.5, 0.2), (1.0, 0.7, 0.4, 0.1),
        (0.9417132340136468, 0.0005428406653019337),
        (1.0591369975260088, 0.002641363804300792)),
}


@pytest.mark.parametrize("n", sorted(_FULL_RANK))
def test_full_rank_estimates_keep_their_values(n):
    x, xi, sph, orb = _FULL_RANK[n]
    est = mc_spherical(x, xi, 20_000, seed=0)
    assert (est.mean, est.std_error) == pytest.approx(sph, rel=1e-12, abs=0.0)
    est = mc_orbital_exp(x, xi, 20_000, seed=0)
    assert (est.mean, est.std_error) == pytest.approx(orb, rel=1e-12, abs=0.0)


_OM = OmegaParam([2.0, 0.5], 0.3)

# every field of each estimate, bit for bit (a float's repr round-trips):
# seed 3 at 1000 samples (one partial block), seed 11 at 9000 samples (a full
# block and a partial one), and seed 2 at the benchmark's shapes: n = 4 at
# 16384 samples (two full blocks) and n = 40, m = 1 at 2000 samples
_PINNED = [
    (mc_spherical, ((1.0, 0.5), (0.8, 0.3), 1000, 3),
     "McEstimate(mean=0.9431185268506932, std_error=0.0020809539470937138, n_samples=1000, "
     "master_seed=3, imag_mean=0.004045706893944098, imag_std_error=0.010309768616949965)"),
    (mc_spherical, ((1.2, 0.7, 0.2), (0.9, 0.4, 0.1), 9000, 11),
     "McEstimate(mean=0.9469124556063762, std_error=0.0007145051446442952, n_samples=9000, "
     "master_seed=11, imag_mean=0.0034916409200990467, imag_std_error=0.0033126262735866507)"),
    (mc_orbital_exp, ((1.0, 0.5), (0.8, 0.3), 1000, 3),
     "McEstimate(mean=1.0614961674579464, std_error=0.0115777170313057, n_samples=1000, "
     "master_seed=3, imag_mean=None, imag_std_error=None)"),
    (mc_orbital_exp, ((0.6, 0.4, 0.2), (0.5, 0.3, 0.1), 9000, 11),
     "McEstimate(mean=1.0066724765166644, std_error=0.00111513448219134, n_samples=9000, "
     "master_seed=11, imag_mean=None, imag_std_error=None)"),
    (mc_biinvariant_avg, (_OM, (0.7,), (1.1,), 3, 1000, 3),
     "McEstimate(mean=0.3855659192948615, std_error=0.0020759017887318656, n_samples=1000, "
     "master_seed=3, imag_mean=None, imag_std_error=None)"),
    (mc_biinvariant_avg, (_OM, (0.7, 0.4), (1.1, 0.5), 5, 9000, 11),
     "McEstimate(mean=0.2921719889875019, std_error=0.0004210646734512784, n_samples=9000, "
     "master_seed=11, imag_mean=None, imag_std_error=None)"),
    (mc_spherical, ((1.1, 0.9, 0.5, 0.2), (1.0, 0.7, 0.4, 0.1), 16384, 2),
     "McEstimate(mean=0.941662872574864, std_error=0.0005997444758807859, n_samples=16384, "
     "master_seed=2, imag_mean=-0.007017366445713606, imag_std_error=0.0025595386453304402)"),
    (mc_orbital_exp, ((1.1, 0.9, 0.5, 0.2), (1.0, 0.7, 0.4, 0.1), 16384, 2),
     "McEstimate(mean=1.0535124410350727, std_error=0.0029180277805183753, n_samples=16384, "
     "master_seed=2, imag_mean=None, imag_std_error=None)"),
    (mc_biinvariant_avg, (_OM, (1.2,), (0.9,), 40, 2000, 2),
     "McEstimate(mean=0.27095706436407174, std_error=9.543956036949e-05, n_samples=2000, "
     "master_seed=2, imag_mean=None, imag_std_error=None)"),
]


@pytest.mark.parametrize("fn, args, want", _PINNED)
def test_estimates_keep_their_bits(fn, args, want):
    assert repr(fn(*args[:-1], seed=args[-1])) == want


# sha256 of the bytes of _haar_isometry_batch(RngStream(5, 2), count, n, m)
_BATCH_SHA256 = {
    (1, 1, 1): "3fe7ef2f23da956d7f0c42a8a4a6f906dd0a9e9a2c6ac7e1594de04074b9e644",
    (7, 6, 3): "60a853f5c62d86c3a343184c7e19a9a6d52a1a6a5a0f73e623f182c541b415a9",
    (8192, 4, 4): "94fc49d9143c180d3f3aa599278a0dc1aae62c886477b84991685c6d50c3f637",
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
        "[(-0.21705562060055492-0.4045463317130162j), (0.5382545824471952-0.6592913318914392j), "
        "(0.04385898696646505+0.2508434900349882j), (-0.7872168903341009+0.2675033334013653j), "
        "(0.247704835942472+0.2110621052053685j), (-0.42377276920539686-0.15245745724249174j), "
        "(0.2782444272918633-0.1433202565450497j), (-0.22013446260248934-0.34821382014376157j), "
        "(-0.8041787856006993-0.2926154086343877j)]"
    )


_FULL_8 = (2.0, 1.7, 1.5, 1.2, 1.0, 0.7, 0.5, 0.2)
_RANK1_8 = (1.0,) + (0.0,) * 7


@pytest.mark.parametrize("x, xi", [(_FULL_8, _RANK1_8), (_RANK1_8, _FULL_8)])
def test_rank_one_argument_draws_one_column_and_matches_the_series(x, xi, monkeypatch):
    # x full rank: the pairing swaps the roles of x and xi; x rank one: it
    # does not.  Either way each slab is 8 x 1.
    shapes = []
    batch = montecarlo._haar_isometry_batch

    def recording(stream, count, n, m, scratch=None):
        shapes.append((n, m))
        return batch(stream, count, n, m, scratch)

    monkeypatch.setattr(montecarlo, "_haar_isometry_batch", recording)
    est = mc_spherical(x, xi, 20_000, seed=0)
    assert set(shapes) == {(8, 1)}
    series = spherical_series(x, xi).value
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
    shapes = []
    batch = montecarlo._haar_isometry_batch

    def recording(stream, count, n, m, scratch=None):
        shapes.append((n, m))
        return batch(stream, count, n, m, scratch)

    monkeypatch.setattr(montecarlo, "_haar_isometry_batch", recording)
    est = mc_orbital_exp(lam, theta, 20_000, seed=0)
    assert set(shapes) == {(8, 1)}
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
print(h.hexdigest())
"""


def test_sampler_bits_do_not_depend_on_the_blas_thread_count(python_subprocess):
    digests = []
    for threads in ("1", "4"):
        proc = python_subprocess(["-c", _THREADS_CHILD], threads)
        assert proc.returncode == 0, proc.stderr.decode()
        digests.append(proc.stdout)
    assert digests[0] == digests[1]
