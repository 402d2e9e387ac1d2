import math

import numpy as np
import pytest

from transpec import (
    DomainError,
    ValidationError,
    assemble_operator,
    build_wave,
    collision_rho_squared,
    detect_bubbles,
    eig_dense,
    make_model,
    max_growth_rate,
    omega,
    shift_invert_eigs,
    spectrum_at,
    sweep,
    theta1_band,
    wave_profile,
)
from transpec.operator import Bubble, SpectrumResult, _rounding_floor, _shifted_band_layout
from transpec.stokes import profile_coefficients
from transpec.symbols import MODEL_IDS


RNG = np.random.default_rng(424205)


def _sorted(ev):
    return ev[np.lexsort((ev.real, ev.imag))]


def _fft_apply(model, wave, rho, xi, n, N):
    """Apply the linearized operator to e^{inz} on a 4N collocation grid."""
    M = 4 * N
    z = 2 * np.pi * np.arange(M) / M
    freqs = np.fft.fftfreq(M, d=1.0 / M)
    p = freqs + xi
    k, g = wave.k, model.gamma
    f = np.exp(1j * n * z)
    eta = wave_profile(wave, z)
    coeff = wave.speed - 2 * model.alpha1 * eta - 3 * model.alpha2 * eta**2
    term1 = k**2 * np.fft.ifft(1j * p * np.fft.fft(coeff * f))
    term2 = -k**2 * np.fft.ifft(1j * p * model.j_eff(k * p) * np.fft.fft(f))
    inv = np.where(p == 0.0, 0.0, 1.0 / np.where(p == 0.0, 1.0, 1j * p))
    term3 = (g + rho**2) * np.fft.ifft(inv * np.fft.fft(f))
    return np.fft.fft(term1 + term2 + term3) / M, freqs


def test_unperturbed_matrix_is_diagonal_frequencies():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    wave = build_wave(m, 1.0, 0.0, check=False)
    op = assemble_operator(m, wave, rho=1.0, xi=0.0, N=8)
    assert op.matrix.shape == (16, 16)  # zero mode removed
    off = op.matrix - np.diag(np.diag(op.matrix))
    assert np.max(np.abs(off)) == 0.0
    for i, n in enumerate(op.modes):
        assert op.matrix[i, i] == 1j * omega(m, int(n), 1.0, 0.0, 1.0)
    i2 = list(op.modes).index(2)
    assert op.matrix[i2, i2] == pytest.approx(-5j, abs=1e-13)


def test_dimension_with_floquet_exponent():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    wave = build_wave(m, 1.0, 0.01, check=False)
    assert assemble_operator(m, wave, 0.3, 0.25, N=8).matrix.shape == (17, 17)
    with pytest.raises(DomainError):
        assemble_operator(m, wave, 0.3, 0.75, N=8)


def test_perturbation_bandwidth():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    wave = build_wave(m, 1.0, 0.01, check=False)
    A = assemble_operator(m, wave, 0.4, 0.0, N=10).matrix
    present = {int(d) for d in range(-20, 21)
               if d != 0 and np.any(np.abs(np.diag(A, d)) > 0)}
    assert present == {-3, -2, -1, 1, 2, 3}

    g = make_model("rmg-kp", gamma=1.0, beta=1.0)
    waveg = build_wave(g, 1.0, 0.01, check=False)
    Ag = assemble_operator(g, waveg, 0.4, 0.0, N=10).matrix
    presentg = {int(d) for d in range(-20, 21)
                if d != 0 and np.any(np.abs(np.diag(Ag, d)) > 0)}
    assert presentg == {d for d in range(-6, 7) if d != 0}


def _outer_reference(m, wave, rho, xi, N):
    """The real generator from the dense table of mode offsets n_i - n_j."""
    ns = np.arange(-N, N + 1)
    if xi == 0.0:
        ns = ns[ns != 0]
    p = ns + xi
    k = wave.k
    eta_hat = profile_coefficients(wave)
    g_hat = np.zeros(13)
    g_hat[3:10] += -2.0 * m.alpha1 * eta_hat
    g_hat += -3.0 * m.alpha2 * np.convolve(eta_hat, eta_hat)
    offsets = np.subtract.outer(ns, ns)
    R = np.where(np.abs(offsets) <= 6,
                 p[:, None] * k**2 * g_hat[np.clip(offsets, -6, 6) + 6], 0.0)
    diag = np.array([omega(m, int(n), rho, xi, k) for n in ns])
    R[np.diag_indices_from(R)] += diag + p * k**2 * (wave.speed - wave.c0)
    return ns, R


@pytest.mark.parametrize("mid", ["rmkp", "rmg-kp"])
@pytest.mark.parametrize("xi", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("N", [8, 64])
def test_generator_matches_the_offset_table(mid, xi, N):
    m = make_model(mid, gamma=1.0, beta=1.0)
    wave = build_wave(m, 1.3, 0.05, check=False)
    op = assemble_operator(m, wave, 0.9, xi, N)
    ns, R = _outer_reference(m, wave, 0.9, xi, N)
    assert op.generator.dtype == np.float64
    assert np.array_equal(op.modes, ns)
    assert np.array_equal(op.generator, R)
    assert np.array_equal(op.matrix, 1j * op.generator)


@pytest.mark.parametrize("mid,xi", [("rmkp", 0.3), ("rmg-kp", 0.3), ("rmkp", 0.0),
                                    ("rmilw-kp", 0.21)])
def test_columns_match_pseudospectral_application(mid, xi):
    m = make_model(mid, gamma=1.0, beta=1.0)
    N = 12
    wave = build_wave(m, 0.9, 0.02, check=False)
    op = assemble_operator(m, wave, 0.7, xi, N)
    scale = np.max(np.abs(op.matrix))
    for n in (-5, -1, 0, 2, 6):
        if xi == 0.0 and n == 0:
            continue
        coeffs, freqs = _fft_apply(m, wave, 0.7, xi, n, N)
        col = op.matrix[:, list(op.modes).index(n)]
        for i, mrow in enumerate(op.modes):
            idx = int(mrow) % (4 * N)
            assert abs(col[i] - coeffs[idx]) < 1e-10 * scale


def test_dense_solver_on_diagonal_case():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    wave = build_wave(m, 1.0, 0.0, check=False)
    op = assemble_operator(m, wave, 0.8, 0.1, N=16)
    res = eig_dense(op)
    expected = _sorted(np.diag(op.matrix).copy())
    assert np.max(np.abs(_sorted(res.eigenvalues) - expected)) < 1e-12 * np.max(np.abs(expected))


def test_symmetry_closures_random_parameters():
    for _ in range(20):
        mid = ["rmkp", "rmbo-kp", "rmg-kp", "rmilw-kp"][int(RNG.integers(0, 4))]
        m = make_model(mid, gamma=float(RNG.uniform(0.5, 1.5)),
                       beta=float(RNG.choice([-1.0, 1.0])))
        k = float(RNG.uniform(0.55, 0.65))
        eps = float(RNG.uniform(0.0, 0.02))
        rho = float(RNG.uniform(0.0, 1.5))
        xi = float(RNG.choice([0.0, RNG.uniform(0.05, 0.5)]))
        res = spectrum_at(m, k, eps, rho, xi, N=24)
        ev = res.eigenvalues
        scale = np.max(np.abs(ev))
        maps = [lambda z: -np.conj(z)]
        if xi == 0.0:
            maps += [np.conj, lambda z: -z]
        for mp in maps:
            worst = max(np.min(np.abs(ev - val)) for val in mp(ev))
            assert worst < 1e-8 * scale


def test_minus_xi_spectrum_is_conjugate():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    ev_pos = spectrum_at(m, 0.8, 0.01, 0.3, 0.21, N=24).eigenvalues
    ev_neg = spectrum_at(m, 0.8, 0.01, 0.3, -0.21, N=24).eigenvalues
    scale = np.max(np.abs(ev_pos))
    d = np.max(np.abs(_sorted(ev_neg) - _sorted(np.conj(ev_pos))))
    assert d < 1e-8 * scale
    d2 = np.max(np.abs(_sorted(ev_neg) - _sorted(-ev_pos)))
    assert d2 < 1e-8 * scale


@pytest.mark.parametrize("mid", ["rmkp", "rmg-kp"])
@pytest.mark.parametrize("xi", [0.0, 0.37, 0.5])
def test_dense_spectrum_is_exactly_closed_under_reflection(mid, xi):
    # the real generator has exact conjugate pairs, so lambda -> -conj(lambda)
    # maps the dense spectrum onto itself to the last bit
    m = make_model(mid, gamma=1.0, beta=1.0)
    ev = spectrum_at(m, 2.0, 0.05, 1.5, xi, N=64).eigenvalues
    assert np.array_equal(_sorted(-np.conj(ev)), _sorted(ev))


def test_truncation_refinement():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    coarse = spectrum_at(m, 0.9, 0.01, 0.3, 0.3, N=32).eigenvalues
    fine = spectrum_at(m, 0.9, 0.01, 0.3, 0.3, N=64).eigenvalues
    near = coarse[np.abs(coarse) < 10.0]
    assert near.size >= 4
    for lam in near:
        assert np.min(np.abs(fine - lam)) < 1e-8


def test_long_wavelength_agreement():
    from transpec import long_wavelength_lambda2

    m = make_model("rmkp", gamma=1.0, beta=1.0)
    k, eps = 0.8, 0.01
    for rho in (0.005, 0.01):
        lam2 = long_wavelength_lambda2(m, k, eps, rho)
        ev = spectrum_at(m, k, eps, rho, 0.0, N=64).eigenvalues
        pair = ev[np.argsort(np.abs(ev))[:2]]
        if lam2 > 0:
            pred = math.sqrt(lam2)
            got = float(np.max(pair.real))
            assert abs(got - pred) / pred <= 0.2
            assert np.max(np.abs(pair.imag)) < 1e-8
        else:
            pred = math.sqrt(-lam2)
            got = float(np.max(np.abs(pair.imag)))
            assert abs(got - pred) / pred <= 0.2
            assert np.max(np.abs(pair.real)) < 1e-7


def test_band_growth_agreement():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    k, eps, xi = 2.0, 0.01, 0.5
    band = theta1_band(m, k, eps, xi)
    inside = max_growth_rate(m, k, eps, math.sqrt(band.rho_c_sq), xi, N=64)
    assert abs(inside - band.growth_peak) / band.growth_peak <= 0.15
    for sign in (-1.0, 1.0):
        rho = math.sqrt(band.rho_c_sq + sign * 2 * band.halfwidth)
        assert max_growth_rate(m, k, eps, rho, xi, N=64) < 1e-7


def test_growth_rate_reads_rounding_as_zero():
    # five band half-widths above the k = 2 band at N = 256: the raw max Re
    # lambda is rounding on eigenvalues with |lambda| ~ 3e8, below the floor
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    k, eps, xi, N = 2.0, 0.01, 0.45, 256
    rho = math.sqrt(collision_rho_squared(m, -1, 0, xi, k) + 0.1)
    ev = spectrum_at(m, k, eps, rho, xi, N).eigenvalues
    assert np.max(ev.real) < 10 * np.finfo(float).eps * np.max(np.abs(ev))
    assert max_growth_rate(m, k, eps, rho, xi, N) == 0.0


def test_separated_pair_does_not_bifurcate():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    k = 0.55
    rho_c = math.sqrt(collision_rho_squared(m, -1, 2, 0.0, k))
    assert max_growth_rate(m, k, 0.01, rho_c, 0.0, N=64) < 1e-7


def test_zero_amplitude_spectrum_is_imaginary():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    assert max_growth_rate(m, 0.9, 0.0, 0.7, 0.3, N=64) < 1e-12


def test_negative_beta_stays_stable():
    m = make_model("rmkp", gamma=1.0, beta=-1.0)
    for rho, xi in [(0.1, 0.0), (0.5, 0.25), (1.5, 0.5)]:
        assert max_growth_rate(m, 1.0, 0.01, rho, xi, N=64) < 1e-7


def test_shift_invert_against_dense():
    params = []
    while len(params) < 10:
        mid = ["rmkp", "rmbo-kp", "rmg-kp", "rmilw-kp"][int(RNG.integers(0, 4))]
        params.append((mid, float(RNG.uniform(0.5, 1.5)),
                       float(RNG.choice([-1.0, 1.0])),
                       float(RNG.uniform(0.55, 0.75)),
                       float(RNG.uniform(0.0, 1.0)),
                       float(RNG.uniform(0.05, 0.5))))
    for mid, gamma, beta, k, rho, xi in params:
        m = make_model(mid, gamma=gamma, beta=beta)
        wave = build_wave(m, k, 0.01, check=False)
        dense = eig_dense(assemble_operator(m, wave, rho, xi, N=12))
        scale = np.max(np.abs(dense.eigenvalues))
        for _ in range(5):
            target = complex(dense.eigenvalues[int(RNG.integers(0, dense.eigenvalues.size))])
            shift = target + (0.2 + RNG.uniform(0, 0.3)) * (1 + 1j)
            si = shift_invert_eigs(m, wave, rho, xi, 12, shift=shift, count=3)
            for lam in si.eigenvalues:
                assert np.min(np.abs(dense.eigenvalues - lam)) < 1e-8 * max(1.0, scale)
            nearest_dense = dense.eigenvalues[np.argmin(np.abs(dense.eigenvalues - shift))]
            assert np.min(np.abs(si.eigenvalues - nearest_dense)) < 1e-8 * max(1.0, scale)


def test_shift_invert_far_shift():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    wave = build_wave(m, 0.7, 0.01, check=False)
    dense = eig_dense(assemble_operator(m, wave, 0.4, 0.2, N=12))
    si = shift_invert_eigs(m, wave, 0.4, 0.2, 12, shift=1e3 + 0j, count=3)
    far = dense.eigenvalues[np.argsort(np.abs(dense.eigenvalues - 1e3))[:3]]
    for lam in si.eigenvalues:
        assert np.min(np.abs(far - lam)) < 1e-6


@pytest.mark.parametrize("N", [64, 256, 1024])
def test_shift_invert_at_the_bubble_matches_dense(N):
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    wave = build_wave(m, 2.0, 0.01, check=False)
    xi = 0.4789
    rho = math.sqrt(collision_rho_squared(m, -1, 0, xi, 2.0))
    si = shift_invert_eigs(m, wave, rho, -xi, N, shift=0.37916j, count=4)
    assert np.max(si.eigenvalues.real) > 0.01
    if N <= 256:
        dense = eig_dense(assemble_operator(m, wave, rho, -xi, N)).eigenvalues
        for lam in si.eigenvalues:
            assert np.min(np.abs(dense - lam)) < 1e-10 * max(1.0, abs(lam))
    else:
        # a dense solve at N = 1024 takes seconds; truncation has converged
        # by N = 256, so the bubble pair is compared with the solve there
        ref = shift_invert_eigs(m, wave, rho, -xi, 256, shift=0.37916j, count=4)
        pair = si.eigenvalues[np.abs(si.eigenvalues - 0.37916j) < 0.1]
        ref_pair = ref.eigenvalues[np.abs(ref.eigenvalues - 0.37916j) < 0.1]
        assert pair.size == 2
        for lam in pair:
            assert np.min(np.abs(ref_pair - lam)) < 1e-10


def test_shift_invert_diagonal_case():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    wave = build_wave(m, 1.0, 0.0, check=False)
    w1 = omega(m, 1, 0.5, 0.1, 1.0)
    si = shift_invert_eigs(m, wave, 0.5, 0.1, 12, shift=1j * w1 + 1e-3, count=1)
    assert abs(si.eigenvalues[0] - 1j * w1) < 1e-10


def test_shift_invert_is_reproducible():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    wave = build_wave(m, 2.0, 0.05, check=False)
    first, second = (shift_invert_eigs(m, wave, 1.5, 0.5, 24, shift=0.38j, count=4)
                     for _ in range(2))
    assert np.array_equal(first.eigenvalues, second.eigenvalues)


@pytest.mark.parametrize("mid", MODEL_IDS)
@pytest.mark.parametrize("xi", [0.0, 0.3, 0.5])
@pytest.mark.parametrize("N", [8, 64])
def test_banded_csc_matches_the_dense_generator(mid, xi, N):
    # the band array that shift_invert_eigs factorises unpacks, entry for
    # entry, to R - s, across the zero-mode gap at xi = 0 as well
    # (half-width h = 3 for a quadratic nonlinearity, 6 with a cubic term)
    m = make_model(mid, gamma=1.0, beta=1.0, alpha=1.5 if mid == "rm-fkdv-kp" else None)
    wave = build_wave(m, 1.3, 0.05, check=False)
    op = assemble_operator(m, wave, 0.9, xi, N)
    h = 3 if m.alpha2 == 0.0 else 6
    assert op.bands.shape == (2 * h + 1, op.dim)
    for s, dtype in [(0.379, np.float64), (0.379 - 0.05j, np.complex128)]:
        ab = _shifted_band_layout(op, s)
        assert ab.shape == (3 * h + 1, op.dim) and ab.dtype == dtype
        unpacked = np.zeros((op.dim, op.dim), dtype=dtype)
        for j in range(op.dim):
            for row in range(3 * h + 1):
                i = j + row - 2 * h
                if 0 <= i < op.dim:
                    unpacked[i, j] = ab[row, j]
                else:
                    assert ab[row, j] == 0
        expected = op.generator - s * np.eye(op.dim)
        assert unpacked.tobytes() == expected.astype(dtype).tobytes()


def test_shift_invert_equals_eigs_on_the_dense_generator():
    # scipy's own real shift-invert on the dense R, at s = -i * shift
    import scipy.sparse
    import scipy.sparse.linalg as spla

    m = make_model("rmkp", gamma=1.0, beta=1.0)
    wave = build_wave(m, 2.0, 0.01, check=False)
    xi = 0.4789
    rho = math.sqrt(collision_rho_squared(m, -1, 0, xi, 2.0))
    si = shift_invert_eigs(m, wave, rho, -xi, 64, shift=0.37916j, count=4)
    op = assemble_operator(m, wave, rho, -xi, 64)
    ev = 1j * spla.eigs(scipy.sparse.csc_array(op.generator), k=4, sigma=0.37916,
                        which="LM", ncv=30, maxiter=200 * op.dim, tol=0,
                        v0=np.ones(op.dim), return_eigenvectors=False)
    assert si.eigenvalues.size == 4
    for lam in si.eigenvalues:
        assert np.min(np.abs(ev - lam)) < 1e-13 * max(1.0, abs(lam))


@pytest.mark.parametrize("mid", ["rmkp", "rmbo-kp", "rm-whitham-kp"])
def test_shift_invert_matches_a_solve_on_13_diagonals(mid):
    # the 7 stored diagonals of a quadratic model, padded with zero diagonals
    # to 13 and factorised with kl = ku = 6, give the same eigenvalues bit for bit
    import scipy.sparse.linalg as spla
    from scipy.linalg import get_lapack_funcs

    m = make_model(mid, gamma=1.0, beta=1.0)
    wave = build_wave(m, 2.0, 0.01, check=False)
    for N in (16, 64):
        for xi in (0.0, 0.3, -0.4789):
            for shift in (0.37916j, 0.05 + 0.37916j):
                got = shift_invert_eigs(m, wave, 1.5, xi, N, shift=shift, count=4).eigenvalues
                op = assemble_operator(m, wave, 1.5, xi, N)
                assert op.bands.shape == (7, op.dim)
                s = shift.imag if shift.real == 0 else complex(shift.imag, -shift.real)
                ab = np.zeros((19, op.dim), dtype=np.result_type(op.bands, s), order="F")
                ab[12 - np.arange(-6, 7)] = np.pad(op.bands, ((3, 3), (0, 0)))
                ab[12] -= s
                gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
                lu, piv, info = gbtrf(ab, 6, 6, overwrite_ab=True)
                assert info == 0
                solve = spla.LinearOperator((op.dim, op.dim),
                                            lambda x: gbtrs(lu, 6, 6, x, piv)[0], dtype=lu.dtype)
                mu = spla.eigs(solve, k=4, sigma=s, OPinv=solve, which="LM",
                               ncv=min(op.dim, 30), tol=0, maxiter=200 * op.dim,
                               v0=np.ones(op.dim, dtype=lu.dtype), return_eigenvectors=False)
                assert got.tobytes() == _sorted(1j * mu).tobytes()


@pytest.mark.parametrize("N", [24, 64])
def test_shift_invert_on_the_axis_is_exactly_mirror_symmetric(N):
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    for eps in (0.01, 0.05):
        wave = build_wave(m, 2.0, eps, check=False)
        ev = shift_invert_eigs(m, wave, 1.5, 0.5, N, shift=0.38j, count=4).eigenvalues
        assert np.max(ev.real) > 0.01
        assert np.array_equal(_sorted(ev), _sorted(-np.conj(ev)))
        # eigenvalues mu = -i lambda of the real generator that are real
        on_axis = ev[(-1j * ev).imag == 0]
        assert on_axis.size == 2 and np.all(on_axis.real == 0)


def test_shift_invert_count_3_on_the_axis():
    # a shift on the axis is equidistant from both members of a mirror pair;
    # here the pair at +-0.1 ties for third place behind two axis
    # eigenvalues, and three eigenvalues still come back
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    wave = build_wave(m, 2.0, 0.05, check=False)
    for N in (24, 64):
        dense = eig_dense(assemble_operator(m, wave, 1.5, 0.5, N)).eigenvalues
        for shift in (119j, 120j):
            si = shift_invert_eigs(m, wave, 1.5, 0.5, N, shift=shift, count=3)
            assert si.eigenvalues.size == 3
            for lam in si.eigenvalues:
                assert np.min(np.abs(dense - lam)) < 1e-10


@pytest.mark.parametrize("shift", [complex(math.nan, 0.0), complex(0.0, math.inf)])
def test_shift_invert_rejects_a_non_finite_shift(shift):
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    wave = build_wave(m, 2.0, 0.05, check=False)
    with pytest.raises(ValidationError, match="shift"):
        shift_invert_eigs(m, wave, 1.5, 0.5, 24, shift=shift, count=4)


def test_shift_invert_beyond_the_dense_limit():
    # dimension 4097 is past eig_dense's limit; the band pair at the
    # import-guard bubble (growth 0.02) has converged in truncation by N = 256
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    wave = build_wave(m, 2.0, 0.01, check=False)
    big, ref = (shift_invert_eigs(m, wave, 1.5, 0.5, N, shift=0.38j, count=4)
                for N in (2048, 256))
    pair, ref_pair = (np.sort_complex(ev[np.abs(ev.real) > 0.01])
                      for ev in (big.eigenvalues, ref.eigenvalues))
    assert pair.size == ref_pair.size == 2
    assert np.all(np.abs(pair - ref_pair) < 1e-10 * np.abs(ref_pair))


def test_large_operator_holds_only_its_bands():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    wave = build_wave(m, 2.0, 0.01, check=False)
    op = assemble_operator(m, wave, 1.5, 0.5, N=2100)
    assert op.bands.shape == (7, 4201)
    assert op.bands.nbytes == 7 * 4201 * 8  # 0.24 MB; the dense R would be 141 MB
    with pytest.raises(ValidationError):
        eig_dense(op)


def test_sweep_matches_single_point_and_is_ordered():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    res = sweep(m, 2.0, 0.01, [1.5], [0.5], N=32)
    assert len(res) == 1
    single = max_growth_rate(m, 2.0, 0.01, 1.5, 0.5, N=32)
    assert res[0].max_real == pytest.approx(single, rel=1e-12)

    grid = sweep(m, 2.0, 0.01, [0.5, 1.5], [0.1, 0.5], N=16)
    assert [(r.rho, r.xi) for r in grid] == [(0.5, 0.1), (0.5, 0.5), (1.5, 0.1), (1.5, 0.5)]


def test_sweep_records_bad_points():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    res = sweep(m, 2.0, 0.01, [0.5], [0.3, 0.75], N=16)
    assert res[0].error is None
    assert res[1].error is not None
    assert math.isnan(res[1].max_real)


def _band_collision_point(m, xi):
    rho_sq = collision_rho_squared(m, -1, 0, xi, 2.0)
    return math.sqrt(rho_sq)


def test_detect_bubbles_on_band_sweep():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    xi = 0.478
    rho = _band_collision_point(m, xi)
    results = sweep(m, 2.0, 0.01, [rho], [-xi, xi], N=48)
    bubbles = detect_bubbles(results, threshold=1e-4)
    assert len(bubbles) == 2
    centers = sorted(b.center.imag for b in bubbles)
    assert centers[0] == pytest.approx(-centers[1], abs=1e-10)
    for b in bubbles:
        assert abs(b.center.real) < 1e-8 * 4e6
        assert b.max_growth > 0.01


def test_detect_bubbles_empty_when_stable():
    m = make_model("rmkp", gamma=1.0, beta=-1.0)
    results = sweep(m, 1.0, 0.01, [0.4, 1.2], [0.2, 0.4], N=32)
    assert detect_bubbles(results, threshold=1e-7) == []


def _reference_bubbles(results, threshold=None):
    """detect_bubbles as a loop over height-sorted hits, kept as the reference."""
    finite = [r for r in results if r.error is None and r.eigenvalues.size]
    if not finite:
        return []
    if threshold is None:
        threshold = max(_rounding_floor(r.eigenvalues) for r in finite)
    hits = []  # (imag of midpoint, midpoint, growth, xi, rho)
    for r in finite:
        ev = r.eigenvalues
        for lam in ev[ev.real > threshold]:
            partner = ev[np.argmin(np.abs(ev - (-np.conj(lam))))]
            mid = 0.5 * (lam + partner)
            hits.append((float(mid.imag), mid, float(lam.real), r.xi, r.rho))
    if not hits:
        return []
    hits.sort(key=lambda h: h[0])

    def summarize(cluster):
        xis = [c[3] for c in cluster]
        return Bubble(center=complex(np.mean(np.array([c[1] for c in cluster]))),
                      max_growth=max(c[2] for c in cluster), xi_range=(min(xis), max(xis)),
                      rho=float(np.mean([c[4] for c in cluster])))

    bubbles, cluster = [], [hits[0]]
    for h in hits[1:]:
        if h[0] - cluster[-1][0] <= 0.05:
            cluster.append(h)
        else:
            bubbles.append(summarize(cluster))
            cluster = [h]
    bubbles.append(summarize(cluster))
    return bubbles


def _bubble_records(bubbles):
    # repr keeps every digit and the sign of a zero
    return repr([b.as_dict() for b in bubbles])


@pytest.mark.parametrize("threshold", [None, 1e-4])
@pytest.mark.parametrize("beta, k, rho_grid, xi_grid, count", [
    (-1.0, 1.0, [0.4, 1.2], [0.2, 0.4], 0),
    (1.0, 2.0, [0.0], [0.478], 1),
    (1.0, 2.0, [-0.01, 0.0, 0.01, 0.3], [-0.49, -0.478, -0.45, 0.3, 0.45, 0.478, 0.49], 4),
], ids=["none", "one", "several"])
def test_detect_bubbles_matches_the_clustering_loop(beta, k, rho_grid, xi_grid, count,
                                                    threshold):
    # rho_grid is an offset from the band collision at xi = 0.478
    m = make_model("rmkp", gamma=1.0, beta=beta)
    rho = _band_collision_point(m, 0.478) if beta > 0 else 0.0
    results = sweep(m, k, 0.01, [rho + r for r in rho_grid], xi_grid, N=24)
    bubbles = detect_bubbles(results, threshold)
    assert len(bubbles) == count
    assert _bubble_records(bubbles) == _bubble_records(_reference_bubbles(results, threshold))


@pytest.mark.parametrize("gap, count", [(0.05 - 1e-9, 1), (0.05 + 1e-9, 2)])
# a negative threshold also takes in the axis pair, which clusters the same way
@pytest.mark.parametrize("threshold, pairs", [(None, 1), (1e-3, 1), (-1e-9, 2)])
def test_detect_bubbles_splits_midpoints_more_than_0_05_apart(gap, count, threshold, pairs):
    def spectrum(height, rho, xi, growth=0.01):
        # a growing pair, and an axis pair whose real parts are -0.0 and 0.0
        ev = np.array([-growth + 1j * height, growth + 1j * height,
                       complex(-0.0, height + 1.0), complex(0.0, height + 1.0)])
        return SpectrumResult(eigenvalues=ev, rho=rho, xi=xi, eps=0.01, k=2.0, N=8,
                              max_real=growth)

    failed = SpectrumResult(eigenvalues=np.empty(0, dtype=complex), rho=0.5, xi=0.1, eps=0.01,
                            k=2.0, N=8, max_real=math.nan, error="failed")
    results = [spectrum(0.3, 1.0, 0.25), failed, spectrum(0.3 + gap, 1.5, -0.1, growth=0.02)]
    bubbles = detect_bubbles(results, threshold)
    assert len(bubbles) == pairs * count
    assert _bubble_records(bubbles) == _bubble_records(_reference_bubbles(results, threshold))
