import math

import numpy as np
import pytest

from transpec import (
    DomainError,
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
