import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transpec import (
    DomainError,
    collision_floquet_window,
    collision_rho_squared,
    collision_wavenumber_window,
    enumerate_potentially_unstable,
    is_origin_collision,
    krein_signature,
    make_model,
    omega,
)

RNG = np.random.default_rng(7130229)

MODELS = ["rmkp", "rmbo-kp", "rmg-kp", "rm-mkdv-kp", "rm-whitham-kp", "rmilw-kp"]


def rmkp_omega_reference(gamma, beta, k, n, rho, xi):
    """Explicit quadratic-dispersion frequency polynomial (independent route)."""
    p = n + xi
    return gamma * (p - 1 / p) + beta * k**4 * (p - p**3) - rho**2 / p


def test_omega_examples():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    assert omega(m, 1, 0.0, 0.0, 0.7) == 0.0
    assert omega(m, 2, 1.0, 0.0, 1.0) == pytest.approx(-5.0, abs=1e-14)
    with pytest.raises(DomainError):
        omega(m, 0, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        omega(m, -1, 1.0, 1.0, 1.0)  # xi outside the Brillouin cell is p = 0 here


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=-6, max_value=6),
    rho=st.floats(min_value=0, max_value=3),
    xi=st.floats(min_value=-0.45, max_value=0.45),
    k=st.floats(min_value=0.2, max_value=2.0),
)
def test_omega_odd_symmetry(n, rho, xi, k):
    m = make_model("rmilw-kp", gamma=1.3, beta=0.7)
    if n + xi == 0 or -n - xi == 0:
        return
    w1 = omega(m, n, rho, xi, k)
    w2 = omega(m, -n, rho, -xi, k)
    # approx equates inf only with inf: a subnormal p = n + xi gives omega = -inf, +inf
    assert w2 == pytest.approx(-w1, rel=1e-12, abs=1e-12)


def test_omega_specialization_random_tuples():
    count = 10_000
    gamma = RNG.uniform(0.2, 3.0, count)
    beta = RNG.uniform(-2.0, 2.0, count)
    k = RNG.uniform(0.2, 2.0, count)
    n = RNG.integers(-8, 9, count)
    xi = RNG.uniform(-0.49, 0.5, count)
    rho = RNG.uniform(0.0, 3.0, count)
    keep = np.abs(n + xi) > 1e-3
    worst = 0.0
    for g, b, kk, nn, xx, rr in zip(gamma[keep], beta[keep], k[keep],
                                    n[keep], xi[keep], rho[keep]):
        m = make_model("rmkp", gamma=float(g), beta=float(b))
        w = omega(m, int(nn), float(rr), float(xx), float(kk))
        ref = rmkp_omega_reference(g, b, kk, int(nn), rr, xx)
        worst = max(worst, abs(w - ref) / (1.0 + abs(ref)))
    assert worst < 1e-12


def test_krein_examples():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    assert krein_signature(m, 1, 0.0, 0.0, 0.9) == 0
    assert krein_signature(m, 2, 1.0, 0.0, 1.0) == -1


def _apply_b_operator(model, k, rho, xi, n, grid_size=256):
    """Quadratic form of the self-adjoint factor on e^{inz}, via a grid route.

    Applies k^2(c0 - J_k) + (gamma + rho^2)(d/dz + i xi)^{-2} pseudospectrally
    to samples of e^{inz} and takes the mean inner product on the grid.
    """
    z = 2 * np.pi * np.arange(grid_size) / grid_size
    f = np.exp(1j * n * z)
    c0 = model.j_eff(k) + model.gamma / k**2
    freqs = np.fft.fftfreq(grid_size, d=1.0 / grid_size)
    p = freqs + xi
    fhat = np.fft.fft(f)
    dispersive = np.fft.ifft(model.j_eff(k * p) * fhat)
    second_antideriv = np.fft.ifft(np.where(p == 0.0, 0.0, -1.0 / np.where(p == 0.0, 1.0, p**2)) * fhat)
    bf = k**2 * (c0 * f - dispersive) + (model.gamma + rho**2) * second_antideriv
    return float(np.real(np.mean(np.conj(f) * bf)))


def test_krein_quadratic_form_oracle():
    hits = 0
    while hits < 500:
        mid = MODELS[int(RNG.integers(0, len(MODELS)))]
        m = make_model(mid, gamma=float(RNG.uniform(0.3, 2.0)),
                       beta=float(RNG.choice([-1.0, 1.0]) * RNG.uniform(0.3, 2.0)))
        n = int(RNG.integers(-8, 9))
        xi = float(RNG.uniform(-0.49, 0.5))
        if abs(n + xi) < 1e-2:
            continue
        rho = float(RNG.uniform(0.0, 3.0))
        k = float(RNG.uniform(0.2, 2.0))
        w = omega(m, n, rho, xi, k)
        if abs(w) < 1e-10:
            continue
        chi = krein_signature(m, n, rho, xi, k)
        form = _apply_b_operator(m, k, rho, xi, n)
        assert chi == int(np.sign(form))
        hits += 1


@settings(max_examples=50, deadline=None)
@given(
    gamma=st.floats(min_value=0.2, max_value=3.0),
    beta=st.floats(min_value=-2.0, max_value=2.0),
    k=st.floats(min_value=0.2, max_value=2.0),
)
def test_mirror_pair_collides_at_rho_zero(gamma, beta, k):
    m = make_model("rmkp", gamma=gamma, beta=beta)
    assert collision_rho_squared(m, -1, 1, 0.0, k) == 0.0


def test_collision_rho_squared_example():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    assert collision_rho_squared(m, -1, 0, 0.5, 2.0) == pytest.approx(2.25, abs=1e-14)
    with pytest.raises(DomainError):
        collision_rho_squared(m, -1, 0, 0.0, 1.0)
    with pytest.raises(DomainError):
        collision_rho_squared(m, 2, 2, 0.3, 1.0)


@pytest.mark.parametrize("mid", MODELS)
def test_collision_rho_squared_broadcasts_over_xi_and_k(mid):
    m = make_model(mid, gamma=1.3, beta=-1.0 if mid == "rm-whitham-kp" else 1.0)
    xis = np.linspace(0.01, 0.5, 37)
    ks = np.geomspace(0.05, 20.0, 41)
    for n, mm in [(-1, 0), (-2, 1), (-3, 1), (1, 3)]:
        over_xi = collision_rho_squared(m, n, mm, xis, 1.7)
        over_k = collision_rho_squared(m, n, mm, 0.3, ks)
        assert over_xi.shape == xis.shape and over_k.shape == ks.shape
        for xi, val in zip(xis, over_xi):
            ref = collision_rho_squared(m, n, mm, float(xi), 1.7)
            assert abs(val - ref) <= 1e-13 * max(1.0, abs(ref))
        for k, val in zip(ks, over_k):
            ref = collision_rho_squared(m, n, mm, 0.3, float(k))
            assert abs(val - ref) <= 1e-13 * max(1.0, abs(ref))


@pytest.mark.parametrize("mid", MODELS)
def test_collision_rho_squared_broadcasts_to_a_k_by_xi_grid(mid):
    m = make_model(mid, gamma=1.3, beta=-1.0 if mid == "rm-whitham-kp" else 1.0)
    xis = np.linspace(0.01, 0.5, 13)
    ks = np.geomspace(0.05, 20.0, 11)
    for n, mm in [(-1, 0), (-2, 1)]:
        grid = collision_rho_squared(m, n, mm, xis, ks[:, None])
        assert grid.shape == (ks.size, xis.size)
        for k, row in zip(ks, grid):
            for xi, val in zip(xis, row):
                ref = collision_rho_squared(m, n, mm, float(xi), float(k))
                assert abs(val - ref) <= 1e-13 * max(1.0, abs(ref))


def test_collision_rho_squared_array_rejects_any_vanishing_index():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    with pytest.raises(DomainError):
        collision_rho_squared(m, -1, 0, np.array([0.2, 0.0, 0.4]), 1.0)
    with pytest.raises(DomainError):
        collision_rho_squared(m, -2, 1, np.array([0.5, 2.0]), 1.0)
    with pytest.raises(DomainError):
        collision_rho_squared(m, -1, 0, 0.3, np.array([1.0, 0.0]))


def _bisect_collision(m, n, mm, xi, k, hi=400.0):
    """Root of Omega_n(rho) - Omega_m(rho) in rho^2 by plain bisection."""
    def gap(s):
        r = math.sqrt(s)
        return omega(m, n, r, xi, k) - omega(m, mm, r, xi, k)
    a, b = 0.0, hi
    ga, gb = gap(a), gap(b)
    if ga == 0.0:
        return 0.0
    if (ga < 0) == (gb < 0):
        return None
    for _ in range(200):
        mid = 0.5 * (a + b)
        if not a < mid < b:  # fixed point: the bracket cannot shrink further
            break
        if (gap(mid) < 0) == (ga < 0):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def test_closed_form_vs_bisection_oracle():
    checked = 0
    while checked < 1000:
        mid = MODELS[int(RNG.integers(0, len(MODELS)))]
        m = make_model(mid, gamma=float(RNG.uniform(0.3, 2.0)),
                       beta=float(RNG.choice([-1.0, 1.0]) * RNG.uniform(0.3, 2.0)))
        n = int(RNG.integers(-6, 7))
        theta = int(RNG.integers(1, 5))
        xi = float(RNG.uniform(-0.45, 0.5))
        k = float(RNG.uniform(0.2, 2.0))
        mode_m = n + theta
        if abs(n + xi) < 1e-2 or abs(mode_m + xi) < 1e-2:
            continue
        closed = collision_rho_squared(m, n, mode_m, xi, k)
        if not (0.0 <= closed <= 380.0):
            continue
        brute = _bisect_collision(m, n, mode_m, xi, k)
        assert brute is not None
        assert abs(closed - brute) <= 1e-10 * (1.0 + closed)
        checked += 1


def test_sign_matches_quadratic_dispersion_form():
    m_template = None
    for _ in range(10_000):
        gamma = float(RNG.uniform(0.2, 3.0))
        beta = float(RNG.uniform(-2.0, 2.0))
        k = float(RNG.uniform(0.2, 2.0))
        n = int(RNG.integers(-6, 7))
        theta = int(RNG.integers(1, 5))
        if n == 0 or n + theta == 0:
            continue
        m_template = make_model("rmkp", gamma=gamma, beta=beta)
        closed = collision_rho_squared(m_template, n, n + theta, 0.0, k)
        jj = n * (n + theta) + 1
        uu = 3 * n**2 * (n + theta) ** 2 + n * (n + theta) * (theta**2 - 1)
        ref = -gamma * jj + beta * k**4 * uu
        assert np.sign(closed) == np.sign(ref) or abs(closed - ref) < 1e-10
    assert m_template is not None


def test_wavenumber_windows_quoted_values():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    (lo, hi), = collision_wavenumber_window(m, -2, 3, 0.0)
    assert lo == 0.0
    assert hi == pytest.approx(0.70711, abs=1e-3)
    (lo2, hi2), = collision_wavenumber_window(m, -5, 3, 0.0)
    assert lo2 == pytest.approx(0.41241, abs=1e-3)
    assert math.isinf(hi2)
    (lo3, hi3), = collision_wavenumber_window(m, -2, 3, 0.4)
    assert lo3 == 0.0
    assert hi3 == pytest.approx(0.811, abs=5e-3)


def test_window_endpoints_are_roots():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    for n, theta, xi in [(-2, 3, 0.0), (-5, 3, 0.0), (-2, 3, 0.4), (1, 2, 0.2)]:
        for lo, hi in collision_wavenumber_window(m, n, theta, xi):
            for endpoint in (lo, hi):
                if endpoint in (0.0,) or math.isinf(endpoint):
                    continue
                assert abs(collision_rho_squared(m, n, n + theta, xi, endpoint)) < 1e-8


def test_mirror_pair_window_is_full_line():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    assert collision_wavenumber_window(m, -1, 2, 0.0) == [(0.0, math.inf)]


def test_floquet_window_quoted_values():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    windows = collision_floquet_window(m, -4, 4, 0.2)
    assert len(windows) == 1
    lo, hi = windows[0]
    assert 0.26 < lo < 0.29
    assert hi == 0.5
    assert abs(collision_rho_squared(m, -4, 0, lo, 0.2)) < 1e-8


def test_floquet_window_empty_for_positive_modes_negative_beta():
    m = make_model("rmkp", gamma=1.0, beta=-1.0)
    for k in (0.3, 1.0, 3.0):
        assert collision_floquet_window(m, 1, 1, k) == []


def test_enumerate_periodic_theta2():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    records = enumerate_potentially_unstable(m, 2, "periodic")
    assert [(r.n, r.m) for r in records] == [(-1, 1)]
    rec = records[0]
    assert rec.rho_c == 0.0
    assert rec.at_origin
    assert rec.opposite_krein
    # the same pair survives for negative dispersion
    mneg = make_model("rmkp", gamma=1.0, beta=-1.0)
    recs_neg = enumerate_potentially_unstable(mneg, 2, "periodic")
    assert [(r.n, r.m) for r in recs_neg] == [(-1, 1)]


def test_enumerate_periodic_theta1_empty():
    for beta in (1.0, -1.0):
        m = make_model("rmkp", gamma=1.0, beta=beta)
        assert enumerate_potentially_unstable(m, 1, "periodic") == []


def test_enumerate_nonperiodic_theta3():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    records = enumerate_potentially_unstable(m, 3, "nonperiodic")
    assert [(r.n, r.m) for r in records] == [(-3, 0), (-2, 1), (-1, 2)]


def test_enumerate_nonperiodic_theta2_beta_sign():
    pos = make_model("rmkp", gamma=1.0, beta=1.0)
    assert enumerate_potentially_unstable(pos, 2, "nonperiodic") == []
    neg = make_model("rmkp", gamma=1.0, beta=-1.0)
    records = enumerate_potentially_unstable(neg, 2, "nonperiodic")
    assert [(r.n, r.m) for r in records] == [(-2, 0), (-1, 1)]


def test_enumerate_nonperiodic_theta1():
    pos = make_model("rmkp", gamma=1.0, beta=1.0)
    records = enumerate_potentially_unstable(pos, 1, "nonperiodic")
    assert [(r.n, r.m) for r in records] == [(-1, 0)]
    neg = make_model("rmkp", gamma=1.0, beta=-1.0)
    assert enumerate_potentially_unstable(neg, 1, "nonperiodic") == []


def test_enumerate_krein_filter():
    m = make_model("rmbo-kp", gamma=1.0, beta=1.0)
    for theta in (1, 2, 3, 4):
        for pert in ("periodic", "nonperiodic"):
            for r in enumerate_potentially_unstable(m, theta, pert):
                assert (r.n + r.xi) * (r.m + r.xi) < 0
                assert omega(m, r.n, r.rho_c, r.xi, r.k) == pytest.approx(
                    omega(m, r.m, r.rho_c, r.xi, r.k),
                    rel=1e-10, abs=1e-10)


def test_origin_collision_patterns():
    assert is_origin_collision(-1, 2, 0.0)
    assert is_origin_collision(-2, 3, 0.5)
    assert not is_origin_collision(1, 1, 0.3)
    assert not is_origin_collision(-1, 2, 0.25)
    assert not is_origin_collision(-2, 4, 0.5)
    assert is_origin_collision(-2, 4, 0.0)


@pytest.mark.parametrize("mid, gamma, k, j", [("rmkp", 0.1, 0.3, 51), ("rmbo-kp", 3.0, 1.3, 2)])
def test_enumerate_nonperiodic_picks_the_largest_colliding_xi(mid, gamma, k, j):
    # xi is scanned downward from 1/2 in steps of 1/128; the first collision wins
    m = make_model(mid, gamma=gamma, beta=1.0)
    records = enumerate_potentially_unstable(m, 3, "nonperiodic", k=k)
    rec = [r for r in records if (r.n, r.m) == (-1, 2)]
    assert len(rec) == 1 and rec[0].xi == j / 128
    floor = -1e-12 * gamma
    assert collision_rho_squared(m, -1, 2, j / 128, k) >= floor
    for above in range(j + 1, 65):
        assert collision_rho_squared(m, -1, 2, above / 128, k) < floor
