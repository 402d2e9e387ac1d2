import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transpec import (
    AmplitudeValidityWarning,
    DomainError,
    ResonanceError,
    build_wave,
    make_model,
    phase_speed_c0,
    residual_norm,
    stokes_coefficients,
    wave_profile,
)
from transpec.stokes import StokesWave, _resonance_mismatch, check_resonance

RNG = np.random.default_rng(20240817)


def test_phase_speed_examples():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    assert phase_speed_c0(m, 2.0) == pytest.approx(4.25, abs=1e-15)
    ilw = make_model("rmilw-kp", gamma=1.0, beta=1.0)
    assert phase_speed_c0(ilw, 1.0) == pytest.approx(1.0 + math.cosh(1) / math.sinh(1), rel=1e-14)
    # dispersive growth dominates at large k
    assert phase_speed_c0(m, 1e3) / 1e6 == pytest.approx(1.0, rel=1e-5)
    with pytest.raises(DomainError):
        phase_speed_c0(m, 0.0)


def _resonance_near(m, k):
    """The ResonanceError that check_resonance raises at k."""
    with pytest.raises(ResonanceError) as err:
        check_resonance(m, k)
    return err.value


def _bisect(f, a, b):
    for _ in range(80):
        mid = 0.5 * (a + b)
        if (f(mid) < 0) == (f(a) < 0):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def test_resonances_match_closed_forms():
    # k^4 (n^2 - 1) = (n^2 - 1)/n^2 for kappa^2, k^3 (n - 1) = (n^2 - 1)/n^2 for |kappa|
    closed = {"rmkp": lambda n: n**-0.5, "rmbo-kp": lambda n: ((n + 1) / n**2) ** (1 / 3)}
    for mid, root in closed.items():
        m = make_model(mid, gamma=1.0, beta=1.0)
        for n in range(2, 17):
            for side in (1 - 3e-7, 1 + 3e-7):
                err = _resonance_near(m, root(n) * side)
                assert err.n == n
                assert err.k_resonant == pytest.approx(root(n), rel=1e-12)


def test_resonance_residuals_small():
    m = make_model("rmilw-kp", gamma=1.0, beta=1.0)
    for n in range(2, 6):
        root = _bisect(lambda k: _resonance_mismatch(m, k, n), 0.2, 5.0)
        k = _resonance_near(m, root * (1 + 3e-7)).k_resonant
        assert abs(k**2 * (m.j_eff(k * n) - m.j_eff(k)) - m.gamma * (n**2 - 1) / n**2) < 1e-10


def test_no_resonances_for_decreasing_symbol():
    for m in (make_model("rm-whitham-kp", beta=1.0), make_model("rmkp", beta=-1.0)):
        for k in np.geomspace(0.01, 10.0, 513):
            check_resonance(m, k)


def test_coefficients_examples():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    eta2, eta3, c2 = stokes_coefficients(m, 1.0)
    assert eta2 == pytest.approx(-2.0 / 9.0, rel=1e-14)
    assert c2 == eta2

    mk = make_model("rm-mkdv-kp", gamma=1.0, beta=1.0)
    eta2, _, c2 = stokes_coefficients(mk, 1.3)
    assert eta2 == 0.0
    assert c2 == -0.75

    g = make_model("rmg-kp", gamma=1.0, beta=1.0)
    eta2, _, c2 = stokes_coefficients(g, 1.0)
    assert eta2 == pytest.approx(-2.0 / 9.0, rel=1e-14)
    assert c2 == pytest.approx(-2.0 / 9.0 - 0.75, rel=1e-14)


def test_resonant_k_named_in_error():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    with pytest.raises(ResonanceError) as err:
        stokes_coefficients(m, 0.25**0.25)
    assert err.value.n == 2
    assert err.value.k_resonant == pytest.approx(0.25**0.25, abs=1e-9)


def test_rmkp_closed_forms_match():
    # the generic formulas against the quadratic-dispersion closed forms
    for _ in range(100):
        gamma = float(RNG.uniform(0.2, 3.0))
        beta = float(RNG.uniform(-2.0, 2.0))
        k = float(RNG.uniform(0.2, 2.0))
        m = make_model("rmkp", gamma=gamma, beta=beta)
        try:
            eta2, eta3, c2 = stokes_coefficients(m, k)
        except ResonanceError:
            continue
        assert eta2 == pytest.approx(2 * k**2 / (3 * gamma - 12 * beta * k**4), rel=1e-12)
        assert eta3 == pytest.approx(9 * k**2 * eta2 / (8 * gamma - 72 * beta * k**4), rel=1e-12)
        assert c2 == eta2


@settings(max_examples=60, deadline=None)
@given(
    mid=st.sampled_from(["rmkp", "rmbo-kp", "rmg-kp", "rm-mkdv-kp", "rm-whitham-kp"]),
    k=st.floats(min_value=0.15, max_value=2.5),
    beta=st.sampled_from([1.0, -1.0]),
)
def test_speed_correction_identity(mid, k, beta):
    m = make_model(mid, gamma=1.0, beta=beta)
    try:
        eta2, _, c2 = stokes_coefficients(m, k)
    except ResonanceError:
        return
    assert c2 == m.alpha1 * eta2 + 0.75 * m.alpha2


@given(z=st.floats(min_value=-20, max_value=20))
def test_profile_even(z):
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    wave = build_wave(m, 1.0, 0.01, check=False)
    assert wave_profile(wave, z) == wave_profile(wave, -z)


def test_profile_values():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    zero = build_wave(m, 1.0, 0.0, check=False)
    assert wave_profile(zero, 0.7) == 0.0
    wave = build_wave(m, 1.0, 0.1, check=False)
    # odd harmonics vanish at z = pi/2
    assert wave_profile(wave, math.pi / 2) == pytest.approx(-0.01 * wave.eta2, abs=1e-14)
    expected = 0.1 + 0.01 * wave.eta2 + 1e-3 * wave.eta3
    assert wave_profile(wave, 0.0) == pytest.approx(expected, rel=1e-14)


def test_profile_zero_mean():
    m = make_model("rmg-kp", gamma=1.0, beta=1.0)
    wave = build_wave(m, 0.8, 0.05, check=False)
    z = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    assert abs(np.mean(wave_profile(wave, z))) < 1e-15


def test_residual_zero_amplitude():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    assert residual_norm(m, build_wave(m, 1.0, 0.0, check=False)) == 0.0


@pytest.mark.parametrize("mid", ["rmkp", "rmbo-kp", "rmg-kp", "rm-mkdv-kp",
                                 "rm-whitham-kp", "rmilw-kp", "reduced-rmkp"])
def test_residual_quartic_decay(mid):
    m = make_model(mid, gamma=1.0, beta=1.0)
    eps = np.geomspace(1e-3, 1e-2, 6)
    res = [residual_norm(m, build_wave(m, 0.6, e, check=False)) for e in eps]
    slope = np.polyfit(np.log(eps), np.log(res), 1)[0]
    assert slope >= 3.8
    if m.alpha1 == 1:
        # pure-cubic models decay one order faster; the quadratic ones are quartic
        assert slope <= 4.3


def test_residual_ablation_drops_an_order():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    eps = np.geomspace(1e-3, 1e-2, 6)
    res = []
    for e in eps:
        full = build_wave(m, 0.6, e, check=False)
        broken = StokesWave(full.k, full.eps, full.eta2, 0.0, full.c0, full.c2)
        res.append(residual_norm(m, broken))
    slope = np.polyfit(np.log(eps), np.log(res), 1)[0]
    assert slope < 3.5


def test_amplitude_guard_warns():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    with pytest.warns(AmplitudeValidityWarning):
        build_wave(m, 1.0, 0.5)
