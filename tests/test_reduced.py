import math

import numpy as np
import pytest

from transpec import (
    ATLAS_COLUMNS,
    ModelSpec,
    ResonanceError,
    atlas,
    classify,
    long_wavelength_lambda2,
    long_wavelength_verdict,
    make_model,
    theta1_band,
    theta1_verdict,
)
from transpec.collisions import collision_rho_squared
from transpec.reduced import _GOLDEN, _lw_margin_raw, _max_band_rho_sq, golden_max
from transpec.symbols import MODEL_IDS, custom


# --- long-wavelength channel -------------------------------------------------

def test_lambda2_zero_rho():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    assert long_wavelength_lambda2(m, 1.0, 0.01, 0.0) == 0.0


def test_lambda2_rmkp_bracket():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    k, eps, rho = 1.0, 0.01, 0.005
    eta2 = -2.0 / 9.0
    expected = -(rho**2) * (rho**2 + 2 * eps**2 * k**2 * eta2)
    assert long_wavelength_lambda2(m, k, eps, rho) == pytest.approx(expected, rel=1e-12)
    assert expected > 0  # k = 1 is beyond the quadratic-dispersion onset 0.7071


def test_lambda2_cubic_model_unstable_any_k():
    m = make_model("rm-mkdv-kp", gamma=1.0, beta=1.0)
    for k in (0.3, 0.9, 2.4):
        lam2 = long_wavelength_lambda2(m, k, 0.01, 1e-3)
        assert lam2 > 0


def test_lambda2_resonant_k_raises():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    with pytest.raises(ResonanceError):
        long_wavelength_lambda2(m, 0.25**0.25, 0.01, 0.005)


def test_lambda2_warns_outside_small_parameter_regime():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    with pytest.warns(UserWarning, match="small"):
        long_wavelength_lambda2(m, 1.0, 0.01, 0.5)


def test_lw_verdict_rmkp_threshold():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    assert long_wavelength_verdict(m, 0.8).outcome == "unstable"
    v = long_wavelength_verdict(m, 0.6)
    assert v.outcome == "stable"
    assert v.thresholds["k_lw"] == pytest.approx(0.25**0.25, abs=1e-6)
    assert v.theorem == "t1"
    # k_lw = (gamma/4)^(1/4); at gamma = 4 it is the scan grid point k = 1
    on_grid = long_wavelength_verdict(make_model("rmkp", gamma=4.0), 2.0)
    assert on_grid.thresholds["k_lw"] == 1.0
    near = long_wavelength_verdict(make_model("rmkp", gamma=3.9), 2.0)
    assert near.thresholds["k_lw"] == pytest.approx((3.9 / 4) ** 0.25, abs=1e-12)


def test_lw_verdict_negative_beta_stable_all_k():
    m = make_model("rmkp", gamma=1.0, beta=-1.0)
    for k in (0.2, 1.0, 5.0):
        v = long_wavelength_verdict(m, k)
        assert v.outcome == "stable"
        assert v.theorem == "t3"
        assert "k_lw" not in v.thresholds


def test_lw_verdict_threshold_consistency():
    # at the reported boundary the margin either vanishes or poles out
    for mid, beta in [("rmbo-kp", 1.0), ("rmg-kp", 1.0), ("rmilw-kp", 1.0),
                      ("rm-whitham-kp", -1.0)]:
        m = make_model(mid, gamma=1.0, beta=beta)
        v = long_wavelength_verdict(m, 0.31)
        if "k_lw" not in v.thresholds:
            continue
        ks = v.thresholds["k_lw"]
        margin = _lw_margin_raw(m, ks)
        denom = 3 * m.gamma + 4 * ks**2 * (m.j_eff(ks) - m.j_eff(2 * ks))
        assert abs(margin) < 1e-8 or abs(denom) < 1e-6


def test_bo_symbol_onsets():
    # generic verdict reproduces the closed-form onsets for the |kappa| symbol
    m = make_model("rmbo-kp", gamma=1.0, beta=1.0)
    v = long_wavelength_verdict(m, 1.0)
    assert v.thresholds["k_lw"] == pytest.approx((3.0 / 4.0) ** (1.0 / 3.0), rel=1e-6)
    v2 = theta1_verdict(m, 1.0)
    assert v2.thresholds["k_t1b"] == pytest.approx(6.0 ** (1.0 / 3.0), rel=1e-6)


def test_fractional_symbol_onsets():
    alpha = 1.5
    m = make_model("rm-fkdv-kp", gamma=1.0, beta=1.0, alpha=alpha)
    v = long_wavelength_verdict(m, 1.0)
    lw_expect = (3.0 / (4.0 * (2**alpha - 1.0))) ** (1.0 / (alpha + 2.0))
    assert v.thresholds["k_lw"] == pytest.approx(lw_expect, rel=1e-6)
    v2 = theta1_verdict(m, 1.0)
    band_expect = (3.0 * 2**alpha / (2**alpha - 1.0)) ** (1.0 / (alpha + 2.0))
    assert v2.thresholds["k_t1b"] == pytest.approx(band_expect, rel=1e-6)


def test_gardner_verdict_boundaries():
    # quadratic+cubic model: margin root at 36 b k^4 + 8 k^2 = 9 g (b > 0)
    m = make_model("rmg-kp", gamma=1.0, beta=1.0)
    v = long_wavelength_verdict(m, 0.3)
    root = math.sqrt((-8.0 + math.sqrt(64.0 + 4.0 * 36.0 * 9.0)) / 72.0)
    assert v.thresholds["k_lw"] == pytest.approx(root, rel=1e-6)
    assert v.thresholds["k_lw_2"] == pytest.approx(0.25**0.25, rel=1e-6)
    assert v.outcome == "unstable"  # below the root the cubic term dominates
    assert long_wavelength_verdict(m, 0.65).outcome == "stable"
    assert long_wavelength_verdict(m, 0.8).outcome == "unstable"

    mneg = make_model("rmg-kp", gamma=1.0, beta=-1.0)
    for k in (0.2, 0.5, 1.1, 3.0):
        v = long_wavelength_verdict(mneg, k)
        assert v.outcome == "unstable"
        # closed form -36|b|k^4 + 8k^2 < 9g holds for every k at gamma = 1
        assert -36.0 * k**4 + 8.0 * k**2 < 9.0


def test_ilw_transcendental_onsets():
    m = make_model("rmilw-kp", gamma=1.0, beta=1.0)
    v = long_wavelength_verdict(m, 0.31)
    ks = v.thresholds["k_lw"]
    # onset satisfies k^2 (2k coth 2k - k coth k) = 3 gamma / (4 beta)
    lhs = ks**2 * (2 * ks / math.tanh(2 * ks) - ks / math.tanh(ks))
    assert lhs == pytest.approx(0.75, rel=1e-6)
    v2 = theta1_verdict(m, 1.0)
    kb = v2.thresholds["k_t1b"]
    lhs2 = kb**2 * (kb / math.tanh(kb) - 0.5 * kb / math.tanh(0.5 * kb))
    assert lhs2 == pytest.approx(3.0, rel=1e-6)


def test_whitham_stability_and_onsets():
    pos = make_model("rm-whitham-kp", gamma=1.0, beta=1.0)
    for k in (0.3, 1.0, 4.0):
        assert long_wavelength_verdict(pos, k).outcome == "stable"
        assert theta1_verdict(pos, k).outcome == "stable"
    neg = make_model("rm-whitham-kp", gamma=1.0, beta=-1.0)
    v = long_wavelength_verdict(neg, 1.0)
    ks = v.thresholds["k_lw"]
    def w(x):
        return math.sqrt(math.tanh(x) / x)
    lhs = ks**2 * (w(ks) - w(2 * ks))
    assert lhs == pytest.approx(0.75, rel=1e-6)
    v2 = theta1_verdict(neg, 1.0)
    kb = v2.thresholds["k_t1b"]
    lhs2 = kb**2 * (w(kb / 2) - w(kb))
    assert lhs2 == pytest.approx(3.0, rel=1e-6)


def test_degenerate_rotation_limit():
    # with nearly no rotation, positive dispersion is unstable at every tested k
    m = make_model("rmkp", gamma=1e-8, beta=1.0)
    for k in (0.11, 0.5, 1.0, 3.0):
        assert long_wavelength_verdict(m, k).outcome == "unstable"


# --- adjacent-pair band channel -----------------------------------------------

def test_band_quoted_values():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    band = theta1_band(m, 2.0, 0.01, 0.5)
    assert band.rho_c_sq == pytest.approx(2.25, abs=1e-14)
    assert band.halfwidth == pytest.approx(0.01, rel=1e-12)
    assert band.growth_peak == pytest.approx(0.02, rel=1e-12)
    assert band.exists


def test_band_absent_below_onset():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    band = theta1_band(m, 1.0, 0.01, 0.5)
    assert band.rho_c_sq == pytest.approx(-0.75 + 3.0 / 16.0, abs=1e-14)
    assert not band.exists


def test_band_zero_halfwidth_without_quadratic_term():
    m = make_model("rm-mkdv-kp", gamma=1.0, beta=1.0)
    band = theta1_band(m, 2.0, 0.01, 0.5)
    assert band.halfwidth == 0.0
    assert band.growth_peak == 0.0


def test_theta1_verdict_rmkp():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    v = theta1_verdict(m, 2.0)
    assert v.outcome == "unstable"
    assert v.theorem == "t2"
    assert v.thresholds["xi_star"] == pytest.approx(0.5, abs=1e-6)
    assert v.thresholds["k_t1b"] == pytest.approx(4.0**0.25, rel=1e-6)
    assert theta1_verdict(m, 1.2).outcome == "stable"


def test_band_verdict_coherence():
    for mid, beta, k in [("rmkp", 1.0, 2.0), ("rmkp", 1.0, 1.2), ("rmbo-kp", 1.0, 2.0),
                         ("rm-whitham-kp", -1.0, 3.0), ("rmilw-kp", 1.0, 1.7)]:
        m = make_model(mid, gamma=1.0, beta=beta)
        v = theta1_verdict(m, k)
        band = theta1_band(m, k, 0.01, v.thresholds["xi_star"])
        assert (v.outcome == "unstable") == band.exists


def test_golden_max_finds_quadratic_peak():
    x, val = golden_max(lambda t: -(t - 0.3) ** 2, 1e-4, 0.5)
    assert x == pytest.approx(0.3, abs=1e-6)
    assert val == pytest.approx(0.0, abs=1e-10)


def _golden_loop(f, lo, hi, tol=1e-8):
    """Scalar golden-section search, the reference for golden_max."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


PEAKS = [lambda t: -(t - 0.3) ** 2, lambda t: np.sin(9.0 * t), lambda t: t * np.exp(-4.0 * t)]


def test_golden_max_scalar_call_equals_the_loop():
    for f in PEAKS:
        for lo, hi in [(1e-4, 0.5), (0.1, 0.2), (0.4, 0.5)]:
            assert golden_max(f, lo, hi) == _golden_loop(f, lo, hi)


def test_golden_max_array_brackets_match_scalar_calls():
    lo = np.linspace(0.0, 0.45, 10)
    hi = lo + 0.05
    for f in PEAKS:
        xs, vals = golden_max(f, lo, hi)
        assert xs.shape == vals.shape == lo.shape
        for x, v, a, b in zip(xs, vals, lo, hi):
            x_ref, _ = golden_max(f, float(a), float(b))
            assert abs(x - x_ref) <= 1e-8
            assert v == pytest.approx(f(x), rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("mid", MODEL_IDS)
def test_band_peak_over_a_k_array_matches_scalar_calls(mid):
    m = make_model(mid, gamma=1.0, beta=-1.0 if mid == "rm-whitham-kp" else 1.0,
                   alpha=1.5 if mid == "rm-fkdv-kp" else None)
    ks = np.geomspace(1e-2, 50.0, 23)
    xis, peaks = _max_band_rho_sq(m, ks)
    for k, xi, v in zip(ks, xis, peaks):
        xi_ref, v_ref = _max_band_rho_sq(m, float(k))
        assert abs(v - v_ref) <= 1e-12 * max(1.0, abs(v_ref))
        assert xi == pytest.approx(xi_ref, abs=1e-8)


def test_band_peak_finds_the_higher_of_two_peaks():
    # two peaks in xi: the higher one, at xi = 1/2, makes the band unstable
    m = ModelSpec(custom(lambda x: x * x + 3.9 * np.cos(13.7 * x)), 1.0, 1, 0, 2.6)
    v = theta1_verdict(m, 1.3)
    xs = np.linspace(0.0, 0.5, 100_001)[1:]
    dense = float(np.max(collision_rho_squared(m, -1, 0, xs, 1.3)))
    assert dense > 0.85
    assert v.outcome == "unstable"
    assert abs(v.thresholds["rho_c_sq_max"] - dense) <= 1e-9


# --- merged verdict and atlas ----------------------------------------------------

def test_classify_merges_channels():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    v = classify(m, 2.0)
    assert v.outcome == "unstable"
    assert v.thresholds["k_lw"] == pytest.approx(0.25**0.25, rel=1e-6)
    assert v.thresholds["k_t1b"] == pytest.approx(4.0**0.25, rel=1e-6)
    mid = classify(m, 1.0)  # past the first onset, below the second
    assert mid.outcome == "unstable"
    low = classify(m, 0.46)
    assert low.outcome == "stable"


EXPECTED_ATLAS = {
    "rmbo-kp":       ("unstable", "stable", "stable", "stable", "unstable", "stable"),
    "rm-fkdv-kp":    ("unstable", "stable", "stable", "stable", "unstable", "stable"),
    "rmg-kp":        ("unstable", "unstable", "stable", "stable", "unstable", "stable"),
    "rm-mkdv-kp":    ("unstable", "unstable", "stable", "stable", "unstable", "stable"),
    "rm-whitham-kp": ("stable", "unstable", "stable", "stable", "stable", "unstable"),
    "rmilw-kp":      ("unstable", "stable", "stable", "stable", "stable", "unstable")[:4]
                     + ("unstable", "stable"),
}


def test_atlas_all_cells():
    table = atlas()
    assert set(table) == set(EXPECTED_ATLAS)
    for mid, cells in table.items():
        got = tuple(cells[c].outcome for c in ATLAS_COLUMNS)
        assert got == EXPECTED_ATLAS[mid], mid
