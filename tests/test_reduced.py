import math
import warnings

import numpy as np
import pytest

from transpec import (
    ATLAS_COLUMNS,
    ModelSpec,
    ResonanceError,
    atlas,
    classify,
    enumerate_potentially_unstable,
    krein_signature,
    long_wavelength_lambda2,
    long_wavelength_verdict,
    make_model,
    omega,
    stokes_coefficients,
    theta1_band,
    theta1_verdict,
)
from transpec import reduced
from transpec.collisions import collision_rho_squared
from transpec.reduced import (
    ATLAS_MODELS,
    _ATLAS_K,
    _XI_SCAN,
    _max_band_rho_sq,
    golden_max,
)
from transpec.stokes import _c2, _eta2, _resonance_mismatch
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


def test_lambda2_resonant_k_raises_before_it_warns():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ResonanceError):
            long_wavelength_lambda2(m, 0.25**0.25, 0.2, 0.2)
    assert caught == []


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


@pytest.mark.parametrize("mid", MODEL_IDS)
@pytest.mark.parametrize("beta", [1.0, -1.0, 0.3])
@pytest.mark.parametrize("gamma", [0.1, 1.0, 4.0])
def test_lw_margin_is_twice_the_speed_correction(mid, beta, gamma):
    m = make_model(mid, gamma=gamma, beta=beta, alpha=1.5 if mid == "rm-fkdv-kp" else None)
    checked = 0
    for k in np.geomspace(1e-2, 1e2, 41).tolist():
        try:
            margin = reduced.lw_margin(m, k)
        except ResonanceError:
            continue
        # float.hex keeps the sign bit, so a signed zero must match as well
        assert margin.hex() == (2 * stokes_coefficients(m, k)[2]).hex()
        checked += 1
    assert checked > 30


def test_lw_verdict_threshold_consistency():
    # at the reported boundary the margin either vanishes or poles out
    for mid, beta in [("rmbo-kp", 1.0), ("rmg-kp", 1.0), ("rmilw-kp", 1.0),
                      ("rm-whitham-kp", -1.0)]:
        m = make_model(mid, gamma=1.0, beta=beta)
        v = long_wavelength_verdict(m, 0.31)
        if "k_lw" not in v.thresholds:
            continue
        ks = v.thresholds["k_lw"]
        margin = 2 * _c2(m, _eta2(m, ks))
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


PEAKS = [lambda t: -(t - 0.3) ** 2, lambda t: np.sin(9.0 * t), lambda t: t * np.exp(-4.0 * t)]
BRACKETS = [(1e-4, 0.5), (0.1, 0.2), (0.4, 0.5)]


def test_golden_max_scalar_call_matches_scipy_bounded():
    from scipy.optimize import minimize_scalar
    for f in PEAKS:
        for lo, hi in BRACKETS:
            x, v = golden_max(f, lo, hi)
            ref = minimize_scalar(lambda t: -f(t), bounds=(lo, hi), method="bounded",
                                  options={"xatol": 1e-8})
            assert x == ref.x
            assert v == -ref.fun
            assert _polish_calls(f, lo, hi) == ref.nfev


def _polish_calls(f, lo, hi):
    calls = []
    golden_max(lambda t: calls.append(t) or f(t), lo, hi)
    return len(calls)


def test_golden_max_takes_parabolic_steps_on_smooth_peaks(monkeypatch):
    # peaks inside their bracket; the golden-section search took about 34 calls
    for f in PEAKS:
        for lo, hi in BRACKETS:
            x, _ = golden_max(f, lo, hi)
            if lo + 1e-6 < x < hi - 1e-6:
                assert _polish_calls(f, lo, hi) <= 15
    # the rmkp band peaks at the xi = 1/2 end, reflected into the interior
    seen = []

    def counted(f, lo, hi):
        seen.append(_polish_calls(f, lo, hi))
        return golden_max(f, lo, hi)

    monkeypatch.setattr(reduced, "golden_max", counted)
    _max_band_rho_sq(make_model("rmkp"), 2.0)
    assert len(seen) == 1 and seen[0] <= 12


def test_golden_max_array_brackets_match_scalar_calls():
    lo = np.linspace(0.0, 0.45, 10)
    hi = lo + 0.05
    for f in PEAKS:
        xs, vals = golden_max(f, lo, hi)
        assert xs.shape == vals.shape == lo.shape
        for x, v, a, b in zip(xs, vals, lo, hi):
            assert (x, v) == golden_max(f, float(a), float(b))


def test_golden_max_calls_f_once_per_step():
    lo = np.linspace(0.0, 0.45, 10)
    hi = lo + 0.05
    for f in PEAKS:
        shapes = []
        golden_max(lambda t: shapes.append(np.shape(t)) or f(t), lo, hi)
        # the first call evaluates the starting points, one more per step
        assert len(shapes) == max(_polish_calls(f, float(a), float(b)) for a, b in zip(lo, hi))
        assert shapes == [lo.shape] * len(shapes)
    # a degenerate bracket (the xi = 1e-4 end case of the band peak) stays put
    x, v = golden_max(PEAKS[2], 1e-4, 1e-4)
    assert (x, v) == (1e-4, PEAKS[2](1e-4))
    xs, vals = golden_max(PEAKS[0], np.array([]), np.array([]))
    assert xs.shape == vals.shape == (0,)


#: Two custom symbols: a smooth monotone one, and one with two band peaks in xi.
CUSTOM_SYMBOLS = {
    "sqrt": lambda x: np.sqrt(1.0 + x * x),
    "cos": lambda x: x * x + 3.9 * np.cos(13.7 * x),
}


def _check_verdicts_match_the_array_peak(m):
    # the scalar polish runs on numpy scalars, the array one on arrays; they
    # may differ in the last bits only (numpy's scalar and array power differ)
    ks = np.geomspace(1e-2, 50.0, 23)
    xis, peaks = _max_band_rho_sq(m, ks)
    for k, xi, v in zip(ks.tolist(), xis, peaks):
        t = theta1_verdict(m, k).thresholds
        assert abs(v - t["rho_c_sq_max"]) <= 1e-12 * max(1.0, abs(v))
        assert xi == pytest.approx(t["xi_star"], abs=1e-8)


@pytest.mark.parametrize("mid", MODEL_IDS)
def test_band_peak_over_a_k_array_matches_scalar_calls(mid):
    for beta in (1.0, -1.0):
        _check_verdicts_match_the_array_peak(_named(mid, beta))


@pytest.mark.parametrize("name", sorted(CUSTOM_SYMBOLS))
def test_custom_band_peak_over_a_k_array_matches_scalar_calls(name):
    for beta in (1.0, -1.0):
        model = ModelSpec(custom(CUSTOM_SYMBOLS[name]), beta, 1, 0, 1.0)
        _check_verdicts_match_the_array_peak(model)


def test_scalar_results_are_builtin_types():
    # the kernels keep numpy scalars; a public result is a Python float, int
    # or bool, which every JSON writer takes (a numpy.bool_ is no bool)
    models = ([_named(mid, beta) for mid in MODEL_IDS for beta in (1.0, -1.0)]
              + [ModelSpec(custom(fn), beta, 1, 0, 1.0)
                 for fn in CUSTOM_SYMBOLS.values() for beta in (1.0, -1.0)])
    for m in models:
        k = 1.3
        assert type(omega(m, 1, 0.5, 0.25, k)) is float
        assert type(krein_signature(m, 1, 0.5, 0.25, k)) is int
        assert type(collision_rho_squared(m, -1, 0, 0.25, k)) is float
        assert type(reduced.lw_margin(m, k)) is float
        records = [r for theta in (1, 2, 3) for pert in ("periodic", "nonperiodic")
                   for kk in (k, None) for r in enumerate_potentially_unstable(m, theta, pert, kk)]
        assert records
        for r in records:
            assert {type(v) for v in r.as_dict().values()} <= {int, float, bool}


def test_band_peak_finds_the_higher_of_two_peaks():
    # two peaks in xi: the higher one, at xi = 1/2, makes the band unstable
    m = ModelSpec(custom(lambda x: x * x + 3.9 * np.cos(13.7 * x)), 1.0, 1, 0, 2.6)
    v = theta1_verdict(m, 1.3)
    xs = np.linspace(0.0, 0.5, 100_001)[1:]
    dense = float(np.max(collision_rho_squared(m, -1, 0, xs, 1.3)))
    assert dense > 0.85
    assert v.outcome == "unstable"
    assert abs(v.thresholds["rho_c_sq_max"] - dense) <= 1e-9


def _named(mid, beta, gamma=1.0):
    return make_model(mid, gamma=gamma, beta=beta, alpha=1.5 if mid == "rm-fkdv-kp" else None)


@pytest.mark.parametrize("mid", MODEL_IDS)
def test_band_rho_sq_is_even_about_one_half(mid):
    # xi -> 1 - xi maps the pair (p, q) to (-q, -p), and the frequency is odd
    # in p; on this dyadic grid 1 - xi is exact
    xi = np.arange(1, 33)[:, None] / 64.0
    k = np.array([0.05, 0.4, 1.3, 2.2, 7.0, 40.0])
    for beta in (1.0, -1.0):
        m = _named(mid, beta)
        v = collision_rho_squared(m, -1, 0, xi, k)
        mirrored = collision_rho_squared(m, -1, 0, 1.0 - xi, k)
        assert np.all(np.abs(v - mirrored) <= 1e-14 * np.maximum(1.0, np.abs(v)))


def test_band_peak_is_never_below_its_scan():
    ks = np.geomspace(1e-3, 1e3, 161)
    for mid in MODEL_IDS:
        for beta in (1.0, -1.0, 0.3):
            m = _named(mid, beta)
            xis, peaks = _max_band_rho_sq(m, ks)
            scan = collision_rho_squared(m, -1, 0, _XI_SCAN, ks[:, None]).max(axis=1)
            assert np.all(peaks >= scan), (mid, beta)
            assert np.all((0 < xis) & (xis <= 0.5))
    # the peak at the xi = 1e-4 end of the scan is that scan point
    v = theta1_verdict(make_model("rmkp", beta=-1.0), 1000.0)
    assert v.thresholds["xi_star"] == 1e-4
    assert v.thresholds["rho_c_sq_max"] == collision_rho_squared(
        make_model("rmkp", beta=-1.0), -1, 0, 1e-4, 1000.0)


def test_classify_xi_star_lies_in_the_half_interval():
    for mid in MODEL_IDS:
        for beta in (1.0, -1.0, 0.3):
            for gamma in (0.5, 1.0, 3.0):
                m = _named(mid, beta, gamma)
                for k in (0.05, 0.4, 1.3, 2.2, 7.0):
                    xi_star = classify(m, k).thresholds["xi_star"]
                    assert 0 < xi_star <= 0.5, (mid, beta, gamma, k)


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


@pytest.mark.parametrize("gamma", [1.0, 4.0])
def test_atlas_rows_list_the_columns_in_order(gamma):
    for cells in atlas(gamma=gamma).values():
        assert tuple(cells) == ATLAS_COLUMNS


def test_atlas_is_quiet_on_a_resonant_grid_point():
    # at gamma = 4 the n = 2 resonance of rmg-kp and rm-mkdv-kp (beta = 1) is
    # the grid point k = 1, a pole of the margin; the suite turns any numpy
    # warning into an error
    assert _resonance_mismatch(make_model("rmg-kp", gamma=4.0), _ATLAS_K[30], 2) == 0.0
    table = atlas(gamma=4.0)
    for mid in ATLAS_MODELS:
        alpha = 1.5 if mid == "rm-fkdv-kp" else None
        for beta, column in ((1.0, "lw_periodic_beta_pos"), (-1.0, "lw_periodic_beta_nonpos")):
            cell = table[mid][column]
            if cell.outcome == "unstable":
                m = make_model(mid, gamma=4.0, beta=beta, alpha=alpha)
                assert 2 * _c2(m, _eta2(m, cell.thresholds["k_witness"])) < 0


# --- per-model onset memo -------------------------------------------------------

def _forget_onsets():
    reduced._lw_onsets.cache_clear()
    reduced._band_onsets.cache_clear()


@pytest.mark.parametrize("mid", MODEL_IDS)
def test_warm_classify_equals_a_cold_call(mid):
    m = _named(mid, 1.0)
    classify(m, 0.8)  # fills both onset tables of this model
    warm = classify(m, 2.3).as_dict()
    _forget_onsets()
    cold = classify(_named(mid, 1.0), 2.3).as_dict()
    assert repr(warm) == repr(cold)


def test_mutating_a_verdict_leaves_the_next_one_alone():
    m = make_model("rmkp")
    v = classify(m, 2.0)
    before = v.as_dict()
    v.thresholds["k_lw"] = -1.0
    v.thresholds.pop("k_t1b")
    assert classify(m, 2.0).as_dict() == before
    # atlas cells without thresholds are shared between calls, so they are immutable
    cell = atlas()["rmbo-kp"]["lw_nonperiodic"]
    with pytest.raises(TypeError):
        cell.thresholds["k_witness"] = 1.0


def test_a_model_with_an_unhashable_callable_is_memoised(monkeypatch):
    class Square:
        __hash__ = None

        def __call__(self, x):
            return x * x

    unhashable = ModelSpec(custom(Square()), 1.0, 1, 0, 1.0)
    hash(unhashable)  # the callable is left out of the hash
    hashable = ModelSpec(custom(lambda x: x * x), 1.0, 1, 0, 1.0)
    first = classify(unhashable, 0.8)
    brackets = []

    def counted(f, lo, hi):
        brackets.append(np.size(lo))
        return golden_max(f, lo, hi)

    monkeypatch.setattr(reduced, "golden_max", counted)
    second = classify(unhashable, 2.0)
    assert brackets == [1]  # the band onsets came from the memo
    assert first.as_dict() == classify(hashable, 0.8).as_dict()
    assert second.as_dict() == classify(hashable, 2.0).as_dict()


def test_custom_models_that_differ_only_in_their_callable_keep_their_own_onsets():
    square = ModelSpec(custom(lambda x: x * x), 1.0, 1, 0, 1.0)
    quartic = ModelSpec(custom(lambda x: 1 + x * x + 0.5 * x**4), 1.0, 1, 0, 1.0)
    assert hash(square) == hash(quartic) and square != quartic
    warm = [classify(m, 0.8).thresholds["k_lw"] for m in (square, quartic, square)]
    assert warm[0] == warm[2] != warm[1]
    _forget_onsets()
    assert classify(quartic, 0.8).thresholds["k_lw"] == warm[1]


def test_warm_classify_polishes_only_its_own_k(monkeypatch):
    m = make_model("rmkp")
    classify(m, 1.7)
    brackets = []

    def counted(f, lo, hi):
        brackets.append(np.size(lo))
        return golden_max(f, lo, hi)

    monkeypatch.setattr(reduced, "golden_max", counted)
    classify(m, 2.3)
    assert brackets == [1]
