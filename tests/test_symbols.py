import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from transpec import (
    DomainError,
    NumericalError,
    ValidationError,
    classify,
    make_model,
    resonant_wavenumbers,
)
from transpec.collisions import _positive_windows
from transpec.reduced import _lw_margin_raw, _max_band_rho_sq
from transpec.stokes import _resonance_mismatch
from transpec.symbols import (
    MODEL_IDS,
    DispersionSymbol,
    ModelSpec,
    _sign_changes,
    fkdv,
    kdv,
)

BUILTIN_IDS = ["rmkp", "rmbo-kp", "rmg-kp", "rm-whitham-kp", "rmilw-kp", "reduced-rmkp"]


def test_kdv_direct_substitution():
    m = make_model("rmkp", gamma=1.0, beta=1.0)
    assert m.j_eff(2.0) == 4.0


def test_whitham_removable_singularity():
    m = make_model("rm-whitham-kp", gamma=1.0, beta=1.0)
    assert m.j_eff(0.0) == 1.0
    # both branches near the switch point match the quartic series
    for x in (9.999e-5, 1.001e-4):
        series = 1.0 - x**2 / 6.0 + 19.0 * x**4 / 360.0
        assert m.j_eff(x) == pytest.approx(series, abs=1e-14)


def test_ilw_value_at_one():
    # independent oracle: cosh/sinh quotient
    expected = math.cosh(1.0) / math.sinh(1.0)
    m = make_model("rmilw-kp", gamma=1.0, beta=1.0)
    assert m.j_eff(1.0) == pytest.approx(expected, rel=1e-14)
    assert m.j_eff(0.0) == 1.0


def test_nonfinite_kappa_rejected():
    m = make_model("rmkp")
    with pytest.raises(DomainError):
        m.j_eff(float("nan"))
    with pytest.raises(DomainError):
        m.j_eff(float("inf"))


@pytest.mark.parametrize("mid", BUILTIN_IDS)
def test_evenness_machine_precision(mid):
    m = make_model(mid, gamma=1.0, beta=1.0)
    grid = np.linspace(1e-3, 25.0, 1000)
    assert np.max(np.abs(m.j_eff(grid) - m.j_eff(-grid))) == 0.0


@given(kappa=st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_evenness_property(kappa):
    m = make_model("rm-whitham-kp")
    assert m.j_eff(kappa) == m.j_eff(-kappa)


def test_model_validation():
    with pytest.raises(ValidationError):
        ModelSpec(kdv(), 1.0, 1, 0, gamma=0.0)
    with pytest.raises(ValidationError):
        ModelSpec(kdv(), 1.0, 2, 0, gamma=1.0)
    with pytest.raises(ValidationError):
        ModelSpec(kdv(), 1.0, 1, 1, gamma=1.0)
    with pytest.raises(ValidationError):
        fkdv(0.4)
    with pytest.raises(ValidationError):
        DispersionSymbol("nope")


def test_model_registry():
    for mid in MODEL_IDS:
        alpha = 1.5 if mid == "rm-fkdv-kp" else None
        m = make_model(mid, gamma=2.0, beta=-0.5, alpha=alpha)
        assert m.name == mid
    with pytest.raises(ValidationError, match="unknown model"):
        make_model("rm-nope")
    with pytest.raises(ValidationError):
        make_model("rm-fkdv-kp")  # alpha required


def test_gardner_family_switches():
    g = make_model("rmg-kp")
    assert (g.alpha1, g.alpha2) == (1, -1)
    mk = make_model("rm-mkdv-kp")
    assert (mk.alpha1, mk.alpha2) == (0, -1)
    q = make_model("rmkp")
    assert (q.alpha1, q.alpha2) == (1, 0)


# --- bracketed root finder ------------------------------------------------------

def test_sign_changes_refines_a_pole_and_a_root_in_one_call():
    def f(x):
        return (x - 2.0) / (x - 0.3)

    grid = np.linspace(0.05, 3.05, 31)
    assert _sign_changes(f, grid, f(grid), 1e-13) == pytest.approx([0.3, 2.0], abs=1e-13)


def test_sign_changes_on_the_gardner_margin():
    # -3/2 + 2 eta2(k) has a pole at the n = 2 resonance k = 1/sqrt(2) and a
    # root where 4.5 k^4 + k^2 - 9/8 = 0
    m = make_model("rmg-kp")
    grid = np.geomspace(1e-3, 1e3, 513)

    def f(k):
        return _lw_margin_raw(m, k)

    root = math.sqrt((math.sqrt(1.0 + 20.25) - 1.0) / 9.0)
    found = _sign_changes(f, grid, f(grid), 1e-12)
    assert found == pytest.approx([root, 1.0 / math.sqrt(2.0)], abs=2e-12)


@pytest.mark.parametrize("f", [lambda x: x - 1.0, lambda x: 1.0 - x], ids=["rising", "falling"])
def test_sign_changes_exact_zero_at_a_grid_point(f):
    grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    vals = f(grid)
    # an exact zero between values of opposite sign is itself the root
    assert _sign_changes(f, grid, vals, 1e-12).tolist() == [1.0]
    # counted as non-positive, the zero is a cell end and comes back as it is
    found = _sign_changes(f, grid, vals, 1e-12, signs=np.where(vals > 0, 1.0, -1.0))
    assert found.tolist() == [1.0]
    window = (1.0, math.inf) if vals[-1] > 0 else (0.0, 1.0)
    assert _positive_windows(f, grid, vals, 0.0, math.inf) == [window]


def test_sign_changes_raises_when_a_cell_does_not_converge():
    # bisection from 1e300 down to the root at 1 needs about 1000 halvings
    def f(x):
        return np.arctan(x - 1.0)

    grid = np.array([0.0, 1e300])
    with pytest.raises(NumericalError, match="did not converge"):
        _sign_changes(f, grid, f(grid), 1e-12)


@pytest.mark.parametrize("mid", MODEL_IDS)
@pytest.mark.parametrize("beta", [1.0, -1.0])
def test_sign_changes_match_brentq_on_resonances_and_onsets(mid, beta):
    from scipy.optimize import brentq

    m = make_model(mid, beta=beta, alpha=1.5 if mid == "rm-fkdv-kp" else None)
    eps = np.finfo(float).eps

    def check(x, f, grid, xtol):
        i = int(np.searchsorted(grid, x)) - 1
        ref = brentq(f, grid[i], grid[i + 1], xtol=xtol)
        assert abs(x - ref) <= xtol + 4 * eps * abs(ref)

    grid = np.geomspace(1e-3, 1e3, 513)
    for k, n in resonant_wavenumbers(m):
        check(k, lambda kk, n=n: _resonance_mismatch(m, kk, n), grid, 1e-14)
    thresholds = classify(m, 1.0).thresholds
    for key, k in thresholds.items():
        if key.startswith("k_lw"):
            check(k, lambda kk: _lw_margin_raw(m, kk), grid, 1e-12)
        elif key.startswith("k_t1b"):
            check(k, lambda kk: _max_band_rho_sq(m, kk)[1], np.geomspace(1e-3, 1e3, 161), 1e-12)
