import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from transpec import (
    DomainError,
    NumericalError,
    ValidationError,
    build_wave,
    classify,
    make_model,
    omega,
)
from transpec.collisions import _positive_windows, _rho_sq
from transpec.reduced import _max_band_rho_sq
from transpec.stokes import _c2, _eta2, _resonance_mismatch
from transpec.symbols import (
    MODEL_IDS,
    DispersionSymbol,
    ModelSpec,
    _SERIES_CUTOFF,
    _j,
    _near_zero,
    _sign_changes,
    custom,
    fkdv,
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


def _masked_near_zero(x, series, closed):
    """The boolean-mask form of ``_near_zero``, the reference for its ``np.where`` form."""
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = x < _SERIES_CUTOFF
    out[small] = series(x[small])
    out[~small] = closed(x[~small])
    return out


@pytest.mark.parametrize("series, closed", [
    (lambda y: 1.0 - y**2 / 6.0, lambda y: np.sqrt(np.tanh(y) / y)),
    (lambda y: 1.0 + y**2 / 3.0, lambda y: y / np.tanh(y)),
], ids=["whitham", "ilw"])
def test_near_zero_is_bitwise_the_masked_form(series, closed):
    around = [1e-4]
    for direction in (0.0, 1.0):
        x = 1e-4
        for _ in range(60):
            x = np.nextafter(x, direction)
            around.append(x)
    x = np.concatenate([[0.0], np.geomspace(1e-12, 1e3, 4000), np.linspace(5e-5, 2e-4, 2000),
                        around, [-1e-5, -1.0, -30.0]])
    assert x.size == 6125
    ref = _masked_near_zero(x, series, closed)
    assert _near_zero(x, series, closed).tobytes() == ref.tobytes()
    scalars = np.array([_near_zero(v, series, closed) for v in x.tolist()])
    assert scalars.tobytes() == ref.tobytes()
    # a 0-d input of any type takes one branch, bitwise the np.where form
    for v in (0.0, 1e-8, np.nextafter(_SERIES_CUTOFF, 0.0), _SERIES_CUTOFF,
              np.nextafter(_SERIES_CUTOFF, 1.0), 50.0):
        ref = _near_zero(np.array([v]), series, closed)
        for x0 in (float(v), np.float64(v), np.array(v)):
            assert np.asarray(_near_zero(x0, series, closed)).tobytes() == ref.tobytes()


@pytest.mark.parametrize("mid", MODEL_IDS)
def test_kernels_keep_python_floats_bitwise(mid):
    # the polish runs the kernels on Python floats; they must round as on numpy scalars
    rng = np.random.default_rng(20241)
    xis, ks = rng.uniform(1e-4, 0.9999, 200).tolist(), rng.uniform(1e-2, 20.0, 200).tolist()
    for beta in (1.0, -1.0, 0.3):
        m = make_model(mid, beta=beta, alpha=1.5)  # only rm-fkdv-kp reads alpha
        builtin_float = m.symbol.id in ("kdv", "bo", "fkdv", "reduced")
        for xi, k in zip(xis, ks):
            v = _rho_sq(m, xi - 1.0, xi, k)
            ref = _rho_sq(m, np.float64(xi) - 1.0, np.float64(xi), np.float64(k))
            assert float(v).hex() == float(ref).hex()
            if builtin_float:
                assert type(_j(m, k)) is float and type(v) is float


def test_a_custom_callable_may_receive_a_numpy_scalar():
    seen = set()

    def square(x):
        seen.add(type(x))
        return x * x

    m = ModelSpec(custom(square), 1.0, 1, 0, 1.0)
    v = classify(m, 2.0)
    # omega and the wave pass Python floats in; the callable sees float64 only
    assert omega(m, 1, 0.5, 0.25, 2.0) == omega(make_model("rmkp"), 1, 0.5, 0.25, 2.0)
    build_wave(m, 2.0)
    assert seen == {np.float64, np.ndarray}
    assert v.thresholds == classify(make_model("rmkp"), 2.0).thresholds


def test_model_validation():
    with pytest.raises(ValidationError):
        ModelSpec(DispersionSymbol("kdv"), 1.0, 1, 0, gamma=0.0)
    with pytest.raises(ValidationError):
        ModelSpec(DispersionSymbol("kdv"), 1.0, 2, 0, gamma=1.0)
    with pytest.raises(ValidationError):
        ModelSpec(DispersionSymbol("kdv"), 1.0, 1, 1, gamma=1.0)
    with pytest.raises(ValidationError):
        fkdv(0.4)
    with pytest.raises(ValidationError):
        DispersionSymbol("nope")
    with pytest.raises(ValidationError, match="custom symbol needs a callable"):
        custom(None)
    for beta in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="beta must be finite"):
            ModelSpec(DispersionSymbol("kdv"), beta, 1, 0, gamma=1.0)


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
        return 2 * _c2(m, _eta2(m, k))

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
    for n in range(2, 9):
        def mismatch(kk, n=n):
            return _resonance_mismatch(m, kk, n)
        for k in _sign_changes(mismatch, grid, mismatch(grid), 1e-14):
            check(k, mismatch, grid, 1e-14)
    thresholds = classify(m, 1.0).thresholds
    for key, k in thresholds.items():
        if key.startswith("k_lw"):
            check(k, lambda kk: 2 * _c2(m, _eta2(m, kk)), grid, 1e-12)
        elif key.startswith("k_t1b"):
            check(k, lambda kk: _max_band_rho_sq(m, kk)[1], np.geomspace(1e-3, 1e3, 161), 1e-12)
