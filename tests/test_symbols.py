import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from transpec import (
    DomainError,
    ValidationError,
    classify_monotonicity,
    make_model,
    validate_hypotheses,
)
from transpec.symbols import MODEL_IDS, DispersionSymbol, ModelSpec, custom, fkdv, kdv

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


def test_monotonicity_classes():
    assert classify_monotonicity(make_model("rmkp", beta=1.0)) == "increasing"
    assert classify_monotonicity(make_model("rm-whitham-kp", beta=1.0)) == "decreasing"
    assert classify_monotonicity(make_model("rmilw-kp", beta=-1.0)) == "decreasing"


@pytest.mark.parametrize("mid", ["rmkp", "rmbo-kp", "rm-whitham-kp", "rmilw-kp"])
def test_beta_flip_reverses_class(mid):
    pos = classify_monotonicity(make_model(mid, beta=1.0))
    neg = classify_monotonicity(make_model(mid, beta=-1.0))
    assert {pos, neg} == {"increasing", "decreasing"}


def test_classify_rejects_nonmonotone():
    m = ModelSpec(custom(np.sin), 1.0, 1, 0, 1.0)
    with pytest.raises(ValidationError, match="kappa"):
        classify_monotonicity(m)


def test_classify_rejects_constant():
    m = make_model("reduced-rmkp", beta=0.0)
    with pytest.raises(ValidationError, match="constant"):
        classify_monotonicity(m)


def test_hypothesis_report_fkdv():
    rep = validate_hypotheses(make_model("rm-fkdv-kp", alpha=1.5))
    assert rep.passed
    assert rep.growth_exponent == pytest.approx(1.5, abs=0.05)
    assert rep.monotonicity == "increasing"


def test_hypothesis_report_whitham():
    rep = validate_hypotheses(make_model("rm-whitham-kp"))
    assert rep.passed
    assert rep.growth_exponent == pytest.approx(-0.5, abs=0.05)
    assert rep.monotonicity == "decreasing"


@pytest.mark.parametrize("mid,b", [("rmkp", 2.0), ("rmbo-kp", 1.0), ("rmilw-kp", 1.0)])
def test_fitted_exponents_match_documentation(mid, b):
    m = make_model(mid)
    rep = validate_hypotheses(m)
    assert rep.passed
    assert rep.growth_exponent == pytest.approx(b, abs=0.05)
    assert m.symbol.growth_exponent == b


def test_hypothesis_report_sine_fails_monotone():
    rep = validate_hypotheses(ModelSpec(custom(np.sin), 1.0, 1, 0, 1.0))
    assert not rep.j3_monotone
    assert not rep.passed


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
