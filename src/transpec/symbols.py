"""Dispersion symbols and concrete model instances.

A model couples a scalar Fourier multiplier ``j(kappa)`` (even, real, strictly
monotone on ``kappa > 0``) with a dispersion scale ``beta``, quadratic/cubic
nonlinearity switches ``alpha1``/``alpha2`` and a rotation parameter
``gamma > 0``.  Every downstream formula consumes the effective symbol
``beta * j(kappa)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericalError, ValidationError

# Threshold below which the removable singularities at kappa = 0 are replaced
# by their series limits (whitham and ilw).
_SERIES_CUTOFF = 1e-4


def _whitham_rule(x: np.ndarray) -> np.ndarray:
    # sqrt(tanh x / x) with the series 1 - x^2/6 near x = 0
    out = np.empty_like(x)
    small = x < _SERIES_CUTOFF
    out[small] = 1.0 - x[small] ** 2 / 6.0
    xs = x[~small]
    out[~small] = np.sqrt(np.tanh(xs) / xs)
    return out


def _ilw_rule(x: np.ndarray) -> np.ndarray:
    # x * coth(x) with the series 1 + x^2/3 near x = 0
    out = np.empty_like(x)
    small = x < _SERIES_CUTOFF
    out[small] = 1.0 + x[small] ** 2 / 3.0
    xs = x[~small]
    out[~small] = xs / np.tanh(xs)
    return out


# Built-in symbols: id -> (rule on x = |kappa| given the symbol, documented
# large-kappa exponent b with j ~ kappa^b; fkdv's exponent is its alpha).
_RULES = {
    "kdv": (lambda s, x: x * x, 2.0),
    "bo": (lambda s, x: x.copy(), 1.0),
    "fkdv": (lambda s, x: 1.0 + x**s.alpha, None),
    "whitham": (lambda s, x: _whitham_rule(np.atleast_1d(x)), -0.5),
    "ilw": (lambda s, x: _ilw_rule(np.atleast_1d(x)), 1.0),
    "reduced": (lambda s, x: np.full_like(x, s.constant), 0.0),
}


@dataclass(frozen=True)
class DispersionSymbol:
    """An even, real-valued Fourier multiplier rule ``kappa -> j(kappa)``.

    ``id`` selects the evaluation rule: one of ``kdv``, ``bo``, ``fkdv``
    (needs ``alpha > 1/2``), ``whitham``, ``ilw``, ``reduced`` (constant) or
    ``custom`` (callable ``fn``).
    """

    id: str
    alpha: Optional[float] = None
    constant: float = 1.0
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.id == "fkdv":
            if self.alpha is None or not self.alpha > 0.5:
                raise ValidationError("fkdv symbol needs an exponent alpha > 1/2")
        elif self.id == "custom":
            if self.fn is None:
                raise ValidationError("custom symbol needs a callable")
        elif self.id not in _RULES:
            raise ValidationError(f"unknown dispersion symbol id {self.id!r}")

    def evaluate(self, kappa):
        """Evaluate j(kappa); even in kappa by construction for built-ins."""
        kappa = np.asarray(kappa, dtype=float)
        if not np.isfinite(kappa).all():
            raise DomainError("dispersion symbol evaluated at non-finite kappa")
        if self.id == "custom":
            out = np.asarray(self.fn(kappa), dtype=float)
        else:
            out = _RULES[self.id][0](self, np.abs(kappa))
        out = out.reshape(kappa.shape)
        return out if out.ndim else float(out)

    @property
    def growth_exponent(self) -> Optional[float]:
        """Documented large-kappa exponent b with j ~ kappa^b, when known."""
        if self.id == "fkdv":
            return self.alpha
        return _RULES[self.id][1] if self.id in _RULES else None


def kdv() -> DispersionSymbol:
    return DispersionSymbol("kdv")


def bo() -> DispersionSymbol:
    return DispersionSymbol("bo")


def fkdv(alpha: float) -> DispersionSymbol:
    return DispersionSymbol("fkdv", alpha=alpha)


def whitham() -> DispersionSymbol:
    return DispersionSymbol("whitham")


def ilw() -> DispersionSymbol:
    return DispersionSymbol("ilw")


def reduced(constant: float = 1.0) -> DispersionSymbol:
    return DispersionSymbol("reduced", constant=constant)


def custom(fn: Callable) -> DispersionSymbol:
    return DispersionSymbol("custom", fn=fn)


@dataclass(frozen=True)
class ModelSpec:
    """A concrete equation instance.

    Parameters
    ----------
    symbol : DispersionSymbol
        The raw multiplier rule j(kappa).
    beta : float
        Dispersion scale; the effective symbol is ``beta * j``.
    alpha1 : int
        Quadratic nonlinearity switch, 0 or 1.
    alpha2 : int
        Cubic nonlinearity switch, -1 or 0.
    gamma : float
        Rotation parameter, strictly positive.
    """

    symbol: DispersionSymbol
    beta: float
    alpha1: int
    alpha2: int
    gamma: float
    name: str = "custom"

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValidationError(f"gamma must be > 0, got {self.gamma}")
        if not np.isfinite(self.beta):
            raise ValidationError("beta must be finite")
        if self.alpha1 not in (0, 1):
            raise ValidationError(f"alpha1 must be 0 or 1, got {self.alpha1}")
        if self.alpha2 not in (-1, 0):
            raise ValidationError(f"alpha2 must be -1 or 0, got {self.alpha2}")

    def j_eff(self, kappa):
        """Effective symbol beta * j(kappa)."""
        return self.beta * self.symbol.evaluate(kappa)


def _omega_at_zero_rho(model: ModelSpec, p, k):
    """Frequency at rho = 0 of the mode with composite index p = n + xi.

    The closed form gamma (p - 1/p) + k^2 p (j(k) - j(k p)) behind every
    collision, resonance and verdict; broadcasts over arrays of p and k.
    """
    return model.gamma * (p - 1.0 / p) + k**2 * p * (model.j_eff(k) - model.j_eff(k * p))


def _sign_changes(f, grid, values, xtol: float, signs=None) -> np.ndarray:
    """Where ``f`` changes sign in each grid cell whose end signs differ.

    ``values`` is ``f(grid)``; ``signs`` defaults to its signs, with zero and
    non-finite values carrying none, so cells touching them are skipped.  All
    cells are refined at once by Brent's method (R. P. Brent, *Algorithms for
    Minimization without Derivatives*, 1973) with the step rules and the
    tolerance ``xtol + 4 eps |x|`` of scipy's C code; ``f`` maps an array of
    points to their values.  The bracket is kept, so poles are found as well
    as roots, and a cell end where ``f`` is exactly zero is returned as it is.
    """
    grid, values = np.asarray(grid, dtype=float), np.asarray(values, dtype=float)
    if signs is None:
        signs = np.where(np.isfinite(values), np.sign(values), 0.0)
    cells = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    xblk, xcur, fblk, fcur = grid[cells], grid[cells + 1], values[cells], values[cells + 1]
    xpre, fpre, spre, scur = xblk, fblk, xcur - xblk, xcur - xblk
    root = np.empty_like(xcur)
    at = np.arange(cells.size)  # the cells still refining; a converged cell drops out
    for _ in range(100):
        # keep [xcur, xblk] a bracket, with xcur the end of smaller |f|
        new = np.signbit(fpre) != np.signbit(fcur)
        xblk, fblk = np.where(new, xpre, xblk), np.where(new, fpre, fblk)
        spre, scur = np.where(new, xcur - xpre, spre), np.where(new, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = np.where(swap, [xcur, xblk, xcur], [xpre, xcur, xblk])
        fpre, fcur, fblk = np.where(swap, [fcur, fblk, fcur], [fpre, fcur, fblk])

        delta = (xtol + 4 * np.finfo(float).eps * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        hit = (fcur == 0) | (np.abs(sbis) < delta)
        if hit.any():
            root[at[hit]] = xcur[hit]
            at = at[~hit]
            xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                a[~hit] for a in (xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis))
        if not at.size:
            return root

        # secant or inverse quadratic step, kept only when it shrinks fast enough
        with np.errstate(all="ignore"):
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk,
                            -fcur * (xcur - xpre) / (fcur - fpre),
                            -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
        good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = np.asarray(f(xcur), dtype=float)
    raise NumericalError(f"root refinement did not converge near {xcur}")


# --- named model registry -------------------------------------------------

# id -> (symbol, alpha1, alpha2); rm-fkdv-kp's symbol fkdv(alpha) is built per call.
_MODELS = {
    "rmkp": (kdv(), 1, 0),
    "rmbo-kp": (bo(), 1, 0),
    "rm-fkdv-kp": (None, 1, 0),
    "rmg-kp": (fkdv(2.0), 1, -1),
    "rm-mkdv-kp": (fkdv(2.0), 0, -1),
    "rm-whitham-kp": (whitham(), 1, 0),
    "rmilw-kp": (ilw(), 1, 0),
    "reduced-rmkp": (reduced(1.0), 1, 0),
}

MODEL_IDS = tuple(_MODELS)


def make_model(model_id: str, gamma: float = 1.0, beta: float = 1.0,
               alpha: Optional[float] = None) -> ModelSpec:
    """Build a named model instance.

    ``alpha`` is consumed only by ``rm-fkdv-kp``.  ``reduced-rmkp`` carries a
    constant symbol, so its dynamics do not depend on ``beta``.
    """
    if model_id not in _MODELS:
        raise ValidationError(f"unknown model id {model_id!r}; known: {', '.join(MODEL_IDS)}")
    symbol, alpha1, alpha2 = _MODELS[model_id]
    if symbol is None:
        if alpha is None:
            raise ValidationError("rm-fkdv-kp needs an exponent alpha > 1/2")
        symbol = fkdv(alpha)
    return ModelSpec(symbol, beta, alpha1, alpha2, gamma, name=model_id)


# --- hypothesis checks ----------------------------------------------------

def _classify_values(grid: np.ndarray, vals: np.ndarray) -> str:
    """Sign class of a sampled function, or raise naming a violating pair."""
    d = np.diff(vals)
    tol = 1e-13 * max(1.0, float(np.max(np.abs(vals))))
    pos = d > tol
    neg = d < -tol
    if pos.any() and neg.any():
        flip = int(np.argmax(neg)) if pos.sum() >= neg.sum() else int(np.argmax(pos))
        raise ValidationError(
            "not monotone: opposite slopes around kappa in "
            f"({grid[flip]:.6g}, {grid[flip + 1]:.6g})"
        )
    if pos.any():
        return "increasing"
    if neg.any():
        return "decreasing"
    raise ValidationError(
        f"not strictly monotone: constant on the sampled grid ({grid[0]:.6g}, {grid[-1]:.6g})"
    )


def classify_monotonicity(model: ModelSpec, kappa_max: float = 10.0,
                          samples: int = 4096) -> str:
    """Classify the effective symbol beta*j as increasing or decreasing on (0, kappa_max]."""
    if not kappa_max > 0:
        raise ValidationError("kappa_max must be positive")
    if samples < 16:
        raise ValidationError("need at least 16 samples")
    grid = np.linspace(kappa_max / samples, kappa_max, samples)
    return _classify_values(grid, np.asarray(model.j_eff(grid)))


@dataclass(frozen=True)
class HypothesisReport:
    """Pass/fail record for the three multiplier requirements."""

    j1_even_real: bool
    j2_growth: bool
    j3_monotone: bool
    growth_exponent: float
    monotonicity: Optional[str]
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.j1_even_real and self.j2_growth and self.j3_monotone


def validate_hypotheses(model: ModelSpec) -> HypothesisReport:
    """Check the raw symbol against the multiplier requirements.

    J1: even, real-valued, finite away from 0.  J2: power-law growth bound
    at large kappa with fitted exponent b >= -1.  J3: strictly monotone on
    kappa > 0.  Failures are reported, never raised.
    """
    sym = model.symbol
    grid = np.linspace(1e-3, 20.0, 1000)
    try:
        right = np.asarray(sym.evaluate(grid), dtype=float)
        left = np.asarray(sym.evaluate(-grid), dtype=float)
        j1 = bool(np.all(np.isfinite(right)) and np.max(np.abs(right - left)) == 0.0)
    except Exception:
        j1 = False

    b = float("nan")
    j2 = False
    try:
        big = np.logspace(2, 4, 64)
        vals = np.asarray(sym.evaluate(big), dtype=float)
        if np.all(vals > 0):
            logk = np.log(big)
            logj = np.log(vals)
            b, intercept = np.polyfit(logk, logj, 1)
            resid = logj - (b * logk + intercept)
            j2 = bool(np.max(np.abs(resid)) < 0.1 and b >= -1.0 - 1e-9)
    except Exception:
        pass

    mono: Optional[str] = None
    notes = ""
    try:
        mono = _classify_values(grid, np.asarray(sym.evaluate(grid), dtype=float))
        j3 = True
    except ValidationError as exc:
        j3 = False
        notes = str(exc)

    return HypothesisReport(j1, j2, j3, float(b), mono, notes)
