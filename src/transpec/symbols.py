"""Dispersion symbols and concrete model instances.

A model couples a scalar Fourier multiplier ``j(kappa)`` (even, real, strictly
monotone on ``kappa > 0``) with a dispersion scale ``beta``, quadratic/cubic
nonlinearity switches ``alpha1``/``alpha2`` and a rotation parameter
``gamma > 0``.  Every downstream formula consumes the effective symbol
``beta * j(kappa)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericalError, ValidationError

# Threshold below which the removable singularities at kappa = 0 are replaced
# by their series limits (whitham and ilw).
_SERIES_CUTOFF = 1e-4


def _near_zero(x, series, closed):
    """``closed(x)``, with ``series(x)`` below the cutoff where it has a removable singularity.

    Keeps the shape of ``x``, a scalar included; each branch sees only values
    on its own side of the cutoff, so neither overflows nor divides by zero
    for the other.
    """
    return np.where(x < _SERIES_CUTOFF, series(np.minimum(x, _SERIES_CUTOFF)),
                    closed(np.maximum(x, _SERIES_CUTOFF)))


# Built-in symbols: id -> rule on x = |kappa| given the symbol.
_RULES = {
    "kdv": lambda s, x: x * x,
    "bo": lambda s, x: x.copy(),
    "fkdv": lambda s, x: 1.0 + x**s.alpha,
    "whitham": lambda s, x: _near_zero(x, lambda y: 1.0 - y**2 / 6.0, lambda y: np.sqrt(np.tanh(y) / y)),
    "ilw": lambda s, x: _near_zero(x, lambda y: 1.0 + y**2 / 3.0, lambda y: y / np.tanh(y)),
    "reduced": lambda s, x: np.ones_like(x),
}


@dataclass(frozen=True)
class DispersionSymbol:
    """An even, real-valued Fourier multiplier rule ``kappa -> j(kappa)``.

    ``id`` selects the evaluation rule: one of ``kdv``, ``bo``, ``fkdv``
    (needs ``alpha > 1/2``), ``whitham``, ``ilw``, ``reduced`` (constant 1) or
    ``custom`` (callable ``fn``, given kappa as an array or a numpy ``float64``).
    """

    id: str
    alpha: Optional[float] = None
    # compared by ==, identity for a plain function, but not hashed: every symbol hashes
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, hash=False)

    def __post_init__(self):
        if self.id == "fkdv":
            if self.alpha is None or not self.alpha > 0.5:
                raise ValidationError("fkdv symbol needs an exponent alpha > 1/2")
        elif self.id == "custom":
            if self.fn is None:
                raise ValidationError("custom symbol needs a callable")
        elif self.id not in _RULES:
            raise ValidationError(f"unknown dispersion symbol id {self.id!r}")


def fkdv(alpha: float) -> DispersionSymbol:
    return DispersionSymbol("fkdv", alpha=alpha)


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
        """Effective symbol beta * j(kappa); even in kappa by construction for built-ins."""
        kappa = np.asarray(kappa, dtype=float)
        if not np.isfinite(kappa).all():
            raise DomainError("dispersion symbol evaluated at non-finite kappa")
        out = _j(self, kappa).reshape(kappa.shape)
        return out if out.ndim else float(out)


def _check_wavenumber(k) -> None:
    """Raise DomainError unless the wavenumber k, a number or an array, is finite and positive."""
    ok = ((np.asarray(k) > 0) & np.isfinite(k)).all() if np.ndim(k) else 0 < k < np.inf
    if not ok:
        raise DomainError(f"wavenumber must be positive, got {k}")


def _j(model: ModelSpec, x):
    """beta * j(x), with no check of x: the kernel behind ``j_eff``.

    Callers pass finite x, checked where a public call entered; a scalar
    comes back as a numpy scalar, and a custom ``fn`` gets a float64 array or
    a numpy ``float64``.
    """
    s = model.symbol
    if s.id == "custom":
        return model.beta * np.asarray(s.fn(np.asarray(x, dtype=float)[()]), dtype=float)
    return model.beta * _RULES[s.id](s, np.abs(x))


def _omega_at_zero_rho(model: ModelSpec, p, k):
    """Frequency at rho = 0 of the mode with composite index p = n + xi.

    The closed form gamma (p - 1/p) + k^2 p (j(k) - j(k p)) behind every
    collision, resonance and verdict; broadcasts over arrays of p and k.
    """
    return model.gamma * (p - 1.0 / p) + k**2 * p * (_j(model, k) - _j(model, k * p))


def _sign_changes(f, grid, values, xtol: float, signs=None) -> np.ndarray:
    """Where ``f`` changes sign in each grid cell whose end signs differ.

    ``values`` is ``f(grid)``; ``signs`` defaults to its signs, with zero and
    non-finite values carrying none, so cells touching them are skipped.  An
    exact zero between values of opposite sign is itself a root.  All cells
    are refined at once by Brent's method (R. P. Brent, *Algorithms for
    Minimization without Derivatives*, 1973) with the step rules and the
    tolerance ``xtol + 4 eps |x|`` of scipy's C code; ``f`` maps an array of
    points to their values.  The bracket is kept, so poles are found as well
    as roots, and a cell end where ``f`` is exactly zero is returned as it is.
    """
    grid, values = np.asarray(grid, dtype=float), np.asarray(values, dtype=float)
    if signs is None:
        signs = np.where(np.isfinite(values), np.sign(values), 0.0)
    on_grid = grid[1:-1][(values[1:-1] == 0) & (signs[1:-1] == 0) & (signs[:-2] * signs[2:] < 0)]
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
            return np.sort(np.append(root, on_grid))

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
    "rmkp": (DispersionSymbol("kdv"), 1, 0),
    "rmbo-kp": (DispersionSymbol("bo"), 1, 0),
    "rm-fkdv-kp": (None, 1, 0),
    "rmg-kp": (fkdv(2.0), 1, -1),
    "rm-mkdv-kp": (fkdv(2.0), 0, -1),
    "rm-whitham-kp": (DispersionSymbol("whitham"), 1, 0),
    "rmilw-kp": (DispersionSymbol("ilw"), 1, 0),
    "reduced-rmkp": (DispersionSymbol("reduced"), 1, 0),
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

