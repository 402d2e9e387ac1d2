"""Finite-dimensional bifurcation analysis and stability verdicts.

Two instability channels exist at small amplitude: the long-wavelength double
zero eigenvalue (co-periodic perturbations, transverse wavenumber near 0) and
the adjacent-mode collision band (non-periodic perturbations, finite
transverse wavenumber).  Wider mode separations never bifurcate, so verdicts
reduce to the sign of one margin function per channel.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .collisions import collision_rho_squared
from .errors import DomainError
from .stokes import _eta2, _resonance_mismatch, check_resonance
from .symbols import ModelSpec, _sign_changes, make_model

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Floquet exponents of the band-peak scan.  Its two-cell polish bracket is
#: (0, 1/2] shrunk by six golden steps (2/36 ~ 0.618^6), so the polish ends at
#: the resolution of one golden search over the whole interval.
_XI_SCAN = np.linspace(1e-4, 0.5, 37)

#: Column keys of the stability atlas, in presentation order.
ATLAS_COLUMNS = (
    "lw_periodic_beta_pos",
    "lw_periodic_beta_nonpos",
    "lw_nonperiodic",
    "fsw_periodic",
    "fsw_nonperiodic_beta_pos",
    "fsw_nonperiodic_beta_nonpos",
)

ATLAS_MODELS = (
    "rmbo-kp",
    "rm-fkdv-kp",
    "rmg-kp",
    "rm-mkdv-kp",
    "rm-whitham-kp",
    "rmilw-kp",
)


@dataclass(frozen=True)
class Verdict:
    """A stability decision with the analysis tag and thresholds behind it."""

    outcome: str                       # "unstable" | "stable"
    theorem: str                       # analysis tag, e.g. "t1".."t8"
    thresholds: Dict[str, float] = field(default_factory=dict)
    conditions: List[Tuple[str, bool]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "theorem": self.theorem,
            "thresholds": dict(self.thresholds),
            "conditions": [list(c) for c in self.conditions],
        }


@dataclass(frozen=True)
class Theta1Band:
    """The adjacent-pair instability band at one Floquet exponent."""

    xi: float
    rho_c_sq: float
    halfwidth: float
    growth_peak: float

    @property
    def exists(self) -> bool:
        return self.rho_c_sq > 0


def _is_kdv_quadratic(model: ModelSpec) -> bool:
    """True for the plain quadratic kdv-symbol family (dedicated verdict tags)."""
    return model.symbol.id == "kdv" and model.alpha1 == 1 and model.alpha2 == 0


def _channel_verdict(model: ModelSpec, unstable, thresholds: Dict[str, float], key: str,
                     onsets, tags: Tuple[str, str], condition: str) -> Verdict:
    """One channel's verdict, with ``onsets`` as thresholds ``key``, ``key_2``, ...

    ``tags`` name the (kdv family, general) analysis that applies when the
    channel is unstable here or has an onset; otherwise it is t3 or t7.
    """
    for i, kf in enumerate(onsets):
        thresholds[key if i == 0 else f"{key}_{i + 1}"] = float(kf)
    kdv_family = _is_kdv_quadratic(model)
    tag = tags[not kdv_family] if unstable or onsets.size else ("t3" if kdv_family else "t7")
    return Verdict("unstable" if unstable else "stable", tag, thresholds,
                   [(condition, bool(unstable))])


def golden_max(f, lo, hi):
    """Golden-section maximizer of a unimodal function on [lo, hi], to 1e-8 in x.

    ``lo`` and ``hi`` may be arrays of brackets of one width; ``f`` then takes
    an array of points and every bracket is narrowed in the same steps.
    """
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while np.max(b - a) > 1e-8:
        left = fc > fd  # the peak lies in [a, d], whose upper inner point is c
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        new = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        f_new = f(new)
        c, fc = np.where(left, new, kept), np.where(left, f_new, f_kept)
        d, fd = np.where(left, kept, new), np.where(left, f_kept, f_new)
    x = 0.5 * (a + b)
    return x, f(x)


# --- long-wavelength channel ------------------------------------------------

def _lw_margin_raw(model: ModelSpec, k):
    """Unguarded margin; poles exactly at the first resonance (a verdict boundary)."""
    return 1.5 * model.alpha2 + 2.0 * model.alpha1 * _eta2(model, k)


def lw_margin(model: ModelSpec, k: float) -> float:
    """Margin (3/2) alpha2 + 2 alpha1 eta2(k); negative means unstable."""
    check_resonance(model, k)
    return float(_lw_margin_raw(model, k))


def long_wavelength_lambda2(model: ModelSpec, k: float, eps: float, rho: float) -> float:
    """Leading-order squared growth rate of the pair bifurcating from zero.

    Positive values predict a real eigenvalue pair +/- sqrt(lambda^2); a
    negative value keeps the pair on the imaginary axis.
    """
    check_resonance(model, k)
    if abs(rho) > 0.1 or abs(eps) > 0.1:
        warnings.warn("long-wavelength reduction assumes |rho|, |eps| small",
                      stacklevel=2)
    return -(rho**2) * (rho**2 + k**2 * eps**2 * lw_margin(model, k))


def long_wavelength_verdict(model: ModelSpec, k: float) -> Verdict:
    """Verdict for co-periodic perturbations with long transverse wavelength."""
    margin = lw_margin(model, k)
    unstable = margin < 0
    grid = np.geomspace(1e-3, 1e3, 513)
    def cleared(kk):
        # the margin times mismatch_2^2: its sign, with its poles made simple roots
        m = _resonance_mismatch(model, kk, 2)
        return m * (1.5 * model.alpha2 * m - model.alpha1**2 * kk**2)

    flips = _sign_changes(cleared, grid, cleared(grid), 1e-12)
    return _channel_verdict(model, unstable, {"lw_margin": float(margin)}, "k_lw", flips,
                            ("t1", "t5"), "(3/2) alpha2 + 2 alpha1 eta2 < 0")


# --- adjacent-pair band channel ----------------------------------------------

def theta1_band(model: ModelSpec, k: float, eps: float, xi: float) -> Theta1Band:
    """Instability band data for the adjacent pair (-1, 0) at this xi.

    The band exists when the collision wavenumber rho_c^2 is positive; its
    half-width is measured in rho^2 units.
    """
    if not (0 < xi <= 0.5):
        raise DomainError(f"xi must lie in (0, 1/2], got {xi}")
    if not k > 0:
        raise DomainError("wavenumber must be positive")
    rho_c_sq = collision_rho_squared(model, -1, 0, xi, k)
    halfwidth = 2.0 * model.alpha1 * k**2 * (xi * (1 - xi)) ** 1.5 * abs(eps)
    growth = model.alpha1 * k**2 * abs(eps) * math.sqrt(xi * (1 - xi))
    return Theta1Band(xi=float(xi), rho_c_sq=float(rho_c_sq),
                      halfwidth=float(halfwidth), growth_peak=float(growth))


def _max_band_rho_sq(model: ModelSpec, k):
    """Maximize rho_c^2 over xi in (0, 1/2] at each k; returns (xi_star, value).

    The best point of a scan over ``_XI_SCAN`` picks the peak, so several
    local maxima in xi do not mislead it; a golden-section polish on the two
    scan cells around that point finishes.  Broadcasts over an array of k.
    """
    k = np.asarray(k, dtype=float)
    scan = collision_rho_squared(model, -1, 0, _XI_SCAN, k[..., None])
    best = np.clip(np.argmax(scan, axis=-1), 1, _XI_SCAN.size - 2)
    return golden_max(lambda xi: collision_rho_squared(model, -1, 0, xi, k),
                      _XI_SCAN[best - 1], _XI_SCAN[best + 1])


def theta1_verdict(model: ModelSpec, k: float) -> Verdict:
    """Verdict for non-periodic perturbations with finite transverse wavelength."""
    if not k > 0:
        raise DomainError("wavenumber must be positive")
    grid = np.geomspace(1e-3, 1e3, 161)
    xis, peaks = _max_band_rho_sq(model, np.append(grid, k))
    xi_star, best = xis[-1], peaks[-1]
    unstable = best > 0
    thresholds: Dict[str, float] = {"xi_star": float(xi_star), "rho_c_sq_max": float(best)}
    if unstable:
        thresholds["rho_c"] = math.sqrt(best)

    # the (-1, 0) pair has no poles, so the band peak is continuous in k;
    # every onset advances in the same array call
    flips = _sign_changes(lambda kk: _max_band_rho_sq(model, kk)[1], grid, peaks[:-1], 1e-12)
    return _channel_verdict(model, unstable, thresholds, "k_t1b", flips, ("t2", "t6"),
                            "rho_c^2(xi) > 0 for some xi in (0, 1/2]")


def classify(model: ModelSpec, k: float) -> Verdict:
    """Merged per-wavenumber verdict over both instability channels."""
    lw = long_wavelength_verdict(model, k)
    t1 = theta1_verdict(model, k)
    unstable = lw.outcome == "unstable" or t1.outcome == "unstable"
    thresholds = dict(lw.thresholds)
    thresholds.update(t1.thresholds)
    if lw.outcome == "unstable":
        tag = lw.theorem
    elif t1.outcome == "unstable":
        tag = t1.theorem
    else:
        tag = lw.theorem
    conditions = [("long-wavelength channel unstable", lw.outcome == "unstable"),
                  ("finite-wavelength band channel unstable", t1.outcome == "unstable")]
    return Verdict(outcome="unstable" if unstable else "stable", theorem=tag,
                   thresholds=thresholds, conditions=conditions)


# --- existence-over-k atlas ---------------------------------------------------

def atlas(gamma: float = 1.0, fkdv_alpha: float = 1.5) -> Dict[str, Dict[str, Verdict]]:
    """Existence verdicts ('unstable for some k > 0') per model and perturbation class.

    Each model of ``ATLAS_MODELS`` is instantiated at beta = +1 and beta = -1
    with the given gamma, on 61 log-spaced k in [1e-3, 1e3]; columns pin the
    beta sign they quantify over.
    """
    k_grid = np.geomspace(1e-3, 1e3, 61)

    def cell(unstable_at, model, kdv_tag, general_tag, condition):
        # unstable_at: one flag per k_grid point; the first unstable k is the witness
        witnesses = np.nonzero(unstable_at)[0]
        hit = bool(witnesses.size)
        tag = (kdv_tag if _is_kdv_quadratic(model) else general_tag) if hit else "t7"
        return Verdict("unstable" if hit else "stable", tag,
                       {"k_witness": float(k_grid[witnesses[0]])} if hit else {},
                       [(condition, hit)])

    def band_unstable(model):
        return _max_band_rho_sq(model, k_grid)[1] > 0

    lw = "exists k with negative long-wavelength margin"
    band = "exists (k, xi) with positive band rho_c^2"
    table: Dict[str, Dict[str, Verdict]] = {}
    for mid in ATLAS_MODELS:
        alpha = fkdv_alpha if mid == "rm-fkdv-kp" else None
        pos = make_model(mid, gamma=gamma, beta=1.0, alpha=alpha)
        neg = make_model(mid, gamma=gamma, beta=-1.0, alpha=alpha)
        table[mid] = {
            "lw_periodic_beta_pos": cell(_lw_margin_raw(pos, k_grid) < 0, pos, "t1", "t5", lw),
            "lw_periodic_beta_nonpos": cell(_lw_margin_raw(neg, k_grid) < 0, neg, "t1", "t5", lw),
            # no opposite-signature collisions reach rho = 0 away from xi = 0
            "lw_nonperiodic": Verdict(
                "stable", "lk1", {},
                [("no potentially unstable node at long wavelength", False)]),
            # separated pairs have a positive separation discriminant
            "fsw_periodic": Verdict(
                "stable", "t4" if _is_kdv_quadratic(pos) else "t8", {},
                [("mode-pair separation discriminant stays positive", False)]),
            "fsw_nonperiodic_beta_pos": cell(band_unstable(pos), pos, "t2", "t6", band),
            "fsw_nonperiodic_beta_nonpos": cell(band_unstable(neg), neg, "t2", "t6", band),
        }
    return table
