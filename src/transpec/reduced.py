"""Finite-dimensional bifurcation analysis and stability verdicts.

Two instability channels exist at small amplitude: the long-wavelength double
zero eigenvalue (co-periodic perturbations, transverse wavenumber near 0) and
the adjacent-mode collision band (non-periodic perturbations, finite
transverse wavenumber).  At O(eps) wider mode separations do not bifurcate,
so verdicts reduce to the sign of one margin function per channel.  They are
O(eps) statements: opposite-signature collisions of modes two and three apart
grow at O(eps^2) and O(eps^3) where they read stable (rmbo-kp, beta = -1, k = 2).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Tuple

import numpy as np

from .collisions import _rho_sq, collision_rho_squared
from .errors import DomainError
from .stokes import _c2, _eta2, _resonance_mismatch, check_resonance
from .symbols import ModelSpec, _check_wavenumber, _sign_changes, make_model

#: Golden-section fraction and sqrt(eps) of Brent's minimiser, as scipy writes them.
_CGOLD = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)

#: Floquet exponents of the band-peak scan; the polish brackets two of its
#: 36 cells around the best point.
_XI_SCAN = np.linspace(1e-4, 0.5, 37)

#: Models whose onset tables are kept, most recently used first; a model is
#: its key, so an equal model reuses its tables.
_ONSET_MEMO_SIZE = 64

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


@dataclass(frozen=True, slots=True)
class Verdict:
    """A stability decision with the analysis tag and thresholds behind it.

    ``classify`` and the channel verdicts return a fresh ``thresholds`` dict;
    ``atlas`` cells share read-only ones between tables.
    """

    outcome: str                       # "unstable" | "stable"
    theorem: str                       # analysis tag, e.g. "t1".."t8"
    thresholds: Mapping[str, float] = field(default_factory=dict)
    conditions: Tuple[Tuple[str, bool], ...] = ()

    def as_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "theorem": self.theorem,
            "thresholds": dict(self.thresholds),
            "conditions": [list(c) for c in self.conditions],
        }


@dataclass(frozen=True, slots=True)
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
        thresholds[key if i == 0 else f"{key}_{i + 1}"] = kf
    kdv_family = _is_kdv_quadratic(model)
    tag = tags[not kdv_family] if unstable or onsets else ("t3" if kdv_family else "t7")
    return Verdict("unstable" if unstable else "stable", tag, thresholds,
                   ((condition, bool(unstable)),))


def golden_max(f, lo, hi):
    """Maximizer of ``f`` on [lo, hi] by Brent's method, to an x-tolerance of 1e-8.

    Brent's bounded minimiser (R. P. Brent, *Algorithms for Minimization
    without Derivatives*, 1973) of -f, with the step rules and the tolerance
    of scipy's ``fminbound`` at ``xatol=1e-8``: a parabola through the three
    best points, or a golden-section step where it is not acceptable.  ``lo``
    and ``hi`` may be arrays of brackets.  Each bracket keeps its own Brent
    state in Python floats, and ``f`` gets one array call per step, on an
    array of the brackets' shape (a numpy scalar for a scalar bracket) that
    holds every bracket's next point; a converged bracket resubmits its best
    point.  Returns the best point found and its value.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    shape = lo.shape

    def neg_f(points):
        values = np.asarray(f(np.array(points).reshape(shape)[()]), dtype=float)
        return (-values.ravel()).tolist()

    ends = list(zip(lo.ravel().tolist(), hi.ravel().tolist()))
    points = [a + _CGOLD * (b - a) for a, b in ends]
    # per bracket: a, b, x, w, v, fx, fw, fv, d, e
    state = [(a, b, x, x, x, fx, fx, fx, 0.0, 0.0)
             for (a, b), x, fx in zip(ends, points, neg_f(points))]
    stepping, values = range(len(state)), None
    while stepping:
        live, stepping = stepping, []
        for i in live:
            a, b, x, w, v, fx, fw, fv, d, e = state[i]
            if values is not None:
                # u becomes the best point x, or the bracket end on its side of
                # x, and takes its rank among the three best points x, w and v
                u, fu = points[i], values[i]
                if fu <= fx:
                    if u >= x:
                        a = x
                    else:
                        b = x
                    v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
                else:
                    if u < x:
                        a = u
                    else:
                        b = u
                    if fu <= fw or w == x:
                        v, fv, w, fw = w, fw, u, fu
                    elif fu <= fv or v == x or v == w:
                        v, fv = u, fu
            mid = 0.5 * (a + b)
            tol1 = _SQRT_EPS * abs(x) + 1e-8 / 3.0
            tol2 = 2.0 * tol1
            if abs(x - mid) > tol2 - 0.5 * (b - a):
                # the parabola through x, w and v is taken when its vertex lies
                # inside the bracket and moves less than half the step before last
                parab = False
                if abs(e) > tol1:
                    r = (x - w) * (fx - fv)
                    q = (x - v) * (fx - fw)
                    p = (x - v) * q - (x - w) * r
                    q = 2.0 * (q - r)
                    if q > 0.0:
                        p = -p
                    q = abs(q)
                    parab = abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x)
                if parab:
                    e, d = d, p / q
                    if x + d - a < tol2 or b - (x + d) < tol2:
                        d = -tol1 if mid < x else tol1
                else:
                    e = (a if x >= mid else b) - x
                    d = _CGOLD * e
                size = max(abs(d), tol1)
                points[i] = x - size if d < 0 else x + size
                stepping.append(i)
            else:
                points[i] = x
            state[i] = a, b, x, w, v, fx, fw, fv, d, e
        if stepping:
            values = neg_f(points)
    xs = np.reshape([s[2] for s in state], shape)
    return xs[()], -np.reshape([s[5] for s in state], shape)[()]


# --- long-wavelength channel ------------------------------------------------

def _lw_margin_cleared(model: ModelSpec, k):
    """The margin times mismatch_2^2: its sign, with its poles made simple roots.

    Finite everywhere, and 0 exactly at an n = 2 resonance; broadcasts over k.
    """
    m = _resonance_mismatch(model, k, 2)
    return m * (1.5 * model.alpha2 * m - model.alpha1**2 * k**2)


def lw_margin(model: ModelSpec, k: float) -> float:
    """Margin (3/2) alpha2 + 2 alpha1 eta2(k) = 2 c2(k); negative means unstable."""
    check_resonance(model, k)
    return float(2.0 * _c2(model, _eta2(model, k)))


def long_wavelength_lambda2(model: ModelSpec, k: float, eps: float, rho: float) -> float:
    """Leading-order squared growth rate of the pair bifurcating from zero.

    Positive values predict a real eigenvalue pair +/- sqrt(lambda^2); a
    negative value keeps the pair on the imaginary axis.
    """
    margin = lw_margin(model, k)
    if abs(rho) > 0.1 or abs(eps) > 0.1:
        warnings.warn("long-wavelength reduction assumes |rho|, |eps| small",
                      stacklevel=2)
    return -(rho**2) * (rho**2 + k**2 * eps**2 * margin)


@functools.lru_cache(maxsize=_ONSET_MEMO_SIZE)
def _lw_onsets(model: ModelSpec) -> Tuple[float, ...]:
    """Every k in [1e-3, 1e3] where the long-wavelength margin changes sign."""
    grid = np.geomspace(1e-3, 1e3, 513)

    cleared = functools.partial(_lw_margin_cleared, model)
    return tuple(_sign_changes(cleared, grid, cleared(grid), 1e-12).tolist())


def long_wavelength_verdict(model: ModelSpec, k: float) -> Verdict:
    """Verdict for co-periodic perturbations with long transverse wavelength."""
    margin = lw_margin(model, k)
    return _channel_verdict(model, margin < 0, {"lw_margin": margin}, "k_lw",
                            _lw_onsets(model), ("t1", "t5"), "(3/2) alpha2 + 2 alpha1 eta2 < 0")


# --- adjacent-pair band channel ----------------------------------------------

def theta1_band(model: ModelSpec, k: float, eps: float, xi: float) -> Theta1Band:
    """Instability band data for the adjacent pair (-1, 0) at this xi.

    The band exists when the collision wavenumber rho_c^2 is positive; its
    half-width is measured in rho^2 units.
    """
    if not (0 < xi <= 0.5):
        raise DomainError(f"xi must lie in (0, 1/2], got {xi}")
    rho_c_sq = collision_rho_squared(model, -1, 0, xi, k)
    halfwidth = 2.0 * model.alpha1 * k**2 * (xi * (1 - xi)) ** 1.5 * abs(eps)
    growth = model.alpha1 * k**2 * abs(eps) * math.sqrt(xi * (1 - xi))
    return Theta1Band(xi=float(xi), rho_c_sq=float(rho_c_sq),
                      halfwidth=float(halfwidth), growth_peak=float(growth))


def _max_band_rho_sq(model: ModelSpec, k):
    """Maximize rho_c^2 over xi in (0, 1/2] at each k; returns (xi_star, value).

    The best point of a scan over ``_XI_SCAN`` picks the peak, so several
    local maxima in xi do not mislead it; Brent's method on the two scan
    cells around that point finishes.  rho_c^2 is even about xi = 1/2 when j
    is even (J1), so a peak next to the xi = 1/2 end is polished on the
    bracket reflected across it, where it is interior, and folded back.
    Where the polish falls short of the scan's best point, that point is
    returned.  Broadcasts over an array of k, which its callers have checked
    to be finite and positive; every xi it tries lies in (0, 1), so neither
    composite index vanishes.
    """
    k = np.asarray(k, dtype=float)[()]
    scan = _rho_sq(model, _XI_SCAN - 1.0, _XI_SCAN, k[..., None])
    top = np.argmax(scan, axis=-1)
    best = np.clip(top, 1, _XI_SCAN.size - 2)
    lo = _XI_SCAN[best - 1]
    hi = np.where(best == _XI_SCAN.size - 2, 1.0 - lo, _XI_SCAN[best + 1])
    # a best scan point at the xi = 1e-4 end that falls away to its right is
    # the peak; its bracket shrinks to that point instead of creeping to it
    if (top == 0).any():
        edge = _XI_SCAN[0] + 1e-8
        rise = _rho_sq(model, edge - 1.0, edge, k) >= scan[..., 0]
        hi = np.where((top == 0) & ~rise, lo, hi)
    xi, peak = golden_max(lambda x: _rho_sq(model, x - 1.0, x, k), lo, hi)
    scan_max = scan.max(axis=-1)
    short = peak < scan_max
    return (np.where(short, _XI_SCAN[top], np.minimum(xi, 1.0 - xi))[()],
            np.where(short, scan_max, peak)[()])


@functools.lru_cache(maxsize=_ONSET_MEMO_SIZE)
def _band_onsets(model: ModelSpec) -> Tuple[float, ...]:
    """Every k in [1e-3, 1e3] where the band peak max over xi of rho_c^2 changes sign."""
    grid = np.geomspace(1e-3, 1e3, 161)

    # the (-1, 0) pair has no poles, so the band peak is continuous in k;
    # every onset advances in the same array call
    def peak(kk):
        return _max_band_rho_sq(model, kk)[1]

    return tuple(_sign_changes(peak, grid, peak(grid), 1e-12).tolist())


def theta1_verdict(model: ModelSpec, k: float) -> Verdict:
    """Verdict for non-periodic perturbations with finite transverse wavelength."""
    _check_wavenumber(k)
    xi_star, best = _max_band_rho_sq(model, k)
    unstable = best > 0
    thresholds: Dict[str, float] = {"xi_star": float(xi_star), "rho_c_sq_max": float(best)}
    if unstable:
        thresholds["rho_c"] = math.sqrt(best)
    return _channel_verdict(model, unstable, thresholds, "k_t1b", _band_onsets(model),
                            ("t2", "t6"), "rho_c^2(xi) > 0 for some xi in (0, 1/2]")


#: The conditions of a merged verdict, by (long-wavelength, band) channel instability.
_CLASSIFY_CONDITIONS = {
    (lw, band): (("long-wavelength channel unstable", lw),
                 ("finite-wavelength band channel unstable", band))
    for lw in (False, True) for band in (False, True)
}


def classify(model: ModelSpec, k: float) -> Verdict:
    """Merged per-wavenumber verdict over both instability channels."""
    lw = long_wavelength_verdict(model, k)
    t1 = theta1_verdict(model, k)
    lw_unstable, t1_unstable = lw.outcome == "unstable", t1.outcome == "unstable"
    thresholds = dict(lw.thresholds)
    thresholds.update(t1.thresholds)
    tag = t1.theorem if t1_unstable and not lw_unstable else lw.theorem
    return Verdict(outcome="unstable" if lw_unstable or t1_unstable else "stable", theorem=tag,
                   thresholds=thresholds,
                   conditions=_CLASSIFY_CONDITIONS[lw_unstable, t1_unstable])


# --- existence-over-k atlas ---------------------------------------------------

#: The atlas's k grid.
_ATLAS_K = np.geomspace(1e-3, 1e3, 61)

# Every table shares the parts of its cells that repeat: the thresholds of a
# cell without a witness and of each witness k, the conditions, and the cells
# that hold no threshold.  All of them are immutable.
_NO_THRESHOLDS: Mapping[str, float] = MappingProxyType({})
_WITNESS = tuple(MappingProxyType({"k_witness": k}) for k in _ATLAS_K.tolist())
_LW_EXISTS = "exists k with negative long-wavelength margin"
_BAND_EXISTS = "exists (k, xi) with positive band rho_c^2"
_HIT = {c: ((c, True),) for c in (_LW_EXISTS, _BAND_EXISTS)}
_NO_WITNESS = {c: Verdict("stable", "t7", _NO_THRESHOLDS, ((c, False),))
               for c in (_LW_EXISTS, _BAND_EXISTS)}
# no opposite-signature collisions reach rho = 0 away from xi = 0
_LW_NONPERIODIC = Verdict("stable", "lk1", _NO_THRESHOLDS,
                          (("no potentially unstable node at long wavelength", False),))
# separated pairs have a positive separation discriminant
_FSW_PERIODIC = Verdict("stable", "t8", _NO_THRESHOLDS,
                        (("mode-pair separation discriminant stays positive", False),))


def atlas(gamma: float = 1.0, fkdv_alpha: float = 1.5) -> Dict[str, Dict[str, Verdict]]:
    """Existence verdicts ('unstable for some k > 0') per model and perturbation class.

    Each model of ``ATLAS_MODELS`` is instantiated at beta = +1 and beta = -1
    with the given gamma, on 61 log-spaced k in [1e-3, 1e3]; columns pin the
    beta sign they quantify over.  No atlas model has the kdv symbol, so every
    cell takes the general analysis tag.
    """
    def cell(unstable_at, tag, condition):
        # unstable_at: one flag per _ATLAS_K point; the first unstable k is the witness
        witnesses = np.flatnonzero(unstable_at)
        if not witnesses.size:
            return _NO_WITNESS[condition]
        return Verdict("unstable", tag, _WITNESS[witnesses[0]], _HIT[condition])

    table: Dict[str, Dict[str, Verdict]] = {}
    for mid in ATLAS_MODELS:
        lw, band = [], []
        for beta in (1.0, -1.0):
            model = make_model(mid, gamma=gamma, beta=beta, alpha=fkdv_alpha)
            lw.append(cell(_lw_margin_cleared(model, _ATLAS_K) < 0, "t5", _LW_EXISTS))
            band.append(cell(_max_band_rho_sq(model, _ATLAS_K)[1] > 0, "t6", _BAND_EXISTS))
        table[mid] = dict(zip(ATLAS_COLUMNS, (*lw, _LW_NONPERIODIC, _FSW_PERIODIC, *band)))
    return table
