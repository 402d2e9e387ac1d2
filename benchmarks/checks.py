"""Properties every spectrum of the truncated operator must have.

Each function returns a list of problems (empty when the output passes), so
a workload can collect them and the benchmark's tests can show that each one
rejects a perturbed output.  Expected values come from ``reference``.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

import reference as ref

#: Growth below this counts as zero (rounding of an N = 64 dense solve sits near 1e-9).
STABLE_GROWTH = 1e-7
#: Band-centre growth must lie within this share of alpha1 k^2 eps sqrt(xi(1-xi)).
BAND_CENTRE_REL = 0.15
#: The xi = 0 growth must agree with sqrt(lambda^2) to this share.
LW_REL = 1e-2
#: |rho^2 - rho_c^2| at or beyond this many half-widths counts as outside the band.
OUTSIDE_HALFWIDTHS = 2.0


def _nearest_gap(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Distance from each target to the nearest point."""
    if points.size == 0:
        return np.full(targets.shape, np.inf)
    return np.min(np.abs(targets[:, None] - points[None, :]), axis=1)


def symmetry_problems(ev: Sequence[complex], xi: float, label: str,
                      rel: float = 1e-10) -> List[str]:
    """lambda -> -conj(lambda) always; at xi = 0 also lambda -> conj(lambda).

    Each image must land within ``rel * max(1, |lambda|)`` of an eigenvalue,
    so the small eigenvalues near the origin are held to an absolute 1e-10
    (dense solves reach about 3e-15 per unit of |lambda| at N = 64 and 256).
    """
    ev = np.asarray(ev, dtype=complex)
    if ev.size == 0:
        return [f"{label}: empty spectrum"]
    tol = rel * np.maximum(1.0, np.abs(ev))
    maps = [("-conj", lambda z: -np.conj(z))]
    if xi == 0.0:
        maps.append(("conj", np.conj))
    problems = []
    for name, fn in maps:
        excess = _nearest_gap(ev, fn(ev)) / tol
        if not np.max(excess) <= 1.0:
            i = int(np.argmax(excess))
            problems.append(f"{label}: spectrum not closed under {name} at {ev[i]:.6g}")
    return problems


def truncation_problems(coarse: Sequence[complex], fine: Sequence[complex], label: str,
                        radius: float = 10.0, tol: float = 1e-8) -> List[str]:
    """Eigenvalues near the origin must not move when N grows to ceil(3N/2)."""
    coarse = np.asarray(coarse, dtype=complex)
    near = coarse[np.abs(coarse) < radius]
    if near.size == 0:
        return [f"{label}: no eigenvalue within {radius} of the origin"]
    gap = float(np.max(_nearest_gap(np.asarray(fine, dtype=complex), near)))
    if not gap <= tol:
        return [f"{label}: eigenvalues near the origin move by {gap:.3g} from N to 3N/2"]
    return []


def band_point(m: ref.Model, k: float, eps: float, rho: float, xi: float) -> str:
    """Where (rho, xi) sits relative to the (-1, 0) band: centre, inside or outside."""
    offset = abs(rho**2 - float(ref.band_rho_sq(m, k, xi)))
    halfwidth = ref.band_halfwidth(m, k, eps, xi)
    if offset <= 1e-12 * max(1.0, rho**2):
        return "centre"
    if offset >= OUTSIDE_HALFWIDTHS * halfwidth:
        return "outside"
    return "inside"


def stable_limit(ev: Sequence[complex]) -> float:
    """Largest real part a stable spectrum may show.

    A backward-stable dense solve resolves real parts only to about
    eps * max|lambda|; at N = 256 that is above STABLE_GROWTH.
    """
    scale = float(np.max(np.abs(np.asarray(ev, dtype=complex))))
    return max(STABLE_GROWTH, 10.0 * np.finfo(float).eps * scale)


def growth_problems(ev: Sequence[complex], m: ref.Model, k: float, eps: float,
                    rho: float, xi: float, label: str) -> List[str]:
    """Band centre near the predicted peak, nothing above it, nothing outside the band."""
    max_real = float(np.max(np.asarray(ev, dtype=complex).real))
    peak = ref.band_growth(m, k, eps, xi)
    where = band_point(m, k, eps, rho, xi)
    if not math.isfinite(max_real):
        return [f"{label}: max growth {max_real}"]
    if where == "centre" and not abs(max_real - peak) <= BAND_CENTRE_REL * peak:
        return [f"{label}: band-centre growth {max_real:.6g}, predicted {peak:.6g}"]
    if where == "inside" and not max_real <= (1.0 + BAND_CENTRE_REL) * peak:
        return [f"{label}: growth {max_real:.6g} above the band peak {peak:.6g}"]
    if where == "outside" and not max_real < stable_limit(ev):
        return [f"{label}: growth {max_real:.3g} outside the band"]
    return []


def lw_growth_problems(max_real: float, m: ref.Model, k: float, eps: float,
                       rho: float, label: str) -> List[str]:
    """xi = 0 growth against the long-wavelength sqrt(lambda^2)."""
    lam2 = ref.lw_lambda2(m, k, eps, rho)
    expected = math.sqrt(lam2) if lam2 > 0 else 0.0
    if expected == 0.0:
        ok = max_real < STABLE_GROWTH
    else:
        ok = abs(max_real - expected) <= LW_REL * expected
    if not ok:
        return [f"{label}: xi=0 growth {max_real:.6g}, long-wavelength {expected:.6g}"]
    return []


def pair_problems(ev: Sequence[complex], growth: float, frequency: float, label: str,
                  growth_rel: float = 1e-2, freq_tol: float = 1e-3) -> List[str]:
    """Exactly one pair off the axis, at +-growth and at the collision frequency."""
    ev = np.asarray(ev, dtype=complex)
    pair = ev[np.abs(ev.real) > 1e-4]
    if pair.size != 2:
        return [f"{label}: {pair.size} eigenvalues off the axis, expected a pair"]
    problems = []
    if not np.all(np.abs(np.abs(pair.real) - growth) <= growth_rel * growth):
        problems.append(f"{label}: pair growth {pair.real}, predicted {growth:.6g}")
    if not np.all(np.abs(pair.imag - frequency) <= freq_tol):
        problems.append(f"{label}: pair frequency {pair.imag}, predicted {frequency:.6g}")
    if not abs(pair[0] + np.conj(pair[1])) <= 1e-8:
        problems.append(f"{label}: pair {pair} not mirrored under -conj")
    return problems


def subset_problems(part: Sequence[complex], whole: Sequence[complex], label: str,
                    tol: float = 1e-8) -> List[str]:
    """Every eigenvalue of ``part`` must be an eigenvalue of ``whole``."""
    gap = float(np.max(_nearest_gap(np.asarray(whole, dtype=complex),
                                    np.asarray(part, dtype=complex))))
    if not gap <= tol:
        return [f"{label}: eigenvalue {gap:.3g} away from the dense spectrum"]
    return []
