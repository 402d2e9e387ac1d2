"""Unperturbed spectrum: mode frequencies, Krein signatures, collisions.

At zero amplitude the linearized flow is diagonal in Fourier space with purely
imaginary eigenvalues ``i * Omega(n, rho, xi)``.  Instability at small
amplitude can only emerge where two of these frequencies collide with opposite
Krein signatures, so everything here reduces to sign analysis of the closed
form for the colliding transverse wavenumber rho^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import DomainError, ValidationError
from .symbols import ModelSpec, _omega_at_zero_rho, _sign_changes

#: rho^2 values with magnitude below this (relative to gamma) count as zero.
_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class CollisionRecord:
    """One frequency collision of the modes n and m = n + theta at (k, xi)."""

    n: int
    m: int
    xi: float
    k: float
    rho_c: float
    omega_c: float
    krein_n: int
    krein_m: int
    opposite_krein: bool
    at_origin: bool

    def as_dict(self) -> dict:
        return {
            "n": self.n, "m": self.m, "xi": self.xi, "k": self.k,
            "rho_c": self.rho_c, "omega_c": self.omega_c,
            "krein_n": self.krein_n, "krein_m": self.krein_m,
            "opposite_krein": self.opposite_krein, "at_origin": self.at_origin,
        }


def omega(model: ModelSpec, n: int, rho: float, xi: float, k: float) -> float:
    """Frequency of mode n at transverse wavenumber rho and Floquet exponent xi.

    Odd under (n, xi) -> (-n, -xi).  The composite index p = n + xi must be
    nonzero.
    """
    p = n + xi
    if p == 0.0:
        raise DomainError("omega undefined at n + xi = 0")
    if not (np.isfinite(k) and k > 0):
        raise DomainError(f"wavenumber must be positive, got {k}")
    return _omega_at_zero_rho(model, p, k) - rho**2 / p


def krein_signature(model: ModelSpec, n: int, rho: float, xi: float, k: float) -> int:
    """Sign of Omega / (n + xi); zero only for a zero frequency."""
    w = omega(model, n, rho, xi, k)
    return int(np.sign(w / (n + xi)))


def collision_rho_squared(model: ModelSpec, n: int, m: int, xi, k):
    """The unique rho^2 at which modes n and m share a frequency.

    ``xi`` and ``k`` may be arrays; the result broadcasts over them.  A
    negative value means the two frequencies never collide for real rho at
    that (k, xi).
    """
    xi = np.asarray(xi, dtype=float)
    kk = np.asarray(k, dtype=float)
    if kk.ndim > xi.ndim:  # the stacked pair [p, q] below must broadcast against k
        xi = np.broadcast_to(xi, np.broadcast_shapes(xi.shape, kk.shape))
    p, q = n + xi, m + xi
    if not (p.all() and q.all()):
        raise DomainError("collision undefined when a composite index vanishes")
    if n == m:
        raise DomainError("collision needs two distinct modes")
    if not ((kk > 0) & np.isfinite(kk)).all():
        raise DomainError(f"wavenumber must be positive, got {k}")
    ap, aq = _omega_at_zero_rho(model, np.array([p, q]), kk)
    rho_sq = p * q * (ap - aq) / (q - p)
    return rho_sq if rho_sq.ndim else float(rho_sq)


def is_origin_collision(n: int, theta: int, xi: float) -> bool:
    """True exactly for the two patterns that collide at zero frequency."""
    if theta % 2 == 0 and n == -theta // 2 and abs(xi) < 1e-12:
        return True
    if theta % 2 == 1 and n == -(theta + 1) // 2 and abs(xi - 0.5) < 1e-12:
        return True
    return False


def _positive_windows(f, grid: np.ndarray, vals: np.ndarray, lo_open: float,
                      hi_open: float) -> List[Tuple[float, float]]:
    """Maximal intervals where ``vals = f(grid) > 0``, edges refined on ``f``.

    Zero values count as non-positive, and a cell end where f vanishes is
    itself the edge.  Intervals still positive at a scan edge are extended to
    ``lo_open`` or ``hi_open`` (typically 0 and inf) since the scan cannot
    bound them.
    """
    pos = vals > 0.0
    edges = _sign_changes(f, grid, vals, 1e-12, signs=np.where(pos, 1.0, -1.0))
    bounds = [lo_open] * bool(pos[0]) + list(edges) + [hi_open] * bool(pos[-1])
    return [(float(a), float(b)) for a, b in zip(bounds[::2], bounds[1::2])]


def collision_wavenumber_window(model: ModelSpec, n: int, theta: int, xi: float = 0.0):
    """k-intervals on which the (n, n+theta) collision exists at this xi.

    Scans 512 log-spaced cells over [1e-3, 1e3] and refines every
    sign change of rho^2(k) at once to locate boundaries.  Windows still open
    at the scan edges are reported as (0, .) or (., inf).  If rho^2 vanishes
    identically (the mirror pair), the collision exists at rho = 0 for every k
    and the full half line is returned.
    """
    if theta < 1:
        raise ValidationError("theta must be a positive integer")
    m = n + theta
    grid = np.geomspace(1e-3, 1e3, 513)

    def rho_sq(k):
        return collision_rho_squared(model, n, m, xi, k)

    vals = rho_sq(grid)
    scale = max(model.gamma, float(np.max(np.abs(vals))))
    if np.max(np.abs(vals)) <= _ZERO_TOL * scale:
        return [(0.0, math.inf)]
    return _positive_windows(rho_sq, grid, vals, 0.0, math.inf)


def collision_floquet_window(model: ModelSpec, n: int, theta: int, k: float):
    """xi-intervals in (0, 1/2] on which the (n, n+theta) collision exists at this k."""
    if theta < 1:
        raise ValidationError("theta must be a positive integer")
    if not k > 0:
        raise DomainError("wavenumber must be positive")
    m = n + theta
    grid = np.linspace(0.5 / 4096, 0.5, 4096)
    # composite indices must stay nonzero on the scan
    grid = grid[(np.abs(grid + n) > 1e-9) & (np.abs(grid + m) > 1e-9)]

    def rho_sq(xi):
        return collision_rho_squared(model, n, m, xi, k)

    return _positive_windows(rho_sq, grid, rho_sq(grid), 0.0, 0.5)


def _window_witness(window: Tuple[float, float]) -> float:
    """A representative interior point of a (possibly half-open) k-window."""
    lo, hi = window
    if lo == 0.0 and math.isinf(hi):
        return 1.0
    if lo == 0.0:
        return hi / 2.0
    if math.isinf(hi):
        return 2.0 * lo
    return math.sqrt(lo * hi)


def _make_record(model: ModelSpec, n: int, theta: int, xi: float, k: float,
                 rho_sq: float) -> CollisionRecord:
    m = n + theta
    rho_c = math.sqrt(max(rho_sq, 0.0))
    w = omega(model, n, rho_c, xi, k)
    at_origin = is_origin_collision(n, theta, xi) or abs(w) < 1e-10
    if at_origin:
        # the common frequency is exactly zero; do not let rounding pick a sign
        kn = km = 0
    else:
        kn = krein_signature(model, n, rho_c, xi, k)
        km = krein_signature(model, m, rho_c, xi, k)
    return CollisionRecord(
        n=n, m=m, xi=xi, k=float(k), rho_c=rho_c, omega_c=float(w),
        krein_n=kn, krein_m=km,
        opposite_krein=(n + xi) * (m + xi) < 0,
        at_origin=at_origin,
    )


def _collision_at(model: ModelSpec, n: int, theta: int, xi: float,
                  k: Optional[float]) -> Optional[Tuple[float, float]]:
    """Find a witness (k, rho^2 >= 0) for the pair (n, n+theta) at this xi."""
    m = n + theta
    if k is not None:
        rho_sq = collision_rho_squared(model, n, m, xi, k)
        if rho_sq >= -_ZERO_TOL * model.gamma:
            return float(k), max(rho_sq, 0.0)
        return None
    windows = collision_wavenumber_window(model, n, theta, xi)
    if not windows:
        return None
    kw = _window_witness(windows[0])
    return kw, max(collision_rho_squared(model, n, m, xi, kw), 0.0)


def enumerate_potentially_unstable(model: ModelSpec, theta: int, perturbation: str,
                                   k: Optional[float] = None) -> List[CollisionRecord]:
    """Collision records that pass the opposite-Krein-signature filter.

    ``perturbation`` selects the mode space: ``"periodic"`` restricts to
    integer modes with xi = 0 (mean-zero space, so neither index may vanish);
    ``"nonperiodic"`` sweeps xi over (0, 1/2] and admits the zero mode.  When
    ``k`` is omitted, a witness wavenumber inside the first collision window
    is chosen per pair; pairs with no collision anywhere are dropped.
    """
    if theta < 1:
        raise ValidationError("theta must be a positive integer")
    if perturbation not in ("periodic", "nonperiodic"):
        raise ValidationError("perturbation must be 'periodic' or 'nonperiodic'")

    records: List[CollisionRecord] = []
    if perturbation == "periodic":
        for n in range(-theta + 1, 0):
            hit = _collision_at(model, n, theta, 0.0, k)
            if hit is not None:
                kw, rho_sq = hit
                records.append(_make_record(model, n, theta, 0.0, kw, rho_sq))
    else:
        for n in range(-theta, 0):
            for xi in [0.5 * j / 64 for j in range(64, 0, -1)]:
                if abs(n + xi) < 1e-9 or abs(n + theta + xi) < 1e-9:
                    continue
                if (n + xi) * (n + theta + xi) >= 0:
                    continue
                hit = _collision_at(model, n, theta, xi, k)
                if hit is not None:
                    kw, rho_sq = hit
                    records.append(_make_record(model, n, theta, xi, kw, rho_sq))
                    break
    return sorted(records, key=lambda r: r.n)
