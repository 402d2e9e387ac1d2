"""Unperturbed spectrum: mode frequencies, Krein signatures, collisions.

At zero amplitude the linearized flow is diagonal in Fourier space with purely
imaginary eigenvalues ``i * Omega(n, rho, xi)``.  Instability at small
amplitude can only emerge where two of these frequencies collide with opposite
Krein signatures, so everything here reduces to sign analysis of the closed
form for the colliding transverse wavenumber rho^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

import numpy as np

from .errors import DomainError, ValidationError
from .symbols import ModelSpec, _check_wavenumber, _omega_at_zero_rho, _sign_changes

#: rho^2 values with magnitude below this (relative to gamma) count as zero.
_ZERO_TOL = 1e-12


@dataclass(frozen=True, slots=True)
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
        return {f.name: getattr(self, f.name) for f in fields(self)}


def omega(model: ModelSpec, n: int, rho: float, xi: float, k: float) -> float:
    """Frequency of mode n at transverse wavenumber rho and Floquet exponent xi.

    Odd under (n, xi) -> (-n, -xi).  The composite index p = n + xi must be
    nonzero.
    """
    p = n + xi
    if p == 0.0:
        raise DomainError("omega undefined at n + xi = 0")
    _check_wavenumber(k)
    return float(_omega_at_zero_rho(model, p, k) - rho**2 / p)


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
    p, q = n + xi, m + xi
    if not (p.all() and q.all()):
        raise DomainError("collision undefined when a composite index vanishes")
    if n == m:
        raise DomainError("collision needs two distinct modes")
    _check_wavenumber(k)
    rho_sq = _rho_sq(model, p, q, kk)
    return rho_sq if rho_sq.ndim else float(rho_sq)


def _rho_sq(model: ModelSpec, p, q, k):
    """rho^2 at which the modes of composite indices p and q share a frequency.

    The kernel behind ``collision_rho_squared``: no check of its inputs, which
    broadcast and keep their type, so Python floats give a Python float.
    """
    return p * q * (_omega_at_zero_rho(model, p, k) - _omega_at_zero_rho(model, q, k)) / (q - p)


def _is_origin_collision(n: int, theta: int, xi: float) -> bool:
    """True for the mirror pair n + xi = -(n + theta + xi), which collides at zero frequency."""
    return abs(xi + (n + theta / 2)) < 1e-12


def _check_theta(theta: int) -> None:
    if theta < 1:
        raise ValidationError("theta must be a positive integer")


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
    _check_theta(theta)
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
    _check_theta(theta)
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
    at_origin = _is_origin_collision(n, theta, xi) or abs(w) < 1e-10
    if at_origin:
        # the common frequency is exactly zero; do not let rounding pick a sign
        kn = km = 0
    else:
        # both modes share the frequency w, so each signature is the sign of w / (j + xi)
        kn, km = (int(np.sign(w / (j + xi))) for j in (n, m))
    return CollisionRecord(
        n=n, m=m, xi=xi, k=float(k), rho_c=rho_c, omega_c=float(w),
        krein_n=kn, krein_m=km,
        opposite_krein=(n + xi) * (m + xi) < 0,
        at_origin=at_origin,
    )


def enumerate_potentially_unstable(model: ModelSpec, theta: int, perturbation: str,
                                   k: Optional[float] = None) -> List[CollisionRecord]:
    """Collision records that pass the opposite-Krein-signature filter.

    ``perturbation`` selects the mode space: ``"periodic"`` restricts to
    integer modes with xi = 0 (mean-zero space, so neither index may vanish);
    ``"nonperiodic"`` admits the zero mode and keeps, per pair, the largest
    xi in 1/128, 2/128, ..., 1/2 at which it collides.  When
    ``k`` is omitted, a witness wavenumber inside the first collision window
    is chosen per pair; pairs with no collision anywhere are dropped.
    """
    _check_theta(theta)
    if perturbation not in ("periodic", "nonperiodic"):
        raise ValidationError("perturbation must be 'periodic' or 'nonperiodic'")

    records: List[CollisionRecord] = []
    periodic = perturbation == "periodic"
    for n in range(-theta + periodic, 0):
        for xi in [0.0] if periodic else [j / 128 for j in range(64, 0, -1)]:
            kw = k
            if k is None:
                windows = collision_wavenumber_window(model, n, theta, xi)
                if not windows:
                    continue
                kw = _window_witness(windows[0])
            rho_sq = collision_rho_squared(model, n, n + theta, xi, kw)
            if rho_sq >= -_ZERO_TOL * model.gamma:
                records.append(_make_record(model, n, theta, xi, float(kw), rho_sq))
                break
    return records
