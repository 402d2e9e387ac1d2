"""Expected values computed straight from the model equations.

Nothing here imports ``transpec``: the formulas are written again from the
equations so that the benchmark can judge the program's outputs instead of
echoing them.  Only numpy is used, and every scan is evaluated in chunks of
at most ``_CHUNK`` points so that the reference never sets the workload's
peak memory.

Conventions.  A model is the traveling-wave equation

    k^2 (-c eta'' + J eta'' + alpha1 (eta^2)'' + alpha2 (eta^3)'') - gamma eta = 0

with the effective symbol ``J = beta * j``.  Linearising about the zero wave,
the Bloch mode ``exp(i p z)`` with ``p = n + xi`` and transverse wavenumber
``rho`` has frequency

    Omega(p, rho) = gamma (p - 1/p) + k^2 p (J(k) - J(k p)) - rho^2 / p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

import numpy as np

_CHUNK = 8192

#: The named models: raw symbol id and the nonlinearity switches (alpha1, alpha2).
MODELS = {
    "rmkp": ("kdv", 1, 0),
    "rmbo-kp": ("bo", 1, 0),
    "rm-fkdv-kp": ("fkdv", 1, 0),
    "rmg-kp": ("gardner", 1, -1),
    "rm-mkdv-kp": ("gardner", 0, -1),
    "rm-whitham-kp": ("whitham", 1, 0),
    "rmilw-kp": ("ilw", 1, 0),
    "reduced-rmkp": ("constant", 1, 0),
}

ATLAS_MODELS = ("rmbo-kp", "rm-fkdv-kp", "rmg-kp", "rm-mkdv-kp", "rm-whitham-kp", "rmilw-kp")
ATLAS_COLUMNS = (
    "lw_periodic_beta_pos",
    "lw_periodic_beta_nonpos",
    "lw_nonperiodic",
    "fsw_periodic",
    "fsw_nonperiodic_beta_pos",
    "fsw_nonperiodic_beta_nonpos",
)

#: Closed-form onsets (gamma = beta = 1).  rmkp: eta2 has its pole where
#: 3 = 12 k^4 and the band opens where rho_c^2(1/2) = 0, i.e. k^4 = 4.  rmbo:
#: 3 = 4 k^3 and k^3 = 6.  Gardner (beta = 1): the margin vanishes where
#: 36 k^4 + 8 k^2 - 9 = 0.
ONSETS = {
    "rmkp": {"k_lw": 0.25 ** 0.25, "k_t1b": 4.0 ** 0.25},
    "rmbo-kp": {"k_lw": 0.75 ** (1.0 / 3.0), "k_t1b": 6.0 ** (1.0 / 3.0)},
    "rmg-kp": {"k_lw": math.sqrt((-8.0 + math.sqrt(64.0 + 4.0 * 36.0 * 9.0)) / 72.0)},
}


def gardner_negative_beta_unstable(k: float) -> bool:
    """Gardner with beta = -1: the long-wavelength margin is negative iff -36k^4 + 8k^2 < 9."""
    return -36.0 * k**4 + 8.0 * k**2 < 9.0


def raw_symbol(symbol: str, kappa, alpha: float = 1.5) -> np.ndarray:
    """The multiplier j(kappa) read from each formula; removable limits at 0 filled in."""
    x = np.abs(np.asarray(kappa, dtype=float))
    if symbol == "kdv":
        return x * x
    if symbol == "bo":
        return x
    if symbol == "fkdv":
        return 1.0 + x**alpha
    if symbol == "gardner":
        return 1.0 + x * x
    if symbol == "constant":
        return np.ones_like(x)
    safe = np.where(x == 0.0, 1.0, x)
    if symbol == "whitham":
        return np.where(x == 0.0, 1.0, np.sqrt(np.tanh(safe) / safe))
    if symbol == "ilw":
        return np.where(x == 0.0, 1.0, safe / np.tanh(safe))
    raise ValueError(f"unknown symbol {symbol!r}")


@dataclass(frozen=True)
class Model:
    """One named model at a given dispersion scale and rotation."""

    name: str
    beta: float = 1.0
    gamma: float = 1.0
    alpha: float = 1.5

    @property
    def alpha1(self) -> int:
        return MODELS[self.name][1]

    @property
    def alpha2(self) -> int:
        return MODELS[self.name][2]

    def J(self, kappa) -> np.ndarray:
        return self.beta * raw_symbol(MODELS[self.name][0], kappa, self.alpha)


# --- the wave: harmonic balance of the traveling-wave equation ---------------

def c0(m: Model, k: float) -> float:
    """First harmonic at O(eps): k^2 (c0 - J(k)) = gamma."""
    return float(m.J(k) + m.gamma / k**2)


def eta2(m: Model, k):
    """Second harmonic at O(eps^2): (eps^2 eta2 / 2)(4k^2 (c0 - J(2k)) - gamma) = 4k^2 alpha1 eps^2 / 4."""
    k = np.asarray(k, dtype=float)
    with np.errstate(divide="ignore"):
        return 2.0 * m.alpha1 * k**2 / (3.0 * m.gamma + 4.0 * k**2 * (m.J(k) - m.J(2.0 * k)))


def eta3(m: Model, k: float) -> float:
    """Third harmonic at O(eps^3); (eta^2)^ at 3 is eps^3 eta2 / 2 and (eta^3)^ is eps^3 / 8."""
    return float((9.0 * m.alpha1 * k**2 * eta2(m, k) + 2.25 * m.alpha2 * k**2)
                 / (8.0 * m.gamma + 9.0 * k**2 * (m.J(k) - m.J(3.0 * k))))


def c2(m: Model, k: float) -> float:
    """Speed correction from the first harmonic at O(eps^3)."""
    return float(m.alpha1 * eta2(m, k) + 0.75 * m.alpha2)


def profile(m: Model, k: float, eps: float, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return (eps * np.cos(z) + eps**2 * eta2(m, k) * np.cos(2 * z)
            + eps**3 * eta3(m, k) * np.cos(3 * z))


def resonance_mismatch(m: Model, k, n: int):
    """Zero where the n-th harmonic travels with the fundamental."""
    k = np.asarray(k, dtype=float)
    return k**2 * (m.J(n * k) - m.J(k)) - m.gamma * (n * n - 1) / (n * n)


def near_resonance(m: Model, k: float, rel: float = 1e-2, n_max: int = 16) -> bool:
    """True when a harmonic 2..n_max resonates within ``rel`` (relative) of k."""
    lo, hi = k * (1.0 - rel), k * (1.0 + rel)
    grid = np.linspace(lo, hi, 65)
    for n in range(2, n_max + 1):
        v = resonance_mismatch(m, grid, n)
        if np.any(v == 0.0) or np.any(np.sign(v[:-1]) != np.sign(v[1:])):
            return True
    return False


# --- long-wavelength channel --------------------------------------------------

def lw_margin(m: Model, k):
    """(3/2) alpha2 + 2 alpha1 eta2(k); negative means the co-periodic channel is unstable."""
    return 1.5 * m.alpha2 + 2.0 * m.alpha1 * eta2(m, k)


def lw_lambda2(m: Model, k: float, eps: float, rho: float) -> float:
    """Squared growth rate of the pair leaving the origin: -rho^2 (rho^2 + k^2 eps^2 margin)."""
    return float(-(rho**2) * (rho**2 + k**2 * eps**2 * lw_margin(m, k)))


# --- mode frequencies and collisions -------------------------------------------

def omega0(m: Model, p, k: float):
    p = np.asarray(p, dtype=float)
    return m.gamma * (p - 1.0 / p) + k**2 * p * (m.J(k) - m.J(k * p))


def omega(m: Model, p, rho: float, k: float):
    return omega0(m, p, k) - rho**2 / np.asarray(p, dtype=float)


def collision_rho_sq(m: Model, p, q, k):
    """rho^2 with Omega(p, rho) = Omega(q, rho): Omega0(p) - rho^2/p = Omega0(q) - rho^2/q."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return (omega0(m, q, k) - omega0(m, p, k)) * p * q / (p - q)


def band_rho_sq(m: Model, k: float, xi):
    """rho_c^2(xi) of the adjacent pair (-1, 0)."""
    xi = np.asarray(xi, dtype=float)
    return collision_rho_sq(m, xi - 1.0, xi, k)


def band_max(m: Model, k: float, samples: int = 4001) -> Tuple[float, float]:
    """Largest rho_c^2 over a dense xi scan of (0, 1/2]; returns (xi, value)."""
    xi = np.linspace(0.5 / samples, 0.5, samples)
    vals = band_rho_sq(m, k, xi)
    i = int(np.argmax(vals))
    return float(xi[i]), float(vals[i])


def band_growth(m: Model, k: float, eps: float, xi: float) -> float:
    """Peak growth at the band centre: alpha1 k^2 |eps| sqrt(xi (1 - xi))."""
    return m.alpha1 * k**2 * abs(eps) * math.sqrt(xi * (1.0 - xi))


def band_halfwidth(m: Model, k: float, eps: float, xi: float) -> float:
    """Half-width of the band in rho^2.

    The frequency gap of the pair moves with rho^2 at rate 1/(xi (1 - xi)), and
    the pair leaves the axis while half that gap stays below the peak growth.
    """
    return 2.0 * band_growth(m, k, eps, xi) * xi * (1.0 - xi)


def collision_frequency(m: Model, k: float, xi: float) -> float:
    """Common frequency of the (-1, 0) pair at its collision."""
    return float(omega(m, xi, math.sqrt(band_rho_sq(m, k, xi)), k))


def xi_at_frequency(m: Model, k: float, target: float, lo: float = 0.45,
                    hi: float = 0.49999) -> float:
    """Bisection for the xi whose collision frequency has magnitude ``target``."""
    f_lo = abs(collision_frequency(m, k, lo)) - target
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (abs(collision_frequency(m, k, mid)) - target < 0) == (f_lo < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- verdicts --------------------------------------------------------------------

def expected_outcome(m: Model, k: float) -> str:
    """Unstable when either channel's margin has the unstable sign."""
    unstable = float(lw_margin(m, k)) < 0 or band_max(m, k)[1] > 0
    return "unstable" if unstable else "stable"


def _k_scan(f, samples: int = 2001, k_range=(1e-3, 1e3)) -> np.ndarray:
    grid = np.geomspace(k_range[0], k_range[1], samples)
    return grid, np.array([f(k) for k in grid])


def verdict_flips(m: Model) -> np.ndarray:
    """k where either channel's margin changes sign (a dense log-k scan)."""
    flips = []
    for f in (lambda k: float(lw_margin(m, k)), lambda k: band_max(m, k, 801)[1]):
        grid, vals = _k_scan(f, 801)
        s = np.sign(vals)
        idx = np.nonzero(s[:-1] * s[1:] < 0)[0]
        flips.extend(np.sqrt(grid[idx] * grid[idx + 1]))
    return np.array(sorted(flips))


def effective_increasing(m: Model) -> bool:
    """Sign of the effective symbol's slope on (0, 10] (J3 makes it one sign)."""
    grid = np.linspace(1e-3, 10.0, 4001)
    return bool(np.all(np.diff(m.J(grid)) > 0))


def theorem_table() -> Dict[str, Tuple[str, ...]]:
    """The six-model existence table that follows from the paper's theorems.

    Long-wavelength, co-periodic: unstable for some k when a cubic term is
    present (the margin starts at -3/2) or when the quadratic eta2 turns
    negative, which needs an increasing effective symbol.  Long-wavelength
    non-periodic and separated pairs: always stable.  Finite-wavelength band:
    the (-1, 0) collision of opposite signature exists for some k exactly when
    the effective symbol increases.
    """
    table = {}
    for name in ATLAS_MODELS:
        pos, neg = Model(name, beta=1.0), Model(name, beta=-1.0)

        def lw(m):
            return m.alpha2 == -1 or (m.alpha1 == 1 and effective_increasing(m))

        cells = (lw(pos), lw(neg), False, False,
                 effective_increasing(pos), effective_increasing(neg))
        table[name] = tuple("unstable" if c else "stable" for c in cells)
    return table


def scanned_table() -> Dict[str, Tuple[str, ...]]:
    """The same existence table from dense k scans of the two margins."""
    table = {}
    for name in ATLAS_MODELS:
        cells = []
        for beta in (1.0, -1.0):
            m = Model(name, beta=beta)
            _, lw = _k_scan(lambda k: float(lw_margin(m, k)), 1201)
            _, band = _k_scan(lambda k: band_max(m, k, 801)[1], 241)
            cells.append((bool(np.any(lw < 0)), bool(np.any(band > 0))))
        (lw_pos, band_pos), (lw_neg, band_neg) = cells
        flags = (lw_pos, lw_neg, False, False, band_pos, band_neg)
        table[name] = tuple("unstable" if c else "stable" for c in flags)
    return table


def node_table(m: Model, theta_max: int = 4, xi_samples: int = 129,
               k_samples: int = 1201) -> Dict[int, Dict[str, FrozenSet[Tuple[int, int]]]]:
    """Potentially unstable pairs {n, n + theta} per theta and perturbation class.

    A pair qualifies when its two composite indices have opposite signs (the
    Krein signatures differ) and the pair collides for some real rho at some
    k > 0: periodic pairs at xi = 0 with both indices nonzero, non-periodic
    pairs at some xi in (0, 1/2].
    """
    ks = np.geomspace(1e-3, 1e3, k_samples)
    xis = np.linspace(0.5 / xi_samples, 0.5, xi_samples)
    table = {}
    for theta in range(1, theta_max + 1):
        periodic = set()
        for n in range(-theta + 1, 0):
            if _collides(m, [float(n)], theta, ks):
                periodic.add((n, n + theta))
        nonperiodic = set()
        for n in range(-theta, 0):
            ps = [n + xi for xi in xis
                  if abs(n + xi) > 1e-9 and abs(n + theta + xi) > 1e-9
                  and (n + xi) * (n + theta + xi) < 0]
            if ps and _collides(m, ps, theta, ks):
                nonperiodic.add((n, n + theta))
        table[theta] = {"periodic": frozenset(periodic),
                        "nonperiodic": frozenset(nonperiodic)}
    return table


def _collides(m: Model, ps, theta: int, ks: np.ndarray) -> bool:
    rows = max(1, _CHUNK // ks.size)
    for i in range(0, len(ps), rows):
        p = np.asarray(ps[i:i + rows], dtype=float)[:, None]
        if np.any(collision_rho_sq(m, p, p + theta, ks[None, :]) >= -1e-12 * m.gamma):
            return True
    return False
