"""Small-amplitude periodic traveling waves of the one-dimensional reduction.

The wave is the three-harmonic expansion

    eta(z) = eps cos z + eps^2 eta2 cos 2z + eps^3 eta3 cos 3z,
    c(eps) = c0 + eps^2 c2,

valid away from resonant wavenumbers, with a Fourier-space residual norm
serving as the a-posteriori existence check (the residual decays like eps^4).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeValidityWarning, ResonanceError
from .symbols import ModelSpec, _check_wavenumber, _omega_at_zero_rho, _sign_changes

#: Half-distance in k below which a wavenumber counts as resonant.
RESONANCE_TOL = 1e-6

#: Highest harmonic checked by the resonance guard.
RESONANCE_GUARD_NMAX = 16

#: The harmonics n = 2 .. RESONANCE_GUARD_NMAX that the resonance guard checks.
_GUARD_HARMONICS = np.arange(2, RESONANCE_GUARD_NMAX + 1)


@dataclass(frozen=True)
class StokesWave:
    """A small-amplitude wave: wavenumber, amplitude and expansion coefficients."""

    k: float
    eps: float
    eta2: float
    eta3: float
    c0: float
    c2: float

    @property
    def speed(self) -> float:
        return self.c0 + self.eps**2 * self.c2


def phase_speed_c0(model: ModelSpec, k: float) -> float:
    """Bifurcation speed of the fundamental mode: beta*j(k) + gamma/k^2."""
    _check_wavenumber(k)
    return model.j_eff(k) + model.gamma / k**2


def _resonance_mismatch(model: ModelSpec, k, n):
    """Zero exactly when the fundamental and the n-th harmonic co-propagate.

    Equals k^2 (j(k n) - j(k)) - gamma (n^2 - 1)/n^2; broadcasts over k and n.
    """
    return -_omega_at_zero_rho(model, n, k) / n


def _eta2(model: ModelSpec, k):
    """Second-harmonic coefficient without the resonance guard; poles at n = 2 resonances."""
    return 2 * model.alpha1 * k**2 / (-4 * _resonance_mismatch(model, k, 2))


def _c2(model: ModelSpec, eta2):
    """Speed correction alpha1 eta2 + (3/4) alpha2 from eta2; broadcasts over eta2's k."""
    return model.alpha1 * eta2 + 0.75 * model.alpha2


def check_resonance(model: ModelSpec, k: float) -> None:
    """Raise ResonanceError when k is within ``RESONANCE_TOL`` of a resonant wavenumber."""
    _check_wavenumber(k)
    lo = max(k - RESONANCE_TOL, 1e-30)
    hi = k + RESONANCE_TOL
    f_lo, f_hi = _resonance_mismatch(model, np.array([[lo], [hi]]), _GUARD_HARMONICS)
    hit = (f_lo == 0.0) | (f_hi == 0.0) | ((f_lo < 0) != (f_hi < 0))
    if hit.any():
        i = int(np.argmax(hit))
        n = int(_GUARD_HARMONICS[i])
        root = _sign_changes(lambda kk: _resonance_mismatch(model, kk, n), [lo, hi],
                             [f_lo[i], f_hi[i]], 1e-14)
        raise ResonanceError(k, n, float(root[0]) if root.size else k)


def stokes_coefficients(model: ModelSpec, k: float):
    """Harmonic coefficients (eta2, eta3) and speed correction c2 at wavenumber k."""
    check_resonance(model, k)
    a1, a2 = model.alpha1, model.alpha2
    eta2 = _eta2(model, k)
    eta3 = (9 * a1 * k**2 * eta2 + 2.25 * a2 * k**2) / (-9 * _resonance_mismatch(model, k, 3))
    return float(eta2), float(eta3), float(_c2(model, eta2))


def build_wave(model: ModelSpec, k: float, eps: float = 0.01,
               check: bool = True) -> StokesWave:
    """Construct the wave at (k, eps), warning when the truncation is strained."""
    eta2, eta3, c2 = stokes_coefficients(model, k)
    wave = StokesWave(float(k), float(eps), eta2, eta3, phase_speed_c0(model, k), c2)
    if check and eps != 0.0:
        res = residual_norm(model, wave)
        norm = abs(eps) / np.sqrt(2.0)
        if res > 1e-6 * norm:
            warnings.warn(
                f"truncated expansion residual {res:.3g} exceeds 1e-6*|eta| at "
                f"eps={eps}; treat results as qualitative",
                AmplitudeValidityWarning,
                stacklevel=2,
            )
    return wave


def wave_profile(wave: StokesWave, z):
    """Profile eta(z); even and mean-free by construction."""
    z = np.asarray(z, dtype=float)
    e = wave.eps
    out = (e * np.cos(z)
           + e**2 * wave.eta2 * np.cos(2 * z)
           + e**3 * wave.eta3 * np.cos(3 * z))
    return out if out.ndim else float(out)


def profile_coefficients(wave: StokesWave) -> np.ndarray:
    """Complex Fourier coefficients of the profile, index offset 3 (j = -3..3)."""
    e = wave.eps
    half = np.array([e / 2, e**2 * wave.eta2 / 2, e**3 * wave.eta3 / 2])
    coeff = np.zeros(7)
    coeff[4:7] = half
    coeff[0:3] = half[::-1]
    return coeff


def residual_norm(model: ModelSpec, wave: StokesWave) -> float:
    """L2 norm of the traveling-wave equation applied to the truncated wave.

    Evaluates k^2(-c eta'' + J_k eta'' + a1 (eta^2)'' + a2 (eta^3)'') - gamma eta
    on the Fourier modes |j| <= 9, outside which every term vanishes, and
    returns the norm of the coefficient vector.  Decays as O(eps^4) for fixed
    admissible k.
    """
    check_resonance(model, wave.k)
    eta_hat = profile_coefficients(wave)          # j = -3..3
    sq_hat = np.convolve(eta_hat, eta_hat)        # j = -6..6
    cu_hat = np.convolve(sq_hat, eta_hat)         # j = -9..9
    k, g = wave.k, model.gamma
    c = wave.speed
    js = np.arange(-9, 10)
    eh, sh = np.pad(eta_hat, 6), np.pad(sq_hat, 3)
    jeff = model.j_eff(k * js.astype(float))
    F = k**2 * js**2 * (c * eh - jeff * eh - model.alpha1 * sh - model.alpha2 * cu_hat) - g * eh
    return float(np.sqrt(np.sum(np.abs(F) ** 2)))
