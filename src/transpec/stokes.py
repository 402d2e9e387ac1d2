"""Small-amplitude periodic traveling waves of the one-dimensional reduction.

A wave is its speed and the Fourier series eta_j = eta_{-j}, j = -M..M, of its
even, mean-free profile eta(z) = sum_{j=1..M} 2 eta_j cos jz.  ``build_wave``
writes that series once, from the three-harmonic expansion

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

#: The harmonics n = 2 .. 16 that the resonance guard checks.
_GUARD_HARMONICS = np.arange(2, 17)


@dataclass(frozen=True, eq=False)
class StokesWave:
    """A wave: wavenumber, amplitude, speeds c0 and c(eps), read-only series j = -M..M."""

    k: float
    eps: float
    c0: float
    speed: float
    coefficients: np.ndarray


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
    c0, e = phase_speed_c0(model, k), float(eps)
    half = np.array([e / 2, e**2 * eta2 / 2, e**3 * eta3 / 2])   # j = 1..3
    coefficients = np.concatenate((half[::-1], [0.0], half))
    coefficients.flags.writeable = False
    wave = StokesWave(float(k), e, c0, c0 + e**2 * c2, coefficients)
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
    half = wave.coefficients[wave.coefficients.size // 2 + 1:]   # j = 1..M
    out = 2 * half[0] * np.cos(z)   # from the j = 1 term, so eps = 0 keeps each zero's sign
    for j, c in enumerate(half[1:], 2):
        out = out + 2 * c * np.cos(j * z)
    return out if out.ndim else float(out)


def residual_norm(model: ModelSpec, wave: StokesWave) -> float:
    """L2 norm of the traveling-wave equation applied to the truncated wave.

    Evaluates k^2(-c eta'' + J_k eta'' + a1 (eta^2)'' + a2 (eta^3)'') - gamma eta
    on the Fourier modes |j| <= 3M, outside which every term vanishes, and
    returns the norm of the coefficient vector.  Decays as O(eps^4) for fixed
    admissible k.
    """
    check_resonance(model, wave.k)
    eta_hat = wave.coefficients                   # j = -M..M
    sq_hat = np.convolve(eta_hat, eta_hat)        # j = -2M..2M
    cu_hat = np.convolve(sq_hat, eta_hat)         # j = -3M..3M
    k, g = wave.k, model.gamma
    c = wave.speed
    js = np.arange(cu_hat.size) - cu_hat.size // 2
    eh, sh = (np.pad(a, (cu_hat.size - a.size) // 2) for a in (eta_hat, sq_hat))
    jeff = model.j_eff(k * js.astype(float))
    F = k**2 * js**2 * (c * eh - jeff * eh - model.alpha1 * sh - model.alpha2 * cu_hat) - g * eh
    return float(np.sqrt(np.sum(np.abs(F) ** 2)))
