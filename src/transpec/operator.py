"""Truncated Fourier representation of the linearized flow and its spectrum.

The operator acts on Bloch waves ``e^{i xi z}`` times 2pi-periodic functions.
In the Fourier basis it is diagonal at zero amplitude (entries
``i Omega(n, rho, xi)``) plus a banded perturbation from the Fourier series
of the wave profile.  At xi = 0 the zero mode is removed, which realizes the
mean-zero restriction exactly.

Every entry is i times a real number, so the operator is stored as the
2M + 1 nonzero diagonals (4M + 1 with a cubic term) of its real generator R,
A = iR, for a wave of M harmonics: 7 or 13 for the expansion's M = 3. Both
solvers work on R: the dense path builds the dense R when it reads it, and the
shift-invert path factorises the band of R - s without forming a dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .stokes import StokesWave, build_wave
from .symbols import ModelSpec, _omega_at_zero_rho


@dataclass(frozen=True, slots=True)
class OperatorMatrix:
    """Truncation of the linearized operator on modes |n| <= N, stored by diagonals.

    ``bands`` holds the 2h + 1 diagonals of the real generator R of A = iR in
    scipy's DIA layout, offsets -h..h: ``bands[i, j] = R[j - (i - h), j]``.
    ``generator`` (the dense R) and ``matrix`` (A) are built on each read.
    """

    N: int
    modes: np.ndarray
    bands: np.ndarray
    wave: StokesWave
    rho: float
    xi: float

    @property
    def dim(self) -> int:
        return self.bands.shape[1]

    @property
    def generator(self) -> np.ndarray:
        dim = self.dim
        R = np.zeros((dim, dim))
        flat = R.reshape(-1)
        # the entries of one diagonal are dim + 1 apart in the row-major buffer
        for offset, band in enumerate(self.bands, -(len(self.bands) // 2)):
            lo, hi = max(offset, 0), dim + min(offset, 0)
            start = (lo - offset) * dim + lo
            flat[start:start + (hi - lo) * (dim + 1):dim + 1] = band[lo:hi]
        return R

    @property
    def matrix(self) -> np.ndarray:
        return 1j * self.generator


@dataclass(frozen=True, slots=True)
class SpectrumResult:
    """Eigenvalues of one truncated operator with the parameters that made it.

    Eigenvalues only: no eigenvectors are computed, so no residual is reported.
    """

    eigenvalues: np.ndarray
    rho: float
    xi: float
    eps: float
    k: float
    N: int
    max_real: float
    error: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "rho": self.rho, "xi": self.xi, "eps": self.eps, "k": self.k,
            "N": self.N, "max_real": self.max_real,
            "error": self.error,
            "eigenvalues": [[float(ev.real), float(ev.imag)] for ev in self.eigenvalues],
        }


@dataclass(frozen=True, slots=True)
class Bubble:
    """An isolated eigenvalue cluster off the imaginary axis."""

    center: complex
    max_growth: float
    xi_range: Tuple[float, float]
    rho: float

    def as_dict(self) -> dict:
        return {
            "center": [float(self.center.real), float(self.center.imag)],
            "max_growth": self.max_growth,
            "xi_range": list(self.xi_range),
            "rho": self.rho,
        }


def assemble_operator(model: ModelSpec, wave: StokesWave, rho: float, xi: float,
                      N: int = 64) -> OperatorMatrix:
    """Build the truncated operator at (rho, xi) as the diagonals of its real generator.

    The diagonal of R is ``Omega(n, rho, xi)`` plus the speed correction
    ``p k^2 (c(eps) - c0)``, ``p = n + xi``.  Off-diagonals are ``p k^2``
    times the Fourier coefficients of ``-2 alpha1 eta - 3 alpha2 eta^2``: 2h + 1
    diagonals, h = M (the wave's harmonics) or 2M with a cubic term.  At
    xi = 0 the zero mode is excluded.
    """
    _check_modes(N)
    if not (-0.5 < xi <= 0.5):
        raise DomainError(f"Floquet exponent must lie in (-1/2, 1/2], got {xi}")
    ns = np.arange(-N, N + 1)
    if xi == 0.0:
        ns = ns[ns != 0]
    p = ns + xi
    k = wave.k

    eta_hat = wave.coefficients                    # offsets -M..M
    g_hat = -2.0 * model.alpha1 * eta_hat
    if model.alpha2 != 0.0:                        # a cubic term widens it to -2M..2M
        g_hat = np.pad(g_hat, g_hat.size // 2) - 3.0 * model.alpha2 * np.convolve(eta_hat, eta_hat)
    h = g_hat.size // 2

    # column j of band i holds row j - (i - h); |n_row - n_col| is at least
    # |row - col| (more across the zero-mode gap), so the 2h + 1 bands hold
    # every entry, and slots that fall outside the matrix stay 0
    cols = np.arange(ns.size)
    rows = cols - np.arange(-h, h + 1)[:, None]
    inside = (rows >= 0) & (rows < ns.size)
    rows = np.where(inside, rows, cols)
    mode_offsets = ns[rows] - ns[cols]
    keep = inside & (np.abs(mode_offsets) <= h)
    bands = np.zeros((g_hat.size, ns.size))
    bands[keep] = p[rows[keep]] * k**2 * g_hat[mode_offsets[keep] + h]
    speed_shift = p * k**2 * (wave.speed - wave.c0)
    # band h (offset 0) is the main diagonal
    bands[h] += _omega_at_zero_rho(model, p, k) - rho**2 / p + speed_shift
    return OperatorMatrix(N=N, modes=ns, bands=bands, wave=wave, rho=float(rho), xi=float(xi))


def _check_modes(N: int) -> None:
    if N < 8:
        raise ValidationError("need N >= 8 modes")


def _rounding_floor(ev: np.ndarray) -> float:
    """Real parts below this are rounding: 10 machine epsilons of max |lambda|."""
    return 10.0 * np.finfo(float).eps * max(float(np.max(np.abs(ev))), 1.0)


def _result(op: OperatorMatrix, ev: np.ndarray) -> SpectrumResult:
    """The spectrum ``ev`` of ``op``, sorted by imaginary part, then real part."""
    ev = ev[np.lexsort((ev.real, ev.imag))]
    return SpectrumResult(eigenvalues=ev, rho=op.rho, xi=op.xi, eps=op.wave.eps, k=op.wave.k,
                          N=op.N, max_real=float(np.max(ev.real)))


def eig_dense(op: OperatorMatrix) -> SpectrumResult:
    """All eigenvalues of the truncated operator via a dense solver.

    The real generator R is solved in real arithmetic and its eigenvalues are
    multiplied by i, so the spectrum is closed under lambda -> -conj(lambda)
    to the last bit.  Eigenvectors are not computed; the eigenvalues come back
    sorted by imaginary part, then real part.
    """
    if op.dim > 4096:
        raise ValidationError("dense path is limited to dimension 4096")
    try:
        ev = 1j * np.linalg.eigvals(op.generator)
    except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
        raise NumericalError(
            f"dense eigensolver failed at rho={op.rho}, xi={op.xi}, N={op.N}: {exc}"
        ) from exc
    if not np.all(np.isfinite(ev)):
        raise NumericalError(
            f"dense eigensolver returned non-finite values at rho={op.rho}, xi={op.xi}"
        )
    return _result(op, ev)


def shift_invert_eigs(model: ModelSpec, wave: StokesWave, rho: float, xi: float,
                      N: int, shift: complex, count: int = 6) -> SpectrumResult:
    """The ``count`` eigenvalues nearest ``shift``.

    ARPACK's shift-invert mode on A - shift I = i(R - s), s = -i shift: one
    banded LU of R - s per call, in real arithmetic for a shift on the
    imaginary axis.  scipy is imported here only, so the analytic layers and
    the dense path run on numpy alone.
    """
    import scipy.sparse.linalg as spla
    from scipy.linalg import get_lapack_funcs

    if not 1 <= count <= 20:
        raise ValidationError(f"count must be between 1 and 20, got {count}")
    if not np.isfinite(shift):
        raise ValidationError(f"shift must be finite, got {shift}")
    op = assemble_operator(model, wave, rho, xi, N)
    dim, h = op.dim, len(op.bands) // 2
    if count >= dim - 1:
        raise ValidationError("count must be below the truncated dimension - 1")
    s = shift.imag if shift.real == 0 else complex(shift.imag, -shift.real)
    ab = _shifted_band_layout(op, s)
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))  # d or z by ab's dtype, as ARPACK
    lu, piv, info = gbtrf(ab, h, h, overwrite_ab=True)
    if info > 0:
        raise NumericalError(f"banded LU of R - s is exactly singular at shift={shift}")
    solve = spla.LinearOperator((dim, dim), lambda x: gbtrs(lu, h, h, x, piv)[0], dtype=lu.dtype)
    # a roomy Krylov space keeps far shifts convergent (the transformed
    # spectrum clusters when the shift is far from every eigenvalue)
    ncv = min(dim, max(4 * count + 5, 30))
    try:
        # OPinv alone is applied (A gives shape and dtype); a fixed v0 makes every run agree
        mu = spla.eigs(solve, k=count, sigma=s, OPinv=solve, which="LM", ncv=ncv, tol=0,
                       maxiter=200 * dim, v0=np.ones(dim, dtype=lu.dtype), return_eigenvectors=False)
    except Exception as exc:
        raise NumericalError(f"shift-invert Arnoldi iteration failed at shift={shift}: {exc}") from exc
    return _result(op, 1j * mu)


def _shifted_band_layout(op: OperatorMatrix, s: complex) -> np.ndarray:
    """R - s as LAPACK band storage, kl = ku = h (M, or 2M with a cubic term): ``ab[2h + i - j, j]``."""
    h = len(op.bands) // 2
    ab = np.zeros((3 * h + 1, op.dim), dtype=np.result_type(op.bands, s), order="F")
    ab[h:] = op.bands[::-1]  # the DIA bands are column-aligned the same way
    ab[2 * h] -= s
    return ab


def spectrum_at(model: ModelSpec, k: float, eps: float, rho: float, xi: float,
                N: int = 64) -> SpectrumResult:
    """Convenience: build the wave, assemble and solve densely."""
    wave = build_wave(model, k, eps, check=False)
    return eig_dense(assemble_operator(model, wave, rho, xi, N))


def max_growth_rate(model: ModelSpec, k: float, eps: float, rho: float, xi: float,
                    N: int = 64) -> float:
    """Largest real part over the truncated spectrum; 0 below the rounding floor."""
    res = spectrum_at(model, k, eps, rho, xi, N)
    return res.max_real if res.max_real >= _rounding_floor(res.eigenvalues) else 0.0


def sweep(model: ModelSpec, k: float, eps: float, rho_grid: Sequence[float],
          xi_grid: Sequence[float], N: int = 64) -> List[SpectrumResult]:
    """Dense spectra over the (rho, xi) product grid, row-major in rho then xi.

    Points run serially; a failure at one grid point is recorded in that
    result's ``error`` field.
    """
    rho_grid = [float(r) for r in rho_grid]
    xi_grid = [float(x) for x in xi_grid]
    if not rho_grid or not xi_grid:
        raise ValidationError("sweep grids must be non-empty")
    _check_modes(N)
    wave = build_wave(model, k, eps, check=False)

    def run(rho, xi):
        try:
            return eig_dense(assemble_operator(model, wave, rho, xi, N))
        except Exception as exc:
            return SpectrumResult(
                eigenvalues=np.empty(0, dtype=complex), rho=rho, xi=xi,
                eps=eps, k=k, N=N, max_real=math.nan, error=str(exc),
            )

    return [run(rho, xi) for rho in rho_grid for xi in xi_grid]


def detect_bubbles(results: Sequence[SpectrumResult],
                   threshold: Optional[float] = None) -> List[Bubble]:
    """Cluster unstable eigenvalues into isolated bubbles on the imaginary axis.

    Eigenvalues with real part above ``threshold`` (default: the rounding
    floor of the largest spectrum) are paired with their
    mirror partner (reflection through the imaginary axis), clustered where
    imaginary parts lie within 0.05 of each other, and summarized by the
    mean pair midpoint.
    """
    finite = [r for r in results if r.error is None and r.eigenvalues.size]
    if threshold is None and finite:
        threshold = max(_rounding_floor(r.eigenvalues) for r in finite)
    growing = [r for r in finite if r.max_real > threshold]
    if not growing:
        return []
    mids, growth, xis, rhos = [], [], [], []
    for r in growing:
        ev = r.eigenvalues
        lam = ev[ev.real > threshold]
        partner = ev[np.argmin(np.abs(ev + np.conj(lam)[:, None]), axis=1)]
        mids.append(0.5 * (lam + partner))
        growth.append(lam.real)
        xis.append(np.full(lam.size, r.xi))
        rhos.append(np.full(lam.size, r.rho))
    # hits sorted by midpoint height; a stable sort keeps equal heights in hit order
    order = np.argsort(np.concatenate(mids).imag, kind="stable")
    cols = [np.concatenate(c)[order] for c in (mids, growth, xis, rhos)]
    cuts = np.flatnonzero(np.diff(cols[0].imag) > 0.05) + 1
    # Python's min and max return the first of equal values, so 0.0 and -0.0 keep hit order
    return [Bubble(center=complex(np.mean(m)), max_growth=max(g.tolist()),
                   xi_range=(min(x.tolist()), max(x.tolist())), rho=float(np.mean(p)))
            for m, g, x, p in zip(*(np.split(c, cuts) for c in cols))]
