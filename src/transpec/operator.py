"""Truncated Fourier representation of the linearized flow and its spectrum.

The operator acts on Bloch waves ``e^{i xi z}`` times 2pi-periodic functions.
In the Fourier basis it is diagonal at zero amplitude (entries
``i Omega(n, rho, xi)``) plus a banded perturbation from the three-harmonic
wave profile.  At xi = 0 the zero mode is removed, which realizes the
mean-zero restriction exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .stokes import StokesWave, build_wave, profile_coefficients
from .symbols import ModelSpec, _omega_at_zero_rho


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense truncation of the linearized operator on modes |n| <= N."""

    N: int
    modes: np.ndarray
    matrix: np.ndarray
    wave: StokesWave
    rho: float
    xi: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    """Build the dense truncated operator at (rho, xi).

    The diagonal is ``i Omega(n, rho, xi)`` plus the speed correction
    ``i p k^2 (c(eps) - c0)``, ``p = n + xi``.  Off-diagonals come from the
    Fourier coefficients of ``-2 alpha1 eta - 3 alpha2 eta^2``, so the
    bandwidth is 3 (or 6 with a cubic term).  At xi = 0 the zero mode is
    excluded.
    """
    if N < 8:
        raise ValidationError("need N >= 8 modes")
    if not (-0.5 < xi <= 0.5):
        raise DomainError(f"Floquet exponent must lie in (-1/2, 1/2], got {xi}")
    ns = np.arange(-N, N + 1)
    if xi == 0.0:
        ns = ns[ns != 0]
    p = ns + xi
    k = wave.k

    eta_hat = profile_coefficients(wave)           # offsets -3..3
    sq_hat = np.convolve(eta_hat, eta_hat)         # offsets -6..6
    g_hat = np.zeros(13)                           # offsets -6..6
    g_hat[3:10] += -2.0 * model.alpha1 * eta_hat
    g_hat += -3.0 * model.alpha2 * sq_hat

    speed_shift = p * k**2 * (wave.speed - wave.c0)
    diag = 1j * (_omega_at_zero_rho(model, p, k) - rho**2 / p + speed_shift)

    offsets = np.subtract.outer(ns, ns)            # row - column
    rows, cols = np.nonzero(np.abs(offsets) <= 6)
    A = np.zeros((ns.size, ns.size), dtype=complex)
    A[rows, cols] = 1j * p[rows] * k**2 * g_hat[offsets[rows, cols] + 6]
    A[np.diag_indices_from(A)] += diag
    return OperatorMatrix(N=N, modes=ns, matrix=A, wave=wave, rho=float(rho), xi=float(xi))


def _rounding_floor(ev: np.ndarray) -> float:
    """Real parts below this are rounding: 10 machine epsilons of max |lambda|."""
    return 10.0 * np.finfo(float).eps * max(float(np.max(np.abs(ev))), 1.0)


def _sorted_eigs(ev: np.ndarray) -> np.ndarray:
    order = np.lexsort((ev.real, ev.imag))
    return ev[order]


def eig_dense(op: OperatorMatrix) -> SpectrumResult:
    """All eigenvalues of the truncated operator via a dense solver.

    Eigenvectors are not computed; the eigenvalues come back sorted by
    imaginary part, then real part.
    """
    if op.dim > 4096:
        raise ValidationError("dense path is limited to dimension 4096")
    try:
        ev = np.linalg.eigvals(op.matrix)
    except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
        raise NumericalError(
            f"dense eigensolver failed at rho={op.rho}, xi={op.xi}, N={op.N}: {exc}"
        ) from exc
    if not np.all(np.isfinite(ev)):
        raise NumericalError(
            f"dense eigensolver returned non-finite values at rho={op.rho}, xi={op.xi}"
        )
    ev = _sorted_eigs(ev)
    return SpectrumResult(
        eigenvalues=ev, rho=op.rho, xi=op.xi, eps=op.wave.eps, k=op.wave.k,
        N=op.N, max_real=float(np.max(ev.real)),
    )


def shift_invert_eigs(model: ModelSpec, wave: StokesWave, rho: float, xi: float,
                      N: int, shift: complex, count: int = 6) -> SpectrumResult:
    """The ``count`` eigenvalues nearest ``shift``.

    ARPACK's shift-invert mode: an Arnoldi process on ``(A - shift I)^{-1}``
    with one sparse LU factorisation per call.  scipy is imported here only,
    so the analytic layers and the dense path run on numpy alone.
    """
    import scipy.sparse
    import scipy.sparse.linalg as spla

    if count > 20:
        raise ValidationError("count is limited to 20")
    op = assemble_operator(model, wave, rho, xi, N)
    dim = op.dim
    if count >= dim - 1:
        raise ValidationError("count must be below the truncated dimension - 1")
    # a roomy Krylov space keeps far shifts convergent (the transformed
    # spectrum clusters when the shift is far from every eigenvalue)
    ncv = min(dim, max(4 * count + 5, 30))
    try:
        ev = spla.eigs(scipy.sparse.csc_array(op.matrix), k=count, sigma=shift,
                       which="LM", ncv=ncv, maxiter=200 * dim, tol=0,
                       return_eigenvectors=False)
    except Exception as exc:
        raise NumericalError(
            f"shift-invert Arnoldi iteration failed at shift={shift}: {exc}"
        ) from exc
    ev = _sorted_eigs(ev)
    return SpectrumResult(
        eigenvalues=ev, rho=op.rho, xi=op.xi, eps=wave.eps, k=wave.k, N=N,
        max_real=float(np.max(ev.real)),
    )


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
    if not finite:
        return []
    if threshold is None:
        threshold = max(_rounding_floor(r.eigenvalues) for r in finite)
    hits = []  # (imag of midpoint, midpoint, growth, xi, rho)
    for r in finite:
        ev = r.eigenvalues
        for lam in ev[ev.real > threshold]:
            partner = ev[np.argmin(np.abs(ev - (-np.conj(lam))))]
            mid = 0.5 * (lam + partner)
            hits.append((float(mid.imag), mid, float(lam.real), r.xi, r.rho))
    if not hits:
        return []
    hits.sort(key=lambda h: h[0])
    bubbles = []
    cluster = [hits[0]]
    for h in hits[1:]:
        if h[0] - cluster[-1][0] <= 0.05:
            cluster.append(h)
        else:
            bubbles.append(_summarize_cluster(cluster))
            cluster = [h]
    bubbles.append(_summarize_cluster(cluster))
    return bubbles


def _summarize_cluster(cluster) -> Bubble:
    mids = np.array([c[1] for c in cluster])
    xis = [c[3] for c in cluster]
    rhos = [c[4] for c in cluster]
    return Bubble(
        center=complex(np.mean(mids)),
        max_growth=max(c[2] for c in cluster),
        xi_range=(min(xis), max(xis)),
        rho=float(np.mean(rhos)),
    )
