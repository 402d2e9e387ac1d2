"""Transverse spectral stability of small-amplitude periodic waves.

Decides stability or instability of one-dimensional periodic traveling waves
of rotation-modified KP-type equations against two-dimensional perturbations,
via closed-form collision/Krein analysis confirmed by a Fourier-collocation
eigenvalue engine.
"""

from .collisions import (
    CollisionRecord,
    collision_floquet_window,
    collision_rho_squared,
    collision_wavenumber_window,
    enumerate_potentially_unstable,
    is_origin_collision,
    krein_signature,
    omega,
)
from .errors import (
    AmplitudeValidityWarning,
    DomainError,
    NumericalError,
    ResonanceError,
    TranspecError,
    ValidationError,
)
from .operator import (
    Bubble,
    OperatorMatrix,
    SpectrumResult,
    assemble_operator,
    detect_bubbles,
    eig_dense,
    max_growth_rate,
    shift_invert_eigs,
    spectrum_at,
    sweep,
)
from .reduced import (
    ATLAS_COLUMNS,
    ATLAS_MODELS,
    Theta1Band,
    Verdict,
    atlas,
    classify,
    long_wavelength_lambda2,
    long_wavelength_verdict,
    theta1_band,
    theta1_verdict,
)
from .stokes import (
    StokesWave,
    build_wave,
    phase_speed_c0,
    residual_norm,
    resonant_wavenumbers,
    stokes_coefficients,
    wave_profile,
)
from .symbols import (
    MODEL_IDS,
    DispersionSymbol,
    ModelSpec,
    make_model,
)

__version__ = "0.1.0"
