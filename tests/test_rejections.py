"""Every public entry rejects input outside its domain with a typed error."""

import math

import numpy as np
import pytest

from transpec import (
    DomainError,
    ValidationError,
    build_wave,
    classify,
    collision_floquet_window,
    collision_rho_squared,
    collision_wavenumber_window,
    enumerate_potentially_unstable,
    long_wavelength_lambda2,
    make_model,
    omega,
    phase_speed_c0,
    shift_invert_eigs,
    stokes_coefficients,
    sweep,
    theta1_band,
    theta1_verdict,
)
from transpec.stokes import check_resonance

MODEL = make_model("rmkp")

#: Public entries that take a wavenumber k, called at k.
K_ENTRIES = {
    "omega": lambda k: omega(MODEL, 1, 0.3, 0.2, k),
    "phase_speed_c0": lambda k: phase_speed_c0(MODEL, k),
    "check_resonance": lambda k: check_resonance(MODEL, k),
    "stokes_coefficients": lambda k: stokes_coefficients(MODEL, k),
    "build_wave": lambda k: build_wave(MODEL, k),
    "collision_rho_squared": lambda k: collision_rho_squared(MODEL, -1, 0, 0.3, k),
    "collision_rho_squared[array]": lambda k: collision_rho_squared(MODEL, -1, 0, 0.3,
                                                                    np.array([1.0, k])),
    "theta1_verdict": lambda k: theta1_verdict(MODEL, k),
    "classify": lambda k: classify(MODEL, k),
    "long_wavelength_lambda2": lambda k: long_wavelength_lambda2(MODEL, k, 0.01, 0.005),
}

#: Public entries that take a mode separation theta, called at theta.
THETA_ENTRIES = {
    "collision_wavenumber_window": lambda t: collision_wavenumber_window(MODEL, -1, t),
    "collision_floquet_window": lambda t: collision_floquet_window(MODEL, -1, t, 1.0),
    "enumerate_potentially_unstable": lambda t: enumerate_potentially_unstable(MODEL, t,
                                                                               "periodic"),
}


@pytest.mark.parametrize("entry, bad, error, message", [
    *[(name, k, DomainError, "wavenumber must be positive")
      for name in K_ENTRIES for k in (0.0, -1.0, math.nan, math.inf)],
    *[(name, theta, ValidationError, "theta must be a positive integer")
      for name in THETA_ENTRIES for theta in (0, -1)],
])
def test_every_entry_rejects_a_bad_wavenumber_or_theta(entry, bad, error, message):
    call = {**K_ENTRIES, **THETA_ENTRIES}[entry]
    with pytest.raises(error, match=message) as caught:
        call(bad)
    assert type(caught.value) is error


@pytest.mark.parametrize("call, message", [
    (lambda: enumerate_potentially_unstable(MODEL, 2, "x"), "perturbation must be"),
    (lambda: theta1_band(MODEL, 2.0, 0.01, 0.0), "xi must lie in"),
    (lambda: theta1_band(MODEL, 2.0, 0.01, 0.6), "xi must lie in"),
    # N = 8 gives dimension 17
    (lambda: shift_invert_eigs(MODEL, build_wave(MODEL, 1.0), 0.5, 0.3, 8, shift=0.1j, count=16),
     "count must be below the truncated dimension"),
    (lambda: sweep(MODEL, 1.0, 0.01, [], [0.5]), "sweep grids must be non-empty"),
    (lambda: sweep(MODEL, 1.0, 0.01, [1.0], []), "sweep grids must be non-empty"),
], ids=["perturbation", "xi-0", "xi-0.6", "count", "empty-rho", "empty-xi"])
def test_other_inputs_outside_the_domain_are_rejected(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
