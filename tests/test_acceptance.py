"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

from transpec import (
    atlas,
    ATLAS_COLUMNS,
    build_wave,
    collision_floquet_window,
    collision_rho_squared,
    collision_wavenumber_window,
    eig_dense,
    assemble_operator,
    krein_signature,
    long_wavelength_verdict,
    make_model,
    max_growth_rate,
    omega,
    shift_invert_eigs,
    spectrum_at,
    theta1_verdict,
)

RNG = np.random.default_rng(1618033)


def _report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def rmkp():
    return make_model("rmkp", gamma=1.0, beta=1.0)


def test_criterion_1_collision_window_endpoints(rmkp):
    t0 = time.perf_counter()
    (lo_a, hi_a), = collision_wavenumber_window(rmkp, -2, 3, 0.0)
    (lo_b, hi_b), = collision_wavenumber_window(rmkp, -5, 3, 0.0)
    elapsed = time.perf_counter() - t0
    ok = (abs(hi_a - 0.70711) < 1e-3 and lo_a == 0.0
          and abs(lo_b - 0.41241) < 1e-3 and math.isinf(hi_b)
          and elapsed < 1.0)
    _report(1, ok, f"windows (0, {hi_a:.5f}) and ({lo_b:.5f}, inf) in {elapsed:.3f}s")


def test_criterion_2_nonperiodic_windows(rmkp):
    t0 = time.perf_counter()
    (lo_a, hi_a), = collision_wavenumber_window(rmkp, -2, 3, 0.4)
    windows = collision_floquet_window(rmkp, -4, 4, 0.2)
    elapsed = time.perf_counter() - t0
    (xi_lo, xi_hi), = windows
    ok = (abs(hi_a - 0.811) < 5e-3 and 0.26 < xi_lo < 0.29 and xi_hi == 0.5
          and elapsed < 1.0)
    _report(2, ok, f"k-window right {hi_a:.5f}, xi-window left {xi_lo:.5f} "
                   f"in {elapsed:.3f}s")


def test_criterion_3_long_wavelength_onset(rmkp):
    t0 = time.perf_counter()
    grow = max_growth_rate(rmkp, 0.8, 0.01, 0.005, 0.0, N=64)
    quiet = max_growth_rate(rmkp, 0.6, 0.01, 0.005, 0.0, N=64)
    verdict = long_wavelength_verdict(rmkp, 0.8)
    k_lw = verdict.thresholds["k_lw"]
    elapsed = time.perf_counter() - t0
    ok = (grow > 1e-5 and quiet < 1e-8
          and abs(k_lw - (1.0 / 4.0) ** 0.25) < 1e-6
          and verdict.outcome == "unstable"
          and elapsed < 10.0)
    _report(3, ok, f"growth {grow:.2e} vs {quiet:.2e}, onset {k_lw:.8f} "
                   f"in {elapsed:.2f}s")


def _solve_bubble_xi(model, k, target):
    """Bisection on the analytic collision frequency (independent oracle)."""
    def magnitude(xi):
        rho = math.sqrt(collision_rho_squared(model, -1, 0, xi, k))
        return abs(omega(model, 0, rho, xi, k))
    lo, hi = 0.45, 0.49999
    f_lo = magnitude(lo) - target
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ((magnitude(mid) - target) < 0) == (f_lo < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_4_bubble_reproduction(rmkp):
    t0 = time.perf_counter()
    target = 0.37916
    xi_star = _solve_bubble_xi(rmkp, 2.0, target)
    rho_star = math.sqrt(collision_rho_squared(rmkp, -1, 0, xi_star, 2.0))
    res = spectrum_at(rmkp, 2.0, 0.01, rho_star, xi_star, N=64)
    ev = res.eigenvalues
    unstable = ev[ev.real > 1e-4]
    elapsed = time.perf_counter() - t0
    ok = 0.47 < xi_star < 0.49 and unstable.size == 1
    if ok:
        lam = unstable[0]
        partner = ev[np.argmin(np.abs(ev - (-np.conj(lam))))]
        ok = (0.017 <= abs(lam.real) <= 0.023
              and abs(abs(lam.imag) - target) < 1e-2
              and abs(abs(partner.imag) - target) < 1e-2
              and elapsed < 30.0)
        detail = (f"xi*={xi_star:.5f}, pair Re={lam.real:.5f}, "
                  f"Im={lam.imag:.5f} in {elapsed:.2f}s")
    else:
        detail = f"xi*={xi_star:.5f}, unstable count {unstable.size}"
    _report(4, ok, detail)

    # same bubble through the shift-invert path, mirrored Floquet exponent
    si = shift_invert_eigs(rmkp, build_wave(rmkp, 2.0, 0.01, check=False),
                           rho_star, -xi_star, 64, shift=target * 1j, count=4)
    pair = si.eigenvalues[np.abs(si.eigenvalues.real) > 1e-4]
    assert pair.size == 2
    assert np.max(np.abs(pair.imag - target)) < 1e-2


def test_criterion_5_band_quantitative(rmkp):
    t0 = time.perf_counter()
    rho_sq = collision_rho_squared(rmkp, -1, 0, 0.5, 2.0)
    center = max_growth_rate(rmkp, 2.0, 0.01, math.sqrt(rho_sq), 0.5, N=64)
    varsigma = 0.01
    edge_hi = max_growth_rate(rmkp, 2.0, 0.01, math.sqrt(rho_sq + 2 * varsigma), 0.5, N=64)
    edge_lo = max_growth_rate(rmkp, 2.0, 0.01, math.sqrt(rho_sq - 2 * varsigma), 0.5, N=64)
    elapsed = time.perf_counter() - t0
    ok = (rho_sq == 2.25
          and abs(center - 0.02) <= 0.15 * 0.02
          and edge_hi < 1e-7 and edge_lo < 1e-7
          and elapsed < 30.0)
    _report(5, ok, f"rho_c^2={rho_sq}, center growth {center:.5f}, "
                   f"edges {edge_hi:.1e}/{edge_lo:.1e} in {elapsed:.2f}s")


def test_criterion_6_separated_pair_stability(rmkp):
    t0 = time.perf_counter()
    k = 0.55
    (lo, hi), = collision_wavenumber_window(rmkp, -1, 3, 0.0)
    rho_c = math.sqrt(collision_rho_squared(rmkp, -1, 2, 0.0, k))
    growth = max_growth_rate(rmkp, k, 0.01, rho_c, 0.0, N=64)
    elapsed = time.perf_counter() - t0
    ok = lo < k < hi and growth < 1e-7 and elapsed < 10.0
    _report(6, ok, f"k={k} inside ({lo:.3f}, {hi:.3f}), growth {growth:.2e} "
                   f"in {elapsed:.2f}s")


def test_criterion_7_model_family_thresholds():
    bo = make_model("rmbo-kp", gamma=1.0, beta=1.0)
    k_lw = long_wavelength_verdict(bo, 1.0).thresholds["k_lw"]
    k_band = theta1_verdict(bo, 1.0).thresholds["k_t1b"]
    ok = (abs(k_lw - 0.75 ** (1.0 / 3.0)) < 1e-6
          and abs(k_band - 6.0 ** (1.0 / 3.0)) < 1e-6)

    gardner = make_model("rmg-kp", gamma=1.0, beta=1.0)
    boundary = long_wavelength_verdict(gardner, 0.3).thresholds["k_lw"]
    root = math.sqrt((-8.0 + math.sqrt(64.0 + 4.0 * 36.0 * 9.0)) / 72.0)
    ok = ok and abs(boundary - root) < 1e-6
    gardner_neg = make_model("rmg-kp", gamma=1.0, beta=-1.0)
    for k in np.geomspace(0.05, 5.0, 25):
        closed_form = -36.0 * k**4 + 8.0 * k**2 < 9.0
        ok = ok and (long_wavelength_verdict(gardner_neg, float(k)).outcome
                     == ("unstable" if closed_form else "stable"))
    _report(7, ok, f"|kappa| onsets {k_lw:.6f}/{k_band:.6f}, "
                   f"quadratic+cubic boundary {boundary:.6f}")


EXPECTED_ATLAS = {
    "rmbo-kp":       ("unstable", "stable", "stable", "stable", "unstable", "stable"),
    "rm-fkdv-kp":    ("unstable", "stable", "stable", "stable", "unstable", "stable"),
    "rmg-kp":        ("unstable", "unstable", "stable", "stable", "unstable", "stable"),
    "rm-mkdv-kp":    ("unstable", "unstable", "stable", "stable", "unstable", "stable"),
    "rm-whitham-kp": ("stable", "unstable", "stable", "stable", "stable", "unstable"),
    "rmilw-kp":      ("unstable", "stable", "stable", "stable", "unstable", "stable"),
}


def test_criterion_8_atlas_regression():
    table = atlas()
    bad = []
    for mid, cells in table.items():
        got = tuple(cells[c].outcome for c in ATLAS_COLUMNS)
        if got != EXPECTED_ATLAS[mid]:
            bad.append(mid)
    _report(8, not bad, f"36 cells checked, mismatches: {bad or 'none'}")


def test_criterion_9_property_suites(rmkp):
    failures = []

    # spectrum symmetry closures over 20 random parameter sets
    for _ in range(20):
        k = float(RNG.uniform(0.55, 0.65))
        eps = float(RNG.uniform(0.0, 0.02))
        rho = float(RNG.uniform(0.0, 1.5))
        xi = float(RNG.choice([0.0, RNG.uniform(0.05, 0.5)]))
        ev = spectrum_at(rmkp, k, eps, rho, xi, N=24).eigenvalues
        scale = np.max(np.abs(ev))
        maps = [lambda z: -np.conj(z)] + ([np.conj, lambda z: -z] if xi == 0.0 else [])
        for mp in maps:
            if max(np.min(np.abs(ev - v)) for v in mp(ev)) >= 1e-8 * scale:
                failures.append(f"symmetry at k={k:.3f} xi={xi:.3f}")

    # zero-amplitude diagonal exactness
    wave0 = build_wave(rmkp, 1.0, 0.0, check=False)
    op = assemble_operator(rmkp, wave0, 0.7, 0.2, N=16)
    evs = eig_dense(op).eigenvalues
    target = np.array([1j * omega(rmkp, int(n), 0.7, 0.2, 1.0) for n in op.modes])
    if max(np.min(np.abs(evs - t)) for t in target) > 1e-12 * np.max(np.abs(target)):
        failures.append("zero-amplitude diagonal")

    # truncation refinement N -> 2N
    coarse = spectrum_at(rmkp, 0.9, 0.01, 0.3, 0.3, N=32).eigenvalues
    fine = spectrum_at(rmkp, 0.9, 0.01, 0.3, 0.3, N=64).eigenvalues
    near = coarse[np.abs(coarse) < 10.0]
    if max(np.min(np.abs(fine - lam)) for lam in near) > 1e-8:
        failures.append("refinement")

    # wave residual decays at least quartically
    from transpec import residual_norm
    eps_grid = np.geomspace(1e-3, 1e-2, 6)
    res = [residual_norm(rmkp, build_wave(rmkp, 0.6, float(e), check=False))
           for e in eps_grid]
    slope = float(np.polyfit(np.log(eps_grid), np.log(res), 1)[0])
    if slope < 3.9:
        failures.append(f"residual slope {slope:.3f}")

    # Krein signature against the quadratic form of the self-adjoint factor
    checked = 0
    while checked < 500:
        n = int(RNG.integers(-8, 9))
        xi = float(RNG.uniform(-0.49, 0.5))
        if abs(n + xi) < 1e-2:
            continue
        rho = float(RNG.uniform(0.0, 3.0))
        k = float(RNG.uniform(0.2, 2.0))
        w = omega(rmkp, n, rho, xi, k)
        if abs(w) < 1e-10:
            continue
        p = n + xi
        c0 = rmkp.j_eff(k) + rmkp.gamma / k**2
        form = k**2 * (c0 - rmkp.j_eff(k * p)) - (rmkp.gamma + rho**2) / p**2
        if krein_signature(rmkp, n, rho, xi, k) != int(np.sign(form)):
            failures.append(f"krein at n={n}")
            break
        checked += 1

    # closed-form collision solver against plain bisection
    checked = 0
    while checked < 1000:
        n = int(RNG.integers(-6, 7))
        theta = int(RNG.integers(1, 5))
        xi = float(RNG.uniform(-0.45, 0.5))
        k = float(RNG.uniform(0.2, 2.0))
        mm = n + theta
        if abs(n + xi) < 1e-2 or abs(mm + xi) < 1e-2:
            continue
        closed = collision_rho_squared(rmkp, n, mm, xi, k)
        if not 0.0 <= closed <= 380.0:
            continue
        def gap(s):
            r = math.sqrt(s)
            return omega(rmkp, n, r, xi, k) - omega(rmkp, mm, r, xi, k)
        a, b = 0.0, 400.0
        ga = gap(a)
        if ga != 0.0 and (ga < 0) == (gap(b) < 0):
            continue
        if ga == 0.0:
            brute = 0.0
        else:
            for _ in range(200):
                mid = 0.5 * (a + b)
                if (gap(mid) < 0) == (ga < 0):
                    a = mid
                else:
                    b = mid
            brute = 0.5 * (a + b)
        if abs(closed - brute) > 1e-10 * (1.0 + closed):
            failures.append(f"collision solver at n={n}, theta={theta}")
            break
        checked += 1

    _report(9, not failures, f"property suites ({failures or 'all clean'})")
