#!/usr/bin/env python3
"""Locate and resolve a high-frequency instability bubble.

Walks the adjacent-pair collision curve rho_c(xi), finds the Floquet exponent
whose collision frequency magnitude matches --target, then resolves the
numeric spectrum there and writes eigenvalues plus a bubble summary.

    python3 scripts/bubble_hunt.py --k 2 --eps 0.01 --out-dir out/bubble
"""

import argparse
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from transpec import DomainError, collision_rho_squared, detect_bubbles, omega, sweep
from transpec.cli import csv_lines, dumps, exit_code, finite, model_from, model_options, svg_plot


def collision_frequency(model, k, xi):
    r2 = collision_rho_squared(model, -1, 0, xi, k)
    if r2 <= 0:
        return np.nan
    return omega(model, 0, np.sqrt(r2), xi, k)


def solve_xi(model, k, target, lo=0.40, hi=0.49999):
    """The lowest xi in [lo, hi] whose collision frequency magnitude is ``target``."""
    def mismatch(xi):
        return abs(collision_frequency(model, k, xi)) - target

    grid = np.linspace(lo, hi, 101)
    values = np.array([mismatch(xi) for xi in grid])
    # a NaN end, where the pair does not collide, fails the comparison
    cells = np.flatnonzero(values[:-1] * values[1:] < 0)
    if not cells.size:
        raise DomainError(f"no xi in [{lo}, {hi}] has collision frequency magnitude {target}")
    return brentq(mismatch, grid[cells[0]], grid[cells[0] + 1], xtol=1e-14)


def main():
    ap = argparse.ArgumentParser(parents=[model_options()])
    ap.add_argument("--k", type=finite, default=2.0)
    ap.add_argument("--eps", type=finite, default=0.01)
    ap.add_argument("--N", type=int, default=64)
    ap.add_argument("--target", type=finite, default=0.37916,
                    help="imaginary-axis height of the bubble to hunt")
    ap.add_argument("--out-dir", default="out/bubble")
    args = ap.parse_args()
    sys.exit(exit_code(lambda: hunt(args)))


def hunt(args):
    model = model_from(args)
    xi = solve_xi(model, args.k, args.target)
    rho = np.sqrt(collision_rho_squared(model, -1, 0, xi, args.k))
    print(f"collision curve hit: xi={xi:.6f} rho_c={rho:.6f}")

    results = sweep(model, args.k, args.eps, [float(rho)], [-xi, xi], N=args.N)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    res = results[1]  # the +xi point
    if res.error is not None:
        raise SystemExit(f"error: spectrum at xi={xi:.6f}: {res.error}")
    (out / "spectrum.csv").write_text(
        csv_lines([(ev.real, ev.imag) for ev in res.eigenvalues], "re,im"))
    svg_plot(str(out / "spectrum.svg"),
             [(float(ev.real), float(ev.imag)) for ev in res.eigenvalues],
             "Re lambda", "Im lambda")

    bubbles = detect_bubbles(results, threshold=1e-4)
    (out / "bubbles.json").write_text(dumps([b.as_dict() for b in bubbles]))
    for b in bubbles:
        print(f"bubble: center={b.center:.6f} max_growth={b.max_growth:.6f}")
    print(f"wrote {out}/spectrum.csv, spectrum.svg, bubbles.json")


if __name__ == "__main__":
    main()
