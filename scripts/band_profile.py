#!/usr/bin/env python3
"""Profile the adjacent-pair instability band against its predicted shape.

Sweeps rho^2 through the band at fixed xi and compares the numeric growth
rate with the predicted peak and half-width.

    python3 scripts/band_profile.py --k 2 --xi 0.5 --eps 0.01 --out-dir out/band
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from transpec import max_growth_rate, theta1_band
from transpec.cli import csv_lines, exit_code, finite, model_from, model_options, svg_plot


def main():
    ap = argparse.ArgumentParser(parents=[model_options()])
    ap.add_argument("--k", type=finite, default=2.0)
    ap.add_argument("--xi", type=finite, default=0.5)
    ap.add_argument("--eps", type=finite, default=0.01)
    ap.add_argument("--N", type=int, default=64)
    ap.add_argument("--points", type=int, default=41)
    ap.add_argument("--halfwidths", type=finite, default=3.0,
                    help="transect half-extent in units of the band half-width")
    ap.add_argument("--out-dir", default="out/band")
    args = ap.parse_args()
    sys.exit(exit_code(lambda: profile(args)))


def profile(args):
    model = model_from(args)
    band = theta1_band(model, args.k, args.eps, args.xi)
    if not band.exists:
        print(f"no band at k={args.k}, xi={args.xi} (rho_c^2={band.rho_c_sq:.6f})")
        return
    print(f"band center rho_c^2={band.rho_c_sq:.6f} half-width={band.halfwidth:.6f} "
          f"predicted peak={band.growth_peak:.6f}")

    s_vals = np.linspace(-args.halfwidths, args.halfwidths, args.points)
    rows = []
    for s in s_vals:
        rho_sq = band.rho_c_sq + s * band.halfwidth
        if rho_sq <= 0:
            continue
        growth = max_growth_rate(model, args.k, args.eps, np.sqrt(rho_sq),
                                 args.xi, N=args.N)
        rows.append((rho_sq, growth))
        print(f"rho^2={rho_sq: .6f}  max Re lambda={growth:.3e}")

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "band.csv").write_text(csv_lines(rows, "rho_sq,max_growth"))
    svg_plot(str(out / "band.svg"), rows, "rho^2", "max Re lambda", connect=True)
    print(f"wrote {out}/band.csv, band.svg")


if __name__ == "__main__":
    main()
