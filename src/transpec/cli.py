"""Command-line front end.

Subcommands: wave, collide, classify, spectrum, sweep, atlas.  Options can be
preloaded from a flat JSON config file keyed by dest; flags override it.
All machine output is JSON (floats at 17 significant digits) or CSV; human
tables round to 9 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import collisions, operator, reduced, stokes, symbols
from .errors import NumericalError, TranspecError, ValidationError

_JSON_DIGITS = 17
_TABLE_DIGITS = 9


# --- deterministic serialization -------------------------------------------

def _fmt(x: float, digits: int = _JSON_DIGITS) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, f".{digits}g")


def _leaf(obj) -> Optional[str]:
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    return None


def dumps(obj, indent: int = 0, compact: bool = False) -> str:
    """JSON text with floats rendered at fixed significant digits.

    Containers open one item per line, indented by two spaces per level;
    ``compact=True`` puts everything on one line instead.
    """
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: {dumps(v, indent + 2, compact)}" for k, v in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [dumps(v, indent + 2, compact) for v in obj]
        brackets = "[]"
    else:
        leaf = _leaf(obj)
        if leaf is None:
            raise ValidationError(f"cannot serialize {type(obj).__name__}")
        return leaf
    if compact or not items:
        return brackets[0] + ", ".join(items) + brackets[1]
    pad = " " * indent
    body = ",\n".join(f"{pad}  {item}" for item in items)
    return f"{brackets[0]}\n{body}\n{pad}{brackets[1]}"


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text)


def csv_lines(rows, header: str) -> str:
    """CSV text: the header line, then one line of 17-digit floats per row."""
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(float(v)) for v in row))
    return "\n".join(lines) + "\n"


# --- minimal SVG -------------------------------------------------------------

def svg_plot(path: str, pts, xlabel: str, ylabel: str, connect: bool = False) -> None:
    """Scatter (or polyline) of (x, y) points on fixed 640x480 axes."""
    W, H, M = 640, 480, 60
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if xhi == xlo:
        xlo, xhi = xlo - 1.0, xhi + 1.0
    if yhi == ylo:
        ylo, yhi = ylo - 1.0, yhi + 1.0

    def sx(x):
        return M + (x - xlo) / (xhi - xlo) * (W - 2 * M)

    def sy(y):
        return H - M - (y - ylo) / (yhi - ylo) * (H - 2 * M)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{M}" y1="{H - M}" x2="{W - M}" y2="{H - M}" stroke="black"/>',
        f'<line x1="{M}" y1="{M}" x2="{M}" y2="{H - M}" stroke="black"/>',
        f'<text x="{W // 2}" y="{H - 15}" text-anchor="middle" font-size="14">{xlabel}</text>',
        f'<text x="18" y="{H // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {H // 2})">{ylabel}</text>',
        f'<text x="{M}" y="{H - M + 18}" font-size="11">{_fmt(xlo, _TABLE_DIGITS)}</text>',
        f'<text x="{W - M}" y="{H - M + 18}" text-anchor="end" font-size="11">{_fmt(xhi, _TABLE_DIGITS)}</text>',
        f'<text x="{M - 4}" y="{H - M}" text-anchor="end" font-size="11">{_fmt(ylo, _TABLE_DIGITS)}</text>',
        f'<text x="{M - 4}" y="{M + 4}" text-anchor="end" font-size="11">{_fmt(yhi, _TABLE_DIGITS)}</text>',
    ]
    if connect and len(pts) > 1:
        path_pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{path_pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>')
    else:
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="steelblue"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# --- argument plumbing --------------------------------------------------------

def finite(text: str) -> float:
    """Type of every float option: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _grid(text: str) -> list:
    """Type of the grid options: 'lo:hi:num', or a comma list of values."""
    try:
        if ":" in text:
            lo, hi, num = text.split(":")
            return list(np.linspace(finite(lo), finite(hi), int(num)))
        return [finite(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected 'lo:hi:num' or a comma list, got {text!r}") from exc


def model_options() -> argparse.ArgumentParser:
    """Parent parser of the model flags; ``model_from`` builds their model."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--model", default="rmkp", help="model id, e.g. rmkp, rmbo-kp, rm-whitham-kp")
    p.add_argument("--gamma", type=finite, default=1.0, help="rotation parameter (> 0)")
    p.add_argument("--beta", type=finite, default=1.0, help="dispersion scale")
    p.add_argument("--alpha", type=finite, default=None, help="symbol exponent (rm-fkdv-kp)")
    return p


def model_from(args: argparse.Namespace) -> symbols.ModelSpec:
    """The model named by the ``model_options`` flags in parsed ``args``."""
    return symbols.make_model(args.model, gamma=args.gamma, beta=args.beta, alpha=args.alpha)


# --- subcommands ---------------------------------------------------------------

def _cmd_wave(args) -> int:
    if args.samples < 0:
        raise ValidationError(f"--samples must be non-negative, got {args.samples}")
    model = model_from(args)
    wave = stokes.build_wave(model, args.k, args.eps)
    record = {
        "model": args.model, "gamma": model.gamma, "beta": model.beta,
        "k": args.k, "eps": args.eps,
        "eta2": wave.eta2, "eta3": wave.eta3, "c0": wave.c0, "c2": wave.c2,
        "residual": stokes.residual_norm(model, wave),
    }
    _write_text(args.json, dumps(record))
    if args.csv:
        zs = np.linspace(0.0, 2 * np.pi, args.samples, endpoint=False)
        rows = [(z, stokes.wave_profile(wave, z)) for z in zs]
        _write_text(args.csv, csv_lines(rows, "z,eta"))
    return 0


def _text_table(rows) -> str:
    """Left-aligned columns two spaces apart, one line per row, header row first."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "".join("  ".join(v.ljust(w) for v, w in zip(r, widths)) + "\n" for r in rows)


def _collide_table(model, theta_max: int) -> str:
    rows = [["theta", "periodic", "nonperiodic"]]
    for theta in range(1, theta_max + 1):
        row = [str(theta)]
        for pert in ("periodic", "nonperiodic"):
            recs = collisions.enumerate_potentially_unstable(model, theta, pert)
            row.append(" ".join(f"{{{r.n},{r.m}}}" for r in recs) or "none")
        rows.append(row)
    return _text_table(rows)


def _cmd_collide(args) -> int:
    model = model_from(args)
    if args.table:
        if args.theta_max < 1:
            raise ValidationError(f"--theta-max must be a positive integer, got {args.theta_max}")
        sys.stdout.write(_collide_table(model, args.theta_max))
        return 0
    records = collisions.enumerate_potentially_unstable(
        model, args.theta, args.perturbation, k=args.k)
    out = "\n".join(dumps(r.as_dict(), compact=True) for r in records)
    _write_text(args.json, out)
    return 0


def _cmd_classify(args) -> int:
    model = model_from(args)
    verdict = reduced.classify(model, args.k)
    record = {"model": args.model, "gamma": model.gamma, "beta": model.beta, "k": args.k}
    record.update(verdict.as_dict())
    _write_text(args.json, dumps(record))
    return 0


def _cmd_spectrum(args) -> int:
    model = model_from(args)
    wave = stokes.build_wave(model, args.k, args.eps, check=False)
    if args.shift is not None:
        try:
            re, im = (finite(v) for v in args.shift.split(","))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValidationError(f"--shift expects 're,im', got {args.shift!r}") from exc
        result = operator.shift_invert_eigs(model, wave, args.rho, args.xi, args.N,
                                            shift=complex(re, im), count=args.count)
    else:
        result = operator.eig_dense(operator.assemble_operator(model, wave, args.rho, args.xi, args.N))
    _write_text(args.json, dumps(result.as_dict()))
    if args.csv:
        rows = [(ev.real, ev.imag) for ev in result.eigenvalues]
        _write_text(args.csv, csv_lines(rows, "re,im"))
    if args.svg:
        svg_plot(args.svg, [(float(ev.real), float(ev.imag)) for ev in result.eigenvalues],
                 "Re lambda", "Im lambda")
    return 0


def _cmd_sweep(args) -> int:
    model = model_from(args)
    results = operator.sweep(model, args.k, args.eps, args.rho_grid, args.xi_grid, args.N)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"model": args.model, "gamma": model.gamma, "beta": model.beta,
                "k": args.k, "eps": args.eps, "N": args.N, "points": []}
    for i, res in enumerate(results):
        name = f"point_{i:04d}.csv"
        rows = [(ev.real, ev.imag) for ev in res.eigenvalues]
        _write_text(str(args.out_dir / name), csv_lines(rows, "re,im"))
        manifest["points"].append({
            "file": name, "rho": res.rho, "xi": res.xi,
            "max_real": res.max_real, "error": res.error,
        })
    bubbles = operator.detect_bubbles(results, threshold=args.bubble_threshold)
    manifest["bubbles"] = [b.as_dict() for b in bubbles]
    _write_text(str(args.out_dir / "manifest.json"), dumps(manifest))
    if args.svg:
        pts = sorted((res.xi, res.max_real) for res in results if res.error is None)
        svg_plot(args.svg, pts, "xi", "max Re lambda", connect=True)
    return 0


def _cmd_atlas(args) -> int:
    table = reduced.atlas(gamma=args.gamma, fkdv_alpha=args.fkdv_alpha)
    rows = [["model", *reduced.ATLAS_COLUMNS]]
    for mid, cells in table.items():
        rows.append([mid] + ["Unstable" if cells[c].outcome == "unstable" else "Stable"
                             for c in reduced.ATLAS_COLUMNS])
    sys.stdout.write(_text_table(rows))
    if args.json:
        record = {mid: {c: cells[c].as_dict() for c in reduced.ATLAS_COLUMNS}
                  for mid, cells in table.items()}
        _write_text(args.json, dumps(record))
    return 0


def _top_parser(**kwargs) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(allow_abbrev=False, **kwargs)
    p.add_argument("--config", help="JSON file of option values keyed by dest; flags override")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _top_parser(
        prog="transpec", description="Transverse spectral stability of small periodic traveling waves")
    sub = parser.add_subparsers(dest="command", required=True)
    models = model_options()
    waves = argparse.ArgumentParser(add_help=False, parents=[models])
    waves.add_argument("--k", type=finite, default=1.0)
    waves.add_argument("--eps", type=finite, default=0.01)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--json", help="output path (default stdout)")

    p = sub.add_parser("wave", parents=[waves, out], help="wave expansion coefficients and residual")
    p.add_argument("--csv", default=None, help="write (z, eta) samples here")
    p.add_argument("--samples", type=int, default=256)
    p.set_defaults(func=_cmd_wave)

    p = sub.add_parser("collide", parents=[models, out], help="potentially unstable collision records")
    p.add_argument("--k", type=finite, default=None,
                   help="evaluate records at this wavenumber (default: search a witness)")
    p.add_argument("--theta", type=int, default=2, help="mode separation")
    p.add_argument("--perturbation", choices=("periodic", "nonperiodic"),
                   default="periodic")
    p.add_argument("--table", action="store_true",
                   help="render the potentially-unstable-node table")
    p.add_argument("--theta-max", type=int, default=4)
    p.set_defaults(func=_cmd_collide)

    p = sub.add_parser("classify", parents=[models, out], help="stability verdict at one wavenumber")
    p.add_argument("--k", type=finite, default=1.0)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("spectrum", parents=[waves, out], help="eigenvalues at one (rho, xi)")
    p.add_argument("--N", type=int, default=64)
    p.add_argument("--rho", type=finite, required=True)
    p.add_argument("--xi", type=finite, required=True)
    p.add_argument("--shift", default=None, help="shift-invert target 're,im'")
    p.add_argument("--count", type=int, default=6)
    p.add_argument("--csv", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("sweep", parents=[waves], help="spectra over a (rho, xi) grid")
    p.add_argument("--N", type=int, default=64)
    p.add_argument("--rho-grid", type=_grid, required=True, help="'lo:hi:num' or comma list")
    p.add_argument("--xi-grid", type=_grid, required=True, help="'lo:hi:num' or comma list")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--bubble-threshold", type=finite, default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("atlas", help="stability table over all named models")
    p.add_argument("--gamma", type=finite, default=1.0)
    p.add_argument("--fkdv-alpha", type=finite, default=1.5)
    p.add_argument("--json", default=None)
    p.set_defaults(func=_cmd_atlas)

    return parser


def _with_config(parser: argparse.ArgumentParser, argv: list) -> list:
    """argv with the --config file's entries as flags right after the subcommand
    name: argparse converts and checks them like flags, and later flags win."""
    top, rest = _top_parser(add_help=False).parse_known_args(argv)
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    if top.config is None or not rest or rest[0] not in commands:
        return argv
    try:
        config = json.loads(Path(top.config).read_text())
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config {top.config}: {exc}")
    if not isinstance(config, dict):
        parser.error("config file must hold a flat JSON object")
    known = {a.dest for p in commands.values() for a in p._actions}
    own = {a.dest: a for a in commands[rest[0]]._actions}
    flags = []
    for key, value in config.items():
        action = own.get(key)
        if action is None:  # ignored if another subcommand takes it
            if key not in known:
                parser.error(f"config key {key!r} is no option of any subcommand")
        elif action.nargs == 0 and isinstance(value, bool):  # a switch such as --table
            flags += action.option_strings[:1] * value
        elif action.nargs != 0 and type(value) in (str, int, float):
            flags.append(f"{action.option_strings[0]}={value}")
        else:
            parser.error(f"config key {key!r} cannot take {json.dumps(value)}")
    cut = len(argv) - len(rest) + 1  # after the subcommand name
    return argv[:cut] + flags + argv[cut:]


def exit_code(call) -> int:
    """Run ``call()``: 0, or 1 after a numerical failure (an overflow or a zero
    division included) and 2 after bad input or an unwritable path, each
    reported on stderr in one line.  numpy's overflow, invalid and divide
    warnings are raised as ``FloatingPointError``, so they fail the call
    instead of printing a warning and going on with inf or nan."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return call() or 0
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (TranspecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(parser, list(argv)))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    return exit_code(lambda: args.func(args))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
