"""The four workloads: inputs made from a seed, one round of operations, checks.

A workload is a fixed list of operations (one *round*).  A run repeats whole
rounds, so every run attempts the same operations in the same proportions.
Operations call ``transpec`` through module attributes looked up at call
time, so that the traced run sees the wrapped functions.  Checks compare the
outputs with ``reference`` (formulas written apart from the program) or with
properties from ``checks``; none compares with a stored copy of an output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List

import numpy as np

import transpec
import transpec.cli

import checks
import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Where the adjacent-pair band is resolved: rmkp at k = 2, eps = 0.01.
BAND_K = 2.0
EPS = 0.01
#: Height of the high-frequency bubble on the imaginary axis.
BUBBLE_FREQUENCY = 0.37916
#: rho^2 offset of the off-band points: ten band half-widths or more.
OFF_BAND = 0.1


@dataclass
class Op:
    """One operation: ``run(round)`` returns an output that ``check`` judges."""

    label: str
    run: Callable[[int], Any]
    check: Callable[[Any], List[str]]


@dataclass
class Workload:
    name: str
    ops: List[Op]
    #: Statements a fresh interpreter runs for set-up: the import and the inputs.
    setup_code: str
    #: Checks made once per run on the first round's outputs (label -> output),
    #: for those that need extra solves.
    final_check: Callable[[Dict[str, Any]], List[str]] = field(default=lambda outputs: [])


def child_env() -> Dict[str, str]:
    """Environment of every child: the checkout's sources first, no sweep threads."""
    env = dict(os.environ)
    env.pop("TRANSPEC_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _named_model(name: str, beta: float = 1.0, gamma: float = 1.0):
    alpha = 1.5 if name == "rm-fkdv-kp" else None
    return transpec.make_model(name, gamma=gamma, beta=beta, alpha=alpha)


def _seeded_ks(rng: np.random.Generator, m: ref.Model, count: int,
               lo: float = 1.2, hi: float = 3.0) -> List[float]:
    """k in [lo, hi], kept 3% away from resonances and from verdict flips."""
    flips = ref.verdict_flips(m)
    ks: List[float] = []
    while len(ks) < count:
        k = float(rng.uniform(lo, hi))
        if ref.near_resonance(m, k, rel=0.03):
            continue
        if flips.size and np.min(np.abs(flips - k) / flips) < 0.03:
            continue
        ks.append(k)
    return ks


# --- verdicts ---------------------------------------------------------------------

#: The eight named models at beta = 1, plus Gardner at beta = -1.
VERDICT_MODELS = tuple((name, 1.0) for name in ref.MODELS) + (("rmg-kp", -1.0),)


def _verdict_problems(m: ref.Model, k: float, verdict, label: str) -> List[str]:
    problems = []
    expected = ref.expected_outcome(m, k)
    if verdict.outcome != expected:
        problems.append(f"{label}: outcome {verdict.outcome}, margins say {expected}")
    if m.beta == 1.0:
        for key, value in ref.ONSETS.get(m.name, {}).items():
            got = verdict.thresholds.get(key, math.nan)
            if not abs(got - value) < 1e-6:
                problems.append(f"{label}: {key} = {got}, closed form {value}")
    if m.name == "rmg-kp" and m.beta == -1.0:
        closed = "unstable" if ref.gardner_negative_beta_unstable(k) else "stable"
        if verdict.outcome != closed:
            problems.append(f"{label}: outcome {verdict.outcome}, -36k^4 + 8k^2 < 9 says {closed}")
    return problems


def _atlas_problems(table) -> List[str]:
    expected = ref.theorem_table()
    got = {mid: tuple(cells[c].outcome for c in ref.ATLAS_COLUMNS) for mid, cells in table.items()}
    return [] if got == expected else [f"atlas {got} differs from the theorem table {expected}"]


def _node_problems(m: ref.Model, records: Dict[tuple, List[dict]], label: str) -> List[str]:
    """Collision records (as dicts) per (theta, perturbation) against the reference."""
    problems = []
    expected = ref.node_table(m)
    for (theta, pert), recs in records.items():
        got = {(r["n"], r["m"]) for r in recs}
        if got != set(expected[theta][pert]):
            problems.append(f"{label}: theta={theta} {pert} pairs {sorted(got)}, "
                            f"expected {sorted(expected[theta][pert])}")
        for r in recs:
            wn = float(ref.omega(m, r["n"] + r["xi"], r["rho_c"], r["k"]))
            wm = float(ref.omega(m, r["m"] + r["xi"], r["rho_c"], r["k"]))
            if not (r["opposite_krein"] and abs(wn - wm) <= 1e-8 * max(1.0, abs(wn))):
                problems.append(f"{label}: record {r} is not an opposite-signature collision")
    return problems


def verdicts(seed: int, in_process: bool = False) -> Workload:
    """classify at seeded k on every model, one atlas and one collision node table."""
    rng = np.random.default_rng(seed)
    ops = []
    for name, beta in VERDICT_MODELS:
        model, m = _named_model(name, beta), ref.Model(name, beta=beta)
        for k in _seeded_ks(rng, m, 2):
            label = f"classify {name} beta={beta:g} k={k:.6f}"
            ops.append(Op(label,
                          lambda r, model=model, k=k: transpec.classify(model, k),
                          lambda v, m=m, k=k, label=label: _verdict_problems(m, k, v, label)))
    ops.append(Op("atlas", lambda r: transpec.atlas(), _atlas_problems))
    gamma = float(rng.uniform(0.5, 2.0))
    node_model = _named_model("rmkp", gamma=gamma)
    label = f"collide table rmkp gamma={gamma:.6f}"
    ops.append(Op(label,
                  lambda r: {(theta, pert): transpec.enumerate_potentially_unstable(
                      node_model, theta, pert)
                      for theta in range(1, 5) for pert in ("periodic", "nonperiodic")},
                  lambda recs: _node_problems(
                      ref.Model("rmkp", gamma=gamma),
                      {key: [r.as_dict() for r in rs] for key, rs in recs.items()}, label)))
    setup = ("import transpec\n"
             f"models = [transpec.make_model(n, beta=b, alpha=1.5 if n == 'rm-fkdv-kp' else None)"
             f" for n, b in {VERDICT_MODELS!r}]\n")
    return Workload("verdicts", ops, setup)


# --- dense_sweep --------------------------------------------------------------------

def _rho_c(m: ref.Model, k: float, xi: float, offset: float = 0.0) -> float:
    return math.sqrt(float(ref.band_rho_sq(m, k, xi)) + offset)


def _sweep_problems(m: ref.Model, k: float, eps: float, output, label: str) -> List[str]:
    results, bubbles = output
    problems = []
    predicted = 0.0
    for r in results:
        where = f"{label} at rho={r.rho:.9f} xi={r.xi:.9f}"
        if r.error is not None:
            problems.append(f"{where}: {r.error}")
            continue
        problems += checks.symmetry_problems(r.eigenvalues, r.xi, where)
        if r.xi == 0.0:
            problems += checks.lw_growth_problems(r.max_real, m, k, eps, r.rho, where)
        else:
            problems += checks.growth_problems(r.eigenvalues, m, k, eps, r.rho, r.xi, where)
            if checks.band_point(m, k, eps, r.rho, r.xi) == "centre":
                predicted = max(predicted, ref.band_growth(m, k, eps, r.xi))
    if predicted:
        top = max((b.max_growth for b in bubbles), default=0.0)
        if not abs(top - predicted) <= checks.BAND_CENTRE_REL * predicted:
            problems.append(f"{label}: strongest bubble {top:.6g}, predicted {predicted:.6g}")
    return problems


def dense_sweep(seed: int, in_process: bool = False) -> Workload:
    """Three sweeps plus bubble detection: a wide N = 64 grid, an N = 256 grid, xi = 0."""
    rng = np.random.default_rng(seed)
    model, m = _named_model("rmkp"), ref.Model("rmkp")
    xis = [0.3 + (j + float(rng.uniform())) * 0.2 / 6 for j in range(6)]
    rhos = ([_rho_c(m, BAND_K, xi) for xi in xis]
            + [_rho_c(m, BAND_K, xis[0], -OFF_BAND), _rho_c(m, BAND_K, 0.5, OFF_BAND)])
    xi2 = float(rng.uniform(0.35, 0.5))
    rhos2 = [_rho_c(m, BAND_K, xi2, d) for d in (-OFF_BAND, 0.0, OFF_BAND)]
    k_lw = 0.8
    rho_max = math.sqrt(-(k_lw * EPS) ** 2 * float(ref.lw_margin(m, k_lw)))
    rhos3 = [rho_max * (0.2 + 0.6 * (j + float(rng.uniform())) / 6) for j in range(6)]
    grids = [("band N=64", BAND_K, rhos, xis, 64),
             ("band N=256", BAND_K, rhos2, [xi2], 256),
             ("xi=0 k=0.8", k_lw, rhos3, [0.0], 64)]
    ops = []
    for label, k, rho_grid, xi_grid, N in grids:
        def run(r, k=k, rho_grid=rho_grid, xi_grid=xi_grid, N=N):
            results = transpec.sweep(model, k, EPS, rho_grid, xi_grid, N)
            return results, transpec.detect_bubbles(results)
        ops.append(Op(f"sweep {label}", run,
                      lambda out, k=k, label=label: _sweep_problems(m, k, EPS, out, label)))

    def final_check(outputs) -> List[str]:
        problems = []
        for op, (label, k, *_rest) in zip(ops, grids):
            if op.label not in outputs:
                continue
            r = max(outputs[op.label][0], key=lambda res: res.max_real)
            fine = transpec.spectrum_at(model, k, EPS, r.rho, r.xi, math.ceil(1.5 * r.N))
            problems += checks.truncation_problems(r.eigenvalues, fine.eigenvalues,
                                                   f"{label} rho={r.rho:.9f}")
        return problems

    setup = ("import transpec\n"
             "model = transpec.make_model('rmkp')\n"
             f"waves = [transpec.build_wave(model, k, {EPS!r}, check=False) for k in ({BAND_K!r}, {k_lw!r})]\n")
    return Workload("dense_sweep", ops, setup, final_check)


# --- shift_invert -------------------------------------------------------------------

def shift_invert(seed: int, in_process: bool = False) -> Workload:
    """shift_invert_eigs at the bubble: two N = 64 solves and the N = 256 attempt.

    The N = 256 attempt uses seed-independent inputs: its inner GMRES solves
    stagnate today, so it is counted as failed in every run.
    """
    rng = np.random.default_rng(seed)
    model, m = _named_model("rmkp"), ref.Model("rmkp")
    wave = transpec.build_wave(model, BAND_K, EPS, check=False)
    xi = ref.xi_at_frequency(m, BAND_K, BUBBLE_FREQUENCY)
    rho = _rho_c(m, BAND_K, xi)
    growth = ref.band_growth(m, BAND_K, EPS, xi)
    # the mirrored exponent -xi carries the pair at +i omega, +xi at -i omega
    solves = [(-xi, 1.0, float(rng.uniform(-5e-4, 5e-4)), 64),
              (xi, -1.0, float(rng.uniform(-5e-4, 5e-4)), 64),
              (-xi, 1.0, 0.0, 256)]
    ops = []
    for x, sign, detune, N in solves:
        shift = complex(0.0, sign * (BUBBLE_FREQUENCY + detune))
        label = f"shift_invert N={N} xi={x:.9f} shift={shift.imag:.6f}i"
        ops.append(Op(label,
                      lambda r, x=x, shift=shift, N=N: transpec.shift_invert_eigs(
                          model, wave, rho, x, N, shift=shift, count=4),
                      lambda res, sign=sign, label=label: checks.pair_problems(
                          res.eigenvalues, growth, sign * BUBBLE_FREQUENCY, label)))

    def final_check(outputs) -> List[str]:
        problems = []
        for op, (x, _sign, _detune, N) in zip(ops, solves):
            if op.label in outputs:
                res = outputs[op.label]
                dense = transpec.eig_dense(transpec.assemble_operator(model, wave, rho, x, N))
                problems += checks.subset_problems(res.eigenvalues, dense.eigenvalues, op.label)
        return problems

    setup = ("import transpec\n"
             "model = transpec.make_model('rmkp')\n"
             f"wave = transpec.build_wave(model, {BAND_K!r}, {EPS!r}, check=False)\n")
    return Workload("shift_invert", ops, setup, final_check)


# --- cli ------------------------------------------------------------------------------

def _run_cli(argv: List[str], in_process: bool) -> str:
    """Run ``transpec.cli`` on argv; return its standard output or raise on exit != 0."""
    if in_process:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = transpec.cli.run(argv)
        stdout, stderr = out.getvalue(), err.getvalue()
    else:
        proc = subprocess.run([sys.executable, "-m", "transpec.cli", *argv], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, timeout=170)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    if code != 0:
        raise RuntimeError(f"exit code {code}: {stderr.strip()[-300:]}")
    return stdout


def _csv_rows(path: Path, header: str) -> np.ndarray:
    lines = path.read_text().splitlines()
    if lines[0] != header:
        raise ValueError(f"{path.name}: header {lines[0]!r}, expected {header!r}")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float)


def _svg_marks(path: Path) -> Dict[str, int]:
    tags = [el.tag.rsplit("}", 1)[-1] for el in ET.parse(path).getroot().iter()]
    return {t: tags.count(t) for t in ("circle", "polyline")}


def _guard(label: str, fn: Callable[[], List[str]]) -> List[str]:
    """An output that cannot be read is a problem, not a crash of the benchmark."""
    try:
        return fn()
    except (OSError, ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
        return [f"{label}: unreadable output ({type(exc).__name__}: {exc})"]


def _round_dir(r: int) -> Path:
    d = OUT / "cli" / f"round{r}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def cli(seed: int, in_process: bool = False) -> Workload:
    """The six subcommands, each a child process running ``python -m transpec.cli``.

    ``collide`` runs twice, as the node table and as JSON-line records, so a
    round has seven commands and its median latency is one command's, not the
    mean of two.
    """
    rng = np.random.default_rng(seed)
    shutil.rmtree(OUT / "cli", ignore_errors=True)
    (OUT / "cli").mkdir(parents=True)
    m = ref.Model("rmkp")
    k_wave = _seeded_ks(rng, m, 1)[0]
    k_class = _seeded_ks(rng, m, 1)[0]
    gamma = float(rng.uniform(0.5, 2.0))
    xi_s = float(rng.uniform(0.3, 0.5))
    rho_s = _rho_c(m, BAND_K, xi_s)
    xi_a, xi_b = float(rng.uniform(0.3, 0.4)), float(rng.uniform(0.4, 0.5))
    rhos = [_rho_c(m, BAND_K, xi_b), _rho_c(m, BAND_K, xi_a, -OFF_BAND)]
    config = OUT / "cli" / "classify.json"
    # the flag --k must win over the file's k
    config.write_text(json.dumps({"model": "rmkp", "gamma": 1.0, "k": 99.0}))

    def wave_problems(out) -> List[str]:
        stdout, d = out
        rec = json.loads(stdout)
        problems = []
        for key, value in (("eta2", ref.eta2(m, k_wave)), ("eta3", ref.eta3(m, k_wave)),
                           ("c0", ref.c0(m, k_wave)), ("c2", ref.c2(m, k_wave))):
            if not abs(rec[key] - value) <= 1e-10 * max(1.0, abs(value)):
                problems.append(f"wave: {key} = {rec[key]}, expected {value}")
        if not rec["residual"] <= 100 * EPS**4:
            problems.append(f"wave: residual {rec['residual']} above 100 eps^4")
        rows = _csv_rows(d / "wave.csv", "z,eta")
        z = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
        if rows.shape != (256, 2) or np.max(np.abs(rows[:, 0] - z)) > 1e-15 \
                or np.max(np.abs(rows[:, 1] - ref.profile(m, k_wave, EPS, z))) > 1e-14:
            problems.append("wave: profile CSV differs from the expansion")
        return problems

    def collide_problems(out) -> List[str]:
        stdout, _ = out
        lines = stdout.splitlines()
        if re.split(r"\s{2,}", lines[0].strip()) != ["theta", "periodic", "nonperiodic"]:
            return [f"collide: table header {lines[0]!r}"]
        expected = ref.node_table(ref.Model("rmkp", gamma=gamma))
        problems = []
        for line in lines[1:]:
            theta, *cells = re.split(r"\s{2,}", line.strip())
            for pert, cell in zip(("periodic", "nonperiodic"), cells):
                got = {(int(a), int(b)) for a, b in re.findall(r"\{(-?\d+),(-?\d+)\}", cell)}
                if got != set(expected[int(theta)][pert]):
                    problems.append(f"collide: theta={theta} {pert} {sorted(got)}")
        if len(lines) != 5:
            problems.append(f"collide: {len(lines) - 1} table rows, expected 4")
        return problems

    def records_problems(out) -> List[str]:
        recs = [json.loads(line) for line in out[0].splitlines()]
        return _node_problems(ref.Model("rmkp", gamma=gamma), {(3, "nonperiodic"): recs},
                              "collide records")

    def classify_problems(out) -> List[str]:
        rec = json.loads(out[0])
        if rec["k"] != k_class:
            return [f"classify: k = {rec['k']}, the flag gave {k_class}"]
        verdict = SimpleNamespace(outcome=rec["outcome"], thresholds=rec["thresholds"])
        return _verdict_problems(m, k_class, verdict, "classify")

    def spectrum_problems(out) -> List[str]:
        stdout, d = out
        rec = json.loads(stdout)
        ev = np.array([complex(a, b) for a, b in rec["eigenvalues"]])
        rows = _csv_rows(d / "spectrum.csv", "re,im")
        problems = []
        if ev.size != 129 or not np.array_equal(rows[:, 0] + 1j * rows[:, 1], ev):
            problems.append("spectrum: CSV and JSON eigenvalues differ")
        if _svg_marks(d / "spectrum.svg")["circle"] != ev.size:
            problems.append("spectrum: SVG does not plot every eigenvalue")
        problems += checks.symmetry_problems(ev, xi_s, "spectrum")
        problems += checks.growth_problems(ev, m, BAND_K, EPS, rho_s, xi_s, "spectrum")
        return problems

    def sweep_problems(out) -> List[str]:
        d = out[1] / "sweep"
        manifest = json.loads((d / "manifest.json").read_text())
        problems = []
        if len(manifest["points"]) != 4:
            problems.append(f"sweep: {len(manifest['points'])} points, expected 4")
        predicted = 0.0
        for pt in manifest["points"]:
            rows = _csv_rows(d / pt["file"], "re,im")
            where = f"sweep at rho={pt['rho']:.9f} xi={pt['xi']:.9f}"
            if pt["error"] is not None or np.max(rows[:, 0]) != pt["max_real"]:
                problems.append(f"{where}: manifest max_real disagrees with its CSV")
            ev = rows[:, 0] + 1j * rows[:, 1]
            problems += checks.symmetry_problems(ev, pt["xi"], where)
            problems += checks.growth_problems(ev, m, BAND_K, EPS, pt["rho"], pt["xi"], where)
            if checks.band_point(m, BAND_K, EPS, pt["rho"], pt["xi"]) == "centre":
                predicted = max(predicted, ref.band_growth(m, BAND_K, EPS, pt["xi"]))
        top = max((b["max_growth"] for b in manifest["bubbles"]), default=0.0)
        if not abs(top - predicted) <= checks.BAND_CENTRE_REL * predicted:
            problems.append(f"sweep: strongest bubble {top}, predicted {predicted}")
        if _svg_marks(out[1] / "sweep.svg")["polyline"] != 1:
            problems.append("sweep: SVG has no growth curve")
        return problems

    def atlas_problems(out) -> List[str]:
        rec = json.loads((out[1] / "atlas.json").read_text())
        expected = ref.theorem_table()
        got = {mid: tuple(cells[c]["outcome"] for c in ref.ATLAS_COLUMNS) for mid, cells in rec.items()}
        return [] if got == expected else [f"atlas: {got} differs from the theorem table"]

    commands = [
        ("wave", lambda d: ["wave", "--model", "rmkp", "--k", repr(k_wave), "--eps", repr(EPS),
                            "--csv", str(d / "wave.csv")], wave_problems),
        ("collide", lambda d: ["collide", "--model", "rmkp", "--gamma", repr(gamma), "--table",
                               "--theta-max", "4"], collide_problems),
        ("records", lambda d: ["collide", "--model", "rmkp", "--gamma", repr(gamma), "--theta", "3",
                               "--perturbation", "nonperiodic"], records_problems),
        ("classify", lambda d: ["--config", str(config), "classify", "--k", repr(k_class)],
         classify_problems),
        ("spectrum", lambda d: ["spectrum", "--model", "rmkp", "--k", repr(BAND_K), "--eps",
                                repr(EPS), "--N", "64", "--rho", repr(rho_s), "--xi", repr(xi_s),
                                "--csv", str(d / "spectrum.csv"), "--svg", str(d / "spectrum.svg")],
         spectrum_problems),
        ("sweep", lambda d: ["sweep", "--model", "rmkp", "--k", repr(BAND_K), "--eps", repr(EPS),
                             "--N", "64", "--rho-grid", ",".join(map(repr, rhos)),
                             "--xi-grid", f"{xi_a!r},{xi_b!r}", "--out-dir", str(d / "sweep"),
                             "--svg", str(d / "sweep.svg")], sweep_problems),
        ("atlas", lambda d: ["atlas", "--json", str(d / "atlas.json")], atlas_problems),
    ]
    ops = []
    for name, argv, problems in commands:
        def run(r, argv=argv):
            d = _round_dir(r)
            return _run_cli(argv(d), in_process), d
        ops.append(Op(f"cli {name}", run,
                      lambda out, name=name, problems=problems: _guard(
                          f"cli {name}", lambda: problems(out))))
    return Workload("cli", ops, "import transpec.cli\n")


BY_NAME = {"verdicts": verdicts, "dense_sweep": dense_sweep,
            "shift_invert": shift_invert, "cli": cli}
