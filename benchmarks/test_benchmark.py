"""The benchmark's own tests: the reference agrees with itself, every check
rejects a perturbed output, and each workload runs a small smoke round.

    python3 -m pytest benchmarks/test_benchmark.py -q

They live outside ``tests/``, so the project's own test run does not collect them.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import transpec  # noqa: E402
import workloads  # noqa: E402

RMKP = ref.Model("rmkp")
K, EPS = workloads.BAND_K, workloads.EPS


# --- the reference against itself ---------------------------------------------------

def test_theorem_table_matches_margin_scans():
    assert ref.theorem_table() == ref.scanned_table()


@pytest.mark.parametrize("name", ["rmkp", "rmbo-kp", "rmg-kp"])
def test_onsets_are_where_the_reference_margins_flip(name):
    m = ref.Model(name)
    onsets = ref.ONSETS[name]
    below, above = onsets["k_lw"] * (1 - 1e-6), onsets["k_lw"] * (1 + 1e-6)
    assert np.sign(ref.lw_margin(m, below)) != np.sign(ref.lw_margin(m, above))
    if "k_t1b" in onsets:
        assert ref.band_max(m, onsets["k_t1b"] * (1 - 1e-4))[1] < 0
        assert ref.band_max(m, onsets["k_t1b"] * (1 + 1e-4))[1] > 0


def test_gardner_closed_form_is_the_margin_sign():
    m = ref.Model("rmg-kp", beta=-1.0)
    for k in np.geomspace(0.05, 5.0, 41):
        assert ref.gardner_negative_beta_unstable(k) == (ref.lw_margin(m, k) < 0)


def test_harmonic_balance_leaves_an_eps4_residual():
    """The reference wave solves the traveling-wave equation up to O(eps^4)."""
    m = ref.Model("rmkp")
    # 32 points resolve the ninth harmonic of eta^3 and keep rounding far below eps^4
    k, z = 1.7, np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
    js = np.fft.fftfreq(z.size, 1.0 / z.size)

    def residual(eps):
        eta = ref.profile(m, k, eps, z)
        c = ref.c0(m, k) + eps**2 * ref.c2(m, k)
        hat = np.fft.fft
        inner = (hat(c * eta) - m.J(k * js) * hat(eta)
                 - m.alpha1 * hat(eta**2) - m.alpha2 * hat(eta**3))
        return np.linalg.norm(k**2 * js**2 * inner - m.gamma * hat(eta)) / z.size

    amplitudes = [5e-3, 1e-2, 2e-2]
    slope = np.polyfit(np.log(amplitudes), np.log([residual(e) for e in amplitudes]), 1)[0]
    assert slope > 3.9


def test_band_halfwidth_is_where_the_dense_growth_stops():
    m = transpec.make_model("rmkp")
    xi = 0.4
    rc2 = float(ref.band_rho_sq(RMKP, K, xi))
    hw = ref.band_halfwidth(RMKP, K, EPS, xi)
    inside = transpec.max_growth_rate(m, K, EPS, math.sqrt(rc2 + 0.8 * hw), xi, 64)
    outside = transpec.max_growth_rate(m, K, EPS, math.sqrt(rc2 + 1.2 * hw), xi, 64)
    assert inside > 1e-4 and outside < checks.STABLE_GROWTH


# --- every check rejects a perturbed output ------------------------------------------

@pytest.fixture(scope="module")
def centre():
    xi = 0.45
    rho = math.sqrt(float(ref.band_rho_sq(RMKP, K, xi)))
    return rho, xi, transpec.spectrum_at(transpec.make_model("rmkp"), K, EPS, rho, xi, 64)


def test_symmetry_rejects_a_moved_eigenvalue(centre):
    _, xi, res = centre
    ev = res.eigenvalues.copy()
    assert checks.symmetry_problems(ev, xi, "x") == []
    ev[np.argmax(ev.real)] += 1e-3
    assert checks.symmetry_problems(ev, xi, "x")
    ev0 = transpec.spectrum_at(transpec.make_model("rmkp"), 0.8, EPS, 0.005, 0.0, 32).eigenvalues
    assert checks.symmetry_problems(ev0, 0.0, "x") == []
    assert checks.symmetry_problems(ev0 + 1e-3j, 0.0, "x")


def test_truncation_rejects_a_moved_eigenvalue(centre):
    rho, xi, res = centre
    fine = transpec.spectrum_at(transpec.make_model("rmkp"), K, EPS, rho, xi, 96).eigenvalues
    assert checks.truncation_problems(res.eigenvalues, fine, "x") == []
    moved = res.eigenvalues.copy()
    moved[np.argmin(np.abs(moved))] += 1e-6
    assert checks.truncation_problems(moved, fine, "x")


def test_growth_rejects_wrong_centre_and_unstable_outside(centre):
    rho, xi, res = centre
    ev = res.eigenvalues
    assert checks.growth_problems(ev, RMKP, K, EPS, rho, xi, "x") == []
    scaled = ev.copy()
    top = np.argmax(scaled.real)
    scaled[top] = 1.2 * scaled[top].real + 1j * scaled[top].imag
    assert checks.growth_problems(scaled, RMKP, K, EPS, rho, xi, "x")
    far = math.sqrt(rho**2 + workloads.OFF_BAND)
    off = transpec.spectrum_at(transpec.make_model("rmkp"), K, EPS, far, xi, 64).eigenvalues
    assert checks.growth_problems(off, RMKP, K, EPS, far, xi, "x") == []
    assert checks.growth_problems(off + 1e-6, RMKP, K, EPS, far, xi, "x")


def test_long_wavelength_rejects_a_two_percent_error():
    rho = 0.005
    g = transpec.max_growth_rate(transpec.make_model("rmkp"), 0.8, EPS, rho, 0.0, 64)
    assert checks.lw_growth_problems(g, RMKP, 0.8, EPS, rho, "x") == []
    assert checks.lw_growth_problems(1.02 * g, RMKP, 0.8, EPS, rho, "x")


def test_pair_and_subset_reject_perturbed_eigenvalues():
    freq = workloads.BUBBLE_FREQUENCY
    xi = ref.xi_at_frequency(RMKP, K, freq)
    g = ref.band_growth(RMKP, K, EPS, xi)
    ev = np.array([g + 1j * freq, -g + 1j * freq, 28.8j, -32.6j])
    assert checks.pair_problems(ev, g, freq, "x") == []
    assert checks.pair_problems(ev * np.array([1.02, 1.02, 1, 1]), g, freq, "x")
    assert checks.pair_problems(ev + np.array([0.01j, 0.01j, 0, 0]), g, freq, "x")
    assert checks.pair_problems(ev + np.array([1e-6, 0, 0, 0]), g, freq, "x")
    assert checks.pair_problems(ev[1:], g, freq, "x")
    assert checks.subset_problems(ev[:2], ev, "x") == []
    assert checks.subset_problems(ev[:2] + 1e-6, ev, "x")


def test_verdict_atlas_and_node_checks_reject_changed_answers():
    m = ref.Model("rmkp")
    v = transpec.classify(transpec.make_model("rmkp"), 2.3)
    assert workloads._verdict_problems(m, 2.3, v, "x") == []
    assert workloads._verdict_problems(m, 2.3, SimpleNamespace(outcome="stable", thresholds=v.thresholds), "x")
    shifted = dict(v.thresholds, k_t1b=v.thresholds["k_t1b"] + 1e-5)
    assert workloads._verdict_problems(m, 2.3, SimpleNamespace(outcome=v.outcome, thresholds=shifted), "x")

    table = transpec.atlas()
    assert workloads._atlas_problems(table) == []
    cell = table["rmbo-kp"]["fsw_periodic"]
    table["rmbo-kp"]["fsw_periodic"] = transpec.Verdict("unstable", cell.theorem)
    assert workloads._atlas_problems(table)

    model = transpec.make_model("rmkp")
    recs = {(t, p): transpec.enumerate_potentially_unstable(model, t, p)
            for t in range(1, 5) for p in ("periodic", "nonperiodic")}
    recs = {key: [r.as_dict() for r in rs] for key, rs in recs.items()}
    assert workloads._node_problems(m, recs, "x") == []
    dropped = dict(recs)
    dropped[(3, "periodic")] = recs[(3, "periodic")][1:]
    assert workloads._node_problems(m, dropped, "x")
    moved = dict(recs)
    moved[(1, "nonperiodic")] = [dict(r, rho_c=r["rho_c"] + 0.1) for r in recs[(1, "nonperiodic")]]
    assert workloads._node_problems(m, moved, "x")


def test_cli_checks_reject_corrupted_files():
    w = workloads.cli(7, in_process=True)
    done = run.run_rounds(w, 0.0, rounds=1)
    assert done.failed == 0
    assert run.problems_of(w, [done]) == []
    outputs = {op.label: (op, out) for op, out, _ in done.outputs}
    d = workloads.OUT / "cli" / "round0"
    corruptions = {
        "cli wave": lambda: (d / "wave.csv").write_text((d / "wave.csv").read_text().replace("0.0", "0.1", 1)),
        "cli spectrum": lambda: (d / "spectrum.csv").write_text((d / "spectrum.csv").read_text()[:-40]),
        "cli sweep": lambda: (d / "sweep" / "manifest.json").write_text("{"),
        "cli atlas": lambda: (d / "atlas.json").write_text(
            (d / "atlas.json").read_text().replace('"unstable"', '"stable"', 1)),
    }
    for label, corrupt in corruptions.items():
        corrupt()
        op, out = outputs[label]
        assert op.check(out), label
    op, (stdout, dd) = outputs["cli classify"]
    assert op.check((stdout.replace('"unstable"', '"stable"'), dd))
    op, (stdout, dd) = outputs["cli collide"]
    assert op.check((stdout.replace("{-1,0}", "none"), dd))
    op, (stdout, dd) = outputs["cli records"]
    assert op.check(("\n".join(stdout.splitlines()[1:]), dd))


# --- smoke rounds ----------------------------------------------------------------------

SMOKE_OPS = {
    "verdicts": lambda ops: [ops[0], ops[-1]],
    "dense_sweep": lambda ops: [ops[-1]],
    "shift_invert": lambda ops: [ops[0]],
}


@pytest.mark.parametrize("name", sorted(SMOKE_OPS))
def test_smoke_round(name):
    w = workloads.BY_NAME[name](3)
    w.ops = SMOKE_OPS[name](w.ops)
    done = run.run_rounds(w, 0.0, rounds=1)
    assert done.failed == 0, done.errors
    assert run.problems_of(w, [done]) == []


def test_traced_round_counts_every_layer():
    import tracing
    w = workloads.verdicts(3)
    w.ops = [w.ops[0], w.ops[-1]]
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        done = run.run_rounds(w, 0.0, rounds=1)
    finally:
        restore()
    metrics = tracer.metrics(done.rounds)
    assert metrics["symbols.j_eff.calls"] > 1000
    assert metrics["reduced.golden_max.calls"] > 0
    assert metrics["collisions.enumerate_potentially_unstable.self_s"] > 0
    assert transpec.classify.__name__ == "classify" and not hasattr(transpec.classify, "__wrapped__")


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "verdicts",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout or "x")
