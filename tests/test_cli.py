import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import transpec

from transpec.cli import dumps, run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_wave_json(capsys):
    code, out, _ = run_cli(capsys, "wave", "--model", "rmkp", "--k", "1",
                           "--gamma", "1", "--beta", "1", "--eps", "0.01")
    assert code == 0
    record = json.loads(out)
    assert record["eta2"] == pytest.approx(-2.0 / 9.0, rel=1e-12)
    assert record["c0"] == 2.0
    assert record["residual"] < 1e-7


def test_wave_csv_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        # the default eps strains the expansion of rmg-kp at k = 0.8
        with pytest.warns(transpec.AmplitudeValidityWarning):
            code, _, _ = run_cli(capsys, "wave", "--model", "rmg-kp", "--k", "0.8",
                                 "--csv", str(p), "--json", str(tmp_path / "w.json"))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    header, first = paths[0].read_text().splitlines()[:2]
    assert header == "z,eta"
    assert len(first.split(",")) == 2


def test_classify_thresholds(capsys):
    code, out, _ = run_cli(capsys, "classify", "--model", "rmkp", "--gamma", "1",
                           "--beta", "1", "--k", "2")
    assert code == 0
    record = json.loads(out)
    assert record["outcome"] == "unstable"
    assert record["thresholds"]["k_lw"] == pytest.approx(0.70711, abs=1e-5)
    assert record["thresholds"]["k_t1b"] == pytest.approx(1.41421, abs=1e-5)


def test_classify_round_trip(tmp_path, capsys):
    out_path = tmp_path / "verdict.json"
    code, _, _ = run_cli(capsys, "classify", "--model", "rmbo-kp", "--k", "1.1",
                         "--json", str(out_path))
    assert code == 0
    record = json.loads(out_path.read_text())
    assert dumps(record) == dumps(json.loads(dumps(record)))


def test_collide_json_lines(capsys):
    code, out, _ = run_cli(capsys, "collide", "--model", "rmkp", "--theta", "3",
                           "--perturbation", "nonperiodic")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [(r["n"], r["m"]) for r in lines] == [(-3, 0), (-2, 1), (-1, 2)]
    assert all(r["opposite_krein"] for r in lines)


def test_collide_table(capsys):
    code, out, _ = run_cli(capsys, "collide", "--model", "rmkp", "--table",
                           "--theta-max", "3")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].split() == ["theta", "periodic", "nonperiodic"]
    assert "{-1,1}" in rows[2]  # theta = 2 periodic
    assert "none" in rows[1]    # theta = 1 periodic


def test_spectrum_outputs(tmp_path, capsys):
    csv = tmp_path / "spec.csv"
    svg = tmp_path / "spec.svg"
    code, out, _ = run_cli(capsys, "spectrum", "--model", "rmkp", "--k", "2",
                           "--eps", "0.01", "--rho", "1.5", "--xi", "0.5",
                           "--N", "32", "--csv", str(csv), "--svg", str(svg))
    assert code == 0
    record = json.loads(out)
    assert set(record) == {"rho", "xi", "eps", "k", "N", "max_real", "error", "eigenvalues"}
    assert record["max_real"] == pytest.approx(0.02, rel=0.2)
    body = csv.read_text().splitlines()
    assert body[0] == "re,im"
    assert len(body) == 1 + len(record["eigenvalues"])
    assert svg.read_text().startswith("<svg")


def test_spectrum_shift_invert(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--model", "rmkp", "--k", "1",
                           "--eps", "0", "--rho", "0.5", "--xi", "0.1",
                           "--N", "12", "--shift", "0.0,0.5", "--count", "2")
    assert code == 0
    record = json.loads(out)
    assert len(record["eigenvalues"]) == 2


def test_sweep_manifest(tmp_path, capsys):
    out_dir = tmp_path / "sweepout"
    svg = tmp_path / "growth.svg"
    code, _, _ = run_cli(capsys, "sweep", "--model", "rmkp", "--k", "2",
                         "--eps", "0.01", "--rho-grid", "1.5",
                         "--xi-grid", "0.45:0.5:3", "--N", "24",
                         "--out-dir", str(out_dir), "--svg", str(svg))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["points"]) == 3
    for pt in manifest["points"]:
        assert (out_dir / pt["file"]).exists()
    assert svg.exists()


def test_atlas_text_and_json(tmp_path, capsys):
    out_json = tmp_path / "atlas.json"
    code, out, _ = run_cli(capsys, "atlas", "--json", str(out_json))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7  # header + six models
    whitham_row = next(l for l in lines if l.startswith("rm-whitham-kp"))
    assert whitham_row.split()[1:] == ["Stable", "Unstable", "Stable", "Stable",
                                       "Stable", "Unstable"]
    record = json.loads(out_json.read_text())
    assert record["rmg-kp"]["lw_periodic_beta_nonpos"]["outcome"] == "unstable"


def test_unknown_model_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "--model", "rm-nope", "--k", "1")
    assert code == 2
    assert "unknown model" in err


def test_invalid_gamma_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "--model", "rmkp", "--gamma", "-1",
                           "--k", "1")
    assert code == 2


def test_resonant_wave_exits_2(capsys):
    code, _, err = run_cli(capsys, "wave", "--model", "rmkp", "--k",
                           str(0.25**0.25))
    assert code == 2
    assert "resonance" in err


def test_bad_subcommand_exits_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_unwritable_path_exits_2(capsys):
    code, _, err = run_cli(capsys, "wave", "--model", "rmkp", "--k", "1",
                           "--csv", "/nonexistent-dir/x.csv",
                           "--json", "/nonexistent-dir/w.json")
    assert code == 2


def test_numerical_failure_exits_1(capsys):
    # at eps = 0 the operator is diagonal; a shift equal to the mode-1
    # diagonal entry makes the sparse LU factorisation exactly singular
    import numpy as np

    from transpec import assemble_operator, build_wave, make_model

    model = make_model("rmkp")
    op = assemble_operator(model, build_wave(model, 1.0, 0.0), 0.5, 0.1, 12)
    i = int(np.flatnonzero(op.modes == 1)[0])
    w1 = op.matrix[i, i].imag
    code, _, err = run_cli(capsys, "spectrum", "--model", "rmkp", "--k", "1",
                           "--eps", "0", "--rho", "0.5", "--xi", "0.1",
                           "--N", "12", "--shift", f"0,{w1}", "--count", "1")
    assert code == 1
    assert "shift" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "rmkp", "gamma": 1.0, "beta": 1.0, "k": 2.0}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "classify")
    assert json.loads(out)["k"] == 2.0
    code, out, _ = run_cli(capsys, "--config", str(cfg), "classify", "--k", "0.46")
    record = json.loads(out)
    assert record["k"] == 0.46
    assert record["outcome"] == "stable"


def test_seventeen_digit_floats():
    text = dumps({"x": 1.0 / 3.0})
    assert "0.33333333333333331" in text
    assert dumps([1.0 / 3.0], compact=True) == "[0.33333333333333331]"


def test_sweep_manifest_order(tmp_path, capsys):
    out_dir = tmp_path / "sw"
    code, _, _ = run_cli(capsys, "sweep", "--model", "rmkp", "--k", "1",
                         "--eps", "0.01", "--rho-grid", "0.2,0.4",
                         "--xi-grid", "0.1,0.3", "--N", "16",
                         "--out-dir", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert [(p["rho"], p["xi"]) for p in manifest["points"]] == [
        (0.2, 0.1), (0.2, 0.3), (0.4, 0.1), (0.4, 0.3)]


_IMPORT_GUARD = """
import contextlib, io, json, sys
import transpec, transpec.cli
from transpec.cli import run

with contextlib.redirect_stdout(io.StringIO()):
    codes = [run(argv.split()) for argv in (
        "classify --model rmkp --k 2", "atlas", "wave --k 1", "collide --table",
        "spectrum --N 64 --k 2 --rho 1.5 --xi 0.5")]
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
shift = "spectrum --model rmkp --k 2 --rho 1.5 --xi 0.5 --shift 0,0.38 --count 4"
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes.append(run(shift.split()))
print(json.dumps({"codes": codes, "scipy": scipy, "shift": json.loads(out.getvalue())}))
"""


def test_analytic_and_dense_paths_do_not_import_scipy():
    # a fresh interpreter, so no other test has imported scipy already
    env = dict(os.environ, PYTHONPATH=str(Path(transpec.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD], env=env,
                          capture_output=True, text=True, check=True)
    record = json.loads(proc.stdout)
    assert record["codes"] == [0] * 6
    assert record["scipy"] == []
    # the shift-invert path imports scipy on demand and still finds the
    # bubble pair: growth alpha1 k^2 eps sqrt(xi (1 - xi)) = 0.02
    growth = sorted(re for re, _ in record["shift"]["eigenvalues"])
    assert growth[0] == pytest.approx(-0.02, rel=1e-5)
    assert growth[-1] == pytest.approx(0.02, rel=1e-5)
