import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import transpec

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, csv, header", [
    ("bubble_hunt.py", ["--N", "24"], "spectrum.csv", "re,im"),
    ("band_profile.py", ["--N", "16", "--points", "5"], "band.csv", "rho_sq,max_growth"),
    ("bubble_hunt.py", ["--N", "24", "--model", "rm-fkdv-kp", "--alpha", "1.5"],
     "spectrum.csv", "re,im"),
    ("band_profile.py", ["--N", "16", "--points", "5", "--model", "rm-fkdv-kp", "--alpha", "1.5"],
     "band.csv", "rho_sq,max_growth"),
])
def test_script_runs_and_writes_its_csv(script, args, csv, header, tmp_path):
    # a fresh interpreter, as the scripts are run from the command line
    env = dict(os.environ, PYTHONPATH=str(Path(transpec.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args,
                           "--out-dir", str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / csv).read_text().splitlines()
    assert lines[0] == header
    assert len(lines) > 1


@pytest.mark.parametrize("script, args", [
    ("band_profile.py", ["--xi", "nan"]),
    ("band_profile.py", ["--xi", "0.7"]),
    ("bubble_hunt.py", ["--k", "-2"]),
    ("bubble_hunt.py", ["--N", "2"]),
    # no xi in [0.40, 0.49999] has this collision frequency
    ("bubble_hunt.py", ["--target", "100"]),
])
def test_script_rejects_bad_input_with_exit_2(script, args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(transpec.__file__).parents[1]))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args, "--out-dir", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_bubble_hunt_solves_for_the_default_bubble():
    spec = importlib.util.spec_from_file_location("bubble_hunt", SCRIPTS / "bubble_hunt.py")
    hunt = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hunt)
    model = transpec.make_model("rmkp")
    xi = hunt.solve_xi(model, 2.0, 0.37916)
    assert abs(xi - 0.4789021651932456) <= 1e-10
    assert abs(hunt.collision_frequency(model, 2.0, xi)) == pytest.approx(0.37916, rel=1e-12)
