#!/usr/bin/env python3
"""Machine record and reference figures for README.md.

    python3 benchmarks/figures.py

Prints Markdown: the machine (cores, BLAS threads of each bundled OpenBLAS,
Python, numpy and scipy versions), per-solve timings at the default BLAS
threading and with OPENBLAS_NUM_THREADS=1, and the dense_sweep and
shift_invert workloads run both ways.  Thread settings must be fixed before
numpy loads, so every measurement runs in a child interpreter.  It takes
about four minutes.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SEED = 1
SECONDS = 25


def blas_record() -> dict:
    """OpenBLAS threads and build of the libraries bundled with numpy and scipy."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)
    record = {}
    for mod, suffix in ((numpy, "64_"), (scipy, "")):
        base = Path(mod.__file__).resolve().parent.parent
        for lib in glob.glob(str(base / f"{mod.__name__}.libs" / "*openblas*")):
            handle = ctypes.CDLL(lib)
            threads = getattr(handle, f"scipy_openblas_get_num_threads{suffix}")
            threads.argtypes, threads.restype = [], ctypes.c_int
            config = getattr(handle, f"scipy_openblas_get_config{suffix}")
            config.argtypes, config.restype = [], ctypes.c_char_p
            record[mod.__name__] = {"threads": threads(), "build": config().decode()}
    return record


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def solver_figures() -> dict:
    """Per-solve medians in this interpreter (seconds)."""
    import numpy as np
    import scipy.linalg
    import transpec
    import reference as ref
    import workloads

    m, model = ref.Model("rmkp"), transpec.make_model("rmkp")
    k, eps = workloads.BAND_K, workloads.EPS
    wave = transpec.build_wave(model, k, eps, check=False)
    out = {"blas": blas_record()}
    xi = 0.45
    rho = math.sqrt(float(ref.band_rho_sq(m, k, xi)))
    for N, reps in ((64, 21), (256, 5)):
        op = transpec.assemble_operator(model, wave, rho, xi, N)
        out[f"eig_dense_N{N}"] = _median_time(lambda: transpec.eig_dense(op), reps)
        out[f"eigvals_N{N}"] = _median_time(lambda: scipy.linalg.eigvals(op.matrix), reps)
    xis = [0.3 + (j + 0.5) * 0.2 / 6 for j in range(6)]
    rhos = [math.sqrt(float(ref.band_rho_sq(m, k, x))) for x in xis] + [1.1, 1.6]
    points = len(xis) * len(rhos)
    out["sweep_point_N64"] = _median_time(
        lambda: transpec.sweep(model, k, eps, rhos, xis, 64), 3) / points
    xs = ref.xi_at_frequency(m, k, workloads.BUBBLE_FREQUENCY)
    rs = math.sqrt(float(ref.band_rho_sq(m, k, xs)))
    out["bubble_dense_N64"] = _median_time(
        lambda: transpec.eig_dense(transpec.assemble_operator(model, wave, rs, -xs, 64)), 21)
    out["bubble_shift_invert_N64"] = _median_time(
        lambda: transpec.shift_invert_eigs(model, wave, rs, -xs, 64,
                                           shift=workloads.BUBBLE_FREQUENCY * 1j, count=4), 3)
    si = transpec.shift_invert_eigs(model, wave, rs, -xs, 64,
                                    shift=workloads.BUBBLE_FREQUENCY * 1j, count=4)
    dense = transpec.eig_dense(transpec.assemble_operator(model, wave, rs, -xs, 64))
    gap = np.abs(dense.eigenvalues[None, :] - si.eigenvalues[:, None]).min(axis=1)
    out["bubble_max_gap"] = float(gap.max())
    return out


def _env(one_thread: bool) -> dict:
    env = dict(os.environ)
    env.pop("TRANSPEC_THREADS", None)
    if one_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
    else:
        env.pop("OPENBLAS_NUM_THREADS", None)
    return env


def _child(one_thread: bool) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child"],
                          cwd=ROOT, env=_env(one_thread), capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _workload(name: str, one_thread: bool) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=ROOT, env=_env(one_thread), capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    if "--child" in sys.argv:
        sys.path[:0] = [str(SRC), str(HERE)]
        print(json.dumps(solver_figures()))
        return
    import numpy
    import scipy
    default, single = _child(False), _child(True)
    print("## Machine\n")
    print(f"- cores: {os.cpu_count()}; {platform.machine()}, Linux {platform.release()}")
    print(f"- Python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}")
    for lib, rec in default["blas"].items():
        print(f"- {lib}'s OpenBLAS: {rec['threads']} threads by default "
              f"({single['blas'][lib]['threads']} with OPENBLAS_NUM_THREADS=1); {rec['build']}")
    print("\n## Solves (median, ms)\n")
    print("| what | default BLAS threads | OPENBLAS_NUM_THREADS=1 |")
    print("| --- | ---: | ---: |")
    for key in ("eig_dense_N64", "eigvals_N64", "eig_dense_N256", "eigvals_N256",
                "sweep_point_N64", "bubble_dense_N64", "bubble_shift_invert_N64"):
        print(f"| {key} | {1e3 * default[key]:.1f} | {1e3 * single[key]:.1f} |")
    print(f"\nShift-invert and dense eigenvalues at the N = 64 bubble differ by at most "
          f"{default['bubble_max_gap']:.1e}.")
    print(f"\n## Workloads (seed {SEED}, {SECONDS} s)\n")
    print("| workload | metric | default BLAS threads | OPENBLAS_NUM_THREADS=1 |")
    print("| --- | --- | ---: | ---: |")
    for name in ("dense_sweep", "shift_invert"):
        runs = [_workload(name, flag) for flag in (False, True)]
        for metric in runs[0]["metrics"]:
            a, b = (r["metrics"][metric] for r in runs)
            print(f"| {name} | {metric} ({a['unit']}) | {a['value']:.4g} | {b['value']:.4g} |")
        print(f"| {name} | failed/attempted | {runs[0]['failed']}/{runs[0]['attempted']} "
              f"| {runs[1]['failed']}/{runs[1]['attempted']} |")


if __name__ == "__main__":
    main()
