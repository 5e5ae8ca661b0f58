"""Set-up probe: one fresh process that builds what a workload needs first.

    python3 -I benchmarks/probe.py WORKLOAD SPAWN_STAMP

SPAWN_STAMP is the parent's `time.monotonic()` taken just before it started
this process (the clock is system-wide).  The probe imports stripwave from
the checkout's `src/`, builds every wave profile and initial perturbation of
the workload by the public calls the CLI makes, and stamps the clock.  It
then compares each profile with the reference arrays in
`expected/waves.npz` and prints one JSON object: the set-up time, the wave
diagnostics and the numerical environment.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def build(cfg: dict) -> list:
    """(eps, lambda, profile, perturbation) for each run of the experiment,
    in the order the CLI builds them."""
    from stripwave.grid import make_grid
    from stripwave.transforms import make_initial_perturbation
    from stripwave.waves import WaveParams, explicit_wave_eps0, solve_wave_kpp

    from pinned import floats

    g, w, i = cfg["grid"], cfg["wave"], cfg["init"]
    built = []
    for eps in floats(w["eps"]):
        for lam in floats(g["lambda"]):
            params = WaveParams(eps=eps, n_minus=float(w["n_minus"]),
                                c_plus=float(w["c_plus"]), N0=float(w["N0"]))
            grid = make_grid(float(g["L_z"]), int(g["n_z"]), lam, int(g["n_y"]),
                             params.s)
            profile = (explicit_wave_eps0(params, grid) if eps == 0.0
                       else solve_wave_kpp(params, grid, tol=float(w["tol"])))
            pert = make_initial_perturbation(
                grid, float(i["amplitude"]), int(i["seed"]),
                mean_zero_y=i["mean_zero_y"] == "true", eps=eps)
            built.append((eps, lam, profile, pert))
    return built


def reference_key(eps: float, name: str) -> str:
    return f"eps{eps:g}_{name}"


def environment() -> dict:
    """Versions of the numerical stack, for the run's environment record."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("openblas configuration") or blas.get("name")}


def main(workload: str, stamp: float) -> dict:
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import stripwave

    if not Path(stripwave.__file__).resolve().is_relative_to(SRC_DIR):
        raise SystemExit(f"stripwave imported from {stripwave.__file__}, not {SRC_DIR}")
    import_s = time.monotonic() - stamp

    import pinned

    built = build(pinned.load(workload))
    setup_s = time.monotonic() - stamp

    import numpy as np

    ref = np.load(BENCH_DIR / "expected" / "waves.npz")
    profiles = []
    for eps, lam, profile, _ in built:
        diag = profile.diagnostics
        row = {"eps": eps, "lambda": lam,
               "ode_residual_max": diag.get("ode_residual_max", 0.0)}
        for name in ("N", "C", "P_z"):
            want = ref[reference_key(eps, name)]
            got = getattr(profile, name)
            row[f"{name}_rel_diff"] = float(np.max(np.abs(got - want))
                                            / np.max(np.abs(want)))
        if "fitted_right_rate" in diag:
            s, mu = profile.params.s, profile.left_rate
            row["right_rate_rel_err"] = abs(diag["fitted_right_rate"] + s) / s
            row["left_rate_rel_err"] = abs(diag["fitted_left_rate"] - mu) / mu
        profiles.append(row)
    return {"setup_s": setup_s, "import_s": import_s, "profiles": profiles,
            "env": environment()}


if __name__ == "__main__":
    import json

    print(json.dumps(main(sys.argv[1], float(sys.argv[2]))))
