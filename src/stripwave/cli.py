"""Experiment runner: wave construction, stability runs, transverse decay.

Subcommands:

  wave        construct a profile and report its identity residuals
  evolve      nonlinear zero-diffusion stability run to t_end and, in the
              same time loop, on to the doubled horizon 2 t_end
  linear      linearized run with chemical diffusion, mean-zero data,
              doubled the same way
  planarity   transverse-energy decay of the (n, q) system over an
              (eps, lambda) sweep
  convergence grid/time refinement slope table

planarity runs the strips of one eps at once, up to the cores the process
may use: the first in this process, each later one in a child forked after
the wave build.  The strips are read in sweep order and this process writes
every artifact, so the outputs, exit code included, are those of a run in
sequence.

An experiment that finishes prints its title, one [PASS]/[FAIL] line per
acceptance check and its notes, and writes its report to summary.json.
Every run writes a manifest (config echo, version, wall clock, exit code,
the report or the error text it stopped on, under `waves` each wave profile
it built, with the build's seconds and for a KPP orbit the solver's counts,
under `counters` the steps, ledger rows, banded solves and banded solvers
factored of each time loop, for planarity whether it ran in a forked
child, the seconds it spent in tendencies, solves and rows, and its dt
over the transport limit (the CFL margin), and under `environment` the
Python, numpy and scipy versions, the core count and the cores this
process may use, the BLAS thread variables, the scipy subpackages the run
loaded and the file name of the LAPACK extension its time loops loaded)
next to its artifacts.  Exit codes:
0 every check passed, 1 a check failed, 2 usage or configuration error (a
dt above the transport limit and an output directory that cannot be made
included), 3 runtime blowup, one past t_end on
the way to the doubled horizon included (partial artifacts retained), 4 the
KPP wave solve failed, 5 an unexpected internal error (traceback on stderr).

The output directory resolves relative to $STRIPWAVE_OUTPUT_ROOT when set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback
import warnings
from contextlib import closing
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    SECTIONS,
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    serialize_config,
    validate_config,
)
from .energy import EnergyError, fit_exponential_decay
from . import transforms
from .evolve import (IntegratorConfig, RunCounters, _ModeDiffusionSolver, arithmetic,
                     lapack_file, run, scipy_module)
from .grid import ScalarField, field_from_function, field_to_csv, make_grid, write_csv, y_values
from .transforms import (
    cole_hopf_forward,
    cole_hopf_inverse,
    make_initial_perturbation,
)
from .waves import (
    WaveParams,
    WaveSolveError,
    check_wave_identities,
    explicit_wave_eps0,
    solve_wave_kpp,
)

EXIT_PASS = 0
EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_SOLVER = 4
EXIT_INTERNAL = 5

def _json_dump(obj, path: Path) -> None:
    def coerce(o):
        if isinstance(o, np.generic):
            return o.item()
        raise TypeError(f"not JSON serializable: {type(o)}")

    path.write_text(json.dumps(obj, indent=2, sort_keys=True, default=coerce))


def _out_dir(cfg: ExperimentConfig) -> Path:
    root = os.environ.get("STRIPWAVE_OUTPUT_ROOT", "")
    path = Path(root) / cfg.output["directory"] if root else Path(cfg.output["directory"])
    path.mkdir(parents=True, exist_ok=True)
    return path


_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask, where the
    platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _environment() -> dict:
    """Versions, cores (all, and those this process may use) and BLAS thread
    settings of this process, the scipy subpackages imported so far (a run
    imports none) and the file name of the LAPACK extension its time loops
    loaded (None before the first).  scipy's version is read from its
    version file, so the manifest loads no scipy either."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_module("version").version,
        "cpu_count": os.cpu_count(),
        "usable_cores": _usable_cores(),
        "threads": {name: os.environ.get(name) for name in _THREAD_VARIABLES},
        "scipy_loaded": sorted(
            name for name, module in list(sys.modules.items())
            if name.startswith("scipy.") and name.count(".") == 1
            and not name.startswith("scipy._") and hasattr(module, "__path__")),
        "lapack": lapack_file(),
        "arithmetic": arithmetic(),
    }


def _write_manifest(outdir: Path, cfg: ExperimentConfig, wall: float,
                    exit_code: int, waves: list, counters: list, extra: dict) -> None:
    manifest = {
        "experiment": cfg.experiment,
        "version": __version__,
        "wall_clock_s": wall,
        "exit_code": exit_code,
        "config": serialize_config(cfg),
        "waves": waves,
        "counters": counters,
        "environment": _environment(),
        **extra,
    }
    _json_dump(manifest, outdir / "manifest.json")


_KPP_COUNTS = ("nsteps", "nfev", "njev", "ode_residual_max")


def _built(waves: list, build, *args, **kwargs):
    """The wave profile build(*args, **kwargs); notes its eps, build seconds,
    construction and, for a KPP orbit, the solver's counts for the manifest."""
    start = time.perf_counter()
    profile = build(*args, **kwargs)
    d = profile.diagnostics
    waves.append({"eps": profile.params.eps, "build_s": time.perf_counter() - start,
                  "construction": d["construction"],
                  **{key: d[key] for key in _KPP_COUNTS if key in d}})
    return profile


def _build_profile(cfg: ExperimentConfig, eps: float, lam: float, waves: list):
    params = WaveParams(eps=eps, n_minus=cfg.wave["n_minus"],
                        c_plus=cfg.wave["c_plus"], N0=cfg.wave["N0"])
    L_z = cfg.grid["L_z"]
    if L_z is None:
        L_z = 25.0 / params.s  # wave tails below 1e-10 of the far field
    grid = make_grid(L_z, cfg.grid["n_z"], lam, cfg.grid["n_y"], params.s)
    if eps == 0.0:
        return _built(waves, explicit_wave_eps0, params, grid)
    return _built(waves, solve_wave_kpp, params, grid, tol=cfg.wave["tol"])


def _perturbation(cfg: ExperimentConfig, profile):
    """The configured initial perturbation on the grid of `profile`."""
    init = cfg.init
    return make_initial_perturbation(profile.grid, init["amplitude"], init["seed"],
                                     init["mean_zero_y"])


def _integrator(cfg: ExperimentConfig, **changes) -> IntegratorConfig:
    """The IntegratorConfig of the [integrator] keys that name one of its
    fields and of output.snapshot_every, with `changes` on top."""
    names = {f.name for f in fields(IntegratorConfig)}
    return IntegratorConfig(**{**{k: v for k, v in cfg.integrator.items() if k in names},
                               "snapshot_every": cfg.output["snapshot_every"], **changes})


# ---------------------------------------------------------------------------
# Experiments: each returns (title, checks, report, notes) to run_experiment
# ---------------------------------------------------------------------------

def _experiment_wave(cfg: ExperimentConfig, outdir: Path, waves: list, counters: list):
    eps = cfg.eps_values[0]
    profile = _build_profile(cfg, eps, cfg.lambda_values[0], waves)
    g = profile.grid
    write_csv(outdir / "wave_profile.csv", ("z", "N", "C", "P"),
              zip(g.z, profile.N, profile.C, profile.P_z))

    residuals = check_wave_identities(profile)
    meta = {
        "s": profile.params.s,
        "eps": eps,
        "N0": profile.params.N0,
        "n_minus": profile.params.n_minus,
        "c_plus": profile.params.c_plus,
        "left_rate": profile.left_rate,
        "right_rate": profile.right_rate,
        "identity_residuals": residuals,
        **{k: v for k, v in profile.diagnostics.items() if isinstance(v, (int, float, str))},
    }
    _json_dump(meta, outdir / "wave_metadata.json")

    if eps == 0.0:
        checks = {
            "ratio relation P/N = -1/s within 1e-12":
                residuals["ratio_relation"] < 1e-12,
            "inverse-density relation within 10 dz^2":
                residuals["inverse_relation_w"] < 10 * g.dz**2,
        }
    else:
        d = profile.diagnostics
        mu = profile.left_rate
        checks = {
            "ODE residual below 1e-4": d["ode_residual_max"] < 1e-4,
            "right tail rate within 2% of -s":
                abs(d["fitted_right_rate"] + profile.params.s) / profile.params.s < 0.02,
            "left tail rate within 2% of the manifold exponent":
                abs(d["fitted_left_rate"] - mu) / mu < 0.02,
        }
    return f"wave experiment (eps = {eps})", checks, {"checks": checks}, []


class _Blowup(Exception):
    """A run blew up; args[0] is the experiment's report (exit 3)."""


def _blowup(rec, where: str = "", **report) -> None:
    """Print the blowup of `rec` and end the experiment on it."""
    print(f"blowup at t = {rec.blowup_time}{where}: {rec.blowup_reason}")
    raise _Blowup({"blowup_time": rec.blowup_time,
                   "blowup_reason": rec.blowup_reason, **report})


def _counted(counters: list, rec, **labels):
    """Note the counters (evolve.RunCounters) of one `run` call for the
    manifest, with its labels."""
    counters.append({"system": rec.system, "dt": rec.config.dt, "t_end": rec.config.t_end,
                     **asdict(rec.counters), **labels})
    return rec


def _run_doubled(cfg: ExperimentConfig, system: str, profile, outdir: Path,
                 counters: list):
    """One time loop to 2 t_end from the configured perturbation, whose
    head record stops at t_end; writes ledger.csv and the snapshots from the
    head, then ledger_double.csv, and ends the experiment on the first
    blowup, the head's before the rest."""
    t_end = cfg.integrator["t_end"]
    rec2 = _counted(counters, run(system, _perturbation(cfg, profile), profile,
                                  _integrator(cfg, t_end=2 * t_end), head=t_end))
    rec = rec2.head
    rec.ledger.to_csv(outdir / "ledger.csv")
    _write_snapshots(rec, profile.grid, outdir)
    if rec.blowup:
        _blowup(rec)
    rec2.ledger.to_csv(outdir / "ledger_double.csv")
    if rec2.blowup:
        _blowup(rec2, " in the doubled-horizon run")
    return rec, rec2


def _experiment_stability0(cfg: ExperimentConfig, outdir: Path, waves: list,
                           counters: list):
    profile = _build_profile(cfg, 0.0, cfg.lambda_values[0], waves)
    t_end = cfg.integrator["t_end"]
    rec, rec2 = _run_doubled(cfg, "nonlinear0", profile, outdir, counters)

    led, led2 = rec.ledger, rec2.ledger
    m0 = led.M0
    checks = {}
    if t_end > 0:  # the decay verdicts need dynamics to judge
        d_total = led.last()["D_phi"] + led.last()["D_psi"]
        d_total2 = led2.last()["D_phi"] + led2.last()["D_psi"]
        gp = led.column("grad_phi_H3w")
        checks.update({
            "M_sup(t_end) <= 10 M0": led.last()["M_sup"] <= 10 * m0,
            "dissipation saturates under t_end doubling (< 5%)":
                abs(d_total2 - d_total) <= 0.05 * max(d_total, 1e-300),
            "weighted gradient of phi decays below 1e-2 of initial":
                gp[-1] < 1e-2 * gp[0],
            "mass drift below 1e-8":
                float(np.max(np.abs(led.column("mass")))) < 1e-8,
        })
    summary = {
        "M0": m0,
        "M_sup": led.last()["M_sup"],
        "empirical_C0": led.last()["C0_running"],
        "empirical_C0_doubled": led2.last()["C0_running"],
        "D_phi": led.last()["D_phi"],
        "D_psi": led.last()["D_psi"],
        "checks": checks,
    }
    return ("stability0 experiment", checks, summary,
            [f"empirical C0 = {led.last()['C0_running']:.6g}"])


def _experiment_linear_eps(cfg: ExperimentConfig, outdir: Path, waves: list,
                           counters: list):
    profile = _build_profile(cfg, cfg.eps_values[0], cfg.lambda_values[0], waves)
    rec, rec2 = _run_doubled(cfg, "linear_eps", profile, outdir, counters)
    c0 = rec.ledger.last()["C0_running"]
    c0d = rec2.ledger.last()["C0_running"]
    drift = transforms.perturbation_y_means(rec.final_modes)
    checks = {
        "bounded constant: C0 stable under t_end doubling (< 5%)":
            abs(c0d - c0) <= 0.05 * c0,
        "y-mean drift below 1e-12": drift < 1e-12,
    }
    summary = {"M0": rec.ledger.M0, "empirical_C0": c0, "empirical_C0_doubled": c0d,
               "D_psi4": rec.ledger.last()["D_psi4"], "y_mean_drift": drift,
               "checks": checks}
    return "linear_eps experiment", checks, summary, [f"empirical C0 = {c0:.6g}"]


def _positive_window(times, values, lo, hi):
    """Clip the requested fit window to samples above 1e-290.

    The decay spans hundreds of e-foldings, and the time loop flushes
    subnormal values to zero (evolve._subnormals_flushed).  Q is a sum of
    squares of the (n, q) fluctuation, and below about 1e-290 those
    squares' z-tails have been flushed: on the lambda = 0.25 planarity
    strip Q reads 1.0805e-302 at t = 6.65, 2% below the 1.1021e-302 of
    IEEE arithmetic, and 0 from t = 6.7, while the window's last sample
    above the clip, t = 6.35, is exact to 1 ulp.  So the clip is what keeps
    the fit exact."""
    times = np.asarray(times)
    values = np.asarray(values)
    ok = values > 1e-290
    if not np.any(ok):
        return lo, lo
    return lo, float(min(hi, times[ok][-1]))


def _strip(cfg: ExperimentConfig, wave, lam: float):
    """The nq record on the strip of width `lam` over the z-only `wave`,
    without the final modes, which planarity never reads: a forked child
    sends back only the ledger, counters and blowup."""
    g = wave.grid
    profile = replace(wave, grid=make_grid(g.L_z, g.n_z, lam, g.n_y, g.s))
    rec = run("nq", _perturbation(cfg, profile), profile, _integrator(cfg))
    return replace(rec, final_modes=None)


def _experiment_planarity(cfg: ExperimentConfig, outdir: Path, waves: list,
                          counters: list):
    from .forked import at_once  # planarity alone runs jobs at once

    results = []
    iv = cfg.integrator
    for eps in cfg.eps_values:
        # the wave is z-only: one build per eps serves every strip width,
        # and the strips run at once but are read in sweep order
        wave = _build_profile(cfg, eps, cfg.lambda_values[0], waves)
        strips = {f"eps{eps:g}_lam{lam:g}": lam for lam in cfg.lambda_values}
        with closing(at_once(partial(_strip, cfg, wave), strips, _usable_cores())) as done:
            for (tag, lam), (rec, forked) in zip(strips.items(), done):
                _counted(counters, rec, pair=tag, forked=forked, curl_max=rec.curl_max)
                t = np.asarray(rec.times)
                q = rec.ledger.column("Q")
                write_csv(outdir / f"q_decay_{tag}.csv", ("t", "Q"), zip(t, q))
                if rec.blowup:
                    _blowup(rec, f" for {tag}", pair=tag)
                window = _positive_window(t, q, iv["fit_t_min"], iv["fit_t_max"])
                try:
                    c, r2 = fit_exponential_decay(t, q, window)
                except EnergyError as exc:
                    results.append({"eps": eps, "lambda": lam, "error": str(exc)})
                    continue
                results.append({"eps": eps, "lambda": lam, "rate": c, "r_squared": r2,
                                "window": list(window), "Q0": float(q[0]),
                                "curl_max": rec.curl_max})

    checks = {}
    for r in results:
        tag = f"eps={r['eps']:g}, lambda={r['lambda']:g}"
        if "error" in r:
            checks[f"{tag}: fit available"] = False
            continue
        checks[f"{tag}: log-linear fit r^2 > 0.99"] = r["r_squared"] > 0.99
        checks[f"{tag}: decay rate positive"] = r["rate"] > 0
    for eps in cfg.eps_values:
        rows = sorted((r for r in results if r["eps"] == eps and "rate" in r),
                      key=lambda r: r["lambda"])
        for thin, wide in zip(rows[:-1], rows[1:]):
            checks[f"eps={eps:g}: rate(lambda={thin['lambda']:g}) > "
                   f"rate(lambda={wide['lambda']:g})"] = thin["rate"] > wide["rate"]

    notes = [f"eps={r['eps']:g} lambda={r['lambda']:g}: c = {r['rate']:.4g}, "
             f"r^2 = {r['r_squared']:.6f}, window = [{r['window'][0]:g}, {r['window'][1]:g}]"
             for r in results if "rate" in r]
    return "planarity experiment", checks, {"results": results, "checks": checks}, notes


def _experiment_convergence(cfg: ExperimentConfig, outdir: Path, waves: list,
                            counters: list):
    rows = []

    def slope_of(sizes, errors):
        return float(np.polyfit(np.log([1.0 / (n - 1) for n in sizes]),
                                np.log(errors), 1)[0])

    # the time loops' implicit diffusion solve, x - 0.1 (x'' - k^2 x) = b,
    # on x = e^{-z^2} in y-mode 1, refined
    sizes = (129, 257, 513)
    errs = []
    for n_z in sizes:
        g = make_grid(8.0, n_z, 0.5, 16, 1.0)
        x, k = np.exp(-g.z**2), g.wavenumbers_y[1]
        rhs = np.zeros((n_z, g.n_y // 2 + 1), dtype=complex)
        rhs[:, 1] = x - 0.1 * ((4 * g.z**2 - 2) * x - k**2 * x)
        solve = _ModeDiffusionSolver(g, RunCounters(), 0.1, 1.0)
        errs.append(float(np.max(np.abs(solve(rhs)[:, 1] - x))))
    rows.append(("diffusion_solve_slope", slope_of(sizes, errs), 1.8, 2.2))

    # forward/inverse log-gradient round trip
    errs = []
    for n_z in sizes:
        g = make_grid(10.0, n_z, 0.5, 16, 1.0)
        c = field_from_function(
            g, lambda z, y: 1.5 * np.exp(0.2 * np.cos(np.pi * z / g.L_z)
                                         + 0.1 * np.sin(2 * np.pi * y / g.lam)))
        q = cole_hopf_forward(c)
        ia = g.n_z // 2
        back = cole_hopf_inverse(q, float(c.values[ia, 0]), float(g.z[ia]))
        errs.append(float(np.max(np.abs(back.values - c.values) / c.values)))
    rows.append(("cole_hopf_roundtrip_slope", slope_of(sizes, errs), 1.7, 2.3))

    # time-stepping self-convergence
    p = WaveParams(eps=0.0, n_minus=cfg.wave["n_minus"], c_plus=cfg.wave["c_plus"],
                   N0=cfg.wave["N0"])
    g = make_grid(50.0, 256, 2.0, 8, p.s)
    prof = _built(waves, explicit_wave_eps0, p, g)
    pert = _perturbation(cfg, prof)

    def final(dt, scheme, transport):
        c = IntegratorConfig(dt=dt, t_end=0.4, scheme=scheme,
                             record_every=10**9, transport=transport)
        modes = _counted(counters, run("nonlinear0", pert, prof, c)).final_modes
        return np.concatenate([y_values(x, prof.grid).ravel() for x in modes])

    for scheme, transport, lo, hi in (("imex1", "upwind", 1.6, 2.5),
                                      ("sbdf2", "central", 3.0, 5.0)):
        s1 = final(0.02, scheme, transport)
        s2 = final(0.01, scheme, transport)
        s3 = final(0.005, scheme, transport)
        ratio = float(np.linalg.norm(s1 - s2) / np.linalg.norm(s2 - s3))
        rows.append((f"dt_refinement_ratio_{scheme}", ratio, lo, hi))

    with open(outdir / "convergence.csv", "w", encoding="utf-8") as fh:
        fh.write("check,value,target_lo,target_hi,pass\n")
        for name, value, lo, hi in rows:
            fh.write(f"{name},{value:.17g},{lo},{hi},{lo <= value <= hi}\n")
    checks = {f"{name} = {value:.3f} in [{lo}, {hi}]": lo <= value <= hi
              for name, value, lo, hi in rows}
    return "convergence experiment", checks, {"rows": rows, "checks": checks}, []


def _write_snapshots(rec, grid, outdir: Path) -> None:
    """The y-node values of each snapshot's (phi_z, phi_y, psi) modes, one
    CSV per field and time."""
    for t, modes in rec.snapshots:
        tag = f"{t:.6g}".replace(".", "p").replace("-", "m")
        for name, x in zip(("phi1", "phi2", "psi"), modes):
            field_to_csv(ScalarField(grid, y_values(x, grid)),
                         outdir / f"snapshot_{name}_t{tag}.csv")


# experiment -> (subcommand, runner)
_EXPERIMENTS = {
    "wave": ("wave", _experiment_wave),
    "stability0": ("evolve", _experiment_stability0),
    "linear_eps": ("linear", _experiment_linear_eps),
    "planarity": ("planarity", _experiment_planarity),
    "convergence": ("convergence", _experiment_convergence),
}


def _print_config_errors(problems) -> None:
    print("config errors:", file=sys.stderr)
    for p in problems:
        print(f"  {p}", file=sys.stderr)


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute a validated configuration; returns the process exit code.

    The one place where a run's result becomes artifacts: the runner's
    title, checks and notes are printed, its report is written to
    summary.json, and its checks map to exit 0 (all pass) or 1.  The
    manifest is written on every path: with the experiment's report, a
    blowup's included (exit 3), or with the error of a dt above the
    transport limit (exit 2), of a failed wave solve (exit 4) or of any
    other exception, a crash (exit 5).  An output directory that cannot be
    made is a configuration error (exit 2) that leaves no manifest.
    """
    try:
        outdir = _out_dir(cfg)
    except OSError as exc:
        print(f"output directory error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for w in cfg.warnings:
        print(f"warning: {w}")
    start = time.time()
    waves = []  # each wave build
    counters = []  # steps, rows, solves and timings of each `run` call
    try:
        title, checks, report, notes = _EXPERIMENTS[cfg.experiment][1](cfg, outdir, waves,
                                                                       counters)
        print(title)
        for name, ok in checks.items():
            print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        for line in notes:
            print(f"  {line}")
        _json_dump(report, outdir / "summary.json")
        code = EXIT_PASS if all(checks.values()) else EXIT_THRESHOLD
        extra = {"report": report}
    except _Blowup as exc:
        code, extra = EXIT_BLOWUP, {"report": exc.args[0]}
    except ConfigError as exc:
        _print_config_errors(exc.problems)
        code, extra = EXIT_CONFIG, {"error": str(exc)}
    except WaveSolveError as exc:
        msg, *context = exc.args
        print(f"wave solve failed: {msg}", file=sys.stderr)
        code, extra = EXIT_SOLVER, {"error": msg, "error_context": context}
    except Exception as exc:  # a crash, kept apart from a threshold verdict
        traceback.print_exc()
        code, extra = EXIT_INTERNAL, {"error": f"{type(exc).__name__}: {exc}"}
    _write_manifest(outdir, cfg, time.time() - start, code, waves, counters, extra)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stripwave",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for experiment, (name, _) in _EXPERIMENTS.items():
        p = sub.add_parser(name, help=f"run the {experiment} experiment")
        p.set_defaults(experiment=experiment)
        p.add_argument("--config", type=str, default=None,
                       help="INI config path (defaults apply when omitted)")
        p.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                       help="override a config value (repeatable)")

    args = parser.parse_args(argv)
    try:
        text = (Path(args.config).read_text(encoding="utf-8") if args.config
                else "".join(f"[{name}]\n" for name in SECTIONS))
        cfg = validate_config(text, args.experiment, apply_overrides(args.set))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        _print_config_errors(exc.problems)
        return EXIT_CONFIG

    with warnings.catch_warnings():
        warnings.simplefilter("once")
        return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
