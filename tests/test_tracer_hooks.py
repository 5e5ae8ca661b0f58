"""The benchmark tracer wraps names that the program looks up at call time
(`benchmarks/traced.py`).  A refactor that renames one of them, or stops
calling it, would leave the traced run without its per-layer metrics, so
every target must resolve and the stepper must go through the counted names.
"""

import importlib.util
import json
import os
import sys
from collections import Counter
from pathlib import Path

import pytest
import stripwave.cli  # noqa: F401  (imports every module the tracer patches)
from stripwave.evolve import IntegratorConfig, run
from stripwave.grid import make_grid
from stripwave.transforms import log_gradient_deviation, make_initial_perturbation
from stripwave.waves import WaveParams, explicit_wave_eps0, solve_wave_kpp

TRACED = Path(__file__).resolve().parents[1] / "benchmarks" / "traced.py"
importlib.import_module("numpy.fft")  # a counter target; numpy does not load it


def _load_traced(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_stripwave_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hook_names_resolve(monkeypatch):
    traced = _load_traced(monkeypatch)
    tracer = traced.Tracer()
    targets = [*traced.SPANS.values(), *traced.COUNTERS.values(), traced.KPP_SOLVER]
    for target in targets:
        tracer.patch(target, lambda fn: fn)  # resolve only: rebinds the same object
    assert tracer.missing == []
    assert len(targets) == len(traced.SPANS) + len(traced.COUNTERS) + 1 > 10


@pytest.mark.parametrize("system, eps", [("nonlinear0", 0.0), ("linear_eps", 0.05),
                                         ("nq", 0.1)])
def test_stepper_calls_the_traced_names(monkeypatch, system, eps):
    traced = _load_traced(monkeypatch)
    tracer = traced.Tracer()

    def wrap(target, wrapper):
        module_name, attr = target
        owner = sys.modules[module_name]
        monkeypatch.setattr(owner, attr, wrapper(getattr(owner, attr)))

    for key, target in traced.COUNTERS.items():
        wrap(target, lambda fn, key=key: tracer.counter(key, fn))
    wrap(traced.SPANS["energy.ledger_row"],
         lambda fn: tracer.span("energy.ledger_row", fn))

    params = WaveParams(eps=eps, n_minus=1.0, c_plus=1.0)
    grid = make_grid(25.0 / params.s, 128, 0.5, 8, params.s)
    profile = solve_wave_kpp(params, grid) if eps > 0 else explicit_wave_eps0(params, grid)
    init = make_initial_perturbation(grid, 1e-4, seed=0, mean_zero_y=eps > 0)
    if system == "nq":
        init = log_gradient_deviation(init, grid)
    run(system, init, profile, IntegratorConfig(dt=0.01, t_end=0.03))

    counts = sum(tracer.counts.values(), Counter())
    assert counts["factorizations"] >= 1
    assert counts["solves"] >= 1
    if system == "nonlinear0":
        assert tracer.spans["energy.ledger_row"]["calls"] >= 1


def test_kpp_solve_calls_the_traced_name(monkeypatch):
    traced = _load_traced(monkeypatch)
    tracer = traced.Tracer()
    module_name, attr = traced.KPP_SOLVER
    owner = sys.modules[module_name]
    monkeypatch.setattr(owner, attr, tracer.kpp_solver(getattr(owner, attr)))

    params = WaveParams(eps=0.1, n_minus=1.0, c_plus=1.0)
    profile = solve_wave_kpp(params, make_grid(25.0 / params.s, 128, 0.5, 8, params.s))

    assert tracer.kpp["calls"] == 1
    assert tracer.kpp["steps"] == profile.diagnostics["nsteps"]
    assert tracer.kpp["nfev"] > 0 and tracer.kpp["njev"] > 0
    # read off the solve_ivp result as it is: its counts must be ints
    assert type(tracer.kpp["njev"]) is int
    json.dumps(tracer.kpp)


@pytest.mark.parametrize("command, overrides, calls, horizons", [
    ("evolve", [], 1, 2),
    ("linear", ["wave.eps=0.1"], 1, 2),
    ("planarity", ["wave.eps=0.1", "grid.lambda=0.5,0.25"], 2, 1),
])
def test_cli_run_calls_and_traced_steps(tmp_path, monkeypatch, command, overrides,
                                        calls, horizons):
    # `evolve` and `linear` reach t_end and its doubling in one `run` call,
    # so the `evolve.run` span is one call and the observed steps are 2n;
    # `planarity` makes one call per (eps, lambda) pair.  With one usable
    # core every call runs in this process, where the tracer sees it
    # (test_tracer_sees_only_the_strip_run_in_process: the forked strips)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    traced = _load_traced(monkeypatch)
    tracer = traced.Tracer()
    records = []
    module_name, attr = traced.SPANS["evolve.run"]
    owner = sys.modules[module_name]
    real_run = getattr(owner, attr)

    def kept_run(*args, **kwargs):
        records.append(real_run(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(owner, attr,
                        tracer.span("evolve.run", tracer.observe_run(kept_run)))
    for key, (module_name, attr) in traced.COUNTERS.items():
        owner = sys.modules[module_name]
        monkeypatch.setattr(owner, attr, tracer.counter(key, getattr(owner, attr)))
    for name in ("transforms.perturbation_y_means",
                 "transforms.perturbation_y_means_evolve", "energy.ledger_row"):
        module_name, attr = traced.SPANS[name]
        owner = sys.modules[module_name]
        monkeypatch.setattr(owner, attr, tracer.span(name, getattr(owner, attr)))
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    t_end, dt = 2.0, 0.02
    args = [command]
    for o in ("grid.n_z=128", "grid.n_y=4", f"integrator.t_end={t_end}",
              f"integrator.dt={dt}", *overrides):
        args += ["--set", o]
    assert stripwave.cli.main(args) == 0

    assert tracer.spans["evolve.run"]["calls"] == len(records) == calls
    assert all(rec.times[-1] == pytest.approx(horizons * t_end) for rec in records)
    assert tracer.steps == calls * round(horizons * t_end / dt)
    if command == "linear":
        # the y-mean checks of the CLI and of `run` go through the traced names
        assert tracer.spans["transforms.perturbation_y_means"]["calls"] >= 1
        assert tracer.spans["transforms.perturbation_y_means_evolve"]["calls"] >= 1
        # a ledger row reads the stepper's y-modes and makes no transform
        assert tracer.spans["energy.ledger_row"]["calls"] >= 1
        assert not {"rfft", "irfft"} & set(tracer.counts["energy.ledger_row"])


def test_tracer_sees_only_the_strip_run_in_process(tmp_path, monkeypatch):
    # with two usable cores the second strip runs in a forked child: the
    # tracer counts `run` calls in this process, so it sees one call and its
    # steps, while the manifest's counters list both strips
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    traced = _load_traced(monkeypatch)
    tracer = traced.Tracer()
    module_name, attr = traced.SPANS["evolve.run"]
    owner = sys.modules[module_name]
    monkeypatch.setattr(owner, attr,
                        tracer.span("evolve.run", tracer.observe_run(getattr(owner, attr))))
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    args = ["planarity"]
    for o in ("grid.n_z=128", "grid.n_y=4", "integrator.t_end=2", "integrator.dt=0.02",
              "wave.eps=0.1", "grid.lambda=0.5,0.25"):
        args += ["--set", o]
    assert stripwave.cli.main(args) == 0

    assert tracer.spans["evolve.run"]["calls"] == 1
    assert tracer.steps == 100
    counters = json.loads((tmp_path / "out" / "manifest.json").read_text())["counters"]
    assert [(c["pair"], c["steps"], c["forked"]) for c in counters] == [
        ("eps0.1_lam0.5", 100, False), ("eps0.1_lam0.25", 100, True)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("system, eps, scheme, solvers", [
    ("nonlinear0", 0.0, "imex1", 1),
    ("linear_eps", 0.05, "imex1", 2),
    ("nq", 0.1, "imex1", 2),
    ("nq", 0.1, "sbdf2", 4),
])
def test_traced_counts_match_the_program(monkeypatch, system, eps, scheme, solvers):
    # each LAPACK call goes through its forwarder once: the traced solves are
    # the record's solves, the traced factorizations one per solver built
    import stripwave.evolve as evolve

    traced = _load_traced(monkeypatch)
    tracer = traced.Tracer()
    for key in ("solves", "factorizations"):
        module_name, attr = traced.COUNTERS[key]
        owner = sys.modules[module_name]
        monkeypatch.setattr(owner, attr, tracer.counter(key, getattr(owner, attr)))
    built = []
    real_init = evolve._ModeDiffusionSolver.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(evolve._ModeDiffusionSolver, "__init__", init)

    params = WaveParams(eps=eps, n_minus=1.0, c_plus=1.0)
    grid = make_grid(25.0 / params.s, 128, 0.5, 8, params.s)
    profile = solve_wave_kpp(params, grid) if eps > 0 else explicit_wave_eps0(params, grid)
    init_state = make_initial_perturbation(grid, 1e-4, seed=0, mean_zero_y=eps > 0)
    if system == "nq":
        init_state = log_gradient_deviation(init_state, grid)
    rec = run(system, init_state, profile,
              IntegratorConfig(dt=0.01, t_end=0.05, scheme=scheme))

    counts = sum(tracer.counts.values(), Counter())
    assert len({id(s) for s in built}) == solvers
    assert counts["factorizations"] == rec.counters.factorizations == solvers
    assert counts["solves"] == rec.counters.solves > 0
