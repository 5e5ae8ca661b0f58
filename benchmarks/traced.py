"""Traced CLI run: the stripwave CLI with spans wrapped around each layer.

    python3 -I benchmarks/traced.py SPAWN_STAMP TRACE_JSON -- CLI_ARGS...

Runs `stripwave.cli.main(CLI_ARGS)` in this process after replacing, from
outside the program, the public names each caller looks up (for example
`stripwave.cli.run` and `stripwave.evolve.ledger_row`) by wrappers that
record a span per call.  A span's self time is its duration minus the time
of the spans it encloses.  Counters sit on the library calls that do the
work (`numpy.fft.rfft`/`irfft`, the banded solves and factorizations as
`stripwave.evolve` looks them up, and `solve_ivp` as `stripwave.waves`
looks it up) and are attributed to the innermost open span.  A name that no
longer exists is reported as missing and left alone.  Exits with the CLI's
exit code after writing TRACE_JSON.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

# span name -> (module, attribute path) looked up by the caller
SPANS = {
    "config.apply_overrides": ("stripwave.cli", "apply_overrides"),
    "config.validate_config": ("stripwave.cli", "validate_config"),
    "config.serialize_config": ("stripwave.cli", "serialize_config"),
    "grid.make_grid": ("stripwave.cli", "make_grid"),
    "waves.solve_wave_kpp": ("stripwave.cli", "solve_wave_kpp"),
    "waves.explicit_wave_eps0": ("stripwave.cli", "explicit_wave_eps0"),
    "waves.check_wave_identities": ("stripwave.cli", "check_wave_identities"),
    "transforms.make_initial_perturbation": ("stripwave.cli", "make_initial_perturbation"),
    "transforms.perturbation_y_means": ("stripwave.transforms", "perturbation_y_means"),
    "transforms.perturbation_y_means_evolve": ("stripwave.evolve", "perturbation_y_means"),
    "evolve.run": ("stripwave.cli", "run"),
    "energy.ledger_row": ("stripwave.evolve", "ledger_row"),
    "energy.fit_exponential_decay": ("stripwave.cli", "fit_exponential_decay"),
    "energy.ledger_to_csv": ("stripwave.energy", "EnergyLedger.to_csv"),
}

# counter name -> (module, attribute path)
COUNTERS = {
    "rfft": ("numpy.fft", "rfft"),
    "irfft": ("numpy.fft", "irfft"),
    "solves": ("stripwave.evolve", "cho_solve_banded"),
    "factorizations": ("stripwave.evolve", "cholesky_banded"),
}

KPP_SOLVER = ("stripwave.waves", "solve_ivp")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []          # [span name, time of child spans]
        self.spans = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.kpp = Counter()
        self.kpp_residual_max = 0.0
        self.steps = 0
        self.missing: list[str] = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self.stack.pop()
                rec = self.spans[name]
                rec["calls"] += 1
                rec["total_s"] += dur
                rec["self_s"] += dur - frame[1]
                if self.stack:
                    self.stack[-1][1] += dur
        return wrapper

    def counter(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.stack[-1][0] if self.stack else "-"][key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def kpp_solver(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            self.kpp.update(calls=1, nfev=sol.nfev, njev=sol.njev,
                            steps=len(sol.t) - 1)
            return sol
        return wrapper

    def observe_run(self, fn):
        """Steps taken, read from the record `run` returns."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = fn(*args, **kwargs)
            if rec.times:
                self.steps += round(rec.times[-1] / rec.config.dt)
            return rec
        return wrapper

    def observe_kpp_profile(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            profile = fn(*args, **kwargs)
            self.kpp_residual_max = max(self.kpp_residual_max,
                                        profile.diagnostics["ode_residual_max"])
            return profile
        return wrapper

    def patch(self, target: tuple, wrap) -> None:
        module_name, path = target
        owner = sys.modules.get(module_name)
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p, None)
        if owner is None or not hasattr(owner, attr):
            self.missing.append(f"{module_name}.{path}")
            return
        setattr(owner, attr, wrap(getattr(owner, attr)))

    def install(self) -> None:
        for key, target in COUNTERS.items():
            self.patch(target, functools.partial(self.counter, key))
        self.patch(KPP_SOLVER, self.kpp_solver)
        # observers go on first so that the spans enclose them
        self.patch(SPANS["evolve.run"], self.observe_run)
        self.patch(SPANS["waves.solve_wave_kpp"], self.observe_kpp_profile)
        for name, target in SPANS.items():
            self.patch(target, functools.partial(self.span, name))

    def report(self) -> dict:
        return {"spans": dict(self.spans),
                "counts": {k: dict(v) for k, v in self.counts.items()},
                "kpp": dict(self.kpp), "kpp_residual_max": self.kpp_residual_max,
                "steps": self.steps, "missing": sorted(set(self.missing))}


def main(stamp: float, out_path: str, cli_args: list[str]) -> int:
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import stripwave.cli

    if not Path(stripwave.cli.__file__).resolve().is_relative_to(SRC_DIR):
        raise SystemExit(f"stripwave imported from {stripwave.cli.__file__}, not {SRC_DIR}")
    import_s = time.monotonic() - stamp

    import json

    import numpy.fft  # noqa: F401  (loaded before it is wrapped)

    from probe import environment

    tracer = Tracer()
    tracer.install()
    code = tracer.span("cli.main", stripwave.cli.main)(cli_args)
    Path(out_path).write_text(json.dumps({"import_s": import_s, "exit_code": code,
                                          "env": environment(), **tracer.report()}))
    return code


if __name__ == "__main__":
    sep = sys.argv.index("--")
    sys.exit(main(float(sys.argv[1]), sys.argv[2], sys.argv[sep + 1:]))
