"""Benchmark of the stripwave CLI experiments, end to end and per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/stripwave`; the package is
imported from there, never from site-packages, and the benchmark fails
without it.  Every sample is a fresh single-threaded process with its own
temporary HOME, XDG_CACHE_HOME, TMPDIR and STRIPWAVE_OUTPUT_ROOT under
`.bench_work/`, and runs one experiment of `workloads/NAME.ini`, in which
every config key is pinned.

--trace 0 times the untraced CLI (wall time, peak RSS) and, in three
set-up probes (probe.py), the time until every wave profile and initial
perturbation exists.  --trace 1 runs the untraced CLI, then one traced CLI
run (traced.py), and reports per-layer figures.  The samples of a run share
its --seconds S: when the first CLI sample took d seconds and the first
probe p, a timed run makes round((S - 3p) / d) CLI samples in all, but at
least ceil(18 / d), and a traced run round((S - d) / d) untraced ones, but
at least one; never more than five.
--seed orders the samples of a run; the
experiments' inputs are pinned, because the checks compare every output
with the reference results in `expected/`.

Each sample is checked: exit code 0, the manifest's config echo equal to the
pinned config, the headline results equal to the references, the CSV
artifacts byte-identical to those of every earlier sample of the same code,
and (probes) each wave profile within tolerance of the reference arrays.
The last line of standard output is the JSON result.  METRICS.md describes
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import pinned
import traced

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
EXPECTED_DIR = BENCH_DIR / "expected"

SUBCOMMANDS = {"stability0": "evolve", "planarity": "planarity",
               "linear_small_eps": "linear"}
LAYERS = ("cli", "config", "grid", "waves", "transforms", "evolve", "energy")

SETUP_REPEATS = 3        # set-up probes per timed run; setup_s is their median
MIN_CLI_SECONDS = 18.0   # a timed run's CLI samples add up to at least this
MAX_CLI_SAMPLES = 5
RUN_BUDGET_S = 170.0     # every child of a run ends within this

# Headline results must match the references to this relative tolerance.
# Refactors that only reorder floating-point work move them by ~1e-13.
HEADLINE_RTOL = 1e-6
HEADLINE_ATOL = {"y_mean_drift": 1e-14}   # rounding-level at the reference
# Wave profiles: largest |x - x_ref| / max|x_ref| for N, C and P_z, and the
# ODE residual.  The reference (tol = 1e-10) is 8e-9 (eps = 0.1) and 5e-9
# (eps = 0.01) from tighter solves in P_z, with residuals 6e-10 and 1.5e-10.
# tol = 1e-9 moves P_z by 2.4e-7 and 9.7e-8 (residual 6.3e-9 at eps = 0.1);
# tol = 1e-8 by 4.2e-6 and 3.6e-7 (residuals 1.9e-7 and 5.0e-9).
WAVE_ARRAY_RTOL = 3e-8
WAVE_RESIDUAL_MAX = 2e-9
TAIL_RATE_RTOL = 0.02    # the program's own wave gate

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# Mirrors the `stripwave` console script, importing from the given src dir.
CLI_ENTRY = (
    "import sys, pathlib\n"
    "src = sys.argv.pop(1)\n"
    "sys.path.insert(0, src)\n"
    "import stripwave.cli\n"
    "if not pathlib.Path(stripwave.cli.__file__).resolve().is_relative_to(src):\n"
    "    sys.exit(f'stripwave imported from {stripwave.cli.__file__}')\n"
    "sys.exit(stripwave.cli.main(sys.argv[1:]))\n"
)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    home: Path


def spawn(make_argv, home: Path, deadline: float) -> Child:
    """Run one child to completion in a fresh home; kill it at the deadline.

    make_argv receives the `time.monotonic()` stamp taken just before the
    spawn.  Wall time runs from that stamp to the exit; CPU time and peak
    RSS come from `os.wait4`.
    """
    for d in (home, home / "cache", home / "out"):
        d.mkdir(parents=True)
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "HOME": str(home),
           "XDG_CACHE_HOME": str(home / "cache"), "TMPDIR": str(home),
           "STRIPWAVE_OUTPUT_ROOT": str(home / "out"), **THREAD_ENV}
    with open(home / "stdout.txt", "wb") as out, open(home / "stderr.txt", "wb") as err:
        stamp = time.monotonic()
        proc = subprocess.Popen(make_argv(stamp), cwd=home, env=env,
                                stdout=out, stderr=err)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([fd], [], [],
                                            max(0.0, deadline - time.monotonic()))
            finally:
                os.close(fd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - stamp
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(code=proc.returncode, wall_s=wall,
                 cpu_s=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0, home=home)


def cli_args(workload: str) -> list[str]:
    return [SUBCOMMANDS[workload], "--config",
            str(pinned.WORKLOAD_DIR / f"{workload}.ini")]


def untraced_argv(workload: str):
    return lambda stamp: [sys.executable, "-I", "-c", CLI_ENTRY, str(SRC_DIR),
                          *cli_args(workload)]


def output_dir(workload: str, home: Path) -> Path:
    return home / "out" / pinned.load(workload)["output"]["directory"]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _csv_ends(path: Path) -> tuple[dict, dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")

    def row(line):
        return dict(zip(header, map(float, line.split(","))))

    return row(lines[1]), row(lines[-1])


def headline(workload: str, out: Path) -> dict[str, float]:
    """The results a user of the experiment reads, by name."""
    summary = json.loads((out / "summary.json").read_text())
    if workload == "planarity":
        vals = {}
        for r in summary["results"]:
            tag = f"eps{r['eps']:g}_lam{r['lambda']:g}"
            vals.update({f"{tag}.rate": r["rate"], f"{tag}.r_squared": r["r_squared"],
                         f"{tag}.window_lo": r["window"][0],
                         f"{tag}.window_hi": r["window"][1], f"{tag}.Q0": r["Q0"]})
        return vals
    first, last = _csv_ends(out / "ledger.csv")
    _, last2 = _csv_ends(out / "ledger_double.csv")
    vals = {"C0": last["C0_running"], "C0_doubled": last2["C0_running"],
            "D_phi": last["D_phi"], "D_psi": last["D_psi"], "D_psi4": last["D_psi4"],
            "M_sup_over_M0": last["M_sup"] / first["M_inst"]}
    if "y_mean_drift" in summary:
        vals["y_mean_drift"] = summary["y_mean_drift"]
    return vals


def headline_mismatches(got: dict, want: dict) -> list[str]:
    out = []
    for key in sorted(want.keys() | got.keys()):
        if key not in got or key not in want:
            out.append(f"{key}: missing in {'output' if key not in got else 'reference'}")
        elif not math.isclose(got[key], want[key], rel_tol=HEADLINE_RTOL,
                              abs_tol=HEADLINE_ATOL.get(key, 0.0)):
            out.append(f"{key}: {got[key]!r}, reference {want[key]!r}")
    return out


def artifact_digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))
            if p.name.startswith(("ledger", "q_decay_"))}


def wave_problems(profiles: list[dict], expected_count: int) -> list[str]:
    out = []
    if len(profiles) != expected_count:
        out.append(f"{len(profiles)} wave profiles built, expected {expected_count}")
    for p in profiles:
        tag = f"wave eps={p['eps']:g} lambda={p['lambda']:g}"
        for name in ("N", "C", "P_z"):
            if not p[f"{name}_rel_diff"] <= WAVE_ARRAY_RTOL:
                out.append(f"{tag}: {name} differs from the reference by "
                           f"{p[f'{name}_rel_diff']:.3g} (limit {WAVE_ARRAY_RTOL:g})")
        if not p["ode_residual_max"] <= WAVE_RESIDUAL_MAX:
            out.append(f"{tag}: ODE residual {p['ode_residual_max']:.3g} "
                       f"(limit {WAVE_RESIDUAL_MAX:g})")
        for key in ("right_rate_rel_err", "left_rate_rel_err"):
            if key in p and not p[key] <= TAIL_RATE_RTOL:
                out.append(f"{tag}: {key} = {p[key]:.3g}")
    return out


def tree_hash() -> str:
    """Identifies the code under test: the program sources and the benchmark."""
    h = hashlib.sha256()
    for base in (SRC_DIR, BENCH_DIR):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


class SharedState:
    """Values that every run of the same code on a workload must reproduce:
    artifact digests and traced counts.  The first run records them under
    `.bench_work/state/`; later runs compare."""

    def __init__(self, workload: str):
        self.path = WORK_DIR / "state" / f"{workload}-{tree_hash()}.json"

    def agree(self, kind: str, value) -> list[str]:
        state = json.loads(self.path.read_text()) if self.path.exists() else {}
        if kind not in state:
            state[kind] = value
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
            return []
        if state[kind] == value:
            return []
        old = state[kind]
        keys = sorted(k for k in old.keys() | value.keys() if old.get(k) != value.get(k))
        return [f"{kind} differ from an earlier run of the same code: {', '.join(keys)}"]


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------

@dataclass
class Run:
    workload: str
    deadline: float
    dir: Path
    expected: dict
    state: SharedState
    attempted: int = 0
    failed: int = 0
    env: dict = field(default_factory=dict)

    def home(self) -> Path:
        return self.dir / f"sample{self.attempted:02d}"

    def record(self, label: str, child: Child, problems: list[str], note: str) -> None:
        self.attempted += 1
        if time.monotonic() > self.deadline:
            problems = problems + ["run budget exhausted"]
        self.failed += bool(problems)
        print(f"sample {label}: {note}, {'FAIL' if problems else 'ok'}")
        for p in problems:
            print(f"  {p}")
        if problems:
            tail = (child.home / "stderr.txt").read_text(errors="replace")[-2000:]
            print(f"  stderr tail: {tail!r}")
        shutil.rmtree(child.home, ignore_errors=True)

    def output_problems(self, child: Child) -> list[str]:
        problems = [] if child.code == 0 else [f"exit code {child.code}"]
        out = output_dir(self.workload, child.home)
        try:
            manifest = json.loads((out / "manifest.json").read_text())
            problems += pinned.config_mismatches(pinned.load(self.workload),
                                                 manifest["config"])
            if manifest["exit_code"] != 0:
                problems.append(f"manifest exit_code {manifest['exit_code']}")
            problems += headline_mismatches(headline(self.workload, out),
                                            self.expected["headline"])
            if not problems:  # only a sample that passed may set the record
                problems += self.state.agree("digests", artifact_digests(out))
        except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
            problems.append(f"outputs unreadable: {exc!r}")
        return problems

    def cli_sample(self) -> tuple[Child, int]:
        child = spawn(untraced_argv(self.workload), self.home(), self.deadline)
        out = output_dir(self.workload, child.home)
        size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        self.record("cli", child, self.output_problems(child),
                    f"wall {child.wall_s:.3f} s, cpu {child.cpu_s:.3f} s, "
                    f"rss {child.rss_mb:.1f} MB")
        return child, size

    def probe_sample(self) -> float:
        child = spawn(lambda stamp: [sys.executable, "-I", str(BENCH_DIR / "probe.py"),
                                     self.workload, repr(stamp)],
                      self.home(), self.deadline)
        problems = [] if child.code == 0 else [f"exit code {child.code}"]
        setup_s = child.wall_s
        try:
            result = json.loads((child.home / "stdout.txt").read_text().splitlines()[-1])
            setup_s = result["setup_s"]
            self.env.update(result["env"])
            cfg = pinned.load(self.workload)
            count = len(pinned.floats(cfg["wave"]["eps"])) * len(
                pinned.floats(cfg["grid"]["lambda"]))
            problems += wave_problems(result["profiles"], count)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problems.append(f"probe output unreadable: {exc!r}")
        self.record("setup", child, problems, f"setup {setup_s:.3f} s")
        return setup_s

    def traced_sample(self) -> tuple[Child, dict]:
        home = self.home()
        trace_path = home / "trace.json"
        child = spawn(lambda stamp: [sys.executable, "-I", str(BENCH_DIR / "traced.py"),
                                     repr(stamp), str(trace_path), "--",
                                     *cli_args(self.workload)],
                      home, self.deadline)
        problems = self.output_problems(child)
        trace = {}
        try:
            trace = json.loads(trace_path.read_text())
            self.env.update(trace["env"])
            if trace["missing"]:
                self.env["missing_wrapped_names"] = trace["missing"]
            counts = {"calls": {k: v["calls"] for k, v in trace["spans"].items()},
                      "counts": trace["counts"], "kpp": trace["kpp"],
                      "steps": trace["steps"]}
            if not problems:
                problems += self.state.agree("counts", counts)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"trace unreadable: {exc!r}")
        self.record("traced", child, problems, f"wall {child.wall_s:.3f} s")
        return child, trace


def cli_plan(budget: float, first_wall: float, minimum: int) -> int:
    """Number of CLI samples that fill `budget` seconds, the first included."""
    return min(MAX_CLI_SAMPLES, max(minimum, round(budget / max(first_wall, 1e-3))))


def timed_run(run: Run, seconds: float, seed: int) -> dict:
    """CLI samples and set-up probes share the run's `seconds`."""
    rng = random.Random(seed)
    walls, rss, setups = [], [], []

    def cli():
        child, _ = run.cli_sample()
        walls.append(child.wall_s)
        rss.append(child.rss_mb)

    def setup():
        setups.append(run.probe_sample())

    first = [cli, setup]
    rng.shuffle(first)
    for sample in first:
        sample()
    n_cli = cli_plan(seconds - SETUP_REPEATS * setups[0], walls[0],
                     math.ceil(MIN_CLI_SECONDS / walls[0]))
    rest = [cli] * (n_cli - 1) + [setup] * (SETUP_REPEATS - 1)
    rng.shuffle(rest)
    for sample in rest:
        sample()
    return {"wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB")}


def _name(target: tuple) -> str:
    return ".".join(target)


# Per-layer metrics that need a wrapped name; a missing name omits them.
_FFT = [_name(traced.COUNTERS["rfft"]), _name(traced.COUNTERS["irfft"])]
_RUN = [_name(traced.SPANS["evolve.run"])]
_ROW = [_name(traced.SPANS["energy.ledger_row"])]
NEEDS = {
    "waves.build_s": [_name(traced.SPANS["waves.solve_wave_kpp"]),
                      _name(traced.SPANS["waves.explicit_wave_eps0"])],
    "waves.kpp_nfev": [_name(traced.KPP_SOLVER)],
    "waves.kpp_steps": [_name(traced.KPP_SOLVER)],
    "waves.kpp_njev": [_name(traced.KPP_SOLVER)],
    "waves.kpp_residual": [_name(traced.SPANS["waves.solve_wave_kpp"])],
    "transforms.init_s": [_name(traced.SPANS["transforms.make_initial_perturbation"])],
    "evolve.steps": _RUN,
    "evolve.step_ms": _RUN,
    "evolve.fft_per_step": _RUN + _FFT,
    "evolve.solves_per_step": _RUN + [_name(traced.COUNTERS["solves"])],
    "evolve.factorizations": [_name(traced.COUNTERS["factorizations"])],
    "energy.rows": _ROW,
    "energy.row_ms": _ROW,
    "energy.fft_per_row": _ROW + _FFT,
}


def layer_metrics(trace: dict, traced_wall: float, walls: list, cpus: list,
                  sizes: list) -> dict:
    spans, counts, kpp = trace["spans"], trace["counts"], trace["kpp"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def counted(span, *keys):
        return sum(counts.get(span, {}).get(k, 0) for k in keys)

    def per(x, n):
        return x / n if n else 0.0

    steps = trace["steps"]
    rows = spans.get("energy.ledger_row", {}).get("calls", 0)
    self_s = {layer: sum(s["self_s"] for name, s in spans.items()
                         if name.split(".")[0] == layer) for layer in LAYERS}
    metrics = {
        "cli.import_s": (trace["import_s"], "s"),
        "cli.cpu_s": (statistics.median(cpus), "s"),
        "cli.output_bytes": (statistics.median_low(sizes), "bytes"),
        **{f"{layer}.self_s": (v, "s") for layer, v in self_s.items()},
        "waves.build_s": (total("waves.solve_wave_kpp")
                          + total("waves.explicit_wave_eps0"), "s"),
        "waves.kpp_nfev": (kpp.get("nfev", 0), "count"),
        "waves.kpp_steps": (kpp.get("steps", 0), "count"),
        "waves.kpp_njev": (kpp.get("njev", 0), "count"),
        "waves.kpp_residual": (trace["kpp_residual_max"], "1"),
        "transforms.init_s": (total("transforms.make_initial_perturbation"), "s"),
        "evolve.steps": (steps, "count"),
        "evolve.step_ms": (1e3 * per(spans.get("evolve.run", {}).get("self_s", 0.0),
                                     steps), "ms"),
        "evolve.fft_per_step": (per(counted("evolve.run", "rfft", "irfft") / 2, steps),
                                "pairs/step"),
        "evolve.solves_per_step": (per(counted("evolve.run", "solves"), steps),
                                   "solves/step"),
        "evolve.factorizations": (sum(c.get("factorizations", 0)
                                      for c in counts.values()), "count"),
        "energy.rows": (rows, "count"),
        "energy.row_ms": (1e3 * per(total("energy.ledger_row"), rows), "ms"),
        "energy.fft_per_row": (per(counted("energy.ledger_row", "rfft", "irfft") / 2,
                                   rows), "pairs/row"),
        "trace.overhead_s": (traced_wall - statistics.median(walls), "s"),
        "trace.unaccounted_s": (traced_wall - trace["import_s"] - sum(self_s.values()),
                                "s"),
    }
    missing = set(trace["missing"])
    for name, needs in NEEDS.items():
        if missing.intersection(needs):
            print(f"metric {name} missing: {', '.join(sorted(missing.intersection(needs)))}"
                  " no longer exists")
            del metrics[name]
    return metrics


def traced_run(run: Run, seconds: float) -> dict:
    """Untraced CLI samples, then one traced run, within the run's `seconds`."""
    walls, cpus, sizes = [], [], []
    n = None
    while n is None or len(walls) < n:
        child, size = run.cli_sample()
        walls.append(child.wall_s)
        cpus.append(child.cpu_s)
        sizes.append(size)
        n = n or cli_plan(seconds - child.wall_s, child.wall_s, 1)
    child, trace = run.traced_sample()
    if not trace:
        return {}
    return layer_metrics(trace, child.wall_s, walls, cpus, sizes)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg(), "thread_env": THREAD_ENV,
            "git_commit": git_commit(), "tree": tree_hash()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SUBCOMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC_DIR / "stripwave" / "__init__.py").is_file():
        print(f"no stripwave package under {SRC_DIR}: run from a full checkout",
              file=sys.stderr)
        return 2
    expected = json.loads((EXPECTED_DIR / f"{args.workload}.json").read_text())
    WORK_DIR.mkdir(exist_ok=True)
    run = Run(workload=args.workload, deadline=time.monotonic() + RUN_BUDGET_S,
              dir=Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)),
              expected=expected, state=SharedState(args.workload))
    env = environment()
    try:
        if args.trace:
            metrics = traced_run(run, args.seconds)
        else:
            metrics = timed_run(run, args.seconds, args.seed)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    env.update(run.env, loadavg_end=os.getloadavg())
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
