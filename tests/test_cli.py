import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import stripwave.cli
import stripwave.config
import stripwave.waves
from stripwave.cli import main
from stripwave.config import (
    ConfigError,
    apply_overrides,
    serialize_config,
    validate_config,
)
from stripwave.evolve import IntegratorBlowup, IntegratorConfig
from stripwave.grid import GridError, make_grid
from stripwave.transforms import TransformError, make_initial_perturbation
from stripwave.waves import WaveError, WaveParams, WaveSolveError, solve_wave_kpp, wave_speed

WAVE_CFG = """
[grid]
n_z = 1024
lambda = 0.5
n_y = 16

[wave]
eps = 0
n_minus = 1.0
c_plus = 1.0
"""

STABILITY_CFG = """
[grid]
L_z = 50
n_z = 512
lambda = 0.5
n_y = 16

[wave]
eps = 0
n_minus = 0.25

[init]
amplitude = 1e-4
seed = 0

[integrator]
dt = 0.05
t_end = 1.0
record_every = 4

[output]
directory = {out}
"""


def test_empty_config_lists_required_sections():
    with pytest.raises(ConfigError) as err:
        validate_config("", "stability0")
    joined = " ".join(err.value.problems)
    for sec in ("grid", "wave", "init", "integrator", "output"):
        assert f"[{sec}]" in joined


def test_range_problems_report_their_lines():
    # stability0 reads [integrator]; wave holds it at its defaults
    text = STABILITY_CFG.format(out="x").replace("n_y = 16", "n_y = 15").replace(
        "dt = 0.05", "dt = -1")
    lines = text.splitlines()
    with pytest.raises(ConfigError) as err:
        validate_config(text, "stability0")
    problems = err.value.problems
    assert f"line {lines.index('n_y = 15') + 1}: grid.n_y must be even" in problems[0]
    assert any(p.startswith(f"line {lines.index('dt = -1') + 1}: integrator.dt must "
                            "be positive") for p in problems)
    # an override of a key the file lacks leaves the file's problems at their lines
    with pytest.raises(ConfigError) as err:
        validate_config("[grid]\nn_z = 8\n", "wave", apply_overrides(["grid.n_y=16"]))
    assert "line 2: grid.n_z must be >= 16, got 8" in err.value.problems


def test_override_problems_name_their_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    # without a file the text is one of section headers the user never saw
    assert main(["evolve", "--set", "integrator.dt=-1", "--set", "grid.n_y=3"]) == 2
    err = capsys.readouterr().err
    assert "  --set grid.n_y=3: grid.n_y must be even" in err
    assert "  --set integrator.dt=-1: integrator.dt must be positive" in err
    assert "line" not in err
    # a file's keys keep their lines; an override of one of them is named by
    # it (evolve, which reads grid.n_y; wave holds it)
    cfgfile = tmp_path / "two.ini"
    cfgfile.write_text("[grid]\nn_z = 8\n[init]\n[integrator]\n[output]\n")
    assert main(["evolve", "--config", str(cfgfile), "--set", "grid.n_y=3",
                 "--set", "wave.eps=x"]) == 2
    err = capsys.readouterr().err
    assert "  line 2: grid.n_z must be >= 16, got 8" in err
    assert "  --set grid.n_y=3: grid.n_y must be even" in err
    assert "  --set wave.eps=x: bad value for wave.eps" in err
    # the override's section counts as present, as the file's would
    assert "missing required section" not in err
    assert main(["wave", "--config", str(cfgfile), "--set", "grid.n_z=9",
                 "--set", "grid.nz=9"]) == 2
    err = capsys.readouterr().err
    assert "  --set grid.n_z=9: grid.n_z must be >= 16, got 9" in err
    assert "  --set grid.nz=9: unknown key 'nz' in [grid]" in err
    assert "line" not in err
    # of two overrides of one key the last wins and names the problem
    assert main(["evolve", "--set", "grid.n_y=3", "--set", "grid.n_y=5"]) == 2
    err = capsys.readouterr().err
    assert "  --set grid.n_y=5: grid.n_y must be even and >= 4 (periodic spectral " \
        "axis), got 5" in err
    assert "n_y=3" not in err
    # an override of a key does not mend a malformed line or a duplicate of it
    cfgfile.write_text("[grid]\n[wave]\n\n[integrator]\ndt\n")
    assert main(["wave", "--config", str(cfgfile), "--set", "integrator.dt=0.01"]) == 2
    assert "  line 5: expected 'key = value', got 'dt'" in capsys.readouterr().err
    cfgfile.write_text("[grid]\nn_y = 5\n[integrator]\ndt = 0.01\ndt = 0.02\n")
    assert main(["evolve", "--config", str(cfgfile), "--set", "integrator.dt=-2"]) == 2
    err = capsys.readouterr().err
    assert "  line 5: duplicate key 'dt' in [integrator]" in err
    assert "  line 2: grid.n_y must be even" in err
    assert "  --set integrator.dt=-2: integrator.dt must be positive, got -2.0" in err
    assert main(["wave", "--set", "plot.style=fancy"]) == 2
    assert "override 'plot.style=fancy' names an unknown section [plot]" in capsys.readouterr().err


def test_wave_parameter_rules_checked_before_compute():
    with pytest.raises(ConfigError) as err:
        validate_config(WAVE_CFG, "wave", apply_overrides(["wave.tol=1e-3", "wave.N0=-1"]))
    joined = " ".join(err.value.problems)
    assert "wave.tol must lie in (0, 1e-4]" in joined
    assert "wave.N0 must be positive" in joined


def test_odd_n_y_rejected_with_rule():
    text = STABILITY_CFG.format(out="x").replace("n_y = 16", "n_y = 15")
    with pytest.raises(ConfigError, match="even"):
        validate_config(text, "stability0")


def test_unknown_key_reported_with_line_number():
    text = WAVE_CFG + "\nwavelength = 3\n"
    with pytest.raises(ConfigError, match=r"line \d+: unknown key"):
        validate_config(text, "wave")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        validate_config(WAVE_CFG + "\n[plotting]\nstyle = fancy\n", "wave")


def test_bad_value_reports_line():
    text = WAVE_CFG.replace("eps = 0", "eps = zero")
    with pytest.raises(ConfigError, match=r"line \d+: bad value"):
        validate_config(text, "wave")


def test_lambda_guards():
    text = STABILITY_CFG.format(out="x").replace("lambda = 0.5", "lambda = 3.0")
    with pytest.raises(ConfigError, match=r"grid.lambda must lie in \(0, 2\], got 3.0"):
        validate_config(text, "stability0")
    text = STABILITY_CFG.format(out="x").replace("lambda = 0.5", "lambda = 1.5")
    cfg = validate_config(text, "stability0")
    assert any("thin strip" in w for w in cfg.warnings)


def test_integrator_rules_all_reported():
    overrides = apply_overrides(["integrator.cfl_safety=1.5", "integrator.record_every=0",
                                 "integrator.scheme=rk4"])
    with pytest.raises(ConfigError) as err:
        validate_config(STABILITY_CFG.format(out="x"), "stability0", overrides)
    joined = " ".join(err.value.problems)
    for key in ("cfl_safety", "record_every", "scheme"):
        assert f"integrator.{key} must" in joined


def test_config_round_trip():
    cfg = validate_config(STABILITY_CFG.format(out="x"), "stability0")
    text = serialize_config(cfg)
    cfg2 = validate_config(text, "stability0")
    assert serialize_config(cfg2) == text
    assert cfg2.grid == cfg.grid
    assert cfg2.integrator == cfg.integrator


def test_sweep_lists_only_for_planarity():
    text = WAVE_CFG.replace("eps = 0", "eps = 0.1,0.05")
    with pytest.raises(ConfigError, match="single value"):
        validate_config(text, "wave")


def test_apply_overrides_rewrites_and_appends():
    cfg = validate_config(WAVE_CFG, "wave",
                          apply_overrides(["wave.eps=0.1", "output.directory=zzz"]))
    assert cfg.wave["eps"] == (0.1,)
    assert cfg.output["directory"] == "zzz"


def test_override_syntax_error():
    with pytest.raises(ConfigError, match="section.key=value"):
        apply_overrides(["epsilon 0.1"])


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[grid]\nn_y = 3\n")
    assert main(["wave", "--config", str(bad)]) == 2


def test_cli_missing_config_file(tmp_path, capsys):
    # a missing path, a directory and a file that is not UTF-8 are config
    # errors (exit 2), not crashes
    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes("[wave]\n# \u00e9\n".encode("latin-1"))
    for path in ("/nonexistent/path.ini", tmp_path, latin1):
        assert main(["wave", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


def test_cli_wave_experiment(tmp_path, capsys):
    cfgfile = tmp_path / "wave.ini"
    cfgfile.write_text(WAVE_CFG + f"\n[output]\ndirectory = {tmp_path / 'out'}\n")
    code = main(["wave", "--config", str(cfgfile)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out
    prof_csv = tmp_path / "out" / "wave_profile.csv"
    assert prof_csv.exists()
    header = prof_csv.read_text().splitlines()[0]
    assert header == "z,N,C,P"
    meta = json.loads((tmp_path / "out" / "wave_metadata.json").read_text())
    assert meta["s"] == pytest.approx(1.0)
    assert meta["identity_residuals"]["ratio_relation"] < 1e-12
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["exit_code"] == 0
    assert "config" in manifest


def test_cli_stability_run_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        cfgfile = tmp_path / f"stab_{out.name}.ini"
        cfgfile.write_text(STABILITY_CFG.format(out=out))
        code = main(["evolve", "--config", str(cfgfile)])
        assert code == 0
    led1 = (out1 / "ledger.csv").read_bytes()
    led2 = (out2 / "ledger.csv").read_bytes()
    assert led1 == led2  # bitwise-identical ledgers


def test_cli_overrides_change_run(tmp_path):
    cfgfile = tmp_path / "stab.ini"
    cfgfile.write_text(STABILITY_CFG.format(out=tmp_path / "o1"))
    code = main(["evolve", "--config", str(cfgfile),
                 "--set", f"output.directory={tmp_path / 'o2'}",
                 "--set", "integrator.t_end=0.5"])
    assert code == 0
    led = (tmp_path / "o2" / "ledger.csv").read_text().splitlines()
    last_t = float(led[-1].split(",")[0])
    assert last_t == pytest.approx(0.5)


def test_cli_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    cfgfile = tmp_path / "w.ini"
    cfgfile.write_text(WAVE_CFG + "\n[output]\ndirectory = nested/run1\n")
    assert main(["wave", "--config", str(cfgfile)]) == 0
    assert (tmp_path / "nested" / "run1" / "wave_profile.csv").exists()


def test_cli_wave_defaults_without_config(tmp_path, monkeypatch):
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    assert main(["wave", "--set", "grid.n_z=512"]) == 0
    assert (tmp_path / "out" / "wave_profile.csv").exists()


@pytest.mark.parametrize("overrides, failed", [
    *(([f"wave.eps={eps:g}"], []) for eps in (1e-6, 0.01, 0.1, 1, 3, 10)),
    (["wave.eps=20"], ["right tail rate within 2% of -s"]),
    (["wave.eps=20", f"grid.L_z={50.0 / wave_speed(1.0, 20.0)!r}"], []),
    (["wave.eps=0.1", "grid.n_z=16"], []),
], ids=["1e-6", "0.01", "0.1", "1", "3", "10", "20", "20-long-strip", "0.1-n_z-16"])
def test_wave_checks_at_every_eps(tmp_path, monkeypatch, capsys, overrides, failed):
    # the tail rates are read at the strip's ends: they pass up to eps = 10
    # on the default strip and on the coarsest grid; at eps = 20 the right
    # end of the 25/s strip is short of the tail, and only that check fails,
    # until the strip is lengthened
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    code = main(["wave", *(arg for o in overrides for arg in ("--set", o))])
    checks = [line.strip() for line in capsys.readouterr().out.splitlines()
              if line.startswith("  [")]
    assert len(checks) == 3
    assert [c.removeprefix("[FAIL] ") for c in checks if c.startswith("[FAIL]")] == failed
    assert code == (1 if failed else 0)


def test_cli_planarity_requires_positive_eps(tmp_path):
    cfgfile = tmp_path / "p.ini"
    cfgfile.write_text(STABILITY_CFG.format(out=tmp_path / "pl"))
    code = main(["planarity", "--config", str(cfgfile)])
    assert code == 2  # eps = 0 invalid for planarity


def test_cli_t_end_zero_single_row_success(tmp_path):
    cfgfile = tmp_path / "t0.ini"
    cfgfile.write_text(STABILITY_CFG.format(out=tmp_path / "t0"))
    code = main(["evolve", "--config", str(cfgfile),
                 "--set", "integrator.t_end=0"])
    assert code == 0
    rows = (tmp_path / "t0" / "ledger.csv").read_text().splitlines()
    assert len(rows) == 2  # header plus the single t = 0 row


def test_cli_snapshots_written(tmp_path):
    cfgfile = tmp_path / "snap.ini"
    cfgfile.write_text(STABILITY_CFG.format(out=tmp_path / "snaps")
                       + "snapshot_every = 2\n")
    assert main(["evolve", "--config", str(cfgfile)]) == 0
    snaps = sorted((tmp_path / "snaps").glob("snapshot_psi_*.csv"))
    assert snaps
    assert snaps[0].read_text().splitlines()[0] == "z,y,value"


def test_cli_convergence_experiment(tmp_path, monkeypatch):
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    assert main(["convergence", "--set", "output.directory=conv"]) == 0
    table = (tmp_path / "conv" / "convergence.csv").read_text().splitlines()
    assert table[0] == "check,value,target_lo,target_hi,pass"
    assert all(line.endswith("True") for line in table[1:])
    # the first row refines the time loops' own diffusion solve
    assert [line.split(",")[0] for line in table[1:]] == [
        "diffusion_solve_slope", "cole_hopf_roundtrip_slope",
        "dt_refinement_ratio_imex1", "dt_refinement_ratio_sbdf2"]
    # its time runs start from the configured perturbation
    assert main(["convergence", "--set", "output.directory=conv2",
                 "--set", "init.amplitude=1e-3"]) == 0
    assert (tmp_path / "conv2" / "convergence.csv").read_text().splitlines() != table


def test_convergence_reads_and_echoes_wave_and_init_only(tmp_path, monkeypatch):
    # its grids and time runs are fixed: [grid] and [integrator] are neither
    # required nor echoed, while the [wave] and [init] it reads are required
    with pytest.raises(ConfigError) as err:
        validate_config("[grid]\n[integrator]\n", "convergence")
    assert [p for p in err.value.problems if "missing required section" in p] == [
        "missing required section [wave] for experiment 'convergence' (defaults "
        "exist but the section header must be present)",
        "missing required section [init] for experiment 'convergence' (defaults "
        "exist but the section header must be present)"]

    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    cfgfile = tmp_path / "conv.ini"
    cfgfile.write_text("[wave]\nn_minus = 1\n[init]\nseed = 0\n[output]\ndirectory = conv\n")
    assert main(["convergence", "--config", str(cfgfile)]) == 0
    echo = json.loads((tmp_path / "conv" / "manifest.json").read_text())["config"]
    sections = [line for line in echo.splitlines() if line.startswith("[")]
    assert sections == ["[wave]", "[init]", "[output]"]
    # the experiments that read every section still echo every one
    for experiment, eps in (("stability0", "0"), ("linear_eps", "0.1"), ("planarity", "0.1")):
        text = (STABILITY_CFG.format(out="x").replace("eps = 0", f"eps = {eps}")
                .replace("t_end = 1.0", "t_end = 3.0"))
        echo = serialize_config(validate_config(text, experiment))
        assert [line for line in echo.splitlines() if line.startswith("[")] == [
            "[grid]", "[wave]", "[init]", "[integrator]", "[output]"]


def test_ledger_csv_columns(tmp_path):
    cfgfile = tmp_path / "stab.ini"
    cfgfile.write_text(STABILITY_CFG.format(out=tmp_path / "cols"))
    assert main(["evolve", "--config", str(cfgfile)]) == 0
    header = (tmp_path / "cols" / "ledger.csv").read_text().splitlines()[0]
    assert header == ("t,H3w_phi,H3_psi,H2w_grad_psi,M_inst,M_sup,"
                      "D_phi,D_psi,D_psi4,Q,mass,C0_running")


def test_cli_planarity_sbdf2(tmp_path):
    cfgfile = tmp_path / "pl.ini"
    cfgfile.write_text(f"""
[grid]
n_z = 256
lambda = 0.5
n_y = 8

[wave]
eps = 0.1

[init]
amplitude = 1e-4
seed = 2
mean_zero_y = true

[integrator]
dt = 0.01
t_end = 2
fit_t_min = 0.5
fit_t_max = 2

[output]
directory = {tmp_path / "pl"}
""")
    assert main(["planarity", "--config", str(cfgfile),
                 "--set", "integrator.scheme=sbdf2"]) == 0


def test_cli_cfl_violation_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    assert main(["evolve", "--set", "integrator.dt=5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config errors:")
    assert "transport restriction" in err and "0.04399" in err
    # found once the run has started, so the manifest records it
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["exit_code"] == 2
    assert "transport restriction" in manifest["error"]


@pytest.mark.parametrize("args, code", [
    (["wave", "--set", "grid.n_z=128"], 0),
    (["evolve", "--set", "integrator.dt=5"], 2),
])
def test_manifest_records_the_environment(tmp_path, monkeypatch, args, code):
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert main(args) == code
    env = json.loads((tmp_path / "out" / "manifest.json").read_text())["environment"]
    assert set(env) == {"python", "numpy", "scipy", "cpu_count", "usable_cores", "threads",
                        "scipy_loaded", "lapack", "arithmetic"}
    assert env["python"] == ".".join(map(str, sys.version_info[:3]))
    assert env["numpy"] == np.__version__ and env["cpu_count"] == os.cpu_count()
    # read from scipy's version file, which scipy/__init__.py reads too
    assert env["scipy"] == scipy.__version__
    assert env["usable_cores"] == len(os.sched_getaffinity(0))
    assert env["threads"] == {"OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
                              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": None}
    # public subpackages only, sorted; test_cli_loads_scipy_linalg_only_to_step
    # checks which ones a command loads
    assert env["scipy_loaded"] == sorted(env["scipy_loaded"])
    assert all(m.count(".") == 1 and not m.startswith("scipy._")
               for m in env["scipy_loaded"])
    # the extension's file name, once some time loop of this process loaded it
    assert env["lapack"] is None or env["lapack"].startswith("_flapack.")
    # and the arithmetic they ran in, once some time loop of this process ran
    assert env["arithmetic"] in (None, "flushed", "ieee")


def test_usable_cores_fall_back_to_the_core_count(monkeypatch):
    # a platform without an affinity mask may use every core
    monkeypatch.delattr(os, "sched_getaffinity")
    assert stripwave.cli._usable_cores() == os.cpu_count()


ODE_STACK = ["scipy.integrate", "scipy.optimize", "scipy.interpolate"]


def _fresh_process(tmp_path, body: str, modules=ODE_STACK) -> list:
    """Run `body` in a new isolated interpreter that imports stripwave from
    this checkout; returns which of `modules` it had loaded at the end."""
    src = str(Path(stripwave.cli.__file__).resolve().parents[1])
    script = (f"import json, sys\nsys.path.insert(0, {src!r})\n{body}\n"
              f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))\n")
    env = {**os.environ, "STRIPWAVE_OUTPUT_ROOT": str(tmp_path)}
    done = subprocess.run([sys.executable, "-I", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("args, steps", [
    (["evolve", "--set", "grid.n_y=4", "--set", "integrator.t_end=0.2"], True),
    (["wave", "--set", "wave.eps=0.1"], False),
    (["linear", "--set", "wave.eps=0.1", "--set", "grid.n_y=4", "--set", "integrator.t_end=0.2"],
     True),
    (["planarity", "--set", "wave.eps=0.1", "--set", "grid.n_y=4",
      "--set", "integrator.t_end=1.2", "--set", "integrator.record_every=1"], True),
], ids=["evolve", "wave", "linear", "planarity"])
def test_no_experiment_loads_the_ode_stack(tmp_path, args, steps):
    # the KPP orbit, its front center and C need numpy alone, so no run,
    # at eps = 0 or not, imports scipy's ODE, root-finding or spline stack;
    # a run that steps loads the LAPACK extension and not scipy.linalg, and
    # its manifest says so; the manifest reads scipy's version without
    # importing scipy
    body = ("import stripwave.cli\n"
            f"assert stripwave.cli.main({[*args, '--set', 'grid.n_z=128']!r}) in (0, 1)")
    assert _fresh_process(tmp_path, body, ["scipy", *ODE_STACK, "scipy.linalg"]) == []
    env = json.loads((tmp_path / "out" / "manifest.json").read_text())["environment"]
    assert env["scipy_loaded"] == []
    assert (env["lapack"] or "").startswith("_flapack.") == steps
    with stripwave.evolve._subnormals_flushed():  # whether the flush works here
        pass
    flushes = stripwave.evolve.arithmetic() == "flushed"
    assert env["arithmetic"] == (("flushed" if flushes else "ieee") if steps else None)


def test_a_kpp_build_loads_no_scipy(tmp_path):
    body = ("from stripwave.grid import make_grid\n"
            "from stripwave.waves import WaveParams, solve_wave_kpp\n"
            "p = WaveParams(eps=0.1, n_minus=1.0, c_plus=1.0)\n"
            "solve_wave_kpp(p, make_grid(25.0 / p.s, 128, 0.5, 8, p.s))")
    assert _fresh_process(tmp_path, body, ["scipy"]) == []


@pytest.mark.parametrize("body, loaded", [
    ("import stripwave", []),
    ("import stripwave.cli", []),
    ("from stripwave.evolve import RunCounters, _ModeDiffusionSolver\n"
     "from stripwave.grid import make_grid\n"
     "_ModeDiffusionSolver(make_grid(10.0, 32, 0.5, 4, 1.0), RunCounters(), 0.1, 1.0)",
     ["scipy.linalg._flapack"]),
], ids=["stripwave", "stripwave.cli", "solver"])
def test_scipy_loads_with_the_first_diffusion_solver(tmp_path, body, loaded):
    # the solver loads the extension alone: neither scipy/__init__.py runs
    # nor scipy.linalg
    assert _fresh_process(tmp_path, body,
                          ["scipy", "scipy.linalg", "scipy.linalg._flapack"]) == loaded


def test_the_lapack_routines_are_scipy_linalgs(tmp_path):
    # a later import of scipy.linalg finds the very extension loaded, so
    # the tests' scipy oracles call the routines the stepper calls
    body = ("from stripwave.evolve import RunCounters, _ModeDiffusionSolver, _lapack\n"
            "from stripwave.grid import make_grid\n"
            "_ModeDiffusionSolver(make_grid(10.0, 32, 0.5, 4, 1.0), RunCounters(), 0.1, 1.0)\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "import scipy.linalg.lapack\n"
            "assert _lapack().dpttrf is scipy.linalg.lapack.dpttrf\n"
            "assert _lapack().zpttrs is scipy.linalg.lapack.zpttrs")
    assert _fresh_process(tmp_path, body, ["scipy.linalg"]) == ["scipy.linalg"]


@pytest.mark.parametrize("args, code, loaded", [
    (["wave"], 0, []),
    # the CFL check rejects dt before run builds a solver
    (["evolve", "--set", "grid.n_y=4", "--set", "integrator.dt=5"], 2, []),
    (["evolve", "--set", "grid.n_y=4", "--set", "integrator.t_end=0.2"], 0,
     ["scipy.linalg._flapack"]),
], ids=["wave", "evolve-cfl-rejected", "evolve"])
def test_cli_loads_scipy_linalg_only_to_step(tmp_path, args, code, loaded):
    # of scipy.linalg, only its LAPACK extension, and only to step
    args = [*args, "--set", "grid.n_z=128"]
    body = f"import stripwave.cli\nassert stripwave.cli.main({args!r}) == {code}"
    assert _fresh_process(tmp_path, body, ["scipy.linalg", "scipy.linalg._flapack"]) == loaded
    env = json.loads((tmp_path / "out" / "manifest.json").read_text())["environment"]
    assert (env["lapack"] or "").startswith("_flapack.") == bool(loaded)


def test_wave_solve_failure_exit_code(tmp_path, monkeypatch, capsys):
    def failing_solve(*args, **kwargs):
        raise WaveSolveError("phase-plane integration failed: injected", {"eps": 0.1})

    monkeypatch.setattr(stripwave.cli, "solve_wave_kpp", failing_solve)
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    assert main(["wave", "--set", "wave.eps=0.1"]) == 4
    assert "wave solve failed: phase-plane" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["exit_code"] == 4
    assert manifest["error"] == "phase-plane integration failed: injected"
    assert manifest["error_context"] == [{"eps": 0.1}]


def _sampled_w_stalls(monkeypatch):
    real = stripwave.waves._KppOrbit.evaluate

    def evaluate(self, xi):
        W, Wp, Wpp = real(self, xi)
        W[len(W) // 2] = W[len(W) // 2 - 1]  # not strictly decreasing
        return W, Wp, Wpp

    monkeypatch.setattr(stripwave.waves._KppOrbit, "evaluate", evaluate)


@pytest.mark.parametrize("fault, message", [
    (_sampled_w_stalls, "sampled W is not strictly positive decreasing"),
], ids=["sampled-w"])
def test_kpp_orbit_checks_exit_through_the_solver_code(tmp_path, monkeypatch, capsys,
                                                       fault, message):
    fault(monkeypatch)
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    assert main(["wave", "--set", "wave.eps=0.1", "--set", "grid.n_z=128"]) == 4
    assert f"wave solve failed: {message}" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert (manifest["exit_code"], manifest["error"]) == (4, message)


def _run_blowing_up_at(monkeypatch, blowup_time):
    """Patch the CLI's one `run` call so that every record it returns whose
    horizon reaches blowup_time is marked as blown up there."""
    real_run = stripwave.cli.run
    records = []

    def blows_up(*args, **kwargs):
        rec = real_run(*args, **kwargs)
        records.append(rec)
        for r in (rec, rec.head):
            if r.config.t_end >= blowup_time:
                r.blowup_time, r.blowup_reason = blowup_time, "injected"
        return rec

    monkeypatch.setattr(stripwave.cli, "run", blows_up)
    return records


def _doubled_args(tmp_path, command, overrides):
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text(STABILITY_CFG.format(out=tmp_path / "run"))
    args = [command, "--config", str(cfgfile)]
    for o in overrides:
        args += ["--set", o]
    return args


DOUBLED_COMMANDS = [
    ("evolve", []),
    ("linear", ["wave.eps=0.1", "init.mean_zero_y=true"]),
]


@pytest.mark.parametrize("command, overrides", DOUBLED_COMMANDS)
def test_doubled_horizon_blowup_exit_code(tmp_path, monkeypatch, capsys, command,
                                          overrides):
    # t = 1.5 lies past t_end = 1: only the doubled-horizon record blows up
    records = _run_blowing_up_at(monkeypatch, 1.5)
    assert main(_doubled_args(tmp_path, command, overrides)) == 3
    assert len(records) == 1 and not records[0].head.blowup
    assert "blowup at t = 1.5 in the doubled-horizon run" in capsys.readouterr().out
    assert (tmp_path / "run" / "ledger_double.csv").exists()
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["exit_code"] == 3
    assert manifest["report"]["blowup_time"] == 1.5


@pytest.mark.parametrize("command, overrides", DOUBLED_COMMANDS)
def test_blowup_before_t_end_skips_the_doubled_ledger(tmp_path, monkeypatch, capsys,
                                                       command, overrides):
    _run_blowing_up_at(monkeypatch, 0.5)
    assert main(_doubled_args(tmp_path, command, overrides)) == 3
    out = capsys.readouterr().out
    assert "blowup at t = 0.5" in out and "doubled-horizon" not in out
    assert (tmp_path / "run" / "ledger.csv").exists()
    assert not (tmp_path / "run" / "ledger_double.csv").exists()
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["exit_code"] == 3
    assert manifest["report"]["blowup_time"] == 0.5


def test_a_head_blowup_on_its_own_last_row_ends_the_loop(tmp_path, monkeypatch, capsys):
    # t_end = 0.1 is step 2, off the record_every = 3 grid, so that row is
    # the head's alone; the loop to 2 t_end would record steps 0, 3 and 4
    overrides = ["grid.n_z=128", "grid.n_y=8", "integrator.t_end=0.1"]
    probe = tmp_path / "probe"
    assert main(_doubled_args(tmp_path, "evolve", [
        *overrides, "integrator.record_every=1", f"output.directory={probe}"])) == 0
    rows = np.genfromtxt(probe / "ledger_double.csv", delimiter=",", names=True)
    m = rows["M_inst"] / rows["M_inst"][0]
    assert m[4] < m[3] < m[2]
    factor = 0.5 * (m[2] + m[3])  # the head's row at step 2 trips, no later row would
    monkeypatch.setattr("stripwave.evolve.BLOWUP_FACTOR", factor)
    capsys.readouterr()
    assert main(_doubled_args(tmp_path, "evolve", [
        *overrides, "integrator.record_every=3"])) == 3
    reason = f"energy exceeded {factor:g} x M0"
    assert capsys.readouterr().out.splitlines()[-1] == f"blowup at t = 0.1: {reason}"
    out = tmp_path / "run"
    assert not (out / "ledger_double.csv").exists()
    assert list(np.genfromtxt(out / "ledger.csv", delimiter=",", names=True)["t"]) == [0.0, 0.1]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["report"] == {"blowup_time": 0.1, "blowup_reason": reason}
    # the loop ended at the head's blowup: 2 steps and 2 rows, not 4 and 4
    assert [(c["t_end"], c["steps"], c["rows"]) for c in manifest["counters"]] == [
        (0.2, 2, 2)]


def test_manifest_counts_steps_and_rows_per_run_call(tmp_path, monkeypatch):
    cfgfile = tmp_path / "stab.ini"
    cfgfile.write_text(STABILITY_CFG.format(out=tmp_path / "ev"))
    assert main(["evolve", "--config", str(cfgfile)]) == 0
    manifest = json.loads((tmp_path / "ev" / "manifest.json").read_text())
    timings = [{key: c.pop(key) for key in ("build_s", "tendency_s", "solve_s", "row_s")}
               for c in manifest["counters"]]
    # one loop to 2 t_end = 2: 40 steps, rows at every 4th step from 0, and
    # per step one banded solve for each phi component (psi is undiffused),
    # both made by the one solver the loop factored
    assert manifest["counters"] == [{"system": "nonlinear0", "dt": 0.05, "t_end": 2.0,
                                     "steps": 40, "rows": 11, "solves": 80,
                                     "factorizations": 1,
                                     "dt_over_transport_limit": pytest.approx(
                                         0.05 / (0.9 * (100 / 511) / 0.5), rel=1e-12)}]
    assert all(isinstance(s, float) and s > 0 for t in timings for s in t.values())
    assert manifest["config"] == serialize_config(
        validate_config(cfgfile.read_text(), "stability0"))

    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    args = ["planarity"]
    for o in ("grid.n_z=128", "grid.n_y=4", "wave.eps=0.1", "grid.lambda=0.5,0.25",
              "integrator.t_end=2", "output.directory=pl"):
        args += ["--set", o]
    assert main(args) == 0
    counters = json.loads((tmp_path / "pl" / "manifest.json").read_text())["counters"]
    assert [c["pair"] for c in counters] == ["eps0.1_lam0.5", "eps0.1_lam0.25"]
    # mean-zero data is the planarity default, and the echo says so
    assert "mean_zero_y = true" in json.loads(
        (tmp_path / "pl" / "manifest.json").read_text())["config"].splitlines()
    for c in counters:
        q_rows = (tmp_path / "pl" / f"q_decay_{c['pair']}.csv").read_text().splitlines()
        assert (c["system"], c["steps"], c["rows"]) == ("nq", 100, len(q_rows) - 1)
        assert c["solves"] == 3 * c["steps"]  # a, b_z and b_y are all diffused
        assert c["tendency_s"] > 0 and c["solve_s"] > 0 and c["row_s"] > 0
    # Q falls by about e^-60 (lambda = 0.5) and e^-170 (0.25) over t = 2:
    # the thinner strip's last Q lies below the wider one's
    last_q = [float((tmp_path / "pl" / f"q_decay_{c['pair']}.csv").read_text()
                    .splitlines()[-1].split(",")[1]) for c in counters]
    assert 0.0 < last_q[1] < last_q[0]
    # each strip's curl drift, as its summary reports it
    results = json.loads((tmp_path / "pl" / "summary.json").read_text())["results"]
    assert [c["curl_max"] for c in counters] == [r["curl_max"] for r in results]

    assert main(["wave", "--set", "grid.n_z=128", "--set", "output.directory=w"]) == 0
    assert json.loads((tmp_path / "w" / "manifest.json").read_text())["counters"] == []


@pytest.mark.parametrize("command, overrides, entries", [
    ("evolve", ["integrator.t_end=0.2"], 1),
    ("planarity", ["wave.eps=0.1", "grid.lambda=0.5,0.25", "integrator.t_end=2"], 2),
])
def test_manifest_records_the_cfl_margin(tmp_path, monkeypatch, command, overrides,
                                         entries):
    # dt over the transport limit cfl_safety * dz / v_max, per time loop;
    # with two usable cores planarity's second strip runs in a forked child
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    args = [command]
    for o in ("grid.n_z=128", "grid.n_y=4", "output.directory=out", *overrides):
        args += ["--set", o]
    assert main(args) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    counters = manifest["counters"]
    assert len(counters) == entries
    assert all(0.0 < c["dt_over_transport_limit"] <= 1.0 for c in counters)
    assert [c.get("forked") for c in counters] == (
        [False, True] if command == "planarity" else [None])
    assert manifest["environment"]["usable_cores"] == 2


def test_manifest_lists_every_wave_build(tmp_path, monkeypatch):
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    real_solve = stripwave.cli.solve_wave_kpp
    built = []

    def solve(*args, **kwargs):
        built.append(real_solve(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(stripwave.cli, "solve_wave_kpp", solve)
    args = ["planarity"]
    for o in ("grid.n_z=128", "grid.n_y=4", "wave.eps=0.1", "integrator.t_end=2"):
        args += ["--set", o]
    assert main(args + ["--set", "grid.lambda=0.5,0.25", "--set", "output.directory=pl"]) == 0
    # the wave is z-only: one KPP orbit serves both strip widths
    waves = json.loads((tmp_path / "pl" / "manifest.json").read_text())["waves"]
    assert len(built) == 1 and len(waves) == 1
    wave, d = waves[0], built[0].diagnostics
    assert isinstance(wave.pop("build_s"), float)
    assert wave == {"eps": 0.1, "construction": "kpp_phase_plane", "nsteps": d["nsteps"],
                    "nfev": d["nfev"], "njev": d["njev"],
                    "ode_residual_max": d["ode_residual_max"]}
    # and the second strip's run on it is that of a sweep of its own
    assert main(args + ["--set", "grid.lambda=0.25", "--set", "output.directory=one"]) == 0
    assert ((tmp_path / "pl" / "q_decay_eps0.1_lam0.25.csv").read_bytes()
            == (tmp_path / "one" / "q_decay_eps0.1_lam0.25.csv").read_bytes())

    assert main(["evolve", "--set", "grid.n_z=128", "--set", "grid.n_y=4",
                 "--set", "integrator.t_end=0.2", "--set", "output.directory=ev"]) == 0
    waves = json.loads((tmp_path / "ev" / "manifest.json").read_text())["waves"]
    assert [w.pop("build_s") >= 0 for w in waves] == [True]
    assert waves == [{"eps": 0.0, "construction": "explicit_eps0"}]


def test_blowup_reason_reaches_stdout_and_manifest(tmp_path, monkeypatch, capsys):
    real_run = stripwave.cli.run

    def guard_trips(*args, **kwargs):
        rec = real_run(*args, **kwargs)
        rec.blowup_time, rec.blowup_reason = 0.5, "transverse energy exceeded 1e+06 x Q0"
        return rec

    monkeypatch.setattr(stripwave.cli, "run", guard_trips)
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    args = ["planarity"]
    for o in ("grid.n_z=128", "grid.n_y=4", "wave.eps=0.1", "integrator.t_end=2"):
        args += ["--set", o]
    assert main(args) == 3
    assert ("blowup at t = 0.5 for eps0.1_lam0.5: transverse energy exceeded "
            "1e+06 x Q0") in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "manifest.json").read_text())["report"]
    assert report == {"blowup_time": 0.5, "pair": "eps0.1_lam0.5",
                      "blowup_reason": "transverse energy exceeded 1e+06 x Q0"}


@pytest.mark.parametrize("command, overrides, message", [
    ("planarity", ["wave.eps=0.1,0"],
     "wave.eps must be positive for experiment 'planarity', got 0.0"),
    ("evolve", ["init.seed=-1"], "init.seed must be non-negative, got -1"),
    ("planarity", ["wave.eps=0.1", "integrator.fit_t_min=5", "integrator.fit_t_max=2"],
     "integrator.fit_t_min must be below fit_t_max = 2.0 for experiment 'planarity', "
     "got 5.0"),
    ("evolve", ["output.snapshot_every=-1"],
     "output.snapshot_every must be non-negative, got -1"),
    ("planarity", ["wave.eps=0.1", "integrator.t_end=0.5"],
     "integrator.fit_t_min must be below t_end = 0.5 for experiment 'planarity', "
     "got 1.0"),
    ("linear", ["wave.eps=0.1", "init.mean_zero_y=false"],
     "init.mean_zero_y must be true for experiment 'linear_eps', got False"),
    ("planarity", ["wave.eps=0.1", "init.mean_zero_y=false"],
     "init.mean_zero_y must be true for experiment 'planarity', got False"),
    # settings that the experiment's run would ignore
    ("evolve", ["integrator.frame=lab"],
     "integrator.frame must be moving for experiment 'stability0', got 'lab'"),
    ("evolve", ["integrator.curl_projection=true"],
     "integrator.curl_projection must be false for experiment 'stability0', got True"),
    ("linear", ["wave.eps=0.1", "integrator.frame=lab"],
     "integrator.frame must be moving for experiment 'linear_eps', got 'lab'"),
    ("linear", ["wave.eps=0.1", "integrator.curl_projection=true"],
     "integrator.curl_projection must be false for experiment 'linear_eps', got True"),
    ("planarity", ["wave.eps=0.1", "integrator.transport=central"],
     "integrator.transport must be upwind for experiment 'planarity', got 'central'"),
    ("planarity", ["wave.eps=0.1", "output.snapshot_every=2"],
     "output.snapshot_every must be 0 for experiment 'planarity', got 2"),
    ("convergence", ["wave.eps=0.1"], "wave.eps must be 0 for experiment 'convergence', got 0.1"),
    # the stepper runs in the moving frame alone
    ("planarity", ["wave.eps=0.1", "integrator.frame=lab"],
     "--set integrator.frame=lab: integrator.frame must be moving for experiment "
     "'planarity', got 'lab'"),
    ("evolve", ["init.amplitude=0"],
     "--set init.amplitude=0: init.amplitude must be positive, got 0.0"),
    # planarity alone fits a decay rate
    ("evolve", ["integrator.fit_t_min=3", "integrator.fit_t_max=7"],
     "--set integrator.fit_t_max=7: integrator.fit_t_max must be 10 for experiment "
     "'stability0', got 7.0"),
    ("linear", ["wave.eps=0.1", "integrator.fit_t_min=3"],
     "--set integrator.fit_t_min=3: integrator.fit_t_min must be 1 for experiment "
     "'linear_eps', got 3.0"),
    # a sweep list names one or more strips, each under its own {:g} tag
    ("planarity", ["wave.eps="], "--set wave.eps=: wave.eps must list one or more values, "
     "distinct at the 6 digits ({:g}) of the strip tags, got []"),
    ("planarity", ["wave.eps=0.1", "grid.lambda="],
     "--set grid.lambda=: grid.lambda must list one or more values, distinct at the 6 "
     "digits ({:g}) of the strip tags, got []"),
    ("planarity", ["wave.eps=0.1", "grid.lambda=0.5,0.5"],
     "grid.lambda must list one or more values, distinct at the 6 digits ({:g}) of the "
     "strip tags, got [0.5, 0.5]"),
    ("planarity", ["wave.eps=0.1", "grid.lambda=0.5,0.5000001"],
     "grid.lambda must list one or more values, distinct at the 6 digits ({:g}) of the "
     "strip tags, got [0.5, 0.5000001]"),
    ("planarity", ["wave.eps=0.1,0.1"],
     "--set wave.eps=0.1,0.1: wave.eps must list one or more values, distinct at the 6 "
     "digits ({:g}) of the strip tags, got [0.1, 0.1]"),
    # at eps = 0 psi has no diffusion, and central transport blows up
    ("evolve", ["integrator.transport=central"],
     "integrator.transport must be upwind for experiment 'stability0', got 'central'"),
    ("evolve", ["integrator.scheme=sbdf2", "integrator.transport=central"],
     "--set integrator.transport=central: integrator.transport must be upwind for "
     "experiment 'stability0', got 'central'"),
    # no run re-gauges q onto gradients; the key stays for configs that pin it
    ("planarity", ["wave.eps=0.1", "integrator.curl_projection=true"],
     "--set integrator.curl_projection=true: integrator.curl_projection must be false "
     "for experiment 'planarity', got True"),
    # every number must be finite, for keys with a rule of their own or none
    ("wave", ["wave.eps=inf"], "--set wave.eps=inf: wave.eps must be finite, got inf"),
    ("wave", ["wave.eps=nan"], "--set wave.eps=nan: wave.eps must be finite, got nan"),
    ("wave", ["wave.n_minus=inf"],
     "--set wave.n_minus=inf: wave.n_minus must be finite, got inf"),
    ("wave", ["grid.L_z=inf"], "--set grid.L_z=inf: grid.L_z must be finite, got inf"),
    ("evolve", ["integrator.t_end=inf"],
     "--set integrator.t_end=inf: integrator.t_end must be finite, got inf"),
    ("evolve", ["init.amplitude=inf"],
     "--set init.amplitude=inf: init.amplitude must be finite, got inf"),
    ("evolve", ["wave.N0=inf"], "--set wave.N0=inf: wave.N0 must be finite, got inf"),
    ("evolve", ["wave.c_plus=inf"],
     "--set wave.c_plus=inf: wave.c_plus must be finite, got inf"),
    ("planarity", ["wave.eps=0.1", "integrator.fit_t_max=inf"],
     "--set integrator.fit_t_max=inf: integrator.fit_t_max must be finite, got inf"),
    ("planarity", ["wave.eps=0.1,inf"],
     "--set wave.eps=0.1,inf: wave.eps must be finite, got inf"),
    # the decay fit takes 10 rows, and rows every 0.1 from 1 to 1.5 are 6
    ("planarity", ["wave.eps=0.1", "integrator.t_end=1.5"],
     "integrator.fit_t_min to fit_t_max: the fit window [1.0, 10.0] holds 6 ledger rows "
     "at dt = 0.02, record_every = 5 and t_end = 1.5; the decay fit of experiment "
     "'planarity' needs 10"),
])
def test_bad_inputs_rejected_before_compute(tmp_path, monkeypatch, capsys, command,
                                            overrides, message):
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    args = [command, "--set", "grid.n_z=64", "--set", "grid.n_y=4",
            "--set", "output.directory=run"]
    for o in overrides:
        args += ["--set", o]
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()  # exited before the output directory


def test_fit_window_rows_are_those_the_run_records():
    # planarity's window check counts rows without stepping: against every
    # row a run records (steps 0, record_every, 2 record_every, ... and the
    # last, at times i * dt), capped at the fit's 10
    cases = itertools.product((0.02, 0.1, 0.3), (0.3, 1.5, 2.0, 2.05, 6.0), (1, 3, 5),
                              (0.0, 0.9, 1.0, 1.2), (1.5, 2.0, 10.0))
    for dt, t_end, every, lo, hi in cases:
        last = stripwave.config.steps_for(dt, t_end)
        rows = [i * dt for i in range(last + 1) if i % every == 0 or i == last]
        expected = min(sum(lo <= t <= hi for t in rows), 10)
        assert stripwave.config._rows_in((lo, hi), dt, t_end, every, 10) == expected, (
            dt, t_end, every, lo, hi)


def test_an_output_directory_that_cannot_be_made_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    (tmp_path / "taken").write_text("a file")
    for directory, reason in (("taken", "File exists"), ("taken/run", "Not a directory")):
        assert main(["wave", "--set", "grid.n_z=64",
                     "--set", f"output.directory={directory}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output directory error: ") and reason in err
        assert "Traceback" not in err
    assert (tmp_path / "taken").read_text() == "a file"


# another valid value of every setting but output.directory
OTHER_VALUES = {
    "grid.L_z": "20", "grid.n_z": "96", "grid.lambda": "0.25", "grid.n_y": "6",
    "wave.eps": "0.1", "wave.n_minus": "0.5", "wave.c_plus": "2", "wave.N0": "0.5",
    "wave.tol": "1e-6", "init.amplitude": "1e-3", "init.seed": "4",
    "init.mean_zero_y": "true", "integrator.dt": "0.5", "integrator.t_end": "5",
    "integrator.scheme": "sbdf2", "integrator.record_every": "2",
    "integrator.cfl_safety": "0.5", "integrator.transport": "central",
    "integrator.frame": "lab", "integrator.curl_projection": "true",
    "integrator.fit_t_min": "2", "integrator.fit_t_max": "5",
    "output.snapshot_every": "3",
}


EVOLVE_BASE = ["grid.n_z=128", "grid.n_y=4", "grid.L_z=50", "wave.n_minus=0.25",
               "integrator.dt=0.05", "integrator.t_end=0.5"]
EVOLVE_ACCEPTED = {"grid.L_z", "grid.n_z", "grid.lambda", "grid.n_y", "wave.n_minus",
                   "wave.c_plus", "wave.N0", "wave.tol", "init.amplitude", "init.seed",
                   "init.mean_zero_y", "integrator.dt", "integrator.t_end", "integrator.scheme",
                   "integrator.record_every", "integrator.cfl_safety", "output.snapshot_every"}


@pytest.mark.parametrize("command, base, accepted, unseen", [
    # the z-only profile never meets the strip's lambda and n_y, which it
    # holds, and at eps = 0 no KPP orbit reads wave.tol
    ("wave", ["grid.n_z=64"], {"grid.L_z", "grid.n_z", "wave.eps", "wave.n_minus",
                               "wave.c_plus", "wave.N0", "wave.tol"}, {"wave.tol"}),
    # its wave is at eps = 0, so wave.tol claims nothing (README), and its
    # time runs step log-gradients of c, which the scale c_plus of c leaves alone
    ("convergence", [], {"wave.n_minus", "wave.c_plus", "wave.N0", "wave.tol",
                         "init.amplitude", "init.seed", "init.mean_zero_y"},
     {"wave.c_plus", "wave.tol"}),
    # its transport is held at upwind (psi has no diffusion at eps = 0);
    # cfl_safety moves only the dt check, and at the default N0 = s^2/c_plus
    # the scale c_plus of C leaves N and the (phi, psi) ledger alone
    ("evolve", EVOLVE_BASE, EVOLVE_ACCEPTED, {"wave.c_plus", "wave.tol", "integrator.cfl_safety"}),
    # with N0 set, N = c_plus N0 / (c_plus N0 / s^2 + e^{s z}): c_plus
    # translates the front, and every output with it
    ("evolve", EVOLVE_BASE + ["wave.N0=1"], EVOLVE_ACCEPTED,
     {"wave.tol", "integrator.cfl_safety"}),
    # its (n, q) system holds transport, frame and curl_projection, and it
    # writes no snapshots; init.mean_zero_y must keep its default, true,
    # cfl_safety moves only the dt check, and at the default N0 = s^2/c_plus
    # the log-gradient q never meets the scale c_plus of c
    ("planarity", ["grid.n_z=128", "grid.n_y=4", "grid.L_z=50", "wave.n_minus=0.25",
                   "wave.eps=0.2", "integrator.dt=0.1", "integrator.t_end=6",
                   "integrator.record_every=1"],
     {"grid.L_z", "grid.n_z", "grid.lambda", "grid.n_y", "wave.eps", "wave.n_minus",
      "wave.c_plus", "wave.N0", "wave.tol", "init.amplitude", "init.seed",
      "init.mean_zero_y", "integrator.dt", "integrator.t_end", "integrator.scheme",
      "integrator.record_every", "integrator.cfl_safety", "integrator.fit_t_min",
      "integrator.fit_t_max"},
     {"wave.c_plus", "init.mean_zero_y", "integrator.cfl_safety"}),
])
def test_every_accepted_setting_reaches_the_outputs(tmp_path, monkeypatch, capsys,
                                                    command, base, accepted, unseen):
    # a setting the experiment accepts changes its CSV or summary.json bytes,
    # bar the named few; one it holds exits 2 before the output directory
    assert set(OTHER_VALUES) == {f"{name}.{key}" for name, keys in
                                 stripwave.config._SCHEMA.items() for key in keys} - {
                                     "output.directory"}
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))

    def outputs(name, flips):
        args = [command]
        for o in base + flips + [f"output.directory={name}"]:
            args += ["--set", o]
        code = main(args)
        out = tmp_path / name
        return code, out.exists() and {p.name: p.read_bytes() for p in out.iterdir()
                                       if p.suffix == ".csv" or p.name == "summary.json"}

    code, default = outputs("default", [])
    assert code == 0 and "summary.json" in default and len(default) >= 2
    capsys.readouterr()
    for i, (setting, value) in enumerate(OTHER_VALUES.items()):
        code, files = outputs(f"flip{i}", [f"{setting}={value}"])
        err = capsys.readouterr().err
        if setting in accepted:
            assert code in (0, 1) and (files != default) == (setting not in unseen), setting
        else:
            assert code == 2 and files is False, setting
            assert f"--set {setting}={value}: {setting} must be " in err


TINY = ["grid.n_z=128", "grid.n_y=4"]

MODE_FLIPS = ["integrator.scheme=sbdf2", "integrator.transport=central",
              "integrator.frame=lab", "integrator.curl_projection=true",
              "output.snapshot_every=1"]


@pytest.mark.parametrize("command, overrides", [
    ("evolve", TINY + ["grid.L_z=50", "wave.n_minus=0.25", "integrator.dt=0.05",
                       "integrator.t_end=0.5"]),
    ("linear", TINY + ["wave.eps=0.1", "integrator.t_end=0.5"]),
    ("planarity", TINY + ["wave.eps=0.1", "integrator.t_end=0.5", "integrator.fit_t_min=0.1",
                          "integrator.record_every=1"]),
])
def test_no_accepted_mode_setting_is_ignored(tmp_path, monkeypatch, capsys, command,
                                             overrides):
    # each flip away from the default is refused before the output directory
    # exists, or changes the CSVs the run writes (snapshots included)
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))

    def csvs(name, flips):
        args = [command]
        for o in overrides + flips + [f"output.directory={name}"]:
            args += ["--set", o]
        code = main(args)
        out = tmp_path / name
        return code, out.exists() and {p.name: p.read_bytes() for p in out.glob("*.csv")}

    _, default = csvs("default", [])
    assert default
    for i, flip in enumerate(MODE_FLIPS):
        code, files = csvs(f"flip{i}", [flip])
        assert (code == 2 and files is False) or files != default, flip


@pytest.mark.parametrize("command, overrides", [
    ("wave", ["grid.n_z=128"]),
    ("evolve", TINY + ["grid.L_z=50", "wave.n_minus=0.25", "integrator.dt=0.05",
                       "integrator.t_end=1"]),
    ("linear", TINY + ["wave.eps=0.1", "integrator.t_end=1"]),
    ("planarity", TINY + ["wave.eps=0.1", "grid.lambda=0.5,0.25", "integrator.t_end=2"]),
    # on a strip of width 0.15, Q falls below the fit's 1e-290 clip after
    # t = 4.2: the window [4, 5] keeps 3 rows, no fit, a threshold failure
    ("planarity", TINY + ["wave.eps=0.1", "grid.lambda=0.15", "integrator.t_end=5",
                          "integrator.fit_t_min=4"]),
    ("convergence", []),
])
def test_verdict_reaches_stdout_summary_and_exit_code(tmp_path, monkeypatch, capsys,
                                                      command, overrides):
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    args = [command]
    for o in overrides:
        args += ["--set", o]
    code = main(args)
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "manifest.json").read_text())["report"]
    assert json.loads((tmp_path / "out" / "summary.json").read_text()) == report
    checks = report["checks"]  # key-sorted by the JSON writer
    assert checks
    verdicts = [ln for ln in out.splitlines() if ln.startswith(("  [PASS] ", "  [FAIL] "))]
    assert sorted(verdicts) == sorted(f"  [{'PASS' if ok else 'FAIL'}] {name}"
                                      for name, ok in checks.items())
    assert code == (0 if all(checks.values()) else 1)
    if "grid.lambda=0.15" in overrides:
        assert code == 1
        assert "  [FAIL] eps=0.1, lambda=0.15: fit available" in out


def test_crash_exit_code(tmp_path, monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(stripwave.cli, "run", crash)
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    assert main(["evolve", "--set", "grid.n_z=64", "--set", "grid.n_y=4"]) == 5
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: injected" in err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["exit_code"] == 5
    assert manifest["error"] == "RuntimeError: injected"


def _kpp_with_tol(tol):
    p = WaveParams(eps=0.1, n_minus=1.0, c_plus=1.0)
    return solve_wave_kpp(p, make_grid(10.0, 64, 0.5, 4, p.s), tol=tol)


@pytest.mark.parametrize("section, key, bad, construct, error", [
    ("grid", "n_y", 15, lambda v: make_grid(10.0, 64, 0.5, v, 1.0), GridError),
    ("grid", "n_z", 8, lambda v: make_grid(10.0, v, 0.5, 4, 1.0), GridError),
    ("grid", "L_z", -1.0, lambda v: make_grid(v, 64, 0.5, 4, 1.0), GridError),
    ("grid", "lambda", 0.0, lambda v: make_grid(10.0, 64, v, 4, 1.0), GridError),
    ("grid", "lambda", 3.0, lambda v: make_grid(10.0, 64, v, 4, 1.0), GridError),
    ("wave", "eps", -0.1, lambda v: WaveParams(eps=v, n_minus=1.0, c_plus=1.0),
     WaveError),
    ("wave", "n_minus", 0.0, lambda v: WaveParams(eps=0.0, n_minus=v, c_plus=1.0),
     WaveError),
    ("wave", "c_plus", 0.0, lambda v: WaveParams(eps=0.0, n_minus=1.0, c_plus=v),
     WaveError),
    ("wave", "N0", -1.0, lambda v: WaveParams(eps=0.0, n_minus=1.0, c_plus=1.0, N0=v),
     WaveError),
    ("wave", "tol", 1e-3, _kpp_with_tol, WaveError),
    ("init", "amplitude", 0.0,
     lambda v: make_initial_perturbation(make_grid(10.0, 64, 0.5, 4, 1.0), v, 0),
     TransformError),
    ("init", "seed", -1,
     lambda v: make_initial_perturbation(make_grid(10.0, 64, 0.5, 4, 1.0), 1e-4, v),
     TransformError),
    # every number must be finite, whether or not its key has a rule of its own
    ("grid", "L_z", math.inf, lambda v: make_grid(v, 64, 0.5, 4, 1.0), GridError),
    ("wave", "eps", math.inf, lambda v: WaveParams(eps=v, n_minus=1.0, c_plus=1.0),
     WaveError),
    ("wave", "n_minus", math.inf, lambda v: WaveParams(eps=0.0, n_minus=v, c_plus=1.0),
     WaveError),
    ("wave", "c_plus", math.inf, lambda v: WaveParams(eps=0.0, n_minus=1.0, c_plus=v),
     WaveError),
    ("wave", "N0", math.nan,
     lambda v: WaveParams(eps=0.0, n_minus=1.0, c_plus=1.0, N0=v), WaveError),
    ("wave", "tol", math.nan, _kpp_with_tol, WaveError),
    ("init", "amplitude", math.inf,
     lambda v: make_initial_perturbation(make_grid(10.0, 64, 0.5, 4, 1.0), v, 0),
     TransformError),
    ("integrator", "t_end", math.inf, lambda v: IntegratorConfig(dt=0.05, t_end=v),
     ConfigError),
])
def test_config_and_constructor_rules_agree(section, key, bad, construct, error):
    # wave holds [init], grid.lambda and grid.n_y at their defaults, so the
    # init and grid rules go through stability0, which reads them (and holds
    # eps at 0)
    text, experiment = ((WAVE_CFG, "wave") if section == "wave"
                        else (STABILITY_CFG.format(out="x"), "stability0"))
    with pytest.raises(ConfigError) as cfg_err:
        validate_config(text, experiment, apply_overrides([f"{section}.{key}={bad}"]))
    problem = next(p for p in cfg_err.value.problems if f"{section}.{key} must" in p)
    with pytest.raises(error) as ctor_err:
        construct(bad)
    # the same rule: the same requirement and the same offending value
    assert f"{key} must {problem.split(' must ', 1)[1]}" in str(ctor_err.value)


def test_cli_kpp_wave_experiment(tmp_path, monkeypatch, capsys):
    # the eps > 0 branch of the wave experiment, with a real KPP solve
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    assert main(["wave", "--set", "wave.eps=0.1", "--set", "grid.n_z=256"]) == 0
    out = capsys.readouterr().out
    for check in ("ODE residual below 1e-4", "right tail rate within 2% of -s",
                  "left tail rate within 2% of the manifold exponent"):
        assert f"  [PASS] {check}\n" in out
    meta = json.loads((tmp_path / "out" / "wave_metadata.json").read_text())
    assert meta["solver"] == "Radau IIA"
    assert all(type(meta[key]) is int for key in ("nfev", "njev", "nsteps"))


def test_cli_prints_config_warnings_before_the_title(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    # evolve reads grid.lambda; wave holds it
    args = ["evolve"]
    for o in TINY + ["grid.lambda=1.5", "grid.L_z=50", "wave.n_minus=0.25",
                     "integrator.dt=0.05", "integrator.t_end=1"]:
        args += ["--set", o]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("warning: grid.lambda = 1.5 > 1: ")
    assert lines[1] == "stability0 experiment"


@pytest.mark.parametrize("text, experiment, problem", [
    (WAVE_CFG + "[init]\nmean_zero_y = maybe\n", "wave",
     "line 12: bad value for init.mean_zero_y: not a boolean: 'maybe'"),
    (WAVE_CFG + "n_minus\n", "wave", "line 11: expected 'key = value', got 'n_minus'"),
    (WAVE_CFG + "c_plus = 2.0\n", "wave", "line 11: duplicate key 'c_plus' in [wave]"),
    (WAVE_CFG, "stability", "unknown experiment 'stability'; expected one of wave, "
     "stability0, linear_eps, planarity, convergence"),
])
def test_config_diagnostics_name_their_line(text, experiment, problem):
    with pytest.raises(ConfigError) as err:
        validate_config(text, experiment)
    assert problem in err.value.problems


def test_json_dump_rejects_what_json_cannot_hold(tmp_path):
    with pytest.raises(TypeError, match="not JSON serializable: <class 'object'>"):
        stripwave.cli._json_dump({"x": object()}, tmp_path / "x.json")


def test_positive_window_without_a_positive_sample_is_empty():
    # Q underflowed from the first row on: no sample to fit
    assert stripwave.cli._positive_window([0.0, 0.5, 1.0], [1e-300, 0.0, 0.0],
                                          1.0, 10.0) == (1.0, 1.0)


def test_kpp_integration_failure_exit_code(tmp_path, monkeypatch, capsys):
    # the orbit integration reports failure: exit 4 with its message
    import stripwave.waves

    real_solve_ivp = stripwave.waves.solve_ivp

    def failing(*args, **kwargs):
        sol = real_solve_ivp(*args, **kwargs)
        sol.success, sol.message = False, "injected"
        return sol

    monkeypatch.setattr(stripwave.waves, "solve_ivp", failing)
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path))
    assert main(["linear", "--set", "wave.eps=0.1", "--set", "grid.n_z=128",
                 "--set", "grid.n_y=4"]) == 4
    assert "wave solve failed: phase-plane integration failed: injected" in (
        capsys.readouterr().err)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["exit_code"] == 4
    assert manifest["error"] == "phase-plane integration failed: injected"
    assert manifest["counters"] == []


# ---------------------------------------------------------------------------
# planarity's strips at once: the second strip runs in a forked child
# ---------------------------------------------------------------------------

SWEEP = TINY + ["wave.eps=0.1", "grid.lambda=0.5,0.25", "integrator.t_end=2"]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _sweep(tmp_path, monkeypatch, capsys, cores: int):
    """A planarity sweep over two strips with `cores` usable cores: its exit
    code, stdout, stderr and output directory."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setenv("STRIPWAVE_OUTPUT_ROOT", str(tmp_path / f"cores{cores}"))
    args = ["planarity"]
    for o in SWEEP:
        args += ["--set", o]
    code = main(args)
    out, err = capsys.readouterr()
    _no_child_left()
    return code, out, err, tmp_path / f"cores{cores}" / "out"


def _untimed_manifest(outdir: Path) -> dict:
    """The manifest without its timings (`*_s`) and without the keys that
    say how the strips ran (`usable_cores`, `forked`)."""
    def untimed(value):
        if isinstance(value, dict):
            return {k: untimed(v) for k, v in value.items()
                    if not k.endswith("_s") and k not in ("usable_cores", "forked")}
        if isinstance(value, list):
            return [untimed(v) for v in value]
        return value

    return untimed(json.loads((outdir / "manifest.json").read_text()))


def test_forked_strips_give_the_sequential_outputs(tmp_path, monkeypatch, capsys):
    one = _sweep(tmp_path, monkeypatch, capsys, 1)
    two = _sweep(tmp_path, monkeypatch, capsys, 2)
    assert one[:3] == two[:3] and one[0] == 0
    names = sorted(p.name for p in one[3].iterdir())
    assert names == sorted(p.name for p in two[3].iterdir()) == [
        "manifest.json", "q_decay_eps0.1_lam0.25.csv", "q_decay_eps0.1_lam0.5.csv",
        "summary.json"]
    for name in names[1:]:
        assert (one[3] / name).read_bytes() == (two[3] / name).read_bytes()
    assert _untimed_manifest(one[3]) == _untimed_manifest(two[3])
    forked = [[c["forked"] for c in json.loads((run[3] / "manifest.json").read_text())
               ["counters"]] for run in (one, two)]
    assert forked == [[False, False], [False, True]]


@pytest.mark.parametrize("lam, written", [(0.25, 2), (0.5, 1)], ids=["child", "parent"])
def test_a_strip_blowup_ends_the_sweep_as_in_sequence(tmp_path, monkeypatch, capsys,
                                                      lam, written):
    # a blowup in the child's strip is reported at its turn, as in sequence;
    # one in the parent's strip ends the run before the child's CSV
    real_run = stripwave.cli.run

    def blows_up(system, init, profile, config, **kwargs):
        rec = real_run(system, init, profile, config, **kwargs)
        if profile.grid.lam == lam:
            rec.blowup_time, rec.blowup_reason = 0.5, "injected"
        return rec

    monkeypatch.setattr(stripwave.cli, "run", blows_up)
    runs = [_sweep(tmp_path, monkeypatch, capsys, cores) for cores in (1, 2)]
    (code, out, err, one), (_, _, _, two) = runs
    assert runs[0][:3] == runs[1][:3] and code == 3
    assert out.splitlines()[-1] == f"blowup at t = 0.5 for eps0.1_lam{lam:g}: injected"
    for outdir in (one, two):
        assert len(list(outdir.glob("q_decay_*.csv"))) == written
        assert not (outdir / "summary.json").exists()
    assert _untimed_manifest(one) == _untimed_manifest(two)
    assert _untimed_manifest(two)["report"] == {
        "blowup_time": 0.5, "blowup_reason": "injected", "pair": f"eps0.1_lam{lam:g}"}


@pytest.mark.parametrize("error, code", [
    (RuntimeError("injected"), 5),
    # its __init__ takes two arguments and formats them into one
    (IntegratorBlowup("non-finite values in a", 0.5), 5),
    (ConfigError(["injected problem"]), 2),
], ids=["RuntimeError", "IntegratorBlowup", "ConfigError"])
def test_an_exception_in_the_child_is_raised_at_its_turn(tmp_path, monkeypatch, capsys,
                                                         error, code):
    real_run = stripwave.cli.run

    def raises(system, init, profile, config, **kwargs):
        if profile.grid.lam == 0.25:
            raise error
        return real_run(system, init, profile, config, **kwargs)

    monkeypatch.setattr(stripwave.cli, "run", raises)
    one = _sweep(tmp_path, monkeypatch, capsys, 1)
    two = _sweep(tmp_path, monkeypatch, capsys, 2)
    assert one[0] == two[0] == code and one[1] == two[1]
    assert _untimed_manifest(one[3]) == _untimed_manifest(two[3])
    manifest = json.loads((two[3] / "manifest.json").read_text())
    if code == 2:
        assert manifest["error"] == "injected problem"
        assert one[2] == two[2] == "config errors:\n  injected problem\n"
    else:
        assert manifest["error"] == f"{type(error).__name__}: {error}"
        # the child's traceback comes with the parent's
        assert f"{type(error).__name__}: {error}" in two[2]
        assert "raised in the child process that ran eps0.1_lam0.25:" in two[2]
    assert [c["pair"] for c in manifest["counters"]] == ["eps0.1_lam0.5"]


def test_a_killed_child_is_named_with_its_signal(tmp_path, monkeypatch, capsys):
    real_run = stripwave.cli.run
    parent = os.getpid()

    def killed(system, init, profile, config, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_run(system, init, profile, config, **kwargs)

    monkeypatch.setattr(stripwave.cli, "run", killed)
    code, _, err, outdir = _sweep(tmp_path, monkeypatch, capsys, 2)
    assert code == 5
    message = ("RuntimeError: the child process that ran eps0.1_lam0.25 was killed by "
               "signal 9 (SIGKILL) without a result")
    assert message in err
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["exit_code"] == 5 and manifest["error"] == message


def test_child_warnings_reach_stderr_once_in_strip_order(tmp_path, monkeypatch, capsys):
    real_run = stripwave.cli.run

    def warns(system, init, profile, config, **kwargs):
        warnings.warn(f"strip {profile.grid.lam:g}")
        warnings.warn("every strip")  # shown once, for the first strip
        return real_run(system, init, profile, config, **kwargs)

    monkeypatch.setattr(stripwave.cli, "run", warns)
    monkeypatch.setattr(warnings, "showwarning",
                        lambda message, category, *args, **kwargs:
                        print(f"{category.__name__}: {message}", file=sys.stderr))
    one = _sweep(tmp_path, monkeypatch, capsys, 1)
    two = _sweep(tmp_path, monkeypatch, capsys, 2)
    assert one[:3] == two[:3] and one[0] == 0
    assert two[2].splitlines() == ["UserWarning: strip 0.5", "UserWarning: every strip",
                                   "UserWarning: strip 0.25"]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc/<pid>/stat")
def test_a_child_exits_when_its_parent_dies(tmp_path):
    # kill a planarity CLI mid-sweep: its forked child must not outlive it
    pids = tmp_path / "forked.txt"
    args = ["planarity"]
    for o in (*TINY, "wave.eps=0.1", "grid.lambda=0.5,0.25", "integrator.t_end=1000",
              "integrator.record_every=1000", "integrator.fit_t_min=20",
              "integrator.fit_t_max=200"):
        args += ["--set", o]
    src = str(Path(stripwave.cli.__file__).resolve().parents[1])
    script = (f"import os, sys\nsys.path.insert(0, {src!r})\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "fork = os.fork\n"
              "def noted_fork():\n"
              "    pid = fork()\n"
              "    if pid:\n"
              f"        with open({str(pids)!r}, 'a') as f:\n"
              "            f.write(f'{pid}\\n')\n"
              "    return pid\n"
              "os.fork = noted_fork\n"
              "import stripwave.cli\n"
              f"stripwave.cli.main({args!r})\n")
    env = {**os.environ, "STRIPWAVE_OUTPUT_ROOT": str(tmp_path)}
    proc = subprocess.Popen([sys.executable, "-I", "-c", script], cwd=tmp_path, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while not (pids.exists() and pids.read_text().endswith("\n")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child = int(pids.read_text())
        assert _running(child)
    finally:
        proc.kill()
        proc.wait()

    deadline = time.monotonic() + 5
    while _running(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    orphaned = _running(child)
    if orphaned:
        os.kill(child, signal.SIGKILL)
    assert not orphaned
    _no_child_left()


def _running(pid: int) -> bool:
    """Whether process `pid` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")
