import ast
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SNIPPET = '''"""Module docstring
on two lines."""

# a comment
x = 1  # a trailing comment


def f(a):
    """One-line docstring."""
    return (a +
            1)
'''


def test_code_lines_leaves_out_docstrings_comments_and_blanks(tmp_path):
    module = tmp_path / "snippet.py"
    module.write_text(SNIPPET)
    tool = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    out = subprocess.run([sys.executable, str(tool), str(module), str(module)],
                         capture_output=True, text=True, check=True).stdout
    # code: x = 1, def f(a) and the two lines of the return; docstrings 2 + 1
    assert out.splitlines() == ["code docstring module", f"   4         3 {module}",
                                f"   4         3 {module}", "   8         6 total"]


def _compare(old, new):
    tool = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
    return subprocess.run([sys.executable, str(tool), str(old), str(new)],
                          capture_output=True, text=True)


def _tree(root, q="1.0", solve_s=0.5):
    (root / "run").mkdir(parents=True)
    (root / "run" / "ledger.csv").write_text(f"t,M_inst,Q\n0.0,2.0,{q}\n0.5,1.5,0.25\n")
    manifest = {"counters": [{"solves": 30, "solve_s": solve_s}], "wall_clock_s": solve_s}
    (root / "run" / "manifest.json").write_text(json.dumps(manifest))
    return root


def test_compare_outputs_names_what_differs(tmp_path):
    old = _tree(tmp_path / "old")
    assert _compare(old, _tree(tmp_path / "same")).returncode == 0
    # the timings may differ, nothing else
    assert _compare(old, _tree(tmp_path / "timed", solve_s=0.75)).returncode == 0

    ulp = _compare(old, _tree(tmp_path / "ulp", q=repr(math.nextafter(1.0, 2.0))))
    assert ulp.returncode == 1
    assert ulp.stdout.splitlines() == [
        "run/ledger.csv: differs",
        "  Q: 1 of 2 rows differ, the first at line 2: 1.0 -> 1.0000000000000002; "
        "max relative difference 2.22e-16"]

    missing = _tree(tmp_path / "missing")
    (missing / "run" / "ledger.csv").unlink()
    done = _compare(old, missing)
    assert done.returncode == 1 and "run/ledger.csv: only in" in done.stdout


def test_compare_outputs_counts_the_csv_rows_that_differ(tmp_path):
    # Q's tail turns from subnormal to 0 on lines 3 and 4, and mass differs
    # on line 3 in its text alone, which is no difference
    for name, q, mass in (("old", ["2.5e-300", "2.6e-309", "1.5e-322"], "1.0"),
                          ("new", ["2.5e-300", "0", "0"], "1")):
        (tmp_path / name).mkdir()
        rows = "".join(f"{t},{v},{mass if t == 1 else 1.0}\n" for t, v in enumerate(q))
        (tmp_path / name / "q_decay.csv").write_text("t,Q,mass\n" + rows)
    done = _compare(tmp_path / "old", tmp_path / "new")
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "q_decay.csv: differs",
        "  Q: 2 of 3 rows differ, the first at line 3: 2.6e-309 -> 0; "
        "max relative difference 1"]


def test_compare_outputs_names_the_json_values_that_differ(tmp_path):
    def tree(name, steps, config, rates):
        (tmp_path / name).mkdir()
        manifest = {"counters": [{"steps": steps, "solve_s": steps / 10}],
                    "config": config, "rates": rates, "fit": float("nan")}
        (tmp_path / name / "manifest.json").write_text(json.dumps(manifest))
        return tmp_path / name

    old = tree("old", 4, "[integrator]\nframe = moving\n", list(range(12)))
    # NaN equals NaN, and the timings are left out
    assert _compare(old, tree("same", 4, "[integrator]\nframe = moving\n", list(range(12)))).returncode == 0
    done = _compare(old, tree("new", 2, "[integrator]\nframe = lab\n", list(range(1, 16))))
    assert done.returncode == 1
    # 17 values differ: the config's second line, the steps, rates[0] to [11], and rates[12]
    # to [14], which the old list lacks; the first 10 are named
    assert done.stdout.splitlines() == [
        "manifest.json: differs outside the *_s timings",
        '  config[1]: "frame = moving" -> "frame = lab"', "  counters[0].steps: 4 -> 2",
        *(f"  rates[{i}]: {i} -> {i + 1}" for i in range(8)), "  and 7 more"]
    longer = _compare(old, tree("longer", 4, "[integrator]\nframe = moving\n", list(range(13))))
    assert longer.stdout.splitlines()[1:] == ["  rates[12]: absent -> 12"]


def _line_coverage(tmp_path, module: str, test: str) -> list:
    """The tool's listing for src/mod.py holding `module`, run by test_mod.py
    holding `test`."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(module)
    (tmp_path / "test_mod.py").write_text(test)
    tool = Path(__file__).resolve().parents[1] / "tools" / "line_coverage.py"
    done = subprocess.run(
        [sys.executable, str(tool), "src", "test_mod.py", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path / "src")},
        capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout.split("statements never run, per module:\n")[1].splitlines()


def test_line_coverage_names_the_branch_its_test_never_takes(tmp_path):
    report = _line_coverage(
        tmp_path,
        '"""A module."""\n\n\ndef sign(x):\n    """Sign of x."""\n'
        "    if x < 0:\n        return -1\n    return 1\n",
        "from mod import sign\n\n\ndef test_positive():\n    assert sign(2) == 1\n")
    # only line 7 never ran: neither the docstrings nor the def line count
    assert report == ["    1 mod.py", "      7: return -1", "    1 total"]


def test_line_coverage_counts_the_lines_a_forked_child_runs(tmp_path):
    report = _line_coverage(
        tmp_path,
        "import os\n\n\ndef in_child():\n    pid = os.fork()\n    if pid == 0:\n"
        "        status = 3\n        os._exit(status)\n"
        "    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])\n",
        "from mod import in_child\n\n\ndef test_child():\n    assert in_child() == 3\n")
    # lines 7 and 8 run only in the child, which hands them back at os._exit
    assert report == ["    0 mod.py", "    0 total"]


def test_line_coverage_survives_a_child_killed_while_handing_back(tmp_path):
    report = _line_coverage(
        tmp_path,
        "import os\nimport pickle\nimport signal\n\n\ndef killed():\n"
        "    pid = os.fork()\n    if pid == 0:\n"
        "        pickle.dump = lambda *args: os.kill(os.getpid(), signal.SIGKILL)\n"
        "        os._exit(0)\n"
        "    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])\n",
        "import signal\n\nfrom mod import killed\n\n\n"
        "def test_killed():\n    assert killed() == -signal.SIGKILL\n")
    # the child dies inside its hand-off, so its two lines are lost, not the report
    assert report == ["    2 mod.py",
                      "      9: pickle.dump = lambda *args: os.kill(os.getpid(), signal.SIGKILL)",
                      "      10: os._exit(0)", "    2 total"]


def _unnamed_definitions(package: Path) -> list:
    """The module-level functions and classes of the package's modules
    (not __init__: an export alone runs nothing) that no code of the package
    names, as an ast.Name or ast.Attribute, outside their own bodies.  The
    scan repeats without the bodies found so far, so a helper named only by
    another such helper is found as well."""
    statements, names = [], []
    for path in sorted(package.glob("*.py")):
        if path.name != "__init__.py":
            for node in ast.parse(path.read_text()).body:
                statements.append((path.stem, node))
                names.append({n.id if isinstance(n, ast.Name) else n.attr
                              for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))})
    defined = [i for i, (_, node) in enumerate(statements)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    found = set()
    while True:
        new = set()
        for i in set(defined) - found:
            elsewhere = (names[j] for j in range(len(names)) if j != i and j not in found)
            if not any(statements[i][1].name in n for n in elsewhere):
                new.add(i)
        if not new:
            return sorted(f"{statements[i][0]}.{statements[i][1].name}" for i in found)
        found |= new


def test_the_package_names_every_definition_it_holds():
    # a definition that only tests or exports reach belongs in the tests
    package = Path(__file__).resolve().parents[1] / "src" / "stripwave"
    assert _unnamed_definitions(package) == []


def test_no_module_names_the_ode_stack():
    # the KPP wave needs numpy alone; the package's one scipy is the LAPACK
    # extension the stepper loads from its file, so that no run pays the
    # import of these three
    package = Path(__file__).resolve().parents[1] / "src" / "stripwave"
    stack = ("scipy.integrate", "scipy.optimize", "scipy.interpolate")
    assert [f"{path.name}: {name}" for path in sorted(package.glob("*.py"))
            for name in stack if name in path.read_text()] == []


def _unused_imports(source: str) -> list:
    """The names that a module's imports bind (`import a.b` binds a) and no
    ast.Name of the module reads; `from __future__ import ...` binds none."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for name in (a.asname or a.name.split(".")[0] for a in node.names)
            if name not in read]


def _scipy_linalg_imports(source: str) -> list:
    """What a module's import statements import from scipy.linalg or below,
    as dotted names (`from a import b` imports a.b)."""
    return [name for node in ast.walk(ast.parse(source))
            for name in ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [f"{node.module}.{a.name}" for a in node.names]
                         if isinstance(node, ast.ImportFrom) and not node.level else [])
            if f"{name}.".startswith("scipy.linalg.")]


def test_no_module_imports_scipy_linalg():
    # the stepper loads only LAPACK's extension file (evolve._lapack): an
    # import of scipy.linalg would bring back its 85 modules and 25 MB
    assert _scipy_linalg_imports("import scipy, scipy.linalg.lapack as la\n"
                                 "from scipy.linalg import lu\nfrom scipy import linalg\n"
                                 "from . import linalg\n\n\ndef f():\n"
                                 "    from scipy.linalg._flapack import dpttrf\n") == [
        "scipy.linalg.lapack", "scipy.linalg.lu", "scipy.linalg",
        "scipy.linalg._flapack.dpttrf"]
    package = Path(__file__).resolve().parents[1] / "src" / "stripwave"
    assert [f"{path.name}: {name}" for path in sorted(package.glob("*.py"))
            for name in _scipy_linalg_imports(path.read_text())] == []


def test_no_module_imports_a_name_it_never_uses():
    assert _unused_imports("from __future__ import annotations\nimport os.path\n"
                           "from math import pi, tau as turn\n\n\ndef f():\n"
                           "    import json\n    return os.sep, turn\n") == ["pi", "json"]
    root = Path(__file__).resolve().parents[1]
    modules = [*(root / "src" / "stripwave").glob("*.py"), *(root / "tests").glob("*.py"),
               *(root / "tools").glob("*.py")]
    unused = {f"{path.relative_to(root)}: {name}" for path in modules
              if path.name != "__init__.py" for name in _unused_imports(path.read_text())}
    assert sorted(unused) == []


# benchmarks/workloads/<name>.ini -> the experiment it runs
WORKLOAD_EXPERIMENTS = {"stability0": "stability0", "planarity": "planarity",
                        "linear_small_eps": "linear_eps"}


def test_pinned_workloads_parse_and_echo_as_pinned(monkeypatch):
    # the benchmark compares each manifest's config echo with its pinned
    # file: every workload, keys kept only for the pins (integrator.frame,
    # integrator.curl_projection) among them, must validate for its
    # experiment and echo back as pinned; no compute
    from stripwave.config import serialize_config, validate_config

    bench = Path(__file__).resolve().parents[1] / "benchmarks"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_stripwave_bench_pinned",
                                                  bench / "pinned.py")
    pinned = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pinned)
    workloads = sorted(p.stem for p in pinned.WORKLOAD_DIR.glob("*.ini"))
    assert workloads == sorted(WORKLOAD_EXPERIMENTS)
    for workload in workloads:
        text = (pinned.WORKLOAD_DIR / f"{workload}.ini").read_text()
        cfg = validate_config(text, WORKLOAD_EXPERIMENTS[workload])
        assert pinned.config_mismatches(pinned.load(workload), serialize_config(cfg)) == []
