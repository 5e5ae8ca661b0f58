"""Experiment configuration: strict INI-style parsing and `--set` overrides.

Format: flat `key = value` pairs under [section] headers, with `--set
section.key=value` overrides merged over them.  Unknown sections or keys are
rejected, every problem is led by the origin of the entry it concerns (its
line, or its override), and a parsed configuration serializes back to
canonical text that re-parses to an identical configuration (diff-friendly
for experiment sweeps).

Every input rule is stated once, in _RULES; check_rules applies it to a
config before any compute and to each library constructor's arguments.  Each
experiment holds at their defaults the settings its run never reads
(EXPERIMENTS, _held).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# allowed values of the integrator's named choices
INTEGRATOR_CHOICES = {
    "scheme": ("imex1", "sbdf2"),
    "transport": ("upwind", "central"),
}


class ConfigError(ValueError):
    """Carries the full list of problems, each led by its origin."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float_list(s: str) -> tuple:
    return tuple(float(p) for p in s.split(",") if p.strip())


# schema: section -> key -> (converter, default)
_SCHEMA = {
    "grid": {
        "L_z": (float, None),          # None: derived as 25/s at build time
        "n_z": (int, 1024),
        "lambda": (_parse_float_list, (0.5,)),
        "n_y": (int, 16),
    },
    "wave": {
        "eps": (_parse_float_list, (0.0,)),
        "n_minus": (float, 1.0),
        "c_plus": (float, 1.0),
        "N0": (float, None),
        "tol": (float, 1e-10),
    },
    "init": {
        "amplitude": (float, 1e-4),
        "seed": (int, 0),
        "mean_zero_y": (_parse_bool, None),  # None: derived from the experiment
    },
    "integrator": {
        "dt": (float, 0.02),
        "t_end": (float, 10.0),
        "scheme": (str, "imex1"),
        "record_every": (int, 5),
        "cfl_safety": (float, 0.9),
        "transport": (str, "upwind"),
        # the stepper runs in the moving frame alone; the key stays because
        # the benchmark's pinned workloads set it, and _held holds it there
        "frame": (str, "moving"),
        "curl_projection": (_parse_bool, False),
        "fit_t_min": (float, 1.0),
        "fit_t_max": (float, 10.0),
    },
    "output": {
        "directory": (str, "out"),
        "snapshot_every": (int, 0),
    },
}
SECTIONS = tuple(_SCHEMA)


_POSITIVE = (lambda v: v > 0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")

# (section, key) -> (ok, requirement), the one definition of each input rule:
# a value v breaks it when ok(v) is false ("<key> <requirement>, got v")
_RULES = {
    ("grid", "L_z"): _POSITIVE,
    ("grid", "n_z"): (lambda v: v >= 16, "must be >= 16"),
    ("grid", "lambda"): (lambda v: 0 < v <= 2, "must lie in (0, 2]"),
    ("grid", "n_y"): (lambda v: v >= 4 and v % 2 == 0,
                      "must be even and >= 4 (periodic spectral axis)"),
    ("wave", "eps"): _NON_NEGATIVE,
    **{("wave", key): _POSITIVE for key in ("n_minus", "c_plus", "N0")},
    ("wave", "tol"): (lambda v: 0 < v <= 1e-4, "must lie in (0, 1e-4]"),
    ("init", "amplitude"): _POSITIVE,
    ("init", "seed"): _NON_NEGATIVE,
    ("integrator", "dt"): _POSITIVE,
    ("integrator", "t_end"): _NON_NEGATIVE,
    ("integrator", "cfl_safety"): (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    ("integrator", "record_every"): (lambda v: v >= 1, "must be >= 1"),
    **{("integrator", key): (allowed.__contains__, f"must be {' or '.join(allowed)}")
       for key, allowed in INTEGRATOR_CHOICES.items()},
    ("output", "snapshot_every"): _NON_NEGATIVE,
}

_MEAN_ZERO = {("init", "mean_zero_y"): (bool, "must be true")}

# experiment -> (required sections: those it reads besides output.directory,
# whether eps and lambda may be sweep lists, the rules it adds to _RULES, the
# 'section.key' prefixes of the settings its run never reads).  Such a rule
# replaces, and so must imply, that of _RULES for its key, and its
# requirement is stated "for experiment '<name>'".  _held holds at its
# default each key that a prefix names, integrator.frame (which no run
# reads) and every key of a section the experiment does not require, but
# output.directory.  init.mean_zero_y is derived where [init] is read: it
# defaults to whether the experiment holds the mean-zero rule.
EXPERIMENTS = {
    # its profile is z-only: no output depends on the strip's width or n_y
    "wave": (("grid", "wave"), False, {}, ("grid.lambda", "grid.n_y")),
    "stability0": (SECTIONS, False, {},
                   ("wave.eps", "integrator.curl_projection", "integrator.fit_t_")),
    "linear_eps": (SECTIONS, False, {("wave", "eps"): _POSITIVE, **_MEAN_ZERO},
                   ("integrator.curl_projection", "integrator.fit_t_")),
    # planarity alone reads curl_projection (its (n, q) system) and the fit
    # window; it has no transport stencil and writes no snapshots
    "planarity": (SECTIONS, True, {("wave", "eps"): _POSITIVE, **_MEAN_ZERO},
                  ("integrator.transport", "output.snapshot_every")),
    # its grids and time runs are fixed; it reads the [wave] at eps = 0 and
    # the [init]
    "convergence": (("wave", "init"), False, {}, ("wave.eps",)),
}


def _held(experiment: str) -> dict:
    """The rules that hold at its default each setting the run of
    `experiment` never reads (EXPERIMENTS).  check_rules passes them each
    element of a sweep list, which (v,) compares with a one-value default."""
    required, _, _, prefixes = EXPERIMENTS[experiment]
    prefixes += ("integrator.frame", *(f"{name}." for name in SECTIONS if name not in required))
    return {(name, key): (lambda v, d=default: v == d or (v,) == d,
                          f"must be {'unset' if default is None else _format_value(default)}")
            for name, schema in _SCHEMA.items() for key, (_, default) in schema.items()
            if f"{name}.{key}".startswith(prefixes) and f"{name}.{key}" != "output.directory"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration for one experiment run."""

    experiment: str
    grid: dict = field(default_factory=dict)
    wave: dict = field(default_factory=dict)
    init: dict = field(default_factory=dict)
    integrator: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    warnings: tuple = ()

    @property
    def eps_values(self) -> tuple:
        return self.wave["eps"]

    @property
    def lambda_values(self) -> tuple:
        return self.grid["lambda"]


def parse_raw(text: str):
    """Parse INI text into {section: {key: (raw_value, "line N")}}."""
    problems = []
    sections: dict = {}
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                problems.append(f"line {ln}: unknown section [{current}]")
                current = None
                continue
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            problems.append(f"line {ln}: expected 'key = value', got {line!r}")
            continue
        if current is None:
            problems.append(f"line {ln}: key outside of any [section]")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in sections[current]:
            problems.append(f"line {ln}: duplicate key {key!r} in [{current}]")
            continue
        sections[current][key] = (value, f"line {ln}")
    return sections, problems


def check_rules(section: str, values: dict, label=str, error=None,
                rules=_RULES) -> list:
    """Every rule of rules that values (key -> value) break; a tuple (a sweep
    list) is checked per element, None (a derived value) is skipped.  label(key)
    names each offender; error, when given, is raised with the problems."""
    problems = []
    for key, value in values.items():
        if (section, key) in rules:
            ok, requirement = rules[section, key]
            problems.extend(
                f"{label(key)} {requirement}, "
                f"got {repr(v) if isinstance(v, str) else v}"
                for v in (value if isinstance(value, tuple) else (value,))
                if v is not None and not ok(v))
    if error and problems:
        raise error("; ".join(problems))
    return problems


def validate_config(text: str, experiment: str, overrides=None) -> ExperimentConfig:
    """Strict validation; raises ConfigError listing every problem found.

    The entries of `overrides` (apply_overrides' result) replace or join
    those parsed from the text, and each problem is led by the origin of the
    entry it concerns: 'line N' of the text or '--set <override>'."""
    if experiment not in EXPERIMENTS:
        raise ConfigError([f"unknown experiment {experiment!r}; "
                           f"expected one of {', '.join(EXPERIMENTS)}"])
    sections, problems = parse_raw(text)
    for name, entries in (overrides or {}).items():
        sections.setdefault(name, {}).update(entries)

    values: dict = {}
    for name, schema in _SCHEMA.items():
        out = {}
        present = sections.get(name, {})
        for key, (raw, origin) in present.items():
            if key not in schema:
                problems.append(f"{origin}: unknown key {key!r} in [{name}]")
                continue
            conv, _ = schema[key]
            try:
                out[key] = conv(raw)
            except ValueError as exc:
                problems.append(f"{origin}: bad value for {name}.{key}: {exc}")
        for key, (conv, default) in schema.items():
            out.setdefault(key, default)
        values[name] = out

    required, sweep, own, _ = EXPERIMENTS[experiment]
    if "init" in required and values["init"]["mean_zero_y"] is None:
        values["init"]["mean_zero_y"] = ("init", "mean_zero_y") in own
    for name in required:
        if name not in sections:
            problems.append(f"missing required section [{name}] for "
                            f"experiment {experiment!r} (defaults exist but the "
                            "section header must be present)")

    def at(name: str, key: str) -> str:
        """'name.key', led by its origin when an entry sets it."""
        entry = sections.get(name, {}).get(key)
        return f"{entry[1]}: {name}.{key}" if entry else f"{name}.{key}"

    warnings_list = []
    gv, wv = values["grid"], values["wave"]
    for name, key, vals in (("grid", "lambda", gv["lambda"]), ("wave", "eps", wv["eps"])):
        if not sweep and len(vals) != 1:
            problems.append(f"{at(name, key)} must be a single value for "
                            f"experiment {experiment!r}, got {len(vals)}")
        elif not vals or len({f"{v:g}" for v in vals}) < len(vals):
            problems.append(f"{at(name, key)} must list one or more values, distinct "
                            f"at the 6 digits ({{:g}}) of the strip tags, got {list(vals)}")
    rules = {**_RULES, **{key: (ok, f"{requirement} for experiment {experiment!r}")
                          for key, (ok, requirement) in {**own, **_held(experiment)}.items()}}
    for name, vals in values.items():
        problems.extend(check_rules(name, vals, lambda key, name=name: at(name, key),
                                    rules=rules))
    fit = values["integrator"]
    if experiment == "planarity":  # only planarity reads the fit window
        for bound in ("fit_t_max", "t_end"):
            if not fit["fit_t_min"] < fit[bound]:
                problems.append(f"{at('integrator', 'fit_t_min')} must be below {bound} = "
                                f"{fit[bound]} for experiment 'planarity', "
                                f"got {fit['fit_t_min']}")
    for lam in gv["lambda"]:
        if lam > 1.0:
            warnings_list.append(f"grid.lambda = {lam} > 1: the stability theory "
                                 "assumes a thin strip")

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(experiment, **values, warnings=tuple(warnings_list))


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(f"{x:.17g}" for x in v)
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form of the sections the experiment reads, its
    required ones and [output]; parse -> serialize -> parse is the identity."""
    lines = [f"# experiment: {cfg.experiment}"]
    read = (*EXPERIMENTS[cfg.experiment][0], "output")
    for name in (n for n in _SCHEMA if n in read):
        lines.append(f"[{name}]")
        for key in _SCHEMA[name]:
            v = getattr(cfg, name).get(key)
            if v is None:
                continue
            lines.append(f"{key} = {_format_value(v)}")
        lines.append("")
    return "\n".join(lines)


def apply_overrides(overrides) -> dict:
    """The `section.key=value` strings as entries {section: {key: (raw_value,
    "--set <override>")}} for validate_config; of two overrides of one key
    the last wins."""
    entries: dict = {}
    for ov in overrides:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError([f"override {ov!r} is not of the form section.key=value"])
        target, value = (p.strip() for p in ov.split("=", 1))
        section, key = (p.strip() for p in target.split(".", 1))
        if section not in _SCHEMA:
            raise ConfigError([f"override {ov!r} names an unknown section [{section}]"])
        entries.setdefault(section, {})[key] = (value, f"--set {ov}")
    return entries
