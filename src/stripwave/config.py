"""Experiment configuration: strict INI-style parsing with line diagnostics.

Format: flat `key = value` pairs under [section] headers.  Unknown sections
or keys are rejected, every problem is reported with its line number, and a
parsed configuration serializes back to canonical text that re-parses to an
identical configuration (diff-friendly for experiment sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass, field

EXPERIMENTS = ("wave", "stability0", "linear_eps", "planarity", "convergence")

# allowed values of the integrator's named choices
INTEGRATOR_CHOICES = {
    "scheme": ("imex1", "sbdf2"),
    "transport": ("upwind", "central"),
    "frame": ("moving", "lab"),
}


class ConfigError(ValueError):
    """Carries the full list of line-numbered problems."""

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
        "mean_zero_y": (_parse_bool, False),
    },
    "integrator": {
        "dt": (float, 0.02),
        "t_end": (float, 10.0),
        "scheme": (str, "imex1"),
        "record_every": (int, 5),
        "cfl_safety": (float, 0.9),
        "transport": (str, "upwind"),
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

_REQUIRED_SECTIONS = {
    "wave": ("grid", "wave"),
    "stability0": ("grid", "wave", "init", "integrator", "output"),
    "linear_eps": ("grid", "wave", "init", "integrator", "output"),
    "planarity": ("grid", "wave", "init", "integrator", "output"),
    "convergence": ("grid",),
}

# experiments that treat eps/lambda as single values, not sweep lists
_SINGLE_VALUED = ("wave", "stability0", "linear_eps", "convergence")


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

    def section(self, name: str) -> dict:
        return getattr(self, name)

    @property
    def eps_values(self) -> tuple:
        return self.wave["eps"]

    @property
    def lambda_values(self) -> tuple:
        return self.grid["lambda"]


def parse_raw(text: str):
    """Parse INI text into {section: {key: (raw_value, line_no)}}."""
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
        sections[current][key] = (value, ln)
    return sections, problems


def integrator_problems(iv: dict, label=str) -> list:
    """Every rule the time-stepping settings break.

    The one definition of those rules: validate_config applies it to the
    [integrator] section and evolve.IntegratorConfig to its own fields.
    label(key) names the offending key at the head of each message.
    """
    problems = []
    if iv["dt"] <= 0:
        problems.append(f"{label('dt')} must be positive, got {iv['dt']}")
    if iv["t_end"] < 0:
        problems.append(f"{label('t_end')} must be non-negative, got {iv['t_end']}")
    if not 0 < iv["cfl_safety"] <= 1:
        problems.append(f"{label('cfl_safety')} must lie in (0, 1], "
                        f"got {iv['cfl_safety']}")
    if iv["record_every"] < 1:
        problems.append(f"{label('record_every')} must be >= 1, "
                        f"got {iv['record_every']}")
    for key, allowed in INTEGRATOR_CHOICES.items():
        if iv[key] not in allowed:
            problems.append(f"{label(key)} must be {' or '.join(allowed)}, "
                            f"got {iv[key]!r}")
    return problems


def validate_config(text: str, experiment: str) -> ExperimentConfig:
    """Strict validation; raises ConfigError listing every problem found."""
    if experiment not in EXPERIMENTS:
        raise ConfigError([f"unknown experiment {experiment!r}; "
                           f"expected one of {', '.join(EXPERIMENTS)}"])
    sections, problems = parse_raw(text)
    values: dict = {}
    for name, schema in _SCHEMA.items():
        out = {}
        present = sections.get(name, {})
        for key, (raw, ln) in present.items():
            if key not in schema:
                problems.append(f"line {ln}: unknown key {key!r} in [{name}]")
                continue
            conv, _ = schema[key]
            try:
                out[key] = conv(raw)
            except ValueError as exc:
                problems.append(f"line {ln}: bad value for {name}.{key}: {exc}")
        for key, (conv, default) in schema.items():
            out.setdefault(key, default)
        values[name] = out

    for name in _REQUIRED_SECTIONS.get(experiment, ()):
        if name not in sections:
            problems.append(f"missing required section [{name}] for "
                            f"experiment {experiment!r} (defaults exist but the "
                            "section header must be present)")

    def at(name: str, key: str) -> str:
        """'name.key', led by 'line N: ' when the key was read from the text."""
        entry = sections.get(name, {}).get(key)
        return f"line {entry[1]}: {name}.{key}" if entry else f"{name}.{key}"

    warnings_list = []
    gv, wv, iv = values["grid"], values["wave"], values["integrator"]
    if experiment in _SINGLE_VALUED:
        for name, key, vals in (("grid", "lambda", gv["lambda"]),
                                ("wave", "eps", wv["eps"])):
            if len(vals) != 1:
                problems.append(f"{at(name, key)} must be a single value for "
                                f"experiment {experiment!r}, got {len(vals)}")
    for lam in gv["lambda"]:
        if lam <= 0:
            problems.append(f"{at('grid', 'lambda')} must be positive, got {lam}")
        elif lam > 2.0:
            problems.append(f"{at('grid', 'lambda')} = {lam} exceeds the hard limit 2")
        elif lam > 1.0:
            warnings_list.append(f"grid.lambda = {lam} > 1: the stability theory "
                                 "assumes a thin strip")
    if gv["n_y"] % 2 != 0 or gv["n_y"] < 4:
        problems.append(f"{at('grid', 'n_y')} must be even and >= 4 "
                        f"(periodic spectral axis), got {gv['n_y']}")
    if gv["n_z"] < 16:
        problems.append(f"{at('grid', 'n_z')} must be >= 16, got {gv['n_z']}")
    if gv["L_z"] is not None and gv["L_z"] <= 0:
        problems.append(f"{at('grid', 'L_z')} must be positive, got {gv['L_z']}")
    for e in wv["eps"]:
        if e < 0:
            problems.append(f"{at('wave', 'eps')} must be non-negative, got {e}")
    for key in ("n_minus", "c_plus", "N0"):
        if wv[key] is not None and wv[key] <= 0:
            problems.append(f"{at('wave', key)} must be positive, got {wv[key]}")
    if not 0 < wv["tol"] <= 1e-4:
        problems.append(f"{at('wave', 'tol')} must lie in (0, 1e-4], "
                        f"got {wv['tol']}")
    problems.extend(integrator_problems(iv, label=lambda key: at("integrator", key)))
    if values["init"]["amplitude"] < 0:
        problems.append(f"{at('init', 'amplitude')} must be non-negative, "
                        f"got {values['init']['amplitude']}")
    if experiment == "planarity" and not values["init"]["mean_zero_y"]:
        warnings_list.append("planarity works in the y-fluctuation channel; "
                             "init.mean_zero_y = true is recommended")

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        experiment=experiment, grid=values["grid"], wave=values["wave"],
        init=values["init"], integrator=values["integrator"],
        output=values["output"], warnings=tuple(warnings_list))


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(f"{x:.17g}" for x in v)
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse -> serialize -> parse is the identity."""
    lines = [f"# experiment: {cfg.experiment}"]
    for name in ("grid", "wave", "init", "integrator", "output"):
        lines.append(f"[{name}]")
        for key in _SCHEMA[name]:
            v = cfg.section(name).get(key)
            if v is None:
                continue
            lines.append(f"{key} = {_format_value(v)}")
        lines.append("")
    return "\n".join(lines)


def apply_overrides(text: str, overrides) -> str:
    """Apply `section.key=value` strings on top of the raw config text.

    Overrides are appended as a patch: existing keys are rewritten in place,
    new keys appended to their section (created if absent).
    """
    lines = text.splitlines()
    for ov in overrides:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError([f"override {ov!r} is not of the form section.key=value"])
        target, value = (p.strip() for p in ov.split("=", 1))
        section, key = (p.strip() for p in target.split(".", 1))
        done = False
        current = None
        for i, raw in enumerate(lines):
            line = raw.strip()
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
            elif current == section and line.partition("=")[0].strip() == key:
                lines[i] = f"{key} = {value}"
                done = True
                break
        if not done:
            if f"[{section}]" not in (ln.strip() for ln in lines):
                lines.append(f"[{section}]")
                lines.append(f"{key} = {value}")
            else:
                # insert right after the section header
                for i, raw in enumerate(lines):
                    if raw.strip() == f"[{section}]":
                        lines.insert(i + 1, f"{key} = {value}")
                        break
    return "\n".join(lines) + "\n"
