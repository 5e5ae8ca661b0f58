"""The benchmark's pinned experiment configs.

Each workload runs one INI file under `workloads/` in which every key of the
program's config schema is written out.  The benchmark reads these files
with its own parser, so a change to the program's defaults or to its parser
cannot change what a workload runs; a run whose manifest echoes a different
config fails its checks.
"""

from __future__ import annotations

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_DIR = BENCH_DIR / "workloads"


def read_ini(text: str) -> dict[str, dict[str, str]]:
    """`[section]` headers and `key = value` lines; `#` and `;` comments."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1].strip(), {})
            continue
        key, sep, value = line.partition("=")
        if current is None or not sep:
            raise ValueError(f"not a config line: {raw!r}")
        current[key.strip()] = value.strip()
    return sections


def load(workload: str) -> dict[str, dict[str, str]]:
    return read_ini((WORKLOAD_DIR / f"{workload}.ini").read_text())


def floats(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.split(","))


def _canonical(raw: str):
    """A value as a bool, a tuple of floats or, failing both, its text."""
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    try:
        return floats(raw)
    except ValueError:
        return raw


def config_mismatches(pinned: dict, echoed_text: str) -> list[str]:
    """Keys whose echoed value differs from the pinned one, or that only
    one side has.  Numbers compare by value, so `0.05` matches the echo's
    `0.050000000000000003`."""
    def flat(sections):
        return {f"{s}.{k}": _canonical(v) for s, kv in sections.items()
                for k, v in kv.items()}

    want, got = flat(pinned), flat(read_ini(echoed_text))
    return [f"config {key}: pinned {want.get(key)!r}, echoed {got.get(key)!r}"
            for key in sorted(want.keys() | got.keys())
            if want.get(key) != got.get(key)]
