"""Compare two output trees (STRIPWAVE_OUTPUT_ROOT) file by file; exit 0 only
when nothing differs.

    python tools/compare_outputs.py OLD NEW

JSON files are compared after dropping every key that ends in `_s` (the
timings); every other file is compared as bytes.  For a JSON file that
differs, the path of each differing value is printed with both values (the
first MAX_KEYS of them); for a CSV, each differing column with the number of
its rows that differ, the first of them with both values, and its largest
relative difference.
"""

import csv
import json
import sys
from pathlib import Path

MAX_KEYS = 10
_ABSENT = object()  # a key or list entry that one side lacks


def _untimed(value):
    """value with every dict key ending in `_s` dropped, at any depth."""
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items() if not k.endswith("_s")}
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


def _relative(a: str, b: str) -> float:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return 0.0 if a == b else float("inf")
    scale = max(abs(x), abs(y))
    return 0.0 if x == y else abs(x - y) / scale if scale else float("inf")


def csv_columns(old: Path, new: Path) -> list[str]:
    """One line per differing column of two CSV files: its name, how many
    of its rows differ, the first of them (its line in the file, with both
    values) and its largest relative difference."""
    rows_old, rows_new = (list(csv.reader(p.open(newline=""))) for p in (old, new))
    if len(rows_old) != len(rows_new) or rows_old[:1] != rows_new[:1]:
        return [f"header or row count: {len(rows_old)} against {len(rows_new)} rows"]
    differing = {}  # column name -> (line in the file, old, new) of each row that differs
    for line, (row_old, row_new) in enumerate(zip(rows_old[1:], rows_new[1:]), start=2):
        for name, a, b in zip(rows_old[0], row_old, row_new):
            if _relative(a, b):
                differing.setdefault(name, []).append((line, a, b))
    return [f"{name}: {len(rows)} of {len(rows_old) - 1} rows differ, the first at line "
            f"{rows[0][0]}: {rows[0][1]} -> {rows[0][2]}; max relative difference "
            f"{max(_relative(a, b) for _, a, b in rows):.3g}" for name, rows in differing.items()]


def _leaf(value) -> str:
    return "absent" if value is _ABSENT else json.dumps(value)  # as text, so NaN equals NaN


def _differing(old, new, path=""):
    """(path, old, new) of each value where two JSON values differ, with
    paths such as `counters[0].steps`; a text of several lines, such as the
    config echo, is compared as the list of its lines."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _differing(old.get(key, _ABSENT), new.get(key, _ABSENT),
                                  f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from _differing(old[i] if i < len(old) else _ABSENT,
                                  new[i] if i < len(new) else _ABSENT, f"{path}[{i}]")
    elif isinstance(old, str) and isinstance(new, str) and "\n" in old + new:
        yield from _differing(old.splitlines(), new.splitlines(), path)
    elif _leaf(old) != _leaf(new):
        yield path, old, new


def json_keys(old: Path, new: Path) -> list[str]:
    """One line per differing value of two JSON files, timings left out:
    its path and both values, the first MAX_KEYS of them."""
    lines = [f"{path}: {_leaf(a)} -> {_leaf(b)}" for path, a, b in _differing(
        *(_untimed(json.loads(p.read_text())) for p in (old, new)))]
    extra = len(lines) - MAX_KEYS
    return lines[:MAX_KEYS] + ([f"and {extra} more"] if extra > 0 else [])


def compare(old_root: Path, new_root: Path) -> list[str]:
    """The differences between two trees, one line each."""
    files = sorted({p.relative_to(root) for root in (old_root, new_root)
                    for p in root.rglob("*") if p.is_file()})
    report = []
    for rel in files:
        old, new = old_root / rel, new_root / rel
        if not (old.is_file() and new.is_file()):
            report.append(f"{rel}: only in {old_root if old.is_file() else new_root}")
        elif rel.suffix == ".json":
            keys = json_keys(old, new)
            if keys:
                report.append(f"{rel}: differs outside the *_s timings")
                report.extend(f"  {line}" for line in keys)
        elif old.read_bytes() != new.read_bytes():
            report.append(f"{rel}: differs")
            if rel.suffix == ".csv":
                report.extend(f"  {line}" for line in csv_columns(old, new))
    return report


if __name__ == "__main__":
    differences = compare(Path(sys.argv[1]), Path(sys.argv[2]))
    print("\n".join(differences) or "no differences")
    sys.exit(1 if differences else 0)
