#!/usr/bin/env python3
"""Compare two directories of `cstk verify --out` reports field by field.

    python scripts/compare_reports.py DIR_A DIR_B

Every *.json file of either directory is read from both, and every field but
runtime_seconds is compared exactly (as its JSON text), nested fields by their
dotted path.  Each differing field is printed with both values; the exit code
is 1 if any field (or file) differs, 2 on a bad argument, else 0.
"""

import json
import sys
from pathlib import Path

IGNORED = {"runtime_seconds"}


def _fields(value, path=""):
    """Leaf fields of a parsed report as {dotted path: value}; an empty dict or list is a leaf."""
    if isinstance(value, dict) and value:
        items = value.items()
    elif isinstance(value, list) and value:
        items = enumerate(value)
    else:
        return {path: value}
    out = {}
    for key, item in items:
        if key not in IGNORED:
            out.update(_fields(item, f"{path}.{key}" if path else str(key)))
    return out


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    """One line per differing field: 'file: field: value_a != value_b'."""
    lines = []
    for name in sorted({p.name for d in (dir_a, dir_b) for p in d.glob("*.json")}):
        missing = [str(d) for d in (dir_a, dir_b) if not (d / name).exists()]
        if missing:
            lines.append(f"{name}: missing in {missing[0]}")
            continue
        a, b = (_fields(json.loads((d / name).read_text())) for d in (dir_a, dir_b))
        for key in sorted(a.keys() | b.keys()):
            va, vb = (json.dumps(v.get(key, "<missing>")) for v in (a, b))  # exact floats, nan equal to nan
            if va != vb:
                lines.append(f"{name}: {key}: {va} != {vb}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print("usage: compare_reports.py DIR_A DIR_B (two report directories)", file=sys.stderr)
        return 2
    lines = compare(Path(args[0]), Path(args[1]))
    print("\n".join(lines) if lines else "reports equal")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
