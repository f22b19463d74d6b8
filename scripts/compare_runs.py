#!/usr/bin/env python3
"""Compare the deterministic files of two `dln` run trees.

    python scripts/compare_runs.py A B

The files compared are those a fixed manifest and BLAS thread count must
reproduce byte for byte: each ``trajectory.csv``, ``diagnostics.csv``,
``incremental.json``, ``oracle.json``, ``status.json``, ``mask.csv`` and
``train_values.csv``, and each checkpoint's layer files and manifest. Run
manifests, ``timing.csv`` and ``ablate``'s ``summary.csv`` carry paths, the
environment or seconds, and are left out.

For each file found under either tree, one line says "identical", "missing"
(and from which tree), or the largest relative deviation |a - b| / max(|a|,
|b|) of each numeric column that moved; a cell that moved and is not a
number is reported as "differs". A CSV column is named by its header, a
JSON value by its key path with list indices dropped, and a checkpoint layer
has the one column "values". Two copies whose columns differ are reported
as "differs in layout", naming the first column or key path that only one
of them has, or else both cell counts. Exits 0 when every file is
identical, 1 when any file differs or is missing, and 2 when A or B is not a
directory or neither holds a deterministic file.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from pathlib import Path

from dln.linalg import load_matrix_bin

DETERMINISTIC = {"trajectory.csv", "diagnostics.csv", "incremental.json", "oracle.json",
                 "status.json", "mask.csv", "train_values.csv"}


def deterministic_files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()
            and (p.name in DETERMINISTIC or p.parent.name == "checkpoint")}


def _number(cell):
    """A float for a numeric cell or JSON value, else None (bools are not numbers)."""
    if isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def rel_dev(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _csv_cells(path: Path) -> list[tuple[str, str]]:
    """(column, cell) pairs in file order; a file whose first row is all
    numbers has no header, and its columns are named by position."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    header = []
    if rows and any(c and _number(c) is None for c in rows[0]):
        header, rows = rows[0], rows[1:]
    return [(header[i] if i < len(header) else f"column {i + 1}", c)
            for row in rows for i, c in enumerate(row)]


def _json_cells(value, path: str = "") -> list[tuple[str, object]]:
    if isinstance(value, dict):
        return [cell for k in sorted(value) for cell in _json_cells(value[k], f"{path}.{k}")]
    if isinstance(value, list):
        return [cell for v in value for cell in _json_cells(v, f"{path}[]")]
    return [(path.lstrip(".") or "value", value)]


def _cells(path: Path) -> list[tuple[str, object]]:
    if path.suffix == ".csv":
        return _csv_cells(path)
    if path.suffix == ".json":
        return _json_cells(json.loads(path.read_text()))
    return [("values", float(v)) for v in load_matrix_bin(path).ravel()]


def _layout(ca, cb) -> str:
    """The first column or key path found in one file's cells and not the
    other's, else the two cell counts."""
    for cells, other, side in ((ca, cb, "A"), (cb, ca, "B")):
        absent = {c for c, _ in cells} - {c for c, _ in other}
        for col, _ in cells:
            if col in absent:
                return f"{col} only in {side}"
    return f"{len(ca)} against {len(cb)} cells"


def compare_file(a: Path, b: Path) -> str:
    """One line's verdict on two copies of a deterministic file."""
    if a.read_bytes() == b.read_bytes():
        return "identical"
    try:
        ca, cb = _cells(a), _cells(b)
    except ValueError as exc:  # undecodable text, bad JSON or a bad matrix file
        return f"differs (unreadable: {exc})"
    if [c for c, _ in ca] != [c for c, _ in cb]:
        return f"differs in layout ({_layout(ca, cb)})"
    worst: dict[str, float] = defaultdict(float)
    moved: list[str] = []
    for (col, x), (_, y) in zip(ca, cb):
        nx, ny = _number(x), _number(y)
        if nx is not None and ny is not None:
            worst[col] = max(worst[col], rel_dev(nx, ny))
        elif x != y and col not in moved:
            moved.append(col)
    parts = [f"{col} {dev:.3g}" for col, dev in worst.items() if dev > 0]
    parts += [f"{col} differs" for col in moved]
    if not parts:
        return "bytes differ, values equal"
    return "max rel dev " + ", ".join(parts)


def compare_trees(a: Path, b: Path) -> list[tuple[str, str]]:
    """(relative path, verdict) for every deterministic file under a or b."""
    fa, fb = deterministic_files(a), deterministic_files(b)
    out = []
    for rel in sorted(fa | fb):
        if rel not in fb:
            out.append((str(rel), "missing in B"))
        elif rel not in fa:
            out.append((str(rel), "missing in A"))
        else:
            out.append((str(rel), compare_file(a / rel, b / rel)))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_runs.py A B", file=sys.stderr)
        return 2
    a, b = map(Path, argv)
    for p in (a, b):
        if not p.is_dir():
            print(f"{p}: not a directory", file=sys.stderr)
            return 2
    verdicts = compare_trees(a, b)
    if not verdicts:
        print(f"no deterministic files under {a} or {b}", file=sys.stderr)
        return 2
    for rel, verdict in verdicts:
        print(f"{rel}: {verdict}")
    same = sum(v == "identical" for _, v in verdicts)
    print(f"{len(verdicts)} files: {same} identical, {len(verdicts) - same} not")
    return 0 if same == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
