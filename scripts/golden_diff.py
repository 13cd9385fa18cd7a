#!/usr/bin/env python3
"""Compare two golden-run output trees, such as two `golden_runs.sh` runs.

    python3 scripts/golden_diff.py OUT_A OUT_B

Lists the files that are byte-identical. For each CSV or JSON file that
differs, reports how many lines (CSV) or numbers (JSON) changed and the
largest change in units of the ninth significant digit, the precision
the CLI writes. A number is only as precise as the scale it was computed
at, so the digit is taken of the largest magnitude in the number's CSV
column or JSON list (a JSON object member is its own scale): a pixel
that is numerically zero changes in digits far below the image peak's.
Numbers are compared as exact decimals, so a change in the last printed
digit of the scale is exactly one unit.

Exits 1 if a file exists on one side only, a PGM or any other file type
differs, a CSV or JSON file changes other than in its numbers, or a
number changes by more than one unit; otherwise 0.
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal, InvalidOperation
from pathlib import Path

SIG_DIGITS = 9


class StructureDiffers(Exception):
    pass


def units(a: Decimal, b: Decimal, scale: Decimal) -> Decimal:
    """|a - b| in units of the ninth significant digit of ``scale``."""
    if a == b:
        return Decimal(0)
    return abs(a - b).scaleb(SIG_DIGITS - 1 - scale.adjusted())


def as_number(text: str) -> Decimal | None:
    try:
        value = Decimal(text)
    except InvalidOperation:
        return None
    return value if value.is_finite() else None


def compare_csv(a: bytes, b: bytes) -> tuple[int, int, Decimal]:
    """(lines changed, lines, largest change in units)."""
    rows_a, rows_b = a.decode().splitlines(), b.decode().splitlines()
    if len(rows_a) != len(rows_b):
        raise StructureDiffers(f"{len(rows_a)} vs {len(rows_b)} rows")
    scales: dict[int, Decimal] = {}
    for row in rows_a + rows_b:
        for col, cell in enumerate(row.split(",")):
            value = as_number(cell)
            if value is not None:
                scales[col] = max(scales.get(col, Decimal(0)), abs(value))
    changed, worst = 0, Decimal(0)
    for line, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=1):
        if row_a == row_b:
            continue
        cells_a, cells_b = row_a.split(","), row_b.split(",")
        if len(cells_a) != len(cells_b):
            raise StructureDiffers(f"line {line}: {len(cells_a)} vs {len(cells_b)} cells")
        for col, (cell_a, cell_b) in enumerate(zip(cells_a, cells_b)):
            if cell_a == cell_b:
                continue
            x, y = as_number(cell_a), as_number(cell_b)
            if x is None or y is None:
                raise StructureDiffers(f"line {line}: {cell_a!r} vs {cell_b!r}")
            worst = max(worst, units(x, y, scales[col]))
        changed += 1
    return changed, len(rows_a), worst


def _json_units(a, b, scale=None, path="$"):
    """Yield the change in units of every number pair of ``a`` and ``b``."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            sides = [(side, [k for k in x if k not in y]) for side, x, y in (("A", a, b), ("B", b, a))]
            only = "; ".join(f"only in {side}: {', '.join(keys)}" for side, keys in sides if keys)
            raise StructureDiffers(f"{path}: keys differ ({only})")
        for key in a:
            yield from _json_units(a[key], b[key], None, f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise StructureDiffers(f"{path}: {len(a)} vs {len(b)} items")
        inner = max((abs(v) for v in a + b if isinstance(v, Decimal)), default=None)
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_units(x, y, inner, f"{path}[{i}]")
    elif isinstance(a, Decimal) and isinstance(b, Decimal):
        yield units(a, b, scale if scale is not None else max(abs(a), abs(b)))
    elif a != b:
        raise StructureDiffers(f"{path}: {a!r} vs {b!r}")


def compare_json(a: bytes, b: bytes) -> tuple[int, int, Decimal]:
    """(numbers changed, numbers, largest change in units)."""
    parse = {"parse_float": Decimal, "parse_int": Decimal}
    changes = list(_json_units(json.loads(a, **parse), json.loads(b, **parse)))
    return sum(1 for u in changes if u), len(changes), max(changes, default=Decimal(0))


COMPARERS = {".csv": (compare_csv, "lines"), ".json": (compare_json, "numbers")}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: golden_diff.py OUT_A OUT_B", file=sys.stderr)
        return 2
    root_a, root_b = (Path(p) for p in argv)
    files_a = {p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file()}
    failed = False
    for rel in sorted(files_a ^ files_b):
        print(f"only in {root_a if rel in files_a else root_b}: {rel}")
        failed = True
    identical, changed = [], []
    for rel in sorted(files_a & files_b):
        a, b = (root_a / rel).read_bytes(), (root_b / rel).read_bytes()
        if a == b:
            identical.append(rel)
            continue
        comparer = COMPARERS.get(rel.suffix)
        if comparer is None:
            changed.append(f"{rel}: differs")
            failed = True
            continue
        compare, what = comparer
        try:
            n_changed, total, worst = compare(a, b)
        except StructureDiffers as err:
            changed.append(f"{rel}: differs beyond its numbers ({err})")
            failed = True
            continue
        changed.append(
            f"{rel}: {n_changed} of {total} {what} changed, "
            f"largest change {float(worst):.2g} unit(s) of the ninth significant digit"
        )
        failed |= worst > 1
    print(f"identical: {len(identical)} of {len(files_a | files_b)} files")
    for rel in identical:
        print(f"  {rel}")
    print(f"changed: {len(changed)}")
    for line in changed:
        print(f"  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
