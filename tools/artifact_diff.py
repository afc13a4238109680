"""Compare two artifact trees file by file.

    python3 tools/artifact_diff.py DIR_A DIR_B [--rtol R]

Files are matched by their path relative to each tree, for example two
``bench/worker.py run --out`` trees of one seed's plan made from two
checkouts.  For each artifact name (a file's base name) it prints how
many files are byte-identical and how many differ, and for differing
JSON, JSONL and CSV files the largest relative difference
|a - b| / max(|a|, |b|) of any numeric field, with the file and field
where it occurs.  A JSON field that is a residue, zero up to numerical
error, is measured against 1 instead, as |a - b| / max(|a|, |b|, 1):
a key named in ``RESIDUES`` or any entry under ``deviations``.  Against
its own size a residue that moves by one ulp of its natural scale, say
``norm_drift`` from 2.2e-16 to 0, would differ by 1.  A difference that
is not numeric is printed on its own line: a file on one side only, a
key, a string or a CSV header that differs, a row or element count, a
file of another kind that differs, or bytes that differ where every
value is equal.  The exit status is 1
when there is any such difference and 0 otherwise, numeric differences
included.  With ``--rtol R`` a numeric field that differs by more than R
relative also makes the exit status 1, and each file that holds one is
printed on its own line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import defaultdict
from pathlib import Path


# JSON keys whose values are residues: a norm's drift from 1, a ledger's
# or an identity's residual, a leak that should be 0
RESIDUES = frozenset({"norm_drift", "residual", "adaptation_residual",
                      "leak"})


class Structural(Exception):
    """A difference that is not a change of a number."""


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def relative_difference(a: float, b: float, floor: float = 0.0) -> float:
    """|a - b| / max(|a|, |b|, floor); 0 for equal values (NaN equals
    NaN), inf where one side is NaN or infinite and the other is not."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    d = abs(a - b) / max(abs(a), abs(b), floor)
    return d if d == d else math.inf


def _walk(a, b, where: str, residue: bool = False) -> tuple[float, str]:
    """Largest relative difference between two JSON values, and its path.

    A number marked ``residue`` is measured against 1.  Raises Structural
    on keys, lengths, types or non-numeric leaves that differ."""
    if _is_number(a) and _is_number(b):
        return relative_difference(float(a), float(b),
                                   1.0 if residue else 0.0), where
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise Structural(f"{where or 'top level'}: keys "
                             f"{sorted(a.keys() ^ b.keys())} on one side only")
        under_deviations = where.rsplit(".", 1)[-1] == "deviations"
        pairs = [(a[k], b[k], f"{where}.{k}" if where else str(k),
                  under_deviations or k in RESIDUES) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Structural(f"{where or 'top level'}: "
                             f"{len(a)} against {len(b)} elements")
        pairs = [(x, y, f"{where}[{i}]", residue)
                 for i, (x, y) in enumerate(zip(a, b))]
    else:
        if type(a) is not type(b) or a != b:
            raise Structural(f"{where or 'top level'}: {a!r} against {b!r}")
        return 0.0, where
    return max((_walk(*pair) for pair in pairs),
               key=lambda r: r[0], default=(0.0, where))


def _field(a: str, b: str, where: str) -> tuple[float, str]:
    if a == b:
        return 0.0, where
    try:
        return relative_difference(float(a), float(b)), where
    except ValueError:
        raise Structural(f"{where}: {a!r} against {b!r}") from None


def _compare_lines(a: list[str], b: list[str], csv: bool):
    if len(a) != len(b):
        raise Structural(f"{len(a)} against {len(b)} lines")
    worst = [(0.0, "")]
    header = True
    for n, (x, y) in enumerate(zip(a, b), start=1):
        if not csv or x.startswith("#"):
            worst.append(_walk(json.loads(x.lstrip("#")),
                               json.loads(y.lstrip("#")), f"line {n}"))
        elif header:
            header = False
            if x != y:
                raise Structural(f"header {x!r} against {y!r}")
            names = x.split(",")
        else:
            fx, fy = x.split(","), y.split(",")
            if len(fx) != len(fy):
                raise Structural(f"line {n}: {len(fx)} against {len(fy)} "
                                 "fields")
            worst.extend(
                _field(u, v, f"line {n} "
                       + (names[i] if i < len(names) else f"field {i + 1}"))
                for i, (u, v) in enumerate(zip(fx, fy)))
    return max(worst, key=lambda r: r[0])


def compare_files(a: Path, b: Path) -> tuple[float, str]:
    """Largest relative numeric difference between two differing files
    and where it is; Structural if they differ in anything else."""
    text_a, text_b = a.read_text(), b.read_text()
    if a.suffix == ".json":
        worst = _walk(json.loads(text_a), json.loads(text_b), "")
    elif a.suffix in (".jsonl", ".csv"):
        worst = _compare_lines(text_a.splitlines(), text_b.splitlines(),
                               csv=a.suffix == ".csv")
    else:
        raise Structural("contents differ")
    if worst[0] == 0.0:
        raise Structural("bytes differ but every value is equal")
    return worst


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix()
            for p in root.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument("--rtol", type=float, default=None,
                        help="also fail when a numeric field differs by "
                        "more than this relative difference")
    args = parser.parse_args(argv)
    for root in (args.dir_a, args.dir_b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    if args.rtol is not None and not 0.0 <= args.rtol < math.inf:
        parser.error(f"--rtol must be finite and >= 0, got {args.rtol}")

    files_a, files_b = _files(args.dir_a), _files(args.dir_b)
    same = defaultdict(int)
    differ = defaultdict(int)
    worst = {}
    problems = []
    over = []
    for rel in sorted(files_a | files_b):
        name = rel.rsplit("/", 1)[-1]
        if rel not in files_a or rel not in files_b:
            side = args.dir_a if rel not in files_b else args.dir_b
            problems.append(f"{rel}: only in {side}")
            continue
        a, b = args.dir_a / rel, args.dir_b / rel
        if a.read_bytes() == b.read_bytes():
            same[name] += 1
            continue
        differ[name] += 1
        try:
            rel_diff, where = compare_files(a, b)
        except (Structural, ValueError) as exc:
            # ValueError: a file that does not parse as its suffix says
            problems.append(f"{rel}: {exc}")
            continue
        if name not in worst or rel_diff > worst[name][0]:
            worst[name] = (rel_diff, f"{rel}: {where}")
        if args.rtol is not None and rel_diff > args.rtol:
            over.append(f"{rel}: {where} differs by {rel_diff:.3g}")

    for name in sorted(same.keys() | differ.keys()):
        line = f"{name}: {same[name]} identical, {differ[name]} differ"
        if name in worst:
            rel_diff, where = worst[name]
            line += (f", largest relative difference {rel_diff:.3g} "
                     f"({where})")
        print(line)
    for problem in problems:
        print(f"not numeric: {problem}")
    for line in over:
        print(f"over rtol {args.rtol:g}: {line}")
    return 1 if problems or over else 0


if __name__ == "__main__":
    sys.exit(main())
