"""A check shared by the command-level properties of several test files."""

import csv
import json
import math
from pathlib import Path

import pytest

# CSV columns that hold text; every other column holds floats
TEXT_COLUMNS = frozenset({"family", "error"})


def _refuse(constant: str):
    raise ValueError(f"non-finite JSON constant {constant}")


def check_artifacts(out: Path) -> None:
    """Every artifact under ``out`` holds finite numbers only.

    Each ``.json`` file, each ``.jsonl`` line and each CSV metadata line
    parses as strict JSON (a NaN or an infinity raises), and every float
    field of a CSV is finite, except the ``objective`` of a ``sweep.csv``
    row whose ``error`` is set, which is ``nan`` by design.
    """
    for path in sorted(out.rglob("*")):
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_refuse)
        elif path.suffix == ".jsonl":
            for line in path.read_text().splitlines():
                json.loads(line, parse_constant=_refuse)
        elif path.suffix == ".csv":
            meta, *lines = path.read_text().splitlines()
            assert meta.startswith("#")
            json.loads(meta[1:], parse_constant=_refuse)
            columns, *rows = csv.reader(lines)
            for fields in rows:
                assert len(fields) == len(columns), (path, fields)
                failed = columns[-1] == "error" and fields[-1] != ""
                for name, field in zip(columns, fields):
                    if name in TEXT_COLUMNS:
                        continue
                    value = float(field)
                    assert math.isfinite(value) or (
                        failed and name == "objective"), (path, fields)


@pytest.fixture(scope="session")
def strict_artifacts():
    """``check_artifacts``, for tests (hypothesis ones included) to call
    on a command's output directory."""
    return check_artifacts
