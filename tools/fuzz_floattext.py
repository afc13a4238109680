"""Long comparison of lambda_adapt.floattext against Python's repr.

    python3 tools/fuzz_floattext.py --count N [--seed S]

Formats N doubles, ``CHUNK`` at a time, and compares every field with
``repr``.  Each chunk is one third each of:

- random 64-bit patterns (every sign, exponent, subnormal, inf, nan);
- short decimals: 1 to 17 random digits times 10^e, e in [-340, 310],
  read with ``float()`` (the doubles whose shortest repr is short);
- one neighbour of each decimal, one ulp below or above at random.

Each chunk is formatted twice: as one column, and cut into tables of 2
to 7 columns (5 is simulate's trajectory table) whose value counts end
part-way through one of floattext's blocks of ``_BLOCK`` values, so
that rows, and the comma or newline after a value, fall on both sides
of a block boundary, as in the blocks of rows the commands format.

Exits 1 at the first mismatch, printing the value's bits, the
formatter's text and ``repr``'s; exits 0 after N values.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lambda_adapt.floattext import _BLOCK, csv_text  # noqa: E402

CHUNK = 300_000


def _chunk(rng: np.random.Generator, size: int) -> np.ndarray:
    third = size // 3
    patterns = rng.integers(0, 2 ** 64, size - 2 * third, dtype=np.uint64)
    n_digits = rng.integers(1, 18, third)
    mantissas = (rng.random(third) * 10.0 ** n_digits).astype(np.int64)
    exponents = rng.integers(-340, 311, third)
    decimals = np.array([float(f"{m}e{e}")
                         for m, e in zip(mantissas.tolist(),
                                         exponents.tolist())])
    bits = decimals.view(np.uint64)
    step = np.where(rng.random(third) < 0.5, 1, -1).astype(np.int64)
    finite = np.isfinite(decimals) & (decimals != 0)
    neighbours = np.where(finite, bits + step.view(np.uint64), bits)
    return np.concatenate([patterns, bits, neighbours]).view(np.float64)


def _tables(rng: np.random.Generator, values: np.ndarray):
    """``values`` cut in order into tables of 2 to 7 columns and up to
    three blocks of values, none a whole number of blocks; fewer than 7
    values may be left over."""
    start = 0
    while True:
        n_cols = int(rng.integers(2, 8))
        n_rows = min(int(rng.integers(1, 3 * _BLOCK // n_cols + 1)),
                     (values.size - start) // n_cols)
        if n_rows * n_cols % _BLOCK == 0:
            n_rows -= 1
        if n_rows < 1:
            return
        stop = start + n_rows * n_cols
        yield values[start:stop].reshape(n_rows, n_cols)
        start = stop


def _first_mismatch(table: np.ndarray) -> str:
    got = csv_text(table)
    rows = table.tolist()
    expected = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    if got == expected:
        return ""
    for row, line in zip(rows, got.split("\n")):
        for value, text in zip(row, line.split(",")):
            if text != repr(value):
                bits = int(np.float64(value).view(np.uint64))
                return (f"bits {bits:#018x}: floattext {text!r}, "
                        f"repr {value!r} ({table.shape[1]} columns)")
    return f"texts of a {table.shape} table differ in their separators"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.count < 1:
        parser.error("need --count >= 1")
    rng = np.random.default_rng(args.seed)
    done = 0
    t0 = time.perf_counter()
    while done < args.count:
        values = _chunk(rng, CHUNK)[:args.count - done]
        for table in (values[:, None], *_tables(rng, values)):
            bad = _first_mismatch(table)
            if bad:
                break
        if bad:
            print(f"MISMATCH after {done} values: {bad}")
            return 1
        done += values.size
    print(f"{done} values match repr (seed {args.seed}, "
          f"{time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
