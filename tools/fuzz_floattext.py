"""Long comparison of lambda_adapt.floattext against Python's repr.

    python3 tools/fuzz_floattext.py --count N [--seed S]

Formats N doubles, ``CHUNK`` at a time, and compares every field with
``repr``.  Each chunk is one third each of:

- random 64-bit patterns (every sign, exponent, subnormal, inf, nan);
- short decimals: 1 to 17 random digits times 10^e, e in [-340, 310],
  read with ``float()`` (the doubles whose shortest repr is short);
- one neighbour of each decimal, one ulp below or above at random.

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

from lambda_adapt.floattext import csv_text  # noqa: E402

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


def _first_mismatch(values: np.ndarray) -> str:
    got = csv_text(values[:, None])
    expected = "\n".join(map(repr, values.tolist())) + "\n"
    if got == expected:
        return ""
    for value, text in zip(values.tolist(), got.split("\n")):
        if text != repr(value):
            bits = int(np.float64(value).view(np.uint64))
            return f"bits {bits:#018x}: floattext {text!r}, repr {value!r}"
    return "texts differ in length"


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
        bad = _first_mismatch(values)
        if bad:
            print(f"MISMATCH after {done} values: {bad}")
            return 1
        done += values.size
    print(f"{done} values match repr (seed {args.seed}, "
          f"{time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
