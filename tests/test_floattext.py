"""The vectorized float formatter against Python's own repr."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_adapt.floattext import _BLOCK, csv_text


def reference(table: np.ndarray) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())


def first_mismatch(table: np.ndarray) -> str:
    """'' if the table formats as repr does, else the first bad value."""
    values = table.ravel().tolist()
    got = csv_text(table.reshape(-1, 1))
    if got == "\n".join(map(repr, values)) + "\n":
        return ""
    for value, text in zip(values, got.split("\n")):
        if text != repr(value):
            bits = np.float64(value).view(np.uint64)
            return f"{bits:#018x}: {text!r} != {value!r}"
    return ""


def with_neighbours(values) -> np.ndarray:
    bits = np.asarray(values, dtype=np.float64).view(np.uint64)
    near = np.concatenate([bits - np.uint64(1), bits, bits + np.uint64(1)])
    return near.view(np.float64)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n_cols: st.lists(
    st.lists(st.floats(), min_size=n_cols, max_size=n_cols),
    min_size=1, max_size=20)))
def test_matches_repr(rows):
    table = np.array(rows)
    assert csv_text(table) == reference(table)


def test_matches_repr_on_hard_cases():
    rng = np.random.default_rng(20201)
    powers_of_two = [2.0 ** e for e in range(-1074, 1024)]
    powers_of_ten = [float(f"1e{e}") for e in range(-323, 309)]
    hard = np.concatenate([
        rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64),
        with_neighbours(powers_of_two + powers_of_ten),
        np.arange(1, 100_001, dtype=np.uint64).view(np.float64),
        with_neighbours(2.0 ** 53 + np.arange(-4, 5)),
        [5e-324, 1e16, 9.999999999999999e15, 1e-5, 1e-4,
         0.0, -0.0, np.inf, -np.inf, np.nan],
    ])
    assert first_mismatch(hard) == ""
    # separators across blocks: rows that do not divide a block
    table = hard[:7 * (_BLOCK // 2)].reshape(-1, 7)
    assert csv_text(table) == reference(table)


def test_empty_table():
    assert csv_text(np.empty((0, 3))) == ""
