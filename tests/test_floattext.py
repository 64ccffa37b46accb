"""The bulk number formatter of the result files gives the bytes of ``repr``."""

import numpy as np
from hypothesis import given, settings, strategies as st

from sparselag import _floattext
from sparselag._floattext import float_texts, labels, lines
from sparselag.checks import float_edge_cases

_BLOCK = _floattext._BLOCK


def _assert_repr(values):
    values = np.asarray(values, dtype=float)
    got = float_texts(values)
    expected = [repr(v).encode() for v in values.tolist()]
    if got != expected:
        wrong = [(want, text) for text, want in zip(got, expected) if text != want]
        raise AssertionError(f"{len(got)} texts for {len(expected)} values; differ: {wrong[:5]}")


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=50))
def test_any_floats(values):
    # NaN, the infinities, subnormals and signed zeros included
    _assert_repr(values)


def test_edge_cases():
    edges = float_edge_cases()
    assert np.isnan(edges).any() and np.isinf(edges).any() and (edges == 0).any()
    _assert_repr(edges)


def test_random_bit_patterns():
    # most with exponents inside the exact range, 2^-20 .. 2^50; repr of the others,
    # mostly huge or tiny, costs several microseconds each
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2 ** 64, size=550_000, dtype=np.uint64)
    exponents = rng.integers(1003, 1073, size=500_000, dtype=np.uint64)
    bits[:500_000] = (bits[:500_000] & np.uint64(0x800FFFFFFFFFFFFF)) | (exponents << np.uint64(52))
    _assert_repr(bits.view(np.float64))


def test_short_decimals_and_exact_binary_fractions():
    rng = np.random.default_rng(7)
    wide = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-8, 17, 20_000)
    rounded = [float(f"{x:.{n}g}") for x, n in zip(wide.tolist(), rng.integers(1, 18, 20_000))]
    integers = rng.integers(-10 ** 15, 10 ** 15, 20_000).astype(float)
    fractions = rng.integers(1, 2 ** 50, 20_000) * 2.0 ** -rng.integers(1, 40, 20_000)
    _assert_repr(np.concatenate([rounded, integers, fractions]))


def test_most_standard_normals_take_the_exact_path():
    # a regression that sent every value to repr would still pass the tests above
    sample = np.random.default_rng(0).standard_normal(10_000)
    assert _floattext._digits(sample)[-1].mean() >= 0.9


@st.composite
def block_edge_tables(draw):
    """1-3 label and 1-3 numeric columns in a drawn order, with a row count at or next to a
    block edge: (columns, the texts of each column's cells)."""
    rows = draw(st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    numbers = st.one_of(st.sampled_from(float_edge_cases().tolist()), st.floats(width=64), st.just(float("nan")))
    label_pool = st.lists(st.text("ab-_.09\u00e9", max_size=4).map(str.encode), min_size=1, max_size=8)
    columns, cells = [], []
    for kind in draw(st.permutations(["label"] * draw(st.integers(1, 3)) + ["number"] * draw(st.integers(1, 3)))):
        if kind == "label":
            texts = draw(label_pool)
            picked = [texts[i] for i in rng.integers(0, len(texts), rows)]
            columns.append(labels(picked))
            cells.append(picked)
        else:
            pool = np.array(draw(st.lists(numbers, min_size=1, max_size=12)))
            values = pool[rng.integers(0, len(pool), rows)]
            columns.append(values)
            cells.append([b"" if v != v else repr(v).encode() for v in values.tolist()])
    return columns, cells


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(block_edge_tables())
def test_lines_at_block_edges(table):
    # every row, across block edges, is its cells joined by commas: labels as given,
    # numbers as repr, NaN as an empty cell
    columns, cells = table
    assert lines(*columns) == b"".join(b",".join(row) + b"\n" for row in zip(*cells))
