import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cloud_reference
from viakit import csvio
from viakit.common import INF
from viakit.kernels import GridSpec

SPECIAL = [INF, -INF, 2 * INF, -2 * INF, np.nextafter(INF, 0.0), -np.nextafter(INF, 0.0),
           np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
           0.1, 1 / 3, 1e17, -123456789.125]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4).flatmap(lambda k: st.lists(
    st.lists(values, min_size=k, max_size=k), min_size=0, max_size=5).map(lambda r: (k, r))),
       st.integers(0, 4))
def test_write_rows_matches_per_value_formatter(tmp_path_factory, shaped, split):
    """The table writer gives the bytes of one fmt17 call per value, for the
    sentinels, values beyond them, inf, nan, signed zeros, subnormals, 0 and 1
    rows, and for a table passed whole or as column blocks."""
    k, rows = shaped
    table = np.array(rows, dtype=float).reshape(len(rows), k)
    out = tmp_path_factory.mktemp("csv")
    header = [f"c{i}" for i in range(k)]
    cloud_reference.write_rows(out / "want.csv", header, table)
    csvio._write_rows(out / "whole.csv", header, table)
    split = min(split, k)
    csvio._write_rows(out / "split.csv", header, table[:, :split], table[:, split:])
    want = (out / "want.csv").read_bytes()
    assert (out / "whole.csv").read_bytes() == want
    assert (out / "split.csv").read_bytes() == want


@pytest.mark.parametrize("n", [0, 1, csvio.BLOCK - 1, csvio.BLOCK, csvio.BLOCK + 1,
                               2 * csvio.BLOCK + 1])
def test_write_rows_across_block_boundaries(tmp_path, n):
    """Tables shorter, as long as and longer than one block give the
    per-value formatter's bytes, whole or as two column blocks, and leave
    the caller's arrays, sentinels and values beyond them included, as
    they were."""
    rng = np.random.default_rng(n)
    for k in range(1, 5):
        table = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-300, 300, (n, k))
        special = rng.random((n, k)) < 0.5
        table[special] = rng.choice(SPECIAL, special.sum())
        left, right = table[:, :(k + 1) // 2], table[:, (k + 1) // 2:]
        before = [a.tobytes() for a in (table, left, right)]
        header = [f"c{i}" for i in range(k)]
        cloud_reference.write_rows(tmp_path / "want.csv", header, table)
        csvio._write_rows(tmp_path / "whole.csv", header, table)
        csvio._write_rows(tmp_path / "split.csv", header, left, right)
        want = (tmp_path / "want.csv").read_bytes()
        assert want.count(b"\n") == n + 1
        assert (tmp_path / "whole.csv").read_bytes() == want
        assert (tmp_path / "split.csv").read_bytes() == want
        assert [a.tobytes() for a in (table, left, right)] == before


NAN_BITS = [0x7ff8000000000000, 0x7ff8000000000001, 0xfff8000000000000,
            0xfff8000000000001, 0x7ff0000000000001, 0xffffffffffffffff]
BEYOND = [INF, -INF, 2 * INF, -2 * INF, np.nextafter(INF, 0.0), -np.nextafter(INF, 0.0),
          np.nextafter(INF, np.inf), 1e308, np.inf, -np.inf]


@pytest.mark.parametrize("n", [csvio.BLOCK - 1, csvio.BLOCK + 1, 2 * csvio.BLOCK + 1])
def test_write_rows_with_heavy_repeats(tmp_path, n):
    """Columns of few distinct values in long runs, where each block reuses
    one text per distinct bit pattern, give the per-value formatter's bytes:
    0.0 and -0.0 alternating, NaNs of different payloads and signs, the
    sentinels, values beyond them and +/-inf, and short repeated runs."""
    rng = np.random.default_rng(n)
    rows = np.arange(n)
    zeros = np.where(rows % 2, -0.0, 0.0)
    nans = np.array(NAN_BITS, dtype=np.uint64)[rows % len(NAN_BITS)].view(np.float64)
    beyond = np.array(BEYOND)[rng.integers(0, len(BEYOND), n)]
    runs = np.repeat(np.append(rng.standard_normal(6), [0.0, -0.0]), -(-n // 8))[:n]
    levels = np.repeat(np.linspace(0.0, 1.0, 121), -(-n // 121))[:n]
    columns = [zeros, nans, beyond, runs, levels[:, None], np.stack([runs[::-1], zeros], 1)]
    table = np.column_stack(columns)
    before = [c.tobytes() for c in columns]
    header = [f"c{i}" for i in range(table.shape[1])]
    cloud_reference.write_rows(tmp_path / "want.csv", header, table)
    csvio._write_rows(tmp_path / "got.csv", header, *columns)
    want = (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "got.csv").read_bytes() == want
    assert {b"0", b"-0", b"nan", b"inf", b"-inf"} <= set(want.replace(b"\n", b",").split(b","))
    assert [c.tobytes() for c in columns] == before
    csvio._write_rows(tmp_path / "empty.csv", [], np.empty((n, 0)))
    assert (tmp_path / "empty.csv").read_bytes() == b"\n" * (n + 1)


def _scatter_specials(rng, column):
    """column with about 5% of its rows set to SPECIAL values and NaNs of NAN_BITS."""
    odd = np.concatenate([SPECIAL, np.array(NAN_BITS, dtype=np.uint64).view(np.float64)])
    rows = np.flatnonzero(rng.random(len(column)) < 0.05)
    column[rows] = odd[rows % len(odd)]
    return column


def test_write_rows_chooses_per_column_and_block(tmp_path):
    """A column is formatted in place in a block where more than half its
    rows hold distinct bit patterns and through its distinct texts where
    not, beside columns that always or never repeat, and every choice gives
    the per-value formatter's bytes: all distinct in block 0, eight values
    in block 1, exactly BLOCK / 2 patterns (2 * keys == rows) in block 2,
    BLOCK / 2 + 1 in block 3 and 51 of a 100-row tail; SPECIAL values and
    NaNs of different payloads scattered through the distinct rows."""
    rng = np.random.default_rng(27)
    B = csvio.BLOCK
    half = rng.standard_normal(B // 2)
    mixed = np.concatenate([
        _scatter_specials(rng, rng.standard_normal(B) * 10.0 ** rng.integers(-300, 300, B)),
        np.repeat(np.append(rng.standard_normal(6), [0.0, -0.0]), B // 8),
        half[rng.permutation(np.arange(B) % (B // 2))],
        np.append(half, rng.standard_normal(B // 2 + 1))[rng.permutation(np.arange(B) % (B // 2 + 1))],
        rng.standard_normal(51)[np.arange(100) % 51]])
    assert len(mixed) > 2 * B and len(np.unique(mixed[2 * B:3 * B].view(np.uint64))) == B // 2
    distinct = _scatter_specials(rng, rng.standard_normal(len(mixed)))
    levels = np.repeat(np.linspace(0.0, 1.2, 121), -(-len(mixed) // 121))[:len(mixed)]
    columns = [levels, mixed, distinct, np.stack([levels[::-1], mixed[::-1]], 1)]
    header = [f"c{i}" for i in range(5)]
    cloud_reference.write_rows(tmp_path / "want.csv", header, np.column_stack(columns))
    csvio._write_rows(tmp_path / "got.csv", header, *columns)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_graph_cloud_shaped_table(tmp_path):
    """A graph cloud's columns, 121 repeated t levels, distinct x (with SPECIAL
    values and NaNs of NAN_BITS scattered in) and 401 repeated y, give the
    per-value formatter's bytes."""
    rng = np.random.default_rng(401)
    t = np.repeat(np.linspace(0.0, 1.2, 121), 401)
    y = np.tile(-1.01 * np.linspace(-1.0, 1.0, 401), 121)
    x = _scatter_specials(rng, -(y / 1.01) * (1.0 - 1.01 * t) + 1e-3 * rng.standard_normal(len(t)))
    table = np.column_stack([t, x, y])
    cloud_reference.write_rows(tmp_path / "want.csv", ["t", "x1", "y1"], table)
    csvio._write_rows(tmp_path / "got.csv", ["t", "x1", "y1"], table)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.one_of(st.booleans(), st.sampled_from([0, 1, 0.5, np.nan])),
                min_size=5, max_size=5))
def test_write_boolfield_matches_per_value_formatter(tmp_path_factory, mask):
    grid = GridSpec(np.array([0.0]), np.array([1.0]), np.array([4]))
    out = tmp_path_factory.mktemp("bool")
    rows = (np.concatenate([x, [1.0 if m else 0.0]]) for x, m in zip(grid.nodes(), mask))
    cloud_reference.write_rows(out / "want.csv", ["x1", "member"], rows)
    csvio.write_table(out / "got.csv", x=grid.nodes(), member=np.array(mask, dtype=bool))
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()
