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


@settings(max_examples=50, deadline=None)
@given(st.lists(st.one_of(st.booleans(), st.sampled_from([0, 1, 0.5, np.nan])),
                min_size=5, max_size=5))
def test_write_boolfield_matches_per_value_formatter(tmp_path_factory, mask):
    grid = GridSpec(np.array([0.0]), np.array([1.0]), np.array([4]))
    out = tmp_path_factory.mktemp("bool")
    rows = (np.concatenate([x, [1.0 if m else 0.0]]) for x, m in zip(grid.nodes(), mask))
    cloud_reference.write_rows(out / "want.csv", ["x1", "member"], rows)
    csvio.write_boolfield(out / "got.csv", grid, np.array(mask))
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()
