"""The shared query memo of `__ray_entry__` (`_memo`): one build per
input state, and a parquet rewritten at the same path rebuilds."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def _write_lineitem(path, n):
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table(
            {
                "l_partkey": pa.array(range(n), pa.int64()),
                "l_suppkey": pa.array([k % 3 for k in range(n)], pa.int64()),
            }
        ),
        path,
    )


def test_memo_rebuilds_a_rewritten_input(ray_session, tmp_path):
    import __ray_entry__ as entry

    sf_dir = str(tmp_path)
    _write_lineitem(tmp_path / "lineitem.parquet", 5)
    first = entry._partsupp_directed(sf_dir)
    assert first.count() == 10  # both directions of 5 distinct edges
    assert entry._partsupp_directed(sf_dir) is first  # same input: memo hit

    _write_lineitem(tmp_path / "lineitem.parquet", 12)
    second = entry._partsupp_directed(sf_dir)
    assert second is not first
    assert second.count() == 24
    assert entry._partsupp_directed(sf_dir) is second
