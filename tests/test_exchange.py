"""Coarse-partition exchange primitives (stages/exchange.py): the
correctness contract is that ONE hash(key) % P shuffle + a vectorized
per-partition kernel reproduces a per-key `groupby(key).map_groups`."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from opentapioca_ray.stages.exchange import (
    _coarse_codes,
    arrow_blocks,
    block_refs,
    coarse_group_apply,
    driver_dataset,
    segment_ids,
    segment_starts,
)


def test_coarse_codes_int_and_string_deterministic():
    ints = pa.array([0, 1, -5, 2**40, -(2**40)], type=pa.int64())
    a = _coarse_codes(ints, 128).to_pylist()
    b = _coarse_codes(ints, 128).to_pylist()
    assert a == b
    assert all(0 <= c < 128 for c in a)
    strs = pa.array(["", "a", "b", "a"], type=pa.string())
    sa = _coarse_codes(strs, 64).to_pylist()
    assert sa[1] == sa[3]  # same key -> same partition
    assert all(0 <= c < 64 for c in sa)
    # non-power-of-two modulus stays in range for negative ints
    assert all(0 <= c < 100 for c in _coarse_codes(ints, 100).to_pylist())


def test_segment_helpers():
    keys = np.array([3, 3, 5, 7, 7, 7])
    assert segment_starts(keys).tolist() == [0, 2, 3]
    assert segment_ids(keys).tolist() == [0, 0, 1, 2, 2, 2]
    assert segment_starts(np.array([])).tolist() == []


def test_coarse_group_apply_matches_per_key_groupby(ray_session):
    import ray.data

    rng = np.random.RandomState(3)
    n = 5_000
    df = pd.DataFrame(
        {
            "k": rng.randint(-50, 50, size=n).astype(np.int64),
            "v": rng.randn(n),
        }
    )
    ds = ray.data.from_pandas(df)

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        # per logical key: count + sum, all keys of the partition at once
        out = part.groupby("k", sort=False)["v"].agg(["count", "sum"]).reset_index()
        return out.rename(columns={"count": "n", "sum": "total"})

    got = (
        coarse_group_apply(ds, "k", kernel, n_parts=16)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = (
        df.groupby("k")["v"].agg(["count", "sum"]).reset_index()
        .rename(columns={"count": "n", "sum": "total"})
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert got["k"].tolist() == want["k"].tolist()
    assert np.allclose(got["total"].to_numpy(), want["total"].to_numpy())
    assert got["n"].astype(int).tolist() == want["n"].astype(int).tolist()
    # every logical key appears in exactly one partition's output
    assert got["k"].is_unique


def test_coarse_group_apply_string_keys(ray_session):
    import ray.data

    df = pd.DataFrame({"k": ["x", "y", "x", "z", "y", "x"], "v": [1, 2, 3, 4, 5, 6]})
    ds = ray.data.from_pandas(df)

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        return part.groupby("k", sort=False)["v"].sum().reset_index()

    got = {
        r["k"]: r["v"]
        for r in coarse_group_apply(ds, "k", kernel, n_parts=8).take_all()
    }
    assert got == {"x": 10, "y": 7, "z": 4}


def test_popcount64_matches_python():
    from opentapioca_ray.stages.dedup import _popcount64

    rng = np.random.RandomState(11)
    vals = rng.randint(0, 2**63, size=200, dtype=np.int64).astype(np.uint64)
    vals[:3] = [0, 1, np.uint64(2**64 - 1)]
    got = _popcount64(vals)
    want = [bin(int(v)).count("1") for v in vals]
    assert got.tolist() == want


def test_arrow_blocks_runs_a_lazy_plan_once(ray_session, ray_execs):
    """A lazy pandas-lineage dataset is executed once by `arrow_blocks`
    (no second run to fetch a schema) and every block arrives as a
    pa.Table; a materialized one is not executed again."""
    import ray.data

    df = pd.DataFrame({"k": np.arange(60) % 7, "v": np.arange(60)})
    lazy = ray.data.from_pandas(df).groupby("k").map_groups(
        lambda g: g.assign(n=len(g)), batch_format="pandas"
    )
    start = ray_execs()
    blocks = list(arrow_blocks(lazy))
    assert ray_execs() - start == 1
    assert blocks and all(isinstance(t, pa.Table) for t in blocks)
    got = pa.concat_tables(blocks).to_pandas().sort_values("v")
    assert got["v"].tolist() == list(range(60))
    assert (got["n"] == got["k"].map(df["k"].value_counts())).all()

    done = lazy.materialize()
    start = ray_execs()
    assert sum(t.num_rows for t in arrow_blocks(done)) == 60
    assert len(block_refs(done)) == done.num_blocks()
    assert ray_execs() == start


def test_sum_partials_regimes_agree(ray_session, monkeypatch, ray_execs):
    """`sum_partials` over a materialized dataset and over driver-side
    blocks: the driver group-by (a collect of its result runs no execution)
    and the coarse exchange give the same sums per composite key, in the
    form the partials came in; null keys are dropped, and an input without
    rows gives an empty typed result."""
    import ray.data

    from opentapioca_ray.stages import exchange
    from opentapioca_ray.stages.exchange import sum_partials

    rng = np.random.default_rng(9)
    n = 400
    schema = pa.schema([("kind", pa.int8()), ("key", pa.string()), ("count", pa.int64())])
    keys = [f"k{v}" for v in rng.integers(0, 30, size=n)]
    keys[5] = None
    parts = pa.table(
        {
            "kind": pa.array(rng.integers(0, 2, size=n), pa.int8()),
            "key": pa.array(keys, pa.string()),
            "count": pa.array(rng.integers(1, 5, size=n), pa.int64()),
        }
    )
    tables = [parts.slice(0, 150), parts.slice(150, 0), parts.slice(150)]
    want = (
        parts.to_pandas().dropna().groupby(["kind", "key"])["count"].sum().to_dict()
    )

    def sums(out):
        blocks = out if isinstance(out, list) else arrow_blocks(out)
        t = pa.concat_tables(
            [b.select(schema.names).cast(schema) for b in blocks if b.num_rows]
        )
        return dict(zip(zip(*[t.column(c).to_pylist() for c in ("kind", "key")]),
                        t.column("count").to_pylist()))

    materialized = ray.data.from_arrow(tables).materialize()
    for source in (materialized, tables):
        start = ray_execs()
        out = sum_partials(source, ["kind", "key"], schema)
        assert isinstance(out, list) == (source is tables)
        assert sums(out) == want
        assert ray_execs() == start
        with monkeypatch.context() as m:
            m.setattr(exchange, "_SUM_DRIVER_LIMIT", 0)
            out = sum_partials(source, ["kind", "key"], schema)
            assert isinstance(out, list) == (source is tables)
            assert sums(out) == want
    for source in ([parts.slice(0, 0)], ray.data.from_arrow(parts.slice(0, 0)).materialize()):
        out = sum_partials(source, ["kind", "key"], schema)
        blocks = out if isinstance(out, list) else list(arrow_blocks(out))
        assert [t.schema for t in blocks] == [schema] and blocks[0].num_rows == 0


_DRIVER_SCHEMA = pa.schema([("id", pa.int64()), ("name", pa.string())])


def _driver_tables(n_blocks: int) -> list:
    """`n_blocks` tables of `_DRIVER_SCHEMA` (one empty table for 0)."""
    if not n_blocks:
        return [_DRIVER_SCHEMA.empty_table()]
    return [
        pa.table(
            {"id": list(range(10 * b, 10 * b + 4 + b)),
             "name": [f"n{i}" for i in range(4 + b)]},
            schema=_DRIVER_SCHEMA,
        )
        for b in range(n_blocks)
    ]


@pytest.mark.parametrize("n_blocks", [1, 3, 0])
def test_driver_dataset_matches_from_arrow(ray_session, ray_execs, n_blocks):
    """`driver_dataset` builds the Dataset that
    `ray.data.from_arrow(...).materialize()` does (rows, schema, blocks,
    count), and collecting, counting or materializing it runs no Ray Data
    execution. It builds its plan from Ray internals, so a Ray upgrade
    that changes them fails here; maps and unions downstream still run."""
    import ray.data

    tables = _driver_tables(n_blocks)
    want = ray.data.from_arrow(tables).materialize()
    start = ray_execs()
    got = driver_dataset(tables if n_blocks != 1 else tables[0])
    assert got.num_blocks() == want.num_blocks() == len(tables)
    assert got.count() == want.count() == sum(t.num_rows for t in tables)
    assert got.schema().names == want.schema().names == _DRIVER_SCHEMA.names
    assert got.schema().types == want.schema().types == _DRIVER_SCHEMA.types
    got_blocks = list(arrow_blocks(got))
    assert [t.to_pydict() for t in got_blocks] == [
        t.to_pydict() for t in arrow_blocks(want)
    ]
    again = got.materialize()
    assert again.count() == got.count()
    assert [t.to_pydict() for t in arrow_blocks(again)] == [t.to_pydict() for t in tables]
    assert ray_execs() == start

    doubled = got.map_batches(
        lambda b: b.set_column(0, "id", pc.multiply(b.column("id"), 2)),
        batch_format="pyarrow",
    )
    assert sorted(r["id"] for r in doubled.take_all()) == sorted(
        2 * i for t in tables for i in t.column("id").to_pylist()
    )
    union = got.union(driver_dataset(_driver_tables(1)))
    assert union.count() == got.count() + _driver_tables(1)[0].num_rows


def test_driver_slices_run_no_metadata_task(ray_session, ray_execs, from_arrow_calls):
    """`driver_slices` builds no `from_arrow_refs` Dataset (whose remote
    metadata task per block the driver regimes used to pay) and a collect
    of its slices runs no execution."""
    from opentapioca_ray.stages.exchange import driver_slices

    table = pa.table({"id": np.arange(100, dtype=np.int64)})
    start = ray_execs()
    ds = driver_slices(table)
    assert ds.num_blocks() > 1
    assert pa.concat_tables(arrow_blocks(ds)).equals(table)
    assert ray_execs() == start
    assert from_arrow_calls() == 0


def test_from_arrow_only_in_exchange():
    """`stages/exchange.py:driver_dataset` is the one driver-to-Dataset
    path: no other module of the engine calls `from_arrow(...)` (each call
    pays a remote metadata task per block). `from_arrow_refs` over
    worker-held refs is a different call and stays allowed."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1]
    paths = [root / "__ray_entry__.py", *sorted((root / "opentapioca_ray").rglob("*.py"))]
    calls = []
    for path in paths:
        if path == root / "opentapioca_ray" / "stages" / "exchange.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name == "from_arrow":
                    calls.append(f"{path.relative_to(root)}:{node.lineno}")
    assert len(paths) > 50
    assert calls == []
