"""Broadcast map-side join: inner/left semantics, uniqueness validation."""

import pyarrow as pa
import pytest


def _dim():
    return pa.table(
        {"k": pa.array([10, 20, 30], pa.int64()), "name": ["a", "b", "c"]}
    )


def test_broadcast_join_inner(ray_session):
    import ray.data

    from opentapioca_ray.stages.relational import broadcast_join

    facts = ray.data.from_arrow(
        pa.table({"fk": pa.array([20, 10, 99, 20], pa.int64()), "x": [1, 2, 3, 4]})
    )
    out = broadcast_join(facts, _dim(), "fk", "k", ["name"]).take_all()
    assert [(r["fk"], r["x"], r["name"]) for r in out] == [
        (20, 1, "b"),
        (10, 2, "a"),
        (20, 4, "b"),
    ]


def test_broadcast_join_left(ray_session):
    import ray.data

    from opentapioca_ray.stages.relational import broadcast_join

    facts = ray.data.from_arrow(
        pa.table({"fk": pa.array([99, 30], pa.int64()), "x": [1, 2]})
    )
    out = broadcast_join(facts, _dim(), "fk", "k", ["name"], how="left").take_all()
    assert [(r["fk"], r["name"]) for r in out] == [(99, None), (30, "c")]


def test_broadcast_join_rejects_dup_keys(ray_session):
    import ray.data

    from opentapioca_ray.stages.relational import broadcast_join

    dup = pa.table({"k": pa.array([1, 1], pa.int64()), "name": ["a", "b"]})
    facts = ray.data.from_arrow(pa.table({"fk": pa.array([1], pa.int64())}))
    with pytest.raises(ValueError, match="not unique"):
        broadcast_join(facts, dup, "fk", "k", ["name"])


def test_semi_join_modes_equivalent(ray_session, monkeypatch):
    import ray.data

    from opentapioca_ray.stages import relational
    from opentapioca_ray.stages.relational import semi_join

    probe = ray.data.from_items(
        [{"id": i, "val": f"v{i}"} for i in range(50)]
    )
    build = ray.data.from_items([{"k": i * 3} for i in range(10)])  # 0,3,..27
    want_semi = sorted(i for i in range(50) if i % 3 == 0 and i <= 27)
    want_anti = sorted(i for i in range(50) if not (i % 3 == 0 and i <= 27))
    for mode, limit in [("broadcast", relational._SEMI_BROADCAST_LIMIT), ("shuffle", 0)]:
        monkeypatch.setattr(relational, "_SEMI_BROADCAST_LIMIT", limit)
        semi = semi_join(probe, build, "id", "k").take_all()
        anti = semi_join(probe, build, "id", "k", anti=True).take_all()
        assert sorted(r["id"] for r in semi) == want_semi, mode
        assert sorted(r["id"] for r in anti) == want_anti, mode
        # payload columns survive the exchange
        assert all(r["val"] == f"v{r['id']}" for r in semi)


def test_semi_join_auto_falls_back_to_shuffle(ray_session, monkeypatch):
    import ray.data

    from opentapioca_ray.stages import relational
    from opentapioca_ray.stages.relational import semi_join

    probe = ray.data.from_items([{"id": i} for i in range(40)])
    build = ray.data.from_items([{"k": i} for i in range(0, 40, 2)])
    monkeypatch.setattr(relational, "_SEMI_BROADCAST_LIMIT", 5)
    out = semi_join(probe, build, "id", "k").take_all()
    assert sorted(r["id"] for r in out) == list(range(0, 40, 2))


def test_bloom_semi_join_matches_exact(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.relational import bloom_semi_join, semi_join

    rng = np.random.RandomState(7)
    probe = pa.table(
        {"k": rng.randint(0, 1000, 5000).astype(np.int64),
         "payload": np.arange(5000, dtype=np.int64)}
    )
    build = pa.table({"bk": (np.arange(300, dtype=np.int64) * 3) % 1000})
    p = ray.data.from_arrow(probe).materialize()
    b = ray.data.from_arrow(build).materialize()
    for anti in (False, True):
        got = (
            bloom_semi_join(p, b, "k", "bk", anti=anti, n_bits=1 << 12)
            .to_pandas().sort_values("payload").reset_index(drop=True)
        )
        want = (
            semi_join(p, b, "k", "bk", anti=anti)
            .to_pandas().sort_values("payload").reset_index(drop=True)
        )
        assert got.equals(want), f"anti={anti}"


def test_bloom_semi_join_string_keys(ray_session):
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.relational import bloom_semi_join

    p = ray.data.from_arrow(
        pa.table({"k": [f"u{i}" for i in range(50)]})
    ).materialize()
    b = ray.data.from_arrow(pa.table({"bk": [f"u{i}" for i in range(0, 50, 5)]}))
    got = bloom_semi_join(p, b, "k", "bk", n_bits=1 << 10).to_pandas()
    assert sorted(got["k"]) == sorted(f"u{i}" for i in range(0, 50, 5))


def test_bloom_semi_join_empty_build(ray_session):
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.relational import bloom_semi_join

    p = ray.data.from_arrow(pa.table({"k": [1, 2, 3]})).materialize()
    b = ray.data.from_arrow(pa.table({"bk": pa.array([], type=pa.int64())}))
    assert bloom_semi_join(p, b, "k", "bk").count() == 0
    assert bloom_semi_join(p, b, "k", "bk", anti=True).count() == 3


def test_relational_division(ray_session):
    import ray.data

    from opentapioca_ray.stages.relational import relational_division

    rows = [
        {"k": 1, "a": "x"}, {"k": 1, "a": "y"}, {"k": 1, "a": "x"},
        {"k": 2, "a": "x"},
        {"k": 3, "a": "y"}, {"k": 3, "a": "x"},
    ]
    out = relational_division(
        ray.data.from_items(rows).repartition(3), "k", "a"
    ).to_pandas()
    assert sorted(out["k"].tolist()) == [1, 3]


def test_shuffle_joins_run_no_limit_execution(ray_session, monkeypatch):
    """`shuffle_join`, `shuffle_semi_join` and `grouped_sequence` on lazy
    `map_batches` inputs never run a `limit=1` execution of the upstream
    to fetch a schema."""
    import datetime

    import ray.data
    from ray.data._internal.execution.operators.limit_operator import LimitOperator
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from opentapioca_ray.stages.exchange import arrow_blocks
    from opentapioca_ray.stages.relational import shuffle_join, shuffle_semi_join
    from opentapioca_ray.stages.windows import grouped_sequence

    limits = []
    original = StreamingExecutor.execute

    def execute(self, dag, *args, **kwargs):
        stack = [dag]
        while stack:
            op = stack.pop()
            limits.append(isinstance(op, LimitOperator))
            stack.extend(op.input_dependencies)
        return original(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)

    def lazy(table):
        return ray.data.from_arrow(table).map_batches(
            lambda b: b, batch_format="pyarrow"
        )

    facts = pa.table({"fk": pa.array([20, 10, 99, 20], pa.int64()), "x": [1, 2, 3, 4]})

    def rows(ds, cols):
        t = pa.concat_tables([b for b in arrow_blocks(ds) if b.num_rows])
        return sorted(zip(*(t.column(c).to_pylist() for c in cols)))

    joined = shuffle_join(lazy(facts), lazy(_dim()), "fk", "k", ["name"], n_parts=4)
    assert rows(joined, ["fk", "x", "name"]) == [(10, 2, "a"), (20, 1, "b"), (20, 4, "b")]
    semi = shuffle_semi_join(lazy(facts), lazy(_dim()), "fk", "k", n_parts=4)
    assert rows(semi, ["fk", "x"]) == [(10, 2), (20, 1), (20, 4)]
    t0 = datetime.datetime(2024, 1, 1)
    events = pa.table(
        {
            "user_id": pa.array([1, 1, 2], pa.int64()),
            "ts": pa.array([t0, t0 + datetime.timedelta(seconds=1), t0]),
            "event_type": ["b", "a", "x"],
        }
    )
    seq = grouped_sequence(lazy(events), "user_id", "ts", "event_type")
    assert rows(seq, ["user_id", "seq"]) == [(1, "b,a"), (2, "x")]
    assert limits and not any(limits)
