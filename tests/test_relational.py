"""Relational joins: broadcast and shuffle equi-joins, the semi-join
contract in both regimes and under the Bloom pre-pass, division."""

import itertools

import numpy as np
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
    """`shuffle_join`, `semi_join`'s exchange regime and `grouped_sequence`
    on lazy `map_batches` inputs never run a `limit=1` execution of the
    upstream to fetch a schema."""
    import datetime

    import ray.data
    from ray.data._internal.execution.operators.limit_operator import LimitOperator
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from opentapioca_ray.stages import relational
    from opentapioca_ray.stages.exchange import arrow_blocks
    from opentapioca_ray.stages.relational import semi_join, shuffle_join
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
    monkeypatch.setattr(relational, "_SEMI_BROADCAST_LIMIT", -1)
    semi = semi_join(lazy(facts), lazy(_dim()), "fk", "k")
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


def _contract_tables(key: str, case: str):
    """(probe, build) tables of one semi-join contract case. Probe: key
    `k` (int64, int32 or string) + int64 `payload` (the row id) + string
    `tag`; build: key `bk` (int64 or string) + an unused `w`. Seeded draws
    from a small key range, so both sides repeat keys; nulls on the probe
    side, the build side or both (an empty side's other side has them)."""
    rng = np.random.default_rng({"int64": 11, "int32": 12, "string": 13}[key])
    ptype = {"int64": pa.int64(), "int32": pa.int32(), "string": pa.string()}[key]
    btype = pa.string() if key == "string" else pa.int64()

    def keys(n, lo, hi, typ, nulls):
        vals = rng.integers(lo, hi, n)
        out = [f"s{v}" if typ == pa.string() else int(v) for v in vals]
        out = [None if nulls and rng.random() < 0.2 else v for v in out]
        return pa.array(out, typ)

    n_probe = 0 if case == "empty_probe" else 60
    n_build = 0 if case == "empty_build" else 30
    probe = pa.table(
        {
            "k": keys(n_probe, 0, 16, ptype, case != "build_nulls"),
            "payload": pa.array(np.arange(n_probe, dtype=np.int64)),
            "tag": pa.array([f"t{i}" for i in range(n_probe)], pa.string()),
        }
    )
    build = pa.table(
        {
            "bk": keys(n_build, 6, 26, btype, case != "probe_nulls"),
            "w": pa.array(np.zeros(n_build, dtype=np.int64)),
        }
    )
    return probe, build


def _contract_rows(tables) -> list:
    """The (k, payload, tag) rows of `tables`, sorted (nulls included)."""
    cols = ("k", "payload", "tag")
    return sorted(
        (r for t in tables for r in zip(*(t.column(c).to_pylist() for c in cols))),
        key=repr,
    )


def _not_exists_model(probe: pa.Table, build: pa.Table, anti: bool) -> list:
    """pandas model of the contract: a probe row matches when its key is
    non-null and equals some non-null build key (SQL `EXISTS`); the
    anti-join keeps exactly the rows that do not match (`NOT EXISTS`).
    Returns the kept probe rows as `_contract_rows`."""
    exists = probe.to_pandas()["k"].isin(build.to_pandas()["bk"].dropna())
    keep = (~exists if anti else exists).to_numpy(dtype=bool)
    return _contract_rows([probe.filter(pa.array(keep))])


@pytest.mark.parametrize(
    "op,regime",
    [
        ("semi_join", "broadcast"),
        ("semi_join", "exchange"),
        ("bloom_semi_join", "broadcast"),
        ("bloom_semi_join", "exchange"),
    ],
)
def test_semi_join_contract(ray_session, monkeypatch, op, regime):
    """Both `semi_join` regimes and `bloom_semi_join` (verifying through
    either) give the pandas `NOT EXISTS` model's rows for int64 keys, an
    int32 probe against an int64 build, and string keys, with nulls and
    duplicate keys on both sides, an empty build and an empty probe; every
    output block that has a schema has exactly the probe schema. All
    failing cases are reported together."""
    from opentapioca_ray.stages import relational
    from opentapioca_ray.stages.exchange import arrow_blocks, driver_dataset

    monkeypatch.setattr(
        relational,
        "_SEMI_BROADCAST_LIMIT",
        relational._SEMI_BROADCAST_LIMIT if regime == "broadcast" else -1,
    )
    failures = []
    cases = ("probe_nulls", "build_nulls", "both_nulls", "empty_build", "empty_probe")
    # Bloom filters: 64 bits (saturated, the exact verify decides) and 4096
    # bits (selective, the hashes decide)
    bits = (None,) if op == "semi_join" else (1 << 6, 1 << 12)
    for key in ("int64", "int32", "string"):
        for case in cases:
            probe, build = _contract_tables(key, case)
            # three probe blocks: nulls land in some blocks and not others
            third = -(-probe.num_rows // 3)
            probe_ds = driver_dataset(
                [probe.slice(i * third, third) for i in range(3)]
            )
            build_ds = driver_dataset(build)
            for anti, n_bits in itertools.product((False, True), bits):
                name = f"{key}/{case}/{'anti' if anti else 'semi'}/{n_bits}"
                try:
                    if op == "semi_join":
                        out = relational.semi_join(
                            probe_ds, build_ds, "k", "bk", anti=anti
                        )
                    else:
                        out = relational.bloom_semi_join(
                            probe_ds, build_ds, "k", "bk", anti=anti, n_bits=n_bits
                        )
                    blocks = list(arrow_blocks(out))
                except Exception as exc:  # noqa: BLE001 - reported per case
                    failures.append(f"{name}: {type(exc).__name__}: {exc}"[:200])
                    continue
                # Ray turns an empty probe's blocks into schema-less ones
                blocks = [b for b in blocks if b.num_columns]
                bad = [
                    b.schema for b in blocks
                    if not b.schema.equals(probe.schema, check_metadata=True)
                ]
                if bad:
                    failures.append(f"{name}: schema {bad[0]} != {probe.schema}")
                    continue
                rows = _contract_rows(blocks)
                want = _not_exists_model(probe, build, anti)
                if rows != want:
                    failures.append(f"{name}: rows {rows[:4]}... != {want[:4]}...")
    assert failures == []


def test_semi_joins_defined_only_in_relational():
    """`stages/relational.py` is the one module that defines semi-joins:
    no other module of the engine defines a function whose name contains
    `semi_join`, or one named `keep_keys`."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1]
    paths = [
        root / "__ray_entry__.py", *sorted((root / "opentapioca_ray").rglob("*.py"))
    ]
    defs = []
    for path in paths:
        if path == root / "opentapioca_ray" / "stages" / "relational.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                "semi_join" in node.name or node.name == "keep_keys"
            ):
                defs.append(f"{path.relative_to(root)}:{node.lineno} {node.name}")
    assert len(paths) > 50
    assert defs == []
