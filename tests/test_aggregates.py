import numpy as np
import pyarrow as pa
import pytest


def test_partial_sum_count_matches_plain_groupby(ray_session):
    import ray.data
    from ray.data.aggregate import Count, Sum

    from opentapioca_ray.stages.aggregates import partial_sum_count

    rows = [
        {"k": i % 7, "x": float(i), "y": float(i * i)} for i in range(500)
    ]
    ds = ray.data.from_items(rows)
    got = {
        r["k"]: (r["sx"], r["sy"], r["n"])
        for r in partial_sum_count(
            ds, "k", ["x", "y"], alias={"x": "sx", "y": "sy", "count": "n"}
        ).take_all()
    }
    want = {
        r["k"]: (r["sx"], r["sy"], r["n"])
        for r in ds.groupby("k")
        .aggregate(Sum("x", alias_name="sx"), Sum("y", alias_name="sy"), Count(alias_name="n"))
        .take_all()
    }
    assert got == want


def test_histogram_quantiles_type1(ray_session):
    import ray.data

    from opentapioca_ray.stages.aggregates import histogram_quantiles

    vals = list(range(1, 11))  # 1..10
    ds = ray.data.from_items([{"v": v} for v in vals])
    out = histogram_quantiles(ds, "v", [0.1, 0.25, 0.5, 0.75, 0.9])
    got = dict(zip(out.column("p_e4").to_pylist(), out.column("value").to_pylist()))
    # type-1: smallest value with cumulative count >= ceil(p*n)
    assert got == {1000: 1, 2500: 3, 5000: 5, 7500: 8, 9000: 9}


def test_histogram_quantiles_cardinality_guard(ray_session):
    import ray.data

    from opentapioca_ray.stages.aggregates import histogram_quantiles

    ds = ray.data.from_items([{"v": i} for i in range(100)])
    with pytest.raises(ValueError, match="cardinality"):
        histogram_quantiles(ds, "v", [0.5], limit=10)


def test_broadcast_semi_and_anti_join(ray_session):
    import ray.data

    from opentapioca_ray.stages.relational import broadcast_semi_join, distinct_keys

    facts = ray.data.from_items([{"id": i, "tag": "even" if i % 2 == 0 else "odd"} for i in range(20)])
    evens = distinct_keys(facts.filter(expr="tag == 'even'"), "id")
    assert list(evens) == list(range(0, 20, 2))
    semi = broadcast_semi_join(facts, evens, "id").take_all()
    anti = broadcast_semi_join(facts, evens, "id", anti=True).take_all()
    assert sorted(r["id"] for r in semi) == list(range(0, 20, 2))
    assert sorted(r["id"] for r in anti) == list(range(1, 20, 2))
    # empty key set: semi keeps nothing, anti keeps all
    none = broadcast_semi_join(facts, np.array([], dtype=np.int64), "id").take_all()
    assert none == []


def test_redact_batch_rules_and_counts(ray_session):
    from opentapioca_ray.functions.redact import redact_batch

    batch = pa.table(
        {
            "id": [1, 2, 3],
            "text": [
                "mail bob@example.com and 42 things",
                "no pii here",
                "127 main st, a1b2@x.io, code 9",
            ],
        }
    )
    out = redact_batch(batch, "text")
    red = out.column("redacted").to_pylist()
    n = out.column("n_redactions").to_pylist()
    assert red[0] == "mail [EMAIL] and [NUM] things"
    assert red[1] == "no pii here"
    # the email is replaced FIRST, so its digits don't double-count
    assert red[2] == "[NUM] main st, [EMAIL], code [NUM]"
    assert n == [2, 0, 3]


def test_distinct_count_matches_naive(ray_session):
    import ray.data

    from opentapioca_ray.stages.aggregates import distinct_count

    rows = [{"g": i % 3, "v": (i * i) % 7} for i in range(200)]
    ds = ray.data.from_items(rows)
    got = {
        r["g"]: r["n_distinct"]
        for r in distinct_count(ds, "g", "v").take_all()
    }
    want = {}
    for r in rows:
        want.setdefault(r["g"], set()).add(r["v"])
    assert got == {g: len(s) for g, s in want.items()}


def test_grouped_quantiles_rule(ray_session):
    import ray.data

    from opentapioca_ray.stages.aggregates import grouped_quantiles

    # duck rule: sorted[ceil(p*n)-1]; group "a" has n=4, group "b" n=1
    rows = [{"g": "a", "v": float(x)} for x in [10, 40, 20, 30]]
    rows.append({"g": "b", "v": 7.0})
    got = grouped_quantiles(
        ray.data.from_items(rows), "g", "v", [0.5, 0.9]
    ).to_pandas()
    vals = {(r.g, r.p_e4): r.value for r in got.itertuples()}
    assert vals == {
        ("a", 5000): 20.0,  # ceil(.5*4)=2nd
        ("a", 9000): 40.0,  # ceil(.9*4)=4th
        ("b", 5000): 7.0,
        ("b", 9000): 7.0,
    }


def test_group_moments_matches_numpy(ray_session):
    import numpy as np
    import ray.data

    from opentapioca_ray.stages.aggregates import group_moments

    rng = np.random.RandomState(7)
    rows = [
        {"g": int(i % 3), "x": float(rng.rand() * 100), "y": float(rng.rand())}
        for i in range(300)
    ]
    got = group_moments(
        ray.data.from_items(rows), "g", "x", y_column="y"
    ).to_pandas().set_index("g")
    for g in range(3):
        xs = np.array([r["x"] for r in rows if r["g"] == g])
        ys = np.array([r["y"] for r in rows if r["g"] == g])
        assert got.loc[g, "n"] == len(xs)
        assert got.loc[g, "mean_x"] == round(float(xs.mean()), 4)
        assert abs(got.loc[g, "stddev_x"] - float(xs.std(ddof=1))) < 1e-3
        assert abs(got.loc[g, "corr_xy"] - float(np.corrcoef(xs, ys)[0, 1])) < 1e-3


def test_rollup_sum_levels(ray_session):
    import ray.data

    from opentapioca_ray.stages.aggregates import rollup_sum

    rows = [
        {"a": "x", "b": "p", "v": 1.5},
        {"a": "x", "b": "q", "v": 2.0},
        {"a": "y", "b": "p", "v": 3.0},
    ]
    got = rollup_sum(ray.data.from_items(rows), ["a", "b"], "v").to_pandas()
    key = {(r.a, r.b): (r.total_e4, r.n) for r in got.itertuples()}
    assert key[("x", "p")] == (15000, 1)
    assert key[("x", "ALL")] == (35000, 2)
    assert key[("y", "ALL")] == (30000, 1)
    assert key[("ALL", "ALL")] == (65000, 3)
    assert len(key) == 6  # 3 fine + 2 mid + 1 grand


def test_rollup_sum_exchange_per_level(ray_session, monkeypatch):
    """`_ROLLUP_FINE_LIMIT` = 0: one exchange per coarser level gives the
    rows of the one-task derivation."""
    import ray.data

    from opentapioca_ray.stages import aggregates

    rng = np.random.default_rng(4)
    rows = [
        {"a": f"a{rng.integers(0, 4)}", "b": f"b{rng.integers(0, 5)}", "v": float(rng.integers(1, 9))}
        for _ in range(60)
    ]

    def levels():
        out = aggregates.rollup_sum(ray.data.from_items(rows), ["a", "b"], "v").to_pandas()
        return sorted(map(tuple, out[["a", "b", "total_e4", "n"]].values.tolist()))

    one_task = levels()
    monkeypatch.setattr(aggregates, "_ROLLUP_FINE_LIMIT", 0)
    assert levels() == one_task
    assert ("ALL", "ALL", 10_000 * sum(r["v"] for r in rows), 60) in one_task


def test_group_regression_exact_line(ray_session):
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.aggregates import group_regression

    # perfect line y = 2x + 3 -> slope_e6 = 2e6, intercept_e6 = 3e6
    xs = list(range(10))
    t = pa.table(
        {"g": ["a"] * 10, "x": pa.array(xs, type=pa.float64()),
         "y": pa.array([2 * x + 3 for x in xs], type=pa.float64())}
    )
    out = group_regression(
        ray.data.from_arrow(t), "g", "x", "y", x_scale=1, y_scale=10_000
    ).to_pandas()
    assert out["slope_e6"].tolist() == [2_000_000]
    assert out["intercept_e6"].tolist() == [3_000_000]
    assert out["n"].tolist() == [10]


def test_group_regression_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.aggregates import group_regression

    rng = np.random.RandomState(3)
    n = 2000
    t = pa.table(
        {
            "g": rng.choice(["a", "b", "c"], n).tolist(),
            "x": rng.randint(0, 100, n).astype(np.float64),
            "y": np.round(rng.uniform(0, 50, n), 4),
        }
    )
    got = (
        group_regression(
            ray.data.from_arrow(t).repartition(5), "g", "x", "y",
            x_scale=1, y_scale=10_000,
        )
        .to_pandas().sort_values("g").reset_index(drop=True)
    )
    duckdb.register("t", t)
    want = duckdb.sql(
        """
        WITH m AS (
          SELECT g, count(*)::HUGEINT AS n, sum(x::HUGEINT) AS sx,
                 sum(CAST(round(y*10000) AS HUGEINT)) AS sy,
                 sum(x::HUGEINT * CAST(round(y*10000) AS HUGEINT)) AS sxy,
                 sum(x::HUGEINT * x::HUGEINT) AS sxx
          FROM t GROUP BY 1)
        SELECT g, CAST(n AS BIGINT) AS n,
          CAST((1000000::HUGEINT*(n*sxy-sx*sy))
               // ((n*sxx-sx*sx)*10000::HUGEINT) AS BIGINT) AS slope_e6,
          CAST((1000000::HUGEINT*(sy*(n*sxx-sx*sx)-(n*sxy-sx*sy)*sx))
               // ((n*sxx-sx*sx)*n*10000::HUGEINT) AS BIGINT) AS intercept_e6
        FROM m ORDER BY g
        """
    ).df()
    assert got["slope_e6"].tolist() == want["slope_e6"].tolist()
    assert got["intercept_e6"].tolist() == want["intercept_e6"].tolist()


def test_group_regression_zero_variance_dropped(ray_session):
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.aggregates import group_regression

    t = pa.table({"g": ["z", "z"], "x": [5.0, 5.0], "y": [1.0, 2.0]})
    out = group_regression(ray.data.from_arrow(t), "g", "x", "y").to_pandas()
    assert len(out) == 0


def test_pivot_counts(ray_session):
    import ray.data

    from opentapioca_ray.stages.aggregates import pivot_counts

    rows = (
        [{"user_id": 1, "event_type": "click"}] * 3
        + [{"user_id": 1, "event_type": "view"}]
        + [{"user_id": 2, "event_type": "error"}] * 2
        + [{"user_id": 2, "event_type": "unknown"}]  # outside categories: dropped
    )
    out = pivot_counts(
        ray.data.from_items(rows).repartition(3),
        "user_id",
        "event_type",
        ["click", "error", "view"],
    ).take_all()
    got = {r["user_id"]: (r["n_click"], r["n_error"], r["n_view"]) for r in out}
    assert got == {1: (3, 0, 1), 2: (0, 2, 0)}


def test_partial_multi_sum_count(ray_session):
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.aggregates import partial_multi_sum_count

    t = pa.table(
        {
            "a": ["x", "x", "y", "x"],
            "b": [1, 2, 1, 1],
            "v": [10.0, 20.0, 5.0, 2.5],
        }
    )
    out = partial_multi_sum_count(
        ray.data.from_arrow(t).repartition(3), ["a", "b"], ["v"]
    ).to_pandas()
    got = {
        (r["a"], r["b"]): (r["sum_v"], r["count"]) for _, r in out.iterrows()
    }
    assert got == {("x", 1): (12.5, 2), ("x", 2): (20.0, 1), ("y", 1): (5.0, 1)}


def test_group_arg_extreme_min_and_tiebreak(ray_session):
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.aggregates import group_arg_extreme

    t = pa.table(
        {
            "k": [1, 1, 1, 2, 2],
            "price": [5.0, 3.0, 3.0, 7.0, 7.0],
            "supp": [10, 30, 20, 9, 4],
            "extra": ["a", "b", "c", "d", "e"],
        }
    )
    # split across blocks so the combiner + final exchange both run
    out = group_arg_extreme(
        ray.data.from_arrow(t).repartition(4),
        key_cols=["k"],
        order_cols=["price", "supp"],
        keep_cols=["extra"],
    ).to_pandas()
    got = {r["k"]: (r["price"], r["supp"], r["extra"]) for _, r in out.iterrows()}
    # ties on price resolve by the lowest supp — deterministic at any split
    assert got == {1: (3.0, 20, "c"), 2: (7.0, 4, "e")}


def test_group_arg_extreme_max(ray_session):
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.aggregates import group_arg_extreme

    t = pa.table({"k": [1, 1, 2], "v": [5.0, 9.0, 1.0], "id": [1, 2, 3]})
    out = group_arg_extreme(
        ray.data.from_arrow(t).repartition(2),
        key_cols=["k"],
        order_cols=["v", "id"],
        keep_cols=[],
        ascending=False,
    ).to_pandas()
    got = {r["k"]: r["v"] for _, r in out.iterrows()}
    assert got == {1: 9.0, 2: 1.0}


def test_group_gini_matches_direct_formula(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.aggregates import group_gini

    rng = np.random.default_rng(7)
    g = rng.integers(0, 5, size=200)
    v = np.round(rng.uniform(-100, 1000, size=200), 2)
    t = pa.table({"g": g, "v": v})
    out = (
        group_gini(ray.data.from_arrow(t).repartition(6), "g", "v", scale=100)
        .to_pandas()
        .set_index("g")
        .sort_index()
    )
    for key in np.unique(g):
        x = np.sort(np.round(v[g == key] * 100).astype(np.int64))
        n = len(x)
        i = np.arange(1, n + 1)
        assert out.loc[key, "n"] == n
        assert out.loc[key, "sum_units"] == x.sum()
        assert out.loc[key, "gini_num"] == 2 * (i * x).sum() - (n + 1) * x.sum()
        assert out.loc[key, "gini_den"] == n * x.sum()


def test_group_gini_tie_invariance(ray_session):
    """Tied values must produce the same terms at any partitioning."""
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.aggregates import group_gini

    t = pa.table({"g": [1] * 6, "v": [2.0, 2.0, 2.0, 5.0, 5.0, 9.0]})
    a = group_gini(ray.data.from_arrow(t).repartition(1), "g", "v").to_pandas()
    b = group_gini(ray.data.from_arrow(t).repartition(5), "g", "v").to_pandas()
    assert a.to_dict("records") == b.to_dict("records")
    # hand check: x=[200,200,200,500,500,900], n=6, sum=2500
    # sum(i*x) = 200+400+600+2000+2500+5400 = 11100
    rec = a.to_dict("records")[0]
    assert rec["gini_num"] == 2 * 11100 - 7 * 2500
    assert rec["gini_den"] == 6 * 2500


def test_above_group_mean(ray_session):
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.aggregates import above_group_mean

    t = pa.table(
        {
            "id": [1, 2, 3, 4, 5, 6],
            "g": [10, 10, 10, 20, 20, 30],
            "v": [1.0, 2.0, 3.0, 5.0, 5.0, 7.0],
        }
    )
    out = above_group_mean(
        ray.data.from_arrow(t).repartition(4), "g", "v", "id", scale=100
    ).to_pandas()
    # group 10: mean 2.0 -> only id 3; group 20: all equal mean -> none
    # (strict); group 30: single row equals its mean -> none
    assert sorted(out["id"]) == [3]
    assert out.set_index("id").loc[3, "value_units"] == 300


def test_group_set_overlap(ray_session):
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.aggregates import group_set_overlap

    # members: 1 in {a,b}, 2 in {a}, 3 in {a,b,c}; duplicates must not count
    t = pa.table(
        {
            "k": ["a", "b", "a", "a", "b", "c", "a"],
            "m": [1, 1, 2, 3, 3, 3, 1],
        }
    )
    out = group_set_overlap(
        ray.data.from_arrow(t).repartition(4), "k", "m"
    ).to_pandas()
    got = {(r["type_a"], r["type_b"]): r["n_common"] for _, r in out.iterrows()}
    assert got == {
        ("a", "a"): 3, ("b", "b"): 2, ("c", "c"): 1,
        ("a", "b"): 2, ("a", "c"): 1, ("b", "c"): 1,
    }


def test_weighted_median(ray_session):
    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.aggregates import weighted_median

    # group a: values 1,2,3 with weights 1,1,4 -> cum 1,2,6; first v with
    # 2*cum >= 6 is v=3. group b: equal weights over 10,20 -> lower median 10.
    t = pa.table(
        {
            "g": ["a", "a", "a", "b", "b"],
            "v": [1.0, 2.0, 3.0, 10.0, 20.0],
            "w": [1.0, 1.0, 4.0, 2.0, 2.0],
        }
    )
    out = (
        weighted_median(ray.data.from_arrow(t).repartition(3), "g", "v", "w", scale=100)
        .to_pandas()
        .set_index("g")
    )
    assert out.loc["a", "median_units"] == 300
    assert out.loc["a", "total_weight"] == 6
    assert out.loc["b", "median_units"] == 1000
    assert out.loc["b", "total_weight"] == 4


def test_group_entropy(ray_session):
    import math

    import pyarrow as pa
    import ray.data

    from opentapioca_ray.stages.aggregates import group_entropy

    # group a: items 1,1,2,3 -> p = (1/2, 1/4, 1/4), H = 1.5*ln(2)
    # group b: uniform single item -> H = 0
    t = pa.table(
        {
            "g": ["a", "a", "a", "a", "b", "b"],
            "i": [1, 1, 2, 3, 7, 7],
        }
    )
    out = (
        group_entropy(ray.data.from_arrow(t).repartition(3), "g", "i")
        .to_pandas()
        .set_index("g")
    )
    want_a = int(math.floor(1.5 * math.log(2.0) * 1e6 + 0.5))
    assert out.loc["a", "entropy_e6"] == want_a
    assert out.loc["a", "n_rows"] == 4
    assert out.loc["b", "entropy_e6"] == 0
    assert out.loc["b", "n_rows"] == 2


def test_partial_sum_count_passes_schemaless_empty_blocks(ray_session):
    """A zero-row block without the key column (a schema-less shuffle
    filler) passes through the combiner instead of raising `KeyError`."""
    import ray.data

    from opentapioca_ray.stages.aggregates import _multi_partial, partial_sum_count

    assert _multi_partial(pa.table({}), ["k"], ["x"]).num_rows == 0
    t = pa.table({"k": pa.array([1, 2, 1], pa.int64()), "x": pa.array([1.0, 2.0, 3.0])})
    ds = ray.data.from_arrow([t, pa.table({}), t])
    got = {
        r["k"]: (r["sum_x"], r["count"]) for r in partial_sum_count(ds, "k", ["x"]).take_all()
    }
    assert got == {1: (8.0, 4), 2: (4.0, 2)}
