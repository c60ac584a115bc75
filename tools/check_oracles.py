"""Local replica of the driver's correctness gate: run every queries()
entry at the given sf dir, run the matching oracle_sql() in DuckDB, compare
row-count + schema + order-insensitive value hash."""

from __future__ import annotations

import sys
from pathlib import Path

import duckdb
import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

TABLES = [
    "region",
    "nation",
    "customer",
    "supplier",
    "part",
    "orders",
    "lineitem",
    "events",
    "documents",
    "embeddings",
]


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray.data

        if isinstance(result, ray.data.Dataset):
            return result.to_pandas()
    except ImportError:
        pass
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def value_hash(df: pd.DataFrame) -> str:
    import hashlib

    return hashlib.sha256(
        pd.util.hash_pandas_object(normalize(df), index=False).values.tobytes()
    ).hexdigest()[:16]


def main(sf_dir: str, only: list[str] | None = None):
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        import time

        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:
            failures.append(name)
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows={len(got)} (rows-only, {dt:.1f}s)")
            continue
        try:
            want = con.execute(oracles[name]).df()
        except Exception as e:
            failures.append(name)
            print(f"FAIL {name}: oracle raised {type(e).__name__}: {e}")
            continue
        problems = []
        if len(got) != len(want):
            problems.append(f"rows {len(got)} != {len(want)}")
        if sorted(got.columns) != sorted(want.columns):
            problems.append(f"cols {sorted(got.columns)} != {sorted(want.columns)}")
        elif value_hash(got) != value_hash(want):
            problems.append("value hash mismatch")
            a, b = normalize(got), normalize(want)
            if len(a) == len(b):
                for c in a.columns:
                    if not a[c].equals(b[c]):
                        neq = (a[c] != b[c])
                        idx = neq.idxmax()
                        problems.append(
                            f"col {c}: first diff at {idx}: {a[c][idx]!r} vs {b[c][idx]!r} ({neq.sum()} diffs)"
                        )
        if problems:
            failures.append(name)
            print(f"FAIL {name}: {'; '.join(problems)}")
        else:
            print(f"ok   {name}: rows={len(got)} hash match ({dt:.1f}s)")
    print("FAILURES:", failures or "none")
    return 1 if failures else 0


if __name__ == "__main__":
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    # names: space-separated args and/or comma-separated within one arg
    only = [n for arg in sys.argv[2:] for n in arg.split(",") if n] or None
    raise SystemExit(main(sf, only))
