"""Oracle-side determinism gate: run every oracle_sql() entry N times in
DuckDB (parallel evaluation enabled) and flag any whose normalized result
set varies across runs.

Why this exists: the driver's correctness gate hashes Ray-vs-DuckDB
results, so a NONDETERMINISTIC oracle flakes the gate even when the Ray
side is exact — round 4 caught `span_coverage` double-counting window
islands ~20% of runs because duplicate intervals made its ROWS-framed
ORDER BY non-total under DuckDB's parallel window evaluation. Usage:

    python tools/check_oracle_determinism.py /root/testdata/sf0.001 [N]

Oracles that read scratch parquet dumped by their Ray query (the
embedding_clusters / linkage_clusters pattern) are skipped automatically
when the scratch file is absent — run the full oracle gate first to
produce them.
"""

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


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(
        drop=True
    )


def main(sf_dir: str, n_runs: int = 5, only: list[str] | None = None) -> int:
    import __ray_entry__ as entrymod

    oracles = entrymod.oracle_sql()
    unknown = sorted(set(only or ()) - set(oracles))
    if unknown:
        print(f"ERROR unknown oracle name(s): {', '.join(unknown)}")
        return 1
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    flaky, errors, skipped = [], [], []
    ran = 0
    for name, sql in sorted(oracles.items()):
        if only and name not in only:
            continue
        ran += 1
        base = None
        try:
            for _ in range(n_runs):
                df = normalize(con.execute(sql).df())
                if base is None:
                    base = df
                elif not df.equals(base):
                    flaky.append(name)
                    print(f"FLAKY {name}: result varied across runs")
                    break
        except Exception as e:
            msg = str(e)
            if "No files found" in msg or "IO Error" in msg:
                skipped.append(name)  # scratch-parquet oracle, not produced
            else:
                errors.append(name)
                print(f"ERROR {name}: {type(e).__name__}: {msg[:100]}")
    print(
        f"checked {ran - len(skipped)} oracles x {n_runs} runs: "
        f"flaky={flaky or 'none'} errors={errors or 'none'} "
        f"skipped(scratch)={len(skipped)}"
    )
    return 1 if (flaky or errors) else 0


if __name__ == "__main__":
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    raise SystemExit(main(sf, n))
