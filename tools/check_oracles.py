"""Driver-style differential check: run every queries() entry via Ray
and its oracle_sql() via DuckDB on the same sf dir; compare row counts,
column names and order-insensitive values. Usage:

    PYTHONPATH=/root/repo python tools/check_oracles.py [sf_dir] [name ...]
"""

from __future__ import annotations

import sys

import duckdb
import pandas as pd
import pyarrow as pa

import ray

TABLES = ("documents", "embeddings")


def to_pandas(res) -> pd.DataFrame:
    if hasattr(res, "to_pandas"):
        df = res.to_pandas()
    elif isinstance(res, pa.Table):
        df = res.to_pandas()
    else:
        df = pd.DataFrame(res)
    if len(df.columns) == 0 and hasattr(res, "schema"):
        # Ray's Dataset.to_pandas drops the schema when the dataset is
        # EMPTY (a legitimate result at some scales: threshold queries
        # that select nothing at some scale). Rebuild the
        # empty frame from Dataset.schema() so the column/dtype compare
        # sees what the engine actually declared.
        try:
            sch = res.schema()
            base = getattr(sch, "base_schema", None)
            if isinstance(base, pa.Schema) and base.names:
                df = base.empty_table().to_pandas()
            elif sch.names:
                df = pd.DataFrame(
                    {n: pd.Series(dtype=object) for n in sch.names}
                )
        except Exception:
            pass
    return df


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(by=list(df.columns), ignore_index=True)


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)
    import __ray_entry__ as e

    qs, oracles = e.queries(), e.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'"
        )

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            ray_df = canon(to_pandas(fn(sf_dir)))
        except Exception as exc:
            print(f"FAIL {name}: ray raised {type(exc).__name__}: {exc}")
            failures += 1
            continue
        if name not in oracles:
            print(f"ok   {name}: rows-only ({len(ray_df)} rows, cols={list(ray_df.columns)})")
            continue
        try:
            sql_df = canon(con.execute(oracles[name]).fetchdf())
        except Exception as exc:
            print(f"FAIL {name}: oracle raised {type(exc).__name__}: {exc}")
            failures += 1
            continue
        if list(ray_df.columns) != list(sql_df.columns):
            print(f"FAIL {name}: columns {list(ray_df.columns)} != {list(sql_df.columns)}")
            failures += 1
            continue
        if len(ray_df) != len(sql_df):
            print(f"FAIL {name}: rows {len(ray_df)} != {len(sql_df)}")
            failures += 1
            continue
        # strict dtype compare first — the driver hashes values WITH their
        # dtype, so int64-vs-float64 (DuckDB HUGEINT) or timestamp-unit
        # drift fails its gate even when values agree (round-1 lesson)
        dt_bad = [
            (c, str(ray_df[c].dtype), str(sql_df[c].dtype))
            for c in ray_df.columns
            if str(ray_df[c].dtype) != str(sql_df[c].dtype)
        ]
        if dt_bad:
            print(f"FAIL {name}: dtype mismatch {dt_bad}")
            failures += 1
            continue
        mismatch = None
        for c in ray_df.columns:
            a, b = ray_df[c], sql_df[c]
            try:
                if pd.api.types.is_float_dtype(a) or pd.api.types.is_float_dtype(b):
                    import numpy as np

                    if not np.allclose(
                        a.astype(float), b.astype(float), rtol=0, atol=0, equal_nan=True
                    ):
                        mismatch = c
                        break
                else:
                    if not (a.astype(str) == b.astype(str)).all():
                        mismatch = c
                        break
            except Exception as exc:
                mismatch = f"{c} ({exc})"
                break
        if mismatch:
            print(f"FAIL {name}: value mismatch in column {mismatch}")
            bad = (ray_df[mismatch] .astype(str) != sql_df[mismatch].astype(str)) if isinstance(mismatch, str) and mismatch in ray_df else None
            if bad is not None:
                print(ray_df[bad].head(3))
                print(sql_df[bad].head(3))
            failures += 1
        else:
            print(f"ok   {name}: {len(ray_df)} rows match oracle")
    print("FAILURES:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
