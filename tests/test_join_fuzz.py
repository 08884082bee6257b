"""Randomized differential fuzz of the generic inner equi-join against
DuckDB on random tables with duplicate keys, empty sides and name
collisions, through BOTH physical paths (broadcast and forced
co-partition). The planted-boundary join tests pin semantics; this
pins them across random shapes."""

from __future__ import annotations

import os
import sys

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from rsmetacheck_ray.pipelines.join import join


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        else:
            df[c] = df[c].astype("float64")  # null-tolerant compare
    return df.sort_values(by=list(df.columns), ignore_index=True)


def _tables(rng, nl, nr):
    lt = pa.table(
        {
            "k": pa.array(rng.integers(0, 8, nl), pa.int64()),
            "v": pa.array(rng.integers(0, 100, nl), pa.int64()),
        }
    )
    rt = pa.table(
        {
            "k": pa.array(rng.integers(0, 8, nr), pa.int64()),
            "v": pa.array(rng.integers(100, 200, nr), pa.int64()),  # collides
            "w": pa.array(rng.integers(0, 50, nr), pa.int64()),
        }
    )
    return lt, rt


_INNER_SQL = "SELECT l.k, l.v, r.v AS v_r, r.w FROM l JOIN r USING (k)"


def test_equi_modes_fuzz_both_paths(ray_session):
    rng = np.random.default_rng(42)
    con = duckdb.connect()
    for seed in range(3):
        nl, nr = int(rng.integers(0, 40)), int(rng.integers(0, 40))
        lt, rt = _tables(rng, nl, nr)
        con.register("l", lt)
        con.register("r", rt)
        want = _canon(con.execute(_INNER_SQL).df())
        for bmax in (1_000_000, 0):  # broadcast vs forced co-part
            got = join(
                rd.from_arrow(lt).repartition(3),
                rd.from_arrow(rt).repartition(2),
                on="k", broadcast_max=bmax, num_partitions=3,
            ).to_pandas()
            if want.empty and got.empty:
                continue  # empty Datasets drop schema in to_pandas
            pd.testing.assert_frame_equal(
                _canon(got), want, check_dtype=False,
            ), (seed, bmax)
