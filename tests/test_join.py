"""Differential tests for the generic inner equi-join
(pipelines/join.py) vs DuckDB on duplicate + null + string keys, on
BOTH physical paths (broadcast and forced co-partition)."""

from __future__ import annotations

import os
import sys

import duckdb
import numpy as np
import pyarrow as pa
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray.data as rd

from rsmetacheck_ray.pipelines import join as J


def _left_tbl():
    return pa.table(
        {
            "k": pa.array([1, 2, 2, 3, None, 5], pa.int64()),
            "lv": pa.array([10, 20, 21, 30, 40, 50], pa.int64()),
            "name": pa.array(["a", "b", "c", "d", "e", "f"]),
        }
    )


def _right_tbl():
    return pa.table(
        {
            "k": pa.array([2, 2, 3, 4, None], pa.int64()),
            "rv": pa.array([200, 201, 300, 400, 500], pa.int64()),
        }
    )


def _duck():
    con = duckdb.connect()
    con.register("l", _left_tbl())
    con.register("r", _right_tbl())
    q = "SELECT l.*, r.rv FROM l JOIN r ON l.k = r.k"
    cols = "k, lv, name, rv"
    rows = con.execute(
        f"SELECT {cols} FROM ({q}) ORDER BY "
        + ", ".join(f"{c} NULLS FIRST" for c in cols.split(", "))
    ).fetchall()
    con.close()
    return rows


def _sorted_rows(ds: rd.Dataset, cols):
    import pandas as pd

    df = ds.to_pandas()
    df = df[list(cols)].sort_values(list(cols), na_position="first")
    return [
        tuple(None if pd.isna(v) else int(v) if isinstance(v, (np.integer,)) else v for v in row)
        for row in df.itertuples(index=False)
    ]


@pytest.mark.parametrize("path", ["broadcast", "copart"])
def test_equi_join_matches_duckdb(ray_session, path, monkeypatch):
    if path == "copart":
        monkeypatch.setattr(J, "BROADCAST_MAX_ROWS", 0)
        # force the copart route even though the pull would fit
        monkeypatch.setattr(
            J, "_pull_bounded", lambda ds, m: (None, ds.materialize().to_arrow_refs())
        )
    left = rd.from_arrow(_left_tbl())
    right = rd.from_arrow(_right_tbl())
    out = J.join(left, right, on="k", num_partitions=3)
    assert _sorted_rows(out, ["k", "lv", "name", "rv"]) == _duck()


def test_join_string_keys_and_key_pair(ray_session):
    left = rd.from_arrow(
        pa.table({"lang": pa.array(["en", "fr", "de", None]), "n": pa.array([1, 2, 3, 4], pa.int64())})
    )
    right = rd.from_arrow(
        pa.table({"code": pa.array(["en", "en", "de"]), "full": pa.array(["english", "anglais", "german"])})
    )
    out = J.join(left, right, on=("lang", "code"))
    got = sorted(
        (r["lang"], r["n"], r["full"]) for r in out.take_all()
    )
    assert got == [("de", 3, "german"), ("en", 1, "anglais"), ("en", 1, "english")]


def test_join_name_collision_suffixed(ray_session):
    left = rd.from_arrow(pa.table({"k": pa.array([1], pa.int64()), "v": pa.array([1], pa.int64())}))
    right = rd.from_arrow(pa.table({"k": pa.array([1], pa.int64()), "v": pa.array([9], pa.int64())}))
    out = J.join(left, right, on="k").take_all()
    assert out == [{"k": 1, "v": 1, "v_r": 9}]


def test_join_empty_right(ray_session):
    left = rd.from_arrow(_left_tbl())
    right = rd.from_arrow(_right_tbl().slice(0, 0))
    assert J.join(left, right, on="k").count() == 0
