"""bounded_group_reduce: driver merge == distributed fallback."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from rsmetacheck_ray.partitioning import (
    bounded_group_reduce,
    bounded_group_table,
)


def _partials(n_blocks=6):
    """Per-block partial rows over 3 keys with int64 sums/mins/maxes."""
    rng = np.random.default_rng(9)
    tables = []
    for _ in range(n_blocks):
        tables.append(
            pa.table(
                {
                    "k": pa.array(["a", "b", "c"], pa.string()),
                    "s": pa.array(rng.integers(0, 100, 3), pa.int64()),
                    "mn": pa.array(rng.integers(0, 100, 3), pa.int64()),
                    "mx": pa.array(rng.integers(0, 100, 3), pa.int64()),
                }
            )
        )
    return tables


AGGS = [("s", "sum"), ("mn", "min"), ("mx", "max")]


def _run(ds, max_rows):
    out = (
        bounded_group_reduce(ds, ["k"], AGGS, max_rows=max_rows)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    return out


def test_driver_merge_equals_distributed_fallback(ray_session):
    tables = _partials()
    ds = rd.from_arrow(tables)
    fast = _run(ds, max_rows=4_000_000)  # driver path
    slow = _run(rd.from_arrow(tables), max_rows=1)  # forced fallback
    assert list(fast.columns) == ["k", "s", "mn", "mx"]
    assert fast.equals(slow[fast.columns.tolist()])


def test_bounded_table_empty_input(ray_session):
    empty = pa.table(
        {
            "k": pa.array([], pa.string()),
            "s": pa.array([], pa.int64()),
            "mn": pa.array([], pa.int64()),
            "mx": pa.array([], pa.int64()),
        }
    )
    assert bounded_group_table(rd.from_arrow(empty), ["k"], AGGS) is None
    out = bounded_group_reduce(rd.from_arrow(empty), ["k"], AGGS)
    assert out.count() == 0


def test_revenue_by_priority_gate_paths_identical(ray_session):
    """Characters and embedding labels per language over
    documents ⋈ embeddings (``doc_id`` = ``vec_id``): the broadcast and
    co-partitioned join plans, each reduced on the driver and by the
    distributed fallback, give identical rows — equal to DuckDB's.
    Both sides of both size gates stay tested."""
    import os

    import duckdb
    import pyarrow.compute as pc

    from rsmetacheck_ray.pipelines.join import join

    sf = "/root/testdata/sf0.001"

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"lang": b.column("lang"),
                      "n_chars": b.column("n_chars"),
                      "label": pc.cast(b.column("label"), pa.int64()),
                      "n_docs": pa.array(np.ones(len(b), np.int64))})
        return t.group_by("lang").aggregate(
            [("n_chars", "sum"), ("label", "sum"), ("n_docs", "sum")]
        ).rename_columns(["lang", "n_chars", "label", "n_docs"])

    def rows(join_kw, max_rows):
        docs = rd.read_parquet(os.path.join(sf, "documents.parquet"),
                               columns=["doc_id", "lang", "n_chars"])
        emb = rd.read_parquet(os.path.join(sf, "embeddings.parquet"),
                              columns=["vec_id", "label"])
        parts = join(docs, emb, on=("doc_id", "vec_id"), **join_kw)
        out = bounded_group_reduce(
            parts.map_batches(partial, batch_format="pyarrow"),
            ["lang"],
            [("n_chars", "sum"), ("label", "sum"), ("n_docs", "sum")],
            max_rows=max_rows,
        )
        return sorted(
            (r["lang"], r["n_chars"], r["label"], r["n_docs"])
            for r in out.take_all()
        )

    fast = rows({}, 4_000_000)
    assert len(fast) > 1  # non-degenerate fixture
    want = sorted(duckdb.sql(f"""
        SELECT d.lang, CAST(SUM(d.n_chars) AS BIGINT),
          CAST(SUM(e.label) AS BIGINT), COUNT(*)
        FROM '{sf}/documents.parquet' d
        JOIN '{sf}/embeddings.parquet' e ON d.doc_id = e.vec_id
        GROUP BY d.lang""").fetchall())
    assert fast == want
    forced = {"broadcast_max": 0, "num_partitions": 3}
    assert rows(forced, 4_000_000) == fast
    assert rows({}, 1) == fast
    assert rows(forced, 1) == fast
