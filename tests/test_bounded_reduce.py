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
    """Revenue by order priority over lineitem ⋈ orders: the broadcast
    and co-partitioned join plans, each reduced on the driver and by
    the distributed fallback, give identical rows — equal to DuckDB's.
    Both sides of both size gates stay tested."""
    import os

    import duckdb
    import pyarrow.compute as pc

    from rsmetacheck_ray.pipelines.join import join

    sf = "/root/testdata/sf0.001"

    def partial(b: pa.Table) -> pa.Table:
        net = pc.multiply(b.column("l_extendedprice"),
                          pc.subtract(1.0, b.column("l_discount")))
        cents = pc.cast(pc.floor(pc.add(pc.multiply(net, 100.0), 0.5)),
                        pa.int64())
        t = pa.table({"o_orderpriority": b.column("o_orderpriority"),
                      "rev_cents": cents,
                      "n_items": pa.array(np.ones(len(b), np.int64))})
        return t.group_by("o_orderpriority").aggregate(
            [("rev_cents", "sum"), ("n_items", "sum")]
        ).rename_columns(["o_orderpriority", "rev_cents", "n_items"])

    def rows(join_kw, max_rows):
        li = rd.read_parquet(os.path.join(sf, "lineitem.parquet"),
                             columns=["l_orderkey", "l_extendedprice",
                                      "l_discount"])
        od = rd.read_parquet(os.path.join(sf, "orders.parquet"),
                             columns=["o_orderkey", "o_orderpriority"])
        parts = join(li, od, on=("l_orderkey", "o_orderkey"), **join_kw)
        out = bounded_group_reduce(
            parts.map_batches(partial, batch_format="pyarrow"),
            ["o_orderpriority"], [("rev_cents", "sum"), ("n_items", "sum")],
            max_rows=max_rows,
        )
        return sorted(
            (r["o_orderpriority"], r["rev_cents"], r["n_items"])
            for r in out.take_all()
        )

    fast = rows({}, 4_000_000)
    assert fast  # non-degenerate fixture
    want = sorted(duckdb.sql(f"""
        SELECT o.o_orderpriority,
          CAST(SUM(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100
            + 0.5) AS BIGINT)) AS BIGINT), COUNT(*)
        FROM '{sf}/lineitem.parquet' l
        JOIN '{sf}/orders.parquet' o ON l.l_orderkey = o.o_orderkey
        GROUP BY o.o_orderpriority""").fetchall())
    assert fast == want
    forced = {"broadcast_max": 0, "num_partitions": 3}
    assert rows(forced, 4_000_000) == fast
    assert rows({}, 1) == fast
    assert rows(forced, 1) == fast
