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


def test_revenue_by_priority_gate_paths_identical(ray_session, monkeypatch):
    """The broadcast plan (orders under _REV_ORDERS_BROADCAST_MAX) and
    the native Dataset.join plan produce identical rows — both sides
    of the size gate stay tested."""
    from rsmetacheck_ray.pipelines import relational as rel

    sf = "/root/testdata/sf0.001"

    def rows(ds):
        return sorted(
            (r["o_orderpriority"], r["rev_cents"], r["n_items"])
            for r in ds.take_all()
        )

    fast = rows(rel.revenue_by_priority(sf))
    assert fast  # non-degenerate fixture
    monkeypatch.setattr(rel, "_REV_ORDERS_BROADCAST_MAX", 0)
    assert rows(rel.revenue_by_priority(sf)) == fast
