"""Relational operators over the TPC-H-ish driver tables — the
engine's recast of the reference's aggregation/ordering semantics
(SURVEY §2.6-2.7: per-rule counts ``detect_pitfalls_main.py:279,339``,
per-rule × per-language histograms ``:346-351``, positional "latest
release" top-1 ``p001.py:54``), expressed Ray-Data-first.

Exactness discipline for driver-vs-DuckDB hashing: every aggregated
money/value column is converted to integer cents with
``floor(x*100 + 0.5)`` BEFORE summation (identical expression on the
SQL side) so float addition order can never flip a bit. Min/max/count
are order-exact already.

Shuffle discipline: heavy tables (lineitem, orders, events) are
pre-aggregated inside ``map_batches`` (partial combine), so the
``groupby`` shuffle only ships the tiny per-batch partials; small
dimension tables (customer, nation) are joined via a broadcast dict
(``ray.put`` once, read per task) — never a distributed shuffle join.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Count, Min, Sum

from ..functions.hashing import splitmix64_np
from ..partitioning import (
    _part_of,
    adaptive_partitions,
    bounded_group_reduce,
    bounded_group_table_strict,
    parquet_rows_hint,
    read_pq,
)

# Keyed temporal operators (as-of join, range join, sessionization)
# shuffle once on a HASHED KEY PARTITION, not the raw key: each
# map_groups call then processes EVERY key of its partition in one
# vectorized pass (lexsort + segment-boundary math), so Python-call
# count is O(#partitions), not O(#distinct keys) — the 10⁸-customer
# fix from VERDICT r1 item 5. The partition COUNT is sized from the
# input (parquet footer row counts × approximate shuffled row width ÷
# a per-partition memory budget, partitioning.adaptive_partitions):
# partitions are the unit of parallelism AND of worker memory, so a
# fixed count would put 1/64 of a 10¹²-row projection in one worker.


def _cents(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """floor(x*100 + 0.5) as int64 — bit-identical to the SQL
    ``CAST(floor(x*100 + 0.5) AS BIGINT)``."""
    return pc.cast(pc.floor(pc.add(pc.multiply(col, 100.0), 0.5)), pa.int64())


# ---------------------------------------------------------------------------
# Q1-style pricing summary over lineitem
# ---------------------------------------------------------------------------

def q1_pricing(sf_dir: str, cutoff: str = "1998-09-02") -> rd.Dataset:
    """Pricing summary: partial-aggregate per batch, then a tiny
    groupby of the partials (the combiner pattern for wide groupbys)."""
    cutoff_ts = np.datetime64(cutoff + "T00:00:00", "us")
    ds = read_pq(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    )

    def partial(batch: pa.Table) -> pa.Table:
        mask = pc.less_equal(batch.column("l_shipdate"), pa.scalar(cutoff_ts))
        b = batch.filter(mask)
        qty = pc.cast(b.column("l_quantity"), pa.int64())
        base_c = _cents(b.column("l_extendedprice"))
        disc_price = pc.multiply(
            b.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), b.column("l_discount")),
        )
        disc_c = _cents(disc_price)
        t = pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "l_linestatus": b.column("l_linestatus"),
                "qty": qty,
                "base_c": base_c,
                "disc_c": disc_c,
            }
        )
        # in-batch combine via Arrow group_by (C++), one row per key
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("base_c", "sum"), ("disc_c", "sum"), ("qty", "count")]
        )
        return g.rename_columns(
            ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_cents",
             "sum_disc_cents", "count_order"]
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return bounded_group_reduce(
        partials,
        ["l_returnflag", "l_linestatus"],
        [
            ("sum_qty", "sum"),
            ("sum_base_cents", "sum"),
            ("sum_disc_cents", "sum"),
            ("count_order", "sum"),
        ],
    )


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
  CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
  CAST(SUM(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_base_cents,
  CAST(SUM(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_cents,
  COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
GROUP BY l_returnflag, l_linestatus
"""


# ---------------------------------------------------------------------------
# top-k orders (sort + limit)
# ---------------------------------------------------------------------------

def top_orders(sf_dir: str, k: int = 10) -> rd.Dataset:
    ds = read_pq(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_totalprice"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "total_cents": _cents(batch.column("o_totalprice")),
            }
        )

    # per-batch local top-k, then a global sort of the tiny survivors —
    # the full table is never globally sorted
    def local_topk(batch: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(
            batch, k, [("total_cents", "descending"), ("o_orderkey", "ascending")]
        )
        return batch.take(idx)

    pruned = ds.map_batches(prep, batch_format="pyarrow").map_batches(
        local_topk, batch_format="pyarrow"
    )
    return pruned.sort(["total_cents", "o_orderkey"], descending=[True, False]).limit(k)


TOP_ORDERS_SQL = """
SELECT o_orderkey, CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS total_cents
FROM orders
ORDER BY total_cents DESC, o_orderkey
LIMIT 10
"""


# ---------------------------------------------------------------------------
# broadcast join: orders → customer → nation
# ---------------------------------------------------------------------------

# Above this many rows the customer projection stops being a
# "broadcast-small" side (~32 MB of (int64, int32) at 2M rows) and the
# plan switches to a distributed hash join.
_BROADCAST_MAX_ROWS = 2_000_000


def nation_order_stats(sf_dir: str, num_partitions: int = 8) -> rd.Dataset:
    """Orders per nation. customer SCALES WITH SF, so the plan is
    size-gated: while the (custkey → nationkey) projection is bounded
    (≤ ``_BROADCAST_MAX_ROWS``) it is broadcast ONCE via ``ray.put``
    as sorted numpy arrays and each batch joins with a vectorized
    ``searchsorted`` — no shuffle at all; past the bound, orders ⋈
    customer becomes a true distributed hash join (both sides shuffle
    16-byte projections). nation is a FIXED 25-row dimension, applied
    with vectorized ``pc.index_in`` + ``take`` either way. No Python
    row loops in any path."""
    nat = read_pq(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    ).take_all()  # 25 fixed rows — not SF-scaling
    n_keys = np.array([r["n_nationkey"] for r in nat], dtype=np.int64)
    n_names = [r["n_name"] for r in nat]
    nat_ref = ray.put((n_keys, n_names))

    orders = read_pq(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_totalprice"]
    )

    def nation_partial(batch: pa.Table, nationkey_col: str) -> pa.Table:
        keys, names = ray.get(nat_ref)
        idx = pc.index_in(batch.column(nationkey_col), pa.array(keys, pa.int64()))
        name_col = pc.take(pa.array(names, pa.string()), idx)
        t = pa.table(
            {"n_name": name_col, "total_cents": batch.column("total_cents")}
        )
        # inner-join semantics: rows with no matching dimension key are
        # DROPPED (a null group here would diverge from the SQL join)
        t = t.filter(pc.is_valid(t.column("n_name")))
        g = t.group_by("n_name").aggregate([("total_cents", "sum"), ("total_cents", "count")])
        return g.rename_columns(["n_name", "total_cents", "n_orders"])

    import pyarrow.parquet as pq

    cust_path = os.path.join(sf_dir, "customer.parquet")
    n_cust = pq.ParquetFile(cust_path).metadata.num_rows  # metadata only

    if n_cust <= _BROADCAST_MAX_ROWS:
        ct = pq.read_table(cust_path, columns=["c_custkey", "c_nationkey"])
        ckeys = ct.column("c_custkey").to_numpy(zero_copy_only=False)
        cnat = ct.column("c_nationkey").to_numpy(zero_copy_only=False)
        order_idx = np.argsort(ckeys)
        cust_ref = ray.put((ckeys[order_idx], cnat[order_idx]))

        def bcast_join(batch: pa.Table) -> pa.Table:
            skeys, snat = ray.get(cust_ref)
            ok = batch.column("o_custkey").to_numpy(zero_copy_only=False)
            pos = np.searchsorted(skeys, ok)
            pos_c = np.minimum(pos, len(skeys) - 1)
            hit = skeys[pos_c] == ok
            cents = pc.filter(_cents(batch.column("o_totalprice")), pa.array(hit))
            t = pa.table(
                {"c_nationkey": pa.array(snat[pos_c][hit]), "total_cents": cents}
            )
            return nation_partial(t, "c_nationkey")

        partials = orders.map_batches(bcast_join, batch_format="pyarrow")
    else:

        def prep(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "o_custkey": batch.column("o_custkey"),
                    "total_cents": _cents(batch.column("o_totalprice")),
                }
            )

        cust = read_pq(
            cust_path, columns=["c_custkey", "c_nationkey"]
        )
        joined = orders.map_batches(prep, batch_format="pyarrow").join(
            cust,
            join_type="inner",
            num_partitions=num_partitions,
            on=("o_custkey",),
            right_on=("c_custkey",),
        )
        partials = joined.map_batches(
            lambda b: nation_partial(b, "c_nationkey"), batch_format="pyarrow"
        )

    return bounded_group_reduce(
        partials,
        ["n_name"],
        [("total_cents", "sum"), ("n_orders", "sum")],
    )


NATION_ORDER_SQL = """
SELECT n.n_name,
  CAST(SUM(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS total_cents,
  COUNT(*) AS n_orders
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name
"""


# ---------------------------------------------------------------------------
# events: hourly windowed aggregate + per-type min/max
# ---------------------------------------------------------------------------

def events_hourly(sf_dir: str) -> rd.Dataset:
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type", "value"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        # the hour key travels through Ray's groupby shuffle as int64 µs:
        # Ray's sort-based shuffle downcasts timestamp keys to [s], which
        # would fail the driver's dtype-strict hash vs DuckDB TIMESTAMP(µs)
        hour = pc.cast(pc.floor_temporal(batch.column("ts"), unit="hour"), pa.int64())
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "hour_us": hour,
                "value_cents": _cents(batch.column("value")),
            }
        )
        g = t.group_by(["event_type", "hour_us"]).aggregate(
            [("value_cents", "sum"), ("value_cents", "count")]
        )
        return g.rename_columns(["event_type", "hour_us", "value_cents", "n_events"])

    def restore_ts(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "hour": pc.cast(batch.column("hour_us"), pa.timestamp("us")),
                "value_cents": batch.column("value_cents"),
                "n_events": batch.column("n_events"),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return bounded_group_reduce(
        partials,
        ["event_type", "hour_us"],
        [("value_cents", "sum"), ("n_events", "sum")],
    ).map_batches(restore_ts, batch_format="pyarrow")


EVENTS_HOURLY_SQL = """
SELECT event_type, CAST(date_trunc('hour', ts) AS TIMESTAMP) AS hour,
  CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS value_cents,
  COUNT(*) AS n_events
FROM events
GROUP BY event_type, date_trunc('hour', ts)
"""


def events_type_stats(sf_dir: str) -> rd.Dataset:
    """Per-type count/min/max — partial-combined per batch (Arrow C++
    group_by), so the shuffle ships one row per (type, block), not one
    per input row (count/min/max decompose exactly)."""
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "value"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("event_type").aggregate(
            [("value", "count"), ("value", "min"), ("value", "max")]
        )
        return g.rename_columns(["event_type", "n_events", "min_value", "max_value"])

    return bounded_group_reduce(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type"],
        [("n_events", "sum"), ("min_value", "min"), ("max_value", "max")],
    )


EVENTS_TYPE_SQL = """
SELECT event_type, COUNT(*) AS n_events,
  MIN(value) AS min_value, MAX(value) AS max_value
FROM events
GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# distributed hash join (the true shuffle join — used when BOTH sides
# are big; contrast with the broadcast join above for small sides)
# ---------------------------------------------------------------------------

# orders' (orderkey → priority code) pair is 9 B/row — broadcast under
# this gate; past it (orders is unbounded at scale) the NATIVE Ray Data
# hash join below is the plan.
_REV_ORDERS_BROADCAST_MAX = 2_000_000


def revenue_by_priority(sf_dir: str, num_partitions: int = 8) -> rd.Dataset:
    """lineitem ⋈ orders on orderkey → revenue per order priority.

    Size-gated (the nation_order_stats pattern): under the gate the
    (orderkey → priority code) projection broadcasts once and each
    lineitem batch emits a ≤5-row partial (bounded priority domain)
    merged on the driver — no shuffle at all. Past the gate this is
    the engine's NATIVE Ray Data hash join showcase (``Dataset.join``
    — both sides shuffle by key), consumed in place by the tiny
    priority groupby. (Measured on the join path: the Ray groupby
    consuming the join output in place beats inserting a
    partial-combine map stage by ~3 s of block handling.)"""
    import pyarrow.parquet as pq_

    li = read_pq(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )
    orders_path = os.path.join(sf_dir, "orders.parquet")
    n_orders = pq_.ParquetFile(orders_path).metadata.num_rows
    if n_orders <= _REV_ORDERS_BROADCAST_MAX:
        ot = pq_.read_table(
            orders_path, columns=["o_orderkey", "o_orderpriority"]
        )
        ok = ot.column("o_orderkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        prio = ot.column("o_orderpriority").combine_chunks().dictionary_encode()
        codes = prio.indices.to_numpy(zero_copy_only=False).astype(np.int8)
        names = prio.dictionary.to_pylist()
        o = np.argsort(ok, kind="stable")
        ref = ray.put((ok[o], codes[o], names))

        def partial(b: pa.Table) -> pa.Table:
            keys, cds, nms = ray.get(ref)
            lk = b.column("l_orderkey").to_numpy(zero_copy_only=False)
            disc = pc.multiply(
                b.column("l_extendedprice"),
                pc.subtract(pa.scalar(1.0), b.column("l_discount")),
            )
            rev = _cents(disc).to_numpy(zero_copy_only=False)
            if not len(keys) or not len(lk):
                hit = np.zeros(len(lk), bool)
                code_hit = np.empty(0, np.int8)
            else:
                pos = np.minimum(np.searchsorted(keys, lk), len(keys) - 1)
                hit = keys[pos] == lk
                code_hit = cds[pos][hit]
            cents = np.bincount(
                code_hit, weights=rev[hit], minlength=len(nms)
            ).astype(np.int64)
            counts = np.bincount(code_hit, minlength=len(nms)).astype(np.int64)
            nz = np.flatnonzero(counts)
            return pa.table(
                {
                    "o_orderpriority": pa.array(
                        [nms[i] for i in nz], pa.string()
                    ),
                    "rev_cents": pa.array(cents[nz], pa.int64()),
                    "n_items": pa.array(counts[nz], pa.int64()),
                }
            )

        return bounded_group_reduce(
            li.map_batches(partial, batch_format="pyarrow"),
            ["o_orderpriority"],
            [("rev_cents", "sum"), ("n_items", "sum")],
        )

    def prep(batch: pa.Table) -> pa.Table:
        disc = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )
        return pa.table(
            {"l_orderkey": batch.column("l_orderkey"), "rev_cents": _cents(disc)}
        )

    li = li.map_batches(prep, batch_format="pyarrow")
    orders = read_pq(orders_path, columns=["o_orderkey", "o_orderpriority"])
    joined = li.join(
        orders, join_type="inner", num_partitions=num_partitions,
        on=("l_orderkey",), right_on=("o_orderkey",),
    )
    return joined.groupby("o_orderpriority").aggregate(
        Sum("rev_cents", alias_name="rev_cents"),
        Count(alias_name="n_items"),
    )


REVENUE_JOIN_SQL = """
SELECT o.o_orderpriority,
  CAST(SUM(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5) AS BIGINT))
    AS BIGINT) AS rev_cents,
  COUNT(*) AS n_items
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
GROUP BY o.o_orderpriority
"""


# ---------------------------------------------------------------------------
# sessionization — per-user windowed aggregate over the event stream
# (the engine's stateful-window capability; the reference has none,
# SURVEY §2.8)
# ---------------------------------------------------------------------------

SESSION_GAP_S = 1800


def sessionize_users(sf_dir: str, num_partitions: int | None = None) -> rd.Dataset:
    """Per-user session stats: events sorted within each user, a new
    session opens after a >30 min gap. ONE shuffle on the hashed key
    partition; each map_groups call sessionizes EVERY user in its
    partition with a single lexsort + boundary-aware gap scan."""
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id"],
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ds), row_bytes=24  # (user_id, ts, event_id)
    )

    def tag(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part": _part_of(b.column("user_id"), n_parts),
                "user_id": b.column("user_id"),
                "ts": pc.cast(b.column("ts"), pa.int64()),
                "event_id": b.column("event_id"),
            }
        )

    gap_us = SESSION_GAP_S * 1_000_000

    def sess_part(g: pa.Table) -> pa.Table:
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        ts = g.column("ts").to_numpy(zero_copy_only=False)
        eid = g.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u, t = uid[order], ts[order]
        n = len(u)
        if n == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "n_sessions": pa.array([], pa.int64()),
                }
            )
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = u[1:] != u[:-1]
        seg_id = np.cumsum(new_user) - 1
        gap = np.zeros(n, dtype=bool)
        gap[1:] = ~new_user[1:] & (t[1:] - t[:-1] > gap_us)
        n_seg = int(seg_id[-1]) + 1
        return pa.table(
            {
                "user_id": pa.array(u[new_user], pa.int64()),
                "n_events": pa.array(
                    np.bincount(seg_id, minlength=n_seg).astype(np.int64)
                ),
                "n_sessions": pa.array(
                    1 + np.bincount(seg_id[gap], minlength=n_seg).astype(np.int64)
                ),
            }
        )

    return ds.map_batches(tag, batch_format="pyarrow").groupby("part").map_groups(
        sess_part, batch_format="pyarrow"
    )


SESSIONIZE_SQL = f"""
WITH ordered AS (
  SELECT user_id, ts,
    LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts
  FROM events
)
SELECT user_id, COUNT(*) AS n_events,
  CAST(1 + SUM(CASE WHEN prev_ts IS NOT NULL
                AND ts - prev_ts > INTERVAL {SESSION_GAP_S} SECOND
           THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions
FROM ordered
GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# deterministic systematic sample (seed-free, driver-reproducible —
# a random_sample would not be oracle-checkable)
# ---------------------------------------------------------------------------

def orders_systematic_sample(sf_dir: str, k: int = 10) -> rd.Dataset:
    ds = read_pq(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_totalprice"],
    )

    def pick(batch: pa.Table) -> pa.Table:
        keys = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        mask = pa.array(keys % k == 0)
        sub = batch.filter(mask)
        return pa.table(
            {
                "o_orderkey": sub.column("o_orderkey"),
                "total_cents": _cents(sub.column("o_totalprice")),
            }
        )

    return ds.map_batches(pick, batch_format="pyarrow")


ORDERS_SAMPLE_SQL = """
SELECT o_orderkey, CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS total_cents
FROM orders WHERE o_orderkey % 10 = 0
"""


# ---------------------------------------------------------------------------
# filter + projection (predicate pushdown demo)
# ---------------------------------------------------------------------------

def open_orders(sf_dir: str) -> rd.Dataset:
    return read_pq(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
        filter=(pc.field("o_orderstatus") == "O"),
    )


OPEN_ORDERS_SQL = """
SELECT o_orderkey, o_custkey FROM orders WHERE o_orderstatus = 'O'
"""


# ---------------------------------------------------------------------------
# distinct (set op) — groupby-based so the distinct runs distributed;
# Dataset.unique() would materialize the values on the driver
# ---------------------------------------------------------------------------

def distinct_user_event_types(sf_dir: str) -> rd.Dataset:
    """Distinct (user, type) pairs — per-batch Arrow distinct first
    (group_by with no aggregates), so repeated pairs collapse before
    the shuffle; the global groupby then sees at most #distinct ×
    #blocks rows."""
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "event_type"]
    )

    def local_distinct(batch: pa.Table) -> pa.Table:
        return batch.group_by(["user_id", "event_type"]).aggregate([])

    dedup = ds.map_batches(local_distinct, batch_format="pyarrow")
    agg = dedup.groupby(["user_id", "event_type"]).aggregate(Count(alias_name="_n"))
    return agg.select_columns(["user_id", "event_type"])


DISTINCT_SQL = """
SELECT DISTINCT user_id, event_type FROM events
"""


# ---------------------------------------------------------------------------
# as-of join — an operator Ray Data LACKS, composed from a tagged
# union + one groupby(key) shuffle + per-group vectorized searchsorted
# (the documented pattern for temporal joins: both sides co-locate by
# the equality key in a single shuffle; within a group the probe is
# O((n+m) log m) numpy, no Python row loop)
# ---------------------------------------------------------------------------

def events_asof_orders(sf_dir: str, num_partitions: int | None = None) -> rd.Dataset:
    """For each event: the most recent order of the same customer at
    or before the event time (ties on o_orderdate break to the highest
    o_orderkey — mirrored exactly by the oracle's ORDER BY ... LIMIT 1).
    Partitioning assumption: rows co-locate by the equality key
    (user_id == o_custkey); event/order ts skew within one key is
    bounded by that customer's history."""
    events = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts"],
    )
    orders = read_pq(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    n_parts = num_partitions or adaptive_partitions(
        (parquet_rows_hint(events) or 0) + (parquet_rows_hint(orders) or 0) or None,
        row_bytes=48,  # 6 int64-ish tagged-union columns
    )

    def tag_events(b: pa.Table) -> pa.Table:
        n = len(b)
        # -1 sentinels instead of nulls: nullable int64 → to_numpy would
        # silently convert to float64/NaN (ids only exact below 2⁵³)
        return pa.table(
            {
                "part": _part_of(b.column("user_id"), n_parts),
                "key": b.column("user_id"),
                "ts": pc.cast(b.column("ts"), pa.int64()),
                "tag": pa.array(np.ones(n, dtype=np.int8)),
                "event_id": b.column("event_id"),
                "o_orderkey": pa.array(np.full(n, -1, dtype=np.int64)),
            }
        )

    def tag_orders(b: pa.Table) -> pa.Table:
        n = len(b)
        return pa.table(
            {
                "part": _part_of(b.column("o_custkey"), n_parts),
                "key": b.column("o_custkey"),
                "ts": pc.cast(b.column("o_orderdate"), pa.int64()),
                "tag": pa.array(np.zeros(n, dtype=np.int8)),
                "event_id": pa.array(np.full(n, -1, dtype=np.int64)),
                "o_orderkey": b.column("o_orderkey"),
            }
        )

    both = events.map_batches(tag_events, batch_format="pyarrow").union(
        orders.map_batches(tag_orders, batch_format="pyarrow")
    )

    def asof_part(group: pa.Table) -> pa.Table:
        """One hash partition, MANY keys: merge-sort both sides by
        (key, ts, tag, orderkey) — orders (tag 0) precede events at an
        equal timestamp, so 'at or before' includes same-day orders and
        the nearest preceding order row IS the oracle's ORDER BY
        o_orderdate DESC, o_orderkey DESC LIMIT 1. A reset-aware running
        maximum replaces the per-key searchsorted."""
        key = group.column("key").to_numpy(zero_copy_only=False)
        ts = group.column("ts").to_numpy(zero_copy_only=False)
        tag = group.column("tag").to_numpy(zero_copy_only=False)
        eid = group.column("event_id").to_numpy(zero_copy_only=False)
        okey = group.column("o_orderkey").to_numpy(zero_copy_only=False)
        order = np.lexsort((okey, tag, ts, key))
        k, t, tg, e, o = key[order], ts[order], tag[order], eid[order], okey[order]
        n = len(k)
        idx = np.arange(n)
        is_order = tg == 0
        last_o = np.maximum.accumulate(np.where(is_order, idx, -1))
        ev = ~is_order
        pos = last_o[ev]
        safe = np.maximum(pos, 0)
        valid = (pos >= 0) & (k[safe] == k[ev])
        matched = pa.array(np.where(valid, o[safe], -1), pa.int64())
        return pa.table(
            {
                "event_id": pa.array(e[ev], pa.int64()),
                "o_orderkey": pc.if_else(
                    pa.array(valid), matched, pa.scalar(None, pa.int64())
                ),
            }
        )

    return both.groupby("part").map_groups(asof_part, batch_format="pyarrow")


EVENTS_ASOF_SQL = """
SELECT e.event_id,
  (SELECT o.o_orderkey FROM orders o
    WHERE o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
    ORDER BY o.o_orderdate DESC, o.o_orderkey DESC LIMIT 1) AS o_orderkey
FROM events e
"""


_RANGE_DAYS = 3


def orders_events_window(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """Range join: per order, the number of same-customer events inside
    ``[o_orderdate, o_orderdate + 3 days)`` — equality key plus a time
    band, composed exactly like the as-of join (tagged union, ONE
    groupby(key) shuffle, two vectorized searchsorted probes per
    group). A keyless band join would instead bucket both sides by
    coarse time windows and join within buckets."""
    events = read_pq(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
    )
    orders = read_pq(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    n_parts = num_partitions or adaptive_partitions(
        # each order contributes TWO probe rows
        (parquet_rows_hint(events) or 0) + 2 * (parquet_rows_hint(orders) or 0)
        or None,
        row_bytes=40,
    )

    window_us = _RANGE_DAYS * 86_400_000_000

    # qt: -1 = event row, 0 = window-start probe, 1 = window-end probe.
    # Each order contributes TWO probe rows; the in-window count is the
    # difference of the two prefix counts F(t) = #events with ts < t,
    # evaluated in ONE merged lexsort pass over all keys of a partition.
    def tag_events(b: pa.Table) -> pa.Table:
        n = len(b)
        return pa.table(
            {
                "part": _part_of(b.column("user_id"), n_parts),
                "key": b.column("user_id"),
                "ts": pc.cast(b.column("ts"), pa.int64()),
                "qt": pa.array(np.full(n, -1, dtype=np.int8)),
                "o_orderkey": pa.array(np.full(n, -1, dtype=np.int64)),
            }
        )

    def tag_orders(b: pa.Table) -> pa.Table:
        n = len(b)
        part = _part_of(b.column("o_custkey"), n_parts)
        key = b.column("o_custkey")
        ts = pc.cast(b.column("o_orderdate"), pa.int64())
        okey = b.column("o_orderkey")
        start = pa.table(
            {
                "part": part,
                "key": key,
                "ts": ts,
                "qt": pa.array(np.zeros(n, dtype=np.int8)),
                "o_orderkey": okey,
            }
        )
        end = pa.table(
            {
                "part": part,
                "key": key,
                "ts": pc.add(ts, pa.scalar(window_us, pa.int64())),
                "qt": pa.array(np.ones(n, dtype=np.int8)),
                "o_orderkey": okey,
            }
        )
        return pa.concat_tables([start, end])

    both = events.map_batches(tag_events, batch_format="pyarrow").union(
        orders.map_batches(tag_orders, batch_format="pyarrow")
    )

    def count_window_part(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy(zero_copy_only=False)
        ts = group.column("ts").to_numpy(zero_copy_only=False)
        qt = group.column("qt").to_numpy(zero_copy_only=False)
        okey = group.column("o_orderkey").to_numpy(zero_copy_only=False)
        # probes (qt >= 0) sort BEFORE events at an equal timestamp so
        # F counts strictly-earlier events: start probes include, end
        # probes exclude boundary events — the [t, t+w) window exactly
        is_event = qt == -1
        order = np.lexsort((is_event.astype(np.int8), ts, key))
        k, t, ev, ok, q = (
            key[order], ts[order], is_event[order], okey[order], qt[order],
        )
        n = len(k)
        excl = np.cumsum(ev) - ev  # events strictly before each row
        new_seg = np.empty(n, dtype=bool)
        if n:
            new_seg[0] = True
            new_seg[1:] = k[1:] != k[:-1]
        seg_start = np.maximum.accumulate(np.where(new_seg, np.arange(n), -1))
        F = excl - excl[seg_start]  # per-key prefix count at each row
        q0, q1 = q == 0, q == 1
        ok0, f0 = ok[q0], F[q0]
        ok1, f1 = ok[q1], F[q1]
        s0, s1 = np.argsort(ok0, kind="stable"), np.argsort(ok1, kind="stable")
        return pa.table(
            {
                "o_orderkey": pa.array(ok0[s0], pa.int64()),
                "n_events_3d": pa.array((f1[s1] - f0[s0]).astype(np.int64), pa.int64()),
            }
        )

    return both.groupby("part").map_groups(count_window_part, batch_format="pyarrow")


ORDERS_EVENTS_WINDOW_SQL = f"""
SELECT o.o_orderkey,
  (SELECT COUNT(*) FROM events e
    WHERE e.user_id = o.o_custkey
      AND e.ts >= o.o_orderdate
      AND e.ts < o.o_orderdate + INTERVAL {_RANGE_DAYS} DAY) AS n_events_3d
FROM orders o
"""


# ---------------------------------------------------------------------------
# remaining dimension tables: part / supplier / region
# ---------------------------------------------------------------------------

def parts_by_brand(sf_dir: str) -> rd.Dataset:
    ds = read_pq(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_brand", "p_retailprice", "p_size"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "p_brand": batch.column("p_brand"),
                "price_cents": _cents(batch.column("p_retailprice")),
                "p_size": pc.cast(batch.column("p_size"), pa.int64()),
            }
        )
        g = t.group_by("p_brand").aggregate(
            [
                ("p_brand", "count"),
                ("price_cents", "sum"),
                ("p_size", "max"),
            ]
        )
        return g.rename_columns(
            ["p_brand", "n_parts", "price_cents", "max_size"]
        )

    return bounded_group_reduce(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["p_brand"],
        [("n_parts", "sum"), ("price_cents", "sum"), ("max_size", "max")],
    )


PARTS_BY_BRAND_SQL = """
SELECT p_brand, COUNT(*) AS n_parts,
  CAST(SUM(CAST(floor(p_retailprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS price_cents,
  CAST(MAX(p_size) AS BIGINT) AS max_size
FROM part GROUP BY p_brand
"""


def supplier_nation_balance(sf_dir: str) -> rd.Dataset:
    """supplier ⋈ nation ⋈ region via broadcast (nation/region are
    FIXED 25/5-row dimension tables — the broadcast side of the join
    pattern). The lookup ships as Arrow-friendly arrays once via
    ``ray.put``; per batch the join is vectorized ``pc.index_in`` +
    ``take`` — no Python row loop."""
    nat = read_pq(os.path.join(sf_dir, "nation.parquet")).take_all()
    reg = read_pq(os.path.join(sf_dir, "region.parquet")).take_all()
    rname = {r["r_regionkey"]: r["r_name"] for r in reg}
    n_keys = np.array([n["n_nationkey"] for n in nat], dtype=np.int64)
    n_names = [n["n_name"] for n in nat]
    r_names = [rname[n["n_regionkey"]] for n in nat]
    lookup_ref = ray.put((n_keys, n_names, r_names))

    ds = read_pq(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_nationkey", "s_acctbal"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        keys, names, regions = ray.get(lookup_ref)
        idx = pc.index_in(batch.column("s_nationkey"), pa.array(keys, pa.int64()))
        t = pa.table(
            {
                "n_name": pc.take(pa.array(names, pa.string()), idx),
                "r_name": pc.take(pa.array(regions, pa.string()), idx),
                "acctbal_cents": _cents(batch.column("s_acctbal")),
            }
        )
        # inner join: unmatched keys take null names and are dropped
        t = t.filter(pc.is_valid(t.column("n_name")))
        g = t.group_by(["n_name", "r_name"]).aggregate(
            [("acctbal_cents", "sum"), ("acctbal_cents", "count")]
        )
        return g.rename_columns(["n_name", "r_name", "acctbal_cents", "n_suppliers"])

    return bounded_group_reduce(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["n_name", "r_name"],
        [("acctbal_cents", "sum"), ("n_suppliers", "sum")],
    )


SUPPLIER_NATION_SQL = """
SELECT n.n_name, r.r_name,
  CAST(SUM(CAST(floor(s.s_acctbal * 100 + 0.5) AS BIGINT)) AS BIGINT) AS acctbal_cents,
  COUNT(*) AS n_suppliers
FROM supplier s
JOIN nation n ON s.s_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY n.n_name, r.r_name
"""


# ---------------------------------------------------------------------------
# sliding-window aggregate — per event_type, the trailing 3-hour sum
# over the hourly rollup (the windowed-aggregate shape the reference's
# per-rule counters lack, SURVEY §2.8). Two-level plan: the heavy
# per-event work is the events_hourly partial-combine; the slide runs
# over the SMALL hourly table (bounded by #types × #hours regardless
# of corpus size), one vectorized prefix-sum pass per event_type.
# ---------------------------------------------------------------------------

_SLIDE_HOURS = 3


def events_sliding_3h(sf_dir: str) -> rd.Dataset:
    hourly = events_hourly(sf_dir)

    def slide(group: pa.Table) -> pa.Table:
        h = pc.cast(group.column("hour"), pa.int64()).to_numpy(zero_copy_only=False)
        v = group.column("value_cents").to_numpy(zero_copy_only=False)
        n = group.column("n_events").to_numpy(zero_copy_only=False)
        order = np.argsort(h)
        h, v, n = h[order], v[order], n[order]
        pv = np.cumsum(v)
        pn = np.cumsum(n)
        lo = np.searchsorted(h, h - (_SLIDE_HOURS - 1) * 3_600_000_000, side="left")
        base_v = np.where(lo > 0, pv[np.maximum(lo - 1, 0)], 0)
        base_n = np.where(lo > 0, pn[np.maximum(lo - 1, 0)], 0)
        et = group.column("event_type")[0].as_py()
        return pa.table(
            {
                "event_type": pa.array([et] * len(h), pa.string()),
                "hour": pc.cast(pa.array(h, pa.int64()), pa.timestamp("us")),
                "w3_value_cents": pa.array(pv - base_v, pa.int64()),
                "w3_events": pa.array(pn - base_n, pa.int64()),
            }
        )

    # the hourly rollup is small (#types × #hours); one group per type
    return hourly.groupby("event_type").map_groups(slide, batch_format="pyarrow")


EVENTS_SLIDING_SQL = f"""
WITH h AS (
  SELECT event_type, CAST(date_trunc('hour', ts) AS TIMESTAMP) AS hour,
    CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS value_cents,
    COUNT(*) AS n_events
  FROM events
  GROUP BY event_type, date_trunc('hour', ts)
)
SELECT event_type, hour,
  CAST(SUM(value_cents) OVER w AS BIGINT) AS w3_value_cents,
  CAST(SUM(n_events) OVER w AS BIGINT) AS w3_events
FROM h
WINDOW w AS (PARTITION BY event_type ORDER BY hour
             RANGE BETWEEN INTERVAL {_SLIDE_HOURS - 1} HOUR PRECEDING
                       AND CURRENT ROW)
"""


# ---------------------------------------------------------------------------
# distributed anti-join — customers with no orders. Tagged union +
# ONE shuffle on the hashed key partition + a block-vectorized
# sorted-membership test per partition (same partitioning discipline
# as the as-of join; no driver-side sets, no per-key Python).
# ---------------------------------------------------------------------------

def customers_without_orders(
    sf_dir: str, priority: str = "1-URGENT", num_partitions: int | None = None
) -> rd.Dataset:
    """Customers with no order of the given priority (every customer
    has SOME order in the driver tables, so the unfiltered anti-join
    would be vacuously empty — and an empty Ray dataset loses its
    schema, which the driver's column compare would flag).

    Expressed through the generic join API (pipelines/join.py): each
    order batch pre-shrinks to its DISTINCT custkeys, then
    ``join(how="anti")`` picks broadcast vs co-partition by its size
    gate (the bespoke tagged-union anti merge this replaced lives on
    as join.py's copart path)."""
    from .join import join as _join

    cust = read_pq(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    )
    orders = read_pq(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey"],
        filter=(pc.field("o_orderpriority") == priority),
    )

    def shrink(b: pa.Table) -> pa.Table:
        # pre-shrink: ship each batch's DISTINCT custkeys only
        uk = np.unique(b.column("o_custkey").to_numpy(zero_copy_only=False))
        return pa.table({"o_custkey": pa.array(uk, pa.int64())})

    return _join(
        cust,
        orders.map_batches(shrink, batch_format="pyarrow"),
        on=("c_custkey", "o_custkey"),
        how="anti",
        num_partitions=num_partitions,
    )


CUSTOMERS_WITHOUT_ORDERS_SQL = """
SELECT c_custkey FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderpriority = '1-URGENT')
"""


# ---------------------------------------------------------------------------
# exact distributed percentiles over a BOUNDED integer domain — the
# scalable exact-quantile plan: per-batch (type, cents)-histogram
# partials (Arrow group_by), one groupby shuffle whose volume is
# bounded by the VALUE DOMAIN (distinct (type, cents) pairs), not the
# row count, then a tiny per-type CDF walk. Quantiles restricted to
# exactly-representable binary fractions so ceil(q*n) can never drift
# from the oracle's float arithmetic.
# ---------------------------------------------------------------------------

_PCTS = (0.25, 0.5, 0.75)


def events_value_percentiles(sf_dir: str) -> rd.Dataset:
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "value"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "cents": _cents(batch.column("value")),
            }
        )
        g = t.group_by(["event_type", "cents"]).aggregate([("cents", "count")])
        return g.rename_columns(["event_type", "cents", "n"])

    # bounded-domain histogram merged on the driver (the reduce input
    # is |value domain| × #types rows, never the corpus size), then the
    # per-type CDF walk runs right there — no Ray Aggregate/Sort ops
    hist = bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "cents"],
        [("n", "sum")],
    )
    if hist is None:
        return rd.from_arrow(
            pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "p25": pa.array([], pa.int64()),
                    "p50": pa.array([], pa.int64()),
                    "p75": pa.array([], pa.int64()),
                }
            )
        )

    def cdf_walk(group: pa.Table) -> pa.Table:
        import math

        cents = group.column("cents").to_numpy(zero_copy_only=False)
        counts = group.column("n").to_numpy(zero_copy_only=False)
        order = np.argsort(cents)
        cents, counts = cents[order], counts[order]
        cum = np.cumsum(counts)
        n = int(cum[-1])
        # quantile_disc semantics: 0-indexed element ceil(q*n)-1
        out = {}
        for q in _PCTS:
            idx = max(math.ceil(q * n) - 1, 0)
            out[q] = int(cents[np.searchsorted(cum, idx, side="right")])
        return pa.table(
            {
                "event_type": pa.array([group.column("event_type")[0].as_py()]),
                "p25": pa.array([out[0.25]], pa.int64()),
                "p50": pa.array([out[0.5]], pa.int64()),
                "p75": pa.array([out[0.75]], pa.int64()),
            }
        )

    types = hist.column("event_type").to_numpy(zero_copy_only=False)
    pieces = [
        cdf_walk(hist.filter(pc.equal(hist.column("event_type"), t)))
        for t in sorted(set(types.tolist()))
    ]
    return rd.from_arrow(pa.concat_tables(pieces))


EVENTS_PERCENTILES_SQL = """
WITH c AS (
  SELECT event_type, CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
)
SELECT event_type,
  CAST(quantile_disc(cents, 0.25) AS BIGINT) AS p25,
  CAST(quantile_disc(cents, 0.50) AS BIGINT) AS p50,
  CAST(quantile_disc(cents, 0.75) AS BIGINT) AS p75
FROM c GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# running (cumulative) window aggregates + LAG deltas per user — the
# ordered-window shapes (SUM ... OVER (PARTITION BY ... ORDER BY ...),
# LAG) the reference's per-repo sequential scans imply but never need;
# a training-data pipeline uses them for per-host quota accounting and
# inter-arrival features. Same one-shuffle discipline as sessionize:
# hash the user onto an adaptive partition, then ONE lexsort +
# segment-boundary cumsum per partition handles every user in it.
# ---------------------------------------------------------------------------

def events_running_totals(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """Per-event running total of value-cents and gap to the previous
    event within each user, under the (ts, event_id) total order.
    Output: (user_id, event_id, ts_us, running_cents, gap_us) with
    gap_us = -1 for a user's first event (sentinel, not null, so the
    driver hash compare is dtype-exact)."""
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id", "value"],
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ds), row_bytes=32
    )

    def tag(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part": _part_of(b.column("user_id"), n_parts),
                "user_id": b.column("user_id"),
                "ts_us": pc.cast(b.column("ts"), pa.int64()),
                "event_id": b.column("event_id"),
                "cents": _cents(b.column("value")),
            }
        )

    def window_part(g: pa.Table) -> pa.Table:
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        ts = g.column("ts_us").to_numpy(zero_copy_only=False)
        eid = g.column("event_id").to_numpy(zero_copy_only=False)
        cents = g.column("cents").to_numpy(zero_copy_only=False)
        if len(uid) == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "event_id": pa.array([], pa.int64()),
                    "ts_us": pa.array([], pa.int64()),
                    "running_cents": pa.array([], pa.int64()),
                    "gap_us": pa.array([], pa.int64()),
                }
            )
        order = np.lexsort((eid, ts, uid))
        u, t, e, c = uid[order], ts[order], eid[order], cents[order]
        n = len(u)
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = u[1:] != u[:-1]
        # segment-relative cumulative sum: global int64 cumsum minus the
        # segment-start offset (exact — integer cents, no float order)
        cum = np.cumsum(c)
        seg_first = np.flatnonzero(new_user)
        seg_id = np.cumsum(new_user) - 1
        running = cum - cum[seg_first[seg_id]] + c[seg_first[seg_id]]
        gap = np.empty(n, dtype=np.int64)
        gap[0] = -1
        gap[1:] = np.where(new_user[1:], -1, t[1:] - t[:-1])
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "event_id": pa.array(e, pa.int64()),
                "ts_us": pa.array(t, pa.int64()),
                "running_cents": pa.array(running, pa.int64()),
                "gap_us": pa.array(gap, pa.int64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(window_part, batch_format="pyarrow")
    )


EVENTS_RUNNING_SQL = """
SELECT user_id, event_id, epoch_us(ts) AS ts_us,
  CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT))
       OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT)
    AS running_cents,
  COALESCE(epoch_us(ts) - LAG(epoch_us(ts))
       OVER (PARTITION BY user_id ORDER BY ts, event_id), -1) AS gap_us
FROM events
"""


# ---------------------------------------------------------------------------
# LEFT OUTER join + aggregate — customers keep their row (zero counts)
# when no order matches. The missing join shape from the inventory
# (inner: broadcast/shuffle, temporal: as-of/range, anti: NOT EXISTS);
# same one-shuffle discipline: per-batch partial combine shrinks the
# orders side to per-key (count, cents) partials before the hashed-key
# exchange, each partition resolves every key with sorted-array math.
# ---------------------------------------------------------------------------

def customer_order_counts(
    sf_dir: str, priority: str = "1-URGENT", num_partitions: int | None = None
) -> rd.Dataset:
    """(c_custkey, n_orders, total_cents) for EVERY customer — zero
    for customers with no order of the given priority (the filter
    makes the outer side non-vacuous: ~1/3 of customers have none)."""
    cust = read_pq(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    )
    orders = read_pq(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_totalprice"],
        filter=(pc.field("o_orderpriority") == priority),
    )
    n_parts = num_partitions or adaptive_partitions(
        (parquet_rows_hint(cust) or 0) + (parquet_rows_hint(orders) or 0)
        or None,
        row_bytes=32,  # (part, key, tag, n, cents)
    )

    def tag_cust(b: pa.Table) -> pa.Table:
        n = len(b)
        z = pa.array(np.zeros(n, np.int64), pa.int64())
        return pa.table(
            {
                "part": _part_of(b.column("c_custkey"), n_parts),
                "key": b.column("c_custkey"),
                "tag": pa.array(np.zeros(n, dtype=np.int8)),
                "n": z,
                "cents": z,
            }
        )

    def tag_orders(b: pa.Table) -> pa.Table:
        # per-batch partial combine: one (count, cents-sum) row per
        # DISTINCT custkey in the batch
        t = pa.table(
            {
                "key": b.column("o_custkey"),
                "cents": _cents(b.column("o_totalprice")),
            }
        )
        g = t.group_by("key").aggregate([("cents", "sum"), ("key", "count")])
        g = g.rename_columns(["key", "cents", "n"])
        return pa.table(
            {
                "part": _part_of(g.column("key"), n_parts),
                "key": g.column("key"),
                "tag": pa.array(np.ones(g.num_rows, dtype=np.int8)),
                "n": pc.cast(g.column("n"), pa.int64()),
                "cents": g.column("cents"),
            }
        )

    both = cust.map_batches(tag_cust, batch_format="pyarrow").union(
        orders.map_batches(tag_orders, batch_format="pyarrow")
    )

    def left_merge(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy(zero_copy_only=False)
        tag = group.column("tag").to_numpy(zero_copy_only=False)
        n = group.column("n").to_numpy(zero_copy_only=False)
        cents = group.column("cents").to_numpy(zero_copy_only=False)
        is_c = tag == 0
        ck = key[is_c]
        ok, on, oc = key[~is_c], n[~is_c], cents[~is_c]
        if len(ok):
            # merge the per-batch order partials per key
            order = np.argsort(ok, kind="stable")
            ok, on, oc = ok[order], on[order], oc[order]
            starts = np.flatnonzero(
                np.concatenate(([True], ok[1:] != ok[:-1]))
            )
            uk = ok[starts]
            un = np.add.reduceat(on, starts)
            uc = np.add.reduceat(oc, starts)
        else:
            uk = np.array([], np.int64)
            un = uc = np.array([], np.int64)
        pos = np.searchsorted(uk, ck)
        safe = np.minimum(pos, max(len(uk) - 1, 0))
        has = (
            (pos < len(uk)) & (uk[safe] == ck)
            if len(uk)
            else np.zeros(len(ck), bool)
        )
        return pa.table(
            {
                "c_custkey": pa.array(ck, pa.int64()),
                "n_orders": pa.array(
                    np.where(has, un[safe] if len(uk) else 0, 0).astype(
                        np.int64
                    ),
                    pa.int64(),
                ),
                "total_cents": pa.array(
                    np.where(has, uc[safe] if len(uk) else 0, 0).astype(
                        np.int64
                    ),
                    pa.int64(),
                ),
            }
        )

    return both.groupby("part").map_groups(left_merge, batch_format="pyarrow")


CUSTOMER_ORDER_COUNTS_SQL = """
SELECT c.c_custkey,
  CAST(COUNT(o.o_custkey) AS BIGINT) AS n_orders,
  CAST(COALESCE(SUM(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT)), 0)
       AS BIGINT) AS total_cents
FROM customer c LEFT JOIN orders o
  ON o.o_custkey = c.c_custkey AND o.o_orderpriority = '1-URGENT'
GROUP BY c.c_custkey
"""


# ---------------------------------------------------------------------------
# set operation: INTERSECT — distinct keys present in BOTH tables.
# Same pre-shrunk one-shuffle plan as the anti-join: each side ships
# only its per-batch DISTINCT keys onto the hashed key partition; the
# per-partition resolve is two sorted-unique arrays and one membership
# probe. (EXCEPT is the anti-join, customers_without_orders.)
# ---------------------------------------------------------------------------

def event_users_intersect_customers(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """DISTINCT event user_ids that are also customer keys."""
    events = read_pq(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id"]
    )
    cust = read_pq(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    )
    n_parts = num_partitions or adaptive_partitions(
        (parquet_rows_hint(events) or 0) + (parquet_rows_hint(cust) or 0)
        or None,
        row_bytes=24,
    )

    def tag(col: str, tag_val: int):
        def fn(b: pa.Table) -> pa.Table:
            uk = np.unique(b.column(col).to_numpy(zero_copy_only=False))
            return pa.table(
                {
                    "part": _part_of(pa.array(uk, pa.int64()), n_parts),
                    "key": pa.array(uk, pa.int64()),
                    "tag": pa.array(np.full(len(uk), tag_val, np.int8)),
                }
            )

        return fn

    both = events.map_batches(tag("user_id", 0), batch_format="pyarrow").union(
        cust.map_batches(tag("c_custkey", 1), batch_format="pyarrow")
    )

    def meet(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy(zero_copy_only=False)
        t = group.column("tag").to_numpy(zero_copy_only=False)
        a = np.unique(key[t == 0])
        b = np.unique(key[t == 1])
        return pa.table(
            {"user_id": pa.array(np.intersect1d(a, b), pa.int64())}
        )

    return both.groupby("part").map_groups(meet, batch_format="pyarrow")


EVENT_USERS_INTERSECT_SQL = """
SELECT DISTINCT user_id FROM events
INTERSECT
SELECT c_custkey AS user_id FROM customer
"""


# ---------------------------------------------------------------------------
# RANK / DENSE_RANK windows — scale-safe two-phase plan. A naive
# groupby(event_type).map_groups would materialize a whole type's rows
# in one worker (types are few ⇒ massive groups). Instead: ranks are a
# pure function of the (type, cents) VALUE HISTOGRAM — rank = 1 + rows
# strictly above, dense rank = distinct values above + 1 — so phase 1
# builds the bounded-domain histogram with per-batch partial combine
# (the events_value_percentiles discipline), the driver derives the
# per-(type, cents) rank map, and phase 2 joins it back with one
# broadcast (ray.put) + searchsorted per batch. No row ever shuffles.
# ---------------------------------------------------------------------------

def _hist_segments(hist_tbl: pa.Table, descending: bool):
    """Shared driver-side decode of a (event_type, cents, n) histogram:
    stable type→code map (sorted names), rows sorted by (code, cents
    asc|desc), and the per-type segment boundaries. Returns
    (tcode, codes_s, cents_s, ns_s, starts, seg)."""
    enc = hist_tbl.column("event_type").combine_chunks().dictionary_encode()
    dvals = enc.dictionary.to_pylist()
    tcode = {t: i for i, t in enumerate(sorted(dvals))}
    remap = np.array([tcode[t] for t in dvals], np.int64)
    codes = remap[enc.indices.to_numpy(zero_copy_only=False)]
    cents = hist_tbl.column("cents").to_numpy(zero_copy_only=False)
    ns = hist_tbl.column("n").to_numpy(zero_copy_only=False)
    if len(cents) and (
        cents.min() < -(1 << 39) or cents.max() >= (1 << 39)
    ):
        raise ValueError("cents outside packed-key range")
    order = np.lexsort((-cents if descending else cents, codes))
    codes_s, cents_s, ns_s = codes[order], cents[order], ns[order]
    new = np.concatenate([[True], codes_s[1:] != codes_s[:-1]])
    starts = np.flatnonzero(new)
    seg = np.cumsum(new) - 1
    return tcode, codes_s, cents_s, ns_s, starts, seg


def _hist_rank_arrays(hist_tbl: pa.Table):
    """(tcode, packed keys sorted asc, RANK, DENSE_RANK) from the
    bounded (type, cents) histogram — pure numpy segment math."""
    tcode, codes_s, cents_s, ns_s, starts, seg = _hist_segments(
        hist_tbl, descending=True
    )
    csum = np.cumsum(ns_s)
    excl = csum - ns_s
    base = excl[starts][seg]
    rnk = excl - base + 1
    drnk = np.arange(len(codes_s), dtype=np.int64) - starts[seg] + 1
    keys = (codes_s << 40) | (cents_s + (1 << 39))
    order = np.argsort(keys)
    return tcode, keys[order], rnk[order], drnk[order]


def events_value_ranks(sf_dir: str) -> rd.Dataset:
    """(event_id, event_type, cents, rnk, drnk): RANK and DENSE_RANK
    of each event's value within its type, descending."""
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "event_type", "value"],
    )

    def hist_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "cents": _cents(batch.column("value")),
            }
        )
        g = t.group_by(["event_type", "cents"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "cents", "n"])

    hist_tbl = bounded_group_table_strict(
        ds.map_batches(hist_partial, batch_format="pyarrow"),
        ["event_type", "cents"],
        [("n", "sum")],
    )
    # driver: per type, descending-cents cumulative ranks — fully
    # vectorized (the histogram is types × distinct-cents rows; a
    # Python row loop here measurably dominated the query wall time)
    if hist_tbl is not None and hist_tbl.num_rows:
        tcode, keys, rnks, drnks = _hist_rank_arrays(hist_tbl)
    else:
        tcode = {}
        keys = rnks = drnks = np.zeros(0, np.int64)
    ref = ray.put((tcode, keys, rnks, drnks))

    def attach(batch: pa.Table) -> pa.Table:
        tc, k, rk, dk = ray.get(ref)
        cents = _cents(batch.column("value")).to_numpy(zero_copy_only=False)
        # map types → codes over the batch's UNIQUE values only
        # (dictionary-encode + take; no per-row Python)
        enc = batch.column("event_type").combine_chunks().dictionary_encode()
        code_of = np.array(
            [tc[t] for t in enc.dictionary.to_pylist()], np.int64
        )
        codes = code_of[enc.indices.to_numpy(zero_copy_only=False)]
        key = (codes << 40) | (cents + (1 << 39))
        pos = np.searchsorted(k, key)  # every key exists by construction
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
                "cents": pa.array(cents, pa.int64()),
                "rnk": pa.array(rk[pos], pa.int64()),
                "drnk": pa.array(dk[pos], pa.int64()),
            }
        )

    return ds.map_batches(attach, batch_format="pyarrow")


EVENTS_RANKS_SQL = """
WITH c AS (
  SELECT event_id, event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
)
SELECT event_id, event_type, cents,
  CAST(RANK() OVER (PARTITION BY event_type ORDER BY cents DESC)
       AS BIGINT) AS rnk,
  CAST(DENSE_RANK() OVER (PARTITION BY event_type ORDER BY cents DESC)
       AS BIGINT) AS drnk
FROM c
"""


# ---------------------------------------------------------------------------
# distributed moment aggregate: per-group Pearson correlation. The
# six sufficient statistics (n, Σx, Σy, Σxy, Σx², Σy²) are EXACT int64
# sums (value already integerized to cents, hour ∈ [0,24)), combined
# per batch and shuffled as six numbers per (batch, group) — the
# one-pass moments plan every distributed stats library uses. The
# final float64 formula is expression-identical to the SQL oracle's,
# so the result hashes exactly. Int64 bound: |Σx²| < 2⁶³ holds to
# ~10⁹ rows per group at 10⁵ cents; past that, widen partials to
# float128 or split the sum (documented, not needed at driver scale).
# ---------------------------------------------------------------------------

def events_value_corr(sf_dir: str) -> rd.Dataset:
    """(event_type, n, corr_xy): correlation between value-cents and
    hour-of-day per event type."""
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "ts", "value"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        x = _cents(batch.column("value")).to_numpy(zero_copy_only=False)
        y = pc.cast(pc.hour(batch.column("ts")), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        types = batch.column("event_type").to_numpy(zero_copy_only=False)
        uk, inv = np.unique(types.astype(str), return_inverse=True)
        m = len(uk)

        def seg(v):
            acc = np.zeros(m, np.int64)
            np.add.at(acc, inv, v)
            return acc

        return pa.table(
            {
                "event_type": pa.array(uk.tolist(), pa.string()),
                "n": pa.array(np.bincount(inv, minlength=m).astype(np.int64)),
                "sx": pa.array(seg(x)),
                "sy": pa.array(seg(y)),
                "sxy": pa.array(seg(x * y)),
                "sxx": pa.array(seg(x * x)),
                "syy": pa.array(seg(y * y)),
            }
        )

    agg = bounded_group_reduce(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type"],
        [(c, "sum") for c in ("n", "sx", "sy", "sxy", "sxx", "syy")],
    )

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        sx = b.column("sx").to_numpy(zero_copy_only=False).astype(np.float64)
        sy = b.column("sy").to_numpy(zero_copy_only=False).astype(np.float64)
        sxy = b.column("sxy").to_numpy(zero_copy_only=False).astype(np.float64)
        sxx = b.column("sxx").to_numpy(zero_copy_only=False).astype(np.float64)
        syy = b.column("syy").to_numpy(zero_copy_only=False).astype(np.float64)
        # expression-identical to the oracle: num / sqrt(varx * vary)
        corr = (n * sxy - sx * sy) / np.sqrt(
            (n * sxx - sx * sx) * (n * syy - sy * sy)
        )
        return pa.table(
            {
                "event_type": b.column("event_type"),
                "n": b.column("n"),
                "corr_xy": pa.array(corr, pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


EVENTS_CORR_SQL = """
WITH c AS (
  SELECT event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS x,
         CAST(EXTRACT(hour FROM ts) AS BIGINT) AS y
  FROM events
),
s AS (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
    CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
    CAST(SUM(x * y) AS BIGINT) AS sxy,
    CAST(SUM(x * x) AS BIGINT) AS sxx,
    CAST(SUM(y * y) AS BIGINT) AS syy
  FROM c GROUP BY event_type
)
SELECT event_type, n,
  (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
     - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
  / sqrt((CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
            - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
         * (CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
            - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE))) AS corr_xy
FROM s
"""


# ---------------------------------------------------------------------------
# higher-moment shape statistics: per-group SKEWNESS and EXCESS
# KURTOSIS of hour-of-day — the diurnal-shape profile of an event
# stream. Same one-pass exact-moments plan as events_value_corr but
# with Σy³ and Σy⁴ partials: hour ∈ [0,24) so y⁴ ≤ 279 841 and the
# int64 sums stay EXACT to ~3×10¹³ rows per group — no quantization
# compromise at 10¹²-doc scale (value-cents couldn't do this: cents⁴
# overflows int64 immediately, which is exactly why the shape
# statistics run on the bounded-domain column). Final floats are a
# fixed-association expression mirrored verbatim by the oracle
# (sqrt not pow — np.power and DuckDB pow() disagree in ulps);
# zero-variance groups emit NULL on both sides (DuckDB's x/0.0 is
# NULL, numpy's is nan — the CASE guard keeps the engines aligned).
# ---------------------------------------------------------------------------

def events_hour_moments(sf_dir: str) -> rd.Dataset:
    """(event_type, n, mean_hour, var_hour, skew_hour, kurt_hour):
    population moments of event hour-of-day per type."""
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "ts"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        y = pc.cast(pc.hour(batch.column("ts")), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        types = batch.column("event_type").to_numpy(zero_copy_only=False)
        uk, inv = np.unique(types.astype(str), return_inverse=True)
        m = len(uk)

        def seg(v):
            acc = np.zeros(m, np.int64)
            np.add.at(acc, inv, v)
            return acc

        y2 = y * y
        return pa.table(
            {
                "event_type": pa.array(uk.tolist(), pa.string()),
                "n": pa.array(np.bincount(inv, minlength=m).astype(np.int64)),
                "s1": pa.array(seg(y)),
                "s2": pa.array(seg(y2)),
                "s3": pa.array(seg(y2 * y)),
                "s4": pa.array(seg(y2 * y2)),
            }
        )

    agg = bounded_group_reduce(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type"],
        [(c, "sum") for c in ("n", "s1", "s2", "s3", "s4")],
    )

    def finish(b: pa.Table) -> pa.Table:
        nf = b.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        s1 = b.column("s1").to_numpy(zero_copy_only=False).astype(np.float64)
        s2 = b.column("s2").to_numpy(zero_copy_only=False).astype(np.float64)
        s3 = b.column("s3").to_numpy(zero_copy_only=False).astype(np.float64)
        s4 = b.column("s4").to_numpy(zero_copy_only=False).astype(np.float64)
        # expression-identical to EVENTS_HOUR_MOMENTS_SQL
        mean = s1 / nf
        r2, r3, r4 = s2 / nf, s3 / nf, s4 / nf
        m2 = r2 - mean * mean
        m3 = r3 - 3.0 * mean * r2 + 2.0 * ((mean * mean) * mean)
        m4 = (
            r4
            - 4.0 * mean * r3
            + 6.0 * ((mean * mean) * r2)
            - 3.0 * ((mean * mean) * (mean * mean))
        )
        ok = m2 > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            skew = m3 / (m2 * np.sqrt(m2))
            kurt = m4 / (m2 * m2) - 3.0
        return pa.table(
            {
                "event_type": b.column("event_type"),
                "n": b.column("n"),
                "mean_hour": pa.array(mean, pa.float64()),
                "var_hour": pa.array(m2, pa.float64()),
                "skew_hour": pa.array(skew, pa.float64(), mask=~ok),
                "kurt_hour": pa.array(kurt, pa.float64(), mask=~ok),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


EVENTS_HOUR_MOMENTS_SQL = """
WITH c AS (
  SELECT event_type, CAST(EXTRACT(hour FROM ts) AS BIGINT) AS y
  FROM events
),
s AS (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
    CAST(SUM(y) AS BIGINT) AS s1,
    CAST(SUM(y * y) AS BIGINT) AS s2,
    CAST(SUM(y * y * y) AS BIGINT) AS s3,
    CAST(SUM((y * y) * (y * y)) AS BIGINT) AS s4
  FROM c GROUP BY event_type
),
r AS (
  SELECT event_type, n,
    CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE) AS mean,
    CAST(s2 AS DOUBLE) / CAST(n AS DOUBLE) AS r2,
    CAST(s3 AS DOUBLE) / CAST(n AS DOUBLE) AS r3,
    CAST(s4 AS DOUBLE) / CAST(n AS DOUBLE) AS r4
  FROM s
),
m AS (
  SELECT event_type, n, mean,
    r2 - mean * mean AS m2,
    r3 - CAST(3 AS DOUBLE) * mean * r2
       + CAST(2 AS DOUBLE) * ((mean * mean) * mean) AS m3,
    r4 - CAST(4 AS DOUBLE) * mean * r3
       + CAST(6 AS DOUBLE) * ((mean * mean) * r2)
       - CAST(3 AS DOUBLE) * ((mean * mean) * (mean * mean)) AS m4
  FROM r
)
SELECT event_type, n, mean AS mean_hour, m2 AS var_hour,
  CASE WHEN m2 > CAST(0 AS DOUBLE)
       THEN m3 / (m2 * sqrt(m2)) ELSE NULL END AS skew_hour,
  CASE WHEN m2 > CAST(0 AS DOUBLE)
       THEN m4 / (m2 * m2) - CAST(3 AS DOUBLE) ELSE NULL END AS kurt_hour
FROM m
"""


# ---------------------------------------------------------------------------
# time-series AUTOCORRELATION of the hourly event-count series, per
# type, at lags 1 h and 24 h (adjacency + diurnal periodicity — the
# two numbers a crawl-rate monitor actually reads). Plan: per-batch
# (type, hour-index, n) count partials — 24 B rows, the only thing
# that ever shuffles — merged by the bounded driver reduce (the
# domain is |types| × hours-of-history: ~44 k rows for 5 types over a
# year; a 10¹²-row corpus still lands at the same bound because the
# HOURS don't grow with the rows). The driver then zero-fills the
# dense [global-min, global-max] hour range per type and computes the
# lagged Pearson from exact int64 sums — counts per (type, hour) stay
# < 2×10⁷ even at 10¹² rows, so Σc·c' < 2⁶³ holds with margin. The
# SQL oracle re-derives the dense series with generate_series and the
# identical fixed-association formula; flat (zero-variance) series
# emit NULL on both sides.
# ---------------------------------------------------------------------------

_AUTOCORR_LAGS = (1, 24)
_HOUR_US = 3_600_000_000


def events_hourly_autocorr(sf_dir: str) -> pa.Table:
    """(event_type, lag_hours, n_pairs, autocorr): lagged Pearson
    autocorrelation of the zero-filled hourly count series."""
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["ts", "event_type"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        h = pc.divide(
            pc.cast(
                pc.floor_temporal(batch.column("ts"), unit="hour"), pa.int64()
            ),
            _HOUR_US,
        )
        t = pa.table({"event_type": batch.column("event_type"), "h": h})
        g = t.group_by(["event_type", "h"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "h", "n"])

    tbl = bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "h"],
        [("n", "sum")],
    )
    out_t, out_k, out_m, out_r = [], [], [], []
    if tbl is not None and tbl.num_rows:
        types = tbl.column("event_type").to_numpy(zero_copy_only=False)
        hs = tbl.column("h").to_numpy(zero_copy_only=False)
        ns = tbl.column("n").to_numpy(zero_copy_only=False)
        hmin, hmax = int(hs.min()), int(hs.max())
        span = hmax - hmin + 1
        for t_name in sorted(np.unique(types.astype(str)).tolist()):
            sel = types == t_name
            dense = np.zeros(span, np.int64)
            dense[hs[sel] - hmin] = ns[sel]
            for k in _AUTOCORR_LAGS:
                if span <= k:
                    continue
                x, y = dense[:-k], dense[k:]
                m = len(x)
                mf = np.float64(m)
                sx, sy = np.float64(x.sum()), np.float64(y.sum())
                sxy = np.float64((x * y).sum())
                sxx = np.float64((x * x).sum())
                syy = np.float64((y * y).sum())
                # expression-identical to EVENTS_AUTOCORR_SQL
                den = (mf * sxx - sx * sx) * (mf * syy - sy * sy)
                r = (
                    float((mf * sxy - sx * sy) / np.sqrt(den))
                    if den > 0.0
                    else None
                )
                out_t.append(t_name)
                out_k.append(k)
                out_m.append(m)
                out_r.append(r)
    return pa.table(
        {
            "event_type": pa.array(out_t, pa.string()),
            "lag_hours": pa.array(out_k, pa.int64()),
            "n_pairs": pa.array(out_m, pa.int64()),
            "autocorr": pa.array(out_r, pa.float64()),
        }
    )


EVENTS_AUTOCORR_SQL = """
WITH c AS (
  SELECT event_type,
         epoch_us(date_trunc('hour', ts)) // 3600000000 AS h
  FROM events
),
cnt AS (
  SELECT event_type, h, CAST(COUNT(*) AS BIGINT) AS n
  FROM c GROUP BY event_type, h
),
b AS (SELECT min(h) AS hmin, max(h) AS hmax FROM c),
hours AS (SELECT unnest(generate_series(hmin, hmax)) AS h FROM b),
types AS (SELECT DISTINCT event_type FROM c),
dense AS (
  SELECT t.event_type, hrs.h, COALESCE(cnt.n, 0) AS n
  FROM types t CROSS JOIN hours hrs
  LEFT JOIN cnt ON cnt.event_type = t.event_type AND cnt.h = hrs.h
),
lags AS (SELECT * FROM (VALUES (1), (24)) AS l(k)),
pairs AS (
  SELECT d1.event_type, l.k, d1.n AS x, d2.n AS y
  FROM dense d1 CROSS JOIN lags l
  JOIN dense d2
    ON d2.event_type = d1.event_type AND d2.h = d1.h + l.k
),
s AS (
  SELECT event_type, k, CAST(COUNT(*) AS BIGINT) AS m,
    CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
    CAST(SUM(x * y) AS BIGINT) AS sxy,
    CAST(SUM(x * x) AS BIGINT) AS sxx,
    CAST(SUM(y * y) AS BIGINT) AS syy
  FROM pairs GROUP BY event_type, k
)
SELECT event_type, CAST(k AS BIGINT) AS lag_hours, m AS n_pairs,
  CASE WHEN (CAST(m AS DOUBLE) * CAST(sxx AS DOUBLE)
               - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
            * (CAST(m AS DOUBLE) * CAST(syy AS DOUBLE)
               - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE))
            > CAST(0 AS DOUBLE)
  THEN (CAST(m AS DOUBLE) * CAST(sxy AS DOUBLE)
          - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
       / sqrt((CAST(m AS DOUBLE) * CAST(sxx AS DOUBLE)
                 - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
              * (CAST(m AS DOUBLE) * CAST(syy AS DOUBLE)
                 - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)))
  ELSE NULL END AS autocorr
FROM s
"""


# ---------------------------------------------------------------------------
# latest-record-per-key compaction — the CDC/upsert shape (keep each
# key's most recent record; the recency twin of exact dedup's
# first-occurrence rule) — and per-key ordered COLLECT (string_agg):
# behavior sequences for sequence models. Both ride the sessionize
# plan: ONE shuffle onto an adaptive hashed key partition, one lexsort
# + segment math per partition.
# ---------------------------------------------------------------------------

def events_latest_per_user(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(user_id, event_id, ts_us, cents): each user's most recent
    event under the (ts, event_id) total order."""
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id", "value"],
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ds), row_bytes=32
    )

    def tag(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part": _part_of(b.column("user_id"), n_parts),
                "user_id": b.column("user_id"),
                "ts_us": pc.cast(b.column("ts"), pa.int64()),
                "event_id": b.column("event_id"),
                "cents": _cents(b.column("value")),
            }
        )

    def latest(g: pa.Table) -> pa.Table:
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        ts = g.column("ts_us").to_numpy(zero_copy_only=False)
        eid = g.column("event_id").to_numpy(zero_copy_only=False)
        cents = g.column("cents").to_numpy(zero_copy_only=False)
        if len(uid) == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "event_id": pa.array([], pa.int64()),
                    "ts_us": pa.array([], pa.int64()),
                    "cents": pa.array([], pa.int64()),
                }
            )
        order = np.lexsort((eid, ts, uid))
        u, t, e, c = uid[order], ts[order], eid[order], cents[order]
        # last row of each user segment = the max (ts, event_id)
        last = np.concatenate((u[1:] != u[:-1], [True]))
        return pa.table(
            {
                "user_id": pa.array(u[last], pa.int64()),
                "event_id": pa.array(e[last], pa.int64()),
                "ts_us": pa.array(t[last], pa.int64()),
                "cents": pa.array(c[last], pa.int64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(latest, batch_format="pyarrow")
    )


EVENTS_LATEST_SQL = """
SELECT user_id, event_id, epoch_us(ts) AS ts_us,
       CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
FROM events
QUALIFY row_number() OVER (
  PARTITION BY user_id ORDER BY ts DESC, event_id DESC
) = 1
"""


def user_event_sequences(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(user_id, n_events, sequence): each user's event types joined
    in (ts, event_id) order — the ordered COLLECT every behavioral-
    sequence model trains on."""
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ds), row_bytes=40
    )

    def tag(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part": _part_of(b.column("user_id"), n_parts),
                "user_id": b.column("user_id"),
                "ts_us": pc.cast(b.column("ts"), pa.int64()),
                "event_id": b.column("event_id"),
                "event_type": b.column("event_type"),
            }
        )

    def collect(g: pa.Table) -> pa.Table:
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        ts = g.column("ts_us").to_numpy(zero_copy_only=False)
        eid = g.column("event_id").to_numpy(zero_copy_only=False)
        if len(uid) == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "sequence": pa.array([], pa.string()),
                }
            )
        order = np.lexsort((eid, ts, uid))
        u = uid[order]
        types = g.column("event_type").take(
            pa.array(order, pa.int64())
        )
        new = np.empty(len(u), dtype=bool)
        new[0] = True
        new[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(new)
        offsets = pa.array(
            np.append(starts, len(u)).astype(np.int32)
        )
        # per-user list of types -> one binary_join per segment (C++)
        lists = pa.ListArray.from_arrays(offsets, types.combine_chunks())
        seqs = pc.binary_join(lists, ",")
        return pa.table(
            {
                "user_id": pa.array(u[starts], pa.int64()),
                "n_events": pa.array(
                    np.diff(np.append(starts, len(u))).astype(np.int64)
                ),
                "sequence": seqs,
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(collect, batch_format="pyarrow")
    )


USER_SEQUENCES_SQL = """
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
       string_agg(event_type, ',' ORDER BY ts, event_id) AS sequence
FROM events GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# Burstiness (Fano factor / index of dispersion) of the hourly count
# series per type: var/mean == 1 for a Poisson arrival process, > 1
# for bursty crawl traffic, < 1 for rate-limited clients. Same dense
# zero-filled global hour range and bounded (type, hour, n) partials
# as events_hourly_autocorr; the final floats are single divisions of
# exact int64 sums, expression-identical to the oracle.
# ---------------------------------------------------------------------------

def events_type_fano(sf_dir: str) -> pa.Table:
    """(event_type, n_hours, mean_cph, fano) over the dense hourly
    count series."""
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["ts", "event_type"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        h = pc.divide(
            pc.cast(
                pc.floor_temporal(batch.column("ts"), unit="hour"), pa.int64()
            ),
            _HOUR_US,
        )
        t = pa.table({"event_type": batch.column("event_type"), "h": h})
        g = t.group_by(["event_type", "h"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "h", "n"])

    tbl = bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "h"],
        [("n", "sum")],
    )
    out_t, out_n, out_m, out_f = [], [], [], []
    if tbl is not None and tbl.num_rows:
        types = tbl.column("event_type").to_numpy(zero_copy_only=False)
        hs = tbl.column("h").to_numpy(zero_copy_only=False)
        ns = tbl.column("n").to_numpy(zero_copy_only=False)
        hmin, hmax = int(hs.min()), int(hs.max())
        span = hmax - hmin + 1
        for t_name in sorted(np.unique(types.astype(str)).tolist()):
            sel = types == t_name
            # exact sums over the DENSE series: zeros add nothing
            s1 = int(ns[sel].sum())
            s2 = int((ns[sel].astype(np.int64) ** 2).sum())
            nf = np.float64(span)
            # expression-identical to EVENTS_FANO_SQL
            mean = np.float64(s1) / nf
            var = np.float64(s2) / nf - mean * mean
            out_t.append(t_name)
            out_n.append(span)
            out_m.append(float(mean))
            out_f.append(float(var / mean) if s1 > 0 else None)
    return pa.table(
        {
            "event_type": pa.array(out_t, pa.string()),
            "n_hours": pa.array(out_n, pa.int64()),
            "mean_cph": pa.array(out_m, pa.float64()),
            "fano": pa.array(out_f, pa.float64()),
        }
    )


EVENTS_FANO_SQL = """
WITH c AS (
  SELECT event_type,
         epoch_us(date_trunc('hour', ts)) // 3600000000 AS h
  FROM events
),
cnt AS (
  SELECT event_type, h, CAST(COUNT(*) AS BIGINT) AS n
  FROM c GROUP BY event_type, h
),
b AS (
  SELECT CAST(max(h) - min(h) + 1 AS BIGINT) AS span FROM c
),
s AS (
  SELECT event_type,
    CAST(SUM(n) AS BIGINT) AS s1,
    CAST(SUM(n * n) AS BIGINT) AS s2
  FROM cnt GROUP BY event_type
)
SELECT event_type, b.span AS n_hours,
  CAST(s1 AS DOUBLE) / CAST(b.span AS DOUBLE) AS mean_cph,
  (CAST(s2 AS DOUBLE) / CAST(b.span AS DOUBLE)
     - (CAST(s1 AS DOUBLE) / CAST(b.span AS DOUBLE))
       * (CAST(s1 AS DOUBLE) / CAST(b.span AS DOUBLE)))
  / (CAST(s1 AS DOUBLE) / CAST(b.span AS DOUBLE)) AS fano
FROM s CROSS JOIN b
"""


# ---------------------------------------------------------------------------
# Session-duration distribution — the composition a product team
# actually asks of sessionization: per-session durations (first→last
# event, µs) fed into the PARTITION-INVARIANT sampled quantiles.
# Session identity (user_id·10⁶ + ordinal) is a deterministic
# function of the data, so the bottom-k splitmix sample — and the
# whole result — is bitwise reproducible at any partition count.
# Shapes: one hashed-user shuffle (24 B rows) to sessionize, then
# ≤k-row sample partials; the sessions themselves never leave their
# partition.
# ---------------------------------------------------------------------------

def session_duration_quantiles(
    sf_dir: str, num_partitions: int | None = None
) -> pa.Table:
    """(pct, est): sampled quantiles of per-session duration (µs)."""
    from ..functions.sketch import sampled_quantiles

    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id"],
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ds), row_bytes=24
    )

    def tag(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part": _part_of(b.column("user_id"), n_parts),
                "user_id": b.column("user_id"),
                "ts": pc.cast(b.column("ts"), pa.int64()),
                "event_id": b.column("event_id"),
            }
        )

    gap_us = SESSION_GAP_S * 1_000_000

    def sessions(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "sid": pa.array([], pa.int64()),
                "dur": pa.array([], pa.float64()),
            }
        )
        if g.num_rows == 0:
            return empty
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        ts = g.column("ts").to_numpy(zero_copy_only=False)
        eid = g.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u, t = uid[order], ts[order]
        n = len(u)
        new_user = np.empty(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = u[1:] != u[:-1]
        gap = np.zeros(n, dtype=bool)
        gap[1:] = ~new_user[1:] & (t[1:] - t[:-1] > gap_us)
        new_sess = new_user | gap
        seg = np.cumsum(new_sess) - 1
        n_seg = int(seg[-1]) + 1
        starts = np.flatnonzero(new_sess)
        first = t[starts]
        last = np.maximum.reduceat(t, starts)
        sess_user = u[starts]
        # session ordinal within user (sessions arrive user-grouped)
        user_first = np.flatnonzero(new_user[starts])
        sidx = np.arange(n_seg, dtype=np.int64) - np.repeat(
            user_first, np.diff(np.append(user_first, n_seg))
        )
        sid = sess_user * 1_000_000 + sidx
        return pa.table(
            {
                "sid": pa.array(sid, pa.int64()),
                "dur": pa.array((last - first).astype(np.float64), pa.float64()),
            }
        )

    sess_ds = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(sessions, batch_format="pyarrow")
    )
    return sampled_quantiles(sess_ds, "sid", "dur")


SESSION_DURATION_QUANTILES_SQL_TEMPLATE = """
WITH ordered AS (
  SELECT user_id, event_id, epoch_us(ts) AS tus,
    LAG(epoch_us(ts)) OVER (
      PARTITION BY user_id ORDER BY ts, event_id) AS prev
  FROM events
),
tagged AS (
  SELECT user_id, tus,
    SUM(CASE WHEN prev IS NOT NULL AND tus - prev > {gap_us}
        THEN 1 ELSE 0 END)
      OVER (PARTITION BY user_id ORDER BY tus, event_id
            ROWS UNBOUNDED PRECEDING) AS sidx
  FROM ordered
),
sess AS (
  SELECT user_id * 1000000 + sidx AS sid,
    CAST(max(tus) - min(tus) AS DOUBLE) AS dur
  FROM tagged GROUP BY user_id, sidx
),
ids AS (SELECT CAST(sid AS UBIGINT) AS eid, dur AS value FROM sess),
{sm},
samp AS (
  SELECT value FROM {cte}
  QUALIFY row_number() OVER (ORDER BY {col}) <= {k}
),
sorted_samp AS (
  SELECT value, row_number() OVER (ORDER BY value) AS rn,
    COUNT(*) OVER () AS n
  FROM samp
),
pcts AS (SELECT unnest([{pcts}]) AS pct)
SELECT CAST(p.pct AS BIGINT) AS pct, s.value AS est
FROM pcts p JOIN sorted_samp s
  ON s.rn - 1 = LEAST(s.n - 1, (s.n * p.pct) // 100)
"""


# ---------------------------------------------------------------------------
# RFM customer feature bins — the classic recency/frequency/monetary
# quintile features a churn/value model trains on. Per-customer
# aggregates ride ONE hashed-custkey shuffle of 32 B partial rows;
# the three metrics' quintile thresholds come from ONE shared
# bottom-k splitmix64(custkey) sample (the same row set serves all
# three — a deterministic function of the customer SET, so the bins
# are reproducible at any partition count); binning is a broadcast +
# searchsorted. bin = 1 + |{thresholds ≤ v}| ≡ the oracle's
# 1 + Σ(v ≥ tᵢ).
# ---------------------------------------------------------------------------

_RFM_PCTS = (20, 40, 60, 80)
_DAY_US = 86_400_000_000


def customer_rfm_bins(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(o_custkey, recency_days, frequency, monetary_cents, r_bin,
    f_bin, m_bin) for every customer with at least one order."""
    import ray as _ray

    from ..functions.hashing import splitmix64_np
    from ..functions.sketch import SQ_K, _sq_rank

    path = os.path.join(sf_dir, "orders.parquet")
    # pass 1: global max order date (one column, 8 B/row scan)
    gds = read_pq(path, columns=["o_orderdate"])

    def bmax(b: pa.Table) -> pa.Table:
        m = pc.max(pc.cast(b.column("o_orderdate"), pa.int64()))
        return pa.table({"m": pa.array([m.as_py()], pa.int64())})

    maxes = [
        r["m"]
        for t in _ray.get(
            gds.map_batches(bmax, batch_format="pyarrow")
            .materialize()
            .to_arrow_refs()
        )
        for r in t.to_pylist()
        if r["m"] is not None
    ]
    empty_out = pa.table(
        {
            "o_custkey": pa.array([], pa.int64()),
            "recency_days": pa.array([], pa.int64()),
            "frequency": pa.array([], pa.int64()),
            "monetary_cents": pa.array([], pa.int64()),
            "r_bin": pa.array([], pa.int64()),
            "f_bin": pa.array([], pa.int64()),
            "m_bin": pa.array([], pa.int64()),
        }
    )
    if not maxes:
        return rd.from_arrow(empty_out)
    gmax = max(maxes)

    ds = read_pq(
        path, columns=["o_custkey", "o_totalprice", "o_orderdate"]
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ds), row_bytes=32
    )

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_custkey": b.column("o_custkey"),
                "cents": _cents(b.column("o_totalprice")),
                "ts": pc.cast(b.column("o_orderdate"), pa.int64()),
            }
        )
        g = t.group_by(["o_custkey"]).aggregate(
            [([], "count_all"), ("cents", "sum"), ("ts", "max")]
        )
        g = g.rename_columns(["o_custkey", "n", "cents", "last_ts"])
        return g.append_column(
            "part", _part_of(g.column("o_custkey"), n_parts)
        )

    def fold(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table(
                {
                    "o_custkey": pa.array([], pa.int64()),
                    "recency_days": pa.array([], pa.int64()),
                    "frequency": pa.array([], pa.int64()),
                    "monetary_cents": pa.array([], pa.int64()),
                }
            )
        m = (
            g.select(["o_custkey", "n", "cents", "last_ts"])
            .group_by(["o_custkey"])
            .aggregate([("n", "sum"), ("cents", "sum"), ("last_ts", "max")])
            .rename_columns(["o_custkey", "n", "cents", "last_ts"])
        )
        last = m.column("last_ts").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_custkey": m.column("o_custkey"),
                "recency_days": pa.array(
                    (gmax - last) // _DAY_US, pa.int64()
                ),
                "frequency": m.column("n"),
                "monetary_cents": m.column("cents"),
            }
        )

    percust = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(fold, batch_format="pyarrow")
    )

    # ONE shared bottom-k sample carries all three metrics
    def sample_partial(b: pa.Table) -> pa.Table:
        ids = b.column("o_custkey").to_numpy(zero_copy_only=False)
        h = splitmix64_np(ids.astype(np.uint64))
        if len(h) > SQ_K:
            sel = np.argpartition(h, SQ_K)[:SQ_K]
        else:
            sel = np.arange(len(h))
        sel = sel[np.argsort(h[sel])]
        return pa.table(
            {
                "h": pa.array(h[sel], pa.uint64()),
                "r": b.column("recency_days").take(pa.array(sel, pa.int64())),
                "f": b.column("frequency").take(pa.array(sel, pa.int64())),
                "m": b.column("monetary_cents").take(pa.array(sel, pa.int64())),
            }
        )

    parts = [
        t
        for t in _ray.get(
            percust.map_batches(sample_partial, batch_format="pyarrow")
            .materialize()
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    if not parts:
        return rd.from_arrow(
            pa.table(
                {
                    "o_custkey": pa.array([], pa.int64()),
                    "recency_days": pa.array([], pa.int64()),
                    "frequency": pa.array([], pa.int64()),
                    "monetary_cents": pa.array([], pa.int64()),
                    "r_bin": pa.array([], pa.int64()),
                    "f_bin": pa.array([], pa.int64()),
                    "m_bin": pa.array([], pa.int64()),
                }
            )
        )
    st = pa.concat_tables(parts)
    h = st.column("h").to_numpy(zero_copy_only=False)
    order = np.argsort(h)[:SQ_K]
    n = len(order)
    thr = {}
    for col in ("r", "f", "m"):
        v = np.sort(st.column(col).to_numpy(zero_copy_only=False)[order])
        thr[col] = np.array(
            [v[_sq_rank(n, p)] for p in _RFM_PCTS], np.int64
        )
    thr_ref = _ray.put(thr)

    def bin_stage(b: pa.Table) -> pa.Table:
        t = _ray.get(thr_ref)
        out = b
        for col, name in (
            ("recency_days", "r_bin"),
            ("frequency", "f_bin"),
            ("monetary_cents", "m_bin"),
        ):
            v = b.column(col).to_numpy(zero_copy_only=False)
            key = {"recency_days": "r", "frequency": "f",
                   "monetary_cents": "m"}[col]
            bins = 1 + np.searchsorted(t[key], v, side="right")
            out = out.append_column(name, pa.array(bins, pa.int64()))
        return out

    return percust.map_batches(bin_stage, batch_format="pyarrow")


def _rfm_sql(sm: str, cte: str, col: str, k: int) -> str:
    pcts = ", ".join(str(p) for p in _RFM_PCTS)
    thr_cols = []
    for metric in ("r", "f", "m"):
        thr_cols.append(f"""
sorted_{metric} AS (
  SELECT {metric} AS v, row_number() OVER (ORDER BY {metric}) AS rn,
    COUNT(*) OVER () AS n
  FROM samp
),
thr_{metric} AS (
  SELECT list(v ORDER BY pct) AS ts FROM (
    SELECT p.pct, s.v
    FROM (SELECT unnest([{pcts}]) AS pct) p
    JOIN sorted_{metric} s
      ON s.rn - 1 = LEAST(s.n - 1, (s.n * p.pct) // 100)
  )
)""")
    return f"""
WITH pc AS (
  SELECT o_custkey,
    CAST(COUNT(*) AS BIGINT) AS frequency,
    CAST(SUM(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
      AS monetary_cents,
    max(epoch_us(o_orderdate)) AS last_ts
  FROM orders GROUP BY o_custkey
),
gm AS (SELECT max(epoch_us(o_orderdate)) AS g FROM orders),
feat AS (
  SELECT o_custkey,
    CAST((g - last_ts) // {_DAY_US} AS BIGINT) AS recency_days,
    frequency, monetary_cents
  FROM pc CROSS JOIN gm
),
ids AS (
  SELECT CAST(o_custkey AS UBIGINT) AS ck,
    recency_days AS r, frequency AS f, monetary_cents AS m
  FROM feat
),
{sm},
samp AS (
  SELECT r, f, m FROM {cte}
  QUALIFY row_number() OVER (ORDER BY {col}) <= {k}
),{','.join(thr_cols)}
SELECT feat.o_custkey, feat.recency_days, feat.frequency,
  feat.monetary_cents,
  CAST(1 + (CASE WHEN recency_days >= tr.ts[1] THEN 1 ELSE 0 END)
         + (CASE WHEN recency_days >= tr.ts[2] THEN 1 ELSE 0 END)
         + (CASE WHEN recency_days >= tr.ts[3] THEN 1 ELSE 0 END)
         + (CASE WHEN recency_days >= tr.ts[4] THEN 1 ELSE 0 END)
       AS BIGINT) AS r_bin,
  CAST(1 + (CASE WHEN frequency >= tf.ts[1] THEN 1 ELSE 0 END)
         + (CASE WHEN frequency >= tf.ts[2] THEN 1 ELSE 0 END)
         + (CASE WHEN frequency >= tf.ts[3] THEN 1 ELSE 0 END)
         + (CASE WHEN frequency >= tf.ts[4] THEN 1 ELSE 0 END)
       AS BIGINT) AS f_bin,
  CAST(1 + (CASE WHEN monetary_cents >= tm.ts[1] THEN 1 ELSE 0 END)
         + (CASE WHEN monetary_cents >= tm.ts[2] THEN 1 ELSE 0 END)
         + (CASE WHEN monetary_cents >= tm.ts[3] THEN 1 ELSE 0 END)
         + (CASE WHEN monetary_cents >= tm.ts[4] THEN 1 ELSE 0 END)
       AS BIGINT) AS m_bin
FROM feat CROSS JOIN thr_r tr CROSS JOIN thr_f tf CROSS JOIN thr_m tm
"""


# ---------------------------------------------------------------------------
# Change-point detection — the single split of the dense hourly count
# series that maximizes the level shift |mean_right − mean_left|, per
# type: "when did this event stream change regime" (a crawler ramp,
# a source going dark). Same bounded (type, hour, n) partials and
# dense global range as the autocorrelation; every candidate split's
# means are single divisions of exact int64 prefix sums, computed
# identically on both sides, so the argmax (tie → earliest hour) is
# oracle-reproducible.
# ---------------------------------------------------------------------------

def events_changepoint(sf_dir: str) -> pa.Table:
    """(event_type, split_hour, n_left, n_right, mean_left,
    mean_right, shift): the max-|shift| split per type; split_hour is
    the first hour index of the right segment."""
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["ts", "event_type"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        h = pc.divide(
            pc.cast(
                pc.floor_temporal(batch.column("ts"), unit="hour"), pa.int64()
            ),
            _HOUR_US,
        )
        t = pa.table({"event_type": batch.column("event_type"), "h": h})
        g = t.group_by(["event_type", "h"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "h", "n"])

    tbl = bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "h"],
        [("n", "sum")],
    )
    cols = {
        "event_type": [], "split_hour": [], "n_left": [], "n_right": [],
        "mean_left": [], "mean_right": [], "shift": [],
    }
    if tbl is not None and tbl.num_rows:
        types = tbl.column("event_type").to_numpy(zero_copy_only=False)
        hs = tbl.column("h").to_numpy(zero_copy_only=False)
        ns = tbl.column("n").to_numpy(zero_copy_only=False)
        hmin, hmax = int(hs.min()), int(hs.max())
        span = hmax - hmin + 1
        for t_name in sorted(np.unique(types.astype(str)).tolist()):
            if span < 2:
                continue
            sel = types == t_name
            dense = np.zeros(span, np.int64)
            dense[hs[sel] - hmin] = ns[sel]
            cum = np.cumsum(dense)
            total = cum[-1]
            k = np.arange(1, span, dtype=np.int64)   # left length
            sL = cum[:-1]
            # expression-identical to EVENTS_CHANGEPOINT_SQL
            mL = sL.astype(np.float64) / k.astype(np.float64)
            mR = (total - sL).astype(np.float64) / (span - k).astype(
                np.float64
            )
            shift = mR - mL
            best = int(np.argmax(np.abs(shift)))  # first max = low k
            cols["event_type"].append(t_name)
            cols["split_hour"].append(hmin + int(k[best]))
            cols["n_left"].append(int(k[best]))
            cols["n_right"].append(span - int(k[best]))
            cols["mean_left"].append(float(mL[best]))
            cols["mean_right"].append(float(mR[best]))
            cols["shift"].append(float(shift[best]))
    return pa.table(
        {
            "event_type": pa.array(cols["event_type"], pa.string()),
            "split_hour": pa.array(cols["split_hour"], pa.int64()),
            "n_left": pa.array(cols["n_left"], pa.int64()),
            "n_right": pa.array(cols["n_right"], pa.int64()),
            "mean_left": pa.array(cols["mean_left"], pa.float64()),
            "mean_right": pa.array(cols["mean_right"], pa.float64()),
            "shift": pa.array(cols["shift"], pa.float64()),
        }
    )


EVENTS_CHANGEPOINT_SQL = """
WITH c AS (
  SELECT event_type,
         epoch_us(date_trunc('hour', ts)) // 3600000000 AS h
  FROM events
),
cnt AS (
  SELECT event_type, h, CAST(COUNT(*) AS BIGINT) AS n
  FROM c GROUP BY event_type, h
),
b AS (SELECT min(h) AS hmin, max(h) AS hmax FROM c),
hours AS (SELECT unnest(generate_series(hmin, hmax)) AS h FROM b),
types AS (SELECT DISTINCT event_type FROM c),
dense AS (
  SELECT t.event_type, hrs.h, COALESCE(cnt.n, 0) AS n
  FROM types t CROSS JOIN hours hrs
  LEFT JOIN cnt ON cnt.event_type = t.event_type AND cnt.h = hrs.h
),
cum AS (
  SELECT event_type, h,
    CAST(SUM(n) OVER (PARTITION BY event_type ORDER BY h
                      ROWS UNBOUNDED PRECEDING) AS BIGINT) AS sl,
    CAST(row_number() OVER (PARTITION BY event_type ORDER BY h)
         AS BIGINT) AS k,
    CAST(SUM(n) OVER (PARTITION BY event_type) AS BIGINT) AS total,
    CAST(COUNT(*) OVER (PARTITION BY event_type) AS BIGINT) AS span
  FROM dense
),
splits AS (
  SELECT event_type, h + 1 AS split_hour, k AS n_left,
    span - k AS n_right,
    CAST(sl AS DOUBLE) / CAST(k AS DOUBLE) AS mean_left,
    CAST(total - sl AS DOUBLE) / CAST(span - k AS DOUBLE) AS mean_right
  FROM cum WHERE k < span
)
SELECT event_type, split_hour, n_left, n_right, mean_left, mean_right,
  mean_right - mean_left AS shift
FROM splits
QUALIFY row_number() OVER (
  PARTITION BY event_type
  ORDER BY abs(mean_right - mean_left) DESC, split_hour ASC) = 1
"""


# ---------------------------------------------------------------------------
# Randomness / drift diagnostics over the dense hourly series — the
# Wald–Wolfowitz runs test (is the above/below-mean pattern serially
# random?) and a clamped CUSUM (where does cumulative drift from the
# mean peak?). Both reuse the changepoint discipline: bounded
# (type, hour, n) partials from one streaming pass, a dense global
# hour range, and EXACT integer arithmetic throughout — the mean is
# never divided out (comparisons are span·n vs total, prefix sums are
# span·n − total), so both engines agree bit-for-bit.
# Recursion-free CUSUM: S_t = max(0, S_{t-1} + x_t) is computed as
# P_t − min(0, min_{j≤t} P_j) with P the raw prefix sum — a windowed
# running min instead of a recursive CTE, on both sides.
# ---------------------------------------------------------------------------

def _hourly_type_dense(sf_dir: str):
    """Bounded (event_type, h, n) counts plus the dense global hour
    range: the shared input of the runs/CUSUM diagnostics. Returns
    (types, hs, ns, hmin, span) numpy views or None when empty."""
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["ts", "event_type"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        h = pc.divide(
            pc.cast(
                pc.floor_temporal(batch.column("ts"), unit="hour"), pa.int64()
            ),
            _HOUR_US,
        )
        t = pa.table({"event_type": batch.column("event_type"), "h": h})
        g = t.group_by(["event_type", "h"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "h", "n"])

    tbl = bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "h"],
        [("n", "sum")],
    )
    if tbl is None or not tbl.num_rows:
        return None
    types = tbl.column("event_type").to_numpy(zero_copy_only=False)
    hs = tbl.column("h").to_numpy(zero_copy_only=False)
    ns = tbl.column("n").to_numpy(zero_copy_only=False)
    hmin, hmax = int(hs.min()), int(hs.max())
    return types, hs, ns, hmin, hmax - hmin + 1


def events_runs_test(sf_dir: str) -> pa.Table:
    """(event_type, span, n_above, n_below, runs): Wald–Wolfowitz
    runs statistic of the dense hourly count series per type —
    ``above`` is the exact integer comparison span·n > total (strictly
    above the mean), ``runs`` = 1 + number of sign changes. A periodic
    or trending stream has far fewer runs than a random one."""
    dense_in = _hourly_type_dense(sf_dir)
    cols: dict[str, list] = {
        "event_type": [], "span": [], "n_above": [], "n_below": [],
        "runs": [],
    }
    if dense_in is not None:
        types, hs, ns, hmin, span = dense_in
        for t_name in sorted(np.unique(types.astype(str)).tolist()):
            sel = types == t_name
            dense = np.zeros(span, np.int64)
            dense[hs[sel] - hmin] = ns[sel]
            total = int(dense.sum())
            above = dense * span > total
            n_above = int(above.sum())
            runs = 1 + int(np.count_nonzero(above[1:] != above[:-1]))
            cols["event_type"].append(t_name)
            cols["span"].append(span)
            cols["n_above"].append(n_above)
            cols["n_below"].append(span - n_above)
            cols["runs"].append(runs)
    return pa.table(
        {
            "event_type": pa.array(cols["event_type"], pa.string()),
            "span": pa.array(cols["span"], pa.int64()),
            "n_above": pa.array(cols["n_above"], pa.int64()),
            "n_below": pa.array(cols["n_below"], pa.int64()),
            "runs": pa.array(cols["runs"], pa.int64()),
        }
    )


EVENTS_RUNS_SQL = """
WITH c AS (
  SELECT event_type,
         epoch_us(date_trunc('hour', ts)) // 3600000000 AS h
  FROM events
),
cnt AS (
  SELECT event_type, h, CAST(COUNT(*) AS BIGINT) AS n
  FROM c GROUP BY event_type, h
),
b AS (SELECT min(h) AS hmin, max(h) AS hmax FROM c),
hours AS (SELECT unnest(generate_series(hmin, hmax)) AS h FROM b),
types AS (SELECT DISTINCT event_type FROM c),
dense AS (
  SELECT t.event_type, hrs.h, COALESCE(cnt.n, 0) AS n
  FROM types t CROSS JOIN hours hrs
  LEFT JOIN cnt ON cnt.event_type = t.event_type AND cnt.h = hrs.h
),
sgn AS (
  SELECT event_type, h,
    (n * (CAST(COUNT(*) OVER (PARTITION BY event_type) AS BIGINT))
       > CAST(SUM(n) OVER (PARTITION BY event_type) AS BIGINT))
      AS above,
    CAST(COUNT(*) OVER (PARTITION BY event_type) AS BIGINT) AS span
  FROM dense
),
chg AS (
  SELECT event_type, span, above,
    CASE WHEN lag(above) OVER (PARTITION BY event_type ORDER BY h)
              IS DISTINCT FROM above
          AND lag(above) OVER (PARTITION BY event_type ORDER BY h)
              IS NOT NULL
         THEN 1 ELSE 0 END AS flip
  FROM sgn
)
SELECT event_type, CAST(min(span) AS BIGINT) AS span,
  CAST(SUM(CASE WHEN above THEN 1 ELSE 0 END) AS BIGINT) AS n_above,
  CAST(SUM(CASE WHEN above THEN 0 ELSE 1 END) AS BIGINT) AS n_below,
  CAST(1 + SUM(flip) AS BIGINT) AS runs
FROM chg GROUP BY event_type
ORDER BY event_type
"""


def events_cusum(sf_dir: str) -> pa.Table:
    """(event_type, peak_hour, max_cusum, span, total): the peak of
    the clamped one-sided CUSUM of hourly counts around the mean,
    scaled by span so everything is exact int64 — the hour where
    cumulative upward drift from the per-type mean rate is largest
    (tie → earliest hour). x_t = span·n_t − total; S_t =
    max(0, S_{t-1} + x_t) computed via the prefix-min identity."""
    dense_in = _hourly_type_dense(sf_dir)
    cols: dict[str, list] = {
        "event_type": [], "peak_hour": [], "max_cusum": [], "span": [],
        "total": [],
    }
    if dense_in is not None:
        types, hs, ns, hmin, span = dense_in
        for t_name in sorted(np.unique(types.astype(str)).tolist()):
            sel = types == t_name
            dense = np.zeros(span, np.int64)
            dense[hs[sel] - hmin] = ns[sel]
            total = int(dense.sum())
            p = np.cumsum(dense * span - total)
            s = p - np.minimum(np.minimum.accumulate(p), 0)
            best = int(np.argmax(s))  # first max = earliest hour
            cols["event_type"].append(t_name)
            cols["peak_hour"].append(hmin + best)
            cols["max_cusum"].append(int(s[best]))
            cols["span"].append(span)
            cols["total"].append(total)
    return pa.table(
        {
            "event_type": pa.array(cols["event_type"], pa.string()),
            "peak_hour": pa.array(cols["peak_hour"], pa.int64()),
            "max_cusum": pa.array(cols["max_cusum"], pa.int64()),
            "span": pa.array(cols["span"], pa.int64()),
            "total": pa.array(cols["total"], pa.int64()),
        }
    )


EVENTS_CUSUM_SQL = """
WITH c AS (
  SELECT event_type,
         epoch_us(date_trunc('hour', ts)) // 3600000000 AS h
  FROM events
),
cnt AS (
  SELECT event_type, h, CAST(COUNT(*) AS BIGINT) AS n
  FROM c GROUP BY event_type, h
),
b AS (SELECT min(h) AS hmin, max(h) AS hmax FROM c),
hours AS (SELECT unnest(generate_series(hmin, hmax)) AS h FROM b),
types AS (SELECT DISTINCT event_type FROM c),
dense AS (
  SELECT t.event_type, hrs.h, COALESCE(cnt.n, 0) AS n
  FROM types t CROSS JOIN hours hrs
  LEFT JOIN cnt ON cnt.event_type = t.event_type AND cnt.h = hrs.h
),
tot AS (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS span,
    CAST(SUM(n) AS BIGINT) AS total
  FROM dense GROUP BY event_type
),
pref AS (
  SELECT d.event_type, d.h,
    CAST(SUM(d.n * t.span)
           OVER (PARTITION BY d.event_type ORDER BY d.h
                 ROWS UNBOUNDED PRECEDING) AS BIGINT)
      - CAST(row_number() OVER (PARTITION BY d.event_type ORDER BY d.h)
             AS BIGINT) * t.total AS p,
    t.span, t.total
  FROM dense d JOIN tot t USING (event_type)
),
cu AS (
  SELECT event_type, h, span, total,
    p - LEAST(0, min(p) OVER (PARTITION BY event_type ORDER BY h
                              ROWS UNBOUNDED PRECEDING)) AS s
  FROM pref
)
SELECT event_type, h AS peak_hour, s AS max_cusum, span, total
FROM cu
QUALIFY row_number() OVER (
  PARTITION BY event_type ORDER BY s DESC, h ASC) = 1
ORDER BY event_type
"""
