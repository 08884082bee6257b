"""Windowed-frame / grouping-set / outer-join analytics operators —
the second relational batch (round 3), widening SURVEY §2.6-2.8's
aggregation-and-ordering coverage with the ANSI shapes the first batch
lacked: FULL OUTER JOIN, PIVOT-style conditional aggregation, GROUP BY
CUBE, ROWS-frame moving aggregates, NTILE, per-group MODE/MEDIAN, and
the classic 3-table join + top-k (TPC-H Q3 shape).

Same exactness discipline as ``relational.py`` (integer cents before
any sum; floats only as a final deterministic int/int division) and
the same shuffle discipline: heavy tables partial-combine inside
``map_batches`` so shuffles move per-batch partials; keyed
row-windows (moving frames, NTILE) shuffle ONCE on a size-adaptive
hashed key partition and process every key of a partition in one
vectorized lexsort pass (the ``sessionize_users`` pattern,
relational.py:552).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..partitioning import (
    _part_of,
    adaptive_partitions,
    bounded_group_table,
    bounded_group_table_strict,
    parquet_rows_hint,
    read_pq,
)
from .relational import _cents

# ---------------------------------------------------------------------------
# FULL OUTER JOIN — per-user event activity ⟗ customer master
# ---------------------------------------------------------------------------


def user_customer_activity(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """FULL OUTER join of per-user event totals with the customer
    table on ``user_id = c_custkey``: one row per id that appears on
    EITHER side, with nulls for the missing side (users with events
    but no customer row, customers with no events).

    Plan: the heavy side (events) partial-combines per batch to one
    (user, n, cents) row per distinct user per batch; both sides then
    shuffle ONCE on the same size-adaptive hashed key partition and a
    single vectorized merge per partition emits the outer rows —
    no row-level shuffle of the event table, no broadcast of the
    (at-scale unbounded) customer side.
    """
    events = read_pq(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "value"]
    )
    cust = read_pq(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_acctbal"],
    )
    n_parts = num_partitions or adaptive_partitions(
        (parquet_rows_hint(cust) or 0) or None,
        row_bytes=40,  # (part, key, tag, n, cents, acct)
    )

    def tag_events(b: pa.Table) -> pa.Table:
        t = pa.table(
            {"key": b.column("user_id"), "cents": _cents(b.column("value"))}
        )
        g = t.group_by("key").aggregate([("cents", "sum"), ("key", "count")])
        g = g.rename_columns(["key", "cents", "n"])
        z = pa.array(np.zeros(g.num_rows, np.int64), pa.int64())
        return pa.table(
            {
                "part": _part_of(g.column("key"), n_parts),
                "key": g.column("key"),
                "tag": pa.array(np.zeros(g.num_rows, np.int8)),
                "n": pc.cast(g.column("n"), pa.int64()),
                "cents": g.column("cents"),
                "acct": z,
            }
        )

    def tag_cust(b: pa.Table) -> pa.Table:
        n = len(b)
        z = pa.array(np.zeros(n, np.int64), pa.int64())
        return pa.table(
            {
                "part": _part_of(b.column("c_custkey"), n_parts),
                "key": b.column("c_custkey"),
                "tag": pa.array(np.ones(n, np.int8)),
                "n": z,
                "cents": z,
                "acct": _cents(b.column("c_acctbal")),
            }
        )

    both = events.map_batches(tag_events, batch_format="pyarrow").union(
        cust.map_batches(tag_cust, batch_format="pyarrow")
    )

    def outer_merge(g: pa.Table) -> pa.Table:
        key = g.column("key").to_numpy(zero_copy_only=False)
        tag = g.column("tag").to_numpy(zero_copy_only=False)
        n = g.column("n").to_numpy(zero_copy_only=False)
        cents = g.column("cents").to_numpy(zero_copy_only=False)
        acct = g.column("acct").to_numpy(zero_copy_only=False)
        is_e = tag == 0
        # merge the per-batch event partials per key
        ek = key[is_e]
        if len(ek):
            order = np.argsort(ek, kind="stable")
            ek = ek[order]
            en, ec = n[is_e][order], cents[is_e][order]
            starts = np.flatnonzero(np.concatenate(([True], ek[1:] != ek[:-1])))
            ek = ek[starts]
            en = np.add.reduceat(en, starts)
            ec = np.add.reduceat(ec, starts)
        else:
            en = ec = np.array([], np.int64)
        ck = key[~is_e]
        ca = acct[~is_e]
        corder = np.argsort(ck, kind="stable")
        ck, ca = ck[corder], ca[corder]
        allk = np.union1d(ek, ck)
        m = len(allk)
        epos = np.searchsorted(ek, allk)
        has_e = (epos < len(ek)) & (ek[np.minimum(epos, len(ek) - 1)] == allk) if len(ek) else np.zeros(m, bool)
        cpos = np.searchsorted(ck, allk)
        has_c = (cpos < len(ck)) & (ck[np.minimum(cpos, len(ck) - 1)] == allk) if len(ck) else np.zeros(m, bool)
        out_n = np.zeros(m, np.int64)
        out_c = np.zeros(m, np.int64)
        out_a = np.zeros(m, np.int64)
        if len(ek):
            out_n[has_e] = en[epos[has_e]]
            out_c[has_e] = ec[epos[has_e]]
        if len(ck):
            out_a[has_c] = ca[cpos[has_c]]
        return pa.table(
            {
                "id": pa.array(allk, pa.int64()),
                "n_events": pa.array(out_n, mask=~has_e),
                "value_cents": pa.array(out_c, mask=~has_e),
                "acct_cents": pa.array(out_a, mask=~has_c),
            }
        )

    return both.groupby("part").map_groups(outer_merge, batch_format="pyarrow")


USER_CUSTOMER_ACTIVITY_SQL = """
WITH e AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
         CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS value_cents
  FROM events GROUP BY user_id
)
SELECT COALESCE(e.user_id, c.c_custkey) AS id,
       e.n_events, e.value_cents,
       CAST(floor(c.c_acctbal * 100 + 0.5) AS BIGINT) AS acct_cents
FROM e FULL OUTER JOIN customer c ON e.user_id = c.c_custkey
"""


# ---------------------------------------------------------------------------
# PIVOT — order counts per month × priority, priorities as columns
# ---------------------------------------------------------------------------

_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_PRIO_COLS = ["n_urgent", "n_high", "n_medium", "n_notspec", "n_low"]


def _ym_of(ts_col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """year*100+month int64 of a timestamp column (vectorized)."""
    us = ts_col.to_numpy(zero_copy_only=False)
    months = us.astype("datetime64[M]").astype(np.int64)
    return ((1970 + months // 12) * 100 + (months % 12 + 1)).astype(np.int64)


def orders_month_priority_pivot(sf_dir: str) -> rd.Dataset:
    """PIVOT: per order-month, one COLUMN per priority with its order
    count, plus the row total. Heavy pass = per-batch (ym, priority)
    tallies; the shuffle ships one partial row per (month, priority)
    per batch (bounded domain), and the pivot itself happens on the
    already-tiny aggregate."""
    ds = read_pq(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderdate", "o_orderpriority"],
    )

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "ym": pa.array(_ym_of(b.column("o_orderdate")), pa.int64()),
                "prio": b.column("o_orderpriority"),
            }
        )
        g = t.group_by(["ym", "prio"]).aggregate([([], "count_all")])
        return g.rename_columns(["ym", "prio", "n"])

    fine = bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["ym", "prio"],
        [("n", "sum")],
    )
    cols = {
        "ym": pa.array([], pa.int64()),
        **{c: pa.array([], pa.int64()) for c in _PRIO_COLS},
        "n_total": pa.array([], pa.int64()),
    }
    if fine is None:
        return rd.from_arrow(pa.table(cols))
    ym = fine.column("ym").to_numpy(zero_copy_only=False)
    prio = fine.column("prio").to_pylist()
    n = fine.column("n").to_numpy(zero_copy_only=False)
    months = np.unique(ym)
    mpos = {int(m): i for i, m in enumerate(months)}
    pcode = {p: j for j, p in enumerate(_PRIORITIES)}
    grid = np.zeros((len(months), len(_PRIORITIES)), np.int64)
    extra = np.zeros(len(months), np.int64)  # priorities outside the
    # fixed column list still count toward the row total (the oracle's
    # COUNT(*) does; every CASE just yields 0 for them)
    for y, p, c in zip(ym, prio, n):
        j = pcode.get(p)
        if j is None:
            extra[mpos[int(y)]] += int(c)
        else:
            grid[mpos[int(y)], j] += int(c)
    out = {"ym": pa.array(months, pa.int64())}
    for j, c in enumerate(_PRIO_COLS):
        out[c] = pa.array(grid[:, j], pa.int64())
    out["n_total"] = pa.array(grid.sum(axis=1) + extra, pa.int64())
    return rd.from_arrow(pa.table(out))


ORDERS_PIVOT_SQL = """
SELECT CAST(year(o_orderdate) * 100 + month(o_orderdate) AS BIGINT) AS ym,
  CAST(SUM(CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE 0 END) AS BIGINT) AS n_urgent,
  CAST(SUM(CASE WHEN o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) AS BIGINT) AS n_high,
  CAST(SUM(CASE WHEN o_orderpriority = '3-MEDIUM' THEN 1 ELSE 0 END) AS BIGINT) AS n_medium,
  CAST(SUM(CASE WHEN o_orderpriority = '4-NOT SPECIFIED' THEN 1 ELSE 0 END) AS BIGINT) AS n_notspec,
  CAST(SUM(CASE WHEN o_orderpriority = '5-LOW' THEN 1 ELSE 0 END) AS BIGINT) AS n_low,
  CAST(COUNT(*) AS BIGINT) AS n_total
FROM orders GROUP BY 1
"""


def orders_priority_unpivot(sf_dir: str) -> rd.Dataset:
    """UNPIVOT (wide→long melt) of the month×priority pivot:
    (ym, priority, n) — one row per (month, priority-column) cell,
    zeros included, the faithful inverse of the PIVOT above. The melt
    runs over the already-bounded wide aggregate (months × 5 columns),
    so it is a driver-scale reshape regardless of corpus size."""
    wide = orders_month_priority_pivot(sf_dir)

    def melt(b: pa.Table) -> pa.Table:
        ym = b.column("ym").to_numpy(zero_copy_only=False)
        k = len(_PRIO_COLS)
        vals = np.column_stack(
            [
                b.column(c).to_numpy(zero_copy_only=False)
                for c in _PRIO_COLS
            ]
        ).ravel()
        return pa.table(
            {
                "ym": pa.array(np.repeat(ym, k), pa.int64()),
                "priority": pa.array(
                    np.tile(np.array(_PRIO_COLS, object), len(ym)),
                    pa.string(),
                ),
                "n": pa.array(vals, pa.int64()),
            }
        )

    return wide.map_batches(melt, batch_format="pyarrow")


ORDERS_UNPIVOT_SQL = """
WITH p AS (
  SELECT CAST(year(o_orderdate) * 100 + month(o_orderdate) AS BIGINT) AS ym,
    CAST(SUM(CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE 0 END) AS BIGINT) AS n_urgent,
    CAST(SUM(CASE WHEN o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END) AS BIGINT) AS n_high,
    CAST(SUM(CASE WHEN o_orderpriority = '3-MEDIUM' THEN 1 ELSE 0 END) AS BIGINT) AS n_medium,
    CAST(SUM(CASE WHEN o_orderpriority = '4-NOT SPECIFIED' THEN 1 ELSE 0 END) AS BIGINT) AS n_notspec,
    CAST(SUM(CASE WHEN o_orderpriority = '5-LOW' THEN 1 ELSE 0 END) AS BIGINT) AS n_low
  FROM orders GROUP BY 1
)
UNPIVOT p ON n_urgent, n_high, n_medium, n_notspec, n_low
INTO NAME priority VALUE n
"""


# ---------------------------------------------------------------------------
# GROUP BY CUBE — event counts over (event_type, day-of-week)
# ---------------------------------------------------------------------------


def events_type_dow_cube(sf_dir: str) -> rd.Dataset:
    """GROUP BY CUBE(event_type, dow): all four grouping levels —
    (type, dow), (type, *), (*, dow), (*, *) — with ``(all)`` / -1
    markers for the rolled dimensions. One partial-combined pass over
    events; the three coarser levels re-aggregate the already-tiny
    fine table on the driver (the ``lang_source_rollup`` pattern,
    queries.py:2947, extended to the full cube)."""
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "ts"]
    )

    def partial(b: pa.Table) -> pa.Table:
        us = b.column("ts").to_numpy(zero_copy_only=False)
        days = us.astype("datetime64[D]").astype(np.int64)
        dow = (days + 4) % 7  # 1970-01-01 = Thursday = 4; DuckDB dow Sun=0
        t = pa.table(
            {
                "event_type": b.column("event_type"),
                "dow": pa.array(dow, pa.int64()),
            }
        )
        g = t.group_by(["event_type", "dow"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "dow", "n"])

    fine = bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "dow"],
        [("n", "sum")],
    )
    empty = pa.table(
        {
            "event_type": pa.array([], pa.string()),
            "dow": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
        }
    )
    if fine is None:
        return rd.from_arrow(empty)
    by_type = fine.group_by("event_type").aggregate([("n", "sum")])
    by_dow = fine.group_by("dow").aggregate([("n", "sum")])
    total = pc.sum(fine.column("n")).as_py()
    out = pa.concat_tables(
        [
            fine.select(["event_type", "dow", "n"]),
            pa.table(
                {
                    "event_type": by_type.column("event_type"),
                    "dow": pa.array(
                        np.full(by_type.num_rows, -1), pa.int64()
                    ),
                    "n": by_type.column("n_sum"),
                }
            ),
            pa.table(
                {
                    "event_type": pa.repeat(
                        pa.scalar("(all)"), by_dow.num_rows
                    ),
                    "dow": by_dow.column("dow"),
                    "n": by_dow.column("n_sum"),
                }
            ),
            pa.table(
                {
                    "event_type": pa.array(["(all)"], pa.string()),
                    "dow": pa.array([-1], pa.int64()),
                    "n": pa.array([total], pa.int64()),
                }
            ),
        ]
    )
    return rd.from_arrow(out)


EVENTS_CUBE_SQL = """
SELECT COALESCE(event_type, '(all)') AS event_type,
       COALESCE(CAST(EXTRACT(dow FROM ts) AS BIGINT), -1) AS dow,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events GROUP BY CUBE(event_type, EXTRACT(dow FROM ts))
"""


# ---------------------------------------------------------------------------
# ROWS-frame moving aggregate + NTILE — per-user ordered windows
# ---------------------------------------------------------------------------


def _user_sorted(g: pa.Table):
    """(user, ts, event_id, cents) of one hashed partition, lexsorted
    by (user, ts, event_id), plus per-user segment boundaries."""
    uid = g.column("user_id").to_numpy(zero_copy_only=False)
    ts = g.column("ts").to_numpy(zero_copy_only=False)
    eid = g.column("event_id").to_numpy(zero_copy_only=False)
    cents = g.column("cents").to_numpy(zero_copy_only=False)
    order = np.lexsort((eid, ts, uid))
    u, e, c = uid[order], eid[order], cents[order]
    n = len(u)
    new_user = np.empty(n, dtype=bool)
    if n:
        new_user[0] = True
        new_user[1:] = u[1:] != u[:-1]
    starts = np.flatnonzero(new_user)
    counts = np.diff(np.append(starts, n))
    return u, e, c, starts, counts


def _events_keyed(sf_dir: str, num_partitions: int | None):
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
                "ts": pc.cast(b.column("ts"), pa.int64()),
                "event_id": b.column("event_id"),
                "cents": _cents(b.column("value")),
            }
        )

    return ds.map_batches(tag, batch_format="pyarrow")


def events_moving_avg(
    sf_dir: str, window: int = 3, num_partitions: int | None = None
) -> rd.Dataset:
    """Per-event moving aggregate over a ROWS frame: the sum / count /
    mean of the last ``window`` values (frame ``ROWS BETWEEN window-1
    PRECEDING AND CURRENT ROW``) within each user's (ts, event_id)
    order. ONE shuffle on the hashed user partition; each partition
    computes every user's frames from a single cumulative sum (frame
    sum = cumsum diff clipped at the user's segment start — no
    per-row Python, no per-user calls). The mean is the deterministic
    IEEE division of the exact integer frame sum by the frame length,
    matching the SQL side bit-for-bit."""
    keyed = _events_keyed(sf_dir, num_partitions)

    def frames(g: pa.Table) -> pa.Table:
        u, e, c, starts, counts = _user_sorted(g)
        n = len(u)
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "mov_cents": pa.array([], pa.int64()),
                    "mov_n": pa.array([], pa.int64()),
                    "mov_avg": pa.array([], pa.float64()),
                }
            )
        pos = np.arange(n) - np.repeat(starts, counts)
        w = np.minimum(pos + 1, window)
        csum = np.cumsum(c)
        prev = np.arange(n) - w  # index before the frame start; ≥ seg_start-1
        mov = csum - np.where(prev >= 0, csum[np.maximum(prev, 0)], 0)
        return pa.table(
            {
                "event_id": pa.array(e, pa.int64()),
                "mov_cents": pa.array(mov, pa.int64()),
                "mov_n": pa.array(w.astype(np.int64), pa.int64()),
                "mov_avg": pa.array(
                    mov.astype(np.float64) / w.astype(np.float64)
                ),
            }
        )

    return keyed.groupby("part").map_groups(frames, batch_format="pyarrow")


EVENTS_MOVING_AVG_SQL = """
WITH c AS (
  SELECT event_id, user_id, ts,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
)
SELECT event_id,
  CAST(SUM(cents) OVER w AS BIGINT) AS mov_cents,
  CAST(COUNT(*) OVER w AS BIGINT) AS mov_n,
  CAST(SUM(cents) OVER w AS DOUBLE) / COUNT(*) OVER w AS mov_avg
FROM c
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
"""


EWMA_ALPHA = 0.25

# (1-α)^k underflows to exactly +0.0 past this exponent for α ≤ 0.25
# (0.75^2700 == 0.0; smaller bases underflow sooner)
_EWMA_TAIL = 2700
_EWMA_LUTS: dict[float, "np.ndarray"] = {}


def _ewma_weight_lut(alpha: float) -> "np.ndarray":
    """lut[k] = libm pow(1-α, k) for k ≤ _EWMA_TAIL (then exactly 0)."""
    lut = _EWMA_LUTS.get(alpha)
    if lut is None:
        import math

        lut = np.array(
            [math.pow(1.0 - alpha, float(k)) for k in range(_EWMA_TAIL + 1)],
            np.float64,
        )
        _EWMA_LUTS[alpha] = lut
    return lut


def events_ewma(
    sf_dir: str,
    alpha: float = EWMA_ALPHA,
    num_partitions: int | None = None,
) -> rd.Dataset:
    """(user_id, n_events, ewma): each user's exponentially-weighted
    moving average of value cents over their (ts, event_id)-ordered
    event stream — the streaming-window aggregate the ROWS-frame
    family (``events_moving_avg``) can't express.

    Semantics (documented, tested against the sequential recurrence):
    ``ewma_1 = v_1; ewma_i = α·v_i + (1-α)·ewma_{i-1}``, evaluated in
    closed form per user segment as the weighted sum
    ``(1-α)^{n-1}·v_1 + Σ_{j≥2} α·(1-α)^{n-j}·v_j`` — ONE vectorized
    power + reduceat over the whole partition, no per-row or per-user
    Python. Weights beyond ~700 steps from the end underflow to 0,
    which is also what the recurrence converges to at float64.

    The closed form is also what the SQL oracle evaluates (the same
    per-row weights; the fold order is pinned by DuckDB's
    ``list_sum(list(contrib ORDER BY rn))`` sequential fold, matching
    ``reduceat``); the sequential-recurrence differential stays in
    pytest."""
    keyed = _events_keyed(sf_dir, num_partitions)
    # libm-exact decay LUT (np.power's SIMD path differs from libm pow
    # in ~25% of exponents; DuckDB's power() IS libm pow — verified
    # bit-exact). Past _EWMA_TAIL steps the weight underflows to
    # EXACTLY 0.0 (0.75^2700 == +0.0), so both the LUT and the
    # sequential fold below can truncate without changing one bit.
    lut = _ewma_weight_lut(alpha)

    def fold(g: pa.Table) -> pa.Table:
        u, _e, c, starts, counts = _user_sorted(g)
        n = len(u)
        if n == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "ewma": pa.array([], pa.float64()),
                }
            )
        pos = np.arange(n) - np.repeat(starts, counts)
        from_end = np.repeat(counts, counts) - 1 - pos
        w = alpha * lut[np.minimum(from_end, _EWMA_TAIL)]
        w[starts] = lut[np.minimum(counts - 1, _EWMA_TAIL)]  # init v_1
        contrib = c.astype(np.float64) * w
        # SEQUENTIAL per-segment fold (≙ the oracle's list_sum left
        # fold; reduceat is pairwise and rounds differently). Only the
        # last ≤ _EWMA_TAIL entries can be nonzero, so the loop is
        # bounded by the decay horizon, not the segment length — each
        # iteration is one vectorized gather-add across ALL users.
        ends = starts + counts
        tail = np.maximum(starts, ends - (_EWMA_TAIL + 1))
        ewma = np.zeros(len(starts), np.float64)
        width = int((ends - tail).max(initial=0))
        for j in range(width):
            idx = tail + j
            m = idx < ends
            ewma[m] += contrib[idx[m]]
        return pa.table(
            {
                "user_id": pa.array(u[starts], pa.int64()),
                "n_events": pa.array(counts.astype(np.int64), pa.int64()),
                "ewma": pa.array(ewma, pa.float64()),
            }
        )

    return keyed.groupby("part").map_groups(
        fold, batch_format="pyarrow"
    ).sort("user_id")


# the closed-form weighted sum, order-pinned: list(contrib ORDER BY rn)
# preserves event order and list_sum left-folds it exactly like the
# engine's reduceat; power()/multiplication are the same libm ops.
EVENTS_EWMA_SQL = f"""
WITH w AS (
  SELECT user_id,
    CAST(CAST(floor(value * 100 + 0.5) AS BIGINT) AS DOUBLE) AS v,
    ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id)
      AS rn,
    COUNT(*) OVER (PARTITION BY user_id) AS n
  FROM events
),
t AS (
  SELECT user_id, n, rn,
    v * (CASE WHEN rn = 1 THEN power({1 - EWMA_ALPHA}, n - 1)
         ELSE {EWMA_ALPHA} * power({1 - EWMA_ALPHA}, n - rn) END)
      AS contrib
  FROM w
)
SELECT user_id, CAST(n AS BIGINT) AS n_events,
  list_sum(list(contrib ORDER BY rn)) AS ewma
FROM t GROUP BY user_id, n
ORDER BY user_id
"""


def user_type_islands(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(user_id, event_type, run_start, run_len): maximal runs
    ("islands") of consecutive same-type events per user in (ts,
    event_id) order — the gaps-and-islands shape (SQL needs the
    ROW_NUMBER-difference trick; here a run is one vectorized
    boundary compare per partition).

    ONE shuffle on the hashed user partition; run starts are where the
    user OR the type changes in the partition lexsort; lengths come
    from one ``diff`` over start positions — no per-row or per-run
    Python."""
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
                "ts": pc.cast(b.column("ts"), pa.int64()),
                "event_id": b.column("event_id"),
                "etype": b.column("event_type"),
            }
        )

    def islands(g: pa.Table) -> pa.Table:
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        ts = g.column("ts").to_numpy(zero_copy_only=False)
        eid = g.column("event_id").to_numpy(zero_copy_only=False)
        et = g.column("etype")
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        enc = et.dictionary_encode()
        tcode = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(uid)
        if n == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "event_type": pa.array([], pa.string()),
                    "run_start": pa.array([], pa.timestamp("us")),
                    "run_len": pa.array([], pa.int64()),
                }
            )
        order = np.lexsort((eid, ts, uid))
        u, t, c = uid[order], ts[order], tcode[order]
        new_run = np.empty(n, dtype=bool)
        new_run[0] = True
        new_run[1:] = (u[1:] != u[:-1]) | (c[1:] != c[:-1])
        starts = np.flatnonzero(new_run)
        lens = np.diff(np.append(starts, n))
        type_strs = enc.dictionary.take(pa.array(c[starts]))
        return pa.table(
            {
                "user_id": pa.array(u[starts], pa.int64()),
                "event_type": type_strs,
                "run_start": pa.array(t[starts]).cast(pa.timestamp("us")),
                "run_len": pa.array(lens.astype(np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(islands, batch_format="pyarrow")
        .sort(["user_id", "run_start", "event_type"])
    )


USER_TYPE_ISLANDS_SQL = """
WITH o AS (
  SELECT user_id, ts, event_type,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn,
         ROW_NUMBER() OVER (PARTITION BY user_id, event_type
                            ORDER BY ts, event_id) AS rnt
  FROM events
)
SELECT user_id, event_type, MIN(ts) AS run_start,
       CAST(COUNT(*) AS BIGINT) AS run_len
FROM o
GROUP BY user_id, event_type, rn - rnt
ORDER BY user_id, run_start, event_type
"""


def events_value_share(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(event_id, cents, user_total, share): each event's value as a
    share of its user's total — the RATIO_TO_REPORT window. One hashed
    shuffle; per-partition segment sums broadcast back to rows with
    ``repeat``; the share is the IEEE double division both sides
    compute identically."""
    keyed = _events_keyed(sf_dir, num_partitions)

    def share(g: pa.Table) -> pa.Table:
        u, e, c, starts, counts = _user_sorted(g)
        if len(u) == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "cents": pa.array([], pa.int64()),
                    "user_total": pa.array([], pa.int64()),
                    "share": pa.array([], pa.float64()),
                }
            )
        totals = np.add.reduceat(c, starts)
        per_row = np.repeat(totals, counts)
        return pa.table(
            {
                "event_id": pa.array(e, pa.int64()),
                "cents": pa.array(c, pa.int64()),
                "user_total": pa.array(per_row, pa.int64()),
                "share": pa.array(
                    c.astype(np.float64) / per_row.astype(np.float64)
                ),
            }
        )

    return keyed.groupby("part").map_groups(share, batch_format="pyarrow")


EVENTS_VALUE_SHARE_SQL = """
WITH c AS (
  SELECT event_id, user_id,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
)
SELECT event_id, cents,
       CAST(SUM(cents) OVER (PARTITION BY user_id) AS BIGINT)
         AS user_total,
       CAST(cents AS DOUBLE) / SUM(cents) OVER (PARTITION BY user_id)
         AS share
FROM c
"""


def events_user_ntile(
    sf_dir: str, k: int = 4, num_partitions: int | None = None
) -> rd.Dataset:
    """NTILE(k) of each user's events in (ts, event_id) order —
    ANSI semantics (the first ``n % k`` tiles get the extra row).
    Same one-shuffle hashed-partition plan as the moving frame; the
    tile assignment is pure arithmetic on the position-in-user and
    rows-per-user vectors."""
    keyed = _events_keyed(sf_dir, num_partitions)

    def tiles(g: pa.Table) -> pa.Table:
        u, e, _c, starts, counts = _user_sorted(g)
        n = len(u)
        if n == 0:
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "tile": pa.array([], pa.int64()),
                }
            )
        pos = np.arange(n) - np.repeat(starts, counts)
        nu = np.repeat(counts, counts)
        size = nu // k
        r = nu % k
        cut = r * (size + 1)
        tile = np.where(
            pos < cut,
            pos // (size + 1),
            r + (pos - cut) // np.maximum(size, 1),
        ) + 1
        return pa.table(
            {
                "event_id": pa.array(e, pa.int64()),
                "tile": pa.array(tile.astype(np.int64), pa.int64()),
            }
        )

    return keyed.groupby("part").map_groups(tiles, batch_format="pyarrow")


EVENTS_NTILE_SQL = """
SELECT event_id,
  CAST(NTILE(4) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT)
    AS tile
FROM events
"""


# ---------------------------------------------------------------------------
# MODE + MEDIAN per group — from the bounded-domain value histogram
# ---------------------------------------------------------------------------


def events_type_mode_median(sf_dir: str) -> rd.Dataset:
    """Per event type: the modal value (most frequent cents, ties →
    smallest) and the interpolated median — both derived from ONE
    partial-combined (type, cents) histogram, so the full table never
    shuffles (the ``events_value_ranks`` discipline). The median
    interpolates exactly like SQL ``MEDIAN`` over BIGINT: value at
    position (n-1)/2, halfway between the two middle values when n is
    even — exact in float64 for cent-scale integers."""
    hist = _events_cents_hist(sf_dir)
    empty = pa.table(
        {
            "event_type": pa.array([], pa.string()),
            "mode_cents": pa.array([], pa.int64()),
            "median_val": pa.array([], pa.float64()),
        }
    )
    if hist is None:
        return rd.from_arrow(empty)
    # one shared lexsorted decode (relational._hist_segments) instead
    # of an O(types × rows) Python membership scan per type
    from .relational import _hist_segments

    tcode, codes_s, cents_s, ns_s, starts, _seg = _hist_segments(
        hist, descending=False
    )
    code_name = {c: t for t, c in tcode.items()}
    bounds = np.append(starts, len(codes_s))
    types, modes, medians = [], [], []
    for si in range(len(bounds) - 1):
        s0, e0 = bounds[si], bounds[si + 1]
        t = code_name[int(codes_s[s0])]
        cv, nv = cents_s[s0:e0], ns_s[s0:e0]  # cents already ascending
        modes.append(int(cv[np.argmax(nv)]))  # argmax → first max → smallest
        total = int(nv.sum())
        cum = np.cumsum(nv)
        lo_pos = (total - 1) // 2
        hi_pos = total // 2
        lo_v = float(cv[np.searchsorted(cum, lo_pos, side="right")])
        hi_v = float(cv[np.searchsorted(cum, hi_pos, side="right")])
        medians.append(lo_v + (hi_v - lo_v) * 0.5)
        types.append(t)
    return rd.from_arrow(
        pa.table(
            {
                "event_type": pa.array(types, pa.string()),
                "mode_cents": pa.array(modes, pa.int64()),
                "median_val": pa.array(medians, pa.float64()),
            }
        )
    )


EVENTS_MODE_MEDIAN_SQL = """
WITH c AS (
  SELECT event_type, CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
),
m AS (
  SELECT event_type, cents AS mode_cents FROM (
    SELECT event_type, cents, COUNT(*) AS n FROM c GROUP BY 1, 2
  ) QUALIFY ROW_NUMBER() OVER (
      PARTITION BY event_type ORDER BY n DESC, cents) = 1
),
q AS (SELECT event_type, MEDIAN(cents) AS median_val FROM c GROUP BY 1)
SELECT m.event_type, m.mode_cents, q.median_val
FROM m JOIN q USING (event_type)
"""


# ---------------------------------------------------------------------------
# 3-table join + top-k — the TPC-H Q3 shape
# ---------------------------------------------------------------------------

_Q3_CUTOFF = "1998-06-01"
# segment custkeys ship as ONE sorted int64 array (8 B/customer) under
# this gate; past it (customer is unbounded at scale) stage A falls
# back to the tagged-union custkey shuffle.
_Q3_CUST_BROADCAST_MAX = 2_000_000
# surviving (okey, odate) rows broadcast under this gate (16 B/order)
# and stage B's shuffle disappears; past it, the orderkey tagged-union
# shuffle with per-partition top-k prune.
_Q3_OPEN_BROADCAST_MAX = 4_000_000


def shipping_priority(
    sf_dir: str,
    segment: str = "BUILDING",
    cutoff: str = _Q3_CUTOFF,
    k: int = 10,
    num_partitions: int | None = None,
) -> rd.Dataset:
    """TPC-H Q3 shape: customer(segment) ⋉ orders(before cutoff) ⋈
    lineitem(shipped after cutoff) → revenue per open order → top-k.

    Stage A semi-filters orders on the segment's custkeys — under the
    Q5-family size gate the segment custkeys broadcast as ONE sorted
    int64 array (8 B/customer) and the custkey shuffle disappears;
    past the gate it is the tagged-union hashed-partition merge (the
    ``customers_without_orders`` pattern, only DISTINCT per-batch
    custkeys ship for the filter side). Stage B shuffles the
    surviving (orderkey, date) rows and lineitem's per-batch revenue
    PARTIALS on the orderkey partition, aggregates, and prunes to the
    top-k inside each partition before the final k-row global sort.
    Empty filter results flow through as schema-true empty tables."""
    cutoff_ts = np.datetime64(cutoff, "us")
    cust = read_pq(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey"],
        filter=(pc.field("c_mktsegment") == segment),
    )
    orders = read_pq(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pc.field("o_orderdate") < pa.scalar(cutoff_ts.item())),
    )
    li = read_pq(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=(pc.field("l_shipdate") > pa.scalar(cutoff_ts.item())),
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(orders), row_bytes=24
    )

    cust_hint = parquet_rows_hint(cust)
    if cust_hint is not None and cust_hint <= _Q3_CUST_BROADCAST_MAX:
        import pyarrow.parquet as pq

        ct = pq.read_table(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_mktsegment"],
        )
        keep = pc.equal(ct.column("c_mktsegment"), segment).to_numpy(
            zero_copy_only=False
        )
        bk = np.sort(
            ct.column("c_custkey")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)[keep]
        )
        seg_ref = ray.put(bk)

        def orders_open(b: pa.Table) -> pa.Table:
            ck = ray.get(seg_ref)
            oc = b.column("o_custkey").to_numpy(zero_copy_only=False)
            if not len(ck) or not len(oc):
                hit = np.zeros(len(oc), bool)
            else:
                pos = np.minimum(np.searchsorted(ck, oc), len(ck) - 1)
                hit = ck[pos] == oc
            idx = pa.array(np.nonzero(hit)[0], pa.int64())
            return pa.table(
                {
                    "okey": pc.take(
                        pc.cast(b.column("o_orderkey"), pa.int64()), idx
                    ),
                    "odate": pc.take(
                        pc.cast(b.column("o_orderdate"), pa.int64()), idx
                    ),
                }
            )

        open_orders = orders.map_batches(orders_open, batch_format="pyarrow")
        return _shipping_priority_stage_b(li, open_orders, n_parts, k)

    # -- stage A: semi join orders ⋉ segment custkeys on custkey ----
    def tag_cust(b: pa.Table) -> pa.Table:
        keys = pc.unique(b.column("c_custkey"))
        z = pa.array(np.zeros(len(keys), np.int64), pa.int64())
        return pa.table(
            {
                "part": _part_of(keys, n_parts),
                "key": keys,
                "tag": pa.array(np.zeros(len(keys), np.int8)),
                "okey": z,
                "odate": z,
            }
        )

    def tag_orders(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part": _part_of(b.column("o_custkey"), n_parts),
                "key": b.column("o_custkey"),
                "tag": pa.array(np.ones(len(b), np.int8)),
                "okey": b.column("o_orderkey"),
                "odate": pc.cast(b.column("o_orderdate"), pa.int64()),
            }
        )

    stage_a = cust.map_batches(tag_cust, batch_format="pyarrow").union(
        orders.map_batches(tag_orders, batch_format="pyarrow")
    )

    def semi_merge(g: pa.Table) -> pa.Table:
        tag = g.column("tag").to_numpy(zero_copy_only=False)
        key = g.column("key").to_numpy(zero_copy_only=False)
        ck = np.unique(key[tag == 0])
        sel = tag == 1
        okey = g.column("okey").to_numpy(zero_copy_only=False)[sel]
        odate = g.column("odate").to_numpy(zero_copy_only=False)[sel]
        okk = key[sel]
        pos = np.searchsorted(ck, okk)
        hit = (pos < len(ck)) & (ck[np.minimum(pos, max(len(ck) - 1, 0))] == okk) if len(ck) else np.zeros(len(okk), bool)
        return pa.table(
            {
                "okey": pa.array(okey[hit], pa.int64()),
                "odate": pa.array(odate[hit], pa.int64()),
            }
        )

    open_orders = stage_a.groupby("part").map_groups(
        semi_merge, batch_format="pyarrow"
    )
    return _shipping_priority_stage_b(li, open_orders, n_parts, k)


def _shipping_priority_stage_b(
    li: rd.Dataset, open_orders: rd.Dataset, n_parts: int, k: int
) -> rd.Dataset:
    """Q3 stage B (shared by both stage-A plans). Gated: when the
    surviving (okey, odate) rows fit ``_Q3_OPEN_BROADCAST_MAX`` they
    broadcast as sorted arrays, lineitem batches probe them in place
    and emit pruned (okey, rev) partials, and the reduce is the
    driver-merged ``bounded_group_table`` (no shuffle at all); past
    the gate, one orderkey tagged-union shuffle with a per-partition
    top-k prune and a bounded driver-side select_k."""
    empty_out = pa.table(
        {
            "l_orderkey": pa.array([], pa.int64()),
            "revenue_cents": pa.array([], pa.int64()),
            "o_orderdate": pa.array([], pa.timestamp("us")),
        }
    )

    # bounded incremental pull of the open orders with early abort
    import ray as _ray

    mat = open_orders.materialize()
    open_orders = mat  # the over/fallback paths reuse computed blocks
    tabs: list[pa.Table] = []
    pulled, over = 0, False
    for ref in mat.to_arrow_refs():
        t = _ray.get(ref)
        if t.num_rows:
            tabs.append(t)
            pulled += t.num_rows
        if pulled > _Q3_OPEN_BROADCAST_MAX:
            over = True
            break
    if not over:
        if not tabs:
            return rd.from_arrow(empty_out)
        ot = pa.concat_tables(tabs)
        ok = ot.column("okey").to_numpy(zero_copy_only=False).astype(np.int64)
        od = ot.column("odate").to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(ok, kind="stable")
        ok, od = ok[o], od[o]
        open_ref = ray.put(ok)

        def li_probe(b: pa.Table) -> pa.Table:
            keys = ray.get(open_ref)
            disc = pc.multiply(
                b.column("l_extendedprice"),
                pc.subtract(pa.scalar(1.0), b.column("l_discount")),
            )
            t = pa.table(
                {"okey": pc.cast(b.column("l_orderkey"), pa.int64()),
                 "rev": _cents(disc)}
            )
            lk = t.column("okey").to_numpy(zero_copy_only=False)
            if not len(keys) or not len(lk):
                hit = np.zeros(len(lk), bool)
            else:
                pos = np.minimum(np.searchsorted(keys, lk), len(keys) - 1)
                hit = keys[pos] == lk
            t = t.filter(pa.array(hit))
            g = t.group_by("okey").aggregate([("rev", "sum")])
            return g.rename_columns(["okey", "rev"])

        g = bounded_group_table(
            li.map_batches(li_probe, batch_format="pyarrow"),
            ["okey"],
            [("rev", "sum")],
        )
        if g is None or (not isinstance(g, rd.Dataset) and g.num_rows == 0):
            return rd.from_arrow(empty_out)
        if not isinstance(g, rd.Dataset):
            uk = g.column("okey").to_numpy(zero_copy_only=False)
            urev = g.column("rev").to_numpy(zero_copy_only=False)
            if len(uk) > k:
                idx = pc.select_k_unstable(
                    g, k, [("rev", "descending"), ("okey", "ascending")]
                ).to_numpy(zero_copy_only=False)
                uk, urev = uk[idx], urev[idx]
            pos = np.searchsorted(ok, uk)
            res = pa.table(
                {
                    "l_orderkey": pa.array(uk, pa.int64()),
                    "revenue_cents": pa.array(urev, pa.int64()),
                    "o_orderdate": pc.cast(
                        pa.array(od[pos], pa.int64()), pa.timestamp("us")
                    ),
                }
            )
            sidx = pc.sort_indices(
                res,
                sort_keys=[
                    ("revenue_cents", "descending"),
                    ("l_orderkey", "ascending"),
                ],
            )
            return rd.from_arrow(res.take(sidx))
        # distributed reduce fallback (giant okey-partials product):
        # fall through to the shuffle plan below over the
        # already-materialized open-orders blocks.

    def li_partial(b: pa.Table) -> pa.Table:
        disc = pc.multiply(
            b.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), b.column("l_discount")),
        )
        t = pa.table(
            {"okey": b.column("l_orderkey"), "rev": _cents(disc)}
        )
        g = t.group_by("okey").aggregate([("rev", "sum")])
        g = g.rename_columns(["okey", "rev"])
        return pa.table(
            {
                "part": _part_of(g.column("okey"), n_parts),
                "okey": g.column("okey"),
                "tag": pa.array(np.zeros(g.num_rows, np.int8)),
                "rev": g.column("rev"),
                "odate": pa.array(np.zeros(g.num_rows, np.int64), pa.int64()),
            }
        )

    def tag_open(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part": _part_of(b.column("okey"), n_parts),
                "okey": b.column("okey"),
                "tag": pa.array(np.ones(len(b), np.int8)),
                "rev": pa.array(np.zeros(len(b), np.int64), pa.int64()),
                "odate": b.column("odate"),
            }
        )

    stage_b = li.map_batches(li_partial, batch_format="pyarrow").union(
        open_orders.map_batches(tag_open, batch_format="pyarrow")
    )

    def rev_merge(g: pa.Table) -> pa.Table:
        tag = g.column("tag").to_numpy(zero_copy_only=False)
        okey = g.column("okey").to_numpy(zero_copy_only=False)
        is_li = tag == 0
        lk = okey[is_li]
        rev = g.column("rev").to_numpy(zero_copy_only=False)[is_li]
        ok = okey[~is_li]
        od = g.column("odate").to_numpy(zero_copy_only=False)[~is_li]
        if not len(lk) or not len(ok):
            return empty_out
        order = np.argsort(lk, kind="stable")
        lk, rev = lk[order], rev[order]
        starts = np.flatnonzero(np.concatenate(([True], lk[1:] != lk[:-1])))
        uk = lk[starts]
        urev = np.add.reduceat(rev, starts)
        oorder = np.argsort(ok, kind="stable")
        ok, od = ok[oorder], od[oorder]
        pos = np.searchsorted(ok, uk)
        hit = (pos < len(ok)) & (ok[np.minimum(pos, len(ok) - 1)] == uk)
        uk, urev, pos = uk[hit], urev[hit], pos[hit]
        if len(uk) > k:  # per-partition prune before the global sort
            top = np.argsort(-urev, kind="stable")[:k]  # ties → smaller key
            uk, urev, pos = uk[top], urev[top], pos[top]
        return pa.table(
            {
                "l_orderkey": pa.array(uk, pa.int64()),
                "revenue_cents": pa.array(urev, pa.int64()),
                "o_orderdate": pc.cast(
                    pa.array(od[pos], pa.int64()), pa.timestamp("us")
                ),
            }
        )

    pruned = stage_b.groupby("part").map_groups(
        rev_merge, batch_format="pyarrow"
    )
    # final merge: ≤ k rows per partition survive the prune, so the
    # global top-k is a bounded driver-side select_k (k × n_parts
    # rows ≈ 1.3 M at 10¹²-row scale for k=10 — the
    # bounded_group_table_strict class of driver work). Ray's own
    # sort would drop the schema on all-empty input (a filter that
    # removed every row); dropping the schema-less empty blocks and
    # concatenating onto the typed empty keeps the contract stable.
    import ray as _ray

    blocks = [
        t
        for t in _ray.get(pruned.materialize().to_arrow_refs())
        if t.num_rows
    ]
    merged = pa.concat_tables([empty_out, *blocks])
    if merged.num_rows:  # select_k chokes on 0-row input
        idx = pc.select_k_unstable(
            merged,
            k,
            [("revenue_cents", "descending"), ("l_orderkey", "ascending")],
        )
        merged = merged.take(idx)
    return rd.from_arrow(merged)


SHIPPING_PRIORITY_SQL = f"""
SELECT l.l_orderkey,
  CAST(SUM(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5)
    AS BIGINT)) AS BIGINT) AS revenue_cents,
  o.o_orderdate
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = 'BUILDING'
  AND o.o_orderdate < TIMESTAMP '{_Q3_CUTOFF}'
  AND l.l_shipdate > TIMESTAMP '{_Q3_CUTOFF}'
GROUP BY l.l_orderkey, o.o_orderdate
ORDER BY revenue_cents DESC, l.l_orderkey
LIMIT 10
"""


# ---------------------------------------------------------------------------
# Interpolated quantiles (quantile_cont) per group — the continuous
# counterpart of relational.py's quantile_disc percentiles
# ---------------------------------------------------------------------------

_QCONT = (0.25, 0.5, 0.75, 0.9)


def _events_cents_hist(sf_dir: str) -> "pa.Table | None":
    """The partial-combined bounded (event_type, cents) histogram —
    shared by the quantile_cont and equi-width-histogram operators.
    The shuffle input is |value domain| × #types rows per batch, never
    the corpus size (the events_value_percentiles discipline,
    relational.py:1200)."""
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "value"],
    )

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": b.column("event_type"),
                "cents": _cents(b.column("value")),
            }
        )
        g = t.group_by(["event_type", "cents"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "cents", "n"])

    return bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "cents"],
        [("n", "sum")],
    )


def events_value_quantile_cont(sf_dir: str) -> rd.Dataset:
    """Per event type: INTERPOLATED quantiles (ANSI ``quantile_cont``)
    of the cent values — where quantile_disc picks an existing value,
    this interpolates between the two straddling ones. Derived from
    the one partial-combined histogram; per type the walk evaluates
    DuckDB's exact interpolation ``lo·(CRN−RN) + hi·(RN−FRN)`` with
    RN = (n−1)·q (verified formula — ``lo + frac·(hi−lo)`` differs in
    the last ulp at q=0.9), so the float output is bit-identical."""
    hist = _events_cents_hist(sf_dir)
    cols = ["event_type"] + [f"q{int(q * 100)}" for q in _QCONT]
    if hist is None:
        return rd.from_arrow(
            pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    **{c: pa.array([], pa.float64()) for c in cols[1:]},
                }
            )
        )
    import math

    et = hist.column("event_type").to_numpy(zero_copy_only=False)
    cents_all = hist.column("cents").to_numpy(zero_copy_only=False)
    cnt_all = hist.column("n").to_numpy(zero_copy_only=False)
    out: dict[str, list] = {c: [] for c in cols}
    for t in sorted(set(et.tolist())):
        sel = et == t
        cv, nv = cents_all[sel], cnt_all[sel]
        order = np.argsort(cv)
        cv, nv = cv[order], nv[order]
        cum = np.cumsum(nv)
        n = int(cum[-1])
        out["event_type"].append(t)
        for q in _QCONT:
            rn = (n - 1) * q
            frn, crn = math.floor(rn), math.ceil(rn)
            lo = float(cv[np.searchsorted(cum, frn, side="right")])
            if crn == frn:
                out[f"q{int(q * 100)}"].append(lo)
                continue
            hi = float(cv[np.searchsorted(cum, crn, side="right")])
            out[f"q{int(q * 100)}"].append(lo * (crn - rn) + hi * (rn - frn))
    return rd.from_arrow(
        pa.table(
            {
                "event_type": pa.array(out["event_type"], pa.string()),
                **{
                    c: pa.array(out[c], pa.float64()) for c in cols[1:]
                },
            }
        )
    )


EVENTS_QUANTILE_CONT_SQL = """
WITH c AS (
  SELECT event_type, CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
)
SELECT event_type,
  quantile_cont(cents, 0.25) AS q25,
  quantile_cont(cents, 0.50) AS q50,
  quantile_cont(cents, 0.75) AS q75,
  quantile_cont(cents, 0.90) AS q90
FROM c GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# Equi-width histogram (width_bucket shape) over the global value range
# ---------------------------------------------------------------------------

_HIST_BINS = 20


def events_value_histogram(sf_dir: str, bins: int = _HIST_BINS) -> rd.Dataset:
    """Equi-width histogram of event values over the global [min, max]
    cent range: integer bucket width w = ceil(span/bins) so bucket
    assignment is exact integer division on BOTH sides (no float edge
    ambiguity — the ``width_bucket`` float-boundary trap). min/max and
    the bin counts all derive from the ONE partial-combined value
    histogram; only non-empty buckets are emitted (matching the SQL
    GROUP BY)."""
    hist = _events_cents_hist(sf_dir)
    empty = pa.table(
        {
            "bucket": pa.array([], pa.int64()),
            "lo_cents": pa.array([], pa.int64()),
            "hi_cents": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
        }
    )
    if hist is None:
        return rd.from_arrow(empty)
    cents = hist.column("cents").to_numpy(zero_copy_only=False)
    cnt = hist.column("n").to_numpy(zero_copy_only=False)
    cmin, cmax = int(cents.min()), int(cents.max())
    w = (cmax - cmin + bins) // bins  # ceil((max-min+1)/bins), ≥ 1
    bucket = (cents - cmin) // w
    order = np.argsort(bucket, kind="stable")
    b = bucket[order]
    starts = np.flatnonzero(np.concatenate(([True], b[1:] != b[:-1])))
    ub = b[starts]
    un = np.add.reduceat(cnt[order], starts)
    return rd.from_arrow(
        pa.table(
            {
                "bucket": pa.array(ub, pa.int64()),
                "lo_cents": pa.array(cmin + ub * w, pa.int64()),
                "hi_cents": pa.array(cmin + ub * w + w - 1, pa.int64()),
                "n": pa.array(un, pa.int64()),
            }
        )
    )


EVENTS_HISTOGRAM_SQL = f"""
WITH c AS (
  SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents FROM events
),
r AS (
  SELECT MIN(cents) AS cmin,
         (MAX(cents) - MIN(cents) + {_HIST_BINS}) // {_HIST_BINS} AS w
  FROM c
)
SELECT CAST((cents - cmin) // w AS BIGINT) AS bucket,
       CAST(cmin + ((cents - cmin) // w) * w AS BIGINT) AS lo_cents,
       CAST(cmin + ((cents - cmin) // w) * w + w - 1 AS BIGINT) AS hi_cents,
       CAST(COUNT(*) AS BIGINT) AS n
FROM c, r GROUP BY 1, 2, 3
"""


# ---------------------------------------------------------------------------
# EXCEPT — the customer master minus the distinct event users
# ---------------------------------------------------------------------------


def customers_except_event_users(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """ANSI EXCEPT: the distinct customer keys with NO event activity —
    the set-difference mirror of ``event_users_intersect_customers``
    (and the set-op form of the ``customers_without_orders`` anti-join
    shape). Both sides pre-shrink to per-batch DISTINCT keys before the
    ONE hashed-key shuffle, so only unique ids move; each partition
    resolves its difference with one sorted membership pass."""
    events = read_pq(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id"]
    )
    cust = read_pq(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(cust), row_bytes=17
    )

    def tag(col: str, tagval: int):
        def fn(b: pa.Table) -> pa.Table:
            keys = pc.unique(b.column(col))
            return pa.table(
                {
                    "part": _part_of(keys, n_parts),
                    "key": keys,
                    "tag": pa.array(
                        np.full(len(keys), tagval, np.int8)
                    ),
                }
            )

        return fn

    both = cust.map_batches(tag("c_custkey", 0), batch_format="pyarrow").union(
        events.map_batches(tag("user_id", 1), batch_format="pyarrow")
    )

    def diff(g: pa.Table) -> pa.Table:
        key = g.column("key").to_numpy(zero_copy_only=False)
        tagv = g.column("tag").to_numpy(zero_copy_only=False)
        left = np.unique(key[tagv == 0])
        right = np.unique(key[tagv == 1])
        return pa.table(
            {"id": pa.array(np.setdiff1d(left, right, assume_unique=True),
                            pa.int64())}
        )

    return both.groupby("part").map_groups(diff, batch_format="pyarrow")


CUSTOMERS_EXCEPT_SQL = """
SELECT c_custkey AS id FROM customer
EXCEPT
SELECT user_id AS id FROM events
"""


# ---------------------------------------------------------------------------
# Per-user behavioral entropy — Shannon entropy of each user's
# event-type distribution (a bot whose events are all one type scores
# 0; a uniform browser scores ln(5)). Genuinely distributed per-key
# aggregate: per-batch (user, type, n) count partials (24 B rows) are
# the only shuffle, co-located by hashed user partition, and every
# partition folds its users independently — the output is |users|
# rows and never lands on the driver. Float discipline: ln over the
# DISTINCT p values via math.log (the libm DuckDB's ln binds — the
# tfidf pattern), and the per-user sum is accumulated in (user,
# type-ascending) array order via np.add.at (unbuffered ⇒ sequential
# in element order), exactly the oracle's
# list_sum(list(term ORDER BY event_type)).
# ---------------------------------------------------------------------------

def user_type_entropy(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(user_id, n_events, type_entropy) for every user."""
    import math

    from ..functions.hashing import splitmix64_np

    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_type"],
    )
    hint = parquet_rows_hint(ds)
    n_parts = num_partitions or adaptive_partitions(hint, row_bytes=24)

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "user_id": b.column("user_id"),
                "event_type": b.column("event_type"),
            }
        )
        g = t.group_by(["user_id", "event_type"]).aggregate(
            [([], "count_all")]
        )
        g = g.rename_columns(["user_id", "event_type", "n"])
        upart = (
            splitmix64_np(
                g.column("user_id").to_numpy(zero_copy_only=False).astype(np.uint64)
            )
            % n_parts
        ).astype(np.int64)
        return g.append_column("upart", pa.array(upart, pa.int64()))

    def fold(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "type_entropy": pa.array([], pa.float64()),
                }
            )
        # merge cross-batch partials, then fold per user
        m = (
            g.select(["user_id", "event_type", "n"])
            .group_by(["user_id", "event_type"])
            .aggregate([("n", "sum")])
            .rename_columns(["user_id", "event_type", "n"])
        )
        uid = m.column("user_id").to_numpy(zero_copy_only=False)
        types = m.column("event_type").to_numpy(zero_copy_only=False).astype(str)
        n = m.column("n").to_numpy(zero_copy_only=False)
        order = np.lexsort((types, uid))
        uid, n = uid[order], n[order]
        uniq, starts = np.unique(uid, return_index=True)
        sizes = np.diff(np.append(starts, len(uid)))
        idx = np.repeat(np.arange(len(uniq), dtype=np.int64), sizes)
        nu = np.zeros(len(uniq), np.int64)
        np.add.at(nu, idx, n)
        p = n.astype(np.float64) / nu[idx].astype(np.float64)
        # ln over DISTINCT values through libm, mapped back
        up = np.unique(p)
        lnu = np.array([math.log(v) for v in up], np.float64)
        term = p * lnu[np.searchsorted(up, p)]
        acc = np.zeros(len(uniq), np.float64)
        np.add.at(acc, idx, term)  # sequential in type-ascending order
        return pa.table(
            {
                "user_id": pa.array(uniq, pa.int64()),
                "n_events": pa.array(nu, pa.int64()),
                "type_entropy": pa.array(-acc, pa.float64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("upart")
        .map_groups(fold, batch_format="pyarrow")
    )


USER_TYPE_ENTROPY_SQL = """
WITH c AS (
  SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY user_id, event_type
),
u AS (SELECT user_id, CAST(SUM(n) AS BIGINT) AS nu FROM c GROUP BY user_id),
t AS (
  SELECT c.user_id, c.event_type,
    (CAST(c.n AS DOUBLE) / CAST(u.nu AS DOUBLE))
      * ln(CAST(c.n AS DOUBLE) / CAST(u.nu AS DOUBLE)) AS term
  FROM c JOIN u USING (user_id)
)
SELECT t.user_id, u.nu AS n_events,
  -list_sum(list(t.term ORDER BY t.event_type)) AS type_entropy
FROM t JOIN u USING (user_id)
GROUP BY t.user_id, u.nu
"""


# ---------------------------------------------------------------------------
# Time-decayed counts — the "what's hot NOW" aggregate: each event
# contributes 0.5^(age_hours/24) (24 h half-life against the corpus's
# newest hour), so yesterday's burst counts half. Only bounded
# (type, hour, n) partials shuffle; the decay weights come from a
# math.pow LUT over the DISTINCT ages (libm pow ≙ DuckDB power —
# np.power's SIMD path does not match), and the per-type sum is
# folded in hour-ascending order via unbuffered np.add.at ≙ the
# oracle's list_sum(list(contrib ORDER BY h)).
# ---------------------------------------------------------------------------

DECAY_HALF_LIFE_HOURS = 24


def decayed_type_counts(sf_dir: str) -> pa.Table:
    """(event_type, n_events, decayed_count) with a 24 h half-life."""
    import math

    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["ts", "event_type"],
    )

    def partial(b: pa.Table) -> pa.Table:
        h = pc.divide(
            pc.cast(
                pc.floor_temporal(b.column("ts"), unit="hour"), pa.int64()
            ),
            3_600_000_000,
        )
        g = (
            pa.table({"event_type": b.column("event_type"), "h": h})
            .group_by(["event_type", "h"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["event_type", "h", "n"])

    tbl = bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "h"],
        [("n", "sum")],
    )
    if tbl is None or not tbl.num_rows:
        return pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "n_events": pa.array([], pa.int64()),
                "decayed_count": pa.array([], pa.float64()),
            }
        )
    types = tbl.column("event_type").to_numpy(zero_copy_only=False).astype(str)
    hs = tbl.column("h").to_numpy(zero_copy_only=False)
    ns = tbl.column("n").to_numpy(zero_copy_only=False)
    hmax = int(hs.max())
    ages = hmax - hs
    uages = np.unique(ages)
    lut = np.array(
        [math.pow(0.5, a / float(DECAY_HALF_LIFE_HOURS)) for a in uages.tolist()],
        np.float64,
    )
    w = lut[np.searchsorted(uages, ages)]
    contrib = ns.astype(np.float64) * w
    order = np.lexsort((hs, types))
    types_s, ns_s, contrib_s = types[order], ns[order], contrib[order]
    uniq, starts = np.unique(types_s, return_index=True)
    sizes = np.diff(np.append(starts, len(types_s)))
    idx = np.repeat(np.arange(len(uniq), dtype=np.int64), sizes)
    tot = np.zeros(len(uniq), np.int64)
    np.add.at(tot, idx, ns_s)
    acc = np.zeros(len(uniq), np.float64)
    np.add.at(acc, idx, contrib_s)  # sequential, hour-ascending
    return pa.table(
        {
            "event_type": pa.array(uniq.tolist(), pa.string()),
            "n_events": pa.array(tot, pa.int64()),
            "decayed_count": pa.array(acc, pa.float64()),
        }
    )


DECAYED_TYPE_COUNTS_SQL = f"""
WITH c AS (
  SELECT event_type,
         epoch_us(date_trunc('hour', ts)) // 3600000000 AS h,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY event_type, h
),
mx AS (SELECT max(h) AS hmax FROM c),
t AS (
  SELECT event_type, h, n,
    CAST(n AS DOUBLE)
      * power(CAST(0.5 AS DOUBLE),
              CAST(hmax - h AS DOUBLE)
                / CAST({DECAY_HALF_LIFE_HOURS} AS DOUBLE)) AS contrib
  FROM c CROSS JOIN mx
)
SELECT event_type, CAST(SUM(n) AS BIGINT) AS n_events,
  list_sum(list(contrib ORDER BY h)) AS decayed_count
FROM t GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# last-touch conversion attribution (round-4 continuation): each
# 'purchase' event credited to the same user's LATEST preceding touch
# event (click/view/signup/error), value rolled up by touch type —
# the marketing-attribution composition of the as-of join, run as a
# SELF as-of over one table read.
# ---------------------------------------------------------------------------

_CONVERSION_TYPE = "purchase"


def event_attribution(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(event_type, n_purchases, value_cents): last-touch attribution.
    For every purchase event, the same user's latest NON-purchase
    event at or before its timestamp (ties at an equal ts break to the
    highest event_id — the oracle's ORDER BY ts DESC, event_id DESC
    LIMIT 1); conversions with no prior touch land in 'none'. The
    events_asof_orders tagged-sort plan over a SINGLE table read (each
    row tags itself probe or build — no union), ONE hashed user_id
    shuffle, per-partition rollup, |event_types|+1-row final reduce."""
    from ray.data.aggregate import Sum

    events = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(events), row_bytes=56
    )

    def tag(b: pa.Table) -> pa.Table:
        is_conv = pc.equal(b.column("event_type"), _CONVERSION_TYPE)
        return pa.table(
            {
                "part": _part_of(b.column("user_id"), n_parts),
                "key": b.column("user_id"),
                "ts": pc.cast(b.column("ts"), pa.int64()),
                # touches (tag 0) sort BEFORE a conversion at an equal
                # ts, so 'at or before' includes same-instant touches
                "tag": pc.cast(is_conv, pa.int8()),
                "sid": b.column("event_id"),
                "etype": b.column("event_type"),
                "cents": _cents(b.column("value")),
            }
        )

    both = events.map_batches(tag, batch_format="pyarrow")

    def attribute_part(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy(zero_copy_only=False)
        ts = group.column("ts").to_numpy(zero_copy_only=False)
        tg = group.column("tag").to_numpy(zero_copy_only=False)
        sid = group.column("sid").to_numpy(zero_copy_only=False)
        cents = group.column("cents").to_numpy(zero_copy_only=False)
        order = np.lexsort((sid, tg, ts, key))
        k, t, g, c = key[order], ts[order], tg[order], cents[order]
        etype = group.column("etype").combine_chunks().take(
            pa.array(order, pa.int64())
        )
        n = len(k)
        idx = np.arange(n)
        is_touch = g == 0
        last_t = np.maximum.accumulate(np.where(is_touch, idx, -1))
        is_conv = ~is_touch
        pos = last_t[is_conv]
        safe = np.maximum(pos, 0)
        valid = (pos >= 0) & (k[safe] == k[is_conv])
        types = etype.take(pa.array(safe, pa.int64()))
        types = pc.if_else(pa.array(valid), types, pa.scalar("none"))
        local = pa.table(
            {
                "event_type": types,
                "cents": pa.array(c[is_conv], pa.int64()),
            }
        ).group_by("event_type").aggregate(
            [("cents", "sum"), ([], "count_all")]
        )
        return pa.table(
            {
                "event_type": local.column("event_type"),
                "n_purchases": pc.cast(local.column("count_all"), pa.int64()),
                "value_cents": pc.cast(local.column("cents_sum"), pa.int64()),
            }
        )

    partials = both.groupby("part").map_groups(
        attribute_part, batch_format="pyarrow"
    )
    return partials.groupby("event_type").aggregate(
        Sum("n_purchases", alias_name="n_purchases"),
        Sum("value_cents", alias_name="value_cents"),
    )


EVENT_ATTRIBUTION_SQL = f"""
WITH att AS (
  SELECT p.event_id, p.value,
    (SELECT e.event_type FROM events e
      WHERE e.user_id = p.user_id
        AND e.event_type <> '{_CONVERSION_TYPE}' AND e.ts <= p.ts
      ORDER BY e.ts DESC, e.event_id DESC LIMIT 1) AS etype
  FROM events p WHERE p.event_type = '{_CONVERSION_TYPE}'
)
SELECT COALESCE(etype, 'none') AS event_type,
  CAST(COUNT(*) AS BIGINT) AS n_purchases,
  CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
    AS value_cents
FROM att GROUP BY COALESCE(etype, 'none')
"""


# ---------------------------------------------------------------------------
# forward as-of: post-conversion follow-up — for each purchase, the
# same user's NEXT touch event at or after it (the mirror of
# event_attribution's backward scan).
# ---------------------------------------------------------------------------

def purchase_next_touch(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(event_id, next_event_id, next_type, gap_us): for every
    purchase event, the same user's EARLIEST non-purchase event at or
    after its timestamp — nulls when the user never touches again.
    Ties at an equal ts break to the LOWEST event_id (the oracle's
    ORDER BY ts ASC, event_id ASC LIMIT 1), and a touch at the same
    instant as the purchase counts — both pinned by the sort-key
    construction, not left to engine luck. Forward scan = the
    event_attribution sweep with a right-to-left minimum accumulate.
    ONE hashed user_id shuffle of 48 B rows."""
    events = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(events), row_bytes=48
    )

    def tag(b: pa.Table) -> pa.Table:
        is_conv = pc.equal(b.column("event_type"), _CONVERSION_TYPE)
        return pa.table(
            {
                "part": _part_of(b.column("user_id"), n_parts),
                "key": b.column("user_id"),
                "ts": pc.cast(b.column("ts"), pa.int64()),
                # purchases (tag 0) sort BEFORE touches at an equal ts,
                # so 'at or after' includes same-instant touches
                "tag": pc.cast(pc.invert(is_conv), pa.int8()),
                "sid": b.column("event_id"),
                "etype": b.column("event_type"),
            }
        )

    def next_part(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy(zero_copy_only=False)
        ts = group.column("ts").to_numpy(zero_copy_only=False)
        tg = group.column("tag").to_numpy(zero_copy_only=False)
        sid = group.column("sid").to_numpy(zero_copy_only=False)
        order = np.lexsort((sid, tg, ts, key))
        k, t, g, s = key[order], ts[order], tg[order], sid[order]
        etype = group.column("etype").combine_chunks().take(
            pa.array(order, pa.int64())
        )
        n = len(k)
        idx = np.arange(n)
        is_touch = g == 1
        # right-to-left minimum: the nearest FOLLOWING touch index
        nxt = np.minimum.accumulate(
            np.where(is_touch, idx, n)[::-1]
        )[::-1]
        is_conv = ~is_touch
        pos = nxt[is_conv]
        safe = np.minimum(pos, n - 1)
        valid = (pos < n) & (k[safe] == k[is_conv])
        types = etype.take(pa.array(safe, pa.int64()))
        conv_sel = pa.array(np.flatnonzero(is_conv), pa.int64())
        return pa.table(
            {
                "event_id": pa.array(s[is_conv], pa.int64()),
                "next_event_id": pc.if_else(
                    pa.array(valid),
                    pa.array(s[safe], pa.int64()),
                    pa.scalar(None, pa.int64()),
                ),
                "next_type": pc.if_else(
                    pa.array(valid), types, pa.scalar(None, pa.string())
                ),
                "gap_us": pc.if_else(
                    pa.array(valid),
                    pa.array(t[safe] - t[is_conv], pa.int64()),
                    pa.scalar(None, pa.int64()),
                ),
            }
        )

    return events.map_batches(tag, batch_format="pyarrow").groupby(
        "part"
    ).map_groups(next_part, batch_format="pyarrow")


PURCHASE_NEXT_TOUCH_SQL = f"""
WITH p AS (
  SELECT event_id, user_id, ts FROM events
  WHERE event_type = '{_CONVERSION_TYPE}'
),
nxt AS (
  SELECT p.event_id, p.ts AS p_ts,
    (SELECT e.event_id FROM events e
      WHERE e.user_id = p.user_id
        AND e.event_type <> '{_CONVERSION_TYPE}' AND e.ts >= p.ts
      ORDER BY e.ts ASC, e.event_id ASC LIMIT 1) AS next_event_id
  FROM p
)
SELECT n.event_id, n.next_event_id,
  e.event_type AS next_type,
  CAST(epoch_us(e.ts) - epoch_us(n.p_ts) AS BIGINT) AS gap_us
FROM nxt n LEFT JOIN events e ON e.event_id = n.next_event_id
"""


# ---------------------------------------------------------------------------
# watermark / allowed-lateness accounting (round-4): the streaming
# semantics every windowed pipeline needs — an event is LATE when it
# arrives after the watermark (running max event time in ARRIVAL
# order, proxied by event_id) has passed its timestamp by more than
# the allowed lateness.
# ---------------------------------------------------------------------------

_ALLOWED_LATENESS_US = 3_600_000_000  # 1 hour
_WM_BUCKET = 4096  # event_ids per ordered bucket


def events_late_arrivals(
    sf_dir: str,
    allowed_us: int = _ALLOWED_LATENESS_US,
    bucket_size: int = _WM_BUCKET,
) -> rd.Dataset:
    """(event_type, n_events, n_late): per event type, how many events
    arrived LATE — ts < watermark − allowed, where the watermark is
    the running max ts over arrival order (event_id). The
    allowed-lateness accounting that sizes a streaming pipeline's
    state-retention window.

    The running max is a DISTRIBUTED PREFIX SCAN over ordered
    buckets: event_id // {_WM_BUCKET} buckets are contiguous id
    ranges, so (1) one bounded reduce collects per-bucket max ts,
    (2) the driver takes the exclusive prefix max across the bucket
    table (O(#buckets)), and (3) ONE hashed-bucket shuffle lets each
    bucket resolve its rows with a local sort + cummax seeded by its
    carry-in. No global sort, no sequential pass over the corpus."""
    import ray
    from ray.data.aggregate import Sum

    events = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "event_type"],
    )

    def bucket_max(b: pa.Table) -> pa.Table:
        eid = b.column("event_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(b.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        bk = eid // bucket_size
        ub, inv = np.unique(bk, return_inverse=True)
        mx = np.full(len(ub), np.iinfo(np.int64).min, np.int64)
        np.maximum.at(mx, inv, ts)
        return pa.table(
            {
                "bucket": pa.array(ub, pa.int64()),
                "max_ts": pa.array(mx, pa.int64()),
            }
        )

    tbl = bounded_group_table_strict(
        events.map_batches(bucket_max, batch_format="pyarrow"),
        ["bucket"],
        [("max_ts", "max")],
    )
    empty = pa.table(
        {
            "event_type": pa.array([], pa.string()),
            "n_events": pa.array([], pa.int64()),
            "n_late": pa.array([], pa.int64()),
        }
    )
    if tbl is None or tbl.num_rows == 0:
        return rd.from_arrow(empty)
    bks = tbl.column("bucket").to_numpy(zero_copy_only=False)
    mxs = tbl.column("max_ts").to_numpy(zero_copy_only=False)
    order = np.argsort(bks)
    bks, mxs = bks[order], mxs[order]
    # exclusive prefix max: carry entering each bucket
    carry = np.concatenate(
        [[np.iinfo(np.int64).min], np.maximum.accumulate(mxs)[:-1]]
    )
    carry_ref = ray.put(dict(zip(bks.tolist(), carry.tolist())))

    def tag(b: pa.Table) -> pa.Table:
        eid = b.column("event_id").to_numpy(zero_copy_only=False)
        return b.append_column(
            "bucket", pa.array(eid // bucket_size, pa.int64())
        )

    def resolve(g: pa.Table) -> pa.Table:
        carries = ray.get(carry_ref)
        bk = int(g.column("bucket")[0].as_py())
        eid = g.column("event_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(g.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        order = np.argsort(eid)
        ts_s = ts[order]
        wm = np.maximum.accumulate(ts_s)
        cin = carries.get(bk, np.iinfo(np.int64).min)
        wm = np.maximum(wm, cin)
        late = ts_s < wm - allowed_us
        etype = g.column("event_type").combine_chunks().take(
            pa.array(order, pa.int64())
        )
        local = pa.table(
            {
                "event_type": etype,
                "late": pa.array(late.astype(np.int64), pa.int64()),
            }
        ).group_by("event_type").aggregate(
            [("late", "sum"), ([], "count_all")]
        )
        return pa.table(
            {
                "event_type": local.column("event_type"),
                "n_late": pc.cast(local.column("late_sum"), pa.int64()),
                "n_events": pc.cast(local.column("count_all"), pa.int64()),
            }
        )

    partials = events.map_batches(tag, batch_format="pyarrow").groupby(
        "bucket"
    ).map_groups(resolve, batch_format="pyarrow")
    return partials.groupby("event_type").aggregate(
        Sum("n_events", alias_name="n_events"),
        Sum("n_late", alias_name="n_late"),
    )


EVENTS_LATE_SQL = f"""
WITH w AS (
  SELECT event_type, epoch_us(ts) AS ts_us,
    MAX(epoch_us(ts)) OVER (
      ORDER BY event_id ROWS UNBOUNDED PRECEDING) AS wm
  FROM events
)
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events,
  CAST(SUM(CASE WHEN ts_us < wm - {_ALLOWED_LATENESS_US}
            THEN 1 ELSE 0 END) AS BIGINT) AS n_late
FROM w GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# value-band self-join cardinality (round-4): how many event pairs of
# the same type have near-identical values — answered from the cents
# HISTOGRAM (pairs within a bin + across adjacent bins), never by
# materializing pairs. The oracle derives the same number the
# expensive way (a direct self-join), making this a genuinely
# independent differential check.
# ---------------------------------------------------------------------------

_NEAR_EPS_CENTS = 1


def events_value_near_pairs(
    sf_dir: str, eps_cents: int = _NEAR_EPS_CENTS
) -> "pa.Table":
    """(event_type, n_events, n_near_pairs): per event type, the
    number of unordered event pairs whose exact-cent values differ by
    ≤ {_NEAR_EPS_CENTS}. The near-duplicate-transaction screen — and
    the self-join shape answered WITHOUT a join: from the bounded
    (type, cents) histogram, pairs = Σ_c C(n_c,2) + Σ_c Σ_{{d=1..ε}}
    n_c·n_(c+d) — exact int64 combinatorics, O(domain) on the driver,
    while the oracle pays the O(n²) self-join to derive the same
    number independently."""
    events = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "value"],
    )

    def hist(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": b.column("event_type"),
                "cents": _cents(b.column("value")),
            }
        )
        g = t.group_by(["event_type", "cents"]).aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "event_type": g.column("event_type"),
                "cents": g.column("cents"),
                "n": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    tbl = bounded_group_table_strict(
        events.map_batches(hist, batch_format="pyarrow"),
        ["event_type", "cents"],
        [("n", "sum")],
    )
    empty = pa.table(
        {
            "event_type": pa.array([], pa.string()),
            "n_events": pa.array([], pa.int64()),
            "n_near_pairs": pa.array([], pa.int64()),
        }
    )
    if tbl is None or tbl.num_rows == 0:
        return empty
    types = np.asarray(tbl.column("event_type").to_pylist(), dtype=object)
    cents = tbl.column("cents").to_numpy(zero_copy_only=False)
    ns = tbl.column("n").to_numpy(zero_copy_only=False)
    out = {"event_type": [], "n_events": [], "n_near_pairs": []}
    for ty in sorted(set(types.tolist())):
        m = types == ty
        c, n = cents[m], ns[m]
        order = np.argsort(c)
        c, n = c[order], n[order]
        pairs = int(np.sum(n * (n - 1) // 2))
        for d in range(1, eps_cents + 1):
            # adjacent bins exactly d cents apart
            pos = np.searchsorted(c, c + d)
            ok = (pos < len(c))
            ok[ok] &= c[pos[ok]] == (c + d)[ok]
            pairs += int(np.sum(n[ok] * n[pos[ok]]))
        out["event_type"].append(ty)
        out["n_events"].append(int(n.sum()))
        out["n_near_pairs"].append(pairs)
    return pa.table(
        {
            "event_type": pa.array(out["event_type"], pa.string()),
            "n_events": pa.array(out["n_events"], pa.int64()),
            "n_near_pairs": pa.array(out["n_near_pairs"], pa.int64()),
        }
    )


EVENTS_NEAR_PAIRS_SQL = f"""
WITH c AS (
  SELECT event_id, event_type,
    CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
),
p AS (
  SELECT c1.event_type, CAST(COUNT(*) AS BIGINT) AS n_near_pairs
  FROM c c1 JOIN c c2
    ON c2.event_type = c1.event_type
   AND c2.event_id > c1.event_id
   AND ABS(c1.cents - c2.cents) <= {_NEAR_EPS_CENTS}
  GROUP BY c1.event_type
),
t AS (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events
  FROM c GROUP BY event_type
)
SELECT t.event_type, t.n_events, COALESCE(p.n_near_pairs, 0) AS n_near_pairs
FROM t LEFT JOIN p ON p.event_type = t.event_type
"""
