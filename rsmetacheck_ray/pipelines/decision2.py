"""Decision-support batch 2 (round 3): the classic shapes still
missing after decision.py — EXISTS semi-join, conditional-aggregate
ratio report, HAVING-filtered aggregate joined back through two more
tables, COUNT(DISTINCT) per bounded group behind a NOT-IN anti-join,
disjunctive multi-branch predicate pushdown, and a lossless
edit-distance-1 fuzzy self-join (FastSS deletion neighborhoods).

Scale discipline (same as decision.py / relational.py):

- big⋈big edges are single tagged-union shuffles on a size-adaptive
  hashed key partition, with per-batch pruning (distinct keys,
  in-batch partial sums) so candidates move, not tables;
- bounded small sides (part attrs, the acctbal<0 supplier blocklist)
  travel once as sorted-array ``ray.put`` handles behind an explicit
  size gate, never per batch;
- money math is exact int64 cents (``_cents``) so emitted floats are
  expression-identical to the oracle's and hash bit-exact;
- final group domains are bounded (priorities, brand×type×size), so
  the last reduce is per-partition partials merged on the driver
  (``bounded_group_reduce``).

The reference has no relational engine (single-process JSON walk,
``src/cli.py`` + ``utils/pitfall_utils.py``); shapes per SURVEY
§2.6-2.8's aggregation/join axis.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..functions.editdist import byte_matrix, deletion_keys, within_edit1
from ..functions.hashing import hash_str_arrow_u128, splitmix64_np
from ..partitioning import (
    _part_of,
    adaptive_partitions,
    bounded_group_reduce,
    bounded_group_table,
    bounded_group_table_strict,
    parquet_rows_hint,
    read_pq,
)
from .relational import _cents

# part travels as sorted (p_partkey → attribute) arrays: 16-24 B/row,
# ~4.8 MB at SF-1 (200k parts) and ~480 MB at the 10⁷-part extreme —
# past the gate callers must co-partition lineitem⋈part on partkey
# (the shipping_priority tagged-union stage); raise, don't degrade.
_PART_BROADCAST_MAX = 50_000_000


def _part_lookup(sf_dir: str, columns: list[str]) -> pa.Table:
    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, "part.parquet")
    # gate from footer metadata BEFORE reading — past the gate no data
    # may reach the driver at all
    n_rows = pq.ParquetFile(path).metadata.num_rows
    if n_rows > _PART_BROADCAST_MAX:
        raise ValueError(
            f"part has {n_rows} rows > broadcast gate "
            f"{_PART_BROADCAST_MAX}; use a co-partitioned partkey join "
            "(pipelines/join.py routes there automatically)"
        )
    return pq.read_table(path, columns=["p_partkey", *columns])


# ---------------------------------------------------------------------------
# TPC-H Q4 shape: EXISTS semi-join — count orders per priority that
# have at least one returned line.
# ---------------------------------------------------------------------------

def orders_with_returns(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(o_orderpriority, n_orders): orders with ≥1 ``l_returnflag='R'``
    line, counted per priority.

    Plan: ONE tagged-union shuffle on orderkey. The lineitem side is
    pre-shrunk inside ``map_batches`` to the batch-distinct returned
    orderkeys (a semi-join needs existence, not multiplicity — at ~4
    lines/order that's 4× fewer rows into the shuffle); the orders
    side carries (orderkey, priority). Each partition merges with one
    sorted membership probe and emits ≤|priorities| count partials,
    reduced on the driver (bounded domain)."""
    li = read_pq(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey"],
        filter=pc.field("l_returnflag") == "R",
    )
    orders = read_pq(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderpriority"],
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(orders), row_bytes=24
    )

    def tag_li(b: pa.Table) -> pa.Table:
        keys = np.unique(b.column("l_orderkey").to_numpy(zero_copy_only=False))
        ka = pa.array(keys, pa.int64())
        return pa.table(
            {
                "part": _part_of(ka, n_parts),
                "key": ka,
                "tag": pa.array(np.zeros(len(keys), np.int8)),
                "prio": pa.array([""] * len(keys), pa.string()),
            }
        )

    def tag_orders(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part": _part_of(b.column("o_orderkey"), n_parts),
                "key": pc.cast(b.column("o_orderkey"), pa.int64()),
                "tag": pa.array(np.ones(len(b), np.int8)),
                "prio": b.column("o_orderpriority"),
            }
        )

    both = li.map_batches(tag_li, batch_format="pyarrow").union(
        orders.map_batches(tag_orders, batch_format="pyarrow")
    )

    def merge(g: pa.Table) -> pa.Table:
        tag = g.column("tag").to_numpy(zero_copy_only=False)
        key = g.column("key").to_numpy(zero_copy_only=False)
        ret = np.unique(key[tag == 0])
        osel = tag == 1
        okeys = key[osel]
        if not len(ret) or not len(okeys):
            return pa.table(
                {
                    "o_orderpriority": pa.array([], pa.string()),
                    "n_orders": pa.array([], pa.int64()),
                }
            )
        pos = np.searchsorted(ret, okeys)
        hit = ret[np.minimum(pos, len(ret) - 1)] == okeys
        prio = g.column("prio").filter(pa.array(osel)).combine_chunks()
        t = pa.table({"o_orderpriority": prio.filter(pa.array(hit))})
        cnt = t.group_by("o_orderpriority").aggregate([([], "count_all")])
        return cnt.rename_columns(["o_orderpriority", "n_orders"])

    per_part = both.groupby("part").map_groups(merge, batch_format="pyarrow")
    agg = bounded_group_reduce(per_part, ["o_orderpriority"], [("n_orders", "sum")])
    return agg.sort("o_orderpriority")


ORDERS_WITH_RETURNS_SQL = """
SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_orders
FROM orders o
WHERE EXISTS (
  SELECT 1 FROM lineitem l
  WHERE l.l_orderkey = o.o_orderkey AND l.l_returnflag = 'R'
)
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# TPC-H Q14 shape: conditional-aggregate ratio — promo revenue share
# over a ship-month, lineitem ⋈ broadcast part.
# ---------------------------------------------------------------------------

def promo_revenue(
    sf_dir: str,
    date_lo: str = "1995-09-01",
    date_hi: str = "1995-10-01",
) -> rd.Dataset:
    """One row (promo_cents, total_cents, promo_ratio): revenue share
    of PROMO-type parts among lines shipped in the window.

    Plan: part folds to a broadcast sorted (partkey → is_promo bit)
    pair (size-gated); lineitem scans only the window (parquet
    predicate) and 3 columns; each batch emits one (promo, total)
    cents partial; the driver folds partials and forms the ratio with
    the exact float expression the oracle uses
    (``100.0 * promo / total``)."""
    t = _part_lookup(sf_dir, ["p_type"])
    pk = t.column("p_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
    promo = pc.equal(t.column("p_type"), "PROMO").to_numpy(zero_copy_only=False)
    order = np.argsort(pk, kind="stable")
    ref = ray.put((pk[order], promo[order]))

    lo = np.datetime64(date_lo, "us")
    hi = np.datetime64(date_hi, "us")
    li = read_pq(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_extendedprice", "l_discount"],
        filter=(
            (pc.field("l_shipdate") >= pa.scalar(lo.item()))
            & (pc.field("l_shipdate") < pa.scalar(hi.item()))
        ),
    )

    def partial(b: pa.Table) -> pa.Table:
        spk, spromo = ray.get(ref)
        rev = _cents(
            pc.multiply(
                b.column("l_extendedprice"),
                pc.subtract(pa.scalar(1.0), b.column("l_discount")),
            )
        ).to_numpy(zero_copy_only=False)
        lpk = b.column("l_partkey").to_numpy(zero_copy_only=False)
        if len(spk):
            pos = np.minimum(np.searchsorted(spk, lpk), len(spk) - 1)
            isp = (spk[pos] == lpk) & spromo[pos]
        else:
            isp = np.zeros(len(lpk), bool)
        return pa.table(
            {
                "promo_cents": pa.array([int(rev[isp].sum())], pa.int64()),
                "total_cents": pa.array([int(rev.sum())], pa.int64()),
            }
        )

    tbl = bounded_group_table_strict(
        li.map_batches(partial, batch_format="pyarrow").map_batches(
            lambda b: b.append_column("g", pa.array([0] * len(b), pa.int8())),
            batch_format="pyarrow",
        ),
        ["g"],
        [("promo_cents", "sum"), ("total_cents", "sum")],
    )
    if tbl is None or tbl.num_rows == 0:
        p_sum, t_sum = None, None
    else:
        p_sum = tbl.column("promo_cents")[0].as_py()
        t_sum = tbl.column("total_cents")[0].as_py()
    ratio = (
        None if not t_sum else 100.0 * p_sum / t_sum
    )  # same IEEE ops as SQL `100.0 * p / t`
    return rd.from_arrow(
        pa.table(
            {
                "promo_cents": pa.array([p_sum], pa.int64()),
                "total_cents": pa.array([t_sum], pa.int64()),
                "promo_ratio": pa.array([ratio], pa.float64()),
            }
        )
    )


PROMO_REVENUE_SQL = """
WITH w AS (
  SELECT CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5)
              AS BIGINT) AS rev_cents,
         p.p_type = 'PROMO' AS is_promo
  FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
  WHERE l.l_shipdate >= TIMESTAMP '1995-09-01'
    AND l.l_shipdate < TIMESTAMP '1995-10-01'
)
SELECT CAST(SUM(CASE WHEN is_promo THEN rev_cents ELSE 0 END) AS BIGINT)
         AS promo_cents,
       CAST(SUM(rev_cents) AS BIGINT) AS total_cents,
       100.0 * SUM(CASE WHEN is_promo THEN rev_cents ELSE 0 END)
         / SUM(rev_cents) AS promo_ratio
FROM w
"""


# ---------------------------------------------------------------------------
# TPC-H Q18 shape: HAVING-filtered aggregate joined back — large-volume
# orders with their customer.
# ---------------------------------------------------------------------------

# HAVING sum(qty) > 150 qualifies a vanishing fraction of orders
# (TPC-H Q18: ~60 rows per SF) — past this many qualifying rows the
# broadcast plan falls back to the two tagged-union shuffles.
_Q18_QUALIFY_MAX = 4_000_000


def big_orders(
    sf_dir: str, min_qty: int = 150, num_partitions: int | None = None
) -> rd.Dataset:
    """Orders whose total line quantity exceeds ``min_qty``, with
    customer name — (c_custkey, c_name, o_orderkey, o_orderdate,
    total_cents, sum_qty), largest order value first.

    Plan (auto): the ONLY wide op is the partial-combined qty
    aggregate on orderkey — per-batch Arrow ``group_by`` partials,
    one keyed Sum reduce, HAVING filter. The qualifying set is tiny
    by construction (the HAVING selects extreme orders), so it
    broadcasts twice: once to filter orders in place (no orders
    shuffle), and the joined order rows broadcast again to pick
    customer names off a single customer scan (no customer shuffle).
    The bounded result sorts on the driver. Past
    ``_Q18_QUALIFY_MAX`` qualifying rows (degenerate min_qty) the
    plan falls back to :func:`_big_orders_shuffle`'s two tagged-union
    shuffles. Quantities are integral doubles — summed as int64 so
    the HAVING compare is exact."""
    from ray.data.aggregate import Sum

    li = read_pq(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_quantity"],
    )

    def li_partial(b: pa.Table) -> pa.Table:
        g = pa.table(
            {
                "key": pc.cast(b.column("l_orderkey"), pa.int64()),
                "qty": pc.cast(b.column("l_quantity"), pa.int64()),
            }
        ).group_by("key").aggregate([("qty", "sum")])
        return pa.table({"key": g.column("key"), "qty": g.column("qty_sum")})

    def having(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater(b.column("qty"), min_qty))

    # orderkey partials merge under the bounded_group_table gate:
    # ≤4M partial rows merge on the driver with ONE Arrow group_by
    # (the distributed Aggregate pays a ~2.7 s sort-shuffle constant
    # for a 9 MB reduce at sf0.1); past the gate the reduce runs
    # distributed and only the post-HAVING rows pull back.
    g = bounded_group_table(
        li.map_batches(li_partial, batch_format="pyarrow"),
        ["key"],
        [("qty", "sum")],
    )
    if g is None:
        g = pa.table(
            {"key": pa.array([], pa.int64()), "qty": pa.array([], pa.int64())}
        )
    tables: list[pa.Table] = []
    pulled, over = 0, False
    if isinstance(g, rd.Dataset):
        qual = g.map_batches(having, batch_format="pyarrow")
        # bounded incremental pull with early abort: blocks already
        # fetched stay ≤ gate + one block.
        for ref in qual.materialize().to_arrow_refs():
            t = ray.get(ref)
            if t.num_rows:
                tables.append(t)
                pulled += t.num_rows
            if pulled > _Q18_QUALIFY_MAX:
                over = True
                break
    else:
        t = having(g)
        if t.num_rows:
            tables.append(t)
        over = t.num_rows > _Q18_QUALIFY_MAX
    if over:
        return _big_orders_shuffle(sf_dir, min_qty, num_partitions)

    def _empty() -> rd.Dataset:
        return rd.from_arrow(
            pa.table(
                {
                    "c_custkey": pa.array([], pa.int64()),
                    "c_name": pa.array([], pa.string()),
                    "o_orderkey": pa.array([], pa.int64()),
                    "o_orderdate": pa.array([], pa.timestamp("us")),
                    "total_cents": pa.array([], pa.int64()),
                    "sum_qty": pa.array([], pa.int64()),
                }
            )
        )

    if not tables:
        return _empty()
    qt = pa.concat_tables(tables)
    qk = qt.column("key").to_numpy(zero_copy_only=False).astype(np.int64)
    qq = qt.column("qty").to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.argsort(qk, kind="stable")
    qual_ref = ray.put((qk[o], qq[o]))

    orders = read_pq(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )

    def attach_order(b: pa.Table) -> pa.Table:
        kk, qsum = ray.get(qual_ref)
        ok = pc.cast(b.column("o_orderkey"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        if len(ok) == 0:
            rows = np.array([], np.int64)
            hitpos = rows
        else:
            pos = np.minimum(np.searchsorted(kk, ok), len(kk) - 1)
            hit = kk[pos] == ok
            rows = np.nonzero(hit)[0]
            hitpos = pos[rows]
        idx = pa.array(rows, pa.int64())
        return pa.table(
            {
                "custkey": pc.take(pc.cast(b.column("o_custkey"), pa.int64()), idx),
                "o_orderkey": pa.array(ok[rows], pa.int64()),
                "odate": pc.take(
                    pc.cast(
                        pc.cast(b.column("o_orderdate"), pa.timestamp("us")),
                        pa.int64(),
                    ),
                    idx,
                ),
                "total_cents": pc.take(_cents(b.column("o_totalprice")), idx),
                "sum_qty": pa.array(qsum[hitpos], pa.int64()),
            }
        )

    qo_tabs = [
        t
        for t in (
            ray.get(r)
            for r in orders.map_batches(attach_order, batch_format="pyarrow")
            .materialize()
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    if not qo_tabs:
        return _empty()
    qo = pa.concat_tables(qo_tabs)
    ck = qo.column("custkey").to_numpy(zero_copy_only=False).astype(np.int64)
    o2 = np.argsort(ck, kind="stable")
    cust_ref = ray.put(
        (
            ck[o2],
            qo.column("o_orderkey").to_numpy(zero_copy_only=False)[o2],
            qo.column("odate").to_numpy(zero_copy_only=False)[o2],
            qo.column("total_cents").to_numpy(zero_copy_only=False)[o2],
            qo.column("sum_qty").to_numpy(zero_copy_only=False)[o2],
        )
    )

    cust = read_pq(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name"],
    )

    def attach_name(b: pa.Table) -> pa.Table:
        # reverse probe: each (tiny) qualifying row finds its customer
        # in this batch; custkey is a PK, so every row matches in
        # exactly one batch — no duplicate output rows.
        ks, okey, odate, tot, qty = ray.get(cust_ref)
        bk = pc.cast(b.column("c_custkey"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        if len(bk) == 0 or len(ks) == 0:
            rows_q = np.array([], np.int64)
            rows_c = rows_q
        else:
            bo = np.argsort(bk, kind="stable")
            bks = bk[bo]
            pos = np.minimum(np.searchsorted(bks, ks), len(bks) - 1)
            hit = bks[pos] == ks
            rows_q = np.nonzero(hit)[0]
            rows_c = bo[pos[rows_q]]
        return pa.table(
            {
                "c_custkey": pa.array(ks[rows_q], pa.int64()),
                "c_name": pc.take(b.column("c_name"), pa.array(rows_c, pa.int64())),
                "o_orderkey": pa.array(okey[rows_q], pa.int64()),
                "o_orderdate": pc.cast(
                    pa.array(odate[rows_q], pa.int64()), pa.timestamp("us")
                ),
                "total_cents": pa.array(tot[rows_q], pa.int64()),
                "sum_qty": pa.array(qty[rows_q], pa.int64()),
            }
        )

    named = [
        t
        for t in (
            ray.get(r)
            for r in cust.map_batches(attach_name, batch_format="pyarrow")
            .materialize()
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    if not named:
        return _empty()
    res = pa.concat_tables(named).combine_chunks()
    idx = pc.sort_indices(
        res,
        sort_keys=[("total_cents", "descending"), ("o_orderkey", "ascending")],
    )
    return rd.from_arrow(res.take(idx))


def _big_orders_shuffle(
    sf_dir: str, min_qty: int = 150, num_partitions: int | None = None
) -> rd.Dataset:
    """The pre-gate plan: TWO tagged-union shuffles, both on
    size-adaptive hashed key partitions. Shuffle A (orderkey):
    lineitem ships per-batch (orderkey → qty) partial sums (in-batch
    Arrow group_by), orders ship (orderkey, custkey, date, cents); the
    partition merge folds quantities, applies HAVING, and joins the
    ≤few-qualifying rows to their order row. Shuffle B (custkey):
    qualifying rows against (custkey, name) customer rows. Used when
    the qualifying set outgrows ``_Q18_QUALIFY_MAX``."""
    li = read_pq(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_quantity"],
    )
    orders = read_pq(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )
    cust = read_pq(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name"],
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(orders), row_bytes=40
    )

    zero8 = lambda n: pa.array(np.zeros(n, np.int64))  # noqa: E731

    def tag_li(b: pa.Table) -> pa.Table:
        qty = pc.cast(b.column("l_quantity"), pa.int64())
        g = pa.table(
            {"key": b.column("l_orderkey"), "qty": qty}
        ).group_by("key").aggregate([("qty", "sum")])
        k = g.column("key")
        n = g.num_rows
        return pa.table(
            {
                "part": _part_of(k, n_parts),
                "key": k,
                "tag": pa.array(np.zeros(n, np.int8)),
                "qty": g.column("qty_sum"),
                "custkey": zero8(n),
                "odate": zero8(n),
                "tot": zero8(n),
            }
        )

    def tag_orders(b: pa.Table) -> pa.Table:
        n = len(b)
        return pa.table(
            {
                "part": _part_of(b.column("o_orderkey"), n_parts),
                "key": pc.cast(b.column("o_orderkey"), pa.int64()),
                "tag": pa.array(np.ones(n, np.int8)),
                "qty": zero8(n),
                "custkey": pc.cast(b.column("o_custkey"), pa.int64()),
                "odate": pc.cast(
                    pc.cast(b.column("o_orderdate"), pa.timestamp("us")), pa.int64()
                ),
                "tot": _cents(b.column("o_totalprice")),
            }
        )

    both = li.map_batches(tag_li, batch_format="pyarrow").union(
        orders.map_batches(tag_orders, batch_format="pyarrow")
    )

    def merge_a(g: pa.Table) -> pa.Table:
        tag = g.column("tag").to_numpy(zero_copy_only=False)
        key = g.column("key").to_numpy(zero_copy_only=False)
        qty = g.column("qty").to_numpy(zero_copy_only=False)
        lsel = tag == 0
        lk, lq = key[lsel], qty[lsel]
        order = np.argsort(lk, kind="stable")
        lk, lq = lk[order], lq[order]
        starts = (
            np.nonzero(np.concatenate([[True], lk[1:] != lk[:-1]]))[0]
            if len(lk)
            else np.array([], np.int64)
        )
        sums = np.add.reduceat(lq, starts) if len(lk) else np.array([], np.int64)
        ok = lk[starts] if len(lk) else np.array([], np.int64)
        keep = sums > min_qty
        ok, sums = ok[keep], sums[keep]
        osel = tag == 1
        okk = key[osel]
        o = np.argsort(okk, kind="stable")  # orderkey is a PK
        okk = okk[o]
        if not len(ok) or not len(okk):
            return pa.table(
                {
                    "custkey": pa.array([], pa.int64()),
                    "o_orderkey": pa.array([], pa.int64()),
                    "odate": pa.array([], pa.int64()),
                    "total_cents": pa.array([], pa.int64()),
                    "sum_qty": pa.array([], pa.int64()),
                }
            )
        pos = np.minimum(np.searchsorted(okk, ok), len(okk) - 1)
        hit = okk[pos] == ok
        take = o[pos[hit]]
        rows = np.nonzero(osel)[0][take]
        return pa.table(
            {
                "custkey": pa.array(
                    g.column("custkey").to_numpy(zero_copy_only=False)[rows],
                    pa.int64(),
                ),
                "o_orderkey": pa.array(ok[hit], pa.int64()),
                "odate": pa.array(
                    g.column("odate").to_numpy(zero_copy_only=False)[rows],
                    pa.int64(),
                ),
                "total_cents": pa.array(
                    g.column("tot").to_numpy(zero_copy_only=False)[rows], pa.int64()
                ),
                "sum_qty": pa.array(sums[hit], pa.int64()),
            }
        )

    qualified = both.groupby("part").map_groups(merge_a, batch_format="pyarrow")

    # shuffle B: attach c_name on a custkey hash partition
    def tag_q(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part": _part_of(b.column("custkey"), n_parts),
                "tag": pa.array(np.zeros(len(b), np.int8)),
                "custkey": b.column("custkey"),
                "name": pa.array([""] * len(b), pa.string()),
                "o_orderkey": b.column("o_orderkey"),
                "odate": b.column("odate"),
                "total_cents": b.column("total_cents"),
                "sum_qty": b.column("sum_qty"),
            }
        )

    def tag_cust(b: pa.Table) -> pa.Table:
        n = len(b)
        return pa.table(
            {
                "part": _part_of(b.column("c_custkey"), n_parts),
                "tag": pa.array(np.ones(n, np.int8)),
                "custkey": pc.cast(b.column("c_custkey"), pa.int64()),
                "name": b.column("c_name"),
                "o_orderkey": zero8(n),
                "odate": zero8(n),
                "total_cents": zero8(n),
                "sum_qty": zero8(n),
            }
        )

    both_b = qualified.map_batches(tag_q, batch_format="pyarrow").union(
        cust.map_batches(tag_cust, batch_format="pyarrow")
    )

    def merge_b(g: pa.Table) -> pa.Table:
        tag = g.column("tag").to_numpy(zero_copy_only=False)
        ck = g.column("custkey").to_numpy(zero_copy_only=False)
        csel = tag == 1
        cust_k = ck[csel]
        o = np.argsort(cust_k, kind="stable")  # custkey is a PK
        cust_k = cust_k[o]
        names = g.column("name").filter(pa.array(csel)).combine_chunks()
        qsel = np.nonzero(tag == 0)[0]
        qk = ck[qsel]
        if not len(cust_k) or not len(qk):
            return pa.table(
                {
                    "c_custkey": pa.array([], pa.int64()),
                    "c_name": pa.array([], pa.string()),
                    "o_orderkey": pa.array([], pa.int64()),
                    "o_orderdate": pa.array([], pa.timestamp("us")),
                    "total_cents": pa.array([], pa.int64()),
                    "sum_qty": pa.array([], pa.int64()),
                }
            )
        pos = np.minimum(np.searchsorted(cust_k, qk), len(cust_k) - 1)
        hit = cust_k[pos] == qk
        rows = qsel[hit]
        return pa.table(
            {
                "c_custkey": pa.array(qk[hit], pa.int64()),
                "c_name": names.take(pa.array(o[pos[hit]], pa.int64())),
                "o_orderkey": pa.array(
                    g.column("o_orderkey").to_numpy(zero_copy_only=False)[rows],
                    pa.int64(),
                ),
                "o_orderdate": pc.cast(
                    pa.array(
                        g.column("odate").to_numpy(zero_copy_only=False)[rows],
                        pa.int64(),
                    ),
                    pa.timestamp("us"),
                ),
                "total_cents": pa.array(
                    g.column("total_cents").to_numpy(zero_copy_only=False)[rows],
                    pa.int64(),
                ),
                "sum_qty": pa.array(
                    g.column("sum_qty").to_numpy(zero_copy_only=False)[rows],
                    pa.int64(),
                ),
            }
        )

    out = both_b.groupby("part").map_groups(merge_b, batch_format="pyarrow")
    return out.sort(["total_cents", "o_orderkey"], descending=[True, False])


BIG_ORDERS_SQL = """
SELECT c.c_custkey, c.c_name, o.o_orderkey, o.o_orderdate,
  CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT) AS total_cents,
  CAST(SUM(CAST(l.l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
FROM customer c
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
GROUP BY c.c_custkey, c.c_name, o.o_orderkey, o.o_orderdate, o.o_totalprice
HAVING SUM(CAST(l.l_quantity AS BIGINT)) > 150
ORDER BY total_cents DESC, o.o_orderkey
"""


# ---------------------------------------------------------------------------
# TPC-H Q16 shape: COUNT(DISTINCT supplier) per (brand, type, size)
# behind a NOT-IN supplier blocklist. The part-supplier relation is
# lineitem's (l_partkey, l_suppkey) projection (no partsupp table in
# this lake).
# ---------------------------------------------------------------------------

def part_supplier_counts(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(p_brand, p_type, p_size, supplier_cnt): distinct suppliers
    observed shipping each part group, excluding negative-balance
    suppliers.

    Plan: part folds to a broadcast (partkey → bounded combo id) with
    the ≤|brand×type×size| combo strings kept on the driver; the
    acctbal<0 supplier blocklist is a second (tiny) broadcast. Each
    lineitem batch maps partkey→combo, drops blocklisted suppliers,
    and pre-shrinks to batch-distinct packed (combo, suppkey) keys;
    ONE shuffle co-locates equal packed keys for the global distinct,
    and per-partition (combo, count) partials reduce on the driver."""
    import pyarrow.parquet as pq

    t = _part_lookup(sf_dir, ["p_brand", "p_type", "p_size"])
    combo = t.group_by(["p_brand", "p_type", "p_size"]).aggregate([])
    combo = combo.sort_by(
        [("p_brand", "ascending"), ("p_type", "ascending"), ("p_size", "ascending")]
    )
    # combo id per part row: search the sorted combo table
    key_of = {
        (b, ty, s): i
        for i, (b, ty, s) in enumerate(
            zip(
                combo.column("p_brand").to_pylist(),
                combo.column("p_type").to_pylist(),
                combo.column("p_size").to_pylist(),
            )
        )
    }
    cid = np.fromiter(
        (
            key_of[(b, ty, s)]
            for b, ty, s in zip(
                t.column("p_brand").to_pylist(),
                t.column("p_type").to_pylist(),
                t.column("p_size").to_pylist(),
            )
        ),
        np.int64,
        t.num_rows,
    )
    pk = t.column("p_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(pk, kind="stable")
    bad = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey"],
        filters=[("s_acctbal", "<", 0)],
    )
    bad_k = np.sort(bad.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64))
    ref = ray.put((pk[order], cid[order], bad_k))

    li = read_pq(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey"],
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(li), row_bytes=16
    )

    def pack_stage(b: pa.Table) -> pa.Table:
        spk, scid, blk = ray.get(ref)
        lpk = b.column("l_partkey").to_numpy(zero_copy_only=False)
        lsk = b.column("l_suppkey").to_numpy(zero_copy_only=False)
        if len(blk):
            pos = np.minimum(np.searchsorted(blk, lsk), len(blk) - 1)
            keep = blk[pos] != lsk
            lpk, lsk = lpk[keep], lsk[keep]
        if len(spk):
            pos = np.minimum(np.searchsorted(spk, lpk), len(spk) - 1)
            hit = spk[pos] == lpk
            c = scid[pos][hit]
            sk = lsk[hit]
        else:
            c = np.array([], np.int64)
            sk = np.array([], np.int64)
        packed = np.unique((c << 44) | sk)  # suppkey < 2^44 by schema
        pk_arr = pa.array(packed, pa.int64())
        return pa.table({"part": _part_of(pk_arr, n_parts), "packed": pk_arr})

    def distinct_count(g: pa.Table) -> pa.Table:
        packed = np.unique(g.column("packed").to_numpy(zero_copy_only=False))
        c = packed >> 44
        starts = (
            np.nonzero(np.concatenate([[True], c[1:] != c[:-1]]))[0]
            if len(c)
            else np.array([], np.int64)
        )
        counts = np.diff(np.append(starts, len(c)))
        return pa.table(
            {
                "combo": pa.array(c[starts], pa.int64()),
                "supplier_cnt": pa.array(counts, pa.int64()),
            }
        )

    per_part = (
        li.map_batches(pack_stage, batch_format="pyarrow")
        .groupby("part")
        .map_groups(distinct_count, batch_format="pyarrow")
    )
    agg = bounded_group_table_strict(
        per_part, ["combo"], [("supplier_cnt", "sum")]
    )
    if agg is None:
        agg = pa.table(
            {"combo": pa.array([], pa.int64()), "supplier_cnt": pa.array([], pa.int64())}
        )
    cix = pa.array(agg.column("combo").to_numpy(zero_copy_only=False), pa.int64())
    out = pa.table(
        {
            "p_brand": combo.column("p_brand").take(cix),
            "p_type": combo.column("p_type").take(cix),
            "p_size": pc.cast(combo.column("p_size").take(cix), pa.int64()),
            "supplier_cnt": agg.column("supplier_cnt"),
        }
    )
    out = out.sort_by(
        [
            ("supplier_cnt", "descending"),
            ("p_brand", "ascending"),
            ("p_type", "ascending"),
            ("p_size", "ascending"),
        ]
    )
    return rd.from_arrow(out)


PART_SUPPLIER_COUNTS_SQL = """
SELECT p.p_brand, p.p_type, CAST(p.p_size AS BIGINT) AS p_size,
  CAST(COUNT(DISTINCT l.l_suppkey) AS BIGINT) AS supplier_cnt
FROM part p JOIN lineitem l ON p.p_partkey = l.l_partkey
WHERE l.l_suppkey NOT IN (
  SELECT s_suppkey FROM supplier WHERE s_acctbal < 0
)
GROUP BY p.p_brand, p.p_type, p.p_size
ORDER BY supplier_cnt DESC, p.p_brand, p.p_type, p_size
"""


# ---------------------------------------------------------------------------
# TPC-H Q19 shape: disjunctive multi-branch predicate — revenue over
# three OR'd (brand, size range, quantity range) branches.
# ---------------------------------------------------------------------------

_Q19_BRANCHES = (
    ("Brand#12", 1, 5, 1, 11),
    ("Brand#23", 1, 10, 10, 20),
    ("Brand#34", 1, 15, 20, 30),
)


def special_revenue(sf_dir: str) -> rd.Dataset:
    """One row (rev_cents): revenue of lines matching ANY of three
    (brand, size range, quantity range) branches.

    Plan: part folds to a broadcast (partkey → branch id) where the
    branch id already encodes the brand+size conjuncts (non-matching
    parts are dropped from the broadcast — the part-side disjunction
    is pushed into the lookup itself); each lineitem batch keeps only
    rows whose part carries a branch AND whose quantity falls in that
    branch's range, then emits one cents partial."""
    t = _part_lookup(sf_dir, ["p_brand", "p_size"])
    brand = t.column("p_brand")
    size = t.column("p_size").to_numpy(zero_copy_only=False)
    branch = np.full(t.num_rows, -1, np.int64)
    for i, (b, s_lo, s_hi, _q_lo, _q_hi) in enumerate(_Q19_BRANCHES):
        m = (
            pc.equal(brand, b).to_numpy(zero_copy_only=False)
            & (size >= s_lo)
            & (size <= s_hi)
        )
        branch[m] = i
    keep = branch >= 0
    pk = t.column("p_partkey").to_numpy(zero_copy_only=False).astype(np.int64)[keep]
    branch = branch[keep]
    order = np.argsort(pk, kind="stable")
    ref = ray.put((pk[order], branch[order]))
    q_lo = np.array([b[3] for b in _Q19_BRANCHES], np.float64)
    q_hi = np.array([b[4] for b in _Q19_BRANCHES], np.float64)

    li = read_pq(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
        filter=(
            (pc.field("l_quantity") >= float(q_lo.min()))
            & (pc.field("l_quantity") <= float(q_hi.max()))
        ),
    )

    def partial(b: pa.Table) -> pa.Table:
        spk, sbr = ray.get(ref)
        lpk = b.column("l_partkey").to_numpy(zero_copy_only=False)
        qty = b.column("l_quantity").to_numpy(zero_copy_only=False)
        if len(spk):
            pos = np.minimum(np.searchsorted(spk, lpk), len(spk) - 1)
            hit = spk[pos] == lpk
            br = np.where(hit, sbr[pos], 0)
            sel = hit & (qty >= q_lo[br]) & (qty <= q_hi[br])
        else:
            sel = np.zeros(len(lpk), bool)
        rev = _cents(
            pc.multiply(
                b.column("l_extendedprice"),
                pc.subtract(pa.scalar(1.0), b.column("l_discount")),
            )
        ).to_numpy(zero_copy_only=False)
        return pa.table(
            {"g": pa.array([0], pa.int8()), "rev_cents": pa.array([int(rev[sel].sum())], pa.int64())}
        )

    tbl = bounded_group_table_strict(
        li.map_batches(partial, batch_format="pyarrow"), ["g"], [("rev_cents", "sum")]
    )
    total = 0 if tbl is None or tbl.num_rows == 0 else tbl.column("rev_cents")[0].as_py()
    return rd.from_arrow(
        pa.table({"rev_cents": pa.array([total], pa.int64())})
    )


SPECIAL_REVENUE_SQL = """
SELECT CAST(COALESCE(SUM(
  CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5) AS BIGINT)
), 0) AS BIGINT) AS rev_cents
FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
WHERE (p.p_brand = 'Brand#12' AND p.p_size BETWEEN 1 AND 5
       AND l.l_quantity BETWEEN 1 AND 11)
   OR (p.p_brand = 'Brand#23' AND p.p_size BETWEEN 1 AND 10
       AND l.l_quantity BETWEEN 10 AND 20)
   OR (p.p_brand = 'Brand#34' AND p.p_size BETWEEN 1 AND 15
       AND l.l_quantity BETWEEN 20 AND 30)
"""


# ---------------------------------------------------------------------------
# Fuzzy self-join: part-name pairs within Levenshtein distance 1 inside
# a brand — FastSS deletion-neighborhood blocking (lossless for k = 1),
# exact in-bucket verification, global pair distinct.
# ---------------------------------------------------------------------------

def fuzzy_name_pairs(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(part_a, part_b): part pairs of the same brand whose names are
    within edit distance 1 (FastSS, ``functions/editdist.py``).

    Plan: each part row expands to its ≤(len+1) deletion-variant keys
    (vectorized polynomial hashes) salted with the brand hash — a
    lossless analog of MinHash banding; ONE shuffle co-locates equal
    keys; each partition verifies candidate pairs exactly (vectorized
    Hamming / shifted-suffix compare) and emits packed pairs; a second
    (tiny) shuffle makes pairs globally distinct — the same pair can
    surface under several variant keys. Output size is inherently
    quadratic in exact-duplicate-name multiplicity within a brand
    (those ARE the matches); the ×(len+1) row expansion is the
    documented cost of losslessness, fine for short key fields.
    Partkeys pack into one int64 (< 2^31 each at any SF here); a
    >2^31-key corpus would switch the distinct to two-column form."""
    part = read_pq(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_name", "p_brand"],
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(part), row_bytes=60
    )

    def expand(b: pa.Table) -> pa.Table:
        names = pc.fill_null(b.column("p_name"), "").combine_chunks()
        M, lens = byte_matrix(names)
        rows, keys = deletion_keys(M, lens)
        bh, _ = hash_str_arrow_u128(b.column("p_brand"))
        with np.errstate(over="ignore"):
            vkey = splitmix64_np(keys ^ splitmix64_np(bh[rows]))
        pk = b.column("p_partkey").to_numpy(zero_copy_only=False)[rows]
        vk = vkey.astype(np.int64)
        # within-batch (vkey, partkey) dedupe: "aab" yields "ab" twice
        order = np.lexsort((pk, vk))
        vk, pk, rows = vk[order], pk[order], rows[order]
        first = np.concatenate(
            [[True], (vk[1:] != vk[:-1]) | (pk[1:] != pk[:-1])]
        ) if len(vk) else np.array([], bool)
        vk, pk, rows = vk[first], pk[first], rows[first]
        vk_arr = pa.array(vk, pa.int64())
        return pa.table(
            {
                "part": _part_of(vk_arr, n_parts),
                "vkey": vk_arr,
                "pk": pa.array(pk, pa.int64()),
                "name": names.take(pa.array(rows, pa.int64())),
            }
        )

    def bucket_verify(g: pa.Table) -> pa.Table:
        vk = g.column("vkey").to_numpy(zero_copy_only=False)
        pk = g.column("pk").to_numpy(zero_copy_only=False)
        M, lens = byte_matrix(g.column("name").combine_chunks())
        order = np.lexsort((pk, vk))
        vk_s, pk_s = vk[order], pk[order]
        # drop (vkey, pk) dupes that met across batches
        keep = (
            np.concatenate([[True], (vk_s[1:] != vk_s[:-1]) | (pk_s[1:] != pk_s[:-1])])
            if len(vk_s)
            else np.array([], bool)
        )
        order, vk_s, pk_s = order[keep], vk_s[keep], pk_s[keep]
        n = len(vk_s)
        starts = (
            np.nonzero(np.concatenate([[True], vk_s[1:] != vk_s[:-1]]))[0]
            if n
            else np.array([], np.int64)
        )
        sizes = np.diff(np.append(starts, n))
        ia_l: list[np.ndarray] = []
        ib_l: list[np.ndarray] = []
        for m in np.unique(sizes[sizes > 1]):
            segs = starts[sizes == m]
            ti, tj = np.triu_indices(int(m), 1)
            ia_l.append((segs[:, None] + ti[None, :]).ravel())
            ib_l.append((segs[:, None] + tj[None, :]).ravel())
        if not ia_l:
            return pa.table({"packed": pa.array([], pa.int64())})
        ia = np.concatenate(ia_l)
        ib = np.concatenate(ib_l)
        ok = within_edit1(M, lens, order[ia], order[ib])
        a, b_ = pk_s[ia[ok]], pk_s[ib[ok]]
        ok2 = a != b_  # same partkey can share a bucket via two variants
        lo = np.minimum(a[ok2], b_[ok2])
        hi = np.maximum(a[ok2], b_[ok2])
        packed = np.unique((lo << np.int64(31)) | hi)
        return pa.table({"packed": pa.array(packed, pa.int64())})

    pairs = (
        part.map_batches(expand, batch_format="pyarrow")
        .groupby("part")
        .map_groups(bucket_verify, batch_format="pyarrow")
    )

    def repart(b: pa.Table) -> pa.Table:
        return b.append_column("part", _part_of(b.column("packed"), n_parts))

    def unpack(g: pa.Table) -> pa.Table:
        packed = np.unique(g.column("packed").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "part_a": pa.array(packed >> 31, pa.int64()),
                "part_b": pa.array(packed & ((1 << 31) - 1), pa.int64()),
            }
        )

    out = (
        pairs.map_batches(repart, batch_format="pyarrow")
        .groupby("part")
        .map_groups(unpack, batch_format="pyarrow")
    )
    return out.sort(["part_a", "part_b"])


FUZZY_NAME_PAIRS_SQL = """
SELECT a.p_partkey AS part_a, b.p_partkey AS part_b
FROM part a JOIN part b
  ON a.p_brand = b.p_brand AND a.p_partkey < b.p_partkey
WHERE levenshtein(a.p_name, b.p_name) <= 1
ORDER BY part_a, part_b
"""
