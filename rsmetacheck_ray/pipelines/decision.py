"""Decision-support batch (round 3): the multi-way join / correlated
subquery / per-group-ordering shapes the earlier relational batches
lacked — TPC-H Q5's five-table star join, decorrelated correlated
aggregates, per-group top-k, FIRST/LAST_VALUE frames, PERCENT_RANK /
CUME_DIST, robust (MAD) outlier stats, and per-group least-squares
regression.

Scale discipline (same as relational.py / analytics.py):

- heavy tables never broadcast — each big⋈big edge is ONE shuffle of
  per-batch-pruned rows onto a size-adaptive hashed key partition;
- bounded dimensions (region/nation ~25 rows, supplier = the smallest
  SF-scaling table at 10k rows/SF) travel once as a ``ray.put``
  handle, and the supplier broadcast is size-gated with the
  documented hashed-join fallback;
- aggregates are exact integer moments (value → cents fixed point)
  so every float the operator emits is expression-identical to its
  oracle's, and hashes bit-exact;
- per-group ordering ops prune inside ``map_batches`` first (top-k:
  ≤k rows per key per batch; first/last: ≤2 rows per key per batch)
  so the shuffle moves candidates, not the table.

The reference has no analog of any of these (its only relational
machinery is a single-process JSON walk, ``src/cli.py`` +
``utils/pitfall_utils.py``); the shapes come from SURVEY §2.6-2.8's
aggregation/join/ordering axis.
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
    bounded_group_reduce,
    bounded_group_table_strict,
    parquet_rows_hint,
    read_pq,
)
from .relational import _cents

# ---------------------------------------------------------------------------
# TPC-H Q5 shape: five-table star join, revenue per nation inside one
# region where the customer's and the line's supplier's nation agree.
# ---------------------------------------------------------------------------

# supplier is broadcast as two sorted int64 arrays (suppkey →
# nationkey). At 16 B/row the handle is 160 KB/SF-1 and ~160 MB at the
# 10⁷-supplier extreme — past _SUPPLIER_BROADCAST_MAX rows the plan
# falls back to _li_supplier_copart: ONE extra tagged-union
# suppkey shuffle joining lineitem⋈supplier distributively (the
# shipping_priority pattern), never a driver pull.
_SUPPLIER_BROADCAST_MAX = 50_000_000

# Q5's customer (custkey → nationkey) projection broadcast gate —
# 16 B/row, ≈32 MB at the bound; past it
# stage A's tagged-union custkey shuffle joins the side distributively
_Q5_CUST_BROADCAST_MAX = 2_000_000


def _supplier_rows_hint(sf_dir: str) -> int:
    """Supplier row count from parquet footer metadata only — the
    broadcast-vs-co-partition gate must not read the table to decide."""
    import pyarrow.parquet as pq

    return pq.ParquetFile(
        os.path.join(sf_dir, "supplier.parquet")
    ).metadata.num_rows


def _li_supplier_copart(
    li_rows: rd.Dataset,
    sf_dir: str,
    payload: list[str],
    n_parts: int,
) -> rd.Dataset:
    """Co-partitioned lineitem⋈supplier on suppkey — the
    past-the-broadcast-gate plan for the Q5/Q7 family. ``li_rows``
    batches carry ``skey`` (l_suppkey, int64) plus int64 ``payload``
    columns (already per-batch pre-combined by the caller); supplier
    ships as (key → nationkey) 16 B rows. ONE tagged-union all-to-all
    on hash(suppkey); the partition merge sorts its supplier slice
    (suppkey is a PK) and searchsorted-probes the line rows. Returns
    (snat, *payload) inner-join hits."""
    # internal tagged-union columns use a "_c" prefix so payload
    # names ("key", "okey", …) can never collide with them
    assert not any(c.startswith("_c") for c in payload), payload
    sup = read_pq(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    )

    def tag_sup(b: pa.Table) -> pa.Table:
        n = len(b)
        z = pa.array(np.zeros(n, np.int64), pa.int64())
        cols = {
            "_cpart": _part_of(b.column("s_suppkey"), n_parts),
            "_ckey": pc.cast(b.column("s_suppkey"), pa.int64()),
            "_ctag": pa.array(np.zeros(n, np.int8)),
            "_cnat": pc.cast(b.column("s_nationkey"), pa.int64()),
        }
        for c in payload:
            cols[c] = z
        return pa.table(cols)

    def tag_line(b: pa.Table) -> pa.Table:
        n = len(b)
        cols = {
            "_cpart": _part_of(b.column("skey"), n_parts),
            "_ckey": pc.cast(b.column("skey"), pa.int64()),
            "_ctag": pa.array(np.ones(n, np.int8)),
            "_cnat": pa.array(np.zeros(n, np.int64), pa.int64()),
        }
        for c in payload:
            cols[c] = pc.cast(b.column(c), pa.int64())
        return pa.table(cols)

    both = sup.map_batches(tag_sup, batch_format="pyarrow").union(
        li_rows.map_batches(tag_line, batch_format="pyarrow")
    )
    empty = pa.table(
        {
            "snat": pa.array([], pa.int64()),
            **{c: pa.array([], pa.int64()) for c in payload},
        }
    )

    def merge(g: pa.Table) -> pa.Table:
        tag = g.column("_ctag").to_numpy(zero_copy_only=False)
        key = g.column("_ckey").to_numpy(zero_copy_only=False)
        ssel = tag == 0
        sk = key[ssel]
        sn = g.column("_cnat").to_numpy(zero_copy_only=False)[ssel]
        lsel = ~ssel
        lk = key[lsel]
        if not len(sk) or not len(lk):
            return empty
        order = np.argsort(sk, kind="stable")  # suppkey is a PK: unique
        sk, sn = sk[order], sn[order]
        pos = np.minimum(np.searchsorted(sk, lk), len(sk) - 1)
        hit = sk[pos] == lk
        cols = {"snat": pa.array(sn[pos][hit], pa.int64())}
        for c in payload:
            cols[c] = pa.array(
                g.column(c).to_numpy(zero_copy_only=False)[lsel][hit],
                pa.int64(),
            )
        return pa.table(cols)

    return both.groupby("_cpart").map_groups(merge, batch_format="pyarrow")


def local_supplier_volume(
    sf_dir: str,
    region: str = "ASIA",
    date_lo: str = "1996-01-01",
    date_hi: str = "1997-01-01",
    num_partitions: int | None = None,
) -> rd.Dataset:
    """(n_name, rev_cents): lineitem revenue per nation of ``region``,
    restricted to orders in the date window AND to lines whose
    supplier sits in the customer's own nation (TPC-H Q5).

    Plan: region⋈nation fold to a nationkey set on the driver (≤25
    rows); supplier folds to a broadcast suppkey→nationkey map
    (size-gated); then TWO hashed-partition shuffles — stage A joins
    orders⋉customer on custkey (customer rows are (key, nationkey)
    pairs, orders pre-filtered by date at the parquet scan), stage B
    joins per-batch (orderkey, supplier-nation) revenue PARTIALS from
    lineitem against stage A's (orderkey, customer-nation) rows and
    keeps the agreeing pairs. The final nation rollup is ≤25 rows per
    partition, merged on the driver."""
    import pyarrow.parquet as pq

    reg = pq.read_table(
        os.path.join(sf_dir, "region.parquet"), columns=["r_regionkey", "r_name"]
    )
    rkeys = {
        r["r_regionkey"] for r in reg.to_pylist() if r["r_name"] == region
    }
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name", "n_regionkey"],
    ).to_pylist()
    nat_keys = sorted(n["n_nationkey"] for n in nat if n["n_regionkey"] in rkeys)
    nat_name = {n["n_nationkey"]: n["n_name"] for n in nat}
    nat_arr = np.asarray(nat_keys, np.int64)

    use_sup_bcast = (
        _supplier_rows_hint(sf_dir) <= _SUPPLIER_BROADCAST_MAX
    )
    if use_sup_bcast:
        sup = pq.read_table(
            os.path.join(sf_dir, "supplier.parquet"),
            columns=["s_suppkey", "s_nationkey"],
        )
        sk = sup.column("s_suppkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        sn = sup.column("s_nationkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        order = np.argsort(sk, kind="stable")
        sk, sn = sk[order], sn[order]
        # restrict to the region up front: out-of-region suppliers → -1
        sn = np.where(np.isin(sn, nat_arr), sn, -1)
        sup_ref = ray.put((sk, sn))
    else:
        sup_ref = None

    lo = np.datetime64(date_lo, "us")
    hi = np.datetime64(date_hi, "us")
    orders = read_pq(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"],
        filter=(
            (pc.field("o_orderdate") >= pa.scalar(lo.item()))
            & (pc.field("o_orderdate") < pa.scalar(hi.item()))
        ),
    )
    cust = read_pq(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"],
        filter=pc.field("c_nationkey").isin(pa.array(nat_keys, pa.int32())),
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(orders), row_bytes=24
    )

    # size gate: while the (custkey →
    # nationkey) projection is bounded, the region customers broadcast
    # as a sorted pair and stage A's shuffle disappears — orders map
    # straight to (okey, cnat) rows; past the gate the tagged-union
    # custkey shuffle below handles the at-scale-unbounded side.
    cust_hint = parquet_rows_hint(cust)
    use_cust_bcast = (
        cust_hint is not None and cust_hint <= _Q5_CUST_BROADCAST_MAX
    )
    if use_cust_bcast:
        ct = pq.read_table(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_nationkey"],
        )
        bk = ct.column("c_custkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        bn = ct.column("c_nationkey").to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        keep = np.isin(bn, nat_arr)
        bk, bn = bk[keep], bn[keep]
        o = np.argsort(bk, kind="stable")
        cust_ref = ray.put((bk[o], bn[o]))

        def orders_mapped(b: pa.Table) -> pa.Table:
            ck2, cn2 = ray.get(cust_ref)
            oc = b.column("o_custkey").to_numpy(zero_copy_only=False)
            okey = b.column("o_orderkey").to_numpy(zero_copy_only=False)
            if not len(ck2):
                hit = np.zeros(len(oc), bool)
                cn_hit = np.empty(0, np.int64)
            else:
                pos = np.minimum(np.searchsorted(ck2, oc), len(ck2) - 1)
                hit = ck2[pos] == oc
                cn_hit = cn2[pos][hit]
            ok_hit = okey[hit]
            ka = pa.array(ok_hit, pa.int64())
            return pa.table(
                {
                    "part": _part_of(ka, n_parts),
                    "okey": ka,
                    "tag": pa.array(np.ones(len(ok_hit), np.int8)),
                    "nat": pa.array(cn_hit, pa.int64()),
                    "rev": pa.array(
                        np.zeros(len(ok_hit), np.int64), pa.int64()
                    ),
                }
            )

    # -- stage A: orders ⋉ region customers on custkey → (okey, cnat)
    def tag_cust(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part": _part_of(b.column("c_custkey"), n_parts),
                "key": b.column("c_custkey"),
                "tag": pa.array(np.zeros(len(b), np.int8)),
                "val": pc.cast(b.column("c_nationkey"), pa.int64()),
            }
        )

    def tag_orders(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part": _part_of(b.column("o_custkey"), n_parts),
                "key": b.column("o_custkey"),
                "tag": pa.array(np.ones(len(b), np.int8)),
                "val": b.column("o_orderkey"),
            }
        )

    stage_a = cust.map_batches(tag_cust, batch_format="pyarrow").union(
        orders.map_batches(tag_orders, batch_format="pyarrow")
    )

    def merge_a(g: pa.Table) -> pa.Table:
        tag = g.column("tag").to_numpy(zero_copy_only=False)
        key = g.column("key").to_numpy(zero_copy_only=False)
        val = g.column("val").to_numpy(zero_copy_only=False)
        csel = tag == 0
        ck, cn = key[csel], val[csel]
        o = np.argsort(ck, kind="stable")  # custkey is a PK: unique
        ck, cn = ck[o], cn[o]
        osel = ~csel
        okk, okey = key[osel], val[osel]
        if not len(ck):
            return pa.table(
                {"okey": pa.array([], pa.int64()), "cnat": pa.array([], pa.int64())}
            )
        pos = np.searchsorted(ck, okk)
        pos_c = np.minimum(pos, len(ck) - 1)
        hit = ck[pos_c] == okk
        return pa.table(
            {
                "okey": pa.array(okey[hit], pa.int64()),
                "cnat": pa.array(cn[pos_c][hit], pa.int64()),
            }
        )

    open_orders = stage_a.groupby("part").map_groups(
        merge_a, batch_format="pyarrow"
    )

    # -- stage B: lineitem (okey, snat) revenue partials ⋈ stage A ---
    def li_partial(b: pa.Table) -> pa.Table:
        skk, snn = ray.get(sup_ref)
        lsk = b.column("l_suppkey").to_numpy(zero_copy_only=False)
        if not len(skk):  # empty supplier table: no line can qualify
            return pa.table(
                {
                    "part": pa.array([], pa.int64()),
                    "okey": pa.array([], pa.int64()),
                    "tag": pa.array([], pa.int8()),
                    "nat": pa.array([], pa.int64()),
                    "rev": pa.array([], pa.int64()),
                }
            )
        pos = np.searchsorted(skk, lsk)
        pos_c = np.minimum(pos, len(skk) - 1)
        snat = np.where(skk[pos_c] == lsk, snn[pos_c], -1)
        keep = snat >= 0
        disc = pc.multiply(
            b.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), b.column("l_discount")),
        )
        rev = _cents(disc).to_numpy(zero_copy_only=False)[keep]
        t = pa.table(
            {
                "okey": pa.array(
                    b.column("l_orderkey").to_numpy(zero_copy_only=False)[keep],
                    pa.int64(),
                ),
                "snat": pa.array(snat[keep], pa.int64()),
                "rev": pa.array(rev, pa.int64()),
            }
        )
        g = t.group_by(["okey", "snat"]).aggregate([("rev", "sum")])
        g = g.rename_columns(["okey", "snat", "rev"])
        return pa.table(
            {
                "part": _part_of(g.column("okey"), n_parts),
                "okey": g.column("okey"),
                "tag": pa.array(np.zeros(g.num_rows, np.int8)),
                "nat": g.column("snat"),
                "rev": g.column("rev"),
            }
        )

    def tag_open(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part": _part_of(b.column("okey"), n_parts),
                "okey": b.column("okey"),
                "tag": pa.array(np.ones(len(b), np.int8)),
                "nat": b.column("cnat"),
                "rev": pa.array(np.zeros(len(b), np.int64), pa.int64()),
            }
        )

    if use_cust_bcast:
        open_tagged = orders.map_batches(
            orders_mapped, batch_format="pyarrow"
        )
    else:
        open_tagged = open_orders.map_batches(
            tag_open, batch_format="pyarrow"
        )
    if use_sup_bcast:
        li_stream = _li_read(sf_dir).map_batches(
            li_partial, batch_format="pyarrow"
        )
    else:
        # past the supplier broadcast gate: resolve l_suppkey →
        # s_nationkey via the co-partitioned suppkey shuffle (per-batch
        # pre-combined (skey, okey) → rev partials move, not lines),
        # then restrict to the region and retag for stage B.
        def li_proj(b: pa.Table) -> pa.Table:
            rev = _cents(
                pc.multiply(
                    b.column("l_extendedprice"),
                    pc.subtract(pa.scalar(1.0), b.column("l_discount")),
                )
            )
            t = pa.table(
                {
                    "skey": pc.cast(b.column("l_suppkey"), pa.int64()),
                    "okey": pc.cast(b.column("l_orderkey"), pa.int64()),
                    "rev": rev,
                }
            )
            g = t.group_by(["skey", "okey"]).aggregate([("rev", "sum")])
            return g.rename_columns(["skey", "okey", "rev"])

        resolved = _li_supplier_copart(
            _li_read(sf_dir).map_batches(li_proj, batch_format="pyarrow"),
            sf_dir,
            ["okey", "rev"],
            n_parts,
        )

        def retag(b: pa.Table) -> pa.Table:
            snat = b.column("snat").to_numpy(zero_copy_only=False)
            keep = np.isin(snat, nat_arr)
            ka = pa.array(
                b.column("okey").to_numpy(zero_copy_only=False)[keep],
                pa.int64(),
            )
            return pa.table(
                {
                    "part": _part_of(ka, n_parts),
                    "okey": ka,
                    "tag": pa.array(np.zeros(len(ka), np.int8)),
                    "nat": pa.array(snat[keep], pa.int64()),
                    "rev": pa.array(
                        b.column("rev").to_numpy(zero_copy_only=False)[keep],
                        pa.int64(),
                    ),
                }
            )

        li_stream = resolved.map_batches(retag, batch_format="pyarrow")

    stage_b = open_tagged.union(li_stream)

    def merge_b(g: pa.Table) -> pa.Table:
        tag = g.column("tag").to_numpy(zero_copy_only=False)
        okey = g.column("okey").to_numpy(zero_copy_only=False)
        nat = g.column("nat").to_numpy(zero_copy_only=False)
        rev = g.column("rev").to_numpy(zero_copy_only=False)
        osel = tag == 1
        ok, on = okey[osel], nat[osel]
        o = np.argsort(ok, kind="stable")  # orderkey is a PK: unique
        ok, on = ok[o], on[o]
        lsel = ~osel
        lk, ln, lr = okey[lsel], nat[lsel], rev[lsel]
        if not len(ok) or not len(lk):
            return pa.table(
                {"nationkey": pa.array([], pa.int64()), "rev_cents": pa.array([], pa.int64())}
            )
        pos = np.searchsorted(ok, lk)
        pos_c = np.minimum(pos, len(ok) - 1)
        hit = (ok[pos_c] == lk) & (on[pos_c] == ln)
        if not hit.any():
            return pa.table(
                {"nationkey": pa.array([], pa.int64()), "rev_cents": pa.array([], pa.int64())}
            )
        t = pa.table(
            {"nationkey": pa.array(ln[hit], pa.int64()), "rev": pa.array(lr[hit], pa.int64())}
        )
        g2 = t.group_by("nationkey").aggregate([("rev", "sum")])
        return g2.rename_columns(["nationkey", "rev_cents"])

    per_part = stage_b.groupby("part").map_groups(merge_b, batch_format="pyarrow")
    agg = bounded_group_reduce(per_part, ["nationkey"], [("rev_cents", "sum")])

    names = [""] * ((max(nat_name) + 1) if nat_name else 0)
    for k, v in nat_name.items():
        names[k] = v
    name_arr = pa.array(names, pa.string())

    def finish(b: pa.Table) -> pa.Table:
        nk = b.column("nationkey").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_name": name_arr.take(pa.array(nk, pa.int64())),
                "rev_cents": b.column("rev_cents"),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow").sort(
        "rev_cents", descending=True
    )


def _li_read(sf_dir: str) -> rd.Dataset:
    return read_pq(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )


LOCAL_SUPPLIER_VOLUME_SQL = """
SELECT n.n_name,
  CAST(SUM(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5)
                AS BIGINT)) AS BIGINT) AS rev_cents
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation n ON s.s_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
WHERE c.c_nationkey = s.s_nationkey
  AND r.r_name = 'ASIA'
  AND o.o_orderdate >= TIMESTAMP '1996-01-01'
  AND o.o_orderdate < TIMESTAMP '1997-01-01'
GROUP BY n.n_name
ORDER BY rev_cents DESC
"""


# ---------------------------------------------------------------------------
# correlated subquery, decorrelated: orders strictly above their own
# customer's average order value. The classic decorrelation — compute
# the per-key aggregate, join it back, filter — done in ONE shuffle:
# per-batch (custkey → sum, count) partials and the raw rows ride the
# same hashed custkey partition; the merge folds the partials and
# filters its rows with the integer-exact cross-multiplied
# comparison (cents · n > Σcents), so no float division ever happens.
# ---------------------------------------------------------------------------


def orders_above_customer_avg(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(o_orderkey, o_custkey, cents, n_orders, sum_cents): orders
    whose value exceeds their customer's average order value."""
    orders = read_pq(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(orders), row_bytes=32
    )

    def tag(b: pa.Table) -> pa.Table:
        cents = _cents(b.column("o_totalprice"))
        rows = pa.table(
            {
                "part": _part_of(b.column("o_custkey"), n_parts),
                "key": b.column("o_custkey"),
                "tag": pa.array(np.zeros(len(b), np.int8)),
                "okey": b.column("o_orderkey"),
                "cents": cents,
                "cnt": pa.array(np.ones(len(b), np.int64), pa.int64()),
            }
        )
        part = pa.table({"key": b.column("o_custkey"), "cents": cents})
        g = part.group_by("key").aggregate([("cents", "sum"), ([], "count_all")])
        g = g.rename_columns(["key", "cents", "cnt"])
        partials = pa.table(
            {
                "part": _part_of(g.column("key"), n_parts),
                "key": g.column("key"),
                "tag": pa.array(np.ones(g.num_rows, np.int8)),
                "okey": pa.array(np.zeros(g.num_rows, np.int64), pa.int64()),
                "cents": g.column("cents"),
                "cnt": g.column("cnt"),
            }
        )
        return pa.concat_tables([rows, partials])

    def merge(g: pa.Table) -> pa.Table:
        tag = g.column("tag").to_numpy(zero_copy_only=False)
        key = g.column("key").to_numpy(zero_copy_only=False)
        cents = g.column("cents").to_numpy(zero_copy_only=False)
        cnt = g.column("cnt").to_numpy(zero_copy_only=False)
        psel = tag == 1
        uk, inv = np.unique(key[psel], return_inverse=True)
        sums = np.zeros(len(uk), np.int64)
        cnts = np.zeros(len(uk), np.int64)
        np.add.at(sums, inv, cents[psel])
        np.add.at(cnts, inv, cnt[psel])
        rsel = ~psel
        rk = key[rsel]
        rc = cents[rsel]
        ro = g.column("okey").to_numpy(zero_copy_only=False)[rsel]
        pos = np.searchsorted(uk, rk)  # every row's key has a partial
        n = cnts[pos]
        s = sums[pos]
        keep = rc * n > s
        return pa.table(
            {
                "o_orderkey": pa.array(ro[keep], pa.int64()),
                "o_custkey": pa.array(rk[keep], pa.int64()),
                "cents": pa.array(rc[keep], pa.int64()),
                "n_orders": pa.array(n[keep], pa.int64()),
                "sum_cents": pa.array(s[keep], pa.int64()),
            }
        )

    return (
        orders.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(merge, batch_format="pyarrow")
    )


ORDERS_ABOVE_AVG_SQL = """
WITH c AS (
  SELECT o_orderkey, o_custkey,
         CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
  FROM orders
),
s AS (
  SELECT o_custkey AS k, CAST(SUM(cents) AS BIGINT) AS sum_cents,
         COUNT(*) AS n_orders
  FROM c GROUP BY o_custkey
)
SELECT c.o_orderkey, c.o_custkey, c.cents, s.n_orders, s.sum_cents
FROM c JOIN s ON c.o_custkey = s.k
WHERE c.cents * s.n_orders > s.sum_cents
"""


# ---------------------------------------------------------------------------
# per-group top-k: each customer's k most valuable orders. Batches
# prune to ≤k candidates per key FIRST (a lexsort + segment-rank per
# batch), so the shuffle ships at most k·keys-per-batch rows; the
# partition merge repeats the same segment-rank over the candidates.
# ---------------------------------------------------------------------------


def _seg_rank(keys: np.ndarray) -> np.ndarray:
    """rank of each row within its run of equal ``keys`` (sorted)."""
    n = len(keys)
    if not n:
        return np.zeros(0, np.int64)
    starts = np.nonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))[0]
    seg_of = np.cumsum(np.concatenate([[False], keys[1:] != keys[:-1]]))
    return np.arange(n, dtype=np.int64) - starts[seg_of]


def top_orders_per_customer(
    sf_dir: str, k: int = 3, num_partitions: int | None = None
) -> rd.Dataset:
    """(o_custkey, o_orderkey, cents, rk): each customer's top-``k``
    orders by value, ties broken by orderkey ascending."""
    orders = read_pq(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(orders), row_bytes=24
    )

    def prune(b: pa.Table) -> pa.Table:
        ck = b.column("o_custkey").to_numpy(zero_copy_only=False)
        ok = b.column("o_orderkey").to_numpy(zero_copy_only=False)
        cents = _cents(b.column("o_totalprice")).to_numpy(zero_copy_only=False)
        order = np.lexsort((ok, -cents, ck))
        ck, ok, cents = ck[order], ok[order], cents[order]
        keep = _seg_rank(ck) < k
        return pa.table(
            {
                "part": _part_of(pa.array(ck[keep], pa.int64()), n_parts),
                "ck": pa.array(ck[keep], pa.int64()),
                "ok": pa.array(ok[keep], pa.int64()),
                "cents": pa.array(cents[keep], pa.int64()),
            }
        )

    def merge(g: pa.Table) -> pa.Table:
        ck = g.column("ck").to_numpy(zero_copy_only=False)
        ok = g.column("ok").to_numpy(zero_copy_only=False)
        cents = g.column("cents").to_numpy(zero_copy_only=False)
        order = np.lexsort((ok, -cents, ck))
        ck, ok, cents = ck[order], ok[order], cents[order]
        rk = _seg_rank(ck)
        keep = rk < k
        return pa.table(
            {
                "o_custkey": pa.array(ck[keep], pa.int64()),
                "o_orderkey": pa.array(ok[keep], pa.int64()),
                "cents": pa.array(cents[keep], pa.int64()),
                "rk": pa.array(rk[keep] + 1, pa.int64()),
            }
        )

    return (
        orders.map_batches(prune, batch_format="pyarrow")
        .groupby("part")
        .map_groups(merge, batch_format="pyarrow")
    )


TOP_ORDERS_PER_CUSTOMER_SQL = """
WITH c AS (
  SELECT o_custkey, o_orderkey,
         CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
  FROM orders
)
SELECT o_custkey, o_orderkey, cents,
       CAST(ROW_NUMBER() OVER (PARTITION BY o_custkey
                               ORDER BY cents DESC, o_orderkey)
            AS BIGINT) AS rk
FROM c
QUALIFY rk <= 3
"""


# ---------------------------------------------------------------------------
# FIRST_VALUE / LAST_VALUE frame: each user's first and last event.
# Batches prune to ≤2 candidate rows per key plus one count partial,
# the merge resolves global first/last per key by (ts, event_id).
# ---------------------------------------------------------------------------


def events_first_last(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(user_id, n_events, first_ts, first_type, last_ts, last_type)."""
    ev = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ev), row_bytes=48
    )

    def prune(b: pa.Table) -> pa.Table:
        uid = b.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(b.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        eid = b.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid_s, ts_s, eid_s = uid[order], ts[order], eid[order]
        n = len(uid_s)
        is_first = np.concatenate([[True], uid_s[1:] != uid_s[:-1]]) if n else np.zeros(0, bool)
        is_last = np.concatenate([uid_s[1:] != uid_s[:-1], [True]]) if n else np.zeros(0, bool)
        keep = is_first | is_last
        idx = order[keep]
        cand = pa.table(
            {
                "part": _part_of(pa.array(uid[idx], pa.int64()), n_parts),
                "uid": pa.array(uid[idx], pa.int64()),
                "tag": pa.array(np.zeros(keep.sum(), np.int8)),
                "ts": pa.array(ts[idx], pa.int64()),
                "eid": pa.array(eid[idx], pa.int64()),
                "etype": b.column("event_type").take(pa.array(idx, pa.int64())),
                "cnt": pa.array(np.zeros(keep.sum(), np.int64), pa.int64()),
            }
        )
        uk, counts = np.unique(uid, return_counts=True)
        partial = pa.table(
            {
                "part": _part_of(pa.array(uk, pa.int64()), n_parts),
                "uid": pa.array(uk, pa.int64()),
                "tag": pa.array(np.ones(len(uk), np.int8)),
                "ts": pa.array(np.zeros(len(uk), np.int64), pa.int64()),
                "eid": pa.array(np.zeros(len(uk), np.int64), pa.int64()),
                "etype": pa.array([""] * len(uk), pa.string()),
                "cnt": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )
        return pa.concat_tables([cand, partial])

    def merge(g: pa.Table) -> pa.Table:
        tag = g.column("tag").to_numpy(zero_copy_only=False)
        uid = g.column("uid").to_numpy(zero_copy_only=False)
        cnt = g.column("cnt").to_numpy(zero_copy_only=False)
        psel = tag == 1
        uk, inv = np.unique(uid[psel], return_inverse=True)
        counts = np.zeros(len(uk), np.int64)
        np.add.at(counts, inv, cnt[psel])
        csel = ~psel
        cuid = uid[csel]
        cts = g.column("ts").to_numpy(zero_copy_only=False)[csel]
        ceid = g.column("eid").to_numpy(zero_copy_only=False)[csel]
        ctype = g.column("etype").filter(pa.array(csel))
        order = np.lexsort((ceid, cts, cuid))
        cuid_s, cts_s, ceid_s = cuid[order], cts[order], ceid[order]
        n = len(cuid_s)
        is_first = np.concatenate([[True], cuid_s[1:] != cuid_s[:-1]]) if n else np.zeros(0, bool)
        is_last = np.concatenate([cuid_s[1:] != cuid_s[:-1], [True]]) if n else np.zeros(0, bool)
        fi = order[is_first]
        li = order[is_last]
        if len(fi) != len(uk):  # every user has both a candidate and a partial
            raise AssertionError("first/last candidates out of sync with counts")
        # candidate first rows are sorted by uid == uk's order
        return pa.table(
            {
                "user_id": pa.array(cuid_s[is_first], pa.int64()),
                "n_events": pa.array(counts, pa.int64()),
                "first_ts": pa.array(cts[fi], pa.timestamp("us")),
                "first_type": ctype.take(pa.array(fi, pa.int64())),
                "last_ts": pa.array(cts[li], pa.timestamp("us")),
                "last_type": ctype.take(pa.array(li, pa.int64())),
            }
        )

    return (
        ev.map_batches(prune, batch_format="pyarrow")
        .groupby("part")
        .map_groups(merge, batch_format="pyarrow")
    )


EVENTS_FIRST_LAST_SQL = """
WITH w AS (
  SELECT user_id, ts, event_id, event_type,
    ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS ra,
    ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rd
  FROM events
)
SELECT user_id,
  CAST(COUNT(*) AS BIGINT) AS n_events,
  MAX(CASE WHEN ra = 1 THEN ts END) AS first_ts,
  MAX(CASE WHEN ra = 1 THEN event_type END) AS first_type,
  MAX(CASE WHEN rd = 1 THEN ts END) AS last_ts,
  MAX(CASE WHEN rd = 1 THEN event_type END) AS last_type
FROM w GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# PERCENT_RANK / CUME_DIST, shuffle-free: the events value domain is
# bounded (cents), so the full per-type value histogram fits on the
# driver (the events_value_ranks plan, relational.py:1573); both
# window functions are then pure ratios of exact integer counts
# attached to each row by a broadcast searchsorted lookup.
# ---------------------------------------------------------------------------


def events_percent_rank(sf_dir: str) -> rd.Dataset:
    """(event_id, event_type, cents, pr, cd): PERCENT_RANK and
    CUME_DIST of each event's value within its type, ascending."""
    from .analytics import _events_cents_hist

    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "event_type", "value"],
    )
    hist_tbl = _events_cents_hist(sf_dir)
    # fully vectorized segment math (see relational._hist_rank_arrays:
    # a Python loop over the types × distinct-cents histogram dominated
    # the rank-family query wall time before vectorization)
    from .relational import _hist_segments

    if hist_tbl is not None and hist_tbl.num_rows:
        tcode, codes_s, cents_s, ns_s, starts, seg = _hist_segments(
            hist_tbl, descending=False
        )
        csum = np.cumsum(ns_s)
        excl = csum - ns_s
        base = excl[starts][seg]
        below_a = excl - base          # rows strictly below → rank-1
        cume_a = csum - base           # rows ≤ value → cume count
        tot_a = np.add.reduceat(ns_s, starts)[seg]
        keys = (codes_s << 40) | (cents_s + (1 << 39))
        order = np.argsort(keys)
        ref = ray.put(
            (tcode, keys[order], below_a[order], cume_a[order], tot_a[order])
        )
    else:
        z = np.zeros(0, np.int64)
        ref = ray.put(({}, z, z, z, z))

    def attach(batch: pa.Table) -> pa.Table:
        tc, k, blw, cm, tt = ray.get(ref)
        cents = _cents(batch.column("value")).to_numpy(zero_copy_only=False)
        enc = batch.column("event_type").combine_chunks().dictionary_encode()
        code_of = np.array(
            [tc[t] for t in enc.dictionary.to_pylist()], np.int64
        )
        codes = code_of[enc.indices.to_numpy(zero_copy_only=False)]
        key = (codes << 40) | (cents + (1 << 39))
        pos = np.searchsorted(k, key)
        n = tt[pos].astype(np.float64)
        # expression-identical to the oracle: (rank-1)/(n-1), cume/n
        denom = np.maximum(n - 1.0, 1.0)  # n==1 ⇒ pr = 0 by definition
        pr = blw[pos].astype(np.float64) / denom
        cd = cm[pos].astype(np.float64) / n
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
                "cents": pa.array(cents, pa.int64()),
                "pr": pa.array(pr, pa.float64()),
                "cd": pa.array(cd, pa.float64()),
            }
        )

    return ds.map_batches(attach, batch_format="pyarrow")


EVENTS_PERCENT_RANK_SQL = """
WITH c AS (
  SELECT event_id, event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
)
SELECT event_id, event_type, cents,
  PERCENT_RANK() OVER (PARTITION BY event_type ORDER BY cents) AS pr,
  CUME_DIST() OVER (PARTITION BY event_type ORDER BY cents) AS cd
FROM c
"""


# ---------------------------------------------------------------------------
# robust (median / MAD) outlier stats per type — both medians fall out
# of the SAME bounded value histogram with no second data pass: the
# deviation histogram is a driver-side rewrite of the value histogram.
# All interpolated medians are kept in doubled integer units (half-
# cents / quarter-cents) so the 3×MAD outlier test is integer-exact.
# ---------------------------------------------------------------------------


def _hist_median2(vals: np.ndarray, counts: np.ndarray) -> int:
    """2× the interpolated median of a sorted value histogram (exact
    integer in doubled units)."""
    total = int(counts.sum())
    cum = np.cumsum(counts)
    if total % 2:
        mid = total // 2  # 0-based
        return 2 * int(vals[np.searchsorted(cum, mid + 1)])
    lo = int(vals[np.searchsorted(cum, total // 2)])
    hi = int(vals[np.searchsorted(cum, total // 2 + 1)])
    return lo + hi


def events_mad_outliers(sf_dir: str) -> rd.Dataset:
    """(event_type, n, median_cents, mad_cents, n_outliers): per-type
    interpolated median, median-absolute-deviation, and the count of
    events with |value − median| > 3·MAD."""
    from .analytics import _events_cents_hist

    hist_tbl = _events_cents_hist(sf_dir)
    # vectorized grouping: sort once by (type, cents); the per-type
    # loop below runs once per TYPE (bounded), with numpy slices
    if hist_tbl is not None and hist_tbl.num_rows:
        from .relational import _hist_segments

        tcode, codes_s, cents_s, ns_s, starts, _seg = _hist_segments(
            hist_tbl, descending=False
        )
        code_name = {c: t for t, c in tcode.items()}
        bounds = np.append(starts, len(codes_s))
    else:
        code_name, bounds = {}, np.array([0])
        codes_s = cents_s = ns_s = np.zeros(0, np.int64)
    out_type, out_n, out_med, out_mad, out_k = [], [], [], [], []
    for si in range(len(bounds) - 1):
        s, e = bounds[si], bounds[si + 1]
        etype = code_name[int(codes_s[s])]
        vals = cents_s[s:e]
        counts = ns_s[s:e]
        total = int(counts.sum())
        med2 = _hist_median2(vals, counts)  # half-cent units
        # deviation histogram (2×|cents − median| = |2·cents − med2|)
        dev2 = np.abs(2 * vals - med2)
        od = np.argsort(dev2, kind="stable")
        dev2_s, dcnt_s = dev2[od], counts[od]
        # collapse equal deviations (two cents values can tie)
        uq, start = np.unique(dev2_s, return_index=True)
        dsum = np.add.reduceat(dcnt_s, start)
        mad4 = _hist_median2(uq, dsum)  # quarter-cent units
        n_out = int(counts[2 * dev2 > 3 * mad4].sum())
        out_type.append(etype)
        out_n.append(total)
        out_med.append(med2 * 0.5)
        out_mad.append(mad4 * 0.25)
        out_k.append(n_out)
    tbl = pa.table(
        {
            "event_type": pa.array(out_type, pa.string()),
            "n": pa.array(out_n, pa.int64()),
            "median_cents": pa.array(out_med, pa.float64()),
            "mad_cents": pa.array(out_mad, pa.float64()),
            "n_outliers": pa.array(out_k, pa.int64()),
        }
    )
    return rd.from_arrow(tbl)


EVENTS_MAD_SQL = """
WITH c AS (
  SELECT event_type, CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
),
m AS (
  SELECT event_type, median(cents) AS med
  FROM c GROUP BY event_type
),
d AS (
  SELECT c.event_type, abs(c.cents - m.med) AS dev
  FROM c JOIN m USING (event_type)
),
s AS (
  SELECT event_type, median(dev) AS mad
  FROM d GROUP BY event_type
)
SELECT d.event_type,
  CAST(COUNT(*) AS BIGINT) AS n,
  MAX(m.med) AS median_cents,
  MAX(s.mad) AS mad_cents,
  CAST(SUM(CASE WHEN d.dev > 3 * s.mad THEN 1 ELSE 0 END) AS BIGINT)
    AS n_outliers
FROM d
JOIN m USING (event_type)
JOIN s USING (event_type)
GROUP BY d.event_type
"""


# ---------------------------------------------------------------------------
# per-group least-squares regression (value vs time) — the moments
# plan of events_value_corr (relational.py:1676): five exact int64
# sufficient statistics per (batch, group), one tiny reduce, floats
# only in the final expression shared verbatim with the oracle.
# x = epoch-day keeps Σx² ≤ ~4·10⁸/row, safe in int64 past 10⁹ rows
# per group (documented bound, same as corr's).
# ---------------------------------------------------------------------------


def events_regr_trend(sf_dir: str) -> rd.Dataset:
    """(event_type, n, slope, intercept, r2): OLS regression of
    value-cents on the event's epoch-day per type."""
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "ts", "value"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        y = _cents(batch.column("value")).to_numpy(zero_copy_only=False)
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        x = us // 86_400_000_000  # epoch day
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
        num = n * sxy - sx * sy
        den = n * sxx - sx * sx
        slope = num / den
        intercept = (sy - slope * sx) / n
        r2 = (num * num) / (den * (n * syy - sy * sy))
        return pa.table(
            {
                "event_type": b.column("event_type"),
                "n": b.column("n"),
                "slope": pa.array(slope, pa.float64()),
                "intercept": pa.array(intercept, pa.float64()),
                "r2": pa.array(r2, pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


EVENTS_REGR_SQL = """
WITH c AS (
  SELECT event_type,
         CAST(floor(EXTRACT(epoch FROM ts) / 86400) AS BIGINT) AS x,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS y
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
  / (CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
     - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)) AS slope,
  (CAST(sy AS DOUBLE)
     - ((CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
          - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
        / (CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
           - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)))
       * CAST(sx AS DOUBLE)) / CAST(n AS DOUBLE) AS intercept,
  ((CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
      - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
   * (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
      - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE)))
  / ((CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
      - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
     * (CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
        - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE))) AS r2
FROM s
"""


# ---------------------------------------------------------------------------
# sequential funnel: first 'view' → first 'purchase' STRICTLY AFTER it,
# per user. Batches ship one min-view partial per (user, batch) plus
# the user's purchase rows (the candidate step-2 events — no safe
# pruning exists below the GLOBAL first view, which only the partition
# merge knows); everything else of the event stream stays put.
# ---------------------------------------------------------------------------


def user_funnel(
    sf_dir: str,
    step1: str = "view",
    step2: str = "purchase",
    num_partitions: int | None = None,
) -> rd.Dataset:
    """(user_id, first_view_ts, first_purchase_ts): users who did
    ``step1`` and then ``step2`` strictly later, with both first
    timestamps."""
    ev = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_type"],
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ev), row_bytes=24
    )

    def prune(b: pa.Table) -> pa.Table:
        uid = b.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(b.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        et = b.column("event_type").to_numpy(zero_copy_only=False)
        v = et == step1
        p = et == step2
        # min step-1 ts per user in this batch (one partial row each)
        vu, vinv = np.unique(uid[v], return_inverse=True)
        vmin = np.full(len(vu), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(vmin, vinv, ts[v])
        key1 = pa.array(vu, pa.int64())
        part1 = pa.table(
            {
                "part": _part_of(key1, n_parts),
                "uid": key1,
                "tag": pa.array(np.zeros(len(vu), np.int8)),
                "ts": pa.array(vmin, pa.int64()),
            }
        )
        key2 = pa.array(uid[p], pa.int64())
        part2 = pa.table(
            {
                "part": _part_of(key2, n_parts),
                "uid": key2,
                "tag": pa.array(np.ones(int(p.sum()), np.int8)),
                "ts": pa.array(ts[p], pa.int64()),
            }
        )
        return pa.concat_tables([part1, part2])

    def merge(g: pa.Table) -> pa.Table:
        tag = g.column("tag").to_numpy(zero_copy_only=False)
        uid = g.column("uid").to_numpy(zero_copy_only=False)
        ts = g.column("ts").to_numpy(zero_copy_only=False)
        vsel = tag == 0
        vu, vinv = np.unique(uid[vsel], return_inverse=True)
        vmin = np.full(len(vu), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(vmin, vinv, ts[vsel])
        pu, pt = uid[~vsel], ts[~vsel]
        pos = np.searchsorted(vu, pu)
        pos_c = np.minimum(pos, max(len(vu) - 1, 0))
        ok = (
            (vu[pos_c] == pu) & (pt > vmin[pos_c])
            if len(vu)
            else np.zeros(len(pu), bool)
        )
        cu, cinv = np.unique(pu[ok], return_inverse=True)
        cmin = np.full(len(cu), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(cmin, cinv, pt[ok])
        vpos = np.searchsorted(vu, cu)  # every converted user has a view
        return pa.table(
            {
                "user_id": pa.array(cu, pa.int64()),
                "first_view_ts": pa.array(vmin[vpos], pa.timestamp("us")),
                "first_purchase_ts": pa.array(cmin, pa.timestamp("us")),
            }
        )

    return (
        ev.map_batches(prune, batch_format="pyarrow")
        .groupby("part")
        .map_groups(merge, batch_format="pyarrow")
    )


USER_FUNNEL_SQL = """
WITH v AS (
  SELECT user_id, min(ts) AS vts FROM events
  WHERE event_type = 'view' GROUP BY user_id
),
p AS (
  SELECT e.user_id, min(e.ts) AS pts
  FROM events e JOIN v USING (user_id)
  WHERE e.event_type = 'purchase' AND e.ts > v.vts
  GROUP BY e.user_id
)
SELECT v.user_id, v.vts AS first_view_ts, p.pts AS first_purchase_ts
FROM v JOIN p USING (user_id)
"""


# ---------------------------------------------------------------------------
# cohort retention: users bucketed by first-event week; each cell
# (cohort_week, week_offset) counts the distinct users active that
# many weeks after their first event. One shuffle on the hashed user
# partition: min-ts partials + per-batch-DISTINCT (user, week) pairs;
# the cell matrix itself is bounded (weeks²), reduced on the driver.
# ---------------------------------------------------------------------------

_WEEK_US = 604_800_000_000


def user_retention(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(cohort_week, week_offset, n_users): distinct active users per
    cohort × offset cell."""
    ev = read_pq(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ev), row_bytes=24
    )

    def prune(b: pa.Table) -> pa.Table:
        uid = b.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(b.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        uk, inv = np.unique(uid, return_inverse=True)
        tmin = np.full(len(uk), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(tmin, inv, ts)
        key1 = pa.array(uk, pa.int64())
        firsts = pa.table(
            {
                "part": _part_of(key1, n_parts),
                "uid": key1,
                "tag": pa.array(np.zeros(len(uk), np.int8)),
                "v": pa.array(tmin, pa.int64()),
            }
        )
        wk = ts // _WEEK_US
        if len(uid) and (uid.max() >= (1 << 43) or wk.max() >= (1 << 20) or wk.min() < 0):
            raise ValueError("user_id/week outside the packed-pair range")
        pair = np.unique(uid * (1 << 20) + wk)  # weeks < 2^20 by construction
        p_uid = pair >> 20
        key2 = pa.array(p_uid, pa.int64())
        pairs = pa.table(
            {
                "part": _part_of(key2, n_parts),
                "uid": key2,
                "tag": pa.array(np.ones(len(pair), np.int8)),
                "v": pa.array((pair & ((1 << 20) - 1)).astype(np.int64), pa.int64()),
            }
        )
        return pa.concat_tables([firsts, pairs])

    def merge(g: pa.Table) -> pa.Table:
        tag = g.column("tag").to_numpy(zero_copy_only=False)
        uid = g.column("uid").to_numpy(zero_copy_only=False)
        v = g.column("v").to_numpy(zero_copy_only=False)
        fsel = tag == 0
        uk, inv = np.unique(uid[fsel], return_inverse=True)
        tmin = np.full(len(uk), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(tmin, inv, v[fsel])
        cw = tmin // _WEEK_US
        p_uid, p_wk = uid[~fsel], v[~fsel]
        pair = np.unique(p_uid * (1 << 20) + p_wk)  # cross-batch dedup
        p_uid = pair >> 20
        p_wk = (pair & ((1 << 20) - 1)).astype(np.int64)
        pos = np.searchsorted(uk, p_uid)  # every pair's user has a first
        cell_cw = cw[pos]
        cell_off = p_wk - cell_cw
        t = pa.table(
            {
                "cohort_week": pa.array(cell_cw, pa.int64()),
                "week_offset": pa.array(cell_off, pa.int64()),
            }
        )
        out = t.group_by(["cohort_week", "week_offset"]).aggregate(
            [([], "count_all")]
        )
        return out.rename_columns(["cohort_week", "week_offset", "n_users"])

    parts = (
        ev.map_batches(prune, batch_format="pyarrow")
        .groupby("part")
        .map_groups(merge, batch_format="pyarrow")
    )
    return bounded_group_reduce(
        parts, ["cohort_week", "week_offset"], [("n_users", "sum")]
    )


USER_RETENTION_SQL = """
WITH f AS (
  SELECT user_id,
         CAST(floor(EXTRACT(epoch FROM min(ts)) / 604800) AS BIGINT) AS cw
  FROM events GROUP BY user_id
),
c AS (
  SELECT DISTINCT e.user_id, f.cw,
         CAST(floor(EXTRACT(epoch FROM e.ts) / 604800) AS BIGINT) - f.cw
           AS week_offset
  FROM events e JOIN f USING (user_id)
)
SELECT cw AS cohort_week, week_offset, CAST(COUNT(*) AS BIGINT) AS n_users
FROM c GROUP BY cw, week_offset
"""


# ---------------------------------------------------------------------------
# semi-structured extraction: the events ``props`` column is a JSON
# object; extract its integer field and aggregate per type. The
# extraction is ONE vectorized RE2 pass (pyarrow extract_regex) —
# equivalent to json_extract for the documented integer-field
# contract; objects without the field (or non-integer values) are
# null and excluded exactly like the SQL cast.
# ---------------------------------------------------------------------------


def events_props_stats(sf_dir: str) -> rd.Dataset:
    """(event_type, n, sum_k, min_k, max_k) over the JSON props
    field ``k``."""
    ds = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "props"],
    )

    def partial(b: pa.Table) -> pa.Table:
        # integer-valued field only: the [,}] lookahead rejects the
        # integer PREFIX of a float ("k": 7.5 ⇒ null, matching the
        # oracle's integer-regexp guard). Contract: FLAT objects — a
        # nested {"a": {"k": 5}} is out of contract on both sides.
        ext = pc.extract_regex(
            pc.fill_null(b.column("props").combine_chunks(), ""),
            r'"k"\s*:\s*(?P<k>-?\d+)\s*[,}]',
        )
        kstr = pc.struct_field(ext, "k")
        k = pc.cast(kstr, pa.int64())
        t = pa.table({"event_type": b.column("event_type"), "k": k})
        t = t.filter(pc.is_valid(k))
        g = t.group_by("event_type").aggregate(
            [([], "count_all"), ("k", "sum"), ("k", "min"), ("k", "max")]
        )
        return g.rename_columns(["event_type", "n", "sum_k", "min_k", "max_k"])

    return bounded_group_reduce(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type"],
        [("n", "sum"), ("sum_k", "sum"), ("min_k", "min"), ("max_k", "max")],
    )


EVENTS_PROPS_SQL = """
WITH x AS (
  SELECT event_type,
         CASE WHEN regexp_matches(
                coalesce(json_extract_string(props, '$.k'), ''),
                '^-?[0-9]+$')
              THEN CAST(json_extract_string(props, '$.k') AS BIGINT)
              END AS k
  FROM events
)
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
  CAST(SUM(k) AS BIGINT) AS sum_k,
  CAST(MIN(k) AS BIGINT) AS min_k,
  CAST(MAX(k) AS BIGINT) AS max_k
FROM x WHERE k IS NOT NULL
GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# forward fill (LOCF): per-user LAST_VALUE(… IGNORE NULLS) over the
# (ts, event_id) order — the gap-filling pass every time-series
# pipeline runs before resampling. Sensor dropouts are simulated
# deterministically (value ⇒ null when event_id % 7 = 0) so the
# oracle reproduces them; the fill itself is one lexsort + a
# cummax-over-valid-positions per partition — no per-row Python.
# ---------------------------------------------------------------------------


def events_value_fill(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(event_id, user_id, cents, filled_cents): value with nulls
    (event_id % 7 = 0) forward-filled within each user's (ts,
    event_id) order; leading nulls stay null."""
    ev = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "value"],
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ev), row_bytes=40
    )

    def tag(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part": _part_of(b.column("user_id"), n_parts),
                "uid": b.column("user_id"),
                "ts": pc.cast(b.column("ts"), pa.int64()),
                "eid": b.column("event_id"),
                "cents": _cents(b.column("value")),
            }
        )

    def fill(g: pa.Table) -> pa.Table:
        uid = g.column("uid").to_numpy(zero_copy_only=False)
        ts = g.column("ts").to_numpy(zero_copy_only=False)
        eid = g.column("eid").to_numpy(zero_copy_only=False)
        cents = g.column("cents").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid_s, eid_s, cents_s = uid[order], eid[order], cents[order]
        n = len(uid_s)
        valid = eid_s % 7 != 0
        # forward fill: index of the latest valid position ≤ i within
        # the user segment (cummax over valid positions, reset at
        # segment starts via a per-segment base)
        idx = np.where(valid, np.arange(n), -1)
        seg_start = np.concatenate([[True], uid_s[1:] != uid_s[:-1]]) if n else np.zeros(0, bool)
        seg_id = np.cumsum(seg_start) - 1
        # cummax within segments: offset trick — add a large per-segment
        # base so maxima never cross segment boundaries
        base = seg_id.astype(np.int64) * (n + 1)
        filled_pos = np.maximum.accumulate(np.where(valid, base + np.arange(n), base - 1)) - base
        has = filled_pos >= 0
        out_fill = np.where(has, cents_s[np.maximum(filled_pos, 0)], 0)
        return pa.table(
            {
                "event_id": pa.array(eid_s, pa.int64()),
                "user_id": pa.array(uid_s, pa.int64()),
                "cents": pa.array(
                    np.where(valid, cents_s, 0), pa.int64(), mask=~valid
                ),
                "filled_cents": pa.array(out_fill, pa.int64(), mask=~has),
            }
        )

    return (
        ev.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(fill, batch_format="pyarrow")
    )


EVENTS_FILL_SQL = """
WITH c AS (
  SELECT event_id, user_id, ts,
         CASE WHEN event_id % 7 = 0 THEN NULL
              ELSE CAST(floor(value * 100 + 0.5) AS BIGINT) END AS cents
  FROM events
)
SELECT event_id, user_id, cents,
  last_value(cents IGNORE NULLS) OVER (
    PARTITION BY user_id ORDER BY ts, event_id
    ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS filled_cents
FROM c
"""


# ---------------------------------------------------------------------------
# windowed COUNT DISTINCT — distinct users in each trailing 3-hour
# window, the classically hard streaming aggregate (distinct does not
# decompose over window panes). Exact plan: per-batch DISTINCT
# (user, hour) pairs shuffle once on the hashed user partition; per
# user the trailing-3h windows its presences cover form merged
# intervals, emitted as ±1 boundary DELTAS per hour; the bounded
# (hour, Σdelta) table prefix-sums on the driver. No window ever
# materializes its member set.
# ---------------------------------------------------------------------------

_HOUR_US = 3_600_000_000


def events_sliding_distinct_users(
    sf_dir: str, window_h: int = 3, num_partitions: int | None = None
) -> rd.Dataset:
    """(hour, n_users): distinct users active in [hour-2, hour] for
    every hour that has at least one event."""
    ev = read_pq(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ev), row_bytes=24
    )
    w = window_h - 1  # window [h-w, h]

    def prune(b: pa.Table) -> pa.Table:
        uid = b.column("user_id").to_numpy(zero_copy_only=False)
        hr = (
            pc.cast(b.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
            // _HOUR_US
        )
        pair = np.unique(np.stack([uid, hr], axis=1), axis=0)
        key = pa.array(pair[:, 0], pa.int64())
        return pa.table(
            {
                "part": _part_of(key, n_parts),
                "uid": key,
                "hour": pa.array(pair[:, 1], pa.int64()),
            }
        )

    def merge(g: pa.Table) -> pa.Table:
        uid = g.column("uid").to_numpy(zero_copy_only=False)
        hr = g.column("hour").to_numpy(zero_copy_only=False)
        pair = np.unique(np.stack([uid, hr], axis=1), axis=0)  # cross-batch
        u, h = pair[:, 0], pair[:, 1]
        # per user: merge overlapping coverage intervals [h, h+w]
        new_user = np.concatenate([[True], u[1:] != u[:-1]]) if len(u) else np.zeros(0, bool)
        # a presence EXTENDS the previous interval iff same user and
        # h <= prev_h + w; interval starts where that fails
        ext = np.zeros(len(u), bool)
        if len(u) > 1:
            ext[1:] = (~new_user[1:]) & (h[1:] <= h[:-1] + w)
        starts = np.flatnonzero(~ext)
        ends = np.append(starts[1:], len(u)) - 1
        lo = h[starts]
        hi = h[ends] + w
        deltas_h = np.concatenate([lo, hi + 1])
        deltas_v = np.concatenate(
            [np.ones(len(lo), np.int64), -np.ones(len(hi), np.int64)]
        )
        dt = pa.table(
            {
                "hour": pa.array(deltas_h, pa.int64()),
                "delta": pa.array(deltas_v, pa.int64()),
                "present": pa.array(np.zeros(len(deltas_h), np.int64), pa.int64()),
            }
        )
        anchors = np.unique(h)
        at = pa.table(
            {
                "hour": pa.array(anchors, pa.int64()),
                "delta": pa.array(np.zeros(len(anchors), np.int64), pa.int64()),
                "present": pa.array(np.ones(len(anchors), np.int64), pa.int64()),
            }
        )
        t = pa.concat_tables([dt, at])
        out = t.group_by("hour").aggregate([("delta", "sum"), ("present", "sum")])
        return out.rename_columns(["hour", "delta", "present"])

    parts = (
        ev.map_batches(prune, batch_format="pyarrow")
        .groupby("part")
        .map_groups(merge, batch_format="pyarrow")
    )
    tbl = bounded_group_table_strict(
        parts, ["hour"], [("delta", "sum"), ("present", "sum")]
    )
    if tbl is None:
        return rd.from_arrow(
            pa.table(
                {"hour": pa.array([], pa.int64()), "n_users": pa.array([], pa.int64())}
            )
        )
    hrs = tbl.column("hour").to_numpy(zero_copy_only=False)
    order = np.argsort(hrs)
    hrs = hrs[order]
    deltas = tbl.column("delta").to_numpy(zero_copy_only=False)[order]
    present = tbl.column("present").to_numpy(zero_copy_only=False)[order]
    counts = np.cumsum(deltas)
    sel = present > 0
    return rd.from_arrow(
        pa.table(
            {
                "hour": pa.array(hrs[sel], pa.int64()),
                "n_users": pa.array(counts[sel], pa.int64()),
            }
        )
    )


EVENTS_SLIDING_DISTINCT_SQL = """
WITH p AS (
  SELECT DISTINCT user_id,
         CAST(floor(EXTRACT(epoch FROM ts) / 3600) AS BIGINT) AS h
  FROM events
),
anchors AS (SELECT DISTINCT h FROM p)
SELECT a.h AS hour, CAST(COUNT(DISTINCT p.user_id) AS BIGINT) AS n_users
FROM anchors a JOIN p ON p.h BETWEEN a.h - 2 AND a.h
GROUP BY a.h
"""


# ---------------------------------------------------------------------------
# sequential pattern extraction: event-type transition counts (the
# first-order Markov matrix of user behavior). One hashed-user
# shuffle; each partition lexsorts its users once and tallies
# (prev_type, type) pairs with an Arrow group_by — the transition
# matrix is bounded (|types|²), so the final reduce is driver-side.
# ---------------------------------------------------------------------------


def event_transitions(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(prev_type, next_type, n): counts of consecutive event-type
    pairs within each user's (ts, event_id) order."""
    ev = read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ev), row_bytes=40
    )

    def tag(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part": _part_of(b.column("user_id"), n_parts),
                "uid": b.column("user_id"),
                "ts": pc.cast(b.column("ts"), pa.int64()),
                "eid": b.column("event_id"),
                "etype": b.column("event_type"),
            }
        )

    def count(g: pa.Table) -> pa.Table:
        uid = g.column("uid").to_numpy(zero_copy_only=False)
        ts = g.column("ts").to_numpy(zero_copy_only=False)
        eid = g.column("eid").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid_s = uid[order]
        types = g.column("etype").take(pa.array(order, pa.int64()))
        n = len(uid_s)
        if n < 2:
            return pa.table(
                {
                    "prev_type": pa.array([], pa.string()),
                    "next_type": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        same = uid_s[1:] == uid_s[:-1]
        idx = np.flatnonzero(same)
        t = pa.table(
            {
                "prev_type": types.take(pa.array(idx, pa.int64())),
                "next_type": types.take(pa.array(idx + 1, pa.int64())),
            }
        )
        out = t.group_by(["prev_type", "next_type"]).aggregate(
            [([], "count_all")]
        )
        return out.rename_columns(["prev_type", "next_type", "n"])

    parts = (
        ev.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(count, batch_format="pyarrow")
    )
    return bounded_group_reduce(
        parts, ["prev_type", "next_type"], [("n", "sum")]
    )


EVENT_TRANSITIONS_SQL = """
WITH s AS (
  SELECT user_id, event_type,
         LAG(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS prev_type
  FROM events
)
SELECT prev_type, event_type AS next_type, CAST(COUNT(*) AS BIGINT) AS n
FROM s WHERE prev_type IS NOT NULL
GROUP BY prev_type, next_type
"""


# ---------------------------------------------------------------------------
# Pareto skyline: orders not dominated on (totalprice max, orderdate
# min) — the multi-objective filter. Local skylines are a SOUND
# candidate prune (a global skyline point is undominated in every
# subset containing it), so each batch emits its own skyline and the
# driver merges the bounded candidate set.
# ---------------------------------------------------------------------------


def _skyline(cents: np.ndarray, days: np.ndarray, okey: np.ndarray):
    """Indices of the (cents max, days min) Pareto front — dominance
    strict in at least one dimension, exact-duplicate points all kept
    (the SQL NOT EXISTS semantics). One lexsort: groups share a cents
    value; a group's min-days points survive iff that min beats the
    strictly-higher-cents groups' running best STRICTLY (equal days
    there means domination: higher cents, same day)."""
    n = len(cents)
    if not n:
        return np.zeros(0, np.int64)
    order = np.lexsort((okey, days, -cents))
    c, d = cents[order], days[order]
    new = np.concatenate([[True], c[1:] != c[:-1]])
    starts = np.flatnonzero(new)
    seg = np.cumsum(new) - 1
    gmin = d[starts]  # min days per cents group (days asc within)
    run = np.minimum.accumulate(gmin)
    prev = np.concatenate([[np.iinfo(np.int64).max], run[:-1]])
    grp_ok = gmin < prev
    keep = grp_ok[seg] & (d == gmin[seg])
    return order[keep]


def orders_pareto(sf_dir: str) -> rd.Dataset:
    """(o_orderkey, cents, epoch_day): orders on the Pareto front of
    (price high, date early)."""
    orders = read_pq(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_totalprice", "o_orderdate"],
    )

    def local_front(b: pa.Table) -> pa.Table:
        cents = _cents(b.column("o_totalprice")).to_numpy(zero_copy_only=False)
        days = (
            pc.cast(b.column("o_orderdate"), pa.int64()).to_numpy(
                zero_copy_only=False
            )
            // 86_400_000_000
        )
        okey = b.column("o_orderkey").to_numpy(zero_copy_only=False)
        idx = _skyline(cents, days, okey)
        return pa.table(
            {
                "o_orderkey": pa.array(okey[idx], pa.int64()),
                "cents": pa.array(cents[idx], pa.int64()),
                "epoch_day": pa.array(days[idx], pa.int64()),
            }
        )

    cand = bounded_group_reduce(
        orders.map_batches(local_front, batch_format="pyarrow"),
        ["o_orderkey", "cents", "epoch_day"],
        [],
    )
    # driver: final skyline over the bounded candidate union
    import pyarrow as _pa

    if isinstance(cand, rd.Dataset):
        tbl = _pa.concat_tables(
            [t for t in ray.get(cand.materialize().to_arrow_refs()) if t.num_rows]
        ) if cand.count() else None
    else:
        tbl = cand
    if tbl is None or not tbl.num_rows:
        return rd.from_arrow(
            _pa.table(
                {
                    "o_orderkey": _pa.array([], _pa.int64()),
                    "cents": _pa.array([], _pa.int64()),
                    "epoch_day": _pa.array([], _pa.int64()),
                }
            )
        )
    cents = tbl.column("cents").to_numpy(zero_copy_only=False)
    days = tbl.column("epoch_day").to_numpy(zero_copy_only=False)
    okey = tbl.column("o_orderkey").to_numpy(zero_copy_only=False)
    idx = _skyline(cents, days, okey)
    return rd.from_arrow(
        _pa.table(
            {
                "o_orderkey": _pa.array(okey[idx], _pa.int64()),
                "cents": _pa.array(cents[idx], _pa.int64()),
                "epoch_day": _pa.array(days[idx], _pa.int64()),
            }
        )
    )


ORDERS_PARETO_SQL = """
WITH c AS (
  SELECT o_orderkey,
         CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents,
         CAST(floor(EXTRACT(epoch FROM o_orderdate) / 86400) AS BIGINT)
           AS epoch_day
  FROM orders
)
SELECT o_orderkey, cents, epoch_day FROM c a
WHERE NOT EXISTS (
  SELECT 1 FROM c b
  WHERE b.cents >= a.cents AND b.epoch_day <= a.epoch_day
    AND (b.cents > a.cents OR b.epoch_day < a.epoch_day)
)
"""


# ---------------------------------------------------------------------------
# chi-square independence test: event_type × day-of-week. All counts
# (observed cells INCLUDING structural zeros, margins, total) are
# exact integers from the bounded contingency histogram; each cell's
# float term quantizes to nano-units with the engine's floor
# fixed-point trick, so the statistic is an order-free INTEGER sum
# that hashes exactly against the SQL oracle.
# ---------------------------------------------------------------------------


def events_type_dow_chi2(sf_dir: str) -> rd.Dataset:
    """(chi2_fp_nano, dof, n): the chi-square statistic (×1e9,
    floored) for independence of event type and day-of-week."""
    ev = read_pq(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "ts"]
    )

    def partial(b: pa.Table) -> pa.Table:
        days = (
            pc.cast(b.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
            // 86_400_000_000
        )
        dow = (days + 4) % 7  # 1970-01-01 = Thursday = 4; DuckDB dow Sun=0
        t = pa.table(
            {
                "event_type": b.column("event_type"),
                "dow": pa.array(dow, pa.int64()),
            }
        )
        g = t.group_by(["event_type", "dow"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "dow", "n"])

    tbl = bounded_group_table_strict(
        ev.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "dow"],
        [("n", "sum")],
    )
    if tbl is None:
        return rd.from_arrow(
            pa.table(
                {
                    "chi2_fp_nano": pa.array([], pa.int64()),
                    "dof": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        )
    types = sorted(set(tbl.column("event_type").to_pylist()))
    tcode = {t: i for i, t in enumerate(types)}
    dows = sorted(set(tbl.column("dow").to_pylist()))
    dcode = {d: j for j, d in enumerate(dows)}
    grid = np.zeros((len(types), len(dows)), np.int64)
    for t, d, n in zip(
        tbl.column("event_type").to_pylist(),
        tbl.column("dow").to_pylist(),
        tbl.column("n").to_pylist(),
    ):
        grid[tcode[t], dcode[d]] = int(n)
    r = grid.sum(axis=1).astype(np.float64)
    c = grid.sum(axis=0).astype(np.float64)
    total = float(grid.sum())
    e = r[:, None] * c[None, :] / total
    term = (grid.astype(np.float64) - e) ** 2 / e
    fp = np.floor(term * 1e9).astype(np.int64)
    chi2 = int(fp.sum())
    dof = (len(types) - 1) * (len(dows) - 1)
    return rd.from_arrow(
        pa.table(
            {
                "chi2_fp_nano": pa.array([chi2], pa.int64()),
                "dof": pa.array([dof], pa.int64()),
                "n": pa.array([int(total)], pa.int64()),
            }
        )
    )


EVENTS_CHI2_SQL = """
WITH o AS (
  SELECT event_type AS t, CAST(dayofweek(ts) AS BIGINT) AS d,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
),
r AS (SELECT t, CAST(SUM(n) AS BIGINT) AS rn FROM o GROUP BY t),
c AS (SELECT d, CAST(SUM(n) AS BIGINT) AS cn FROM o GROUP BY d),
g AS (SELECT CAST(SUM(n) AS BIGINT) AS total FROM o),
cells AS (
  SELECT r.t, c.d, COALESCE(o.n, 0) AS n, r.rn, c.cn, g.total
  FROM r CROSS JOIN c CROSS JOIN g
  LEFT JOIN o ON o.t = r.t AND o.d = c.d
),
terms AS (
  SELECT CAST(floor(
    ((CAST(n AS DOUBLE)
        - CAST(rn AS DOUBLE) * CAST(cn AS DOUBLE) / CAST(total AS DOUBLE))
     * (CAST(n AS DOUBLE)
        - CAST(rn AS DOUBLE) * CAST(cn AS DOUBLE) / CAST(total AS DOUBLE)))
    / (CAST(rn AS DOUBLE) * CAST(cn AS DOUBLE) / CAST(total AS DOUBLE))
    * 1e9) AS BIGINT) AS fp
  FROM cells
)
SELECT CAST(SUM(fp) AS BIGINT) AS chi2_fp_nano,
  (SELECT CAST((COUNT(*) - 1) AS BIGINT) FROM r)
    * (SELECT CAST((COUNT(*) - 1) AS BIGINT) FROM c) AS dof,
  (SELECT total FROM g) AS n
FROM terms
"""


# ---------------------------------------------------------------------------
# Markov stationary distribution of the event-type transition chain —
# "where does a user's session settle": 20 power iterations in EXACT
# integer fixed-point (units of 1e-15, the pagerank_fixed discipline:
# per-transition contribution = (π_i · C_ij) // T_i in arbitrary-
# precision ints, mirrored by the oracle's HUGEINT arithmetic), so
# the fixpoint is bitwise independent of everything and DuckDB
# re-derives all 20 iterations as unrolled CTEs. Types with no
# outgoing transitions keep their mass (self-loop) — pinned in
# pytest. The transition matrix is the bounded |types|² reduce of
# event_transitions; the iteration is driver-side metadata math.
# ---------------------------------------------------------------------------

MARKOV_SCALE = 10**15
MARKOV_ITERS = 20


def markov_stationary(sf_dir: str) -> pa.Table:
    """(event_type, stationary_fp): the 20-step integer power
    iteration over the user-session transition chain."""
    import ray as _ray

    trans_ds = event_transitions(sf_dir)
    blocks = [
        t
        for t in _ray.get(trans_ds.materialize().to_arrow_refs())
        if t.num_rows
    ]
    if not blocks:
        return pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "stationary_fp": pa.array([], pa.int64()),
            }
        )
    tt = pa.concat_tables(blocks)
    prev = tt.column("prev_type").to_pylist()
    nxt = tt.column("next_type").to_pylist()
    cnt = tt.column("n").to_pylist()
    nodes = sorted(set(prev) | set(nxt))
    pos = {t: i for i, t in enumerate(nodes)}
    n = len(nodes)
    C: dict[tuple[int, int], int] = {}
    T = [0] * n
    for p_, x_, c_ in zip(prev, nxt, cnt):
        i, j = pos[p_], pos[x_]
        C[(i, j)] = C.get((i, j), 0) + int(c_)
        T[i] += int(c_)
    pi = [MARKOV_SCALE // n] * n
    for _ in range(MARKOV_ITERS):
        new = [0] * n
        for (i, j), c in C.items():
            new[j] += (pi[i] * c) // T[i]
        for i in range(n):
            if T[i] == 0:
                new[i] += pi[i]  # dangling type keeps its mass
        pi = new
    return pa.table(
        {
            "event_type": pa.array(nodes, pa.string()),
            "stationary_fp": pa.array(pi, pa.int64()),
        }
    )


def _markov_sql(n_iter: int = MARKOV_ITERS, scale: int = MARKOV_SCALE) -> str:
    iters = []
    for i in range(n_iter):
        iters.append(f"""
ac{i} AS MATERIALIZED (
  SELECT c.next_type AS node,
    SUM(CAST(CAST(r.r AS HUGEINT) * c.n // ot.t AS BIGINT)) AS acc
  FROM trans c
  JOIN r{i} r ON r.node = c.prev_type
  JOIN out_tot ot ON ot.node = c.prev_type
  GROUP BY c.next_type
),
r{i + 1} AS MATERIALIZED (
  SELECT n.node,
    COALESCE(a.acc, 0)
      + (CASE WHEN ot.t = 0 THEN r.r ELSE 0 END) AS r
  FROM nodes n
  LEFT JOIN ac{i} a ON a.node = n.node
  JOIN out_tot ot ON ot.node = n.node
  JOIN r{i} r ON r.node = n.node
)""")
    return f"""
WITH s AS (
  SELECT user_id, event_type,
         LAG(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS prev_type
  FROM events
),
trans AS (
  SELECT prev_type, event_type AS next_type,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM s WHERE prev_type IS NOT NULL
  GROUP BY prev_type, next_type
),
nodes AS (
  SELECT DISTINCT prev_type AS node FROM trans
  UNION
  SELECT DISTINCT next_type FROM trans
),
ncount AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM nodes),
out_tot AS (
  SELECT n.node, COALESCE(CAST(SUM(t.n) AS BIGINT), 0) AS t
  FROM nodes n LEFT JOIN trans t ON t.prev_type = n.node
  GROUP BY n.node
),
r0 AS (
  SELECT node, {scale} // nn.n AS r FROM nodes CROSS JOIN ncount nn
),{','.join(iters)}
SELECT node AS event_type, CAST(r AS BIGINT) AS stationary_fp
FROM r{n_iter}
"""
