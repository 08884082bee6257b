"""Distributed exact quantile selection by two-level radix counting.

A BOUNDED value domain needs only one histogram pass and driver math.
This module handles the general case, a 32-bit-wide non-negative
integer domain (e.g. price cents up to ~$42M), where a single flat
histogram would be 2³² buckets and a distributed sort a full shuffle:
instead it runs TWO streaming counting passes —

 1. per-batch ``bincount`` of the HIGH 16 bits of each value (≤65,536
    partial rows per batch, reduced driver-side), locating for each
    requested quantile the high-bucket holding its order statistic and
    the residual rank within it;
 2. per-batch ``bincount`` of the LOW 16 bits, restricted to the (few)
    target high-buckets, which pins the exact value.

No sort, no shuffle of data rows — the only traffic is bounded count
partials, so the plan is identical at 60k rows and 10¹² rows. Rank
convention matches DuckDB's ``quantile_disc``: the k-th smallest with
``k = max(1, ceil(q·n))`` (verified against DuckDB 1.x).

The reference has no quantile machinery at all; this extends SURVEY
§2.6's aggregation axis the way its percentile family does.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

import ray.data as rd

from ..partitioning import bounded_group_table_strict

_MAX_VALUE = (1 << 32) - 1


def _hist_partial(col: str, shift: int, keep=None):
    """Per-batch (bucket, n) partial counts of ``value >> shift`` (low
    16 bits after an optional high-bucket membership filter)."""

    def stage(b: pa.Table) -> pa.Table:
        v = b.column(col).to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)] if v.dtype.kind == "f" else v
        v = v.astype(np.int64)
        if len(v) and (v.min() < 0 or v.max() > _MAX_VALUE):
            raise ValueError(
                f"radix_quantiles: {col} outside [0, 2^32) — add a "
                "third 16-bit round for wider domains"
            )
        if keep is not None:
            hb = v >> 16
            sel = np.isin(hb, keep)
            v = v[sel]
        bucket = (v >> shift) & 0xFFFF
        if not len(bucket):
            return pa.table(
                {
                    "bucket": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        if keep is not None:
            # count per (high, low) pair — composite key keeps the
            # domain ≤ |targets| × 65536
            key = ((v >> 16) << 16) | bucket
        else:
            key = bucket
        uniq, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {
                "bucket": pa.array(uniq, pa.int64()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    return stage


def _ranks_for(qs: list[float], n: int) -> list[int]:
    """DuckDB quantile_disc ranks: k = max(1, ceil(q*n)), 1-based."""
    return [max(1, math.ceil(q * n)) for q in qs]


def radix_quantiles(
    ds: rd.Dataset, col: str, qs: list[float]
) -> "list[int] | None":
    """Exact ``quantile_disc`` values of non-null ``col`` for each q in
    ``qs``. Returns None on an empty (or all-null) input."""
    h1 = bounded_group_table_strict(
        ds.map_batches(_hist_partial(col, 16), batch_format="pyarrow"),
        ["bucket"],
        [("n", "sum")],
    )
    if h1 is None or h1.num_rows == 0:
        return None
    b1 = h1.column("bucket").to_numpy(zero_copy_only=False)
    n1 = h1.column("n").to_numpy(zero_copy_only=False)
    order = np.argsort(b1, kind="stable")
    b1, n1 = b1[order], n1[order]
    cum = np.cumsum(n1)
    total = int(cum[-1])
    ranks = _ranks_for(qs, total)
    # target high-bucket + residual (1-based) rank within it, per q
    idx = np.searchsorted(cum, ranks)  # first bucket with cum >= k
    hi = b1[idx]
    before = np.where(idx > 0, cum[idx - 1], 0)
    resid = np.asarray(ranks) - before

    targets = np.unique(hi)
    h2 = bounded_group_table_strict(
        ds.map_batches(
            _hist_partial(col, 0, keep=targets), batch_format="pyarrow"
        ),
        ["bucket"],
        [("n", "sum")],
    )
    assert h2 is not None  # pass 1 found rows in these buckets
    k2 = h2.column("bucket").to_numpy(zero_copy_only=False)
    n2 = h2.column("n").to_numpy(zero_copy_only=False)
    order = np.argsort(k2, kind="stable")
    k2, n2 = k2[order], n2[order]
    out: list[int] = []
    for h, r in zip(hi, resid):
        lo_sel = (k2 >> 16) == h
        lows = k2[lo_sel] & 0xFFFF
        cnts = n2[lo_sel]
        c = np.cumsum(cnts)
        j = int(np.searchsorted(c, r))
        out.append(int((int(h) << 16) | int(lows[j])))
    return out


def radix_quantiles_by_group(
    ds: rd.Dataset, group_col: str, col: str, qs: list[float]
) -> "pa.Table | None":
    """Per-group exact ``quantile_disc`` over a BOUNDED group domain
    (flags, priorities, languages) and the same 2³²-wide value domain:
    the grouped form of :func:`radix_quantiles`, still two counting
    passes and zero sorts.

    Pass 1 counts (group, high-16-bit bucket) composites per batch;
    pass 2 counts EXACT values restricted to each group's target
    buckets (a value IS its (hi<<16)|lo composite, so the second pass
    needs no recombination). Null values drop (SQL aggregate
    semantics). Returns (group, q, value) sorted by (group, q), or
    None on empty input."""
    def stage1(b: pa.Table) -> pa.Table:
        g = b.column(group_col)
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        enc = g.dictionary_encode()
        gidx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        v = b.column(col).to_numpy(zero_copy_only=False)
        ok = ~np.isnan(v) if v.dtype.kind == "f" else np.ones(len(v), bool)
        v = v[ok].astype(np.int64)
        gidx = gidx[ok]
        if len(v) and (v.min() < 0 or v.max() > _MAX_VALUE):
            raise ValueError(f"radix_quantiles_by_group: {col} out of domain")
        if not len(v):
            return pa.table(
                {
                    "grp": pa.array([], pa.string()),
                    "bucket": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        comp = (gidx << 16) | (v >> 16)
        uniq, cnt = np.unique(comp, return_counts=True)
        groups = enc.dictionary.take(pa.array(uniq >> 16))
        return pa.table(
            {
                "grp": groups,
                "bucket": pa.array(uniq & 0xFFFF, pa.int64()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    h1 = bounded_group_table_strict(
        ds.map_batches(stage1, batch_format="pyarrow"),
        ["grp", "bucket"],
        [("n", "sum")],
    )
    if h1 is None or h1.num_rows == 0:
        return None
    # per-group targets: (hi bucket, residual rank) per q
    import collections

    per_group: dict[str, tuple] = {}
    gcol = h1.column("grp").to_numpy(zero_copy_only=False)
    bcol = h1.column("bucket").to_numpy(zero_copy_only=False)
    ncol = h1.column("n").to_numpy(zero_copy_only=False)
    targets: dict[str, dict] = collections.defaultdict(dict)
    for grp in np.unique(gcol):
        sel = gcol == grp
        b1, n1 = bcol[sel], ncol[sel]
        order = np.argsort(b1, kind="stable")
        b1, n1 = b1[order], n1[order]
        cum = np.cumsum(n1)
        total = int(cum[-1])
        ranks = _ranks_for(qs, total)
        idx = np.searchsorted(cum, ranks)
        hi = b1[idx]
        before = np.where(idx > 0, cum[idx - 1], 0)
        per_group[grp] = (hi, np.asarray(ranks) - before)
        for h in hi:
            targets[grp][int(h)] = True

    import ray as _ray

    tref = _ray.put({g: np.array(sorted(d), np.int64) for g, d in targets.items()})

    def stage2(b: pa.Table) -> pa.Table:
        tmap = _ray.get(tref)
        g = b.column(group_col)
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        enc = g.dictionary_encode()
        gidx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        v = b.column(col).to_numpy(zero_copy_only=False)
        ok = ~np.isnan(v) if v.dtype.kind == "f" else np.ones(len(v), bool)
        v = v[ok].astype(np.int64)
        gidx = gidx[ok]
        out_g, out_v, out_n = [], [], []
        for i, grp in enumerate(enc.dictionary.to_pylist()):
            his = tmap.get(grp)
            if his is None:
                continue
            gv = v[gidx == i]
            pos = np.searchsorted(his, gv >> 16)
            keep = (pos < len(his)) & (
                his[np.minimum(pos, len(his) - 1)] == (gv >> 16)
            )
            gv = gv[keep]
            uniq, cnt = np.unique(gv, return_counts=True)
            out_g.extend([grp] * len(uniq))
            out_v.append(uniq)
            out_n.append(cnt.astype(np.int64))
        return pa.table(
            {
                "grp": pa.array(out_g, pa.string()),
                "bucket": pa.array(
                    np.concatenate(out_v) if out_v else np.empty(0, np.int64),
                    pa.int64(),
                ),
                "n": pa.array(
                    np.concatenate(out_n) if out_n else np.empty(0, np.int64),
                    pa.int64(),
                ),
            }
        )

    h2 = bounded_group_table_strict(
        ds.map_batches(stage2, batch_format="pyarrow"),
        ["grp", "bucket"],
        [("n", "sum")],
    )
    assert h2 is not None
    g2 = h2.column("grp").to_numpy(zero_copy_only=False)
    v2 = h2.column("bucket").to_numpy(zero_copy_only=False)
    n2 = h2.column("n").to_numpy(zero_copy_only=False)
    out_rows = []
    for grp in sorted(per_group):
        hi, resid = per_group[grp]
        sel = g2 == grp
        gv, gn = v2[sel], n2[sel]
        order = np.argsort(gv, kind="stable")
        gv, gn = gv[order], gn[order]
        for q, h, r in zip(qs, hi, resid):
            in_b = (gv >> 16) == h
            vals, cnts = gv[in_b], gn[in_b]
            c = np.cumsum(cnts)
            j = int(np.searchsorted(c, r))
            out_rows.append((str(grp), float(q), int(vals[j])))
    return pa.table(
        {
            "grp": pa.array([r[0] for r in out_rows], pa.string()),
            "q": pa.array([r[1] for r in out_rows], pa.float64()),
            "value": pa.array([r[2] for r in out_rows], pa.int64()),
        }
    )


def _whist_partial(col: str, wcol: str, shift: int, keep=None):
    """Per-batch (bucket, w) partial WEIGHT sums of ``value >> shift``
    — the weighted twin of :func:`_hist_partial` (weights must be
    non-negative integers; null values or weights drop)."""

    def stage(b: pa.Table) -> pa.Table:
        v = b.column(col).to_numpy(zero_copy_only=False)
        w = b.column(wcol).to_numpy(zero_copy_only=False)
        ok = np.ones(len(v), bool)
        if v.dtype.kind == "f":
            ok &= ~np.isnan(v)
        if w.dtype.kind == "f":
            ok &= ~np.isnan(w)
        v = v[ok].astype(np.int64)
        w = w[ok].astype(np.int64)
        if len(v) and (v.min() < 0 or v.max() > _MAX_VALUE):
            raise ValueError(
                f"radix_weighted_quantiles: {col} outside [0, 2^32)"
            )
        if len(w) and w.min() < 0:
            raise ValueError(
                f"radix_weighted_quantiles: negative weight in {wcol}"
            )
        if keep is not None:
            sel = np.isin(v >> 16, keep)
            v, w = v[sel], w[sel]
        if not len(v):
            return pa.table(
                {
                    "bucket": pa.array([], pa.int64()),
                    "w": pa.array([], pa.int64()),
                }
            )
        bucket = (v >> shift) & 0xFFFF
        key = (((v >> 16) << 16) | bucket) if keep is not None else bucket
        uniq, inv = np.unique(key, return_inverse=True)
        acc = np.zeros(len(uniq), np.int64)
        np.add.at(acc, inv, w)
        return pa.table(
            {
                "bucket": pa.array(uniq, pa.int64()),
                "w": pa.array(acc, pa.int64()),
            }
        )

    return stage


def radix_weighted_quantiles(
    ds: rd.Dataset, col: str, wcol: str, qs: list[float]
) -> "list[int] | None":
    """Exact WEIGHTED quantile_disc: the smallest value whose
    cumulative weight reaches ``max(1, ceil(q·W))`` (W = total
    weight) — e.g. the quantity-weighted "typical traded price". Same
    two streaming counting passes as :func:`radix_quantiles`, with
    integer weight sums in place of counts; zero-weight rows cannot
    carry a quantile (matching the cum-weight oracle, which never
    stops on a row that adds nothing). Returns None on empty / all-
    zero-weight input."""
    h1 = bounded_group_table_strict(
        ds.map_batches(_whist_partial(col, wcol, 16), batch_format="pyarrow"),
        ["bucket"],
        [("w", "sum")],
    )
    if h1 is None or h1.num_rows == 0:
        return None
    b1 = h1.column("bucket").to_numpy(zero_copy_only=False)
    n1 = h1.column("w").to_numpy(zero_copy_only=False)
    order = np.argsort(b1, kind="stable")
    b1, n1 = b1[order], n1[order]
    cum = np.cumsum(n1)
    total = int(cum[-1])
    if total <= 0:
        return None
    ranks = _ranks_for(qs, total)
    idx = np.searchsorted(cum, ranks)
    hi = b1[idx]
    before = np.where(idx > 0, cum[idx - 1], 0)
    resid = np.asarray(ranks) - before

    targets = np.unique(hi)
    h2 = bounded_group_table_strict(
        ds.map_batches(
            _whist_partial(col, wcol, 0, keep=targets),
            batch_format="pyarrow",
        ),
        ["bucket"],
        [("w", "sum")],
    )
    assert h2 is not None
    k2 = h2.column("bucket").to_numpy(zero_copy_only=False)
    n2 = h2.column("w").to_numpy(zero_copy_only=False)
    order = np.argsort(k2, kind="stable")
    k2, n2 = k2[order], n2[order]
    out: list[int] = []
    for h, r in zip(hi, resid):
        lo_sel = (k2 >> 16) == h
        lows = k2[lo_sel] & 0xFFFF
        cnts = n2[lo_sel]
        c = np.cumsum(cnts)
        j = int(np.searchsorted(c, r))
        out.append(int((int(h) << 16) | int(lows[j])))
    return out


def radix_heavy_hitters(
    ds: rd.Dataset, col: str, phi: float
) -> "pa.Table | None":
    """EXACT heavy hitters over the 2³²-wide domain: every value whose
    count ≥ max(1, ceil(φ·N)) — no sketch error, no caps. Pass 1's
    high-bucket totals give a SOUND prune (a value's count ≤ its
    bucket's total), and at most 1/φ buckets can hold ≥ φ·N mass, so
    pass 2's exact counting is support-bounded regardless of data
    size. Returns (value, n) sorted by (n desc, value asc), or None on
    empty input."""
    h1 = bounded_group_table_strict(
        ds.map_batches(_hist_partial(col, 16), batch_format="pyarrow"),
        ["bucket"],
        [("n", "sum")],
    )
    if h1 is None or h1.num_rows == 0:
        return None
    b1 = h1.column("bucket").to_numpy(zero_copy_only=False)
    n1 = h1.column("n").to_numpy(zero_copy_only=False)
    total = int(n1.sum())
    thr = max(1, math.ceil(phi * total))
    targets = b1[n1 >= thr]
    if not len(targets):
        return pa.table(
            {"value": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
        )
    h2 = bounded_group_table_strict(
        ds.map_batches(
            _hist_partial(col, 0, keep=targets), batch_format="pyarrow"
        ),
        ["bucket"],
        [("n", "sum")],
    )
    assert h2 is not None
    vals = h2.column("bucket").to_numpy(zero_copy_only=False)
    cnt = h2.column("n").to_numpy(zero_copy_only=False)
    sel = cnt >= thr
    vals, cnt = vals[sel], cnt[sel]
    order = np.lexsort((vals, -cnt))
    return pa.table(
        {
            "value": pa.array(vals[order], pa.int64()),
            "n": pa.array(cnt[order], pa.int64()),
        }
    )
