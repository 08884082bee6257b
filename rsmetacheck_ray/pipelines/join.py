"""Generic dataset-level join API.

One reusable ``join(left, right, on, how)`` over arbitrary
``ray.data.Dataset`` inputs (broadcast lookup, distributed hash join,
as-of, range/band, anti), picking the physical plan by size gates:

- ``how="inner" | "left" | "semi" | "anti"`` (equi-join, any key dtype,
  duplicate keys on both sides):

  * while the right side is bounded (``broadcast_max`` rows, probed
    from parquet footers when available, else by an incremental pull
    with early abort) it travels ONCE as a ``ray.put`` handle and each
    left batch joins with a vectorized ``index_in`` + ``searchsorted``
    probe — no shuffle;
  * past the gate, ONE tagged-union all-to-all on the hashed key
    partition; the partition merge is the same vectorized probe. The
    right side's already-computed blocks are reused
    (``from_arrow_refs``), never re-executed.

- ``how="asof"`` (``by`` key + ``on`` ordering column, backward:
  latest right row with ``r.on <= l.on`` per key) and ``how="range"``
  (``by`` key + ``on`` vs ``right_bounds=(lo, hi)``, inner): one
  tagged-union shuffle on ``by``; block-vectorized merges (lexsort +
  segment cummax for as-of; composite searchsorted + prefix filter for
  range). Range assumes per-key interval lists are bounded — the
  partition merge materializes candidate pairs before filtering.

Matching semantics are ANSI SQL: NULL keys never match (inner/semi
drop them, left/anti keep the left row). Key equality is exact (Arrow
``index_in`` codes — never hashes), so string keys are safe.

The reference has no join machinery at all (single-process JSON walk,
``src/cli.py``); the API surface follows SURVEY §2.5's join axis.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..partitioning import _part_of, adaptive_partitions, parquet_rows_hint

# right side travels as one ray.put table below this row count
# (~32-64 MB for typical key+payload projections)
BROADCAST_MAX_ROWS = 2_000_000


# ---------------------------------------------------------------------------
# key normalization + the vectorized equi-probe
# ---------------------------------------------------------------------------

def _as_single(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        return col.combine_chunks()
    return col


def _key_part(col: pa.ChunkedArray | pa.Array, n_parts: int) -> pa.Array:
    """Deterministic partition id for int OR string keys; null → 0."""
    t = col.type if not isinstance(col, pa.ChunkedArray) else col.type
    if pa.types.is_integer(t):
        return _part_of(pc.cast(pc.fill_null(col, 0), pa.int64()), n_parts)
    from ..functions.hashing import hash_str_arrow_u128, splitmix64_np

    lo, _ = hash_str_arrow_u128(_as_single(pc.fill_null(col, "")))
    return pa.array(
        (splitmix64_np(lo) % np.uint64(n_parts)).astype(np.int64), pa.int64()
    )


def _probe(
    l_keys: pa.Array,
    ru: pa.Array,
    rs: np.ndarray,
    order: np.ndarray,
):
    """Vectorized equi-probe of left keys against a code-sorted right
    side. Returns (cnt, li, r_take): per-left-row match counts, the
    expanded left row indices, and the matching right row indices."""
    l_codes = (
        pc.fill_null(pc.index_in(l_keys, ru), -1)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    lo = np.searchsorted(rs, l_codes, "left")
    hi = np.searchsorted(rs, l_codes, "right")
    cnt = hi - lo
    tot = int(cnt.sum())
    li = np.repeat(np.arange(len(l_codes)), cnt)
    offs = np.cumsum(cnt) - cnt
    ri = np.arange(tot) - np.repeat(offs, cnt) + np.repeat(lo, cnt)
    return cnt, li, order[ri]


def _right_index(r_keys: pa.Array):
    """(ru, rs, order): unique right keys, their sorted codes, and the
    row order aligning sorted codes back to right rows. Null-key right
    rows are dropped first (SQL: NULL never matches)."""
    valid = pc.is_valid(r_keys)
    keep = np.flatnonzero(valid.to_numpy(zero_copy_only=False))
    rk = r_keys.take(pa.array(keep, pa.int64()))
    ru = pc.unique(rk)
    r_codes = (
        pc.index_in(rk, ru).to_numpy(zero_copy_only=False).astype(np.int64)
    )
    order = np.argsort(r_codes, kind="stable")
    return ru, r_codes[order], keep[order]


def _output_names(
    left_cols: list[str], right_cols: list[str]
) -> dict[str, str]:
    """Right output column names, suffixed '_r' on collision."""
    taken = set(left_cols)
    out = {}
    for c in right_cols:
        name = c if c not in taken else c + "_r"
        while name in taken and name != c:
            name += "_r"
        out[c] = name
        taken.add(name)
    return out


def _schema_of(ds: rd.Dataset) -> pa.Schema:
    s = ds.schema()
    names, types = s.names, s.types
    return pa.schema(list(zip(names, types)))


# ---------------------------------------------------------------------------
# the public API
# ---------------------------------------------------------------------------

def join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str | tuple[str, str] | None = None,
    how: str = "inner",
    *,
    by: str | tuple[str, str] | None = None,
    right_bounds: tuple[str, str] | None = None,
    broadcast_max: int = BROADCAST_MAX_ROWS,
    num_partitions: int | None = None,
) -> rd.Dataset:
    """Join two datasets. ``on`` is the equi-key (``str`` when both
    sides share the name, else ``(left_key, right_key)``).

    ``how``:
      - ``inner`` / ``left``: all left columns + right payload columns
        (right key dropped; name collisions suffixed ``_r``).
      - ``outer``: left-join rows plus unmatched RIGHT rows (left
        columns null except the key, which carries the right key —
        one row per key occurrence on either side). Always the
        co-partitioned path: a broadcast probe cannot know globally
        which right rows went unmatched.
      - ``semi`` / ``anti``: left columns only, filtered by (non-)
        existence of a right match.
      - ``asof``: ``by`` = equi-key, ``on`` = ordering column; each
        left row gets the latest right row with ``r.on <= l.on``.
        Left join semantics (unmatched → nulls).
      - ``range``: ``by`` = equi-key, ``on`` = left value column,
        ``right_bounds=(lo, hi)``; inner join on
        ``lo <= value <= hi``.
    """
    if how in ("inner", "left", "semi", "anti", "outer"):
        if on is None:
            raise ValueError(f"how={how!r} requires on=")
        lk, rk = (on, on) if isinstance(on, str) else on
        return _equi_join(
            left, right, lk, rk, how, broadcast_max, num_partitions
        )
    if how == "asof":
        if by is None or on is None:
            raise ValueError("how='asof' requires by= and on=")
        lb, rb = (by, by) if isinstance(by, str) else by
        lo_, ro_ = (on, on) if isinstance(on, str) else on
        return _asof_join(
            left, right, lb, rb, lo_, ro_, num_partitions
        )
    if how == "range":
        if by is None or on is None or right_bounds is None:
            raise ValueError(
                "how='range' requires by=, on= and right_bounds=(lo, hi)"
            )
        lb, rb = (by, by) if isinstance(by, str) else by
        return _range_join(
            left, right, lb, rb, on, right_bounds, num_partitions
        )
    raise ValueError(f"unknown how={how!r}")


# ---------------------------------------------------------------------------
# equi-join
# ---------------------------------------------------------------------------

def _pull_bounded(ds: rd.Dataset, max_rows: int):
    """(table | None, refs): pull the dataset incrementally with an
    early abort — blocks fetched stay ≤ max_rows + one block. On abort
    the already-computed refs come back for distributed reuse."""
    mat = ds.materialize()
    refs = mat.to_arrow_refs()
    tables, pulled = [], 0
    for ref in refs:
        t = ray.get(ref)
        if t.num_rows == 0:
            continue
        tables.append(t)
        pulled += t.num_rows
        if pulled > max_rows:
            return None, refs
    if not tables:
        # empty right side: keep schema for null columns. A fully
        # filtered-out read can materialize with NO blocks (schema
        # None) — fall back to the source dataset's schema, then to
        # any empty block's.
        s = mat.schema() or ds.schema()
        if s is None and refs:
            sch = ray.get(refs[0]).schema
            return pa.table(
                {f.name: pa.array([], f.type) for f in sch}
            ), refs
        return pa.table(
            {n: pa.array([], t) for n, t in zip(s.names, s.types)}
        ), refs
    return pa.concat_tables(tables, promote_options="permissive"), refs


def _equi_join(
    left: rd.Dataset,
    right: rd.Dataset,
    lk: str,
    rk: str,
    how: str,
    broadcast_max: int,
    num_partitions: int | None,
) -> rd.Dataset:
    hint = parquet_rows_hint(right)
    right_tbl = None
    right_refs = None
    if how != "outer" and (hint is None or hint <= broadcast_max):
        right_tbl, right_refs = _pull_bounded(right, broadcast_max)
    if right_tbl is not None:
        return _equi_broadcast(left, right_tbl, lk, rk, how)
    right_ds = (
        rd.from_arrow_refs(right_refs) if right_refs is not None else right
    )
    return _equi_copart(left, right_ds, lk, rk, how, num_partitions)


def _assemble(
    l_tbl: pa.Table,
    r_payload: pa.Table,
    rename: dict[str, str],
    how: str,
    cnt: np.ndarray,
    li: np.ndarray,
    r_take: np.ndarray,
) -> pa.Table:
    if how == "semi":
        return l_tbl.filter(pa.array(cnt > 0))
    if how == "anti":
        return l_tbl.filter(pa.array(cnt == 0))
    out = l_tbl.take(pa.array(li, pa.int64()))
    for c in r_payload.column_names:
        out = out.append_column(
            rename[c], r_payload.column(c).take(pa.array(r_take, pa.int64()))
        )
    if how == "left":
        missing = cnt == 0
        if missing.any():
            rest = l_tbl.filter(pa.array(missing))
            for c in r_payload.column_names:
                rest = rest.append_column(
                    rename[c], pa.nulls(rest.num_rows, r_payload.column(c).type)
                )
            out = pa.concat_tables([out, rest])
    return out


def _equi_broadcast(
    left: rd.Dataset, right_tbl: pa.Table, lk: str, rk: str, how: str
) -> rd.Dataset:
    ru, rs, order = _right_index(_as_single(right_tbl.column(rk)))
    r_payload = right_tbl.drop_columns([rk])
    ref = ray.put((ru, rs, order, r_payload))

    def probe_batch(b: pa.Table) -> pa.Table:
        ru2, rs2, order2, r_pay = ray.get(ref)
        ren = _output_names(b.column_names, r_pay.column_names)
        cnt, li, r_take = _probe(_as_single(b.column(lk)), ru2, rs2, order2)
        return _assemble(b, r_pay, ren, how, cnt, li, r_take)

    return left.map_batches(probe_batch, batch_format="pyarrow")


def _equi_copart(
    left: rd.Dataset,
    right: rd.Dataset,
    lk: str,
    rk: str,
    how: str,
    num_partitions: int | None,
) -> rd.Dataset:
    l_schema = _schema_of(left)
    r_schema = _schema_of(right)
    l_cols = list(l_schema.names)
    r_payload_cols = [c for c in r_schema.names if c != rk]
    rename = _output_names(l_cols, r_payload_cols)
    n_parts = num_partitions or adaptive_partitions(
        max(parquet_rows_hint(left) or 0, parquet_rows_hint(right) or 0)
        or None,
        row_bytes=64,
    )
    key_type = r_schema.field(rk).type
    if pa.types.is_integer(key_type):
        key_type = pa.int64()

    # unified tagged schema: _jpart, _jtag, _jkey, left cols, right
    # payload cols (other side's columns ride as nulls)
    def tag_left(b: pa.Table) -> pa.Table:
        n = len(b)
        cols = {
            "_jpart": _key_part(b.column(lk), n_parts),
            "_jtag": pa.array(np.ones(n, np.int8)),
            "_jkey": pc.cast(b.column(lk), key_type),
        }
        for c in l_cols:
            cols["_l_" + c] = b.column(c)
        for c in r_payload_cols:
            cols["_r_" + c] = pa.nulls(n, r_schema.field(c).type)
        return pa.table(cols)

    def tag_right(b: pa.Table) -> pa.Table:
        n = len(b)
        cols = {
            "_jpart": _key_part(b.column(rk), n_parts),
            "_jtag": pa.array(np.zeros(n, np.int8)),
            "_jkey": pc.cast(b.column(rk), key_type),
        }
        for c in l_cols:
            cols["_l_" + c] = pa.nulls(n, l_schema.field(c).type)
        for c in r_payload_cols:
            cols["_r_" + c] = b.column(c)
        return pa.table(cols)

    both = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    def merge(g: pa.Table) -> pa.Table:
        tag = g.column("_jtag").to_numpy(zero_copy_only=False)
        lsel = np.flatnonzero(tag == 1)
        rsel = np.flatnonzero(tag == 0)
        l_tbl = pa.table(
            {
                c: g.column("_l_" + c).take(pa.array(lsel, pa.int64()))
                for c in l_cols
            }
        )
        l_keys = _as_single(g.column("_jkey")).take(
            pa.array(lsel, pa.int64())
        )
        r_keys = _as_single(g.column("_jkey")).take(
            pa.array(rsel, pa.int64())
        )
        r_payload = pa.table(
            {
                c: g.column("_r_" + c).take(pa.array(rsel, pa.int64()))
                for c in r_payload_cols
            }
        )
        ru, rs, order = _right_index(r_keys)
        cnt, li, r_take = _probe(_as_single(l_keys), ru, rs, order)
        out = _assemble(
            l_tbl, r_payload, rename, "left" if how == "outer" else how,
            cnt, li, r_take,
        )
        if how == "outer":
            # append unmatched RIGHT rows: left columns null except the
            # key column, which carries the right key (coalesced id).
            # index_in yields null both for no-match and for null right
            # keys — and SQL NULL never matches, so both are unmatched.
            lk_arr = _as_single(l_keys)
            lu = pc.unique(lk_arr.filter(pc.is_valid(lk_arr)))
            idx = pc.index_in(_as_single(r_keys), lu)
            r_unmatched = pc.is_null(idx).to_numpy(zero_copy_only=False)
            if r_unmatched.any():
                sel = pa.array(np.flatnonzero(r_unmatched), pa.int64())
                n_extra = len(sel)
                cols = {}
                for c in l_cols:
                    if c == lk:
                        cols[c] = pc.cast(
                            _as_single(r_keys).take(sel),
                            l_schema.field(c).type,
                        )
                    else:
                        cols[c] = pa.nulls(n_extra, l_schema.field(c).type)
                extra = pa.table(cols)
                for c in r_payload_cols:
                    extra = extra.append_column(
                        rename[c], r_payload.column(c).take(sel)
                    )
                out = pa.concat_tables([out, extra])
        return out

    return both.groupby("_jpart").map_groups(merge, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# as-of join (by key, backward on an ordering column)
# ---------------------------------------------------------------------------

def _ord_np(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Ordering column as int64 (timestamps → epoch units)."""
    arr = _as_single(col)
    if pa.types.is_timestamp(arr.type):
        arr = pc.cast(arr, pa.int64())
    return arr.to_numpy(zero_copy_only=False).astype(np.int64)


def _asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    lb: str,
    rb: str,
    l_on: str,
    r_on: str,
    num_partitions: int | None,
) -> rd.Dataset:
    l_schema = _schema_of(left)
    r_schema = _schema_of(right)
    l_cols = list(l_schema.names)
    r_payload_cols = [c for c in r_schema.names if c not in (rb,)]
    rename = _output_names(l_cols, r_payload_cols)
    n_parts = num_partitions or adaptive_partitions(
        max(parquet_rows_hint(left) or 0, parquet_rows_hint(right) or 0)
        or None,
        row_bytes=64,
    )
    key_type = r_schema.field(rb).type
    if pa.types.is_integer(key_type):
        key_type = pa.int64()

    def tag_left(b: pa.Table) -> pa.Table:
        n = len(b)
        cols = {
            "_jpart": _key_part(b.column(lb), n_parts),
            "_jtag": pa.array(np.ones(n, np.int8)),
            "_jkey": pc.cast(b.column(lb), key_type),
            "_jord": pa.array(_ord_np(b.column(l_on)), pa.int64()),
        }
        for c in l_cols:
            cols["_l_" + c] = b.column(c)
        for c in r_payload_cols:
            cols["_r_" + c] = pa.nulls(n, r_schema.field(c).type)
        return pa.table(cols)

    def tag_right(b: pa.Table) -> pa.Table:
        n = len(b)
        cols = {
            "_jpart": _key_part(b.column(rb), n_parts),
            "_jtag": pa.array(np.zeros(n, np.int8)),
            "_jkey": pc.cast(b.column(rb), key_type),
            "_jord": pa.array(_ord_np(b.column(r_on)), pa.int64()),
        }
        for c in l_cols:
            cols["_l_" + c] = pa.nulls(n, l_schema.field(c).type)
        for c in r_payload_cols:
            cols["_r_" + c] = b.column(c)
        return pa.table(cols)

    both = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    def merge(g: pa.Table) -> pa.Table:
        tag = g.column("_jtag").to_numpy(zero_copy_only=False)
        keys = _as_single(g.column("_jkey"))
        ts = g.column("_jord").to_numpy(zero_copy_only=False)
        lsel = np.flatnonzero(tag == 1)
        rsel = np.flatnonzero(tag == 0)
        l_tbl = pa.table(
            {
                c: g.column("_l_" + c).take(pa.array(lsel, pa.int64()))
                for c in l_cols
            }
        )
        r_payload = pa.table(
            {
                c: g.column("_r_" + c).take(pa.array(rsel, pa.int64()))
                for c in r_payload_cols
            }
        )
        nl, nr = len(lsel), len(rsel)
        if nl == 0:
            return pa.table(
                {
                    **{c: l_tbl.column(c) for c in l_cols},
                    **{
                        rename[c]: pa.nulls(0, r_payload.column(c).type)
                        for c in r_payload_cols
                    },
                }
            )
        # codes over the union of keys (null keys never match)
        u = pc.unique(pc.drop_null(keys))
        codes = (
            pc.fill_null(pc.index_in(keys, u), -1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        l_codes, r_codes = codes[lsel], codes[rsel]
        l_ts, r_ts = ts[lsel], ts[rsel]
        # one lexsorted sweep: right rows sort BEFORE left rows at
        # equal (code, ts) so 'r.ts <= l.ts' is inclusive; a per-code
        # segment cummax of right-row indices gives each left row its
        # latest preceding right row.
        all_codes = np.concatenate([r_codes, l_codes])
        all_ts = np.concatenate([r_ts, l_ts])
        is_left = np.concatenate(
            [np.zeros(nr, np.int8), np.ones(nl, np.int8)]
        )
        orig = np.concatenate([np.arange(nr), np.arange(nl)])
        order = np.lexsort((is_left, all_ts, all_codes))
        sc = all_codes[order]
        sl = is_left[order]
        so = orig[order]
        # track the SORTED position of the last right row seen in each
        # code segment (ts-sorted ⇒ that row has the max ts ≤ l.ts);
        # a max of original indices would pick an older row whose
        # index happens to be larger.
        n_all = nl + nr
        base = n_all + 1
        pos = np.arange(n_all)
        val = np.where(sl == 0, sc * base + pos + 1, sc * base)
        run = np.maximum.accumulate(val)
        match_pos = run - sc * base - 1  # ≥0: sorted pos of right row
        match = np.where(
            (sc < 0) | (match_pos < 0), -1, so[np.maximum(match_pos, 0)]
        )
        lpos = sl == 1
        l_match = match[lpos]
        l_orig = so[lpos]
        # scatter back to left row order
        out_match = np.empty(nl, np.int64)
        out_match[l_orig] = l_match
        matched = out_match >= 0
        idx = pa.Array.from_pandas(
            np.where(matched, out_match, None), type=pa.int64()
        )
        cols = {c: l_tbl.column(c) for c in l_cols}
        for c in r_payload_cols:
            cols[rename[c]] = r_payload.column(c).take(idx)
        return pa.table(cols)

    return both.groupby("_jpart").map_groups(merge, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# range join (by key; lo <= value <= hi, inner)
# ---------------------------------------------------------------------------

def _range_join(
    left: rd.Dataset,
    right: rd.Dataset,
    lb: str,
    rb: str,
    on: str,
    right_bounds: tuple[str, str],
    num_partitions: int | None,
) -> rd.Dataset:
    lo_col, hi_col = right_bounds
    l_schema = _schema_of(left)
    r_schema = _schema_of(right)
    l_cols = list(l_schema.names)
    r_payload_cols = [c for c in r_schema.names if c != rb]
    rename = _output_names(l_cols, r_payload_cols)
    n_parts = num_partitions or adaptive_partitions(
        max(parquet_rows_hint(left) or 0, parquet_rows_hint(right) or 0)
        or None,
        row_bytes=64,
    )
    key_type = r_schema.field(rb).type
    if pa.types.is_integer(key_type):
        key_type = pa.int64()

    def tag_left(b: pa.Table) -> pa.Table:
        n = len(b)
        cols = {
            "_jpart": _key_part(b.column(lb), n_parts),
            "_jtag": pa.array(np.ones(n, np.int8)),
            "_jkey": pc.cast(b.column(lb), key_type),
            "_jlo": pa.array(_ord_np(b.column(on)), pa.int64()),
            "_jhi": pa.array(np.zeros(n, np.int64), pa.int64()),
        }
        for c in l_cols:
            cols["_l_" + c] = b.column(c)
        for c in r_payload_cols:
            cols["_r_" + c] = pa.nulls(n, r_schema.field(c).type)
        return pa.table(cols)

    def tag_right(b: pa.Table) -> pa.Table:
        n = len(b)
        cols = {
            "_jpart": _key_part(b.column(rb), n_parts),
            "_jtag": pa.array(np.zeros(n, np.int8)),
            "_jkey": pc.cast(b.column(rb), key_type),
            "_jlo": pa.array(_ord_np(b.column(lo_col)), pa.int64()),
            "_jhi": pa.array(_ord_np(b.column(hi_col)), pa.int64()),
        }
        for c in l_cols:
            cols["_l_" + c] = pa.nulls(n, l_schema.field(c).type)
        for c in r_payload_cols:
            cols["_r_" + c] = b.column(c)
        return pa.table(cols)

    both = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    def merge(g: pa.Table) -> pa.Table:
        tag = g.column("_jtag").to_numpy(zero_copy_only=False)
        keys = _as_single(g.column("_jkey"))
        lsel = np.flatnonzero(tag == 1)
        rsel = np.flatnonzero(tag == 0)
        l_tbl = pa.table(
            {
                c: g.column("_l_" + c).take(pa.array(lsel, pa.int64()))
                for c in l_cols
            }
        )
        r_payload = pa.table(
            {
                c: g.column("_r_" + c).take(pa.array(rsel, pa.int64()))
                for c in r_payload_cols
            }
        )
        empty = pa.table(
            {
                **{c: l_tbl.column(c).slice(0, 0) for c in l_cols},
                **{
                    rename[c]: pa.nulls(0, r_payload.column(c).type)
                    for c in r_payload_cols
                },
            }
        )
        nl, nr = len(lsel), len(rsel)
        if nl == 0 or nr == 0:
            return empty
        u = pc.unique(pc.drop_null(keys))
        codes = (
            pc.fill_null(pc.index_in(keys, u), -1)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        l_codes, r_codes = codes[lsel], codes[rsel]
        v = g.column("_jlo").to_numpy(zero_copy_only=False)
        l_val, r_lo = v[lsel], v[rsel]
        r_hi = g.column("_jhi").to_numpy(zero_copy_only=False)[rsel]
        # sort right by (code, lo); candidates for a left row are the
        # same-code prefix with lo <= value, then filter hi >= value.
        order = np.lexsort((r_lo, r_codes))
        rc, rlo2, rhi2 = r_codes[order], r_lo[order], r_hi[order]
        base = np.int64(1) << 32
        if (
            np.abs(rlo2).max(initial=0) >= base // 2
            or np.abs(l_val).max(initial=0) >= base // 2
        ):
            # composite key overflow guard: fall back to float128-free
            # two-level search (per-code slices), still vectorized per
            # code segment via searchsorted on code boundaries
            seg_lo = np.searchsorted(rc, l_codes, "left")
            seg_hi = np.searchsorted(rc, l_codes, "right")
            starts = seg_lo
            ends = np.empty(nl, np.int64)
            for i in range(nl):  # rare path: huge ordinal magnitudes
                ends[i] = starts[i] + np.searchsorted(
                    rlo2[seg_lo[i] : seg_hi[i]], l_val[i], "right"
                )
        else:
            comp_r = rc * base + (rlo2 + base // 2)
            comp_l = l_codes * base + (l_val + base // 2)
            starts = np.searchsorted(comp_r, l_codes * base, "left")
            ends = np.searchsorted(comp_r, comp_l, "right")
        valid = l_codes >= 0
        cnt = np.where(valid, ends - starts, 0)
        tot = int(cnt.sum())
        if tot == 0:
            return empty
        li = np.repeat(np.arange(nl), cnt)
        offs = np.cumsum(cnt) - cnt
        ri = np.arange(tot) - np.repeat(offs, cnt) + np.repeat(starts, cnt)
        keep = rhi2[ri] >= l_val[li]
        li, ri = li[keep], ri[keep]
        r_take = order[ri]
        out = l_tbl.take(pa.array(li, pa.int64()))
        for c in r_payload_cols:
            out = out.append_column(
                rename[c],
                r_payload.column(c).take(pa.array(r_take, pa.int64())),
            )
        return out

    return both.groupby("_jpart").map_groups(merge, batch_format="pyarrow")
