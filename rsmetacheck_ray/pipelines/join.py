"""Generic dataset-level inner equi-join.

One reusable ``join(left, right, on)`` over arbitrary
``ray.data.Dataset`` inputs (any key dtype, duplicate keys on both
sides), picking the physical plan by a size gate:

* while the right side is bounded (``broadcast_max`` rows, probed from
  parquet footers when available, else by an incremental pull with
  early abort) it travels ONCE as a ``ray.put`` handle and each left
  batch joins with a vectorized ``index_in`` + ``searchsorted`` probe —
  no shuffle;
* past the gate, ONE tagged-union all-to-all on the hashed key
  partition; the partition merge is the same vectorized probe. The
  right side's already-computed blocks are reused
  (``from_arrow_refs``), never re-executed.

Matching semantics are ANSI SQL: NULL keys never match. Key equality
is exact (Arrow ``index_in`` codes — never hashes), so string keys are
safe.

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
    side. Returns (li, r_take): the expanded left row indices and the
    matching right row indices."""
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
    return li, order[ri]


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
    on: str | tuple[str, str],
    *,
    broadcast_max: int = BROADCAST_MAX_ROWS,
    num_partitions: int | None = None,
) -> rd.Dataset:
    """Inner equi-join of two datasets. ``on`` is the key (``str`` when
    both sides share the name, else ``(left_key, right_key)``).

    Output: all left columns, then the right payload columns (right key
    dropped; name collisions suffixed ``_r``), one row per matching
    (left, right) pair. Null keys never match. The right side is
    broadcast while it holds at most ``broadcast_max`` rows, else both
    sides are hash-partitioned into ``num_partitions`` (default: sized
    from the parquet row hints)."""
    lk, rk = (on, on) if isinstance(on, str) else on
    hint = parquet_rows_hint(right)
    right_tbl = None
    right_refs = None
    if hint is None or hint <= broadcast_max:
        right_tbl, right_refs = _pull_bounded(right, broadcast_max)
    if right_tbl is not None:
        return _equi_broadcast(left, right_tbl, lk, rk)
    right_ds = (
        rd.from_arrow_refs(right_refs) if right_refs is not None else right
    )
    return _equi_copart(left, right_ds, lk, rk, num_partitions)


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
        # empty right side: keep its schema for the (empty) payload
        # columns. A fully
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


def _assemble(
    l_tbl: pa.Table,
    r_payload: pa.Table,
    rename: dict[str, str],
    li: np.ndarray,
    r_take: np.ndarray,
) -> pa.Table:
    out = l_tbl.take(pa.array(li, pa.int64()))
    for c in r_payload.column_names:
        out = out.append_column(
            rename[c], r_payload.column(c).take(pa.array(r_take, pa.int64()))
        )
    return out


def _equi_broadcast(
    left: rd.Dataset, right_tbl: pa.Table, lk: str, rk: str
) -> rd.Dataset:
    ru, rs, order = _right_index(_as_single(right_tbl.column(rk)))
    r_payload = right_tbl.drop_columns([rk])
    ref = ray.put((ru, rs, order, r_payload))

    def probe_batch(b: pa.Table) -> pa.Table:
        ru2, rs2, order2, r_pay = ray.get(ref)
        ren = _output_names(b.column_names, r_pay.column_names)
        li, r_take = _probe(_as_single(b.column(lk)), ru2, rs2, order2)
        return _assemble(b, r_pay, ren, li, r_take)

    return left.map_batches(probe_batch, batch_format="pyarrow")


def _equi_copart(
    left: rd.Dataset,
    right: rd.Dataset,
    lk: str,
    rk: str,
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
        li, r_take = _probe(_as_single(l_keys), ru, rs, order)
        return _assemble(l_tbl, r_payload, rename, li, r_take)

    return both.groupby("_jpart").map_groups(merge, batch_format="pyarrow")
