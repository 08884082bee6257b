"""Partition sizing and the shared shuffle/reduce helpers.

Every keyed shuffle in the engine (the join API, the LSH/chunk pair
stages) groups on a HASHED KEY PARTITION (``_part_of``) so Python is
invoked once per partition, not once per key. Each
``groupby(part).map_groups`` call materializes ONE partition in one
worker's memory — so the partition count must grow with the input: a
fixed 64 puts 1/64 of a 10¹²-row projection (~250 GB) in a single
worker at 100 TB scale.

This module derives the count from the input size instead:

 - ``parquet_rows_hint`` / ``parquet_bytes_hint`` read ONLY parquet
   footers of the dataset's input files (no data pass);
 - ``adaptive_partitions`` sizes the count so one partition's rows ×
   bytes-per-row fits a worker-memory budget, with a parallelism floor
   and a sanity ceiling.

Every operator that hash-partitions exposes ``num_partitions=None``
and falls back to the floor when no metadata hint exists (non-parquet
sources) — correct at any count, memory-safe when sized.

Bounded-domain aggregates (per-language, per-source, per-rule
partials) finish on the driver through ``bounded_group_reduce`` /
``bounded_group_table[_strict]`` instead of a distributed shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd
from ray.data.aggregate import Max, Min, Sum

from .functions.hashing import splitmix64_np

# One partition is one in-worker lexsort: budget ~256 MB of row payload
# per partition so partition × concurrency fits a worker heap with room
# for the sort's transient copies.
TARGET_PARTITION_BYTES = 256 << 20
MIN_PARTITIONS = 64        # parallelism floor; costs ~nothing when small
MAX_PARTITIONS = 1 << 20   # sanity ceiling (10¹² rows × 32 B ⇒ ~131k parts)


def adaptive_partitions(
    n_rows: int | None,
    row_bytes: int = 32,
    target_partition_bytes: int = TARGET_PARTITION_BYTES,
    min_partitions: int = MIN_PARTITIONS,
    max_partitions: int = MAX_PARTITIONS,
) -> int:
    """Partition count such that the EXPECTED per-partition payload
    (hash-uniform keys) stays under ``target_partition_bytes``.

    ``n_rows`` is the number of rows entering the shuffle (after any
    per-row fan-out, e.g. ×N_BANDS for LSH band rows); ``row_bytes``
    the approximate shuffled row width. ``None`` (no metadata hint)
    falls back to the floor — correct, not memory-sized.
    """
    if not n_rows or n_rows <= 0:
        return min_partitions
    rows_per_part = max(1, target_partition_bytes // max(1, row_bytes))
    need = -(-n_rows // rows_per_part)  # ceil
    return max(min_partitions, min(max_partitions, need))


def parquet_rows_hint(ds) -> int | None:
    """Total row count of the dataset's parquet input files, from
    footers only (free — no data pass). ``None`` when the dataset has
    no resolvable parquet inputs (e.g. ``from_arrow`` branches).

    NB: for a dataset with row-expanding/filtering transforms this is
    the SOURCE row count — an order-of-magnitude hint for partition
    sizing, which is all the policy needs.
    """
    try:
        files = [f for f in (ds.input_files() or []) if f.endswith(".parquet")]
    except Exception:
        return None
    if not files:
        return None
    import pyarrow.parquet as pq

    total = 0
    for f in files:
        try:
            total += pq.ParquetFile(f).metadata.num_rows
        except Exception:
            return None
    return total or None


def parquet_bytes_hint(ds) -> int | None:
    """Total UNCOMPRESSED byte size of the dataset's parquet inputs
    (sum of row-group ``total_byte_size`` footers). ``None`` when not
    resolvable."""
    try:
        files = [f for f in (ds.input_files() or []) if f.endswith(".parquet")]
    except Exception:
        return None
    if not files:
        return None
    import pyarrow.parquet as pq

    total = 0
    for f in files:
        try:
            md = pq.ParquetFile(f).metadata
            total += sum(
                md.row_group(i).total_byte_size for i in range(md.num_row_groups)
            )
        except Exception:
            return None
    return total or None


def small_read_blocks(path) -> int | None:
    """Block-count override for SMALL parquet reads. Ray's default
    splitting targets ~2×CPU blocks regardless of input size, so a
    small table enters every downstream shuffle as dozens of
    micro-blocks and the sort machinery's per-block fixed cost — not
    data volume — dominates wall time (measured: collapsing a 500-row
    read from 64 to 16 blocks cut the gram-shuffle query 8.8 s →
    1.8 s at identical output). Small inputs read as ceil(rows/4096)
    blocks (floor 4 for parallelism); inputs ≥ 2¹⁸ rows return None —
    Ray's auto policy is right at scale and the override never
    triggers there."""
    try:
        import pyarrow.parquet as pq

        rows = pq.ParquetFile(path).metadata.num_rows
    except Exception:
        return None
    if rows >= (1 << 18):
        return None
    return max(4, -(-rows // 4096))


def read_pq(path, **kw):
    """``ray.data.read_parquet`` with the small-input block override
    applied — the one place the policy lives."""
    return rd.read_parquet(
        path, override_num_blocks=small_read_blocks(path), **kw
    )


def _part_of(key_col: pa.ChunkedArray | pa.Array, n_parts: int) -> pa.Array:
    """Deterministic hash partition id of an int64 key column."""
    k = key_col.to_numpy(zero_copy_only=False).astype(np.uint64)
    return pa.array((splitmix64_np(k) % n_parts).astype(np.int64), pa.int64())


def bounded_group_reduce(
    partials: rd.Dataset,
    keys: list[str],
    aggs: list[tuple[str, str]],
    max_rows: int = 4_000_000,
) -> rd.Dataset:
    """Final reduce for a BOUNDED-DOMAIN partial aggregate.

    The input is per-batch partials — at most #groups rows per block,
    where #groups is bounded by the VALUE DOMAIN (flag×status, event
    types, nations, hours…), never by the data size. Ray's distributed
    ``Aggregate`` op pays a sort-shuffle setup constant regardless of
    volume (measured: 2.13 s for 384 partial rows on the session's
    FIRST aggregate; ~0.5 s warm), pure overhead for a KB-sized
    reduce; pulling the partials to the driver and merging with ONE
    Arrow ``group_by`` is bit-identical (int64 sums are associative;
    min/max order-free) and removes that operator entirely. NOT for
    post-shuffle aggregates: a groupby that consumes an upstream
    join/sort output in place is cheaper than inserting a new map
    stage (measured +3 s on a join-then-group query). Guard: past
    ``max_rows`` partial rows (#groups × #blocks — only a truly large
    domain × block-count product gets there) it falls back to the
    distributed groupby.

    ``aggs`` is ``[(col, "sum"|"min"|"max"), ...]``; output columns are
    ``keys + [col for col, _ in aggs]`` (same names in, same names
    out)."""
    g = bounded_group_table(partials, keys, aggs, max_rows=max_rows)
    if g is None:
        return partials  # empty in, empty out (schema preserved)
    if isinstance(g, rd.Dataset):
        return g  # distributed fallback past max_rows
    return rd.from_arrow(g)


def bounded_group_table(
    partials: rd.Dataset,
    keys: list[str],
    aggs: list[tuple[str, str]],
    max_rows: int = 4_000_000,
) -> "pa.Table | rd.Dataset | None":
    """The driver-merged Arrow table behind :func:`bounded_group_reduce`
    (callers that keep working on the bounded result — CDF walks, rank
    maps — use the table directly). Returns None on empty input and a
    Dataset (distributed fallback) past ``max_rows``."""
    agg_ops = {"sum": Sum, "min": Min, "max": Max}
    # pull INCREMENTALLY with an early abort: checking the guard only
    # after materializing everything would OOM the driver first at a
    # huge #groups × #blocks product. Blocks already fetched stay
    # ≤ max_rows + one block; past the guard, fall back distributed —
    # over the ALREADY-COMPUTED block refs (from_arrow_refs), never by
    # re-executing the upstream lineage.
    # materialize() BEFORE to_arrow_refs: on a live plan, to_arrow_refs
    # runs the plan AND a second limit-1 schema probe — which cannot
    # early-stop through an upstream Sort/shuffle barrier, so heavy
    # plans executed twice (measured: 2.4 s of 6.5 s on the Q5 join).
    # On a MaterializedDataset the refs call is metadata-only.
    refs = partials.materialize().to_arrow_refs()
    tables: list[pa.Table] = []
    pulled = 0
    over = False
    for ref in refs:
        t = ray.get(ref)
        if t.num_rows == 0:
            continue
        tables.append(t)
        pulled += t.num_rows
        if pulled > max_rows:
            over = True
            break
    if not tables:
        return None
    if over:
        return rd.from_arrow_refs(refs).groupby(keys).aggregate(
            *[agg_ops[how](c, alias_name=c) for c, how in aggs]
        )
    g = pa.concat_tables(tables, promote_options="permissive").group_by(
        keys
    ).aggregate([(c, how) for c, how in aggs])
    return g.rename_columns(list(keys) + [c for c, _ in aggs])


def bounded_group_table_strict(
    partials: rd.Dataset,
    keys: list[str],
    aggs: list[tuple[str, str]],
    max_rows: int = 4_000_000,
) -> pa.Table | None:
    """Like :func:`bounded_group_table` but ALWAYS a table (or None on
    empty input) — for callers whose next step is inherently
    driver-side (CDF walks, rank maps, rollup derivation). When the
    partial rows trip the guard, the distributed groupby still runs
    over the computed refs and the AGGREGATED result (one row per
    group) is pulled; if even that exceeds ``max_rows``, the domain
    isn't bounded and the caller's plan is wrong — raise instead of
    OOMing the driver."""
    g = bounded_group_table(partials, keys, aggs, max_rows=max_rows)
    if g is None or isinstance(g, pa.Table):
        return g
    tables, pulled = [], 0
    for ref in g.materialize().to_arrow_refs():
        t = ray.get(ref)
        if t.num_rows == 0:
            continue
        tables.append(t)
        pulled += t.num_rows
        if pulled > max_rows:
            raise ValueError(
                f"bounded_group_table_strict: aggregated result exceeds "
                f"{max_rows} rows on keys {keys} — the group domain is "
                f"not bounded; use a distributed plan instead"
            )
    if not tables:
        return None
    return pa.concat_tables(tables, promote_options="permissive")
