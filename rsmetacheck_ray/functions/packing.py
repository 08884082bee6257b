"""Sequence packing — map each document onto the fixed-length training
sequences it will occupy (the concat-then-chunk batching step every
pretraining pipeline runs after the quality gate and dedup: documents
in a shard are concatenated in doc-id order and the token stream is
cut into ``seq_len``-token sequences).

The reference has no analog (SURVEY §2 ends at per-document scoring);
this completes the engine's gate → dedup → balance → PACK chain.

Semantics (oracle-checked in SQL): within each shard
(``doc_id // shard_size`` — the unit a trainer reads), documents are
ordered by doc id; a document whose span of the concatenated token
stream is [start, start+n) occupies sequences ``start // seq_len``
through ``(start+n-1) // seq_len``. Zero-token documents occupy no
sequence and are omitted.

Scale plan: the only shuffle is the 32-byte (doc_id, n_tokens, shard,
part)
projection onto a size-adaptive HASHED SHARD PARTITION; each
``map_groups`` call computes every shard of its partition in one
lexsort + segment-reset cumulative sum (the Python-call count is
O(#partitions), not O(#shards)). Token counting
is the vectorized RE2 pass of functions/tokenize.py; the text never
shuffles. Packing is shard-local by construction, exactly like the
training shards it models, so a 100 TB corpus packs embarrassingly
parallel."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from .hashing import splitmix64_np
from .tokenize import count_ws_tokens

DEFAULT_SEQ_LEN = 1024
DEFAULT_SHARD_SIZE = 4096


def pack_sequences(
    ds: rd.Dataset,
    seq_len: int = DEFAULT_SEQ_LEN,
    shard_size: int = DEFAULT_SHARD_SIZE,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int | None = None,
    tokens_col: str | None = None,
) -> rd.Dataset:
    """(id, shard, n_tokens, seq_first, seq_last) per non-empty doc."""
    from ..partitioning import adaptive_partitions, parquet_rows_hint

    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ds), row_bytes=32
    )

    def tag(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if tokens_col is not None:
            # pre-counted tokens (composed pipelines that already
            # shuffled a (doc, n_tokens) projection — text never moves)
            nt = pc.cast(b.column(tokens_col), pa.int64()).to_numpy(
                zero_copy_only=False
            )
        else:
            text = b.column(text_col)
            if isinstance(text, pa.ChunkedArray):
                text = text.combine_chunks()
            nt = count_ws_tokens(pc.fill_null(text, "")).to_numpy(
                zero_copy_only=False
            )
        shard = ids // shard_size
        part = (splitmix64_np(shard.astype(np.uint64)) % n_parts).astype(
            np.int64
        )
        keep = nt > 0
        return pa.table(
            {
                "part": pa.array(part[keep]),
                id_col: pa.array(ids[keep]),
                "shard": pa.array(shard[keep]),
                "n_tokens": pa.array(nt[keep]),
            }
        )

    def pack_part(g: pa.Table) -> pa.Table:
        n = len(g)
        if n == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "shard": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "seq_first": pa.array([], pa.int64()),
                    "seq_last": pa.array([], pa.int64()),
                }
            )
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        shard = g.column("shard").to_numpy(zero_copy_only=False)
        nt = g.column("n_tokens").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, shard))
        ids, shard, nt = ids[order], shard[order], nt[order]
        # per-shard exclusive cumsum via one global cumsum with a
        # segment reset at every shard boundary
        csum = np.concatenate([[0], np.cumsum(nt)[:-1]])
        new_shard = np.empty(n, dtype=bool)
        new_shard[0] = True
        new_shard[1:] = shard[1:] != shard[:-1]
        seg_base = csum[new_shard][np.cumsum(new_shard) - 1]
        start = csum - seg_base
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "shard": pa.array(shard, pa.int64()),
                "n_tokens": pa.array(nt.astype(np.int64), pa.int64()),
                "seq_first": pa.array(start // seq_len, pa.int64()),
                "seq_last": pa.array((start + nt - 1) // seq_len, pa.int64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(pack_part, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# First-Fit-Decreasing bin packing (round-4): pack whole documents into
# fixed-capacity sequences WITHOUT splitting them — the alternative to
# pack_sequences' concat-then-chunk when document boundaries must
# survive (no cross-document attention contamination).
# ---------------------------------------------------------------------------

DEFAULT_CAPACITY = 1024


def pack_ffd(
    ds: rd.Dataset,
    capacity: int = DEFAULT_CAPACITY,
    shard_size: int = DEFAULT_SHARD_SIZE,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int | None = None,
    tokens_col: str | None = None,
) -> rd.Dataset:
    """(id, shard, n_tokens, bin): First-Fit-Decreasing assignment of
    each non-empty document to a fixed-``capacity`` bin within its
    shard. Docs sort by (n_tokens DESC, id ASC) and each takes the
    first bin it fits; a doc longer than ``capacity`` gets a bin of
    its own (flagged by n_tokens > capacity — callers truncate or
    split downstream). FFD is the classic 11/9·OPT+1 heuristic; the
    greedy is inherently sequential, so this operator is rows-only
    (pinned by invariant pytests: capacity respected, deterministic,
    never more bins than next-fit, partition-invariant).

    Scale plan: identical to pack_sequences — ONE 32-byte projection
    shuffle onto hashed shard partitions; the per-shard greedy is
    bounded by ``shard_size`` docs (Python cost O(docs·bins) with
    bins ≤ docs ≤ 4096 per shard — the trainer-shard unit, not the
    corpus)."""
    from ..partitioning import adaptive_partitions, parquet_rows_hint

    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ds), row_bytes=32
    )

    def tag(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if tokens_col is not None:
            # pre-counted tokens (composed pipelines that already
            # shuffled a (doc, n_tokens) projection — text never moves)
            nt = pc.cast(b.column(tokens_col), pa.int64()).to_numpy(
                zero_copy_only=False
            )
        else:
            text = b.column(text_col)
            if isinstance(text, pa.ChunkedArray):
                text = text.combine_chunks()
            nt = count_ws_tokens(pc.fill_null(text, "")).to_numpy(
                zero_copy_only=False
            )
        shard = ids // shard_size
        part = (splitmix64_np(shard.astype(np.uint64)) % n_parts).astype(
            np.int64
        )
        keep = nt > 0
        return pa.table(
            {
                "part": pa.array(part[keep]),
                id_col: pa.array(ids[keep]),
                "shard": pa.array(shard[keep]),
                "n_tokens": pa.array(nt[keep]),
            }
        )

    def pack_part(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "shard": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "bin": pa.array([], pa.int64()),
            }
        )
        n = len(g)
        if n == 0:
            return empty
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        shard = g.column("shard").to_numpy(zero_copy_only=False)
        nt = g.column("n_tokens").to_numpy(zero_copy_only=False)
        # FFD order inside each shard: size DESC, id ASC
        order = np.lexsort((ids, -nt, shard))
        ids, shard, nt = ids[order], shard[order], nt[order]
        bins_out = np.empty(n, np.int64)
        i = 0
        while i < n:
            j = i
            while j < n and shard[j] == shard[i]:
                j += 1
            fills: list[int] = []  # remaining capacity per open bin
            for r in range(i, j):
                size = int(nt[r])
                placed = -1
                if size <= capacity:
                    for bi, rem in enumerate(fills):
                        if size <= rem:
                            placed = bi
                            break
                if placed < 0:
                    fills.append(capacity - size)
                    placed = len(fills) - 1
                else:
                    fills[placed] -= size
                bins_out[r] = placed
            i = j
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "shard": pa.array(shard, pa.int64()),
                "n_tokens": pa.array(nt.astype(np.int64), pa.int64()),
                "bin": pa.array(bins_out, pa.int64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(pack_part, batch_format="pyarrow")
    )
