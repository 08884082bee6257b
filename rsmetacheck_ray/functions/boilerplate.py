"""Corpus-frequency boilerplate line removal — drop every line that
appears in at least ``min_df`` DISTINCT documents (nav bars, footers,
license banners, cookie notices: the lines web templates stamp onto
millions of pages). This is the corpus-level line scrub of the CCNet /
RefinedWeb lineage, distinct from the PER-DOCUMENT ``boilerplate_only``
rule (stages/rules.py, the recast of the reference's copyright-header
classifier ``p010.py``): that one inspects a document in isolation;
this one needs a corpus-wide document-frequency pass.

Two streaming passes, no all-to-all on document payloads:

 1. **df pass** — ``map_batches`` splits each document into lines,
    hashes them (vectorized, ``hash_str_arrow_u128`` lo lane), dedups
    (doc, line) WITHIN the batch and emits per-batch partial counts:
    only the batch's UNIQUE ``(line_hash u64, n_docs i64)`` rows ever
    shuffle — bounded by the batch's line vocabulary, not its line
    count. A small global ``groupby(line_hash).sum`` then yields
    document frequencies, and ``n_docs >= min_df`` prunes to the hot
    set.
 2. **scrub pass** — the hot hashes broadcast ONCE (``ray.put``; the
    hot-set size is at most total_lines / min_df, and in practice the
    handful of template lines min_df is chosen to catch); a cached-
    task stage re-splits each document, drops hot lines via a vectorized
    ``searchsorted`` membership probe, and reassembles the survivors
    with one Arrow ``binary_join`` — order preserved, every instance
    of a hot line removed (df counts a doc once; the scrub removes all
    its copies).

Hash membership stands in for string membership with the same ~2⁻⁶⁴
collision caveat documented for decontamination (functions/
decontaminate.py); the SQL oracle joins on the line STRINGS, so the
differential would catch any collision at test scale.

The reference has no analog (its checks are per-document); the
operator exists for the 100 TB training-data pipeline this engine
targets, where template boilerplate inflates token counts and poisons
dedup statistics.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from .hashing import hash_str_arrow_u128

DEFAULT_MIN_DF = 3

_SCRUB_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("text_scrubbed", pa.string()),
        ("n_lines_removed", pa.int64()),
    ]
)


def _batch_lines(
    arr: pa.Array | pa.ChunkedArray,
) -> tuple[np.ndarray, pa.Array, np.ndarray]:
    """Split a batch's text column into lines: (per-line doc index,
    flat line array, per-line hash as int64 view). Nulls read as ''
    (one empty line) — the SQL oracle mirrors this with
    ``string_split(coalesce(text, ''), ...)``, since DuckDB's unnest
    over a NULL split would instead drop the document."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    lines = pc.split_pattern(pc.fill_null(arr, ""), pattern="\n")
    off = lines.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = lines.flatten()
    doc_idx = np.repeat(np.arange(len(lines), dtype=np.int64), np.diff(off))
    h, _ = hash_str_arrow_u128(flat)
    # int64 two's-complement view: Ray groupby keys must be int64
    # (uint64 keys round-trip through Python ints and overflow); only
    # hash EQUALITY matters here, which the reinterpret preserves
    return doc_idx, flat, h.view(np.int64)


def line_doc_frequency(
    pages: rd.Dataset, text_col: str = "text"
) -> rd.Dataset:
    """(line_hash, n_docs) — in how many DISTINCT documents each line
    occurs. Partial-combined: per batch, (doc, line) pairs are deduped
    and counted locally, so the global groupby ships one row per batch
    per distinct line, never one per line instance."""

    def partial(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "line_hash": pa.array([], pa.int64()),
                "n_docs": pa.array([], pa.int64()),
            }
        )
        if b.num_rows == 0:
            return empty
        doc_idx, _, h = _batch_lines(b.column(text_col))
        if len(h) == 0:
            return empty
        # first occurrence of each (doc, line_hash) pair
        order = np.lexsort((h, doc_idx))
        ds_, hs_ = doc_idx[order], h[order]
        first = np.empty(len(hs_), dtype=bool)
        first[0] = True
        first[1:] = (ds_[1:] != ds_[:-1]) | (hs_[1:] != hs_[:-1])
        vals, counts = np.unique(hs_[first], return_counts=True)
        return pa.table(
            {
                "line_hash": pa.array(vals, pa.int64()),
                "n_docs": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    return (
        pages.map_batches(partial, batch_format="pyarrow")
        .groupby("line_hash")
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )


def hot_line_hashes(
    pages: rd.Dataset, min_df: int, text_col: str = "text"
) -> np.ndarray:
    """Sorted (int64-view) hashes of lines whose document frequency is at least
    ``min_df``. Only the hot rows reach the driver — at most
    total_lines / min_df of the line vocabulary, in practice the few
    template lines the threshold is chosen to catch."""
    df = line_doc_frequency(pages, text_col)
    hot = df.filter(expr=f"n_docs >= {int(min_df)}")
    parts: list[np.ndarray] = []
    for b in hot.iter_batches(batch_format="pyarrow"):
        parts.append(b.column("line_hash").to_numpy(zero_copy_only=False))
    if not parts:
        return np.empty(0, np.int64)
    return np.sort(np.concatenate(parts).astype(np.int64))


class _LineScrub:
    """Broadcast-probe stage run as CACHED TASKS (taskcache.py): hot-
    line hashes fetched from the object store once per worker process;
    per batch, one split + hash + ``searchsorted`` membership probe,
    then one ``binary_join`` reassembly."""

    def __init__(self, hot_ref, id_col: str, text_col: str):
        self.hot = ray.get(hot_ref)  # sorted int64 hash views
        self.id_col, self.text_col = id_col, text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return _SCRUB_SCHEMA.empty_table()
        ids = pc.cast(batch.column(self.id_col), pa.int64())
        doc_idx, flat, h = _batch_lines(batch.column(self.text_col))
        if len(self.hot) == 0:
            text = batch.column(self.text_col)
            if isinstance(text, pa.ChunkedArray):
                text = text.combine_chunks()
            return pa.table(
                {
                    "doc_id": ids,
                    "text_scrubbed": pc.fill_null(text, ""),
                    "n_lines_removed": pa.array([0] * n, pa.int64()),
                }
            )
        pos = np.searchsorted(self.hot, h)
        pos_c = np.minimum(pos, len(self.hot) - 1)
        hit = self.hot[pos_c] == h
        keep = ~hit
        kept_per_doc = np.bincount(doc_idx[keep], minlength=n)
        removed_per_doc = np.bincount(doc_idx[hit], minlength=n)
        # offsets index line ITEMS (not bytes): a batch never holds
        # 2^31 lines, so int32 list offsets are safe
        offsets = np.concatenate(
            [np.zeros(1, np.int32), np.cumsum(kept_per_doc, dtype=np.int32)]
        )
        kept_lines = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), flat.filter(pa.array(keep))
        )
        return pa.table(
            {
                "doc_id": ids,
                "text_scrubbed": pc.binary_join(kept_lines, "\n"),
                "n_lines_removed": pa.array(
                    removed_per_doc.astype(np.int64), pa.int64()
                ),
            }
        )


def scrub_boilerplate_lines(
    df_pages: rd.Dataset,
    corpus: rd.Dataset,
    min_df: int = DEFAULT_MIN_DF,
    id_col: str = "doc_id",
    text_col: str = "text",
    concurrency: tuple[int, int] | int | None = None,
) -> rd.Dataset:
    """(doc_id, text_scrubbed, n_lines_removed) for every corpus
    document, with every line whose corpus document frequency is
    ≥ ``min_df`` removed (all instances; survivors keep their order;
    a document whose every line is hot scrubs to the empty string).

    ``concurrency`` is accepted for API stability but unused — the
    scrub runs as cached tasks (taskcache.py), which auto-scale.

    ``df_pages`` and ``corpus`` are two handles on the SAME input (the
    two streaming passes of a two-pass algorithm — Ray datasets are
    consumed by execution, so the caller supplies the read twice, the
    ``contaminated_docs`` convention)."""
    from .taskcache import cached_stage

    hot = hot_line_hashes(df_pages, min_df, text_col)
    hot_ref = ray.put(hot)
    return corpus.map_batches(
        cached_stage(_LineScrub, hot_ref, id_col, text_col),
        batch_format="pyarrow",
    )
