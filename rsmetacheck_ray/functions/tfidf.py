"""Per-document top-k TF-IDF terms — the keyword-extraction /
topic-signature pass of a corpus pipeline (salient terms per page for
quality filtering, clustering features, index building).

The reference has no TF-IDF analog (its closest shape is the per-repo
metadata aggregation of ``detect_pitfalls_main.py``); this is one of
the beyond-reference corpus operators the 100 TB brief calls for.

Semantics (frozen, SQL-differential oracle ``tfidf_top_terms``):

 - term       = canonical whitespace token (``tokenize.WS_TOKEN_RE``)
 - tf         = occurrences of the term in the document
 - df         = number of documents containing the term
 - idf        = ln(N / df), N = corpus document count
 - score      = tf · idf, ranked per document by
                (score DESC, term ASC) — ties broken lexicographically
 - output     = the top ``k`` rows per document with their 1-based rank

**Float discipline**: numpy's SIMD ``np.log`` differs from DuckDB's
``ln`` by ≤1 ulp (measured), which would break the value-hash oracle.
idf is therefore computed with ``math.log`` — bit-identical to
DuckDB's ``ln`` (both call libm) — once per DISTINCT df value (the
distinct-count set is tiny), then gathered; the ``tf * idf`` multiply
and the ``N / df`` divide are single IEEE ops, identical everywhere.

Scale shape (100 TB discipline): two corpus passes, no more.

 1. **DF pass** (partial-combined): per batch, per-document-distinct
    terms collapse through one Arrow ``group_by`` so the global
    ``groupby(term).sum`` ships per-batch partials only.
 2. **Score pass**, size-gated like ``pipelines/join.py``'s plan:
    - *broadcast* (df table ≤ ``broadcast_max_terms``): the sorted
      (term, df) arrays ride the object store once; each batch scores
      and top-k's its own documents — a document is one row, so its
      whole posting list is batch-local and NO second shuffle exists.
    - *shuffle* (web-scale vocabularies): tf rows and df rows union
      with a side tag, ONE hashed-term partition joins them
      (vectorized searchsorted per partition), then ONE hashed-doc
      partition runs the same vectorized segment top-k. Both partition
      counts are size-adaptive (``partitioning.adaptive_partitions``).

Both paths produce identical rows (pinned by a pytest differential).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from .tokenize import tokens_with_doc_index

DEFAULT_K = 5
# broadcast gate: ~24 B/term ⇒ 4M terms ≈ 100 MB object-store payload
BROADCAST_MAX_TERMS = 4_000_000

_OUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("term", pa.string()),
        ("tf", pa.int64()),
        ("df", pa.int64()),
        ("score", pa.float64()),
        ("rnk", pa.int64()),
    ]
)


def _batch_tf(
    batch: pa.Table, text_col: str, id_col: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(doc_id, term, tf) rows for one batch, distinct per (doc, term).
    Vectorized: one split, dictionary encode, lexsort, run-length."""
    ids = pc.cast(batch.column(id_col), pa.int64()).to_numpy(
        zero_copy_only=False
    )
    doc_idx, denc = tokens_with_doc_index(batch.column(text_col))
    if denc is None:
        e = np.empty(0, np.int64)
        return e, np.empty(0, object), e
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((codes, doc_idx))
    d, c = doc_idx[order], codes[order]
    first = np.empty(len(d), dtype=bool)
    first[0] = True
    first[1:] = (d[1:] != d[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(first)
    tf = np.diff(np.append(starts, len(d))).astype(np.int64)
    vocab = denc.dictionary.to_numpy(zero_copy_only=False)  # object strs
    return ids[d[starts]], vocab[c[starts]], tf


def _idf(df: np.ndarray, n_docs: int) -> np.ndarray:
    """ln(N/df) per row via ``math.log`` over the DISTINCT df values —
    bit-identical to DuckDB ``ln(CAST(N AS DOUBLE)/CAST(df AS
    DOUBLE))`` (same libm; numpy's SIMD log is ≤1 ulp off)."""
    uniq, inv = np.unique(df, return_inverse=True)
    lut = np.array(
        [math.log(n_docs / int(v)) for v in uniq], dtype=np.float64
    )
    return lut[inv]


def _topk_segments(
    doc: np.ndarray,
    term: np.ndarray,
    tf: np.ndarray,
    df: np.ndarray,
    n_docs: int,
    k: int,
) -> pa.Table:
    """Vectorized per-document top-k over (score DESC, term ASC):
    one lexsort, segment boundaries, rank-in-segment mask — zero
    Python-per-document."""
    if len(doc) == 0:
        return _OUT_SCHEMA.empty_table()
    score = tf.astype(np.float64) * _idf(df, n_docs)
    order = np.lexsort((term, -score, doc))
    d = doc[order]
    starts = np.flatnonzero(np.concatenate(([True], d[1:] != d[:-1])))
    seg_len = np.diff(np.append(starts, len(d)))
    rnk = np.arange(len(d), dtype=np.int64) - np.repeat(starts, seg_len) + 1
    keep = rnk <= k
    sel = order[keep]
    return pa.table(
        {
            "doc_id": pa.array(doc[sel], pa.int64()),
            "term": pa.array(term[sel].tolist(), pa.string()),
            "tf": pa.array(tf[sel], pa.int64()),
            "df": pa.array(df[sel], pa.int64()),
            "score": pa.array(score[sel], pa.float64()),
            "rnk": pa.array(rnk[keep], pa.int64()),
        }
    )


def document_frequencies(
    ds: rd.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> rd.Dataset:
    """(term, df) over the corpus — partial-combined: per-batch
    per-doc-distinct terms collapse through one Arrow group_by, the
    global shuffle ships per-batch partials only."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        _, terms, _ = _batch_tf(b, text_col, id_col)
        if len(terms) == 0:
            return pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                }
            )
        g = (
            pa.table({"term": pa.array(terms.tolist(), pa.string())})
            .group_by("term")
            .aggregate([("term", "count")])
        )
        return pa.table(
            {
                "term": g.column("term"),
                "df": pc.cast(g.column("term_count"), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"))
    )


class _BroadcastScoreStage:
    """Score + per-doc top-k with the (sorted term, df) arrays fetched
    once per worker (cached tasks). A document is one input row, so
    its posting list is batch-local — no shuffle after this stage."""

    def __init__(self, df_ref, text_col, id_col, n_docs, k):
        self.terms, self.dfs = ray.get(df_ref)
        self.text_col, self.id_col = text_col, id_col
        self.n_docs, self.k = n_docs, k

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc, term, tf = _batch_tf(batch, self.text_col, self.id_col)
        if len(doc) == 0:
            return _OUT_SCHEMA.empty_table()
        # df lookup per UNIQUE batch term (terms built from the same
        # corpus+tokenizer always hit; missing ⇒ df=1 for robustness)
        uniq, inv = np.unique(term, return_inverse=True)
        pos = np.minimum(
            np.searchsorted(self.terms, uniq), max(len(self.terms) - 1, 0)
        )
        found = (
            self.terms[pos] == uniq
            if len(self.terms)
            else np.zeros(len(uniq), bool)
        )
        udf = np.where(found, self.dfs[pos], 1).astype(np.int64)
        return _topk_segments(doc, term, tf, udf[inv], self.n_docs, self.k)


def tfidf_top_terms(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = DEFAULT_K,
    n_docs: int | None = None,
    broadcast_max_terms: int = BROADCAST_MAX_TERMS,
    num_partitions: int | None = None,
) -> rd.Dataset:
    """Top ``k`` TF-IDF terms per document:
    (doc_id, term, tf, df, score, rnk)."""
    from ..partitioning import adaptive_partitions, parquet_rows_hint

    if n_docs is None:
        n_docs = parquet_rows_hint(ds) or ds.count()
    df_tbl = document_frequencies(ds, text_col, id_col)

    # --- size gate: count the vocabulary from the materialized df ---
    df_tbl = df_tbl.materialize()
    n_terms = df_tbl.count()
    if n_terms <= broadcast_max_terms:
        parts = [
            (
                b.column("term").to_numpy(zero_copy_only=False),
                b.column("df").to_numpy(zero_copy_only=False),
            )
            for b in df_tbl.iter_batches(batch_format="pyarrow")
            if b.num_rows
        ]
        if parts:
            terms = np.concatenate([p[0] for p in parts])
            dfs = np.concatenate([p[1] for p in parts]).astype(np.int64)
            order = np.argsort(terms)
            terms, dfs = terms[order], dfs[order]
        else:
            terms = np.empty(0, object)
            dfs = np.empty(0, np.int64)
        from .taskcache import cached_stage

        df_ref = ray.put((terms, dfs))
        return ds.map_batches(
            cached_stage(
                _BroadcastScoreStage, df_ref, text_col, id_col, n_docs, k
            ),
            batch_format="pyarrow",
        )

    # --- shuffle plan: term-keyed join, then doc-keyed top-k ---------
    # ~40-60 per-(doc, term) rows per document enter the shuffle —
    # adaptive_partitions' contract wants the POST-fan-out row count
    n_parts = num_partitions or adaptive_partitions(
        (parquet_rows_hint(ds) or 0) * 48 or None, row_bytes=48
    )
    from .hashing import token_partitions

    def _term_parts(terms: np.ndarray) -> np.ndarray:
        return token_partitions(terms, n_parts)

    def tf_rows(b: pa.Table) -> pa.Table:
        doc, term, tf = _batch_tf(b, text_col, id_col)
        return pa.table(
            {
                "tpart": pa.array(_term_parts(term)),
                "side": pa.array(np.zeros(len(doc), np.int64)),
                "doc_id": pa.array(doc, pa.int64()),
                "term": pa.array(term.tolist(), pa.string()),
                "n": pa.array(tf, pa.int64()),
            }
        )

    def df_rows(b: pa.Table) -> pa.Table:
        tl = np.asarray(b.column("term").to_pylist(), dtype=object)
        z = np.full(b.num_rows, -1, np.int64)
        return pa.table(
            {
                "tpart": pa.array(
                    _term_parts(tl)
                    if b.num_rows
                    else np.empty(0, np.int64)
                ),
                "side": pa.array(np.ones(b.num_rows, np.int64)),
                "doc_id": pa.array(z, pa.int64()),
                "term": b.column("term"),
                "n": b.column("df"),
            }
        )

    tagged = ds.map_batches(tf_rows, batch_format="pyarrow").union(
        df_tbl.map_batches(df_rows, batch_format="pyarrow")
    )

    def join_part(grp: pa.Table) -> pa.Table:
        side = grp.column("side").to_numpy(zero_copy_only=False)
        term = np.asarray(grp.column("term").to_pylist(), dtype=object)
        n = grp.column("n").to_numpy(zero_copy_only=False)
        doc = grp.column("doc_id").to_numpy(zero_copy_only=False)
        is_df = side == 1
        dterms, dvals = term[is_df], n[is_df]
        order = np.argsort(dterms)
        dterms, dvals = dterms[order], dvals[order]
        tdoc, tterm, ttf = doc[~is_df], term[~is_df], n[~is_df]
        if len(tdoc) == 0:
            return pa.table(
                {
                    "dpart": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "term": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                    "df": pa.array([], pa.int64()),
                }
            )
        pos = np.minimum(
            np.searchsorted(dterms, tterm), max(len(dterms) - 1, 0)
        )
        found = (
            dterms[pos] == tterm
            if len(dterms)
            else np.zeros(len(tterm), bool)
        )
        dfv = np.where(found, dvals[pos], 1).astype(np.int64)
        dpart = (tdoc.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) % (
            np.uint64(n_parts)
        )
        return pa.table(
            {
                "dpart": pa.array(dpart.astype(np.int64)),
                "doc_id": pa.array(tdoc, pa.int64()),
                "term": pa.array(tterm.tolist(), pa.string()),
                "tf": pa.array(ttf, pa.int64()),
                "df": pa.array(dfv, pa.int64()),
            }
        )

    joined = tagged.groupby("tpart").map_groups(
        join_part, batch_format="pyarrow"
    )

    def topk_part(grp: pa.Table) -> pa.Table:
        return _topk_segments(
            grp.column("doc_id").to_numpy(zero_copy_only=False),
            np.asarray(grp.column("term").to_pylist(), dtype=object),
            grp.column("tf").to_numpy(zero_copy_only=False),
            grp.column("df").to_numpy(zero_copy_only=False),
            n_docs,
            k,
        )

    return joined.groupby("dpart").map_groups(
        topk_part, batch_format="pyarrow"
    )
