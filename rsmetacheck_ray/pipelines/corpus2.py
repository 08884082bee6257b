"""Corpus batch 2 (round 4, continuation): four text / embedding
statistics the suite did not yet cover —

- per-document script mix (ASCII letter / digit / whitespace /
  punctuation character-class counts and shares — the
  character-composition quality signal, a finer cut than the gate's
  symbol-ratio rule),
- per-language type–token ratio (lexical diversity: distinct token
  types vs token occurrences per language),
- vocabulary growth (Heaps'-law curve: cumulative distinct vocabulary
  and token counts at ten document checkpoints),
- per-label embedding centroids in exact fixed point (the class
  prototype vectors, hash-comparable because every sum is an integer).

The reference has no corpus statistics at all (single-process JSON
metadata walk); these extend the SURVEY §2.6 aggregation axis over the
`documents` / `embeddings` tables the same way corpus.py does.

Scale notes. script-mix is a pure per-batch RE2 column pass (zero
shuffle). TTR ships per-batch-distinct (lang, token, n) partials
through ONE token-hash shuffle and reduces |langs| rows. vocab-growth
reads doc-id bounds from parquet FOOTER statistics (no data read),
ships per-batch (token → min doc) partials through one token-hash
shuffle, and both of its reduces are bounded by the checkpoint count.
centroids emit (label × dim) integer partial sums per batch — the
whole reduce is |labels| × dim rows regardless of corpus size.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..functions.hashing import token_partitions
from ..functions.tokenize import WS_TOKEN_RE, split_ws_tokens
from ..partitioning import (
    adaptive_partitions,
    bounded_group_table_strict,
    parquet_rows_hint,
    read_pq,
)


def _docs(sf_dir: str, columns: list[str]) -> rd.Dataset:
    return read_pq(os.path.join(sf_dir, "documents.parquet"), columns=columns)


# ---------------------------------------------------------------------------
# Per-document script mix.
# ---------------------------------------------------------------------------

# explicit ASCII classes, spelled identically in both RE2 engines
# (pyarrow and DuckDB both compile RE2 — class semantics match)
_LETTER_RE = "[A-Za-z]"
_DIGIT_RE = "[0-9]"
_SPACE_RE = "[ \\t\\n\\r]"
_PUNCT_RE = "[!-/:-@\\[-`{-~]"


def doc_script_mix(sf_dir: str) -> rd.Dataset:
    """(doc_id, n_chars, n_letters, n_digits, n_spaces, n_punct,
    n_other, letter_share, space_share): ASCII character-class
    composition per document. Pure per-batch column kernels — zero
    shuffle, streams at any scale; the shares are single divisions of
    exact integers, written identically in the oracle."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def stage(b: pa.Table) -> pa.Table:
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()

        def cnt(p):
            return pc.cast(
                pc.count_substring_regex(text, p), pa.int64()
            ).to_numpy(zero_copy_only=False)

        n = pc.cast(pc.utf8_length(text), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        let, dig = cnt(_LETTER_RE), cnt(_DIGIT_RE)
        spc, pun = cnt(_SPACE_RE), cnt(_PUNCT_RE)
        nz = np.maximum(n, 1).astype(np.float64)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_chars": pa.array(n),
                "n_letters": pa.array(let),
                "n_digits": pa.array(dig),
                "n_spaces": pa.array(spc),
                "n_punct": pa.array(pun),
                "n_other": pa.array(n - let - dig - spc - pun),
                "letter_share": pa.array(
                    np.where(n == 0, 0.0, let / nz), pa.float64()
                ),
                "space_share": pa.array(
                    np.where(n == 0, 0.0, spc / nz), pa.float64()
                ),
            }
        )

    return ds.map_batches(stage, batch_format="pyarrow")


DOC_SCRIPT_MIX_SQL = f"""
WITH c AS (
  SELECT doc_id, length(text) AS n,
    len(regexp_extract_all(text, '{_LETTER_RE}')) AS nl,
    len(regexp_extract_all(text, '{_DIGIT_RE}')) AS nd,
    len(regexp_extract_all(text, '{_SPACE_RE}')) AS ns,
    len(regexp_extract_all(text, '{_PUNCT_RE}')) AS np
  FROM documents
)
SELECT doc_id,
  CAST(n AS BIGINT) AS n_chars,
  CAST(nl AS BIGINT) AS n_letters,
  CAST(nd AS BIGINT) AS n_digits,
  CAST(ns AS BIGINT) AS n_spaces,
  CAST(np AS BIGINT) AS n_punct,
  CAST(n - nl - nd - ns - np AS BIGINT) AS n_other,
  CASE WHEN n = 0 THEN 0.0
       ELSE CAST(nl AS DOUBLE) / CAST(n AS DOUBLE) END AS letter_share,
  CASE WHEN n = 0 THEN 0.0
       ELSE CAST(ns AS DOUBLE) / CAST(n AS DOUBLE) END AS space_share
FROM c
"""


# ---------------------------------------------------------------------------
# Per-language type–token ratio.
# ---------------------------------------------------------------------------

def lang_ttr(sf_dir: str, num_partitions: int | None = None) -> rd.Dataset:
    """(lang, n_tokens, n_types, ttr): lexical diversity per language —
    distinct whitespace-token types over total token occurrences.

    Plan: each batch pre-combines to (lang, token, n) rows before the
    single token-hash shuffle (repeats collapse early); each partition
    owns a disjoint token range per language, so distinct-type counts
    add without overlap; the final reduce is |langs| rows."""
    ds = _docs(sf_dir, ["lang", "text"])
    hint = parquet_rows_hint(ds)
    n_parts = num_partitions or adaptive_partitions(
        hint * 64 if hint else None, row_bytes=32
    )

    def pairs(b: pa.Table) -> pa.Table:
        words = split_ws_tokens(b.column("text"))
        off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = words.flatten()
        doc_idx = np.repeat(np.arange(len(words), dtype=np.int64), np.diff(off))
        mask = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        langs = b.column("lang").take(pa.array(doc_idx[mask], pa.int64()))
        t = pa.table({"lang": langs, "token": flat.filter(pa.array(mask))})
        g = t.group_by(["lang", "token"]).aggregate([([], "count_all")])
        g = g.rename_columns(["lang", "token", "n"])
        vocab = np.asarray(g.column("token").to_pylist(), dtype=object)
        return pa.table(
            {
                "part": pa.array(
                    token_partitions(vocab, n_parts).astype(np.int64),
                    pa.int64(),
                ),
                "lang": g.column("lang"),
                "token": g.column("token"),
                "n": pc.cast(g.column("n"), pa.int64()),
            }
        )

    def part_stats(g: pa.Table) -> pa.Table:
        t = (
            g.select(["lang", "token", "n"])
            .group_by(["lang", "token"])
            .aggregate([("n", "sum")])
            .rename_columns(["lang", "token", "n"])
        )
        out = t.group_by("lang").aggregate([("n", "sum"), ([], "count_all")])
        return out.rename_columns(["lang", "n_tokens", "n_types"])

    per_part = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_stats, batch_format="pyarrow")
    )
    tbl = bounded_group_table_strict(
        per_part, ["lang"], [("n_tokens", "sum"), ("n_types", "sum")]
    )
    if tbl is None:
        return rd.from_arrow(
            pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    "n_tokens": pa.array([], pa.int64()),
                    "n_types": pa.array([], pa.int64()),
                    "ttr": pa.array([], pa.float64()),
                }
            )
        )
    nt = tbl.column("n_tokens").to_numpy(zero_copy_only=False)
    ty = tbl.column("n_types").to_numpy(zero_copy_only=False)
    out = tbl.append_column(
        "ttr", pa.array(ty.astype(np.float64) / nt.astype(np.float64))
    )
    return rd.from_arrow(out).sort("lang")


LANG_TTR_SQL = f"""
WITH tok AS (
  SELECT lang, unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS token
  FROM documents
)
SELECT lang,
  CAST(COUNT(*) AS BIGINT) AS n_tokens,
  CAST(COUNT(DISTINCT token) AS BIGINT) AS n_types,
  CAST(COUNT(DISTINCT token) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS ttr
FROM tok
GROUP BY lang
ORDER BY lang
"""


# ---------------------------------------------------------------------------
# Vocabulary growth (Heaps'-law curve).
# ---------------------------------------------------------------------------

def _docid_bounds(sf_dir: str) -> tuple[int, int] | None:
    """(min, max) doc_id from parquet FOOTER row-group statistics —
    no data pages are read."""
    import pyarrow.parquet as pq

    f = pq.ParquetFile(os.path.join(sf_dir, "documents.parquet"))
    idx = f.schema_arrow.get_field_index("doc_id")
    lo, hi = None, None
    for rg in range(f.metadata.num_row_groups):
        st = f.metadata.row_group(rg).column(idx).statistics
        if st is None or not st.has_min_max:
            return None  # stats missing: caller falls back to a scan
        lo = st.min if lo is None else min(lo, st.min)
        hi = st.max if hi is None else max(hi, st.max)
    if lo is None:
        return None
    return int(lo), int(hi)


def vocab_growth(
    sf_dir: str, n_checkpoints: int = 10, num_partitions: int | None = None
) -> rd.Dataset:
    """(k, ck_doc_id, vocab_size, n_tokens): at each of ``n`` doc-id
    checkpoints (equal slices of the id range), the cumulative distinct
    vocabulary (tokens FIRST SEEN at or before the checkpoint) and the
    cumulative token count — the Heaps'-law growth curve.

    Plan: doc-id bounds come from footer statistics; the vocabulary
    side ships per-batch (token → min doc) partials through one
    token-hash shuffle, finishes the min per partition and emits
    ≤``n`` bucket counts; the token side is shuffle-free per-batch
    bucket counts. Both reduces and the driver prefix sums are bounded
    by ``n``."""
    bounds = _docid_bounds(sf_dir)
    if bounds is None:
        from ray.data.aggregate import Max, Min

        agg = _docs(sf_dir, ["doc_id"]).aggregate(Min("doc_id"), Max("doc_id"))
        bounds = (agg["min(doc_id)"], agg["max(doc_id)"])
    mn, mx = bounds
    span = mx - mn + 1
    cks = np.asarray(
        [mn - 1 + (span * k) // n_checkpoints for k in range(1, n_checkpoints + 1)],
        np.int64,
    )

    ds = _docs(sf_dir, ["doc_id", "text"])
    hint = parquet_rows_hint(ds)
    n_parts = num_partitions or adaptive_partitions(
        hint * 64 if hint else None, row_bytes=32
    )

    def first_seen(b: pa.Table) -> pa.Table:
        words = split_ws_tokens(b.column("text"))
        off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = words.flatten()
        doc = b.column("doc_id").to_numpy(zero_copy_only=False)
        doc_rep = np.repeat(doc, np.diff(off))
        mask = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "token": flat.filter(pa.array(mask)),
                "fd": pa.array(doc_rep[mask], pa.int64()),
            }
        ).group_by("token").aggregate([("fd", "min")])
        vocab = np.asarray(t.column("token").to_pylist(), dtype=object)
        return pa.table(
            {
                "part": pa.array(
                    token_partitions(vocab, n_parts).astype(np.int64),
                    pa.int64(),
                ),
                "token": t.column("token"),
                "fd": t.column("fd_min"),
            }
        )

    def bucket_vocab(g: pa.Table) -> pa.Table:
        t = g.select(["token", "fd"]).group_by("token").aggregate([("fd", "min")])
        fd = t.column("fd_min").to_numpy(zero_copy_only=False)
        # bucket = first checkpoint ≥ first-seen doc id
        bk = np.searchsorted(cks, fd, side="left")
        keep = bk < len(cks)  # ids past the last checkpoint can't occur
        cnt = np.bincount(bk[keep], minlength=len(cks)).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(np.arange(len(cks), dtype=np.int64)),
                "n_vocab": pa.array(cnt),
                "n_tok": pa.array(np.zeros(len(cks), np.int64)),
            }
        )

    vocab_partials = (
        ds.map_batches(first_seen, batch_format="pyarrow")
        .groupby("part")
        .map_groups(bucket_vocab, batch_format="pyarrow")
    )

    def bucket_tokens(b: pa.Table) -> pa.Table:
        words = split_ws_tokens(b.column("text"))
        off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = words.flatten()
        doc = b.column("doc_id").to_numpy(zero_copy_only=False)
        mask = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        doc_rep = np.repeat(doc, np.diff(off))[mask]
        bk = np.searchsorted(cks, doc_rep, side="left")
        keep = bk < len(cks)
        cnt = np.bincount(bk[keep], minlength=len(cks)).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(np.arange(len(cks), dtype=np.int64)),
                "n_vocab": pa.array(np.zeros(len(cks), np.int64)),
                "n_tok": pa.array(cnt),
            }
        )

    token_partials = ds.map_batches(bucket_tokens, batch_format="pyarrow")
    tbl = bounded_group_table_strict(
        vocab_partials.union(token_partials),
        ["bucket"],
        [("n_vocab", "sum"), ("n_tok", "sum")],
    )
    if tbl is None:
        nv = np.zeros(len(cks), np.int64)
        nt = np.zeros(len(cks), np.int64)
    else:
        order = np.argsort(
            tbl.column("bucket").to_numpy(zero_copy_only=False), kind="stable"
        )
        nv = tbl.column("n_vocab").to_numpy(zero_copy_only=False)[order]
        nt = tbl.column("n_tok").to_numpy(zero_copy_only=False)[order]
    return rd.from_arrow(
        pa.table(
            {
                "k": pa.array(np.arange(1, len(cks) + 1, dtype=np.int64)),
                "ck_doc_id": pa.array(cks),
                "vocab_size": pa.array(np.cumsum(nv).astype(np.int64)),
                "n_tokens": pa.array(np.cumsum(nt).astype(np.int64)),
            }
        )
    )


VOCAB_GROWTH_SQL = f"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS token
  FROM documents
), fs AS (
  SELECT token, MIN(doc_id) AS fd FROM tok GROUP BY token
), b AS (
  SELECT MIN(doc_id) AS mn, MAX(doc_id) AS mx FROM documents
), cks AS (
  SELECT CAST(k AS BIGINT) AS k,
         CAST(mn - 1 + (mx - mn + 1) * k // 10 AS BIGINT) AS ck
  FROM b, range(1, 11) t(k)
)
SELECT k, ck AS ck_doc_id,
  CAST((SELECT COUNT(*) FROM fs WHERE fd <= ck) AS BIGINT) AS vocab_size,
  CAST((SELECT COUNT(*) FROM tok WHERE doc_id <= ck) AS BIGINT) AS n_tokens
FROM cks
ORDER BY k
"""


# ---------------------------------------------------------------------------
# Per-label embedding centroids in exact fixed point.
# ---------------------------------------------------------------------------

_CENTROID_SCALE = 1 << 20


def label_centroids(sf_dir: str) -> rd.Dataset:
    """(label, idx, centroid): the mean embedding vector per label,
    with every coordinate quantized to 2⁻²⁰ fixed point BEFORE summing
    — integer sums are associative, so the result is bit-identical
    under any partitioning, and the oracle re-derives it in SQL.

    Plan: each batch folds its vectors into (label × dim) int64
    partial sums plus per-label counts — constant-size output per
    batch; the reduce and the final division are bounded by
    |labels| × dim."""
    ds = read_pq(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["label", "embedding"],
    )

    def partial(b: pa.Table) -> pa.Table:
        lab = b.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(lab):
            return pa.table(
                {
                    "label": pa.array([], pa.int64()),
                    "idx": pa.array([], pa.int64()),
                    "qsum": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        emb = b.column("embedding").combine_chunks()
        flat = np.asarray(emb.flatten(), dtype=np.float64)
        d = len(flat) // len(lab)
        q = np.floor(flat * _CENTROID_SCALE + 0.5).astype(np.int64).reshape(
            len(lab), d
        )
        ulab, inv, cnt = np.unique(lab, return_inverse=True, return_counts=True)
        sums = np.zeros((len(ulab), d), np.int64)
        np.add.at(sums, inv, q)
        return pa.table(
            {
                "label": pa.array(np.repeat(ulab, d)),
                "idx": pa.array(np.tile(np.arange(d, dtype=np.int64), len(ulab))),
                "qsum": pa.array(sums.ravel()),
                "n": pa.array(np.repeat(cnt.astype(np.int64), d)),
            }
        )

    tbl = bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["label", "idx"],
        [("qsum", "sum"), ("n", "sum")],
    )
    if tbl is None:
        return rd.from_arrow(
            pa.table(
                {
                    "label": pa.array([], pa.int64()),
                    "idx": pa.array([], pa.int64()),
                    "centroid": pa.array([], pa.float64()),
                }
            )
        )
    qs = tbl.column("qsum").to_numpy(zero_copy_only=False)
    n = tbl.column("n").to_numpy(zero_copy_only=False)
    out = pa.table(
        {
            "label": tbl.column("label"),
            "idx": tbl.column("idx"),
            "centroid": pa.array(
                qs.astype(np.float64) / (n * float(_CENTROID_SCALE)),
                pa.float64(),
            ),
        }
    )
    return rd.from_arrow(out).sort(["label", "idx"])


LABEL_CENTROIDS_SQL = f"""
WITH e AS (
  SELECT CAST(label AS BIGINT) AS label,
         unnest(embedding) AS v,
         unnest(range(len(embedding))) AS idx
  FROM embeddings
)
SELECT label, CAST(idx AS BIGINT) AS idx,
  CAST(SUM(CAST(floor(CAST(v AS DOUBLE) * {_CENTROID_SCALE} + 0.5)
      AS BIGINT)) AS DOUBLE)
    / (COUNT(*) * {_CENTROID_SCALE}.0) AS centroid
FROM e
GROUP BY label, idx
ORDER BY label, idx
"""


# ---------------------------------------------------------------------------
# Hapax legomena per language.
# ---------------------------------------------------------------------------

def lang_hapax(sf_dir: str, num_partitions: int | None = None) -> rd.Dataset:
    """(lang, n_types, n_hapax, hapax_share): per language, the number
    of token types occurring exactly once in the whole corpus — the
    hapax-legomena share, a vocabulary-richness signal alongside TTR.

    Plan: identical shuffle to :func:`lang_ttr` (token-hash partition
    of per-batch-combined (lang, token, n) rows); a token's GLOBAL
    count lives entirely in its owning partition, so the hapax test is
    local there; |langs| partial rows out."""
    ds = _docs(sf_dir, ["lang", "text"])
    hint = parquet_rows_hint(ds)
    n_parts = num_partitions or adaptive_partitions(
        hint * 64 if hint else None, row_bytes=32
    )

    def pairs(b: pa.Table) -> pa.Table:
        words = split_ws_tokens(b.column("text"))
        off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = words.flatten()
        doc_idx = np.repeat(np.arange(len(words), dtype=np.int64), np.diff(off))
        mask = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        langs = b.column("lang").take(pa.array(doc_idx[mask], pa.int64()))
        t = pa.table({"lang": langs, "token": flat.filter(pa.array(mask))})
        g = t.group_by(["lang", "token"]).aggregate([([], "count_all")])
        g = g.rename_columns(["lang", "token", "n"])
        vocab = np.asarray(g.column("token").to_pylist(), dtype=object)
        return pa.table(
            {
                "part": pa.array(
                    token_partitions(vocab, n_parts).astype(np.int64),
                    pa.int64(),
                ),
                "lang": g.column("lang"),
                "token": g.column("token"),
                "n": pc.cast(g.column("n"), pa.int64()),
            }
        )

    def part_stats(g: pa.Table) -> pa.Table:
        t = (
            g.select(["lang", "token", "n"])
            .group_by(["lang", "token"])
            .aggregate([("n", "sum")])
            .rename_columns(["lang", "token", "n"])
        )
        lang = t.column("lang")
        one = pc.cast(pc.equal(t.column("n"), 1), pa.int64())
        out = pa.table(
            {"lang": lang, "is_hapax": one}
        ).group_by("lang").aggregate([("is_hapax", "sum"), ([], "count_all")])
        return out.rename_columns(["lang", "n_hapax", "n_types"])

    per_part = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_stats, batch_format="pyarrow")
    )
    tbl = bounded_group_table_strict(
        per_part, ["lang"], [("n_types", "sum"), ("n_hapax", "sum")]
    )
    if tbl is None:
        return rd.from_arrow(
            pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    "n_types": pa.array([], pa.int64()),
                    "n_hapax": pa.array([], pa.int64()),
                    "hapax_share": pa.array([], pa.float64()),
                }
            )
        )
    ty = tbl.column("n_types").to_numpy(zero_copy_only=False)
    hp = tbl.column("n_hapax").to_numpy(zero_copy_only=False)
    out = tbl.append_column(
        "hapax_share", pa.array(hp.astype(np.float64) / ty.astype(np.float64))
    )
    return rd.from_arrow(out).sort("lang")


LANG_HAPAX_SQL = f"""
WITH counts AS (
  SELECT lang, token, COUNT(*) AS n FROM (
    SELECT lang, unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS token
    FROM documents
  ) GROUP BY lang, token
)
SELECT lang,
  CAST(COUNT(*) AS BIGINT) AS n_types,
  CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_hapax,
  CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS DOUBLE)
    / CAST(COUNT(*) AS DOUBLE) AS hapax_share
FROM counts
GROUP BY lang
ORDER BY lang
"""


# ---------------------------------------------------------------------------
# Zipf rank–frequency slope per language, exact fixed-point OLS.
# ---------------------------------------------------------------------------

_ZIPF_K = 100
_ZIPF_SCALE = 1_000_000  # micro-log units: x·y products stay in int64


def lang_zipf(sf_dir: str, num_partitions: int | None = None) -> rd.Dataset:
    """(lang, n_top, zipf_slope): the OLS slope of ln(frequency) on
    ln(rank) over each language's top-100 tokens — the Zipf exponent
    (≈ −1 for natural language). Frequencies and ranks come from the
    exact distributed top-k (corpus.top_tokens_by_lang); both logs are
    quantized ONCE to integer micro-log units (floor(ln·10⁶ + 0.5),
    bit-identical to the oracle's ``ln``), so every OLS sum is an
    exact int64 and the slope is a single division of two exact
    integers — associative under any partitioning.

    Plan: the heavy lifting is the existing token-hash top-k shuffle;
    this post-processes its ≤ |langs|·100-row result on the driver
    with arbitrary-precision ints."""
    import math

    from .corpus import top_tokens_by_lang

    rows = top_tokens_by_lang(
        sf_dir, k=_ZIPF_K, num_partitions=num_partitions
    ).take_all()
    acc: dict[str, list[tuple[int, int]]] = {}
    for r in rows:
        acc.setdefault(r["lang"], []).append((int(r["rk"]), int(r["n"])))
    out_lang, out_n, out_slope = [], [], []
    for lang in sorted(acc):
        pts = acc[lang]
        xs = [
            int(math.floor(math.log(rk) * _ZIPF_SCALE + 0.5)) for rk, _ in pts
        ]
        ys = [
            int(math.floor(math.log(n) * _ZIPF_SCALE + 0.5)) for _, n in pts
        ]
        k = len(pts)
        sx, sy = sum(xs), sum(ys)
        sxy = sum(x * y for x, y in zip(xs, ys))
        sxx = sum(x * x for x in xs)
        den = k * sxx - sx * sx
        num = k * sxy - sx * sy
        out_lang.append(lang)
        out_n.append(k)
        out_slope.append(float(num) / float(den) if den else 0.0)
    return rd.from_arrow(
        pa.table(
            {
                "lang": pa.array(out_lang, pa.string()),
                "n_top": pa.array(out_n, pa.int64()),
                "zipf_slope": pa.array(out_slope, pa.float64()),
            }
        )
    )


LANG_ZIPF_SQL = f"""
WITH counts AS (
  SELECT lang, token, CAST(COUNT(*) AS BIGINT) AS n FROM (
    SELECT lang, unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS token
    FROM documents
  ) GROUP BY lang, token
), ranked AS (
  SELECT lang, token, n,
    ROW_NUMBER() OVER (
      PARTITION BY lang ORDER BY n DESC, token ASC
    ) AS rk
  FROM counts
), q AS (
  SELECT lang,
    CAST(floor(ln(CAST(rk AS DOUBLE)) * {_ZIPF_SCALE} + 0.5) AS BIGINT) AS x,
    CAST(floor(ln(CAST(n AS DOUBLE)) * {_ZIPF_SCALE} + 0.5) AS BIGINT) AS y
  FROM ranked WHERE rk <= {_ZIPF_K}
)
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_top,
  CASE WHEN COUNT(*) * SUM(x * x) - SUM(x) * SUM(x) = 0 THEN 0.0
       ELSE CAST(COUNT(*) * SUM(x * y) - SUM(x) * SUM(y) AS DOUBLE)
          / CAST(COUNT(*) * SUM(x * x) - SUM(x) * SUM(x) AS DOUBLE)
  END AS zipf_slope
FROM q
GROUP BY lang
ORDER BY lang
"""


# ---------------------------------------------------------------------------
# Pairwise language vocabulary overlap (set Jaccard).
# ---------------------------------------------------------------------------

def lang_vocab_overlap(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(lang_a, lang_b, n_a, n_b, n_common, n_union, jaccard): for each
    unordered language pair sharing at least one token type, the exact
    Jaccard similarity of their vocabularies — the distributed set-
    intersection shape (lang-pairs share loanwords, numbers, URLs).

    Plan: ONE token-hash shuffle of batch-distinct (lang, token) pairs;
    a token's full language SET lives in its owning partition, so the
    per-partition pass emits |langs|² intersection partials plus
    per-language type counts; the reduce is bounded by the language
    domain squared. Pairs with an empty intersection are omitted (the
    oracle's inner-join semantics)."""
    ds = _docs(sf_dir, ["lang", "text"])
    hint = parquet_rows_hint(ds)
    n_parts = num_partitions or adaptive_partitions(
        hint * 64 if hint else None, row_bytes=32
    )

    def pairs(b: pa.Table) -> pa.Table:
        words = split_ws_tokens(b.column("text"))
        off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = words.flatten()
        doc_idx = np.repeat(np.arange(len(words), dtype=np.int64), np.diff(off))
        mask = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        langs = b.column("lang").take(pa.array(doc_idx[mask], pa.int64()))
        t = pa.table(
            {"lang": langs, "token": flat.filter(pa.array(mask))}
        ).group_by(["lang", "token"]).aggregate([])
        vocab = np.asarray(t.column("token").to_pylist(), dtype=object)
        return pa.table(
            {
                "part": pa.array(
                    token_partitions(vocab, n_parts).astype(np.int64),
                    pa.int64(),
                ),
                "lang": t.column("lang"),
                "token": t.column("token"),
            }
        )

    def part_overlap(g: pa.Table) -> pa.Table:
        t = g.select(["lang", "token"]).group_by(["lang", "token"]).aggregate([])
        lang = t.column("lang").combine_chunks()
        enc = lang.dictionary_encode()
        lidx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ldict = [str(x) for x in enc.dictionary.to_pylist()]
        tok = t.column("token").combine_chunks().dictionary_encode()
        tidx = tok.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = len(tok.dictionary)
        n_lang = len(ldict)
        empty = pa.table(
            {
                "lang_a": pa.array([], pa.string()),
                "lang_b": pa.array([], pa.string()),
                "n_a": pa.array([], pa.int64()),
                "n_b": pa.array([], pa.int64()),
                "n_common": pa.array([], pa.int64()),
            }
        )
        if not n_tok or not n_lang:
            return empty
        # token × lang membership matrix (partition-local, both dims
        # bounded: distinct tokens of this partition × |langs|)
        mem = np.zeros((n_tok, n_lang), dtype=bool)
        mem[tidx, lidx] = True
        sizes = mem.sum(axis=0).astype(np.int64)  # per-lang type count
        inter = (mem.T.astype(np.int64) @ mem.astype(np.int64))
        out_a, out_b, out_na, out_nb, out_c = [], [], [], [], []
        order = np.argsort(np.asarray(ldict, dtype=object), kind="stable")
        for ii in range(n_lang):
            i = order[ii]
            # size rows ride along as (lang, lang) self pairs
            out_a.append(ldict[i])
            out_b.append(ldict[i])
            out_na.append(int(sizes[i]))
            out_nb.append(int(sizes[i]))
            out_c.append(int(sizes[i]))
            for jj in range(ii + 1, n_lang):
                j = order[jj]
                c = int(inter[i, j])
                if c:
                    a_, b_ = sorted((ldict[i], ldict[j]))
                    ai = i if ldict[i] == a_ else j
                    bi = j if ai == i else i
                    out_a.append(a_)
                    out_b.append(b_)
                    out_na.append(int(sizes[ai]))
                    out_nb.append(int(sizes[bi]))
                    out_c.append(c)
        return pa.table(
            {
                "lang_a": pa.array(out_a, pa.string()),
                "lang_b": pa.array(out_b, pa.string()),
                "n_a": pa.array(out_na, pa.int64()),
                "n_b": pa.array(out_nb, pa.int64()),
                "n_common": pa.array(out_c, pa.int64()),
            }
        )

    per_part = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_overlap, batch_format="pyarrow")
    )
    tbl = bounded_group_table_strict(
        per_part,
        ["lang_a", "lang_b"],
        [("n_a", "sum"), ("n_b", "sum"), ("n_common", "sum")],
    )
    empty = pa.table(
        {
            "lang_a": pa.array([], pa.string()),
            "lang_b": pa.array([], pa.string()),
            "n_a": pa.array([], pa.int64()),
            "n_b": pa.array([], pa.int64()),
            "n_common": pa.array([], pa.int64()),
            "n_union": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64()),
        }
    )
    if tbl is None:
        return rd.from_arrow(empty)
    # self rows carry the GLOBAL per-language sizes; cross rows carry
    # per-partition sizes that summed to garbage — rebuild from selves
    la = tbl.column("lang_a").to_pylist()
    lb = tbl.column("lang_b").to_pylist()
    nc = tbl.column("n_common").to_numpy(zero_copy_only=False)
    sizes = {
        a: int(c) for a, b, c in zip(la, lb, nc) if a == b
    }
    rows = sorted(
        (a, b, int(c)) for a, b, c in zip(la, lb, nc) if a != b
    )
    out = pa.table(
        {
            "lang_a": pa.array([r[0] for r in rows], pa.string()),
            "lang_b": pa.array([r[1] for r in rows], pa.string()),
            "n_a": pa.array([sizes[r[0]] for r in rows], pa.int64()),
            "n_b": pa.array([sizes[r[1]] for r in rows], pa.int64()),
            "n_common": pa.array([r[2] for r in rows], pa.int64()),
            "n_union": pa.array(
                [sizes[r[0]] + sizes[r[1]] - r[2] for r in rows], pa.int64()
            ),
            "jaccard": pa.array(
                [
                    float(r[2]) / float(sizes[r[0]] + sizes[r[1]] - r[2])
                    for r in rows
                ],
                pa.float64(),
            ),
        }
    )
    return rd.from_arrow(out)


LANG_VOCAB_OVERLAP_SQL = f"""
WITH lt AS MATERIALIZED (
  SELECT DISTINCT lang, token FROM (
    SELECT lang, unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS token
    FROM documents
  )
), sizes AS MATERIALIZED (
  SELECT lang, CAST(COUNT(*) AS BIGINT) AS n FROM lt GROUP BY lang
), common AS (
  SELECT a.lang AS la, b.lang AS lb, CAST(COUNT(*) AS BIGINT) AS c
  FROM lt a JOIN lt b ON a.token = b.token AND a.lang < b.lang
  GROUP BY 1, 2
)
SELECT la AS lang_a, lb AS lang_b,
  sa.n AS n_a, sb.n AS n_b, c AS n_common,
  sa.n + sb.n - c AS n_union,
  CAST(c AS DOUBLE) / CAST(sa.n + sb.n - c AS DOUBLE) AS jaccard
FROM common
JOIN sizes sa ON la = sa.lang
JOIN sizes sb ON lb = sb.lang
ORDER BY lang_a, lang_b
"""


# ---------------------------------------------------------------------------
# Dispersion of the corpus-head tokens (two-pass derive → broadcast).
# ---------------------------------------------------------------------------

_DISPERSION_K = 50


def token_dispersion(sf_dir: str) -> rd.Dataset:
    """(token, n_total, df, sum_c2, doc_share, count_var): for the
    corpus's top-50 tokens, how evenly they spread across documents —
    document frequency, the exact second moment of per-document counts
    (zeros included), and the resulting population variance. A bursty
    token (high variance at the same total) concentrates in few docs;
    a function word spreads evenly.

    Plan: the two-pass derive→broadcast shape — pass 1 is the existing
    distributed top-k (per-batch combine, partial-count shuffle,
    per-block prune); its ≤50-row head is broadcast via ``ray.put``;
    pass 2 is a shuffle-FREE per-batch probe (one searchsorted against
    the sorted head + one bincount) emitting ≤50 (df, Σc²) partial
    rows per batch. N comes from footer metadata. All moments are
    exact ints; the two floats are the single divisions the oracle
    writes."""
    import ray

    from .queries import q_top_tokens

    empty = pa.table(
        {
            "token": pa.array([], pa.string()),
            "n_total": pa.array([], pa.int64()),
            "df": pa.array([], pa.int64()),
            "sum_c2": pa.array([], pa.int64()),
            "doc_share": pa.array([], pa.float64()),
            "count_var": pa.array([], pa.float64()),
        }
    )
    top = q_top_tokens(sf_dir, k=_DISPERSION_K).take_all()
    if not top:
        return rd.from_arrow(empty)
    toks = np.asarray([r["token"] for r in top], dtype=object)
    totals = {r["token"]: int(r["n"]) for r in top}
    order = np.argsort(toks, kind="stable")
    sorted_toks = toks[order]
    ref = ray.put(sorted_toks)

    import pyarrow.parquet as pq

    n_docs = pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")
    ).metadata.num_rows

    ds = _docs(sf_dir, ["doc_id", "text"])
    k = len(sorted_toks)

    def probe(b: pa.Table) -> pa.Table:
        import ray as _ray

        head = _ray.get(ref)
        words = split_ws_tokens(b.column("text"))
        off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = words.flatten()
        doc_idx = np.repeat(np.arange(len(words), dtype=np.int64), np.diff(off))
        vals = np.asarray(flat.to_pylist(), dtype=object)
        pos = np.searchsorted(head, vals)
        pos = np.minimum(pos, len(head) - 1)
        hit = head[pos] == vals
        # per (doc, head-token) counts in one bincount
        key = doc_idx[hit] * k + pos[hit]
        c = np.bincount(key, minlength=len(words) * k).reshape(len(words), k)
        df = (c > 0).sum(axis=0).astype(np.int64)
        sum_c2 = (c.astype(np.int64) ** 2).sum(axis=0)
        return pa.table(
            {
                "tok_id": pa.array(np.arange(k, dtype=np.int64)),
                "df": pa.array(df),
                "sum_c2": pa.array(sum_c2),
            }
        )

    tbl = bounded_group_table_strict(
        ds.map_batches(probe, batch_format="pyarrow"),
        ["tok_id"],
        [("df", "sum"), ("sum_c2", "sum")],
    )
    if tbl is None:
        return rd.from_arrow(empty)
    tid = tbl.column("tok_id").to_numpy(zero_copy_only=False)
    df = tbl.column("df").to_numpy(zero_copy_only=False)
    s2 = tbl.column("sum_c2").to_numpy(zero_copy_only=False)
    rows = []
    for i in range(len(tid)):
        tok = str(sorted_toks[tid[i]])
        nt = totals[tok]
        rows.append(
            (
                tok,
                nt,
                int(df[i]),
                int(s2[i]),
                float(df[i]) / float(n_docs),
                float(n_docs * int(s2[i]) - nt * nt)
                / (float(n_docs) * float(n_docs)),
            )
        )
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rd.from_arrow(
        pa.table(
            {
                "token": pa.array([r[0] for r in rows], pa.string()),
                "n_total": pa.array([r[1] for r in rows], pa.int64()),
                "df": pa.array([r[2] for r in rows], pa.int64()),
                "sum_c2": pa.array([r[3] for r in rows], pa.int64()),
                "doc_share": pa.array([r[4] for r in rows], pa.float64()),
                "count_var": pa.array([r[5] for r in rows], pa.float64()),
            }
        )
    )


TOKEN_DISPERSION_SQL = f"""
WITH tok AS MATERIALIZED (
  SELECT doc_id, unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS token
  FROM documents
), cnt AS MATERIALIZED (
  SELECT token, CAST(COUNT(*) AS BIGINT) AS n FROM tok GROUP BY token
), top AS MATERIALIZED (
  SELECT token, n FROM (
    SELECT token, n,
      ROW_NUMBER() OVER (ORDER BY n DESC, token ASC) AS rk
    FROM cnt
  ) WHERE rk <= {_DISPERSION_K}
), dc AS (
  SELECT tok.token AS tk, doc_id, CAST(COUNT(*) AS BIGINT) AS c
  FROM tok JOIN top ON tok.token = top.token
  GROUP BY 1, 2
), nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_docs FROM documents)
SELECT top.token AS token, top.n AS n_total,
  CAST(COUNT(*) AS BIGINT) AS df,
  CAST(SUM(c * c) AS BIGINT) AS sum_c2,
  CAST(COUNT(*) AS DOUBLE) / CAST(n_docs AS DOUBLE) AS doc_share,
  CAST(n_docs * SUM(c * c) - top.n * top.n AS DOUBLE)
    / (CAST(n_docs AS DOUBLE) * CAST(n_docs AS DOUBLE)) AS count_var
FROM dc JOIN top ON dc.tk = top.token CROSS JOIN nn
GROUP BY top.token, top.n, n_docs
ORDER BY n_total DESC, token
"""


# ---------------------------------------------------------------------------
# Exact Kolmogorov–Smirnov distance between source length distributions.
# ---------------------------------------------------------------------------

def source_ks_length(sf_dir: str) -> rd.Dataset:
    """(source_a, source_b, n_a, n_b, d_num, ks): for every unordered
    pair of sources, the exact two-sample Kolmogorov–Smirnov distance
    between their document-length distributions — drift detection
    across crawl sources. D = max|F_a − F_b| is computed as the
    integer max of |cum_a·n_b − cum_b·n_a| over the merged support
    (``d_num``), then the single division the oracle writes.

    Plan: ONE shuffle-free histogram pass — per-batch
    (source, n_chars, n) partials under the bounded-reduce guard
    (length domain × |sources|); the pairwise merged-support walks run
    on the driver over that bounded table."""
    ds = _docs(sf_dir, ["source", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "source": b.column("source"),
                "v": pc.cast(b.column("n_chars"), pa.int64()),
            }
        )
        g = t.group_by(["source", "v"]).aggregate([("v", "count")])
        return g.rename_columns(["source", "v", "n"])

    hist = bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source", "v"],
        [("n", "sum")],
    )
    empty = pa.table(
        {
            "source_a": pa.array([], pa.string()),
            "source_b": pa.array([], pa.string()),
            "n_a": pa.array([], pa.int64()),
            "n_b": pa.array([], pa.int64()),
            "d_num": pa.array([], pa.int64()),
            "ks": pa.array([], pa.float64()),
        }
    )
    if hist is None:
        return rd.from_arrow(empty)
    srcs = hist.column("source").to_pylist()
    vals = hist.column("v").to_numpy(zero_copy_only=False)
    cnt = hist.column("n").to_numpy(zero_copy_only=False)
    by_src: dict[str, dict[int, int]] = {}
    for s, v, c in zip(srcs, vals, cnt):
        by_src.setdefault(s, {})[int(v)] = int(c)
    names = sorted(by_src)
    rows = []
    for i, sa in enumerate(names):
        for sb in names[i + 1:]:
            ha, hb = by_src[sa], by_src[sb]
            support = sorted(set(ha) | set(hb))
            na = sum(ha.values())
            nb = sum(hb.values())
            ca = cb = 0
            d_num = 0
            for v in support:
                ca += ha.get(v, 0)
                cb += hb.get(v, 0)
                d_num = max(d_num, abs(ca * nb - cb * na))
            rows.append(
                (sa, sb, na, nb, d_num, float(d_num) / float(na * nb))
            )
    return rd.from_arrow(
        pa.table(
            {
                "source_a": pa.array([r[0] for r in rows], pa.string()),
                "source_b": pa.array([r[1] for r in rows], pa.string()),
                "n_a": pa.array([r[2] for r in rows], pa.int64()),
                "n_b": pa.array([r[3] for r in rows], pa.int64()),
                "d_num": pa.array([r[4] for r in rows], pa.int64()),
                "ks": pa.array([r[5] for r in rows], pa.float64()),
            }
        )
    )


SOURCE_KS_LENGTH_SQL = """
WITH h AS MATERIALIZED (
  SELECT source AS s, n_chars AS v, CAST(COUNT(*) AS BIGINT) AS c
  FROM documents GROUP BY s, v
), sizes AS MATERIALIZED (
  SELECT s, CAST(SUM(c) AS BIGINT) AS n FROM h GROUP BY s
), pairs AS (
  SELECT a.s AS sa, b.s AS sb, a.n AS na, b.n AS nb
  FROM sizes a JOIN sizes b ON a.s < b.s
), merged AS (
  SELECT p.sa, p.sb, p.na, p.nb, h.v,
    CAST(SUM(CASE WHEN h.s = p.sa THEN c ELSE 0 END) AS BIGINT) AS ca,
    CAST(SUM(CASE WHEN h.s = p.sb THEN c ELSE 0 END) AS BIGINT) AS cb
  FROM pairs p JOIN h ON h.s IN (p.sa, p.sb)
  GROUP BY 1, 2, 3, 4, 5
), cum AS (
  SELECT sa, sb, na, nb,
    SUM(ca) OVER (PARTITION BY sa, sb ORDER BY v) AS cca,
    SUM(cb) OVER (PARTITION BY sa, sb ORDER BY v) AS ccb
  FROM merged
)
SELECT sa AS source_a, sb AS source_b, na AS n_a, nb AS n_b,
  CAST(MAX(ABS(cca * nb - ccb * na)) AS BIGINT) AS d_num,
  CAST(MAX(ABS(cca * nb - ccb * na)) AS DOUBLE)
    / CAST(na * nb AS DOUBLE) AS ks
FROM cum
GROUP BY sa, sb, na, nb
ORDER BY source_a, source_b
"""


# ---------------------------------------------------------------------------
# Pairwise cosine similarity of label centroids (exact integer cores).
# ---------------------------------------------------------------------------

def label_centroid_similarity(sf_dir: str) -> rd.Dataset:
    """(label_a, label_b, cosine): cosine similarity between every
    pair of per-label embedding centroids — the class-confusability
    map. The per-vector ``n·scale`` factors cancel in the cosine, so
    it is computed directly on the exact integer quantized sums
    (Σ qa·qb / (√Σqa² · √Σqb²)) — dot products are arbitrary-precision
    Python ints, the two sqrts are the libm calls the oracle makes.

    Plan: the label_centroids partial pass (|labels| × dim integer
    rows), then a |labels|² driver walk."""
    import math

    ds = read_pq(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["label", "embedding"],
    )

    def partial(b: pa.Table) -> pa.Table:
        lab = b.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(lab):
            return pa.table(
                {
                    "label": pa.array([], pa.int64()),
                    "idx": pa.array([], pa.int64()),
                    "qsum": pa.array([], pa.int64()),
                }
            )
        emb = b.column("embedding").combine_chunks()
        flat = np.asarray(emb.flatten(), dtype=np.float64)
        d = len(flat) // len(lab)
        q = np.floor(flat * _CENTROID_SCALE + 0.5).astype(np.int64).reshape(
            len(lab), d
        )
        ulab, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(ulab), d), np.int64)
        np.add.at(sums, inv, q)
        return pa.table(
            {
                "label": pa.array(np.repeat(ulab, d)),
                "idx": pa.array(np.tile(np.arange(d, dtype=np.int64), len(ulab))),
                "qsum": pa.array(sums.ravel()),
            }
        )

    tbl = bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["label", "idx"],
        [("qsum", "sum")],
    )
    empty = pa.table(
        {
            "label_a": pa.array([], pa.int64()),
            "label_b": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
        }
    )
    if tbl is None:
        return rd.from_arrow(empty)
    labs = tbl.column("label").to_pylist()
    idxs = tbl.column("idx").to_pylist()
    qs = tbl.column("qsum").to_pylist()  # python ints: exact products
    vecs: dict[int, dict[int, int]] = {}
    for lb, ix, q in zip(labs, idxs, qs):
        vecs.setdefault(int(lb), {})[int(ix)] = int(q)
    names = sorted(vecs)
    norms = {
        lb: math.sqrt(float(sum(v * v for v in vecs[lb].values())))
        for lb in names
    }
    out_a, out_b, out_c = [], [], []
    for i, la in enumerate(names):
        for lb in names[i + 1:]:
            va, vb = vecs[la], vecs[lb]
            dot = sum(va.get(ix, 0) * vb.get(ix, 0) for ix in va)
            den = norms[la] * norms[lb]
            out_a.append(la)
            out_b.append(lb)
            out_c.append(float(dot) / den if den else 0.0)
    return rd.from_arrow(
        pa.table(
            {
                "label_a": pa.array(out_a, pa.int64()),
                "label_b": pa.array(out_b, pa.int64()),
                "cosine": pa.array(out_c, pa.float64()),
            }
        )
    )


LABEL_CENTROID_SIMILARITY_SQL = f"""
WITH e AS (
  SELECT CAST(label AS BIGINT) AS label,
         unnest(embedding) AS v,
         unnest(range(len(embedding))) AS idx
  FROM embeddings
), q AS MATERIALIZED (
  SELECT label, idx,
    CAST(SUM(CAST(floor(CAST(v AS DOUBLE) * {_CENTROID_SCALE} + 0.5)
        AS BIGINT)) AS BIGINT) AS qsum
  FROM e GROUP BY label, idx
), norms AS MATERIALIZED (
  SELECT label,
    sqrt(CAST(SUM(CAST(qsum AS HUGEINT) * qsum) AS DOUBLE)) AS nrm
  FROM q GROUP BY label
)
SELECT a.label AS label_a, b.label AS label_b,
  CAST(SUM(CAST(a.qsum AS HUGEINT) * b.qsum) AS DOUBLE)
    / (na.nrm * nb.nrm) AS cosine
FROM q a
JOIN q b ON a.idx = b.idx AND a.label < b.label
JOIN norms na ON na.label = a.label
JOIN norms nb ON nb.label = b.label
GROUP BY a.label, b.label, na.nrm, nb.nrm
ORDER BY label_a, label_b
"""


# ---------------------------------------------------------------------------
# Per-source quality-signal correlation (grouped Pearson, zero shuffle).
# ---------------------------------------------------------------------------

def source_quality_corr(sf_dir: str) -> rd.Dataset:
    """(source, n, corr): per source, the Pearson correlation between
    each document's stop-word-marker count and its token count — a
    within-source quality-consistency diagnostic (clean prose keeps
    marker mass proportional to length; templated or gibberish
    sources decorrelate). Every moment (Σx, Σy, Σxy, Σx², Σy²) is an
    exact int64 per-batch partial on the bounded source domain; the
    correlation is the single num / (sqrt·sqrt) the oracle writes.

    Plan: one RE2 column pass, zero shuffle."""
    import math

    from .queries import _EN_MARKER_RE, _TOKEN_RE

    ds = read_pq(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["source", "text"],
    )

    def moments(b: pa.Table) -> pa.Table:
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        x = pc.cast(
            pc.count_substring_regex(text, _EN_MARKER_RE), pa.int64()
        ).to_numpy(zero_copy_only=False)
        y = pc.cast(
            pc.count_substring_regex(text, _TOKEN_RE), pa.int64()
        ).to_numpy(zero_copy_only=False)
        src = b.column("source").combine_chunks()
        enc = src.dictionary_encode()
        gi = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        k = len(enc.dictionary)
        if not k:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "sx": pa.array([], pa.int64()),
                    "sy": pa.array([], pa.int64()),
                    "sxy": pa.array([], pa.int64()),
                    "sxx": pa.array([], pa.int64()),
                    "syy": pa.array([], pa.int64()),
                }
            )
        def agg(w):
            return np.bincount(gi, weights=w, minlength=k).astype(np.int64)
        return pa.table(
            {
                "source": enc.dictionary,
                "n": pa.array(np.bincount(gi, minlength=k).astype(np.int64)),
                "sx": pa.array(agg(x)),
                "sy": pa.array(agg(y)),
                "sxy": pa.array(agg(x * y)),
                "sxx": pa.array(agg(x * x)),
                "syy": pa.array(agg(y * y)),
            }
        )

    tbl = bounded_group_table_strict(
        ds.map_batches(moments, batch_format="pyarrow"),
        ["source"],
        [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
         ("sxy", "sum"), ("sxx", "sum"), ("syy", "sum")],
    )
    empty = pa.table(
        {
            "source": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
            "corr": pa.array([], pa.float64()),
        }
    )
    if tbl is None:
        return rd.from_arrow(empty)
    rows = sorted(
        zip(
            tbl.column("source").to_pylist(),
            tbl.column("n").to_pylist(),
            tbl.column("sx").to_pylist(),
            tbl.column("sy").to_pylist(),
            tbl.column("sxy").to_pylist(),
            tbl.column("sxx").to_pylist(),
            tbl.column("syy").to_pylist(),
        )
    )
    out_s, out_n, out_c = [], [], []
    for s, n, sx, sy, sxy, sxx, syy in rows:
        dx = n * sxx - sx * sx
        dy = n * syy - sy * sy
        num = n * sxy - sx * sy
        out_s.append(s)
        out_n.append(n)
        out_c.append(
            float(num) / (math.sqrt(float(dx)) * math.sqrt(float(dy)))
            if dx > 0 and dy > 0
            else 0.0
        )
    return rd.from_arrow(
        pa.table(
            {
                "source": pa.array(out_s, pa.string()),
                "n": pa.array(out_n, pa.int64()),
                "corr": pa.array(out_c, pa.float64()),
            }
        )
    )


def _source_quality_corr_sql() -> str:
    from .queries import _EN_MARKER_RE, _TOKEN_RE

    return f"""
WITH m AS (
  SELECT source,
    CAST(len(regexp_extract_all(text, '{_EN_MARKER_RE}')) AS BIGINT) AS x,
    CAST(len(regexp_extract_all(text, '{_TOKEN_RE}')) AS BIGINT) AS y
  FROM documents
)
SELECT source, CAST(COUNT(*) AS BIGINT) AS n,
  CASE WHEN COUNT(*) * SUM(x * x) - SUM(x) * SUM(x) <= 0
         OR COUNT(*) * SUM(y * y) - SUM(y) * SUM(y) <= 0 THEN 0.0
       ELSE CAST(COUNT(*) * SUM(x * y) - SUM(x) * SUM(y) AS DOUBLE)
          / (sqrt(CAST(COUNT(*) * SUM(x * x) - SUM(x) * SUM(x) AS DOUBLE))
             * sqrt(CAST(COUNT(*) * SUM(y * y) - SUM(y) * SUM(y) AS DOUBLE)))
  END AS corr
FROM m
GROUP BY source
ORDER BY source
"""


# ---------------------------------------------------------------------------
# Dedup savings summary (the headline "what dedup buys" number).
# ---------------------------------------------------------------------------

def dedup_savings(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """One row (n_docs, n_unique, dup_fraction, n_tokens,
    n_tokens_unique, token_savings): corpus size before/after EXACT
    content dedup, in documents and in tokens — the headline savings
    number a dedup run is judged by. Copies share their
    representative's text, so unique-token mass = token count summed
    over distinct contents.

    Plan: one content-hash shuffle of per-batch-distinct
    (hash128, n_copies, tokens) partials (24 B + 8 B rows); each
    partition owns its hash range, finishes the distinct, and emits a
    SINGLE summary row; the final reduce is #partitions rows."""
    from ..functions.hashing import hash_str_arrow_u128

    ds = _docs(sf_dir, ["text"])
    hint = parquet_rows_hint(ds)
    n_parts = num_partitions or adaptive_partitions(hint, row_bytes=32)

    def tag(b: pa.Table) -> pa.Table:
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        text = pc.fill_null(text, "")
        lo, hi = hash_str_arrow_u128(text)  # (lo, hi) uint64 lanes
        toks = pc.cast(
            pc.count_substring_regex(text, WS_TOKEN_RE), pa.int64()
        ).to_numpy(zero_copy_only=False)
        key = np.stack([hi.astype(np.int64), lo.astype(np.int64)], axis=1)
        uniq, inv, cnt = np.unique(
            key, axis=0, return_inverse=True, return_counts=True
        )
        # all copies of a content share the token count: take any
        first = np.zeros(len(uniq), np.int64)
        first[inv] = np.arange(len(inv))  # last writer wins — same text
        return pa.table(
            {
                "part": pa.array(
                    (uniq[:, 0].astype(np.uint64) % n_parts).astype(np.int64)
                ),
                "h_hi": pa.array(uniq[:, 0], pa.int64()),
                "h_lo": pa.array(uniq[:, 1], pa.int64()),
                "n": pa.array(cnt.astype(np.int64)),
                "toks": pa.array(toks[first], pa.int64()),
            }
        )

    def summarize(g: pa.Table) -> pa.Table:
        hi = g.column("h_hi").to_numpy(zero_copy_only=False)
        lo = g.column("h_lo").to_numpy(zero_copy_only=False)
        n = g.column("n").to_numpy(zero_copy_only=False)
        t = g.column("toks").to_numpy(zero_copy_only=False)
        if not len(hi):
            return pa.table(
                {
                    "n_docs": pa.array([], pa.int64()),
                    "n_unique": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "n_tokens_unique": pa.array([], pa.int64()),
                }
            )
        key = np.stack([hi, lo], axis=1)
        uniq, inv = np.unique(key, axis=0, return_inverse=True)
        copies = np.bincount(inv, weights=n).astype(np.int64)
        # token count per distinct content (identical across partials)
        rep = np.zeros(len(uniq), np.int64)
        rep[inv] = np.arange(len(inv))
        toks_u = t[rep]
        return pa.table(
            {
                "n_docs": pa.array([int(copies.sum())], pa.int64()),
                "n_unique": pa.array([len(uniq)], pa.int64()),
                "n_tokens": pa.array(
                    [int(np.dot(copies, toks_u))], pa.int64()
                ),
                "n_tokens_unique": pa.array([int(toks_u.sum())], pa.int64()),
            }
        )

    per_part = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(summarize, batch_format="pyarrow")
    )
    tbl = bounded_group_table_strict(
        per_part.map_batches(
            lambda b: b.append_column(
                "g", pa.array(np.zeros(len(b), np.int8))
            ),
            batch_format="pyarrow",
        ),
        ["g"],
        [("n_docs", "sum"), ("n_unique", "sum"),
         ("n_tokens", "sum"), ("n_tokens_unique", "sum")],
    )
    empty = pa.table(
        {
            "n_docs": pa.array([], pa.int64()),
            "n_unique": pa.array([], pa.int64()),
            "dup_fraction": pa.array([], pa.float64()),
            "n_tokens": pa.array([], pa.int64()),
            "n_tokens_unique": pa.array([], pa.int64()),
            "token_savings": pa.array([], pa.float64()),
        }
    )
    if tbl is None:
        return rd.from_arrow(empty)
    nd = int(tbl.column("n_docs")[0].as_py())
    nu = int(tbl.column("n_unique")[0].as_py())
    nt = int(tbl.column("n_tokens")[0].as_py())
    ntu = int(tbl.column("n_tokens_unique")[0].as_py())
    return rd.from_arrow(
        pa.table(
            {
                "n_docs": pa.array([nd], pa.int64()),
                "n_unique": pa.array([nu], pa.int64()),
                "dup_fraction": pa.array(
                    [float(nd - nu) / float(nd) if nd else 0.0], pa.float64()
                ),
                "n_tokens": pa.array([nt], pa.int64()),
                "n_tokens_unique": pa.array([ntu], pa.int64()),
                "token_savings": pa.array(
                    [float(nt - ntu) / float(nt) if nt else 0.0],
                    pa.float64(),
                ),
            }
        )
    )


DEDUP_SAVINGS_SQL = f"""
WITH d AS MATERIALIZED (
  SELECT coalesce(text, '') AS text,
    CAST(len(regexp_extract_all(coalesce(text, ''), '{WS_TOKEN_RE}'))
         AS BIGINT) AS toks
  FROM documents
), u AS MATERIALIZED (
  SELECT text, CAST(COUNT(*) AS BIGINT) AS n, MIN(toks) AS toks
  FROM d GROUP BY text
)
SELECT
  CAST(SUM(n) AS BIGINT) AS n_docs,
  CAST(COUNT(*) AS BIGINT) AS n_unique,
  CAST(SUM(n) - COUNT(*) AS DOUBLE) / CAST(SUM(n) AS DOUBLE)
    AS dup_fraction,
  CAST(SUM(n * toks) AS BIGINT) AS n_tokens,
  CAST(SUM(toks) AS BIGINT) AS n_tokens_unique,
  CAST(SUM(n * toks) - SUM(toks) AS DOUBLE)
    / CAST(SUM(n * toks) AS DOUBLE) AS token_savings
FROM u
"""


# ---------------------------------------------------------------------------
# Holdout split balance (pooled quality ratios per split).
# ---------------------------------------------------------------------------

def split_balance(sf_dir: str) -> rd.Dataset:
    """(split, n_docs, n_chars, n_tokens, n_markers, n_symbols,
    pooled_stopword_ratio, pooled_symbol_ratio, mean_chars): the
    train/val/test splits' pooled quality profile — a biased split
    shows here before any training run does. POOLED ratios (sums
    first, ONE division) rather than means of per-doc floats: integer
    sums are associative, so the numbers are bit-identical under any
    partitioning and the oracle reproduces them exactly.

    Plan: one shuffle-free per-batch pass (md5-bucket split + three
    RE2 counters), 3-row reduce."""
    from .queries import _EN_MARKER_RE, _SYMBOL_RE, _TOKEN_RE
    from ..functions.sampling import _md5_ranks
    from ..functions.split import DEFAULT_TRAIN_BUCKETS, DEFAULT_VAL_BUCKETS

    ds = read_pq(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    )
    hi_val = DEFAULT_TRAIN_BUCKETS + DEFAULT_VAL_BUCKETS

    def partial(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        buckets = np.array(
            [int(r[:2], 16) for r in _md5_ranks(ids)], dtype=np.int64
        )
        split = np.where(
            buckets < DEFAULT_TRAIN_BUCKETS,
            "train",
            np.where(buckets < hi_val, "val", "test"),
        )
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()

        def cnt(p):
            return pc.cast(
                pc.count_substring_regex(text, p), pa.int64()
            ).to_numpy(zero_copy_only=False)

        chars = pc.cast(pc.utf8_length(text), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        toks, mark, sym = cnt(_TOKEN_RE), cnt(_EN_MARKER_RE), cnt(_SYMBOL_RE)
        names, inv = np.unique(split, return_inverse=True)

        def agg(w):
            return np.bincount(inv, weights=w, minlength=len(names)).astype(
                np.int64
            )

        return pa.table(
            {
                "split": pa.array(list(names), pa.string()),
                "n_docs": pa.array(
                    np.bincount(inv, minlength=len(names)).astype(np.int64)
                ),
                "n_chars": pa.array(agg(chars)),
                "n_tokens": pa.array(agg(toks)),
                "n_markers": pa.array(agg(mark)),
                "n_symbols": pa.array(agg(sym)),
            }
        )

    tbl = bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["split"],
        [("n_docs", "sum"), ("n_chars", "sum"), ("n_tokens", "sum"),
         ("n_markers", "sum"), ("n_symbols", "sum")],
    )
    empty = pa.table(
        {
            "split": pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "n_chars": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "n_markers": pa.array([], pa.int64()),
            "n_symbols": pa.array([], pa.int64()),
            "pooled_stopword_ratio": pa.array([], pa.float64()),
            "pooled_symbol_ratio": pa.array([], pa.float64()),
            "mean_chars": pa.array([], pa.float64()),
        }
    )
    if tbl is None:
        return rd.from_arrow(empty)
    rows = sorted(
        zip(
            tbl.column("split").to_pylist(),
            tbl.column("n_docs").to_pylist(),
            tbl.column("n_chars").to_pylist(),
            tbl.column("n_tokens").to_pylist(),
            tbl.column("n_markers").to_pylist(),
            tbl.column("n_symbols").to_pylist(),
        )
    )
    return rd.from_arrow(
        pa.table(
            {
                "split": pa.array([r[0] for r in rows], pa.string()),
                "n_docs": pa.array([r[1] for r in rows], pa.int64()),
                "n_chars": pa.array([r[2] for r in rows], pa.int64()),
                "n_tokens": pa.array([r[3] for r in rows], pa.int64()),
                "n_markers": pa.array([r[4] for r in rows], pa.int64()),
                "n_symbols": pa.array([r[5] for r in rows], pa.int64()),
                "pooled_stopword_ratio": pa.array(
                    [
                        float(r[4]) / float(r[3]) if r[3] else 0.0
                        for r in rows
                    ],
                    pa.float64(),
                ),
                "pooled_symbol_ratio": pa.array(
                    [
                        float(r[5]) / float(r[2]) if r[2] else 0.0
                        for r in rows
                    ],
                    pa.float64(),
                ),
                "mean_chars": pa.array(
                    [
                        float(r[2]) / float(r[1]) if r[1] else 0.0
                        for r in rows
                    ],
                    pa.float64(),
                ),
            }
        )
    )


def _split_balance_sql() -> str:
    from .queries import _EN_MARKER_RE, _SYMBOL_RE, _TOKEN_RE
    from ..functions.split import sql_split

    return f"""
WITH s AS (
  SELECT {sql_split()} AS split,
    length(text) AS chars,
    len(regexp_extract_all(text, '{_TOKEN_RE}')) AS toks,
    len(regexp_extract_all(text, '{_EN_MARKER_RE}')) AS marks,
    len(regexp_extract_all(text, '{_SYMBOL_RE}')) AS syms
  FROM documents
)
SELECT split,
  CAST(COUNT(*) AS BIGINT) AS n_docs,
  CAST(SUM(chars) AS BIGINT) AS n_chars,
  CAST(SUM(toks) AS BIGINT) AS n_tokens,
  CAST(SUM(marks) AS BIGINT) AS n_markers,
  CAST(SUM(syms) AS BIGINT) AS n_symbols,
  CASE WHEN SUM(toks) = 0 THEN 0.0
       ELSE CAST(SUM(marks) AS DOUBLE) / CAST(SUM(toks) AS DOUBLE)
  END AS pooled_stopword_ratio,
  CASE WHEN SUM(chars) = 0 THEN 0.0
       ELSE CAST(SUM(syms) AS DOUBLE) / CAST(SUM(chars) AS DOUBLE)
  END AS pooled_symbol_ratio,
  CAST(SUM(chars) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS mean_chars
FROM s
GROUP BY split
ORDER BY split
"""
