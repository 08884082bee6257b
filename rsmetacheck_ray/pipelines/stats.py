"""Statistics batch: estimator shapes over the document tables —

- rank correlation (per-source Spearman ρ between each document's
  stop-word-marker count and token count — the robust counterpart of
  ``corpus2.source_quality_corr``'s Pearson),
- Simpson and Shannon diversity of each language's token
  distribution, and per-document token novelty,
- distribution drift between sources: the two-sample Cramér–von
  Mises distance of document lengths and each source's Population
  Stability Index against the corpus.

The reference has no statistics engine at all (single-process JSON
walk, ``src/detect_pitfalls_main.py:313-318``); these extend SURVEY
§2.6's aggregation axis.

Determinism discipline (house rules, same as ``corpus2.lang_zipf``):

- every distributed sum is an EXACT integer — counts, integer rank
  products, or micro-log fixed point (``floor(ln·10⁶ + 0.5)``, the
  libm-matched quantization the oracles re-derive bit-for-bit);
- floats appear only in final driver-side expressions written
  token-identically in the SQL (``CAST(int AS DOUBLE)`` ≙
  ``float(int)``, both round-half-even).

Scale notes. Spearman ships per-batch (source, x, y, count) joint-
histogram partials — bounded by the per-document value domains (a
doc's marker / token counts are bounded by its length), NOT by corpus
size — through the strict bounded-reduce guard (which raises rather
than OOM the driver if a pathological corpus breaks the bound; the
escape hatch is a sort-based rank plan). Nothing here materializes
raw rows on the driver.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..partitioning import (
    adaptive_partitions,
    bounded_group_table_strict,
    parquet_rows_hint,
    read_pq,
)

_LOG_SCALE = 1_000_000  # micro-log fixed point


def _micro_ln(v: int) -> int:
    """floor(ln(v)·10⁶ + 0.5) — the libm-matched quantization
    (≙ DuckDB ``CAST(floor(ln(CAST(v AS DOUBLE)) * 1000000 + 0.5) AS
    BIGINT)``; both call the same libm ``ln`` on the same double)."""
    return int(math.floor(math.log(v) * _LOG_SCALE + 0.5))


_MICRO_LN_SQL = (
    "CAST(floor(ln(CAST({v} AS DOUBLE)) * 1000000 + 0.5) AS BIGINT)"
)


# ---------------------------------------------------------------------------
# Per-source Spearman rank correlation (markers vs tokens).
# ---------------------------------------------------------------------------

def source_spearman(sf_dir: str) -> rd.Dataset:
    """(source, n, spearman): per source, the Spearman rank
    correlation between each document's stop-word-marker count and its
    token count — the rank-robust counterpart of
    ``source_quality_corr`` (outlier docs can't drag it).

    Exactness: ties get average ranks; DOUBLED average ranks
    (2·cum_before + cnt + 1) are integers, and ρ is scale-invariant,
    so every moment (Σr, Σr², Σrₓr_y) is an exact arbitrary-precision
    integer; ρ is the single num / (sqrt·sqrt) the oracle writes over
    ``2·RANK() + COUNT(*) OVER (PARTITION BY source, x) - 1``.

    Plan: one RE2 column pass emitting per-batch-distinct
    (source, x, y, count) joint-histogram partials; the reduce is
    bounded by the per-document value domains (NOT corpus size); rank
    maps and moments are driver-side over the bounded cells."""
    from .queries import _EN_MARKER_RE, _TOKEN_RE

    ds = read_pq(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["source", "text"],
    )

    def joint(b: pa.Table) -> pa.Table:
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        x = pc.cast(pc.count_substring_regex(text, _EN_MARKER_RE), pa.int64())
        y = pc.cast(pc.count_substring_regex(text, _TOKEN_RE), pa.int64())
        t = pa.table({"source": b.column("source"), "x": x, "y": y})
        g = t.group_by(["source", "x", "y"]).aggregate([([], "count_all")])
        g = g.rename_columns(["source", "x", "y", "c"])
        return g.set_column(3, "c", pc.cast(g.column(3), pa.int64()))

    tbl = bounded_group_table_strict(
        ds.map_batches(joint, batch_format="pyarrow"),
        ["source", "x", "y"],
        [("c", "sum")],
    )
    empty = pa.table(
        {
            "source": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
            "spearman": pa.array([], pa.float64()),
        }
    )
    if tbl is None:
        return rd.from_arrow(empty)
    cells: dict[str, list[tuple[int, int, int]]] = {}
    for s, x, y, c in zip(
        tbl.column("source").to_pylist(),
        tbl.column("x").to_pylist(),
        tbl.column("y").to_pylist(),
        tbl.column("c").to_pylist(),
    ):
        cells.setdefault(s, []).append((int(x), int(y), int(c)))

    def rank_map(marg: dict[int, int]) -> dict[int, int]:
        # value -> doubled average rank: 2·cum_before + cnt + 1
        out, cum = {}, 0
        for v in sorted(marg):
            out[v] = 2 * cum + marg[v] + 1
            cum += marg[v]
        return out

    out_s, out_n, out_r = [], [], []
    for s in sorted(cells):
        pts = cells[s]
        mx: dict[int, int] = {}
        my: dict[int, int] = {}
        for x, y, c in pts:
            mx[x] = mx.get(x, 0) + c
            my[y] = my.get(y, 0) + c
        rx, ry = rank_map(mx), rank_map(my)
        n = sx = sy = sxy = sxx = syy = 0
        for x, y, c in pts:
            a, b_ = rx[x], ry[y]
            n += c
            sx += c * a
            sy += c * b_
            sxy += c * a * b_
            sxx += c * a * a
            syy += c * b_ * b_
        dx = n * sxx - sx * sx
        dy = n * syy - sy * sy
        num = n * sxy - sx * sy
        out_s.append(s)
        out_n.append(n)
        out_r.append(
            float(num) / (math.sqrt(float(dx)) * math.sqrt(float(dy)))
            if dx > 0 and dy > 0
            else 0.0
        )
    return rd.from_arrow(
        pa.table(
            {
                "source": pa.array(out_s, pa.string()),
                "n": pa.array(out_n, pa.int64()),
                "spearman": pa.array(out_r, pa.float64()),
            }
        )
    )


def _source_spearman_sql() -> str:
    from .queries import _EN_MARKER_RE, _TOKEN_RE

    return f"""
WITH m AS (
  SELECT source,
    CAST(len(regexp_extract_all(text, '{_EN_MARKER_RE}')) AS BIGINT) AS x,
    CAST(len(regexp_extract_all(text, '{_TOKEN_RE}')) AS BIGINT) AS y
  FROM documents
), r AS (
  SELECT source,
    CAST(2 * RANK() OVER (PARTITION BY source ORDER BY x)
         + COUNT(*) OVER (PARTITION BY source, x) - 1 AS HUGEINT) AS rx,
    CAST(2 * RANK() OVER (PARTITION BY source ORDER BY y)
         + COUNT(*) OVER (PARTITION BY source, y) - 1 AS HUGEINT) AS ry
  FROM m
)
SELECT source, CAST(COUNT(*) AS BIGINT) AS n,
  CASE WHEN COUNT(*) * SUM(rx * rx) - SUM(rx) * SUM(rx) <= 0
         OR COUNT(*) * SUM(ry * ry) - SUM(ry) * SUM(ry) <= 0 THEN 0.0
       ELSE CAST(COUNT(*) * SUM(rx * ry) - SUM(rx) * SUM(ry) AS DOUBLE)
          / (sqrt(CAST(COUNT(*) * SUM(rx * rx) - SUM(rx) * SUM(rx)
                       AS DOUBLE))
             * sqrt(CAST(COUNT(*) * SUM(ry * ry) - SUM(ry) * SUM(ry)
                         AS DOUBLE)))
  END AS spearman
FROM r
GROUP BY source
ORDER BY source
"""


# ---------------------------------------------------------------------------
# Simpson diversity of each language's token distribution.
# ---------------------------------------------------------------------------

def lang_simpson(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(lang, n_tokens, n_types, simpson, effective_types): Simpson's
    concentration λ = Σ nₜ(nₜ−1) / (N(N−1)) per language — the
    probability two random token occurrences are the same type — and
    its inverse, the "effective vocabulary size" (a language whose
    mass sits on a few stopwords has tiny effective_types no matter
    how large n_types is). The order-2 companion of ``lang_ttr``'s
    order-0 diversity.

    Exactness: λ's numerator and denominator are exact integers; a
    token's global count lives whole in its owning partition after the
    token-hash shuffle, so Σ nₜ(nₜ−1) adds disjointly across
    partitions (int64 partials hold to ~3·10⁹ occurrences of a single
    token per language; the driver merge is arbitrary-precision).

    Plan: the lang_ttr shuffle — per-batch (lang, token, n)
    pre-combine, ONE token-hash shuffle, per-partition fold to
    |langs| partial rows, |langs| driver reduce."""
    from ..functions.hashing import token_partitions
    from ..functions.tokenize import split_ws_tokens

    ds = read_pq(
        os.path.join(sf_dir, "documents.parquet"), columns=["lang", "text"]
    )
    hint = parquet_rows_hint(ds)
    n_parts = num_partitions or adaptive_partitions(
        hint * 64 if hint else None, row_bytes=32
    )

    def pairs(b: pa.Table) -> pa.Table:
        words = split_ws_tokens(b.column("text"))
        off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = words.flatten()
        doc_idx = np.repeat(
            np.arange(len(words), dtype=np.int64), np.diff(off)
        )
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

    def fold(g: pa.Table) -> pa.Table:
        t = (
            g.select(["lang", "token", "n"])
            .group_by(["lang", "token"])
            .aggregate([("n", "sum")])
            .rename_columns(["lang", "token", "n"])
        )
        n = t.column("n").to_numpy(zero_copy_only=False)
        t2 = t.append_column("nn1", pa.array(n * (n - 1), pa.int64()))
        out = t2.group_by("lang").aggregate(
            [("n", "sum"), ("nn1", "sum"), ([], "count_all")]
        )
        return out.rename_columns(["lang", "n_tokens", "s_nn1", "n_types"])

    per_part = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby("part")
        .map_groups(fold, batch_format="pyarrow")
    )
    tbl = bounded_group_table_strict(
        per_part, ["lang"],
        [("n_tokens", "sum"), ("s_nn1", "sum"), ("n_types", "sum")],
    )
    empty = pa.table(
        {
            "lang": pa.array([], pa.string()),
            "n_tokens": pa.array([], pa.int64()),
            "n_types": pa.array([], pa.int64()),
            "simpson": pa.array([], pa.float64()),
            "effective_types": pa.array([], pa.float64()),
        }
    )
    if tbl is None:
        return rd.from_arrow(empty)
    rows = sorted(
        zip(
            tbl.column("lang").to_pylist(),
            tbl.column("n_tokens").to_pylist(),
            tbl.column("s_nn1").to_pylist(),
            tbl.column("n_types").to_pylist(),
        )
    )
    out_l, out_n, out_ty, out_s, out_e = [], [], [], [], []
    for lang, n, s, ty in rows:
        n, s, ty = int(n), int(s), int(ty)
        lam = float(s) / float(n * (n - 1)) if n > 1 else 0.0
        out_l.append(lang)
        out_n.append(n)
        out_ty.append(ty)
        out_s.append(lam)
        out_e.append(1.0 / lam if lam > 0.0 else 0.0)
    return rd.from_arrow(
        pa.table(
            {
                "lang": pa.array(out_l, pa.string()),
                "n_tokens": pa.array(out_n, pa.int64()),
                "n_types": pa.array(out_ty, pa.int64()),
                "simpson": pa.array(out_s, pa.float64()),
                "effective_types": pa.array(out_e, pa.float64()),
            }
        )
    )


def _lang_simpson_sql() -> str:
    from ..functions.tokenize import WS_TOKEN_RE

    return f"""
WITH tok AS (
  SELECT lang, unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS token
  FROM documents
), counts AS MATERIALIZED (
  SELECT lang, token, CAST(COUNT(*) AS BIGINT) AS n
  FROM tok GROUP BY lang, token
)
SELECT lang,
  CAST(SUM(n) AS BIGINT) AS n_tokens,
  CAST(COUNT(*) AS BIGINT) AS n_types,
  CASE WHEN SUM(n) > 1
    THEN CAST(SUM(CAST(n AS HUGEINT) * (n - 1)) AS DOUBLE)
       / CAST(CAST(SUM(n) AS HUGEINT) * (SUM(n) - 1) AS DOUBLE)
    ELSE 0.0 END AS simpson,
  CASE WHEN SUM(CAST(n AS HUGEINT) * (n - 1)) > 0 AND SUM(n) > 1
    THEN 1.0 / (CAST(SUM(CAST(n AS HUGEINT) * (n - 1)) AS DOUBLE)
                / CAST(CAST(SUM(n) AS HUGEINT) * (SUM(n) - 1) AS DOUBLE))
    ELSE 0.0 END AS effective_types
FROM counts
GROUP BY lang
ORDER BY lang
"""


# ---------------------------------------------------------------------------
# Shannon diversity of each language's token distribution.
# ---------------------------------------------------------------------------

def lang_shannon(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(lang, n_tokens, n_types, shannon_nats, evenness): Shannon
    entropy H = Σ (nₜ/N)·ln(N/nₜ) of each language's token
    distribution, and Pielou's evenness H / ln(n_types) — the order-1
    diversity sitting between ``lang_ttr`` (order 0) and
    ``lang_simpson`` (order 2).

    Exactness: H·N·10⁶ = N·L(N) − Σ nₜ·L(nₜ) with L the micro-log
    quantization — exact integers end to end; evenness is
    num / (N · L(n_types)), where the 10⁶ scale cancels. Same
    single token-hash shuffle and per-partition Σ nₜ·L(nₜ) fold as
    lang_simpson (int64 partial bounds documented there).

    Plan: per-batch (lang, token, n) pre-combine, ONE token-hash
    shuffle, |langs| partial rows per partition, |langs| reduce."""
    from ..functions.hashing import token_partitions
    from ..functions.tokenize import split_ws_tokens

    ds = read_pq(
        os.path.join(sf_dir, "documents.parquet"), columns=["lang", "text"]
    )
    hint = parquet_rows_hint(ds)
    n_parts = num_partitions or adaptive_partitions(
        hint * 64 if hint else None, row_bytes=32
    )

    def pairs(b: pa.Table) -> pa.Table:
        words = split_ws_tokens(b.column("text"))
        off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = words.flatten()
        doc_idx = np.repeat(
            np.arange(len(words), dtype=np.int64), np.diff(off)
        )
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

    def fold(g: pa.Table) -> pa.Table:
        t = (
            g.select(["lang", "token", "n"])
            .group_by(["lang", "token"])
            .aggregate([("n", "sum")])
            .rename_columns(["lang", "token", "n"])
        )
        n = t.column("n").to_numpy(zero_copy_only=False)
        # micro-log over the DISTINCT counts, mapped back (libm ln)
        un = np.unique(n)
        lut = np.array([_micro_ln(int(v)) for v in un], np.int64)
        nl = n * lut[np.searchsorted(un, n)]
        t2 = t.append_column("nl", pa.array(nl, pa.int64()))
        out = t2.group_by("lang").aggregate(
            [("n", "sum"), ("nl", "sum"), ([], "count_all")]
        )
        return out.rename_columns(["lang", "n_tokens", "s_nl", "n_types"])

    per_part = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby("part")
        .map_groups(fold, batch_format="pyarrow")
    )
    tbl = bounded_group_table_strict(
        per_part, ["lang"],
        [("n_tokens", "sum"), ("s_nl", "sum"), ("n_types", "sum")],
    )
    empty = pa.table(
        {
            "lang": pa.array([], pa.string()),
            "n_tokens": pa.array([], pa.int64()),
            "n_types": pa.array([], pa.int64()),
            "shannon_nats": pa.array([], pa.float64()),
            "evenness": pa.array([], pa.float64()),
        }
    )
    if tbl is None:
        return rd.from_arrow(empty)
    rows = sorted(
        zip(
            tbl.column("lang").to_pylist(),
            tbl.column("n_tokens").to_pylist(),
            tbl.column("s_nl").to_pylist(),
            tbl.column("n_types").to_pylist(),
        )
    )
    out_l, out_n, out_ty, out_h, out_e = [], [], [], [], []
    for lang, n, s, ty in rows:
        n, s, ty = int(n), int(s), int(ty)
        num = n * _micro_ln(n) - s
        h = float(num) / (float(n) * 1000000.0)
        lt = _micro_ln(ty)
        ev = float(num) / (float(n) * float(lt)) if lt > 0 else 0.0
        out_l.append(lang)
        out_n.append(n)
        out_ty.append(ty)
        out_h.append(h)
        out_e.append(ev)
    return rd.from_arrow(
        pa.table(
            {
                "lang": pa.array(out_l, pa.string()),
                "n_tokens": pa.array(out_n, pa.int64()),
                "n_types": pa.array(out_ty, pa.int64()),
                "shannon_nats": pa.array(out_h, pa.float64()),
                "evenness": pa.array(out_e, pa.float64()),
            }
        )
    )


def _lang_shannon_sql() -> str:
    from ..functions.tokenize import WS_TOKEN_RE

    ln_n = _MICRO_LN_SQL.format(v="SUM(n)")
    ln_t = _MICRO_LN_SQL.format(v="COUNT(*)")
    ln_each = _MICRO_LN_SQL.format(v="n")
    return f"""
WITH tok AS (
  SELECT lang, unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS token
  FROM documents
), counts AS MATERIALIZED (
  SELECT lang, token, CAST(COUNT(*) AS BIGINT) AS n
  FROM tok GROUP BY lang, token
)
SELECT lang,
  CAST(SUM(n) AS BIGINT) AS n_tokens,
  CAST(COUNT(*) AS BIGINT) AS n_types,
  CAST(CAST(SUM(n) AS HUGEINT) * {ln_n}
       - SUM(CAST(n AS HUGEINT) * {ln_each}) AS DOUBLE)
    / (CAST(SUM(n) AS DOUBLE) * 1000000.0) AS shannon_nats,
  CASE WHEN {ln_t} > 0
    THEN CAST(CAST(SUM(n) AS HUGEINT) * {ln_n}
              - SUM(CAST(n AS HUGEINT) * {ln_each}) AS DOUBLE)
       / (CAST(SUM(n) AS DOUBLE) * CAST({ln_t} AS DOUBLE))
    ELSE 0.0 END AS evenness
FROM counts
GROUP BY lang
ORDER BY lang
"""


# ---------------------------------------------------------------------------
# Per-document token novelty (first-occurrence vocabulary share).
# ---------------------------------------------------------------------------

def doc_token_novelty(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(doc_id, n_types, n_novel, novelty): for every document with at
    least one token, the share of its DISTINCT tokens whose corpus-wide
    first occurrence (min doc_id) is this document — the novelty curve
    dataset curation orders by (late near-duplicates and template spam
    score ~0; genuinely new material scores high). The per-document
    consumer of ``vocab_growth``'s first-seen machinery.

    Plan: the denominator (distinct tokens per doc) is doc-local and
    shuffle-free; the numerator ships per-batch (token → min doc)
    partials through ONE token-hash shuffle (each partition finalizes
    its tokens' global min and emits (doc, owned) count rows), then
    ONE doc-hash shuffle co-partitions numerator rows with denominator
    rows for the per-doc fold. Text ships zero times; both shuffles
    carry ≤16–32 B rows. Output is a distributed per-doc Dataset —
    nothing corpus-sized touches the driver."""
    from ..functions.hashing import splitmix64_np, token_partitions
    from ..functions.tokenize import split_ws_tokens

    ds = read_pq(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
    )
    hint = parquet_rows_hint(ds)
    n_parts = num_partitions or adaptive_partitions(
        hint * 64 if hint else None, row_bytes=32
    )
    n_doc_parts = num_partitions or adaptive_partitions(hint, row_bytes=24)

    def _doc_part(doc: np.ndarray) -> pa.Array:
        return pa.array(
            (splitmix64_np(doc.astype(np.uint64)) % n_doc_parts).astype(
                np.int64
            ),
            pa.int64(),
        )

    def denom(b: pa.Table) -> pa.Table:
        words = split_ws_tokens(b.column("text"))
        off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = words.flatten()
        doc = b.column("doc_id").to_numpy(zero_copy_only=False)
        doc_rep = np.repeat(doc, np.diff(off))
        mask = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "d": pa.array(doc_rep[mask], pa.int64()),
                "token": flat.filter(pa.array(mask)),
            }
        ).group_by(["d", "token"]).aggregate([([], "count_all")])
        g = (
            t.select(["d"]).group_by("d").aggregate([([], "count_all")])
            .rename_columns(["doc_id", "cnt"])
        )
        doc_u = g.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "dpart": _doc_part(doc_u),
                "doc_id": g.column("doc_id"),
                "n_types": pc.cast(g.column("cnt"), pa.int64()),
                "n_novel": pa.array(np.zeros(len(g), np.int64)),
            }
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

    def owned(g: pa.Table) -> pa.Table:
        t = (
            g.select(["token", "fd"])
            .group_by("token")
            .aggregate([("fd", "min")])
        )
        fd = t.column("fd_min").to_numpy(zero_copy_only=False)
        docs, cnt = np.unique(fd, return_counts=True)
        return pa.table(
            {
                "dpart": _doc_part(docs),
                "doc_id": pa.array(docs, pa.int64()),
                "n_types": pa.array(np.zeros(len(docs), np.int64)),
                "n_novel": pa.array(cnt.astype(np.int64)),
            }
        )

    numer = (
        ds.map_batches(first_seen, batch_format="pyarrow")
        .groupby("part")
        .map_groups(owned, batch_format="pyarrow")
    )
    den = ds.map_batches(denom, batch_format="pyarrow")

    def fold(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_types": pa.array([], pa.int64()),
                    "n_novel": pa.array([], pa.int64()),
                    "novelty": pa.array([], pa.float64()),
                }
            )
        m = (
            g.select(["doc_id", "n_types", "n_novel"])
            .group_by("doc_id")
            .aggregate([("n_types", "sum"), ("n_novel", "sum")])
            .rename_columns(["doc_id", "n_types", "n_novel"])
        )
        # numerator-only docs (a doc owning tokens ALWAYS has types;
        # this can't happen) and empty docs (no rows at all) both
        # filter to n_types > 0 like the oracle's denominator CTE
        m = m.filter(pc.greater(m.column("n_types"), 0))
        ty = m.column("n_types").to_numpy(zero_copy_only=False)
        nv = m.column("n_novel").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": m.column("doc_id"),
                "n_types": pa.array(ty, pa.int64()),
                "n_novel": pa.array(nv, pa.int64()),
                "novelty": pa.array(
                    nv.astype(np.float64) / ty.astype(np.float64)
                ),
            }
        )

    return (
        numer.union(den).groupby("dpart").map_groups(
            fold, batch_format="pyarrow"
        )
    )


def _doc_token_novelty_sql() -> str:
    from ..functions.tokenize import WS_TOKEN_RE

    return f"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS token
  FROM documents
), dt AS MATERIALIZED (
  SELECT DISTINCT doc_id, token FROM tok
), fst AS (
  SELECT token, min(doc_id) AS fd FROM dt GROUP BY 1
), den AS (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_types FROM dt GROUP BY 1
), own AS (
  SELECT fd AS doc_id, CAST(COUNT(*) AS BIGINT) AS n_novel
  FROM fst GROUP BY 1
)
SELECT d.doc_id, d.n_types, COALESCE(o.n_novel, 0) AS n_novel,
  CAST(COALESCE(o.n_novel, 0) AS DOUBLE)
    / CAST(d.n_types AS DOUBLE) AS novelty
FROM den d LEFT JOIN own o USING (doc_id)
ORDER BY d.doc_id
"""


# ---------------------------------------------------------------------------
# Two-sample Cramér–von Mises distance between source length
# distributions (the integrated-squared-difference companion of
# corpus2.source_ks_length's max-difference KS statistic).
# ---------------------------------------------------------------------------

def source_cvm_length(sf_dir: str) -> rd.Dataset:
    """(source_a, source_b, n_a, n_b, cvm): for every unordered pair
    of sources, the two-sample Cramér–von Mises criterion between
    their document-length distributions — ω² = Σ_v (F_a−F_b)²(v) ·
    (h_a+h_b)(v)/(n_a+n_b), the whole-CDF drift measure where KS only
    sees the worst point (a distribution can differ everywhere but
    nowhere sharply; KS misses that, ω² does not).

    Exactness: F_a−F_b at v is the integer (cum_a·n_b − cum_b·n_a)
    over n_a·n_b, so ω²'s numerator Σ (cum_a·n_b − cum_b·n_a)²·(h_a+h_b)
    and denominator n_a²·n_b²·(n_a+n_b) are both exact arbitrary-
    precision integers; the statistic is their single float division,
    written identically in the oracle over HUGEINT window sums.

    Plan: the same ONE shuffle-free bounded histogram pass as
    source_ks_length; pairwise merged-support walks on the driver."""
    ds = read_pq(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["source", "n_chars"],
    )

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
            "cvm": pa.array([], pa.float64()),
        }
    )
    if hist is None:
        return rd.from_arrow(empty)
    by_src: dict[str, dict[int, int]] = {}
    for s, v, c in zip(
        hist.column("source").to_pylist(),
        hist.column("v").to_numpy(zero_copy_only=False),
        hist.column("n").to_numpy(zero_copy_only=False),
    ):
        by_src.setdefault(s, {})[int(v)] = int(c)
    names = sorted(by_src)
    rows = []
    for i, sa in enumerate(names):
        for sb in names[i + 1:]:
            ha, hb = by_src[sa], by_src[sb]
            support = sorted(set(ha) | set(hb))
            na, nb = sum(ha.values()), sum(hb.values())
            ca = cb = 0
            num = 0
            for v in support:
                a, b_ = ha.get(v, 0), hb.get(v, 0)
                ca += a
                cb += b_
                d = ca * nb - cb * na
                num += d * d * (a + b_)
            den = na * na * nb * nb * (na + nb)
            rows.append((sa, sb, na, nb, float(num) / float(den)))
    return rd.from_arrow(
        pa.table(
            {
                "source_a": pa.array([r[0] for r in rows], pa.string()),
                "source_b": pa.array([r[1] for r in rows], pa.string()),
                "n_a": pa.array([r[2] for r in rows], pa.int64()),
                "n_b": pa.array([r[3] for r in rows], pa.int64()),
                "cvm": pa.array([r[4] for r in rows], pa.float64()),
            }
        )
    )


SOURCE_CVM_LENGTH_SQL = """
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
  SELECT sa, sb, na, nb, ca, cb,
    SUM(ca) OVER (PARTITION BY sa, sb ORDER BY v) AS cca,
    SUM(cb) OVER (PARTITION BY sa, sb ORDER BY v) AS ccb
  FROM merged
)
SELECT sa AS source_a, sb AS source_b, na AS n_a, nb AS n_b,
  CAST(SUM(CAST(cca * nb - ccb * na AS HUGEINT)
           * CAST(cca * nb - ccb * na AS HUGEINT)
           * (ca + cb)) AS DOUBLE)
    / CAST(CAST(na AS HUGEINT) * na * nb * nb * (na + nb) AS DOUBLE) AS cvm
FROM cum
GROUP BY sa, sb, na, nb
ORDER BY source_a, source_b
"""


# ---------------------------------------------------------------------------
# Population Stability Index — the standard model-monitoring drift
# score between each source's document-length distribution and the
# corpus-wide reference (r5). PSI < 0.1 "stable", 0.1-0.25 "shifting",
# > 0.25 "population changed" — the triage number a curation team
# watches per ingest source before anything subtler (KS/CvM above)
# is consulted.
# ---------------------------------------------------------------------------

# fixed power-of-two char-length bin edges: bin k = first edge > n
# (searchsorted right), so the binning is pure integer comparison —
# bit-identical between numpy and the oracle's CASE chain
PSI_EDGES = (64, 128, 256, 512, 1024, 2048, 4096)
_PSI_B = len(PSI_EDGES) + 1


def source_psi_chars(sf_dir: str) -> pa.Table:
    """(source, n_docs, psi): PSI of each source's n_chars histogram
    against the whole corpus, over the fixed ``PSI_EDGES`` bins with
    0.5-per-bin Laplace smoothing (so an empty bin contributes a
    finite, deterministic term instead of ±inf).

    Float discipline: p = (c+0.5)/(n+B/2), q = (g+0.5)/(N+B/2),
    term = (p−q)·ln(p/q), accumulated in FIXED bin order with libm
    log (CPython math.log = DuckDB ln; the oracle folds the same
    terms with list_sum over an ORDER BY bin list — both sequential).

    Plan: per-batch Arrow group_by (source, bin) pre-combine → the
    strict bounded reduce (|sources|·B rows) → O(|sources|·B) driver
    arithmetic. ONE pass, two pruned int columns, no text."""
    ds = read_pq(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["source", "n_chars"],
    )
    edges = np.asarray(PSI_EDGES, np.int64)

    def partial(b: pa.Table) -> pa.Table:
        nc = pc.cast(b.column("n_chars"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        t = pa.table(
            {
                "source": b.column("source"),
                "bin": pa.array(
                    np.searchsorted(edges, nc, side="right"), pa.int64()
                ),
            }
        )
        g = t.group_by(["source", "bin"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "source": g.column("source"),
                "bin": g.column("bin"),
                "c": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    tbl = bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source", "bin"],
        [("c", "sum")],
    )
    empty = pa.table(
        {
            "source": pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "psi": pa.array([], pa.float64()),
        }
    )
    if tbl is None or tbl.num_rows == 0:
        return empty
    counts: dict[str, list[int]] = {}
    for src, bin_, c in zip(
        tbl.column("source").to_pylist(),
        tbl.column("bin").to_pylist(),
        tbl.column("c").to_pylist(),
    ):
        counts.setdefault(src, [0] * _PSI_B)[bin_] += int(c)
    glob = [0] * _PSI_B
    for row in counts.values():
        for k in range(_PSI_B):
            glob[k] += row[k]
    n_total = sum(glob)
    half_b = _PSI_B / 2.0
    out_s, out_n, out_p = [], [], []
    for src in sorted(counts, key=lambda s: (s is None, s or "")):
        row = counts[src]
        n_s = sum(row)
        acc = 0.0
        for k in range(_PSI_B):  # fixed bin order == the oracle's fold
            p = (row[k] + 0.5) / (n_s + half_b)
            q = (glob[k] + 0.5) / (n_total + half_b)
            acc += (p - q) * math.log(p / q)
        out_s.append(src)
        out_n.append(n_s)
        out_p.append(acc)
    return pa.table(
        {
            "source": pa.array(out_s, pa.string()),
            "n_docs": pa.array(out_n, pa.int64()),
            "psi": pa.array(out_p, pa.float64()),
        }
    )


def _psi_case_sql() -> str:
    parts = []
    for k, e in enumerate(PSI_EDGES):
        parts.append(f"WHEN n_chars < {e} THEN {k}")
    return "CASE " + " ".join(parts) + f" ELSE {len(PSI_EDGES)} END"


SOURCE_PSI_SQL = f"""
WITH b AS (
  SELECT source, {_psi_case_sql()} AS bin FROM documents
),
cnt AS (
  SELECT source, bin, CAST(COUNT(*) AS BIGINT) AS c
  FROM b GROUP BY source, bin
),
src AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n FROM b GROUP BY source),
bins AS (SELECT unnest(generate_series(0, {len(PSI_EDGES)})) AS bin),
grid AS (
  SELECT s.source, s.n, bins.bin, COALESCE(c.c, 0) AS c
  FROM src s CROSS JOIN bins
  LEFT JOIN cnt c ON c.source IS NOT DISTINCT FROM s.source
                 AND c.bin = bins.bin
),
gtot AS (SELECT bin, CAST(SUM(c) AS BIGINT) AS g FROM grid GROUP BY bin),
tot AS (SELECT CAST(SUM(n) AS BIGINT) AS nt FROM src),
terms AS (
  SELECT grid.source, grid.n, grid.bin,
    ((grid.c + 0.5) / (grid.n + {_PSI_B} / 2.0)
      - (gtot.g + 0.5) / (tot.nt + {_PSI_B} / 2.0))
    * ln(((grid.c + 0.5) / (grid.n + {_PSI_B} / 2.0))
         / ((gtot.g + 0.5) / (tot.nt + {_PSI_B} / 2.0))) AS term
  FROM grid JOIN gtot USING (bin) CROSS JOIN tot
)
SELECT source, ANY_VALUE(n) AS n_docs,
  list_sum(list(term ORDER BY bin)) AS psi
FROM terms GROUP BY source
"""
