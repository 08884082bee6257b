"""Corpus batch 3 (round 4, continuation): retrieval and sampling
shapes the suite did not yet cover —

- positional phrase search (``phrase_search``): exact consecutive
  token-sequence matching — the positional-postings capability a
  retrieval index adds on top of ``term_postings``'s doc-level
  postings,
- asymmetric n-gram containment pairs (``containment_pairs``): the
  quote / inclusion detector — |A∩B| / |A| ≥ τ catches a small page
  embedded inside a big one, which symmetric Jaccard structurally
  misses (the union term dilutes it),
- Neyman-allocated stratified sampling (``stratified_neyman_sample``):
  the survey-sampling allocation n_h ∝ N_h·σ_h — strata with more
  internal variance get proportionally more of the sample budget than
  proportional allocation would give them.

The reference has no analog (single-process JSON metadata walk);
these extend the training-data-pipeline axis the builder brief makes
first-class, in the styles of corpus.py / functions/jaccard.py.

Scale notes. ``phrase_search`` is ZERO-shuffle: a phrase hit is a
within-document property, so every batch answers for its own rows
(one RE2 split, vectorized adjacency over dictionary codes).
``containment_pairs`` reuses the rare-gram candidate discipline of
``functions/jaccard.py`` — only grams with df ≤ max_df expand into
pairs (bounded O(df²) per gram), then candidates are verified exactly
against the two documents' gram sets; the verify side ships gram
HASHES (8 B each), never text. ``stratified_neyman_sample`` ships one
(lang, n, Σx, Σx²) moment row per (batch, stratum); the allocation is
solved on the bounded per-stratum table and membership is a
broadcast bottom-k-by-hash threshold probe, so the corpus itself
never shuffles (the token_budget_sample discipline).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..functions.tokenize import WS_TOKEN_RE, tokens_with_doc_index
from ..partitioning import bounded_group_table_strict, read_pq


def _docs(sf_dir: str, columns: list[str]) -> rd.Dataset:
    return read_pq(os.path.join(sf_dir, "documents.parquet"), columns=columns)


# ---------------------------------------------------------------------------
# positional phrase search
# ---------------------------------------------------------------------------

_PHRASE = ("fast", "table")


def phrase_search(
    sf_dir: str, w1: str = _PHRASE[0], w2: str = _PHRASE[1]
) -> rd.Dataset:
    """(doc_id, n_occ, first_pos): documents containing the exact
    consecutive token phrase ``w1 w2``, with the occurrence count and
    the 0-based token position of the first hit.

    Zero-shuffle: adjacency is a within-document property, so each
    batch emits its own answer rows. One canonical ``\\S+`` split per
    batch (tokens_with_doc_index), then the match is two dictionary-
    code compares and a doc-boundary guard — no per-row Python."""

    def local(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_occ": pa.array([], pa.int64()),
                "first_pos": pa.array([], pa.int64()),
            }
        )
        doc_idx, enc = tokens_with_doc_index(b.column("text"))
        n = len(doc_idx)
        if enc is None or n < 2:
            return empty
        vocab = enc.dictionary.to_pylist()
        try:
            c1 = vocab.index(w1)
            c2 = vocab.index(w2)
        except ValueError:  # a phrase word absent from the whole batch
            return empty
        codes = enc.indices.to_numpy(zero_copy_only=False)
        # token position within its own document: the flattened split
        # is doc-major, so doc_idx is nondecreasing and a run-start
        # subtraction gives 0-based positions
        new_doc = np.empty(n, dtype=bool)
        new_doc[0] = True
        np.not_equal(doc_idx[1:], doc_idx[:-1], out=new_doc[1:])
        run_id = np.cumsum(new_doc) - 1
        run_start = np.flatnonzero(new_doc)
        pos = np.arange(n, dtype=np.int64) - run_start[run_id]
        hit = (
            (codes[:-1] == c1)
            & (codes[1:] == c2)
            & (doc_idx[:-1] == doc_idx[1:])
        )
        hidx = np.flatnonzero(hit)
        if len(hidx) == 0:
            return empty
        hdocs = doc_idx[hidx]
        # hits are position-ordered, so the first index per doc run IS
        # the first occurrence
        udocs, first = np.unique(hdocs, return_index=True)
        n_occ = np.bincount(hdocs)[udocs]
        dids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(dids[udocs], pa.int64()),
                "n_occ": pa.array(n_occ.astype(np.int64), pa.int64()),
                "first_pos": pa.array(pos[hidx[first]], pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        local, batch_format="pyarrow"
    )


def _phrase_sql(w1: str = _PHRASE[0], w2: str = _PHRASE[1]) -> str:
    return f"""
WITH t AS (
  SELECT doc_id, regexp_extract_all(text, '{WS_TOKEN_RE}') AS toks
  FROM documents
),
m AS (
  SELECT doc_id,
    list_filter(range(1, len(toks)),
                i -> toks[i] = '{w1}' AND toks[i + 1] = '{w2}') AS hits
  FROM t
)
SELECT doc_id, CAST(len(hits) AS BIGINT) AS n_occ,
       CAST(hits[1] - 1 AS BIGINT) AS first_pos
FROM m WHERE len(hits) > 0
"""


PHRASE_SEARCH_SQL = _phrase_sql()


# ---------------------------------------------------------------------------
# asymmetric n-gram containment over a planted quote corpus
# ---------------------------------------------------------------------------

_QUOTE_TOKENS = 12
_QUOTE_ID_OFFSET = 3_000_000
_CONTAIN_K = 5
_CONTAIN_MAX_DF = 8
_CONTAIN_MIN = 0.8


def _first_k_tokens_join(texts: pa.ChunkedArray | pa.Array, k: int) -> pa.Array:
    """Per row, the first ``k`` canonical-WS tokens re-joined with
    single spaces — vectorized (one split, one position mask, one
    binary_join); exactly DuckDB's
    ``array_to_string(regexp_extract_all(text,'\\S+')[1:k], ' ')``."""
    from ..functions.tokenize import split_ws_tokens

    words = split_ws_tokens(texts)
    off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = words.flatten()
    n_docs = len(words)
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(off))
    mask = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    idx = np.flatnonzero(mask)
    di = doc_idx[idx]
    # 0-based token position within its doc (di is nondecreasing)
    n = len(di)
    if n == 0:
        return pc.binary_join(
            pa.ListArray.from_arrays(
                pa.array(np.zeros(n_docs + 1, np.int32)),
                pa.array([], pa.string()),
            ),
            " ",
        )
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(di[1:], di[:-1], out=new[1:])
    run_start = np.flatnonzero(new)
    pos = np.arange(n, dtype=np.int64) - run_start[np.cumsum(new) - 1]
    sel = idx[pos < k]
    counts = np.bincount(di[pos < k], minlength=n_docs)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    return pc.binary_join(
        pa.ListArray.from_arrays(
            pa.array(offsets), flat.take(pa.array(sel, pa.int64()))
        ),
        " ",
    )


def _quote_corpus(sf_dir: str) -> rd.Dataset:
    """Documents plus, for every doc_id % 10 == 3, a QUOTE document —
    the doc's first {_QUOTE_TOKENS} tokens under the canonical \\S+
    split — at doc_id + {_QUOTE_ID_OFFSET}. The quote is fully
    contained in its source but shares only a short prefix, so its
    Jaccard to the source is far below any dedup threshold: the
    planted structure only a containment operator can see."""

    def expand(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_numpy(zero_copy_only=False)
        sub = b.filter(pa.array(d % 10 == 3))
        quotes = pa.table(
            {
                "doc_id": pc.add(sub.column("doc_id"), _QUOTE_ID_OFFSET),
                "text": _first_k_tokens_join(
                    sub.column("text").combine_chunks(), _QUOTE_TOKENS
                ),
            }
        )
        return pa.concat_tables(
            [b.select(["doc_id", "text"]), quotes]
        ).combine_chunks()

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        expand, batch_format="pyarrow"
    )


def containment_pairs(sf_dir: str) -> rd.Dataset:
    """(doc_id_a, doc_id_b, n_common, n_a, n_b, containment): document
    pairs whose word-{_CONTAIN_K}-gram CONTAINMENT |A∩B| / min(|A|,|B|)
    is ≥ {_CONTAIN_MIN} over the quote corpus — the quote / inclusion
    detector (functions/jaccard.ngram_containment_pairs). The planted
    quotes have containment 1.0 and Jaccard ≈ 0.15: structurally
    invisible to the symmetric dedup_jaccard operator."""
    from ..functions.jaccard import ngram_containment_pairs
    from ..partitioning import adaptive_partitions

    import pyarrow.parquet as pq

    n = pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")
    ).metadata.num_rows
    return ngram_containment_pairs(
        _quote_corpus(sf_dir),
        k=_CONTAIN_K,
        max_df=_CONTAIN_MAX_DF,
        min_containment=_CONTAIN_MIN,
        num_partitions=adaptive_partitions(
            (n + n // 10) * 96, row_bytes=24
        ),
    )


def _containment_sql() -> str:
    leads = " || ' ' || ".join(
        f"LEAD(w, {j}) OVER win" for j in range(1, _CONTAIN_K)
    )
    thr_millis = int(round(_CONTAIN_MIN * 1000))
    return f"""
WITH corpus AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + {_QUOTE_ID_OFFSET} AS doc_id,
         array_to_string(
           regexp_extract_all(text, '{WS_TOKEN_RE}')[1:{_QUOTE_TOKENS}],
           ' ') AS text
  FROM documents WHERE doc_id % 10 = 3
),
words AS (
  SELECT doc_id,
         unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS w,
         unnest(generate_series(1, len(regexp_extract_all(text, '{WS_TOKEN_RE}')))) AS i
  FROM corpus
),
grams AS (
  SELECT DISTINCT doc_id, w || ' ' || {leads} AS g
  FROM words
  WINDOW win AS (PARTITION BY doc_id ORDER BY i)
  QUALIFY LEAD(w, {_CONTAIN_K - 1}) OVER win IS NOT NULL
),
rare AS (
  SELECT g FROM grams GROUP BY g
  HAVING COUNT(*) BETWEEN 2 AND {_CONTAIN_MAX_DF}
),
cand AS (
  SELECT DISTINCT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b
  FROM rare r
  JOIN grams a ON a.g = r.g
  JOIN grams b ON b.g = r.g
  WHERE a.doc_id < b.doc_id
),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM grams GROUP BY doc_id),
inter AS (
  SELECT c.doc_id_a, c.doc_id_b, COUNT(*) AS n_common
  FROM cand c
  JOIN grams ga ON ga.doc_id = c.doc_id_a
  JOIN grams gb ON gb.doc_id = c.doc_id_b AND gb.g = ga.g
  GROUP BY c.doc_id_a, c.doc_id_b
)
SELECT i.doc_id_a, i.doc_id_b,
       CAST(i.n_common AS BIGINT) AS n_common,
       CAST(sa.n AS BIGINT) AS n_a,
       CAST(sb.n AS BIGINT) AS n_b,
       CAST(i.n_common AS DOUBLE) / CAST(LEAST(sa.n, sb.n) AS DOUBLE)
         AS containment
FROM inter i
JOIN sizes sa ON sa.doc_id = i.doc_id_a
JOIN sizes sb ON sb.doc_id = i.doc_id_b
WHERE LEAST(sa.n, sb.n) > 0
  AND i.n_common * 1000 >= {thr_millis} * LEAST(sa.n, sb.n)
"""


CONTAINMENT_SQL = _containment_sql()


# ---------------------------------------------------------------------------
# Neyman-allocated stratified sampling
# ---------------------------------------------------------------------------

_NEYMAN_BUDGET = 100
# sentinel standing in for a NULL lang stratum through the numpy-str
# prune path and the Ray groupby. NOT a NUL byte — numpy's
# fixed-width unicode → Arrow conversion truncates at NUL; \x01 is
# equally impossible in a real lang tag and survives the round-trip
_NULL_LANG = "\x01<null-lang>\x01"


def neyman_allocation(sf_dir: str, budget: int = _NEYMAN_BUDGET) -> "pa.Table":
    """(lang, n_docs, s1, s2, wgt, k_alloc): the survey-sampling
    Neyman allocation n_h ∝ N_h·σ_h over language strata, with
    ``n_chars`` as the study variable — high-variance strata earn more
    of the sample budget than proportional allocation would give them.

    Every decision is reproducible to the bit: N_h·σ_h =
    sqrt(N_h·Σx² − (Σx)²) with an EXACT int64 radicand (exact while
    N_h·Σx² < 2⁵³ — ~10⁷ docs/stratum at web-page lengths; past that,
    pre-scale the moments), IEEE sqrt of an exactly-represented
    integer, the weight total accumulated in FIXED lang order (the
    oracle's sequential window sum), and k_h =
    min(floor(budget·w_h / W), N_h) — the same three IEEE ops in both
    engines. A zero-variance stratum gets weight 0 (σ=0 ⇒ one unit
    would suffice; the floor convention sends it to 0), and Σk_h ≤
    budget by the floor apportionment.

    ONE moment row (lang, n, Σx, Σx²) per (batch, stratum) enters the
    bounded reduce; the allocation solve is O(|strata|) on the driver."""
    ds = _docs(sf_dir, ["doc_id", "lang", "n_chars"])

    def moments(b: pa.Table) -> pa.Table:
        x = pc.cast(b.column("n_chars"), pa.int64())
        t = pa.table(
            {
                "lang": b.column("lang"),
                "x": x,
                "xx": pc.multiply(x, x),
            }
        )
        g = t.group_by("lang").aggregate(
            [("x", "sum"), ("xx", "sum"), ([], "count_all")]
        )
        return pa.table(
            {
                "lang": g.column("lang"),
                "s1": pc.cast(g.column("x_sum"), pa.int64()),
                "s2": pc.cast(g.column("xx_sum"), pa.int64()),
                "n": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    tbl = bounded_group_table_strict(
        ds.map_batches(moments, batch_format="pyarrow"),
        ["lang"],
        [("s1", "sum"), ("s2", "sum"), ("n", "sum")],
    )
    empty = pa.table(
        {
            "lang": pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "s1": pa.array([], pa.int64()),
            "s2": pa.array([], pa.int64()),
            "wgt": pa.array([], pa.float64()),
            "k_alloc": pa.array([], pa.int64()),
        }
    )
    if tbl is None or tbl.num_rows == 0:
        return empty
    # None-safe lang sort (NULLS LAST, DuckDB's ASC default): a null
    # stratum is a legal GROUP BY group and must not TypeError the zip
    rows = sorted(
        zip(
            tbl.column("lang").to_pylist(),
            tbl.column("n").to_pylist(),
            tbl.column("s1").to_pylist(),
            tbl.column("s2").to_pylist(),
        ),
        key=lambda r: (r[0] is None, r[0] if r[0] is not None else ""),
    )
    import math

    w = [math.sqrt(float(n * s2 - s1 * s1)) for (_l, n, s1, s2) in rows]
    wtot = 0.0
    for x in w:  # fixed lang-ascending order == the oracle's window sum
        wtot += x
    if wtot <= 0.0:
        ks = [0] * len(w)
    else:
        ks = [
            min(int(math.floor(budget * wi / wtot)), rows[i][1])
            for i, wi in enumerate(w)
        ]
    return pa.table(
        {
            "lang": pa.array([r[0] for r in rows], pa.string()),
            "n_docs": pa.array([r[1] for r in rows], pa.int64()),
            "s1": pa.array([r[2] for r in rows], pa.int64()),
            "s2": pa.array([r[3] for r in rows], pa.int64()),
            "wgt": pa.array(w, pa.float64()),
            "k_alloc": pa.array(ks, pa.int64()),
        }
    )


def stratified_neyman_sample(
    sf_dir: str, budget: int = _NEYMAN_BUDGET
) -> rd.Dataset:
    """(lang, doc_id, n_chars): the Neyman-allocated stratified sample
    itself — within each language stratum, the ``k_alloc`` documents
    with the smallest splitmix64(doc_id) (deterministic bottom-k-by-
    hash: a function of the row SET, partition-invariant). The corpus
    never shuffles: each batch prunes to its own per-stratum bottom-k
    (≤ Σk ≤ budget rows per block), and a |strata|-group merge
    resolves the winners."""
    from ..functions.hashing import splitmix64_np
    from ..functions.sketch import _key_segments

    alloc_t = neyman_allocation(sf_dir, budget)
    # a null lang is a legal stratum (SQL GROUP BY keeps NULL as a
    # group): key it by a sentinel that survives the numpy-str prune
    # path and the Ray groupby, mapped back to null on output — the
    # old astype(str) turned None into the string 'None' on the data
    # side while the dict held the Python None key, silently k=0-ing
    # the whole stratum
    alloc = {
        (lg if lg is not None else _NULL_LANG): int(k)
        for lg, k in zip(
            alloc_t.column("lang").to_pylist(),
            alloc_t.column("k_alloc").to_pylist(),
        )
    }
    empty = pa.table(
        {
            "lang": pa.array([], pa.string()),
            "doc_id": pa.array([], pa.int64()),
            "n_chars": pa.array([], pa.int64()),
            "h": pa.array([], pa.uint64()),
        }
    )
    if not any(alloc.values()):
        return rd.from_arrow(empty.select(["lang", "doc_id", "n_chars"]))

    import ray

    alloc_ref = ray.put(alloc)

    def prune(b: pa.Table) -> pa.Table:
        ka = ray.get(alloc_ref)
        langs = (
            pc.fill_null(b.column("lang"), _NULL_LANG)
            .to_numpy(zero_copy_only=False)
            .astype(str)
        )
        ids = pc.cast(b.column("doc_id"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        chars = pc.cast(b.column("n_chars"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        hs = splitmix64_np(ids.astype(np.uint64))
        uk, starts, ends, order = _key_segments(langs)
        ids, chars, hs = ids[order], chars[order], hs[order]
        keep: list[np.ndarray] = []
        for key, a, e in zip(uk.tolist(), starts, ends):
            k = ka.get(key, 0)
            if k <= 0:
                continue
            seg = np.arange(a, e)
            if len(seg) > k:
                local = np.lexsort((ids[seg], hs[seg]))[:k]
                seg = seg[local]
            keep.append(seg)
        if not keep:
            return empty
        sel = np.concatenate(keep)
        langs_sorted = langs[order]
        return pa.table(
            {
                "lang": pa.array(langs_sorted[sel], pa.string()),
                "doc_id": pa.array(ids[sel], pa.int64()),
                "n_chars": pa.array(chars[sel], pa.int64()),
                "h": pa.array(hs[sel], pa.uint64()),
            }
        )

    def merge(g: pa.Table) -> pa.Table:
        ka = ray.get(alloc_ref)
        lang = g.column("lang")[0].as_py()
        k = ka.get(lang, 0)
        ids = g.column("doc_id").to_numpy(zero_copy_only=False)
        hs = g.column("h").to_numpy(zero_copy_only=False)
        chars = g.column("n_chars").to_numpy(zero_copy_only=False)
        win = np.lexsort((ids, hs))[:k]
        out_lang = None if lang == _NULL_LANG else lang
        return pa.table(
            {
                "lang": pa.array([out_lang] * len(win), pa.string()),
                "doc_id": pa.array(ids[win], pa.int64()),
                "n_chars": pa.array(chars[win], pa.int64()),
            }
        )

    return (
        _docs(sf_dir, ["doc_id", "lang", "n_chars"])
        .map_batches(prune, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(merge, batch_format="pyarrow")
    )


def _neyman_sqls(budget: int = _NEYMAN_BUDGET) -> tuple[str, str]:
    """(allocation_sql, sample_sql) — shared moment/allocation CTEs."""
    from .queries import _sql_splitmix_ctes

    base = f"""
m AS (
  SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
         CAST(SUM(n_chars) AS BIGINT) AS s1,
         CAST(SUM(n_chars * n_chars) AS BIGINT) AS s2
  FROM documents GROUP BY lang
),
w AS (
  SELECT lang, n_docs, s1, s2,
         sqrt(CAST(n_docs * s2 - s1 * s1 AS DOUBLE)) AS wgt
  FROM m
),
tot AS (
  SELECT MAX(cw) AS wtot FROM (
    SELECT SUM(wgt) OVER (ORDER BY lang ROWS UNBOUNDED PRECEDING) AS cw
    FROM w
  )
),
alloc AS (
  SELECT w.lang, w.n_docs, w.s1, w.s2, w.wgt,
    CASE WHEN t.wtot > 0
         THEN LEAST(CAST(FLOOR({budget} * w.wgt / t.wtot) AS BIGINT),
                    w.n_docs)
         ELSE 0 END AS k_alloc
  FROM w, tot t
)"""
    alloc_sql = f"""
WITH {base.strip()}
SELECT lang, n_docs, s1, s2, wgt, k_alloc FROM alloc
"""
    sm, cte, col = _sql_splitmix_ctes("nym", "ids", "did")
    sample_sql = f"""
WITH {base.strip()},
ids AS (
  SELECT doc_id, lang, n_chars, CAST(doc_id AS UBIGINT) AS did
  FROM documents
),
{sm.strip()},
ranked AS (
  SELECT lang, doc_id, n_chars,
    row_number() OVER (PARTITION BY lang ORDER BY {col}, doc_id) AS rn
  FROM {cte}
)
SELECT r.lang, r.doc_id, CAST(r.n_chars AS BIGINT) AS n_chars
FROM ranked r JOIN alloc a ON a.lang = r.lang
WHERE r.rn <= a.k_alloc
"""
    return alloc_sql, sample_sql


# SQL built lazily (registry lambdas) — the splitmix CTE helper lives
# in pipelines.queries, which imports this module.


# ---------------------------------------------------------------------------
# temperature-scaled multilingual mixture weights (the mT5 / CC-100
# α-sampling rule): p_l ∝ n_l^α with α < 1 upsamples low-resource
# languages relative to their corpus share.
# ---------------------------------------------------------------------------

_ALPHA = 0.3
_ALPHA_BUDGET = 1_000_000


def alpha_mixture_weights(
    sf_dir: str, alpha: float = _ALPHA, budget: int = _ALPHA_BUDGET
) -> "pa.Table":
    """(lang, n_docs, w_alpha, share, target_docs): the
    temperature-scaled language-sampling table — w_l = n_l^α,
    share_l = w_l / Σw, target_docs = floor(budget·share) — the
    data-mixing rule multilingual pretraining uses to keep
    high-resource languages from drowning the rest (α=1 is
    proportional, α=0 uniform).

    Bit-reproducible float discipline: CPython's libm ``pow`` is the
    same call DuckDB's ``pow`` makes (probed at build time), the
    weight total accumulates in FIXED lang order (the oracle's
    sequential window sum), and share / target are the same IEEE
    divide/floor in both engines. ONE count row per (batch, lang)
    enters the bounded reduce; the solve is O(|langs|)."""
    import math

    ds = _docs(sf_dir, ["lang"])

    def counts(b: pa.Table) -> pa.Table:
        g = b.group_by("lang").aggregate([([], "count_all")])
        return pa.table(
            {
                "lang": g.column("lang"),
                "n": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    tbl = bounded_group_table_strict(
        ds.map_batches(counts, batch_format="pyarrow"),
        ["lang"],
        [("n", "sum")],
    )
    empty = pa.table(
        {
            "lang": pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "w_alpha": pa.array([], pa.float64()),
            "share": pa.array([], pa.float64()),
            "target_docs": pa.array([], pa.int64()),
        }
    )
    if tbl is None or tbl.num_rows == 0:
        return empty
    rows = sorted(
        zip(tbl.column("lang").to_pylist(), tbl.column("n").to_pylist())
    )
    w = [math.pow(float(n), alpha) for (_l, n) in rows]
    wtot = 0.0
    for x in w:  # fixed lang-ascending order == the oracle's window sum
        wtot += x
    share = [wi / wtot for wi in w]
    target = [int(math.floor(budget * wi / wtot)) for wi in w]
    return pa.table(
        {
            "lang": pa.array([r[0] for r in rows], pa.string()),
            "n_docs": pa.array([r[1] for r in rows], pa.int64()),
            "w_alpha": pa.array(w, pa.float64()),
            "share": pa.array(share, pa.float64()),
            "target_docs": pa.array(target, pa.int64()),
        }
    )


ALPHA_MIXTURE_SQL = f"""
WITH m AS (
  SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs
  FROM documents GROUP BY lang
),
w AS (
  SELECT lang, n_docs,
         pow(CAST(n_docs AS DOUBLE), {_ALPHA}) AS w_alpha
  FROM m
),
tot AS (
  SELECT MAX(cw) AS wtot FROM (
    SELECT SUM(w_alpha) OVER (ORDER BY lang ROWS UNBOUNDED PRECEDING) AS cw
    FROM w
  )
)
SELECT w.lang, w.n_docs, w.w_alpha,
  w.w_alpha / t.wtot AS share,
  CAST(FLOOR({_ALPHA_BUDGET} * w.w_alpha / t.wtot) AS BIGINT) AS target_docs
FROM w, tot t
"""


# ---------------------------------------------------------------------------
# empirical-Bayes shrinkage of per-source quality: a small source's
# raw mean is noise; shrink it toward the global mean with weight
# n/(n+tau) before ranking sources.
# ---------------------------------------------------------------------------

_SHRINK_TAU = 50  # pseudo-count prior strength


def source_quality_shrunk(sf_dir: str, tau: int = _SHRINK_TAU) -> "pa.Table":
    """(source, n_docs, score_sum, raw_mean, shrunk_mean): each
    source's mean classifier score with empirical-Bayes shrinkage
    toward the global mean — shrunk = (Σx + τ·μ) / (n + τ), the
    add-τ-pseudo-observations posterior mean that keeps a 10-document
    source from outranking a 10⁶-document one on noise. The ranking
    criterion data-mixing weights should use instead of raw means.

    Exactness: Σx and n are exact int64 (the classifier is integer-
    quantized), μ = ΣΣx / Σn is ONE double division, and shrunk is the
    same three IEEE ops in both engines — every input to every float
    op is an exact integer. ONE (source, n, Σx) row per (batch,
    source) enters the bounded reduce; the solve is O(|sources|)."""
    from ..functions.classifier import classify_quality
    from .join import join as generic_join
    raw = classify_quality(
        _docs(sf_dir, ["doc_id", "text"])
    ).map_batches(
        lambda b: b.select(["doc_id", "score_total"]),
        batch_format="pyarrow",
    )
    # classifier scores and the source attribute join through the
    # size-gated generic join — 16 B/row projections both sides
    scored = generic_join(
        raw, _docs(sf_dir, ["doc_id", "source"]), on="doc_id"
    )

    def partial(b: pa.Table) -> pa.Table:
        g = b.select(["source", "score_total"]).group_by("source").aggregate(
            [("score_total", "sum"), ([], "count_all")]
        )
        return pa.table(
            {
                "source": g.column("source"),
                "s": pc.cast(g.column("score_total_sum"), pa.int64()),
                "n": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    tbl = bounded_group_table_strict(
        scored.map_batches(partial, batch_format="pyarrow"),
        ["source"],
        [("s", "sum"), ("n", "sum")],
    )
    empty = pa.table(
        {
            "source": pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "score_sum": pa.array([], pa.int64()),
            "raw_mean": pa.array([], pa.float64()),
            "shrunk_mean": pa.array([], pa.float64()),
        }
    )
    if tbl is None or tbl.num_rows == 0:
        return empty
    rows = sorted(
        zip(
            tbl.column("source").to_pylist(),
            tbl.column("n").to_pylist(),
            tbl.column("s").to_pylist(),
        )
    )
    tot_s = sum(r[2] for r in rows)
    tot_n = sum(r[1] for r in rows)
    mu = float(tot_s) / float(tot_n)
    raw = [float(s) / float(n) for (_src, n, s) in rows]
    shrunk = [
        (float(s) + tau * mu) / (float(n) + tau) for (_src, n, s) in rows
    ]
    return pa.table(
        {
            "source": pa.array([r[0] for r in rows], pa.string()),
            "n_docs": pa.array([r[1] for r in rows], pa.int64()),
            "score_sum": pa.array([r[2] for r in rows], pa.int64()),
            "raw_mean": pa.array(raw, pa.float64()),
            "shrunk_mean": pa.array(shrunk, pa.float64()),
        }
    )


def _source_quality_shrunk_sql(tau: int = _SHRINK_TAU) -> str:
    from .queries import _sql_quality_classifier

    return f"""
WITH s AS ({_sql_quality_classifier()}),
docsrc AS (
  SELECT d.source, s.score_total
  FROM s JOIN documents d ON d.doc_id = s.doc_id
),
m AS (
  SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
         CAST(SUM(score_total) AS BIGINT) AS score_sum
  FROM docsrc GROUP BY source
),
g AS (
  SELECT CAST(SUM(score_sum) AS DOUBLE) / CAST(SUM(n_docs) AS DOUBLE) AS mu
  FROM m
)
SELECT m.source, m.n_docs, m.score_sum,
  CAST(m.score_sum AS DOUBLE) / CAST(m.n_docs AS DOUBLE) AS raw_mean,
  (CAST(m.score_sum AS DOUBLE) + {tau} * g.mu)
    / (CAST(m.n_docs AS DOUBLE) + {tau}) AS shrunk_mean
FROM m, g
"""


# ---------------------------------------------------------------------------
# split-conformal outlier flagging: a distribution-free lower bound
# from a calibration split — test documents scoring below the
# calibration order statistic are outliers at miscoverage ≤ α.
# ---------------------------------------------------------------------------

_CONFORMAL_ALPHA = 0.1
_CONFORMAL_CAL_MOD = 5  # doc_id % 5 == 0 ⇒ calibration split


def conformal_outliers(
    sf_dir: str, alpha: float = _CONFORMAL_ALPHA
) -> rd.Dataset:
    """(doc_id, score_total, is_outlier): split-conformal novelty
    flagging over the quality classifier — the calibration split
    (doc_id % {_CONFORMAL_CAL_MOD} == 0) yields the order statistic
    q̂ = k-th smallest score with k = floor(α·(n_cal+1)); a test
    document scoring below q̂ is an outlier with distribution-free
    miscoverage ≤ α (no Gaussian assumption, unlike the z-score
    family). k < 1 ⇒ nothing can be flagged at this α.

    Exactness: scores are exact int64, k is the same floor(α·(n+1))
    IEEE op in both engines, q̂ is an integer order statistic from the
    bounded score histogram (the quality_bins discipline), and the
    flag is an integer compare. One histogram reduce + one broadcast-
    threshold flag pass; the corpus never shuffles."""
    import math

    import ray

    from ..functions.classifier import classify_quality
    scored = classify_quality(_docs(sf_dir, ["doc_id", "text"])).map_batches(
        lambda b: b.select(["doc_id", "score_total"]),
        batch_format="pyarrow",
    )
    scored = scored.materialize()  # consumed twice: histogram + flag

    def cal_hist(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        cal = b.filter(pa.array(ids % _CONFORMAL_CAL_MOD == 0))
        g = cal.select(["score_total"]).group_by("score_total").aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "score_total": g.column("score_total"),
                "n": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    tbl = bounded_group_table_strict(
        scored.map_batches(cal_hist, batch_format="pyarrow"),
        ["score_total"],
        [("n", "sum")],
    )
    qhat = None
    if tbl is not None and tbl.num_rows:
        vals = tbl.column("score_total").to_numpy(zero_copy_only=False)
        cnts = tbl.column("n").to_numpy(zero_copy_only=False)
        order = np.argsort(vals)
        vals, cnts = vals[order], cnts[order]
        n_cal = int(cnts.sum())
        k = int(math.floor(alpha * (n_cal + 1)))
        if k >= 1:
            qhat = int(vals[np.searchsorted(np.cumsum(cnts), k)])
    qref = ray.put(qhat)

    def flag(b: pa.Table) -> pa.Table:
        q = ray.get(qref)
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        test = b.filter(pa.array(ids % _CONFORMAL_CAL_MOD != 0))
        s = test.column("score_total").to_numpy(zero_copy_only=False)
        out = np.zeros(len(s), bool) if q is None else s < q
        return test.append_column("is_outlier", pa.array(out, pa.bool_()))

    return scored.map_batches(flag, batch_format="pyarrow")


def _conformal_sql(alpha: float = _CONFORMAL_ALPHA) -> str:
    from .queries import _sql_quality_classifier

    return f"""
WITH s AS ({_sql_quality_classifier()}),
cal AS (
  SELECT score_total FROM s WHERE doc_id % {_CONFORMAL_CAL_MOD} = 0
),
k_ AS (
  SELECT CAST(FLOOR({alpha} * (COUNT(*) + 1)) AS BIGINT) AS k FROM cal
),
q_ AS (
  SELECT CASE WHEN k >= 1 THEN (
    SELECT score_total FROM cal ORDER BY score_total
    LIMIT 1 OFFSET (SELECT k - 1 FROM k_)
  ) END AS qhat FROM k_
)
SELECT s.doc_id, s.score_total,
  (q.qhat IS NOT NULL AND s.score_total < q.qhat) AS is_outlier
FROM s, q_ q
WHERE s.doc_id % {_CONFORMAL_CAL_MOD} <> 0
"""


# ---------------------------------------------------------------------------
# exact 1-D Wasserstein (earth mover's) distance between each source's
# document-length distribution and the global one — the drift metric
# that, unlike KS/CvM, weights HOW FAR mass moved, not just whether.
# ---------------------------------------------------------------------------

def source_wasserstein_length(sf_dir: str) -> "pa.Table":
    """(source, n_docs, w1_num, w1): exact 1-D Wasserstein-1 distance
    between each source's ``n_chars`` distribution and the global
    corpus distribution. W₁ = Σ |F_s(x) − F_g(x)|·Δx over the global
    support, kept exact by cross-multiplying the CDFs:
    w1_num = Σ |cum_s·n_g − cum_g·n_s|·Δx (an order-free int64 sum;
    exact while cum·n·Δx < 2⁵³ — ~10⁶ docs/source at web-page lengths,
    pre-bin coarser past that), and w1 = w1_num / (n_s·n_g) — ONE
    double division. Completes the drift family (KS = max CDF gap,
    CvM = squared sum, W₁ = mass×distance).

    ONE bounded (source × n_chars) histogram reduce; the CDF walk is
    a driver-side numpy pass over the bounded support."""
    ds = _docs(sf_dir, ["source", "n_chars"])

    def hist(b: pa.Table) -> pa.Table:
        g = b.group_by(["source", "n_chars"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "source": g.column("source"),
                "n_chars": pc.cast(g.column("n_chars"), pa.int64()),
                "n": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    tbl = bounded_group_table_strict(
        ds.map_batches(hist, batch_format="pyarrow"),
        ["source", "n_chars"],
        [("n", "sum")],
    )
    empty = pa.table(
        {
            "source": pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "w1_num": pa.array([], pa.int64()),
            "w1": pa.array([], pa.float64()),
        }
    )
    if tbl is None or tbl.num_rows == 0:
        return empty
    srcs = np.asarray(tbl.column("source").to_pylist(), dtype=object)
    xs = tbl.column("n_chars").to_numpy(zero_copy_only=False)
    ns = tbl.column("n").to_numpy(zero_copy_only=False)
    support = np.unique(xs)
    dx = np.diff(support)
    # global cumulative at each support point
    g_hist = np.zeros(len(support), np.int64)
    pos = np.searchsorted(support, xs)
    np.add.at(g_hist, pos, ns)
    cum_g = np.cumsum(g_hist)
    ng = int(cum_g[-1])
    out = {"source": [], "n_docs": [], "w1_num": [], "w1": []}
    for src in sorted(set(srcs.tolist())):
        m = srcs == src
        s_hist = np.zeros(len(support), np.int64)
        np.add.at(s_hist, pos[m], ns[m])
        cum_s = np.cumsum(s_hist)
        n_s = int(cum_s[-1])
        gaps = np.abs(cum_s[:-1] * ng - cum_g[:-1] * n_s)
        num = int(np.sum(gaps * dx))
        out["source"].append(src)
        out["n_docs"].append(n_s)
        out["w1_num"].append(num)
        out["w1"].append(float(num) / float(n_s * ng) if n_s else 0.0)
    return pa.table(
        {
            "source": pa.array(out["source"], pa.string()),
            "n_docs": pa.array(out["n_docs"], pa.int64()),
            "w1_num": pa.array(out["w1_num"], pa.int64()),
            "w1": pa.array(out["w1"], pa.float64()),
        }
    )


SOURCE_WASSERSTEIN_SQL = """
WITH g AS (
  SELECT n_chars, CAST(COUNT(*) AS BIGINT) AS cg
  FROM documents GROUP BY n_chars
),
gc AS (
  SELECT n_chars,
    SUM(cg) OVER (ORDER BY n_chars) AS cum_g,
    LEAD(n_chars) OVER (ORDER BY n_chars) AS nxt
  FROM g
),
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS ng FROM documents),
s AS (
  SELECT source, n_chars, CAST(COUNT(*) AS BIGINT) AS cs
  FROM documents GROUP BY source, n_chars
),
srcs AS (
  SELECT source, CAST(COUNT(*) AS BIGINT) AS ns
  FROM documents GROUP BY source
),
grid AS (
  SELECT srcs.source, srcs.ns, gc.n_chars, gc.cum_g, gc.nxt
  FROM srcs CROSS JOIN gc
),
joined AS (
  SELECT gr.source, gr.ns, gr.n_chars, gr.cum_g, gr.nxt,
    COALESCE(s.cs, 0) AS cs
  FROM grid gr
  LEFT JOIN s ON s.source = gr.source AND s.n_chars = gr.n_chars
),
sc AS (
  SELECT source, ns, n_chars, cum_g, nxt,
    SUM(cs) OVER (PARTITION BY source ORDER BY n_chars) AS cum_s
  FROM joined
),
w AS (
  SELECT sc.source, sc.ns,
    CAST(SUM(ABS(sc.cum_s * t.ng - sc.cum_g * sc.ns)
             * (sc.nxt - sc.n_chars)) AS BIGINT) AS w1_num
  FROM sc, tot t
  WHERE sc.nxt IS NOT NULL
  GROUP BY sc.source, sc.ns
)
SELECT w.source, w.ns AS n_docs, w.w1_num,
  CASE WHEN w.ns > 0
       THEN CAST(w.w1_num AS DOUBLE) / CAST(w.ns * t.ng AS DOUBLE)
       ELSE 0.0 END AS w1
FROM w, tot t
"""


# ---------------------------------------------------------------------------
# uncertainty-sampling pool: the k documents nearest the classifier's
# decision boundary — what an active-learning loop sends for labels.
# ---------------------------------------------------------------------------

_UNCERTAIN_K = 100


def active_learning_pool(sf_dir: str, k: int = _UNCERTAIN_K) -> rd.Dataset:
    """(doc_id, n_tokens, score_total, margin): the ``k`` documents
    with the smallest INTEGER margin to the quality classifier's
    decision boundary — margin = |score_total·TH_DEN − TH_NUM·n_tokens|
    (the boundary is score/tokens = TH_NUM/TH_DEN; cross-multiplying
    keeps it exact, no float ratio). Uncertainty sampling: these are
    the docs whose labels teach the classifier most. Ties break to the
    lowest doc_id.

    Sort+limit: per-batch local bottom-k prune, then a global sort
    over only the tiny survivors — the corpus is never globally
    sorted."""
    from ..functions.classifier import TH_DEN, TH_NUM, classify_quality

    scored = classify_quality(_docs(sf_dir, ["doc_id", "text"]))

    def prep(b: pa.Table) -> pa.Table:
        s = b.column("score_total").to_numpy(zero_copy_only=False)
        n = b.column("n_tokens").to_numpy(zero_copy_only=False)
        margin = np.abs(s * TH_DEN - TH_NUM * n)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_tokens": b.column("n_tokens"),
                "score_total": b.column("score_total"),
                "margin": pa.array(margin.astype(np.int64), pa.int64()),
            }
        )

    def local_bottomk(b: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(
            b, k, [("margin", "ascending"), ("doc_id", "ascending")]
        )
        return b.take(idx)

    pruned = scored.map_batches(prep, batch_format="pyarrow").map_batches(
        local_bottomk, batch_format="pyarrow"
    )
    return pruned.sort(["margin", "doc_id"]).limit(k)


def _active_learning_sql(k: int = _UNCERTAIN_K) -> str:
    from ..functions.classifier import TH_DEN, TH_NUM
    from .queries import _sql_quality_classifier

    return f"""
WITH s AS ({_sql_quality_classifier()})
SELECT doc_id, n_tokens, score_total,
  CAST(ABS(score_total * {TH_DEN} - {TH_NUM} * n_tokens) AS BIGINT)
    AS margin
FROM s
QUALIFY row_number() OVER (ORDER BY margin, doc_id) <= {k}
"""


# ---------------------------------------------------------------------------
# corpus manifest: the one-row dataset-card summary (counts, token
# volume, language/source breadth, emptiness, length moments).
# ---------------------------------------------------------------------------

def corpus_manifest(sf_dir: str) -> "pa.Table":
    """One row (n_docs, n_tokens, n_chars, n_langs, n_sources,
    n_empty, mean_chars, max_chars): the header block of a dataset
    card — corpus volume, breadth and shape at a glance. All counts
    exact int64 from ONE streaming pass (per-batch partials carry the
    distinct lang/source SETS as per-batch uniques; the reduce is
    bounded by |langs|+|sources| per batch, so breadth is exact
    without a distinct shuffle). mean_chars is the only float: one
    division of exact ints."""
    from ..functions.tokenize import count_ws_tokens
    ds = _docs(sf_dir, ["doc_id", "text", "lang", "source", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        nt = count_ws_tokens(pc.fill_null(text, "")).to_numpy(
            zero_copy_only=False
        )
        nc = pc.cast(b.column("n_chars"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        langs = set(b.column("lang").to_pylist())
        sources = set(b.column("source").to_pylist())
        rows = {
            "key": [], "lang": [], "source": [],
            "n_docs": [], "n_tokens": [], "n_chars": [],
            "n_empty": [], "max_chars": [],
        }
        # one stats row plus one marker row per distinct lang/source
        # seen in the batch — the reduce dedups markers globally
        rows["key"].append("stats")
        rows["lang"].append("")
        rows["source"].append("")
        rows["n_docs"].append(len(b))
        rows["n_tokens"].append(int(nt.sum()))
        rows["n_chars"].append(int(nc.sum()))
        rows["n_empty"].append(int((nt == 0).sum()))
        rows["max_chars"].append(int(nc.max()) if len(nc) else 0)
        # COUNT(DISTINCT x) ignores NULLs — a null lang/source must
        # NOT mint a marker row, or breadth over-counts by one
        for lg in langs:
            if lg is None:
                continue
            rows["key"].append("lang")
            rows["lang"].append(lg)
            rows["source"].append("")
            for c in ("n_docs", "n_tokens", "n_chars", "n_empty", "max_chars"):
                rows[c].append(0)
        for srcv in sources:
            if srcv is None:
                continue
            rows["key"].append("source")
            rows["lang"].append("")
            rows["source"].append(srcv)
            for c in ("n_docs", "n_tokens", "n_chars", "n_empty", "max_chars"):
                rows[c].append(0)
        return pa.table(
            {
                "key": pa.array(rows["key"], pa.string()),
                "lang": pa.array(rows["lang"], pa.string()),
                "source": pa.array(rows["source"], pa.string()),
                "n_docs": pa.array(rows["n_docs"], pa.int64()),
                "n_tokens": pa.array(rows["n_tokens"], pa.int64()),
                "n_chars": pa.array(rows["n_chars"], pa.int64()),
                "n_empty": pa.array(rows["n_empty"], pa.int64()),
                "max_chars": pa.array(rows["max_chars"], pa.int64()),
            }
        )

    tbl = bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["key", "lang", "source"],
        [
            ("n_docs", "sum"), ("n_tokens", "sum"), ("n_chars", "sum"),
            ("n_empty", "sum"), ("max_chars", "max"),
        ],
    )
    empty = pa.table(
        {
            "n_docs": pa.array([0], pa.int64()),
            "n_tokens": pa.array([0], pa.int64()),
            "n_chars": pa.array([0], pa.int64()),
            "n_langs": pa.array([0], pa.int64()),
            "n_sources": pa.array([0], pa.int64()),
            "n_empty": pa.array([0], pa.int64()),
            "mean_chars": pa.array([0.0], pa.float64()),
            "max_chars": pa.array([0], pa.int64()),
        }
    )
    if tbl is None or tbl.num_rows == 0:
        return empty
    keys = tbl.column("key").to_pylist()
    n_langs = sum(1 for k in keys if k == "lang")
    n_sources = sum(1 for k in keys if k == "source")
    srow = {
        c: tbl.column(c).to_pylist()[keys.index("stats")]
        for c in ("n_docs", "n_tokens", "n_chars", "n_empty", "max_chars")
    }
    mean_chars = (
        float(srow["n_chars"]) / float(srow["n_docs"])
        if srow["n_docs"] else 0.0
    )
    return pa.table(
        {
            "n_docs": pa.array([srow["n_docs"]], pa.int64()),
            "n_tokens": pa.array([srow["n_tokens"]], pa.int64()),
            "n_chars": pa.array([srow["n_chars"]], pa.int64()),
            "n_langs": pa.array([n_langs], pa.int64()),
            "n_sources": pa.array([n_sources], pa.int64()),
            "n_empty": pa.array([srow["n_empty"]], pa.int64()),
            "mean_chars": pa.array([mean_chars], pa.float64()),
            "max_chars": pa.array([srow["max_chars"]], pa.int64()),
        }
    )


CORPUS_MANIFEST_SQL = f"""
SELECT CAST(COUNT(*) AS BIGINT) AS n_docs,
  CAST(SUM(len(regexp_extract_all(COALESCE(text, ''), '{WS_TOKEN_RE}')))
    AS BIGINT) AS n_tokens,
  CAST(SUM(n_chars) AS BIGINT) AS n_chars,
  CAST(COUNT(DISTINCT lang) AS BIGINT) AS n_langs,
  CAST(COUNT(DISTINCT source) AS BIGINT) AS n_sources,
  CAST(SUM(CASE WHEN len(regexp_extract_all(COALESCE(text, ''),
    '{WS_TOKEN_RE}')) = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_empty,
  CAST(SUM(n_chars) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS mean_chars,
  CAST(MAX(n_chars) AS BIGINT) AS max_chars
FROM documents
"""


# ---------------------------------------------------------------------------
# incremental view maintenance: the per-language aggregate of the
# APPLIED snapshot computed as base + delta — only changed rows
# contribute delta work, the IVM identity every materialized-view
# engine maintains. The oracle recomputes the whole merged snapshot
# from scratch, so the differential check IS the IVM correctness
# proof.
# ---------------------------------------------------------------------------

def ivm_lang_tokens(sf_dir: str) -> "pa.Table":
    """(lang, n_docs, n_tokens): the per-language document/token
    aggregate of the post-merge snapshot (base + the derived
    update/delete/insert change stream of ``corpus.apply_changes``),
    computed INCREMENTALLY — view = base_agg + Σ delta(changed rows):
    an update contributes tokens(new) − tokens(old), a delete −(1,
    tokens(old)), an insert +(1, tokens(new)); unchanged documents
    never contribute delta work. At scale this is the point: the
    nightly re-aggregate touches only the day's changes while the
    oracle pays the full recompute — and must agree exactly (all
    int64). One pass over base emits both partials; one bounded
    reduce."""
    from .corpus import _DIFF_ADD_OFFSET  # noqa: F401  (id-space doc)
    from ..functions.tokenize import count_ws_tokens
    ds = _docs(sf_dir, ["doc_id", "text", "lang"])

    def partial(b: pa.Table) -> pa.Table:
        dids = b.column("doc_id").to_numpy(zero_copy_only=False)
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        toks = count_ws_tokens(pc.fill_null(text, "")).to_numpy(
            zero_copy_only=False
        )

        # the oracle's `text || ' [rev2]'` PROPAGATES null and only
        # COALESCEs at the token count — so a null-text row selected
        # by the %13/%19 predicates must count 0 new tokens: fill the
        # COUNT (not the text) or null→NaN→astype(int64) garbage
        def _toks0(arr: pa.Array) -> np.ndarray:
            return pc.fill_null(count_ws_tokens(arr), 0).to_numpy(
                zero_copy_only=False
            )
        lang = b.column("lang")
        base = pa.table(
            {"lang": lang, "dn": pa.array(np.ones(len(b), np.int64)),
             "dt": pa.array(toks.astype(np.int64))}
        )
        upd = (dids % 13 == 3) & (dids % 17 != 0)
        dele = dids % 17 == 0
        ins = dids % 19 == 5
        parts = [base]
        if upd.any():
            sel = pa.array(upd)
            new_text = pc.binary_join_element_wise(
                text.filter(sel), pa.scalar(" [rev2]"), pa.scalar("")
            )
            dt = _toks0(new_text) - toks[upd]
            parts.append(pa.table(
                {"lang": lang.filter(sel),
                 "dn": pa.array(np.zeros(int(upd.sum()), np.int64)),
                 "dt": pa.array(dt.astype(np.int64))}
            ))
        if dele.any():
            sel = pa.array(dele)
            parts.append(pa.table(
                {"lang": lang.filter(sel),
                 "dn": pa.array(np.full(int(dele.sum()), -1, np.int64)),
                 "dt": pa.array(-toks[dele].astype(np.int64))}
            ))
        if ins.any():
            sel = pa.array(ins)
            new_text = pc.binary_join_element_wise(
                pa.scalar("new "), text.filter(sel), pa.scalar("")
            )
            nt = _toks0(new_text)
            parts.append(pa.table(
                {"lang": lang.filter(sel),
                 "dn": pa.array(np.ones(int(ins.sum()), np.int64)),
                 "dt": pa.array(nt.astype(np.int64))}
            ))
        t = pa.concat_tables(parts).combine_chunks()
        g = t.group_by("lang").aggregate([("dn", "sum"), ("dt", "sum")])
        return pa.table(
            {
                "lang": g.column("lang"),
                "dn": pc.cast(g.column("dn_sum"), pa.int64()),
                "dt": pc.cast(g.column("dt_sum"), pa.int64()),
            }
        )

    tbl = bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["lang"],
        [("dn", "sum"), ("dt", "sum")],
    )
    empty = pa.table(
        {
            "lang": pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
        }
    )
    if tbl is None or tbl.num_rows == 0:
        return empty
    rows = sorted(
        zip(
            tbl.column("lang").to_pylist(),
            tbl.column("dn").to_pylist(),
            tbl.column("dt").to_pylist(),
        )
    )
    return pa.table(
        {
            "lang": pa.array([r[0] for r in rows], pa.string()),
            "n_docs": pa.array([r[1] for r in rows], pa.int64()),
            "n_tokens": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def _ivm_lang_tokens_sql() -> str:
    from .corpus import _DIFF_ADD_OFFSET

    return f"""
WITH applied AS (
  SELECT doc_id,
    CASE WHEN doc_id % 13 = 3 AND doc_id % 17 <> 0
         THEN text || ' [rev2]' ELSE text END AS text,
    lang
  FROM documents WHERE doc_id % 17 <> 0
  UNION ALL
  SELECT doc_id + {_DIFF_ADD_OFFSET} AS doc_id,
    'new ' || text AS text, lang
  FROM documents WHERE doc_id % 19 = 5
)
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
  CAST(SUM(len(regexp_extract_all(COALESCE(text, ''), '{WS_TOKEN_RE}')))
    AS BIGINT) AS n_tokens
FROM applied GROUP BY lang
"""


# ---------------------------------------------------------------------------
# keyword-in-context (KWIC) concordance: every occurrence of a term
# with its ±3-token window — the corpus-linguistics view used to
# audit how a term is actually used before building rules around it.
# ---------------------------------------------------------------------------

_KWIC_TERM = "spark"
_KWIC_HALF = 3


def kwic_concordance(
    sf_dir: str, term: str = _KWIC_TERM, half: int = _KWIC_HALF
) -> rd.Dataset:
    """(doc_id, pos, context): every occurrence of ``term`` with the
    surrounding ±{_KWIC_HALF}-token window (clipped at document
    edges), context joined with single spaces. Zero-shuffle like
    phrase_search (a concordance line is a within-document property);
    the window gather is one repeat/arange flat-index expansion —
    no per-hit Python."""

    def local(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
                "context": pa.array([], pa.string()),
            }
        )
        doc_idx, enc = tokens_with_doc_index(b.column("text"))
        n = len(doc_idx)
        if enc is None or n == 0:
            return empty
        vocab = enc.dictionary.to_pylist()
        try:
            code = vocab.index(term)
        except ValueError:
            return empty
        codes = enc.indices.to_numpy(zero_copy_only=False)
        new = np.empty(n, dtype=bool)
        new[0] = True
        np.not_equal(doc_idx[1:], doc_idx[:-1], out=new[1:])
        run_id = np.cumsum(new) - 1
        run_start = np.flatnonzero(new)
        run_end = np.append(run_start[1:], n)
        pos = np.arange(n, dtype=np.int64) - run_start[run_id]
        hits = np.flatnonzero(codes == code)
        if len(hits) == 0:
            return empty
        starts = np.maximum(hits - half, run_start[run_id[hits]])
        ends = np.minimum(hits + half + 1, run_end[run_id[hits]])
        lens = ends - starts
        tot = int(lens.sum())
        flat_idx = (
            np.arange(tot, dtype=np.int64)
            - np.repeat(np.cumsum(lens) - lens, lens)
            + np.repeat(starts, lens)
        )
        flat_tokens = enc.dictionary.take(
            pa.array(codes[flat_idx], pa.int64())
        )
        offsets = pa.array(
            np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
        )
        ctx = pc.binary_join(
            pa.ListArray.from_arrays(offsets, flat_tokens), " "
        )
        dids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(dids[doc_idx[hits]], pa.int64()),
                "pos": pa.array(pos[hits], pa.int64()),
                "context": ctx,
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        local, batch_format="pyarrow"
    )


def _kwic_sql(term: str = _KWIC_TERM, half: int = _KWIC_HALF) -> str:
    return f"""
WITH t AS (
  SELECT doc_id, regexp_extract_all(text, '{WS_TOKEN_RE}') AS toks
  FROM documents
),
occ AS (
  SELECT doc_id, toks,
    unnest(list_filter(range(1, len(toks) + 1),
                       i -> toks[i] = '{term}')) AS i
  FROM t
)
SELECT doc_id, CAST(i - 1 AS BIGINT) AS pos,
  array_to_string(toks[GREATEST(1, i - {half}):i + {half}], ' ')
    AS context
FROM occ
"""


# ---------------------------------------------------------------------------
# host-capped quality selection: global top-k by classifier score with
# a hard per-host quota — the diversity CONSTRAINT form of selection
# (MMR penalizes similarity; a quota guarantees no host dominates).
# ---------------------------------------------------------------------------

_HOSTCAP_K = 50
_HOSTCAP_PER_HOST = 2


def top_quality_host_capped(
    sf_dir: str, k: int = _HOSTCAP_K, per_host: int = _HOSTCAP_PER_HOST
) -> rd.Dataset:
    """(doc_id, host, score_total): the ``k`` highest-classifier-score
    pages subject to at most ``per_host`` winners per URL host — the
    quota-diversified selection a curated corpus uses so one prolific
    host can't fill the budget. Two prunes, no global sort of the
    corpus: each batch keeps its own per-host top-``per_host`` (by
    score DESC, doc_id ASC), ONE hashed-host shuffle resolves the true
    per-host winners, and the global top-k sorts only the surviving
    ≤ |hosts|·per_host rows."""
    from ..functions.classifier import QualityClassifier
    from ..sources.pages_from_documents import synthesize_pages
    from ..stages.skew import HOST_RE
    from .queries import _pages_input

    pages = _pages_input(sf_dir).map_batches(
        synthesize_pages, batch_format="pyarrow"
    )

    from ..functions.classifier import OOV_WEIGHT, TH_DEN, TH_NUM

    # built ONCE on the driver, shipped with the closure — per-batch
    # work is the vectorized scoring pass only
    cls = QualityClassifier(None, OOV_WEIGHT, TH_NUM, TH_DEN, "text", "doc_id")

    def score(b: pa.Table) -> pa.Table:
        out = cls(b.select(["doc_id", "text"]))
        url = b.column("url")
        if isinstance(url, pa.ChunkedArray):
            url = url.combine_chunks()
        host = pc.fill_null(
            pc.struct_field(pc.extract_regex(url, HOST_RE), "host"), ""
        )
        t = pa.table(
            {
                "doc_id": out.column("doc_id"),
                "host": host,
                "score_total": out.column("score_total"),
            }
        )
        return t.filter(pc.not_equal(t.column("host"), ""))

    def local_cap(b: pa.Table) -> pa.Table:
        s = b.column("score_total").to_numpy(zero_copy_only=False)
        d = b.column("doc_id").to_numpy(zero_copy_only=False)
        hosts = np.asarray(b.column("host").to_pylist(), dtype=object)
        order = np.lexsort((d, -s, hosts))
        h_s = hosts[order]
        new = np.concatenate([[True], h_s[1:] != h_s[:-1]])
        run = np.cumsum(new) - 1
        run_start = np.flatnonzero(new)
        rank = np.arange(len(h_s)) - run_start[run]
        keep = order[rank < per_host]
        return b.take(pa.array(np.sort(keep), pa.int64()))

    def host_winners(g: pa.Table) -> pa.Table:
        return local_cap(g)

    pruned = (
        pages.map_batches(score, batch_format="pyarrow")
        .map_batches(local_cap, batch_format="pyarrow")
        .groupby("host")
        .map_groups(host_winners, batch_format="pyarrow")
    )
    return pruned.sort(
        ["score_total", "doc_id"], descending=[True, False]
    ).limit(k)


def _host_capped_sql(
    k: int = _HOSTCAP_K, per_host: int = _HOSTCAP_PER_HOST
) -> str:
    from ..stages.skew import HOST_RE
    from .queries import _sql_quality_classifier

    # classifier over the PAGES corpus: same lexicon scoring, text
    # from the pages CTE
    cls_sql = _sql_quality_classifier().replace(
        "FROM documents", "FROM docs_for_cls"
    )
    return f"""
WITH pages AS ({{pages}}),
docs_for_cls AS (SELECT doc_id, text FROM pages),
s AS ({cls_sql}),
h AS (
  SELECT p.doc_id, regexp_extract(p.url, '{HOST_RE}', 1) AS host,
         s.score_total
  FROM pages p JOIN s ON s.doc_id = p.doc_id
  WHERE regexp_extract(p.url, '{HOST_RE}', 1) <> ''
),
capped AS (
  SELECT doc_id, host, score_total FROM h
  QUALIFY row_number() OVER (
    PARTITION BY host ORDER BY score_total DESC, doc_id
  ) <= {per_host}
)
SELECT doc_id, host, CAST(score_total AS BIGINT) AS score_total
FROM capped
QUALIFY row_number() OVER (ORDER BY score_total DESC, doc_id) <= {k}
"""


# ---------------------------------------------------------------------------
# leave-one-source-out influence: how much each source moves the
# corpus mean quality — the cheapest data-valuation signal (a source
# with negative influence is a removal candidate before any training
# run is spent on it).
# ---------------------------------------------------------------------------

def source_quality_influence(sf_dir: str) -> "pa.Table":
    """(source, n_docs, mean_all, mean_loo, influence): for each
    source, the corpus mean classifier score WITH it (mean_all, the
    same for every row), WITHOUT it (mean_loo = (T−s)/(N−n)), and
    influence = mean_all − mean_loo — positive means the source pulls
    the corpus UP. Every mean is one double division of exact int64
    sums; influence is one subtraction of those two doubles, the same
    three IEEE ops in both engines. Same one-pass bounded reduce as
    source_quality_shrunk."""
    from ..functions.classifier import classify_quality
    from .join import join as generic_join
    raw = classify_quality(
        _docs(sf_dir, ["doc_id", "text"])
    ).map_batches(
        lambda b: b.select(["doc_id", "score_total"]),
        batch_format="pyarrow",
    )
    scored = generic_join(
        raw, _docs(sf_dir, ["doc_id", "source"]), on="doc_id"
    )

    def partial(b: pa.Table) -> pa.Table:
        g = b.select(["source", "score_total"]).group_by("source").aggregate(
            [("score_total", "sum"), ([], "count_all")]
        )
        return pa.table(
            {
                "source": g.column("source"),
                "s": pc.cast(g.column("score_total_sum"), pa.int64()),
                "n": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    tbl = bounded_group_table_strict(
        scored.map_batches(partial, batch_format="pyarrow"),
        ["source"],
        [("s", "sum"), ("n", "sum")],
    )
    empty = pa.table(
        {
            "source": pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "mean_all": pa.array([], pa.float64()),
            "mean_loo": pa.array([], pa.float64()),
            "influence": pa.array([], pa.float64()),
        }
    )
    if tbl is None or tbl.num_rows == 0:
        return empty
    rows = sorted(
        zip(
            tbl.column("source").to_pylist(),
            tbl.column("n").to_pylist(),
            tbl.column("s").to_pylist(),
        )
    )
    T = sum(r[2] for r in rows)
    N = sum(r[1] for r in rows)
    mean_all = float(T) / float(N)
    loo = [
        float(T - s) / float(N - n) if N > n else 0.0
        for (_src, n, s) in rows
    ]
    return pa.table(
        {
            "source": pa.array([r[0] for r in rows], pa.string()),
            "n_docs": pa.array([r[1] for r in rows], pa.int64()),
            "mean_all": pa.array([mean_all] * len(rows), pa.float64()),
            "mean_loo": pa.array(loo, pa.float64()),
            "influence": pa.array(
                [mean_all - x for x in loo], pa.float64()
            ),
        }
    )


def _source_influence_sql() -> str:
    from .queries import _sql_quality_classifier

    return f"""
WITH s AS ({_sql_quality_classifier()}),
docsrc AS (
  SELECT d.source, s.score_total
  FROM s JOIN documents d ON d.doc_id = s.doc_id
),
m AS (
  SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
         CAST(SUM(score_total) AS BIGINT) AS score_sum
  FROM docsrc GROUP BY source
),
g AS (
  SELECT CAST(SUM(score_sum) AS BIGINT) AS T,
         CAST(SUM(n_docs) AS BIGINT) AS N
  FROM m
)
SELECT m.source, m.n_docs,
  CAST(g.T AS DOUBLE) / CAST(g.N AS DOUBLE) AS mean_all,
  CASE WHEN g.N > m.n_docs
       THEN CAST(g.T - m.score_sum AS DOUBLE)
            / CAST(g.N - m.n_docs AS DOUBLE)
       ELSE 0.0 END AS mean_loo,
  CAST(g.T AS DOUBLE) / CAST(g.N AS DOUBLE)
    - CASE WHEN g.N > m.n_docs
           THEN CAST(g.T - m.score_sum AS DOUBLE)
                / CAST(g.N - m.n_docs AS DOUBLE)
           ELSE 0.0 END AS influence
FROM m, g
"""
