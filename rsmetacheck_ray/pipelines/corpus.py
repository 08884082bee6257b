"""Corpus-construction batch (round 3): the dataset-assembly shapes a
training-data pipeline runs AFTER the quality gate — per-language
token-budget selection, per-group score calibration, snapshot diffing
(CDC between two lake versions), and inverted-index (posting-list)
construction.

Scale discipline:

- ``token_budget_sample`` never shuffles: the (lang, n_chars) token
  histogram is a bounded-domain driver table, the budget boundary
  is resolved per language on the driver, and exactly ONE n_chars
  bucket per language needs per-document refinement — the other
  buckets are classified by a broadcast threshold.
- ``quality_zscores`` is the exact-moments plan (three int64 sums per
  (batch, lang)); the per-row z attach is a broadcast lookup.
- ``dataset_diff`` ships 24 B/row (doc_id + 128-bit content hash) per
  snapshot side through ONE hashed doc_id shuffle; document text never
  moves. The SQL oracle compares text equality — equivalent at a
  <10⁻¹⁵ collision probability for 10¹² docs (hashing.py:57).
- ``term_postings`` shuffles DISTINCT (term, doc_id) pairs once onto
  hashed term partitions; per-doc uniqueness is free (a document is
  one row), and the ``max_df`` stoplist bound is enforced in the
  merge so no partition materializes a stopword's posting list.

The reference has no analog (single-process JSON pitfall walk); the
shapes come from the builder brief's training-data-pipeline axis.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..functions.hashing import hash_str_arrow_u128
from ..functions.tokenize import WS_TOKEN_RE, count_ws_tokens, split_ws_tokens
from ..partitioning import (
    _part_of,
    adaptive_partitions,
    bounded_group_reduce,
    bounded_group_table_strict,
    parquet_rows_hint,
    read_pq,
)


def _docs(sf_dir: str, columns: list[str]) -> rd.Dataset:
    return read_pq(os.path.join(sf_dir, "documents.parquet"), columns=columns)


# ---------------------------------------------------------------------------
# (lang, source) document histogram
# ---------------------------------------------------------------------------

def lang_source_hist(sf_dir: str) -> rd.Dataset:
    """(lang, source) histogram — partial-combined per batch so the
    groupby shuffle volume is bounded by #keys × #blocks (a few KB per
    block), not the corpus row count."""
    ds = _docs(sf_dir, ["lang", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["lang", "source"]).aggregate([("lang", "count")])
        return g.rename_columns(["lang", "source", "n_docs"])

    return bounded_group_reduce(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["lang", "source"],
        [("n_docs", "sum")],
    )


LANG_SOURCE_SQL = """
SELECT lang, source, COUNT(*) AS n_docs FROM documents GROUP BY lang, source
"""


# ---------------------------------------------------------------------------
# per-language token-budget selection: keep each language's documents
# in (n_chars DESC, doc_id ASC) order while the running token total
# stays within the budget — the corpus-assembly step that turns a
# quality ranking into a fixed-size training mix.
# ---------------------------------------------------------------------------

TOKEN_BUDGET_DEFAULT = 2_000


def token_budget_sample(
    sf_dir: str, budget: int = TOKEN_BUDGET_DEFAULT
) -> rd.Dataset:
    """(doc_id, lang, n_tokens): the per-language prefix of documents
    ordered by (n_chars DESC, doc_id) whose cumulative token count
    stays ≤ ``budget``.

    Because the running sum is monotone, bucket classification is
    exact from the (lang, n_chars) histogram alone: buckets whose
    prefix total fits are kept whole, buckets past the boundary are
    dropped whole, and only the single straddling bucket per language
    is re-read for a per-document cumulative sum."""
    ds = _docs(sf_dir, ["doc_id", "lang", "n_chars", "text"])

    def hist_partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "lang": b.column("lang"),
                "n_chars": b.column("n_chars"),
                "tok": count_ws_tokens(b.column("text").combine_chunks()),
            }
        )
        g = t.group_by(["lang", "n_chars"]).aggregate([("tok", "sum")])
        return g.rename_columns(["lang", "n_chars", "tok"])

    hist_tbl = bounded_group_table_strict(
        ds.map_batches(hist_partial, batch_format="pyarrow"),
        ["lang", "n_chars"],
        [("tok", "sum")],
    )
    rows = hist_tbl.to_pylist() if hist_tbl is not None else []
    by_lang: dict[str, list] = {}
    for r in rows:
        by_lang.setdefault(r["lang"], []).append((int(r["n_chars"]), int(r["tok"])))
    keep_above: dict[str, int] = {}   # n_chars > v ⇒ keep whole bucket
    straddle: dict[str, tuple[int, int]] = {}  # lang -> (n_chars, residual)
    for lang, buckets in by_lang.items():
        buckets.sort(key=lambda cn: -cn[0])
        cum = 0
        cut = None
        for n_chars, tok in buckets:
            if cum + tok <= budget:
                cum += tok
                continue
            cut = n_chars
            straddle[lang] = (n_chars, budget - cum)
            break
        # cut=None ⇒ everything fits; use min-1 so every bucket passes
        keep_above[lang] = cut if cut is not None else (
            (buckets[-1][0] - 1) if buckets else 0
        )

    # refinement: per-document cumulative sum inside the straddle
    # bucket only. Usually bounded (the documents sharing ONE n_chars
    # value), but a degenerate corpus (every doc the same length)
    # makes the bucket a whole language stratum — so the pull is
    # CAPPED with an incremental abort, and past the cap the budget
    # boundary is resolved distributively by doc_id-range refinement:
    # each round buckets the unresolved window into ``_STRADDLE_B``
    # ranges, reduces per-(lang, range) token sums (bounded table),
    # walks the prefix on the driver, and narrows to the straddling
    # range — ≥1024× smaller per round, never a driver materialize.
    # Either path yields one (first-overflow doc_id) threshold per
    # language; the kept set is always ``doc_id < T`` within the
    # bucket, so no id list ever broadcasts.
    cut_doc: dict[str, int] = {}  # lang -> first-overflow doc_id
    if straddle:
        smap = dict(straddle)  # lang -> (n_chars, residual)

        def gather(b: pa.Table) -> pa.Table:
            enc = b.column("lang").combine_chunks().dictionary_encode()
            sval = np.array(
                [
                    smap[l][0] if l in smap else -(1 << 62)
                    for l in enc.dictionary.to_pylist()
                ],
                np.int64,
            )
            ncs = b.column("n_chars").to_numpy(zero_copy_only=False)
            sel = ncs == sval[enc.indices.to_numpy(zero_copy_only=False)]
            if not sel.any():
                return pa.table(
                    {
                        "lang": pa.array([], pa.string()),
                        "doc_id": pa.array([], pa.int64()),
                        "tok": pa.array([], pa.int64()),
                    }
                )
            idx = pa.array(np.flatnonzero(sel), pa.int64())
            return pa.table(
                {
                    "lang": b.column("lang").take(idx),
                    "doc_id": b.column("doc_id").take(idx),
                    "tok": count_ws_tokens(
                        b.column("text").combine_chunks().take(idx)
                    ),
                }
            )

        # tokenize the straddle candidates ONCE; both paths reuse the
        # computed refs (never the text again)
        refs = (
            ds.map_batches(gather, batch_format="pyarrow")
            .materialize()
            .to_arrow_refs()
        )
        tables, pulled, over = [], 0, False
        for ref in refs:
            t = ray.get(ref)
            if t.num_rows == 0:
                continue
            tables.append(t)
            pulled += t.num_rows
            if pulled > _STRADDLE_PULL_MAX:
                over = True
                break
        if not over:
            cut_doc = _resolve_straddle_driver(tables, smap)
        else:
            cut_doc = _resolve_straddle_distributed(refs, smap)

    thr_ref = ray.put((keep_above, smap if straddle else {}, cut_doc))

    def emit(b: pa.Table) -> pa.Table:
        thr, smap2, cuts = ray.get(thr_ref)
        enc = b.column("lang").combine_chunks().dictionary_encode()
        dvals = enc.dictionary.to_pylist()
        thr_of = np.array(
            [thr.get(l, 1 << 62) for l in dvals], np.int64
        )
        sval = np.array(
            [smap2[l][0] if l in smap2 else -(1 << 62) for l in dvals],
            np.int64,
        )
        cut_of = np.array(
            [cuts.get(l, -(1 << 62)) for l in dvals], np.int64
        )
        codes = enc.indices.to_numpy(zero_copy_only=False)
        ncs = b.column("n_chars").to_numpy(zero_copy_only=False)
        dids = b.column("doc_id").to_numpy(zero_copy_only=False)
        above = ncs > thr_of[codes]
        in_straddle = (ncs == sval[codes]) & (dids < cut_of[codes])
        keep = above | in_straddle
        idx = pa.array(np.flatnonzero(keep), pa.int64())
        return pa.table(
            {
                "doc_id": b.column("doc_id").take(idx),
                "lang": b.column("lang").take(idx),
                "n_tokens": count_ws_tokens(
                    b.column("text").combine_chunks().take(idx)
                ),
            }
        )

    return ds.map_batches(emit, batch_format="pyarrow")


# straddle-bucket candidate rows pulled driver-side before switching
# to the distributed range refinement (≈96 MB of (lang, id, tok) rows)
_STRADDLE_PULL_MAX = 4_000_000

# ranges per refinement round: each round shrinks the unresolved
# doc_id window ≥1024×, so even a 2⁶³ window resolves in ≤7 rounds
_STRADDLE_B = 1024


def _resolve_straddle_driver(
    tables: list[pa.Table], smap: dict[str, tuple[int, int]]
) -> dict[str, int]:
    """Vectorized in-memory resolve: per language, the first doc_id
    (ascending) whose running token sum exceeds the residual."""
    if not tables:
        return {}
    t = pa.concat_tables(tables)
    langs = t.column("lang").to_numpy(zero_copy_only=False).astype(str)
    dids = t.column("doc_id").to_numpy(zero_copy_only=False)
    toks = t.column("tok").to_numpy(zero_copy_only=False)
    uk, inv = np.unique(langs, return_inverse=True)
    order = np.lexsort((dids, inv))
    inv_s, dids_s, toks_s = inv[order], dids[order], toks[order]
    cum = np.cumsum(toks_s)
    # per-segment cumsum: subtract the running total at segment starts
    starts = np.flatnonzero(
        np.concatenate(([True], inv_s[1:] != inv_s[:-1]))
    )
    seg_base = np.zeros(len(inv_s), np.int64)
    seg_base[starts] = cum[starts] - toks_s[starts]
    seg_base = np.maximum.accumulate(seg_base)
    seg_cum = cum - seg_base
    resid = np.array([smap[l][1] for l in uk], np.int64)
    overflow = seg_cum > resid[inv_s]
    out: dict[str, int] = {}
    for s_i, lang_code in enumerate(np.unique(inv_s)):
        seg = np.flatnonzero(inv_s == lang_code)
        ov = seg[overflow[seg]]
        out[str(uk[lang_code])] = (
            int(dids_s[ov[0]]) if len(ov) else (1 << 62)
        )
    return out


def _resolve_straddle_distributed(
    refs, smap: dict[str, tuple[int, int]]
) -> dict[str, int]:
    """Doc_id-range refinement over the already-computed candidate
    refs: per round, per-(lang, range) token sums reduce to a bounded
    driver table; fully-fitting prefix ranges shrink the residual and
    advance the window, and the straddling range becomes the next
    round's window. Ends when every window is a single doc_id."""
    cand = rd.from_arrow_refs(refs)
    # initial per-lang doc_id windows
    bounds = bounded_group_table_strict(
        cand.map_batches(
            lambda b: b.group_by("lang")
            .aggregate([("doc_id", "min"), ("doc_id", "max")])
            .rename_columns(["lang", "lo", "hi"]),
            batch_format="pyarrow",
        ),
        ["lang"],
        [("lo", "min"), ("hi", "max")],
    )
    if bounds is None:
        return {}
    active: dict[str, tuple[int, int, int]] = {}  # lang -> (resid, lo, hi)
    for r in bounds.to_pylist():
        active[r["lang"]] = (
            int(smap[r["lang"]][1]), int(r["lo"]), int(r["hi"])
        )
    out: dict[str, int] = {}
    while active:
        win = dict(active)  # lang -> (resid, lo, hi)
        win_ref = ray.put(win)

        def bucketize(b: pa.Table) -> pa.Table:
            w = ray.get(win_ref)
            enc = b.column("lang").combine_chunks().dictionary_encode()
            dvals = enc.dictionary.to_pylist()
            lo_of = np.array(
                [w[l][1] if l in w else 1 << 62 for l in dvals], np.int64
            )
            hi_of = np.array(
                [w[l][2] if l in w else -(1 << 62) for l in dvals],
                np.int64,
            )
            codes = enc.indices.to_numpy(zero_copy_only=False)
            dids = b.column("doc_id").to_numpy(zero_copy_only=False)
            lo, hi = lo_of[codes], hi_of[codes]
            sel = (dids >= lo) & (dids <= hi)
            if not sel.any():
                return pa.table(
                    {
                        "lang": pa.array([], pa.string()),
                        "bucket": pa.array([], pa.int64()),
                        "tok": pa.array([], pa.int64()),
                    }
                )
            idx = np.flatnonzero(sel)
            width = (hi[idx] - lo[idx]) // _STRADDLE_B + 1
            bucket = (dids[idx] - lo[idx]) // width
            t = pa.table(
                {
                    "lang": b.column("lang").take(
                        pa.array(idx, pa.int64())
                    ),
                    "bucket": pa.array(bucket, pa.int64()),
                    "tok": b.column("tok").take(pa.array(idx, pa.int64())),
                }
            )
            g = t.group_by(["lang", "bucket"]).aggregate([("tok", "sum")])
            return g.rename_columns(["lang", "bucket", "tok"])

        sums = bounded_group_table_strict(
            cand.map_batches(bucketize, batch_format="pyarrow"),
            ["lang", "bucket"],
            [("tok", "sum")],
        )
        per_lang: dict[str, list] = {}
        if sums is not None:
            for r in sums.to_pylist():
                per_lang.setdefault(r["lang"], []).append(
                    (int(r["bucket"]), int(r["tok"]))
                )
        nxt: dict[str, tuple[int, int, int]] = {}
        for lang, (resid, lo, hi) in win.items():
            width = (hi - lo) // _STRADDLE_B + 1
            buckets = sorted(per_lang.get(lang, []))
            cum = 0
            strad = None
            for bkt, tok in buckets:
                if cum + tok <= resid:
                    cum += tok
                    continue
                strad = bkt
                break
            if strad is None:
                out[lang] = 1 << 62  # everything fits
                continue
            b_lo = lo + strad * width
            b_hi = min(hi, b_lo + width - 1)
            if b_lo == b_hi:
                # single doc_id straddles ⇒ it is the first overflow
                out[lang] = b_lo
            else:
                nxt[lang] = (resid - cum, b_lo, b_hi)
        active = nxt
    return out


TOKEN_BUDGET_SQL = f"""
WITH t AS (
  SELECT doc_id, lang, n_chars,
         CAST(len(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS BIGINT)
           AS n_tokens
  FROM documents
)
SELECT doc_id, lang, n_tokens FROM t
QUALIFY SUM(n_tokens) OVER (
  PARTITION BY lang ORDER BY n_chars DESC, doc_id
  ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) <= {TOKEN_BUDGET_DEFAULT}
"""


# ---------------------------------------------------------------------------
# per-group score calibration: z-score of document length within its
# language — exact int64 moments, broadcast attach, float math
# expression-identical to the oracle.
# ---------------------------------------------------------------------------


def quality_zscores(sf_dir: str) -> rd.Dataset:
    """(doc_id, lang, n_chars, z): per-language z-score of n_chars
    (sample standard deviation)."""
    ds = _docs(sf_dir, ["doc_id", "lang", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        x = b.column("n_chars").to_numpy(zero_copy_only=False)
        langs = b.column("lang").to_numpy(zero_copy_only=False)
        uk, inv = np.unique(langs.astype(str), return_inverse=True)
        m = len(uk)
        n = np.bincount(inv, minlength=m).astype(np.int64)
        sx = np.zeros(m, np.int64)
        sxx = np.zeros(m, np.int64)
        np.add.at(sx, inv, x)
        np.add.at(sxx, inv, x * x)
        return pa.table(
            {
                "lang": pa.array(uk.tolist(), pa.string()),
                "n": pa.array(n),
                "sx": pa.array(sx),
                "sxx": pa.array(sxx),
            }
        )

    mom = bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["lang"],
        [("n", "sum"), ("sx", "sum"), ("sxx", "sum")],
    )
    stats = {
        r["lang"]: (int(r["n"]), int(r["sx"]), int(r["sxx"]))
        for r in (mom.to_pylist() if mom is not None else [])
    }
    ref = ray.put(stats)

    def attach(b: pa.Table) -> pa.Table:
        st = ray.get(ref)
        enc = b.column("lang").combine_chunks().dictionary_encode()
        dvals = enc.dictionary.to_pylist()
        idx = enc.indices.to_numpy(zero_copy_only=False)
        x = b.column("n_chars").to_numpy(zero_copy_only=False).astype(np.float64)
        n = np.array([st[l][0] for l in dvals], np.float64)[idx]
        sx = np.array([st[l][1] for l in dvals], np.float64)[idx]
        sxx = np.array([st[l][2] for l in dvals], np.float64)[idx]
        # expression-identical to the oracle: m = sx/n;
        # v = (sxx - sx*m)/(n-1); z = (x-m)/sqrt(v)
        m = sx / n
        v = (sxx - sx * m) / (n - 1.0)
        z = (x - m) / np.sqrt(v)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "lang": b.column("lang"),
                "n_chars": b.column("n_chars"),
                "z": pa.array(z, pa.float64()),
            }
        )

    return ds.map_batches(attach, batch_format="pyarrow")


QUALITY_ZSCORES_SQL = """
WITH s AS (
  SELECT lang, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(n_chars) AS BIGINT) AS sx,
         CAST(SUM(n_chars * n_chars) AS BIGINT) AS sxx
  FROM documents GROUP BY lang
)
SELECT d.doc_id, d.lang, d.n_chars,
  (CAST(d.n_chars AS DOUBLE)
     - CAST(s.sx AS DOUBLE) / CAST(s.n AS DOUBLE))
  / sqrt((CAST(s.sxx AS DOUBLE)
            - CAST(s.sx AS DOUBLE)
              * (CAST(s.sx AS DOUBLE) / CAST(s.n AS DOUBLE)))
         / CAST(s.n - 1 AS DOUBLE)) AS z
FROM documents d JOIN s USING (lang)
"""


# ---------------------------------------------------------------------------
# snapshot diff (CDC between two lake versions). The second snapshot
# is derived deterministically from the first inside the operator so
# the oracle can reproduce it: doc_id % 17 = 0 rows are removed,
# doc_id % 13 = 3 rows are revised, doc_id % 19 = 5 rows gain a new
# derived document at doc_id + 10 000 000.
# ---------------------------------------------------------------------------

_DIFF_ADD_OFFSET = 10_000_000


def dataset_diff(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(doc_id, change): rows added / removed / changed between the
    documents snapshot and its derived second version."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ds), row_bytes=26
    )

    def both_sides(b: pa.Table) -> pa.Table:
        dids = b.column("doc_id").to_numpy(zero_copy_only=False)
        if len(dids) and dids.max() >= _DIFF_ADD_OFFSET:
            # a base id colliding with a derived-insert id would break
            # the sorted-unique-per-side merge contract silently
            raise ValueError(
                f"doc_id {dids.max()} >= derived-insert offset "
                f"{_DIFF_ADD_OFFSET}; raise _DIFF_ADD_OFFSET for this corpus"
            )
        text = b.column("text").combine_chunks()
        lo_a, hi_a = hash_str_arrow_u128(text)
        # side B: survivors (possibly revised) + derived additions.
        # Hash only the REVISED slice (the 128-bit hash dominates this
        # operator's cost; unrevised rows reuse the side-A hash).
        survives = dids % 17 != 0
        revised = dids % 13 == 3
        rev_text = pc.binary_join_element_wise(
            text.filter(pa.array(revised)), pa.scalar(" [rev2]"), pa.scalar("")
        )
        lo_rs, hi_rs = hash_str_arrow_u128(rev_text)
        lo_b, hi_b = lo_a.copy(), hi_a.copy()
        lo_b[revised], hi_b[revised] = lo_rs, hi_rs
        added = dids % 19 == 5
        add_text = pc.binary_join_element_wise(
            pa.scalar("new "), text, pa.scalar("")
        )
        lo_n, hi_n = hash_str_arrow_u128(add_text.filter(pa.array(added)))
        ids = np.concatenate([dids, dids[survives], dids[added] + _DIFF_ADD_OFFSET])
        lo = np.concatenate([lo_a, lo_b[survives], lo_n])
        hi = np.concatenate([hi_a, hi_b[survives], hi_n])
        side = np.concatenate(
            [
                np.zeros(len(dids), np.int8),
                np.ones(int(survives.sum()) + int(added.sum()), np.int8),
            ]
        )
        key = pa.array(ids.astype(np.int64), pa.int64())
        return pa.table(
            {
                "part": _part_of(key, n_parts),
                "doc_id": key,
                "side": pa.array(side),
                "lo": pa.array(lo.astype(np.int64), pa.int64()),
                "hi": pa.array(hi.astype(np.int64), pa.int64()),
            }
        )

    def merge(g: pa.Table) -> pa.Table:
        dids = g.column("doc_id").to_numpy(zero_copy_only=False)
        side = g.column("side").to_numpy(zero_copy_only=False)
        lo = g.column("lo").to_numpy(zero_copy_only=False)
        hi = g.column("hi").to_numpy(zero_copy_only=False)
        asel = side == 0
        a_ids, a_lo, a_hi = dids[asel], lo[asel], hi[asel]
        oa = np.argsort(a_ids, kind="stable")
        a_ids, a_lo, a_hi = a_ids[oa], a_lo[oa], a_hi[oa]
        b_ids, b_lo, b_hi = dids[~asel], lo[~asel], hi[~asel]
        ob = np.argsort(b_ids, kind="stable")
        b_ids, b_lo, b_hi = b_ids[ob], b_lo[ob], b_hi[ob]

        def member(sorted_ids, probe):
            if not len(sorted_ids):
                return np.zeros(len(probe), bool), np.zeros(len(probe), np.int64)
            pos = np.minimum(
                np.searchsorted(sorted_ids, probe), len(sorted_ids) - 1
            )
            return sorted_ids[pos] == probe, pos

        in_b, pos_b = member(b_ids, a_ids)
        in_a, _ = member(a_ids, b_ids)
        removed = a_ids[~in_b]
        added = b_ids[~in_a]
        if len(b_ids):
            changed_sel = in_b & (
                (a_lo != b_lo[pos_b]) | (a_hi != b_hi[pos_b])
            )
            changed = a_ids[changed_sel]
        else:
            changed = a_ids[:0]
        return pa.table(
            {
                "doc_id": pa.array(
                    np.concatenate([removed, added, changed]), pa.int64()
                ),
                "change": pa.array(
                    ["removed"] * len(removed)
                    + ["added"] * len(added)
                    + ["changed"] * len(changed),
                    pa.string(),
                ),
            }
        )

    return (
        ds.map_batches(both_sides, batch_format="pyarrow")
        .groupby("part")
        .map_groups(merge, batch_format="pyarrow")
    )


DATASET_DIFF_SQL = f"""
WITH a AS (SELECT doc_id, text FROM documents),
b AS (
  SELECT doc_id,
         CASE WHEN doc_id % 13 = 3 THEN text || ' [rev2]' ELSE text END
           AS text
  FROM documents WHERE doc_id % 17 <> 0
  UNION ALL
  SELECT doc_id + {_DIFF_ADD_OFFSET}, 'new ' || text
  FROM documents WHERE doc_id % 19 = 5
)
SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
  CASE WHEN b.doc_id IS NULL THEN 'removed'
       WHEN a.doc_id IS NULL THEN 'added'
       ELSE 'changed' END AS change
FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
WHERE b.doc_id IS NULL OR a.doc_id IS NULL OR a.text <> b.text
"""


# ---------------------------------------------------------------------------
# inverted index: per-term document posting lists with a max-df
# stoplist bound (real retrieval indexes drop stopword-frequency
# terms; the bound also caps per-partition memory).
# ---------------------------------------------------------------------------

_POSTINGS_MAX_DF = 1_000


def term_postings(
    sf_dir: str, max_df: int = _POSTINGS_MAX_DF,
    num_partitions: int | None = None,
) -> rd.Dataset:
    """(term, df, postings): for each term with document frequency ≤
    ``max_df``, the comma-joined ascending doc_id posting list."""
    from ..functions.hashing import token_partitions
    from ..functions.tokenize import tokens_with_doc_index

    ds = _docs(sf_dir, ["doc_id", "text"])
    hint = parquet_rows_hint(ds)
    n_parts = num_partitions or adaptive_partitions(
        hint * 64 if hint else None, row_bytes=24
    )

    def pairs(b: pa.Table) -> pa.Table:
        doc_idx, enc = tokens_with_doc_index(b.column("text"))
        if enc is None:
            return pa.table(
                {
                    "part": pa.array([], pa.int64()),
                    "term": pa.array([], pa.string()),
                    "doc_id": pa.array([], pa.int64()),
                }
            )
        dids = b.column("doc_id").to_numpy(zero_copy_only=False)
        codes = enc.indices.to_numpy(zero_copy_only=False)
        # per-document-unique (term, doc) pairs: a document is one row,
        # so batch-level dedup of (code, doc_idx) is global dedup
        key = codes.astype(np.int64) * len(b) + doc_idx
        uniq = np.unique(key)
        u_codes = (uniq // len(b)).astype(np.int64)
        u_docs = dids[(uniq % len(b)).astype(np.int64)]
        terms = enc.dictionary.take(pa.array(u_codes, pa.int64()))
        vocab = np.asarray(enc.dictionary.to_pylist(), dtype=object)
        parts = token_partitions(vocab, n_parts)[u_codes]
        return pa.table(
            {
                "part": pa.array(parts.astype(np.int64), pa.int64()),
                "term": terms,
                "doc_id": pa.array(u_docs, pa.int64()),
            }
        )

    def collect(g: pa.Table) -> pa.Table:
        enc = g.column("term").combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        dids = g.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((dids, codes))
        codes_s, dids_s = codes[order], dids[order]
        n = len(codes_s)
        if not n:
            return pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                    "postings": pa.array([], pa.string()),
                }
            )
        new = np.concatenate([[True], codes_s[1:] != codes_s[:-1]])
        starts = np.flatnonzero(new)
        lens = np.diff(np.append(starts, n))
        keep_seg = lens <= max_df
        # drop over-frequent terms BEFORE building lists
        seg_of = np.cumsum(new) - 1
        row_keep = keep_seg[seg_of]
        codes_k = codes_s[row_keep]
        dids_k = dids_s[row_keep]
        new_k = np.concatenate([[True], codes_k[1:] != codes_k[:-1]]) if len(codes_k) else np.zeros(0, bool)
        starts_k = np.flatnonzero(new_k)
        id_strs = pc.cast(pa.array(dids_k, pa.int64()), pa.string())
        offsets = pa.array(np.append(starts_k, len(codes_k)).astype(np.int32))
        lists = pa.ListArray.from_arrays(offsets, id_strs)
        return pa.table(
            {
                "term": enc.dictionary.take(
                    pa.array(codes_k[starts_k], pa.int64())
                ),
                "df": pa.array(
                    np.diff(np.append(starts_k, len(codes_k))).astype(np.int64)
                ),
                "postings": pc.binary_join(lists, ","),
            }
        )

    return (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby("part")
        .map_groups(collect, batch_format="pyarrow")
    )


TERM_POSTINGS_SQL = f"""
WITH w AS (
  SELECT DISTINCT doc_id,
         unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS term
  FROM documents
)
SELECT term, CAST(COUNT(*) AS BIGINT) AS df,
       string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id)
         AS postings
FROM w GROUP BY term
HAVING COUNT(*) <= {_POSTINGS_MAX_DF}
"""


# ---------------------------------------------------------------------------
# MERGE / upsert apply (the lakehouse MERGE INTO): a change table of
# U(pdate) / D(elete) / I(nsert) rows applied to the base snapshot in
# ONE hashed doc_id shuffle. The change set here is derived
# deterministically from the base with the SAME rules dataset_diff
# detects — the two operators round-trip (diff(base, apply(base, ch))
# reproduces ch's classification).
# ---------------------------------------------------------------------------


def apply_changes(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(doc_id, text): the base documents snapshot with the derived
    change table merged in — updates replace text, deletes drop the
    row, inserts add new doc_ids."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ds), row_bytes=120
    )

    def tag(b: pa.Table) -> pa.Table:
        dids = b.column("doc_id").to_numpy(zero_copy_only=False)
        if len(dids) and dids.max() >= _DIFF_ADD_OFFSET:
            raise ValueError(
                f"doc_id {dids.max()} >= derived-insert offset "
                f"{_DIFF_ADD_OFFSET}; raise _DIFF_ADD_OFFSET for this corpus"
            )
        text = b.column("text").combine_chunks()
        base = pa.table(
            {
                "part": _part_of(b.column("doc_id"), n_parts),
                "doc_id": b.column("doc_id"),
                "op": pa.array(np.zeros(len(dids), np.int8)),  # 0 = base
                "text": text,
            }
        )
        upd = (dids % 13 == 3) & (dids % 17 != 0)
        rev = pc.binary_join_element_wise(
            text.filter(pa.array(upd)), pa.scalar(" [rev2]"), pa.scalar("")
        )
        dele = dids % 17 == 0
        ins = dids % 19 == 5
        new = pc.binary_join_element_wise(
            pa.scalar("new "), text.filter(pa.array(ins)), pa.scalar("")
        )
        ch_ids = np.concatenate(
            [dids[upd], dids[dele], dids[ins] + _DIFF_ADD_OFFSET]
        )
        ops = np.concatenate(
            [
                np.full(int(upd.sum()), 1, np.int8),   # 1 = update
                np.full(int(dele.sum()), 2, np.int8),  # 2 = delete
                np.full(int(ins.sum()), 3, np.int8),   # 3 = insert
            ]
        )
        ch_text = pa.concat_arrays(
            [
                rev.combine_chunks() if isinstance(rev, pa.ChunkedArray) else rev,
                pa.array([""] * int(dele.sum()), pa.string()),
                new.combine_chunks() if isinstance(new, pa.ChunkedArray) else new,
            ]
        )
        key = pa.array(ch_ids.astype(np.int64), pa.int64())
        changes = pa.table(
            {
                "part": _part_of(key, n_parts),
                "doc_id": key,
                "op": pa.array(ops),
                "text": ch_text,
            }
        )
        return pa.concat_tables([base, changes])

    def merge(g: pa.Table) -> pa.Table:
        dids = g.column("doc_id").to_numpy(zero_copy_only=False)
        ops = g.column("op").to_numpy(zero_copy_only=False)
        # order by (doc_id, op): per key the base row (op 0) sorts
        # first, any change row after it — the LAST row per key wins,
        # deletes drop out
        order = np.lexsort((ops, dids))
        d_s, o_s = dids[order], ops[order]
        is_last = (
            np.concatenate([d_s[1:] != d_s[:-1], [True]])
            if len(d_s)
            else np.zeros(0, bool)
        )
        win = order[is_last]
        keep = ops[win] != 2
        idx = pa.array(win[keep], pa.int64())
        return pa.table(
            {
                "doc_id": g.column("doc_id").take(idx),
                "text": g.column("text").take(idx),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(merge, batch_format="pyarrow")
    )


APPLY_CHANGES_SQL = f"""
WITH ch AS (
  SELECT doc_id, 'U' AS op, text || ' [rev2]' AS text
  FROM documents WHERE doc_id % 13 = 3 AND doc_id % 17 <> 0
  UNION ALL
  SELECT doc_id, 'D', NULL FROM documents WHERE doc_id % 17 = 0
  UNION ALL
  SELECT doc_id + {_DIFF_ADD_OFFSET}, 'I', 'new ' || text
  FROM documents WHERE doc_id % 19 = 5
)
SELECT COALESCE(b.doc_id, c.doc_id) AS doc_id,
       CASE WHEN c.op IS NULL THEN b.text ELSE c.text END AS text
FROM documents b FULL OUTER JOIN ch c ON b.doc_id = c.doc_id
WHERE c.op IS NULL OR c.op <> 'D'
"""


# ---------------------------------------------------------------------------
# data-quality expectation checks (the pre-ingest DQ gate): per-check
# violation counts over the documents table. Map-side checks fold to
# one partial row per (batch, check); the uniqueness check ships
# per-batch (doc_id, n) count partials through one hashed shuffle.
# ---------------------------------------------------------------------------

_DQ_LANGS = ("de", "en", "es", "fr", "zh")


def dq_checks(
    sf_dir: str, num_partitions: int | None = None
) -> rd.Dataset:
    """(check, n_violations) for five expectations: null text, n_chars
    disagreeing with length(text), unexpected lang, empty/whitespace
    text, duplicate doc_id (rows sharing an id)."""
    ds = _docs(sf_dir, ["doc_id", "text", "lang", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        text = b.column("text").combine_chunks()
        null_text = int(pc.sum(pc.is_null(text)).as_py() or 0)
        lens = pc.fill_null(pc.utf8_length(text), 0).to_numpy(
            zero_copy_only=False
        )
        ncs = b.column("n_chars").to_numpy(zero_copy_only=False)
        mismatch = int((lens != ncs).sum())
        lang_ok = pc.is_in(
            b.column("lang"), value_set=pa.array(list(_DQ_LANGS), pa.string())
        )
        bad_lang = int(pc.sum(pc.invert(lang_ok)).as_py() or 0)
        trimmed = pc.utf8_trim(pc.fill_null(text, ""), " \t\n\r")
        empty = int(pc.sum(pc.equal(pc.utf8_length(trimmed), 0)).as_py() or 0)
        return pa.table(
            {
                "check": pa.array(
                    ["null_text", "n_chars_mismatch", "bad_lang", "empty_text"],
                    pa.string(),
                ),
                "n_violations": pa.array(
                    [null_text, mismatch, bad_lang, empty], pa.int64()
                ),
            }
        )

    scalar = bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["check"],
        [("n_violations", "sum")],
    )

    # uniqueness: per-batch (doc_id, n) partials, hashed-partition sum,
    # violations = rows whose id occurs more than once
    ids = _docs(sf_dir, ["doc_id"])
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ids), row_bytes=16
    )

    def id_partial(b: pa.Table) -> pa.Table:
        uk, counts = np.unique(
            b.column("doc_id").to_numpy(zero_copy_only=False),
            return_counts=True,
        )
        key = pa.array(uk, pa.int64())
        return pa.table(
            {
                "part": _part_of(key, n_parts),
                "doc_id": key,
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    def dup_merge(g: pa.Table) -> pa.Table:
        uk, inv = np.unique(
            g.column("doc_id").to_numpy(zero_copy_only=False),
            return_inverse=True,
        )
        tot = np.zeros(len(uk), np.int64)
        np.add.at(tot, inv, g.column("n").to_numpy(zero_copy_only=False))
        return pa.table(
            {"dups": pa.array([int(tot[tot > 1].sum())], pa.int64())}
        )

    dup_parts = (
        ids.map_batches(id_partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(dup_merge, batch_format="pyarrow")
    )
    dup_tbl = bounded_group_table_strict(
        dup_parts.map_batches(
            lambda b: pa.table(
                {
                    "check": pa.array(["dup_doc_id"] * b.num_rows, pa.string()),
                    "n_violations": b.column("dups"),
                }
            ),
            batch_format="pyarrow",
        ),
        ["check"],
        [("n_violations", "sum")],
    )
    parts = [t for t in (scalar, dup_tbl) if t is not None]
    if not parts:
        return rd.from_arrow(
            pa.table(
                {
                    "check": pa.array([], pa.string()),
                    "n_violations": pa.array([], pa.int64()),
                }
            )
        )
    return rd.from_arrow(pa.concat_tables(parts))


DQ_CHECKS_SQL = """
SELECT 'null_text' AS check, CAST(SUM(CASE WHEN text IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_violations FROM documents
UNION ALL
SELECT 'n_chars_mismatch', CAST(SUM(CASE WHEN coalesce(length(text), 0) <> n_chars THEN 1 ELSE 0 END) AS BIGINT) FROM documents
UNION ALL
SELECT 'bad_lang', CAST(SUM(CASE WHEN lang NOT IN ('de','en','es','fr','zh') THEN 1 ELSE 0 END) AS BIGINT) FROM documents
UNION ALL
SELECT 'empty_text', CAST(SUM(CASE WHEN length(trim(coalesce(text, ''), ' ' || chr(9) || chr(10) || chr(13))) = 0 THEN 1 ELSE 0 END) AS BIGINT) FROM documents
UNION ALL
SELECT 'dup_doc_id',
  CAST(coalesce(SUM(CASE WHEN n > 1 THEN n ELSE 0 END), 0) AS BIGINT)
FROM (SELECT doc_id, COUNT(*) AS n FROM documents GROUP BY doc_id)
"""


# ---------------------------------------------------------------------------
# BM25 ranked retrieval — the scoring dual of the inverted index:
# Robertson/Lucene BM25 of a fixed query over the documents table.
# Two passes: (1) exact integer corpus stats (N, Σdl, per-term df) as
# one partial row per batch; (2) vectorized per-doc scores + per-block
# top-k prune, final k-row selection on the driver. All stats are
# exact int64 and the float scoring expression is shared verbatim
# with the oracle (math.log == DuckDB ln, same libm), so the result
# hashes bit-exact.
# ---------------------------------------------------------------------------

BM25_QUERY = "hash join filter"
BM25_K1 = 1.2
BM25_B = 0.75
BM25_TOPK = 10


def _bm25_tf_dl(b: pa.Table, terms: list[str]):
    """(dl int64[n], tf int64[n, n_terms]) for one batch."""
    from ..functions.tokenize import tokens_with_doc_index

    n = b.num_rows
    doc_idx, enc = tokens_with_doc_index(b.column("text"))
    dl = np.zeros(n, np.int64)
    tf = np.zeros((n, len(terms)), np.int64)
    if enc is None:
        return dl, tf
    np.add.at(dl, doc_idx, 1)
    vocab = enc.dictionary.to_pylist()
    code_of = {t: c for c, t in enumerate(vocab)}
    codes = enc.indices.to_numpy(zero_copy_only=False)
    for j, t in enumerate(terms):
        c = code_of.get(t)
        if c is not None:
            np.add.at(tf[:, j], doc_idx[codes == c], 1)
    return dl, tf


def bm25_search(
    sf_dir: str,
    query: str = BM25_QUERY,
    k: int = BM25_TOPK,
    k1: float = BM25_K1,
    b: float = BM25_B,
) -> rd.Dataset:
    """(doc_id, score): the ``k`` highest-BM25 documents for
    ``query``, ties broken by doc_id ascending."""
    import math

    terms = sorted(set(query.split()))
    ds = _docs(sf_dir, ["doc_id", "text"])

    def stats_partial(batch: pa.Table) -> pa.Table:
        dl, tf = _bm25_tf_dl(batch, terms)
        cols = {
            "g": pa.array([0], pa.int64()),
            "n_docs": pa.array([batch.num_rows], pa.int64()),
            "total_dl": pa.array([int(dl.sum())], pa.int64()),
        }
        for j in range(len(terms)):
            cols[f"df_{j}"] = pa.array([int((tf[:, j] > 0).sum())], pa.int64())
        return pa.table(cols)

    st = bounded_group_table_strict(
        ds.map_batches(stats_partial, batch_format="pyarrow"),
        ["g"],
        [("n_docs", "sum"), ("total_dl", "sum")]
        + [(f"df_{j}", "sum") for j in range(len(terms))],
    )
    if st is None or not int(st.column("n_docs")[0].as_py()):
        return rd.from_arrow(
            pa.table(
                {"doc_id": pa.array([], pa.int64()), "score": pa.array([], pa.float64())}
            )
        )
    n_docs = int(st.column("n_docs")[0].as_py())
    total_dl = int(st.column("total_dl")[0].as_py())
    dfs = [int(st.column(f"df_{j}")[0].as_py()) for j in range(len(terms))]
    avgdl = float(total_dl) / float(n_docs)
    idfs = [
        math.log(1.0 + (float(n_docs - df) + 0.5) / (float(df) + 0.5))
        for df in dfs
    ]
    ref = ray.put((terms, idfs, avgdl))

    def score_prune(batch: pa.Table) -> pa.Table:
        ts, idf, ad = ray.get(ref)
        dl, tf = _bm25_tf_dl(batch, ts)
        dl_f = dl.astype(np.float64)
        score = np.zeros(batch.num_rows, np.float64)
        # fixed ascending-term order, sequential adds — the oracle's
        # expression sums the same terms in the same order
        for j in range(len(ts)):
            tf_f = tf[:, j].astype(np.float64)
            num = tf_f * (k1 + 1.0)
            den = tf_f + k1 * ((1.0 - b) + b * (dl_f / ad))
            score = score + idf[j] * num / den
        dids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        top = np.lexsort((dids, -score))[:k]
        return pa.table(
            {
                "doc_id": pa.array(dids[top], pa.int64()),
                "score": pa.array(score[top], pa.float64()),
            }
        )

    cand = bounded_group_table_strict(
        ds.map_batches(score_prune, batch_format="pyarrow").map_batches(
            lambda t: t.append_column("g", pa.array([0] * t.num_rows, pa.int64())),
            batch_format="pyarrow",
        ),
        ["g", "doc_id"],
        [("score", "max")],
    )
    if cand is None:
        return rd.from_arrow(
            pa.table(
                {"doc_id": pa.array([], pa.int64()), "score": pa.array([], pa.float64())}
            )
        )
    dids = cand.column("doc_id").to_numpy(zero_copy_only=False)
    sc = cand.column("score").to_numpy(zero_copy_only=False)
    top = np.lexsort((dids, -sc))[:k]
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(dids[top], pa.int64()),
                "score": pa.array(sc[top], pa.float64()),
            }
        )
    )


def _bm25_sql() -> str:
    terms = sorted(set(BM25_QUERY.split()))
    tf_cols = ",\n         ".join(
        f"len(list_filter(regexp_extract_all(text, '{WS_TOKEN_RE}'), "
        f"x -> x = '{t}')) AS tf_{j}"
        for j, t in enumerate(terms)
    )
    df_cols = ", ".join(
        f"CAST(SUM(CASE WHEN tf_{j} > 0 THEN 1 ELSE 0 END) AS BIGINT) AS df_{j}"
        for j in range(len(terms))
    )
    term_exprs = []
    for j in range(len(terms)):
        idf = (
            f"ln(1.0 + (CAST(g.n_docs - g.df_{j} AS DOUBLE) + 0.5)"
            f" / (CAST(g.df_{j} AS DOUBLE) + 0.5))"
        )
        num = f"CAST(t.tf_{j} AS DOUBLE) * ({BM25_K1} + 1.0)"
        den = (
            f"CAST(t.tf_{j} AS DOUBLE) + {BM25_K1} * ((1.0 - {BM25_B}) + "
            f"{BM25_B} * (CAST(t.dl AS DOUBLE) / "
            f"(CAST(g.total_dl AS DOUBLE) / CAST(g.n_docs AS DOUBLE))))"
        )
        term_exprs.append(f"{idf} * ({num}) / ({den})")
    score = term_exprs[0]
    for e in term_exprs[1:]:
        score = f"({score}) + ({e})"
    return f"""
WITH t AS (
  SELECT doc_id,
         len(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS dl,
         {tf_cols}
  FROM documents
),
g AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_docs,
         CAST(SUM(dl) AS BIGINT) AS total_dl, {df_cols}
  FROM t
)
SELECT t.doc_id, {score} AS score
FROM t, g
QUALIFY ROW_NUMBER() OVER (ORDER BY score DESC, t.doc_id) <= {BM25_TOPK}
"""


# ---------------------------------------------------------------------------
# list-column processing: per-vector L2 norms over the embeddings
# table. The float accumulation is an axis-1 ``np.cumsum`` (strictly
# left-to-right, exactly DuckDB's sequential ``list_sum``), so the
# norms hash bit-exact against the list-function oracle — numpy's
# default pairwise ``sum`` would NOT.
# ---------------------------------------------------------------------------


def embedding_norms(sf_dir: str) -> rd.Dataset:
    """(vec_id, dim, norm): length and L2 norm of each embedding."""
    ds = read_pq(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )

    def norms(b: pa.Table) -> pa.Table:
        col = b.column("embedding").combine_chunks()
        offs = col.offsets.to_numpy(zero_copy_only=False)
        lens = np.diff(offs)
        flat = col.flatten().to_numpy(zero_copy_only=False)
        if len(lens) and not (lens == lens[0]).all():
            raise ValueError(
                "ragged embedding lengths: the fixed-dim cumsum plan "
                "needs equal dims (pad or reshape upstream)"
            )
        if not len(lens):
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "dim": pa.array([], pa.int64()),
                    "norm": pa.array([], pa.float64()),
                }
            )
        d = int(lens[0])
        x = flat.astype(np.float64).reshape(len(lens), d)
        seq = np.cumsum(x * x, axis=1)[:, -1]  # sequential ≙ list_sum
        return pa.table(
            {
                "vec_id": b.column("vec_id"),
                "dim": pa.array(lens.astype(np.int64), pa.int64()),
                "norm": pa.array(np.sqrt(seq), pa.float64()),
            }
        )

    return ds.map_batches(norms, batch_format="pyarrow")


EMBEDDING_NORMS_SQL = """
SELECT vec_id, CAST(len(embedding) AS BIGINT) AS dim,
  sqrt(list_sum(list_transform(
    embedding, x -> CAST(x AS DOUBLE) * CAST(x AS DOUBLE)))) AS norm
FROM embeddings
"""


# ---------------------------------------------------------------------------
# grouped vocabulary head: top-k tokens PER LANGUAGE — per-group
# top-k over an unbounded key domain. Token totals are complete
# within their hash(token) partition, so a per-partition per-lang
# top-k is a sound candidate prune (global top-k per lang ⊆ the
# union of partition top-ks under the total (n DESC, token ASC)
# order); the driver selects the final k from ≤ partitions×langs×k
# candidate rows.
# ---------------------------------------------------------------------------


def top_tokens_by_lang(
    sf_dir: str, k: int = 10, num_partitions: int | None = None
) -> rd.Dataset:
    """(lang, token, n, rk): each language's k most frequent tokens,
    ties broken token-ascending."""
    from ..functions.hashing import token_partitions
    from ..functions.tokenize import split_ws_tokens

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
        langs = b.column("lang").take(
            pa.array(doc_idx[mask], pa.int64())
        )
        t = pa.table({"lang": langs, "token": flat.filter(pa.array(mask))})
        g = t.group_by(["lang", "token"]).aggregate([([], "count_all")])
        g = g.rename_columns(["lang", "token", "n"])
        vocab = np.asarray(g.column("token").to_pylist(), dtype=object)
        return pa.table(
            {
                "part": pa.array(
                    token_partitions(vocab, n_parts).astype(np.int64), pa.int64()
                ),
                "lang": g.column("lang"),
                "token": g.column("token"),
                "n": pc.cast(g.column("n"), pa.int64()),
            }
        )

    def part_topk(g: pa.Table) -> pa.Table:
        t = (
            g.select(["lang", "token", "n"])
            .group_by(["lang", "token"])
            .aggregate([("n", "sum")])
            .rename_columns(["lang", "token", "n"])
        )
        idx = pc.sort_indices(
            t,
            sort_keys=[
                ("lang", "ascending"),
                ("n", "descending"),
                ("token", "ascending"),
            ],
        )
        t = t.take(idx)
        lang = np.asarray(t.column("lang").to_pylist(), dtype=object)
        new = np.concatenate([[True], lang[1:] != lang[:-1]]) if len(lang) else np.zeros(0, bool)
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        rank = np.arange(len(lang), dtype=np.int64) - starts[seg]
        return t.filter(pa.array(rank < k))

    cand = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_topk, batch_format="pyarrow")
    )
    tbl = bounded_group_table_strict(
        cand, ["lang", "token"], [("n", "max")]
    )
    if tbl is None:
        return rd.from_arrow(
            pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    "token": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "rk": pa.array([], pa.int64()),
                }
            )
        )
    idx = pc.sort_indices(
        tbl,
        sort_keys=[
            ("lang", "ascending"),
            ("n", "descending"),
            ("token", "ascending"),
        ],
    )
    tbl = tbl.take(idx)
    lang = np.asarray(tbl.column("lang").to_pylist(), dtype=object)
    new = np.concatenate([[True], lang[1:] != lang[:-1]]) if len(lang) else np.zeros(0, bool)
    starts = np.flatnonzero(new)
    seg = np.cumsum(new) - 1
    rank = np.arange(len(lang), dtype=np.int64) - starts[seg]
    out = tbl.filter(pa.array(rank < k)).append_column(
        "rk", pa.array((rank[rank < k] + 1).astype(np.int64), pa.int64())
    )
    return rd.from_arrow(out)


TOP_TOKENS_BY_LANG_SQL = f"""
WITH w AS (
  SELECT lang, unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS token
  FROM documents
),
c AS (
  SELECT lang, token, CAST(COUNT(*) AS BIGINT) AS n
  FROM w GROUP BY lang, token
)
SELECT lang, token, n,
  CAST(ROW_NUMBER() OVER (PARTITION BY lang ORDER BY n DESC, token)
       AS BIGINT) AS rk
FROM c
QUALIFY rk <= 10
"""


# ---------------------------------------------------------------------------
# Chi-square keyness — each language's most DISTINCTIVE tokens (not
# its most frequent: 2×2 contingency of token-vs-rest × lang-vs-rest,
# over-represented side only). Token-hash partitioning co-locates all
# of a token's per-lang counts, so chi² is computed entirely inside
# the partition against broadcast lang totals; the per-(partition,
# lang) top-k prune is SOUND because every token lives in exactly one
# partition. All contingency cells are exact int64; the statistic is
# a fixed-association double expression mirrored by the oracle.
# ---------------------------------------------------------------------------

def lang_keyness(
    sf_dir: str, k: int = 10, num_partitions: int | None = None
) -> rd.Dataset:
    """(lang, token, n, chi2): each language's k most over-represented
    tokens by chi-square keyness, ties broken token-ascending."""
    import ray as _ray

    from ..functions.hashing import token_partitions
    from ..functions.tokenize import split_ws_tokens

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

    partials = _docs(sf_dir, ["lang", "text"]).map_batches(
        pairs, batch_format="pyarrow"
    )
    # bounded lang totals (|langs| rows) from a light count pass (one
    # vectorized regex count per doc, no token groupby), broadcast
    # into every partition
    def lang_counts(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "lang": b.column("lang"),
                "n": pc.cast(count_ws_tokens(b.column("text")), pa.int64()),
            }
        )
        g = t.group_by(["lang"]).aggregate([("n", "sum")])
        return g.rename_columns(["lang", "n"])

    lt = bounded_group_table_strict(
        _docs(sf_dir, ["lang", "text"]).map_batches(
            lang_counts, batch_format="pyarrow"
        ),
        ["lang"],
        [("n", "sum")],
    )
    if lt is None or not lt.num_rows:
        return rd.from_arrow(
            pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    "token": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "chi2": pa.array([], pa.float64()),
                }
            )
        )
    lang_tot = dict(
        zip(lt.column("lang").to_pylist(), lt.column("n").to_pylist())
    )
    grand = sum(lang_tot.values())
    ref = _ray.put((lang_tot, grand))

    def part_score(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "lang": pa.array([], pa.string()),
                "token": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
                "chi2": pa.array([], pa.float64()),
            }
        )
        if g.num_rows == 0:
            return empty
        ltot, nall = _ray.get(ref)
        t = (
            g.select(["lang", "token", "n"])
            .group_by(["lang", "token"])
            .aggregate([("n", "sum")])
            .rename_columns(["lang", "token", "n"])
        )
        tok = np.asarray(t.column("token").to_pylist(), dtype=object)
        lang = np.asarray(t.column("lang").to_pylist(), dtype=object)
        n = t.column("n").to_numpy(zero_copy_only=False)
        # per-token global counts within this partition (complete:
        # the token hash pins every lang's count here)
        order = np.argsort(tok, kind="stable")
        tok_s = tok[order]
        new = np.concatenate([[True], tok_s[1:] != tok_s[:-1]]) if len(tok_s) else np.zeros(0, bool)
        gid_s = np.cumsum(new) - 1
        gid = np.empty(len(tok), np.int64)
        gid[order] = gid_s
        nt = np.zeros(int(gid_s[-1]) + 1 if len(gid_s) else 0, np.int64)
        np.add.at(nt, gid, n)
        L = np.array([ltot[l] for l in lang.tolist()], np.int64)
        af = n.astype(np.float64)
        bf = (L - n).astype(np.float64)
        cf = (nt[gid] - n).astype(np.float64)
        Nf = np.float64(nall)
        df_ = Nf - L.astype(np.float64) - cf
        # fixed association, mirrored by the oracle
        e = af * df_ - bf * cf
        ntf = nt[gid].astype(np.float64)
        Lf = L.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            chi2 = (Nf * (e * e)) / (
                (Lf * (Nf - Lf)) * (ntf * (Nf - ntf))
            )
        keep = e > 0.0
        if not keep.any():
            return empty
        out = pa.table(
            {
                "lang": t.column("lang").filter(pa.array(keep)),
                "token": t.column("token").filter(pa.array(keep)),
                "n": t.column("n").filter(pa.array(keep)),
                "chi2": pa.array(chi2[keep], pa.float64()),
            }
        )
        idx = pc.sort_indices(
            out,
            sort_keys=[
                ("lang", "ascending"),
                ("chi2", "descending"),
                ("token", "ascending"),
            ],
        )
        out = out.take(idx)
        ls = np.asarray(out.column("lang").to_pylist(), dtype=object)
        new_l = np.concatenate([[True], ls[1:] != ls[:-1]]) if len(ls) else np.zeros(0, bool)
        starts = np.flatnonzero(new_l)
        seg = np.cumsum(new_l) - 1
        rank = np.arange(len(ls), dtype=np.int64) - starts[seg]
        return out.filter(pa.array(rank < k))

    cand = partials.groupby("part").map_groups(
        part_score, batch_format="pyarrow"
    )
    tbl = bounded_group_table_strict(
        cand, ["lang", "token"], [("n", "max"), ("chi2", "max")]
    )
    empty = pa.table(
        {
            "lang": pa.array([], pa.string()),
            "token": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
            "chi2": pa.array([], pa.float64()),
        }
    )
    if tbl is None:
        return rd.from_arrow(empty)
    idx = pc.sort_indices(
        tbl,
        sort_keys=[
            ("lang", "ascending"),
            ("chi2", "descending"),
            ("token", "ascending"),
        ],
    )
    tbl = tbl.take(idx)
    ls = np.asarray(tbl.column("lang").to_pylist(), dtype=object)
    new_l = np.concatenate([[True], ls[1:] != ls[:-1]]) if len(ls) else np.zeros(0, bool)
    starts = np.flatnonzero(new_l)
    seg = np.cumsum(new_l) - 1
    rank = np.arange(len(ls), dtype=np.int64) - starts[seg]
    return rd.from_arrow(tbl.filter(pa.array(rank < k)))


LANG_KEYNESS_SQL = f"""
WITH w AS (
  SELECT lang, unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS token
  FROM documents
),
tk AS (
  SELECT lang, token, CAST(COUNT(*) AS BIGINT) AS n
  FROM w GROUP BY lang, token
),
lt AS (SELECT lang, CAST(SUM(n) AS BIGINT) AS L FROM tk GROUP BY lang),
tt AS (SELECT token, CAST(SUM(n) AS BIGINT) AS nt FROM tk GROUP BY token),
g AS (SELECT CAST(SUM(n) AS BIGINT) AS nall FROM tk),
scored AS (
  SELECT tk.lang, tk.token, tk.n,
    CAST(tk.n AS DOUBLE) * (CAST(nall AS DOUBLE) - CAST(L AS DOUBLE)
                            - (CAST(nt AS DOUBLE) - CAST(tk.n AS DOUBLE)))
      - (CAST(L AS DOUBLE) - CAST(tk.n AS DOUBLE))
        * (CAST(nt AS DOUBLE) - CAST(tk.n AS DOUBLE)) AS e,
    L, nt, nall
  FROM tk JOIN lt USING (lang) JOIN tt USING (token) CROSS JOIN g
)
SELECT lang, token, n,
  (CAST(nall AS DOUBLE) * (e * e))
    / ((CAST(L AS DOUBLE) * (CAST(nall AS DOUBLE) - CAST(L AS DOUBLE)))
       * (CAST(nt AS DOUBLE) * (CAST(nall AS DOUBLE) - CAST(nt AS DOUBLE))))
  AS chi2
FROM scored
WHERE e > 0
QUALIFY row_number() OVER (
  PARTITION BY lang ORDER BY chi2 DESC, token) <= 10
"""
