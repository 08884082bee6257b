"""The driver-contract query registry: every implemented operator as a
``name -> (ray_callable, oracle_sql | None)`` pair.

Each callable takes ``sf_dir`` and returns a Dataset / Arrow table; the
SQL string (when present) is the DuckDB-equivalent over the driver's
pre-registered views — same column NAMES and value domains, integer
cents for anything summed (see pipelines/relational.py's exactness
discipline). SQL-less entries are genuinely non-SQL-expressible
(sketches, model scoring, approximate search) and get the driver's
rows-only check; their correctness is pinned by pytest instead.

The gate queries run the REAL pipeline (sources/pages_from_documents →
stages/extract → langid → perplexity → stages/rules) and the oracle
re-derives each vectorizable rule independently in SQL — a
differential test of the rule catalog in the spirit of the reference's
parametrized detector tests (``test_p001.py:13-77``).
"""

from __future__ import annotations

import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data.aggregate import Sum

from ..functions import dedup as dd
from ..functions import similarity as sim
from ..sources.pages_from_documents import pages_cte, synthesize_pages, trigger_table
from ..stages import multimodal as mm
from ..stages.skew import HOST_COUNTS_SQL_TEMPLATE
from ..stages.langid import marker_pattern
from ..stages.rules import (
    ARCHIVE_RE,
    AUTHORS_LINE_RE,
    BARE_DOI_RE,
    CITE_DOI_RE,
    CITE_LINE_RE,
    CONTRIB_LINE_RE,
    DEAD_PATH_RE,
    DUAL_LIC_RE,
    HOMEPAGE_RE,
    ID_LINE_RE,
    ID_VALID_RE,
    LIC_EXEMPT_RE,
    LIC_FAMILY_RE,
    LIC_LOCAL_RE,
    LIC_URL_RE,
    LIC_VERSIONED_RE,
    MULTI_LIC_DECL_RE,
    REQ_NOVER_RE,
    SCRUBS,
    SHORTHAND_RE,
    STATUS_URL_RE,
    SWHID_RE,
    PLACEHOLDER_RE,
    URL_ANY_RE,
)
from . import analytics as ana
from . import corpus as cor
from . import decision as dec
from . import decision2 as dec2
from . import decision3 as dec3
from . import decision4 as dec4
from . import corpus2 as cor2
from . import corpus3 as cor3
from . import decision5 as dec5
from . import relational as rel
from . import stats as st
from .quality_gate import build_gate

# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _documents(sf_dir: str, columns: list[str] | None = None) -> rd.Dataset:
    from ..partitioning import read_pq

    return read_pq(os.path.join(sf_dir, "documents.parquet"), columns=columns)


def _pages_input(sf_dir: str) -> rd.Dataset:
    """documents ∪ planted trigger rows — the same union the SQL
    pages CTE applies, so every rule is exercised non-vacuously."""
    ds = _documents(sf_dir, ["doc_id", "text", "lang"])
    return ds.union(rd.from_arrow(trigger_table()))


def _gated(sf_dir: str) -> rd.Dataset:
    pages = _pages_input(sf_dir).map_batches(synthesize_pages, batch_format="pyarrow")
    return build_gate(pages, write_dropped_text=True, expose_flags=True)


_EN_MARKER_RE = r"\b(?:the|and|was|that|with|this|from|have)\b"
_SYMBOL_RE = r"[^\p{L}\p{N}\s]"
_TOKEN_RE = r"\S+"

# SQL fragments shared by the gate oracles (over the pages CTE).
# Language detection mirrors the engine's SCAN-PREFIX bound: marker
# hits and density denominators are computed over substr(text,1,2048),
# exactly like stages/langid.py's utf8_slice_codeunits window.
_LANGID_SCAN = 2048
_FEAT_SQL = f"""
feat AS (
  SELECT doc_id, url, text, lang, warc_ts,
    len(regexp_extract_all(text, '{_TOKEN_RE}')) AS n_tokens,
    length(text) AS n_chars,
    len(regexp_extract_all(substr(text, 1, {_LANGID_SCAN}), '{_TOKEN_RE}'))
      AS n_tokens_scan,
    len(regexp_extract_all(substr(text, 1, {_LANGID_SCAN}), '{_EN_MARKER_RE}'))
      AS en_hits,
    len(regexp_extract_all(text, '{_SYMBOL_RE}')) AS symbol_chars
  FROM pages
),
det AS (
  SELECT *,
    CASE WHEN n_tokens > 0
           AND CAST(en_hits AS DOUBLE) / CAST(greatest(n_tokens_scan, 1) AS DOUBLE) >= 0.08
         THEN 'en' ELSE 'und' END AS detected_lang
  FROM feat
)
"""


def _scrub_sql_expr(col: str) -> str:
    expr = col
    for _, pat, repl in SCRUBS:
        p = pat.replace("'", "''")
        expr = f"regexp_replace({expr}, '{p}', '{repl}', 'g')"
    return expr


# corpus-with-duplicates for the dedup operators: documents plus exact
# copies (doc_id+1e6 for doc_id%10=0) and near-copies with a trailing
# edit (doc_id+2e6 for doc_id%20=5)
_NEAR_SUFFIX = " with some extra trailing words appended here"


def _dup_corpus(sf_dir: str) -> rd.Dataset:
    """ONE expansion pass, not a 3-way ``union`` of read branches: the
    union tripled the (already micro-)block count entering every dedup
    shuffle, and the sort machinery's per-block cost — not data volume
    — dominated the dedup queries' wall time at driver scale."""
    ds = _documents(sf_dir, ["doc_id", "text"])

    def expand(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_numpy(zero_copy_only=False)
        ex = b.filter(pa.array(d % 10 == 0))
        near = b.filter(pa.array(d % 20 == 5))
        exact_t = pa.table(
            {
                "doc_id": pc.add(ex.column("doc_id"), 1_000_000),
                "text": ex.column("text"),
            }
        )
        near_t = pa.table(
            {
                "doc_id": pc.add(near.column("doc_id"), 2_000_000),
                "text": pc.binary_join_element_wise(
                    near.column("text").combine_chunks(),
                    pa.array([_NEAR_SUFFIX] * len(near), pa.string()),
                    "",
                ),
            }
        )
        return pa.concat_tables(
            [b.select(["doc_id", "text"]), exact_t, near_t]
        ).combine_chunks()

    return ds.map_batches(expand, batch_format="pyarrow")


_DUP_CORPUS_SQL = f"""
corpus AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id, text FROM documents WHERE doc_id % 10 = 0
  UNION ALL
  SELECT doc_id + 2000000 AS doc_id, text || '{_NEAR_SUFFIX}' AS text
  FROM documents WHERE doc_id % 20 = 5
)
"""


def _query_vectors(sf_dir: str, n: int = 5):
    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n)],  # pushed: never the whole table
    )
    from ..functions.arrowmat import list_column_matrix

    ids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    mat = list_column_matrix(t.column("embedding"))
    order = np.argsort(ids)
    return ids[order], mat[order]


# ---------------------------------------------------------------------------
# query implementations
# ---------------------------------------------------------------------------

def q_lang_confusion(sf_dir: str):
    """(lang, detected_lang, n): the declared-vs-detected language
    confusion matrix over the gate corpus — the calibration table a
    langid threshold review reads (how much declared-en lands in
    'und', which declared langs the detector never confirms). Bounded
    |langs|² counts; only 24 B partials shuffle."""
    out = _gated(sf_dir).select_columns(["lang", "detected_lang"])

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by(["lang", "detected_lang"]).aggregate(
            [([], "count_all")]
        )
        return g.rename_columns(["lang", "detected_lang", "n"])

    res = rel.bounded_group_table_strict(
        out.map_batches(partial, batch_format="pyarrow"),
        ["lang", "detected_lang"],
        [("n", "sum")],
    )
    if res is None:
        return pa.table(
            {
                "lang": pa.array([], pa.string()),
                "detected_lang": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
    return res


def q_langid_f1(sf_dir: str):
    """(lang, n_true, n_pred, n_correct, precision, recall, f1): the
    language detector's per-language scoreboard against the declared
    label — the eval rollup of ``lang_confusion``'s raw matrix
    (precision = correct/predicted, recall = correct/true, F1 their
    harmonic mean; 'und' predictions count against recall but 'und'
    has no row of its own unless declared). Every float is one
    division (or one 2·c/(t+p)) of exact int64 marginals from the
    bounded |langs|² confusion reduce."""
    conf = q_lang_confusion(sf_dir)
    empty = pa.table(
        {
            "lang": pa.array([], pa.string()),
            "n_true": pa.array([], pa.int64()),
            "n_pred": pa.array([], pa.int64()),
            "n_correct": pa.array([], pa.int64()),
            "precision": pa.array([], pa.float64()),
            "recall": pa.array([], pa.float64()),
            "f1": pa.array([], pa.float64()),
        }
    )
    if conf.num_rows == 0:
        return empty
    langs = conf.column("lang").to_pylist()
    dets = conf.column("detected_lang").to_pylist()
    ns = conf.column("n").to_pylist()
    true_c: dict[str, int] = {}
    pred_c: dict[str, int] = {}
    corr: dict[str, int] = {}
    for lg, dt, n in zip(langs, dets, ns):
        true_c[lg] = true_c.get(lg, 0) + n
        pred_c[dt] = pred_c.get(dt, 0) + n
        if lg == dt:
            corr[lg] = corr.get(lg, 0) + n
    out = {k: [] for k in (
        "lang", "n_true", "n_pred", "n_correct",
        "precision", "recall", "f1",
    )}
    for lg in sorted(true_c):
        t = true_c[lg]
        p = pred_c.get(lg, 0)
        c = corr.get(lg, 0)
        out["lang"].append(lg)
        out["n_true"].append(t)
        out["n_pred"].append(p)
        out["n_correct"].append(c)
        out["precision"].append(float(c) / float(p) if p else 0.0)
        out["recall"].append(float(c) / float(t) if t else 0.0)
        out["f1"].append(
            2.0 * c / (t + p) if (t + p) else 0.0
        )
    return pa.table(
        {
            "lang": pa.array(out["lang"], pa.string()),
            "n_true": pa.array(out["n_true"], pa.int64()),
            "n_pred": pa.array(out["n_pred"], pa.int64()),
            "n_correct": pa.array(out["n_correct"], pa.int64()),
            "precision": pa.array(out["precision"], pa.float64()),
            "recall": pa.array(out["recall"], pa.float64()),
            "f1": pa.array(out["f1"], pa.float64()),
        }
    )


def _sql_langid_f1() -> str:
    return f"""
WITH pages AS ({{pages}}),
{_FEAT_SQL},
conf AS (
  SELECT lang, detected_lang, CAST(COUNT(*) AS BIGINT) AS n
  FROM det GROUP BY lang, detected_lang
),
t AS (SELECT lang, SUM(n) AS n_true FROM conf GROUP BY lang),
p AS (SELECT detected_lang, SUM(n) AS n_pred FROM conf GROUP BY detected_lang),
c AS (
  SELECT lang, SUM(n) AS n_correct FROM conf
  WHERE lang = detected_lang GROUP BY lang
)
SELECT t.lang, CAST(t.n_true AS BIGINT) AS n_true,
  CAST(COALESCE(p.n_pred, 0) AS BIGINT) AS n_pred,
  CAST(COALESCE(c.n_correct, 0) AS BIGINT) AS n_correct,
  CASE WHEN COALESCE(p.n_pred, 0) > 0
       THEN CAST(COALESCE(c.n_correct, 0) AS DOUBLE)
            / CAST(p.n_pred AS DOUBLE) ELSE 0.0 END AS precision,
  CASE WHEN t.n_true > 0
       THEN CAST(COALESCE(c.n_correct, 0) AS DOUBLE)
            / CAST(t.n_true AS DOUBLE) ELSE 0.0 END AS recall,
  CASE WHEN t.n_true + COALESCE(p.n_pred, 0) > 0
       THEN 2.0 * COALESCE(c.n_correct, 0)
            / (t.n_true + COALESCE(p.n_pred, 0)) ELSE 0.0 END AS f1
FROM t
LEFT JOIN p ON p.detected_lang = t.lang
LEFT JOIN c ON c.lang = t.lang
"""


def _sql_lang_confusion() -> str:
    return f"""
WITH pages AS ({{pages}}),
{_FEAT_SQL}
SELECT lang, detected_lang, CAST(COUNT(*) AS BIGINT) AS n
FROM det GROUP BY lang, detected_lang
"""


_ROBOTS_PATH_RE = r"^(?:https?://)?[^/]*(?P<path>/[^?#]*)"


def q_crawl_disallowed(sf_dir: str):
    """(host, n_urls, n_disallowed): crawl-politeness accounting — per
    host, how many of the corpus URLs a robots policy forbids. The
    policy is derived deterministically from the host (a stand-in for
    fetched robots.txt rules, derived identically in both engines):
    hosts with len%3==0 disallow /wp-* and /record/*, len%3==1
    disallow /page-*, the rest allow all; matching is Disallow-prefix
    semantics on the URL path. The pre-fetch politeness filter every
    crawler runs — and a pure bounded-host rollup: one RE2 pass,
    |hosts| partial rows per batch, no URL ever shuffles."""
    from ..stages.skew import HOST_RE

    pages = _pages_input(sf_dir).map_batches(
        synthesize_pages, batch_format="pyarrow"
    )

    def partial(b: pa.Table) -> pa.Table:
        url = b.column("url")
        if isinstance(url, pa.ChunkedArray):
            url = url.combine_chunks()
        host = pc.fill_null(
            pc.struct_field(pc.extract_regex(url, HOST_RE), "host"), ""
        )
        path = pc.fill_null(
            pc.struct_field(pc.extract_regex(url, _ROBOTS_PATH_RE), "path"),
            "",
        )
        hlen = pc.utf8_length(host).to_numpy(zero_copy_only=False)
        mod = hlen % 3
        dis0 = pc.or_(
            pc.starts_with(path, "/wp-"), pc.starts_with(path, "/record/")
        ).to_numpy(zero_copy_only=False)
        dis1 = pc.starts_with(path, "/page-").to_numpy(
            zero_copy_only=False
        )
        dis = np.where(mod == 0, dis0, np.where(mod == 1, dis1, False))
        keep = pc.not_equal(host, "").to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "host": host.filter(pa.array(keep)),
                "dis": pa.array(dis[keep].astype(np.int64), pa.int64()),
            }
        )
        g = t.group_by("host").aggregate([("dis", "sum"), ([], "count_all")])
        return pa.table(
            {
                "host": g.column("host"),
                "n_disallowed": pc.cast(g.column("dis_sum"), pa.int64()),
                "n_urls": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    res = rel.bounded_group_table_strict(
        pages.map_batches(partial, batch_format="pyarrow"),
        ["host"],
        [("n_disallowed", "sum"), ("n_urls", "sum")],
    )
    if res is None:
        return pa.table(
            {
                "host": pa.array([], pa.string()),
                "n_urls": pa.array([], pa.int64()),
                "n_disallowed": pa.array([], pa.int64()),
            }
        )
    return res.select(["host", "n_urls", "n_disallowed"])


def _sql_crawl_disallowed() -> str:
    from ..stages.skew import HOST_RE

    return f"""
WITH pages AS ({{pages}}),
h AS (
  SELECT regexp_extract(url, '{HOST_RE}', 1) AS host,
         regexp_extract(url, '{_ROBOTS_PATH_RE}', 1) AS path
  FROM pages
),
f AS (
  SELECT host,
    CASE
      WHEN length(host) % 3 = 0
        THEN (path LIKE '/wp-%' OR path LIKE '/record/%')
      WHEN length(host) % 3 = 1 THEN path LIKE '/page-%'
      ELSE FALSE
    END AS dis
  FROM h WHERE host IS NOT NULL AND host <> ''
)
SELECT host, CAST(COUNT(*) AS BIGINT) AS n_urls,
  CAST(SUM(CAST(dis AS INT)) AS BIGINT) AS n_disallowed
FROM f GROUP BY host
"""


def q_gate_url_flags(sf_dir: str):
    out = _gated(sf_dir)
    return out.select_columns(
        ["doc_id", "hit_dead_url_pattern", "hit_homepage_url",
         "hit_archive_url", "hit_shorthand_url"]
    )


SQL_GATE_URL = f"""
WITH pages AS ({{pages}})
SELECT doc_id,
  regexp_matches(url, '{DEAD_PATH_RE}') AS hit_dead_url_pattern,
  regexp_matches(url, '{HOMEPAGE_RE}') AS hit_homepage_url,
  regexp_matches(url, '{ARCHIVE_RE}') AS hit_archive_url,
  regexp_matches(url, '{SHORTHAND_RE}') AS hit_shorthand_url
FROM pages
"""


def q_gate_content_flags(sf_dir: str):
    out = _gated(sf_dir)
    return out.select_columns(
        ["doc_id", "hit_pii_email", "hit_pii_phone", "hit_pii_ip",
         "hit_toxicity", "hit_template_placeholder", "hit_bare_identifier",
         "scrubbed_text"]
    )


def _sql_gate_content() -> str:
    pats = {code: pat.replace("'", "''") for code, pat, _ in SCRUBS}
    doi = BARE_DOI_RE.replace("'", "''")
    return f"""
WITH pages AS ({{pages}})
SELECT doc_id,
  regexp_matches(text, '{pats["pii_email"]}') AS hit_pii_email,
  regexp_matches(text, '{pats["pii_phone"]}') AS hit_pii_phone,
  regexp_matches(text, '{pats["pii_ip"]}') AS hit_pii_ip,
  regexp_matches(text, '{pats["toxicity"]}') AS hit_toxicity,
  regexp_matches(text, '{PLACEHOLDER_RE}') AS hit_template_placeholder,
  (regexp_matches(text, '{doi}') OR regexp_matches(text, '{SWHID_RE}'))
    AS hit_bare_identifier,
  {_scrub_sql_expr("text")} AS scrubbed_text
FROM pages
"""


def q_gate_shape_lang_flags(sf_dir: str):
    out = _gated(sf_dir)
    return out.select_columns(
        ["doc_id", "n_tokens", "n_chars", "detected_lang",
         "hit_too_short", "hit_too_long", "hit_symbol_ratio_high",
         "hit_stopword_ratio_low", "hit_lang_mismatch"]
    )


SQL_GATE_SHAPE = f"""
WITH pages AS ({{pages}}),
{_FEAT_SQL}
SELECT doc_id, n_tokens, n_chars, detected_lang,
  (n_tokens > 0 AND n_tokens < 8 AND detected_lang != 'zh') AS hit_too_short,
  (n_tokens > 200000) AS hit_too_long,
  (n_chars > 0 AND CAST(symbol_chars AS DOUBLE) / CAST(greatest(n_chars, 1) AS DOUBLE) > 0.25)
    AS hit_symbol_ratio_high,
  (CASE
     WHEN detected_lang = 'en' THEN
       n_tokens >= 8 AND CAST(en_hits AS DOUBLE) / CAST(greatest(n_tokens_scan, 1) AS DOUBLE) < 0.05
     WHEN detected_lang = 'und' AND lang IN ('en','fr','es','de') THEN
       n_tokens >= 8 AND
       CAST(CASE WHEN lang = 'en' THEN en_hits ELSE 0 END AS DOUBLE)
         / CAST(greatest(n_tokens_scan, 1) AS DOUBLE) < 0.05
     ELSE FALSE
   END) AS hit_stopword_ratio_low,
  (lang IN ('en','fr','es','de','zh') AND detected_lang IN ('en','fr','es','de','zh')
   AND lang != detected_lang) AS hit_lang_mismatch
FROM det
"""


def q_gate_meta_flags(sf_dir: str):
    out = _gated(sf_dir)
    return out.select_columns(
        ["doc_id", "hit_local_file_license", "hit_citation_incomplete",
         "hit_license_no_version", "hit_author_count_mismatch",
         "hit_dual_license_untracked", "hit_requirement_no_version",
         "hit_identifier_not_id", "hit_status_url", "hit_version_mismatch"]
    )


def _sql_gate_meta() -> str:
    def m(pat: str) -> str:
        return f"regexp_matches(text, '{pat.replace(chr(39), chr(39) * 2)}')"

    # the \n-free named groups confuse nothing, but DuckDB's
    # regexp_matches has no group use anyway — strip the names
    authors = AUTHORS_LINE_RE.replace("(?P<v>", "(")
    contribs = CONTRIB_LINE_RE.replace("(?P<v>", "(")
    return f"""
WITH pages AS ({{pages}})
SELECT doc_id,
  ({m(LIC_LOCAL_RE)} AND NOT {m(LIC_URL_RE)}) AS hit_local_file_license,
  ({m(CITE_LINE_RE)} AND {m(BARE_DOI_RE)} AND NOT {m(CITE_DOI_RE)})
    AS hit_citation_incomplete,
  ({m(LIC_FAMILY_RE)} AND NOT {m(LIC_VERSIONED_RE)} AND NOT {m(LIC_EXEMPT_RE)})
    AS hit_license_no_version,
  ({m(authors)} AND {m(contribs)} AND
   len(regexp_extract_all(regexp_extract(text, '{authors.replace(chr(39), chr(39) * 2)}', 1), ','))
   != len(regexp_extract_all(regexp_extract(text, '{contribs.replace(chr(39), chr(39) * 2)}', 1), ',')))
    AS hit_author_count_mismatch,
  ({m(DUAL_LIC_RE)} AND NOT {m(MULTI_LIC_DECL_RE)}) AS hit_dual_license_untracked,
  {m(REQ_NOVER_RE)} AS hit_requirement_no_version,
  ({m(ID_LINE_RE)} AND NOT {m(ID_VALID_RE)} AND ({m(BARE_DOI_RE)} OR {m(URL_ANY_RE)}))
    AS hit_identifier_not_id,
  {m(STATUS_URL_RE)} AS hit_status_url,
  (regexp_matches(text, '(?m)^Version: [0-9]')
   AND regexp_matches(url, '/v\\d+(?:\\.\\d+)?/')
   AND regexp_extract(text, '(?m)^Version: ([0-9][0-9.]*)', 1)
       != regexp_extract(url, '/v(\\d+(?:\\.\\d+)?)/', 1))
    AS hit_version_mismatch
FROM pages
"""


def q_gate_decisions(sf_dir: str):
    out = _gated(sf_dir)
    return out.select_columns(
        ["doc_id", "url", "keep", "detected_lang", "n_tokens"]
    )


def q_gate_host_keep_rate(sf_dir: str):
    """(host, n_docs, n_kept, keep_rate): the full gate decision
    rolled up by url host — which hosts the gate is dropping, the
    first question a crawl-curation review asks (and the skew axis'
    natural consumer: a mega-host dominating drops is exactly what
    the salted aggregate exists for).

    Plan: the fused gate pipeline streams per-batch (host, n, kept)
    partials — in-batch Arrow group_by pre-combines, so per-batch rows
    are bounded by the batch's distinct hosts; the reduce runs under
    the bounded-reduce guard on the host domain; keep_rate is the
    single exact-int division the oracle writes."""
    from ..stages.skew import _extract_host

    out = _gated(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        url = b.column("url")
        if isinstance(url, pa.ChunkedArray):
            url = url.combine_chunks()
        t = pa.table(
            {
                "host": _extract_host(url),
                "kept": pc.cast(b.column("keep"), pa.int64()),
            }
        )
        g = t.group_by("host").aggregate([("kept", "sum"), ([], "count_all")])
        return g.rename_columns(["host", "n_kept", "n_docs"])

    tbl = rel.bounded_group_table_strict(
        out.map_batches(partial, batch_format="pyarrow"),
        ["host"],
        [("n_kept", "sum"), ("n_docs", "sum")],
    )
    empty = pa.table(
        {
            "host": pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "n_kept": pa.array([], pa.int64()),
            "keep_rate": pa.array([], pa.float64()),
        }
    )
    if tbl is None:
        return empty
    rows = sorted(
        zip(
            tbl.column("host").to_pylist(),
            tbl.column("n_docs").to_pylist(),
            tbl.column("n_kept").to_pylist(),
        )
    )
    return pa.table(
        {
            "host": pa.array([r[0] for r in rows], pa.string()),
            "n_docs": pa.array([r[1] for r in rows], pa.int64()),
            "n_kept": pa.array([r[2] for r in rows], pa.int64()),
            "keep_rate": pa.array(
                [float(r[2]) / float(r[1]) for r in rows], pa.float64()
            ),
        }
    )


def _sql_gate_host_keep_rate() -> str:
    from ..stages.skew import HOST_RE

    return f"""
SELECT regexp_extract(url, '{HOST_RE}', 1) AS host,
  CAST(COUNT(*) AS BIGINT) AS n_docs,
  CAST(SUM(CASE WHEN keep THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
  CAST(SUM(CASE WHEN keep THEN 1 ELSE 0 END) AS DOUBLE)
    / CAST(COUNT(*) AS DOUBLE) AS keep_rate
FROM (
{_sql_gate_decisions()}
)
GROUP BY 1
ORDER BY 1
"""


_DROP_NOLM_CODES = [
    "empty_text", "too_short", "too_long", "stopword_ratio_low",
    "symbol_ratio_high", "repetition", "boilerplate_only",
    "template_placeholder", "lang_mismatch", "dead_url_pattern",
]


def q_gate_rule_cooccurrence(sf_dir: str):
    """(rule_a, rule_b, n_both): for every unordered pair of the ten
    SQL-expressible drop rules (self pairs = the rule's own fire
    count), how many documents fire BOTH — the rule-redundancy matrix
    a catalog review reads before adding rule #31.

    Plan: the fused gate streams per-batch (10×10 int matmul) partial
    matrices — constant 55 rows per batch; the reduce is bounded by
    the rule-pair domain."""
    out = _gated(sf_dir)
    codes = list(_DROP_NOLM_CODES)

    def partial(b: pa.Table) -> pa.Table:
        m = np.stack(
            [
                b.column(f"hit_{c}").to_numpy(zero_copy_only=False)
                for c in codes
            ],
            axis=1,
        ).astype(np.int64)
        co = m.T @ m
        ra, rb, n = [], [], []
        for i in range(len(codes)):
            for j in range(i, len(codes)):
                ra.append(codes[i])
                rb.append(codes[j])
                n.append(int(co[i, j]))
        return pa.table(
            {
                "rule_a": pa.array(ra, pa.string()),
                "rule_b": pa.array(rb, pa.string()),
                "n_both": pa.array(n, pa.int64()),
            }
        )

    tbl = rel.bounded_group_table_strict(
        out.map_batches(partial, batch_format="pyarrow"),
        ["rule_a", "rule_b"],
        [("n_both", "sum")],
    )
    if tbl is None:
        return pa.table(
            {
                "rule_a": pa.array([], pa.string()),
                "rule_b": pa.array([], pa.string()),
                "n_both": pa.array([], pa.int64()),
            }
        )
    idx = pc.sort_indices(
        tbl, sort_keys=[("rule_a", "ascending"), ("rule_b", "ascending")]
    )
    return tbl.take(idx)


_SQL_HIT_ALIAS = {
    "stopword_ratio_low": "hit_stopword",
    "symbol_ratio_high": "hit_symbol",
    "template_placeholder": "hit_placeholder",
    "dead_url_pattern": "hit_dead_url",
}


def _sql_gate_rule_cooccurrence() -> str:
    pair_rows = []
    codes = list(_DROP_NOLM_CODES)
    for i, a in enumerate(codes):
        ca = _SQL_HIT_ALIAS.get(a, f"hit_{a}")
        for b in codes[i:]:
            cb = _SQL_HIT_ALIAS.get(b, f"hit_{b}")
            pair_rows.append(
                f"SELECT '{a}' AS rule_a, '{b}' AS rule_b,\n"
                f"  CAST(SUM(CASE WHEN {ca} AND {cb} THEN 1 ELSE 0"
                f" END) AS BIGINT) AS n_both FROM flags"
            )
    body = "\nUNION ALL\n".join(pair_rows)
    return f"""
WITH {_sql_gate_flags_ctes().strip()}
{body}
ORDER BY rule_a, rule_b
"""


def q_gate_rule_marginal(sf_dir: str):
    """(rule, n_hits, n_sole): for each SQL-expressible drop rule, how
    many documents it fires on and — the number a catalog review
    actually needs — how many it is the SOLE firing drop rule for
    (within the non-LM drop vector): remove the rule and exactly
    ``n_sole`` documents flip to keep (modulo the LM gate, which
    gate_decisions pins separately). A rule with large n_hits but
    n_sole≈0 is redundant; one with n_sole≫0 carries unique signal.

    Plan: constant |rules| partial rows per batch from the fused
    gate's hit columns (one row-sum + per-rule AND), bounded reduce."""
    out = _gated(sf_dir)
    codes = list(_DROP_NOLM_CODES)

    def partial(b: pa.Table) -> pa.Table:
        m = np.stack(
            [
                b.column(f"hit_{c}").to_numpy(zero_copy_only=False)
                for c in codes
            ],
            axis=1,
        ).astype(np.int64)
        fired = m.sum(axis=1)
        sole = (fired == 1)[:, None] & (m == 1)
        return pa.table(
            {
                "rule": pa.array(codes, pa.string()),
                "n_hits": pa.array(m.sum(axis=0), pa.int64()),
                "n_sole": pa.array(
                    sole.sum(axis=0).astype(np.int64), pa.int64()
                ),
            }
        )

    tbl = rel.bounded_group_table_strict(
        out.map_batches(partial, batch_format="pyarrow"),
        ["rule"],
        [("n_hits", "sum"), ("n_sole", "sum")],
    )
    if tbl is None or tbl.num_rows == 0:
        return pa.table(
            {
                "rule": pa.array([], pa.string()),
                "n_hits": pa.array([], pa.int64()),
                "n_sole": pa.array([], pa.int64()),
            }
        )
    return tbl.take(
        pc.sort_indices(tbl, sort_keys=[("rule", "ascending")])
    )


def _sql_gate_rule_marginal() -> str:
    codes = list(_DROP_NOLM_CODES)
    aliased = {c: _SQL_HIT_ALIAS.get(c, f"hit_{c}") for c in codes}
    fired = " + ".join(
        f"(CASE WHEN {aliased[c]} THEN 1 ELSE 0 END)" for c in codes
    )
    rows = []
    for c in codes:
        col = aliased[c]
        rows.append(
            f"SELECT '{c}' AS rule,\n"
            f"  CAST(SUM(CASE WHEN {col} THEN 1 ELSE 0 END) AS BIGINT)"
            f" AS n_hits,\n"
            f"  CAST(SUM(CASE WHEN {col} AND ({fired}) = 1 THEN 1 ELSE 0"
            f" END) AS BIGINT) AS n_sole FROM flags"
        )
    body = "\nUNION ALL\n".join(rows)
    return f"""
WITH {_sql_gate_flags_ctes().strip()}
{body}
ORDER BY rule
"""


def q_gate_drop_vector(sf_dir: str):
    """The flagship decision, oracle-checked: every drop rule EXCEPT
    the LM perplexity gate (genuinely non-SQL), plus the previously
    un-oracled hit columns (empty/repetition/boilerplate/multi-value/
    outdated). ``drop_nolm`` is the composite non-LM drop vector —
    rows where it's false and the LM doesn't fire are exactly the kept
    rows, so this pins the keep decision up to the one model rule."""
    out = _gated(sf_dir)

    def compose(b: pa.Table) -> pa.Table:
        acc = np.zeros(len(b), dtype=bool)
        for c in _DROP_NOLM_CODES:
            acc |= b.column(f"hit_{c}").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "hit_empty_text": b.column("hit_empty_text"),
                "hit_repetition": b.column("hit_repetition"),
                "hit_boilerplate_only": b.column("hit_boilerplate_only"),
                "hit_multi_value_field": b.column("hit_multi_value_field"),
                "hit_outdated_ts": b.column("hit_outdated_ts"),
                "drop_nolm": pa.array(acc),
            }
        )

    return out.map_batches(compose, batch_format="pyarrow")


def q_classifier_best_f1(sf_dir: str):
    """One row (threshold, tp, fp, fn, f1): the score_total threshold
    maximizing F1 of 'predict keep iff score ≥ t' against the fused
    gate's label — threshold selection, completing the evaluation
    family (AUC ranks, isotonic calibrates, conformal bounds, this
    picks the operating point). Candidate thresholds are the distinct
    scores; TP/FP/FN come from suffix sums of the bounded (score,
    label) contingency (exact ints), F1 = 2TP/(2TP+FP+FN) is ONE
    division of exact ints, and the argmax orders by (f1 DESC,
    threshold ASC) on those doubles — equal rationals round to equal
    doubles, so both engines pick the same row.

    Same distributed plan as gate_classifier_auc (shared contingency
    machinery); the sweep is O(domain) on the driver."""
    from .join import join
    from ..functions.classifier import classify_quality

    scores = classify_quality(_documents(sf_dir, ["doc_id", "text"])).map_batches(
        lambda b: b.select(["doc_id", "score_total"]),
        batch_format="pyarrow",
    )
    keep = _gated(sf_dir).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "kept": pc.cast(b.column("keep"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    j = join(scores, keep, on="doc_id", how="inner")

    def partial(b: pa.Table) -> pa.Table:
        g = b.select(["score_total", "kept"]).group_by(
            ["score_total", "kept"]
        ).aggregate([([], "count_all")])
        return pa.table(
            {
                "score_total": g.column("score_total"),
                "kept": g.column("kept"),
                "n": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    tbl = rel.bounded_group_table_strict(
        j.map_batches(partial, batch_format="pyarrow"),
        ["score_total", "kept"],
        [("n", "sum")],
    )
    empty = pa.table(
        {
            "threshold": pa.array([], pa.int64()),
            "tp": pa.array([], pa.int64()),
            "fp": pa.array([], pa.int64()),
            "fn": pa.array([], pa.int64()),
            "f1": pa.array([], pa.float64()),
        }
    )
    if tbl is None or tbl.num_rows == 0:
        return empty
    s = tbl.column("score_total").to_numpy(zero_copy_only=False)
    k = tbl.column("kept").to_numpy(zero_copy_only=False)
    n = tbl.column("n").to_numpy(zero_copy_only=False)
    order = np.argsort(s, kind="stable")
    s, k, n = s[order], k[order], n[order]
    uniq, start = np.unique(s, return_index=True)
    pos = np.add.reduceat(np.where(k == 1, n, 0), start)
    neg = np.add.reduceat(np.where(k == 0, n, 0), start)
    p_total = int(pos.sum())
    # suffix sums: predict keep iff score >= t
    tp = np.cumsum(pos[::-1])[::-1]
    fp = np.cumsum(neg[::-1])[::-1]
    fn = p_total - tp
    denom = 2 * tp + fp + fn
    with np.errstate(divide="ignore", invalid="ignore"):
        f1 = np.where(denom > 0, 2.0 * tp / denom, 0.0)
    best = np.lexsort((uniq, -f1))[0]
    return pa.table(
        {
            "threshold": pa.array([int(uniq[best])], pa.int64()),
            "tp": pa.array([int(tp[best])], pa.int64()),
            "fp": pa.array([int(fp[best])], pa.int64()),
            "fn": pa.array([int(fn[best])], pa.int64()),
            "f1": pa.array([float(f1[best])], pa.float64()),
        }
    )


def _sql_classifier_best_f1() -> str:
    return f"""
WITH {{flags_ctes}},
{{bpc_ctes}},
s AS ({_sql_quality_classifier()}),
keepd AS (
  SELECT f.doc_id, {{keep_expr}} AS keep
  FROM flags f JOIN bpc p USING (doc_id)
),
lab AS (
  SELECT s.score_total, CAST(k.keep AS INT) AS kept
  FROM s JOIN keepd k USING (doc_id)
),
h AS (
  SELECT score_total, SUM(kept) AS pos, SUM(1 - kept) AS neg
  FROM lab GROUP BY score_total
),
sw AS (
  SELECT score_total,
    SUM(pos) OVER (ORDER BY score_total
      ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS tp,
    SUM(neg) OVER (ORDER BY score_total
      ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS fp,
    (SELECT SUM(pos) FROM h) - SUM(pos) OVER (ORDER BY score_total
      ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS fn
  FROM h
),
scored_t AS (
  SELECT score_total, tp, fp, fn,
    CASE WHEN 2 * tp + fp + fn > 0
         THEN 2.0 * tp / (2 * tp + fp + fn) ELSE 0.0 END AS f1
  FROM sw
)
SELECT CAST(score_total AS BIGINT) AS threshold,
  CAST(tp AS BIGINT) AS tp, CAST(fp AS BIGINT) AS fp,
  CAST(fn AS BIGINT) AS fn, f1
FROM scored_t
QUALIFY row_number() OVER (ORDER BY f1 DESC, score_total) = 1
"""


_ALL_DROP_CODES = _DROP_NOLM_CODES + ["perplexity_high"]


def q_gate_rule_recovery(sf_dir: str):
    """(rule, n_fired, n_sole): for each of the gate's 11 drop rules,
    how many documents it fires on at all, and how many it is the
    SOLE reason for dropping — n_sole is exactly the number of
    documents relaxing that one rule would recover, the marginal-
    impact ranking a rule-tuning pass starts from (a rule with large
    n_fired but tiny n_sole is redundant with the rest of the gate).

    One pass over the fused gate's exposed hit vector: per-batch
    11×2 integer partials, |rules|-row reduce. The oracle re-derives
    every rule INCLUDING the trigram-LM perplexity gate (exported
    parameters, the gate_decisions pattern)."""
    from ray.data.aggregate import Sum

    out = _gated(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        n = len(b)
        hits = np.zeros((len(_ALL_DROP_CODES), n), dtype=bool)
        for i, c in enumerate(_ALL_DROP_CODES):
            hits[i] = b.column(f"hit_{c}").to_numpy(zero_copy_only=False)
        n_hits = hits.sum(axis=0)
        sole = hits & (n_hits == 1)[None, :]
        return pa.table(
            {
                "rule": pa.array(list(_ALL_DROP_CODES), pa.string()),
                "n_fired": pa.array(
                    hits.sum(axis=1).astype(np.int64), pa.int64()
                ),
                "n_sole": pa.array(
                    sole.sum(axis=1).astype(np.int64), pa.int64()
                ),
            }
        )

    return out.map_batches(partial, batch_format="pyarrow").groupby(
        "rule"
    ).aggregate(
        Sum("n_fired", alias_name="n_fired"),
        Sum("n_sole", alias_name="n_sole"),
    )


_RULE_EXAMPLES_K = 3


def q_gate_rule_examples(sf_dir: str):
    """(rule, doc_id): for each of the 11 drop rules, the
    {_RULE_EXAMPLES_K} lowest-doc_id documents it fires on — the
    'show me examples' debugging view a rule-tuning session opens
    with (deterministic, so the examples are stable across runs).
    Per-batch per-rule bottom-k prune (≤ 11·k rows per block), one
    |rules|-group merge."""
    out = _gated(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        dids = b.column("doc_id").to_numpy(zero_copy_only=False)
        rules, ids = [], []
        for c in _ALL_DROP_CODES:
            hit = b.column(f"hit_{c}").to_numpy(zero_copy_only=False)
            sel = np.sort(dids[hit])[:_RULE_EXAMPLES_K]
            rules.extend([c] * len(sel))
            ids.extend(sel.tolist())
        return pa.table(
            {
                "rule": pa.array(rules, pa.string()),
                "doc_id": pa.array(ids, pa.int64()),
            }
        )

    def merge(g: pa.Table) -> pa.Table:
        ids = np.sort(
            g.column("doc_id").to_numpy(zero_copy_only=False)
        )[:_RULE_EXAMPLES_K]
        return pa.table(
            {
                "rule": pa.array(
                    [g.column("rule")[0].as_py()] * len(ids), pa.string()
                ),
                "doc_id": pa.array(ids, pa.int64()),
            }
        )

    return out.map_batches(partial, batch_format="pyarrow").groupby(
        "rule"
    ).map_groups(merge, batch_format="pyarrow")


def _sql_gate_rule_examples() -> str:
    from ..config import DEFAULT_CONFIG as _cfg

    lm = (
        f"(f.n_tokens > 0 AND p.bits_per_char > {_cfg.max_bits_per_char!r})"
    )
    unions = []
    for code, expr in _SQL_RULE_EXPRS:
        unions.append(
            f"SELECT '{code}' AS rule, f.doc_id"
            f" FROM flags f JOIN bpc p USING (doc_id)"
            f" WHERE {expr.format(lm_expr=lm)}"
            f" QUALIFY row_number() OVER (ORDER BY f.doc_id)"
            f" <= {_RULE_EXAMPLES_K}"
        )
    return (
        "WITH {flags_ctes},\n{bpc_ctes}\n"
        + "\nUNION ALL\n".join(unions)
    )


# engine rule code -> the flags-CTE SQL expression for the same rule
_SQL_RULE_EXPRS = [
    ("empty_text", "f.hit_empty_text"),
    ("too_short", "f.hit_too_short"),
    ("too_long", "f.hit_too_long"),
    ("stopword_ratio_low", "f.hit_stopword"),
    ("symbol_ratio_high", "f.hit_symbol"),
    ("repetition", "f.hit_repetition"),
    ("boilerplate_only", "f.hit_boilerplate_only"),
    ("template_placeholder", "f.hit_placeholder"),
    ("lang_mismatch", "f.hit_lang_mismatch"),
    ("dead_url_pattern", "f.hit_dead_url"),
    ("perplexity_high", "{lm_expr}"),
]


def _sql_gate_rule_recovery() -> str:
    from ..config import DEFAULT_CONFIG as _cfg

    lm = (
        f"(f.n_tokens > 0 AND p.bits_per_char > {_cfg.max_bits_per_char!r})"
    )
    cols = []
    for i, (_code, expr) in enumerate(_SQL_RULE_EXPRS):
        cols.append(f"CAST({expr.format(lm_expr=lm)} AS INT) AS h{i}")
    hsum = " + ".join(f"h{i}" for i in range(len(_SQL_RULE_EXPRS)))
    unions = []
    for i, (code, _expr) in enumerate(_SQL_RULE_EXPRS):
        unions.append(
            f"SELECT '{code}' AS rule,"
            f" CAST(SUM(h{i}) AS BIGINT) AS n_fired,"
            f" CAST(SUM(CASE WHEN h{i} = 1 AND n_hits = 1 THEN 1 ELSE 0 END)"
            f" AS BIGINT) AS n_sole FROM wide"
        )
    return f"""
WITH {{flags_ctes}},
{{bpc_ctes}},
base AS (
  SELECT f.doc_id, {', '.join(cols)}
  FROM flags f JOIN bpc p USING (doc_id)
),
wide AS (SELECT *, {hsum} AS n_hits FROM base)
{' UNION ALL '.join(unions)}
"""


def q_gate_classifier_calibration(sf_dir: str):
    """(bin, n_docs, n_kept, keep_rate): the full gate's keep rate
    within each quality-classifier quartile — the calibration table
    linking the repo's two quality systems (a sane lexicon classifier
    should see keep_rate rise with bin; a flat column means the
    classifier adds nothing over the rule gate).

    Plan: composes ``quality_bins`` (classifier histogram pass +
    broadcast cutpoints) with the fused gate through the generic
    ``join()`` on doc_id — both sides ship 16 B/row projections, the
    join routes broadcast vs co-partitioned by the size gates, and the
    contingency reduce is bounded by 4 bins; keep_rate is the single
    exact-int division the oracle writes."""
    from .join import join

    bins = q_quality_bins(sf_dir).map_batches(
        lambda b: pa.table(
            {"doc_id": b.column("doc_id"), "bin": b.column("bin")}
        ),
        batch_format="pyarrow",
    )
    keep = _gated(sf_dir).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "kept": pc.cast(b.column("keep"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    j = join(bins, keep, on="doc_id", how="inner")

    def partial(b: pa.Table) -> pa.Table:
        g = b.select(["bin", "kept"]).group_by("bin").aggregate(
            [("kept", "sum"), ([], "count_all")]
        )
        g = g.rename_columns(["bin", "n_kept", "n_docs"])
        return pa.table(
            {
                "bin": g.column("bin"),
                "n_kept": pc.cast(g.column("n_kept"), pa.int64()),
                "n_docs": pc.cast(g.column("n_docs"), pa.int64()),
            }
        )

    tbl = rel.bounded_group_table_strict(
        j.map_batches(partial, batch_format="pyarrow"),
        ["bin"],
        [("n_kept", "sum"), ("n_docs", "sum")],
    )
    empty = pa.table(
        {
            "bin": pa.array([], pa.int64()),
            "n_docs": pa.array([], pa.int64()),
            "n_kept": pa.array([], pa.int64()),
            "keep_rate": pa.array([], pa.float64()),
        }
    )
    if tbl is None:
        return empty
    rows = sorted(
        zip(
            tbl.column("bin").to_pylist(),
            tbl.column("n_docs").to_pylist(),
            tbl.column("n_kept").to_pylist(),
        )
    )
    return pa.table(
        {
            "bin": pa.array([r[0] for r in rows], pa.int64()),
            "n_docs": pa.array([r[1] for r in rows], pa.int64()),
            "n_kept": pa.array([r[2] for r in rows], pa.int64()),
            "keep_rate": pa.array(
                [float(r[2]) / float(r[1]) for r in rows], pa.float64()
            ),
        }
    )


def _auc_from_contingency(
    s: np.ndarray, k: np.ndarray, n: np.ndarray
) -> tuple[int, int, int, float]:
    """Exact tie-corrected Mann–Whitney AUC from (score, label, count)
    contingency rows: u2 = Σ_s pos_s·(2·cum_neg_below + neg_s) (the ½
    tie convention, ×2 to stay integer), auc = u2 / (2·P·N)."""
    order = np.argsort(s, kind="stable")
    s, k, n = s[order], k[order], n[order]
    _, start = np.unique(s, return_index=True)
    pos = np.add.reduceat(np.where(k == 1, n, 0), start)
    neg = np.add.reduceat(np.where(k == 0, n, 0), start)
    cum_neg_below = np.concatenate([[0], np.cumsum(neg)[:-1]])
    u2 = int(np.sum(pos * (2 * cum_neg_below + neg)))
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    auc = float(u2) / float(2 * n_pos * n_neg) if n_pos and n_neg else 0.0
    return n_pos, n_neg, u2, auc


def q_gate_classifier_auc(sf_dir: str):
    """One row (n_pos, n_neg, u2, auc): the EXACT ROC-AUC of the
    quality classifier's integer score against the fused gate's
    keep/drop label — the discrimination summary behind
    ``gate_classifier_calibration``'s quartile table (AUC 0.5 = the
    classifier cannot tell kept from dropped pages; 1.0 = perfect
    separation). Mann–Whitney rank-sum form with the tie-correct ½
    convention, scaled ×2 so every intermediate is an int64:
    u2 = Σ_s pos_s · (2·cum_neg_below(s) + neg_s), auc = u2 / (2·P·N)
    — the only float op is that final division of exact integers, so
    the oracle is bit-identical.

    Plan: classifier scores and gate labels join through the
    size-gated generic join (16 B/row projections both sides); the
    (score, label) contingency folds per batch into Arrow group_by
    partials and reduces on the BOUNDED quantized-score domain (the
    quality_bins discipline); the rank-sum walk is O(domain) on the
    driver."""
    from .join import join
    from ..functions.classifier import classify_quality

    scores = classify_quality(_documents(sf_dir, ["doc_id", "text"])).map_batches(
        lambda b: b.select(["doc_id", "score_total"]),
        batch_format="pyarrow",
    )
    keep = _gated(sf_dir).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "kept": pc.cast(b.column("keep"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    j = join(scores, keep, on="doc_id", how="inner")

    def partial(b: pa.Table) -> pa.Table:
        g = b.select(["score_total", "kept"]).group_by(
            ["score_total", "kept"]
        ).aggregate([([], "count_all")])
        return pa.table(
            {
                "score_total": g.column("score_total"),
                "kept": g.column("kept"),
                "n": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    tbl = rel.bounded_group_table_strict(
        j.map_batches(partial, batch_format="pyarrow"),
        ["score_total", "kept"],
        [("n", "sum")],
    )
    if tbl is None or tbl.num_rows == 0:
        return pa.table(
            {
                "n_pos": pa.array([0], pa.int64()),
                "n_neg": pa.array([0], pa.int64()),
                "u2": pa.array([0], pa.int64()),
                "auc": pa.array([0.0], pa.float64()),
            }
        )
    n_pos, n_neg, u2, auc = _auc_from_contingency(
        tbl.column("score_total").to_numpy(zero_copy_only=False),
        tbl.column("kept").to_numpy(zero_copy_only=False),
        tbl.column("n").to_numpy(zero_copy_only=False),
    )
    return pa.table(
        {
            "n_pos": pa.array([n_pos], pa.int64()),
            "n_neg": pa.array([n_neg], pa.int64()),
            "u2": pa.array([u2], pa.int64()),
            "auc": pa.array([auc], pa.float64()),
        }
    )


def _sql_gate_classifier_auc() -> str:
    return f"""
WITH {{flags_ctes}},
{{bpc_ctes}},
s AS ({_sql_quality_classifier()}),
keepd AS (
  SELECT f.doc_id, {{keep_expr}} AS keep
  FROM flags f JOIN bpc p USING (doc_id)
),
lab AS (
  SELECT s.score_total, CAST(k.keep AS INT) AS kept
  FROM s JOIN keepd k USING (doc_id)
),
tot AS (SELECT SUM(kept) AS np, SUM(1 - kept) AS nn FROM lab),
h AS (
  SELECT score_total, SUM(kept) AS pos, SUM(1 - kept) AS neg
  FROM lab GROUP BY score_total
),
c AS (
  SELECT pos, neg,
    COALESCE(SUM(neg) OVER (
      ORDER BY score_total
      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
    ), 0) AS cum_neg
  FROM h
),
u AS (SELECT SUM(pos * (2 * cum_neg + neg)) AS u2 FROM c)
SELECT CAST(tot.np AS BIGINT) AS n_pos,
  CAST(tot.nn AS BIGINT) AS n_neg,
  CAST(COALESCE(u.u2, 0) AS BIGINT) AS u2,
  CASE WHEN tot.np * tot.nn = 0 THEN 0.0
       ELSE CAST(u.u2 AS DOUBLE) / CAST(2 * tot.np * tot.nn AS DOUBLE)
  END AS auc
FROM tot, u
"""


_ISO_MAX_DOMAIN = 20_000


def q_gate_isotonic_calibration(sf_dir: str):
    """(score_total, n_docs, n_kept, iso_rate): ISOTONIC regression of
    the gate's keep rate on the classifier score — the monotone
    calibration curve (raw per-score keep rates are noisy and
    non-monotone; isotonic pooling is how a score becomes a usable
    keep-probability). Computed by the closed-form min-max identity
    iso(i) = max_{j≤i} min_{k≥j} rate(j..k) over the bounded score
    domain — NOT sequential PAVA — so the oracle evaluates the exact
    same O(m²) formula and every float is the same division of exact
    int64 prefix sums (MIN/MAX are order-free). Domain cap
    {_ISO_MAX_DOMAIN} (m² work) raises explicitly past it.

    Same distributed plan as gate_classifier_auc: one generic join of
    16 B/row projections, per-batch contingency partials, bounded
    reduce; the m² solve is driver-side numpy."""
    from .join import join
    from ..functions.classifier import classify_quality

    scores = classify_quality(_documents(sf_dir, ["doc_id", "text"])).map_batches(
        lambda b: b.select(["doc_id", "score_total"]),
        batch_format="pyarrow",
    )
    keep = _gated(sf_dir).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "kept": pc.cast(b.column("keep"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    j = join(scores, keep, on="doc_id", how="inner")

    def partial(b: pa.Table) -> pa.Table:
        g = b.select(["score_total", "kept"]).group_by("score_total").aggregate(
            [("kept", "sum"), ([], "count_all")]
        )
        return pa.table(
            {
                "score_total": g.column("score_total"),
                "nk": pc.cast(g.column("kept_sum"), pa.int64()),
                "n": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    tbl = rel.bounded_group_table_strict(
        j.map_batches(partial, batch_format="pyarrow"),
        ["score_total"],
        [("nk", "sum"), ("n", "sum")],
    )
    empty = pa.table(
        {
            "score_total": pa.array([], pa.int64()),
            "n_docs": pa.array([], pa.int64()),
            "n_kept": pa.array([], pa.int64()),
            "iso_rate": pa.array([], pa.float64()),
        }
    )
    if tbl is None or tbl.num_rows == 0:
        return empty
    s = tbl.column("score_total").to_numpy(zero_copy_only=False)
    nk = tbl.column("nk").to_numpy(zero_copy_only=False)
    n = tbl.column("n").to_numpy(zero_copy_only=False)
    order = np.argsort(s)
    s, nk, n = s[order], nk[order], n[order]
    m = len(s)
    if m > _ISO_MAX_DOMAIN:
        raise ValueError(
            f"isotonic domain {m} > {_ISO_MAX_DOMAIN}: the m² min-max "
            "solve needs a coarser score quantization first"
        )
    ck = np.cumsum(nk)
    cn = np.cumsum(n)
    # rate(j..k) = (ck[k]-ck[j-1]) / (cn[k]-cn[j-1]) for j<=k — one
    # (m, m) outer-difference matrix, masked below the diagonal
    kk = ck[None, :] - np.concatenate([[0], ck[:-1]])[:, None]
    nn = cn[None, :] - np.concatenate([[0], cn[:-1]])[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = kk.astype(np.float64) / nn.astype(np.float64)
    r[np.tril_indices(m, -1)] = np.inf  # k < j: excluded from the min
    rowmin = r.min(axis=1)
    iso = np.maximum.accumulate(rowmin)
    return pa.table(
        {
            "score_total": pa.array(s, pa.int64()),
            "n_docs": pa.array(n, pa.int64()),
            "n_kept": pa.array(nk, pa.int64()),
            "iso_rate": pa.array(iso, pa.float64()),
        }
    )


def q_source_classifier_auc(sf_dir: str):
    """(source, n_pos, n_neg, u2, auc): the gate_classifier_auc
    discrimination summary PER SOURCE — AUC heterogeneity across
    sources is the signal that a single global classifier threshold
    misserves some crawls (the per-group fairness slice every filter
    audit reports). Same plan with `source` riding the contingency:
    bounded (source × score × label) reduce, O(domain) rank-sum walks
    per source on the driver."""
    from .join import join
    from ..functions.classifier import classify_quality

    scores = classify_quality(_documents(sf_dir, ["doc_id", "text"])).map_batches(
        lambda b: b.select(["doc_id", "score_total"]),
        batch_format="pyarrow",
    )
    src = _documents(sf_dir, ["doc_id", "source"])
    keep = _gated(sf_dir).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "kept": pc.cast(b.column("keep"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    j = join(join(scores, src, on="doc_id", how="inner"), keep,
             on="doc_id", how="inner")

    def partial(b: pa.Table) -> pa.Table:
        g = b.select(["source", "score_total", "kept"]).group_by(
            ["source", "score_total", "kept"]
        ).aggregate([([], "count_all")])
        return pa.table(
            {
                "source": g.column("source"),
                "score_total": g.column("score_total"),
                "kept": g.column("kept"),
                "n": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    tbl = rel.bounded_group_table_strict(
        j.map_batches(partial, batch_format="pyarrow"),
        ["source", "score_total", "kept"],
        [("n", "sum")],
    )
    empty = pa.table(
        {
            "source": pa.array([], pa.string()),
            "n_pos": pa.array([], pa.int64()),
            "n_neg": pa.array([], pa.int64()),
            "u2": pa.array([], pa.int64()),
            "auc": pa.array([], pa.float64()),
        }
    )
    if tbl is None or tbl.num_rows == 0:
        return empty
    srcs = np.asarray(tbl.column("source").to_pylist(), dtype=object)
    s = tbl.column("score_total").to_numpy(zero_copy_only=False)
    k = tbl.column("kept").to_numpy(zero_copy_only=False)
    n = tbl.column("n").to_numpy(zero_copy_only=False)
    out = {"source": [], "n_pos": [], "n_neg": [], "u2": [], "auc": []}
    for src_name in sorted(set(srcs.tolist())):
        m = srcs == src_name
        np_, nn_, u2_, auc_ = _auc_from_contingency(s[m], k[m], n[m])
        out["source"].append(src_name)
        out["n_pos"].append(np_)
        out["n_neg"].append(nn_)
        out["u2"].append(u2_)
        out["auc"].append(auc_)
    return pa.table(
        {
            "source": pa.array(out["source"], pa.string()),
            "n_pos": pa.array(out["n_pos"], pa.int64()),
            "n_neg": pa.array(out["n_neg"], pa.int64()),
            "u2": pa.array(out["u2"], pa.int64()),
            "auc": pa.array(out["auc"], pa.float64()),
        }
    )


def _sql_source_classifier_auc() -> str:
    return f"""
WITH {{flags_ctes}},
{{bpc_ctes}},
s AS ({_sql_quality_classifier()}),
keepd AS (
  SELECT f.doc_id, {{keep_expr}} AS keep
  FROM flags f JOIN bpc p USING (doc_id)
),
lab AS (
  SELECT d.source, s.score_total, CAST(k.keep AS INT) AS kept
  FROM s
  JOIN documents d ON d.doc_id = s.doc_id
  JOIN keepd k ON k.doc_id = s.doc_id
),
tot AS (
  SELECT source, SUM(kept) AS np, SUM(1 - kept) AS nn
  FROM lab GROUP BY source
),
h AS (
  SELECT source, score_total, SUM(kept) AS pos, SUM(1 - kept) AS neg
  FROM lab GROUP BY source, score_total
),
c AS (
  SELECT source, pos, neg,
    COALESCE(SUM(neg) OVER (
      PARTITION BY source ORDER BY score_total
      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
    ), 0) AS cum_neg
  FROM h
),
u AS (
  SELECT source, SUM(pos * (2 * cum_neg + neg)) AS u2
  FROM c GROUP BY source
)
SELECT t.source, CAST(t.np AS BIGINT) AS n_pos,
  CAST(t.nn AS BIGINT) AS n_neg,
  CAST(COALESCE(u.u2, 0) AS BIGINT) AS u2,
  CASE WHEN t.np * t.nn = 0 THEN 0.0
       ELSE CAST(u.u2 AS DOUBLE) / CAST(2 * t.np * t.nn AS DOUBLE)
  END AS auc
FROM tot t JOIN u ON u.source = t.source
"""


def _sql_gate_isotonic_calibration() -> str:
    return """
WITH {flags_ctes},
{bpc_ctes},
s AS (""" + _sql_quality_classifier() + """),
keepd AS (
  SELECT f.doc_id, {keep_expr} AS keep
  FROM flags f JOIN bpc p USING (doc_id)
),
lab AS (
  SELECT s.score_total, CAST(k.keep AS INT) AS kept
  FROM s JOIN keepd k USING (doc_id)
),
h AS (
  SELECT score_total, CAST(SUM(kept) AS BIGINT) AS nk,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM lab GROUP BY score_total
),
p AS (
  SELECT score_total, nk, n,
    SUM(nk) OVER (ORDER BY score_total) AS ck,
    SUM(n) OVER (ORDER BY score_total) AS cn
  FROM h
),
jk AS (
  SELECT pj.score_total AS sj,
    CAST(pk.ck - (pj.ck - pj.nk) AS DOUBLE)
      / CAST(pk.cn - (pj.cn - pj.n) AS DOUBLE) AS r
  FROM p pj JOIN p pk ON pk.score_total >= pj.score_total
),
rowmin AS (SELECT sj, MIN(r) AS rmin FROM jk GROUP BY sj)
SELECT p.score_total, p.n AS n_docs, p.nk AS n_kept,
  (SELECT MAX(rm.rmin) FROM rowmin rm WHERE rm.sj <= p.score_total)
    AS iso_rate
FROM p
"""


def _sql_gate_classifier_calibration() -> str:
    inds = " + ".join(
        f"CAST(s.score_total >= c.c{i} AS INT)" for i in range(len(_BIN_QS))
    )
    cs = ", ".join(
        f"quantile_disc(score_total, {q}) AS c{i}"
        for i, q in enumerate(_BIN_QS)
    )
    return f"""
WITH {{flags_ctes}},
{{bpc_ctes}},
s AS ({_sql_quality_classifier()}),
cut AS (SELECT {cs} FROM s),
bins AS (
  SELECT s.doc_id, CAST({inds} AS BIGINT) AS bin FROM s, cut c
),
keepd AS (
  SELECT f.doc_id, {{keep_expr}} AS keep
  FROM flags f JOIN bpc p USING (doc_id)
)
SELECT b.bin, CAST(COUNT(*) AS BIGINT) AS n_docs,
  CAST(SUM(CAST(k.keep AS INT)) AS BIGINT) AS n_kept,
  CAST(SUM(CAST(k.keep AS INT)) AS DOUBLE)
    / CAST(COUNT(*) AS DOUBLE) AS keep_rate
FROM bins b JOIN keepd k USING (doc_id)
GROUP BY b.bin
ORDER BY b.bin
"""


_DROP_NOLM_EXPR = (
    "(hit_empty_text OR hit_too_short OR hit_too_long OR hit_stopword"
    " OR hit_symbol OR hit_repetition OR hit_boilerplate_only"
    " OR hit_placeholder OR hit_lang_mismatch OR hit_dead_url)"
)


def _sql_gate_flags_ctes() -> str:
    """The shared CTE chain (pages → feat/det → rep/rep2 → flags) that
    re-derives every non-LM drop rule independently in SQL; used by both
    the ``gate_drop_vector`` and ``gate_decisions`` oracles."""
    from ..stages.rules import (
        COPYRIGHT_RE,
        MULTI_VALUE_RE,
        NAV_RE,
    )

    def esc(p: str) -> str:
        return p.replace("'", "''")

    stopword = """
  (CASE
     WHEN detected_lang = 'en' THEN
       n_tokens >= 8 AND CAST(en_hits AS DOUBLE) / CAST(greatest(n_tokens_scan, 1) AS DOUBLE) < 0.05
     WHEN detected_lang = 'und' AND lang IN ('en','fr','es','de') THEN
       n_tokens >= 8 AND
       CAST(CASE WHEN lang = 'en' THEN en_hits ELSE 0 END AS DOUBLE)
         / CAST(greatest(n_tokens_scan, 1) AS DOUBLE) < 0.05
     ELSE FALSE
   END)"""
    lang_mismatch = """
  (lang IN ('en','fr','es','de','zh') AND detected_lang IN ('en','fr','es','de','zh')
   AND lang != detected_lang)"""
    # repetition mirrors functions/tokenize.ws_token_stats exactly:
    # \S+ tokens, first 512 after the >=4 check, adjacent-pair
    # histogram max over (len-1), dup-line fraction over \n lines
    return f"""
pages AS ({{pages}}),
{_FEAT_SQL.strip()},
rep AS (
  SELECT doc_id,
    regexp_extract_all(text, '\\S+')[1:512] AS t,
    len(regexp_extract_all(text, '\\S+')) AS ntok_full,
    string_split(text, chr(10)) AS lines,
    text AS rtext
  FROM pages
),
rep2 AS (
  SELECT doc_id,
    CASE WHEN ntok_full >= 4 THEN
      CAST(list_max(map_values(list_aggregate(
        list_transform(list_zip(t[1:len(t)-1], t[2:len(t)]),
                       x -> x[1] || ' ' || x[2]),
        'histogram'))) AS DOUBLE) / (len(t) - 1)
    ELSE 0.0 END AS top_bigram_frac,
    CASE WHEN rtext = '' THEN 0 ELSE len(lines) END AS n_lines,
    CASE WHEN len(lines) > 1
         THEN 1.0 - CAST(len(list_distinct(lines)) AS DOUBLE) / len(lines)
         ELSE 0.0 END AS dup_line_frac
  FROM rep
),
flags AS (
  SELECT d.doc_id, d.url, d.detected_lang, d.n_tokens,
    (d.n_tokens = 0) AS hit_empty_text,
    (d.n_tokens > 0 AND d.n_tokens < 8 AND d.detected_lang != 'zh') AS hit_too_short,
    (d.n_tokens > 200000) AS hit_too_long,
    {stopword} AS hit_stopword,
    (d.n_chars > 0 AND CAST(d.symbol_chars AS DOUBLE) / CAST(greatest(d.n_chars, 1) AS DOUBLE) > 0.25)
      AS hit_symbol,
    (r.top_bigram_frac > 0.20 OR (r.n_lines >= 4 AND r.dup_line_frac > 0.50))
      AS hit_repetition,
    (d.n_tokens > 0 AND r.n_lines <= 3 AND
     (regexp_matches(d.text, '{esc(COPYRIGHT_RE)}') OR regexp_matches(d.text, '{esc(NAV_RE)}')))
      AS hit_boilerplate_only,
    regexp_matches(d.text, '{esc(PLACEHOLDER_RE)}') AS hit_placeholder,
    {lang_mismatch} AS hit_lang_mismatch,
    regexp_matches(d.url, '{esc(DEAD_PATH_RE)}') AS hit_dead_url,
    coalesce(regexp_matches(d.lang, '{esc(MULTI_VALUE_RE)}'), FALSE)
      AS hit_multi_value_field,
    coalesce(
      abs(epoch_us(d.warc_ts) - epoch_us(try_strptime(
        regexp_extract(d.text, 'Last updated: (\\d{{4}}-\\d{{2}}-\\d{{2}})', 1),
        '%Y-%m-%d'))) / 86400000000.0 > 1.0, FALSE) AS hit_outdated_ts
  FROM det d JOIN rep2 r USING (doc_id)
)"""


def _sql_gate_drop_vector() -> str:
    return f"""
WITH {_sql_gate_flags_ctes().strip()}
SELECT doc_id, hit_empty_text, hit_repetition, hit_boilerplate_only,
  hit_multi_value_field, hit_outdated_ts,
  {_DROP_NOLM_EXPR} AS drop_nolm
FROM flags
"""


# --- gate_decisions oracle: keep = NOT(drop_nolm OR perplexity_high) -------
# The LM half is re-derived INDEPENDENTLY by DuckDB: oracle generation
# exports the trigram model's PARAMETERS (byte→symbol map + the exact
# per-trigram float32 bit costs, stages/perplexity.py) to parquet, and
# the SQL recomputes each document's bits_per_char from raw text via
# hex-pair byte extraction + window trigrams — a true differential of
# the whole keep decision, not an echo of engine output. Summation
# order may differ from the engine's reduceat at ~1e-12 relative, far
# inside the calibrated margin (keep rows ≤2.6, gibberish ≥8.5 bits
# vs the 5.0 threshold), so the thresholded decision is exact.

_LM_EXPORT_DIR = "/tmp/rsmetacheck_lm_oracle"


def _ensure_lm_export() -> str:
    """Write the perplexity LM's parameters as parquet for DuckDB:
    ``byte_sym.parquet`` (256 rows: uppercase hex pair → 6-bit symbol)
    and ``lm_bits.parquet`` (64³ rows: trigram code → float64 bit cost
    = widen(float32(-(logp3[c] - logp2[c >> 6])))), matching the
    engine's float32 gather-subtract bit-for-bit."""
    import pyarrow.parquet as pq

    from ..stages.perplexity import _BYTE_CODE, _NSYM, PerplexityScorer

    bits_path = os.path.join(_LM_EXPORT_DIR, "lm_bits.parquet")
    pair_path = os.path.join(_LM_EXPORT_DIR, "byte_sym.parquet")
    # rewrite once per process (atomic replace), NOT if-exists: stale
    # files from an older build of the LM must never feed the oracle
    if getattr(_ensure_lm_export, "_done", False):
        return _LM_EXPORT_DIR
    os.makedirs(_LM_EXPORT_DIR, exist_ok=True)
    prev_cpus = pa.cpu_count()
    try:
        sc = PerplexityScorer()  # deterministic; process-memoized
    finally:
        pa.set_cpu_count(prev_cpus)  # scorer init throttles the pool
    codes = np.arange(_NSYM**3, dtype=np.int64)
    bits = (-(sc.logp3[codes] - sc.logp2[codes >> 6])).astype(np.float64)
    # per-writer-unique tmp names: os.replace is only atomic if no
    # other process is writing the same tmp path (pytest-xdist / a
    # concurrent driver gate would interleave a shared ".tmp")
    suffix = f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    tmp = bits_path + suffix
    pq.write_table(
        pa.table({"code": pa.array(codes), "bits": pa.array(bits)}), tmp
    )
    os.replace(tmp, bits_path)
    tmp = pair_path + suffix
    pq.write_table(
        pa.table(
            {
                "pair": pa.array([f"{b:02X}" for b in range(256)], pa.string()),
                "sym": pa.array(_BYTE_CODE.astype(np.int64)),
            }
        ),
        tmp,
    )
    os.replace(tmp, pair_path)
    _ensure_lm_export._done = True
    return _LM_EXPORT_DIR


def _sql_bpc_ctes() -> str:
    """The LM half of the keep oracle (bpc_in → sym → tri → doc_bits →
    bpc over the ``pages`` CTE), shared by the gate_decisions and
    gate_then_dedup oracles. Triggers the one-time LM parameter export."""
    from ..config import DEFAULT_CONFIG as _cfg

    d = _ensure_lm_export()
    scan = _cfg.ppl_scan_chars
    return f"""
bpc_in AS (
  SELECT doc_id, hex(encode(substr(text, 1, {scan}))) AS h,
         octet_length(encode(substr(text, 1, {scan}))) AS nb
  FROM pages
),
sym AS (
  SELECT p.doc_id, p.i, bs.sym
  FROM (
    SELECT doc_id, h, unnest(generate_series(1, nb)) AS i
    FROM bpc_in WHERE nb > 0
  ) p JOIN '{d}/byte_sym.parquet' bs ON bs.pair = substr(p.h, 2 * p.i - 1, 2)
),
tri AS (
  SELECT doc_id,
    sym * {64 * 64} + lead(sym, 1) OVER w * 64 + lead(sym, 2) OVER w AS code
  FROM sym WINDOW w AS (PARTITION BY doc_id ORDER BY i)
),
doc_bits AS (
  SELECT t.doc_id, sum(b.bits) AS total
  FROM tri t JOIN '{d}/lm_bits.parquet' b ON b.code = t.code
  GROUP BY t.doc_id
),
bpc AS (
  SELECT bi.doc_id,
    CASE WHEN bi.nb >= 3
         THEN coalesce(db.total, 0) / CAST(bi.nb - 2 AS DOUBLE)
         ELSE 0.0 END AS bits_per_char
  FROM bpc_in bi LEFT JOIN doc_bits db USING (doc_id)
)"""


def _sql_keep_expr() -> str:
    from ..config import DEFAULT_CONFIG as _cfg

    return (
        f"NOT ({_DROP_NOLM_EXPR}\n"
        f"       OR (f.n_tokens > 0 AND p.bits_per_char > "
        f"{_cfg.max_bits_per_char!r}))"
    )


def _sql_gate_decisions() -> str:
    return f"""
WITH {_sql_gate_flags_ctes().strip()},
{_sql_bpc_ctes().strip()}
SELECT f.doc_id, f.url, f.detected_lang, f.n_tokens,
  {_sql_keep_expr()} AS keep
FROM flags f JOIN bpc p USING (doc_id)
"""


# curation threshold: mean lexicon score ≥ −0.8 (the documents table
# is synthetic word salad, so absolute scores sit below the gate
# corpus's threshold; cross-multiplied ints keep it exact)
_CURATE_TH_NUM, _CURATE_TH_DEN = -4, 5

# quality-bin edges as exact fractions (num, den): mean score ≥ num/den
# ⇒ the doc clears that edge; bin = number of edges cleared (0..4).
# Cross-multiplied integer comparisons — no float boundary on either
# side.
_QBIN_EDGES = [(-6, 5), (-4, 5), (-2, 5), (0, 5)]


_BP_TOP_K = 25
_BP_MIN_DOCS = 3
_BP_FOOTER = "\ncookies accepted by continuing\nall rights reserved footer"
_BP_BANNER = "\nsubscribe to our newsletter today"


def q_top_boilerplate_lines(sf_dir: str):
    """(line, n_docs): the {_BP_TOP_K} exact text LINES appearing in
    the most distinct documents (≥{_BP_MIN_DOCS} docs) — the table a
    C4-style boilerplate scrub list is BUILT from (cookie banners,
    nav footers, share buttons all surface here before anyone writes
    a regex). Distinct-doc counting (a line repeated inside one page
    is that page's problem, not boilerplate).

    Plan: per-batch line split + local (line, doc) dedupe →
    (line-hash-keyed) count shuffle of small rows carrying the line
    once per batch → global top-k by local prune + one bounded merge.
    Ties → line ASC, identically in the oracle."""
    ds = _documents(sf_dir, ["doc_id", "text"])

    def lines(b: pa.Table) -> pa.Table:
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        text = pc.fill_null(text, "")
        # planted boilerplate (mirrored in the oracle): the synthetic
        # corpus has no newlines at all, so residue classes append the
        # footer/banner lines a real crawl drags along — the table
        # must rediscover exactly these
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        glue = pa.array(
            np.select(
                [ids % 3 == 0, ids % 7 == 2],
                [_BP_FOOTER, _BP_BANNER],
                "",
            ),
            pa.string(),
        )
        text = pc.binary_join_element_wise(text, glue, "")
        split = pc.split_pattern(text, "\n")
        offs = split.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = split.flatten()
        doc_idx = np.repeat(
            np.arange(len(b), dtype=np.int64), np.diff(offs)
        )
        vals = flat.to_pylist()
        seen = set()
        out_line, out_doc = [], []
        for d, ln in zip(doc_idx.tolist(), vals):
            ln = ln.strip(' ')  # DuckDB trim() strips SPACES only
            if not ln:
                continue
            key = (d, ln)
            if key in seen:
                continue
            seen.add(key)
            out_line.append(ln)
            out_doc.append(1)
        t = pa.table(
            {
                "line": pa.array(out_line, pa.string()),
                "n_docs": pa.array(out_doc, pa.int64()),
            }
        )
        g = t.group_by("line").aggregate([("n_docs", "sum")])
        return g.rename_columns(["line", "n_docs"])

    counted = (
        ds.map_batches(lines, batch_format="pyarrow")
        .groupby("line")
        .sum("n_docs")
        .map_batches(
            lambda b: pa.table(
                {
                    "line": b.column("line"),
                    "n_docs": pc.cast(
                        b.column("sum(n_docs)"), pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )

    def prune(b: pa.Table) -> pa.Table:
        n = b.column("n_docs").to_numpy(zero_copy_only=False)
        keep = n >= _BP_MIN_DOCS
        b = b.filter(pa.array(keep))
        if len(b) == 0:
            return b
        lines_np = np.array(b.column("line").to_pylist(), dtype=object)
        nn = b.column("n_docs").to_numpy(zero_copy_only=False)
        order = sorted(
            range(len(b)), key=lambda i: (-int(nn[i]), lines_np[i])
        )[:_BP_TOP_K]
        take = pa.array(order, pa.int64())
        return b.take(take)

    return (
        counted.map_batches(prune, batch_format="pyarrow")
        .repartition(1)
        .map_batches(prune, batch_format="pyarrow")
    )


def _sql_top_boilerplate_lines() -> str:
    return f"""
WITH glued AS (
  SELECT doc_id,
    COALESCE(text, '')
    || CASE WHEN doc_id % 3 = 0 THEN '{_BP_FOOTER}'
            WHEN doc_id % 7 = 2 THEN '{_BP_BANNER}'
            ELSE '' END AS text
  FROM documents
),
doc_lines AS (
  SELECT DISTINCT doc_id, trim(line) AS line FROM (
    SELECT doc_id, unnest(string_split(text, chr(10))) AS line
    FROM glued
  ) WHERE trim(line) <> ''
),
counted AS (
  SELECT line, CAST(COUNT(*) AS BIGINT) AS n_docs
  FROM doc_lines GROUP BY line
)
SELECT line, n_docs FROM counted
WHERE n_docs >= {_BP_MIN_DOCS}
ORDER BY n_docs DESC, line
LIMIT {_BP_TOP_K}
"""


def q_gate_scrub_stats(sf_dir: str):
    """One row (n_docs, n_scrubbed, chars_in, chars_out,
    chars_removed, removed_frac): how destructive the scrub pass is —
    total character mass removed from KEPT documents and how many
    documents it touched at all. The sanity number to watch when a
    scrub regex goes feral and starts eating real prose (removed_frac
    creeping up round over round is the alarm).

    Exactness: all counts are int64 sums of per-doc utf8 lengths;
    removed_frac is one division. Bounded single-row reduce off the
    fused gate (write_dropped_text irrelevant — only kept rows have
    non-null scrubbed text)."""
    from ray.data.aggregate import Sum as _Sum

    pages = _pages_input(sf_dir).map_batches(
        synthesize_pages, batch_format="pyarrow"
    )
    gated = build_gate(pages, write_dropped_text=True)

    def partial(b: pa.Table) -> pa.Table:
        keep = b.column("keep").to_numpy(zero_copy_only=False)
        b = b.filter(pa.array(keep))
        # chars IN = the extracted text the rules saw; the gate's
        # output carries n_chars (the extraction-stage count)
        cin = pc.cast(b.column("n_chars"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        st = b.column("scrubbed_text")
        if isinstance(st, pa.ChunkedArray):
            st = st.combine_chunks()
        cout = pc.utf8_length(pc.fill_null(st, "")).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        return pa.table(
            {
                "n_docs": pa.array([len(b)], pa.int64()),
                "n_scrubbed": pa.array(
                    [int((cout < cin).sum())], pa.int64()
                ),
                "chars_in": pa.array([int(cin.sum())], pa.int64()),
                "chars_out": pa.array([int(cout.sum())], pa.int64()),
            }
        )

    tot = gated.map_batches(partial, batch_format="pyarrow").aggregate(
        _Sum("n_docs"), _Sum("n_scrubbed"), _Sum("chars_in"),
        _Sum("chars_out"),
    )
    nd = int(tot["sum(n_docs)"] or 0)
    ns = int(tot["sum(n_scrubbed)"] or 0)
    ci = int(tot["sum(chars_in)"] or 0)
    co = int(tot["sum(chars_out)"] or 0)
    return pa.table(
        {
            "n_docs": pa.array([nd], pa.int64()),
            "n_scrubbed": pa.array([ns], pa.int64()),
            "chars_in": pa.array([ci], pa.int64()),
            "chars_out": pa.array([co], pa.int64()),
            "chars_removed": pa.array([ci - co], pa.int64()),
            "removed_frac": pa.array(
                [float(ci - co) / float(ci) if ci else 0.0], pa.float64()
            ),
        }
    )


def _sql_gate_scrub_stats() -> str:
    return f"""
WITH {_sql_gate_flags_ctes().strip()},
{_sql_bpc_ctes().strip()},
kept AS (
  SELECT f.doc_id, length(pg.text) AS n_chars,
    length({_scrub_sql_expr("pg.text")}) AS c_out
  FROM flags f JOIN bpc p USING (doc_id) JOIN pages pg USING (doc_id)
  WHERE {_sql_keep_expr()}
),
agg AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n_docs,
    CAST(SUM(CASE WHEN c_out < n_chars THEN 1 ELSE 0 END) AS BIGINT)
      AS n_scrubbed,
    CAST(SUM(n_chars) AS BIGINT) AS chars_in,
    CAST(SUM(c_out) AS BIGINT) AS chars_out
  FROM kept
)
SELECT n_docs, n_scrubbed, chars_in, chars_out,
  CAST(chars_in - chars_out AS BIGINT) AS chars_removed,
  CASE WHEN chars_in > 0
       THEN CAST(chars_in - chars_out AS DOUBLE)
            / CAST(chars_in AS DOUBLE)
       ELSE 0.0 END AS removed_frac
FROM agg
"""


def q_kept_url_depth(sf_dir: str):
    """(depth, n, n_kept, keep_rate): gate outcomes by URL path depth
    (segments after the host, capped at 8) — shallow pages are hubs
    and boilerplate, deep pages are long-tail content; a keep-rate
    cliff at some depth is a crawl-frontier policy signal. Bounded
    9-row domain; one pass off the fused gate."""
    out = _gated(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        url = b.column("url")
        if isinstance(url, pa.ChunkedArray):
            url = url.combine_chunks()
        # path = everything after the host: strip scheme, then count
        # '/' occurrences (each segment boundary), cap at 8
        stripped = pc.replace_substring_regex(
            pc.fill_null(url, ""), r"^https?://[^/]*", ""
        )
        slashes = pc.count_substring(stripped, "/").to_numpy(
            zero_copy_only=False
        )
        depth = np.minimum(slashes, 8).astype(np.int64)
        t = pa.table(
            {
                "depth": pa.array(depth, pa.int64()),
                "n": pa.array(np.ones(len(b), np.int64)),
                "n_kept": pc.cast(b.column("keep"), pa.int64()),
            }
        )
        g = t.group_by("depth").aggregate([("n", "sum"), ("n_kept", "sum")])
        return pa.table(
            {
                "depth": g.column("depth"),
                "n": pc.cast(g.column("n_sum"), pa.int64()),
                "n_kept": pc.cast(g.column("n_kept_sum"), pa.int64()),
            }
        )

    tbl = rel.bounded_group_table_strict(
        out.map_batches(partial, batch_format="pyarrow"),
        ["depth"],
        [("n", "sum"), ("n_kept", "sum")],
    )
    empty = pa.table(
        {
            "depth": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
            "n_kept": pa.array([], pa.int64()),
            "keep_rate": pa.array([], pa.float64()),
        }
    )
    if tbl is None or tbl.num_rows == 0:
        return empty
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[("depth", "ascending")]))
    n = tbl.column("n").to_numpy(zero_copy_only=False)
    k = tbl.column("n_kept").to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "depth": tbl.column("depth"),
            "n": pa.array(n, pa.int64()),
            "n_kept": pa.array(k, pa.int64()),
            "keep_rate": pa.array(
                k.astype(np.float64) / n.astype(np.float64), pa.float64()
            ),
        }
    )


def _sql_kept_url_depth() -> str:
    return f"""
WITH {_sql_gate_flags_ctes().strip()},
{_sql_bpc_ctes().strip()},
decisions AS (
  SELECT f.doc_id,
    LEAST(CAST(len(regexp_extract_all(
      regexp_replace(COALESCE(pg.url, ''), '^https?://[^/]*', ''),
      '/')) AS BIGINT), 8) AS depth,
    {_sql_keep_expr()} AS keep
  FROM flags f JOIN bpc p USING (doc_id) JOIN pages pg USING (doc_id)
)
SELECT depth, CAST(COUNT(*) AS BIGINT) AS n,
  CAST(SUM(CASE WHEN keep THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
  CAST(SUM(CASE WHEN keep THEN 1 ELSE 0 END) AS DOUBLE)
    / CAST(COUNT(*) AS DOUBLE) AS keep_rate
FROM decisions GROUP BY depth ORDER BY depth
"""


def q_lang_keep_matrix(sf_dir: str):
    """(lang, detected_lang, n, n_kept, keep_rate): the gate's keep
    decision cross-tabulated by declared × detected language — WHERE
    the filter's losses concentrate (a declared-en block landing in
    'und' and dropping wholesale is a detector-threshold problem, not
    a content problem; this matrix is how you see the difference).
    Bounded |langs|² domain; constant partial rows per batch off the
    fused gate."""
    out = _gated(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "lang": pc.fill_null(b.column("lang"), ""),
                "detected_lang": b.column("detected_lang"),
                "n": pa.array(np.ones(len(b), np.int64)),
                "n_kept": pc.cast(b.column("keep"), pa.int64()),
            }
        )
        g = t.group_by(["lang", "detected_lang"]).aggregate(
            [("n", "sum"), ("n_kept", "sum")]
        )
        return pa.table(
            {
                "lang": g.column("lang"),
                "detected_lang": g.column("detected_lang"),
                "n": pc.cast(g.column("n_sum"), pa.int64()),
                "n_kept": pc.cast(g.column("n_kept_sum"), pa.int64()),
            }
        )

    tbl = rel.bounded_group_table_strict(
        out.map_batches(partial, batch_format="pyarrow"),
        ["lang", "detected_lang"],
        [("n", "sum"), ("n_kept", "sum")],
    )
    empty = pa.table(
        {
            "lang": pa.array([], pa.string()),
            "detected_lang": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
            "n_kept": pa.array([], pa.int64()),
            "keep_rate": pa.array([], pa.float64()),
        }
    )
    if tbl is None or tbl.num_rows == 0:
        return empty
    order = pc.sort_indices(
        tbl,
        sort_keys=[("lang", "ascending"), ("detected_lang", "ascending")],
    )
    tbl = tbl.take(order)
    n = tbl.column("n").to_numpy(zero_copy_only=False)
    k = tbl.column("n_kept").to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "lang": tbl.column("lang"),
            "detected_lang": tbl.column("detected_lang"),
            "n": pa.array(n, pa.int64()),
            "n_kept": pa.array(k, pa.int64()),
            "keep_rate": pa.array(
                k.astype(np.float64) / n.astype(np.float64), pa.float64()
            ),
        }
    )


def _sql_lang_keep_matrix() -> str:
    return f"""
WITH {_sql_gate_flags_ctes().strip()},
{_sql_bpc_ctes().strip()},
decisions AS (
  SELECT f.doc_id, f.detected_lang, COALESCE(pg.lang, '') AS lang,
    {_sql_keep_expr()} AS keep
  FROM flags f JOIN bpc p USING (doc_id) JOIN pages pg USING (doc_id)
)
SELECT lang, detected_lang, CAST(COUNT(*) AS BIGINT) AS n,
  CAST(SUM(CASE WHEN keep THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
  CAST(SUM(CASE WHEN keep THEN 1 ELSE 0 END) AS DOUBLE)
    / CAST(COUNT(*) AS DOUBLE) AS keep_rate
FROM decisions GROUP BY lang, detected_lang
ORDER BY lang, detected_lang
"""


_CS_MIN_HITS = 2        # second language needs ≥2 marker hits
_CS_NUM, _CS_DEN = 1, 4  # and ≥ 1/4 of the combined marker mass
# planted glue phrases (marker-dense second-language tails)
_CS_GLUE_FR = " les des est dans pour les des est"
_CS_GLUE_DE = " der die und von mit der die und"


def q_code_switch(sf_dir: str):
    """(doc_id, primary_lang, second_lang, n_primary, n_second):
    documents whose marker-word mass splits across TWO languages —
    code-switched (or template-glued) text that a single-label langid
    mislabels and a monolingual filter then mis-drops. Primary =
    argmax marker count (ties → lang code ASC, both engines), second
    = runner-up; a doc reports iff the runner-up has ≥{_CS_MIN_HITS}
    hits and ≥{_CS_NUM}/{_CS_DEN} of the combined mass (exact
    cross-multiplied ints). One RE2 pass per language per batch, zero
    shuffle — the langid stage's marker machinery as a forensic
    query."""
    from ..functions.vocab import MARKERS

    langs = sorted(MARKERS)
    pats = {lg: marker_pattern(lg) for lg in langs}
    ds = _documents(sf_dir, ["doc_id", "text"])

    def local(b: pa.Table) -> pa.Table:
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        text = pc.fill_null(text, "")
        # planted mixing (deterministic, mirrored in the oracle): the
        # synthetic corpus is perfectly monolingual, so residue
        # classes glue a second-language marker phrase on — the
        # detector must rediscover exactly those docs
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        glue = pa.array(
            np.where(ids % 23 == 4, _CS_GLUE_FR,
                     np.where(ids % 29 == 7, _CS_GLUE_DE, "")),
            pa.string(),
        )
        text = pc.binary_join_element_wise(text, glue, "")
        hits = np.stack(
            [
                pc.count_substring_regex(text, pats[lg]).to_numpy(
                    zero_copy_only=False
                )
                for lg in langs
            ],
            axis=1,
        ).astype(np.int64)
        # argmax with lang-ASC tie-break: langs are sorted, numpy
        # argmax takes the FIRST max — identical to the oracle's
        # (count DESC, lang ASC) rank
        prim = hits.argmax(axis=1)
        masked = hits.copy()
        masked[np.arange(len(b)), prim] = -1
        sec = masked.argmax(axis=1)
        n1 = hits[np.arange(len(b)), prim]
        n2 = hits[np.arange(len(b)), sec]
        keep = (n2 >= _CS_MIN_HITS) & (n2 * _CS_DEN >= _CS_NUM * (n1 + n2))
        idx = np.flatnonzero(keep)
        lang_arr = np.array(langs)
        return pa.table(
            {
                "doc_id": pc.cast(b.column("doc_id"), pa.int64()).take(
                    pa.array(idx, pa.int64())
                ),
                "primary_lang": pa.array(lang_arr[prim[idx]], pa.string()),
                "second_lang": pa.array(lang_arr[sec[idx]], pa.string()),
                "n_primary": pa.array(n1[idx], pa.int64()),
                "n_second": pa.array(n2[idx], pa.int64()),
            }
        )

    return ds.map_batches(local, batch_format="pyarrow")


def _sql_code_switch() -> str:
    from ..functions.vocab import MARKERS

    langs = sorted(MARKERS)
    counts = ",\n".join(
        f"  CAST(len(regexp_extract_all(COALESCE(text, ''), "
        f"'{marker_pattern(lg)}')) AS BIGINT) AS c_{lg}"
        for lg in langs
    )
    unions = "\nUNION ALL\n".join(
        f"SELECT doc_id, '{lg}' AS lang, c_{lg} AS c FROM counts"
        for lg in langs
    )
    return f"""
WITH mixed AS (
  SELECT doc_id,
    COALESCE(text, '')
    || CASE WHEN doc_id % 23 = 4 THEN '{_CS_GLUE_FR}'
            WHEN doc_id % 29 = 7 THEN '{_CS_GLUE_DE}'
            ELSE '' END AS text
  FROM documents
),
counts AS (
  SELECT doc_id,
{counts}
  FROM mixed
),
long AS ({unions}),
ranked AS (
  SELECT doc_id, lang, c,
    ROW_NUMBER() OVER (
      PARTITION BY doc_id ORDER BY c DESC, lang) AS rk
  FROM long
)
SELECT p.doc_id, p.lang AS primary_lang, s.lang AS second_lang,
  p.c AS n_primary, s.c AS n_second
FROM ranked p JOIN ranked s ON s.doc_id = p.doc_id AND s.rk = 2
WHERE p.rk = 1 AND s.c >= {_CS_MIN_HITS}
  AND s.c * {_CS_DEN} >= {_CS_NUM} * (p.c + s.c)
"""


def q_kept_host_entropy(sf_dir: str):
    """One row (n_kept, n_hosts, host_entropy, norm_entropy): Shannon
    entropy of the KEPT set's host distribution — the domain-diversity
    health number of a filtered crawl (norm = H / ln(n_hosts); near 1
    means broad coverage, near 0 means the filter kept a handful of
    mega-hosts). Composes the fused gate with the salted host
    aggregate, then reduces to the COUNT-OF-COUNTS histogram before
    anything reaches the driver — the host_lorenz discipline: the
    host domain is unbounded at web scale, the distinct-count domain
    is not, and hosts tied at count c contribute identical entropy
    terms m_c·(−(c/N)·ln(c/N)), folded in fixed ascending-c order
    with libm log (≙ the oracle's ordered list_sum)."""
    import math

    from ..stages.skew import salted_host_counts

    pages = _pages_input(sf_dir).map_batches(
        synthesize_pages, batch_format="pyarrow"
    )
    kept = build_gate(pages).map_batches(
        lambda b: b.filter(b.column("keep").combine_chunks()).select(
            ["doc_id", "url"]
        ),
        batch_format="pyarrow",
    )

    def count_of_counts(b: pa.Table) -> pa.Table:
        g = b.group_by("n_pages").aggregate([([], "count_all")])
        return pa.table(
            {
                "c": pc.cast(g.column("n_pages"), pa.int64()),
                "m": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    hist = rel.bounded_group_table_strict(
        salted_host_counts(kept).map_batches(
            count_of_counts, batch_format="pyarrow"
        ),
        ["c"],
        [("m", "sum")],
    )
    empty = pa.table(
        {
            "n_kept": pa.array([0], pa.int64()),
            "n_hosts": pa.array([0], pa.int64()),
            "host_entropy": pa.array([0.0], pa.float64()),
            "norm_entropy": pa.array([0.0], pa.float64()),
        }
    )
    if hist is None or hist.num_rows == 0:
        return empty
    cs = hist.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
    ms = hist.column("m").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(cs)
    cs, ms = cs[order], ms[order]
    n = int((cs * ms).sum())
    h_total = int(ms.sum())
    acc = 0.0
    for c, m in zip(cs.tolist(), ms.tolist()):  # fixed ascending-c fold
        p = c / n
        acc += m * (-(p) * math.log(p))
    norm = acc / math.log(h_total) if h_total > 1 else 0.0
    return pa.table(
        {
            "n_kept": pa.array([n], pa.int64()),
            "n_hosts": pa.array([h_total], pa.int64()),
            "host_entropy": pa.array([acc], pa.float64()),
            "norm_entropy": pa.array([norm], pa.float64()),
        }
    )


def _sql_kept_host_entropy() -> str:
    from ..stages.skew import HOST_RE

    return f"""
WITH {_sql_gate_flags_ctes().strip()},
{_sql_bpc_ctes().strip()},
kept AS (
  SELECT f.doc_id, pg.url
  FROM flags f JOIN bpc p USING (doc_id) JOIN pages pg USING (doc_id)
  WHERE {_sql_keep_expr()}
),
hc AS (
  SELECT regexp_extract(url, '{HOST_RE}', 1) AS host,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM kept GROUP BY 1
),
hist AS (
  SELECT c, CAST(COUNT(*) AS BIGINT) AS m FROM hc GROUP BY c
),
tot AS (
  SELECT CAST(SUM(c * m) AS BIGINT) AS n,
         CAST(SUM(m) AS BIGINT) AS h FROM hist
),
terms AS (
  SELECT hist.c,
    hist.m * (-(CAST(hist.c AS DOUBLE) / tot.n)
              * ln(CAST(hist.c AS DOUBLE) / tot.n)) AS term
  FROM hist CROSS JOIN tot
)
SELECT tot.n AS n_kept, tot.h AS n_hosts,
  (SELECT list_sum(list(term ORDER BY c)) FROM terms) AS host_entropy,
  CASE WHEN tot.h > 1
       THEN (SELECT list_sum(list(term ORDER BY c)) FROM terms)
            / ln(CAST(tot.h AS DOUBLE))
       ELSE 0.0 END AS norm_entropy
FROM tot
"""


def q_quality_dup_rate(sf_dir: str):
    """(bin, n_docs, n_dup_docs, dup_rate): exact-duplicate incidence
    per quality-score bin — DOES low-quality text duplicate more on
    this corpus, the question that decides whether to dedup before or
    after the quality filter (if dups concentrate in the drop bins,
    dedup-first wastes hash work on text the filter would delete).
    Bin = number of cleared mean-score edges (exact cross-multiplied
    ints); a doc is a dup iff its text group has ≥2 members.

    Plan: one fused map emits 40-byte (hash128, bin) rows; the hash
    groupby tags each doc with its group size; a bounded bin-domain
    reduce finishes."""
    from ..functions.classifier import QualityClassifier
    from ..functions.hashing import hash_str_arrow_u128

    docs = _dup_corpus(sf_dir)  # planted duplicate structure

    def rows(b: pa.Table) -> pa.Table:
        scored = QualityClassifier()(b)
        total = scored.column("score_total").to_numpy(zero_copy_only=False)
        n = scored.column("n_tokens").to_numpy(zero_copy_only=False)
        binv = np.zeros(len(b), np.int64)
        for num, den in _QBIN_EDGES:
            binv += (total * den >= num * n).astype(np.int64)
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        lo, hi = hash_str_arrow_u128(pc.fill_null(text, ""))
        return pa.table(
            {
                "h1": pa.array(lo.view(np.int64), pa.int64()),
                "h2": pa.array(hi.view(np.int64), pa.int64()),
                "bin": pa.array(binv, pa.int64()),
            }
        )

    def per_group(g: pa.Table) -> pa.Table:
        n = len(g)
        return pa.table(
            {
                "bin": g.column("bin"),
                "nd": pa.array(np.ones(n, np.int64)),
                "dup": pa.array(
                    np.full(n, int(n > 1), np.int64), pa.int64()
                ),
            }
        )

    tbl = rel.bounded_group_table_strict(
        docs.map_batches(rows, batch_format="pyarrow")
        .groupby(["h1", "h2"])
        .map_groups(per_group, batch_format="pyarrow"),
        ["bin"],
        [("nd", "sum"), ("dup", "sum")],
    )
    empty = pa.table(
        {
            "bin": pa.array([], pa.int64()),
            "n_docs": pa.array([], pa.int64()),
            "n_dup_docs": pa.array([], pa.int64()),
            "dup_rate": pa.array([], pa.float64()),
        }
    )
    if tbl is None or tbl.num_rows == 0:
        return empty
    order = pc.sort_indices(tbl, sort_keys=[("bin", "ascending")])
    tbl = tbl.take(order)
    nd = tbl.column("nd").to_numpy(zero_copy_only=False)
    dup = tbl.column("dup").to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "bin": tbl.column("bin"),
            "n_docs": pa.array(nd, pa.int64()),
            "n_dup_docs": pa.array(dup, pa.int64()),
            "dup_rate": pa.array(
                dup.astype(np.float64) / nd.astype(np.float64),
                pa.float64(),
            ),
        }
    )


def _sql_quality_dup_rate() -> str:
    from ..functions.classifier import OOV_WEIGHT, default_lexicon
    from ..functions.tokenize import WS_TOKEN_RE

    values = ", ".join(
        f"('{w}', {wt})" for w, wt in sorted(default_lexicon().items())
    )
    edges = " + ".join(
        f"(CASE WHEN COALESCE(s.total, 0) * {den} >= "
        f"{num} * COALESCE(s.n_tokens, 0) THEN 1 ELSE 0 END)"
        for num, den in _QBIN_EDGES
    )
    return f"""
WITH {_DUP_CORPUS_SQL.strip()},
lex(w, wt) AS (VALUES {values}),
words AS (
  SELECT doc_id,
         unnest(regexp_extract_all(COALESCE(text, ''), '{WS_TOKEN_RE}')) AS w
  FROM corpus
),
scored AS (
  SELECT wo.doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
         CAST(SUM(COALESCE(l.wt, {OOV_WEIGHT})) AS BIGINT) AS total
  FROM words wo LEFT JOIN lex l ON wo.w = l.w
  GROUP BY wo.doc_id
),
binned AS (
  SELECT d.doc_id, CAST({edges} AS BIGINT) AS bin,
    COUNT(*) OVER (PARTITION BY d.text) AS grp
  FROM corpus d LEFT JOIN scored s ON s.doc_id = d.doc_id
)
SELECT bin, CAST(COUNT(*) AS BIGINT) AS n_docs,
  CAST(SUM(CASE WHEN grp > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup_docs,
  CAST(SUM(CASE WHEN grp > 1 THEN 1 ELSE 0 END) AS DOUBLE)
    / CAST(COUNT(*) AS DOUBLE) AS dup_rate
FROM binned GROUP BY bin ORDER BY bin
"""


def q_curate_pack(sf_dir: str):
    """(shard, bin, n_docs, n_tokens): the end-to-end curation
    composition a training-data team actually ships — quality-filter
    (the quantized linear classifier's keep decision) → exact dedup
    (canonical = min doc_id per text group) → First-Fit-Decreasing
    packing of the survivors into fixed-capacity training sequences —
    rolled up per (shard, bin). One registry entry proving the
    engine's stages COMPOSE, not just run side by side.

    Scale plan: the classifier scores in place (no shuffle); only a
    32-byte (doc_id, hash128, n_tokens) projection enters the dedup
    shuffle — the canonical rows carry their token counts forward so
    the FFD stage packs WITHOUT ever re-reading text
    (pack_ffd(tokens_col=...)); the rollup is a bounded
    (shard, bin)-domain reduce."""
    from ..functions.classifier import QualityClassifier
    from ..functions.hashing import hash_str_arrow_u128
    from ..functions.packing import pack_ffd

    docs = _documents(sf_dir, ["doc_id", "text"])

    def kept_hashes(b: pa.Table) -> pa.Table:
        # classifier score + text hash fused in one stage: the scored
        # table is row-aligned with the input, so the keep mask selects
        # both without any join
        scored = QualityClassifier(
            th_num=_CURATE_TH_NUM, th_den=_CURATE_TH_DEN
        )(b)
        keep = scored.column("keep_quality").to_numpy(
            zero_copy_only=False
        )
        sel = pa.array(keep)
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        text = text.filter(sel)
        lo, hi = hash_str_arrow_u128(pc.fill_null(text, ""))
        return pa.table(
            {
                "h1": pa.array(lo.view(np.int64), pa.int64()),
                "h2": pa.array(hi.view(np.int64), pa.int64()),
                "doc_id": pc.cast(
                    scored.column("doc_id").filter(sel), pa.int64()
                ),
                "n_tokens": pc.cast(
                    scored.column("n_tokens").filter(sel), pa.int64()
                ),
            }
        )

    canon = (
        docs.map_batches(kept_hashes, batch_format="pyarrow")
        .groupby(["h1", "h2"])
        .map_groups(
            lambda g: g.take(
                pa.array(
                    [
                        int(
                            np.argmin(
                                g.column("doc_id").to_numpy(
                                    zero_copy_only=False
                                )
                            )
                        )
                    ],
                    pa.int64(),
                )
            ).select(["doc_id", "n_tokens"]),
            batch_format="pyarrow",
        )
    )
    packed = pack_ffd(canon, tokens_col="n_tokens")

    def rollup(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "shard": b.column("shard"),
                "bin": b.column("bin"),
                "nd": pa.array(np.ones(len(b), np.int64)),
                "nt": pc.cast(b.column("n_tokens"), pa.int64()),
            }
        )
        g = t.group_by(["shard", "bin"]).aggregate(
            [("nd", "sum"), ("nt", "sum")]
        )
        return pa.table(
            {
                "shard": g.column("shard"),
                "bin": g.column("bin"),
                "n_docs": pc.cast(g.column("nd_sum"), pa.int64()),
                "n_tokens": pc.cast(g.column("nt_sum"), pa.int64()),
            }
        )

    tbl = rel.bounded_group_table_strict(
        packed.map_batches(rollup, batch_format="pyarrow"),
        ["shard", "bin"],
        [("n_docs", "sum"), ("n_tokens", "sum")],
    )
    if tbl is None or tbl.num_rows == 0:
        return pa.table(
            {
                "shard": pa.array([], pa.int64()),
                "bin": pa.array([], pa.int64()),
                "n_docs": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
            }
        )
    return tbl.take(
        pc.sort_indices(
            tbl, sort_keys=[("shard", "ascending"), ("bin", "ascending")]
        )
    )


def _sql_curate_pack() -> str:
    from ..functions.classifier import OOV_WEIGHT, TH_DEN, TH_NUM, default_lexicon
    from ..functions.packing import DEFAULT_CAPACITY, DEFAULT_SHARD_SIZE
    from ..functions.tokenize import WS_TOKEN_RE

    cap, ss = DEFAULT_CAPACITY, DEFAULT_SHARD_SIZE
    values = ", ".join(
        f"('{w}', {wt})" for w, wt in sorted(default_lexicon().items())
    )
    return rf"""
WITH RECURSIVE lex(w, wt) AS (VALUES {values}),
words AS (
  SELECT doc_id,
         unnest(regexp_extract_all(COALESCE(text, ''), '{WS_TOKEN_RE}')) AS w
  FROM documents
),
scored AS (
  SELECT wo.doc_id,
         CAST(COUNT(*) AS BIGINT) AS n_tokens,
         CAST(SUM(COALESCE(l.wt, {OOV_WEIGHT})) AS BIGINT) AS total
  FROM words wo LEFT JOIN lex l ON wo.w = l.w
  GROUP BY wo.doc_id
),
kept AS (
  SELECT d.doc_id, COALESCE(s.n_tokens, 0) AS n_tokens, d.text
  FROM documents d LEFT JOIN scored s ON s.doc_id = d.doc_id
  WHERE COALESCE(s.total, 0) * {_CURATE_TH_DEN}
        >= {_CURATE_TH_NUM} * COALESCE(s.n_tokens, 0)
),
canon AS (
  SELECT doc_id, n_tokens FROM kept
  QUALIFY doc_id = MIN(doc_id) OVER (PARTITION BY text)
),
toks AS (
  SELECT doc_id, CAST(doc_id // {ss} AS BIGINT) AS shard,
         CAST(n_tokens AS BIGINT) AS n_tokens
  FROM canon
),
ordered AS (
  SELECT doc_id, shard, n_tokens,
    ROW_NUMBER() OVER (
      PARTITION BY shard ORDER BY n_tokens DESC, doc_id) AS rk
  FROM toks WHERE n_tokens > 0
),
fold AS (
  SELECT shard, rk, doc_id, n_tokens, CAST(0 AS BIGINT) AS bin,
    [{cap} - n_tokens] AS bins
  FROM ordered WHERE rk = 1
  UNION ALL
  SELECT o.shard, o.rk, o.doc_id, o.n_tokens,
    CAST(CASE
      WHEN o.n_tokens <= {cap} AND list_position(
        list_transform(f.bins, b -> b >= o.n_tokens), true) > 0
      THEN list_position(
        list_transform(f.bins, b -> b >= o.n_tokens), true) - 1
      ELSE len(f.bins) END AS BIGINT) AS bin,
    CASE
      WHEN o.n_tokens <= {cap} AND list_position(
        list_transform(f.bins, b -> b >= o.n_tokens), true) > 0
      THEN list_transform(f.bins, (b, j) ->
        CASE WHEN j = list_position(
          list_transform(f.bins, x -> x >= o.n_tokens), true)
        THEN b - o.n_tokens ELSE b END)
      ELSE list_append(f.bins, {cap} - o.n_tokens) END AS bins
  FROM fold f JOIN ordered o ON o.shard = f.shard AND o.rk = f.rk + 1
)
SELECT shard, bin, CAST(COUNT(*) AS BIGINT) AS n_docs,
  CAST(SUM(n_tokens) AS BIGINT) AS n_tokens
FROM fold GROUP BY shard, bin
ORDER BY shard, bin
"""


_PPL_GRID = [x / 2.0 for x in range(0, 25)]  # 0.0 … 12.0 bits/char


def q_gate_ppl_sensitivity(sf_dir: str):
    """(threshold, n_lm_dropped, n_kept): the keep-rate curve as a
    function of the perplexity gate's bits-per-char threshold, swept
    over a fixed 0.5-bit grid with every other rule held fixed — the
    sensitivity sweep run before moving the one tunable model
    threshold (cfg.max_bits_per_char = 5.0 sits on this curve). Uses
    the SAME doubles as the gate (fixed-point bit totals / (nb−2)),
    so every grid comparison matches the oracle bit-for-bit.

    Plan: |grid| partial rows per batch off the fused gate's exposed
    columns; bounded reduce over the 25-row domain."""
    out = _gated(sf_dir)
    grid = np.asarray(_PPL_GRID, np.float64)

    def partial(b: pa.Table) -> pa.Table:
        bpc = b.column("bits_per_char").to_numpy(zero_copy_only=False)
        nt = b.column("n_tokens").to_numpy(zero_copy_only=False)
        nolm = np.zeros(len(b), dtype=bool)
        for c in _DROP_NOLM_CODES:
            nolm |= b.column(f"hit_{c}").to_numpy(zero_copy_only=False)
        lm_drop = (nt > 0)[:, None] & (bpc[:, None] > grid[None, :])
        kept = (~nolm)[:, None] & ~lm_drop
        return pa.table(
            {
                "threshold": pa.array(grid, pa.float64()),
                "n_lm_dropped": pa.array(
                    lm_drop.sum(axis=0).astype(np.int64), pa.int64()
                ),
                "n_kept": pa.array(
                    kept.sum(axis=0).astype(np.int64), pa.int64()
                ),
            }
        )

    tbl = rel.bounded_group_table_strict(
        out.map_batches(partial, batch_format="pyarrow"),
        ["threshold"],
        [("n_lm_dropped", "sum"), ("n_kept", "sum")],
    )
    if tbl is None or tbl.num_rows == 0:
        return pa.table(
            {
                "threshold": pa.array([], pa.float64()),
                "n_lm_dropped": pa.array([], pa.int64()),
                "n_kept": pa.array([], pa.int64()),
            }
        )
    return tbl.take(
        pc.sort_indices(tbl, sort_keys=[("threshold", "ascending")])
    )


def _sql_gate_ppl_sensitivity() -> str:
    grid_vals = ", ".join(f"({t!r})" for t in _PPL_GRID)
    return f"""
WITH {_sql_gate_flags_ctes().strip()},
{_sql_bpc_ctes().strip()},
grid(threshold) AS (VALUES {grid_vals}),
doc AS (
  SELECT f.doc_id, f.n_tokens, p.bits_per_char,
    ({_DROP_NOLM_EXPR}) AS drop_nolm
  FROM flags f JOIN bpc p USING (doc_id)
)
SELECT CAST(g.threshold AS DOUBLE) AS threshold,
  CAST(SUM(CASE WHEN d.n_tokens > 0 AND d.bits_per_char > g.threshold
           THEN 1 ELSE 0 END) AS BIGINT) AS n_lm_dropped,
  CAST(SUM(CASE WHEN NOT (d.drop_nolm
           OR (d.n_tokens > 0 AND d.bits_per_char > g.threshold))
           THEN 1 ELSE 0 END) AS BIGINT) AS n_kept
FROM grid g CROSS JOIN doc d
GROUP BY g.threshold
ORDER BY threshold
"""


_PRICE_QS = [0.25, 0.5, 0.75, 0.99]


def q_price_quantiles(sf_dir: str):
    """Exact quantile_disc of lineitem price cents by two-level radix
    counting (functions/selection.py) — the wide-domain counterpart of
    the bounded-histogram percentile family. TWO streaming counting
    passes, no sort, count partials only on the wire."""
    from ..functions.selection import radix_quantiles

    ds = rel._read_pq(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_extendedprice"],
    ).map_batches(
        lambda b: pa.table({"cents": rel._cents(b.column("l_extendedprice"))}),
        batch_format="pyarrow",
    )
    vals = radix_quantiles(ds, "cents", _PRICE_QS)
    if vals is None:
        return pa.table(
            {
                "q": pa.array([], pa.float64()),
                "price_cents": pa.array([], pa.int64()),
            }
        )
    return pa.table(
        {
            "q": pa.array(_PRICE_QS, pa.float64()),
            "price_cents": pa.array(vals, pa.int64()),
        }
    )


SQL_PRICE_QUANTILES = """
WITH c AS (
  SELECT CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS cents
  FROM lineitem
)
SELECT 0.25::DOUBLE AS q,
       CAST(quantile_disc(cents, 0.25) AS BIGINT) AS price_cents FROM c
UNION ALL
SELECT 0.5::DOUBLE, CAST(quantile_disc(cents, 0.5) AS BIGINT) FROM c
UNION ALL
SELECT 0.75::DOUBLE, CAST(quantile_disc(cents, 0.75) AS BIGINT) FROM c
UNION ALL
SELECT 0.99::DOUBLE, CAST(quantile_disc(cents, 0.99) AS BIGINT) FROM c
ORDER BY q
"""


def q_price_quantiles_weighted(sf_dir: str):
    """Quantity-WEIGHTED exact price quantiles — the "typical traded
    price" (each lineitem counts once per unit, so a 50-unit line
    moves the median 50× more than a 1-unit line; the VWAP-style view
    of the same wide cents domain as `price_quantiles`). Two streaming
    counting passes with integer WEIGHT sums in place of counts
    (functions/selection.radix_weighted_quantiles) — no sort, no row
    shuffle, identical plan at any scale."""
    from ..functions.selection import radix_weighted_quantiles

    ds = rel._read_pq(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_extendedprice", "l_quantity"],
    ).map_batches(
        lambda b: pa.table(
            {
                "cents": rel._cents(b.column("l_extendedprice")),
                "w": pc.cast(b.column("l_quantity"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    vals = radix_weighted_quantiles(ds, "cents", "w", _PRICE_QS)
    if vals is None:
        return pa.table(
            {
                "q": pa.array([], pa.float64()),
                "price_cents": pa.array([], pa.int64()),
            }
        )
    return pa.table(
        {
            "q": pa.array(_PRICE_QS, pa.float64()),
            "price_cents": pa.array(vals, pa.int64()),
        }
    )


def _sql_price_quantiles_weighted() -> str:
    per_q = "\nUNION ALL\n".join(
        f"""SELECT {q}::DOUBLE AS q,
  (SELECT min(cents) FROM cum CROSS JOIN tot
   WHERE cw >= greatest(1, CAST(ceil({q} * W) AS BIGINT))) AS price_cents"""
        for q in _PRICE_QS
    )
    return f"""
WITH c AS (
  SELECT CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS cents,
         CAST(l_quantity AS BIGINT) AS w
  FROM lineitem
), agg AS (SELECT cents, CAST(SUM(w) AS BIGINT) AS w FROM c GROUP BY 1),
cum AS (
  SELECT cents, SUM(w) OVER (ORDER BY cents) AS cw FROM agg
), tot AS (SELECT CAST(SUM(w) AS BIGINT) AS W FROM agg)
{per_q}
ORDER BY q
"""


_CAL_QS = tuple(round(0.1 * i, 1) for i in range(1, 10))


class _SourceScoreHist:
    """Actor-pool stage: per-batch (source, score_total, n) partials —
    the quality classifier with the source column carried through
    (lexicon built once per worker in __init__)."""

    def __init__(self):
        from ..functions.classifier import QualityClassifier

        self.clf = QualityClassifier()

    def __call__(self, b: pa.Table) -> pa.Table:
        scored = self.clf(b)  # row-aligned with the input batch
        t = pa.table(
            {
                "source": b.column("source"),
                "v": scored.column("score_total"),
            }
        ).group_by(["source", "v"]).aggregate([([], "count_all")])
        t = t.rename_columns(["source", "v", "n"])
        return t.set_column(2, "n", pc.cast(t.column(2), pa.int64()))


def q_source_score_calibration(sf_dir: str):
    """(source, q, source_score, global_score): each source's
    classifier-score deciles next to the corpus-wide deciles — the
    quantile-mapping table batch-effect correction uses (map a
    source's score through its own CDF onto the global one; a source
    whose column diverges from global needs recalibrating before its
    scores are comparable). quantile_disc rank convention
    k = max(1, ceil(q·n)) on both engines.

    Plan: ONE actor-pool classifier pass emitting (source, score, n)
    partials on the quantized score domain; the per-source and global
    CDF walks are driver-side over that bounded histogram."""
    import math

    ds = rel._read_pq(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "text"],
    )
    tbl = rel.bounded_group_table_strict(
        ds.map_batches(
            _SourceScoreHist, batch_format="pyarrow", concurrency=(1, 8)
        ),
        ["source", "v"],
        [("n", "sum")],
    )
    empty = pa.table(
        {
            "source": pa.array([], pa.string()),
            "q": pa.array([], pa.float64()),
            "source_score": pa.array([], pa.int64()),
            "global_score": pa.array([], pa.int64()),
        }
    )
    if tbl is None:
        return empty

    def cdf_quantiles(hist: dict[int, int]) -> dict[float, int]:
        vals = sorted(hist)
        cum, walk = 0, []
        for v in vals:
            cum += hist[v]
            walk.append((v, cum))
        n = cum
        out = {}
        for q in _CAL_QS:
            k = max(1, math.ceil(q * n))
            out[q] = next(v for v, c in walk if c >= k)
        return out

    by_src: dict[str, dict[int, int]] = {}
    glob: dict[int, int] = {}
    for s, v, n in zip(
        tbl.column("source").to_pylist(),
        tbl.column("v").to_pylist(),
        tbl.column("n").to_pylist(),
    ):
        v, n = int(v), int(n)
        by_src.setdefault(s, {})[v] = n  # (source, v) unique post-reduce
        glob[v] = glob.get(v, 0) + n
    gq = cdf_quantiles(glob)
    out_s, out_q, out_sv, out_gv = [], [], [], []
    for s in sorted(by_src):
        sq = cdf_quantiles(by_src[s])
        for q in _CAL_QS:
            out_s.append(s)
            out_q.append(q)
            out_sv.append(sq[q])
            out_gv.append(gq[q])
    return pa.table(
        {
            "source": pa.array(out_s, pa.string()),
            "q": pa.array(out_q, pa.float64()),
            "source_score": pa.array(out_sv, pa.int64()),
            "global_score": pa.array(out_gv, pa.int64()),
        }
    )


def _sql_source_score_calibration() -> str:
    per_q = "\nUNION ALL\n".join(
        f"""SELECT source, {q}::DOUBLE AS q,
  CAST(quantile_disc(v, {q}) AS BIGINT) AS source_score
FROM j GROUP BY source"""
        for q in _CAL_QS
    )
    globals_q = "\nUNION ALL\n".join(
        f"""SELECT {q}::DOUBLE AS q,
  CAST(quantile_disc(v, {q}) AS BIGINT) AS global_score FROM j"""
        for q in _CAL_QS
    )
    return f"""
WITH s AS ({_sql_quality_classifier()}),
j AS MATERIALIZED (
  SELECT d.source, s.score_total AS v
  FROM s JOIN documents d USING (doc_id)
), per_src AS ({per_q}), gq AS ({globals_q})
SELECT per_src.source, per_src.q, per_src.source_score, gq.global_score
FROM per_src JOIN gq USING (q)
ORDER BY source, q
"""


def q_blocking_recall(sf_dir: str):
    """One row (n_pairs, n_blocked, recall): of all TRUE near-duplicate
    name pairs (same-brand edit-distance ≤ 1, the FastSS join's exact
    output), what fraction lands in the same Soundex block — the
    blocking-recall diagnostic every entity-resolution pipeline is
    sized by (pairs outside the block are unreachable by a
    block-then-verify design). Composes the two ER stages this engine
    ships: phonetic blocking and deletion-neighborhood matching.

    Plan: the fuzzy-pair pipeline runs unchanged; the part→code side
    is a bounded dimension broadcast (`ray.put` of sorted keys +
    codes, searchsorted probe per batch); the reduce is one row."""
    import ray

    from ..functions.phonetic import soundex_arrow
    from .decision2 import fuzzy_name_pairs

    part = rel._read_pq(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_name"]
    )

    def code(b: pa.Table) -> pa.Table:
        name = b.column("p_name")
        if isinstance(name, pa.ChunkedArray):
            name = name.combine_chunks()
        return pa.table(
            {
                "k": b.column("p_partkey"),
                "sx": pc.fill_null(soundex_arrow(name), ""),
            }
        )

    blocks = [
        t
        for t in ray.get(
            part.map_batches(code, batch_format="pyarrow")
            .materialize()
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    dim = (
        pa.concat_tables(blocks, promote_options="permissive")
        if blocks
        else None
    )
    if dim is None or dim.num_rows == 0:
        return pa.table(
            {
                "n_pairs": pa.array([0], pa.int64()),
                "n_blocked": pa.array([0], pa.int64()),
                "recall": pa.array([0.0], pa.float64()),
            }
        )
    keys = dim.column("k").to_numpy(zero_copy_only=False)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    codes = np.asarray(dim.column("sx").to_pylist(), dtype=object)[order]
    ref = ray.put((keys, codes))

    def probe(b: pa.Table) -> pa.Table:
        ks, cs = ray.get(ref)
        a = b.column("part_a").to_numpy(zero_copy_only=False)
        b_ = b.column("part_b").to_numpy(zero_copy_only=False)
        ca = cs[np.searchsorted(ks, a)]
        cb = cs[np.searchsorted(ks, b_)]
        blocked = int(np.sum((ca == cb) & (ca != ""))) if len(a) else 0
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "n_pairs": pa.array([len(a)], pa.int64()),
                "n_blocked": pa.array([blocked], pa.int64()),
            }
        )

    tbl = rel.bounded_group_table_strict(
        fuzzy_name_pairs(sf_dir).map_batches(probe, batch_format="pyarrow"),
        ["k"],
        [("n_pairs", "sum"), ("n_blocked", "sum")],
    )
    if tbl is None:
        n_pairs = n_blocked = 0
    else:
        n_pairs = int(tbl.column("n_pairs")[0].as_py())
        n_blocked = int(tbl.column("n_blocked")[0].as_py())
    return pa.table(
        {
            "n_pairs": pa.array([n_pairs], pa.int64()),
            "n_blocked": pa.array([n_blocked], pa.int64()),
            "recall": pa.array(
                [float(n_blocked) / float(n_pairs) if n_pairs else 0.0],
                pa.float64(),
            ),
        }
    )


def _sql_blocking_recall() -> str:
    from ..functions.phonetic import soundex_sql

    return f"""
WITH px AS MATERIALIZED (
  SELECT p_partkey, COALESCE({soundex_sql('p_name')}, '') AS sx FROM part
), pairs AS (
  SELECT a.p_partkey AS ka, b.p_partkey AS kb
  FROM part a JOIN part b
    ON a.p_brand = b.p_brand AND a.p_partkey < b.p_partkey
  WHERE levenshtein(a.p_name, b.p_name) <= 1
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_pairs,
  CAST(COALESCE(SUM(CASE WHEN xa.sx = xb.sx AND xa.sx <> '' THEN 1
                         ELSE 0 END), 0) AS BIGINT) AS n_blocked,
  CASE WHEN COUNT(*) = 0 THEN 0.0
       ELSE CAST(COALESCE(SUM(CASE WHEN xa.sx = xb.sx AND xa.sx <> ''
                                   THEN 1 ELSE 0 END), 0) AS DOUBLE)
          / CAST(COUNT(*) AS DOUBLE) END AS recall
FROM pairs
JOIN px xa ON pairs.ka = xa.p_partkey
JOIN px xb ON pairs.kb = xb.p_partkey
"""


_HH_PHI = 0.0005


def q_event_value_heavy_hitters(sf_dir: str):
    """(value_cents, n): every event value (in cents) carrying at
    least a 0.05% share of all events — EXACT heavy hitters over the
    wide cents domain, no sketch error and no caps (the CMS sketch in
    `cms_heavy_hitters` is the approximate cousin; this is the
    support-bounded exact form). Pass 1's high-bucket totals are a
    sound prune (a value's count ≤ its bucket's total) and at most
    1/φ buckets can hold ≥ φ·N mass, so pass 2's exact counting is
    support-bounded regardless of corpus size — two streaming counting
    passes, zero sorts, zero row shuffles."""
    from ..functions.selection import radix_heavy_hitters

    ds = rel._read_pq(
        os.path.join(sf_dir, "events.parquet"), columns=["value"]
    ).map_batches(
        lambda b: pa.table(
            {
                "cents": pa.array(
                    np.floor(
                        b.column("value").to_numpy(zero_copy_only=False)
                        * 100.0
                        + 0.5
                    ),
                    pa.float64(),
                )
            }
        ),
        batch_format="pyarrow",
    )
    t = radix_heavy_hitters(ds, "cents", _HH_PHI)
    if t is None:
        t = pa.table(
            {"value": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
        )
    return t.rename_columns(["value_cents", "n"])


def _sql_event_value_heavy_hitters() -> str:
    return f"""
WITH c AS (
  SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
  FROM events WHERE value IS NOT NULL
), g AS (SELECT CAST(COUNT(*) AS BIGINT) AS N FROM c)
SELECT v AS value_cents, CAST(COUNT(*) AS BIGINT) AS n
FROM c CROSS JOIN g
GROUP BY v, g.N
HAVING COUNT(*) >= greatest(1, CAST(ceil({_HH_PHI} * N) AS BIGINT))
ORDER BY n DESC, value_cents
"""


def q_part_soundex_blocks(sf_dir: str):
    """(soundex, n_parts, n_names): part rows blocked by the American
    Soundex code of their name's first word — the phonetic blocking
    stage of entity resolution (block on the code, verify inside; the
    FastSS edit-distance join is the verify-stage analog). n_names
    counts distinct full names per block, so n_parts ≫ n_names flags a
    block dominated by exact repeats rather than phonetic variety.

    Plan: one vectorized replace-chain column pass (RE2 on both
    engines — no backreferences, so run-collapse is six per-digit
    replaces); per-batch (code, name) count partials reduce under the
    bounded guard on the name-template domain; the rollup is
    |codes|-bounded driver work."""
    from ..functions.phonetic import soundex_arrow

    ds = rel._read_pq(
        os.path.join(sf_dir, "part.parquet"), columns=["p_name"]
    )

    def partial(b: pa.Table) -> pa.Table:
        name = b.column("p_name")
        if isinstance(name, pa.ChunkedArray):
            name = name.combine_chunks()
        t = pa.table({"soundex": soundex_arrow(name), "name": name})
        t = t.filter(pc.is_valid(t.column("soundex")))
        g = t.group_by(["soundex", "name"]).aggregate([([], "count_all")])
        g = g.rename_columns(["soundex", "name", "n"])
        return g.set_column(2, "n", pc.cast(g.column(2), pa.int64()))

    tbl = rel.bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["soundex", "name"],
        [("n", "sum")],
    )
    empty = pa.table(
        {
            "soundex": pa.array([], pa.string()),
            "n_parts": pa.array([], pa.int64()),
            "n_names": pa.array([], pa.int64()),
        }
    )
    if tbl is None:
        return empty
    acc: dict[str, list[int]] = {}
    for code, n in zip(
        tbl.column("soundex").to_pylist(),
        tbl.column("n").to_pylist(),
    ):
        a = acc.setdefault(code, [0, 0])
        a[0] += int(n)
        a[1] += 1
    codes = sorted(acc)
    return pa.table(
        {
            "soundex": pa.array(codes, pa.string()),
            "n_parts": pa.array([acc[c][0] for c in codes], pa.int64()),
            "n_names": pa.array([acc[c][1] for c in codes], pa.int64()),
        }
    )


def q_part_golden_record(sf_dir: str):
    """(soundex, n_parts, canonical_partkey, canonical_brand,
    canonical_type): SURVIVORSHIP per phonetic entity block — the
    'golden record' step after blocking: the canonical id is the
    block's minimum partkey, and the canonical brand/type are the
    block MAJORITY values (most frequent; ties → lexicographically
    smallest — the deterministic most-common-value merge rule master-
    data systems apply). Per-batch (code, brand/type) count partials
    on bounded domains (|codes|×|brands|, |codes|×|types|); the mode
    resolution is |codes|-bounded driver work."""
    from ..functions.phonetic import soundex_arrow

    ds = rel._read_pq(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_name", "p_brand", "p_type"],
    )

    def partial(b: pa.Table) -> pa.Table:
        name = b.column("p_name")
        if isinstance(name, pa.ChunkedArray):
            name = name.combine_chunks()
        t = pa.table(
            {
                "soundex": soundex_arrow(name),
                "p_partkey": pc.cast(b.column("p_partkey"), pa.int64()),
                "p_brand": b.column("p_brand"),
                "p_type": b.column("p_type"),
            }
        )
        t = t.filter(pc.is_valid(t.column("soundex")))
        g = t.group_by(["soundex", "p_brand", "p_type"]).aggregate(
            [([], "count_all"), ("p_partkey", "min")]
        )
        return pa.table(
            {
                "soundex": g.column("soundex"),
                "p_brand": g.column("p_brand"),
                "p_type": g.column("p_type"),
                "n": pc.cast(g.column("count_all"), pa.int64()),
                "min_key": pc.cast(g.column("p_partkey_min"), pa.int64()),
            }
        )

    tbl = rel.bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["soundex", "p_brand", "p_type"],
        [("n", "sum"), ("min_key", "min")],
    )
    empty = pa.table(
        {
            "soundex": pa.array([], pa.string()),
            "n_parts": pa.array([], pa.int64()),
            "canonical_partkey": pa.array([], pa.int64()),
            "canonical_brand": pa.array([], pa.string()),
            "canonical_type": pa.array([], pa.string()),
        }
    )
    if tbl is None or tbl.num_rows == 0:
        return empty
    from collections import defaultdict

    nparts: dict[str, int] = defaultdict(int)
    minkey: dict[str, int] = {}
    brand_n: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    type_n: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for code, br, ty, n, mk in zip(
        tbl.column("soundex").to_pylist(),
        tbl.column("p_brand").to_pylist(),
        tbl.column("p_type").to_pylist(),
        tbl.column("n").to_pylist(),
        tbl.column("min_key").to_pylist(),
    ):
        nparts[code] += n
        minkey[code] = min(minkey.get(code, mk), mk)
        brand_n[code][br] += n
        type_n[code][ty] += n

    def mode(d: dict[str, int]) -> str:
        return min(d, key=lambda v: (-d[v], v))

    codes = sorted(nparts)
    return pa.table(
        {
            "soundex": pa.array(codes, pa.string()),
            "n_parts": pa.array([nparts[c] for c in codes], pa.int64()),
            "canonical_partkey": pa.array(
                [minkey[c] for c in codes], pa.int64()
            ),
            "canonical_brand": pa.array(
                [mode(brand_n[c]) for c in codes], pa.string()
            ),
            "canonical_type": pa.array(
                [mode(type_n[c]) for c in codes], pa.string()
            ),
        }
    )


def _sql_part_golden_record() -> str:
    from ..functions.phonetic import soundex_sql

    return f"""
WITH coded AS (
  SELECT {soundex_sql('p_name')} AS soundex, p_partkey, p_brand, p_type
  FROM part
),
ok AS (SELECT * FROM coded WHERE soundex IS NOT NULL),
base AS (
  SELECT soundex, CAST(COUNT(*) AS BIGINT) AS n_parts,
    CAST(MIN(p_partkey) AS BIGINT) AS canonical_partkey
  FROM ok GROUP BY soundex
),
bmode AS (
  SELECT soundex, p_brand AS canonical_brand FROM (
    SELECT soundex, p_brand, COUNT(*) AS n FROM ok
    GROUP BY soundex, p_brand
  )
  QUALIFY row_number() OVER (
    PARTITION BY soundex ORDER BY n DESC, p_brand) = 1
),
tmode AS (
  SELECT soundex, p_type AS canonical_type FROM (
    SELECT soundex, p_type, COUNT(*) AS n FROM ok
    GROUP BY soundex, p_type
  )
  QUALIFY row_number() OVER (
    PARTITION BY soundex ORDER BY n DESC, p_type) = 1
)
SELECT b.soundex, b.n_parts, b.canonical_partkey,
  bm.canonical_brand, tm.canonical_type
FROM base b
JOIN bmode bm ON bm.soundex = b.soundex
JOIN tmode tm ON tm.soundex = b.soundex
"""


def _sql_part_soundex_blocks() -> str:
    from ..functions.phonetic import soundex_sql

    return f"""
WITH coded AS (
  SELECT {soundex_sql('p_name')} AS soundex, p_name FROM part
)
SELECT soundex, CAST(COUNT(*) AS BIGINT) AS n_parts,
  CAST(COUNT(DISTINCT p_name) AS BIGINT) AS n_names
FROM coded WHERE soundex IS NOT NULL
GROUP BY soundex
ORDER BY soundex
"""


_FLAG_QS = [0.5, 0.9]


def q_price_quantiles_by_flag(sf_dir: str):
    """Grouped exact quantile_disc over the wide price domain — the
    per-group form of `price_quantiles` (two counting passes, no
    sort; group domain = l_returnflag, bounded)."""
    from ..functions.selection import radix_quantiles_by_group

    ds = rel._read_pq(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_extendedprice"],
    ).map_batches(
        lambda b: pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "cents": rel._cents(b.column("l_extendedprice")),
            }
        ),
        batch_format="pyarrow",
    )
    t = radix_quantiles_by_group(ds, "l_returnflag", "cents", _FLAG_QS)
    if t is None:
        return pa.table(
            {
                "l_returnflag": pa.array([], pa.string()),
                "q": pa.array([], pa.float64()),
                "price_cents": pa.array([], pa.int64()),
            }
        )
    return t.rename_columns(["l_returnflag", "q", "price_cents"])


SQL_PRICE_QUANTILES_BY_FLAG = """
WITH c AS (
  SELECT l_returnflag,
         CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS cents
  FROM lineitem
)
SELECT l_returnflag, 0.5::DOUBLE AS q,
       CAST(quantile_disc(cents, 0.5) AS BIGINT) AS price_cents
FROM c GROUP BY l_returnflag
UNION ALL
SELECT l_returnflag, 0.9::DOUBLE,
       CAST(quantile_disc(cents, 0.9) AS BIGINT)
FROM c GROUP BY l_returnflag
ORDER BY l_returnflag, q
"""


def q_doc_stats(sf_dir: str):
    ds = _documents(sf_dir, ["doc_id", "text"])

    def stage(b: pa.Table) -> pa.Table:
        import hashlib

        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        fp = [
            hashlib.md5((t or "").encode("utf-8")).hexdigest()
            for t in text.to_pylist()
        ]
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_tokens": pc.cast(pc.count_substring_regex(text, _TOKEN_RE), pa.int64()),
                "n_chars": pc.cast(pc.utf8_length(text), pa.int64()),
                "symbol_chars": pc.cast(pc.count_substring_regex(text, _SYMBOL_RE), pa.int64()),
                "marker_hits_en": pc.cast(pc.count_substring_regex(text, _EN_MARKER_RE), pa.int64()),
                "fingerprint": pa.array(fp, pa.string()),
            }
        )

    return ds.map_batches(stage, batch_format="pyarrow")


SQL_DOC_STATS = f"""
SELECT doc_id,
  len(regexp_extract_all(text, '{_TOKEN_RE}')) AS n_tokens,
  length(text) AS n_chars,
  len(regexp_extract_all(text, '{_SYMBOL_RE}')) AS symbol_chars,
  len(regexp_extract_all(text, '{_EN_MARKER_RE}')) AS marker_hits_en,
  md5(text) AS fingerprint
FROM documents
"""


_ZRATIO_SCAN_BYTES = 4096


def q_doc_compression(sf_dir: str):
    """Per-document zlib compression ratio — the classic
    repetitiveness/templating signal of webtext quality scoring (a
    near-duplicate boilerplate page compresses far below prose; binary
    junk barely compresses at all). Bounded per-doc work: only the
    first 4 KiB of UTF-8 bytes feed the compressor (sliced zero-copy
    off the Arrow data buffer), level pinned for determinism.
    Rows-only — WHY an oracle is impossible, not just skipped: the
    result IS the output length of DEFLATE (LZ77 window search +
    canonical Huffman coding); no SQL engine exposes the codec, and
    re-implementing bit-exact zlib in SQL is not a derivation an
    oracle could be trusted to get independently right. Exporting the
    compressed lengths would only echo engine output. Range /
    monotonicity / repetition-sensitivity behavior pinned by pytest
    (tests/test_quality_signals.py)."""
    import zlib

    ds = _documents(sf_dir, ["doc_id", "text"])

    def stage(b: pa.Table) -> pa.Table:
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        text = pc.fill_null(text, "")
        if len(text) == 0 or text.buffers()[2] is None:
            return pa.table(
                {
                    "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                    "raw_len": pa.array([0] * len(b), pa.int64()),
                    "comp_len": pa.array([0] * len(b), pa.int64()),
                    "zratio": pa.array([0.0] * len(b), pa.float64()),
                }
            )
        from ..functions.arrowbuf import varwidth_offsets

        offs = varwidth_offsets(text)
        raw = memoryview(text.buffers()[2])
        starts = offs[:-1]
        ends = np.minimum(offs[1:], starts + _ZRATIO_SCAN_BYTES)
        raw_len = (ends - starts).astype(np.int64)
        comp_len = np.fromiter(
            (
                len(zlib.compress(raw[s:e], 6)) if e > s else 0
                for s, e in zip(starts, ends)
            ),
            np.int64,
            len(starts),
        )
        ratio = np.zeros(len(starts), np.float64)
        np.divide(comp_len, raw_len, out=ratio, where=raw_len > 0)
        return pa.table(
            {
                "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                "raw_len": pa.array(raw_len, pa.int64()),
                "comp_len": pa.array(comp_len, pa.int64()),
                "zratio": pa.array(ratio, pa.float64()),
            }
        )

    return ds.map_batches(stage, batch_format="pyarrow")


def q_doc_quality_scores(sf_dir: str):
    """Per-document quality scores (length / symbol / stopword ratios)
    — the Gopher/C4-style scoring surface as explicit float columns.
    Every ratio is ONE division of integer counts, so DuckDB reproduces
    the doubles bit-for-bit."""
    ds = _documents(sf_dir, ["doc_id", "text"])

    def stage(b: pa.Table) -> pa.Table:
        import numpy as np

        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        n_tokens = pc.cast(pc.count_substring_regex(text, _TOKEN_RE), pa.int64()).to_numpy(zero_copy_only=False)
        n_chars = pc.cast(pc.utf8_length(text), pa.int64()).to_numpy(zero_copy_only=False)
        symbols = pc.cast(pc.count_substring_regex(text, _SYMBOL_RE), pa.int64()).to_numpy(zero_copy_only=False)
        markers = pc.cast(pc.count_substring_regex(text, _EN_MARKER_RE), pa.int64()).to_numpy(zero_copy_only=False)
        tok_safe = np.maximum(n_tokens, 1).astype(np.float64)
        chr_safe = np.maximum(n_chars, 1).astype(np.float64)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "symbol_ratio": pa.array(symbols / chr_safe, pa.float64()),
                "stopword_ratio": pa.array(markers / tok_safe, pa.float64()),
                "avg_token_chars": pa.array(n_chars / tok_safe, pa.float64()),
            }
        )

    return ds.map_batches(stage, batch_format="pyarrow")


SQL_DOC_QUALITY = f"""
WITH c AS (
  SELECT doc_id,
    len(regexp_extract_all(text, '{_TOKEN_RE}')) AS n_tokens,
    length(text) AS n_chars,
    len(regexp_extract_all(text, '{_SYMBOL_RE}')) AS symbols,
    len(regexp_extract_all(text, '{_EN_MARKER_RE}')) AS markers
  FROM documents
)
SELECT doc_id, n_tokens,
  CAST(symbols AS DOUBLE) / CAST(greatest(n_chars, 1) AS DOUBLE) AS symbol_ratio,
  CAST(markers AS DOUBLE) / CAST(greatest(n_tokens, 1) AS DOUBLE) AS stopword_ratio,
  CAST(n_chars AS DOUBLE) / CAST(greatest(n_tokens, 1) AS DOUBLE) AS avg_token_chars
FROM c
"""


# --- encoding hygiene --------------------------------------------------
# Web-crawl text arrives with decode damage: U+FFFD replacement chars
# (bad byte sequences), stray C0/DEL control chars, and mojibake
# (UTF-8 bytes decoded once too often as Latin-1, the 'Ã©'-for-'é'
# signature: U+00C3/U+00C2 followed by a char in U+00A0..U+00BF).
# One vectorized RE2 pass per class over the column, plus a scrub that
# strips control + replacement chars — tab/newline/CR are preserved.
# Both engines run RE2, so the SQL oracle reproduces counts AND the
# scrubbed text byte-for-byte. Recast of the reference's text-hygiene
# checks (detect_pitfalls_main.py's placeholder/boilerplate scans) for
# the crawl-encoding failure mode the reference never sees.
_ENC_NONASCII_RE = r"[^\x{00}-\x{7F}]"
_ENC_CONTROL_RE = r"[\x{00}-\x{08}\x{0B}\x{0C}\x{0E}-\x{1F}\x{7F}]"
_ENC_REPLACEMENT_RE = r"\x{FFFD}"
_ENC_MOJIBAKE_RE = r"[\x{00C3}\x{00C2}][\x{00A0}-\x{00BF}]"
_ENC_SCRUB_RE = r"[\x{00}-\x{08}\x{0B}\x{0C}\x{0E}-\x{1F}\x{7F}\x{FFFD}]"


def q_doc_encoding_flags(sf_dir: str):
    """(doc_id, n_non_ascii, n_control, n_replacement, n_mojibake,
    clean_text): per-document encoding-damage counters plus the
    control/replacement-scrubbed text. Pure per-batch column kernels —
    zero shuffle, streams at any scale."""
    ds = _documents(sf_dir, ["doc_id", "text"])

    def stage(b: pa.Table) -> pa.Table:
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()

        def cnt(p):
            return pc.cast(pc.count_substring_regex(text, p), pa.int64())

        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_non_ascii": cnt(_ENC_NONASCII_RE),
                "n_control": cnt(_ENC_CONTROL_RE),
                "n_replacement": cnt(_ENC_REPLACEMENT_RE),
                "n_mojibake": cnt(_ENC_MOJIBAKE_RE),
                "clean_text": pc.replace_substring_regex(
                    text, pattern=_ENC_SCRUB_RE, replacement=""
                ),
            }
        )

    return ds.map_batches(stage, batch_format="pyarrow")


SQL_DOC_ENCODING = f"""
SELECT doc_id,
  len(regexp_extract_all(text, '{_ENC_NONASCII_RE}')) AS n_non_ascii,
  len(regexp_extract_all(text, '{_ENC_CONTROL_RE}')) AS n_control,
  len(regexp_extract_all(text, '{_ENC_REPLACEMENT_RE}')) AS n_replacement,
  len(regexp_extract_all(text, '{_ENC_MOJIBAKE_RE}')) AS n_mojibake,
  regexp_replace(text, '{_ENC_SCRUB_RE}', '', 'g') AS clean_text
FROM documents
"""


# --- readability -------------------------------------------------------
# Automated Readability Index over exact integer counts: letters+digits
# per char class, tokens per \\S+, sentences per [.!?]+ run. The float
# is three IEEE ops in a fixed association — a*(c/w) + b*(w/s) - k —
# so DuckDB reproduces it bit-for-bit (literals CAST AS DOUBLE; DuckDB
# parses bare decimals as DECIMAL). The quality-score surface a corpus
# curation pass bins on; scale shape identical to doc_quality_scores.
_ARI_CHAR_RE = r"[A-Za-z0-9]"
_SENT_RE = r"[.!?]+"


def _ari_arrays(text: pa.Array):
    """(chars, words, sentences, ari) numpy arrays for a text column —
    the association is mirrored verbatim by SQL_DOC_READABILITY and
    the curate_readability oracle."""
    import numpy as np

    ch = pc.cast(pc.count_substring_regex(text, _ARI_CHAR_RE), pa.int64()).to_numpy(zero_copy_only=False)
    w = pc.cast(pc.count_substring_regex(text, _TOKEN_RE), pa.int64()).to_numpy(zero_copy_only=False)
    s = pc.cast(pc.count_substring_regex(text, _SENT_RE), pa.int64()).to_numpy(zero_copy_only=False)
    wd = np.maximum(w, 1).astype(np.float64)
    ws = np.maximum(s, 1).astype(np.float64)
    ari = (4.71 * (ch / wd) + 0.5 * (w / ws)) - 21.43
    return ch, w, s, ari


def q_doc_readability(sf_dir: str):
    """(doc_id, n_ari_chars, n_words, n_sentences, ari): Automated
    Readability Index per document from exact integer counts."""
    ds = _documents(sf_dir, ["doc_id", "text"])

    def stage(b: pa.Table) -> pa.Table:
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        ch, w, s, ari = _ari_arrays(text)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_ari_chars": pa.array(ch, pa.int64()),
                "n_words": pa.array(w, pa.int64()),
                "n_sentences": pa.array(s, pa.int64()),
                "ari": pa.array(ari, pa.float64()),
            }
        )

    return ds.map_batches(stage, batch_format="pyarrow")


SQL_DOC_READABILITY = f"""
WITH c AS (
  SELECT doc_id,
    len(regexp_extract_all(text, '{_ARI_CHAR_RE}')) AS n_ari_chars,
    len(regexp_extract_all(text, '{_TOKEN_RE}')) AS n_words,
    len(regexp_extract_all(text, '{_SENT_RE}')) AS n_sentences
  FROM documents
)
SELECT doc_id, n_ari_chars, n_words, n_sentences,
  (CAST(4.71 AS DOUBLE)
     * (CAST(n_ari_chars AS DOUBLE) / CAST(greatest(n_words, 1) AS DOUBLE))
   + CAST(0.5 AS DOUBLE)
     * (CAST(n_words AS DOUBLE) / CAST(greatest(n_sentences, 1) AS DOUBLE)))
  - CAST(21.43 AS DOUBLE) AS ari
FROM c
"""


# --- readability-band curation ------------------------------------------
# The per-language quality-band filter a curation pass actually runs:
# keep documents whose ARI sits inside [P5, P95] OF THEIR OWN
# LANGUAGE (a readability cut computed on the corpus mix would let a
# verbose language's tails crowd out a terse one's core). The
# thresholds come from the PARTITION-INVARIANT sampled quantiles
# (bottom-k splitmix64(doc_id) sample per lang — deterministic
# function of the row set, so a resumed/retried run reproduces the
# same cut bit-for-bit); they're a |langs|×2 dict broadcast once via
# ray.put and applied in a vectorized band filter. Scale shape: two
# streaming passes over documents (score, filter), one bounded
# sample merge between them — nothing else shuffles.

_CURATE_ARI_PCTS = (5, 95)


def q_curate_readability(sf_dir: str):
    """(doc_id, lang, ari): documents whose ARI is within their own
    language's [P5, P95] sampled band."""
    import ray

    from ..functions.sketch import sampled_quantiles_by_key

    ds = _documents(sf_dir, ["doc_id", "text", "lang"])

    def with_ari(b: pa.Table) -> pa.Table:
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        _ch, _w, _s, ari = _ari_arrays(text)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "lang": b.column("lang"),
                "ari": pa.array(ari, pa.float64()),
            }
        )

    scored = ds.map_batches(with_ari, batch_format="pyarrow")
    qt = sampled_quantiles_by_key(
        scored, "lang", "doc_id", "ari", pcts=_CURATE_ARI_PCTS
    )
    thr: dict[str, dict[int, float]] = {}
    for lang, pct, est in zip(
        qt.column("lang").to_pylist(),
        qt.column("pct").to_pylist(),
        qt.column("est").to_pylist(),
    ):
        thr.setdefault(lang, {})[pct] = est
    lo_p, hi_p = _CURATE_ARI_PCTS
    ref = ray.put({k: (v[lo_p], v[hi_p]) for k, v in thr.items()})

    def band(b: pa.Table) -> pa.Table:
        import numpy as np

        t = ray.get(ref)
        enc = b.column("lang").combine_chunks().dictionary_encode()
        bounds = [t[l] for l in enc.dictionary.to_pylist()]
        lo = np.array([x[0] for x in bounds], np.float64)
        hi = np.array([x[1] for x in bounds], np.float64)
        idx = enc.indices.to_numpy(zero_copy_only=False)
        ari = b.column("ari").to_numpy(zero_copy_only=False)
        keep = (ari >= lo[idx]) & (ari <= hi[idx])
        return b.filter(pa.array(keep))

    return scored.map_batches(band, batch_format="pyarrow")


def _sql_curate_readability() -> str:
    from ..functions.sketch import SQ_K

    sm, cte, col = _sql_splitmix_ctes("crm", "ids", "did")
    lo_p, hi_p = _CURATE_ARI_PCTS
    return f"""
WITH c AS (
  SELECT doc_id, lang,
    len(regexp_extract_all(text, '{_ARI_CHAR_RE}')) AS n_ari_chars,
    len(regexp_extract_all(text, '{_TOKEN_RE}')) AS n_words,
    len(regexp_extract_all(text, '{_SENT_RE}')) AS n_sentences
  FROM documents
),
r AS (
  SELECT doc_id, lang,
    (CAST(4.71 AS DOUBLE)
       * (CAST(n_ari_chars AS DOUBLE) / CAST(greatest(n_words, 1) AS DOUBLE))
     + CAST(0.5 AS DOUBLE)
       * (CAST(n_words AS DOUBLE) / CAST(greatest(n_sentences, 1) AS DOUBLE)))
    - CAST(21.43 AS DOUBLE) AS ari
  FROM c
),
ids AS (SELECT lang, CAST(doc_id AS UBIGINT) AS did, ari FROM r),
{sm.strip()},
samp AS (
  SELECT lang, ari FROM {cte}
  QUALIFY row_number() OVER (PARTITION BY lang ORDER BY {col}) <= {SQ_K}
),
ss AS (
  SELECT lang, ari,
    row_number() OVER (PARTITION BY lang ORDER BY ari) AS rn,
    COUNT(*) OVER (PARTITION BY lang) AS n
  FROM samp
),
lo AS (
  SELECT lang, ari AS lo FROM ss
  WHERE rn - 1 = LEAST(n - 1, (n * {lo_p}) // 100)
),
hi AS (
  SELECT lang, ari AS hi FROM ss
  WHERE rn - 1 = LEAST(n - 1, (n * {hi_p}) // 100)
)
SELECT r.doc_id, r.lang, r.ari
FROM r JOIN lo USING (lang) JOIN hi USING (lang)
WHERE r.ari >= lo.lo AND r.ari <= hi.hi
"""


# --- ECDF percentile normalization ---------------------------------------
# Rank-normalize a quality signal within its language: pctl =
# |{sample ≤ v}|·100 // k against the per-lang bottom-k
# splitmix64(doc_id) sample — the deterministic-ECDF trick that lets
# heterogeneous signals (ARI, entropy, classifier score) be blended
# on a common 0..100 scale without a global sort. Pure integer
# output, bitwise partition-invariant (the sample is a function of
# the row SET), two streaming passes + one bounded sample merge.


def q_quality_percentiles(sf_dir: str):
    """(doc_id, lang, ari, pctl): each document's ARI percentile
    within its own language's sampled ECDF."""
    import ray

    from ..functions.hashing import splitmix64_np
    from ..functions.sketch import SQ_K, _key_segments, _sq_bottomk

    ds = _documents(sf_dir, ["doc_id", "text", "lang"])

    def with_ari(b: pa.Table) -> pa.Table:
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        _ch, _w, _s, ari = _ari_arrays(text)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "lang": b.column("lang"),
                "ari": pa.array(ari, pa.float64()),
            }
        )

    scored = ds.map_batches(with_ari, batch_format="pyarrow")

    def sample_partial(b: pa.Table) -> pa.Table:
        keys = b.column("lang").to_numpy(zero_copy_only=False)
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        vals = b.column("ari").to_numpy(zero_copy_only=False)
        hs = splitmix64_np(ids.astype(np.uint64))
        uk, starts, ends, order = _key_segments(keys.astype(str))
        hs, vals = hs[order], vals[order]
        out_k, out_h, out_v = [], [], []
        for key, a, e in zip(uk.tolist(), starts, ends):
            h, v = _sq_bottomk(hs[a:e], vals[a:e], SQ_K)
            out_k.extend([key] * len(h))
            out_h.append(h)
            out_v.append(v)
        return pa.table(
            {
                "lang": pa.array(out_k, pa.string()),
                "h": pa.array(
                    np.concatenate(out_h) if out_h else np.empty(0, np.uint64),
                    pa.uint64(),
                ),
                "v": pa.array(
                    np.concatenate(out_v) if out_v else np.empty(0, np.float64),
                    pa.float64(),
                ),
            }
        )

    parts = [
        t
        for t in ray.get(
            scored.map_batches(sample_partial, batch_format="pyarrow")
            .materialize()
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    samples: dict[str, np.ndarray] = {}
    if parts:
        st = pa.concat_tables(parts)
        langs = st.column("lang").to_numpy(zero_copy_only=False).astype(str)
        hs = st.column("h").to_numpy(zero_copy_only=False)
        vs = st.column("v").to_numpy(zero_copy_only=False)
        for lang in np.unique(langs).tolist():
            sel = langs == lang
            h, v = _sq_bottomk(hs[sel], vs[sel], SQ_K)
            samples[lang] = np.sort(v)
    ref = ray.put(samples)

    def pctl(b: pa.Table) -> pa.Table:
        smp = ray.get(ref)
        enc = b.column("lang").combine_chunks().dictionary_encode()
        idx = enc.indices.to_numpy(zero_copy_only=False)
        ari = b.column("ari").to_numpy(zero_copy_only=False)
        out = np.zeros(len(ari), np.int64)
        for code, lang in enumerate(enc.dictionary.to_pylist()):
            s = smp[lang]
            m = idx == code
            out[m] = (
                np.searchsorted(s, ari[m], side="right") * 100 // len(s)
            )
        return b.append_column("pctl", pa.array(out, pa.int64()))

    return scored.map_batches(pctl, batch_format="pyarrow")


def _sql_quality_percentiles() -> str:
    from ..functions.sketch import SQ_K

    sm, cte, col = _sql_splitmix_ctes("qpm", "ids", "did")
    return f"""
WITH c AS (
  SELECT doc_id, lang,
    len(regexp_extract_all(text, '{_ARI_CHAR_RE}')) AS n_ari_chars,
    len(regexp_extract_all(text, '{_TOKEN_RE}')) AS n_words,
    len(regexp_extract_all(text, '{_SENT_RE}')) AS n_sentences
  FROM documents
),
r AS (
  SELECT doc_id, lang,
    (CAST(4.71 AS DOUBLE)
       * (CAST(n_ari_chars AS DOUBLE) / CAST(greatest(n_words, 1) AS DOUBLE))
     + CAST(0.5 AS DOUBLE)
       * (CAST(n_words AS DOUBLE) / CAST(greatest(n_sentences, 1) AS DOUBLE)))
    - CAST(21.43 AS DOUBLE) AS ari
  FROM c
),
ids AS (SELECT lang, CAST(doc_id AS UBIGINT) AS did, ari FROM r),
{sm.strip()},
samp AS (
  SELECT lang, ari AS v FROM {cte}
  QUALIFY row_number() OVER (PARTITION BY lang ORDER BY {col}) <= {SQ_K}
),
sn AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS k FROM samp GROUP BY lang),
cnt AS (
  SELECT r.doc_id,
    CAST(SUM(CASE WHEN s.v <= r.ari THEN 1 ELSE 0 END) AS BIGINT) AS le
  FROM r JOIN samp s USING (lang)
  GROUP BY r.doc_id
)
SELECT r.doc_id, r.lang, r.ari,
  CAST(cnt.le * 100 // sn.k AS BIGINT) AS pctl
FROM r JOIN cnt USING (doc_id) JOIN sn USING (lang)
"""


# --- per-source language-mix divergence ---------------------------------
# KL(P_source ‖ P_corpus) over the language distribution: the
# curation metric that flags a crawl source whose language mix
# diverges from the corpus (a "french-forum" source inside an
# English-heavy corpus scores high — re-weight or re-route it before
# mixing). Scale shape: per-batch (source, lang, n) count partials —
# 24 B rows, the only shuffle — merged by the bounded driver reduce
# (|sources| × |langs| is a metadata-sized domain at any corpus
# size). The float finish is one ln per (source, lang) term —
# math.log is the same libm DuckDB's ln binds, bit-identical — and
# the per-source sum is a SEQUENTIAL left fold in lang-ascending
# order, mirrored by the oracle's list_sum(list(term ORDER BY lang)).


def q_source_lang_kl(sf_dir: str):
    """(source, n_docs, kl_lang): per-source KL divergence of the
    language distribution vs the whole corpus."""
    import math

    ds = _documents(sf_dir, ["source", "lang"])

    def partial(b: pa.Table) -> pa.Table:
        g = (
            pa.table({"source": b.column("source"), "lang": b.column("lang")})
            .group_by(["source", "lang"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["source", "lang", "n"])

    tbl = rel.bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source", "lang"],
        [("n", "sum")],
    )
    if tbl is None or not tbl.num_rows:
        return pa.table(
            {
                "source": pa.array([], pa.string()),
                "n_docs": pa.array([], pa.int64()),
                "kl_lang": pa.array([], pa.float64()),
            }
        )
    src = tbl.column("source").to_pylist()
    lang = tbl.column("lang").to_pylist()
    n = tbl.column("n").to_pylist()
    tot = sum(n)
    tot_s: dict[str, int] = {}
    tot_l: dict[str, int] = {}
    for s, l, c in zip(src, lang, n):
        tot_s[s] = tot_s.get(s, 0) + c
        tot_l[l] = tot_l.get(l, 0) + c
    # sequential left fold in lang-ascending order per source — the
    # bounded table is |sources|×|langs| rows, never the data
    kl: dict[str, float] = {s: 0.0 for s in tot_s}
    for s, l, c in sorted(zip(src, lang, n), key=lambda r: (r[0], r[1])):
        p = float(c) / float(tot_s[s])
        q = float(tot_l[l]) / float(tot)
        kl[s] += p * math.log(p / q)
    out = sorted(tot_s)
    return pa.table(
        {
            "source": pa.array(out, pa.string()),
            "n_docs": pa.array([tot_s[s] for s in out], pa.int64()),
            "kl_lang": pa.array([kl[s] for s in out], pa.float64()),
        }
    )


SQL_SOURCE_LANG_KL = """
WITH c AS (
  SELECT source, lang, CAST(COUNT(*) AS BIGINT) AS n
  FROM documents GROUP BY source, lang
),
ts AS (SELECT source, CAST(SUM(n) AS BIGINT) AS tot_s FROM c GROUP BY source),
tl AS (SELECT lang, CAST(SUM(n) AS BIGINT) AS tot_l FROM c GROUP BY lang),
tt AS (SELECT CAST(SUM(n) AS BIGINT) AS tot FROM c),
terms AS (
  SELECT c.source, c.lang,
    (CAST(c.n AS DOUBLE) / CAST(ts.tot_s AS DOUBLE))
      * ln((CAST(c.n AS DOUBLE) / CAST(ts.tot_s AS DOUBLE))
           / (CAST(tl.tot_l AS DOUBLE) / CAST(tt.tot AS DOUBLE))) AS term
  FROM c JOIN ts USING (source) JOIN tl USING (lang) CROSS JOIN tt
)
SELECT t.source, ts.tot_s AS n_docs,
  list_sum(list(t.term ORDER BY t.lang)) AS kl_lang
FROM terms t JOIN ts ON ts.source = t.source
GROUP BY t.source, ts.tot_s
"""


# --- cross-source duplicate leakage ---------------------------------------
# Which duplicate clusters SPAN crawl sources? A dup group confined
# to one source is a re-crawl; one spanning sources is syndicated /
# mirrored content — the groups a dedup policy should prioritize
# (and the lineage a licensing audit asks for). Corpus: documents ∪
# exact copies at +1e6 tagged source='mirror' (so cross-source groups
# exist non-vacuously). Scale shape: only (hash128, doc_id, source)
# rows shuffle on the hashed content-hash partition; per-partition
# segment math computes size / min-id / distinct-source count with no
# per-group Python. The oracle groups by the text itself — the same
# 128-bit-hash ≡ byte-equality equivalence every dedup oracle pins.


def q_dedup_cross_source(sf_dir: str):
    """(canonical_id, group_size, n_sources) for duplicate groups
    spanning more than one source."""
    from ..functions.hashing import hash_str_arrow_u128, splitmix64_np
    from ..partitioning import adaptive_partitions, parquet_rows_hint

    ds = _documents(sf_dir, ["doc_id", "text", "source"])
    hint = parquet_rows_hint(ds)
    n_parts = adaptive_partitions((hint or 0) or None, row_bytes=48)

    def expand_hash(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_numpy(zero_copy_only=False)
        ex = b.filter(pa.array(d % 10 == 0))
        t = pa.table(
            {
                "doc_id": pa.concat_arrays(
                    [
                        b.column("doc_id").combine_chunks(),
                        pc.add(ex.column("doc_id"), 1_000_000).combine_chunks(),
                    ]
                ),
                "text": pa.concat_arrays(
                    [
                        b.column("text").combine_chunks(),
                        ex.column("text").combine_chunks(),
                    ]
                ),
                "source": pa.concat_arrays(
                    [
                        b.column("source").combine_chunks(),
                        pa.array(["mirror"] * ex.num_rows, pa.string()),
                    ]
                ),
            }
        )
        lo, hi = hash_str_arrow_u128(t.column("text").combine_chunks())
        part = (splitmix64_np(lo) % n_parts).astype(np.int64)
        return pa.table(
            {
                "part": pa.array(part),
                "h_lo": pa.array(lo.view(np.int64)),
                "h_hi": pa.array(hi.view(np.int64)),
                "doc_id": t.column("doc_id"),
                "source": t.column("source"),
            }
        )

    def agg(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "canonical_id": pa.array([], pa.int64()),
                "group_size": pa.array([], pa.int64()),
                "n_sources": pa.array([], pa.int64()),
            }
        )
        if g.num_rows == 0:
            return empty
        lo = g.column("h_lo").to_numpy(zero_copy_only=False)
        hi = g.column("h_hi").to_numpy(zero_copy_only=False)
        ids = g.column("doc_id").to_numpy(zero_copy_only=False)
        src = g.column("source").to_numpy(zero_copy_only=False).astype(str)
        order = np.lexsort((ids, src, hi, lo))
        lo, hi, ids, src = lo[order], hi[order], ids[order], src[order]
        new_grp = np.concatenate(
            [[True], (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])]
        )
        gidx = np.cumsum(new_grp) - 1
        n_grp = int(gidx[-1]) + 1
        size = np.bincount(gidx, minlength=n_grp)
        canon = np.minimum.reduceat(ids, np.flatnonzero(new_grp))
        src_change = np.concatenate([[True], src[1:] != src[:-1]]) | new_grp
        nsrc = np.bincount(gidx[src_change], minlength=n_grp)
        keep = nsrc > 1
        if not keep.any():
            return empty
        return pa.table(
            {
                "canonical_id": pa.array(canon[keep], pa.int64()),
                "group_size": pa.array(
                    size[keep].astype(np.int64), pa.int64()
                ),
                "n_sources": pa.array(
                    nsrc[keep].astype(np.int64), pa.int64()
                ),
            }
        )

    return (
        ds.map_batches(expand_hash, batch_format="pyarrow")
        .groupby("part")
        .map_groups(agg, batch_format="pyarrow")
    )


SQL_DEDUP_CROSS_SOURCE = """
WITH corpus AS (
  SELECT doc_id, text, source FROM documents
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id, text, 'mirror' AS source
  FROM documents WHERE doc_id % 10 = 0
),
g AS (
  SELECT text, min(doc_id) AS canonical_id,
         CAST(COUNT(*) AS BIGINT) AS group_size,
         CAST(COUNT(DISTINCT source) AS BIGINT) AS n_sources
  FROM corpus GROUP BY text
)
SELECT canonical_id, group_size, n_sources FROM g WHERE n_sources > 1
"""


# --- weighted random sampling (Efraimidis–Spirakis) -----------------------
# k documents sampled WITHOUT replacement with probability ∝ length —
# the "sample proportional to token mass" primitive corpus audits
# need. ES keys: u = (splitmix64(doc_id)>>11 + 1) / 2⁵³ (exact dyadic
# — both the shift and the division are exact in float64, so no
# engine-vs-oracle rounding), key = ln(u)/w, global top-k by (key
# DESC, doc_id ASC). Deterministic (hash-seeded), reproducible at any
# partition count. Float discipline: the per-batch prune runs on
# vectorized np.log with a relative slack window (np.log drifts ≤1
# ulp from libm), then the surviving candidates are re-scored with
# math.log — bit-identical to DuckDB ln — before the total-order
# top-k. Only ≤(k+slack) rows per block enter the final sort.

_WS_K = 100


def q_weighted_sample(sf_dir: str):
    """(doc_id, n_chars, es_key): the ES weighted sample of size k."""
    import math

    from ..functions.hashing import splitmix64_np

    ds = _documents(sf_dir, ["doc_id", "n_chars"])

    def candidates(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        w = np.maximum(
            b.column("n_chars").to_numpy(zero_copy_only=False), 1
        ).astype(np.float64)
        hs = (splitmix64_np(ids.astype(np.uint64)) >> np.uint64(11)).astype(
            np.int64
        )
        u = (hs + 1).astype(np.float64) / 9007199254740992.0
        approx = np.log(u) / w
        if len(ids) > _WS_K:
            kth = np.partition(approx, len(approx) - _WS_K)[
                len(approx) - _WS_K
            ]
            sel = np.flatnonzero(approx >= kth - 1e-9 * abs(kth))
        else:
            sel = np.arange(len(ids))
        key = np.array(
            [math.log(u[i]) / w[i] for i in sel], np.float64
        )
        return pa.table(
            {
                "doc_id": pa.array(ids[sel], pa.int64()),
                "n_chars": b.column("n_chars").take(
                    pa.array(sel, pa.int64())
                ),
                "es_key": pa.array(key, pa.float64()),
            }
        )

    return _sorted_topk(
        ds.map_batches(candidates, batch_format="pyarrow"),
        [("es_key", "descending"), ("doc_id", "ascending")],
        _WS_K,
    )


def _sql_weighted_sample() -> str:
    sm, cte, col = _sql_splitmix_ctes("wsm", "ids", "did")
    return f"""
WITH ids AS (
  SELECT doc_id, n_chars, CAST(doc_id AS UBIGINT) AS did FROM documents
),
{sm.strip()},
keys AS (
  SELECT doc_id, n_chars,
    ln(CAST(CAST({col} >> 11 AS BIGINT) + 1 AS DOUBLE)
       / CAST(9007199254740992 AS DOUBLE))
      / CAST(greatest(n_chars, 1) AS DOUBLE) AS es_key
  FROM {cte}
)
SELECT doc_id, n_chars, es_key FROM keys
QUALIFY row_number() OVER (ORDER BY es_key DESC, doc_id ASC) <= {_WS_K}
"""


# --- per-source readability drift ------------------------------------------
# Which crawl sources read differently from the corpus? Pooled-count
# ARI per source (the ARI formula applied to the source's SUMMED
# char/word/sentence counts — exact int64 sums, so the per-source
# number is deterministic at any partition layout, unlike a mean of
# per-doc floats), then a z-score across sources. The cross-source
# mean/variance are sequential source-ascending folds ≙ the oracle's
# list_sum(list(x ORDER BY source)); only (source, 4 counters)
# partials ever shuffle.


def q_source_readability_drift(sf_dir: str):
    """(source, n_docs, pooled_ari, z): per-source pooled-count ARI
    and its z-score across sources."""
    import math

    ds = _documents(sf_dir, ["source", "text"])

    def partial(b: pa.Table) -> pa.Table:
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        ch, w, s, _ari = _ari_arrays(text)
        t = pa.table(
            {
                "source": b.column("source"),
                "ch": pa.array(ch, pa.int64()),
                "w": pa.array(w, pa.int64()),
                "s": pa.array(s, pa.int64()),
            }
        )
        g = t.group_by(["source"]).aggregate(
            [([], "count_all"), ("ch", "sum"), ("w", "sum"), ("s", "sum")]
        )
        return g.rename_columns(["source", "n_docs", "ch", "w", "s"])

    tbl = rel.bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source"],
        [("n_docs", "sum"), ("ch", "sum"), ("w", "sum"), ("s", "sum")],
    )
    empty = pa.table(
        {
            "source": pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "pooled_ari": pa.array([], pa.float64()),
            "z": pa.array([], pa.float64()),
        }
    )
    if tbl is None or not tbl.num_rows:
        return empty
    rows = sorted(
        zip(
            tbl.column("source").to_pylist(),
            tbl.column("n_docs").to_pylist(),
            tbl.column("ch").to_pylist(),
            tbl.column("w").to_pylist(),
            tbl.column("s").to_pylist(),
        )
    )
    aris = []
    for _src, _nd, ch, w, s in rows:
        aris.append(
            (
                4.71 * (float(ch) / float(max(w, 1)))
                + 0.5 * (float(w) / float(max(s, 1)))
            )
            - 21.43
        )
    n = len(aris)
    acc = 0.0
    for v in aris:               # sequential fold ≙ list_sum
        acc += v
    mean = acc / float(n)
    vacc = 0.0
    for v in aris:
        vacc += (v - mean) * (v - mean)
    var = vacc / float(n)
    sd = math.sqrt(var) if var > 0.0 else None
    return pa.table(
        {
            "source": pa.array([r[0] for r in rows], pa.string()),
            "n_docs": pa.array([r[1] for r in rows], pa.int64()),
            "pooled_ari": pa.array(aris, pa.float64()),
            "z": pa.array(
                [None if sd is None else (v - mean) / sd for v in aris],
                pa.float64(),
            ),
        }
    )


SQL_SOURCE_READABILITY_DRIFT = f"""
WITH c AS (
  SELECT source,
    len(regexp_extract_all(text, '{_ARI_CHAR_RE}')) AS ch,
    len(regexp_extract_all(text, '{_TOKEN_RE}')) AS w,
    len(regexp_extract_all(text, '{_SENT_RE}')) AS s
  FROM documents
),
p AS (
  SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
    CAST(SUM(ch) AS BIGINT) AS ch, CAST(SUM(w) AS BIGINT) AS w,
    CAST(SUM(s) AS BIGINT) AS s
  FROM c GROUP BY source
),
a AS (
  SELECT source, n_docs,
    (CAST(4.71 AS DOUBLE)
       * (CAST(ch AS DOUBLE) / CAST(greatest(w, 1) AS DOUBLE))
     + CAST(0.5 AS DOUBLE)
       * (CAST(w AS DOUBLE) / CAST(greatest(s, 1) AS DOUBLE)))
    - CAST(21.43 AS DOUBLE) AS pooled_ari
  FROM p
),
m AS (
  SELECT list_sum(list(pooled_ari ORDER BY source))
           / CAST(COUNT(*) AS DOUBLE) AS mean,
         CAST(COUNT(*) AS DOUBLE) AS n
  FROM a
),
v AS (
  SELECT list_sum(
           list_transform(list(a.pooled_ari ORDER BY a.source),
                          x -> (x - m.mean) * (x - m.mean)))
         / m.n AS var, m.mean AS mean
  FROM a CROSS JOIN m GROUP BY m.n, m.mean
)
SELECT a.source, a.n_docs, a.pooled_ari,
  CASE WHEN v.var > CAST(0 AS DOUBLE)
       THEN (a.pooled_ari - v.mean) / sqrt(v.var) ELSE NULL END AS z
FROM a CROSS JOIN v
"""


# --- source concentration (Gini) -----------------------------------------
# How concentrated is corpus volume across crawl sources? Gini over
# per-source character totals — G = (2·Σi·xᵢ − (n+1)·Σxᵢ) / (n·Σxᵢ)
# on the ascending-sorted totals: exact int64 numerator/denominator,
# ONE float division, so the oracle hashes bit-for-bit. The sort is
# driver-side over the bounded |sources| domain; only (source, Σchars)
# partials ever shuffle. Int64 bound: Σi·x < |sources| × total-chars —
# ~1e17 at 100 TB, inside int64 with 90× margin.


def q_source_gini(sf_dir: str):
    """One row: (n_sources, total_chars, gini) of per-source
    character-volume concentration."""
    ds = _documents(sf_dir, ["source", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {"source": b.column("source"), "x": b.column("n_chars")}
            )
            .group_by(["source"])
            .aggregate([("x", "sum")])
        )
        return g.rename_columns(["source", "x"])

    tbl = rel.bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["source"],
        [("x", "sum")],
    )
    if tbl is None or not tbl.num_rows:
        return pa.table(
            {
                "n_sources": pa.array([], pa.int64()),
                "total_chars": pa.array([], pa.int64()),
                "gini": pa.array([], pa.float64()),
            }
        )
    rows = sorted(
        zip(
            tbl.column("x").to_pylist(),
            tbl.column("source").to_pylist(),
        )
    )
    n = len(rows)
    s0 = sum(x for x, _ in rows)
    s1 = sum(i * x for i, (x, _) in enumerate(rows, start=1))
    gini = float(2 * s1 - (n + 1) * s0) / float(n * s0)
    return pa.table(
        {
            "n_sources": pa.array([n], pa.int64()),
            "total_chars": pa.array([s0], pa.int64()),
            "gini": pa.array([gini], pa.float64()),
        }
    )


SQL_SOURCE_GINI = """
WITH s AS (
  SELECT source, CAST(SUM(n_chars) AS BIGINT) AS x
  FROM documents GROUP BY source
),
r AS (
  SELECT x, CAST(row_number() OVER (ORDER BY x, source) AS BIGINT) AS i
  FROM s
),
a AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(x) AS BIGINT) AS s0,
         CAST(SUM(i * x) AS BIGINT) AS s1
  FROM r
)
SELECT n AS n_sources, s0 AS total_chars,
  CAST(2 * s1 - (n + 1) * s0 AS DOUBLE) / CAST(n * s0 AS DOUBLE) AS gini
FROM a
"""


# --- gate → dedup composition -----------------------------------------
# The end-to-end shape a training-data pipeline actually runs: quality
# gate, then exact dedup of the KEPT scrubbed text, survivors out.
# Input: documents plus one exact copy for doc_id%2=0 and a second
# for doc_id%6=0 (groups of up to 3). The copy offsets are ≡0 (mod 13)
# so a copy receives the SAME text injection as its original
# (synthesize_pages keys injections on doc_id % 13) — copies stay
# byte-identical after synthesis and form real dup groups; their
# urls/timestamps differ (the offset is NOT divisible by 11/50/20, so
# the url template class and its {h}/{k} parts all shift), and the
# gate genuinely re-decides each copy (a copy can die on a dead-url
# residue its original missed).
_GTD_OFFSET = 3_003_013  # 13 × 231 001; %11=2, %50=13, %20=13


def q_gate_then_dedup(sf_dir: str):
    """Full pipeline composition: synthesize → gate (extract → langid →
    perplexity → rules + scrub) → filter keep → exact dedup on the
    gate's own 128-bit content_hash columns (emitted inside the gate
    pass — the text is never re-read or re-hashed) → survivors with
    group sizes. ONE 16-byte-key shuffle after the streaming gate."""
    from ray.data.aggregate import Count, Min

    ds = _documents(sf_dir, ["doc_id", "text", "lang"])

    def expand(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_numpy(zero_copy_only=False)
        parts = [b]
        for mod, mult in ((2, 1), (6, 2)):
            ex = b.filter(pa.array(d % mod == 0))
            parts.append(
                ex.set_column(
                    ex.schema.get_field_index("doc_id"), "doc_id",
                    pc.add(ex.column("doc_id"), mult * _GTD_OFFSET),
                )
            )
        return pa.concat_tables(parts).combine_chunks()

    pages_in = ds.map_batches(expand, batch_format="pyarrow").union(
        rd.from_arrow(trigger_table())
    )
    pages = pages_in.map_batches(synthesize_pages, batch_format="pyarrow")
    gated = build_gate(pages)
    kept = gated.map_batches(
        lambda b: b.filter(b.column("keep").combine_chunks()),
        batch_format="pyarrow",
    )
    agg = kept.groupby(["content_hash", "content_hash2"]).aggregate(
        Min("doc_id", alias_name="doc_id"),
        Count(alias_name="dup_count"),
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "dup_count": pc.cast(b.column("dup_count"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_dedup_order_yield(sf_dir: str):
    """One row (n_docs, gate_then_dedup_kept, dedup_then_gate_kept):
    does the ORDER of gate and dedup matter on this corpus? Identical
    page text does NOT imply an identical gate decision (the URL and
    timestamp differ per doc, and URL/staleness rules read them), so
    dedup-first — gate only each text group's canonical — can keep a
    different number of documents than gate-first — dedup the
    survivors. The delta is the yield cost of the cheaper
    dedup-first plan; curation teams pick an order with this number,
    not a hunch.

    Plan: ONE gate pass serves both orders (survivor dedup on the
    gate's own content_hash; canonical selection on a hash of the
    page text), sharing the duplicate-expanded corpus and oracle
    machinery of gate_then_dedup."""
    from ray.data.aggregate import Count as _Count, Min as _Min, Sum as _Sum

    from ..functions.hashing import hash_str_arrow_u128

    ds = _documents(sf_dir, ["doc_id", "text", "lang"])

    def expand(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_numpy(zero_copy_only=False)
        parts = [b]
        for mod, mult in ((2, 1), (6, 2)):
            ex = b.filter(pa.array(d % mod == 0))
            parts.append(
                ex.set_column(
                    ex.schema.get_field_index("doc_id"), "doc_id",
                    pc.add(ex.column("doc_id"), mult * _GTD_OFFSET),
                )
            )
        return pa.concat_tables(parts).combine_chunks()

    pages_in = ds.map_batches(expand, batch_format="pyarrow").union(
        rd.from_arrow(trigger_table())
    )
    pages = pages_in.map_batches(synthesize_pages, batch_format="pyarrow")
    gated = build_gate(pages)

    # order A: gate → keep → dedup on the gate's content hash
    kept = gated.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "keep": b.column("keep"),
                "content_hash": b.column("content_hash"),
                "content_hash2": b.column("content_hash2"),
            }
        ),
        batch_format="pyarrow",
    )
    a_kept = (
        kept.filter(lambda r: r["keep"])
        .groupby(["content_hash", "content_hash2"])
        .aggregate(_Count(alias_name="n"))
        .count()
    )

    # order B: canonical per page-TEXT group, gate decision of the
    # canonical — tag-union on doc_id, no join
    def canon_rows(b: pa.Table) -> pa.Table:
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        lo, hi = hash_str_arrow_u128(pc.fill_null(text, ""))
        return pa.table(
            {
                "h1": pa.array(lo.view(np.int64), pa.int64()),
                "h2": pa.array(hi.view(np.int64), pa.int64()),
                "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
            }
        )

    canon = (
        pages.map_batches(canon_rows, batch_format="pyarrow")
        .groupby(["h1", "h2"])
        .aggregate(_Min("doc_id", alias_name="doc_id"))
        .map_batches(
            lambda b: pa.table(
                {
                    "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                    "keep": pa.array([None] * len(b), pa.bool_()),
                    "is_canon": pa.array(np.ones(len(b), np.int64)),
                }
            ),
            batch_format="pyarrow",
        )
    )
    dec_rows = kept.map_batches(
        lambda b: pa.table(
            {
                "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                "keep": b.column("keep"),
                "is_canon": pa.array(np.zeros(len(b), np.int64)),
            }
        ),
        batch_format="pyarrow",
    )

    def fold(g: pa.Table) -> pa.Table:
        is_c = g.column("is_canon").to_numpy(zero_copy_only=False)
        keepv = g.column("keep").to_pylist()
        kept_flag = any(
            k for k, c in zip(keepv, is_c) if c == 0 and k is not None
        )
        canon_flag = bool((is_c == 1).any())
        return pa.table(
            {
                "n": pa.array([1], pa.int64()),
                "b_kept": pa.array(
                    [int(canon_flag and kept_flag)], pa.int64()
                ),
            }
        )

    folded = dec_rows.union(canon).groupby("doc_id").map_groups(
        fold, batch_format="pyarrow"
    )
    tot = folded.aggregate(_Sum("n"), _Sum("b_kept"))
    n_docs = int(tot["sum(n)"] or 0)
    b_kept = int(tot["sum(b_kept)"] or 0)
    return pa.table(
        {
            "n_docs": pa.array([n_docs], pa.int64()),
            "gate_then_dedup_kept": pa.array([int(a_kept)], pa.int64()),
            "dedup_then_gate_kept": pa.array([b_kept], pa.int64()),
        }
    )


def _sql_dedup_order_yield() -> str:
    return f"""
WITH dup_documents AS (
  SELECT doc_id, text, lang FROM documents
  UNION ALL
  SELECT doc_id + {_GTD_OFFSET} AS doc_id, text, lang FROM documents
  WHERE doc_id % 2 = 0
  UNION ALL
  SELECT doc_id + {2 * _GTD_OFFSET} AS doc_id, text, lang FROM documents
  WHERE doc_id % 6 = 0
),
{_sql_gate_flags_ctes().strip().replace(
    "{pages}", pages_cte(source="dup_documents"))},
{_sql_bpc_ctes().strip()},
decisions AS (
  SELECT f.doc_id,
    {_sql_keep_expr()} AS keep,
    {_scrub_sql_expr("pg.text")} AS st
  FROM flags f JOIN bpc p USING (doc_id) JOIN pages pg USING (doc_id)
),
a AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS k
  FROM (SELECT 1 FROM decisions WHERE keep GROUP BY st)
),
canon AS (SELECT MIN(doc_id) AS doc_id FROM pages GROUP BY text),
b AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS k
  FROM decisions d JOIN canon c USING (doc_id) WHERE d.keep
),
n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM pages)
SELECT n.n AS n_docs, a.k AS gate_then_dedup_kept,
  b.k AS dedup_then_gate_kept
FROM n CROSS JOIN a CROSS JOIN b
"""


def _sql_gate_then_dedup() -> str:
    return f"""
WITH dup_documents AS (
  SELECT doc_id, text, lang FROM documents
  UNION ALL
  SELECT doc_id + {_GTD_OFFSET} AS doc_id, text, lang FROM documents
  WHERE doc_id % 2 = 0
  UNION ALL
  SELECT doc_id + {2 * _GTD_OFFSET} AS doc_id, text, lang FROM documents
  WHERE doc_id % 6 = 0
),
{_sql_gate_flags_ctes().strip().replace("{pages}", pages_cte(source="dup_documents"))},
{_sql_bpc_ctes().strip()},
decisions AS (
  SELECT f.doc_id,
    {_sql_keep_expr()} AS keep,
    {_scrub_sql_expr("pg.text")} AS st
  FROM flags f JOIN bpc p USING (doc_id) JOIN pages pg USING (doc_id)
)
SELECT min(doc_id) AS doc_id, count(*) AS dup_count
FROM decisions WHERE keep GROUP BY st
"""


# --- PII scrub -------------------------------------------------------
# Deterministic PII injection, built identically on both sides: the
# word-salad documents carry no emails/digits at all, so the corpus
# plants one marker per kind on residue classes (email on doc_id%3,
# IPv4 on %5, phone on %7 — rows hit 0..3 kinds). The scrub regexes
# still scan every byte of every document, injected or not.
_PII_CORPUS_SQL = """
pii AS (
  SELECT doc_id,
    coalesce(text, '')
    || CASE WHEN doc_id % 3 = 0
         THEN ' reach user' || CAST(doc_id AS VARCHAR) || '@mail.example.org'
         ELSE '' END
    || CASE WHEN doc_id % 5 = 0
         THEN ' from 10.' || CAST(doc_id % 256 AS VARCHAR) || '.3.7'
         ELSE '' END
    || CASE WHEN doc_id % 7 = 0
         THEN ' call +1-555-' || CAST(doc_id % 9000 + 1000 AS VARCHAR)
         ELSE '' END
    AS text
  FROM documents
)
"""


def _pii_corpus_stage(b: pa.Table) -> pa.Table:
    """The Ray twin of _PII_CORPUS_SQL (vectorized if_else/join)."""
    d = b.column("doc_id")
    if isinstance(d, pa.ChunkedArray):
        d = d.combine_chunks()
    dn = d.to_numpy(zero_copy_only=False)
    empty = pa.scalar("", pa.string())

    def part(mask, *pieces):
        joined = pc.binary_join_element_wise(*pieces, "")
        return pc.if_else(pa.array(mask), joined, empty)

    email = part(
        dn % 3 == 0, " reach user", pc.cast(d, pa.string()),
        "@mail.example.org",
    )
    ip = part(
        dn % 5 == 0, " from 10.",
        pc.cast(pa.array(dn % 256, pa.int64()), pa.string()), ".3.7",
    )
    phone = part(
        dn % 7 == 0, " call +1-555-",
        pc.cast(pa.array(dn % 9000 + 1000, pa.int64()), pa.string()),
    )
    text = b.column("text")
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    # null text = '' on BOTH sides (the SQL CTE coalesces) — otherwise
    # the join would null out the injected parts here while the oracle
    # keeps them
    text = pc.fill_null(text, "")
    return pa.table(
        {
            "doc_id": d,
            "text": pc.binary_join_element_wise(text, email, ip, phone, ""),
        }
    )


def q_pii_scrub(sf_dir: str):
    """Redact emails / IPv4s / phone numbers across the corpus —
    6 RE2 column passes per batch (count + replace per kind), exactly
    mirrored by the oracle's nested regexp_replace CTEs."""
    from ..functions.pii import scrub_pii_stage

    ds = _documents(sf_dir, ["doc_id", "text"])
    return ds.map_batches(
        lambda b: scrub_pii_stage(_pii_corpus_stage(b)),
        batch_format="pyarrow",
    )


def _sql_pii_scrub() -> str:
    from ..functions.pii import PII_PATTERNS

    (_, e_pat, e_repl), (_, i_pat, i_repl), (_, p_pat, p_repl) = PII_PATTERNS
    return f"""
WITH {_PII_CORPUS_SQL.strip()},
s1 AS (
  SELECT doc_id,
    CAST(len(regexp_extract_all(text, '{e_pat}')) AS BIGINT) AS n_email,
    regexp_replace(text, '{e_pat}', '{e_repl}', 'g') AS text
  FROM pii
),
s2 AS (
  SELECT doc_id, n_email,
    CAST(len(regexp_extract_all(text, '{i_pat}')) AS BIGINT) AS n_ipv4,
    regexp_replace(text, '{i_pat}', '{i_repl}', 'g') AS text
  FROM s1
),
s3 AS (
  SELECT doc_id, n_email, n_ipv4,
    CAST(len(regexp_extract_all(text, '{p_pat}')) AS BIGINT) AS n_phone,
    regexp_replace(text, '{p_pat}', '{p_repl}', 'g') AS text
  FROM s2
)
SELECT doc_id, n_email, n_ipv4, n_phone, text AS scrubbed_text FROM s3
"""


# --- URL canonicalization / dedup ------------------------------------
# Deterministic messy-URL corpus, built identically on both sides:
# mixed-case scheme+host, default port on %4, utm params on %3 classes,
# fragment on %2. doc_id%20 hosts × doc_id%50 paths collide after
# canonicalization, so dedup_urls is non-vacuous.
_URL_CORPUS_SQL = """
urls AS (
  SELECT doc_id,
    'Http://Host' || CAST(doc_id % 20 AS VARCHAR) || '.Example.COM'
    || CASE WHEN doc_id % 4 = 0 THEN ':80' ELSE '' END
    || '/Dir/page' || CAST(doc_id % 50 AS VARCHAR)
    || CASE WHEN doc_id % 3 = 0 THEN '?utm_source=feed&utm_medium=rss'
            WHEN doc_id % 3 = 1 THEN '?id=7&utm_campaign=x'
            ELSE '' END
    || CASE WHEN doc_id % 2 = 0 THEN '#Sec' ELSE '' END
    AS url
  FROM documents
)
"""


def _url_corpus_stage(b: pa.Table) -> pa.Table:
    """The Ray twin of _URL_CORPUS_SQL."""
    d = b.column("doc_id")
    if isinstance(d, pa.ChunkedArray):
        d = d.combine_chunks()
    dn = d.to_numpy(zero_copy_only=False)
    empty = pa.scalar("", pa.string())

    def lit(mask, s):
        return pc.if_else(pa.array(mask), pa.scalar(s, pa.string()), empty)

    host = pc.cast(pa.array(dn % 20, pa.int64()), pa.string())
    path = pc.cast(pa.array(dn % 50, pa.int64()), pa.string())
    utm = pc.if_else(
        pa.array(dn % 3 == 0),
        pa.scalar("?utm_source=feed&utm_medium=rss", pa.string()),
        pc.if_else(
            pa.array(dn % 3 == 1),
            pa.scalar("?id=7&utm_campaign=x", pa.string()),
            empty,
        ),
    )
    url = pc.binary_join_element_wise(
        "Http://Host", host, ".Example.COM",
        lit(dn % 4 == 0, ":80"),
        "/Dir/page", path, utm, lit(dn % 2 == 0, "#Sec"),
        "",
    )
    return pa.table({"doc_id": d, "url": url})


def q_url_canonical(sf_dir: str):
    """Canonical URL per document — 8 RE2 column passes
    (functions/urlnorm.py), byte-identical to the oracle's nested
    regexp_replace expression."""
    from ..functions.urlnorm import canonicalize_url_array

    ds = _documents(sf_dir, ["doc_id"])

    def stage(b: pa.Table) -> pa.Table:
        t = _url_corpus_stage(b)
        return t.append_column(
            "canonical_url", canonicalize_url_array(t.column("url"))
        )

    return ds.map_batches(stage, batch_format="pyarrow")


def _sql_url_canonical() -> str:
    from ..functions.urlnorm import canonical_sql_expr

    return f"""
WITH {_URL_CORPUS_SQL.strip()}
SELECT doc_id, url, {canonical_sql_expr("url")} AS canonical_url
FROM urls
"""


def q_dedup_urls(sf_dir: str):
    """URL-level dedup: group by canonical URL, keep the smallest
    doc_id as the fetch survivor — 16-byte hash keys shuffle, never
    the URLs themselves (the exact_dedup_groups discipline)."""
    from ..functions.hashing import hash_str_arrow_u128
    from ..functions.urlnorm import canonicalize_url_array

    ds = _documents(sf_dir, ["doc_id"])

    def stage(b: pa.Table) -> pa.Table:
        t = _url_corpus_stage(b)
        canon = canonicalize_url_array(t.column("url"))
        lo, hi = hash_str_arrow_u128(canon)
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "canonical_url": canon,
                "h_lo": pa.array(lo.view(np.int64), pa.int64()),
                "h_hi": pa.array(hi.view(np.int64), pa.int64()),
            }
        )

    from ray.data.aggregate import Count, Min

    hashed = ds.map_batches(stage, batch_format="pyarrow")
    agg = hashed.groupby(["h_lo", "h_hi"]).aggregate(
        Min("doc_id", alias_name="doc_id"),
        Count(alias_name="dup_count"),
    )
    # re-attach the canonical string for the survivor rows only (small
    # side after dedup): broadcast-free self-join via a second pass is
    # unnecessary at survivor cardinality — recompute from doc_id
    def attach(b: pa.Table) -> pa.Table:
        t = _url_corpus_stage(b)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "canonical_url": canonicalize_url_array(t.column("url")),
                "dup_count": pc.cast(b.column("dup_count"), pa.int64()),
            }
        )

    return agg.map_batches(attach, batch_format="pyarrow")


def _sql_dedup_urls() -> str:
    from ..functions.urlnorm import canonical_sql_expr

    return f"""
WITH {_URL_CORPUS_SQL.strip()},
c AS (
  SELECT doc_id, {canonical_sql_expr("url")} AS canonical_url FROM urls
)
SELECT min(doc_id) AS doc_id, canonical_url,
       count(*) AS dup_count
FROM c GROUP BY canonical_url
"""


# --- Unicode NFC normalization ----------------------------------------
# Deterministic decomposed-unicode injection (both sides build the
# SAME bytes; SQL chr() codepoints == the Python escapes): residues
# %4∈{0,1} get decomposed sequences that NFC composes, the rest stay
# pure-ASCII and ride the vectorized fast path.
_NFC_CORPUS_SQL = """
u AS (
  SELECT doc_id,
    coalesce(text, '')
    || CASE WHEN doc_id % 4 = 0
         THEN ' caf' || chr(101) || chr(769)          -- cafe + U+0301
         WHEN doc_id % 4 = 1
         THEN ' ' || chr(65) || chr(778) || 'ngstrom' -- A + U+030A
         ELSE '' END
    AS text
  FROM documents
)
"""


def q_normalize_text(sf_dir: str):
    """NFC-normalize the corpus: vectorized ASCII screen, per-row
    C-call only for the non-ASCII minority (functions/textnorm.py)."""
    from ..functions.textnorm import nfc_normalize_array

    ds = _documents(sf_dir, ["doc_id", "text"])

    def stage(b: pa.Table) -> pa.Table:
        d = b.column("doc_id")
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        dn = d.to_numpy(zero_copy_only=False)
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        text = pc.fill_null(text, "")
        empty = pa.scalar("", pa.string())
        suffix = pc.if_else(
            pa.array(dn % 4 == 0),
            pa.scalar(" cafe\u0301", pa.string()),
            pc.if_else(
                pa.array(dn % 4 == 1),
                pa.scalar(" A\u030Angstrom", pa.string()),
                empty,
            ),
        )
        injected = pc.binary_join_element_wise(text, suffix, "")
        norm, changed = nfc_normalize_array(injected)
        return pa.table(
            {"doc_id": d, "norm_text": norm, "changed": changed}
        )

    return ds.map_batches(stage, batch_format="pyarrow")


SQL_NORMALIZE_TEXT = f"""
WITH {_NFC_CORPUS_SQL.strip()}
SELECT doc_id, nfc_normalize(text) AS norm_text,
       nfc_normalize(text) != text AS changed
FROM u
"""


# --- repetition signals ----------------------------------------------
# Line structure derived identically on both sides: ' the ' → newline
# turns the word salad into multi-line docs whose short segments
# repeat naturally, so the duplicate-line tallies are non-vacuous.
_LINE_CORPUS_SQL = """
line_corpus AS (
  SELECT doc_id, replace(coalesce(text, ''), ' the ', chr(10)) AS text
  FROM documents
)
"""


def _to_line_corpus(b: pa.Table) -> pa.Table:
    """The Ray twin of _LINE_CORPUS_SQL — ONE shared derivation for
    every line-level operator (repetition_scores, dedup_lines), so the
    split rule cannot drift between them. Null text = '' on both sides
    (the CTE coalesces)."""
    text = b.column("text")
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    return pa.table(
        {
            "doc_id": b.column("doc_id"),
            "text": pc.replace_substring(
                pc.fill_null(text, ""), pattern=" the ", replacement="\n"
            ),
        }
    )


def q_repetition_scores(sf_dir: str):
    from ..functions.repetition import repetition_stage

    ds = _documents(sf_dir, ["doc_id", "text"])
    return ds.map_batches(
        lambda b: repetition_stage(_to_line_corpus(b)),
        batch_format="pyarrow",
    )


SQL_REPETITION = f"""
WITH {_LINE_CORPUS_SQL.strip()},
l AS (
  SELECT doc_id, unnest(string_split(text, chr(10))) AS line
  FROM line_corpus
),
g AS (
  SELECT doc_id, line, count(*) AS c, length(line) AS len
  FROM l GROUP BY doc_id, line
)
SELECT doc_id,
  CAST(sum(c) AS BIGINT) AS n_lines,
  CAST(count(*) AS BIGINT) AS n_distinct_lines,
  CAST(sum(c) - count(*) AS DOUBLE) / CAST(sum(c) AS DOUBLE)
    AS dup_line_frac,
  CAST(sum((c - 1) * len) AS DOUBLE)
    / CAST(greatest(sum(c * len), 1) AS DOUBLE) AS dup_line_char_frac,
  CAST(max(c) AS BIGINT) AS top_line_count
FROM g GROUP BY doc_id
"""


def q_dedup_lines(sf_dir: str):
    """Corpus-wide first-occurrence line dedup (functions/linededup.py)
    over the derived multi-line corpus — the C4-lineage span-dedup
    shape: every later instance of a duplicated line is removed, the
    first survives, documents are reassembled in order."""
    from ..functions.linededup import dedup_lines

    ds = _documents(sf_dir, ["doc_id", "text"])
    return dedup_lines(
        ds.map_batches(_to_line_corpus, batch_format="pyarrow")
    )


SQL_DEDUP_LINES = f"""
WITH {_LINE_CORPUS_SQL.strip()},
l AS (
  SELECT doc_id,
    unnest(string_split(text, chr(10))) AS line,
    unnest(generate_series(1, len(string_split(text, chr(10))))) AS pos
  FROM line_corpus
),
firsts AS (
  SELECT line, min(doc_id * 1048576 + pos) AS mp FROM l GROUP BY line
),
k AS (
  SELECT l.doc_id, l.pos, l.line,
         (l.doc_id * 1048576 + l.pos) = f.mp AS kept
  FROM l JOIN firsts f USING (line)
)
SELECT doc_id,
  coalesce(
    string_agg(CASE WHEN kept THEN line END, chr(10) ORDER BY pos), ''
  ) AS dedup_text,
  CAST(count(*) AS BIGINT) AS n_lines,
  CAST(sum(CASE WHEN kept THEN 1 ELSE 0 END) AS BIGINT) AS kept_lines
FROM k GROUP BY doc_id
"""


def q_dedup_spans(sf_dir: str):
    """ExactSubstr-shaped duplicated-span removal (Lee et al. 2021),
    W=5 word grams over the raw documents: every word position covered
    by a non-first occurrence of a corpus-duplicated 5-gram is
    removed, the corpus-first occurrence survives, documents are
    rejoined with single spaces. Catches repeated PHRASES inside lines
    that dedup_lines cannot see."""
    from ..functions.spandedup import dedup_spans

    return dedup_spans(_documents(sf_dir, ["doc_id", "text"]))


# keep-first over (doc_id, pos) packed order — 16777216 = 2^POS_BITS
# mirrors spandedup.POS_BITS=24; grams group on the STRINGS, so a
# 128-bit hash collision in the engine would surface here. The tail is
# source-parameterized so pipeline compositions (curate_corpus) can run
# the same dedup over a derived corpus CTE.
def _sql_dedup_spans_tail(source: str) -> str:
    return f"""
words AS (
  SELECT doc_id,
         unnest(string_split(coalesce(text, ''), ' ')) AS word,
         unnest(generate_series(1, len(string_split(coalesce(text, ''), ' ')))) AS pos,
         len(string_split(coalesce(text, ''), ' ')) AS nw
  FROM {source}
),
grams AS (
  SELECT doc_id, pos,
         word || ' ' || lead(word, 1) OVER w || ' ' || lead(word, 2) OVER w
              || ' ' || lead(word, 3) OVER w || ' ' || lead(word, 4) OVER w AS gram
  FROM words
  WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
  QUALIFY pos + 4 <= nw
),
firsts AS (
  SELECT gram, min(doc_id * 16777216 + pos) AS mp FROM grams GROUP BY gram
),
removed AS (
  SELECT DISTINCT g.doc_id, g.pos + t.d AS rpos
  FROM grams g
  JOIN firsts f USING (gram)
  CROSS JOIN generate_series(0, 4) AS t(d)
  WHERE g.doc_id * 16777216 + g.pos <> f.mp
)
SELECT w.doc_id,
  coalesce(
    string_agg(CASE WHEN r.rpos IS NULL THEN w.word END, ' ' ORDER BY w.pos),
    ''
  ) AS clean_text,
  CAST(count(*) AS BIGINT) AS n_words,
  CAST(count(*) - count(r.rpos) AS BIGINT) AS kept_words
FROM words w
LEFT JOIN removed r ON r.doc_id = w.doc_id AND r.rpos = w.pos
GROUP BY w.doc_id
"""


SQL_DEDUP_SPANS = "WITH " + _sql_dedup_spans_tail("documents")


def q_doc_dup_gram_fraction(sf_dir: str):
    """(doc_id, n_grams, n_dup_grams, dup_fraction): the Lee et al.
    duplication-fraction score — what share of each document's
    5-gram instances is corpus-duplicated (functions/spandedup.
    dup_gram_fractions; per-doc 24 B count partials, the text never
    travels twice)."""
    from ..functions.spandedup import dup_gram_fractions

    return dup_gram_fractions(_documents(sf_dir, ["doc_id", "text"]))


SQL_DOC_DUP_GRAM_FRACTION = """
WITH words AS (
  SELECT doc_id,
         unnest(string_split(coalesce(text, ''), ' ')) AS word,
         unnest(generate_series(1, len(string_split(coalesce(text, ''), ' ')))) AS pos,
         len(string_split(coalesce(text, ''), ' ')) AS nw
  FROM documents
),
grams AS (
  SELECT doc_id, pos,
         word || ' ' || lead(word, 1) OVER w || ' ' || lead(word, 2) OVER w
              || ' ' || lead(word, 3) OVER w || ' ' || lead(word, 4) OVER w AS gram
  FROM words
  WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
  QUALIFY pos + 4 <= nw
),
gc AS (SELECT gram, CAST(COUNT(*) AS BIGINT) AS c FROM grams GROUP BY gram),
per AS (
  SELECT g.doc_id,
    CAST(COUNT(*) AS BIGINT) AS n_grams,
    CAST(SUM(CASE WHEN gc.c >= 2 THEN 1 ELSE 0 END) AS BIGINT)
      AS n_dup_grams
  FROM grams g JOIN gc USING (gram) GROUP BY g.doc_id
)
SELECT doc_id, n_grams, n_dup_grams,
  CAST(n_dup_grams AS DOUBLE) / CAST(n_grams AS DOUBLE) AS dup_fraction
FROM per
"""


def q_curate_corpus(sf_dir: str):
    """The full curation composition a training-data pipeline runs:
    synthesize → quality gate (extract → langid → perplexity → rules
    + scrub) → filter keep → cross-document duplicated-span removal
    over the gate's OWN scrubbed text (never re-read, never
    re-scrubbed). The whole thing is one streaming lineage: gate rows
    flow straight into the span-dedup's gram shuffle. Oracled end to
    end including the LM half of the keep decision."""
    from ..functions.spandedup import dedup_spans

    gated = _gated(sf_dir)

    def kept_text(b: pa.Table) -> pa.Table:
        f = b.filter(b.column("keep").combine_chunks())
        return pa.table(
            {"doc_id": f.column("doc_id"), "text": f.column("scrubbed_text")}
        )

    # dedup_spans consumes its input in TWO branches (gram stream +
    # doc-row stream); without a checkpoint the streaming executor
    # would re-run the whole gate once per branch. Materialize the
    # (small, post-filter) kept projection — the production analog is
    # run_gate's partitioned parquet docs dir, which span dedup would
    # read twice for the price of two column-pruned scans.
    kept = gated.map_batches(kept_text, batch_format="pyarrow").materialize()
    return dedup_spans(kept)


def _sql_curate_corpus() -> str:
    # plain .replace for {pages}, not str.format — the embedded rule
    # regexes contain literal braces that format would eat
    return f"""
WITH {_sql_gate_flags_ctes().strip().replace("{pages}", pages_cte())},
{_sql_bpc_ctes().strip()},
kept AS (
  SELECT f.doc_id, {_scrub_sql_expr("pg.text")} AS text
  FROM flags f JOIN bpc p USING (doc_id) JOIN pages pg USING (doc_id)
  WHERE {_sql_keep_expr()}
),
{_sql_dedup_spans_tail("kept").strip()}
"""


def q_curate_semantic(sf_dir: str):
    """Gate keep ∧ SemDeDup survivor — the semantic-curation
    composition (SemDeDup's own pipeline shape): quality-gate the
    pages, semantically dedup the corpus EMBEDDINGS (documents and
    embeddings share the id space), and keep the docs that pass both.
    Every 10th embedding is replaced by one shared template direction
    (+ per-id jitter) so the operator has real work — template/
    boilerplate pages collapsing to one survivor is exactly the
    production case. The doc∧survivor meet is ONE hashed-partition
    membership pass (no broadcast of either id set). kmeans inside ⇒
    rows-only; component-consistency pinned in pytest."""
    import numpy as np

    from ..functions.clustering import semantic_dedup
    from ..partitioning import adaptive_partitions, parquet_rows_hint

    gated = _gated(sf_dir)

    def kept_ids(b: pa.Table) -> pa.Table:
        f = b.filter(b.column("keep").combine_chunks())
        return pa.table({"doc_id": f.column("doc_id")})

    kept = gated.map_batches(kept_ids, batch_format="pyarrow")

    emb = rel._read_pq(os.path.join(sf_dir, "embeddings.parquet"))

    def template(b: pa.Table) -> pa.Table:
        # vectorized in-place rewrite: flatten the list column to its
        # values buffer, overwrite only the templated rows' slots, and
        # rebuild with from_arrays — no per-row Python
        ids = b.column("vec_id").to_numpy(zero_copy_only=False)
        arr = b.column("embedding").combine_chunks()
        flat = pc.list_flatten(arr).to_numpy(zero_copy_only=False).copy()
        n = len(ids)
        d = len(flat) // n if n else 0
        mat = flat.reshape(n, d)
        hit = np.flatnonzero(ids % 10 == 5)
        mat[hit] = 0.0
        mat[hit, 0] = 1.0
        mat[hit, 1] = (1e-4 * (ids[hit] % 97)).astype(mat.dtype)
        offsets = pa.array(np.arange(n + 1, dtype=np.int32) * d)
        values = pa.array(mat.ravel(), arr.type.value_type)
        return pa.table(
            {
                "vec_id": b.column("vec_id"),
                "embedding": pa.ListArray.from_arrays(offsets, values),
            }
        )

    templated = emb.map_batches(template, batch_format="pyarrow")
    from ..functions.clustering import kmeans_fit

    cent = kmeans_fit(templated, k=8, n_iters=10)
    _export_centroids(cent, "centroids_cur.parquet")
    surv = semantic_dedup(
        templated, k=8, threshold=0.999, centroids=cent,
    )

    def dropped_ids(b: pa.Table) -> pa.Table:
        f = b.filter(pc.invert(b.column("keep").combine_chunks()))
        return pa.table({"doc_id": f.column("vec_id")})

    dropped = surv.map_batches(dropped_ids, batch_format="pyarrow")

    n_parts = adaptive_partitions(
        parquet_rows_hint(emb), row_bytes=24
    )

    def tag(tag_val: int):
        def fn(b: pa.Table) -> pa.Table:
            ids = b.column("doc_id").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "part": rel._part_of(b.column("doc_id"), n_parts),
                    "key": pa.array(ids, pa.int64()),
                    "tag": pa.array(
                        np.full(len(ids), tag_val, np.int8)
                    ),
                }
            )

        return fn

    both = kept.map_batches(tag(0), batch_format="pyarrow").union(
        dropped.map_batches(tag(1), batch_format="pyarrow")
    )

    def meet(group: pa.Table) -> pa.Table:
        import numpy as _np

        key = group.column("key").to_numpy(zero_copy_only=False)
        t = group.column("tag").to_numpy(zero_copy_only=False)
        keep_ids_ = key[t == 0]
        drop_ids_ = _np.unique(key[t == 1])
        pos = _np.searchsorted(drop_ids_, keep_ids_)
        safe = _np.minimum(pos, max(len(drop_ids_) - 1, 0))
        is_dropped = (
            (pos < len(drop_ids_)) & (drop_ids_[safe] == keep_ids_)
            if len(drop_ids_)
            else _np.zeros(len(keep_ids_), bool)
        )
        return pa.table(
            {"doc_id": pa.array(_np.sort(keep_ids_[~is_dropped]), pa.int64())}
        )

    return both.groupby("part").map_groups(meet, batch_format="pyarrow")


def q_dedup_exact(sf_dir: str):
    return dd.exact_dedup_groups(_dup_corpus(sf_dir))


SQL_DEDUP_EXACT = f"""
WITH {_DUP_CORPUS_SQL.strip()}
SELECT min(doc_id) AS doc_id, count(*) AS dup_count
FROM corpus GROUP BY text
"""


def q_dedup_exact_pairs(sf_dir: str):
    # content-hash grouping, NOT a sketch: the driver corpus contains
    # planted J≈0.99 near-dups that agree on 64/64 minhashes ~half the
    # time, so only byte-exact hashing matches the text-equality oracle.
    # Star-pair semantics (canonical=min id per text group) — same
    # connected components as all-pairs, linear output per dup group.
    return dd.exact_dedup_pairs(_dup_corpus(sf_dir))


SQL_DEDUP_EXACT_PAIRS = f"""
WITH {_DUP_CORPUS_SQL.strip()},
canon AS (
  SELECT text, min(doc_id) AS canon_id FROM corpus GROUP BY text
)
SELECT c.canon_id AS doc_id_a, x.doc_id AS doc_id_b
FROM corpus x JOIN canon c ON x.text = c.text
WHERE x.doc_id > c.canon_id
"""


def _dup_corpus_rows(sf_dir: str) -> int:
    """Row count of the dup corpus from parquet footers only: documents
    plus the planted exact (1/10) and near (1/20) copies."""
    import pyarrow.parquet as pq

    n = pq.ParquetFile(os.path.join(sf_dir, "documents.parquet")).metadata.num_rows
    return n + n // 10 + n // 20


def _incremental_split(keep_seen: bool):
    """The ONE seen/new split rule (doc_id % 3 == 0 ⇒ seen) shared by
    the exact and Bloom incremental queries — their pinned
    no-false-negative comparison only holds if both partition the
    corpus identically."""

    def f(b: pa.Table) -> pa.Table:
        d = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array((d % 3 == 0) == keep_seen))

    return f


def q_dedup_incremental(sf_dir: str):
    """Rolling-crawl incremental dedup: the dup corpus splits into a
    SEEN set (doc_id % 3 == 0) and the day's NEW increment (the rest);
    every new doc gets is_new = its content never appears in seen
    (functions/dedup.incremental_new_docs). Exact copies straddle the
    split both ways: copies of seen originals come back not-new, while
    duplicate pairs entirely inside the increment stay new."""
    from ..partitioning import adaptive_partitions

    seen = _dup_corpus(sf_dir).map_batches(
        _incremental_split(True), batch_format="pyarrow"
    )
    new = _dup_corpus(sf_dir).map_batches(
        _incremental_split(False), batch_format="pyarrow"
    )
    return dd.incremental_new_docs(
        new,
        seen,
        num_partitions=adaptive_partitions(
            _dup_corpus_rows(sf_dir), row_bytes=33
        ),
    )


# --- bloom oracle: DuckDB re-derives the filter ----------------------------
# The 128-bit content hash (polars string hash) is the non-SQL
# primitive — the query exports each CORPUS doc's (lo, hi) pair (the
# vocabulary-parameter pattern) and DuckDB independently rebuilds the
# whole filter: mix = lo ^ splitmix(hi), the Kirsch–Mitzenmacher probe
# family h1 + i·h2 (i < K) mod 2^23, the seen side's DISTINCT bit-
# position set, and the all-K-positions-present probe. A drift in any
# of the double-hash spec, the bit math, or the seen/new split shows
# up as a hash mismatch.

_BLOOM_ORACLE_DIR = "/tmp/rsmetacheck_bloom_oracle"
_BLOOM_EXPORT_MAX = 1_000_000  # corpus rows; oracle support only


def _ensure_bloom_hash_export(sf_dir: str) -> None:
    import pyarrow.parquet as pq

    from ..functions.hashing import hash_str_arrow_u128

    path = os.path.join(sf_dir, "documents.parquet")
    if pq.ParquetFile(path).metadata.num_rows > _BLOOM_EXPORT_MAX:
        return
    docs = pq.read_table(path, columns=["doc_id", "text"])
    corpus = _dup_corpus_table(docs)
    lo, hi = hash_str_arrow_u128(corpus.column("text"))
    os.makedirs(_BLOOM_ORACLE_DIR, exist_ok=True)
    out = os.path.join(_BLOOM_ORACLE_DIR, "hashes.parquet")
    tmp = out + f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    pq.write_table(
        pa.table(
            {
                "doc_id": corpus.column("doc_id"),
                "lo": pa.array(lo, pa.uint64()),
                "hi": pa.array(hi, pa.uint64()),
            }
        ),
        tmp,
    )
    os.replace(tmp, out)


def _dup_corpus_table(docs: pa.Table) -> pa.Table:
    """Driver-side mirror of ``_dup_corpus``'s expansion (same rules,
    same suffix) for oracle parameter exports."""
    d = docs.column("doc_id").to_numpy(zero_copy_only=False)
    ex = docs.filter(pa.array(d % 10 == 0))
    near = docs.filter(pa.array(d % 20 == 5))
    exact_t = pa.table(
        {
            "doc_id": pc.add(ex.column("doc_id"), 1_000_000),
            "text": ex.column("text"),
        }
    )
    near_t = pa.table(
        {
            "doc_id": pc.add(near.column("doc_id"), 2_000_000),
            "text": pc.binary_join_element_wise(
                near.column("text").combine_chunks(),
                pa.array([_NEAR_SUFFIX] * len(near), pa.string()),
                "",
            ),
        }
    )
    return pa.concat_tables(
        [docs.select(["doc_id", "text"]), exact_t, near_t]
    ).combine_chunks()


def _sql_dedup_incremental_bloom() -> str:
    from ..functions.sketch import BLOOM_BITS, BLOOM_K

    sm_h, h_cte, h_col = _sql_splitmix_ctes("bsm", "ch", "hi")
    sm_1, h1_cte, h1_col = _sql_splitmix_ctes("bh1", "mixed", "mix")
    sm_2, h2_cte, h2_col = _sql_splitmix_ctes("bh2", "x2src", "x2")
    d = _BLOOM_ORACLE_DIR
    return f"""
WITH ch AS (SELECT doc_id, lo, hi FROM '{d}/hashes.parquet'),
{sm_h.strip()},
mixed AS (SELECT doc_id, xor(lo, {h_col}) AS mix FROM {h_cte}),
{sm_1.strip()},
x2src AS (
  SELECT doc_id, mix,
    xor(mix, CAST(11936128518282651045 AS UBIGINT)) AS x2, {h1_col}
  FROM {h1_cte}
),
{sm_2.strip()},
probes AS (
  SELECT doc_id,
    CAST((CAST({h1_col} AS HUGEINT)
          + i.i * CAST(({h2_col} | 1) AS HUGEINT))
         % 18446744073709551616 AS UBIGINT) % {BLOOM_BITS} AS pos
  FROM {h2_cte}
  CROSS JOIN (SELECT unnest(range(0, {BLOOM_K})) AS i) i
),
seen_pos AS (
  SELECT DISTINCT pos FROM probes WHERE doc_id % 3 = 0
),
new_probe AS (
  SELECT DISTINCT doc_id, pos FROM probes WHERE doc_id % 3 <> 0
)
SELECT n.doc_id,
  BOOL_AND(s.pos IS NOT NULL) AS maybe_seen
FROM new_probe n LEFT JOIN seen_pos s ON s.pos = n.pos
GROUP BY n.doc_id
"""


def q_dedup_incremental_bloom(sf_dir: str):
    """Memory-bounded incremental dedup: the all-time seen set folds
    into a broadcast Bloom filter (fixed 1 MiB vs 16 B/doc exact) and
    the day's increment probes it SHUFFLE-FREE. One-sided: maybe_seen
    = False is definitely new; True routes to the exact probe when
    certainty is needed. The filter itself is deterministic, so the
    DuckDB oracle rebuilds it bit-for-bit from the exported content
    hashes; the no-false-negative guarantee vs the exact operator
    stays pinned in pytest. Same `_incremental_split` rule as the
    exact query."""
    _ensure_bloom_hash_export(sf_dir)
    seen = _dup_corpus(sf_dir).map_batches(
        _incremental_split(True), batch_format="pyarrow"
    )
    new = _dup_corpus(sf_dir).map_batches(
        _incremental_split(False), batch_format="pyarrow"
    )
    return dd.incremental_new_docs_bloom(new, seen)


SQL_DEDUP_INCREMENTAL = f"""
WITH {_DUP_CORPUS_SQL.strip()},
seen AS (SELECT doc_id, text FROM corpus WHERE doc_id % 3 = 0),
new AS (SELECT doc_id, text FROM corpus WHERE doc_id % 3 <> 0)
SELECT n.doc_id,
       NOT EXISTS (
         SELECT 1 FROM seen s
         WHERE coalesce(s.text, '') = coalesce(n.text, '')
       ) AS is_new
FROM new n
"""


def q_dedup_minhash_pairs(sf_dir: str):
    from ..partitioning import adaptive_partitions

    _ensure_simhash_vocab_export(sf_dir)  # shared word-hash parameter
    # the union corpus has no parquet lineage, so size the band-key
    # shuffle here from the documents footer (rows × 16 bands × ~536 B)
    return dd.minhash_lsh_pairs(
        _dup_corpus(sf_dir),
        min_est_jaccard=0.5,
        num_partitions=adaptive_partitions(
            _dup_corpus_rows(sf_dir) * dd.N_BANDS, row_bytes=536
        ),
    )


# --- minhash oracle: DuckDB re-derives every signature -----------------
# The only non-SQL primitive is the per-word blake2b (exported by the
# shared simhash vocabulary table); everything downstream — the k=3
# rotl/xor shingle combine, the splitmix64 finalizer, all 64
# permutation minima, the 16×4 banding gate and the in-bucket
# agreement estimate — is recomputed in SQL. splitmix64 is expressed
# exactly over UBIGINT with explicit mod-2⁶⁴ multiplies (validated
# bit-equal to functions/hashing.splitmix64_np). Band collision is
# modeled as 4-tuple equality: identical tuples always collide in the
# engine (same fold ⇒ same key ⇒ same hashed partition), and unequal-
# tuple key collisions are 2⁻⁶⁴-scale.


def _sql_u64_mulmod(col: str, b: int) -> str:
    blo, bhi = b & 0xFFFFFFFF, b >> 32
    return (
        f"CAST((CAST(({col}) % 4294967296 * {blo} AS HUGEINT) + "
        f"CAST((((({col}) % 4294967296) * {bhi}) % 4294967296 + "
        f"((({col}) >> 32) * {blo}) % 4294967296) % 4294967296 "
        f"* 4294967296 AS HUGEINT)) % 18446744073709551616 AS UBIGINT)"
    )


def _sql_rotl(col: str, r: int) -> str:
    # x << r as x * 2^r: DuckDB's UBIGINT << rejects results ≥ 2⁶³,
    # UBIGINT multiplication is exact to 2⁶⁴ − 1
    if r % 64 == 0:
        return f"({col})"
    return (
        f"(((({col}) % {1 << (64 - r)}) * {1 << r}) | (({col}) >> {64 - r}))"
    )


def _sql_splitmix_ctes(prefix: str, src: str, in_col: str) -> tuple[str, str, str]:
    """CTE chain applying splitmix64 to ``in_col`` of ``src``; returns
    (cte_sql, final_cte_name, out_col). All other columns ride along."""
    c1, c2, c3 = (
        0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
    )
    p = prefix
    sql = f"""
{p}1 AS (
  SELECT *, CAST((CAST({in_col} AS HUGEINT) + {c1})
                 % 18446744073709551616 AS UBIGINT) AS {p}z0
  FROM {src}
),
{p}2 AS (SELECT *, xor({p}z0, {p}z0 >> 30) AS {p}x1 FROM {p}1),
{p}3 AS (SELECT *, {_sql_u64_mulmod(p + 'x1', c2)} AS {p}z1 FROM {p}2),
{p}4 AS (SELECT *, xor({p}z1, {p}z1 >> 27) AS {p}x2 FROM {p}3),
{p}5 AS (SELECT *, {_sql_u64_mulmod(p + 'x2', c3)} AS {p}z2 FROM {p}4),
{p}6 AS (SELECT *, xor({p}z2, {p}z2 >> 31) AS {p}sm FROM {p}5)"""
    return sql, f"{p}6", f"{p}sm"


def _sql_minhash_cand_prefix() -> str:
    """Shared oracle prefix: the full minhash-signature derivation
    from raw text (exported word-hash vocab + splitmix CTEs) through
    the banded candidate set ``cand`` — reused by the pair oracle and
    the LSH-recall diagnostic so both see the identical sketch."""
    seeds = [
        (k, (0x9E3779B97F4A7C15 * (k + 1)) & ((1 << 64) - 1))
        for k in range(dd.N_PERMS)
    ]
    seed_values = ", ".join(f"({k}, {s})" for k, s in seeds)
    empty_hash = dd.hash_bytes_u64(b"")
    sm_sh, sh_cte, sh_col = _sql_splitmix_ctes("shm", "accs", "acc")
    sm_pm, pm_cte, pm_col = _sql_splitmix_ctes("pmm", "mixed", "mx")
    d = _SIMHASH_VOCAB_DIR
    return f"""
WITH {_DUP_CORPUS_SQL.strip()},
rawtoks AS (
  SELECT doc_id,
    unnest(regexp_split_to_array(text, '\\s+')) AS w,
    unnest(range(1, len(regexp_split_to_array(text, '\\s+')) + 1)) AS i
  FROM corpus
),
toks AS (
  SELECT doc_id, w,
    ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY i) AS rn
  FROM rawtoks WHERE w <> ''
),
wh AS (
  SELECT t.doc_id, t.rn, v.h,
    COUNT(*) OVER (PARTITION BY t.doc_id) AS n
  FROM toks t JOIN '{d}/vocab.parquet' v ON v.w = t.w
),
win AS (
  SELECT doc_id, n, h AS h1,
    lead(h, 1) OVER (PARTITION BY doc_id ORDER BY rn) AS h2,
    lead(h, 2) OVER (PARTITION BY doc_id ORDER BY rn) AS h3,
    rn
  FROM wh
),
accs AS (
  -- k=3 windows for docs with >= 3 tokens
  SELECT doc_id,
    xor(xor(h1, {_sql_rotl('h2', 13)}), {_sql_rotl('h3', 26)}) AS acc
  FROM win WHERE n >= 3 AND h3 IS NOT NULL
  UNION ALL
  -- short docs (1 or 2 tokens): the scalar fold over all tokens
  SELECT doc_id,
    CASE WHEN n = 1 THEN h1
         ELSE xor(h1, {_sql_rotl('h2', 13)}) END AS acc
  FROM win WHERE n < 3 AND rn = 1
),
{sm_sh.strip()},
shingles AS (
  SELECT doc_id, {sh_col} AS sh FROM {sh_cte}
  UNION ALL
  -- zero-token docs: the constant empty-input hash (not splitmixed)
  SELECT c.doc_id, CAST({empty_hash} AS UBIGINT) AS sh
  FROM corpus c
  WHERE NOT EXISTS (SELECT 1 FROM toks t WHERE t.doc_id = c.doc_id)
),
perms AS (SELECT * FROM (VALUES {seed_values}) pp(p, seed)),
mixed AS (
  SELECT s.doc_id, pp.p,
    xor(s.sh, CAST(pp.seed AS UBIGINT)) AS mx
  FROM shingles s CROSS JOIN perms pp
),
{sm_pm.strip()},
sig AS (
  SELECT doc_id, p, MIN({pm_col}) AS val FROM {pm_cte}
  GROUP BY doc_id, p
),
bands AS (
  SELECT doc_id, p // {dd.ROWS_PER_BAND} AS band,
    list(val ORDER BY p) AS bv
  FROM sig GROUP BY doc_id, p // {dd.ROWS_PER_BAND}
),
cand AS (
  SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
  FROM bands x JOIN bands y
    ON x.band = y.band AND x.bv = y.bv AND x.doc_id < y.doc_id
)"""


def _sql_dedup_minhash_pairs() -> str:
    return f"""{_sql_minhash_cand_prefix()},
agree AS (
  SELECT c.a, c.b,
    SUM(CASE WHEN sa.val = sb.val THEN 1 ELSE 0 END) AS n_eq
  FROM cand c
  JOIN sig sa ON sa.doc_id = c.a
  JOIN sig sb ON sb.doc_id = c.b AND sb.p = sa.p
  GROUP BY c.a, c.b
)
SELECT a AS doc_id_a, b AS doc_id_b,
  CAST(n_eq AS DOUBLE) / {float(dd.N_PERMS)} AS est_jaccard
FROM agree
WHERE CAST(n_eq AS DOUBLE) / {float(dd.N_PERMS)} >= 0.5
"""


# --- lexicon quality classifier (quantized linear model) -------------------


def q_quality_classifier(sf_dir: str):
    """Model-based quality filter: fasttext-shaped linear scoring with
    integer-quantized lexicon weights (functions/classifier.py). Pure
    map_batches — no shuffle at any corpus size; exact int64 scores
    make the full model inference SQL-derivable."""
    from ..functions.classifier import classify_quality

    return classify_quality(_documents(sf_dir, ["doc_id", "text"]))


def _sql_quality_classifier() -> str:
    from ..functions.classifier import (
        OOV_WEIGHT,
        TH_DEN,
        TH_NUM,
        default_lexicon,
    )
    from ..functions.tokenize import WS_TOKEN_RE

    values = ", ".join(
        f"('{w}', {wt})" for w, wt in sorted(default_lexicon().items())
    )
    return f"""
WITH lex(w, wt) AS (VALUES {values}),
words AS (
  SELECT doc_id,
         unnest(regexp_extract_all(COALESCE(text, ''), '{WS_TOKEN_RE}')) AS w
  FROM documents
),
scored AS (
  SELECT wo.doc_id,
         COUNT(*) AS n_tokens,
         SUM(COALESCE(l.wt, {OOV_WEIGHT})) AS total
  FROM words wo LEFT JOIN lex l ON wo.w = l.w
  GROUP BY wo.doc_id
)
SELECT d.doc_id,
  CAST(COALESCE(s.n_tokens, 0) AS BIGINT) AS n_tokens,
  CAST(COALESCE(s.total, 0) AS BIGINT) AS score_total,
  CAST(COALESCE(s.total, 0) AS DOUBLE)
    / CAST(greatest(COALESCE(s.n_tokens, 0), 1) AS DOUBLE) AS score_mean,
  (COALESCE(s.total, 0) * {TH_DEN} >= {TH_NUM} * COALESCE(s.n_tokens, 0))
    AS keep_quality
FROM documents d LEFT JOIN scored s ON s.doc_id = d.doc_id
"""


# --- quality binning (quantile buckets over classifier scores) -------------

# quartile cutpoints: exactly-representable binary fractions so the
# engine's ceil(q*n) walk can never drift from the oracle's float math
# (the events_value_percentiles discipline)
_BIN_QS = (0.25, 0.5, 0.75)


def q_quality_bins(sf_dir: str):
    """Quality-quantile binning for data-mixing ratios: every document
    gets the quartile bucket of its classifier score (0 = worst). Two
    streaming passes: (1) classifier scores fold into a per-batch
    score histogram (Arrow ``group_by`` partial; the quantized-int
    score domain is tiny, so the global combine and the driver-side
    cutpoint walk are O(domain), not O(corpus)); (2) the scores are
    recomputed and binned against the broadcast cutpoints with one
    ``searchsorted``. At 100 TB you would persist pass-1 scores and
    rebin the parquet instead of re-running the model — the two-pass
    shape here matches the scrub_boilerplate/decontaminate convention
    of re-reading the lazy input."""
    import math

    from ..functions.classifier import classify_quality
    from ..partitioning import parquet_rows_hint

    docs = _documents(sf_dir, ["doc_id", "text"])
    hint = parquet_rows_hint(docs)
    if hint and hint <= 10_000_000:
        # driver-scale: score once, reuse for both passes (the score
        # projection is ~16 B/row). At corpus scale re-executing the
        # lazy pipeline beats pinning 10^12 rows in the object store.
        cached = classify_quality(docs).materialize()

        def scores():
            return cached

    else:

        def scores():
            return classify_quality(
                _documents(sf_dir, ["doc_id", "text"])
            )

    def hist_partial(b: pa.Table) -> pa.Table:
        g = pa.table({"score_total": b.column("score_total")}).group_by(
            "score_total"
        ).aggregate([("score_total", "count")])
        return pa.table(
            {
                "score_total": g.column("score_total"),
                "n": pc.cast(g.column("score_total_count"), pa.int64()),
            }
        )

    hist = (
        scores()
        .map_batches(hist_partial, batch_format="pyarrow")
        .groupby("score_total")
        .aggregate(Sum("n", alias_name="n"))
    )
    vals_l, counts_l = [], []
    for b in hist.iter_batches(batch_format="pyarrow"):
        vals_l.append(b.column("score_total").to_numpy(zero_copy_only=False))
        counts_l.append(b.column("n").to_numpy(zero_copy_only=False))
    if vals_l:
        vals = np.concatenate(vals_l)
        counts = np.concatenate(counts_l)
        order = np.argsort(vals)
        vals, counts = vals[order], counts[order]
        cum = np.cumsum(counts)
        n = int(cum[-1])
        # quantile_disc semantics: 0-indexed element ceil(q*n)-1
        cuts = np.array(
            [
                vals[np.searchsorted(cum, max(math.ceil(q * n) - 1, 0), "right")]
                for q in _BIN_QS
            ],
            dtype=np.int64,
        )
    else:
        cuts = np.empty(0, np.int64)

    def assign(b: pa.Table) -> pa.Table:
        s = b.column("score_total").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "score_total": b.column("score_total"),
                "bin": pa.array(
                    np.searchsorted(cuts, s, side="right").astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    return scores().map_batches(assign, batch_format="pyarrow")


def _sql_quality_bins() -> str:
    inds = " + ".join(
        f"CAST(s.score_total >= c.c{i} AS INT)" for i in range(len(_BIN_QS))
    )
    cs = ", ".join(
        f"quantile_disc(score_total, {q}) AS c{i}"
        for i, q in enumerate(_BIN_QS)
    )
    return f"""
WITH s AS ({_sql_quality_classifier()}),
cut AS (SELECT {cs} FROM s)
SELECT s.doc_id, s.score_total, CAST({inds} AS BIGINT) AS bin
FROM s, cut c
"""


# --- exact n-gram Jaccard (rare-gram candidates + exact verify) ------------

_JACC_K = 5
_JACC_MAX_DF = 8
_JACC_MIN_J = 0.5


def q_minhash_lsh_recall(sf_dir: str):
    """One row (n_true_pairs, n_collided, recall): of every TRUE
    near-duplicate pair (exact word-5-gram Jaccard ≥ 0.5, the
    dedup_jaccard verifier's own output), the fraction that the
    16-band minhash LSH candidate generator actually reaches — the
    blocking-recall diagnostic for the SKETCH side of the dedup
    family (blocking_recall covers the phonetic/ER side). A pair the
    bands never collide on is unreachable by block-then-verify
    however good the verifier is; this measures that loss empirically
    against the banding's theoretical S-curve.

    Plan (join-free): the exact-pair pipeline runs unchanged; each
    pair fans to two (doc, side) rows; per-doc 512-byte signature
    blobs ride ONE doc-keyed shuffle to meet them; a (a, b)-keyed
    group compares the 16 bands (4 consecutive perms each) directly
    on the blobs. Text never moves; no broadcast of either side."""
    import ray  # noqa: F401  (dup-corpus helpers may lazily need it)
    from ray.data.aggregate import Sum as _Sum

    from ..functions import dedup as ddm
    from ..functions.jaccard import ngram_jaccard_pairs
    from ..partitioning import adaptive_partitions

    _ensure_simhash_vocab_export(sf_dir)
    corpus = _dup_corpus(sf_dir)
    pairs = ngram_jaccard_pairs(
        corpus,
        k=_JACC_K,
        max_df=_JACC_MAX_DF,
        min_jaccard=_JACC_MIN_J,
        num_partitions=adaptive_partitions(
            _dup_corpus_rows(sf_dir) * 96, row_bytes=24
        ),
    )

    def pair_sides(b: pa.Table) -> pa.Table:
        a = pc.cast(b.column("doc_id_a"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        bb = pc.cast(b.column("doc_id_b"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        n = len(a)
        return pa.table(
            {
                "doc": pa.array(np.concatenate([a, bb]), pa.int64()),
                "a": pa.array(np.concatenate([a, a]), pa.int64()),
                "b": pa.array(np.concatenate([bb, bb]), pa.int64()),
                "side": pa.array(
                    np.concatenate(
                        [np.zeros(n, np.int64), np.ones(n, np.int64)]
                    )
                ),
                "sig": pa.array([None] * (2 * n), pa.binary()),
            }
        )

    def doc_sigs(b: pa.Table) -> pa.Table:
        t = ddm._signature_stage(b, "text", "doc_id")
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return pa.table(
                {
                    "doc": pa.array([], pa.int64()),
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int64()),
                    "sig": pa.array([], pa.binary()),
                }
            )
        # one row per doc (the stage emits one per band with the same
        # full-signature blob)
        first = np.sort(np.unique(ids, return_index=True)[1])
        take = pa.array(first, pa.int64())
        n = len(first)
        return pa.table(
            {
                "doc": t.column("doc_id").take(take),
                "a": pa.array(np.full(n, -1, np.int64)),
                "b": pa.array(np.full(n, -1, np.int64)),
                "side": pa.array(np.full(n, -1, np.int64)),
                "sig": t.column("signature").take(take),
            }
        )

    def attach(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        sig_rows = np.flatnonzero(side == -1)
        pair_rows = np.flatnonzero(side >= 0)
        empty = pa.table(
            {
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
                "side": pa.array([], pa.int64()),
                "sig": pa.array([], pa.binary()),
            }
        )
        if len(sig_rows) == 0 or len(pair_rows) == 0:
            return empty
        blob = g.column("sig")[int(sig_rows[0])].as_py()
        take = pa.array(pair_rows, pa.int64())
        k = len(pair_rows)
        return pa.table(
            {
                "a": g.column("a").take(take),
                "b": g.column("b").take(take),
                "side": g.column("side").take(take),
                "sig": pa.array([blob] * k, pa.binary()),
            }
        )

    def compare(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        sigs = g.column("sig").to_pylist()
        i0 = np.flatnonzero(side == 0)
        i1 = np.flatnonzero(side == 1)
        if len(i0) == 0 or len(i1) == 0:  # a side lost its signature
            return pa.table(
                {"n": pa.array([1], pa.int64()),
                 "c": pa.array([0], pa.int64())}
            )
        sa = np.frombuffer(sigs[int(i0[0])], np.uint64).reshape(
            ddm.N_BANDS, ddm.ROWS_PER_BAND
        )
        sb = np.frombuffer(sigs[int(i1[0])], np.uint64).reshape(
            ddm.N_BANDS, ddm.ROWS_PER_BAND
        )
        coll = bool((sa == sb).all(axis=1).any())
        return pa.table(
            {"n": pa.array([1], pa.int64()),
             "c": pa.array([int(coll)], pa.int64())}
        )

    parts = (
        pairs.map_batches(pair_sides, batch_format="pyarrow")
        .union(corpus.map_batches(doc_sigs, batch_format="pyarrow"))
        .groupby("doc")
        .map_groups(attach, batch_format="pyarrow")
        .groupby(["a", "b"])
        .map_groups(compare, batch_format="pyarrow")
    )
    tot = parts.aggregate(_Sum("n"), _Sum("c"))
    n_pairs = int(tot["sum(n)"] or 0)
    n_coll = int(tot["sum(c)"] or 0)
    return pa.table(
        {
            "n_true_pairs": pa.array([n_pairs], pa.int64()),
            "n_collided": pa.array([n_coll], pa.int64()),
            "recall": pa.array(
                [float(n_coll) / float(n_pairs) if n_pairs else 0.0],
                pa.float64(),
            ),
        }
    )


def _sql_minhash_lsh_recall() -> str:
    return f"""{_sql_minhash_cand_prefix()},
truth AS (
  SELECT doc_id_a AS a, doc_id_b AS b
  FROM ({_sql_dedup_jaccard()}) tj
),
hits AS (
  SELECT t.a, t.b FROM truth t JOIN cand c ON c.a = t.a AND c.b = t.b
),
agg AS (
  SELECT CAST((SELECT COUNT(*) FROM truth) AS BIGINT) AS n_true_pairs,
         CAST((SELECT COUNT(*) FROM hits) AS BIGINT) AS n_collided
)
SELECT n_true_pairs, n_collided,
  CASE WHEN n_true_pairs > 0
       THEN CAST(n_collided AS DOUBLE) / CAST(n_true_pairs AS DOUBLE)
       ELSE 0.0 END AS recall
FROM agg
"""


def q_simhash_recall(sf_dir: str):
    """One row (n_true_pairs, n_within_hamming, recall): of the exact
    word-5-gram-Jaccard ≥ 0.5 true near-dup pairs, the fraction whose
    64-bit SimHash fingerprints sit within Hamming distance 3 — i.e.
    reachable by the banded SimHash search at all (the banding itself
    is EXACT at ≤3 by pigeonhole, so this measures the FINGERPRINT's
    loss, the companion number to minhash_lsh_recall's banding loss).

    Same join-free plan as minhash_lsh_recall with an 8-byte payload:
    pairs fan to (doc, side) rows, per-doc simhashes ride one
    doc-keyed shuffle, the pair group XOR+popcounts directly."""
    from ray.data.aggregate import Sum as _Sum

    from ..functions import dedup as ddm
    from ..functions.jaccard import ngram_jaccard_pairs
    from ..partitioning import adaptive_partitions

    _ensure_simhash_vocab_export(sf_dir)
    corpus = _dup_corpus(sf_dir)
    pairs = ngram_jaccard_pairs(
        corpus,
        k=_JACC_K,
        max_df=_JACC_MAX_DF,
        min_jaccard=_JACC_MIN_J,
        num_partitions=adaptive_partitions(
            _dup_corpus_rows(sf_dir) * 96, row_bytes=24
        ),
    )

    def pair_sides(b: pa.Table) -> pa.Table:
        a = pc.cast(b.column("doc_id_a"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        bb = pc.cast(b.column("doc_id_b"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        n = len(a)
        return pa.table(
            {
                "doc": pa.array(np.concatenate([a, bb]), pa.int64()),
                "a": pa.array(np.concatenate([a, a]), pa.int64()),
                "b": pa.array(np.concatenate([bb, bb]), pa.int64()),
                "side": pa.array(
                    np.concatenate(
                        [np.zeros(n, np.int64), np.ones(n, np.int64)]
                    )
                ),
                "sh": pa.array(np.zeros(2 * n, np.int64), pa.int64()),
            }
        )

    def doc_hashes(b: pa.Table) -> pa.Table:
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        sh = ddm.simhash_batch(text)
        n = len(b)
        return pa.table(
            {
                "doc": pc.cast(b.column("doc_id"), pa.int64()),
                "a": pa.array(np.full(n, -1, np.int64)),
                "b": pa.array(np.full(n, -1, np.int64)),
                "side": pa.array(np.full(n, -1, np.int64)),
                "sh": pa.array(sh.view(np.int64), pa.int64()),
            }
        )

    def attach(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        hrows = np.flatnonzero(side == -1)
        prows = np.flatnonzero(side >= 0)
        if len(hrows) == 0 or len(prows) == 0:
            return pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int64()),
                    "sh": pa.array([], pa.int64()),
                }
            )
        hv = int(g.column("sh")[int(hrows[0])].as_py())
        take = pa.array(prows, pa.int64())
        return pa.table(
            {
                "a": g.column("a").take(take),
                "b": g.column("b").take(take),
                "side": g.column("side").take(take),
                "sh": pa.array([hv] * len(prows), pa.int64()),
            }
        )

    def compare(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy(zero_copy_only=False)
        sh = g.column("sh").to_numpy(zero_copy_only=False).view(np.uint64)
        i0 = np.flatnonzero(side == 0)
        i1 = np.flatnonzero(side == 1)
        within = 0
        if len(i0) and len(i1):
            x = int(sh[int(i0[0])] ^ sh[int(i1[0])])
            within = int(bin(x).count("1") <= 3)
        return pa.table(
            {"n": pa.array([1], pa.int64()),
             "c": pa.array([within], pa.int64())}
        )

    parts = (
        pairs.map_batches(pair_sides, batch_format="pyarrow")
        .union(corpus.map_batches(doc_hashes, batch_format="pyarrow"))
        .groupby("doc")
        .map_groups(attach, batch_format="pyarrow")
        .groupby(["a", "b"])
        .map_groups(compare, batch_format="pyarrow")
    )
    tot = parts.aggregate(_Sum("n"), _Sum("c"))
    n_pairs = int(tot["sum(n)"] or 0)
    n_within = int(tot["sum(c)"] or 0)
    return pa.table(
        {
            "n_true_pairs": pa.array([n_pairs], pa.int64()),
            "n_within_hamming": pa.array([n_within], pa.int64()),
            "recall": pa.array(
                [float(n_within) / float(n_pairs) if n_pairs else 0.0],
                pa.float64(),
            ),
        }
    )


def _sql_simhash_recall() -> str:
    return f"""
WITH {_sql_simhash_vals(_DUP_CORPUS_SQL.strip()).strip()},
truth AS (
  SELECT doc_id_a AS a, doc_id_b AS b
  FROM ({_sql_dedup_jaccard()}) tj
),
hits AS (
  SELECT t.a, t.b
  FROM truth t
  JOIN vals va ON va.doc_id = t.a
  JOIN vals vb ON vb.doc_id = t.b
  WHERE bit_count(xor(va.simhash, vb.simhash)) <= 3
),
agg AS (
  SELECT CAST((SELECT COUNT(*) FROM truth) AS BIGINT) AS n_true_pairs,
         CAST((SELECT COUNT(*) FROM hits) AS BIGINT) AS n_within_hamming
)
SELECT n_true_pairs, n_within_hamming,
  CASE WHEN n_true_pairs > 0
       THEN CAST(n_within_hamming AS DOUBLE)
            / CAST(n_true_pairs AS DOUBLE)
       ELSE 0.0 END AS recall
FROM agg
"""


def q_dedup_jaccard(sf_dir: str):
    """EXACT word-5-gram Jaccard near-dup pairs over the dup corpus:
    rare-gram candidate generation (df ≤ 8 ⇒ bounded pair expansion,
    no hot-bucket cap needed) then exact set-overlap verification over
    the candidate closure (functions/jaccard.py). Unlike the minhash/
    simhash SKETCHES this is fully SQL-expressible, so it carries the
    dedup family's exact differential oracle."""
    from ..functions.jaccard import ngram_jaccard_pairs
    from ..partitioning import adaptive_partitions

    # union corpus has no parquet lineage: size the gram shuffle from
    # the documents footer (~96 distinct grams per doc, 24 B rows)
    return ngram_jaccard_pairs(
        _dup_corpus(sf_dir),
        k=_JACC_K,
        max_df=_JACC_MAX_DF,
        min_jaccard=_JACC_MIN_J,
        num_partitions=adaptive_partitions(
            _dup_corpus_rows(sf_dir) * 96, row_bytes=24
        ),
    )


def _sql_dedup_jaccard() -> str:
    from ..functions.tokenize import WS_TOKEN_RE

    leads = " || ' ' || ".join(
        f"LEAD(w, {j}) OVER win" for j in range(1, _JACC_K)
    )
    return f"""
WITH {_DUP_CORPUS_SQL.strip()},
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
  QUALIFY LEAD(w, {_JACC_K - 1}) OVER win IS NOT NULL
),
rare AS (
  SELECT g FROM grams GROUP BY g
  HAVING COUNT(*) BETWEEN 2 AND {_JACC_MAX_DF}
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
       CAST(i.n_common AS DOUBLE) / CAST(sa.n + sb.n - i.n_common AS DOUBLE)
         AS jaccard
FROM inter i
JOIN sizes sa ON sa.doc_id = i.doc_id_a
JOIN sizes sb ON sb.doc_id = i.doc_id_b
WHERE CAST(i.n_common AS DOUBLE) / CAST(sa.n + sb.n - i.n_common AS DOUBLE)
      >= {_JACC_MIN_J}
"""


# --- simhash oracle: DuckDB recomputes every fingerprint ------------------
# The word-hash primitive (8-byte blake2b, functions/hashing.py) is not
# SQL-expressible, so — the gate_decisions LM-parameter pattern — the
# query exports the corpus VOCABULARY's (word → uint64 hash) table and
# DuckDB re-derives each document's SimHash from raw text: whitespace
# split → hash join → per-bit majority vote over 64 bits → signed
# reassembly. A TRUE differential of the fingerprint math (weighting,
# majority, bit packing), with only the byte-level hash as a parameter.
# The export is size-gated: it is oracle support for test scales, never
# a production stage.

_SIMHASH_VOCAB_DIR = "/tmp/rsmetacheck_simhash_oracle"
_SIMHASH_VOCAB_EXPORT_MAX = 1_000_000  # document rows


def _ensure_simhash_vocab_export(sf_dir: str) -> None:
    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, "documents.parquet")
    if pq.ParquetFile(path).metadata.num_rows > _SIMHASH_VOCAB_EXPORT_MAX:
        return  # oracle support only — skip at scale
    texts = pq.read_table(path, columns=["text"]).column("text")
    words = pc.utf8_split_whitespace(pc.fill_null(texts, "")).combine_chunks()
    flat = words.flatten()
    uniq = pc.unique(flat).to_pylist()
    vocab = sorted(
        {w for w in uniq if w} | set(_NEAR_SUFFIX.split())
    )
    hashes = dd._word_hashes(vocab)
    os.makedirs(_SIMHASH_VOCAB_DIR, exist_ok=True)
    out = os.path.join(_SIMHASH_VOCAB_DIR, "vocab.parquet")
    tmp = out + f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    pq.write_table(
        pa.table(
            {
                "w": pa.array(vocab, pa.string()),
                "h": pa.array(hashes, pa.uint64()),
            }
        ),
        tmp,
    )
    os.replace(tmp, out)


def _sql_simhash_vals(source_cte: str) -> str:
    """CTE block computing (doc_id, simhash) over ``corpus`` rows."""
    d = _SIMHASH_VOCAB_DIR
    return f"""
{source_cte},
toks AS (
  SELECT doc_id, unnest(regexp_split_to_array(text, '\\s+')) AS w
  FROM corpus
),
wh AS (
  SELECT t.doc_id, v.h
  FROM toks t JOIN '{d}/vocab.parquet' v ON v.w = t.w
  WHERE t.w <> ''
),
bits AS (
  SELECT doc_id, b.b,
    CASE WHEN 2 * SUM(CASE WHEN (h >> b.b) & 1 = 1 THEN 1 ELSE 0 END)
              > COUNT(*)
         THEN 1 ELSE 0 END AS bit
  FROM wh CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS b) b
  GROUP BY doc_id, b.b
),
sums AS (
  SELECT doc_id,
    CAST(SUM(CASE WHEN b = 63 THEN bit * (-9223372036854775807 - 1)
             ELSE bit * (CAST(1 AS BIGINT) << b) END) AS BIGINT) AS simhash
  FROM bits GROUP BY doc_id
),
vals AS (
  SELECT c.doc_id, COALESCE(s.simhash, 0) AS simhash
  FROM corpus c LEFT JOIN sums s ON s.doc_id = c.doc_id
)"""


def q_dedup_simhash(sf_dir: str):
    _ensure_simhash_vocab_export(sf_dir)
    return dd.simhash_dataset(_documents(sf_dir, ["doc_id", "text"]))


SQL_DEDUP_SIMHASH = f"""
WITH {_sql_simhash_vals("corpus AS (SELECT doc_id, text FROM documents)").strip()}
SELECT doc_id, simhash FROM vals
"""


def q_dedup_simhash_pairs(sf_dir: str):
    """Banded-Hamming SimHash near-dup pairs over the dup corpus. The
    4×16-bit banding is EXACT at max_hamming ≤ 3 (pigeonhole), so the
    oracle is the plain XOR + popcount self-join over the recomputed
    fingerprints — it verifies band recall, in-bucket verification and
    the cross-band dedup in one expression."""
    from ..partitioning import adaptive_partitions

    _ensure_simhash_vocab_export(sf_dir)
    return dd.simhash_pairs(
        _dup_corpus(sf_dir),
        max_hamming=3,
        num_partitions=adaptive_partitions(
            _dup_corpus_rows(sf_dir) * 4, row_bytes=32
        ),
    )


SQL_DEDUP_SIMHASH_PAIRS = f"""
WITH {_sql_simhash_vals(_DUP_CORPUS_SQL.strip().rstrip()).strip()}
SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
  CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
FROM vals a JOIN vals b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
"""


# --- CMS oracle: DuckDB rebuilds the whole sketch --------------------------
# Two non-SQL primitives get exported at query time: the per-token
# blake2b-8 hash (vocabulary-parameter pattern, one row per corpus
# token) and the candidate list (per-BATCH exact top partials — a
# block-topology artifact, like the k-means centroids). Everything
# downstream is re-derived independently in SQL: exact corpus token
# counts, all CMS_D counter indices via the splitmix64 CTE chain,
# the full (CMS_D × CMS_W) bincount table as a GROUP BY, the
# min-over-rows estimate, and the (est DESC, token ASC) top-k. A
# drift in the seed family, the modulus, the merge arithmetic or the
# tie-break shows up as a hash mismatch.

_CMS_ORACLE_DIR = "/tmp/rsmetacheck_cms_oracle"
_CMS_EXPORT_MAX = 1_000_000  # document rows; oracle support only


def _ensure_cms_export(sf_dir: str, candidates: list) -> None:
    import pyarrow.parquet as pq

    from ..functions.sketch import _token_hashes_u64
    from ..functions.tokenize import split_ws_tokens

    path = os.path.join(sf_dir, "documents.parquet")
    if pq.ParquetFile(path).metadata.num_rows > _CMS_EXPORT_MAX:
        return  # oracle support only — skip at scale
    texts = pq.read_table(path, columns=["text"]).column("text")
    flat = split_ws_tokens(texts).flatten()
    vocab = sorted(w for w in pc.unique(flat).to_pylist() if w)
    os.makedirs(_CMS_ORACLE_DIR, exist_ok=True)
    for fname, table in (
        (
            "vocab.parquet",
            pa.table(
                {
                    "w": pa.array(vocab, pa.string()),
                    "h": pa.array(_token_hashes_u64(vocab), pa.uint64()),
                }
            ),
        ),
        (
            "candidates.parquet",
            pa.table({"token": pa.array(candidates, pa.string())}),
        ),
    ):
        out = os.path.join(_CMS_ORACLE_DIR, fname)
        tmp = out + f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
        pq.write_table(table, tmp)
        os.replace(tmp, out)


def _sql_cms_heavy_hitters() -> str:
    from ..functions.sketch import CMS_W, _CMS_SEEDS

    seed_vals = ", ".join(
        f"({d}, CAST({int(s)} AS UBIGINT))"
        for d, s in enumerate(_CMS_SEEDS)
    )
    sm, sm_cte, sm_col = _sql_splitmix_ctes("cmsm", "hx", "hxv")
    d = _CMS_ORACLE_DIR
    return f"""
WITH toks AS (
  SELECT unnest(regexp_split_to_array(coalesce(text, ''),
                                      '[\\t\\n\\f\\r ]+')) AS w
  FROM documents
),
cnt AS (
  SELECT w, CAST(COUNT(*) AS BIGINT) AS n
  FROM toks WHERE w <> '' GROUP BY w
),
wh AS (
  SELECT c.w, c.n, v.h
  FROM cnt c JOIN '{d}/vocab.parquet' v ON v.w = c.w
),
seeds(sd, sv) AS (VALUES {seed_vals}),
hx AS (SELECT w, n, sd, xor(h, sv) AS hxv FROM wh CROSS JOIN seeds),
{sm.strip()},
idx AS (SELECT w, n, sd, {sm_col} % {CMS_W} AS pos FROM {sm_cte}),
tab AS (
  SELECT sd, pos, CAST(SUM(n) AS BIGINT) AS cell
  FROM idx GROUP BY sd, pos
),
cpos AS (
  SELECT c.token, i.sd, i.pos
  FROM '{d}/candidates.parquet' c JOIN idx i ON i.w = c.token
),
est AS (
  SELECT p.token, MIN(t.cell) AS est_n
  FROM cpos p JOIN tab t ON t.sd = p.sd AND t.pos = p.pos
  GROUP BY p.token
)
SELECT token, CAST(est_n AS BIGINT) AS est_n
FROM est
ORDER BY est_n DESC, token ASC
LIMIT 50
"""


def q_cms_heavy_hitters(sf_dir: str):
    """Count-min-sketch heavy hitters over the document tokens
    (functions/sketch.py): fixed-size frequency sketch per block,
    two-level merge, candidates from per-batch exact top partials,
    global ranks from the sketch. The sketch arithmetic is exact
    integers (order-free bincount sums), so the DuckDB oracle
    rebuilds the whole table from the exported token hashes and
    re-ranks the exported candidates — hash-level match; the
    overestimate guarantee, merge order-independence and Zipf top-k
    agreement stay pinned in pytest."""
    from ..functions.sketch import cms_rank_candidates, cms_token_sketch

    tab, toks = cms_token_sketch(
        _documents(sf_dir, ["doc_id", "text"]), "text",
        per_batch_candidates=20,
    )
    _ensure_cms_export(sf_dir, toks)
    return rd.from_arrow(cms_rank_candidates(tab, toks, k=50))


def q_common_users_by_type(sf_dir: str):
    """Pairwise ESTIMATED common distinct users between event types —
    the set-INTERSECTION cardinality HLL cannot provide, from bottom-k
    (KMV) sketches (functions/sketch.py).

    Plan: per batch, one bottom-k partial per event type (distinct
    splitmix64 user hashes, k smallest — ≤ |types|·k sketch rows per
    batch on the wire, never user rows); a |types|-group merge keeps
    each type's global bottom-k; the driver forms the |types|² pair
    estimates from the bounded sketch table.

    Oracle note: a KMV sketch with fewer than k entries IS the complete
    distinct hash set, so the estimate is EXACT whenever per-type
    distinct users ≤ k=4096 — true at the driver's correctness SF
    (hence the SQL oracle); at larger scale it degrades to the
    standard θ-thresholded KMV estimate (accuracy pinned in
    tests/test_sketch.py)."""
    from ..functions.sketch import (
        KMV_K, kmv_intersection, kmv_merge, kmv_partial,
    )

    ds = rel._read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "user_id"],
    )

    def partial(b: pa.Table) -> pa.Table:
        et = b.column("event_type")
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        enc = et.dictionary_encode()
        types = enc.dictionary.to_pylist()
        idx = enc.indices.to_numpy(zero_copy_only=False)
        uid = b.column("user_id").to_numpy(zero_copy_only=False)
        out_t, out_h = [], []
        for i, t in enumerate(types):
            h = kmv_partial(uid[idx == i])
            out_t.extend([t] * len(h))
            out_h.append(h)
        return pa.table(
            {
                "event_type": pa.array(out_t, pa.string()),
                "h": pa.array(
                    np.concatenate(out_h)
                    if out_h
                    else np.empty(0, np.uint64),
                    pa.uint64(),
                ),
            }
        )

    def merge(g: pa.Table) -> pa.Table:
        h = kmv_merge(
            [g.column("h").to_numpy(zero_copy_only=False).astype(np.uint64)]
        )
        t = g.column("event_type")[0].as_py()
        return pa.table(
            {
                "event_type": pa.array([t] * len(h), pa.string()),
                "h": pa.array(h, pa.uint64()),
            }
        )

    sketches = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(merge, batch_format="pyarrow")
    )
    tbl = sketches.take_all()  # ≤ |types| × k sketch rows — bounded
    by_type: dict[str, list] = {}
    for r in tbl:
        by_type.setdefault(r["event_type"], []).append(r["h"])
    sk = {
        t: np.asarray(sorted(hs), np.uint64) for t, hs in by_type.items()
    }
    types = sorted(sk)
    rows_a, rows_b, rows_e = [], [], []
    for i, a in enumerate(types):
        for b in types[i + 1:]:
            est = kmv_intersection(sk[a], sk[b])
            if est > 0:
                rows_a.append(a)
                rows_b.append(b)
                rows_e.append(est)
    return pa.table(
        {
            "type_a": pa.array(rows_a, pa.string()),
            "type_b": pa.array(rows_b, pa.string()),
            "est_common": pa.array(rows_e, pa.int64()),
        }
    )


SQL_COMMON_USERS = """
WITH tu AS (SELECT DISTINCT event_type, user_id FROM events)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(COUNT(*) AS BIGINT) AS est_common
FROM tu a JOIN tu b
  ON a.user_id = b.user_id AND a.event_type < b.event_type
GROUP BY 1, 2
ORDER BY 1, 2
"""


def q_approx_distinct_users(sf_dir: str):
    """HyperLogLog distinct user count over events (the mergeable
    cardinality sketch; deterministic, rows-only — accuracy pinned by
    tests/test_sketch.py against the exact distinct)."""
    from ..functions.sketch import approx_distinct_table

    ds = rel._read_pq(os.path.join(sf_dir, "events.parquet"), columns=["user_id"])
    return approx_distinct_table(ds, "user_id")


def q_approx_distinct_users_by_type(sf_dir: str):
    """Per-event-type HLL distinct users — the mergeable sketch as a
    GROUPED aggregate (one 4 KiB register blob per (batch, key) into
    the shuffle, register-max reduce per group). The estimate itself
    is deterministic and order-free (exact-integer harmonic sum), so
    the DuckDB oracle re-derives every register and estimate from raw
    rows; per-group accuracy vs exact stays pinned in
    tests/test_sketch.py."""
    from ..functions.sketch import approx_distinct_by_key

    ds = rel._read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "user_id"],
    )
    return approx_distinct_by_key(ds, "event_type", "user_id")


def _sql_hll(group_cols: str) -> str:
    """HLL re-derivation: splitmix64(user_id) → (register, rank) →
    per-group register max → the exact-integer harmonic estimate. The
    ``bin()`` string length gives the exact bit length (floor(log2)
    rounds wrong within half an ulp of integer exponents)."""
    from ..functions.sketch import _ALPHA, N_REGS, P_BITS

    g = group_cols
    gsel = f"{g}, " if g else ""
    gby = f"GROUP BY {g}" if g else ""
    sm, cte, col = _sql_splitmix_ctes("hqm", "uvals", "v")
    w_mask = (1 << (64 - P_BITS)) - 1
    two53 = 1 << 53
    return f"""
uvals AS (SELECT {gsel}CAST(user_id AS UBIGINT) AS v FROM events),
{sm.strip()},
rw AS (
  SELECT {gsel}{col} >> {64 - P_BITS} AS idx,
         {col} % {w_mask + 1} AS w
  FROM {cte}
),
rk AS (
  SELECT {gsel}idx,
    CASE WHEN w = 0 THEN {64 - P_BITS + 1}
         ELSE {64 - P_BITS + 1} - length(bin(CAST(w AS BIGINT))) END
      AS rank
  FROM rw
),
regs AS (
  SELECT {gsel}idx, MAX(rank) AS r FROM rk GROUP BY {gsel}idx
),
hagg AS (
  SELECT {gsel}
    SUM(CAST(CAST(1 AS BIGINT) << (53 - r) AS HUGEINT)) AS s,
    COUNT(*) AS nidx
  FROM regs {gby}
),
hest AS (
  SELECT {gsel}
    ((CAST({_ALPHA!r} AS DOUBLE) * {float(N_REGS)!r}) * {float(N_REGS)!r})
      / (CAST(s + CAST({N_REGS} - nidx AS HUGEINT) * {two53}
              AS DOUBLE) / CAST({float(two53)!r} AS DOUBLE)) AS raw,
    {N_REGS} - nidx AS zeros
  FROM hagg
),
hfinal AS (
  SELECT {gsel}
    CAST(FLOOR((CASE WHEN raw <= {2.5 * N_REGS!r} AND zeros > 0
          THEN {float(N_REGS)!r} * ln({float(N_REGS)!r}
                                      / CAST(zeros AS DOUBLE))
          ELSE raw END) + 0.5) AS BIGINT) AS approx_distinct
  FROM hest
)"""


def _sql_approx_distinct_users() -> str:
    return f"""
WITH {_sql_hll("").strip()}
SELECT approx_distinct FROM hfinal
"""


def _sql_approx_distinct_users_by_type() -> str:
    return f"""
WITH {_sql_hll("event_type").strip()}
SELECT event_type, approx_distinct FROM hfinal
"""


def q_approx_quantiles_by_type(sf_dir: str):
    """Per-event-type MRL quantile estimates — the mergeable quantile
    sketch as a GROUPED aggregate (one KB blob per (batch, key), level-
    wise merge per group); the unbounded-domain companion to the exact
    events_value_percentiles. Since r5: each group's final merged
    sketch rides out of the merge task as marker rows (q = −(level+1))
    — exported from THE task that produced the answers, so the oracle
    validates and re-derives from the exact same compaction — and the
    sketch-validating SQL oracle recomputes every estimate (see
    q_approx_quantiles). Per-group rank error vs exact remains pinned
    in tests/test_sketch.py."""
    from ..functions.sketch import approx_quantiles_by_key

    ds = rel._read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "value"],
    )
    full = approx_quantiles_by_key(
        ds, "event_type", "value", with_sketch=True
    ).take_all()  # bounded: |types| × (|qs| + MRL_K·levels) rows
    sketch_levels = [
        (r["event_type"], int(-r["q"]) - 1, [r["estimate"]])
        for r in full
        if r["q"] < 0
    ]
    _export_mrl_sketch(sketch_levels, "mrl_by_type.parquet", grouped=True)
    est = [r for r in full if r["q"] > 0]
    return pa.table(
        {
            "event_type": pa.array(
                [r["event_type"] for r in est], pa.string()
            ),
            "q": pa.array([r["q"] for r in est], pa.float64()),
            "estimate": pa.array([r["estimate"] for r in est], pa.float64()),
        }
    )


def q_approx_quantiles(sf_dir: str):
    """MRL/KLL-family mergeable quantile sketch over event values —
    one partial-sketch pass, no sort shuffle. Since r5 the FINAL
    merged sketch is exported as (item, weight=2^level) rows and the
    DuckDB oracle (a) VALIDATES it against the raw table — total
    weight must equal the non-null row count exactly (the compactor's
    odd-element rule never drops weight) and every item must be an
    actual data value — then (b) re-derives every estimate from the
    validated sketch with the engine's rule: the smallest value whose
    cumulative weight reaches ceil(q·N). Only the compaction CHOICES
    (which elements survive a halving) stay engine-side; ≤0.5 % rank
    error and merge associativity remain pinned by
    tests/test_sketch.py."""
    from ..functions.sketch import approx_quantiles

    ds = rel._read_pq(os.path.join(sf_dir, "events.parquet"), columns=["value"])
    levels_out: list = []
    t = approx_quantiles(ds, "value", levels_out=levels_out)
    _export_mrl_sketch(levels_out[0], "mrl_global.parquet")
    return t


_MRL_EXPORT_DIR = "/tmp/rsmetacheck_mrl_oracle"


def _export_mrl_sketch(levels, fname: str, grouped: bool = False) -> None:
    """(item, weight) rows of a merged MRL sketch — atomic tmp+rename
    like the other oracle parameter exports. ``grouped``: levels is an
    iterable of (key, level, values) instead of a per-level list."""
    import pyarrow.parquet as _pq

    os.makedirs(_MRL_EXPORT_DIR, exist_ok=True)
    out = os.path.join(_MRL_EXPORT_DIR, fname)
    tmp = out + f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    items, weights, kcol = [], [], []
    if not grouped:
        for lvl, buf in enumerate(levels):
            items.extend(float(x) for x in buf)
            weights.extend([1 << lvl] * len(buf))
        cols = {
            "item": pa.array(items, pa.float64()),
            "weight": pa.array(weights, pa.int64()),
        }
    else:
        for key, lvl, buf in levels:
            items.extend(float(x) for x in buf)
            weights.extend([1 << lvl] * len(buf))
            kcol.extend([key] * len(buf))
        cols = {
            "key": pa.array(kcol, pa.string()),
            "item": pa.array(items, pa.float64()),
            "weight": pa.array(weights, pa.int64()),
        }
    _pq.write_table(pa.table(cols), tmp)
    os.replace(tmp, out)


def _sql_approx_quantiles(by_type: bool) -> str:
    """Sketch-validating oracle (see q_approx_quantiles). The CASE
    gate nulls every estimate when the export is inconsistent with the
    raw table, so a bogus sketch can never hash-match."""
    from ..functions.sketch import MRL_QS, MRL_QS_BY_KEY

    qs = MRL_QS_BY_KEY if by_type else MRL_QS
    path = os.path.join(
        _MRL_EXPORT_DIR,
        "mrl_by_type.parquet" if by_type else "mrl_global.parquet",
    )
    qvals = ", ".join(f"({q})" for q in qs)
    if not by_type:
        return f"""
WITH sk AS (SELECT item, weight FROM read_parquet('{path}')),
raw AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS c FROM events
  WHERE value IS NOT NULL AND NOT isnan(value)
),
tot AS (SELECT CAST(SUM(weight) AS BIGINT) AS n FROM sk),
valid AS (
  SELECT (SELECT n FROM tot) = (SELECT c FROM raw)
    AND NOT EXISTS (
      SELECT 1 FROM sk
      WHERE item NOT IN (SELECT value FROM events WHERE value IS NOT NULL)
    ) AS ok
),
g AS (SELECT item, CAST(SUM(weight) AS BIGINT) AS w FROM sk GROUP BY item),
c AS (SELECT item, SUM(w) OVER (ORDER BY item) AS cw FROM g),
qs(q) AS (VALUES {qvals})
SELECT CAST(q AS DOUBLE) AS q,
  CASE WHEN (SELECT ok FROM valid) THEN (
    SELECT MIN(item) FROM c, tot
    WHERE cw >= GREATEST(1, LEAST(CAST(ceil(q * tot.n) AS BIGINT), tot.n))
  ) END AS estimate
FROM qs
"""
    return f"""
WITH sk AS (
  SELECT key AS event_type, item, weight FROM read_parquet('{path}')
),
raw AS (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS c FROM events
  WHERE value IS NOT NULL AND NOT isnan(value) GROUP BY event_type
),
tot AS (
  SELECT event_type, CAST(SUM(weight) AS BIGINT) AS n
  FROM sk GROUP BY event_type
),
valid AS (
  SELECT t.event_type,
    t.n = r.c AND NOT EXISTS (
      SELECT 1 FROM sk s
      WHERE s.event_type = t.event_type AND s.item NOT IN (
        SELECT value FROM events e
        WHERE e.event_type = t.event_type AND value IS NOT NULL
      )
    ) AS ok
  FROM tot t JOIN raw r ON r.event_type = t.event_type
),
g AS (
  SELECT event_type, item, CAST(SUM(weight) AS BIGINT) AS w
  FROM sk GROUP BY event_type, item
),
c AS (
  SELECT event_type, item,
    SUM(w) OVER (PARTITION BY event_type ORDER BY item) AS cw
  FROM g
),
qs(q) AS (VALUES {qvals})
SELECT t.event_type, CAST(qs.q AS DOUBLE) AS q,
  CASE WHEN v.ok THEN (
    SELECT MIN(item) FROM c
    WHERE c.event_type = t.event_type
      AND cw >= GREATEST(1, LEAST(CAST(ceil(qs.q * t.n) AS BIGINT), t.n))
  ) END AS estimate
FROM tot t JOIN valid v ON v.event_type = t.event_type CROSS JOIN qs
"""


def q_approx_quantiles_sampled(sf_dir: str):
    """PARTITION-INVARIANT approximate quantiles: exact quantiles of
    the global bottom-k splitmix64(event_id) sample
    (functions/sketch.sampled_quantiles). Unlike the MRL sketch the
    result is bitwise identical at any block layout — the
    reproducibility a resumed/retried 100 TB run needs — and the whole
    operator is SQL-derivable, so it carries a FULL oracle (the MRL
    pair stays as the bounded-memory streaming alternative)."""
    from ..functions.sketch import sampled_quantiles

    ds = rel._read_pq(
        os.path.join(sf_dir, "events.parquet"), columns=["event_id", "value"]
    )
    return sampled_quantiles(ds, "event_id", "value")


def q_approx_quantiles_sampled_by_type(sf_dir: str):
    """Per-event-type sampled quantiles — the grouped variant of
    approx_quantiles_sampled (each group keeps its own bottom-k)."""
    from ..functions.sketch import sampled_quantiles_by_key

    ds = rel._read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_type", "event_id", "value"],
    )
    return sampled_quantiles_by_key(ds, "event_type", "event_id", "value")


def _sql_sampled_quantiles(by_type: bool) -> str:
    """Oracle: re-derive the bottom-k hash sample (splitmix64 is a u64
    bijection, so distinct event_ids never tie) and the nearest-rank
    lookup LEAST(n-1, n*pct//100) — mirrors sketch._sq_rank."""
    from ..functions.sketch import SQ_K, SQ_PCTS

    sm, cte, col = _sql_splitmix_ctes("sqm", "ids", "eid")
    key_sel = "event_type, " if by_type else ""
    key_part = "PARTITION BY event_type " if by_type else ""
    pcts = ", ".join(str(p) for p in SQ_PCTS)
    return f"""
WITH ids AS (
  SELECT {key_sel}CAST(event_id AS UBIGINT) AS eid, value FROM events
),
{sm.strip()},
samp AS (
  SELECT {key_sel}value FROM {cte}
  QUALIFY row_number() OVER ({key_part}ORDER BY {col}) <= {SQ_K}
),
sorted_samp AS (
  SELECT {key_sel}value,
    row_number() OVER ({key_part}ORDER BY value) AS rn,
    COUNT(*) OVER ({key_part.rstrip() if by_type else ''}) AS n
  FROM samp
),
pcts AS (SELECT unnest([{pcts}]) AS pct)
SELECT {'s.event_type, ' if by_type else ''}CAST(p.pct AS BIGINT) AS pct,
  s.value AS est
FROM pcts p JOIN sorted_samp s
  ON s.rn - 1 = LEAST(s.n - 1, (s.n * p.pct) // 100)
"""


def _sql_session_duration_quantiles() -> str:
    from ..functions.sketch import SQ_K, SQ_PCTS
    from .relational import SESSION_GAP_S

    sm, cte, col = _sql_splitmix_ctes("sdq", "ids", "eid")
    return rel.SESSION_DURATION_QUANTILES_SQL_TEMPLATE.format(
        gap_us=SESSION_GAP_S * 1_000_000,
        sm=sm.strip(),
        cte=cte,
        col=col,
        k=SQ_K,
        pcts=", ".join(str(p) for p in SQ_PCTS),
    )


def _sql_customer_rfm_bins() -> str:
    from ..functions.sketch import SQ_K

    sm, cte, col = _sql_splitmix_ctes("rfm", "ids", "ck")
    return rel._rfm_sql(sm.strip(), cte, col, SQ_K)


def q_doc_chunk_fingerprints(sf_dir: str):
    """Content-defined rolling-hash chunk fingerprints. Rows-only —
    WHY: a chunk boundary is a stateful per-BYTE decision (gear
    rolling hash with FastCDC min/avg/max bounds: the hash value at
    byte i depends on the previous 64 bytes AND the position of the
    previous cut), so a faithful SQL re-derivation would be a
    per-byte recursive CTE over every document — at which point the
    oracle is a second implementation of the chunker, not an
    independent check (and the u64 wraparound would ride the same
    splitmix-CTE emulation the engine exports, proving nothing).
    Instead the DERIVED pair queries (dedup_partial_overlap) carry
    full oracles over the exported chunk table, and the chunker
    itself is pinned by tests/test_fingerprint.py (boundary
    determinism, bounds, shift-resistance)."""
    from ..functions.fingerprint import chunk_fingerprints

    return chunk_fingerprints(_documents(sf_dir, ["doc_id", "text"]))


# --- partial-overlap oracle: DuckDB re-derives the pair machinery ----------
# The content-defined chunker (gear rolling hash + FastCDC bounds +
# blake2b chunk hash, functions/fingerprint.py) is the non-SQL
# primitive — the query exports the dup corpus's (doc_id, chunk_hash)
# rows (the bloom content-hash pattern) and DuckDB independently
# re-derives everything the DISTRIBUTED side does: the per-chunk
# distinct-doc groups, the all-pairs expansion within each group
# (a < b), the cross-chunk pair count, and the >= min_shared_chunks
# threshold. A drift in the hashed-partition group logic, the
# within-doc repeated-chunk dedup, or the count reduce shows up as a
# hash mismatch. The hot-boilerplate truncation cap never fires on
# the test corpora (it logs when it does), so the oracle is exact.

_CHUNK_ORACLE_DIR = "/tmp/rsmetacheck_chunk_oracle"
_CHUNK_EXPORT_MAX = 1_000_000  # corpus rows; oracle support only


def _ensure_chunk_export(sf_dir: str) -> None:
    import pyarrow.parquet as pq

    from ..functions.fingerprint import doc_chunks

    path = os.path.join(sf_dir, "documents.parquet")
    if pq.ParquetFile(path).metadata.num_rows > _CHUNK_EXPORT_MAX:
        return  # oracle support only — skip at scale
    corpus = _dup_corpus_table(pq.read_table(path, columns=["doc_id", "text"]))
    ids, hashes = [], []
    for d, t in zip(
        corpus.column("doc_id").to_pylist(), corpus.column("text").to_pylist()
    ):
        for _, _, ch, _ in doc_chunks(d, t):
            ids.append(d)
            hashes.append(ch)
    os.makedirs(_CHUNK_ORACLE_DIR, exist_ok=True)
    out = os.path.join(_CHUNK_ORACLE_DIR, "chunks.parquet")
    tmp = out + f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "chunk_hash": pa.array(hashes, pa.int64()),
            }
        ),
        tmp,
    )
    os.replace(tmp, out)


SQL_DEDUP_PARTIAL_OVERLAP = f"""
WITH ch AS (
  SELECT DISTINCT doc_id, chunk_hash
  FROM '{_CHUNK_ORACLE_DIR}/chunks.parquet'
)
SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
  CAST(COUNT(*) AS BIGINT) AS shared_chunks
FROM ch a JOIN ch b
  ON a.chunk_hash = b.chunk_hash AND a.doc_id < b.doc_id
GROUP BY a.doc_id, b.doc_id
HAVING COUNT(*) >= 2
"""


def q_dedup_partial_overlap(sf_dir: str):
    """Partial-overlap near-dup pairs over the dup corpus: documents
    sharing >=2 content-defined chunks (catches the planted
    trailing-edit near-copies AND the exact copies)."""
    from ..functions.fingerprint import partial_overlap_pairs
    from ..partitioning import adaptive_partitions, parquet_bytes_hint

    _ensure_chunk_export(sf_dir)
    nbytes = parquet_bytes_hint(_documents(sf_dir, ["doc_id", "text"])) or 0
    return partial_overlap_pairs(
        _dup_corpus(sf_dir),
        min_shared_chunks=2,
        num_partitions=adaptive_partitions(
            (nbytes + nbytes // 8) // 512 or None, row_bytes=24
        ),
    )


# --- connected components over dedup edges ---------------------------------
# Corpus with a GENUINE transitive chain A ≈ B ≈ C where A and C share
# no direct edge: B = the original document, A shares only B's 64-char
# PREFIX, C shares only B's 64-char SUFFIX. Components must unify
# {A, B, C} through B — pair output alone cannot.

_CC_PREFIX = 64


def _cc_corpus(sf_dir: str) -> rd.Dataset:
    ds = _documents(sf_dir, ["doc_id", "text"])

    def variants(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        texts = b.column("text").to_pylist()
        out_id, out_text = [], []
        for d, t in zip(ids, texts):
            t = t or ""
            if d % 10 == 0:  # exact copy (a 2-node component)
                out_id.append(int(d) + 1_000_000)
                out_text.append(t)
            if d % 16 == 1 and len(t) >= _CC_PREFIX:
                # A: shares ONLY the prefix with B
                out_id.append(int(d) + 3_000_000)
                out_text.append(t[:_CC_PREFIX] + " left variant " + str(int(d)))
                # C: shares ONLY the suffix with B
                out_id.append(int(d) + 4_000_000)
                out_text.append(str(int(d)) + " right variant " + t[-_CC_PREFIX:])
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "text": pa.array(out_text, pa.string()),
            }
        )

    return ds.union(ds.map_batches(variants, batch_format="pyarrow"))


def _cc_edges(corpus: rd.Dataset) -> rd.Dataset:
    """Near-dup edge set of the CC corpus: star pairs on the 64-char
    text PREFIX ∪ star pairs on the 64-char SUFFIX (SQL-expressible)."""

    def key_stage(mode: str):
        def stage(b: pa.Table) -> pa.Table:
            texts = b.column("text").to_pylist()
            if mode == "prefix":
                keys = [(t or "")[:_CC_PREFIX] for t in texts]
            else:
                keys = [
                    (t or "")[-_CC_PREFIX:] if t and len(t) >= _CC_PREFIX else (t or "")
                    for t in texts
                ]
            return pa.table(
                {
                    "doc_id": b.column("doc_id"),
                    "k": pa.array(keys, pa.string()),
                }
            )

        return stage

    pre = dd.exact_dedup_pairs(
        corpus.map_batches(key_stage("prefix"), batch_format="pyarrow"), text_col="k"
    )
    suf = dd.exact_dedup_pairs(
        corpus.map_batches(key_stage("suffix"), batch_format="pyarrow"), text_col="k"
    )
    return pre.union(suf)


def q_dedup_components(sf_dir: str):
    """Canonical-survivor assignment per transitive near-dup cluster:
    edges = star pairs on the 64-char text PREFIX ∪ star pairs on the
    64-char SUFFIX (both SQL-expressible), components = min reachable
    id (functions/components.py — vectorized local solve under the
    size gate, hash-to-min star contraction above it)."""
    from ..functions.components import connected_components

    corpus = _cc_corpus(sf_dir)
    return connected_components(_cc_edges(corpus))


def q_dedup_best_survivor(sf_dir: str):
    """(component_id, doc_id, score_total, n_tokens): QUALITY-AWARE
    dedup survivors — per near-dup cluster, keep the member the
    quality classifier scores best (per-token rank via exact
    cross-multiplied ints, ties → doc_id ASC) instead of the naive
    min-id canonical. The curation refinement production dedup stacks
    apply: the first-crawled copy of a page is often the worst one
    (truncated, boilerplate-heavy); singleton docs survive untouched
    and are omitted here (the cluster view is the deliverable).

    Plan: the component solve and the classifier score are both
    per-doc projections; a tag-union doc-keyed shuffle glues them and
    one component-keyed group picks the winner — 32-byte rows only,
    text never moves past the scorer."""
    from ..functions.classifier import QualityClassifier
    from ..functions.components import connected_components

    corpus = _cc_corpus(sf_dir)
    comp = connected_components(_cc_edges(corpus))

    def score_rows(b: pa.Table) -> pa.Table:
        scored = QualityClassifier()(b)
        return pa.table(
            {
                "doc_id": pc.cast(scored.column("doc_id"), pa.int64()),
                "component_id": pa.array(
                    np.full(len(b), -1, np.int64), pa.int64()
                ),
                "score_total": pc.cast(
                    scored.column("score_total"), pa.int64()
                ),
                "n_tokens": pc.cast(scored.column("n_tokens"), pa.int64()),
            }
        )

    def comp_rows(b: pa.Table) -> pa.Table:
        n = len(b)
        return pa.table(
            {
                "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                "component_id": pc.cast(
                    b.column("component_id"), pa.int64()
                ),
                "score_total": pa.array(np.zeros(n, np.int64)),
                "n_tokens": pa.array(np.full(n, -1, np.int64)),
            }
        )

    def glue(g: pa.Table) -> pa.Table:
        cidv = g.column("component_id").to_numpy(zero_copy_only=False)
        ntv = g.column("n_tokens").to_numpy(zero_copy_only=False)
        crow = np.flatnonzero(cidv >= 0)
        srow = np.flatnonzero(ntv >= 0)
        empty = pa.table(
            {
                "component_id": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "score_total": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
            }
        )
        if len(crow) == 0 or len(srow) == 0:  # singleton or scoreless
            return empty
        return pa.table(
            {
                "component_id": pa.array(
                    [int(cidv[crow[0]])], pa.int64()
                ),
                "doc_id": pa.array(
                    [int(g.column("doc_id")[0].as_py())], pa.int64()
                ),
                "score_total": pa.array(
                    [int(g.column("score_total")[int(srow[0])].as_py())],
                    pa.int64(),
                ),
                "n_tokens": pa.array(
                    [int(ntv[srow[0]])], pa.int64()
                ),
            }
        )

    def best(g: pa.Table) -> pa.Table:
        ids = g.column("doc_id").to_numpy(zero_copy_only=False)
        st = g.column("score_total").to_numpy(zero_copy_only=False)
        nt = g.column("n_tokens").to_numpy(zero_copy_only=False)
        # rank by the SAME double the oracle computes
        # (score_total / max(n_tokens,1) as float64, ties → doc_id):
        # identical IEEE division on both sides makes even the
        # distinct-rationals-equal-double edge resolve identically
        den = np.maximum(nt, 1).astype(np.float64)
        mean = st.astype(np.float64) / den
        w = int(np.lexsort((ids, -mean))[0])
        return pa.table(
            {
                "component_id": g.column("component_id").slice(0, 1),
                "doc_id": pa.array([int(ids[w])], pa.int64()),
                "score_total": pa.array([int(st[w])], pa.int64()),
                "n_tokens": pa.array([int(nt[w])], pa.int64()),
            }
        )

    return (
        corpus.map_batches(score_rows, batch_format="pyarrow")
        .union(comp.map_batches(comp_rows, batch_format="pyarrow"))
        .groupby("doc_id")
        .map_groups(glue, batch_format="pyarrow")
        .groupby("component_id")
        .map_groups(best, batch_format="pyarrow")
    )


def _sql_dedup_best_survivor() -> str:
    from ..functions.classifier import OOV_WEIGHT, default_lexicon
    from ..functions.tokenize import WS_TOKEN_RE

    values = ", ".join(
        f"('{w}', {wt})" for w, wt in sorted(default_lexicon().items())
    )
    return f"""
WITH RECURSIVE
{_CC_CORPUS_SQL.strip()},
pk AS (SELECT doc_id, substr(text, 1, {_CC_PREFIX}) AS k FROM corpus),
sk AS (
  SELECT doc_id,
    CASE WHEN length(text) >= {_CC_PREFIX}
         THEN substr(text, length(text) - {_CC_PREFIX - 1}, {_CC_PREFIX})
         ELSE text END AS k
  FROM corpus
),
pe AS (SELECT min(doc_id) OVER (PARTITION BY k) AS a, doc_id AS b FROM pk),
se AS (SELECT min(doc_id) OVER (PARTITION BY k) AS a, doc_id AS b FROM sk),
edges0 AS (
  SELECT a, b FROM pe WHERE a < b
  UNION
  SELECT a, b FROM se WHERE a < b
),
edges AS (SELECT a, b FROM edges0 UNION SELECT b, a FROM edges0),
reach AS (
  SELECT a AS node, b AS r FROM edges
  UNION
  SELECT e.a, r.r FROM edges e JOIN reach r ON e.b = r.node
),
comp AS (
  SELECT node AS doc_id, least(node, min(r)) AS component_id
  FROM reach GROUP BY node
),
lex(w, wt) AS (VALUES {values}),
words AS (
  SELECT doc_id,
         unnest(regexp_extract_all(COALESCE(text, ''), '{WS_TOKEN_RE}')) AS w
  FROM corpus
),
scored AS (
  SELECT wo.doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
         CAST(SUM(COALESCE(l.wt, {OOV_WEIGHT})) AS BIGINT) AS total
  FROM words wo LEFT JOIN lex l ON wo.w = l.w
  GROUP BY wo.doc_id
),
members AS (
  SELECT c.component_id, c.doc_id,
    COALESCE(s.total, 0) AS score_total,
    COALESCE(s.n_tokens, 0) AS n_tokens
  FROM comp c LEFT JOIN scored s ON s.doc_id = c.doc_id
),
ranked AS (
  SELECT m.*,
    ROW_NUMBER() OVER (
      PARTITION BY component_id
      ORDER BY CAST(score_total AS DOUBLE)
               / GREATEST(n_tokens, 1) DESC, doc_id) AS rk
  FROM members m
)
SELECT component_id, doc_id,
  CAST(score_total AS BIGINT) AS score_total,
  CAST(n_tokens AS BIGINT) AS n_tokens
FROM ranked WHERE rk = 1
"""


_BC_FP = 1_000_000  # micro-units; n_ct²·FP ≤ int64 while n_ct ≤ 3·10⁶


def q_dedup_bcubed(sf_dir: str):
    """One-row (n_docs, sum_p_fp, sum_r_fp, bcubed_p, bcubed_r,
    bcubed_f1): B-cubed evaluation of the near-dup CLUSTERING against
    the exact-duplicate TRUTH — per-document precision |C∩T|/|C| and
    recall |C∩T|/|T| averaged over the corpus, the standard
    cluster-quality score (Bagga & Baldwin 1998; Amigó 2009 showed
    it's the only common metric passing all four formal constraints).
    Clusters = the prefix∪suffix near-dup components; truth = exact
    text equality (the planted %10 replicas). Reading: recall 1 means
    every exact-dup pair landed in one cluster; precision < 1 charges
    the clustering for every over-merge.

    Exactness: Σ_{c,t} n_ct²/n_c and Σ n_ct²/n_t are folded in int64
    MICRO-units (floor(n_ct²·10⁶/n)) — order-free integer sums, so
    the distributed reduce and the oracle agree bitwise; the three
    doubles are single divisions/one F1 expression of those ints.

    Plan (join-free): components + a text-hash truth pass merge on a
    doc_id-keyed shuffle; (cid, tid) counting, per-cid then per-tid
    rollups carry n_c / n_t along as group constants — four shuffles
    of ≤16-byte rows, no broadcast, no driver materialization beyond
    the final partial rows."""
    from ray.data.aggregate import Sum as _Sum

    from ..functions.components import connected_components
    from ..functions.hashing import hash_str_arrow_u128

    corpus = _cc_corpus(sf_dir)
    comp = connected_components(_cc_edges(corpus))

    def hkeys(b: pa.Table) -> pa.Table:
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        lo, hi = hash_str_arrow_u128(pc.fill_null(text, ""))
        return pa.table(
            {
                "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                "h1": pa.array(lo.view(np.int64), pa.int64()),
                "h2": pa.array(hi.view(np.int64), pa.int64()),
            }
        )

    def tgroup(g: pa.Table) -> pa.Table:
        ids = g.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "cid": pa.array(np.full(len(ids), -1, np.int64)),
                "tid": pa.array(
                    np.full(len(ids), ids.min(), np.int64), pa.int64()
                ),
            }
        )

    truth = (
        corpus.map_batches(hkeys, batch_format="pyarrow")
        .groupby(["h1", "h2"])
        .map_groups(tgroup, batch_format="pyarrow")
    )

    def c_rows(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                "cid": pc.cast(b.column("component_id"), pa.int64()),
                "tid": pa.array(np.full(len(b), -1, np.int64)),
            }
        )

    def merge_doc(g: pa.Table) -> pa.Table:
        did = int(g.column("doc_id")[0].as_py())
        cid = max(g.column("cid").to_pylist())
        tid = max(g.column("tid").to_pylist())
        return pa.table(
            {
                "cid": pa.array([cid if cid >= 0 else did], pa.int64()),
                "tid": pa.array([tid], pa.int64()),
            }
        )

    merged = (
        truth.union(comp.map_batches(c_rows, batch_format="pyarrow"))
        .groupby("doc_id")
        .map_groups(merge_doc, batch_format="pyarrow")
    )

    def per_c(g: pa.Table) -> pa.Table:
        tids = g.column("tid").to_numpy(zero_copy_only=False)
        # rows are one per doc here; count per (cid, tid) locally
        ut, cnt = np.unique(tids, return_counts=True)
        n_c = int(cnt.sum())
        return pa.table(
            {
                "tid": pa.array(ut, pa.int64()),
                "n_ct": pa.array(cnt.astype(np.int64), pa.int64()),
                "n_c": pa.array(np.full(len(ut), n_c, np.int64)),
            }
        )

    def per_t(g: pa.Table) -> pa.Table:
        nct = g.column("n_ct").to_numpy(zero_copy_only=False)
        nc = g.column("n_c").to_numpy(zero_copy_only=False)
        n_t = int(nct.sum())
        sp = int((nct * nct * _BC_FP // nc).sum())
        sr = int((nct * nct * _BC_FP // n_t).sum())
        return pa.table(
            {
                "nd": pa.array([n_t], pa.int64()),
                "sp": pa.array([sp], pa.int64()),
                "sr": pa.array([sr], pa.int64()),
            }
        )

    parts = (
        merged.groupby("cid")
        .map_groups(per_c, batch_format="pyarrow")
        .groupby("tid")
        .map_groups(per_t, batch_format="pyarrow")
    )
    tot = parts.aggregate(_Sum("nd"), _Sum("sp"), _Sum("sr"))
    n_docs = int(tot["sum(nd)"] or 0)
    sp = int(tot["sum(sp)"] or 0)
    sr = int(tot["sum(sr)"] or 0)
    if n_docs == 0:
        p = r = f1 = 0.0
    else:
        p = sp / (float(_BC_FP) * n_docs)
        r = sr / (float(_BC_FP) * n_docs)
        f1 = 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0
    return pa.table(
        {
            "n_docs": pa.array([n_docs], pa.int64()),
            "sum_p_fp": pa.array([sp], pa.int64()),
            "sum_r_fp": pa.array([sr], pa.int64()),
            "bcubed_p": pa.array([p], pa.float64()),
            "bcubed_r": pa.array([r], pa.float64()),
            "bcubed_f1": pa.array([f1], pa.float64()),
        }
    )


def _sql_dedup_bcubed() -> str:
    # deferred formatting: SQL_DEDUP_COMPONENTS is defined below
    return f"""
WITH RECURSIVE
{_CC_CORPUS_SQL.strip()},
pk AS (SELECT doc_id, substr(text, 1, {_CC_PREFIX}) AS k FROM corpus),
sk AS (
  SELECT doc_id,
    CASE WHEN length(text) >= {_CC_PREFIX}
         THEN substr(text, length(text) - {_CC_PREFIX - 1}, {_CC_PREFIX})
         ELSE text END AS k
  FROM corpus
),
pe AS (SELECT min(doc_id) OVER (PARTITION BY k) AS a, doc_id AS b FROM pk),
se AS (SELECT min(doc_id) OVER (PARTITION BY k) AS a, doc_id AS b FROM sk),
edges0 AS (
  SELECT a, b FROM pe WHERE a < b
  UNION
  SELECT a, b FROM se WHERE a < b
),
edges AS (SELECT a, b FROM edges0 UNION SELECT b, a FROM edges0),
reach AS (
  SELECT a AS node, b AS r FROM edges
  UNION
  SELECT e.a, r.r FROM edges e JOIN reach r ON e.b = r.node
),
comp AS (
  SELECT node AS doc_id, least(node, min(r)) AS cid
  FROM reach GROUP BY node
),
truth AS (
  SELECT doc_id, MIN(doc_id) OVER (PARTITION BY text) AS tid FROM corpus
),
merged AS (
  SELECT t.doc_id, COALESCE(c.cid, t.doc_id) AS cid, t.tid
  FROM truth t LEFT JOIN comp c USING (doc_id)
),
nct AS (
  SELECT cid, tid, CAST(COUNT(*) AS BIGINT) AS n_ct
  FROM merged GROUP BY cid, tid
),
nc AS (SELECT cid, CAST(SUM(n_ct) AS BIGINT) AS n_c FROM nct GROUP BY cid),
nt AS (SELECT tid, CAST(SUM(n_ct) AS BIGINT) AS n_t FROM nct GROUP BY tid),
agg AS (
  SELECT CAST(SUM(n_ct) AS BIGINT) AS n_docs,
    CAST(SUM((n_ct * n_ct * {_BC_FP}) // n_c) AS BIGINT) AS sum_p_fp,
    CAST(SUM((n_ct * n_ct * {_BC_FP}) // n_t) AS BIGINT) AS sum_r_fp
  FROM nct JOIN nc USING (cid) JOIN nt USING (tid)
)
SELECT n_docs, sum_p_fp, sum_r_fp,
  CAST(sum_p_fp AS DOUBLE) / ({_BC_FP}.0 * n_docs) AS bcubed_p,
  CAST(sum_r_fp AS DOUBLE) / ({_BC_FP}.0 * n_docs) AS bcubed_r,
  2.0 * (CAST(sum_p_fp AS DOUBLE) / ({_BC_FP}.0 * n_docs))
      * (CAST(sum_r_fp AS DOUBLE) / ({_BC_FP}.0 * n_docs))
    / (CAST(sum_p_fp AS DOUBLE) / ({_BC_FP}.0 * n_docs)
       + CAST(sum_r_fp AS DOUBLE) / ({_BC_FP}.0 * n_docs)) AS bcubed_f1
FROM agg
"""


def q_dedup_component_sizes(sf_dir: str):
    """(size, n_components): distribution of near-dup cluster sizes —
    how much of the duplication is pairs vs large templated families.
    Composes the distributed component solve with a bounded two-level
    rollup (component domain → size domain)."""
    from ..functions.components import connected_components

    corpus = _cc_corpus(sf_dir)
    comp = connected_components(_cc_edges(corpus))
    per_comp = rel.bounded_group_table_strict(
        comp.map_batches(
            lambda b: pa.table(
                {
                    "component_id": b.column("component_id"),
                    "sz": pa.array(
                        np.ones(b.num_rows, np.int64), pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
        ),
        ["component_id"],
        [("sz", "sum")],
    )
    empty = pa.table(
        {
            "size": pa.array([], pa.int64()),
            "n_components": pa.array([], pa.int64()),
        }
    )
    if per_comp is None:
        return empty
    sz = per_comp.column("sz").to_numpy(zero_copy_only=False)
    u, c = np.unique(sz, return_counts=True)
    return pa.table(
        {
            "size": pa.array(u, pa.int64()),
            "n_components": pa.array(c.astype(np.int64)),
        }
    )


def _sql_dedup_component_sizes() -> str:
    # deferred: SQL_DEDUP_COMPONENTS is defined later in this module
    return f"""
SELECT size, CAST(COUNT(*) AS BIGINT) AS n_components FROM (
  SELECT component_id, CAST(COUNT(*) AS BIGINT) AS size FROM (
{SQL_DEDUP_COMPONENTS}
  ) GROUP BY component_id
) GROUP BY size ORDER BY size
"""


def q_rank_dedup_graph(sf_dir: str):
    """(node, rank_fp): PageRank centrality over the near-dup
    similarity graph (the CC edge set, symmetrized — an undirected
    doc-similarity graph), 20 damped BSP iterations in EXACT int64
    fixed-point (units of 1e-15, functions/graph.py) — bitwise
    identical at any partition count, which is what lets DuckDB
    re-derive the whole fixpoint: the oracle rebuilds the prefix ∪
    suffix star edges in SQL and unrolls all 20 integer iterations
    as CTEs. The most-central documents of each dup cluster are the
    natural canonical candidates when survivor policy wants "most
    connected" rather than "min id". Float/fixed agreement and dense
    parity stay pinned in pytest."""
    import ray

    from ..functions.graph import pagerank_fixed

    corpus = _cc_corpus(sf_dir)
    blocks = [
        t
        for t in ray.get(_cc_edges(corpus).materialize().to_arrow_refs())
        if t.num_rows
    ]
    if not blocks:
        return pagerank_fixed(
            pa.table(
                {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
            )
        )
    e = pa.concat_tables(blocks)
    a = e.column("doc_id_a").to_numpy(zero_copy_only=False)
    b = e.column("doc_id_b").to_numpy(zero_copy_only=False)
    keep = a != b  # star self-edges carry no rank mass
    edges = pa.table(
        {
            "src": pa.array(np.concatenate([a[keep], b[keep]]), pa.int64()),
            "dst": pa.array(np.concatenate([b[keep], a[keep]]), pa.int64()),
        }
    )
    return pagerank_fixed(edges)


def _sql_rank_dedup_graph(
    n_iter: int = 20,
    damping_num: int = 85,
    damping_den: int = 100,
) -> str:
    """Unrolled integer-CTE oracle for the fixed-point PageRank: the
    edge set is re-derived from scratch (prefix/suffix star pairs of
    the CC corpus, symmetrized) and each of the ``n_iter`` iterations
    is one (dangling, scatter-sum, rank) CTE triple in exact BIGINT
    arithmetic — integer sums are order-free, so the SQL fixpoint is
    bit-equal to the BSP engine's at any shard topology."""
    from ..functions.graph import PR_SCALE

    tele = f"(({damping_den - damping_num} * {PR_SCALE}) // ({damping_den} * nn.n))"
    iters = []
    for i in range(n_iter):
        iters.append(f"""
dg{i} AS MATERIALIZED (
  SELECT COALESCE(SUM(r.r), 0) AS dm
  FROM r{i} r JOIN nd ON nd.node = r.node WHERE nd.deg = 0
),
ac{i} AS MATERIALIZED (
  SELECT e.dst AS node, SUM(r.r // nd.deg) AS acc
  FROM edges e JOIN r{i} r ON r.node = e.src JOIN nd ON nd.node = e.src
  GROUP BY e.dst
),
r{i + 1} AS MATERIALIZED (
  SELECT n.node,
    {tele} + ({damping_num} * (COALESCE(a.acc, 0)
                               + (SELECT dm FROM dg{i}) // nn.n))
             // {damping_den} AS r
  FROM nodes n
  LEFT JOIN ac{i} a ON a.node = n.node
  CROSS JOIN ncount nn
)""")
    return f"""
WITH
{_CC_CORPUS_SQL.strip()},
pk AS (SELECT doc_id, substr(text, 1, {_CC_PREFIX}) AS k FROM corpus),
sk AS (
  SELECT doc_id,
    CASE WHEN length(text) >= {_CC_PREFIX}
         THEN substr(text, length(text) - {_CC_PREFIX - 1}, {_CC_PREFIX})
         ELSE text END AS k
  FROM corpus
),
pe AS (SELECT min(doc_id) OVER (PARTITION BY k) AS a, doc_id AS b FROM pk),
se AS (SELECT min(doc_id) OVER (PARTITION BY k) AS a, doc_id AS b FROM sk),
star AS (
  SELECT a, b FROM pe WHERE a <> b
  UNION ALL
  SELECT a, b FROM se WHERE a <> b
),
edges AS MATERIALIZED (
  SELECT a AS src, b AS dst FROM star
  UNION ALL
  SELECT b AS src, a AS dst FROM star
),
nd AS MATERIALIZED (SELECT src AS node, CAST(COUNT(*) AS BIGINT) AS deg
       FROM edges GROUP BY src),
nodes AS MATERIALIZED (SELECT node FROM nd),
ncount AS MATERIALIZED (SELECT COUNT(*) AS n FROM nodes),
r0 AS MATERIALIZED (SELECT node, {PR_SCALE} // nn.n AS r FROM nodes CROSS JOIN ncount nn),
{','.join(iters)}
SELECT node, CAST(r AS BIGINT) AS rank_fp FROM r{n_iter}
"""


_CC_CORPUS_SQL = f"""
corpus AS (
  -- NULL text is treated as '' (the engine's convention: a doc with
  -- absent content dedups with empty docs); without the coalesce the
  -- engine's ''-keyed rows and SQL's NULL-partitioned rows diverge
  SELECT doc_id, coalesce(text, '') AS text FROM documents
  UNION ALL
  SELECT doc_id + 1000000, coalesce(text, '') FROM documents WHERE doc_id % 10 = 0
  UNION ALL
  SELECT doc_id + 3000000,
         substr(text, 1, {_CC_PREFIX}) || ' left variant ' || CAST(doc_id AS VARCHAR)
  FROM documents WHERE doc_id % 16 = 1 AND length(text) >= {_CC_PREFIX}
  UNION ALL
  SELECT doc_id + 4000000,
         CAST(doc_id AS VARCHAR) || ' right variant ' ||
         substr(text, length(text) - {_CC_PREFIX - 1}, {_CC_PREFIX})
  FROM documents WHERE doc_id % 16 = 1 AND length(text) >= {_CC_PREFIX}
)
"""

SQL_DEDUP_COMPONENTS = f"""
WITH RECURSIVE
{_CC_CORPUS_SQL.strip()},
pk AS (SELECT doc_id, substr(text, 1, {_CC_PREFIX}) AS k FROM corpus),
sk AS (
  SELECT doc_id,
    CASE WHEN length(text) >= {_CC_PREFIX}
         THEN substr(text, length(text) - {_CC_PREFIX - 1}, {_CC_PREFIX})
         ELSE text END AS k
  FROM corpus
),
pe AS (SELECT min(doc_id) OVER (PARTITION BY k) AS a, doc_id AS b FROM pk),
se AS (SELECT min(doc_id) OVER (PARTITION BY k) AS a, doc_id AS b FROM sk),
edges0 AS (
  SELECT a, b FROM pe WHERE a < b
  UNION
  SELECT a, b FROM se WHERE a < b
),
edges AS (SELECT a, b FROM edges0 UNION SELECT b, a FROM edges0),
reach AS (
  SELECT a AS node, b AS r FROM edges
  UNION
  SELECT e.a, r.r FROM edges e JOIN reach r ON e.b = r.node
)
SELECT node AS doc_id, least(node, min(r)) AS component_id
FROM reach GROUP BY node
"""


def q_dedup_survivors(sf_dir: str):
    """End-to-end dedup decision: corpus ids merged against the
    component labels of the prefix∪suffix edge set — (doc_id,
    canonical_id, keep), keep ⇔ doc_id is its cluster's minimum (or
    untouched by any edge)."""
    from ..functions.components import dedup_survivors

    corpus = _cc_corpus(sf_dir)
    edges = _cc_edges(corpus)
    return dedup_survivors(corpus.select_columns(["doc_id"]), edges)


SQL_DEDUP_SURVIVORS = f"""
WITH RECURSIVE
{_CC_CORPUS_SQL.strip()},
pk AS (SELECT doc_id, substr(text, 1, {_CC_PREFIX}) AS k FROM corpus),
sk AS (
  SELECT doc_id,
    CASE WHEN length(text) >= {_CC_PREFIX}
         THEN substr(text, length(text) - {_CC_PREFIX - 1}, {_CC_PREFIX})
         ELSE text END AS k
  FROM corpus
),
pe AS (SELECT min(doc_id) OVER (PARTITION BY k) AS a, doc_id AS b FROM pk),
se AS (SELECT min(doc_id) OVER (PARTITION BY k) AS a, doc_id AS b FROM sk),
edges0 AS (
  SELECT a, b FROM pe WHERE a < b
  UNION
  SELECT a, b FROM se WHERE a < b
),
edges AS (SELECT a, b FROM edges0 UNION SELECT b, a FROM edges0),
reach AS (
  SELECT a AS node, b AS r FROM edges
  UNION
  SELECT e.a, r.r FROM edges e JOIN reach r ON e.b = r.node
),
comp AS (
  SELECT node AS doc_id, least(node, min(r)) AS component_id
  FROM reach GROUP BY node
)
SELECT c.doc_id,
       coalesce(comp.component_id, c.doc_id) AS canonical_id,
       (coalesce(comp.component_id, c.doc_id) = c.doc_id) AS keep
FROM corpus c LEFT JOIN comp USING (doc_id)
"""


# --- BFS hop distance to the cluster canonical -------------------------
# How many similarity hops separate a document from its dup-cluster's
# canonical (min-id) survivor — the "chain length" diagnostic for
# transitive near-dup clusters (a long chain means the cluster was
# glued by weak pairwise links and deserves review before mass-drop).
# Distributed shape: the min-plus BSP of functions/graph.py
# (bfs_distances) over the symmetrized prefix∪suffix edge set, seeded
# at the component roots from connected_components; min is
# order-free, so the result is partition-invariant. The oracle
# re-derives the same edges + roots and walks a bounded recursive CTE
# (d < 64, the engine's max_iter cap).

_BFS_MAX_ITER = 64


def q_dedup_graph_bfs(sf_dir: str):
    """(doc_id, component_id, dist): hop distance from each clustered
    document to its component's min-id canonical over the near-dup
    graph."""
    import ray

    from ..functions.components import connected_components
    from ..functions.graph import bfs_distances

    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "component_id": pa.array([], pa.int64()),
            "dist": pa.array([], pa.int64()),
        }
    )
    corpus = _cc_corpus(sf_dir)
    blocks = [
        t
        for t in ray.get(_cc_edges(corpus).materialize().to_arrow_refs())
        if t.num_rows
    ]
    if not blocks:
        return empty
    e = pa.concat_tables(blocks)
    a = e.column("doc_id_a").to_numpy(zero_copy_only=False)
    b = e.column("doc_id_b").to_numpy(zero_copy_only=False)
    keep = a != b  # self star pairs are singletons: not in the graph
    a, b = a[keep], b[keep]
    if not len(a):
        return empty
    pairs = pa.table(
        {
            "doc_id_a": pa.array(a, pa.int64()),
            "doc_id_b": pa.array(b, pa.int64()),
        }
    )
    lab_blocks = [
        t
        for t in ray.get(
            connected_components(rd.from_arrow(pairs))
            .materialize()
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    labels = pa.concat_tables(lab_blocks)
    lnode = labels.column("doc_id").to_numpy(zero_copy_only=False)
    lcomp = labels.column("component_id").to_numpy(zero_copy_only=False)
    seeds = lnode[lnode == lcomp]
    edges = pa.table(
        {
            "src": pa.array(np.concatenate([a, b]), pa.int64()),
            "dst": pa.array(np.concatenate([b, a]), pa.int64()),
        }
    )
    d = bfs_distances(edges, seeds, max_iter=_BFS_MAX_ITER)
    # attach component labels: both tables cover exactly the edge nodes
    order = np.argsort(lnode)
    pos = np.searchsorted(lnode[order], d.column("node").to_numpy())
    return pa.table(
        {
            "doc_id": d.column("node"),
            "component_id": pa.array(lcomp[order][pos], pa.int64()),
            "dist": d.column("dist"),
        }
    )


def q_dedup_graph_diameter(sf_dir: str):
    """(component_id, far_node, sweep1_dist, diameter_lb): per near-dup
    cluster, the DOUBLE-SWEEP diameter lower bound — BFS from the
    canonical min-id node, hop to the farthest node found (tie →
    lowest id), BFS again from there; the second eccentricity is the
    classic 2-sweep diameter estimate (exact on trees, ≥ diameter/2
    always). A cluster with diameter 5 was glued by a CHAIN of weak
    near-dup links — exactly the mass-drop a survivor policy should
    review; a clique-like cluster stays at 1–2.

    Both sweeps ride the existing BSP BFS (functions/graph.
    bfs_distances, co-partitioned worker-to-worker frontier
    exchange); components are disconnected, so one multi-seed BFS per
    sweep serves every cluster at once. The reductions walk the
    edge-node tables (bounded by the dup population, the
    dedup_graph_bfs precedent)."""
    import ray

    from ..functions.components import connected_components
    from ..functions.graph import bfs_distances

    empty = pa.table(
        {
            "component_id": pa.array([], pa.int64()),
            "far_node": pa.array([], pa.int64()),
            "sweep1_dist": pa.array([], pa.int64()),
            "diameter_lb": pa.array([], pa.int64()),
        }
    )
    corpus = _cc_corpus(sf_dir)
    blocks = [
        t
        for t in ray.get(_cc_edges(corpus).materialize().to_arrow_refs())
        if t.num_rows
    ]
    if not blocks:
        return empty
    e = pa.concat_tables(blocks)
    a = e.column("doc_id_a").to_numpy(zero_copy_only=False)
    b = e.column("doc_id_b").to_numpy(zero_copy_only=False)
    keep = a != b
    a, b = a[keep], b[keep]
    if not len(a):
        return empty
    pairs = pa.table(
        {
            "doc_id_a": pa.array(a, pa.int64()),
            "doc_id_b": pa.array(b, pa.int64()),
        }
    )
    lab_blocks = [
        t
        for t in ray.get(
            connected_components(rd.from_arrow(pairs))
            .materialize()
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    labels = pa.concat_tables(lab_blocks)
    lnode = labels.column("doc_id").to_numpy(zero_copy_only=False)
    lcomp = labels.column("component_id").to_numpy(zero_copy_only=False)
    lorder = np.argsort(lnode)
    lnode_s, lcomp_s = lnode[lorder], lcomp[lorder]

    def comp_of(nodes: np.ndarray) -> np.ndarray:
        return lcomp_s[np.searchsorted(lnode_s, nodes)]

    edges = pa.table(
        {
            "src": pa.array(np.concatenate([a, b]), pa.int64()),
            "dst": pa.array(np.concatenate([b, a]), pa.int64()),
        }
    )
    seeds = lnode[lnode == lcomp]
    d1 = bfs_distances(edges, seeds, max_iter=_BFS_MAX_ITER)
    n1 = d1.column("node").to_numpy(zero_copy_only=False)
    dist1 = d1.column("dist").to_numpy(zero_copy_only=False)
    c1 = comp_of(n1)
    # farthest per component: dist DESC, node ASC
    order = np.lexsort((n1, -dist1, c1))
    c_s = c1[order]
    first = np.concatenate([[True], c_s[1:] != c_s[:-1]])
    far_nodes = n1[order][first]
    far_dist = dist1[order][first]
    far_comp = c_s[first]
    d2 = bfs_distances(edges, far_nodes, max_iter=_BFS_MAX_ITER)
    n2 = d2.column("node").to_numpy(zero_copy_only=False)
    dist2 = d2.column("dist").to_numpy(zero_copy_only=False)
    c2 = comp_of(n2)
    # eccentricity of the far node per component
    order2 = np.lexsort((-dist2, c2))
    c2_s = c2[order2]
    first2 = np.concatenate([[True], c2_s[1:] != c2_s[:-1]])
    ecc = dist2[order2][first2]
    ecc_comp = c2_s[first2]
    pos = np.searchsorted(ecc_comp, far_comp)
    return pa.table(
        {
            "component_id": pa.array(far_comp, pa.int64()),
            "far_node": pa.array(far_nodes, pa.int64()),
            "sweep1_dist": pa.array(far_dist, pa.int64()),
            "diameter_lb": pa.array(ecc[pos], pa.int64()),
        }
    )


SQL_DEDUP_GRAPH_DIAMETER = f"""
WITH RECURSIVE
{_CC_CORPUS_SQL.strip()},
pk AS (SELECT doc_id, substr(text, 1, {_CC_PREFIX}) AS k FROM corpus),
sk AS (
  SELECT doc_id,
    CASE WHEN length(text) >= {_CC_PREFIX}
         THEN substr(text, length(text) - {_CC_PREFIX - 1}, {_CC_PREFIX})
         ELSE text END AS k
  FROM corpus
),
pe AS (SELECT min(doc_id) OVER (PARTITION BY k) AS a, doc_id AS b FROM pk),
se AS (SELECT min(doc_id) OVER (PARTITION BY k) AS a, doc_id AS b FROM sk),
edges0 AS (
  SELECT a, b FROM pe WHERE a < b
  UNION
  SELECT a, b FROM se WHERE a < b
),
edges AS (SELECT a, b FROM edges0 UNION SELECT b, a FROM edges0),
reach AS (
  SELECT a AS node, b AS r FROM edges
  UNION
  SELECT e.a, r.r FROM edges e JOIN reach r ON e.b = r.node
),
comp AS (
  SELECT node, least(node, min(r)) AS component_id
  FROM reach GROUP BY node
),
roots AS (SELECT DISTINCT component_id AS root FROM comp),
walk1 AS (
  SELECT root AS comp, root AS node, 0 AS d FROM roots
  UNION
  SELECT w.comp, e.b, w.d + 1
  FROM walk1 w JOIN edges e ON e.a = w.node
  WHERE w.d < {_BFS_MAX_ITER}
),
d1 AS (SELECT comp, node, MIN(d) AS dist FROM walk1 GROUP BY comp, node),
far AS (
  SELECT comp, node AS far_node, dist AS sweep1_dist FROM d1
  QUALIFY row_number() OVER (
    PARTITION BY comp ORDER BY dist DESC, node) = 1
),
walk2 AS (
  SELECT comp, far_node AS node, 0 AS d FROM far
  UNION
  SELECT w.comp, e.b, w.d + 1
  FROM walk2 w JOIN edges e ON e.a = w.node
  WHERE w.d < {_BFS_MAX_ITER}
),
d2 AS (SELECT comp, node, MIN(d) AS dist FROM walk2 GROUP BY comp, node),
diam AS (SELECT comp, MAX(dist) AS diameter_lb FROM d2 GROUP BY comp)
SELECT f.comp AS component_id, f.far_node,
  CAST(f.sweep1_dist AS BIGINT) AS sweep1_dist,
  CAST(dm.diameter_lb AS BIGINT) AS diameter_lb
FROM far f JOIN diam dm ON dm.comp = f.comp
"""


SQL_DEDUP_GRAPH_BFS = f"""
WITH RECURSIVE
{_CC_CORPUS_SQL.strip()},
pk AS (SELECT doc_id, substr(text, 1, {_CC_PREFIX}) AS k FROM corpus),
sk AS (
  SELECT doc_id,
    CASE WHEN length(text) >= {_CC_PREFIX}
         THEN substr(text, length(text) - {_CC_PREFIX - 1}, {_CC_PREFIX})
         ELSE text END AS k
  FROM corpus
),
pe AS (SELECT min(doc_id) OVER (PARTITION BY k) AS a, doc_id AS b FROM pk),
se AS (SELECT min(doc_id) OVER (PARTITION BY k) AS a, doc_id AS b FROM sk),
edges0 AS (
  SELECT a, b FROM pe WHERE a < b
  UNION
  SELECT a, b FROM se WHERE a < b
),
edges AS (SELECT a, b FROM edges0 UNION SELECT b, a FROM edges0),
reach AS (
  SELECT a AS node, b AS r FROM edges
  UNION
  SELECT e.a, r.r FROM edges e JOIN reach r ON e.b = r.node
),
comp AS (
  SELECT node, least(node, min(r)) AS component_id
  FROM reach GROUP BY node
),
rootset AS (SELECT DISTINCT component_id AS root FROM comp),
walk AS (
  SELECT root AS node, 0 AS d FROM rootset
  UNION
  SELECT e.b, w.d + 1
  FROM walk w JOIN edges e ON e.a = w.node
  WHERE w.d < {_BFS_MAX_ITER}
),
dist AS (SELECT node, min(d) AS dist FROM walk GROUP BY node)
SELECT c.node AS doc_id, c.component_id,
       CAST(d.dist AS BIGINT) AS dist
FROM comp c JOIN dist d ON d.node = c.node
"""


# --- triangle census over the dedup graph ------------------------------
# Local-clustering diagnostic: a dup cluster glued by one weak chain
# has zero triangles, a genuine clique is triangle-dense — the signal
# survivor policy uses to trust (or review) a mass-drop. Distributed
# shape in functions/graph.triangle_counts: degree-ordered
# orientation (wedge work O(m^1.5), hub-proof), apex adjacency
# hash-partitioned across tasks, the oriented edge-key set broadcast
# ONCE as a sorted u64 array and probed with searchsorted; fully
# vectorized wedge expansion. Oracle: the same a<b edge set 3-joined
# in SQL, each triangle credited to all three corners.


def q_dedup_graph_triangles(sf_dir: str):
    """(doc_id, triangles): per-document triangle counts over the
    prefix∪suffix near-dup graph; docs in no triangle are omitted."""
    import ray

    from ..functions.graph import triangle_counts

    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "triangles": pa.array([], pa.int64()),
        }
    )
    corpus = _cc_corpus(sf_dir)
    blocks = [
        t
        for t in ray.get(_cc_edges(corpus).materialize().to_arrow_refs())
        if t.num_rows
    ]
    if not blocks:
        return empty
    e = pa.concat_tables(blocks)
    a = e.column("doc_id_a").to_numpy(zero_copy_only=False)
    b = e.column("doc_id_b").to_numpy(zero_copy_only=False)
    keep = a != b
    a, b = a[keep], b[keep]
    if not len(a):
        return empty
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    uniq = np.unique(np.stack([lo, hi], axis=1), axis=0)
    tri = triangle_counts(
        pa.table(
            {
                "a": pa.array(uniq[:, 0], pa.int64()),
                "b": pa.array(uniq[:, 1], pa.int64()),
            }
        )
    )
    return tri.rename_columns(["doc_id", "triangles"])


def _cc_simple_edges(sf_dir: str) -> "tuple[np.ndarray, np.ndarray] | None":
    """The SIMPLE undirected dedup graph as sorted deduped (lo, hi)
    arrays, or None when empty. Edge derivation is the distributed
    star-pair pipeline (prefix ∪ suffix); the pulled edge set is
    O(duplicates) — the triangles/BFS family's documented gate — and
    the driver-side analytics below are linear in it."""
    import ray

    corpus = _cc_corpus(sf_dir)
    blocks = [
        t
        for t in ray.get(_cc_edges(corpus).materialize().to_arrow_refs())
        if t.num_rows
    ]
    if not blocks:
        return None
    e = pa.concat_tables(blocks)
    a = e.column("doc_id_a").to_numpy(zero_copy_only=False)
    b = e.column("doc_id_b").to_numpy(zero_copy_only=False)
    keep = a != b
    a, b = a[keep], b[keep]
    if not len(a):
        return None
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    uniq = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return uniq[:, 0], uniq[:, 1]


def _simple_degrees(
    lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(sorted nodes, degree per node) of the simple graph."""
    nodes, counts = np.unique(np.concatenate([lo, hi]), return_counts=True)
    return nodes, counts.astype(np.int64)


def q_dedup_graph_assortativity(sf_dir: str):
    """One row (n_nodes, n_edges, assortativity): Pearson correlation
    of endpoint degrees across the dedup graph's edges (each edge
    counted in both directions, the standard degree-assortativity
    estimator). Every OLS sum is an exact Python int over int64
    degrees — associative under any partitioning — and the final
    expression (one division of two libm sqrts) is written identically
    in the oracle."""
    import math

    empty = pa.table(
        {
            "n_nodes": pa.array([], pa.int64()),
            "n_edges": pa.array([], pa.int64()),
            "assortativity": pa.array([], pa.float64()),
        }
    )
    edges = _cc_simple_edges(sf_dir)
    if edges is None:
        return empty
    lo, hi = edges
    n_nodes, r = assortativity_from_edges(lo, hi)
    return pa.table(
        {
            "n_nodes": pa.array([n_nodes], pa.int64()),
            "n_edges": pa.array([len(lo)], pa.int64()),
            "assortativity": pa.array([r], pa.float64()),
        }
    )


def assortativity_from_edges(
    lo: np.ndarray, hi: np.ndarray
) -> tuple[int, float]:
    """(n_nodes, degree assortativity) of a simple undirected edge
    list. Exact int sums; num/den share Sx by symmetry."""
    import math

    nodes, deg = _simple_degrees(lo, hi)
    dl = deg[np.searchsorted(nodes, lo)]
    dh = deg[np.searchsorted(nodes, hi)]
    # both directions: x ∪ y is symmetric, m = 2|E|
    x = np.concatenate([dl, dh])
    y = np.concatenate([dh, dl])
    m = len(x)
    sx = int(x.sum())
    sxy = int(np.dot(x, y))
    sxx = int(np.dot(x, x))
    den = m * sxx - sx * sx
    num = m * sxy - sx * sx  # sy == sx by symmetry
    r = (
        0.0
        if den == 0
        else float(num) / (math.sqrt(float(den)) * math.sqrt(float(den)))
    )
    return len(nodes), r


_CC_SIMPLE_EDGES_SQL = f"""
pk AS (SELECT doc_id, substr(text, 1, {_CC_PREFIX}) AS k FROM corpus),
sk AS (
  SELECT doc_id,
    CASE WHEN length(text) >= {_CC_PREFIX}
         THEN substr(text, length(text) - {_CC_PREFIX - 1}, {_CC_PREFIX})
         ELSE text END AS k
  FROM corpus
),
pe AS (SELECT min(doc_id) OVER (PARTITION BY k) AS a, doc_id AS b FROM pk),
se AS (SELECT min(doc_id) OVER (PARTITION BY k) AS a, doc_id AS b FROM sk),
edges0 AS MATERIALIZED (
  SELECT a, b FROM pe WHERE a < b
  UNION
  SELECT a, b FROM se WHERE a < b
),
deg AS MATERIALIZED (
  SELECT node, CAST(COUNT(*) AS BIGINT) AS d FROM (
    SELECT a AS node FROM edges0 UNION ALL SELECT b AS node FROM edges0
  ) GROUP BY node
)
"""

SQL_DEDUP_DEGREE_HIST = f"""
WITH
{_CC_CORPUS_SQL.strip()},
{_CC_SIMPLE_EDGES_SQL.strip()}
SELECT CAST(d AS BIGINT) AS degree, CAST(COUNT(*) AS BIGINT) AS n_nodes
FROM deg
GROUP BY 1
ORDER BY 1
"""


SQL_DEDUP_GRAPH_ASSORTATIVITY = f"""
WITH
{_CC_CORPUS_SQL.strip()},
{_CC_SIMPLE_EDGES_SQL.strip()},
pairs AS (
  SELECT da.d AS x, db.d AS y
  FROM edges0 e JOIN deg da ON e.a = da.node JOIN deg db ON e.b = db.node
  UNION ALL
  SELECT db.d AS x, da.d AS y
  FROM edges0 e JOIN deg da ON e.a = da.node JOIN deg db ON e.b = db.node
)
SELECT
  (SELECT CAST(COUNT(*) AS BIGINT) FROM deg) AS n_nodes,
  CAST(COUNT(*) // 2 AS BIGINT) AS n_edges,
  CASE WHEN COUNT(*) * SUM(x * x) - SUM(x) * SUM(x) = 0 THEN 0.0
       ELSE CAST(COUNT(*) * SUM(x * y) - SUM(x) * SUM(x) AS DOUBLE)
          / (sqrt(CAST(COUNT(*) * SUM(x * x) - SUM(x) * SUM(x) AS DOUBLE))
             * sqrt(CAST(COUNT(*) * SUM(x * x) - SUM(x) * SUM(x) AS DOUBLE)))
  END AS assortativity
FROM pairs
"""


def q_dedup_degree_hist(sf_dir: str):
    """(degree, n_nodes): the dedup graph's degree distribution — the
    first shape question about a near-dup graph (a heavy tail means a
    few boilerplate hubs touch everything; a flat histogram means
    diffuse pairwise near-dups). Composes the star-pair edge pipeline;
    the count-of-counts fold is bounded by the max degree."""
    empty = pa.table(
        {
            "degree": pa.array([], pa.int64()),
            "n_nodes": pa.array([], pa.int64()),
        }
    )
    edges = _cc_simple_edges(sf_dir)
    if edges is None:
        return empty
    lo, hi = edges
    _, deg = _simple_degrees(lo, hi)
    vals, cnt = np.unique(deg, return_counts=True)
    return pa.table(
        {
            "degree": pa.array(vals.astype(np.int64)),
            "n_nodes": pa.array(cnt.astype(np.int64)),
        }
    )


def q_dedup_graph_clustering(sf_dir: str):
    """(doc_id, degree, triangles, wedges, lcc): local clustering
    coefficient per node of the dedup graph — triangles through the
    node over its wedge count C(deg, 2). A dup cluster glued by one
    weak chain has lcc ≈ 0 at the hub; a genuine clique has lcc = 1.
    Degrees/wedges are exact int64; lcc is the single DOUBLE division
    CAST(tri)/CAST(wedges), written identically in the oracle. Edge
    derivation is the distributed star-pair pipeline; triangle
    counting is the degree-ordered oriented wedge expansion of
    functions/graph.triangle_counts (O(m^1.5), hub-proof)."""
    from ..functions.graph import triangle_counts

    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "degree": pa.array([], pa.int64()),
            "triangles": pa.array([], pa.int64()),
            "wedges": pa.array([], pa.int64()),
            "lcc": pa.array([], pa.float64()),
        }
    )
    edges = _cc_simple_edges(sf_dir)
    if edges is None:
        return empty
    return clustering_from_edges(*edges)


def clustering_from_edges(lo: np.ndarray, hi: np.ndarray) -> pa.Table:
    """Per-node (doc_id, degree, triangles, wedges, lcc) of a simple
    undirected edge list; wedges = C(deg, 2) exact int64."""
    from ..functions.graph import triangle_counts

    nodes, deg = _simple_degrees(lo, hi)
    tri = np.zeros(len(nodes), np.int64)
    tt = triangle_counts(
        pa.table({"a": pa.array(lo, pa.int64()),
                  "b": pa.array(hi, pa.int64())})
    )
    if tt.num_rows:
        tn = tt.column(0).to_numpy(zero_copy_only=False)
        tc = tt.column(1).to_numpy(zero_copy_only=False)
        tri[np.searchsorted(nodes, tn)] = tc
    wedges = deg * (deg - 1) // 2
    lcc = np.zeros(len(nodes), np.float64)
    nz = wedges > 0
    lcc[nz] = tri[nz].astype(np.float64) / wedges[nz].astype(np.float64)
    return pa.table(
        {
            "doc_id": pa.array(nodes, pa.int64()),
            "degree": pa.array(deg, pa.int64()),
            "triangles": pa.array(tri, pa.int64()),
            "wedges": pa.array(wedges, pa.int64()),
            "lcc": pa.array(lcc, pa.float64()),
        }
    )


SQL_DEDUP_GRAPH_CLUSTERING = f"""
WITH
{_CC_CORPUS_SQL.strip()},
{_CC_SIMPLE_EDGES_SQL.strip()},
tri AS (
  SELECT x.a AS n1, x.b AS n2, y.b AS n3
  FROM edges0 x
  JOIN edges0 y ON y.a = x.b
  JOIN edges0 z ON z.a = x.a AND z.b = y.b
),
tpn AS (
  SELECT node, CAST(COUNT(*) AS BIGINT) AS triangles FROM (
    SELECT n1 AS node FROM tri
    UNION ALL SELECT n2 FROM tri
    UNION ALL SELECT n3 FROM tri
  ) GROUP BY node
)
SELECT d.node AS doc_id, d.d AS degree,
  COALESCE(t.triangles, 0) AS triangles,
  d.d * (d.d - 1) // 2 AS wedges,
  CASE WHEN d.d >= 2
       THEN CAST(COALESCE(t.triangles, 0) AS DOUBLE)
          / CAST(d.d * (d.d - 1) // 2 AS DOUBLE)
       ELSE 0.0 END AS lcc
FROM deg d LEFT JOIN tpn t ON t.node = d.node
"""


_KCORE_K = 2
_KCORE_ROUNDS = 16


def q_dedup_graph_kcore(sf_dir: str):
    """(doc_id, core_degree): the {_KCORE_K}-core of the dedup graph —
    nodes surviving {_KCORE_ROUNDS} synchronous peel rounds (drop every
    node whose degree among survivors is < k), with their degree inside
    the final core. EXACTLY the fixed round count runs (no early
    stop), mirroring the oracle's unrolled CTE rounds — the
    pagerank_fixed discipline for iterative operators; the star-pair
    graph's peel converges in far fewer rounds."""
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "core_degree": pa.array([], pa.int64()),
        }
    )
    edges = _cc_simple_edges(sf_dir)
    if edges is None:
        return empty
    lo, hi = edges
    nodes, core_deg = kcore_peel(lo, hi, _KCORE_K, _KCORE_ROUNDS)
    return pa.table(
        {
            "doc_id": pa.array(nodes, pa.int64()),
            "core_degree": pa.array(core_deg, pa.int64()),
        }
    )


def kcore_peel(
    lo: np.ndarray, hi: np.ndarray, k: int, rounds: int
) -> tuple[np.ndarray, np.ndarray]:
    """(surviving nodes, degree inside the core) after EXACTLY
    ``rounds`` synchronous peel rounds on the simple undirected edge
    list — no early stop, matching the oracle's unrolled CTEs."""
    nodes, _ = _simple_degrees(lo, hi)
    li = np.searchsorted(nodes, lo)
    hi_i = np.searchsorted(nodes, hi)
    alive = np.ones(len(nodes), dtype=bool)
    for _ in range(rounds):
        e_ok = alive[li] & alive[hi_i]
        d = np.bincount(li[e_ok], minlength=len(nodes)) + np.bincount(
            hi_i[e_ok], minlength=len(nodes)
        )
        alive = alive & (d >= k)
    # degrees are reported WITHIN the final core (both endpoints alive)
    e_ok = alive[li] & alive[hi_i]
    d = np.bincount(li[e_ok], minlength=len(nodes)) + np.bincount(
        hi_i[e_ok], minlength=len(nodes)
    )
    sel = alive & (d > 0)
    return nodes[sel], d[sel].astype(np.int64)


def _sql_dedup_graph_kcore() -> str:
    rounds = []
    for i in range(1, _KCORE_ROUNDS + 1):
        # MATERIALIZED is load-bearing: each round is referenced twice
        # by the next (both endpoints), so inlined CTEs expand 2^R-fold
        rounds.append(
            f"""a{i} AS MATERIALIZED (
  SELECT u.u AS node FROM und u
  JOIN a{i - 1} s1 ON u.u = s1.node
  JOIN a{i - 1} s2 ON u.v = s2.node
  GROUP BY u.u HAVING COUNT(*) >= {_KCORE_K}
)"""
        )
    return f"""
WITH
{_CC_CORPUS_SQL.strip()},
{_CC_SIMPLE_EDGES_SQL.strip()},
und AS MATERIALIZED (
  SELECT a AS u, b AS v FROM edges0
  UNION ALL
  SELECT b AS u, a AS v FROM edges0
),
a0 AS (SELECT node FROM deg),
{','.join(rounds)}
SELECT u.u AS doc_id, CAST(COUNT(*) AS BIGINT) AS core_degree
FROM und u
JOIN a{_KCORE_ROUNDS} s1 ON u.u = s1.node
JOIN a{_KCORE_ROUNDS} s2 ON u.v = s2.node
GROUP BY u.u
ORDER BY doc_id
"""


SQL_DEDUP_GRAPH_TRIANGLES = f"""
WITH
{_CC_CORPUS_SQL.strip()},
pk AS (SELECT doc_id, substr(text, 1, {_CC_PREFIX}) AS k FROM corpus),
sk AS (
  SELECT doc_id,
    CASE WHEN length(text) >= {_CC_PREFIX}
         THEN substr(text, length(text) - {_CC_PREFIX - 1}, {_CC_PREFIX})
         ELSE text END AS k
  FROM corpus
),
pe AS (SELECT min(doc_id) OVER (PARTITION BY k) AS a, doc_id AS b FROM pk),
se AS (SELECT min(doc_id) OVER (PARTITION BY k) AS a, doc_id AS b FROM sk),
edges0 AS (
  SELECT a, b FROM pe WHERE a < b
  UNION
  SELECT a, b FROM se WHERE a < b
),
tri AS (
  SELECT x.a AS n1, x.b AS n2, y.b AS n3
  FROM edges0 x
  JOIN edges0 y ON y.a = x.b
  JOIN edges0 z ON z.a = x.a AND z.b = y.b
)
SELECT node AS doc_id, CAST(COUNT(*) AS BIGINT) AS triangles FROM (
  SELECT n1 AS node FROM tri
  UNION ALL SELECT n2 FROM tri
  UNION ALL SELECT n3 FROM tri
) GROUP BY node
"""


# --- stratified per-host quota sampling ------------------------------------

_SAMPLE_K = 3


def q_host_sample(sf_dir: str):
    """Corpus balancing after the gate: ≤ k docs per host, rank-based
    deterministic sample (functions/sampling.py) — partial-pruned per
    batch, one hashed-key-partition shuffle."""
    from ..functions.sampling import stratified_sample
    from ..stages.skew import _extract_host

    pages = _pages_input(sf_dir).map_batches(
        synthesize_pages, batch_format="pyarrow"
    )

    def with_host(b: pa.Table) -> pa.Table:
        url = b.column("url")
        if isinstance(url, pa.ChunkedArray):
            url = url.combine_chunks()
        return pa.table(
            {"doc_id": b.column("doc_id"), "host": _extract_host(url)}
        )

    keyed = pages.map_batches(with_host, batch_format="pyarrow")
    return stratified_sample(keyed, "host", k=_SAMPLE_K)


def _sql_host_sample() -> str:
    from ..stages.skew import HOST_RE

    return f"""
WITH pages AS ({{pages}}),
h AS (
  SELECT doc_id, regexp_extract(url, '{HOST_RE}', 1) AS host FROM pages
)
SELECT doc_id, host, md5(CAST(doc_id AS VARCHAR)) AS sample_rank
FROM h
QUALIFY row_number() OVER (
  PARTITION BY host
  ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
) <= {_SAMPLE_K}
"""


# --- mixture sampling (data-mixing quotas) ----------------------------
# Corpus balancing across a 2-level stratum (language × source): the
# data-mixing step that upweights a target language after the gate.
# Same deterministic md5-rank machinery as host_sample, exercising the
# per-key QUOTA path (en strata get a doubled quota). The quota key
# list is one Python expression shared by the engine dict and the SQL
# IN-list, so both sides agree on every stratum including unlisted
# ones (default k).
_MIX_K = 3
_MIX_EN_K = 6
_MIX_EN_KEYS = tuple(f"en|src{i}" for i in range(50))


def q_mixture_sample(sf_dir: str):
    from ..functions.sampling import stratified_sample

    docs = _documents(sf_dir, ["doc_id", "lang", "source"])

    def keyed(b: pa.Table) -> pa.Table:
        lang = pc.fill_null(b.column("lang"), "")
        src = pc.fill_null(b.column("source"), "")
        if isinstance(lang, pa.ChunkedArray):
            lang = lang.combine_chunks()
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "mix_key": pc.binary_join_element_wise(lang, src, "|"),
            }
        )

    keyed_ds = docs.map_batches(keyed, batch_format="pyarrow")
    return stratified_sample(
        keyed_ds, "mix_key", k=_MIX_K,
        quotas={k: _MIX_EN_K for k in _MIX_EN_KEYS},
    )


def _sql_mixture_sample() -> str:
    enlist = ", ".join(f"'{k}'" for k in _MIX_EN_KEYS)
    return f"""
WITH k AS (
  SELECT doc_id,
    coalesce(lang, '') || '|' || coalesce(source, '') AS mix_key
  FROM documents
)
SELECT doc_id, mix_key, md5(CAST(doc_id AS VARCHAR)) AS sample_rank
FROM k
QUALIFY row_number() OVER (
  PARTITION BY mix_key
  ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
) <= CASE WHEN mix_key IN ({enlist}) THEN {_MIX_EN_K} ELSE {_MIX_K} END
"""


# --- URL status checking (offline deterministic fetcher) -------------------


def q_url_status(sf_dir: str):
    """The live-URL-probe shape of the reference's P008/P011/P015,
    network-free: an actor-pool stage with a per-actor response cache
    and per-batch URL dedup, running the deterministic offline fetcher
    (stages/urlcheck.py). A networked cluster swaps in
    ``requests_fetcher()``; the plumbing under test is identical."""
    from ..stages.urlcheck import check_urls

    pages = _pages_input(sf_dir).map_batches(
        synthesize_pages, batch_format="pyarrow"
    )
    checked = check_urls(pages.select_columns(["doc_id", "url"]))
    return checked.select_columns(["doc_id", "status", "url_ok"])


def _sql_url_status() -> str:
    from ..stages.urlcheck import OK_STATUSES, sql_status_expr

    ok = ", ".join(str(s) for s in sorted(OK_STATUSES))
    return f"""
WITH pages AS ({{pages}})
SELECT doc_id,
       CAST({sql_status_expr("url")} AS BIGINT) AS status,
       {sql_status_expr("url")} IN ({ok}) AS url_ok
FROM pages
"""


# --- corpus-frequency boilerplate line removal -----------------------------

# the injected metadata suffixes (pages synthesis residues 7-12) stamp
# identical lines onto ~1/13 of the corpus each — template boilerplate
# by construction; 3 keeps the op non-vacuous down to sf0.001
_BOILER_MIN_DF = 3


def q_scrub_boilerplate(sf_dir: str):
    """Remove every line occurring in ≥ min_df distinct documents
    (template boilerplate: the injected License:/Cite:/Requires: lines
    of the pages synthesis). Two streaming passes over pages: a
    partial-combined line-df aggregate, then a broadcast hot-set scrub
    (functions/boilerplate.py)."""
    from ..functions.boilerplate import scrub_boilerplate_lines

    def pages():
        return _pages_input(sf_dir).map_batches(
            synthesize_pages, batch_format="pyarrow"
        )

    return scrub_boilerplate_lines(pages(), pages(), min_df=_BOILER_MIN_DF)


def _sql_scrub_boilerplate() -> str:
    return f"""
WITH pages AS ({{pages}}),
lines AS (
  SELECT doc_id,
         unnest(string_split(coalesce(text, ''), chr(10))) AS line,
         unnest(generate_series(1, len(string_split(coalesce(text, ''), chr(10))))) AS i
  FROM pages
),
hot AS (
  SELECT line FROM lines GROUP BY line
  HAVING COUNT(DISTINCT doc_id) >= {_BOILER_MIN_DF}
)
SELECT l.doc_id,
       coalesce(
         string_agg(CASE WHEN h.line IS NULL THEN l.line END,
                    chr(10) ORDER BY l.i),
         '') AS text_scrubbed,
       CAST(count(h.line) AS BIGINT) AS n_lines_removed
FROM lines l LEFT JOIN hot h USING (line)
GROUP BY l.doc_id
"""


# --- benchmark decontamination ---------------------------------------------

_DECON_MOD = 97  # every 97th doc plays the held-out benchmark set
_DECON_K = 5


def q_decontaminate(sf_dir: str):
    """Training-data hygiene: corpus docs sharing any word 5-gram with
    the benchmark set (docs with doc_id % 97 == 0). The benchmark gram
    set broadcasts once (``ray.put``); the corpus streams through an
    actor-pool membership probe — no shuffle
    (functions/decontaminate.py)."""
    from ..functions.decontaminate import contaminated_docs

    def split(keep_bench: bool):
        def f(b: pa.Table) -> pa.Table:
            ids = b.column("doc_id").to_numpy(zero_copy_only=False)
            m = (ids % _DECON_MOD == 0) == keep_bench
            return b.filter(pa.array(m))

        return f

    bench = _documents(sf_dir, ["doc_id", "text"]).map_batches(
        split(True), batch_format="pyarrow"
    )
    corpus = _documents(sf_dir, ["doc_id", "text"]).map_batches(
        split(False), batch_format="pyarrow"
    )
    return contaminated_docs(corpus, bench, k=_DECON_K)


def _sql_decontaminate() -> str:
    from ..functions.tokenize import WS_TOKEN_RE

    leads = " || ' ' || ".join(
        f"LEAD(w, {j}) OVER win" for j in range(1, _DECON_K)
    )
    return f"""
WITH words AS (
  SELECT doc_id,
         unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS w,
         unnest(generate_series(1, len(regexp_extract_all(text, '{WS_TOKEN_RE}')))) AS i
  FROM documents
),
grams AS (
  SELECT doc_id, w || ' ' || {leads} AS g
  FROM words
  WINDOW win AS (PARTITION BY doc_id ORDER BY i)
  QUALIFY LEAD(w, {_DECON_K - 1}) OVER win IS NOT NULL
),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % {_DECON_MOD} = 0)
SELECT gr.doc_id, CAST(COUNT(DISTINCT gr.g) AS BIGINT) AS n_shared_grams
FROM grams gr JOIN bench b ON gr.g = b.g
WHERE gr.doc_id % {_DECON_MOD} <> 0
GROUP BY gr.doc_id
"""


def q_decontaminate_attribution(sf_dir: str):
    """(bench_id, n_docs, n_shared_grams): per-benchmark-ITEM leak
    attribution — for every contaminated eval item (docs %97), the
    number of distinct corpus documents sharing a word 5-gram with it
    and the number of its distinct 5-grams that leak. The report that
    decides whether a benchmark is burned (one item replicated across
    the web) or just collecting diffuse n-gram noise
    (functions/decontaminate.contamination_attribution: broadcast CSR
    gram→item index, cached-task probe, ONE bench-keyed shuffle of
    locally-deduped 24-byte rows)."""
    from ..functions.decontaminate import contamination_attribution

    def split(keep_bench: bool):
        def f(b: pa.Table) -> pa.Table:
            ids = b.column("doc_id").to_numpy(zero_copy_only=False)
            m = (ids % _DECON_MOD == 0) == keep_bench
            return b.filter(pa.array(m))

        return f

    docs = _documents(sf_dir, ["doc_id", "text"])
    bench = docs.map_batches(split(True), batch_format="pyarrow")
    corpus = docs.map_batches(split(False), batch_format="pyarrow")
    return contamination_attribution(corpus, bench, k=_DECON_K)


def _sql_decontaminate_attribution() -> str:
    from ..functions.tokenize import WS_TOKEN_RE

    leads = " || ' ' || ".join(
        f"LEAD(w, {j}) OVER win" for j in range(1, _DECON_K)
    )
    return f"""
WITH words AS (
  SELECT doc_id,
         unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS w,
         unnest(generate_series(1, len(regexp_extract_all(text, '{WS_TOKEN_RE}')))) AS i
  FROM documents
),
grams AS (
  SELECT doc_id, w || ' ' || {leads} AS g
  FROM words
  WINDOW win AS (PARTITION BY doc_id ORDER BY i)
  QUALIFY LEAD(w, {_DECON_K - 1}) OVER win IS NOT NULL
),
bench_g AS (
  SELECT DISTINCT doc_id AS bench_id, g FROM grams
  WHERE doc_id % {_DECON_MOD} = 0
),
corp_g AS (
  SELECT DISTINCT doc_id, g FROM grams WHERE doc_id % {_DECON_MOD} <> 0
)
SELECT bg.bench_id,
  CAST(COUNT(DISTINCT cg.doc_id) AS BIGINT) AS n_docs,
  CAST(COUNT(DISTINCT bg.g) AS BIGINT) AS n_shared_grams
FROM bench_g bg JOIN corp_g cg ON cg.g = bg.g
GROUP BY bg.bench_id
"""


def q_split_leakage(sf_dir: str):
    """(doc_id, n_shared_grams): TRAIN-split documents sharing a word
    5-gram with any VALIDATION-split document — holdout leakage
    detection, the self-decontamination every split must pass before
    training. Composes the deterministic md5-bucket split (so both
    engines derive identical membership) with the broadcast gram probe
    (the val split is the small side; the train side streams with no
    shuffle)."""
    from ..functions.decontaminate import contaminated_docs
    from ..functions.sampling import _md5_ranks
    from ..functions.split import DEFAULT_TRAIN_BUCKETS, DEFAULT_VAL_BUCKETS

    def pick(lo: int, hi: int):
        def f(b: pa.Table) -> pa.Table:
            ids = b.column("doc_id").to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            ranks = _md5_ranks(ids)
            buckets = np.array(
                [int(r[:2], 16) for r in ranks], dtype=np.int64
            )
            return b.filter(pa.array((buckets >= lo) & (buckets < hi)))

        return f

    docs = _documents(sf_dir, ["doc_id", "text"])
    train = docs.map_batches(
        pick(0, DEFAULT_TRAIN_BUCKETS), batch_format="pyarrow"
    )
    val = docs.map_batches(
        pick(DEFAULT_TRAIN_BUCKETS, DEFAULT_TRAIN_BUCKETS + DEFAULT_VAL_BUCKETS),
        batch_format="pyarrow",
    )
    return contaminated_docs(train, val, k=_DECON_K)


def _sql_split_leakage() -> str:
    from ..functions.split import (
        DEFAULT_TRAIN_BUCKETS,
        DEFAULT_VAL_BUCKETS,
        sql_bucket_expr,
    )
    from ..functions.tokenize import WS_TOKEN_RE

    leads = " || ' ' || ".join(
        f"LEAD(w, {j}) OVER win" for j in range(1, _DECON_K)
    )
    hi = DEFAULT_TRAIN_BUCKETS + DEFAULT_VAL_BUCKETS
    return f"""
WITH bk AS MATERIALIZED (
  SELECT doc_id, {sql_bucket_expr()} AS bucket FROM documents
),
words AS (
  SELECT doc_id,
         unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS w,
         unnest(generate_series(1, len(regexp_extract_all(text, '{WS_TOKEN_RE}')))) AS i
  FROM documents
),
grams AS MATERIALIZED (
  SELECT doc_id, w || ' ' || {leads} AS g
  FROM words
  WINDOW win AS (PARTITION BY doc_id ORDER BY i)
  QUALIFY LEAD(w, {_DECON_K - 1}) OVER win IS NOT NULL
),
bench AS (
  SELECT DISTINCT g FROM grams JOIN bk USING (doc_id)
  WHERE bucket >= {DEFAULT_TRAIN_BUCKETS} AND bucket < {hi}
)
SELECT gr.doc_id, CAST(COUNT(DISTINCT gr.g) AS BIGINT) AS n_shared_grams
FROM grams gr
JOIN bk USING (doc_id)
JOIN bench b ON gr.g = b.g
WHERE bk.bucket < {DEFAULT_TRAIN_BUCKETS}
GROUP BY gr.doc_id
"""


# --- deterministic train/val/test holdout split -----------------------------


def q_split_assign(sf_dir: str):
    """~80/10/10 train/val/test assignment per document
    (functions/split.py): md5-bucket of the doc id, a pure per-batch
    map with NO shuffle — stable under any partitioning and cluster
    size, exactly reproduced by the SQL oracle."""
    from ..functions.split import assign_splits

    return assign_splits(_documents(sf_dir, ["doc_id"]))


def _sql_split_assign() -> str:
    from ..functions.split import sql_bucket_expr, sql_split

    return (
        f"SELECT doc_id, CAST({sql_bucket_expr()} AS BIGINT) AS bucket, "
        f"{sql_split()} AS split FROM documents"
    )


# --- deterministic corpus shuffle into training shards ---------------------

_SHUFFLE_SHARDS = 16


def q_shuffle_shards(sf_dir: str):
    """Global pseudo-random shuffle address (shard, pos) per document
    (functions/shuffle.py) — reproducible shuffle-before-training
    without random_shuffle's payload all-to-all; only the 80-byte
    address projection moves."""
    from ..functions.shuffle import shuffle_to_shards

    return shuffle_to_shards(
        _documents(sf_dir, ["doc_id"]), n_shards=_SHUFFLE_SHARDS
    )


def _sql_shuffle_shards() -> str:
    from ..functions.shuffle import sql_shard_expr

    return f"""
WITH s AS (
  SELECT doc_id,
         md5(CAST(doc_id AS VARCHAR)) AS shuffle_rank,
         {sql_shard_expr("doc_id", _SHUFFLE_SHARDS)} AS shard
  FROM documents
)
SELECT doc_id, CAST(shard AS BIGINT) AS shard,
       CAST(row_number() OVER (
         PARTITION BY shard ORDER BY shuffle_rank, doc_id
       ) - 1 AS BIGINT) AS pos,
       shuffle_rank
FROM s
"""


# --- distributed bigram LM training ----------------------------------------

_LM_MIN_COUNT = 3


def q_train_bigram_lm(sf_dir: str):
    """Corpus-wide bigram LM estimation (functions/ngram_lm.py): exact
    conditional probabilities p(w2|w1) with per-batch partial combine
    and ONE hash(w1)-keyed shuffle — the training side of the KenLM-
    style scoring the perplexity stage performs."""
    from ..functions.ngram_lm import train_bigram_lm

    return train_bigram_lm(
        _documents(sf_dir, ["doc_id", "text"]), min_count=_LM_MIN_COUNT
    )


def _sql_train_bigram_lm() -> str:
    from ..functions.tokenize import WS_TOKEN_RE

    return f"""
WITH words AS (
  SELECT doc_id,
         unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS w,
         unnest(generate_series(1, len(regexp_extract_all(text, '{WS_TOKEN_RE}')))) AS i
  FROM documents
),
big AS (
  SELECT doc_id, w AS w1,
         LEAD(w) OVER (PARTITION BY doc_id ORDER BY i) AS w2
  FROM words
),
counts AS (
  SELECT w1, w2, COUNT(*) AS n FROM big WHERE w2 IS NOT NULL GROUP BY w1, w2
),
tot AS (SELECT w1, SUM(n) AS t FROM counts GROUP BY w1)
SELECT c.w1, c.w2, CAST(c.n AS BIGINT) AS n,
       CAST(c.n AS DOUBLE) / CAST(t.t AS DOUBLE) AS p
FROM counts c JOIN tot t USING (w1)
WHERE c.n >= {_LM_MIN_COUNT}
"""


def q_score_bigram_lm(sf_dir: str):
    """Score every document under the corpus-trained bigram LM
    (functions/ngram_lm.score_bigram_lm): exact fixed-point NLL —
    train and score in one lineage, LM and bigram occurrences
    co-partitioned on the bigram-key hash (no broadcast), pruned/
    unseen bigrams at the 1e-9 floor. The full train-a-model →
    score-the-corpus loop behind ONE exact SQL oracle."""
    from ..functions.ngram_lm import score_bigram_lm

    return score_bigram_lm(
        _documents(sf_dir, ["doc_id", "text"]), min_count=_LM_MIN_COUNT
    )


def _sql_score_bigram_lm() -> str:
    from ..functions.tokenize import WS_TOKEN_RE

    return f"""
WITH words AS (
  SELECT doc_id,
         unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS w,
         unnest(generate_series(1, len(regexp_extract_all(text, '{WS_TOKEN_RE}')))) AS i
  FROM documents
),
big AS (
  SELECT doc_id, w AS w1,
         LEAD(w) OVER (PARTITION BY doc_id ORDER BY i) AS w2
  FROM words
),
occ AS (SELECT doc_id, w1, w2 FROM big WHERE w2 IS NOT NULL),
counts AS (SELECT w1, w2, COUNT(*) AS n FROM occ GROUP BY w1, w2),
tot AS (SELECT w1, SUM(n) AS t FROM counts GROUP BY w1),
lm AS (
  SELECT c.w1, c.w2, CAST(c.n AS DOUBLE) / CAST(t.t AS DOUBLE) AS p
  FROM counts c JOIN tot t USING (w1)
  WHERE c.n >= {_LM_MIN_COUNT}
)
SELECT occ.doc_id,
  CAST(COUNT(*) AS BIGINT) AS n_bigrams,
  CAST(SUM(CAST(floor(-ln(COALESCE(lm.p, 1e-9)) * 1000000000.0)
       AS BIGINT)) AS BIGINT) AS nll_fp
FROM occ LEFT JOIN lm USING (w1, w2)
GROUP BY occ.doc_id
"""


# --- Moore-Lewis cross-entropy-difference selection ------------------------

_ML_SRC = "src0"   # the fixed "in-domain" seed source
_ML_K = 50
_ML_IN_MIN = 1     # seed corpus is small: keep every bigram
_ML_GEN_MIN = 2


def q_moore_lewis_select(sf_dir: str):
    """(doc_id, n_bigrams, nll_in_fp, nll_gen_fp, ce_diff): the
    classic Moore-Lewis (ACL 2010) intelligent-selection rule — score
    every document under an IN-DOMAIN bigram LM (trained on the
    ``{_ML_SRC}`` seed source alone) and a GENERAL LM (trained on the
    whole corpus), rank by the per-bigram cross-entropy difference
    H_in − H_gen and keep the ``{_ML_K}`` most in-domain-like
    documents (ties → doc_id). The curation move behind most
    domain-targeted webtext subsets.

    Plan: two co-partitioned train→score lineages (functions/
    ngram_lm.score_bigram_lm — LM rows and doc-bigram rows share ONE
    bigram-key-hash shuffle each, no broadcast of a vocab²-sized
    model), a doc_id hash join of the two exact fixed-point NLL
    tables, then top-k by local per-batch prune + one bounded merge.
    Both NLLs are int64 nano-log fixed-point, so ce_diff is one float
    division of exact ints — bit-identical in the oracle, which
    re-derives BOTH LMs from raw text (no export)."""
    from ..functions.ngram_lm import score_bigram_lm_pair, train_bigram_lm

    docs = _documents(sf_dir, ["doc_id", "text", "source"])

    def in_domain(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b.column("source"), _ML_SRC))

    lm_in = train_bigram_lm(
        docs.map_batches(in_domain, batch_format="pyarrow"),
        min_count=_ML_IN_MIN,
    )
    lm_gen = train_bigram_lm(docs, min_count=_ML_GEN_MIN)
    # BOTH scores in one co-partitioned pass (r5 perf: the corpus is
    # tokenized and shuffled once, and the per-doc join disappears —
    # the pair scorer emits both NLLs on one row)
    joined = score_bigram_lm_pair(docs, lm_in, lm_gen).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_bigrams": b.column("n_bigrams"),
                "nll_in_fp": b.column("nll_a_fp"),
                "nll_gen_fp": b.column("nll_b_fp"),
            }
        ),
        batch_format="pyarrow",
    )
    cols = ["doc_id", "n_bigrams", "nll_in_fp", "nll_gen_fp", "ce_diff"]

    def prune(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        nb = b.column("n_bigrams").to_numpy(zero_copy_only=False)
        ni = b.column("nll_in_fp").to_numpy(zero_copy_only=False)
        ng = b.column("nll_gen_fp").to_numpy(zero_copy_only=False)
        ce = (ni - ng).astype(np.float64) / (nb.astype(np.float64) * 1e9)
        keep = np.lexsort((ids, ce))[:_ML_K]
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], pa.int64()),
                "n_bigrams": pa.array(nb[keep], pa.int64()),
                "nll_in_fp": pa.array(ni[keep], pa.int64()),
                "nll_gen_fp": pa.array(ng[keep], pa.int64()),
                "ce_diff": pa.array(ce[keep], pa.float64()),
            }
        )

    # local per-batch prune (≤ K rows/batch survive) then one bounded
    # final merge — the distributed top-k discipline, never a full sort
    return (
        joined.map_batches(prune, batch_format="pyarrow")
        .repartition(1)
        .map_batches(prune, batch_format="pyarrow")
        .select_columns(cols)
    )


def _sql_moore_lewis() -> str:
    from ..functions.tokenize import WS_TOKEN_RE

    def lm_ctes(tag: str, where: str, min_count: int) -> str:
        return f"""
counts_{tag} AS (
  SELECT w1, w2, COUNT(*) AS n FROM occ {where} GROUP BY w1, w2
),
tot_{tag} AS (SELECT w1, SUM(n) AS t FROM counts_{tag} GROUP BY w1),
lm_{tag} AS (
  SELECT c.w1, c.w2, CAST(c.n AS DOUBLE) / CAST(t.t AS DOUBLE) AS p
  FROM counts_{tag} c JOIN tot_{tag} t USING (w1)
  WHERE c.n >= {min_count}
),
nll_{tag} AS (
  SELECT occ.doc_id, CAST(COUNT(*) AS BIGINT) AS n_bigrams,
    CAST(SUM(CAST(floor(-ln(COALESCE(lm_{tag}.p, 1e-9)) * 1000000000.0)
         AS BIGINT)) AS BIGINT) AS nll_fp
  FROM occ LEFT JOIN lm_{tag} USING (w1, w2)
  GROUP BY occ.doc_id
)"""

    return f"""
WITH words AS (
  SELECT d.doc_id, d.source,
         unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS w,
         unnest(generate_series(1,
           len(regexp_extract_all(text, '{WS_TOKEN_RE}')))) AS i
  FROM documents d
),
big AS (
  SELECT doc_id, source, w AS w1,
         LEAD(w) OVER (PARTITION BY doc_id ORDER BY i) AS w2
  FROM words
),
occ AS (SELECT doc_id, source, w1, w2 FROM big WHERE w2 IS NOT NULL),
{lm_ctes("ind", f"WHERE source = '{_ML_SRC}'", _ML_IN_MIN).strip()},
{lm_ctes("gen", "", _ML_GEN_MIN).strip()}
SELECT a.doc_id, a.n_bigrams,
  a.nll_fp AS nll_in_fp, g.nll_fp AS nll_gen_fp,
  CAST(a.nll_fp - g.nll_fp AS DOUBLE)
    / (CAST(a.n_bigrams AS DOUBLE) * 1000000000.0) AS ce_diff
FROM nll_ind a JOIN nll_gen g USING (doc_id)
ORDER BY ce_diff, a.doc_id LIMIT {_ML_K}
"""


# --- BPE tokenizer training + application ----------------------------------
#
# Both BPE queries are FULL hash oracles. The shared primitive is a
# separator-string encoding of a word's symbol list —
# "␁␁s1␁␁s2␁␁" with ␁ = chr(1) (the corpus is printable ASCII, so
# the separator never occurs inside a symbol) — under which:
#  * the TRAINING rewrite "merge every non-overlapping (a, b)
#    left-to-right" is exactly DuckDB's plain `replace(s,
#    '␁a␁␁b␁', '␁ab␁')` (replace scans left-to-right and resumes
#    after each substitution, so overlapping runs like a·a·a merge
#    to aa·a just as learn_merges' index-skipping scan does), and
#  * the ENCODE step "merge the leftmost occurrence of the
#    lowest-rank applicable pair" is argmin over rank·K + strpos.
# With that, bpe_merges needs NO export at all — DuckDB re-derives
# the whole greedy training from the raw corpus via _BPE_MERGES
# unrolled MATERIALIZED CTE levels (word counts → pair counts →
# deterministic argmax (count DESC, pair ASC) → rewrite) — and
# bpe_token_counts exports the learned merge table (the
# gate_decisions LM-parameter pattern) and replays encode_word as a
# recursive CTE, one merge per step, depth ≤ max word length.

_BPE_MERGES = 50
_BPE_ORACLE_DIR = "/tmp/rsmetacheck_bpe_oracle"

# regexp_extract_all(text, '\S+') ≡ the engine's split_ws_tokens
# (RE2 \s = [\t\n\f\r ] on both sides; see functions/tokenize.py).
_SQL_WORD_COUNTS = r"""
  SELECT word, COUNT(*)::BIGINT AS n
  FROM (SELECT unnest(regexp_extract_all(text, '\S+')) AS word FROM documents)
  GROUP BY word ORDER BY n DESC, word LIMIT 50000
"""

# chars[:-1] + [last_char || '</w>'], as the sep-string.
_SQL_SYMBOLIZE = r"""
    chr(1)||chr(1) || array_to_string(
      list_append(string_split(word, '')[1:length(word)-1],
                  string_split(word, '')[length(word)] || '</w>'),
      chr(1)||chr(1)) || chr(1)||chr(1)
"""


def _sql_bpe_merges(num_merges: int = _BPE_MERGES) -> str:
    """Unrolled greedy-training replay: level k recounts every
    adjacent symbol pair weighted by word frequency (fresh recount ≡
    learn_merges' incremental update: a merged pair can never
    re-appear after its left-to-right rewrite), picks the
    deterministic argmax, and rewrites. MATERIALIZED pins each level
    to evaluate once (seg{k} is referenced twice)."""
    parts = [
        f"wc AS MATERIALIZED ({_SQL_WORD_COUNTS}),",
        f"seg0 AS MATERIALIZED (SELECT n, {_SQL_SYMBOLIZE} AS s FROM wc)",
    ]
    for k in range(num_merges):
        parts.append(f""",
p{k} AS (
  SELECT syms[i] AS lft, syms[i+1] AS rgt, SUM(n)::BIGINT AS c
  FROM (SELECT n, string_split(trim(s, chr(1)), chr(1)||chr(1)) AS syms FROM seg{k}),
       LATERAL (SELECT unnest(generate_series(1, len(syms) - 1)) AS i) u
  GROUP BY 1, 2
),
b{k} AS MATERIALIZED (
  SELECT lft, rgt FROM p{k} WHERE c > 0 ORDER BY c DESC, lft, rgt LIMIT 1
),
seg{k + 1} AS MATERIALIZED (
  SELECT n,
    CASE WHEN (SELECT count(*) FROM b{k}) = 0 THEN s
    ELSE replace(s,
      chr(1) || (SELECT lft FROM b{k}) || chr(1)||chr(1) || (SELECT rgt FROM b{k}) || chr(1),
      chr(1) || (SELECT lft FROM b{k}) || (SELECT rgt FROM b{k}) || chr(1))
    END AS s
  FROM seg{k}
)""")
    union = "\nUNION ALL\n".join(
        f'SELECT {k}::BIGINT AS rank, lft AS "left", rgt AS "right",'
        f" lft || rgt AS merged FROM b{k}"
        for k in range(num_merges)
    )
    return "WITH " + "".join(parts) + "\n" + union


def _export_bpe_merges(merges) -> None:
    import pyarrow.parquet as pq

    os.makedirs(_BPE_ORACLE_DIR, exist_ok=True)
    table = pa.table(
        {
            "rank": pa.array(range(len(merges)), pa.int64()),
            "l": pa.array([a for a, _ in merges], pa.string()),
            "r": pa.array([b for _, b in merges], pa.string()),
        }
    )
    out = os.path.join(_BPE_ORACLE_DIR, "merges.parquet")
    tmp = out + f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    pq.write_table(table, tmp)
    os.replace(tmp, out)


SQL_BPE_TOKEN_COUNTS = f"""
WITH RECURSIVE
mlist AS (
  SELECT list(struct_pack(
      pat := chr(1) || l || chr(1) || chr(1) || r || chr(1),
      rep := chr(1) || l || r || chr(1)) ORDER BY rank) AS ms
  FROM '{_BPE_ORACLE_DIR}/merges.parquet'
),
toks AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS word FROM documents
),
uw AS (SELECT DISTINCT word FROM toks),
init AS (
  SELECT word, {_SQL_SYMBOLIZE} AS s, 0 AS step FROM uw
),
enc AS (
  SELECT word, s, step FROM init
  UNION ALL
  SELECT word,
    substr(s, 1, (best % 10000000) - 1)
      || ms[best // 10000000].rep
      || substr(s, (best % 10000000) + length(ms[best // 10000000].pat)),
    step + 1
  FROM (
    SELECT word, s, step, ms,
      list_min(list_filter(
        list_transform(range(1, len(ms) + 1), i ->
          CASE WHEN strpos(s, ms[i].pat) > 0
               THEN i * 10000000 + strpos(s, ms[i].pat) END),
        x -> x IS NOT NULL)) AS best
    FROM enc, mlist
  )
  WHERE best IS NOT NULL
),
wlen AS (
  SELECT word, len(string_split(s, chr(1)||chr(1))) - 2 AS n_sym
  FROM (
    SELECT word, s,
      row_number() OVER (PARTITION BY word ORDER BY step DESC) AS rn
    FROM enc) WHERE rn = 1
)
SELECT d.doc_id, COALESCE(SUM(w.n_sym), 0)::BIGINT AS n_bpe_tokens
FROM documents d
LEFT JOIN toks t ON t.doc_id = d.doc_id
LEFT JOIN wlen w ON w.word = t.word
GROUP BY d.doc_id
"""


def q_bpe_merges(sf_dir: str):
    """Learn a BPE merge table from the corpus (functions/bpe.py):
    ONE distributed partial-combined word-count pass, then the greedy
    merge loop over the bounded frequency table — how real tokenizer
    trainers work. FULL independent oracle: DuckDB re-derives the
    entire greedy training from the raw corpus (no export) via
    unrolled rewrite levels; the naive-reference differential stays
    in pytest."""
    from ..functions.bpe import train_bpe

    return train_bpe(
        _documents(sf_dir, ["doc_id", "text"]), num_merges=_BPE_MERGES
    )


def q_bpe_token_counts(sf_dir: str):
    """Token-budget accounting under the corpus-learned BPE: train,
    then a broadcast apply stage memoizing per-unique-word encodings.
    Oracle: the learned merges are exported and DuckDB replays
    encode_word (leftmost lowest-rank merge per step) as a recursive
    CTE over the corpus's unique words."""
    from ..functions.bpe import apply_bpe, corpus_word_counts, learn_merges

    merges = learn_merges(
        corpus_word_counts(_documents(sf_dir, ["doc_id", "text"])),
        _BPE_MERGES,
    )
    _export_bpe_merges(merges)
    return apply_bpe(_documents(sf_dir, ["doc_id", "text"]), merges)


# --- global vocabulary: top-k token frequencies ----------------------------

_TOPK_TOKENS = 50


def q_top_tokens(sf_dir: str, k: int = _TOPK_TOKENS):
    """Corpus vocabulary head — the most frequent whitespace tokens
    (the vocab-building / stopword-derivation pass of a training-data
    pipeline). Shuffle discipline: ONE Arrow ``group_by`` per batch
    pre-combines counts (Zipf text ⇒ per-batch vocab ≪ rows), the
    global groupby ships only those partials, and a per-block top-k
    prune bounds the final sort to (#blocks × k) rows instead of the
    whole vocabulary — the global top-k is always a subset of the
    union of per-block top-ks under the total (n DESC, token ASC)
    order."""
    ds = _documents(sf_dir, ["doc_id", "text"])

    def partial(b: pa.Table) -> pa.Table:
        from ..functions.tokenize import split_ws_tokens

        flat = split_ws_tokens(b.column("text")).flatten()
        flat = flat.filter(pc.not_equal(flat, ""))
        g = pa.table({"token": flat}).group_by("token").aggregate(
            [("token", "count")]
        )
        return pa.table(
            {
                "token": g.column("token"),
                "n": pc.cast(g.column("token_count"), pa.int64()),
            }
        )

    counts = ds.map_batches(partial, batch_format="pyarrow").groupby(
        "token"
    ).aggregate(Sum("n", alias_name="n"))
    return _sorted_topk(
        counts, [("n", "descending"), ("token", "ascending")], k
    )


_COLLOC_MIN_COUNT = 5


def q_collocations(sf_dir: str, min_count: int = _COLLOC_MIN_COUNT):
    """Collocation (adjacent word-bigram) counts with their unigram
    marginals — the count table PMI/log-likelihood collocation scoring
    is computed from (the engine emits exact integers; the float score
    is a driver-side formula away, kept out of the contract so the
    hash compare stays bit-exact).

    Plan: pass 1 pre-combines per-batch bigram counts (ONE vectorized
    adjacency over the canonical \\S+ split — consecutive flat tokens
    with the same doc index) and ships only per-batch distinct pairs
    into the global groupby; pairs below ``min_count`` are dropped
    AFTER the global sum, so the surviving table is output-bounded.
    Pass 2 re-counts unigrams restricted to the words of surviving
    pairs (a broadcast membership probe per batch — the needed vocab
    is output-bounded even though the corpus vocabulary is not) and
    the marginals attach with two driver searchsorts."""
    from ..functions.tokenize import split_ws_tokens

    ds = _documents(sf_dir, ["doc_id", "text"])

    def bigram_partial(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "w1": pa.array([], pa.string()),
                "w2": pa.array([], pa.string()),
                "n_xy": pa.array([], pa.int64()),
            }
        )
        words = split_ws_tokens(b.column("text"))
        off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = words.flatten()
        doc_idx = np.repeat(
            np.arange(len(words), dtype=np.int64), np.diff(off)
        )
        mask = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        doc_idx = doc_idx[mask]
        if len(doc_idx) < 2:
            return empty
        toks = flat.filter(pa.array(mask))
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        same = pa.array(doc_idx[1:] == doc_idx[:-1])
        w1 = toks.slice(0, len(toks) - 1).filter(same)
        w2 = toks.slice(1).filter(same)
        if len(w1) == 0:
            return empty
        g = (
            pa.table({"w1": w1, "w2": w2})
            .group_by(["w1", "w2"])
            .aggregate([([], "count_all")])
        )
        g = g.rename_columns(["w1", "w2", "n_xy"])
        return g.set_column(2, "n_xy", pc.cast(g.column("n_xy"), pa.int64()))

    pairs = (
        ds.map_batches(bigram_partial, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .aggregate(Sum("n_xy", alias_name="n_xy"))
        .filter(expr=f"n_xy >= {min_count}")
    )
    import ray as _ray

    # materialize() first: to_arrow_refs on a live plan re-executes it
    # for the schema probe (see bounded_group_table)
    pt = pairs.materialize().to_arrow_refs()

    tables = [t for t in map(_ray.get, pt) if t.num_rows]
    if not tables:
        return pa.table(
            {
                "w1": pa.array([], pa.string()),
                "w2": pa.array([], pa.string()),
                "n_xy": pa.array([], pa.int64()),
                "n_x": pa.array([], pa.int64()),
                "n_y": pa.array([], pa.int64()),
            }
        )
    pair_tbl = pa.concat_tables(tables).combine_chunks()
    vocab = np.unique(
        np.concatenate(
            [
                pair_tbl.column("w1").to_numpy(zero_copy_only=False),
                pair_tbl.column("w2").to_numpy(zero_copy_only=False),
            ]
        )
    )
    vocab_ref = _ray.put(vocab)

    def unigram_partial(b: pa.Table) -> pa.Table:
        from ..functions.tokenize import tokens_with_doc_index

        _, toks = tokens_with_doc_index(b.column("text"))
        if toks is None:
            return pa.table(
                {
                    "token": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        vv = _ray.get(vocab_ref)
        uniq = toks.dictionary.to_numpy(zero_copy_only=False)
        pos = np.searchsorted(vv, uniq)
        member = np.zeros(len(uniq), bool)
        in_rng = pos < len(vv)
        member[in_rng] = vv[pos[in_rng]] == uniq[in_rng]
        cnt = np.bincount(
            toks.indices.to_numpy(zero_copy_only=False),
            minlength=len(uniq),
        ).astype(np.int64)
        keep = member & (cnt > 0)
        return pa.table(
            {
                "token": pa.array(uniq[keep], pa.string()),
                "n": pa.array(cnt[keep], pa.int64()),
            }
        )

    uni = rel.bounded_group_table_strict(
        ds.map_batches(unigram_partial, batch_format="pyarrow"),
        ["token"],
        [("n", "sum")],
    )
    ut = uni.column("token").to_numpy(zero_copy_only=False)
    un = uni.column("n").to_numpy(zero_copy_only=False)
    order = np.argsort(ut, kind="stable")
    ut, un = ut[order], un[order]
    w1 = pair_tbl.column("w1").to_numpy(zero_copy_only=False)
    w2 = pair_tbl.column("w2").to_numpy(zero_copy_only=False)
    n_x = un[np.searchsorted(ut, w1)]
    n_y = un[np.searchsorted(ut, w2)]
    out = pa.table(
        {
            "w1": pair_tbl.column("w1"),
            "w2": pair_tbl.column("w2"),
            "n_xy": pair_tbl.column("n_xy"),
            "n_x": pa.array(n_x, pa.int64()),
            "n_y": pa.array(n_y, pa.int64()),
        }
    )
    idx = pa.compute.sort_indices(
        out, sort_keys=[("w1", "ascending"), ("w2", "ascending")]
    )
    return out.take(idx)


def _sql_collocations() -> str:
    from ..functions.tokenize import WS_TOKEN_RE

    return f"""
WITH t AS (
  SELECT doc_id, regexp_extract_all(text, '{WS_TOKEN_RE}') AS toks
  FROM documents
), w AS (
  SELECT doc_id, unnest(toks) AS w, generate_subscripts(toks, 1) AS i
  FROM t
), bc AS (
  SELECT a.w AS w1, c.w AS w2, CAST(COUNT(*) AS BIGINT) AS n_xy
  FROM w a JOIN w c ON a.doc_id = c.doc_id AND c.i = a.i + 1
  GROUP BY 1, 2
  HAVING COUNT(*) >= {_COLLOC_MIN_COUNT}
), uc AS (
  SELECT w, CAST(COUNT(*) AS BIGINT) AS n FROM w GROUP BY 1
)
SELECT bc.w1, bc.w2, bc.n_xy, u1.n AS n_x, u2.n AS n_y
FROM bc JOIN uc u1 ON bc.w1 = u1.w JOIN uc u2 ON bc.w2 = u2.w
ORDER BY bc.w1, bc.w2
"""


def _sql_top_tokens() -> str:
    from ..functions.tokenize import WS_TOKEN_RE

    return f"""
WITH w AS (
  SELECT unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS token
  FROM documents
)
SELECT token, CAST(COUNT(*) AS BIGINT) AS n
FROM w GROUP BY token
ORDER BY n DESC, token ASC
LIMIT {_TOPK_TOKENS}
"""


# --- per-document vocabulary coverage (OOV rate) -----------------------------


class _VocabProbe:
    """Broadcast top-k-vocabulary membership probe: the sorted token
    array rides the object store once (zero-copy plasma read per
    worker); per batch, membership resolves over the batch's UNIQUE
    tokens only (dictionary encode) and per-doc tallies are two
    bincounts — no shuffle at any corpus size."""

    def __init__(self, vocab_ref, id_col: str, text_col: str):
        import ray as _ray

        self._vocab = _ray.get(vocab_ref)  # sorted unicode ndarray
        self._id, self._text = id_col, text_col

    def __call__(self, b: pa.Table) -> pa.Table:
        from ..functions.tokenize import tokens_with_doc_index

        n_docs = len(b)
        doc_idx, denc = tokens_with_doc_index(b.column(self._text))
        n_tok = np.zeros(n_docs, np.int64)
        n_oov = np.zeros(n_docs, np.int64)
        if denc is not None:
            uniq = np.asarray(denc.dictionary.to_pylist(), dtype=str)
            pos = np.searchsorted(self._vocab, uniq)
            hit = (
                (pos < len(self._vocab))
                & (self._vocab[np.minimum(pos, len(self._vocab) - 1)] == uniq)
                if len(self._vocab)
                else np.zeros(len(uniq), bool)
            )
            codes = denc.indices.to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            n_tok = np.bincount(doc_idx, minlength=n_docs).astype(np.int64)
            n_oov = np.bincount(
                doc_idx[~hit[codes]], minlength=n_docs
            ).astype(np.int64)
        rate = np.zeros(n_docs, np.float64)
        nz = n_tok > 0
        rate[nz] = n_oov[nz].astype(np.float64) / n_tok[nz]
        return pa.table(
            {
                "doc_id": b.column(self._id),
                "n_tokens": pa.array(n_tok, pa.int64()),
                "n_oov": pa.array(n_oov, pa.int64()),
                "oov_rate": pa.array(rate, pa.float64()),
            }
        )


def q_vocab_coverage(sf_dir: str, k: int = _TOPK_TOKENS):
    """Per-document out-of-vocabulary rate against the corpus top-k
    vocabulary — the tokenizer-coverage signal a training pipeline
    checks before committing to a vocab (high OOV ⇒ the tokenizer
    fragments the document). Pass 1 is the ``top_tokens`` partial-
    combined count (k rows materialize on the driver); pass 2 is a
    broadcast membership probe, one row per document out."""
    import ray as _ray

    from ..functions.taskcache import cached_stage

    vocab = np.sort(
        np.asarray(
            q_top_tokens(sf_dir, k).to_pandas()["token"].tolist(), dtype=str
        )
    )
    vocab_ref = _ray.put(vocab)
    return _documents(sf_dir, ["doc_id", "text"]).map_batches(
        cached_stage(_VocabProbe, vocab_ref, "doc_id", "text"),
        batch_format="pyarrow",
    )


def _sql_vocab_coverage() -> str:
    from ..functions.tokenize import WS_TOKEN_RE

    return f"""
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(COALESCE(text, ''), '{WS_TOKEN_RE}')) AS w
  FROM documents
),
cnt AS (SELECT w, CAST(COUNT(*) AS BIGINT) AS n FROM tok GROUP BY 1),
vocab AS (SELECT w FROM cnt ORDER BY n DESC, w ASC LIMIT {_TOPK_TOKENS}),
per AS (
  SELECT t.doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
         CAST(SUM(CASE WHEN v.w IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_oov
  FROM tok t LEFT JOIN vocab v USING (w) GROUP BY 1
)
SELECT d.doc_id,
  COALESCE(p.n_tokens, 0) AS n_tokens,
  COALESCE(p.n_oov, 0) AS n_oov,
  CASE WHEN p.n_tokens > 0 THEN CAST(p.n_oov AS DOUBLE) / p.n_tokens
       ELSE 0.0 END AS oov_rate
FROM documents d LEFT JOIN per p USING (doc_id)
"""


# --- per-document character entropy ------------------------------------------


def q_doc_char_entropy(sf_dir: str):
    """Character-level Shannon entropy per document (functions/
    entropy.py): the low-information-content quality signal, exact via
    the integer nano-log-unit sum — no shuffle, one row per doc."""
    from ..functions.entropy import char_entropy

    return char_entropy(_documents(sf_dir, ["doc_id", "text"]))


# --- per-document top-k TF-IDF terms ----------------------------------------

_TFIDF_K = 5


def _documents_rows(sf_dir: str) -> int:
    """documents.parquet row count from the footer only (free)."""
    import pyarrow.parquet as pq

    return pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")
    ).metadata.num_rows


def q_importance_weights(sf_dir: str):
    """DSIR-style data-selection importance weights (functions/
    dsir.py): per-doc add-one-smoothed unigram log likelihood ratio of
    the English target slice vs the raw corpus, quantized to integer
    nano-log-units so the per-doc sum is order-independent and
    hash-matches the SQL oracle exactly."""
    from ..functions.dsir import dsir_weights

    ds = _documents(sf_dir, ["doc_id", "text", "lang"])

    def tag(b: pa.Table) -> pa.Table:
        return b.append_column(
            "is_target", pc.equal(pc.fill_null(b.column("lang"), ""), "en")
        )

    return dsir_weights(
        ds.map_batches(tag, batch_format="pyarrow"), target_col="is_target"
    )


_IMPORTANCE_K = 100


def _sorted_topk(ds: rd.Dataset, sort_keys, k: int) -> rd.Dataset:
    """Global top-k under a total order: per-block top-k prune bounds
    the final sort to (#blocks × k) rows — the global top-k is always
    a subset of the union of per-block top-ks under a TOTAL order, so
    ``sort_keys`` must break every tie. Shared by ``top_tokens`` and
    ``importance_sample``."""

    def block_topk(b: pa.Table) -> pa.Table:
        if b.num_rows <= k:
            return b
        idx = pc.sort_indices(b, sort_keys=sort_keys)
        return b.take(idx.slice(0, k))

    return (
        ds.map_batches(block_topk, batch_format="pyarrow")
        .sort(
            [c for c, _ in sort_keys],
            descending=[d == "descending" for _, d in sort_keys],
        )
        .limit(k)
    )


_ZORDER_K = 100

# Morton bit-spread: x -> bits of x interleaved with zeros, the
# standard 5-step magic-mask sequence (public domain "Bit Twiddling
# Hacks"); identical arithmetic on both sides so zkeys hash-match.
_SPREAD_STEPS = [
    (8, 0x00FF00FF),
    (4, 0x0F0F0F0F),
    (2, 0x33333333),
    (1, 0x55555555),
]


def _spread16_np(x: np.ndarray) -> np.ndarray:
    x = x & 0xFFFF
    for s, m in _SPREAD_STEPS:
        x = (x | (x << s)) & m
    return x


def _spread16_sql(col: str) -> str:
    expr = f"({col} & 65535)"
    for s, m in _SPREAD_STEPS:
        expr = f"(({expr} | ({expr} << {s})) & {m})"
    return expr


def q_events_zorder(sf_dir: str, k: int = _ZORDER_K):
    """The ``k`` events FIRST on the Z-ORDER (Morton) curve over
    (user_id, value cents) — the space-filling-curve layout key
    lakehouses cluster files by so multi-column range predicates prune
    together. zkey interleaves the low 16 bits of both columns
    (``spread(user) | spread(cents) << 1``); the ordering pass is the
    shared per-block top-k prune (never a full sort), so computing a
    Z-layout at 10¹² rows ships (#blocks × k) candidate rows."""
    ds = rel._read_pq(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "value"],
    )

    def stage(b: pa.Table) -> pa.Table:
        u = b.column("user_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        c = rel._cents(b.column("value")).to_numpy(zero_copy_only=False)
        z = _spread16_np(u) | (_spread16_np(c) << 1)
        return pa.table(
            {
                "event_id": b.column("event_id"),
                "zkey": pa.array(z, pa.int64()),
            }
        )

    return _sorted_topk(
        ds.map_batches(stage, batch_format="pyarrow"),
        [("zkey", "ascending"), ("event_id", "ascending")],
        k,
    )


def _sql_events_zorder() -> str:
    zu = _spread16_sql("user_id")
    zc = _spread16_sql("cents")
    return f"""
WITH c AS (
  SELECT event_id, user_id,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
)
SELECT event_id, ({zu} | ({zc} << 1)) AS zkey
FROM c
ORDER BY zkey, event_id
LIMIT {_ZORDER_K}
"""


def q_importance_sample(sf_dir: str):
    """The DSIR resampling step: keep the top-k documents by
    importance weight (wfp DESC, doc_id ASC — fully deterministic
    under weight ties)."""
    return _sorted_topk(
        q_importance_weights(sf_dir),
        [("log_weight_fp", "descending"), ("doc_id", "ascending")],
        _IMPORTANCE_K,
    )


def _sql_importance_sample() -> str:
    return (
        _sql_importance_weights()
        + f" ORDER BY log_weight_fp DESC, doc_id ASC LIMIT {_IMPORTANCE_K}"
    )


def _sql_importance_weights() -> str:
    from ..functions.tokenize import WS_TOKEN_RE

    return f"""
WITH tok AS (
  SELECT doc_id, lang,
         unnest(regexp_extract_all(coalesce(text, ''), '{WS_TOKEN_RE}')) AS token
  FROM documents
),
counts AS (
  SELECT token,
         CAST(count(*) AS BIGINT) AS c_r,
         CAST(sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS BIGINT) AS c_t
  FROM tok GROUP BY token
),
tot AS (
  SELECT CAST(count(*) AS BIGINT) AS v,
         CAST(sum(c_r) AS BIGINT) AS n_r,
         CAST(sum(c_t) AS BIGINT) AS n_t
  FROM counts
),
terms AS (
  -- floor to integer nano-log-units: the per-doc sum becomes an
  -- integer sum, order-independent on both sides (see dsir.py)
  SELECT token,
    CAST(floor(((ln(CAST(c_t + 1 AS DOUBLE)) - ln(CAST(n_t + v AS DOUBLE)))
              - (ln(CAST(c_r + 1 AS DOUBLE)) - ln(CAST(n_r + v AS DOUBLE))))
         * 1000000000.0) AS BIGINT) AS term_fp
  FROM counts, tot
),
per_doc AS (
  SELECT t.doc_id,
         CAST(count(*) AS BIGINT) AS n_tokens,
         CAST(sum(m.term_fp) AS BIGINT) AS wfp
  FROM tok t JOIN terms m USING (token)
  GROUP BY t.doc_id
)
SELECT d.doc_id,
  coalesce(p.n_tokens, 0) AS n_tokens,
  coalesce(p.wfp, 0) AS log_weight_fp,
  CAST(coalesce(p.wfp, 0) AS DOUBLE) / 1000000000.0 AS log_weight
FROM documents d LEFT JOIN per_doc p USING (doc_id)
"""


def q_tfidf_top_terms(sf_dir: str):
    """Top-5 TF-IDF terms per document (functions/tfidf.py): one
    partial-combined DF pass, then a size-gated broadcast (bench
    scale) or term-keyed shuffle join (web-scale vocabularies) score
    pass with a vectorized per-doc segment top-k. idf uses math.log
    per DISTINCT df value — bit-identical to DuckDB's ln — so the
    float scores hash-match the oracle."""
    from ..functions.tfidf import tfidf_top_terms

    return tfidf_top_terms(
        _documents(sf_dir, ["doc_id", "text"]),
        k=_TFIDF_K,
        n_docs=_documents_rows(sf_dir),
    )


def _sql_tfidf_top_terms() -> str:
    # N via scalar subquery == the engine's parquet-footer count
    from ..functions.tokenize import WS_TOKEN_RE

    return f"""
WITH n AS (SELECT CAST(COUNT(*) AS DOUBLE) AS nd FROM documents),
w AS (
  SELECT doc_id,
         unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS term
  FROM documents
),
tf AS (
  SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
  FROM w GROUP BY doc_id, term
),
df AS (
  SELECT term, CAST(COUNT(*) AS BIGINT) AS df
  FROM (SELECT DISTINCT doc_id, term FROM w) GROUP BY term
)
SELECT t.doc_id, t.term, t.tf, d.df,
       CAST(t.tf AS DOUBLE) * ln(n.nd / CAST(d.df AS DOUBLE)) AS score,
       CAST(row_number() OVER (
         PARTITION BY t.doc_id
         ORDER BY CAST(t.tf AS DOUBLE) * ln(n.nd / CAST(d.df AS DOUBLE))
                    DESC,
                  t.term ASC
       ) AS BIGINT) AS rnk
FROM tf t JOIN df d USING (term), n
QUALIFY rnk <= {_TFIDF_K}
"""


# --- fixed-size token chunking (context windows) ---------------------------

_CHUNK_TOKENS = 64


def q_chunk_tokens(sf_dir: str):
    """Context-window chunking (functions/chunking.py): every document
    split into consecutive 64-token windows — the row-EXPANDING
    flat_map shape on text, shuffle-free (a document is one row of one
    batch), with the joined chunk text built by one vectorized Arrow
    ``binary_join`` over list offsets."""
    from ..functions.chunking import chunk_tokens

    return chunk_tokens(
        _documents(sf_dir, ["doc_id", "text"]), chunk_size=_CHUNK_TOKENS
    )


def _sql_chunk_tokens() -> str:
    from ..functions.tokenize import WS_TOKEN_RE

    return f"""
WITH w AS (
  SELECT doc_id,
         unnest(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS w,
         unnest(generate_series(1, len(regexp_extract_all(text, '{WS_TOKEN_RE}')))) AS i
  FROM documents
)
SELECT doc_id,
       CAST((i - 1) // {_CHUNK_TOKENS} AS BIGINT) AS chunk_idx,
       string_agg(w, ' ' ORDER BY i) AS chunk_text,
       CAST(COUNT(*) AS BIGINT) AS n_tokens
FROM w
GROUP BY doc_id, (i - 1) // {_CHUNK_TOKENS}
"""


# --- sequence packing ------------------------------------------------------


def q_pack_sequences(sf_dir: str):
    """Concat-then-chunk packing: which fixed-length training sequences
    each document occupies within its shard (functions/packing.py).
    ONE shuffle of the 24-byte (id, shard, n_tokens) projection."""
    from ..functions.packing import pack_sequences

    return pack_sequences(_documents(sf_dir, ["doc_id", "text"]))


def _sql_pack_sequences() -> str:
    from ..functions.packing import DEFAULT_SEQ_LEN, DEFAULT_SHARD_SIZE
    from ..functions.tokenize import WS_TOKEN_RE

    return f"""
WITH t AS (
  SELECT doc_id, doc_id // {DEFAULT_SHARD_SIZE} AS shard,
         len(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS n_tokens
  FROM documents
),
c AS (
  SELECT doc_id, shard, n_tokens,
    SUM(n_tokens) OVER (
      PARTITION BY shard ORDER BY doc_id ROWS UNBOUNDED PRECEDING
    ) - n_tokens AS start_off
  FROM t WHERE n_tokens > 0
)
SELECT doc_id, CAST(shard AS BIGINT) AS shard,
  CAST(n_tokens AS BIGINT) AS n_tokens,
  CAST(start_off // {DEFAULT_SEQ_LEN} AS BIGINT) AS seq_first,
  CAST((start_off + n_tokens - 1) // {DEFAULT_SEQ_LEN} AS BIGINT) AS seq_last
FROM c
"""


def q_pack_ffd(sf_dir: str):
    """Whole-document First-Fit-Decreasing packing into fixed-capacity
    training sequences (functions/packing.pack_ffd) — the boundary-
    preserving alternative to pack_sequences' concat-then-chunk. The
    greedy is sequential per shard, but FINITE-STATE per step — the
    open-bin remaining-capacity vector — so the oracle re-derives the
    whole assignment from raw text with a recursive CTE that folds the
    per-shard doc sequence (size DESC, id ASC) through an explicit
    bins LIST (indexed list_transform to decrement the first fit,
    list_append to open; DuckDB list_position returns 0 for
    not-found). Full hash oracle since r5; capacity/determinism/
    ≤-next-fit/partition-invariance additionally pinned by
    tests/test_packing.py."""
    from ..functions.packing import pack_ffd

    return pack_ffd(_documents(sf_dir, ["doc_id", "text"]))


def _sql_pack_ffd() -> str:
    from ..functions.packing import DEFAULT_CAPACITY, DEFAULT_SHARD_SIZE
    from ..functions.tokenize import WS_TOKEN_RE

    cap, ss = DEFAULT_CAPACITY, DEFAULT_SHARD_SIZE
    return rf"""
WITH RECURSIVE toks AS (
  SELECT doc_id, CAST(doc_id // {ss} AS BIGINT) AS shard,
    CAST(len(regexp_extract_all(COALESCE(text,''), '{WS_TOKEN_RE}'))
      AS BIGINT) AS n_tokens
  FROM documents
),
ordered AS (
  SELECT doc_id, shard, n_tokens,
    ROW_NUMBER() OVER (
      PARTITION BY shard ORDER BY n_tokens DESC, doc_id) AS rk
  FROM toks WHERE n_tokens > 0
),
fold AS (
  SELECT shard, rk, doc_id, n_tokens, CAST(0 AS BIGINT) AS bin,
    [{cap} - n_tokens] AS bins
  FROM ordered WHERE rk = 1
  UNION ALL
  SELECT o.shard, o.rk, o.doc_id, o.n_tokens,
    CAST(CASE
      WHEN o.n_tokens <= {cap} AND list_position(
        list_transform(f.bins, b -> b >= o.n_tokens), true) > 0
      THEN list_position(
        list_transform(f.bins, b -> b >= o.n_tokens), true) - 1
      ELSE len(f.bins) END AS BIGINT) AS bin,
    CASE
      WHEN o.n_tokens <= {cap} AND list_position(
        list_transform(f.bins, b -> b >= o.n_tokens), true) > 0
      THEN list_transform(f.bins, (b, j) ->
        CASE WHEN j = list_position(
          list_transform(f.bins, x -> x >= o.n_tokens), true)
        THEN b - o.n_tokens ELSE b END)
      ELSE list_append(f.bins, {cap} - o.n_tokens) END AS bins
  FROM fold f JOIN ordered o ON o.shard = f.shard AND o.rk = f.rk + 1
)
SELECT doc_id, shard, n_tokens, bin FROM fold
"""


def q_dedup_embedding_pairs(sf_dir: str):
    """Size-gated: EXACT block-pair cosine at oracle scales (all sf
    dirs are far under the gate), hyperplane LSH past
    ``EXACT_EMBEDDING_MAX_ROWS`` — see test_embedding_auto_gate."""
    ds = rel._read_pq(os.path.join(sf_dir, "embeddings.parquet"))
    return dd.embedding_pairs_auto(ds, threshold=0.45)


def q_dedup_embedding_lsh(sf_dir: str):
    """Scale-path variant (random-hyperplane buckets, no broadcast);
    approximate by design → rows-only check + recall test in pytest.
    Runs at a true near-dup threshold over a corpus with planted
    duplicate vectors (vec_id+1e6 copies of every 10th vector) — LSH
    recall at weak thresholds (cos 0.45 ≈ 63°) is near zero by
    construction; its regime is near-parallel vectors."""
    ds = rel._read_pq(os.path.join(sf_dir, "embeddings.parquet"))

    def copies(b: pa.Table) -> pa.Table:
        ids = b.column("vec_id").to_numpy(zero_copy_only=False)
        sub = b.filter(pa.array(ids % 10 == 0))
        return pa.table(
            {
                "vec_id": pc.add(sub.column("vec_id"), 1_000_000),
                "embedding": sub.column("embedding"),
                "label": sub.column("label"),
            }
        )

    corpus = ds.union(ds.map_batches(copies, batch_format="pyarrow"))
    _ensure_lsh_planes_export(sf_dir)
    return dd.embedding_lsh_pairs(corpus, threshold=0.9)


_LSH_EXPORT_DIR = "/tmp/rsmetacheck_lsh_oracle"


def _ensure_lsh_planes_export(sf_dir: str) -> None:
    """Export the deterministic hyperplanes as oracle parameters (the
    LM-parameter pattern; data-independent except for the dimension)."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(os.path.join(sf_dir, "embeddings.parquet"))
    first = next(pf.iter_batches(batch_size=1))
    dim = len(first.column("embedding")[0])
    planes = dd.lsh_planes(4, 12, dim, seed=42)
    os.makedirs(_LSH_EXPORT_DIR, exist_ok=True)
    out = os.path.join(_LSH_EXPORT_DIR, "lsh_planes.parquet")
    tmp = out + f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    rows_t, rows_p, rows_v = [], [], []
    for t in range(planes.shape[0]):
        for p in range(planes.shape[1]):
            rows_t.append(t)
            rows_p.append(p)
            rows_v.append([float(x) for x in planes[t, p]])
    pq.write_table(
        pa.table(
            {
                "t": pa.array(rows_t, pa.int64()),
                "p": pa.array(rows_p, pa.int64()),
                "pvec": pa.array(rows_v, pa.list_(pa.float64())),
            }
        ),
        tmp,
    )
    os.replace(tmp, out)


SQL_DEDUP_EMBEDDING_LSH = f"""
WITH corpus AS (
  SELECT vec_id, embedding FROM embeddings
  UNION ALL
  SELECT vec_id + 1000000 AS vec_id, embedding
  FROM embeddings WHERE vec_id % 10 = 0
),
dots AS (
  SELECT c.vec_id, pl.t, pl.p,
    list_sum(list_transform(range(1, len(c.embedding) + 1),
      i -> CAST(c.embedding[i] AS DOUBLE) * pl.pvec[i])) AS dt
  FROM corpus c
  CROSS JOIN '{_LSH_EXPORT_DIR}/lsh_planes.parquet' pl
),
buckets AS (
  -- sign(raw·plane) == sign(unit·plane): the positive norm never
  -- flips a sign, so bucketing skips the unit projection entirely
  SELECT vec_id, t,
    CAST(SUM(CASE WHEN dt > 0
             THEN CAST(1 AS BIGINT) << p ELSE 0 END)
         + (t * 4096) AS BIGINT) AS bucket
  FROM dots GROUP BY vec_id, t
),
cand AS (
  SELECT DISTINCT x.vec_id AS a, y.vec_id AS b
  FROM buckets x JOIN buckets y
    ON x.bucket = y.bucket AND x.vec_id < y.vec_id
),
norms AS (
  SELECT vec_id,
    GREATEST(sqrt(list_sum(list_transform(
      embedding, x -> CAST(x AS DOUBLE) * CAST(x AS DOUBLE)))),
      1e-300) AS nrm
  FROM corpus
)
SELECT c.a AS vec_id_a, c.b AS vec_id_b
FROM cand c
JOIN corpus ea ON ea.vec_id = c.a
JOIN corpus eb ON eb.vec_id = c.b
JOIN norms na ON na.vec_id = c.a
JOIN norms nb ON nb.vec_id = c.b
WHERE list_sum(list_transform(range(1, len(ea.embedding) + 1),
        i -> CAST(ea.embedding[i] AS DOUBLE)
             * CAST(eb.embedding[i] AS DOUBLE)))
      / (na.nrm * nb.nrm) >= 0.9
"""


SQL_DEDUP_EMBEDDING = """
SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(
        CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) >= 0.45
"""


def q_knn_cosine(sf_dir: str):
    qids, qvecs = _query_vectors(sf_dir)
    ds = rel._read_pq(os.path.join(sf_dir, "embeddings.parquet"))
    return sim.knn_bruteforce(ds, qvecs, qids, k=10)


SQL_KNN = """
SELECT q.vec_id AS query_id, e.vec_id AS vec_id
FROM embeddings q CROSS JOIN embeddings e
WHERE q.vec_id < 5
QUALIFY row_number() OVER (
  PARTITION BY q.vec_id
  ORDER BY list_cosine_similarity(
    CAST(q.embedding AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])) DESC,
    e.vec_id
) <= 10
"""


def q_hard_negatives(sf_dir: str):
    """Contrastive hard-negative mining: per query vector, the global
    cosine top-10 among OTHER-LABEL vectors (same-label = positives).
    functions/similarity.knn_hard_negatives — the knn_bruteforce
    block-prune plan with the label mask applied before the prune, so
    same-label vectors never enter the shuffle. Rank-only output:
    cosine ranking is scale-invariant, so the oracle ranks raw
    list_cosine_similarity directly."""
    import pyarrow.parquet as pq

    qids, qvecs = _query_vectors(sf_dir)
    lt = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "label"],
        filters=[("vec_id", "<", 5)],
    )
    lmap = dict(
        zip(lt.column("vec_id").to_pylist(), lt.column("label").to_pylist())
    )
    qlabs = np.array([lmap[int(i)] for i in qids], np.int64)
    ds = rel._read_pq(os.path.join(sf_dir, "embeddings.parquet"))
    return sim.knn_hard_negatives(ds, qvecs, qids, qlabs, k=10)


_BITEXT_COPY_OFFSET = 4_000_000
_BITEXT_MIN_COS = 0.7
_BITEXT_MARGIN = 1.8
_XLING_K = 3


def _bitext_sides(sf_dir: str) -> tuple[rd.Dataset, rd.Dataset]:
    """Source/target sides for the cross-lingual similarity operators:
    side A = vectors of English documents, side B = vectors of
    non-English documents PLUS a planted 'translation' (an exact copy
    at vec_id + offset) for every 5th English vector. The language
    attach is the size-gated generic join (documents and embeddings
    share the id space)."""
    from .join import join as generic_join

    emb = rel._read_pq(os.path.join(sf_dir, "embeddings.parquet"))

    def as_vec(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vec_id": pc.cast(t.column("doc_id"), pa.int64()),
                "lang": t.column("lang"),
            }
        )

    langs = rel._read_pq(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang"]
    ).map_batches(as_vec, batch_format="pyarrow")
    j = generic_join(
        emb.select_columns(["vec_id", "embedding"]), langs,
        on="vec_id", how="inner",
    )

    def side_a(t: pa.Table) -> pa.Table:
        sub = t.filter(pc.equal(t.column("lang"), "en"))
        return sub.select(["vec_id", "embedding"])

    def side_b(t: pa.Table) -> pa.Table:
        other = t.filter(pc.not_equal(t.column("lang"), "en")).select(
            ["vec_id", "embedding"]
        )
        en = t.filter(pc.equal(t.column("lang"), "en"))
        ids = en.column("vec_id").to_numpy(zero_copy_only=False)
        planted = en.filter(pa.array(ids % 5 == 0))
        copies = pa.table(
            {
                "vec_id": pc.add(planted.column("vec_id"), _BITEXT_COPY_OFFSET),
                "embedding": planted.column("embedding"),
            }
        )
        return pa.concat_tables([other, copies]).combine_chunks()

    return (
        j.map_batches(side_a, batch_format="pyarrow"),
        j.map_batches(side_b, batch_format="pyarrow"),
    )


_BITEXT_SIDES_SQL = f"""
a AS (
  SELECT e.vec_id, e.embedding FROM embeddings e
  JOIN documents d ON d.doc_id = e.vec_id WHERE d.lang = 'en'
),
b AS (
  SELECT e.vec_id, e.embedding FROM embeddings e
  JOIN documents d ON d.doc_id = e.vec_id WHERE d.lang <> 'en'
  UNION ALL
  SELECT vec_id + {_BITEXT_COPY_OFFSET} AS vec_id, embedding
  FROM a WHERE vec_id % 5 = 0
)
"""


def q_crosslingual_knn(sf_dir: str):
    """Exact cosine kNN JOIN (functions/similarity.knn_join): for
    EVERY English document's vector, its {_XLING_K} most similar
    non-English vectors (planted translation copies included) —
    (query_id, vec_id, rank). The whole-dataset-vs-whole-dataset
    sibling of knn_cosine's handful-of-queries broadcast: block-pair
    partial top-k tasks over object-store blocks, one groupby merge,
    deterministic (cos DESC, id ASC) tie-break."""
    a, b = _bitext_sides(sf_dir)
    return sim.knn_join(a, b, k=_XLING_K)


SQL_CROSSLINGUAL_KNN = f"""
WITH {_BITEXT_SIDES_SQL.strip()}
SELECT a.vec_id AS query_id, b.vec_id AS vec_id,
  CAST(row_number() OVER (
    PARTITION BY a.vec_id
    ORDER BY list_cosine_similarity(
      CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) DESC,
      b.vec_id
  ) AS BIGINT) AS "rank"
FROM a CROSS JOIN b
QUALIFY "rank" <= {_XLING_K}
"""


def q_crosslingual_knn_ivf(sf_dir: str):
    """IVF-bucketed variant of ``crosslingual_knn`` — the kNN JOIN's
    approximate scale path (functions/similarity.knn_join_ivf): the
    codebook trained on a bounded systematic sample of the non-English
    side buckets both sides, only ``nprobe`` cells join per English
    vector, and the codebook exports (the LM-parameter pattern) so
    DuckDB re-derives assignment, probe set and in-cell ranking;
    recall vs the exact join stays pinned in pytest."""
    import pyarrow.parquet as _pq

    a, b = _bitext_sides(sf_dir)
    out: list = []
    res = sim.knn_join_ivf(a, b, k=_XLING_K, centroids_out=out)
    cent, nprobe = out[0]
    _export_centroids(cent, "centroids_knnjoin.parquet")
    os.makedirs(_KMEANS_EXPORT_DIR, exist_ok=True)
    meta = os.path.join(_KMEANS_EXPORT_DIR, "knnjoin_nprobe.parquet")
    tmp = meta + f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    _pq.write_table(
        pa.table({"nprobe": pa.array([int(nprobe)], pa.int64())}), tmp
    )
    os.replace(tmp, meta)
    return res


SQL_CROSSLINGUAL_KNN_IVF = f"""
WITH {_BITEXT_SIDES_SQL.strip()},
cents AS (
  SELECT cluster, cvec
  FROM '/tmp/rsmetacheck_kmeans_oracle/centroids_knnjoin.parquet'
),
np_ AS (
  SELECT nprobe
  FROM '/tmp/rsmetacheck_kmeans_oracle/knnjoin_nprobe.parquet'
),
bnorm AS (
  SELECT vec_id,
    GREATEST(sqrt(list_sum(list_transform(
      embedding, x -> CAST(x AS DOUBLE) * CAST(x AS DOUBLE)))),
      1e-300) AS nrm
  FROM b
),
anorm AS (
  SELECT vec_id,
    GREATEST(sqrt(list_sum(list_transform(
      embedding, x -> CAST(x AS DOUBLE) * CAST(x AS DOUBLE)))),
      1e-300) AS nrm
  FROM a
),
bsims AS (
  SELECT e.vec_id, c.cluster,
    list_sum(list_transform(range(1, len(e.embedding) + 1),
      i -> (CAST(e.embedding[i] AS DOUBLE) / n.nrm) * c.cvec[i]))
      AS sim
  FROM b e JOIN bnorm n ON n.vec_id = e.vec_id
  CROSS JOIN cents c
),
assign AS (
  SELECT vec_id, cluster FROM bsims
  QUALIFY ROW_NUMBER() OVER (
    PARTITION BY vec_id ORDER BY sim DESC, cluster) = 1
),
asims AS (
  SELECT e.vec_id, c.cluster,
    list_sum(list_transform(range(1, len(e.embedding) + 1),
      i -> (CAST(e.embedding[i] AS DOUBLE) / n.nrm) * c.cvec[i]))
      AS sim
  FROM a e JOIN anorm n ON n.vec_id = e.vec_id
  CROSS JOIN cents c
),
probe AS (
  SELECT vec_id AS query_id, cluster FROM asims
  QUALIFY ROW_NUMBER() OVER (
    PARTITION BY vec_id ORDER BY sim DESC, cluster)
    <= (SELECT nprobe FROM np_)
),
cand AS (
  SELECT p.query_id, s.vec_id
  FROM probe p JOIN assign s ON s.cluster = p.cluster
),
scored AS (
  SELECT c.query_id, c.vec_id,
    list_cosine_similarity(
      CAST(q.embedding AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])) AS cos
  FROM cand c
  JOIN a q ON q.vec_id = c.query_id
  JOIN b e ON e.vec_id = c.vec_id
)
SELECT query_id, vec_id,
  CAST(row_number() OVER (
    PARTITION BY query_id ORDER BY cos DESC, vec_id) AS BIGINT) AS "rank"
FROM scored
QUALIFY "rank" <= {_XLING_K}
"""


def q_bitext_mine(sf_dir: str):
    """Margin-based bitext mining (functions/similarity.
    bitext_margin_pairs): English→non-English pairs that are MUTUAL
    cosine best matches AND ratio-margin separated (best ≥
    {_BITEXT_MARGIN}× second best, absolute floor {_BITEXT_MIN_COS})
    — the Artetxe & Schwenk parallel-corpus mining criterion. The
    planted translation copies sit at margin ≥ 2.0 / cos 1.0; the
    random cross-lingual background tops out at margin ≈ 1.7 /
    cos 0.48, so the decision is far from any float knife edge."""
    a, b = _bitext_sides(sf_dir)
    return sim.bitext_margin_pairs(
        a, b, min_cos=_BITEXT_MIN_COS, margin=_BITEXT_MARGIN
    )


SQL_BITEXT_MINE = f"""
WITH {_BITEXT_SIDES_SQL.strip()},
fwd AS (
  SELECT a.vec_id AS src, b.vec_id AS tgt,
    list_cosine_similarity(
      CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) AS cos,
    row_number() OVER (
      PARTITION BY a.vec_id
      ORDER BY list_cosine_similarity(
        CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) DESC,
        b.vec_id
    ) AS rnk
  FROM a CROSS JOIN b
),
f1 AS (SELECT src, tgt, cos FROM fwd WHERE rnk = 1),
f2 AS (SELECT src, cos AS cos2 FROM fwd WHERE rnk = 2),
bwd AS (
  SELECT b.vec_id AS tgt, a.vec_id AS src,
    row_number() OVER (
      PARTITION BY b.vec_id
      ORDER BY list_cosine_similarity(
        CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) DESC,
        a.vec_id
    ) AS rnk
  FROM b CROSS JOIN a
)
SELECT f1.src AS src_id, f1.tgt AS tgt_id
FROM f1
LEFT JOIN f2 ON f2.src = f1.src
JOIN (SELECT tgt, src FROM bwd WHERE rnk = 1) bb
  ON bb.tgt = f1.tgt AND bb.src = f1.src
WHERE f1.cos >= {_BITEXT_MIN_COS}
  AND (f2.cos2 IS NULL OR f1.cos >= {_BITEXT_MARGIN} * f2.cos2)
"""


SQL_HARD_NEGATIVES = """
SELECT q.vec_id AS query_id, e.vec_id AS vec_id
FROM embeddings q CROSS JOIN embeddings e
WHERE q.vec_id < 5 AND e.label <> q.label
QUALIFY row_number() OVER (
  PARTITION BY q.vec_id
  ORDER BY list_cosine_similarity(
    CAST(q.embedding AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])) DESC,
    e.vec_id
) <= 10
"""


def q_knn_ivf(sf_dir: str):
    """IVF cosine top-k. The codebook fit is engine-side (bounded
    systematic sample), but the SEARCH is deterministic given the
    centroids — so they export (the LM-parameter pattern) and DuckDB
    re-derives cell assignment, the per-query probe set and the
    in-cell top-k; recall vs exact stays pinned in pytest."""
    import pyarrow.parquet as pq

    qids, qvecs = _query_vectors(sf_dir)
    ds = rel._read_pq(os.path.join(sf_dir, "embeddings.parquet"))
    out: list = []
    res = sim.knn_ivf(ds, qvecs, qids, k=10, centroids_out=out)
    cent, nprobe = out[0]
    _export_centroids(cent, "centroids_ivf.parquet")
    os.makedirs(_KMEANS_EXPORT_DIR, exist_ok=True)
    meta = os.path.join(_KMEANS_EXPORT_DIR, "ivf_nprobe.parquet")
    tmp = meta + f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    pq.write_table(
        pa.table({"nprobe": pa.array([int(nprobe)], pa.int64())}), tmp
    )
    os.replace(tmp, meta)
    return res


SQL_KNN_IVF = """
WITH cents AS (
  SELECT cluster, cvec
  FROM '/tmp/rsmetacheck_kmeans_oracle/centroids_ivf.parquet'
),
np_ AS (
  SELECT nprobe
  FROM '/tmp/rsmetacheck_kmeans_oracle/ivf_nprobe.parquet'
),
norms AS (
  SELECT vec_id,
    GREATEST(sqrt(list_sum(list_transform(
      embedding, x -> CAST(x AS DOUBLE) * CAST(x AS DOUBLE)))),
      1e-300) AS nrm
  FROM embeddings
),
sims AS (
  SELECT e.vec_id, c.cluster,
    list_sum(list_transform(range(1, len(e.embedding) + 1),
      i -> (CAST(e.embedding[i] AS DOUBLE) / n.nrm) * c.cvec[i]))
      AS sim
  FROM embeddings e
  JOIN norms n ON n.vec_id = e.vec_id
  CROSS JOIN cents c
),
assign AS (
  SELECT vec_id, cluster FROM sims
  QUALIFY ROW_NUMBER() OVER (
    PARTITION BY vec_id ORDER BY sim DESC, cluster) = 1
),
probe AS (
  SELECT vec_id AS query_id, cluster FROM sims
  WHERE vec_id < 5
  QUALIFY ROW_NUMBER() OVER (
    PARTITION BY vec_id ORDER BY sim DESC, cluster)
    <= (SELECT nprobe FROM np_)
),
cand AS (
  SELECT p.query_id, a.vec_id
  FROM probe p JOIN assign a ON a.cluster = p.cluster
),
scored AS (
  SELECT c.query_id, c.vec_id,
    list_sum(list_transform(range(1, len(q.embedding) + 1),
      i -> (CAST(q.embedding[i] AS DOUBLE) / qn.nrm)
           * (CAST(e.embedding[i] AS DOUBLE) / en.nrm))) AS cos
  FROM cand c
  JOIN embeddings q ON q.vec_id = c.query_id
  JOIN embeddings e ON e.vec_id = c.vec_id
  JOIN norms qn ON qn.vec_id = c.query_id
  JOIN norms en ON en.vec_id = c.vec_id
)
SELECT query_id, vec_id FROM scored
QUALIFY ROW_NUMBER() OVER (
  PARTITION BY query_id ORDER BY cos DESC, vec_id) <= 10
"""


_MMR_K = 5
_MMR_POOL = 20
_MMR_LAM = 0.5


def q_mmr_select(sf_dir: str):
    """MMR-diversified retrieval (functions/similarity.mmr_select):
    per query vector, 5 greedy picks from the cosine top-20 pool, each
    maximizing λ·rel − (1−λ)·max-sim-to-selected — the redundancy-
    penalized top-k a dedup-aware retrieval layer returns. The greedy
    recurrence is finite (k=5), so the oracle unrolls it as chained
    per-pick CTEs — no rows-only escape needed."""
    qids, qvecs = _query_vectors(sf_dir)
    ds = rel._read_pq(os.path.join(sf_dir, "embeddings.parquet"))
    return sim.mmr_select(
        ds, qvecs, qids, k=_MMR_K, pool=_MMR_POOL, lam=_MMR_LAM
    )


def _sql_mmr_select() -> str:
    lam, mu = _MMR_LAM, 1.0 - _MMR_LAM
    parts = [
        f"""
R AS (
  SELECT q.vec_id AS query_id, e.vec_id,
    list_cosine_similarity(
      CAST(q.embedding AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])) AS rel
  FROM embeddings q CROSS JOIN embeddings e
  WHERE q.vec_id < 5 AND e.vec_id <> q.vec_id
  QUALIFY row_number() OVER (
    PARTITION BY q.vec_id ORDER BY rel DESC, e.vec_id) <= {_MMR_POOL}
),
P AS (
  SELECT ra.query_id, ra.vec_id AS a, rb.vec_id AS b,
    list_cosine_similarity(
      CAST(ea.embedding AS DOUBLE[]), CAST(eb.embedding AS DOUBLE[])) AS sim
  FROM R ra JOIN R rb ON rb.query_id = ra.query_id
  JOIN embeddings ea ON ea.vec_id = ra.vec_id
  JOIN embeddings eb ON eb.vec_id = rb.vec_id
),
sel1 AS (
  SELECT query_id, vec_id FROM R
  QUALIFY row_number() OVER (
    PARTITION BY query_id ORDER BY rel DESC, vec_id) = 1
)"""
    ]
    for i in range(2, _MMR_K + 1):
        prev_union = " UNION ALL ".join(
            f"SELECT query_id, vec_id FROM sel{j}" for j in range(1, i)
        )
        parts.append(
            f""",
prev{i} AS ({prev_union}),
score{i} AS (
  SELECT r.query_id, r.vec_id,
    {lam} * r.rel - {mu} * (
      SELECT MAX(p2.sim) FROM P p2
      JOIN prev{i} s ON s.query_id = r.query_id
      WHERE p2.query_id = r.query_id
        AND p2.a = r.vec_id AND p2.b = s.vec_id
    ) AS score
  FROM R r
  WHERE NOT EXISTS (
    SELECT 1 FROM prev{i} p
    WHERE p.query_id = r.query_id AND p.vec_id = r.vec_id
  )
),
sel{i} AS (
  SELECT query_id, vec_id FROM score{i}
  QUALIFY row_number() OVER (
    PARTITION BY query_id ORDER BY score DESC, vec_id) = 1
)"""
        )
    picks = "\nUNION ALL\n".join(
        f"SELECT query_id, vec_id, CAST({i} AS BIGINT) AS pick FROM sel{i}"
        for i in range(1, _MMR_K + 1)
    )
    return "WITH " + "".join(parts) + "\n" + picks


_NDCG_K = 10


def q_knn_ndcg(sf_dir: str):
    """(query_id, n_rel, dcg, idcg, ndcg): retrieval-quality
    evaluation of the cosine kNN — graded relevance = same-label as
    the query (the planted cluster structure), DCG@{_NDCG_K} =
    Σ rel_i / log2(i+1) over the retrieved ranking, IDCG = the ideal
    prefix min(k, |label|), nDCG their ratio. The eval loop every
    similarity index ships with.

    Float discipline: the per-rank weights are libm log2 of small
    integers (CPython math.log2 = DuckDB log2) and both engines
    accumulate in RANK order (the oracle's sequential window sum), so
    the doubles match bitwise. Distributed part = the kNN itself; the
    scoring walk is O(nq·k) on the driver."""
    import math

    import pyarrow.parquet as _pq

    qids, qvecs = _query_vectors(sf_dir)
    ds = rel._read_pq(os.path.join(sf_dir, "embeddings.parquet"))
    ranked: dict[int, list[int]] = {}
    for r in sim.knn_bruteforce(ds, qvecs, qids, k=_NDCG_K).take_all():
        ranked.setdefault(int(r["query_id"]), []).append(int(r["vec_id"]))
    need = sorted({v for vs in ranked.values() for v in vs} | set(qids.tolist()))
    lt = _pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "label"],
        filters=[("vec_id", "in", need)],
    )
    lmap = dict(
        zip(lt.column("vec_id").to_pylist(), lt.column("label").to_pylist())
    )
    # label sizes: bounded-domain count reduce
    from .relational import bounded_group_table_strict

    def lab_counts(b: pa.Table) -> pa.Table:
        g = b.select(["label"]).group_by("label").aggregate([([], "count_all")])
        return pa.table(
            {
                "label": g.column("label"),
                "n": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    lc = bounded_group_table_strict(
        ds.map_batches(lab_counts, batch_format="pyarrow"),
        ["label"],
        [("n", "sum")],
    )
    sizes = dict(
        zip(lc.column("label").to_pylist(), lc.column("n").to_pylist())
    )
    out = {"query_id": [], "n_rel": [], "dcg": [], "idcg": [], "ndcg": []}
    for qid in sorted(ranked):
        qlab = lmap[qid]
        dcg = 0.0
        for i, vid in enumerate(ranked[qid], start=1):
            if lmap[vid] == qlab:
                dcg += 1.0 / math.log2(i + 1.0)
        n_rel = min(_NDCG_K, int(sizes.get(qlab, 0)))
        idcg = 0.0
        for i in range(1, n_rel + 1):
            idcg += 1.0 / math.log2(i + 1.0)
        out["query_id"].append(qid)
        out["n_rel"].append(n_rel)
        out["dcg"].append(dcg)
        out["idcg"].append(idcg)
        out["ndcg"].append(dcg / idcg if idcg > 0 else 0.0)
    return pa.table(
        {
            "query_id": pa.array(out["query_id"], pa.int64()),
            "n_rel": pa.array(out["n_rel"], pa.int64()),
            "dcg": pa.array(out["dcg"], pa.float64()),
            "idcg": pa.array(out["idcg"], pa.float64()),
            "ndcg": pa.array(out["ndcg"], pa.float64()),
        }
    )


SQL_KNN_NDCG = f"""
WITH ranked AS (
  SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
    row_number() OVER (
      PARTITION BY q.vec_id
      ORDER BY list_cosine_similarity(
        CAST(q.embedding AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])) DESC,
        e.vec_id
    ) AS rnk
  FROM embeddings q CROSS JOIN embeddings e
  WHERE q.vec_id < 5
  QUALIFY rnk <= {_NDCG_K}
),
qlab AS (SELECT vec_id, label FROM embeddings WHERE vec_id < 5),
rels AS (
  SELECT r.query_id, r.rnk,
    CASE WHEN e.label = q.label THEN 1 ELSE 0 END AS rel
  FROM ranked r
  JOIN embeddings e ON e.vec_id = r.vec_id
  JOIN qlab q ON q.vec_id = r.query_id
),
dcg AS (
  SELECT query_id, MAX(c) AS dcg FROM (
    SELECT query_id,
      SUM(rel / log2(rnk + 1.0)) OVER (
        PARTITION BY query_id ORDER BY rnk) AS c
    FROM rels
  ) GROUP BY query_id
),
nrel AS (
  SELECT q.vec_id AS query_id,
    LEAST({_NDCG_K}, COUNT(*)) AS n_rel
  FROM qlab q JOIN embeddings e ON e.label = q.label
  GROUP BY q.vec_id
),
idcg AS (
  SELECT query_id, MAX(c) AS idcg FROM (
    SELECT n.query_id,
      SUM(1.0 / log2(t.i + 1.0)) OVER (
        PARTITION BY n.query_id ORDER BY t.i) AS c
    FROM nrel n, unnest(generate_series(1, n.n_rel)) AS t(i)
  ) GROUP BY query_id
)
SELECT d.query_id, CAST(n.n_rel AS BIGINT) AS n_rel, d.dcg, i.idcg,
  CASE WHEN i.idcg > 0 THEN d.dcg / i.idcg ELSE 0.0 END AS ndcg
FROM dcg d
JOIN nrel n ON n.query_id = d.query_id
JOIN idcg i ON i.query_id = d.query_id
"""


def q_knn_quantized(sf_dir: str):
    """Cosine top-k over the INT8-quantized corpus representation
    (functions/quantize.py): symmetric per-vector scalar quantization
    (4× smaller than float32, 8× than this float64 testdata), search
    as one integer matmul per batch over the stored int8 rows —
    scales cancel in cosine, so there is no dequantization. Every step
    is exact or order-free (half-up rounding, integer dots, integer
    sums of squares < 2⁵³), so the DuckDB oracle re-derives the whole
    search; recall@10 ≥ 0.9 vs the exact float kNN stays pinned in
    pytest."""
    from ..functions.quantize import knn_quantized, quantize_embeddings

    qids, qvecs = _query_vectors(sf_dir)
    qds = quantize_embeddings(
        rel._read_pq(os.path.join(sf_dir, "embeddings.parquet"))
    )
    return knn_quantized(qds, qvecs, qids, k=10)


SQL_KNN_QUANTIZED = """
WITH scales AS (
  SELECT vec_id,
    list_max(list_transform(embedding, x -> abs(CAST(x AS DOUBLE))))
      AS m
  FROM embeddings
),
qz AS (
  SELECT e.vec_id,
    list_transform(range(1, len(e.embedding) + 1),
      i -> CAST(LEAST(GREATEST(
        FLOOR(CAST(e.embedding[i] AS DOUBLE)
              / (CASE WHEN s.m > 0 THEN s.m / 127.0 ELSE 1.0 END)
              + 0.5), -127.0), 127.0) AS BIGINT)) AS qv
  FROM embeddings e JOIN scales s ON s.vec_id = e.vec_id
),
norms AS (
  SELECT vec_id,
    GREATEST(sqrt(CAST(list_sum(list_transform(qv, x -> x * x))
                       AS DOUBLE)), 1e-300) AS nrm
  FROM qz
),
pairs AS (
  SELECT q.vec_id AS query_id, e.vec_id,
    CAST(list_sum(list_transform(range(1, len(q.qv) + 1),
      i -> q.qv[i] * e.qv[i])) AS DOUBLE)
      / (qn.nrm * en.nrm) AS cos
  FROM qz q
  JOIN norms qn ON qn.vec_id = q.vec_id
  CROSS JOIN qz e
  JOIN norms en ON en.vec_id = e.vec_id
  WHERE q.vec_id < 5
)
SELECT query_id, vec_id FROM pairs
QUALIFY row_number() OVER (
  PARTITION BY query_id ORDER BY cos DESC, vec_id) <= 10
"""


# --- k-means / SemDeDup oracles: centroid export + DuckDB re-assign -------
# The Lloyd ITERATIONS are inherently engine-side (iterative), but the
# fitted centroids are tiny parameters — the gate_decisions LM pattern:
# export them and let DuckDB independently re-derive every assignment
# and cosine from raw embeddings. kmeans_assign's float math is
# sequential folds precisely so the SQL ``list_sum`` left fold
# reproduces each cos bit-for-bit.

_KMEANS_EXPORT_DIR = "/tmp/rsmetacheck_kmeans_oracle"


def _export_centroids(cent, fname: str) -> None:
    import numpy as np
    import pyarrow.parquet as pq

    os.makedirs(_KMEANS_EXPORT_DIR, exist_ok=True)
    out = os.path.join(_KMEANS_EXPORT_DIR, fname)
    tmp = out + f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    pq.write_table(
        pa.table(
            {
                "cluster": pa.array(
                    np.arange(len(cent), dtype=np.int64), pa.int64()
                ),
                "cvec": pa.array(
                    [list(map(float, row)) for row in cent],
                    pa.list_(pa.float64()),
                ),
            }
        ),
        tmp,
    )
    os.replace(tmp, out)


def _sql_assign_ctes(cent_file: str) -> str:
    """CTE block computing (vec_id, cluster, cos) over a ``corpus``
    CTE of (vec_id, embedding) rows — the mirrored sequential math."""
    return f"""
norms AS (
  SELECT vec_id,
    greatest(sqrt(list_sum(list_transform(
      embedding, x -> CAST(x AS DOUBLE) * CAST(x AS DOUBLE)))),
      1e-300) AS nrm
  FROM corpus
),
coss AS (
  SELECT e.vec_id, c.cluster,
    list_sum(list_transform(range(1, len(e.embedding) + 1),
      i -> (CAST(e.embedding[i] AS DOUBLE) / n.nrm) * c.cvec[i])) AS cos
  FROM corpus e
  JOIN norms n ON n.vec_id = e.vec_id
  CROSS JOIN '{_KMEANS_EXPORT_DIR}/{cent_file}' c
),
assigned AS (
  SELECT vec_id, cluster, cos FROM coss
  QUALIFY ROW_NUMBER() OVER (
    PARTITION BY vec_id ORDER BY cos DESC, cluster) = 1
)"""


def q_kmeans_clusters(sf_dir: str):
    """Distributed Lloyd's k-means over the embeddings table
    (functions/clustering.py): per-batch partial-sum reduce per
    iteration, centroids broadcast via ray.put, then one assignment
    pass → (vec_id, cluster, cos). The fitted centroids are exported
    so the DuckDB oracle independently recomputes every assignment and
    cosine; single-process numpy-Lloyd parity is additionally pinned
    in pytest."""
    from ..functions.clustering import kmeans_assign, kmeans_fit

    ds = rel._read_pq(os.path.join(sf_dir, "embeddings.parquet"))
    cent = kmeans_fit(ds, k=8, n_iters=8)
    _export_centroids(cent, "centroids.parquet")
    return kmeans_assign(ds, cent)


SQL_KMEANS_CLUSTERS = f"""
WITH corpus AS (SELECT vec_id, embedding FROM embeddings),
{_sql_assign_ctes("centroids.parquet").strip()}
SELECT vec_id, cluster, cos FROM assigned
"""


def q_kmeans_margin(sf_dir: str):
    """(vec_id, cluster, margin): per-vector cluster-separation margin
    — cos to the assigned centroid minus cos to the nearest OTHER
    centroid (the simplified-silhouette signal; ≈0 = boundary point,
    SemDeDup's blind spot). Same exported-centroid oracle pattern as
    kmeans_clusters; the sequential cumsum ≙ list_sum float discipline
    makes both cosines — and their difference — bit-identical."""
    from ..functions.clustering import kmeans_fit, kmeans_margin

    ds = rel._read_pq(os.path.join(sf_dir, "embeddings.parquet"))
    cent = kmeans_fit(ds, k=8, n_iters=8)
    _export_centroids(cent, "centroids_margin.parquet")
    return kmeans_margin(ds, cent)


SQL_KMEANS_MARGIN = f"""
WITH corpus AS (SELECT vec_id, embedding FROM embeddings),
{_sql_assign_ctes("centroids_margin.parquet").strip()},
second AS (
  SELECT c1.vec_id, MAX(c1.cos) AS b
  FROM coss c1 JOIN assigned a
    ON a.vec_id = c1.vec_id AND c1.cluster <> a.cluster
  GROUP BY c1.vec_id
)
SELECT a.vec_id, a.cluster, a.cos - s.b AS margin
FROM assigned a JOIN second s ON s.vec_id = a.vec_id
"""


def q_dedup_semantic(sf_dir: str):
    """SemDeDup semantic near-dedup: k-means cluster the corpus, then
    within each cluster keep only the min-id member of every
    cos>threshold connected component (functions/clustering.py).
    Driver embeddings are near-orthogonal random vectors, so planted
    duplicate rows (scaled copies of existing vectors, new ids) give
    the operator real work; survivors/planted behavior pinned in
    pytest."""
    import numpy as np

    from ..functions import clustering as cl

    ds = rel._read_pq(os.path.join(sf_dir, "embeddings.parquet"))

    def copies(b: pa.Table) -> pa.Table:
        ids = b.column("vec_id").to_numpy(zero_copy_only=False)
        keep = ids % 10 == 0  # every 10th vector gets a near-dup twin
        sub = b.filter(pa.array(keep))
        sids = sub.column("vec_id").to_numpy(zero_copy_only=False)
        emb = [
            [v * 1.0001 for v in e]
            for e in sub.column("embedding").to_pylist()
        ]
        # twin ids live in their own high range (real vec_ids would
        # collide with a small additive offset once the table passes
        # that many rows); 2^62 leaves int64 headroom for any real id
        return pa.table(
            {
                "vec_id": pa.array(sids + (1 << 62), pa.int64()),
                "embedding": pa.array(emb, b.column("embedding").type),
                "label": sub.column("label"),
            }
        )

    corpus = ds.union(ds.map_batches(copies, batch_format="pyarrow"))
    cent = cl.kmeans_fit(corpus, k=8, n_iters=10)
    _export_centroids(cent, "centroids_sem.parquet")
    return cl.semantic_dedup(
        corpus, k=8, threshold=0.999, centroids=cent
    )


SQL_DEDUP_SEMANTIC = f"""
WITH RECURSIVE corpus AS (
  SELECT vec_id, embedding FROM embeddings
  UNION ALL
  SELECT vec_id + 4611686018427387904 AS vec_id,
    list_transform(embedding, v -> CAST(CAST(v AS DOUBLE) * 1.0001
                                        AS FLOAT)) AS embedding
  FROM embeddings WHERE vec_id % 10 = 0
),
{_sql_assign_ctes("centroids_sem.parquet").strip()},
units AS (
  SELECT e.vec_id, a.cluster,
    list_transform(e.embedding,
      x -> CAST(x AS DOUBLE) / n.nrm) AS u
  FROM corpus e
  JOIN norms n ON n.vec_id = e.vec_id
  JOIN assigned a ON a.vec_id = e.vec_id
),
edges AS (
  SELECT x.vec_id AS a, y.vec_id AS b
  FROM units x JOIN units y
    ON x.cluster = y.cluster AND x.vec_id < y.vec_id
  WHERE list_sum(list_transform(range(1, len(x.u) + 1),
          i -> x.u[i] * y.u[i])) > 0.999
),
sym AS (
  SELECT a, b FROM edges UNION ALL SELECT b AS a, a AS b FROM edges
),
reach AS (
  SELECT a AS id, b AS r FROM sym
  UNION
  SELECT c.id, s.b AS r FROM reach c JOIN sym s ON s.a = c.r
),
roots AS (
  SELECT id, LEAST(id, MIN(r)) AS root FROM reach GROUP BY id
)
SELECT u.vec_id, u.cluster,
  COALESCE(u.vec_id = rt.root, TRUE) AS keep
FROM units u LEFT JOIN roots rt ON rt.id = u.vec_id
"""


def _sql_curate_semantic() -> str:
    """keep ∧ SemDeDup-survivor, fully re-derived: the gate half
    reuses the flags + LM-bpc CTEs (gate_decisions' differential), the
    SemDeDup half the centroid-export assignment + recursive-CTE
    components over the SAME templated corpus rewrite."""
    return f"""
WITH RECURSIVE {_sql_gate_flags_ctes().strip()},
{_sql_bpc_ctes().strip()},
keepids AS (
  SELECT f.doc_id
  FROM flags f JOIN bpc p USING (doc_id)
  WHERE {_sql_keep_expr()}
),
corpus AS (
  SELECT vec_id,
    CASE WHEN vec_id % 10 = 5 THEN
      list_transform(range(1, len(embedding) + 1),
        i -> CASE WHEN i = 1 THEN CAST(1.0 AS FLOAT)
                  WHEN i = 2 THEN CAST(CAST(0.0001 AS DOUBLE)
                                       * (vec_id % 97) AS FLOAT)
                  ELSE CAST(0.0 AS FLOAT) END)
    ELSE embedding END AS embedding
  FROM embeddings
),
{_sql_assign_ctes("centroids_cur.parquet").strip()},
units AS (
  SELECT e.vec_id, a.cluster,
    list_transform(e.embedding,
      x -> CAST(x AS DOUBLE) / n.nrm) AS u
  FROM corpus e
  JOIN norms n ON n.vec_id = e.vec_id
  JOIN assigned a ON a.vec_id = e.vec_id
),
cedges AS (
  SELECT x.vec_id AS a, y.vec_id AS b
  FROM units x JOIN units y
    ON x.cluster = y.cluster AND x.vec_id < y.vec_id
  WHERE list_sum(list_transform(range(1, len(x.u) + 1),
          i -> x.u[i] * y.u[i])) > 0.999
),
csym AS (
  SELECT a, b FROM cedges UNION ALL SELECT b AS a, a AS b FROM cedges
),
creach AS (
  SELECT a AS id, b AS r FROM csym
  UNION
  SELECT c.id, s.b AS r FROM creach c JOIN csym s ON s.a = c.r
),
croots AS (
  SELECT id, LEAST(id, MIN(r)) AS root FROM creach GROUP BY id
),
dropped AS (
  SELECT rt.id AS vec_id FROM croots rt WHERE rt.id <> rt.root
)
SELECT k.doc_id FROM keepids k
WHERE NOT EXISTS (SELECT 1 FROM dropped d WHERE d.vec_id = k.doc_id)
"""


def q_doc_sentences(sf_dir: str):
    """Sentence flat-map over the pages corpus
    (functions/sentences.py): one row per non-empty trimmed sentence
    with its 0-based per-doc index — fully vectorized (one RE2 split
    kernel + list_parent_indices segment arithmetic)."""
    from ..functions.sentences import split_sentences

    pages = _pages_input(sf_dir).map_batches(
        synthesize_pages, batch_format="pyarrow"
    )
    return split_sentences(pages.select_columns(["doc_id", "text"]))


def _sql_doc_sentences() -> str:
    from ..functions.sentences import sql_sentences

    return sql_sentences("pages", prefix_ctes="pages AS ({pages}), ")


def q_lang_source_rollup(sf_dir: str):
    """GROUP BY ROLLUP over (lang, source): counts at the fine level,
    the per-lang level, and the grand total, marker ``(all)`` for the
    rolled-up dimensions. The heavy pass is ONE partial-combined
    groupby of per-batch (lang, source) tallies; the coarser levels
    re-aggregate that already-tiny result, so the extra shuffles move
    KBs."""
    from .relational import bounded_group_table_strict

    ds = _documents(sf_dir, ["lang", "source"])

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"lang": b.column("lang"), "source": b.column("source")})
        g = t.group_by(["lang", "source"]).aggregate([([], "count_all")])
        return g.rename_columns(["lang", "source", "n"])

    fine = bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["lang", "source"],
        [("n", "sum")],
    )
    if fine is None:
        return rd.from_arrow(
            pa.table(
                {
                    "lang": pa.array([], pa.string()),
                    "source": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        )
    n = fine.column("n")
    lang_lvl = fine.group_by("lang").aggregate([("n", "sum")])
    out = pa.concat_tables(
        [
            fine,
            pa.table(
                {
                    "lang": lang_lvl.column("lang"),
                    "source": pa.repeat(pa.scalar("(all)"), lang_lvl.num_rows),
                    "n": lang_lvl.column("n_sum"),
                }
            ),
            pa.table(
                {
                    "lang": pa.array(["(all)"], pa.string()),
                    "source": pa.array(["(all)"], pa.string()),
                    "n": pa.array([pc.sum(n).as_py()], pa.int64()),
                }
            ),
        ]
    )
    return rd.from_arrow(out)


SQL_LANG_SOURCE_ROLLUP = """
SELECT COALESCE(lang, '(all)') AS lang,
       COALESCE(source, '(all)') AS source,
       CAST(COUNT(*) AS BIGINT) AS n
FROM documents GROUP BY ROLLUP(lang, source)
"""


def q_length_outliers(sf_dir: str):
    """Docs longer than the exact p99 of n_chars — the compute-stat-
    then-filter shape (winsorization / outlier drop before training).
    Pass 1 builds the bounded-domain (value, count) histogram with
    per-batch partial combine (the events_value_percentiles
    discipline) and the driver walks the tiny CDF for the exact
    quantile_disc threshold; pass 2 filters with that broadcast
    scalar. No full-table shuffle in either pass."""
    import math

    from .relational import bounded_group_table_strict

    ds = _documents(sf_dir, ["doc_id", "n_chars"])

    def hist_partial(b: pa.Table) -> pa.Table:
        t = pa.table({"n_chars": b.column("n_chars")})
        g = t.group_by("n_chars").aggregate([([], "count_all")])
        return g.rename_columns(["n_chars", "n"])

    hist_tbl = bounded_group_table_strict(
        ds.map_batches(hist_partial, batch_format="pyarrow"),
        ["n_chars"],
        [("n", "sum")],
    )
    if hist_tbl is None:  # empty corpus: no outliers
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_chars": pa.array([], pa.int64()),
                }
            )
        )
    vals = hist_tbl.column("n_chars").to_numpy(zero_copy_only=False)
    cnts = hist_tbl.column("n").to_numpy(zero_copy_only=False)
    order = np.argsort(vals)
    vals, cnts = vals[order], cnts[order]
    cum = np.cumsum(cnts)
    n = int(cum[-1])
    idx = max(math.ceil(0.99 * n) - 1, 0)  # quantile_disc semantics
    thr = int(vals[np.searchsorted(cum, idx, side="right")])

    def keep_outliers(b: pa.Table) -> pa.Table:
        m = pc.greater(b.column("n_chars"), thr)
        return b.filter(m)

    return ds.map_batches(keep_outliers, batch_format="pyarrow")


SQL_LENGTH_OUTLIERS = """
SELECT doc_id, n_chars FROM documents
WHERE n_chars > (SELECT quantile_disc(n_chars, 0.99) FROM documents)
"""


# --- PCA oracle: DuckDB re-derives every projected float -------------------
# The eigendecomposition stays engine-side (the knn_ivf codebook
# pattern: a bounded (d,d) driver solve); the fitted (mean,
# components) are exported and DuckDB independently recomputes every
# (vec, component) projection. Bit-exactness holds because the
# engine's per-component dot is a SEQUENTIAL cumsum fold over
# dimensions (pca.pca_project), which is the same left fold as
# DuckDB's list_sum — the clustering.py pattern. Output is long form
# (vec_id, c, pcval): scalar columns hash cleanly on both sides.

_PCA_ORACLE_DIR = "/tmp/rsmetacheck_pca_oracle"


def _export_pca_params(mean, comps) -> None:
    import pyarrow.parquet as pq

    os.makedirs(_PCA_ORACLE_DIR, exist_ok=True)
    for fname, table in (
        (
            "mean.parquet",
            pa.table({"mvec": pa.array([list(mean)], pa.list_(pa.float64()))}),
        ),
        (
            "comps.parquet",
            pa.table(
                {
                    "c": pa.array(range(len(comps)), pa.int64()),
                    "cvec": pa.array(
                        [list(row) for row in comps], pa.list_(pa.float64())
                    ),
                }
            ),
        ),
    ):
        out = os.path.join(_PCA_ORACLE_DIR, fname)
        tmp = out + f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
        pq.write_table(table, tmp)
        os.replace(tmp, out)


SQL_PCA_EMBEDDINGS = f"""
SELECT e.vec_id, cp.c,
  list_sum(list_transform(range(1, len(e.embedding) + 1),
    i -> (CAST(e.embedding[i] AS DOUBLE) - m.mvec[i]) * cp.cvec[i]))
  AS pcval
FROM embeddings e
CROSS JOIN '{_PCA_ORACLE_DIR}/comps.parquet' cp
CROSS JOIN '{_PCA_ORACLE_DIR}/mean.parquet' m
"""


def q_pca_embeddings(sf_dir: str):
    """Distributed PCA (functions/pca.py): one moments pass (tiny
    (d, d) Gram partial per batch, driver eigendecomposition) + one
    broadcast projection pass, flattened to (vec_id, c, pcval) long
    form. The fit is exported (knn_ivf codebook pattern) and the
    projections are hash-checked float-for-float against DuckDB's
    list_sum fold; eigensolver parity with numpy stays in pytest."""
    from ..functions.pca import pca_fit, pca_project

    ds = rel._read_pq(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    mean, comps, _ = pca_fit(ds, n_components=8)
    _export_pca_params(mean, comps)

    def long_form(b: pa.Table) -> pa.Table:
        ids = b.column("vec_id").to_numpy(zero_copy_only=False)
        pcs = b.column("pc").combine_chunks()
        offs = pcs.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.diff(offs)
        flat = pcs.flatten().to_numpy(zero_copy_only=False)
        cidx = np.arange(offs[-1], dtype=np.int64) - np.repeat(
            offs[:-1], counts
        )
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(ids, counts), pa.int64()),
                "c": pa.array(cidx, pa.int64()),
                "pcval": pa.array(flat, pa.float64()),
            }
        )

    return pca_project(ds, mean, comps).map_batches(
        long_form, batch_format="pyarrow"
    )


def q_host_stats(sf_dir: str):
    """Per-host page counts via the two-phase SALTED aggregate
    (stages/skew.py) — the oversized-host skew path of the north rule."""
    from ..stages.skew import salted_host_counts

    pages = _pages_input(sf_dir).map_batches(synthesize_pages, batch_format="pyarrow")
    return salted_host_counts(pages)


def _skew_host_re() -> str:
    from ..stages.skew import HOST_RE

    return HOST_RE


def q_host_lorenz(sf_dir: str):
    """(decile, n_hosts_cum, n_docs_cum, doc_share): the Lorenz curve
    of crawl concentration — hosts ranked ascending by page count
    (ties broken by host name, identically in the oracle), with the
    cumulative document share at each host-count decile. A curve
    hugging zero until the last decile means a handful of mega-hosts
    own the crawl — the skew the salted aggregate exists for, as ten
    numbers.

    Plan: composes the two-phase SALTED host aggregate (stages/
    skew.py), then reduces it to a COUNT-OF-COUNTS histogram
    (pages-per-host → n_hosts) before anything reaches the driver.
    The host domain is NOT bounded at web scale (~10⁸ hosts), but the
    histogram's domain — distinct page-count VALUES — is (≤ max
    pages on one host, thousands in practice), and the oracle's
    (n_pages, host) tie-break never changes a cumulative DOC count:
    hosts tied at count c each contribute exactly c, so
    cum(k) = Σ_{c<c*} c·m_c + (k − Σ_{c<c*} m_c)·c* regardless of
    which tied hosts rank ≤ k. Only KB-scale (count, m) rows shuffle;
    the decile walk is O(|distinct counts|); every share is a single
    division of exact int64 sums."""
    from ..stages.skew import salted_host_counts
    from .relational import bounded_group_table_strict

    pages = _pages_input(sf_dir).map_batches(
        synthesize_pages, batch_format="pyarrow"
    )

    def count_of_counts(b: pa.Table) -> pa.Table:
        g = b.group_by("n_pages").aggregate([([], "count_all")])
        return pa.table(
            {
                "c": pc.cast(g.column("n_pages"), pa.int64()),
                "m": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    hist = bounded_group_table_strict(
        salted_host_counts(pages).map_batches(
            count_of_counts, batch_format="pyarrow"
        ),
        ["c"],
        [("m", "sum")],
    )
    empty = pa.table(
        {
            "decile": pa.array([], pa.int64()),
            "n_hosts_cum": pa.array([], pa.int64()),
            "n_docs_cum": pa.array([], pa.int64()),
            "doc_share": pa.array([], pa.float64()),
        }
    )
    if hist is None or hist.num_rows == 0:
        return empty
    cs = hist.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
    ms = hist.column("m").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(cs)
    cs, ms = cs[order], ms[order]
    hosts_cum = np.cumsum(ms)  # hosts with count ≤ cs[i]
    docs_cum = np.cumsum(cs * ms)  # docs owned by those hosts
    n_hosts = int(hosts_cum[-1])
    total = int(docs_cum[-1])
    out_d, out_h, out_c, out_s = [], [], [], []
    for q in range(1, 11):
        k = (q * n_hosts + 9) // 10  # ceil(q·H/10), ≥1 when H ≥ 1
        i = int(np.searchsorted(hosts_cum, k))  # bucket holding rank k
        below_h = int(hosts_cum[i - 1]) if i else 0
        below_d = int(docs_cum[i - 1]) if i else 0
        cum_k = below_d + (k - below_h) * int(cs[i])
        out_d.append(q)
        out_h.append(k)
        out_c.append(cum_k)
        out_s.append(float(cum_k) / float(total))
    return pa.table(
        {
            "decile": pa.array(out_d, pa.int64()),
            "n_hosts_cum": pa.array(out_h, pa.int64()),
            "n_docs_cum": pa.array(out_c, pa.int64()),
            "doc_share": pa.array(out_s, pa.float64()),
        }
    )


HOST_LORENZ_SQL_TEMPLATE = """
WITH hc AS MATERIALIZED (
  WITH pages AS ({pages})
  SELECT regexp_extract(url, '{host_re}', 1) AS host,
         CAST(COUNT(*) AS BIGINT) AS n_pages
  FROM pages GROUP BY 1
), o AS (
  SELECT host, n_pages,
    ROW_NUMBER() OVER (ORDER BY n_pages, host) AS rk,
    SUM(n_pages) OVER (
      ORDER BY n_pages, host ROWS UNBOUNDED PRECEDING) AS cum
  FROM hc
), g AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS nh,
         CAST(SUM(n_pages) AS BIGINT) AS nd
  FROM hc
), d AS (SELECT unnest(generate_series(1, 10)) AS decile)
SELECT CAST(d.decile AS BIGINT) AS decile,
  CAST((d.decile * g.nh + 9) // 10 AS BIGINT) AS n_hosts_cum,
  CAST(o.cum AS BIGINT) AS n_docs_cum,
  CAST(o.cum AS DOUBLE) / CAST(g.nd AS DOUBLE) AS doc_share
FROM d CROSS JOIN g
JOIN o ON o.rk = (d.decile * g.nh + 9) // 10
ORDER BY decile
"""


def q_multimodal_meta(sf_dir: str):
    ds = _documents(sf_dir, ["doc_id", "text"])
    with_payload = ds.map_batches(mm.attach_payload, batch_format="pyarrow")
    decoded = with_payload.map_batches(
        mm.ImageDecodeStub, batch_format="pyarrow", concurrency=(1, 2)
    )
    return decoded.select_columns(
        ["doc_id", "payload_bytes", "width", "height", "format"]
    )


def q_multimodal_resize(sf_dir: str):
    ds = _documents(sf_dir, ["doc_id", "text"])
    decoded = ds.map_batches(mm.attach_payload, batch_format="pyarrow").map_batches(
        mm.ImageDecodeStub, batch_format="pyarrow", concurrency=(1, 2)
    )
    resized = decoded.map_batches(
        mm.ResizeStub, batch_format="pyarrow", concurrency=(1, 2)
    )
    return resized.select_columns(["doc_id", "width", "height", "resized_w", "resized_h"])


SQL_MULTIMODAL_RESIZE = """
WITH dims AS (
  SELECT doc_id,
    CAST(strlen(text) % 640 + 16 AS BIGINT) AS width,
    CAST(strlen(text) % 480 + 16 AS BIGINT) AS height
  FROM documents
)
SELECT doc_id, width, height,
  CASE WHEN greatest(width, height) > 224
       THEN width * 224 // greatest(width, height) ELSE width END AS resized_w,
  CASE WHEN greatest(width, height) > 224
       THEN height * 224 // greatest(width, height) ELSE height END AS resized_h
FROM dims
"""


def q_multimodal_features(sf_dir: str):
    """Decode-stub features flow straight into the knn operator — the
    end-to-end multimodal retrieval plumbing (extract → embed → search)
    with everything but the codec real."""
    ds = _documents(sf_dir, ["doc_id", "text"])
    feats = ds.map_batches(mm.attach_payload, batch_format="pyarrow").map_batches(
        mm.FeatureExtractStub, batch_format="pyarrow", concurrency=(1, 2)
    )

    def flatten(b: pa.Table) -> pa.Table:
        emb = b.column("embedding")
        f0 = pc.list_element(emb, 0)
        f7 = pc.list_element(emb, 7)
        return pa.table(
            {"doc_id": b.column("doc_id"), "f0": f0, "f7": f7}
        )

    return feats.map_batches(flatten, batch_format="pyarrow")


SQL_MULTIMODAL_FEATURES = """
SELECT doc_id,
  CAST((strlen(text) * 1) % 997 AS DOUBLE) / 997.0 AS f0,
  CAST((strlen(text) * 8) % 997 AS DOUBLE) / 997.0 AS f7
FROM documents
"""


def q_multimodal_ppm_decode(sf_dir: str):
    """REAL codec path: P6 PPM payloads genuinely decoded to pixels
    (no external libs needed); per-channel means come from the actual
    pixel data, so this is a true decode stage, not stub arithmetic.
    Full SQL oracle: the deterministic splitmix64 pixel stream is
    re-derived in DuckDB (_sql_mm_image_stats) and the channel means
    are bit-exact integer-sum divisions; the encode→decode byte
    framing stays pinned by the roundtrip pytest."""
    ds = _documents(sf_dir, ["doc_id", "text"])
    decoded = ds.map_batches(mm.attach_ppm_payload, batch_format="pyarrow").map_batches(
        mm.PPMDecode, batch_format="pyarrow", concurrency=(1, 4), batch_size=256
    )
    return decoded.select_columns(
        ["doc_id", "width", "height", "mean_r", "mean_g", "mean_b"]
    )


def q_multimodal_mixed_resize(sf_dir: str):
    """Cross-codec TRANSCODE: dispatch-decode (PPM|BMP|farbfeld),
    real-pixel nearest-neighbor resize, re-encode in the original
    format — the payload stays a valid file of its own format end to
    end (stages/multimodal.MixedResize). Full SQL oracle (integer box
    fit); the resize-then-roundtrip pixel equality per format is
    pinned by pytest."""
    ds = _documents(sf_dir, ["doc_id", "text"])
    resized = ds.map_batches(
        mm.attach_mixed_payload, batch_format="pyarrow"
    ).map_batches(
        mm.MixedResize, batch_format="pyarrow", concurrency=(1, 4),
        batch_size=256,
    )
    return resized.select_columns(
        ["doc_id", "format", "width", "height", "resized_w", "resized_h"]
    )


def q_multimodal_wav_features(sf_dir: str):
    """REAL audio tier: from-scratch WAV/PCM16 decode (RIFF chunk walk,
    stereo downmix) → vectorized clip features (duration, RMS, ZCR,
    peak) in an actor pool — the audio analog of the image tiers.
    Full SQL oracle: the splitmix64 sample stream and all four
    features are re-derived in DuckDB with exact-dyadic float
    reasoning (_sql_mm_wav_features); roundtrip bit-exactness stays
    pinned in pytest."""
    ds = _documents(sf_dir, ["doc_id", "text"])
    return ds.map_batches(
        mm.attach_wav_payload, batch_format="pyarrow"
    ).map_batches(
        mm.WavFeatures, batch_format="pyarrow", concurrency=(1, 4),
        batch_size=256,
    )


def q_multimodal_wav_resample(sf_dir: str):
    """Audio transcode: decode → nearest-neighbor resample to 8 kHz →
    re-encode WAV (payload stays a valid file; clips already at 8 kHz
    pass through bit-exact). Full SQL oracle (integer sample-count
    arithmetic); the WAV byte framing stays pinned in pytest."""
    ds = _documents(sf_dir, ["doc_id", "text"])
    resampled = ds.map_batches(
        mm.attach_wav_payload, batch_format="pyarrow"
    ).map_batches(
        mm.WavResample, batch_format="pyarrow", concurrency=(1, 4),
        batch_size=256,
    )
    return resampled.select_columns(["doc_id", "orig_rate", "n_samples"])


def q_multimodal_mixed_decode(sf_dir: str):
    """Format-DISPATCH decode: the same deterministic pixels encoded as
    PPM (even doc_ids) or BMP (odd), routed by magic bytes in ONE
    actor-pool stage — two genuinely different raster layouts
    (top-down unpadded RGB vs bottom-up 4-byte-padded BGR). Full SQL
    oracle (shared with ppm_decode + the doc_id%3 format column);
    the per-format roundtrips and the cross-codec pixel equality are
    pinned by pytest (tests/test_multimodal.py)."""
    ds = _documents(sf_dir, ["doc_id", "text"])
    decoded = ds.map_batches(
        mm.attach_mixed_payload, batch_format="pyarrow"
    ).map_batches(
        mm.ImageDecode, batch_format="pyarrow", concurrency=(1, 4), batch_size=256
    )
    return decoded.select_columns(
        ["doc_id", "format", "width", "height", "mean_r", "mean_g", "mean_b"]
    )


def _mm_knn(sf_dir: str, attach_fn, dispatch: bool):
    """Shared pixel-retrieval pipeline (decode → resize → 15-dim
    features → cosine top-k vs the first 3 images), parameterized on
    the payload synthesizer and the magic-byte dispatch flag. The
    decode→resize→feature chain runs as ONE fused actor-pool stage
    (mm.ImageFeaturePipeline) so the fat raster buffers never cross a
    stage boundary — only 15-float embeddings leave the pool; the
    fused stage is pinned bitwise identical to the chained
    PPMDecode→PPMResize→PPMFeatures stages by pytest."""
    ds = _documents(sf_dir, ["doc_id", "text"])
    feats = (
        ds.map_batches(attach_fn, batch_format="pyarrow")
        .map_batches(
            mm.ImageFeaturePipeline,
            fn_constructor_kwargs={"dispatch": dispatch},
            batch_format="pyarrow",
            concurrency=(1, 4),
            batch_size=256,
        )
        .select_columns(["doc_id", "embedding"])
    )
    import pyarrow.parquet as pq

    # stream only the FIRST batch off disk (never the whole table)
    pf = pq.ParquetFile(os.path.join(sf_dir, "documents.parquet"))
    try:
        head = pa.Table.from_batches(
            [next(pf.iter_batches(batch_size=3, columns=["doc_id", "text"]))]
        )
    except StopIteration:
        head = pa.table(
            {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
        )
    n_q = min(3, head.num_rows)  # corpora smaller than 3 docs still work
    head = head.slice(0, n_q)
    qids = np.array(head.column("doc_id").to_pylist(), dtype=np.int64)
    fused = mm.ImageFeaturePipeline(dispatch=dispatch)
    qvecs = np.stack(
        [
            np.array(
                fused(  # same fused feature fn on the query images
                    attach_fn(head.slice(i, 1))
                ).column("embedding")[0].as_py()
            )
            for i in range(n_q)
        ]
    )
    return sim.knn_bruteforce(feats, qvecs, qids, k=5, id_col="doc_id")


def q_multimodal_ppm_knn(sf_dir: str):
    """End-to-end real-pixel retrieval: decode → resize → 15-dim pixel
    features → cosine top-k against the first 3 images' features."""
    return _mm_knn(sf_dir, mm.attach_ppm_payload, dispatch=False)


def q_multimodal_mixed_knn(sf_dir: str):
    """Cross-FORMAT retrieval: the mixed PPM/BMP/farbfeld corpus
    through dispatch decode → resize → pixel features → cosine top-k.
    Because the three codecs carry the SAME deterministic pixels,
    results are format-invariant — identical to the PPM-only pipeline
    (pinned by pytest cross-codec feature equality)."""
    return _mm_knn(sf_dir, mm.attach_mixed_payload, dispatch=True)


def q_multimodal_ppm_frames(sf_dir: str):
    """REAL video-container walk: concatenated P6 frames parsed from
    the self-describing headers, every 2nd frame decoded and emitted
    as its own row (the flat_map shape of frame sampling)."""
    ds = _documents(sf_dir, ["doc_id", "text"])
    return ds.map_batches(mm.attach_ppm_video, batch_format="pyarrow").map_batches(
        mm.PPMFrameSample, batch_format="pyarrow", concurrency=(1, 4), batch_size=128
    )


def q_doc_bpe_tokens(sf_dir: str):
    from ..functions.tokenize import BPE_TOKEN_RE, count_bpe_tokens, count_ws_tokens

    ds = _documents(sf_dir, ["doc_id", "text"])

    def stage(b: pa.Table) -> pa.Table:
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "ws_tokens": count_ws_tokens(text),
                "bpe_tokens": count_bpe_tokens(text),
            }
        )

    return ds.map_batches(stage, batch_format="pyarrow")


def q_lang_tokenizer_fertility(sf_dir: str):
    """(lang, n_docs, ws_tokens, bpe_tokens, fertility): tokenizer
    FERTILITY per language — BPE-pretokenizer pieces per whitespace
    word. The standard multilingual-tokenizer equity metric (a
    language with fertility 2× another pays 2× the context window for
    the same content; the mT5/XLM papers report exactly this table).
    Exact int64 token sums per (batch, lang) → bounded reduce;
    fertility is ONE double division. Two vectorized RE2 passes, zero
    text shuffle."""
    from ..functions.tokenize import count_bpe_tokens, count_ws_tokens

    ds = _documents(sf_dir, ["doc_id", "text", "lang"])

    def partial(b: pa.Table) -> pa.Table:
        text = b.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        t = pa.table(
            {
                "lang": b.column("lang"),
                "ws": count_ws_tokens(text),
                "bpe": count_bpe_tokens(text),
            }
        )
        g = t.group_by("lang").aggregate(
            [("ws", "sum"), ("bpe", "sum"), ([], "count_all")]
        )
        return pa.table(
            {
                "lang": g.column("lang"),
                "ws": pc.cast(g.column("ws_sum"), pa.int64()),
                "bpe": pc.cast(g.column("bpe_sum"), pa.int64()),
                "n": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    tbl = rel.bounded_group_table_strict(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["lang"],
        [("ws", "sum"), ("bpe", "sum"), ("n", "sum")],
    )
    empty = pa.table(
        {
            "lang": pa.array([], pa.string()),
            "n_docs": pa.array([], pa.int64()),
            "ws_tokens": pa.array([], pa.int64()),
            "bpe_tokens": pa.array([], pa.int64()),
            "fertility": pa.array([], pa.float64()),
        }
    )
    if tbl is None or tbl.num_rows == 0:
        return empty
    rows = sorted(
        zip(
            tbl.column("lang").to_pylist(),
            tbl.column("n").to_pylist(),
            tbl.column("ws").to_pylist(),
            tbl.column("bpe").to_pylist(),
        )
    )
    return pa.table(
        {
            "lang": pa.array([r[0] for r in rows], pa.string()),
            "n_docs": pa.array([r[1] for r in rows], pa.int64()),
            "ws_tokens": pa.array([r[2] for r in rows], pa.int64()),
            "bpe_tokens": pa.array([r[3] for r in rows], pa.int64()),
            "fertility": pa.array(
                [
                    float(r[3]) / float(r[2]) if r[2] else 0.0
                    for r in rows
                ],
                pa.float64(),
            ),
        }
    )


def _sql_lang_fertility() -> str:
    from ..functions.tokenize import BPE_TOKEN_RE, WS_TOKEN_RE

    bpe = BPE_TOKEN_RE.replace("'", "''")
    return f"""
WITH t AS (
  SELECT lang,
    len(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS ws,
    len(regexp_extract_all(text, '{bpe}')) AS bpe
  FROM documents
),
m AS (
  SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
    CAST(SUM(ws) AS BIGINT) AS ws_tokens,
    CAST(SUM(bpe) AS BIGINT) AS bpe_tokens
  FROM t GROUP BY lang
)
SELECT lang, n_docs, ws_tokens, bpe_tokens,
  CASE WHEN ws_tokens > 0
       THEN CAST(bpe_tokens AS DOUBLE) / CAST(ws_tokens AS DOUBLE)
       ELSE 0.0 END AS fertility
FROM m
"""


def _sql_bpe() -> str:
    from ..functions.tokenize import BPE_TOKEN_RE, WS_TOKEN_RE

    bpe = BPE_TOKEN_RE.replace("'", "''")
    return f"""
SELECT doc_id,
  len(regexp_extract_all(text, '{WS_TOKEN_RE}')) AS ws_tokens,
  len(regexp_extract_all(text, '{bpe}')) AS bpe_tokens
FROM documents
"""


SQL_MULTIMODAL = """
SELECT doc_id,
  CAST(strlen(text) AS BIGINT) AS payload_bytes,
  CAST(strlen(text) % 640 + 16 AS BIGINT) AS width,
  CAST(strlen(text) % 480 + 16 AS BIGINT) AS height,
  'stub' AS format
FROM documents
"""


# ---------------------------------------------------------------------------
# REAL-codec oracles. The multimodal fixtures are DETERMINISTIC
# functions of (doc_id, length(text)) — synth_pixels / synth_samples
# are splitmix64 streams (stages/multimodal.py:211,652) — so DuckDB
# can re-derive the ENTIRE encode→decode chain from the raw documents
# table with no parameter export: byte/sample synthesis (the
# splitmix64 CTE chain), the per-channel integer sums, and the float
# features. The float paths are bit-exact by construction:
#  - channel/pixel sums are integers < 2^53, so any summation order
#    (numpy pairwise vs DuckDB sequential) is EXACT;
#  - x = s/2^15 and x*x are exact dyadic rationals whose partial sums
#    stay < 2^53 over the 2^-30 grid, so np.mean's sum is exact too;
#  - division by a power of two commutes with IEEE rounding, so
#    (S/2^30)/n == (S/n)/2^30 as computed;
#  - sqrt is correctly rounded in both numpy and DuckDB (IEEE 754).
# The codecs themselves (PPM/BMP/farbfeld/WAV framing) are pinned
# bit-exact by the roundtrip pytests; these oracles check that the
# distributed decode stages reproduce the ground-truth pixel/sample
# statistics end to end.
# ---------------------------------------------------------------------------

_MM_KEY_C = 0x9E3779B97F4A7C15  # synth_pixels' doc key multiplier

# --- perceptual-hash image dedup ----------------------------------------
# aHash over genuinely decoded pixels, exact-integer throughout
# (stages/multimodal.ahash_halves), then the SAME star-pair exact
# dedup machinery text dedup uses — only (doc_id, 16-hex-hash) rows
# ever shuffle, the pixel buffers stay in the decode stage. The dup
# corpus synthesizes payloads keyed on doc_id % 97, so ~5 docs share
# each image at sf0.01 and the pair set is non-vacuous; the oracle
# re-derives every hash from the splitmix64 pixel stream (no export)
# with each 32-bit half accumulated inside BIGINT.

_PHASH_MOD = 97


def _fp_input(sf_dir: str) -> rd.Dataset:
    """doc_id column, re-split for the per-row-compute-heavy
    fingerprint stages: a small test parquet arrives as a handful of
    blocks (4 tasks on 32 CPUs — measured 2.9 s of the video query's
    wall), so sub-1M-row inputs are repartitioned to ~128 rows/block.
    At real scale the lake's own fragment count provides the
    parallelism and the repartition is skipped."""
    ds = _documents(sf_dir, ["doc_id"])
    from ..partitioning import parquet_rows_hint

    hint = parquet_rows_hint(ds) or 0
    if 0 < hint < 1_000_000:
        parts = max(4, min(64, hint // 128))
        return ds.repartition(parts)
    return ds


def _phash_corpus(sf_dir: str) -> rd.Dataset:
    ds = _fp_input(sf_dir)

    def attach(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        payloads = [
            mm.synth_payload_memo("image", int(d) % _PHASH_MOD)
            for d in ids
        ]
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    return ds.map_batches(attach, batch_format="pyarrow")


def q_multimodal_phash_pairs(sf_dir: str):
    """(doc_id_a, doc_id_b): star pairs of images with identical
    aHash — perceptual image dedup over genuinely decoded pixels."""
    hashed = _phash_corpus(sf_dir).map_batches(
        mm.AHashStage, batch_format="pyarrow",
        concurrency=(1, 12), batch_size=256,
    )
    return dd.exact_dedup_pairs(hashed, text_col="k")


def _sql_mm_phash_pairs() -> str:
    key = _sql_u64_mulmod("CAST(doc_id % 97 AS UBIGINT)", _MM_KEY_C)
    sm, cte, col = _sql_splitmix_ctes("mph", "phmix", "mx")
    return f"""
WITH dims AS (
  SELECT doc_id,
    ((doc_id % 97) * 7) % 64 + 8 AS w,
    ((doc_id % 97) * 7) % 48 + 8 AS h,
    {key} AS key
  FROM documents
),
phidx AS (
  SELECT doc_id, w, h, key, unnest(range(0, w * h * 3)) AS i FROM dims
),
phmix AS (
  SELECT doc_id, w, h, i, xor(CAST(i AS UBIGINT), key) AS mx FROM phidx
),
{sm.strip()},
px AS (
  SELECT doc_id, w, h,
    i // (w * 3) AS r, (i % (w * 3)) // 3 AS c,
    {col} % 256 AS v
  FROM {cte}
),
cells AS (
  SELECT doc_id, w, h,
    (r * 8) // h * 8 + (c * 8) // w AS cell,
    CAST(SUM(v) AS BIGINT) AS sv,
    CAST(COUNT(*) // 3 AS BIGINT) AS np_cell
  FROM px GROUP BY doc_id, w, h, (r * 8) // h * 8 + (c * 8) // w
),
tot AS (
  SELECT doc_id, CAST(SUM(v) AS BIGINT) AS tv,
    CAST(COUNT(*) // 3 AS BIGINT) AS np_all
  FROM px GROUP BY doc_id
),
bits AS (
  SELECT c.doc_id, c.cell,
    CASE WHEN c.sv * t.np_all > t.tv * c.np_cell THEN 1 ELSE 0 END AS bit
  FROM cells c JOIN tot t USING (doc_id)
),
hashes AS (
  SELECT doc_id,
    CAST(SUM(CASE WHEN cell >= 32
             THEN bit * (CAST(1 AS BIGINT) << (cell - 32)) ELSE 0 END)
         AS BIGINT) AS hash_hi,
    CAST(SUM(CASE WHEN cell < 32
             THEN bit * (CAST(1 AS BIGINT) << cell) ELSE 0 END)
         AS BIGINT) AS hash_lo
  FROM bits GROUP BY doc_id
),
star AS (
  SELECT min(doc_id) OVER (PARTITION BY hash_hi, hash_lo) AS a,
         doc_id AS b
  FROM hashes
)
SELECT a AS doc_id_a, b AS doc_id_b FROM star WHERE a < b
"""


def q_multimodal_audio_fp_pairs(sf_dir: str):
    """(doc_id_a, doc_id_b): star pairs of clips with identical
    energy fingerprints — audio dedup over genuinely decoded PCM16
    (stages/multimodal.audio_fingerprint_halves); same scale shape as
    multimodal_phash_pairs."""
    ds = _fp_input(sf_dir)

    def attach(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        payloads = [
            mm.synth_payload_memo("audio", int(d) % _PHASH_MOD)
            for d in ids
        ]
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    hashed = ds.map_batches(attach, batch_format="pyarrow").map_batches(
        mm.AudioFingerprintStage, batch_format="pyarrow",
        concurrency=(1, 12), batch_size=256,
    )
    return dd.exact_dedup_pairs(hashed, text_col="k")


def _sql_mm_audio_fp_pairs() -> str:
    seed_mul = _sql_u64_mulmod("CAST(doc_id % 97 AS UBIGINT)", 2654435761)
    sm, cte, col = _sql_splitmix_ctes("maf", "afmix", "mx")
    return f"""
WITH docs AS (
  SELECT doc_id,
    256 + ((doc_id % 97) * 7) % 512 AS n,
    CAST((CAST({seed_mul} AS HUGEINT) + 7)
         % 18446744073709551616 AS UBIGINT) AS seed
  FROM documents
),
afidx AS (SELECT doc_id, n, seed, unnest(range(0, n)) AS i FROM docs),
afmix AS (
  SELECT doc_id, n, i, xor(CAST(i AS UBIGINT), seed) AS mx FROM afidx
),
{sm.strip()},
samp AS (
  SELECT doc_id, n, i, CAST({col} % 20001 AS BIGINT) - 10000 AS s
  FROM {cte}
),
wins AS (
  SELECT doc_id, n, (i * 64) // n AS win,
    CAST(SUM(s * s) AS BIGINT) AS e, CAST(COUNT(*) AS BIGINT) AS wn
  FROM samp GROUP BY doc_id, n, (i * 64) // n
),
tot AS (
  SELECT doc_id, CAST(SUM(s * s) AS BIGINT) AS te FROM samp GROUP BY doc_id
),
bits AS (
  SELECT w.doc_id, w.win,
    CASE WHEN w.e * w.n > t.te * w.wn THEN 1 ELSE 0 END AS bit
  FROM wins w JOIN tot t USING (doc_id)
),
hashes AS (
  SELECT doc_id,
    CAST(SUM(CASE WHEN win >= 32
             THEN bit * (CAST(1 AS BIGINT) << (win - 32)) ELSE 0 END)
         AS BIGINT) AS hash_hi,
    CAST(SUM(CASE WHEN win < 32
             THEN bit * (CAST(1 AS BIGINT) << win) ELSE 0 END)
         AS BIGINT) AS hash_lo
  FROM bits GROUP BY doc_id
),
star AS (
  SELECT min(doc_id) OVER (PARTITION BY hash_hi, hash_lo) AS a,
         doc_id AS b
  FROM hashes
)
SELECT a AS doc_id_a, b AS doc_id_b FROM star WHERE a < b
"""


def q_multimodal_video_fp_pairs(sf_dir: str):
    """(doc_id_a, doc_id_b): star pairs of clips with identical
    sampled-frame fingerprints — video dedup through the real RVID
    container (decode → stride-2 frame sample → per-frame exact aHash
    → XOR). Same star-pair shuffle as the image/audio variants."""
    ds = _fp_input(sf_dir)

    def attach(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        payloads = [
            mm.synth_payload_memo("video", int(d) % _PHASH_MOD)
            for d in ids
        ]
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    hashed = ds.map_batches(attach, batch_format="pyarrow").map_batches(
        mm.VideoFingerprintStage, batch_format="pyarrow",
        concurrency=(1, 12), batch_size=128,
    )
    return dd.exact_dedup_pairs(hashed, text_col="k")


def _sql_mm_video_fp_pairs() -> str:
    frame_key = _sql_u64_mulmod(
        "CAST((doc_id % 97) * 131 + f AS UBIGINT)", _MM_KEY_C
    )
    sm, cte, col = _sql_splitmix_ctes("mvf", "vfmix", "mx")
    return f"""
WITH docs AS (
  SELECT doc_id,
    ((doc_id % 97) * 7) % 64 + 8 AS w,
    ((doc_id % 97) * 7) % 48 + 8 AS h,
    4 + (doc_id % 97) % 4 AS nf
  FROM documents
),
framed AS (
  SELECT doc_id, w, h, unnest(range(0, nf)) AS f FROM docs
),
sampled AS (
  SELECT doc_id, w, h, f, {frame_key} AS key
  FROM framed WHERE f % 2 = 0
),
vfidx AS (
  SELECT doc_id, w, h, f, key, unnest(range(0, w * h * 3)) AS i
  FROM sampled
),
vfmix AS (
  SELECT doc_id, w, h, f, i, xor(CAST(i AS UBIGINT), key) AS mx
  FROM vfidx
),
{sm.strip()},
px AS (
  SELECT doc_id, w, h, f,
    i // (w * 3) AS r, (i % (w * 3)) // 3 AS c,
    {col} % 256 AS v
  FROM {cte}
),
cells AS (
  SELECT doc_id, f, w, h,
    (r * 8) // h * 8 + (c * 8) // w AS cell,
    CAST(SUM(v) AS BIGINT) AS sv,
    CAST(COUNT(*) // 3 AS BIGINT) AS np_cell
  FROM px GROUP BY doc_id, f, w, h, (r * 8) // h * 8 + (c * 8) // w
),
tot AS (
  SELECT doc_id, f, CAST(SUM(v) AS BIGINT) AS tv,
    CAST(COUNT(*) // 3 AS BIGINT) AS np_all
  FROM px GROUP BY doc_id, f
),
bits AS (
  SELECT c.doc_id, c.f, c.cell,
    CASE WHEN c.sv * t.np_all > t.tv * c.np_cell THEN 1 ELSE 0 END AS bit
  FROM cells c JOIN tot t ON t.doc_id = c.doc_id AND t.f = c.f
),
frame_hashes AS (
  SELECT doc_id, f,
    CAST(SUM(CASE WHEN cell >= 32
             THEN bit * (CAST(1 AS BIGINT) << (cell - 32)) ELSE 0 END)
         AS BIGINT) AS fhi,
    CAST(SUM(CASE WHEN cell < 32
             THEN bit * (CAST(1 AS BIGINT) << cell) ELSE 0 END)
         AS BIGINT) AS flo
  FROM bits GROUP BY doc_id, f
),
hashes AS (
  SELECT doc_id, bit_xor(fhi) AS hash_hi, bit_xor(flo) AS hash_lo
  FROM frame_hashes GROUP BY doc_id
),
star AS (
  SELECT min(doc_id) OVER (PARTITION BY hash_hi, hash_lo) AS a,
         doc_id AS b
  FROM hashes
)
SELECT a AS doc_id_a, b AS doc_id_b FROM star WHERE a < b
"""


def _sql_mm_image_stats(with_format: bool) -> str:
    """Shared oracle for ppm_decode / mixed_decode: per-doc dims +
    per-channel pixel means re-derived from the splitmix64 stream."""
    key = _sql_u64_mulmod("CAST(doc_id AS UBIGINT)", _MM_KEY_C)
    sm, cte, col = _sql_splitmix_ctes("mmp", "pxmix", "mx")
    fmt_sel = (
        "CASE doc_id % 3 WHEN 0 THEN 'ppm' WHEN 1 THEN 'bmp' "
        "ELSE 'farbfeld' END AS format,\n  "
        if with_format
        else ""
    )
    return f"""
WITH dims AS (
  SELECT doc_id,
    COALESCE(length(text), 0) % 64 + 8 AS w,
    COALESCE(length(text), 0) % 48 + 8 AS h,
    {key} AS key
  FROM documents
),
pxidx AS (
  SELECT doc_id, w, h, key, unnest(range(0, w * h * 3)) AS i FROM dims
),
pxmix AS (
  SELECT doc_id, w, h, CAST(i % 3 AS BIGINT) AS ch,
    xor(CAST(i AS UBIGINT), key) AS mx
  FROM pxidx
),
{sm.strip()},
vals AS (SELECT doc_id, w, h, ch, {col} % 256 AS v FROM {cte}),
agg AS (
  SELECT doc_id, w, h,
    SUM(CASE WHEN ch = 0 THEN v END) AS sr,
    SUM(CASE WHEN ch = 1 THEN v END) AS sg,
    SUM(CASE WHEN ch = 2 THEN v END) AS sb
  FROM vals GROUP BY doc_id, w, h
)
SELECT doc_id,
  {fmt_sel}CAST(w AS BIGINT) AS width, CAST(h AS BIGINT) AS height,
  CAST(sr AS DOUBLE) / (w * h) AS mean_r,
  CAST(sg AS DOUBLE) / (w * h) AS mean_g,
  CAST(sb AS DOUBLE) / (w * h) AS mean_b
FROM agg
"""


def _sql_mm_ppm_frames() -> str:
    """Video-container oracle: re-derive every sampled frame's dims and
    whole-frame pixel mean (synth_pixels(doc_id*1000+f, n+f))."""
    key = _sql_u64_mulmod("CAST(doc_id * 1000 + f AS UBIGINT)", _MM_KEY_C)
    sm, cte, col = _sql_splitmix_ctes("mmf", "frmix", "mx")
    return f"""
WITH docs AS (
  SELECT doc_id, COALESCE(length(text), 0) AS n FROM documents
),
frames AS (
  SELECT doc_id, n, unnest(range(0, n % 7 + 2)) AS f FROM docs
),
dims AS (
  SELECT doc_id, f, (n + f) % 64 + 8 AS w, (n + f) % 48 + 8 AS h,
    {key} AS key
  FROM frames WHERE f % 2 = 0
),
fridx AS (
  SELECT doc_id, f, w, h, key, unnest(range(0, w * h * 3)) AS i FROM dims
),
frmix AS (
  SELECT doc_id, f, w, h, xor(CAST(i AS UBIGINT), key) AS mx FROM fridx
),
{sm.strip()},
agg AS (
  SELECT doc_id, f, w, h, SUM({col} % 256) AS s
  FROM {cte} GROUP BY doc_id, f, w, h
)
SELECT doc_id, CAST(f AS BIGINT) AS frame_index,
  CAST(w AS BIGINT) AS width, CAST(h AS BIGINT) AS height,
  CAST(s AS DOUBLE) / (w * h * 3) AS mean_pixel
FROM agg
"""


def _sql_mm_mixed_resize() -> str:
    """Transcode oracle: dims + the integer nearest-neighbor box fit
    (max_side=16, aspect kept, pass-through when already inside)."""
    return """
WITH dims AS (
  SELECT doc_id,
    COALESCE(length(text), 0) % 64 + 8 AS w,
    COALESCE(length(text), 0) % 48 + 8 AS h
  FROM documents
),
g AS (SELECT *, GREATEST(w, h) AS ls FROM dims)
SELECT doc_id,
  CASE doc_id % 3 WHEN 0 THEN 'ppm' WHEN 1 THEN 'bmp'
    ELSE 'farbfeld' END AS format,
  CAST(w AS BIGINT) AS width, CAST(h AS BIGINT) AS height,
  CAST(CASE WHEN ls <= 16 THEN w
       ELSE GREATEST(w * 16 // ls, 1) END AS BIGINT) AS resized_w,
  CAST(CASE WHEN ls <= 16 THEN h
       ELSE GREATEST(h * 16 // ls, 1) END AS BIGINT) AS resized_h
FROM g
"""


def _sql_mm_wav_features() -> str:
    """Audio oracle: re-derive the PCM16 sample stream
    (synth_samples: splitmix64 % 20001 - 10000) and all four clip
    features in exact / correctly-rounded float arithmetic."""
    seed_mul = _sql_u64_mulmod("CAST(doc_id AS UBIGINT)", 2654435761)
    sm, cte, col = _sql_splitmix_ctes("mmw", "wvmix", "mx")
    return f"""
WITH docs AS (
  SELECT doc_id,
    256 + COALESCE(length(text), 0) % 512 AS n,
    CASE WHEN doc_id % 3 = 0 THEN 8000 ELSE 16000 END AS rate,
    CAST((CAST({seed_mul} AS HUGEINT) + 7)
         % 18446744073709551616 AS UBIGINT) AS seed
  FROM documents
),
widx AS (SELECT doc_id, n, rate, seed, unnest(range(0, n)) AS i FROM docs),
wvmix AS (
  SELECT doc_id, n, rate, i, xor(CAST(i AS UBIGINT), seed) AS mx FROM widx
),
{sm.strip()},
samp AS (
  SELECT doc_id, n, rate, i, CAST({col} % 20001 AS BIGINT) - 10000 AS s
  FROM {cte}
),
lagged AS (
  SELECT doc_id, n, rate, s,
    lag(s) OVER (PARTITION BY doc_id ORDER BY i) AS prev
  FROM samp
),
agg AS (
  SELECT doc_id, n, rate,
    SUM(s * s) AS s2,
    SUM(CASE WHEN prev IS NOT NULL AND ((s < 0) <> (prev < 0))
        THEN 1 ELSE 0 END) AS flips,
    MAX(abs(s)) AS pk
  FROM lagged GROUP BY doc_id, n, rate
)
SELECT doc_id,
  CAST(n AS BIGINT) AS n_samples,
  CAST(rate AS BIGINT) AS sample_rate,
  CAST(n AS DOUBLE) / rate AS duration_s,
  sqrt(CAST(s2 AS DOUBLE) / n / 1073741824.0) AS rms,
  CAST(flips AS DOUBLE) / (n - 1) AS zcr,
  CAST(pk AS DOUBLE) / 32768.0 AS peak
FROM agg
"""


def _sql_mm_knn() -> str:
    """Pixel-retrieval oracle (shared by the PPM-only and the mixed
    dispatch variants — the codecs carry the SAME pixels, so results
    are format-invariant). DuckDB re-derives every doc's 15-dim
    feature vector (global + 2×2 quadrant channel means, straight
    from the splitmix64 pixel stream; the max_side=224 resize is a
    pass-through for these ≤71px fixtures) and ranks by cosine.
    Cosine is scale-invariant, so the engine's L2-normalize + dot ≡
    ``list_cosine_similarity`` on raw features; the output carries
    ranks only, and inter-image cosine gaps are ~1e-2, far above any
    summation-order wobble. Query vectors = the first 3 file-order
    docs, exactly the engine's streamed head batch."""
    key = _sql_u64_mulmod("CAST(doc_id AS UBIGINT)", _MM_KEY_C)
    sm, cte, col = _sql_splitmix_ctes("mmk", "knmix", "mx")
    return f"""
WITH dims AS (
  SELECT doc_id,
    COALESCE(length(text), 0) % 64 + 8 AS w,
    COALESCE(length(text), 0) % 48 + 8 AS h,
    {key} AS key
  FROM documents
),
knidx AS (
  SELECT doc_id, w, h, key, unnest(range(0, w * h * 3)) AS i FROM dims
),
knmix AS (
  SELECT doc_id, w, h, i, xor(CAST(i AS UBIGINT), key) AS mx FROM knidx
),
{sm.strip()},
px AS (
  SELECT doc_id, w, h,
    i // (w * 3) AS r, (i % (w * 3)) // 3 AS c,
    CAST(i % 3 AS BIGINT) AS ch, {col} % 256 AS v
  FROM {cte}
),
contrib AS (
  SELECT doc_id, ch AS comp, v, w * h AS cnt FROM px
  UNION ALL
  SELECT doc_id,
    3 + 3 * (CASE WHEN r >= h // 2 THEN 2 ELSE 0 END
             + CASE WHEN c >= w // 2 THEN 1 ELSE 0 END) + ch AS comp,
    v,
    (CASE WHEN r >= h // 2 THEN h - h // 2 ELSE h // 2 END)
      * (CASE WHEN c >= w // 2 THEN w - w // 2 ELSE w // 2 END) AS cnt
  FROM px
),
feat AS (
  SELECT doc_id, comp, CAST(SUM(v) AS DOUBLE) / any_value(cnt) AS fv
  FROM contrib GROUP BY doc_id, comp
),
fvec AS (
  SELECT doc_id, list(fv ORDER BY comp) AS emb FROM feat GROUP BY doc_id
)
SELECT q.doc_id AS query_id, e.doc_id AS vec_id
FROM fvec q CROSS JOIN fvec e
WHERE q.doc_id IN (SELECT doc_id FROM documents LIMIT 3)
QUALIFY row_number() OVER (
  PARTITION BY q.doc_id
  ORDER BY list_cosine_similarity(q.emb, e.emb) DESC, e.doc_id
) <= 5
"""


def _sql_mm_wav_resample() -> str:
    """Resample oracle: 16 kHz clips halve (n*8000//16000), 8 kHz
    clips pass through — pure integer arithmetic."""
    return """
SELECT doc_id,
  CAST(CASE WHEN doc_id % 3 = 0 THEN 8000 ELSE 16000 END AS BIGINT)
    AS orig_rate,
  CAST(CASE WHEN doc_id % 3 = 0
       THEN 256 + COALESCE(length(text), 0) % 512
       ELSE (256 + COALESCE(length(text), 0) % 512) // 2 END AS BIGINT)
    AS n_samples
FROM documents
"""


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def registry() -> dict[str, tuple]:
    """name -> (callable(sf_dir) -> Dataset/Table, oracle_sql | None)"""
    from ..functions.entropy import CHAR_ENTROPY_SQL

    pages = pages_cte()
    return {
        # relational core
        "q1_pricing": (rel.q1_pricing, rel.Q1_SQL),
        "top_orders": (rel.top_orders, rel.TOP_ORDERS_SQL),
        "nation_order_stats": (rel.nation_order_stats, rel.NATION_ORDER_SQL),
        "events_hourly": (rel.events_hourly, rel.EVENTS_HOURLY_SQL),
        "revenue_by_priority": (rel.revenue_by_priority, rel.REVENUE_JOIN_SQL),
        "events_asof_orders": (rel.events_asof_orders, rel.EVENTS_ASOF_SQL),
        "event_attribution": (
            ana.event_attribution, ana.EVENT_ATTRIBUTION_SQL,
        ),
        "purchase_next_touch": (
            ana.purchase_next_touch, ana.PURCHASE_NEXT_TOUCH_SQL,
        ),
        "events_late_arrivals": (
            ana.events_late_arrivals, ana.EVENTS_LATE_SQL,
        ),
        "events_value_near_pairs": (
            ana.events_value_near_pairs, ana.EVENTS_NEAR_PAIRS_SQL,
        ),
        "orders_events_window": (
            rel.orders_events_window, rel.ORDERS_EVENTS_WINDOW_SQL,
        ),
        "sessionize_users": (rel.sessionize_users, rel.SESSIONIZE_SQL),
        "session_duration_quantiles": (
            rel.session_duration_quantiles,
            _sql_session_duration_quantiles(),
        ),
        "orders_sample": (rel.orders_systematic_sample, rel.ORDERS_SAMPLE_SQL),
        "distinct_user_event_types": (
            rel.distinct_user_event_types, rel.DISTINCT_SQL,
        ),
        "events_type_stats": (rel.events_type_stats, rel.EVENTS_TYPE_SQL),
        "events_sliding_3h": (rel.events_sliding_3h, rel.EVENTS_SLIDING_SQL),
        "events_value_percentiles": (
            rel.events_value_percentiles, rel.EVENTS_PERCENTILES_SQL,
        ),
        "events_running_totals": (
            rel.events_running_totals, rel.EVENTS_RUNNING_SQL,
        ),
        "events_value_ranks": (rel.events_value_ranks, rel.EVENTS_RANKS_SQL),
        "events_value_corr": (rel.events_value_corr, rel.EVENTS_CORR_SQL),
        "events_hour_moments": (
            rel.events_hour_moments, rel.EVENTS_HOUR_MOMENTS_SQL,
        ),
        "events_hourly_autocorr": (
            rel.events_hourly_autocorr, rel.EVENTS_AUTOCORR_SQL,
        ),
        "events_type_fano": (rel.events_type_fano, rel.EVENTS_FANO_SQL),
        "events_changepoint": (
            rel.events_changepoint, rel.EVENTS_CHANGEPOINT_SQL,
        ),
        "events_runs_test": (rel.events_runs_test, rel.EVENTS_RUNS_SQL),
        "events_cusum": (rel.events_cusum, rel.EVENTS_CUSUM_SQL),
        "events_latest_per_user": (
            rel.events_latest_per_user, rel.EVENTS_LATEST_SQL,
        ),
        "user_event_sequences": (
            rel.user_event_sequences, rel.USER_SEQUENCES_SQL,
        ),
        "customers_without_orders": (
            rel.customers_without_orders, rel.CUSTOMERS_WITHOUT_ORDERS_SQL,
        ),
        "customer_order_counts": (
            rel.customer_order_counts, rel.CUSTOMER_ORDER_COUNTS_SQL,
        ),
        "customer_rfm_bins": (
            rel.customer_rfm_bins, _sql_customer_rfm_bins(),
        ),
        "event_users_intersect_customers": (
            rel.event_users_intersect_customers,
            rel.EVENT_USERS_INTERSECT_SQL,
        ),
        "lang_source_hist": (rel.lang_source_hist, rel.LANG_SOURCE_SQL),
        # windowed-frame / grouping-set / outer-join analytics batch
        "user_customer_activity": (
            ana.user_customer_activity, ana.USER_CUSTOMER_ACTIVITY_SQL,
        ),
        "orders_month_priority_pivot": (
            ana.orders_month_priority_pivot, ana.ORDERS_PIVOT_SQL,
        ),
        "events_type_dow_cube": (
            ana.events_type_dow_cube, ana.EVENTS_CUBE_SQL,
        ),
        "events_moving_avg": (ana.events_moving_avg, ana.EVENTS_MOVING_AVG_SQL),
        "events_user_ntile": (ana.events_user_ntile, ana.EVENTS_NTILE_SQL),
        "events_type_mode_median": (
            ana.events_type_mode_median, ana.EVENTS_MODE_MEDIAN_SQL,
        ),
        "shipping_priority": (
            ana.shipping_priority, ana.SHIPPING_PRIORITY_SQL,
        ),
        "events_value_quantile_cont": (
            ana.events_value_quantile_cont, ana.EVENTS_QUANTILE_CONT_SQL,
        ),
        "events_value_histogram": (
            ana.events_value_histogram, ana.EVENTS_HISTOGRAM_SQL,
        ),
        "customers_except_event_users": (
            ana.customers_except_event_users, ana.CUSTOMERS_EXCEPT_SQL,
        ),
        "local_supplier_volume": (
            dec.local_supplier_volume, dec.LOCAL_SUPPLIER_VOLUME_SQL,
        ),
        "orders_above_customer_avg": (
            dec.orders_above_customer_avg, dec.ORDERS_ABOVE_AVG_SQL,
        ),
        "top_orders_per_customer": (
            dec.top_orders_per_customer, dec.TOP_ORDERS_PER_CUSTOMER_SQL,
        ),
        "events_first_last": (dec.events_first_last, dec.EVENTS_FIRST_LAST_SQL),
        "events_percent_rank": (
            dec.events_percent_rank, dec.EVENTS_PERCENT_RANK_SQL,
        ),
        "events_mad_outliers": (dec.events_mad_outliers, dec.EVENTS_MAD_SQL),
        "events_regr_trend": (dec.events_regr_trend, dec.EVENTS_REGR_SQL),
        "orders_priority_unpivot": (
            ana.orders_priority_unpivot, ana.ORDERS_UNPIVOT_SQL,
        ),
        "token_budget_sample": (cor.token_budget_sample, cor.TOKEN_BUDGET_SQL),
        "quality_zscores": (cor.quality_zscores, cor.QUALITY_ZSCORES_SQL),
        "dataset_diff": (cor.dataset_diff, cor.DATASET_DIFF_SQL),
        "term_postings": (cor.term_postings, cor.TERM_POSTINGS_SQL),
        "apply_changes": (cor.apply_changes, cor.APPLY_CHANGES_SQL),
        "bm25_search": (cor.bm25_search, cor._bm25_sql()),
        "embedding_norms": (cor.embedding_norms, cor.EMBEDDING_NORMS_SQL),
        "top_tokens_by_lang": (cor.top_tokens_by_lang, cor.TOP_TOKENS_BY_LANG_SQL),
        "lang_keyness": (cor.lang_keyness, cor.LANG_KEYNESS_SQL),
        "dq_checks": (cor.dq_checks, cor.DQ_CHECKS_SQL),
        "user_funnel": (dec.user_funnel, dec.USER_FUNNEL_SQL),
        "user_retention": (dec.user_retention, dec.USER_RETENTION_SQL),
        "events_props_stats": (dec.events_props_stats, dec.EVENTS_PROPS_SQL),
        "events_value_fill": (dec.events_value_fill, dec.EVENTS_FILL_SQL),
        "event_transitions": (dec.event_transitions, dec.EVENT_TRANSITIONS_SQL),
        "markov_stationary": (
            dec.markov_stationary, dec._markov_sql(),
        ),
        "orders_pareto": (dec.orders_pareto, dec.ORDERS_PARETO_SQL),
        "events_type_dow_chi2": (dec.events_type_dow_chi2, dec.EVENTS_CHI2_SQL),
        "events_sliding_distinct_users": (
            dec.events_sliding_distinct_users, dec.EVENTS_SLIDING_DISTINCT_SQL,
        ),
        "orders_with_returns": (
            dec2.orders_with_returns, dec2.ORDERS_WITH_RETURNS_SQL,
        ),
        "promo_revenue": (dec2.promo_revenue, dec2.PROMO_REVENUE_SQL),
        "big_orders": (dec2.big_orders, dec2.BIG_ORDERS_SQL),
        "part_supplier_counts": (
            dec2.part_supplier_counts, dec2.PART_SUPPLIER_COUNTS_SQL,
        ),
        "special_revenue": (dec2.special_revenue, dec2.SPECIAL_REVENUE_SQL),
        "fuzzy_name_pairs": (
            dec2.fuzzy_name_pairs, dec2.FUZZY_NAME_PAIRS_SQL,
        ),
        "nation_volume": (dec3.nation_volume, dec3.NATION_VOLUME_SQL),
        "urgent_lines_by_status": (
            dec3.urgent_lines_by_status, dec3.URGENT_LINES_SQL,
        ),
        "top_supplier": (dec3.top_supplier, dec3.TOP_SUPPLIER_SQL),
        "small_qty_revenue": (
            dec3.small_qty_revenue, dec3.SMALL_QTY_REVENUE_SQL,
        ),
        "rich_inactive_customers": (
            dec3.rich_inactive_customers, dec3.RICH_INACTIVE_SQL,
        ),
        "price_quantiles": (q_price_quantiles, SQL_PRICE_QUANTILES),
        "price_quantiles_weighted": (
            q_price_quantiles_weighted, _sql_price_quantiles_weighted(),
        ),
        "part_soundex_blocks": (
            q_part_soundex_blocks, _sql_part_soundex_blocks(),
        ),
        "part_golden_record": (
            q_part_golden_record, _sql_part_golden_record(),
        ),
        "event_value_heavy_hitters": (
            q_event_value_heavy_hitters, _sql_event_value_heavy_hitters(),
        ),
        "source_score_calibration": (
            q_source_score_calibration, _sql_source_score_calibration(),
        ),
        "blocking_recall": (q_blocking_recall, _sql_blocking_recall()),
        "price_quantiles_by_flag": (
            q_price_quantiles_by_flag, SQL_PRICE_QUANTILES_BY_FLAG,
        ),
        "dominant_suppliers": (
            dec3.dominant_suppliers, dec3.DOMINANT_SUPPLIERS_SQL,
        ),
        "collocations": (q_collocations, _sql_collocations()),
        # exponential weights are order-sensitive: the oracle pins the
        # fold order with list(contrib ORDER BY rn) + list_sum; the
        # sequential-recurrence differential stays in tests
        "events_ewma": (ana.events_ewma, ana.EVENTS_EWMA_SQL),
        "part_copurchase": (
            dec3.part_copurchase, dec3.PART_COPURCHASE_SQL,
        ),
        "basket_rules": (
            dec3.basket_rules, dec3.BASKET_RULES_SQL,
        ),
        "events_zorder": (q_events_zorder, _sql_events_zorder()),
        "user_type_islands": (
            ana.user_type_islands, ana.USER_TYPE_ISLANDS_SQL,
        ),
        "user_type_entropy": (
            ana.user_type_entropy, ana.USER_TYPE_ENTROPY_SQL,
        ),
        "decayed_type_counts": (
            ana.decayed_type_counts, ana.DECAYED_TYPE_COUNTS_SQL,
        ),
        "events_value_share": (
            ana.events_value_share, ana.EVENTS_VALUE_SHARE_SQL,
        ),
        # round-4 continuation batch: cohort retention, sweep-line
        # interval stabbing, HHI concentration, LAG-diff inter-arrival
        "customer_cohorts": (
            dec5.customer_cohorts, dec5.CUSTOMER_COHORTS_SQL,
        ),
        "cohort_revenue": (dec5.cohort_revenue, dec5.COHORT_REVENUE_SQL),
        "revenue_proration": (
            dec5.revenue_proration, dec5.REVENUE_PRORATION_SQL,
        ),
        "customer_trend_mix": (
            dec5.customer_trend_mix, dec5.CUSTOMER_TREND_MIX_SQL,
        ),
        "customer_km_survival": (
            dec5.customer_km_survival, dec5.CUSTOMER_KM_SQL,
        ),
        "orders_backlog": (dec5.orders_backlog, dec5.ORDERS_BACKLOG_SQL),
        "part_brand_hhi": (dec5.part_brand_hhi, dec5.PART_BRAND_HHI_SQL),
        "user_interarrival_stats": (
            dec5.user_interarrival_stats, dec5.USER_INTERARRIVAL_SQL,
        ),
        "doc_script_mix": (cor2.doc_script_mix, cor2.DOC_SCRIPT_MIX_SQL),
        "lang_ttr": (cor2.lang_ttr, cor2.LANG_TTR_SQL),
        "vocab_growth": (cor2.vocab_growth, cor2.VOCAB_GROWTH_SQL),
        "label_centroids": (cor2.label_centroids, cor2.LABEL_CENTROIDS_SQL),
        "lang_hapax": (cor2.lang_hapax, cor2.LANG_HAPAX_SQL),
        "lang_zipf": (cor2.lang_zipf, cor2.LANG_ZIPF_SQL),
        "lang_vocab_overlap": (
            cor2.lang_vocab_overlap, cor2.LANG_VOCAB_OVERLAP_SQL,
        ),
        "events_winsorized_stats": (
            dec5.events_winsorized_stats, dec5.EVENTS_WINSORIZED_SQL,
        ),
        # round-4 decision-support batch: the remaining TPC-H shapes,
        # built on the generic join API (pipelines/join.py)
        "waiting_suppliers": (
            dec4.waiting_suppliers, dec4.WAITING_SUPPLIERS_SQL,
        ),
        "min_cost_supplier": (
            dec4.min_cost_supplier, dec4.MIN_COST_SUPPLIER_SQL,
        ),
        "product_type_profit": (
            dec4.product_type_profit, dec4.PRODUCT_TYPE_PROFIT_SQL,
        ),
        "nation_market_share": (
            dec4.nation_market_share, dec4.NATION_MARKET_SHARE_SQL,
        ),
        "returned_item_customers": (
            dec4.returned_item_customers,
            dec4.RETURNED_ITEM_CUSTOMERS_SQL,
        ),
        "important_parts": (
            dec4.important_parts, dec4.IMPORTANT_PARTS_SQL,
        ),
        "order_priority_check": (
            dec4.order_priority_check, dec4.ORDER_PRIORITY_CHECK_SQL,
        ),
        "forecast_revenue_change": (
            dec4.forecast_revenue_change, dec4.FORECAST_REVENUE_SQL,
        ),
        "open_orders": (rel.open_orders, rel.OPEN_ORDERS_SQL),
        "parts_by_brand": (rel.parts_by_brand, rel.PARTS_BY_BRAND_SQL),
        "supplier_nation_balance": (
            rel.supplier_nation_balance, rel.SUPPLIER_NATION_SQL,
        ),
        # text analysis
        "doc_stats": (q_doc_stats, SQL_DOC_STATS),
        "doc_compression": (q_doc_compression, None),  # zlib: non-SQL
        "doc_quality_scores": (q_doc_quality_scores, SQL_DOC_QUALITY),
        "doc_encoding_flags": (q_doc_encoding_flags, SQL_DOC_ENCODING),
        "doc_readability": (q_doc_readability, SQL_DOC_READABILITY),
        "source_lang_kl": (q_source_lang_kl, SQL_SOURCE_LANG_KL),
        "source_gini": (q_source_gini, SQL_SOURCE_GINI),
        "source_readability_drift": (
            q_source_readability_drift, SQL_SOURCE_READABILITY_DRIFT,
        ),
        "weighted_sample": (q_weighted_sample, _sql_weighted_sample()),
        "dedup_cross_source": (q_dedup_cross_source, SQL_DEDUP_CROSS_SOURCE),
        "curate_readability": (
            q_curate_readability, _sql_curate_readability(),
        ),
        "quality_percentiles": (
            q_quality_percentiles, _sql_quality_percentiles(),
        ),
        "pii_scrub": (q_pii_scrub, _sql_pii_scrub()),
        "normalize_text": (q_normalize_text, SQL_NORMALIZE_TEXT),
        "repetition_scores": (q_repetition_scores, SQL_REPETITION),
        "url_canonical": (q_url_canonical, _sql_url_canonical()),
        "dedup_urls": (q_dedup_urls, _sql_dedup_urls()),
        "dedup_lines": (q_dedup_lines, SQL_DEDUP_LINES),
        "dedup_spans": (q_dedup_spans, SQL_DEDUP_SPANS),
        "doc_dup_gram_fraction": (
            q_doc_dup_gram_fraction, SQL_DOC_DUP_GRAM_FRACTION,
        ),
        "curate_corpus": (q_curate_corpus, _sql_curate_corpus()),
        # deferred for the same LM-export reason as gate_decisions
        "curate_semantic": (
            q_curate_semantic,
            lambda: _sql_curate_semantic().replace("{pages}", pages_cte()),
        ),
        "quality_classifier": (
            q_quality_classifier, _sql_quality_classifier(),
        ),
        "quality_bins": (q_quality_bins, _sql_quality_bins()),
        # the quality gate (rule catalog), differential vs SQL.
        # NB: plain .replace, not str.format — the embedded regexes
        # contain literal braces ({2,}, \d{1,2}) that format would eat.
        "gate_url_flags": (q_gate_url_flags, SQL_GATE_URL.replace("{pages}", pages)),
        "gate_content_flags": (
            q_gate_content_flags,
            _sql_gate_content().replace("{pages}", pages),
        ),
        "gate_shape_lang_flags": (
            q_gate_shape_lang_flags,
            SQL_GATE_SHAPE.replace("{pages}", pages),
        ),
        "lang_confusion": (
            q_lang_confusion,
            _sql_lang_confusion().replace("{pages}", pages),
        ),
        "langid_f1": (
            q_langid_f1,
            _sql_langid_f1().replace("{pages}", pages),
        ),
        "gate_meta_flags": (
            q_gate_meta_flags,
            _sql_gate_meta().replace("{pages}", pages),
        ),
        # deferred (zero-arg callable): building this SQL trains the
        # trigram LM and exports its parameters to /tmp — taxing every
        # registry() caller (bench, rows-only tests) that never runs
        # the gate_decisions oracle. oracle_sql() resolves callables.
        "gate_decisions": (
            q_gate_decisions,
            lambda: _sql_gate_decisions().replace("{pages}", pages_cte()),
        ),
        "gate_host_keep_rate": (
            q_gate_host_keep_rate,
            lambda: _sql_gate_host_keep_rate().replace(
                "{pages}", pages_cte()
            ),
        ),
        "gate_rule_cooccurrence": (
            q_gate_rule_cooccurrence,
            lambda: _sql_gate_rule_cooccurrence().replace(
                "{pages}", pages_cte()
            ),
        ),
        "gate_drop_vector": (
            q_gate_drop_vector,
            _sql_gate_drop_vector().replace("{pages}", pages),
        ),
        "gate_rule_marginal": (
            q_gate_rule_marginal,
            _sql_gate_rule_marginal().replace("{pages}", pages),
        ),
        "curate_pack": (q_curate_pack, _sql_curate_pack()),
        "quality_dup_rate": (q_quality_dup_rate, _sql_quality_dup_rate()),
        "code_switch": (q_code_switch, _sql_code_switch()),
        "top_boilerplate_lines": (
            q_top_boilerplate_lines, _sql_top_boilerplate_lines()
        ),
        "gate_scrub_stats": (
            q_gate_scrub_stats,
            lambda: _sql_gate_scrub_stats().replace(
                "{pages}", pages_cte()
            ),
        ),
        "kept_url_depth": (
            q_kept_url_depth,
            lambda: _sql_kept_url_depth().replace("{pages}", pages_cte()),
        ),
        "lang_keep_matrix": (
            q_lang_keep_matrix,
            lambda: _sql_lang_keep_matrix().replace(
                "{pages}", pages_cte()
            ),
        ),
        "kept_host_entropy": (
            q_kept_host_entropy,
            lambda: _sql_kept_host_entropy().replace(
                "{pages}", pages_cte()
            ),
        ),
        "gate_ppl_sensitivity": (
            q_gate_ppl_sensitivity,
            lambda: _sql_gate_ppl_sensitivity().replace(
                "{pages}", pages_cte()
            ),
        ),
        # deferred for the same LM-export reason as gate_decisions
        "gate_then_dedup": (q_gate_then_dedup, _sql_gate_then_dedup),
        "dedup_order_yield": (
            q_dedup_order_yield,
            lambda: _sql_dedup_order_yield(),
        ),
        # dedup family
        "dedup_exact": (q_dedup_exact, SQL_DEDUP_EXACT),
        "dedup_exact_pairs": (q_dedup_exact_pairs, SQL_DEDUP_EXACT_PAIRS),
        "dedup_incremental": (q_dedup_incremental, SQL_DEDUP_INCREMENTAL),
        "dedup_incremental_bloom": (
            q_dedup_incremental_bloom, _sql_dedup_incremental_bloom(),
        ),
        "dedup_minhash_pairs": (
            q_dedup_minhash_pairs, _sql_dedup_minhash_pairs(),
        ),
        "dedup_jaccard": (q_dedup_jaccard, _sql_dedup_jaccard()),
        "minhash_lsh_recall": (
            q_minhash_lsh_recall, _sql_minhash_lsh_recall()
        ),
        "simhash_recall": (q_simhash_recall, _sql_simhash_recall()),
        "dedup_simhash": (q_dedup_simhash, SQL_DEDUP_SIMHASH),
        "dedup_simhash_pairs": (
            q_dedup_simhash_pairs, SQL_DEDUP_SIMHASH_PAIRS,
        ),
        "doc_chunk_fingerprints": (q_doc_chunk_fingerprints, None),  # non-SQL chunker
        # KMV sketch: exact (and SQL-checkable) below k distinct users
        # per type, approximate past it — see q_common_users_by_type
        "common_users_by_type": (q_common_users_by_type, SQL_COMMON_USERS),
        "approx_distinct_users": (
            q_approx_distinct_users, _sql_approx_distinct_users(),
        ),
        "approx_distinct_users_by_type": (
            q_approx_distinct_users_by_type,
            _sql_approx_distinct_users_by_type(),
        ),
        "approx_quantiles": (
            q_approx_quantiles, _sql_approx_quantiles(False)
        ),  # sketch-validating oracle
        "approx_quantiles_by_type": (
            q_approx_quantiles_by_type, _sql_approx_quantiles(True)
        ),  # sketch-validating oracle
        # the partition-invariant sampled-quantile path (full oracle)
        "approx_quantiles_sampled": (
            q_approx_quantiles_sampled, _sql_sampled_quantiles(False)),
        "approx_quantiles_sampled_by_type": (
            q_approx_quantiles_sampled_by_type, _sql_sampled_quantiles(True)),
        "cms_heavy_hitters": (
            q_cms_heavy_hitters, _sql_cms_heavy_hitters(),
        ),
        "dedup_partial_overlap": (
            q_dedup_partial_overlap, SQL_DEDUP_PARTIAL_OVERLAP,
        ),
        "dedup_components": (q_dedup_components, SQL_DEDUP_COMPONENTS),
        "dedup_bcubed": (q_dedup_bcubed, _sql_dedup_bcubed()),
        "dedup_best_survivor": (
            q_dedup_best_survivor, _sql_dedup_best_survivor()
        ),
        "rank_dedup_graph": (q_rank_dedup_graph, _sql_rank_dedup_graph()),
        "dedup_graph_bfs": (q_dedup_graph_bfs, SQL_DEDUP_GRAPH_BFS),
        "dedup_graph_diameter": (
            q_dedup_graph_diameter, SQL_DEDUP_GRAPH_DIAMETER,
        ),
        "dedup_graph_clustering": (
            q_dedup_graph_clustering, SQL_DEDUP_GRAPH_CLUSTERING,
        ),
        "dedup_graph_triangles": (
            q_dedup_graph_triangles, SQL_DEDUP_GRAPH_TRIANGLES,
        ),
        "dedup_graph_assortativity": (
            q_dedup_graph_assortativity, SQL_DEDUP_GRAPH_ASSORTATIVITY,
        ),
        "dedup_graph_kcore": (
            q_dedup_graph_kcore, _sql_dedup_graph_kcore(),
        ),
        "dedup_component_sizes": (
            q_dedup_component_sizes, _sql_dedup_component_sizes(),
        ),
        "token_dispersion": (
            cor2.token_dispersion, cor2.TOKEN_DISPERSION_SQL,
        ),
        "order_fill_times": (
            dec5.order_fill_times, dec5.ORDER_FILL_TIMES_SQL,
        ),
        "events_hourly_anomaly": (
            dec5.events_hourly_anomaly, dec5.EVENTS_HOURLY_ANOMALY_SQL,
        ),
        "events_mannwhitney": (
            dec5.events_mannwhitney, dec5.EVENTS_MANNWHITNEY_SQL,
        ),
        "order_event_days_outer": (
            dec5.order_event_days_outer, dec5.ORDER_EVENT_DAYS_OUTER_SQL,
        ),
        "brand_discount_trend": (
            dec5.brand_discount_trend, dec5.BRAND_DISCOUNT_TREND_SQL,
        ),
        "label_centroid_similarity": (
            cor2.label_centroid_similarity,
            cor2.LABEL_CENTROID_SIMILARITY_SQL,
        ),
        "source_quality_corr": (
            cor2.source_quality_corr, cor2._source_quality_corr_sql(),
        ),
        "customer_segment_migration": (
            dec5.customer_segment_migration,
            dec5._sql_customer_segment_migration(),
        ),
        "event_transition_predictability": (
            dec5.event_transition_predictability,
            dec5.EVENT_PREDICTABILITY_SQL,
        ),
        "event_type_user_overlap": (
            dec5.event_type_user_overlap,
            dec5.EVENT_TYPE_USER_OVERLAP_SQL,
        ),
        "supplier_ship_delay": (
            dec5.supplier_ship_delay, dec5.SUPPLIER_SHIP_DELAY_SQL,
        ),
        "dedup_savings": (cor2.dedup_savings, cor2.DEDUP_SAVINGS_SQL),
        "benford_digits": (dec5.benford_digits, dec5.BENFORD_DIGITS_SQL),
        "part_name_top_terms": (
            cor2.part_name_top_terms, cor2.PART_NAME_TOP_TERMS_SQL,
        ),
        "order_size_histogram": (
            dec5.order_size_histogram, dec5.ORDER_SIZE_HISTOGRAM_SQL,
        ),
        "order_gap_quantiles": (
            dec5.order_gap_quantiles, dec5.ORDER_GAP_QUANTILES_SQL,
        ),
        "source_ks_length": (
            cor2.source_ks_length, cor2.SOURCE_KS_LENGTH_SQL,
        ),
        "dedup_survivors": (q_dedup_survivors, SQL_DEDUP_SURVIVORS),
        "decontaminate": (q_decontaminate, _sql_decontaminate()),
        "decontaminate_attribution": (
            q_decontaminate_attribution, _sql_decontaminate_attribution()
        ),
        "pack_sequences": (q_pack_sequences, _sql_pack_sequences()),
        "pack_ffd": (q_pack_ffd, _sql_pack_ffd()),  # recursive-CTE fold
        "chunk_tokens": (q_chunk_tokens, _sql_chunk_tokens()),
        "top_tokens": (q_top_tokens, _sql_top_tokens()),
        "vocab_coverage": (q_vocab_coverage, _sql_vocab_coverage()),
        "doc_char_entropy": (q_doc_char_entropy, CHAR_ENTROPY_SQL),
        "tfidf_top_terms": (q_tfidf_top_terms, _sql_tfidf_top_terms()),
        "importance_weights": (q_importance_weights, _sql_importance_weights()),
        "importance_sample": (q_importance_sample, _sql_importance_sample()),
        "train_bigram_lm": (q_train_bigram_lm, _sql_train_bigram_lm()),
        "score_bigram_lm": (q_score_bigram_lm, _sql_score_bigram_lm()),
        "moore_lewis_select": (q_moore_lewis_select, _sql_moore_lewis()),
        "shuffle_shards": (q_shuffle_shards, _sql_shuffle_shards()),
        "split_assign": (q_split_assign, _sql_split_assign()),
        "split_leakage": (q_split_leakage, _sql_split_leakage()),
        "events_seasonality_index": (
            dec5.events_seasonality_index, dec5.EVENTS_SEASONALITY_SQL,
        ),
        "split_balance": (cor2.split_balance, cor2._split_balance_sql()),
        "phrase_search": (cor3.phrase_search, cor3.PHRASE_SEARCH_SQL),
        "kwic_concordance": (
            cor3.kwic_concordance, lambda: cor3._kwic_sql(),
        ),
        "dedup_containment": (cor3.containment_pairs, cor3.CONTAINMENT_SQL),
        "alpha_mixture_weights": (
            cor3.alpha_mixture_weights, cor3.ALPHA_MIXTURE_SQL,
        ),
        "source_quality_shrunk": (
            cor3.source_quality_shrunk,
            lambda: cor3._source_quality_shrunk_sql(),
        ),
        "conformal_outliers": (
            cor3.conformal_outliers, lambda: cor3._conformal_sql(),
        ),
        "source_quality_influence": (
            cor3.source_quality_influence,
            lambda: cor3._source_influence_sql(),
        ),
        "events_hourly_decomposition": (
            cor3.events_hourly_decomposition, cor3.EVENTS_DECOMP_SQL,
        ),
        "source_wasserstein_length": (
            cor3.source_wasserstein_length, cor3.SOURCE_WASSERSTEIN_SQL,
        ),
        "active_learning_pool": (
            cor3.active_learning_pool, lambda: cor3._active_learning_sql(),
        ),
        "corpus_manifest": (
            cor3.corpus_manifest, cor3.CORPUS_MANIFEST_SQL,
        ),
        "ivm_lang_tokens": (
            cor3.ivm_lang_tokens, lambda: cor3._ivm_lang_tokens_sql(),
        ),
        "neyman_allocation": (
            cor3.neyman_allocation, lambda: cor3._neyman_sqls()[0],
        ),
        "stratified_neyman_sample": (
            cor3.stratified_neyman_sample, lambda: cor3._neyman_sqls()[1],
        ),
        "source_spearman": (st.source_spearman, st._source_spearman_sql()),
        "events_mutual_info": (
            st.events_mutual_info, st.EVENTS_MUTUAL_INFO_SQL,
        ),
        "user_theil_index": (st.user_theil_index, st.USER_THEIL_SQL),
        "events_spectrum": (st.events_spectrum, st.EVENTS_SPECTRUM_SQL),
        "event_entropy_rate": (
            st.event_entropy_rate, st.EVENT_ENTROPY_RATE_SQL,
        ),
        # deferred for the same LM-export reason as gate_decisions
        "gate_classifier_auc": (
            q_gate_classifier_auc,
            lambda: _sql_gate_classifier_auc()
            .replace(
                "{flags_ctes}",
                _sql_gate_flags_ctes().strip().replace(
                    "{pages}", pages_cte()
                ),
            )
            .replace("{bpc_ctes}", _sql_bpc_ctes().strip())
            .replace("{keep_expr}", _sql_keep_expr()),
        ),
        "classifier_best_f1": (
            q_classifier_best_f1,
            lambda: _sql_classifier_best_f1()
            .replace(
                "{flags_ctes}",
                _sql_gate_flags_ctes().strip().replace(
                    "{pages}", pages_cte()
                ),
            )
            .replace("{bpc_ctes}", _sql_bpc_ctes().strip())
            .replace("{keep_expr}", _sql_keep_expr()),
        ),
        "gate_rule_examples": (
            q_gate_rule_examples,
            lambda: _sql_gate_rule_examples()
            .replace(
                "{flags_ctes}",
                _sql_gate_flags_ctes().strip().replace(
                    "{pages}", pages_cte()
                ),
            )
            .replace("{bpc_ctes}", _sql_bpc_ctes().strip()),
        ),
        "gate_rule_recovery": (
            q_gate_rule_recovery,
            lambda: _sql_gate_rule_recovery()
            .replace(
                "{flags_ctes}",
                _sql_gate_flags_ctes().strip().replace(
                    "{pages}", pages_cte()
                ),
            )
            .replace("{bpc_ctes}", _sql_bpc_ctes().strip()),
        ),
        "source_classifier_auc": (
            q_source_classifier_auc,
            lambda: _sql_source_classifier_auc()
            .replace(
                "{flags_ctes}",
                _sql_gate_flags_ctes().strip().replace(
                    "{pages}", pages_cte()
                ),
            )
            .replace("{bpc_ctes}", _sql_bpc_ctes().strip())
            .replace("{keep_expr}", _sql_keep_expr()),
        ),
        "gate_isotonic_calibration": (
            q_gate_isotonic_calibration,
            lambda: _sql_gate_isotonic_calibration()
            .replace(
                "{flags_ctes}",
                _sql_gate_flags_ctes().strip().replace(
                    "{pages}", pages_cte()
                ),
            )
            .replace("{bpc_ctes}", _sql_bpc_ctes().strip())
            .replace("{keep_expr}", _sql_keep_expr()),
        ),
        "gate_classifier_calibration": (
            q_gate_classifier_calibration,
            lambda: _sql_gate_classifier_calibration()
            .replace(
                "{flags_ctes}",
                _sql_gate_flags_ctes().strip().replace(
                    "{pages}", pages_cte()
                ),
            )
            .replace("{bpc_ctes}", _sql_bpc_ctes().strip())
            .replace("{keep_expr}", _sql_keep_expr()),
        ),
        "doc_sentences": (
            q_doc_sentences,
            _sql_doc_sentences().replace("{pages}", pages),
        ),
        "lang_source_rollup": (q_lang_source_rollup, SQL_LANG_SOURCE_ROLLUP),
        "length_outliers": (q_length_outliers, SQL_LENGTH_OUTLIERS),
        "bpe_merges": (q_bpe_merges, _sql_bpe_merges()),
        "bpe_token_counts": (q_bpe_token_counts, SQL_BPE_TOKEN_COUNTS),
        "dedup_embedding_pairs": (q_dedup_embedding_pairs, SQL_DEDUP_EMBEDDING),
        "dedup_embedding_lsh": (
            q_dedup_embedding_lsh, SQL_DEDUP_EMBEDDING_LSH,
        ),
        # skew: salted two-phase host aggregate
        "host_stats": (
            q_host_stats,
            HOST_COUNTS_SQL_TEMPLATE.replace("{pages}", pages),
        ),
        "crawl_disallowed": (
            q_crawl_disallowed,
            _sql_crawl_disallowed().replace("{pages}", pages),
        ),
        "top_quality_host_capped": (
            cor3.top_quality_host_capped,
            lambda: cor3._host_capped_sql().replace("{pages}", pages_cte()),
        ),
        "host_lorenz": (
            q_host_lorenz,
            HOST_LORENZ_SQL_TEMPLATE.replace("{pages}", pages)
            .replace("{host_re}", _skew_host_re()),
        ),
        "source_cvm_length": (st.source_cvm_length, st.SOURCE_CVM_LENGTH_SQL),
        "source_psi_chars": (st.source_psi_chars, st.SOURCE_PSI_SQL),
        "lang_simpson": (st.lang_simpson, st._lang_simpson_sql()),
        "lang_shannon": (st.lang_shannon, st._lang_shannon_sql()),
        "dedup_degree_hist": (q_dedup_degree_hist, SQL_DEDUP_DEGREE_HIST),
        "doc_token_novelty": (
            st.doc_token_novelty, st._doc_token_novelty_sql(),
        ),
        "events_temporal_gini": (
            st.events_temporal_gini, st.EVENTS_TEMPORAL_GINI_SQL,
        ),
        # corpus balancing: deterministic per-host quota sample
        "host_sample": (
            q_host_sample,
            _sql_host_sample().replace("{pages}", pages),
        ),
        "mixture_sample": (q_mixture_sample, _sql_mixture_sample()),
        # offline URL-status probe (actor pool + per-actor cache)
        "url_status": (
            q_url_status,
            _sql_url_status().replace("{pages}", pages),
        ),
        # corpus-frequency boilerplate line scrub
        "scrub_boilerplate": (
            q_scrub_boilerplate,
            _sql_scrub_boilerplate().replace("{pages}", pages),
        ),
        # similarity search
        "knn_cosine": (q_knn_cosine, SQL_KNN),
        "crosslingual_knn": (q_crosslingual_knn, SQL_CROSSLINGUAL_KNN),
        "crosslingual_knn_ivf": (
            q_crosslingual_knn_ivf, SQL_CROSSLINGUAL_KNN_IVF,
        ),
        "bitext_mine": (q_bitext_mine, SQL_BITEXT_MINE),
        "hard_negatives": (q_hard_negatives, SQL_HARD_NEGATIVES),
        "knn_ivf": (q_knn_ivf, SQL_KNN_IVF),
        "mmr_select": (q_mmr_select, _sql_mmr_select()),
        "knn_ndcg": (q_knn_ndcg, SQL_KNN_NDCG),
        "knn_quantized": (q_knn_quantized, SQL_KNN_QUANTIZED),
        "kmeans_clusters": (q_kmeans_clusters, SQL_KMEANS_CLUSTERS),
        "kmeans_margin": (q_kmeans_margin, SQL_KMEANS_MARGIN),
        "dedup_semantic": (q_dedup_semantic, SQL_DEDUP_SEMANTIC),
        "pca_embeddings": (q_pca_embeddings, SQL_PCA_EMBEDDINGS),
        # multimodal plumbing
        "multimodal_meta": (q_multimodal_meta, SQL_MULTIMODAL),
        "multimodal_resize": (q_multimodal_resize, SQL_MULTIMODAL_RESIZE),
        "multimodal_features": (q_multimodal_features, SQL_MULTIMODAL_FEATURES),
        # real codec paths — the deterministic fixtures let DuckDB
        # re-derive the whole encode→decode chain (no export needed);
        # the codec byte framing itself stays pinned by roundtrip
        # pytests (tests/test_multimodal.py)
        "multimodal_ppm_decode": (q_multimodal_ppm_decode, _sql_mm_image_stats(False)),
        "multimodal_phash_pairs": (
            q_multimodal_phash_pairs, _sql_mm_phash_pairs(),
        ),
        "multimodal_audio_fp_pairs": (
            q_multimodal_audio_fp_pairs, _sql_mm_audio_fp_pairs(),
        ),
        "multimodal_video_fp_pairs": (
            q_multimodal_video_fp_pairs, _sql_mm_video_fp_pairs(),
        ),
        "multimodal_mixed_decode": (q_multimodal_mixed_decode, _sql_mm_image_stats(True)),
        "multimodal_mixed_resize": (q_multimodal_mixed_resize, _sql_mm_mixed_resize()),
        "multimodal_wav_features": (q_multimodal_wav_features, _sql_mm_wav_features()),
        "multimodal_wav_resample": (q_multimodal_wav_resample, _sql_mm_wav_resample()),
        "multimodal_ppm_knn": (q_multimodal_ppm_knn, _sql_mm_knn()),
        "multimodal_mixed_knn": (q_multimodal_mixed_knn, _sql_mm_knn()),
        "multimodal_ppm_frames": (q_multimodal_ppm_frames, _sql_mm_ppm_frames()),
        # token counting (whitespace + BPE-style pretokenizer)
        "doc_bpe_tokens": (q_doc_bpe_tokens, _sql_bpe()),
        "lang_tokenizer_fertility": (
            q_lang_tokenizer_fertility, _sql_lang_fertility(),
        ),
    }
