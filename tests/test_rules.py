"""Rule-catalog tests, mirroring the reference's parametrized
trigger / non-trigger style (``test_p001.py:142-228``): every family
must fire its expected rules, clean rows must fire nothing, and the
result-shape invariants hold (``test_p001.py:230-240``)."""

from __future__ import annotations

import json
import re
from collections import Counter
from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsmetacheck_ray.stages.rules as R
from rsmetacheck_ray.config import DEFAULT_CONFIG
from rsmetacheck_ray.datagen import FAMILIES, generate_tables
from rsmetacheck_ray.functions import tokenize
from rsmetacheck_ray.functions.hashing import hash_str_arrow_u128
from rsmetacheck_ray.functions.tokenize import ws_token_stats
from rsmetacheck_ray.sources.pages_from_documents import synthesize_pages
from rsmetacheck_ray.stages.extract import extract_stage
from rsmetacheck_ray.stages.langid import LangIdScorer
from rsmetacheck_ray.stages.perplexity import PerplexityScorer
from rsmetacheck_ray.stages.rules import (
    CATALOG,
    DROP_CODES,
    RULE_CODES,
    apply_scrub,
    rule_stage_fn,
)


@pytest.fixture(scope="module")
def scored():
    pages, labels = generate_tables(3000)
    return PerplexityScorer()(LangIdScorer()(extract_stage(pages))), pages, labels


@pytest.fixture(scope="module")
def gated(scored):
    b, pages, labels = scored
    return rule_stage_fn(b, with_rule_hits=True), pages, labels


def test_catalog_shape():
    assert len(RULE_CODES) == len(set(RULE_CODES))
    for rule in CATALOG:
        assert rule.severity in ("drop", "flag")
        assert rule.suggestion


@pytest.mark.parametrize("family,expected_rules,expected_keep",
                         [(f, r, k) for f, _, r, k in FAMILIES])
def test_family_fires_expected_rules(gated, family, expected_rules, expected_keep):
    out, pages, labels = gated
    fam = np.array(labels.column("family").to_pylist())
    m = fam == family
    assert m.any(), f"no {family} rows in fixture"
    keep = np.array(out.column("keep").to_pylist())[m]
    assert (keep == expected_keep).all()
    for code in expected_rules:
        hits = np.array(out.column(f"hit_{code}").to_pylist())[m]
        assert hits.all(), f"{family}: rule {code} did not fire on all rows"


def test_clean_rows_fire_nothing(gated):
    out, pages, labels = gated
    fam = np.array(labels.column("family").to_pylist())
    m = np.isin(fam, ["clean", "duplicate"])
    for code in RULE_CODES:
        hits = np.array(out.column(f"hit_{code}").to_pylist())[m]
        assert not hits.any(), f"rule {code} fired on clean rows"


def test_keep_is_negation_of_drop_rules(gated):
    out, _, _ = gated
    keep = np.array(out.column("keep").to_pylist())
    drop = np.zeros(len(keep), dtype=bool)
    for code in DROP_CODES:
        drop |= np.array(out.column(f"hit_{code}").to_pylist())
    assert (keep == ~drop).all()


def test_rule_hits_struct_matches_bool_columns(gated):
    out, _, _ = gated
    hits = out.column("rule_hits").to_pylist()
    for i in range(0, len(hits), 97):
        listed = {h["rule"] for h in hits[i]}
        from_cols = {c for c in RULE_CODES if out.column(f"hit_{c}")[i].as_py()}
        assert listed == from_cols


def test_scrub_matches_labels(gated):
    out, pages, labels = gated
    got = out.column("scrubbed_text").to_pylist()
    exp = labels.column("expected_scrubbed_text").to_pylist()
    assert got == exp


def test_rule_exception_isolation():
    """A crashing rule is skipped for the batch and recorded; the run
    continues (semantics of detect_pitfalls_main.py:356-358)."""
    import rsmetacheck_ray.stages.rules as R

    pages, _ = generate_tables(50)
    b = PerplexityScorer()(LangIdScorer()(extract_stage(pages)))
    broken = R.Rule("boom", "drop", "test", lambda ctx: 1 / 0, "boom")
    R.CATALOG.append(broken)
    R.RULE_CODES.append("boom")
    R.DROP_CODES.append("boom")
    try:
        out = R.rule_stage_fn(b)
        err = out.column("rule_errors")[0].as_py()
        assert err and "boom" in err
        assert not any(out.column("hit_boom").to_pylist())
        # other rules still evaluated
        assert "hit_empty_text" in out.column_names
    finally:
        R.CATALOG.remove(broken)
        R.RULE_CODES.remove("boom")
        R.DROP_CODES.remove("boom")


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("mail me at bob.smith+x@corp.example.org now", "mail me at <EMAIL> now"),
        ("call +1-555-123-4567 today", "call <PHONE> today"),
        ("call (555) 123-4567 today", "call <PHONE> today"),
        ("host 10.0.0.1 down", "host <IP> down"),
        ("that hellspawn thing", "that **** thing"),
        ("no pii here", "no pii here"),
        ("date 2021-03-05 is not a phone", "date 2021-03-05 is not a phone"),
    ],
)
def test_scrub_unit_cases(raw, expected):
    out = apply_scrub(pa.array([raw], pa.string()))
    assert out.to_pylist() == [expected]


_RE2_TOKEN = re.compile(r"[^\t\n\f\r ]+")


def _ws_token_stats_spec(texts: list, scan_chars: int, limit: int) -> dict:
    """Per-row reference for ``ws_token_stats``: tokens are runs of
    anything but RE2's ``\\s`` (``[\\t\\n\\f\\r ]``), null is ``""``,
    the top-bigram share looks at the first ``limit`` tokens of
    documents with at least 4, and lines split at ``"\\n"``."""
    n = len(texts)
    out = {
        "n_tokens": np.zeros(n, np.int64),
        "n_tokens_scan": np.zeros(n, np.int64),
        "top_bigram_frac": np.zeros(n, np.float64),
        "n_lines": np.zeros(n, np.int64),
        "dup_line_frac": np.zeros(n, np.float64),
    }
    for i, t in enumerate(texts):
        if not t:
            continue
        toks = _RE2_TOKEN.findall(t)
        out["n_tokens"][i] = len(toks)
        out["n_tokens_scan"][i] = len(_RE2_TOKEN.findall(t[:scan_chars]))
        lines = t.split("\n")
        out["n_lines"][i] = len(lines)
        if len(lines) > 1:
            out["dup_line_frac"][i] = 1.0 - len(set(lines)) / len(lines)
        if len(toks) >= 4:
            toks = toks[:limit]
            pairs = Counter(zip(toks, toks[1:]))
            out["top_bigram_frac"][i] = max(pairs.values()) / (len(toks) - 1)
    return out


def _assert_stats_equal(got: dict, exp: dict):
    assert set(got) == set(exp)
    for k in exp:
        assert got[k].dtype == exp[k].dtype, k
        assert np.array_equal(got[k], exp[k]), (k, got[k], exp[k])


def test_bigram_stats_vectorized_matches_reference():
    """The one-pass tokenizer reproduces the per-row spec exactly on
    newline/multi-space/empty/null edge cases, non-ASCII whitespace
    (not a separator under RE2) and the 512-token scan bound."""
    texts = [
        "",
        "a b a b a b a b",
        "one two three",             # <4 tokens -> no top_frac
        "x  y\tz   x y",             # runs of whitespace
        "l1\nl2\nl1\nl2\nl3",        # duplicate lines
        "single line no repeat here at all",
        "w " * 600,                  # exceeds the 512-token scan bound
        None,
        "red\vfox a red\xa0fox b red\u3000fox c red\u2003fox d",
        "ab",
        "",                          # empty between two joined tokens
        "cd",
        "\n",
    ]
    got = ws_token_stats(pa.array(texts, pa.string()), 2048, 512)
    _assert_stats_equal(got, _ws_token_stats_spec(texts, 2048, 512))


_WS_CHARS = ["\t", "\n", "\f", "\r", " ", "\v", "\xa0", "\u3000", "\u2003", "\x85"]
_DOC = st.one_of(
    st.none(),
    st.just(""),
    st.text(max_size=60),
    # few distinct tokens and lines, so pairs and lines repeat
    st.lists(
        st.sampled_from(_WS_CHARS + ["a", "b", "é", "日本", "the,"]), max_size=80
    ).map("".join),
    # over the 512-token bound
    st.builds(
        lambda unit, k: unit * k,
        st.sampled_from(["a b ", "w ", "x\ny ", "p\xa0q r "]),
        st.integers(130, 300),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(_DOC, max_size=8),
    large=st.booleans(),
    pad=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    scan_chars=st.sampled_from([3, 16, 2048]),
    limit=st.sampled_from([5, 512]),
    lexsort=st.booleans(),
)
def test_ws_token_stats_matches_spec(texts, large, pad, scan_chars, limit, lexsort):
    """Property: ``ws_token_stats`` equals the per-row spec on arbitrary
    unicode, for string and large_string, on a sliced array (offset
    != 0, neighbours that share the buffer), and through either sort of
    the pair keys (packed int64 or the lexsort used past its bound)."""
    typ = pa.large_string() if large else pa.string()
    arr = pa.array(["lead x"] * pad[0] + texts + ["tail y"] * pad[1], typ)
    arr = arr.slice(pad[0], len(texts))
    bound = 0 if lexsort else tokenize._INT64_KEYS
    with mock.patch.object(tokenize, "_INT64_KEYS", bound):
        got = ws_token_stats(arr, scan_chars, limit)
    _assert_stats_equal(got, _ws_token_stats_spec(texts, scan_chars, limit))


def test_repetition_uses_re2_whitespace_like_the_oracle(ray_session, tmp_path):
    """Engine vs DuckDB ``gate_decisions`` on documents whose repetition
    verdict depends on what counts as whitespace: a phrase glued by
    U+00A0 / U+3000 / U+2003 / U+0085 / \\v repeats as ONE ``\\S+`` token
    between distinct words, so no bigram repeats; splitting on Unicode
    whitespace would repeat its inner pair in every unit and drop it."""
    import duckdb
    import pyarrow.parquet as pq

    from rsmetacheck_ray.pipelines.queries import _sql_gate_decisions, q_gate_decisions
    from rsmetacheck_ray.sources.pages_from_documents import pages_cte

    from rsmetacheck_ray.functions.vocab import CONTENT

    glue = ["\xa0", "\u3000", "\u2003", "\x85", "\v"]
    texts = [
        " ".join(f"the{g}system {w}" for w in CONTENT["en"][:20])
        for g in glue + [" "]
    ]
    # the spec under Unicode splitting would call every doc repetitive
    for t in texts:
        toks = t.split()
        assert max(Counter(zip(toks, toks[1:])).values()) / (len(toks) - 1) > 0.2
    # page synthesis picks URL and injected text by doc_id mod 11 / 13;
    # ids 100-105 avoid the dead-URL and placeholder (drop) residues
    ids = list(range(100, 100 + len(texts)))
    docs = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(["en"] * len(texts)),
    })
    pq.write_table(docs, tmp_path / "documents.parquet")

    got = q_gate_decisions(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'"
    )
    exp = con.execute(_sql_gate_decisions().replace("{pages}", pages_cte())).df()
    cols = ["doc_id", "keep", "detected_lang", "n_tokens"]
    got = got[cols].sort_values("doc_id", ignore_index=True)
    exp = exp[cols].sort_values("doc_id", ignore_index=True)
    assert got["keep"].tolist() == exp["keep"].tolist()
    assert got["detected_lang"].tolist() == exp["detected_lang"].tolist()
    assert got["n_tokens"].tolist() == exp["n_tokens"].astype("int64").tolist()
    # the glued docs are kept; the space-separated control is not
    mine = got.set_index("doc_id").loc[ids, "keep"].tolist()
    assert mine == [True] * len(glue) + [False]


# --------------------------------------------------------------------------
# guarded scans, hit-row scrubbing and column-wise evidence
# --------------------------------------------------------------------------


def _stage_batch(texts: list, langs: list | None = None) -> pa.Table:
    """A rule-stage input batch over ``texts``, with the columns the
    langid and perplexity stages would attach."""
    n = len(texts)
    stats = ws_token_stats(
        pa.array(texts, pa.string()),
        DEFAULT_CONFIG.langid_scan_chars,
        DEFAULT_CONFIG.repetition_scan_tokens,
    )
    return pa.table(
        {
            "url": pa.array([f"https://site{i}.example.com/v1.{i}/x" for i in range(n)]),
            "warc_ts": pa.array([1_672_531_200_000_000] * n, pa.timestamp("us")),
            "extracted_text": pa.array(texts, pa.string()),
            "lang": pa.array(langs or ["en"] * n, pa.string()),
            "n_chars": pa.array([len(t or "") for t in texts], pa.int64()),
            "stopword_hits": pa.array([0] * n, pa.int64()),
            "stopword_lang": pa.array([None] * n, pa.string()),
            "detected_lang": pa.array(["und"] * n, pa.string()),
            "langid_conf": pa.array([0.0] * n, pa.float64()),
            "bits_per_char": pa.array([1.0] * n, pa.float64()),
            **{k: pa.array(v) for k, v in stats.items()},
        }
    )


def _assemble_spec(n: int, values: dict) -> list:
    """Row-by-row evidence assembly: ``values`` is {code: {row: value}};
    each row with a value gets ``json.dumps`` of its {code: value} dict
    with sorted keys, every other row null."""
    by_row: dict[int, dict[str, str]] = {}
    for code, rows in values.items():
        for i, v in rows.items():
            by_row.setdefault(i, {})[code] = v
    return [json.dumps(by_row[i], sort_keys=True) if i in by_row else None
            for i in range(n)]


def _evidence_json_spec(batch: pa.Table) -> list:
    """Per-row reference for ``evidence_json``: each fired rule's
    provider value, cut with Python's ``v[:160]``, assembled row by
    row."""
    out = rule_stage_fn(batch, DEFAULT_CONFIG)
    ctx = R.build_context(batch, DEFAULT_CONFIG)
    values = {}
    for code, evfn in R.EVIDENCE.items():
        idx = np.flatnonzero(out.column(f"hit_{code}").to_numpy(zero_copy_only=False))
        if len(idx):
            vals = evfn(ctx, idx).to_pylist()
            values[code] = {int(i): v[:R._EVIDENCE_MAX_CHARS]
                            for i, v in zip(idx, vals) if v is not None}
    return _assemble_spec(len(batch), values)


_CHAR = st.characters(codec="utf-8")  # any encodable character

# characters json.dumps escapes or that straddle byte/codepoint limits
_TRICKY = ['"', "\\", "\x00", "\x01", "\x1f", "\t", "\r", "\x7f", "é", "日",
           "😀", "\U0010ffff", " ", "/"]
_VALUE = st.one_of(
    st.just(""),
    st.text(st.one_of(st.sampled_from(_TRICKY), _CHAR), max_size=30),
    # long enough that the 160-codepoint cut lands inside a run of
    # multi-byte (or escaped) characters
    st.builds(lambda k, c: "x" * k + c * 30, st.integers(120, 170),
              st.sampled_from(["é", "日", "😀", '"', "a"])),
)


def _evidence_doc(kind: str, v: str) -> str:
    v = v.replace("\n", " ")
    return {
        "license": "License: ./" + v,
        "status": "Status: " + v + " https://example.org",
        "authors": "Authors: " + v + "\nContributors: a, b, c, d",
        "plain": v,
        "empty": "",
    }[kind]


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["license", "status", "authors", "plain", "empty"]),
              _VALUE, st.sampled_from(["en", "en, fr", "de; ", "x and y"]),
              _VALUE),
    min_size=1, max_size=8,
))
def test_evidence_json_matches_row_by_row_spec(rows):
    """The column-wise ``evidence_json`` equals the row-by-row
    ``json.dumps(sort_keys=True)`` assembly byte for byte: values with
    quotes, backslashes, control characters, DEL, non-ASCII and astral
    characters, a 160-codepoint cut through multi-byte characters, and
    rows with no evidence at all."""
    texts = [_evidence_doc(kind, v) for kind, v, _, _ in rows]
    langs = [lang + extra.replace("\x00", "") for _, _, lang, extra in rows]
    batch = _stage_batch(texts, langs)
    got = rule_stage_fn(batch, DEFAULT_CONFIG, with_evidence=True)
    assert got.column("evidence_json").to_pylist() == _evidence_json_spec(batch)


def test_evidence_json_skips_rows_whose_fragments_are_all_null():
    """Rows where rules fired but no provider found a value get null,
    and their neighbours keep their own evidence. pyarrow 16's skip-null
    join drops an all-null row instead of emitting null, which would
    shift every later row."""
    payload = {
        "too_short": (np.array([0, 1, 2, 3]), pa.array(["x", None, "y", None])),
        "pii_email": (np.array([1, 2, 4]), pa.array([None, "", None])),
    }
    assert R._evidence_json(payload, 6).to_pylist() == [
        '{"too_short": "x"}', None, '{"pii_email": "", "too_short": "y"}',
        None, None, None,
    ]
    assert R._evidence_json({}, 2).to_pylist() == [None, None]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 10), data=st.data())
def test_evidence_json_assembly_matches_spec(n, data):
    """``_evidence_json`` on any payload: any subset of rules, any fired
    rows, null (no value found) and empty-string values."""
    codes = data.draw(st.lists(st.sampled_from(RULE_CODES), unique=True, max_size=6))
    payload, values = {}, {}
    for code in codes:
        rows = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        vals = data.draw(st.lists(st.one_of(st.none(), _VALUE),
                                  min_size=len(rows), max_size=len(rows)))
        payload[code] = (np.array(rows, np.int64), pa.array(vals, pa.string()))
        values[code] = {i: v for i, v in zip(rows, vals) if v is not None}
    assert R._evidence_json(payload, n).to_pylist() == _assemble_spec(n, values)


def _re2_hits(arr: pa.Array, pattern: str) -> np.ndarray:
    return pc.fill_null(pc.match_substring_regex(arr, pattern), False).to_numpy(
        zero_copy_only=False
    )


def _re2_first(arr: pa.Array, pattern: str) -> list:
    return pc.struct_field(pc.extract_regex(arr, f"(?P<m>{pattern})"), "m").to_pylist()


def _assert_query_matches_re2(texts: pa.Array) -> dict:
    """Every scan of the rule context over ``texts`` (read as the text,
    url and lang columns alike) equals its RE2 original on the whole of
    ``texts``: each ``PREDICATES`` hit and ``LINE_PREDICATES`` hit, each
    first match (the ``MATCHED`` columns and the declaration-line
    values) and the ``LAST_UPDATED_RE`` date. Returns the hits."""
    n_chars = pc.fill_null(pc.utf8_length(texts), 0).to_numpy(zero_copy_only=False)
    _, hits, first, last_updated = R.full_pass_scans(texts, texts, texts, n_chars)
    assert sorted(hits) == sorted([*R.PREDICATES, *R.LINE_PREDICATES])
    for pattern in hits:
        assert hits[pattern].tolist() == _re2_hits(texts, pattern).tolist(), pattern
    assert sorted(first) == sorted([*R.MATCHED, *R.DECL_LINE.values(), R.VERSION_LINE_RE])
    for pattern, got in first.items():
        assert got.to_pylist() == _re2_first(texts, pattern), pattern
    re2_date = pc.struct_field(pc.extract_regex(texts, R.LAST_UPDATED_RE), "d")
    assert last_updated.to_pylist() == re2_date.to_pylist()
    return hits


# RE2 folds U+017F to s and U+212A to k under (?i); \r is no line end
_EDGE_CHARS = ["\r", "\n", "\u017f", "\u212a", "\x00", "K", "S", "\u0130", "\u0131"]
_EDGE_TEXT = st.text(st.one_of(st.sampled_from(_EDGE_CHARS), _CHAR), max_size=40)
_EDGE = st.sampled_from(["\r\n", ""] + _EDGE_CHARS)
_ASCII = st.characters(max_codepoint=127)
_QUERY_PATTERNS = [*R.PREDICATES, *R.LINE_PREDICATES, R.LAST_UPDATED_RE]


def _text_for(pattern: str):
    return st.one_of(
        st.from_regex(pattern, alphabet=_CHAR),
        st.from_regex(pattern, alphabet=_ASCII),
        _EDGE_TEXT,
        st.tuples(st.text(max_size=5), st.from_regex(pattern, alphabet=_ASCII), _EDGE)
        .map("".join),
    )


@pytest.mark.parametrize("pattern", _QUERY_PATTERNS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_query_columns_match_re2(pattern, data):
    """Property: the polars query's columns equal RE2's matches of the
    originals, on strings generated from each pattern and on arbitrary
    unicode with case-folding, line-end and null edges."""
    texts = data.draw(st.lists(st.one_of(st.none(), _text_for(pattern)),
                               min_size=1, max_size=8))
    _assert_query_matches_re2(pa.array(texts, pa.string()))


def _scrubbed(pattern: str, replacement: str):
    return lambda arr: pc.not_equal(
        pc.replace_substring_regex(arr, pattern=pattern, replacement=replacement), arr)


def _extracted(pattern: str):
    return lambda arr: pc.is_valid(pc.extract_regex(arr, pattern))


# the RE2 work whose value is read on a predicate's hit rows only, keyed
# by that predicate: (the pattern the work runs, per row whether it
# finds anything). The scrub replaces on scrub-hit rows
# (``_scrub_rows``); the author-count rule compares the author lines
# where both line predicates hit, and the version rule reads
# VERSION_LINE_RE's match on its VERSION_LINE_HAS_RE hits.
_HIT_ROW_WORK = {
    **{pat: (pat, _scrubbed(pat, repl)) for _, pat, repl in R.SCRUBS},
    R.AUTHORS_LINE_RE: (R.AUTHORS_LINE_RE, _extracted(R.AUTHORS_LINE_RE)),
    R.CONTRIB_LINE_RE: (R.CONTRIB_LINE_RE, _extracted(R.CONTRIB_LINE_RE)),
    R.VERSION_LINE_HAS_RE: (R.VERSION_LINE_RE, _extracted(R.VERSION_LINE_RE)),
}


@pytest.mark.parametrize("pattern", list(_HIT_ROW_WORK))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_prefilter_literal_is_necessary(pattern, data):
    """Property: a predicate's query column is a necessary condition of
    the RE2 work that runs on its hit rows only, so the rows it leaves
    out lose nothing: wherever that work finds a match, the column
    holds. On strings generated from both patterns and on arbitrary
    unicode with case-folding, line-end and null edges."""
    work_pattern, work = _HIT_ROW_WORK[pattern]
    texts = data.draw(st.lists(
        st.one_of(st.none(), _text_for(pattern), _text_for(work_pattern)),
        min_size=1, max_size=8))
    arr = pa.array(texts, pa.string())
    n_chars = pc.fill_null(pc.utf8_length(arr), 0).to_numpy(zero_copy_only=False)
    _, hits, _, _ = R.full_pass_scans(arr, arr, arr, n_chars)
    found = pc.fill_null(work(arr), False).to_numpy(zero_copy_only=False)
    assert not (found & ~hits[pattern]).any()


_LINE_VALUES = ["", "GPL", "GPL-3.0", "BSD-3-Clause", "MIT OR GPL", "./LICENSE", "COPYING",
                "a, b", "https://x.org", "10.1234/x", "doi:10.1/x", "1.2", "v1", "1.2.3",
                " 0BSD", "LicenseRef-x", "www.x", "x\r", "\u212a"]
_DECL = st.sampled_from(R.DECL_ANCHORS)
_LINE = st.one_of(
    st.tuples(_DECL, st.sampled_from([": ", ":", ":  "]), st.sampled_from(_LINE_VALUES))
    .map("".join),
    # an anchor mid-line, and other lines
    st.tuples(st.text(min_size=1, max_size=3), _DECL, st.just(": x")).map("".join),
    st.text(max_size=8),
)
_DECL_TEXT = st.tuples(st.lists(_LINE, max_size=8), st.sampled_from(["\n", "\r\n"]),
                       st.sampled_from(["", "\n"])).map(lambda t: t[1].join(t[0]) + t[2])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.none(), _DECL_TEXT), min_size=1, max_size=8))
def test_declaration_line_route_matches_re2(texts):
    """Property: the metadata-line route (one polars extract of the
    declaration lines, then each RE2 original on its own anchor's
    lines) equals RE2 on the whole text: every ``LINE_PREDICATES`` hit,
    the first ``(?m)^Anchor: [^\\n]*`` line of each anchor (the rules'
    evidence) and ``VERSION_LINE_RE``'s first match, which is the first
    ``Version:`` line that starts with a digit, not always the first
    ``Version:`` line. On multi-line texts with anchors mid-line,
    ``\\r\\n`` line ends, empty values, a last line without ``\\n``,
    repeated anchors and nulls."""
    arr = pa.array(texts, pa.string())
    n_chars = pc.fill_null(pc.utf8_length(arr), 0).to_numpy(zero_copy_only=False)
    _, hits, first, _ = R.full_pass_scans(arr, arr, arr, n_chars)
    for pattern in R.LINE_PREDICATES:
        assert hits[pattern].tolist() == _re2_hits(arr, pattern).tolist(), pattern
    for pattern in [*R.DECL_LINE.values(), R.VERSION_LINE_RE]:
        assert first[pattern].to_pylist() == _re2_first(arr, pattern), pattern


# declaration lines the injected pages lack: the negative sides of the
# metadata rules (URL and exempt licenses, a multi-license line, valid
# identifiers)
_NEAR_MISSES = [
    "x\nLicense: https://example.org/l", "x\nLicense: 0BSD",
    "x\nLicense: MIT OR GPL-3.0", "x\nIdentifier: doi:10.5281/zenodo.1",
    "x\nCite: see 10.5281/zenodo.1",
]


def test_query_columns_match_re2_on_the_corpora(scored):
    """The same equality over the datagen pages and the trigger-injected
    driver pages (their texts, urls and langs), where every predicate
    fires."""
    docs = pa.table({
        "doc_id": pa.array(range(260), pa.int64()),
        "text": pa.array(["the quick brown fox near the river bank"] * 260),
        "lang": pa.array(["en"] * 260),
    })
    pages = synthesize_pages(docs)
    texts = pa.concat_arrays([
        *(scored[0].column(c).combine_chunks().cast(pa.string())
          for c in ("extracted_text", "url", "lang")),
        *(pages.column(c).combine_chunks().cast(pa.string()) for c in ("text", "url", "lang")),
        pa.array(_NEAR_MISSES),
    ])
    hits = _assert_query_matches_re2(texts)
    assert all(hit.any() for hit in hits.values()), [p for p, hit in hits.items() if not hit.any()]


_MIXED = st.lists(
    st.one_of(*[st.from_regex(p, alphabet=_ASCII) for p in _QUERY_PATTERNS], _EDGE_TEXT),
    max_size=6,
).flatmap(lambda parts: st.sampled_from(["\n", " ", ""]).map(lambda sep: sep.join(parts)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.none(), _MIXED), min_size=1, max_size=8), st.booleans())
def test_query_columns_match_re2_on_mixed_text(texts, large):
    """Every predicate at once over documents joining several patterns'
    matches, as ``string`` and ``large_string``."""
    _assert_query_matches_re2(pa.array(texts, pa.large_string() if large else pa.string()))


_FULL_PASS_SCANS = R.full_pass_scans


def _re2_scans(text, url, lang, n_chars):
    """``full_pass_scans`` with every predicate, first match and the
    ``Last updated:`` date run as its own full RE2 pass of the original
    pattern over the whole column."""
    symbols, _, _, _ = _FULL_PASS_SCANS(text, url, lang, n_chars)
    cols = {"text": text, "url": url, "lang": lang}
    hits = {p: _re2_hits(cols[col], p) for p, (col, _) in R.PREDICATES.items()}
    hits.update({p: _re2_hits(text, p) for p in R.LINE_PREDICATES})
    first = {p: pa.array(_re2_first(cols[R.PREDICATES[p][0]], p), pa.string()) for p in R.MATCHED}
    first.update({p: pa.array(_re2_first(text, p), pa.string())
                  for p in [*R.DECL_LINE.values(), R.VERSION_LINE_RE]})
    return symbols, hits, first, pc.struct_field(pc.extract_regex(text, R.LAST_UPDATED_RE), "d")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.none(), _MIXED), min_size=1, max_size=8))
def test_guarded_stage_equals_unguarded_passes(texts):
    """With every predicate and first match run as its own full RE2
    pass, the stage gives the same hit columns, keep, scrubbed text and
    evidence as the one polars query, the declaration-line route and
    the RE2 work on hit rows only."""
    batch = _stage_batch(texts)
    got = rule_stage_fn(batch, DEFAULT_CONFIG, with_evidence=True)
    with mock.patch.object(R, "full_pass_scans", _re2_scans):
        exp = rule_stage_fn(batch, DEFAULT_CONFIG, with_evidence=True)
    for name in [f"hit_{c}" for c in RULE_CODES] + [
        "keep", "scrubbed_text", "evidence_json", "rule_errors",
    ]:
        assert got.column(name).to_pylist() == exp.column(name).to_pylist(), name


def test_rule_stage_runs_no_re2_pass_over_the_batch(monkeypatch):
    """Every whole-text regex predicate is a column of the one polars
    query: on an ASCII batch where no rule fires, no RE2 kernel is
    handed an array of the batch's length (a predicate that drifted
    back to its own RE2 pass would be). RE2 runs only on the extracted
    declaration lines and on fired or hit rows."""
    from rsmetacheck_ray.functions.vocab import CONTENT

    words = CONTENT["en"]
    texts = [" ".join(words[(i + k * 7) % len(words)] for k in range(12)) for i in range(64)]
    calls: list[tuple[str, int]] = []

    def recorder(name):
        kernel = getattr(pc, name)

        def record(values, *args, **kwargs):
            calls.append((name, len(values)))
            return kernel(values, *args, **kwargs)

        return record

    for name in ("match_substring_regex", "extract_regex", "count_substring_regex",
                 "replace_substring_regex"):
        monkeypatch.setattr(pc, name, recorder(name))
    batch = _stage_batch(texts)
    out = rule_stage_fn(batch, DEFAULT_CONFIG, with_evidence=True)
    assert not any(out.column(f"hit_{c}").to_numpy(zero_copy_only=False).any()
                   for c in RULE_CODES)
    assert not [c for c in calls if c[1] == len(batch)], calls
    # the recorders see the RE2 work on the declaration lines: one row's
    # author lines, each run on its own anchor's one line
    texts[3] += "\nAuthors: a, b\nContributors: c"
    rule_stage_fn(_stage_batch(texts), DEFAULT_CONFIG, with_evidence=True)
    assert ("match_substring_regex", 1) in calls


@pytest.mark.parametrize("write_dropped_text", [False, True])
def test_rule_stage_text_layouts(write_dropped_text):
    """The written text layouts against a full ``apply_scrub``: with
    ``write_dropped_text`` every row, dropped ones included, carries the
    fully scrubbed text and its content hash; without it dropped rows
    are null (and hash as the empty string)."""
    from rsmetacheck_ray.pipelines.quality_gate import _RuleStage

    # every trigger injection, on pages long enough to keep and on
    # pages too short to keep
    docs = pa.table({
        "doc_id": pa.array(range(52), pa.int64()),
        "text": pa.array([
            "a plain page" if i % 2 else
            "the quick brown fox was seen near the river bank with enough words"
            for i in range(52)
        ]),
        "lang": pa.array(["en"] * 52),
    })
    batch = _stage_batch(synthesize_pages(docs).column("text").to_pylist())
    out = _RuleStage(DEFAULT_CONFIG, write_dropped_text)(batch)
    text = batch.column("extracted_text").combine_chunks()
    full = apply_scrub(text)
    keep = out.column("keep").to_numpy(zero_copy_only=False)
    # dropped rows with a scrub hit exist, so the layouts differ
    changed = pc.not_equal(full, text).to_numpy(zero_copy_only=False)
    assert (changed & ~keep).any() and (changed & keep).any()
    exp = full if write_dropped_text else pc.if_else(
        pa.array(keep), full, pa.scalar(None, pa.string())
    )
    assert out.column("scrubbed_text").to_pylist() == exp.to_pylist()
    lo, hi = hash_str_arrow_u128(exp)
    assert out.column("content_hash").to_pylist() == lo.astype(np.int64).tolist()
    assert out.column("content_hash2").to_pylist() == hi.astype(np.int64).tolist()
