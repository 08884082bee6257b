"""Rule-catalog tests, mirroring the reference's parametrized
trigger / non-trigger style (``test_p001.py:142-228``): every family
must fire its expected rules, clean rows must fire nothing, and the
result-shape invariants hold (``test_p001.py:230-240``)."""

from __future__ import annotations

import re
from collections import Counter
from unittest import mock

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmetacheck_ray.datagen import FAMILIES, generate_tables
from rsmetacheck_ray.functions import tokenize
from rsmetacheck_ray.functions.tokenize import ws_token_stats
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
def gated():
    pages, labels = generate_tables(3000)
    b = PerplexityScorer()(LangIdScorer()(extract_stage(pages)))
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
