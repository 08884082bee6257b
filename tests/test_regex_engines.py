"""The gate's full-pass scans run on polars' Rust regex engine, spelled
beside their RE2 originals (extract's tag passes, langid's marker
counts, and the rule context's query: the symbol count, every rule
predicate in ``PREDICATES``, the ``LAST_UPDATED_RE`` date and the
declaration lines that the metadata-line patterns run on). These
tests check that each Rust spelling finds exactly what its RE2 original
finds, and each extracted column exactly RE2's first match:
exhaustively over every non-surrogate codepoint in the positions
where the engines' classes, boundaries, case folding and line ends
could differ, and by Hypothesis on arbitrary text mixed with tags,
markers, addresses and declaration lines.

The ``*_is_necessary`` tests pin the spelling rules: with Rust's own
(Unicode) meaning of ``\\b``, ``\\s``, ``\\d`` or ``\\p{..}``, or with
``\\x7F`` dropped from the ASCII symbol class, the same inputs differ.
"""

from __future__ import annotations

import functools
import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmetacheck_ray.functions.arrowbuf import prefix_bytes, value_spans
from rsmetacheck_ray.stages import extract as E
from rsmetacheck_ray.stages import rules as R
from rsmetacheck_ray.stages.langid import LangIdScorer, marker_pattern

# every Unicode scalar value: 0..0x10FFFF without the surrogates
_CODEPOINTS = [chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]


def test_codepoint_count():
    assert len(_CODEPOINTS) == 1_112_064


@functools.cache
def _codepoint_array() -> pa.Array:
    return pa.array(_CODEPOINTS, pa.string())


def _around(template: str) -> pa.Array:
    """``template`` with every codepoint put in for each ``{c}``."""
    parts = template.split("{c}")
    pieces = [parts[0]]
    for part in parts[1:]:
        pieces += [_codepoint_array(), part]
    return pc.binary_join_element_wise(*pieces, "")


def _re2_tags(s: pa.Array) -> pa.Array:
    """The RE2 originals of the three tag passes, in the spec's order."""
    for pat in E._BLOCK_REMOVALS:
        s = pc.replace_substring_regex(s, pattern=pat, replacement="")
    s = pc.replace_substring_regex(s, pattern=E._NEWLINE_TAGS, replacement="\n")
    return pc.replace_substring_regex(s, pattern=E._ANY_TAG, replacement="")


def _re2_symbols(s: pa.Array) -> np.ndarray:
    return pc.fill_null(pc.count_substring_regex(s, R._SYMBOL_RE), 0).to_numpy(
        zero_copy_only=False)


def _re2_hits(s: pa.Array, pattern: str) -> np.ndarray:
    return pc.fill_null(pc.match_substring_regex(s, pattern), False).to_numpy(
        zero_copy_only=False)


def _re2_ip(s: pa.Array) -> np.ndarray:
    return _re2_hits(s, R.IP_RE)


def _n_chars(s: pa.Array) -> np.ndarray:
    """The langid stage's ``n_chars``: codepoints, 0 for a null."""
    return pc.fill_null(pc.utf8_length(s), 0).to_numpy(
        zero_copy_only=False).astype(np.int64)


def _scans(s: pa.Array):
    """The rule context's scans over ``s``, read as its text, url and
    lang columns alike: (symbol count, predicate hits, first matches,
    date)."""
    return R.full_pass_scans(s, s, s, _n_chars(s))


def _re2_first(s: pa.Array, pattern: str) -> pa.Array:
    return pc.struct_field(pc.extract_regex(s, f"(?P<m>{pattern})"), "m")


def _null_or_differs(a: pa.Array, b: pa.Array) -> np.ndarray:
    """Per row, whether ``a`` and ``b`` differ (a null equals a null)."""
    return (pc.fill_null(pc.not_equal(a, b), True).to_numpy(zero_copy_only=False)
            & ~(pc.is_null(a).to_numpy(zero_copy_only=False)
                & pc.is_null(b).to_numpy(zero_copy_only=False)))


def _query_differs(s: pa.Array, hits: dict, first: dict, last_updated: pa.Array,
                   pool: ThreadPoolExecutor | None = None) -> dict:
    """{pattern: the rows where it differs} over the scans that differ
    from their RE2 originals on the whole of ``s``: every hit (the
    ``PREDICATES`` columns and the ``LINE_PREDICATES`` run on the
    declaration lines), every first match (the ``MATCHED`` columns and
    the declaration-line values) and the date. The RE2 passes run on
    ``pool`` when one is given (Arrow's kernels drop the GIL)."""
    run = pool.map if pool else map
    patterns = [*R.PREDICATES, *R.LINE_PREDICATES]
    assert sorted(hits) == sorted(patterns)
    re2 = dict(zip(patterns, run(lambda p: _re2_hits(s, p), patterns)))
    bad = {p: np.flatnonzero(hits[p] != re2[p]) for p in patterns}
    re2_first = dict(zip(first, run(lambda p: _re2_first(s, p), first)))
    bad.update({("first", p): np.flatnonzero(_null_or_differs(first[p], re2_first[p]))
                for p in first})
    re2_date = pc.struct_field(pc.extract_regex(s, R.LAST_UPDATED_RE), "d")
    bad[R.LAST_UPDATED_RE] = np.flatnonzero(_null_or_differs(last_updated, re2_date))
    return {p: rows for p, rows in bad.items() if len(rows)}


def _re2_markers(s: pa.Array, scorer: LangIdScorer) -> np.ndarray:
    return np.stack([
        pc.fill_null(pc.count_substring_regex(s, pat), 0).to_numpy(zero_copy_only=False)
        for pat in scorer.patterns.values()
    ])


def _rust_markers(s: pa.Array, scorer: LangIdScorer) -> np.ndarray:
    """The scorer's marker counts over each whole value."""
    starts, lens = value_spans(s)
    return scorer._marker_hits(s, starts, starts + lens)


def _differs(a: np.ndarray, b: np.ndarray) -> str:
    """Empty when the per-codepoint results agree, else a summary."""
    bad = np.flatnonzero(a != b)
    return "" if not len(bad) else (
        f"{len(bad)} codepoints differ, first {[hex(ord(_CODEPOINTS[i])) for i in bad[:5]]}")


# --- exhaustive: every codepoint ------------------------------------------

def test_symbol_count_matches_re2_on_every_codepoint():
    """The ASCII class (polars) plus the non-ASCII class (RE2) counts
    what ``_SYMBOL_RE`` counts, for every codepoint alone and between
    a letter and a space."""
    for template in ("{c}", "a{c} "):
        s = _around(template)
        symbols, _, _, _ = _scans(s)
        assert not _differs(symbols, _re2_symbols(s)), template


def test_marker_counts_match_re2_on_every_codepoint():
    """Each language's marker count agrees next to every codepoint: the
    ASCII ``\\b`` on both sides of one marker of every language."""
    scorer = LangIdScorer()
    s = _around("{c}the{c}les{c}los{c}der{c}")
    rust, re2 = _rust_markers(s, scorer), _re2_markers(s, scorer)
    for k, lang in enumerate(scorer.patterns):
        assert not _differs(rust[k], re2[k]), lang


@pytest.mark.parametrize("template", ["{c}1.2.3.4{c}", "1.2.{c}.4"])
def test_ip_hit_matches_re2_on_every_codepoint(template):
    """The ``IP_RE`` hit agrees next to (``\\b``) and in place of
    (``\\d``) a digit, for every codepoint."""
    s = _around(template)
    _, hits, _, _ = _scans(s)
    assert not _differs(hits[R.IP_RE], _re2_ip(s))


_HEX40 = "0123456789abcdef0123456789abcdef01234567"


@pytest.mark.parametrize("template", [
    # \b on both sides
    "{c}hellspawn{c}",
    "{c}swh:1:rev:" + _HEX40 + "{c}",
    "License: x {c}GPL{c}",                  # and the versioned family's \d
    "Cite: x{c}10.1234/",
    # \d
    "10.{c}234/x",
    "+1-555-123-{c}567 ({c}55) 123-4567",    # each phone alternative
    "Version: {c}\nLast updated: {c}021-03-05\nIdentifier: 10.{c}/x",
    # \s inside classes
    "{c}10.1234/x",
    " 10.1234/{c}",
    "dual{c}licensed",
    # (?i) folding: ſ, K, İ, ı
    "licen{c}ed",
    "{c}opyright 2024, all right{c} reserved",
    # (?m) ^ and $ next to every codepoint, \r included
    "x{c}License: COPYING{c}Requires: abc{c}Status: www.x{c}Authors: a{c}Contributors: b",
])
def test_rule_predicates_match_re2_on_every_codepoint(template):
    """Every scan of the rule context (each Rust spelling in
    ``PREDICATES``, as a hit and, for ``MATCHED``, as its first match;
    the metadata-line patterns on the extracted declaration lines; the
    date extract), in one query over the template, agrees with its RE2
    original on the whole text for every codepoint put in where a
    changed construct reads it."""
    s = _around(template)
    _, hits, first, last_updated = _scans(s)
    with ThreadPoolExecutor(4) as pool:
        bad = _query_differs(s, hits, first, last_updated, pool)
    assert not bad, {p: (len(rows), [hex(ord(_CODEPOINTS[i])) for i in rows[:5]])
                     for p, rows in bad.items()}


@pytest.mark.parametrize("template", [
    "<br{c}>x",                  # \s inside <br ... >
    "<head{c}>a</head>b",        # \b after a block tag name
    "<{c}cript>a</script>b",     # (?i) on a block tag name (s: ſ)
    "</t{c}tle>x",               # (?i) on a newline tag name (i: İ, ı)
    "<p>{c}</p><{c}>x",          # `.` and [^>]
])
def test_tag_passes_match_re2_on_every_codepoint(template):
    s = _around(template)
    rust = E.strip_tags(s).to_pylist()
    re2 = _re2_tags(s).to_pylist()
    bad = [hex(ord(c)) for c, a, b in zip(_CODEPOINTS, rust, re2) if a != b]
    assert not bad, (len(bad), bad[:5])


# --- the regex budget --------------------------------------------------------

_REGEX_FNS = {"Contains", "CountMatches", "Extract", "ExtractAll", "Replace"}


def _rust_regexes(exprs) -> set[str]:
    """The distinct regex patterns that polars expressions run: the
    pattern argument of every non-literal regex string function in
    them, read from their serialized plans."""
    found: set[str] = set()

    def walk(node):
        if isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, dict):
            fn = node.get("Function")
            kind = fn["function"].get("StringExpr") if fn and isinstance(fn["function"], dict) else None
            if kind is not None:
                name, opts = (kind, None) if isinstance(kind, str) else next(iter(kind.items()))
                literal = opts is True or (isinstance(opts, dict) and opts.get("literal"))
                if name in _REGEX_FNS and not literal:
                    found.add(fn["input"][1]["Literal"]["Scalar"]["String"])
            for value in node.values():
                walk(value)

    for expr in exprs:
        walk(json.loads(expr.meta.serialize(format="json")))
    return found


def test_gate_regexes_fit_the_polars_regex_cache():
    """The gate's polars queries run at most 32 distinct regexes per
    batch: extract's tag passes, langid's marker counts and the rule
    context's query. Polars 1.42.1 keeps compiled regexes in a
    thread-local cache of 32 entries (``polars_utils::regex_cache``):
    with a 33rd pattern each one is evicted before its reuse, and every
    pattern recompiles on every batch (a 1-row query took 0.66 ms with
    32 distinct patterns and 9.5 ms with 33). The stages run their
    queries with ``select_seq``, on the task's own thread, so that one
    thread's cache serves them all."""
    patterns = _rust_regexes([E._TAG_PASSES, *LangIdScorer()._marker_counts, *R._FULL_PASSES])
    assert {E._ANY_TAG, R._SYMBOL_ASCII_RUST, R.DECL_LINE_RE, R.PREDICATES[R.IP_RE][1],
            R.PREDICATES[R.COPYRIGHT_RE][1]} <= patterns
    assert len(patterns) <= 32, len(patterns)


# --- the spelling rules are necessary --------------------------------------

def _polars_count(s: pa.Array, pattern: str) -> np.ndarray:
    return pl.from_arrow(s).str.count_matches(pattern).fill_null(0).to_numpy()


@pytest.mark.parametrize("name", [
    "plain_boundary_markers", "plain_boundary_ip", "unicode_digit_ip",
    "unicode_space_br", "ascii_class_without_del", "unicode_classes",
    "plain_boundary_toxicity", "unicode_digit_phone", "unicode_space_doi"])
def test_rust_spelling_is_necessary(name):
    """Each spelling rule matters: Rust's own reading of the RE2
    original differs from RE2 on the inputs the exhaustive tests use."""
    if name == "plain_boundary_markers":
        s = _around("{c}the{c}")
        assert _differs(_polars_count(s, marker_pattern("en", r"\b")),
                        _re2_markers(s, LangIdScorer())[0])
    elif name in ("plain_boundary_ip", "unicode_digit_ip"):
        s = _around("{c}1.2.3.4{c}" if name == "plain_boundary_ip" else "1.2.{c}.4")
        ip = R.PREDICATES[R.IP_RE][1]
        pat = ip.replace(r"(?-u:\b)", r"\b") if name == "plain_boundary_ip" \
            else ip.replace("[0-9]", r"\d")
        assert _differs(pl.from_arrow(s).str.contains(pat).to_numpy(), _re2_ip(s))
    elif name in ("plain_boundary_toxicity", "unicode_digit_phone", "unicode_space_doi"):
        template, pattern, rule = {
            "plain_boundary_toxicity": ("{c}hellspawn{c}", R.TOX_RE, (r"(?-u:\b)", r"\b")),
            "unicode_digit_phone": ("+1-555-123-{c}567", R.PHONE_RE, ("[0-9]", r"\d")),
            "unicode_space_doi": ("{c}10.1234/x", R.BARE_DOI_RE, (r"\t\n\f\r ", r"\s")),
        }[name]
        s = _around(template)
        pat = R.PREDICATES[pattern][1].replace(*rule)
        assert _differs(pl.from_arrow(s).str.contains(pat).to_numpy(), _re2_hits(s, pattern))
    elif name == "unicode_space_br":
        s = _around("<br{c}>x")
        chain = (pl.col("s").str.replace_all(E._BLOCK_REMOVAL_RUST, "")
                 .str.replace_all(E._NEWLINE_TAGS, "\n").str.replace_all(E._ANY_TAG, ""))
        rust = pl.DataFrame({"s": pl.from_arrow(s)}).select(chain).to_series().to_list()
        assert rust != _re2_tags(s).to_pylist()
    elif name == "ascii_class_without_del":
        s = _around("{c}")
        ascii_part = _polars_count(s, R._SYMBOL_ASCII_RUST.replace(r"{-\x7F", "{-~"))
        wide = pc.count_substring_regex(s, R._SYMBOL_NON_ASCII).to_numpy(zero_copy_only=False)
        assert _differs(ascii_part + wide, _re2_symbols(s))
    else:
        # Rust's Unicode tables place codepoints in \p{L}/\p{N} that
        # RE2's do not (and Rust's \s is Unicode): the symbol class stays
        # on RE2 outside ASCII
        s = _around("{c}")
        assert _differs(_polars_count(s, r"[^\p{L}\p{N}\t\n\f\r ]"), _re2_symbols(s))


# --- Hypothesis: arbitrary text with tags, markers and addresses -----------

_FRAGMENTS = [
    "<head>", "</head>", "<HEAD lang=x>", "<header>", "</HEADER>", "<script>",
    "</script>", "<SCRİPT>", "<ſcript>", "<style>", "</style>", "<nav>", "</nav>",
    "<footer>", "</footer>", "<headé>", "<br>", "<br/>", "<BR \t/>", "<br\v>",
    "<br\u00a0/>", "</p>", "</P>", "</h3>", "</H7>", "</li>", "</div>", "</tr>",
    "</title>", "</tıtle>", "</tİtle>", "<b>", "<", ">", "<>", "<a href='>'>",
    "the", "THE", "the,", "_the", "théa", "and", "was", "les", "dans", "los",
    "entre", "der", "nicht", "ſ", "K", "\u212a", "İ", "ı", "é", "٣", "\v",
    "\u00a0", "\x00", "\x7f", "\x1f", "!", "_", "1.2.3.4", "10.0.0.255",
    "1.2.3.4.5", "1234.5.6.7", "9.9.9", "1.2.3.٣", " ", "\n", "\t", "日本",
    "😀", "\u2028", "hellspawn", "hellspawns", "(555) 123-4567", "+1-555-123-4567",
    "10.1234/x", "(10.1234/x)", "swh:1:cnt:" + _HEX40, "\nLicense: ", "GPL",
    "BSD-3-Clause", "GPL-3", "\nCite: ", "\nIdentifier: ", "\nVersion: ",
    "Last updated: 2021-03-05", "dual-licensed", "licenſe", "Copyright 2020",
    "all rights reserved", " | Contact", "a@b.co", "https://", "<year>", "\r",
]
_DOC = st.one_of(
    st.none(),
    st.lists(st.one_of(st.sampled_from(_FRAGMENTS), st.text(max_size=4)),
             max_size=16).map("".join),
    st.text(max_size=24),
)


@settings(max_examples=300, deadline=None)
@given(docs=st.lists(_DOC, min_size=1, max_size=12),
       large=st.booleans(), cut=st.integers(0, 3), scan=st.integers(1, 40))
def test_rust_passes_match_re2(docs, large, cut, scan):
    """Every moved pass (each rule predicate and the date extract
    included) equals its RE2 original on any documents, as
    ``string`` or ``large_string`` and as a sliced array; marker counts
    also over a bounded prefix window, as langid reads them."""
    s = pa.array(docs, pa.large_string() if large else pa.string())
    s = s.slice(min(cut, len(s) - 1))
    assert E.strip_tags(s).to_pylist() == _re2_tags(s).to_pylist()
    assert E.strip_tags(s).type == s.type

    symbols, hits, first, last_updated = _scans(s)
    assert symbols.tolist() == _re2_symbols(s).tolist()
    assert not _query_differs(s, hits, first, last_updated)

    scorer = LangIdScorer()
    starts, lens = value_spans(s)
    window = scorer._marker_hits(s, starts, starts + prefix_bytes(s, lens, scan))
    expect = _re2_markers(pc.utf8_slice_codeunits(s, 0, scan), scorer)
    assert window.tolist() == expect.tolist()
