"""Extraction invariant: byte-identical text per url
(``BASELINE.json.input_hint``), plus unit cases in the reference's
dict-in/dict-out parametrized style (``test_p001.py:13-77``)."""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmetacheck_ray.datagen import generate_tables
from rsmetacheck_ray.stages import extract as E
from rsmetacheck_ray.stages.extract import extract_stage, extract_text_array


def test_extraction_matches_text_column_byte_identical():
    pages, _ = generate_tables(2000)
    out = extract_stage(pages)
    ext = out.column("extracted_text").to_pylist()
    txt = pages.column("text").to_pylist()
    assert ext == txt


def test_extraction_deterministic_across_calls():
    pages, _ = generate_tables(300)
    a = extract_stage(pages).column("extracted_text").to_pylist()
    b = extract_stage(pages).column("extracted_text").to_pylist()
    assert a == b


def test_html_column_dropped():
    pages, _ = generate_tables(10)
    out = extract_stage(pages)
    assert "html" not in out.column_names
    assert "extracted_text" in out.column_names


@pytest.mark.parametrize(
    "html,expected",
    [
        (b"<html><body><p>hello world</p></body></html>", "hello world"),
        (b"<html><head><title>T</title></head><body><h1>A</h1><p>b</p></body></html>", "A\nb"),
        (b"<body><script>var x=1;</script><p>keep</p></body>", "keep"),
        (b"<body><style>p{}</style><p>keep</p></body>", "keep"),
        (b"<body><nav>Home</nav><p>keep</p><footer>foot</footer></body>", "keep"),
        (b"<body><p>a &amp; b &lt;c&gt;</p></body>", "a & b <c>"),
        (b"<body><p>  spaced   out  </p></body>", "spaced out"),
        (b"<body><p>l1</p><p></p><p>l2</p></body>", "l1\nl2"),
        (b"", ""),
        (b"plain text no tags", "plain text no tags"),
    ],
)
def test_extract_unit_cases(html, expected):
    arr = pa.array([html], pa.binary())
    out = extract_text_array(arr)
    assert out.to_pylist() == [expected]


def test_null_html_falls_back_to_text_column():
    t = pa.table(
        {
            "url": ["u1"],
            "warc_ts": pa.array([0], pa.timestamp("us")),
            "html": pa.array([None], pa.binary()),
            "text": ["fallback text"],
            "lang": ["en"],
        }
    )
    out = extract_stage(t)
    assert out.column("extracted_text").to_pylist() == ["fallback text"]


# --- guarded passes ----------------------------------------------------------

def _spec_extract(html: pa.Array) -> pa.Array:
    """The extraction spec as an unguarded pass list: every pass over
    every row (the module's layout before its passes were guarded)."""
    s = pc.cast(html, pa.string()) if pa.types.is_binary(html.type) else html
    for pat in E._BLOCK_REMOVALS:
        s = pc.replace_substring_regex(s, pattern=pat, replacement="")
    s = pc.replace_substring_regex(s, pattern=E._NEWLINE_TAGS, replacement="\n")
    s = pc.replace_substring_regex(s, pattern=E._ANY_TAG, replacement="")
    for ent, repl in E._ENTITIES:
        s = pc.replace_substring(s, pattern=ent, replacement=repl)
    s = pc.replace_substring_regex(s, pattern=r"[ \t\r]{2,}|[\t\r]", replacement=" ")
    s = pc.replace_substring_regex(s, pattern=r"(?m)^ +| +$", replacement="")
    s = pc.replace_substring_regex(s, pattern=r"\n{2,}", replacement="\n")
    s = pc.replace_substring_regex(s, pattern=r"^\n|\n$", replacement="")
    return s


# pieces the passes act on: every entity, a bare `&`, tabs, CRs, space
# and newline runs, tags, and non-ASCII text
_PIECES = [e for e, _ in E._ENTITIES] + [
    "&", "&amp;lt;", "&&", "\t", "\r", "\r\n", " ", "  ", "   ", "\n", "\n\n",
    "\n \n", " \n ", "<p>", "</p>", "<br/>", "<script>x</script>", "<b>",
    "a", "word", "é", "日本", "\u00a0", "\u2028", "😀",
]
_DOC = st.one_of(
    st.none(),
    st.lists(st.sampled_from(_PIECES), max_size=12).map("".join),
    st.text(alphabet=st.sampled_from("ab &;\t\r\n é"), max_size=20),
    st.text(max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(docs=st.lists(_DOC, min_size=1, max_size=10))
def test_guarded_extract_matches_spec(docs):
    """The guarded passes give the spec's output on any documents:
    entities, a bare `&`, tabs, CRs, space runs, newline runs at both
    edges, empty, null and non-ASCII, as strings and as bytes."""
    arr = pa.array(docs, pa.string())
    assert E.extract_text_array(arr).to_pylist() == _spec_extract(arr).to_pylist()
    raw = pc.cast(arr, pa.binary())
    assert E.extract_text_array(raw).to_pylist() == _spec_extract(arr).to_pylist()


def _guarded_passes():
    yield E._ENTITY_GUARDS, E._unescape
    for pat, repl, guards in E._WS_PASSES:
        yield guards, functools.partial(
            pc.replace_substring_regex, pattern=pat, replacement=repl)


@pytest.mark.parametrize(
    "guards,fn", list(_guarded_passes()),
    ids=["entities", "space_runs", "line_edges", "newline_runs"])
@settings(max_examples=200, deadline=None)
@given(docs=st.lists(_DOC, min_size=1, max_size=10))
def test_extract_guard_is_necessary(guards, fn, docs):
    """Property: wherever a guarded pass changes a document, one of its
    guards matches it, so skipping the other rows is exact."""
    arr = pa.array(docs, pa.string())
    changed = pc.fill_null(pc.not_equal(fn(arr), arr), False).to_numpy(
        zero_copy_only=False)
    guarded = np.logical_or.reduce([
        pc.fill_null(pc.match_substring_regex(arr, g), False).to_numpy(
            zero_copy_only=False)
        for g in guards
    ])
    assert not (changed & ~guarded).any()
