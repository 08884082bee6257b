"""Language-ID scorer: accuracy on pool text + unit edge cases."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmetacheck_ray.config import DEFAULT_CONFIG
from rsmetacheck_ray.datagen import generate_tables
from rsmetacheck_ray.functions.arrowbuf import prefix_bytes, value_spans
from rsmetacheck_ray.stages.extract import extract_stage
from rsmetacheck_ray.stages.langid import LangIdScorer, cjk_counts


def _mk(texts, langs=None):
    n = len(texts)
    t = pa.table(
        {
            "url": [f"u{i}" for i in range(n)],
            "warc_ts": pa.array([0] * n, pa.timestamp("us")),
            "lang": langs if langs is not None else ["en"] * n,
            "extracted_text": texts,
        }
    )
    return t


def test_detects_each_language():
    sc = LangIdScorer()
    out = sc(
        _mk(
            [
                "the system and value was that table with stream this record from engine",
                "les valeur des fichier est chaine dans nombre pour requete avec ligne",
                "los valor las archivo una cadena por numero como consulta pero linea",
                "der wert die datei und kette ist nummer ein anfrage mit zeile",
                "数据系统表值流窗口查询批向量结果引擎列网络",
            ],
            ["en", "fr", "es", "de", "zh"],
        )
    )
    assert out.column("detected_lang").to_pylist() == ["en", "fr", "es", "de", "zh"]


def test_empty_and_unknown_are_und():
    sc = LangIdScorer()
    out = sc(_mk(["", "zzz qqq xxx www vvv"], [None, None]))
    assert out.column("detected_lang").to_pylist() == ["und", "und"]


def test_fixture_detection_accuracy():
    pages, labels = generate_tables(1500)
    out = LangIdScorer()(extract_stage(pages))
    det = np.array(out.column("detected_lang").to_pylist())
    decl = np.array([d or "" for d in pages.column("lang").to_pylist()])
    fam = np.array(labels.column("family").to_pylist())
    clean = np.isin(fam, ["clean", "duplicate", "pii_email", "pii_phone", "pii_ip", "toxic"])
    assert (det[clean] == decl[clean]).mean() >= 0.995


def test_stopword_basis_falls_back_to_declared():
    sc = LangIdScorer()
    # content-only English: detection is und, stopword basis = declared en
    out = sc(_mk(["system value table stream record engine column"], ["en"]))
    assert out.column("detected_lang").to_pylist() == ["und"]
    assert out.column("stopword_lang").to_pylist() == ["en"]
    assert out.column("stopword_hits").to_pylist() == [0]


def test_union_pass_matches_per_language_counts():
    """The stage's windowed marker counts (``stopword_hits``, and the
    densities behind ``langid_conf``) equal one RE2 pass per language
    over ``utf8_slice_codeunits(text, 0, langid_scan_chars)``. A window
    that cuts "there" to "the" counts ``the``; a marker wholly past the
    window does not count."""
    scan = DEFAULT_CONFIG.langid_scan_chars
    texts = [
        "the system and the value was here",
        "les donnees est dans la chaine pour toujours",
        "der wert und die zeile ist nicht leer",
        "no markers whatsoever in sight",
        "",
        None,
        "the les der los mixed languages with aussi and auch",
        "é" * (scan - 3) + "there and more",           # window ends in "the"
        "w " * (scan // 2) + "der les los und the",     # markers past the window
        "the " * (scan // 4 - 1) + "tail der die das",  # "the" fills the window
    ]
    sc = LangIdScorer()
    out = sc(_mk(texts))
    window = pc.utf8_slice_codeunits(pa.array(texts, pa.string()), 0, scan)
    langs = list(sc.patterns)
    exp = np.stack([
        pc.count_substring_regex(window, sc.patterns[lang]).fill_null(0)
        .to_numpy(zero_copy_only=False) for lang in langs
    ])
    assert exp[langs.index("en"), 7] == 1
    assert exp[:, 8].sum() == 0

    stop = out.column("stopword_lang").to_pylist()
    exp_hits = [0 if s is None else exp[langs.index(s), i] for i, s in enumerate(stop)]
    assert out.column("stopword_hits").to_pylist() == exp_hits
    tok = np.maximum(out.column("n_tokens_scan").to_numpy(), 1)
    exp_conf = (exp / tok).max(axis=0)
    assert np.array_equal(out.column("langid_conf").to_numpy(), exp_conf)


def test_null_text_row_is_empty_and_leaves_neighbours_alone():
    """A null ``extracted_text`` scores as ``""`` (0 chars, 0 tokens,
    ``und``), and adding it to a batch changes no other row."""
    texts = [
        "the system and the value was here",
        "数据系统表值流窗口查询批向量结果引擎列网络",
        "les valeur des fichier est chaine dans nombre",
    ]
    sc = LangIdScorer()
    base = sc(_mk(texts))
    with_null = sc(_mk(texts[:1] + [None] + texts[1:]))
    row = with_null.slice(1, 1).to_pylist()[0]
    assert row["n_chars"] == 0
    assert row["n_tokens"] == 0
    assert row["detected_lang"] == "und"
    added = base.column_names[len(_mk(texts).column_names):]
    others = with_null.take([0, 2, 3]).select(added)
    assert others.equals(base.select(added)), others.to_pydict()


# --- CJK byte count vs RE2 --------------------------------------------------

_CJK_RE = r"[\x{4E00}-\x{9FFF}]"


def _cjk_kernel(arr: pa.Array, scan_chars: int) -> np.ndarray:
    """The stage's CJK count: each document's first ``scan_chars``
    codepoints, counted by ``cjk_counts`` on the text buffer."""
    starts, lens = value_spans(arr)
    if not len(arr) or arr.buffers()[2] is None:
        return np.zeros(len(arr), np.int64)
    ends = starts + prefix_bytes(arr, lens, scan_chars)
    return cjk_counts(np.frombuffer(arr.buffers()[2], np.uint8), starts, ends)


def _cjk_re2(arr: pa.Array, scan_chars: int | None) -> np.ndarray:
    if scan_chars is not None:
        arr = pc.utf8_slice_codeunits(arr, 0, scan_chars)
    return pc.count_substring_regex(arr, _CJK_RE).fill_null(0).to_numpy(
        zero_copy_only=False
    )


def _assert_cjk_matches(texts: list, scan_chars: int, large: bool,
                        pad: tuple = (0, 0)):
    typ = pa.large_string() if large else pa.string()
    arr = pa.array(["lead 中 x"] * pad[0] + texts + ["tail 日 y"] * pad[1], typ)
    arr = arr.slice(pad[0], len(texts))
    got = _cjk_kernel(arr, scan_chars)
    assert np.array_equal(got, _cjk_re2(arr, scan_chars)), (texts, got)


def test_cjk_count_range_ends_and_window():
    """The U+4E00–U+9FFF range ends, null, ``""``, sliced arrays,
    large_string, and a CJK character on either side of the window end."""
    scan = DEFAULT_CONFIG.langid_scan_chars
    texts = [
        "\u4dff", "\u4e00", "\u9fff", "\ua000", "a\u4e00b\u9fffc\u4dff\ua000",
        None, "", "数据系统", "plain ascii", "é中😀日",
        "a" * (scan - 1) + "中文",   # 中 is the last codepoint in the window
        "é" * scan + "中文",         # 中 is the first codepoint past it
    ]
    for large in (False, True):
        for pad in ((0, 0), (1, 2)):
            _assert_cjk_matches(texts, scan, large, pad)


def _from_bytes(docs: list) -> pa.Array:
    """A string array over arbitrary (possibly malformed) UTF-8 bytes."""
    offs = np.concatenate([[0], np.cumsum([len(d) for d in docs])]).astype(np.int32)
    return pa.StringArray.from_buffers(
        len(docs), pa.py_buffer(offs.tobytes()), pa.py_buffer(b"".join(docs))
    )


def test_cjk_count_on_malformed_utf8():
    """RE2 finds the byte sequence even around malformed UTF-8 (a
    truncated lead, stray continuation bytes, U+4DFF's E4 B7 BF); the
    byte test counts exactly the same. The documents are shorter than
    the window, so their prefix is the whole document (slicing malformed
    UTF-8 raises)."""
    docs = [
        b"\xe5\xb8", b"\xe5\xb8a", b"\x80\xe4\xb8\x80", b"\xe4\xb7\xbf",
        b"a\xbf\xbf", b"\xff\xe9\xbf\xbf", b"\xe5\xe5\xb8\x80", b"\xe4\xb8\x80\xe5\xb8",
        b"\xe4\xb8", b"\xe9\xbf",
    ]
    arr = _from_bytes(docs)
    got = _cjk_kernel(arr, DEFAULT_CONFIG.langid_scan_chars)
    assert got.tolist() == [0, 0, 1, 0, 0, 1, 1, 1, 0, 0]
    assert np.array_equal(got, _cjk_re2(arr, None))


def test_cjk_count_ignores_a_character_cut_by_the_window():
    """Only sequences whose three bytes lie inside the window count."""
    data = np.frombuffer("中中".encode(), np.uint8)
    for end, want in ((0, 0), (2, 0), (3, 1), (5, 1), (6, 2)):
        got = cjk_counts(data, np.array([0]), np.array([end]))
        assert got.tolist() == [want], (end, got)


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(
        st.one_of(
            st.none(),
            st.text(max_size=30),
            st.lists(st.sampled_from(
                ["a", " ", "é", "\u4dff", "\u4e00", "\u9fff", "\ua000", "中", "😀"]
            ), max_size=30).map("".join),
        ),
        max_size=8,
    ),
    scan_chars=st.sampled_from([1, 2, 5, 2048]),
    large=st.booleans(),
    pad=st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
def test_cjk_count_matches_re2(texts, scan_chars, large, pad):
    """Property: the byte count equals RE2 over the sliced prefix."""
    _assert_cjk_matches(texts, scan_chars, large, pad)


@settings(max_examples=200, deadline=None)
@given(docs=st.lists(
    st.lists(st.sampled_from(
        [0x41, 0x20, 0x80, 0xB7, 0xB8, 0xBF, 0xC3, 0xE3, 0xE4, 0xE5, 0xE9, 0xEA, 0xFF]
    ), max_size=12).map(bytes),
    max_size=8,
))
def test_cjk_count_matches_re2_on_arbitrary_bytes(docs):
    """Property: on arbitrary bytes, the byte count equals RE2's."""
    arr = _from_bytes(docs)
    assert np.array_equal(
        _cjk_kernel(arr, DEFAULT_CONFIG.langid_scan_chars), _cjk_re2(arr, None)
    )


def test_lang_confusion_matrix(ray_session):
    from rsmetacheck_ray.pipelines.queries import q_lang_confusion

    out = q_lang_confusion("/root/testdata/sf0.001")
    rows = out.to_pylist()
    assert len(rows) > 0
    # a confusion matrix: counts positive, detected side restricted to
    # the detector's label set, and totals equal the corpus size
    dets = {r["detected_lang"] for r in rows}
    assert all(r["n"] > 0 for r in rows)
    assert dets <= {"en", "fr", "es", "de", "und"}
    # totals must equal the pages corpus size: 500 docs + 5 triggers
    assert sum(r["n"] for r in rows) == 505
    # both confirmed and unconfirmed cells exist (non-degenerate)
    assert any(r["detected_lang"] == "en" for r in rows)
    assert any(r["detected_lang"] == "und" for r in rows)
