"""Perplexity scorer: calibration margins and determinism."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmetacheck_ray.config import DEFAULT_CONFIG, GateConfig
from rsmetacheck_ray.datagen import generate_tables
from rsmetacheck_ray.functions.arrowbuf import varwidth_bytes
from rsmetacheck_ray.stages.extract import extract_stage
from rsmetacheck_ray.stages.perplexity import (
    _ALPHA, _BYTE_CODE, _NSYM, PerplexityScorer, _train_corpus,
)

_KEEP_FAMILIES = [
    "clean", "duplicate", "pii_email", "pii_phone", "pii_ip", "toxic",
    "outdated_ts", "bare_identifier", "homepage_url", "archive_url",
    "shorthand_url", "multi_value_lang",
]


def test_margins_on_fixtures():
    pages, labels = generate_tables(1500)
    sc = PerplexityScorer()
    out = sc(extract_stage(pages))
    bpc = np.array(out.column("bits_per_char").to_pylist())
    fam = np.array(labels.column("family").to_pylist())
    keep = np.isin(fam, _KEEP_FAMILIES)
    thr = DEFAULT_CONFIG.max_bits_per_char
    assert bpc[keep].max() < thr - 1.0, "keep rows must clear the gate with margin"
    gib = fam == "gibberish"
    assert gib.any()
    assert bpc[gib].min() > thr + 1.0, "gibberish must fail the gate with margin"


def test_empty_text_scores_zero():
    sc = PerplexityScorer()
    t = pa.table({"extracted_text": ["", "ab"]})
    out = sc(t)
    assert out.column("bits_per_char").to_pylist()[0] == 0.0


def test_deterministic_across_instances():
    t = pa.table({"extracted_text": ["the system and value was that table with stream"]})
    a = PerplexityScorer()(t).column("bits_per_char").to_pylist()
    b = PerplexityScorer()(t).column("bits_per_char").to_pylist()
    assert a == b


# --- spec: the scorer as it was before the bit table -------------------
# Two log-prob tables, a prefix slice per document, then one buffer for
# the whole batch in which a mask zeroes every trigram that crosses a
# document boundary. The scorer must reproduce it bit for bit.


def _spec_tables():
    data = _BYTE_CODE[np.frombuffer(_train_corpus(), dtype=np.uint8)]
    c3 = data[:-2] << 12 | data[1:-1] << 6 | data[2:]
    c2 = data[:-1] << 6 | data[1:]
    lut3 = np.zeros(_NSYM**3, dtype=np.float32)
    codes, counts = np.unique(c3, return_counts=True)
    lut3[codes] = counts
    lut2 = np.zeros(_NSYM**2, dtype=np.float32)
    codes2, counts2 = np.unique(c2, return_counts=True)
    lut2[codes2] = counts2
    return (np.log2(lut3 + np.float32(_ALPHA)),
            np.log2(lut2 + np.float32(_ALPHA * _NSYM)))


_SPEC_TABLES = _spec_tables()


def _spec_codes(data: np.ndarray, lens: np.ndarray) -> np.ndarray:
    logp3, logp2 = _SPEC_TABLES
    out = np.zeros(len(lens), dtype=np.float64)
    if data.size == 0:
        return out
    ends = np.cumsum(lens)
    starts = ends - lens
    c3 = data[:-2] << 12 | data[1:-1] << 6 | data[2:]
    c2 = data[:-1] << 6 | data[1:]
    nb = len(c3)
    if nb == 0:
        return out
    logp = logp3[c3] - logp2[c2[:nb]]
    valid = np.ones(nb, dtype=bool)
    for e in ends[:-1]:
        valid[max(e - 2, 0) : min(e, nb)] = False
    bits_ext = np.empty(nb + 1, dtype=np.float64)
    bits_ext[:nb] = np.where(valid, -logp, np.float32(0.0))
    bits_ext[nb] = 0.0
    vals_ext = np.empty(nb + 1, dtype=np.float64)
    vals_ext[:nb] = valid
    vals_ext[nb] = 0.0
    tri_end = np.minimum(np.maximum(ends - 2, 0), nb)
    tri_start = np.minimum(starts, nb)
    idx = np.empty(2 * len(lens), dtype=np.int64)
    idx[0::2] = tri_start
    idx[1::2] = tri_end
    seg = np.add.reduceat(bits_ext, idx)[0::2]
    cntseg = np.add.reduceat(vals_ext, idx)[0::2]
    nonempty = tri_end > tri_start
    tot = np.where(nonempty, seg, 0.0)
    cnt = np.where(nonempty, cntseg, 0.0)
    np.divide(tot, cnt, out=out, where=cnt > 0)
    return out


def _spec_bpc(text: pa.Array, scan_chars: int) -> np.ndarray:
    arr = pc.utf8_slice_codeunits(text, 0, scan_chars)
    if arr.null_count:
        arr = pc.fill_null(arr, "")
    if len(arr) == 0 or arr.buffers()[2] is None:
        return np.zeros(len(arr), np.float64)
    raw, offsets = varwidth_bytes(arr)
    return _spec_codes(_BYTE_CODE[raw], np.diff(offsets))


def _assert_bpc_matches_spec(texts: list, scan_chars: int, large: bool,
                             pad: tuple = (0, 0)):
    typ = pa.large_string() if large else pa.string()
    arr = pa.array(["lead pad x"] * pad[0] + texts + ["tail pad y"] * pad[1], typ)
    arr = arr.slice(pad[0], len(texts))
    sc = PerplexityScorer(GateConfig(ppl_scan_chars=scan_chars))
    got = sc(pa.table({"extracted_text": arr})).column("bits_per_char")
    got = got.to_numpy()
    exp = _spec_bpc(arr, scan_chars)
    assert np.array_equal(got.view(np.int64), exp.view(np.int64)), (got, exp)


def test_bits_per_char_matches_spec_on_edge_documents():
    """Bit for bit against the spec: 0-3 byte documents, empty ones
    between non-empty ones, nulls, documents over ``ppl_scan_chars``
    whose cut falls next to (or would fall inside) a multi-byte
    character, for string and large_string, sliced or not."""
    scan = DEFAULT_CONFIG.ppl_scan_chars
    texts = [
        "", "a", "ab", "abc", "the system and value", "", "", "xy",
        None, "é", "日", "aé", "data stream€",
        "a" * (scan - 1) + "é" + "tail words",   # 2-byte char is the last one in
        "a" * scan + "日本 over the cut",           # 3-byte char just past the cut
        "é" * (scan + 7),                            # 2x the window in bytes
        "😀" * (scan // 2) + "qq" + "😀" * scan,     # 4-byte chars, window mid-run
        "", None, "abc",
    ]
    for large in (False, True):
        for pad in ((0, 0), (2, 1)):
            _assert_bpc_matches_spec(texts, scan, large, pad)


def test_bits_per_char_one_long_document_alone():
    """A batch whose only document is cut (the gather path) and one
    with no long document at all (the zero-copy path)."""
    scan = DEFAULT_CONFIG.ppl_scan_chars
    _assert_bpc_matches_spec(["zq" * scan], scan, False)
    _assert_bpc_matches_spec(["zq" * (scan // 2)], scan, False)
    _assert_bpc_matches_spec([None, ""], scan, True)
    _assert_bpc_matches_spec([], scan, False)


_PPL_DOC = st.one_of(
    st.none(),
    st.just(""),
    st.text(max_size=3),
    st.text(max_size=40),
    st.lists(st.sampled_from(["a", "b ", "é", "日", "😀", ".", "\n", "7"]),
             max_size=40).map("".join),
)


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(_PPL_DOC, max_size=10),
    scan_chars=st.sampled_from([1, 3, 8, 4096]),
    large=st.booleans(),
    pad=st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
def test_bits_per_char_matches_spec(texts, scan_chars, large, pad):
    """Property: bit-identical to the spec on arbitrary unicode, with
    windows short enough that most documents are cut."""
    _assert_bpc_matches_spec(texts, scan_chars, large, pad)


def _train_corpus_loop() -> bytes:
    """The training corpus built row by row with the scalar
    ``row_u64``: the reference the vectorized ``_train_corpus`` keeps."""
    from rsmetacheck_ray.functions.hashing import row_u64
    from rsmetacheck_ray.functions.vocab import CONTENT, MARKERS, ZH_CHARS
    from rsmetacheck_ray.stages.perplexity import _TRAIN_SEED

    lines: list[str] = []
    for li, lang in enumerate(("en", "fr", "es", "de")):
        markers, content = MARKERS[lang], CONTENT[lang]
        for s in range(400):
            words = []
            for j in range(18):
                r = row_u64(_TRAIN_SEED, s, li * 1000 + j * 101 + s * 7)
                pool = markers if j % 3 == 1 else content
                words.append(pool[r % len(pool)])
            words[0] = words[0].capitalize() if s % 3 == 0 else words[0]
            lines.append(" ".join(words) + ".")
    for s in range(400):
        lines.append("".join(ZH_CHARS[row_u64(_TRAIN_SEED, s, 50_000 + j) % len(ZH_CHARS)]
                             for j in range(40)))
    for s in range(60):
        d = [row_u64(_TRAIN_SEED, s, 60_000 + j) % 10 for j in range(16)]
        hexs = "".join("0123456789abcdef"[row_u64(_TRAIN_SEED, s, 61_000 + j) % 16]
                       for j in range(40))
        lines.append(f"Last updated: 20{d[0]}{d[1]}-0{d[2] % 9 + 1}-1{d[3]}.")
        lines.append(f"call +1-555-{d[4]}{d[5]}{d[6]}-{d[7]}{d[8]}{d[9]}{d[10]} now.")
        lines.append(f"server at 192.168.{d[11]}{d[12]}.{d[13]}{d[14]} responded.")
        lines.append(f"contact user{d[15]}@mail-{d[0]}.example.net for details.")
        lines.append(f"identifier 10.5281/zenodo.{d[1]}{d[2]}{d[3]}{d[4]}{d[5]} cited.")
        lines.append(f"swh:1:rev:{hexs} (c) 2024 Example Site | Home | About")
    return "\n".join(lines).encode("utf-8")


def test_train_corpus_matches_the_scalar_loop():
    """The vectorized training corpus (``splitmix64_np`` over whole
    index grids) is byte for byte the row-by-row one, so the bit-cost
    table the scorer and the DuckDB oracle read is unchanged."""
    import hashlib

    from rsmetacheck_ray.stages.perplexity import _bit_table, _train_corpus

    assert _train_corpus() == _train_corpus_loop()
    assert hashlib.sha256(_bit_table().tobytes()).hexdigest().startswith("0a87edb994a2d464")
