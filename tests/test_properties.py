"""Property-based tests (hypothesis) for the fuzz-sensitive surfaces:
arbitrary unicode through the rule catalog and scrubber must never
crash and must hold the documented invariants; the rolling-hash
chunker must exactly tile every byte string within its bounds; the
scrub pass must be idempotent (a scrubbed document re-scrubs to
itself, the reference's re-run stability property)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmetacheck_ray.config import DEFAULT_CONFIG
from rsmetacheck_ray.functions import fingerprint as fp
from rsmetacheck_ray.functions.tokenize import ws_token_stats
from rsmetacheck_ray.stages.rules import DROP_CODES, RULE_CODES, apply_scrub, rule_stage_fn

_TEXT = st.text(max_size=400)


def _token_columns(texts: list[str]) -> dict:
    """The token/repetition columns the langid stage would attach."""
    stats = ws_token_stats(
        pa.array(texts, pa.string()),
        DEFAULT_CONFIG.langid_scan_chars,
        DEFAULT_CONFIG.repetition_scan_tokens,
    )
    return {k: pa.array(v) for k, v in stats.items()}


def _gate_batch(texts: list[str], urls: list[str] | None = None) -> pa.Table:
    n = len(texts)
    urls = urls or [f"https://site{i}.example.com/x" for i in range(n)]
    return pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "url": pa.array(urls),
            "warc_ts": pa.array([1_672_531_200_000_000] * n, pa.timestamp("us")),
            "extracted_text": pa.array(texts),
            "lang": pa.array(["en"] * n),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            "stopword_hits": pa.array([0] * n, pa.int64()),
            "stopword_lang": pa.array([None] * n, pa.string()),
            "detected_lang": pa.array(["und"] * n, pa.string()),
            "langid_conf": pa.array([0.0] * n, pa.float64()),
            "bits_per_char": pa.array([1.0] * n, pa.float64()),
            **_token_columns(texts),
        }
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(_TEXT, min_size=1, max_size=8))
def test_rule_stage_total_on_arbitrary_unicode(texts):
    """No rule may crash on any unicode input (the reference's
    defensive key-probing invariant): rule_errors stays empty, keep is
    a total boolean, and every hit column is boolean."""
    out = rule_stage_fn(_gate_batch(texts), DEFAULT_CONFIG, with_evidence=True)
    assert not any(out.column("rule_errors").to_pylist())
    keep = out.column("keep").to_pylist()
    assert all(isinstance(k, bool) for k in keep)
    # keep == not any drop rule fired (the catalog contract)
    for i in range(len(texts)):
        fired_drop = any(
            out.column(f"hit_{c}")[i].as_py() for c in DROP_CODES
        )
        assert keep[i] == (not fired_drop)
    for c in RULE_CODES:
        assert out.column(f"hit_{c}").type == pa.bool_()


@settings(max_examples=40, deadline=None)
@given(st.lists(_TEXT, min_size=1, max_size=8))
def test_scrub_idempotent(texts):
    """Scrubbing an already-scrubbed document is a no-op — replacement
    tokens (<EMAIL>, <PHONE>, <IP>, ****) never re-match any pattern."""
    arr = pa.array(texts, pa.string())
    once = apply_scrub(arr)
    twice = apply_scrub(once)
    assert once.to_pylist() == twice.to_pylist()


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=20_000))
def test_chunker_tiles_exactly(data):
    """Chunk boundaries exactly tile [0, n): monotone, end at n, every
    chunk within (min, max] except the final remainder."""
    bounds = fp.chunk_boundaries(data)
    if not data:
        assert bounds == []
        return
    assert bounds[-1] == len(data)
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    lens = np.diff([0] + bounds)
    assert (lens <= fp._MAX_CHUNK).all()
    if len(lens) > 1:
        assert (lens[:-1] >= fp._MIN_CHUNK).all()
    # determinism
    assert bounds == fp.chunk_boundaries(data)


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=2000))
def test_doc_chunks_cover_all_bytes(text):
    rows = fp.doc_chunks(0, text)
    assert sum(r[3] for r in rows) == len(text.encode("utf-8"))


# --------------------------------------------------------------------------
# differential properties: the block-vectorized operators vs
# straightforward brute-force references on random data
# --------------------------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_boilerplate_scrub_matches_bruteforce(ray_session, seed):
    """scrub_boilerplate_lines == per-doc brute force (drop every line
    whose distinct-doc frequency >= min_df) on random corpora with
    heavy line collisions, repeats within docs and empty lines."""
    import ray.data as rd

    from rsmetacheck_ray.functions.boilerplate import scrub_boilerplate_lines

    rng = np.random.default_rng(seed)
    pool = [f"L{i}" for i in range(6)] + ["", "unique-%d"]
    texts = []
    for d in range(30):
        n_lines = int(rng.integers(1, 6))
        lines = []
        for j in range(n_lines):
            p = pool[int(rng.integers(0, len(pool)))]
            lines.append(p % (d * 10 + j) if "%d" in p else p)
        texts.append("\n".join(lines))
    t = pa.table(
        {
            "doc_id": pa.array(range(30), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    min_df = 3
    got = (
        scrub_boilerplate_lines(
            rd.from_arrow(t).repartition(4), rd.from_arrow(t).repartition(4),
            min_df=min_df,
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # brute force
    df: dict = {}
    for txt in texts:
        for ln in set(txt.split("\n")):
            df[ln] = df.get(ln, 0) + 1
    hot = {ln for ln, c in df.items() if c >= min_df}
    exp_text = ["\n".join(l for l in t_.split("\n") if l not in hot) for t_ in texts]
    exp_removed = [sum(l in hot for l in t_.split("\n")) for t_ in texts]
    assert got["text_scrubbed"].tolist() == exp_text
    assert got["n_lines_removed"].tolist() == exp_removed


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_bigram_lm_matches_bruteforce(ray_session, seed):
    """train_bigram_lm == Counter brute force (within-doc bigrams,
    exact conditionals of the FULL distribution, prune after)."""
    from collections import Counter

    import ray.data as rd

    from rsmetacheck_ray.functions.ngram_lm import train_bigram_lm

    rng = np.random.default_rng(seed)
    vocab = [f"t{i}" for i in range(5)]
    texts = [
        " ".join(vocab[int(j)] for j in rng.integers(0, len(vocab), rng.integers(0, 9)))
        for _ in range(25)
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(25), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    got = (
        train_bigram_lm(rd.from_arrow(t).repartition(3), min_count=2)
        .to_pandas()
        .sort_values(["w1", "w2"])
        .reset_index(drop=True)
    )
    counts: Counter = Counter()
    for txt in texts:
        ws = txt.split()
        counts.update(zip(ws, ws[1:]))
    totals: Counter = Counter()
    for (w1, _), n in counts.items():
        totals[w1] += n
    exp = sorted(
        (w1, w2, n, n / totals[w1])
        for (w1, w2), n in counts.items()
        if n >= 2
    )
    assert [tuple(r) for r in got.itertuples(index=False)] == exp


# --- round-3 continuation operators -----------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.text(alphabet=st.sampled_from("ab \t\n"), max_size=200),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=1, max_value=7),
)
def test_token_chunking_tiles_documents(ray_session, texts, c):
    """Chunk token counts tile each document exactly, ordinals are
    dense from 0, and the space-joined chunks reconstruct the doc's
    canonical whitespace form."""
    import ray.data as rd

    from rsmetacheck_ray.functions.chunking import chunk_tokens

    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    out = chunk_tokens(ds, chunk_size=c).to_pandas()
    if out.empty:  # empty Ray->pandas drops columns (documented quirk)
        assert all(not t.split() for t in texts)
        return
    for d, t in enumerate(texts):
        toks = t.split()
        rows = out[out.doc_id == d].sort_values("chunk_idx")
        assert rows["n_tokens"].sum() == len(toks)
        assert rows["chunk_idx"].tolist() == list(range(len(rows)))
        assert " ".join(rows["chunk_text"]) == " ".join(toks)
        if len(rows):
            assert (rows["n_tokens"].iloc[:-1] == c).all()
            assert 0 < rows["n_tokens"].iloc[-1] <= c


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.text(
                alphabet=st.characters(
                    codec="utf-8", exclude_characters="\r\n<>"
                ),
                min_size=1,
                max_size=60,
            ),
            st.binary(max_size=400),
        ),
        min_size=1,
        max_size=5,
    ),
    st.booleans(),
)
def test_warc_roundtrip_arbitrary_payloads(rows, gz):
    """write_warc → parse_warc is lossless for arbitrary url strings
    and binary payloads, plain and gzipped."""
    import tempfile

    from rsmetacheck_ray.sources.warc_pages import parse_warc, write_warc

    recs = [
        {"url": u, "warc_ts": "2023-01-01T00:00:00", "html": b}
        for u, b in rows
    ]
    with tempfile.NamedTemporaryFile(suffix=".warc.gz" if gz else ".warc") as f:
        write_warc(f.name, recs, compress=gz)
        t = parse_warc(open(f.name, "rb").read(), strict=True)
    # header values are whitespace-stripped per the header grammar
    assert t.column("url").to_pylist() == [u.strip() for u, _ in rows]
    assert t.column("html").to_pylist() == [b if b else None for _, b in rows]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_bpe_incremental_equals_naive(seed):
    """Randomized corpora: the incremental-pair-update merge loop is
    exactly the naive full-recount reference."""
    from tests.test_bpe import _naive_learn

    from rsmetacheck_ray.functions.bpe import learn_merges

    rng = np.random.default_rng(seed)
    vocab = [
        "".join(chr(97 + c) for c in rng.integers(0, 4, rng.integers(1, 6)))
        for _ in range(30)
    ]
    from collections import Counter

    wc = [(w, int(n)) for w, n in Counter(vocab).items()]
    assert learn_merges(wc, 15) == _naive_learn(wc, 15)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_token_budget_matches_prefix_walk(ray_session, seed):
    """token_budget_sample == the literal per-language prefix walk
    under (n_chars DESC, doc_id ASC), including ties on n_chars."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from rsmetacheck_ray.pipelines.corpus import token_budget_sample

    rng = np.random.RandomState(seed)
    n = 120
    words = ["w"] * 1  # one-char words: n_tokens controls n_chars ties
    texts = [
        " ".join(["w"] * rng.randint(1, 8)) + ("!" * rng.randint(0, 3))
        for _ in range(n)
    ]
    langs = rng.choice(["en", "fr"], n)
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(1, n + 1), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "source": pa.array(["web"] * n, pa.string()),
            "n_chars": pa.array([len(s) for s in texts], pa.int64()),
        }
    )
    budget = int(rng.randint(1, 60))
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(t, os.path.join(d, "documents.parquet"))
        df = token_budget_sample(d, budget=budget).to_pandas()
        got = sorted(df["doc_id"].tolist()) if len(df) else []
    want = []
    ncs = np.array([len(s) for s in texts])
    toks = np.array([len(s.split()) for s in texts])
    for lang in ("en", "fr"):
        idx = np.flatnonzero(langs == lang)
        order = idx[np.lexsort((idx, -ncs[idx]))]
        cum = 0
        for i in order:
            cum += int(toks[i])
            if cum <= budget:
                want.append(int(i + 1))
    assert got == sorted(want)


# ---------------------------------------------------------------------------
# r5 surfaces: FFD packing invariants, fastText format round-trip,
# arrowmat round-trip under random shapes
# ---------------------------------------------------------------------------


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_pack_ffd_invariants_random(seed):
    """FFD on random token-count multisets: every bin ≤ capacity
    (except single oversized docs), bin ids dense from 0, and never
    more bins than the next-fit lower bound ceil(total/capacity)
    would... (FFD ≤ 11/9·OPT + 1 ≤ 2·ceil(total/cap) + 1 is loose;
    assert the tight invariants plus determinism)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    sizes = rng.integers(1, 1500, n)  # some exceed capacity 1024
    cap = 1024
    # reference python FFD identical to the engine's per-shard loop
    order = np.lexsort((np.arange(n), -sizes))
    fills, bins = [], {}
    for r in order:
        s = int(sizes[r])
        placed = -1
        if s <= cap:
            for bi, rem in enumerate(fills):
                if s <= rem:
                    placed = bi
                    break
        if placed < 0:
            fills.append(cap - s)
            placed = len(fills) - 1
        else:
            fills[placed] -= s
        bins[int(r)] = placed
    # invariants on the reference (the engine equals it by pytest
    # elsewhere; here we fuzz the INVARIANTS themselves)
    per_bin: dict[int, int] = {}
    for r, b in bins.items():
        per_bin[b] = per_bin.get(b, 0) + int(sizes[r])
    for b, load in per_bin.items():
        members = [r for r, bb in bins.items() if bb == b]
        if len(members) > 1:
            assert load <= cap
    assert sorted(set(bins.values())) == list(range(len(per_bin)))
    # no two bins could be merged if both ≤ cap/2 full... FFD property:
    # at most one bin is ≤ half full among the non-oversized bins
    small = [
        b for b, load in per_bin.items()
        if load <= cap // 2
        and all(sizes[r] <= cap for r, bb in bins.items() if bb == b)
    ]
    assert len(small) <= 1


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_fasttext_roundtrip_random(tmp_path_factory, seed):
    from rsmetacheck_ray.models import fasttext_io as ft

    rng = np.random.default_rng(seed)
    nw = int(rng.integers(1, 8))
    nl = int(rng.integers(1, 4))
    dim = int(rng.integers(2, 12))
    bucket = int(rng.integers(10, 200))
    minn = int(rng.integers(0, 3))
    maxn = minn + int(rng.integers(0, 3)) if minn else 0
    words = [f"w{i}" for i in range(nw)]
    labels = [f"__label__l{i}" for i in range(nl)]
    inp = rng.standard_normal((nw + bucket, dim)).astype(np.float32)
    out = rng.standard_normal((nl, dim)).astype(np.float32)
    d = tmp_path_factory.mktemp("ftrt")
    path = str(d / "m.bin")
    ft.write_fasttext_model(
        path, words, labels, inp, out, bucket=bucket, minn=minn, maxn=maxn
    )
    m = ft.load_fasttext_model(path)
    assert (m.words, m.labels, m.dim, m.bucket, m.minn, m.maxn) == (
        words, labels, dim, bucket, minn, maxn
    )
    np.testing.assert_array_equal(m.input, inp)
    np.testing.assert_array_equal(m.output, out)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_arrowmat_roundtrip_random(seed):
    from rsmetacheck_ray.functions.arrowmat import (
        list_column_matrix, matrix_list_array,
    )

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 50))
    d = int(rng.integers(1, 40))
    m = rng.standard_normal((n, d))
    arr = matrix_list_array(m)
    np.testing.assert_array_equal(list_column_matrix(arr), m)
    # a slice of the serialized array still converts correctly
    if n >= 3:
        lo = int(rng.integers(0, n - 2))
        ln = int(rng.integers(1, n - lo))
        np.testing.assert_array_equal(
            list_column_matrix(arr.slice(lo, ln)), m[lo : lo + ln]
        )
