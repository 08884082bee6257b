"""Planted tests for corpus batch 3 (pipelines/corpus3.py):
phrase-search positions / counts / doc-boundary guard, containment
asymmetry vs Jaccard, and Neyman allocation arithmetic."""

from __future__ import annotations

import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from rsmetacheck_ray.pipelines import corpus3 as c3


def _docs(d, rows):
    """rows: (doc_id, text, lang)."""
    ids, texts, langs = zip(*rows)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(langs, pa.string()),
                "source": pa.array(["s"] * len(rows), pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        os.path.join(d, "documents.parquet"),
    )


def test_phrase_search_positions_and_counts(ray_session, tmp_path):
    d = str(tmp_path)
    _docs(d, [
        (1, "fast table start", "en"),          # hit at pos 0
        (2, "x  fast   table fast table", "en"),  # two hits, first at 1
        (3, "fast cable", "en"),                # no hit
        (4, "table fast", "en"),                # reversed — no hit
        (5, "", "en"),                          # empty text
        (6, "the fast", "en"),                  # w2 never follows
    ])
    got = {r["doc_id"]: r for r in c3.phrase_search(d).take_all()}
    assert set(got) == {1, 2}
    assert got[1]["n_occ"] == 1 and got[1]["first_pos"] == 0
    assert got[2]["n_occ"] == 2 and got[2]["first_pos"] == 1


def test_phrase_search_no_cross_document_match(ray_session, tmp_path):
    d = str(tmp_path)
    # doc 1 ends with w1, doc 2 begins with w2 — adjacency must not
    # leak across the document boundary inside a shared batch
    _docs(d, [(1, "a fast", "en"), (2, "table b", "en")])
    assert c3.phrase_search(d).take_all() == []


def test_phrase_search_absent_word_whole_batch(ray_session, tmp_path):
    d = str(tmp_path)
    _docs(d, [(1, "nothing here at all", "en")])
    assert c3.phrase_search(d).take_all() == []


def test_first_k_tokens_join_matches_sql_semantics(ray_session):
    import pyarrow as pa

    arr = pa.chunked_array([pa.array([
        "  a  b c d  ",      # boundary empties masked
        "one two",           # fewer than k tokens
        "",                  # empty text
        "x1 x2 x3 x4 x5",    # exactly k
    ])])
    got = c3._first_k_tokens_join(arr, 4).to_pylist()
    assert got == ["a b c d", "one two", "", "x1 x2 x3 x4"]


def test_containment_finds_planted_quote_jaccard_misses(ray_session, tmp_path):
    d = str(tmp_path)
    # doc 3 (id % 10 == 3) is long; its quote (first 12 tokens) is
    # fully contained but Jaccard-diluted. Words are distinct so every
    # gram is rare (df == 2 exactly for shared prefix grams).
    long_text = " ".join(f"w{i}" for i in range(40))
    _docs(d, [(3, long_text, "en"), (7, "completely different words here entirely", "en")])
    rows = c3.containment_pairs(d).take_all()
    assert len(rows) == 1
    r = rows[0]
    assert r["doc_id_a"] == 3 and r["doc_id_b"] == 3 + c3._QUOTE_ID_OFFSET
    # quote: 12 tokens -> 8 grams, all inside doc 3 (36 grams)
    assert r["n_common"] == 8 and r["n_b"] == 8 and r["n_a"] == 36
    assert r["containment"] == 1.0
    # the symmetric operator must NOT see this pair at its threshold
    assert r["n_common"] / (r["n_a"] + r["n_b"] - r["n_common"]) < 0.5


def test_containment_threshold_is_integer_exact(ray_session, tmp_path):
    d = str(tmp_path)
    # two docs sharing a 5-gram run: containment below 0.8 -> no pair.
    # doc 13 quote shares everything (kept); docs 1 and 2 share only
    # 4 of the smaller side's grams -> 4/16 < 0.8 dropped.
    a = " ".join(f"s{i}" for i in range(8)) + " " + " ".join(f"u{i}" for i in range(12))
    b = " ".join(f"s{i}" for i in range(8)) + " " + " ".join(f"v{i}" for i in range(12))
    _docs(d, [(1, a, "en"), (2, b, "en")])
    assert c3.containment_pairs(d).take_all() == []


def test_exact_auc_tie_convention():
    import numpy as np
    from rsmetacheck_ray.pipelines.queries import _auc_from_contingency

    # scores: pos at {3, 2}, neg at {1, 2} — one tie at 2.
    # pairs: (3>1)=1, (3>2)=1, (2>1)=1, (2==2)=0.5 -> U=3.5, AUC=3.5/4
    s = np.array([1, 2, 2, 3]); k = np.array([0, 1, 0, 1])
    n = np.array([1, 1, 1, 1])
    n_pos, n_neg, u2, auc = _auc_from_contingency(s, k, n)
    assert (n_pos, n_neg, u2) == (2, 2, 7)
    assert auc == 7 / 8

    # perfect separation and perfect inversion
    assert _auc_from_contingency(
        np.array([1, 2]), np.array([0, 1]), np.array([5, 5])
    )[3] == 1.0
    assert _auc_from_contingency(
        np.array([1, 2]), np.array([1, 0]), np.array([5, 5])
    )[3] == 0.0

    # degenerate: single class -> 0.0 by contract
    assert _auc_from_contingency(
        np.array([1, 2]), np.array([1, 1]), np.array([2, 2])
    )[3] == 0.0

    # weighted counts: all tied -> 0.5
    assert _auc_from_contingency(
        np.array([7, 7]), np.array([0, 1]), np.array([3, 4])
    )[3] == 0.5


def test_neyman_allocation_variance_weighting(ray_session, tmp_path):
    d = str(tmp_path)
    # 'aa': zero variance (all length 5) -> weight 0, k 0.
    # 'bb': two docs, lengths 1 and 9 -> all budget goes here, capped
    # at N_h = 2.
    _docs(d, [
        (1, "x" * 5, "aa"), (2, "y" * 5, "aa"), (3, "z" * 5, "aa"),
        (4, "w", "bb"), (5, "v" * 9, "bb"),
    ])
    t = c3.neyman_allocation(d, budget=10)
    rows = {r["lang"]: r for r in t.to_pylist()}
    assert rows["aa"]["wgt"] == 0.0 and rows["aa"]["k_alloc"] == 0
    assert rows["bb"]["k_alloc"] == 2  # floor(10*w/w)=10, capped at 2
    # exact moments
    assert rows["bb"]["s1"] == 10 and rows["bb"]["s2"] == 82
    assert rows["bb"]["wgt"] == (2 * 82 - 100) ** 0.5


def test_neyman_sample_partition_invariant(ray_session, tmp_path):
    d = str(tmp_path)
    rows = [(i, "t" * ((i * 7) % 23 + 1), "en" if i % 2 else "fr")
            for i in range(60)]
    _docs(d, rows)
    got1 = sorted(
        (r["lang"], r["doc_id"]) for r in
        c3.stratified_neyman_sample(d, budget=12).take_all()
    )
    # different physical partitioning must not change the sample set
    import rsmetacheck_ray.pipelines.corpus3 as m
    ds = c3._docs(d, ["doc_id", "lang", "n_chars"]).repartition(7)
    # route the same pipeline over the repartitioned input
    orig = m._docs
    try:
        m._docs = lambda _d, _c: ds
        got2 = sorted(
            (r["lang"], r["doc_id"]) for r in
            c3.stratified_neyman_sample(d, budget=12).take_all()
        )
    finally:
        m._docs = orig
    assert got1 == got2 and len(got1) > 0
    # per-stratum counts respect the allocation
    alloc = {r["lang"]: r["k_alloc"]
             for r in c3.neyman_allocation(d, budget=12).to_pylist()}
    from collections import Counter
    cnt = Counter(l for l, _ in got1)
    assert all(cnt[l] == min(k, cnt[l]) and cnt[l] <= k
               for l, k in alloc.items())
    assert sum(alloc.values()) <= 12


def test_neyman_all_zero_weight_returns_empty(ray_session, tmp_path):
    d = str(tmp_path)
    _docs(d, [(1, "xxxx", "en"), (2, "yyyy", "en")])  # one stratum, var 0
    assert c3.stratified_neyman_sample(d, budget=5).take_all() == []


def test_alpha_mixture_upsamples_low_resource(ray_session, tmp_path):
    d = str(tmp_path)
    # en: 8 docs, fr: 1 doc. α=0.3 compresses the gap: share_fr must
    # exceed its proportional 1/9 while share_en stays the majority.
    rows = [(i, "x", "en") for i in range(8)] + [(100, "y", "fr")]
    _docs(d, rows)
    t = {r["lang"]: r for r in c3.alpha_mixture_weights(d).to_pylist()}
    assert t["en"]["n_docs"] == 8 and t["fr"]["n_docs"] == 1
    assert t["fr"]["w_alpha"] == 1.0
    assert t["fr"]["share"] > 1 / 9 and t["en"]["share"] > t["fr"]["share"]
    assert abs(t["en"]["share"] + t["fr"]["share"] - 1.0) < 1e-12
    assert t["en"]["target_docs"] + t["fr"]["target_docs"] <= 1_000_000

    # α=1 is exactly proportional
    p = {r["lang"]: r for r in
         c3.alpha_mixture_weights(d, alpha=1.0).to_pylist()}
    assert p["en"]["share"] == 8 / 9


def test_source_quality_shrinkage_pulls_small_sources_to_mean(ray_session, tmp_path):
    import pyarrow.parquet as pq2

    d = str(tmp_path)
    # big: 20 docs of the same text; small: 1 doc with a different
    # score. The small source's shrunk mean must sit near the global
    # mean; the big source's barely moves. Order preserved within.
    rows = [(i, "good solid text", "big") for i in range(20)]
    rows.append((100, "garbage", "small"))
    ids, texts, srcs = zip(*rows)
    pq2.write_table(
        pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(rows), pa.string()),
            "source": pa.array(srcs, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }),
        os.path.join(d, "documents.parquet"),
    )
    t = {r["source"]: r for r in c3.source_quality_shrunk(d, tau=50).to_pylist()}
    mu = (t["big"]["score_sum"] + t["small"]["score_sum"]) / 21
    assert t["big"]["n_docs"] == 20 and t["small"]["n_docs"] == 1
    # exact formula check
    for s in ("big", "small"):
        want = (t[s]["score_sum"] + 50 * mu) / (t[s]["n_docs"] + 50)
        assert t[s]["shrunk_mean"] == want
    # the small source moved almost all the way to mu
    assert abs(t["small"]["shrunk_mean"] - mu) < abs(t["small"]["raw_mean"] - mu) / 10
    # shrinkage never reorders a bigger source past its own raw side
    assert (t["big"]["shrunk_mean"] - mu) * (t["big"]["raw_mean"] - mu) >= 0


def test_conformal_outlier_order_statistic(ray_session, tmp_path):
    d = str(tmp_path)
    # 20 calibration docs (ids 0,5,..,95): one garbage doc scores far
    # below the rest. alpha=0.1 -> k = floor(0.1*21) = 2 -> qhat = the
    # 2nd smallest calibration score. Test docs scoring below it are
    # flagged.
    rows = []
    for i in range(20):
        did = i * 5  # calibration split (id % 5 == 0)
        # lexicon words score +1 each, OOV -2 (functions/classifier.py)
        rows.append((did, "xx yy zz" if i == 0 else "table query batch", "en"))
    rows.append((1, "xx yy zz", "en"))          # test: below qhat -> flagged
    rows.append((2, "table query batch", "en"))  # test: at/above -> not
    _docs(d, [(i, t, l) for (i, t, l) in rows])
    got = {r["doc_id"]: r for r in c3.conformal_outliers(d).take_all()}
    assert set(got) == {1, 2}
    assert got[1]["is_outlier"] is True or got[1]["is_outlier"] == True
    assert not got[2]["is_outlier"]


def test_conformal_small_calibration_flags_nothing(ray_session, tmp_path):
    d = str(tmp_path)
    # 3 calibration docs -> k = floor(0.1*4) = 0 -> no bound, no flags
    _docs(d, [(0, "a", "en"), (5, "b", "en"), (10, "c", "en"),
              (1, "zzz", "en")])
    got = c3.conformal_outliers(d).take_all()
    assert [r["is_outlier"] for r in got] == [False]


def test_isotonic_minmax_identity_matches_pava():
    """The engine's closed-form min-max isotonic fit must equal the
    classic sequential weighted PAVA on planted non-monotone data."""
    import numpy as np
    import pyarrow as pa2
    from rsmetacheck_ray.pipelines import queries as q

    # build the same solve the query runs, via its numpy block
    def minmax_iso(nk, n):
        nk = np.asarray(nk, np.int64); n = np.asarray(n, np.int64)
        m = len(n)
        ck, cn = np.cumsum(nk), np.cumsum(n)
        kk = ck[None, :] - np.concatenate([[0], ck[:-1]])[:, None]
        nn = cn[None, :] - np.concatenate([[0], cn[:-1]])[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = kk.astype(float) / nn.astype(float)
        r[np.tril_indices(m, -1)] = np.inf
        return np.maximum.accumulate(r.min(axis=1))

    def pava(nk, n):
        blocks = [[float(k), float(c)] for k, c in zip(nk, n)]
        i = 0
        while i < len(blocks) - 1:
            if blocks[i][0] * blocks[i + 1][1] > blocks[i + 1][0] * blocks[i][1]:
                blocks[i][0] += blocks[i + 1][0]
                blocks[i][1] += blocks[i + 1][1]
                del blocks[i + 1]
                i = max(i - 1, 0)
            else:
                i += 1
        out = []
        for k, c in blocks:
            # the pooled rate repeats for every member of the block
            idx = len(out)
            # expand by the ORIGINAL counts covered by this block
            out.append((k, c))
        # rebuild per-point values
        vals = []
        for k, c in blocks:
            rate = k / c
            covered = c
            # walk original n to know how many points this block spans
            s = 0
            while covered > 0:
                covered -= n[len(vals)]
                vals.append(rate)
        return np.array(vals)

    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.integers(2, 12)
        n = rng.integers(1, 9, size=m)
        nk = np.array([rng.integers(0, x + 1) for x in n])
        got = minmax_iso(nk, n)
        want = pava(nk.tolist(), n.tolist())
        assert np.allclose(got, want, rtol=0, atol=1e-12), (nk, n, got, want)
        assert (np.diff(got) >= -1e-15).all()  # monotone


def test_isotonic_query_pools_violators(ray_session, tmp_path):
    # trivially check the end-to-end shape on a tiny gate corpus is
    # monotone nondecreasing
    import numpy as np
    from rsmetacheck_ray.pipelines.queries import q_gate_isotonic_calibration

    t = q_gate_isotonic_calibration("/root/testdata/sf0.001")
    iso = t.column("iso_rate").to_numpy()
    assert len(iso) > 0 and (np.diff(iso) >= -1e-15).all()
    assert iso.min() >= 0.0 and iso.max() <= 1.0


def test_wasserstein_planted_shift(ray_session, tmp_path):
    d = str(tmp_path)
    # source 'a': all docs length 10; source 'b': all docs length 14.
    # Global = 50/50 mix. W1(a, global) = |F_a - F_g| integrates to
    # 0.5 * 4 = 2.0 for each source (half the mass moved 4 chars).
    rows = [(i, "x" * 10, "en") for i in range(10)] + \
           [(100 + i, "y" * 14, "en") for i in range(10)]
    ids, texts, _ = zip(*rows)
    import pyarrow.parquet as pq2
    pq2.write_table(
        pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * 20, pa.string()),
            "source": pa.array(["a"] * 10 + ["b"] * 10, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }),
        os.path.join(d, "documents.parquet"),
    )
    t = {r["source"]: r for r in c3.source_wasserstein_length(d).to_pylist()}
    # exact: num = |10*20 - 10*10| * 4 = 400; w1 = 400/(10*20) = 2.0
    assert t["a"]["w1_num"] == 400 and t["a"]["w1"] == 2.0
    assert t["b"]["w1_num"] == 400 and t["b"]["w1"] == 2.0


def test_wasserstein_identical_distribution_is_zero(ray_session, tmp_path):
    d = str(tmp_path)
    rows = [(i, "z" * (5 + i % 3), "en") for i in range(30)]
    ids, texts, _ = zip(*rows)
    import pyarrow.parquet as pq2
    pq2.write_table(
        pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * 30, pa.string()),
            # both sources see the same length multiset
            "source": pa.array(["a", "b"] * 15, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }),
        os.path.join(d, "documents.parquet"),
    )
    t = {r["source"]: r for r in c3.source_wasserstein_length(d).to_pylist()}
    assert t["a"]["w1_num"] == 0 and t["b"]["w1_num"] == 0


def test_active_learning_pool_margin_order(ray_session, tmp_path):
    d = str(tmp_path)
    # lexicon words score +1, OOV -2; boundary is TH_NUM/TH_DEN
    from rsmetacheck_ray.functions.classifier import TH_DEN, TH_NUM
    _docs(d, [
        (1, "table query batch", "en"),   # all +1
        (2, "xx yy zz", "en"),            # all -2
        (3, "table xx", "en"),            # mixed
        (4, "", "en"),                    # zero tokens -> margin 0
    ])
    got = c3.active_learning_pool(d, k=2).take_all()
    margins = {}
    for r in got:
        m = abs(r["score_total"] * TH_DEN - TH_NUM * r["n_tokens"])
        assert r["margin"] == m
        margins[r["doc_id"]] = m
    assert len(got) == 2
    # rows arrive in (margin, doc_id) order; the empty doc's margin 0
    # makes it the certain first pick
    assert got[0]["doc_id"] == 4 and got[0]["margin"] == 0
    assert got[0]["margin"] <= got[1]["margin"]


def test_corpus_manifest_exact_counts(ray_session, tmp_path):
    d = str(tmp_path)
    _docs(d, [
        (1, "two tokens", "en"),
        (2, "", "en"),            # empty
        (3, "uno", "es"),
        (4, "  ", "es"),          # whitespace-only -> 0 tokens
    ])
    t = c3.corpus_manifest(d).to_pylist()[0]
    assert t["n_docs"] == 4 and t["n_tokens"] == 3
    assert t["n_langs"] == 2 and t["n_sources"] == 1
    assert t["n_empty"] == 2
    assert t["n_chars"] == 10 + 0 + 3 + 2
    assert t["mean_chars"] == 15 / 4
    assert t["max_chars"] == 10


def test_best_f1_sweep_arithmetic():
    """Planted sweep check of the suffix-sum F1 construction."""
    import numpy as np

    # contingency: scores 1..3; pos = [1, 4, 5], neg = [6, 2, 0]
    pos = np.array([1, 4, 5]); neg = np.array([6, 2, 0])
    P = pos.sum()
    tp = np.cumsum(pos[::-1])[::-1]
    fp = np.cumsum(neg[::-1])[::-1]
    fn = P - tp
    f1 = 2.0 * tp / (2 * tp + fp + fn)
    # t=1: tp=10 fp=8 fn=0 -> 20/28; t=2: tp=9 fp=2 fn=1 -> 18/21;
    # t=3: tp=5 fp=0 fn=5 -> 10/15
    assert np.allclose(f1, [20 / 28, 18 / 21, 10 / 15])
    best = np.lexsort((np.array([1, 2, 3]), -f1))[0]
    assert best == 1  # threshold 2 wins


def test_ivm_delta_matches_full_recompute(ray_session, tmp_path):
    """The IVM identity on planted ids hitting every op class:
    17 -> delete; 3 -> update (3%13==3, 3%17!=0); 5 -> insert source
    (5%19==5, also kept as a base row); 1 -> untouched."""
    d = str(tmp_path)
    _docs(d, [
        (1, "a b c", "en"),
        (3, "x y", "en"),        # update: "x y [rev2]" -> +1 token
        (5, "q", "fr"),          # insert twin: "new q" (2 tokens)
        (17, "d e f g", "fr"),   # deleted
    ])
    got = {r["lang"]: r for r in c3.ivm_lang_tokens(d).to_pylist()}
    # en: docs {1, 3(updated)} -> 2 docs, tokens 3 + 3 = 6
    assert got["en"]["n_docs"] == 2 and got["en"]["n_tokens"] == 6
    # fr: doc 5 stays (1 tok) + inserted twin (2 toks); 17 deleted
    assert got["fr"]["n_docs"] == 2 and got["fr"]["n_tokens"] == 3


def test_kwic_window_clipping(ray_session, tmp_path):
    d = str(tmp_path)
    _docs(d, [
        (1, "kw a b c", "en"),           # hit at pos 0: left clipped
        (2, "a b c d kw", "en"),         # hit at end: right clipped
        (3, "a b c kw d e f", "en"),     # interior: full ±3 window
        (4, "kw x kw", "en"),            # two hits, overlapping windows
    ])
    got = {(r["doc_id"], r["pos"]): r["context"]
           for r in c3.kwic_concordance(d, term="kw").take_all()}
    assert got[(1, 0)] == "kw a b c"
    assert got[(2, 4)] == "b c d kw"
    assert got[(3, 3)] == "a b c kw d e f"
    assert got[(4, 0)] == "kw x kw" and got[(4, 2)] == "kw x kw"


def test_host_cap_enforced(ray_session):
    from collections import Counter
    rows = c3.top_quality_host_capped("/root/testdata/sf0.001").take_all()
    assert len(rows) == c3._HOSTCAP_K
    cnt = Counter(r["host"] for r in rows)
    assert max(cnt.values()) <= c3._HOSTCAP_PER_HOST
    # descending score with doc_id tie-break
    key = [(-r["score_total"], r["doc_id"]) for r in rows]
    assert key == sorted(key)


def test_source_influence_signs_and_identity(ray_session, tmp_path):
    import pyarrow.parquet as pq2

    d = str(tmp_path)
    # good source pulls the mean UP (positive influence), junk DOWN
    rows = ([(i, "table query batch", "good") for i in range(5)]
            + [(50 + i, "xx yy zz", "junk") for i in range(5)])
    ids, texts, srcs = zip(*rows)
    pq2.write_table(
        pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * 10, pa.string()),
            "source": pa.array(srcs, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }),
        os.path.join(d, "documents.parquet"),
    )
    t = {r["source"]: r for r in c3.source_quality_influence(d).to_pylist()}
    assert t["good"]["influence"] > 0 > t["junk"]["influence"]
    # identity: mean_all == weighted mean of per-source loo exclusions
    # via the defining formula on exact sums
    g = t["good"]
    assert g["influence"] == g["mean_all"] - g["mean_loo"]


# ---------------------------------------------------------------------------
# round-5 null-handling regressions (ADVICE r4): null text / null lang
# rows must follow the SQL oracles' NULL semantics, not numpy's 'None'
# stringification or NaN int-casts.
# ---------------------------------------------------------------------------

def _docs_nullable(d, rows):
    """rows: (doc_id, text|None, lang|None, source|None)."""
    ids = [r[0] for r in rows]
    texts = [r[1] for r in rows]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array([r[2] for r in rows], pa.string()),
                "source": pa.array([r[3] for r in rows], pa.string()),
                "n_chars": pa.array(
                    [len(t) if t is not None else 0 for t in texts],
                    pa.int64(),
                ),
            }
        ),
        os.path.join(d, "documents.parquet"),
    )


def test_ivm_null_text_rows_follow_oracle_null_propagation(
    ray_session, tmp_path
):
    """`text || ' [rev2]'` propagates NULL in SQL, and the token count
    COALESCEs afterward — so a null-text update/insert row deltas 0
    tokens (never NaN→int garbage)."""
    d = str(tmp_path)
    _docs_nullable(d, [
        (3, None, "en", "s"),    # update row with null text -> +0 tok
        (5, None, "en", "s"),    # insert twin with null text -> +0
        (24, "hello world", "fr", "s"),  # insert: 'new hello world'
        (1, "a b c", "en", "s"),
    ])
    got = {r["lang"]: r for r in c3.ivm_lang_tokens(d).to_pylist()}
    # en: base docs {1,3,5} (3+0+0 tok) + doc-5 insert twin (+1 doc, 0)
    assert got["en"]["n_docs"] == 4 and got["en"]["n_tokens"] == 3
    # fr: base doc 24 (2 tok) + its insert twin (3 tok)
    assert got["fr"]["n_docs"] == 2 and got["fr"]["n_tokens"] == 5
    assert all(isinstance(r["n_tokens"], int) for r in got.values())


def test_corpus_manifest_null_lang_source_not_counted(ray_session, tmp_path):
    """COUNT(DISTINCT x) ignores NULLs: a null lang/source must not
    inflate breadth."""
    d = str(tmp_path)
    _docs_nullable(d, [
        (1, "two tokens", "en", "web"),
        (2, "uno", None, None),
        (3, "x", "en", "web"),
    ])
    t = c3.corpus_manifest(d).to_pylist()[0]
    assert t["n_docs"] == 3
    assert t["n_langs"] == 1 and t["n_sources"] == 1


def test_neyman_null_lang_is_a_real_stratum(ray_session, tmp_path):
    """A null lang is a legal GROUP BY stratum: it must receive a
    Neyman allocation and appear in the drawn sample as lang=None —
    previously the numpy 'None' stringification k=0'd it silently."""
    d = str(tmp_path)
    _docs_nullable(d, [
        # null stratum: lengths 1 and 9 -> all the variance weight
        (4, "w", None, "s"), (5, "v" * 9, None, "s"),
        # en: zero variance -> weight 0
        (1, "x" * 5, "en", "s"), (2, "y" * 5, "en", "s"),
    ])
    alloc = {r["lang"]: r["k_alloc"]
             for r in c3.neyman_allocation(d, budget=10).to_pylist()}
    assert alloc[None] == 2 and alloc["en"] == 0
    sample = c3.stratified_neyman_sample(d, budget=10).take_all()
    assert sorted(r["doc_id"] for r in sample) == [4, 5]
    assert all(r["lang"] is None for r in sample)
