"""Planted tests for corpus batch 2 (pipelines/corpus2.py): script-mix
class partition (counts sum to n_chars, empty text), TTR distinctness
across partitions, vocab-growth first-seen semantics with duplicate
checkpoints on a tiny id range, and fixed-point centroid exactness
(including negative coordinates)."""

from __future__ import annotations

import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from rsmetacheck_ray.pipelines import corpus2 as c2


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


def test_script_mix_partitions_and_empty(ray_session, tmp_path):
    d = str(tmp_path)
    _docs(d, [(1, "Ab1 .!x", "en"), (2, "", "en"), (3, "日本語", "ja")])
    got = {r["doc_id"]: r for r in c2.doc_script_mix(d).take_all()}
    r = got[1]  # A b 1 space dot excl x → 3 letters, 1 digit, 1 space, 2 punct
    assert r["n_chars"] == 7 and r["n_letters"] == 3
    assert r["n_digits"] == 1 and r["n_spaces"] == 1 and r["n_punct"] == 2
    assert r["n_other"] == 0
    assert r["letter_share"] == 3.0 / 7.0
    e = got[2]
    assert e["n_chars"] == 0 and e["letter_share"] == 0.0
    j = got[3]  # 3 non-ASCII chars → all 'other'
    assert j["n_chars"] == 3 and j["n_other"] == 3 and j["n_letters"] == 0


def test_lang_ttr_counts_types_across_batches(ray_session, tmp_path):
    d = str(tmp_path)
    _docs(d, [
        (1, "a b a", "en"),   # tokens 3, types {a,b}
        (2, "b c", "en"),     # en totals: tokens 5, types {a,b,c}=3
        (3, "x x x x", "fr"), # fr: tokens 4, types 1
    ])
    for parts in (1, 3):
        got = c2.lang_ttr(d, num_partitions=parts).take_all()
        assert got == [
            {"lang": "en", "n_tokens": 5, "n_types": 3, "ttr": 3.0 / 5.0},
            {"lang": "fr", "n_tokens": 4, "n_types": 1, "ttr": 0.25},
        ], got


def test_vocab_growth_first_seen_and_duplicate_checkpoints(
    ray_session, tmp_path
):
    d = str(tmp_path)
    # ids 1..4 (span 4 < 10 checkpoints → duplicated cut points):
    # doc 1: "a b", doc 2: "b c", doc 3: "a", doc 4: "d"
    _docs(d, [
        (1, "a b", "en"), (2, "b c", "en"), (3, "a", "en"), (4, "d", "en"),
    ])
    for parts in (1, 3):
        rows = c2.vocab_growth(d, num_partitions=parts).take_all()
        assert [r["k"] for r in rows] == list(range(1, 11))
        by_ck = {r["ck_doc_id"]: r for r in rows}
        # after doc 1: vocab {a,b}, 2 tokens; after 2: {a,b,c}, 4;
        # after 3: same vocab, 5 tokens; after 4: {a,b,c,d}, 6
        assert by_ck[1]["vocab_size"] == 2 and by_ck[1]["n_tokens"] == 2
        assert by_ck[2]["vocab_size"] == 3 and by_ck[2]["n_tokens"] == 4
        assert by_ck[3]["vocab_size"] == 3 and by_ck[3]["n_tokens"] == 5
        assert by_ck[4]["vocab_size"] == 4 and by_ck[4]["n_tokens"] == 6
        # duplicated checkpoints repeat the same cumulative row
        assert rows[-1]["ck_doc_id"] == 4
        # monotone non-decreasing cumulative curves
        vs = [r["vocab_size"] for r in rows]
        assert vs == sorted(vs)


def test_label_centroids_fixed_point_exact(ray_session, tmp_path):
    d = str(tmp_path)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array([1, 2, 3], pa.int64()),
                "embedding": pa.array(
                    [[1.0, -0.5], [0.0, 0.5], [2.0, 2.0]],
                    pa.list_(pa.float32()),
                ),
                "label": pa.array([0, 0, 1], pa.int32()),
            }
        ),
        os.path.join(d, "embeddings.parquet"),
    )
    got = c2.label_centroids(d).take_all()
    s = 1 << 20
    assert got == [
        {"label": 0, "idx": 0, "centroid": (1.0 * s + 0.0 * s) / (2 * s)},
        {"label": 0, "idx": 1, "centroid": (np.floor(-0.5 * s + 0.5)
                                            + np.floor(0.5 * s + 0.5)) / (2 * s)},
        {"label": 1, "idx": 0, "centroid": 2.0},
        {"label": 1, "idx": 1, "centroid": 2.0},
    ], got


def test_lang_hapax_counts(ray_session, tmp_path):
    d = str(tmp_path)
    _docs(d, [(1, "a b a", "en"), (2, "c", "en"), (3, "x x", "fr")])
    for parts in (1, 3):
        got = c2.lang_hapax(d, num_partitions=parts).take_all()
        assert got == [
            {"lang": "en", "n_types": 3, "n_hapax": 2, "hapax_share": 2 / 3},
            {"lang": "fr", "n_types": 1, "n_hapax": 0, "hapax_share": 0.0},
        ], got


def test_lang_zipf_shape_and_partition_invariance(ray_session, tmp_path):
    d = str(tmp_path)
    # en counts: a=4, b=2, c=1 → strictly decreasing → slope < 0;
    # fr: two tokens tied at 2 (tie-break token-asc) → slope 0
    _docs(d, [
        (1, "a a a a b b c", "en"),
        (2, "y y z z", "fr"),
    ])
    got1 = c2.lang_zipf(d, num_partitions=1).take_all()
    got3 = c2.lang_zipf(d, num_partitions=3).take_all()
    assert got1 == got3
    by = {r["lang"]: r for r in got1}
    assert by["en"]["n_top"] == 3 and by["en"]["zipf_slope"] < 0
    assert by["fr"]["n_top"] == 2 and by["fr"]["zipf_slope"] == 0.0


def test_token_dispersion_even_vs_bursty(ray_session, tmp_path):
    d = str(tmp_path)
    # "a" appears once in each of 4 docs (even); "b" appears 4 times in
    # one doc (bursty). Same totals → same n_total, different variance.
    _docs(d, [
        (1, "a b b b b", "en"), (2, "a", "en"), (3, "a", "en"), (4, "a", "en"),
    ])
    got = {r["token"]: r for r in c2.token_dispersion(d).take_all()}
    a, b = got["a"], got["b"]
    assert a["n_total"] == 4 and b["n_total"] == 4
    assert a["df"] == 4 and b["df"] == 1
    assert a["sum_c2"] == 4 and b["sum_c2"] == 16
    assert a["doc_share"] == 1.0 and b["doc_share"] == 0.25
    # var over ALL docs incl. zeros: a: mean 1, all counts 1 → 0;
    # b: counts (4,0,0,0), mean 1 → (4·16 − 16)/16 = 3
    assert a["count_var"] == 0.0 and b["count_var"] == 3.0
    # bursty > even at equal totals is the signal the operator exists for
    assert b["count_var"] > a["count_var"]


def test_source_ks_exact(ray_session, tmp_path):
    d = str(tmp_path)
    # source s1 lengths {1,1,3}, s2 lengths {3,3,3}:
    # at v=1: |2·3 − 0·3| = 6 (max), at v=3: |3·3 − 3·3| = 0
    # → d_num 6, ks = 6/9 = 2/3
    texts = ["x", "y", "abc", "abc", "def", "ghi"]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * 6, pa.string()),
                "source": pa.array(
                    ["s1", "s1", "s1", "s2", "s2", "s2"], pa.string()
                ),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        os.path.join(d, "documents.parquet"),
    )
    got = c2.source_ks_length(d).take_all()
    assert got == [
        {"source_a": "s1", "source_b": "s2", "n_a": 3, "n_b": 3,
         "d_num": 6, "ks": 2.0 / 3.0}
    ], got


def test_label_centroid_similarity_orthogonal_and_parallel(
    ray_session, tmp_path
):
    d = str(tmp_path)
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array([1, 2, 3], pa.int64()),
                "embedding": pa.array(
                    [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]],
                    pa.list_(pa.float32()),
                ),
                "label": pa.array([0, 1, 2], pa.int32()),
            }
        ),
        os.path.join(d, "embeddings.parquet"),
    )
    got = {(r["label_a"], r["label_b"]): r["cosine"]
           for r in c2.label_centroid_similarity(d).take_all()}
    assert got[(0, 1)] == 0.0          # orthogonal
    assert abs(got[(0, 2)] - 1.0) < 1e-12  # same direction, diff scale
    assert got[(1, 2)] == 0.0


def test_source_quality_corr_perfect_and_anti(ray_session, tmp_path):
    d = str(tmp_path)
    # s1: marker count rises exactly with token count → corr 1.0
    # s2: constant marker count, varying tokens → dx>0, dy... x const
    #   → dx == 0 → defined 0.0
    texts = [
        ("the a", "s1"),            # x=1, y=2
        ("the and a b", "s1"),      # x=2, y=4
        ("the the and c d e", "s1"),# x=3, y=6
        ("the a", "s2"),            # x=1, y=2
        ("the a b c", "s2"),        # x=1, y=4
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(1, len(texts) + 1), pa.int64()),
                "text": pa.array([t for t, _ in texts], pa.string()),
                "lang": pa.array(["en"] * len(texts), pa.string()),
                "source": pa.array([s for _, s in texts], pa.string()),
                "n_chars": pa.array(
                    [len(t) for t, _ in texts], pa.int64()
                ),
            }
        ),
        os.path.join(d, "documents.parquet"),
    )
    got = {r["source"]: r for r in c2.source_quality_corr(d).take_all()}
    assert abs(got["s1"]["corr"] - 1.0) < 1e-12 and got["s1"]["n"] == 3
    assert got["s2"]["corr"] == 0.0 and got["s2"]["n"] == 2


def test_dedup_savings_counts(ray_session, tmp_path):
    d = str(tmp_path)
    # "a b" ×3 (2 tokens), "c" ×1 (1 token), "" ×2 (0 tokens)
    _docs(d, [
        (1, "a b", "en"), (2, "a b", "en"), (3, "a b", "en"),
        (4, "c", "en"), (5, "", "en"), (6, "", "en"),
    ])
    for parts in (1, 3):
        got = c2.dedup_savings(d, num_partitions=parts).take_all()
        assert got == [
            {"n_docs": 6, "n_unique": 3, "dup_fraction": 0.5,
             "n_tokens": 7, "n_tokens_unique": 3,
             "token_savings": 4.0 / 7.0}
        ], got


def test_split_balance_pools_and_totals(ray_session):
    sf = "/root/testdata/sf0.001"
    rows = c2.split_balance(sf).take_all()
    assert {r["split"] for r in rows} <= {"train", "val", "test"}
    assert sum(r["n_docs"] for r in rows) == 500
    for r in rows:
        assert 0.0 <= r["pooled_stopword_ratio"] <= 1.0
        assert r["mean_chars"] == r["n_chars"] / r["n_docs"]
    # the 80/10/10 buckets actually land near their fractions
    train = next(r for r in rows if r["split"] == "train")
    assert 0.6 <= train["n_docs"] / 500 <= 0.95
