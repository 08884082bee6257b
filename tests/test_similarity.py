"""Similarity-search tests: brute-force top-k vs a numpy reference,
IVF recall vs the exact answer."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rsmetacheck_ray.functions import similarity as sim


def _corpus(n=200, d=16, seed=3):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(n, d))
    t = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in mat],
                                  pa.list_(pa.float32())),
        }
    )
    return t, mat


def _reference_topk(mat, queries, k):
    qu = queries / np.linalg.norm(queries, axis=1)[:, None]
    # float32 storage round-trip to match what the Dataset holds
    mu = mat.astype(np.float32).astype(np.float64)
    mu = mu / np.linalg.norm(mu, axis=1)[:, None]
    cos = qu @ mu.T
    out = {}
    for qi in range(len(queries)):
        order = np.lexsort((np.arange(mat.shape[0]), -cos[qi]))[:k]
        out[qi] = list(order)
    return out


def test_knn_bruteforce_matches_reference(ray_session):
    import ray.data as rd

    t, mat = _corpus()
    queries = mat[:3].copy()
    # queries must round-trip float32 like the stored corpus
    queries = queries.astype(np.float32).astype(np.float64)
    res = sim.knn_bruteforce(
        rd.from_arrow(t), queries, np.arange(3), k=5
    ).to_pandas()
    ref = _reference_topk(mat, queries, 5)
    for qi in range(3):
        got = list(res[res["query_id"] == qi]["vec_id"])
        assert set(got) == set(ref[qi]), (qi, got, ref[qi])
        assert got[0] == qi  # self is its own nearest neighbor


def test_knn_merge_is_global(ray_session):
    """Result must be identical regardless of block layout."""
    import ray.data as rd

    t, mat = _corpus()
    q = mat[:2].astype(np.float32).astype(np.float64)
    a = sim.knn_bruteforce(rd.from_arrow(t), q, np.arange(2), k=7).to_pandas()
    b = sim.knn_bruteforce(
        rd.from_arrow(t).repartition(13), q, np.arange(2), k=7
    ).to_pandas()
    key = lambda df: sorted(zip(df["query_id"], df["vec_id"]))
    assert key(a) == key(b)


def test_ivf_recall(ray_session):
    import ray.data as rd

    t, mat = _corpus(n=400)
    q = mat[:5].astype(np.float32).astype(np.float64)
    exact = sim.knn_bruteforce(rd.from_arrow(t), q, np.arange(5), k=10).to_pandas()
    approx = sim.knn_ivf(
        rd.from_arrow(t), q, np.arange(5), k=10, n_cells=8, nprobe=3
    ).to_pandas()
    recalls = []
    for qi in range(5):
        e = set(exact[exact["query_id"] == qi]["vec_id"])
        a = set(approx[approx["query_id"] == qi]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.6, recalls


def test_kmeans_deterministic():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(100, 8))
    x = x / np.linalg.norm(x, axis=1)[:, None]
    c1 = sim.deterministic_kmeans(x, 4)
    c2 = sim.deterministic_kmeans(x, 4)
    assert np.array_equal(c1, c2)


def test_knn_handles_empty_blocks(ray_session):
    """Splits/filters can produce empty blocks; stages must pass them
    through rather than crash np.stack."""
    import ray.data as rd

    t, mat = _corpus(n=20)
    q = mat[:2].astype(np.float32).astype(np.float64)
    ds = rd.from_arrow(t).repartition(40)  # more blocks than rows
    out = sim.knn_bruteforce(ds, q, np.arange(2), k=5).to_pandas()
    assert len(out) == 10


def _labeled_corpus(n=200, d=16, seed=3, n_labels=4):
    t, mat = _corpus(n, d, seed)
    labels = np.arange(n, dtype=np.int64) % n_labels
    return t.append_column("label", pa.array(labels, pa.int32())), mat, labels


def test_hard_negatives_excludes_same_label(ray_session):
    import ray.data as rd

    t, mat, labels = _labeled_corpus()
    qn = 3
    out = sim.knn_hard_negatives(
        rd.from_arrow(t).repartition(5), mat[:qn], np.arange(qn), labels[:qn], k=7
    ).to_pandas()
    assert len(out) == qn * 7
    for qid, grp in out.groupby("query_id"):
        assert (labels[grp["vec_id"].to_numpy()] != labels[qid]).all()
    # parity with a masked brute-force reference
    unit = mat / np.linalg.norm(mat, axis=1)[:, None]
    cos = unit[:qn] @ unit.T
    for qid in range(qn):
        row = cos[qid].copy()
        row[labels == labels[qid]] = -np.inf
        ref = sorted(np.arange(len(row)), key=lambda i: (-row[i], i))[:7]
        got = out[out["query_id"] == qid]["vec_id"].tolist()
        assert got == ref


def test_hard_negatives_underfull_label(ray_session):
    # only 2 other-label vectors exist: output has 2 rows, never a
    # masked (-inf) filler
    import ray.data as rd

    t, mat = _corpus(n=10)
    labels = np.array([0] * 8 + [1] * 2, np.int64)
    t = t.append_column("label", pa.array(labels, pa.int32()))
    out = sim.knn_hard_negatives(
        rd.from_arrow(t).repartition(3), mat[:1], np.array([0]), labels[:1], k=5
    ).to_pandas()
    assert sorted(out["vec_id"].tolist()) == [8, 9]


# --- knn_join + bitext margin mining ---------------------------------------

def _vec_table(rows):
    """rows: (vec_id, vector)."""
    ids, vecs = zip(*rows)
    return pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs], pa.list_(pa.float32())
            ),
        }
    )


def test_knn_join_exact_vs_numpy_reference(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(11)
    a = rng.normal(size=(40, 8))
    b = rng.normal(size=(60, 8))
    got = sim.knn_join(
        rd.from_arrow(_vec_table(list(enumerate(a)))).repartition(5),
        rd.from_arrow(_vec_table(list(enumerate(b)))).repartition(7),
        k=4,
    ).take_all()
    # reference: float32 round-trip then float64 cosine
    ua = a.astype(np.float32).astype(np.float64)
    ub = b.astype(np.float32).astype(np.float64)
    ua /= np.linalg.norm(ua, axis=1)[:, None]
    ub /= np.linalg.norm(ub, axis=1)[:, None]
    cos = ua @ ub.T
    want = {}
    for qi in range(40):
        order = np.lexsort((np.arange(60), -cos[qi]))[:4]
        want[qi] = list(order)
    by_q = {}
    for r in got:
        by_q.setdefault(r["query_id"], {})[r["rank"]] = r["vec_id"]
    assert set(by_q) == set(range(40))
    for qi, ranks in by_q.items():
        assert [ranks[i] for i in (1, 2, 3, 4)] == want[qi]


def test_knn_join_tie_break_is_id_ascending(ray_session):
    import ray.data as rd

    # two identical B vectors: rank 1 must go to the smaller id
    a = rd.from_arrow(_vec_table([(0, [1.0, 0.0])]))
    b = rd.from_arrow(_vec_table([(9, [2.0, 0.0]), (4, [1.0, 0.0])]))
    got = sorted(
        sim.knn_join(a, b, k=2).take_all(), key=lambda r: r["rank"]
    )
    assert [r["vec_id"] for r in got] == [4, 9]


def test_knn_join_empty_side(ray_session):
    import ray.data as rd

    a = rd.from_arrow(_vec_table([(0, [1.0, 0.0])]))
    empty = rd.from_arrow(_vec_table([(0, [1.0, 0.0])])).limit(0)
    assert sim.knn_join(a, empty, k=3).take_all() == []
    assert sim.knn_join(empty, a, k=3).take_all() == []


def test_bitext_requires_mutual_best(ray_session):
    import ray.data as rd

    # src 0 -> tgt 10 is src 0's best with a huge margin, but tgt 10's
    # best source is src 1 (closer) — NOT mutual, must be excluded.
    # src 1 <-> tgt 10 is mutual with margin >= 1.8.
    src = rd.from_arrow(_vec_table([
        (0, [1.0, 0.2, 0.0]),
        (1, [1.0, 0.05, 0.0]),
    ]))
    tgt = rd.from_arrow(_vec_table([
        (10, [1.0, 0.0, 0.0]),
        (11, [0.0, 0.0, 1.0]),   # orthogonal distractor
    ]))
    got = sim.bitext_margin_pairs(src, tgt, min_cos=0.7, margin=1.8).take_all()
    assert [(r["src_id"], r["tgt_id"]) for r in got] == [(1, 10)]


def test_bitext_margin_rejects_ambiguous_match(ray_session):
    import ray.data as rd

    # tgt 20 and 21 are both ~equally similar to src 0: mutual best
    # holds but the ratio margin (~1.0) fails -> no pair.
    src = rd.from_arrow(_vec_table([(0, [1.0, 0.0])]))
    tgt = rd.from_arrow(_vec_table([
        (20, [1.0, 0.01]),
        (21, [1.0, -0.01]),
    ]))
    assert sim.bitext_margin_pairs(src, tgt, min_cos=0.7, margin=1.8).take_all() == []


def test_bitext_single_candidate_passes_on_floor_alone(ray_session):
    import ray.data as rd

    # one-candidate target side: cos2 is NULL, margin is vacuous,
    # the absolute floor decides (pass above, fail below)
    src = rd.from_arrow(_vec_table([(0, [1.0, 0.0])]))
    tgt_hi = rd.from_arrow(_vec_table([(30, [1.0, 0.1])]))
    tgt_lo = rd.from_arrow(_vec_table([(30, [0.1, 1.0])]))
    assert [
        (r["src_id"], r["tgt_id"])
        for r in sim.bitext_margin_pairs(src, tgt_hi).take_all()
    ] == [(0, 30)]
    assert sim.bitext_margin_pairs(src, tgt_lo).take_all() == []


def test_knn_join_ivf_recall_vs_exact(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(7)
    a = rng.normal(size=(50, 16))
    b = rng.normal(size=(200, 16))
    # plant an exact copy of every 5th A vector into B: its cell is by
    # construction the query's closest cell, so rank-1 recall on the
    # planted pairs must be PERFECT, not just probable
    for i in range(0, 50, 5):
        b[100 + i // 5] = a[i]
    dsa = rd.from_arrow(_vec_table(list(enumerate(a)))).repartition(4)
    dsb = rd.from_arrow(_vec_table(list(enumerate(b)))).repartition(6)
    exact = {}
    for r in sim.knn_join(dsa, dsb, k=5).take_all():
        exact.setdefault(r["query_id"], set()).add(r["vec_id"])
    approx = {}
    rank1 = {}
    for r in sim.knn_join_ivf(dsa, dsb, k=5, n_cells=8, nprobe=3).take_all():
        approx.setdefault(r["query_id"], set()).add(r["vec_id"])
        if r["rank"] == 1:
            rank1[r["query_id"]] = r["vec_id"]
    for i in range(0, 50, 5):
        assert rank1[i] == 100 + i // 5
    hits = sum(len(exact[q] & approx.get(q, set())) for q in exact)
    total = sum(len(v) for v in exact.values())
    assert hits / total >= 0.5  # deterministic given the fixed seed


def test_mmr_penalizes_redundancy(ray_session):
    import ray.data as rd

    # candidates: 10 and 11 are near-identical and most relevant;
    # 12 is less relevant but diverse. Plain top-2 = {10, 11};
    # MMR pick 2 must switch to 12.
    q = np.array([[1.0, 0.0, 0.0]])
    t = _vec_table([
        (10, [1.0, 0.05, 0.0]),
        (11, [1.0, 0.06, 0.0]),
        (12, [0.5, 0.0, 0.8]),
    ])
    got = sim.mmr_select(
        rd.from_arrow(t), q, np.array([99]), k=2, pool=3, lam=0.5
    ).to_pylist()
    assert [(r["pick"], r["vec_id"]) for r in got] == [(1, 10), (2, 12)]
    # with lam=1.0 MMR degenerates to plain kNN order
    got2 = sim.mmr_select(
        rd.from_arrow(t), q, np.array([99]), k=2, pool=3, lam=1.0
    ).to_pylist()
    assert [(r["pick"], r["vec_id"]) for r in got2] == [(1, 10), (2, 11)]


def test_mmr_excludes_self_and_bounds_k(ray_session):
    import ray.data as rd

    # the query vector itself (vec_id == query_id) never appears in
    # the picks; k larger than the pool returns the whole pool
    t = _vec_table([
        (5, [1.0, 0.0]),       # the query itself
        (6, [0.9, 0.1]),
        (7, [0.0, 1.0]),
    ])
    got = sim.mmr_select(
        rd.from_arrow(t), np.array([[1.0, 0.0]]), np.array([5]),
        k=10, pool=5,
    ).to_pylist()
    assert [r["vec_id"] for r in got] == [6, 7]
    assert [r["pick"] for r in got] == [1, 2]


def test_mmr_zero_norm_query_and_candidate(ray_session):
    import ray.data as rd

    # a zero query has cosine 0 to every candidate and a zero candidate
    # cosine 0 to everything: no score may turn NaN. Pick 1 is an
    # all-zero tie -> lowest vec_id (1); pick 2 is the zero candidate 3
    # (penalty 0 beats every positive similarity to 1); then 4, the
    # candidate least similar to 1.
    t = _vec_table([
        (1, [1.0, 0.1]),
        (2, [1.0, 0.2]),
        (3, [0.0, 0.0]),
        (4, [0.2, 1.0]),
    ])
    got = sim.mmr_select(
        rd.from_arrow(t), np.array([[0.0, 0.0]]), np.array([99]),
        k=4, pool=4, lam=0.5,
    ).to_pylist()
    assert [r["vec_id"] for r in got] == [1, 3, 4, 2]


def test_ndcg_weights_and_bounds(ray_session):
    # planted check of the scoring walk via the public query at
    # sf0.001: ndcg in [0,1]; a query whose top-1 shares its label
    # contributes the full 1/log2(2) leading term
    from rsmetacheck_ray.pipelines.queries import q_knn_ndcg

    t = q_knn_ndcg("/root/testdata/sf0.001")
    assert t.num_rows == 5
    nd = t.column("ndcg").to_numpy()
    dc = t.column("dcg").to_numpy()
    ic = t.column("idcg").to_numpy()
    assert (nd >= 0).all() and (nd <= 1 + 1e-12).all()
    assert (dc <= ic + 1e-12).all()
    # self-retrieval at rank 1 always matches the query's own label
    assert (dc >= 1.0 - 1e-12).all()


def test_knn_join_forced_low_gate_routes_to_ivf(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(3)
    a = rng.normal(size=(30, 8))
    b = rng.normal(size=(80, 8))
    for i in range(0, 30, 5):  # planted copies: rank-1 guaranteed
        b[50 + i // 5] = a[i]
    dsa = rd.from_arrow(_vec_table(list(enumerate(a)))).repartition(3)
    dsb = rd.from_arrow(_vec_table(list(enumerate(b)))).repartition(4)
    # gate forced below both side sizes -> the IVF path must serve the
    # join (no error, full per-query coverage, planted rank-1 intact)
    got = sim.knn_join(dsa, dsb, k=3, max_rows=10).take_all()
    by_q = {}
    for r in got:
        by_q.setdefault(r["query_id"], {})[r["rank"]] = r["vec_id"]
    assert set(by_q) == set(range(30))
    for i in range(0, 30, 5):
        assert by_q[i][1] == 50 + i // 5


def test_bitext_forced_low_gate_still_finds_planted_pairs(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(9)
    # 32 dims keeps random background cosines low enough that the
    # default ratio margin separates the planted copies cleanly
    src = rng.normal(size=(40, 32))
    tgt = rng.normal(size=(120, 32))
    for i in range(0, 40, 4):  # planted translations: exact copies
        tgt[80 + i // 4] = src[i]
    dss = rd.from_arrow(_vec_table(list(enumerate(src)))).repartition(3)
    dst = rd.from_arrow(_vec_table(list(enumerate(tgt)))).repartition(5)
    exact = sorted(
        (r["src_id"], r["tgt_id"]) for r in
        sim.bitext_margin_pairs(dss, dst).take_all()
    )
    approx = sorted(
        (r["src_id"], r["tgt_id"]) for r in
        sim.bitext_margin_pairs(dss, dst, max_rows=10).take_all()
    )
    planted = [(i, 80 + i // 4) for i in range(0, 40, 4)]
    # an exact copy lands in its own query's best-probed cell, so the
    # planted pairs survive the gated (IVF-candidate) path
    for p in planted:
        assert p in exact and p in approx
