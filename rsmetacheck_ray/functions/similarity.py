"""Similarity search over an embedding column (``list<float>``).

Baseline: brute-force cosine top-k — the query matrix (a handful of
vectors) is broadcast once with ``ray.put``; every batch does one
double-precision matmul and emits its LOCAL top-k per query; a final
tiny ``groupby(query_id).map_groups`` merges local winners into the
global top-k. Only O(#queries × k) rows shuffle — never the corpus.

Scale path: IVF — deterministic k-means (fixed seed, fixed iteration
count) trains a small centroid codebook on a sample; each batch
assigns its vectors to the nearest centroid and only the ``nprobe``
closest cells per query are searched. Same merge; recall traded for
a ~ncells/nprobe compute cut. Codebook is per-actor state loaded once
in ``__init__`` (the ActorPoolStrategy pattern, SURVEY §2.4).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd


def _unit(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1), 1e-300)[:, None]


def _batch_matrix(batch: pa.Table, id_col: str) -> tuple[np.ndarray, np.ndarray]:
    from .arrowmat import list_column_matrix

    ids = np.asarray(batch.column(id_col).to_pylist(), dtype=np.int64)
    if len(ids) == 0:  # empty blocks occur after splits/filters
        return ids, np.zeros((0, 1), dtype=np.float64)
    return ids, list_column_matrix(batch.column("embedding"))


def _topk_table(
    qids: np.ndarray, vids: np.ndarray, cos: np.ndarray, k: int
) -> pa.Table:
    """cos: (nq, nb) scores → long-format local top-k per query."""
    out_q, out_v, out_c = [], [], []
    for qi in range(cos.shape[0]):
        row = cos[qi]
        if len(row) > k:
            # widen the selection to ALL boundary ties before the
            # deterministic sort — a bare argpartition cut can keep an
            # arbitrary tied vector and diverge from the oracle's
            # (score DESC, vec_id ASC) tie-break on duplicate vectors
            part = np.argpartition(-row, k - 1)
            kth = row[part[k - 1]]
            cand = np.nonzero(row >= kth)[0]
        else:
            cand = np.arange(len(row))
        # deterministic order: score desc, then vec_id asc
        idx = cand[np.lexsort((vids[cand], -row[cand]))][:k]
        out_q.extend([int(qids[qi])] * len(idx))
        out_v.extend(vids[idx].tolist())
        out_c.extend(row[idx].tolist())
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "cos": pa.array(out_c, pa.float64()),
        }
    )


def _merge_topk(group: pa.Table, k: int) -> pa.Table:
    q = group.column("query_id").to_pylist()
    v = np.asarray(group.column("vec_id").to_pylist(), dtype=np.int64)
    c = np.asarray(group.column("cos").to_pylist(), dtype=np.float64)
    order = np.lexsort((v, -c))[:k]
    return pa.table(
        {
            "query_id": pa.array([q[0]] * len(order), pa.int64()),
            "vec_id": pa.array(v[order], pa.int64()),
        }
    )


def knn_bruteforce(
    ds: rd.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
) -> rd.Dataset:
    """Global cosine top-k per query vector → (query_id, vec_id)."""
    qref = ray.put((np.asarray(query_ids, dtype=np.int64), _unit(np.asarray(queries, dtype=np.float64))))

    def local(batch: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(batch, id_col)
        qids, qunit = ray.get(qref)
        if len(ids) == 0:
            cos = np.zeros((len(qids), 0))
        else:
            cos = qunit @ _unit(mat).T
        return _topk_table(qids, ids, cos, k)

    local_ds = ds.map_batches(local, batch_format="pyarrow")
    return local_ds.groupby("query_id").map_groups(
        lambda g: _merge_topk(g, k), batch_format="pyarrow"
    )


def knn_hard_negatives(
    ds: rd.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    query_labels: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    label_col: str = "label",
) -> rd.Dataset:
    """Contrastive hard-negative mining: per query, the global cosine
    top-k among vectors whose LABEL DIFFERS from the query's (the
    same-label set is the positive class — the nearest other-label
    vectors are the negatives a contrastive loss learns most from).
    Same plan as knn_bruteforce (per-block local top-k prune, tiny
    per-query merge); the label mask is applied to the score matrix
    before the prune, so same-label vectors never enter the shuffle."""
    qref = ray.put(
        (
            np.asarray(query_ids, dtype=np.int64),
            _unit(np.asarray(queries, dtype=np.float64)),
            np.asarray(query_labels, dtype=np.int64),
        )
    )

    def local(batch: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(batch, id_col)
        qids, qunit, qlabs = ray.get(qref)
        if len(ids) == 0:
            cos = np.zeros((len(qids), 0))
            t = _topk_table(qids, ids, cos, k)
        else:
            labs = (
                batch.column(label_col)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            cos = qunit @ _unit(mat).T
            cos[qlabs[:, None] == labs[None, :]] = -np.inf
            t = _topk_table(qids, ids, cos, k)
            # drop masked entries that survived an under-full top-k
            t = t.filter(pc.greater(t.column("cos"), float("-inf")))
        return t

    local_ds = ds.map_batches(local, batch_format="pyarrow")
    return local_ds.groupby("query_id").map_groups(
        lambda g: _merge_topk(g, k), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# IVF
# ---------------------------------------------------------------------------

def deterministic_kmeans(
    x: np.ndarray, n_cells: int, n_iters: int = 10, seed: int = 42
) -> np.ndarray:
    """Fixed-seed, fixed-iteration k-means on unit vectors (cosine)."""
    from .hashing import splitmix64_np

    n = len(x)
    pick = splitmix64_np(np.arange(n, dtype=np.uint64) ^ np.uint64(seed)).argsort()[
        :n_cells
    ]
    cent = _unit(x[pick].copy())
    for _ in range(n_iters):
        assign = (x @ cent.T).argmax(axis=1)
        for c in range(n_cells):
            m = assign == c
            if m.any():
                cent[c] = x[m].mean(axis=0)
        cent = _unit(cent)
    return cent


class IVFSearcher:
    """Actor-pool stage: codebook + queries built once per actor."""

    def __init__(self, centroids: np.ndarray, query_ids: np.ndarray, queries: np.ndarray, k: int, nprobe: int, id_col: str = "vec_id"):
        self.cent = centroids
        self.qids = np.asarray(query_ids, dtype=np.int64)
        self.qunit = _unit(np.asarray(queries, dtype=np.float64))
        self.k = k
        self.id_col = id_col
        # cells each query probes (precomputed once per actor);
        # STABLE sort so sim ties break to the lowest cell index —
        # the same (sim DESC, cell ASC) order the SQL oracle ranks by
        sims = self.qunit @ centroids.T
        self.probe = np.argsort(-sims, axis=1, kind="stable")[:, :nprobe]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(batch, self.id_col)
        if len(ids) == 0:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "cos": pa.array([], pa.float64()),
                }
            )
        unit = _unit(mat)
        assign = (unit @ self.cent.T).argmax(axis=1)
        tables = []
        for qi in range(len(self.qids)):
            m = np.isin(assign, self.probe[qi])
            if not m.any():
                continue
            cos = (self.qunit[qi : qi + 1] @ unit[m].T)
            tables.append(_topk_table(self.qids[qi : qi + 1], ids[m], cos, self.k))
        if not tables:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "cos": pa.array([], pa.float64()),
                }
            )
        return pa.concat_tables(tables)


def knn_ivf(
    ds: rd.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 10,
    n_cells: int | None = None,
    nprobe: int | None = None,
    id_col: str = "vec_id",
    train_sample: int = 2048,
    centroids_out: list | None = None,
) -> rd.Dataset:
    """Approximate cosine top-k: train codebook on a bounded SYSTEMATIC
    sample drawn across the whole corpus (id % stride == 0 — the
    orders_systematic_sample pattern), search only ``nprobe`` cells per
    query. A limit(n) sample would see only the first fragment's
    distribution and bias the codebook at scale.

    ``n_cells``/``nprobe`` default from the corpus size — the standard
    IVF heuristic ``n_cells ≈ √n`` (clamped) with ``nprobe`` = a
    quarter of the cells, trading ~4× compute cut for recall; the
    recall-vs-exact bound is pinned in tests/test_similarity.py."""
    # row count from parquet footers when the dataset has file lineage
    # (free); only transformed/in-memory inputs pay a count() pass
    from ..partitioning import parquet_rows_hint

    n_total = parquet_rows_hint(ds) or ds.count()
    if n_cells is None:
        n_cells = int(min(4096, max(16, round(n_total ** 0.5))))
    if nprobe is None:
        nprobe = max(2, n_cells // 4)
    stride = max(1, n_total // train_sample)

    def pick(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % stride == 0))

    sample = (
        ds.select_columns([id_col, "embedding"])
        .map_batches(pick, batch_format="pyarrow")
        .limit(train_sample)
        .take_all()
    )
    if not sample:
        # sparse/offset id spaces can miss the stride entirely — fall
        # back to the first rows rather than crash (biased but valid)
        sample = ds.select_columns([id_col, "embedding"]).limit(train_sample).take_all()
    x = _unit(np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in sample]))
    cent = deterministic_kmeans(x, min(n_cells, len(x)))
    if centroids_out is not None:
        centroids_out.append((cent, nprobe))  # oracle parameter export
    local = ds.map_batches(
        IVFSearcher,
        fn_constructor_args=(cent, query_ids, queries, k, nprobe, id_col),
        batch_format="pyarrow",
        concurrency=(1, 4),
    )
    return local.groupby("query_id").map_groups(
        lambda g: _merge_topk(g, k), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# exact k-nearest-neighbor JOIN (two datasets) + margin-based bitext
# mining (Artetxe & Schwenk-style ratio margin, "intersection"
# strategy: mutual best match). knn_bruteforce broadcasts a HANDFUL of
# query vectors; this joins one whole dataset against another — the
# missing shape between point-lookup kNN and the self-join near-dup
# operators.
# ---------------------------------------------------------------------------

# Same O(|A|·|B|·d) defensibility bound as dedup.EXACT_EMBEDDING_MAX_ROWS:
# past it, route per-side through knn_ivf's codebook pruning instead of
# the exact block-pair sweep.
KNN_JOIN_EXACT_MAX_ROWS = 100_000


def _unit_block_refs(ds: rd.Dataset, id_col: str):
    """Normalized (id, unit-vector) blocks left in the OBJECT STORE
    (the embedding_near_dup_pairs discipline — materialize +
    to_arrow_refs, nothing driver-resident)."""
    from .dedup import _unit_table

    norm = ds.map_batches(
        lambda b: _unit_table(b, id_col), batch_format="pyarrow"
    )
    return norm.materialize().to_arrow_refs()


def _unit_block_mats(t: pa.Table, id_col: str) -> tuple[np.ndarray, np.ndarray]:
    from .arrowmat import list_column_matrix

    ids = np.asarray(t.column(id_col).to_pylist(), dtype=np.int64)
    if len(ids) == 0:
        return ids, np.zeros((0, 1), dtype=np.float64)
    return ids, list_column_matrix(t.column("unit"))


_KNN_JOIN_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("vec_id", pa.int64()),
        ("rank", pa.int64()),
    ]
)


def _knn_partials(
    blocks_a, blocks_b, k: int, id_a: str, id_b: str
) -> rd.Dataset | None:
    """One Ray task per (A-block, B-block) pair, each emitting the
    LOCAL cosine top-k per A row — O(|A|·k) rows per B block enter the
    merge shuffle, never the vectors. Returns None when either side is
    empty."""

    @ray.remote
    def block_pair(ta: pa.Table, tb: pa.Table) -> pa.Table:
        ids_a, ua = _unit_block_mats(ta, id_a)
        ids_b, ub = _unit_block_mats(tb, id_b)
        if len(ids_a) == 0 or len(ids_b) == 0:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "cos": pa.array([], pa.float64()),
                }
            )
        return _topk_table(ids_a, ids_b, ua @ ub.T, k)

    refs = [
        block_pair.remote(ra, rb) for ra in blocks_a for rb in blocks_b
    ]
    if not refs:
        return None
    return rd.from_arrow_refs(refs)


def _merge_topk_rank(group: pa.Table, k: int) -> pa.Table:
    """Global top-k per query from the local partials, with 1-based
    rank — deterministic (cos DESC, vec_id ASC), ids only (the float
    is an internal sort key, not part of the contract)."""
    q = group.column("query_id").to_pylist()
    v = np.asarray(group.column("vec_id").to_pylist(), dtype=np.int64)
    c = np.asarray(group.column("cos").to_pylist(), dtype=np.float64)
    order = np.lexsort((v, -c))[:k]
    n = len(order)
    return pa.table(
        {
            "query_id": pa.array([q[0]] * n, pa.int64()),
            "vec_id": pa.array(v[order], pa.int64()),
            "rank": pa.array(np.arange(1, n + 1), pa.int64()),
        }
    )


def knn_join(
    ds_a: rd.Dataset,
    ds_b: rd.Dataset,
    k: int = 10,
    id_a: str = "vec_id",
    id_b: str = "vec_id",
    max_rows: int = KNN_JOIN_EXACT_MAX_ROWS,
) -> rd.Dataset:
    """Exact cosine k-nearest-neighbor JOIN: for EVERY row of ``ds_a``,
    its ``k`` most similar rows of ``ds_b`` → (query_id, vec_id, rank).

    Both sides normalize once and stay in the object store as Arrow
    blocks; one Ray task per block pair emits local per-query top-k
    partials (compute is inherently O(|A|·|B|·d) for the exact answer,
    but memory per task is two blocks and only O(|A|·k·#B-blocks)
    24-byte rows ever shuffle); a ``groupby(query_id)`` merge resolves
    the global top-k with the deterministic (cos DESC, id ASC)
    tie-break. Past ``max_rows`` on either side the join AUTO-ROUTES
    to :func:`knn_join_ivf` (explicit, logged-by-type degradation —
    the exact O(n²) sweep never runs by accident; forced-low-gate
    pytest covers the rerouted path)."""
    from ..partitioning import parquet_rows_hint

    def _sized(ds: rd.Dataset, id_col: str) -> tuple[rd.Dataset, int]:
        # lineage-free gate input: footer count when parquet lineage
        # exists (free, no pass); otherwise materialize the RAW
        # (id, embedding) projection ONCE and count it — that
        # materialized set then feeds WHICHEVER path the gate picks,
        # so the upstream transforms never execute twice and the
        # normalize pass is never run-and-discarded on the IVF route
        n = parquet_rows_hint(ds)
        if n is not None:
            return ds, n
        mat = ds.select_columns([id_col, "embedding"]).materialize()
        return mat, mat.count()

    ds_a, n_a = _sized(ds_a, id_a)
    ds_b, n_b = _sized(ds_b, id_b)
    if n_a > max_rows or n_b > max_rows:
        # size gate: past the exact path's defensibility bound the
        # join auto-routes through the IVF codebook (the
        # embedding_pairs_auto discipline — degrade explicitly to the
        # approximate plan, never run the O(n²) sweep by accident)
        return knn_join_ivf(ds_a, ds_b, k=k, id_a=id_a, id_b=id_b)
    blocks_a = _unit_block_refs(ds_a, id_a)
    blocks_b = _unit_block_refs(ds_b, id_b)
    partials = _knn_partials(blocks_a, blocks_b, k, id_a, id_b)
    if partials is None:
        return rd.from_arrow(_KNN_JOIN_SCHEMA.empty_table())
    return partials.groupby("query_id").map_groups(
        lambda g: _merge_topk_rank(g, k), batch_format="pyarrow"
    )


def _merge_best2(group: pa.Table) -> pa.Table:
    """One row per query: the best B-side match plus both engines'
    margin ingredients (cos1, cos2). cos2 is NULL when the B side has
    a single candidate."""
    q = group.column("query_id").to_pylist()
    v = np.asarray(group.column("vec_id").to_pylist(), dtype=np.int64)
    c = np.asarray(group.column("cos").to_pylist(), dtype=np.float64)
    order = np.lexsort((v, -c))
    cos2 = [float(c[order[1]])] if len(order) > 1 else [None]
    return pa.table(
        {
            "src_id": pa.array([q[0]], pa.int64()),
            "tgt_id": pa.array([int(v[order[0]])], pa.int64()),
            "cos1": pa.array([float(c[order[0]])], pa.float64()),
            "cos2": pa.array(cos2, pa.float64()),
        }
    )


def bitext_margin_pairs(
    ds_src: rd.Dataset,
    ds_tgt: rd.Dataset,
    min_cos: float = 0.7,
    margin: float = 1.8,
    id_src: str = "vec_id",
    id_tgt: str = "vec_id",
    max_rows: int = KNN_JOIN_EXACT_MAX_ROWS,
) -> rd.Dataset:
    """Margin-based bitext mining → (src_id, tgt_id): source/target
    pairs that are (1) MUTUAL best matches (the intersection strategy)
    and (2) separated by a ratio margin — best cosine ≥ ``margin`` ×
    second-best — with an absolute floor ``min_cos``. The ratio-margin
    criterion is Artetxe & Schwenk (2019)'s defense against hubness:
    a vector whose best match barely beats its second-best is noise
    even when the absolute cosine is high.

    Plan: forward best-2 per source (block-pair partials + one-row
    merge), backward best-1 per target (same machinery, k=1), then a
    size-gated generic join on tgt_id with a vectorized mutuality
    filter. Only (id, id, cos, cos) rows shuffle — never vectors."""
    from ..partitioning import parquet_rows_hint
    from ..pipelines.join import join as generic_join

    empty = pa.table(
        {"src_id": pa.array([], pa.int64()), "tgt_id": pa.array([], pa.int64())}
    )
    # the same exact-path size gate as knn_join: past it, candidates
    # come from the IVF-bucketed partials (margins become approximate
    # exactly like the retrieved set — the documented degradation)
    def _sized(ds: rd.Dataset, id_col: str) -> tuple[rd.Dataset, int]:
        # footer count when parquet lineage exists; else materialize
        # the raw projection ONCE and feed it to whichever path the
        # gate picks (same discipline as knn_join — no normalize-and-
        # discard, no upstream double-execution on the IVF route)
        n = parquet_rows_hint(ds)
        if n is not None:
            return ds, n
        mat = ds.select_columns([id_col, "embedding"]).materialize()
        return mat, mat.count()

    ds_src, n_s = _sized(ds_src, id_src)
    ds_tgt, n_t = _sized(ds_tgt, id_tgt)
    use_ivf = n_s > max_rows or n_t > max_rows
    if not use_ivf:
        blocks_s = _unit_block_refs(ds_src, id_src)
        blocks_t = _unit_block_refs(ds_tgt, id_tgt)
    if use_ivf:
        fwd_p = _ivf_partials(ds_src, ds_tgt, 2, id_a=id_src, id_b=id_tgt)
        bwd_p = _ivf_partials(ds_tgt, ds_src, 1, id_a=id_tgt, id_b=id_src)
    else:
        fwd_p = _knn_partials(blocks_s, blocks_t, 2, id_src, id_tgt)
        bwd_p = _knn_partials(blocks_t, blocks_s, 1, id_tgt, id_src)
    if fwd_p is None or bwd_p is None:
        return rd.from_arrow(empty)
    fwd = fwd_p.groupby("query_id").map_groups(
        _merge_best2, batch_format="pyarrow"
    )

    def margin_filter(t: pa.Table) -> pa.Table:
        c1 = t.column("cos1").to_numpy(zero_copy_only=False)
        c2 = t.column("cos2").to_numpy(zero_copy_only=False)
        ok = (c1 >= min_cos) & (np.isnan(c2) | (c1 >= margin * c2))
        take = pa.array(np.flatnonzero(ok), pa.int64())
        return pa.table(
            {
                "src_id": t.column("src_id").take(take),
                "tgt_id": t.column("tgt_id").take(take),
            }
        )

    fwd_ok = fwd.map_batches(margin_filter, batch_format="pyarrow")

    def bwd_best(g: pa.Table) -> pa.Table:
        v = np.asarray(g.column("vec_id").to_pylist(), dtype=np.int64)
        c = np.asarray(g.column("cos").to_pylist(), dtype=np.float64)
        order = np.lexsort((v, -c))
        return pa.table(
            {
                "tgt_id": pa.array(
                    [int(g.column("query_id")[0].as_py())], pa.int64()
                ),
                "bwd_src_id": pa.array([int(v[order[0]])], pa.int64()),
            }
        )

    bwd = bwd_p.groupby("query_id").map_groups(bwd_best, batch_format="pyarrow")
    joined = generic_join(fwd_ok, bwd, on="tgt_id")

    def mutual(t: pa.Table) -> pa.Table:
        ok = pc.equal(t.column("src_id"), t.column("bwd_src_id"))
        sub = t.filter(pc.fill_null(ok, False))
        return sub.select(["src_id", "tgt_id"])

    return joined.map_batches(mutual, batch_format="pyarrow")


def _ivf_partials(
    ds_a: rd.Dataset,
    ds_b: rd.Dataset,
    k: int = 10,
    n_cells: int | None = None,
    nprobe: int | None = None,
    id_a: str = "vec_id",
    id_b: str = "vec_id",
    train_sample: int = 2048,
    centroids_out: list | None = None,
) -> rd.Dataset | None:
    """Per-cell local top-k partials (query_id, vec_id, cos) of the
    IVF-bucketed kNN join — shared by :func:`knn_join_ivf` (rank
    merge) and the bitext scale path (best-2 merge). None when B is
    empty. Approximate scale path for :func:`knn_join` — IVF-bucketed:
    a codebook trained on a bounded systematic sample of B assigns
    every B row to ONE cell (argmax cosine; ties → lowest cell, the
    oracle's (sim DESC, cluster ASC)) and every A row to its ``nprobe``
    closest cells; ONE hashed-cell shuffle co-locates them and each
    cell joins locally (matmul top-k per A row), then the global
    ``groupby(query_id)`` merge resolves the probed-cells top-k.

    Compute drops from O(|A|·|B|) to ~O(|A|·|B|·nprobe/n_cells);
    recall is traded (a neighbor hiding in an unprobed cell is
    invisible — pinned vs exact in tests). Unlike the exact path the
    unit VECTORS ride the shuffle (8d B/row, ×(nprobe) for A) — the
    standard IVF sharding cost; a B vector ships exactly once."""
    from ..partitioning import parquet_rows_hint

    n_b = parquet_rows_hint(ds_b) or ds_b.count()
    if n_cells is None:
        n_cells = int(min(4096, max(8, round(max(n_b, 1) ** 0.5))))
    if nprobe is None:
        nprobe = max(2, n_cells // 4)
    stride = max(1, n_b // train_sample)

    def pick(b: pa.Table) -> pa.Table:
        ids = b.column(id_b).to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % stride == 0))

    sample = (
        ds_b.select_columns([id_b, "embedding"])
        .map_batches(pick, batch_format="pyarrow")
        .limit(train_sample)
        .take_all()
    )
    if not sample:
        sample = (
            ds_b.select_columns([id_b, "embedding"])
            .limit(train_sample)
            .take_all()
        )
    if not sample:
        return None
    x = _unit(
        np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in sample])
    )
    cent = deterministic_kmeans(x, min(n_cells, len(x)))
    if centroids_out is not None:
        centroids_out.append((cent, nprobe))  # oracle parameter export
    cent_ref = ray.put(cent)

    def _unit_list(u: np.ndarray) -> pa.Array:
        return pa.array(u.tolist(), pa.list_(pa.float64()))

    def tag_b(b: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(b, id_b)
        c = ray.get(cent_ref)
        if len(ids) == 0:
            u = np.zeros((0, c.shape[1]))
            cell = np.zeros(0, np.int64)
        else:
            u = _unit(mat)
            cell = (u @ c.T).argmax(axis=1).astype(np.int64)
        return pa.table(
            {
                "cell": pa.array(cell, pa.int64()),
                "tag": pa.array(np.zeros(len(ids), np.int8)),
                "rid": pa.array(ids, pa.int64()),
                "unit": _unit_list(u),
            }
        )

    def tag_a(b: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(b, id_a)
        c = ray.get(cent_ref)
        if len(ids) == 0:
            return pa.table(
                {
                    "cell": pa.array([], pa.int64()),
                    "tag": pa.array([], pa.int8()),
                    "rid": pa.array([], pa.int64()),
                    "unit": pa.array([], pa.list_(pa.float64())),
                }
            )
        u = _unit(mat)
        sims = u @ c.T
        probe = np.argsort(-sims, axis=1, kind="stable")[:, :nprobe]
        npb = probe.shape[1]
        rep = np.repeat(np.arange(len(ids)), npb)
        return pa.table(
            {
                "cell": pa.array(probe.reshape(-1).astype(np.int64), pa.int64()),
                "tag": pa.array(np.ones(len(rep), np.int8)),
                "rid": pa.array(ids[rep], pa.int64()),
                "unit": _unit_list(u[rep]),
            }
        )

    both = ds_b.map_batches(tag_b, batch_format="pyarrow").union(
        ds_a.map_batches(tag_a, batch_format="pyarrow")
    )

    def cell_join(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "cos": pa.array([], pa.float64()),
            }
        )
        tg = g.column("tag").to_numpy(zero_copy_only=False)
        a_sel = np.flatnonzero(tg == 1)
        b_sel = np.flatnonzero(tg == 0)
        if len(a_sel) == 0 or len(b_sel) == 0:
            return empty
        rid = g.column("rid").to_numpy(zero_copy_only=False)
        units = g.column("unit").to_pylist()
        ua = np.stack([np.asarray(units[i], np.float64) for i in a_sel])
        ub = np.stack([np.asarray(units[i], np.float64) for i in b_sel])
        return _topk_table(rid[a_sel], rid[b_sel], ua @ ub.T, k)

    return both.groupby("cell").map_groups(
        cell_join, batch_format="pyarrow"
    )


def knn_join_ivf(
    ds_a: rd.Dataset,
    ds_b: rd.Dataset,
    k: int = 10,
    n_cells: int | None = None,
    nprobe: int | None = None,
    id_a: str = "vec_id",
    id_b: str = "vec_id",
    train_sample: int = 2048,
    centroids_out: list | None = None,
) -> rd.Dataset:
    """IVF-bucketed kNN join — see :func:`_ivf_partials` for the plan;
    this is the top-k-per-query merge over those partials."""
    partials = _ivf_partials(
        ds_a, ds_b, k, n_cells, nprobe, id_a, id_b,
        train_sample, centroids_out,
    )
    if partials is None:
        return rd.from_arrow(_KNN_JOIN_SCHEMA.empty_table())
    return partials.groupby("query_id").map_groups(
        lambda g: _merge_topk_rank(g, k), batch_format="pyarrow"
    )


def mmr_select(
    ds: rd.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 5,
    pool: int = 20,
    lam: float = 0.5,
    id_col: str = "vec_id",
) -> pa.Table:
    """Maximal-Marginal-Relevance diversified top-k → (query_id,
    vec_id, pick): greedily pick ``k`` results from each query's
    cosine top-``pool`` candidates, each step maximizing
    λ·rel(d) − (1−λ)·max_{s∈selected} sim(d, s) — the classic
    redundancy-penalized retrieval rule (a near-duplicate of an
    already-picked result scores itself out, where plain kNN returns
    the whole duplicate cluster).

    Distribution: the candidate POOL is the distributed part (the
    knn_bruteforce block-prune plan); the greedy solve runs on the
    bounded nq×pool table driver-side — pool² pairwise sims per query,
    never the corpus. Ties break to the lowest vec_id at every pick
    (the oracle's ORDER BY score DESC, vec_id)."""
    qids = np.asarray(query_ids, dtype=np.int64)
    qraw = np.asarray(queries, dtype=np.float64)
    # pool+1 then drop the query itself: with self in the pool, pick 1
    # is the query and every pick-2 score collapses to exactly
    # λ·rel − (1−λ)·rel ≡ 0 at λ=½ — an all-ties knife edge where
    # 1-ulp dot-product noise decides the output
    pool_df = knn_bruteforce(ds, queries, qids, k=pool + 1, id_col=id_col)
    pool_ids: dict[int, list[int]] = {}
    cand_all: set[int] = set()
    for r in pool_df.take_all():  # bounded: nq × (pool+1) rows
        qid, vid = int(r["query_id"]), int(r["vec_id"])
        if vid == qid:
            continue
        lst = pool_ids.setdefault(qid, [])
        if len(lst) >= pool:
            continue
        lst.append(vid)
        cand_all.add(vid)
    empty = pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "vec_id": pa.array([], pa.int64()),
            "pick": pa.array([], pa.int64()),
        }
    )
    if not cand_all:
        return empty
    cand_sorted = np.array(sorted(cand_all), np.int64)
    cand_ref = ray.put(cand_sorted)

    def fetch(b: pa.Table) -> pa.Table:
        cand = ray.get(cand_ref)
        ids = np.asarray(b.column(id_col).to_pylist(), dtype=np.int64)
        if len(ids) == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "embedding": b.column("embedding").slice(0, 0),
                }
            )
        pos = np.searchsorted(cand, ids)
        member = cand[np.minimum(pos, len(cand) - 1)] == ids
        return b.select([id_col, "embedding"]).filter(pa.array(member))

    rows = ds.map_batches(fetch, batch_format="pyarrow").take_all()
    vecs = {
        int(r[id_col]): np.asarray(r["embedding"], dtype=np.float64)
        for r in rows
    }
    tiny = np.finfo(np.float64).tiny
    out_q, out_v, out_p = [], [], []
    for qi, qid in enumerate(qids.tolist()):
        cands = pool_ids.get(int(qid), [])
        if not cands:
            continue
        # Bit-identical to DuckDB list_cosine_similarity: one
        # sequential fold per pair (dot += x*y; nx += x*x; ny += y*y)
        # then dot / (sqrt(nx) * sqrt(ny)).  cumsum IS the running
        # fold, np.sqrt is exactly rounded, float multiply is
        # commutative — so every rel and pairwise sim matches the
        # oracle's doubles and the k-step greedy argmax chain cannot
        # diverge on a 1-ulp near-tie (kmeans_margin discipline).
        # The zero-norm guard sits on the norm PRODUCTS (guarding each
        # norm alone still gives tiny * tiny = 0): a zero vector has
        # cosine 0 to everything, never NaN. Pairwise sims fold one row
        # at a time: O(pool·d) memory.
        mat = np.stack([vecs[c] for c in cands])
        qv = qraw[qi]
        nr = np.sqrt(np.cumsum(mat * mat, axis=1)[:, -1])
        nq = np.sqrt(np.cumsum(qv * qv)[-1])
        rel = np.cumsum(mat * qv, axis=1)[:, -1] / np.maximum(nq * nr, tiny)
        sims = np.empty((len(cands), len(cands)))
        for i in range(len(cands)):
            sims[i] = np.cumsum(mat[i] * mat, axis=1)[:, -1] / np.maximum(
                nr[i] * nr, tiny
            )
        chosen: list[int] = []
        remaining = list(range(len(cands)))
        for pick in range(min(k, len(cands))):
            best_j, best_key = None, None
            for j in remaining:
                pen = max(sims[j][c] for c in chosen) if chosen else 0.0
                score = lam * rel[j] - (1.0 - lam) * pen
                key = (-score, cands[j])
                if best_key is None or key < best_key:
                    best_j, best_key = j, key
            chosen.append(best_j)
            remaining.remove(best_j)
            out_q.append(int(qid))
            out_v.append(cands[best_j])
            out_p.append(pick + 1)
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "pick": pa.array(out_p, pa.int64()),
        }
    )
