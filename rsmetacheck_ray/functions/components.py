"""Connected components over dedup pair edges — the operator that
turns pair/star output (exact, MinHash, SimHash, partial-overlap,
embedding) into an actual dedup DECISION: one (doc_id, component_id)
row per document that appears in any edge, component_id = the minimum
doc id reachable through any chain of near-dup edges (the canonical
survivor). A ≈ B ≈ C therefore dedups to one survivor even when A and
C never produced a direct edge.

The reference has no cross-document analog (its only dedup is the
per-document language ``set``, ``utils/pitfall_utils.py:21-37``); this
is the training-data-pipeline step its rule catalog feeds at 100 TB.

Size-gated plan:

 - **small edge sets** (≤ ``LOCAL_MAX_EDGES``, i.e. ≤ ~32 MB of int64
   pairs): ONE Ray task runs a fully vectorized min-label propagation
   (numpy ``minimum.at`` + pointer jumping) over the compacted node
   ids. The edges go to the task as object-store block refs — nothing
   is pulled to the driver.
 - **large edge sets**: distributed hash-to-min star contraction —
   each round computes every node's min neighbor-or-self with ONE
   groupby over the symmetric edges, rewrites both edge endpoints
   through that mapping, drops self-loops, and folds the mapping into
   the accumulated labels. All lookups use the engine's hashed-key-
   partition merge pattern (tagged union + ``groupby(part).map_groups``
   + per-partition ``searchsorted`` — the co-partitioned path of
   ``pipelines/join.py``), NOT ``Dataset.join``: Ray's hash join
   crashes on hash partitions that receive zero rows of one side,
   which sparse contracted edge sets hit routinely. Edge count shrinks
   every round; round count is bounded by the graph's min-propagation
   depth — O(log n)-ish for
   the star-shaped graphs dedup pair generators emit (Kiveris et al.,
   "Connected Components in MapReduce and Beyond").

Determinism: labels are pure min-reductions over ids — no seeds, no
order dependence; any partitioning yields identical output.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd
from ray.data.aggregate import Min

from .hashing import splitmix64_np

LOCAL_MAX_EDGES = 2_000_000
_MAX_ROUNDS = 100  # >> min-propagation depth of any real dedup graph


def _empty_components(id_out: str, label_out: str) -> pa.Table:
    return pa.table(
        {id_out: pa.array([], pa.int64()), label_out: pa.array([], pa.int64())}
    )


def _solve_local(blocks: list[pa.Table], a_col: str, b_col: str) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized min-label propagation over one in-memory edge list."""
    # Ray strips the schema from empty blocks (a map_groups partition
    # that received no rows yields a 0-column table) — drop them before
    # touching columns; n_edges > 0 guarantees a non-empty block exists
    blocks = [t for t in blocks if t.num_rows]
    a = np.concatenate(
        [t.column(a_col).to_numpy(zero_copy_only=False) for t in blocks]
    ).astype(np.int64)
    b = np.concatenate(
        [t.column(b_col).to_numpy(zero_copy_only=False) for t in blocks]
    ).astype(np.int64)
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ai, bi = inv[: len(a)], inv[len(a):]
    label = np.arange(len(nodes), dtype=np.int64)
    for _ in range(_MAX_ROUNDS):
        before = label.copy()
        # pull the min label across every edge, both directions
        np.minimum.at(label, ai, label[bi])
        np.minimum.at(label, bi, label[ai])
        # pointer jumping: compress label chains to their roots
        while True:
            nxt = label[label]
            if np.array_equal(nxt, label):
                break
            label = nxt
        if np.array_equal(label, before):
            return nodes, nodes[label]
    raise RuntimeError("connected_components: local solve did not converge")


def connected_components(
    pairs: rd.Dataset,
    a_col: str = "doc_id_a",
    b_col: str = "doc_id_b",
    id_out: str = "doc_id",
    label_out: str = "component_id",
    num_partitions: int | None = None,
    local_max_edges: int = LOCAL_MAX_EDGES,
) -> rd.Dataset:
    """(doc_id, component_id) for every node appearing in ``pairs``."""
    edges = pairs.select_columns([a_col, b_col]).materialize()
    n_edges = edges.count()  # metadata count on a materialized dataset
    if n_edges == 0:
        return rd.from_arrow(_empty_components(id_out, label_out))

    if n_edges <= local_max_edges:
        refs = edges.to_arrow_refs()

        @ray.remote
        def solve(*blocks) -> pa.Table:
            nodes, labels = _solve_local(list(blocks), a_col, b_col)
            return pa.table(
                {
                    id_out: pa.array(nodes, pa.int64()),
                    label_out: pa.array(labels, pa.int64()),
                }
            )

        return rd.from_arrow_refs([solve.remote(*refs)])

    from ..partitioning import adaptive_partitions

    n_parts = num_partitions or adaptive_partitions(2 * n_edges, row_bytes=40)
    return _solve_distributed(edges, a_col, b_col, id_out, label_out, n_parts)


def dedup_survivors(
    ids: rd.Dataset,
    pairs: rd.Dataset,
    id_col: str = "doc_id",
    a_col: str = "doc_id_a",
    b_col: str = "doc_id_b",
    num_partitions: int | None = None,
) -> rd.Dataset:
    """The final dedup DECISION per document: ``(id, canonical_id,
    keep)`` where ``canonical_id`` is the component minimum for any
    document reached by a near-dup edge and the document itself
    otherwise; ``keep`` ⇔ the document IS its canonical. One
    hashed-partition merge lookup of the corpus ids against the
    component labels — no broadcast of either side."""
    from ..partitioning import adaptive_partitions, parquet_rows_hint

    comp = connected_components(
        pairs, a_col=a_col, b_col=b_col, id_out="node", label_out="mn",
        num_partitions=num_partitions,
    ).materialize()
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ids), row_bytes=40
    )

    def tag(t: pa.Table) -> pa.Table:
        col = t.column(id_col).combine_chunks().cast(pa.int64())
        return pa.table({"canon": col, "orig": col})

    mapped = _map_through(
        ids.map_batches(tag, batch_format="pyarrow"),
        "canon", "orig", comp, n_parts,
    )

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                id_col: t.column("orig"),
                "canonical_id": t.column("canon"),
                "keep": pc.equal(t.column("orig"), t.column("canon")),
            }
        )

    return mapped.map_batches(finish, batch_format="pyarrow")


def _map_through(
    data: rd.Dataset, key_col: str, carry_col: str, mapping: rd.Dataset,
    n_parts: int,
) -> rd.Dataset:
    """Replace ``data[key_col]`` by ``mapping.mn`` looked up on
    ``mapping.node`` (keys absent from the mapping keep their value) —
    ONE shuffle on the hashed key partition, a vectorized sorted-merge
    per partition. Returns columns (key_col, carry_col)."""

    def part_of(col: pa.Array) -> pa.Array:
        k = col.to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.array((splitmix64_np(k) % n_parts).astype(np.int64), pa.int64())

    def tag_map(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table(
            {
                "part": part_of(t.column("node")),
                "key": t.column("node"),
                "val": t.column("mn"),
                "carry": pa.array(np.full(n, -1, dtype=np.int64)),
                "tag": pa.array(np.zeros(n, dtype=np.int8)),
            }
        )

    def tag_data(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table(
            {
                "part": part_of(t.column(key_col)),
                "key": t.column(key_col),
                "val": pa.array(np.full(n, -1, dtype=np.int64)),
                "carry": t.column(carry_col),
                "tag": pa.array(np.ones(n, dtype=np.int8)),
            }
        )

    both = mapping.map_batches(tag_map, batch_format="pyarrow").union(
        data.map_batches(tag_data, batch_format="pyarrow")
    )

    def apply(g: pa.Table) -> pa.Table:
        key = g.column("key").to_numpy(zero_copy_only=False)
        val = g.column("val").to_numpy(zero_copy_only=False)
        carry = g.column("carry").to_numpy(zero_copy_only=False)
        tag = g.column("tag").to_numpy(zero_copy_only=False)
        is_map = tag == 0
        mk, mv = key[is_map], val[is_map]
        order = np.argsort(mk)  # mapping keys are unique (groupby output)
        mk, mv = mk[order], mv[order]
        dk, dc = key[~is_map], carry[~is_map]
        if len(mk):
            pos = np.searchsorted(mk, dk)
            pos_c = np.minimum(pos, len(mk) - 1)
            hit = mk[pos_c] == dk
            out_key = np.where(hit, mv[pos_c], dk)
        else:
            out_key = dk
        return pa.table(
            {
                key_col: pa.array(out_key, pa.int64()),
                carry_col: pa.array(dc, pa.int64()),
            }
        )

    return both.groupby("part").map_groups(apply, batch_format="pyarrow")


def _solve_distributed(
    edges: rd.Dataset, a_col: str, b_col: str, id_out: str, label_out: str,
    num_partitions: int,
) -> rd.Dataset:
    """Hash-to-min star contraction; per round the (shrinking) edge set
    and the node→label mapping are materialized — the documented
    iterative-algorithm escape hatch. Every per-round primitive is a
    partial-combined groupby or a hashed-partition merge lookup."""
    import pyarrow.compute as pc

    # labels: original node -> current label (identity to start)
    def ident(t: pa.Table) -> pa.Table:
        nodes = pa.concat_arrays(
            [
                t.column(a_col).combine_chunks().cast(pa.int64()),
                t.column(b_col).combine_chunks().cast(pa.int64()),
            ]
        )
        u = pc.unique(nodes)
        return pa.table({"orig": u, "label": u})

    labels = (
        edges.map_batches(ident, batch_format="pyarrow")
        .groupby("orig")
        .aggregate(Min("label", alias_name="label"))
        .map_batches(
            lambda t: t.rename_columns(["orig", "label"]), batch_format="pyarrow"
        )
        .materialize()
    )

    cur = edges.map_batches(
        lambda t: pa.table({"ea": t.column(a_col), "eb": t.column(b_col)}),
        batch_format="pyarrow",
    ).materialize()

    def finish(lab: rd.Dataset) -> rd.Dataset:
        return lab.map_batches(
            lambda t: pa.table(
                {id_out: t.column("orig"), label_out: t.column("label")}
            ),
            batch_format="pyarrow",
        )

    for _round in range(_MAX_ROUNDS):
        if cur.count() == 0:
            return finish(labels)

        # m: node -> min(node, min neighbor) over the current edges,
        # pre-combined per batch (Arrow group_by) before the shuffle
        def sym_partial(t: pa.Table) -> pa.Table:
            node = pa.concat_arrays(
                [
                    t.column("ea").combine_chunks().cast(pa.int64()),
                    t.column("eb").combine_chunks().cast(pa.int64()),
                ]
            )
            nbr = pa.concat_arrays(
                [
                    t.column("eb").combine_chunks().cast(pa.int64()),
                    t.column("ea").combine_chunks().cast(pa.int64()),
                ]
            )
            g = pa.table({"node": node, "nbr": nbr}).group_by("node").aggregate(
                [("nbr", "min")]
            )
            return g.rename_columns(["node", "nbr"])

        m = (
            cur.map_batches(sym_partial, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Min("nbr", alias_name="mn"))
            .map_batches(
                lambda t: pa.table(
                    {
                        "node": t.column("node"),
                        "mn": pc.min_element_wise(t.column("node"), t.column("mn")),
                    }
                ),
                batch_format="pyarrow",
            )
            .materialize()
        )

        # SHORTCUT the mapping to its roots (distributed pointer
        # jumping): replace m by m∘m until idempotent. Plain hash-min
        # without this converges in O(graph DIAMETER) rounds — a
        # depth-D near-dup chain (successively edited page versions)
        # would pay D full edge-rewrite rounds and overrun _MAX_ROUNDS;
        # each shortcut pass halves chain depth over the (small,
        # per-node) mapping instead, giving O(log d) passes and O(log d)
        # outer rounds overall (Kiveris et al.'s two-phase discipline).
        s_old = m.sum("mn")
        for _jump in range(64):  # chain depth 2^64 is unreachable
            m2 = _map_through(m, "mn", "node", m, num_partitions).materialize()
            # sum(mn) strictly decreases while any chain remains;
            # equal sums ⇒ m∘m == m (labels are min-monotone)
            s_new = m2.sum("mn")
            m = m2
            if s_new == s_old:
                break
            s_old = s_new

        # rewrite both edge endpoints through m, drop self-loops
        e1 = _map_through(cur, "ea", "eb", m, num_partitions)
        e2 = _map_through(e1, "eb", "ea", m, num_partitions)
        cur = e2.map_batches(
            lambda t: t.filter(pc.not_equal(t.column("ea"), t.column("eb"))),
            batch_format="pyarrow",
        ).materialize()

        # fold m into the accumulated labels: label' = m(label)
        labels = _map_through(labels, "label", "orig", m, num_partitions).materialize()
    raise RuntimeError("connected_components: distributed solve did not converge")
