"""Sampled-quantile operator tests: partition-count INVARIANCE (the
property a compacting quantile sketch cannot give), rank error vs the
exact order statistics, bottom-k merge correctness, and the small-input
exactness degradation (n ≤ k ⇒ the sample IS the data ⇒ exact
nearest-rank quantiles). The whole-table cases run the keyed operator
with one key."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from rsmetacheck_ray.functions import sketch as sk
from rsmetacheck_ray.functions.hashing import splitmix64_np


def _events(n: int, seed: int = 3) -> pa.Table:
    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "event_type": pa.array(
                [f"t{i % 4}" for i in range(n)], pa.string()
            ),
            "value": pa.array(rng.normal(50, 20, n), pa.float64()),
        }
    )


def _reference(tbl: pa.Table, k: int = sk.SQ_K, pcts=sk.SQ_PCTS):
    """Single-process re-derivation of the bottom-k sample quantiles."""
    ids = tbl.column("event_id").to_numpy()
    vals = tbl.column("value").to_numpy()
    h = splitmix64_np(ids.astype(np.uint64))
    order = np.argsort(h)[:k]
    s = np.sort(vals[order])
    n = len(s)
    return {p: s[min(n - 1, (n * p) // 100)] for p in pcts}


def _single_key_quantiles(tbl: pa.Table, parts: int) -> pa.Table:
    """(g, pct, est) of ``sampled_quantiles_by_key`` over ``tbl`` with
    every row under the one key "all"."""
    keyed = tbl.append_column("g", pa.array(["all"] * tbl.num_rows))
    res = sk.sampled_quantiles_by_key(
        rd.from_arrow(keyed).repartition(parts), "g", "event_id", "value"
    )
    assert set(res.column("g").to_pylist()) == {"all"}
    return res


def test_partition_count_invariance(ray_session):
    tbl = _events(20_000)
    outs = []
    for parts in (1, 3, 16):
        res = _single_key_quantiles(tbl, parts)
        outs.append(res.column("est").to_pylist())
    assert outs[0] == outs[1] == outs[2]  # bitwise identical
    ref = _reference(tbl)
    assert outs[0] == [ref[p] for p in sk.SQ_PCTS]


def test_rank_error_vs_exact(ray_session):
    tbl = _events(200_000)
    res = _single_key_quantiles(tbl, 8)
    vals = np.sort(tbl.column("value").to_numpy())
    n = len(vals)
    for p, est in zip(
        res.column("pct").to_pylist(), res.column("est").to_pylist()
    ):
        true_rank = np.searchsorted(vals, est) / n
        assert abs(true_rank - p / 100) < 0.03, (p, est, true_rank)


def test_small_input_is_exact(ray_session):
    tbl = _events(500)  # n < k: the sample is the whole input
    res = _single_key_quantiles(tbl, 4)
    vals = np.sort(tbl.column("value").to_numpy())
    n = len(vals)
    for p, est in zip(
        res.column("pct").to_pylist(), res.column("est").to_pylist()
    ):
        assert est == vals[min(n - 1, (n * p) // 100)]


def test_by_key_groups_and_invariance(ray_session):
    tbl = _events(30_000)
    outs = []
    for parts in (2, 9):
        res = sk.sampled_quantiles_by_key(
            rd.from_arrow(tbl).repartition(parts),
            "event_type",
            "event_id",
            "value",
        )
        outs.append(
            list(
                zip(
                    res.column("event_type").to_pylist(),
                    res.column("pct").to_pylist(),
                    res.column("est").to_pylist(),
                )
            )
        )
    assert outs[0] == outs[1]
    types = {t for t, _, _ in outs[0]}
    assert types == {"t0", "t1", "t2", "t3"}
    # per-group estimates stay inside each group's value range
    for t in types:
        mask = np.array(
            [x == t for x in tbl.column("event_type").to_pylist()]
        )
        vals = tbl.column("value").to_numpy()[mask]
        for tt, p, est in outs[0]:
            if tt == t:
                assert vals.min() <= est <= vals.max()


def test_bottomk_merge_equals_single_pass():
    ids = np.arange(50_000, dtype=np.uint64) * 7 + 1
    vals = np.arange(50_000, dtype=np.float64)
    h = splitmix64_np(ids)
    hs, vs = sk._sq_bottomk(h, vals, sk.SQ_K)
    # merging per-shard bottom-k partials reproduces the global bottom-k
    parts = [
        sk._sq_bottomk(hh, vv, sk.SQ_K)
        for hh, vv in zip(np.array_split(h, 7), np.array_split(vals, 7))
    ]
    mh = np.concatenate([p[0] for p in parts])
    mv = np.concatenate([p[1] for p in parts])
    mhs, mvs = sk._sq_bottomk(mh, mv, sk.SQ_K)
    assert np.array_equal(hs, mhs) and np.array_equal(vs, mvs)
