"""Mergeable sketches — fixed-size per-block partials that combine
associatively, so a corpus-wide answer never needs the rows on one
worker:

- count-min (CMS): approximate per-token FREQUENCY at unbounded
  vocabulary (``cms_heavy_hitters``);
- Bloom filter: the incremental-dedup seen set's membership probe;
- keyed bottom-k sample quantiles (``sampled_quantiles_by_key``):
  per-group quantiles that are bitwise identical at any partition
  count.

Each operator is a Ray Data partial-combine: ``map_batches`` emits one
bounded partial per block, and the merge touches partials, never the
data. Deterministic: value hashing is splitmix64 (functions/hashing.py)
or blake2b, so every estimate is a pure function of the input multiset.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from .hashing import splitmix64_np


# ---------------------------------------------------------------------------
# Count-min sketch — approximate per-item FREQUENCY at unbounded
# vocabulary (Cormode & Muthukrishnan 2005): "how often is X" with
# a one-sided error (estimate >= true count, over by <= eps*N w.h.p.,
# eps = e / CMS_W). Each row is an independent hash; the estimate is
# the minimum over rows. Partials merge by elementwise SUM —
# associative and commutative — with one intermediate merge level so
# the final reducer touches a bounded number of (CMS_D x CMS_W) tables
# however many blocks the corpus has.
# ---------------------------------------------------------------------------

CMS_D = 4
CMS_W = 1 << 13  # 8192 counters/row -> eps ~ 3.3e-4 of total mass
_CMS_SEEDS = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5],
    dtype=np.uint64,
)
_CMS_MERGE_FAN = 32  # intermediate merge groups


def _cms_indices(vals: np.ndarray) -> np.ndarray:
    """(D, n) counter indices for int64/uint64 hashed values."""
    v = vals.astype(np.uint64, copy=False)
    return np.stack(
        [
            (splitmix64_np(v ^ _CMS_SEEDS[d]) % np.uint64(CMS_W)).astype(
                np.int64
            )
            for d in range(CMS_D)
        ]
    )


def cms_table(vals: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """(CMS_D, CMS_W) int64 sketch of one batch of hashed values."""
    tab = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    if len(vals) == 0:
        return tab
    idx = _cms_indices(vals)
    w = weights if weights is not None else None
    for d in range(CMS_D):
        tab[d] = np.bincount(idx[d], weights=w, minlength=CMS_W).astype(
            np.int64
        )
    return tab


def cms_estimate(tab: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """min-over-rows count estimate per value (the CMS guarantee:
    >= true count, <= true + eps*N w.h.p.)."""
    if len(vals) == 0:
        return np.zeros(0, np.int64)
    idx = _cms_indices(vals)
    return np.min(
        np.stack([tab[d, idx[d]] for d in range(CMS_D)]), axis=0
    )


def _token_hashes_u64(tokens: list) -> np.ndarray:
    """blake2b-8 per token — the ONE hash spec shared by the sketch
    build and every estimate/probe (drift between copies would make
    estimates silently stop matching the build side)."""
    import hashlib

    return np.array(
        [
            int.from_bytes(
                hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest(),
                "big",
            )
            for t in tokens
        ],
        dtype=np.uint64,
    )


def cms_token_sketch(
    ds: rd.Dataset, text_col: str = "text", per_batch_candidates: int = 0
) -> tuple[np.ndarray, list]:
    """Corpus-wide CMS over whitespace tokens in ONE pass: per-batch
    bincount partials (one fixed-size table per block), ONE
    intermediate hashed-group merge level, then a bounded driver sum —
    block count never reaches the final reducer. With
    ``per_batch_candidates`` > 0 each partial also carries its local
    top tokens, so heavy-hitter candidates ride the same pass instead
    of re-tokenizing the corpus. Returns (table, sorted candidates)."""
    import hashlib

    from .tokenize import tokens_with_doc_index

    def partial(b: pa.Table) -> pa.Table:
        _, denc = tokens_with_doc_index(b.column(text_col))
        cand: list[str] = []
        if denc is None:
            tab = np.zeros((CMS_D, CMS_W), dtype=np.int64)
        else:
            # hash the batch's UNIQUE vocabulary once (Zipf), weight
            # by in-batch occurrence counts
            uniq = denc.dictionary.to_pylist()
            uh = _token_hashes_u64(uniq)
            cnt = np.bincount(
                denc.indices.to_numpy(zero_copy_only=False),
                minlength=len(uniq),
            )
            tab = cms_table(uh, cnt.astype(np.float64))
            if per_batch_candidates:
                uo = np.asarray(uniq, dtype=object)
                top = np.lexsort((uo, -cnt))[:per_batch_candidates]
                cand = uo[top].tolist()
        part = (
            int.from_bytes(
                hashlib.blake2b(tab.tobytes(), digest_size=8).digest(), "big"
            )
            % _CMS_MERGE_FAN
        )  # content-hash spread across merge groups
        return pa.table(
            {
                "mpart": pa.array([part], pa.int64()),
                "tab": pa.array([tab.tobytes()], pa.binary()),
                "cand": pa.array([cand], pa.list_(pa.string())),
            }
        )

    def merge_group(g: pa.Table) -> pa.Table:
        acc = np.zeros((CMS_D, CMS_W), dtype=np.int64)
        for blob in g.column("tab").to_pylist():
            acc += np.frombuffer(blob, np.int64).reshape(CMS_D, CMS_W)
        cands = sorted(
            {t for row in g.column("cand").to_pylist() for t in row}
        )
        return pa.table(
            {
                "tab": pa.array([acc.tobytes()], pa.binary()),
                "cand": pa.array([cands], pa.list_(pa.string())),
            }
        )

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("mpart")
        .map_groups(merge_group, batch_format="pyarrow")
    )
    acc = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    cand: set[str] = set()
    for r in merged.take_all():  # <= _CMS_MERGE_FAN rows
        acc += np.frombuffer(r["tab"], np.int64).reshape(CMS_D, CMS_W)
        cand.update(r["cand"])
    return acc, sorted(cand)


def cms_rank_candidates(
    tab: np.ndarray, toks: list, k: int = 50
) -> pa.Table:
    """Rank candidate tokens by sketch-estimated count: deterministic
    total order (est_n DESC, token ASC), top-k. Split out from
    :func:`cms_heavy_hitters` so callers that need the candidate list
    itself (e.g. the DuckDB oracle's parameter export) can build and
    rank in two steps without duplicating the tie-break spec."""
    est = cms_estimate(tab, _token_hashes_u64(toks))
    order = np.lexsort((np.asarray(toks, dtype=object), -est))[:k]
    return pa.table(
        {
            "token": pa.array([toks[i] for i in order], pa.string()),
            "est_n": pa.array(est[order], pa.int64()),
        }
    )


def cms_heavy_hitters(
    ds: rd.Dataset, text_col: str = "text", k: int = 50, per_batch: int = 20
) -> pa.Table:
    """(token, est_n): top-k tokens by CMS-estimated frequency over
    the union of per-batch top candidates (a global heavy hitter is a
    local heavy hitter in the batches that carry its mass; the sketch
    then ranks candidates with global counts). ONE corpus pass —
    candidates ride the sketch partials. Deterministic order
    (est_n DESC, token ASC)."""
    tab, toks = cms_token_sketch(
        ds, text_col, per_batch_candidates=per_batch
    )
    return cms_rank_candidates(tab, toks, k)


# ---------------------------------------------------------------------------
# Bloom filter — the memory lever of the incremental-dedup seen set:
# a rolling crawl probes each day's increment against the ALL-TIME
# seen hashes; exact membership needs 16 B per seen doc (16 GB/10^9),
# a Bloom filter needs ~1.2 bits per doc per 1% FPR tier and
# OR-merges associatively (one fixed-size bit array per block, the
# CMS partial-combine discipline). One-sided like CMS: a MISS is
# definitely new (no false negatives); a HIT is "maybe seen" at the
# configured false-positive rate, routed to the exact probe if the
# pipeline needs certainty.
# ---------------------------------------------------------------------------

BLOOM_BITS = 1 << 23  # 1 MiB default tier
BLOOM_K = 7


def _bloom_probe_idx(vals: np.ndarray, m_bits: int):
    """Yield the K probe indices per value — the ONE double-hashing
    spec (Kirsch–Mitzenmacher h1 + i·h2) shared by the build and the
    probe side (drift between copies would silently break membership)."""
    v = vals.astype(np.uint64, copy=False)
    h1 = splitmix64_np(v)
    h2 = splitmix64_np(v ^ np.uint64(0xA5A5A5A5A5A5A5A5)) | np.uint64(1)
    for i in range(BLOOM_K):
        yield (h1 + np.uint64(i) * h2) % np.uint64(m_bits)


def bloom_bits(vals: np.ndarray, m_bits: int = BLOOM_BITS) -> np.ndarray:
    """Bit array (uint8, m_bits/8) over uint64-hashed values."""
    bits = np.zeros(m_bits // 8, dtype=np.uint8)
    if len(vals) == 0:
        return bits
    for idx in _bloom_probe_idx(vals, m_bits):
        np.bitwise_or.at(bits, (idx >> np.uint64(3)).astype(np.int64),
                         np.left_shift(np.uint8(1), (idx & np.uint64(7)).astype(np.uint8)))
    return bits


def bloom_merge(blobs: list[bytes], m_bits: int = BLOOM_BITS) -> np.ndarray:
    acc = np.zeros(m_bits // 8, dtype=np.uint8)
    for b in blobs:
        acc |= np.frombuffer(b, dtype=np.uint8)
    return acc


def bloom_contains(bits: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """bool per value: False = DEFINITELY absent; True = maybe present
    (at the filter's false-positive rate)."""
    if len(vals) == 0:
        return np.zeros(0, dtype=bool)
    out = np.ones(len(vals), dtype=bool)
    for idx in _bloom_probe_idx(vals, len(bits) * 8):
        bit = (bits[(idx >> np.uint64(3)).astype(np.int64)]
               >> (idx & np.uint64(7)).astype(np.uint8)) & 1
        out &= bit.astype(bool)
    return out


def _key_segments(keys: np.ndarray):
    """(unique_keys, seg_starts, seg_ends, sort_order) of a key array —
    the shared grouping primitive of the by-key sketch partials."""
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    n = len(sk)
    if n == 0:
        z = np.array([], np.int64)
        return sk, z, z, order
    new = np.concatenate(([True], sk[1:] != sk[:-1]))
    starts = np.flatnonzero(new)
    ends = np.concatenate((starts[1:], [n]))
    return sk[starts], starts, ends, order


# ---------------------------------------------------------------------------
# Keyed sampled quantiles — the PARTITION-INVARIANT approximate
# quantile path. Per group, take the bottom-k rows by
# splitmix64(row_id) — a deterministic function of the row SET
# (splitmix64 is a bijection on u64, so distinct ids never tie) — and
# return EXACT quantiles of that uniform sample. The sample is
# mergeable (bottom-k of a union = bottom-k of the concatenated
# bottom-k partials), associative and commutative, so the result is
# bitwise identical at ANY partition count: a retried or resumed run
# gives the same answer. Rank error is the usual Binomial(k) bound
# (~1.6 % at k=4096, pinned in pytest), and the whole operator is
# SQL-derivable, so it carries a full DuckDB oracle.
# ---------------------------------------------------------------------------

SQ_K = 4096
SQ_PCTS = (25, 50, 75, 90, 99)


def _sq_bottomk(h: np.ndarray, v: np.ndarray, k: int):
    """The k smallest-hash (h, v) pairs, hash-ascending."""
    if len(h) > k:
        sel = np.argpartition(h, k)[:k]
        h, v = h[sel], v[sel]
    order = np.argsort(h)
    return h[order], v[order]


def _sq_rank(n: int, pct: int) -> int:
    """Nearest-rank index into the sorted sample (floor, clamped) —
    mirrored verbatim by the SQL oracle's LEAST(n-1, n*pct//100)."""
    return min(n - 1, (n * pct) // 100)


def sampled_quantiles_by_key(
    ds: rd.Dataset,
    key_col: str,
    id_col: str,
    col: str,
    k: int = SQ_K,
    pcts=SQ_PCTS,
) -> pa.Table:
    """(key, pct, est): per-group sampled quantiles. Each group keeps
    its own bottom-k (partial per (batch, key), one grouped merge);
    driver sees ≤ |keys| × k sample rows."""

    def partial(b: pa.Table) -> pa.Table:
        keys = b.column(key_col).to_numpy(zero_copy_only=False)
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        vals = b.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        hs = splitmix64_np(ids.astype(np.uint64))
        uk, starts, ends, order = _key_segments(keys)
        hs, vals = hs[order], vals[order]
        out_k, out_h, out_v = [], [], []
        for key, a, e in zip(uk.tolist(), starts, ends):
            h, v = _sq_bottomk(hs[a:e], vals[a:e], k)
            out_k.extend([key] * len(h))
            out_h.append(h)
            out_v.append(v)
        return pa.table(
            {
                key_col: pa.array(out_k),
                "h": pa.array(
                    np.concatenate(out_h) if out_h else np.empty(0, np.uint64),
                    pa.uint64(),
                ),
                "v": pa.array(
                    np.concatenate(out_v)
                    if out_v
                    else np.empty(0, np.float64),
                    pa.float64(),
                ),
            }
        )

    def merge(g: pa.Table) -> pa.Table:
        h = g.column("h").to_numpy(zero_copy_only=False).astype(np.uint64)
        v = g.column("v").to_numpy(zero_copy_only=False)
        h, v = _sq_bottomk(h, v, k)
        key = g.column(key_col)[0].as_py()
        return pa.table(
            {
                key_col: pa.array([key] * len(h)),
                "h": pa.array(h, pa.uint64()),
                "v": pa.array(v, pa.float64()),
            }
        )

    samples = (
        ds.select_columns([key_col, id_col, col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(key_col)
        .map_groups(merge, batch_format="pyarrow")
    )
    tbl = samples.take_all()  # ≤ |keys| × k sample rows — bounded
    by_key: dict = {}
    for r in tbl:
        by_key.setdefault(r[key_col], []).append(r["v"])
    out_k, out_p, out_e = [], [], []
    for key in sorted(by_key):
        vals = np.sort(np.array(by_key[key], dtype=np.float64))
        n = len(vals)
        for p in pcts:
            out_k.append(key)
            out_p.append(p)
            out_e.append(float(vals[_sq_rank(n, p)]))
    return pa.table(
        {
            key_col: pa.array(out_k),
            "pct": pa.array(out_p, pa.int64()),
            "est": pa.array(out_e, pa.float64()),
        }
    )
