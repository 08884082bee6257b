"""Mergeable cardinality sketch — HyperLogLog distinct counting for
the wide aggregations an exact distributed distinct cannot afford at
10¹² rows (distinct hosts / users / content hashes).

Design (Flajolet et al. 2007, with the standard small-range linear
counting correction): 2^P registers; each value hashes to a register
(top P bits) and a rank (leading-zero count of the remaining bits + 1);
a partial sketch per batch is the elementwise register MAX, which is
associative and commutative — so partials merge in any order, making
the operator a textbook Ray Data partial-combine: ``map_batches``
emits ONE 2^P-byte row per block, and the final merge touches
#blocks rows, never the data.

Deterministic: value hashing is splitmix64 (functions/hashing.py), so
the estimate is a pure function of the value multiset.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from .hashing import splitmix64_np

P_BITS = 12
N_REGS = 1 << P_BITS
# alpha_m for m >= 128 (standard HLL constant)
_ALPHA = 0.7213 / (1.0 + 1.079 / N_REGS)


def hll_registers(values: np.ndarray) -> np.ndarray:
    """Register array (uint8, len 2^P) for one batch of int64 values."""
    regs = np.zeros(N_REGS, dtype=np.uint8)
    if len(values) == 0:
        return regs
    h = splitmix64_np(values.astype(np.uint64))
    idx = (h >> np.uint64(64 - P_BITS)).astype(np.int64)
    w = h & np.uint64((1 << (64 - P_BITS)) - 1)
    # bit_length via frexp: w < 2^52 is exact in float64
    wf = w.astype(np.float64)
    _, exp = np.frexp(wf)
    rank = np.where(w == 0, (64 - P_BITS) + 1, (64 - P_BITS) - exp + 1).astype(
        np.uint8
    )
    np.maximum.at(regs, idx, rank)
    return regs


def hll_merge(blobs: list[bytes]) -> np.ndarray:
    regs = np.zeros(N_REGS, dtype=np.uint8)
    for b in blobs:
        regs = np.maximum(regs, np.frombuffer(b, dtype=np.uint8))
    return regs


def hll_estimate(regs: np.ndarray) -> int:
    """Bias-corrected HLL estimate. The harmonic denominator
    Σ 2^(-reg) is summed EXACTLY in integer arithmetic (each term is
    2^(53-reg)/2^53 and reg ≤ 53), so the estimate is order-free and
    bit-reproducible by a SQL oracle — float summation order would
    differ between numpy's pairwise sum and SQL's fold. Rounding is
    floor(x + 0.5) on both sides (Python round() is half-even)."""
    m = float(N_REGS)
    counts = np.bincount(regs.astype(np.int64), minlength=54)
    denom_int = sum(
        int(c) << (53 - r) for r, c in enumerate(counts.tolist()) if c
    )
    est = _ALPHA * m * m / (denom_int / (1 << 53))
    zeros = int(counts[0])
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting (small range)
    return int(np.floor(est + 0.5))


def approx_distinct(ds: rd.Dataset, col: str) -> int:
    """Approximate distinct count of an int64 column.

    One 4 KiB partial per block; the driver merges #blocks partials —
    bounded by block count, never by row count (the documented
    exception to no-driver-materialization: the materialized set IS
    the sketch, constant-size per block)."""

    def partial(batch: pa.Table) -> pa.Table:
        vals = batch.column(col).to_numpy(zero_copy_only=False)
        return pa.table(
            {"regs": pa.array([hll_registers(vals).tobytes()], pa.binary())}
        )

    def combine(b: pa.Table) -> pa.Table:
        """Fan-in level: register-max a bundle of blobs into one, so
        the driver merges #blocks/512 blobs, not #blocks (4 KiB ×
        10⁶ blocks would be GBs) — the CMS two-level discipline."""
        if b.num_rows <= 1:
            return b
        regs = hll_merge(b.column("regs").to_pylist())
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    blobs = [
        r["regs"]
        for r in ds.select_columns([col])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(combine, batch_format="pyarrow", batch_size=512)
        .take_all()
    ]
    return hll_estimate(hll_merge(blobs))


# ---------------------------------------------------------------------------
# Count-min sketch — approximate per-item FREQUENCY at unbounded
# vocabulary (Cormode & Muthukrishnan 2005). The companion to HLL:
# HLL answers "how many distinct", CMS answers "how often is X" with
# a one-sided error (estimate >= true count, over by <= eps*N w.h.p.,
# eps = e / CMS_W). Each row is an independent hash; the estimate is
# the minimum over rows. Partials merge by elementwise SUM —
# associative and commutative, so the operator is the same textbook
# partial-combine as HLL, with one intermediate merge level so the
# final reducer touches a bounded number of (CMS_D x CMS_W) tables
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
# HLL/CMS partial-combine discipline). One-sided like CMS: a MISS is
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


# ---------------------------------------------------------------------------
# mergeable quantile sketch (MRL / KLL-family, uniform buffer capacity)
# ---------------------------------------------------------------------------
# Manku–Rajagopalan–Lindsay-style compacting quantile summary: each
# level l holds a sorted buffer of ≤ MRL_K values, every value at
# level l representing 2^l input values. When a level overflows, the
# sorted buffer is halved by taking every other element (offset chosen
# deterministically from the buffer content, so the whole sketch is a
# pure function of the input multiset and merge topology) and promoted
# one level up. One partial sketch per block (≤ MRL_K·log₂(n/MRL_K)
# float64s, ~KBs), merged level-wise — associative, so it composes as
# a textbook Ray Data partial-combine, like the HLL/CMS/Bloom partials
# above. Rank error is the classic O(log²(n/k)/k); with MRL_K=1024 the
# measured error at n=2·10⁵ is well under 1 % of n (pinned in pytest).

MRL_K = 1024
_MRL_MAX_LEVELS = 40  # 2^40 · MRL_K values ≫ any corpus
# quantile grids (shared with the SQL oracles — pipelines/queries.py
# re-derives every estimate from the exported sketch at these points)
MRL_QS = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)
MRL_QS_BY_KEY = (0.25, 0.5, 0.75, 0.95)


def _mrl_compact(levels: list[np.ndarray]) -> list[np.ndarray]:
    """Halve-and-promote every overflowing level, bottom-up."""
    lvl = 0
    while lvl < len(levels):
        buf = levels[lvl]
        if len(buf) <= MRL_K:
            lvl += 1
            continue
        buf = np.sort(buf)
        # deterministic offset from the buffer content (not a Python
        # RNG: partials must be reproducible across workers/runs)
        off = int(
            splitmix64_np(
                np.array([len(buf) ^ (lvl << 32)], dtype=np.uint64)
                ^ buf[:1].view(np.uint64)
            )[0]
            & np.uint64(1)
        )
        # odd length: the last unpaired element stays at this level so
        # no input weight is ever dropped
        pairs = len(buf) // 2
        promoted = buf[off : 2 * pairs : 2]
        rest = buf[2 * pairs :]
        levels[lvl] = rest
        if lvl + 1 == len(levels):
            levels.append(np.empty(0, np.float64))
        levels[lvl + 1] = np.concatenate([levels[lvl + 1], promoted])
        lvl += 1
    return levels


def mrl_from_values(vals: np.ndarray) -> list[np.ndarray]:
    """Sketch of one batch of float64 values (NaNs dropped)."""
    v = vals[~np.isnan(vals)].astype(np.float64, copy=False)
    return _mrl_compact([v.copy()])


def mrl_serialize(levels: list[np.ndarray]) -> bytes:
    lens = np.array([len(b) for b in levels], dtype=np.int64)
    return (
        np.int64(len(levels)).tobytes()
        + lens.tobytes()
        + np.concatenate(levels or [np.empty(0, np.float64)]).tobytes()
    )


def mrl_deserialize(blob: bytes) -> list[np.ndarray]:
    n_levels = int(np.frombuffer(blob[:8], dtype=np.int64)[0])
    lens = np.frombuffer(blob[8 : 8 + 8 * n_levels], dtype=np.int64)
    flat = np.frombuffer(blob[8 + 8 * n_levels :], dtype=np.float64)
    out, pos = [], 0
    for ln in lens:
        out.append(flat[pos : pos + ln].copy())
        pos += int(ln)
    return out


def mrl_merge(blobs: list[bytes]) -> list[np.ndarray]:
    """Level-wise concatenation, one re-compaction — associative."""
    acc: list[np.ndarray] = []
    for b in blobs:
        lv = mrl_deserialize(b)
        while len(acc) < len(lv):
            acc.append(np.empty(0, np.float64))
        for i, buf in enumerate(lv):
            acc[i] = np.concatenate([acc[i], buf])
    return _mrl_compact(acc)


def mrl_quantiles(levels: list[np.ndarray], qs) -> np.ndarray:
    """Estimate each quantile q as the smallest sketch value whose
    cumulative weight reaches q·N (weight of level l = 2^l)."""
    vals = np.concatenate(levels or [np.empty(0, np.float64)])
    if len(vals) == 0:
        return np.full(len(list(qs)), np.nan)
    w = np.concatenate(
        [np.full(len(b), 1 << l, dtype=np.int64) for l, b in enumerate(levels)]
    )
    order = np.argsort(vals, kind="stable")
    vals, w = vals[order], w[order]
    cw = np.cumsum(w)
    n = cw[-1]
    targets = np.ceil(np.asarray(list(qs), dtype=np.float64) * n).clip(1, n)
    idx = np.searchsorted(cw, targets, side="left")
    return vals[np.minimum(idx, len(vals) - 1)]


def approx_quantiles(
    ds: rd.Dataset, col: str, qs=MRL_QS,
    levels_out: list | None = None,
) -> pa.Table:
    """(q, estimate) table via one partial-sketch pass + a #blocks-row
    merge — no sort shuffle of the data, the quantile analog of
    ``approx_distinct``. ``levels_out``: when a list is passed, the
    FINAL merged sketch levels are appended to it — the oracle export
    hook (the estimates are then SQL-derivable from (item, weight=2^l)
    rows; the compaction choices themselves remain non-SQL)."""

    def partial(b: pa.Table) -> pa.Table:
        v = b.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {"sketch": pa.array([mrl_serialize(mrl_from_values(v))], pa.binary())}
        )

    def combine(b: pa.Table) -> pa.Table:
        """Fan-in level: merge a bundle of sketches into one blob, so
        the driver merges #blocks/512 sketches, not #blocks (the CMS
        two-level discipline; MRL merge is associative)."""
        if b.num_rows <= 1:
            return b
        merged = mrl_merge(b.column("sketch").to_pylist())
        return pa.table(
            {"sketch": pa.array([mrl_serialize(merged)], pa.binary())}
        )

    blobs = [
        r["sketch"]
        for r in ds.map_batches(partial, batch_format="pyarrow")
        .map_batches(combine, batch_format="pyarrow", batch_size=512)
        .take_all()
    ]
    merged = mrl_merge(blobs)
    if levels_out is not None:
        levels_out.append(merged)
    est = mrl_quantiles(merged, qs)
    return pa.table(
        {
            "q": pa.array(list(qs), pa.float64()),
            "estimate": pa.array(est, pa.float64()),
        }
    )


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


def _add_key_part(b: pa.Table, key_col: str, n_parts: int) -> pa.Table:
    """Append the hashed-key partition id (string or integer keys) —
    the shared shuffle-assignment of every by-key sketch merge."""
    from .hashing import hash_str_arrow_u128

    k = b.column(key_col)
    if pa.types.is_string(k.type) or pa.types.is_large_string(k.type):
        h, _ = hash_str_arrow_u128(k)
    else:
        h = splitmix64_np(k.to_numpy(zero_copy_only=False).astype(np.uint64))
    part = (h % np.uint64(n_parts)).astype(np.int64)
    return b.append_column("part", pa.array(part, pa.int64()))


def _sketch_parts(ds: rd.Dataset, blob_bytes: int) -> int:
    """Partition count for a by-key sketch merge, sized so one
    partition's stacked blobs fit a worker (#keys × #blocks can make
    the partial stream huge at high key cardinality — a fixed fan-in
    would OOM the merge task)."""
    from ..partitioning import adaptive_partitions, parquet_rows_hint

    return adaptive_partitions(parquet_rows_hint(ds), row_bytes=blob_bytes)


def approx_distinct_by_key(
    ds: rd.Dataset, key_col: str, col: str
) -> rd.Dataset:
    """(key, approx_distinct): per-group HLL — the mergeable sketch AS
    a grouped aggregate. Each batch emits one 4 KiB register blob per
    key it contains (segment max over the batch's rows), the groupby
    shuffle moves only those blobs, and each group's reduce is an
    elementwise register max — associative and order-independent, so
    the estimate is identical under any block layout."""

    def partial(b: pa.Table) -> pa.Table:
        keys = b.column(key_col).to_numpy(zero_copy_only=False)
        vals = b.column(col).to_numpy(zero_copy_only=False)
        # one argsort + segment slices: O(N log N) per batch, not the
        # O(unique_keys × N) of a boolean rescan per key
        uk, starts, ends, order = _key_segments(keys)
        sv = vals[order]
        return pa.table(
            {
                key_col: pa.array(uk.tolist()),
                "regs": pa.array(
                    [
                        hll_registers(sv[a:e]).tobytes()
                        for a, e in zip(starts, ends)
                    ],
                    pa.binary(),
                ),
            }
        )

    # hash-partition on the key so the per-partition merge handles
    # EVERY key of its partition in one vectorized pass — Python call
    # count is O(#partitions), not O(#distinct keys) (the per-key
    # map_groups trap; keys can be high-cardinality). Partition count
    # sized so a partition's stacked 4 KiB registers fit one worker.
    n_parts = _sketch_parts(ds, N_REGS)

    def merge(g: pa.Table) -> pa.Table:
        keys = g.column(key_col).to_numpy(zero_copy_only=False)
        if len(keys) == 0:
            return pa.table(
                {
                    key_col: pa.array([], g.schema.field(key_col).type),
                    "approx_distinct": pa.array([], pa.int64()),
                }
            )
        blobs = g.column("regs").to_pylist()
        mat = np.stack([np.frombuffer(x, np.uint8) for x in blobs])
        uk, starts, ends, order = _key_segments(keys)
        mat = mat[order]
        # one reduceat per partition merges every key's registers
        merged = np.maximum.reduceat(mat, starts, axis=0)
        est = [hll_estimate(merged[i]) for i in range(len(uk))]
        return pa.table(
            {
                key_col: pa.array(uk.tolist()),
                "approx_distinct": pa.array(est, pa.int64()),
            }
        )

    return (
        ds.select_columns([key_col, col])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(
            lambda b: _add_key_part(b, key_col, n_parts),
            batch_format="pyarrow",
        )
        .groupby("part")
        .map_groups(merge, batch_format="pyarrow")
    )


def approx_quantiles_by_key(
    ds: rd.Dataset,
    key_col: str,
    col: str,
    qs=MRL_QS_BY_KEY,
    with_sketch: bool = False,
) -> rd.Dataset:
    """(key, q, estimate): per-group approximate quantiles — the MRL
    sketch as a grouped aggregate (one KB-scale sketch blob per
    (batch, key) into the shuffle, associative level-wise merge per
    group), for value domains too wide for an exact histogram.

    ``with_sketch=True`` additionally emits each group's FINAL merged
    sketch content as marker rows (q = −(level+1), estimate = item;
    weight = 2^level recoverable from the marker) — the oracle export
    hook: the merge task is where the answer-producing sketch lives,
    so exporting from anywhere else would risk a different merge
    topology and silently different compaction."""

    def partial(b: pa.Table) -> pa.Table:
        keys = b.column(key_col).to_numpy(zero_copy_only=False)
        vals = b.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        uk, starts, ends, order = _key_segments(keys)
        sv = vals[order]
        return pa.table(
            {
                key_col: pa.array(uk.tolist()),
                "sketch": pa.array(
                    [
                        mrl_serialize(mrl_from_values(sv[a:e]))
                        for a, e in zip(starts, ends)
                    ],
                    pa.binary(),
                ),
            }
        )

    qlist = [float(q) for q in qs]

    # hashed-key partitions sized to the sketch blob (the HLL-by-key
    # discipline): call count O(#partitions), stacked blobs bounded
    n_parts = _sketch_parts(ds, 2048)

    def merge(g: pa.Table) -> pa.Table:
        keys = g.column(key_col).to_numpy(zero_copy_only=False)
        if len(keys) == 0:
            return pa.table(
                {
                    key_col: pa.array([], g.schema.field(key_col).type),
                    "q": pa.array([], pa.float64()),
                    "estimate": pa.array([], pa.float64()),
                }
            )
        blobs = g.column("sketch").to_pylist()
        uk, starts, ends, order = _key_segments(keys)
        out_k, out_q, out_e = [], [], []
        for i, (a, e) in enumerate(zip(starts, ends)):
            merged = mrl_merge([blobs[j] for j in order[a:e]])
            est = mrl_quantiles(merged, qlist)
            out_k.extend([uk[i]] * len(qlist))
            out_q.extend(qlist)
            out_e.extend(est)
            if with_sketch:
                for lvl, buf in enumerate(merged):
                    out_k.extend([uk[i]] * len(buf))
                    out_q.extend([-(lvl + 1.0)] * len(buf))
                    out_e.extend(buf)
        return pa.table(
            {
                key_col: pa.array(out_k),
                "q": pa.array(out_q, pa.float64()),
                "estimate": pa.array(np.asarray(out_e, np.float64)),
            }
        )

    return (
        ds.select_columns([key_col, col])
        .map_batches(partial, batch_format="pyarrow")
        .map_batches(
            lambda b: _add_key_part(b, key_col, n_parts),
            batch_format="pyarrow",
        )
        .groupby("part")
        .map_groups(merge, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# KMV (k-minimum-values / bottom-k) sketch — set INTERSECTION
# estimates, the operation HLL cannot provide directly.
# ---------------------------------------------------------------------------

KMV_K = 4096


def kmv_partial(vals: np.ndarray, k: int = KMV_K) -> np.ndarray:
    """The k smallest distinct splitmix64 hashes of ``vals`` (uint64,
    sorted ascending) — a mergeable bottom-k sketch partial."""
    h = np.unique(splitmix64_np(vals.astype(np.uint64)))
    return h[:k]


def kmv_merge(parts: list[np.ndarray], k: int = KMV_K) -> np.ndarray:
    """Merge bottom-k partials: distinct union, keep the k smallest.
    Associative + commutative (same multiset of hashes in any order)."""
    if not parts:
        return np.empty(0, np.uint64)
    return np.unique(np.concatenate(parts))[:k]


def kmv_intersection(
    a: np.ndarray, b: np.ndarray, k: int = KMV_K
) -> int:
    """Estimated |A ∩ B| from two bottom-k sketches.

    When a sketch holds fewer than k hashes it is the COMPLETE distinct
    hash set of its side, so if both are complete the count of common
    hashes is the exact intersection (64-bit collisions aside) — the
    estimator degrades gracefully to exactness on small sides, which
    is what makes the engine's query SQL-checkable at test scale while
    staying a sketch at 10¹² rows. Otherwise the standard KMV
    estimate: θ = min of the two k-th smallest normalized hashes;
    |common hashes < θ| / θ."""
    common = np.intersect1d(a, b)
    if len(a) < k and len(b) < k:
        return int(len(common))
    full = np.uint64(0xFFFFFFFFFFFFFFFF)
    theta_a = a[-1] if len(a) >= k else full
    theta_b = b[-1] if len(b) >= k else full
    theta = min(theta_a, theta_b)
    frac = float(theta) / float(full)
    n = int((common < theta).sum())
    return int(round(n / frac))


# ---------------------------------------------------------------------------
# Sampled quantiles — the PARTITION-INVARIANT approximate-quantile
# path. MRL/KLL compaction is merge-topology-dependent by nature (two
# different block layouts give two different — both valid — sketches),
# which is fine for monitoring but means a retried/resumed 100 TB run
# can produce a different answer. This operator instead takes the
# bottom-k rows by splitmix64(row_id) — a deterministic function of
# the row SET (splitmix64 is a bijection on u64, so distinct ids never
# tie) — and returns EXACT quantiles of that uniform sample. The
# sketch is mergeable (bottom-k of a union = bottom-k of the
# concatenated bottom-k partials), associative, commutative, and the
# result is bitwise identical at ANY partition count — the same
# reproducibility property as the fixed-point PageRank. Rank error is
# the usual Binomial(k) bound (~1.6 % at k=4096, pinned in pytest);
# unlike MRL the whole operator is SQL-derivable, so it carries a full
# DuckDB oracle.
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


def sampled_quantiles(
    ds: rd.Dataset,
    id_col: str,
    col: str,
    k: int = SQ_K,
    pcts=SQ_PCTS,
    n_parts: int = 16,
) -> pa.Table:
    """(pct, est): quantile estimates from the global bottom-k hash
    sample. Two-level merge: per-batch bottom-k partials (≤ k rows, 16
    B/row into the shuffle), hash-range parts each keep their own
    bottom-k, driver merges ≤ n_parts × k rows — never the data."""

    def partial(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        vals = b.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        h, v = _sq_bottomk(splitmix64_np(ids.astype(np.uint64)), vals, k)
        return pa.table(
            {
                "part": pa.array(
                    (h % np.uint64(n_parts)).astype(np.int64), pa.int64()
                ),
                "h": pa.array(h, pa.uint64()),
                "v": pa.array(v, pa.float64()),
            }
        )

    def merge(g: pa.Table) -> pa.Table:
        h = g.column("h").to_numpy(zero_copy_only=False).astype(np.uint64)
        v = g.column("v").to_numpy(zero_copy_only=False)
        h, v = _sq_bottomk(h, v, k)
        return pa.table(
            {
                "h": pa.array(h, pa.uint64()),
                "v": pa.array(v, pa.float64()),
            }
        )

    parts = (
        ds.select_columns([id_col, col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(merge, batch_format="pyarrow")
    )
    tbl = parts.take_all()  # ≤ n_parts × k sketch rows — bounded
    if tbl:
        h = np.array([r["h"] for r in tbl], dtype=np.uint64)
        v = np.array([r["v"] for r in tbl], dtype=np.float64)
        _, v = _sq_bottomk(h, v, k)
        vals = np.sort(v)
    else:
        vals = np.empty(0, np.float64)
    n = len(vals)
    if n == 0:
        return pa.table(
            {
                "pct": pa.array([], pa.int64()),
                "est": pa.array([], pa.float64()),
            }
        )
    return pa.table(
        {
            "pct": pa.array(list(pcts), pa.int64()),
            "est": pa.array(
                [float(vals[_sq_rank(n, p)]) for p in pcts], pa.float64()
            ),
        }
    )


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
