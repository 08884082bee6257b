"""Deduplication operators — the cross-document capability the
reference lacks (its only dedup is a per-document language-list ``set``,
``utils/pitfall_utils.py:21-37``; SURVEY §2.7 designs the cross-doc
path as ``groupby(key) → first-per-group``), promoted here to
first-class large-scale operators:

 - **exact dedup**: content-hash each document inside ``map_batches``
   (C-speed blake2b, no Python byte loops), then ONE ``groupby(hash)``
   shuffle of the tiny (hash, doc_id) projection — the full text never
   shuffles. Canonical survivor = min doc_id; pair output is STAR
   edges (canonical, member) — linear per duplicate group.
 - **MinHash + LSH near-dup**: word k-shingles (memoized word hashes +
   one global rotate-xor-splitmix combine) → 64-permutation minhash
   via ``minimum.reduceat`` over doc segments → 16 bands × 4 rows
   (S-curve midpoint ≈ the 0.5 estimate threshold) → shuffle on a
   hashed band-key partition → per-bucket candidate pairs verified by
   signature agreement, hot buckets capped. Only O(#docs × bands)
   small rows shuffle; texts stay put.
 - **SimHash**: 64-bit weighted-token fingerprint per doc, plus
   banded-Hamming pair search (exact for distance ≤ 3).
 - **n-gram Jaccard**: exact similarity verification for candidate
   pairs (the ground truth the sketches approximate).
 - **embedding cosine near-dup**: EXACT block-pair cross join (blocks
   stay in the object store; one Ray task per unordered block pair —
   no driver materialization, no broadcast) plus the random-hyperplane
   LSH scale path.

All hashes derive from ``splitmix64`` (functions/hashing.py) — fully
deterministic across machines and runs.
"""

from __future__ import annotations

import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Count, Min

from .arrowmat import list_column_matrix, matrix_list_array
from .hashing import hash_bytes_u64, splitmix64_np

# ---------------------------------------------------------------------------
# shingling / signatures (shared primitives)
# ---------------------------------------------------------------------------

N_PERMS = 64
# (b, r) = (16, 4): the LSH collision S-curve crosses ~(1/b)^(1/r) ≈ 0.5
# — matched to the default min_est_jaccard=0.5, so J≥0.8 near-dups
# collide in ≥1 band w.p. >0.999 while J≤0.3 pairs rarely do (and the
# in-bucket signature verification drops any that slip through)
N_BANDS = 16
ROWS_PER_BAND = N_PERMS // N_BANDS
_PERM_SEEDS = np.array(
    [0x9E3779B97F4A7C15 * (k + 1) & ((1 << 64) - 1) for k in range(N_PERMS)],
    dtype=np.uint64,
)


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


# Word-hash memo, per worker process: web text is Zipf-distributed, so
# most words in a batch repeat — one C-speed blake2b per NEW word, an
# O(1) dict hit otherwise. Bounded; cleared when it outgrows the cap.
_WORD_HASH_CACHE: dict[str, int] = {}
_WORD_HASH_CACHE_MAX = 2_000_000


def _word_hashes(words) -> np.ndarray:
    cache = _WORD_HASH_CACHE
    if len(cache) > _WORD_HASH_CACHE_MAX:
        cache.clear()
    out = np.empty(len(words), dtype=np.uint64)
    for i, w in enumerate(words):
        h = cache.get(w)
        if h is None:
            h = hash_bytes_u64(w.encode("utf-8"))
            cache[w] = h
        out[i] = h
    return out


def _combine_windows(wh: np.ndarray, k: int) -> np.ndarray:
    """Raw (non-unique) k-window combination of consecutive word
    hashes: position j rotated by (13·j) mod 64, xor-folded, splitmix
    finalized. Requires len(wh) >= k."""
    n = len(wh)
    acc = wh[: n - k + 1].copy()
    for j in range(1, k):
        acc ^= _rotl(wh[j : n - k + 1 + j], (13 * j) % 64)
    return splitmix64_np(acc)


def _combine_shingles(wh: np.ndarray, k: int = 3) -> np.ndarray:
    """Unique shingle hashes from per-word hashes — fully vectorized,
    no per-shingle byte hashing; honors ``k`` in every branch."""
    n = len(wh)
    if n == 0:
        return np.array([hash_bytes_u64(b"")], dtype=np.uint64)
    if n < k:
        acc = np.uint64(0)
        for j in range(n):
            acc = acc ^ _rotl(wh[j : j + 1], (13 * j) % 64)[0]
        return splitmix64_np(np.array([acc], dtype=np.uint64))
    return np.unique(_combine_windows(wh, k))


def shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Unique 64-bit hashes of the word k-shingles of one document."""
    return _combine_shingles(_word_hashes(text.split()), k)


def minhash_signature(sh: np.ndarray) -> np.ndarray:
    """64-permutation minhash: remix shingle hashes per permutation seed
    (vectorized outer xor + splitmix), take the column-min."""
    mixed = splitmix64_np(sh[None, :] ^ _PERM_SEEDS[:, None])
    return mixed.min(axis=1)  # (N_PERMS,)


def simhash64(text: str) -> int:
    """64-bit SimHash over word tokens weighted by count."""
    words = text.split()
    if not words:
        return 0
    uniq, counts = np.unique(np.array(words, dtype=object), return_counts=True)
    hs = _word_hashes(uniq)  # memoized per worker (Zipf vocabulary)
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(
        np.int64
    )
    acc = ((2 * bits - 1) * counts[:, None].astype(np.int64)).sum(axis=0)
    return int(
        np.bitwise_or.reduce((acc > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64))
    )


def ngram_jaccard(a: str, b: str, k: int = 3) -> float:
    sa, sb = set(shingle_hashes(a, k).tolist()), set(shingle_hashes(b, k).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def _hash_stage(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """(id, 128-bit content hash) projection. TWO int64 hash columns:
    a single 64-bit digest has a ~2.6 % birthday-collision chance at
    10⁹ docs (certain at 10¹²) — a silent false merge that would
    diverge from the text-equality oracle. 128 bits keeps accidental
    collision below 10⁻¹⁵ at 10¹² docs for +8 bytes/doc of shuffle."""
    from .hashing import hash_str_arrow_u128

    lo, hi = hash_str_arrow_u128(batch.column(text_col))
    return pa.table(
        {
            id_col: batch.column(id_col),
            "content_hash": pa.array(lo.astype(np.int64), pa.int64()),
            "content_hash2": pa.array(hi.astype(np.int64), pa.int64()),
        }
    )


_HASH_COLS = ["content_hash", "content_hash2"]


def exact_dedup_groups(
    ds: rd.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> rd.Dataset:
    """One row per distinct content: (id_col = min id, dup_count).

    Shuffle ships only (id, hash128) — 24 bytes/doc — never the text.
    """
    hashed = ds.map_batches(
        lambda b: _hash_stage(b, text_col, id_col), batch_format="pyarrow"
    )
    agg = hashed.groupby(_HASH_COLS).aggregate(
        Min(id_col, alias_name=id_col), Count(alias_name="dup_count")
    )
    return agg.select_columns([id_col, "dup_count"])


def incremental_new_docs(
    new_ds: rd.Dataset,
    seen_ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int | None = None,
) -> rd.Dataset:
    """(doc_id, is_new) for every NEW-corpus document: ``is_new`` iff
    its content never appears in the SEEN corpus — the incremental
    step of a rolling crawl pipeline, where each day's increment is
    deduplicated against the all-time seen set instead of re-running
    exact dedup over the union.

    Scale plan: both sides project to the 33-byte (id, hash128, side)
    rows of the exact-dedup discipline and co-partition on the SAME
    content-hash partition; each partition resolves membership in one
    lexsort (seen rows sort before new rows inside an equal-hash
    group, so a group's ``min(side) == 0`` marks every new member as
    already seen — ``np.minimum.reduceat`` over the group starts, no
    per-group Python). Neither corpus's text ever moves; the seen
    side ships hashes only, so the all-time index can be a persisted
    (hash_lo, hash_hi) parquet rather than the documents themselves.
    Hash-equality == text-equality up to the module's 128-bit
    birthday bound (doc of ``hash_str_arrow_u128``)."""
    from ..partitioning import adaptive_partitions, parquet_rows_hint

    hint_new = parquet_rows_hint(new_ds)
    hint_seen = parquet_rows_hint(seen_ds)
    n_parts = num_partitions or adaptive_partitions(
        (hint_new or 0) + (hint_seen or 0) or None, row_bytes=33
    )

    def project(side: int):
        def f(b: pa.Table) -> pa.Table:
            h = _hash_stage(b, text_col, id_col)
            lo = h.column("content_hash").to_numpy(zero_copy_only=False)
            hi = h.column("content_hash2").to_numpy(zero_copy_only=False)
            from .hashing import splitmix64_np

            part = (
                splitmix64_np(lo.astype(np.uint64) ^ splitmix64_np(hi.astype(np.uint64)))
                % np.uint64(n_parts)
            ).astype(np.int64)
            return pa.table(
                {
                    "hpart": pa.array(part, pa.int64()),
                    id_col: h.column(id_col),
                    "content_hash": h.column("content_hash"),
                    "content_hash2": h.column("content_hash2"),
                    "side": pa.array(np.full(len(b), side, np.int8), pa.int8()),
                }
            )

        return f

    both = seen_ds.map_batches(project(0), batch_format="pyarrow").union(
        new_ds.map_batches(project(1), batch_format="pyarrow")
    )

    def resolve(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "is_new": pa.array([], pa.bool_()),
            }
        )
        if group.num_rows == 0:
            return empty
        lo = group.column("content_hash").to_numpy(zero_copy_only=False)
        hi = group.column("content_hash2").to_numpy(zero_copy_only=False)
        side = group.column("side").to_numpy(zero_copy_only=False)
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((side, hi, lo))
        lo_s, hi_s, side_s, ids_s = lo[order], hi[order], side[order], ids[order]
        starts = np.concatenate(
            ([True], (lo_s[1:] != lo_s[:-1]) | (hi_s[1:] != hi_s[:-1]))
        )
        start_idx = np.flatnonzero(starts)
        seg_id = np.cumsum(starts) - 1
        group_has_seen = np.minimum.reduceat(side_s, start_idx) == 0
        new_mask = side_s == 1
        if not new_mask.any():
            return empty
        return pa.table(
            {
                id_col: pa.array(ids_s[new_mask], pa.int64()),
                "is_new": pa.array(
                    ~group_has_seen[seg_id[new_mask]], pa.bool_()
                ),
            }
        )

    return both.groupby("hpart").map_groups(resolve, batch_format="pyarrow")


def incremental_new_docs_bloom(
    new_ds: rd.Dataset,
    seen_ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """(doc_id, maybe_seen) — the MEMORY-BOUNDED seen-set probe: the
    all-time seen hashes fold into a fixed-size Bloom filter (one bit
    array per block, OR-merged like the CMS partials; ~1 MiB per
    2^23-bit tier vs 16 B/doc exact), broadcast once, and the
    increment probes it SHUFFLE-FREE per batch. One-sided like the
    filter: ``maybe_seen == False`` is DEFINITELY new (no false
    negatives); True is "maybe" at the filter's false-positive rate —
    a pipeline needing certainty routes only the maybe rows to
    ``incremental_new_docs``'s exact co-partition probe (typically a
    tiny fraction)."""
    import ray

    from .sketch import bloom_bits, bloom_merge

    def seen_partial(b: pa.Table) -> pa.Table:
        h = _hash_stage(b, text_col, id_col)
        lo = h.column("content_hash").to_numpy(zero_copy_only=False)
        hi = h.column("content_hash2").to_numpy(zero_copy_only=False)
        from .hashing import splitmix64_np

        mix = lo.astype(np.uint64) ^ splitmix64_np(hi.astype(np.uint64))
        return pa.table(
            {"bits": pa.array([bloom_bits(mix).tobytes()], pa.binary())}
        )

    blobs = [
        r["bits"]
        for r in seen_ds.map_batches(
            seen_partial, batch_format="pyarrow"
        ).take_all()  # one fixed-size blob per block
    ]
    bits_ref = ray.put(bloom_merge(blobs))

    from .taskcache import cached_stage

    return new_ds.map_batches(
        cached_stage(_BloomProbeStage, bits_ref, text_col, id_col),
        batch_format="pyarrow",
    )


class _BloomProbeStage:
    """Broadcast Bloom probe (cached tasks): the merged bit array is
    fetched once per worker; each batch hashes and probes vectorized."""

    def __init__(self, bits_ref, text_col: str, id_col: str):
        import ray

        self.bits = ray.get(bits_ref)
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, b: pa.Table) -> pa.Table:
        from .hashing import splitmix64_np
        from .sketch import bloom_contains

        h = _hash_stage(b, self.text_col, self.id_col)
        lo = h.column("content_hash").to_numpy(zero_copy_only=False)
        hi = h.column("content_hash2").to_numpy(zero_copy_only=False)
        mix = lo.astype(np.uint64) ^ splitmix64_np(hi.astype(np.uint64))
        return pa.table(
            {
                self.id_col: h.column(self.id_col),
                "maybe_seen": pa.array(
                    bloom_contains(self.bits, mix), pa.bool_()
                ),
            }
        )


def exact_dedup_pairs(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int | None = None,
) -> rd.Dataset:
    """STAR pairs (canonical=min id, member) of byte-identical documents
    — the same connected components as the full O(g²) pair expansion,
    but a group of g duplicates emits g-1 rows, not g(g-1)/2, so a
    boilerplate page with 10⁶ copies costs 10⁶ rows instead of 10¹².

    Plan: content-hash projection → ONE shuffle on a hashed
    content-hash partition (size-adaptive count) → per-partition
    lexsort over (hash128, id) + segment-boundary math: the first row
    of each hash group is the canonical (min id), every other row is
    one star edge. Only 32-byte rows ever shuffle; no per-group
    Python, no quadratic blowup, and no hash join — a join-based plan
    shuffles the same projection TWICE (canonical aggregate + probe)
    and trips Ray's schema-less empty-block handling in the join
    operator. (A sketch can NOT implement this: J≈0.99 near-dups pass
    64/64 minhash bands with p≈0.5 — measured on the driver corpus.)"""
    from ..partitioning import adaptive_partitions, parquet_rows_hint

    # shuffled row = id(8) + hash lo/hi(16) + part(8) = 32 B
    n_parts = num_partitions or adaptive_partitions(
        parquet_rows_hint(ds), row_bytes=32
    )

    def tag(b: pa.Table) -> pa.Table:
        t = _hash_stage(b, text_col, id_col)
        k = t.column("content_hash").to_numpy(zero_copy_only=False).astype(np.uint64)
        part = (splitmix64_np(k) % n_parts).astype(np.int64)
        return t.append_column("part", pa.array(part, pa.int64()))

    def star_part(g: pa.Table) -> pa.Table:
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        n = len(ids)
        if n == 0:
            return pa.table(
                {
                    "doc_id_a": pa.array([], pa.int64()),
                    "doc_id_b": pa.array([], pa.int64()),
                }
            )
        h1 = g.column("content_hash").to_numpy(zero_copy_only=False)
        h2 = g.column("content_hash2").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, h2, h1))
        h1s, h2s, idss = h1[order], h2[order], ids[order]
        new_grp = np.empty(n, dtype=bool)
        new_grp[0] = True
        new_grp[1:] = (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1])
        canon = idss[np.flatnonzero(new_grp)][np.cumsum(new_grp) - 1]
        member = ~new_grp  # first-of-group IS the canonical (min id)
        return pa.table(
            {
                "doc_id_a": pa.array(canon[member], pa.int64()),
                "doc_id_b": pa.array(idss[member], pa.int64()),
            }
        )

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(star_part, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup pairs
# ---------------------------------------------------------------------------

def _signature_stage(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """Emit one row per (doc, band): the LSH bucketing key plus the full
    signature for in-bucket verification. The batch vocabulary is
    hashed ONCE (memoized per worker); shingle and band hashing are
    vectorized numpy — no per-shingle byte hashing."""
    ids = batch.column(id_col).to_pylist()
    n = len(batch)
    if n == 0:
        return pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "band_key": pa.array([], pa.int64()),
                "signature": pa.array([], pa.binary()),
            }
        )
    # ONE Arrow whitespace split for the batch (boundary empties
    # filtered — exact str.split() parity, see simhash_batch), hash
    # only the dictionary-encoded vocabulary, gather per token
    arr = batch.column(text_col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    words = pc.utf8_split_whitespace(pc.fill_null(arr, ""))
    raw_off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = words.flatten()
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(raw_off))
    mask = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    doc_idx = doc_idx[mask]
    if len(doc_idx):
        denc = flat.filter(pa.array(mask)).dictionary_encode()
        dict_hashes = _word_hashes(denc.dictionary.to_pylist())
        wh_flat = dict_hashes[denc.indices.to_numpy(zero_copy_only=False)]
    else:
        wh_flat = np.empty(0, dtype=np.uint64)
    lens = np.bincount(doc_idx, minlength=n).astype(np.int64)
    total = int(lens.sum())
    starts = np.concatenate([[0], np.cumsum(lens)])

    # ONE global shingle-combine pass (boundary-crossing windows masked
    # out), then one vectorized minhash pass per permutation with
    # per-doc minima via minimum.reduceat. MinHash minima are invariant
    # under duplicate shingles, so no per-doc unique is needed — the
    # scalar path's np.unique only serves set semantics for Jaccard.
    doc_of_pos = np.repeat(np.arange(n), lens)
    if total >= 3:
        # same combination as _combine_windows(·, 3), applied globally;
        # windows crossing a document boundary are masked out
        sh_flat = _combine_windows(wh_flat, 3)
        valid = doc_of_pos[: total - 2] == doc_of_pos[2:]
        sh_valid = sh_flat[valid]
    else:
        sh_valid = np.empty(0, dtype=np.uint64)
    short = lens < 3  # docs with <k words use the scalar fold (rare)
    if short.any():
        short_idx = np.nonzero(short)[0]
        short_vals = np.array(
            [
                _combine_shingles(wh_flat[starts[i] : starts[i] + lens[i]])[0]
                for i in short_idx
            ],
            dtype=np.uint64,
        )
        nonshort_counts = np.where(short, 0, lens - 2)
        before = np.concatenate([[0], np.cumsum(nonshort_counts)])[:-1]
        sh_all = np.insert(sh_valid, before[short_idx], short_vals)
        final_counts = np.where(short, 1, lens - 2)
    else:
        sh_all = sh_valid
        final_counts = lens - 2
    doc_starts = np.concatenate([[0], np.cumsum(final_counts)])[:-1].astype(np.int64)
    sigs = np.empty((n, N_PERMS), dtype=np.uint64)
    for p in range(N_PERMS):
        mixed = splitmix64_np(sh_all ^ _PERM_SEEDS[p])
        sigs[:, p] = np.minimum.reduceat(mixed, doc_starts)

    # band keys: one splitmix fold per band across its rows, vectorized
    # over all docs at once
    band_keys = np.empty((n, N_BANDS), dtype=np.uint64)
    for b in range(N_BANDS):
        band = sigs[:, b * ROWS_PER_BAND : (b + 1) * ROWS_PER_BAND]
        acc = np.full(n, np.uint64(0x9E3779B97F4A7C15 * (b + 1) & ((1 << 64) - 1)))
        for r in range(ROWS_PER_BAND):
            acc = splitmix64_np(acc ^ band[:, r])
        band_keys[:, b] = acc
    ids_np = np.asarray(ids, dtype=np.int64)
    sig_bytes = [s.tobytes() for s in sigs]
    return pa.table(
        {
            id_col: pa.array(np.repeat(ids_np, N_BANDS), pa.int64()),
            "band_key": pa.array(
                (band_keys.reshape(-1).view(np.int64)), pa.int64()
            ),
            "signature": pa.array(
                [sb for sb in sig_bytes for _ in range(N_BANDS)], pa.binary()
            ),
        }
    )


# Hot-bucket guard: common boilerplate (empty pages, shared templates)
# can put an unbounded number of docs in one LSH bucket; pair expansion
# there is inherently quadratic, so cap the bucket and surface the drop
# in worker logs rather than letting one task emit ~n²/2 rows.
MAX_BUCKET_DOCS = 1024


def _band_partitions(ds, num_partitions, bands_per_doc, row_bytes):
    """Partition count for a band-key shuffle: rows = docs × bands, row
    width = the band row (id + key + signature payload). Sized from the
    input's parquet footers; the floor when the dataset has no parquet
    lineage (e.g. a union corpus) — callers that know the corpus size
    pass ``num_partitions`` explicitly."""
    from ..partitioning import adaptive_partitions, parquet_rows_hint

    if num_partitions:
        return num_partitions
    hint = parquet_rows_hint(ds)
    return adaptive_partitions(
        hint * bands_per_doc if hint else None, row_bytes=row_bytes
    )


def _bucket_pairs_part(
    group: pa.Table, id_col: str, min_est_jaccard: float,
    max_bucket_docs: int = MAX_BUCKET_DOCS,
) -> pa.Table:
    """One hash PARTITION of buckets (not one bucket): buckets are
    delimited by sorted band_key boundaries and processed in a bounded
    Python loop with a vectorized m×m agreement matrix each — the
    per-tiny-group shuffle/invoke overhead of groupby(band_key) is paid
    once per partition instead of once per bucket. Hot buckets are
    capped at MAX_BUCKET_DOCS with a logged truncation."""
    keys = group.column("band_key").to_numpy(zero_copy_only=False)
    ids = np.asarray(group.column(id_col).to_pylist(), dtype=np.int64)
    sig_list = group.column("signature").to_pylist()
    order = np.lexsort((ids, keys))
    keys, ids = keys[order], ids[order]
    n = len(keys)
    a_out: list[np.ndarray] = []
    b_out: list[np.ndarray] = []
    e_out: list[np.ndarray] = []
    seg_starts = np.nonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))[0] if n else np.array([], np.int64)
    seg_ends = np.append(seg_starts[1:], n)
    for s, e in zip(seg_starts, seg_ends):
        m = e - s
        if m < 2:
            continue
        if m > max_bucket_docs:
            print(
                f"[minhash_lsh] hot bucket truncated: {m} -> "
                f"{max_bucket_docs} docs (pairs beyond the cap are dropped)"
            )
            e = s + max_bucket_docs
            m = max_bucket_docs
        sigs = np.stack(
            [np.frombuffer(sig_list[order[j]], dtype=np.uint64) for j in range(s, e)]
        )
        n_perm = sigs.shape[1]
        agree = np.zeros((m, m), dtype=np.uint16)
        for p in range(n_perm):
            col = sigs[:, p]
            agree += col[:, None] == col[None, :]
        ai, bj = np.triu_indices(m, 1)
        est = agree[ai, bj] / float(n_perm)
        keep = est >= min_est_jaccard
        a_out.append(ids[s:e][ai[keep]])
        b_out.append(ids[s:e][bj[keep]])
        e_out.append(est[keep])
    if not a_out:
        return pa.table(
            {
                "doc_id_a": pa.array([], pa.int64()),
                "doc_id_b": pa.array([], pa.int64()),
                "est_jaccard": pa.array([], pa.float64()),
            }
        )
    return pa.table(
        {
            "doc_id_a": pa.array(np.concatenate(a_out), pa.int64()),
            "doc_id_b": pa.array(np.concatenate(b_out), pa.int64()),
            "est_jaccard": pa.array(np.concatenate(e_out), pa.float64()),
        }
    )


def minhash_lsh_pairs(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_est_jaccard: float = 0.5,
    max_bucket_docs: int = MAX_BUCKET_DOCS,
    num_partitions: int | None = None,
) -> rd.Dataset:
    """Candidate near-duplicate pairs via MinHash-LSH, deduplicated
    across bands (a pair can collide in several bands). The shuffle
    groups on a size-adaptive HASH PARTITION of the band key (buckets
    stay co-located; Python is invoked per partition, not per tiny
    bucket; the count grows with the input so one partition's
    ~536-byte band rows fit a worker's memory budget)."""
    # band row = id(8) + key(8) + signature(512) + part(8)
    n_parts = _band_partitions(ds, num_partitions, N_BANDS, row_bytes=536)

    def with_part(b: pa.Table) -> pa.Table:
        t = _signature_stage(b, text_col, id_col)
        k = t.column("band_key").to_numpy(zero_copy_only=False).astype(np.uint64)
        part = (splitmix64_np(k) % n_parts).astype(np.int64)
        return t.append_column("bpart", pa.array(part, pa.int64()))

    sigs = ds.map_batches(with_part, batch_format="pyarrow")
    pairs = sigs.groupby("bpart").map_groups(
        lambda g: _bucket_pairs_part(g, id_col, min_est_jaccard, max_bucket_docs),
        batch_format="pyarrow",
    )
    # dedup (a, b) across bands: group on the pair, keep max estimate
    from ray.data.aggregate import Max

    return (
        pairs.groupby(["doc_id_a", "doc_id_b"])
        .aggregate(Max("est_jaccard", alias_name="est_jaccard"))
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def simhash_batch(texts) -> np.ndarray:
    """Batch SimHash, value-identical to per-doc ``simhash64`` with NO
    per-document Python: ONE Arrow whitespace split for the whole batch
    (boundary empties filtered — Arrow collapses interior runs, so
    dropping "" tokens exactly reproduces ``str.split()``), ONE
    memoized word-hash pass over the flat token stream, then per-doc
    bit accumulation via little-endian ``unpackbits`` + segment
    ``reduceat(dtype=int64)`` — summing ±1 over occurrences equals the
    scalar path's unique×count sum in exact integer math."""
    arr = pc.fill_null(texts, "")
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    out = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return out
    words = pc.utf8_split_whitespace(arr)
    offsets = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = words.flatten()
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    mask = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    doc_idx = doc_idx[mask]
    if len(doc_idx) == 0:
        return out
    # hash only the batch's UNIQUE vocabulary (dictionary-encode is
    # vectorized C; Zipf makes the dictionary tiny vs the token count),
    # then gather per-token hashes by index
    denc = flat.filter(pa.array(mask)).dictionary_encode()
    dict_hashes = _word_hashes(denc.dictionary.to_pylist())
    wh = dict_hashes[denc.indices.to_numpy(zero_copy_only=False)]
    counts = np.bincount(doc_idx, minlength=n)
    nz = counts > 0
    counts_nz = counts[nz]
    starts_nz = np.cumsum(counts_nz) - counts_nz
    # per-bit popcount per doc: 64 shift-mask-reduceat passes over the
    # contiguous uint64 token stream (measured 26x faster than any
    # (T, 64) bit-matrix reduceat, which hits numpy's strided path)
    sim = np.zeros(int(nz.sum()), dtype=np.uint64)
    for b in range(64):
        ones = np.add.reduceat((wh >> np.uint64(b)) & np.uint64(1), starts_nz)
        sim |= ((2 * ones) > counts_nz).astype(np.uint64) << np.uint64(b)
    out[nz] = sim
    return out


def simhash_stage(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    vals = simhash_batch(batch.column(text_col))
    return pa.table(
        {
            id_col: batch.column(id_col),
            "simhash": pa.array(vals.astype(np.int64), pa.int64()),
        }
    )


def simhash_dataset(ds: rd.Dataset, text_col: str = "text", id_col: str = "doc_id") -> rd.Dataset:
    return ds.map_batches(
        lambda b: simhash_stage(b, text_col, id_col), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# embedding-cosine near-dup (broadcast small matrix)
# ---------------------------------------------------------------------------

def _unit_table(batch: pa.Table, id_col: str) -> pa.Table:
    """(id, unit vector) projection — float64 normalization once, so
    every block-pair task sees identical unit vectors."""
    n = len(batch)
    if n == 0:
        return pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "unit": pa.array([], pa.list_(pa.float64())),
            }
        )
    mat = list_column_matrix(batch.column("embedding"))
    unit = mat / np.maximum(np.linalg.norm(mat, axis=1), 1e-300)[:, None]
    return pa.table(
        {
            id_col: pc.cast(batch.column(id_col), pa.int64()),
            "unit": matrix_list_array(unit),
        }
    )


def embedding_near_dup_pairs(
    ds: rd.Dataset, threshold: float = 0.45, id_col: str = "vec_id"
) -> rd.Dataset:
    """All pairs (a < b) with double-precision cosine ≥ threshold —
    EXACT all-pairs, expressed as a distributed block-pair cross join.

    Ray Data has no cross join, so this is the documented raw-task
    escape hatch: normalize once inside ``map_batches``, leave the
    normalized blocks in the object store (``materialize`` +
    ``to_arrow_refs`` — nothing is pulled to the driver), then one Ray
    task per unordered block pair matmuls the two blocks. Compute is
    inherently O(n²·d) for the exact answer, but memory per task is two
    blocks and the corpus is never broadcast nor driver-resident. The
    scale path for approximate needs is ``embedding_lsh_pairs``.
    """
    norm = ds.select_columns([id_col, "embedding"]).map_batches(
        lambda b: _unit_table(b, id_col), batch_format="pyarrow"
    )
    blocks = norm.materialize().to_arrow_refs()

    empty = pa.table(
        {"vec_id_a": pa.array([], pa.int64()), "vec_id_b": pa.array([], pa.int64())}
    )

    @ray.remote
    def block_pair(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        if len(ta) == 0 or len(tb) == 0:
            return empty
        ids_a = np.asarray(ta.column(id_col).to_pylist(), dtype=np.int64)
        ids_b = np.asarray(tb.column(id_col).to_pylist(), dtype=np.int64)
        ua = list_column_matrix(ta.column("unit"))
        ub = list_column_matrix(tb.column("unit"))
        cos = ua @ ub.T
        ai, bj = np.nonzero(cos >= threshold)
        xa, xb = ids_a[ai], ids_b[bj]
        if same:
            keep = xa < xb  # each unordered pair appears once
            lo, hi = xa[keep], xb[keep]
        else:
            lo, hi = np.minimum(xa, xb), np.maximum(xa, xb)
        return pa.table(
            {
                "vec_id_a": pa.array(lo, pa.int64()),
                "vec_id_b": pa.array(hi, pa.int64()),
            }
        )

    refs = [
        block_pair.remote(blocks[i], blocks[j], i == j)
        for i in range(len(blocks))
        for j in range(i, len(blocks))
    ]
    if not refs:
        return rd.from_arrow(empty)
    return rd.from_arrow_refs(refs)


# Above this row count the exact O(n²·d) block-pair path stops being
# defensible (10⁵ rows ≈ 5·10⁹ dot products); the public entry reroutes
# to the LSH scale path.
EXACT_EMBEDDING_MAX_ROWS = 100_000


def embedding_pairs_auto(
    ds: rd.Dataset,
    threshold: float = 0.45,
    id_col: str = "vec_id",
    max_exact_rows: int = EXACT_EMBEDDING_MAX_ROWS,
    **lsh_kwargs,
) -> rd.Dataset:
    """Size-gated embedding near-dup: EXACT block-pair cross join up to
    ``max_exact_rows`` rows (parquet-footer row count when available —
    free), the hyperplane-LSH scale path beyond it. The gate is logged
    so approximate results are never silently presented as exact."""
    from ..partitioning import parquet_rows_hint

    n = parquet_rows_hint(ds)
    if n is None:
        n = ds.count()
    if n <= max_exact_rows:
        return embedding_near_dup_pairs(ds, threshold, id_col)
    print(
        f"[embedding_pairs_auto] {n} rows > {max_exact_rows}: routing to "
        "LSH (approximate); call embedding_near_dup_pairs for exact",
        file=sys.stderr,
    )
    return embedding_lsh_pairs(ds, threshold, id_col, **lsh_kwargs)


MAX_BUCKET_VECS = 4096


def lsh_planes(
    n_tables: int, n_planes: int, dim: int, seed: int = 42
) -> np.ndarray:
    """Deterministic Gaussian hyperplanes (seeded splitmix →
    Box-Muller), shared by the engine and the oracle's parameter
    export so the two can never drift."""
    from .hashing import splitmix64_np

    raw = splitmix64_np(
        np.arange(2 * n_tables * n_planes * dim, dtype=np.uint64)
        ^ np.uint64(seed * 0x9E3779B97F4A7C15 & ((1 << 64) - 1))
    )
    u = (raw.astype(np.float64) + 0.5) / 2.0**64
    u1, u2 = u[::2], u[1::2]
    gauss = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return gauss.reshape(n_tables, n_planes, dim)


def embedding_lsh_pairs(
    ds: rd.Dataset,
    threshold: float = 0.45,
    id_col: str = "vec_id",
    n_planes: int = 12,
    n_tables: int = 4,
    seed: int = 42,
) -> rd.Dataset:
    """The SCALE path for embedding near-dup: random-hyperplane LSH.

    Each of ``n_tables`` hash tables projects the unit vector onto
    ``n_planes`` deterministic Gaussian hyperplanes (seeded splitmix →
    Box-Muller, dimension read from the first row); the sign bits form
    the bucket key. Near-parallel vectors collide in ≥1 table with
    high probability; only (id, vector) rows shuffle into buckets and
    exact double-precision cosine verifies candidates within a bucket
    — no O(n²) all-pairs pass, no driver-side broadcast of the corpus.
    Recall is tunable via (n_planes, n_tables); see
    tests/test_dedup.py::test_embedding_lsh_recall_vs_bruteforce.
    """
    empty_pairs = pa.table(
        {"vec_id_a": pa.array([], pa.int64()), "vec_id_b": pa.array([], pa.int64())}
    )
    probe = ds.take(1)
    if not probe:  # empty corpus: no pairs (and no dimension to read)
        return rd.from_arrow(empty_pairs)
    dim = len(probe[0]["embedding"])
    planes = lsh_planes(n_tables, n_planes, dim, seed)

    def bucket_stage(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col).to_pylist(), dtype=np.int64)
        if len(ids) == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "bucket": pa.array([], pa.int64()),
                    "embedding": pa.array([], pa.list_(pa.float64())),
                }
            )
        mat = list_column_matrix(batch.column("embedding"))
        unit = mat / np.maximum(np.linalg.norm(mat, axis=1), 1e-300)[:, None]
        out_id, out_bucket, out_vec = [], [], []
        pw = 1 << np.arange(n_planes, dtype=np.int64)
        for t in range(n_tables):
            signs = (unit @ planes[t].T) > 0
            key = (signs.astype(np.int64) * pw).sum(axis=1) + (t << n_planes)
            out_id.extend(ids.tolist())
            out_bucket.extend(key.tolist())
            out_vec.extend(unit.tolist())
        return pa.table(
            {
                id_col: pa.array(out_id, pa.int64()),
                "bucket": pa.array(out_bucket, pa.int64()),
                "embedding": pa.array(out_vec, pa.list_(pa.float64())),
            }
        )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        ids = np.asarray(group.column(id_col).to_pylist(), dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        # hot-bucket guard (near-zero vectors / boilerplate embeddings
        # can all land in one bucket): bound the quadratic compare
        if len(order) > MAX_BUCKET_VECS:
            print(
                f"[embedding_lsh] hot bucket truncated: {len(order)} -> "
                f"{MAX_BUCKET_VECS} vectors (pairs beyond the cap are dropped)"
            )
            order = order[:MAX_BUCKET_VECS]
        ids = ids[order]
        unit = list_column_matrix(group.column("embedding"))[order]
        cos = unit @ unit.T
        ai, bj = np.nonzero(cos >= threshold)
        mask = ids[ai] < ids[bj]
        return pa.table(
            {
                "vec_id_a": pa.array(ids[ai][mask], pa.int64()),
                "vec_id_b": pa.array(ids[bj][mask], pa.int64()),
            }
        )

    pairs = (
        ds.map_batches(bucket_stage, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pyarrow")
    )
    # a pair can collide in several tables — dedup on the pair key with
    # a vectorized aggregate (no per-pair Python map_groups call)
    return (
        pairs.groupby(["vec_id_a", "vec_id_b"])
        .aggregate(Count(alias_name="_n"))
        .select_columns(["vec_id_a", "vec_id_b"])
    )


# ---------------------------------------------------------------------------
# SimHash near-dup pairs — banded Hamming search. Splitting the 64-bit
# fingerprint into 4 16-bit bands guarantees (pigeonhole) that any pair
# within Hamming distance 3 collides on at least one band; in-bucket
# XOR+popcount verification removes false candidates. Same partition-
# bucketed shuffle discipline as the MinHash path.
# ---------------------------------------------------------------------------

_SIMHASH_BANDS = 4
_SIMHASH_BAND_BITS = 64 // _SIMHASH_BANDS

_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _hamming_matrix(h: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances of 64-bit fingerprints (m small)."""
    x = h[:, None] ^ h[None, :]
    return _POPCNT8[x.view(np.uint8).reshape(len(h), len(h), 8)].sum(axis=2)


def simhash_pairs(
    ds: rd.Dataset,
    max_hamming: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int | None = None,
) -> rd.Dataset:
    """All pairs (a < b) of documents whose SimHash fingerprints are
    within ``max_hamming`` bits. Exact for max_hamming ≤ 3 with the
    4×16-bit banding; larger radii lower recall (documented trade)."""
    # band row = part(8) + key(8) + id(8) + simhash(8)
    n_parts = _band_partitions(ds, num_partitions, _SIMHASH_BANDS, row_bytes=32)
    fp = simhash_dataset(ds, text_col, id_col)

    def band_stage(b: pa.Table) -> pa.Table:
        h = b.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        n = len(h)
        out_key = np.empty(n * _SIMHASH_BANDS, dtype=np.uint64)
        for band in range(_SIMHASH_BANDS):
            seg = (h >> np.uint64(band * _SIMHASH_BAND_BITS)) & np.uint64(0xFFFF)
            out_key[band * n : (band + 1) * n] = seg | (np.uint64(band) << np.uint64(16))
        rep_ids = np.tile(ids, _SIMHASH_BANDS)
        rep_h = np.tile(h, _SIMHASH_BANDS)
        part = (splitmix64_np(out_key) % n_parts).astype(np.int64)
        return pa.table(
            {
                "bpart": pa.array(part, pa.int64()),
                "band_key": pa.array(out_key.view(np.int64), pa.int64()),
                id_col: pa.array(rep_ids, pa.int64()),
                "simhash": pa.array(rep_h.view(np.int64), pa.int64()),
            }
        )

    def bucket_pairs_part(group: pa.Table) -> pa.Table:
        keys = group.column("band_key").to_numpy(zero_copy_only=False)
        ids = group.column(id_col).to_numpy(zero_copy_only=False)
        hs = group.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.lexsort((ids, keys))
        keys, ids, hs = keys[order], ids[order], hs[order]
        n = len(keys)
        seg_starts = (
            np.nonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))[0]
            if n
            else np.array([], np.int64)
        )
        seg_ends = np.append(seg_starts[1:], n)
        a_out, b_out, d_out = [], [], []
        for s, e in zip(seg_starts, seg_ends):
            m = e - s
            if m < 2:
                continue
            if m > MAX_BUCKET_DOCS:
                print(
                    f"[simhash] hot bucket truncated: {m} -> {MAX_BUCKET_DOCS}"
                )
                e = s + MAX_BUCKET_DOCS
                m = MAX_BUCKET_DOCS
            dist = _hamming_matrix(hs[s:e])
            ai, bj = np.triu_indices(m, 1)
            keep = dist[ai, bj] <= max_hamming
            a_out.append(ids[s:e][ai[keep]])
            b_out.append(ids[s:e][bj[keep]])
            d_out.append(dist[ai, bj][keep].astype(np.int64))
        if not a_out:
            return pa.table(
                {
                    "doc_id_a": pa.array([], pa.int64()),
                    "doc_id_b": pa.array([], pa.int64()),
                    "hamming": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "doc_id_a": pa.array(np.concatenate(a_out), pa.int64()),
                "doc_id_b": pa.array(np.concatenate(b_out), pa.int64()),
                "hamming": pa.array(np.concatenate(d_out), pa.int64()),
            }
        )

    pairs = (
        fp.map_batches(band_stage, batch_format="pyarrow")
        .groupby("bpart")
        .map_groups(bucket_pairs_part, batch_format="pyarrow")
    )
    # a pair can collide in several bands — keep one row (min distance
    # is identical across collisions, so Min is just a dedup)
    return pairs.groupby(["doc_id_a", "doc_id_b"]).aggregate(
        Min("hamming", alias_name="hamming")
    )
