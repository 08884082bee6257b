"""Deterministic hashing primitives.

``splitmix64`` is the engine's only randomness source: every fixture
cell is a pure function of ``(seed, row_index, stream)`` so the same
table materializes on every machine, at every scale point, under any
parallelism (FIXTURES.md §1 determinism rule). Also used for content
hashes (exact dedup) and band hashes (MinHash-LSH).
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """Scalar splitmix64 finalizer (public-domain algorithm)."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def row_u64(seed: int, index: int, stream: int) -> int:
    """Pure per-row 64-bit value: independent of table size or order."""
    return splitmix64(seed ^ splitmix64((stream * 0x9E3779B97F4A7C15 + index) & _MASK))


def row_u64_np(seed: int, index: np.ndarray, stream: np.ndarray) -> np.ndarray:
    """``row_u64`` over broadcast uint64-castable ``index``/``stream`` arrays."""
    with np.errstate(over="ignore"):
        inner = np.uint64(0x9E3779B97F4A7C15) * np.asarray(stream, np.uint64) \
            + np.asarray(index, np.uint64)
    return splitmix64_np(np.uint64(seed) ^ splitmix64_np(inner))


def splitmix64_np(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 over a uint64 ndarray (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = (x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def hash_bytes_u64(data: bytes, seed: int = 0) -> int:
    """Deterministic 64-bit content hash (C-speed blake2b, 8-byte digest).

    Used as the exact-dedup key — stable across processes (unlike
    Python's randomized ``hash``) and O(len) in C, no Python-level
    byte loop.
    """
    import hashlib

    h = hashlib.blake2b(data, digest_size=8, key=seed.to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


def hash_str_array_u128(values, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """128-bit content hash of a string sequence → (lo, hi) uint64
    ndarrays. One C-backed blake2b call per element (~0.5 µs/doc —
    measured, see BASELINE.md); runs inside map_batches workers."""
    import hashlib

    key = seed.to_bytes(8, "little")
    lo = np.empty(len(values), dtype=np.uint64)
    hi = np.empty(len(values), dtype=np.uint64)
    for i, v in enumerate(values):
        d = hashlib.blake2b(
            v.encode("utf-8") if isinstance(v, str) else bytes(v or b""),
            digest_size=16,
            key=key,
        ).digest()
        lo[i] = int.from_bytes(d[:8], "little")
        hi[i] = int.from_bytes(d[8:], "little")
    return lo, hi


# the second-lane seed offset for the 128-bit vectorized hash: any odd
# constant works; golden-ratio keeps the two lanes' seeds uncorrelated
_U128_HI_SEED = 0x9E3779B97F4A7C15


def hash_str_arrow_u128(arr, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """128-bit content hash of an Arrow string array → (lo, hi) uint64
    ndarrays, NO per-row Python: two independently-seeded passes of
    polars' vectorized (Rust xxhash-class) string hash, ~0.26 µs/doc
    measured vs 1.9 µs/doc for the per-row blake2b loop. Nulls hash as
    the empty string (the loop's ``v or b""`` semantics). Collision
    math is the 128-bit birthday bound of the module docstring under
    the standard independent-lane assumption; values are deterministic
    across processes but, unlike blake2b, only pinned per polars
    version — the gate persists them, so the resume manifest records
    ``content_hash_fingerprint()`` and refuses to mix hash regimes.
    Falls back to the blake2b loop when polars is absent."""
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = pc.fill_null(arr, "")
    try:
        import polars as pl
    except ImportError:  # pragma: no cover - polars is baked in
        return hash_str_array_u128(arr.to_pylist(), seed)
    s = pl.from_arrow(
        arr if isinstance(arr, (pa.Array, pa.ChunkedArray)) else pa.array(arr)
    )
    lo = s.hash(seed=seed).to_numpy().astype(np.uint64, copy=False)
    hi = (
        s.hash(seed=(seed ^ _U128_HI_SEED) & _MASK)
        .to_numpy()
        .astype(np.uint64, copy=False)
    )
    return lo, hi


def token_partitions(tokens: np.ndarray, n_parts: int) -> np.ndarray:
    """Deterministic hashed partition per token — the routing key of
    every token-keyed shuffle join (tfidf.py, dsir.py). Vectorized
    ``hash_str_arrow_u128`` over the batch's UNIQUE vocabulary, no
    per-token Python (builtin ``hash()`` is seed-randomized across
    workers and must never route a shuffle)."""
    import pyarrow as pa

    if len(tokens) == 0:
        return np.empty(0, np.int64)
    uniq, inv = np.unique(tokens, return_inverse=True)
    lo, _ = hash_str_arrow_u128(pa.array(uniq.tolist(), pa.string()))
    return ((splitmix64_np(lo) % np.uint64(n_parts)).astype(np.int64))[inv]


def content_hash_fingerprint() -> str:
    """Short hex fingerprint of the CURRENT content-hash regime.

    ``hash_str_arrow_u128`` is vectorized through polars, whose hash
    values are pinned only per polars version (and differ from the
    blake2b fallback). The gate PERSISTS content_hash columns, so a
    resume that mixes partitions written under two regimes would break
    every downstream groupby over the union. This canary — the u128
    hash of a few fixed strings folded through blake2b — changes iff
    the regime changes; the resume manifest records it per partition
    and ``run_gate`` refuses to resume across a mismatch."""
    import hashlib

    import pyarrow as pa

    lo, hi = hash_str_arrow_u128(pa.array(["", "a", "rsmetacheck", "é中"]))
    return hashlib.blake2b(
        lo.tobytes() + hi.tobytes(), digest_size=8
    ).hexdigest()
