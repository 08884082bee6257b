"""Size-adaptive partition policy: the count must GROW with the input
(the fixed-64 constant was the round-2 scale ceiling — 1/64 of a
10¹²-row projection in one worker's memory) while per-partition payload
stays bounded, and every hashed-partition operator must produce
IDENTICAL results at any partition count (partitioning is an execution
knob, never semantics)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data as rd

from rsmetacheck_ray.partitioning import (
    MAX_PARTITIONS,
    MIN_PARTITIONS,
    TARGET_PARTITION_BYTES,
    adaptive_partitions,
    parquet_bytes_hint,
    parquet_rows_hint,
)

SF = "/root/testdata/sf0.001"


def test_partition_count_grows_with_rows():
    counts = [
        adaptive_partitions(n, row_bytes=32)
        for n in (10**6, 10**8, 10**10, 10**12)
    ]
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]  # strictly more partitions at 10^12


def test_per_partition_payload_bounded():
    # expected per-partition payload (hash-uniform keys) stays under
    # the budget across six orders of magnitude
    for n_rows in (10**4, 10**6, 10**8, 10**10, 10**12):
        for row_bytes in (16, 32, 536):
            parts = adaptive_partitions(n_rows, row_bytes=row_bytes)
            if parts < MAX_PARTITIONS:  # unclamped: budget must hold
                assert (n_rows / parts) * row_bytes <= TARGET_PARTITION_BYTES
            # at the floor the whole input fits the floor's budget
            if parts == MIN_PARTITIONS:
                assert n_rows * row_bytes <= TARGET_PARTITION_BYTES * MIN_PARTITIONS


def test_no_hint_falls_back_to_floor():
    assert adaptive_partitions(None) == MIN_PARTITIONS
    assert adaptive_partitions(0) == MIN_PARTITIONS


def test_parquet_hints(ray_session):
    import os

    import pyarrow.parquet as pq

    path = os.path.join(SF, "documents.parquet")
    ds = rd.read_parquet(path)
    assert parquet_rows_hint(ds) == pq.ParquetFile(path).metadata.num_rows
    assert parquet_bytes_hint(ds) > 0
    # in-memory datasets have no parquet lineage -> None (floor applies)
    mem = rd.from_arrow(pa.table({"x": pa.array([1, 2], pa.int64())}))
    assert parquet_rows_hint(mem) is None


def test_results_invariant_under_partition_count(ray_session):
    """dataset diff + change-set apply + minhash pairs: identical
    output at a forced tiny partition count vs the adaptive default."""
    from rsmetacheck_ray.functions import dedup as dd
    from rsmetacheck_ray.pipelines import corpus as cor

    for fn, n_parts in ((cor.dataset_diff, 3), (cor.apply_changes, 5)):
        a = fn(SF).to_pandas()
        b = fn(SF, num_partitions=n_parts).to_pandas()
        assert len(a) > 0
        cols = sorted(a.columns)
        a = a[cols].sort_values(cols).reset_index(drop=True)
        b = b[cols].sort_values(cols).reset_index(drop=True)
        assert a.equals(b)

    texts = [f"alpha beta gamma delta epsilon zeta {i}" for i in range(40)]
    texts += texts[:10]  # duplicates collide in every band
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pa_pairs = (
        dd.minhash_lsh_pairs(rd.from_arrow(t)).to_pandas().sort_values(
            ["doc_id_a", "doc_id_b"]
        ).reset_index(drop=True)
    )
    pb_pairs = (
        dd.minhash_lsh_pairs(rd.from_arrow(t), num_partitions=7)
        .to_pandas()
        .sort_values(["doc_id_a", "doc_id_b"])
        .reset_index(drop=True)
    )
    assert pa_pairs.equals(pb_pairs)
