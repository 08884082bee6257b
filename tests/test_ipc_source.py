"""Arrow IPC source (sources/ipc_pages.py): batch-true blocks, gate
parity with the parquet path, corrupt-fragment skip, free row count."""

from __future__ import annotations

import glob
import os

import pyarrow.parquet as pq


def _to_ipc(pages_dir: str, out_dir: str, max_chunksize: int | None = None,
            suffix: str = ".arrow"):
    from rsmetacheck_ray.sources.ipc_pages import write_pages_ipc

    os.makedirs(out_dir, exist_ok=True)
    for f in sorted(glob.glob(os.path.join(pages_dir, "*.parquet"))):
        t = pq.read_table(f)
        name = os.path.splitext(os.path.basename(f))[0] + suffix
        write_pages_ipc(t, os.path.join(out_dir, name),
                        max_chunksize=max_chunksize)


def test_ipc_roundtrip_preserves_pages(ray_session, small_corpus, tmp_path):
    from tests.test_gate_read_plan import read_pages

    pages_dir, _ = small_corpus
    odir = tmp_path / "ipc"
    _to_ipc(pages_dir, str(odir))

    import pandas as pd

    a = (
        pq.read_table(pages_dir)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    b = (
        read_pages("ipc", odir)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)[a.columns.tolist()]
    )
    pd.testing.assert_frame_equal(a, b)


def test_ipc_multibatch_blocks_are_row_true(ray_session, small_corpus, tmp_path):
    """A small max_chunksize forces multiple record batches per file;
    the reader must emit one table per batch with all rows intact."""
    from rsmetacheck_ray.pipelines.quality_gate import FORMATS
    from rsmetacheck_ray.sources.ipc_pages import count_rows_ipc

    pages_dir, _ = small_corpus
    odir = tmp_path / "ipc_small"
    _to_ipc(pages_dir, str(odir), max_chunksize=100)
    files = glob.glob(str(odir / "*.arrow"))
    tables = [t for f in files for t in FORMATS["ipc"].read(f)]
    total = pq.read_table(pages_dir).num_rows
    assert sum(t.num_rows for t in tables) == total
    assert len(tables) > len(files)  # >1 batch somewhere
    assert sum(count_rows_ipc(f) for f in files) == total


def test_ipc_gate_matches_parquet_gate(ray_session, small_corpus, tmp_path):
    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, _ = small_corpus
    odir = tmp_path / "ipc"
    _to_ipc(pages_dir, str(odir), suffix=".feather")  # alt suffix too

    out_p = tmp_path / "out_parquet"
    out_i = tmp_path / "out_ipc"
    mp = run_gate(pages_dir, str(out_p), n_partitions=2)
    mi = run_gate(str(odir), str(out_i), n_partitions=2, input_format="ipc")
    assert mp == mi

    import pandas as pd

    a = (
        pq.read_table(str(out_p / "docs"))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    b = (
        pq.read_table(str(out_i / "docs"))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_ipc_corrupt_fragment_skipped(ray_session, small_corpus, tmp_path):
    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, _ = small_corpus
    odir = tmp_path / "ipc"
    _to_ipc(pages_dir, str(odir))
    bad = odir / "zz-corrupt.arrow"
    bad.write_bytes(b"ARROW1\x00\x00not really an ipc file")

    out = tmp_path / "out"
    metrics = run_gate(str(odir), str(out), n_partitions=2,
                       input_format="ipc")
    assert metrics["total_documents"] == 2000
    assert metrics["skipped_fragments"] == [str(bad)]


def test_auto_ingest_includes_ipc(ray_session, small_corpus, tmp_path):
    """A mixed lake of parquet + arrow fragments under one auto run
    equals the all-parquet gate over the same rows."""
    import shutil

    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, _ = small_corpus
    frags = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    assert len(frags) >= 2
    lake = tmp_path / "lake"
    os.makedirs(lake)
    shutil.copy(frags[0], lake / os.path.basename(frags[0]))
    for f in frags[1:]:
        t = pq.read_table(f)
        from rsmetacheck_ray.sources.ipc_pages import write_pages_ipc

        name = os.path.splitext(os.path.basename(f))[0] + ".arrow"
        write_pages_ipc(t, str(lake / name))

    out_a = tmp_path / "out_auto"
    out_p = tmp_path / "out_parquet"
    ma = run_gate(str(lake), str(out_a), n_partitions=1, input_format="auto")
    mp = run_gate(pages_dir, str(out_p), n_partitions=1)
    assert ma == mp
