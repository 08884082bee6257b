"""ORC source (sources/orc_pages.py): stripe-true blocks, gate parity
with the parquet path, corrupt-fragment skip."""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq


def _to_orc(pages_dir: str, out_dir: str, stripe_size: int | None = None):
    from rsmetacheck_ray.sources.orc_pages import write_pages_orc

    os.makedirs(out_dir, exist_ok=True)
    for f in sorted(glob.glob(os.path.join(pages_dir, "*.parquet"))):
        t = pq.read_table(f)
        name = os.path.splitext(os.path.basename(f))[0] + ".orc"
        write_pages_orc(t, os.path.join(out_dir, name), stripe_size=stripe_size)


def test_orc_roundtrip_preserves_pages(ray_session, small_corpus, tmp_path):
    from tests.test_gate_read_plan import read_pages

    pages_dir, _ = small_corpus
    odir = tmp_path / "orc"
    _to_orc(pages_dir, str(odir))

    import pandas as pd

    a = (
        pq.read_table(pages_dir)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    b = (
        read_pages("orc", odir)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)[a.columns.tolist()]
    )
    pd.testing.assert_frame_equal(a, b)


def test_orc_multistripe_blocks_are_row_true(ray_session, small_corpus, tmp_path):
    """A small stripe_size forces multiple stripes per file; the
    reader must emit one table per stripe with all rows intact."""
    from rsmetacheck_ray.pipelines.quality_gate import FORMATS

    pages_dir, _ = small_corpus
    odir = tmp_path / "orc_small"
    _to_orc(pages_dir, str(odir), stripe_size=64 * 1024)
    files = glob.glob(str(odir / "*.orc"))
    tables = [t for f in files for t in FORMATS["orc"].read(f)]
    total = pq.read_table(pages_dir).num_rows
    assert sum(t.num_rows for t in tables) == total
    assert len(tables) > len(files)  # >1 stripe somewhere


def test_orc_gate_matches_parquet_gate(ray_session, small_corpus, tmp_path):
    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, _ = small_corpus
    odir = tmp_path / "orc"
    _to_orc(pages_dir, str(odir))

    out_p = tmp_path / "out_parquet"
    out_o = tmp_path / "out_orc"
    mp = run_gate(pages_dir, str(out_p), n_partitions=2)
    mo = run_gate(str(odir), str(out_o), n_partitions=2, input_format="orc")
    assert mp == mo

    import pandas as pd

    a = (
        pq.read_table(str(out_p / "docs"))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    b = (
        pq.read_table(str(out_o / "docs"))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_orc_corrupt_fragment_skipped(ray_session, small_corpus, tmp_path):
    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, _ = small_corpus
    odir = tmp_path / "orc"
    _to_orc(pages_dir, str(odir))
    bad = odir / "zz-corrupt.orc"
    bad.write_bytes(b"ORC\x00not really an orc file")

    out = tmp_path / "out"
    metrics = run_gate(str(odir), str(out), n_partitions=2, input_format="orc")
    assert metrics["total_documents"] == 2000
    assert metrics["skipped_fragments"] == [str(bad)]
