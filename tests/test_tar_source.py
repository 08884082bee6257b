"""Tar source (sources/tar_pages.py): member-grouped row-true blocks,
gate parity with the parquet path, corrupt-member skip, gzip
archives, and the shared strict-coercion boundary."""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _to_tar(pages_dir: str, out_dir: str, gz: bool = False):
    from rsmetacheck_ray.sources.tar_pages import write_pages_tar

    os.makedirs(out_dir, exist_ok=True)
    for f in sorted(glob.glob(os.path.join(pages_dir, "*.parquet"))):
        t = pq.read_table(f)
        name = os.path.splitext(os.path.basename(f))[0] + (
            ".tar.gz" if gz else ".tar"
        )
        path = os.path.join(out_dir, name)
        write_pages_tar(t, path)
        if gz:
            import gzip
            import shutil

            raw = path + ".raw"
            os.rename(path, raw)
            with open(raw, "rb") as src, gzip.open(path, "wb") as dst:
                shutil.copyfileobj(src, dst)
            os.remove(raw)


def test_tar_roundtrip_preserves_pages(ray_session, small_corpus, tmp_path):
    from tests.test_gate_read_plan import read_pages

    pages_dir, _ = small_corpus
    tdir = tmp_path / "tar"
    _to_tar(pages_dir, str(tdir))

    import pandas as pd

    a = (
        pq.read_table(pages_dir)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    cols = ["url", "warc_ts", "html", "text", "lang"]
    b = (
        read_pages("tar", tdir)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)[cols]
    )
    pd.testing.assert_frame_equal(a[cols], b)


def test_tar_gate_matches_parquet_gate(ray_session, small_corpus, tmp_path):
    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, _ = small_corpus
    tdir = tmp_path / "tar"
    _to_tar(pages_dir, str(tdir))
    out_p = tmp_path / "out_parquet"
    out_t = tmp_path / "out_tar"
    mp = run_gate(pages_dir, str(out_p), n_partitions=2)
    mt = run_gate(str(tdir), str(out_t), n_partitions=2, input_format="tar")
    assert mp == mt


def test_tar_gzip_archive_reads(ray_session, small_corpus, tmp_path):
    from tests.test_gate_read_plan import read_pages

    pages_dir, _ = small_corpus
    tdir = tmp_path / "targz"
    _to_tar(pages_dir, str(tdir), gz=True)
    n = read_pages("tar", tdir).num_rows
    assert n == pq.read_table(pages_dir).num_rows


def test_tar_corrupt_member_skips_fragment(ray_session, small_corpus, tmp_path):
    """A fragment with one non-JSON member is classified bad by the
    resume loop (skipped + recorded), the rest still gates."""
    import io
    import tarfile

    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, _ = small_corpus
    tdir = tmp_path / "tar"
    _to_tar(pages_dir, str(tdir))
    bad = sorted(glob.glob(str(tdir / "*.tar")))[0]
    with tarfile.open(bad, mode="a") as tf:
        payload = b"this is not json {"
        info = tarfile.TarInfo(name="zz-corrupt.json")
        info.size = len(payload)
        tf.addfile(info, io.BytesIO(payload))

    out = tmp_path / "out"
    m = run_gate(str(tdir), str(out), n_partitions=2, input_format="tar")
    total_rows = pq.read_table(pages_dir).num_rows
    assert 0 < m["total_documents"] < total_rows
    # manifest records the skipped fragment
    import json as _json

    recs = [
        _json.loads(l)
        for l in open(out / "manifest.jsonl")
        if l.strip()
    ]
    skipped = [f for r in recs for f in r.get("skipped_fragments", [])]
    assert any(os.path.basename(bad) in s for s in skipped)


def test_tar_strict_timestamp_discipline(ray_session, tmp_path):
    """tz-offset warc_ts in a tar member nulls out exactly like the
    JSONL path (shared coerce_pages boundary)."""
    from rsmetacheck_ray.sources.tar_pages import write_pages_tar
    from tests.test_gate_read_plan import read_pages

    t = pa.table(
        {
            "url": pa.array(["https://a.example/x", "https://b.example/y"]),
            "warc_ts": pa.array(
                ["2023-01-01T00:00:00", "2023-01-01T00:00:00+05:00"]
            ),
            "text": pa.array(["good", "tz-offset"]),
            "lang": pa.array(["en", "en"]),
        }
    )
    path = str(tmp_path / "pages.tar")
    write_pages_tar(t, path)
    out = read_pages("tar", path).to_pandas().sort_values("url")
    assert out.iloc[0]["warc_ts"] is not None
    assert out.iloc[1]["warc_ts"] is None or str(out.iloc[1]["warc_ts"]) == "NaT"
