"""input_format="auto": one gate run over a mixed-format lake."""

from __future__ import annotations

import glob
import os
import shutil

import pyarrow.parquet as pq
import pytest


def _mixed_dir(pages_dir: str, out_dir: str) -> None:
    """A quarter of the fragments each as parquet, jsonl, orc, tar."""
    from tests.test_jsonl_source import _to_jsonl
    from tests.test_orc_source import _to_orc
    from tests.test_tar_source import _to_tar

    os.makedirs(out_dir, exist_ok=True)
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    assert len(files) >= 4
    q = len(files) // 4
    for f in files[:q]:
        shutil.copy(f, os.path.join(out_dir, os.path.basename(f)))
    tmp_j = out_dir + ".j"
    tmp_o = out_dir + ".o"
    tmp_t = out_dir + ".t"
    for d in (tmp_j, tmp_o, tmp_t):
        os.makedirs(d, exist_ok=True)
    for f in files[q : 2 * q]:
        shutil.copy(f, tmp_j)
    for f in files[2 * q : 3 * q]:
        shutil.copy(f, tmp_o)
    for f in files[3 * q :]:
        shutil.copy(f, tmp_t)
    _to_jsonl(tmp_j, out_dir)
    _to_orc(tmp_o, out_dir)
    _to_tar(tmp_t, out_dir)


def test_auto_gate_matches_parquet_gate(ray_session, small_corpus, tmp_path):
    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, _ = small_corpus
    mdir = tmp_path / "mixed"
    _mixed_dir(pages_dir, str(mdir))
    kinds = {os.path.splitext(f)[1] for f in os.listdir(mdir)}
    assert kinds == {".parquet", ".jsonl", ".orc", ".tar"}

    out_p = tmp_path / "out_parquet"
    out_m = tmp_path / "out_mixed"
    mp = run_gate(pages_dir, str(out_p), n_partitions=2)
    mm = run_gate(str(mdir), str(out_m), n_partitions=2, input_format="auto")
    assert mp == mm

    import pandas as pd

    a = (
        pq.read_table(str(out_p / "docs"))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    b = (
        pq.read_table(str(out_m / "docs"))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_auto_corrupt_fragment_probe_dispatches_per_format(
    ray_session, small_corpus, tmp_path
):
    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, _ = small_corpus
    mdir = tmp_path / "mixed"
    _mixed_dir(pages_dir, str(mdir))
    bad_j = mdir / "zz-corrupt.jsonl"
    bad_j.write_text('{"url": "https://x.example", "text": trunc')
    bad_o = mdir / "zz-corrupt.orc"
    bad_o.write_bytes(b"ORC\x00nope")

    out = tmp_path / "out"
    metrics = run_gate(str(mdir), str(out), n_partitions=2, input_format="auto")
    assert metrics["total_documents"] == 2000
    assert sorted(metrics["skipped_fragments"]) == [str(bad_j), str(bad_o)]


def test_detect_format_rejects_unknown():
    from rsmetacheck_ray.pipelines.quality_gate import FORMATS, detect_format

    assert detect_format("a/b.warc.gz") == "warc"
    assert detect_format("x.parquet") == "parquet"
    assert detect_format("x.avro") == "avro"
    # every suffix of every format row maps back to its own format
    for fmt, spec in FORMATS.items():
        for suffix in spec.suffixes:
            assert detect_format("a/b" + suffix) == fmt, suffix
    with pytest.raises(ValueError):
        detect_format("mystery.xml")
