"""Avro OCF source (sources/avro_pages.py): from-scratch decoder vs
from-scratch encoder roundtrip (both codecs), gate parity with the
parquet path, corrupt-fragment skip, strict timestamp discipline via
the shared coerce boundary, and wire-format edge cases (zigzag
negatives, sync mismatch, unknown codec, empty container)."""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _to_avro(pages_dir: str, out_dir: str, codec: str = "null"):
    from rsmetacheck_ray.sources.avro_pages import write_pages_avro

    os.makedirs(out_dir, exist_ok=True)
    for f in sorted(glob.glob(os.path.join(pages_dir, "*.parquet"))):
        t = pq.read_table(f)
        name = os.path.splitext(os.path.basename(f))[0] + ".avro"
        write_pages_avro(t, os.path.join(out_dir, name), codec=codec)


@pytest.mark.parametrize("codec", ["null", "deflate"])
def test_avro_roundtrip_preserves_pages(
    ray_session, small_corpus, tmp_path, codec
):
    from tests.test_gate_read_plan import read_pages

    pages_dir, _ = small_corpus
    adir = tmp_path / "avro"
    _to_avro(pages_dir, str(adir), codec=codec)

    import pandas as pd

    cols = ["url", "warc_ts", "html", "text", "lang"]
    a = (
        pq.read_table(pages_dir)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    b = (
        read_pages("avro", adir)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)[cols]
    )
    pd.testing.assert_frame_equal(a[cols], b)


def test_avro_gate_matches_parquet_gate(ray_session, small_corpus, tmp_path):
    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, _ = small_corpus
    adir = tmp_path / "avro"
    _to_avro(pages_dir, str(adir), codec="deflate")
    out_p = tmp_path / "out_parquet"
    out_a = tmp_path / "out_avro"
    mp = run_gate(pages_dir, str(out_p), n_partitions=2)
    ma = run_gate(
        str(adir), str(out_a), n_partitions=2, input_format="avro"
    )
    assert mp == ma


def test_avro_corrupt_fragment_skipped(ray_session, small_corpus, tmp_path):
    """Flipping a byte inside a block breaks the sync/count framing:
    the fragment is classified bad, skipped and recorded; the rest
    still gates."""
    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, _ = small_corpus
    adir = tmp_path / "avro"
    _to_avro(pages_dir, str(adir))
    bad = sorted(glob.glob(str(adir / "*.avro")))[0]
    blob = bytearray(open(bad, "rb").read())
    blob = blob[: len(blob) - 40]  # torn tail: truncated final block
    open(bad, "wb").write(bytes(blob))

    out = tmp_path / "out"
    m = run_gate(str(adir), str(out), n_partitions=2, input_format="avro")
    total_rows = pq.read_table(pages_dir).num_rows
    assert 0 < m["total_documents"] < total_rows
    import json as _json

    recs = [
        _json.loads(l) for l in open(out / "manifest.jsonl") if l.strip()
    ]
    skipped = [f for r in recs for f in r.get("skipped_fragments", [])]
    assert any(os.path.basename(bad) in s for s in skipped)


def test_avro_strict_timestamp_discipline(ray_session, tmp_path):
    from rsmetacheck_ray.sources.avro_pages import write_pages_avro
    from tests.test_gate_read_plan import read_pages

    t = pa.table(
        {
            "url": pa.array(["https://a.example/x", "https://b.example/y"]),
            "warc_ts": pa.array(
                ["2023-01-01T00:00:00", "2023-01-01T00:00:00+05:00"]
            ),
            "text": pa.array(["good", "tz-offset"]),
        }
    )
    path = str(tmp_path / "p.avro")
    write_pages_avro(t, path)
    got = read_pages("avro", path).to_pandas().sort_values("url")
    assert got["warc_ts"].notna().tolist() == [True, False]


def test_avro_wire_format_edges(tmp_path):
    from rsmetacheck_ray.sources.avro_pages import (
        parse_avro, write_pages_avro,
    )

    # negative longs + bytes + bools + doubles roundtrip exactly
    t = pa.table(
        {
            "a": pa.array([-1, 0, -(1 << 40), 7, None], pa.int64()),
            "b": pa.array([b"\x00\xff", None, b"", b"x", b"yy"], pa.binary()),
            "c": pa.array([True, False, None, True, False], pa.bool_()),
            "d": pa.array([0.5, -2.25, None, 1e300, -0.0], pa.float64()),
        }
    )
    path = str(tmp_path / "t.avro")
    write_pages_avro(t, path, codec="deflate", rows_per_block=2)
    got = parse_avro(open(path, "rb").read())
    assert got.equals(t)

    # sync-marker mismatch raises
    blob = bytearray(open(path, "rb").read())
    blob[-1] ^= 0xFF  # last byte of the final block's sync
    with pytest.raises(ValueError, match="sync"):
        parse_avro(bytes(blob))

    # unknown codec raises
    bad = str(tmp_path / "bad.avro")
    write_pages_avro(t, bad)
    blob = bytearray(open(bad, "rb").read())
    idx = blob.find(b"null", blob.find(b"avro.codec"))
    blob[idx : idx + 4] = b"lzma"
    with pytest.raises(ValueError, match="codec"):
        parse_avro(bytes(blob))

    # empty container: zero rows, schema preserved
    write_pages_avro(t[:0], str(tmp_path / "e.avro"))
    got = parse_avro(open(str(tmp_path / "e.avro"), "rb").read())
    assert got.num_rows == 0 and got.column_names == t.column_names

    # bad magic raises
    with pytest.raises(ValueError, match="magic"):
        parse_avro(b"PAR1" + b"\x00" * 32)


def test_auto_ingest_includes_avro(ray_session, small_corpus, tmp_path):
    """A mixed lake of parquet + avro fragments gates in one auto run
    with metrics equal to the all-parquet run."""
    import shutil

    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, _ = small_corpus
    lake = tmp_path / "lake"
    os.makedirs(lake)
    frags = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    for f in frags[: len(frags) // 2]:
        shutil.copy(f, lake / os.path.basename(f))
    for f in frags[len(frags) // 2:]:
        from rsmetacheck_ray.sources.avro_pages import write_pages_avro

        name = os.path.splitext(os.path.basename(f))[0] + ".avro"
        write_pages_avro(pq.read_table(f), str(lake / name))
    out_m = tmp_path / "out_mixed"
    out_p = tmp_path / "out_parquet"
    mm = run_gate(str(lake), str(out_m), n_partitions=2, input_format="auto")
    mp = run_gate(pages_dir, str(out_p), n_partitions=2)
    assert mm == mp
