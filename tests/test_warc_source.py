"""WARC pages source (sources/warc_pages.py): record framing, gzip
members, skip-on-error, and format equivalence — the SAME corpus
through parquet and WARC inputs must produce identical gate output."""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rsmetacheck_ray.sources.warc_pages import (
    parse_warc,
    probe_warc,
    read,
    write_warc,
)

ROWS = [
    {
        "url": "https://a.example.com/x",
        "warc_ts": "2023-01-01T00:02:17.500000",
        "html": b"<html><body><p>hello world</p></body></html>",
        "lang": "en",
    },
    {
        "url": "https://b.example.com/y",
        "warc_ts": "2023-06-15T12:00:00",
        "html": b"<p>bonjour</p>",
        "lang": "fr",
    },
]


def _read_file(path: str) -> pa.Table:
    with open(path, "rb") as fh:
        return parse_warc(fh.read())


def test_roundtrip_plain(tmp_path):
    p = str(tmp_path / "f.warc")
    write_warc(p, ROWS)
    t = _read_file(p)
    assert t.column("url").to_pylist() == [r["url"] for r in ROWS]
    # warcinfo record skipped; Z normalized away
    assert t.column("warc_ts").to_pylist() == [
        "2023-01-01T00:02:17.500000", "2023-06-15T12:00:00",
    ]
    assert t.column("html").to_pylist() == [r["html"] for r in ROWS]
    assert t.column("lang").to_pylist() == ["en", "fr"]
    assert t.column("text").to_pylist() == [None, None]
    assert probe_warc(p) == 2


def test_gzip_members_equal_plain(tmp_path):
    p = str(tmp_path / "f.warc")
    g = str(tmp_path / "f.warc.gz")
    write_warc(p, ROWS)
    write_warc(g, ROWS)  # compress inferred from suffix
    assert _read_file(g).equals(_read_file(p))
    assert probe_warc(g) == 2


def test_truncated_tail_keeps_prior_records(tmp_path):
    p = str(tmp_path / "f.warc")
    write_warc(p, ROWS)
    data = open(p, "rb").read()
    cut = data[: len(data) - 20]  # rip into the last record's payload
    t = parse_warc(cut)
    assert t.column("url").to_pylist() == [ROWS[0]["url"]]
    bad = str(tmp_path / "bad.warc")
    open(bad, "wb").write(cut)
    with pytest.raises(ValueError):
        probe_warc(bad)


def test_non_response_records_skipped(tmp_path):
    # request/metadata records around a response must be invisible
    from rsmetacheck_ray.sources.warc_pages import _record

    recs = (
        _record("request", {"WARC-Target-URI": "https://x"}, b"GET / HTTP/1.1\r\n")
        + _record(
            "response",
            {"WARC-Target-URI": "https://x", "WARC-Date": "2023-01-01T00:00:00Z"},
            b"HTTP/1.1 200 OK\r\n\r\n<p>ok</p>",
        )
        + _record("metadata", {}, b"via: fixture")
    )
    t = parse_warc(recs)
    assert t.num_rows == 1
    assert t.column("html").to_pylist() == [b"<p>ok</p>"]


def test_identity_payload_and_bracketed_uri():
    from rsmetacheck_ray.sources.warc_pages import _record

    rec = _record(
        "response",
        {"WARC-Target-URI": "<https://w.example.com/z>",
         "WARC-Date": "2023-01-01T00:00:00Z"},
        b"raw bytes, no http envelope",
    )
    t = parse_warc(rec)
    assert t.column("url").to_pylist() == ["https://w.example.com/z"]
    assert t.column("html").to_pylist() == [b"raw bytes, no http envelope"]


def test_read_pages_warc_schema(ray_session, tmp_path):
    p = str(tmp_path / "f.warc.gz")
    write_warc(p, ROWS)
    (t,) = read(p)
    assert t.schema.field("warc_ts").type == pa.timestamp("us")
    # look the row up by url, not by position
    by_url = dict(
        zip(t.column("url").to_pylist(), t.column("warc_ts").to_pylist())
    )
    assert by_url[ROWS[0]["url"]].microsecond == 500_000
    assert t.schema.field("html").type == pa.binary()


def _to_warc(parquet_dir: str, out_dir: str, gz_half: bool = True) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for i, f in enumerate(sorted(glob.glob(os.path.join(parquet_dir, "*.parquet")))):
        rows = []
        for r in pq.read_table(f).to_pylist():
            ts = r["warc_ts"]
            rows.append(
                {
                    "url": r["url"],
                    "warc_ts": ts.strftime("%Y-%m-%dT%H:%M:%S")
                    + (f".{ts.microsecond:06d}" if ts.microsecond else ""),
                    "html": r["html"],
                    "lang": r["lang"],
                }
            )
        suffix = ".warc.gz" if (gz_half and i % 2) else ".warc"
        write_warc(
            os.path.join(
                out_dir, os.path.basename(f).replace(".parquet", suffix)
            ),
            rows,
        )


def test_warc_gate_matches_parquet_gate(ray_session, small_corpus, tmp_path):
    """Byte-identical gate output from parquet and WARC inputs (the
    corpus has html for every row, so the text-fallback never fires
    and the WARC path carries the full content)."""
    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, _ = small_corpus
    wdir = tmp_path / "warc"
    _to_warc(pages_dir, str(wdir))

    out_p = tmp_path / "out_parquet"
    out_w = tmp_path / "out_warc"
    mp = run_gate(pages_dir, str(out_p), n_partitions=2)
    mw = run_gate(str(wdir), str(out_w), n_partitions=2, input_format="warc")
    assert mp == mw

    import pandas as pd

    a = (
        pq.read_table(str(out_p / "docs"))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    b = (
        pq.read_table(str(out_w / "docs"))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_corrupt_warc_fragment_skipped(ray_session, small_corpus, tmp_path):
    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, _ = small_corpus
    wdir = tmp_path / "warc"
    _to_warc(pages_dir, str(wdir), gz_half=False)
    bad = wdir / "zz-corrupt.warc"
    bad.write_bytes(b"WARC/1.0\r\nWARC-Type: response\r\nContent-Length: 999\r\n\r\nshort")

    out = tmp_path / "out"
    m = run_gate(str(wdir), str(out), n_partitions=2, input_format="warc")
    assert m["total_documents"] == 2000
    assert m["skipped_fragments"] == [str(bad)]
