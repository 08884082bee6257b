"""CSV pages source: the pinned quoting dialect (null ⇔ unquoted
empty, "" ⇔ quoted empty), schema coercion, and format equivalence —
the SAME corpus through parquet and CSV inputs must produce
byte-identical gate decisions."""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq

from rsmetacheck_ray.sources.csv_pages import write_pages_csv
from tests.test_gate_read_plan import read_pages


def _to_csv(parquet_dir: str, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for f in sorted(glob.glob(os.path.join(parquet_dir, "*.parquet"))):
        write_pages_csv(
            pq.read_table(f),
            os.path.join(out_dir, os.path.basename(f).replace(".parquet", ".csv")),
        )


def test_dialect_null_vs_empty_roundtrip(ray_session, tmp_path):
    t = pa.table(
        {
            "url": pa.array(["https://a.example/x", "https://a.example/y"]),
            "warc_ts": pa.array(
                [1_672_531_200_000_000, 1_672_531_337_500_000],
                pa.timestamp("us"),
            ),
            "html": pa.array([b"<p>hi</p>", None], pa.binary()),
            # one EMPTY text (a real document) and one NULL text (absent)
            "text": pa.array(["", None], pa.string()),
            "lang": pa.array(["en", None], pa.string()),
            "doc_id": pa.array([1, 2], pa.int64()),
        }
    )
    p = str(tmp_path / "pages.csv")
    write_pages_csv(t, p)
    out = read_pages("csv", p).to_pandas().sort_values("doc_id")
    assert out["text"].tolist()[0] == ""  # quoted empty survives as ""
    assert out["text"].tolist()[1] is None  # unquoted empty -> null
    assert out["html"].tolist() == [b"<p>hi</p>", None]
    ts = out["warc_ts"].tolist()
    assert ts[0].microsecond == 0 and ts[1].microsecond == 500_000


def test_na_like_strings_are_not_nulled(ray_session, tmp_path):
    """Only the empty field is null under the dialect: pyarrow's
    default null_values list would silently nullify unquoted NA/NULL/
    nan values a warehouse export legitimately contains."""
    p = str(tmp_path / "pages.csv")
    with open(p, "w") as fh:
        fh.write("url,warc_ts,html,text,lang,doc_id\n")
        fh.write('https://a.example/x,2023-01-01T00:00:00,,NA,null,1\n')
    out = read_pages("csv", p).to_pandas()
    assert out["text"].tolist() == ["NA"]
    assert out["lang"].tolist() == ["null"]
    assert out["html"].tolist() == [None]  # empty field stays null


def test_newlines_in_text_survive(ray_session, tmp_path):
    t = pa.table(
        {
            "url": pa.array(["https://a.example/x"]),
            "warc_ts": pa.array([1_672_531_200_000_000], pa.timestamp("us")),
            "html": pa.array([None], pa.binary()),
            "text": pa.array(["line one\nLicense: MIT\nline three"]),
            "lang": pa.array(["en"]),
        }
    )
    p = str(tmp_path / "pages.csv")
    write_pages_csv(t, p)
    out = read_pages("csv", p).to_pandas()
    assert out["text"].tolist() == ["line one\nLicense: MIT\nline three"]


def test_csv_gate_matches_parquet_gate(ray_session, small_corpus, tmp_path):
    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, _ = small_corpus
    cdir = tmp_path / "csv"
    _to_csv(pages_dir, str(cdir))

    out_p = tmp_path / "out_parquet"
    out_c = tmp_path / "out_csv"
    mp = run_gate(pages_dir, str(out_p), n_partitions=2)
    mc = run_gate(str(cdir), str(out_c), n_partitions=2, input_format="csv")
    assert mp == mc

    import pandas as pd

    a = (
        pq.read_table(str(out_p / "docs"))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    b = (
        pq.read_table(str(out_c / "docs"))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_csv_corrupt_fragment_skipped(ray_session, small_corpus, tmp_path):
    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, _ = small_corpus
    cdir = tmp_path / "csv"
    _to_csv(pages_dir, str(cdir))
    bad = cdir / "zz-corrupt.csv"
    # an unterminated quoted field cannot be parsed under the dialect
    bad.write_text('url,warc_ts,html,text,lang\n"https://x.example,,,"trunc')

    out = tmp_path / "out"
    metrics = run_gate(str(cdir), str(out), n_partitions=2, input_format="csv")
    assert metrics["total_documents"] == 2000
    assert metrics["skipped_fragments"] == [str(bad)]
