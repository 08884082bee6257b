"""run_gate's read plan: work items read inside the fused gate task, or
by a streaming reader task.

A partition is planned as work items (runs of parquet row groups, or
whole fragments of the other formats). A work item bounded by the
footers is one plain Ray task that reads it, gates it and writes its
file; any other item is read by a streaming-generator task whose
batch-sized tables are each gated and written by a task of their own.
No Ray Data execution starts for any format. These tests pin both
paths, their parallelism, the row checks, the registry queries'
bundled layout and that every format's per-fragment reader gives back
the pages written to it."""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def test_partition_is_one_fused_operator(ray_session, small_corpus, tmp_path,
                                         monkeypatch):
    """A bounded partition builds no gate Dataset and executes no Ray
    Data write: its work items run as plain tasks, one file each."""
    import ray.data as rd

    from rsmetacheck_ray.config import DEFAULT_CONFIG
    from rsmetacheck_ray.pipelines.quality_gate import (
        _sized_cfg, _work_items, run_gate,
    )

    def no_dataset_write(*a, **kw):
        raise AssertionError("a bounded partition executed a Dataset")

    monkeypatch.setattr(rd.Dataset, "write_parquet", no_dataset_write)
    pages_dir, _ = small_corpus
    out = tmp_path / "out"
    m = run_gate(pages_dir, str(out), n_partitions=1)
    frags = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    counts = [pq.ParquetFile(f).metadata.num_rows for f in frags]
    assert m["total_documents"] == sum(counts)
    sized = _sized_cfg(DEFAULT_CONFIG, sum(counts)).batch_size
    plan = _work_items([(f, "parquet", [n]) for f, n in zip(frags, counts)],
                       sized)
    files = sorted(os.listdir(out / "docs" / "partition=0"))
    assert files == [f"part-{k:05d}.parquet" for k in range(len(plan))]


def test_gate_module_does_not_import_ray_data():
    """A gate task's worker imports ``quality_gate`` to run its task,
    and importing ``ray.data`` there costs a few hundred milliseconds of
    cold start: only the functions that build Datasets import it."""
    code = ("import sys, ray\n"
            "import rsmetacheck_ray.pipelines.quality_gate\n"
            "assert 'ray.data' not in sys.modules, 'ray.data imported'\n")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True)


def test_work_items_group_row_groups_greedily():
    from rsmetacheck_ray.pipelines.quality_gate import _work_items

    units = [("a.parquet", "parquet", [1000] * 8)]
    assert _work_items(units, 2048) == [
        [("a.parquet", [0, 1, 2])],
        [("a.parquet", [3, 4, 5])],
        [("a.parquet", [6, 7])],
    ]
    # a one-row-group fragment is read whole; small ones share a task
    units = [("a.parquet", "parquet", [1500]), ("b.parquet", "parquet", [700]),
             ("c.parquet", "parquet", [900, 900])]
    assert _work_items(units, 2048) == [
        [("a.parquet", None), ("b.parquet", None)],
        [("c.parquet", [0, 1])],
    ]
    # no free count ⇒ a task of its own; formats never share a task
    units = [("a.orc", "orc", [10]), ("b.jsonl", "jsonl", None),
             ("c.orc", "orc", [10]), ("d.arrow", "ipc", [10])]
    assert _work_items(units, 2048) == [
        [("a.orc", None)], [("b.jsonl", None)], [("c.orc", None)],
        [("d.arrow", None)],
    ]


def test_row_groups_run_as_parallel_tasks(ray_session, small_corpus, tmp_path):
    """One 8-row-group fragment runs fused, as several tasks, one
    greedy work item and one file each. The same rows in ONE row group
    are too large for a work item: a reader yields them in batch-sized
    tables and each is gated and written by a task of its own, one
    zstd row group per file. Both write the same rows."""
    import dataclasses

    from rsmetacheck_ray.config import DEFAULT_CONFIG
    from rsmetacheck_ray.pipelines.quality_gate import (
        _sized_cfg, _work_items, run_gate,
    )

    pages_dir, _ = small_corpus
    pages = pq.read_table(pages_dir).select(["url", "warc_ts", "html", "text", "lang"])
    tiled = pa.concat_tables([pages] * 4)
    frag = tmp_path / "groups" / "pages.parquet"
    single = tmp_path / "single" / "pages.parquet"
    for p in (frag, single):
        os.makedirs(p.parent)
    pq.write_table(tiled, frag, row_group_size=1000)
    pq.write_table(tiled, single)
    assert pq.ParquetFile(frag).metadata.num_row_groups == 8
    assert pq.ParquetFile(single).metadata.num_row_groups == 1

    cfg = dataclasses.replace(DEFAULT_CONFIG, batch_size=2048)
    sized = _sized_cfg(cfg, 8000).batch_size
    plan = _work_items([(str(frag), "parquet", [1000] * 8)], sized)
    assert len(plan) > 1

    out = tmp_path / "out"
    m = run_gate(str(frag.parent), str(out), cfg, n_partitions=1)
    assert m["total_documents"] == 8000
    files = sorted(glob.glob(str(out / "docs" / "partition=0" / "*.parquet")))
    assert len(files) == len(plan)
    assert sorted(pq.ParquetFile(f).metadata.num_rows for f in files) == sorted(
        sum(1000 * len(rgs) for _, rgs in task) for task in plan)

    whole = tmp_path / "whole"
    run_gate(str(single.parent), str(whole), cfg, n_partitions=1)
    # one file per batch the reader yields: the last one holds the rest
    part = whole / "docs" / "partition=0"
    n = -(-8000 // sized)
    assert sorted(os.listdir(part)) == [
        f"part-00000-{j:05d}.parquet" for j in range(n)]
    for j in range(n):
        f = part / f"part-00000-{j:05d}.parquet"
        assert _codecs(f) == {"ZSTD"}
        assert pq.ParquetFile(f).metadata.num_row_groups == 1
        assert pq.ParquetFile(f).metadata.num_rows == min(sized, 8000 - j * sized)
    a = pq.read_table(str(out / "docs")).to_pandas()
    b = pq.read_table(str(whole / "docs")).to_pandas()
    keys = ["url", "content_hash", "warc_ts"]
    assert a.sort_values(keys).reset_index(drop=True).equals(
        b.sort_values(keys).reset_index(drop=True))


def test_partition_plan_follows_the_footers():
    """A work item is read inside its gate task only when every read
    unit has a known count of at most one batch."""
    from rsmetacheck_ray.pipelines.quality_gate import (
        _items_are_bounded, _work_items,
    )

    assert _items_are_bounded([("a.parquet", "parquet", [2048, 100]),
                               ("b.orc", "orc", [5])], 2048)
    assert _items_are_bounded([("a.parquet", "parquet", [0])], 2048)
    assert not _items_are_bounded([("a.parquet", "parquet", [2049])], 2048)
    assert not _items_are_bounded([("a.parquet", "parquet", [10]),
                                   ("b.jsonl", "jsonl", None)], 2048)
    # a fragment without row groups is in no work item
    assert _work_items([("a.parquet", "parquet", [])], 2048) == []


def test_lost_rows_fail_the_run(ray_session, small_corpus, tmp_path,
                                monkeypatch):
    """A fused partition whose tasks write fewer rows than its footers
    count fails the run instead of being recorded as a smaller
    partition."""
    import ray

    from rsmetacheck_ray.pipelines import quality_gate as qg

    orig = qg._read_pieces

    def short_reader(item):
        tables = list(orig(item))
        yield tables[0].slice(1)
        yield from tables[1:]

    # the task pickles the module globals it reads when it is first
    # submitted: a new remote function of the same body carries the
    # patched reader to the workers
    monkeypatch.setattr(qg, "_read_pieces", short_reader)
    monkeypatch.setattr(qg, "_gate_work_item",
                        ray.remote(num_cpus=1)(qg._gate_work_item._function))
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="footers count"):
        qg.run_gate(small_corpus[0], str(out), n_partitions=1)
    assert not qg.Manifest(str(out / "manifest.jsonl")).completed()


def _one_row_group(small_corpus, tmp_path):
    """The corpus rewritten as one row group larger than a batch, which
    a reader reads."""
    pages = pq.read_table(small_corpus[0]).select(
        ["url", "warc_ts", "html", "text", "lang"])
    lake = tmp_path / "lake"
    os.makedirs(lake)
    pq.write_table(pages, lake / "pages.parquet")
    assert pq.ParquetFile(lake / "pages.parquet").metadata.num_row_groups == 1
    return lake


def test_streamed_lost_rows_fail_the_run(ray_session, small_corpus, tmp_path,
                                         monkeypatch):
    """A partition read by a reader (one row group larger than
    ``batch_size``) whose reader yields fewer rows than its footers
    count fails the run instead of being recorded as a smaller
    partition."""
    import ray

    from rsmetacheck_ray.config import DEFAULT_CONFIG
    from rsmetacheck_ray.pipelines import quality_gate as qg

    lake = _one_row_group(small_corpus, tmp_path)
    rows = pq.ParquetFile(lake / "pages.parquet").metadata.num_rows
    assert rows > qg._sized_cfg(DEFAULT_CONFIG, rows).batch_size
    orig = qg._read_pieces

    def short_reader(item):
        tables = list(orig(item))
        yield tables[0].slice(1)
        yield from tables[1:]

    monkeypatch.setattr(qg, "_read_pieces", short_reader)
    reader = ray.remote(num_cpus=1, num_returns="streaming")(
        qg._read_work_item._function)
    started = []

    class RecordingReader:
        def remote(self, item):
            started.append(item)
            return reader.remote(item)

    monkeypatch.setattr(qg, "_read_work_item", RecordingReader())
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="footers count"):
        qg.run_gate(str(lake), str(out), n_partitions=1)
    assert len(started) == 1  # the reader path ran
    assert not qg.Manifest(str(out / "manifest.jsonl")).completed()


def test_gate_lost_rows_fail_the_run(ray_session, small_corpus, tmp_path,
                                     monkeypatch):
    """On a format whose footers count nothing (jsonl), a gate that
    writes one row fewer than it read fails the run and records no
    partition."""
    import ray

    from tests.test_jsonl_source import _to_jsonl

    from rsmetacheck_ray.pipelines import quality_gate as qg

    _to_jsonl(small_corpus[0], str(tmp_path / "lake"))
    orig = qg._gate_task_fn

    def dropping_gate(batch, *args):
        tables = list(orig(batch, *args))
        yield tables[0].slice(1)
        yield from tables[1:]

    monkeypatch.setattr(qg, "_gate_task_fn", dropping_gate)
    monkeypatch.setattr(qg, "_gate_work_item",
                        ray.remote(num_cpus=1)(qg._gate_work_item._function))
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="the gate wrote"):
        qg.run_gate(str(tmp_path / "lake"), str(out), n_partitions=1,
                    input_format="jsonl")
    assert not qg.Manifest(str(out / "manifest.jsonl")).completed()
    assert os.listdir(out / "docs") == []


def _codecs(path) -> set[str]:
    md = pq.ParquetFile(path).metadata
    return {md.row_group(g).column(c).compression
            for g in range(md.num_row_groups) for c in range(md.num_columns)}


def test_gate_files_are_zstd(ray_session, small_corpus, tmp_path):
    """Both read paths write zstd column chunks, one row group per
    file. The metrics recomputed from the files equal metrics.json,
    and the kept and evidence views count the same rows as over the
    same table written with Arrow's default options."""
    from rsmetacheck_ray.pipelines.quality_gate import (
        compute_metrics, evidence_view, kept_view, run_gate,
    )

    fused = tmp_path / "fused"
    m = run_gate(small_corpus[0], str(fused), n_partitions=1)
    files = glob.glob(str(fused / "docs" / "partition=0" / "*.parquet"))
    assert files
    for f in files:
        assert _codecs(f) == {"ZSTD"}
        assert pq.ParquetFile(f).metadata.num_row_groups == 1

    streamed = tmp_path / "streamed"
    assert run_gate(str(_one_row_group(small_corpus, tmp_path)), str(streamed),
                    n_partitions=1) == m
    files = glob.glob(str(streamed / "docs" / "partition=0" / "*.parquet"))
    assert len(files) > 1  # one file per table the reader yields
    for f in files:
        assert os.path.basename(f).startswith("part-00000-")
        assert _codecs(f) == {"ZSTD"}
        assert pq.ParquetFile(f).metadata.num_row_groups == 1

    for run in (fused, streamed):
        docs = str(run / "docs")
        assert compute_metrics(docs) == json.loads((run / "metrics.json").read_text())
        plain = tmp_path / f"{run.name}-snappy"
        os.makedirs(plain)
        pq.write_table(pq.read_table(docs), plain / "part.parquet")
        assert _codecs(plain / "part.parquet") == {"SNAPPY"}
        assert kept_view(docs).count() == kept_view(str(plain)).count() == m["kept"]
        assert evidence_view(docs).count() == evidence_view(str(plain)).count() == sum(
            r["count"] for r in m["rules"].values())


def test_pages_dataset_keeps_row_bundling(ray_session, small_corpus):
    """A pages Dataset (the registry queries' input) is still gated in
    ``cfg.batch_size``-row bundles: four small blocks make one task."""
    import ray.data as rd

    from rsmetacheck_ray.pipelines.quality_gate import build_gate

    pages = pq.read_table(small_corpus[0])
    ds = rd.from_arrow([pages.slice(i * 100, 100) for i in range(4)])
    out = build_gate(ds).materialize()
    assert out.count() == 400
    gate_op = next(line for line in out.stats().splitlines()
                   if "MapBatches(_gate_task_fn)" in line and "tasks executed" in line)
    assert ": 1 tasks executed" in gate_op


# --- per-format readers ------------------------------------------------------


def read_pages(fmt: str, path) -> pa.Table:
    """Every fragment of ``path`` (one file, or a directory listed by
    the format's suffixes) read with ``FORMATS[fmt].read``, as one
    table."""
    from rsmetacheck_ray.pipelines.quality_gate import (
        FORMATS, list_parquet_fragments,
    )

    paths = list_parquet_fragments(str(path), FORMATS[fmt].suffixes)
    return pa.concat_tables(
        [t for p in paths for t in FORMATS[fmt].read(p)],
        promote_options="default",
    )


def _big_jsonl(path: str) -> list[dict]:
    """A JSONL fragment with a line larger than pyarrow's 1 MiB parse
    block, placed so that it straddles a block boundary; returns the
    rows as the reader must give them back."""
    import datetime as dt

    rows = [
        {"url": f"https://a.example/s{i}", "warc_ts": "2023-01-01T00:00:01",
         "text": "a short page " * 15, "lang": "en"}
        for i in range(3000)
    ]
    rows += [
        {"url": "https://a.example/big", "warc_ts": "2023-01-01T00:00:02",
         "text": "word " * 400_000, "lang": "en"},
        {"url": "https://a.example/last", "warc_ts": "2023-01-01T00:00:03.5",
         "text": "another page", "lang": "fr"},
    ]
    with open(path, "w") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")
    import pyarrow.json as pajson

    with pytest.raises(pa.ArrowInvalid, match="straddling object"):
        pajson.read_json(path)
    return [
        dict(r, html=None, warc_ts=dt.datetime.fromisoformat(r["warc_ts"]))
        for r in rows
    ]


def _multiline_csv(path: str) -> list[dict]:
    """CSV values with embedded newlines, quotes and commas; returns
    the rows as the reader must give them back."""
    from rsmetacheck_ray.sources.csv_pages import write_pages_csv

    t = pa.table({
        "url": ["https://c.example/1", "https://c.example/2"],
        "warc_ts": pa.array([1_672_531_200_000_000, 1_672_531_201_000_000],
                            pa.timestamp("us")),
        "html": pa.array([b"<p>a\nb</p>", None], pa.binary()),
        "text": ["line one\nline two\r\nline three", "quote \" and, comma\n"],
        "lang": ["en", None],
    })
    write_pages_csv(t, path)
    return t.to_pylist()


@pytest.fixture(scope="module")
def format_lake(ray_session, small_corpus, tmp_path_factory):
    """{format: (fragment paths, expected page rows)}: the small corpus
    written in every format, plus the edge cases each format's reader
    has to get right."""
    from tests.test_avro_source import _to_avro
    from tests.test_csv_source import _to_csv
    from tests.test_ipc_source import _to_ipc
    from tests.test_jsonl_source import _to_jsonl
    from tests.test_orc_source import _to_orc
    from tests.test_tar_source import _to_tar
    from tests.test_warc_source import _to_warc

    from rsmetacheck_ray.schema import PAGES_COLUMNS

    pages_dir, _ = small_corpus
    pages = pq.read_table(pages_dir).select(PAGES_COLUMNS).to_pylist()
    root = tmp_path_factory.mktemp("formats")
    lake = {"parquet": (sorted(glob.glob(os.path.join(pages_dir, "*.parquet"))),
                        pages)}
    for fmt, conv in [("jsonl", _to_jsonl), ("csv", _to_csv),
                      ("orc", lambda d, o: _to_orc(d, o, stripe_size=64 << 10)),
                      ("ipc", lambda d, o: _to_ipc(d, o, max_chunksize=300)),
                      ("tar", _to_tar), ("avro", _to_avro),
                      ("warc", lambda d, o: _to_warc(d, o, gz_half=True))]:
        conv(pages_dir, str(root / fmt))
        # WARC carries no pre-extracted text
        rows = [dict(r, text=None) for r in pages] if fmt == "warc" else pages
        lake[fmt] = (sorted(glob.glob(str(root / fmt / "*"))), rows)
    big = str(root / "jsonl" / "zz-big.jsonl")
    lake["jsonl"] = (lake["jsonl"][0] + [big], pages + _big_jsonl(big))
    multi = str(root / "csv" / "zz-multiline.csv")
    lake["csv"] = (lake["csv"][0] + [multi], pages + _multiline_csv(multi))
    assert any(p.endswith(".warc.gz") for p in lake["warc"][0])
    assert any(p.endswith(".warc") for p in lake["warc"][0])
    return lake


@pytest.mark.parametrize(
    "fmt", ["parquet", "jsonl", "csv", "warc", "orc", "ipc", "tar", "avro"])
def test_format_read_gives_back_the_pages(format_lake, fmt):
    """``FORMATS[fmt].read`` returns, fragment by fragment, exactly the
    page rows that were written, in the shared pages schema."""
    from rsmetacheck_ray.pipelines.quality_gate import FORMATS
    from rsmetacheck_ray.schema import PAGES_COLUMNS, PAGES_SCHEMA

    paths, expected = format_lake[fmt]
    got = pa.concat_tables(
        [t for p in paths for t in FORMATS[fmt].read(p)],
        promote_options="default",
    )
    assert [(f.name, f.type) for f in got.select(PAGES_COLUMNS).schema] == [
        (f.name, f.type) for f in PAGES_SCHEMA]
    rows = got.select(PAGES_COLUMNS).sort_by("url").to_pylist()
    assert rows == sorted(expected, key=lambda r: r["url"])
    if fmt == "jsonl":
        big = [r for r in rows if r["url"] == "https://a.example/big"]
        assert len(big[0]["text"]) > 1 << 20


def test_parquet_read_takes_row_group_runs(tmp_path):
    from rsmetacheck_ray.pipelines.quality_gate import FORMATS

    t = pa.table({"url": [f"u{i}" for i in range(10)]})
    path = str(tmp_path / "p.parquet")
    pq.write_table(t, path, row_group_size=3)
    got = pa.concat_tables(FORMATS["parquet"].read(path, [1, 2]))
    assert got.column("url").to_pylist() == [f"u{i}" for i in range(3, 9)]
    assert FORMATS["parquet"].count_rows(path) == [3, 3, 3, 1]
    # streamed in tables of at most batch_size rows
    sizes = [len(b) for b in FORMATS["parquet"].read(path, None, 4)]
    assert max(sizes) <= 4 and sum(sizes) == 10


@pytest.mark.parametrize(
    "fmt", ["parquet", "jsonl", "csv", "warc", "orc", "ipc", "tar", "avro", "auto"])
def test_run_gate_starts_no_ray_data(format_lake, fmt, tmp_path, monkeypatch):
    """run_gate gates every format, and a mixed lake under ``auto``,
    with Ray Data's read and write entry points patched to fail."""
    import ray.data as rd

    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    def no_ray_data(*a, **kw):
        raise AssertionError("run_gate started a Ray Data execution")

    monkeypatch.setattr(rd, "read_datasource", no_ray_data)
    monkeypatch.setattr(rd, "read_parquet", no_ray_data)
    monkeypatch.setattr(rd.Dataset, "write_parquet", no_ray_data)
    lakes = format_lake.values() if fmt == "auto" else [format_lake[fmt]]
    paths = [p for ps, _ in lakes for p in ps]
    m = run_gate(paths, str(tmp_path / "out"), n_partitions=2,
                 input_format=fmt)
    assert m["total_documents"] == sum(len(rows) for _, rows in lakes)
    assert "skipped_fragments" not in m
