"""CLI surface (rsmetacheck_ray/cli.py): the query subcommand — list,
sample output, parquet export, unknown-name failure. Runs in-process
against the session Ray fixture (cli.main only initializes Ray when
none is active)."""

from __future__ import annotations

import json

import pyarrow.parquet as pq

from rsmetacheck_ray.cli import main

SF_DIR = "/root/testdata/sf0.001"


def test_query_list(capsys):
    assert main(["query", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "dedup_exact" in names and "gate_then_dedup" in names
    assert names == sorted(names)


def test_gate_input_format_choices_are_the_format_table():
    import argparse

    from rsmetacheck_ray.cli import build_parser
    from rsmetacheck_ray.pipelines.quality_gate import FORMATS

    sub = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    fmt = next(
        a for a in sub.choices["gate"]._actions if a.dest == "input_format"
    )
    assert list(fmt.choices) == [*FORMATS, "auto"]


def test_query_sample(ray_session, capsys):
    assert main(["query", "url_canonical", "--sf-dir", SF_DIR]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert 0 < len(lines) <= 10
    row = json.loads(lines[0])
    assert {"doc_id", "url", "canonical_url"} <= set(row)


def test_query_export(ray_session, tmp_path, capsys):
    dest = str(tmp_path / "out.parquet")
    assert main(
        ["query", "doc_stats", "--sf-dir", SF_DIR, "--dest", dest]
    ) == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info["rows"] > 0
    # Dataset.write_parquet writes a directory of fragments
    import os

    total = (
        sum(
            pq.read_metadata(os.path.join(dest, f)).num_rows
            for f in os.listdir(dest)
            if f.endswith(".parquet")
        )
        if os.path.isdir(dest)
        else pq.read_metadata(dest).num_rows
    )
    assert total == info["rows"]


def test_query_unknown_name(capsys):
    # validated pre-Ray-init (no session needed), error on stderr
    assert main(["query", "nope_not_a_query", "--sf-dir", SF_DIR]) == 2
    assert "unknown query" in capsys.readouterr().err


def test_export_jsonl_views(ray_session, tmp_path, capsys):
    from rsmetacheck_ray.datagen import corpus_dir
    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, _ = corpus_dir(300)
    out = str(tmp_path / "run")
    m = run_gate(pages_dir, out, n_partitions=2)
    dest = str(tmp_path / "jsonl")
    assert main(["export", "--out", out, "--dest", dest,
                 "--view", "kept"]) == 0
    info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert info["rows"] == m["kept"] and info["files"] >= 1
    # every exported line is standalone JSON with the kept columns
    import os

    n_lines = 0
    for f in os.listdir(dest):
        with open(os.path.join(dest, f)) as fh:
            for line in fh:
                row = json.loads(line)
                assert "url" in row and "scrubbed_text" in row
                n_lines += 1
    assert n_lines == m["kept"]


def test_gate_incremental_cli(ray_session, small_corpus, tmp_path, capsys):
    """`gate --incremental` end to end through the CLI: first run
    gates everything, second run with no new fragments is a no-op
    delta with identical merged metrics."""
    import glob
    import json as _json
    import os
    import shutil

    pages_dir, _ = small_corpus
    lake = tmp_path / "lake"
    os.makedirs(lake)
    for f in sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))[:2]:
        shutil.copy(f, lake)
    out = tmp_path / "run"
    assert main(["gate", "--incremental", "--input", str(lake),
                 "--out", str(out), "--partitions", "1"]) == 0
    m1 = _json.loads(capsys.readouterr().out)
    assert m1["incremental"]["epoch"] == 0
    assert m1["total_documents"] > 0
    assert main(["gate", "--incremental", "--input", str(lake),
                 "--out", str(out), "--partitions", "1"]) == 0
    m2 = _json.loads(capsys.readouterr().out)
    assert m2["incremental"]["new_fragments"] == 0
    m1.pop("incremental"); m2.pop("incremental")
    assert m1 == m2


def test_metrics_cli_incremental_layout(ray_session, small_corpus, tmp_path, capsys):
    """`metrics --out` on an incremental run dir merges per-epoch
    recomputes and matches the run's own merged metrics (minus the
    incremental block, which only the run writer knows)."""
    import glob
    import json as _json
    import os
    import shutil

    pages_dir, _ = small_corpus
    lake = tmp_path / "lake"
    os.makedirs(lake)
    for f in sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))[:2]:
        shutil.copy(f, lake)
    out = tmp_path / "run"
    assert main(["gate", "--incremental", "--input", str(lake),
                 "--out", str(out), "--partitions", "1"]) == 0
    run_metrics = _json.loads(capsys.readouterr().out)
    run_metrics.pop("incremental")
    assert main(["metrics", "--out", str(out)]) == 0
    recomputed = _json.loads(capsys.readouterr().out)
    # skipped_fragments lineage lives only in the manifest; the pure
    # recompute carries everything else
    run_metrics.pop("skipped_fragments", None)
    assert recomputed == run_metrics


def test_kept_view_cli_incremental_layout(ray_session, small_corpus, tmp_path, capsys):
    """`kept --out <incremental-run>` exports across all epochs."""
    import glob
    import json as _json
    import os
    import shutil

    pages_dir, _ = small_corpus
    lake = tmp_path / "lake"
    os.makedirs(lake)
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    shutil.copy(files[0], lake)
    out = tmp_path / "run"
    assert main(["gate", "--incremental", "--input", str(lake),
                 "--out", str(out), "--partitions", "1"]) == 0
    m1 = _json.loads(capsys.readouterr().out)
    shutil.copy(files[1], lake)
    assert main(["gate", "--incremental", "--input", str(lake),
                 "--out", str(out), "--partitions", "1"]) == 0
    m2 = _json.loads(capsys.readouterr().out)
    dest = tmp_path / "kept"
    assert main(["kept", "--out", str(out), "--dest", str(dest)]) == 0
    res = _json.loads(capsys.readouterr().out)
    assert res["rows"] == m2["kept"] > m1["kept"]


def test_kept_and_evidence_exports(ray_session, small_corpus, tmp_path,
                                   capsys, monkeypatch):
    """`kept` and `evidence --dest` write zstd parquet and print the
    rows their views hold, counted from the written footers (a file
    already in the destination is not counted), without running the
    view a second time."""
    import os

    import ray.data as rd

    from rsmetacheck_ray.pipelines.quality_gate import (
        evidence_view, kept_view, run_gate,
    )

    out = tmp_path / "run"
    m = run_gate(small_corpus[0], str(out), n_partitions=2)
    docs = str(out / "docs")
    want = {"kept": kept_view(docs).count(),
            "evidence": evidence_view(docs).count()}
    assert want["kept"] == m["kept"]

    def no_count(self):
        raise AssertionError("the export ran its view again")

    monkeypatch.setattr(rd.Dataset, "count", no_count)
    for cmd in ("kept", "evidence"):
        dest = tmp_path / cmd
        os.makedirs(dest)
        pq.write_table(pq.read_table(docs).slice(0, 7), dest / "earlier.parquet")
        assert main([cmd, "--out", str(out), "--dest", str(dest)]) == 0
        info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert info == {"rows": want[cmd], "dest": str(dest)}
        files = [f for f in os.listdir(dest) if f != "earlier.parquet"]
        assert files
        for f in files:
            md = pq.read_metadata(dest / f)
            assert {md.row_group(g).column(c).compression
                    for g in range(md.num_row_groups)
                    for c in range(md.num_columns)} == {"ZSTD"}


def test_view_commands_run_their_plan_once(ray_session, small_corpus, tmp_path,
                                           capsys, monkeypatch):
    """Every view command maps each input batch once: `dedup` and
    `export` count from what they wrote (footers, JSON lines), not by
    running their plan again. Each read gets a map that records one
    file per batch, named by a digest of the batch's urls."""
    import glob
    import os

    import ray.data as rd

    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    out = tmp_path / "run"
    m = run_gate(small_corpus[0], str(out), n_partitions=2)
    seen = tmp_path / "seen"
    read = rd.read_parquet

    def recorded_read(*args, **kwargs):
        where = str(seen)

        def record(batch):
            import hashlib
            import uuid

            key = hashlib.sha1(repr(batch.column("url").to_pylist()).encode()).hexdigest()
            open(os.path.join(where, f"{key}.{uuid.uuid4().hex}"), "w").close()
            return batch

        raw = read(*args, **kwargs)
        ds = raw.map_batches(record, batch_format="pyarrow")
        # the record map keeps the schema: answer from the read's
        # footers, as the bare read would, instead of running the map
        ds.schema = raw.schema
        return ds

    monkeypatch.setattr(rd, "read_parquet", recorded_read)
    commands = [["dedup"], ["kept"], ["evidence"],
                ["export", "--view", "kept"], ["export", "--view", "evidence"],
                ["export", "--view", "docs"]]
    for k, cmd in enumerate(commands):
        os.makedirs(seen)
        dest = tmp_path / f"dest{k}"
        assert main(cmd[:1] + ["--out", str(out), "--dest", str(dest)] + cmd[1:]) == 0
        info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        keys = [os.path.basename(f).split(".")[0] for f in glob.glob(str(seen / "*"))]
        assert keys and len(keys) == len(set(keys)), (cmd, len(keys), len(set(keys)))
        if cmd == ["dedup"]:
            assert 0 < info["rows"] <= m["kept"]
        elif cmd[-1] in ("kept", "docs"):
            assert info["rows"] == m["kept" if cmd[-1] == "kept" else "total_documents"]
        os.rename(seen, tmp_path / f"seen{k}")
