"""Incremental gate mode (r5): day-2 processing touches ONLY day-2
fragments, cross-epoch duplicates are counted against the persisted
seen-hash store, and the merged metrics equal a from-scratch run over
the full lake."""

from __future__ import annotations

import glob
import json
import os
import shutil
import sys

import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_day2_touches_only_new_fragments_and_metrics_match(
    ray_session, small_corpus, tmp_path
):
    """The realistic crawl-drop shape: the lake only ever GROWS. Day-1
    gates the first half of the fragments; day-2 adds the rest; the
    second incremental run must gate exactly the added files, leave
    every day-1 output byte untouched, and produce merged metrics
    identical to a from-scratch run over the full lake."""
    from rsmetacheck_ray.pipelines.quality_gate import (
        incremental_docs_dirs, run_gate, run_gate_incremental,
    )

    pages_dir, _ = small_corpus
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    assert len(files) >= 4
    half = len(files) // 2
    lake = tmp_path / "lake"
    os.makedirs(lake)
    for f in files[:half]:
        shutil.copy(f, lake)

    out = tmp_path / "inc"
    m1 = run_gate_incremental(str(lake), str(out), n_partitions=1)
    assert m1["incremental"]["epoch"] == 0
    assert m1["incremental"]["new_fragments"] == half
    assert m1["incremental"]["dup_vs_seen"] == 0

    ep0 = out / "epochs" / "epoch-0000"
    ep0_files = sorted(glob.glob(str(ep0 / "**" / "*"), recursive=True))
    ep0_mtimes = {f: os.path.getmtime(f) for f in ep0_files}

    # day 2: new fragments land in the same lake
    for f in files[half:]:
        shutil.copy(f, lake)
    m2 = run_gate_incremental(str(lake), str(out), n_partitions=1)
    assert m2["incremental"]["epoch"] == 1
    assert m2["incremental"]["new_fragments"] == len(files) - half

    # day-1 outputs untouched byte-for-byte (same files, same mtimes)
    now = sorted(glob.glob(str(ep0 / "**" / "*"), recursive=True))
    assert now == ep0_files
    assert all(os.path.getmtime(f) == ep0_mtimes[f] for f in ep0_files)

    # epoch-0001 gated exactly the day-2 fragments
    man = [
        json.loads(line)
        for line in open(out / "epochs" / "epoch-0001" / "manifest.jsonl")
    ]
    gated = sorted(f for rec in man for f in rec["fragment_ids"])
    assert gated == sorted(
        os.path.join(str(lake), os.path.basename(f)) for f in files[half:]
    )

    # merged metrics equal the from-scratch run over the full lake
    scratch = run_gate(str(lake), str(tmp_path / "scratch"), n_partitions=2)
    merged = dict(m2)
    merged.pop("incremental")
    assert merged == scratch

    # per-epoch docs views cover the whole lake
    total = sum(
        pq.read_table(d).num_rows for d in incremental_docs_dirs(str(out))
    )
    assert total == scratch["total_documents"]

    # a third run with nothing new is a cheap no-op delta
    m3 = run_gate_incremental(str(lake), str(out), n_partitions=1)
    assert m3["incremental"]["new_fragments"] == 0
    merged3 = dict(m3)
    merged3.pop("incremental")
    assert merged3 == scratch


def test_cross_epoch_duplicates_counted(ray_session, small_corpus, tmp_path):
    """A day-2 fragment that replays day-1 content (new path, same
    text) is gated — the accounting stays equal to from-scratch — but
    its hashes probe the seen store and are reported as dups."""
    from rsmetacheck_ray.pipelines.quality_gate import run_gate_incremental

    pages_dir, _ = small_corpus
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    lake = tmp_path / "lake"
    os.makedirs(lake)
    shutil.copy(files[0], lake)
    out = tmp_path / "inc"
    m1 = run_gate_incremental(str(lake), str(out), n_partitions=1)
    n1 = m1["total_documents"]
    assert n1 > 0

    # day 2: one genuinely-new fragment + one replay of day-1 content
    # under a new filename
    shutil.copy(files[1], lake)
    shutil.copy(files[0], lake / "replayed-copy.parquet")
    m2 = run_gate_incremental(str(lake), str(out), n_partitions=1)
    assert m2["incremental"]["new_fragments"] == 2
    # every distinct hash of the replayed fragment is already seen
    assert m2["incremental"]["dup_vs_seen"] > 0
    assert m2["total_documents"] == n1 * 2 + pq.read_table(files[1]).num_rows


def test_epoch_hash_read_runs_once(
    ray_session, small_corpus, tmp_path, monkeypatch
):
    """The epoch's distinct-hash dataset feeds both the seen-store probe
    and the seen-store write; its parquet read executes once per epoch,
    not once per consumer."""
    import ray.data as rd

    from rsmetacheck_ray.pipelines import quality_gate as qg

    log = tmp_path / "hash_reads.log"
    orig = rd.read_parquet

    def counting_read(paths, *args, columns=None, **kwargs):
        ds = orig(paths, *args, columns=columns, **kwargs)
        if columns != ["content_hash", "content_hash2"] or not str(paths).endswith("docs"):
            return ds

        def note(b):
            with open(log, "a") as fh:
                fh.write(f"{len(b)}\n")
            return b

        return ds.map_batches(note, batch_format="pyarrow")

    monkeypatch.setattr(qg.rd, "read_parquet", counting_read)
    pages_dir, _ = small_corpus
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    lake = tmp_path / "lake"
    os.makedirs(lake)
    shutil.copy(files[0], lake)
    out = tmp_path / "inc"
    m1 = qg.run_gate_incremental(str(lake), str(out), n_partitions=1)
    shutil.copy(files[1], lake)
    m2 = qg.run_gate_incremental(str(lake), str(out), n_partitions=1)
    rows_read = sum(int(x) for x in log.read_text().split())
    assert rows_read == m1["total_documents"] + m2["incremental"]["new_documents"]


def test_incremental_composes_with_auto_format(
    ray_session, small_corpus, tmp_path
):
    """Epoch-append over a MIXED-format lake: day-1 parquet, day-2
    adds jsonl fragments — discovery, gating and the seen-hash probe
    all ride input_format='auto'."""
    from tests.test_jsonl_source import _to_jsonl

    from rsmetacheck_ray.pipelines.quality_gate import (
        run_gate, run_gate_incremental,
    )

    pages_dir, _ = small_corpus
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    lake = tmp_path / "lake"
    os.makedirs(lake)
    shutil.copy(files[0], lake)
    out = tmp_path / "inc"
    m1 = run_gate_incremental(
        str(lake), str(out), n_partitions=1, input_format="auto"
    )
    assert m1["incremental"]["new_fragments"] == 1

    jd = tmp_path / "jin"
    os.makedirs(jd)
    shutil.copy(files[1], jd)
    _to_jsonl(str(jd), str(lake))
    m2 = run_gate_incremental(
        str(lake), str(out), n_partitions=1, input_format="auto"
    )
    assert m2["incremental"]["new_fragments"] == 1  # only the jsonl

    scratch = run_gate(
        str(lake), str(tmp_path / "scratch"), n_partitions=1,
        input_format="auto",
    )
    merged = dict(m2)
    merged.pop("incremental")
    assert merged == scratch


def test_interrupted_epoch_recovers(ray_session, small_corpus, tmp_path):
    """A run killed mid-epoch leaves a partial epoch manifest; the
    next incremental run gates ONLY the unfinished fragments (into a
    fresh epoch) and the merged metrics still equal from-scratch."""
    import pytest

    from rsmetacheck_ray.pipelines import quality_gate as qg

    pages_dir, _ = small_corpus
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    lake = tmp_path / "lake"
    os.makedirs(lake)
    for f in files[:3]:
        shutil.copy(f, lake)
    out = tmp_path / "inc"

    # kill the first epoch after one partition completes
    calls = {"n": 0}
    orig = qg.build_gate

    def exploding(ds, cfg, write_dropped_text=False, **kw):
        if calls["n"] >= 1:
            raise RuntimeError("simulated mid-epoch kill")
        calls["n"] += 1
        return orig(ds, cfg, write_dropped_text, **kw)

    qg.build_gate = exploding
    try:
        with pytest.raises(RuntimeError):
            qg.run_gate_incremental(str(lake), str(out), n_partitions=3)
    finally:
        qg.build_gate = orig

    ep0_man = out / "epochs" / "epoch-0000" / "manifest.jsonl"
    assert ep0_man.exists()
    done0 = len(open(ep0_man).readlines())
    assert 1 <= done0 < 3

    # recovery run: the unfinished fragments land in epoch-0001
    m = qg.run_gate_incremental(str(lake), str(out), n_partitions=1)
    assert m["incremental"]["new_fragments"] == 3 - done0
    scratch = qg.run_gate(str(lake), str(tmp_path / "scratch"),
                          n_partitions=1)
    merged = dict(m)
    merged.pop("incremental")
    assert merged == scratch
