"""Golden end-to-end test (SURVEY §5 new-engine plan, item b):
deterministic corpus → full Ray pipeline → join output to the hidden
labels on url → assert keep/drop F1 ≥ 0.99, byte-identical scrubbed
text, and metrics consistency."""

from __future__ import annotations

import os

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def gate_output(ray_session, small_corpus, tmp_path_factory):
    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, labels_path = small_corpus
    out_dir = str(tmp_path_factory.mktemp("gate_out"))
    metrics = run_gate(pages_dir, out_dir, n_partitions=3)
    return out_dir, labels_path, metrics


def _join_on_url(out_dir, labels_path):
    import pandas as pd

    got = pq.read_table(os.path.join(out_dir, "docs")).to_pandas()
    labels = pq.read_table(labels_path).to_pandas()
    merged = labels.merge(got, on="url", how="inner", validate="one_to_one")
    assert len(merged) == len(labels)
    return merged


def test_keep_f1(gate_output):
    out_dir, labels_path, _ = gate_output
    m = _join_on_url(out_dir, labels_path)
    tp = ((m["keep"]) & (m["expected_keep"])).sum()
    fp = ((m["keep"]) & (~m["expected_keep"])).sum()
    fn = ((~m["keep"]) & (m["expected_keep"])).sum()
    f1 = 2 * tp / (2 * tp + fp + fn)
    assert f1 >= 0.99, f"keep/drop F1 {f1:.4f} below gate"


def test_scrubbed_text_byte_identical_for_kept(gate_output):
    out_dir, labels_path, _ = gate_output
    m = _join_on_url(out_dir, labels_path)
    kept = m[m["keep"]]
    mismatch = (kept["scrubbed_text"] != kept["expected_scrubbed_text"]).sum()
    assert mismatch == 0


def test_expected_rules_subset_of_fired(gate_output):
    from rsmetacheck_ray.pipelines.quality_gate import decode_rule_bits

    out_dir, labels_path, _ = gate_output
    m = _join_on_url(out_dir, labels_path)
    flags = decode_rule_bits(m["rule_bits"].to_numpy())
    bad = 0
    for i, (_, row) in enumerate(m.iterrows()):
        for code in row["expected_rules"]:
            if not flags[code][i]:
                bad += 1
    assert bad == 0


def test_metrics_consistency(gate_output):
    out_dir, _, metrics = gate_output
    assert metrics["total_documents"] == 2000
    assert metrics["kept"] + metrics["dropped"] == 2000
    assert abs(sum(1 for _ in []) + metrics["keep_rate"] - metrics["kept"] / 2000) < 1e-9
    # per-rule language histograms sum to the rule count
    for code, rec in metrics["rules"].items():
        assert rec["count"] == sum(rec["languages"].values())


def test_partition_lineage_matches_ray_recompute(gate_output, tmp_path):
    """The driver-side threaded lineage tally must agree exactly with
    the distributed compute_metrics recompute over the same partition
    (same rows/kept/dropped and per-(rule, lang) histograms)."""
    import pyarrow as pa

    from rsmetacheck_ray.pipelines.quality_gate import (
        compute_metrics,
        partition_lineage,
    )
    from rsmetacheck_ray.stages.rules import RULE_CODES

    out_dir, _, _ = gate_output
    docs = os.path.join(out_dir, "docs")
    parts = sorted(
        os.path.join(docs, d) for d in os.listdir(docs)
        if d.startswith("partition=")
    )
    assert parts
    for p in parts:
        fast = partition_lineage(p)
        slow = compute_metrics(p, as_record=True)
        assert fast == slow

    # a hand-built partition: a null detected_lang and a literal "None"
    # language tally under the one "None" key on both paths
    hand = tmp_path / "partition=0"
    hand.mkdir()
    pq.write_table(
        pa.table({
            "detected_lang": pa.array([None, "None", "en", None], pa.string()),
            "keep": pa.array([True, False, False, True]),
            "rule_bits": pa.array([0, 1, 3, 1], pa.int64()),
        }),
        str(hand / "part-0.parquet"),
    )
    want = {
        "rows": 4, "kept": 2, "dropped": 2,
        "rule_lang": {RULE_CODES[0]: {"None": 2, "en": 1},
                      RULE_CODES[1]: {"en": 1}},
    }
    assert partition_lineage(str(hand)) == want
    assert compute_metrics(str(hand), as_record=True) == want


def test_dropped_rows_carry_null_text(gate_output):
    out_dir, labels_path, _ = gate_output
    m = _join_on_url(out_dir, labels_path)
    dropped = m[~m["keep"]]
    assert dropped["scrubbed_text"].isna().all()


def test_resume_skips_completed_and_is_identical(ray_session, small_corpus, tmp_path_factory):
    """Kill-after-K-partitions resume (SURVEY §7.2 step 8): interrupt
    after the first partition, resume, and require byte-identical
    final output vs an uninterrupted run."""
    from rsmetacheck_ray.pipelines import quality_gate as qg

    pages_dir, _ = small_corpus
    full_dir = str(tmp_path_factory.mktemp("full"))
    qg.run_gate(pages_dir, full_dir, n_partitions=3)

    resumed_dir = str(tmp_path_factory.mktemp("resumed"))

    # interrupted run: fail the job after the first partition completes
    # (every partition plans its batch size on the driver first)
    calls = {"n": 0}
    orig = qg._sized_cfg

    def exploding_plan(cfg, rows):
        if calls["n"] >= 1:
            raise RuntimeError("simulated mid-run kill")
        calls["n"] += 1
        return orig(cfg, rows)

    qg._sized_cfg = exploding_plan
    try:
        with pytest.raises(RuntimeError):
            qg.run_gate(pages_dir, resumed_dir, n_partitions=3)
    finally:
        qg._sized_cfg = orig

    manifest = os.path.join(resumed_dir, "manifest.jsonl")
    assert os.path.exists(manifest)
    assert len(open(manifest).readlines()) == 1

    # resume: only the remaining partitions run
    qg.run_gate(pages_dir, resumed_dir, n_partitions=3)

    a = pq.read_table(os.path.join(full_dir, "docs")).to_pandas().sort_values("url").reset_index(drop=True)
    b = pq.read_table(os.path.join(resumed_dir, "docs")).to_pandas().sort_values("url").reset_index(drop=True)
    assert a.equals(b)


def test_output_independent_of_block_layout(ray_session, small_corpus):
    """SURVEY §5 item (c): the gate's output must be identical under
    different parallelism/block layouts (here: default blocks vs a
    13-way repartition of the same input)."""
    import pandas as pd
    import ray.data as rd

    from rsmetacheck_ray.pipelines.quality_gate import build_gate

    pages_dir, _ = small_corpus
    a = build_gate(rd.read_parquet(pages_dir)).to_pandas()
    b = build_gate(rd.read_parquet(pages_dir).repartition(13)).to_pandas()
    a = a.sort_values("url").reset_index(drop=True)
    b = b.sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_kept_and_evidence_views(gate_output):
    """kept_view (predicate-pushdown read) and evidence_view (the
    per-(doc, rule) long-format recast of the reference's JSON-LD
    sink) must agree with the decision columns."""
    from rsmetacheck_ray.pipelines.quality_gate import evidence_view, kept_view

    out_dir, labels_path, metrics = gate_output
    docs = os.path.join(out_dir, "docs")
    kept = kept_view(docs).to_pandas()
    assert len(kept) == metrics["kept"]
    assert kept["scrubbed_text"].notna().all()

    ev = evidence_view(docs).to_pandas()
    # per-rule totals match the metrics manifest
    counts = ev.groupby("rule").size().to_dict()
    for code, rec in metrics["rules"].items():
        assert counts.get(code, 0) == rec["count"], code
    assert set(ev["severity"]) <= {"drop", "flag"}
    assert (ev["suggestion"].str.len() > 0).all()
    # rule-specific payloads (the CheckResult analog): evidence carries
    # the OFFENDING VALUE, not the static suggestion, for rules that
    # extract one — e.g. every pii_email row shows an actual address
    # and every too_short row shows the actual token count
    assert (ev["evidence"].str.len() > 0).all()
    pii = ev[ev["rule"] == "pii_email"]
    if len(pii):
        assert pii["evidence"].str.contains("@").all()
        assert (pii["evidence"] != pii["suggestion"]).all()
    short = ev[ev["rule"] == "too_short"]
    if len(short):
        assert short["evidence"].str.match(r"n_tokens=\d+").all()


def test_gate_emits_dedup_keys(gate_output):
    """The gate pass emits a content_hash dedup key per doc (SURVEY
    §2.7): kept duplicate-family docs sharing the same text must share
    the key; distinct clean docs must not collide."""
    out_dir, labels_path, _ = gate_output
    m = _join_on_url(out_dir, labels_path)
    kept = m[m["keep"]]
    dup = kept[kept["family"] == "duplicate"]
    assert len(dup) > 1
    # duplicates are drawn from 10 canonical templates -> few hashes
    assert dup.groupby("expected_scrubbed_text")["content_hash"].nunique().max() == 1
    clean = kept[kept["family"] == "clean"]
    assert clean["content_hash"].nunique() == len(clean)


def test_execution_layouts_equivalent(ray_session, small_corpus):
    """The fused task stage (default) and the fused ActorPoolStrategy
    stage must produce identical rows — layout is an execution choice,
    never a semantics choice."""
    import pandas as pd
    import ray.data as rd

    from rsmetacheck_ray.pipelines.quality_gate import build_gate

    pages_dir, _ = small_corpus

    def run(**kw):
        df = build_gate(rd.read_parquet(pages_dir), **kw).to_pandas()
        return df.sort_values("url").reset_index(drop=True)

    tasks = run()
    actors = run(compute="actors")
    pd.testing.assert_frame_equal(tasks, actors)


def test_resume_rejects_changed_partitioning(ray_session, small_corpus, tmp_path_factory):
    """Resuming with a different n_partitions must fail loudly, not
    silently skip/double-process fragments."""
    from rsmetacheck_ray.pipelines import quality_gate as qg

    pages_dir, _ = small_corpus
    out = str(tmp_path_factory.mktemp("repart"))
    qg.run_gate(pages_dir, out, n_partitions=2)
    with pytest.raises(ValueError, match="different\\s+partitioning"):
        qg.run_gate(pages_dir, out, n_partitions=4)
    # same partitioning still resumes cleanly
    m = qg.run_gate(pages_dir, out, n_partitions=2)
    assert m["total_documents"] == 2000


def test_resume_rejects_changed_hash_regime(ray_session, small_corpus, tmp_path_factory):
    """Partitions persist content_hash columns; resuming under a
    different hash implementation (polars upgrade) must fail loudly —
    a mixed-regime docs dir breaks every downstream dedup groupby."""
    import json

    from rsmetacheck_ray.pipelines import quality_gate as qg

    pages_dir, _ = small_corpus
    out = str(tmp_path_factory.mktemp("hashfp"))
    qg.run_gate(pages_dir, out, n_partitions=2)
    man = os.path.join(out, "manifest.jsonl")
    recs = [json.loads(l) for l in open(man) if l.strip()]
    assert all("hash_fp" in r for r in recs)
    recs[0]["hash_fp"] = "deadbeefdeadbeef"
    with open(man, "w") as fh:
        for r in recs:
            fh.write(json.dumps(r) + "\n")
    with pytest.raises(ValueError, match="hash regime"):
        qg.run_gate(pages_dir, out, n_partitions=2)
    # a legacy manifest WITHOUT the field still resumes (no false stop)
    for r in recs:
        r.pop("hash_fp", None)
    with open(man, "w") as fh:
        for r in recs:
            fh.write(json.dumps(r) + "\n")
    m = qg.run_gate(pages_dir, out, n_partitions=2)
    assert m["total_documents"] == 2000


def test_evidence_view_on_pre_evidence_output(ray_session, tmp_path):
    """Gate outputs written before evidence_json existed stay
    inspectable: evidence_view degrades to suggestion-only."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rsmetacheck_ray.pipelines.quality_gate import evidence_view

    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "url": pa.array(["https://a.example.com/x"]),
                "rule_bits": pa.array([1], pa.int64()),  # bit 0 = empty_text
            }
        ),
        str(d / "part-0.parquet"),
    )
    ev = evidence_view(str(d)).to_pandas()
    assert len(ev) == 1
    assert ev.loc[0, "rule"] == "empty_text"
    assert ev.loc[0, "evidence"] == ev.loc[0, "suggestion"]


def test_corrupt_fragment_skipped_and_recorded(ray_session, small_corpus, tmp_path):
    """A fragment with an unreadable parquet footer must be skipped
    (the reference's skip-on-parse-error input policy), recorded in the
    manifest/metrics, and must not block the run or its resume."""
    import shutil as _sh

    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    pages_dir, _ = small_corpus
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    for f in sorted(os.listdir(pages_dir)):
        if f.endswith(".parquet"):
            _sh.copy(os.path.join(pages_dir, f), mixed / f)
    bad = mixed / "zz-corrupt.parquet"
    bad.write_bytes(b"not a parquet file at all")

    out_dir = tmp_path / "out"
    metrics = run_gate(str(mixed), str(out_dir), n_partitions=2)
    assert metrics["total_documents"] == 2000  # all good docs processed
    assert metrics["skipped_fragments"] == [str(bad)]
    # resume over the same dir is a no-op with identical metrics
    again = run_gate(str(mixed), str(out_dir), n_partitions=2)
    assert again == metrics
