"""Correctness checks for one gate op.

The reference is the in-process ``GateStage`` (no Ray) over the same
input fragments. A Ray op is correct when its written decision columns,
sorted by url, hash equal to the reference's; when ``metrics.json``
agrees with the written rows; and, on datagen inputs, when the keep
decisions score F1 >= 0.99 against the generator's labels.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

DECISION_COLS = ["url", "keep", "rule_bits", "detected_lang", "content_hash"]
HASH_COLS = ["content_hash", "content_hash2"]
MIN_F1 = 0.99


def decision_digest(t: pa.Table) -> str:
    t = t.select(DECISION_COLS).sort_by([("url", "ascending"), ("content_hash", "ascending")])
    h = hashlib.sha256()
    for c in DECISION_COLS:
        h.update(repr(t.column(c).to_pylist()).encode())
    return h.hexdigest()


def _hash_set(t: pa.Table) -> set:
    return set(zip(*(t.column(c).to_pylist() for c in HASH_COLS)))


class Reference:
    """In-process gate output per input fragment."""

    def __init__(self, fragments: list, cfg):
        from rsmetacheck_ray.pipelines.quality_gate import GateStage

        threads = pa.cpu_count()  # GateStage pins pyarrow to one thread
        try:
            stage = GateStage(cfg, write_dropped_text=False)
            self.by_frag = {}
            for f in fragments:
                t = pq.read_table(f)
                out = [stage(t.slice(o, cfg.batch_size))
                       for o in range(0, len(t), cfg.batch_size)]
                self.by_frag[f] = pa.concat_tables(out).select(DECISION_COLS + HASH_COLS[1:])
        finally:
            pa.set_cpu_count(threads)

    def table(self, frags: list) -> pa.Table:
        return pa.concat_tables([self.by_frag[f] for f in frags])

    def dup_vs_seen(self, seen: list, new: list) -> int:
        """Distinct content hashes of ``new`` already present in ``seen``."""
        return len(_hash_set(self.table(new)) & _hash_set(self.table(seen)))


def read_written(out_dir: str, columns=None) -> pa.Table:
    """Every gated row written under ``out_dir``, all epochs included."""
    files = sorted(glob.glob(os.path.join(out_dir, "**", "partition=*", "*.parquet"),
                             recursive=True))
    return pa.concat_tables([pq.read_table(f, columns=columns) for f in files])


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def keep_f1(written: pa.Table, labels_path: str) -> float:
    lab = pq.read_table(labels_path)
    j = written.select(["url", "keep"]).join(lab, "url", join_type="inner")
    keep = j.column("keep").to_numpy(zero_copy_only=False).astype(bool)
    exp = j.column("expected_keep").to_numpy(zero_copy_only=False).astype(bool)
    tp = int((keep & exp).sum())
    wrong = int((keep != exp).sum())
    return 2 * tp / (2 * tp + wrong) if tp or wrong else 1.0


def check_run_dir(run_dir: str, frags: list, ref: Reference, labels: str | None) -> list:
    """Problems found in one ``run_gate`` output directory."""
    problems = []
    written = read_written(run_dir, DECISION_COLS)
    expect = ref.table(frags)
    if decision_digest(written) != decision_digest(expect):
        problems.append("decision columns differ from the in-process GateStage")
    with open(os.path.join(run_dir, "metrics.json")) as fh:
        m = json.load(fh)
    kept = int(pc.sum(written.column("keep")).as_py() or 0)
    if m["kept"] != kept:
        problems.append(f"metrics.json kept={m['kept']} but {kept} rows written with keep")
    if m["total_documents"] != len(expect) or len(written) != len(expect):
        problems.append(f"{m['total_documents']} documents in metrics, {len(written)} "
                        f"written, {len(expect)} in the input")
    if labels is not None:
        f1 = keep_f1(written, labels)
        if f1 < MIN_F1:
            problems.append(f"keep F1 {f1:.4f} < {MIN_F1}")
    return problems


def check_incremental(out_dir: str, epochs: list, ref: Reference, labels: str | None) -> list:
    """Problems found in a ``run_gate_incremental`` output directory;
    ``epochs`` lists the new fragments of each epoch in order."""
    with open(os.path.join(out_dir, "metrics.json")) as fh:
        m = json.load(fh)
    problems = []
    for k, frags in enumerate(epochs):
        run_dir = os.path.join(out_dir, "epochs", f"epoch-{k:04d}")
        problems += [f"epoch {k}: {p}" for p in check_run_dir(run_dir, frags, ref, labels)]
    seen = [f for e in epochs[:-1] for f in e]
    want = {"epoch": len(epochs) - 1, "new_documents": len(ref.table(epochs[-1])),
            "dup_vs_seen": ref.dup_vs_seen(seen, epochs[-1])}
    inc = m.get("incremental", {})
    problems += [f"metrics incremental.{k}={inc.get(k)}, expected {v}"
                 for k, v in want.items() if inc.get(k) != v]
    total = sum(len(ref.table(e)) for e in epochs)
    if m["total_documents"] != total:
        problems.append(f"merged total_documents={m['total_documents']}, expected {total}")
    return problems


def corrupt(run_dir: str) -> None:
    """Flip the keep flag of one written row (smoke mode's fault)."""
    f = sorted(glob.glob(os.path.join(run_dir, "**", "partition=*", "*.parquet"),
                         recursive=True))[0]
    t = pq.read_table(f)
    keep = t.column("keep").to_numpy(zero_copy_only=False).copy()
    keep[0] = not keep[0]
    i = t.column_names.index("keep")
    pq.write_table(t.set_column(i, "keep", pa.array(keep)), f)


def lineage_problems(part_dir: str, record: dict) -> list:
    """``partition_lineage`` recomputed over a written partition must
    equal the manifest record written at run time."""
    from rsmetacheck_ray.pipelines.quality_gate import partition_lineage

    got = partition_lineage(part_dir)
    return [f"lineage {k} {got[k]} != manifest {record.get(k)} in {part_dir}"
            for k in ("rows", "kept", "dropped", "rule_lang") if got[k] != record.get(k)]


def shape_drop_mask(rule_bits) -> np.ndarray:
    """Rows dropped by a rule that reads neither langid nor perplexity
    output, i.e. docs whose langid scoring was wasted."""
    from rsmetacheck_ray.stages.rules import DROP_CODES, RULE_CODES

    score_rules = {"stopword_ratio_low", "lang_mismatch", "perplexity_high"}
    mask = 0
    for k, code in enumerate(RULE_CODES):
        if code in DROP_CODES and code not in score_rules:
            mask |= 1 << k
    return (np.asarray(rule_bits, dtype=np.int64) & np.int64(mask)) != 0
