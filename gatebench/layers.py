"""Traced per-layer run.

Spans are recorded from this file around each call into a gate layer
(name, start, end, parent), kept in memory and written out at the end.
A layer's self time is its span time minus the time its child spans
cover. Each ``LAYER_METRICS`` row names the end-to-end metric the layer
should move and the workload it shows on; ``BENCHMARK.json`` lists the
same metrics.

Accounting: ``framework.gap_us_per_doc`` is the untraced e2e per-doc
wall (``e2e.us_per_doc``) minus the in-process layer self times
read + extract + langid + perplexity + rules + evidence + pack + write.
``trace.overhead_us_per_doc`` is the traced in-process pass minus the
same pass untraced.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import statistics
import time
from contextlib import contextmanager

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

REPS = 3

# (metric, unit, better, end-to-end metric it should move, workloads)
LAYER_METRICS = [
    ("read.us_per_doc", "us", "lower", "docs_per_s", "html_gate"),
    ("read.mb_per_s", "MB/s", "higher", "docs_per_s", "html_gate"),
    ("extract.us_per_doc", "us", "lower", "docs_per_s", "html_gate; text_gate is the control"),
    ("extract.html_bytes_per_doc", "B", "lower", "docs_per_s", "html_gate; text_gate is the control"),
    ("langid.us_per_doc", "us", "lower", "docs_per_s, cpu_us_per_doc", "html_gate, text_gate"),
    ("langid.wasted_frac", "ratio", "lower", "docs_per_s, cpu_us_per_doc", "text_gate"),
    ("langid.wasted_docs", "count", "lower", "docs_per_s, cpu_us_per_doc", "text_gate"),
    ("langid.scored_docs", "count", "higher", "docs_per_s", "both"),
    ("perplexity.us_per_doc", "us", "lower", "docs_per_s", "html_gate, text_gate"),
    ("rules.us_per_doc", "us", "lower", "docs_per_s", "text_gate, then html_gate"),
    ("evidence.us_per_doc", "us", "lower", "docs_per_s", "text_gate, then html_gate"),
    ("scrub.us_per_doc", "us", "lower", "docs_per_s", "text_gate, then html_gate"),
    ("rules.hits_per_doc", "hits/doc", "lower", "docs_per_s", "text_gate"),
    ("rules.keep_rate", "ratio", "higher", "out_bytes_per_doc", "both"),
    ("rules.kept_docs", "count", "higher", "out_bytes_per_doc", "both"),
    ("rules.scored_docs", "count", "higher", "docs_per_s", "both"),
    ("pack.us_per_doc", "us", "lower", "docs_per_s", "html_gate"),
    ("write.us_per_doc", "us", "lower", "docs_per_s", "html_gate; small on text_gate"),
    ("write.bytes_per_doc", "B", "lower", "out_bytes_per_doc", "html_gate"),
    ("lineage.ms_per_partition", "ms", "lower", "docs_per_s", "incremental probe, both"),
    ("resume.s", "s", "lower", "docs_per_s", "both"),
    ("framework.identity_us_per_doc", "us", "lower", "docs_per_s", "text_gate, then html_gate"),
    ("framework.gap_us_per_doc", "us", "lower", "docs_per_s", "html_gate, text_gate"),
    ("framework.fixed_s_per_partition", "s", "lower", "docs_per_s, setup_s", "both"),
    ("incremental.probe_s", "s", "lower", "docs_per_s", "incremental probe, both"),
    ("incremental.dup_vs_seen", "count", "lower", "docs_per_s", "incremental probe, both"),
    ("gate_inproc.us_per_doc", "us", "lower", "docs_per_s", "html_gate, text_gate"),
    ("e2e.us_per_doc", "us", "lower", "docs_per_s", "both"),
    ("trace.overhead_us_per_doc", "us", "lower", "none (tracing cost)", "both"),
    ("trace.spans", "count", "lower", "none (tracing cost)", "both"),
]

# in-process layers whose self times plus the framework gap make up
# the e2e per-doc wall
GATE_LAYERS = ["read", "extract", "langid", "perplexity", "rules", "evidence", "pack", "write"]


class Tracer:
    """Spans in memory: [id, name, start, end, parent id]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str, since: int = 0) -> float:
        return sum(s[3] - s[2] for s in self.spans[since:] if s[1] == name)

    def self_times(self, since: int = 0) -> dict:
        """Self time per span name over the spans recorded from ``since`` on."""
        spans = self.spans[since:]
        covered: dict = {}
        for _, _, start, end, parent in spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + end - start
        out: dict = {}
        for sid, name, start, end, _ in spans:
            out[name] = out.get(name, 0.0) + end - start - covered.get(sid, 0.0)
        return out


def _batches(t: pa.Table, size: int):
    for o in range(0, len(t), size):
        yield t.slice(o, size)


def inproc_pass(fragments: list, cfg, out_dir: str, tr: Tracer | None, rotation: int = 0) -> float:
    """read -> GateStage -> write over every fragment, no Ray. Traced,
    the GateStage call is split into its four stage calls, and the rule
    stage is probed again: without evidence, with evidence, whole (with
    packing), and scrub alone. The probes run in an order rotated by
    ``rotation`` + batch number, so no probe always runs first."""
    from rsmetacheck_ray.pipelines.quality_gate import GateStage
    from rsmetacheck_ray.stages.extract import extract_stage
    from rsmetacheck_ray.stages.rules import apply_scrub, rule_stage_fn

    gs = GateStage(cfg, write_dropped_text=False)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    t0 = time.perf_counter()
    for i, f in enumerate(fragments):
        dst = os.path.join(out_dir, f"{i}.parquet")
        if tr is None:
            t = pq.read_table(f)
            pq.write_table(pa.concat_tables([gs(b) for b in _batches(t, cfg.batch_size)]), dst)
            continue
        with tr.span("read"):
            t = pq.read_table(f)
        outs = []
        for j, b in enumerate(_batches(t, cfg.batch_size)):
            with tr.span("gate"):
                with tr.span("extract"):
                    e = extract_stage(b)
                with tr.span("langid"):
                    lg = gs.langid(e)
                with tr.span("perplexity"):
                    p = gs.ppl(lg)
                with tr.span("rulestage"):
                    outs.append(gs.rules(p))
            probes = [
                ("rules", lambda: rule_stage_fn(p, cfg, with_evidence=False)),
                ("rules_evidence", lambda: rule_stage_fn(p, cfg, with_evidence=True)),
                ("rules_packed", lambda: gs.rules(p)),
            ]
            k = (rotation + i + j) % len(probes)
            with tr.span("probe"):
                for name, fn in probes[k:] + probes[:k]:
                    with tr.span(name):
                        fn()
                with tr.span("scrub"):
                    apply_scrub(p.column("extracted_text").combine_chunks())
        with tr.span("write"):
            pq.write_table(pa.concat_tables(outs), dst)
    return time.perf_counter() - t0


def _identity(batch: pa.Table) -> pa.Table:
    return batch


def identity_run(fragments: list, cfg, out_dir: str) -> float:
    """read -> identity map_batches at the gate's batch size -> write,
    the gate's one-operator shape with the gate taken out."""
    import ray.data as rd

    shutil.rmtree(out_dir, ignore_errors=True)
    t = time.perf_counter()
    (rd.read_parquet(fragments)
       .map_batches(_identity, batch_format="pyarrow", batch_size=cfg.batch_size,
                    zero_copy_batch=True)
       .write_parquet(out_dir))
    wall = time.perf_counter() - t
    shutil.rmtree(out_dir, ignore_errors=True)
    return wall


def _lineage(tr: Tracer, out: str) -> list:
    """Time ``partition_lineage`` on every partition written under ``out``."""
    from rsmetacheck_ray.state.manifest import Manifest

    import checks

    problems = []
    for man in sorted(glob.glob(os.path.join(out, "**", "manifest.jsonl"), recursive=True)):
        for pid, rec in Manifest(man).completed().items():
            part = os.path.join(os.path.dirname(man), "docs", f"partition={pid}")
            with tr.span("lineage"):
                problems += checks.lineage_problems(part, rec)
    return problems


def traced_run(gate, session, setup_and_warm) -> dict:
    """Untraced e2e ops on a warm session, then the traced layer probes.
    Returns the per-layer metrics and the self-time/accounting table."""
    from rsmetacheck_ray.pipelines.quality_gate import run_gate, run_gate_incremental

    import checks

    ins, cfg = gate.ins, gate.cfg
    docs, frags = ins.docs, ins.fragments
    work = os.path.dirname(gate.out_dir())
    tr = Tracer()
    m: dict = {}

    with tr.span("setup"):
        setup_and_warm(session, gate)

    # untraced e2e ops; the last output stays for the lineage and resume probes
    with tr.span("e2e"):
        recs = [gate.op(keep_output=k == REPS - 1) for k in range(REPS)]
    m["e2e.us_per_doc"] = 1e6 * statistics.median(r["wall"] for r in recs if r["wall"]) / docs
    out = recs[-1]["out"]

    # decision counts of the written output, each with its base
    written = checks.read_written(out, ["keep", "rule_bits"])
    bits = written.column("rule_bits").to_numpy(zero_copy_only=False)
    keep = written.column("keep").to_numpy(zero_copy_only=False).astype(bool)
    n = len(keep)
    wasted = int(checks.shape_drop_mask(bits).sum())
    m.update({
        "langid.scored_docs": n, "langid.wasted_docs": wasted, "langid.wasted_frac": wasted / n,
        "rules.scored_docs": n, "rules.kept_docs": int(keep.sum()),
        "rules.keep_rate": float(keep.mean()),
        "rules.hits_per_doc": sum(int(b).bit_count() for b in bits) / n,
    })

    # resume: the same call again over the completed output directory
    problems = _lineage(tr, out)
    with open(os.path.join(out, "metrics.json")) as fh:
        before = json.load(fh)
    with tr.span("resume"):
        run_gate(frags, out, cfg, n_partitions=1)
    with open(os.path.join(out, "metrics.json")) as fh:
        if json.load(fh) != before:
            problems.append("resume changed metrics.json")
    gate.count(problems, "resume")
    shutil.rmtree(out, ignore_errors=True)

    # seen-hash store: two run_gate_incremental epochs of two partitions;
    # probe = epoch-2 wall minus run_gate over the same new fragments
    inc_dir = os.path.join(work, f"{gate.w.name}-incremental")
    half = len(frags) // 2
    epochs = [frags[:half], frags[half:]]
    epoch2, plain = [], []
    for _ in range(REPS):
        shutil.rmtree(inc_dir, ignore_errors=True)
        run_gate_incremental(epochs[0], inc_dir, cfg, n_partitions=2)
        with tr.span("incremental"):
            inc = run_gate_incremental(frags, inc_dir, cfg, n_partitions=2)
        dup = inc["incremental"]["dup_vs_seen"]
        epoch2.append(tr.spans[-1][3] - tr.spans[-1][2])
        gate.count(checks.check_incremental(inc_dir, epochs, gate.ref, ins.labels)
                   + _lineage(tr, inc_dir), "incremental epochs")
        shutil.rmtree(inc_dir, ignore_errors=True)
        t = time.perf_counter()
        run_gate(epochs[1], inc_dir, cfg, n_partitions=2)
        plain.append(time.perf_counter() - t)
    shutil.rmtree(inc_dir, ignore_errors=True)
    m["incremental.probe_s"] = statistics.median(epoch2) - statistics.median(plain)
    m["incremental.dup_vs_seen"] = dup
    m["lineage.ms_per_partition"] = 1e3 * statistics.median(
        s[3] - s[2] for s in tr.spans if s[1] == "lineage")
    m["resume.s"] = tr.total("resume")

    # in-process layers: REPS untraced and traced passes, alternating
    pass_dir = os.path.join(work, f"{gate.w.name}-inproc")
    traced, untraced = [], []
    inproc_pass(frags, cfg, pass_dir, None)  # warm the scorers
    since = len(tr.spans)
    for rep in range(REPS):
        untraced.append(inproc_pass(frags, cfg, pass_dir, None))
        mark = len(tr.spans)
        with tr.span("inproc"):
            inproc_pass(frags, cfg, pass_dir, tr, rotation=rep)
        traced.append(sum(tr.total(k, mark) for k in ("read", "gate", "write")))
    written_bytes = checks.dir_bytes(pass_dir)
    shutil.rmtree(pass_dir, ignore_errors=True)
    # mean over the passes: each probe order occurs equally often
    per_doc = {k: 1e6 * v / (REPS * docs) for k, v in tr.self_times(since).items()}
    per_doc["evidence"] = per_doc["rules_evidence"] - per_doc["rules"]
    per_doc["pack"] = per_doc["rules_packed"] - per_doc["rules_evidence"]
    for k in GATE_LAYERS + ["scrub"]:
        m[f"{k}.us_per_doc"] = per_doc[k]
    m["read.mb_per_s"] = sum(os.path.getsize(f) for f in frags) / (per_doc["read"] * docs)
    m["write.bytes_per_doc"] = written_bytes / docs
    m["extract.html_bytes_per_doc"] = sum(
        pc.sum(pc.binary_length(pq.read_table(f, columns=["html"]).column("html"))).as_py() or 0
        for f in frags) / docs
    m["gate_inproc.us_per_doc"] = 1e6 * statistics.median(untraced) / docs
    m["trace.overhead_us_per_doc"] = 1e6 * (
        statistics.median(traced) - statistics.median(untraced)) / docs
    m["framework.gap_us_per_doc"] = m["e2e.us_per_doc"] - sum(per_doc[k] for k in GATE_LAYERS)

    # Ray Data framework: the identity pipeline at two sizes -> fixed + per doc
    id_dir = os.path.join(work, f"{gate.w.name}-identity")
    with tr.span("framework"):
        full = statistics.median(identity_run(frags, cfg, id_dir) for _ in range(REPS))
        one = statistics.median(identity_run(frags[:1], cfg, id_dir) for _ in range(REPS))
    n_one = pq.ParquetFile(frags[0]).metadata.num_rows
    slope = (full - one) / (docs - n_one)
    m["framework.identity_us_per_doc"] = 1e6 * slope
    m["framework.fixed_s_per_partition"] = one - slope * n_one
    m["trace.spans"] = len(tr.spans)

    results = os.path.join(os.path.dirname(work), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"spans-{gate.w.name}.json"), "w") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent"], "spans": tr.spans}, fh)
    units = {name: unit for name, unit, *_ in LAYER_METRICS}
    for name, unit, _, moves, workloads in LAYER_METRICS:
        print(f"{name:32} {m[name]:>12.4f} {unit:9} moves {moves} on {workloads}")
    table = {
        "self_s": tr.self_times(),
        "accounting_us_per_doc": {
            **{k: per_doc[k] for k in GATE_LAYERS},
            "framework.gap": m["framework.gap_us_per_doc"],
            "e2e_untraced": m["e2e.us_per_doc"],
        },
        "layer_map": [dict(zip(("metric", "unit", "better", "moves", "workloads"), r))
                      for r in LAYER_METRICS],
    }
    return {"metrics": {k: (float(m[k]), units[k]) for k in units}, "dist": table}
