"""Hash every column the gate writes, to check that a change keeps the
gate's output identical.

Builds the gatebench inputs of a workload for each seed (the same cached
files ``gatebench/run.py`` reads), runs the in-process ``GateStage`` over
them batch by batch, and prints one sha256 per written column plus the
per-rule hit counts. Run it on two checkouts and diff the output:

    python tools/gate_hash.py --workload html_gate --seeds 1 2 3 4
    python tools/gate_hash.py --workload text_gate --seeds 1 2 3 4

``--write-dropped-text`` hashes the other output layout, in which dropped
rows keep their scrubbed text (and its content hash) instead of null.

``--run-gate`` hashes a real ``run_gate`` output instead: it starts a
local Ray cluster, gates each seed's fragments in one partition, and
hashes every written column with the rows sorted by (url, content_hash)
and then by the remaining columns, so a change to the Ray path (read,
task layout, write) can be diffed the same way. It also gates each
seed's pages rewritten as one parquet row group, larger than a batch,
so that a reader task yields them to the gate tasks, and prints those
hashes on ``reader`` lines beside the fused ones; the two must match:

    python tools/gate_hash.py --workload html_gate --seeds 1 2 3 4 --run-gate

Column hashes are taken over each value's exact Python repr (floats
round-trip bit for bit), so two runs hash equal only if every value is
identical. The first line names the pyarrow (RE2) and polars (Rust
regex) versions the gate's scans ran on: two hash files from different
engine versions are not expected to diff clean. Polars runs extract's
tag passes, langid's marker counts and the rule context's query, which
holds the scrub, text, URL and lang-field predicates and extracts the
metadata declaration lines. The metadata-line predicates themselves run
on RE2 over those lines, so their hit columns follow the pyarrow
version, not the polars one.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)


def gate_output(fragments: list, cfg, write_dropped_text: bool = False):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rsmetacheck_ray.pipelines.quality_gate import GateStage

    gs = GateStage(cfg, write_dropped_text=write_dropped_text)
    outs = []
    for f in fragments:
        t = pq.read_table(f)
        outs += [gs(t.slice(o, cfg.batch_size))
                 for o in range(0, len(t), cfg.batch_size)]
    return pa.concat_tables(outs)


def run_gate_output(fragments: list, cfg, out_dir: str):
    """Every row ``run_gate`` writes for ``fragments`` (one partition),
    in a total order: (url, content_hash), then the other columns."""
    import pyarrow.parquet as pq

    from rsmetacheck_ray.pipelines.quality_gate import run_gate

    run_gate(fragments, out_dir, cfg, n_partitions=1)
    out = pq.read_table(os.path.join(out_dir, "docs", "partition=0"))
    keys = ["url", "content_hash"]
    keys += [c for c in out.column_names if c not in keys]
    return out.sort_by([(k, "ascending") for k in keys])


def one_row_group(fragments: list, path: str) -> str:
    """``fragments``' pages rewritten as one parquet file of one row
    group, the shape ``run_gate`` reads with a reader task."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pages = pa.concat_tables([pq.read_table(f) for f in fragments])
    pq.write_table(pages, path, row_group_size=len(pages))
    return path


def column_hashes(out) -> dict:
    return {
        name: hashlib.sha256(repr(out.column(name).to_pylist()).encode()).hexdigest()
        for name in out.column_names
    }


def rule_counts(out) -> dict:
    from rsmetacheck_ray.pipelines.quality_gate import decode_rule_bits

    flags = decode_rule_bits(out.column("rule_bits").to_numpy())
    return {code: int(hit.sum()) for code, hit in flags.items()}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("html_gate", "text_gate"), required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4])
    ap.add_argument("--write-dropped-text", action="store_true",
                    help="keep the scrubbed text of dropped rows")
    ap.add_argument("--run-gate", action="store_true",
                    help="hash a run_gate output (starts a local Ray cluster)")
    args = ap.parse_args(argv)

    from gatebench import inputs
    from rsmetacheck_ray.config import DEFAULT_CONFIG as cfg

    if args.run_gate:
        if args.write_dropped_text:
            ap.error("--run-gate writes the default layout only")
        import tempfile

        import ray

        os.environ["PYTHONPATH"] = os.pathsep.join(
            [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        ray.init(address="local", num_cpus=2, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False)
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
    import polars
    import pyarrow

    print(f"# engines: pyarrow {pyarrow.__version__}, polars {polars.__version__}")
    w = inputs.WORKLOADS[args.workload]
    for seed in args.seeds:
        ins = inputs.prepare(w, seed, os.path.join(ROOT, ".gatebench", "cache"))
        reader_out = None
        if args.run_gate:
            with tempfile.TemporaryDirectory() as tmp:
                out = run_gate_output(ins.fragments, cfg, os.path.join(tmp, "out"))
                whole = one_row_group(ins.fragments, os.path.join(tmp, "pages.parquet"))
                reader_out = run_gate_output([whole], cfg, os.path.join(tmp, "reader"))
        else:
            out = gate_output(ins.fragments, cfg, args.write_dropped_text)
        print(f"# {args.workload} seed {seed}: {len(out)} rows, "
              f"kept {out.column('keep').to_numpy().sum()}")
        for name, digest in column_hashes(out).items():
            print(f"{args.workload} s{seed} column {name} {digest}")
        for code, count in rule_counts(out).items():
            print(f"{args.workload} s{seed} rule {code} {count}")
        if reader_out is not None:
            for name, digest in column_hashes(reader_out).items():
                print(f"{args.workload} s{seed} reader column {name} {digest}")


if __name__ == "__main__":
    main()
