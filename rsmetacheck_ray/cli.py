"""CLI driver — the analog of the reference's argument router
(``cli.py:8-74``: input selection, output paths, threshold knobs),
recast as a Ray Data job entry point.

Usage::

    python -m rsmetacheck_ray.cli gate --input <pages_parquet_dir> \
        --out <out_dir> [--partitions N] [--num-cpus N] [--fresh]
    python -m rsmetacheck_ray.cli metrics --out <out_dir>
    python -m rsmetacheck_ray.cli evidence --out <out_dir> [--dest <parquet_dir>]
    python -m rsmetacheck_ray.cli kept --out <out_dir> --dest <parquet_dir>
    python -m rsmetacheck_ray.cli dedup --out <out_dir> --dest <parquet_dir>
    python -m rsmetacheck_ray.cli query <name> --sf-dir <tables_dir> \
        [--dest <parquet>]        # any registry operator; --list for names

On a real cluster the same module runs unchanged via
``ray job submit -- python -m rsmetacheck_ray.cli gate ...`` — the
driver only builds Dataset pipelines; Ray places the work.
"""

from __future__ import annotations

import argparse
import json
import sys


def _docs_path(out_dir: str):
    """The run's docs root(s): the per-epoch list for an incremental
    layout, the single docs dir otherwise — every view subcommand
    accepts either shape (read_parquet takes a path list)."""
    import os

    from .pipelines.quality_gate import incremental_docs_dirs

    if os.path.isdir(os.path.join(out_dir, "epochs")):
        import glob

        files = [
            f
            for d in incremental_docs_dirs(out_dir)
            for f in sorted(
                glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True)
            )
        ]
        if files:
            return files
    return os.path.join(out_dir, "docs")


def _write_view(ds, dest: str) -> int:
    """Write a view Dataset to ``dest`` as the gate writes its files
    and return the rows written, from the footers of the files this
    write added (counting the Dataset would run the view again)."""
    import os

    from .pipelines.quality_gate import PARQUET_WRITE_OPTIONS, parquet_rows

    before = os.listdir(dest) if os.path.isdir(dest) else []
    ds.write_parquet(dest, **PARQUET_WRITE_OPTIONS)
    return parquet_rows(dest, exclude=before)


def _write_json_view(ds, dest: str) -> tuple[int, int]:
    """Write a view Dataset to ``dest`` as JSON lines and return (rows,
    files) of the files this write added: one row per line, so the
    rows are counted from the lines, not by running the view again."""
    import os

    before = set(os.listdir(dest)) if os.path.isdir(dest) else set()
    ds.write_json(dest)
    added = [f for f in os.listdir(dest) if f.endswith(".json") and f not in before]
    rows = 0
    for f in added:
        with open(os.path.join(dest, f), "rb") as fh:
            rows += sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return rows, len(added)


def build_parser() -> argparse.ArgumentParser:
    from .pipelines.quality_gate import INPUT_FORMATS

    ap = argparse.ArgumentParser(prog="rsmetacheck-ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gate", help="run the quality gate over pages parquet")
    g.add_argument("--input", required=True, help="pages parquet file/dir")
    g.add_argument("--out", required=True, help="output run directory")
    g.add_argument("--partitions", type=int, default=None,
                   help="resume-partition count (default: byte-sized auto)")
    g.add_argument("--num-cpus", type=int, default=None)
    g.add_argument("--fresh", action="store_true",
                   help="ignore an existing resume manifest")
    g.add_argument("--write-dropped-text", action="store_true")
    g.add_argument("--input-format",
                   choices=INPUT_FORMATS,
                   default="parquet",
                   help="pages input format (jsonl/csv/tar: ISO warc_ts, base64 html)")
    g.add_argument("--incremental", action="store_true",
                   help="epoch-append mode: gate only fragments no prior "
                   "epoch processed, probe new content hashes against the "
                   "persisted seen-hash store, update metrics by delta")

    m = sub.add_parser("metrics", help="recompute metrics from a run dir")
    m.add_argument("--out", required=True)

    e = sub.add_parser(
        "evidence",
        help="per-(doc, fired-rule) evidence rows from a run dir "
        "(the JSON-LD assessment analog)",
    )
    e.add_argument("--out", required=True)
    e.add_argument("--dest", default=None,
                   help="write parquet here instead of printing a sample")

    k = sub.add_parser("kept", help="export the kept-documents view")
    k.add_argument("--out", required=True)
    k.add_argument("--dest", required=True)

    d = sub.add_parser(
        "dedup",
        help="exact-dedup the KEPT output on its content_hash column "
        "(one row per distinct scrubbed text, canonical = min url)",
    )
    d.add_argument("--out", required=True)
    d.add_argument("--dest", required=True)

    x = sub.add_parser(
        "export",
        help="stream a run's per-document decisions to JSONL files — "
        "the reference's per-doc JSON-LD writer analog "
        "(json_ld_utils.py:496-514) as a distributed partitioned sink",
    )
    x.add_argument("--out", required=True)
    x.add_argument("--dest", required=True, help="JSONL output directory")
    x.add_argument("--view", choices=("docs", "kept", "evidence"),
                   default="docs")

    q = sub.add_parser(
        "query",
        help="run a registry operator over an sf-style table directory "
        "(use `query --list` for names)",
    )
    q.add_argument("name", nargs="?", help="registry query name")
    q.add_argument("--sf-dir", default=None,
                   help="directory with the parquet tables")
    q.add_argument("--dest", default=None,
                   help="write result parquet here instead of a sample")
    q.add_argument("--list", action="store_true", dest="list_queries",
                   help="print available query names and exit")
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)

    if args.cmd == "query" and args.list_queries:
        from .pipelines.queries import registry

        for name in sorted(registry()):
            print(name)
        return 0
    if args.cmd == "query" and (not args.name or not args.sf_dir):
        ap.error("query requires NAME and --sf-dir (or --list)")
    if args.cmd == "query":
        # validate the name BEFORE paying Ray startup
        from .pipelines.queries import registry

        _reg = registry()
        if args.name not in _reg:
            print(
                json.dumps({"error": f"unknown query {args.name!r}"}),
                file=sys.stderr,
            )
            return 2

    import ray

    started_here = not ray.is_initialized()
    if started_here:
        kw = {"address": "local", "include_dashboard": False}
        if args.cmd == "gate" and args.num_cpus:
            kw["num_cpus"] = args.num_cpus
        ray.init(**kw)

    if args.cmd == "gate":
        import os
        import shutil

        if args.fresh and os.path.exists(args.out):
            shutil.rmtree(args.out)
        if args.incremental:
            from .pipelines.quality_gate import run_gate_incremental

            metrics = run_gate_incremental(
                args.input, args.out, n_partitions=args.partitions,
                input_format=args.input_format,
            )
        else:
            from .pipelines.quality_gate import run_gate

            metrics = run_gate(args.input, args.out,
                               n_partitions=args.partitions,
                               input_format=args.input_format)
        print(json.dumps(metrics, indent=2, sort_keys=True))
    elif args.cmd == "metrics":
        import os

        from .pipelines.quality_gate import (
            compute_metrics, incremental_docs_dirs, metrics_from_records,
        )

        if os.path.isdir(os.path.join(args.out, "epochs")):
            # incremental layout: merge the per-epoch recomputes
            records = [
                compute_metrics(d, as_record=True)
                for d in incremental_docs_dirs(args.out)
            ]
            metrics = metrics_from_records(records)
        else:
            metrics = compute_metrics(os.path.join(args.out, "docs"))
        print(json.dumps(metrics, indent=2, sort_keys=True))
    elif args.cmd == "evidence":
        import os

        from .pipelines.quality_gate import evidence_view

        ev = evidence_view(_docs_path(args.out))
        if args.dest:
            print(json.dumps({"rows": _write_view(ev, args.dest),
                              "dest": args.dest}))
        else:
            for row in ev.take(20):
                print(json.dumps(row, sort_keys=True))
    elif args.cmd == "kept":
        import os

        from .pipelines.quality_gate import kept_view

        kv = kept_view(_docs_path(args.out))
        print(json.dumps({"rows": _write_view(kv, args.dest),
                          "dest": args.dest}))
    elif args.cmd == "export":
        import ray.data as rd

        from .pipelines.quality_gate import evidence_view, kept_view

        docs_dir = _docs_path(args.out)
        if args.view == "kept":
            ds = kept_view(docs_dir)
        elif args.view == "evidence":
            ds = evidence_view(docs_dir)
        else:
            ds = rd.read_parquet(docs_dir)
        # streaming partitioned JSONL write: one file per block, no
        # driver materialization — a failed export can re-run per file
        rows, n_files = _write_json_view(ds, args.dest)
        print(json.dumps({"rows": rows, "files": n_files,
                          "dest": args.dest, "view": args.view}))
    elif args.cmd == "dedup":
        import ray.data as rd
        from ray.data.aggregate import Count, Min

        docs = rd.read_parquet(
            _docs_path(args.out),
            columns=["url", "content_hash", "content_hash2", "keep"],
            filter=(_pc().field("keep") == True),  # noqa: E712
        )
        # dedup on the 128-bit content hash the gate already emitted:
        # no text re-read, no re-hash — only (url, hash128) rows shuffle
        agg = docs.groupby(["content_hash", "content_hash2"]).aggregate(
            Min("url", alias_name="url"), Count(alias_name="dup_count")
        )
        agg = agg.select_columns(["url", "dup_count"])
        print(json.dumps({"rows": _write_view(agg, args.dest),
                          "dest": args.dest}))
    elif args.cmd == "query":
        import pyarrow as pa
        import pyarrow.parquet as pq

        res = _reg[args.name][0](args.sf_dir)
        is_dataset = hasattr(res, "write_parquet")
        if args.dest:
            if is_dataset:
                from .pipelines.quality_gate import parquet_rows

                res.write_parquet(args.dest)
                # row count from the written footers — a Dataset is
                # lazy, so res.count() would re-run the whole pipeline
                n = parquet_rows(args.dest)
            else:  # pandas / pyarrow result
                t = res if isinstance(res, pa.Table) else pa.Table.from_pandas(res)
                pq.write_table(t, args.dest)
                n = t.num_rows
            print(json.dumps({"rows": n, "dest": args.dest}))
        else:
            if is_dataset:
                rows = res.take(10)
            elif isinstance(res, pa.Table):
                rows = res.slice(0, 10).to_pylist()
            else:  # pandas
                rows = res.head(10).to_dict("records")
            for row in rows:
                print(json.dumps(row, sort_keys=True, default=str))

    # only tear down a Ray session this invocation created — an
    # embedding caller (tests, a driving script) owns its own session
    if started_here:
        ray.shutdown()
    return 0


def _pc():
    import pyarrow.compute as pc

    return pc


if __name__ == "__main__":
    sys.exit(main())
