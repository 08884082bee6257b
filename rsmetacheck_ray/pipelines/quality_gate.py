"""The flagship pipeline — the Ray-Data recast of the reference's
``detect_all_pitfalls`` lifecycle (``detect_pitfalls_main.py:313-409``,
see SURVEY §3 "New-engine lifecycle"):

    read_parquet → [extract → langid → perplexity → rule catalog +
    scrub, FUSED into one map_batches operator] → partitioned parquet
    + lineage + metrics manifest.

The scoring chain defaults to a fused TASK stage (scorer state cached
once per worker process; read → gate → write fuse into a single
operator with no intermediate object-store hops); an ActorPoolStrategy
layout for the same stage — or one pool per scorer — is selected with
``build_gate(compute="actors")`` / ``fused=False`` for heavy models.

Scale design:
 - zero-copy Arrow batches end-to-end (``batch_format="pyarrow"``);
 - the binary ``html`` payload never travels past the extract step
   (and is projected away inside the fused stage);
 - scorer state (LM tables, compiled patterns) loaded once per
   worker/actor;
 - NO full materialization anywhere: each partition streams from read
   to write with backpressure;
 - resume-by-partition: the input fragment list is split into K
   partitions, each written atomically to its own directory and
   recorded in a JSONL manifest (``state/manifest.py``); a re-run
   skips completed partitions on the driver, before any Dataset exists;
 - ONE streaming pass per partition: every row (kept and dropped) is
   written with its tiny decision columns; dropped rows carry NULL
   text so the write volume is dominated by kept text. The kept
   dataset is the predicate view ``keep == true``; lineage/metrics
   aggregate the pruned decision columns (never the text).
"""

from __future__ import annotations

import json
import os
from typing import Iterable

import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from ..config import DEFAULT_CONFIG, GateConfig
from ..stages.extract import extract_stage
from ..stages.langid import LangIdScorer
from ..stages.perplexity import PerplexityScorer
from ..stages.rules import CATALOG, RULE_CODES, rule_stage_fn
from ..state.manifest import Manifest

# columns carried into the gated output (decision columns are tiny;
# scrubbed_text dominates and is nulled for dropped rows)
_DECISION_COLS = ["url", "warc_ts", "lang", "detected_lang", "langid_conf",
                  "bits_per_char", "n_tokens", "n_chars", "keep",
                  "rule_errors", "evidence_json"]


class _RuleStage:
    """Pickle-friendly wrapper binding the frozen config to the fused
    rule stage (a plain function → stateless Ray tasks).

    The 21 per-rule hit flags are packed into ONE ``rule_bits`` int64
    column (bit k = CATALOG[k] fired) for the written output — 21 bool
    columns × thousands of output files made the write stage the
    pipeline bottleneck (measured ~46 of 80 CPU-s at 1M docs).
    ``expose_flags=True`` additionally keeps the unpacked ``hit_*``
    bool columns for in-memory consumers (the oracle queries)."""

    def __init__(self, cfg: GateConfig, write_dropped_text: bool,
                 expose_flags: bool = False):
        self.cfg = cfg
        self.write_dropped_text = write_dropped_text
        self.expose_flags = expose_flags

    def __call__(self, batch: pa.Table) -> pa.Table:
        # runs in a 1-CPU Ray task worker — keep pyarrow kernels
        # single-threaded there (see LangIdScorer.__init__)
        pa.set_cpu_count(1)
        import numpy as np

        out = rule_stage_fn(batch, self.cfg, with_evidence=True)
        keep = out.column("keep")
        scrubbed = out.column("scrubbed_text")
        if not self.write_dropped_text:
            scrubbed = pc.if_else(keep, scrubbed, pa.scalar(None, pa.string()))
        bits = np.zeros(len(out), dtype=np.int64)
        for k, code in enumerate(RULE_CODES):
            hit = out.column(f"hit_{code}").to_numpy(zero_copy_only=False)
            bits |= hit.astype(np.int64) << k
        cols = list(_DECISION_COLS)
        if self.expose_flags:
            cols += [f"hit_{c}" for c in RULE_CODES]
        if "doc_id" in out.column_names:  # carried key for oracle joins
            cols = ["doc_id"] + cols
        result = out.select(cols)
        result = result.append_column("rule_bits", pa.array(bits, pa.int64()))
        # dedup key emitted inside the gate pass (SURVEY §2.7): exact
        # dedup downstream is a groupby of the two 128-bit-hash halves
        # (64 bits birthday-collides at 10⁹-10¹² docs) — the text never
        # needs re-reading or re-hashing
        from ..functions.hashing import hash_str_arrow_u128

        ch_lo, ch_hi = hash_str_arrow_u128(scrubbed)
        result = result.append_column(
            "content_hash", pa.array(ch_lo.astype(np.int64), pa.int64())
        )
        result = result.append_column(
            "content_hash2", pa.array(ch_hi.astype(np.int64), pa.int64())
        )
        return result.append_column("scrubbed_text", scrubbed)


def decode_rule_bits(bits) -> dict[str, "np.ndarray"]:
    """rule_bits column/ndarray → {code: bool ndarray} (catalog order)."""
    import numpy as np

    arr = np.asarray(bits, dtype=np.int64)
    return {
        code: ((arr >> k) & 1).astype(bool) for k, code in enumerate(RULE_CODES)
    }


class GateStage:
    """The fused scoring actor: extract → langid → perplexity → rule
    catalog in ONE actor-pool ``map_batches`` stage. Models/patterns
    are loaded once per actor in ``__init__`` (the ActorPoolStrategy
    contract, SURVEY §2.4); fusing the four stages removes two full
    passes of the intermediate table through the object store —
    measured as the dominant cost at 4M docs, where each operator
    boundary shipped ~1.5 KB/row."""

    def __init__(self, cfg: GateConfig, write_dropped_text: bool,
                 expose_flags: bool = False):
        pa.set_cpu_count(1)
        self.langid = LangIdScorer(cfg)
        self.ppl = PerplexityScorer(cfg)
        self.rules = _RuleStage(cfg, write_dropped_text, expose_flags)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.rules(self.ppl(self.langid(extract_stage(batch))))


# per-worker-process cache for the fused task stage: a Ray TASK worker
# is REUSED across tasks, partitions and even Dataset executions, so
# the scorer state (LM tables, compiled patterns) is built once per
# worker process — the same "loaded once" guarantee as an actor pool,
# WITHOUT the per-execution pool spin-up (measured ~7 s × N-partitions
# of pure startup in the sequential resume loop at 16M docs).
_GATE_CACHE: dict = {}


def _gate_task_fn(batch: pa.Table, cfg: GateConfig, write_dropped_text: bool,
                  expose_flags: bool) -> pa.Table:
    key = (cfg, write_dropped_text, expose_flags)
    stage = _GATE_CACHE.get(key)
    if stage is None:
        stage = GateStage(cfg, write_dropped_text, expose_flags)
        _GATE_CACHE[key] = stage
    return stage(batch)


def build_gate(
    ds: rd.Dataset, cfg: GateConfig = DEFAULT_CONFIG, write_dropped_text: bool = False,
    expose_flags: bool = False, fused: bool = True, compute: str = "tasks",
) -> rd.Dataset:
    """Assemble the lazy gate pipeline over a pages Dataset.

    Returns a Dataset of ALL rows with decision columns + scrubbed
    text (null for dropped rows unless ``write_dropped_text``).

    ``fused=True, compute="tasks"`` (default): the whole scoring chain
    as ONE task-pool ``map_batches`` — Ray fuses read → gate → write
    into a single operator (no intermediate object-store hops), and
    task workers cache the scorer state per process.
    ``fused=True, compute="actors"``: same fused stage as a pre-sized
    actor pool (the ActorPoolStrategy layout — right when per-actor
    state is heavy enough to need placement control, e.g. real
    fastText/KenLM models).
    ``fused=False``: one operator per stage — for heavy per-stage
    models wanting separate pools sized to their own memory/compute.
    """
    import functools

    import ray

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    if fused and compute == "tasks":
        return ds.map_batches(
            functools.partial(
                _gate_task_fn, cfg=cfg,
                write_dropped_text=write_dropped_text, expose_flags=expose_flags,
            ),
            batch_format="pyarrow",
            batch_size=cfg.batch_size,
            zero_copy_batch=True,
        )
    if fused:
        # Pre-sized pool (ncpu-2 actors, 2 CPUs left for read/write
        # tasks): the autoscaling (1..N) policy ramps up too slowly —
        # measured 26 s vs 21 s on a 4M-doc run.
        pool = max(2, ncpu - 2)
        return ds.map_batches(
            GateStage,
            fn_constructor_args=(cfg, write_dropped_text, expose_flags),
            batch_format="pyarrow",
            batch_size=cfg.batch_size,
            concurrency=(pool, pool),
            zero_copy_batch=True,
        )
    ds = ds.map_batches(extract_stage, batch_format="pyarrow", zero_copy_batch=True)
    langid_max = cfg.langid_actors or max(2, ncpu // 2)
    ppl_max = cfg.perplexity_actors or max(2, ncpu // 2)
    ds = ds.map_batches(
        LangIdScorer,
        fn_constructor_args=(cfg,),
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
        concurrency=(1, langid_max),
    )
    ds = ds.map_batches(
        PerplexityScorer,
        fn_constructor_args=(cfg,),
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
        concurrency=(1, ppl_max),
    )
    ds = ds.map_batches(
        _RuleStage(cfg, write_dropped_text, expose_flags),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return ds


def evidence_view(out_docs_dir: str) -> rd.Dataset:
    """Per-(document, fired-rule) evidence rows — the relational recast
    of the reference's per-document JSON-LD assessment files
    (``utils/json_ld_utils.py:447-514``: one CheckResult per fired rule
    with checkId/category/evidence/suggestion). Decodes the written
    ``rule_bits`` + ``evidence_json`` into long format; ``evidence``
    carries the rule's SPECIFIC offending value (matched substring /
    stat) where the rule provides one, the static suggestion text as
    fallback. Only flagged docs emit rows."""
    meta = {r.code: (r.severity, r.category, r.suggestion) for r in CATALOG}

    def explode(batch: pa.Table) -> pa.Table:
        """Vectorized long-format emit: per RULE (30 iterations, not
        rows×rules), one Arrow ``take`` of the hit rows plus repeated
        constant columns; evidence JSON is parsed lazily and at most
        once per row — rows whose fired rules carry no evidence
        provider never parse at all."""
        import json as _json

        import numpy as np

        bits = batch.column("rule_bits").to_numpy(zero_copy_only=False)
        url_arr = batch.column("url").combine_chunks()
        ev_raw = batch.column("evidence_json").to_pylist()
        parsed: dict = {}

        def ev_of(i: int) -> dict:
            m = parsed.get(i)
            if m is None:
                e = ev_raw[i]
                m = _json.loads(e) if e else {}
                parsed[i] = m
            return m

        pieces = []
        for k, code in enumerate(RULE_CODES):
            idx = np.nonzero((bits >> np.int64(k)) & 1)[0]
            if len(idx) == 0:
                continue
            sev, cat, sug = meta[code]
            n = len(idx)
            take = pa.array(idx, pa.int64())
            pieces.append(
                pa.table(
                    {
                        "url": url_arr.take(take),
                        "rule": pa.repeat(pa.scalar(code, pa.string()), n),
                        "severity": pa.repeat(pa.scalar(sev, pa.string()), n),
                        "category": pa.repeat(pa.scalar(cat, pa.string()), n),
                        "evidence": pa.array(
                            [ev_of(int(i)).get(code, sug) for i in idx],
                            pa.string(),
                        ),
                        "suggestion": pa.repeat(pa.scalar(sug, pa.string()), n),
                    }
                )
            )
        if not pieces:
            return pa.table(
                {
                    c: pa.array([], pa.string())
                    for c in ("url", "rule", "severity", "category",
                              "evidence", "suggestion")
                }
            )
        return pa.concat_tables(pieces)

    # schema check through the same resolution read_parquet itself uses
    # (works for remote URIs too, unlike a local glob)
    ds_all = rd.read_parquet(out_docs_dir)
    has_evidence = "evidence_json" in (ds_all.schema().names or [])
    cols = ["url", "rule_bits"] + (["evidence_json"] if has_evidence else [])
    ds = ds_all.select_columns(cols)
    if not has_evidence:
        # outputs written before evidence_json existed stay inspectable
        # (suggestion-only evidence)
        ds = ds.map_batches(
            lambda b: b.append_column(
                "evidence_json", pa.nulls(len(b), pa.string())
            ),
            batch_format="pyarrow",
        )
    return ds.map_batches(explode, batch_format="pyarrow")


def kept_view(out_docs_dir: str) -> rd.Dataset:
    """The kept-documents dataset: a filtered, column-pruned read of
    the gated output (row-group predicate pushdown on ``keep``)."""
    return rd.read_parquet(
        out_docs_dir,
        columns=["url", "warc_ts", "detected_lang", "scrubbed_text"],
        filter=(pc.field("keep") == True),  # noqa: E712
    )


def _partition_fragments(paths: list[str], n_partitions: int) -> list[list[str]]:
    paths = sorted(paths)
    n_partitions = max(1, min(n_partitions, len(paths)))
    out: list[list[str]] = [[] for _ in range(n_partitions)]
    for i, p in enumerate(paths):
        out[i % n_partitions].append(p)
    return [g for g in out if g]


def list_parquet_fragments(
    input_path: str | Iterable[str], suffix: str | tuple = ".parquet"
) -> list[str]:
    if isinstance(input_path, (list, tuple)):
        return sorted(str(p) for p in input_path)
    if os.path.isdir(input_path):
        return sorted(
            os.path.join(input_path, f)
            for f in os.listdir(input_path)
            if f.endswith(suffix)
        )
    return [str(input_path)]


from ..schema import PAGES_COLUMNS as _PAGES_COLUMNS

# longest-match suffix → format for the mixed-lake ``auto`` ingest
_SUFFIX_FORMATS = [
    (".warc.gz", "warc"),
    (".parquet", "parquet"),
    (".feather", "ipc"),
    (".jsonl", "jsonl"),
    (".arrow", "ipc"),
    (".csv", "csv"),
    (".warc", "warc"),
    (".orc", "orc"),
    (".tar.gz", "tar"),
    (".tar", "tar"),
    (".tgz", "tar"),
    (".avro", "avro"),
]


def detect_format(path: str) -> str:
    """File format from its suffix (the ``auto`` ingest's dispatch —
    content is still validated by each format's strict reader)."""
    for suf, fmt in _SUFFIX_FORMATS:
        if path.endswith(suf):
            return fmt
    raise ValueError(f"cannot detect input format of {path!r}")


def _read_mixed_fragments(paths: list[str]) -> rd.Dataset:
    """Pages Dataset from a MIXED-format fragment list: group by
    detected format, read each group with its own reader (every reader
    already normalizes to the shared pages schema), align column order
    and union. Real lakes accrete formats over time; ``auto`` lets one
    gate run consume all of them."""
    groups: dict[str, list[str]] = {}
    for p in paths:
        groups.setdefault(detect_format(p), []).append(p)
    parts = []
    for fmt, ps in sorted(groups.items()):
        if fmt == "jsonl":
            from ..sources.jsonl_pages import read_pages_jsonl as reader
        elif fmt == "csv":
            from ..sources.csv_pages import read_pages_csv as reader
        elif fmt == "warc":
            from ..sources.warc_pages import read_pages_warc as reader
        elif fmt == "orc":
            from ..sources.orc_pages import read_pages_orc as reader
        elif fmt == "ipc":
            from ..sources.ipc_pages import read_pages_ipc as reader
        elif fmt == "tar":
            from ..sources.tar_pages import read_pages_tar as reader
        elif fmt == "avro":
            from ..sources.avro_pages import read_pages_avro as reader
        else:
            reader = rd.read_parquet
        parts.append(reader(ps).select_columns(_PAGES_COLUMNS))
    out = parts[0]
    for d in parts[1:]:
        out = out.union(d)
    return out


def _shim_fsspec_http() -> None:
    """Make ``fsspec.implementations.http`` importable exactly once.

    In this environment the module always fails to import (no aiohttp),
    which Ray's ``_is_http_filesystem`` handles on one thread — but a
    FAILED import is never cached, so two driver threads resolving
    write paths concurrently can race the half-initialized module into
    a plain ``ImportError`` Ray does NOT catch. Registering a stub
    module (whose ``HTTPFileSystem`` matches nothing) caches the import
    and removes the race; behavior is identical since no http
    filesystem exists here anyway."""
    import sys

    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401
    except ImportError:
        import types

        stub = types.ModuleType("fsspec.implementations.http")

        class _NoHTTPFileSystem:  # nothing is ever an instance of this
            pass

        stub.HTTPFileSystem = _NoHTTPFileSystem
        sys.modules["fsspec.implementations.http"] = stub


def auto_partitions(fragments: list[str], target_bytes: int = 1 << 30) -> int:
    """Resume-partition count sized by input bytes, not fragment count:
    each partition must be big enough to amortize the per-execution
    fixed cost (stream fill/drain edges + the driver-side lineage
    tally, ~2-3 s together). At 100 TB this yields ~100k resume units
    of 1 GiB — on a real multi-node cluster those units are dispatched
    concurrently (one driver per unit group), not in this sequential
    in-sandbox loop; on a 5 MB bench input it yields 1."""
    total = sum(os.path.getsize(f) for f in fragments if os.path.exists(f))
    return max(1, min(len(fragments), total // target_bytes + (1 if total % target_bytes else 0)))


def _format_suffix(input_format: str):
    """Accepted filename suffixes per input format. .warc.gz
    (per-record gzip members) rides the warc flag; ipc accepts both
    conventional suffixes (.arrow, .feather), tar all three archive
    spellings."""
    if input_format == "auto":
        return (".parquet", ".jsonl", ".csv", ".warc", ".warc.gz",
                ".orc", ".arrow", ".feather", ".tar", ".tar.gz", ".tgz",
                ".avro")
    if input_format == "warc":
        return (".warc", ".warc.gz")
    if input_format == "ipc":
        return (".arrow", ".feather")
    if input_format == "tar":
        return (".tar", ".tar.gz", ".tgz")
    return "." + input_format


def run_gate(
    input_path: str | list[str],
    out_dir: str,
    cfg: GateConfig = DEFAULT_CONFIG,
    n_partitions: int | None = None,
    max_concurrent_partitions: int | None = None,
    input_format: str = "parquet",
) -> dict:
    """Execute the gate over all input fragments with resume.

    Layout::

        out_dir/docs/partition=K/*.parquet   (atomic per partition)
        out_dir/manifest.jsonl               (completed partitions)
        out_dir/metrics.json                 (global summary)

    Resume units execute CONCURRENTLY (driver threads, each owning one
    streaming Dataset execution; Ray shares the cluster between them) —
    the multi-node shape where unit N+1's read overlaps unit N's write
    drain, instead of paying stream fill/drain edges serially. Default
    concurrency 2; partitions stay independent so outputs are identical
    for any value. Manifest appends are lock-serialized.

    Returns the metrics dict (the analog of the reference's global
    summary JSON, ``detect_pitfalls_main.py:396-409``).
    """
    if input_format not in (
        "parquet", "jsonl", "csv", "warc", "orc", "ipc", "tar", "avro",
        "auto",
    ):
        raise ValueError(f"unsupported input_format {input_format!r}")
    suffix = _format_suffix(input_format)
    if input_format == "jsonl":
        from ..sources.jsonl_pages import read_pages_jsonl as _read_fragments
    elif input_format == "csv":
        from ..sources.csv_pages import read_pages_csv as _read_fragments
    elif input_format == "warc":
        from ..sources.warc_pages import read_pages_warc as _read_fragments
    elif input_format == "orc":
        from ..sources.orc_pages import read_pages_orc as _read_fragments
    elif input_format == "ipc":
        from ..sources.ipc_pages import read_pages_ipc as _read_fragments
    elif input_format == "tar":
        from ..sources.tar_pages import read_pages_tar as _read_fragments
    elif input_format == "avro":
        from ..sources.avro_pages import read_pages_avro as _read_fragments
    elif input_format == "auto":
        _read_fragments = _read_mixed_fragments
    else:
        _read_fragments = rd.read_parquet
    fragments = list_parquet_fragments(input_path, suffix)
    if (
        not fragments
        and isinstance(input_path, str)
        and os.path.isdir(input_path)
        and os.listdir(input_path)
    ):
        # a populated directory with zero matching fragments is almost
        # always a --input-format mix-up; a silent zero-doc "success"
        # would mask it
        raise ValueError(
            f"no *{suffix} fragments in {input_path!r} (directory is "
            f"non-empty — wrong input_format?)"
        )
    if not fragments:
        metrics = {"total_documents": 0, "kept": 0, "dropped": 0,
                   "keep_rate": 0.0, "rules": {}}
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "metrics.json"), "w") as fh:
            json.dump(metrics, fh, indent=2, sort_keys=True)
        return metrics
    if n_partitions is None:
        n_partitions = auto_partitions(fragments)
    parts = _partition_fragments(fragments, n_partitions)
    manifest = Manifest(os.path.join(out_dir, "manifest.jsonl"))
    done = manifest.completed()

    docs_root = os.path.join(out_dir, "docs")
    os.makedirs(docs_root, exist_ok=True)

    # resume safety: a completed partition is only skippable if the
    # CURRENT partitioning assigns it the same fragments — resuming
    # with a different n_partitions would otherwise silently skip or
    # double-process fragments
    from ..functions.hashing import content_hash_fingerprint

    hash_fp = content_hash_fingerprint()
    for pid, rec in done.items():
        recorded = sorted(rec.get("fragment_ids", []))
        current = sorted(parts[pid]) if pid < len(parts) else None
        if recorded != current:
            raise ValueError(
                f"resume manifest partition {pid} was built from a different "
                f"partitioning (recorded {len(recorded)} fragments, current "
                f"{len(current or [])}); rerun with the original n_partitions "
                f"or remove {out_dir} to start fresh"
            )
        # the persisted content_hash columns are only groupable across
        # partitions written under ONE hash regime (polars pins its
        # string hash per version); refuse to mix regimes on resume
        if rec.get("hash_fp", hash_fp) != hash_fp:
            raise ValueError(
                f"resume manifest partition {pid} was written under a "
                f"different content-hash regime ({rec['hash_fp']} vs "
                f"{hash_fp} now — polars upgrade?); remove {out_dir} to "
                f"rewrite with consistent content_hash columns"
            )

    import shutil
    import threading
    from concurrent.futures import ThreadPoolExecutor

    _shim_fsspec_http()
    manifest_lock = threading.Lock()

    def _probe_bad_fragments(frag_group: list[str]) -> list[str]:
        """Fragments that cannot be FULLY read — the engine's analog of
        the reference's skip-on-parse-error input policy
        (``detect_pitfalls_main.py:316-318``). A full read (not just
        the footer) so mid-file page corruption is classified too; for
        JSONL, every line must parse. Only invoked on the FAILURE
        path, so the happy path never pays a probe per fragment."""
        bad = []
        for f in frag_group:
            fmt = detect_format(f) if input_format == "auto" else input_format
            try:
                if fmt == "jsonl":
                    import json as _json

                    with open(f, "rb") as fh:
                        for line in fh:
                            if line.strip():
                                _json.loads(line)
                elif fmt == "csv":
                    from ..sources.csv_pages import probe_csv

                    probe_csv(f)  # streamed; raises on parse failure
                elif fmt == "warc":
                    from ..sources.warc_pages import probe_warc

                    probe_warc(f)  # strict framing; raises on violation
                elif fmt == "orc":
                    from ..sources.orc_pages import probe_orc

                    probe_orc(f)  # streamed per stripe; raises on corruption
                elif fmt == "ipc":
                    from ..sources.ipc_pages import probe_ipc

                    probe_ipc(f)  # batch-by-batch; raises on corruption
                elif fmt == "tar":
                    from ..sources.tar_pages import probe_tar

                    probe_tar(f)  # member-by-member; raises on corruption
                elif fmt == "avro":
                    from ..sources.avro_pages import probe_avro

                    probe_avro(f)  # strict framing; raises on corruption
                else:
                    import pyarrow.parquet as pq

                    # stream batch-by-batch (discarding each) so
                    # mid-file corruption is still detected without
                    # ever materializing the fragment in driver memory
                    # (a full read_table of a ~1 GiB resume partition ×
                    # concurrent partition threads could OOM the driver)
                    pf = pq.ParquetFile(f)
                    for _batch in pf.iter_batches():
                        pass
            except Exception:
                bad.append(f)
        return bad

    def _sized_cfg(frag_group: list[str]) -> GateConfig:
        """cfg with batch_size shrunk for small parquet partitions.

        batch_size is also the fused operator's task granularity (Ray
        bundles read blocks up to batch_size rows per task), so a
        partition needs rows/batch_size ≥ ~2×CPUs tasks to fill the
        cluster. Parquet/ORC footer row counts are free and IPC's
        mmap batch-header walk is nearly so (auto mode counts whichever
        it holds); row-counting the other formats would need a full
        parse, so they keep the configured size (their datasources
        already emit row-true blocks). Floor
        1024: below that, per-batch kernel launch overhead starts to
        show (measured sweep in config.py).
        """
        if input_format not in ("parquet", "orc", "ipc", "auto"):
            return cfg

        def _rows_of(f: str) -> int:
            fmt = detect_format(f) if input_format == "auto" else input_format
            if fmt == "parquet":
                import pyarrow.parquet as pq

                return pq.ParquetFile(f).metadata.num_rows
            if fmt == "orc":
                import pyarrow.orc as orc

                return orc.ORCFile(f).nrows
            if fmt == "ipc":
                from ..sources.ipc_pages import count_rows_ipc

                return count_rows_ipc(f)  # mmap footer walk, no data IO
            return 0  # row-true-block formats: no free count

        try:
            rows = sum(_rows_of(f) for f in frag_group)
            if rows == 0:
                return cfg
        except Exception:
            return cfg
        import ray

        ncpu = (
            int(ray.cluster_resources().get("CPU", 8))
            if ray.is_initialized()
            else 8
        )
        eff = max(1024, -(-rows // (2 * ncpu)))
        if eff >= cfg.batch_size:
            return cfg
        import dataclasses

        return dataclasses.replace(cfg, batch_size=eff)

    def run_partition(pid: int, frag_group: list[str]) -> None:
        final_dir = os.path.join(docs_root, f"partition={pid}")
        tmp_dir = os.path.join(docs_root, f".tmp-partition={pid}")
        if os.path.exists(tmp_dir):  # torn previous attempt
            shutil.rmtree(tmp_dir)
        if os.path.exists(final_dir):  # completed write, torn manifest append
            shutil.rmtree(final_dir)
        use_group, skipped = frag_group, []
        try:
            ds = _read_fragments(use_group)
            gated = build_gate(ds, _sized_cfg(use_group))
            gated.write_parquet(tmp_dir)
        except Exception:
            shutil.rmtree(tmp_dir, ignore_errors=True)
            skipped = _probe_bad_fragments(frag_group)
            if not skipped:  # not an input-corruption failure
                raise
            use_group = [f for f in frag_group if f not in set(skipped)]
            import sys as _sys

            print(
                f"[run_gate] partition {pid}: skipping {len(skipped)} "
                f"unreadable fragment(s): {skipped}",
                file=_sys.stderr,  # stdout stays machine-readable JSON
            )
            if use_group:
                ds = _read_fragments(use_group)
                gated = build_gate(ds, _sized_cfg(use_group))
                gated.write_parquet(tmp_dir)
            else:  # every fragment bad — record an empty partition
                os.makedirs(tmp_dir, exist_ok=True)
        os.rename(tmp_dir, final_dir)
        lineage = partition_lineage(final_dir) if use_group else {
            "rows": 0, "kept": 0, "dropped": 0, "rule_lang": {},
        }
        if skipped:
            lineage = dict(lineage, skipped_fragments=sorted(skipped))
        lineage = dict(lineage, hash_fp=hash_fp)
        with manifest_lock:
            manifest.mark_done(pid, frag_group, lineage)

    pending = [(pid, fg) for pid, fg in enumerate(parts) if pid not in done]
    mc = max_concurrent_partitions or min(2, max(1, len(pending)))
    if pending:
        with ThreadPoolExecutor(max_workers=mc) as ex:
            futures = [ex.submit(run_partition, pid, fg) for pid, fg in pending]
            for f in futures:
                f.result()  # propagate the first failure; resume recovers

    # global metrics = merge of the per-partition lineage records —
    # no second pass over the written data
    metrics = metrics_from_records(list(manifest.completed().values()))
    with open(os.path.join(out_dir, "metrics.json"), "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
    return metrics


def _tally(keep, bits, langs) -> dict:
    """Vectorized keep/drop + per-(rule, lang) tally of decision arrays."""
    import numpy as np

    keep = np.asarray(keep, dtype=bool)
    bits = np.asarray(bits, dtype=np.int64)
    langs = np.asarray(langs, dtype=object)
    uniq, inv = np.unique(langs.astype(str), return_inverse=True)
    rule_lang: dict[str, dict[str, int]] = {}
    for k, code in enumerate(RULE_CODES):
        m = ((bits >> k) & 1).astype(bool)
        if m.any():
            cnt = np.bincount(inv[m], minlength=len(uniq))
            rule_lang[code] = {
                str(uniq[i]): int(c) for i, c in enumerate(cnt) if c
            }
    return {
        "rows": int(len(keep)),
        "kept": int(keep.sum()),
        "dropped": int(len(keep) - keep.sum()),
        "rule_lang": rule_lang,
    }


def partition_lineage(partition_dir: str) -> dict:
    """Per-partition lineage record for the resume manifest: keep/drop
    tallies plus per-(rule, language) hit counters (the north rule's
    'lineage records … to a checkpoint manifest').

    A threaded driver-side read of ONLY the three tiny decision columns
    (keep: bool, rule_bits: int64, detected_lang: dict-encodable
    string), tallied PER FILE and merged as dicts — driver memory is
    bounded by one file's pruned columns × thread count, never the
    whole partition (concatenating a 16M-doc partition's columns
    measured +400 MB driver RSS). No Ray execution: spinning a whole
    Dataset here cost ~1 s of executor startup PER PARTITION (measured:
    30 % of the html-path wall time at bench scale), and the earlier
    serial full-column read cost ~6.5 s per 5M-row partition."""
    import glob as _glob
    from concurrent.futures import ThreadPoolExecutor

    import pyarrow.parquet as pq

    files = sorted(_glob.glob(os.path.join(partition_dir, "*.parquet")))
    if not files:
        return {"rows": 0, "kept": 0, "dropped": 0, "rule_lang": {}}
    cols = ["detected_lang", "keep", "rule_bits"]

    def tally_file(f: str) -> dict:
        return _tally_decision_table(pq.read_table(f, columns=cols))

    with ThreadPoolExecutor(max_workers=min(16, len(files))) as ex:
        records = list(ex.map(tally_file, files))
    return _merge_records(records)


def _tally_decision_table(t: pa.Table) -> dict:
    """Vectorized keep/drop + per-(rule, lang) tally of one pruned
    decision table (dictionary-encode + bincount, no Python rows)."""
    import numpy as np
    import pyarrow.compute as pc

    keep = t.column("keep").to_numpy(zero_copy_only=False).astype(bool)
    bits = t.column("rule_bits").to_numpy(zero_copy_only=False).astype(np.int64)
    # null langs tally under "None" (parity with _tally's str() coercion)
    lang = pc.fill_null(t.column("detected_lang"), "None").combine_chunks()
    enc = pc.dictionary_encode(lang)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = enc.indices.to_numpy(zero_copy_only=False)
    uniq = [str(v) for v in enc.dictionary.to_pylist()]
    rule_lang: dict[str, dict[str, int]] = {}
    for k, code in enumerate(RULE_CODES):
        m = ((bits >> np.int64(k)) & 1).astype(bool)
        if m.any():
            cnt = np.bincount(codes[m], minlength=len(uniq))
            rule_lang[code] = {
                uniq[i]: int(c) for i, c in enumerate(cnt) if c
            }
    return {
        "rows": int(len(keep)),
        "kept": int(keep.sum()),
        "dropped": int(len(keep) - keep.sum()),
        "rule_lang": rule_lang,
    }


def metrics_from_records(records: list[dict]) -> dict:
    """Merge per-partition lineage records into the global summary
    (recasts ``detect_pitfalls_main.py:346-351,385-394``) — no second
    pass over the data; the tallies were captured at write time."""
    total = sum(r.get("rows", 0) for r in records)
    kept = sum(r.get("kept", 0) for r in records)
    rules: dict[str, dict] = {}
    for code in RULE_CODES:
        langs: dict[str, int] = {}
        for r in records:
            for lg, n in r.get("rule_lang", {}).get(code, {}).items():
                langs[lg] = langs.get(lg, 0) + n
        count = sum(langs.values())
        rules[code] = {
            "count": count,
            "percentage": round(100.0 * count / total, 2) if total else 0.0,
            "languages": langs,
        }
    skipped = sorted(
        {f for r in records for f in r.get("skipped_fragments", [])}
    )
    out = {
        "total_documents": total,
        "kept": kept,
        "dropped": total - kept,
        "keep_rate": round(kept / total, 4) if total else 0.0,
        "rules": rules,
    }
    if skipped:
        out["skipped_fragments"] = skipped
    return out


def _merge_records(records: list[dict]) -> dict:
    merged = {"rows": 0, "kept": 0, "dropped": 0, "rule_lang": {}}
    for r in records:
        merged["rows"] += r["rows"]
        merged["kept"] += r["kept"]
        merged["dropped"] += r["dropped"]
        for code, langs in r.get("rule_lang", {}).items():
            dst = merged["rule_lang"].setdefault(code, {})
            for lg, n in langs.items():
                dst[lg] = dst.get(lg, 0) + n
    return merged


def compute_metrics(docs_root: str, as_record: bool = False) -> dict:
    """Standalone recompute of the global summary from a gated output
    directory: column-pruned read of (keep, rule_bits, detected_lang),
    per-batch vectorized tallies merged on the driver — no shuffle."""
    ds = rd.read_parquet(
        docs_root, columns=["detected_lang", "keep", "rule_bits"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        import json as _json

        rec = _tally(
            batch.column("keep").to_numpy(zero_copy_only=False),
            batch.column("rule_bits").to_numpy(zero_copy_only=False),
            batch.column("detected_lang").to_pylist(),
        )
        return pa.table({"rec": pa.array([_json.dumps(rec)], pa.string())})

    import json as _json

    records = [
        _json.loads(r["rec"])
        for r in ds.map_batches(partial, batch_format="pyarrow").take_all()
    ]
    merged = _merge_records(records)
    if as_record:
        return merged
    return metrics_from_records([merged])


# ---------------------------------------------------------------------------
# incremental gate mode (r5): epoch-append day-over-day processing.
# Composes the resume manifest (which fragments are already done),
# the exact-dedup hash discipline (functions/dedup.py's 128-bit
# content hash, persisted per epoch) and the IVM metrics identity
# (global summary = merge of per-partition lineage records — the
# nightly re-aggregate touches only the new epoch's records, exactly
# the ivm_lang_tokens argument applied to the gate's own metrics).
# ---------------------------------------------------------------------------

def incremental_docs_dirs(out_dir: str) -> list[str]:
    """The per-epoch docs roots of an incremental run directory, in
    epoch order — pass to kept_view/evidence_view per epoch, or read
    together with read_parquet."""
    import glob as _glob

    return sorted(_glob.glob(os.path.join(out_dir, "epochs", "epoch-*", "docs")))


def run_gate_incremental(
    input_path: str | list[str],
    out_dir: str,
    cfg: GateConfig = DEFAULT_CONFIG,
    n_partitions: int | None = None,
    input_format: str = "parquet",
) -> dict:
    """Gate ONLY the fragments not processed by any prior epoch.

    Layout::

        out_dir/epochs/epoch-K/        (a complete run_gate run dir)
        out_dir/seen_hashes/epoch-K/   (distinct content hashes, 24 B rows)
        out_dir/metrics.json           (merged across epochs)

    Day-2 semantics: new fragments are discovered by anti-joining the
    CURRENT fragment list against the union of every prior epoch
    manifest's ``fragment_ids`` (driver-side set on the bounded
    fragment list), gated into a fresh epoch directory, and their
    distinct 128-bit content hashes are probed against the persisted
    seen-hash store — one hash-key shuffle of 24-byte rows, the text
    never moves (the incremental_new_docs plan). Global metrics are
    updated BY DELTA: the merge of all epochs' per-partition lineage
    records, identical to a from-scratch run over the full lake (the
    metrics_from_records identity), with cross-epoch duplicate counts
    reported under ``metrics["incremental"]`` — dedup is REPORTED, not
    silently applied, so the gate's keep/drop accounting stays
    equal to the from-scratch run's.
    """
    import glob as _glob

    from ray.data.aggregate import Max, Min

    fragments = list_parquet_fragments(
        input_path, _format_suffix(input_format)
    )
    epochs_root = os.path.join(out_dir, "epochs")
    os.makedirs(epochs_root, exist_ok=True)
    prior = sorted(_glob.glob(os.path.join(epochs_root, "epoch-*")))
    processed: set[str] = set()
    records: list[dict] = []
    for ep in prior:
        for rec in Manifest(
            os.path.join(ep, "manifest.jsonl")
        ).completed().values():
            processed.update(rec.get("fragment_ids", []))
            records.append(rec)
    new_frags = sorted(f for f in fragments if f not in processed)
    inc = {
        "epoch": len(prior),
        "new_fragments": len(new_frags),
        "new_documents": 0,
        "dup_vs_seen": 0,
    }
    seen_dir = os.path.join(out_dir, "seen_hashes")
    if new_frags:
        ep_dir = os.path.join(epochs_root, f"epoch-{len(prior):04d}")
        ep_metrics = run_gate(
            new_frags, ep_dir, cfg, n_partitions=n_partitions,
            input_format=input_format,
        )
        inc["new_documents"] = ep_metrics["total_documents"]
        records.extend(
            Manifest(os.path.join(ep_dir, "manifest.jsonl"))
            .completed().values()
        )
        # distinct content hashes of the new epoch (24 B rows; ONE
        # hash-key pre-combine via groupby — the text never leaves
        # the epoch's parquet). Materialized once: both the seen-store
        # probe and the seen-store write consume it.
        hash_cols = ["content_hash", "content_hash2"]
        new_hashes = (
            rd.read_parquet(os.path.join(ep_dir, "docs"), columns=hash_cols)
            .groupby(hash_cols)
            .count()
            .select_columns(hash_cols)
            .materialize()
        )
        seen_files = _glob.glob(os.path.join(seen_dir, "*", "*.parquet"))
        if seen_files:
            def _tag(v: int):
                def fn(b: pa.Table) -> pa.Table:
                    import numpy as np

                    return pa.table({
                        "content_hash": b.column("content_hash"),
                        "content_hash2": b.column("content_hash2"),
                        "is_new": pa.array(
                            np.full(len(b), v, np.int64), pa.int64()
                        ),
                    })
                return fn

            both = (
                new_hashes.map_batches(_tag(1), batch_format="pyarrow")
                .union(
                    rd.read_parquet(seen_files, columns=hash_cols)
                    .map_batches(_tag(0), batch_format="pyarrow")
                )
                .groupby(hash_cols)
                .aggregate(
                    Max("is_new", alias_name="any_new"),
                    Min("is_new", alias_name="any_seen"),
                )
            )
            # a hash is a cross-epoch dup iff both tags collapsed
            # into its group: any_new=1 (it is in this epoch) AND
            # any_seen=0 (min tag 0 ⇒ some prior epoch had it too)
            def _dup_partial(b: pa.Table) -> pa.Table:
                import numpy as np

                hit = (
                    (b.column("any_new").to_numpy(zero_copy_only=False) == 1)
                    & (b.column("any_seen").to_numpy(zero_copy_only=False) == 0)
                )
                return pa.table({"n": pa.array([int(hit.sum())], pa.int64())})

            inc["dup_vs_seen"] = int(
                both.map_batches(
                    _dup_partial, batch_format="pyarrow"
                ).sum("n") or 0
            )
        new_hashes.write_parquet(
            os.path.join(seen_dir, f"epoch-{len(prior):04d}")
        )
    metrics = metrics_from_records(records)
    metrics["incremental"] = inc
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.json"), "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
    return metrics
