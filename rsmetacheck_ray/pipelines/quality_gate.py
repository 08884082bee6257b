"""The flagship pipeline — the Ray recast of the reference's
``detect_all_pitfalls`` lifecycle (``detect_pitfalls_main.py:313-409``,
see SURVEY §3 "New-engine lifecycle"):

    work items → [read → extract → langid → perplexity → rule
    catalog + scrub → write, FUSED into one Ray task per item or
    batch] → partitioned parquet + lineage + metrics manifest.

``run_gate`` is one graph of plain Ray tasks driven by one ``ray.wait``
loop; it starts no Ray Data execution. Each partition is planned on the
driver as a list of work items: runs of parquet row groups grouped from
the footers, or whole fragments of the other formats. A work item whose
read units all have a known count of at most one batch is one task
(``_gate_work_item``) that reads the item's fragments, gates them and
writes one parquet file, so its pages never enter the object store. Any
other item (a row group larger than a batch, or a format without free
row counts) is read by a streaming-generator task
(``_read_work_item``) that yields the pages in batch-sized tables, and
each table is gated and written by a ``_gate_work_item`` task of its
own. An ActorPoolStrategy layout of the gate stage over a pages Dataset
is selected with ``build_gate(compute="actors")`` for heavy models.

Scale design:
 - zero-copy Arrow batches end-to-end (``batch_format="pyarrow"``);
 - the binary ``html`` payload never travels past the extract step
   (and, for a bounded work item, never leaves its gate task);
 - scorer state (LM tables, compiled patterns) loaded once per
   worker/actor; ``ray.data`` is imported only inside the functions
   that build Datasets, so a gate task's worker never loads it;
 - NO full materialization anywhere: a fused task holds one work item
   (under two batches) and a gate task of the reader path one batch;
   one reader runs at a time, and only while fewer than two gate tasks
   per cluster CPU are pending;
 - resume-by-partition: the input fragment list is split into K
   partitions, each written atomically to its own directory and
   recorded in a JSONL manifest (``state/manifest.py``); a re-run
   skips completed partitions on the driver, before any task starts;
 - ONE pass per partition: every row (kept and dropped) is written
   with its tiny decision columns; dropped rows carry NULL text so the
   write volume is dominated by kept text. Every file is written with
   zstd at level 3 (``PARQUET_WRITE_OPTIONS``) as one row group. The
   kept dataset is the predicate view ``keep == true``; lineage/metrics
   aggregate the pruned decision columns (never the text).
"""

from __future__ import annotations

import json
import os
from typing import Callable, Iterable, Iterator, NamedTuple

import pyarrow as pa
import pyarrow.compute as pc

import ray

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

# Parquet write options of every file the gate writes and
# of the CLI's kept/evidence exports. scrubbed_text is most of the
# written bytes. On the gatebench html_gate inputs (seed 6, one file
# per 1000 gated rows) Arrow's default snappy writes 396 B/doc, zstd at
# Arrow's default level 1 299, and zstd at level 3 270.
PARQUET_WRITE_OPTIONS = {"compression": "zstd", "compression_level": 3}


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

        out = rule_stage_fn(batch, self.cfg, with_evidence=True,
                            scrub_dropped=self.write_dropped_text)
        scrubbed = out.column("scrubbed_text")
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
                  expose_flags: bool) -> Iterator[pa.Table]:
    """Gate one block in ``cfg.batch_size``-row kernel batches, one
    output table per batch."""
    key = (cfg, write_dropped_text, expose_flags)
    stage = _GATE_CACHE.get(key)
    if stage is None:
        stage = GateStage(cfg, write_dropped_text, expose_flags)
        _GATE_CACHE[key] = stage
    for ofs in range(0, len(batch), cfg.batch_size):
        yield stage(batch.slice(ofs, cfg.batch_size))


def build_gate(
    ds: ray.data.Dataset, cfg: GateConfig = DEFAULT_CONFIG, write_dropped_text: bool = False,
    expose_flags: bool = False, compute: str = "tasks",
) -> ray.data.Dataset:
    """Assemble the lazy gate pipeline over a pages Dataset.

    Returns a Dataset of ALL rows with decision columns + scrubbed
    text (null for dropped rows unless ``write_dropped_text``).

    ``compute="tasks"`` (default): the whole scoring chain as ONE
    task-pool ``map_batches`` over ``cfg.batch_size``-row bundles;
    task workers cache the scorer state per process.
    ``compute="actors"``: the same fused stage as a pre-sized actor
    pool (the ActorPoolStrategy layout — right when per-actor state is
    heavy enough to need placement control, e.g. real fastText/KenLM
    models).
    """
    import functools

    if compute == "tasks":
        return ds.map_batches(
            functools.partial(
                _gate_task_fn, cfg=cfg,
                write_dropped_text=write_dropped_text, expose_flags=expose_flags,
            ),
            batch_format="pyarrow",
            batch_size=cfg.batch_size,
            zero_copy_batch=True,
        )
    # Pre-sized pool (ncpu-2 actors, 2 CPUs left for read/write
    # tasks): the autoscaling (1..N) policy ramps up too slowly —
    # measured 26 s vs 21 s on a 4M-doc run.
    pool = max(2, _cluster_cpus() - 2)
    return ds.map_batches(
        GateStage,
        fn_constructor_args=(cfg, write_dropped_text, expose_flags),
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
        concurrency=(pool, pool),
        zero_copy_batch=True,
    )


def evidence_view(out_docs_dir: str) -> ray.data.Dataset:
    """Per-(document, fired-rule) evidence rows — the relational recast
    of the reference's per-document JSON-LD assessment files
    (``utils/json_ld_utils.py:447-514``: one CheckResult per fired rule
    with checkId/category/evidence/suggestion). Decodes the written
    ``rule_bits`` + ``evidence_json`` into long format; ``evidence``
    carries the rule's SPECIFIC offending value (matched substring /
    stat) where the rule provides one, the static suggestion text as
    fallback. Only flagged docs emit rows."""
    import ray.data

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
    ds_all = ray.data.read_parquet(out_docs_dir)
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


def kept_view(out_docs_dir: str) -> ray.data.Dataset:
    """The kept-documents dataset: a filtered, column-pruned read of
    the gated output (row-group predicate pushdown on ``keep``)."""
    import ray.data

    return ray.data.read_parquet(
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


def _source(module: str, name: str):
    """``sources.<module>.<name>``, imported on first call: a run loads
    only the source modules of the formats it reads."""

    def call(*args):
        import importlib

        return getattr(
            importlib.import_module(f"..sources.{module}", __package__), name
        )(*args)

    return call


def _read_parquet(path: str, row_groups: list[int] | None = None,
                  batch_size: int = DEFAULT_CONFIG.batch_size):
    """A parquet fragment's pages (only ``row_groups``, if given),
    streamed in tables of at most ``batch_size`` rows."""
    import pyarrow.parquet as pq

    with pq.ParquetFile(path) as pf:
        for b in pf.iter_batches(batch_size=batch_size, row_groups=row_groups):
            yield pa.Table.from_batches([b])


def _probe_parquet(path: str) -> None:
    import pyarrow.parquet as pq

    # stream batch-by-batch (discarding each) so mid-file corruption is
    # still detected without ever materializing the fragment in driver
    # memory (a full read_table of a ~1 GiB fragment could OOM the
    # driver)
    for _batch in pq.ParquetFile(path).iter_batches():
        pass


def _probe_jsonl(path: str) -> None:
    with open(path, "rb") as fh:
        for line in fh:
            if line.strip():
                json.loads(line)


def _rows_parquet(path: str) -> list[int]:
    import pyarrow.parquet as pq

    with pq.ParquetFile(path) as pf:
        md = pf.metadata
    return [md.row_group(i).num_rows for i in range(md.num_row_groups)]


def _rows_orc(path: str) -> list[int]:
    import pyarrow.orc as orc

    return [orc.ORCFile(path).nrows]


def _rows_ipc(path: str) -> list[int]:
    return [_source("ipc_pages", "count_rows_ipc")(path)]


class _Format(NamedTuple):
    suffixes: tuple[str, ...]
    # one fragment → its pages tables in the shared pages schema
    # (parquet's also takes the row groups to read and a batch size)
    read: Callable[..., Iterator[pa.Table]]
    # raises on a fragment it cannot FULLY read; only a partition's
    # failure path calls it
    probe: Callable[[str], object]
    # row counts of the fragment's read units (parquet row groups, the
    # whole file elsewhere) without a data read; None where counting
    # would need a full parse
    count_rows: Callable[[str], list[int]] | None


# Every input format run_gate reads. .warc.gz (per-record gzip members)
# rides the warc reader; ipc takes both conventional suffixes, tar all
# three archive spellings. No suffix ends another format's suffix, so a
# path matches at most one row.
FORMATS = {
    "parquet": _Format((".parquet",), _read_parquet, _probe_parquet,
                       _rows_parquet),
    "jsonl": _Format((".jsonl",), _source("jsonl_pages", "read"),
                     _probe_jsonl, None),
    "csv": _Format((".csv",), _source("csv_pages", "read"),
                   _source("csv_pages", "probe_csv"), None),
    "warc": _Format((".warc", ".warc.gz"), _source("warc_pages", "read"),
                    _source("warc_pages", "probe_warc"), None),
    "orc": _Format((".orc",), _source("orc_pages", "read"),
                   _source("orc_pages", "probe_orc"), _rows_orc),
    "ipc": _Format((".arrow", ".feather"), _source("ipc_pages", "read"),
                   _source("ipc_pages", "probe_ipc"), _rows_ipc),
    "tar": _Format((".tar", ".tar.gz", ".tgz"), _source("tar_pages", "read"),
                   _source("tar_pages", "probe_tar"), None),
    "avro": _Format((".avro",), _source("avro_pages", "read"),
                    _source("avro_pages", "probe_avro"), None),
}
# run_gate's accepted input_format values: "auto" takes each
# fragment's format from its suffix (a mixed-format lake)
INPUT_FORMATS = (*FORMATS, "auto")


def detect_format(path: str) -> str:
    """File format from its suffix (the ``auto`` ingest's dispatch —
    content is still validated by each format's strict reader)."""
    for fmt, spec in FORMATS.items():
        if path.endswith(spec.suffixes):
            return fmt
    raise ValueError(f"cannot detect input format of {path!r}")


def format_suffixes(input_format: str) -> tuple[str, ...]:
    """Filename suffixes a directory is listed by for ``input_format``
    (every format's under ``auto``)."""
    if input_format in FORMATS:
        return FORMATS[input_format].suffixes
    return tuple(s for spec in FORMATS.values() for s in spec.suffixes)


def _format_name(path: str, input_format: str) -> str:
    """The format a fragment is read as: ``input_format`` itself, or
    under ``auto`` the one its suffix names."""
    return input_format if input_format in FORMATS else detect_format(path)


def _format_of(path: str, input_format: str) -> _Format:
    return FORMATS[_format_name(path, input_format)]


def _cluster_cpus() -> int:
    """CPUs of the Ray cluster (8 when Ray is not started)."""
    return int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8


def _sized_cfg(cfg: GateConfig, rows: int) -> GateConfig:
    """cfg with batch_size shrunk for small partitions.

    batch_size is also the gate's task granularity (a bounded work item
    and a reader's table both hold about batch_size rows), so a
    partition needs rows/batch_size ≥ ~2×CPUs tasks to fill the
    cluster. ``rows`` counts only fragments with free footer row
    counts; a partition of only the other formats counts 0 and keeps
    the configured size. Floor 1024: below that, per-batch kernel
    launch overhead starts to show (measured sweep in config.py)."""
    if rows == 0:
        return cfg
    eff = max(1024, -(-rows // (2 * _cluster_cpus())))
    if eff >= cfg.batch_size:
        return cfg
    import dataclasses

    return dataclasses.replace(cfg, batch_size=eff)


def _work_items(
    units: list[tuple[str, str, list[int] | None]], batch_size: int
) -> list[list[tuple[str, list[int] | None]]]:
    """Group a partition's read units into work items of ≥
    ``batch_size`` rows.

    ``units`` holds each fragment with its format and the row counts
    of its read units (``_Format.count_rows``: parquet row groups, a
    whole file elsewhere), or None where no count is free. A work item
    is a list of ``(fragment, row groups)`` pieces, row groups None for
    a whole fragment. Consecutive units are taken greedily until the
    item holds ≥ batch_size rows, the rule Ray's own block bundling
    applies. A row group is never split across items (that would read
    it twice), so an item is as large as its largest row group; a
    fragment without counts is an item of its own. ``_items_are_bounded``
    decides whether an item is read inside its gate task or by a
    reader. An item never mixes formats."""
    tasks: list[list] = []
    cur: list = []
    rows = 0
    fmt = None

    def flush():
        nonlocal cur, rows
        if cur:
            tasks.append(cur)
        cur, rows = [], 0

    for path, path_fmt, counts in units:
        if counts is None:
            flush()
            tasks.append([(path, None)])
            continue
        if path_fmt != fmt:
            flush()
            fmt = path_fmt
        multi = len(counts) > 1  # parquet: name the row groups read
        for i, n in enumerate(counts):
            if multi and cur and cur[-1][0] == path:
                cur[-1][1].append(i)
            else:
                cur.append((path, [i] if multi else None))
            rows += n
            if rows >= batch_size:
                flush()
    flush()
    return tasks


def _read_pieces(item: str) -> Iterator[pa.Table]:
    """Read one work item, ``[input_format, batch_size, pieces]``: each
    piece's pages tables, fragment by fragment (under ``auto`` each
    fragment is read by its own format and cut to the shared pages
    columns)."""
    input_format, batch_size, pieces = json.loads(item)
    for path, row_groups in pieces:
        name = _format_name(path, input_format)
        tables = (_read_parquet(path, row_groups, batch_size)
                  if name == "parquet" else FORMATS[name].read(path))
        for t in tables:
            yield t.select(_PAGES_COLUMNS) if input_format == "auto" else t


@ray.remote(num_cpus=1, max_retries=-1,
            retry_exceptions=[ray.exceptions.RaySystemError])
def _gate_work_item(item: str | pa.Table, name: str, out: str,
                    cfg: GateConfig) -> tuple[int, int]:
    """Gate one work item and write it as ``name`` in ``out``; return
    the rows read and the rows written. ``item`` is a bounded work item,
    read here, or a pages table that ``_read_work_item`` yielded. An
    item of no rows writes no file. The file is written under a hidden
    name and renamed into place, so a retried task (a killed worker)
    never leaves a torn file next to its output.

    The pages are gated as one block cut into ``cfg.batch_size`` kernel
    batches, and written with ``write_dataset`` as one row group (the
    item is under two batches) with ``PARQUET_WRITE_OPTIONS``. Retries
    follow Ray Data's map tasks: a lost worker is retried without
    limit, an error raised by the read or the gate is not retried."""
    import pyarrow.dataset as pds

    if isinstance(item, str):
        read = [t for t in _read_pieces(item) if len(t)]
        if not read:
            return 0, 0
        item = pa.concat_tables(read, promote_options="default")
    gated = pa.concat_tables(_gate_task_fn(item, cfg, False, False),
                             promote_options="default").combine_chunks()
    pds.write_dataset(
        gated, out, format="parquet", basename_template=f".{name}.{{i}}",
        existing_data_behavior="overwrite_or_ignore", use_threads=False,
        file_options=pds.ParquetFileFormat().make_write_options(
            **PARQUET_WRITE_OPTIONS))
    os.replace(os.path.join(out, f".{name}.0"), os.path.join(out, name))
    return len(item), len(gated)


@ray.remote(num_cpus=1, num_returns="streaming", max_retries=-1,
            retry_exceptions=[ray.exceptions.RaySystemError])
def _read_work_item(item: str) -> Iterator[pa.Table]:
    """Yield work item ``item``'s pages in tables of its ``batch_size``
    rows (the last one shorter), each for a gate task of its own: the
    reader of an item too large, or of unknown size, for one gate task.
    Retried as ``_gate_work_item`` is: Ray re-runs a lost generator and
    hands on only the tables it had not yet yielded."""
    batch_size = json.loads(item)[1]
    held: list[pa.Table] = []
    rows = 0
    for t in _read_pieces(item):
        held.append(t)
        rows += len(t)
        while rows >= batch_size:
            t = pa.concat_tables(held, promote_options="default")
            yield t.slice(0, batch_size)
            held, rows = [t.slice(batch_size)], rows - batch_size
    if rows:
        yield pa.concat_tables(held, promote_options="default")


def _items_are_bounded(units: list[tuple[str, str, list[int] | None]],
                       batch_size: int) -> bool:
    """The read rule: a work item is read inside its gate task
    (``_gate_work_item``) when every read unit of its fragments has a
    known count of at most ``batch_size`` rows. Then the item holds
    fewer than 2 × ``batch_size`` rows, the granularity Ray's own
    bundling would give. Otherwise (a row group larger than a batch, or
    a format without free counts) the item could hold a whole large
    fragment and starve the cluster, and ``_read_work_item`` reads it in
    batch-sized tables."""
    return all(c is not None and max(c, default=0) <= batch_size
               for _, _, c in units)


def auto_partitions(fragments: list[str], target_bytes: int = 1 << 30) -> int:
    """Resume-partition count sized by input bytes, not fragment count:
    each partition must be big enough to amortize its fixed cost: the
    driver's footer reads and work-item plan, the fill and drain of its
    tasks, and the driver-side lineage tally. At 100 TB this yields
    ~100k resume units of 1 GiB — on a real multi-node cluster those
    units are dispatched concurrently (one driver per unit group), not
    by one driver's loop as here; on a 5 MB bench input it yields 1."""
    total = sum(os.path.getsize(f) for f in fragments if os.path.exists(f))
    return max(1, min(len(fragments), total // target_bytes + (1 if total % target_bytes else 0)))


class _Attempt:
    """One attempt at writing partition ``pid``: the fragments it reads
    (``group``, without the ``skipped`` ones), its directory, and the
    tallies of its gate tasks."""

    def __init__(self, pid: int, group: list[str], out: str,
                 skipped: list[str]):
        self.pid, self.group, self.out, self.skipped = pid, group, out, skipped
        self.cfg: GateConfig | None = None  # sized to the partition's rows
        self.rows: int | None = None  # the footers' count, if they have one
        self.read = self.written = 0
        self.running = 0  # gate tasks and readers, started or queued
        self.error: Exception | None = None


def run_gate(
    input_path: str | list[str],
    out_dir: str,
    cfg: GateConfig = DEFAULT_CONFIG,
    n_partitions: int | None = None,
    input_format: str = "parquet",
) -> dict:
    """Execute the gate over all input fragments with resume.

    Layout::

        out_dir/docs/partition=K/*.parquet   (atomic per partition)
        out_dir/manifest.jsonl               (completed partitions)
        out_dir/metrics.json                 (global summary)

    One driver loop runs every pending partition: it plans a partition
    from its footers, submits a gate task per bounded work item and
    queues a reader per other item, and ``ray.wait``s on every pending
    gate task and reader. A reader's tables are handed to gate tasks as
    they arrive. A partition or reader starts only while fewer than
    2 × cluster-CPU gate tasks are pending, and one reader runs at a
    time, so partition N+1's tasks fill the CPUs that partition N's
    last tasks leave idle while the object store holds a bounded
    number of pages. When a
    partition's last task is done, the driver checks its rows
    (Σ written == Σ read, and == the footers' count where they count
    the rows), renames its directory into place and appends its
    manifest record. A failed attempt waits for all of its tasks before
    its fragments are probed and it is retried without the unreadable
    ones; any other failure starts nothing more and is raised once
    every started task is done. Partitions stay independent, so outputs
    do not depend on the order they finish in.

    Returns the metrics dict (the analog of the reference's global
    summary JSON, ``detect_pitfalls_main.py:396-409``).
    """
    if input_format not in INPUT_FORMATS:
        raise ValueError(f"unsupported input_format {input_format!r}")
    suffix = format_suffixes(input_format)
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
            f"no {', '.join('*' + x for x in suffix)} fragments in "
            f"{input_path!r} (directory is non-empty — wrong input_format?)"
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
    import sys
    from collections import deque

    def attempt_dir(pid: int, i: int) -> str:
        # one directory per attempt: the retry of a partition never
        # writes where its failed attempt did
        return os.path.join(docs_root, f".tmp-partition={pid}.{i}")

    def _probe_bad_fragments(frag_group: list[str]) -> list[str]:
        """Fragments that cannot be FULLY read — the engine's analog of
        the reference's skip-on-parse-error input policy
        (``detect_pitfalls_main.py:316-318``). A full read (not just
        the footer) so mid-file page corruption is classified too; for
        JSONL, every line must parse. Only invoked on the FAILURE
        path, so the happy path never pays a probe per fragment."""
        bad = []
        for f in frag_group:
            try:
                _format_of(f, input_format).probe(f)
            except Exception:
                bad.append(f)
        return bad

    cap = 2 * _cluster_cpus()
    tasks: dict = {}  # gate task ref → attempt
    readers: dict = {}  # reader → [attempt, item index k, tables yielded]
    to_read: deque = deque()  # readers not yet started: (attempt, k, item)
    todo = deque((pid, fg) for pid, fg in enumerate(parts) if pid not in done)
    failure: list[Exception] = []

    def start(pid: int, group: list[str], out: str, skipped: list[str]) -> None:
        """Plan an attempt at partition ``pid`` from its footers: submit
        a gate task per bounded work item, queue a reader per other
        item."""
        a = _Attempt(pid, group, out, skipped)
        os.makedirs(out, exist_ok=True)  # a partition of no rows writes no file
        try:
            units = []
            for f in group:
                name = _format_name(f, input_format)
                count = FORMATS[name].count_rows
                units.append((f, name, count(f) if count else None))
            rows = sum(sum(c) for _, _, c in units if c)
            a.rows = rows if all(c is not None for _, _, c in units) else None
            a.cfg = _sized_cfg(cfg, rows)
            bs = a.cfg.batch_size
            unit_of = {u[0]: u for u in units}
            items = [(k, json.dumps([input_format, bs, pieces]),
                      [unit_of[p] for p, _ in pieces])
                     for k, pieces in enumerate(_work_items(units, bs))]
        except Exception as e:
            a.error, items = e, []
        for k, item, item_units in items:
            a.running += 1
            if _items_are_bounded(item_units, bs):
                tasks[_gate_work_item.remote(
                    item, f"part-{k:05d}.parquet", out, a.cfg)] = a
            else:
                to_read.append((a, k, item))
        if not a.running:
            finish(a)

    def finish(a: _Attempt) -> None:
        """Commit an attempt whose last task is done, or retry its
        partition without the fragments it could not read, or fail the
        run."""
        if a.error is None and a.rows not in (None, a.read):
            a.error = RuntimeError(
                f"the gate read {a.read} rows of {a.group}, whose footers "
                f"count {a.rows}")
        if a.error is None and a.written != a.read:
            a.error = RuntimeError(
                f"the gate wrote {a.written} rows of the {a.read} it read "
                f"from {a.group}")
        if a.error is None:
            final_dir = os.path.join(docs_root, f"partition={a.pid}")
            os.rename(a.out, final_dir)
            lineage = partition_lineage(final_dir) if a.group else {
                "rows": 0, "kept": 0, "dropped": 0, "rule_lang": {},
            }
            if a.skipped:
                lineage = dict(lineage, skipped_fragments=sorted(a.skipped))
            lineage = dict(lineage, hash_fp=hash_fp)
            manifest.mark_done(a.pid, parts[a.pid], lineage)
            return
        shutil.rmtree(a.out, ignore_errors=True)
        # a retry, or an attempt of a failed run, is not probed again
        skipped = [] if failure or a.skipped else _probe_bad_fragments(a.group)
        if not skipped:  # not an input-corruption failure
            failure.append(a.error)
            return
        print(
            f"[run_gate] partition {a.pid}: skipping {len(skipped)} "
            f"unreadable fragment(s): {skipped}",
            file=sys.stderr,  # stdout stays machine-readable JSON
        )
        # every fragment bad ⇒ an empty partition
        start(a.pid, [f for f in a.group if f not in set(skipped)],
              attempt_dir(a.pid, 1), skipped)

    def admit() -> None:
        """Start the next queued reader, or else the next pending
        partition, while fewer than ``cap`` gate tasks are pending; none
        once the run has failed. One reader runs at a time, so the
        object store holds at most one work item's pages beyond the
        tables of the pending gate tasks. A failed attempt's queued
        readers never start."""
        while to_read or todo:
            if to_read and to_read[0][0].error is not None:
                a = to_read.popleft()[0]
                a.running -= 1
                if not a.running:
                    finish(a)
            elif failure or len(tasks) >= cap or (to_read and readers):
                return
            elif to_read:
                a, k, item = to_read.popleft()
                readers[_read_work_item.remote(item)] = [a, k, 0]
            else:
                pid, fg = todo.popleft()
                # torn previous attempts; a completed write with a torn
                # manifest append
                for d in (attempt_dir(pid, 0), attempt_dir(pid, 1),
                          os.path.join(docs_root, f"partition={pid}")):
                    shutil.rmtree(d, ignore_errors=True)
                start(pid, fg, attempt_dir(pid, 0), [])

    admit()
    while tasks or readers:
        [w], _ = ray.wait([*tasks, *readers], fetch_local=False)
        if isinstance(w, ray.ObjectRefGenerator):
            state = readers[w]
            a, k, j = state
            try:
                pages = next(w)
            except StopIteration:
                del readers[w]
                a.running -= 1
            else:
                state[2] += 1
                if a.error is None:  # a failed attempt's tables are dropped
                    a.running += 1
                    tasks[_gate_work_item.remote(
                        pages, f"part-{k:05d}-{j:05d}.parquet", a.out,
                        a.cfg)] = a
        else:
            a = tasks.pop(w)
            a.running -= 1
            try:
                read, written = ray.get(w)
            except Exception as e:
                a.error = a.error or e
            else:
                a.read += read
                a.written += written
        if not a.running:
            finish(a)
        admit()
    # the attempts a failed run left with readers it never started
    for q in to_read:
        shutil.rmtree(q[0].out, ignore_errors=True)
    if failure:
        raise failure[0]

    # global metrics = merge of the per-partition lineage records —
    # no second pass over the written data
    metrics = metrics_from_records(list(manifest.completed().values()))
    with open(os.path.join(out_dir, "metrics.json"), "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
    return metrics


def parquet_rows(directory: str, exclude: Iterable[str] = ()) -> int:
    """Rows in the parquet files of ``directory`` (those not named in
    ``exclude``), summed from their footers without a data read: the
    row count of a write, checked or reported without running its
    Dataset again."""
    import pyarrow.parquet as pq

    skip = set(exclude)
    return sum(pq.ParquetFile(os.path.join(directory, f)).metadata.num_rows
               for f in os.listdir(directory)
               if f.endswith(".parquet") and not f.startswith(".")
               and f not in skip)


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

    keep = t.column("keep").to_numpy(zero_copy_only=False).astype(bool)
    bits = t.column("rule_bits").to_numpy(zero_copy_only=False).astype(np.int64)
    # a null lang tallies under "None", the same key as a literal "None"
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
    import ray.data

    ds = ray.data.read_parquet(
        docs_root, columns=["detected_lang", "keep", "rule_bits"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        import json as _json

        rec = _tally_decision_table(batch)
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

    import ray.data
    from ray.data.aggregate import Max, Min

    fragments = list_parquet_fragments(
        input_path, format_suffixes(input_format)
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
            ray.data.read_parquet(os.path.join(ep_dir, "docs"), columns=hash_cols)
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
                    ray.data.read_parquet(seen_files, columns=hash_cols)
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
