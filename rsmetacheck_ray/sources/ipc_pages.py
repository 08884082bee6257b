"""Arrow IPC (Feather v2) source for the pages table — the sixth input
format (after parquet, JSONL, CSV, WARC and ORC), for corpora handed
off between Arrow-native tools (Polars/pandas ``to_feather``, Arrow
Flight dumps) where IPC is the zero-copy interchange layout.

``read`` decodes the IPC file into page ROWS, one table per record
batch (the format's natural unit within a file), so the gate sees
row-count-true tables.

IPC stores native Arrow types bit-exactly (timestamp/binary survive
with zero conversion — this is the wire format of Arrow itself), so
the boundary only normalizes column order and timestamp unit to the
shared pages schema. A corrupt file fails its read strictly, and
``probe_ipc`` walks batch-by-batch for the resume loop's
skip-and-record classification.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.ipc as pipc

from ..schema import PAGES_COLUMNS


def _normalize(t: pa.Table) -> pa.Table:
    """Column order + timestamp unit to the shared pages schema."""
    cols = {}
    for name in PAGES_COLUMNS:
        col = t.column(name)
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.timestamp("us"))
        cols[name] = col
    return pa.table(cols)


def _batches(source):
    """One normalized pages table per record batch of an IPC source."""
    reader = pipc.open_file(source)
    if reader.num_record_batches == 0:  # header-only: typed empty
        yield _normalize(reader.read_all())
        return
    for i in range(reader.num_record_batches):
        yield _normalize(pa.Table.from_batches([reader.get_batch(i)]))


def read(path: str):
    """One IPC fragment → pages tables, one per record batch (the
    gate's per-task reader)."""
    with pa.input_stream(path, compression="detect") as f:
        buf = f.read_buffer()
    yield from _batches(pa.BufferReader(buf))


def probe_ipc(path: str) -> int:
    """Raise if the file cannot be FULLY decoded; returns row count.
    Batches are read one at a time and discarded so the resume loop's
    corruption probe never materializes a fragment in driver memory."""
    with pipc.open_file(path) as reader:
        rows = 0
        for i in range(reader.num_record_batches):
            rows += reader.get_batch(i).num_rows
        return rows


def count_rows_ipc(path: str) -> int:
    """Row count from the memory-mapped footer walk: batch headers are
    touched, data pages are not faulted in — the IPC analog of the
    parquet/ORC free footer count used to size small-partition
    batches."""
    with pa.memory_map(path) as source:
        reader = pipc.open_file(source)
        return sum(
            reader.get_batch(i).num_rows
            for i in range(reader.num_record_batches)
        )


def write_pages_ipc(
    table: pa.Table, path: str, max_chunksize: int | None = None
) -> None:
    """Write a pages-shaped table as an IPC file (test/export helper —
    production output stays parquet). ``max_chunksize`` bounds rows per
    record batch so multi-batch files are testable at small sizes."""
    t = _normalize(table)
    with pipc.new_file(path, t.schema) as writer:
        writer.write_table(t, max_chunksize=max_chunksize)
