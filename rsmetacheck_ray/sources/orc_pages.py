"""ORC source for the pages table — the fifth input format (after
parquet, JSONL, CSV and WARC), for corpora exported from Hive/Spark
warehouses where ORC is the native columnar layout.

``read`` decodes ORC stripes into page ROWS, one table per stripe
(the format's natural unit within a file), so the gate sees
row-count-true tables.

ORC stores native Arrow types (timestamp/binary survive), so unlike
CSV/JSONL there is no string-coercion dialect; the boundary only
normalizes column order and unit (timestamp → µs) to the shared pages
schema. A corrupt file fails its read strictly, and
``probe_orc`` streams stripe-by-stripe for the resume loop's
skip-and-record classification.
"""

from __future__ import annotations

import pyarrow as pa

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


def _stripes(source):
    """One normalized pages table per stripe of an ORC source."""
    import pyarrow.orc as orc

    of = orc.ORCFile(source)
    if of.nstripes == 0:  # header-only file: one empty, typed block
        yield _normalize(of.read())
        return
    for i in range(of.nstripes):
        yield _normalize(pa.Table.from_batches([of.read_stripe(i)]))


def read(path: str):
    """One ORC fragment → pages tables, one per stripe (the gate's
    per-task reader)."""
    yield from _stripes(path)


def probe_orc(path: str) -> int:
    """Raise if the file cannot be FULLY decoded; returns row count.
    Streams stripe-by-stripe so the resume loop's corruption probe
    never materializes a fragment in driver memory."""
    import pyarrow.orc as orc

    of = orc.ORCFile(path)
    rows = 0
    for i in range(of.nstripes):
        rows += of.read_stripe(i).num_rows
    return rows


def write_pages_orc(
    table: pa.Table, path: str, stripe_size: int | None = None
) -> None:
    """Write a pages-shaped table as ORC (test/export helper —
    production output stays parquet). ``stripe_size`` (bytes) bounds
    rows per stripe so multi-stripe files are testable at small
    sizes. The writer checks the stripe size once per written batch
    (1024 rows by default), so a bound is written in batches of 64
    rows."""
    import pyarrow.orc as orc

    kw = {"stripe_size": stripe_size, "batch_size": 64} if stripe_size else {}
    orc.write_table(_normalize(table), path, **kw)
