"""CSV source for the pages table — the third input format (after
parquet and JSONL), for corpora exported from spreadsheets/warehouses.

``read`` streams one file through ``pyarrow.csv.open_csv``; the
schema boundary REUSES the JSONL coercion (``jsonl_pages.
coerce_pages``): every pages column is read as a STRING and coerced to
the fixed Arrow schema (strict ISO warc_ts, base64 html, null⇒skip) so
the whole gate runs unchanged on any of the three formats.

CSV cannot natively distinguish null from the empty string, and the
pages semantics need both (an empty ``text`` document is a real row
the empty_text rule must see; an absent value is a skip). The module
therefore pins a DIALECT:

 - null   ⇔ unquoted empty field
 - ``""`` ⇔ quoted empty field

Writers must quote every non-null value (Arrow's ``all_valid``
quoting style — ``write_pages_csv`` does); the reader sets
``strings_can_be_null=True`` / ``quoted_strings_can_be_null=False``
to decode exactly that. Text values may contain newlines (quoted),
so the parser enables ``newlines_in_values``.
"""

from __future__ import annotations

import pyarrow as pa

from .jsonl_pages import _PAGES_READ_SCHEMA, coerce_pages


def _csv_options():
    import pyarrow.csv as pacsv

    convert = pacsv.ConvertOptions(
        column_types={f.name: pa.string() for f in _PAGES_READ_SCHEMA},
        strings_can_be_null=True,
        quoted_strings_can_be_null=False,
        # ONLY the empty field is null — pyarrow's default list would
        # also nullify unquoted NA/NULL/nan/N/A etc., silently dropping
        # real values and breaking the pinned dialect
        null_values=[""],
    )
    parse = pacsv.ParseOptions(newlines_in_values=True)
    return parse, convert


def read(path: str):
    """One CSV fragment → coerced pages tables, one per parse block
    (the gate's per-task reader; gzip detected from the suffix)."""
    import pyarrow.csv as pacsv

    parse, convert = _csv_options()
    with pa.input_stream(path, compression="detect") as f:
        with pacsv.open_csv(
            f, parse_options=parse, convert_options=convert
        ) as reader:
            for batch in reader:
                yield coerce_pages(pa.Table.from_batches([batch]))


def probe_csv(path: str) -> None:
    """Raise if the file cannot be FULLY parsed under the dialect —
    the corrupt-fragment probe, streamed batch-by-batch so a resume
    partition is never materialized in driver memory."""
    import pyarrow.csv as pacsv

    parse, convert = _csv_options()
    with pacsv.open_csv(
        path, parse_options=parse, convert_options=convert
    ) as reader:
        for _batch in reader:
            pass


def write_pages_csv(table: pa.Table, path: str) -> None:
    """Write a pages-shaped table under the module's dialect (every
    non-null value quoted; timestamps to strict ISO; html to base64).
    Test/export helper — production output stays parquet."""
    import base64

    import pyarrow.csv as pacsv
    import pyarrow.compute as pc

    cols: dict = {}
    for name in table.column_names:
        col = table.column(name)
        if pa.types.is_timestamp(col.type):
            # Arrow's %S includes the fractional part for sub-second
            # units, so this is already the strict ISO shape the
            # coercion regex accepts ("...:17.500000")
            cols[name] = pc.strftime(
                pc.cast(col, pa.timestamp("us")), format="%Y-%m-%dT%H:%M:%S"
            )
        elif pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type):
            cols[name] = pa.array(
                [
                    None if v is None else base64.b64encode(v).decode("ascii")
                    for v in col.to_pylist()
                ],
                pa.string(),
            )
        else:
            cols[name] = pc.cast(col, pa.string()) if not pa.types.is_string(
                col.type
            ) else col
    pacsv.write_csv(
        pa.table(cols),
        path,
        write_options=pacsv.WriteOptions(quoting_style="all_valid"),
    )
