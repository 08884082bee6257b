"""JSONL source for the pages table — the second input format (the
reference itself consumes JSON documents, ``detect_pitfalls_main.py:
316-318``; Common-Crawl-adjacent corpora frequently arrive as JSONL).

``read`` parses one file with ``pyarrow.json`` and applies the SCHEMA
COERCION boundary the fixed-Arrow-schema engine requires (SURVEY §1.4: dynamic input →
nullable typed columns at the table edge):

 - ``warc_ts``: ISO-8601 string → ``timestamp[us]`` (unparseable →
   null, the null⇒skip discipline);
 - ``html``: base64 string → ``binary`` (absent/empty → null, which
   the extract stage treats as text-fallback);
 - ``url``/``text``/``lang``: cast to string, absent → null.

The coerced table is schema-identical to the parquet path, so the
entire gate pipeline runs unchanged on either format.
"""

from __future__ import annotations

import base64

import pyarrow as pa
import pyarrow.compute as pc

# strict accepted shape: whole ISO-8601 seconds + optional .fraction,
# nothing after (tz offsets and trailing garbage ⇒ null ⇒ skip)
_ISO_TS_RE = r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(?:\.(?P<f>\d{1,6}))?$"


def strict_iso_ts(ts_str: pa.Array | pa.ChunkedArray) -> pa.Array:
    """ISO-8601 whole seconds + optional .fraction → timestamp[us],
    validated as a WHOLE string per row (tz offsets / trailing garbage
    ⇒ null, the null⇒skip discipline) — shared by every string-input
    source (JSONL, CSV, WARC after its mandated-Z normalization).
    Arrow's strptime has no %f, so the fraction is extracted and
    scaled vectorized: µs = int(f) · 10^(6 − len(f))."""
    import numpy as np

    valid = pc.fill_null(pc.match_substring_regex(ts_str, _ISO_TS_RE), False)
    checked = pc.if_else(valid, ts_str, pa.scalar(None, pa.string()))
    base = pc.strptime(
        pc.utf8_slice_codeunits(checked, 0, 19),
        format="%Y-%m-%dT%H:%M:%S",
        unit="us",
        error_is_null=True,
    )
    # an unmatched optional group extracts as "" (not null)
    f_str = pc.fill_null(
        pc.struct_field(pc.extract_regex(checked, _ISO_TS_RE), "f"), ""
    )
    f_len = pc.utf8_length(f_str).to_numpy(zero_copy_only=False).astype(np.int64)
    f_val = pc.cast(
        pc.if_else(pc.equal(f_str, ""), pa.scalar("0"), f_str), pa.int64()
    ).to_numpy(zero_copy_only=False)
    frac_us = f_val * np.power(10, 6 - np.maximum(f_len, 0), dtype=np.int64) * (
        f_len > 0
    )
    return pc.cast(
        pc.add(pc.cast(base, pa.int64()), pa.array(frac_us, pa.int64())),
        pa.timestamp("us"),
    )


def coerce_pages(batch: pa.Table) -> pa.Table:
    """Dynamic JSON columns → the fixed pages schema (extra columns
    are carried through unchanged, e.g. ``doc_id``)."""
    n = len(batch)
    cols: dict = {}
    names = set(batch.column_names)

    def _get_string(name: str):
        if name not in names:
            return pa.nulls(n, pa.string())
        return pc.cast(batch.column(name), pa.string())

    cols["url"] = _get_string("url")
    if "warc_ts" in names and pa.types.is_timestamp(batch.column("warc_ts").type):
        # a caller handed us an ALREADY-TYPED timestamp column (not a
        # JSON string) — accept it as-is, normalizing the unit. The
        # JSONL read path can never reach this branch: ``read``
        # pins warc_ts to string in the reader schema, so every JSON
        # value goes through the strict per-row regex below (Arrow's
        # per-file inference would otherwise accept tz-offset values
        # whole-second files happen to contain — row semantics must not
        # depend on which rows share a file).
        cols["warc_ts"] = pc.cast(batch.column("warc_ts"), pa.timestamp("us"))
    else:
        cols["warc_ts"] = strict_iso_ts(_get_string("warc_ts"))
    if "html" in names:
        raw = batch.column("html").to_pylist()
        decoded = []
        for v in raw:
            if not v:
                decoded.append(None)
                continue
            try:
                decoded.append(base64.b64decode(v, validate=True))
            except Exception:
                decoded.append(None)  # malformed payload ⇒ null ⇒ text fallback
        cols["html"] = pa.array(decoded, pa.binary())
    else:
        cols["html"] = pa.nulls(n, pa.binary())
    cols["text"] = _get_string("text")
    cols["lang"] = _get_string("lang")
    out = pa.table(cols)
    for name in batch.column_names:  # carry extras (doc_id, ...) through
        if name not in out.column_names:
            out = out.append_column(name, batch.column(name))
    return out


# The pages columns are read as STRINGS and coerced by coerce_pages —
# never by Arrow's per-file type inference, whose verdict on warc_ts
# would depend on the other rows in the file (a tz-offset value in an
# all-whole-second file would silently parse; the same value next to a
# fractional one would stay a string). Unknown extra fields still infer.
_PAGES_READ_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.string()),
        ("html", pa.string()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)


def _parse_options():
    import pyarrow.json as pajson

    return pajson.ParseOptions(
        explicit_schema=_PAGES_READ_SCHEMA, unexpected_field_behavior="infer"
    )


def read(path: str):
    """One JSONL fragment → coerced pages tables (the gate's per-task
    reader). Gzip is detected from the suffix. A line longer than the
    parse block straddles two blocks; the parse is retried with the
    block doubled up to the Data context's target block size, as
    ``ray.data.read_json`` does."""
    import pyarrow.json as pajson
    from ray.data import DataContext

    with pa.input_stream(path, compression="detect") as f:
        buf = f.read_buffer()
    opts = pajson.ReadOptions()
    cap = DataContext.get_current().target_max_block_size
    while True:
        try:
            t = pajson.read_json(
                pa.BufferReader(buf), read_options=opts,
                parse_options=_parse_options(),
            )
            break
        except pa.ArrowInvalid as e:
            if "straddling object" not in str(e) or (
                cap is not None and opts.block_size >= cap
            ):
                raise
            opts.block_size *= 2
    yield coerce_pages(t)
