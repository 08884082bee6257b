"""Tar-archive source for the pages table — the seventh input format
(after parquet, JSONL, CSV, WARC, ORC and Arrow IPC): a crawl-dump
``.tar`` whose members are one JSON page object each, the "directory
of files, shipped as one archive" shape common for small-team corpus
handoffs.

Like the WARC/ORC sources, ``read`` walks the tar stream
(pure-stdlib ``tarfile``) and emits page ROWS in member-grouped
tables, so the gate sees row-count-true tables. Field semantics are IDENTICAL to the JSONL path: every member
routes through the same ``coerce_pages`` boundary (strict ISO
``warc_ts`` — tz offsets ⇒ null ⇒ skip; base64 ``html``; extra fields
carried through), so tar-vs-jsonl parity is structural, not
re-implemented.

Strictness contract: a malformed member (non-JSON payload, non-object
root) fails the read — corruption surfaces, never silently drops
— while the resume loop's ``probe_tar`` streams member-by-member to
classify a fragment as skippable."""

from __future__ import annotations

import io
import json
import tarfile

import pyarrow as pa

from ..schema import PAGES_COLUMNS
from .jsonl_pages import coerce_pages

# members per emitted block: big enough to amortize per-block overhead,
# small enough that a block of ~100 KB pages stays ~50 MB
_MEMBERS_PER_BLOCK = 512

_STR_FIELDS = ("url", "warc_ts", "html", "text", "lang")


def _rows_to_table(rows: list[dict]) -> pa.Table:
    """Member dicts → string-typed batch → the shared coercion
    boundary (same discipline as _PAGES_READ_SCHEMA: no value ever
    meets Arrow's cross-row type inference)."""
    cols = {}
    for f in _STR_FIELDS:
        cols[f] = pa.array(
            [None if r.get(f) is None else str(r.get(f)) for r in rows],
            pa.string(),
        )
    if any("doc_id" in r for r in rows):
        cols["doc_id"] = pa.array(
            [r.get("doc_id") for r in rows], pa.int64()
        )
    return coerce_pages(pa.table(cols))


def read(path: str):
    """One tar fragment → pages tables of ``_MEMBERS_PER_BLOCK``
    members each (the gate's per-task reader)."""
    with pa.input_stream(path, compression="detect") as f:
        yield from _members(f.read())


def _members(data: bytes):
    """Pages tables (pages columns only) from one archive's bytes."""
    tf = tarfile.open(fileobj=io.BytesIO(data), mode="r:*")
    rows: list[dict] = []
    for member in tf:
        if not member.isfile():
            continue
        payload = tf.extractfile(member).read()
        obj = json.loads(payload)  # malformed member ⇒ strict task failure
        if not isinstance(obj, dict):
            raise ValueError(
                f"tar member {member.name!r} is not a JSON object"
            )
        rows.append(obj)
        if len(rows) >= _MEMBERS_PER_BLOCK:
            yield _rows_to_table(rows).select(PAGES_COLUMNS)
            rows = []
    if rows or not tf.getmembers():
        # an empty archive still yields one empty, typed block so the
        # schema stays stable
        yield _rows_to_table(rows).select(PAGES_COLUMNS)


def probe_tar(path: str) -> None:
    """Stream-validate one archive member-by-member (the resume loop's
    corruption classification); raises on the first bad member."""
    with tarfile.open(path, mode="r:*") as tf:
        for member in tf:
            if not member.isfile():
                continue
            obj = json.loads(tf.extractfile(member).read())
            if not isinstance(obj, dict):
                raise ValueError(f"member {member.name!r} not an object")


def write_pages_tar(table: pa.Table, path: str) -> None:
    """Test/fixture helper: one JSON member per row (html bytes →
    base64 string, timestamps → ISO strings), deterministic member
    order and metadata."""
    import base64

    with tarfile.open(path, mode="w") as tf:
        for i in range(table.num_rows):
            row = {}
            for name in table.column_names:
                v = table.column(name)[i].as_py()
                if v is None:
                    continue
                if isinstance(v, bytes):
                    v = base64.b64encode(v).decode("ascii")
                elif hasattr(v, "isoformat"):
                    v = v.isoformat()
                row[name] = v
            payload = json.dumps(row, sort_keys=True).encode("utf-8")
            info = tarfile.TarInfo(name=f"page-{i:08d}.json")
            info.size = len(payload)
            info.mtime = 0
            tf.addfile(info, io.BytesIO(payload))
