"""Avro Object Container File source for the pages table — the EIGHTH
input format (after parquet, JSONL, CSV, WARC, ORC, Arrow IPC and
tar): the row-oriented interchange format log/stream pipelines hand
off in (Kafka dumps, Sqoop/NiFi exports).

Parsed FROM SCRATCH against the public Avro 1.11 spec — this container
has no avro library, so both the decoder and the test/fixture encoder
implement the wire format directly:

 - **Container framing**: magic ``Obj\\x01``; file-metadata map
   (``avro.schema`` JSON, ``avro.codec``); 16-byte sync marker; then
   data blocks of ``long count, long byteLen, bytes, sync`` until EOF.
   Every block's trailing sync must equal the header's — a mismatch
   means torn/corrupt framing and fails the read.
 - **Codecs**: ``null`` and ``deflate`` (raw zlib, ``wbits=-15``), the
   two the spec requires/recommends without external libraries.
 - **Binary encoding**: zigzag varint longs/ints; length-prefixed
   strings/bytes; little-endian IEEE double; 1-byte boolean; unions as
   ``long branch-index`` + value. Supported field types: the
   primitives plus 2-branch ``["null", T]`` unions — the shape real
   tabular Avro uses for nullable columns.
 - **Strictness**: a wrong magic, unknown codec, sync mismatch, block
   whose decoded record count or byte length disagrees with its
   header, or trailing garbage inside a block all raise — the gate
   read path wants corrupt fragments to FAIL the task so the resume
   loop's ``probe_avro`` can classify and skip them (the same lineage
   discipline as every other source).

Field semantics are IDENTICAL to the JSONL path: decoded rows route
through the same ``coerce_pages`` boundary (strict ISO ``warc_ts`` —
tz offsets ⇒ null ⇒ skip; ``html`` as real Avro ``bytes``, no base64
detour; extra fields like ``doc_id`` carried through), so avro-vs-
parquet parity is structural.

Scale shape: one read per container file; blocks are decoded
sequentially and emitted as row-true Arrow tables, like the
WARC/ORC/tar readers. Corruption fails the read strictly, for the
resume loop's probe-and-skip path.
"""

from __future__ import annotations

import io
import json
import struct
import zlib

import pyarrow as pa

from ..schema import PAGES_COLUMNS
from .jsonl_pages import coerce_pages

MAGIC = b"Obj\x01"

# records per emitted Arrow block (an OCF block may hold any count;
# re-group so downstream operators see uniformly sized blocks)
_ROWS_PER_BLOCK = 4096


# ---------------------------------------------------------------------------
# binary decoding primitives (Avro spec §Binary Encoding)
# ---------------------------------------------------------------------------

class _Reader:
    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def long(self) -> int:
        """Zigzag varint."""
        b = self.buf
        pos = self.pos
        shift = 0
        acc = 0
        while True:
            if pos >= len(b):
                raise ValueError("truncated varint")
            byte = b[pos]
            pos += 1
            acc |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 70:
                raise ValueError("varint too long")
        self.pos = pos
        return (acc >> 1) ^ -(acc & 1)

    def raw(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.buf):
            raise ValueError("truncated bytes")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def bytes_(self) -> bytes:
        return self.raw(self.long())

    def string(self) -> str:
        return self.bytes_().decode("utf-8")

    def double(self) -> float:
        return struct.unpack("<d", self.raw(8))[0]

    def boolean(self) -> bool:
        v = self.raw(1)[0]
        if v not in (0, 1):
            raise ValueError(f"invalid boolean byte {v}")
        return v == 1

    def at_end(self) -> bool:
        return self.pos >= len(self.buf)


def _field_decoder(ftype):
    """Decoder fn for a primitive or ["null", T] union field type."""
    if isinstance(ftype, list):
        if len(ftype) != 2 or "null" not in ftype:
            raise ValueError(f"unsupported union {ftype!r}")
        other = ftype[0] if ftype[1] == "null" else ftype[1]
        null_idx = ftype.index("null")
        inner = _field_decoder(other)

        def union(r: _Reader):
            idx = r.long()
            if idx == null_idx:
                return None
            if idx == 1 - null_idx:
                return inner(r)
            raise ValueError(f"union branch {idx} out of range")

        return union
    if ftype == "string":
        return _Reader.string
    if ftype == "bytes":
        return _Reader.bytes_
    if ftype in ("long", "int"):
        return _Reader.long
    if ftype == "double":
        return _Reader.double
    if ftype == "boolean":
        return _Reader.boolean
    if ftype == "null":
        return lambda r: None
    raise ValueError(f"unsupported Avro type {ftype!r}")


def _schema_fields(schema_json: bytes) -> list[tuple[str, object]]:
    schema = json.loads(schema_json)
    if schema.get("type") != "record":
        raise ValueError("top-level Avro schema must be a record")
    return [(f["name"], f["type"]) for f in schema["fields"]]


def parse_avro(data: bytes) -> "pa.Table":
    """One container file's bytes → one Arrow table of decoded rows
    (string/bytes/int64/float64/bool columns by schema). Always
    strict — see the module docstring."""
    r = _Reader(data)
    if r.raw(4) != MAGIC:
        raise ValueError("bad Avro magic")
    meta: dict[str, bytes] = {}
    while True:
        count = r.long()
        if count == 0:
            break
        if count < 0:  # spec: negative count precedes a byte size
            count = -count
            r.long()
        for _ in range(count):
            k = r.string()  # NB: key read must precede the value read
            meta[k] = r.bytes_()
    sync = r.raw(16)
    codec = meta.get("avro.codec", b"null").decode("ascii")
    if codec not in ("null", "deflate"):
        raise ValueError(f"unsupported Avro codec {codec!r}")
    fields = _schema_fields(meta["avro.schema"])
    decoders = [(name, _field_decoder(ft)) for name, ft in fields]

    columns: dict[str, list] = {name: [] for name, _ in decoders}
    while not r.at_end():
        n_rec = r.long()
        blen = r.long()
        block = r.raw(blen)
        if r.raw(16) != sync:
            raise ValueError("sync marker mismatch (torn block)")
        if codec == "deflate":
            block = zlib.decompress(block, wbits=-15)
        br = _Reader(block)
        for _ in range(n_rec):
            for name, dec in decoders:
                columns[name].append(dec(br))
        if not br.at_end():
            raise ValueError("trailing bytes inside Avro block")

    def _arrow_type(ft):
        t = ft
        if isinstance(ft, list):
            t = ft[0] if ft[1] == "null" else ft[1]
        return {
            "string": pa.string(),
            "bytes": pa.binary(),
            "long": pa.int64(),
            "int": pa.int64(),
            "double": pa.float64(),
            "boolean": pa.bool_(),
            "null": pa.null(),
        }[t]

    return pa.table(
        {
            name: pa.array(columns[name], _arrow_type(ft))
            for (name, ft) in fields
        }
    )


def _coerce_avro(t: pa.Table) -> pa.Table:
    """The shared coercion boundary, minus base64: Avro carries html
    as REAL ``bytes`` (no JSON text detour), so the html column passes
    through as-is while every other field gets the identical strict
    semantics (ISO warc_ts regex, string casts, extras carried)."""
    import pyarrow.compute as pc

    html = t.column("html") if "html" in t.column_names else None
    rest = t.drop_columns(["html"]) if html is not None else t
    out = coerce_pages(rest)  # sets html to nulls when absent
    if html is not None:
        out = out.set_column(
            out.column_names.index("html"),
            "html",
            pc.cast(html, pa.binary()),
        )
    return out


def _pages(data: bytes):
    """Pages tables of ``_ROWS_PER_BLOCK`` rows from one container
    file's bytes."""
    t = parse_avro(data)
    if t.num_rows == 0:
        yield _coerce_avro(t)[:0].select(PAGES_COLUMNS)
        return
    for ofs in range(0, t.num_rows, _ROWS_PER_BLOCK):
        yield _coerce_avro(t.slice(ofs, _ROWS_PER_BLOCK)).select(PAGES_COLUMNS)


def read(path: str):
    """One Avro fragment → pages tables (the gate's per-task reader)."""
    with pa.input_stream(path, compression="detect") as f:
        yield from _pages(f.read())


def probe_avro(path: str) -> int:
    """Strict full decode for the corrupt-fragment classifier; returns
    the record count."""
    with open(path, "rb") as fh:
        return parse_avro(fh.read()).num_rows


# ---------------------------------------------------------------------------
# encoder — test/fixture/datagen side (also from scratch)
# ---------------------------------------------------------------------------

def _zigzag(v: int) -> bytes:
    acc = (v << 1) ^ (v >> 63)
    out = bytearray()
    while True:
        b = acc & 0x7F
        acc >>= 7
        if acc:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _enc_bytes(v: bytes) -> bytes:
    return _zigzag(len(v)) + v


def _avro_type_of(col_type: pa.DataType) -> object:
    if pa.types.is_string(col_type) or pa.types.is_large_string(col_type):
        return ["null", "string"]
    if pa.types.is_binary(col_type) or pa.types.is_large_binary(col_type):
        return ["null", "bytes"]
    if pa.types.is_integer(col_type):
        return ["null", "long"]
    if pa.types.is_floating(col_type):
        return ["null", "double"]
    if pa.types.is_boolean(col_type):
        return ["null", "boolean"]
    if pa.types.is_timestamp(col_type):
        return ["null", "string"]  # ISO string — the JSONL convention
    raise ValueError(f"no Avro mapping for {col_type}")


def write_pages_avro(
    table: pa.Table,
    path: str,
    codec: str = "null",
    rows_per_block: int = 1024,
    sync: bytes = b"\x00" * 16,
) -> None:
    """Encode an Arrow table as an Avro OCF (nullable-union schema,
    deterministic sync marker) — the fixture dual of ``parse_avro``."""
    if codec not in ("null", "deflate"):
        raise ValueError(f"unsupported codec {codec!r}")
    fields = [
        {"name": n, "type": _avro_type_of(table.schema.field(n).type)}
        for n in table.column_names
    ]
    schema = {"type": "record", "name": "page", "fields": fields}
    buf = io.BytesIO()
    buf.write(MAGIC)
    meta = {
        "avro.schema": json.dumps(schema, sort_keys=True).encode(),
        "avro.codec": codec.encode(),
    }
    buf.write(_zigzag(len(meta)))
    for k, v in sorted(meta.items()):
        buf.write(_enc_bytes(k.encode()))
        buf.write(_enc_bytes(v))
    buf.write(_zigzag(0))
    buf.write(sync)

    cols = [table.column(n).to_pylist() for n in table.column_names]
    for ofs in range(0, table.num_rows, rows_per_block):
        n = min(rows_per_block, table.num_rows - ofs)
        body = bytearray()
        for i in range(ofs, ofs + n):
            for c in cols:
                v = c[i]
                if v is None:
                    body += _zigzag(0)
                    continue
                body += _zigzag(1)
                if isinstance(v, bool):
                    body += b"\x01" if v else b"\x00"
                elif isinstance(v, int):
                    body += _zigzag(v)
                elif isinstance(v, float):
                    body += struct.pack("<d", v)
                elif isinstance(v, bytes):
                    body += _enc_bytes(v)
                else:
                    if hasattr(v, "isoformat"):
                        v = v.isoformat()
                    body += _enc_bytes(str(v).encode("utf-8"))
        data = bytes(body)
        if codec == "deflate":
            data = zlib.compress(data)[2:-4]  # raw: strip zlib wrapper
        buf.write(_zigzag(n))
        buf.write(_zigzag(len(data)))
        buf.write(data)
        buf.write(sync)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())
