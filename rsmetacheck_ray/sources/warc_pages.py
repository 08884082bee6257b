"""WARC source for the pages table — the THIRD input format, and the
native one for webtext: Common Crawl ships as WARC (ISO 28500), so a
crawl-scale gate run starts here, not at parquet.

Parsed from scratch against the public spec — no external libraries:

 - **Record framing**: ``WARC/1.x`` version line, ``Name: value``
   header lines, blank line, exactly ``Content-Length`` payload bytes,
   then the ``\\r\\n\\r\\n`` record separator.
 - **Per-record gzip members** (``.warc.gz``): real crawl WARCs are a
   CONCATENATION of one gzip member per record (that is what makes a
   petabyte crawl file splittable); stdlib ``zlib`` with ``wbits=31``
   decompresses member-by-member via ``unused_data``.
 - **Record selection**: only ``WARC-Type: response`` records become
   pages; warcinfo/request/metadata records are skipped (they carry no
   page content). The HTTP envelope inside the payload is split at the
   first blank line; payloads that don't start with ``HTTP/`` are
   taken whole (``identity`` payloads).
 - **Field mapping**: ``WARC-Target-URI`` (angle-bracket wrapping of
   WARC 1.0 stripped) → ``url``; ``WARC-Date`` → ``warc_ts``. The spec
   mandates UTC ``Z`` timestamps, so a trailing ``Z`` is normalized
   away and the result flows through the SAME strict whole-string
   regex as every other source (``jsonl_pages.strict_iso_ts``) — a
   numeric offset (spec-violating) still nulls ⇒ skips.
 - **Skip-on-error**: a malformed record header, bad Content-Length,
   or truncated payload abandons the REST of that file (framing gives
   no reliable resync point) but keeps every record parsed before it —
   the same corrupt-fragment lineage discipline as the JSONL source.

Scale shape: one read per WARC file (crawl files are ~1 GiB by
convention — the same unit real pipelines parallelize over), emitting
the standard pages schema so the whole gate runs unchanged; parsing
is zero-copy slicing of one bytes object per file.
"""

from __future__ import annotations

import zlib

import pyarrow as pa

from .jsonl_pages import strict_iso_ts


def _gunzip_members(data: bytes, strict: bool = False) -> bytes:
    """Concatenated gzip members → raw bytes. Lenient mode stops at a
    truncated member, keeping everything before it; strict mode raises
    (the gate's whole-fragment skip lineage, like the JSONL policy)."""
    parts: list[bytes] = []
    buf = data
    while buf:
        o = zlib.decompressobj(31)
        try:
            parts.append(o.decompress(buf))
            parts.append(o.flush())
        except zlib.error:
            if strict:
                raise ValueError("corrupt gzip member")
            break
        if not o.eof:  # truncated final member
            if strict:
                raise ValueError("truncated gzip member")
            break
        buf = o.unused_data
    return b"".join(parts)


def parse_warc(data: bytes, strict: bool = False) -> pa.Table:
    """One WARC file's bytes → pages rows (url, warc_ts as ISO string,
    html binary, text/lang null). Gzip detected by magic. Lenient mode
    (default) abandons the rest of the file at a framing violation,
    keeping prior records; strict mode raises instead — the gate read
    path uses strict so a corrupt fragment is SKIPPED AND RECORDED in
    the resume lineage (the JSONL fragment policy), never silently
    half-read."""

    def _fail(msg: str) -> bool:
        if strict:
            raise ValueError(msg)
        return True

    if data[:2] == b"\x1f\x8b":
        data = _gunzip_members(data, strict=strict)
    urls: list[str | None] = []
    tss: list[str | None] = []
    htmls: list[bytes | None] = []
    langs: list[str | None] = []
    pos, n = 0, len(data)
    while pos < n:
        while data.startswith(b"\r\n", pos):  # inter-record separators
            pos += 2
        if pos >= n:
            break
        if not data.startswith(b"WARC/", pos):
            if _fail(f"bad record framing at byte {pos}"):
                break  # lenient: abandon the rest of the file
        hdr_end = data.find(b"\r\n\r\n", pos)
        if hdr_end < 0:
            if _fail("unterminated header block"):
                break
        lines = data[pos:hdr_end].decode("utf-8", "replace").split("\r\n")
        fields: dict[str, str] = {}
        for line in lines[1:]:
            k, sep, v = line.partition(":")
            if sep:
                fields[k.strip().lower()] = v.strip()
        try:
            clen = int(fields["content-length"])
            if clen < 0:
                raise ValueError(clen)
        except (KeyError, ValueError):
            if _fail("missing or invalid Content-Length"):
                break
        body_start = hdr_end + 4
        body_end = body_start + clen
        if body_end > n:
            if _fail("truncated payload"):
                break  # lenient: drop the torn tail record
        payload = data[body_start:body_end]
        pos = body_end
        if fields.get("warc-type") != "response":
            continue
        uri = fields.get("warc-target-uri")
        if uri and uri.startswith("<") and uri.endswith(">"):
            uri = uri[1:-1]  # WARC 1.0 angle-bracket form
        ts = fields.get("warc-date")
        if ts and ts.endswith("Z"):
            ts = ts[:-1]  # spec-mandated UTC Z; offsets stay ⇒ null
        lang = None
        if payload.startswith(b"HTTP/"):
            split = payload.find(b"\r\n\r\n")
            body = payload[split + 4 :] if split >= 0 else b""
            # the declared-language hint rides the standard HTTP header
            for hline in payload[:max(split, 0)].split(b"\r\n")[1:]:
                k, sep, v = hline.partition(b":")
                if sep and k.strip().lower() == b"content-language":
                    lang = v.strip().decode("utf-8", "replace") or None
                    break
        else:
            body = payload  # identity payload: no HTTP envelope
        urls.append(uri)
        tss.append(ts)
        htmls.append(body if body else None)
        langs.append(lang)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.string()),
            "html": pa.array(htmls, pa.binary()),
            # WARC carries no pre-extracted text: the html body IS the
            # content (extract-stage fallback never fires)
            "text": pa.nulls(len(urls), pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )


def probe_warc(path: str) -> int:
    """STRICT parse for the corrupt-fragment classifier: raises on any
    framing violation (the resume loop uses this only on the failure
    path). Returns the response-record count."""
    with open(path, "rb") as fh:
        return parse_warc(fh.read(), strict=True).num_rows


def _coerce(batch: pa.Table) -> pa.Table:
    out = batch.set_column(
        batch.column_names.index("warc_ts"),
        "warc_ts",
        strict_iso_ts(batch.column("warc_ts")),
    )
    return out


def _pages(data: bytes) -> pa.Table:
    """Strict parse + timestamp coercion of one file's bytes."""
    return _coerce(parse_warc(data, strict=True))


def read(path: str):
    """One WARC fragment → its pages table (the gate's per-task
    reader), parsed into page ROWS so the gate sees row-count-true
    tables.

    Strict parse: a corrupt file FAILS the read so the resume loop's
    probe can skip-and-record the fragment, never silently half-read
    it. A ``.gz`` suffix is decompressed by Arrow (an Arrow gzip stream
    also consumes concatenated per-record members), so ``parse_warc``
    sees plain bytes here and gzip corruption surfaces as Arrow's
    ``OSError`` — still caught by the resume loop, which classifies the
    fragment via ``probe_warc``. ``parse_warc``'s own magic-sniffed
    ``_gunzip_members`` governs the direct-bytes API (``probe_warc``
    and library callers), not this stream path."""
    with pa.input_stream(path, compression="detect") as f:
        yield _pages(f.read())


# --- writer (fixtures / tests / round-tripping) -----------------------------


def _record(rtype: str, headers: dict[str, str], payload: bytes) -> bytes:
    head = "".join(f"{k}: {v}\r\n" for k, v in headers.items())
    return (
        f"WARC/1.0\r\nWARC-Type: {rtype}\r\n{head}"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode() + payload + b"\r\n\r\n"


def write_warc(
    path: str, rows: list[dict], compress: bool | None = None
) -> None:
    """Write pages rows (url, warc_ts ISO string, html bytes) as a
    WARC file: a warcinfo record, then one response record per row
    with an HTTP/1.1 envelope. ``compress=True`` (default for a
    ``.gz`` path) emits one gzip member PER RECORD, as real crawl
    files do."""
    if compress is None:
        compress = path.endswith(".gz")
    recs = [
        _record(
            "warcinfo",
            {"WARC-Date": "2023-01-01T00:00:00Z"},
            b"software: rsmetacheck-fixture\r\n",
        )
    ]
    for r in rows:
        body = r.get("html") or b""
        http_head = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
        if r.get("lang"):
            http_head += (
                f"Content-Language: {r['lang']}\r\n".encode()
            )
        payload = http_head + b"\r\n" + body
        ts = r.get("warc_ts") or ""
        if ts and not ts.endswith("Z"):
            ts = ts + "Z"
        recs.append(
            _record(
                "response",
                {
                    "WARC-Target-URI": r.get("url") or "",
                    "WARC-Date": ts,
                },
                payload,
            )
        )
    with open(path, "wb") as fh:
        for rec in recs:
            if compress:
                co = zlib.compressobj(6, zlib.DEFLATED, 31)
                fh.write(co.compress(rec) + co.flush())
            else:
                fh.write(rec)
