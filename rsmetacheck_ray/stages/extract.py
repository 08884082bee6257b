"""HTML → text extraction stage (SURVEY §7.2 step 3).

The analog of the reference's corpus-producing extraction step
(``run_somef.py:5-16`` shells out per repo; here the "extractor" is a
pure, stateless, byte-deterministic transform — the invariant pinned by
``BASELINE.json.input_hint``: byte-identical extracted text per url
across runs and parallelism levels).

Fully vectorized, zero Python-per-row work. The three tag passes
(steps 2-4), which read every html byte, run as ONE polars query on
polars' Rust regex engine; the entity and whitespace passes are
pyarrow.compute (RE2) kernels over only the rows their guards select.

Spec (frozen):
  1. utf-8 decode of the ``html`` binary column
  2. drop ``<head>…</head>`` and boilerplate blocks
     (``<script>``/``<style>``/``<nav>``/``<header>``/``<footer>``)
  3. block-close tags (``</p> </h1..6> </li> </div> <br>``) → newline
  4. strip all remaining tags
  5. unescape the 6 common entities
  6. whitespace-normalize: collapse runs of spaces/tabs, strip each
     line, drop empty lines

Rows with null ``html`` fall back to the ``text`` column (trusted
pre-extracted text); rows with neither become empty strings.
"""

from __future__ import annotations

import functools

import polars as pl
import pyarrow as pa
import pyarrow.compute as pc

# The spec's tag passes as RE2 patterns (``tests/test_extract.py`` runs
# them as the reference; the gate runs their Rust spellings below).
# (?s) = dotall for block removal; (?i) case-insensitive tag names. The
# six boilerplate blocks are removed in ONE alternation
# pass (RE2 has no backreferences, so each tag pair is spelled out) —
# each removal pass costs a full scan of every html byte, and at
# 100 TB the pass count is the extraction budget. Equivalent to the
# sequential per-tag passes for non-pathological nesting: each branch
# is lazy, ending at the first matching closer.
_BLOCK_REMOVALS = [
    r"(?is)(?:<head\b.*?</head>|<script\b.*?</script>|<style\b.*?</style>"
    r"|<nav\b.*?</nav>|<header\b.*?</header>|<footer\b.*?</footer>)",
]
_NEWLINE_TAGS = r"(?i)</(?:p|h[1-6]|li|div|tr|title)>|<br\s*/?>"
_ANY_TAG = r"(?s)<[^>]*>"
# The same passes spelled for Rust's regex engine (polars), which runs
# them chained as ONE query. Rust's \b and \s are Unicode-aware, so they
# are written as RE2's ASCII ones; (?i) on ASCII letters, `.` and [^>]
# match the same codepoints in both engines (tests/test_regex_engines.py).
_BLOCK_REMOVAL_RUST = (
    r"(?is)(?:<head(?-u:\b).*?</head>|<script(?-u:\b).*?</script>"
    r"|<style(?-u:\b).*?</style>|<nav(?-u:\b).*?</nav>"
    r"|<header(?-u:\b).*?</header>|<footer(?-u:\b).*?</footer>)"
)
_NEWLINE_TAGS_RUST = r"(?i)</(?:p|h[1-6]|li|div|tr|title)>|<br[\t\n\f\r ]*/?>"
_TAG_PASSES = (
    pl.col("s")
    .str.replace_all(_BLOCK_REMOVAL_RUST, "")
    .str.replace_all(_NEWLINE_TAGS_RUST, "\n")
    .str.replace_all(_ANY_TAG, "")
)
_ENTITIES = [
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", '"'),
    ("&#39;", "'"),
    ("&nbsp;", " "),
    ("&copy;", "(c)"),
    ("&amp;", "&"),  # must come last
]
# Whitespace normalize, in order: collapse horizontal runs, trim line
# edges, collapse newline runs. The first pattern matches only runs
# that actually change (≥2 chars, or a lone \t/\r): a plain
# `[ \t\r]+` also matches every single space, making RE2 rewrite the
# whole column even when output == input.
#
# Each pass, and the entity replaces, runs only on the rows where one
# of its guards matches (``_only_where``). A guard is an RE2 pattern
# that holds on every row its pass can change, so skipping the other
# rows is exact; the guards are literals (RE2 finds them with memchr)
# or anchored at one edge. Mostly clean rows pay one cheap scan per
# pass instead of a rewrite of every byte.
_WS_PASSES = [
    # a run of two, or a tab or CR
    (r"[ \t\r]{2,}|[\t\r]", " ", ("\t", "\r", "  ")),
    # a space next to a line end or a document edge
    (r"(?m)^ +| +$", "", ("\n ", " \n", "^ ", " $")),
    (r"\n{2,}", "\n", ("\n\n",)),
]
_ENTITY_GUARDS = ("&",)


def _only_where(s: pa.Array, guards: tuple[str, ...], fn) -> pa.Array:
    """``fn(s)``, with ``fn`` run only on the rows where one of the RE2
    ``guards`` matches and the other rows passed through (take,
    ``fn``, ``replace_with_mask``). Equal to ``fn(s)`` whenever ``fn``
    leaves every row without a guard match as it is."""
    hit = pc.match_substring_regex(s, guards[0])
    for g in guards[1:]:
        hit = pc.or_(hit, pc.match_substring_regex(s, g))
    hit = pc.fill_null(hit, False)
    n = pc.sum(hit).as_py() or 0
    if n == 0:
        return s
    if n == len(s):
        return fn(s)
    return pc.replace_with_mask(s, hit, fn(s.filter(hit)))


def _unescape(s: pa.Array) -> pa.Array:
    for ent, repl in _ENTITIES:
        s = pc.replace_substring(s, pattern=ent, replacement=repl)
    return s


def strip_tags(s: pa.Array) -> pa.Array:
    """Steps 2-4 (block removal, newline tags, any tag) over a string
    array, as one polars query on the calling thread; the result has
    ``s``'s type."""
    out = pl.DataFrame({"s": pl.from_arrow(s)}).select_seq(_TAG_PASSES).to_series()
    return out.to_arrow().cast(s.type)


def extract_text_array(html: pa.Array) -> pa.Array:
    """Vectorized extraction over a binary/string array → string array."""
    # Arrow's cast validates the UTF-8
    s = pc.cast(html, pa.string()) if pa.types.is_binary(html.type) or pa.types.is_large_binary(html.type) else html
    s = strip_tags(s)
    s = _only_where(s, _ENTITY_GUARDS, _unescape)
    for pat, repl, guards in _WS_PASSES:
        s = _only_where(s, guards, functools.partial(
            pc.replace_substring_regex, pattern=pat, replacement=repl))
    # the spec's last pass replaces `^\n|\n$` with "": no `\n\n`
    # survives the pass above, so a document starts and ends with at
    # most one newline, and trimming every edge newline is the same
    return pc.utf8_trim(s, "\n")


def extract_stage(batch: pa.Table) -> pa.Table:
    """map_batches fn: adds ``extracted_text`` and DROPS the wide
    ``html`` column so the heavy binary payload never travels past this
    stage (SURVEY §7.4 "project it away early")."""
    html = batch.column("html")
    extracted = extract_text_array(html.combine_chunks() if isinstance(html, pa.ChunkedArray) else html)
    # null html → fall back to the trusted pre-extracted `text` column
    if batch.column("html").null_count > 0:
        extracted = pc.coalesce(extracted, batch.column("text"))
    extracted = pc.coalesce(extracted, pa.scalar("", pa.string()))
    out = batch.drop_columns(["html"])
    return out.append_column("extracted_text", extracted)
