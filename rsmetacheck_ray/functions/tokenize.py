"""Token counting — whitespace and BPE-style pretokenization.

The training-data-pipeline analog of the reference's per-doc ratio
counters (``w001.py:114-115``): token counts feed length gates and
cost estimation.

 - :func:`ws_token_stats`: the gate's ``\\S+`` token counts and Gopher
   repetition stats, from one numpy pass over the Arrow UTF-8 buffer.
 - :func:`count_ws_tokens`: ``\\S+`` runs as one RE2 pass.
 - :func:`count_bpe_tokens`: a GPT-2-style pretokenizer alternation —
   letter runs, digit runs, punctuation runs, each with an optional
   leading space, plus whitespace runs. RE2 has no lookahead, so the
   canonical GPT-2 ``\\s+(?!\\S)`` branch is simplified to ``\\s+``;
   counts are within ~1% of a real BPE pretokenizer on web text and
   exactly reproducible in DuckDB (same RE2 pattern).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .arrowbuf import varwidth_bytes

WS_TOKEN_RE = r"\S+"
# RE2's \s is exactly [\t\n\f\r ] (ASCII, no \v) — this split class is
# the complement of WS_TOKEN_RE's \S, so splitting here and counting
# with count_ws_tokens always agree, and both agree with the DuckDB
# oracles' regexp_extract_all(text, '\S+'). pc.utf8_split_whitespace
# is NOT equivalent: it splits on Unicode whitespace (U+00A0, U+2028,
# U+3000, …), silently diverging from every SQL oracle on non-ASCII
# web text.
_WS_SPLIT_RE = r"[\t\n\f\r ]+"


def split_ws_tokens(arr: pa.Array | pa.ChunkedArray) -> pa.ListArray:
    """Per-string token lists under the engine's canonical ``\\S+``
    semantics — the splitter dual of :func:`count_ws_tokens`
    (``len(tokens) == n_tokens`` for every document). Boundary empties
    (before a leading / after a trailing separator) survive the split;
    callers mask ``""`` tokens exactly as before."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return pc.split_pattern_regex(pc.fill_null(arr, ""), pattern=_WS_SPLIT_RE)


def tokens_with_doc_index(
    arr: pa.Array | pa.ChunkedArray,
) -> tuple[np.ndarray, pa.DictionaryArray | None]:
    """The shared ``(doc_idx, dictionary-encoded tokens)`` projection
    every token-level batch stage starts from: ONE canonical-WS split
    for the batch, flatten, per-token document index, empty-token mask,
    dictionary encoding so downstream work (hashing, weight lookup)
    runs over the batch's UNIQUE vocabulary only. Returns
    ``(empty, None)`` when the batch has no tokens."""
    words = split_ws_tokens(arr)
    off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = words.flatten()
    doc_idx = np.repeat(np.arange(len(words), dtype=np.int64), np.diff(off))
    mask = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    doc_idx = doc_idx[mask]
    if len(doc_idx) == 0:
        return doc_idx, None
    return doc_idx, flat.filter(pa.array(mask)).dictionary_encode()
# order matters: contraction suffixes first, then spaced runs
BPE_TOKEN_RE = (
    r"'(?:s|d|m|t|ll|ve|re)"
    r"| ?\p{L}+"
    r"| ?\p{N}+"
    r"| ?[^\s\p{L}\p{N}]+"
    r"|\s+"
)


def count_ws_tokens(arr: pa.Array) -> pa.Array:
    return pc.cast(pc.count_substring_regex(arr, WS_TOKEN_RE), pa.int64())


def count_bpe_tokens(arr: pa.Array) -> pa.Array:
    return pc.cast(pc.count_substring_regex(arr, BPE_TOKEN_RE), pa.int64())


# byte -> "inside a \S+ token": RE2's \s bytes are the only separators;
# bytes of multi-byte UTF-8 codepoints are >= 0x80, so a byte-level
# test never splits a codepoint
_NON_WS = np.ones(256, dtype=bool)
_NON_WS[[9, 10, 12, 13, 32]] = False
# (doc, id, id) sort keys are packed into one int64 below this bound
_INT64_KEYS = 2**63


def _span_ids(buf: pa.Buffer, starts: np.ndarray, ends: np.ndarray,
              large: bool) -> np.ndarray:
    """Dictionary ids of the byte spans ``buf[starts[k]:ends[k]]``
    (sorted, non-overlapping): equal ids iff equal bytes. The spans
    are read through a zero-copy string view whose offsets interleave
    starts and ends, so the gaps between spans are values too; only
    the even (span) positions are kept."""
    offs = np.empty(2 * len(starts), dtype=np.int64 if large else np.int32)
    offs[0::2] = starts
    offs[1::2] = ends
    view = (pa.LargeStringArray if large else pa.StringArray).from_buffers(
        len(offs) - 1, pa.py_buffer(offs), buf
    )
    ids = pc.dictionary_encode(view).indices.to_numpy(zero_copy_only=False)
    return ids[0::2].astype(np.int64)


def _per_doc_max_run(doc: np.ndarray, a: np.ndarray, b: np.ndarray,
                     n_docs: int, n_ids: int) -> np.ndarray:
    """Per document, the largest number of equal ``(a, b)`` pairs
    (ids in ``[0, n_ids)``; at least one pair overall). One sort of the
    ``(doc, a, b)`` key: a packed int64 while the key space fits, else
    a three-key lexsort."""
    best = np.zeros(n_docs, dtype=np.int64)
    if n_docs * n_ids * n_ids < _INT64_KEYS:
        key = np.sort((doc * n_ids + a) * n_ids + b)
        run_start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        run_doc = key[run_start] // (n_ids * n_ids)
    else:
        order = np.lexsort((b, a, doc))
        doc, a, b = doc[order], a[order], b[order]
        new = (doc[1:] != doc[:-1]) | (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        run_start = np.flatnonzero(np.concatenate(([True], new)))
        run_doc = doc[run_start]
    run_len = np.diff(np.append(run_start, len(doc)))
    first = np.flatnonzero(np.concatenate(([True], run_doc[1:] != run_doc[:-1])))
    best[run_doc[first]] = np.maximum.reduceat(run_len, first)
    return best


def ws_token_stats(text: pa.Array | pa.ChunkedArray, scan_chars: int,
                   limit: int) -> dict[str, np.ndarray]:
    """Whitespace-token and line statistics of every document, from ONE
    byte-level pass over the Arrow UTF-8 buffer. Tokens are ``\\S+``
    runs under RE2's ``\\s`` = ``[\\t\\n\\f\\r ]`` (the
    :data:`WS_TOKEN_RE` contract, which the DuckDB oracles share);
    null counts as ``""``.

    Returns int64/float64 arrays keyed by the gate's column names:

    - ``n_tokens``: tokens in the document;
    - ``n_tokens_scan``: tokens starting in the first ``scan_chars``
      codepoints (the langid scan prefix);
    - ``top_bigram_frac``: over the first ``min(n_tokens, limit)``
      tokens, the count of the most frequent adjacent token pair over
      the number of pairs; 0 below 4 tokens;
    - ``n_lines``: ``"\\n"``-separated lines, 0 for an empty document;
    - ``dup_line_frac``: ``1 - distinct_lines / n_lines``, 0 for a
      single line.

    Tokens and lines are compared by their bytes (dictionary ids), not
    by hash."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    if text.null_count:
        text = pc.fill_null(text, "")
    n = len(text)
    large = pa.types.is_large_string(text.type)
    data, offs = varwidth_bytes(text)
    buf = pa.py_buffer(data)

    # token runs over the whole buffer (padded with a separator at
    # both ends), then split where a run crosses the first byte of a
    # non-empty document: that position is both an end and a start
    nw = np.zeros(len(data) + 2, dtype=bool)
    np.take(_NON_WS, data, out=nw[1:-1])
    edges = np.flatnonzero(nw[1:] != nw[:-1])
    doc_len = np.diff(offs)
    first_byte = offs[:-1][doc_len > 0]
    cross = first_byte[nw[first_byte] & nw[first_byte + 1]]
    if len(cross):
        edges = np.insert(edges, np.repeat(np.searchsorted(edges, cross), 2),
                          np.repeat(cross, 2))
    starts, ends = edges[0::2], edges[1::2]
    first_tok = np.searchsorted(starts, offs)
    n_tokens = np.diff(first_tok)
    # a document of at most scan_chars bytes has at most scan_chars
    # codepoints: only longer ones need the codepoint prefix
    scan_len = doc_len.copy()
    long = np.flatnonzero(doc_len > scan_chars)
    if len(long):
        prefix = pc.utf8_slice_codeunits(text.take(pa.array(long)), 0, scan_chars)
        scan_len[long] = pc.binary_length(prefix).to_numpy(zero_copy_only=False)
    n_tokens_scan = np.searchsorted(starts, offs[:-1] + scan_len) - first_tok[:-1]

    # adjacent pairs among each document's first min(n_tokens, limit)
    top_bigram_frac = np.zeros(n, dtype=np.float64)
    m = np.where(n_tokens >= 4, np.minimum(n_tokens, limit), 0)
    if m.any():
        doc = np.repeat(np.arange(n, dtype=np.int64), m)
        tok = np.arange(len(doc), dtype=np.int64) + np.repeat(
            first_tok[:-1] - (np.cumsum(m) - m), m
        )
        ids = _span_ids(buf, starts[tok], ends[tok], large)
        pair = np.flatnonzero(doc[1:] == doc[:-1])
        best = _per_doc_max_run(doc[pair], ids[pair], ids[pair + 1], n,
                                int(ids.max()) + 1)
        has = m > 0
        top_bigram_frac[has] = best[has] / (m[has] - 1)

    # lines: "\n" positions; distinct lines per multi-line document
    n_nl = np.diff(np.searchsorted(np.flatnonzero(data == 10), offs))
    n_lines = np.where(doc_len > 0, n_nl + 1, 0)
    dup_line_frac = np.zeros(n, dtype=np.float64)
    multi = n_nl > 0
    if multi.any():
        lines = pc.split_pattern(text.filter(pa.array(multi)), "\n")
        enc = pc.dictionary_encode(lines.flatten())
        n_ids = len(enc.dictionary)
        k = int(multi.sum())
        line_doc = np.repeat(np.arange(k, dtype=np.int64), n_lines[multi])
        key = line_doc * n_ids + enc.indices.to_numpy(zero_copy_only=False)
        distinct = np.bincount(np.unique(key) // n_ids, minlength=k)
        dup_line_frac[multi] = 1.0 - distinct / n_lines[multi]
    return {
        "n_tokens": n_tokens,
        "n_tokens_scan": n_tokens_scan,
        "top_bigram_frac": top_bigram_frac,
        "n_lines": n_lines,
        "dup_line_frac": dup_line_frac,
    }

