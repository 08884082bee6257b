"""Zero-copy access to Arrow variable-width buffers — the ONE place
that knows string/binary offsets are int32 but large_string /
large_binary offsets are int64. Every reader that touches
``arr.buffers()`` directly goes through here; two of the three
original inline copies of this logic hardcoded int32 and silently
produced garbage negative lengths on large types."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_LARGE = (pa.types.is_large_string, pa.types.is_large_binary)


def varwidth_offsets(arr: pa.Array) -> np.ndarray:
    """Offsets of a (large_)string/(large_)binary array as int64,
    sliced to the array's own window (len(arr)+1 entries)."""
    width = np.int64 if any(f(arr.type) for f in _LARGE) else np.int32
    return np.frombuffer(arr.buffers()[1], dtype=width)[
        arr.offset : arr.offset + len(arr) + 1
    ].astype(np.int64)


def varwidth_bytes(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(data, offsets): the array's value bytes as one uint8 view
    (values sit back-to-back per the offsets layout, starting at 0)
    plus the rebased int64 offsets."""
    offs = varwidth_offsets(arr)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)[
        offs[0] : offs[-1]
    ]
    return data, offs - offs[0]


def value_spans(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(starts, lens): each value's int64 start in the array's data
    buffer (not rebased) and its byte length, 0 for a null."""
    offs = varwidth_offsets(arr)
    lens = np.diff(offs)
    if arr.null_count:
        lens[~arr.is_valid().to_numpy(zero_copy_only=False)] = 0
    return offs[:-1], lens


def prefix_bytes(arr: pa.Array, lens: np.ndarray, n_chars: int) -> np.ndarray:
    """Byte length of each value's first ``n_chars`` codepoints, given
    the values' byte lengths ``lens`` (0 for a null). A value of at most
    ``n_chars`` bytes has at most ``n_chars`` codepoints, so only the
    longer ones are sliced."""
    out = lens.copy()
    long = np.flatnonzero(lens > n_chars)
    if len(long):
        prefix = pc.utf8_slice_codeunits(arr.take(pa.array(long)), 0, n_chars)
        out[long] = pc.binary_length(prefix).to_numpy(zero_copy_only=False)
    return out


def span_view(buf: pa.Buffer, starts: np.ndarray, ends: np.ndarray,
              large: bool) -> pa.Array:
    """Zero-copy string view of the byte spans ``buf[starts[k]:ends[k]]``
    (sorted, non-overlapping). Its offsets interleave starts and ends,
    so slot ``2k`` is span ``k`` and the odd slots are the gaps between
    spans; the gaps are null, so compute kernels skip them. Read the
    span results with :func:`span_values`."""
    offs = np.empty(2 * len(starts), dtype=np.int64 if large else np.int32)
    offs[0::2] = starts
    offs[1::2] = ends
    n = len(offs) - 1
    valid = np.full((n + 7) // 8, 0x55, dtype=np.uint8)  # even slots
    return (pa.LargeStringArray if large else pa.StringArray).from_buffers(
        n, pa.py_buffer(offs), buf, pa.py_buffer(valid), len(starts) - 1
    )


def span_values(arr: pa.Array) -> np.ndarray:
    """The int64 values at the span (even) slots of a fixed-width result
    computed over a :func:`span_view`."""
    vals = np.frombuffer(arr.buffers()[1], dtype=arr.type.to_pandas_dtype())
    return vals[arr.offset : arr.offset + len(arr) : 2].astype(np.int64)
