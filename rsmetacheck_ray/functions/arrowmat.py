"""Zero-copy Arrow list<float> column ↔ numpy matrix conversion.

Every embedding-consuming stage (knn / kmeans / pca / semantic-dedup /
bitext) needs the batch's `list<float>` column as an (n, d) float64
matrix. The old `to_pylist()` + per-row `np.asarray` round-trip built
n Python lists and n tiny arrays per batch; here the list array's
contiguous VALUES buffer is flattened once (`flatten()` respects
slice offsets) and reshaped — a single buffer-level pass, zero Python
objects. The ragged / null fallback keeps the helper total.

Reference parity note: the reference engine has no vector columns at
all; this is scale plumbing for the 100 TB embedding tables the brief
adds on top (SURVEY §2 extension surface).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def list_column_matrix(col, dtype=np.float64) -> np.ndarray:
    """(n, d) matrix from a `list<float>` / `fixed_size_list` column
    (Array or ChunkedArray). Fast path: one flatten + reshape over the
    values buffer when rows are equal-width and non-null (the always
    case for embedding tables); ragged or null rows fall back to the
    row loop."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros((0, 1), dtype=dtype)
    if pa.types.is_fixed_size_list(col.type):
        if col.null_count == 0:
            flat = col.flatten().to_numpy(zero_copy_only=False)
            return np.ascontiguousarray(
                flat.reshape(n, col.type.list_size).astype(dtype, copy=False)
            )
    elif pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
        if col.null_count == 0:
            offs = col.offsets.to_numpy(zero_copy_only=False)
            widths = np.diff(offs)
            if (widths == widths[0]).all() and widths[0] > 0:
                flat = col.flatten().to_numpy(zero_copy_only=False)
                return np.ascontiguousarray(
                    flat.reshape(n, int(widths[0])).astype(dtype, copy=False)
                )
    return np.stack(
        [np.asarray(e, dtype=dtype) for e in col.to_pylist()]
    )


_INT32_MAX = 2**31 - 1


def matrix_list_array(mat: np.ndarray) -> pa.ListArray:
    """`list<float64>` array from an (n, d) matrix — one offsets
    buffer + the ravel'd values, no per-row `.tolist()`. The offsets
    are int32, so a matrix of more than 2**31 - 1 elements raises
    instead of wrapping into a corrupt array."""
    n, d = mat.shape
    if n * d > _INT32_MAX:
        raise ValueError(
            f"matrix_list_array: {n} x {d} = {n * d} values exceed the "
            f"int32 list offsets ({_INT32_MAX}); split the batch"
        )
    offsets = pa.array(
        np.arange(0, (n + 1) * d, d, dtype=np.int32), pa.int32()
    )
    values = pa.array(
        np.ascontiguousarray(mat, dtype=np.float64).ravel(), pa.float64()
    )
    return pa.ListArray.from_arrays(offsets, values)
