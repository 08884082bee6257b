"""functions/arrowmat.py — the zero-copy list<float> ↔ matrix
conversions every vector stage rides: equal-width fast path, sliced
arrays (non-zero offsets), ragged/null fallbacks, round-trip."""

from __future__ import annotations

import os
import sys

import numpy as np
import pyarrow as pa
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from rsmetacheck_ray.functions.arrowmat import (
    list_column_matrix,
    matrix_list_array,
)


def test_fast_path_equals_row_loop():
    rows = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.5, -1.0, 0.0]]
    arr = pa.array(rows, pa.list_(pa.float32()))
    m = list_column_matrix(arr)
    np.testing.assert_array_equal(
        m, np.array(rows, np.float64).astype(np.float32).astype(np.float64)
    )
    assert m.dtype == np.float64


def test_sliced_array_respects_offset():
    rows = [[float(i), float(i + 1)] for i in range(10)]
    arr = pa.array(rows, pa.list_(pa.float64()))
    sl = arr.slice(3, 4)  # non-zero offset into the values buffer
    m = list_column_matrix(sl)
    np.testing.assert_array_equal(m, np.array(rows[3:7]))


def test_chunked_column():
    a = pa.chunked_array(
        [
            pa.array([[1.0, 2.0]], pa.list_(pa.float64())),
            pa.array([[3.0, 4.0], [5.0, 6.0]], pa.list_(pa.float64())),
        ]
    )
    np.testing.assert_array_equal(
        list_column_matrix(a), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    )


def test_fixed_size_list():
    arr = pa.FixedSizeListArray.from_arrays(
        pa.array([1.0, 2.0, 3.0, 4.0], pa.float64()), 2
    )
    np.testing.assert_array_equal(
        list_column_matrix(arr), [[1.0, 2.0], [3.0, 4.0]]
    )


def test_ragged_falls_back_to_row_loop():
    arr = pa.array([[1.0], [2.0, 3.0, 4.0]], pa.list_(pa.float64()))
    # ragged: np.stack in the fallback raises — callers never feed
    # ragged embeddings, but the failure must be loud, not a silent
    # mis-reshape
    try:
        list_column_matrix(arr)
        raised = False
    except ValueError:
        raised = True
    assert raised


def test_matrix_list_array_round_trip():
    m = np.arange(12, dtype=np.float64).reshape(4, 3) / 7.0
    arr = matrix_list_array(m)
    assert arr.type == pa.list_(pa.float64())
    np.testing.assert_array_equal(list_column_matrix(arr), m)
    # non-contiguous input (a transpose view) still serializes right
    mt = np.ascontiguousarray(m.T).T  # keep values, force odd strides
    np.testing.assert_array_equal(
        list_column_matrix(matrix_list_array(m.T)), m.T
    )


def test_matrix_list_array_rejects_int32_offset_overflow():
    # 2**31 elements: one past the int32 offsets; a broadcast view, so
    # nothing is allocated — the check must fire before the values copy
    big = np.broadcast_to(np.float64(0.0), (1 << 16, 1 << 15))
    with pytest.raises(ValueError, match="int32"):
        matrix_list_array(big)


def test_empty_column():
    arr = pa.array([], pa.list_(pa.float64()))
    m = list_column_matrix(arr)
    assert m.shape == (0, 1)
