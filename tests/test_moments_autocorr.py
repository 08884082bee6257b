"""Empty-input edge: a corpus operator returns an empty, correctly
typed result on an empty documents table instead of crashing."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq


def test_new_operators_empty_inputs(ray_session, tmp_path):
    """The resume/first-run edge of a partitioned 100 TB lake: some
    partitions ARE empty, and the operator must not crash on them."""
    from rsmetacheck_ray.pipelines.corpus import lang_keyness

    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "text": pa.array([], pa.string()),
                "lang": pa.array([], pa.string()),
                "source": pa.array([], pa.string()),
                "n_chars": pa.array([], pa.int64()),
            }
        ),
        os.path.join(str(tmp_path), "documents.parquet"),
    )
    lk = lang_keyness(str(tmp_path))
    assert lk.count() == 0
    assert set(lk.schema().names) == {"lang", "token", "n", "chi2"}
