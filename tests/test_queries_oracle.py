"""Driver-style differential tests: run each queries() entry via Ray
and its oracle_sql() via DuckDB on sf0.001, compare values exactly.
This mirrors the driver's CORRECTNESS gate so regressions surface in
pytest before the round verdict."""

from __future__ import annotations

import os
import sys

import duckdb
import pandas as pd
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_DIR = "/root/testdata/sf0.001"
TABLES = ("documents", "embeddings")


@pytest.fixture(scope="module")
def oracle_con():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return con


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(by=list(df.columns), ignore_index=True)


def _registry():
    from rsmetacheck_ray.pipelines.queries import registry

    return registry()


SQL_BACKED = [
    "lang_source_hist",
    "doc_stats",
    "doc_quality_scores",
    "gate_url_flags",
    "gate_content_flags",
    "gate_shape_lang_flags",
    "host_stats",
    "dedup_exact",
    "dedup_exact_pairs",
    "dedup_embedding_pairs",
    "knn_cosine",
    "doc_bpe_tokens",
    # round 2 additions
    "gate_meta_flags",
    "gate_drop_vector",
    # round 3 additions
    "dedup_components",
    "dedup_survivors",
    "gate_decisions",
    "host_sample",
    "decontaminate",
    "pack_sequences",
    "top_tokens",
    "dedup_jaccard",
    "quality_classifier",
    "quality_bins",
    "scrub_boilerplate",
    "url_status",
    "train_bigram_lm",
    "shuffle_shards",
    "dedup_incremental",
    # round 3, third session
    "pii_scrub",
    "repetition_scores",
    "url_canonical",
    "dedup_urls",
    "gate_then_dedup",
    "mixture_sample",
    "normalize_text",
    "dedup_lines",
    # round 3, fifth session
    "vocab_coverage",
    "doc_char_entropy",
    # round 3, sixth session
    "token_budget_sample",
    "quality_zscores",
    "dataset_diff",
    "term_postings",
    "apply_changes",
    "dq_checks",
    "bm25_search",
    "embedding_norms",
    "top_tokens_by_lang",
]


@pytest.mark.parametrize("name", SQL_BACKED)
def test_query_matches_oracle(ray_session, oracle_con, name):
    fn, sql = _registry()[name]
    assert sql is not None
    if callable(sql):  # deferred oracle build (gate_decisions LM export)
        sql = sql()
    res = fn(SF_DIR)
    ray_df = _canon(res.to_pandas() if hasattr(res, "to_pandas") else pd.DataFrame(res))
    sql_df = _canon(oracle_con.execute(sql).fetchdf())
    assert list(ray_df.columns) == list(sql_df.columns)
    assert len(ray_df) == len(sql_df), (len(ray_df), len(sql_df))
    for c in ray_df.columns:
        a, b = ray_df[c], sql_df[c]
        if pd.api.types.is_float_dtype(a) or pd.api.types.is_float_dtype(b):
            import numpy as np

            assert np.allclose(
                a.astype(float), b.astype(float), rtol=0, atol=0, equal_nan=True
            ), c
        else:
            assert (a.astype(str) == b.astype(str)).all(), c


def test_rows_only_queries_return_rows(ray_session):
    reg = _registry()
    for name, (fn, sql) in reg.items():
        if sql is not None:
            continue
        res = fn(SF_DIR)
        df = res.to_pandas() if hasattr(res, "to_pandas") else pd.DataFrame(res)
        assert len(df) > 0, name


def test_dedup_survivors_null_text_matches_oracle(ray_session, tmp_path):
    """NULL text must dedup as '' on BOTH sides (engine coalesces;
    the oracle SQL coalesces at the corpus CTE) — regression for the
    engine-''-vs-SQL-NULL divergence on nullable text columns."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 11], pa.int64()),
            "text": pa.array([None, "", "some longer unrelated body", None], pa.string()),
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    fn, sql = _registry()["dedup_survivors"]
    ray_df = _canon(fn(str(tmp_path)).to_pandas())
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'"
    )
    sql_df = _canon(con.execute(sql).fetchdf())
    assert len(ray_df) == len(sql_df)
    for c in ray_df.columns:
        assert (ray_df[c].astype(str) == sql_df[c].astype(str)).all(), c
    # the three no-content docs (2 NULL + 1 empty) form ONE cluster
    assert (~ray_df["keep"]).sum() >= 2


def test_entry_contract(ray_session):
    import __ray_entry__ as e

    res = e.entry()
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    assert len(df) > 0
    assert {"doc_id", "keep", "detected_lang"} <= set(df.columns)
    assert set(e.oracle_sql()) <= set(e.queries())


def test_nation_order_stats_distributed_path_matches_broadcast(ray_session, oracle_con):
    """Characters and embedding labels per source over
    documents ⋈ embeddings (``doc_id`` = ``vec_id``): the size-gated
    join gives identical results on both plans, broadcast probe (small
    right side) and distributed hash join (forced here by a zero gate),
    and both equal the DuckDB oracle."""
    import ray.data as rd

    from rsmetacheck_ray.pipelines.join import join

    def read(t, cols):
        return rd.read_parquet(os.path.join(SF_DIR, f"{t}.parquet"), columns=cols)

    def stats(**kw):
        df = join(
            read("documents", ["doc_id", "source", "n_chars"]),
            read("embeddings", ["vec_id", "label"]),
            on=("doc_id", "vec_id"), **kw,
        ).to_pandas()
        g = df.groupby("source").agg(
            total_chars=("n_chars", "sum"),
            label_sum=("label", "sum"),
            n_docs=("doc_id", "size"),
        )
        return g.reset_index().sort_values("source").reset_index(drop=True)

    bcast = stats()
    dist = stats(broadcast_max=0, num_partitions=3)
    pd.testing.assert_frame_equal(bcast, dist)
    want = oracle_con.execute("""
        SELECT d.source,
          CAST(SUM(d.n_chars) AS BIGINT) AS total_chars,
          CAST(SUM(e.label) AS BIGINT) AS label_sum,
          COUNT(*) AS n_docs
        FROM documents d
        JOIN embeddings e ON d.doc_id = e.vec_id
        GROUP BY d.source
    """).fetchdf()
    assert len(bcast) > 1  # non-degenerate fixture
    pd.testing.assert_frame_equal(_canon(bcast), _canon(want), check_dtype=False)


def test_top_tokens_tiebreak_and_prune(ray_session, tmp_path):
    """>k vocab exercises the per-block prune; equal counts break ties
    by token ascending (the SQL's total order)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rsmetacheck_ray.pipelines.queries import q_top_tokens

    # 60 distinct tokens: t00..t59, token tNN appearing (NN // 10 + 1)
    # times -> many count ties at every level
    texts = []
    for i in range(60):
        texts.append(" ".join([f"t{i:02d}"] * (i // 10 + 1)))
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(60), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    df = q_top_tokens(str(tmp_path), k=15).to_pandas()
    assert len(df) == 15
    # top 10 are the count-6 tokens t50..t59 in ascending token order,
    # then the first 5 of the count-5 tokens t40..t44
    assert df["token"].tolist() == [f"t{i:02d}" for i in range(50, 60)] + [
        f"t{i:02d}" for i in range(40, 45)
    ]
    assert df["n"].tolist() == [6] * 10 + [5] * 5
