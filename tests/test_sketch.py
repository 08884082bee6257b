"""Count-min sketch tests: the one-sided error bound, order-independent
merging, and the Ray heavy-hitter pipeline against the exact top-k
(the keyed sampled quantiles are tested in test_sampled_quantiles.py,
the Bloom filter through the incremental-dedup tests)."""

from __future__ import annotations


def test_cms_overestimates_and_bounds():
    import numpy as np

    from rsmetacheck_ray.functions.sketch import (
        CMS_W,
        cms_estimate,
        cms_table,
    )

    rng = np.random.default_rng(9)
    # Zipf-ish stream of 20k draws over 2k distinct hashed items
    items = rng.zipf(1.3, 60_000) % 2000
    vals = (items.astype(np.uint64) * np.uint64(0x9E37_79B9)) + np.uint64(7)
    tab = cms_table(vals)
    uniq, true = np.unique(vals, return_counts=True)
    est = cms_estimate(tab, uniq)
    assert (est >= true).all()  # one-sided guarantee
    n = len(vals)
    eps = np.e / CMS_W
    # CMS bound: overflow <= eps*N for each row with prob 1-1/e;
    # the min over 4 rows makes a violation across ALL uniq items
    # astronomically unlikely at this size
    assert ((est - true) <= eps * n + 1).mean() > 0.999


def test_cms_merge_order_independent():
    import numpy as np

    from rsmetacheck_ray.functions.sketch import cms_estimate, cms_table

    rng = np.random.default_rng(4)
    a = rng.integers(0, 500, 5000).astype(np.uint64)
    b = rng.integers(0, 500, 7000).astype(np.uint64)
    ab = cms_table(a) + cms_table(b)
    ba = cms_table(b) + cms_table(a)
    whole = cms_table(np.concatenate([a, b]))
    assert (ab == ba).all() and (ab == whole).all()
    uniq = np.unique(np.concatenate([a, b]))
    assert (cms_estimate(ab, uniq) == cms_estimate(whole, uniq)).all()


def test_cms_heavy_hitters_match_exact_top(ray_session):
    import pyarrow as pa

    import ray.data as rd

    from rsmetacheck_ray.functions.sketch import cms_heavy_hitters

    # Zipf corpus: token t_i appears ~ 1/i
    texts = []
    for d in range(40):
        toks = []
        for i in range(1, 60):
            toks += [f"t{i:02d}"] * max(60 // i - d % 3, 0)
        texts.append(" ".join(toks))
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )
    out = cms_heavy_hitters(ds, k=10)
    got = out.column("token").to_pylist()
    # exact top-10 by construction: t01..t10
    assert got == [f"t{i:02d}" for i in range(1, 11)]
    est = out.column("est_n").to_pylist()
    assert est == sorted(est, reverse=True)
