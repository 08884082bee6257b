"""Real-model tier: the fastText-format loader (models/fasttext_io)
and its wiring into the LangIdScorer actor pool — per-actor load-once
with a real on-disk model blob, identical pipeline topology/schema to
the heuristic path. The multi-hundred-MB variant is opt-in
(RSMC_BIG_MODEL=1); the format/round-trip/topology tests always run
on a small file of the same layout."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from rsmetacheck_ray.models import fasttext_io as ft


def test_fnv1a_signed_char_hash():
    # FNV-1a over bytes, with fastText's int8_t sign-extension quirk
    def ref(bs):
        h = 2166136261
        for b in bs:
            if b >= 128:
                b = b - 256
            h = ((h ^ (b & 0xFFFFFFFF)) * 16777619) & 0xFFFFFFFF
        return h

    for s in ("a", "the", "naïve", "日本語"):
        assert ft.ft_hash(s) == ref(s.encode("utf-8"))
    # sign extension matters: a non-ascii byte must differ from the
    # unsigned-char variant
    def unsigned(bs):
        h = 2166136261
        for b in bs:
            h = ((h ^ b) * 16777619) & 0xFFFFFFFF
        return h

    assert ft.ft_hash("é") != unsigned("é".encode("utf-8"))


def test_char_ngrams_brackets_and_bounds():
    ngs = ft.char_ngrams("ab", 3, 4)
    # <ab> has length 4: 3-grams <ab, ab>, and the full word excluded
    assert ngs == ["<ab", "ab>"]


def _tiny_model(tmp_path, bucket=1000, minn=0, maxn=0):
    words = ["alpha", "beta", "</s>"]
    labels = ["__label__xx", "__label__yy"]
    dim = 8
    rng = np.random.default_rng(3)
    inp = (1e-6 * rng.standard_normal((len(words) + bucket, dim))).astype(
        np.float32
    )
    inp[0] = 0.0
    inp[0, 0] = 1.0  # alpha -> label 0 axis
    inp[1] = 0.0
    inp[1, 1] = 1.0  # beta -> label 1 axis
    out = np.zeros((2, dim), np.float32)
    out[0, 0] = 1.0
    out[1, 1] = 1.0
    path = str(tmp_path / "tiny.bin")
    ft.write_fasttext_model(
        path, words, labels, inp, out, bucket=bucket, minn=minn, maxn=maxn
    )
    return path, words, labels, inp, out


def test_roundtrip_and_predict(tmp_path):
    path, words, labels, inp, out = _tiny_model(tmp_path)
    m = ft.load_fasttext_model(path)
    assert m.words == words and m.labels == labels
    assert m.dim == 8 and m.bucket == 1000 and m.minn == 0 and m.maxn == 0
    np.testing.assert_array_equal(m.input, inp)
    np.testing.assert_array_equal(m.output, out)
    k, conf = m.predict(["alpha", "alpha", "beta"])
    assert labels[k] == "__label__xx" and 0.5 < conf <= 1.0
    k2, _ = m.predict(["beta"])
    assert labels[k2] == "__label__yy"
    # OOV with maxn=0 contributes nothing
    assert m.predict(["zzz"]) == (-1, 0.0)


def _langid_batch(texts):
    import pyarrow as pa

    n = len(texts)
    return pa.table({
        "url": [f"u{i}" for i in range(n)],
        "warc_ts": pa.array([0] * n, pa.timestamp("us")),
        "lang": [None] * n,
        "extracted_text": texts,
    })


def test_langid_model_path_applies_min_conf_floor(tmp_path):
    """A model label below ``langid_min_conf`` becomes "und", as on the
    marker path; the confidence itself is still reported."""
    import dataclasses

    from rsmetacheck_ray.config import DEFAULT_CONFIG
    from rsmetacheck_ray.stages.langid import LangIdScorer

    path, *_ = _tiny_model(tmp_path)
    cfg = dataclasses.replace(DEFAULT_CONFIG, langid_min_conf=0.6)
    out = LangIdScorer(cfg, model_path=path)(
        _langid_batch(["alpha alpha", "alpha beta", "beta"])
    )
    # alpha/beta alone: softmax(1, 0) = 0.73; mixed: a 0.5 tie
    assert out.column("detected_lang").to_pylist() == ["xx", "und", "yy"]
    conf = out.column("langid_conf").to_pylist()
    assert conf[1] == pytest.approx(0.5) and conf[0] > 0.6


def test_langid_model_token_memo_is_bounded(tmp_path, monkeypatch):
    """Distinct OOV tokens cannot grow the per-actor token memo past
    its bound; predictions are unchanged by the clearing."""
    from rsmetacheck_ray.stages import langid

    path, *_ = _tiny_model(tmp_path, minn=2, maxn=3)
    monkeypatch.setattr(langid, "_TOKEN_MEMO_MAX", 8)
    sc = langid.LangIdScorer(model_path=path)
    texts = [f"alpha oov{i} tok{i}x" for i in range(20)]
    out = sc(_langid_batch(texts))
    assert 0 < len(sc._token_ids_memo) <= 8
    fresh = langid.LangIdScorer(model_path=path)
    monkeypatch.setattr(langid, "_TOKEN_MEMO_MAX", 1 << 20)
    assert out.column("detected_lang").to_pylist() == (
        fresh(_langid_batch(texts)).column("detected_lang").to_pylist()
    )


def test_magic_and_version_guards(tmp_path):
    p = str(tmp_path / "bad.bin")
    with open(p, "wb") as fh:
        fh.write(b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        ft.load_fasttext_model(p)


def test_langid_model_gate_topology(ray_session, tmp_path, small_corpus):
    """build_gate(compute="actors") with cfg.langid_model: identical
    output schema to the heuristic path, marker docs detected by the
    MODEL, and the load log shows exactly one load per actor
    process."""
    import dataclasses

    import ray.data as rd

    from rsmetacheck_ray.config import DEFAULT_CONFIG
    from rsmetacheck_ray.pipelines.quality_gate import build_gate

    model_path = str(tmp_path / "lid.bin")
    ft.build_langid_model(model_path, dim_pad=8, bucket=20_000)
    open(model_path + ".loadlog.enable", "w").close()

    pages_dir, _ = small_corpus
    cfg = dataclasses.replace(
        DEFAULT_CONFIG, langid_model=model_path, langid_actors=2
    )
    base = build_gate(
        rd.read_parquet(pages_dir), compute="actors"
    ).to_pandas()
    modeled = build_gate(
        rd.read_parquet(pages_dir), cfg, compute="actors"
    ).to_pandas()
    # identical topology: same columns, same dtypes, same row count
    assert list(modeled.columns) == list(base.columns)
    assert [str(t) for t in modeled.dtypes] == [str(t) for t in base.dtypes]
    assert len(modeled) == len(base)
    # the model reproduces marker-density detection on confident rows:
    # wherever the heuristic called a known language, the model agrees
    # (its one-hot rows ARE the marker table)
    known = base["detected_lang"].isin(["en", "fr", "es", "de"])
    agree = (
        modeled.loc[known, "detected_lang"] == base.loc[known, "detected_lang"]
    ).mean()
    assert agree > 0.95, f"model/heuristic agreement {agree}"
    # load-once per actor: one log line per distinct worker pid
    pids = open(model_path + ".loadlog").read().split()
    assert len(pids) == len(set(pids)) and 1 <= len(pids) <= 4


@pytest.mark.skipif(
    os.environ.get("RSMC_BIG_MODEL") != "1",
    reason="multi-hundred-MB model blob test is opt-in (RSMC_BIG_MODEL=1)",
)
def test_big_model_blob_load_once(ray_session, tmp_path, small_corpus):
    """The real thing: a ~320 MB fastText-format blob loaded once per
    actor; pipeline output stays correct and deterministic."""
    import dataclasses

    import ray.data as rd

    from rsmetacheck_ray.config import DEFAULT_CONFIG
    from rsmetacheck_ray.pipelines.quality_gate import build_gate

    model_path = str(tmp_path / "lid_big.bin")
    ft.build_langid_model(model_path, dim_pad=40, bucket=2_000_000)
    assert os.path.getsize(model_path) > 200 * 1024 * 1024
    open(model_path + ".loadlog.enable", "w").close()
    pages_dir, _ = small_corpus
    cfg = dataclasses.replace(
        DEFAULT_CONFIG, langid_model=model_path, langid_actors=2
    )
    out = build_gate(
        rd.read_parquet(pages_dir), cfg, compute="actors"
    ).to_pandas()
    assert len(out) == 2000
    pids = open(model_path + ".loadlog").read().split()
    assert len(pids) == len(set(pids))
