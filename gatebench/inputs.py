"""Deterministic benchmark inputs, generated without Ray and cached.

Every workload input is a pure function of (workload spec, seed). The
cache key adds a fingerprint of the synthesis code, so an edit to the
generators never reuses stale files. Generation runs before Ray starts,
so a cold cache never lands inside ``setup_s`` or a timed op.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import shutil
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "html": datagen pages; "text": synthesize_pages
    docs: int
    files: int


# Sized so one warm op takes ~1.3 s on one core: several ops fit in a
# run, and the median over them is what each run reports. Four
# fragments each, so the traced run's incremental probe has two epochs
# of two fragments.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("html_gate", "html", 4000, 4),
        Workload("text_gate", "text", 8000, 4),
    )
}

# Documents table for text_gate, shaped like the test-data
# ``documents`` table: 10-100 words drawn uniformly from a 30-word
# query-engine vocabulary, declared language en-heavy.
_TEXT_VOCAB = (
    "spark window merge table column vector stream value data small join "
    "filter big group hash customer sort order slow line part fast row the "
    "agg key query a scan batch"
).split()
_TEXT_LANGS = ("en", "fr", "es", "de", "zh")
_TEXT_LANG_P = (0.41, 0.15, 0.15, 0.14, 0.15)
_TEXT_WORDS = (10, 100)


def _documents(n: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    n_words = rng.integers(_TEXT_WORDS[0], _TEXT_WORDS[1] + 1, n)
    words = np.array(_TEXT_VOCAB)[rng.integers(0, len(_TEXT_VOCAB), n_words.sum())]
    bounds = np.concatenate([[0], np.cumsum(n_words)])
    text = [" ".join(words[bounds[i]:bounds[i + 1]]) for i in range(n)]
    lang = np.array(_TEXT_LANGS)[rng.choice(len(_TEXT_LANGS), n, p=_TEXT_LANG_P)]
    return pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(text, pa.string()),
        "lang": pa.array(lang.tolist(), pa.string()),
    })


def synthesis_fingerprint() -> str:
    """Hash of every piece of code that decides the generated bytes."""
    from rsmetacheck_ray import datagen
    from rsmetacheck_ray.functions import hashing, vocab
    from rsmetacheck_ray.sources import pages_from_documents

    h = hashlib.sha256()
    for mod in (datagen, hashing, vocab, pages_from_documents):
        h.update(inspect.getsource(mod).encode())
    h.update(inspect.getsource(_documents).encode())
    h.update(repr((_TEXT_VOCAB, _TEXT_LANGS, _TEXT_LANG_P, _TEXT_WORDS)).encode())
    return h.hexdigest()[:12]


@dataclass(frozen=True)
class Inputs:
    fragments: list     # sorted part-*.parquet paths
    labels: str | None  # html kinds: datagen's expected_keep per url
    docs: int


def _generate(w: Workload, seed: int, out: str) -> None:
    from rsmetacheck_ray.datagen import generate_tables
    from rsmetacheck_ray.sources.pages_from_documents import synthesize_pages

    pages = os.path.join(out, "pages")
    os.makedirs(pages)
    per = -(-w.docs // w.files)
    labels = []
    docs = _documents(w.docs, seed) if w.kind == "text" else None
    for f in range(w.files):
        start, cnt = f * per, min(per, w.docs - f * per)
        if w.kind == "html":
            pt, lt = generate_tables(cnt, seed=seed, start=start)
            labels.append(lt.select(["url", "expected_keep"]))
        else:
            pt = synthesize_pages(docs.slice(start, cnt))
        pq.write_table(pt, os.path.join(pages, f"part-{f:05d}.parquet"))
    if labels:
        pq.write_table(pa.concat_tables(labels), os.path.join(out, "labels.parquet"))


def prepare(w: Workload, seed: int, cache_root: str) -> Inputs:
    """Generate (or reuse) the cached input of ``w`` for ``seed``."""
    key = f"{w.name}-s{seed}-n{w.docs}-f{w.files}-{synthesis_fingerprint()}"
    out = os.path.join(cache_root, key)
    if not os.path.exists(os.path.join(out, "done")):
        tmp = out + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        _generate(w, seed, tmp)
        open(os.path.join(tmp, "done"), "w").close()
        shutil.rmtree(out, ignore_errors=True)
        os.rename(tmp, out)
    pages = os.path.join(out, "pages")
    labels = os.path.join(out, "labels.parquet")
    return Inputs(
        fragments=sorted(os.path.join(pages, f) for f in os.listdir(pages)),
        labels=labels if os.path.exists(labels) else None,
        docs=w.docs,
    )
