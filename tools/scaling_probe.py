"""No-Ray full-occupancy scaling probe for the gate's COMPUTE.

Runs the complete per-document work of the WARC headline pipeline —
gunzip and record framing (``FORMATS["warc"].read``), timestamp
normalization, html → text extraction, langid, perplexity LM, the
30-rule vector — in N plain OS processes (multiprocessing, no Ray, no
object store, no write stage), pinned externally with taskset.

Why it exists: the single-box Ray pair underestimates multi-NODE
scaling — at 32 cores one shared object store, one driver and one
page cache serve 4× the workers, which added nodes do not suffer
(each node brings its own). This probe isolates what the criterion is
actually about: whether the ENGINE'S WORK scales with cores at full
occupancy. Run it at two process counts and compare per-core rates:

    taskset -c 0-7  python tools/scaling_probe.py 8
    taskset -c 0-31 python tools/scaling_probe.py 32

Prints one JSON line per invocation; pair them like bench.py
--scaling does.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

DEFAULT_DOCS = int(os.environ.get("SCALING_HTML_DOCS", "400000"))


def _warc_dir() -> tuple[str, int]:
    """The bench harness's cached WARC scaling corpus (generated via
    Ray once by bench.py --scaling-corpus warc, or here on demand)."""
    from rsmetacheck_ray.datagen import corpus_dir

    import bench

    n = DEFAULT_DOCS
    html_pages, _ = corpus_dir(n, n_files=max(64, n // 800))
    return bench.prepare_warc(html_pages), n


def work(flist: list[str]) -> int:
    from rsmetacheck_ray.config import DEFAULT_CONFIG
    from rsmetacheck_ray.pipelines.quality_gate import FORMATS, _gate_task_fn

    n = 0
    for fp in flist:
        for tbl in FORMATS["warc"].read(fp):
            for _ in _gate_task_fn(tbl, DEFAULT_CONFIG, False, False):
                pass
            n += tbl.num_rows
    return n


def main() -> None:
    nproc = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    wdir, n_docs = _warc_dir()
    files = sorted(
        os.path.join(wdir, f)
        for f in os.listdir(wdir)
        if f.endswith(".warc.gz")
    )
    chunks = [files[i::nproc] for i in range(nproc)]
    with mp.Pool(nproc) as pool:
        # warm: imports + per-process scorer state outside the window
        pool.map(work, [files[:2]] * nproc)
        t0 = time.perf_counter()
        total = sum(pool.map(work, chunks))
        dt = time.perf_counter() - t0
    print(json.dumps({
        "metric": "gate_compute_scaling_probe",
        "nproc": nproc,
        "docs": total,
        "sec": round(dt, 3),
        "docs_per_sec": round(total / dt, 1),
        "docs_per_sec_per_core": round(total / dt / nproc, 1),
    }))


if __name__ == "__main__":
    main()
