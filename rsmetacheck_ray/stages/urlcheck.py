"""URL status checking — the actor-pool recast of the reference's live
URL probes (``p008.py:25-55``, ``p011.py``, ``p015.py``: each does a
blocking ``requests.get`` per document, single-threaded).

This engine's rule catalog deliberately evaluates the URL rule family
OFFLINE (pattern evidence only, stages/rules.py) because the north
rule targets reproducible 100 TB batch runs, and the reference's own
tests never touch the network either (``test_p015.py:34-49`` mocks
HTTP). This stage supplies the missing LIVE-check *shape* with the
network dependency behind a pluggable fetcher:

 - ``URLStatusCheck`` is a ``map_batches`` actor-pool stage. Per
   actor: the fetcher is constructed ONCE and a response cache
   persists across batches, so a URL appearing in many documents is
   fetched once per actor, not once per row. Per batch: URLs are
   deduped first and only the batch's UNIQUE urls hit the fetcher.
 - ``deterministic_fetcher`` is the offline stand-in (and the ONLY
   fetcher this sandbox can run): status is a pure function of
   ``md5(url)`` — first hex digit 0-c ⇒ 200, d ⇒ 301, e ⇒ 404,
   f ⇒ 503 — so the whole stage is SQL-derivable and the
   differential oracle covers the plumbing end-to-end.
 - ``requests_fetcher`` adapts the real ``requests`` library for a
   networked cluster; constructing it without the library raises
   ``NotImplementedError`` naming the offline alternative. It is
   never exercised in the differential gate, which must stay
   network-free.

At cluster scale the politeness constraint (per-host QPS) is enforced
by sizing the actor pool: ``concurrency × batches-in-flight`` bounds
total outstanding requests, and the per-actor cache plus upstream
host-partitioning (``groupby(host)`` feeding this stage) bounds
per-host fan-out to one actor's budget.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

# first-hex-digit -> HTTP status of the deterministic offline fetcher;
# ~81% of URLs healthy, mirroring a real crawl's live-link rate
_STATUS_BY_NIBBLE = {"d": 301, "e": 404, "f": 503}
_DEFAULT_STATUS = 200
# statuses the url_ok verdict accepts: every redirect class counts as
# alive (the reference's probes follow redirects, p008.py:31; the real
# fetcher below reports the FIRST hop, so 302/307 etc. must be OK too
# — the offline fetcher only ever emits 200/301/404/503)
OK_STATUSES = frozenset({200, 301, 302, 303, 307, 308})


def deterministic_fetcher(url: str) -> int:
    """Offline stand-in fetcher: status as a pure function of the URL
    (md5 first hex digit), byte-identical to the SQL oracle's CASE."""
    return _STATUS_BY_NIBBLE.get(
        hashlib.md5(url.encode("utf-8")).hexdigest()[0], _DEFAULT_STATUS
    )


def requests_fetcher(timeout_s: float = 5.0) -> Callable[[str], int]:
    """Real-HTTP fetcher factory (requires the ``requests`` library;
    never used by the differential gate, which is network-free by
    design)."""
    try:
        import requests  # noqa: F401
    except ImportError as exc:  # pragma: no cover - import-gate
        raise NotImplementedError(
            "requests is not installed; use deterministic_fetcher (the "
            "offline stand-in) or install requests on the cluster image"
        ) from exc

    def fetch(url: str) -> int:  # pragma: no cover - needs network
        import requests

        try:
            return requests.head(
                url, timeout=timeout_s, allow_redirects=False
            ).status_code
        except requests.RequestException:
            return 599  # connection-level failure pseudo-status

    return fetch


class URLStatusCheck:
    """Actor-pool stage: (rows with ``url_col``) → rows plus
    ``status`` and ``url_ok`` columns. Fetcher built once per actor;
    responses cached across the actor's lifetime; per batch only
    UNIQUE urls are fetched."""

    def __init__(
        self,
        fetcher: Callable[[str], int] | None = None,
        url_col: str = "url",
        cache_max: int = 1_000_000,
    ):
        self.fetch = fetcher or deterministic_fetcher
        self.url_col = url_col
        self.cache: dict[str, int] = {}
        self.cache_max = cache_max

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column(self.url_col)
        if isinstance(urls, pa.ChunkedArray):
            urls = urls.combine_chunks()
        urls = pc.fill_null(urls, "")
        denc = urls.dictionary_encode()
        statuses = []
        for u in denc.dictionary.to_pylist():
            s = self.cache.get(u)
            if s is None:
                s = int(self.fetch(u))
                if len(self.cache) < self.cache_max:
                    self.cache[u] = s
            statuses.append(s)
        import numpy as np

        dict_status = np.asarray(statuses, dtype=np.int64)
        row_status = dict_status[denc.indices.to_numpy(zero_copy_only=False)]
        ok = np.isin(row_status, list(OK_STATUSES))
        return batch.append_column(
            "status", pa.array(row_status, pa.int64())
        ).append_column("url_ok", pa.array(ok, pa.bool_()))


def check_urls(
    ds: rd.Dataset,
    fetcher: Callable[[str], int] | None = None,
    url_col: str = "url",
    concurrency: tuple[int, int] | int = (1, 8),
    batch_size: int | None = 4096,
) -> rd.Dataset:
    """Append ``status`` / ``url_ok`` to every row. The default
    (offline) fetcher keeps the stage deterministic and oracle-backed;
    pass ``requests_fetcher()`` on a networked cluster."""
    return ds.map_batches(
        URLStatusCheck,
        fn_constructor_args=(fetcher, url_col),
        batch_format="pyarrow",
        concurrency=concurrency,
        batch_size=batch_size,
    )


def sql_status_expr(url_expr: str = "url") -> str:
    """The deterministic fetcher as a SQL expression (DuckDB md5) —
    the oracle side of the differential."""
    cases = " ".join(
        f"WHEN '{nib}' THEN {st}" for nib, st in _STATUS_BY_NIBBLE.items()
    )
    # coalesce mirrors the engine's fill_null('') — DuckDB's md5(NULL)
    # would otherwise fall through the CASE to the ELSE arm
    return (
        f"CASE substr(md5(coalesce({url_expr}, '')), 1, 1) {cases} "
        f"ELSE {_DEFAULT_STATUS} END"
    )
