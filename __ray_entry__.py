"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module:
nothing here (nor in the library) initialises or shuts down Ray.

- ``entry()``: flagship quality-gate pipeline (SURVEY §3 "new-engine
  lifecycle") over pages synthesized from ``sf0.001/documents``.
- ``queries()`` / ``oracle_sql()``: the operator registry from
  ``rsmetacheck_ray/pipelines/queries.py`` — one entry per implemented
  operator family of SURVEY §2 plus the curation work after the gate
  (dedup, similarity search, sampling, corpus statistics).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from rsmetacheck_ray.pipelines.queries import q_gate_decisions, registry


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: synthesize pages
    from the documents table, run extract → langid → perplexity → rule
    catalog → keep/drop + scrub, return the decision Dataset."""
    return q_gate_decisions("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    return {name: fn for name, (fn, _sql) in registry().items()}


def oracle_sql() -> dict[str, str]:
    # a registry sql slot may be a zero-arg callable (deferred build:
    # gate_decisions trains + exports the LM oracle parameters);
    # resolve those only here, where the SQL is actually wanted
    return {
        name: (sql() if callable(sql) else sql)
        for name, (_fn, sql) in registry().items()
        if sql is not None
    }
