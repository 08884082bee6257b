"""REGISTRY.md must stay in sync with the live registry — the index
is the switch-over map a reference user navigates by. Regenerate with
``PYTHONPATH=/root/repo python tools/gen_registry_index.py``."""

from __future__ import annotations

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_registry_index_in_sync():
    from rsmetacheck_ray.pipelines.queries import registry

    reg = registry()
    text = open(os.path.join(_REPO, "REGISTRY.md")).read()
    listed = {
        line.split("`")[1]
        for line in text.splitlines()
        if line.startswith("| `")
    }
    missing = sorted(set(reg) - listed)
    stale = sorted(listed - set(reg))
    assert not missing and not stale, (
        f"REGISTRY.md out of sync (missing={missing}, stale={stale}); "
        "run tools/gen_registry_index.py"
    )


# The TPC-H/event tables. No gate user reads them, and no registry
# entry may read one again: the set below stays empty.
_TPCH_TABLE_RE = re.compile(
    r"\b(region|nation|customer|supplier|part|orders|lineitem|events)\b"
)
_TPCH_ENTRIES: set[str] = set()


def test_tpch_event_entries_do_not_grow():
    """No registry entry's oracle SQL reads a TPC-H/event table.
    Case-sensitive whole words, so ``PARTITION BY`` or a column such as
    ``n_events`` does not count."""
    from rsmetacheck_ray.pipelines.queries import registry

    reading = set()
    for name, (_fn, sql) in registry().items():
        if sql is None:
            continue
        if callable(sql):
            sql = sql()
        if _TPCH_TABLE_RE.search(sql):
            reading.add(name)
    assert reading == _TPCH_ENTRIES, (
        f"added={sorted(reading - _TPCH_ENTRIES)}, "
        f"retired={sorted(_TPCH_ENTRIES - reading)}"
    )
