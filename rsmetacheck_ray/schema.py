"""Arrow schemas — the fixed table boundary.

The reference is schema-free (every detector probes keys defensively,
``p001.py:10-14``); this engine fixes the schema at the boundary and
encodes "key absent ⇒ rule skips" as nullable columns
(SURVEY §1.4). Input shape is authoritative from
``BASELINE.json.input_hint``.
"""

from __future__ import annotations

import pyarrow as pa

# Primary input: one row per Common-Crawl-style web page.
PAGES_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string(), nullable=False),
        pa.field("warc_ts", pa.timestamp("us"), nullable=False),
        pa.field("html", pa.binary(), nullable=True),
        pa.field("text", pa.string(), nullable=True),
        pa.field("lang", pa.string(), nullable=True),
    ]
)

# canonical pages column order (derived from the schema — the ONE list
# every reader/union aligns to)
PAGES_COLUMNS = [f.name for f in PAGES_SCHEMA]

# Hidden driver-side labels for the golden test (FIXTURES.md §2).
LABELS_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string(), nullable=False),
        pa.field("family", pa.string(), nullable=False),
        pa.field("expected_keep", pa.bool_(), nullable=False),
        pa.field("expected_rules", pa.list_(pa.string()), nullable=False),
        pa.field("expected_scrubbed_text", pa.string(), nullable=False),
    ]
)

# Rule-hit evidence column emitted by the rule stage
# (recasts the per-(doc, rule) result dicts, ``p001.py:70-77``).
RULE_HITS_TYPE = pa.list_(
    pa.struct(
        [
            pa.field("rule", pa.string()),
            pa.field("severity", pa.string()),
            pa.field("evidence", pa.string()),
        ]
    )
)
