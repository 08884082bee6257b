"""Frozen gate configuration.

The reference hard-codes its rule thresholds inline (e.g. the
``len(content_lines) <= 10`` boilerplate heuristic at
``p010.py:74``, the >1-day staleness window at ``w002.py:143``).
Here every threshold lives in ONE frozen dataclass so the fixture
labels, unit tests and production pipeline all see identical values —
SURVEY §7.4's "freeze the thresholds exactly once".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GateConfig:
    # --- document shape (C4-style) ---
    min_words: int = 8
    max_words: int = 200_000

    # --- Gopher-style ratio rules ---
    stopword_ratio_min: float = 0.05     # marker-word density floor (skipped for zh)
    symbol_ratio_max: float = 0.25       # non-alnum-non-space chars / chars
    top_bigram_frac_max: float = 0.20    # most-frequent adjacent word pair share
    dup_line_frac_max: float = 0.50      # 1 - unique_lines/lines
    repetition_scan_tokens: int = 512    # bounded per-doc work for the bigram scan

    # --- boilerplate-only classifier (P010 recast) ---
    boilerplate_max_lines: int = 3

    # --- language ID ---
    langid_min_conf: float = 0.08        # marker-density floor to call a language
    zh_char_ratio_min: float = 0.25      # CJK-char share to call zh
    # scan bounds: language ID and LM scoring read only a document
    # PREFIX so per-doc scoring work is O(bounded) at 100 KB-doc scale
    # (density estimates converge long before 2 KB); extraction and
    # scrub remain full-document by necessity
    langid_scan_chars: int = 2048
    ppl_scan_chars: int = 4096

    # --- perplexity gate ---
    max_bits_per_char: float = 5.0       # byte-trigram LM; calibrated: keep-rows ≤2.6, gibberish ≥8.5

    # --- staleness (W002 recast) ---
    outdated_days: float = 1.0

    # --- execution knobs (scale tuning, not semantics) ---
    # Gate-stage batch size is also the fused operator's task
    # granularity: run_gate's work items and Ray's bundles both hold
    # about batch_size rows, so rows/batch_size is the stage's max
    # parallelism. Swept
    # 512-4096 at 32 CPUs: 2048 is ~1.9x faster than 4096 on a 50k-doc
    # corpus (12 -> 25 tasks, the box finally fills) and marginally
    # faster at 1M docs (218k vs 212k docs/s) — per-batch kernel-launch
    # overhead is already amortized at 2048 rows.
    batch_size: int = 2048
    # real-model tier (opt-in): path to a fastText-format lid model;
    # each langid actor loads it once in __init__ (stages/langid.py).
    # None ⇒ the deterministic marker-density scorer (the default and
    # the oracle-checked path)
    langid_model: str | None = None

    # languages the gate understands
    known_langs: tuple = ("en", "fr", "es", "de", "zh")


DEFAULT_CONFIG = GateConfig()
