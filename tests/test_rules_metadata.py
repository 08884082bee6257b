"""Metadata-declaration rule family tests — the P006/P007/P013/P019/
W003/W004/W006/W009 recasts, in the reference's parametrized
trigger / non-trigger style (``test_p006.py``, ``test_p013.py``,
``test_w003.py`` etc.): every rule must fire on its planted trigger
value and stay silent on each near-miss."""

from __future__ import annotations

import pyarrow as pa
import pytest

from rsmetacheck_ray.config import DEFAULT_CONFIG
from rsmetacheck_ray.functions.tokenize import ws_token_stats
from rsmetacheck_ray.stages.rules import rule_stage_fn

_BASE = (
    "the quick brown fox was seen near the river bank and this text "
    "have enough regular english words that no shape rule fires here"
)


def _token_columns(texts: list[str]) -> dict:
    """The token/repetition columns the langid stage would attach."""
    stats = ws_token_stats(
        pa.array(texts, pa.string()),
        DEFAULT_CONFIG.langid_scan_chars,
        DEFAULT_CONFIG.repetition_scan_tokens,
    )
    return {k: pa.array(v) for k, v in stats.items()}


def _gate_texts(texts: list[str]) -> pa.Table:
    n = len(texts)
    batch = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "url": pa.array([f"https://site{i}.example.com/articles/x" for i in range(n)]),
            "warc_ts": pa.array([1_672_531_200_000_000] * n, pa.timestamp("us")),
            "extracted_text": pa.array(texts),
            "lang": pa.array(["en"] * n),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            "stopword_hits": pa.array([8] * n, pa.int64()),
            "stopword_lang": pa.array(["en"] * n),
            "detected_lang": pa.array(["en"] * n),
            "langid_conf": pa.array([0.9] * n, pa.float64()),
            "bits_per_char": pa.array([1.0] * n, pa.float64()),
            **_token_columns(texts),
        }
    )
    return rule_stage_fn(batch, DEFAULT_CONFIG)


# (rule, [trigger texts], [non-trigger texts]) — each mirrors the
# reference detector's own positive/negative cases
CASES = [
    (
        "local_file_license",  # p006.py:4-37
        [
            _BASE + "\nLicense: ./LICENSE.md",
            _BASE + "\nLicense: ../COPYING",
            _BASE + "\nLicense: docs/legal.txt",
            _BASE + "\nLicense: LICENSE",
            _BASE + "\nLicense: licence.md",
        ],
        [
            _BASE + "\nLicense: https://opensource.org/licenses/MIT",
            _BASE + "\nLicense: MIT",
            _BASE,
        ],
    ),
    (
        "citation_incomplete",  # p007.py:4-50
        [_BASE + "\nCite: the software paper\nsee 10.5281/zenodo.424242 online."],
        [
            _BASE + "\nCite: doi 10.5281/zenodo.424242 please",  # cited
            _BASE + "\nCite: the software paper",  # no DOI anywhere
            _BASE + "\nsee 10.5281/zenodo.424242 online.",  # no Cite line
        ],
    ),
    (
        "license_no_version",  # p013.py:29-68
        [
            _BASE + "\nLicense: GPL",
            _BASE + "\nLicense: Apache License",
            _BASE + "\nLicense: CC BY",
            _BASE + "\nLicense: BSD License",
        ],
        [
            _BASE + "\nLicense: GPL-3.0",
            _BASE + "\nLicense: Apache 2.0",
            _BASE + "\nLicense: CC BY 4.0",
            _BASE + "\nLicense: BSD 3 Clause",
            _BASE + "\nLicense: 0BSD",
            _BASE + "\nLicense: LicenseRef-MyCorp",
            _BASE + "\nLicense: MIT",
        ],
    ),
    (
        "author_count_mismatch",  # p019.py:69-145
        [_BASE + "\nAuthors: ann, bob, cid\nContributors: dee, eli"],
        [
            _BASE + "\nAuthors: ann, bob\nContributors: dee, eli",  # equal
            _BASE + "\nAuthors: ann, bob, cid",  # single source
            _BASE + "\nContributors: dee, eli",
        ],
    ),
    (
        "dual_license_untracked",  # w003.py:24-62
        [
            _BASE + "\nthis project is dual licensed\nLicense: MIT",
            _BASE + "\nDually licenced for your convenience\nLicense: MIT",
            _BASE + "\nmultiple licenses apply\nLicense: MIT",
        ],
        [
            _BASE + "\nthis project is dual licensed\nLicense: MIT or Apache-2.0",
            _BASE + "\nLicense: MIT",
            _BASE,
        ],
    ),
    (
        "requirement_no_version",  # w004.py:33-50
        [_BASE + "\nRequires: numpy", _BASE + "\nRequires: ray and pyarrow"],
        [
            _BASE + "\nRequires: numpy>=1.21",
            _BASE + "\nRequires: ray 2.49",
            _BASE,
        ],
    ),
    (
        "identifier_not_id",  # w006.py:73-155
        [
            _BASE + "\nIdentifier: my nice package\nsee https://example.org/pkg now.",
            _BASE + "\nIdentifier: my nice package\nsee 10.5281/zenodo.1 now.",
        ],
        [
            _BASE + "\nIdentifier: https://example.org/pkg",  # already valid
            _BASE + "\nIdentifier: doi:10.5281/zenodo.1",
            _BASE + "\nIdentifier: my nice package",  # nothing better elsewhere
        ],
    ),
    (
        "version_mismatch",  # p016.py:24-79 / p017.py:59-94
        [],  # needs a custom url; covered by the dedicated test below
        [_BASE + "\nVersion: 2.0", _BASE],
    ),
    (
        "status_url",  # w009.py:5-26
        [
            _BASE + "\nStatus: https://www.repostatus.org/#active",
            _BASE + "\nStatus: www.example.com/status",
            _BASE + "\nStatus: see repostatus.org",
        ],
        [_BASE + "\nStatus: active", _BASE],
    ),
]


@pytest.mark.parametrize("rule,triggers,clean", CASES, ids=[c[0] for c in CASES])
def test_metadata_rule_trigger_and_nontrigger(rule, triggers, clean):
    out = _gate_texts(triggers + clean)
    hits = out.column(f"hit_{rule}").to_pylist()
    for i in range(len(triggers)):
        assert hits[i], f"{rule} did not fire on trigger {triggers[i]!r}"
    for j in range(len(triggers), len(triggers) + len(clean)):
        assert not hits[j], f"{rule} fired on non-trigger {clean[j - len(triggers)]!r}"
    assert not any(out.column("rule_errors").to_pylist())


def test_metadata_rules_are_flags_not_drops():
    """The metadata family records but never drops (keep unchanged)."""
    out = _gate_texts([t for _, trig, _ in CASES for t in trig])
    assert all(out.column("keep").to_pylist())


def test_version_mismatch_url_vs_text():
    """P016/P017 two-source compare: URL /vN/ segment vs Version: line."""
    import pyarrow as pa

    from rsmetacheck_ray.stages.rules import rule_stage_fn

    texts = [
        _BASE + "\nVersion: 2.0",   # url v3 -> mismatch
        _BASE + "\nVersion: 3",     # url v3 -> agree
        _BASE + "\nVersion: 2.0",   # url without version -> no basis
        _BASE,                       # no Version line
    ]
    urls = [
        "https://site1.example.com/v3/docs-1",
        "https://site1.example.com/v3/docs-2",
        "https://site1.example.com/articles/page-3",
        "https://site1.example.com/v3/docs-4",
    ]
    n = len(texts)
    batch = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "url": pa.array(urls),
            "warc_ts": pa.array([1_672_531_200_000_000] * n, pa.timestamp("us")),
            "extracted_text": pa.array(texts),
            "lang": pa.array(["en"] * n),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            "stopword_hits": pa.array([8] * n, pa.int64()),
            "stopword_lang": pa.array(["en"] * n),
            "detected_lang": pa.array(["en"] * n),
            "langid_conf": pa.array([0.9] * n, pa.float64()),
            "bits_per_char": pa.array([1.0] * n, pa.float64()),
            **_token_columns(texts),
        }
    )
    out = rule_stage_fn(batch)
    assert out.column("hit_version_mismatch").to_pylist() == [True, False, False, False]
