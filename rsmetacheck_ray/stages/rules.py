"""The rule catalog — the engine's relational core (SURVEY §2.3).

Recasts the reference's ordered detector catalog
(``detect_pitfalls_main.py:281-311``: a list of ``(fn, code)`` pairs
applied to every document) as ONE fused, stateless ``map_batches``
stage: every rule is a vectorized predicate over a shared
pre-computed stats context, evaluated in stable catalog order, emitting
a ``rule_hits`` list-of-struct column, a ``keep`` bool
(= no drop-severity rule fired — the reference's "flagged if any rule
fired", ``detect_pitfalls_main.py:361-366``) and the scrubbed text.

Reference semantics preserved:
 - per-rule exception isolation: a crashing rule is skipped for the
   batch (recorded in ``rule_errors``), processing continues —
   ``detect_pitfalls_main.py:356-358``;
 - missing/null input ⇒ rule skips, never errors — the defensive
   key-probing of ``p001.py:10-14`` becomes null-handling;
 - stable rule order and stable rule codes.

Rule → reference mapping (what each rule recasts):
 - ``empty_text``            ← W007 empty identifier (``w007.py:30``)
 - ``too_short``/``too_long``← C4 length gates (shape of W001's ratio)
 - ``stopword_ratio_low``    ← Gopher stop-word gate (classifier shape
                               of P010, ``p010.py:29-102``)
 - ``symbol_ratio_high``     ← Gopher symbol gate
 - ``repetition``            ← Gopher repetition / dedup keys
 - ``boilerplate_only``      ← P010 copyright-only (``p010.py:105-128``)
 - ``template_placeholder``  ← P002 license placeholders (``p002.py:30-59``)
 - ``lang_mismatch``         ← P001 declared-vs-actual (``p001.py:65-94``)
 - ``perplexity_high``       ← north-rule KenLM gate
 - ``dead_url_pattern``      ← P008/P011/P015 broken-URL rules, offline
                               recast (their tests mock HTTP anyway,
                               ``test_p015.py:34-49``)
 - ``homepage_url``          ← P004/P009 homepage-vs-repo heuristics
 - ``archive_url``           ← P005 software-archive URL list
 - ``shorthand_url``         ← W010 ``host:user/repo`` shorthand
 - ``bare_identifier``       ← P014 bare DOI + P018 raw SWHID
 - ``multi_value_field``     ← P003/W005/W008 multi-value-in-one-string
 - ``outdated_ts``           ← W002 >1-day staleness (``w002.py:104-146``)
 - ``pii_email``/``pii_phone``/``pii_ip``/``toxicity`` ← scrub rules
   (regex-scan pattern of ``p002.py:37-59``)
 - ``local_file_license``    ← P006 license-is-a-local-file classifier
   (``p006.py:4-37``), over in-page ``License:`` declaration lines
 - ``citation_incomplete``   ← P007 cross-file completeness
   (``p007.py:4-50``): a citation section exists and a DOI exists
   elsewhere in the document, but the citation line lacks it
 - ``license_no_version``    ← P013 versioned-family-without-version
   regex table + exemptions (``p013.py:6-68``)
 - ``author_count_mismatch`` ← P019 pairwise source count inconsistency
   (``p019.py:69-145``): Authors: vs Contributors: list length
   disagreement — the second cross-source consistency rule (the
   P016/P017 two-source compare shape)
 - ``dual_license_untracked``← W003 dual-license indicator while the
   declaration lists only one (``w003.py:5-64``)
 - ``requirement_no_version``← W004 unversioned requirement entries
   (``w004.py:3-50``), over ``Requires:`` lines
 - ``identifier_not_id``     ← W006 name-instead-of-identifier while a
   valid one exists elsewhere (``w006.py:73-155``)
 - ``status_url``            ← W009 development-status-is-a-URL
   (``w009.py:5-63``), over ``Status:`` lines

Regex predicates. One polars query per batch (``full_pass_scans``)
runs the ASCII symbol count, the ``Last updated:`` date, the Rust
spelling of each whole-text, URL and lang-field predicate
(``PREDICATES``; the RE2 originals stay the spec the DuckDB oracles
run) and one ``extract_all`` of the metadata declaration lines. The
ten predicates whose first match is their rule's evidence
(``MATCHED``) are extracted, so one column is both hit and evidence.
The 15 metadata-line predicates (``LINE_PREDICATES``) run as RE2
originals on the extracted lines, which also give the metadata
evidence and the ``Authors:``, ``Contributors:`` and ``Version:``
values. The gate's polars patterns stay at or under 32: polars 1.42.1
caches compiled regexes per thread in 32 entries
(``polars_utils::regex_cache``), and one pattern more recompiles every
pattern on every batch (a 1-row query: 0.66 ms with 32 patterns, 9.5 ms
with 33). The query holds 19, extract and langid 7 more. RE2 keeps the
non-ASCII symbol class (Rust's Unicode 16 tables class 5,004
codepoints differently) and the work on fired or hit rows: two
evidence extracts, ``apply_scrub`` and the evidence JSON escape check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DEFAULT_CONFIG, GateConfig
from ..functions.arrowbuf import value_spans
from ..functions.vocab import TOXICITY_WORDS
from ..schema import RULE_HITS_TYPE

# --------------------------------------------------------------------------
# scrub patterns (RE2 — executed with pyarrow.compute, vectorized)
# --------------------------------------------------------------------------

EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PHONE_RE = r"\+?\d{1,2}-\d{3}-\d{3}-\d{4}|\(\d{3}\) ?\d{3}-\d{4}"
IP_RE = r"\b(?:\d{1,3}\.){3}\d{1,3}\b"
TOX_RE = r"\b(?:" + "|".join(TOXICITY_WORDS) + r")\b"

SCRUBS: list[tuple[str, str, str]] = [
    ("pii_email", EMAIL_RE, "<EMAIL>"),
    ("pii_phone", PHONE_RE, "<PHONE>"),
    ("pii_ip", IP_RE, "<IP>"),
    ("toxicity", TOX_RE, "****"),
]

# --------------------------------------------------------------------------
# URL pattern tables (offline recasts of the reference's URL rules)
# --------------------------------------------------------------------------

DEAD_PATH_RE = r"/wp-login\.php|/cgi-bin/|/xmlrpc\.php|/wp-admin/|/phpmyadmin"
HOMEPAGE_RE = r"^https?://(?:docs|wiki)\.[^/]+/|/wiki/|^https?://[^/]+/$"
ARCHIVE_RE = (
    r"^https?://(?:[^/]*\.)?(?:zenodo\.org|figshare\.com|sourceforge\.net|archive\.org)/"
    r"|/releases/"
)
SHORTHAND_RE = r"^[A-Za-z0-9.-]+\.[A-Za-z]{2,}:[^/0-9][^ ]*$"
BARE_DOI_RE = r"(?:^|[\s(])10\.\d{4,9}/[^\s)]+"
SWHID_RE = r"\bswh:1:(?:cnt|dir|rev|rel|snp):[0-9a-f]{40}\b"
PLACEHOLDER_RE = (
    r"<year>|<name of author>|\[fullname\]|\[year\]|\{\{[^}]*\}\}|"
    r"<copyright holders?>|<owner>|lorem ipsum"
)
COPYRIGHT_RE = r"(?i)\(c\) \d{4}|copyright \d{4}|all rights reserved"
NAV_RE = r"(?i)home \| about|\| contact|\| privacy|\| terms"
MULTI_VALUE_RE = r"[,;]|\[|\]| and "
LAST_UPDATED_RE = r"Last updated: (?P<d>\d{4}-\d{2}-\d{2})"

# --- metadata-declaration line rules (P006/P007/P013/P019/W003/W004/
# W006/W009 recasts). RE2 has no lookahead, so each rule is a positive
# match minus explicit negative matches — mirrored 1:1 in the DuckDB
# oracle as regexp_matches(...) AND NOT regexp_matches(...). ---

# P006 p006.py:4-37 — license declaration points at a local file
LIC_URL_RE = r"(?m)^License: https?://"
LIC_LOCAL_RE = (
    r"(?m)^License: (?:\.{1,2}/[^\n]*|[^\n]*[/\\][^\n]*|[^\n]*\.(?:md|txt|rst)"
    r"|(?i:licen[cs]e|copying|copyright))$"
)
# P013 p013.py:29-37 — versioned license family named without a version
LIC_FAMILY_RE = r"(?m)^License: [^\n]*\b(?i:AGPL|LGPL|GPL|Apache|CC[- ]BY|BSD)\b"
LIC_VERSIONED_RE = (
    r"(?m)^License: [^\n]*(?:\b(?i:AGPL|LGPL|GPL|Apache)[- ]?\d(?:\.\d+)?"
    r"|\b(?i:CC[- ]BY)[- ]?\d(?:\.\d+)?|\b(?i:BSD)[- ]\d[- ](?i:Clause))"
)
LIC_EXEMPT_RE = r"(?m)^License: [^\n]*(?:0BSD|(?i:LICENSEREF-))"
# P007 p007.py:4-50 — citation line present, DOI elsewhere, not cited
CITE_LINE_RE = r"(?m)^Cite: "
CITE_DOI_RE = r"(?m)^Cite: [^\n]*\b10\.\d{4,9}/"
# P019 p019.py:69-145 — author-list length disagreement across sources
AUTHORS_LINE_RE = r"(?m)^Authors: (?P<v>[^\n]*)"
CONTRIB_LINE_RE = r"(?m)^Contributors: (?P<v>[^\n]*)"
# W003 w003.py:24-34 — dual-license indicators
DUAL_LIC_RE = (
    r"(?i:dual[\s-]?licen[cs]ed?|dually[\s-]?licen[cs]ed?"
    r"|multiple[\s-]?licen[cs]es?"
    r"|available under (?:two|multiple|either)[^\n]*licen[cs]es?"
    r"|choose (?:between|from)[^\n]*licen[cs]e|licen[cs]e options?)"
)
MULTI_LIC_DECL_RE = r"(?m)^License: [^\n]*(?:,| or | OR )"
# W004 w004.py:3-50 — requirement entry with no version digits
REQ_NOVER_RE = r"(?m)^Requires: [^0-9\n]*$"
# W006 w006.py:5-43 — identifier that is a name, not a DOI/URL
ID_LINE_RE = r"(?m)^Identifier: "
ID_VALID_RE = r"(?m)^Identifier: (?:(?i:doi:)?10\.\d+/|https?://)"
URL_ANY_RE = r"https?://"
# W009 w009.py:5-26 — development status value is URL-shaped
STATUS_URL_RE = r"(?m)^Status: [^\n]*(?:https?://|www\.|\.org|\.com|\.net)"
# P012/P016/P017 p016.py:24-79, p017.py:59-94 — two normalized version
# sources disagree: the version segment of the URL vs the in-page
# Version: declaration
VERSION_LINE_RE = r"(?m)^Version: (?P<v>[0-9][0-9.]*)"
VERSION_LINE_HAS_RE = r"(?m)^Version: [0-9]"
URL_VERSION_RE = r"/v(?P<v>\d+(?:\.\d+)?)/"
# the declaration lines every pattern above reads; each anchor's first
# line is its rules' evidence
DECL_ANCHORS = ("License", "Cite", "Authors", "Contributors", "Requires", "Identifier",
                "Status", "Version")
DECL_LINE_RE = r"(?m)^(?:" + "|".join(DECL_ANCHORS) + r"): [^\n]*"
DECL_LINE = {a: rf"(?m)^{a}: [^\n]*" for a in DECL_ANCHORS}


# --------------------------------------------------------------------------
# rule registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """One catalog entry — the analog of the reference's parallel
    registries keyed by code (``utils/json_ld_utils.py:53-91,144-418``):
    code, severity ('drop' fails the gate, 'flag' only records),
    category, a vectorized predicate over the stats context, and a
    human suggestion string for the lineage record."""

    code: str
    severity: str  # "drop" | "flag"
    category: str
    fn: Callable[[dict], np.ndarray]  # ctx -> bool ndarray
    suggestion: str


def _bool(arr) -> np.ndarray:
    return pc.fill_null(arr, False).to_numpy(zero_copy_only=False)


def _r_empty_text(ctx):
    return ctx["n_tokens"] == 0


def _r_too_short(ctx):
    cfg: GateConfig = ctx["cfg"]
    return (ctx["n_tokens"] > 0) & (ctx["n_tokens"] < cfg.min_words) & (ctx["detected"] != "zh")


def _r_too_long(ctx):
    return ctx["n_tokens"] > ctx["cfg"].max_words


def _r_stopword_low(ctx):
    cfg: GateConfig = ctx["cfg"]
    has_basis = ctx["stopword_lang_valid"]
    # density over the langid SCAN PREFIX (hits and tokens counted in
    # the same bounded window); the min-length gate stays full-doc
    ratio = ctx["stopword_hits"] / np.maximum(ctx["n_tokens_scan"], 1)
    return has_basis & (ctx["n_tokens"] >= cfg.min_words) & (ratio < cfg.stopword_ratio_min)


def _r_symbol_high(ctx):
    cfg: GateConfig = ctx["cfg"]
    ratio = ctx["symbol_chars"] / np.maximum(ctx["n_chars"], 1)
    return (ctx["n_chars"] > 0) & (ratio > cfg.symbol_ratio_max)


def _r_repetition(ctx):
    cfg: GateConfig = ctx["cfg"]
    return (ctx["top_bigram_frac"] > cfg.top_bigram_frac_max) | (
        (ctx["n_lines"] >= 4) & (ctx["dup_line_frac"] > cfg.dup_line_frac_max)
    )


def _r_boilerplate(ctx):
    cfg: GateConfig = ctx["cfg"]
    hits = ctx["hits"]
    return ((ctx["n_tokens"] > 0) & (ctx["n_lines"] <= cfg.boilerplate_max_lines)
            & (hits[COPYRIGHT_RE] | hits[NAV_RE]))


def _r_placeholder(ctx):
    return ctx["hits"][PLACEHOLDER_RE]


def _r_lang_mismatch(ctx):
    cfg: GateConfig = ctx["cfg"]
    known = np.isin(ctx["declared"], np.array(cfg.known_langs))
    det_known = np.isin(ctx["detected"], np.array(cfg.known_langs))
    return known & det_known & (ctx["declared"] != ctx["detected"])


def _r_perplexity(ctx):
    cfg: GateConfig = ctx["cfg"]
    return (ctx["n_tokens"] > 0) & (ctx["bits_per_char"] > cfg.max_bits_per_char)


def _r_dead_url(ctx):
    return ctx["hits"][DEAD_PATH_RE]


def _r_homepage_url(ctx):
    return ctx["hits"][HOMEPAGE_RE]


def _r_archive_url(ctx):
    return ctx["hits"][ARCHIVE_RE]


def _r_shorthand_url(ctx):
    return ctx["hits"][SHORTHAND_RE]


def _r_bare_identifier(ctx):
    return ctx["hits"][BARE_DOI_RE] | ctx["hits"][SWHID_RE]


def _r_multi_value(ctx):
    return ctx["hits"][MULTI_VALUE_RE]


def _r_outdated_ts(ctx):
    cfg: GateConfig = ctx["cfg"]
    stale_days = ctx["stale_days"]  # NaN when no in-document date
    with np.errstate(invalid="ignore"):
        return np.nan_to_num(stale_days, nan=0.0) > cfg.outdated_days


def _r_scrub(code: str):
    def fn(ctx):
        return ctx["scrub_hits"][code]

    return fn


def _r_local_file_license(ctx):
    # p006.py:4-37 — positive local-file shapes minus the URL shape
    return ctx["hits"][LIC_LOCAL_RE] & ~ctx["hits"][LIC_URL_RE]


def _r_citation_incomplete(ctx):
    # p007.py:44-48: reference exists (DOI anywhere) AND the citation
    # section exists AND the citation line itself lacks the reference
    return (
        ctx["hits"][CITE_LINE_RE]
        & ctx["hits"][BARE_DOI_RE]
        & ~ctx["hits"][CITE_DOI_RE]
    )


def _r_license_no_version(ctx):
    # p013.py:29-68: family named, no version token, minus exemptions
    return (
        ctx["hits"][LIC_FAMILY_RE]
        & ~ctx["hits"][LIC_VERSIONED_RE]
        & ~ctx["hits"][LIC_EXEMPT_RE]
    )


def _r_author_count_mismatch(ctx):
    # p019.py:69-145: list lengths disagree across two sources; the
    # comma count of each first line (AUTHORS_/CONTRIB_LINE_RE's match)
    # IS count-1, so counts differ iff comma counts differ
    authors, contrib = (pc.count_substring(ctx["first"][DECL_LINE[a]], ",")
                        for a in ("Authors", "Contributors"))
    return _bool(pc.not_equal(authors, contrib))


def _r_dual_license_untracked(ctx):
    # w003.py:24-62: dual-license wording while the declaration lists
    # at most one license
    return ctx["hits"][DUAL_LIC_RE] & ~ctx["hits"][MULTI_LIC_DECL_RE]


def _r_requirement_no_version(ctx):
    # w004.py:33-50: a requirement entry whose value has no version digits
    return ctx["hits"][REQ_NOVER_RE]


def _r_identifier_not_id(ctx):
    # w006.py:73-155: identifier is a plain name AND a valid DOI/URL
    # identifier exists elsewhere in the document (the anti-join shape)
    named = ctx["hits"][ID_LINE_RE] & ~ctx["hits"][ID_VALID_RE]
    if not named.any():
        return named
    return named & (ctx["hits"][BARE_DOI_RE] | ctx["hits"][URL_ANY_RE])


def _r_status_url(ctx):
    # w009.py:5-26 is_url over the development-status value
    return ctx["hits"][STATUS_URL_RE]


def _r_version_mismatch(ctx):
    # p016.py:24-79 / p017.py:59-94: two version sources both present
    # and disagreeing — the URL's /vN(.M)/ segment vs the page's
    # Version: line, VERSION_LINE_RE's v (exact compare, mirrored in SQL)
    idx = np.flatnonzero(ctx["hits"][VERSION_LINE_HAS_RE])
    out = np.zeros(len(ctx["text"]), dtype=bool)
    if not len(idx):
        return out
    take = pa.array(idx)
    t_ex = pc.utf8_slice_codeunits(ctx["first"][VERSION_LINE_RE].take(take), len("Version: "))
    u_ex = pc.struct_field(pc.extract_regex(ctx["url"].take(take), URL_VERSION_RE), "v")
    out[idx] = _bool(pc.not_equal(t_ex, u_ex))
    return out


# --------------------------------------------------------------------------
# per-rule evidence providers — the analog of the reference's
# CheckResult payloads (utils/json_ld_utils.py:447-493: each fired rule
# carries the specific offending value, not just the fact it fired)
# --------------------------------------------------------------------------

_EVIDENCE_MAX_CHARS = 160


def _ev_first(col: str, pattern: str):
    """Evidence = first regex match in ``col``, extracted from the
    fired rows only (taken out first, so the RE2 pass touches fired rows
    alone); null where a row has no match."""

    def ev(ctx, idx: np.ndarray) -> pa.Array:
        rows = ctx[col].take(pa.array(idx))
        return pc.struct_field(pc.extract_regex(rows, f"(?P<m>{pattern})"), "m")

    return ev


def _ev_match(pattern: str):
    """Evidence = ``pattern``'s first match, held by the stats context."""
    return lambda ctx, idx: ctx["first"][pattern].take(pa.array(idx))


def _ev_fmt(fmt: Callable[..., str], *cols: str):
    """Evidence = ``fmt`` over the fired rows' values of the stats
    context columns ``cols``."""

    def ev(ctx, idx: np.ndarray) -> pa.Array:
        vals = zip(*(ctx[c][idx].tolist() for c in cols))
        return pa.array([fmt(*v) for v in vals], pa.string())

    return ev


EVIDENCE: dict[str, Callable] = {
    "too_short": _ev_fmt(lambda n: f"n_tokens={n}", "n_tokens"),
    "too_long": _ev_fmt(lambda n: f"n_tokens={n}", "n_tokens"),
    "stopword_ratio_low": _ev_fmt(
        lambda hits, scan: f"stopword_ratio={hits / max(scan, 1):.4f}",
        "stopword_hits", "n_tokens_scan",
    ),
    "symbol_ratio_high": _ev_fmt(
        lambda sym, chars: f"symbol_ratio={sym / max(chars, 1):.4f}",
        "symbol_chars", "n_chars",
    ),
    "repetition": _ev_fmt(
        lambda top, dup: f"top_bigram_frac={top:.3f},dup_line_frac={dup:.3f}",
        "top_bigram_frac", "dup_line_frac",
    ),
    "boilerplate_only": _ev_first("text", COPYRIGHT_RE + "|" + NAV_RE),
    "template_placeholder": _ev_match(PLACEHOLDER_RE),
    "lang_mismatch": _ev_fmt(
        lambda dec, det: f"declared={dec},detected={det}", "declared", "detected"
    ),
    "perplexity_high": _ev_fmt(lambda b: f"bits_per_char={b:.3f}", "bits_per_char"),
    "dead_url_pattern": _ev_match(DEAD_PATH_RE),
    "homepage_url": _ev_match(HOMEPAGE_RE),
    "archive_url": _ev_match(ARCHIVE_RE),
    "shorthand_url": _ev_match(SHORTHAND_RE),
    "bare_identifier": _ev_first("text", BARE_DOI_RE + "|" + SWHID_RE),
    "multi_value_field": _ev_fmt(lambda dec: f"lang={dec}", "declared"),
    "outdated_ts": _ev_fmt(lambda d: f"stale_days={d:.1f}", "stale_days"),
    "pii_email": _ev_match(EMAIL_RE),
    "pii_phone": _ev_match(PHONE_RE),
    "pii_ip": _ev_match(IP_RE),
    "toxicity": _ev_match(TOX_RE),
    "local_file_license": _ev_match(DECL_LINE["License"]),
    "citation_incomplete": _ev_match(DECL_LINE["Cite"]),
    "license_no_version": _ev_match(DECL_LINE["License"]),
    "author_count_mismatch": _ev_match(DECL_LINE["Authors"]),
    "dual_license_untracked": _ev_match(DUAL_LIC_RE),
    "requirement_no_version": _ev_match(DECL_LINE["Requires"]),
    "identifier_not_id": _ev_match(DECL_LINE["Identifier"]),
    "status_url": _ev_match(DECL_LINE["Status"]),
    "version_mismatch": _ev_match(DECL_LINE["Version"]),
}


# Stable catalog order (the reference's registration order semantics,
# detect_pitfalls_main.py:281-311).
CATALOG: list[Rule] = [
    Rule("empty_text", "drop", "shape", _r_empty_text, "document has no extractable text"),
    Rule("too_short", "drop", "shape", _r_too_short, "fewer words than the C4-style floor"),
    Rule("too_long", "drop", "shape", _r_too_long, "more words than the ceiling"),
    Rule("stopword_ratio_low", "drop", "quality", _r_stopword_low, "stop-word density below the Gopher floor"),
    Rule("symbol_ratio_high", "drop", "quality", _r_symbol_high, "symbol character share above the Gopher ceiling"),
    Rule("repetition", "drop", "quality", _r_repetition, "dominant repeated n-gram or duplicated lines"),
    Rule("boilerplate_only", "drop", "quality", _r_boilerplate, "only copyright/navigation boilerplate"),
    Rule("template_placeholder", "drop", "quality", _r_placeholder, "unfilled template placeholder in text"),
    Rule("lang_mismatch", "drop", "consistency", _r_lang_mismatch, "declared lang differs from detected lang"),
    Rule("perplexity_high", "drop", "quality", _r_perplexity, "LM bits-per-char above the gibberish ceiling"),
    Rule("dead_url_pattern", "drop", "url", _r_dead_url, "URL matches a dead/admin endpoint pattern"),
    Rule("homepage_url", "flag", "url", _r_homepage_url, "URL is a homepage/wiki, not content"),
    Rule("archive_url", "flag", "url", _r_archive_url, "URL points at a software archive"),
    Rule("shorthand_url", "flag", "url", _r_shorthand_url, "URL uses scheme-less host:path shorthand"),
    Rule("bare_identifier", "flag", "content", _r_bare_identifier, "bare DOI/SWHID token in text"),
    Rule("multi_value_field", "flag", "consistency", _r_multi_value, "multiple values jammed into the lang field"),
    Rule("outdated_ts", "flag", "consistency", _r_outdated_ts, "in-document date >1 day older than warc_ts"),
    Rule("pii_email", "flag", "pii", _r_scrub("pii_email"), "email address scrubbed"),
    Rule("pii_phone", "flag", "pii", _r_scrub("pii_phone"), "phone number scrubbed"),
    Rule("pii_ip", "flag", "pii", _r_scrub("pii_ip"), "IP address scrubbed"),
    Rule("toxicity", "flag", "toxicity", _r_scrub("toxicity"), "toxic term masked"),
    # metadata-declaration family (P006/P007/P013/P019/W003/W004/W006/
    # W009 recasts — appended, preserving the catalog order above)
    Rule("local_file_license", "flag", "metadata", _r_local_file_license,
         "license declaration points at a local file, not a license name"),
    Rule("citation_incomplete", "flag", "metadata", _r_citation_incomplete,
         "citation line omits the DOI present elsewhere in the document"),
    Rule("license_no_version", "flag", "metadata", _r_license_no_version,
         "versioned license family named without a version"),
    Rule("author_count_mismatch", "flag", "consistency", _r_author_count_mismatch,
         "Authors: and Contributors: lists disagree in length"),
    Rule("dual_license_untracked", "flag", "metadata", _r_dual_license_untracked,
         "dual-license wording but only one license declared"),
    Rule("requirement_no_version", "flag", "metadata", _r_requirement_no_version,
         "requirement entry has no version pin"),
    Rule("identifier_not_id", "flag", "metadata", _r_identifier_not_id,
         "identifier is a name while a DOI/URL identifier exists elsewhere"),
    Rule("status_url", "flag", "metadata", _r_status_url,
         "development status value is a URL"),
    Rule("version_mismatch", "flag", "consistency", _r_version_mismatch,
         "URL version segment disagrees with the declared Version line"),
]

RULE_CODES = [r.code for r in CATALOG]
DROP_CODES = [r.code for r in CATALOG if r.severity == "drop"]


# --------------------------------------------------------------------------
# shared stats context (computed once per batch, reused by every rule)
# --------------------------------------------------------------------------

# Every regex predicate a rule reads on the whole text, URL or lang
# field, keyed by its RE2 original, which stays the spec (the DuckDB
# oracles and the scrub run it): the input column it reads and its Rust
# spelling. RE2's \b, \d and \s are ASCII, Rust's are Unicode, so each
# spelling writes RE2's meaning out: \b -> (?-u:\b), \d -> [0-9], \s ->
# [\t\n\f\r ] (inside classes too). Both engines fold ſ/s and K/k under
# (?i) and end a (?m) line at \n alone, so those parts are spelled as
# they are. PHONE is factored on its shared -\d{4} tail: unfactored, Rust
# scans html_gate's text at 2.1-2.2 µs/doc against 0.3 (polars 1.42, one
# core). Both engines take the leftmost-first match, so a spelling's
# first match is RE2's too. tests/test_regex_engines.py checks each
# spelling against RE2 on every codepoint, where its changes read.
_B = r"(?-u:\b)"
PREDICATES: dict[str, tuple[str, str]] = {
    # scrub patterns
    EMAIL_RE: ("text", EMAIL_RE),
    PHONE_RE: ("text", r"(?:\+?[0-9]{1,2}-[0-9]{3}-[0-9]{3}|\([0-9]{3}\) ?[0-9]{3})-[0-9]{4}"),
    IP_RE: ("text", _B + r"(?:[0-9]{1,3}\.){3}[0-9]{1,3}" + _B),
    TOX_RE: ("text", _B + "(?:" + "|".join(TOXICITY_WORDS) + ")" + _B),
    # text rules
    PLACEHOLDER_RE: ("text", PLACEHOLDER_RE),
    COPYRIGHT_RE: ("text", r"(?i)\(c\) [0-9]{4}|copyright [0-9]{4}|all rights reserved"),
    NAV_RE: ("text", NAV_RE),
    BARE_DOI_RE: ("text", r"(?:^|[\t\n\f\r (])10\.[0-9]{4,9}/[^\t\n\f\r )]+"),
    SWHID_RE: ("text", _B + r"swh:1:(?:cnt|dir|rev|rel|snp):[0-9a-f]{40}" + _B),
    URL_ANY_RE: ("text", URL_ANY_RE),
    DUAL_LIC_RE: ("text", r"(?i:dual[\t\n\f\r -]?licen[cs]ed?|dually[\t\n\f\r -]?licen[cs]ed?"
                  r"|multiple[\t\n\f\r -]?licen[cs]es?"
                  r"|available under (?:two|multiple|either)[^\n]*licen[cs]es?"
                  r"|choose (?:between|from)[^\n]*licen[cs]e|licen[cs]e options?)"),
    # URL rules
    DEAD_PATH_RE: ("url", DEAD_PATH_RE),
    HOMEPAGE_RE: ("url", HOMEPAGE_RE),
    ARCHIVE_RE: ("url", ARCHIVE_RE),
    SHORTHAND_RE: ("url", SHORTHAND_RE),
    # the declared lang field
    MULTI_VALUE_RE: ("lang", MULTI_VALUE_RE),
}
# extracted: the first match is the rule's evidence, the hit "not null"
MATCHED = (EMAIL_RE, PHONE_RE, IP_RE, TOX_RE, PLACEHOLDER_RE, DUAL_LIC_RE,
           DEAD_PATH_RE, HOMEPAGE_RE, ARCHIVE_RE, SHORTHAND_RE)
# each matches within one DECL_LINE_RE line ((?m) ^ and $ end a line at
# \n; a final \b reads \n and the text's end alike): RE2 runs on the lines
LINE_PREDICATES = (
    LIC_URL_RE, LIC_LOCAL_RE, LIC_FAMILY_RE, LIC_VERSIONED_RE, LIC_EXEMPT_RE,
    MULTI_LIC_DECL_RE, CITE_LINE_RE, CITE_DOI_RE, AUTHORS_LINE_RE, CONTRIB_LINE_RE,
    REQ_NOVER_RE, ID_LINE_RE, ID_VALID_RE, STATUS_URL_RE, VERSION_LINE_HAS_RE,
)
# LAST_UPDATED_RE's group, extracted in the same query
_LAST_UPDATED_RUST = r"Last updated: ([0-9]{4}-[0-9]{2}-[0-9]{2})"

# RE2's \w is ASCII-only — use Unicode letter/number classes so CJK
# text isn't counted as symbols. This RE2 class defines the count (the
# oracles in queries.py spell the same class, and
# tests/test_regex_engines.py checks the gate against it); the gate
# counts it as the sum of two exact parts, since RE2's \s is ASCII:
# the ASCII symbols (not a letter, digit or RE2 \s), a class both
# engines read alike, counted over every row in the polars query; and
# the non-ASCII ones by RE2 on the rows holding a byte >= 0x80 only.
# The Unicode classes stay on RE2: Rust's regex tables (Unicode 16)
# class 5,004 codepoints differently from RE2's.
_SYMBOL_RE = r"[^\p{L}\p{N}\s]"
_SYMBOL_ASCII_RUST = r"[\x00-\x08\x0B\x0E-\x1F!-/:-@\[-`{-\x7F]"
_SYMBOL_NON_ASCII = r"[^\x00-\x7F\p{L}\p{N}]"
_FULL_PASSES = (
    pl.col("text").str.count_matches(_SYMBOL_ASCII_RUST).fill_null(0).alias("symbols"),
    pl.col("text").str.extract(_LAST_UPDATED_RUST, 1).alias("last_updated"),
    pl.col("text").str.extract_all(DECL_LINE_RE).alias("decl"),
    *((pl.col(col).str.extract(rust, 0) if pat in MATCHED
       else pl.col(col).str.contains(rust).fill_null(False)).alias(f"p{k}")
      for k, (pat, (col, rust)) in enumerate(PREDICATES.items())),
)
_ARROW = pl.CompatLevel.oldest()


def _np_int(arr) -> np.ndarray:
    return arr.to_numpy(zero_copy_only=False).astype(np.int64)


def _take_or_null(values: pa.Array, pos: np.ndarray) -> pa.Array:
    """``values[pos]``, null where ``pos`` is negative."""
    return values.take(pa.array(pos, mask=pos < 0))


def _decl_lines(decl: pa.Array, n: int) -> tuple[dict, dict]:
    """(``LINE_PREDICATES`` hits, first matches of each ``DECL_LINE``
    pattern and ``VERSION_LINE_RE``) over ``n`` rows' declaration lines
    ``decl``. A pattern starting ``(?m)^Anchor: `` runs on that anchor's
    lines only."""
    lines = decl.flatten()  # no null values: a row without lines is null or []
    row = pc.list_parent_indices(decl).to_numpy()

    def first(at: np.ndarray) -> np.ndarray:
        # per row, the index in `at` (ascending lines) of its first line; -1
        r = row[at]
        head = np.flatnonzero(np.diff(r, prepend=-1))
        pos = np.full(n, -1, dtype=np.int64)
        pos[r[head]] = head
        return pos

    hits, found = {}, {}
    for a in DECL_ANCHORS:
        at = np.flatnonzero(pc.starts_with(lines, a + ": ").to_numpy(zero_copy_only=False))
        on = lines.take(pa.array(at))
        found[DECL_LINE[a]] = _take_or_null(on, first(at))
        for p in LINE_PREDICATES:
            if p.startswith(f"(?m)^{a}: "):
                m = pc.match_substring_regex(on, p).to_numpy(zero_copy_only=False)
                hits[p] = np.bincount(row[at[m]], minlength=n) > 0
        if a == "Version":
            v = pc.struct_field(pc.extract_regex(on, f"(?P<m>{VERSION_LINE_RE})"), "m")
            valid = pc.is_valid(v).to_numpy(zero_copy_only=False)
            found[VERSION_LINE_RE] = _take_or_null(v.filter(pa.array(valid)), first(at[valid]))
    return hits, found


def full_pass_scans(
    text: pa.Array, url: pa.Array, lang: pa.Array, n_chars: np.ndarray,
) -> tuple[np.ndarray, dict[str, np.ndarray], dict[str, pa.Array], pa.Array]:
    """(symbol count, predicate hits, first matches, ``Last updated:``
    date) per row of one batch's ``text``, ``url`` and ``lang``, where
    ``n_chars`` counts each text's codepoints (0 for a null): the
    ``_SYMBOL_RE`` count, a bool array per ``PREDICATES`` and
    ``LINE_PREDICATES`` pattern (False on a null), the first match of
    each ``MATCHED`` and ``DECL_LINE`` pattern and of ``VERSION_LINE_RE``,
    and ``LAST_UPDATED_RE``'s ``d`` group (both null where none).

    The whole-text scans are one polars query on the calling thread
    (``select_seq``: a gate task is one CPU, and polars' regex cache is
    per thread). RE2 runs the metadata-line patterns on the lines it
    extracts and counts the non-ASCII symbols on the rows holding any."""
    full = pl.DataFrame({
        "text": pl.from_arrow(text), "url": pl.from_arrow(url), "lang": pl.from_arrow(lang),
    }).select_seq(_FULL_PASSES)
    symbols = full["symbols"].to_numpy().astype(np.int64)
    wide = np.flatnonzero(value_spans(text)[1] != n_chars)
    if len(wide):
        symbols[wide] += _np_int(
            pc.count_substring_regex(text.take(pa.array(wide)), _SYMBOL_NON_ASCII))
    hits, first = _decl_lines(full["decl"].to_arrow(compat_level=_ARROW), len(text))
    for k, pat in enumerate(PREDICATES):
        if pat in MATCHED:
            first[pat] = full[f"p{k}"].to_arrow(compat_level=_ARROW)
            hits[pat] = _bool(pc.is_valid(first[pat]))
        else:
            hits[pat] = full[f"p{k}"].to_numpy()
    return symbols, hits, first, full["last_updated"].to_arrow(compat_level=_ARROW)


def build_context(batch: pa.Table, cfg: GateConfig) -> dict:
    """The shared stats context for one Arrow batch, which every rule
    predicate and evidence provider reads.

    The batch must carry the langid stage's columns: ``n_tokens``,
    ``n_chars``, ``n_tokens_scan``, ``stopword_hits``/``stopword_lang``,
    ``detected_lang`` and the repetition stats ``top_bigram_frac``,
    ``n_lines`` and ``dup_line_frac`` (all from one
    :func:`~rsmetacheck_ray.functions.tokenize.ws_token_stats` pass), plus
    ``bits_per_char`` from perplexity. The rule stage does no
    tokenization of its own: it adds only the regex-derived columns of
    :func:`full_pass_scans` (symbol count, the ``hits`` and ``first``
    matches of the predicates, the staleness date) and the scrub hits."""
    text = batch.column("extracted_text")
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    url = batch.column("url")
    if isinstance(url, pa.ChunkedArray):
        url = url.combine_chunks()
    declared_raw = batch.column("lang")
    if isinstance(declared_raw, pa.ChunkedArray):
        declared_raw = declared_raw.combine_chunks()

    n_tokens = _np_int(batch.column("n_tokens"))
    n_chars = _np_int(batch.column("n_chars"))
    symbol_chars, hits, first, date_str = full_pass_scans(text, url, declared_raw, n_chars)

    declared = (
        pc.fill_null(declared_raw, "")
        .to_numpy(zero_copy_only=False)
        .astype(str)
    )
    detected = (
        pc.fill_null(batch.column("detected_lang"), "")
        .to_numpy(zero_copy_only=False)
        .astype(str)
    )
    stopword_lang_valid = pc.is_valid(batch.column("stopword_lang")).to_numpy(
        zero_copy_only=False
    )

    # staleness: the in-document `Last updated: YYYY-MM-DD`, diffed
    # against warc_ts
    parsed = pc.strptime(date_str, format="%Y-%m-%d", unit="us", error_is_null=True)
    warc = batch.column("warc_ts")
    diff_us = pc.subtract(pc.cast(warc, pa.int64()), pc.cast(parsed, pa.int64()))
    stale_days = np.abs(
        diff_us.to_numpy(zero_copy_only=False).astype(np.float64)
    ) / 86_400_000_000.0  # NaN where no date

    return {
        "cfg": cfg,
        "text": text,
        "url": url,
        "declared": declared,
        "detected": detected,
        "stopword_lang_valid": stopword_lang_valid,
        "stopword_hits": _np_int(batch.column("stopword_hits")),
        "n_tokens_scan": _np_int(batch.column("n_tokens_scan")),
        "n_tokens": n_tokens,
        "n_chars": n_chars,
        "symbol_chars": symbol_chars,
        "top_bigram_frac": batch.column("top_bigram_frac").to_numpy(zero_copy_only=False),
        "n_lines": _np_int(batch.column("n_lines")),
        "dup_line_frac": batch.column("dup_line_frac").to_numpy(zero_copy_only=False),
        "bits_per_char": batch.column("bits_per_char").to_numpy(zero_copy_only=False),
        "stale_days": stale_days,
        "hits": hits,
        "first": first,
        "scrub_hits": {code: hits[pat] for code, pat, _ in SCRUBS},
    }


def apply_scrub(text: pa.Array) -> pa.Array:
    """Vectorized RE2 scrub passes in fixed order (email → phone → ip →
    toxicity), the ``re.sub`` analog of the reference's placeholder
    scan (``p002.py:30-59``)."""
    s = text
    for _, pat, repl in SCRUBS:
        s = pc.replace_substring_regex(s, pattern=pat, replacement=repl)
    return s


def _scrub_rows(text: pa.Array, rows: np.ndarray) -> pa.Array:
    """``apply_scrub`` over the rows where ``rows`` is set, the others
    as they are. Equal to ``apply_scrub(text)`` whenever ``rows`` covers
    every row with a scrub-pattern hit: a replace that finds no match
    is the identity."""
    if not rows.any():
        return text
    mask = pa.array(rows)
    return pc.replace_with_mask(text, mask, apply_scrub(text.filter(mask)))


# a character json.dumps (ensure_ascii) escapes: anything outside
# printable ASCII, '"' and '\'. A value without one is written as itself
# between two quotes.
_JSON_ESCAPE_RE = r'[^ !#-\[\]-~]'


def _evidence_json(payload: dict, n: int) -> pa.Array:
    """The ``evidence_json`` column: per row, ``json.dumps(d,
    sort_keys=True)`` of ``d`` = {code: value} over the rules with a
    value there, null where there is none. One pass over the long (row,
    code, ``"code": "value"`` fragment) table (``json.dumps`` only for
    values that need escaping), stably sorted by row into one list per
    row, joined and wrapped in braces."""
    codes = sorted(payload)
    if not codes:
        return pa.nulls(n, pa.string())
    rows = np.concatenate([payload[c][0] for c in codes])
    code = np.repeat(np.arange(len(codes)), [len(payload[c][0]) for c in codes])
    vals = pa.concat_arrays([payload[c][1] for c in codes])
    valid = _bool(pc.is_valid(vals))
    order = np.flatnonzero(valid)[np.argsort(rows[valid], kind="stable")]
    rows, code, vals = rows[order], code[order], vals.take(pa.array(order))
    keys = [json.dumps(c) for c in codes]
    frag = pc.binary_join_element_wise(
        pa.array([f'{k}: "' for k in keys]).take(pa.array(code)), vals, '"', "")
    escape = _bool(pc.match_substring_regex(vals, _JSON_ESCAPE_RE))
    if escape.any():
        mask = pa.array(escape)
        slow = [f"{keys[c]}: {json.dumps(v)}"
                for c, v in zip(code[escape].tolist(), vals.filter(mask).to_pylist())]
        frag = pc.replace_with_mask(frag, mask, pa.array(slow, frag.type))
    has, counts = np.unique(rows, return_counts=True)
    offsets = pa.array(np.concatenate([[0], np.cumsum(counts)]), pa.int32())
    body = pc.binary_join(pa.ListArray.from_arrays(offsets, frag), ", ")
    pos = np.full(n, -1, dtype=np.int64)
    pos[has] = np.arange(len(has))
    return _take_or_null(pc.binary_join_element_wise("{", body, "}", ""), pos)


# --------------------------------------------------------------------------
# the fused stage
# --------------------------------------------------------------------------

def rule_stage_fn(
    batch: pa.Table, cfg: GateConfig = DEFAULT_CONFIG,
    with_rule_hits: bool = False, with_evidence: bool = False,
    scrub_dropped: bool = True,
) -> pa.Table:
    """map_batches fn: evaluates the whole catalog, appends per-rule
    ``hit_<code>`` bool columns, ``keep``, ``scrubbed_text`` and
    ``rule_errors``. ``with_evidence`` additionally emits an
    ``evidence_json`` string column carrying each fired rule's specific
    offending value (the CheckResult payload of
    ``utils/json_ld_utils.py:447-493``) — cost is bounded by fired
    rows: evidence is extracted from, and assembled for, those rows only.
    ``with_rule_hits`` emits the long-form ``rule_hits`` list-of-struct
    (evidence sink only — the per-row Python dicts cost more than every
    rule combined, so the hot path skips it). ``scrub_dropped=False``
    leaves dropped rows' ``scrubbed_text`` null and does not scrub them."""
    n = len(batch)
    ctx = build_context(batch, cfg)

    fired: dict[str, np.ndarray] = {}
    errors: list[str] = []
    for rule in CATALOG:
        try:
            fired[rule.code] = rule.fn(ctx).astype(bool)
        except Exception as exc:  # per-rule isolation (detect_pitfalls_main.py:356-358)
            fired[rule.code] = np.zeros(n, dtype=bool)
            errors.append(f"{rule.code}: {type(exc).__name__}: {exc}")

    drop = np.zeros(n, dtype=bool)
    for code in DROP_CODES:
        drop |= fired[code]
    keep = ~drop

    # per rule, (fired rows, their evidence cut to the cap, null where
    # the provider found no value)
    payload: dict[str, tuple[np.ndarray, pa.Array]] = {}
    if with_evidence or with_rule_hits:
        for rule in CATALOG:
            evfn = EVIDENCE.get(rule.code)
            idx = np.flatnonzero(fired[rule.code])
            if evfn is None or len(idx) == 0:
                continue
            try:
                vals = pc.utf8_slice_codeunits(evfn(ctx, idx), 0, _EVIDENCE_MAX_CHARS)
                payload[rule.code] = (idx, vals.cast(pa.string()))
            except Exception as exc:  # same isolation discipline as rules
                errors.append(f"evidence:{rule.code}: {type(exc).__name__}: {exc}")

    text = ctx["text"]
    need_scrub = np.logical_or.reduce(list(ctx["scrub_hits"].values()))
    if scrub_dropped:
        scrubbed = _scrub_rows(text, need_scrub)
    else:
        scrubbed = pc.if_else(pa.array(keep), _scrub_rows(text, need_scrub & keep),
                              pa.scalar(None, text.type))

    out = batch
    for code in RULE_CODES:
        out = out.append_column(f"hit_{code}", pa.array(fired[code]))
    out = out.append_column("keep", pa.array(keep))
    if with_evidence:
        out = out.append_column("evidence_json", _evidence_json(payload, n))
    if with_rule_hits:
        # rule_hits list<struct> in catalog order (evidence sink only)
        sev = {r.code: r.severity for r in CATALOG}
        hits_col: list[list[dict]] = [[] for _ in range(n)]
        for rule in CATALOG:
            pl = {}
            if rule.code in payload:
                idx, vals = payload[rule.code]
                pl = dict(zip(idx.tolist(), vals.to_pylist()))
            for i in np.flatnonzero(fired[rule.code]).tolist():
                ev = pl.get(i)
                if ev is None:
                    ev = rule.suggestion
                hits_col[i].append(
                    {"rule": rule.code, "severity": sev[rule.code], "evidence": ev}
                )
        out = out.append_column("rule_hits", pa.array(hits_col, RULE_HITS_TYPE))
    out = out.append_column("scrubbed_text", scrubbed)
    err_str = "; ".join(errors) if errors else None
    out = out.append_column("rule_errors", pa.array([err_str] * n, pa.string()))
    return out
