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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DEFAULT_CONFIG, GateConfig
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
URL_VERSION_HAS_RE = r"/v\d+(?:\.\d+)?/"


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


def _matches(ctx: dict, col: str, pattern: str) -> np.ndarray:
    arr = pc.match_substring_regex(ctx[col], pattern)
    return pc.fill_null(arr, False).to_numpy(zero_copy_only=False)


# ONE shared prefilter for the whole metadata-declaration family: a
# single RE2 pass (alternation of anchored literals compiles to an
# automaton) marks candidate rows; every family regex then runs over
# the masked column, so non-candidate rows cost ~nothing regardless of
# how many rules the family grows. Only removes rows no family regex
# could ever match (each requires one of these anchors), so the DuckDB
# oracle needs no mirror of the prefilter.
META_MARKER_RE = (
    r"(?m)^(?:License|Cite|Authors|Contributors|Requires|Identifier|Status|Version): "
    r"|(?i:licen)"
)


def _meta_masked(ctx: dict):
    cache = ctx.setdefault("_marker_cache", {})
    if "_meta" not in cache:
        has = pc.fill_null(
            pc.match_substring_regex(ctx["text"], META_MARKER_RE), False
        )
        if pc.any(has).as_py():
            cache["_meta"] = pc.if_else(has, ctx["text"], pa.scalar("", pa.string()))
        else:
            cache["_meta"] = None
    return cache["_meta"]


def _meta_matches(ctx: dict, pattern: str) -> np.ndarray:
    masked = _meta_masked(ctx)
    if masked is None:
        return np.zeros(len(ctx["n_tokens"]), dtype=bool)
    return pc.fill_null(pc.match_substring_regex(masked, pattern), False).to_numpy(
        zero_copy_only=False
    )


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
    # candidate prefilter: the two marker regexes only ever matter for
    # short (≤N-line) documents — mask everything else to "" so the
    # RE2 scans touch candidate bytes only
    cand = (ctx["n_tokens"] > 0) & (ctx["n_lines"] <= cfg.boilerplate_max_lines)
    if not cand.any():
        return cand
    masked = pc.if_else(pa.array(cand), ctx["text"], pa.scalar("", pa.string()))
    marker = pc.fill_null(
        pc.or_(
            pc.match_substring_regex(masked, COPYRIGHT_RE),
            pc.match_substring_regex(masked, NAV_RE),
        ),
        False,
    ).to_numpy(zero_copy_only=False)
    return cand & marker


def _r_placeholder(ctx):
    return _matches(ctx, "text", PLACEHOLDER_RE)


def _r_lang_mismatch(ctx):
    cfg: GateConfig = ctx["cfg"]
    known = np.isin(ctx["declared"], np.array(cfg.known_langs))
    det_known = np.isin(ctx["detected"], np.array(cfg.known_langs))
    return known & det_known & (ctx["declared"] != ctx["detected"])


def _r_perplexity(ctx):
    cfg: GateConfig = ctx["cfg"]
    return (ctx["n_tokens"] > 0) & (ctx["bits_per_char"] > cfg.max_bits_per_char)


def _r_dead_url(ctx):
    return _matches(ctx, "url", DEAD_PATH_RE)


def _r_homepage_url(ctx):
    return _matches(ctx, "url", HOMEPAGE_RE)


def _r_archive_url(ctx):
    return _matches(ctx, "url", ARCHIVE_RE)


def _r_shorthand_url(ctx):
    return _matches(ctx, "url", SHORTHAND_RE)


def _r_bare_identifier(ctx):
    return _matches(ctx, "text", BARE_DOI_RE) | _matches(ctx, "text", SWHID_RE)


def _r_multi_value(ctx):
    decl = ctx["declared_raw"]
    arr = pc.match_substring_regex(decl, MULTI_VALUE_RE)
    return pc.fill_null(arr, False).to_numpy(zero_copy_only=False)


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
    return _meta_matches(ctx, LIC_LOCAL_RE) & ~_meta_matches(ctx, LIC_URL_RE)


def _r_citation_incomplete(ctx):
    # p007.py:44-48: reference exists (DOI anywhere) AND the citation
    # section exists AND the citation line itself lacks the reference
    # the DOI-anywhere scan runs over the family-masked column: it
    # only matters in conjunction with a Cite: line, and any row with
    # one is fully present in the mask
    return (
        _meta_matches(ctx, CITE_LINE_RE)
        & _meta_matches(ctx, BARE_DOI_RE)
        & ~_meta_matches(ctx, CITE_DOI_RE)
    )


def _r_license_no_version(ctx):
    # p013.py:29-68: family named, no version token, minus exemptions
    return (
        _meta_matches(ctx, LIC_FAMILY_RE)
        & ~_meta_matches(ctx, LIC_VERSIONED_RE)
        & ~_meta_matches(ctx, LIC_EXEMPT_RE)
    )


def _r_author_count_mismatch(ctx):
    # p019.py:69-145: list lengths disagree across two sources; the
    # comma count of each line IS count-1, so counts differ iff comma
    # counts differ
    has_a = _meta_matches(ctx, AUTHORS_LINE_RE)
    has_c = _meta_matches(ctx, CONTRIB_LINE_RE)
    both = has_a & has_c
    if not both.any():
        return both
    text = _meta_masked(ctx)
    a_val = pc.struct_field(pc.extract_regex(text, AUTHORS_LINE_RE), "v")
    c_val = pc.struct_field(pc.extract_regex(text, CONTRIB_LINE_RE), "v")
    a_n = pc.fill_null(pc.count_substring(a_val, ","), -1).to_numpy(
        zero_copy_only=False
    )
    c_n = pc.fill_null(pc.count_substring(c_val, ","), -2).to_numpy(
        zero_copy_only=False
    )
    return both & (a_n != c_n)


def _r_dual_license_untracked(ctx):
    # w003.py:24-62: dual-license wording while the declaration lists
    # at most one license
    return _meta_matches(ctx, DUAL_LIC_RE) & ~_meta_matches(ctx, MULTI_LIC_DECL_RE)


def _r_requirement_no_version(ctx):
    # w004.py:33-50: a requirement entry whose value has no version digits
    return _meta_matches(ctx, REQ_NOVER_RE)


def _r_identifier_not_id(ctx):
    # w006.py:73-155: identifier is a plain name AND a valid DOI/URL
    # identifier exists elsewhere in the document (the anti-join shape)
    better = _meta_matches(ctx, BARE_DOI_RE) | _meta_matches(ctx, URL_ANY_RE)
    return (
        _meta_matches(ctx, ID_LINE_RE)
        & ~_meta_matches(ctx, ID_VALID_RE)
        & better
    )


def _r_status_url(ctx):
    # w009.py:5-26 is_url over the development-status value
    return _meta_matches(ctx, STATUS_URL_RE)


def _r_version_mismatch(ctx):
    # p016.py:24-79 / p017.py:59-94: two version sources both present
    # and disagreeing — the URL's /vN(.M)/ segment vs the page's
    # Version: line (exact token compare, mirrored 1:1 in SQL)
    has_line = _meta_matches(ctx, VERSION_LINE_HAS_RE)
    if not has_line.any():
        return has_line
    t_ex = pc.struct_field(pc.extract_regex(_meta_masked(ctx), VERSION_LINE_RE), "v")
    u_ex = pc.struct_field(pc.extract_regex(ctx["url"], URL_VERSION_RE), "v")
    both = pc.and_(pc.is_valid(t_ex), pc.is_valid(u_ex))
    neq = pc.not_equal(t_ex, u_ex)
    return pc.fill_null(pc.and_(both, neq), False).to_numpy(zero_copy_only=False)


# --------------------------------------------------------------------------
# per-rule evidence providers — the analog of the reference's
# CheckResult payloads (utils/json_ld_utils.py:447-493: each fired rule
# carries the specific offending value, not just the fact it fired)
# --------------------------------------------------------------------------

_EVIDENCE_MAX_CHARS = 160


def _ev_first(col: str, pattern: str):
    """Evidence = first regex match in ``col``, extracted from the
    fired rows only (taken out first, so the RE2 pass and the Python
    conversion touch fired rows alone)."""

    def ev(ctx, idx: np.ndarray) -> list:
        rows = ctx[col].take(pa.array(idx))
        ex = pc.extract_regex(rows, f"(?P<m>{pattern})")
        return pc.struct_field(ex, "m").to_pylist()

    return ev


def _ev_fmt(fmt: Callable[[dict, int], str]):
    """Evidence = formatted stats values of the fired rows."""

    def ev(ctx, idx: np.ndarray) -> list:
        return [fmt(ctx, int(i)) for i in idx]

    return ev


EVIDENCE: dict[str, Callable] = {
    "too_short": _ev_fmt(lambda c, i: f"n_tokens={c['n_tokens'][i]}"),
    "too_long": _ev_fmt(lambda c, i: f"n_tokens={c['n_tokens'][i]}"),
    "stopword_ratio_low": _ev_fmt(
        lambda c, i: f"stopword_ratio={c['stopword_hits'][i] / max(c['n_tokens_scan'][i], 1):.4f}"
    ),
    "symbol_ratio_high": _ev_fmt(
        lambda c, i: f"symbol_ratio={c['symbol_chars'][i] / max(c['n_chars'][i], 1):.4f}"
    ),
    "repetition": _ev_fmt(
        lambda c, i: f"top_bigram_frac={c['top_bigram_frac'][i]:.3f},"
        f"dup_line_frac={c['dup_line_frac'][i]:.3f}"
    ),
    "boilerplate_only": _ev_first("text", COPYRIGHT_RE + "|" + NAV_RE),
    "template_placeholder": _ev_first("text", PLACEHOLDER_RE),
    "lang_mismatch": _ev_fmt(
        lambda c, i: f"declared={c['declared'][i]},detected={c['detected'][i]}"
    ),
    "perplexity_high": _ev_fmt(
        lambda c, i: f"bits_per_char={c['bits_per_char'][i]:.3f}"
    ),
    "dead_url_pattern": _ev_first("url", DEAD_PATH_RE),
    "homepage_url": _ev_first("url", HOMEPAGE_RE),
    "archive_url": _ev_first("url", ARCHIVE_RE),
    "shorthand_url": _ev_first("url", SHORTHAND_RE),
    "bare_identifier": _ev_first("text", BARE_DOI_RE + "|" + SWHID_RE),
    "multi_value_field": _ev_fmt(lambda c, i: f"lang={c['declared'][i]}"),
    "outdated_ts": _ev_fmt(lambda c, i: f"stale_days={c['stale_days'][i]:.1f}"),
    "pii_email": _ev_first("text", EMAIL_RE),
    "pii_phone": _ev_first("text", PHONE_RE),
    "pii_ip": _ev_first("text", IP_RE),
    "toxicity": _ev_first("text", TOX_RE),
    "local_file_license": _ev_first("text", r"(?m)^License: [^\n]*"),
    "citation_incomplete": _ev_first("text", r"(?m)^Cite: [^\n]*"),
    "license_no_version": _ev_first("text", r"(?m)^License: [^\n]*"),
    "author_count_mismatch": _ev_first("text", r"(?m)^Authors: [^\n]*"),
    "dual_license_untracked": _ev_first("text", DUAL_LIC_RE),
    "requirement_no_version": _ev_first("text", r"(?m)^Requires: [^\n]*"),
    "identifier_not_id": _ev_first("text", r"(?m)^Identifier: [^\n]*"),
    "status_url": _ev_first("text", r"(?m)^Status: [^\n]*"),
    "version_mismatch": _ev_first("text", r"(?m)^Version: [^\n]*"),
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

# RE2's \w is ASCII-only — use Unicode letter/number classes so CJK
# text isn't counted as symbols.
_SYMBOL_RE = r"[^\p{L}\p{N}\s]"


def _np_int(arr) -> np.ndarray:
    return arr.to_numpy(zero_copy_only=False).astype(np.int64)


def build_context(batch: pa.Table, cfg: GateConfig) -> dict:
    """The shared stats context for one Arrow batch, which every rule
    predicate and evidence provider reads.

    The batch must carry the langid stage's columns: ``n_tokens``,
    ``n_chars``, ``n_tokens_scan``, ``stopword_hits``/``stopword_lang``,
    ``detected_lang`` and the repetition stats ``top_bigram_frac``,
    ``n_lines`` and ``dup_line_frac`` (all from one
    :func:`~rsmetacheck_ray.functions.tokenize.ws_token_stats` pass), plus
    ``bits_per_char`` from perplexity. The rule stage does no
    tokenization of its own: it adds only the regex-derived columns
    (symbol count, staleness date, scrub-pattern hits)."""
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
    symbol_chars = _np_int(pc.count_substring_regex(text, _SYMBOL_RE))

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

    # staleness: extract `Last updated: YYYY-MM-DD`, diff against
    # warc_ts. Literal-substring prefilter (memmem, ~10x an RE2 scan)
    # gates the regex: batches with no marker skip the extract pass
    # entirely; otherwise only marker-bearing rows are scanned.
    has_marker = pc.fill_null(
        pc.match_substring(text, "Last updated: "), False
    )
    if pc.any(has_marker).as_py():
        masked = pc.if_else(has_marker, text, pa.scalar("", pa.string()))
        extracted_date = pc.extract_regex(masked, LAST_UPDATED_RE)
        date_str = pc.struct_field(extracted_date, "d")
        parsed = pc.strptime(date_str, format="%Y-%m-%d", unit="us", error_is_null=True)
        warc = batch.column("warc_ts")
        diff_us = pc.subtract(pc.cast(warc, pa.int64()), pc.cast(parsed, pa.int64()))
        stale_days = np.abs(
            diff_us.to_numpy(zero_copy_only=False).astype(np.float64)
        ) / 86_400_000_000.0  # NaN where no date
    else:
        stale_days = np.full(len(batch), np.nan)

    scrub_hits = {
        code: pc.fill_null(pc.match_substring_regex(text, pat), False).to_numpy(
            zero_copy_only=False
        )
        for code, pat, _ in SCRUBS
    }

    return {
        "cfg": cfg,
        "text": text,
        "url": url,
        "declared_raw": declared_raw,
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
        "scrub_hits": scrub_hits,
    }


def apply_scrub(text: pa.Array) -> pa.Array:
    """Vectorized RE2 scrub passes in fixed order (email → phone → ip →
    toxicity), the ``re.sub`` analog of the reference's placeholder
    scan (``p002.py:30-59``)."""
    s = text
    for _, pat, repl in SCRUBS:
        s = pc.replace_substring_regex(s, pattern=pat, replacement=repl)
    return s


# --------------------------------------------------------------------------
# the fused stage
# --------------------------------------------------------------------------

def rule_stage_fn(
    batch: pa.Table, cfg: GateConfig = DEFAULT_CONFIG,
    with_rule_hits: bool = False, with_evidence: bool = False,
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
    rule combined, so the hot path skips it)."""
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

    # per rule, {row: evidence} over the rows where it fired and its
    # provider found a value
    payload: dict[str, dict[int, str]] = {}
    if with_evidence or with_rule_hits:
        for rule in CATALOG:
            evfn = EVIDENCE.get(rule.code)
            idx = np.flatnonzero(fired[rule.code])
            if evfn is None or len(idx) == 0:
                continue
            try:
                vals = evfn(ctx, idx)
                payload[rule.code] = {
                    int(i): v[:_EVIDENCE_MAX_CHARS]
                    for i, v in zip(idx, vals) if v is not None
                }
            except Exception as exc:  # same isolation discipline as rules
                errors.append(f"evidence:{rule.code}: {type(exc).__name__}: {exc}")

    scrubbed = apply_scrub(ctx["text"])

    out = batch
    for code in RULE_CODES:
        out = out.append_column(f"hit_{code}", pa.array(fired[code]))
    out = out.append_column("keep", pa.array(keep))
    if with_evidence:
        import json as _json

        by_row: dict[int, dict[str, str]] = {}
        for code, rows in payload.items():
            for i, v in rows.items():
                by_row.setdefault(i, {})[code] = v
        ev_vals: list = [None] * n
        for i, d in by_row.items():
            ev_vals[i] = _json.dumps(d, sort_keys=True)
        out = out.append_column("evidence_json", pa.array(ev_vals, pa.string()))
    if with_rule_hits:
        # rule_hits list<struct> in catalog order (evidence sink only)
        sev = {r.code: r.severity for r in CATALOG}
        hits_col: list[list[dict]] = [[] for _ in range(n)]
        for rule in CATALOG:
            f = fired[rule.code]
            pl = payload.get(rule.code, {})
            for i in np.nonzero(f)[0]:
                ev = pl.get(int(i), rule.suggestion)
                hits_col[i].append(
                    {"rule": rule.code, "severity": sev[rule.code], "evidence": ev}
                )
        out = out.append_column("rule_hits", pa.array(hits_col, RULE_HITS_TYPE))
    out = out.append_column("scrubbed_text", scrubbed)
    err_str = "; ".join(errors) if errors else None
    out = out.append_column("rule_errors", pa.array([err_str] * n, pa.string()))
    return out
