"""Vectorized American Soundex encoding — the classic phonetic
blocking key for entity resolution (record linkage blocks on the code,
then verifies within blocks).

Both engines evaluate the IDENTICAL replace chain, so differential
agreement is by construction — and because RE2 (used by Arrow AND
DuckDB) has no backreferences, the run-collapse step is six
per-digit replaces (``1{2,}`` → ``1`` …), not ``(\\d)\\1+``.

Algorithm (standard American Soundex, H/W-transparent):

1. take the first alphabetic run of the input, uppercased; empty → null
2. F = first letter; tail = rest with H/W REMOVED (letters separated
   by h/w that share a code collapse; separated by vowels they don't)
3. map tail letters to codes: BFPV→1 CGJKQSXZ→2 DT→3 L→4 MN→5 R→6,
   vowels (AEIOUY) → '.' separators
4. prepend F's code (or '.') so an initial same-code run collapses
   with the first letter, collapse each digit's runs, drop the first
   symbol, strip separators
5. code = F + first three digits, zero-padded

Verified against the classic NARA vectors (Robert/Rupert → R163,
Ashcraft → A261, Tymczak → T522, Pfister → P236) in
tests/test_phonetic.py.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# (pattern, replacement) — applied in order to the H/W-stripped tail
_CODE_MAP = (
    ("[BFPV]", "1"),
    ("[CGJKQSXZ]", "2"),
    ("[DT]", "3"),
    ("L", "4"),
    ("[MN]", "5"),
    ("R", "6"),
    ("[AEIOUY]", "."),
)


def soundex_arrow(names: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Soundex code per name (null where no alphabetic run exists)."""
    if isinstance(names, pa.ChunkedArray):
        names = names.combine_chunks()
    up = pc.utf8_upper(pc.cast(names, pa.string()))
    word = pc.struct_field(pc.extract_regex(up, "(?P<w>[A-Z]+)"), "w")
    first = pc.utf8_slice_codeunits(word, 0, 1)
    tail = pc.utf8_slice_codeunits(word, 1, 2**30)
    tail = pc.replace_substring_regex(tail, "[HW]", "")
    for pat, rep in _CODE_MAP:
        tail = pc.replace_substring_regex(tail, pat, rep)
    fc = first
    for pat, rep in _CODE_MAP:
        fc = pc.replace_substring_regex(fc, pat, rep)
    s = pc.binary_join_element_wise(fc, tail, "")
    for d in "123456":
        s = pc.replace_substring_regex(s, d + "{2,}", d)
    s = pc.utf8_slice_codeunits(s, 1, 2**30)  # drop the first symbol
    s = pc.replace_substring_regex(s, "[.]", "")
    padded = pc.utf8_slice_codeunits(
        pc.binary_join_element_wise(s, "000", ""), 0, 3
    )
    return pc.binary_join_element_wise(first, padded, "")


def soundex_sql(col: str) -> str:
    """The SAME chain over ``col``, as a DuckDB expression."""
    tail = f"regexp_replace(substr(w, 2), '[HW]', '', 'g')"
    fc = "substr(w, 1, 1)"
    for pat, rep in _CODE_MAP:
        tail = f"regexp_replace({tail}, '{pat}', '{rep}', 'g')"
        fc = f"regexp_replace({fc}, '{pat}', '{rep}', 'g')"
    s = f"({fc} || {tail})"
    for d in "123456":
        s = f"regexp_replace({s}, '{d}{{2,}}', '{d}', 'g')"
    digits = f"regexp_replace(substr({s}, 2), '[.]', '', 'g')"
    return (
        f"(SELECT substr(w, 1, 1) || substr({digits} || '000', 1, 3) "
        f"FROM (SELECT regexp_extract(upper({col}), '[A-Z]+') AS w) "
        f"WHERE w <> '')"
    )
