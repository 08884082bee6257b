"""Perplexity stage — KenLM-style n-gram scoring as an actor pool.

The north rule's "KenLM 5-gram perplexity" analog: a symbol-trigram
language model with add-alpha smoothing, trained ONCE PER PROCESS on a
deterministic mixed-language corpus derived from the shared vocabulary
pools (``functions/vocab.py``) — the ActorPoolStrategy pattern SURVEY
§2.4 calls for. Scoring is seed-free and fully vectorized, straight off
the batch's Arrow UTF-8 buffer:

- each document's window is its first ``ppl_scan_chars`` codepoints.
  When no document is longer, the windows are the documents and are
  read in place; otherwise one vectorized index gathers them back to
  back, so per-document work stays bounded on huge pages;
- bytes map to a 64-SYMBOL ALPHABET (letters fold to one case,
  digits/space/punct bucket, high bytes bucket by range) and trigram
  codes are built with shifts;
- ONE gather per trigram from a precomputed float32 bit-cost table,
  ``-(logp3[c] - logp2[c >> 6])``, which the DuckDB oracle exports too;
- per-document sums by ``reduceat`` over ``[start, window_end - 2)``.
  Those segments never hold a trigram that crosses a document
  boundary, so no boundary mask is needed, and a document's trigram
  count is just its segment length.

The 64-symbol alphabet keeps the table at 64³ × 4 B = 1 MiB —
L2-resident under full actor-pool concurrency (the original full-byte
design was a 64 MiB table whose random gathers thrashed DRAM and cost
~0.9 s/actor to build).

High bits-per-char ⇒ text the LM has never seen (gibberish, binary
junk) ⇒ the ``perplexity_high`` drop rule.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DEFAULT_CONFIG, GateConfig
from ..functions.arrowbuf import prefix_bytes, value_spans
from ..functions.hashing import row_u64_np
from ..functions.vocab import CONTENT, MARKERS, ZH_CHARS

_ALPHA = 0.1
_TRAIN_SEED = 777
_NSYM = 64


def _byte_code_table() -> np.ndarray:
    """byte → 6-bit symbol code. Deterministic spec constant:
    a-z/A-Z → 1..26, 0-9 → 27, space/tab → 28, newline → 29,
    .,;:!? → 30, other ASCII → 31, bytes ≥128 → 32..63 by (b-128)>>2."""
    t = np.full(256, 31, dtype=np.uint32)
    for i in range(26):
        t[ord("a") + i] = 1 + i
        t[ord("A") + i] = 1 + i
    for b in range(ord("0"), ord("9") + 1):
        t[b] = 27
    t[ord(" ")] = 28
    t[ord("\t")] = 28
    t[ord("\n")] = 29
    t[ord("\r")] = 29
    for ch in ".,;:!?":
        t[ord(ch)] = 30
    for b in range(128, 256):
        t[b] = 32 + ((b - 128) >> 2)
    return t


_BYTE_CODE = _byte_code_table()
_BYTE_CODE_PA = pa.array(_BYTE_CODE)


def _pick(pool, s: np.ndarray, stream: np.ndarray) -> np.ndarray:
    """``pool[row_u64(_TRAIN_SEED, s, stream) % len(pool)]`` over
    broadcast ``s`` and ``stream``."""
    return np.array(list(pool), object)[row_u64_np(_TRAIN_SEED, s, stream) % len(pool)]


def _train_corpus() -> bytes:
    """Deterministic training text: pool sentences in all 5 languages
    plus 'misc web furniture' templates (dates, phones, IPs, emails,
    identifiers) so benign numeric tokens don't rank as gibberish."""
    lines: list[str] = []
    s, j = np.arange(400)[:, None], np.arange(18)[None, :]
    for li, lang in enumerate(("en", "fr", "es", "de")):
        stream = li * 1000 + j * 101 + s * 7
        words = np.where(j % 3 == 1, _pick(MARKERS[lang], s, stream), _pick(CONTENT[lang], s, stream))
        for i, row in enumerate(words.tolist()):
            row[0] = row[0].capitalize() if i % 3 == 0 else row[0]
            lines.append(" ".join(row) + ".")
    lines += ["".join(row) for row in _pick(ZH_CHARS, s, 50_000 + np.arange(40)).tolist()]
    # misc: digits / separators in the shapes benign keep-rows contain
    s = np.arange(60)[:, None]
    digits = _pick(range(10), s, 60_000 + np.arange(16)).tolist()
    hexes = _pick("0123456789abcdef", s, 61_000 + np.arange(40)).tolist()
    for d, h in zip(digits, hexes):
        hexs = "".join(h)
        lines.append(f"Last updated: 20{d[0]}{d[1]}-0{d[2] % 9 + 1}-1{d[3]}.")
        lines.append(f"call +1-555-{d[4]}{d[5]}{d[6]}-{d[7]}{d[8]}{d[9]}{d[10]} now.")
        lines.append(f"server at 192.168.{d[11]}{d[12]}.{d[13]}{d[14]} responded.")
        lines.append(f"contact user{d[15]}@mail-{d[0]}.example.net for details.")
        lines.append(f"identifier 10.5281/zenodo.{d[1]}{d[2]}{d[3]}{d[4]}{d[5]} cited.")
        lines.append(f"swh:1:rev:{hexs} (c) 2024 Example Site | Home | About")
    return "\n".join(lines).encode("utf-8")


def _bit_table() -> np.ndarray:
    """Trigram code ``c`` → float32 bit cost ``-(logp3[c] - logp2[c >> 6])``
    of the add-alpha trigram LM over the training corpus (64³ × 4 B =
    1 MiB). The scorer and the DuckDB oracle both read this one table."""
    data = _BYTE_CODE[np.frombuffer(_train_corpus(), dtype=np.uint8)]
    c3 = data[:-2] << 12 | data[1:-1] << 6 | data[2:]
    c2 = data[:-1] << 6 | data[1:]
    lut3 = np.zeros(_NSYM**3, dtype=np.float32)
    codes, counts = np.unique(c3, return_counts=True)
    lut3[codes] = counts
    logp3 = np.log2(lut3 + np.float32(_ALPHA))
    lut2 = np.zeros(_NSYM**2, dtype=np.float32)
    codes2, counts2 = np.unique(c2, return_counts=True)
    lut2[codes2] = counts2
    logp2 = np.log2(lut2 + np.float32(_ALPHA * _NSYM))
    return -(logp3 - logp2[np.arange(_NSYM**3) >> 6])


class PerplexityScorer:
    """Adds ``bits_per_char: double`` to each row."""

    # process-level memo of the bit-cost table: a worker that constructs
    # several scorers (resume loops, repeated query calls) builds it once
    _LM_CACHE: np.ndarray | None = None

    def __init__(self, cfg: GateConfig = DEFAULT_CONFIG):
        self.cfg = cfg
        pa.set_cpu_count(1)  # 1-CPU actor: no machine-wide kernel pool
        if PerplexityScorer._LM_CACHE is None:
            PerplexityScorer._LM_CACHE = _bit_table()
        self.bits = PerplexityScorer._LM_CACHE
        self.bits_pa = pa.array(self.bits)

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch.column("extracted_text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        out = np.zeros(len(text), dtype=np.float64)
        if len(text) and text.buffers()[2] is not None:
            # score only a bounded prefix: per-doc LM work is
            # O(ppl_scan_chars) however large the page (gibberish shows
            # up in the first kilobytes)
            starts, lens = value_spans(text)
            wlen = prefix_bytes(text, lens, self.cfg.ppl_scan_chars)
            data = np.frombuffer(text.buffers()[2], dtype=np.uint8)
            if (wlen < lens).any():
                # gather the windows back to back with one index; with
                # no long document the windows are the documents, read
                # in place from the Arrow data buffer
                packed = np.cumsum(wlen) - wlen
                data = data[np.arange(int(wlen.sum())) +
                            np.repeat(starts - packed, wlen)]
                starts = packed
            self._score(data, starts, starts + wlen, out)
        return batch.append_column("bits_per_char", pa.array(out, pa.float64()))

    def _score(self, data: np.ndarray, starts: np.ndarray, ends: np.ndarray,
               out: np.ndarray) -> None:
        """Mean trigram bit cost of each window ``data[starts[i]:ends[i]]``
        (sorted, non-overlapping) into ``out``, 0 below 3 bytes. Window
        ``i`` sums the trigrams starting in ``[starts[i], ends[i] - 2)``,
        so no trigram that crosses a window end is ever summed."""
        has = ends - 2 > starts
        s, e = starts[has], ends[has] - 2
        if not len(s):
            return
        lo = s[0]
        s, e = s - lo, e - lo
        # Arrow's take reads uint8/uint32 indices as they are (numpy
        # fancy indexing widens them to intp first); every index is in
        # range by construction (bytes < 256, codes < 64³)
        codes = pc.take(_BYTE_CODE_PA, pa.array(data[lo : lo + e[-1] + 2]),
                        boundscheck=False).to_numpy()
        c3 = np.left_shift(codes[:-2], 12)
        c3 |= np.left_shift(codes[1:-1], 6)
        c3 |= codes[2:]
        # float64 BEFORE summation, and PER-SEGMENT reduceat so each
        # doc's sum never touches its neighbors' values — bitwise
        # identical under any block layout
        bits = pc.take(self.bits_pa, pa.array(c3), boundscheck=False)
        bits = bits.to_numpy().astype(np.float64)
        idx = np.empty(2 * len(s), dtype=np.int64)
        idx[0::2] = s
        idx[1::2] = e
        # reduceat sums its last segment to the array's end
        seg = np.add.reduceat(bits, idx[:-1])[0::2]
        out[has] = seg / (e - s)
