"""Perplexity stage — KenLM-style n-gram scoring as an actor pool.

The north rule's "KenLM 5-gram perplexity" analog: a symbol-trigram
language model with add-alpha smoothing, trained ONCE PER ACTOR in
``__init__`` on a deterministic mixed-language corpus derived from the
shared vocabulary pools (``functions/vocab.py``) — the ActorPoolStrategy
pattern SURVEY §2.4 calls for. Scoring is seed-free and fully
vectorized: the whole batch's bytes are concatenated into one numpy
buffer, remapped through a 64-SYMBOL ALPHABET (letters fold to one
case, digits/space/punct bucket, high bytes bucket by range), trigram
codes computed with shifts, log-probs gathered from direct-indexed
tables, per-document bits-per-char reduced with prefix sums.

The 64-symbol alphabet keeps the trigram table at 64³ × 4 B = 1 MiB —
L2-resident under full actor-pool concurrency (the original full-byte
design was a 64 MiB table whose random gathers thrashed DRAM and cost
~0.9 s/actor to build).

High bits-per-char ⇒ text the LM has never seen (gibberish, binary
junk) ⇒ the ``perplexity_high`` drop rule.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import DEFAULT_CONFIG, GateConfig
from ..functions.hashing import row_u64
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


def _train_corpus() -> bytes:
    """Deterministic training text: pool sentences in all 5 languages
    plus 'misc web furniture' templates (dates, phones, IPs, emails,
    identifiers) so benign numeric tokens don't rank as gibberish."""
    lines: list[str] = []
    for li, lang in enumerate(("en", "fr", "es", "de")):
        markers, content = MARKERS[lang], CONTENT[lang]
        for s in range(400):
            words = []
            for j in range(18):
                r = row_u64(_TRAIN_SEED, s, li * 1000 + j * 101 + s * 7)
                pool = markers if j % 3 == 1 else content
                words.append(pool[r % len(pool)])
            w0 = words[0]
            words[0] = w0.capitalize() if s % 3 == 0 else w0
            lines.append(" ".join(words) + ".")
    for s in range(400):
        chars = [
            ZH_CHARS[row_u64(_TRAIN_SEED, s, 50_000 + j) % len(ZH_CHARS)]
            for j in range(40)
        ]
        lines.append("".join(chars))
    # misc: digits / separators in the shapes benign keep-rows contain
    for s in range(60):
        d = [row_u64(_TRAIN_SEED, s, 60_000 + j) % 10 for j in range(16)]
        hexs = "".join("0123456789abcdef"[row_u64(_TRAIN_SEED, s, 61_000 + j) % 16] for j in range(40))
        lines.append(f"Last updated: 20{d[0]}{d[1]}-0{d[2] % 9 + 1}-1{d[3]}.")
        lines.append(f"call +1-555-{d[4]}{d[5]}{d[6]}-{d[7]}{d[8]}{d[9]}{d[10]} now.")
        lines.append(f"server at 192.168.{d[11]}{d[12]}.{d[13]}{d[14]} responded.")
        lines.append(f"contact user{d[15]}@mail-{d[0]}.example.net for details.")
        lines.append(f"identifier 10.5281/zenodo.{d[1]}{d[2]}{d[3]}{d[4]}{d[5]} cited.")
        lines.append(f"swh:1:rev:{hexs} (c) 2024 Example Site | Home | About")
    return "\n".join(lines).encode("utf-8")


class PerplexityScorer:
    """Adds ``bits_per_char: double`` to each row."""

    # process-level memo: a worker that constructs several scorers
    # (resume loops, repeated query calls) builds the tables once
    _LM_CACHE: tuple | None = None

    def __init__(self, cfg: GateConfig = DEFAULT_CONFIG):
        self.cfg = cfg
        pa.set_cpu_count(1)  # 1-CPU actor: no machine-wide kernel pool
        if PerplexityScorer._LM_CACHE is not None:
            self.logp3, self.logp2 = PerplexityScorer._LM_CACHE
            return
        data = _BYTE_CODE[np.frombuffer(_train_corpus(), dtype=np.uint8)]
        c3 = data[:-2] << 12 | data[1:-1] << 6 | data[2:]
        c2 = data[:-1] << 6 | data[1:]
        # Direct-indexed LOG-PROB tables (1 MiB + 16 KiB per actor):
        # the per-batch hot path is two gathers and a subtract.
        lut3 = np.zeros(_NSYM**3, dtype=np.float32)
        codes, counts = np.unique(c3, return_counts=True)
        lut3[codes] = counts
        self.logp3 = np.log2(lut3 + np.float32(_ALPHA))
        lut2 = np.zeros(_NSYM**2, dtype=np.float32)
        codes2, counts2 = np.unique(c2, return_counts=True)
        lut2[codes2] = counts2
        self.logp2 = np.log2(lut2 + np.float32(_ALPHA * _NSYM))
        PerplexityScorer._LM_CACHE = (self.logp3, self.logp2)

    def _bits_per_char(self, texts: list) -> np.ndarray:
        """List-of-str entry (tests/tools); the batch path goes through
        ``_bits_per_char_codes`` directly from the Arrow buffer."""
        bufs = [t.encode("utf-8") if t else b"" for t in texts]
        lens = np.array([len(b) for b in bufs], dtype=np.int64)
        if len(bufs) == 0 or lens.sum() == 0:
            return np.zeros(len(bufs), dtype=np.float64)
        return self._bits_per_char_codes(
            _BYTE_CODE[np.frombuffer(b"".join(bufs), dtype=np.uint8)], lens
        )

    def _bits_per_char_codes(
        self, data: np.ndarray, lens: np.ndarray
    ) -> np.ndarray:
        """Core scorer over pre-mapped symbol codes: ``data`` is the
        concatenation of every document's codes (documents back-to-back
        in order), ``lens`` the per-document code counts."""
        out = np.zeros(len(lens), dtype=np.float64)
        if data.size == 0:
            return out
        ends = np.cumsum(lens)
        starts = ends - lens

        c3 = data[:-2] << 12 | data[1:-1] << 6 | data[2:]
        c2 = data[:-1] << 6 | data[1:]

        nb = len(c3)
        if nb == 0:
            return out
        logp = self.logp3[c3] - self.logp2[c2[:nb]]  # float32 gathers

        # zero out positions whose trigram crosses a document boundary
        valid = np.ones(nb, dtype=bool)
        for e in ends[:-1]:
            valid[max(e - 2, 0) : min(e, nb)] = False
        # float64 BEFORE summation (np.where with a python 0.0 keeps
        # float32 — its prefix-sum error made bpc depend on which docs
        # shared the batch, breaking run-to-run determinism), and
        # PER-SEGMENT reduceat so each doc's sum never touches its
        # neighbors' values — bitwise identical under any block layout.
        # preallocated (nb+1) buffers: np.append would COPY the whole
        # multi-MB array (measured 0.3 s per 3k-doc batch); the +1
        # sentinel keeps reduceat's end index in range
        bits_ext = np.empty(nb + 1, dtype=np.float64)
        bits_ext[:nb] = np.where(valid, -logp, np.float32(0.0))
        bits_ext[nb] = 0.0
        vals_ext = np.empty(nb + 1, dtype=np.float64)
        vals_ext[:nb] = valid
        vals_ext[nb] = 0.0
        tri_end = np.minimum(np.maximum(ends - 2, 0), nb)
        tri_start = np.minimum(starts, nb)
        idx = np.empty(2 * len(lens), dtype=np.int64)
        idx[0::2] = tri_start
        idx[1::2] = tri_end
        seg = np.add.reduceat(bits_ext, idx)[0::2]
        cntseg = np.add.reduceat(vals_ext, idx)[0::2]
        nonempty = tri_end > tri_start
        tot = np.where(nonempty, seg, 0.0)
        cnt = np.where(nonempty, cntseg, 0.0)
        np.divide(tot, cnt, out=out, where=cnt > 0)
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = batch.column("extracted_text")
        # score only a bounded prefix: per-doc LM work is
        # O(ppl_scan_chars) however large the page (gibberish shows up
        # in the first kilobytes)
        scan = pc.utf8_slice_codeunits(text, 0, self.cfg.ppl_scan_chars)
        arr = (
            scan.combine_chunks() if isinstance(scan, pa.ChunkedArray) else scan
        )
        if arr.null_count:
            arr = pc.fill_null(arr, "")
        if len(arr) == 0 or arr.buffers()[2] is None:
            return batch.append_column(
                "bits_per_char",
                pa.array(np.zeros(len(arr), np.float64), pa.float64()),
            )
        # zero-copy: the UTF-8 bytes already sit back-to-back in the
        # Arrow data buffer (offsets layout), exactly the concatenated
        # layout the scorer wants — no to_pylist / encode / join
        from ..functions.arrowbuf import varwidth_bytes

        raw, offsets = varwidth_bytes(arr)
        bpc = self._bits_per_char_codes(
            _BYTE_CODE[raw], np.diff(offsets)
        )
        return batch.append_column("bits_per_char", pa.array(bpc, pa.float64()))
