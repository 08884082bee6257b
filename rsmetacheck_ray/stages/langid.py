"""Language-ID stage — a stateful actor-pool `map_batches` class.

The north rule's fastText-lid analog (the reference has no stateful
stages, SURVEY §2.4; its closest pattern is the module-level compiled
regex lists, ``p002.py:37-51``). Implemented as marker-word density
scoring over each document's first ``langid_scan_chars`` codepoints:

- for each known language, whole-word hits of that language's
  (disjoint) marker set, counted for every language in ONE polars
  query (Rust regex, one ``count_matches`` per language) over a
  zero-copy window view. The view reuses the text's data buffer with
  interleaved ``(start, window_end)`` offsets, and its gap slots (the
  documents' tails) are null, so no scan reads past a window;
- a CJK character-ratio detector for zh. U+4E00–U+9FFF characters are
  counted by a byte test on well-formed 3-byte UTF-8 sequences inside
  the window, with no regex.

Detected language = argmax density, ``"und"`` below the confidence
floor. A null text scores as ``""``.

The density denominators, and the Gopher repetition stats the rule
stage reads, come from ONE byte-level tokenization of the batch
(:func:`~rsmetacheck_ray.functions.tokenize.ws_token_stats`): the stage
appends ``n_tokens``, ``n_tokens_scan``, ``top_bigram_frac``,
``n_lines`` and ``dup_line_frac``, and nothing downstream tokenizes
again. Marker hits stay ASCII ``\\b`` matches (RE2's ``\\b``, spelled
``(?-u:\\b)`` for Rust), which count ``"the,"`` where a whitespace-token
lookup would not.

State (the per-language compiled patterns, an optional lid model) is
built once per actor in ``__init__`` — the ActorPoolStrategy contract.
Scoring is deterministic and seed-free.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DEFAULT_CONFIG, GateConfig
from ..functions.arrowbuf import prefix_bytes, span_view, value_spans
from ..functions.tokenize import ws_token_stats
from ..functions.vocab import MARKERS

# the model path memoizes token -> input-row ids per actor; cleared when
# full, so a stream of distinct OOV tokens cannot grow it without bound
_TOKEN_MEMO_MAX = 1 << 17


def marker_pattern(lang: str, boundary: str = r"\b") -> str:
    """``lang``'s whole-word marker alternation between two
    ``boundary`` assertions: RE2's ASCII ``\\b`` by default. The gate
    counts it with Rust's regex engine, whose ``\\b`` is Unicode-aware,
    so it passes ``RUST_ASCII_BOUNDARY``, the same boundary in Rust."""
    return boundary + "(?:" + "|".join(MARKERS[lang]) + ")" + boundary


# RE2's (ASCII) word boundary in Rust regex syntax
RUST_ASCII_BOUNDARY = r"(?-u:\b)"


def cjk_counts(data: np.ndarray, starts: np.ndarray,
               ends: np.ndarray) -> np.ndarray:
    """Per window ``data[starts[i]:ends[i]]`` (sorted, non-overlapping),
    the number of U+4E00–U+9FFF characters: the matches RE2's
    ``[\\x{4E00}-\\x{9FFF}]`` finds there, as a byte test. Each is a
    well-formed 3-byte sequence inside the window whose lead byte is
    E4–E9 (second byte ≥ B8 after E4) and whose second and third bytes
    are continuation bytes. Continuation bytes are never leads, so
    matches cannot overlap, even in malformed UTF-8."""
    lo = int(starts[0])
    lead = np.flatnonzero(data[lo : int(ends[-1])] - np.uint8(0xE4) < 6) + lo
    doc = np.searchsorted(starts, lead, side="right") - 1
    inside = lead + 3 <= ends[doc]
    lead, doc = lead[inside], doc[inside]
    b1, b2 = data[lead + 1], data[lead + 2]
    ok = ((b1 & 0xC0) == 0x80) & ((b2 & 0xC0) == 0x80)
    ok &= (data[lead] != 0xE4) | (b1 >= 0xB8)
    return np.bincount(doc[ok], minlength=len(starts))


class LangIdScorer:
    """Adds ``detected_lang: string`` and ``langid_conf: double``."""

    def __init__(
        self, cfg: GateConfig = DEFAULT_CONFIG,
        model_path: str | None = None,
    ):
        self.cfg = cfg
        # one alternation per language: RE2 spelling (the reference the
        # oracles read) and the polars query that counts them all
        self.patterns = {lang: marker_pattern(lang) for lang in MARKERS}
        self._marker_counts = [
            pl.col("v").str.count_matches(marker_pattern(lang, RUST_ASCII_BOUNDARY))
            .gather_every(2).alias(lang)
            for lang in MARKERS
        ]
        # each actor is a 1-CPU worker: without this, every pyarrow
        # kernel spins a machine-wide thread pool and N actors × N
        # threads contend (measured 20-30x UDF inflation at 32 CPUs)
        pa.set_cpu_count(1)
        # real-model tier (opt-in): a fastText-format lid model loaded
        # ONCE here — the multi-hundred-MB per-actor state blob the
        # ActorPoolStrategy contract exists for. Uses the real
        # ``fasttext`` lib when installed (import-gated), else the
        # from-scratch v12 reader in models/fasttext_io. The pipeline
        # topology and output schema are identical to the heuristic
        # path; only the detection values change.
        self.model = None
        self._token_ids_memo: dict[str, list[int]] = {}
        import os as _os

        mp = (
            model_path
            if model_path is not None
            else (cfg.langid_model
                  or _os.environ.get("RSMC_LANGID_MODEL"))
        )
        if mp:
            try:
                import fasttext  # type: ignore  # pragma: no cover

                self.model = ("lib", fasttext.load_model(mp))
            except ImportError:
                from ..models.fasttext_io import load_fasttext_model

                self.model = ("native", load_fasttext_model(mp))

    def _marker_hits(self, text: pa.Array, starts: np.ndarray,
                     ends: np.ndarray) -> np.ndarray:
        """(n_langs, n) exact marker counts in each document's bytes
        ``[starts, ends)`` of the text buffer: one polars query over a
        zero-copy window view, one ``count_matches`` per language, each
        read at the view's even (window) slots; the null gap slots (the
        documents' tails) are skipped. ``select_seq`` runs the counts in
        turn on the calling thread, since a gate task is scheduled as
        one CPU (``select`` would spread them over polars' thread pool).
        (A single-scan union + per-word attribution was tried and is
        SLOWER on marker-dense text: ~1 match per 3 words makes the
        explode/groupby attribution cost exceed three extra scans.)"""
        if len(text) == 0 or text.buffers()[2] is None:
            return np.zeros((len(self.patterns), len(text)), dtype=np.int64)
        view = span_view(text.buffers()[2], starts, ends,
                         pa.types.is_large_string(text.type))
        counts = pl.DataFrame({"v": pl.from_arrow(view)}).select_seq(self._marker_counts)
        return counts.to_numpy().T.astype(np.int64)

    def _model_detect(
        self, scan: pa.Array
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-document model predictions over the bounded prefix —
        the real-model analog of the marker-density argmax. Token →
        input-row-id lists are memoized per actor (Zipf vocabulary)."""
        kind, model = self.model
        n = len(scan)
        detected = np.full(n, "und", dtype=object)
        conf = np.zeros(n, dtype=np.float64)
        texts = scan.to_pylist()
        if kind == "lib":  # pragma: no cover - needs the fasttext lib
            for i, t in enumerate(texts):
                if not t:
                    continue
                labels, probs = model.predict(t.replace("\n", " "))
                if labels:
                    detected[i] = labels[0].removeprefix("__label__")
                    conf[i] = float(probs[0])
            return detected.astype(str), conf
        memo = self._token_ids_memo
        for i, t in enumerate(texts):
            if not t:
                continue
            ids: list[int] = []
            for tok in t.split():
                got = memo.get(tok)
                if got is None:
                    got = model.token_ids(tok)
                    if len(memo) >= _TOKEN_MEMO_MAX:
                        memo.clear()
                    memo[tok] = got
                ids.extend(got)
            if not ids:
                continue
            hidden = model.input[np.asarray(ids, np.int64)].mean(
                axis=0, dtype=np.float64
            )
            scores = model.output.astype(np.float64) @ hidden
            k = int(scores.argmax())
            e = np.exp(scores - scores[k])
            detected[i] = model.labels[k].removeprefix("__label__")
            conf[i] = 1.0 / float(e.sum())
        return detected.astype(str), conf

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch.column("extracted_text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        n = len(batch)

        # all detection scans read only a bounded document PREFIX (the
        # first langid_scan_chars codepoints; null counts as "") —
        # per-doc cost is O(langid_scan_chars) however big the page is;
        # densities are computed against the PREFIX token/char counts
        starts, lens = value_spans(text)
        scan_len = prefix_bytes(text, lens, self.cfg.langid_scan_chars)
        ends = starts + scan_len
        stats = ws_token_stats(
            text, self.cfg.langid_scan_chars, self.cfg.repetition_scan_tokens,
            scan_len,
        )
        n_tokens = stats["n_tokens"]
        n_chars = pc.fill_null(pc.utf8_length(text), 0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        scan_chars = np.minimum(n_chars, self.cfg.langid_scan_chars)
        scan_tok_safe = np.maximum(stats["n_tokens_scan"], 1)
        scan_chr_safe = np.maximum(scan_chars, 1).astype(np.float64)

        langs = list(self.patterns)
        hits_matrix = self._marker_hits(text, starts, ends)
        scores = np.zeros((len(langs) + 1, n), dtype=np.float64)
        for k in range(len(langs)):
            scores[k] = hits_matrix[k] / scan_tok_safe
        # CJK count only when some prefix holds non-ASCII at all (byte
        # length != codepoint length)
        if (scan_len != scan_chars).any():
            cjk = cjk_counts(
                np.frombuffer(text.buffers()[2], dtype=np.uint8), starts, ends
            )
            zh_ratio = cjk / scan_chr_safe
            scores[len(langs)] = np.where(
                zh_ratio >= self.cfg.zh_char_ratio_min, zh_ratio, 0.0
            )

        lang_names = np.array(langs + ["zh"])
        best = scores.argmax(axis=0)
        conf = scores[best, np.arange(n)]
        detected = lang_names[best]
        floor = np.where(lang_names[best] == "zh", self.cfg.zh_char_ratio_min, self.cfg.langid_min_conf)
        detected = np.where(conf >= floor, detected, "und")
        detected = np.where(n_tokens == 0, "und", detected)

        if self.model is not None:
            detected, conf = self._model_detect(
                pc.utf8_slice_codeunits(text, 0, self.cfg.langid_scan_chars)
            )
            # the same floor-to-"und" discipline as the marker path
            detected = np.where(
                (n_tokens == 0) | (conf < self.cfg.langid_min_conf), "und", detected
            )

        out = batch.append_column("detected_lang", pa.array(detected, pa.string()))
        out = out.append_column("langid_conf", pa.array(conf, pa.float64()))
        out = out.append_column("n_tokens", pa.array(n_tokens, pa.int64()))
        out = out.append_column("n_chars", pa.array(n_chars, pa.int64()))
        # Stopword-ratio basis: marker hits of the detected language;
        # when detection is "und"/zh, fall back to the DECLARED language
        # (null ⇒ the stopword rule skips — the reference's "missing key
        # ⇒ rule does not fire" convention, p001.py:10-11).
        # (an all-null lang column may arrive typed null)
        declared = pc.fill_null(batch.column("lang").cast(pa.string()), "")
        declared = declared.to_numpy(zero_copy_only=False).astype(str)
        stop_lang = np.where(
            np.isin(detected, langs),
            detected,
            np.where((detected == "und") & np.isin(declared, langs), declared, ""),
        )
        stop_hits = np.zeros(n, dtype=np.int64)
        for k, lang in enumerate(langs):
            m = stop_lang == lang
            if m.any():
                # exact integer marker counts — never reconstructed from
                # the float density (3/7*7 != 3 in fp)
                stop_hits[m] = hits_matrix[k][m]
        out = out.append_column(
            "stopword_lang", pa.array(stop_lang, pa.string(), mask=stop_lang == "")
        )
        out = out.append_column("stopword_hits", pa.array(stop_hits, pa.int64()))
        # prefix token count — the denominator for the stopword-density
        # rule (hits were counted in the same prefix) — then the
        # repetition stats the rule stage reads
        for name in ("n_tokens_scan", "top_bigram_frac", "n_lines", "dup_line_frac"):
            out = out.append_column(name, pa.array(stats[name]))
        return out
