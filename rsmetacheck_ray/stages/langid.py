"""Language-ID stage — a stateful actor-pool `map_batches` class.

The north rule's fastText-lid analog (the reference has no stateful
stages, SURVEY §2.4; its closest pattern is the module-level compiled
regex lists, ``p002.py:37-51``). Implemented as marker-word density
scoring: for each known language, count whole-word hits of that
language's (disjoint) marker set with ONE vectorized RE2 pass per
language (`pyarrow.compute.count_substring_regex`) over a bounded
document prefix, plus a CJK character-ratio detector for zh. Detected
language = argmax density, ``"und"`` below the confidence floor.

The density denominators, and the Gopher repetition stats the rule
stage reads, come from ONE byte-level tokenization of the batch
(:func:`~rsmetacheck_ray.functions.tokenize.ws_token_stats`): the stage
appends ``n_tokens``, ``n_tokens_scan``, ``top_bigram_frac``,
``n_lines`` and ``dup_line_frac``, and nothing downstream tokenizes
again. Marker hits stay RE2 ``\\b`` matches, which count ``"the,"``
where a whitespace-token lookup would not.

State (the per-language compiled patterns, an optional lid model) is
built once per actor in ``__init__`` — the ActorPoolStrategy contract.
Scoring is deterministic and seed-free.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DEFAULT_CONFIG, GateConfig
from ..functions.tokenize import ws_token_stats
from ..functions.vocab import MARKERS

_CJK_PATTERN = r"[\x{4E00}-\x{9FFF}]"
# the model path memoizes token -> input-row ids per actor; cleared when
# full, so a stream of distinct OOV tokens cannot grow it without bound
_TOKEN_MEMO_MAX = 1 << 17


def marker_pattern(lang: str) -> str:
    return r"\b(?:" + "|".join(MARKERS[lang]) + r")\b"


class LangIdScorer:
    """Adds ``detected_lang: string`` and ``langid_conf: double``.

    Usage::

        ds.map_batches(LangIdScorer, batch_format="pyarrow",
                       batch_size=cfg.batch_size,
                       concurrency=cfg.langid_actors)
    """

    def __init__(
        self, cfg: GateConfig = DEFAULT_CONFIG,
        model_path: str | None = None,
    ):
        self.cfg = cfg
        # one compiled alternation per language, built once per actor
        self.patterns = {lang: marker_pattern(lang) for lang in MARKERS}
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

    def _marker_hits(self, text: pa.Array, n: int) -> np.ndarray:
        """(n_langs, n) exact marker counts — one RE2 pass per language.
        (A single-scan union + per-word attribution was tried and is
        SLOWER on marker-dense text: ~1 match per 3 words makes the
        explode/groupby attribution cost exceed three extra scans.)"""
        hits = np.zeros((len(self.patterns), n), dtype=np.int64)
        for k, lang in enumerate(self.patterns):
            hits[k] = pc.fill_null(
                pc.count_substring_regex(text, self.patterns[lang]), 0
            ).to_numpy(zero_copy_only=False)
        return hits

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

        stats = ws_token_stats(
            text, self.cfg.langid_scan_chars, self.cfg.repetition_scan_tokens
        )
        n_tokens = stats["n_tokens"]
        n_chars = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.int64)

        # all detection scans read only a bounded document PREFIX —
        # per-doc cost is O(langid_scan_chars) however big the page is;
        # densities are computed against the PREFIX token/char counts
        scan = pc.utf8_slice_codeunits(text, 0, self.cfg.langid_scan_chars)
        scan_chars = pc.utf8_length(scan).to_numpy(zero_copy_only=False).astype(np.float64)
        scan_tok_safe = np.maximum(stats["n_tokens_scan"], 1)
        scan_chr_safe = np.maximum(scan_chars, 1.0)

        langs = list(self.patterns)
        hits_matrix = self._marker_hits(scan, n)
        scores = np.zeros((len(langs) + 1, n), dtype=np.float64)
        for k in range(len(langs)):
            scores[k] = hits_matrix[k] / scan_tok_safe
        # CJK pass only when any row contains non-ASCII at all (byte
        # length != codepoint length) — pure-ASCII batches skip the scan
        scan_bytes = pc.binary_length(scan).to_numpy(zero_copy_only=False)
        if (scan_bytes != scan_chars.astype(np.int64)).any():
            cjk = pc.count_substring_regex(scan, _CJK_PATTERN).to_numpy(
                zero_copy_only=False
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
            detected, conf = self._model_detect(scan)
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
        declared = batch.column("lang").to_numpy(zero_copy_only=False)
        declared = np.array(["" if d is None else str(d) for d in declared])
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
            "stopword_lang",
            pa.array([s if s else None for s in stop_lang], pa.string()),
        )
        out = out.append_column("stopword_hits", pa.array(stop_hits, pa.int64()))
        # prefix token count — the denominator for the stopword-density
        # rule (hits were counted in the same prefix) — then the
        # repetition stats the rule stage reads
        for name in ("n_tokens_scan", "top_bigram_frac", "n_lines", "dup_line_frac"):
            out = out.append_column(name, pa.array(stats[name]))
        return out
