"""Deterministic zero-cost backends for the benchmark.

Both classes honour the clozegen backend contracts (the contracts' own
argument checks run on every call) but answer in O(1) time in the length
of the context: the masked LM looks only at a few tokens around the mask,
and the NLI classifier hashes the ordered pair. Timings taken with them are
therefore clozegen's own Python work, while the call counts are what a
real checkpoint would be asked to do.

Predictions and verdicts come from CRC-32 hashes, never from the built-in
``hash()``, so they are identical across processes.

Calls are counted into a shared ``collections.Counter``. A *pass* is one
outermost call into any method whose name starts with ``fill_mask`` or
``classify_nli``; a *query* (MLM) or *pair* (NLI) is one call of the
single-item method. A batched entry point such as ``fill_mask_batch``
whose default loops over ``fill_mask`` therefore counts as one pass with
N queries without any change here.
"""

from __future__ import annotations

import re
import zlib
from time import perf_counter

from clozegen.backends import (
    ENTAILMENT,
    NEUTRAL,
    BackendInfo,
    MaskedLanguageModel,
    NliClassifier,
    TokenPrediction,
)

MASK_TOKEN = "[MASK]"

# Two-syllable consonant-vowel words: 4900 of them, none of which is one of
# the abbreviations clozegen's sentence splitter refuses to end a sentence on.
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]
VOCABULARY = [a + b for a in _SYLLABLES for b in _SYLLABLES]

# Tokens either side of the mask that a prediction depends on.
MLM_WINDOW = 2
# Share of ordered (premise, hypothesis) pairs classified as entailment.
# Each direction is hashed on its own, so about ENTAILMENT_SHARE ** 2 (9%)
# of pairs two-way entail: both selection stages remove candidates, and
# the reverse classification of a pair can change the outcome.
ENTAILMENT_SHARE = 0.3

_STRIDES = (1, 3, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def _crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


class _Counted:
    """Counts one pass per outermost call into the entry methods of a backend.

    Every method whose name starts with ``prefix`` is replaced on the
    instance by a wrapper, so calls between entry methods (a batched
    default looping over the single-item method) stay inside one pass.
    When ``tracer`` is set, the wall time of each outermost call is
    reported to it as backend busy time.
    """

    kind = ""

    def _count_entries(self, prefix: str, counts) -> None:
        self.counts = counts
        self.tracer = None
        self._depth = 0
        for name in dir(type(self)):
            if name.startswith(prefix) and callable(getattr(type(self), name)):
                setattr(self, name, self._outermost(getattr(self, name)))

    def _pass_key(self) -> str:
        raise NotImplementedError

    def _outermost(self, method):
        def counted(*args, **kwargs):
            if self._depth:
                return method(*args, **kwargs)
            self.counts[self._pass_key()] += 1
            self._depth = 1
            tracer = self.tracer
            start = perf_counter() if tracer is not None else 0.0
            try:
                return method(*args, **kwargs)
            finally:
                self._depth = 0
                if tracer is not None:
                    tracer.backend_time(self.kind, perf_counter() - start)

        return counted


class BenchMaskedLM(_Counted, MaskedLanguageModel):
    """Masked LM whose top-k fills are a hash of the tokens near the mask.

    The tokenizer splits punctuation off words, as real checkpoints'
    tokenizers do. ``phase`` names the counter a pass is booked to
    (``prefill`` or ``decode``); the benchmark sets it around its calls.
    """

    kind = "mlm"

    def __init__(self, counts, max_sequence_length: int = 512):
        self._info = BackendInfo("bench-mlm", max_sequence_length, MASK_TOKEN)
        self._token_re = re.compile(re.escape(MASK_TOKEN) + r"|\w+|[^\w\s]")
        self.phase = "decode"
        self._count_entries("fill_mask", counts)

    def _pass_key(self) -> str:
        return "mlm_passes_" + self.phase

    def info(self) -> BackendInfo:
        return self._info

    def tokenize(self, text):
        return self._token_re.findall(text)

    def tokenize_with_offsets(self, text):
        return [(m.group(), m.start(), m.end()) for m in self._token_re.finditer(text)]

    def detokenize(self, tokens):
        text = " ".join(tokens)
        return re.sub(r" (?=[^\w\s\[])", "", text)

    def fill_mask(self, tokens, mask_position, top_k):
        self._check_fill_args(tokens, mask_position, top_k)
        self.counts["mlm_queries"] += 1
        lo = max(0, mask_position - MLM_WINDOW)
        h = _crc("\x1f".join(tokens[lo : mask_position + MLM_WINDOW + 1]))
        size = len(VOCABULARY)
        first = h % size
        stride = _STRIDES[(h >> 12) % len(_STRIDES)]
        top = 0.25 + ((h >> 20) & 0xFF) / 1024.0
        decay = 0.6 + ((h >> 4) & 0xFF) / 1024.0
        return [
            TokenPrediction(VOCABULARY[(first + i * stride) % size], top * decay**i)
            for i in range(min(top_k, size))
        ]


class BenchNli(_Counted, NliClassifier):
    """NLI classifier whose verdict is a hash of the ordered pair.

    A pair that involves ``answer_sentence`` (the sentence holding the
    current item's answer, set by the benchmark) is booked as answer-stage
    work, any other pair as pairwise work. Stages are told apart by the
    pair's content so the split survives a change to how selection
    orders its calls.
    """

    kind = "nli"

    def __init__(self, counts):
        self.answer_sentence = None
        self._threshold = int(ENTAILMENT_SHARE * 2**32)
        self._count_entries("classify_nli", counts)

    def _pass_key(self) -> str:
        return "nli_passes"

    def entails_both_ways(self, text_a, text_b) -> bool:
        return (
            self.classify_nli(text_a, text_b) == ENTAILMENT
            and self.classify_nli(text_b, text_a) == ENTAILMENT
        )

    def classify_nli(self, premise, hypothesis):
        self._check_pair(premise, hypothesis)
        if self.answer_sentence in (premise, hypothesis):
            self.counts["nli_pairs_answer"] += 1
        else:
            self.counts["nli_pairs_pairwise"] += 1
        return ENTAILMENT if _crc(premise + "\x1f" + hypothesis) < self._threshold else NEUTRAL
