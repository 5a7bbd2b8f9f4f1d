import math

import pytest

from clozegen.backends import (
    MaskedLanguageModel,
    MockMaskedLM,
    NliClassifier,
    TokenPrediction,
)
from clozegen.data import extract_sentence, trim_span
from clozegen.generation import (
    Candidate,
    build_masked_context,
    decode_order,
    decode_plan,
    generate_candidates,
    map_char_span,
    rank_candidates,
)
from clozegen.selection import select_distractors

ACCEPTANCE_LABELS = {
    "test_criterion_1": "1 decode-order suite",
    "test_criterion_2": "2 search oracle equivalence",
    "test_criterion_3": "3 ranking math",
    "test_criterion_4": "4 selector correctness",
    "test_criterion_5": "5 metric oracle",
    "test_criterion_6": "6 generate determinism",
    "test_criterion_7": "7 CLOTH dataset contract",
    "test_criterion_8": "8 full-checkpoint evaluation",
}


def make_candidate(text, probs, avg="geometric"):
    """Candidate whose rank score is derived from the given step probabilities."""
    r = len(probs)
    if avg == "geometric":
        rank = math.prod(probs) ** (1.0 / r)
    else:
        rank = r / sum(1.0 / p for p in probs)
    return Candidate(
        token_strings=text.split(),
        text=text,
        step_probabilities=list(probs),
        rank_score=rank,
    )


def eager_request(context, span, config, mlm, nli):
    """The request with every candidate decoded: the drained candidates, ranked,
    and selection over the whole ranked list."""
    start, end = span = trim_span(context, span)
    tokens, token_span = map_char_span(mlm, context, span)
    counts, branch_width = decode_plan(config, token_span[1] - token_span[0])
    info = mlm.info()
    jobs = [
        (
            build_masked_context(
                tokens, token_span, count, info.mask_token, info.max_sequence_length
            ),
            decode_order(config.strategy, count),
        )
        for count in counts
    ]
    ranked = rank_candidates(
        generate_candidates(mlm, jobs, branch_width, config.avg), context[start:end]
    )
    sentence, sentence_span = extract_sentence(context, span)
    texts = [c.text for c in ranked]
    return ranked, select_distractors(nli, sentence, texts, config.k, sentence_span)


class CountingMLM(MaskedLanguageModel):
    """Delegating wrapper that records every fill_mask call.

    ``calls`` holds one entry per query; ``batches`` holds one
    ``(size, top_k)`` entry per fill_mask_batch call.
    """

    def __init__(self, inner):
        self.inner = inner
        self.calls = []
        self.batches = []

    def info(self):
        return self.inner.info()

    def tokenize(self, text):
        return self.inner.tokenize(text)

    def detokenize(self, tokens):
        return self.inner.detokenize(tokens)

    def tokenize_with_offsets(self, text):
        return self.inner.tokenize_with_offsets(text)

    def fill_mask(self, tokens, mask_position, top_k):
        self.calls.append((" ".join(tokens), mask_position, top_k))
        return self.inner.fill_mask(tokens, mask_position, top_k)

    def fill_mask_batch(self, queries, top_k):
        self.batches.append((len(queries), top_k))
        return super().fill_mask_batch(queries, top_k)


class CountingNli(NliClassifier):
    """Delegating wrapper that records every classify_nli call.

    ``calls`` holds one entry per pair; ``batches`` holds the size of
    each classify_nli_batch call.
    """

    def __init__(self, inner):
        self.inner = inner
        self.calls = []
        self.batches = []

    def classify_nli(self, premise, hypothesis):
        self.calls.append((premise, hypothesis))
        return self.inner.classify_nli(premise, hypothesis)

    def classify_nli_batch(self, pairs):
        self.batches.append(len(pairs))
        return super().classify_nli_batch(pairs)


@pytest.fixture
def tiny_vocab_mlm():
    return MockMaskedLM(vocabulary=["cat", "dog", "rat"])


def table_entry(tokens, position, pairs):
    """Table key/value for a mock prediction list."""
    return (" ".join(tokens), position), [TokenPrediction(t, p) for t, p in pairs]


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion at the end of a run."""
    seen = {}
    for outcome in ("passed", "failed", "skipped"):
        for report in terminalreporter.stats.get(outcome, []):
            name = getattr(report, "nodeid", "")
            if "test_acceptance" not in name:
                continue
            test_name = name.split("::")[-1]
            for key in ACCEPTANCE_LABELS:
                if test_name.startswith(key):
                    if outcome == "failed" or key not in seen:
                        seen[key] = outcome
                    break
    if not seen:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(seen, key=lambda k: ACCEPTANCE_LABELS[k]):
        status = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}[seen[key]]
        terminalreporter.write_line(f"criterion {ACCEPTANCE_LABELS[key]}: {status}")
