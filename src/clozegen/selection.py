"""Distractor selection: one best-first entailment scan over candidates.

Candidates are scanned in rank order. A candidate is dropped when its
substituted sentence mutually entails the answer sentence (it would be an
alternative correct answer), or else when it mutually entails the sentence
of an already kept candidate (a near-duplicate; the lower-ranked member of
a pair is always the one removed). Any other candidate is kept, and the
scan stops once ``k`` are kept, so lower-ranked candidates are never
classified. A pair counts as entailing only when the classifier says
entailment in *both* argument orders; neutral or contradictory verdicts
retain the candidate.

The scan runs in waves, all in one loop. Each wave resumes it at the first
undecided candidate, advances it over the verdicts known so far and
collects, for every candidate certain to be reached (its kept and undecided
predecessors number fewer than ``k``), the next pair its checks need; one
``classify_pairs`` call classifies them all. So the classifier sees
exactly the pairs of a one-pair-at-a-time scan, in as many passes as the
longest chain of verdicts that depend on one another.

Every removal is recorded in an elimination trace, and
``verify_distractor_set`` audits a final set after the fact. Both send their
pairs through ``backends.classify_pairs``, which fails with ``BackendError``
unless a reply holds one of the three verdicts per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .backends import ENTAILMENT, NliClassifier, classify_pairs
from .errors import ContractViolation, SpanError
from .generation import Candidate, normalize_text

STAGE_ANSWER = "answer-entailment"
STAGE_PAIRWISE = "pairwise-entailment"
STAGES = (STAGE_ANSWER, STAGE_PAIRWISE)


@dataclass(frozen=True)
class TraceEntry:
    """Why one candidate was eliminated: its sentence and the counterpart's
    entail each other both ways."""

    candidate: str
    stage: str
    counterpart: str


@dataclass
class DistractorSet:
    """Final distractors in rank order plus the full elimination trace."""

    distractors: list[str]
    answer: str
    trace: list[TraceEntry] = field(default_factory=list)
    underfilled: bool = False


def _check_span(context: str, answer_span: tuple[int, int]) -> tuple[int, int]:
    """``answer_span``, the answer's place in the comparison text, bounds-checked."""
    start, end = answer_span
    if not (0 <= start < end <= len(context)):
        raise SpanError(f"answer span ({start}, {end}) outside comparison text")
    return answer_span


def select_distractors(
    nli_backend: NliClassifier,
    context: str,
    answer: str,
    candidates: Sequence[Candidate],
    k: int,
    answer_span: tuple[int, int],
) -> DistractorSet:
    """Keep up to ``k`` candidates, best-first, entailing neither answer nor each other.

    ``context`` is the comparison sentence containing the answer;
    ``answer_span`` locates the answer within it. Candidates must arrive
    ranked best-first and free of verbatim answer copies. The trace lists
    answer-entailment removals first, then pairwise ones, each in rank order.
    """
    if type(k) is not int or k < 1:
        raise ContractViolation(f"k must be an integer >= 1, not {k!r}")
    start, end = _check_span(context, answer_span)
    texts = [answer] + [c.text for c in candidates]
    sentences = [context] + [context[:start] + t + context[end:] for t in texts[1:]]
    verdicts: dict[tuple[str, str], str] = {}
    kept: list[int] = []
    removed: dict[int, int] = {}  # candidate -> counterpart, 0 for the answer
    first = 1  # first undecided candidate: every one before it is settled
    while True:
        needed: list[tuple[str, str]] = []
        undecided = 0
        for i in range(first, len(sentences)):
            if len(kept) + undecided == k:  # the rest may never be reached
                break
            # behind an undecided candidate, i may never be reached either: a
            # pass or a pending pair counts it undecided; a removal is not recorded
            for j in (0, *kept):
                verdict = _two_way(verdicts, sentences[i], sentences[j])
                if verdict is True:
                    if not undecided:
                        removed[i] = j
                    break
                if verdict is not False:
                    if not undecided:
                        first = i
                    needed.append(verdict)
                    undecided += 1
                    break
            else:
                if undecided:
                    undecided += 1
                else:
                    kept.append(i)
        if not needed:
            break
        verdicts.update(zip(needed, classify_pairs(nli_backend, needed)))
    trace = [
        TraceEntry(texts[i], STAGES[j > 0], texts[j])
        for i, j in sorted(removed.items(), key=lambda item: (item[1] > 0, item[0]))
    ]
    return DistractorSet([texts[i] for i in kept], answer, trace, len(kept) < k)


def _two_way(
    verdicts: dict[tuple[str, str], str], text_a: str, text_b: str
) -> bool | tuple[str, str]:
    """Whether a and b entail each other both ways by the known verdicts, or the
    pair that decides it next: (b, a) is needed only once (a, b) entails."""
    for pair in ((text_a, text_b), (text_b, text_a)):
        label = verdicts.get(pair)
        if label is None:
            return pair
        if label != ENTAILMENT:
            return False
    return True


def verify_distractor_set(
    nli_backend: NliClassifier,
    context: str,
    result: DistractorSet,
    answer_span: tuple[int, int],
) -> bool:
    """Post-hoc audit: no kept pair mutually entails and none equals the answer.

    Each distractor is substituted at ``answer_span`` in ``context``. One
    batch classifies every pair in rank order, a second the reverse of each
    pair that entailed.
    """
    start, end = _check_span(context, answer_span)
    answer_key = normalize_text(result.answer)
    if any(normalize_text(d) == answer_key for d in result.distractors):
        return False
    texts = [context[:start] + d + context[end:] for d in result.distractors]
    forward = [(a, b) for i, a in enumerate(texts) for b in texts[i + 1 :]]
    labels = classify_pairs(nli_backend, forward)
    reverse = [(b, a) for (a, b), label in zip(forward, labels) if label == ENTAILMENT]
    return ENTAILMENT not in classify_pairs(nli_backend, reverse)
