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

The scan runs in waves. Each resumes it at the first undecided candidate,
advances it over the verdicts known so far and collects, for every
candidate certain to be reached, the next pair its checks need; one
``classify_nli_batch`` call classifies them all. So the classifier sees
exactly the pairs of a one-pair-at-a-time scan, in as many passes as the
longest chain of verdicts that depend on one another.

Every removal is recorded in an elimination trace so a final set can be
audited after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .backends import ENTAILMENT, NliClassifier
from .errors import SpanError
from .generation import Candidate, normalize_text

STAGE_ANSWER = "answer-entailment"
STAGE_PAIRWISE = "pairwise-entailment"
STAGES = (STAGE_ANSWER, STAGE_PAIRWISE)


@dataclass(frozen=True)
class TraceEntry:
    """Why one candidate was eliminated.

    ``verdicts`` holds the classifier labels for (removed -> counterpart,
    counterpart -> removed); removal requires both to be entailment.
    """

    candidate: str
    stage: str
    counterpart: str
    verdicts: tuple[str, str]


@dataclass
class DistractorSet:
    """Final distractors in rank order plus the full elimination trace."""

    distractors: list[str]
    answer: str
    trace: list[TraceEntry] = field(default_factory=list)
    underfilled: bool = False


def two_way_entails(nli_backend: NliClassifier, text_a: str, text_b: str) -> bool:
    """True only when both (a, b) and (b, a) classify as entailment."""
    if nli_backend.classify_nli(text_a, text_b) != ENTAILMENT:
        return False
    return nli_backend.classify_nli(text_b, text_a) == ENTAILMENT


def _resolve_span(
    context: str, answer: str, answer_span: tuple[int, int] | None
) -> tuple[int, int]:
    """``answer_span`` (default: first occurrence of ``answer``), bounds-checked."""
    if answer_span is None:
        start = context.find(answer)
        if start < 0:
            raise SpanError(f"answer {answer!r} not found in comparison text")
        answer_span = (start, start + len(answer))
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
    answer_span: tuple[int, int] | None = None,
) -> DistractorSet:
    """Keep up to ``k`` candidates, best-first, entailing neither answer nor each other.

    ``context`` is the comparison sentence containing the answer;
    ``answer_span`` locates the answer within it (first occurrence when
    omitted). Candidates must arrive ranked best-first and free of
    verbatim answer copies. The trace lists answer-entailment removals
    first, then pairwise ones, each in rank order.
    """
    if not candidates:
        return DistractorSet([], answer, [], underfilled=True)
    start, end = _resolve_span(context, answer, answer_span)
    texts = [answer] + [c.text for c in candidates]
    sentences = [context] + [context[:start] + t + context[end:] for t in texts[1:]]
    verdicts: dict[tuple[str, str], str] = {}
    kept: list[int] = []
    removed: dict[int, int] = {}
    start, needed = _scan_wave(sentences, k, verdicts, kept, removed, 1)
    while needed:
        verdicts.update(zip(needed, nli_backend.classify_nli_batch(needed)))
        start, needed = _scan_wave(sentences, k, verdicts, kept, removed, start)
    trace = [
        TraceEntry(texts[i], STAGES[j > 0], texts[j], (ENTAILMENT, ENTAILMENT))
        for i, j in sorted(removed.items(), key=lambda item: (item[1] > 0, item[0]))
    ]
    return DistractorSet([texts[i] for i in kept], answer, trace, len(kept) < k)


def _scan_wave(
    sentences: list[str],
    k: int,
    verdicts: dict[tuple[str, str], str],
    kept: list[int],
    removed: dict[int, int],
    start: int,
) -> tuple[int, list[tuple[str, str]]]:
    """Advance the best-first scan from ``start`` as far as ``verdicts`` settle it.

    ``sentences`` holds the answer sentence, then each candidate's. Settled
    candidates join ``kept`` or ``removed`` (mapped to their counterpart, 0
    for the answer) in place. Returns the first undecided candidate, where
    the next wave resumes, and the next pair each candidate certain to be
    reached still needs: one whose kept and undecided predecessors number
    fewer than ``k``. Later candidates than the first undecided one cannot
    be known kept; they are checked against the kept ones before it.
    """
    needed: list[tuple[str, str]] = []
    undecided = 0
    for i in range(start, len(sentences)):
        if len(kept) + undecided == k:
            break
        for j in (0, *kept):
            verdict = _two_way(verdicts, sentences[i], sentences[j])
            if verdict is True:
                if not undecided:
                    removed[i] = j
                break
            if verdict is not False:
                if not undecided:
                    start = i
                needed.append(verdict)
                undecided += 1
                break
        else:
            if undecided:
                undecided += 1
            else:
                kept.append(i)
    return start, needed


def _two_way(
    verdicts: dict[tuple[str, str], str], text_a: str, text_b: str
) -> bool | tuple[str, str]:
    """``two_way_entails`` over known verdicts, or the pair it needs next."""
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
    answer_span: tuple[int, int] | None = None,
) -> bool:
    """Post-hoc audit: no kept pair mutually entails and none equals the answer."""
    start, end = _resolve_span(context, result.answer, answer_span)
    answer_key = normalize_text(result.answer)
    if any(normalize_text(d) == answer_key for d in result.distractors):
        return False
    texts = [context[:start] + d + context[end:] for d in result.distractors]
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            if two_way_entails(nli_backend, texts[i], texts[j]):
                return False
    return True
