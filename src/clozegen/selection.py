"""Distractor selection: one best-first entailment scan over candidates.

Candidates are scanned in rank order, each read from its iterable only when
the scan reaches it. A candidate is dropped when its substituted sentence
mutually entails the answer sentence (it would be an alternative correct
answer), or else when it mutually entails the sentence of an already kept
candidate (a near-duplicate; the lower-ranked member of a pair is always the
one removed). Any other candidate is kept, and the scan stops once ``k``
are kept, so lower-ranked candidates are never read or classified. A pair
counts as entailing only when the classifier says entailment in *both*
argument orders; neutral or contradictory verdicts retain the candidate.

The scan runs in waves, all in one loop. Each wave resumes it at the first
undecided candidate and walks every candidate certain to be reached (its
kept and undecided predecessors number fewer than ``k``) over one chain:
the answer, the kept candidates, then the undecided ones before it as if
they were kept, stopping at the first counterpart it entails both ways or
whose next pair with it is unknown. Entailing the answer or a kept
candidate both ways removes it; an unknown pair is its *ask*. Decisions
are read off the verdicts in scan order against the answer and the kept
candidates only, so they do not change. One ``classify_pairs`` call sends
the wave's asks in rank order, each with a prefix of the rest of its
candidate's chain: all of it for the wave's only ask, else one pair for a
forward ask (the candidate's sentence first) and none for a reverse one.
That rest is every unknown forward pair after the ask's counterpart and
the first unknown reverse pair (one whose forward pair is known to
entail), up to a counterpart the candidate is known to entail both ways.
A chain only loses members between waves and a candidate's forward pairs
go out in counterpart rank order, so the counterparts with a known forward
verdict are a prefix of its chain and a forward ask's one pair is its next
forward pair.

The one-pair-at-a-time scan sends a candidate's pair against the answer or
a kept candidate too unless an earlier pair of its chain removes it, so that
is the only waste of such a pair. A counterpart with an unknown forward pair
removes it only when that pair and its reverse both entail (about 9% of
counterparts when each direction entails 30% of the time), so forward pairs
are seldom wasted. A counterpart whose reverse pair is unknown removes it
whenever that pair entails (about 30%), which is why a reverse ask brings
more pairs only when it is the wave's only ask, and why its chain holds one
reverse pair: a second one is wasted whenever the first entails. A pair
against an undecided counterpart is wasted, besides, if that counterpart
falls, since the scan then never compares the two. So the classifier sees
each pair of that scan once, plus the lone ask's chain, at most one more
pair per other ask against the answer or a kept candidate and two per ask
against an undecided one. On a real checkpoint a wasted pair can still
raise its batch's ``SequenceLengthError`` (unverified).

Every removal is recorded in an elimination trace, and
``verify_distractor_set`` audits a final set after the fact. Both send their
pairs through ``backends.classify_pairs``, which fails with ``BackendError``
unless a reply holds one of the three verdicts per pair.
"""

from __future__ import annotations

from typing import Iterable

from .backends import ENTAILMENT, NliClassifier, classify_pairs
from .errors import ContractViolation, FrozenRecord, check_count, check_span
from .generation import normalize_text

STAGE_ANSWER = "answer-entailment"
STAGE_PAIRWISE = "pairwise-entailment"
STAGES = (STAGE_ANSWER, STAGE_PAIRWISE)


class TraceEntry(FrozenRecord):
    """Why one candidate was eliminated: its sentence and the counterpart's
    entail each other both ways."""

    __slots__ = ("candidate", "stage", "counterpart")


class DistractorSet(FrozenRecord):
    """Final distractors in rank order plus the full elimination trace."""

    __slots__ = ("distractors", "answer", "trace", "underfilled")

    def __init__(
        self,
        distractors: list[str],
        answer: str,
        trace: list[TraceEntry] | None = None,
        underfilled: bool = False,
    ):
        super().__init__(distractors, answer, [] if trace is None else trace, underfilled)


def select_distractors(
    nli_backend: NliClassifier,
    context: str,
    candidates: Iterable[str],
    k: int,
    answer_span: tuple[int, int],
) -> DistractorSet:
    """Keep up to ``k`` candidates, best-first, entailing neither answer nor each other.

    ``context`` is the comparison sentence and the answer is its text at
    ``answer_span``. Candidate texts arrive ranked best-first from any
    iterable but a ``str``; one whose ``normalize_text`` form is blank, the
    answer's or an earlier text's is skipped as it is read, and one that is
    not a ``str`` is a ``ContractViolation``. A text is read only when the
    scan is certain to reach it, so texts no wave reaches are never read and
    an iterator sends the same batches as a list of its texts. The trace
    lists answer-entailment removals first, then pairwise ones, each in rank
    order.
    """
    check_count("k", k, 1)
    start, end = check_span(answer_span, len(context), "comparison text")
    if isinstance(candidates, str):
        raise ContractViolation("candidates must be an iterable of texts, not a str")
    texts, sentences = [context[start:end]], [context]
    taken = {normalize_text(texts[0]), ""}
    unread = iter(candidates)
    verdicts: dict[tuple[int, int], str] = {}  # by (premise, hypothesis) rank
    kept: list[int] = []
    removed: dict[int, int] = {}  # candidate -> counterpart, 0 for the answer
    first = 1  # first undecided candidate: every one before it is settled
    while True:
        # (candidate, its ask, the counterparts after the ask's own in its chain)
        asks: list[tuple[int, tuple[int, int], tuple[int, ...]]] = []
        undecided: list[int] = []
        i = first
        while len(kept) + len(undecided) < k:  # past k, the rest may never be reached
            if i == len(texts):  # read one more candidate, if any is left
                try:
                    text = next(unread)
                except StopIteration:
                    break
                if not isinstance(text, str):
                    raise ContractViolation(f"candidate texts must be str, not {text!r}")
                key = normalize_text(text)
                if key in taken:  # blank, an answer copy or a repeat
                    continue
                taken.add(key)
                texts.append(text)
                sentences.append(context[:start] + text + context[end:])
            chain = (0, *kept, *undecided)
            for n, j in enumerate(chain):
                verdict = _two_way(verdicts, i, j)
                if verdict is not False:
                    break
            if verdict is True and n <= len(kept):  # entails the answer or a kept one
                if not undecided:  # behind an undecided one, i may never be reached
                    removed[i] = j
            elif isinstance(verdict, bool):  # clear of its chain, or entails an undecided one
                (undecided if undecided else kept).append(i)
            else:
                asks.append((i, verdict, chain[n + 1 :]))
                undecided.append(i)
            i += 1
        if not asks:
            break
        first = asks[0][0]
        needed = []
        for i, pair, later in asks:  # the lone ask's whole chain, a forward ask's first pair
            size = len(later) if len(asks) == 1 else int(pair[0] == i)
            needed += [pair, *_chain(verdicts, i, later)[:size]]
        labels = classify_pairs(nli_backend, [(sentences[a], sentences[b]) for a, b in needed])
        verdicts.update(zip(needed, labels))
    trace = [
        TraceEntry(texts[i], STAGES[j > 0], texts[j])
        for i, j in sorted(removed.items(), key=lambda item: (item[1] > 0, item[0]))
    ]
    return DistractorSet([texts[i] for i in kept], texts[0], trace, len(kept) < k)


def _two_way(verdicts: dict[tuple[int, int], str], a: int, b: int) -> bool | tuple[int, int]:
    """Whether a and b entail each other both ways by the known verdicts, or the
    pair that decides it next: (b, a) is needed only once (a, b) entails."""
    for pair in ((a, b), (b, a)):
        label = verdicts.get(pair)
        if label is None:
            return pair
        if label != ENTAILMENT:
            return False
    return True


def _chain(
    verdicts: dict[tuple[int, int], str], i: int, others: tuple[int, ...]
) -> list[tuple[int, int]]:
    """The unknown pairs of i's chain against ``others`` in order: every
    forward pair, and the reverse of the first forward entailment with it
    unknown, up to an other that i is known to entail both ways."""
    pairs: list[tuple[int, int]] = []
    reverse = True  # whether a reverse pair may still be sent
    for j in others:
        verdict = _two_way(verdicts, i, j)
        if verdict is True:
            break
        if verdict is not False and (verdict[0] == i or reverse):
            reverse = reverse and verdict[0] == i
            pairs.append(verdict)
    return pairs


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
    start, end = check_span(answer_span, len(context), "comparison text")
    answer_key = normalize_text(result.answer)
    if any(normalize_text(d) == answer_key for d in result.distractors):
        return False
    texts = [context[:start] + d + context[end:] for d in result.distractors]
    forward = [(a, b) for i, a in enumerate(texts) for b in texts[i + 1 :]]
    labels = classify_pairs(nli_backend, forward)
    reverse = [(b, a) for (a, b), label in zip(forward, labels) if label == ENTAILMENT]
    return ENTAILMENT not in classify_pairs(nli_backend, reverse)
