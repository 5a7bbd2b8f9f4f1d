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
undecided candidate, advances it over the verdicts known so far and
collects, for every candidate certain to be reached (its kept and undecided
predecessors number fewer than ``k``), the next pair its checks need; one
``classify_pairs`` call classifies them all. A candidate is pending while a
pair against the answer or a kept candidate is unknown, and waiting once it
has cleared those with an undecided (pending or waiting) one before it.
Decisions are read off the verdicts in scan order against the answer and
the kept candidates only, so they do not change; three rules send pairs
ahead of a one-pair-at-a-time scan:

- A candidate whose next pair is forward (its sentence first) also sends
  its next unknown forward pair against a kept candidate after that pair's
  counterpart.
- A wave's only pending candidate instead sends, whatever its pair, the
  rest of its chain: every unknown forward pair against a kept candidate
  after that pair's counterpart, and the first unknown reverse pair among
  them (one whose forward pair is known to entail), stopping at a kept
  candidate it is known to entail both ways.
- A waiting candidate walks the undecided candidates before it as if they
  were kept, stopping at the first it entails both ways, and sends its
  first unknown pair against one, plus, when that pair is forward, its next
  unknown forward pair against a later one.

The one-pair-at-a-time scan sends a pending candidate's extra pairs too
unless an earlier pair of its chain removes it, so that is their only
waste. A counterpart with an unknown forward pair removes it only when that pair and
its reverse both entail (about 9% of counterparts when each direction
entails 30% of the time), so forward pairs are seldom wasted. A counterpart
whose reverse pair is pending removes it whenever that pair entails (about
30%), which is why a reverse pair carries a forward one only for the lone
candidate, and why its chain holds one reverse pair: a second one is
wasted whenever the first entails. A waiting candidate has cleared the
answer and every kept candidate, so that scan also sends each of its pairs
unless their counterpart falls or, as above, an earlier pair removes the
candidate. So the classifier sees each pair of that scan once, plus the
lone candidate's chain, at most one pair per other pending candidate and
two per waiting candidate of the wave. On a real checkpoint a wasted pair
can still raise its batch's ``SequenceLengthError`` (unverified).

Every removal is recorded in an elimination trace, and
``verify_distractor_set`` audits a final set after the fact. Both send their
pairs through ``backends.classify_pairs``, which fails with ``BackendError``
unless a reply holds one of the three verdicts per pair.
"""

from __future__ import annotations

from typing import Iterable

from .backends import ENTAILMENT, NliClassifier, classify_pairs
from .errors import FrozenRecord, check_count, check_span
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
        object.__setattr__(self, "distractors", distractors)
        object.__setattr__(self, "answer", answer)
        object.__setattr__(self, "trace", [] if trace is None else trace)
        object.__setattr__(self, "underfilled", underfilled)


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
    iterable; one whose ``normalize_text`` form is blank, the answer's or an
    earlier text's is skipped as it is read. Each is read when the scan
    reaches past the ones already read with fewer than ``k`` kept or
    undecided, before that wave's pairs are sent, so the waves are those of
    a list and texts no wave reaches are never read. A candidate whose next
    pair is forward also sends its next unknown forward pair; a wave's lone
    pending candidate sends the rest of its chain, every unknown forward pair
    and the first unknown reverse one; each is wasted if an earlier pair
    removes the candidate. A candidate waiting behind an undecided one checks
    itself against the undecided ones before it as if they were kept, with
    the forward ride-along, a pair wasted if its counterpart falls. The trace
    lists answer-entailment removals first, then pairwise ones, each in rank
    order.
    """
    check_count("k", k, 1)
    start, end = check_span(answer_span, len(context), "comparison text")
    texts, sentences = [context[start:end]], [context]
    taken = {normalize_text(texts[0]), ""}
    unread = iter(candidates)
    verdicts: dict[tuple[str, str], str] = {}
    kept: list[int] = []
    removed: dict[int, int] = {}  # candidate -> counterpart, 0 for the answer
    first = 1  # first undecided candidate: every one before it is settled
    while True:
        # (candidate, pair, the counterparts after the pair's own in its chain)
        pending: list[tuple[int, tuple[str, str], list[int]]] = []
        waiting: list[tuple[int, tuple[str, str], list[int]]] = []
        undecided: list[int] = []  # pending and waiting candidates, in rank order
        i = first
        while len(kept) + len(undecided) < k:  # past k, the rest may never be reached
            if i == len(sentences):  # read one more candidate, if any is left
                text = next(unread, None)
                if text is None:
                    break
                key = normalize_text(text)
                if key in taken:  # blank, an answer copy or a repeat
                    continue
                taken.add(key)
                texts.append(text)
                sentences.append(context[:start] + text + context[end:])
            # behind an undecided candidate, i may never be reached either: a
            # pass or a pending pair counts it undecided; a removal is not recorded
            for n, j in enumerate((0, *kept)):
                verdict = _two_way(verdicts, sentences[i], sentences[j])
                if verdict is True:
                    if not undecided:
                        removed[i] = j
                    break
                if verdict is not False:
                    if not undecided:
                        first = i
                    pending.append((i, verdict, kept[n:]))
                    undecided.append(i)
                    break
            else:
                # waiting: its chain runs on over the undecided ones before it
                for n, j in enumerate(undecided):
                    verdict = _two_way(verdicts, sentences[i], sentences[j])
                    if verdict is not False:
                        if verdict is not True:
                            waiting.append((i, verdict, undecided[n + 1 :]))
                        break
                (undecided if undecided else kept).append(i)
            i += 1
        if not pending:
            break
        needed = []
        for owner, pair, later in pending + waiting:
            needed.append(pair)
            if owner == first and len(pending) == 1:
                needed += _chain(verdicts, sentences[owner], [sentences[c] for c in later])
            elif pair[0] == sentences[owner]:
                # a forward pair brings its owner's next forward pair against
                # a counterpart after the pair's own
                forward = [(sentences[owner], sentences[c]) for c in later]
                needed += [p for p in forward if p not in verdicts][:1]
        verdicts.update(zip(needed, classify_pairs(nli_backend, needed)))
    trace = [
        TraceEntry(texts[i], STAGES[j > 0], texts[j])
        for i, j in sorted(removed.items(), key=lambda item: (item[1] > 0, item[0]))
    ]
    return DistractorSet([texts[i] for i in kept], texts[0], trace, len(kept) < k)


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


def _chain(
    verdicts: dict[tuple[str, str], str], text: str, others: list[str]
) -> list[tuple[str, str]]:
    """The unknown pairs of text's chain against ``others`` in order: every
    forward pair, and the reverse of the first forward entailment with it
    unknown, up to an other that text is known to entail both ways."""
    pairs: list[tuple[str, str]] = []
    reverse = True  # whether a reverse pair may still be sent
    for other in others:
        verdict = _two_way(verdicts, text, other)
        if verdict is True:
            break
        if verdict is not False and (verdict[0] == text or reverse):
            reverse = reverse and verdict[0] == text
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
