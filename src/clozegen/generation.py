"""Candidate generation: masking, decode orders, pseudo-beam search, ranking.

The generator replaces an answer span with a run of mask tokens, decodes
the run with a masked LM under a chosen order, and ranks the resulting
strings by a length-normalized probability score. Search is deliberately
narrow: the first decoded position branches into ``k * m_s`` hypotheses,
every later position extends each hypothesis with its single most
probable fill, conditioning on everything already committed.

The contexts of all sampled mask counts are decoded together: the branch
(step 0) is one checked ``fill_masks`` call over every context, asking for
the ``k * m_s`` top fills, and every later pass is one call asking for one
fill per hypothesis it extends. Decoding is exact best-first: no finished
candidate can score above a hypothesis's ``bound``, so a finished candidate
scoring strictly above every live bound is certain of its rank and comes
out of one iterator, best first; a reader that stops early leaves the
hypotheses it never needed unfinished. Each pass extends every live
hypothesis whose bound reaches one floor, stated in
:func:`generate_candidates`. Drained, that floor is 0, so every pass
extends every live hypothesis and a request makes as many masked-LM passes
as its largest mask count.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from typing import Callable, Iterator, Sequence

from .backends import MaskedLanguageModel, fill_masks
from .errors import ContractViolation, FrozenRecord, SpanError, check_count, check_span

L2R = "l2r"
R2L = "r2l"
CTL = "ctl"
STRATEGIES = (L2R, R2L, CTL)

GEOMETRIC = "geometric"
HARMONIC = "harmonic"
AVERAGES = (GEOMETRIC, HARMONIC)


class GenerationConfig(FrozenRecord):
    """Knobs for one generation request.

    ``n_mask`` = 0 means "use the answer's token count". ``m_s`` = None
    is resolved per request by :func:`decode_plan`.
    """

    __slots__ = ("n_mask", "dispersion", "k", "m_s", "strategy", "avg", "seed")

    def __init__(
        self,
        n_mask: int = 0,
        dispersion: int = 1,
        k: int = 3,
        m_s: int | None = None,
        strategy: str = CTL,
        avg: str = GEOMETRIC,
        seed: int = 0,
    ):
        super().__init__(
            check_count("n_mask", n_mask, 0),
            check_count("dispersion", dispersion, 0),
            check_count("k", k, 1),
            m_s if m_s is None else check_count("m_s", m_s, 1),
            canonical_name(strategy, STRATEGIES, "strategy"),
            canonical_name(avg, AVERAGES, "average"),
            check_count("seed", seed, 0),
        )


def canonical_name(name: str, allowed: tuple[str, ...], what: str) -> str:
    """``name`` lowercased if that is one of ``allowed``, else a
    ContractViolation naming it as an unknown ``what``."""
    lowered = str(name).lower()
    if lowered not in allowed:
        raise ContractViolation(f"unknown {what} {name!r}; expected one of {allowed}")
    return lowered


class MaskedContext(FrozenRecord):
    """A token sequence whose answer span was replaced by mask tokens."""

    __slots__ = ("tokens", "mask_positions")

    def __init__(self, tokens: list[str], mask_positions: list[int]):
        if not mask_positions:
            raise ContractViolation("mask_positions must be nonempty")
        run = mask_positions
        if any(b - a != 1 for a, b in zip(run, run[1:])):
            raise ContractViolation("mask_positions must be contiguous ascending")
        if run[0] < 0 or run[-1] >= len(tokens):
            raise ContractViolation("mask_positions outside token sequence")
        if len({tokens[p] for p in run}) != 1:
            raise ContractViolation("all mask positions must hold the same mask token")
        super().__init__(tokens, mask_positions)


class Candidate(FrozenRecord):
    """One generated fill for a masked answer span.

    ``token_strings`` follow positional (textual) order while
    ``step_probabilities`` follow decode order, one per mask slot;
    ``rank_score`` is their length-normalized average under the request's
    ``avg`` (set once).
    """

    __slots__ = ("token_strings", "text", "step_probabilities", "rank_score")


def normalize_text(text: str) -> str:
    """Case-folded, whitespace-collapsed form used for dedup and matching."""
    return " ".join(text.lower().split())


def decode_plan(config: GenerationConfig, answer_token_count: int) -> tuple[list[int], int]:
    """Ascending mask counts to decode and the branch width for one request.

    The base count is ``n_mask``, or the answer's token count when ``n_mask``
    is 0. ``random.Random(seed)`` draws up to three distinct counts from
    ``[max(base - dispersion, 1), base + dispersion]``, so an interval of at
    most three counts is used whole. The branch width is ``k * m_s``; an
    unset ``m_s`` is 10 for a base count of 1 and 7 otherwise.
    """
    check_count("answer_token_count", answer_token_count, 1)
    base = config.n_mask or answer_token_count
    low, high = max(base - config.dispersion, 1), base + config.dispersion
    counts = random.Random(config.seed).sample(range(low, high + 1), min(3, high - low + 1))
    m_s = config.m_s if config.m_s is not None else (10 if base == 1 else 7)
    return sorted(counts), config.k * m_s


def map_char_span(
    backend: MaskedLanguageModel, context: str, answer_span: tuple[int, int]
) -> tuple[list[str], tuple[int, int]]:
    """Map a character span onto backend tokens.

    Prefers the backend's token offsets when the span lands exactly on
    token boundaries; otherwise re-tokenizes with the span isolated so the
    answer occupies whole tokens. Where several tokens share a character's
    offsets (byte-level pieces of one character), the span runs from the
    first of them to the last.
    """
    start, end = check_span(answer_span, len(context), "context")
    offsets = backend.tokenize_with_offsets(context)
    if offsets is not None:
        token_start = token_end = None
        for i, (_, tok_start, tok_end) in enumerate(offsets):
            if tok_start == start and token_start is None:
                token_start = i
            if tok_end == end:
                token_end = i + 1
        if token_start is not None and token_end is not None and token_start < token_end:
            return [tok for tok, _, _ in offsets], (token_start, token_end)

    before = backend.tokenize(context[:start]) if context[:start].strip() else []
    answer = backend.tokenize(context[start:end])
    after = backend.tokenize(context[end:]) if context[end:].strip() else []
    tokens = before + answer + after
    return tokens, (len(before), len(before) + len(answer))


def build_masked_context(
    context_tokens: list[str],
    answer_span: tuple[int, int],
    mask_count: int,
    mask_token: str,
    max_length: int,
) -> MaskedContext:
    """Replace the answer token span with ``mask_count`` mask tokens.

    The span is half-open ``[start, end)``; the mask count may differ from
    the span length (that is how dispersion produces variable-length
    candidates). Tokens outside the span are kept in order, all of them
    when the result fits in ``max_length``; otherwise only a window of
    ``max_length`` tokens around the mask run, split as evenly between the
    two sides as the context allows.
    """
    start, end = check_span(answer_span, len(context_tokens), f"{len(context_tokens)} tokens")
    check_count("mask_count", mask_count, 1)
    check_count("max_length", max_length, 1)
    left, right = start, len(context_tokens) - end  # tokens kept on each side
    if left + mask_count + right > max_length:
        if mask_count > max_length:
            raise SpanError(
                f"mask run of {mask_count} tokens cannot fit in window of {max_length}"
            )
        budget = max_length - mask_count
        left = min(budget // 2, start)
        right = min(budget - left, right)
        left = min(budget - right, start)
    tokens = list(context_tokens[start - left : start]) + [mask_token] * mask_count + list(
        context_tokens[end : end + right]
    )
    return MaskedContext(tokens, list(range(left, left + mask_count)))


def decode_order(strategy: str, mask_count: int) -> list[int]:
    """Order in which mask slots are decoded, as indices into the run.

    l2r counts up, r2l counts down, and ctl alternates between the two
    ends moving inward (0, m-1, 1, m-2, ...).
    """
    check_count("mask_count", mask_count, 1)
    strategy = canonical_name(strategy, STRATEGIES, "strategy")
    if strategy == L2R:
        return list(range(mask_count))
    if strategy == R2L:
        return list(range(mask_count - 1, -1, -1))
    order = []
    lo, hi = 0, mask_count - 1
    while lo <= hi:
        order.append(lo)
        if lo != hi:
            order.append(hi)
        lo += 1
        hi -= 1
    return order


def generate_candidates(
    backend: MaskedLanguageModel,
    jobs: Sequence[tuple[MaskedContext, list[int]]],
    branch_width: int,
    avg: str,
    consume: Callable[[Iterator[Candidate]], object] = list,
    wanted: int | None = None,
) -> list[Candidate]:
    """Branch-then-greedy decoding of several masked contexts, on demand.

    Each job is a masked context with its decode order; an empty ``jobs`` is
    a ``ContractViolation``. Step 0 fills the first position of every job's
    order in one ``fill_masks`` call and copies the job once per fill of its
    ``branch_width`` best. Every later pass is one ``fill_masks(top_k=1)``
    call that commits the top fill at the next position of some live
    hypotheses, queried on their partially filled tokens, so later steps
    condition on earlier commitments.

    ``consume`` is called once with an iterator of the candidates, best
    first, in ``rank_candidates``' order. Step 0 runs on its first read, so a
    reader that reads nothing makes no masked-LM call. A candidate comes out
    once its ``rank_score`` is strictly above the ``bound`` of every live
    hypothesis. Until then each pass extends every live hypothesis whose
    bound is at least the floor: the higher of the n-th best score of the
    finished candidates still held and the 2n-th best of those scores and the
    live hypotheses' estimates, each 0 while there are too few. n is
    ``wanted``, how many candidates the reader expects to take, less the
    candidates already out (at least 1); without ``wanted`` the floor is 0
    and every pass extends every live hypothesis. An estimate is the
    ``rank_score`` a hypothesis would finish with if every step it has left
    were as probable as its job's top first fill, capped at its bound. Some
    live bound always reaches the floor: where the 2n-th best is the higher,
    fewer than n of the 2n best are finished; otherwise the best held
    candidate is not out yet. So no pass is an empty batch, which
    ``fill_masks`` rejects. A floor too high costs passes, never order, since
    certification still checks every live bound. What this rule and earlier
    ones cost on the benchmark is in ROADMAP item 13 and ``BENCH_39.json``.
    The default ``consume``, ``list``, reads every candidate.

    A hypothesis with no prediction is dropped with a ``RuntimeWarning`` that
    names its position, mask count and decode step; one that is never
    extended is never warned about. A malformed reply is a
    ``BackendError`` (see ``fill_masks``). Returns the candidates that came
    out (each job's at most ``branch_width``, in first-step probability
    order; ``rank_score`` under ``avg``), jobs in input order.
    """
    avg = canonical_name(avg, AVERAGES, "average")
    jobs = list(jobs)
    if not jobs:
        raise ContractViolation("jobs must be nonempty")
    for ctx, order in jobs:
        slots = len(ctx.mask_positions)
        if sorted(order) != list(range(slots)):
            raise ContractViolation(
                f"order {order!r} is not a permutation of 0..{slots - 1}"
            )
    check_count("branch_width", branch_width, 1)
    if wanted is not None:
        check_count("wanted", wanted, 1)

    # A hypothesis is (origin, job, filled tokens, step probabilities, bound,
    # estimate); origin numbers the step-0 copies, so sorting by it gives job
    # then fill order. The estimate is min(rank_score of the steps so far and
    # the job's top step-0 probability for each step left, bound).
    serial = itertools.count()
    top: dict[int, float] = {}  # each job's top step-0 probability
    finished: list[tuple[int, Candidate]] = []  # held, best last
    out: list[tuple[int, Candidate]] = []

    def extend(hypotheses, top_k):
        """Fill the next position of each hypothesis in one ``fill_masks`` call;
        returns those still unfinished, finishing the rest into ``finished``."""
        queries = [
            (tokens, jobs[j][0].mask_positions[jobs[j][1][len(probs)]])
            for _, j, tokens, probs, _, _ in hypotheses
        ]
        unfinished = []
        replies = fill_masks(backend, queries, top_k)
        for (origin, j, tokens, probs, _, _), (_, position), preds in zip(
            hypotheses, queries, replies
        ):
            ctx, order = jobs[j]
            if not preds:
                warnings.warn(
                    f"backend returned no predictions at position {position} "
                    f"(mask count {len(order)}, decode step {len(probs)}); dropping hypothesis",
                    RuntimeWarning,
                )
            for pred in preds[:top_k]:
                filled = list(tokens)
                filled[position] = pred.token
                grown = probs + [pred.probability]
                origin = origin if probs else next(serial)
                top.setdefault(j, pred.probability)  # step 0's first fill is its top one
                steps_left = len(order) - len(grown)
                if steps_left:
                    limit = bound(grown, len(order), avg)
                    guess = rank_score(grown + [top[j]] * steps_left, avg)
                    unfinished.append((origin, j, filled, grown, limit, min(guess, limit)))
                else:
                    strings = [filled[p] for p in ctx.mask_positions]
                    text = backend.detokenize(strings)
                    score = rank_score(grown, avg)
                    finished.append((origin, Candidate(strings, text, grown, score)))
        finished.sort(key=lambda held: (_rank_key(held[1]), held[0]), reverse=True)
        return unfinished

    def best_first():
        unfilled = [(None, j, ctx.tokens, [], None, None) for j, (ctx, _) in enumerate(jobs)]
        live = extend(unfilled, branch_width)
        while finished or live:
            if finished and all(finished[-1][1].rank_score > h[4] for h in live):
                out.append(finished.pop())
                yield out[-1][1]
                continue
            n = max(1, wanted - len(out)) if wanted is not None else math.inf
            scores = sorted([h[5] for h in live] + [c.rank_score for _, c in finished])
            exact = finished[-n][1].rank_score if n <= len(finished) else 0.0
            floor = max(exact, scores[-2 * n] if 2 * n <= len(scores) else 0.0)
            live = sorted(
                [h for h in live if h[4] < floor] + extend([h for h in live if h[4] >= floor], 1),
                key=lambda h: h[0],
            )

    consume(best_first())
    return [c for _, c in sorted(out, key=lambda held: held[0])]


def bound(step_probabilities: list[float], mask_count: int, avg: str) -> float:
    """The highest ``rank_score`` a hypothesis with these step probabilities
    can reach once all ``mask_count`` steps are filled: every step left is
    scored as if its probability were 1.0.

    Both averages only grow with any one step's probability, so no finished
    candidate scores above this. It is never below the least probability so
    far: when every step repeats one probability, ``rank_score`` returns that
    constant exactly, and the padded mean may round one unit below it.
    """
    padded = step_probabilities + [1.0] * (mask_count - len(step_probabilities))
    return max(rank_score(padded, avg), min(step_probabilities))


def score_candidate(step_probabilities: list[float]) -> float:
    """Product of the per-step probabilities."""
    _check_probabilities(step_probabilities)
    return math.prod(step_probabilities)


def rank_score(step_probabilities: list[float], avg: str) -> float:
    """Length-normalized score comparable across candidate lengths.

    Geometric: r-th root of the probability product. Harmonic:
    r / sum(1/p). Constant inputs return that constant exactly (both
    means degenerate to it, so no rounding is introduced). Every step
    probability must be in (0, 1], as for :func:`score_candidate`.
    """
    avg = canonical_name(avg, AVERAGES, "average")
    _check_probabilities(step_probabilities)
    first = step_probabilities[0]
    if all(p == first for p in step_probabilities):
        return first
    r = len(step_probabilities)
    if avg == GEOMETRIC:
        return math.exp(math.fsum(map(math.log, step_probabilities)) / r)
    return r / math.fsum(1.0 / p for p in step_probabilities)


def _check_probabilities(values: list[float]) -> None:
    if not values:
        raise ContractViolation("step probabilities must be nonempty")
    for v in values:
        if not 0.0 < v <= 1.0:
            raise ContractViolation(f"step probability {v} outside (0, 1]")


def rank_candidates(candidates: list[Candidate], answer_text: str) -> list[Candidate]:
    """Merge candidates from all contexts into one ranked list, each text once.

    Candidates are sorted by their stored ``rank_score``, descending, with
    ties resolved toward the shorter mask count and then lexicographic
    text. Each case- and whitespace-insensitive text is kept at its first
    copy only; answer copies and blank fills are dropped.
    """
    taken = {normalize_text(answer_text), ""}
    ranked = []
    for c in sorted(candidates, key=_rank_key):
        key = normalize_text(c.text)
        if key not in taken:
            taken.add(key)
            ranked.append(c)
    return ranked


def _rank_key(c: Candidate) -> tuple[float, int, str]:
    return (-c.rank_score, len(c.step_probabilities), c.text)
