"""End-to-end orchestration for one (context, answer span) request.

Plans the mask counts and branch width, then runs the entailment-based
selector over the candidates of all sampled counts as decoding hands them
over, best first, in one iterator: selection reads each candidate when its
scan reaches it, so decoding stops where selection does. Entailment
comparisons always run on the sentence containing the answer, extracted
from the original context.
"""

from __future__ import annotations

import random
import string

from .backends import MaskedLanguageModel, NliClassifier
from .data import extract_sentence, trim_span
from .errors import ContractViolation, FrozenRecord, check_span
from .generation import (
    GenerationConfig,
    build_masked_context,
    decode_order,
    decode_plan,
    generate_candidates,
    map_char_span,
    normalize_text,
    rank_candidates,
    score_candidate,
)
from .selection import DistractorSet, select_distractors

BLANK_MARKER = "_____"
OPTION_LETTERS = string.ascii_uppercase


class GenerationResult(FrozenRecord):
    """The selected distractors, the ranked candidates selection read (a prefix
    of the full ranking) and the config that produced them."""

    __slots__ = ("distractor_set", "all_candidates", "config_echo")


class RenderedCloze(FrozenRecord):
    """A presentable item: stem with a blank, shuffled options, answer key."""

    __slots__ = ("stem", "options", "answer_index", "underfilled")

    @property
    def answer_letter(self) -> str:
        return OPTION_LETTERS[self.answer_index]


def generate_distractors(
    context: str,
    answer_span: tuple[int, int],
    config: GenerationConfig,
    mlm_backend: MaskedLanguageModel,
    nli_backend: NliClassifier,
) -> GenerationResult:
    """Run generation and selection for one answer span in a context.

    The span is trimmed to its non-whitespace core first, so the answer text,
    its tokens, the comparison sentence and selection all read one span.
    Selection reads the texts of ``generate_candidates``' best-first
    iterator, each as its scan reaches it, with ``k`` candidates wanted;
    ``all_candidates`` ranks the ones it read.
    """
    answer_span = start, end = trim_span(context, answer_span)
    answer_text = context[start:end]

    tokens, token_span = map_char_span(mlm_backend, context, answer_span)
    counts, branch_width = decode_plan(config, token_span[1] - token_span[0])

    info = mlm_backend.info()
    jobs = []
    for count in counts:
        masked = build_masked_context(
            tokens, token_span, count, info.mask_token, info.max_sequence_length
        )
        jobs.append((masked, decode_order(config.strategy, count)))
    sentence, sentence_span = extract_sentence(context, answer_span)
    distractor_set = None

    def select(ranked):
        nonlocal distractor_set
        distractor_set = select_distractors(
            nli_backend, sentence, (c.text for c in ranked), config.k, sentence_span
        )

    candidates = generate_candidates(
        mlm_backend, jobs, branch_width, config.avg, consume=select, wanted=config.k
    )
    return GenerationResult(distractor_set, rank_candidates(candidates, answer_text), config)


def render_cloze(
    context: str,
    answer_span: tuple[int, int],
    distractor_set: DistractorSet,
    shuffle_seed: int = 0,
) -> RenderedCloze:
    """Turn a generation result into a stem plus shuffled options, A to Z.

    Options that read the same under ``normalize_text`` (a distractor that
    repeats the answer or another distractor) are a ContractViolation.
    """
    if not distractor_set.distractors:
        raise ContractViolation("cannot render a cloze item without distractors")
    if len(distractor_set.distractors) >= len(OPTION_LETTERS):
        raise ContractViolation(f"more than {len(OPTION_LETTERS)} options to letter")
    start, end = check_span(answer_span, len(context), "context")
    stem = context[:start] + BLANK_MARKER + context[end:]
    options = [distractor_set.answer] + list(distractor_set.distractors)
    if len({normalize_text(option) for option in options}) < len(options):
        raise ContractViolation(f"options {options!r} repeat one text")
    random.Random(shuffle_seed).shuffle(options)
    return RenderedCloze(
        stem=stem,
        options=options,
        answer_index=options.index(distractor_set.answer),
        underfilled=distractor_set.underfilled or len(options) < 4,
    )


def result_to_dict(result: GenerationResult) -> dict:
    """Wire format for a result."""
    return {
        "distractors": list(result.distractor_set.distractors),
        "candidates": [
            {
                "text": c.text,
                "rank_score": c.rank_score,
                "score_T": score_candidate(c.step_probabilities),
                "probs": list(c.step_probabilities),
                "mask_count": len(c.step_probabilities),
            }
            for c in result.all_candidates
        ],
        "trace": [
            {"candidate": e.candidate, "stage": e.stage, "counterpart": e.counterpart}
            for e in result.distractor_set.trace
        ],
        "config": {name: getattr(result.config_echo, name) for name in GenerationConfig.__slots__},
    }
