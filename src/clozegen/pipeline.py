"""End-to-end orchestration for one (context, answer span) request.

Plans the mask counts and branch width, decodes candidates for all sampled
counts in one lockstep call, merges and ranks them, then hands the ranked
list to the entailment-based selector. Entailment comparisons always run on the
sentence containing the answer, extracted from the original context.
"""

from __future__ import annotations

import random
import string
from dataclasses import asdict, dataclass

from .backends import MaskedLanguageModel, NliClassifier
from .data import extract_sentence
from .errors import ContractViolation, SpanError
from .generation import (
    Candidate,
    GenerationConfig,
    build_masked_context,
    decode_order,
    decode_plan,
    drop_answer_matches,
    generate_candidates,
    map_char_span,
    rank_candidates,
)
from .selection import DistractorSet, select_distractors

BLANK_MARKER = "_____"
OPTION_LETTERS = string.ascii_uppercase


@dataclass
class GenerationResult:
    distractor_set: DistractorSet
    all_candidates: list[Candidate]
    config_echo: GenerationConfig


@dataclass(frozen=True)
class RenderedCloze:
    """A presentable item: stem with a blank, shuffled options, answer key."""

    stem: str
    options: list[str]
    answer_index: int
    underfilled: bool

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
    """Run generation and selection for one answer span in a context."""
    start, end = answer_span
    if not (0 <= start < end <= len(context)) or not context[start:end].strip():
        raise SpanError(f"answer span ({start}, {end}) invalid for the given context")
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
    candidates = generate_candidates(mlm_backend, jobs, branch_width, config.avg)
    ranked = drop_answer_matches(rank_candidates(candidates), answer_text)

    sentence, sentence_span = extract_sentence(context, answer_span)
    distractor_set = select_distractors(
        nli_backend, sentence, answer_text, ranked, config.k, answer_span=sentence_span
    )

    return GenerationResult(
        distractor_set=distractor_set,
        all_candidates=ranked,
        config_echo=config,
    )


def render_cloze(
    context: str,
    answer_span: tuple[int, int],
    distractor_set: DistractorSet,
    shuffle_seed: int = 0,
) -> RenderedCloze:
    """Turn a generation result into a stem plus shuffled options, A to Z."""
    if not distractor_set.distractors:
        raise ContractViolation("cannot render a cloze item without distractors")
    if len(distractor_set.distractors) >= len(OPTION_LETTERS):
        raise ContractViolation(f"more than {len(OPTION_LETTERS)} options to letter")
    start, end = answer_span
    if not (0 <= start < end <= len(context)):
        raise SpanError(f"answer span ({start}, {end}) outside context")
    stem = context[:start] + BLANK_MARKER + context[end:]
    options = [distractor_set.answer] + list(distractor_set.distractors)
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
                "score_T": c.product_score,
                "probs": list(c.step_probabilities),
                "mask_count": c.source_mask_count,
            }
            for c in result.all_candidates
        ],
        "trace": [
            {"candidate": e.candidate, "stage": e.stage, "counterpart": e.counterpart}
            for e in result.distractor_set.trace
        ],
        "config": asdict(result.config_echo),
    }
