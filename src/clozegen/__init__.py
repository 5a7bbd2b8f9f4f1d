"""Distractor generation for extractive multiple-choice cloze questions.

A two-stage pipeline: a masked language model proposes candidate fills for
the blanked answer span (with variable-length masking and configurable
decode orders), then an entailment classifier eliminates candidates that
agree with the answer or with each other. Dataset loaders and ranking
metrics round out an offline evaluation harness; deterministic mock
backends make the whole surface testable without model weights.
"""

from .backends import (
    CONTRADICTION,
    ENTAILMENT,
    NEUTRAL,
    BackendInfo,
    MaskedLanguageModel,
    MockMaskedLM,
    MockNliClassifier,
    NliClassifier,
    TokenPrediction,
)
from .data import (
    ClozePassage,
    ClozeQuestion,
    ContextAnswerPair,
    PreparedContext,
    extract_sentence,
    fill_target,
    load_cloth,
    load_pairs,
    prepare_context,
)
from .errors import (
    BackendError,
    ClozegenError,
    ConfigError,
    ContractViolation,
    ParseError,
    ResolveError,
    SequenceLengthError,
    SpanError,
)
from .generation import (
    Candidate,
    GenerationConfig,
    MaskedContext,
    build_masked_context,
    decode_order,
    decode_plan,
    generate_candidates,
    rank_candidates,
    rank_score,
    score_candidate,
)
from .metrics import EvalItemResult, EvalReport, compute_item, evaluate_dataset
from .pipeline import (
    GenerationResult,
    RenderedCloze,
    generate_distractors,
    render_cloze,
    result_to_dict,
)
from .selection import DistractorSet, TraceEntry, select_distractors

__version__ = "0.1.0"
