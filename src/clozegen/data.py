"""Dataset ingestion and context preparation.

Handles cloze passages in the public CLOTH JSON layout (an ``article``
string with ``_`` blanks plus parallel ``options``/``answers`` arrays),
JSON-lines (context, answer span) pairs, per-question context preparation
with passage/sentence input modes and model/gold blank prefilling, and a
rule-based sentence extractor used both for sentence-mode inputs and for
the sentence-level entailment comparisons.

Model prefill masks a blank through generation's own path
(``map_char_span`` then one windowed ``build_masked_context`` call), so a
blank glued to punctuation is masked like any answer span, and asks for
its fill through the checked ``backends.fill_masks``.
"""

from __future__ import annotations

import re
import warnings
from pathlib import Path
from typing import Iterator

from .backends import MaskedLanguageModel, fill_masks
from .errors import (
    BackendError, ConfigError, ContractViolation, FrozenRecord, ParseError, ResolveError,
    SpanError, check_count, check_span, read_field, read_json, read_json_lines,
)
from .generation import build_masked_context, map_char_span

BLANK_RE = re.compile(r"_+")
ANSWER_LETTERS = ("A", "B", "C", "D")

INPUT_PASSAGE = "passage"
INPUT_SENTENCE = "sentence"
INPUT_MODES = (INPUT_PASSAGE, INPUT_SENTENCE)

PREFILL_MODEL = "model"
PREFILL_GOLD = "gold"
PREFILL_NONE = "none"
PREFILL_MODES = (PREFILL_MODEL, PREFILL_GOLD, PREFILL_NONE)

# Trailing words whose period does not end a sentence.
_ABBREVIATIONS = {
    "mr", "mrs", "ms", "dr", "prof", "sr", "jr", "st", "mt", "no", "vol",
    "vs", "etc", "e.g", "i.e", "cf", "al", "inc", "ltd", "co", "fig", "approx",
    "u.s", "u.k", "a.m", "p.m",
}


class ClozeQuestion(FrozenRecord):
    """Gold answer plus the three human-authored distractors."""

    __slots__ = ("answer", "distractors")


class ClozePassage(FrozenRecord):
    """One passage whose blanks each correspond to a question, in order."""

    __slots__ = ("id", "text_with_blanks", "questions")

    def blank_spans(self) -> list[tuple[int, int]]:
        return [m.span() for m in BLANK_RE.finditer(self.text_with_blanks)]


class ContextAnswerPair(FrozenRecord):
    """A context with a non-blank character-level answer span, ready for generation."""

    __slots__ = ("id", "context", "answer_span")

    def __init__(self, id: str, context: str, answer_span: tuple[int, int]):
        start, end = check_span(answer_span, len(context), f"context of pair {id!r}")
        if context[start:end].isspace():
            raise SpanError(f"span ({start}, {end}) of pair {id!r} holds no text")
        super().__init__(id, context, answer_span)


class PreparedContext(FrozenRecord):
    """A passage reduced to a single unresolved blank (the target question).

    ``answer_span`` covers the remaining blank marker; substitute the gold
    answer with :func:`fill_target` to obtain generation input.
    """

    __slots__ = ("context", "answer_span")


def load_cloth(path: str | Path) -> Iterator[ClozePassage]:
    """CLOTH-format passages from one JSON file or a directory of them.

    Each file holds one passage: an article with one ``_`` blank per
    question, an options array of four strings per question, and an
    answers array of letters. The answer letter is resolved to its option
    text; the other three options become the gold distractors. A blank
    option, answer or distractor, is a ParseError. Files are
    parsed in name order, each only when its passage is taken from the
    returned iterator.
    """
    root = Path(path)
    if root.is_dir():
        files = sorted(root.glob("*.json"))
        if not files:
            raise ParseError(f"{root}: no .json files found")
    else:
        files = [root]
    return map(_parse_cloth_file, files)


def _parse_cloth_file(path: Path) -> ClozePassage:
    doc = read_json(path)
    article = read_field(doc, "article", str, path)
    options = read_field(doc, "options", [(str, str, str, str)], path)
    answers = read_field(doc, "answers", [str], path)
    if len(options) != len(answers):
        raise ParseError(
            f"{path}: 'options' has {len(options)} entries but 'answers' "
            f"has {len(answers)}"
        )
    blanks = len(BLANK_RE.findall(article))
    if not blanks:
        raise ParseError(f"{path}: 'article' has no blanks")
    if blanks != len(answers):
        raise ParseError(
            f"{path}: 'article' has {blanks} blanks but 'answers' has "
            f"{len(answers)} entries"
        )

    questions = []
    for i, (opts, letter) in enumerate(zip(options, answers)):
        if letter not in ANSWER_LETTERS:
            raise ParseError(f"{path}: answers[{i}] is {letter!r}, not one of A-D")
        idx = ANSWER_LETTERS.index(letter)
        if not opts[idx].strip():
            raise ParseError(f"{path}: options[{i}] has a blank answer option")
        if not all(opt.strip() for opt in opts):
            raise ParseError(f"{path}: options[{i}] has a blank distractor option")
        questions.append(ClozeQuestion(opts[idx], opts[:idx] + opts[idx + 1 :]))
    return ClozePassage(path.stem, article, questions)


def load_pairs(path: str | Path) -> list[ContextAnswerPair]:
    """Load JSON-lines (id, context, answer span) records.

    Each line carries either explicit ``answer_start``/``answer_end``
    character offsets or an ``answer_text`` whose first occurrence in the
    context resolves the span (a repeated occurrence emits a warning). A
    file without records is a ParseError.
    """
    pairs = []
    for lineno, where, record in read_json_lines(path):
        context = read_field(record, "context", str, where)
        pair_id = read_field(record, "id", str, where, f"pair-{lineno}")
        if "answer_start" in record or "answer_end" in record:
            span = (
                read_field(record, "answer_start", int, where),
                read_field(record, "answer_end", int, where),
            )
        elif "answer_text" in record:
            answer_text = read_field(record, "answer_text", str, where)
            if not answer_text:
                raise ParseError(f"{where}: field 'answer_text' is empty")
            start = context.find(answer_text)
            if start < 0:
                raise ResolveError(
                    f"{where}: answer_text {answer_text!r} not found in context"
                )
            if context.find(answer_text, start + 1) >= 0:
                warnings.warn(
                    f"{where}: answer_text occurs more than once; "
                    "using the first occurrence",
                    stacklevel=2,
                )
            span = (start, start + len(answer_text))
        else:
            raise ParseError(
                f"{where}: need 'answer_start'/'answer_end' or 'answer_text'"
            )
        try:
            pairs.append(ContextAnswerPair(id=pair_id, context=context, answer_span=span))
        except SpanError as exc:
            raise SpanError(f"{where}: {exc}") from exc
    if not pairs:
        raise ParseError(f"{path}: no records found")
    return pairs


def trim_span(text: str, span: tuple[int, int]) -> tuple[int, int]:
    """``span`` narrowed to its non-whitespace core.

    A span that ``check_span`` rejects, or one holding only whitespace, is a
    SpanError.
    """
    start, end = check_span(span, len(text), f"text of length {len(text)}")
    core = text[start:end]
    if not core.strip():
        raise SpanError(f"span ({start}, {end}) holds no text")
    return start + len(core) - len(core.lstrip()), end - len(core) + len(core.rstrip())


def extract_sentence(text: str, span: tuple[int, int]) -> tuple[str, tuple[int, int]]:
    """Return the sentence containing ``span`` and the span re-based into it.

    The span is first trimmed to its non-whitespace core (see
    :func:`trim_span`), so the returned span always lies in the returned
    sentence. Sentences are bounded by ., ! or ? followed by whitespace (or
    the text edges); periods after known abbreviations do not split. A span
    that straddles a boundary returns the union of the touched sentences and
    emits a warning.
    """
    start, end = trim_span(text, span)
    # every non-whitespace character lies in a segment, so one is touched
    touched = [(s, e) for s, e in _sentence_segments(text) if s < end and e > start]
    if len(touched) > 1:
        warnings.warn(
            "span straddles a sentence boundary; returning the sentence union",
            stacklevel=2,
        )
    union_start = touched[0][0]
    union_end = touched[-1][1]
    return text[union_start:union_end], (start - union_start, end - union_start)


def _sentence_segments(text: str) -> list[tuple[int, int]]:
    """Half-open character spans of sentences, leading whitespace trimmed."""
    breaks = []
    for match in re.finditer(r"[.!?]+", text):
        stop = match.end()
        if stop < len(text) and not text[stop].isspace():
            continue
        if match.group() == "." and _ends_with_abbreviation(text, match.start()):
            continue
        breaks.append(stop)
    if not breaks or breaks[-1] < len(text):
        breaks.append(len(text))
    segments = []
    cursor = 0
    for stop in breaks:
        chunk = text[cursor:stop]
        lead = len(chunk) - len(chunk.lstrip())
        if cursor + lead < stop:
            segments.append((cursor + lead, stop))
        cursor = stop
    return segments


def _ends_with_abbreviation(text: str, period_index: int) -> bool:
    # The word is the run of [\w.] characters ending at the period, or just
    # before a newline that directly precedes it (as regex ``$`` would match).
    end = period_index
    if text[end - 1 : end] == "\n":
        end -= 1
    start = end
    while start > 0 and (text[start - 1].isalnum() or text[start - 1] in "._"):
        start -= 1
    if start == end:
        return False
    word = text[start:end].rstrip(".").lower()
    if word in _ABBREVIATIONS:
        return True
    # single-letter initials such as "J." in "J. Smith"
    return len(word) == 1 and word.isalpha() and text[end - 1].isupper()


def prepare_context(
    passage: ClozePassage,
    question_index: int,
    input_mode: str,
    prefill_mode: str,
    mlm_backend: MaskedLanguageModel | None = None,
) -> PreparedContext:
    """Resolve every blank except the target question's.

    Non-target blanks are spliced with gold answers or with the backend's
    top-1 fill committed left to right; text outside blank spans is never
    touched. Sentence mode then narrows the result to the sentence holding
    the target blank, and fills no blank that starts past that sentence's
    end, since no such fill can reach it.
    """
    if input_mode not in INPUT_MODES:
        raise ContractViolation(f"unknown input_mode {input_mode!r}")
    if prefill_mode not in PREFILL_MODES:
        raise ContractViolation(f"unknown prefill_mode {prefill_mode!r}")
    blanks = passage.blank_spans()
    if check_count("question_index", question_index, 0) >= len(blanks):
        raise ContractViolation(f"question_index {question_index} outside 0..{len(blanks) - 1}")
    if prefill_mode == PREFILL_MODEL and mlm_backend is None:
        raise ConfigError("prefill_mode 'model' requires an MLM backend")

    text = passage.text_with_blanks
    target_span = blanks[question_index]
    if prefill_mode != PREFILL_NONE:
        shift = 0
        for i, (bstart, bend) in enumerate(blanks):
            bstart += shift
            bend += shift
            if i == question_index:
                target_span = (bstart, bend)
                continue
            if i > question_index and input_mode == INPUT_SENTENCE:
                # whitespace follows the break that ends the target's sentence,
                # so no fill past that break can move it
                sentence_end = next(e for _, e in _sentence_segments(text) if e > target_span[0])
                if bstart > sentence_end:
                    break
            if prefill_mode == PREFILL_GOLD:
                filling = passage.questions[i].answer
            else:
                filling = _model_fill(mlm_backend, text, (bstart, bend))
            text = text[:bstart] + filling + text[bend:]
            shift += len(filling) - (bend - bstart)
    if input_mode == INPUT_SENTENCE:
        text, target_span = extract_sentence(text, target_span)
    return PreparedContext(context=text, answer_span=target_span)


def _model_fill(backend: MaskedLanguageModel, text: str, blank: tuple[int, int]) -> str:
    """Top-1 fill for one blank, masked the way generation masks an answer."""
    info = backend.info()
    tokens, span = map_char_span(backend, text, blank)
    masked = build_masked_context(tokens, span, 1, info.mask_token, info.max_sequence_length)
    (predictions,) = fill_masks(backend, [(masked.tokens, masked.mask_positions[0])], 1)
    if not predictions:
        raise BackendError("backend returned no predictions for prefill")
    return backend.detokenize([predictions[0].token])


def fill_target(prepared: PreparedContext, answer_text: str) -> tuple[str, tuple[int, int]]:
    """Substitute the gold answer into the remaining blank.

    Returns the generation-ready context and the answer's character span.
    """
    if not answer_text:
        raise ContractViolation("answer_text must be nonempty")
    start, end = check_span(prepared.answer_span, len(prepared.context), "prepared context")
    context = prepared.context[:start] + answer_text + prepared.context[end:]
    return context, (start, start + len(answer_text))
