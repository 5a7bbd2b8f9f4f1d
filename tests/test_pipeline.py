import argparse
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

from clozegen.backends import (
    CONTRADICTION,
    ENTAILMENT,
    NEUTRAL,
    BackendInfo,
    MaskedLanguageModel,
    MockMaskedLM,
    MockNliClassifier,
    NliClassifier,
)
from clozegen.data import (
    ClozePassage, ClozeQuestion, ContextAnswerPair, PreparedContext, extract_sentence, fill_target,
    prepare_context, trim_span,
)
from clozegen.errors import ContractViolation, SpanError
from clozegen.cli import run_evaluate
from clozegen.generation import (
    GenerationConfig,
    MaskedContext,
    build_masked_context,
    decode_order,
    decode_plan,
    generate_candidates,
    rank_score,
)
from clozegen.pipeline import (
    generate_distractors,
    map_char_span,
    render_cloze,
    result_to_dict,
)
from clozegen.selection import DistractorSet, select_distractors, verify_distractor_set

from tests.conftest import CountingMLM, CountingNli, table_entry
from tests.oracles import whole_request_oracle

# --- scripted end-to-end scenario (expected values worked out by hand) ------

CONTEXT = "The boy will open the door. Then he waits."
ANSWER_SPAN = (13, 17)
SENTENCE = "The boy will open the door."

ONE_MASK = "The boy will [MASK] the door. Then he waits."
TWO_MASK = "The boy will [MASK] [MASK] the door. Then he waits."
AFTER_SLAM = "The boy will slam [MASK] the door. Then he waits."
AFTER_FORCE = "The boy will force [MASK] the door. Then he waits."

SHUT_V = "The boy will shut the door."
SLAM_V = "The boy will slam shut the door."


def golden_backends():
    table = dict(
        [
            table_entry(ONE_MASK.split(), 3, [("open", 0.9), ("shut", 0.8), ("lock", 0.6)]),
            table_entry(TWO_MASK.split(), 3, [("slam", 0.9), ("force", 0.7)]),
            table_entry(AFTER_SLAM.split(), 4, [("shut", 0.95)]),
            table_entry(AFTER_FORCE.split(), 4, [("ajar", 0.5)]),
        ]
    )
    mlm = MockMaskedLM(table=table)
    nli = MockNliClassifier(
        table={
            (SHUT_V, SENTENCE): ENTAILMENT,  # reverse stays neutral: retained
            (SHUT_V, SLAM_V): ENTAILMENT,
            (SLAM_V, SHUT_V): ENTAILMENT,
        }
    )
    return mlm, nli


GOLDEN_CONFIG = GenerationConfig(
    n_mask=0, dispersion=1, k=2, m_s=1, strategy="l2r", avg="geometric", seed=0
)


def test_generate_distractors_golden_scenario():
    mlm, nli = golden_backends()
    result = generate_distractors(CONTEXT, ANSWER_SPAN, GOLDEN_CONFIG, mlm, nli)

    # ranked candidates: the verbatim answer is gone, lengths compete fairly
    texts = [c.text for c in result.all_candidates]
    assert texts == ["slam shut", "shut", "force ajar"]
    by_text = {c.text: c for c in result.all_candidates}
    assert by_text["slam shut"].step_probabilities == [0.9, 0.95]
    assert by_text["slam shut"].rank_score == pytest.approx(math.sqrt(0.855), abs=1e-9)
    assert by_text["shut"].rank_score == pytest.approx(0.8)
    assert by_text["force ajar"].step_probabilities == [0.7, 0.5]
    assert by_text["force ajar"].rank_score == pytest.approx(math.sqrt(0.35), abs=1e-9)
    # the wire derives each candidate's product and mask count from its probabilities
    wire = result_to_dict(result)["candidates"]
    assert [(c["score_T"], c["mask_count"]) for c in wire] == [
        (math.prod(c["probs"]), len(c["probs"])) for c in wire
    ]
    assert wire[0]["score_T"] == pytest.approx(0.855, abs=1e-12)
    assert wire[0]["mask_count"] == 2

    # selection: "shut" mutually entails "slam shut" and is the lower-ranked
    assert result.distractor_set.distractors == ["slam shut", "force ajar"]
    assert result.distractor_set.underfilled is False
    trace = result.distractor_set.trace
    assert [(e.candidate, e.stage, e.counterpart) for e in trace] == [
        ("shut", "pairwise-entailment", "slam shut")
    ]
    assert result.config_echo == GOLDEN_CONFIG
    assert set(result.distractor_set.distractors) <= {c.text for c in result.all_candidates}


def test_generate_distractors_deterministic_serialization():
    mlm, nli = golden_backends()
    first = generate_distractors(CONTEXT, ANSWER_SPAN, GOLDEN_CONFIG, mlm, nli)
    second = generate_distractors(CONTEXT, ANSWER_SPAN, GOLDEN_CONFIG, mlm, nli)
    assert json.dumps(result_to_dict(first)) == json.dumps(result_to_dict(second))


def test_result_dict_schema():
    mlm, nli = golden_backends()
    payload = result_to_dict(generate_distractors(CONTEXT, ANSWER_SPAN, GOLDEN_CONFIG, mlm, nli))
    assert set(payload) == {"distractors", "candidates", "trace", "config"}
    candidate = payload["candidates"][0]
    assert set(candidate) == {"text", "rank_score", "score_T", "probs", "mask_count"}
    assert payload["config"] == {
        "n_mask": 0,
        "dispersion": 1,
        "k": 2,
        "m_s": 1,
        "strategy": "l2r",
        "avg": "geometric",
        "seed": 0,
    }
    entry = payload["trace"][0]
    assert set(entry) == {"candidate", "stage", "counterpart"}


class BatchOnlyNli(NliClassifier):
    """Answers every batch from a table (neutral when absent); a single-pair
    ``classify_nli`` call fails the test."""

    def __init__(self, table):
        self.table = table

    def classify_nli(self, premise, hypothesis):
        raise AssertionError(f"classify_nli({premise!r}, {hypothesis!r}) called")

    def classify_nli_batch(self, pairs):
        return [self.table.get(pair, NEUTRAL) for pair in pairs]


def test_selection_and_audit_use_only_batch_nli_calls():
    mlm, nli = golden_backends()
    batch_only = BatchOnlyNli(nli.table)
    result = generate_distractors(CONTEXT, ANSWER_SPAN, GOLDEN_CONFIG, mlm, batch_only)
    chosen = result.distractor_set
    assert chosen.distractors == ["slam shut", "force ajar"]
    assert verify_distractor_set(batch_only, SENTENCE, chosen, ANSWER_SPAN)
    entailing = DistractorSet(["slam shut", "shut"], chosen.answer)
    assert not verify_distractor_set(batch_only, SENTENCE, entailing, ANSWER_SPAN)


class BatchOnlyMLM(CountingMLM):
    """Answers every batch from the wrapped mock; a single-query ``fill_mask``
    call fails the test."""

    def fill_mask(self, tokens, mask_position, top_k):
        raise AssertionError(f"fill_mask({tokens!r}, {mask_position}, {top_k}) called")

    def fill_mask_batch(self, queries, top_k):
        return self.inner.fill_mask_batch(queries, top_k)


def test_generation_and_prefill_use_only_batch_mlm_calls():
    mlm, nli = golden_backends()
    result = generate_distractors(CONTEXT, ANSWER_SPAN, GOLDEN_CONFIG, BatchOnlyMLM(mlm), nli)
    expected = generate_distractors(CONTEXT, ANSWER_SPAN, GOLDEN_CONFIG, mlm, nli)
    assert result_to_dict(result) == result_to_dict(expected)
    passage = ClozePassage("p", "the _ sat on _ mat.", [ClozeQuestion("a", ["b"])] * 2)
    mlm = MockMaskedLM(vocabulary=["cat", "the", "a"], fallback="seeded", salt=5)
    for qi in range(2):
        prepared = prepare_context(passage, qi, "passage", "model", BatchOnlyMLM(mlm))
        assert prepared == prepare_context(passage, qi, "passage", "model", mlm)


def test_selection_that_stops_early_leaves_hypotheses_undecoded():
    mlm, nli = golden_backends()
    # "force" has no continuation: extending it would drop it with a warning
    del mlm.table[(AFTER_FORCE, 4)]
    config = GenerationConfig(n_mask=0, dispersion=1, k=1, m_s=2, strategy="l2r", seed=0)
    lazy = CountingMLM(mlm)
    result = generate_distractors(CONTEXT, ANSWER_SPAN, config, lazy, nli)
    assert result.distractor_set.distractors == ["slam shut"]
    assert [c.text for c in result.all_candidates] == ["slam shut"]
    # after the branch one pass extended "slam", the one hypothesis whose bound
    # reached "open" (0.9); "slam shut" then scored above "force"'s bound
    assert lazy.batches == [(2, 2), (1, 1)]

    drained = CountingMLM(mlm)
    jobs = [
        (build_masked_context(CONTEXT.split(), (3, 4), count, "[MASK]", 512), list(range(count)))
        for count in (1, 2)
    ]
    with pytest.warns(RuntimeWarning, match="decode step 1"):
        everything = generate_candidates(drained, jobs, 2, "geometric")
    assert [c.text for c in everything] == ["open", "shut", "slam shut"]
    assert len(lazy.calls) == 3 < len(drained.calls) == 4


def test_average_switch_changes_order_not_set():
    mlm, nli = golden_backends()
    geo = generate_distractors(CONTEXT, ANSWER_SPAN, GOLDEN_CONFIG, mlm, nli)
    har_config = GenerationConfig(
        n_mask=0, dispersion=1, k=2, m_s=1, strategy="l2r", avg="harmonic", seed=0
    )
    har = generate_distractors(CONTEXT, ANSWER_SPAN, har_config, mlm, nli)
    assert {c.text for c in geo.all_candidates} == {c.text for c in har.all_candidates}
    for config, result in ((GOLDEN_CONFIG, geo), (har_config, har)):
        for c in result.all_candidates:
            assert c.rank_score == rank_score(c.step_probabilities, config.avg)


class HashNli(NliClassifier):
    """Verdict from a salted hash of the ordered pair: entailment for about
    half of the pairs in each direction, so about a quarter entail both ways."""

    def __init__(self, salt):
        self.salt = salt

    def classify_nli(self, premise, hypothesis):
        self._check_pair(premise, hypothesis)
        digest = hashlib.sha256(f"{self.salt}|{premise}|{hypothesis}".encode()).digest()
        return (ENTAILMENT, ENTAILMENT, NEUTRAL, CONTRADICTION)[digest[0] % 4]


FILLER = "we saw the cat sit on a mat then rain came down hard".split()
FILL_WORDS = ["red", "Red", "door", "old", "blue", "the", "RED", "", " "]


def _oracle_request(rnd):
    """A short multi-sentence context whose answer is made of fill words, so
    fills copy the answer and repeat each other up to case."""
    sentences = [
        " ".join(rnd.choices(FILLER, k=rnd.randint(2, 6))) + "."
        for _ in range(rnd.randint(1, 3))
    ]
    target = rnd.randrange(len(sentences) + 1)
    answer = " ".join(rnd.choices(FILL_WORDS[:4], k=rnd.randint(1, 3)))
    words = rnd.choices(FILLER, k=rnd.randint(0, 4))
    tail = rnd.choices(FILLER, k=rnd.randint(1, 3))  # keeps the period off the answer
    left = " ".join(sentences[:target] + words)
    sentence_start = len(" ".join(sentences[:target])) + (1 if target else 0)
    start = len(left) + (1 if left else 0)
    context = " ".join(sentences[:target] + words + [answer] + tail) + "."
    sentence_end = len(context)
    if sentences[target:]:
        context += " " + " ".join(sentences[target:])
    return context, (start, start + len(answer)), (sentence_start, sentence_end)


def test_generate_distractors_matches_the_whole_request_oracle():
    rnd = random.Random(2024)
    grid = itertools.product(("geometric", "harmonic"), ("l2r", "r2l", "ctl"), (0, 1, 2))
    reached, shortened = set(), 0
    for (avg, strategy, dispersion), _ in itertools.product(grid, range(6)):
        context, span, bounds = _oracle_request(rnd)
        config = GenerationConfig(
            n_mask=rnd.choice([0, 0, 1, 2, 3]),
            dispersion=dispersion,
            k=rnd.randint(1, 4),
            m_s=rnd.choice([None, 1, 2]),
            strategy=strategy,
            avg=avg,
            seed=rnd.randrange(100),
        )
        mlm = MockMaskedLM(vocabulary=FILL_WORDS, fallback="seeded", salt=rnd.randrange(1000))
        nli = HashNli(rnd.randrange(1000))
        where = (context, span, config)
        ranked, expected = whole_request_oracle(mlm, nli, context, span, bounds, config)
        result = generate_distractors(context, span, config, mlm, nli)
        got = result.all_candidates
        # selection pulled a prefix of the oracle's ranking, holding every
        # candidate it kept or removed
        read = set(result.distractor_set.distractors)
        read.update(e.candidate for e in result.distractor_set.trace)
        assert read <= {c.text for c in got}, where
        shortened += len(got) < len(ranked)
        ranked = ranked[: len(got)]
        assert [c.text for c in got] == [c[0] for c in ranked], where
        assert [c.step_probabilities for c in got] == [c[2] for c in ranked], where
        wire = result_to_dict(result)["candidates"]
        assert [c["mask_count"] for c in wire] == [c[3] for c in ranked], where
        assert [c["score_T"] for c in wire] == [math.prod(c[2]) for c in ranked], where
        for c, (_, score, _, _) in zip(got, ranked):
            assert abs(c.rank_score - score) <= 1e-12, where
        chosen = result.distractor_set
        assert chosen.distractors == expected.distractors, where
        assert chosen.underfilled is expected.underfilled, where
        assert chosen.trace == expected.trace, where
        reached.update(e.stage for e in chosen.trace)
    assert reached == {"answer-entailment", "pairwise-entailment"}
    assert shortened, "no request stopped reading before the last candidate"


def test_default_config_is_best_reported_setup():
    config = GenerationConfig()
    assert config.n_mask == 0
    assert config.dispersion == 1
    assert config.strategy == "ctl"
    assert config.avg == "geometric"


@pytest.mark.parametrize(
    "fields",
    [{"k": 2.5}, {"n_mask": 1.0}, {"dispersion": 0.5}, {"m_s": 1.5}, {"seed": True}],
    ids=["k", "n_mask", "dispersion", "m_s", "seed"],
)
def test_config_rejects_non_integer_counts(fields):
    with pytest.raises(ContractViolation, match="must be an integer"):
        GenerationConfig(**fields)


# Every count the library and the CLI take: (call with the count, its name, its least value).
COUNT_SITES = {
    "config-n_mask": (lambda n: GenerationConfig(n_mask=n), "n_mask", 0),
    "config-dispersion": (lambda n: GenerationConfig(dispersion=n), "dispersion", 0),
    "config-k": (lambda n: GenerationConfig(k=n), "k", 1),
    "config-m_s": (lambda n: GenerationConfig(m_s=n), "m_s", 1),
    "config-seed": (lambda n: GenerationConfig(seed=n), "seed", 0),
    "select_distractors-k": (
        lambda n: select_distractors(MockNliClassifier(), CONTEXT, ["shut"], n, ANSWER_SPAN),
        "k",
        1,
    ),
    "decode_plan": (lambda n: decode_plan(GenerationConfig(), n), "answer_token_count", 1),
    "build_masked_context": (
        lambda n: build_masked_context(["a", "b"], (0, 1), n, "[MASK]", 8), "mask_count", 1
    ),
    "build_masked_context-max_length": (
        lambda n: build_masked_context(["a", "b"], (0, 1), 1, "[MASK]", n), "max_length", 1
    ),
    "prepare_context-question_index": (
        lambda n: prepare_context(
            ClozePassage("p", "the _ sat on _ mat.", [ClozeQuestion("a", ["b"])] * 2),
            n,
            "passage",
            "none",
        ),
        "question_index",
        0,
    ),
    "decode_order": (lambda n: decode_order("l2r", n), "mask_count", 1),
    "generate_candidates": (
        lambda n: generate_candidates(
            MockMaskedLM(vocabulary=["x"]), [(MaskedContext(["[MASK]"], [0]), [0])], n, "geometric"
        ),
        "branch_width",
        1,
    ),
    "generate_candidates-wanted": (
        lambda n: generate_candidates(
            MockMaskedLM(vocabulary=["x"]),
            [(MaskedContext(["[MASK]"], [0]), [0])],
            1,
            "geometric",
            wanted=n,
        ),
        "wanted",
        1,
    ),
    "fill_mask-top_k": (
        lambda n: MockMaskedLM(vocabulary=["x"]).fill_mask(["[MASK]"], 0, n), "top_k", 1
    ),
    "backend_info": (lambda n: BackendInfo("n", n, "[MASK]"), "max_sequence_length", 1),
    "evaluate-limit": (lambda n: run_evaluate(argparse.Namespace(limit=n)), "--limit", 1),
}


@pytest.mark.parametrize("value", [2.0, True, "below"])
@pytest.mark.parametrize("site", list(COUNT_SITES))
def test_every_count_is_an_integer_at_or_above_its_bound(site, value):
    call, name, low = COUNT_SITES[site]
    if value == "below":
        value, message = low - 1, f"{name} must be >= {low}"
    else:
        message = f"{name} must be an integer, not {value!r}"
    with pytest.raises(ContractViolation) as raised:
        call(value)
    assert str(raised.value) == message


# Every span the library takes: (call with the span, a span whose bounds fit).
SPAN_SITES = {
    "ContextAnswerPair": (lambda span: ContextAnswerPair("p", CONTEXT, span), ANSWER_SPAN),
    "select_distractors": (
        lambda span: select_distractors(MockNliClassifier(), SENTENCE, ["shut"], 1, span),
        ANSWER_SPAN,
    ),
    "verify_distractor_set": (
        lambda span: verify_distractor_set(
            MockNliClassifier(), SENTENCE, DistractorSet(["shut"], "open"), span
        ),
        ANSWER_SPAN,
    ),
    "trim_span": (lambda span: trim_span(CONTEXT, span), ANSWER_SPAN),
    "extract_sentence": (lambda span: extract_sentence(CONTEXT, span), ANSWER_SPAN),
    "generate_distractors": (
        lambda span: generate_distractors(CONTEXT, span, GOLDEN_CONFIG, *golden_backends()),
        ANSWER_SPAN,
    ),
    "render_cloze": (
        lambda span: render_cloze(CONTEXT, span, DistractorSet(["shut"], "open")), ANSWER_SPAN
    ),
    "build_masked_context": (
        lambda span: build_masked_context(["a", "b", "c"], span, 1, "[MASK]", 8), (1, 2)
    ),
    "fill_target": (lambda span: fill_target(PreparedContext(CONTEXT, span), "shut"), ANSWER_SPAN),
    "map_char_span": (lambda span: map_char_span(MockMaskedLM(), CONTEXT, span), ANSWER_SPAN),
}


@pytest.mark.parametrize("bound", ["float-start", "float-end", "bool-start"])
@pytest.mark.parametrize("site", list(SPAN_SITES))
def test_every_span_bound_is_an_integer(site, bound):
    call, (start, end) = SPAN_SITES[site]
    span = {
        "float-start": (float(start), end),
        "float-end": (start, end + 0.5),
        "bool-start": (True, end),  # inside the text, but a bool is not an int
    }[bound]
    with pytest.raises(SpanError) as raised:
        call(span)
    assert str(raised.value) == f"span bounds must be integers, not {span!r}"


@pytest.mark.parametrize(
    "call, span, what",
    [
        (lambda span: fill_target(PreparedContext("abc", span), "x"), (5, 9), "prepared context"),
        (lambda span: fill_target(PreparedContext("abc", span), "x"), (2, 1), "prepared context"),
        (lambda span: map_char_span(MockMaskedLM(), "open the door", span), (5, 99), "context"),
    ],
    ids=["fill_target-past-the-end", "fill_target-backwards", "map_char_span-past-the-end"],
)
def test_fill_target_and_map_char_span_reject_a_span_outside_their_text(call, span, what):
    # unchecked, these splice past the end, splice backwards and map onto a truncated span
    with pytest.raises(SpanError) as raised:
        call(span)
    assert str(raised.value) == f"span {span} outside {what}"


def test_resolve_search_multiplier_defaults():
    assert decode_plan(GenerationConfig(), 1)[1] == 3 * 10
    assert decode_plan(GenerationConfig(), 2)[1] == 3 * 7
    assert decode_plan(GenerationConfig(m_s=4), 1)[1] == 3 * 4


def test_map_char_span_aligned_and_subtoken():
    mlm = MockMaskedLM()
    tokens, span = map_char_span(mlm, "open the door", (0, 4))
    assert tokens == ["open", "the", "door"]
    assert span == (0, 1)
    # sub-token boundary: the span is isolated into its own token
    tokens, span = map_char_span(mlm, "reopen the door", (2, 6))
    assert tokens == ["re", "open", "the", "door"]
    assert span == (1, 2)
    # multi-token answers map to a token range
    tokens, span = map_char_span(mlm, "shut the door now", (0, 12))
    assert span == (0, 3)


def test_map_char_span_without_offset_support():
    class NoOffsets(MockMaskedLM):  # keeps the contract's default: no offsets
        tokenize_with_offsets = MaskedLanguageModel.tokenize_with_offsets

    assert NoOffsets().tokenize_with_offsets("open the door") is None
    tokens, span = map_char_span(NoOffsets(), "open the door", (0, 4))
    assert tokens == ["open", "the", "door"]
    assert span == (0, 1)
    tokens, span = map_char_span(NoOffsets(), "reopen the door", (2, 6))
    assert tokens == ["re", "open", "the", "door"]
    assert span == (1, 2)


def test_map_char_span_starts_at_the_first_piece_of_a_split_character():
    class BytePieces(MockMaskedLM):
        """Splits "é" into two tokens sharing its offsets, as byte-level BPE does."""

        def tokenize_with_offsets(self, text):
            pieces = []
            for token, start, end in super().tokenize_with_offsets(text):
                if token.startswith("é"):
                    pieces += [("Ã", start, start + 1), ("©", start, start + 1)]
                    token, start = token[1:], start + 1
                pieces.append((token, start, end))
            return pieces

    context = "we ate an éclair today"
    start = context.index("éclair")
    tokens, span = map_char_span(BytePieces(), context, (start, start + 6))
    assert tokens == ["we", "ate", "an", "Ã", "©", "clair", "today"]
    assert span == (3, 6)


def test_generate_distractors_span_validation():
    mlm, nli = golden_backends()
    with pytest.raises(SpanError):
        generate_distractors(CONTEXT, (0, 0), GOLDEN_CONFIG, mlm, nli)
    with pytest.raises(SpanError):
        generate_distractors(CONTEXT, (0, 10_000), GOLDEN_CONFIG, mlm, nli)


@pytest.mark.parametrize(
    "context, span, sentence, answer",
    [
        ("Hello there. open the door.", (12, 17), "open the door.", "open"),
        ("Hello there. Next one.", (6, 13), "Hello there.", "there."),
        ("Please open the door.", (6, 11), "Please open the door.", "open"),
    ],
)
def test_generate_distractors_trims_a_whitespace_edged_span(context, span, sentence, answer):
    nli = CountingNli(MockNliClassifier())
    mlm = MockMaskedLM(vocabulary=["cat", "dog", "red"])
    result = generate_distractors(context, span, GenerationConfig(k=3), mlm, nli)
    assert result.distractor_set.answer == answer
    assert result.distractor_set.distractors
    # every NLI sentence is the answer's sentence with one fill in the answer's place
    before, _, after = sentence.partition(answer)
    fills = [answer] + [c.text for c in result.all_candidates]
    assert nli.calls
    assert {s for pair in nli.calls for s in pair} <= {before + f + after for f in fills}


@pytest.mark.parametrize(
    "context, span, vocabulary, distractors",
    [
        ("The cat sat.", (4, 7), ["dog", " "], ["dog"]),
        # the answer is its whole sentence, so a blank fill would be an empty premise
        ("Go!", (0, 3), ["", "Run!"], ["Run!"]),
    ],
)
def test_generate_distractors_never_offers_a_blank_fill(context, span, vocabulary, distractors):
    mlm = MockMaskedLM(vocabulary=vocabulary)
    config = GenerationConfig(n_mask=1, dispersion=0, k=3)
    result = generate_distractors(context, span, config, mlm, MockNliClassifier())
    assert result.distractor_set.distractors == distractors
    assert [c.text for c in result.all_candidates] == distractors


def test_generate_distractors_whole_context_span():
    mlm = MockMaskedLM(vocabulary=["a", "b", "c"])
    nli = MockNliClassifier()
    config = GenerationConfig(n_mask=0, dispersion=0, k=2, m_s=1, seed=0)
    result = generate_distractors("open sesame", (0, 11), config, mlm, nli)
    assert result.all_candidates  # degenerate all-mask context still decodes


def test_generate_distractors_windows_long_contexts():
    mlm = CountingMLM(MockMaskedLM(vocabulary=["x", "y"], max_sequence_length=5))
    nli = MockNliClassifier()
    context = "w1 w2 w3 w4 w5 target w6 w7 w8 w9"
    start = context.index("target")
    config = GenerationConfig(n_mask=0, dispersion=0, k=1, m_s=2, seed=0)
    result = generate_distractors(context, (start, start + 6), config, mlm, nli)
    assert result.all_candidates
    assert all(len(fp.split()) <= 5 for fp, _, _ in mlm.calls)


def test_generate_distractors_empty_backend_gives_underfilled():
    mlm = MockMaskedLM(vocabulary=[])
    nli = MockNliClassifier()
    config = GenerationConfig(n_mask=0, dispersion=0, k=2, m_s=1, seed=0)
    with pytest.warns(RuntimeWarning):
        result = generate_distractors("just a test", (5, 6), config, mlm, nli)
    assert result.all_candidates == []
    assert result.distractor_set.underfilled is True


# --- cloze rendering ---------------------------------------------------------


def _distractor_set(distractors, underfilled=False):
    return DistractorSet(
        distractors=list(distractors), answer="open", underfilled=underfilled
    )


def test_render_cloze_options_and_key():
    rendered = render_cloze(
        CONTEXT, ANSWER_SPAN, _distractor_set(["shut", "lock", "slam"]), shuffle_seed=1
    )
    assert rendered.stem == "The boy will _____ the door. Then he waits."
    assert len(rendered.options) == 4
    assert sorted(rendered.options) == ["lock", "open", "shut", "slam"]
    assert rendered.options[rendered.answer_index] == "open"
    assert rendered.answer_letter == "ABCD"[rendered.answer_index]
    assert rendered.underfilled is False


def test_render_cloze_deterministic_shuffle():
    one = render_cloze(CONTEXT, ANSWER_SPAN, _distractor_set(["a", "b", "c"]), 7)
    two = render_cloze(CONTEXT, ANSWER_SPAN, _distractor_set(["a", "b", "c"]), 7)
    assert one.options == two.options
    other = render_cloze(CONTEXT, ANSWER_SPAN, _distractor_set(["a", "b", "c"]), 8)
    assert sorted(other.options) == sorted(one.options)


def test_render_cloze_underfilled_and_empty():
    rendered = render_cloze(
        CONTEXT, ANSWER_SPAN, _distractor_set(["shut"], underfilled=True), 0
    )
    assert len(rendered.options) == 2
    assert rendered.underfilled is True
    with pytest.raises(ContractViolation):
        render_cloze(CONTEXT, ANSWER_SPAN, _distractor_set([]), 0)
    with pytest.raises(SpanError, match="outside context"):
        render_cloze(CONTEXT, (40, 99), _distractor_set(["shut"]), 0)


@pytest.mark.parametrize(
    "distractors", [["open", "shut"], ["shut", " Open "], ["shut", "lock", "SHUT"]]
)
def test_render_cloze_rejects_two_options_that_read_the_same(distractors):
    # a repeat of the answer would render two correct options
    with pytest.raises(ContractViolation, match="repeat one text"):
        render_cloze(CONTEXT, ANSWER_SPAN, _distractor_set(distractors), 0)


def test_render_cloze_letters_every_option():
    # the cloth preset's k=10 gives 11 options
    distractors = _distractor_set([f"d{i}" for i in range(10)])
    for seed in range(50):
        rendered = render_cloze(CONTEXT, ANSWER_SPAN, distractors, seed)
        assert rendered.answer_letter == "ABCDEFGHIJK"[rendered.answer_index], seed


def test_render_cloze_rejects_more_options_than_letters():
    distractors = _distractor_set([f"d{i}" for i in range(26)])
    with pytest.raises(ContractViolation):
        render_cloze(CONTEXT, ANSWER_SPAN, distractors, 0)


PACKAGE_NAMES = [
    "BackendError", "BackendInfo", "Candidate", "ClozePassage", "ClozeQuestion",
    "ClozegenError", "ConfigError", "ContextAnswerPair", "ContractViolation",
    "CONTRADICTION", "DistractorSet", "ENTAILMENT", "EvalItemResult", "EvalReport",
    "GenerationConfig", "GenerationResult", "MaskedContext", "MaskedLanguageModel",
    "MockMaskedLM", "MockNliClassifier", "NEUTRAL", "NliClassifier", "ParseError",
    "PreparedContext", "RenderedCloze", "ResolveError", "SequenceLengthError",
    "SpanError", "TokenPrediction", "TraceEntry", "build_masked_context",
    "compute_item", "decode_order", "decode_plan", "evaluate_dataset",
    "extract_sentence", "fill_target", "generate_candidates", "generate_distractors",
    "load_cloth", "load_pairs", "prepare_context", "rank_candidates", "rank_score",
    "render_cloze", "result_to_dict", "score_candidate", "select_distractors",
]


def test_package_root_exports_public_names():
    import clozegen

    assert len(set(PACKAGE_NAMES)) == 48
    exported = {
        name
        for name, value in vars(clozegen).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert exported == set(PACKAGE_NAMES)


# Run in a fresh interpreter without the site module: the test process has
# third-party modules loaded, and site-packages .pth files may import more.
STDLIB_ONLY_RUN = """
import sys

import clozegen

# the library alone loads neither the command line nor the checkpoint adapters
assert not {"clozegen.cli", "clozegen.adapters"} & set(sys.modules)

import clozegen.cli
from clozegen import GenerationConfig, MockMaskedLM, MockNliClassifier, generate_distractors

# the record types are plain classes: nothing generates code for them at import
generated = {"dataclasses", "inspect"} & set(sys.modules)
assert not generated, sorted(generated)

context = "The boy will open the door."
config = GenerationConfig(n_mask=3, dispersion=2)  # five counts: the seed is consulted
mlm = MockMaskedLM(vocabulary=["shut", "lock", "slam", "kick"])
result = generate_distractors(context, (13, 17), config, mlm, MockNliClassifier())
assert result.distractor_set.distractors
outside = {m.partition(".")[0] for m in sys.modules} - set(sys.stdlib_module_names)
assert outside <= {"clozegen", "__main__"}, sorted(outside)
"""


def _run_stdlib_only(python):
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [python, "-S", "-c", STDLIB_ONLY_RUN],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=60,
    )


def test_library_and_cli_import_only_the_standard_library():
    completed = _run_stdlib_only(sys.executable)
    assert completed.returncode == 0, completed.stderr


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_every_supported_python_on_path_runs_clozegen(version):
    # pyproject.toml declares requires-python >= 3.10
    python = shutil.which(f"python{version}")
    if python is None or subprocess.run(
        [python, "-c", "pass"], capture_output=True, timeout=60
    ).returncode:
        pytest.skip(f"no python{version} on PATH starts")
    completed = _run_stdlib_only(python)
    assert completed.returncode == 0, completed.stderr
