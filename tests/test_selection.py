import random
from collections import Counter

import pytest

from clozegen.backends import CONTRADICTION, ENTAILMENT, NEUTRAL, MockNliClassifier
from clozegen.errors import BackendError, ContractViolation, SpanError
from clozegen.selection import (
    STAGE_ANSWER,
    STAGE_PAIRWISE,
    DistractorSet,
    select_distractors,
    verify_distractor_set,
)

from tests.conftest import CountingNli, make_candidate
from tests.oracles import (
    eager_selection,
    per_pair_audit,
    scan_wave_bound,
    sequential_selection,
)
from tests.selection_scenarios import (
    ANSWER,
    ANSWER_SPAN,
    CONTEXT,
    SCENARIOS,
    build_nli,
    instantiate,
)


def _candidates(texts):
    # descending rank order mirrors the generator's output ordering
    return [
        make_candidate(text, [0.95 - 0.05 * i]) for i, text in enumerate(texts)
    ]


def test_answer_stage_examples():
    table = {}
    table[(instantiate("unlock"), CONTEXT)] = ENTAILMENT
    table[(CONTEXT, instantiate("unlock"))] = ENTAILMENT
    table[(instantiate("close"), CONTEXT)] = CONTRADICTION
    table[(CONTEXT, instantiate("close"))] = CONTRADICTION
    table[(instantiate("stand"), CONTEXT)] = ENTAILMENT
    table[(CONTEXT, instantiate("stand"))] = NEUTRAL
    nli = MockNliClassifier(table=table)
    candidates = _candidates(["unlock", "close", "stand"])
    result = select_distractors(nli, CONTEXT, ANSWER, candidates, 3, ANSWER_SPAN)
    assert result.distractors == ["close", "stand"]
    assert len(result.trace) == 1
    assert result.trace[0].candidate == "unlock"
    assert result.trace[0].stage == STAGE_ANSWER
    assert result.trace[0].counterpart == ANSWER


def test_pairwise_stage_removes_lower_scored_of_pair():
    table = {}
    table[(instantiate("shut"), instantiate("seal"))] = ENTAILMENT
    table[(instantiate("seal"), instantiate("shut"))] = ENTAILMENT
    nli = MockNliClassifier(table=table)
    result = select_distractors(
        nli, CONTEXT, ANSWER, _candidates(["shut", "seal", "lift"]), 2, ANSWER_SPAN
    )
    assert result.distractors == ["shut", "lift"]
    assert [(e.candidate, e.stage, e.counterpart) for e in result.trace] == [
        ("seal", STAGE_PAIRWISE, "shut")
    ]


def test_pairwise_stage_prefix_when_no_entailments():
    nli = MockNliClassifier()
    result = select_distractors(
        nli, CONTEXT, ANSWER, _candidates(["shut", "seal", "lift"]), 2, ANSWER_SPAN
    )
    assert result.distractors == ["shut", "seal"]


class _BadReplyNli(MockNliClassifier):
    """Answers each batch with ``reply(pairs)``; stops a runaway scan at 50 batches."""

    def __init__(self, reply):
        super().__init__()
        self.reply = reply
        self.batches = 0

    def classify_nli_batch(self, pairs):
        self.batches += 1
        if self.batches > 50:
            raise RuntimeError("selection still asking after 50 batches")
        return self.reply(pairs)


@pytest.mark.parametrize(
    "reply",
    [
        lambda pairs: [],
        lambda pairs: ["ENTAILMENT"] * len(pairs),
        lambda pairs: [[ENTAILMENT]] * len(pairs),  # unhashable: no TypeError either
        lambda pairs: None,
    ],
    ids=["short", "unknown-label", "unhashable-label", "not-a-list"],
)
def test_select_distractors_rejects_a_bad_batch_reply(reply):
    nli = _BadReplyNli(reply)
    with pytest.raises(BackendError):
        select_distractors(
            nli, CONTEXT, ANSWER, _candidates(["shut", "seal", "lift"]), 2, ANSWER_SPAN
        )


def test_select_distractors_scenarios():
    for scenario in SCENARIOS:
        nli = build_nli(scenario)
        result = select_distractors(
            nli,
            CONTEXT,
            ANSWER,
            _candidates(scenario["candidates"]),
            scenario["k"],
            answer_span=ANSWER_SPAN,
        )
        assert result.distractors == scenario["expected"], scenario["name"]
        assert result.underfilled is scenario["underfilled"], scenario["name"]
        got_trace = [(e.candidate, e.stage, e.counterpart) for e in result.trace]
        assert got_trace == scenario["expected_trace"], scenario["name"]
        assert result.answer == ANSWER


def test_select_distractors_trace_accounting():
    # removed + kept + unscanned surplus must cover the whole input
    for scenario in SCENARIOS:
        nli = build_nli(scenario)
        candidates = _candidates(scenario["candidates"])
        result = select_distractors(
            nli, CONTEXT, ANSWER, candidates, scenario["k"], answer_span=ANSWER_SPAN
        )
        surplus = (
            len(candidates) - len(result.distractors) - len(result.trace)
        )
        assert surplus >= 0, scenario["name"]
        removed = {e.candidate for e in result.trace}
        kept = set(result.distractors)
        assert not removed & kept, scenario["name"]


def test_select_distractors_subset_and_order_invariants():
    for scenario in SCENARIOS:
        nli = build_nli(scenario)
        candidates = _candidates(scenario["candidates"])
        all_texts = [c.text for c in candidates]
        _, _, eager_trace = eager_selection(
            nli, CONTEXT, ANSWER, ANSWER_SPAN, all_texts, scenario["k"]
        )
        answer_removed = {c for c, stage, _ in eager_trace if stage == STAGE_ANSWER}
        stage1_texts = [t for t in all_texts if t not in answer_removed]
        result = select_distractors(
            nli, CONTEXT, ANSWER, candidates, scenario["k"], answer_span=ANSWER_SPAN
        )
        assert set(result.distractors) <= set(stage1_texts)
        # selection preserves the relative rank order of survivors
        positions = [all_texts.index(d) for d in result.distractors]
        assert positions == sorted(positions), scenario["name"]


def test_select_distractors_post_hoc_verification():
    for scenario in SCENARIOS:
        nli = build_nli(scenario)
        result = select_distractors(
            nli,
            CONTEXT,
            ANSWER,
            _candidates(scenario["candidates"]),
            scenario["k"],
            answer_span=ANSWER_SPAN,
        )
        assert verify_distractor_set(nli, CONTEXT, result, ANSWER_SPAN), scenario["name"]


def test_verify_distractor_set_rejects_an_unknown_label():
    class UpperCaseNli(MockNliClassifier):
        def classify_nli(self, premise, hypothesis):
            return "ENTAILMENT"

    with pytest.raises(BackendError):
        verify_distractor_set(
            UpperCaseNli(), CONTEXT, DistractorSet(["shut", "close"], ANSWER), ANSWER_SPAN
        )


def test_verify_distractor_set_rejects_an_answer_copy():
    nli = CountingNli(MockNliClassifier())
    copy = DistractorSet(["shut", " OPEN "], ANSWER)
    assert verify_distractor_set(nli, CONTEXT, copy, ANSWER_SPAN) is False
    assert nli.calls == []


def test_verify_distractor_set_needs_entailment_both_ways():
    one_way = {(instantiate("shut"), instantiate("seal")): ENTAILMENT}
    two_way = {**one_way, (instantiate("seal"), instantiate("shut")): ENTAILMENT}
    result = DistractorSet(["shut", "seal", "lift"], ANSWER)
    assert verify_distractor_set(MockNliClassifier(table=one_way), CONTEXT, result, ANSWER_SPAN)
    assert not verify_distractor_set(
        MockNliClassifier(table=two_way), CONTEXT, result, ANSWER_SPAN
    )


def test_verify_distractor_set_matches_the_per_pair_audit_in_two_batches():
    rnd = random.Random(7781)
    pool = [f"w{i}" for i in range(12)]
    labels = (ENTAILMENT, ENTAILMENT, NEUTRAL, CONTRADICTION)
    valid = 0
    for trial in range(500):
        texts = rnd.sample(pool, rnd.randint(0, 6))
        sentences = [instantiate(t) for t in texts]
        # each direction drawn on its own, so one-way entailments are common
        table = {
            (a, b): rnd.choice(labels) for a in sentences for b in sentences if a != b
        }
        batched = CountingNli(MockNliClassifier(table=table))
        per_pair = CountingNli(MockNliClassifier(table=table))
        got = verify_distractor_set(
            batched, CONTEXT, DistractorSet(texts, ANSWER), ANSWER_SPAN
        )
        assert got is per_pair_audit(per_pair, sentences), f"trial {trial}"
        if got:
            valid += 1
            assert len(batched.batches) <= 2, f"trial {trial}"
            assert sum(batched.batches) == len(batched.calls), f"trial {trial}"
            assert Counter(batched.calls) == Counter(per_pair.calls), f"trial {trial}"
    assert valid > 100


@pytest.mark.parametrize("k", [0, -1, 2.5])
def test_select_distractors_rejects_k_below_one(k):
    for texts in ([], ["shut", "seal", "lift", "slam"]):
        with pytest.raises(ContractViolation, match="k must be an integer >= 1"):
            select_distractors(
                MockNliClassifier(), CONTEXT, ANSWER, _candidates(texts), k, ANSWER_SPAN
            )


def test_select_distractors_empty_input():
    result = select_distractors(MockNliClassifier(), CONTEXT, ANSWER, [], 3, ANSWER_SPAN)
    assert result.distractors == []
    assert result.underfilled is True
    assert result.trace == []


def test_selection_and_audit_substitute_at_the_given_span():
    # the answer text also occurs earlier in the sentence: only the span says which
    context = "We open the door, then open the gate."
    span = (23, 27)
    shut = "We open the door, then shut the gate."
    nli = CountingNli(MockNliClassifier(table={(shut, context): ENTAILMENT}))
    result = select_distractors(nli, context, "open", _candidates(["shut"]), 1, span)
    assert result.distractors == ["shut"]
    assert nli.calls == [(shut, context), (context, shut)]
    chosen = DistractorSet(["shut", "lock"], "open")
    assert verify_distractor_set(nli, context, chosen, span)
    assert nli.calls[2:] == [(shut, "We open the door, then lock the gate.")]


@pytest.mark.parametrize("span", [(0, 0), (23, 38), (-1, 4)])
def test_selection_and_audit_reject_a_span_outside_the_sentence(span):
    context = "We open the door, then open the gate."
    candidates = _candidates(["shut"])
    with pytest.raises(SpanError):
        select_distractors(MockNliClassifier(), context, "open", candidates, 1, span)
    with pytest.raises(SpanError):
        verify_distractor_set(MockNliClassifier(), context, DistractorSet(["shut"], "open"), span)


def _assert_matches_eager(table, texts, k, label):
    """The best-first scan against the eager two-stage oracle on one instance."""
    fused_nli = CountingNli(MockNliClassifier(table=table))
    eager_nli = CountingNli(MockNliClassifier(table=table))
    result = select_distractors(
        fused_nli, CONTEXT, ANSWER, _candidates(texts), k, answer_span=ANSWER_SPAN
    )
    expected, underfilled, eager_trace = eager_selection(
        eager_nli, CONTEXT, ANSWER, ANSWER_SPAN, texts, k
    )
    assert result.distractors == expected, label
    assert result.underfilled is underfilled, label
    # the scan stops at the k-th kept candidate; nothing after it is classified
    stop = texts.index(expected[-1]) + 1 if len(expected) == k else len(texts)
    unscanned = set(texts[stop:])
    expected_trace = [
        entry
        for entry in eager_trace
        if not (entry[1] == STAGE_ANSWER and entry[0] in unscanned)
    ]
    got_trace = [(e.candidate, e.stage, e.counterpart) for e in result.trace]
    assert got_trace == expected_trace, label
    assert len(fused_nli.calls) <= len(eager_nli.calls), label


def test_best_first_scan_matches_eager_stages_on_scenarios():
    for scenario in SCENARIOS:
        _assert_matches_eager(
            scenario["table"], scenario["candidates"], scenario["k"], scenario["name"]
        )


def test_best_first_scan_matches_eager_stages_on_random_tables():
    rnd = random.Random(2409)
    pool = [f"w{i}" for i in range(14)]
    labels = (ENTAILMENT, ENTAILMENT, NEUTRAL, CONTRADICTION)
    for trial in range(300):
        texts = rnd.sample(pool, rnd.randint(0, len(pool)))
        k = rnd.randint(1, 6)
        sentences = [CONTEXT] + [instantiate(t) for t in texts]
        # each direction drawn on its own, so one-way entailments are common
        table = {
            (a, b): rnd.choice(labels)
            for a in sentences
            for b in sentences
            if a != b and rnd.random() < 0.8
        }
        _assert_matches_eager(table, texts, k, f"trial {trial}")


def _assert_matches_sequential(table, texts, k, label):
    """The wave scheduler against the one-pair-at-a-time scan on one instance:
    the same verdicts from the same pairs, in the fewest passes possible."""
    wave_nli = CountingNli(MockNliClassifier(table=table))
    sequential_nli = CountingNli(MockNliClassifier(table=table))
    candidates = _candidates(texts)
    got = select_distractors(
        wave_nli, CONTEXT, ANSWER, candidates, k, answer_span=ANSWER_SPAN
    )
    expected = sequential_selection(
        sequential_nli, CONTEXT, ANSWER, candidates, k, answer_span=ANSWER_SPAN
    )
    assert got.distractors == expected.distractors, label
    assert got.trace == expected.trace, label
    assert got.underfilled is expected.underfilled, label
    assert Counter(wave_nli.calls) == Counter(sequential_nli.calls), label
    assert len(set(wave_nli.calls)) == len(wave_nli.calls), label
    sentences = [CONTEXT] + [instantiate(t) for t in texts]
    bound = scan_wave_bound(MockNliClassifier(table=table).classify_nli, sentences, k)
    assert len(wave_nli.batches) == bound, label
    assert sum(wave_nli.batches) == len(wave_nli.calls), label


def test_wave_selection_matches_sequential_scan_on_scenarios():
    for scenario in SCENARIOS:
        _assert_matches_sequential(
            scenario["table"], scenario["candidates"], scenario["k"], scenario["name"]
        )


def test_wave_selection_matches_sequential_scan_on_random_tables():
    rnd = random.Random(5120)
    pool = [f"w{i}" for i in range(30)]
    labels = (ENTAILMENT, ENTAILMENT, NEUTRAL, CONTRADICTION)
    for trial in range(2000):
        texts = rnd.sample(pool, rnd.randint(0, len(pool)))
        k = rnd.randint(1, 12)
        sentences = [CONTEXT] + [instantiate(t) for t in texts]
        # each direction drawn on its own, so one-way entailments are common
        table = {
            (a, b): rnd.choice(labels)
            for a in sentences
            for b in sentences
            if a != b and rnd.random() < 0.8
        }
        _assert_matches_sequential(table, texts, k, f"trial {trial}")
