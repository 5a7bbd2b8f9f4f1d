import random
from collections import Counter

import pytest

from clozegen import selection
from clozegen.backends import CONTRADICTION, ENTAILMENT, NEUTRAL, MockNliClassifier
from clozegen.errors import BackendError, ContractViolation, SpanError
from clozegen.selection import (
    STAGE_ANSWER,
    STAGE_PAIRWISE,
    DistractorSet,
    select_distractors,
    verify_distractor_set,
)

from tests.conftest import CountingNli
from tests.oracles import (
    eager_selection,
    per_pair_audit,
    scan_wave_bound,
    sequential_selection,
    wave_selection_batches,
)
from tests.selection_scenarios import (
    ANSWER,
    ANSWER_SPAN,
    CONTEXT,
    SCENARIOS,
    build_nli,
    instantiate,
)


def test_answer_stage_examples():
    table = {}
    table[(instantiate("unlock"), CONTEXT)] = ENTAILMENT
    table[(CONTEXT, instantiate("unlock"))] = ENTAILMENT
    table[(instantiate("close"), CONTEXT)] = CONTRADICTION
    table[(CONTEXT, instantiate("close"))] = CONTRADICTION
    table[(instantiate("stand"), CONTEXT)] = ENTAILMENT
    table[(CONTEXT, instantiate("stand"))] = NEUTRAL
    nli = MockNliClassifier(table=table)
    result = select_distractors(nli, CONTEXT, ["unlock", "close", "stand"], 3, ANSWER_SPAN)
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
    result = select_distractors(nli, CONTEXT, ["shut", "seal", "lift"], 2, ANSWER_SPAN)
    assert result.distractors == ["shut", "lift"]
    assert [(e.candidate, e.stage, e.counterpart) for e in result.trace] == [
        ("seal", STAGE_PAIRWISE, "shut")
    ]


def test_pairwise_stage_prefix_when_no_entailments():
    nli = MockNliClassifier()
    result = select_distractors(nli, CONTEXT, ["shut", "seal", "lift"], 2, ANSWER_SPAN)
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
        select_distractors(nli, CONTEXT, ["shut", "seal", "lift"], 2, ANSWER_SPAN)


def test_select_distractors_scenarios():
    for scenario in SCENARIOS:
        nli = build_nli(scenario)
        result = select_distractors(
            nli,
            CONTEXT,
            scenario["candidates"],
            scenario["k"],
            answer_span=ANSWER_SPAN,
        )
        assert result.distractors == scenario["expected"], scenario["name"]
        assert result.underfilled is scenario["underfilled"], scenario["name"]
        got_trace = [(e.candidate, e.stage, e.counterpart) for e in result.trace]
        assert got_trace == scenario["expected_trace"], scenario["name"]
        assert result.answer == ANSWER


def test_lone_wave_scenarios_pin_their_batches():
    # the two lone-wave scenarios, the two forward ride-along ones, the two
    # waiting-candidate ones, the two lone-chain ones and the ride-along
    # against an undecided candidate
    pinned = [scenario for scenario in SCENARIOS if "batches" in scenario]
    assert len(pinned) == 9
    for scenario in pinned:
        nli = CountingNli(build_nli(scenario))
        result = select_distractors(
            nli, CONTEXT, scenario["candidates"], scenario["k"], ANSWER_SPAN
        )
        assert [(e.candidate, e.stage, e.counterpart) for e in result.trace] == (
            scenario["expected_trace"]
        ), scenario["name"]
        assert _split_batches(nli) == [
            [(instantiate(a), instantiate(b)) for a, b in batch]
            for batch in scenario["batches"]
        ], scenario["name"]


def test_lone_chain_stops_at_a_candidate_it_entails_both_ways():
    # By the time a lone candidate's two-way entailment with a kept candidate
    # is known, its pairs against every kept one before it are known too, so
    # no scan reaches this stop; it is pinned on the helper, which works in
    # candidate ranks
    c, x, d, y = 4, 1, 2, 3
    verdicts = {(c, d): ENTAILMENT, (d, c): ENTAILMENT}
    assert selection._chain(verdicts, c, (x, d, y)) == [(c, x)]
    # only the first reverse pair of a forward entailment is sent
    verdicts = {(c, x): ENTAILMENT, (c, d): ENTAILMENT, (x, c): NEUTRAL}
    assert selection._chain(verdicts, c, (x, d, y)) == [(d, c), (c, y)]
    verdicts = {(c, x): ENTAILMENT, (c, d): ENTAILMENT}
    assert selection._chain(verdicts, c, (x, d, y)) == [(x, c), (c, y)]


def test_select_distractors_trace_accounting():
    # removed + kept + unscanned surplus must cover the whole input
    for scenario in SCENARIOS:
        nli = build_nli(scenario)
        candidates = scenario["candidates"]
        result = select_distractors(
            nli, CONTEXT, candidates, scenario["k"], answer_span=ANSWER_SPAN
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
        all_texts = scenario["candidates"]
        _, _, eager_trace = eager_selection(
            nli, CONTEXT, ANSWER, ANSWER_SPAN, all_texts, scenario["k"]
        )
        answer_removed = {c for c, stage, _ in eager_trace if stage == STAGE_ANSWER}
        stage1_texts = [t for t in all_texts if t not in answer_removed]
        result = select_distractors(
            nli, CONTEXT, all_texts, scenario["k"], answer_span=ANSWER_SPAN
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
            scenario["candidates"],
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
        message = "k must be >= 1" if type(k) is int else "k must be an integer, not 2.5"
        with pytest.raises(ContractViolation, match=message):
            select_distractors(
                MockNliClassifier(), CONTEXT, texts, k, ANSWER_SPAN
            )


def test_select_distractors_empty_input():
    result = select_distractors(MockNliClassifier(), CONTEXT, [], 3, ANSWER_SPAN)
    assert result.distractors == []
    assert result.underfilled is True
    assert result.trace == []


def test_selection_skips_answer_copies_blanks_and_repeats_as_it_reads():
    # every scenario again, each candidate followed by an answer copy, a blank
    # text and a case- and spacing-variant repeat of it: same batches, same set
    for scenario in SCENARIOS:
        noisy = []
        for n, text in enumerate(scenario["candidates"]):
            noisy += [text, f" {ANSWER.upper()}", " " * n, text.title() + " "]
        clean_nli = CountingNli(build_nli(scenario))
        noisy_nli = CountingNli(build_nli(scenario))
        k = scenario["k"]
        expected = select_distractors(clean_nli, CONTEXT, scenario["candidates"], k, ANSWER_SPAN)
        result = select_distractors(noisy_nli, CONTEXT, noisy, k, ANSWER_SPAN)
        assert result == expected, scenario["name"]
        assert _split_batches(noisy_nli) == _split_batches(clean_nli), scenario["name"]
    context = "The door was open all day."
    texts = ["OPEN", "shut", "shut", " ", "Shut"]
    result = select_distractors(MockNliClassifier(), context, texts, 3, (13, 17))
    assert result == DistractorSet(["shut"], "open", [], True)


def test_selection_reads_every_text_and_rejects_a_non_str_one():
    # "shut" and "closed" entail each other both ways, so "closed" falls and
    # the scan reads on; a None text is not the end of the candidates
    context = "The door was open all day."
    shut, closed = (context[:13] + w + context[17:] for w in ("shut", "closed"))
    table = {(shut, closed): ENTAILMENT, (closed, shut): ENTAILMENT}
    nli = MockNliClassifier(table=table)
    result = select_distractors(nli, context, ["shut", "closed", "locked"], 2, (13, 17))
    assert result.distractors == ["shut", "locked"]
    for bad in (None, 7):
        with pytest.raises(ContractViolation, match=f"must be str, not {bad}$"):
            select_distractors(nli, context, ["shut", "closed", bad, "locked"], 2, (13, 17))


def test_selection_rejects_a_bare_str_for_its_candidates():
    # iterated, "closed" would offer the letters "c", "l" and "o" as distractors
    with pytest.raises(ContractViolation, match="candidates must be an iterable of texts"):
        select_distractors(MockNliClassifier(), "The door was open all day.", "closed", 3, (13, 17))


def test_selection_and_audit_substitute_at_the_given_span():
    # the answer text also occurs earlier in the sentence: only the span says which
    context = "We open the door, then open the gate."
    span = (23, 27)
    shut = "We open the door, then shut the gate."
    nli = CountingNli(MockNliClassifier(table={(shut, context): ENTAILMENT}))
    result = select_distractors(nli, context, ["shut"], 1, span)
    assert result.distractors == ["shut"]
    assert nli.calls == [(shut, context), (context, shut)]
    chosen = DistractorSet(["shut", "lock"], "open")
    assert verify_distractor_set(nli, context, chosen, span)
    assert nli.calls[2:] == [(shut, "We open the door, then lock the gate.")]


def test_selection_reads_the_answer_off_its_span():
    # the sentence holds the answer twice, capitalized once: the span picks "open"
    context = "Open the door, then open the gate."
    span = (20, 24)
    unlock = "Open the door, then unlock the gate."
    nli = MockNliClassifier(table={(unlock, context): ENTAILMENT, (context, unlock): ENTAILMENT})
    result = select_distractors(nli, context, ["unlock", "shut"], 1, span)
    assert result.answer == context[20:24] == "open"
    assert result.distractors == ["shut"]
    assert [(e.candidate, e.stage, e.counterpart) for e in result.trace] == [
        ("unlock", STAGE_ANSWER, "open")
    ]


@pytest.mark.parametrize("span", [(0, 0), (23, 38), (-1, 4)])
def test_selection_and_audit_reject_a_span_outside_the_sentence(span):
    context = "We open the door, then open the gate."
    with pytest.raises(SpanError):
        select_distractors(MockNliClassifier(), context, ["shut"], 1, span)
    with pytest.raises(SpanError):
        verify_distractor_set(MockNliClassifier(), context, DistractorSet(["shut"], "open"), span)


def _split_batches(nli):
    """The pairs a ``CountingNli`` classified, one list per batch call."""
    batches, at = [], 0
    for size in nli.batches:
        batches.append(nli.calls[at : at + size])
        at += size
    assert at == len(nli.calls)
    return batches


def _sequential_pairs(table, texts, k):
    """The pairs the one-pair-at-a-time scan classifies."""
    nli = CountingNli(MockNliClassifier(table=table))
    sequential_selection(nli, CONTEXT, ANSWER, texts, k, answer_span=ANSWER_SPAN)
    return set(nli.calls)


def _assert_matches_eager(table, texts, k, label):
    """The best-first scan against the eager two-stage oracle on one instance."""
    fused_nli = CountingNli(MockNliClassifier(table=table))
    eager_nli = CountingNli(MockNliClassifier(table=table))
    result = select_distractors(fused_nli, CONTEXT, texts, k, answer_span=ANSWER_SPAN)
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
    # the pairs of the one-pair-at-a-time scan are never more than eager's;
    # a lone wave's candidate adds only the rest of its chain, and otherwise
    # each candidate with such a pair in a batch adds at most one more pair,
    # and each candidate with a pair against an undecided one at most two
    sequential = _sequential_pairs(table, texts, k)
    batches = _split_batches(fused_nli)
    assert sum(p in sequential for batch in batches for p in batch) <= len(eager_nli.calls), label
    rank = _rank(texts)
    owner = _owner(texts)
    kept = {rank[instantiate(d)] for d in expected}
    classify = MockNliClassifier(table=table).classify_nli
    known = {}
    for batch in batches:
        waiting_pairs = _waiting_pairs(batch, sequential, rank)
        lone = _lone_owner(batch, waiting_pairs, owner)
        if lone is not None:
            _assert_lone_chain(
                [p for p in batch if owner(p) == lone], known, kept, rank, label
            )
        rest = [pair for pair in batch if owner(pair) != lone]
        extras = sum(pair not in sequential for pair in rest)
        owners = {owner(pair) for pair in rest if pair in sequential}
        waiting = {owner(pair) for pair in waiting_pairs}
        assert extras <= len(owners) + 2 * len(waiting), label
        known.update((pair, classify(*pair)) for pair in batch)


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


def _rank(texts):
    """Each sentence's rank: 0 for the answer sentence, then the candidates'."""
    rank = {instantiate(t): i for i, t in enumerate(texts, 1)}
    rank[CONTEXT] = 0
    return rank


def _owner(texts):
    """The sentence of a pair's lower-ranked member: the candidate whose check
    the pair belongs to (the answer sentence ranks first)."""
    rank = _rank(texts)
    return lambda pair: max(pair, key=rank.__getitem__)


def _waiting_pairs(batch, sequential, rank):
    """The pairs of a batch whose higher-ranked member ranks at or after the
    wave's first undecided candidate: the best-ranked owner of a pair of the
    one-pair-at-a-time scan in it. Only a candidate behind an undecided one
    sends a pair against such a counterpart, as its ask or a ride-along, and
    that pair is wasted if the counterpart falls."""
    first = min(max(rank[s] for s in pair) for pair in batch if pair in sequential)
    return [pair for pair in batch if min(rank[s] for s in pair) >= first]


def _lone_owner(batch, waiting, owner):
    """The only owner of the batch's pairs against the answer or a kept
    candidate (those not ``waiting``), or None. In a wave with one ask it is
    that ask's candidate; beside other asks, its pairs are its ask and at
    most one forward ride-along, which ``_assert_lone_chain`` admits too."""
    owners = {owner(pair) for pair in batch if pair not in waiting}
    return owners.pop() if len(owners) == 1 else None


def _assert_lone_chain(pairs, known, kept, rank, label):
    """A lone wave's candidate c sends, besides its ask against some j (the
    pair whose counterpart ranks first), only forward pairs (c, d) and
    at most one reverse pair (d, c) whose forward pair was known to entail
    before the batch, each d a kept candidate after j."""

    def counterpart(pair):
        return min(pair, key=rank.__getitem__)

    c = max(pairs[0], key=rank.__getitem__)
    pending = min(pairs, key=lambda pair: rank[counterpart(pair)])
    reverse = [pair for pair in pairs if pair[0] != c and pair != pending]
    assert len(reverse) <= 1, label
    for pair in pairs:
        if pair != pending:
            d = counterpart(pair)
            assert rank[d] in kept and rank[d] > rank[counterpart(pending)], label
    for d, _ in reverse:
        assert known.get((c, d)) == ENTAILMENT, label


def _assert_matches_sequential(table, texts, k, label):
    """The wave scheduler against the one-pair-at-a-time scan on one instance:
    the same verdicts, from every pair of that scan sent once plus the rest of
    a lone wave's candidate's chain, at most one forward pair per other
    candidate asking a pair of that scan in a batch and the pairs against
    undecided candidates, in the batches the wave oracle replays, reading no
    candidate past the window it replays."""
    read = []

    def feed():
        for text in texts:
            read.append(text)
            yield text

    wave_nli = CountingNli(MockNliClassifier(table=table))
    sequential_nli = CountingNli(MockNliClassifier(table=table))
    got = select_distractors(wave_nli, CONTEXT, feed(), k, answer_span=ANSWER_SPAN)
    expected = sequential_selection(
        sequential_nli, CONTEXT, ANSWER, texts, k, answer_span=ANSWER_SPAN
    )
    assert got.distractors == expected.distractors, label
    assert got.trace == expected.trace, label
    assert got.underfilled is expected.underfilled, label
    assert len(set(wave_nli.calls)) == len(wave_nli.calls), label
    sequential = set(sequential_nli.calls)
    assert sequential <= set(wave_nli.calls), label
    # A lone wave's candidate sends the rest of its chain (see
    # _assert_lone_chain). Any other c, a pair's owner, has at most two pairs
    # in any batch. An extra pair is a pair of c against an undecided d (one
    # that ranks before c and at or after the wave's first undecided
    # candidate), or else a forward pair (c, d) riding in a batch with c's
    # own ask, d a counterpart the sequential scan kept before c
    sentences = [CONTEXT] + [instantiate(t) for t in texts]
    rank = _rank(texts)
    kept = {rank[instantiate(d)] for d in expected.distractors}
    owner = _owner(texts)
    classify = MockNliClassifier(table=table).classify_nli
    known = {}
    for batch in _split_batches(wave_nli):
        waiting = _waiting_pairs(batch, sequential, rank)
        lone = _lone_owner(batch, waiting, owner)
        if lone is not None:
            _assert_lone_chain(
                [p for p in batch if owner(p) == lone], known, kept, rank, label
            )
        owners = Counter(owner(pair) for pair in batch if owner(pair) != lone)
        assert max(owners.values(), default=0) <= 2, label
        for pair in batch:
            if pair not in sequential and pair not in waiting and owner(pair) != lone:
                c, d = pair
                assert owner(pair) == c, label
                assert any(p in sequential and owner(p) == c for p in batch), label
                assert rank[d] in kept and rank[d] < rank[c], label
        known.update((pair, classify(*pair)) for pair in batch)
    batches, reached = wave_selection_batches(classify, sentences, k)
    assert _split_batches(wave_nli) == batches, label
    assert len(read) == reached, label
    assert len(wave_nli.batches) <= scan_wave_bound(classify, sentences, k), label


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


def _assert_forward_pairs_ascend(nli, texts, label):
    """Each candidate's forward pairs (its own sentence first) go out against
    counterparts of strictly increasing rank, so the counterparts with a known
    forward verdict are always a prefix of its chain. Returns how many
    forward pairs went out."""
    rank = _rank(texts)
    last = {}
    forward = 0
    for premise, hypothesis in nli.calls:
        if rank[premise] > rank[hypothesis]:
            assert rank[hypothesis] > last.get(premise, -1), label
            last[premise] = rank[hypothesis]
            forward += 1
    return forward


def test_each_candidate_sends_its_forward_pairs_in_rank_order():
    for scenario in SCENARIOS:
        nli = CountingNli(build_nli(scenario))
        select_distractors(nli, CONTEXT, scenario["candidates"], scenario["k"], ANSWER_SPAN)
        _assert_forward_pairs_ascend(nli, scenario["candidates"], scenario["name"])
    rnd = random.Random(3617)
    pool = [f"w{i}" for i in range(30)]
    forward = 0
    for trial in range(2000):
        texts = rnd.sample(pool, rnd.randint(0, len(pool)))
        share = rnd.choice((0.1, 0.3, 0.5, 0.8))  # each direction entails this often
        sentences = [CONTEXT] + [instantiate(t) for t in texts]
        table = {
            (a, b): ENTAILMENT if rnd.random() < share else rnd.choice((NEUTRAL, CONTRADICTION))
            for a in sentences
            for b in sentences
            if a != b
        }
        nli = CountingNli(MockNliClassifier(table=table))
        select_distractors(nli, CONTEXT, texts, rnd.randint(1, 12), ANSWER_SPAN)
        forward += _assert_forward_pairs_ascend(nli, texts, f"trial {trial}")
    assert forward > 50000, forward  # 60,876 at this seed
