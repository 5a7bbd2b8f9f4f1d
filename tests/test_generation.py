import itertools
import json
import math
import random
import warnings

import pytest

from clozegen.backends import MockMaskedLM, MockNliClassifier, TokenPrediction, fingerprint
from clozegen.data import ClozePassage, ClozeQuestion, prepare_context
from clozegen.errors import BackendError, ContractViolation, SpanError
from clozegen.generation import (
    AVERAGES,
    STRATEGIES,
    GenerationConfig,
    bound,
    build_masked_context,
    decode_order,
    decode_plan,
    generate_candidates,
    rank_candidates,
    rank_score,
    score_candidate,
)
from clozegen.pipeline import generate_distractors

from tests.conftest import CountingMLM, eager_request, make_candidate
from tests.oracles import brute_force_candidates


# --- decode plan: mask-count resolution and sampling ---------------------


def test_resolve_mask_count():
    assert decode_plan(GenerationConfig(n_mask=0, dispersion=0), 3)[0] == [3]
    assert decode_plan(GenerationConfig(n_mask=1, dispersion=0), 3)[0] == [1]
    assert decode_plan(GenerationConfig(n_mask=0, dispersion=0), 1)[0] == [1]
    with pytest.raises(ContractViolation):
        decode_plan(GenerationConfig(), 0)


def test_mask_count_interval():
    assert decode_plan(GenerationConfig(n_mask=3, dispersion=1), 1)[0] == [2, 3, 4]
    assert decode_plan(GenerationConfig(n_mask=1, dispersion=2), 5)[0] == [1, 2, 3]
    assert decode_plan(GenerationConfig(n_mask=4, dispersion=0), 1)[0] == [4]


def test_sample_mask_counts_degenerate_and_full_interval():
    assert decode_plan(GenerationConfig(n_mask=4, dispersion=0, seed=0), 1)[0] == [4]
    assert decode_plan(GenerationConfig(n_mask=3, dispersion=1, seed=123), 1)[0] == [2, 3, 4]


def test_sample_mask_counts_seed_zero_snapshot():
    # regression snapshot: random.Random's draw on CPython 3.11
    assert decode_plan(GenerationConfig(n_mask=3, dispersion=2, seed=0), 1)[0] == [1, 4, 5]


def test_sample_mask_counts_deterministic_and_in_bounds():
    rnd = random.Random(5)
    for _ in range(50):
        base = rnd.randint(1, 9)
        dispersion = rnd.randint(0, 6)
        config = GenerationConfig(dispersion=dispersion, seed=rnd.randint(0, 10_000))
        low, high = max(base - dispersion, 1), base + dispersion
        once, _ = decode_plan(config, base)
        again, _ = decode_plan(config, base)
        assert once == again
        assert len(once) == min(3, high - low + 1)
        assert len(set(once)) == len(once)
        assert all(low <= v <= high for v in once)


# --- masking -------------------------------------------------------------


def test_build_masked_context_replaces_span():
    ctx = build_masked_context(["t1", "a1", "a2", "t2"], (1, 3), 2, "[MASK]", 512)
    assert ctx.tokens == ["t1", "[MASK]", "[MASK]", "t2"]
    assert ctx.mask_positions == [1, 2]


def test_build_masked_context_count_may_exceed_answer_length():
    ctx = build_masked_context(["t1", "a1", "t2"], (1, 2), 3, "[MASK]", 512)
    assert ctx.tokens == ["t1", "[MASK]", "[MASK]", "[MASK]", "t2"]
    assert ctx.mask_positions == [1, 2, 3]


def test_build_masked_context_span_errors():
    with pytest.raises(SpanError):
        build_masked_context(["a", "b", "c"], (5, 6), 1, "[MASK]", 512)
    with pytest.raises(SpanError):
        build_masked_context(["a", "b", "c"], (2, 2), 1, "[MASK]", 512)


def test_masked_context_requires_uniform_mask_tokens():
    from clozegen.generation import MaskedContext

    with pytest.raises(ContractViolation):
        MaskedContext(tokens=["a", "[MASK]", "oops"], mask_positions=[1, 2])
    with pytest.raises(ContractViolation):
        MaskedContext(tokens=["a", "[MASK]"], mask_positions=[])
    with pytest.raises(ContractViolation):
        MaskedContext(tokens=["[MASK]", "a", "[MASK]"], mask_positions=[0, 2])


def test_build_masked_context_window_noop_and_symmetric_trim():
    tokens = [str(i) for i in range(10)]
    ctx = build_masked_context(tokens, (4, 5), 1, "[MASK]", 512)
    assert build_masked_context(tokens, (4, 5), 1, "[MASK]", max_length=10) == ctx
    trimmed = build_masked_context(tokens, (4, 5), 1, "[MASK]", max_length=5)
    assert len(trimmed.tokens) == 5
    assert trimmed.tokens[trimmed.mask_positions[0]] == "[MASK]"
    # two context tokens on each side of the mask
    assert trimmed.tokens == ["2", "3", "[MASK]", "5", "6"]


def test_build_masked_context_window_skewed_run():
    tokens = [str(i) for i in range(10)]
    trimmed = build_masked_context(tokens, (8, 10), 2, "[MASK]", max_length=5)
    assert len(trimmed.tokens) == 5
    assert trimmed.tokens[-2:] == ["[MASK]", "[MASK]"]
    assert trimmed.tokens[:3] == ["5", "6", "7"]
    with pytest.raises(SpanError):
        build_masked_context(tokens, (8, 10), 2, "[MASK]", max_length=1)


# --- decode orders -------------------------------------------------------


def test_decode_order_examples():
    assert decode_order("l2r", 5) == [0, 1, 2, 3, 4]
    assert decode_order("r2l", 5) == [4, 3, 2, 1, 0]
    assert decode_order("ctl", 5) == [0, 4, 1, 3, 2]
    assert decode_order("r2l", 3) == [2, 1, 0]
    assert decode_order("ctl", 1) == [0]
    assert decode_order("CTL", 2) == [0, 1]


def test_decode_order_permutation_and_ctl_interleaving():
    for m in range(1, 30):
        l2r = decode_order("l2r", m)
        r2l = decode_order("r2l", m)
        ctl = decode_order("ctl", m)
        for order in (l2r, r2l, ctl):
            assert sorted(order) == list(range(m))
        evens = ctl[0::2]
        odds = ctl[1::2]
        assert evens == l2r[: len(evens)]
        assert odds == r2l[: len(odds)]


def test_decode_order_rejects_unknown_strategy():
    with pytest.raises(ContractViolation):
        decode_order("middle-out", 3)
    with pytest.raises(ContractViolation):
        decode_order("l2r", 0)


# --- candidate scoring ----------------------------------------------------


def test_score_candidate():
    assert score_candidate([0.5, 0.5]) == pytest.approx(0.25, abs=1e-12)
    assert score_candidate([1.0]) == 1.0
    assert score_candidate([0.9, 0.1, 0.5]) == pytest.approx(0.045, abs=1e-12)
    with pytest.raises(ContractViolation):
        score_candidate([])
    with pytest.raises(ContractViolation):
        score_candidate([0.5, 0.0])
    with pytest.raises(ContractViolation):
        score_candidate([1.2])


def test_rank_score_constant_vectors_exact():
    for p in (0.5, 0.3, 0.123456789, 1.0):
        for r in (1, 2, 3, 5):
            assert rank_score([p] * r, "geometric") == p
            assert rank_score([p] * r, "harmonic") == p


def test_rank_score_divergence_between_means():
    assert rank_score([1.0, 0.25], "geometric") == pytest.approx(0.5, abs=1e-12)
    assert rank_score([1.0, 0.25], "harmonic") == pytest.approx(0.4, abs=1e-12)


def test_rank_score_rejects_zero_probability():
    # one rule for every score: a step probability must be in (0, 1]
    for avg in ("geometric", "harmonic"):
        for probs in ([0.5, 0.0], [0.0], [0.5, -0.1], [1.5]):
            with pytest.raises(ContractViolation, match=r"outside \(0, 1\]"):
                rank_score(probs, avg)


def test_rank_score_geometric_matches_product_root():
    rnd = random.Random(11)
    for _ in range(300):
        r = rnd.randint(1, 6)
        probs = [rnd.uniform(1e-6, 1.0) for _ in range(r)]
        expected = math.prod(probs) ** (1.0 / r)
        assert abs(rank_score(probs, "geometric") - expected) < 1e-9


def test_rank_score_monotone_under_scaling():
    rnd = random.Random(13)
    for _ in range(200):
        r = rnd.randint(1, 5)
        probs = [rnd.uniform(0.05, 1.0) for _ in range(r)]
        lam = rnd.uniform(0.05, 0.999)
        scaled = [p * lam for p in probs]
        for avg in ("geometric", "harmonic"):
            assert rank_score(scaled, avg) <= rank_score(probs, avg) + 1e-12


# --- ranking and dedup ----------------------------------------------------


def test_rank_candidates_sorts_descending():
    a = make_candidate("alpha", [0.5])
    b = make_candidate("beta", [0.4])
    assert [c.text for c in rank_candidates([b, a], "gamma")] == ["alpha", "beta"]


def test_rank_candidates_deduplicates_keeping_higher():
    low = make_candidate("cat", [0.5])
    high = make_candidate("Cat", [0.6])
    ranked = rank_candidates([low, high], "dog")
    assert len(ranked) == 1
    assert ranked[0].rank_score == pytest.approx(0.6)
    assert ranked[0].text == "Cat"


def test_rank_candidates_per_token_normalization():
    long = make_candidate("big dog", [0.9, 0.9])
    short = make_candidate("cat", [0.8])
    ranked = rank_candidates([short, long], "fox")
    assert [c.text for c in ranked] == ["big dog", "cat"]


def test_rank_candidates_tie_breaks():
    shorter = make_candidate("zz", [0.5])
    longer = make_candidate("aa bb", [0.5, 0.5])
    ranked = rank_candidates([longer, shorter], "cc")
    assert [c.text for c in ranked] == ["zz", "aa bb"]
    first = make_candidate("apple", [0.5])
    second = make_candidate("mango", [0.5])
    ranked = rank_candidates([second, first], "pear")
    assert [c.text for c in ranked] == ["apple", "mango"]


def test_rank_candidates_average_changes_order_not_set():
    # each pool is scored under its average where it is made; ranking
    # orders by the stored score and rescores nothing
    pools = {}
    for avg in ("geometric", "harmonic"):
        pools[avg] = [
            make_candidate("spiky", [1.0, 0.25], avg=avg),  # geo 0.5, harmonic 0.4
            make_candidate("steady", [0.45, 0.45], avg=avg),  # both 0.45
        ]
    geo = rank_candidates(pools["geometric"], "calm")
    har = rank_candidates(pools["harmonic"], "calm")
    assert [c.text for c in geo] == ["spiky", "steady"]
    assert [c.text for c in har] == ["steady", "spiky"]
    assert {c.text for c in geo} == {c.text for c in har}
    for avg, ranked in (("geometric", geo), ("harmonic", har)):
        assert {id(c) for c in ranked} == {id(c) for c in pools[avg]}  # not rescored copies
        assert [c.rank_score for c in ranked] == sorted(
            (c.rank_score for c in pools[avg]), reverse=True
        )


def test_rank_candidates_drops_answer_copies_normalized():
    cands = [make_candidate("Open ", [0.5]), make_candidate("shut", [0.4])]
    kept = rank_candidates(cands, " OPEN")
    assert [c.text for c in kept] == ["shut"]


@pytest.mark.parametrize("blank", ["", " ", "\t\n", "\u00a0"])
def test_rank_candidates_drops_blank_fills(blank):
    cands = [make_candidate(blank, [0.9]), make_candidate("shut", [0.4])]
    assert [c.text for c in rank_candidates(cands, "open")] == ["shut"]


# --- pseudo-beam decoding --------------------------------------------------


def test_generate_single_mask_equals_topk_fill():
    tokens = ["the", "[MASK]", "sat"]
    table = {(" ".join(tokens), 1): [("cat", 0.6), ("dog", 0.3), ("rat", 0.1)]}
    mlm = MockMaskedLM(table=table)
    ctx = build_masked_context(["the", "cat", "sat"], (1, 2), 1, "[MASK]", 512)
    cands = generate_candidates(mlm, [(ctx, [0])], branch_width=2, avg="geometric")
    assert [(c.text, c.step_probabilities[0]) for c in cands] == [
        ("cat", 0.6),
        ("dog", 0.3),
    ]
    assert all(len(c.step_probabilities) == 1 for c in cands)


def test_generate_two_masks_conditions_on_committed_tokens():
    base = ["the", "[MASK]", "[MASK]", "sat"]
    table = {
        (" ".join(base), 1): [("big", 0.6), ("small", 0.4)],
        ("the big [MASK] sat", 2): [("dog", 0.9)],
        ("the small [MASK] sat", 2): [("cat", 0.8)],
    }
    mlm = CountingMLM(MockMaskedLM(table=table))
    ctx = build_masked_context(["the", "fat", "cat", "sat"], (1, 3), 2, "[MASK]", 512)
    cands = generate_candidates(mlm, [(ctx, [0, 1])], branch_width=2, avg="geometric")
    assert [(c.text, tuple(c.step_probabilities)) for c in cands] == [
        ("big dog", (0.6, 0.9)),
        ("small cat", (0.4, 0.8)),
    ]
    # the second-step queries saw the committed first tokens
    assert ("the big [MASK] sat", 2, 1) in mlm.calls
    assert ("the small [MASK] sat", 2, 1) in mlm.calls
    assert math.isclose(score_candidate(cands[0].step_probabilities), 0.54)


def test_generate_r2l_decode_fills_right_first():
    base = ["a", "[MASK]", "[MASK]", "b"]
    table = {
        (" ".join(base), 2): [("last", 0.7)],
        ("a [MASK] last b", 1): [("first", 0.5)],
    }
    mlm = MockMaskedLM(table=table, vocabulary=["x"])
    ctx = build_masked_context(["a", "q", "b"], (1, 2), 2, "[MASK]", 512)
    cands = generate_candidates(
        mlm, [(ctx, decode_order("r2l", 2))], branch_width=1, avg="geometric"
    )
    assert len(cands) == 1
    # positional order in text, decode order in probabilities
    assert cands[0].text == "first last"
    assert cands[0].step_probabilities == [0.7, 0.5]


def test_generate_call_count_contract():
    mlm = CountingMLM(MockMaskedLM(vocabulary=["a", "b", "c", "d", "e", "f", "g"]))
    ctx = build_masked_context(["x", "y", "z", "w"], (1, 3), 3, "[MASK]", 512)
    for width in (1, 3, 6):
        mlm.calls.clear()
        generate_candidates(
            mlm, [(ctx, decode_order("ctl", 3))], branch_width=width, avg="geometric"
        )
        assert len(mlm.calls) == 1 + (3 - 1) * width


def test_generate_empty_backend_warns_and_returns_nothing():
    mlm = MockMaskedLM(vocabulary=[])
    ctx = build_masked_context(["x", "y"], (1, 2), 1, "[MASK]", 512)
    with pytest.warns(RuntimeWarning):
        assert generate_candidates(mlm, [(ctx, [0])], branch_width=2, avg="geometric") == []


def test_generate_stops_when_every_hypothesis_dies():
    ctx = build_masked_context(["x", "y", "z"], (1, 2), 3, "[MASK]", 512)
    first = (fingerprint(ctx.tokens), ctx.mask_positions[0])
    # no vocabulary: every query but the first step's gets no predictions
    mlm = CountingMLM(MockMaskedLM(table={first: [("a", 0.9), ("b", 0.5)]}))
    with pytest.warns(RuntimeWarning):
        assert generate_candidates(mlm, [(ctx, [0, 1, 2])], 2, "geometric") == []
    assert mlm.batches == [(1, 2), (2, 1)]


def test_generate_rejects_a_short_batch_reply():
    class FirstListOnly(MockMaskedLM):
        def fill_mask_batch(self, queries, top_k):
            return super().fill_mask_batch(queries, top_k)[:1]

    mlm = FirstListOnly(vocabulary=["a", "b", "c"])
    ctx = build_masked_context(["x", "y", "z"], (1, 2), 2, "[MASK]", 512)
    # step 0 sends one query; step 1 sends one per branch and gets one list back
    with pytest.raises(BackendError):
        generate_candidates(mlm, [(ctx, [0, 1])], branch_width=2, avg="geometric")


class _BadReplyMLM(MockMaskedLM):
    """Answers each batch with ``reshape`` applied to the mock's own reply."""

    def __init__(self, reshape):
        super().__init__(vocabulary=["a", "b", "c"])
        self.reshape = reshape

    def fill_mask_batch(self, queries, top_k):
        return self.reshape(super().fill_mask_batch(queries, top_k))


def _each_prediction(change):
    return lambda reply: [[change(*pred) for pred in preds] for preds in reply]


@pytest.mark.parametrize(
    "reshape",
    [
        iter,
        lambda reply: [None] * len(reply),
        _each_prediction(lambda token, p: (token, p)),
        _each_prediction(lambda token, p: TokenPrediction(token, str(p))),
        _each_prediction(lambda token, p: TokenPrediction(None, p)),
        _each_prediction(lambda token, p: TokenPrediction(token, 1.5)),
        _each_prediction(lambda token, p: TokenPrediction(token, 0.0)),
    ],
    ids=[
        "iterator",
        "entry-not-a-list",
        "plain-tuples",
        "str-probability",
        "none-token",
        "probability-above-one",
        "zero-probability",
    ],
)
def test_decode_and_prefill_reject_a_malformed_batch_reply(reshape):
    mlm = _BadReplyMLM(reshape)
    ctx = build_masked_context(["x", "y", "z"], (1, 2), 2, "[MASK]", 512)
    with pytest.raises(BackendError):
        generate_candidates(mlm, [(ctx, [0, 1])], branch_width=2, avg="geometric")
    passage = ClozePassage("p", "x _ y _ z", [ClozeQuestion("a", ["b"])] * 2)
    with pytest.raises(BackendError):
        prepare_context(passage, 0, "passage", "model", mlm_backend=mlm)


def test_generate_uses_at_most_top_k_predictions_per_query():
    class IgnoresTopK(MockMaskedLM):
        def fill_mask_batch(self, queries, top_k):
            return super().fill_mask_batch(queries, 5)

    backend = dict(vocabulary=["a", "b", "c", "d", "e"], fallback="seeded", salt=1)
    jobs = [(build_masked_context(["x", "y", "z"], (1, 2), 2, "[MASK]", 512), [0, 1])]
    expected = generate_candidates(MockMaskedLM(**backend), jobs, 2, "geometric")
    assert len(expected) == 2
    assert generate_candidates(IgnoresTopK(**backend), jobs, 2, "geometric") == expected


def test_generate_validates_order_and_width():
    mlm = MockMaskedLM(vocabulary=["a"])
    ctx = build_masked_context(["x", "y"], (1, 2), 1, "[MASK]", 512)
    with pytest.raises(ContractViolation):
        generate_candidates(mlm, [(ctx, [0, 1])], branch_width=2, avg="geometric")
    with pytest.raises(ContractViolation):
        generate_candidates(mlm, [(ctx, [0])], branch_width=0, avg="geometric")


def test_generate_rejects_empty_jobs_before_any_model_call():
    mlm = CountingMLM(MockMaskedLM(vocabulary=["a"]))
    for consume in (list, lambda candidates: None):
        with pytest.raises(ContractViolation):
            generate_candidates(mlm, [], 2, "geometric", consume, 1)
    assert mlm.batches == []


def test_generate_scores_each_candidate_under_avg():
    mlm = MockMaskedLM(vocabulary=["u", "v", "w"], fallback="seeded", salt=3)
    ctx = build_masked_context(["p", "q", "r", "s"], (1, 3), 3, "[MASK]", 512)
    jobs = [(ctx, decode_order("ctl", 3))]
    geo = generate_candidates(mlm, jobs, branch_width=3, avg="geometric")
    har = generate_candidates(mlm, jobs, branch_width=3, avg="HARMONIC")
    assert [c.step_probabilities for c in geo] == [c.step_probabilities for c in har]
    for cands, avg in ((geo, "geometric"), (har, "harmonic")):
        for c in cands:
            assert c.rank_score == rank_score(c.step_probabilities, avg)
    assert [c.rank_score for c in geo] != [c.rank_score for c in har]


def test_generate_rejects_an_unknown_average_before_any_model_call():
    mlm = CountingMLM(MockMaskedLM(vocabulary=["a"]))
    ctx = build_masked_context(["x", "y"], (1, 2), 1, "[MASK]", 512)
    for jobs in ([], [(ctx, [0])]):
        with pytest.raises(ContractViolation, match="unknown average"):
            generate_candidates(mlm, jobs, branch_width=2, avg="median")
    assert mlm.batches == []


def test_generate_deterministic_across_runs():
    mlm = MockMaskedLM(vocabulary=["u", "v", "w"], fallback="seeded", salt=3)
    ctx = build_masked_context(["p", "q", "r", "s"], (1, 3), 2, "[MASK]", 512)
    runs = []
    for _ in range(2):
        cands = generate_candidates(
            mlm, [(ctx, decode_order("ctl", 2))], branch_width=3, avg="geometric"
        )
        runs.append(
            json.dumps(
                [[c.text, c.step_probabilities, c.rank_score] for c in cands]
            )
        )
    assert runs[0] == runs[1]


def _random_mock_scenario(rnd):
    vocab_size = rnd.randint(2, 5)
    vocab = [f"w{i}" for i in range(vocab_size)]
    mask_count = rnd.randint(1, 3)
    left = ["ctx%d" % i for i in range(rnd.randint(0, 2))]
    right = ["end%d" % i for i in range(rnd.randint(0, 2))]
    tokens = left + ["ans"] * rnd.randint(1, 2) + right
    span = (len(left), len(left) + (len(tokens) - len(left) - len(right)))
    branch_width = rnd.randint(1, 6)
    strategy = rnd.choice(["l2r", "r2l", "ctl"])
    mlm = MockMaskedLM(vocabulary=vocab, fallback="seeded", salt=rnd.randint(0, 999))
    ctx = build_masked_context(tokens, span, mask_count, "[MASK]", 512)
    return mlm, ctx, decode_order(strategy, mask_count), branch_width


def test_generate_matches_brute_force_oracle_sample():
    rnd = random.Random(99)
    for _ in range(40):
        mlm, ctx, order, width = _random_mock_scenario(rnd)
        got = generate_candidates(mlm, [(ctx, order)], width, "geometric")
        expected = brute_force_candidates(mlm, ctx, order, width)
        assert [(c.token_strings, c.step_probabilities) for c in got] == [
            (strings, probs) for strings, probs in expected
        ]
        for cand, (_, probs) in zip(got, expected):
            assert abs(score_candidate(cand.step_probabilities) - math.prod(probs)) < 1e-9


def _plant_drops(rnd, mlm, jobs, width):
    """Empty table entries that kill a job's first step or single hypotheses
    at a random later step, found by walking each hypothesis greedily."""
    for ctx, order in jobs:
        first_pos = ctx.mask_positions[order[0]]
        if rnd.random() < 0.15:
            mlm.table[(fingerprint(ctx.tokens), first_pos)] = []
            continue
        for pred in mlm.fill_mask(ctx.tokens, first_pos, width):
            if len(order) < 2 or rnd.random() < 0.5:
                continue
            tokens = list(ctx.tokens)
            tokens[first_pos] = pred.token
            drop_at = rnd.randint(1, len(order) - 1)
            for step, slot in enumerate(order[1:], start=1):
                position = ctx.mask_positions[slot]
                if step == drop_at:
                    mlm.table[(fingerprint(tokens), position)] = []
                    break
                top = mlm.fill_mask(tokens, position, 1)
                if not top:
                    break
                tokens[position] = top[0].token


def test_lockstep_matches_oracle_per_job():
    rnd = random.Random(303)
    for _ in range(200):
        vocab = [f"w{i}" for i in range(rnd.randint(2, 5))]
        inner = MockMaskedLM(vocabulary=vocab, fallback="seeded", salt=rnd.randint(0, 999))
        jobs = []
        for _ in range(rnd.randint(1, 3)):
            left = [f"l{i}" for i in range(rnd.randint(0, 2))]
            right = [f"r{i}" for i in range(rnd.randint(0, 2))]
            answer_len = rnd.randint(1, 2)
            tokens = left + ["ans"] * answer_len + right
            mask_count = rnd.randint(1, 4)
            ctx = build_masked_context(
                tokens, (len(left), len(left) + answer_len), mask_count, "[MASK]", 512
            )
            jobs.append((ctx, decode_order(rnd.choice(STRATEGIES), mask_count)))
        width = rnd.randint(1, 6)
        drops = rnd.random() < 0.5
        if drops:
            _plant_drops(rnd, inner, jobs, width)
        mlm = CountingMLM(inner)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = generate_candidates(mlm, jobs, width, "geometric")
        expected = []
        expected_warnings = 0
        for ctx, order in jobs:
            survivors = brute_force_candidates(inner, ctx, order, width)
            expected += [(strings, probs, len(order)) for strings, probs in survivors]
            first = inner.fill_mask(ctx.tokens, ctx.mask_positions[order[0]], width)
            expected_warnings += len(first) - len(survivors) if first else 1
        assert [
            (c.token_strings, c.step_probabilities, len(c.step_probabilities)) for c in got
        ] == expected
        assert len(caught) == expected_warnings
        assert all(w.category is RuntimeWarning for w in caught)

        longest = max(len(order) for _, order in jobs)
        assert mlm.batches[0] == (len(jobs), width)
        assert all(top_k == 1 for _, top_k in mlm.batches[1:])
        assert len(mlm.batches) <= longest
        if not drops:
            assert len(mlm.batches) == longest


def test_generate_distractors_one_batch_call_per_decode_step():
    config = GenerationConfig()
    width = config.k * 7
    vocab = [f"v{i}" for i in range(30)]
    for answer in ("open wide", "open it wide", "open it very wide"):
        context = f"The boy will {answer} the door. Then he waits."
        start = context.index(answer)
        span = (start, start + len(answer))
        mock = MockMaskedLM(vocabulary=vocab, fallback="seeded", salt=5)
        drained = CountingMLM(mock)
        ranked, _ = eager_request(context, span, config, drained, MockNliClassifier())
        counts, branch_width = decode_plan(config, len(answer.split()))
        assert branch_width == width
        assert len(drained.batches) == max(counts)
        assert drained.batches[0] == (len(counts), width)
        # one query per hypothesis per decode step, as when each was its own pass
        assert len(drained.calls) == sum(1 + (c - 1) * width for c in counts)
        # pulled by selection, decoding hands over a prefix of that ranking and
        # sends no more queries
        pulled = CountingMLM(mock)
        result = generate_distractors(context, span, config, pulled, MockNliClassifier())
        assert result.all_candidates == ranked[: len(result.all_candidates)]
        assert len(pulled.calls) <= len(drained.calls)


# --- on-demand decoding: the bound and the certification rule ---------------

# the four largest probabilities below 1.0
NEAR_ONE = [1.0 - i * 2.0**-53 for i in (1, 2, 3, 4)]


def _step_probabilities(rnd, r):
    kind = rnd.randrange(3)
    if kind == 0:  # a constant run: rank_score returns the constant itself
        return [rnd.choice([*NEAR_ONE, 1.0, rnd.uniform(1e-6, 1.0)])] * r
    if kind == 1:
        return [rnd.choice([*NEAR_ONE, 1.0, rnd.uniform(1e-6, 1.0)]) for _ in range(r)]
    return [rnd.uniform(1e-6, 1.0) for _ in range(r)]


def test_bound_is_never_below_the_final_score():
    rnd = random.Random(27)
    for _ in range(3000):
        r = rnd.randint(2, 9)
        probs = _step_probabilities(rnd, r)
        for avg in AVERAGES:
            final = rank_score(probs, avg)
            bounds = [bound(probs[:t], r, avg) for t in range(1, r)]
            assert all(b >= final for b in bounds), (probs, avg)
            # filling a step never raises the bound
            assert bounds == sorted(bounds, reverse=True), (probs, avg)
    for avg in AVERAGES:
        assert bound([1.0], 3, avg) == bound([1.0, 1.0], 3, avg) == 1.0
        assert bound([0.5, 1.0], 3, avg) == bound([1.0, 0.5], 3, avg)
    # the padded harmonic mean of this constant run rounds one unit below the
    # constant, which is the finished candidate's score
    probs = [NEAR_ONE[0]] * 4
    assert bound(probs[:3], 4, "harmonic") == rank_score(probs, "harmonic") == NEAR_ONE[0]


def _tie_jobs():
    """A one-mask job finishing "g" at 0.8 and a two-mask job branching into
    "q" (1.0) and "c" (0.5), which finish as "q z" [1.0, 0.5] and "c d"
    [0.5, 1.0]: equal scores, "c d" first by text. "c"'s bound is that score."""
    one = build_masked_context(["a", "x", "b"], (1, 2), 1, "[MASK]", 512)
    two = build_masked_context(["a", "x", "b"], (1, 2), 2, "[MASK]", 512)
    table = {
        ("a [MASK] b", 1): [TokenPrediction("g", 0.8)],
        ("a [MASK] [MASK] b", 1): [TokenPrediction("q", 1.0), TokenPrediction("c", 0.5)],
        ("a q [MASK] b", 2): [TokenPrediction("z", 0.5)],
        ("a c [MASK] b", 2): [TokenPrediction("d", 1.0)],
    }
    return MockMaskedLM(table=table), [(one, [0]), (two, [0, 1])]


def _pulled(mlm, jobs, width, wanted, avg="geometric"):
    """The texts in the order ``generate_candidates`` hands them over, read
    with ``wanted`` candidates wanted, and the candidates it returns."""
    texts = []

    def consume(candidates):
        texts.extend(c.text for c in candidates)

    return texts, generate_candidates(mlm, jobs, width, avg, consume, wanted)


def test_a_live_bound_equal_to_a_finished_score_blocks_it():
    mlm, jobs = _tie_jobs()
    counting = CountingMLM(mlm)
    texts, returned = _pulled(counting, jobs, 2, 1)
    drained = generate_candidates(mlm, jobs, 2, "geometric")
    assert returned == drained
    # "q z" finished while "c" was live with a bound equal to its score, so
    # "c d", first on the tie, was decoded before "q z" came out
    assert texts == [c.text for c in rank_candidates(drained, "answer")] == ["g", "c d", "q z"]
    assert bound([0.5], 2, "geometric") == drained[1].rank_score == drained[2].rank_score
    # after the branch, one pass extended "q" alone (only its bound reached 0.8),
    # a second extended "c"
    assert counting.batches == [(2, 2), (1, 1), (1, 1)]


def test_pulled_candidates_come_out_in_rank_order_and_drain_to_the_full_list():
    rnd = random.Random(41)
    for _ in range(150):
        vocab = [f"w{i}" for i in range(rnd.randint(2, 6))]
        mlm = MockMaskedLM(vocabulary=vocab, fallback="seeded", salt=rnd.randint(0, 999))
        jobs = []
        for mask_count in sorted(rnd.sample(range(1, 5), rnd.randint(1, 3))):
            ctx = build_masked_context(["l", "ans", "r"], (1, 2), mask_count, "[MASK]", 512)
            jobs.append((ctx, decode_order(rnd.choice(STRATEGIES), mask_count)))
        width = rnd.randint(1, 6)
        for avg in AVERAGES:
            drained = generate_candidates(mlm, jobs, width, avg)
            ranked = sorted(drained, key=_rank)
            for wanted in (None, 1, 2, 3, 5):
                texts, returned = _pulled(mlm, jobs, width, wanted, avg)
                assert returned == drained
                assert texts == [c.text for c in ranked]
                # a reader that stops after j candidates gets the j best, and
                # the call returns just those, jobs in input order
                for j in range(len(ranked) + 1):
                    taken = []
                    returned = generate_candidates(
                        mlm, jobs, width, avg,
                        lambda candidates: taken.extend(itertools.islice(candidates, j)),
                        wanted,
                    )
                    assert taken == ranked[:j]
                    assert sorted(returned, key=_rank) == taken
                    rest = iter(drained)
                    assert all(any(c == d for d in rest) for c in returned)


class _NearOneMLM(MockMaskedLM):
    """Fills "x0", "x1", ... each at a probability drawn from ``NEAR_ONE``,
    1.0 and uniform(0.3, 1.0), seeded by the salted query, so a query's reply
    does not depend on when it is sent."""

    def fill_mask(self, tokens, mask_position, top_k):
        rnd = random.Random(f"{self.salt} {mask_position} {' '.join(tokens)}")
        probs = [rnd.choice([*NEAR_ONE, 1.0, rnd.uniform(0.3, 1.0)]) for _ in range(top_k)]
        return [TokenPrediction(f"x{i}", p) for i, p in enumerate(sorted(probs, reverse=True))]


def test_near_one_tables_keep_rank_order_and_send_no_empty_or_extra_batch():
    # near 1.0 a running score can round above its bound, where the floor
    # uses the bound instead
    rnd = random.Random(47)
    for _ in range(200):
        mlm = _NearOneMLM(salt=rnd.randint(0, 999))
        jobs = []
        for mask_count in sorted(rnd.sample(range(1, 10), rnd.randint(1, 3))):
            ctx = build_masked_context(["l", "ans", "r"], (1, 2), mask_count, "[MASK]", 512)
            jobs.append((ctx, decode_order(rnd.choice(STRATEGIES), mask_count)))
        width, avg, wanted = rnd.randint(1, 4), rnd.choice(AVERAGES), rnd.randint(1, 5)
        drained = CountingMLM(mlm)
        got = generate_candidates(drained, jobs, width, avg)
        ranked = [c.text for c in sorted(got, key=_rank)]
        for j in range(len(ranked) + 1):
            lazy, taken = CountingMLM(mlm), []
            generate_candidates(
                lazy, jobs, width, avg,
                lambda candidates: taken.extend(c.text for c in itertools.islice(candidates, j)),
                wanted,
            )
            assert taken == ranked[:j]
            assert all(size >= 1 for size, _ in lazy.batches)
            assert len(lazy.calls) <= len(drained.calls)


def _rank(c):
    return (-c.rank_score, len(c.step_probabilities), c.text)


def test_a_reader_that_reads_nothing_makes_no_call():
    mlm, jobs = _tie_jobs()
    counting = CountingMLM(mlm)
    assert generate_candidates(counting, jobs, 2, "geometric", lambda candidates: None, 1) == []
    assert counting.batches == []


def test_the_default_reader_drains_every_candidate_in_one_pass_per_step():
    rnd = random.Random(43)
    for _ in range(60):
        vocab = [f"w{i}" for i in range(6)]  # more than the widest branch
        mlm = MockMaskedLM(vocabulary=vocab, fallback="seeded", salt=rnd.randint(0, 999))
        jobs = []
        for mask_count in sorted(rnd.sample(range(1, 5), rnd.randint(1, 3))):
            ctx = build_masked_context(["l", "ans", "r"], (1, 2), mask_count, "[MASK]", 512)
            jobs.append((ctx, decode_order(rnd.choice(STRATEGIES), mask_count)))
        width = rnd.randint(1, 4)
        drained = CountingMLM(mlm)
        got = generate_candidates(drained, jobs, width, "geometric")
        # step 0 branches every job; each later pass extends every live hypothesis
        live = [sum(len(order) > step for _, order in jobs) * width for step in range(4)]
        assert drained.batches == [(len(jobs), width)] + [(n, 1) for n in live[1:] if n]
        # a reader that reads every candidate itself decodes the same way
        read = CountingMLM(mlm)
        assert generate_candidates(read, jobs, width, "geometric", lambda c: [*c]) == got
        assert read.calls == drained.calls


class _RecordingMLM(MockMaskedLM):
    """Keeps each query's token list as it was sent, beside a copy taken then."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.sent = []

    def fill_mask_batch(self, queries, top_k):
        self.sent += [(tokens, list(tokens)) for tokens, _ in queries]
        return super().fill_mask_batch(queries, top_k)


def test_decoding_never_rewrites_a_query_it_has_sent():
    mlm = _RecordingMLM(vocabulary=["x", "y"], fallback="seeded", salt=1)
    ctx = build_masked_context(["a", "ans", "b"], (1, 2), 3, "[MASK]", 512)
    got = generate_candidates(mlm, [(ctx, [0, 1, 2])], 2, "geometric")
    assert len(got) == 2 and len(mlm.sent) == 5  # one branch query, two per later step
    assert [tokens for tokens, _ in mlm.sent] == [sent for _, sent in mlm.sent]
    assert ctx.tokens == ["a", "[MASK]", "[MASK]", "[MASK]", "b"]


class _ScriptedMLM(MockMaskedLM):
    """Step 0 of mask count c gives the fills ``branch[c]``; every later step
    of a hypothesis repeats its first fill, at ``later[first fill]``."""

    def __init__(self, branch, later):
        super().__init__()
        self.branch, self.later = branch, later

    def fill_mask(self, tokens, mask_position, top_k):
        first = tokens[1]
        fills = self.branch[len(tokens) - 2] if first == "[MASK]" else [(first, self.later[first])]
        return [TokenPrediction(token, p) for token, p in fills[:top_k]]


def _scripted_first(branch, later, avg="geometric"):
    """The first candidate a one-candidate reader takes from jobs of each
    mask count in ``branch``, and each pass as the set of first fills of the
    hypotheses it extended, from a branch of two."""
    jobs = [
        (build_masked_context(["a", "x", "b"], (1, 2), count, "[MASK]", 512), [*range(count)])
        for count in sorted(branch)
    ]
    mlm = CountingMLM(_ScriptedMLM(branch, later))
    first = []
    generate_candidates(
        mlm, jobs, 2, avg, lambda candidates: first.append(next(candidates)), 1
    )
    calls = iter(mlm.calls)
    return first, [{next(calls)[0].split()[1] for _ in range(size)} for size, _ in mlm.batches]


def test_a_pass_extends_every_hypothesis_whose_bound_reaches_the_floor():
    first, passes = _scripted_first(
        {2: [("p", 0.9), ("q", 0.3)], 3: [("r", 0.93), ("s", 0.4)], 4: [("t", 0.99), ("u", 0.7)]},
        {"p": 0.9, "q": 0.9, "r": 0.93, "s": 0.9, "t": 0.99, "u": 0.95},
    )
    assert [c.text for c in first] == ["t t t t"]
    assert passes == [{"[MASK]"}, {"p", "r", "t"}, {"r", "t"}, {"t"}]
    # the first pass guessed the floor at the second best estimate, "r"'s
    # 0.93, and extended every hypothesis whose bound reaches it: "p", "r"
    # and "t", of three mask counts, with no regard to the steps they have left
    assert min(bound([0.9], 2, "geometric"), bound([0.93], 3, "geometric")) >= 0.93
    # "u" is of the longest count, but its bound is below the floor in every
    # pass (the guess, then "r r r"'s 0.93), though it clears the exact floor
    # of the second pass, "p p"'s 0.9; "s"'s bound clears neither
    assert 0.93 > bound([0.7], 4, "geometric") > 0.9 > bound([0.4], 3, "geometric")
    assert not any({"s", "u"} & extended for extended in passes)
    # one pass per step of the count-4 job
    assert len(passes) == 4


def test_a_branched_hypothesis_is_guessed_at_its_jobs_top_first_fill():
    first, passes = _scripted_first(
        {3: [("r", 0.8), ("s", 0.1)], 4: [("t", 0.99), ("u", 0.9)]},
        {"r": 0.9, "s": 0.9, "t": 0.99, "u": 0.99},
    )
    assert [c.text for c in first] == ["t t t t"]
    assert passes == [{"[MASK]"}] + [{"t", "u"}] * 3
    # "u"'s estimate pads its three steps left with "t"'s 0.99, the top first
    # fill of its job, and is the second best, so it is the first guess; that
    # is above the bound of "r", which is never extended, where a guess from
    # "u"'s running score, 0.9, would have reached "r"
    guess = rank_score([0.9, 0.99, 0.99, 0.99], "geometric")
    assert bound([0.9], 4, "geometric") >= guess > bound([0.8], 3, "geometric") > 0.9


def test_a_running_score_above_its_bound_does_not_lift_the_floor():
    near = 1.0 - 2 * 2.0**-53
    first, passes = _scripted_first(
        {1: [("g", 0.5), ("h", 0.1)], 2: [("p", 0.3), ("q", 0.2)], 8: [("r", 1.0), ("s", 1.0)]},
        {"p": 0.3, "q": 0.2, "r": near, "s": near},
        "harmonic",
    )
    assert [c.text for c in first] == ["r r r r r r r r"]
    # after six steps the running score of "r" and "s" rounds one unit above
    # their bound. Their job's top first fill is 1.0, so their estimate pads
    # their steps left as the bound does and is no higher: the guess reaches them
    run = [1.0] + [near] * 5
    estimate = rank_score(run + [1.0] * 2, "harmonic")
    assert rank_score(run, "harmonic") > bound(run, 8, "harmonic") >= estimate
    # every pass, that one too, reaches what the exact floor ("g"'s 0.5)
    # reaches: "r" and "s", not "p" or "q", whose bounds are below it from
    # the branch on
    assert bound([0.3], 2, "harmonic") < 0.5
    assert passes == [{"[MASK]"}] + [{"r", "s"}] * 7
