"""Acceptance suite: one test per release criterion, at pinned tolerances.

Criteria 1-6 are self-contained. Criterion 7 needs the public CLOTH
high-school test split on disk (point CLOTH_TEST_HIGH_DIR at the
directory of passage JSON files, or place it under data/cloth/test/high).
Criterion 8 additionally needs real checkpoints configured through
CLOZEGEN_EVAL_MODEL / CLOZEGEN_EVAL_NLI and hours of runtime; both skip
with instructions when their inputs are absent.
"""

import json
import math
import os
import random
from pathlib import Path

import pytest

from clozegen.backends import MockMaskedLM
from clozegen.cli import main
from clozegen.data import load_cloth
from clozegen.generation import (
    build_masked_context,
    decode_order,
    generate_candidates,
    rank_score,
    score_candidate,
)
from clozegen.metrics import compute_item, evaluate_dataset
from clozegen.selection import select_distractors

from tests.oracles import brute_force_candidates, brute_force_metrics
from tests.selection_scenarios import ANSWER_SPAN, CONTEXT, SCENARIOS, build_nli
from tests.test_cli import make_mock_document


def test_criterion_1_decode_order_suite():
    assert decode_order("l2r", 5) == [0, 1, 2, 3, 4]
    assert decode_order("r2l", 5) == [4, 3, 2, 1, 0]
    assert decode_order("ctl", 5) == [0, 4, 1, 3, 2]


def test_criterion_2_oracle_equivalence_200_random_configs():
    rnd = random.Random(2024)
    checked = 0
    while checked < 220:
        vocab = [f"w{i}" for i in range(rnd.randint(2, 5))]
        mask_count = rnd.randint(1, 3)
        left = [f"l{i}" for i in range(rnd.randint(0, 2))]
        right = [f"r{i}" for i in range(rnd.randint(0, 2))]
        answer_len = rnd.randint(1, 2)
        tokens = left + ["ans"] * answer_len + right
        span = (len(left), len(left) + answer_len)
        branch_width = rnd.randint(1, 6)
        order = decode_order(rnd.choice(["l2r", "r2l", "ctl"]), mask_count)
        mlm = MockMaskedLM(
            vocabulary=vocab, fallback="seeded", salt=rnd.randint(0, 100_000)
        )
        context = build_masked_context(tokens, span, mask_count, "[MASK]", 512)

        got = generate_candidates(mlm, [(context, order)], branch_width, "geometric")
        expected = brute_force_candidates(mlm, context, order, branch_width)
        assert [c.token_strings for c in got] == [strings for strings, _ in expected]
        for candidate, (_, probs) in zip(got, expected):
            assert len(candidate.step_probabilities) == len(probs)
            for a, b in zip(candidate.step_probabilities, probs):
                assert abs(a - b) <= 1e-9
            assert abs(score_candidate(candidate.step_probabilities) - math.prod(probs)) <= 1e-9
        checked += 1


def test_criterion_3_ranking_math():
    rnd = random.Random(31337)
    for _ in range(1000):
        r = rnd.randint(1, 8)
        probs = [rnd.uniform(1e-9, 1.0) for _ in range(r)]
        geometric = rank_score(probs, "geometric")
        product = score_candidate(probs)
        assert abs(geometric - product ** (1.0 / r)) <= 1e-9
    for _ in range(200):
        p = rnd.uniform(1e-9, 1.0)
        r = rnd.randint(1, 8)
        constant = [p] * r
        assert rank_score(constant, "geometric") == rank_score(constant, "harmonic")


def test_criterion_4_selector_scenarios():
    assert len(SCENARIOS) >= 10
    names = {s["name"] for s in SCENARIOS}
    # the two cases the criterion calls out by name must be present
    assert "one-way-entailment-retained" in names
    assert "pairwise-removes-lower-ranked" in names
    for scenario in SCENARIOS:
        result = select_distractors(
            build_nli(scenario),
            CONTEXT,
            scenario["candidates"],
            scenario["k"],
            answer_span=ANSWER_SPAN,
        )
        assert result.distractors == scenario["expected"], scenario["name"]
        assert result.underfilled is scenario["underfilled"], scenario["name"]
        assert [
            (e.candidate, e.stage, e.counterpart) for e in result.trace
        ] == scenario["expected_trace"], scenario["name"]


def test_criterion_5_metric_oracle():
    # worked example: first hit at rank 2
    item = compute_item(["miss", "hit", "other"], ["hit", "g2", "g3"])
    assert item.mrr_at_10 == pytest.approx(0.5, abs=1e-12)
    assert item.f1_at_3 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert item.p_at_1 == 0.0

    rnd = random.Random(555)
    pool = [f"w{i}" for i in range(9)]
    for _ in range(50):
        gold = rnd.sample(pool, 3)
        generated = [rnd.choice(pool) for _ in range(rnd.randint(0, 12))]
        got = compute_item(generated, gold)
        expected = brute_force_metrics(generated, gold)
        values = (got.p_at_1, got.f1_at_3, got.mrr_at_10, got.ndcg_at_10)
        for a, b in zip(values, expected):
            assert abs(a - b) <= 1e-9


def test_criterion_6_generate_determinism(tmp_path):
    config_path = tmp_path / "mock.json"
    config_path.write_text(json.dumps(make_mock_document()), encoding="utf-8")
    pairs_path = tmp_path / "pairs.jsonl"
    records = [
        {
            "id": "p1",
            "context": "The boy will open the door. Then he waits.",
            "answer_start": 13,
            "answer_end": 17,
        },
        {
            "id": "p2",
            "context": "The boy will open the door. Then he waits.",
            "answer_text": "waits.",
        },
    ]
    pairs_path.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
    )
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"run-{run}.jsonl"
        code = main(
            [
                "generate",
                str(pairs_path),
                "--model",
                f"mock:{config_path}",
                "--nli-model",
                f"mock:{config_path}",
                "--seed",
                "11",
                "--top-k",
                "2",
                "--search-multiplier",
                "2",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _cloth_high_test_dir():
    env = os.environ.get("CLOTH_TEST_HIGH_DIR")
    if env:
        return Path(env)
    default = Path(__file__).resolve().parent.parent / "data" / "cloth" / "test" / "high"
    return default if default.is_dir() else None


def test_criterion_7_cloth_dataset_contract():
    directory = _cloth_high_test_dir()
    if directory is None or not directory.is_dir():
        pytest.skip(
            "CLOTH high test split not present; set CLOTH_TEST_HIGH_DIR to the "
            "directory of high*.json test passages (or place them under "
            "data/cloth/test/high) to run this criterion"
        )
    passages = list(load_cloth(directory))
    assert len(passages) == 478
    mean_questions = sum(len(p.questions) for p in passages) / len(passages)
    assert abs(mean_questions - 17.41) <= 0.01


# Reported reference scores for the BERT-large single-word preset.
_REFERENCE = {"p_at_1": 14.00, "f1_at_3": 7.67, "mrr_at_10": 19.03, "ndcg_at_10": 22.94}


def test_criterion_8_full_checkpoint_evaluation(tmp_path):
    directory = _cloth_high_test_dir()
    model = os.environ.get("CLOZEGEN_EVAL_MODEL")
    nli_model = os.environ.get("CLOZEGEN_EVAL_NLI")
    if directory is None or not directory.is_dir() or not model or not nli_model:
        pytest.skip(
            "extended criterion: set CLOZEGEN_EVAL_MODEL (e.g. bert-large-uncased), "
            "CLOZEGEN_EVAL_NLI (an entailment checkpoint) and CLOTH_TEST_HIGH_DIR, "
            "then expect hours of runtime"
        )
    report_path = tmp_path / "report.json"
    code = main(
        [
            "evaluate",
            str(directory),
            "--model",
            model,
            "--nli-model",
            nli_model,
            "--preset",
            "cloth",
            "--output",
            str(report_path),
        ]
    )
    assert code == 0
    averages = json.loads(report_path.read_text(encoding="utf-8"))["averages"]
    drift = {
        name: abs(averages[name] - reference)
        for name, reference in _REFERENCE.items()
    }
    assert all(d <= 1.5 for d in drift.values()), (
        f"averages {averages} deviate from the reference {_REFERENCE} by {drift}; "
        f"checkpoints: mlm={model!r} nli={nli_model!r} (report checkpoint hashes "
        "when filing the deviation)"
    )


def test_full_report_arithmetic_consistency():
    # dataset averages are exactly the per-item means, scaled to percent
    rnd = random.Random(777)
    pool = [f"w{i}" for i in range(8)]
    batches = []
    for _ in range(25):
        gold = rnd.sample(pool, 3)
        generated = [rnd.choice(pool) for _ in range(rnd.randint(1, 10))]
        batches.append((generated, gold))
    report = evaluate_dataset(batches, ids=[f"item-{i}" for i in range(len(batches))])
    for name in ("p_at_1", "f1_at_3", "mrr_at_10", "ndcg_at_10"):
        mean = sum(getattr(r, name) for r in report.per_item) / report.item_count
        assert report.averages[name] == pytest.approx(100.0 * mean, abs=1e-12)
