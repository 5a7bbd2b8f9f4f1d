import json
import math
import random

import pytest

from clozegen.errors import ContractViolation
from clozegen.metrics import (
    compute_item,
    evaluate_dataset,
    format_report_table,
    report_to_dict,
    report_to_json,
)

from tests.oracles import brute_force_metrics

GOLD = ["g1", "g2", "g3"]


def test_compute_item_top_hit():
    result = compute_item(["g1", "x", "y"], GOLD)
    assert result.p_at_1 == 1.0
    assert result.mrr_at_10 == 1.0
    assert result.matched_ranks == [1]


def test_compute_item_rank_two_hit():
    result = compute_item(["x", "g1", "y"], GOLD)
    assert result.p_at_1 == 0.0
    assert result.mrr_at_10 == pytest.approx(0.5)
    assert result.f1_at_3 == pytest.approx(1.0 / 3.0)
    assert result.matched_ranks == [2]


def test_compute_item_perfect_ndcg():
    result = compute_item(["g1", "g2", "g3", "x"], GOLD)
    assert result.ndcg_at_10 == pytest.approx(1.0)
    assert result.f1_at_3 == pytest.approx(1.0)


def test_compute_item_empty_generated():
    result = compute_item([], GOLD)
    assert (result.p_at_1, result.f1_at_3, result.mrr_at_10, result.ndcg_at_10) == (
        0.0,
        0.0,
        0.0,
        0.0,
    )
    assert result.matched_ranks == []


def test_compute_item_duplicates_count_once():
    dup = compute_item(["x", "x", "g1"], GOLD)
    plain = compute_item(["x", "g1"], GOLD)
    assert dup.mrr_at_10 == plain.mrr_at_10 == 0.5
    assert dup.ndcg_at_10 == plain.ndcg_at_10


def test_compute_item_gold_permutation_invariance():
    rnd = random.Random(3)
    generated = ["a", "g2", "b", "g3", "c"]
    baseline = compute_item(generated, GOLD)
    for _ in range(5):
        shuffled = GOLD[:]
        rnd.shuffle(shuffled)
        other = compute_item(generated, shuffled)
        assert (
            other.p_at_1,
            other.f1_at_3,
            other.mrr_at_10,
            other.ndcg_at_10,
        ) == (
            baseline.p_at_1,
            baseline.f1_at_3,
            baseline.mrr_at_10,
            baseline.ndcg_at_10,
        )


def test_compute_item_requires_gold():
    with pytest.raises(ContractViolation):
        compute_item(["x"], [])


def test_metric_bounds_and_mrr_dominates_p1():
    rnd = random.Random(17)
    pool = [f"w{i}" for i in range(12)]
    for _ in range(200):
        gold = rnd.sample(pool, 3)
        generated = [rnd.choice(pool) for _ in range(rnd.randint(0, 12))]
        result = compute_item(generated, gold)
        for value in (result.p_at_1, result.f1_at_3, result.mrr_at_10, result.ndcg_at_10):
            assert 0.0 <= value <= 1.0
        assert result.mrr_at_10 >= result.p_at_1
        if set(generated[:3]) >= set(gold):
            assert result.ndcg_at_10 == pytest.approx(1.0)


def test_metrics_against_relevance_vector_oracle():
    rnd = random.Random(23)
    pool = [f"w{i}" for i in range(10)]
    for _ in range(100):
        gold = rnd.sample(pool, 3)
        generated = [rnd.choice(pool) for _ in range(rnd.randint(0, 14))]
        result = compute_item(generated, gold)
        expected = brute_force_metrics(generated, gold)
        got = (result.p_at_1, result.f1_at_3, result.mrr_at_10, result.ndcg_at_10)
        for g, e in zip(got, expected):
            assert abs(g - e) < 1e-9


def test_evaluate_dataset_averages_as_percentages():
    report = evaluate_dataset([(["g1"], GOLD), (["x"], GOLD)], ids=["a", "b"])
    assert report.item_count == 2
    assert report.averages["p_at_1"] == pytest.approx(50.0)
    single = evaluate_dataset([(["x", "g1", "y"], GOLD)], ids=["a"])
    assert single.averages["mrr_at_10"] == pytest.approx(50.0)
    assert single.averages["f1_at_3"] == pytest.approx(100.0 / 3.0)
    # with fewer than three retrieved, precision uses the retrieved count
    short = compute_item(["x", "g1"], GOLD)
    assert short.f1_at_3 == pytest.approx(0.4)


def test_evaluate_dataset_validation():
    with pytest.raises(ContractViolation):
        evaluate_dataset([], ids=[])
    with pytest.raises(ContractViolation):
        evaluate_dataset([(["x"], GOLD)], ids=["a", "b"])


def test_evaluate_dataset_ids():
    report = evaluate_dataset([(["g1"], GOLD)], ids=["passage#0"])
    assert report.per_item[0].item_id == "passage#0"


def test_report_serialization_and_table():
    report = evaluate_dataset([(["g1", "x"], GOLD)], ids=["a"])
    payload = json.loads(report_to_json(report))
    assert payload["item_count"] == 1
    assert payload["per_item"][0]["item_id"] == "a"
    assert payload["averages"]["p_at_1"] == pytest.approx(100.0)
    table = format_report_table(report)
    lines = table.splitlines()
    assert lines[0].split() == ["Items", "P@1", "F1@3", "MRR@10", "NDCG@10"]
    assert "100.00" in lines[1]
    assert report_to_dict(report)["averages"]["ndcg_at_10"] == pytest.approx(
        100.0 / (sum(1 / math.log2(i + 2) for i in range(3)))
    )
