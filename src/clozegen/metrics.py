"""Ranking metrics comparing generated distractors against gold sets.

All four metrics treat relevance as binary (a generated string matches a
gold distractor or it does not) and are computed per item, then averaged
over the dataset and reported as percentages.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

from .errors import ContractViolation, FrozenRecord
from .generation import normalize_text

METRIC_NAMES = ("p_at_1", "f1_at_3", "mrr_at_10", "ndcg_at_10")
_METRIC_HEADERS = {
    "p_at_1": "P@1",
    "f1_at_3": "F1@3",
    "mrr_at_10": "MRR@10",
    "ndcg_at_10": "NDCG@10",
}


class EvalItemResult(FrozenRecord):
    """One item's four metrics, each in [0, 1], and the 1-based ranks of its gold matches."""

    __slots__ = ("item_id", "p_at_1", "f1_at_3", "mrr_at_10", "ndcg_at_10", "matched_ranks")


class EvalReport(FrozenRecord):
    """Per-item metrics plus dataset averages expressed as percentages."""

    __slots__ = ("per_item", "averages", "item_count")


def compute_item(
    generated: Sequence[str], gold: Sequence[str], item_id: str = ""
) -> EvalItemResult:
    """Score one ranked candidate list against its gold distractors.

    P@1 checks the top candidate, F1@3 balances precision and recall over
    the top three, MRR@10 rewards the first hit's rank, and NDCG@10 sums
    discounted gains 1/log2(rank+1) against the ideal placement of the
    gold set. Duplicate generated strings count once, at their first rank.
    A bare ``str`` for either list is a ContractViolation.
    """
    for name, texts in (("generated", generated), ("gold", gold)):
        if isinstance(texts, str):
            raise ContractViolation(f"{name} must be a sequence of texts, not a str")
    if not gold:
        raise ContractViolation("gold distractor set must be nonempty")
    gold_keys = {normalize_text(g) for g in gold}

    seen = set()
    ranked = []
    for text in generated:
        key = normalize_text(text)
        if key in seen:
            continue
        seen.add(key)
        ranked.append(key)

    p_at_1 = 1.0 if ranked and ranked[0] in gold_keys else 0.0

    top3 = ranked[:3]
    hits3 = sum(1 for key in top3 if key in gold_keys)
    if hits3:
        precision = hits3 / len(top3)
        recall = hits3 / len(gold_keys)
        f1_at_3 = 2 * precision * recall / (precision + recall)
    else:
        f1_at_3 = 0.0

    top10 = ranked[:10]
    matched_ranks = [i + 1 for i, key in enumerate(top10) if key in gold_keys]
    mrr_at_10 = 1.0 / matched_ranks[0] if matched_ranks else 0.0

    dcg = sum(1.0 / math.log2(rank + 1) for rank in matched_ranks)
    ideal_hits = min(len(gold_keys), 10)
    idcg = sum(1.0 / math.log2(rank + 1) for rank in range(1, ideal_hits + 1))
    ndcg_at_10 = dcg / idcg

    return EvalItemResult(item_id, p_at_1, f1_at_3, mrr_at_10, ndcg_at_10, matched_ranks)


def evaluate_dataset(
    results: Sequence[tuple[Sequence[str], Sequence[str]]],
    ids: Sequence[str],
) -> EvalReport:
    """Aggregate per-item metrics over (generated, gold) pairs."""
    if not results:
        raise ContractViolation("results must be nonempty")
    if len(ids) != len(results):
        raise ContractViolation("ids must align one-to-one with results")
    per_item = [
        compute_item(generated, gold, item_id)
        for (generated, gold), item_id in zip(results, ids)
    ]
    averages = {
        name: 100.0 * sum(getattr(r, name) for r in per_item) / len(per_item)
        for name in METRIC_NAMES
    }
    return EvalReport(per_item=per_item, averages=averages, item_count=len(per_item))


def report_to_dict(report: EvalReport) -> dict:
    return {
        "item_count": report.item_count,
        "averages": {k: report.averages[k] for k in METRIC_NAMES},
        "per_item": [
            {name: getattr(r, name) for name in EvalItemResult.__slots__}
            for r in report.per_item
        ],
    }


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report_to_dict(report), ensure_ascii=False, indent=2)


def format_report_table(report: EvalReport) -> str:
    """Aligned two-decimal percentage table of the dataset averages."""
    headers = ["Items"] + [_METRIC_HEADERS[name] for name in METRIC_NAMES]
    values = [str(report.item_count)] + [
        f"{report.averages[name]:.2f}" for name in METRIC_NAMES
    ]
    widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
    head = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    body = "  ".join(v.ljust(w) for v, w in zip(values, widths))
    return f"{head}\n{body}"
