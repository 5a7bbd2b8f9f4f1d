"""The package's record types: construction, checks, equality, hashing, repr,
immutability, copying and the field order of the wire formats."""

import copy
import inspect
import json
import pickle
import re

import pytest

from clozegen import (
    BackendInfo,
    Candidate,
    ClozePassage,
    ClozeQuestion,
    ContextAnswerPair,
    ContractViolation,
    DistractorSet,
    EvalItemResult,
    EvalReport,
    GenerationConfig,
    GenerationResult,
    MaskedContext,
    PreparedContext,
    RenderedCloze,
    SpanError,
    TraceEntry,
    result_to_dict,
)
from clozegen.metrics import METRIC_NAMES, report_to_json

QUESTION = ClozeQuestion("cat", ["dog", "cow", "hen"])
ITEM = EvalItemResult("p#0", 1.0, 0.5, 1.0, 0.75, [1, 3])
CONFIG_FIELDS = ("n_mask", "dispersion", "k", "m_s", "strategy", "avg", "seed")

# type -> (field names in order, one value per field, the defaults,
#          [(bad fields, the error __init__ raises, a part of its message)])
RECORDS = {
    BackendInfo: (
        ("name", "max_sequence_length", "mask_token"),
        ("mock-mlm", 512, "[MASK]"),
        {},
        [
            ({"max_sequence_length": 0}, ContractViolation, "max_sequence_length must be >= 1"),
            ({"mask_token": ""}, ContractViolation, "nonempty string"),
            ({"mask_token": 5}, ContractViolation, "nonempty string"),
        ],
    ),
    ClozeQuestion: (("answer", "distractors"), ("cat", ["dog", "cow", "hen"]), {}, []),
    ClozePassage: (
        ("id", "text_with_blanks", "questions"),
        ("p", "A _ sat.", [QUESTION]),
        {},
        [],
    ),
    ContextAnswerPair: (
        ("id", "context", "answer_span"),
        ("x", "a cat sat", (2, 5)),
        {},
        [
            ({"answer_span": (4, 99)}, SpanError, "outside context of pair 'x'"),
            ({"answer_span": (3, 3)}, SpanError, "outside context"),
            ({"context": "a    sat"}, SpanError, "holds no text"),
        ],
    ),
    PreparedContext: (("context", "answer_span"), ("A _ sat.", (2, 3)), {}, []),
    GenerationConfig: (
        CONFIG_FIELDS,
        (2, 0, 5, 7, "l2r", "harmonic", 3),
        {"n_mask": 0, "dispersion": 1, "k": 3, "m_s": None, "strategy": "ctl",
         "avg": "geometric", "seed": 0},
        [
            ({"n_mask": -1}, ContractViolation, "n_mask must be >= 0"),
            ({"dispersion": -1}, ContractViolation, "dispersion must be >= 0"),
            ({"k": 0}, ContractViolation, "k must be >= 1"),
            ({"m_s": 0}, ContractViolation, "m_s must be >= 1"),
            ({"seed": -1}, ContractViolation, "seed must be >= 0"),
            ({"k": 2.0}, ContractViolation, "k must be an integer, not 2.0"),
            ({"m_s": "7"}, ContractViolation, "m_s must be an integer"),
            ({"seed": True}, ContractViolation, "seed must be an integer"),
            ({"strategy": "zigzag"}, ContractViolation, "unknown strategy 'zigzag'"),
            ({"avg": "median"}, ContractViolation, "unknown average 'median'"),
        ],
    ),
    MaskedContext: (
        ("tokens", "mask_positions"),
        (["a", "[MASK]", "[MASK]"], [1, 2]),
        {},
        [
            ({"mask_positions": []}, ContractViolation, "must be nonempty"),
            ({"mask_positions": [2, 1]}, ContractViolation, "contiguous ascending"),
            ({"mask_positions": [2, 3]}, ContractViolation, "outside token sequence"),
            ({"mask_positions": [0, 1]}, ContractViolation, "the same mask token"),
        ],
    ),
    Candidate: (
        ("token_strings", "text", "step_probabilities", "rank_score"),
        (["big", "dog"], "big dog", [0.5, 0.5], 0.5),
        {},
        [],
    ),
    EvalItemResult: (
        ("item_id", "p_at_1", "f1_at_3", "mrr_at_10", "ndcg_at_10", "matched_ranks"),
        ("p#0", 1.0, 0.5, 1.0, 0.75, [1, 3]),
        {},
        [],
    ),
    EvalReport: (
        ("per_item", "averages", "item_count"),
        ([ITEM], {name: 50.0 for name in METRIC_NAMES}, 1),
        {},
        [],
    ),
    GenerationResult: (
        ("distractor_set", "all_candidates", "config_echo"),
        (DistractorSet(["dog"], "cat"), [], GenerationConfig()),
        {},
        [],
    ),
    RenderedCloze: (
        ("stem", "options", "answer_index", "underfilled"),
        ("A _____ sat.", ["dog", "cat"], 1, True),
        {},
        [],
    ),
    TraceEntry: (
        ("candidate", "stage", "counterpart"),
        ("kitty", "answer-entailment", "cat"),
        {},
        [],
    ),
    DistractorSet: (
        ("distractors", "answer", "trace", "underfilled"),
        (["dog"], "cat", [TraceEntry("kitty", "answer-entailment", "cat")], True),
        {"trace": [], "underfilled": False},
        [],
    ),
}
UNCHECKED = (ClozeQuestion, PreparedContext, ClozePassage, TraceEntry, Candidate, RenderedCloze)
SHARED_INIT = (*UNCHECKED, EvalItemResult, EvalReport, GenerationResult)


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_behaves_like_a_value(cls):
    names, values, defaults, bad = RECORDS[cls]
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
    assert tuple(getattr(record, name) for name in names) == values
    required = {n: v for n, v in zip(names, values) if n not in defaults}
    defaulted = cls(**required)
    assert {n: getattr(defaulted, n) for n in defaults} == defaults
    for changes, error, message in bad:
        with pytest.raises(error, match=message):
            cls(**{**dict(zip(names, values)), **changes})

    assert record != values and record != object()
    assert all(record != other(*RECORDS[other][1]) for other in RECORDS if other is not cls)
    same_arity = [o for o in UNCHECKED if o is not cls and len(RECORDS[o][0]) == len(names)]
    assert all(record != other(*values) for other in same_arity)
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(record) == f"{cls.__name__}({fields})"

    twin = cls(*values)
    if all(map(_hashable, values)):
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(twin)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == twin

    if cls is GenerationConfig:
        assert cls(**{**dict(zip(names, values)), "strategy": "L2R", "avg": "Harmonic"}) == record
        result = GenerationResult(DistractorSet([], "cat"), [], record)
        assert result_to_dict(result)["config"] == dict(zip(names, values))
        assert list(result_to_dict(result)["config"]) == list(names)
    if cls is EvalItemResult:
        report = EvalReport([record], {name: 0.0 for name in METRIC_NAMES}, 1)
        (item,) = json.loads(report_to_json(report))["per_item"]
        assert list(item) == list(names) and list(item.values()) == list(values)



@pytest.mark.parametrize("cls", SHARED_INIT, ids=lambda cls: cls.__name__)
def test_shared_constructor_binds_values_then_keywords(cls):
    names, values, _, _ = RECORDS[cls]
    assert "__init__" not in vars(cls)
    assert str(inspect.signature(cls)) == "(*values, **fields)"
    record = cls(*values)
    for split in range(len(names) + 1):
        assert cls(*values[:split], **dict(zip(names[split:], values[split:]))) == record

    prefix = f"{cls.__name__}({', '.join(names)}): "
    wrong = [
        ((*values, values[0]), {}, f"{len(names) + 1} values given"),
        (values[:-1], {}, f"field {names[-1]!r} missing"),
        (values, {"colour": "red"}, "unknown field 'colour'"),
        (values, {names[0]: values[0]}, f"field {names[0]!r} given twice"),
    ]
    for args, kwargs, problem in wrong:
        with pytest.raises(TypeError, match=re.escape(prefix + problem)):
            cls(*args, **kwargs)
