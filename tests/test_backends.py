import json
import os
import random

import pytest

from clozegen.backends import (
    CONTRADICTION,
    ENTAILMENT,
    NEUTRAL,
    BackendInfo,
    MockMaskedLM,
    MockNliClassifier,
    TokenPrediction,
    sort_predictions,
)
from clozegen.errors import ContractViolation, ParseError, SequenceLengthError

from tests.conftest import table_entry


def test_sort_predictions_probability_then_lexicographic():
    preds = [
        TokenPrediction("zebra", 0.5),
        TokenPrediction("apple", 0.5),
        TokenPrediction("mango", 0.9),
    ]
    assert sort_predictions(preds) == [
        TokenPrediction("mango", 0.9),
        TokenPrediction("apple", 0.5),
        TokenPrediction("zebra", 0.5),
    ]


def test_backend_info_validation():
    with pytest.raises(ContractViolation):
        BackendInfo("x", 0, "[MASK]")
    with pytest.raises(ContractViolation):
        BackendInfo("x", 10, "")


def test_mock_tokenize_whitespace():
    mlm = MockMaskedLM()
    assert mlm.tokenize("hello") == ["hello"]
    assert mlm.tokenize("open the door") == ["open", "the", "door"]
    assert mlm.detokenize(["open", "the", "door"]) == "open the door"


def test_mock_tokenize_rejects_empty():
    with pytest.raises(ContractViolation):
        MockMaskedLM().tokenize("")


def test_mock_tokenize_offsets():
    mlm = MockMaskedLM()
    text = "a  bb c"
    offsets = mlm.tokenize_with_offsets(text)
    assert offsets == [("a", 0, 1), ("bb", 3, 5), ("c", 6, 7)]
    for token, start, stop in offsets:
        assert text[start:stop] == token


def test_fill_mask_table_lookup_and_truncation():
    tokens = ["the", "[MASK]", "sat"]
    key, preds = table_entry(tokens, 1, [("cat", 0.6), ("dog", 0.3)])
    mlm = MockMaskedLM(table={key: [(t, p) for t, p in preds]})
    assert mlm.fill_mask(tokens, 1, 1) == [TokenPrediction("cat", 0.6)]
    assert mlm.fill_mask(tokens, 1, 5) == [
        TokenPrediction("cat", 0.6),
        TokenPrediction("dog", 0.3),
    ]


def test_fill_mask_requires_mask_at_position():
    mlm = MockMaskedLM(vocabulary=["a"])
    with pytest.raises(ContractViolation):
        mlm.fill_mask(["the", "cat"], 1, 1)
    with pytest.raises(ContractViolation):
        mlm.fill_mask(["the", "[MASK]"], 5, 1)
    with pytest.raises(ContractViolation):
        mlm.fill_mask(["the", "[MASK]"], 1, 0)


def test_fill_mask_length_error():
    mlm = MockMaskedLM(vocabulary=["a"], max_sequence_length=3)
    tokens = ["a", "b", "c", "[MASK]"]
    with pytest.raises(SequenceLengthError):
        mlm.fill_mask(tokens, 3, 1)


def test_fill_mask_sorted_nonincreasing_with_lexicographic_ties():
    mlm = MockMaskedLM(vocabulary=["zebra", "apple", "mango"])
    preds = mlm.fill_mask(["[MASK]"], 0, 10)
    assert [p.token for p in preds] == ["apple", "mango", "zebra"]
    probs = [p.probability for p in preds]
    assert probs == sorted(probs, reverse=True)
    assert all(abs(p - 1 / 3) < 1e-12 for p in probs)


def test_mock_probability_validation():
    with pytest.raises(ContractViolation):
        MockMaskedLM(table={("x [MASK]", 1): [TokenPrediction("a", 1.5)]})


def test_mock_is_pure_function_of_config():
    build = lambda: MockMaskedLM(vocabulary=["b", "a", "c"], fallback="seeded", salt=9)
    one, two = build(), build()
    tokens = ["x", "[MASK]", "y"]
    assert one.fill_mask(tokens, 1, 3) == two.fill_mask(tokens, 1, 3)


def test_seeded_fallback_varies_with_context_and_salt():
    mlm = MockMaskedLM(vocabulary=["a", "b", "c", "d"], fallback="seeded", salt=1)
    one = mlm.fill_mask(["x", "[MASK]"], 1, 4)
    two = mlm.fill_mask(["y", "[MASK]"], 1, 4)
    assert {p.token for p in one} == {p.token for p in two}
    assert one != two  # different fingerprints give different weights
    other_salt = MockMaskedLM(vocabulary=["a", "b", "c", "d"], fallback="seeded", salt=2)
    assert other_salt.fill_mask(["x", "[MASK]"], 1, 4) != one


def test_seeded_fallback_head_equals_full_sort():
    rnd = random.Random(17)
    for _ in range(60):
        vocab = [f"t{rnd.randint(0, 40)}" for _ in range(rnd.randint(1, 30))]
        mlm = MockMaskedLM(vocabulary=vocab, fallback="seeded", salt=rnd.randint(0, 999))
        tokens = [f"c{rnd.randint(0, 9)}" for _ in range(rnd.randint(0, 4))] + ["[MASK]"]
        position = len(tokens) - 1
        key = (" ".join(tokens), position)
        weights = {t: mlm._hash_weight(key, t) for t in vocab}
        total = sum(weights.values())
        full = sort_predictions(
            [TokenPrediction(t, w / total) for t, w in weights.items()]
        )
        for top_k in (1, rnd.randint(1, 35), len(vocab), 10**9):
            assert mlm.fill_mask(tokens, position, top_k) == full[:top_k]
    uniform = MockMaskedLM(vocabulary=["b", "a", "c", "a"])
    p = 1.0 / 4
    full = sort_predictions([TokenPrediction(t, p) for t in ["b", "a", "c", "a"]])
    for top_k in (1, 2, 4, 10**9):
        assert uniform.fill_mask(["[MASK]"], 0, top_k) == full[:top_k]


def _batch_mocks():
    tokens = ["the", "[MASK]", "sat"]
    key, preds = table_entry(tokens, 1, [("cat", 0.6), ("dog", 0.3), ("ant", 0.3)])
    table = MockMaskedLM(table={key: preds}, vocabulary=["x", "y"], max_sequence_length=4)
    seeded = MockMaskedLM(
        vocabulary=["a", "b", "c", "d", "e"], fallback="seeded", salt=4, max_sequence_length=4
    )
    queries = [
        (tokens, 1),
        (["[MASK]", "[MASK]"], 0),
        (["[MASK]", "[MASK]"], 1),
        (["a", "b", "[MASK]"], 2),
        (tokens, 1),
    ]
    return (table, seeded), queries


def test_fill_mask_batch_default_equals_per_query_fill_mask():
    mocks, queries = _batch_mocks()
    for mlm in mocks:
        for top_k in (1, 2, 10):
            assert mlm.fill_mask_batch(queries, top_k) == [
                mlm.fill_mask(tokens, position, top_k) for tokens, position in queries
            ]
        assert mlm.fill_mask_batch([], 3) == []


def test_fill_mask_batch_bad_query_raises_like_fill_mask():
    mocks, queries = _batch_mocks()
    bad_queries = [
        ((["the", "cat"], 1), ContractViolation),
        ((["the", "[MASK]"], 5), ContractViolation),
        ((["a", "b", "c", "d", "[MASK]"], 4), SequenceLengthError),
    ]
    for mlm in mocks:
        for bad, error in bad_queries:
            with pytest.raises(error) as single:
                mlm.fill_mask(*bad, 1)
            with pytest.raises(error) as batched:
                mlm.fill_mask_batch(queries[:2] + [bad] + queries[2:], 1)
            assert str(batched.value) == str(single.value)
        with pytest.raises(ContractViolation):
            mlm.fill_mask_batch(queries, 0)


def test_nli_table_lookup_and_default():
    nli = MockNliClassifier(table={("A", "B"): ENTAILMENT})
    assert nli.classify_nli("A", "B") == ENTAILMENT
    assert nli.classify_nli("A", "C") == NEUTRAL
    custom = MockNliClassifier(default="contradiction")
    assert custom.classify_nli("A", "C") == "contradiction"


def test_nli_rejects_empty_inputs_and_bad_labels():
    nli = MockNliClassifier()
    with pytest.raises(ContractViolation):
        nli.classify_nli("", "B")
    with pytest.raises(ContractViolation):
        MockNliClassifier(default="maybe")
    with pytest.raises(ContractViolation):
        MockNliClassifier(table={("A", "B"): "maybe"})


def test_classify_nli_batch_default_equals_per_pair_classify_nli():
    texts = ["A", "B", "C"]
    nli = MockNliClassifier(
        table={("A", "B"): ENTAILMENT, ("B", "A"): CONTRADICTION, ("C", "A"): ENTAILMENT}
    )
    pairs = [(a, b) for a in texts for b in texts]
    assert nli.classify_nli_batch(pairs) == [nli.classify_nli(a, b) for a, b in pairs]
    assert nli.classify_nli_batch([]) == []


def test_classify_nli_batch_empty_text_raises_like_classify_nli():
    nli = MockNliClassifier()
    for bad in (("", "B"), ("A", "")):
        with pytest.raises(ContractViolation) as single:
            nli.classify_nli(*bad)
        with pytest.raises(ContractViolation) as batched:
            nli.classify_nli_batch([("A", "B"), bad, ("B", "A")])
        assert str(batched.value) == str(single.value)


def test_mock_json_document_round_trip(tmp_path):
    doc = {
        "mask_token": "<m>",
        "vocabulary": ["x", "y"],
        "max_sequence_length": 64,
        "predictions": [
            {"fingerprint": "a <m> b", "position": 1, "top": [["cat", 0.6], ["dog", 0.3]]}
        ],
        "nli": [["p", "h", "entailment"]],
        "nli_default": "contradiction",
        "name": ["x"],  # not a mock field: ignored like any unknown key
    }
    path = tmp_path / "mock.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    mlm, nli = MockMaskedLM.from_json_file(path), MockNliClassifier.from_json_file(path)
    assert mlm.info().mask_token == "<m>"
    assert mlm.info().max_sequence_length == 64
    assert mlm.fill_mask(["a", "<m>", "b"], 1, 1) == [TokenPrediction("cat", 0.6)]
    assert nli.classify_nli("p", "h") == ENTAILMENT
    assert nli.classify_nli("h", "p") == "contradiction"


def test_mock_json_document_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    with pytest.raises(ParseError):
        MockMaskedLM.from_json_file(bad)
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"predictions": [{"position": 0}]}), encoding="utf-8")
    with pytest.raises(ParseError):
        MockMaskedLM.from_json_file(malformed)
    bad_nli = tmp_path / "badnli.json"
    bad_nli.write_text(json.dumps({"nli": [["p", "h"]]}), encoding="utf-8")
    with pytest.raises(ParseError):
        MockNliClassifier.from_json_file(bad_nli)


def test_mock_json_document_without_options_keeps_the_constructor_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}", encoding="utf-8")
    mlm, built = MockMaskedLM.from_json_file(path), MockMaskedLM()
    assert mlm.info() == built.info()
    assert (mlm.vocabulary, mlm.fallback, mlm.salt, mlm.table) == (
        built.vocabulary, built.fallback, built.salt, built.table
    )
    nli = MockNliClassifier.from_json_file(path)
    assert (nli.default, nli.table) == (MockNliClassifier().default, {})


@pytest.mark.skipif(
    "CLOZEGEN_NLI_MODEL" not in os.environ,
    reason="integration check needs CLOZEGEN_NLI_MODEL pointing at a local checkpoint",
)
def test_real_nli_identity_pairs_lean_entailment():
    # Integration expectation, not a hard contract: a sentence should
    # entail itself for the vast majority of inputs.
    from clozegen.adapters import HuggingFaceNli

    nli = HuggingFaceNli(os.environ["CLOZEGEN_NLI_MODEL"])
    sentences = [
        "The cat sat on the mat.",
        "Rain fell through the night.",
        "She opened the old wooden door.",
        "The committee approved the budget.",
        "He plays the violin every morning.",
        "The bridge spans a wide river.",
        "Students handed in their essays.",
        "The bakery smells of fresh bread.",
        "A storm delayed every flight.",
        "The museum opens at nine.",
    ]
    hits = sum(1 for s in sentences if nli.classify_nli(s, s) == ENTAILMENT)
    assert hits >= 8
