"""Checks of the HuggingFace adapters on real checkpoints.

The offline stand-ins in ``tests/test_adapters.py`` cannot show how a real
tokenizer frames, pads and splits its input, so these tests run the same
claims on real weights. Set ``CLOZEGEN_EVAL_MODEL`` to a masked-LM checkpoint
(e.g. ``bert-base-uncased``) and ``CLOZEGEN_EVAL_NLI`` to an entailment
checkpoint, with torch and transformers installed (the ``hf`` extra). Each
test skips when its checkpoint is not set.
"""

import os
import re

import pytest

from clozegen.adapters import HuggingFaceMaskedLM, HuggingFaceNli
from clozegen.backends import MockNliClassifier
from clozegen.data import ClozePassage, ClozeQuestion, prepare_context
from clozegen.generation import GenerationConfig, build_masked_context, map_char_span
from clozegen.pipeline import generate_distractors

from tests.conftest import eager_request
from tests.oracles import query_string_prefill

SENTENCES = [
    "The boy will open the door.",
    "Rain fell.",
    "She drank a cup of tea before the long meeting started in the hall.",
    "My grandmother keeps her letters in a small wooden box under the bed.",
]


@pytest.fixture(scope="module")
def mlm():
    model_id = os.environ.get("CLOZEGEN_EVAL_MODEL")
    if not model_id:
        pytest.skip("set CLOZEGEN_EVAL_MODEL to a masked-LM checkpoint")
    return HuggingFaceMaskedLM(model_id)


@pytest.fixture(scope="module")
def nli():
    model_id = os.environ.get("CLOZEGEN_EVAL_NLI")
    if not model_id:
        pytest.skip("set CLOZEGEN_EVAL_NLI to an entailment checkpoint")
    return HuggingFaceNli(model_id)


def word_spans(sentence):
    return [m.span() for m in re.finditer(r"\w+", sentence)]


def mask_queries(mlm):
    """One single-mask query per word, rows of many lengths."""
    info = mlm.info()
    queries = []
    for sentence in SENTENCES:
        for span in word_spans(sentence):
            tokens, token_span = map_char_span(mlm, sentence, span)
            masked = build_masked_context(
                tokens, token_span, 1, info.mask_token, info.max_sequence_length
            )
            queries.append((masked.tokens, masked.mask_positions[0]))
    return queries


def test_padded_fill_mask_batch_equals_per_query_calls(mlm):
    queries = mask_queries(mlm)
    batched = mlm.fill_mask_batch(queries, top_k=5)
    for query, preds in zip(queries, batched):
        single = mlm.fill_mask(*query, top_k=5)
        assert preds[0].token == single[0].token, query
        assert [p.probability for p in preds] == pytest.approx(
            [p.probability for p in single], abs=1e-4
        ), query


def test_padded_nli_batch_equals_per_pair_calls(nli):
    pairs = [(a, b) for a in SENTENCES for b in SENTENCES]
    assert nli.classify_nli_batch(pairs) == [nli.classify_nli(a, b) for a, b in pairs]


def test_load_time_prefix_locates_the_ids_in_a_framed_row(mlm):
    tokenizer = mlm._tokenizer
    for sentence in SENTENCES:
        ids = tokenizer.convert_tokens_to_ids(mlm.tokenize(sentence))
        row = tokenizer.build_inputs_with_special_tokens(ids)
        assert row[mlm._prefix : mlm._prefix + len(ids)] == ids, sentence


def test_offsets_and_retokenize_paths_agree_on_word_answers(mlm, monkeypatch):
    sample = SENTENCES[0]
    if mlm.tokenize_with_offsets(sample) is None:
        pytest.skip("slow tokenizer: map_char_span has no offsets path")
    by_offsets = [
        map_char_span(mlm, sentence, span)
        for sentence in SENTENCES
        for span in word_spans(sentence)
    ]
    monkeypatch.setattr(mlm, "tokenize_with_offsets", lambda text: None)
    by_retokenizing = [
        map_char_span(mlm, sentence, span)
        for sentence in SENTENCES
        for span in word_spans(sentence)
    ]
    assert by_offsets == by_retokenizing


def test_prefill_through_offsets_matches_the_query_string_prefill(mlm):
    # every blank is a spaced word, so splicing the mask string into the text
    # and re-tokenizing masks the position the offsets map
    text = "The boy will _ the door when the bell _ at noon, and his sister _ in."
    if mlm.tokenize_with_offsets(text) is None:
        pytest.skip("slow tokenizer: prefill has no offsets path")
    blanks = text.count("_")
    passage = ClozePassage("p", text, [ClozeQuestion("x", [])] * blanks)
    for qi in range(blanks):
        prepared = prepare_context(passage, qi, "passage", "model", mlm)
        assert prepared.context == query_string_prefill(mlm, text, qi), qi


def test_no_fill_is_a_special_token(mlm):
    special = set(mlm._tokenizer.all_special_tokens)
    fills = mlm.fill_mask_batch(mask_queries(mlm), top_k=50)
    assert all(p.token not in special for preds in fills for p in preds)
    assert all(0.0 < p.probability <= 1.0 for preds in fills for p in preds)


def test_lazy_decoding_reads_a_prefix_of_the_drained_ranking(mlm):
    # Passes after the branch batch a subset of the live hypotheses, so the
    # rows padded together differ from those of a drained decode.
    config = GenerationConfig()
    nli = MockNliClassifier()  # neutral: selection keeps the first k it reads
    for sentence in SENTENCES:
        for span in word_spans(sentence):
            ranked, _ = eager_request(sentence, span, config, mlm, nli)
            got = generate_distractors(sentence, span, config, mlm, nli).all_candidates
            assert [c.text for c in got] == [c.text for c in ranked[: len(got)]], span
            for lazy, drained in zip(got, ranked):
                assert lazy.step_probabilities == pytest.approx(
                    drained.step_probabilities, abs=1e-4
                ), (sentence, span)
