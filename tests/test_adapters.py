"""Offline tests for the HuggingFace adapters against a numpy stand-in.

torch and transformers are not needed: the fixture puts stand-ins for the
few names the adapters use into ``sys.modules``. The stand-in tokenizer is
word-level over a fixed vocabulary, with a ``[CLS] ... [SEP]`` or a
``... </s>`` special-token frame, an optional pad id and character offsets.
The stand-in masked LM is tiny and deterministic: at a ``[MASK]`` it
favours the word after its left neighbour in ``WORDS`` and elsewhere the
token itself, and every logit also depends on the attended tokens, so
ignoring ``attention_mask`` changes the output of a padded row.
"""

import contextlib
import re
import sys
import types

import numpy as np
import pytest

from clozegen.adapters import HuggingFaceMaskedLM, HuggingFaceNli, _normalize_label
from clozegen.backends import CONTRADICTION, ENTAILMENT, NEUTRAL, classify_pairs, fill_masks
from clozegen.data import ClozePassage, ClozeQuestion, prepare_context
from clozegen.errors import BackendError, ContractViolation, SequenceLengthError
from clozegen.generation import GenerationConfig
from clozegen.pipeline import generate_distractors

SPECIALS = ["[PAD]", "[CLS]", "[SEP]", "[MASK]", "[UNK]", "</s>"]
WORDS = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "home", "red"]
VOCAB = SPECIALS + WORDS
IDS = {token: i for i, token in enumerate(VOCAB)}
MNLI_LABELS = {0: "CONTRADICTION", 1: "NEUTRAL", 2: "ENTAILMENT"}


def _softmax(x, dim=-1):
    shifted = np.exp(x - x.max(axis=dim, keepdims=True))
    return shifted / shifted.sum(axis=dim, keepdims=True)


def _topk(x, k, dim=-1):
    order = np.argsort(-x, axis=dim, kind="stable").take(range(k), axis=dim)
    return types.SimpleNamespace(values=np.take_along_axis(x, order, dim), indices=order)


def make_torch():
    torch = types.ModuleType("torch")
    torch.cuda = types.SimpleNamespace(is_available=lambda: False)
    torch.no_grad = contextlib.nullcontext
    torch.tensor = lambda data, device=None: np.array(data)
    torch.arange = lambda n, device=None: np.arange(n)
    torch.softmax = _softmax
    torch.topk = _topk
    torch.argmax = lambda x, dim: np.argmax(x, axis=dim)
    return torch


class Encoding(dict):
    def to(self, device):
        return self


class FakeTokenizer:
    mask_token = "[MASK]"
    mask_token_id = IDS["[MASK]"]
    all_special_ids = [IDS[token] for token in SPECIALS]
    model_max_length = 32

    def __init__(self, frame="cls", pad_token_id=0, is_fast=True):
        self.frame = frame
        self.pad_token_id = pad_token_id
        self.is_fast = is_fast
        self.pair_calls = []

    def num_special_tokens_to_add(self):
        return 2 if self.frame == "cls" else 1

    def build_inputs_with_special_tokens(self, ids):
        if self.frame == "cls":
            return [IDS["[CLS]"], *ids, IDS["[SEP]"]]
        return [*ids, IDS["</s>"]]

    def tokenize(self, text):
        return text.split()

    def convert_tokens_to_string(self, tokens):
        return " ".join(tokens)

    def convert_tokens_to_ids(self, tokens):
        return [IDS.get(token, IDS["[UNK]"]) for token in tokens]

    def convert_ids_to_tokens(self, ids):
        if isinstance(ids, int):
            return VOCAB[ids]
        return [VOCAB[i] for i in ids]

    def __call__(self, text, text_pair=None, **kwargs):
        if text_pair is None:
            assert kwargs == {"add_special_tokens": False, "return_offsets_mapping": True}
            matches = list(re.finditer(r"\S+", text))
            return {
                "input_ids": self.convert_tokens_to_ids([m.group() for m in matches]),
                "offset_mapping": [m.span() for m in matches],
            }
        self.pair_calls.append(kwargs)
        rows = [
            [IDS["[CLS]"], *self.convert_tokens_to_ids(premise.split()), IDS["[SEP]"]]
            + [*self.convert_tokens_to_ids(hypothesis.split()), IDS["[SEP]"]]
            for premise, hypothesis in zip(text, text_pair)
        ]
        width = max(len(row) for row in rows)
        pad = self.pad_token_id or 0
        return Encoding(
            input_ids=np.array([row + [pad] * (width - len(row)) for row in rows]),
            attention_mask=np.array(
                [[1] * len(row) + [0] * (width - len(row)) for row in rows]
            ),
        )


def _bag(row, mask):
    """A number that changes whenever the set of attended tokens does."""
    attended = row[mask == 1]
    return int(attended.sum()) + 7 * len(attended)


def _next_word(token_id):
    first = len(SPECIALS)
    if token_id < first:
        return first
    return first + (token_id - first + 1) % len(WORDS)


class FakeModel:
    """Shared plumbing: device moves, call counting, an optional failure."""

    def __init__(self, fail=False, id2label=None):
        self.calls = 0
        self.fail = fail
        self.config = types.SimpleNamespace(id2label=id2label or MNLI_LABELS)
        self.devices = []
        self.in_eval_mode = False

    def to(self, device):
        self.devices.append(device)
        return self

    def eval(self):
        self.in_eval_mode = True
        return self

    def __call__(self, input_ids, attention_mask=None, **kwargs):
        self.calls += 1
        if self.fail:
            raise RuntimeError("CUDA out of memory")
        if attention_mask is None:
            attention_mask = np.ones_like(input_ids)
        return types.SimpleNamespace(logits=self.logits(input_ids, attention_mask))


class FakeMaskedLM(FakeModel):
    def logits(self, input_ids, attention_mask):
        batch, width = input_ids.shape
        vocab = np.arange(len(VOCAB))
        out = np.zeros((batch, width, len(VOCAB)))
        for b in range(batch):
            bag = _bag(input_ids[b], attention_mask[b])
            for p in range(width):
                token = int(input_ids[b, p])
                if token == IDS["[MASK]"]:
                    favoured = _next_word(int(input_ids[b, p - 1]) if p else 0)
                else:
                    favoured = token
                out[b, p] = ((vocab * 31 + bag * (p + 1)) % 17) / 17.0
                out[b, p, favoured] += 5.0
        return out


class FakeNli(FakeModel):
    """Entailment when premise and hypothesis match, else set by the bag."""

    def logits(self, input_ids, attention_mask):
        out = np.zeros((len(input_ids), len(self.config.id2label)))
        for b, row in enumerate(input_ids):
            attended = list(row[attention_mask[b] == 1])
            first_sep = attended.index(IDS["[SEP]"])
            premise = attended[1:first_sep]
            hypothesis = attended[first_sep + 1 : -1]
            label = 2 if premise == hypothesis else _bag(row, attention_mask[b]) % 2
            out[b, label % out.shape[1]] = 3.0
        return out


@pytest.fixture
def checkpoints(monkeypatch):
    """Install the stand-ins; maps model id -> (tokenizer, model)."""
    registry = {
        "cls-mlm": (FakeTokenizer("cls"), FakeMaskedLM()),
        "eos-mlm": (FakeTokenizer("eos"), FakeMaskedLM()),
        "nopad-mlm": (FakeTokenizer("cls", pad_token_id=None), FakeMaskedLM()),
        "nli": (FakeTokenizer("cls"), FakeNli()),
    }

    def loader(part):
        def from_pretrained(model_id, cache_dir=None):
            if model_id not in registry:
                raise OSError(f"{model_id} is not a local checkpoint")
            return registry[model_id][part]

        return types.SimpleNamespace(from_pretrained=from_pretrained)

    transformers = types.ModuleType("transformers")
    transformers.AutoTokenizer = loader(0)
    transformers.AutoModelForMaskedLM = loader(1)
    transformers.AutoModelForSequenceClassification = loader(1)
    monkeypatch.setitem(sys.modules, "torch", make_torch())
    monkeypatch.setitem(sys.modules, "transformers", transformers)
    return registry


QUERIES = [
    (["the", "cat", "[MASK]", "on", "a", "mat"], 2),
    (["[MASK]", "dog"], 0),
    (["a", "red", "dog", "ran", "[MASK]"], 4),
    (["the", "[MASK]"], 1),
]


@pytest.mark.parametrize("model_id", ["cls-mlm", "eos-mlm", "nopad-mlm"])
def test_fill_mask_batch_equals_per_query_fill_mask(checkpoints, model_id):
    mlm = HuggingFaceMaskedLM(model_id)
    model = checkpoints[model_id][1]
    batched = mlm.fill_mask_batch(QUERIES, top_k=4)
    assert model.calls == 1
    assert batched == [mlm.fill_mask(tokens, pos, top_k=4) for tokens, pos in QUERIES]
    assert mlm.fill_mask_batch([], top_k=4) == []
    assert model.calls == 1 + len(QUERIES)
    # the adapter's reply passes the library's reply check unchanged
    assert fill_masks(mlm, QUERIES, top_k=4) == batched


@pytest.mark.parametrize("model_id", ["cls-mlm", "eos-mlm"])
def test_fill_mask_top_fill_is_read_at_the_true_mask_position(checkpoints, model_id):
    mlm = HuggingFaceMaskedLM(model_id)
    tops = [preds[0].token for preds in mlm.fill_mask_batch(QUERIES, top_k=3)]
    # the word after the left neighbour in WORDS ("the" when there is none)
    assert tops == ["sat", "the", "home", "cat"]
    preds = mlm.fill_mask(*QUERIES[0], top_k=3)
    assert len(preds) == 3
    assert all(a.probability >= b.probability for a, b in zip(preds, preds[1:]))
    assert 0.5 < preds[0].probability < 1.0


@pytest.mark.parametrize("model_id", ["cls-mlm", "eos-mlm"])
def test_prefill_masks_a_glued_blank_at_its_true_position(checkpoints, model_id):
    mlm = HuggingFaceMaskedLM(model_id)
    text = "the dog ran _. the cat _ on a mat"
    passage = ClozePassage("p", text, [ClozeQuestion("home", []), ClozeQuestion("sat", [])])
    # the word after the left neighbour in WORDS: "home" after "ran" for the
    # glued blank, "sat" after "cat" for the one the offsets map
    filled = [prepare_context(passage, qi, "passage", "model", mlm).context for qi in (1, 0)]
    assert filled == [
        "the dog ran home. the cat _ on a mat",
        "the dog ran _. the cat sat on a mat",
    ]


def test_a_frame_without_the_mask_id_fails_at_load(checkpoints):
    class Dropping(FakeTokenizer):
        def build_inputs_with_special_tokens(self, ids):
            return [IDS["[CLS]"], IDS["[SEP]"]]

    checkpoints["dropping-mlm"] = (Dropping(), FakeMaskedLM())
    with pytest.raises(BackendError, match="drops the mask token"):
        HuggingFaceMaskedLM("dropping-mlm")


def test_no_fill_is_a_special_token(checkpoints):
    mlm = HuggingFaceMaskedLM("cls-mlm")
    # more fills asked for than the 10 words hold
    fills = mlm.fill_mask_batch(QUERIES, top_k=len(VOCAB))
    assert all(len(preds) == len(WORDS) for preds in fills)
    assert all(0.0 < p.probability <= 1.0 for preds in fills for p in preds)
    assert {p.token for preds in fills for p in preds} == set(WORDS)
    context = "the cat sat on a mat"
    start = context.index("sat")
    config = GenerationConfig(n_mask=1, dispersion=0, k=10, m_s=7)
    result = generate_distractors(
        context, (start, start + 3), config, mlm, HuggingFaceNli("nli")
    )
    assert result.all_candidates
    assert all(c.text in WORDS for c in result.all_candidates)
    assert set(result.distractor_set.distractors) <= set(WORDS) - {"sat"}


def test_masked_lm_info_and_tokenization(checkpoints):
    mlm = HuggingFaceMaskedLM("cls-mlm")
    info = mlm.info()
    assert info.name == "cls-mlm"
    assert info.mask_token == "[MASK]"
    assert info.max_sequence_length == FakeTokenizer.model_max_length - 2
    eos_window = HuggingFaceMaskedLM("eos-mlm").info().max_sequence_length
    assert eos_window == FakeTokenizer.model_max_length - 1
    assert mlm.tokenize("the cat  sat") == ["the", "cat", "sat"]
    assert mlm.detokenize(["the", "cat"]) == "the cat"
    assert mlm.tokenize_with_offsets("the cat  sat") == [
        ("the", 0, 3),
        ("cat", 4, 7),
        ("sat", 9, 12),
    ]
    with pytest.raises(ContractViolation):
        mlm.tokenize("")
    with pytest.raises(SequenceLengthError):
        mlm.fill_mask(["the"] * 40 + ["[MASK]"], 40, top_k=1)
    checkpoints["slow-mlm"] = (FakeTokenizer(is_fast=False), FakeMaskedLM())
    assert HuggingFaceMaskedLM("slow-mlm").tokenize_with_offsets("the cat") is None


def test_classify_nli_batch_equals_per_pair_classify_nli(checkpoints):
    nli = HuggingFaceNli("nli")
    tokenizer, model = checkpoints["nli"]
    pairs = [
        ("the cat sat", "the cat sat"),
        ("the cat sat on a mat", "a dog ran"),
        ("a dog", "a red dog ran home"),
        ("the mat", "the red mat"),
        ("the dog ran home", "the cat"),
    ]
    labels = nli.classify_nli_batch(pairs)
    assert model.calls == 1
    assert tokenizer.pair_calls[-1] == {"return_tensors": "pt", "padding": True}
    assert labels == [nli.classify_nli(p, h) for p, h in pairs]
    assert classify_pairs(nli, pairs) == labels
    assert labels[0] == ENTAILMENT
    assert set(labels[1:]) == {NEUTRAL, CONTRADICTION}
    assert nli.classify_nli_batch([]) == []
    with pytest.raises(ContractViolation):
        nli.classify_nli_batch([("the cat", "the cat"), ("", "a dog")])


def test_an_nli_pair_past_the_checkpoint_limit_fails_uncut(checkpoints):
    nli = HuggingFaceNli("nli")
    _, model = checkpoints["nli"]
    # [CLS] premise [SEP] hypothesis [SEP]: 29 words make 32 tokens, the limit
    premise = " ".join(["the cat"] * 7)
    fits = (premise, premise + " sat")
    with pytest.raises(SequenceLengthError, match="33 tokens exceeds backend maximum 32"):
        nli.classify_nli_batch([fits, (premise, premise + " sat red")])
    assert model.calls == 0
    assert nli.classify_nli_batch([fits]) == [nli.classify_nli(*fits)]
    assert model.calls == 2


@pytest.mark.parametrize(
    "label, verdict",
    [
        ("ENTAILMENT", ENTAILMENT),
        ("entailed", ENTAILMENT),
        ("Contradiction", CONTRADICTION),
        ("neutral", NEUTRAL),
        ("NEUT", NEUTRAL),
        ("not_entailment", NEUTRAL),
        ("NON-ENTAILMENT", NEUTRAL),
    ],
)
def test_checkpoint_labels_are_normalized(label, verdict):
    assert _normalize_label(label) == verdict


def test_nli_label_order_follows_the_checkpoint(checkpoints):
    swapped = {0: "entailment", 1: "neutral", 2: "contradiction"}
    checkpoints["swapped-nli"] = (FakeTokenizer(), FakeNli(id2label=swapped))
    nli = HuggingFaceNli("swapped-nli")
    # the stand-in puts identical pairs at index 2
    assert nli.classify_nli("the cat", "the cat") == CONTRADICTION


def test_unmappable_label_raises_backend_error(checkpoints):
    with pytest.raises(BackendError):
        _normalize_label("LABEL_0")
    checkpoints["raw-nli"] = (FakeTokenizer(), FakeNli(id2label={0: "LABEL_0"}))
    with pytest.raises(BackendError):
        HuggingFaceNli("raw-nli")


def test_offsets_tokenizer_failure_is_backend_error(checkpoints):
    class BrokenTokenizer(FakeTokenizer):
        def __call__(self, text, text_pair=None, **kwargs):
            raise RuntimeError("tokenizer crashed")

        def tokenize(self, text):
            raise RuntimeError("tokenizer crashed")

    checkpoints["broken-tokenizer"] = (BrokenTokenizer(), FakeMaskedLM())
    mlm = HuggingFaceMaskedLM("broken-tokenizer")
    with pytest.raises(BackendError, match="tokenization failed"):
        mlm.tokenize_with_offsets("the cat")
    with pytest.raises(BackendError, match="tokenization failed"):
        mlm.tokenize("the cat")


@pytest.mark.parametrize(
    "adapter, model_id", [(HuggingFaceMaskedLM, "cls-mlm"), (HuggingFaceNli, "nli")]
)
@pytest.mark.parametrize("cuda", [False, True])
def test_checkpoint_is_placed_on_its_device_in_eval_mode(
    checkpoints, monkeypatch, adapter, model_id, cuda
):
    monkeypatch.setattr(sys.modules["torch"].cuda, "is_available", lambda: cuda)
    model = checkpoints[model_id][1]
    adapter(model_id)
    adapter(model_id, device="cpu")
    assert model.devices == ["cuda" if cuda else "cpu", "cpu"]
    assert model.in_eval_mode


def test_failures_surface_as_backend_error(checkpoints, monkeypatch):
    checkpoints["broken-mlm"] = (FakeTokenizer(), FakeMaskedLM(fail=True))
    checkpoints["broken-nli"] = (FakeTokenizer(), FakeNli(fail=True))
    mlm = HuggingFaceMaskedLM("broken-mlm")
    with pytest.raises(BackendError, match="fill-mask inference failed"):
        mlm.fill_mask_batch(QUERIES, top_k=2)
    with pytest.raises(BackendError, match="NLI inference failed"):
        HuggingFaceNli("broken-nli").classify_nli("the cat", "a dog")
    with pytest.raises(BackendError, match="failed to load"):
        HuggingFaceMaskedLM("missing")
    with pytest.raises(BackendError, match="failed to load"):
        HuggingFaceNli("missing")
    no_mask = FakeTokenizer()
    no_mask.mask_token = None
    checkpoints["no-mask"] = (no_mask, FakeMaskedLM())
    with pytest.raises(BackendError, match="no mask token"):
        HuggingFaceMaskedLM("no-mask")
    monkeypatch.setitem(sys.modules, "torch", None)
    with pytest.raises(BackendError, match="'hf' extra"):
        HuggingFaceNli("nli")
