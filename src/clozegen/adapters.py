"""Adapters exposing HuggingFace checkpoints behind the backend contracts.

These are deliberately thin: tokenization, special-token bookkeeping and
label mapping only. Everything algorithmic lives upstream of the
contracts, so none of it needs model weights to be exercised. Imports of
torch/transformers happen lazily so the rest of the package works in
environments without them (install the ``hf`` extra to use these).
"""

from __future__ import annotations

from typing import Sequence

from .backends import (
    CONTRADICTION,
    ENTAILMENT,
    NEUTRAL,
    BackendInfo,
    MaskedLanguageModel,
    NliClassifier,
    TokenPrediction,
    _check_text,
    sort_predictions,
)
from .errors import BackendError


def _load_checkpoint(model_id, model_class, what, device, cache_dir):
    """``(torch, tokenizer, model, device)`` for ``model_id``, the model in eval mode.

    ``model_class`` names the ``transformers`` auto class; ``device`` defaults
    to CUDA when available, else the CPU. Failures are ``BackendError``.
    """
    try:
        import torch
        import transformers
    except ImportError as exc:
        raise BackendError(
            "torch and transformers are required for HuggingFace adapters; "
            "install the 'hf' extra"
        ) from exc
    try:
        tokenizer = transformers.AutoTokenizer.from_pretrained(model_id, cache_dir=cache_dir)
        model = getattr(transformers, model_class).from_pretrained(
            model_id, cache_dir=cache_dir
        )
    except Exception as exc:
        raise BackendError(f"failed to load {what} {model_id!r}: {exc}") from exc
    device = device or ("cuda" if torch.cuda.is_available() else "cpu")
    model.to(device)
    model.eval()
    return torch, tokenizer, model, device


class HuggingFaceMaskedLM(MaskedLanguageModel):
    """Fill-mask inference over any AutoModelForMaskedLM checkpoint."""

    def __init__(
        self,
        model_id: str,
        device: str | None = None,
        cache_dir: str | None = None,
    ):
        self._torch, self._tokenizer, self._model, self._device = _load_checkpoint(
            model_id, "AutoModelForMaskedLM", "masked LM", device, cache_dir
        )
        if self._tokenizer.mask_token is None:
            raise BackendError(f"{model_id!r} has no mask token; not an MLM checkpoint")
        declared = int(self._tokenizer.model_max_length)
        specials = self._tokenizer.num_special_tokens_to_add()
        self._info = BackendInfo(
            name=model_id,
            max_sequence_length=max(1, min(declared, 100_000) - specials),
            mask_token=self._tokenizer.mask_token,
        )

    def info(self) -> BackendInfo:
        return self._info

    def tokenize(self, text: str) -> list[str]:
        _check_text(text)
        try:
            return self._tokenizer.tokenize(text)
        except Exception as exc:
            raise BackendError(f"tokenization failed: {exc}") from exc

    def detokenize(self, tokens: Sequence[str]) -> str:
        return self._tokenizer.convert_tokens_to_string(list(tokens)).strip()

    def tokenize_with_offsets(self, text: str) -> list[tuple[str, int, int]] | None:
        if not getattr(self._tokenizer, "is_fast", False):
            return None
        try:
            encoding = self._tokenizer(
                text, add_special_tokens=False, return_offsets_mapping=True
            )
            tokens = self._tokenizer.convert_ids_to_tokens(encoding["input_ids"])
        except Exception as exc:
            raise BackendError(f"tokenization failed: {exc}") from exc
        return [
            (tok, start, end)
            for tok, (start, end) in zip(tokens, encoding["offset_mapping"])
        ]

    def fill_mask(
        self, tokens: Sequence[str], mask_position: int, top_k: int
    ) -> list[TokenPrediction]:
        return self.fill_mask_batch([(tokens, mask_position)], top_k)[0]

    def fill_mask_batch(
        self, queries: Sequence[tuple[Sequence[str], int]], top_k: int
    ) -> list[list[TokenPrediction]]:
        """All queries in one padded forward pass."""
        for tokens, mask_position in queries:
            self._check_fill_args(tokens, mask_position, top_k)
        if not queries:
            return []
        rows, positions = [], []
        for tokens, mask_position in queries:
            ids = self._tokenizer.convert_tokens_to_ids(list(tokens))
            with_specials = self._tokenizer.build_inputs_with_special_tokens(ids)
            rows.append(with_specials)
            positions.append(mask_position + _prefix_length(with_specials, ids))
        width = max(len(row) for row in rows)
        # Padded slots are masked out of attention, so any id serves as filler
        # for a tokenizer without a pad token.
        pad = self._tokenizer.pad_token_id or 0
        torch = self._torch
        try:
            with torch.no_grad():
                input_ids = torch.tensor(
                    [row + [pad] * (width - len(row)) for row in rows],
                    device=self._device,
                )
                attention_mask = torch.tensor(
                    [[1] * len(row) + [0] * (width - len(row)) for row in rows],
                    device=self._device,
                )
                logits = self._model(
                    input_ids=input_ids, attention_mask=attention_mask
                ).logits
                at_masks = logits[
                    torch.arange(len(rows), device=self._device),
                    torch.tensor(positions, device=self._device),
                ]
                probabilities = torch.softmax(at_masks, dim=-1)
                k = min(top_k, probabilities.shape[-1])
                top = torch.topk(probabilities, k, dim=-1)
        except Exception as exc:
            raise BackendError(f"fill-mask inference failed: {exc}") from exc
        return [
            sort_predictions(
                [
                    TokenPrediction(self._tokenizer.convert_ids_to_tokens(idx), prob)
                    for prob, idx in zip(row_probs, row_ids)
                ]
            )
            for row_probs, row_ids in zip(top.values.tolist(), top.indices.tolist())
        ]


def _prefix_length(with_specials: list[int], ids: list[int]) -> int:
    """Index where the original ids start inside the special-token frame."""
    if not ids:
        return 0
    span = len(ids)
    for offset in range(len(with_specials) - span + 1):
        if with_specials[offset : offset + span] == ids:
            return offset
    raise BackendError("could not locate sequence inside special-token frame")


class HuggingFaceNli(NliClassifier):
    """Three-way (or two-way) sequence classification over sentence pairs.

    Checkpoint labels are normalized onto entailment/neutral/contradiction
    by substring matching, so two-way entailment models work as well.
    """

    def __init__(
        self,
        model_id: str,
        device: str | None = None,
        cache_dir: str | None = None,
    ):
        self._torch, self._tokenizer, self._model, self._device = _load_checkpoint(
            model_id, "AutoModelForSequenceClassification", "NLI model", device, cache_dir
        )
        self._labels = {
            int(i): _normalize_label(str(label))
            for i, label in self._model.config.id2label.items()
        }

    def classify_nli(self, premise: str, hypothesis: str) -> str:
        return self.classify_nli_batch([(premise, hypothesis)])[0]

    def classify_nli_batch(self, pairs: Sequence[tuple[str, str]]) -> list[str]:
        """All pairs in one padded forward pass."""
        for premise, hypothesis in pairs:
            self._check_pair(premise, hypothesis)
        if not pairs:
            return []
        torch = self._torch
        try:
            with torch.no_grad():
                encoded = self._tokenizer(
                    [premise for premise, _ in pairs],
                    [hypothesis for _, hypothesis in pairs],
                    return_tensors="pt",
                    padding=True,
                    truncation=True,
                ).to(self._device)
                indices = torch.argmax(self._model(**encoded).logits, dim=-1).tolist()
        except Exception as exc:
            raise BackendError(f"NLI inference failed: {exc}") from exc
        return [self._labels[int(index)] for index in indices]


def _normalize_label(label: str) -> str:
    lowered = label.lower()
    if "entail" in lowered:
        return NEUTRAL if lowered.startswith(("not", "non")) else ENTAILMENT
    if "contra" in lowered:
        return CONTRADICTION
    if "neutral" in lowered or lowered.startswith("neut"):
        return NEUTRAL
    raise BackendError(f"cannot map checkpoint label {label!r} onto an NLI verdict")
