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
from .errors import BackendError, SequenceLengthError


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
        # Every row gets the same special-token frame, so the mask's index in
        # a framed one-token row is the offset of every position in a row.
        mask_id = self._tokenizer.mask_token_id
        frame = self._tokenizer.build_inputs_with_special_tokens([mask_id])
        if mask_id not in frame:
            raise BackendError(f"{model_id!r} drops the mask token from its input frame")
        self._prefix = frame.index(mask_id)
        # Padded slots are masked out of attention, so any id serves as filler
        # for a tokenizer without a pad token.
        self._pad_id = self._tokenizer.pad_token_id or 0
        self._special_ids = sorted(set(self._tokenizer.all_special_ids))
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
            rows.append(self._tokenizer.build_inputs_with_special_tokens(ids))
            positions.append(mask_position + self._prefix)
        width = max(len(row) for row in rows)
        torch = self._torch
        try:
            with torch.no_grad():
                input_ids = torch.tensor(
                    [row + [self._pad_id] * (width - len(row)) for row in rows],
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
                # A special token is never a fill; k stays within the words
                # left, so every reported probability is a softmax slice > 0.
                probabilities[:, self._special_ids] = 0.0
                k = min(top_k, probabilities.shape[-1] - len(self._special_ids))
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


class HuggingFaceNli(NliClassifier):
    """Three-way (or two-way) sequence classification over sentence pairs.

    Checkpoint labels are normalized onto entailment/neutral/contradiction
    by substring matching, so two-way entailment models work as well. A pair
    is never truncated, since two cut sentences can become identical: a
    batch wider than the checkpoint's limit is a SequenceLengthError before
    the model runs.
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
        self._max_length = min(int(self._tokenizer.model_max_length), 100_000)

    def classify_nli(self, premise: str, hypothesis: str) -> str:
        return self.classify_nli_batch([(premise, hypothesis)])[0]

    def classify_nli_batch(self, pairs: Sequence[tuple[str, str]]) -> list[str]:
        """All pairs in one padded forward pass."""
        for premise, hypothesis in pairs:
            self._check_pair(premise, hypothesis)
        if not pairs:
            return []
        try:
            encoded = self._tokenizer(
                [premise for premise, _ in pairs],
                [hypothesis for _, hypothesis in pairs],
                return_tensors="pt",
                padding=True,
            )
        except Exception as exc:
            raise BackendError(f"NLI tokenization failed: {exc}") from exc
        width = encoded["input_ids"].shape[-1]
        if width > self._max_length:
            raise SequenceLengthError(
                f"NLI pair of {width} tokens exceeds backend maximum {self._max_length}"
            )
        torch = self._torch
        try:
            with torch.no_grad():
                logits = self._model(**encoded.to(self._device)).logits
                indices = torch.argmax(logits, dim=-1).tolist()
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
