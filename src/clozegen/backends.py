"""Inference backend contracts plus deterministic mock implementations.

Two model roles are abstracted here: a masked language model that fills
mask tokens inside a token sequence, and a natural language inference
classifier that labels (premise, hypothesis) pairs. Everything downstream
talks to these contracts only, so the full algorithmic surface runs
against the table-driven mocks below without any model weights.

Mock lookups are keyed by a *context fingerprint*: the token sequence
joined with single spaces. A mock is a pure function of its configuration,
so identical inputs give identical outputs across processes.
"""

from __future__ import annotations

import hashlib
import heapq
import re
from abc import ABC, abstractmethod
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import (
    BackendError, ContractViolation, FrozenRecord, ParseError, SequenceLengthError, check_count,
    read_field, read_json,
)

ENTAILMENT = "entailment"
NEUTRAL = "neutral"
CONTRADICTION = "contradiction"
NLI_LABELS = frozenset({ENTAILMENT, NEUTRAL, CONTRADICTION})

DEFAULT_MASK_TOKEN = "[MASK]"


class TokenPrediction(NamedTuple):
    """One vocabulary unit with the probability assigned at a mask slot."""

    token: str
    probability: float


class BackendInfo(FrozenRecord):
    """Static facts about a masked-LM backend."""

    __slots__ = ("name", "max_sequence_length", "mask_token")

    def __init__(self, name: str, max_sequence_length: int, mask_token: str):
        check_count("max_sequence_length", max_sequence_length, 1)
        if not isinstance(mask_token, str) or not mask_token:
            raise ContractViolation("mask_token must be a nonempty string")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "max_sequence_length", max_sequence_length)
        object.__setattr__(self, "mask_token", mask_token)


def fingerprint(tokens: Sequence[str]) -> str:
    """Canonical lookup key for a token sequence: tokens joined by spaces."""
    return " ".join(tokens)


def sort_predictions(predictions: Sequence[TokenPrediction]) -> list[TokenPrediction]:
    """Probability-descending order, ties broken by lexicographic token."""
    return sorted(predictions, key=lambda p: (-p.probability, p.token))


class MaskedLanguageModel(ABC):
    """Contract for fill-mask inference over a tokenized context."""

    @abstractmethod
    def info(self) -> BackendInfo:
        """Static backend facts (name, max length, mask token)."""

    @abstractmethod
    def tokenize(self, text: str) -> list[str]:
        """Split text into backend tokens; detokenize round-trips up to whitespace."""

    @abstractmethod
    def detokenize(self, tokens: Sequence[str]) -> str:
        """Join backend tokens back into a plain string."""

    @abstractmethod
    def fill_mask(
        self, tokens: Sequence[str], mask_position: int, top_k: int
    ) -> list[TokenPrediction]:
        """Predict fills for the mask token at ``mask_position``.

        Returns at most ``top_k`` predictions, probability-descending with
        lexicographic tie-breaks. Probabilities are vocabulary-softmax
        slices and need not sum to 1.
        """

    def fill_mask_batch(
        self, queries: Sequence[tuple[Sequence[str], int]], top_k: int
    ) -> list[list[TokenPrediction]]:
        """``fill_mask`` for each ``(tokens, mask_position)`` query, in order.

        One call is meant to be one forward pass over all queries; this
        default answers them one ``fill_mask`` call at a time, so a backend
        without a batched path needs no change. An empty batch returns [].
        """
        return [self.fill_mask(tokens, position, top_k) for tokens, position in queries]

    def tokenize_with_offsets(self, text: str) -> list[tuple[str, int, int]] | None:
        """Tokens with character spans, or None when offsets are unavailable."""
        return None

    def _check_fill_args(self, tokens: Sequence[str], mask_position: int, top_k: int) -> None:
        info = self.info()
        check_count("top_k", top_k, 1)
        if len(tokens) > info.max_sequence_length:
            raise SequenceLengthError(
                f"sequence of {len(tokens)} tokens exceeds backend maximum "
                f"{info.max_sequence_length}"
            )
        if not 0 <= mask_position < len(tokens):
            raise ContractViolation(
                f"mask_position {mask_position} outside sequence of {len(tokens)} tokens"
            )
        if tokens[mask_position] != info.mask_token:
            raise ContractViolation(
                f"token at position {mask_position} is {tokens[mask_position]!r}, "
                f"not the mask token {info.mask_token!r}"
            )


class NliClassifier(ABC):
    """Contract for three-way entailment classification.

    Implementations must be deterministic for identical inputs. Two-way
    checkpoints that only distinguish entailment from contradiction are
    admitted; their outputs simply never include the neutral label.
    """

    @abstractmethod
    def classify_nli(self, premise: str, hypothesis: str) -> str:
        """Argmax label for the pair: entailment, neutral or contradiction."""

    def classify_nli_batch(self, pairs: Sequence[tuple[str, str]]) -> list[str]:
        """``classify_nli`` for each ``(premise, hypothesis)`` pair, in order.

        Meant to be one forward pass; this default loops over ``classify_nli``,
        so a backend without a batched path needs no change.
        """
        return [self.classify_nli(premise, hypothesis) for premise, hypothesis in pairs]

    @staticmethod
    def _check_pair(premise: str, hypothesis: str) -> None:
        if not premise or not hypothesis:
            raise ContractViolation("premise and hypothesis must be nonempty")


def fill_masks(
    backend: MaskedLanguageModel, queries: list[tuple[list[str], int]], top_k: int
) -> list[list[TokenPrediction]]:
    """One ``fill_mask_batch`` call over ``queries``; an empty ``queries`` is a
    ``ContractViolation``, and a reply that is not a list holding, per query, a
    list of ``TokenPrediction`` with a ``str`` token and a ``float``
    probability in (0, 1] is a ``BackendError``."""
    if not queries:
        raise ContractViolation("fill_masks needs at least one query")
    replies = backend.fill_mask_batch(queries, top_k)
    if not isinstance(replies, list) or len(replies) != len(queries) or not all(
        isinstance(preds, list)
        and all(isinstance(p, TokenPrediction) for p in preds)
        and all(isinstance(p.token, str) and isinstance(p.probability, float) for p in preds)
        and all(0.0 < p.probability <= 1.0 for p in preds)
        for preds in replies
    ):
        raise BackendError(f"malformed fill-mask reply for {len(queries)} queries")
    return replies


def classify_pairs(nli_backend: NliClassifier, pairs: list[tuple[str, str]]) -> list[str]:
    """One ``classify_nli_batch`` call over ``pairs`` (none when empty); a reply
    that is not a list holding one of the ``NLI_LABELS`` strings per pair is a
    ``BackendError``."""
    if not pairs:
        return []
    labels = nli_backend.classify_nli_batch(pairs)
    if not isinstance(labels, list) or len(labels) != len(pairs) or not all(
        isinstance(label, str) and label in NLI_LABELS for label in labels
    ):
        raise BackendError(f"malformed NLI reply for {len(pairs)} pairs")
    return labels


def _check_text(text: str) -> None:
    if not text:
        raise ContractViolation("text must be nonempty")


class MockMaskedLM(MaskedLanguageModel):
    """Table-driven masked LM with whitespace tokenization.

    Predictions are looked up by ``(fingerprint(tokens), mask_position)``.
    Misses fall back to the configured vocabulary, either uniformly
    weighted (default) or with stable pseudo-random weights derived from a
    salted SHA-256 of (fingerprint, position, token). The seeded mode
    makes randomized search tests non-degenerate while staying a pure
    function of the configuration.
    """

    def __init__(
        self,
        mask_token: str = DEFAULT_MASK_TOKEN,
        vocabulary: Sequence[str] = (),
        table: dict[tuple[str, int], Sequence[TokenPrediction]] | None = None,
        fallback: str = "uniform",
        salt: int = 0,
        max_sequence_length: int = 512,
    ):
        if fallback not in ("uniform", "seeded"):
            raise ContractViolation(f"unknown fallback mode {fallback!r}")
        self._info = BackendInfo("mock-mlm", max_sequence_length, mask_token)
        self.vocabulary = list(vocabulary)
        self.fallback = fallback
        self.salt = salt
        self.table: dict[tuple[str, int], list[TokenPrediction]] = {}
        for key, preds in (table or {}).items():
            converted = [TokenPrediction(str(t), float(p)) for t, p in preds]
            for pred in converted:
                if not 0.0 < pred.probability <= 1.0:
                    raise ContractViolation(
                        f"mock probability {pred.probability} outside (0, 1]"
                    )
            self.table[key] = sort_predictions(converted)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "MockMaskedLM":
        """Build from a mock-configuration JSON document (see README)."""
        doc = read_json(path)
        table = {}
        for i, entry in enumerate(read_field(doc, "predictions", [dict], path, [])):
            where = f"{path}: predictions[{i}]"
            text = read_field(entry, "fingerprint", str, where)
            position = read_field(entry, "position", int, where)
            table[text, position] = read_field(entry, "top", [(str, float)], where)
        kinds = {"mask_token": str, "vocabulary": [str], "fallback": str, "salt": int,
                 "max_sequence_length": int}  # an absent key keeps the __init__ default
        options = {k: read_field(doc, k, kind, path) for k, kind in kinds.items() if k in doc}
        try:
            return cls(table=table, **options)
        except ContractViolation as exc:
            raise ParseError(f"{path}: {exc}") from exc

    def info(self) -> BackendInfo:
        return self._info

    def tokenize(self, text: str) -> list[str]:
        _check_text(text)
        return text.split()

    def detokenize(self, tokens: Sequence[str]) -> str:
        return " ".join(tokens)

    def tokenize_with_offsets(self, text: str) -> list[tuple[str, int, int]]:
        _check_text(text)
        # \S+ runs are exactly the tokens of str.split(): both split on str.isspace()
        return [(m.group(), *m.span()) for m in re.finditer(r"\S+", text)]

    def fill_mask(
        self, tokens: Sequence[str], mask_position: int, top_k: int
    ) -> list[TokenPrediction]:
        self._check_fill_args(tokens, mask_position, top_k)
        key = (fingerprint(tokens), mask_position)
        preds = self.table.get(key)
        if preds is None:
            return self._fallback_predictions(key, top_k)
        return list(preds[:top_k])

    def _fallback_predictions(
        self, key: tuple[str, int], top_k: int
    ) -> list[TokenPrediction]:
        """The ``top_k`` head of the sorted vocabulary, without sorting all of it."""
        if not self.vocabulary:
            return []
        if self.fallback == "uniform":
            p = 1.0 / len(self.vocabulary)
            keyed = ((-p, t) for t in self.vocabulary)
        else:
            weights = {t: self._hash_weight(key, t) for t in self.vocabulary}
            total = sum(weights.values())
            keyed = ((-(w / total), t) for t, w in weights.items())
        # (-probability, token) is the sort_predictions order
        return [TokenPrediction(t, -neg) for neg, t in heapq.nsmallest(top_k, keyed)]

    def _hash_weight(self, key: tuple[str, int], token: str) -> int:
        digest = hashlib.sha256(
            f"{self.salt}|{key[0]}|{key[1]}|{token}".encode("utf-8")
        ).digest()
        return 1 + int.from_bytes(digest[:8], "big")


class MockNliClassifier(NliClassifier):
    """Table lookup over (premise, hypothesis) pairs with a default label."""

    def __init__(
        self,
        table: dict[tuple[str, str], str] | None = None,
        default: str = NEUTRAL,
    ):
        if default not in NLI_LABELS:
            raise ContractViolation(f"unknown NLI label {default!r}")
        self.default = default
        self.table = {}
        for pair, label in (table or {}).items():
            if label not in NLI_LABELS:
                raise ContractViolation(f"unknown NLI label {label!r}")
            self.table[pair] = label

    @classmethod
    def from_json_file(cls, path: str | Path) -> "MockNliClassifier":
        doc = read_json(path)
        triples = read_field(doc, "nli", [(str, str, str)], path, [])
        table = {(premise, hypothesis): label for premise, hypothesis, label in triples}
        options = {}  # an absent key keeps the __init__ default
        if "nli_default" in doc:
            options["default"] = read_field(doc, "nli_default", str, path)
        try:
            return cls(table=table, **options)
        except ContractViolation as exc:
            raise ParseError(f"{path}: {exc}") from exc

    def classify_nli(self, premise: str, hypothesis: str) -> str:
        self._check_pair(premise, hypothesis)
        return self.table.get((premise, hypothesis), self.default)
