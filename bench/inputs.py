"""Seeded input generation for the benchmark's workloads.

Passages are built from the bench backends' vocabulary as sentences of
lowercase words with a capital first letter, some commas, and a closing
``.``, ``?`` or ``!``. Sentences are joined by single spaces, so the
sentence clozegen extracts around an answer is exactly the sentence built
here; the benchmark keeps that sentence (``Expected``) to book NLI pairs
to a stage and to audit the chosen distractors. clozegen itself only
receives the files written to disk.

Properties that set the call counts (answer lengths, blanks per passage)
are stratified rather than drawn, so the per-item counts of a workload do
not depend on the seed; the seed changes every word.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from models import VOCABULARY


@dataclass(frozen=True)
class Expected:
    """What the benchmark knows about one item without asking clozegen."""

    answer: str
    sentence: str
    span: tuple[int, int]  # the answer's character span inside ``sentence``


@dataclass
class Sentence:
    text: str
    words: list[tuple[int, int]]  # character span of each word
    joined: list[bool]  # True where word i and word i + 1 have only a space between


def make_sentence(rng: random.Random, n_words: int, blank: int | None = None) -> Sentence:
    """One sentence; word ``blank`` (if given) is written as ``_``."""
    parts, words, joined = [], [], []
    pos = 0
    for i in range(n_words):
        word = rng.choice(VOCABULARY)
        if i == 0:
            word = word.capitalize()
        shown = "_" if i == blank else word
        if i:
            parts.append(" ")
            pos += 1
        words.append((pos, pos + len(word)))
        parts.append(shown)
        pos += len(shown)
        last = i == n_words - 1
        comma = not last and 0 < i < n_words - 2 and rng.random() < 0.12
        joined.append(not last and not comma)
        if comma:
            parts.append(",")
            pos += 1
    parts.append(rng.choice(".......?!"))
    return Sentence("".join(parts), words, joined)


def _passage(rng: random.Random, target_tokens: int, lengths: tuple[int, int]) -> list[Sentence]:
    sentences, tokens = [], 0
    while tokens < target_tokens:
        sentence = make_sentence(rng, rng.randint(*lengths))
        sentences.append(sentence)
        tokens += len(sentence.words) + sentence.joined.count(False)
    return sentences


def write_pairs(
    path: Path, rng: random.Random, count: int, passage_tokens: int, answer_lengths: tuple[int, ...]
) -> dict[str, Expected]:
    """JSON-lines (id, context, answer span) records for ``load_pairs``.

    Item ``i`` has an answer of ``answer_lengths[i % len(answer_lengths)]``
    words, all inside one sentence with no punctuation between them.
    """
    expected = {}
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(count):
            n = answer_lengths[i % len(answer_lengths)]
            sentences = _passage(rng, passage_tokens, (8, 20))
            choices = [
                (si, wi)
                for si, s in enumerate(sentences)
                for wi in range(len(s.words) - n + 1)
                if all(s.joined[wi : wi + n - 1])
            ]
            si, wi = rng.choice(choices)
            offset = sum(len(s.text) + 1 for s in sentences[:si])
            sentence = sentences[si]
            span = (sentence.words[wi][0], sentence.words[wi + n - 1][1])
            context = " ".join(s.text for s in sentences)
            item_id = f"pair-{i:05d}"
            expected[item_id] = Expected(sentence.text[span[0] : span[1]], sentence.text, span)
            record = {
                "id": item_id,
                "context": context,
                "answer_start": offset + span[0],
                "answer_end": offset + span[1],
            }
            handle.write(json.dumps(record) + "\n")
    return expected


def write_cloth(
    directory: Path, rng: random.Random, passages: int, sentences: int, blanks: int
) -> dict[str, Expected]:
    """CLOTH-layout passage files for ``load_cloth``.

    Each passage has ``sentences`` sentences, ``blanks`` of which hold one
    single-word blank each. A third of the blanks take the sentence's last
    word, so the blank is directly followed by punctuation as often in
    CLOTH text (``_.``); the rest take a random word.
    """
    expected = {}
    directory.mkdir(parents=True, exist_ok=True)
    for p in range(passages):
        holders = set(rng.sample(range(sentences), blanks))
        texts, options, answers = [], [], []
        for si in range(sentences):
            n_words = rng.randint(12, 18)
            if si not in holders:
                texts.append(make_sentence(rng, n_words).text)
                continue
            blank = n_words - 1 if rng.random() < 1 / 3 else rng.randrange(1, n_words - 1)
            # The same draws with and without the blank give the same words.
            state = rng.getstate()
            full = make_sentence(rng, n_words)
            rng.setstate(state)
            shown = make_sentence(rng, n_words, blank=blank)
            start, end = full.words[blank]
            answer = full.text[start:end]
            pool = [w for w in rng.sample(VOCABULARY, 4) if w != answer][:3]
            letter = rng.randrange(4)
            pool.insert(letter, answer)
            item_id = f"p{p:04d}#{len(answers)}"
            expected[item_id] = Expected(answer, full.text, (start, end))
            texts.append(shown.text)
            options.append(pool)
            answers.append("ABCD"[letter])
        doc = {"article": " ".join(texts), "options": options, "answers": answers}
        (directory / f"p{p:04d}.json").write_text(json.dumps(doc), encoding="utf-8")
    return expected
