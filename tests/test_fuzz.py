"""Seeded fuzz over the batch edges of one generation request and of CLOTH
preparation.

Contexts mix abbreviations, initials, unicode whitespace, quotes after
periods and one-word sentences. Spans, ``k``, dispersion, strategy, average
and the model window are drawn at random, on a seeded ``MockMaskedLM`` and a
hash-verdict NLI, and some draws make one backend reply malformed. Every
request either meets the invariants of a good result and matches the
request decoded in full and then selected from the whole ranked list (and,
where the span lies on whitespace-token boundaries and nothing is windowed,
the whole-request oracle), or fails with a ``ClozegenError``; through ``clozegen generate`` a pairs file
exits 0 or 2 with one record per input line, or 1 at load if some answer is
blank.

CLOTH passages put blanks anywhere: at the start, glued to punctuation or
next to each other. Every question is prepared under each input mode and
prefill mode, and ``clozegen evaluate`` on such passages exits 0 or 2 with a
report over exactly the questions that printed no ``error:`` line.
"""

import json
import math
import random
import re
import warnings
from collections import Counter

from clozegen.backends import MockMaskedLM, TokenPrediction
from clozegen.cli import main
from clozegen.data import (
    BLANK_RE, INPUT_MODES, PREFILL_MODES, ClozePassage, ClozeQuestion, extract_sentence,
    prepare_context, trim_span,
)
from clozegen.errors import ClozegenError
from clozegen.generation import GenerationConfig, decode_plan, normalize_text
from clozegen.pipeline import generate_distractors, result_to_dict
from clozegen.selection import verify_distractor_set

from tests.conftest import CountingMLM, CountingNli, eager_request
from tests.oracles import query_string_prefill, whole_request_oracle
from tests.test_pipeline import HashNli

WORDS = [
    "the", "cat", "sat", "on", "a", "mat", "I", "Dr.", "Mr.", "J.", "e.g.", "U.S.",
    "No.", "etc.", "St.", "Go!", "Why?", "Hi.", '"Stop."', "'Yes.'", "café", "naïve",
]
SEPARATORS = [" ", " ", " ", "  ", "\t", "\n", "\u00a0", "\u2028", "\u3000", ". ", "? ", '." ']
FILLS = ["the", "The", "cat", "CAT", "mat", "Dr.", "café", "'s", ",", "...", "x y", "", " "]


def draw_context(rnd):
    words = rnd.choices(WORDS, k=rnd.randint(1, 12))
    text = words[0] + "".join(rnd.choice(SEPARATORS) + w for w in words[1:])
    return text + rnd.choice(["", ".", " .", "!", "\n"])


def draw_span(rnd, context):
    """Mostly whole words, sometimes any characters (split words, whitespace)."""
    if rnd.random() < 0.7:
        words = [(w.start(), w.end()) for w in re.finditer(r"\S+", context)]
        first = rnd.randrange(len(words))
        last = min(first + rnd.randint(0, 2), len(words) - 1)
        return words[first][0], words[last][1]
    start = rnd.randrange(len(context))
    return start, rnd.randint(start + 1, len(context))


def draw_config(rnd):
    return GenerationConfig(
        n_mask=rnd.choice([0, 0, 1, 2, 3]),
        dispersion=rnd.randint(0, 2),
        k=rnd.randint(1, 4),
        m_s=rnd.choice([None, 1, 2]),
        strategy=rnd.choice(["l2r", "r2l", "ctl"]),
        avg=rnd.choice(["geometric", "harmonic"]),
        seed=rnd.randrange(100),
    )


# Malformed replies, each a function of a well-formed one.
MLM_FAULTS = [
    lambda replies: replies[:-1],
    lambda replies: tuple(replies),
    lambda replies: [[TokenPrediction("x", 0.0)]] + replies[1:],
    lambda replies: [[TokenPrediction("x", math.nan)]] + replies[1:],
    lambda replies: [[TokenPrediction(None, 0.5)]] + replies[1:],
    lambda replies: [[TokenPrediction("x", 1)]] + replies[1:],
    lambda replies: [[("x", 0.5)]] + replies[1:],
]
NLI_FAULTS = [
    lambda labels: labels[:-1],
    lambda labels: tuple(labels),
    lambda labels: ["maybe"] + labels[1:],
    lambda labels: [None] + labels[1:],
]


class FaultyMLM(CountingMLM):
    """Corrupts the reply to its ``at``-th batch (counting from 1) with ``fault``."""

    def __init__(self, inner, fault=None, at=0):
        super().__init__(inner)
        self.fault, self.at = fault, at

    def fill_mask_batch(self, queries, top_k):
        replies = super().fill_mask_batch(queries, top_k)
        return self.fault(replies) if len(self.batches) == self.at else replies


class FaultyNli(CountingNli):
    """Corrupts the reply to its ``at``-th batch (counting from 1) with ``fault``."""

    def __init__(self, inner, fault=None, at=0):
        super().__init__(inner)
        self.fault, self.at = fault, at

    def classify_nli_batch(self, pairs):
        labels = super().classify_nli_batch(pairs)
        return self.fault(labels) if len(self.batches) == self.at else labels


def check_result(result, context, span, config, nli):
    """The invariants of a good result; ``nli`` has recorded every pair it classified."""
    start, end = trim_span(context, span)
    answer = context[start:end]
    chosen = result.distractor_set
    texts = [c.text for c in result.all_candidates]
    assert chosen.answer == answer
    assert len(chosen.distractors) <= config.k
    assert chosen.underfilled is (len(chosen.distractors) < config.k)
    keys = [normalize_text(t) for t in texts]
    assert normalize_text(answer) not in keys and len(set(keys)) == len(keys)
    assert "" not in keys  # no blank fill reaches selection
    scores = [c.rank_score for c in result.all_candidates]
    assert scores == sorted(scores, reverse=True)
    positions = [texts.index(d) for d in chosen.distractors]  # each is a candidate
    assert positions == sorted(positions)
    for entry in chosen.trace:
        assert entry.candidate in texts and entry.candidate not in chosen.distractors
        assert entry.counterpart == answer or entry.counterpart in chosen.distractors
    sentence, (s, e) = extract_sentence(context, span)
    allowed = {sentence[:s] + t + sentence[e:] for t in [answer, *texts]}
    assert {text for pair in nli.calls for text in pair} <= allowed
    assert len(set(nli.calls)) == len(nli.calls)  # no pair is classified twice
    assert verify_distractor_set(nli.inner, sentence, chosen, (s, e))
    json.dumps(result_to_dict(result), allow_nan=False)


def oracle_domain(context, span, config, mlm):
    """The trimmed span, if it lies on whitespace-token boundaries and no mask
    count of the request is windowed, so ``whole_request_oracle`` can replay
    it; else None."""
    start, end = trim_span(context, span)
    if context[start - 1 : start].strip() or context[end : end + 1].strip():
        return None
    counts, _ = decode_plan(config, len(context[start:end].split()))
    outside = len(context[:start].split()) + len(context[end:].split())
    return (start, end) if outside + max(counts) <= mlm.info().max_sequence_length else None


def check_against_oracle(result, context, span, config, mlm, nli):
    """``result`` read a prefix of the oracle's ranking and chose as it does."""
    sentence, (s, _) = extract_sentence(context, span)
    bounds = (span[0] - s, span[0] - s + len(sentence))
    ranked, expected = whole_request_oracle(mlm, nli, context, span, bounds, config)
    got = result.all_candidates
    where = (context, span, config)
    assert len(got) <= len(ranked), where
    assert [c.text for c in got] == [c[0] for c in ranked[: len(got)]], where
    assert [c.step_probabilities for c in got] == [c[2] for c in ranked[: len(got)]], where
    for c, (_, score, _, _) in zip(got, ranked):
        assert abs(c.rank_score - score) <= 1e-12, where
    chosen = result.distractor_set
    assert chosen.distractors == expected.distractors, where
    assert chosen.underfilled is expected.underfilled, where
    assert chosen.trace == expected.trace, where


def test_generation_requests_meet_the_invariants_or_fail_cleanly():
    rnd = random.Random(3)
    outcomes = Counter()
    shortened = 0  # requests whose selection stopped before the last candidate
    replayed = 0  # requests checked against the whole-request oracle
    for trial in range(2000):
        context = draw_context(rnd)
        span = draw_span(rnd, context)
        config = draw_config(rnd)
        mock = MockMaskedLM(
            vocabulary=rnd.sample(FILLS, rnd.randint(1, len(FILLS))),
            fallback="seeded",
            salt=trial,
            max_sequence_length=rnd.choice([512, 512, 8, 5, 3]),
        )
        mlm, nli = FaultyMLM(mock), FaultyNli(HashNli(trial))
        fault = rnd.random()
        if fault < 0.1:
            mlm.fault, mlm.at = rnd.choice(MLM_FAULTS), rnd.randint(1, 3)
        elif fault < 0.2:
            nli.fault, nli.at = rnd.choice(NLI_FAULTS), rnd.randint(1, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a span across sentences warns
            try:
                result = generate_distractors(context, span, config, mlm, nli)
                outcome = "ok"
            except ClozegenError as exc:
                outcome = type(exc).__name__
            # a malformed reply fails its request, and only a malformed reply
            # is a BackendError
            sent = any(b.fault and len(b.batches) >= b.at for b in (mlm, nli))
            assert (outcome == "BackendError") if sent else (outcome != "BackendError")
            assert outcome != "ContractViolation", (context, span, config)
            if outcome == "ok":
                check_result(result, context, span, config, nli)
                ranked, chosen = eager_request(context, span, config, mock, nli.inner)
                assert result.distractor_set == chosen, (context, span, config)
                assert result.all_candidates == ranked[: len(result.all_candidates)]
                shortened += len(result.all_candidates) < len(ranked)
                trimmed = oracle_domain(context, span, config, mock)
                if trimmed is not None:
                    check_against_oracle(result, context, trimmed, config, mock, nli.inner)
                    replayed += 1
        outcomes[outcome] += 1
    assert outcomes["ok"] > 1300, outcomes
    assert outcomes["BackendError"] and outcomes["SpanError"], outcomes
    assert shortened > 500, shortened
    # a faulty NLI reply lands on a batch by its index, so this count moves
    # with the number of selection batches
    assert replayed == 776, replayed


def test_generate_writes_one_record_per_pair_and_exits_0_or_2(tmp_path, capsys):
    rnd = random.Random(5)
    codes = set()
    for run in range(10):
        pairs = []
        for i in range(rnd.randint(1, 12)):
            context = draw_context(rnd)
            start, end = draw_span(rnd, context)
            pairs.append({"id": f"q{i}", "context": context, "answer_start": start,
                          "answer_end": end})
        pairs_path = tmp_path / f"pairs{run}.jsonl"
        pairs_path.write_text("".join(json.dumps(p) + "\n" for p in pairs), encoding="utf-8")
        mock = {
            "vocabulary": rnd.sample(FILLS, rnd.randint(1, len(FILLS))),
            "fallback": "seeded",
            "salt": run,
            "max_sequence_length": rnd.choice([512, 8, 3]),
            "nli_default": rnd.choice(["entailment", "neutral"]),
        }
        mock_path = tmp_path / f"mock{run}.json"
        mock_path.write_text(json.dumps(mock), encoding="utf-8")
        config = draw_config(rnd)
        out = tmp_path / f"out{run}.jsonl"
        argv = [
            "generate", str(pairs_path),
            "--model", f"mock:{mock_path}", "--nli-model", f"mock:{mock_path}",
            "--output", str(out),
            "--n-mask", str(config.n_mask), "--dispersion", str(config.dispersion),
            "--top-k", str(config.k), "--strategy", config.strategy, "--avg", config.avg,
            "--seed", str(config.seed),
        ]
        code = main(argv)  # each warning is a stderr line, not a Python warning
        err = capsys.readouterr().err
        assert "Traceback" not in err
        blank = [(line, p) for line, p in enumerate(pairs, 1)
                 if p["context"][p["answer_start"]:p["answer_end"]].isspace()]
        if blank:  # a blank answer is rejected at load, naming its line
            line, pair = blank[0]
            span = (pair["answer_start"], pair["answer_end"])
            assert code == 1 and not out.exists()
            assert err == (f"error: {pairs_path}: line {line}: span {span} "
                           f"of pair {pair['id']!r} holds no text\n")
            codes.add(code)
            continue
        lines = out.read_text(encoding="utf-8").split("\n")  # contexts hold U+2028
        records = [json.loads(line) for line in lines[:-1]]
        assert [r["id"] for r in records] == [p["id"] for p in pairs]
        failed = [r for r in records if "error" in r]
        assert code == (2 if failed else 0), (code, failed)
        assert all("distractors" in r for r in records if "error" not in r)
        codes.add(code)
    assert codes == {0, 1, 2}


PASSAGE_WORDS = [
    "Tom", "ran", "home", "the", "cat", "Dr.", "Mr.", "J.", "e.g.", "U.S.", "etc.",
    '"Stop."', "'Yes.'", "end.", "Why?", "Go!", "café",
]
BLANK_SHAPES = ["_", "__", "_.", "_,", "(_)", "_ _", '"_"']
GLUES = [" ", " ", " ", "", "\t", "\n", "\u00a0", "\u2028", ". "]
PREFILL_FILLS = ["", " ", "x y", "_", "end.", "Dr.", "tea", "Mr.", "?"]
OPTIONS = ["tea", "rice", "x y", "Dr.", "end.", "café", "U.S.", "go"]


def draw_article(rnd):
    """Words with blanks anywhere, the first piece at the very start."""
    pieces = rnd.choices(PASSAGE_WORDS, k=rnd.randint(0, 10))
    for _ in range(rnd.randint(1, 4)):
        pieces.insert(rnd.randint(0, len(pieces)), rnd.choice(BLANK_SHAPES))
    return pieces[0] + "".join(rnd.choice(GLUES) + piece for piece in pieces[1:])


def draw_options(rnd):
    options = rnd.sample(OPTIONS, 4)
    return options, rnd.randrange(4)


def draw_prefill_mock(rnd, salt):
    return {
        "vocabulary": rnd.sample(PREFILL_FILLS, rnd.randint(1, len(PREFILL_FILLS))),
        "fallback": "seeded",
        "salt": salt,
        "max_sequence_length": rnd.choice([512, 512, 6, 3, 2]),
    }


def test_cloth_preparation_meets_its_invariants_or_fails_cleanly():
    rnd = random.Random(11)
    outcomes = Counter()
    compared = 0  # model prefills checked against the query-string recipe
    for trial in range(800):
        text = draw_article(rnd)
        questions = []
        for _ in BLANK_RE.finditer(text):
            options, answer = draw_options(rnd)
            distractors = options[:answer] + options[answer + 1 :]
            questions.append(ClozeQuestion(options[answer], distractors))
        passage = ClozePassage("p", text, questions)
        mlm = MockMaskedLM(**draw_prefill_mock(rnd, trial))
        kept_text = BLANK_RE.split(text)
        for qi in range(len(questions)):
            for prefill in PREFILL_MODES:
                prepared = {}
                for mode in INPUT_MODES:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")  # a sentence union warns
                        try:
                            prepared[mode] = prepare_context(
                                passage, qi, mode, prefill, mlm_backend=mlm
                            )
                        except ClozegenError as exc:
                            outcomes[type(exc).__name__] += 1
                if len(prepared) < 2:
                    continue
                outcomes["ok"] += 1
                full = prepared["passage"]
                if prefill == "model":
                    # the recipe fails where a mask glued to text does not
                    # survive whitespace tokenization; elsewhere both agree
                    oracle = query_string_prefill(mlm, text, qi)
                    if oracle is not None:
                        assert full.context == oracle, (text, qi)
                        compared += len(questions) > 1  # some blank was filled
                start, end = full.answer_span
                assert BLANK_RE.fullmatch(full.context[start:end]), (text, qi, prefill)
                if prefill != "model":  # the text between blanks survives, in order
                    at = 0
                    for piece in kept_text:
                        at = full.context.index(piece, at) + len(piece)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    sentence = extract_sentence(full.context, full.answer_span)
                got = prepared["sentence"]
                assert (got.context, got.answer_span) == sentence, (text, qi, prefill)
    assert outcomes["ok"] > 6000, outcomes
    assert compared > 250, compared


def test_evaluate_exits_0_or_2_and_reports_every_question_without_an_error_line(
    tmp_path, capsys
):
    rnd = random.Random(13)
    codes = set()
    for run in range(20):
        directory = tmp_path / f"cloth{run}"
        directory.mkdir()
        questions = 0
        for p in range(rnd.randint(1, 3)):
            article = draw_article(rnd)
            blanks = len(BLANK_RE.findall(article))
            drawn = [draw_options(rnd) for _ in range(blanks)]
            doc = {
                "article": article,
                "options": [options for options, _ in drawn],
                "answers": ["ABCD"[answer] for _, answer in drawn],
            }
            (directory / f"p{p}.json").write_text(json.dumps(doc), encoding="utf-8")
            questions += blanks
        mock_path = tmp_path / f"mock{run}.json"
        mock = draw_prefill_mock(rnd, run)
        mock["nli_default"] = rnd.choice(["entailment", "neutral"])
        mock_path.write_text(json.dumps(mock), encoding="utf-8")
        for mode in INPUT_MODES:
            for prefill in PREFILL_MODES:
                out = tmp_path / f"report{run}{mode}{prefill}.json"
                code = main([
                    "evaluate", str(directory),
                    "--model", f"mock:{mock_path}", "--nli-model", f"mock:{mock_path}",
                    "--output", str(out), "--input-mode", mode, "--prefill", prefill,
                ])
                err = capsys.readouterr().err
                assert "Traceback" not in err
                errors = [line for line in err.splitlines() if line.startswith("error: ")]
                assert code == (2 if errors else 0), (code, err)
                if len(errors) < questions:
                    report = json.loads(out.read_text(encoding="utf-8"))
                    assert report["item_count"] == questions - len(errors)
                else:
                    assert not out.exists()
                codes.add(code)
    assert codes == {0, 2}, codes
