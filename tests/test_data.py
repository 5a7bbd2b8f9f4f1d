import json
import random
import warnings

import pytest

from clozegen.backends import MockMaskedLM
from clozegen.data import (
    BLANK_RE,
    _ends_with_abbreviation,
    ClozePassage,
    ClozeQuestion,
    extract_sentence,
    fill_target,
    load_cloth,
    load_pairs,
    prepare_context,
)
from clozegen.errors import ConfigError, ContractViolation, ParseError, ResolveError, SpanError

from tests.conftest import CountingMLM, table_entry
from tests.oracles import ends_with_abbreviation_regex, query_string_prefill


# --- CLOTH loading ---------------------------------------------------------

PASSAGE_DOC = {
    "article": "Tom went to the _ after school. He bought a _ there.",
    "options": [
        ["library", "park", "store", "pool"],
        ["book", "ball", "pen", "hat"],
    ],
    "answers": ["C", "A"],
}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_load_cloth_single_file(tmp_path):
    path = _write(tmp_path, "high0001.json", PASSAGE_DOC)
    passages = list(load_cloth(path))
    assert len(passages) == 1
    passage = passages[0]
    assert passage.id == "high0001"
    assert passage.text_with_blanks == PASSAGE_DOC["article"]
    assert passage.questions == [
        ClozeQuestion(answer="store", distractors=["library", "park", "pool"]),
        ClozeQuestion(answer="book", distractors=["ball", "pen", "hat"]),
    ]


def test_load_cloth_directory_sorted(tmp_path):
    _write(tmp_path, "b.json", PASSAGE_DOC)
    _write(tmp_path, "a.json", PASSAGE_DOC)
    passages = list(load_cloth(tmp_path))
    assert [p.id for p in passages] == ["a", "b"]


def test_load_cloth_parses_each_file_only_when_taken(tmp_path):
    _write(tmp_path, "p0.json", PASSAGE_DOC)
    _write(tmp_path, "p1.json", PASSAGE_DOC)
    _write(tmp_path, "p2.json", {**PASSAGE_DOC, "article": 7})
    passages = load_cloth(tmp_path)
    assert [next(passages).id, next(passages).id] == ["p0", "p1"]
    with pytest.raises(ParseError, match="p2.json: field 'article' must be a string"):
        next(passages)


def test_load_cloth_empty_directory(tmp_path):
    with pytest.raises(ParseError):
        load_cloth(tmp_path)


def test_load_cloth_schema_errors(tmp_path):
    cases = [
        ({**PASSAGE_DOC, "answers": ["C"]}, "answers"),
        ({**PASSAGE_DOC, "options": [["a", "b", "c"], ["x", "y", "z", "w"]]}, "options[0]"),
        ({**PASSAGE_DOC, "answers": ["C", "E"]}, "answers[1]"),
        ({**PASSAGE_DOC, "article": "no blanks here"}, "blanks"),
        ({"options": [], "answers": []}, "article"),
        (
            {**PASSAGE_DOC, "options": [["a", "b", " ", "d"], ["e", "f", "g", "h"]]},
            "options[0] has a blank answer option",
        ),
        (
            {**PASSAGE_DOC, "options": [["a", "b", "c", "d"], ["e", "f", "g", "\t"]]},
            "options[1] has a blank distractor option",
        ),
    ]
    for i, (doc, needle) in enumerate(cases):
        path = _write(tmp_path, f"bad{i}.json", doc)
        with pytest.raises(ParseError) as err:
            list(load_cloth(path))
        assert needle in str(err.value)
        assert path.name in str(err.value)


# --- pair loading ----------------------------------------------------------


def test_load_pairs_explicit_offsets(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text(
        json.dumps(
            {"id": "p1", "context": "open the door", "answer_start": 0, "answer_end": 4}
        )
        + "\n",
        encoding="utf-8",
    )
    pairs = load_pairs(path)
    assert pairs[0].answer_span == (0, 4)


def test_load_pairs_answer_text_first_occurrence(tmp_path):
    path = tmp_path / "pairs.jsonl"
    records = [
        {"id": "p1", "context": "the cat saw the cat", "answer_text": "cat"},
        {"id": "p2", "context": "a lone word", "answer_text": "lone"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
    with pytest.warns(UserWarning):
        pairs = load_pairs(path)
    assert pairs[0].answer_span == (4, 7)
    assert pairs[1].answer_span == (2, 6)


def test_load_pairs_errors(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text(
        json.dumps({"id": "p1", "context": "abc", "answer_text": "zzz"}),
        encoding="utf-8",
    )
    with pytest.raises(ResolveError):
        load_pairs(path)
    path.write_text("{oops", encoding="utf-8")
    with pytest.raises(ParseError):
        load_pairs(path)
    path.write_text(json.dumps({"id": "x", "context": "abc"}), encoding="utf-8")
    with pytest.raises(ParseError):
        load_pairs(path)
    path.write_text(
        json.dumps({"context": "abc", "answer_start": 1, "answer_end": 9}),
        encoding="utf-8",
    )
    with pytest.raises(SpanError):
        load_pairs(path)


@pytest.mark.parametrize(
    "record",
    [
        {"context": "see the    gap here", "answer_start": 7, "answer_end": 9},
        {"context": "see the  gap here", "answer_text": "  "},
        {"context": "tab\there", "answer_text": "\t"},
    ],
)
def test_load_pairs_rejects_a_blank_answer(tmp_path, record):
    path = tmp_path / "pairs.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(SpanError, match=r"pairs\.jsonl: line 1: span \(\d+, \d+\) .* no text"):
        load_pairs(path)


# --- sentence extraction ---------------------------------------------------

# (text, answer substring, expected sentence) verified by hand
SENTENCE_CASES = [
    ("A b. C d e. F.", "d", "C d e."),
    ("Just one sentence here", "one", "Just one sentence here"),
    ("First one. second part", "second", "second part"),
    ("Hello! How are you? Fine.", "are", "How are you?"),
    ("Mr. Smith went home. He slept.", "Smith", "Mr. Smith went home."),
    ("She cited Dr. Jones. Then left.", "Jones", "She cited Dr. Jones."),
    ("Use e.g. apples. Then oranges.", "apples", "Use e.g. apples."),
    ("J. Smith arrived. We began.", "arrived", "J. Smith arrived."),
    ("Wait... Then go. Now.", "go", "Then go."),
    ("Start here. End there.", "Start", "Start here."),
    ("A b. C d.", "d", "C d."),
    ("Really?! Yes. Ok.", "Yes", "Yes."),
    ("See example.com for info. Thanks.", "info", "See example.com for info."),
    ("First line.\nSecond thing.", "Second", "Second thing."),
    ("One.   Two three.", "Two", "Two three."),
    ("U.S. policy changed. Good.", "policy", "U.S. policy changed."),
    ("Tiny.", "Tiny", "Tiny."),
    ("Stop now! Go later.", "Go", "Go later."),
    ("It cost 3.50 dollars. Cheap.", "dollars", "It cost 3.50 dollars."),
    ("The end is near. Trust me.", "me", "Trust me."),
]


def test_extract_sentence_fixture():
    for text, needle, expected in SENTENCE_CASES:
        start = text.index(needle)
        span = (start, start + len(needle))
        sentence, adjusted = extract_sentence(text, span)
        assert sentence == expected, (text, needle)
        a, b = adjusted
        assert sentence[a:b] == needle, (text, needle)


def test_extract_sentence_straddling_span_unions_and_warns():
    text = "One two. Three four."
    start = text.index("two")
    span = (start, text.index("Three") + len("Three"))
    with pytest.warns(UserWarning):
        sentence, adjusted = extract_sentence(text, span)
    assert sentence == "One two. Three four."
    a, b = adjusted
    assert sentence[a:b] == text[span[0] : span[1]]


def test_ends_with_abbreviation_matches_regex_form():
    # regex $ also matches before a trailing newline, so "Dr" precedes this period
    assert _ends_with_abbreviation("Dr\n.", 3)
    assert ends_with_abbreviation_regex("Dr\n.", 3)
    pieces = ["Dr", "mr", "e.g", "U.S", "etc", "J", "x", "é", "_", "3", "²"]
    pieces += [".", ".", " ", "\n", "\t", "!"]
    rnd = random.Random(1815)
    for _ in range(2000):
        text = "".join(rnd.choice(pieces) for _ in range(rnd.randint(0, 12)))
        for i, char in enumerate(text):
            if char == ".":
                expected = ends_with_abbreviation_regex(text, i)
                assert _ends_with_abbreviation(text, i) == expected, (text, i)


def test_extract_sentence_span_validation():
    with pytest.raises(SpanError):
        extract_sentence("abc", (2, 9))
    with pytest.raises(SpanError):
        extract_sentence("One. Two.", (4, 5))


def test_extract_sentence_keeps_the_trimmed_span_inside_its_sentence():
    words = ["Dr.", "Mr.", "e.g.", "U.S.", "J.", "etc.", "A.", "the", "Go", "cat", "3.50"]
    words += ["end.", "stop!", "why?", '"yes."', "so...", "x", "é"]
    gaps = [" ", " ", "  ", "\t", "\n", "\u2028", " \n "]
    rnd = random.Random(2028)
    spans = 0
    for _ in range(5000):
        count = rnd.randint(1, 14)
        text = rnd.choice(["", " ", "\n"]) + "".join(
            rnd.choice(words) + rnd.choice(gaps) for _ in range(count)
        )
        for _ in range(6):
            start = rnd.randrange(len(text))
            end = rnd.randint(start + 1, len(text))
            core = text[start:end].strip()
            if not core:
                with pytest.raises(SpanError):
                    extract_sentence(text, (start, end))
                continue
            spans += 1
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # straddling spans warn
                sentence, (a, b) = extract_sentence(text, (start, end))
            assert 0 <= a < b <= len(sentence), (text, start, end)
            assert sentence[a:b] == core, (text, start, end)
    assert spans > 20_000


# --- context preparation ---------------------------------------------------

THREE_BLANK_DOC = {
    "article": "I like _ a lot. We eat _ daily. She wants _ now.",
    "options": [
        ["tea", "mud", "ink", "tar"],
        ["rice", "glass", "sand", "foam"],
        ["rest", "noise", "dust", "smoke"],
    ],
    "answers": ["A", "A", "A"],
}


def _three_blank_passage(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(THREE_BLANK_DOC), encoding="utf-8")
    return list(load_cloth(path))[0]


def test_prepare_context_gold_prefill(tmp_path):
    passage = _three_blank_passage(tmp_path)
    prepared = prepare_context(passage, 1, "passage", "gold")
    assert prepared.context == "I like tea a lot. We eat _ daily. She wants rest now."
    start, end = prepared.answer_span
    assert prepared.context[start:end] == "_"
    assert len(BLANK_RE.findall(prepared.context)) == 1


def test_prepare_context_model_prefill_commits_left_to_right(tmp_path):
    passage = _three_blank_passage(tmp_path)
    first_query = "I like [MASK] a lot. We eat _ daily. She wants _ now."
    # the second lookup key embeds the first commit, proving sequential fills
    second_query = "I like tea a lot. We eat [MASK] daily. She wants _ now."
    table = dict(
        [
            table_entry(
                first_query.split(), first_query.split().index("[MASK]"), [("tea", 0.9)]
            ),
            table_entry(
                second_query.split(), second_query.split().index("[MASK]"), [("rice", 0.8)]
            ),
        ]
    )
    mlm = MockMaskedLM(table=table)  # empty vocabulary: any miss would raise
    prepared = prepare_context(passage, 2, "passage", "model", mlm_backend=mlm)
    assert prepared.context == "I like tea a lot. We eat rice daily. She wants _ now."
    start, end = prepared.answer_span
    assert prepared.context[start:end] == "_"


def test_prepare_context_model_requires_backend(tmp_path):
    passage = _three_blank_passage(tmp_path)
    with pytest.raises(ConfigError):
        prepare_context(passage, 0, "passage", "model")


def test_prepare_context_none_leaves_other_blanks(tmp_path):
    passage = _three_blank_passage(tmp_path)
    prepared = prepare_context(passage, 0, "passage", "none")
    assert prepared.context == passage.text_with_blanks
    start, end = prepared.answer_span
    assert prepared.context[start:end] == "_"


def test_prepare_context_sentence_mode_single_blank(tmp_path):
    passage = _three_blank_passage(tmp_path)
    prepared = prepare_context(passage, 1, "sentence", "gold")
    assert prepared.context == "We eat _ daily."
    start, end = prepared.answer_span
    assert prepared.context[start:end] == "_"


def test_prepare_context_sentence_mode_two_blank_sentence(tmp_path):
    doc = {
        "article": "We eat _ and _ daily. Then we sleep.",
        "options": [
            ["rice", "glass", "sand", "foam"],
            ["fruit", "rocks", "coal", "wire"],
        ],
        "answers": ["A", "A"],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    passage = list(load_cloth(path))[0]
    prepared = prepare_context(passage, 1, "sentence", "gold")
    # the non-target blank in the same sentence is gold-filled
    assert prepared.context == "We eat rice and _ daily."
    start, end = prepared.answer_span
    assert prepared.context[start:end] == "_"


def test_prepare_context_never_touches_text_outside_blanks(tmp_path):
    passage = _three_blank_passage(tmp_path)
    prepared = prepare_context(passage, 0, "passage", "gold")
    got_chunks = BLANK_RE.split(prepared.context.replace("rice", "_").replace("rest", "_"))
    original_chunks = BLANK_RE.split(passage.text_with_blanks)
    assert got_chunks == original_chunks


def test_prepare_context_validation(tmp_path):
    passage = _three_blank_passage(tmp_path)
    with pytest.raises(ContractViolation):
        prepare_context(passage, 9, "passage", "gold")
    with pytest.raises(ContractViolation):
        prepare_context(passage, 0, "chapter", "gold")
    with pytest.raises(ContractViolation):
        prepare_context(passage, 0, "passage", "llm")


def test_fill_target(tmp_path):
    passage = _three_blank_passage(tmp_path)
    prepared = prepare_context(passage, 1, "passage", "gold")
    context, span = fill_target(prepared, "rice")
    assert context == "I like tea a lot. We eat rice daily. She wants rest now."
    assert context[span[0] : span[1]] == "rice"
    with pytest.raises(ContractViolation):
        fill_target(prepared, "")


def test_prepare_context_model_prefill_windows_long_passages(tmp_path):
    filler = " ".join(f"w{i}" for i in range(40))
    doc = {
        "article": f"{filler} blank _ here. More _ text.",
        "options": [["a", "b", "c", "d"], ["e", "f", "g", "h"]],
        "answers": ["A", "A"],
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    passage = list(load_cloth(path))[0]
    mlm = MockMaskedLM(vocabulary=["x", "y"], max_sequence_length=8)
    prepared = prepare_context(passage, 1, "passage", "model", mlm_backend=mlm)
    assert "blank x here." in prepared.context or "blank y here." in prepared.context


def test_prepare_context_warnings_are_clean(tmp_path):
    passage = _three_blank_passage(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prepare_context(passage, 0, "passage", "gold")


def test_model_prefill_matches_query_string_oracle():
    # blanks delimited by spaces, or glued to punctuation, which the oracle
    # cannot mask under MockMaskedLM's whitespace tokenizer
    words = ["tom", "ran", "home", "the", "cat", "sat", "on", "a", "mat", "and"]
    glued_shapes = ["_.", "_,", "(_)"]
    rnd = random.Random(41)
    compared = oracle_failed = 0
    for trial in range(150):
        parts = []
        for _ in range(rnd.randint(2, 5)):
            parts += rnd.sample(words, rnd.randint(1, 4))
            parts.append(rnd.choice(glued_shapes) if rnd.random() < 0.3 else "_")
        text = " ".join(parts + rnd.sample(words, rnd.randint(0, 3)))
        blanks = len(BLANK_RE.findall(text))
        passage = ClozePassage("p", text, [ClozeQuestion("x", ["y"])] * blanks)
        mlm = MockMaskedLM(
            vocabulary=words,
            fallback="seeded",
            salt=trial,
            max_sequence_length=rnd.choice([512, 6]),
        )
        for qi in range(blanks):
            prepared = prepare_context(passage, qi, "passage", "model", mlm_backend=mlm)
            start, end = prepared.answer_span
            assert prepared.context[start:end] == "_"
            assert len(BLANK_RE.findall(prepared.context)) == 1
            expected = query_string_prefill(mlm, text, qi)
            if expected is None:
                oracle_failed += 1
            else:
                assert prepared.context == expected
                compared += 1
    assert compared > 100 and oracle_failed > 100


@pytest.mark.parametrize(
    "text, passage_batches, sentence_batches",
    [
        ("I like _ a lot. We eat _ daily. She wants _ now. They sell _ here.", 12, 6),
        ("We eat _. _ is here.", 2, 1),  # the next blank starts one space past the break
    ],
)
def test_sentence_mode_prefill_stops_after_the_target_sentence(
    text, passage_batches, sentence_batches
):
    blanks = len(BLANK_RE.findall(text))
    passage = ClozePassage("p", text, [ClozeQuestion("x", ["y"])] * blanks)
    mlm = MockMaskedLM(vocabulary=["tea", "rice"], fallback="seeded", salt=3)
    batches = {}
    for mode in ("passage", "sentence"):
        counting = CountingMLM(mlm)
        for qi in range(blanks):
            prepare_context(passage, qi, mode, "model", mlm_backend=counting)
        batches[mode] = len(counting.batches)
    # question q fills the q blanks before it; passage mode also fills those after
    assert batches == {"passage": passage_batches, "sentence": sentence_batches}


def test_sentence_mode_equals_the_sentence_of_the_passage_mode_result():
    # pieces are glued at random, so blanks touch punctuation ("now._", "_."),
    # and fills may be empty or punctuation that adds or removes a break
    pieces = ["now", "we", "ate", "Dr", "J", ".", ".", "!", "?", "_", "_", "_"]
    fills = ["", ".", "?", "Dr", "J", "tea", "Mr."]
    rnd = random.Random(22)
    compared = saved = 0
    for trial in range(300):
        parts = rnd.choices(pieces, k=rnd.randint(4, 16))
        text = "".join(p + rnd.choice([" ", " ", "", "\n"]) for p in parts)
        blanks = len(BLANK_RE.findall(text))
        if not blanks:
            continue
        passage = ClozePassage("p", text, [ClozeQuestion("x", ["y"])] * blanks)
        mlm = MockMaskedLM(vocabulary=fills, fallback="seeded", salt=trial)
        for qi in range(blanks):
            whole, narrowed = CountingMLM(mlm), CountingMLM(mlm)
            full = prepare_context(passage, qi, "passage", "model", mlm_backend=whole)
            got = prepare_context(passage, qi, "sentence", "model", mlm_backend=narrowed)
            sentence, span = extract_sentence(full.context, full.answer_span)
            assert (got.context, got.answer_span) == (sentence, span), (text, qi)
            assert len(narrowed.batches) <= len(whole.batches)
            saved += len(whole.batches) - len(narrowed.batches)
            compared += 1
    assert compared > 500 and saved > 300
