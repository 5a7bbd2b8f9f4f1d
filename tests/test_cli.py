import json

import pytest

from clozegen.cli import MODEL_CACHE_ENV, build_parser, config_from_args, main, make_backend
from clozegen.generation import GenerationConfig

from tests.test_pipeline import AFTER_FORCE, AFTER_SLAM, CONTEXT, ONE_MASK, SENTENCE, SHUT_V, SLAM_V, TWO_MASK


def make_mock_document():
    def entry(text, position, top):
        return {"fingerprint": text, "position": position, "top": top}

    return {
        "mask_token": "[MASK]",
        "vocabulary": ["library", "park", "pool", "store"],
        "predictions": [
            entry(ONE_MASK, 3, [["open", 0.9], ["shut", 0.8], ["lock", 0.6]]),
            entry(TWO_MASK, 3, [["slam", 0.9], ["force", 0.7]]),
            entry(AFTER_SLAM, 4, [["shut", 0.95]]),
            entry(AFTER_FORCE, 4, [["ajar", 0.5]]),
        ],
        "nli": [
            [SHUT_V, SENTENCE, "entailment"],
            [SHUT_V, SLAM_V, "entailment"],
            [SLAM_V, SHUT_V, "entailment"],
        ],
        "nli_default": "neutral",
    }


@pytest.fixture
def mock_config_path(tmp_path):
    path = tmp_path / "mock.json"
    path.write_text(json.dumps(make_mock_document()), encoding="utf-8")
    return path


@pytest.fixture
def pairs_path(tmp_path):
    records = [
        {"id": "p1", "context": CONTEXT, "answer_start": 13, "answer_end": 17},
        {"id": "p2", "context": CONTEXT, "answer_text": "door"},
        {"id": "p3", "context": CONTEXT, "answer_text": "waits."},
    ]
    path = tmp_path / "pairs.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return path


# A pair that loads but fails its item: no mask run for its 600 answer
# tokens fits the mock's 512-token window.
UNFITTABLE = {"context": " ".join(["word"] * 600), "answer_start": 0, "answer_end": 2999}


def _generate_args(mock_config_path, pairs_path, out, extra=()):
    return [
        "generate",
        str(pairs_path),
        "--model",
        f"mock:{mock_config_path}",
        "--nli-model",
        f"mock:{mock_config_path}",
        "--n-mask",
        "0",
        "--dispersion",
        "1",
        "--top-k",
        "2",
        "--search-multiplier",
        "1",
        "--strategy",
        "l2r",
        "--seed",
        "0",
        "--output",
        str(out),
        *extra,
    ]


def test_generate_writes_one_line_per_pair(mock_config_path, pairs_path, tmp_path):
    out = tmp_path / "out.jsonl"
    code = main(_generate_args(mock_config_path, pairs_path, out))
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first["id"] == "p1"
    assert first["distractors"] == ["slam shut", "force ajar"]
    assert set(first) == {"id", "distractors", "candidates", "trace", "config"}


def test_generate_partial_failure_exit_code(mock_config_path, tmp_path):
    records = [
        {"id": "ok", "context": CONTEXT, "answer_start": 13, "answer_end": 17},
        {"id": "bad", **UNFITTABLE},
        {"id": "ok2", "context": CONTEXT, "answer_text": "door"},
    ]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    code = main(_generate_args(mock_config_path, pairs, out))
    assert code == 2
    lines = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert [line["id"] for line in lines] == ["ok", "bad", "ok2"]
    assert "distractors" in lines[0] and "distractors" in lines[2]
    assert lines[1]["error"]["type"] == "SpanError"


def test_generate_missing_model_and_bad_input(mock_config_path, pairs_path, tmp_path, capsys):
    code = main(["generate", str(pairs_path), "--nli-model", f"mock:{mock_config_path}"])
    assert code == 1
    assert "error" in capsys.readouterr().err
    code = main(
        [
            "generate",
            str(tmp_path / "missing.jsonl"),
            "--model",
            f"mock:{mock_config_path}",
            "--nli-model",
            f"mock:{mock_config_path}",
        ]
    )
    assert code == 1


def test_warnings_name_their_item(mock_config_path, tmp_path, capsys):
    records = [
        {"id": "a", "context": "The cat sat. It ran off.", "answer_text": "sat. It"},
        {"id": "b", "context": "Dogs bark. Birds sing.", "answer_start": 5, "answer_end": 16},
    ]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    args = _generate_args(mock_config_path, pairs, out)
    assert main(args) == 0
    straddle = "span straddles a sentence boundary; returning the sentence union"
    assert capsys.readouterr().err == f"warning: a: {straddle}\nwarning: b: {straddle}\n"
    assert main(args[: args.index("--output")]) == 0  # the same run, to stdout
    captured = capsys.readouterr()
    assert captured.out == out.read_text(encoding="utf-8")
    assert captured.err == f"warning: a: {straddle}\nwarning: b: {straddle}\n"


def test_each_dropped_hypothesis_warning_names_its_mask_count(tmp_path, capsys):
    mock = tmp_path / "empty.json"
    mock.write_text(json.dumps({"vocabulary": []}), encoding="utf-8")
    pairs = tmp_path / "pairs.jsonl"
    record = {"id": "e", "context": "the big old cat sat on the mat", "answer_text": "big old cat"}
    pairs.write_text(json.dumps(record) + "\n", encoding="utf-8")
    spec = f"mock:{mock}"
    argv = ["generate", str(pairs), "--model", spec, "--nli-model", spec, "--dispersion", "2"]
    assert main(argv) == 0
    lines = capsys.readouterr().err.splitlines()
    # three sampled mask counts, each of whose one hypothesis gets no fill at step 0
    assert len(lines) == 3 == len(set(lines))
    assert all(line.startswith("warning: e: backend returned no predictions") for line in lines)


def test_a_load_warning_is_one_line(mock_config_path, tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    record = {"id": "r", "context": "the cat and the cat", "answer_text": "cat"}
    pairs.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert main(_generate_args(mock_config_path, pairs, tmp_path / "out.jsonl")) == 0
    assert capsys.readouterr().err == (
        f"warning: {pairs}: line 1: answer_text occurs more than once; "
        "using the first occurrence\n"
    )


def test_unwritable_output_is_one_error_line(mock_config_path, pairs_path, tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "out.jsonl"
    assert main(_generate_args(mock_config_path, pairs_path, out)) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "no-such-dir" in err


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_unwritable_output_fails_before_any_backend_loads(
    command, pairs_path, cloth_path, tmp_path, capsys
):
    missing = tmp_path / "missing.json"  # loading either backend would fail
    out = tmp_path / "no-such-dir" / "out.json"
    if command == "generate":
        argv = _generate_args(missing, pairs_path, out)
    else:
        argv = _evaluate_args(missing, cloth_path, out)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and str(out) in err and "missing.json" not in err


def test_a_run_that_fails_before_writing_leaves_the_output_as_it_was(
    mock_config_path, pairs_path, tmp_path
):
    missing = tmp_path / "missing.json"
    kept = tmp_path / "kept.jsonl"
    kept.write_text("earlier results\n", encoding="utf-8")
    assert main(_generate_args(missing, pairs_path, kept)) == 1
    assert kept.read_text(encoding="utf-8") == "earlier results\n"
    new = tmp_path / "new.jsonl"
    assert main(_generate_args(missing, pairs_path, new)) == 1
    assert not new.exists()
    assert main(_generate_args(mock_config_path, pairs_path, kept)) == 0
    assert len(kept.read_text(encoding="utf-8").splitlines()) == 3


def test_negative_seed_is_one_error_line(mock_config_path, pairs_path, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert main(_generate_args(mock_config_path, pairs_path, out, ["--seed=-1"])) == 1
    err = capsys.readouterr().err
    assert err == "error: seed must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("content", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
def test_generate_on_a_pairs_file_without_records_is_one_error_line(
    mock_config_path, tmp_path, capsys, content
):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(content, encoding="utf-8")
    mock = f"mock:{mock_config_path}"
    assert main(["generate", str(pairs), "--model", mock, "--nli-model", mock]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {pairs}: no records found\n"
    assert captured.out == ""


def test_generate_deterministic_output_files(mock_config_path, pairs_path, tmp_path):
    out1 = tmp_path / "run1.jsonl"
    out2 = tmp_path / "run2.jsonl"
    assert main(_generate_args(mock_config_path, pairs_path, out1, ["--seed", "7"])) == 0
    assert main(_generate_args(mock_config_path, pairs_path, out2, ["--seed", "7"])) == 0
    assert out1.read_bytes() == out2.read_bytes()


CLOTH_DOC = {
    "article": "Tom went to the _ after school. He bought a _ there.",
    "options": [
        ["library", "park", "store", "pool"],
        ["book", "ball", "pen", "hat"],
    ],
    "answers": ["C", "A"],
}


@pytest.fixture
def cloth_path(tmp_path):
    path = tmp_path / "cloth"
    path.mkdir()
    (path / "high0001.json").write_text(json.dumps(CLOTH_DOC), encoding="utf-8")
    return path


def test_evaluate_with_cloth_preset(mock_config_path, cloth_path, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "evaluate",
            str(cloth_path),
            "--model",
            f"mock:{mock_config_path}",
            "--nli-model",
            f"mock:{mock_config_path}",
            "--preset",
            "cloth",
            "--output",
            str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["item_count"] == 2
    # question 1 generates exactly its gold distractors, question 2 none
    for name in ("p_at_1", "f1_at_3", "mrr_at_10", "ndcg_at_10"):
        assert report["averages"][name] == pytest.approx(50.0)
    table = capsys.readouterr().out
    assert "P@1" in table and "50.00" in table


def _evaluate_args(mock_config_path, input_path, out, *extra):
    return [
        "evaluate",
        str(input_path),
        "--model",
        f"mock:{mock_config_path}",
        "--nli-model",
        f"mock:{mock_config_path}",
        "--preset",
        "cloth",
        "--output",
        str(out),
        *extra,
    ]


@pytest.mark.parametrize("flag, value", [("--limit", "0"), ("--limit", "-1")])
def test_evaluate_rejects_nonpositive_jobs_and_limit(
    mock_config_path, cloth_path, tmp_path, capsys, flag, value
):
    report_path = tmp_path / "report.json"
    assert main(_evaluate_args(mock_config_path, cloth_path, report_path, flag, value)) == 1
    assert capsys.readouterr().err == f"error: {flag} must be >= 1\n"
    assert not report_path.exists()


def test_evaluate_jobs_preserve_report(mock_config_path, cloth_path, tmp_path):
    (cloth_path / "high0002.json").write_text(
        json.dumps({**CLOTH_DOC, "answers": ["A", "B"]}), encoding="utf-8"
    )
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(_evaluate_args(mock_config_path, cloth_path, first)) == 0
    assert main(_evaluate_args(mock_config_path, cloth_path, second)) == 0
    assert json.loads(first.read_text(encoding="utf-8"))["item_count"] == 4
    assert first.read_bytes() == second.read_bytes()


def test_evaluate_limit(mock_config_path, cloth_path, tmp_path):
    (cloth_path / "high0002.json").write_text(json.dumps(CLOTH_DOC), encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = main(
        [
            "evaluate",
            str(cloth_path),
            "--model",
            f"mock:{mock_config_path}",
            "--nli-model",
            f"mock:{mock_config_path}",
            "--preset",
            "cloth",
            "--limit",
            "1",
            "--output",
            str(report_path),
        ]
    )
    assert code == 0
    assert json.loads(report_path.read_text(encoding="utf-8"))["item_count"] == 2


def test_evaluate_limit_reads_only_the_first_passages(mock_config_path, tmp_path, capsys):
    directory = tmp_path / "cl"
    directory.mkdir()
    for name, doc in [("p0", CLOTH_DOC), ("p1", CLOTH_DOC), ("p2", {**CLOTH_DOC, "article": 7})]:
        (directory / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    report_path = tmp_path / "report.json"
    assert main(_evaluate_args(mock_config_path, directory, report_path, "--limit", "2")) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(report_path.read_text(encoding="utf-8"))["item_count"] == 4
    assert main(_evaluate_args(mock_config_path, directory, report_path)) == 1
    assert "p2.json: field 'article' must be a string" in capsys.readouterr().err


def test_evaluate_parse_error(mock_config_path, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"article": "x _", "options": [], "answers": ["A"]}), encoding="utf-8"
    )
    code = main(
        [
            "evaluate",
            str(bad),
            "--model",
            f"mock:{mock_config_path}",
            "--nli-model",
            f"mock:{mock_config_path}",
        ]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        # a gold answer option that is only whitespace
        {**CLOTH_DOC, "options": [["a", "b", "  ", "d"], ["e", "f", "g", "h"]]},
    ],
)
def test_evaluate_bad_item_is_one_error_line(mock_config_path, tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code = main(
        [
            "evaluate",
            str(bad),
            "--model",
            f"mock:{mock_config_path}",
            "--nli-model",
            f"mock:{mock_config_path}",
            "--preset",
            "cloth",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# The prefill queries of CLOTH_DOC: each masks one blank, the other stays raw.
PREFILL_BLANK0 = "Tom went to the [MASK] after school. He bought a _ there."
PREFILL_BLANK1 = "Tom went to the _ after school. He bought a [MASK] there."


def _mock_without_prefill(tmp_path, *queries):
    """The mock document, with no masked-LM prediction for each query."""
    doc = make_mock_document()
    doc["predictions"] += [
        {"fingerprint": q, "position": q.split().index("[MASK]"), "top": []}
        for q in queries
    ]
    path = tmp_path / "mock-no-prefill.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_evaluate_isolates_failed_question(tmp_path, capsys):
    # the masked LM has no fill for blank 0 when question 1 prefills it, so
    # question 1 fails; question 0 is still scored and reported
    mock = _mock_without_prefill(tmp_path, PREFILL_BLANK0)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(CLOTH_DOC), encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = main(_evaluate_args(mock, bad, report_path))
    assert code == 2
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["item_count"] == 1
    assert [item["item_id"] for item in report["per_item"]] == ["bad#0"]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad#1: ")
    assert err == ["error: bad#1: backend returned no predictions for prefill"]


def test_evaluate_all_questions_failed_writes_no_report(tmp_path, capsys):
    mock = _mock_without_prefill(tmp_path, PREFILL_BLANK0, PREFILL_BLANK1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(CLOTH_DOC), encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = main(_evaluate_args(mock, bad, report_path))
    assert code == 2
    assert not report_path.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert [line.split(": ")[1] for line in err] == ["bad#0", "bad#1"]


def test_evaluate_prefills_blank_glued_to_punctuation(mock_config_path, tmp_path):
    # "_." is masked as its own token, the way generation masks an answer
    glued = tmp_path / "glued.json"
    glued.write_text(
        json.dumps({**CLOTH_DOC, "article": "Tom ran _. He bought a _ there."}),
        encoding="utf-8",
    )
    report_path = tmp_path / "report.json"
    assert main(_evaluate_args(mock_config_path, glued, report_path)) == 0
    assert json.loads(report_path.read_text(encoding="utf-8"))["item_count"] == 2


NOT_UTF8 = b'{"article": "caf\xe9 _"}'
TRACE_ENTRY = {"candidate": "a", "stage": "answer-entailment", "counterpart": "b"}

# case -> (subcommand, the role of the bad file, its bytes)
BAD_FILES = {
    "cloth-not-utf8": ("evaluate", "input", NOT_UTF8),
    "pairs-not-utf8": ("generate", "input", NOT_UTF8),
    "mock-not-utf8": ("generate", "mock", NOT_UTF8),
    "trace-not-utf8": ("trace", "input", NOT_UTF8),
    "trace-entry-not-object": ("trace", "input", {"id": "x", "trace": ["a"]}),
    "trace-candidate-not-string": (
        "trace", "input", {"id": "x", "trace": [{**TRACE_ENTRY, "candidate": 5}]}
    ),
    "trace-record-not-object": ("trace", "input", b'{"id": "x", "trace": []}\n["x"]'),
    "mock-salt-not-integer": ("generate", "mock", {"salt": "x"}),
    "mock-length-not-integer": ("generate", "mock", {"max_sequence_length": [512]}),
    "mock-vocabulary-not-list": ("generate", "mock", {"vocabulary": 5}),
    "mock-mask-token-not-string": ("generate", "mock", {"mask_token": 5}),
    "mock-probability-not-number": (
        "generate",
        "mock",
        {"predictions": [{"fingerprint": "a", "position": 0, "top": [["b", "x"]]}]},
    ),
    "mock-unknown-nli-label": ("generate", "mock", {"nli_default": "maybe"}),
    "pairs-bad-json": ("generate", "input", b'{"context": "a b", "answer_text": "a"}\n{oops'),
    "pairs-answer-not-found": ("generate", "input", {"context": "a b", "answer_text": "zzz"}),
    "cloth-without-blanks": (
        "evaluate", "input", {"article": "No blank here.", "options": [], "answers": []}
    ),
    "mock-predictions-not-list": ("generate", "mock", {"predictions": 5}),
    "mock-predictions-null": ("generate", "mock", {"predictions": None}),
    "mock-nli-not-list": ("generate", "mock", {"nli": 5}),
    "mock-vocabulary-item-not-string": ("generate", "mock", {"vocabulary": [5, 6]}),
    "pairs-span-outside-context": (
        "generate", "input", {"context": "a b", "answer_start": 1, "answer_end": 99}
    ),
    "pairs-blank-span": (
        "generate", "input", {"context": "a  b", "answer_start": 1, "answer_end": 3}
    ),
    "pairs-blank-answer-text": ("generate", "input", {"context": "a  b", "answer_text": "  "}),
    # each field must be of its JSON type; none is converted
    "pairs-id-null": ("generate", "input", {"id": None, "context": "a b", "answer_text": "a"}),
    "pairs-answer-text-not-string": (
        "generate", "input", {"context": "a 5 b", "answer_text": 5}
    ),
    "pairs-offsets-not-integers": (
        "generate", "input", {"context": "a b", "answer_start": "0", "answer_end": 1.9}
    ),
    "pairs-offset-bool": (
        "generate", "input", {"context": "ab c", "answer_start": True, "answer_end": 2}
    ),
    "cloth-option-not-string": (
        "evaluate",
        "input",
        {**CLOTH_DOC, "options": [[1, None, "store", True], ["book", "ball", "pen", "hat"]]},
    ),
    "cloth-answer-empty": ("evaluate", "input", {**CLOTH_DOC, "answers": ["", "A"]}),
    "cloth-answer-two-letters": ("evaluate", "input", {**CLOTH_DOC, "answers": ["BC", "A"]}),
    "cloth-answer-not-string": ("evaluate", "input", {**CLOTH_DOC, "answers": [1, "A"]}),
    "mock-position-not-integer": (
        "generate",
        "mock",
        {"predictions": [{"fingerprint": "a", "position": 0.5, "top": [["b", 0.5]]}]},
    ),
    "mock-probability-string": (
        "generate",
        "mock",
        {"predictions": [{"fingerprint": "a", "position": 0, "top": [["b", "0.5"]]}]},
    ),
    "mock-probability-zero": (
        "generate",
        "mock",
        {"predictions": [{"fingerprint": "a", "position": 0, "top": [["b", 0.0]]}]},
    ),
    "mock-probability-bool": (
        "generate",
        "mock",
        {"predictions": [{"fingerprint": "a", "position": 0, "top": [["b", True]]}]},
    ),
    "mock-fingerprint-not-string": (
        "generate",
        "mock",
        {"predictions": [{"fingerprint": 5, "position": 0, "top": [["b", 0.5]]}]},
    ),
    "mock-token-not-string": (
        "generate",
        "mock",
        {"predictions": [{"fingerprint": "a", "position": 0, "top": [[7, 0.5]]}]},
    ),
    "mock-nli-entry-not-strings": ("generate", "mock", {"nli": [[1, 2, "entailment"]]}),
    "mock-unknown-fallback": ("generate", "mock", {"fallback": "zigzag"}),
    "pairs-answer-text-empty": ("generate", "input", {"context": "a b", "answer_text": ""}),
    "cloth-blanks-answers-mismatch": (
        "evaluate", "input", {**CLOTH_DOC, "article": "Tom went to the _ after school."}
    ),
}


@pytest.mark.parametrize("case", list(BAD_FILES))
def test_bad_input_file_is_one_error_line_naming_it(
    case, mock_config_path, pairs_path, cloth_path, tmp_path, capsys
):
    command, role, content = BAD_FILES[case]
    bad = tmp_path / "bad-file.json"
    if role == "mock" and isinstance(content, dict):
        content = {**make_mock_document(), **content}
    if isinstance(content, dict):
        content = json.dumps(content).encode("utf-8")
    bad.write_bytes(content)
    if command == "trace":
        argv = ["trace", str(bad)]
    else:
        mock = bad if role == "mock" else mock_config_path
        given = {"generate": pairs_path, "evaluate": cloth_path}[command]
        argv = [
            command,
            str(bad if role == "input" else given),
            "--model",
            f"mock:{mock}",
            "--nli-model",
            f"mock:{mock}",
            "--output",
            str(tmp_path / "out.json"),
        ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "bad-file.json" in err
    if role == "input" and command in ("generate", "trace"):
        last_line = content.count(b"\n") + 1  # each bad record is its file's last line
        assert f"bad-file.json: line {last_line}:" in err


USAGE_ERRORS = {
    "unknown-strategy": ["generate", "x.jsonl", "--strategy", "bogus"],
    "top-k-not-integer": ["generate", "x.jsonl", "--top-k", "two"],
    "evaluate-without-input": ["evaluate"],
    "removed-jobs-flag": ["generate", "x.jsonl", "--jobs", "2"],
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_errors_exit_1(case, capsys):
    # exit code 2 means some items failed, so bad usage must not use it
    assert main(USAGE_ERRORS[case]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: clozegen ") and "error: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["--help"], ["generate", "--help"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: clozegen")


def test_cloth_preset_hyperparameters():
    parser = build_parser()
    args = parser.parse_args(["evaluate", "in.json", "--preset", "cloth"])
    config = config_from_args(args)
    assert config.n_mask == 1
    assert config.dispersion == 0
    assert config.k == 10
    assert config.m_s == 7
    assert config.strategy == "l2r"
    assert config.avg == "geometric"


def test_cloth_preset_rejects_the_flags_it_sets(
    mock_config_path, cloth_path, tmp_path, capsys
):
    out = tmp_path / "report.json"
    args = _evaluate_args(mock_config_path, cloth_path, out, "--top-k", "5", "--strategy", "ctl")
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --preset cloth sets --top-k, --strategy\n"
    assert captured.out == "" and not out.exists()
    assert main(_evaluate_args(mock_config_path, cloth_path, out, "--seed", "3")) == 0


def test_flags_are_checked_before_any_backend_loads(cloth_path, tmp_path, capsys):
    missing = tmp_path / "missing.json"  # loading either backend would fail
    out = tmp_path / "report.json"
    assert main(_evaluate_args(missing, cloth_path, out, "--top-k", "5")) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --preset cloth sets --top-k\n"
    assert captured.out == "" and not out.exists()


def test_an_unset_or_empty_model_cache_leaves_the_default_cache(monkeypatch):
    def hf_class(model_id, cache_dir):
        return model_id, cache_dir

    monkeypatch.delenv(MODEL_CACHE_ENV, raising=False)
    assert make_backend("org/model", "--mlm", None, hf_class) == ("org/model", None)
    monkeypatch.setenv(MODEL_CACHE_ENV, "")
    assert make_backend("org/model", "--mlm", None, hf_class) == ("org/model", None)
    monkeypatch.setenv(MODEL_CACHE_ENV, "models")
    assert make_backend("org/model", "--mlm", None, hf_class) == ("org/model", "models")


def test_default_flags_match_reported_best_configuration():
    parser = build_parser()
    args = parser.parse_args(["generate", "in.jsonl"])
    config = config_from_args(args)
    assert config.n_mask == 0
    assert config.dispersion == 1
    assert config.strategy == "ctl"
    assert config.avg == "geometric"
    assert config.m_s is None
    assert config == GenerationConfig()
    evaluate = parser.parse_args(["evaluate", "in.json"])
    assert config_from_args(evaluate) == GenerationConfig()


def test_trace_rendering(tmp_path, capsys):
    records = [
        {
            "id": "r1",
            "trace": [
                {
                    "candidate": "shut",
                    "stage": "pairwise-entailment",
                    "counterpart": "slam shut",
                    "verdicts": ["entailment", "entailment"],
                },
                {
                    "candidate": "unlock",
                    "stage": "answer-entailment",
                    "counterpart": "open",
                    "verdicts": ["entailment", "entailment"],
                },
            ],
        },
        {"id": "r2", "trace": []},
    ]
    path = tmp_path / "results.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
    assert main(["trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("removed at") == 2
    assert "r2: no eliminations" in out
    assert "'shut' removed at pairwise-entailment vs 'slam shut'\n" in out
    assert "verdicts" not in out  # files written before the key was dropped still read


def test_trace_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["trace", str(bad)]) == 1
    unknown = tmp_path / "unknown.jsonl"
    unknown.write_text(
        json.dumps({"id": "x", "trace": [{"candidate": "a", "stage": "mystery"}]}),
        encoding="utf-8",
    )
    assert main(["trace", str(unknown)]) == 1
    assert "unknown trace stage" in capsys.readouterr().err
    missing = tmp_path / "missing.jsonl"
    missing.write_text(json.dumps({"id": "x"}), encoding="utf-8")
    assert main(["trace", str(missing)]) == 1
    capsys.readouterr()
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n", encoding="utf-8")
    assert main(["trace", str(empty)]) == 1
    assert capsys.readouterr().err == f"error: {empty}: no records found\n"


def test_trace_reads_failed_items_and_unicode_line_separators(
    mock_config_path, tmp_path, capsys
):
    records = [
        {"id": "ok\u2028\u2029\u0085", "context": CONTEXT, "answer_text": "door"},
        {"id": "bad", **UNFITTABLE},
    ]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
    )
    out = tmp_path / "out.jsonl"
    assert main(_generate_args(mock_config_path, pairs, out)) == 2
    capsys.readouterr()
    assert main(["trace", str(out)]) == 0
    first, second, end = capsys.readouterr().out.split("\n")
    assert first == "ok\u2028\u2029\u0085: no eliminations"
    assert second.startswith("bad: failed (SpanError: ") and end == ""


def test_generate_end_to_end_via_trace(mock_config_path, pairs_path, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert main(_generate_args(mock_config_path, pairs_path, out)) == 0
    assert main(["trace", str(out)]) == 0
    assert "'shut' removed at pairwise-entailment" in capsys.readouterr().out
