"""Command-line interface: generate, evaluate and trace subcommands.

Backends are chosen by identifier: the reserved ``mock:<path>`` scheme
loads deterministic table-driven backends from a JSON document, anything
else is treated as a HuggingFace checkpoint id (requires the ``hf``
extra). The ``CLOZEGEN_MODEL_CACHE`` environment variable points real
checkpoints at a download/cache directory.

``generate`` and ``evaluate`` share one batch runner, so an item that raises
a ``ClozegenError`` fails alone. Exit codes: 0 every item succeeded, 1
nothing ran (bad input, flags or set-up), 2 some items failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from itertools import islice
from pathlib import Path

from . import data, metrics
from .adapters import HuggingFaceMaskedLM, HuggingFaceNli
from .backends import MockMaskedLM, MockNliClassifier
from .errors import ClozegenError, ConfigError, ParseError, read_field, read_json_lines
from .generation import AVERAGES, GenerationConfig, STRATEGIES
from .pipeline import generate_distractors, result_to_dict
from .selection import STAGES

MODEL_CACHE_ENV = "CLOZEGEN_MODEL_CACHE"

# Single-word evaluation preset matching the reference CLOTH setup.
CLOTH_PRESET = {
    "n_mask": 1,
    "dispersion": 0,
    "k": 10,
    "m_s": 7,
    "strategy": "l2r",
    "avg": "geometric",
}
# The flags whose names differ from their GenerationConfig field.
PRESET_FLAGS = {"k": "--top-k", "m_s": "--search-multiplier"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clozegen",
        description="Distractor generation and evaluation for extractive cloze MCQs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="generate distractors for JSON-lines context/answer pairs"
    )
    _add_backend_flags(generate)
    _add_generation_flags(generate)
    generate.add_argument("input", help="JSON-lines file of context/answer pairs")
    generate.add_argument("--output", help="output path (default: stdout)")

    evaluate = sub.add_parser(
        "evaluate", help="evaluate generated distractors against gold ones"
    )
    _add_backend_flags(evaluate)
    _add_generation_flags(evaluate)
    evaluate.add_argument("input", help="CLOTH-format JSON file or directory")
    evaluate.add_argument("--output", help="report path (default: stdout)")
    evaluate.add_argument(
        "--preset", choices=["cloth"], help="apply the single-word evaluation preset"
    )
    evaluate.add_argument(
        "--limit", type=int, help="evaluate only the first N passages"
    )
    evaluate.add_argument(
        "--input-mode", choices=data.INPUT_MODES, default=data.INPUT_PASSAGE
    )
    evaluate.add_argument(
        "--prefill", choices=data.PREFILL_MODES, default=data.PREFILL_MODEL
    )

    trace = sub.add_parser("trace", help="print the elimination trace of stored results")
    trace.add_argument("input", help="file of generation-result JSON (one per line)")
    return parser


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", help="masked-LM backend: HuggingFace id or mock:<path>"
    )
    parser.add_argument(
        "--nli-model", help="NLI backend: HuggingFace id or mock:<path>"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="concurrent items (output order preserved)"
    )


def _add_generation_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per ``GenerationConfig`` field; an omitted flag keeps the field's default."""
    omitted = argparse.SUPPRESS
    parser.add_argument("--strategy", choices=STRATEGIES, default=omitted)
    parser.add_argument("--avg", choices=AVERAGES, default=omitted)
    parser.add_argument("--n-mask", type=int, default=omitted)
    parser.add_argument("--dispersion", type=int, default=omitted)
    parser.add_argument("--top-k", type=int, default=omitted, dest="k", metavar="TOP_K")
    parser.add_argument(
        "--search-multiplier",
        type=int,
        default=omitted,
        dest="m_s",
        metavar="SEARCH_MULTIPLIER",
        help="branch factor multiplier (default: 10 single-mask, 7 otherwise)",
    )
    parser.add_argument("--seed", type=int, default=omitted)


def make_backend(spec: str | None, flag: str, mock_class, hf_class):
    """``mock_class`` loaded from ``mock:<path>``, else ``hf_class`` for a checkpoint id."""
    if not spec:
        raise ConfigError(f"{flag} is required")
    if spec.startswith("mock:"):
        return mock_class.from_json_file(spec[len("mock:") :])
    return hf_class(spec, cache_dir=os.environ.get(MODEL_CACHE_ENV))


def config_from_args(args: argparse.Namespace) -> GenerationConfig:
    given = vars(args)
    values = {f.name: given[f.name] for f in fields(GenerationConfig) if f.name in given}
    if getattr(args, "preset", None) == "cloth":
        clashes = [name for name in CLOTH_PRESET if name in values]
        if clashes:
            flags = ", ".join(PRESET_FLAGS.get(n, "--" + n.replace("_", "-")) for n in clashes)
            raise ConfigError(f"--preset cloth sets {flags}")
        values.update(CLOTH_PRESET)
    return GenerationConfig(**values)


def _check_output(path: str | None) -> None:
    """Fail, naming ``path``, unless it opens for writing; keep no new file, touch no old one."""
    if path:
        existed = os.path.lexists(path)
        open(path, "ab").close()
        if not existed:
            os.remove(path)


def _write_output(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _run_items(args: argparse.Namespace, items: list, run_one) -> list:
    """Map ``run_one(item, config, mlm, nli)`` over ``items`` on ``args.jobs`` threads.

    Each item's entry is its result, or the ``ClozegenError`` it raised.
    """
    config = config_from_args(args)  # bad flags and a bad --output fail before any model loads
    _check_output(args.output)
    mlm = make_backend(args.model, "--model", MockMaskedLM, HuggingFaceMaskedLM)
    nli = make_backend(args.nli_model, "--nli-model", MockNliClassifier, HuggingFaceNli)

    def attempt(item):
        try:
            return run_one(item, config, mlm, nli)
        except ClozegenError as exc:
            return exc

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        return list(pool.map(attempt, items))


def run_generate(args: argparse.Namespace) -> int:
    pairs = data.load_pairs(args.input)

    def run_one(pair: data.ContextAnswerPair, config, mlm, nli) -> dict:
        return result_to_dict(
            generate_distractors(pair.context, pair.answer_span, config, mlm, nli)
        )

    records = []
    for pair, outcome in zip(pairs, _run_items(args, pairs, run_one)):
        if isinstance(outcome, ClozegenError):
            outcome = {"error": {"type": type(outcome).__name__, "message": str(outcome)}}
        records.append({"id": pair.id, **outcome})
    lines = [json.dumps(r, ensure_ascii=False, separators=(",", ":")) for r in records]
    _write_output(args.output, "".join(line + "\n" for line in lines))
    return 2 if any("error" in r for r in records) else 0


def run_evaluate(args: argparse.Namespace) -> int:
    passages = islice(data.load_cloth(args.input), args.limit)  # files past the limit unread
    items = [(p, qi) for p in passages for qi in range(len(p.questions))]

    def run_one(item, config, mlm, nli) -> list[str]:
        passage, qi = item
        prepared = data.prepare_context(
            passage, qi, args.input_mode, args.prefill, mlm_backend=mlm
        )
        context, span = data.fill_target(prepared, passage.questions[qi].answer)
        result = generate_distractors(context, span, config, mlm, nli)
        return result.distractor_set.distractors

    scored, ids = [], []
    for (passage, qi), outcome in zip(items, _run_items(args, items, run_one)):
        item_id = f"{passage.id}#{qi}"
        if isinstance(outcome, ClozegenError):
            print(f"error: {item_id}: {outcome}", file=sys.stderr)
        else:
            scored.append((outcome, passage.questions[qi].distractors))
            ids.append(item_id)
    failed = len(items) - len(scored)
    if failed and not scored:
        return 2
    report = metrics.evaluate_dataset(scored, ids=ids)
    _write_output(args.output, metrics.report_to_json(report) + "\n")
    print(metrics.format_report_table(report))
    return 2 if failed else 0


def run_trace(args: argparse.Namespace) -> int:
    found = False
    for _, where, record in read_json_lines(args.input):
        found = True
        label = read_field(record, "id", str, where, "<result>")
        if "error" in record:
            error = read_field(record, "error", dict, where)
            kind = read_field(error, "type", str, where)
            message = read_field(error, "message", str, where)
            print(f"{label}: failed ({kind}: {message})")
            continue
        entries = read_field(record, "trace", [dict], where)
        print(f"{label}:" if entries else f"{label}: no eliminations")
        for i, entry in enumerate(entries):
            at = f"{where}: trace[{i}]"
            stage = read_field(entry, "stage", str, at)
            if stage not in STAGES:
                raise ParseError(f"{at}: unknown trace stage {stage!r}")
            candidate = read_field(entry, "candidate", str, at)
            counterpart = read_field(entry, "counterpart", str, at)
            print(f"  - {candidate!r} removed at {stage} vs {counterpart!r}")
    if not found:
        raise ParseError(f"{args.input}: no records found")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"generate": run_generate, "evaluate": run_evaluate, "trace": run_trace}
    try:
        for flag in ("jobs", "limit"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise ConfigError(f"--{flag} must be >= 1")
        return handlers[args.command](args)
    except (ClozegenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
