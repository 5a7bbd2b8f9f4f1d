"""Command-line interface: generate, evaluate and trace subcommands.

Backends are chosen by identifier: the reserved ``mock:<path>`` scheme
loads deterministic table-driven backends from a JSON document, anything
else is treated as a HuggingFace checkpoint id (requires the ``hf``
extra). The ``CLOZEGEN_MODEL_CACHE`` environment variable points real
checkpoints at a download/cache directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import data, metrics
from .backends import MaskedLanguageModel, MockMaskedLM, MockNliClassifier, NliClassifier
from .errors import ClozegenError, ConfigError
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
    generate.add_argument(
        "--jobs", type=int, default=1, help="concurrent items (output order preserved)"
    )

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
    evaluate.add_argument(
        "--jobs", type=int, default=1, help="concurrent items (output order preserved)"
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


def _add_generation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strategy", choices=STRATEGIES, default="ctl")
    parser.add_argument("--avg", choices=AVERAGES, default="geometric")
    parser.add_argument("--n-mask", type=int, default=0)
    parser.add_argument("--dispersion", type=int, default=1)
    parser.add_argument("--top-k", type=int, default=3, dest="top_k")
    parser.add_argument(
        "--search-multiplier",
        type=int,
        default=None,
        help="branch factor multiplier (default: 10 single-mask, 7 otherwise)",
    )
    parser.add_argument("--seed", type=int, default=0)


def make_mlm_backend(spec: str | None) -> MaskedLanguageModel:
    if not spec:
        raise ConfigError("--model is required")
    if spec.startswith("mock:"):
        return MockMaskedLM.from_json_file(spec[len("mock:") :])
    from .adapters import HuggingFaceMaskedLM

    return HuggingFaceMaskedLM(spec, cache_dir=os.environ.get(MODEL_CACHE_ENV))


def make_nli_backend(spec: str | None) -> NliClassifier:
    if not spec:
        raise ConfigError("--nli-model is required")
    if spec.startswith("mock:"):
        return MockNliClassifier.from_json_file(spec[len("mock:") :])
    from .adapters import HuggingFaceNli

    return HuggingFaceNli(spec, cache_dir=os.environ.get(MODEL_CACHE_ENV))


def config_from_args(args: argparse.Namespace) -> GenerationConfig:
    values = {
        "n_mask": args.n_mask,
        "dispersion": args.dispersion,
        "k": args.top_k,
        "m_s": args.search_multiplier,
        "strategy": args.strategy,
        "avg": args.avg,
        "seed": args.seed,
    }
    if getattr(args, "preset", None) == "cloth":
        values.update(CLOTH_PRESET)
    return GenerationConfig(**values)


def _write_output(path: str | None, text: str) -> int:
    if path:
        try:
            Path(path).write_text(text, encoding="utf-8", newline="\n")
        except OSError as exc:
            print(f"error: cannot write {path}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def _map_items(worker, items, jobs: int):
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, items))
    return [worker(item) for item in items]


def run_generate(args: argparse.Namespace) -> int:
    try:
        pairs = data.load_pairs(args.input)
        mlm = make_mlm_backend(args.model)
        nli = make_nli_backend(args.nli_model)
        config = config_from_args(args)
    except (ClozegenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def worker(pair: data.ContextAnswerPair) -> dict:
        try:
            result = generate_distractors(pair.context, pair.answer_span, config, mlm, nli)
        except ClozegenError as exc:
            return {"id": pair.id, "error": {"type": type(exc).__name__, "message": str(exc)}}
        record = {"id": pair.id}
        record.update(result_to_dict(result))
        return record

    records = _map_items(worker, pairs, args.jobs)
    lines = [json.dumps(r, ensure_ascii=False, separators=(",", ":")) for r in records]
    if _write_output(args.output, "".join(line + "\n" for line in lines)):
        return 1
    return 2 if any("error" in r for r in records) else 0


def run_evaluate(args: argparse.Namespace) -> int:
    try:
        passages = data.load_cloth(args.input)
        mlm = make_mlm_backend(args.model)
        nli = make_nli_backend(args.nli_model)
        config = config_from_args(args)
    except (ClozegenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.limit is not None:
        passages = passages[: args.limit]

    items = [
        (passage, qi) for passage in passages for qi in range(len(passage.questions))
    ]

    def worker(item) -> tuple[str, list[str], list[str]]:
        passage, qi = item
        question = passage.questions[qi]
        prepared = data.prepare_context(
            passage, qi, args.input_mode, args.prefill, mlm_backend=mlm
        )
        context, span = data.fill_target(prepared, question.answer)
        result = generate_distractors(context, span, config, mlm, nli)
        return (
            f"{passage.id}#{qi}",
            result.distractor_set.distractors,
            question.distractors,
        )

    scored = _map_items(worker, items, args.jobs)
    report = metrics.evaluate_dataset(
        [(generated, gold) for _, generated, gold in scored],
        ids=[item_id for item_id, _, _ in scored],
    )
    if _write_output(args.output, metrics.report_to_json(report) + "\n"):
        return 1
    print(metrics.format_report_table(report))
    return 0


def run_trace(args: argparse.Namespace) -> int:
    try:
        text = Path(args.input).read_text(encoding="utf-8")
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not records:
        print("error: no records found", file=sys.stderr)
        return 1
    for record in records:
        if not isinstance(record, dict) or not isinstance(record.get("trace"), list):
            print("error: record has no trace list", file=sys.stderr)
            return 1
        label = record.get("id", "<result>")
        entries = record["trace"]
        if not entries:
            print(f"{label}: no eliminations")
            continue
        print(f"{label}:")
        for entry in entries:
            stage = entry.get("stage")
            if stage not in STAGES:
                print(f"error: unknown trace stage {stage!r}", file=sys.stderr)
                return 1
            verdicts = "/".join(entry.get("verdicts", []))
            print(
                f"  - {entry.get('candidate')!r} removed at {stage} "
                f"vs {entry.get('counterpart')!r} (verdicts: {verdicts})"
            )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"generate": run_generate, "evaluate": run_evaluate, "trace": run_trace}
    try:
        return handlers[args.command](args)
    except ClozegenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
