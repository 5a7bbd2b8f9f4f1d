#!/usr/bin/env python3
"""clozegen benchmark: model calls per item, pipeline overhead, per-layer spans.

Run from the repository root:

    python3 bench/run.py --workload multitoken-default --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One caller drives clozegen through its public functions in a closed loop:
the next item starts when the previous one has finished. Inputs are
generated from ``--seed`` into files that clozegen loads itself; the
backends are the deterministic zero-cost ones in ``models.py``, so the
times are clozegen's own Python work and the counts are the model calls a
real checkpoint would serve.

The item pool of a workload is run in rounds until ``--seconds`` have
passed (at least one whole round). Every item of every round is checked,
among others against a reference selection written out in this file;
later rounds must repeat the first round's distractors and call counts.
An item that raises is a failed check.

``--trace 0`` prints the end-to-end metrics: set-up time, model calls per
item, the latency they project under the cost model in ``spec.json``, and
peak memory. ``--trace 1`` runs every item of the first round twice,
untraced and then traced, checks that both make the same calls, runs
later rounds untraced, and prints the per-layer metrics, among them
clozegen's own overhead (``items_per_s``, ``item_ms_p50``,
``item_ms_p99``) from the untraced runs. Raw overhead
times are not end-to-end metrics: on a shared machine the host's speed
can drift by more than any usable bound between two sets of runs. Spans
go to ``.bench_out/spans-<workload>-seed<seed>.jsonl``. The last line of the
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, whose names and units are the ones ``BENCHMARK.json`` declares.
The exit code is 1 when a check fails and 2 on bad usage or
when the clozegen sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# setup_s is the fastest of these set-ups, about half made before the
# measured loop and the rest after it: the minimum over a window as long as
# the run shrugs off the spells a shared host spends elsewhere, which a
# median of a few back-to-back set-ups does not.
SETUP_REPEATS = 25
STAGE_ANSWER = "answer-entailment"
STAGE_PAIRWISE = "pairwise-entailment"

# The single-word evaluation preset of the reference CLOTH setup.
CLOTH_PRESET = {"n_mask": 1, "dispersion": 0, "k": 10, "m_s": 7, "strategy": "l2r"}

WORKLOADS = {
    "multitoken-default": {
        "kind": "pairs",
        "items": 1000,
        "passage_tokens": 215,
        "answer_lengths": (2, 3, 4),
        "max_sequence_length": 512,
        "config": {},
    },
    "cloth-evaluate": {
        "kind": "cloth",
        "passages": 60,
        "sentences": 20,
        "blanks": 17,
        "max_sequence_length": 512,
        "config": CLOTH_PRESET,
    },
    "long-passage": {
        "kind": "pairs",
        "items": 500,
        "passage_tokens": 1500,
        "answer_lengths": (1, 2),
        "max_sequence_length": 256,
        "config": {},
    },
}

# Span name -> (module, attribute) bindings clozegen looks up at call time.
TRACED_NAMES = [
    ("pipeline.generate_distractors", "pipeline", "generate_distractors"),
    ("pipeline.map_char_span", "pipeline", "map_char_span"),
    ("pipeline.result_to_dict", "pipeline", "result_to_dict"),
    ("generation.generate_candidates", "pipeline", "generate_candidates"),
    ("generation.rank_candidates", "pipeline", "rank_candidates"),
    ("selection.select_distractors", "pipeline", "select_distractors"),
    ("data.extract_sentence", "pipeline", "extract_sentence"),
    ("data.extract_sentence", "data", "extract_sentence"),
    ("data.prepare_context", "data", "prepare_context"),
    ("metrics.evaluate_dataset", "metrics", "evaluate_dataset"),
    ("metrics.report_to_json", "metrics", "report_to_json"),
]
OBSERVED = {
    "generation.generate_candidates": lambda r: {"generated": len(r)},
    "generation.rank_candidates": lambda r: {"ranked": len(r)},
}


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# --------------------------------------------------------------------- setup


def write_inputs(workload: dict, seed: int, directory: Path):
    import inputs

    rng = random.Random(seed)
    if workload["kind"] == "pairs":
        path = directory / "pairs.jsonl"
        expected = inputs.write_pairs(
            path, rng, workload["items"], workload["passage_tokens"], workload["answer_lengths"]
        )
    else:
        path = directory / "cloth"
        expected = inputs.write_cloth(
            path, rng, workload["passages"], workload["sentences"], workload["blanks"]
        )
    return path, expected


def purge_modules() -> None:
    for name in list(sys.modules):
        if name in ("clozegen", "models") or name.startswith("clozegen."):
            del sys.modules[name]


def set_up(workload: dict, path: Path):
    """Import clozegen, build the backends and load the inputs.

    Returns the run context and the (import, build, load) seconds. numpy
    is imported beforehand and the previous repeat's modules are collected
    before the clock starts, so every repeat measures the same work.
    """
    purge_modules()
    gc.collect()
    t0 = perf_counter()
    clozegen = importlib.import_module("clozegen")
    lib = SimpleNamespace(
        **{
            name: importlib.import_module(f"clozegen.{name}")
            for name in ("data", "generation", "selection", "pipeline", "metrics")
        }
    )
    t1 = perf_counter()
    if not Path(clozegen.__file__).resolve().is_relative_to(SRC):
        die(f"imported clozegen from {clozegen.__file__}, not from {SRC}")
    import models

    t2 = perf_counter()
    counts = Counter()
    mlm = models.BenchMaskedLM(counts, workload["max_sequence_length"])
    nli = models.BenchNli(counts)
    config = lib.generation.GenerationConfig(**workload["config"])
    t3 = perf_counter()
    if workload["kind"] == "pairs":
        items = [
            Item(p.id, generate_pair, (p,)) for p in lib.data.load_pairs(path)
        ]
    else:
        items = [
            Item(f"{p.id}#{qi}", generate_question, (p, qi))
            for p in lib.data.load_cloth(path)
            for qi in range(len(p.questions))
        ]
    t4 = perf_counter()
    ctx = SimpleNamespace(
        lib=lib,
        counts=counts,
        mlm=mlm,
        nli=nli,
        judge=models.BenchNli(Counter()),
        config=config,
        items=items,
        evaluates=workload["kind"] == "cloth",
    )
    return ctx, (t1 - t0, t3 - t2, t4 - t3)


# --------------------------------------------------------------------- items


@dataclass
class Item:
    id: str
    run: object
    args: tuple


@dataclass
class Outcome:
    """One run of one item, without the result objects (they are checked, then dropped)."""

    id: str
    seconds: float
    counts: dict = field(default_factory=dict)
    error: str = ""
    distractors: list = field(default_factory=list)
    gold: list = field(default_factory=list)
    candidates_in: int = 0
    removed: Counter = field(default_factory=Counter)


def serialise(ctx, result) -> int:
    wire = json.dumps(
        ctx.lib.pipeline.result_to_dict(result), ensure_ascii=False, separators=(",", ":")
    )
    return len(wire)


def generate_pair(ctx, pair):
    result = ctx.lib.pipeline.generate_distractors(
        pair.context, pair.answer_span, ctx.config, ctx.mlm, ctx.nli
    )
    serialise(ctx, result)
    return result, []


def generate_question(ctx, passage, qi):
    data = ctx.lib.data
    question = passage.questions[qi]
    ctx.mlm.phase = "prefill"
    try:
        prepared = data.prepare_context(passage, qi, "passage", "model", mlm_backend=ctx.mlm)
    finally:
        ctx.mlm.phase = "decode"
    context, span = data.fill_target(prepared, question.answer)
    result = ctx.lib.pipeline.generate_distractors(context, span, ctx.config, ctx.mlm, ctx.nli)
    serialise(ctx, result)
    return result, question.distractors


def run_item(ctx, item: Item, expected):
    """Time one item; returns its outcome and the result to check (None on error)."""
    ctx.nli.answer_sentence = expected[item.id].sentence
    ctx.counts.clear()
    t0 = perf_counter()
    try:
        result, gold = item.run(ctx, *item.args)
    except Exception:  # one bad item must not stop the run; it is counted as failed
        seconds = perf_counter() - t0
        return Outcome(item.id, seconds, dict(ctx.counts), error=traceback.format_exc()), None
    seconds = perf_counter() - t0
    chosen = result.distractor_set
    outcome = Outcome(
        item.id,
        seconds,
        dict(ctx.counts),
        distractors=list(chosen.distractors),
        gold=gold,
        candidates_in=len(result.all_candidates),
        removed=Counter(entry.stage for entry in chosen.trace),
    )
    return outcome, result


def evaluate_round(ctx, scored: list[tuple[str, list, list]]) -> tuple[float, list[str]]:
    """The evaluate step over one round's (id, distractors, gold); returns its seconds."""
    if not ctx.evaluates or not scored:
        return 0.0, []
    t0 = perf_counter()
    report = ctx.lib.metrics.evaluate_dataset(
        [(distractors, gold) for _, distractors, gold in scored],
        ids=[item_id for item_id, _, _ in scored],
    )
    ctx.lib.metrics.report_to_json(report)
    seconds = perf_counter() - t0
    if report.item_count != len(scored):
        return seconds, [f"report item_count {report.item_count} != {len(scored)} questions"]
    return seconds, []


# -------------------------------------------------------------------- checks


def normalise(text: str) -> str:
    return " ".join(text.lower().split())


def reference_selection(judge, exp, candidates: list[str], k: int) -> list[str]:
    """The two elimination stages as the paper states them, in one scan.

    Best-first, a candidate is kept unless its sentence two-way entails the
    answer sentence or the sentence of a candidate already kept; the scan
    stops at ``k`` kept. Eager and lazy orderings of the stages choose the
    same set, because each verdict is independent of the others.
    """
    start, end = exp.span
    kept, kept_sentences = [], []
    for text in candidates:
        if len(kept) == k:
            break
        sentence = exp.sentence[:start] + text + exp.sentence[end:]
        if judge.entails_both_ways(sentence, exp.sentence) or any(
            judge.entails_both_ways(sentence, other) for other in kept_sentences
        ):
            continue
        kept.append(text)
        kept_sentences.append(sentence)
    return kept


def check(ctx, outcome: Outcome, result, expected, first: dict) -> list[str]:
    """Problems with one item's output; empty when it is correct."""
    exp = expected[outcome.id]
    chosen = result.distractor_set
    k = ctx.config.k
    problems = []
    if chosen.answer != exp.answer:
        problems.append(f"answer {chosen.answer!r} != {exp.answer!r}")
    if not ctx.lib.selection.verify_distractor_set(
        ctx.judge, exp.sentence, chosen, answer_span=exp.span
    ):
        problems.append("verify_distractor_set failed")
    reference = reference_selection(
        ctx.judge, exp, [c.text for c in result.all_candidates], k
    )
    if list(chosen.distractors) != reference:
        problems.append(f"distractors {chosen.distractors} != reference selection {reference}")
    if any(normalise(d) == normalise(exp.answer) for d in chosen.distractors):
        problems.append("a distractor equals the answer")
    if len(chosen.distractors) > k:
        problems.append(f"{len(chosen.distractors)} distractors > k={k}")
    if chosen.underfilled != (len(chosen.distractors) < k):
        problems.append("underfilled disagrees with the distractor count")
    if result.all_candidates and not outcome.counts.get("nli_pairs_answer"):
        problems.append("no NLI pair involved the answer sentence")
    signature = (outcome.distractors, outcome.counts)
    if first.setdefault(outcome.id, signature) != signature:
        problems.append("output or call counts differ from the item's first run")
    return [f"{outcome.id}: {p}" for p in problems]


# ----------------------------------------------------------------------- run


@dataclass
class Tally:
    """Running totals over the runs of one kind; a failed run adds its time and counts."""

    seconds: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    removed: Counter = field(default_factory=Counter)
    kept: int = 0
    candidates_in: int = 0

    def add(self, outcome: Outcome) -> None:
        self.seconds.append(outcome.seconds)
        self.counts.update(outcome.counts)
        self.removed.update(outcome.removed)
        self.kept += len(outcome.distractors)
        self.candidates_in += outcome.candidates_in

    def per_item(self, key: str) -> float:
        return self.counts[key] / max(len(self.seconds), 1)


def measure(ctx, expected, seconds: float, tracer) -> SimpleNamespace:
    """Run rounds over the item pool until ``seconds`` have passed.

    ``pool`` tallies the first untraced round, ``plain`` every untraced run
    and ``traced`` every traced one; with a tracer, only the first round is
    also run traced. Only totals are kept, so the harness holds no
    per-sample objects for the collector to walk.
    """
    run = SimpleNamespace(
        pool=Tally(), plain=Tally(), traced=Tally(), round_s=0.0,
        attempted=0, failed=0, problems=[], first={},
    )
    start = perf_counter()
    rounds = 0
    while True:
        scored = []
        traced = tracer is not None and not rounds
        for item in ctx.items:
            runs = [run_item(ctx, item, expected)]
            if traced:
                runs.append(traced_item(ctx, item, expected, tracer))
            for (outcome, result), tally in zip(runs, (run.plain, run.traced)):
                run.attempted += 1
                tally.add(outcome)
                if tally is run.plain and not rounds:
                    run.pool.add(outcome)
                if result is None:
                    run.failed += 1
                    run.problems.append(f"{outcome.id}: raised {outcome.error.splitlines()[-1]}")
                    if run.failed <= 3:
                        print(f"item {outcome.id} raised:\n{outcome.error}", file=sys.stderr)
                    continue
                run.problems += check(ctx, outcome, result, expected, run.first)
                if tally is run.plain:
                    scored.append((outcome.id, outcome.distractors, outcome.gold))
            if rounds and perf_counter() - start >= seconds:
                break
        if traced:
            install(ctx, tracer)
        evaluate_s, problems = evaluate_round(ctx, scored)
        if traced:
            uninstall(ctx, tracer)
        run.round_s += evaluate_s
        run.problems += problems
        rounds += 1
        if perf_counter() - start >= seconds:
            break
    return run


def install(ctx, tracer) -> None:
    for name, module, attr in TRACED_NAMES:
        tracer.wrap(getattr(ctx.lib, module), attr, name, OBSERVED.get(name))
    ctx.mlm.tracer = ctx.nli.tracer = tracer


def uninstall(ctx, tracer) -> None:
    tracer.unwrap()
    ctx.mlm.tracer = ctx.nli.tracer = None


def traced_item(ctx, item, expected, tracer) -> Outcome:
    install(ctx, tracer)
    tracer.item = item.id
    try:
        return run_item(ctx, item, expected)
    finally:
        tracer.item = None
        uninstall(ctx, tracer)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(run, setup_s: float, peak_rss_mb: float, cost: dict) -> dict:
    pool = run.pool.per_item
    mlm_passes = pool("mlm_passes_decode") + pool("mlm_passes_prefill")
    mlm_queries = pool("mlm_queries")
    nli_passes = pool("nli_passes")
    nli_pairs = pool("nli_pairs_answer") + pool("nli_pairs_pairwise")
    p50 = statistics.median(run.plain.seconds) * 1000.0
    return {
        "setup_s": setup_s,
        "mlm_passes_per_item": mlm_passes,
        "mlm_queries_per_item": mlm_queries,
        "nli_passes_per_item": nli_passes,
        "nli_pairs_per_item": nli_pairs,
        "projected_item_ms": (mlm_passes + nli_passes) * cost["c_pass_ms"]
        + (mlm_queries - mlm_passes + nli_pairs - nli_passes) * cost["c_query_ms"]
        + p50,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(run, tracer, load_ms: float) -> dict:
    traced = run.traced
    n = max(len(traced.seconds), 1)
    spans = tracer.totals()

    def span(name: str, key: str) -> float:
        value = spans[name][key] if name in spans else 0.0
        return value * (1000.0 if key != "calls" else 1.0) / n

    pairs = traced.counts["nli_pairs_answer"] + traced.counts["nli_pairs_pairwise"]
    generated, ranked = tracer.observed["generated"], tracer.observed["ranked"]
    per_item = traced.per_item
    plain_s = run.plain.seconds
    return {
        "items_per_s": len(plain_s) / (sum(plain_s) + run.round_s),
        "item_ms_p50": statistics.median(plain_s) * 1000.0,
        "item_ms_p99": percentile(plain_s, 0.99) * 1000.0,
        "backends.mlm.passes_decode": per_item("mlm_passes_decode"),
        "backends.mlm.passes_prefill": per_item("mlm_passes_prefill"),
        "backends.mlm.queries": per_item("mlm_queries"),
        "backends.mlm.busy_ms": tracer.busy["mlm"] * 1000.0 / n,
        "backends.nli.pairs_answer": per_item("nli_pairs_answer"),
        "backends.nli.pairs_pairwise": per_item("nli_pairs_pairwise"),
        "backends.nli.passes": per_item("nli_passes"),
        "backends.nli.busy_ms": tracer.busy["nli"] * 1000.0 / n,
        "generation.generate_candidates.calls": span("generation.generate_candidates", "calls"),
        "generation.generate_candidates.self_ms": span("generation.generate_candidates", "self"),
        "generation.rank_candidates.ms": span("generation.rank_candidates", "total"),
        "generation.candidates_generated": generated / n,
        "generation.candidates_ranked": ranked / n,
        "generation.unique_ratio": ranked / generated if generated else 0.0,
        "selection.select_distractors.self_ms": span("selection.select_distractors", "self"),
        "selection.candidates_in": traced.candidates_in / n,
        "selection.kept": traced.kept / n,
        "selection.removed_answer": traced.removed[STAGE_ANSWER] / n,
        "selection.removed_pairwise": traced.removed[STAGE_PAIRWISE] / n,
        "selection.kept_per_nli_pair": traced.kept / pairs if pairs else 0.0,
        "pipeline.generate_distractors.self_ms": span("pipeline.generate_distractors", "self"),
        "pipeline.map_char_span.ms": span("pipeline.map_char_span", "total"),
        "pipeline.result_to_dict.ms": span("pipeline.result_to_dict", "total"),
        "data.load.ms": load_ms,
        "data.prepare_context.self_ms": span("data.prepare_context", "self"),
        "data.extract_sentence.ms": span("data.extract_sentence", "total"),
        "data.extract_sentence.calls": span("data.extract_sentence", "calls"),
        "metrics.evaluate_dataset.ms": span("metrics.evaluate_dataset", "total"),
        "metrics.report_to_json.ms": span("metrics.report_to_json", "total"),
        "trace.overhead_ratio": statistics.median(traced.seconds)
        / statistics.median(run.pool.seconds),
        "failed_share": run.failed / run.attempted,
    }


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    cost = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))["cost_model"]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"inputs-{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        path, expected = write_inputs(workload, args.seed, work)
        import numpy  # noqa: F401  imported once, outside every timed set-up

        timings = []
        for _ in range(SETUP_REPEATS // 2 + 1):
            ctx, parts = set_up(workload, path)
            timings.append(parts)
        # The inputs and the harness live as long as the run; keep them out
        # of the collections that clozegen's own allocations trigger.
        gc.collect()
        gc.freeze()

        from tracing import Tracer

        tracer = Tracer() if args.trace else None
        run = measure(ctx, expected, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(timings) < SETUP_REPEATS:
            timings.append(set_up(workload, path)[1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    totals = [sum(parts) for parts in timings]
    setup_s = min(totals)
    load_ms = min(parts[2] for parts in timings) * 1000.0
    print(f"setup s over {len(totals)} set-ups: min {setup_s:.6f} "
          f"median {statistics.median(totals):.6f} max {max(totals):.6f}")

    digest = hashlib.sha256()
    for item_id, (distractors, _) in run.first.items():
        digest.update(json.dumps([item_id, distractors]).encode("utf-8"))
    print(f"workload {args.workload} seed {args.seed}: {len(ctx.items)} items per round, "
          f"{len(run.plain.seconds)} untraced samples, {len(run.traced.seconds)} traced samples")
    print(f"distractors_sha256 {digest.hexdigest()}")
    print(f"pool_counts {json.dumps(dict(sorted(run.pool.counts.items())))}")
    for problem in run.problems[:20]:
        print(f"check failed: {problem}")

    if tracer is None:
        values = end_to_end(run, setup_s, peak_rss_mb, cost)
    else:
        values = per_layer(run, tracer, load_ms)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        print(f"absent layers: {', '.join(tracer.absent) or 'none'}")
    units = declared_units(args.trace)
    if units.keys() != values.keys():
        die(f"metrics {sorted(units.keys() ^ values.keys())} are not both declared and measured")
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    status, merged = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            child = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            sys.stderr.write(child.stderr)
            lines = child.stdout.splitlines()
            print("\n".join(f"[{name} trace={trace}] {line}" for line in lines[:-1]))
            if child.returncode != 0 or not lines:
                print(f"[{name} trace={trace}] exited with {child.returncode}")
                status = max(status, child.returncode or 1)
                merged["correct"] = False
                continue
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = value
                print(f"{name:20} {metric:40} {value['value']:14.6g} {value['unit']}")
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clozegen" / "__init__.py").is_file():
        die(f"clozegen sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
