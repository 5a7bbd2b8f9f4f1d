"""Smoke runs of the benchmark: on every workload it must pass its own checks,
find every traced layer and reproduce the reference distractors and
model-call counts; on long-passage it must also see one lockstep decode call
per item and batch NLI pairs. Each run works on a copy of the checkout in a
temporary directory, so the checkout's ``.bench_out`` is left as it was. The
benchmark's masked LM also prefills a CLOTH passage in process, since the
smoke run's workload has no blanks. The three runs start together, so they
overlap each other and the rest of this module."""

import contextlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from clozegen.data import load_cloth, prepare_context

from tests.oracles import query_string_prefill

ROOT = Path(__file__).resolve().parents[1]


WORKLOADS = ("long-passage", "multitoken-default", "cloth-evaluate")


@pytest.fixture(scope="module")
def bench_children(tmp_path_factory):
    """One ``bench/run.py`` child per workload, all started at once, each on a
    copy of the checkout in its own temporary directory, so the span files it
    writes never replace those of a developer's own run. Teardown kills any
    child still running, closes its pipes and waits for it."""
    ignore = shutil.ignore_patterns("__pycache__")
    with contextlib.ExitStack() as stack:
        children = {}
        for workload in WORKLOADS:
            root = tmp_path_factory.mktemp(workload)
            for name in ("bench", "src"):
                shutil.copytree(ROOT / name, root / name, ignore=ignore)
            shutil.copy(ROOT / "BENCHMARK.json", root)
            argv = [
                sys.executable, "bench/run.py", "--workload", workload,
                "--seed", "7", "--seconds", "0.5", "--trace", "1",
            ]
            child = subprocess.Popen(
                argv, cwd=root, env=dict(os.environ, PYTHONPATH="src"),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, encoding="utf-8",
            )
            stack.enter_context(child)  # on exit: close the pipes, then wait
            stack.callback(child.kill)  # runs first; a no-op once the child has exited
            children[workload] = child
        yield children


def run_bench(children, workload):
    """Wait for the workload's child and return what it printed."""
    child = children[workload]
    stdout, stderr = child.communicate(timeout=300)
    return subprocess.CompletedProcess(child.args, child.returncode, stdout, stderr)


def test_bench_long_passage_smoke(bench_children):
    child = run_bench(bench_children, "long-passage")
    output = child.stdout + child.stderr
    assert child.returncode == 0, output
    assert '"correct": true' in output
    lines = output.splitlines()
    assert "absent layers: none" in lines
    # criterion 6 on the benchmark's own inputs: the distractors and every
    # model call of the seed-7 pool are those of the reference run
    assert (
        "distractors_sha256 "
        "41bcdc2b8600fc18be37540ade6b48de6888834f35f94bd47b9f77434fb16ee7"
    ) in lines
    assert (
        'pool_counts {"mlm_passes_decode": 1275, "mlm_queries": 8480, '
        '"nli_pairs_answer": 2404, "nli_pairs_pairwise": 2618, "nli_passes": 1736}'
    ) in lines
    metrics = json.loads(child.stdout.splitlines()[-1])["metrics"]
    # 1- and 2-word answers sample mask counts {1, 2} and {1, 2, 3}: 2.5 steps
    # when every branch is decoded; extending only the hypotheses that could
    # still outrank a finished candidate and cannot wait a pass takes 25 more
    # passes over 500 items
    assert metrics["backends.mlm.passes_decode"]["value"] == 2.55
    assert metrics["generation.generate_candidates.calls"]["value"] == 1.0
    # selection batches independent NLI pairs into one pass
    pairs = (
        metrics["backends.nli.pairs_answer"]["value"]
        + metrics["backends.nli.pairs_pairwise"]["value"]
    )
    assert metrics["backends.nli.passes"]["value"] < pairs


# criterion 6 on the other two workloads: seed-7 distractors and model calls.
# The hash pins the distractors of every item. The MLM fields count what
# decoding sends; nli_pairs_answer counts the pairs against the answer
# sentence, which the selection scan fixes. nli_pairs_pairwise and
# nli_passes also count the pairs the wave schedule sends ahead of that scan
# and the batches they go in, so they move whenever the schedule does.
REFERENCE_RUNS = {
    "multitoken-default": (
        "558d5b94dbb54203e5b5d8898546cb68d8e8b2ccc2892598e60879f04d6f918e",
        '{"mlm_passes_decode": 4121, "mlm_queries": 57647, "nli_pairs_answer": 4719, '
        '"nli_pairs_pairwise": 5164, "nli_passes": 3428}',
    ),
    "cloth-evaluate": (
        "a721118af463b4fec166d5c9c8ecf5b36e4b96e5d4b07747e830019bb86017c4",
        '{"mlm_passes_decode": 1020, "mlm_passes_prefill": 16320, "mlm_queries": 17340, '
        '"nli_pairs_answer": 22699, "nli_pairs_pairwise": 97364, "nli_passes": 18187}',
    ),
}


@pytest.mark.parametrize("workload", sorted(REFERENCE_RUNS))
def test_bench_workload_reproduces_reference(workload, bench_children):
    child = run_bench(bench_children, workload)
    output = child.stdout + child.stderr
    assert child.returncode == 0, output
    assert '"correct": true' in output
    lines = output.splitlines()
    assert "absent layers: none" in lines
    sha256, pool_counts = REFERENCE_RUNS[workload]
    assert f"distractors_sha256 {sha256}" in lines
    assert f"pool_counts {pool_counts}" in lines


def test_bench_tokenizer_prefill_matches_oracle(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import inputs
    import models

    inputs.write_cloth(tmp_path, random.Random(3), passages=1, sentences=8, blanks=5)
    (passage,) = load_cloth(tmp_path)
    # the tokenizer splits punctuation off words, so a glued blank is masked too
    assert re.search(r"_[.?!]", passage.text_with_blanks)
    counts = Counter()
    mlm = models.BenchMaskedLM(counts)
    mlm.phase = "prefill"
    blanks = len(passage.questions)
    for qi in range(blanks):
        passes = counts["mlm_passes_prefill"]
        prepared = prepare_context(passage, qi, "passage", "model", mlm_backend=mlm)
        assert counts["mlm_passes_prefill"] - passes == blanks - 1
        assert prepared.context == query_string_prefill(mlm, passage.text_with_blanks, qi)
