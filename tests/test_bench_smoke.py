"""Smoke runs of the benchmark: on every workload it must pass its own checks,
find every traced layer and reproduce the reference distractors and
model-call counts; on long-passage it must also see one lockstep decode call
per item and batch NLI pairs. Each run works on a copy of the checkout in a
temporary directory, so the checkout's ``.bench_out`` is left as it was. The
benchmark's masked LM also prefills a CLOTH passage in process, since the
smoke run's workload has no blanks."""

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


def run_bench(tmp_path, workload):
    """``bench/run.py`` on a copy of the checkout in ``tmp_path``, so the span
    files it writes never replace those of a developer's own run."""
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", "7", "--seconds", "0.5", "--trace", "1",
    ]
    return subprocess.run(
        argv, cwd=tmp_path, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, encoding="utf-8", timeout=300,
    )


def test_bench_long_passage_smoke(tmp_path):
    child = run_bench(tmp_path, "long-passage")
    output = child.stdout + child.stderr
    assert child.returncode == 0, output
    assert '"correct": true' in output
    lines = output.splitlines()
    assert "absent layers: none" in lines
    # criterion 6 on the benchmark's own inputs: the distractors and every
    # model call of the seed-7 pool are those of the reference run. Decoding
    # on demand sends 9177 MLM queries where decoding every branch sent 24500.
    # A lone NLI wave also carrying its candidate's next forward pair takes
    # NLI from 4628 pairs in 2864 passes to 4707 pairs in 2487 passes; every
    # pending forward pair carrying one as well takes it to 4727 in 2444,
    # candidates waiting behind undecided ones checking themselves against
    # them to 4834 in 2219, and a lone wave's candidate sending the rest of
    # its chain to 4852 in 2067.
    assert (
        "distractors_sha256 "
        "41bcdc2b8600fc18be37540ade6b48de6888834f35f94bd47b9f77434fb16ee7"
    ) in lines
    assert (
        'pool_counts {"mlm_passes_decode": 1275, "mlm_queries": 9177, '
        '"nli_pairs_answer": 2404, "nli_pairs_pairwise": 2448, "nli_passes": 2067}'
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
# On multitoken-default, decoding on demand takes the MLM from 3999 passes and
# 128937 queries to 4026 and 70867; cloth-evaluate decodes one mask count, so
# every candidate is finished after the branch and nothing moves. Lone NLI
# waves carrying a forward pair take multitoken-default from 9143 NLI pairs in
# 5657 passes to 9328 in 4891, and cloth-evaluate from 107254 in 35563 to
# 108583 in 29769; every pending forward pair carrying one as well takes them
# to 9350 in 4823 and 110085 in 24715, candidates waiting behind undecided
# ones checking themselves against them to 9543 in 4471 and 113719 in 23250,
# and a lone wave's candidate sending the rest of its chain to 9573 in 4151
# and 117618 in 19236.
REFERENCE_RUNS = {
    "multitoken-default": (
        "558d5b94dbb54203e5b5d8898546cb68d8e8b2ccc2892598e60879f04d6f918e",
        '{"mlm_passes_decode": 4026, "mlm_queries": 70867, "nli_pairs_answer": 4719, '
        '"nli_pairs_pairwise": 4854, "nli_passes": 4151}',
    ),
    "cloth-evaluate": (
        "a721118af463b4fec166d5c9c8ecf5b36e4b96e5d4b07747e830019bb86017c4",
        '{"mlm_passes_decode": 1020, "mlm_passes_prefill": 16320, "mlm_queries": 17340, '
        '"nli_pairs_answer": 22699, "nli_pairs_pairwise": 94919, "nli_passes": 19236}',
    ),
}


@pytest.mark.parametrize("workload", sorted(REFERENCE_RUNS))
def test_bench_workload_reproduces_reference(workload, tmp_path):
    child = run_bench(tmp_path, workload)
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
