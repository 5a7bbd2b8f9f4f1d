"""Smoke run of the benchmark: it must pass its own checks, find every traced
layer, see one lockstep decode call per item, and batch NLI pairs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_long_passage_smoke():
    env = dict(os.environ, PYTHONPATH="src")
    argv = [
        sys.executable, "bench/run.py", "--workload", "long-passage",
        "--seed", "7", "--seconds", "0.5", "--trace", "1",
    ]
    child = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    output = child.stdout + child.stderr
    assert child.returncode == 0, output
    assert '"correct": true' in output
    assert "absent layers: none" in output.splitlines()
    metrics = json.loads(child.stdout.splitlines()[-1])["metrics"]
    # 1- and 2-word answers sample mask counts {1, 2} and {1, 2, 3}: 2.5 steps
    assert metrics["backends.mlm.passes_decode"]["value"] == 2.5
    assert metrics["generation.generate_candidates.calls"]["value"] == 1.0
    # selection batches independent NLI pairs into one pass
    pairs = (
        metrics["backends.nli.pairs_answer"]["value"]
        + metrics["backends.nli.pairs_pairwise"]["value"]
    )
    assert metrics["backends.nli.passes"]["value"] < pairs
