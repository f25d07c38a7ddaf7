"""The benchmark harness in perfbench/ still runs and checks its outputs.

Runs the self-test and one round of each workload as subprocesses, the way
`python3 perfbench/run.py` is run from the repository root, so a change to
desklm that breaks the benchmark fails here rather than in a later timing
comparison.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paraphrase_mlm", "grammar_aux_mlm", "minimal_pair_eval")
END_TO_END = ("setup_s", "run_s", "peak_rss_mb", "model_tokens_per_s", "loss_nats")


def _run(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)


def test_selftest_passes():
    proc = _run(["perfbench/selftest.py"], timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_is_correct(workload):
    proc = _run(["perfbench/run.py", "--workload", workload, "--seed", "3",
                 "--seconds", "0"], timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0
    for name in END_TO_END:
        assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_traced_round_is_correct(workload):
    # a traced layer the workload uses that reads 0, or an op renamed under
    # the tracer, makes the run incorrect
    proc = _run(["perfbench/run.py", "--workload", workload, "--seed", "3",
                 "--seconds", "0", "--trace", "1"], timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
