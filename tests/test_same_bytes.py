"""tools/same_bytes.py, run with one tree as both parent and change, and its
report on two score files that differ."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "same_bytes.py"


def test_a_tree_writes_the_same_bytes_as_itself():
    done = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), str(ROOT)],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    # 3 training runs and 2 eval runs, 4 artifacts each
    assert done.stdout.endswith("\n20 identical, 0 different\n")


def test_score_differences_measures_pll_and_counts_verdicts(tmp_path):
    spec = importlib.util.spec_from_file_location("same_bytes", SCRIPT)
    same_bytes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_bytes)

    def write(name, records):
        path = tmp_path / name
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def rec(good, bad):
        return {"good": "a", "bad": "b", "phenomenon": "p", "pll_good": good,
                "pll_bad": bad, "margin": good - bad, "correct": good > bad}

    skipped = {"good": "c", "bad": "d", "phenomenon": "p", "skipped": True}
    # the first pair moves in its last bit, the second flips its verdict
    parent = write("parent.jsonl", [rec(-8.0, -9.0), skipped, rec(-5.0, -5.5)])
    change = write("change.jsonl", [rec(-8.000000000000002, -9.0), skipped, rec(-5.0, -4.5)])
    assert same_bytes.score_differences(parent, change) == [
        "pll_good: max abs 1.78e-15, max rel 2.22e-16",
        "pll_bad: max abs 1, max rel 0.182",
        "margin: max abs 1, max rel 2",
        "correct differs on 1 of 3 pairs",
    ]
    assert same_bytes.score_differences(parent, parent) == [
        "pll_good: max abs 0, max rel 0", "pll_bad: max abs 0, max rel 0",
        "margin: max abs 0, max rel 0", "correct differs on 0 of 3 pairs"]
