"""Check that two desklm source trees write the same bytes for the same runs.

    python tools/same_bytes.py PARENT_ROOT CHANGE_ROOT

Each ROOT is a checkout holding `src/desklm`. The script writes seed-fixed
input files (a document corpus, a tagged-sentence grammar file, a
dictionary CSV and BLiMP-layout pairs) into a temporary directory. Then,
for each tree in turn, it runs these commands with that tree's `src` first
on PYTHONPATH, BLAS on one thread, and the same relative paths, so that
every run manifest can match:

    train --mlm                  trains the tokenizer the later runs share
    train --mlm-gram --aux-weight 0.5 --decoder-layers 1 --subwords ...
    train --mlm-wikt --decoder-layers 1 --subwords ...
    eval --pairs --blimp         on the --mlm checkpoint
    eval --toy subject-verb      on the --mlm checkpoint

Every training run uses dropout 0.1. The script prints the sha256 of every
artifact the runs wrote, `run_manifest.json` included, under both trees.
For a `scores.jsonl` that differs it also prints how far: the largest
absolute and relative difference of `pll_good`, `pll_bad` and `margin`,
and the number of pairs whose `correct` differs. It exits 0 when every
artifact is identical, 1 when any differs or exists under one tree only,
and 2 when a command fails.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 1234
INPUTS = "inputs"
TRAIN_FLAGS = ["--context-size", "32", "--batch-size", "16", "--epochs", "2",
               "--warmup-steps", "2", "--learning-rate", "1e-3", "--layers", "2",
               "--heads", "2", "--d-model", "32", "--d-ff", "64", "--dropout", "0.1",
               "--seed", "7"]
SHARED = ["--subwords", "runs/mlm/subwords.json"]
EVAL_FLAGS = ["--checkpoint", "runs/mlm/checkpoint.bin"] + SHARED
# (run directory under runs/, desklm arguments before --out-dir), in order
RUNS = [
    ("mlm", ["train", "--mlm", "--corpus", f"../{INPUTS}/corpus.jsonl",
             "--vocab-size", "160"] + TRAIN_FLAGS),
    ("mlm-gram", ["train", "--mlm-gram", f"../{INPUTS}/grammar.jsonl", "--corpus",
                  f"../{INPUTS}/corpus.jsonl", "--aux-weight", "0.5",
                  "--decoder-layers", "1"] + SHARED + TRAIN_FLAGS),
    ("mlm-wikt", ["train", "--mlm-wikt", f"../{INPUTS}/dict.csv", "--corpus",
                  f"../{INPUTS}/corpus.jsonl", "--decoder-layers", "1"]
     + SHARED + TRAIN_FLAGS),
    ("eval-blimp", ["eval", "--pairs", f"../{INPUTS}/blimp.jsonl", "--blimp"]
     + EVAL_FLAGS),
    ("eval-toy", ["eval", "--toy", "subject-verb", "--n", "40", "--seed", "9"]
     + EVAL_FLAGS),
]


def write_inputs(directory: Path, rng: random.Random) -> None:
    """Pseudo-word corpus, grammar tags, dictionary and pairs, all from rng."""
    lexicon = sorted({"".join(rng.choice("bdklmprstv") + rng.choice("aeiou")
                              for _ in range(rng.randint(2, 3))) for _ in range(150)})

    def sentence(lo: int, hi: int) -> list[str]:
        return [rng.choice(lexicon) for _ in range(rng.randint(lo, hi))]

    directory.mkdir()
    with open(directory / "corpus.jsonl", "w", encoding="utf-8") as f:
        for i in range(240):
            text = " ".join(sentence(6, 12))
            f.write(json.dumps({"id": f"d{i}", "source": "unconstrained", "text": text}) + "\n")
    with open(directory / "grammar.jsonl", "w", encoding="utf-8") as f:
        for _ in range(48):
            words = sentence(5, 9)
            tags = [{"notion": "common noun", "value": sorted(set(rng.sample(words, 2)))},
                    {"notion": "adjunct clause", "value": rng.choice(["yes", "no", "n/a"])}]
            f.write(json.dumps({"sentence": " ".join(words).capitalize() + ".",
                                "topic": "lab", "tags": tags[: rng.randint(0, 2)]}) + "\n")
    with open(directory / "dict.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["word", "pos", "definition", "example_1", "example_2"])
        for word in rng.sample(lexicon, 30):
            with_word = sentence(3, 6)
            with_word.insert(rng.randrange(len(with_word) + 1), word)
            # the second example may lack its headword: build_definition_batch skips it
            writer.writerow([word, "noun", " ".join(sentence(4, 6)),
                             " ".join(with_word), " ".join(sentence(4, 7))])
    with open(directory / "blimp.jsonl", "w", encoding="utf-8") as f:
        for i in range(40):
            good = sentence(4, 8)
            bad = list(good)
            j = rng.randrange(len(bad))
            bad[j] = rng.choice([w for w in lexicon if w != good[j]])
            f.write(json.dumps({"sentence_good": " ".join(good), "sentence_bad": " ".join(bad),
                                "UID": f"swap_{i % 2}"}) + "\n")


def score_differences(parent: Path, change: Path) -> list[str]:
    """How far two `scores.jsonl` files of the same pairs differ, one line
    per score field and one for the verdicts; the relative difference of
    two values is |a - b| / max(|a|, |b|)."""
    a, b = ([json.loads(line) for line in p.read_text().splitlines()] for p in (parent, change))
    if len(a) != len(b):
        return [f"{len(a)} records under parent, {len(b)} under change"]
    lines = []
    for field in ("pll_good", "pll_bad", "margin"):
        pairs = [(x[field], y[field]) for x, y in zip(a, b) if field in x and field in y]
        diffs = [abs(x - y) for x, y in pairs]
        rel = [abs(x - y) / max(abs(x), abs(y)) for x, y in pairs if x != y]
        lines.append(f"{field}: max abs {max(diffs, default=0.0):.3g}, "
                     f"max rel {max(rel, default=0.0):.3g}")
    flipped = sum(x.get("correct") != y.get("correct") for x, y in zip(a, b))
    lines.append(f"correct differs on {flipped} of {len(a)} pairs")
    return lines


def run_tree(root: Path, work: Path) -> dict[str, str]:
    """Run every command under `root`'s src in `work`; sha256 per artifact."""
    env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    work.mkdir()
    for name, argv in RUNS:
        cmd = [sys.executable, "-m", "desklm"] + argv + ["--out-dir", f"runs/{name}"]
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(f"{root}: desklm {' '.join(argv)} exited {done.returncode}\n"
                             f"{done.stderr}")
            sys.exit(2)
    return {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((work / "runs").rglob("*")) if p.is_file()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    roots = [Path(a) for a in argv]
    for root in roots:
        if not (root / "src" / "desklm").is_dir():
            sys.stderr.write(f"{root}: no src/desklm here\n")
            return 2
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        write_inputs(Path(tmp) / INPUTS, random.Random(SEED))
        parent = run_tree(roots[0], Path(tmp) / "parent")
        change = run_tree(roots[1], Path(tmp) / "change")
        differ = 0
        for name in sorted(parent.keys() | change.keys()):
            a, b = parent.get(name, "missing"), change.get(name, "missing")
            same = a == b
            differ += not same
            print(f"{'same' if same else 'DIFFERENT':9} {name}\n  parent {a}\n  change {b}")
            if not same and name.endswith("scores.jsonl") and "missing" not in (a, b):
                for line in score_differences(Path(tmp) / "parent" / name,
                                              Path(tmp) / "change" / name):
                    print(f"  {line}")
    print(f"{len(parent.keys() | change.keys()) - differ} identical, {differ} different")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
