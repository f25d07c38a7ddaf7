"""Show that no output check passes vacuously.

    python3 perfbench/selftest.py

Each checker in checks.py first gets a right input, which it must accept,
then a deliberately wrong one, which it must reject: a perturbed PLL, an
over-budget mix, a checkpoint with one flipped byte, and so on. The
metric names in BENCHMARK.json are also compared with those run.py and
tracing.py print. Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from desklm import corpus as cp  # noqa: E402
from desklm import evaluation as ev  # noqa: E402
from desklm import model as mdl  # noqa: E402
from desklm import training as tr  # noqa: E402
from desklm.subwords import pack_examples, train_subwords  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def expect(label: str, good, bad) -> bool:
    """good() must pass and bad() must raise CheckFailed."""
    try:
        good()
    except checks.CheckFailed as e:
        print(f"FAIL {label}: rejected the right input ({e})")
        return False
    try:
        bad()
    except checks.CheckFailed as e:
        print(f"ok   {label}: rejects the wrong input ({e})")
        return True
    print(f"FAIL {label}: accepted the wrong input")
    return False


def main() -> int:
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_out"))
    texts = ev.toy_vocabulary_sentences()
    docs = [cp.Document(id=f"d{i}", source="unconstrained", text=t) for i, t in enumerate(texts)]
    sw = train_subwords(docs, 150)
    sw.save(tmp / "subwords.json")
    config = mdl.ModelConfig(vocab_size=150, n_layers=1, n_heads=2, d_model=16, d_ff=32,
                             decoder_layers=1, dropout=0.0, seed=3)
    params = mdl.init_params(config)
    stripped = mdl.strip_decoder(params)
    mdl.save_checkpoint(stripped, tmp / "ckpt.bin")
    mdl.save_checkpoint(params, tmp / "with_decoder.bin")
    blob = bytearray((tmp / "ckpt.bin").read_bytes())
    blob[len(blob) // 2] ^= 0x01
    (tmp / "flipped.bin").write_bytes(bytes(blob))
    (tmp / "trailing.bin").write_bytes((tmp / "ckpt.bin").read_bytes() + b"\0")

    manifest = {"total_budget": 100, "entries": [{"kind": "unconstrained", "budget": 60},
                                                 {"kind": "triplet", "budget": 40}]}
    mixed = [{"source": "unconstrained", "text": "a b c"}, {"source": "triplet", "text": "d e"}]
    over = mixed + [{"source": "triplet", "text": " ".join(["w"] * 39)}]

    packed = pack_examples(sw, docs, 16)
    dropped = packed.copy()
    dropped[0, 0] = 0

    tcfg = tr.TrainingConfig(learning_rate=5e-3, warmup_steps=1, batch_size=4, epochs=1,
                             context_size=16, seed=1, aux_weight=0.5)
    example = cp.GrammarExample("the cat sleeps", "t", (cp.NotionTag("common noun", ("cat",)),))
    mcfg = mdl.ModelConfig(vocab_size=150, n_layers=1, n_heads=2, d_model=16, d_ff=32,
                           decoder_layers=1, seed=3)
    trained, tlog = tr.train_multi_objective(docs, sw, tr.build_grammar_batch([example], sw),
                                             "grammar", mcfg, tcfg)
    tlog.write(tmp / "trainlog.jsonl")
    lines = (tmp / "trainlog.jsonl").read_text().splitlines()
    step = json.loads(lines[1])
    step["total"] += 1e-12
    (tmp / "bad_trainlog.jsonl").write_text("\n".join([lines[0], json.dumps(step)] + lines[2:]))
    short_log = tr.TrainLog(tlog.manifest)
    short_log.steps = tlog.steps[:-1]

    sentences = [texts[0], texts[1]]
    fast = [ev.pseudo_log_likelihood(stripped, sw, s) for s in sentences]

    pairs = ev.generate_toy_minimal_pairs("subject-verb", 3, seed=1)
    (tmp / "pairs.jsonl").write_text("".join(
        json.dumps({"sentence_good": p.good, "sentence_bad": p.bad, "UID": p.phenomenon}) + "\n"
        for p in pairs))
    report = ev.evaluate_suite(stripped, sw, pairs)
    (tmp / "report.json").write_text(report.to_json())
    miscounted = json.loads(report.to_json())
    miscounted["pair_count"] += 1
    (tmp / "bad_report.json").write_text(json.dumps(miscounted))
    off_by_one = json.loads(report.to_json())
    rec = off_by_one["phenomena"][pairs[0].phenomenon]
    rec["correct"] += -1 if rec["correct"] else 1
    (tmp / "off_by_one_report.json").write_text(json.dumps(off_by_one))
    skewed = json.loads(report.to_json())
    skewed["macro_average"] += 1e-9
    (tmp / "skewed_report.json").write_text(json.dumps(skewed))

    def pll(sentence):
        return ev.pseudo_log_likelihood(stripped, sw, sentence)

    def shifted(p, s, sentence):
        return ev.pseudo_log_likelihood(p, s, sentence) + 1e-6

    results = [
        expect("budgets", lambda: checks.budgets(manifest, mixed),
               lambda: checks.budgets(manifest, over)),
        expect("vocab_size", lambda: checks.vocab_size(tmp / "subwords.json", 150),
               lambda: checks.vocab_size(tmp / "subwords.json", 151)),
        expect("round_trip", lambda: checks.round_trip(sw, texts),
               lambda: checks.round_trip(sw, texts + ["the cat sleeps ?"])),
        expect("packing", lambda: checks.packing(sw, texts, packed, 16, packed.shape[0]),
               lambda: checks.packing(sw, texts, dropped, 16, packed.shape[0])),
        expect("checkpoint (flipped byte)", lambda: checks.checkpoint(tmp / "ckpt.bin", stripped),
               lambda: checks.checkpoint(tmp / "flipped.bin", stripped)),
        expect("checkpoint (trailing byte)", lambda: checks.checkpoint(tmp / "ckpt.bin", stripped),
               lambda: checks.checkpoint(tmp / "trailing.bin", stripped)),
        expect("tensor_names", lambda: checks.tensor_names(tmp / "ckpt.bin",
                                                           checks.encoder_tensor_names(1)),
               lambda: checks.tensor_names(tmp / "with_decoder.bin",
                                           checks.encoder_tensor_names(1))),
        expect("all_steps_ran", lambda: checks.all_steps_ran(tlog, 1, 4),
               lambda: checks.all_steps_ran(short_log, 1, 4)),
        expect("below_uniform", lambda: checks.below_uniform("loss", math.log(150) - 1e-9, 150),
               lambda: checks.below_uniform("loss", math.log(150), 150)),
        expect("log_totals", lambda: checks.log_totals(tmp / "trainlog.jsonl", "grammar", 0.5),
               lambda: checks.log_totals(tmp / "bad_trainlog.jsonl", "grammar", 0.5)),
        expect("pll_matches_brute_force (perturbed PLL)",
               lambda: checks.pll_matches_brute_force(stripped, sw, sentences, fast),
               lambda: checks.pll_matches_brute_force(stripped, sw, sentences,
                                                      [fast[0], fast[1] + 2e-5])),
        expect("uniform_pll", lambda: checks.uniform_pll(stripped, sw, sentences),
               lambda: checks.uniform_pll(stripped, sw, sentences, score=shifted)),
        expect("report_counts", lambda: checks.report_counts(tmp / "report.json",
                                                             tmp / "pairs.jsonl"),
               lambda: checks.report_counts(tmp / "bad_report.json", tmp / "pairs.jsonl")),
        expect("report_scores (correct count off by one)",
               lambda: checks.report_scores(tmp / "report.json", tmp / "pairs.jsonl", pll),
               lambda: checks.report_scores(tmp / "off_by_one_report.json",
                                            tmp / "pairs.jsonl", pll)),
        expect("report_scores (macro_average)",
               lambda: checks.report_scores(tmp / "report.json", tmp / "pairs.jsonl", pll),
               lambda: checks.report_scores(tmp / "skewed_report.json",
                                            tmp / "pairs.jsonl", pll)),
    ]
    del trained

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed_e2e = [m["name"] for m in bench["end_to_end"]]
    listed_layer = [m["name"] for m in bench["per_layer"]]
    names_ok = (listed_e2e == [n for n, _ in run.END_TO_END]
                and listed_layer == [n for n, _, _ in tracing.PER_LAYER])
    print(("ok  " if names_ok else "FAIL") + " BENCHMARK.json lists the metrics run.py prints")
    results.append(names_ok)

    for p in sorted(tmp.iterdir()):
        p.unlink()
    tmp.rmdir()
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
