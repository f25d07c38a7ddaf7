"""Acceptance checks for the whole laboratory.

Each test covers one advertised guarantee end to end and prints a single
verdict line (run pytest with -s to see them). The two training checks
are the slow part of the suite: together they need several minutes of
CPU. Every check is deterministic; there are no tolerance re-rolls.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np

from desklm import autograd as ag
from desklm import cli
from desklm import evaluation as ev
from desklm import model as mdl
from desklm import synthesis as sy
from desklm import training as tr
from desklm.corpus import (CorpusManifest, Document, GrammarExample,
                           ManifestEntry, NotionTag, SOURCE_KINDS,
                           TripletExample, WiktionaryEntry, count_words,
                           mix_corpora, save_documents, save_manifest,
                           save_triplets, source_word_totals)
from desklm.subwords import MASK_ID, pack_examples, train_subwords

from helpers import (brute_force_pll, fd_check_params, make_pseudo_corpus,
                     pseudo_lexicon, zero_params)

GOLDEN = Path(__file__).parent / "golden"


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    assert ok, f"acceptance {number:02d} {name}: {detail}"


# -- 1: analytic gradients match finite differences -----------------------------

def test_01_gradient_correctness():
    start = time.monotonic()
    failures: list[str] = []
    checked = 0
    for trial in range(5):
        with_decoder = trial % 2 == 1
        config = mdl.ModelConfig(vocab_size=11, n_layers=1, n_heads=2, d_model=8,
                                 d_ff=16, max_positions=64,
                                 decoder_layers=1 if with_decoder else 0,
                                 dropout=0.0, seed=100 + trial)
        params = mdl.init_params(config)
        rng = np.random.default_rng(200 + trial)
        ids = rng.integers(6, 11, size=(2, 6))
        labels = rng.integers(6, 11, size=12)
        labels[0] = tr.IGNORE_INDEX
        dec_in = rng.integers(6, 11, size=(2, 4))
        dec_labels = rng.integers(6, 11, size=8)

        def loss_fn():
            hidden = mdl.encoder_forward(params, ids)
            logits = mdl.mlm_logits(params, hidden)
            b, t, v = logits.shape
            loss = ag.cross_entropy(ag.reshape(logits, (b * t, v)), labels)
            if with_decoder:
                dec_logits = mdl.decoder_forward(params, dec_in, hidden)
                b2, t2, v2 = dec_logits.shape
                dec_loss = ag.cross_entropy(
                    ag.reshape(dec_logits, (b2 * t2, v2)), dec_labels)
                loss = ag.add(loss, dec_loss)
            return loss

        grads = mdl.backward(params, loss_fn())
        failures += fd_check_params(params, loss_fn, grads,
                                    coords_per_tensor=10 ** 9, seed=trial)
        checked += sum(t.data.size for _, t in params.items())
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    _verdict(1, "gradient correctness", ok,
             f"5 configs, {checked} coordinates, {len(failures)} mismatches, "
             f"{elapsed:.1f}s" + (f"; first: {failures[0]}" if failures else ""))


# -- 2: the default-size model learns a 500-sentence fixture --------------------

def _repetitive_fixture(n_sentences: int = 500, lexicon_size: int = 1200,
                        seed: int = 13) -> list[Document]:
    """Sentences built from a fixed word-successor chain, each trigram
    repeated with a constant filler word, so masked tokens are recoverable
    from surviving copies while the lexicon stays rich enough for a large
    subword vocabulary."""
    words = pseudo_lexicon(lexicon_size, seed)
    rng = np.random.default_rng([seed, 5])
    succ = rng.permutation(lexicon_size)
    docs = []
    for i in range(n_sentences):
        a = int(rng.integers(lexicon_size))
        b = int(succ[a])
        c = int(succ[b])
        unit = f"{words[a]} zub {words[b]} zub {words[c]} zub"
        docs.append(Document(id=f"fix-{i:04d}", source="unconstrained",
                             text=" ".join([unit] * 4)))
    return docs


def _mlm_eval_loss(params: mdl.ParameterSet, examples: np.ndarray,
                   mcfg: tr.MaskingConfig, vocab_size: int, seed: int) -> float:
    """Average masked-token cross-entropy of a fixed model over a packed
    corpus, with a fresh masking pass (no training updates)."""
    rng = np.random.default_rng([seed, 999])
    total, count = 0.0, 0
    with ag.no_grad():
        for s in range(0, examples.shape[0], 64):
            batch = examples[s:s + 64]
            masked, labels = tr.apply_mlm_masking(batch, mcfg, rng, vocab_size)
            logits = mdl.mlm_logits(params, mdl.encoder_forward(params, masked,
                                                                batch != 0))
            b, t, v = logits.shape
            loss = ag.cross_entropy(ag.reshape(logits, (b * t, v)),
                                    labels.reshape(-1))
            n = int((labels != tr.IGNORE_INDEX).sum())
            total += float(loss.data) * n
            count += n
    return total / count


def test_02_mlm_learning():
    start = time.monotonic()
    docs = _repetitive_fixture()
    assert len(docs) == 500
    subwords = train_subwords(docs, 2000)
    model_cfg = mdl.ModelConfig(vocab_size=2000, n_layers=4, n_heads=4,
                                d_model=128, d_ff=512, max_positions=64,
                                decoder_layers=0, dropout=0.0, seed=1)
    train_cfg = tr.TrainingConfig(learning_rate=2.5e-3, weight_decay=0.0,
                                  warmup_steps=100, batch_size=16, epochs=50,
                                  context_size=32, seed=1)
    # all-mask corruption trains the recover-from-copies task faster
    mask_cfg = tr.MaskingConfig(mask_prob=0.4, mask_frac=1.0,
                                random_frac=0.0, keep_frac=0.0)
    params, tlog = tr.train_mlm(docs, subwords, model_cfg, train_cfg, mask_cfg)
    assert tlog.manifest["n_documents"] == 500

    eval_cfg = tr.MaskingConfig(mask_prob=0.15, mask_frac=1.0,
                                random_frac=0.0, keep_frac=0.0)
    examples = pack_examples(subwords, docs, train_cfg.context_size)
    loss = _mlm_eval_loss(params, examples, eval_cfg, 2000, seed=1)
    first = tlog.steps[0]["total"]
    target = 0.5 * math.log(2000.0)
    elapsed = time.monotonic() - start
    ok = loss < target and elapsed < 600.0
    _verdict(2, "mlm learning", ok,
             f"loss {first:.3f} -> {loss:.3f} vs {target:.3f} after 50 epochs, "
             f"{elapsed:.0f}s")


# -- 3: grammatical preference emerges from agreement data ----------------------

def test_03_grammatical_preference():
    pairs = ev.generate_toy_minimal_pairs("subject-verb", 5500, seed=31)
    goods = [p.good for p in pairs]
    assert len(set(goods)) == 5500
    train_docs = [Document(id=f"sv-{i:04d}", source="unconstrained", text=g)
                  for i, g in enumerate(goods[:5000])]
    held_out = pairs[5000:]

    subwords = train_subwords(train_docs, 230)
    model_cfg = mdl.ModelConfig(vocab_size=230, n_layers=2, n_heads=4,
                                d_model=64, d_ff=256, max_positions=64,
                                decoder_layers=0, dropout=0.0, seed=2)
    untrained = ev.evaluate_suite(mdl.init_params(model_cfg), subwords, held_out)

    train_cfg = tr.TrainingConfig(learning_rate=1.5e-3, weight_decay=0.0,
                                  warmup_steps=50, batch_size=64, epochs=30,
                                  context_size=16, seed=2)
    mask_cfg = tr.MaskingConfig(mask_prob=0.3, mask_frac=1.0,
                                random_frac=0.0, keep_frac=0.0)
    params, _ = tr.train_mlm(train_docs, subwords, model_cfg, train_cfg, mask_cfg)
    trained = ev.evaluate_suite(params, subwords, held_out)

    ok = trained.macro_average >= 0.80 and 0.45 <= untrained.macro_average <= 0.55
    _verdict(3, "grammatical preference", ok,
             f"trained {trained.macro_average:.3f} vs >= 0.80, "
             f"untrained {untrained.macro_average:.3f} vs 0.45..0.55, "
             f"{len(held_out)} held-out pairs")


# -- 4: masking selection rate and branch split ----------------------------------

def test_04_masking_statistics():
    rng = np.random.default_rng(1234)
    ids = rng.integers(6, 2000, size=(1200, 900))
    eligible = ids.size
    assert eligible >= 10 ** 6
    masked, labels = tr.apply_mlm_masking(ids, tr.MaskingConfig(),
                                          np.random.default_rng(77), 2000)
    selected = labels != tr.IGNORE_INDEX
    n_sel = int(selected.sum())
    rate = n_sel / eligible
    frac_mask = float((selected & (masked == MASK_ID)).sum()) / n_sel
    frac_keep = float((selected & (masked == ids)).sum()) / n_sel
    frac_rand = float((selected & (masked != ids)
                       & (masked != MASK_ID)).sum()) / n_sel
    ok = (abs(rate - 0.15) <= 0.002 and abs(frac_mask - 0.8) <= 0.01
          and abs(frac_rand - 0.1) <= 0.01 and abs(frac_keep - 0.1) <= 0.01)
    _verdict(4, "masking statistics", ok,
             f"rate {rate:.4f}, split {frac_mask:.4f}/{frac_rand:.4f}/"
             f"{frac_keep:.4f} over {eligible} eligible")


# -- 5: warmup/decay schedule is exact and piecewise linear ----------------------

def test_05_schedule_exactness():
    cfg = tr.TrainingConfig()
    assert cfg.learning_rate == 2e-4 and cfg.warmup_steps == 4000
    total = 12000
    worst = 0.0

    def check(value: float, expected: float):
        nonlocal worst
        worst = max(worst, abs(value - expected))

    check(tr.lr_at(0, cfg, total), 0.0)
    check(tr.lr_at(4000, cfg, total), 2e-4)
    check(tr.lr_at(total, cfg, total), 0.0)
    for step in range(0, 4001):
        check(tr.lr_at(step, cfg, total), 2e-4 * step / 4000.0)
    for step in range(4000, total + 1):
        check(tr.lr_at(step, cfg, total), 2e-4 * (total - step) / (total - 4000.0))
    # piecewise linearity: vanishing second differences inside each segment
    values = [tr.lr_at(s, cfg, total) for s in range(total + 1)]
    for s in range(1, total):
        if s == 4000:
            continue
        check(values[s + 1] - 2.0 * values[s] + values[s - 1], 0.0)
    ok = worst <= 1e-12
    _verdict(5, "schedule exactness", ok, f"worst deviation {worst:.3e}")


# -- 6: stripping the decoder never perturbs MLM logits ---------------------------

def test_06_decoder_strip_identity():
    config = mdl.ModelConfig(vocab_size=101, n_layers=2, n_heads=2, d_model=16,
                             d_ff=32, max_positions=64, decoder_layers=2,
                             dropout=0.0, seed=5)
    full = mdl.init_params(config)
    stripped = mdl.strip_decoder(full)
    rng = np.random.default_rng(6)
    identical = 0
    for _ in range(100):
        b = int(rng.integers(1, 5))
        t = int(rng.integers(1, 65))
        ids = rng.integers(0, 101, size=(b, t))
        mask = rng.random((b, t)) < 0.8
        mask[:, 0] = True
        before = mdl.mlm_logits(full, mdl.encoder_forward(full, ids, mask)).data
        after = mdl.mlm_logits(stripped,
                               mdl.encoder_forward(stripped, ids, mask)).data
        identical += int(np.array_equal(before, after))
    ok = identical == 100
    _verdict(6, "decoder strip identity", ok,
             f"{identical}/100 random inputs bit-identical")


# -- 7: scoring agrees with a brute-force oracle ----------------------------------

def test_07_pll_oracle_equivalence():
    docs = [Document(id=f"t{i}", text=t, source="unconstrained")
            for i, t in enumerate(ev.toy_vocabulary_sentences())]
    subwords = train_subwords(docs, 250)
    config = mdl.ModelConfig(vocab_size=250, n_layers=1, n_heads=2, d_model=16,
                             d_ff=32, max_positions=64, dropout=0.0, seed=3)
    params = mdl.init_params(config)

    pairs = ev.generate_toy_minimal_pairs("subject-verb", 50, seed=7)
    sentences = [p.good for p in pairs] + [p.bad for p in pairs]
    assert len(sentences) == 100
    worst = max(abs(ev.pseudo_log_likelihood(params, subwords, s)
                    - brute_force_pll(params, subwords, s)) for s in sentences)

    uniform = zero_params(config)
    worst_uniform = 0.0
    for s in sentences[:10]:
        n = len(subwords.encode(s))
        got = ev.pseudo_log_likelihood(uniform, subwords, s)
        worst_uniform = max(worst_uniform, abs(got - n * math.log(1.0 / 250.0)))
    ok = worst <= 1e-5 and worst_uniform <= 1e-9
    _verdict(7, "pll oracle equivalence", ok,
             f"max |fast - brute| {worst:.2e} on 100 sentences, "
             f"uniform closed-form gap {worst_uniform:.2e}")


# -- 8: zero-weight auxiliary training reduces to plain MLM -----------------------

def test_08_zero_weight_reduction(tmp_path):
    docs = make_pseudo_corpus(25, seed=11, lexicon_size=40)
    subwords = train_subwords(docs, 80)
    words = docs[0].text.split()
    tagged = [GrammarExample(
        sentence=f"The {words[0]} holds a {words[1]}.", topic="tools",
        tags=(NotionTag("common noun", (words[0], words[1])),))]
    items = tr.build_grammar_batch(tagged, subwords)

    train_cfg = tr.TrainingConfig(learning_rate=5e-3, weight_decay=0.01,
                                  warmup_steps=2, batch_size=8, epochs=2,
                                  context_size=16, seed=5, aux_weight=0.0)
    multi_cfg = mdl.ModelConfig(vocab_size=80, n_layers=1, n_heads=2, d_model=16,
                                d_ff=32, max_positions=64, decoder_layers=1,
                                dropout=0.1, seed=5)
    multi_params, _ = tr.train_multi_objective(docs, subwords, items, "grammar",
                                               multi_cfg, train_cfg)
    mlm_cfg = dataclasses.replace(multi_cfg, decoder_layers=0)
    mlm_params, _ = tr.train_mlm(docs, subwords, mlm_cfg, train_cfg)

    mdl.save_checkpoint(multi_params, tmp_path / "multi.bin")
    mdl.save_checkpoint(mlm_params, tmp_path / "mlm.bin")
    same_names = set(dict(multi_params.items())) == set(dict(mlm_params.items()))
    same_values = same_names and all(
        np.array_equal(t.data, mlm_params[name].data)
        for name, t in multi_params.items())
    same_bytes = ((tmp_path / "multi.bin").read_bytes()
                  == (tmp_path / "mlm.bin").read_bytes())
    ok = same_names and same_values and same_bytes
    _verdict(8, "zero-weight reduction", ok,
             f"names {same_names}, arrays {same_values}, "
             f"checkpoint bytes {same_bytes} (dropout active)")


# -- 9: mixing never exceeds any budget -------------------------------------------

def test_09_corpus_budget_safety():
    rng = np.random.default_rng(97)
    violations = 0
    tightest = 1.0
    for trial in range(1000):
        n_entries = int(rng.integers(1, 5))
        kinds = [str(k) for k in rng.choice(SOURCE_KINDS, size=n_entries,
                                            replace=False)]
        entries, sources = [], []
        for kind in kinds:
            budget = int(rng.integers(0, 250))
            entries.append(ManifestEntry(f"mem://{kind}", kind, budget))
            docs = [Document(id=f"{kind}-{j}", source=kind,
                             text=" ".join(["tok"] * int(rng.integers(1, 13))))
                    for j in range(int(rng.integers(0, 31)))]
            sources.append(docs)
        extra = int(rng.integers(0, 100))
        manifest = CorpusManifest(entries=tuple(entries),
                                  total_budget=sum(e.budget for e in entries) + extra,
                                  seed=int(rng.integers(0, 10 ** 6)))
        mixed = mix_corpora(manifest, sources)
        totals = source_word_totals(mixed)
        for entry in entries:
            used = totals.get(entry.kind, 0)
            if used > entry.budget:
                violations += 1
            elif entry.budget:
                tightest = min(tightest, (entry.budget - used) / entry.budget)
        if sum(totals.values()) > manifest.total_budget:
            violations += 1
    ok = violations == 0
    _verdict(9, "corpus budget safety", ok,
             f"1000 randomized manifests, {violations} violations, "
             f"tightest remaining headroom {tightest:.3f}")


# -- 10: prompt templates are stable and parsing inverts rendering ----------------

def test_10_template_fidelity():
    renders = {
        "figure1.txt": sy.render_generation_prompt(
            sy.NotionSpec("<notion>", "<alternate notion>"), "<topic>", count=500),
        "figure1_noalt.txt": sy.render_generation_prompt(
            sy.NotionSpec("<notion>"), "<topic>", count=500),
        "figure2.txt": sy.render_tagging_prompt("<sentence>",
                                                sy.NotionSpec("<notion>")),
        "figure2_sentential.txt": sy.render_tagging_prompt(
            "<sentence>", sy.NotionSpec("<notion>", sentential=True)),
        "figure3.txt": sy.render_wiktionary_example_prompt(
            WiktionaryEntry("<word>", "<part of speech>", "<definition>", ()),
            count=3),
    }
    mismatched = [name for name, text in renders.items()
                  if text.encode() != (GOLDEN / name).read_bytes()]

    pool = ["alpha", "beta", "gamma", "delta", "9mm", "x-ray", "omega",
            "zeta", "12.", "(note)", "pi"]
    rng = np.random.default_rng(4242)
    inversions = 0
    for _ in range(1000):
        k = int(rng.integers(1, 13))
        items = [" ".join(rng.choice(pool, size=int(rng.integers(1, 9))))
                 for _ in range(k)]
        rendered = "\n".join(f"{j + 1}. {item}" for j, item in enumerate(items))
        inversions += int(sy.parse_numbered_list(rendered, k) == items)
    ok = not mismatched and inversions == 1000
    _verdict(10, "template fidelity", ok,
             f"{len(renders) - len(mismatched)}/{len(renders)} golden files match, "
             f"{inversions}/1000 random lists invert"
             + (f"; mismatched: {mismatched}" if mismatched else ""))


# -- 11: the full pipeline is reproducible ----------------------------------------

def _pipeline_once(root: Path, sources_dir: Path) -> dict[str, bytes]:
    root.mkdir()
    mix_dir, train_dir, eval_dir = root / "mix", root / "train", root / "eval"
    assert cli.main(["corpus", "mix", "--manifest",
                     str(sources_dir / "manifest.json"),
                     "--out-dir", str(mix_dir)]) == 0
    assert cli.main(["train", "--mlm", "--corpus", str(mix_dir / "mixed.jsonl"),
                     "--out-dir", str(train_dir), "--vocab-size", "150",
                     "--context-size", "16", "--batch-size", "8", "--epochs", "2",
                     "--warmup-steps", "2", "--learning-rate", "5e-3",
                     "--layers", "1", "--heads", "2", "--d-model", "16",
                     "--d-ff", "32", "--dropout", "0.1", "--seed", "7"]) == 0
    assert cli.main(["eval", "--checkpoint", str(train_dir / cli.CHECKPOINT_NAME),
                     "--subwords", str(train_dir / cli.SUBWORDS_NAME),
                     "--toy", "subject-verb", "--n", "50", "--seed", "9",
                     "--out-dir", str(eval_dir)]) == 0
    return {
        "mixed.jsonl": (mix_dir / "mixed.jsonl").read_bytes(),
        "checkpoint.bin": (train_dir / cli.CHECKPOINT_NAME).read_bytes(),
        "report.json": (eval_dir / "report.json").read_bytes(),
        "report.txt": (eval_dir / "report.txt").read_bytes(),
    }


def test_11_end_to_end_determinism(tmp_path):
    sources_dir = tmp_path / "sources"
    sources_dir.mkdir()
    toy_docs = [Document(id=f"toy-{i:03d}", source="unconstrained", text=t)
                for i, t in enumerate(ev.toy_vocabulary_sentences())]
    save_documents(sources_dir / "toy.jsonl", toy_docs)
    triplets = [TripletExample(p.good, p.good.replace("the", "the very", 1), p.bad)
                for p in ev.generate_toy_minimal_pairs("determiner-noun", 40, seed=3)]
    save_triplets(sources_dir / "trip.jsonl", triplets)

    toy_words = sum(d.word_count for d in toy_docs)
    trip_words = sum(count_words(f"{t.sent0} {t.sent1} {t.hard_neg}")
                     for t in triplets)
    manifest = CorpusManifest(
        entries=(ManifestEntry(str(sources_dir / "toy.jsonl"), "unconstrained",
                               int(toy_words * 0.8)),
                 ManifestEntry(str(sources_dir / "trip.jsonl"), "triplet",
                               int(trip_words * 0.8))),
        total_budget=toy_words + trip_words, seed=21)
    save_manifest(sources_dir / "manifest.json", manifest)

    first = _pipeline_once(tmp_path / "run1", sources_dir)
    second = _pipeline_once(tmp_path / "run2", sources_dir)
    differing = [name for name in first if first[name] != second[name]]
    report = json.loads(first["report.json"].decode("utf-8"))
    ok = not differing and report["pair_count"] == 50
    _verdict(11, "end-to-end determinism", ok,
             f"two pipeline runs, {len(first) - len(differing)}/{len(first)} "
             f"artifacts byte-identical"
             + (f"; differing: {differing}" if differing else ""))
