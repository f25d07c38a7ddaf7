"""End-to-end checks for the command-line interface.

Every test drives cli.main() in-process so exit codes, stdout, and
artifact files can be asserted cheaply. Training invocations use tiny
models and corpora; nothing here should take more than a few seconds.
"""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

from desklm import cli
from desklm import corpus as cp
from desklm import evaluation as ev
from desklm import model as mdl
from desklm import synthesis as sy
from desklm.subwords import SPECIAL_TOKENS, train_subwords

from helpers import make_pseudo_corpus


# -- exit codes ----------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "desklm" in capsys.readouterr().out


def test_unknown_command_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    assert cli.main(["corpus", "mix"]) == cli.EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_missing_input_file_is_data_error(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    assert cli.main(["corpus", "stats", str(missing)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err
    assert "nope.jsonl" in err


def test_live_without_endpoint_is_runtime_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(sy.ENV_API_URL, raising=False)
    monkeypatch.delenv(sy.ENV_API_KEY, raising=False)
    code = cli.main(["synth", "generate", "--live", "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "runtime error" in err
    assert sy.ENV_API_URL in err


def test_mlm_wikt_without_wiktionary_is_usage_error(tmp_path, capsys):
    code = cli.main(["train", "--mlm-wikt", "--corpus", "whatever.jsonl",
                     "--out-dir", str(tmp_path)])
    assert code == cli.EXIT_USAGE
    assert "--mlm-wikt" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--wiktionary", "--grammar"])
def test_separate_objective_file_flags_are_gone(tmp_path, capsys, flag):
    # the data file rides on --mlm-wikt / --mlm-gram, so none can be ignored
    code = cli.main(["train", "--mlm", "--corpus", "whatever.jsonl", flag, "nosuch",
                     "--out-dir", str(tmp_path / "o")])
    assert code == cli.EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_render_figure_1_without_topic_is_usage_error(capsys):
    code = cli.main(["synth", "render", "--figure", "1", "--notion", "common noun"])
    assert code == cli.EXIT_USAGE
    assert "--topic" in capsys.readouterr().err


# -- README examples ------------------------------------------------------------

def test_readme_commands_parse():
    # every `desklm ...` line of README's sh blocks, continuations joined and
    # leading VAR=value assignments dropped, is only parsed, never run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            while words and re.match(r"[A-Za-z_][A-Za-z0-9_]*=", words[0]):
                words.pop(0)
            if words and words[0] == "desklm":
                commands.append(words[1:])
    assert len(commands) >= 10
    for argv in commands:
        cli.build_parser().parse_args(argv)


# -- corpus subcommands ----------------------------------------------------------

def _write_documents(path: Path, texts: list[str], source: str = "unconstrained"):
    docs = [cp.Document(id=f"d{i:03d}", source=source, text=t)
            for i, t in enumerate(texts)]
    cp.save_documents(path, docs)
    return docs


def test_corpus_stats_totals(tmp_path, capsys):
    texts = ["one two three", "four five", "six seveneight nine ten eleven"]
    docs = _write_documents(tmp_path / "docs.jsonl", texts)
    expected = sum(cp.count_words(t) for t in texts)

    out_dir = tmp_path / "out"
    code = cli.main(["corpus", "stats", str(tmp_path / "docs.jsonl"),
                     "--out-dir", str(out_dir)])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert f"total: {expected} words in {len(docs)} documents" in out

    stats = json.loads((out_dir / "stats.json").read_text(encoding="utf-8"))
    assert stats["total_words"] == expected
    assert stats["documents"] == len(docs)
    assert stats["per_source"] == {"unconstrained": expected}
    assert (out_dir / cli.MANIFEST_NAME).is_file()


def test_corpus_mix_respects_budgets(tmp_path, capsys):
    plain = tmp_path / "plain.jsonl"
    _write_documents(plain, [f"alpha beta gamma delta w{i}" for i in range(16)])
    trip = tmp_path / "trip.jsonl"
    cp.save_triplets(trip, [cp.TripletExample(f"aa bb cc {i}", f"dd ee ff {i}",
                                              f"gg hh ii {i}")
                            for i in range(5)])
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "total_budget": 70,
        "seed": 4,
        "entries": [
            {"path": str(plain), "kind": "unconstrained", "budget": 40},
            {"path": str(trip), "kind": "triplet", "budget": 30},
        ],
    }), encoding="utf-8")

    out_dir = tmp_path / "mixed"
    code = cli.main(["corpus", "mix", "--manifest", str(manifest),
                     "--out-dir", str(out_dir)])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "budget 40 words" in out
    assert "budget 30 words" in out

    mixed = cp.load_documents(out_dir / "mixed.jsonl")
    totals = cp.source_word_totals(mixed)
    assert totals.get("unconstrained", 0) <= 40
    assert totals.get("triplet", 0) <= 30
    assert sum(totals.values()) <= 70

    run = json.loads((out_dir / cli.MANIFEST_NAME).read_text(encoding="utf-8"))
    assert run["subcommand"] == "corpus mix"
    assert run["seed"] == 4
    assert run["artifacts"] == ["mixed.jsonl"]
    assert str(manifest) in run["input_hashes"]
    assert str(plain) in run["input_hashes"]


def test_corpus_mix_malformed_manifest_is_data_error_naming_the_file(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"total_budget": 10, "entries": [
        {"path": "a.txt", "kind": "novel", "budget": 5}]}), encoding="utf-8")
    code = cli.main(["corpus", "mix", "--manifest", str(manifest),
                     "--out-dir", str(tmp_path / "mixed")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"{manifest}: " in err
    assert "unknown source kind 'novel'" in err


def test_corpus_flatten_triplets(tmp_path, capsys):
    trip = tmp_path / "trip.jsonl"
    cp.save_triplets(trip, [cp.TripletExample("a one", "a two", "a three"),
                            cp.TripletExample("b one", "b two", "b three")])
    out_dir = tmp_path / "flat"
    code = cli.main(["corpus", "flatten-triplets", "--input", str(trip),
                     "--out-dir", str(out_dir)])
    assert code == cli.EXIT_OK
    assert "wrote 6 documents from 2 triplets" in capsys.readouterr().out
    docs = cp.load_documents(out_dir / "flattened.jsonl")
    assert [d.text for d in docs[:3]] == ["a one", "a two", "a three"]


# -- synth subcommands ----------------------------------------------------------

def test_render_matches_library_output(capsys):
    code = cli.main(["synth", "render", "--figure", "1",
                     "--notion", "singular noun", "--alternate", "plural noun",
                     "--topic", "physics"])
    assert code == cli.EXIT_OK
    expected = sy.render_generation_prompt(
        sy.NotionSpec("singular noun", "plural noun"), "physics", 500)
    assert capsys.readouterr().out == expected + "\n"


def test_render_figure_3(capsys):
    code = cli.main(["synth", "render", "--figure", "3", "--word", "prism",
                     "--pos", "noun", "--definition", "a transparent solid",
                     "--count", "2"])
    assert code == cli.EXIT_OK
    entry = cp.WiktionaryEntry("prism", "noun", "a transparent solid", ())
    assert capsys.readouterr().out == sy.render_wiktionary_example_prompt(entry, 2) + "\n"


def _canned_default_notion(directory: Path, per_notion: int, chunk: int,
                           tag_count: int):
    """Canned responses for --num-notions 1 runs over the default lists."""
    spec = sy.DEFAULT_NOTIONS[0]
    sentences = [f"The meter shows value {k}." for k in range(per_notion)]
    made, call = 0, 0
    while made < per_notion:
        topic = sy.DEFAULT_TOPICS.topics[call % len(sy.DEFAULT_TOPICS.topics)]
        want = min(chunk, per_notion - made)
        prompt = sy.render_generation_prompt(spec, topic, count=want)
        body = "\n".join(f"{i + 1}. {s}"
                         for i, s in enumerate(sentences[made:made + want]))
        sy.write_canned_response(directory, prompt, body)
        made += want
        call += 1
    for s in sentences[:tag_count]:
        sy.write_canned_response(directory, sy.render_tagging_prompt(s, spec),
                                 "meter, value")


def test_synth_generate_mock(tmp_path, capsys):
    canned = tmp_path / "canned"
    canned.mkdir()
    _canned_default_notion(canned, per_notion=4, chunk=2, tag_count=1)

    out_dir = tmp_path / "gen"
    argv = ["synth", "generate", "--mock", str(canned), "--out-dir", str(out_dir),
            "--num-notions", "1", "--per-notion", "4", "--chunk-size", "2",
            "--tag-count", "1", "--tag-notions", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    assert "wrote 4 sentences (1 tagged)" in capsys.readouterr().out

    examples = cp.load_grammar_examples(out_dir / "dataset.jsonl")
    assert len(examples) == 4
    assert examples[0].tags[0].notion == sy.DEFAULT_NOTIONS[0].notion
    assert all(e.tags == () for e in examples[1:])

    out_dir2 = tmp_path / "gen2"
    argv2 = argv[:]
    argv2[argv2.index(str(out_dir))] = str(out_dir2)
    assert cli.main(argv2) == cli.EXIT_OK
    assert ((out_dir / "dataset.jsonl").read_bytes()
            == (out_dir2 / "dataset.jsonl").read_bytes())


def test_synth_generate_num_notions_bounds(tmp_path, capsys):
    code = cli.main(["synth", "generate", "--mock", str(tmp_path),
                     "--out-dir", str(tmp_path / "o"), "--num-notions", "0"])
    assert code == cli.EXIT_USAGE
    assert "--num-notions" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--chunk-size", "0"], "--chunk-size must be >= 1"),
    (["--per-notion", "-2", "--tag-count", "-3"], "--per-notion must be >= 0"),
    (["--tag-count", "-3"], "--tag-count must be >= 0"),
    (["--tag-notions", "-1"], "--tag-notions must be >= 0"),
    (["--retries", "0"], "unrecognized arguments: --retries"),
])
def test_synth_generate_bad_count_is_usage_error(tmp_path, capsys, flags, message):
    code = cli.main(["synth", "generate", "--mock", str(tmp_path),
                     "--out-dir", str(tmp_path / "o")] + flags)
    assert code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# -- train / eval ----------------------------------------------------------------

TINY_MODEL_FLAGS = ["--vocab-size", "80", "--context-size", "16",
                    "--batch-size", "8", "--learning-rate", "5e-3",
                    "--layers", "1", "--heads", "2", "--d-model", "16",
                    "--d-ff", "32", "--dropout", "0.0", "--seed", "3"]
TRAIN_FLAGS = TINY_MODEL_FLAGS + ["--epochs", "2", "--warmup-steps", "2"]
AUX_FLAGS = TINY_MODEL_FLAGS + ["--epochs", "1", "--warmup-steps", "1"]


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("corpus") / "pseudo.jsonl"
    cp.save_documents(path, make_pseudo_corpus(25, seed=11, lexicon_size=40))
    return path


@pytest.fixture(scope="module")
def mlm_run(tmp_path_factory, corpus_path) -> Path:
    out_dir = tmp_path_factory.mktemp("mlm_run")
    code = cli.main(["train", "--mlm", "--corpus", str(corpus_path),
                     "--out-dir", str(out_dir)] + TRAIN_FLAGS)
    assert code == cli.EXIT_OK
    return out_dir


def test_train_mlm_artifacts(mlm_run):
    for name in (cli.CHECKPOINT_NAME, cli.SUBWORDS_NAME, cli.TRAINLOG_NAME,
                 cli.MANIFEST_NAME):
        assert (mlm_run / name).is_file()

    params = mdl.load_checkpoint(mlm_run / cli.CHECKPOINT_NAME)
    assert params.config.decoder_layers == 0
    assert params.config.vocab_size == 80

    with open(mlm_run / cli.TRAINLOG_NAME, encoding="utf-8") as f:
        first = json.loads(f.readline())
    assert first["objective"] == "mlm"
    assert first["seed"] == 3

    run = json.loads((mlm_run / cli.MANIFEST_NAME).read_text(encoding="utf-8"))
    assert run["subcommand"] == "train"
    assert run["seed"] == 3
    assert sorted(run["artifacts"]) == [cli.CHECKPOINT_NAME, cli.SUBWORDS_NAME,
                                        cli.TRAINLOG_NAME]
    assert run["config"]["epochs"] == 2


def test_train_mlm_rerun_is_identical(tmp_path, corpus_path, mlm_run):
    out_dir = tmp_path / "again"
    code = cli.main(["train", "--mlm", "--corpus", str(corpus_path),
                     "--out-dir", str(out_dir)] + TRAIN_FLAGS)
    assert code == cli.EXIT_OK
    assert ((out_dir / cli.CHECKPOINT_NAME).read_bytes()
            == (mlm_run / cli.CHECKPOINT_NAME).read_bytes())
    assert ((out_dir / cli.TRAINLOG_NAME).read_bytes()
            == (mlm_run / cli.TRAINLOG_NAME).read_bytes())


def test_train_reuses_existing_subwords(tmp_path, corpus_path, mlm_run):
    out_dir = tmp_path / "reuse"
    code = cli.main(["train", "--mlm", "--corpus", str(corpus_path),
                     "--subwords", str(mlm_run / cli.SUBWORDS_NAME),
                     "--out-dir", str(out_dir)] + TRAIN_FLAGS)
    assert code == cli.EXIT_OK
    assert ((out_dir / cli.SUBWORDS_NAME).read_bytes()
            == (mlm_run / cli.SUBWORDS_NAME).read_bytes())
    assert ((out_dir / cli.CHECKPOINT_NAME).read_bytes()
            == (mlm_run / cli.CHECKPOINT_NAME).read_bytes())


def test_train_default_warmup_on_tiny_corpus_is_data_error(tmp_path, corpus_path,
                                                          monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("ran the encoder before the schedule check")
    monkeypatch.setattr(mdl, "encoder_forward", never)
    code = cli.main(["train", "--mlm", "--corpus", str(corpus_path),
                     "--out-dir", str(tmp_path / "run"), "--epochs", "2"]
                    + TINY_MODEL_FLAGS)
    assert code == cli.EXIT_DATA
    assert "must exceed warmup_steps (4000)" in capsys.readouterr().err


def test_train_mlm_wikt_strips_decoder(tmp_path, corpus_path):
    lexicon = make_pseudo_corpus(1, seed=11, lexicon_size=40)[0].text.split()
    csv_path = tmp_path / "dict.csv"
    rows = ["word,pos,definition,example_1"]
    for word in lexicon[:2]:
        rows.append(f"{word},noun,a kind of tool,The {word} was used twice.")
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    out_dir = tmp_path / "wikt"
    code = cli.main(["train", "--mlm-wikt", str(csv_path), "--corpus", str(corpus_path),
                     "--out-dir", str(out_dir)]
                    + AUX_FLAGS)
    assert code == cli.EXIT_OK

    params = mdl.load_checkpoint(out_dir / cli.CHECKPOINT_NAME)
    assert params.config.decoder_layers == 0
    assert not any(name.startswith("dec.") for name in params.tensors)

    with open(out_dir / cli.TRAINLOG_NAME, encoding="utf-8") as f:
        first = json.loads(f.readline())
    assert first["objective"] == "mlm+definition"
    assert first["n_aux_items"] >= 1


@pytest.mark.parametrize("flags", [["--mlm", "--decoder-layers", "2"],
                                   ["--mlm-gram", "g.jsonl", "--decoder-layers", "0"]])
def test_decoder_layers_misuse_is_usage_error(tmp_path, corpus_path, capsys, flags):
    code = cli.main(["train", "--corpus", str(corpus_path),
                     "--out-dir", str(tmp_path / "o")] + flags)
    assert code == cli.EXIT_USAGE
    assert "--decoder-layers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, message", [
    (["--heads", "3"], "divisible by n_heads"),
    (["--batch-size", "0"], "batch_size"),
    # flags the run would otherwise override or drop
    (["--max-positions", "32"], "max_positions must be at least 64"),
    (["--max-positions", "100", "--context-size", "128"],
     "--max-positions 100 is smaller than --context-size 128"),
    (["--aux-weight", "5"], "--aux-weight is only used with"),
])
def test_bad_model_or_training_flag_is_usage_error_before_bpe(tmp_path, corpus_path,
                                                             monkeypatch, capsys,
                                                             flags, message):
    def never(*args, **kwargs):
        raise AssertionError("trained subwords before checking the flags")
    monkeypatch.setattr(cli, "train_subwords", never)
    code = cli.main(["train", "--mlm", "--corpus", str(corpus_path),
                     "--out-dir", str(tmp_path / "o")] + flags)
    assert code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_mlm_gram(tmp_path, corpus_path):
    words = make_pseudo_corpus(1, seed=11, lexicon_size=40)[0].text.split()
    gram = tmp_path / "gram.jsonl"
    examples = [cp.GrammarExample(
        sentence=f"The {words[0]} holds a {words[1]}.", topic="tools",
        tags=(cp.NotionTag("common noun", (words[0], words[1])),))]
    cp.save_grammar_examples(gram, examples)

    out_dir = tmp_path / "gram_run"
    code = cli.main(["train", "--mlm-gram", str(gram), "--corpus", str(corpus_path),
                     "--out-dir", str(out_dir), "--decoder-layers", "1"] + AUX_FLAGS)
    assert code == cli.EXIT_OK
    with open(out_dir / cli.TRAINLOG_NAME, encoding="utf-8") as f:
        first = json.loads(f.readline())
    assert first["objective"] == "mlm+grammar"
    assert first["aux_weight"] == 1.0
    run = json.loads((out_dir / cli.MANIFEST_NAME).read_text(encoding="utf-8"))
    assert str(gram) in run["input_hashes"]


@pytest.fixture(scope="module")
def eval_artifacts(tmp_path_factory) -> Path:
    """Untrained checkpoint + subwords over the toy-pair vocabulary."""
    art = tmp_path_factory.mktemp("eval_art")
    docs = [cp.Document(id=f"t{i}", text=t, source="unconstrained")
            for i, t in enumerate(ev.toy_vocabulary_sentences())]
    subwords = train_subwords(docs, 250)
    subwords.save(art / cli.SUBWORDS_NAME)
    config = mdl.ModelConfig(vocab_size=250, n_layers=1, n_heads=2, d_model=16,
                             d_ff=32, max_positions=64, seed=9)
    mdl.save_checkpoint(mdl.init_params(config), art / cli.CHECKPOINT_NAME)
    return art


def test_eval_toy_report(tmp_path, eval_artifacts, capsys):
    out_dir = tmp_path / "report"
    code = cli.main(["eval",
                     "--checkpoint", str(eval_artifacts / cli.CHECKPOINT_NAME),
                     "--subwords", str(eval_artifacts / cli.SUBWORDS_NAME),
                     "--toy", "subject-verb", "--n", "30", "--seed", "5",
                     "--out-dir", str(out_dir)])
    assert code == cli.EXIT_OK
    printed = capsys.readouterr().out
    assert "macro average" in printed

    report = ev.EvalReport.from_json((out_dir / "report.json").read_text("utf-8"))
    assert report.model_id == cli.CHECKPOINT_NAME
    assert report.pairs_id == "toy:subject-verb:n30:seed5"
    assert report.pair_count == 30
    assert 0.0 <= report.macro_average <= 1.0
    assert (out_dir / "report.txt").read_text("utf-8") == report.to_text()
    assert (out_dir / cli.MANIFEST_NAME).is_file()


def test_eval_toy_is_deterministic(tmp_path, eval_artifacts):
    outs = []
    for name in ("r1", "r2"):
        out_dir = tmp_path / name
        code = cli.main(["eval",
                         "--checkpoint", str(eval_artifacts / cli.CHECKPOINT_NAME),
                         "--subwords", str(eval_artifacts / cli.SUBWORDS_NAME),
                         "--toy", "determiner-noun", "--n", "20",
                         "--out-dir", str(out_dir)])
        assert code == cli.EXIT_OK
        outs.append((out_dir / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_eval_pairs_file(tmp_path, eval_artifacts):
    pairs = ev.generate_toy_minimal_pairs("subject-verb", 5, seed=2)
    pairs_path = tmp_path / "pairs.jsonl"
    ev.save_minimal_pairs(pairs, pairs_path)

    out_dir = tmp_path / "from_file"
    code = cli.main(["eval",
                     "--checkpoint", str(eval_artifacts / cli.CHECKPOINT_NAME),
                     "--subwords", str(eval_artifacts / cli.SUBWORDS_NAME),
                     "--pairs", str(pairs_path), "--model-id", "probe",
                     "--out-dir", str(out_dir)])
    assert code == cli.EXIT_OK
    report = ev.EvalReport.from_json((out_dir / "report.json").read_text("utf-8"))
    assert report.model_id == "probe"
    assert report.pairs_id == "pairs.jsonl"
    assert report.pair_count == 5


def test_eval_writes_pair_scores(tmp_path, eval_artifacts):
    pairs = ev.generate_toy_minimal_pairs("subject-verb", 12, seed=4)
    pairs += ev.generate_toy_minimal_pairs("determiner-noun", 8, seed=4)
    pairs.insert(5, ev.MinimalPair(" ".join(["cat"] * 70), "the cat sleeps", "long"))
    pairs_path = tmp_path / "pairs.jsonl"
    ev.save_minimal_pairs(pairs, pairs_path)
    out_dir = tmp_path / "scores"
    code = cli.main(["eval",
                     "--checkpoint", str(eval_artifacts / cli.CHECKPOINT_NAME),
                     "--subwords", str(eval_artifacts / cli.SUBWORDS_NAME),
                     "--pairs", str(pairs_path), "--out-dir", str(out_dir)])
    assert code == cli.EXIT_OK
    recs = [json.loads(line)
            for line in (out_dir / "scores.jsonl").read_text("utf-8").splitlines()]
    assert [(r["good"], r["bad"]) for r in recs] == [(p.good, p.bad) for p in pairs]
    assert [r.get("skipped", False) for r in recs] == [k == 5 for k in range(len(pairs))]
    report = json.loads((out_dir / "report.json").read_text("utf-8"))
    counts: dict[str, list[int]] = {}
    for r in recs:
        if not r.get("skipped"):
            c = counts.setdefault(r["phenomenon"], [0, 0])
            c[0] += r["correct"]
            c[1] += 1
    assert counts == {name: [rec["correct"], rec["total"]]
                      for name, rec in report["phenomena"].items()}
    manifest = json.loads((out_dir / cli.MANIFEST_NAME).read_text("utf-8"))
    assert "scores.jsonl" in manifest["artifacts"]


def test_eval_missing_checkpoint_is_data_error(tmp_path, eval_artifacts, capsys):
    code = cli.main(["eval", "--checkpoint", str(tmp_path / "absent.bin"),
                     "--subwords", str(eval_artifacts / cli.SUBWORDS_NAME),
                     "--toy", "subject-verb", "--n", "5",
                     "--out-dir", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_eval_every_pair_over_length_is_data_error(tmp_path, eval_artifacts, capsys):
    long = " ".join(["cat"] * 70)
    pairs_path = tmp_path / "pairs.jsonl"
    ev.save_minimal_pairs([ev.MinimalPair(long, "the cat sleeps", "sv")], pairs_path)
    code = cli.main(["eval", "--checkpoint", str(eval_artifacts / cli.CHECKPOINT_NAME),
                     "--subwords", str(eval_artifacts / cli.SUBWORDS_NAME),
                     "--pairs", str(pairs_path), "--out-dir", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA
    assert "longer than the model's 64 positions" in capsys.readouterr().err


# -- one error path for malformed records ---------------------------------------

_DOC = '{"id": "d1", "source": "unconstrained", "text": "a b c"}'
_PAIR = '{"good": "the cat sleeps", "bad": "the cat sleep", "phenomenon": "sv"}'
_BLIMP = '{"sentence_good": "the cat sleeps", "sentence_bad": "the cat sleep", "UID": "sv"}'


def _subwords_json(vocab: list, merges: list) -> str:
    return json.dumps({"format_version": 1, "kind": "bpe-subwords",
                       "vocab": list(SPECIAL_TOKENS) + vocab, "merges": merges})


def _eval_flags(art: Path, out: str) -> list[str]:
    return ["eval", "--checkpoint", str(art / cli.CHECKPOINT_NAME),
            "--out-dir", str(out)]


# case: (file name, lines, line of the bad record or None for whole-file
# formats, argv for the bad file, the shared corpus and eval artifacts)
BAD_INPUTS = {
    "documents": ("docs.jsonl", [_DOC, '{"source": "unconstrained", "text": 5}'], 2,
                  lambda bad, corpus, art, out: ["corpus", "stats", bad]),
    "triplets": ("trip.jsonl", ['{"sent0": 5, "sent1": "b c", "hard_neg": "d e"}'], 1,
                 lambda bad, corpus, art, out: ["corpus", "flatten-triplets",
                                                "--input", bad, "--out-dir", out]),
    "grammar": ("gram.jsonl", ['{"sentence": "a b", "topic": "t", "tags": []}',
                               '{"sentence": "a b", "topic": "t", "tags": [5]}'], 2,
                lambda bad, corpus, art, out: ["train", "--mlm-gram", bad, "--corpus", corpus,
                                               "--out-dir", out]
                + AUX_FLAGS),
    "pairs": ("pairs.jsonl", [_PAIR, '{"good": ["a"], "bad": "b", "phenomenon": "p"}'], 2,
              lambda bad, corpus, art, out: _eval_flags(art, out)
              + ["--subwords", str(art / cli.SUBWORDS_NAME), "--pairs", bad]),
    "blimp": ("blimp.jsonl", [_BLIMP, '{"sentence_good": "a", "sentence_bad": 5, "UID": "u"}'],
              2, lambda bad, corpus, art, out: _eval_flags(art, out)
              + ["--subwords", str(art / cli.SUBWORDS_NAME), "--pairs", bad, "--blimp"]),
    "subwords": ("subwords.json", ["[]"], None,
                 lambda bad, corpus, art, out: _eval_flags(art, out)
                 + ["--subwords", bad, "--toy", "subject-verb", "--n", "2"]),
    "subwords-vocab": ("subwords.json", [_subwords_json(["a", 7], [])], None,
                       lambda bad, corpus, art, out: _eval_flags(art, out)
                       + ["--subwords", bad, "--toy", "subject-verb", "--n", "2"]),
    "subwords-merges": ("subwords.json", [_subwords_json(["a", "b"], [["a", "b", "c"]])], None,
                        lambda bad, corpus, art, out: _eval_flags(art, out)
                        + ["--subwords", bad, "--toy", "subject-verb", "--n", "2"]),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_malformed_record_is_data_error_naming_file_and_line(
        case, tmp_path, corpus_path, eval_artifacts, capsys):
    name, lines, line, argv = BAD_INPUTS[case]
    bad = tmp_path / name
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = cli.main(argv(str(bad), str(corpus_path), eval_artifacts, str(tmp_path / "o")))
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA, err
    assert f"data error: {bad}: " + (f"line {line}: bad " if line else "") in err
