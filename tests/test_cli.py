"""End-to-end checks for the command-line interface.

Every test drives cli.main() in-process so exit codes, stdout, and
artifact files can be asserted cheaply. Training invocations use tiny
models and corpora; nothing here should take more than a few seconds.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from desklm import __version__, cli
from desklm import corpus as cp
from desklm import evaluation as ev
from desklm import model as mdl
from desklm import synthesis as sy
from desklm import training as tr
from desklm.subwords import SPECIAL_TOKENS, SubwordModel, train_subwords

from helpers import make_pseudo_corpus, rewrite_checkpoint_header


# -- exit codes ----------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "desklm" in capsys.readouterr().out


def _run_module(module: str, *argv: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["desklm", "desklm.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path):
    run = _run_module(module, "train", "--mlm", "--corpus", "missing.jsonl",
                      "--out-dir", "o", cwd=tmp_path)
    assert run.returncode == cli.EXIT_DATA, run.stderr
    assert run.stderr.startswith("data error:"), run.stderr
    assert not (tmp_path / "o").exists()


def test_python_dash_m_desklm_version(tmp_path):
    run = _run_module("desklm", "--version", cwd=tmp_path)
    assert (run.returncode, run.stdout) == (0, f"desklm {__version__}\n")


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

def _readme_blocks(language: str) -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"```{language}\n(.*?)```", readme, re.DOTALL)


def _readme_commands() -> list[list[str]]:
    """Every `desklm ...` line of README's sh blocks, continuations joined
    and leading VAR=value assignments dropped."""
    commands = []
    for block in _readme_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            while words and re.match(r"[A-Za-z_][A-Za-z0-9_]*=", words[0]):
                words.pop(0)
            if words and words[0] == "desklm":
                commands.append(words[1:])
    return commands


def test_readme_commands_parse(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        cli.build_parser().parse_args(argv)
    # run through the flag rules too: in an empty directory with no endpoint
    # set, every input is missing, so a command exits 0 (render), 2 or 3
    # without training anything or touching the network, but never 1
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(sy.ENV_API_URL, raising=False)
    monkeypatch.delenv(sy.ENV_API_KEY, raising=False)
    for argv in commands:
        code = cli.main(argv)
        assert code != cli.EXIT_USAGE, (argv, capsys.readouterr().err)


def _missing_library_names(block: str) -> list[str]:
    """Every `module.attr` of a Python block, for a module the block
    imports `from desklm`, that the module does not define."""
    tree = ast.parse(block)
    modules = {alias.asname or alias.name: importlib.import_module(f"desklm.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "desklm"
               for alias in node.names}
    return [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)]


def test_readme_library_example_names_only_existing_api():
    blocks = _readme_blocks("python")
    assert blocks
    for block in blocks:
        assert _missing_library_names(block) == []


def test_library_name_check_catches_a_removed_name():
    block = ("from desklm import evaluation, model\n"
             "ok = evaluation.score_pair(model.init_params(cfg), sw, pair)\n")
    assert _missing_library_names(block) == ["evaluation.score_pair"]


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


def test_corpus_mix_negative_seed_is_data_error_before_the_run_manifest(tmp_path, capsys):
    plain = tmp_path / "plain.jsonl"
    _write_documents(plain, ["alpha beta gamma"])
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"total_budget": 10, "seed": -3, "entries": [
        {"path": str(plain), "kind": "unconstrained", "budget": 5}]}), encoding="utf-8")
    code = cli.main(["corpus", "mix", "--manifest", str(manifest),
                     "--out-dir", str(tmp_path / "mixed")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"{manifest}: bad manifest: seed must be non-negative" in err
    assert not (tmp_path / "mixed").exists()


@pytest.mark.parametrize("field, value", [
    ("budget", True), ("total_budget", 10.9), ("seed", 1.5), ("budget", "12")])
def test_corpus_mix_manifest_numbers_must_be_json_integers(field, value, tmp_path, capsys):
    plain = tmp_path / "plain.jsonl"
    _write_documents(plain, ["alpha beta gamma"])
    obj = {"total_budget": 10, "seed": 0, "entries": [
        {"path": str(plain), "kind": "unconstrained", "budget": 5}]}
    (obj["entries"][0] if field == "budget" else obj)[field] = value
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(obj), encoding="utf-8")
    code = cli.main(["corpus", "mix", "--manifest", str(manifest),
                     "--out-dir", str(tmp_path / "mixed")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA, err
    assert err.startswith(f"data error: {manifest}: bad manifest: "
                          f"field '{field}' must be an integer, got {type(value).__name__}")
    assert not (tmp_path / "mixed").exists()


def test_corpus_stats_of_a_mix_shows_its_sources(tmp_path, capsys):
    plain = tmp_path / "plain.jsonl"
    _write_documents(plain, ["one two three four five", "six seven eight nine ten eleven"])
    trip = tmp_path / "trip.jsonl"
    cp.save_triplets(trip, [cp.TripletExample("a b c", "d e f", "g h i j")])
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"total_budget": 30, "entries": [
        {"path": str(plain), "kind": "unconstrained", "budget": 20},
        {"path": str(trip), "kind": "triplet", "budget": 10}]}), encoding="utf-8")
    assert cli.main(["corpus", "mix", "--manifest", str(manifest),
                     "--out-dir", str(tmp_path / "mixed")]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "triplet: 10 words selected" in out
    assert "unconstrained: 11 words selected" in out

    mixed = str(tmp_path / "mixed" / "mixed.jsonl")
    assert cli.main(["corpus", "stats", mixed]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "triplet: 10 words\n" in out
    assert "unconstrained: 11 words\n" in out
    # --kind still labels every document
    assert cli.main(["corpus", "stats", mixed, "--kind", "grammar_gen"]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("grammar_gen: 21 words\n")


def test_corpus_stats_record_without_source_is_unconstrained(tmp_path, capsys):
    docs = tmp_path / "docs.jsonl"
    docs.write_text('{"text": "a b c"}\n{"source": "triplet", "text": "d e"}\n',
                    encoding="utf-8")
    assert cli.main(["corpus", "stats", str(docs)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "triplet: 2 words\n" in out
    assert "unconstrained: 3 words\n" in out


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


@pytest.mark.parametrize("figure", [
    ["--figure", "1", "--notion", "common noun", "--topic", "physics"],
    ["--figure", "3", "--word", "prism", "--pos", "noun", "--definition", "a solid"],
])
def test_render_count_zero_is_usage_error(capsys, figure):
    code = cli.main(["synth", "render", "--count", "0"] + figure)
    assert code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "count must be >= 1" in captured.err and captured.out == ""


_FIGURES = {1: ["--notion", "common noun", "--topic", "physics"],
            2: ["--notion", "common noun", "--sentence", "The cat sleeps."],
            3: ["--word", "prism", "--pos", "noun", "--definition", "a solid"]}


@pytest.mark.parametrize("figure, unread, flags", [
    (1, "--sentential", ["--sentential"]),
    (1, "--sentence", ["--sentence", "The cat sleeps."]),
    (1, "--word", ["--word", "prism"]),
    (2, "--alternate", ["--alternate", "proper noun"]),
    (2, "--count", ["--count", "3"]),
    (2, "--topic", ["--count", "0", "--topic", "t", "--word", "w"]),
    (3, "--notion", ["--notion", "common noun"]),
    (3, "--sentential", ["--sentential"]),
    (3, "--topic", ["--topic", "physics"]),
])
def test_render_flag_the_figure_does_not_read_is_usage_error(capsys, figure, unread, flags):
    code = cli.main(["synth", "render", "--figure", str(figure)] + _FIGURES[figure] + flags)
    assert code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage error: --figure {figure} does not read {unread}\n"
    assert captured.out == ""


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


def test_synth_generate_mock_not_a_directory_is_data_error_before_manifest(tmp_path,
                                                                            capsys):
    code = cli.main(["synth", "generate", "--mock", str(tmp_path / "nomock"),
                     "--out-dir", str(tmp_path / "g")])
    assert code == cli.EXIT_DATA
    assert (capsys.readouterr().err == f"data error: {tmp_path / 'nomock'}: "
            "bad canned responses: not a directory\n")
    assert not (tmp_path / "g").exists()


def test_synth_generate_num_notions_bounds(tmp_path, capsys):
    code = cli.main(["synth", "generate", "--mock", str(tmp_path),
                     "--out-dir", str(tmp_path / "o"), "--num-notions", "0"])
    assert code == cli.EXIT_USAGE
    assert "--num-notions" in capsys.readouterr().err


# the count rules are synthesis.check_dataset_counts', reported in its words
@pytest.mark.parametrize("flags, message", [
    (["--chunk-size", "0"], "chunk_size must be >= 1, got 0"),
    (["--per-notion", "-2", "--tag-count", "-3"], "per_notion must be >= 0, got -2"),
    (["--tag-count", "-3"], "tag_count must be >= 0, got -3"),
    (["--tag-notions", "-1"], "tag_notions must be >= 0, got -1"),
    (["--retries", "0"], "unrecognized arguments: --retries"),
    (["--per-notion", "2", "--tag-count", "5"], "tag_count 5 exceeds per_notion 2"),
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


def _without_vocab_size(flags: list[str]) -> list[str]:
    i = flags.index("--vocab-size")
    return flags[:i] + flags[i + 2:]


def test_train_reuses_existing_subwords(tmp_path, corpus_path, mlm_run):
    out_dir = tmp_path / "reuse"
    code = cli.main(["train", "--mlm", "--corpus", str(corpus_path),
                     "--subwords", str(mlm_run / cli.SUBWORDS_NAME),
                     "--out-dir", str(out_dir)] + _without_vocab_size(TRAIN_FLAGS))
    assert code == cli.EXIT_OK
    assert ((out_dir / cli.SUBWORDS_NAME).read_bytes()
            == (mlm_run / cli.SUBWORDS_NAME).read_bytes())
    assert ((out_dir / cli.CHECKPOINT_NAME).read_bytes()
            == (mlm_run / cli.CHECKPOINT_NAME).read_bytes())
    # the manifest records no size the run did not use; the train log has the real one
    run = json.loads((out_dir / cli.MANIFEST_NAME).read_text(encoding="utf-8"))
    assert run["config"]["vocab_size"] is None
    with open(out_dir / cli.TRAINLOG_NAME, encoding="utf-8") as f:
        assert json.loads(f.readline())["model_config"]["vocab_size"] == 80


def test_train_vocab_size_with_subwords_is_usage_error(tmp_path, corpus_path, mlm_run,
                                                       monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("read an input before checking the flags")
    monkeypatch.setattr(cp, "load_source", never)
    monkeypatch.setattr(cli.SubwordModel, "load", never)
    code = cli.main(["train", "--mlm", "--corpus", str(corpus_path),
                     "--subwords", str(mlm_run / cli.SUBWORDS_NAME), "--vocab-size", "500",
                     "--out-dir", str(tmp_path / "o")] + _without_vocab_size(TRAIN_FLAGS))
    assert code == cli.EXIT_USAGE
    assert "--vocab-size" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, message", [
    (["--epochs", "5", "--learning-rate", "1e6"], "non-finite gradient"),
    (["--epochs", "2", "--learning-rate", "1e300"], "loss is not finite"),
])
def test_diverged_training_is_runtime_error(tmp_path, corpus_path, capsys, flags, message):
    # with NumPy's overflow warnings on, the warnings filter would raise
    # before the loss or gradient check saw a non-finite value
    with np.errstate(all="ignore"):
        code = cli.main(["train", "--mlm", "--corpus", str(corpus_path),
                         "--out-dir", str(tmp_path / "o"), "--warmup-steps", "1"]
                        + TINY_MODEL_FLAGS + flags)
    err = capsys.readouterr().err
    assert code == cli.EXIT_RUNTIME, err
    assert f"runtime error: {message}" in err


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
    assert not any(name.startswith("dec.") for name in params)

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
    # giving the flag to --mlm is the CLI's rule; a zero count breaks training's
    expected = ("--decoder-layers is only used with" if "--mlm" in flags
                else "multi-objective training requires decoder_layers > 0")
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, message", [
    (["--heads", "3"], "divisible by n_heads"),
    (["--batch-size", "0"], "batch_size"),
    # flags the run would otherwise override or drop
    (["--max-positions", "32"], "max_positions must be at least 64"),
    (["--max-positions", "100", "--context-size", "128"],
     "max_positions is smaller than context_size: 100 < 128"),
    (["--aux-weight", "5"], "--aux-weight is only used with"),
    (["--seed", "-1"], "seed must be non-negative"),
    (["--max-positions", "0"], "max_positions must be at least 64"),
    (["--learning-rate", "nan"], "learning_rate must be finite"),
    (["--weight-decay", "inf"], "weight_decay must be finite"),
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


def test_non_finite_aux_weight_is_usage_error_before_bpe(tmp_path, corpus_path,
                                                        monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("trained subwords before checking the flags")
    monkeypatch.setattr(cli, "train_subwords", never)
    code = cli.main(["train", "--mlm-gram", "g.jsonl", "--corpus", str(corpus_path),
                     "--out-dir", str(tmp_path / "o"), "--aux-weight", "nan"])
    assert code == cli.EXIT_USAGE
    assert "aux_weight must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_parsed_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    train = parser.parse_args(["train", "--mlm", "--corpus", "c", "--out-dir", "o"])
    training, model = tr.TrainingConfig(), mdl.ModelConfig(vocab_size=cli.NUM_SPECIALS + 1)
    assert (train.context_size, train.batch_size, train.epochs, train.learning_rate,
            train.weight_decay, train.warmup_steps, train.seed) == (
        training.context_size, training.batch_size, training.epochs,
        training.learning_rate, training.weight_decay, training.warmup_steps, training.seed)
    assert (train.layers, train.heads, train.d_model, train.d_ff, train.dropout,
            train.seed) == (model.n_layers, model.n_heads, model.d_model, model.d_ff,
                            model.dropout, model.seed)
    # unset, these two resolve to the config's own default
    assert train.aux_weight is None and train.max_positions is None
    assert cli._training_config(train).aux_weight == training.aux_weight
    assert cli._model_config(train).max_positions == model.max_positions

    generate = parser.parse_args(["synth", "generate", "--mock", "m", "--out-dir", "o"])
    signature = inspect.signature(sy.generate_notion_dataset).parameters
    for name in ("per_notion", "tag_count", "tag_notions", "chunk_size"):
        assert getattr(generate, name) == signature[name].default, name


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

    report = json.loads((out_dir / "report.json").read_text("utf-8"))
    assert report["model"] == cli.CHECKPOINT_NAME
    assert report["pairs"] == "toy:subject-verb:n30:seed5"
    assert report["pair_count"] == 30
    assert 0.0 <= report["macro_average"] <= 1.0
    assert (out_dir / "report.txt").read_text("utf-8") == printed
    run = json.loads((out_dir / cli.MANIFEST_NAME).read_text("utf-8"))
    assert (run["seed"], run["config"]["n"]) == (5, 30)


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
    # --toy's seed defaults to 0, and the manifest says so
    assert json.loads(outs[0])["pairs"] == "toy:determiner-noun:n20:seed0"
    assert json.loads((out_dir / cli.MANIFEST_NAME).read_text("utf-8"))["seed"] == 0


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
    report = json.loads((out_dir / "report.json").read_text("utf-8"))
    assert report["model"] == "probe"
    assert report["pairs"] == "pairs.jsonl"
    assert report["pair_count"] == 5
    # --seed and --n shape --toy pairs only, so a --pairs run records neither
    run = json.loads((out_dir / cli.MANIFEST_NAME).read_text("utf-8"))
    assert run["seed"] is None and run["config"]["n"] is None


@pytest.mark.parametrize("flags, message", [
    (["--pairs", "p.jsonl", "--seed", "1", "--n", "7"], "--n and --seed shape --toy pairs"),
    (["--pairs", "p.jsonl", "--seed", "2"], "--n and --seed shape --toy pairs"),
    (["--pairs", "p.jsonl", "--blimp", "--n", "7"], "--n and --seed shape --toy pairs"),
    (["--toy", "subject-verb", "--blimp"], "--blimp reads a --pairs file only"),
    (["--toy", "subject-verb", "--n", "0"], "n must be >= 1"),
    (["--toy", "subject-verb", "--seed", "-1"], "seed must be non-negative"),
    # one pair more than the toy grammar holds
    (["--toy", "subject-verb", "--n", "34561"], "n must be at most 34560"),
    (["--toy", "determiner-noun", "--n", "69121"], "n must be at most 69120"),
])
def test_eval_flag_misuse_is_usage_error_before_manifest(tmp_path, eval_artifacts,
                                                         monkeypatch, capsys,
                                                         flags, message):
    def never(*args, **kwargs):
        raise AssertionError("loaded the checkpoint before checking the flags")
    monkeypatch.setattr(mdl, "load_checkpoint", never)
    code = cli.main(["eval", "--checkpoint", str(eval_artifacts / cli.CHECKPOINT_NAME),
                     "--subwords", str(eval_artifacts / cli.SUBWORDS_NAME),
                     "--out-dir", str(tmp_path / "o")] + flags)
    assert code == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("model_size, tokenizer_size", [(120, 80), (80, 120)])
def test_eval_tokenizer_not_matching_checkpoint_is_data_error(tmp_path, capsys,
                                                              model_size, tokenizer_size):
    checkpoint, subwords = tmp_path / "model.bin", tmp_path / "sw.json"
    config = mdl.ModelConfig(vocab_size=model_size, n_layers=1, n_heads=2, d_model=16,
                             d_ff=32, seed=1)
    mdl.save_checkpoint(mdl.init_params(config), checkpoint)
    words = [f"w{k}" for k in range(tokenizer_size - len(SPECIAL_TOKENS))]
    SubwordModel(list(SPECIAL_TOKENS) + words, []).save(subwords)
    code = cli.main(["eval", "--checkpoint", str(checkpoint), "--subwords", str(subwords),
                     "--toy", "subject-verb", "--n", "2", "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA, err
    assert (f"data error: {checkpoint} is a model of {model_size} tokens but {subwords} "
            f"has {tokenizer_size}") in err
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("field, value", [("n_heads", 2.0), ("vocab_size", 250.0),
                                          ("n_layers", True)])
def test_eval_checkpoint_with_non_integer_size_is_data_error(tmp_path, eval_artifacts,
                                                             capsys, field, value):
    checkpoint = tmp_path / "model.bin"
    checkpoint.write_bytes((eval_artifacts / cli.CHECKPOINT_NAME).read_bytes())
    rewrite_checkpoint_header(checkpoint, lambda header: header["config"].update({field: value}))
    code = cli.main(["eval", "--checkpoint", str(checkpoint),
                     "--subwords", str(eval_artifacts / cli.SUBWORDS_NAME),
                     "--toy", "subject-verb", "--n", "2", "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA, err
    assert err == (f"data error: {checkpoint}: bad checkpoint: "
                   f"{field} must be an integer, got {value!r}\n")
    assert not (tmp_path / "o" / "report.json").exists()


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


# -- run manifests ----------------------------------------------------------------

def _manifest_run_flags(command: str, tmp_path: Path, corpus_path: Path,
                        art: Path) -> list[str]:
    """Flags for a small successful run of `command`, after writing its inputs."""
    if command == "corpus stats":
        return [str(corpus_path)]
    if command == "corpus mix":
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"total_budget": 30, "entries": [
            {"path": str(corpus_path), "kind": "unconstrained", "budget": 30}]}),
            encoding="utf-8")
        return ["--manifest", str(manifest)]
    if command == "synth generate":
        _canned_default_notion(tmp_path, per_notion=2, chunk=2, tag_count=1)
        return ["--mock", str(tmp_path), "--num-notions", "1", "--per-notion", "2",
                "--chunk-size", "2", "--tag-count", "1", "--tag-notions", "1"]
    if command == "train":
        return ["--mlm", "--corpus", str(corpus_path)] + TRAIN_FLAGS
    return ["--checkpoint", str(art / cli.CHECKPOINT_NAME),
            "--subwords", str(art / cli.SUBWORDS_NAME), "--toy", "subject-verb", "--n", "2"]


@pytest.mark.parametrize("command", ["corpus stats", "corpus mix", "synth generate", "train",
                                     "eval"])
def test_run_manifest_records_the_parsed_command(command, tmp_path, corpus_path,
                                                 eval_artifacts, capsys):
    out = tmp_path / "out"
    argv = (command.split() + _manifest_run_flags(command, tmp_path, corpus_path,
                                                  eval_artifacts)
            + ["--out-dir", str(out)])
    assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err
    run = json.loads((out / cli.MANIFEST_NAME).read_text("utf-8"))
    assert run["subcommand"] == command
    assert not {"func", "command", "subcommand"} & run["config"].keys()
    parsed = {k: v for k, v in vars(cli.build_parser().parse_args(argv)).items()
              if k not in ("func", "command", "subcommand")}
    assert run["config"].keys() == parsed.keys()
    # a flag parsed as None may be filled in by the command (--vocab-size, --n, --seed)
    assert {k: run["config"][k] for k, v in parsed.items() if v is not None} == {
        k: v for k, v in parsed.items() if v is not None}


# -- one error path for malformed records ---------------------------------------

_DOC = '{"id": "d1", "source": "unconstrained", "text": "a b c"}'
_PAIR = '{"good": "the cat sleeps", "bad": "the cat sleep", "phenomenon": "sv"}'
_BLIMP = '{"sentence_good": "the cat sleeps", "sentence_bad": "the cat sleep", "UID": "sv"}'


def _subwords_json(vocab: list, merges: list) -> str:
    return json.dumps({"format_version": 1, "kind": "bpe-subwords",
                       "vocab": list(SPECIAL_TOKENS) + vocab, "merges": merges})


# "ab" is what merge 0 makes, and no token of the vocab
_MERGE_NOT_IN_VOCAB = _subwords_json(["a", "b", " ", " a"], [["a", "b"]])


def _eval_flags(art: Path, out: str) -> list[str]:
    return ["eval", "--checkpoint", str(art / cli.CHECKPOINT_NAME),
            "--out-dir", str(out)]


# case: (file name, lines, line of the bad record or None for whole-file
# formats, argv for the bad file, the shared corpus and eval artifacts)
BAD_INPUTS = {
    "documents": ("docs.jsonl", [_DOC, '{"source": "unconstrained", "text": 5}'], 2,
                  lambda bad, corpus, art, out: ["corpus", "stats", bad]),
    "triplets": ("trip.jsonl", ['{"sent0": 5, "sent1": "b c", "hard_neg": "d e"}'], 1,
                 lambda bad, corpus, art, out: ["corpus", "stats", bad, "--kind", "triplet",
                                                "--out-dir", out]),
    "triplets-txt": ("trip.txt", ["a b", "", "c d"], 1,
                     lambda bad, corpus, art, out: ["corpus", "stats", bad, "--kind", "triplet",
                                                    "--out-dir", out]),
    "mix-source": ("source.jsonl", [_DOC, '{"source": "unconstrained", "text": 5}'], 2,
                   lambda bad, corpus, art, out: ["corpus", "mix", "--manifest",
                                                  _mix_manifest(Path(out).parent, bad),
                                                  "--out-dir", out]),
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
    "subwords-merge-product": ("subwords.json", [_MERGE_NOT_IN_VOCAB], None,
                               lambda bad, corpus, art, out: _eval_flags(art, out)
                               + ["--subwords", bad, "--toy", "subject-verb", "--n", "2"]),
    "train-subwords-merge-product": ("subwords.json", [_MERGE_NOT_IN_VOCAB], None,
                                     lambda bad, corpus, art, out: [
                                         "train", "--mlm", "--corpus", corpus, "--subwords",
                                         bad, "--out-dir", out] + _NO_VOCAB_FLAGS),
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
    assert not (tmp_path / "o").exists()


# -- one fault table for every input a command reads ----------------------------

_NO_VOCAB_FLAGS = TINY_MODEL_FLAGS[2:] + ["--epochs", "1", "--warmup-steps", "1"]

# case: (file name, argv for that file, the shared corpus and eval artifacts)
INPUT_FILES = {
    "stats-txt": ("docs.txt", lambda bad, corpus, art, out: ["corpus", "stats", bad]),
    "stats-jsonl": ("docs.jsonl", lambda bad, corpus, art, out: ["corpus", "stats", bad]),
    "stats-wiktionary": ("dict.csv", lambda bad, corpus, art, out: [
        "corpus", "stats", bad, "--kind", "wiktionary"]),
    "mix-manifest": ("manifest.json", lambda bad, corpus, art, out: [
        "corpus", "mix", "--manifest", bad, "--out-dir", out]),
    "train-subwords": ("subwords.json", lambda bad, corpus, art, out: [
        "train", "--mlm", "--corpus", corpus, "--subwords", bad, "--out-dir", out]
        + _NO_VOCAB_FLAGS),
    "train-mlm-wikt": ("dict.csv", lambda bad, corpus, art, out: [
        "train", "--mlm-wikt", bad, "--corpus", corpus, "--out-dir", out] + AUX_FLAGS),
    "train-mlm-gram": ("gram.jsonl", lambda bad, corpus, art, out: [
        "train", "--mlm-gram", bad, "--corpus", corpus, "--out-dir", out] + AUX_FLAGS),
    "eval-checkpoint": ("model.bin", lambda bad, corpus, art, out: [
        "eval", "--checkpoint", bad, "--subwords", str(art / cli.SUBWORDS_NAME),
        "--toy", "subject-verb", "--n", "2", "--out-dir", out]),
    "eval-pairs": ("pairs.jsonl", lambda bad, corpus, art, out: _eval_flags(art, out)
                   + ["--subwords", str(art / cli.SUBWORDS_NAME), "--pairs", bad]),
    "eval-blimp": ("blimp.jsonl", lambda bad, corpus, art, out: _eval_flags(art, out)
                   + ["--subwords", str(art / cli.SUBWORDS_NAME), "--pairs", bad, "--blimp"]),
}


@pytest.mark.parametrize("fault", ["non-utf8", "directory"])
@pytest.mark.parametrize("case", sorted(INPUT_FILES))
def test_unreadable_input_is_data_error_naming_the_file_once(
        case, fault, tmp_path, corpus_path, eval_artifacts, capsys):
    name, argv = INPUT_FILES[case]
    bad = tmp_path / name
    if fault == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"word,pos,definition\n\xff\xfe,noun,x\n")
    code = cli.main(argv(str(bad), str(corpus_path), eval_artifacts, str(tmp_path / "o")))
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA, err
    assert err.startswith(f"data error: {bad}: "), err
    assert err.count(str(bad)) == 1, err
    assert not (tmp_path / "o").exists()


# case: argv naming a missing input, given that file and the eval artifacts
MISSING_INPUTS = {
    "train-corpus": lambda missing, art, out: [
        "train", "--mlm", "--corpus", missing, "--out-dir", out] + TRAIN_FLAGS,
    "eval-checkpoint": lambda missing, art, out: [
        "eval", "--checkpoint", missing, "--subwords", str(art / cli.SUBWORDS_NAME),
        "--toy", "subject-verb", "--n", "2", "--out-dir", out],
    "mix-source": lambda missing, art, out: [
        "corpus", "mix", "--manifest", _mix_manifest(Path(out).parent, missing),
        "--out-dir", out],
}


def _mix_manifest(directory: Path, source: str) -> str:
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps({"total_budget": 10, "seed": 1, "entries": [
        {"path": source, "kind": "unconstrained", "budget": 10}]}), encoding="utf-8")
    return str(manifest)


@pytest.mark.parametrize("case", sorted(MISSING_INPUTS))
def test_missing_input_is_data_error_before_the_out_dir(case, tmp_path, eval_artifacts,
                                                        capsys):
    missing = tmp_path / "missing.jsonl"
    code = cli.main(MISSING_INPUTS[case](str(missing), eval_artifacts, str(tmp_path / "o")))
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA, err
    assert err == f"data error: [Errno 2] No such file or directory: '{missing}'\n"
    assert not (tmp_path / "o").exists()


def _dictionary_without_headword(directory: Path) -> str:
    path = directory / "dict.csv"
    path.write_text("word,pos,definition,example_1\n"
                    "zorp,noun,a kind of tool,The cat was used twice.\n", encoding="utf-8")
    return str(path)


def _pairs_over_length(directory: Path) -> str:
    path = directory / "pairs.jsonl"
    ev.save_minimal_pairs([ev.MinimalPair(" ".join(["cat"] * 70), "the cat sleeps", "sv")],
                          path)
    return str(path)


# case: (argv, given a directory for its inputs, the shared corpus and eval
# artifacts; the data error a rule of the run finds once every input is read)
FOUND_BEFORE_WRITING = {
    "schedule": (lambda d, corpus, art, out: [
        "train", "--mlm", "--corpus", corpus, "--out-dir", out, "--epochs", "2"]
        + TINY_MODEL_FLAGS, "data error: total_steps (18) must exceed warmup_steps (4000)"),
    "no-usable-items": (lambda d, corpus, art, out: [
        "train", "--mlm-wikt", _dictionary_without_headword(d), "--corpus", corpus,
        "--out-dir", out] + AUX_FLAGS, "data error: no usable auxiliary items"),
    "vocab-size": (lambda d, corpus, art, out: [
        "train", "--mlm", "--corpus", corpus, "--out-dir", out, "--vocab-size", "5000"]
        + _NO_VOCAB_FLAGS, "data error: corpus supports a vocabulary of at most"),
    "pairs-over-length": (lambda d, corpus, art, out: _eval_flags(art, out) + [
        "--subwords", str(art / cli.SUBWORDS_NAME), "--pairs", _pairs_over_length(d)],
        "data error: all 1 pairs have a sentence longer than the model's 64 positions"),
}


@pytest.mark.parametrize("case", sorted(FOUND_BEFORE_WRITING))
def test_data_error_of_a_run_is_found_before_the_out_dir(case, tmp_path, corpus_path,
                                                         eval_artifacts, monkeypatch,
                                                         capsys):
    def never(*args, **kwargs):
        raise AssertionError("ran the encoder before checking the run")
    monkeypatch.setattr(mdl, "encoder_forward", never)
    argv, message = FOUND_BEFORE_WRITING[case]
    code = cli.main(argv(tmp_path, str(corpus_path), eval_artifacts, str(tmp_path / "o")))
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA, err
    assert message in err
    assert not (tmp_path / "o").exists()
