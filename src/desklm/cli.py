"""Command line (`desklm` or `python -m desklm`): corpus, synth, train, eval.

Every artifact-producing invocation reads its inputs, builds its tokenizer
(`train`), checks every rule of the run (`train` and `eval` ask the library),
then writes a run manifest (resolved flags, input hashes, seed, artifact
names, tool version) into its output directory, and only then trains,
scores or starts its other long-running work, so any run can be replayed
exactly. Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime
error (a failed completion, or a non-finite loss or gradient). Flags become
settings before any input is read: defaults and rules are the library's,
and a setting it rejects is a usage error. A missing input is a data error
with the system's message; a malformed or unreadable one is
"<path>: [line <n>: ]bad <format>: <reason>". Either, and any other data
error a rule finds, exits before anything is written, except in
`synth generate`, which reads responses as it runs.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import logging
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

from . import __version__
from . import corpus as cp
from . import evaluation as ev
from . import model as mdl
from . import synthesis as sy
from . import training as tr
from .subwords import NUM_SPECIALS, SubwordModel, train_subwords

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

CHECKPOINT_NAME = "checkpoint.bin"
SUBWORDS_NAME = "subwords.json"
TRAINLOG_NAME = "trainlog.jsonl"
MANIFEST_NAME = "run_manifest.json"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of sys.exit(2) so main() owns the exit-code contract
    def error(self, message):
        raise UsageError(message)


@contextmanager
def _settings_from_flags():
    """Build settings from flags alone, reading no file: a rule the
    settings break is a usage error."""
    try:
        yield
    except ValueError as e:
        raise UsageError(str(e)) from e


def _given(**flags) -> dict:
    """The flags that were given; an unset one leaves its setting to the
    default of the function or type it is passed to."""
    return {name: value for name, value in flags.items() if value is not None}


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with cp.reading(path, "input"), open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_run_manifest(args: argparse.Namespace, inputs: list[Path], seed: int | None,
                       artifacts: list[str]) -> Path:
    """Hash every input, then write the run manifest of a parsed command (its
    words and every other parsed flag) into its --out-dir, which is returned."""
    words = (args.command, getattr(args, "subcommand", None))
    manifest = {
        "tool": "desklm",
        "tool_version": __version__,
        "subcommand": " ".join(w for w in words if w),
        "config": {k: v for k, v in vars(args).items()
                   if k not in ("func", "command", "subcommand")},
        "input_hashes": {str(p): _sha256_file(p) for p in inputs},
        "seed": seed,
        "artifacts": sorted(artifacts),
    }
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return out_dir


# -- corpus -------------------------------------------------------------------

def cmd_corpus_stats(args) -> int:
    docs = [d for path in args.paths for d in cp.load_source(path, args.kind)]
    totals = cp.source_word_totals(docs)
    for source in sorted(totals):
        print(f"{source}: {totals[source]} words")
    print(f"total: {sum(totals.values())} words in {len(docs)} documents")
    if args.out_dir:
        out = write_run_manifest(args, [Path(p) for p in args.paths], None, ["stats.json"])
        (out / "stats.json").write_text(
            json.dumps({"per_source": totals, "total_words": sum(totals.values()),
                        "documents": len(docs)}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    return EXIT_OK


def cmd_corpus_mix(args) -> int:
    manifest = cp.load_manifest(args.manifest)
    sources = [cp.load_source(e.path, e.kind) for e in manifest.entries]
    inputs = [Path(args.manifest)] + [Path(e.path) for e in manifest.entries]
    out = write_run_manifest(args, inputs, manifest.seed, ["mixed.jsonl"])
    mixed = cp.mix_corpora(manifest, sources)
    cp.save_documents(out / "mixed.jsonl", mixed)
    totals = cp.source_word_totals(mixed)
    for entry in manifest.entries:
        print(f"{entry.kind} ({entry.path}): budget {entry.budget} words")
    for source in sorted(totals):
        print(f"{source}: {totals[source]} words selected")
    print(f"total: {sum(totals.values())} / {manifest.total_budget} words")
    return EXIT_OK


# -- synth --------------------------------------------------------------------

# per figure, the flags its template requires and the others it reads
_FIGURE_FLAGS = {1: (("notion", "topic"), ("alternate", "count")),
                 2: (("notion", "sentence"), ("sentential",)),
                 3: (("word", "pos", "definition"), ("count",))}


def _render_prompt(args) -> str:
    required, optional = _FIGURE_FLAGS[args.figure]
    unread = [name for req, opt in _FIGURE_FLAGS.values() for name in req + opt
              if name not in required + optional and getattr(args, name) not in (None, False)]
    if unread:
        raise UsageError(f"--figure {args.figure} does not read --{unread[0]}")
    if not all(getattr(args, name) for name in required):
        raise UsageError(f"--figure {args.figure} requires --" + " and --".join(required))
    if args.figure == 1:
        spec = sy.NotionSpec(args.notion, args.alternate)
        return sy.render_generation_prompt(spec, args.topic, **_given(count=args.count))
    if args.figure == 2:
        spec = sy.NotionSpec(args.notion, sentential=args.sentential)
        return sy.render_tagging_prompt(args.sentence, spec)
    entry = cp.WiktionaryEntry(args.word, args.pos, args.definition, ())
    return sy.render_wiktionary_example_prompt(entry, **_given(count=args.count))


def cmd_synth_render(args) -> int:
    with _settings_from_flags():
        prompt = _render_prompt(args)
    print(prompt)
    return EXIT_OK


def cmd_synth_generate(args) -> int:
    if args.mock:
        client = sy.MockCompletionClient(directory=args.mock)
    else:
        client = sy.HTTPCompletionClient()
    notions = list(sy.DEFAULT_NOTIONS)
    if args.num_notions is not None:
        if not 1 <= args.num_notions <= len(notions):
            raise UsageError(f"--num-notions must be in [1, {len(notions)}]")
        notions = notions[: args.num_notions]
    counts = dict(per_notion=args.per_notion, tag_count=args.tag_count,
                  tag_notions=args.tag_notions, chunk_size=args.chunk_size)
    with _settings_from_flags():
        sy.check_dataset_counts(**counts)
    out = write_run_manifest(args, [], None, ["dataset.jsonl"])
    examples = sy.generate_notion_dataset(client, notions, **counts)
    cp.save_grammar_examples(out / "dataset.jsonl", examples)
    tagged = sum(1 for e in examples if e.tags)
    print(f"wrote {len(examples)} sentences ({tagged} tagged) to {out / 'dataset.jsonl'}")
    return EXIT_OK


# -- train --------------------------------------------------------------------

def _model_config(args) -> mdl.ModelConfig:
    max_positions = args.max_positions
    if max_positions is None:
        max_positions = max(mdl.MIN_POSITIONS, args.context_size)
    decoder_layers = 2 if args.decoder_layers is None else args.decoder_layers
    # a --subwords model's size is set once it is read; the least valid one stands in
    return mdl.ModelConfig(
        vocab_size=NUM_SPECIALS + 1 if args.vocab_size is None else args.vocab_size,
        n_layers=args.layers,
        n_heads=args.heads,
        d_model=args.d_model,
        d_ff=args.d_ff,
        max_positions=max_positions,
        decoder_layers=0 if args.mlm else decoder_layers,
        dropout=args.dropout,
        seed=args.seed,
    )


def _training_config(args) -> tr.TrainingConfig:
    return tr.TrainingConfig(
        learning_rate=args.learning_rate,
        weight_decay=args.weight_decay,
        warmup_steps=args.warmup_steps,
        batch_size=args.batch_size,
        epochs=args.epochs,
        context_size=args.context_size,
        seed=args.seed,
        **_given(aux_weight=args.aux_weight),
    )


def cmd_train(args) -> int:
    for flag in ("decoder_layers", "aux_weight"):
        if args.mlm and getattr(args, flag) is not None:
            raise UsageError(f"--{flag.replace('_', '-')} is only used with "
                             "--mlm-wikt or --mlm-gram")
    if args.subwords and args.vocab_size is not None:
        raise UsageError("--vocab-size sizes a new tokenizer; --subwords brings its own")
    if not args.subwords and args.vocab_size is None:
        args.vocab_size = 40000
    objective = "definition" if args.mlm_wikt else "grammar" if args.mlm_gram else None
    with _settings_from_flags():
        cfg = _training_config(args)
        model_cfg = _model_config(args)
        tr.check_training(model_cfg, cfg, objective)
    aux_path = args.mlm_wikt or args.mlm_gram
    docs = cp.load_source(args.corpus, args.kind)
    if objective:
        read_aux, build_items = tr.AUX_OBJECTIVES[objective]
        aux_records = read_aux(aux_path)
    subwords = (SubwordModel.load(args.subwords) if args.subwords
                else train_subwords(docs, args.vocab_size))
    run = tr.TrainingRun(docs, subwords, replace(model_cfg, vocab_size=subwords.vocab_size),
                         cfg, objective=objective,
                         aux_items=build_items(aux_records, subwords) if objective else ())
    inputs = [Path(p) for p in (args.corpus, aux_path, args.subwords) if p]
    out = write_run_manifest(args, inputs, args.seed,
                             [CHECKPOINT_NAME, SUBWORDS_NAME, TRAINLOG_NAME])
    subwords.save(out / SUBWORDS_NAME)
    params, tlog = run.train()
    mdl.save_checkpoint(params, out / CHECKPOINT_NAME)
    tlog.write(out / TRAINLOG_NAME)
    final = tlog.steps[-1]["total"] if tlog.steps else float("nan")
    print(f"trained {len(tlog.steps)} steps; final loss {final:.4f}")
    print(f"checkpoint: {out / CHECKPOINT_NAME}")
    return EXIT_OK


# -- eval ---------------------------------------------------------------------

def cmd_eval(args) -> int:
    if args.pairs and (args.n is not None or args.seed is not None):
        raise UsageError("--n and --seed shape --toy pairs only")
    if args.toy and args.blimp:
        raise UsageError("--blimp reads a --pairs file only")
    if args.toy:
        args.n = 500 if args.n is None else args.n
        args.seed = 0 if args.seed is None else args.seed
        with _settings_from_flags():
            pairs = ev.generate_toy_minimal_pairs(args.toy, args.n, args.seed)
        pairs_id = f"toy:{args.toy}:n{args.n}:seed{args.seed}"
    params = mdl.load_checkpoint(args.checkpoint)
    subwords = SubwordModel.load(args.subwords)
    mdl.check_vocab_sizes(params.config, subwords, args.checkpoint, args.subwords)
    if args.pairs:
        loader = ev.load_blimp_pairs if args.blimp else ev.load_minimal_pairs
        pairs = loader(args.pairs)
        pairs_id = Path(args.pairs).name
    ev.scorable_pairs(params, subwords, pairs)
    inputs = [Path(p) for p in (args.checkpoint, args.subwords, args.pairs) if p]
    out = write_run_manifest(args, inputs, args.seed,
                             ["report.json", "report.txt", "scores.jsonl"])
    model_id = args.model_id or Path(args.checkpoint).name
    report = ev.evaluate_suite(params, subwords, pairs, model_id=model_id,
                               pairs_id=pairs_id)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "report.txt").write_text(report.to_text(), encoding="utf-8")
    (out / "scores.jsonl").write_text(report.scores_to_jsonl(), encoding="utf-8")
    print(report.to_text(), end="")
    return EXIT_OK


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="desklm",
                     description="desk-scale masked-LM pretraining laboratory")
    parser.add_argument("--version", action="version", version=f"desklm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # corpus
    p_corpus = sub.add_parser("corpus", help="inspect and mix corpora")
    corpus_sub = p_corpus.add_subparsers(dest="subcommand", required=True)

    p_stats = corpus_sub.add_parser("stats", help="word counts per source")
    p_stats.add_argument("paths", nargs="+")
    p_stats.add_argument("--kind", choices=cp.SOURCE_KINDS,
                         help="label every document (default: each record's own source)")
    p_stats.add_argument("--out-dir", default=None)
    p_stats.set_defaults(func=cmd_corpus_stats)

    p_mix = corpus_sub.add_parser("mix", help="mix sources under word budgets")
    p_mix.add_argument("--manifest", required=True)
    p_mix.add_argument("--out-dir", required=True)
    p_mix.set_defaults(func=cmd_corpus_mix)

    # synth
    p_synth = sub.add_parser("synth", help="prompt rendering and dataset synthesis")
    synth_sub = p_synth.add_subparsers(dest="subcommand", required=True)

    p_render = synth_sub.add_parser("render", help="print a prompt template")
    p_render.add_argument("--figure", type=int, required=True, choices=(1, 2, 3))
    p_render.add_argument("--notion")
    p_render.add_argument("--alternate")
    p_render.add_argument("--sentential", action="store_true")
    p_render.add_argument("--topic")
    p_render.add_argument("--count", type=int, default=None)
    p_render.add_argument("--sentence")
    p_render.add_argument("--word")
    p_render.add_argument("--pos")
    p_render.add_argument("--definition")
    p_render.set_defaults(func=cmd_synth_render)

    p_gen = synth_sub.add_parser("generate", help="synthesize a grammar dataset")
    source = p_gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--mock", help="directory of canned responses")
    source.add_argument("--live", action="store_true",
                        help=f"use the endpoint in ${sy.ENV_API_URL}")
    p_gen.add_argument("--out-dir", required=True)
    p_gen.add_argument("--num-notions", type=int, default=None)
    generate = inspect.signature(sy.generate_notion_dataset).parameters
    for name in ("per_notion", "tag_count", "tag_notions", "chunk_size"):
        p_gen.add_argument("--" + name.replace("_", "-"), type=int,
                           default=generate[name].default)
    p_gen.set_defaults(func=cmd_synth_generate)

    # train
    p_train = sub.add_parser("train", help="pretrain a model")
    objective = p_train.add_mutually_exclusive_group(required=True)
    objective.add_argument("--mlm", action="store_true")
    objective.add_argument("--mlm-wikt", metavar="DICT.csv",
                           help="MLM plus definitions from this dictionary CSV")
    objective.add_argument("--mlm-gram", metavar="GRAMMAR.jsonl",
                           help="MLM plus tags from this tagged-sentence JSONL")
    p_train.add_argument("--corpus", required=True)
    p_train.add_argument("--kind", default="unconstrained", choices=cp.SOURCE_KINDS)
    p_train.add_argument("--subwords", help="reuse an existing subword model")
    p_train.add_argument("--out-dir", required=True)
    p_train.add_argument("--vocab-size", type=int, default=None,
                         help="size of a new tokenizer (default 40000)")
    training = {f.name: f.default for f in fields(tr.TrainingConfig)}
    model = {f.name: f.default for f in fields(mdl.ModelConfig)}
    p_train.add_argument("--context-size", type=int, default=training["context_size"])
    p_train.add_argument("--batch-size", type=int, default=training["batch_size"])
    p_train.add_argument("--epochs", type=int, default=training["epochs"])
    p_train.add_argument("--learning-rate", type=float, default=training["learning_rate"])
    p_train.add_argument("--weight-decay", type=float, default=training["weight_decay"])
    p_train.add_argument("--warmup-steps", type=int, default=training["warmup_steps"])
    p_train.add_argument("--aux-weight", type=float, default=None,
                         help=f"auxiliary loss weight (default {training['aux_weight']})")
    p_train.add_argument("--layers", type=int, default=model["n_layers"])
    p_train.add_argument("--heads", type=int, default=model["n_heads"])
    p_train.add_argument("--d-model", type=int, default=model["d_model"])
    p_train.add_argument("--d-ff", type=int, default=model["d_ff"])
    p_train.add_argument("--decoder-layers", type=int, default=None)
    p_train.add_argument("--dropout", type=float, default=model["dropout"])
    p_train.add_argument("--max-positions", type=int, default=None)
    p_train.add_argument("--seed", type=int, default=training["seed"])
    p_train.set_defaults(func=cmd_train)

    # eval
    p_eval = sub.add_parser("eval", help="minimal-pair evaluation")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--subwords", required=True)
    which = p_eval.add_mutually_exclusive_group(required=True)
    which.add_argument("--pairs", help="pair records, one JSON object per line")
    which.add_argument("--toy", choices=ev.TOY_KINDS)
    p_eval.add_argument("--blimp", action="store_true",
                        help="read --pairs in BLiMP field layout")
    p_eval.add_argument("--n", type=int, default=None, help="--toy pairs (default 500)")
    p_eval.add_argument("--seed", type=int, default=None, help="--toy seed (default 0)")
    p_eval.add_argument("--model-id", default=None)
    p_eval.add_argument("--out-dir", required=True)
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # keep the exit-code contract for anything else
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
