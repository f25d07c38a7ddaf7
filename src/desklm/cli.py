"""Command-line entry point: corpus, synth, train, and eval subcommands.

Every artifact-producing invocation writes a run manifest (resolved
flags, input file hashes, seed, artifact names, tool version) into the
output directory before long-running work starts, so any run can be
replayed exactly. Exit codes are stable: 0 success, 1 usage error,
2 data error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from . import corpus as cp
from . import evaluation as ev
from . import model as mdl
from . import synthesis as sy
from . import training as tr
from .subwords import SubwordModel, train_subwords

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


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_run_manifest(out_dir: Path, subcommand: str, config: dict,
                       inputs: list[Path], seed: int | None,
                       artifacts: list[str]) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool": "desklm",
        "tool_version": __version__,
        "subcommand": subcommand,
        "config": config,
        "input_hashes": {str(p): _sha256_file(p) for p in inputs if p.is_file()},
        "seed": seed,
        "artifacts": sorted(artifacts),
    }
    path = out_dir / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _resolved_config(args: argparse.Namespace) -> dict:
    cfg = {}
    for k, v in sorted(vars(args).items()):
        if k in ("func", "command", "subcommand"):
            continue
        cfg[k] = str(v) if isinstance(v, Path) else v
    return cfg


# -- corpus -------------------------------------------------------------------

def cmd_corpus_stats(args) -> int:
    docs = []
    for path in args.paths:
        docs.extend(cp.load_source(path, args.kind))
    totals = cp.source_word_totals(docs)
    for source in sorted(totals):
        print(f"{source}: {totals[source]} words")
    print(f"total: {sum(totals.values())} words in {len(docs)} documents")
    if args.out_dir:
        out = Path(args.out_dir)
        write_run_manifest(out, "corpus stats", _resolved_config(args),
                           [Path(p) for p in args.paths], None, ["stats.json"])
        (out / "stats.json").write_text(
            json.dumps({"per_source": totals, "total_words": sum(totals.values()),
                        "documents": len(docs)}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    return EXIT_OK


def cmd_corpus_mix(args) -> int:
    manifest = cp.load_manifest(args.manifest)
    out = Path(args.out_dir)
    inputs = [Path(args.manifest)] + [Path(e.path) for e in manifest.entries]
    write_run_manifest(out, "corpus mix", _resolved_config(args), inputs,
                       manifest.seed, ["mixed.jsonl"])
    mixed = cp.mix_from_manifest(manifest)
    cp.save_documents(out / "mixed.jsonl", mixed)
    totals = cp.source_word_totals(mixed)
    for entry in manifest.entries:
        print(f"{entry.kind} ({entry.path}): budget {entry.budget} words")
    for source in sorted(totals):
        print(f"{source}: {totals[source]} words selected")
    print(f"total: {sum(totals.values())} / {manifest.total_budget} words")
    return EXIT_OK


def cmd_corpus_flatten(args) -> int:
    out = Path(args.out_dir)
    write_run_manifest(out, "corpus flatten-triplets", _resolved_config(args),
                       [Path(args.input)], None, ["flattened.jsonl"])
    docs = cp.flatten_triplets(cp.load_triplets(args.input))
    cp.save_documents(out / "flattened.jsonl", docs)
    print(f"wrote {len(docs)} documents from {len(docs) // 3} triplets")
    return EXIT_OK


# -- synth --------------------------------------------------------------------

def _render_prompt(args) -> str:
    if args.figure == 1:
        if not args.notion or not args.topic:
            raise UsageError("--figure 1 requires --notion and --topic")
        spec = sy.NotionSpec(args.notion, args.alternate, args.sentential)
        return sy.render_generation_prompt(spec, args.topic, args.count or 500)
    if args.figure == 2:
        if not args.notion or not args.sentence:
            raise UsageError("--figure 2 requires --notion and --sentence")
        spec = sy.NotionSpec(args.notion, args.alternate, args.sentential)
        return sy.render_tagging_prompt(args.sentence, spec)
    if not args.word or not args.pos or not args.definition:
        raise UsageError("--figure 3 requires --word, --pos, and --definition")
    entry = cp.WiktionaryEntry(args.word, args.pos, args.definition, ())
    return sy.render_wiktionary_example_prompt(entry, args.count or 3)


def cmd_synth_render(args) -> int:
    print(_render_prompt(args))
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
    if args.chunk_size < 1:
        raise UsageError("--chunk-size must be >= 1")
    for flag in ("per_notion", "tag_count", "tag_notions"):
        if getattr(args, flag) < 0:
            raise UsageError(f"--{flag.replace('_', '-')} must be >= 0")
    out = Path(args.out_dir)
    write_run_manifest(out, "synth generate", _resolved_config(args), [],
                       None, ["dataset.jsonl"])
    examples = sy.generate_notion_dataset(
        client, notions, per_notion=args.per_notion, tag_count=args.tag_count,
        tag_notions=args.tag_notions, chunk_size=args.chunk_size)
    cp.save_grammar_examples(out / "dataset.jsonl", examples)
    tagged = sum(1 for e in examples if e.tags)
    print(f"wrote {len(examples)} sentences ({tagged} tagged) to {out / 'dataset.jsonl'}")
    return EXIT_OK


# -- train --------------------------------------------------------------------

def _model_config(args) -> mdl.ModelConfig:
    return mdl.ModelConfig(
        vocab_size=args.vocab_size,
        n_layers=args.layers,
        n_heads=args.heads,
        d_model=args.d_model,
        d_ff=args.d_ff,
        max_positions=args.max_positions or max(64, args.context_size),
        decoder_layers=0 if args.mlm else args.decoder_layers or 2,
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
        aux_weight=1.0 if args.aux_weight is None else args.aux_weight,
    )


def cmd_train(args) -> int:
    if args.decoder_layers is not None and (args.mlm or args.decoder_layers < 1):
        raise UsageError("--decoder-layers takes a count >= 1 and only with "
                         "--mlm-wikt or --mlm-gram")
    if args.aux_weight is not None and args.mlm:
        raise UsageError("--aux-weight is only used with --mlm-wikt or --mlm-gram")
    try:
        cfg = _training_config(args)
        model_cfg = _model_config(args)
    except ValueError as e:
        raise UsageError(str(e)) from e
    if model_cfg.max_positions < cfg.context_size:
        raise UsageError(f"--max-positions {model_cfg.max_positions} is smaller than "
                         f"--context-size {cfg.context_size}")
    out = Path(args.out_dir)
    inputs = [Path(args.corpus)]
    if args.mlm_wikt or args.mlm_gram:
        inputs.append(Path(args.mlm_wikt or args.mlm_gram))
    if args.subwords:
        inputs.append(Path(args.subwords))
    write_run_manifest(out, "train", _resolved_config(args), inputs, args.seed,
                       [CHECKPOINT_NAME, SUBWORDS_NAME, TRAINLOG_NAME])

    docs = cp.load_source(args.corpus, args.kind)
    if args.subwords:
        subwords = SubwordModel.load(args.subwords)
    else:
        subwords = train_subwords(docs, args.vocab_size)
    subwords.save(out / SUBWORDS_NAME)

    model_cfg = replace(model_cfg, vocab_size=subwords.vocab_size)
    if args.mlm:
        params, tlog = tr.train_mlm(docs, subwords, model_cfg, cfg)
    else:
        if args.mlm_wikt:
            entries = cp.parse_wiktionary_csv(args.mlm_wikt)
            items = tr.build_definition_batch(entries, subwords)
            objective = "definition"
        else:
            examples = [ex for ex in cp.load_grammar_examples(args.mlm_gram) if ex.tags]
            items = tr.build_grammar_batch(examples, subwords)
            objective = "grammar"
        params, tlog = tr.train_multi_objective(docs, subwords, items, objective,
                                                model_cfg, cfg)
    mdl.save_checkpoint(params, out / CHECKPOINT_NAME)
    tlog.write(out / TRAINLOG_NAME)
    final = tlog.steps[-1]["total"] if tlog.steps else float("nan")
    print(f"trained {len(tlog.steps)} steps; final loss {final:.4f}")
    print(f"checkpoint: {out / CHECKPOINT_NAME}")
    return EXIT_OK


# -- eval ---------------------------------------------------------------------

def cmd_eval(args) -> int:
    out = Path(args.out_dir)
    inputs = [Path(args.checkpoint), Path(args.subwords)]
    if args.pairs:
        inputs.append(Path(args.pairs))
    write_run_manifest(out, "eval", _resolved_config(args), inputs, args.seed,
                       ["report.json", "report.txt", "scores.jsonl"])
    params = mdl.load_checkpoint(args.checkpoint)
    subwords = SubwordModel.load(args.subwords)
    if args.pairs:
        loader = ev.load_blimp_pairs if args.blimp else ev.load_minimal_pairs
        pairs = loader(args.pairs)
        pairs_id = Path(args.pairs).name
    else:
        pairs = ev.generate_toy_minimal_pairs(args.toy, args.n, args.seed)
        pairs_id = f"toy:{args.toy}:n{args.n}:seed{args.seed}"
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
    p_corpus = sub.add_parser("corpus", help="inspect, mix, and convert corpora")
    corpus_sub = p_corpus.add_subparsers(dest="subcommand", required=True)

    p_stats = corpus_sub.add_parser("stats", help="word counts per source")
    p_stats.add_argument("paths", nargs="+")
    p_stats.add_argument("--kind", default="unconstrained", choices=cp.SOURCE_KINDS)
    p_stats.add_argument("--out-dir", default=None)
    p_stats.set_defaults(func=cmd_corpus_stats)

    p_mix = corpus_sub.add_parser("mix", help="mix sources under word budgets")
    p_mix.add_argument("--manifest", required=True)
    p_mix.add_argument("--out-dir", required=True)
    p_mix.set_defaults(func=cmd_corpus_mix)

    p_flat = corpus_sub.add_parser("flatten-triplets",
                                   help="expand triplets into documents")
    p_flat.add_argument("--input", required=True)
    p_flat.add_argument("--out-dir", required=True)
    p_flat.set_defaults(func=cmd_corpus_flatten)

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
    p_gen.add_argument("--per-notion", type=int, default=500)
    p_gen.add_argument("--tag-count", type=int, default=100)
    p_gen.add_argument("--tag-notions", type=int, default=50)
    p_gen.add_argument("--chunk-size", type=int, default=25)
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
    p_train.add_argument("--vocab-size", type=int, default=40000)
    p_train.add_argument("--context-size", type=int, default=64)
    p_train.add_argument("--batch-size", type=int, default=64)
    p_train.add_argument("--epochs", type=int, default=50)
    p_train.add_argument("--learning-rate", type=float, default=2e-4)
    p_train.add_argument("--weight-decay", type=float, default=0.01)
    p_train.add_argument("--warmup-steps", type=int, default=4000)
    p_train.add_argument("--aux-weight", type=float, default=None,
                         help="auxiliary loss weight (default 1.0)")
    p_train.add_argument("--layers", type=int, default=4)
    p_train.add_argument("--heads", type=int, default=4)
    p_train.add_argument("--d-model", type=int, default=128)
    p_train.add_argument("--d-ff", type=int, default=512)
    p_train.add_argument("--decoder-layers", type=int, default=None)
    p_train.add_argument("--dropout", type=float, default=0.1)
    p_train.add_argument("--max-positions", type=int, default=None)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.set_defaults(func=cmd_train)

    # eval
    p_eval = sub.add_parser("eval", help="minimal-pair evaluation")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--subwords", required=True)
    which = p_eval.add_mutually_exclusive_group(required=True)
    which.add_argument("--pairs", help="pair records, one JSON object per line")
    which.add_argument("--toy", choices=("subject-verb", "determiner-noun"))
    p_eval.add_argument("--blimp", action="store_true",
                        help="read --pairs in BLiMP field layout")
    p_eval.add_argument("--n", type=int, default=500)
    p_eval.add_argument("--seed", type=int, default=0)
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
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except sy.CompletionError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except (FileNotFoundError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # keep the exit-code contract for anything else
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def entry_point() -> None:
    sys.exit(main())
