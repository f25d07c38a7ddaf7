"""Output checks that do not share the code path they check.

Each checker raises `CheckFailed` with a reason when the output is wrong.
Word counts are recounted with `str.split`, checkpoints are parsed byte
by byte here rather than through `model.load_checkpoint`, tensor names
are listed from the architecture, train-log totals are recomputed from
the logged parts, PLL is recomputed with one unbatched forward pass
per masked position and a `logaddexp` log-softmax, and an eval report's
correct counts are recomputed from rescored pairs. selftest.py feeds
each checker a wrong input to show that none of them passes vacuously.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter
from pathlib import Path

import numpy as np

from desklm import model as mdl
from desklm.autograd import Tensor
from desklm.evaluation import pseudo_log_likelihood
from desklm.subwords import MASK_ID

CHECKPOINT_MAGIC = b"DLMCKPT1"


class CheckFailed(Exception):
    pass


def collect(*checks) -> list[str]:
    """Run every check; return the reasons of those that failed."""
    failures = []
    for check in checks:
        try:
            check()
        except CheckFailed as e:
            failures.append(str(e))
    return failures


def budgets(manifest: dict, mixed: list[dict]) -> None:
    """Recounted words per source stay within each entry's and the total budget."""
    words = Counter()
    for rec in mixed:
        words[rec["source"]] += len(rec["text"].split())
    for entry in manifest["entries"]:
        if words[entry["kind"]] > entry["budget"]:
            raise CheckFailed(f"mix: {words[entry['kind']]} {entry['kind']} words "
                              f"exceed budget {entry['budget']}")
    if sum(words.values()) > manifest["total_budget"]:
        raise CheckFailed(f"mix: {sum(words.values())} words exceed total budget "
                          f"{manifest['total_budget']}")


def vocab_size(subwords_json: Path, expected: int) -> None:
    vocab = json.loads(Path(subwords_json).read_text(encoding="utf-8"))["vocab"]
    if len(vocab) != expected:
        raise CheckFailed(f"vocabulary has {len(vocab)} tokens, requested {expected}")


def round_trip(subwords, texts: list[str]) -> None:
    for text in texts:
        if subwords.decode(subwords.encode(text)) != " ".join(text.split()):
            raise CheckFailed(f"decode(encode(doc)) differs for {text[:40]!r}")


def packing(subwords, texts: list[str], packed: np.ndarray, context: int,
            n_examples: int) -> None:
    """Packed windows hold every token plus one separator between documents."""
    stream = sum(len(subwords.encode(t)) for t in texts) + len(texts) - 1
    if int((packed != 0).sum()) != stream:
        raise CheckFailed(f"packing holds {int((packed != 0).sum())} tokens, "
                          f"documents have {stream}")
    if packed.shape != (math.ceil(stream / context), context) or packed.shape[0] != n_examples:
        raise CheckFailed(f"packed shape {packed.shape} for {stream} tokens, "
                          f"train log says {n_examples} examples")


def read_checkpoint(path: Path) -> mdl.ParameterSet:
    """Parse a checkpoint: magic, header length, JSON header, float32 data, end."""
    blob = Path(path).read_bytes()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise CheckFailed(f"{path}: bad magic")
    (hlen,) = struct.unpack_from("<I", blob, 8)
    try:
        header = json.loads(blob[12:12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckFailed(f"{path}: unreadable header ({e})") from None
    off = 12 + hlen
    tensors = {}
    for name, shape in header["tensors"]:
        n = int(np.prod(shape, dtype=np.int64))
        if off + 4 * n > len(blob):
            raise CheckFailed(f"{path}: truncated at tensor {name}")
        arr = np.frombuffer(blob[off:off + 4 * n], dtype="<f4").astype(np.float64)
        tensors[name] = Tensor(arr.reshape(shape))
        off += 4 * n
    if off != len(blob):
        raise CheckFailed(f"{path}: {len(blob) - off} bytes after the last tensor")
    return mdl.ParameterSet(mdl.ModelConfig(**header["config"]), tensors)


def checkpoint(path: Path, params: mdl.ParameterSet) -> None:
    """The file holds the float32 cast of the in-memory parameters, name for name."""
    saved = read_checkpoint(path)
    if saved.names() != params.names():
        raise CheckFailed(f"{path}: tensor names differ from the trained parameters")
    for name, t in params.items():
        if not np.array_equal(saved[name].data, t.data.astype(np.float32).astype(np.float64)):
            raise CheckFailed(f"{path}: tensor {name} differs from its float32 cast")


def encoder_tensor_names(n_layers: int) -> list[str]:
    """Embeddings, encoder blocks, final norm and MLM head, from the architecture."""
    names = ["tok_emb", "pos_emb"]
    for i in range(n_layers):
        p = f"enc.{i}"
        names += [f"{p}.ln1.g", f"{p}.ln1.b"]
        names += [f"{p}.attn.{kind}{x}" for x in "qkvo" for kind in "wb"]
        names += [f"{p}.ln2.g", f"{p}.ln2.b", f"{p}.ffn.w1", f"{p}.ffn.b1",
                  f"{p}.ffn.w2", f"{p}.ffn.b2"]
    return names + ["enc_ln.g", "enc_ln.b", "mlm.w", "mlm.b"]


def tensor_names(path: Path, expected: list[str]) -> None:
    got = read_checkpoint(path).names()
    if sorted(got) != sorted(expected):
        extra, missing = set(got) - set(expected), set(expected) - set(got)
        raise CheckFailed(f"{path}: unexpected tensors {sorted(extra)[:3]}, "
                          f"missing {sorted(missing)[:3]}")


def all_steps_ran(tlog, epochs: int, batch: int) -> None:
    expected = epochs * math.ceil(tlog.manifest["n_examples"] / batch)
    if len(tlog.steps) != expected:
        raise CheckFailed(f"train log has {len(tlog.steps)} steps, expected {expected}")


def below_uniform(name: str, loss: float, vocab: int) -> None:
    if not loss < math.log(vocab):
        raise CheckFailed(f"{name} {loss:.4f} is not below ln V = {math.log(vocab):.4f}")


def log_totals(trainlog: Path, objective: str, weight: float) -> None:
    """Every logged total equals mlm + weight * auxiliary, recomputed."""
    steps = [json.loads(line) for line in Path(trainlog).read_text().splitlines()
             if json.loads(line).get("kind") == "step"]
    if not steps:
        raise CheckFailed(f"{trainlog}: no steps logged")
    for s in steps:
        want = s["losses"]["mlm"] + weight * s["losses"][objective]
        if s["total"] != want:
            raise CheckFailed(f"step {s['step']}: total {s['total']} != {want}")


def brute_force_pll(params: mdl.ParameterSet, subwords, sentence: str) -> float:
    ids = subwords.encode(sentence)
    total = 0.0
    for i in range(len(ids)):
        row = np.asarray([ids[:i] + [MASK_ID] + ids[i + 1:]], dtype=np.int64)
        out = mdl.encoder_forward(params, row, np.ones_like(row, dtype=bool))
        logits = mdl.mlm_logits(params, out).data[0, i]
        total += float(logits[ids[i]] - np.logaddexp.reduce(logits))
    return total


def pll_matches_brute_force(params, subwords, sentences: list[str],
                            fast: list[float], tol: float = 1e-5) -> None:
    for sentence, got in zip(sentences, fast, strict=True):
        ref = brute_force_pll(params, subwords, sentence)
        if not abs(got - ref) <= tol:
            raise CheckFailed(f"PLL {got:.8f} != brute force {ref:.8f} "
                              f"on a {len(subwords.encode(sentence))}-token sentence")


def uniform_pll(params: mdl.ParameterSet, subwords, sentences: list[str],
                score=pseudo_log_likelihood) -> None:
    """An all-zero model gives uniform logits: PLL = n * log(1/V)."""
    zero = mdl.ParameterSet(params.config, {n: Tensor(np.zeros_like(t.data))
                                            for n, t in params.items()})
    v = params.config.vocab_size
    for sentence in sentences:
        n = len(subwords.encode(sentence))
        got = score(zero, subwords, sentence)
        if not abs(got - n * math.log(1.0 / v)) <= 1e-9:
            raise CheckFailed(f"all-zero model scores {got!r}, closed form "
                              f"{n * math.log(1.0 / v)!r}")


def report_counts(report_json: Path, pairs_jsonl: Path) -> None:
    """pair_count and per-phenomenon totals match the pairs file."""
    report = json.loads(Path(report_json).read_text(encoding="utf-8"))
    lines = Path(pairs_jsonl).read_text(encoding="utf-8").splitlines()
    per_uid = Counter(json.loads(line)["UID"] for line in lines if line.strip())
    if report["pair_count"] != sum(per_uid.values()):
        raise CheckFailed(f"report pair_count {report['pair_count']}, "
                          f"pairs file has {sum(per_uid.values())}")
    got = {name: rec["total"] for name, rec in report["phenomena"].items()}
    if got != dict(per_uid):
        raise CheckFailed(f"report phenomena {got} != pairs file {dict(per_uid)}")


def report_scores(report_json: Path, pairs_jsonl: Path, pll, tol: float = 2e-5) -> None:
    """Per-phenomenon correct counts and macro_average match good > bad
    recomputed with `pll` (sentence -> PLL). A pair whose two PLLs lie
    within `tol`, twice the brute-force tolerance, may count either way."""
    report = json.loads(Path(report_json).read_text(encoding="utf-8"))
    lines = Path(pairs_jsonl).read_text(encoding="utf-8").splitlines()
    surely, maybe = Counter(), Counter()
    for rec in (json.loads(line) for line in lines if line.strip()):
        margin = pll(rec["sentence_good"]) - pll(rec["sentence_bad"])
        surely[rec["UID"]] += margin > tol
        maybe[rec["UID"]] += margin > -tol
    for name, rec in report["phenomena"].items():
        if not surely[name] <= rec["correct"] <= maybe[name]:
            raise CheckFailed(f"report: {rec['correct']} correct for {name!r}, "
                              f"rescoring gives {surely[name]}..{maybe[name]}")
    accs = [rec["correct"] / rec["total"] for rec in report["phenomena"].values()]
    if not abs(report["macro_average"] - sum(accs) / len(accs)) <= 1e-12:
        raise CheckFailed(f"report macro_average {report['macro_average']!r}, "
                          f"its counts give {sum(accs) / len(accs)!r}")
