"""Run one desklm benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload paraphrase_mlm --seed 1 --seconds 30 --trace 0

Run from the repository root. Whole rounds of the workload run until
--seconds have passed. Before each round the inputs are made afresh from
--seed (set-up), so set-up and rounds see the same machine conditions;
setup_s and every other end-to-end metric is a median over rounds.

With --trace 1 untraced rounds alternate with rounds run under timing
wrappers (tracing.py), and the per-layer metrics of the traced rounds are
printed instead; the per-layer table, the span table and the tracing
overhead are also written to .bench_out/trace/. A layer the workload
uses (its LAYERS) that reads 0 makes the run incorrect. Every round must
write the same artifact bytes, traced or not.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
BLAS_THREADS = "1"

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
              ("model_tokens_per_s", "tokens/s"), ("loss_nats", "nats"))


def _digest(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "desklm" / "__init__.py").is_file():
        print(f"run.py: no desklm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one BLAS thread on every machine, so the figures do not depend on the core count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = OUT_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        return _run(args, workloads, tracing, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workloads, tracing, work: Path) -> int:
    wl = workloads.WORKLOADS[args.workload]()
    setup_s = []

    def set_up() -> dict:
        # always the same directory, so every round reads the same paths
        shutil.rmtree(work / "inputs", ignore_errors=True)
        gc.collect()
        t0 = time.perf_counter()
        inputs = wl.setup(work / "inputs", args.seed)
        setup_s.append(time.perf_counter() - t0)
        return inputs

    out = work / "out"
    out.mkdir(parents=True)

    # with --trace 1, untraced and traced rounds alternate, starting untraced
    tracer = tracing.Tracer() if args.trace else None
    untraced, traced, digests = [], [], []
    t_begin = time.perf_counter()
    while True:
        inputs = set_up()
        tracing_on = tracer is not None and len(untraced) > len(traced)
        if tracing_on:
            tracer.start_round()
            tracer.install()
        # earlier rounds' garbage is collected here, not inside this round
        gc.collect()
        try:
            rnd = wl.run_round(inputs, out)
        finally:
            if tracing_on:
                tracer.uninstall()
        for r in untraced + traced:
            # only the last round's outputs are checked; keep the heap flat
            r.state = {k: v for k, v in r.state.items() if k == "error"}
        (traced if tracing_on else untraced).append(rnd)
        if not rnd.failed:
            digests.append(_digest(out))
        if time.perf_counter() - t_begin >= args.seconds and (tracer is None or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_rounds = untraced + traced
    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    for r in all_rounds:
        if "error" in r.state:
            print(f"round failed: {r.state['error']}", file=sys.stderr)
    last = rnd  # the round whose outputs are in `out`
    failures = [] if not last.failed else ["the last round failed; its outputs are unchecked"]
    if not last.failed:
        failures += wl.check(inputs, out, last.state)
    if any(d != digests[0] for d in digests):
        failures.append("rounds wrote different artifact bytes"
                        + (" (traced against untraced)" if tracer is not None else ""))

    good = [r for r in untraced if not r.failed]
    losses = wl.losses(last.state) if not last.failed else {}
    if tracer is not None:
        values = tracer.per_layer(losses)
        idle = [name for name in wl.LAYERS if not values[name] > 0]
        if idle:
            failures.append(f"tracing saw no work in layers this workload uses: {idle}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
        _write_trace(args, tracer, metrics, good, [r for r in traced if not r.failed])
    else:
        tokens = wl.model_tokens(inputs, last.state) if good else 0
        values = {
            "setup_s": statistics.median(setup_s),
            "run_s": statistics.median(r.wall_s for r in good) if good else 0.0,
            "peak_rss_mb": peak_rss_mb,
            "model_tokens_per_s": (statistics.median(tokens / r.model_s for r in good)
                                   if good else 0.0),
            "loss_nats": losses.get("total", 0.0),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: round times "
          f"{[round(r.wall_s, 3) for r in untraced]} untraced, "
          f"{[round(r.wall_s, 3) for r in traced]} traced", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _write_trace(args, tracer, metrics, untraced, traced) -> None:
    """Write the per-layer table and the span table of a traced run."""
    trace_dir = OUT_ROOT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    plain_s = statistics.median(r.wall_s for r in untraced) if untraced else 0.0
    traced_s = statistics.median(r.wall_s for r in traced) if traced else 0.0
    table = {
        "workload": args.workload, "seed": args.seed,
        "untraced_round_s": plain_s, "traced_round_s": traced_s,
        "tracing_overhead": traced_s / plain_s - 1.0 if plain_s else 0.0,
        "per_layer": {name: m["value"] for name, m in metrics.items()},
        "spans": tracer.span_table(),
    }
    path = trace_dir / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
