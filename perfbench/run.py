"""paratrace benchmark: one command, three workloads, end-to-end and per-layer.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload corpus_pipeline --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The command exits
1 when any output check fails and 2 when there is no package source.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from inputs import TRACE_LENGTHS
from tracing import Patches, Tracer, traced_classes
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

END_TO_END = {
    "tokens_per_s": "tok/s",
    "docs_per_s": "docs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

CLI_STAGES = ("gen_corpus", "validate", "filter", "mask", "posid", "metrics")
STRUCTURE_FNS = ("document.parse_document", "validation.validate_structure",
                 "topology.build_attention_mask", "topology.build_position_ids",
                 "topology.topology_stats")
TOPOLOGY_SPANS = ("topology.build_attention_mask", "topology.build_position_ids",
                  "topology.topology_stats", "topology.AttentionMask.to_coords_dict",
                  "topology.AttentionMask.to_dense_bytes")
LENGTH_CLASSES = tuple(TRACE_LENGTHS)
CACHE_OPS = ("match_and_insert", "extend", "release", "flush")
# Deterministic counts: they must repeat exactly across traced repetitions.
COUNTS = ("tracefile.files_written", "validation.invalid_docs", "topology.blocked_rects",
          "engine.decode_steps", "engine.truncate_events", "engine.flush_events",
          "cache.hit_tokens", "cache.inserted_slots", "cache.slots_freed",
          "cache.peak_usage", "ledger.charged_tokens", "ledger.truncated_rollouts",
          "validation.validate_structure.calls", "document.parse_document.calls")


def import_package():
    """Import paratrace afresh, so each set-up repetition pays the import."""
    for name in [m for m in sys.modules if m == "paratrace" or m.startswith("paratrace.")]:
        del sys.modules[name]
    importlib.import_module("paratrace.cli")
    return importlib.import_module("paratrace")


def layer_metrics(tracer: Tracer, rep, run_class: dict) -> dict:
    """Per-layer metrics of one traced repetition.

    ``run_class`` maps a run id (one trace or one rollout) to its length
    class; spans of other runs belong to no class.
    """
    names, runs, dur, self_t, tokens, has_parent = tracer.self_times()
    n = len(tracer.names)
    self_s = np.bincount(names, weights=self_t, minlength=n)
    calls = np.bincount(names, minlength=n)
    toks = np.bincount(names, weights=tokens, minlength=n)
    nid = tracer.name_id
    lut = np.full(max(run_class, default=0) + 1, -1, dtype=np.int64)
    for run, cls in run_class.items():
        lut[run] = LENGTH_CLASSES.index(cls)
    span_class = lut[np.clip(runs, 0, len(lut) - 1)]
    counts = rep.counts + tracer.counts

    def per(num, den, scale=1.0):
        return float(num * scale / den) if den else 0.0

    def s(name):
        return float(self_s[nid[name]])

    def c(name):
        return int(calls[nid[name]])

    def ns(name):
        return per(self_s[nid[name]], toks[nid[name]], 1e9)

    def by_class(name):
        return [(cls, names == nid[name], span_class == k)
                for k, cls in enumerate(LENGTH_CLASSES)]

    m = {f"cli.{stage}.s": s("cli." + stage) for stage in CLI_STAGES}
    for name in ("tracefile.read_trace", "tracefile.write_jsonl", "tracefile.write_manifest"):
        m[name + ".s"] = s(name)
    m["tracefile.files_written"] = counts["tracefile.files_written"]
    m["corpus.generate_corpus.s"] = s("corpus.generate_corpus")
    m["document.tokenize.ns_per_token"] = ns("document.tokenize")
    for name in STRUCTURE_FNS:
        m.update({name + ".s": s(name), name + ".calls": c(name),
                  name + ".ns_per_token": ns(name)})
        if name == "validation.validate_structure":
            m["validation.invalid_docs"] = counts["validation.invalid_docs"]
    for name in ("topology.AttentionMask.to_coords_dict",
                 "topology.AttentionMask.to_dense_bytes"):
        m[name + ".s"] = s(name)
    m["topology.blocked_rects"] = counts["topology.blocked_rects"]
    topo = np.isin(names, [nid[t] for t in TOPOLOGY_SPANS])
    for cls, stats, in_c in by_class("topology.topology_stats"):
        # Topology self time per token of the traces (rollouts) in the class.
        m[f"topology.ns_per_token.{cls}"] = per(self_t[topo & in_c].sum(),
                                                tokens[stats & in_c].sum(), 1e9)

    m["engine.run_generation.s"] = s("engine.run_generation")
    m["engine.run_generation.calls"] = c("engine.run_generation")
    m["engine.ScriptedPolicy.next_token.s"] = s("engine.ScriptedPolicy.next_token")
    for name in ("engine.decode_steps", "engine.truncate_events", "engine.flush_events"):
        m[name] = counts[name]
    for cls, gen, in_c in by_class("engine.run_generation"):
        m[f"engine.tokens_per_s.{cls}"] = per(tokens[gen & in_c].sum(),
                                              dur[gen & in_c].sum())

    for op in CACHE_OPS:
        m[f"cache.{op}.s"] = s("cache." + op)
        m[f"cache.{op}.calls"] = c("cache." + op)
    m["cache.extend.ns_per_call"] = per(self_s[nid["cache.extend"]],
                                        calls[nid["cache.extend"]], 1e9)
    hits, inserts = counts["cache.hit_tokens"], counts["cache.inserted_slots"]
    m.update({"cache.hit_tokens": hits, "cache.inserted_slots": inserts,
              "cache.hit_rate": per(hits, hits + inserts),
              "cache.slots_freed": counts["cache.slots_freed"],
              "cache.peak_usage": counts["cache.peak_usage"]})

    m["ledger.charge.s"] = s("ledger.charge")
    m["ledger.charge.calls"] = c("ledger.charge")
    m["ledger.charged_tokens"] = counts["ledger.charged_tokens"]
    m["ledger.mean_active_branches"] = per(counts["ledger.active_branch_sum"],
                                           counts["ledger.timeline_entries"])
    m["ledger.truncated_rollouts"] = counts["ledger.truncated_rollouts"]

    for name in ("rewards.accept_filter", "rewards.stage1_reward",
                 "rollouts.RolloutBatch.with_rewards", "advantages.dapo_advantage",
                 "advantages.papo_advantage"):
        m[name + ".s"] = s(name)
    for name in ("advantages.dapo_surrogate", "advantages.papo_surrogate"):
        m[name + ".ns_per_token"] = ns(name)
    m["bench.unattributed_s"] = float(rep.seconds - dur[~has_parent].sum())
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if "ns_per_token" in name:
        return "ns/token"
    if ".tokens_per_s" in name:
        return "tok/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".ns_per_call"):
        return "ns/call"
    if name.endswith(("hit_rate", "overhead_frac")):
        return "ratio"
    if name.endswith("mean_active_branches"):
        return "branches"
    return "count"


def item_median_seconds(reps) -> float:
    """Time of one repetition as the sum over its timed items (stages, traces
    or groups) of each item's median across repetitions. A burst of load on
    the shared machine then moves only the items it hit, and only when it
    hits the same item in half the repetitions."""
    return sum(statistics.median(item) for item in zip(*(r.items for r in reps)))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def git_sha() -> str:
    """HEAD of the checkout, read without running git; "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "paratrace" / "__init__.py").is_file():
        print(f"perfbench: no package source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup, untraced, traced = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = untraced + [rep for rep, _ in traced]
    attempted = sum(r.docs for r in reps)
    failed = sum(r.failed for r in reps)
    problems = [p for r in reps for p in r.problems]
    metrics, samples = end_to_end(setup, untraced)
    if args.trace:
        metrics, count_problems = per_layer(traced, metrics["tokens_per_s"])
        problems += count_problems
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": END_TO_END.get(name) or unit_of(name)}
                          for name, value in metrics.items()}}

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": git_sha(), "machine": machine()}
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**meta, **result, "samples": samples,
                             "problems": problems}) + "\n")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("machine: " + json.dumps(meta))
    print(f"{'metric':<40} {'value':>14} {'q1':>14} {'q3':>14} {'n':>4}  unit")
    for name, m in result["metrics"].items():
        values = samples.get(name, [m["value"]])
        n = len(values) if name in samples else len(traced)
        q1, q3 = quartiles(values)
        print(f"{name:<40} {m['value']:>14.6g} {q1:>14.6g} {q3:>14.6g} {n:>4}  {m['unit']}")
    print(f"{'failed_frac':<40} {failed / max(attempted, 1):>14.6g} {'':>14} {'':>14} "
          f"{len(reps):>4}  ratio")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def set_up(args, work: Path, setup: list):
    """Import the package afresh and build the workload's inputs, timed."""
    t0 = perf_counter()
    pt = import_package()
    workload = WORKLOADS[args.workload](pt, args.seed, work)
    setup.append(perf_counter() - t0)
    return workload


def measure(args, work: Path):
    """Run repetitions for ``args.seconds``.

    Set-up runs once before the first repetition and again after every
    repetition, so its samples span the run like the throughput samples do;
    the repetitions keep using the first set-up's workload. Returns the
    set-up times, the untraced repetitions and, with ``--trace 1``,
    (repetition, per-layer metrics) for traced repetitions alternating with
    the untraced ones.
    """
    setup = []
    workload = set_up(args, work, setup)
    pt = workload.pt
    if not Path(pt.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        raise RuntimeError(f"imported paratrace from {pt.__file__}, not from src/")

    tracer = Tracer()
    plain = (pt.cache.RadixCache, pt.ledger.TokenLedger, pt.engine.ScriptedPolicy)
    untraced, traced = [], []
    deadline = perf_counter() + args.seconds
    while not untraced or (args.trace and not traced) or perf_counter() < deadline:
        untraced.append(workload.run_rep(len(untraced) + len(traced), tracer, plain))
        set_up(args, work, setup)
        if not args.trace:
            continue
        tracer.reset()
        tracer.enabled = True
        patches = Patches(pt, tracer)
        try:
            rep = workload.run_rep(len(untraced) + len(traced), tracer,
                                   traced_classes(pt, tracer))
        finally:
            patches.undo()
            tracer.enabled = False
        traced.append((rep, layer_metrics(tracer, rep, workload.run_class)))
    if traced:
        tracer.save(WORK / f"spans-{args.workload}.npz")
    return setup, untraced, traced


def end_to_end(setup, untraced):
    """End-to-end metrics, and the samples behind them for the quartiles."""
    rep_seconds = item_median_seconds(untraced)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "tokens_per_s": statistics.median(r.tokens for r in untraced) / rep_seconds,
        "docs_per_s": statistics.median(r.docs for r in untraced) / rep_seconds,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss,
    }
    samples = {
        "tokens_per_s": [r.tokens / r.seconds for r in untraced],
        "docs_per_s": [r.docs / r.seconds for r in untraced],
        "setup_s": setup,
        "peak_rss_mb": [peak_rss],
    }
    return metrics, samples


def per_layer(traced, untraced_tokens_per_s: float):
    """Median over traced repetitions of each per-layer metric, and the
    counts that failed to repeat exactly."""
    layers = [m for _, m in traced]
    metrics = {name: (statistics.median_low if name in COUNTS else statistics.median)(
        [m[name] for m in layers]) for name in layers[0]}
    reps = [r for r, _ in traced]
    traced_tps = statistics.median(r.tokens for r in reps) / item_median_seconds(reps)
    metrics["trace.overhead_frac"] = 1.0 - traced_tps / untraced_tokens_per_s
    problems = [f"{name} differs across traced repetitions"
                for name in COUNTS if len({m[name] for m in layers}) > 1]
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
