"""Command-line surface.

Subcommands: validate, mask, posid, simulate, advantage, reward, filter,
metrics, gen-corpus. All outputs are deterministic given (inputs, flags,
seed); pass --manifest to record input/output digests for replay checks.

Exit codes: 0 success, 1 validation failure, 2 input error, 3 internal
invariant breach.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .advantages import (EPSILON, dapo_advantage, dynamic_sampling_check,
                         papo_advantage)
from .cache import RadixCache
from .engine import ScriptedPolicy, run_generation
from .errors import BudgetExceeded, IllegalSchema, InputError, StructureError
from .ledger import TokenLedger
from .metrics import avg_at_k, best_at_k, doc_is_parallel, parallel_rate
from .rewards import exact_boxed_match, format_reward, stage1_reward, stage3_reward
# Unused here, but perfbench's tracer wraps both as cli.<name>, by name.
from .rewards import accept_filter  # noqa: F401
from .document import parse_document  # noqa: F401
from .tracefile import (CONFIG, OUTCOME, SCRIPT, SPEC, json_line, read_answers,
                        read_json_object, read_jsonl_numbered, read_rollout_batch,
                        read_trace, remove_file, write_file, write_jsonl,
                        write_manifest)
from .topology import DENSE_LIMIT, build_attention_mask, build_position_ids, topology_stats
from .validation import validate_structure

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _out(args, *parts) -> Path:
    return Path(args.output_dir).joinpath(*parts)


def _check_file_ids(docs, path, suffix: str) -> None:
    """Each id must name one file inside its output directory. The file
    name, ``id + suffix``, must fit the usual 255-byte name limit."""
    for lineno, doc in docs:
        doc_id = doc["id"]
        if doc_id in ("", ".", "..") or any(c in doc_id for c in "/\\\0") \
                or len((doc_id + suffix).encode("utf-8")) > 255:
            raise InputError(f"document id {doc_id!r} is not a safe file name",
                             str(path), lineno)


# -- subcommands -----------------------------------------------------------

def cmd_validate(args):
    docs = read_trace(args.trace)
    rows = []
    for lineno, doc in docs:
        report = validate_structure(doc["tokens"], strict=args.strict)
        rows.append({"id": doc["id"], "line": lineno, **report.to_json_dict()})
    report_path = write_jsonl(_out(args, "validation_report.jsonl"), rows)
    n_bad = sum(1 for r in rows if not r["ok"])
    print(f"validated {len(rows)} documents: {len(rows) - n_bad} ok, {n_bad} invalid")
    return (EXIT_INVALID if n_bad else EXIT_OK), [report_path]


def _write_per_document(args, docs, build, encode, subdir: str, suffix: str):
    """One file per document under ``subdir``, holding ``encode(build(tokens))``,
    plus a ``<command>_status.jsonl`` row per document. A document whose
    build fails has its file removed, so no earlier run's file stands in."""
    _check_file_ids(docs, args.trace, suffix)
    status = []
    outputs = []
    for lineno, doc in docs:
        row = {"id": doc["id"], "line": lineno, "ok": True,
               "length": len(doc["tokens"]), "error": None}
        path = _out(args, subdir, doc["id"] + suffix)
        try:
            outputs.append(write_file(path, encode(build(doc["tokens"]))))
        except StructureError as exc:
            remove_file(path)
            row.update(ok=False, error=str(exc))
        status.append(row)
    outputs.append(write_jsonl(_out(args, f"{args.command}_status.jsonl"), status))
    n_bad = sum(1 for r in status if not r["ok"])
    print(f"{subdir} for {len(status)} documents: {len(status) - n_bad} built, {n_bad} failed")
    return (EXIT_INVALID if n_bad else EXIT_OK), outputs


def cmd_mask(args):
    docs = read_trace(args.trace)
    if args.format == "coords":
        return _write_per_document(args, docs, build_attention_mask,
                                   lambda mask: json_line(mask.to_coords_dict()),
                                   "masks", ".mask.json")
    for lineno, doc in docs:
        if (n := len(doc["tokens"])) > DENSE_LIMIT:
            raise InputError(f"document {doc['id']!r} has {n} tokens; dense masks stop "
                             f"at {DENSE_LIMIT}, use --format coords", args.trace, lineno)
    return _write_per_document(args, docs, build_attention_mask,
                               lambda mask: mask.to_dense_bytes(), "masks", ".mask.bin")


def cmd_posid(args):
    return _write_per_document(args, read_trace(args.trace), build_position_ids,
                               json_line, "positions", ".pos.json")


def _load_script(path) -> ScriptedPolicy:
    try:
        return ScriptedPolicy.from_json_dict(read_json_object(path, SCRIPT))
    except ValueError as exc:
        raise InputError(f"bad script: {exc}", str(path)) from exc


def _check_budgets(values: dict, path=None) -> None:
    """The one range rule for the run budgets, given as flags or as run-config
    fields (with ``path``): each must be at least 1."""
    for name in ("budget_slots", "max_new_tokens"):
        if values.get(name, 1) < 1:
            what = f"config: {name}" if path else "flag: --" + name.replace("_", "-")
            raise InputError(f"bad {what} must be at least 1, got {values[name]}", path)


def _apply_config(args) -> None:
    """Run-config fields override their flags."""
    cfg = read_json_object(args.config, CONFIG)
    _check_budgets(cfg, str(args.config))
    args.budget_slots = cfg.get("budget_slots", args.budget_slots)
    args.max_new_tokens = cfg.get("max_new_tokens", args.max_new_tokens)
    args.strict = cfg.get("strict_validator", args.strict)


def cmd_simulate(args):
    policy = _load_script(args.script)
    _check_budgets(vars(args))
    if args.config:
        _apply_config(args)
    cache = RadixCache(args.budget_slots)
    ledger = TokenLedger(args.max_new_tokens)
    doc_path, events_path, stats_path = paths = [
        _out(args, name) for name in ("sim_document.json", "sim_events.jsonl",
                                      "sim_stats.json")]
    for path in paths:  # so an outcome that does not write a file leaves none stale
        remove_file(path)
    try:
        run = run_generation(policy, cache, ledger, strict_validator=args.strict)
    except IllegalSchema as exc:
        write_jsonl(events_path, [e.to_json_dict() for e in exc.events])
        print(f"simulation rejected: {exc}")
        return EXIT_INVALID, [events_path]
    except BudgetExceeded as exc:
        print(f"simulation aborted: {exc}")
        return EXIT_INVALID, []
    write_file(doc_path, json_line({"id": "sim", "tokens": run.doc.texts()}))
    write_jsonl(events_path, [e.to_json_dict() for e in run.events])
    write_file(stats_path, json_line({
        **run.stats.to_json_dict(),
        "decode_steps": run.decode_steps,
        "charged_tokens": ledger.charged,
        "cache_usage": cache.usage,
        "cache_flushes": cache.flush_count,
    }))
    print(f"simulated {run.stats.total_tokens} tokens in {run.decode_steps} steps "
          f"(speedup {run.stats.compression_ratio:.3f})")
    return EXIT_OK, paths


def cmd_advantage(args):
    batch = read_rollout_batch(args.batch)
    if args.algo == "papo":
        scored = batch.with_rewards(lambda r: stage3_reward(r.pred, r.gold))
        parts = [(scored.records, papo_advantage(scored), {})]
    else:
        scored = batch.with_rewards(
            lambda r: stage1_reward(validate_structure(r.tokens), r.pred, r.gold))
        parts = [(group, dapo_advantage(rewards),
                  {"discarded": not dynamic_sampling_check(rewards)})
                 for group, rewards in zip(scored.groups, scored.rewards())]
    rows = [{"id": record.record_id, "group": record.group_id, "advantage": advantage,
             "num_tokens": len(record.tokens), "group_mean": baseline,
             "divisor": result.divisor, "epsilon": EPSILON, **extra}
            for records, result, extra in parts
            for record, advantage, baseline in zip(records, result.advantages,
                                                   result.baselines)]
    path = write_jsonl(_out(args, "advantages.jsonl"), rows)
    print(f"advantages for {len(rows)} records ({args.algo})")
    return EXIT_OK, [path]


def cmd_reward(args):
    batch = read_rollout_batch(args.batch)
    rows = []
    for record in batch.records:
        report = validate_structure(record.tokens)
        rows.append({
            "id": record.record_id, "group": record.group_id,
            "format_reward": format_reward(report),
            "stage1_reward": stage1_reward(report, record.pred, record.gold),
            "stage3_reward": stage3_reward(record.pred, record.gold),
            "format_ok": report.ok,
        })
    path = write_jsonl(_out(args, "rewards.jsonl"), rows)
    print(f"rewards for {len(rows)} records")
    return EXIT_OK, [path]


def cmd_filter(args):
    docs = read_trace(args.trace)
    gold_by_id = {}
    if args.answers:
        ids = {doc["id"] for _, doc in docs}
        for lineno, row in read_answers(args.answers):
            if row["id"] not in ids:
                raise InputError(f"answer for unknown document {row['id']!r}",
                                 args.answers, lineno)
            gold_by_id[row["id"]] = row["gold"]
    rows = []
    accepted_docs = []
    for lineno, doc in docs:
        doc_id, tokens = doc["id"], doc["tokens"]
        gold = gold_by_id.get(doc_id, doc.get("gold"))
        if gold is None:
            raise InputError(f"no gold answer for document {doc_id!r}", args.trace, lineno)
        report = validate_structure(tokens, strict=args.strict)
        correct = exact_boxed_match(report.boxed_answer, gold)
        accepted = correct and report.ok
        rows.append({"id": doc_id, "accepted": accepted, "correct": correct,
                     "format_ok": report.ok})
        if accepted:
            accepted_docs.append({"id": doc_id, "tokens": tokens, "gold": gold})
    report_path = write_jsonl(_out(args, "filter_report.jsonl"), rows)
    accepted_path = write_jsonl(_out(args, "accepted.jsonl"), accepted_docs)
    n_acc = sum(1 for r in rows if r["accepted"])
    print(f"filtered {len(rows)} documents: {n_acc} accepted, {len(rows) - n_acc} rejected")
    return EXIT_OK, [report_path, accepted_path]


def cmd_metrics(args):
    docs = [doc for _, doc in read_trace(args.trace)]
    ids = {doc["id"] for doc in docs}
    by_id: dict[str, list[bool]] = {}
    for lineno, row in read_jsonl_numbered(args.outcomes, OUTCOME):
        if row["id"] not in ids:
            raise InputError(f"outcome for unknown document {row['id']!r}",
                             args.outcomes, lineno)
        by_id.setdefault(row["id"], []).append(row["correct"])
    if not by_id:
        raise InputError("no outcomes", args.outcomes)

    avg_scores = [avg_at_k(sum(v), len(v)) for v in by_id.values()]
    best_scores = [float(best_at_k(v)) for v in by_id.values()]

    # One structure call per document: topology_stats fails exactly where
    # the parser does. Empty documents count as not parallel.
    parallel_flags = []
    speedups = []
    for doc in docs:
        try:
            stats = topology_stats(doc["tokens"]) if doc["tokens"] else None
        except StructureError:
            stats = None
        parallel_flags.append(stats is not None and doc_is_parallel(stats))
        if stats is not None:
            speedups.append(stats.compression_ratio)

    report = {
        "avg_at_k": sum(avg_scores) / len(avg_scores),
        "best_at_k": sum(best_scores) / len(best_scores),
        "parallel_rate": parallel_rate(parallel_flags),
        "simulated_speedup_mean": (sum(speedups) / len(speedups)) if speedups else None,
        "documents": len(docs),
        "questions": len(by_id),
    }
    path = write_file(_out(args, "metrics.json"), json_line(report))
    print(f"metrics over {len(docs)} documents / {len(by_id)} questions: "
          f"avg@k {report['avg_at_k']:.4f}, parallel rate {report['parallel_rate']:.1f}%")
    return EXIT_OK, [path]


def cmd_gen_corpus(args):
    try:
        if args.spec_file:
            spec = corpus_mod.CorpusSpec.from_json_dict(
                read_json_object(args.spec_file, SPEC))
            if args.seed is not None:
                spec = dataclasses.replace(spec, seed=args.seed)
        else:
            spec = corpus_mod.CorpusSpec(documents=args.docs,
                                         corruption_rate=args.corruption,
                                         seed=args.seed if args.seed is not None else 0)
    except ValueError as exc:
        raise InputError(f"bad corpus spec: {exc}", args.spec_file) from exc
    docs, keys = corpus_mod.generate_corpus(spec)
    corpus_path = write_jsonl(_out(args, "corpus.jsonl"), docs)
    key_path = write_jsonl(_out(args, "corpus_key.jsonl"), keys)
    n_bad = sum(1 for k in keys if k["corrupted"])
    print(f"generated {len(docs)} documents ({n_bad} corrupted) with seed {spec.seed}")
    return EXIT_OK, [corpus_path, key_path]


# -- wiring ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paratrace",
        description="Validate, analyze, simulate, and score parallel-reasoning traces.")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed where applicable")
    parser.add_argument("--output-dir", default=".", help="directory for artifacts")
    parser.add_argument("--manifest", default=None,
                        help="write a manifest with input/output digests here")
    # The same flags are accepted after the subcommand; SUPPRESS keeps the
    # top-level values unless the subcommand actually sets them.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--output-dir", default=argparse.SUPPRESS)
    common.add_argument("--manifest", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("validate", help="validate a JSONL trace file")
    p.add_argument("trace")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=cmd_validate, inputs=lambda a: [a.trace])

    p = sub.add_parser("mask", help="emit attention masks per document")
    p.add_argument("trace")
    p.add_argument("--format", choices=("coords", "dense"), default="coords")
    p.set_defaults(fn=cmd_mask, inputs=lambda a: [a.trace])

    p = sub.add_parser("posid", help="emit position ids per document")
    p.add_argument("trace")
    p.set_defaults(fn=cmd_posid, inputs=lambda a: [a.trace])

    p = sub.add_parser("simulate", help="run a scripted fork/join generation")
    p.add_argument("script")
    p.add_argument("--budget-slots", type=int, default=4096)
    p.add_argument("--max-new-tokens", type=int, default=4096)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--config", default=None, help="run-config JSON overriding flags")
    p.set_defaults(fn=cmd_simulate,
                   inputs=lambda a: [a.script] + ([a.config] if a.config else []))

    p = sub.add_parser("advantage", help="compute advantages over a rollout batch")
    p.add_argument("batch")
    p.add_argument("--algo", choices=("dapo", "papo"), required=True)
    p.set_defaults(fn=cmd_advantage, inputs=lambda a: [a.batch])

    p = sub.add_parser("reward", help="score a rollout batch")
    p.add_argument("batch")
    p.set_defaults(fn=cmd_reward, inputs=lambda a: [a.batch])

    p = sub.add_parser("filter", help="rejection-sample a trace against gold answers")
    p.add_argument("trace")
    p.add_argument("--answers", default=None, help="JSONL with {id, gold} rows")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=cmd_filter,
                   inputs=lambda a: [a.trace] + ([a.answers] if a.answers else []))

    p = sub.add_parser("metrics", help="aggregate evaluation metrics")
    p.add_argument("trace")
    p.add_argument("--outcomes", required=True, help="JSONL with {id, correct} rows")
    p.set_defaults(fn=cmd_metrics, inputs=lambda a: [a.trace, a.outcomes])

    p = sub.add_parser("gen-corpus", help="generate a synthetic trace corpus")
    p.add_argument("--docs", type=int, default=100)
    p.add_argument("--corruption", type=float, default=0.0)
    p.add_argument("--spec-file", default=None)
    p.set_defaults(fn=cmd_gen_corpus,
                   inputs=lambda a: [a.spec_file] if a.spec_file else [])

    return parser


def _config_echo(args) -> dict:
    skip = {"fn", "inputs", "command", "manifest", "output_dir"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, outputs = args.fn(args)
        if args.manifest:
            write_manifest(args.manifest, args.command, args.inputs(args),
                           _config_echo(args), outputs)
        return code
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - contract maps breaches to exit 3
        print(f"internal invariant breach: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
