"""Command-line surface.

Subcommands: validate, mask, posid, simulate, advantage, reward, filter,
metrics, gen-corpus. All outputs are deterministic given (inputs, flags,
seed); pass --manifest to record input/output digests for replay checks.

Exit codes: 0 success, 1 validation failure, 2 input error, 3 internal
invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .advantages import dapo_advantage, dynamic_sampling_check, papo_advantage
from .cache import RadixCache
from .document import parse_document
from .engine import ScriptedPolicy, run_generation
from .errors import (BudgetExceeded, IllegalSchema, InputError, LedgerExhausted,
                     ParseError, StructureError)
from .ledger import TokenLedger
from .metrics import avg_at_k, doc_is_parallel, parallel_rate
from .rewards import format_reward, stage1_reward, stage3_reward
# Unused here, but perfbench's tracer wraps it as cli.accept_filter by name.
from .rewards import accept_filter  # noqa: F401
from .tracefile import (TraceDoc, dumps, read_jsonl_numbered, read_outcomes,
                        read_rollout_batch, read_trace, write_jsonl,
                        write_manifest)
from .topology import build_attention_mask, build_position_ids, topology_stats
from .validation import validate_structure

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _out(args, *parts) -> Path:
    path = Path(args.output_dir).joinpath(*parts)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _check_file_ids(docs, path) -> None:
    """Each id must name one file inside its output directory, once."""
    seen = set()
    for lineno, doc in docs:
        doc_id = doc.doc_id
        if doc_id in ("", ".", "..") or any(c in doc_id for c in "/\\\0"):
            raise InputError(f"document id {doc_id!r} is not a safe file name",
                             str(path), lineno)
        if doc_id in seen:
            raise InputError(f"duplicate document id {doc_id!r}", str(path), lineno)
        seen.add(doc_id)


def _doc_pred(tokens) -> str | None:
    try:
        return parse_document(tokens).boxed_answer
    except (ParseError, ValueError):
        return None


# -- subcommands -----------------------------------------------------------

def cmd_validate(args):
    docs = read_trace(args.trace)
    rows = []
    all_ok = True
    for lineno, doc in docs:
        report = validate_structure(doc.tokens, strict=args.strict)
        all_ok &= report.ok
        rows.append({"id": doc.doc_id, "line": lineno, **report.to_json_dict()})
    report_path = _out(args, "validation_report.jsonl")
    write_jsonl(report_path, rows)
    n_bad = sum(1 for r in rows if not r["ok"])
    print(f"validated {len(rows)} documents: {len(rows) - n_bad} ok, {n_bad} invalid")
    return (EXIT_OK if all_ok else EXIT_INVALID), [report_path]


def cmd_mask(args):
    docs = read_trace(args.trace)
    _check_file_ids(docs, args.trace)
    status = []
    outputs = []
    all_ok = True
    for lineno, doc in docs:
        row = {"id": doc.doc_id, "line": lineno, "ok": True,
               "length": len(doc.tokens), "error": None}
        try:
            mask = build_attention_mask(doc.tokens)
            if args.format == "coords":
                path = _out(args, "masks", f"{doc.doc_id}.mask.json")
                path.write_text(dumps(mask.to_coords_dict()) + "\n", encoding="utf-8")
            else:
                path = _out(args, "masks", f"{doc.doc_id}.mask.bin")
                path.write_bytes(mask.to_dense_bytes())
            outputs.append(path)
        except StructureError as exc:
            row.update(ok=False, error=str(exc))
            all_ok = False
        status.append(row)
    status_path = _out(args, "mask_status.jsonl")
    write_jsonl(status_path, status)
    outputs.append(status_path)
    n_bad = sum(1 for r in status if not r["ok"])
    print(f"masks for {len(status)} documents: {len(status) - n_bad} built, {n_bad} failed")
    return (EXIT_OK if all_ok else EXIT_INVALID), outputs


def cmd_posid(args):
    docs = read_trace(args.trace)
    _check_file_ids(docs, args.trace)
    status = []
    outputs = []
    all_ok = True
    for lineno, doc in docs:
        row = {"id": doc.doc_id, "line": lineno, "ok": True,
               "length": len(doc.tokens), "error": None}
        try:
            pos = build_position_ids(doc.tokens)
            path = _out(args, "positions", f"{doc.doc_id}.pos.json")
            path.write_text(dumps(pos) + "\n", encoding="utf-8")
            outputs.append(path)
        except StructureError as exc:
            row.update(ok=False, error=str(exc))
            all_ok = False
        status.append(row)
    status_path = _out(args, "posid_status.jsonl")
    write_jsonl(status_path, status)
    outputs.append(status_path)
    n_bad = sum(1 for r in status if not r["ok"])
    print(f"positions for {len(status)} documents: {len(status) - n_bad} built, {n_bad} failed")
    return (EXIT_OK if all_ok else EXIT_INVALID), outputs


def _read_json_object(path, what: str) -> dict:
    """A JSON object read from ``path``; anything else is an :class:`InputError`."""
    path = Path(path)
    if not path.is_file():
        raise InputError("file not found", str(path))
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"bad {what}: {exc}", str(path)) from exc
    if not isinstance(data, dict):
        raise InputError(f"bad {what}: expected a JSON object", str(path))
    return data


def _load_script(path) -> ScriptedPolicy:
    data = _read_json_object(path, "script")
    try:
        return ScriptedPolicy.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad script: {exc}", str(path)) from exc


# Run-config fields and the argparse destinations they override.
_CONFIG_FIELDS = {"budget_slots": ("budget_slots", int),
                  "max_new_tokens": ("max_new_tokens", int),
                  "strict_validator": ("strict", bool)}


def _apply_config(args) -> None:
    cfg = _read_json_object(args.config, "config")
    for key, (dest, kind) in _CONFIG_FIELDS.items():
        if key not in cfg:
            continue
        # Exact type: JSON true/false must not pass as a slot count.
        if type(cfg[key]) is not kind:
            raise InputError(f"bad config: {key} must be {kind.__name__}, "
                             f"got {cfg[key]!r}", str(args.config))
        setattr(args, dest, cfg[key])


def cmd_simulate(args):
    policy = _load_script(args.script)
    if args.config:
        _apply_config(args)
    try:
        cache = RadixCache(args.budget_slots)
        ledger = TokenLedger(args.max_new_tokens)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    events_path = _out(args, "sim_events.jsonl")
    try:
        run = run_generation(policy, cache, ledger, strict_validator=args.strict)
    except IllegalSchema as exc:
        write_jsonl(events_path, [e.to_json_dict() for e in exc.events])
        print(f"simulation rejected: {exc}")
        return EXIT_INVALID, [events_path]
    except LedgerExhausted as exc:
        raise InputError(str(exc)) from exc
    except BudgetExceeded as exc:
        print(f"simulation aborted: {exc}")
        return EXIT_INVALID, []
    doc_path = _out(args, "sim_document.json")
    doc_path.write_text(
        dumps({"id": "sim", "tokens": run.doc.texts()}) + "\n", encoding="utf-8")
    write_jsonl(events_path, [e.to_json_dict() for e in run.events])
    stats_path = _out(args, "sim_stats.json")
    stats_path.write_text(dumps({
        **run.stats.to_json_dict(),
        "decode_steps": run.decode_steps,
        "charged_tokens": ledger.charged,
        "cache_usage": cache.usage,
        "cache_flushes": cache.flush_count,
    }) + "\n", encoding="utf-8")
    print(f"simulated {run.stats.total_tokens} tokens in {run.decode_steps} steps "
          f"(speedup {run.stats.compression_ratio:.3f})")
    return EXIT_OK, [doc_path, events_path, stats_path]


def cmd_advantage(args):
    batch = read_rollout_batch(args.batch)
    if args.algo == "papo":
        scored = batch.with_rewards(lambda r: stage3_reward(r.pred, r.gold))
        table = papo_advantage(scored)
        rows = list(table.rows())
    else:
        scored = batch.with_rewards(
            lambda r: stage1_reward(validate_structure(r.tokens), r.pred, r.gold))
        rows = []
        for group in scored.groups:
            rewards = [r.reward for r in group]
            result = dapo_advantage(rewards)
            keep = dynamic_sampling_check([r.reward > 0 for r in group])
            for record, adv in zip(group, result.advantages):
                rows.append({"id": record.record_id, "group": record.group_id,
                             "advantage": adv, "num_tokens": len(record.tokens),
                             "group_mean": result.mean, "divisor": result.std,
                             "epsilon": 1e-6, "discarded": not keep})
    path = _out(args, "advantages.jsonl")
    write_jsonl(path, rows)
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
    path = _out(args, "rewards.jsonl")
    write_jsonl(path, rows)
    print(f"rewards for {len(rows)} records")
    return EXIT_OK, [path]


def cmd_filter(args):
    docs = read_trace(args.trace)
    gold_by_id = {}
    if args.answers:
        for lineno, row in read_jsonl_numbered(args.answers):
            try:
                gold_by_id[str(row["id"])] = str(row["gold"])
            except (KeyError, TypeError) as exc:
                raise InputError(f"bad answer record: {exc!r}", str(args.answers),
                                 lineno) from exc
    rows = []
    accepted_docs = []
    for _, doc in docs:
        gold = gold_by_id.get(doc.doc_id, doc.gold)
        if gold is None:
            raise InputError(f"no gold answer for document {doc.doc_id}", args.trace)
        pred = _doc_pred(doc.tokens)
        report = validate_structure(doc.tokens, strict=args.strict)
        correct = pred is not None and pred == gold
        accepted = correct and report.ok
        rows.append({"id": doc.doc_id, "accepted": accepted, "correct": correct,
                     "format_ok": report.ok})
        if accepted:
            accepted_docs.append(TraceDoc(doc.doc_id, doc.tokens, gold).to_json_dict())
    report_path = _out(args, "filter_report.jsonl")
    write_jsonl(report_path, rows)
    accepted_path = _out(args, "accepted.jsonl")
    write_jsonl(accepted_path, accepted_docs)
    n_acc = sum(1 for r in rows if r["accepted"])
    print(f"filtered {len(rows)} documents: {n_acc} accepted, {len(rows) - n_acc} rejected")
    return EXIT_OK, [report_path, accepted_path]


def cmd_metrics(args):
    docs = [doc for _, doc in read_trace(args.trace)]
    ids = {d.doc_id for d in docs}
    outcomes = read_outcomes(args.outcomes)
    for doc_id, _ in outcomes:
        if doc_id not in ids:
            raise InputError(f"outcome for unknown document {doc_id}", args.outcomes)
    by_id: dict[str, list[bool]] = {}
    for doc_id, correct in outcomes:
        by_id.setdefault(doc_id, []).append(correct)
    if not by_id:
        raise InputError("no outcomes", args.outcomes)

    avg_scores = [avg_at_k(sum(v), len(v)) for v in by_id.values()]
    best_scores = [1.0 if any(v) else 0.0 for v in by_id.values()]

    parallel_flags = []
    speedups = []
    for doc in docs:
        try:
            parsed = parse_document(doc.tokens)
            parallel_flags.append(doc_is_parallel(parsed))
            speedups.append(topology_stats(doc.tokens).compression_ratio)
        except (ParseError, ValueError):
            parallel_flags.append(False)

    report = {
        "avg_at_k": sum(avg_scores) / len(avg_scores),
        "best_at_k": sum(best_scores) / len(best_scores),
        "parallel_rate": parallel_rate(parallel_flags),
        "simulated_speedup_mean": (sum(speedups) / len(speedups)) if speedups else None,
        "documents": len(docs),
        "questions": len(by_id),
    }
    path = _out(args, "metrics.json")
    path.write_text(dumps(report) + "\n", encoding="utf-8")
    print(f"metrics over {len(docs)} documents / {len(by_id)} questions: "
          f"avg@k {report['avg_at_k']:.4f}, parallel rate {report['parallel_rate']:.1f}%")
    return EXIT_OK, [path]


def cmd_gen_corpus(args):
    try:
        if args.spec_file:
            spec = corpus_mod.CorpusSpec.from_json_dict(
                _read_json_object(args.spec_file, "spec"))
            if args.seed is not None:
                spec = corpus_mod.CorpusSpec(**{**spec.__dict__, "seed": args.seed})
        else:
            spec = corpus_mod.CorpusSpec(documents=args.docs,
                                         corruption_rate=args.corruption,
                                         seed=args.seed if args.seed is not None else 0)
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"bad corpus spec: {exc}", args.spec_file) from exc
    docs, keys = corpus_mod.generate_corpus(spec)
    corpus_path = _out(args, "corpus.jsonl")
    write_jsonl(corpus_path, docs)
    key_path = _out(args, "corpus_key.jsonl")
    write_jsonl(key_path, [
        {"id": k.doc_id, "corrupted": k.corrupted, "category": k.category,
         "gold": k.gold} for k in keys])
    n_bad = sum(1 for k in keys if k.corrupted)
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
    p.set_defaults(fn=cmd_simulate, inputs=lambda a: [a.script])

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
