"""The three benchmark workloads.

Each workload builds its inputs once (set-up) and then runs repetitions. A
repetition is one closed-loop pass with a single caller: the CLI pipeline
over one corpus, one pass over the long traces, or one RL step over the
rollout groups. Only the calls into the package are timed; output checks,
digests and clean-up run between timed segments.

A repetition returns a :class:`Rep`. ``failed`` counts documents (traces,
rollouts) that raised unexpectedly, exited 3, hit ``BudgetExceeded`` or
failed an output check; a check that covers the whole repetition (exit
codes, manifests, digests) fails every document of it.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import shutil
import traceback
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import inputs


@dataclass
class Rep:
    tokens: int
    docs: int
    items: list = field(default_factory=list)  # wall seconds per timed segment
    failed: int = 0
    problems: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    @property
    def seconds(self) -> float:
        return sum(self.items)


@contextmanager
def timed(rep: Rep, tracer):
    """Record the block's wall time as one item of ``rep``; spans are
    recorded only inside such blocks."""
    tracer.active = tracer.enabled
    t0 = perf_counter()
    try:
        yield
    finally:
        rep.items.append(perf_counter() - t0)
        tracer.active = False


class CorpusPipeline:
    """gen-corpus -> validate -> filter -> mask -> posid -> metrics, in process."""

    name = "corpus_pipeline"
    DOCS = 1000
    CORRUPTION = "0.2"
    MASK_SAMPLE = 25
    STAGES = ("gen-corpus", "validate", "filter", "mask", "posid", "metrics")
    run_class: dict = {}

    def __init__(self, pt, seed: int, work: Path):
        self.pt = pt
        self.seed = seed
        self.work = work
        self.outcomes = inputs.outcomes(seed, self.DOCS)
        self.outcomes_text = "".join(pt.tracefile.dumps(r) + "\n" for r in self.outcomes)
        # (exit codes, manifests, counts) of the first repetition.
        self.reference = None

    def argv(self, stage: str) -> list[str]:
        common = ["--output-dir", ".", "--manifest", f"{stage}.manifest.json", stage]
        if stage == "gen-corpus":
            return ["--seed", str(self.seed), *common, "--docs", str(self.DOCS),
                    "--corruption", self.CORRUPTION]
        if stage == "metrics":
            return [*common, "corpus.jsonl", "--outcomes", "outcomes.jsonl"]
        return [*common, "corpus.jsonl"]

    def run_rep(self, rep: int, tracer, classes) -> Rep:
        out_dir = self.work / f"rep{rep}"
        if out_dir.exists():
            shutil.rmtree(out_dir)
        out_dir.mkdir(parents=True)
        (out_dir / "outcomes.jsonl").write_text(self.outcomes_text, encoding="utf-8")
        argvs = [self.argv(stage) for stage in self.STAGES]
        main = self.pt.cli.main
        codes = {}
        captured = io.StringIO()
        result = Rep(0, 0)
        cwd = os.getcwd()
        os.chdir(out_dir)
        try:
            with redirect_stdout(captured), redirect_stderr(captured):
                for i, (stage, argv) in enumerate(zip(self.STAGES, argvs)):
                    tracer.run_id = i
                    with timed(result, tracer):
                        codes[stage] = tracer.span("cli." + stage.replace("-", "_"),
                                                   main, argv)
        finally:
            os.chdir(cwd)

        corpus_path = out_dir / "corpus.jsonl"
        corpus = [json.loads(line) for line in
                  corpus_path.read_text(encoding="utf-8").splitlines()
                  ] if corpus_path.exists() else []
        result.tokens = sum(len(d["tokens"]) for d in corpus)
        result.docs = self.DOCS
        manifests = {s: (out_dir / f"{s}.manifest.json").read_bytes()
                     if (out_dir / f"{s}.manifest.json").exists() else b""
                     for s in self.STAGES}
        if self.reference is None:
            bad_docs, problems, counts = self.check(out_dir, corpus, codes)
            self.reference = (codes, manifests, counts)
        else:
            bad_docs, problems = set(), []
            if (codes, manifests) != self.reference[:2]:
                problems.append("exit codes or manifests differ from the first repetition")
        if problems:
            bad_docs = set(range(self.DOCS))
            if captured.getvalue():
                problems.append("CLI output: " + captured.getvalue()[-2000:])
        result.failed = len(bad_docs)
        result.problems = problems
        result.counts = Counter(self.reference[2])
        result.counts["tracefile.files_written"] = sum(
            1 for p in out_dir.rglob("*") if p.is_file()) - 1  # minus outcomes
        shutil.rmtree(out_dir)
        return result

    def check(self, out_dir: Path, corpus: list, codes: dict):
        """Per-document and whole-run checks of the first repetition."""
        pt = self.pt

        def rows(name):
            path = out_dir / name
            if not path.exists():
                return {}
            return {r["id"]: r for r in (json.loads(line) for line in
                    path.read_text(encoding="utf-8").splitlines() if line)}

        problems = []
        bad = set()
        key = rows("corpus_key.jsonl")
        report = rows("validation_report.jsonl")
        filtered = rows("filter_report.jsonl")
        mask_status = rows("mask_status.jsonl")
        pos_status = rows("posid_status.jsonl")
        for doc in corpus:
            i = doc["id"]
            k, r = key.get(i), report.get(i)
            if k is None or r is None or i not in filtered \
                    or i not in mask_status or i not in pos_status:
                bad.add(i)
                continue
            failed_names = {name for name, ok in r["categories"].items() if not ok}
            if k["corrupted"]:
                want = pt.validation.CATEGORY_NAMES[k["category"]]
                ok = not r["ok"] and want in failed_names
            else:
                ok = r["ok"]
            balanced = "tag_balance" not in failed_names
            ok &= filtered[i]["accepted"] == (not k["corrupted"])
            ok &= mask_status[i]["ok"] == balanced and pos_status[i]["ok"] == balanced
            if not ok:
                bad.add(i)

        any_corrupt = any(k["corrupted"] for k in key.values())
        any_unbalanced = any(not r["categories"]["tag_balance"] for r in report.values())
        expected = {"gen-corpus": 0, "validate": int(any_corrupt), "filter": 0,
                    "mask": int(any_unbalanced), "posid": int(any_unbalanced),
                    "metrics": 0}
        if codes != expected:
            problems.append(f"exit codes {codes} != {expected}")
        if len(corpus) != self.DOCS:
            problems.append(f"corpus has {len(corpus)} documents, not {self.DOCS}")

        # A seeded sample of built masks against the span oracle, and of
        # position files against topology_stats.
        rng = random.Random(self.seed)
        built = [d for d in corpus if mask_status.get(d["id"], {}).get("ok")]
        for doc in rng.sample(built, min(self.MASK_SAMPLE, len(built))):
            try:
                coords = json.loads((out_dir / "masks" / f"{doc['id']}.mask.json").read_text())
                rects = tuple(pt.topology.Rect(pt.document.Span(*b["row_span"]),
                                               pt.document.Span(*b["col_span"]))
                              for b in coords["blocked"])
                mask = pt.topology.AttentionMask(coords["length"], rects)
                oracle = pt.topology.mask_from_spans_oracle(doc["tokens"])
                pos = json.loads((out_dir / "positions" / f"{doc['id']}.pos.json").read_text())
                stats = pt.topology.topology_stats(doc["tokens"])
                if not mask.same_visibility(oracle) or max(pos) + 1 != stats.critical_path:
                    bad.add(doc["id"])
            except (OSError, ValueError, KeyError, pt.errors.StructureError):
                bad.add(doc["id"])

        metrics_path = out_dir / "metrics.json"
        if not metrics_path.exists():
            problems.append("metrics.json missing")
        else:
            got = json.loads(metrics_path.read_text())
            want = self.expected_metrics(corpus)
            for name, value in want.items():
                if got.get(name) is None or not math.isclose(got[name], value,
                                                             rel_tol=1e-12):
                    problems.append(f"metrics.json {name}={got.get(name)} != {value}")
        counts = Counter({"validation.invalid_docs":
                          sum(1 for r in report.values() if not r["ok"])})
        return bad, problems, counts

    def expected_metrics(self, corpus: list) -> dict:
        """metrics.json recomputed from the outcomes and the corpus."""
        pt = self.pt
        by_id: dict[str, list[bool]] = {}
        for row in self.outcomes:
            by_id.setdefault(row["id"], []).append(row["correct"])
        parallel, speedups = 0, []
        for doc in corpus:
            try:
                parsed = pt.document.parse_document(doc["tokens"])
            except (pt.errors.ParseError, ValueError):
                continue
            parallel += any(len(b.steps) >= 2 for b in parsed.iter_blocks())
            speedups.append(pt.topology.topology_stats(doc["tokens"]).compression_ratio)
        return {
            "avg_at_k": sum(sum(v) / len(v) for v in by_id.values()) / len(by_id),
            "best_at_k": sum(1.0 for v in by_id.values() if any(v)) / len(by_id),
            "parallel_rate": 100.0 * parallel / len(corpus),
            "simulated_speedup_mean": sum(speedups) / len(speedups),
            "documents": len(corpus),
            "questions": len(by_id),
        }


class LongTraces:
    """tokenize -> parse -> validate -> mask -> position ids -> stats per trace."""

    name = "long_traces"

    def __init__(self, pt, seed: int, work: Path):
        self.pt = pt
        self.traces = inputs.long_traces(seed)
        self.run_class = {i: t.length_class for i, t in enumerate(self.traces)}
        self.digest = None

    def run_rep(self, rep: int, tracer, classes) -> Rep:
        document, validation, topology = (self.pt.document, self.pt.validation,
                                          self.pt.topology)
        result = Rep(0, len(self.traces))
        digest = hashlib.sha256()
        for i, trace in enumerate(self.traces):
            tracer.run_id = i
            try:
                with timed(result, tracer):
                    tokens = document.tokenize(trace.text)
                    doc = document.parse_document(tokens)
                    report = validation.validate_structure(tokens)
                    mask = topology.build_attention_mask(tokens)
                    coords = mask.to_coords_dict()
                    dense = (mask.to_dense_bytes()
                             if len(tokens) <= topology.DENSE_LIMIT else None)
                    pos = topology.build_position_ids(tokens)
                    stats = topology.topology_stats(tokens)
            except Exception:  # noqa: BLE001 - any raise is a counted failure
                result.failed += 1
                result.problems.append(f"{trace.name}: {traceback.format_exc()}")
                continue
            result.tokens += len(tokens)
            problem = self.check(trace, tokens, doc, report, mask, dense, pos,
                                 stats, oracle=rep == 0)
            if problem:
                result.failed += 1
                result.problems.append(f"{trace.name}: {problem}")
            digest.update(json.dumps([coords, pos, stats.to_json_dict()]).encode())
        digest = digest.hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            result.failed = result.docs
            result.problems.append("output digest differs from the first repetition")
        return result

    def check(self, trace, tokens, doc, report, mask, dense, pos, stats, oracle):
        pt = self.pt
        if len(tokens) != trace.n_tokens:
            return f"tokenized to {len(tokens)} tokens, expected {trace.n_tokens}"
        if not report.ok or doc.boxed_answer != trace.answer:
            return "parser and validator disagree on a valid trace"
        if len(mask.blocked) != trace.blocked_rects:
            return f"{len(mask.blocked)} blocked rectangles, expected {trace.blocked_rects}"
        if max(pos) + 1 != stats.critical_path or stats.total_tokens != len(tokens):
            return "position ids disagree with topology_stats"
        if oracle and dense is not None:
            want = pt.topology.mask_from_spans_oracle(tokens)
            if not mask.same_visibility(want) or dense != want.to_dense_bytes():
                return "mask differs from mask_from_spans_oracle"
        return None


class RolloutGroups:
    """One RL step: simulate each group's rollouts, then score the group."""

    name = "rollout_groups"

    def __init__(self, pt, seed: int, work: Path):
        self.pt = pt
        self.groups, self.budget = inputs.rollout_groups(seed)
        self.run_class = {}
        for g in self.groups:
            for r in g.rollouts:
                self.run_class[len(self.run_class)] = g.length_class
        self.digest = None

    def run_rep(self, rep: int, tracer, classes) -> Rep:
        pt = self.pt
        engine, rewards, rollouts, advantages, validation = (
            pt.engine, pt.rewards, pt.rollouts, pt.advantages, pt.validation)
        cache_cls, ledger_cls, policy_cls = classes
        cache = cache_cls(self.budget)
        result = Rep(0, 0)
        digest = hashlib.sha256()
        run_id = 0
        for group in self.groups:
            try:
                with timed(result, tracer):
                    runs = []
                    for spec in group.rollouts:
                        tracer.run_id = run_id
                        run_id += 1
                        ledger = ledger_cls(spec.max_new_tokens)
                        policy = policy_cls(spec.prologue, spec.branches, spec.takeaway)
                        runs.append((engine.run_generation(policy, cache, ledger), ledger))
                    records = [rollouts.RolloutRecord(
                        spec.record_id, group.group_id, tuple(run.doc.texts()),
                        spec.old_logprobs[:len(run.doc.tokens)], run.doc.boxed_answer,
                        group.gold) for spec, (run, _) in zip(group.rollouts, runs)]
                    batch = rollouts.RolloutBatch.from_records(records)
                    scored = batch.with_rewards(lambda r: rewards.stage1_reward(
                        validation.validate_structure(r.tokens), r.pred, r.gold))
                    accepted = [rewards.accept_filter(r.tokens, r.pred, r.gold)
                                for r in records]
                    dapo = advantages.dapo_advantage([r.reward for r in scored.records])
                    papo = advantages.papo_advantage(scored)
                    old = [r.logprobs for r in records]
                    new = [spec.new_logprobs[:len(r.tokens)]
                           for spec, r in zip(group.rollouts, records)]
                    losses = (advantages.dapo_surrogate(old, new, dapo.advantages),
                              advantages.papo_surrogate(new, papo.advantages).loss)
            except Exception:  # noqa: BLE001 - any raise is a counted failure
                result.docs += len(group.rollouts)
                result.failed += len(group.rollouts)
                result.problems.append(f"{group.group_id}: {traceback.format_exc()}")
                continue
            result.docs += len(runs)
            result.tokens += sum(len(run.doc.tokens) for run, _ in runs)
            problems = self.check(cache, runs, records, accepted, dapo, papo, losses)
            if problems:
                result.failed += len(runs)
                result.problems.append(f"{group.group_id}: {'; '.join(problems)}")
            self.count(result.counts, runs, records)
            for run, _ in runs:
                for e in run.events:
                    digest.update(f"{e.kind}|{e.step}|{e.branch}|{e.token}\n".encode())
        digest = digest.hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            result.failed = result.docs
            result.problems.append("event-log digest differs from the first repetition")
        return result

    def check(self, cache, runs, records, accepted, dapo, papo, losses) -> list[str]:
        validate = self.pt.validation.validate_structure
        problems = []
        try:
            cache.check_integrity()
        except AssertionError as exc:
            problems.append(f"cache integrity: {exc}")
        for (run, ledger), record, keep in zip(runs, records, accepted):
            valid = validate(record.tokens).ok
            if not valid and not any(e.kind == "truncate" for e in run.events):
                problems.append("untruncated rollout does not validate")
            if keep != (valid and record.pred == record.gold):
                problems.append("accept_filter disagrees with validation and answer")
            emitted = sum(1 for e in run.events if e.kind == "emit")
            if ledger.charged != emitted:
                problems.append(f"ledger charged {ledger.charged} for {emitted} emits")
        values = [*dapo.advantages, *papo.advantages, *losses]
        if not all(math.isfinite(v) for v in values):
            problems.append("non-finite advantage or loss")
        return problems

    def count(self, counts: Counter, runs, records) -> None:
        validate = self.pt.validation.validate_structure
        for (run, ledger), record in zip(runs, records):
            kinds = Counter(e.kind for e in run.events)
            counts["engine.decode_steps"] += run.decode_steps
            counts["engine.truncate_events"] += kinds["truncate"]
            counts["engine.flush_events"] += kinds["flush"]
            counts["ledger.charged_tokens"] += ledger.charged
            counts["ledger.truncated_rollouts"] += kinds["truncate"] > 0
            counts["ledger.timeline_entries"] += len(ledger.timeline)
            counts["ledger.active_branch_sum"] += sum(
                e.active_branches for e in ledger.timeline)
            counts["validation.invalid_docs"] += not validate(record.tokens).ok


WORKLOADS = {w.name: w for w in (CorpusPipeline, LongTraces, RolloutGroups)}
