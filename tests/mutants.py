"""Named mutants of the source, each with the tests that must kill it.

Run from anywhere as ``python tests/mutants.py``; name mutants after it to
run only those. The script first runs every listed killer test on an
unmutated copy of ``src/``, which must pass. Then, for each mutant, it
copies ``src/`` to a temporary directory, replaces the mutant's snippet
with its replacement there, and runs the mutant's killers against that copy
with ``pytest -x``. A mutant is killed when a killer fails, and killed by
timeout when its killers run past ``TIMEOUT_S`` (a mutant that makes a test
loop forever). The script exits non-zero when a mutant survives, when its
snippet no longer occurs exactly once in its file, or when its killers
cannot be run (a killer id that no longer names a test, or killers that
time out on the unmutated copy, are such cases).

Pytest collects only ``test_*.py``, so tier-1 never runs this file. When a
change adds a fast path, add its mutants to ``MUTANTS``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120  # per pytest run; every killer set here passes in well under 60 s


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/paratrace
    snippet: str
    replacement: str
    killers: tuple[str, ...]  # test ids, relative to the repository root
    guards: str  # the change whose code the mutant undoes


LAYOUT_INVARIANT = ("tests/test_structure_reference.py::"
                    "test_a_report_carries_the_layout_exactly_when_the_walk_reads_it")
ANSWER_IS_THE_PARSERS = ("tests/test_structure_reference.py::test_report_answer_is_the_parsers",)
STATS_ON_READ = ("tests/test_engine.py::test_stats_are_built_on_read[untruncated]",
                 "tests/test_engine.py::test_stats_are_built_on_read[truncated]")
JUMPS_LIKE_THE_REFERENCE = (
    "tests/test_engine.py::test_reference_comparison_reaches_every_outcome",)
JUMPS_LOG_LIKE_THE_REFERENCE = JUMPS_LIKE_THE_REFERENCE + (
    "tests/test_engine.py::test_event_logs_match_golden_digest",)
RUN_EDGES = "tests/test_cache.py::TestRunEdges::"

MUTANTS = (
    Mutant("step-span-ends-at-close", "validation.py",
           "top.steps += top.at, i + 1",
           "top.steps += top.at, i",
           ("tests/test_topology.py::TestMask::test_e1_fixture_bit_for_bit",),
           "one tag state machine: the validator lays out the walk"),
    Mutant("no-l-max-update", "validation.py",
           "                    top.l_max = length\n",
           "                    pass\n",
           ("tests/test_topology.py::TestPositions::test_e1_fixture",),
           "one tag state machine: the validator lays out the walk"),
    Mutant("layout-on-a-broken-report", "validation.py",
           "        return ValidationReport(tuple(violations))\n",
           "        return ValidationReport(tuple(violations), _layout=(scanned, bounds))\n",
           (LAYOUT_INVARIANT,),
           "one tag state machine: the validator lays out the walk"),
    Mutant("walk-returns-the-layout-lists", "topology.py",
           "tuple(tuple(zip(f.steps[::2], f.steps[1::2]))",
           "tuple(list(zip(f.steps[::2], f.steps[1::2]))",
           (LAYOUT_INVARIANT,),
           "one tag state machine: the validator lays out the walk"),
    Mutant("scan-returns-the-token", "tags.py",
           "list(map(_TAG_BY_TEXT.__getitem__, map(texts.__getitem__, indices)))",
           "list(map(texts.__getitem__, indices))",
           ("tests/test_document.py::TestTags::test_vocabulary",),
           "the one tag scan in compress and map"),
    Mutant("finish-builds-stats", "engine.py",
           "    return GenerationRun(parse_document(tokens), run.log, run.jumps, run.step)\n",
           "    done = GenerationRun(parse_document(tokens), run.log, run.jumps, run.step)\n"
           "    topology_stats(tokens)\n"
           "    return done\n",
           STATS_ON_READ,
           "stats built on read"),
    Mutant("numpy-scalar-as-a-row", "advantages.py",
           "        if isinstance(adv, Real):\n",
           "        if isinstance(adv, (int, float)):\n",
           ("tests/test_advantages.py::TestScalarAdvantages::test_any_real_scalar_broadcasts",),
           "scalar advantages broadcast as one float"),
    Mutant("misplaced-open-keeps-the-answer", "validation.py",
           '                flag(1, i, "block may only open at top level or inside a step")\n'
           "                balanced = False\n",
           '                flag(1, i, "block may only open at top level or inside a step")\n',
           ANSWER_IS_THE_PARSERS,
           "filter predicts from the validator's one scan"),
    Mutant("misplaced-tag-keeps-the-answer", "validation.py",
           "            flag(1, i, message)\n            balanced = False\n",
           "            flag(1, i, message)\n",
           ANSWER_IS_THE_PARSERS,
           "filter predicts from the validator's one scan"),
    Mutant("unclosed-block-keeps-the-answer", "validation.py",
           "    if not balanced or stack:\n",
           "    if not balanced:\n",
           ANSWER_IS_THE_PARSERS,
           "filter predicts from the validator's one scan"),
    Mutant("strict-nesting-clears-the-answer", "validation.py",
           '                    flag(1, i, "nested block forbidden in strict mode")\n',
           '                    flag(1, i, "nested block forbidden in strict mode")\n'
           "                    balanced = False\n",
           ANSWER_IS_THE_PARSERS,
           "filter predicts from the validator's one scan"),
    Mutant("filter-parses-again", "cli.py",
           "        correct = exact_boxed_match(report.boxed_answer, gold)\n",
           "        correct = (exact_boxed_match(report.boxed_answer, gold)\n"
           "                   and parse_document(tokens) is not None)\n",
           ("tests/test_cli.py::TestRewardAndFilter::test_filter_never_parses",),
           "filter predicts from the validator's one scan"),
    Mutant("run-flushes-from-an-old-position", "cache.py",
           "            lease._node, lease._length = node, depth\n"
           "            if i == n:\n"
           "                break\n",
           "            if i == n:\n"
           "                lease._node, lease._length = node, depth\n"
           "                break\n",
           ("tests/test_rl_step.py::test_run_examples_flush_partway_and_overflow",),
           "jump-forward rounds"),
    Mutant("jump-takes-the-closing-round", "engine.py",
           "                                    for b in active]) - 1)\n",
           "                                    for b in active]))\n",
           JUMPS_LIKE_THE_REFERENCE,
           "jump-forward rounds"),
    Mutant("jump-ignores-the-ledger", "engine.py",
           "                k = min(ledger.remaining, cache.budget - cache.usage) // n\n",
           "                k = (cache.budget - cache.usage) // n\n",
           JUMPS_LIKE_THE_REFERENCE,
           "jump-forward rounds"),
    Mutant("jump-ignores-the-free-slots", "engine.py",
           "                k = min(ledger.remaining, cache.budget - cache.usage) // n\n",
           "                k = ledger.remaining // n\n",
           JUMPS_LIKE_THE_REFERENCE,
           "jump-forward rounds"),
    Mutant("jump-logs-branch-major", "engine.py",
           "        tokens += chain.from_iterable(zip(*runs))\n",
           "        tokens += chain.from_iterable(runs)\n",
           JUMPS_LIKE_THE_REFERENCE,
           "jump-forward rounds"),
    Mutant("jump-segment-spliced-at-the-end", "engine.py",
           "    for at, step, k, bids, runs in jumps:\n",
           "    for _, step, k, bids, runs in jumps:\n"
           "        at = len(log[0])\n",
           JUMPS_LOG_LIKE_THE_REFERENCE,
           "a jump is one log segment"),
    Mutant("runs-compare-by-storage", "engine.py",
           "        return (self.doc, self.decode_steps, self.events) == (\n"
           "            other.doc, other.decode_steps, other.events)\n",
           "        return (self.doc, self.decode_steps, self._log, self._jumps) == (\n"
           "            other.doc, other.decode_steps, other._log, other._jumps)\n",
           ("tests/test_engine.py::test_runs_compare_by_their_events_not_their_storage",),
           "a jump is one log segment"),
    Mutant("jump-counts-one-step-short", "engine.py",
           "    run.step += k\n",
           "    run.step += k - 1\n",
           JUMPS_LIKE_THE_REFERENCE,
           "jump-forward rounds"),
    Mutant("charge-rounds-overcharges", "ledger.py",
           "(self.max_new_tokens - self.charged) // active_branches)",
           "(self.max_new_tokens - self.charged + 1) // active_branches)",
           ("tests/test_ledger.py::test_charge_rounds_is_k_charges",),
           "jump-forward rounds"),
    Mutant("subclass-jumps-too", "engine.py",
           "    scripted = type(policy).next_token is ScriptedPolicy.next_token\n",
           "    scripted = isinstance(policy, ScriptedPolicy)\n",
           JUMPS_LIKE_THE_REFERENCE,
           "jump-forward rounds"),
    Mutant("split-copies-the-suffix", "cache.py",
           "        parent[node] = head\n        return head\n",
           "        parent[node] = head\n"
           "        self._run[node], self._base[node] = run[depth - base:], depth\n"
           "        return head\n",
           (RUN_EDGES + "test_a_split_copies_no_tokens",),
           "run-length radix edges"),
    Mutant("split-relocates-the-leases", "cache.py",
           "        parent[node] = head\n        return head\n",
           "        parent[node] = head\n"
           "        for lease in self._leases:\n"
           "            self._locate(lease)\n"
           "        return head\n",
           (RUN_EDGES + "test_a_split_does_not_walk_the_leases",),
           "run-length radix edges"),
    Mutant("run-extends-per-token", "cache.py",
           "        tokens = list(tokens)\n        if not tokens:\n            return 0\n",
           "        return sum(self.extend(lease, token) for token in tokens)\n",
           (RUN_EDGES + "test_a_run_costs_the_same_lines_at_any_length",),
           "run-length radix edges"),
    Mutant("finished-run-keeps-records", "engine.py",
           "    return GenerationRun(parse_document(tokens), run.log, run.jumps, run.step)\n",
           "    done = GenerationRun(parse_document(tokens), run.log, run.jumps, run.step)\n"
           "    done.__dict__['records'] = done.events\n"
           "    return done\n",
           ("tests/test_rl_step.py::test_logs_are_stored_plain_and_read_as_records",),
           "run-length radix edges: the event log as columns"),
    Mutant("refusal-keeps-its-lease", "cache.py",
           "        except BudgetExceeded:\n"
           "            del self._leases[lease]\n"
           "            raise\n",
           "        except BudgetExceeded:\n"
           "            raise\n",
           ("tests/test_cache.py::TestMatchAndInsert::test_a_refusal_leaves_no_lease",),
           "one pin: an insertion pins through its own lease"),
    Mutant("lease-pinned-after-the-flush", "cache.py",
           "        self._leases[lease] = None\n"
           "        try:\n"
           "            self._reserve(len(tokens) - matched)\n"
           "        except BudgetExceeded:\n"
           "            del self._leases[lease]\n"
           "            raise\n",
           "        self._reserve(len(tokens) - matched)\n"
           "        self._leases[lease] = None\n",
           ("tests/test_cache.py::TestMatchAndInsert::test_matched_path_protected_during_flush",),
           "one pin: an insertion pins through its own lease"),
    Mutant("main-stream-flush-after-emit", "engine.py",
           "            if cache.flush_count != flushes:\n"
           "                self._event(\"flush\")\n"
           "            out.append(token)\n"
           "            self.emission_log.append(token)\n"
           "            self._event(\"emit\", token=token)\n",
           "            out.append(token)\n"
           "            self.emission_log.append(token)\n"
           "            self._event(\"emit\", token=token)\n"
           "            if cache.flush_count != flushes:\n"
           "                self._event(\"flush\")\n",
           ("tests/test_engine.py::test_each_flush_is_logged_once_just_before_its_emit",),
           "the main stream's emit folded into sequential"),
)


def run_tests(src: Path, killers, cwd: str) -> int | None:
    """Pytest's exit code for ``killers`` run with ``-x`` against the
    package in ``src``, or None when the run passes ``TIMEOUT_S`` and is
    stopped."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *(str(ROOT / k) for k in killers)]
    try:
        return subprocess.run(command, cwd=cwd, env=env, capture_output=True,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def verdict(mutant: Mutant) -> str:
    text = (ROOT / "src" / "paratrace" / mutant.path).read_text()
    if text.count(mutant.snippet) != 1:
        return "STALE: the snippet does not occur exactly once"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = copy_src(tmp)
        (src / "paratrace" / mutant.path).write_text(
            text.replace(mutant.snippet, mutant.replacement))
        code = run_tests(src, mutant.killers, tmp)
    if code is None:
        return "killed (timeout)"
    if code == 1:
        return "killed"
    if code == 0:
        return "SURVIVED"
    return f"ERROR: pytest exited {code}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print("unknown mutants:", ", ".join(sorted(unknown)))
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    killers = sorted({k for m in mutants for k in m.killers})
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = copy_src(tmp)
        where = subprocess.run(
            [sys.executable, "-c", "import paratrace; print(paratrace.__file__)"],
            cwd=tmp, env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(src)):
            print(f"the copy is not what is imported: paratrace is {where or 'missing'}")
            return 2
        code = run_tests(src, killers, tmp)
    if code is None:
        print(f"the killers run past {TIMEOUT_S} s on the unmutated source")
        return 2
    if code != 0:
        print(f"the killers do not pass on the unmutated source (pytest exited {code};"
              " 4 means a killer id names no test)")
        return 2
    failed = timeouts = 0
    for mutant in mutants:
        result = verdict(mutant)
        failed += not result.startswith("killed")
        timeouts += result == "killed (timeout)"
        print(f"{mutant.name:36} {result:16}  {mutant.path}: {mutant.guards}", flush=True)
    print(f"{len(mutants) - failed} of {len(mutants)} mutants killed,"
          f" {timeouts} of them by timeout")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
