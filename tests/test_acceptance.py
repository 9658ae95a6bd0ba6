"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
as they happen; they also appear in captured output).
"""

import json
import math
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from paratrace import (DoubleRelease, RadixCache, TokenLedger,
                       build_attention_mask, build_position_ids, dapo_surrogate,
                       doc_is_parallel, mask_from_spans_oracle, papo_group_values,
                       papo_surrogate, papo_surrogate_frozen, parallel_rate,
                       parse_document, run_generation, schedule_confluence_check,
                       stage1_reward, topology_stats, validate_structure)
from paratrace import avg_at_k, best_at_k
from paratrace.advantages import EPSILON
from paratrace.cli import main as cli_main
from paratrace.tracefile import read_jsonl, write_jsonl
from paratrace.validation import ValidationReport, Violation

from conftest import (E1, E1_POSITIONS, assert_topology_invariants,
                      e1_expected_mask)
from test_engine import random_policy
from test_topology import TestStats


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE C{criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_c01_reference_fixture():
    positions = build_position_ids(E1)
    mask = build_attention_mask(E1)
    exact = positions == E1_POSITIONS
    bit_for_bit = np.array_equal(mask.dense(), e1_expected_mask())

    best = math.inf
    for _ in range(20):
        t0 = time.perf_counter()
        build_position_ids(E1)
        build_attention_mask(E1).dense()
        best = min(best, time.perf_counter() - t0)
    fast = best < 1e-3

    report(1, exact and bit_for_bit and fast,
           f"positions exact={exact}, mask bit-for-bit={bit_for_bit}, "
           f"best runtime {best * 1e6:.0f} us")


def test_c02_mask_oracle_equivalence(corpus_1000):
    t0 = time.perf_counter()
    mismatched = 0
    for tokens in corpus_1000:
        streaming = build_attention_mask(tokens).dense()
        oracle = mask_from_spans_oracle(tokens).dense()
        mismatched += int(np.count_nonzero(streaming != oracle))
    elapsed = time.perf_counter() - t0
    report(2, mismatched == 0 and elapsed < 10.0,
           f"1000 documents, {mismatched} mismatched entries, {elapsed:.2f}s")


def test_c03_joint_invariants(corpus_1000):
    violations = 0
    first_error = ""
    for tokens in corpus_1000:
        try:
            assert_topology_invariants(tokens)
        except AssertionError as exc:
            violations += 1
            first_error = first_error or str(exc)
    report(3, violations == 0,
           f"1000 documents, {violations} invariant violations {first_error}")


def test_c04_cache_safety_fuzz():
    rng = random.Random(0xC0FFEE)
    budget = 600
    cache = RadixCache(budget)
    active: list = []
    released: list = []
    ops = 0
    fork_cycles = 0
    injected = 0
    spurious = 0
    missed = 0

    def vocab(i: int) -> str:
        return f"t{i}"

    def checked(fn, *args):
        nonlocal ops, spurious
        try:
            return fn(*args)
        except DoubleRelease:
            spurious += 1
            raise
        except Exception:
            return None
        finally:
            ops += 1
            assert cache.usage <= budget

    t0 = time.perf_counter()
    while ops < 100_000:
        roll = rng.random()
        if roll < 0.30 and active:
            checked(cache.extend, rng.choice(active), vocab(rng.randrange(40)))
        elif roll < 0.55:
            tokens = [vocab(rng.randrange(8)) for _ in range(rng.randint(1, 6))]
            lease = checked(cache.match_and_insert, tokens)
            if lease is not None:
                active.append(lease)
        elif roll < 0.75 and active:
            lease = active.pop(rng.randrange(len(active)))
            checked(cache.release, lease)
            released.append(lease)
        elif roll < 0.80 and released:
            injected += 1
            lease = rng.choice(released)
            try:
                checked(cache.release, lease)
                missed += 1
            except DoubleRelease:
                spurious -= 1  # expected: not a spurious raise
        else:
            fork_cycles += 1
            prefix = [vocab(rng.randrange(8)) for _ in range(rng.randint(2, 8))]
            children = []
            for _ in range(rng.randint(2, 4)):
                lease = checked(cache.match_and_insert, prefix)
                if lease is None:
                    continue
                for k in range(rng.randint(1, 5)):
                    checked(cache.extend, lease, vocab(rng.randrange(60)))
                children.append(lease)
            for lease in children:
                checked(cache.release, lease)
                released.append(lease)
        if ops % 2000 < 2:
            cache.check_integrity()
        if len(active) > 40:
            lease = active.pop(0)
            checked(cache.release, lease)
            released.append(lease)
        if len(released) > 200:
            del released[:100]
    cache.check_integrity()
    elapsed = time.perf_counter() - t0
    ok = (spurious == 0 and missed == 0 and injected > 100
          and fork_cycles >= 20 and elapsed < 30.0)
    report(4, ok,
           f"{ops} ops, {fork_cycles} fork/join cycles, {injected} injected "
           f"double-releases (missed {missed}, spurious {spurious}), {elapsed:.2f}s")


def test_c05_ledger_vs_longest_branch_foil():
    ledger = TokenLedger(100)
    while ledger.charge(3):
        pass

    def longest_branch_total(branches: int, budget: int) -> int:
        counters = [0] * branches
        total = 0
        while max(counters) < budget:
            for b in range(branches):
                counters[b] += 1
                total += 1
        return total

    foil = longest_branch_total(3, 100)
    report(5, ledger.charged == 100 and foil == 300 and foil - ledger.charged == 200,
           f"ledger halted at {ledger.charged}, foil charged {foil}")


def test_c06_confluence_over_schedules():
    rng = random.Random(606)
    failures = 0
    for _ in range(100):
        policy = random_policy(rng, min_branches=1, max_branches=4)
        if not schedule_confluence_check(policy):
            failures += 1
    report(6, failures == 0, f"100 scripted policies, {failures} divergences")


def test_c07_papo_numerics():
    values = papo_group_values([[1.0, -1.0], [1.0, 1.0]])
    expected = [1.1547, -1.1547, 0.0, 0.0]
    fixture_ok = all(abs(a - b) <= 1e-4 for a, b in zip(values.advantages, expected))

    rng = random.Random(707)
    invariance_ok = True
    checked = 0
    while checked < 100:
        groups = [[rng.uniform(-2, 2) for _ in range(rng.randint(2, 5))]
                  for _ in range(rng.randint(1, 5))]
        sizes = {len(g) for g in groups}
        if len(sizes) != 1:
            groups = [g[:min(sizes)] for g in groups]
        base = papo_group_values(groups)
        if base.divisor <= EPSILON:
            continue
        checked += 1
        shift = rng.uniform(-5, 5)
        scale = rng.uniform(0.05, 20)
        for variant in (
            papo_group_values([[r + shift for r in g] for g in groups]),
            papo_group_values([[r * scale for r in g] for g in groups]),
        ):
            for a, b in zip(base.advantages, variant.advantages):
                tol = 1e-9 * max(1.0, abs(a))
                if abs(a - b) > tol:
                    invariance_ok = False
    report(7, fixture_ok and invariance_ok,
           f"fixture within 1e-4: {fixture_ok}; shift/scale invariance on "
           f"{checked} batches at 1e-9: {invariance_ok}")


def test_c08_gradient_contract():
    rng = np.random.default_rng(808)
    n_tokens, n_vocab = 8, 16
    logits = rng.normal(size=(n_tokens, n_vocab))
    # Vocabulary ids 0..7 are the structural tags; make half the sampled
    # positions tag tokens.
    chosen = np.array([0, 9, 2, 11, 5, 13, 7, 15])
    tag_positions = [t for t, v in enumerate(chosen) if v < 8]

    def log_softmax(z):
        z = z - z.max(axis=-1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    lp = log_softmax(logits)[np.arange(n_tokens), chosen]
    advantage = 1.3
    loss, grads = papo_surrogate([list(lp)], [advantage])
    grads = grads[0]

    h = 1e-5
    max_rel = 0.0
    # Finite differences directly on token log-probs.
    for t in range(n_tokens):
        up, down = list(lp), list(lp)
        up[t] += h
        down[t] -= h
        fd = (papo_surrogate_frozen([up], [list(lp)], [advantage])
              - papo_surrogate_frozen([down], [list(lp)], [advantage])) / (2 * h)
        max_rel = max(max_rel, abs(fd - grads[t]) / abs(grads[t]))
    # Finite differences through the softmax policy's chosen-token logits.
    for t in range(n_tokens):
        analytic = grads[t] * (1.0 - math.exp(lp[t]))
        zu, zd = logits.copy(), logits.copy()
        zu[t, chosen[t]] += h
        zd[t, chosen[t]] -= h
        lpu = log_softmax(zu)[np.arange(n_tokens), chosen]
        lpd = log_softmax(zd)[np.arange(n_tokens), chosen]
        fd = (papo_surrogate_frozen([list(lpu)], [list(lp)], [advantage])
              - papo_surrogate_frozen([list(lpd)], [list(lp)], [advantage])) / (2 * h)
        max_rel = max(max_rel, abs(fd - analytic) / abs(analytic))
    fd_ok = max_rel < 1e-5

    tags_ok = all(abs(grads[t]) > 0 for t in tag_positions) and len(tag_positions) >= 2

    # Clipped-ratio foil: ratio 2 at even positions, 1 at odd positions.
    old = [0.0] * n_tokens
    new = [math.log(2.0) if t % 2 == 0 else 0.0 for t in range(n_tokens)]
    foil_zero = True
    foil_live = True
    for t in range(n_tokens):
        up, down = list(new), list(new)
        up[t] += h
        down[t] -= h
        fd = (dapo_surrogate([old], [up], [1.0])
              - dapo_surrogate([old], [down], [1.0])) / (2 * h)
        if t % 2 == 0:
            foil_zero &= abs(fd) < 1e-9
        else:
            foil_live &= abs(fd) > 1e-3
    report(8, fd_ok and tags_ok and foil_zero and foil_live,
           f"max FD relative error {max_rel:.2e}; tag positions carry gradient: "
           f"{tags_ok}; clipped foil sensitivity zero: {foil_zero}")


def test_c09_reward_truth_table():
    def fabricated(n_failed: int) -> ValidationReport:
        violations = tuple(Violation(c, 0, "x") for c in range(1, n_failed + 1))
        return ValidationReport(violations)

    from paratrace import format_reward

    ok = format_reward(fabricated(0)) == 0.0
    for n in range(0, 7):
        fr = format_reward(fabricated(n))
        ok &= (fr == 0.0) if n == 0 else (-2.0 <= fr < 0.0 and math.isclose(fr, -2.0 * n / 6))
        for correct in (True, False):
            pred = "42" if correct else "0"
            r = stage1_reward(fabricated(n), pred, "42")
            if n == 0:
                ok &= r == (1.0 if correct else -1.0)
            else:
                ok &= math.isclose(r, -2.0 * n / 6) and -2.0 <= r < 0.0

    from paratrace import accept_filter
    valid = E1 + ["\\boxed{42}"]
    broken = [t for t in valid if t != "</takeaway>"]
    corners = (
        accept_filter(valid, "42", "42") is True,
        accept_filter(valid, "0", "42") is False,
        accept_filter(broken, "42", "42") is False,
        accept_filter(broken, "0", "42") is False,
    )
    report(9, ok and all(corners),
           f"stage-1 truth table exact: {ok}; filter corners: {corners}")


def test_c10_metrics():
    rng = random.Random(1010)
    stats = []
    for _ in range(40):
        policy = random_policy(rng, min_branches=2, max_branches=4)
        run = run_generation(policy, RadixCache(1 << 14), TokenLedger(1 << 14))
        stats.append(run.stats)
    rate = parallel_rate([doc_is_parallel(s) for s in stats])

    spot = avg_at_k(3, 8) == 0.375 and best_at_k([False] * 8) is False

    fork22 = TestStats.forked_doc(branches=3, prefix_len=4, step_len=5, tail_len=3)
    speedup = topology_stats(fork22).compression_ratio
    speedup_ok = abs(speedup - 22 / 12) <= 1e-9

    ratios = [topology_stats(TestStats.forked_doc(b)).compression_ratio
              for b in range(1, 8)]
    monotone = all(b > a for a, b in zip(ratios, ratios[1:]))

    report(10, rate == 100.0 and spot and speedup_ok and monotone,
           f"engine corpus parallel rate {rate}; avg@8(3)=0.375: {spot}; "
           f"3-branch speedup {speedup:.6f}; monotone in branches: {monotone}")


def test_c11_end_to_end_pipeline(tmp_path):
    def run_pipeline(root: Path) -> dict:
        root.mkdir(parents=True, exist_ok=True)
        cwd = os.getcwd()
        os.chdir(root)
        try:
            rc = {}
            rc["gen"] = cli_main(["--seed", "13", "--output-dir", "out",
                                  "--manifest", "out/m_gen.json", "gen-corpus",
                                  "--docs", "500", "--corruption", "0.2"])
            rc["validate"] = cli_main(["--output-dir", "out",
                                       "--manifest", "out/m_validate.json",
                                       "validate", "out/corpus.jsonl"])
            rc["filter"] = cli_main(["--output-dir", "out",
                                     "--manifest", "out/m_filter.json",
                                     "filter", "out/corpus.jsonl"])
            rc["mask"] = cli_main(["--output-dir", "out",
                                   "--manifest", "out/m_mask.json",
                                   "mask", "out/corpus.jsonl"])
            rc["posid"] = cli_main(["--output-dir", "out",
                                    "--manifest", "out/m_posid.json",
                                    "posid", "out/corpus.jsonl"])
            outcomes = [{"id": r["id"], "correct": r["correct"]}
                        for r in read_jsonl("out/filter_report.jsonl")]
            write_jsonl("out/outcomes.jsonl", outcomes)
            rc["metrics"] = cli_main(["--output-dir", "out",
                                      "--manifest", "out/m_metrics.json",
                                      "metrics", "out/corpus.jsonl",
                                      "--outcomes", "out/outcomes.jsonl"])
            manifests = {name: (root / "out" / f"m_{name}.json").read_text()
                         for name in ("gen", "validate", "filter", "mask",
                                      "posid", "metrics")}
            return {"rc": rc, "manifests": manifests}
        finally:
            os.chdir(cwd)

    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    identical = first == second

    out1 = tmp_path / "run1" / "out"
    corrupted = {r["id"] for r in read_jsonl(out1 / "corpus_key.jsonl")
                 if r["corrupted"]}
    invalid = {r["id"] for r in read_jsonl(out1 / "validation_report.jsonl")
               if not r["ok"]}
    rejected = {r["id"] for r in read_jsonl(out1 / "filter_report.jsonl")
                if not r["accepted"]}
    exact = corrupted == invalid == rejected

    codes_ok = (first["rc"]["gen"] == 0 and first["rc"]["validate"] == 1
                and first["rc"]["filter"] == 0 and first["rc"]["metrics"] == 0)

    report(11, identical and exact and codes_ok and len(corrupted) > 0,
           f"two runs identical: {identical}; {len(corrupted)} corrupted docs, "
           f"rejected exactly: {exact}; exit codes ok: {codes_ok}")
