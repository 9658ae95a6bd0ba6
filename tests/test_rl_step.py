"""The RL step's fast paths against their references, and its record types.

The array-form clipped and frozen-reference surrogates, the cache's
mark-and-free flush, its end-only pins and its run-at-a-time ``extend_run``
are compared with the forms kept in ``reference_rl.py`` and with one
``extend`` per token. The record types the engine and the ledger hand out
keep their public contract whatever their implementation: the logs store
columns, and each read builds the records.
"""

from __future__ import annotations

import gc
import inspect
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from paratrace import (BudgetExceeded, DoubleRelease, GenerationEvent, IllegalSchema,
                       LedgerEntry, RadixCache, ScriptedPolicy, TokenLedger, dapo_advantage,
                       dapo_surrogate, papo_group_values, papo_surrogate,
                       papo_surrogate_frozen, run_generation)
from paratrace.advantages import CLIP_HIGH, CLIP_LOW, EPSILON
from reference_rl import (PathPinningCache, cache_tree, ref_dapo_surrogate, ref_flush,
                          ref_group_advantages, ref_papo_surrogate_frozen)

# -- advantage normalizer ---------------------------------------------------

# Stage-1 and stage-3 reward values, so groups often tie, or any in range.
REWARD = st.one_of(st.sampled_from([-1.0, -1 / 3, 0.0, 1.0]), st.floats(-3, 1))


@st.composite
def reward_groups(draw):
    """1 to 6 groups of one size from 2 to 8, some with a single value."""
    size = draw(st.integers(2, 8))
    group = st.one_of(st.lists(REWARD, min_size=size, max_size=size),
                      REWARD.map(lambda r: [r] * size))
    return draw(st.lists(group, min_size=1, max_size=6))


def assert_matches_reference(got, groups) -> None:
    advantages, baselines, divisor = ref_group_advantages(groups, EPSILON)
    assume(abs(divisor - EPSILON) > 1e-9)  # either side of the cut may round
    assert got.divisor == pytest.approx(divisor, rel=1e-9, abs=1e-12)
    assert got.baselines == pytest.approx(baselines, rel=1e-9, abs=1e-12)
    if divisor <= EPSILON:
        assert got.advantages == (0.0,) * len(advantages)
    else:
        assert got.advantages == pytest.approx(advantages, rel=1e-9, abs=1e-9)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(reward_groups())
@example([[0.5, 0.5], [0.5, 0.5]])
@example([[1.0, -1.0], [1.0, 1.0]])
def test_normalizer_matches_scalar_reference(groups):
    """PAPO over the whole batch, and DAPO over each group on its own."""
    assert_matches_reference(papo_group_values(groups), groups)
    for group in groups:
        assert_matches_reference(dapo_advantage(group), [group])

# -- clipped surrogate ------------------------------------------------------

ADVANTAGE = st.one_of(st.floats(-4, 4), st.just(0.0), st.sampled_from([0, 1, -1]))
# Log-ratios that np.exp maps exactly onto the clip band's edges.
LOW_DELTA, HIGH_DELTA = math.log(1.0 - CLIP_LOW), math.log(1.0 + CLIP_HIGH)


@st.composite
def surrogate_case(draw):
    """Records of 0..10 tokens, some exactly on a clip boundary, with
    per-record or per-token advantages."""
    token = st.one_of(
        st.tuples(st.floats(-5, 0), st.floats(-2, 2)),
        st.just((0.0, LOW_DELTA)),
        st.just((0.0, HIGH_DELTA)))
    records = draw(st.lists(st.lists(token, max_size=10), min_size=1, max_size=5)
                   .filter(lambda rs: any(rs)))
    old = [[o for o, _ in r] for r in records]
    new = [[o + d for o, d in r] for r in records]
    advantages = [draw(st.one_of(ADVANTAGE, st.lists(ADVANTAGE, min_size=len(r),
                                                     max_size=len(r))))
                  for r in records]
    return old, new, advantages


@settings(max_examples=400, deadline=None)
@given(surrogate_case())
def test_dapo_surrogate_matches_scalar_reference(case):
    old, new, advantages = case
    want = ref_dapo_surrogate(old, new, advantages, CLIP_LOW, CLIP_HIGH)
    got = dapo_surrogate(old, new, advantages)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_boundary_ratios_are_exact():
    """The strategy's boundary tokens sit exactly on the clip band's edges."""
    assert float(np.exp(LOW_DELTA - 0.0)) == 1.0 - CLIP_LOW == 0.8
    assert float(np.exp(HIGH_DELTA - 0.0)) == 1.0 + CLIP_HIGH == 1.28
    old, new = [[0.0, 0.0], []], [[LOW_DELTA, HIGH_DELTA], []]
    for adv in ([1.0, 2.0], [[-1.0, 1.0], []], [0.0, 0.0]):
        assert dapo_surrogate(old, new, adv) == pytest.approx(
            ref_dapo_surrogate(old, new, adv, CLIP_LOW, CLIP_HIGH), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("old, new, advantages, message", [
    ([[0.0]], [[0.0], [0.0]], [1.0], "record count"),
    ([[0.0, 0.0]], [[0.0]], [1.0], "token count"),
    ([[0.0, 0.0]], [[0.0, 0.0]], [[1.0]], "misaligned"),
    ([[0.0], [0.0, 0.0]], [[0.0], [0.0, 0.0]], [1.0, [1.0]], "misaligned"),
    ([[]], [[]], [1.0], "empty"),
    ([[], []], [[], []], [[], 0.5], "empty"),
    ([], [], [], "empty"),
    # Advantages for fewer or more records than the streams hold.
    ([[0.0], [0.0]], [[0.0], [0.0]], [1.0], "record count"),
    ([[0.0]], [[0.0]], [1.0, 1.0], "record count"),
    # The frozen surrogate called with one more token than its reference.
    ([[0.0]], [[0.0, 0.0]], [1.0], "token count"),
])
def test_dapo_surrogate_refuses_what_the_reference_refuses(old, new, advantages,
                                                           message):
    """All three surrogates refuse what the scalar reference refuses.
    ``papo_surrogate`` reads one stream, so it runs where old and new agree."""
    surrogates = [lambda o, n, a: ref_dapo_surrogate(o, n, a, CLIP_LOW, CLIP_HIGH),
                  dapo_surrogate,
                  lambda o, n, a: papo_surrogate_frozen(n, o, a)]
    if list(map(len, old)) == list(map(len, new)):
        surrogates.append(lambda o, n, a: papo_surrogate(n, a))
    for surrogate in surrogates:
        with pytest.raises(ValueError, match=message):
            surrogate(old, new, advantages)


@settings(max_examples=400, deadline=None)
@given(surrogate_case())
def test_papo_surrogate_frozen_matches_scalar_reference(case):
    old, new, advantages = case
    want = ref_papo_surrogate_frozen(new, old, advantages)
    got = papo_surrogate_frozen(new, old, advantages)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


# -- cache ------------------------------------------------------------------

def tree_snapshot(cache) -> list[tuple[int, str, int]]:
    """(depth, token, pins) of every node in pre-order, children in
    insertion order: the tree's shape, token paths, order and pins."""
    out = []
    stack = [cache_tree(cache)]
    while stack:
        for token, pins, subtree in stack[-1]:
            out.append((len(stack), token, pins))
            stack.append(subtree)
            break
        else:
            stack.pop()
    return out


class RecordingCache(RadixCache):
    """A cache that logs the outcome of every flush, with ``flush_impl``."""

    def __init__(self, budget: int, flush_impl):
        super().__init__(budget)
        self.flush_impl = flush_impl
        self.flushes = []

    def flush(self) -> int:
        freed = self.flush_impl(self)
        self.flushes.append((freed, self.usage, self.flush_count, tree_snapshot(self)))
        return freed


def pair(budget: int) -> tuple[RecordingCache, RecordingCache]:
    return RecordingCache(budget, RadixCache.flush), RecordingCache(budget, ref_flush)


def apply(cache, live: list, spent: list, op, reference: bool = False):
    """Run one operation on the ``live`` leases, or release a ``spent`` one
    again; returns its result or the type of the exception it raised. A
    ``run`` is one ``extend_run``, or on the ``reference`` side the same
    tokens passed one at a time to ``extend``."""
    kind, arg, token = op
    try:
        if kind == "insert":
            live.append(cache.match_and_insert(arg))
            return live[-1].matched, live[-1].new_slots
        if kind == "flush":
            return cache.flush()
        pool = spent if kind == "again" else live
        if not pool:
            return None
        lease = pool[arg % len(pool)]
        if kind == "extend":
            return cache.extend(lease, token)
        if kind == "run":
            if reference:
                return sum(cache.extend(lease, t) for t in token)
            return cache.extend_run(lease, token)
        if kind == "release":
            live.remove(lease)
            spent.append(lease)
        return cache.release(lease)
    except (BudgetExceeded, DoubleRelease) as exc:
        return type(exc)


TOKEN = st.sampled_from("abc")
OP = st.one_of(
    st.tuples(st.just("insert"), st.lists(TOKEN, max_size=6), st.none()),
    st.tuples(st.sampled_from(["extend", "extend", "release", "again"]),
              st.integers(0, 7), TOKEN),
    st.tuples(st.just("run"), st.integers(0, 7), st.lists(TOKEN, max_size=8)),
    st.tuples(st.just("flush"), st.none(), st.none()))

# A released two-token path fills a three-slot cache but one slot; a run from
# the root then flushes it after its first token, and either completes or
# fills the cache with its own path and overflows on its fourth token.
_FILL = [("insert", ["a", "b"], None), ("release", 0, None), ("insert", [], None)]
RUN_FLUSHES = (3, _FILL + [("run", 0, ["c", "a"])])
RUN_OVERFLOWS = (3, _FILL + [("run", 0, ["c", "a", "b", "c"])])


def test_run_examples_flush_partway_and_overflow():
    """The two examples below reach what they are named for: a run that
    flushes after its first token and completes, and one that flushes, then
    raises with the three tokens before the refusal kept on its lease."""
    for (budget, ops), last, flushes, length in ((RUN_FLUSHES, 2, 1, 2),
                                                 (RUN_OVERFLOWS, BudgetExceeded, 2, 3)):
        cache, (live, spent) = RadixCache(budget), ([], [])
        assert [apply(cache, live, spent, op) for op in ops][-1] == last
        assert (cache.flush_count, len(live[0])) == (flushes, length)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.lists(OP, max_size=60))
@example(*RUN_FLUSHES)
@example(*RUN_OVERFLOWS)
def test_flush_matches_post_order_reference(budget, ops):
    fast, ref = pair(budget)
    fast_leases, ref_leases = ([], []), ([], [])
    for op in ops:
        assert (apply(fast, *fast_leases, op)
                == apply(ref, *ref_leases, op, reference=True)), op
        assert fast.flushes == ref.flushes
        assert (fast.usage, fast.flush_count) == (ref.usage, ref.flush_count)
        fast.check_integrity()
    assert tree_snapshot(fast) == tree_snapshot(ref)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.lists(OP, max_size=60))
def test_id_tables_stay_within_budget_plus_one(budget, ops):
    """Freed ids are reused: whatever the inserts, extends, releases and
    flushes, the cache's id tables hold at most ``budget + 1`` entries."""
    cache = RadixCache(budget)
    leases = ([], [])
    for op in ops:
        apply(cache, *leases, op)
        assert max(map(len, (cache._children, cache._parent, cache._run, cache._base,
                             cache._end))) <= budget + 1


def pinned_paths(cache) -> set[tuple[str, ...]]:
    """Token paths of the pinned nodes below the root."""
    out = set()
    stack = [(cache_tree(cache), ())]
    while stack:
        nodes, path = stack.pop()
        for token, pins, subtree in nodes:
            if pins:
                out.add(path + (token,))
            stack.append((subtree, path + (token,)))
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.lists(OP, max_size=60))
@example(*RUN_FLUSHES)
@example(*RUN_OVERFLOWS)
def test_tip_pins_match_path_pinning_reference(budget, ops):
    """A lease that pins only its tip behaves as one that pins its whole path:
    the same results and refusals, the same flushes, the same tree, and the
    reference pins exactly the ancestors-or-self of the pinned tips."""
    fast, ref = RadixCache(budget), PathPinningCache(budget)
    fast_leases, ref_leases = ([], []), ([], [])
    for op in ops:
        assert (apply(fast, *fast_leases, op)
                == apply(ref, *ref_leases, op, reference=True)), op
        assert (fast.usage, fast.flush_count) == (ref.usage, ref.flush_count)
        assert ([node[:2] for node in tree_snapshot(fast)]
                == [node[:2] for node in tree_snapshot(ref)])
        covered = {tip[:k] for tip in pinned_paths(fast) for k in range(1, len(tip) + 1)}
        assert pinned_paths(ref) == covered
        fast.check_integrity()
        ref.check_integrity()


def test_flush_of_chain_deeper_than_recursion_limit():
    n = sys.getrecursionlimit() + 100
    chain = [f"t{i}" for i in range(n)]
    results = []
    for cache in pair(n + 4):
        # Dead siblings hang off a chain that stays pinned for its first half.
        cache.release(cache.match_and_insert(chain))
        for depth in (0, n // 2, n // 2 + 1, n - 1):
            cache.release(cache.match_and_insert(chain[:depth] + ["side"]))
        live = cache.match_and_insert(chain[:n // 2])
        extra = cache.match_and_insert(["x", "y"])
        assert cache.flush_count == 1
        results.append((cache.flushes, cache.usage, len(live), len(extra)))
    assert results[0] == results[1]
    [(freed, usage, _, survivors)] = results[0][0]
    assert usage == n // 2 == len(survivors)
    assert freed == n - n // 2 + 4


# -- record types -----------------------------------------------------------

@pytest.mark.parametrize("cls, fields, defaults", [
    (GenerationEvent, ("kind", "step", "branch", "token"), {"branch": None, "token": None}),
    (LedgerEntry, ("step", "active_branches", "charged"), {}),
])
def test_record_fields_and_defaults(cls, fields, defaults):
    params = inspect.signature(cls).parameters
    assert tuple(params) == fields
    assert {name: p.default for name, p in params.items()
            if p.default is not inspect.Parameter.empty} == defaults


@pytest.mark.parametrize("record", [
    GenerationEvent("emit", 3, "1", "x"), GenerationEvent("fork", 0),
    LedgerEntry(2, 3, 1),
])
def test_records_are_hashable_and_read_only(record):
    twin = type(record)(*(getattr(record, name)
                          for name in inspect.signature(type(record)).parameters))
    assert record == twin and hash(record) == hash(twin) and len({record, twin}) == 1
    for name in inspect.signature(type(record)).parameters:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert record == twin


def test_event_json_bytes():
    assert json.dumps(GenerationEvent("emit", 3, "1", "x").to_json_dict()) == (
        '{"v": 1, "kind": "emit", "step": 3, "branch": "1", "token": "x"}')
    assert json.dumps(GenerationEvent("join", 7).to_json_dict()) == (
        '{"v": 1, "kind": "join", "step": 7, "branch": null, "token": null}')


def test_illegal_schema_carries_events():
    policy = ScriptedPolicy(["<guideline>", "</guideline>"], {"1": ["<step>", "x", "</step>"]},
                            ["<takeaway>", "</takeaway>"])
    with pytest.raises(IllegalSchema) as info:
        run_generation(policy, RadixCache(64), TokenLedger(64))
    events = info.value.events
    assert events and all(type(e) is GenerationEvent for e in events)
    assert [e.kind for e in events] == ["emit", "emit", "reject"]
    assert events[-1] == GenerationEvent("reject", 2, None, "header declares no plan")


def test_logs_are_stored_plain_and_read_as_records():
    """A run's event log, a refusal's events and a ledger's timeline read as
    records with their fields and JSON bytes, equal on every read, while the
    stored logs add no object the cyclic collector tracks per entry."""
    policy = ScriptedPolicy(["<guideline>", "<plan>", "1:", "</plan>", "</guideline>"],
                            {"1": ["<step>", "x", "</step>"], "2": ["<step>", "</step>"]},
                            ["<takeaway>", "t", "</takeaway>"])
    ledger = TokenLedger(64)
    run = run_generation(policy, RadixCache(64), ledger)
    with pytest.raises(IllegalSchema) as refused:
        run_generation(ScriptedPolicy(["<guideline>", "</guideline>"],
                                      {"1": ["<step>", "</step>"]},
                                      ["<takeaway>", "</takeaway>"]),
                       RadixCache(64), TokenLedger(64))
    reads = {"events": lambda: run.events, "refused": lambda: refused.value.events,
             "timeline": lambda: ledger.timeline}
    for name, read in reads.items():
        cls = LedgerEntry if name == "timeline" else GenerationEvent
        assert read() == read() and all(type(r) is cls for r in read()), name

    events = run.events
    assert [json.dumps(e.to_json_dict()) for e in events[4:7]] == [
        '{"v": 1, "kind": "emit", "step": 4, "branch": null, "token": "</guideline>"}',
        '{"v": 1, "kind": "fork", "step": 5, "branch": null, "token": null}',
        '{"v": 1, "kind": "emit", "step": 5, "branch": "1", "token": "<step>"}']
    fork = events[5]
    assert (fork.kind, fork.step, fork.branch, fork.token) == ("fork", 5, None, None)
    assert refused.value.events[-1].kind == "reject"
    entry = ledger.timeline[5]
    assert entry == LedgerEntry(5, 2, 2)
    assert (entry.step, entry.active_branches, entry.charged) == (5, 2, 2)

    def tracked(n):
        """Objects the collector tracks that two kept runs and their ledgers
        add: four ``n``-token branches decoded in jumps by a plain policy,
        and token by token by a context-reading one."""
        words = [f"w{i}" for i in range(n)]
        branches = {str(j): ["<step>", *words, "</step>"] for j in range(4)}
        header = ["<guideline>", *["<plan>", "p", "</plan>"] * 4, "</guideline>"]
        policies = (ScriptedPolicy(header, branches, ["<takeaway>", "t", "</takeaway>"]),
                    _ContextPolicy(header, branches, ["<takeaway>", "t", "</takeaway>"]))
        gc.collect()
        before = len(gc.get_objects())
        kept = [(run_generation(p, RadixCache(1 << 16), ledger), ledger)
                for p, ledger in zip(policies, (TokenLedger(1 << 16), TokenLedger(1 << 16)))]
        gc.collect()
        assert [len(run.events) for run, _ in kept] == [4 * n + 27] * 2
        return len(gc.get_objects()) - before

    assert abs(tracked(1_000) - tracked(100)) <= 4


class _ContextPolicy(ScriptedPolicy):
    """Overrides ``next_token``, so its branches decode in the round loop."""

    def next_token(self, branch_id, position, context=()):
        return super().next_token(branch_id, position, context)
