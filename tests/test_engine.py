"""Fork/join simulator: replay fidelity, gating, truncation, confluence."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paratrace import (BranchState, BudgetExceeded, EmissionLogView, IllegalSchema,
                       LedgerExhausted, RadixCache, ScriptedPolicy, TokenLedger,
                       apply_repetition_penalty, parse_document, run_generation,
                       schedule_confluence_check, topology_stats,
                       validate_structure)
from paratrace.engine import SCHEDULES
from conftest import E1, line_events, python_calls
from reference_engine import ref_generation
from reference_rl import cache_tree


def e1_policy() -> ScriptedPolicy:
    return ScriptedPolicy(
        prologue=E1[:8],
        branches={"1": E1[8:12], "2": E1[12:15]},
        takeaway=E1[15:],
    )


def fresh(budget_slots=4096, max_new_tokens=4096):
    return RadixCache(budget_slots), TokenLedger(max_new_tokens)


def random_policy(rng: random.Random, min_branches=1, max_branches=4,
                  with_boxed=True) -> ScriptedPolicy:
    n = rng.randint(min_branches, max_branches)
    prologue = ["<guideline>"]
    for j in range(n):
        prologue += ["<plan>", f"{j + 1}:"] + [f"p{rng.randrange(99)}"
                                               for _ in range(rng.randint(0, 2))]
        prologue.append("</plan>")
    prologue.append("</guideline>")
    branches = {}
    for j in range(n):
        body = [f"b{j}t{k}" for k in range(rng.randint(1, 6))]
        branches[str(j + 1)] = ["<step>", f"{j + 1}:"] + body + ["</step>"]
    tail = ["<takeaway>", "joined", "</takeaway>"]
    if with_boxed:
        tail += ["ans", f"\\boxed{{a{rng.randrange(99)}}}"]
    return ScriptedPolicy(prologue, branches, tail)


class TestReplay:
    def test_e1_script_reproduces_e1(self):
        run = run_generation(e1_policy(), *fresh())
        assert run.doc.texts() == E1
        forks = [e for e in run.events if e.kind == "fork"]
        joins = [e for e in run.events if e.kind == "join"]
        assert len(forks) == 1 and len(joins) == 1
        children = {e.branch for e in run.events if e.kind == "emit" and e.branch}
        assert children == {"1", "2"}

    def test_fork_precedes_child_emits_join_follows_closes(self):
        run = run_generation(e1_policy(), *fresh())
        kinds = [(e.kind, e.branch) for e in run.events]
        fork_at = kinds.index(("fork", None))
        first_child_emit = next(i for i, (k, b) in enumerate(kinds)
                                if k == "emit" and b is not None)
        assert fork_at < first_child_emit
        join_at = kinds.index(("join", None))
        last_child_event = max(i for i, (k, b) in enumerate(kinds) if b is not None)
        assert join_at > last_child_event

    def test_determinism(self):
        a = run_generation(e1_policy(), *fresh())
        b = run_generation(e1_policy(), *fresh())
        assert a.events == b.events
        assert a.doc.texts() == b.doc.texts()

    def test_emits_equal_charged(self):
        rng = random.Random(12)
        for _ in range(30):
            policy = random_policy(rng)
            cache, ledger = fresh()
            run = run_generation(policy, cache, ledger)
            emits = sum(1 for e in run.events if e.kind == "emit")
            assert emits == ledger.charged <= ledger.max_new_tokens

    def test_decode_steps_equal_critical_path(self):
        rng = random.Random(13)
        for _ in range(30):
            run = run_generation(random_policy(rng), *fresh())
            assert run.decode_steps == run.stats.critical_path

    def test_simulated_speedup_matches_output_topology(self):
        run = run_generation(e1_policy(), *fresh())
        assert run.stats.compression_ratio == \
            topology_stats(run.doc.texts()).compression_ratio

    def test_prefix_shared_once_across_branches(self):
        cache, ledger = fresh()
        run = run_generation(e1_policy(), cache, ledger)
        prologue, b1, b2, tail = 8, 4, 3, 3
        # One chain for the prologue; suffixes may share further nodes.
        assert cache.usage <= prologue + b1 + b2 + tail
        assert cache.match_prefix(E1[:8]) == 8

        # The main lease pins the whole prologue, so a branch lease matches
        # all of it: it inserts nothing and never flushes, even when a second
        # run finds the cache full of the first run's unpinned nodes.
        branch_leases = []

        class RecordingCache(RadixCache):
            def match_and_insert(self, tokens):
                before = self.flush_count
                lease = super().match_and_insert(tokens)
                if tokens:
                    branch_leases.append((lease.new_slots, self.flush_count - before))
                return lease

        def two_runs(budget):
            cache = RecordingCache(budget)
            try:
                for _ in range(2):
                    run_generation(e1_policy(), cache, TokenLedger(4096))
            except BudgetExceeded:
                return None
            return cache.flush_count

        flushes = [two_runs(b) for b in range(1, len(E1) + 1)]
        smallest = next(i for i, f in enumerate(flushes) if f is not None)
        sweep = flushes[smallest:]
        assert None not in sweep and sweep[0] > 0 and sweep[-1] == 0
        assert branch_leases and set(branch_leases) == {(0, 0)}


class TestValidatorGate:
    def test_zero_plans_rejected(self):
        policy = ScriptedPolicy(
            prologue=["<guideline>", "note", "</guideline>"],
            branches={"1": ["<step>", "x", "</step>"]},
            takeaway=["<takeaway>", "t", "</takeaway>"])
        cache, ledger = fresh()
        with pytest.raises(IllegalSchema) as exc:
            run_generation(policy, cache, ledger)
        events = exc.value.events
        assert not [e for e in events if e.kind == "fork"]
        assert [e for e in events if e.kind == "reject"]
        assert "<step>" not in exc.value.tokens

    def test_strict_requires_plan_per_branch(self):
        policy = ScriptedPolicy(
            prologue=["<guideline>", "<plan>", "1:", "</plan>", "</guideline>"],
            branches={"1": ["<step>", "a", "</step>"],
                      "2": ["<step>", "b", "</step>"]},
            takeaway=["<takeaway>", "t", "</takeaway>"])
        with pytest.raises(IllegalSchema):
            run_generation(policy, *fresh(), strict_validator=True)
        run = run_generation(policy, *fresh(), strict_validator=False)
        assert validate_structure(run.doc.texts()).failed_categories() == {6}

    def test_malformed_header_rejected(self):
        policy = ScriptedPolicy(
            prologue=["<guideline>", "<plan>", "1:", "</guideline>"],
            branches={"1": ["<step>", "x", "</step>"]},
            takeaway=["<takeaway>", "t", "</takeaway>"])
        with pytest.raises(IllegalSchema):
            run_generation(policy, *fresh())

    def test_script_stream_shape_checked_at_load(self):
        with pytest.raises(ValueError):
            ScriptedPolicy(["<guideline>", "</guideline>"], {}, ["<takeaway>", "</takeaway>"])
        with pytest.raises(ValueError):
            ScriptedPolicy(["<guideline>", "</guideline>"],
                           {"1": ["x", "</step>"]},
                           ["<takeaway>", "</takeaway>"])
        with pytest.raises(ValueError):
            ScriptedPolicy(["<guideline>", "</guideline>"],
                           {"1": ["<step>", "<guideline>", "</step>"]},
                           ["<takeaway>", "</takeaway>"])


class _SilentPolicy(ScriptedPolicy):
    """Returns no token at all, which no script does for an active branch."""

    def next_token(self, branch_id, position, context=()):
        return None


def test_unknown_schedule_is_refused():
    with pytest.raises(ValueError, match="unknown schedule 'zigzag'"):
        run_generation(e1_policy(), *fresh(), schedule="zigzag")


def test_policy_returning_no_token_for_an_active_branch_is_refused():
    silent = _SilentPolicy(E1[:8], {"1": E1[8:12], "2": E1[12:15]}, E1[15:])
    with pytest.raises(ValueError, match="policy returned no token for active branch '1'"):
        run_generation(silent, *fresh())


# Refused by the header gate (content before the guideline open), and with a
# budget of one token only the "x" is emitted before the ledger runs dry.
ILLEGAL_HEADER = ["x", "<guideline>", "<plan>", "1:", "</plan>", "</guideline>"]


class TestHeaderGateAtEveryBudget:
    def test_illegal_header_refused_when_the_ledger_runs_dry_inside_it(self):
        policy = ScriptedPolicy(ILLEGAL_HEADER, {"1": ["<step>", "a", "</step>"]},
                                ["<takeaway>", "t", "</takeaway>"])
        for budget in (1, 2, 5, 6, 4096):
            with pytest.raises(IllegalSchema) as exc:
                run_generation(policy, *fresh(max_new_tokens=budget))
            assert [e.kind for e in exc.value.events][-1] == "reject"
            assert exc.value.tokens == ILLEGAL_HEADER[:budget]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_budget_parses_or_refuses(self, data):
        legal = st.builds(
            lambda plans: ["<guideline>"] + [t for p in plans for t in ["<plan>", *p, "</plan>"]]
            + ["</guideline>"],
            st.lists(st.lists(st.sampled_from(["1:", "p"]), max_size=2), max_size=3))
        soup = st.lists(st.sampled_from(["<guideline>", "</guideline>", "<plan>", "</plan>",
                                         "<step>", "</takeaway>", "p"]), min_size=1, max_size=8)
        prologue = data.draw(st.one_of(legal, soup))
        bodies = data.draw(st.lists(st.lists(st.sampled_from(["a", "b"]), max_size=4),
                                    min_size=1, max_size=3))
        tail = ["<takeaway>", *data.draw(st.lists(st.just("t"), max_size=2)), "</takeaway>",
                *data.draw(st.lists(st.just("e"), max_size=2))]
        policy = ScriptedPolicy(prologue, {str(i + 1): ["<step>", *b, "</step>"]
                                           for i, b in enumerate(bodies)}, tail)
        strict = data.draw(st.booleans())
        schedule = data.draw(st.sampled_from(SCHEDULES))
        try:
            run_generation(policy, *fresh(), strict_validator=strict)
            refused = False
        except IllegalSchema:
            refused = True
        budget = data.draw(st.integers(1, 40))
        slots = data.draw(st.sampled_from([6, 4096]))
        try:
            run = run_generation(policy, *fresh(slots, budget), strict_validator=strict,
                                 schedule=schedule)
        except IllegalSchema:
            assert refused
            return
        except BudgetExceeded:
            return
        assert not refused
        parse_document(run.doc.texts())
        if schedule != "branch_major":  # which decodes siblings one after another
            assert run.decode_steps == run.stats.critical_path


class TestTruncation:
    def test_tight_ledger_force_closes_branches(self):
        policy = ScriptedPolicy(
            prologue=["<guideline>", "<plan>", "1:", "</plan>", "<plan>", "2:",
                      "</plan>", "<plan>", "3:", "</plan>", "</guideline>"],
            branches={str(j): ["<step>", f"{j}:"] + [f"w{j}{k}" for k in range(8)]
                      + ["</step>"] for j in (1, 2, 3)},
            takeaway=["<takeaway>", "t", "</takeaway>"])
        cache, ledger = fresh(max_new_tokens=17)
        run = run_generation(policy, cache, ledger)
        truncates = [e for e in run.events if e.kind == "truncate"]
        assert truncates, "unfunded branches must be truncated"
        assert ledger.charged == 17
        report = validate_structure(run.doc.texts())
        assert 1 not in report.failed_categories(), "output must stay tag-balanced"
        parse_document(run.doc.texts())
        assert run.decode_steps == run.stats.critical_path

    def test_exhaustion_in_prologue(self):
        cache, ledger = fresh(max_new_tokens=3)
        run = run_generation(e1_policy(), cache, ledger)
        assert ledger.charged == 3
        doc = parse_document(run.doc.texts())
        assert len(doc.blocks) == 1
        assert any(e.kind == "truncate" for e in run.events)
        assert run.decode_steps == run.stats.critical_path

    def test_exhaustion_sweep_budgets(self):
        policy = e1_policy()
        emitted = []
        for budget in range(1, 24):
            cache, ledger = fresh(max_new_tokens=budget)
            run = run_generation(policy, cache, ledger)
            emitted.append(sum(1 for e in run.events if e.kind == "emit"))
            assert ledger.charged == min(budget, 18)
            parse_document(run.doc.texts())
            assert run.decode_steps == run.stats.critical_path
        assert emitted == sorted(emitted), "emissions grow with budget"

    def test_zero_budget_rejected(self):
        cache, ledger = fresh(max_new_tokens=0)
        with pytest.raises(LedgerExhausted):
            run_generation(e1_policy(), cache, ledger)

    def test_cache_pressure_propagates(self):
        cache, ledger = RadixCache(4), TokenLedger(4096)
        with pytest.raises(BudgetExceeded):
            run_generation(e1_policy(), cache, ledger)


class TestRepetitionPenalty:
    def test_positive_score_divided(self):
        out = apply_repetition_penalty({"x": 2.0}, {"x"}, in_step=True)
        assert out["x"] == pytest.approx(2.0 / 1.02)

    def test_negative_score_multiplied(self):
        out = apply_repetition_penalty({"x": -1.0}, {"x"}, in_step=True)
        assert out["x"] == pytest.approx(-1.02)

    def test_outside_step_neutral(self):
        scores = {"x": 2.0, "y": -3.0}
        assert apply_repetition_penalty(scores, {"x", "y"}, in_step=False) == scores

    def test_unseen_tokens_untouched(self):
        out = apply_repetition_penalty({"x": 2.0, "y": 1.0}, {"x"}, in_step=True)
        assert out["y"] == 1.0

    def test_branch_state_window_clears_per_step(self):
        branch = BranchState("1")
        for tok in ("<step>", "alpha", "</step>"):
            branch.emitted.append(tok)
        assert "alpha" in branch.step_tokens
        branch.emitted.append("<step>")  # a new step opens: window resets
        assert "alpha" not in branch.step_tokens
        out = apply_repetition_penalty({"alpha": 2.0}, branch, in_step=True)
        assert out["alpha"] == 2.0

    def test_branch_state_window_is_derived_from_emitted(self):
        branch = BranchState("1")
        for tok in ("a", "b"):
            branch.emitted.append(tok)
        assert branch.step_tokens == ["a", "b"]  # no step open yet: everything
        for tok in ("<step>", "a", "<step>", "c", "c"):
            branch.emitted.append(tok)
        assert branch.step_tokens == ["<step>", "c", "c"]
        assert branch.emitted == ["a", "b", "<step>", "a", "<step>", "c", "c"]


class _PeekingPolicy(ScriptedPolicy):
    """Reads sibling emissions: violates the masking contract on purpose."""

    def next_token(self, branch_id, position, context=()):
        stream = self.branches[branch_id]
        if position >= len(stream):
            return None
        tok = stream[position]
        if tok.startswith("b") and len(context) % 2:
            return tok + "-peeked"
        return tok


class TestConfluence:
    def test_scripted_policies_are_confluent(self):
        rng = random.Random(21)
        for _ in range(20):
            assert schedule_confluence_check(random_policy(rng))

    def test_single_branch_trivially_confluent(self):
        rng = random.Random(22)
        policy = random_policy(rng, min_branches=1, max_branches=1)
        assert schedule_confluence_check(policy)

    def test_adversarial_policy_flagged(self):
        rng = random.Random(23)
        base = random_policy(rng, min_branches=2, max_branches=2)
        peeking = _PeekingPolicy(base.prologue, base.branches, base.takeaway)
        assert schedule_confluence_check(peeking) is False


def test_well_formed_output_or_truncate_event():
    rng = random.Random(31)
    for _ in range(40):
        policy = random_policy(rng, with_boxed=True)
        budget = rng.choice([5, 9, 14, 4096])
        run = run_generation(policy, *fresh(max_new_tokens=budget))
        report = validate_structure(run.doc.texts())
        if not report.ok:
            assert any(e.kind in ("truncate", "reject") for e in run.events)


def test_event_json_schema_versioned():
    run = run_generation(e1_policy(), *fresh())
    for event in run.events:
        data = event.to_json_dict()
        assert data["v"] == 1
        assert set(data) == {"v", "kind", "step", "branch", "token"}


def test_script_reader_gives_the_streams():
    policy = e1_policy()
    again = ScriptedPolicy.from_json_dict({"prologue": E1[:8],
                                           "branches": {"1": E1[8:12], "2": E1[12:15]},
                                           "takeaway": E1[15:]})
    assert again.prologue == policy.prologue
    assert again.branches == policy.branches
    assert again.takeaway == policy.takeaway


class _RecordingPolicy(ScriptedPolicy):
    """Records what each call saw through every access path of the view."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []

    def next_token(self, branch_id, position, context=()):
        tok = super().next_token(branch_id, position, context)
        seen = tuple(context)
        assert tuple(context[i] for i in range(len(context))) == seen
        assert context[:] == seen and context[::-1] == seen[::-1]
        if seen:
            assert context[-1] == seen[-1]
        self.calls.append((branch_id, seen, context, tok))
        return tok


def _emission_log(run):
    """The run's global emission log, rebuilt from its event log."""
    return [(e.branch, e.token) for e in run.events
            if e.kind in ("emit", "truncate") and e.token is not None]


class TestEmissionLogView:
    def test_context_is_the_emission_prefix_at_each_call(self):
        rng = random.Random(51)
        for _ in range(20):
            base = random_policy(rng, min_branches=2)
            for schedule in SCHEDULES:
                policy = _RecordingPolicy(base.prologue, base.branches, base.takeaway)
                run = run_generation(policy, *fresh(max_new_tokens=rng.choice([12, 4096])),
                                     schedule=schedule)
                log = _emission_log(run)
                tokens = [tok for _, tok in log]
                for branch_id, seen, _, tok in policy.calls:
                    # The call saw exactly what was emitted before its own token.
                    assert seen == tuple(tokens[:len(seen)])
                    assert log[len(seen)] == (branch_id, tok)

    def test_held_view_is_a_frozen_snapshot(self):
        base = e1_policy()
        policy = _RecordingPolicy(base.prologue, base.branches, base.takeaway)
        run = run_generation(policy, *fresh())
        assert len(_emission_log(run)) > len(policy.calls[0][1]) + 1
        for _, seen, view, _ in policy.calls:
            assert isinstance(view, EmissionLogView)
            assert len(view) == len(seen)
            assert tuple(view) == seen and list(reversed(view)) == list(seen[::-1])
            with pytest.raises(IndexError):
                view[len(seen)]
            assert view[len(seen) - 1:len(seen) + 5] == seen[-1:]

    def test_view_has_no_mutators(self):
        view = EmissionLogView(["a", "b"])
        for name in ("append", "extend", "insert", "pop", "remove", "clear",
                     "sort", "reverse", "__setitem__", "__delitem__", "__iadd__"):
            assert not hasattr(view, name), name
        with pytest.raises(TypeError):
            view[0] = "x"
        with pytest.raises(AttributeError):
            view.extra = 1

    def test_slices_match_list_slices(self):
        log = [f"t{i}" for i in range(9)]
        view = EmissionLogView(log)
        log += ["later", "later"]
        reference = log[:9]
        for start in (None, -12, -3, 0, 2, 9, 12):
            for stop in (None, -12, -2, 0, 5, 9, 12):
                for step in (None, 1, 2, -1, -3):
                    key = slice(start, stop, step)
                    assert view[key] == tuple(reference[key]), key
        assert view[-9] == "t0" and view.index("t4") == 4 and "later" not in view


# Pinned sha256 of the event logs below: speed work on the engine and the
# cache must leave every log byte-for-byte the same.
GOLDEN_EVENT_DIGEST = "fcb2175443bef73e05e9f0b542a2a52d11e644a8db29d6313053c1f284d15ad1"


def test_event_logs_match_golden_digest():
    digest = hashlib.sha256()
    kinds = set()
    for schedule in SCHEDULES:
        rng = random.Random(2024)
        # One small cache shared by sixty runs forces flushes of earlier
        # runs' released paths; the tight ledgers force truncations.
        cache = RadixCache(64)
        for _ in range(60):
            policy = random_policy(rng)
            ledger = TokenLedger(rng.choice([6, 11, 17, 4096]))
            run = run_generation(policy, cache, ledger, schedule=schedule)
            for event in run.events:
                kinds.add(event.kind)
                digest.update(json.dumps(event.to_json_dict(), sort_keys=True).encode())
                digest.update(b"\n")
            digest.update(b"--\n")
    assert {"flush", "truncate"} <= kinds
    assert digest.hexdigest() == GOLDEN_EVENT_DIGEST


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       budgets=st.lists(st.integers(1, 80) | st.just(4096), min_size=1, max_size=12))
def test_each_flush_is_logged_once_just_before_its_emit(seed, budgets):
    """Random scripts and ledgers on one small shared cache, as for the golden
    digest: a completed run logs one flush event per flush of the cache during
    it, each directly followed by an emit on its branch."""
    for schedule in SCHEDULES:
        rng = random.Random(seed)
        cache = RadixCache(64)
        for budget in budgets:
            before = cache.flush_count
            run = run_generation(random_policy(rng), cache, TokenLedger(budget),
                                 schedule=schedule)
            at = [i for i, e in enumerate(run.events) if e.kind == "flush"]
            assert len(at) == cache.flush_count - before
            for i in at:
                after = run.events[i + 1]
                assert after.kind == "emit" and after.branch == run.events[i].branch


def test_rounds_do_work_linear_in_the_branches_left_active():
    """One n-token branch beside n two-token ones: each round filters the
    previous round's active branches, so 4x the input costs about 4x the work,
    where rebuilding the active list from the whole group costs about 8.6x."""
    def work(n):
        policy = ScriptedPolicy(
            ["<guideline>", "<plan>", "p", "</plan>", "</guideline>"],
            {"long": ["<step>"] + ["w"] * (n - 2) + ["</step>"],
             **{f"s{j}": ["<step>", "</step>"] for j in range(n)}},
            ["<takeaway>", "t", "</takeaway>", "\\boxed{1}"])
        return line_events(lambda: run_generation(policy, *fresh(8 * n, 8 * n)))

    assert work(800) <= 5 * work(200)


class _SeeingPolicy(ScriptedPolicy):
    """Records what each ``next_token`` call saw of its context."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen = []

    def next_token(self, branch_id, position, context=()):
        self.seen.append((branch_id, position, len(context), context[-1:]))
        return super().next_token(branch_id, position, context)


def _tree(nodes):
    """A cache tree read by ``cache_tree`` as nested ``(token, pins,
    subtree)`` triples, children in insertion order."""
    return [(tok, pins, _tree(subtree)) for tok, pins, subtree in nodes]


def _outcome(generate, script, cache, ledger, strict, schedule):
    """What one run gave and left: its events, steps and tokens (a refusal's
    with no steps) or its exception type, the ledger timeline, the cache's
    state and what each policy call saw."""
    policy = _SeeingPolicy(*script)
    try:
        result = generate(policy, cache, ledger, strict, schedule)
    except IllegalSchema as exc:
        result = exc.events, None, exc.tokens
    except Exception as exc:  # noqa: BLE001 - the type is compared
        result = type(exc)
    return (result, ledger.timeline, cache.usage, cache.flush_count,
            _tree(cache_tree(cache)), policy.seen)


def _engine(policy, cache, ledger, strict, schedule):
    run = run_generation(policy, cache, ledger, strict, schedule)
    return run.events, run.decode_steps, run.doc.texts()


def _compare_with_reference(runs, slots: int) -> set[str]:
    """Run ``(script, budget, strict)`` runs in order under every schedule,
    the engine and the reference each on its own ``slots``-slot cache shared
    by all the runs; return the event kinds and exception types seen."""
    seen = set()
    for schedule in SCHEDULES:
        caches = RadixCache(slots), RadixCache(slots)
        for script, budget, strict in runs:
            got, want = (_outcome(generate, script, cache, TokenLedger(budget), strict,
                                  schedule)
                         for generate, cache in zip((_engine, ref_generation), caches))
            assert got == want
            result = got[0]
            if isinstance(result, type):
                seen.add(result.__name__)
            else:
                seen.update(e.kind for e in result[0])
    return seen


_BODY = st.lists(st.sampled_from(["a", "b", "c"]), max_size=5)
_SCRIPT = st.builds(
    lambda prologue, bodies, tail: (prologue, {str(i + 1): ["<step>", *b, "</step>"]
                                               for i, b in enumerate(bodies)},
                                    ["<takeaway>", *tail, "</takeaway>"]),
    st.one_of(st.builds(lambda plans: ["<guideline>"] + [t for p in plans
                                                        for t in ["<plan>", *p, "</plan>"]]
                        + ["</guideline>"],
                        st.lists(_BODY, max_size=4)),
              st.lists(st.sampled_from(["<guideline>", "</guideline>", "<plan>", "</plan>",
                                        "p"]), min_size=1, max_size=6)),
    st.lists(_BODY, min_size=1, max_size=4),
    st.lists(st.just("t"), max_size=2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(runs=st.lists(st.tuples(_SCRIPT, st.integers(1, 40) | st.just(4096), st.booleans()),
                     min_size=1, max_size=6))
def test_engine_matches_the_reference_per_token_path(runs):
    """The round loop against the earlier one-call-per-token path: equal
    events, steps, tokens, ledger timelines, raised types, cache states and
    policy contexts, on a 24-slot cache shared across runs."""
    _compare_with_reference(runs, slots=24)


def test_reference_comparison_reaches_every_outcome():
    """Seeded scripts through the same comparison flush, truncate, refuse
    illegal headers and overflow the cache."""
    rng = random.Random(2025)
    runs = []
    for i in range(40):
        policy = random_policy(rng)
        prologue = policy.prologue if i % 5 else ("x",) + policy.prologue
        runs.append(((prologue, policy.branches, policy.takeaway),
                     rng.choice([4, 9, 17, 4096]), rng.random() < 0.5))
    seen = _compare_with_reference(runs, slots=24)
    assert {"flush", "truncate", "reject", "BudgetExceeded"} <= seen


def _four_branches(n: int) -> ScriptedPolicy:
    """Four branches of ``n`` tokens each, every branch token distinct."""
    return ScriptedPolicy(
        ["<guideline>", *[t for j in range(4) for t in ("<plan>", f"{j}:", "</plan>")],
         "</guideline>"],
        {str(j): ["<step>", *[f"b{j}w{i}" for i in range(n)], "</step>"] for j in range(4)},
        ["<takeaway>", "t", "</takeaway>"])


def test_a_branch_token_costs_at_most_four_python_calls():
    """Four branches, each 200 tokens longer, on a cache that already holds
    every path: the extra Python-level calls per extra branch token are the
    policy's ``next_token``, the context view and the cache's ``extend``,
    plus a share of the round's ``charge``."""
    def calls(n):
        policy = _four_branches(n)
        cache = RadixCache(1 << 16)
        run_generation(policy, cache, TokenLedger(1 << 16))
        return python_calls(lambda: run_generation(policy, cache, TokenLedger(1 << 16)))

    assert (calls(300) - calls(100)) / (4 * 200) <= 4


def test_a_cold_branch_token_costs_at_most_four_python_calls():
    """The same four branches on a fresh cache, so every branch token inserts
    a slot: inserting one makes no further Python-level call."""
    def calls(n):
        policy, cache = _four_branches(n), RadixCache(1 << 16)
        return python_calls(lambda: run_generation(policy, cache, TokenLedger(1 << 16)))

    assert (calls(300) - calls(100)) / (4 * 200) <= 4
