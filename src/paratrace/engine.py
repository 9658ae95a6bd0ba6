"""Deterministic fork/join rollout simulator.

One run emits a single parallel block: the prologue (guideline header)
decodes sequentially, a pre-branch validator gates the fork, sibling
branches then decode in lockstep rounds against a shared radix cache and a
global token ledger, and after the join the tail (takeaway plus epilogue)
decodes sequentially again.

Everything is replayable: identical (policy, budgets, schedule) inputs yield
identical event logs. When the ledger runs dry the simulator force-closes
whatever is open so the output still parses; forced tokens are recorded as
``truncate`` events and are not charged. The validator gates the whole
scripted header even when the ledger runs dry inside it, so an illegal
header is refused at every budget.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import NamedTuple

from .cache import CacheLease, RadixCache
from .document import ReasoningDoc, parse_document
from .errors import IllegalSchema, LedgerExhausted
from .ledger import TokenLedger
from .tags import (GUIDELINE_CLOSE, GUIDELINE_OPEN, PLAN_CLOSE, STEP_CLOSE, STEP_OPEN, TAGS,
                   TAKEAWAY_CLOSE, TAKEAWAY_OPEN, tag_events)
from .topology import TopologyStats, topology_stats
from .validation import TAG_RULES

SCHEDULES = ("round_robin", "reverse_round_robin", "branch_major")
REPETITION_PENALTY = 1.02  # the paper's in-step repetition penalty
CONFLUENCE_BUDGET = 1 << 16  # cache slots and new tokens per confluence run

# The token that closes each opening tag: ``TAGS`` lists each open before its close.
_CLOSER = dict(zip(TAGS[::2], TAGS[1::2]))
# ``isdisjoint`` against this set tests a whole stream for tags in C.
_TAG_SET = frozenset(TAGS)


class GenerationEvent(NamedTuple):
    kind: str
    step: int
    branch: str | None = None
    token: str | None = None

    def to_json_dict(self) -> dict:
        return {"v": 1, "kind": self.kind, "step": self.step,
                "branch": self.branch, "token": self.token}


# Builds a record from a stored plain ``(kind, step, branch, token)`` tuple.
# The log stores plain tuples because the cyclic collector untracks those
# and never a tuple subclass.
_event_record = partial(tuple.__new__, GenerationEvent)


@dataclass
class BranchState:
    branch_id: str
    emitted: list[str] = field(default_factory=list)
    lease: CacheLease | None = None

    @property
    def step_tokens(self) -> list[str]:
        """The repetition-penalty window: the tokens from the last step open on."""
        emitted = self.emitted
        if STEP_OPEN not in emitted:
            return emitted[:]
        return emitted[len(emitted) - 1 - emitted[::-1].index(STEP_OPEN):]


class EmissionLogView(Sequence):
    """Read-only view of the first ``len`` tokens of a growing emission log.

    Making one is O(1): nothing is copied. Later appends to the log do not
    show through, so a view kept by a policy stays the snapshot it was.
    Indexing, slicing (which returns a tuple) and iteration are all bounded
    by the length at creation.
    """

    __slots__ = ("_log", "_len")

    def __init__(self, log: list[str]):
        self._log = log
        self._len = len(log)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._log[i] for i in range(*index.indices(self._len)))
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("emission log index out of range")
        return self._log[index]

    def __iter__(self):
        return islice(self._log, self._len)


class ScriptedPolicy:
    """Deterministic token source: a prologue, one stream per branch, a tail.

    ``next_token`` ignores the visible context; subclasses used to probe the
    masking contract may not.
    """

    def __init__(self, prologue, branches: dict, takeaway):
        self.prologue = tuple(map(str, prologue))
        self.branches = {str(k): tuple(map(str, v)) for k, v in branches.items()}
        self.takeaway = tuple(map(str, takeaway))
        self._check_streams()

    def _check_streams(self) -> None:
        if not self.prologue:
            raise ValueError("script prologue is empty")
        if not self.branches:
            raise ValueError("script declares no branches")
        for bid, stream in self.branches.items():
            if not stream or stream[0] != STEP_OPEN or stream[-1] != STEP_CLOSE:
                raise ValueError(f"branch {bid!r} must span one step region")
            if not _TAG_SET.isdisjoint(stream[1:-1]):
                raise ValueError(f"branch {bid!r} may contain content tokens only")
        tail = self.takeaway
        if not tail or tail[0] != TAKEAWAY_OPEN or TAKEAWAY_CLOSE not in tail:
            raise ValueError("tail must open and close a takeaway")
        close_at = tail.index(TAKEAWAY_CLOSE)
        if not _TAG_SET.isdisjoint(tail[1:close_at] + tail[close_at + 1:]):
            raise ValueError("tail may contain content tokens only")

    @property
    def branch_ids(self) -> tuple[str, ...]:
        return tuple(self.branches)

    def next_token(self, branch_id: str, position: int, context=()) -> str | None:
        """Token ``position`` of ``branch_id``'s stream, or None past its end.

        ``context`` is an :class:`EmissionLogView`, not a tuple: a read-only
        snapshot of every token emitted so far in this run, across all
        branches, in emission order. It is built in O(1), so decode stays
        linear in the tokens emitted.
        """
        stream = self.branches[branch_id]
        return stream[position] if position < len(stream) else None

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScriptedPolicy":
        return cls(data["prologue"], data["branches"], data["takeaway"])


def apply_repetition_penalty(scores, context, in_step: bool) -> dict[str, float]:
    """Penalize candidates already seen inside the current step.

    Positive scores are divided by ``REPETITION_PENALTY``, negative ones
    multiplied. Outside step regions (``in_step=False``) scores pass through unchanged.
    """
    if not in_step:
        return dict(scores)
    seen = set(context.step_tokens if isinstance(context, BranchState) else context)
    out = {}
    for token, score in scores.items():
        if token in seen:
            score = score / REPETITION_PENALTY if score > 0 else score * REPETITION_PENALTY
        out[token] = score
    return out


def _validate_header(prologue, n_branches: int, strict: bool) -> str | None:
    """Pre-branch structural gate on the guideline header.

    Returns why the header is refused, or None. Checks are cheap and
    conservative: the header must be exactly one guideline region, its tags
    walking the validator's ``TAG_RULES`` from ``header`` to ``steps``, with
    at least one plan; strict mode also requires one plan per branch.
    """
    tags = list(tag_events(prologue))
    if not tags or tags[0] != (0, GUIDELINE_OPEN):
        return "header must start with a guideline open"
    if tags[-1] != (len(prologue) - 1, GUIDELINE_CLOSE):
        return "header must end with the guideline close"
    state = "header"
    for i, tag in tags[1:]:
        if state == "steps":
            return "tokens after the guideline close"
        needs, leaves, _ = TAG_RULES.get(tag, (None,) * 3)
        if needs != state:
            return f"illegal header tag {prologue[i]!r}"
        state = leaves
    plan_count = sum(tag is PLAN_CLOSE for _, tag in tags)
    if plan_count < 1:
        return "header declares no plan"
    if strict and plan_count != n_branches:
        return f"{plan_count} plans for {n_branches} branches"
    return None


@dataclass
class GenerationRun:
    doc: ReasoningDoc
    _events: list[tuple]  # plain (kind, step, branch, token) tuples
    stats: TopologyStats
    decode_steps: int

    @property
    def events(self) -> list[GenerationEvent]:
        """The event log as records, built on each read."""
        return list(map(_event_record, self._events))

    def branch_streams(self) -> dict[str, list[str]]:
        """Per-branch token streams (emitted and forced) from the event log."""
        streams: dict[str, list[str]] = {}
        for kind, _, branch, token in self._events:
            if kind in ("emit", "truncate") and branch is not None and token is not None:
                streams.setdefault(branch, []).append(token)
        return streams


class _Run:
    def __init__(self, policy: ScriptedPolicy, cache: RadixCache,
                 ledger: TokenLedger, schedule: str):
        if schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {schedule!r}")
        self.policy = policy
        self.cache = cache
        self.ledger = ledger
        self.schedule = schedule
        self.events: list[tuple] = []  # plain (kind, step, branch, token) tuples
        self.emission_log: list[str] = []
        self.step = 0

    # -- event helpers ---------------------------------------------------

    def _event(self, kind: str, branch=None, token=None) -> None:
        self.events.append((kind, self.step, branch, token))

    # -- phases ----------------------------------------------------------

    def emit(self, out: list[str], token: str, lease: CacheLease) -> None:
        """Append one charged main-stream token to ``out``, the cache, the log
        and the events.

        Within a run only ``extend`` can flush, at most once a call, so a
        moved flush count is one ``flush`` event, logged before the emit."""
        flushes = self.cache.flush_count
        self.cache.extend(lease, token)
        if self.cache.flush_count != flushes:
            self._event("flush")
        out.append(token)
        self.emission_log.append(token)
        self._event("emit", token=token)

    def sequential(self, out: list[str], stream, lease: CacheLease) -> bool:
        """Emit a stream one token per step. False when the ledger ran dry."""
        for token in stream:
            if self.ledger.charge(1) < 1:
                return False
            self.emit(out, token, lease)
            self.step += 1
        return True

    def force_close(self, out: list[str], branch=None) -> None:
        """Close every tag ``out`` leaves open with uncharged ``truncate`` tokens.

        ``out`` must be a prefix of well-nested markup. The main stream
        (``branch`` None) must also hold a takeaway, and each of its forced
        tokens takes a step; a branch's round counts its step. When nothing
        needs closing, a bare halt marker is logged instead.
        """
        closes: list[str] = []
        for _, tag in tag_events(out):
            if tag in _CLOSER:
                closes.append(_CLOSER[tag])
            else:
                closes.pop()
        closes.reverse()
        if branch is None and TAKEAWAY_OPEN not in out:
            closes += (TAKEAWAY_OPEN, TAKEAWAY_CLOSE)
        if not closes:
            self._event("truncate", branch=branch)
        for token in closes:
            out.append(token)
            self.emission_log.append(token)
            self._event("truncate", branch=branch, token=token)
            if branch is None:
                self.step += 1


def run_generation(policy: ScriptedPolicy, cache: RadixCache, ledger: TokenLedger,
                   strict_validator: bool = False,
                   schedule: str = "round_robin") -> GenerationRun:
    """Simulate one fork/join rollout.

    Raises :class:`IllegalSchema` when the pre-branch validator refuses the
    scripted header, at any budget (no fork happens, no step tokens are
    emitted), :class:`LedgerExhausted` for a non-positive token budget, and
    propagates :class:`BudgetExceeded` from the cache. The returned document
    always parses cleanly, or the event log carries truncate events
    explaining why generation stopped early.
    """
    if ledger.remaining <= 0:
        raise LedgerExhausted("generation requires a positive token budget")
    run = _Run(policy, cache, ledger, schedule)

    prologue: list[str] = []
    main_lease = cache.match_and_insert([])
    try:
        funded = run.sequential(prologue, policy.prologue, main_lease)
        # Gate the whole scripted header, so that a force-close below only
        # ever completes a prefix of a legal one.
        reason = _validate_header(policy.prologue, len(policy.branch_ids),
                                  strict_validator)
        if reason is not None:
            run._event("reject", token=reason)
            raise IllegalSchema(f"pre-branch validator: {reason}", tokens=prologue,
                                events=map(_event_record, run.events))
        if not funded:
            run.force_close(prologue)
            return _finish(run, prologue)

        run._event("fork")
        branches = [BranchState(bid, lease=cache.match_and_insert(prologue))
                    for bid in policy.branch_ids]
        try:
            _parallel_phase(run, branches)
            run._event("join")
        finally:
            for b in branches:
                cache.release(b.lease)

        tail: list[str] = []
        if not run.sequential(tail, policy.takeaway, main_lease):
            run.force_close(tail)
        return _finish(run, prologue + [t for b in branches for t in b.emitted] + tail)
    finally:
        cache.release(main_lease)


def _parallel_phase(run: _Run, branches: list[BranchState]) -> None:
    """Decode the branches in rounds; each round charges one token per active
    branch of its group. Branch-major order runs each branch as its own group.

    This is the per-token loop, so its methods are bound once. A round asks
    each funded branch's policy for its next token and extends its lease,
    then force-closes the unfunded branches, in order. A branch never becomes
    active again, so the next round runs the funded branches that did not
    close, not the whole group."""
    order = list(branches)
    if run.schedule == "reverse_round_robin":
        order = order[::-1]
    groups = [[b] for b in order] if run.schedule == "branch_major" else [order]
    charge, next_token = run.ledger.charge, run.policy.next_token
    cache, log = run.cache, run.emission_log
    extend, log_token, log_event = cache.extend, log.append, run.events.append
    flushes = cache.flush_count  # only ``extend`` flushes here, at most once a call
    for active in groups:
        while active:
            n = len(active)
            accepted = charge(n)
            step, before = run.step, len(log)
            still = []
            for b in active if accepted == n else active[:accepted]:
                bid, emitted = b.branch_id, b.emitted
                token = next_token(bid, len(emitted), EmissionLogView(log))
                if token is None:
                    # Streams always end at a step close, which closes the branch first.
                    raise ValueError(f"policy returned no token for active branch {bid!r}")
                extend(b.lease, token)
                if cache.flush_count != flushes:
                    flushes = cache.flush_count
                    log_event(("flush", step, bid, None))
                emitted.append(token)
                log_token(token)
                log_event(("emit", step, bid, token))
                if token != STEP_CLOSE:
                    still.append(b)
            if accepted < n:
                for b in active[accepted:]:
                    run.force_close(b.emitted, b.branch_id)
            if len(log) > before:
                run.step += 1
            active = still


def _finish(run: _Run, tokens: list[str]) -> GenerationRun:
    doc = parse_document(tokens)
    return GenerationRun(doc=doc, _events=run.events,
                         stats=topology_stats(tokens), decode_steps=run.step)


def schedule_confluence_check(policy: ScriptedPolicy) -> bool:
    """True iff per-branch streams are identical under every one of ``SCHEDULES``.

    Sibling steps are mutually masked, so a policy that only reads its own
    branch context must be insensitive to interleaving; a differing stream
    flags a masking-contract violation.
    """
    reference: dict[str, list[str]] | None = None
    for schedule in SCHEDULES:
        run = run_generation(policy, RadixCache(CONFLUENCE_BUDGET),
                             TokenLedger(CONFLUENCE_BUDGET), schedule=schedule)
        streams = run.branch_streams()
        if reference is None:
            reference = streams
        elif streams != reference:
            return False
    return True
