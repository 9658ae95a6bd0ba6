"""Deterministic fork/join rollout simulator.

One run emits a single parallel block: the prologue (guideline header)
decodes sequentially, a pre-branch validator gates the fork, sibling
branches then decode in lockstep rounds against a shared radix cache and a
global token ledger, and after the join the tail (takeaway plus epilogue)
decodes sequentially again. A plain :class:`ScriptedPolicy` reads no
context, so its branches jump forward k > 1 rounds at a time where no
branch closes, no ledger shortfall and no flush can happen; a class that
overrides ``next_token`` decodes token by token. A jump is logged as one
segment, which ``GenerationRun.events`` and ``branch_streams`` expand on each
read, and it writes no emission log, since no policy that jumps reads it.

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
from itertools import chain, cycle, islice, repeat
from typing import NamedTuple

from .cache import CacheLease, RadixCache
from .document import ReasoningDoc, parse_document
from .errors import IllegalSchema, LedgerExhausted
from .ledger import TokenLedger
from .tags import (_TAG_SET, GUIDELINE_CLOSE, GUIDELINE_OPEN, PLAN_CLOSE, STEP_CLOSE,
                   STEP_OPEN, TAGS, TAKEAWAY_CLOSE, TAKEAWAY_OPEN, tag_events)
from .topology import TopologyStats, topology_stats
from .validation import TAG_RULES

SCHEDULES = ("round_robin", "reverse_round_robin", "branch_major")
REPETITION_PENALTY = 1.02  # the paper's in-step repetition penalty
CONFLUENCE_BUDGET = 1 << 16  # cache slots and new tokens per confluence run

# The token that closes each opening tag: ``TAGS`` lists each open before its close.
_CLOSER = dict(zip(TAGS[::2], TAGS[1::2]))


class GenerationEvent(NamedTuple):
    kind: str
    step: int
    branch: str | None = None
    token: str | None = None

    def to_json_dict(self) -> dict:
        return {"v": 1, "kind": self.kind, "step": self.step,
                "branch": self.branch, "token": self.token}


# Builds a record from a ``(kind, step, branch, token)`` tuple of the log's
# columns. The log stores four columns of ``str``, ``int`` and None, so the
# cyclic collector tracks four lists, not one object per event.
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
    masking contract may not. Streams keep their tokens, which must be ``str``.
    """

    def __init__(self, prologue, branches: dict, takeaway):
        self.prologue = tuple(prologue)
        self.branches = {str(k): tuple(v) for k, v in branches.items()}
        if len(self.branches) != len(branches):
            raise ValueError(f"branch ids {list(branches)!r} are not distinct as str")
        self.takeaway = tuple(takeaway)
        self._check_streams()

    def _check_streams(self) -> None:
        for name, stream in [("prologue", self.prologue), ("tail", self.takeaway),
                             *((f"branch {b!r}", s) for b, s in self.branches.items())]:
            try:
                "".join(stream)  # refuses, in C, any token that is not a str
            except TypeError:
                raise ValueError(f"{name} holds a token that is not a str") from None
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


def _spliced(log: tuple[list, ...], jumps: list) -> tuple[list, ...]:
    """The log's four columns with each jump segment expanded round-major
    at its ``at``: the column length when the jump was taken."""
    columns = ([], [], [], [])
    kinds, steps, branches, tokens = columns
    done = 0
    for at, step, k, bids, runs in jumps:
        for out, column in zip(columns, log):
            out += column[done:at]
        n, done = len(bids), at
        kinds += repeat("emit", n * k)
        steps += chain.from_iterable(map(repeat, range(step, step + k), repeat(n)))
        branches += islice(cycle(bids), n * k)
        tokens += chain.from_iterable(zip(*runs))
    for out, column in zip(columns, log):
        out += column[done:]
    return columns


@dataclass
class GenerationRun:
    """A finished rollout. Its event log is stored as the per-token columns
    plus one segment per jump, a jump having written neither the columns nor
    the emission log; ``events`` and :meth:`branch_streams` expand the
    segments on each read."""

    doc: ReasoningDoc
    _log: tuple[list, list, list, list]  # the kind, step, branch and token columns
    _jumps: list  # (at, step, k, branch_ids, runs) per jump, in log order
    decode_steps: int

    def __eq__(self, other):
        """Equal documents, steps and events, however the logs are stored."""
        if not isinstance(other, GenerationRun):
            return NotImplemented
        return (self.doc, self.decode_steps, self.events) == (
            other.doc, other.decode_steps, other.events)

    @property
    def stats(self) -> TopologyStats:
        """The document's :func:`topology_stats`, built on each read."""
        return topology_stats(self.doc.tokens)

    @property
    def events(self) -> list[GenerationEvent]:
        """The event log as records, built on each read."""
        return list(map(_event_record, zip(*_spliced(self._log, self._jumps))))

    def branch_streams(self) -> dict[str, list[str]]:
        """Per-branch token streams (emitted and forced) from the event log."""
        kinds, _, branches, tokens = _spliced(self._log, self._jumps)
        streams: dict[str, list[str]] = {}
        for kind, branch, token in zip(kinds, branches, tokens):
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
        # The event log as columns: kinds, steps, branches and tokens, with
        # each jump kept as one segment (see ``GenerationRun``). A jump writes
        # no emission log, since only a policy that reads no context jumps, so
        # the emission log holds every token only for runs that never jump.
        self.log: tuple[list, list, list, list] = ([], [], [], [])
        self.jumps: list[tuple] = []
        self.emission_log: list[str] = []
        self.step = 0

    # -- event helpers ---------------------------------------------------

    def _event(self, kind: str, branch=None, token=None) -> None:
        kinds, steps, branches, tokens = self.log
        kinds.append(kind)
        steps.append(self.step)
        branches.append(branch)
        tokens.append(token)

    # -- phases ----------------------------------------------------------

    def sequential(self, out: list[str], stream, lease: CacheLease) -> bool:
        """Emit a stream one token per step into ``out``, the cache, the
        emission log and the events. False when the ledger ran dry."""
        cache = self.cache
        for token in stream:
            if self.ledger.charge(1) < 1:
                return False
            # Within a run only ``extend`` can flush, at most once a call, so
            # a moved flush count is one ``flush`` event, logged before the emit.
            flushes = cache.flush_count
            cache.extend(lease, token)
            if cache.flush_count != flushes:
                self._event("flush")
            out.append(token)
            self.emission_log.append(token)
            self._event("emit", token=token)
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
                                events=map(_event_record, zip(*run.log)))
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
        return _finish(run, list(chain(prologue, *[b.emitted for b in branches], tail)))
    finally:
        cache.release(main_lease)


def _parallel_phase(run: _Run, branches: list[BranchState]) -> None:
    """Decode the branches in rounds; each round charges one token per active
    branch of its group. Branch-major order runs each branch as its own group.

    A plain :class:`ScriptedPolicy`'s next tokens are known, so while k > 1
    rounds can neither close a branch, run the ledger short nor fill the
    cache, :func:`_jump_forward` decodes all k. Other rounds, and all rounds
    of a class that overrides ``next_token``, take the per-token loop, whose
    methods are bound once. A round asks each funded branch's policy for its
    next token and extends its lease, then force-closes the unfunded
    branches, in order. A branch never becomes active again, so the next
    round runs the funded branches that did not close, not the whole group."""
    order = list(branches)
    if run.schedule == "reverse_round_robin":
        order = order[::-1]
    groups = [[b] for b in order] if run.schedule == "branch_major" else [order]
    ledger, policy = run.ledger, run.policy
    charge, next_token = ledger.charge, policy.next_token
    scripted = type(policy).next_token is ScriptedPolicy.next_token
    cache, log = run.cache, run.emission_log
    extend, log_token = cache.extend, log.append
    add_kind, add_step, add_branch, add_token = (column.append for column in run.log)
    flushes = cache.flush_count  # only ``extend`` flushes here, at most once a call
    for active in groups:
        while active:
            n = len(active)
            if scripted:
                k = min(ledger.remaining, cache.budget - cache.usage) // n
                if k > 1:
                    # A stream's last token closes its branch, so stop before it.
                    streams = policy.branches
                    k = min(k, min([len(streams[b.branch_id]) - len(b.emitted)
                                    for b in active]) - 1)
                    if k > 1:
                        _jump_forward(run, active, k)
                        continue
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
                    add_kind("flush")
                    add_step(step)
                    add_branch(bid)
                    add_token(None)
                emitted.append(token)
                log_token(token)
                add_kind("emit")
                add_step(step)
                add_branch(bid)
                add_token(token)
                if token != STEP_CLOSE:
                    still.append(b)
            if accepted < n:
                for b in active[accepted:]:
                    run.force_close(b.emitted, b.branch_id)
            if len(log) > before:
                run.step += 1
            active = still


def _jump_forward(run: _Run, active: list[BranchState], k: int) -> None:
    """Decode ``k`` rounds of ``active`` as the per-token loop would, given
    that none flushes, falls short or closes a branch. Branch-major inserts
    give the tree, hits and child order of round-major ones, because at each
    depth the branches reach new nodes in round order. The ledger is charged
    round-major, and the k·n emits are logged as one segment, which reads
    round-major; the emission log is not written, as the policy reads no
    context and the per-token loop reads only its growth."""
    streams = run.policy.branches
    run.ledger.charge_rounds(len(active), k)
    runs = []
    for b in active:
        start = len(b.emitted)
        tokens = streams[b.branch_id][start:start + k]
        run.cache.extend_run(b.lease, tokens)
        b.emitted.extend(tokens)
        runs.append(tokens)
    run.jumps.append((len(run.log[0]), run.step, k,
                      tuple(b.branch_id for b in active), tuple(runs)))
    run.step += k


def _finish(run: _Run, tokens: list[str]) -> GenerationRun:
    return GenerationRun(parse_document(tokens), run.log, run.jumps, run.step)


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
