"""Deterministic fork/join rollout simulator.

One run emits a single parallel block: the prologue (guideline header)
decodes sequentially, a pre-branch validator gates the fork, sibling
branches then decode in lockstep rounds against a shared radix cache and a
global token ledger, and after the join the tail (takeaway plus epilogue)
decodes sequentially again.

Everything is replayable: identical (policy, budgets, schedule) inputs yield
identical event logs. When the ledger runs dry the simulator force-closes
whatever is open so the output still parses; forced tokens are recorded as
``truncate`` events and are not charged.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice

from .cache import CacheLease, RadixCache
from .document import ReasoningDoc, parse_document
from .errors import IllegalSchema, LedgerExhausted
from .ledger import TokenLedger
from .tags import Tag, tag_of
from .topology import TopologyStats, topology_stats

EVENT_KINDS = ("emit", "fork", "join", "flush", "truncate", "reject")

SCHEDULES = ("round_robin", "reverse_round_robin", "branch_major")

# Hoisted out of the per-token loop: enum ``.value`` lookups are not free.
_STEP_OPEN = Tag.STEP_OPEN.value
_STEP_CLOSE = Tag.STEP_CLOSE.value


@dataclass(frozen=True)
class GenerationEvent:
    kind: str
    step: int
    branch: str | None = None
    token: str | None = None

    def to_json_dict(self) -> dict:
        return {"v": 1, "kind": self.kind, "step": self.step,
                "branch": self.branch, "token": self.token}


@dataclass
class BranchState:
    branch_id: str
    parent_prefix_len: int
    emitted: list[str] = field(default_factory=list)
    status: str = "active"  # active | closed | truncated
    step_tokens: Counter = field(default_factory=Counter)
    lease: CacheLease | None = None

    def record(self, token: str) -> None:
        if token == _STEP_OPEN:
            self.step_tokens.clear()
        self.emitted.append(token)
        self.step_tokens[token] += 1


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
        self.prologue = tuple(str(t) for t in prologue)
        self.branches = {str(k): tuple(str(t) for t in v) for k, v in branches.items()}
        self.takeaway = tuple(str(t) for t in takeaway)
        self._check_streams()

    def _check_streams(self) -> None:
        if not self.prologue:
            raise ValueError("script prologue is empty")
        if not self.branches:
            raise ValueError("script declares no branches")
        for bid, stream in self.branches.items():
            if not stream or stream[0] != Tag.STEP_OPEN.value \
                    or stream[-1] != Tag.STEP_CLOSE.value:
                raise ValueError(f"branch {bid!r} must span one step region")
            if any(tag_of(t) is not None for t in stream[1:-1]):
                raise ValueError(f"branch {bid!r} may contain content tokens only")
        tail = self.takeaway
        if not tail or tail[0] != Tag.TAKEAWAY_OPEN.value \
                or Tag.TAKEAWAY_CLOSE.value not in tail:
            raise ValueError("tail must open and close a takeaway")
        close_at = tail.index(Tag.TAKEAWAY_CLOSE.value)
        inner = tail[1:close_at] + tail[close_at + 1:]
        if any(tag_of(t) is not None for t in inner):
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

    def to_json_dict(self) -> dict:
        return {"v": 1, "prologue": list(self.prologue),
                "branches": {k: list(v) for k, v in self.branches.items()},
                "takeaway": list(self.takeaway)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScriptedPolicy":
        return cls(data["prologue"], data["branches"], data["takeaway"])


def apply_repetition_penalty(scores, context, in_step: bool,
                             coefficient: float = 1.02) -> dict[str, float]:
    """Penalize candidates already seen inside the current step.

    Positive scores are divided by the coefficient, negative ones multiplied.
    Outside step regions (``in_step=False``) scores pass through unchanged.
    """
    if not in_step:
        return dict(scores)
    seen = context.step_tokens if isinstance(context, BranchState) else set(context)
    out = {}
    for token, score in scores.items():
        if token in seen:
            score = score / coefficient if score > 0 else score * coefficient
        out[token] = score
    return out


def _validate_header(prologue, n_branches: int, strict: bool):
    """Pre-branch structural gate on the guideline header.

    Returns (ok, reason, index). Checks are cheap and conservative: the
    header must be exactly one guideline region with balanced plans and at
    least one plan; strict mode also requires one plan per branch.
    """
    tags = [(i, tag_of(t)) for i, t in enumerate(prologue) if tag_of(t) is not None]
    if not tags or tags[0][1] is not Tag.GUIDELINE_OPEN or tags[0][0] != 0:
        return False, "header must start with a guideline open", 0
    if tag_of(prologue[-1]) is not Tag.GUIDELINE_CLOSE:
        return False, "header must end with the guideline close", len(prologue) - 1
    plan_count = 0
    open_plan = False
    closed = False
    for i, tag in tags[1:]:
        if closed:
            return False, "tokens after the guideline close", i
        if tag is Tag.PLAN_OPEN and not open_plan:
            open_plan = True
        elif tag is Tag.PLAN_CLOSE and open_plan:
            open_plan = False
            plan_count += 1
        elif tag is Tag.GUIDELINE_CLOSE and not open_plan:
            closed = True
        else:
            return False, f"illegal header tag {prologue[i]!r}", i
    if not closed:
        return False, "guideline never closes", len(prologue) - 1
    if plan_count < 1:
        return False, "header declares no plan", len(prologue) - 1
    if strict and plan_count != n_branches:
        return False, f"{plan_count} plans for {n_branches} branches", len(prologue) - 1
    return True, "", -1


@dataclass
class GenerationRun:
    doc: ReasoningDoc
    events: list[GenerationEvent]
    stats: TopologyStats
    decode_steps: int

    def branch_streams(self) -> dict[str, list[str]]:
        """Per-branch token streams (emitted and forced) from the event log."""
        streams: dict[str, list[str]] = {}
        for ev in self.events:
            if ev.branch is not None and ev.token is not None \
                    and ev.kind in ("emit", "truncate"):
                streams.setdefault(ev.branch, []).append(ev.token)
        return streams


class _Run:
    def __init__(self, policy: ScriptedPolicy, cache: RadixCache,
                 ledger: TokenLedger, strict_validator: bool, schedule: str):
        if schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {schedule!r}")
        self.policy = policy
        self.cache = cache
        self.ledger = ledger
        self.strict = strict_validator
        self.schedule = schedule
        self.events: list[GenerationEvent] = []
        self.emission_log: list[str] = []
        self.step = 0
        self._seen_flushes = cache.flush_count

    # -- event helpers ---------------------------------------------------

    def _event(self, kind: str, branch=None, token=None) -> None:
        self.events.append(GenerationEvent(kind, self.step, branch, token))

    def _note_flushes(self, branch=None) -> None:
        while self._seen_flushes < self.cache.flush_count:
            self._seen_flushes += 1
            self._event("flush", branch=branch)

    # -- phases ----------------------------------------------------------

    def sequential(self, out: list[str], stream, lease: CacheLease, branch=None) -> bool:
        """Emit a stream one token per step. False when the ledger ran dry."""
        for token in stream:
            if self.ledger.charge(1) < 1:
                return False
            try:
                self.cache.extend(lease, token)
            finally:
                self._note_flushes(branch)
            out.append(token)
            self.emission_log.append(token)
            self._event("emit", branch=branch, token=token)
            self.step += 1
        return True

    def force_append(self, out: list[str], token: str | None, branch=None) -> None:
        """Append an uncharged structural token (or a bare halt marker)."""
        if token is not None:
            out.append(token)
            self.emission_log.append(token)
        self._event("truncate", branch=branch, token=token)
        if token is not None:
            self.step += 1

    def force_close_header(self, out: list[str]) -> None:
        open_plan = False
        header_open = False
        for t in out:
            tag = tag_of(t)
            if tag is Tag.GUIDELINE_OPEN:
                header_open = True
            elif tag is Tag.GUIDELINE_CLOSE:
                header_open = False
            elif tag is Tag.PLAN_OPEN:
                open_plan = True
            elif tag is Tag.PLAN_CLOSE:
                open_plan = False
        if open_plan:
            self.force_append(out, Tag.PLAN_CLOSE.value)
        if header_open:
            self.force_append(out, Tag.GUIDELINE_CLOSE.value)

    def minimal_tail(self, out: list[str]) -> None:
        self.force_append(out, Tag.TAKEAWAY_OPEN.value)
        self.force_append(out, Tag.TAKEAWAY_CLOSE.value)


def run_generation(policy: ScriptedPolicy, cache: RadixCache, ledger: TokenLedger,
                   strict_validator: bool = False,
                   schedule: str = "round_robin") -> GenerationRun:
    """Simulate one fork/join rollout.

    Raises :class:`IllegalSchema` when the pre-branch validator refuses the
    header (no fork happens, no step tokens are emitted),
    :class:`LedgerExhausted` for a non-positive token budget, and propagates
    :class:`BudgetExceeded` from the cache. The returned document always
    parses cleanly, or the event log carries truncate events explaining why
    generation stopped early.
    """
    if ledger.remaining <= 0:
        raise LedgerExhausted("generation requires a positive token budget")
    run = _Run(policy, cache, ledger, strict_validator, schedule)

    prologue: list[str] = []
    main_lease = cache.match_and_insert([])
    try:
        funded = run.sequential(prologue, policy.prologue, main_lease)
        if not funded:
            run.force_close_header(prologue)
            run.minimal_tail(prologue)
            return _finish(run, prologue)

        ok, reason, index = _validate_header(prologue, len(policy.branch_ids),
                                             strict_validator)
        if not ok:
            run._event("reject", token=reason)
            raise IllegalSchema(f"pre-branch validator: {reason}",
                                tokens=prologue, events=run.events)

        run._event("fork")
        branches = []
        for bid in policy.branch_ids:
            lease = cache.match_and_insert(prologue)
            run._note_flushes(bid)
            branches.append(BranchState(bid, parent_prefix_len=len(prologue),
                                        lease=lease))
        try:
            _parallel_phase(run, branches)
            run._event("join")
        finally:
            for b in branches:
                if b.lease is not None and not b.lease.released:
                    cache.release(b.lease)

        tail: list[str] = []
        funded = run.sequential(tail, policy.takeaway, main_lease)
        doc_tokens = prologue + [t for b in branches for t in b.emitted] + tail
        if not funded:
            _force_close_tail(run, doc_tokens, tail)
        return _finish(run, doc_tokens)
    finally:
        if not main_lease.released:
            cache.release(main_lease)


def _parallel_phase(run: _Run, branches: list[BranchState]) -> None:
    order = list(branches)
    if run.schedule == "reverse_round_robin":
        order = order[::-1]

    if run.schedule == "branch_major":
        for b in order:
            while b.status == "active":
                before = len(run.emission_log)
                _advance(run, b, funded=run.ledger.charge(1) == 1)
                if len(run.emission_log) > before:
                    run.step += 1
        return

    while True:
        active = [b for b in order if b.status == "active"]
        if not active:
            return
        accepted = run.ledger.charge(len(active))
        before = len(run.emission_log)
        for i, b in enumerate(active):
            _advance(run, b, funded=i < accepted)
        if len(run.emission_log) > before:
            run.step += 1


def _advance(run: _Run, branch: BranchState, funded: bool) -> None:
    if not funded:
        _truncate_branch(run, branch)
        return
    token = run.policy.next_token(branch.branch_id, len(branch.emitted),
                                  EmissionLogView(run.emission_log))
    if token is None:
        # Streams always end at a step close, which closes the branch first.
        raise ValueError(f"policy returned no token for active branch "
                         f"{branch.branch_id!r}")
    try:
        run.cache.extend(branch.lease, token)
    finally:
        run._note_flushes(branch.branch_id)
    branch.record(token)
    run.emission_log.append(token)
    run._event("emit", branch=branch.branch_id, token=token)
    if token == _STEP_CLOSE:
        branch.status = "closed"


def _truncate_branch(run: _Run, branch: BranchState) -> None:
    if branch.emitted and branch.emitted[-1] != _STEP_CLOSE:
        # An open step span must be force-closed to keep the output parseable.
        branch.record(_STEP_CLOSE)
        run.emission_log.append(_STEP_CLOSE)
        run._event("truncate", branch=branch.branch_id, token=_STEP_CLOSE)
    else:
        # Nothing open: the branch is dropped (or was already balanced).
        run._event("truncate", branch=branch.branch_id, token=None)
    branch.status = "truncated"


def _force_close_tail(run: _Run, doc_tokens: list[str], tail: list[str]) -> None:
    if Tag.TAKEAWAY_OPEN.value not in tail:
        run.minimal_tail(doc_tokens)
    elif Tag.TAKEAWAY_CLOSE.value not in tail:
        run.force_append(doc_tokens, Tag.TAKEAWAY_CLOSE.value)
    else:
        run.force_append(doc_tokens, None)  # epilogue cut short


def _finish(run: _Run, tokens: list[str]) -> GenerationRun:
    doc = parse_document(tokens)
    return GenerationRun(doc=doc, events=run.events,
                         stats=topology_stats(tokens), decode_steps=run.step)


def schedule_confluence_check(policy: ScriptedPolicy, schedules=SCHEDULES,
                              budget_slots: int = 1 << 16,
                              max_new_tokens: int = 1 << 16) -> bool:
    """True iff per-branch streams are identical under every schedule.

    Sibling steps are mutually masked, so a policy that only reads its own
    branch context must be insensitive to interleaving; a differing stream
    flags a masking-contract violation.
    """
    reference: dict[str, list[str]] | None = None
    for schedule in schedules:
        run = run_generation(policy, RadixCache(budget_slots),
                             TokenLedger(max_new_tokens), schedule=schedule)
        streams = run.branch_streams()
        if reference is None:
            reference = streams
        elif streams != reference:
            return False
    return True
