"""Reference fork/join simulator, kept for cross-checks.

This is the earlier per-token path: every branch token goes through its own
``_advance`` call, every charged token through ``emit``, and the event log
holds :class:`GenerationEvent` records built as each event happens. It is
slower but plainly follows the phases one token at a time, and shares no
per-token code with :mod:`paratrace.engine`: it borrows only the record
type, the context view, the header gate and the table of closing tags.
"""

from __future__ import annotations

from paratrace import IllegalSchema, LedgerExhausted
from paratrace.engine import (_CLOSER, SCHEDULES, EmissionLogView, GenerationEvent,
                              _validate_header)
from paratrace.tags import STEP_CLOSE, TAKEAWAY_CLOSE, TAKEAWAY_OPEN, tag_events


class _Branch:
    def __init__(self, branch_id: str, lease):
        self.branch_id = branch_id
        self.emitted: list[str] = []
        self.status = "active"  # active | closed | truncated
        self.lease = lease


class _RefRun:
    def __init__(self, policy, cache, ledger, schedule: str):
        if schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {schedule!r}")
        self.policy = policy
        self.cache = cache
        self.ledger = ledger
        self.schedule = schedule
        self.events: list[GenerationEvent] = []
        self.emission_log: list[str] = []
        self.step = 0

    def event(self, kind: str, branch=None, token=None) -> None:
        self.events.append(GenerationEvent(kind, self.step, branch, token))

    def emit(self, out: list[str], token: str, lease, branch=None) -> None:
        flushes = self.cache.flush_count
        self.cache.extend(lease, token)
        if self.cache.flush_count != flushes:
            self.event("flush", branch=branch)
        out.append(token)
        self.emission_log.append(token)
        self.event("emit", branch=branch, token=token)

    def sequential(self, out: list[str], stream, lease) -> bool:
        for token in stream:
            if self.ledger.charge(1) < 1:
                return False
            self.emit(out, token, lease)
            self.step += 1
        return True

    def force_close(self, out: list[str], branch=None) -> None:
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
            self.event("truncate", branch=branch)
        for token in closes:
            out.append(token)
            self.emission_log.append(token)
            self.event("truncate", branch=branch, token=token)
            if branch is None:
                self.step += 1


def ref_generation(policy, cache, ledger, strict_validator: bool = False,
                   schedule: str = "round_robin"):
    """``(events, decode_steps, tokens)`` of one rollout, raising as
    :func:`paratrace.run_generation` does."""
    if ledger.remaining <= 0:
        raise LedgerExhausted("generation requires a positive token budget")
    run = _RefRun(policy, cache, ledger, schedule)
    prologue: list[str] = []
    main_lease = cache.match_and_insert([])
    try:
        funded = run.sequential(prologue, policy.prologue, main_lease)
        reason = _validate_header(policy.prologue, len(policy.branch_ids),
                                  strict_validator)
        if reason is not None:
            run.event("reject", token=reason)
            raise IllegalSchema(f"pre-branch validator: {reason}",
                                tokens=prologue, events=run.events)
        if not funded:
            run.force_close(prologue)
            return run.events, run.step, prologue

        run.event("fork")
        branches = [_Branch(bid, cache.match_and_insert(prologue))
                    for bid in policy.branch_ids]
        try:
            _parallel_phase(run, branches)
            run.event("join")
        finally:
            for b in branches:
                cache.release(b.lease)

        tail: list[str] = []
        if not run.sequential(tail, policy.takeaway, main_lease):
            run.force_close(tail)
        tokens = prologue + [t for b in branches for t in b.emitted] + tail
        return run.events, run.step, tokens
    finally:
        cache.release(main_lease)


def _parallel_phase(run: _RefRun, branches: list[_Branch]) -> None:
    order = list(branches)
    if run.schedule == "reverse_round_robin":
        order = order[::-1]
    groups = [[b] for b in order] if run.schedule == "branch_major" else [order]
    for active in groups:
        while True:
            active = [b for b in active if b.status == "active"]
            if not active:
                break
            accepted = run.ledger.charge(len(active))
            before = len(run.emission_log)
            for i, b in enumerate(active):
                _advance(run, b, funded=i < accepted)
            if len(run.emission_log) > before:
                run.step += 1


def _advance(run: _RefRun, branch: _Branch, funded: bool) -> None:
    if not funded:
        run.force_close(branch.emitted, branch.branch_id)
        branch.status = "truncated"
        return
    token = run.policy.next_token(branch.branch_id, len(branch.emitted),
                                  EmissionLogView(run.emission_log))
    if token is None:
        raise ValueError(f"policy returned no token for active branch "
                         f"{branch.branch_id!r}")
    run.emit(branch.emitted, token, branch.lease, branch.branch_id)
    if token == STEP_CLOSE:
        branch.status = "closed"
