"""Structural validator for parallel-reasoning traces: the one tag state machine.

This is a single forward pass over the tag events, independent of the
recursive parser in :mod:`paratrace.document`; the two are property-tested
against each other. The same pass lays out what the mask, position and
stats builders of :mod:`paratrace.topology` read: each block's step spans,
the position of its guideline close and its longest step, and the position
runs. It never raises on malformed input: every problem becomes a violation
in one of six categories:

1. tag balance and nesting (strict-mode extras land here too)
2. every guideline declares at least one plan
3. every block runs at least one step
4. exactly one completed takeaway per block
5. no tag tokens outside block structure
6. a boxed answer is present in the epilogue
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .document import extract_boxed
from .tags import (GUIDELINE_CLOSE, GUIDELINE_OPEN, PLAN_CLOSE, PLAN_OPEN, STEP_CLOSE,
                   STEP_OPEN, TAKEAWAY_CLOSE, TAKEAWAY_OPEN, tag_scan)

CATEGORY_NAMES = {
    1: "tag_balance",
    2: "plans_present",
    3: "steps_present",
    4: "single_takeaway",
    5: "no_stray_tags",
    6: "boxed_answer",
}
CATEGORIES_TOTAL = len(CATEGORY_NAMES)


@dataclass(frozen=True)
class Violation:
    category: int
    index: int
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """One scan's violations, and the epilogue's ``\\boxed{}`` payload.

    ``boxed_answer`` is None also when the scan found a misplaced
    ``<guideline>``, a tag out of its ``TAG_RULES`` state or an unclosed
    block, but not for strict mode's nesting and plan/step flags. So it is
    ``parse_document(texts).boxed_answer``, None where the parser raises.
    ``to_json_dict`` leaves it out.

    ``_layout`` is private, for the topology builders. It is set exactly
    when ``boxed_answer`` is not forced to None, that is when the lenient
    scan finds no category-1 violation: the scan's blocks in join order
    and the flat ``(start, stop)`` bounds of the position runs. It takes no
    part in ``==``, ``repr`` or ``to_json_dict``."""

    violations: tuple[Violation, ...]
    boxed_answer: str | None = None
    _layout: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def categories_failed(self) -> int:
        return len(self.failed_categories())

    def failed_categories(self) -> frozenset[int]:
        return frozenset(v.category for v in self.violations)

    def to_json_dict(self) -> dict:
        failed = self.failed_categories()
        return {
            "ok": self.ok,
            "categories": {name: cat not in failed for cat, name in CATEGORY_NAMES.items()},
            "categories_failed": len(failed),
            "categories_total": CATEGORIES_TOTAL,
            "violations": [
                {"category": v.category, "index": v.index, "message": v.message}
                for v in self.violations
            ],
        }


# The production tag grammar, read by this validator and by the simulator's
# header gate: each tag other than ``<guideline>`` maps to (the block state it
# needs, the state it leaves, its category-1 message when the state differs).
# A block runs header -> (plan -> header)* -> steps -> (step -> steps)* ->
# takeaway -> None (closed); ``<guideline>`` opens a new block at top level or
# inside an open step. Plain tuples: they unpack faster than named ones.
TAG_RULES = {
    PLAN_OPEN: ("header", "plan", "plan outside a guideline header"),
    PLAN_CLOSE: ("plan", "header", "plan close without open plan"),
    GUIDELINE_CLOSE: ("header", "steps", "guideline close without open header"),
    STEP_OPEN: ("steps", "step", "step must follow the guideline close"),
    STEP_CLOSE: ("step", "steps", "step close without open step"),
    TAKEAWAY_OPEN: ("steps", "takeaway", "takeaway must follow the step region"),
    TAKEAWAY_CLOSE: ("takeaway", None, "takeaway close without open takeaway"),
}


class _Scan:
    """One block: its state, the index of its last move, its closed plans, its
    closed steps as a flat ``[open, close + 1, ...]`` list, the position of its
    guideline close (``p_end``) and its longest step in positions (``l_max``)."""

    __slots__ = ("start", "state", "at", "plans", "steps", "p_end", "l_max")

    def __init__(self, start: int):
        self.start = self.at = start
        self.state: str | None = "header"
        self.plans = self.p_end = self.l_max = 0
        self.steps: list[int] = []  # ints: no tuple per step for the collector


def validate_structure(texts: list[str] | tuple[str, ...],
                       strict: bool = False) -> ValidationReport:
    """Evaluate the six structural categories over a trace.

    ``texts`` is a list or tuple of ``str`` (``Token`` included), read in
    place by one :func:`~paratrace.tags.tag_scan`. With ``strict=True``,
    nested blocks and plan/step count mismatches are additionally reported
    as category-1 violations, and the report's ``boxed_answer`` stays the
    parser's.
    """
    violations: list[Violation] = []

    def flag(category: int, index: int, message: str) -> None:
        violations.append(Violation(category, index, message))

    stack: list[_Scan] = []
    top: _Scan | None = None  # the stack's last frame
    scanned: list[_Scan] = []
    last_top_close: int | None = None
    balanced = True
    # Token i sits at position i + shift. A step open restarts positions one past
    # the guideline close, and the takeaway open one past the longest step: each
    # ends a run and starts the next. ``bounds`` holds each run's start and stop.
    shift = 0
    bounds = [0]

    for i, tag in zip(*tag_scan(texts)):
        if tag is GUIDELINE_OPEN:
            if top is None or top.state == "step":
                if strict and top is not None:
                    flag(1, i, "nested block forbidden in strict mode")
                stack.append(top := _Scan(i))
            else:
                flag(1, i, "block may only open at top level or inside a step")
                balanced = False
            continue
        needs, leaves, message = TAG_RULES[tag]
        if top is not None and top.state == needs:
            top.state = leaves
            if tag is STEP_CLOSE:
                top.steps += top.at, i + 1
                if (length := i + shift - top.p_end) > top.l_max:
                    top.l_max = length
            elif tag is STEP_OPEN or tag is TAKEAWAY_OPEN:
                bounds.append(i + shift)
                shift = top.p_end + 1 - i + (0 if tag is STEP_OPEN else top.l_max)
                bounds.append(i + shift)
            elif tag is PLAN_CLOSE:
                top.plans += 1
            elif tag is GUIDELINE_CLOSE:
                top.p_end = i + shift
            elif leaves is None:
                scanned.append(stack.pop())
                top = stack[-1] if stack else None
                if top is None:
                    last_top_close = i
                continue
            top.at = i
        else:
            flag(1, i, message)
            balanced = False
            if top is None:
                flag(5, i, f"{tag.strip('</>')} tag outside block structure")
    bounds.append(len(texts) + shift)

    for frame in stack:
        at = frame.at if frame.state in ("plan", "step") else frame.start
        flag(1, at, "block left unclosed at end of sequence")
        scanned.append(frame)

    for frame in scanned:
        if frame.plans == 0:
            flag(2, frame.start, "guideline declares no plan")
        if not frame.steps:
            flag(3, frame.start, "block runs no step")
        if frame.state is not None:
            flag(4, frame.start, "block lacks a completed takeaway")
        if strict and frame.plans != (steps := len(frame.steps) // 2):
            flag(1, frame.start, f"strict mode: {frame.plans} plans vs {steps} steps")

    epilogue_start = last_top_close + 1 if last_top_close is not None else 0
    boxed = extract_boxed(" ".join(texts[epilogue_start:]))
    if boxed is None:
        flag(6, len(texts), "no boxed answer in the epilogue")

    violations.sort(key=lambda v: (v.index, v.category))
    if not balanced or stack:
        return ValidationReport(tuple(violations))
    return ValidationReport(tuple(violations), boxed, (scanned, bounds))
