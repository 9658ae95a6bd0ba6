"""Lightweight structural validator for parallel-reasoning traces.

This is a single forward scan, independent of the recursive parser in
:mod:`paratrace.document`; the two are property-tested against each other.
It never raises on malformed input: every problem becomes a violation in one
of six categories:

1. tag balance and nesting (strict-mode extras land here too)
2. every guideline declares at least one plan
3. every block runs at least one step
4. exactly one completed takeaway per block
5. no tag tokens outside block structure
6. a boxed answer is present in the epilogue
"""

from __future__ import annotations

from dataclasses import dataclass

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
    ``to_json_dict`` leaves it out."""

    violations: tuple[Violation, ...]
    boxed_answer: str | None = None

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
    """One block: its state, the index of its last move, and its closed plans and steps."""

    __slots__ = ("start", "state", "at", "plans", "steps")

    def __init__(self, start: int):
        self.start = self.at = start
        self.state: str | None = "header"
        self.plans = self.steps = 0


def validate_structure(texts: list[str] | tuple[str, ...], strict: bool = False, *,
                       events: tuple[list[int], list[str]] | None = None) -> ValidationReport:
    """Evaluate the six structural categories over a trace.

    ``texts`` is a list or tuple of ``str`` (``Token`` included), read in
    place. With ``strict=True``, nested blocks and plan/step count
    mismatches are additionally reported as category-1 violations, and the
    report's ``boxed_answer`` stays the parser's. ``events`` is the
    ``(index, tag)`` events of ``texts``, when the caller already holds
    them: the ``(indices, tags)`` lists that :func:`~paratrace.tags.tag_scan`
    returns for ``texts``, read and not checked against them. Without it the
    validator makes that scan itself.
    """
    violations: list[Violation] = []

    def flag(category: int, index: int, message: str) -> None:
        violations.append(Violation(category, index, message))

    stack: list[_Scan] = []
    scanned: list[_Scan] = []
    last_top_close: int | None = None
    balanced = True

    indices, tags = tag_scan(texts) if events is None else events
    for i, tag in zip(indices, tags):
        top = stack[-1] if stack else None
        if tag is GUIDELINE_OPEN:
            if top is None or top.state == "step":
                if strict and top is not None:
                    flag(1, i, "nested block forbidden in strict mode")
                stack.append(_Scan(i))
            else:
                flag(1, i, "block may only open at top level or inside a step")
                balanced = False
            continue
        needs, leaves, message = TAG_RULES[tag]
        if top is not None and top.state == needs:
            top.state = leaves
            top.at = i
            if tag is PLAN_CLOSE:
                top.plans += 1
            elif tag is STEP_CLOSE:
                top.steps += 1
            elif leaves is None:
                scanned.append(stack.pop())
                if not stack:
                    last_top_close = i
        else:
            flag(1, i, message)
            balanced = False
            if top is None:
                flag(5, i, f"{tag.strip('</>')} tag outside block structure")

    for frame in stack:
        at = frame.at if frame.state in ("plan", "step") else frame.start
        flag(1, at, "block left unclosed at end of sequence")
        scanned.append(frame)

    for frame in scanned:
        if frame.plans == 0:
            flag(2, frame.start, "guideline declares no plan")
        if frame.steps == 0:
            flag(3, frame.start, "block runs no step")
        if frame.state is not None:
            flag(4, frame.start, "block lacks a completed takeaway")
        if strict and frame.plans != frame.steps:
            flag(1, frame.start, f"strict mode: {frame.plans} plans vs {frame.steps} steps")

    epilogue_start = last_top_close + 1 if last_top_close is not None else 0
    boxed = extract_boxed(" ".join(texts[epilogue_start:]))
    if boxed is None:
        flag(6, len(texts), "no boxed answer in the epilogue")

    violations.sort(key=lambda v: (v.index, v.category))
    return ValidationReport(tuple(violations), boxed if balanced and not stack else None)
