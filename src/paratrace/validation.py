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
                   STEP_OPEN, TAKEAWAY_CLOSE, TAKEAWAY_OPEN, tag_events)

CATEGORY_NAMES = {
    1: "tag_balance",
    2: "plans_present",
    3: "steps_present",
    4: "single_takeaway",
    5: "no_stray_tags",
    6: "boxed_answer",
}
CATEGORIES_TOTAL = 6


@dataclass(frozen=True)
class Violation:
    category: int
    index: int
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]
    categories_failed: int
    categories_total: int = CATEGORIES_TOTAL

    def failed_categories(self) -> frozenset[int]:
        return frozenset(v.category for v in self.violations)

    def to_json_dict(self) -> dict:
        failed = self.failed_categories()
        return {
            "ok": self.ok,
            "categories": {name: cat not in failed for cat, name in CATEGORY_NAMES.items()},
            "categories_failed": self.categories_failed,
            "categories_total": self.categories_total,
            "violations": [
                {"category": v.category, "index": v.index, "message": v.message}
                for v in self.violations
            ],
        }


class _Scan:
    __slots__ = ("start", "phase", "open_at", "plan_count", "step_count",
                 "takeaway_count", "depth")

    def __init__(self, start: int, depth: int):
        self.start = start
        self.phase = "header"
        self.open_at: int | None = None
        self.plan_count = 0
        self.step_count = 0
        self.takeaway_count = 0
        self.depth = depth


def validate_structure(texts: list[str] | tuple[str, ...],
                       strict: bool = False) -> ValidationReport:
    """Evaluate the six structural categories over a trace.

    ``texts`` is a list or tuple of ``str`` (``Token`` included), read in
    place. With ``strict=True``, nested blocks and plan/step count
    mismatches are additionally reported as category-1 violations.
    """
    violations: list[Violation] = []

    def flag(category: int, index: int, message: str) -> None:
        violations.append(Violation(category, index, message))

    stack: list[_Scan] = []
    scanned: list[_Scan] = []
    last_top_close: int | None = None

    for i, tag in tag_events(texts):
        top = stack[-1] if stack else None

        if tag is GUIDELINE_OPEN:
            if top is None:
                stack.append(_Scan(i, 0))
            elif top.phase == "steps" and top.open_at is not None:
                if strict:
                    flag(1, i, "nested block forbidden in strict mode")
                stack.append(_Scan(i, top.depth + 1))
            else:
                flag(1, i, "block may only open at top level or inside a step")
        elif tag is PLAN_OPEN:
            if top is not None and top.phase == "header" and top.open_at is None:
                top.open_at = i
            else:
                flag(1, i, "plan outside a guideline header")
                if top is None:
                    flag(5, i, "plan tag outside block structure")
        elif tag is PLAN_CLOSE:
            if top is not None and top.phase == "header" and top.open_at is not None:
                top.open_at = None
                top.plan_count += 1
            else:
                flag(1, i, "plan close without open plan")
                if top is None:
                    flag(5, i, "plan tag outside block structure")
        elif tag is GUIDELINE_CLOSE:
            if top is not None and top.phase == "header" and top.open_at is None:
                top.phase = "steps"
            else:
                flag(1, i, "guideline close without open header")
                if top is None:
                    flag(5, i, "guideline tag outside block structure")
        elif tag is STEP_OPEN:
            if top is not None and top.phase == "steps" and top.open_at is None:
                top.open_at = i
            else:
                flag(1, i, "step must follow the guideline close")
                if top is None:
                    flag(5, i, "step tag outside block structure")
        elif tag is STEP_CLOSE:
            if top is not None and top.phase == "steps" and top.open_at is not None:
                top.open_at = None
                top.step_count += 1
            else:
                flag(1, i, "step close without open step")
                if top is None:
                    flag(5, i, "step tag outside block structure")
        elif tag is TAKEAWAY_OPEN:
            if top is not None and top.phase == "steps" and top.open_at is None:
                top.phase = "takeaway"
            else:
                flag(1, i, "takeaway must follow the step region")
                if top is None:
                    flag(5, i, "takeaway tag outside block structure")
        elif tag is TAKEAWAY_CLOSE:
            if top is not None and top.phase == "takeaway":
                top.takeaway_count += 1
                scanned.append(top)
                stack.pop()
                if top.depth == 0:
                    last_top_close = i
            else:
                flag(1, i, "takeaway close without open takeaway")
                if top is None:
                    flag(5, i, "takeaway tag outside block structure")

    for frame in stack:
        at = frame.open_at if frame.open_at is not None else frame.start
        flag(1, at, "block left unclosed at end of sequence")
        scanned.append(frame)

    for frame in scanned:
        if frame.plan_count == 0:
            flag(2, frame.start, "guideline declares no plan")
        if frame.step_count == 0:
            flag(3, frame.start, "block runs no step")
        if frame.takeaway_count != 1:
            flag(4, frame.start, "block lacks a completed takeaway")
        if strict and frame.plan_count != frame.step_count:
            flag(1, frame.start,
                 f"strict mode: {frame.plan_count} plans vs {frame.step_count} steps")

    epilogue_start = last_top_close + 1 if last_top_close is not None else 0
    if extract_boxed(" ".join(texts[epilogue_start:])) is None:
        flag(6, len(texts), "no boxed answer in the epilogue")

    violations.sort(key=lambda v: (v.index, v.category))
    failed = {v.category for v in violations}
    return ValidationReport(
        ok=not violations,
        violations=tuple(violations),
        categories_failed=len(failed),
    )
