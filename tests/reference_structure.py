"""Reference implementations of the structure layer, kept for cross-checks.

These are the earlier streaming builders: one tag stack machine per result,
each testing every token with ``is_tag`` and ``==`` against the tag
constants, and a position builder that shifts the whole suffix at every step
open. They are slow but plainly correct, and share no code with the
production walk in :mod:`paratrace.topology`. The regex tokenizer is the
earlier ``tokenize`` rule. The validator and the simulator's header gate are
the earlier hand-coded state machines, one branch per tag, copied unchanged
apart from their names; production reads both from one rule table.
"""

from __future__ import annotations

import numpy as np

from paratrace import (AttentionMask, BlockStats, Rect, Span, StructureError,
                       TopologyStats)
from paratrace.document import extract_boxed
from paratrace.tags import (_TAG_SPLIT, GUIDELINE_CLOSE, GUIDELINE_OPEN, PLAN_CLOSE,
                            PLAN_OPEN, STEP_CLOSE, STEP_OPEN, TAKEAWAY_CLOSE,
                            TAKEAWAY_OPEN, is_tag, tag_events)
from paratrace.validation import ValidationReport, Violation


def ref_tokenize(text: str) -> list[str]:
    """Whitespace split, then every chunk split around embedded tag strings."""
    return [part for chunk in text.split() for part in _TAG_SPLIT.split(chunk) if part]


def _require_balanced(texts: list[str]) -> None:
    for v in ref_validate_structure(texts).violations:
        if v.category == 1:
            raise StructureError(f"tag structure broken: {v.message}", v.index)


class _Frame:
    def __init__(self):
        self.steps: list[Span] = []
        self.open_step: int | None = None
        self.p_end = -1
        self.l_max = 0


def ref_attention_mask(tokens) -> AttentionMask:
    texts = [str(t) for t in tokens]
    _require_balanced(texts)
    stack: list[_Frame] = []
    blocked: list[Rect] = []
    for i, text in enumerate(texts):
        if not is_tag(text):
            continue
        if text == GUIDELINE_OPEN:
            stack.append(_Frame())
        elif text == STEP_OPEN:
            stack[-1].open_step = i
        elif text == STEP_CLOSE:
            frame = stack[-1]
            frame.steps.append(Span(frame.open_step, i + 1))
            frame.open_step = None
        elif text == TAKEAWAY_OPEN:
            frame = stack.pop()
            for j, a in enumerate(frame.steps):
                for k, b in enumerate(frame.steps):
                    if j != k:
                        blocked.append(Rect(rows=a, cols=b))
    return AttentionMask(len(texts), tuple(blocked))


def ref_position_ids(tokens) -> list[int]:
    texts = [str(t) for t in tokens]
    _require_balanced(texts)
    n = len(texts)
    pos = np.arange(n, dtype=np.int64)
    stack: list[_Frame] = []
    for i, text in enumerate(texts):
        if not is_tag(text):
            continue
        top = stack[-1] if stack else None
        if text == GUIDELINE_OPEN:
            stack.append(_Frame())
        elif text == GUIDELINE_CLOSE:
            top.p_end = int(pos[i])
        elif text == STEP_OPEN and top is not None and top.p_end >= 0:
            pos[i:] -= int(pos[i]) - top.p_end - 1
        elif text == STEP_CLOSE:
            top.l_max = max(top.l_max, int(pos[i]) - top.p_end)
        elif text == TAKEAWAY_OPEN:
            pos[i:] -= int(pos[i]) - top.p_end - top.l_max - 1
            stack.pop()
    return [int(p) for p in pos]


def ref_topology_stats(tokens) -> TopologyStats:
    texts = [str(t) for t in tokens]
    if not texts:
        return TopologyStats(0, 0, 1.0, ())
    pos = ref_position_ids(texts)
    critical = max(pos) + 1
    stack: list[_Frame] = []
    blocks: list[BlockStats] = []
    for i, text in enumerate(texts):
        if not is_tag(text):
            continue
        if text == GUIDELINE_OPEN:
            stack.append(_Frame())
        elif text == GUIDELINE_CLOSE:
            stack[-1].p_end = pos[i]
        elif text == STEP_CLOSE:
            frame = stack[-1]
            frame.steps.append(Span(i, i + 1))
            frame.l_max = max(frame.l_max, pos[i] - frame.p_end)
        elif text == TAKEAWAY_OPEN:
            frame = stack.pop()
            blocks.append(BlockStats(len(frame.steps), frame.l_max))
    return TopologyStats(
        total_tokens=len(texts),
        critical_path=critical,
        compression_ratio=len(texts) / critical,
        blocks=tuple(blocks),
    )


class _RefScan:
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


def ref_validate_structure(texts: list[str] | tuple[str, ...],
                           strict: bool = False) -> ValidationReport:
    """Evaluate the six structural categories over a trace.

    ``texts`` is a list or tuple of ``str`` (``Token`` included), read in
    place. With ``strict=True``, nested blocks and plan/step count
    mismatches are additionally reported as category-1 violations.
    """
    violations: list[Violation] = []

    def flag(category: int, index: int, message: str) -> None:
        violations.append(Violation(category, index, message))

    stack: list[_RefScan] = []
    scanned: list[_RefScan] = []
    last_top_close: int | None = None

    for i, tag in tag_events(texts):
        top = stack[-1] if stack else None

        if tag is GUIDELINE_OPEN:
            if top is None:
                stack.append(_RefScan(i, 0))
            elif top.phase == "steps" and top.open_at is not None:
                if strict:
                    flag(1, i, "nested block forbidden in strict mode")
                stack.append(_RefScan(i, top.depth + 1))
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
    return ValidationReport(tuple(violations))


def ref_validate_header(prologue, n_branches: int, strict: bool) -> str | None:
    """Pre-branch structural gate on the guideline header.

    Returns why the header is refused, or None. Checks are cheap and
    conservative: the header must be exactly one guideline region with
    balanced plans and at least one plan; strict mode also requires one plan
    per branch.
    """
    tags = list(tag_events(prologue))
    if not tags or tags[0] != (0, GUIDELINE_OPEN):
        return "header must start with a guideline open"
    if tags[-1] != (len(prologue) - 1, GUIDELINE_CLOSE):
        return "header must end with the guideline close"
    plan_count = 0
    open_plan = False
    closed = False
    for i, tag in tags[1:]:
        if closed:
            return "tokens after the guideline close"
        if tag is PLAN_OPEN and not open_plan:
            open_plan = True
        elif tag is PLAN_CLOSE and open_plan:
            open_plan = False
            plan_count += 1
        elif tag is GUIDELINE_CLOSE and not open_plan:
            closed = True
        else:
            return f"illegal header tag {prologue[i]!r}"
    if plan_count < 1:
        return "header declares no plan"
    if strict and plan_count != n_branches:
        return f"{plan_count} plans for {n_branches} branches"
    return None
