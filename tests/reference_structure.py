"""Reference implementations of the structure layer, kept for cross-checks.

These are the earlier streaming builders: one tag stack machine per result,
each looking up every token with ``tag_of``, and a position builder that
shifts the whole suffix at every step open. They are slow but plainly
correct, and share no code with the production walk in
:mod:`paratrace.topology`. The regex tokenizer is the earlier
``tokenize`` rule.
"""

from __future__ import annotations

import numpy as np

from paratrace import (AttentionMask, BlockStats, Rect, Span, StructureError,
                       TopologyStats, validate_structure)
from paratrace.tags import _TAG_SPLIT, Tag, tag_of


def ref_tokenize(text: str) -> list[str]:
    """Whitespace split, then every chunk split around embedded tag strings."""
    return [part for chunk in text.split() for part in _TAG_SPLIT.split(chunk) if part]


def _require_balanced(texts: list[str]) -> None:
    for v in validate_structure(texts).violations:
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
        tag = tag_of(text)
        if tag is Tag.GUIDELINE_OPEN:
            stack.append(_Frame())
        elif tag is Tag.STEP_OPEN:
            stack[-1].open_step = i
        elif tag is Tag.STEP_CLOSE:
            frame = stack[-1]
            frame.steps.append(Span(frame.open_step, i + 1))
            frame.open_step = None
        elif tag is Tag.TAKEAWAY_OPEN:
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
        tag = tag_of(text)
        if tag is None:
            continue
        top = stack[-1] if stack else None
        if tag is Tag.GUIDELINE_OPEN:
            stack.append(_Frame())
        elif tag is Tag.GUIDELINE_CLOSE:
            top.p_end = int(pos[i])
        elif tag is Tag.STEP_OPEN and top is not None and top.p_end >= 0:
            pos[i:] -= int(pos[i]) - top.p_end - 1
        elif tag is Tag.STEP_CLOSE:
            top.l_max = max(top.l_max, int(pos[i]) - top.p_end)
        elif tag is Tag.TAKEAWAY_OPEN:
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
        tag = tag_of(text)
        if tag is Tag.GUIDELINE_OPEN:
            stack.append(_Frame())
        elif tag is Tag.GUIDELINE_CLOSE:
            stack[-1].p_end = pos[i]
        elif tag is Tag.STEP_CLOSE:
            frame = stack[-1]
            frame.steps.append(Span(i, i + 1))
            frame.l_max = max(frame.l_max, pos[i] - frame.p_end)
        elif tag is Tag.TAKEAWAY_OPEN:
            frame = stack.pop()
            blocks.append(BlockStats(len(frame.steps), frame.l_max))
    return TopologyStats(
        total_tokens=len(texts),
        critical_path=critical,
        compression_ratio=len(texts) / critical,
        blocks=tuple(blocks),
    )
