"""Parallel attention-mask and position-id construction.

The mask, the position ids and the topology stats each come from one walk
over the tag events, after one validator pass that gates them. Sibling step
regions of a block are mutually blocked in the mask, and their position ids
all restart one past the guideline close, so a document's decode depth is
``max(position) + 1`` instead of its token count.

Step regions include their opening and closing step tags: the close tag
occupies a position inside the step's extent, so it must be isolated along
with the content for positions and visibility to stay consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .document import Span, parse_document
from .errors import ParseError, StructureError
from .tags import (GUIDELINE_CLOSE, GUIDELINE_OPEN, STEP_CLOSE, STEP_OPEN, TAKEAWAY_OPEN,
                   tag_events, token_texts)
from .validation import validate_structure

DENSE_LIMIT = 4096


@dataclass(frozen=True)
class Rect:
    """A blocked rectangle: ``rows`` cannot attend to ``cols``."""

    rows: Span
    cols: Span


class AttentionMask:
    """Sub-causal visibility over ``length`` tokens.

    Stored as the causal mask minus a coordinate list of blocked rectangles;
    a dense boolean view (True = visible) is materialized lazily for
    sequences up to ``DENSE_LIMIT``.
    """

    def __init__(self, length: int, blocked: tuple[Rect, ...] = (),
                 dense: np.ndarray | None = None):
        self.length = length
        self.blocked = tuple(blocked)
        self._dense = dense

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "AttentionMask":
        dense = np.asarray(dense, dtype=bool)
        return cls(dense.shape[0], (), dense)

    def is_visible(self, i: int, j: int) -> bool:
        if j > i:
            return False
        if self._dense is not None:
            return bool(self._dense[i, j])
        return not any(i in r.rows and j in r.cols for r in self.blocked)

    def dense(self) -> np.ndarray:
        """Dense boolean view, True where attention is allowed."""
        if self._dense is None:
            if self.length > DENSE_LIMIT:
                raise ValueError(
                    f"dense mask unavailable above {DENSE_LIMIT} tokens; "
                    "use the rectangle list")
            m = np.tril(np.ones((self.length, self.length), dtype=bool))
            for r in self.blocked:
                m[r.rows.start:r.rows.end, r.cols.start:r.cols.end] = False
            self._dense = m
        return self._dense

    def additive(self) -> np.ndarray:
        """Float view with 0 where visible and -inf where blocked."""
        out = np.where(self.dense(), 0.0, -np.inf)
        return out

    def to_coords_dict(self) -> dict:
        return {
            "v": 1,
            "length": self.length,
            "blocked": [
                {"row_span": [r.rows.start, r.rows.end],
                 "col_span": [r.cols.start, r.cols.end]}
                for r in self.blocked
            ],
        }

    def to_dense_bytes(self) -> bytes:
        """Row-major bitset, little-endian, LSB-first within each byte."""
        flat = self.dense().astype(np.uint8).ravel()
        return np.packbits(flat, bitorder="little").tobytes()

    def same_visibility(self, other: "AttentionMask") -> bool:
        return self.length == other.length and np.array_equal(self.dense(), other.dense())


class _TopoFrame:
    __slots__ = ("steps", "open_step", "p_end", "l_max")

    def __init__(self):
        self.steps: list[tuple[int, int]] = []
        self.open_step = -1
        self.p_end = -1
        self.l_max = 0


def _walk(tokens):
    """Gate ``tokens`` on the validator, then walk their tag events once.

    Returns ``(texts, steps, positions, blocks)``, with each block's sibling
    step spans as ``(start, end)`` pairs and its :class:`BlockStats`, blocks
    in join order. A step open restarts positions one past the guideline
    close and the takeaway resumes one past the longest step; between such
    shifts positions rise by one per token, so each run is one ``range``.
    """
    texts = token_texts(tokens)
    for v in validate_structure(texts).violations:
        if v.category == 1:
            raise StructureError(f"tag structure broken: {v.message}", v.index)
    stack: list[_TopoFrame] = []
    steps: list[list[tuple[int, int]]] = []
    blocks: list[BlockStats] = []
    pos: list[int] = []
    shift = 0  # pos[i] == i + shift within the current run
    for i, tag in tag_events(texts):
        if tag is GUIDELINE_OPEN:
            stack.append(_TopoFrame())
        elif tag is GUIDELINE_CLOSE:
            stack[-1].p_end = i + shift
        elif tag is STEP_OPEN:
            top = stack[-1]
            top.open_step = i
            pos += range(len(pos) + shift, i + shift)
            shift = top.p_end + 1 - i
        elif tag is STEP_CLOSE:
            top = stack[-1]
            top.steps.append((top.open_step, i + 1))
            top.l_max = max(top.l_max, i + shift - top.p_end)
        elif tag is TAKEAWAY_OPEN:
            top = stack.pop()
            steps.append(top.steps)
            blocks.append(BlockStats(len(top.steps), top.l_max))
            pos += range(len(pos) + shift, i + shift)
            shift = top.p_end + top.l_max + 1 - i
    pos += range(len(pos) + shift, len(texts) + shift)
    return texts, steps, pos, blocks


def build_attention_mask(tokens) -> AttentionMask:
    """Mask builder over one structural pass.

    Starts from the causal mask and, for each block in join order, blocks
    every ordered pair of distinct sibling step regions.
    """
    texts, steps, _, _ = _walk(tokens)
    blocked: list[Rect] = []
    for block_steps in steps:
        spans = [Span(a, b) for a, b in block_steps]
        blocked += [Rect(rows=a, cols=b) for a in spans for b in spans if a is not b]
    return AttentionMask(len(texts), tuple(blocked))


def mask_from_spans_oracle(tokens) -> AttentionMask:
    """Independent mask construction from the parsed block tree.

    Enumerates step spans via :func:`parse_document` and zeroes rectangles
    directly in a dense array, bypassing the tag walk entirely.
    """
    texts = token_texts(tokens)
    try:
        doc = parse_document(texts)
    except (ParseError, ValueError) as exc:
        index = getattr(exc, "index", None)
        raise StructureError(f"tag structure broken: {exc}", index) from exc
    n = len(texts)
    dense = np.tril(np.ones((n, n), dtype=bool))
    for block in doc.iter_blocks():
        for a in block.steps:
            for b in block.steps:
                if a is not b:
                    dense[a.start:a.end, b.start:b.end] = False
                    dense[b.start:b.end, a.start:a.end] = False
    return AttentionMask.from_dense(dense)


def build_position_ids(tokens) -> list[int]:
    """Parallel position ids over one structural pass.

    Sibling steps all restart one past their guideline close, and the
    takeaway sits one past the longest step.
    """
    return _walk(tokens)[2]


@dataclass(frozen=True)
class BlockStats:
    branch_count: int
    longest_step: int


@dataclass(frozen=True)
class TopologyStats:
    total_tokens: int
    critical_path: int
    compression_ratio: float
    blocks: tuple[BlockStats, ...]

    def to_json_dict(self) -> dict:
        return {
            "total_tokens": self.total_tokens,
            "critical_path": self.critical_path,
            "compression_ratio": self.compression_ratio,
            "blocks": [
                {"branch_count": b.branch_count, "longest_step": b.longest_step}
                for b in self.blocks
            ],
        }


def topology_stats(tokens) -> TopologyStats:
    """Decode-depth statistics: critical path and compression ratio.

    The compression ratio (total tokens over critical path) is the simulated
    speedup of parallel decode relative to left-to-right decode.
    """
    texts, _, pos, blocks = _walk(tokens)
    if not texts:
        return TopologyStats(0, 0, 1.0, ())
    critical = max(pos) + 1
    return TopologyStats(
        total_tokens=len(texts),
        critical_path=critical,
        compression_ratio=len(texts) / critical,
        blocks=tuple(blocks),
    )
