"""Parallel attention-mask and position-id construction.

The mask, the position ids and the topology stats all come from one pass
over the tags: one tag scan, read by the validator's state machine, which
both gates the structure and lays out the step spans, the position runs and
each block's stats. The last result is kept with its token sequence, so the
builders called in turn on equal tokens share one pass. Sibling step regions
of a block are mutually blocked in the mask, and their position ids all
restart one past the guideline close, so a document's decode depth is
``max(position) + 1`` instead of its token count.

Step regions include their opening and closing step tags: the close tag
occupies a position inside the step's extent, so it must be isolated along
with the content for positions and visibility to stay consistent.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, permutations
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np

from .document import Span, parse_document
from .errors import ParseError, StructureError
from .validation import validate_structure

DENSE_LIMIT = 4096


class Rect(NamedTuple):
    """A blocked rectangle: ``rows`` cannot attend to ``cols``."""

    rows: Span
    cols: Span


class AttentionMask:
    """Sub-causal visibility over ``length`` tokens: the causal mask minus blocked rectangles.

    Held as one group of ``(start, end)`` sibling step spans per block of two or more
    steps when built, as the given :class:`Rect` list, or (:meth:`from_dense`) as a dense
    array with no rectangle list. The dense view (True = visible) is built lazily up to
    ``DENSE_LIMIT`` tokens; it and :meth:`is_visible` read a built mask's groups in
    O(steps) array operations and O(blocks · log steps) per query.
    """

    def __init__(self, length: int, blocked: tuple[Rect, ...] = ()):
        self.length = length
        self._rects = tuple(blocked)
        self._groups, self._dense = (), None

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "AttentionMask":
        mask = cls(len(dense))
        mask._rects, mask._dense = None, np.asarray(dense, dtype=bool)
        return mask

    def _pairs(self, span):
        """Blocked ``(rows, cols)`` pairs in order, each span made by ``span(start, end)``.

        A group yields every ordered pair of its spans, in ``permutations`` order."""
        if self._rects is None:
            raise ValueError("a mask made from a dense array lists no blocked rectangles")
        for r in self._rects:
            yield span(r.rows.start, r.rows.end), span(r.cols.start, r.cols.end)
        for group in self._groups:
            yield from permutations([span(a, b) for a, b in group], 2)

    @property
    def blocked(self) -> tuple[Rect, ...]:
        """The blocked rectangles, built on each read."""
        return tuple(Rect(rows, cols) for rows, cols in self._pairs(Span))

    def is_visible(self, i: int, j: int) -> bool:
        if not (0 <= i < self.length and 0 <= j < self.length):
            raise IndexError(f"({i}, {j}) outside a mask of {self.length} tokens")
        if j > i:
            return False
        if self._dense is not None:
            return bool(self._dense[i, j])
        if any(i in r.rows and j in r.cols for r in self._rects):
            return False
        for group in self._groups:
            row_step, col_step = _step_at(group, i), _step_at(group, j)
            if None not in (row_step, col_step) and row_step != col_step:
                return False
        return True

    def dense(self) -> np.ndarray:
        """Dense boolean view, True where attention is allowed."""
        if self._dense is None:
            if self.length > DENSE_LIMIT:
                raise ValueError(f"dense mask unavailable above {DENSE_LIMIT} tokens; "
                                 "use the rectangle list")
            m = np.tri(self.length, dtype=bool)
            for r in self._rects:
                m[r.rows.start:r.rows.end, r.cols.start:r.cols.end] = False
            # Below the diagonal a step is blocked only from its earlier siblings:
            # each span's rows keep the columns, from the group's first span on,
            # that no earlier span holds.
            for group in self._groups:
                lo = group[0][0]
                visible = np.ones(group[-1][0] - lo, dtype=bool)
                for (a, b), (c, d) in zip(group, group[1:]):
                    visible[a - lo:b - lo] = False
                    m[c:d, lo:c] &= visible[:c - lo]
            self._dense = m
        return self._dense

    def additive(self) -> np.ndarray:
        """Float view with 0 where visible and -inf where blocked."""
        return np.where(self.dense(), 0.0, -np.inf)

    def to_coords_dict(self) -> dict:
        """Coords form; one ``[start, end]`` list per span, shared by its rectangles."""
        return {"v": 1, "length": self.length,
                "blocked": [{"row_span": rows, "col_span": cols}
                            for rows, cols in self._pairs(lambda a, b: [a, b])]}

    def to_dense_bytes(self) -> bytes:
        """Row-major bitset, little-endian, LSB-first within each byte."""
        return np.packbits(self.dense(), axis=None, bitorder="little").tobytes()

    def same_visibility(self, other: "AttentionMask") -> bool:
        return self.length == other.length and np.array_equal(self.dense(), other.dense())


def _step_at(group, k: int) -> int | None:
    """The index in ``group`` of the step span holding token ``k``, or None."""
    at = bisect_right(group, k, key=itemgetter(0)) - 1
    return at if at >= 0 and k < group[at][1] else None


# The last successful walk: its token sequence as a tuple, and its result.
_kept: tuple = (None, None)


def _walk(texts):
    """The structure of ``texts``: one validator pass, which makes one tag scan.

    ``texts`` is a list or tuple of ``str``; its references are copied into
    one tuple, which the validator reads and which is kept as the key of the
    result. A call on an equal sequence returns the kept result with no scan
    and no validator pass. The report's first category-1 violation is raised as
    :class:`StructureError`, and such a walk is not kept. Otherwise the
    report carries the layout its pass made, and it is copied into
    ``(groups, runs, blocks)``, all immutable: ``groups`` holds, for each
    block of two or more steps, its sibling step spans as ``(start, end)``
    pairs; ``runs`` the position ids as consecutive non-empty ``range``
    runs; and ``blocks`` each block's :class:`BlockStats`, blocks in join
    order.
    """
    global _kept
    key = tuple(texts)
    kept_key, kept = _kept
    if key == kept_key:
        return kept
    report = validate_structure(key)
    for v in report.violations:
        if v.category == 1:
            raise StructureError(f"tag structure broken: {v.message}", v.index)
    frames, bounds = report._layout
    result = (tuple(tuple(zip(f.steps[::2], f.steps[1::2])) for f in frames if len(f.steps) > 2),
              tuple(filter(None, map(range, bounds[::2], bounds[1::2]))),
              tuple(BlockStats(len(f.steps) // 2, f.l_max) for f in frames))
    _kept = key, result
    return result


def build_attention_mask(tokens) -> AttentionMask:
    """Mask builder over one structural pass.

    Blocks every ordered pair of distinct sibling step regions, kept as the
    walk's step groups (blocks of one step block nothing), so building it is
    linear in the trace length."""
    mask = AttentionMask(len(tokens))
    mask._groups = _walk(tokens)[0]
    return mask


def mask_from_spans_oracle(tokens) -> AttentionMask:
    """Independent mask construction from the parsed block tree.

    Enumerates step spans via :func:`parse_document` and zeroes rectangles
    directly in a dense array, bypassing the tag walk entirely. The empty
    trace, which the parser refuses, has the empty mask.
    """
    if not tokens:
        return AttentionMask(0)
    try:
        doc = parse_document(tokens)
    except ParseError as exc:
        raise StructureError(f"tag structure broken: {exc}", exc.index) from exc
    n = len(tokens)
    dense = np.tri(n, dtype=bool)
    for block in doc.iter_blocks():
        for a, b in permutations(block.steps, 2):
            dense[a.start:a.end, b.start:b.end] = False
    return AttentionMask.from_dense(dense)


def build_position_ids(tokens) -> list[int]:
    """Parallel position ids over one structural pass.

    Sibling steps all restart one past their guideline close, and the
    takeaway sits one past the longest step. Each call returns a new list.
    """
    return list(chain.from_iterable(_walk(tokens)[1]))


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
    _, runs, blocks = _walk(tokens)
    if not tokens:
        return TopologyStats(0, 0, 1.0, ())
    critical = max(map(attrgetter("stop"), runs))
    return TopologyStats(
        total_tokens=len(tokens),
        critical_path=critical,
        compression_ratio=len(tokens) / critical,
        blocks=blocks,
    )
