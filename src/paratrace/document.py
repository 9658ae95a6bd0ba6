"""Tokenization and parsing of tagged parallel-reasoning traces.

A trace is a flat token sequence. Structure comes from eight reserved tags:
a block opens with ``<guideline>``, declares its plans, closes the header
with ``</guideline>``, runs one ``<step>...</step>`` region per branch, and
joins with ``<takeaway>...</takeaway>``. Blocks may nest inside steps, and
the text after the last block is the user-facing epilogue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .errors import MisplacedTag, UnbalancedTag
from .tags import (_TAG_SPLIT, GUIDELINE_CLOSE, GUIDELINE_OPEN, PLAN_CLOSE, PLAN_OPEN,
                   STEP_CLOSE, STEP_OPEN, TAG_STRINGS, TAKEAWAY_CLOSE, TAKEAWAY_OPEN,
                   Token, tag_events, token_texts)

# Token() without its checks, which split parts always pass.
_new_token = partial(str.__new__, Token)


def tokenize(text: str) -> list[Token]:
    """Whitespace-delimited reference tokenizer.

    Reserved tag strings always come out as their own tokens, even when the
    input glues them to neighbouring text.
    """
    chunks = text.split()
    # Every tag holds one "<"; if each "<" sits in a chunk that is exactly a
    # tag, no tag is glued to other text and every chunk is one token.
    if text.count("<") != sum(map(TAG_STRINGS.__contains__, chunks)):
        chunks = [part for chunk in chunks
                  for part in (_TAG_SPLIT.split(chunk) if "<" in chunk else (chunk,))
                  if part]
    return list(map(_new_token, chunks))


def serialize(tokens) -> str:
    """Inverse of :func:`tokenize` up to whitespace normalization."""
    return " ".join(token_texts(tokens))


@dataclass(frozen=True, order=True)
class Span:
    """Half-open token-index range ``[start, end)``."""

    start: int
    end: int

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start

    def __contains__(self, index: int) -> bool:
        return self.start <= index < self.end

    def overlaps(self, other: "Span") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass
class ParallelBlock:
    """One guideline/steps/takeaway round.

    All spans include their opening and closing tag tokens. ``children``
    holds blocks nested inside this block's steps.
    """

    guideline_span: Span
    plans: list[Span]
    steps: list[Span]
    takeaway_span: Span
    children: list["ParallelBlock"] = field(default_factory=list)

    @property
    def extent(self) -> Span:
        return Span(self.guideline_span.start, self.takeaway_span.end)


@dataclass
class ReasoningDoc:
    """Parsed trace: block tree over the token texts."""

    tokens: list[str]
    blocks: list[ParallelBlock]
    epilogue_span: Span | None
    boxed_answer: str | None

    def iter_blocks(self):
        """Depth-first walk over all blocks, nested ones included."""
        stack = list(reversed(self.blocks))
        while stack:
            block = stack.pop()
            yield block
            stack.extend(reversed(block.children))

    def texts(self) -> list[str]:
        return list(self.tokens)

    def reconstruct_texts(self) -> list[str]:
        """Rebuild the token texts from the span structure.

        Walks top-level block extents and the gaps between them; equality
        with ``texts()`` certifies the span bookkeeping.
        """
        out: list[str] = []
        cursor = 0
        texts = self.texts()
        for block in self.blocks:
            ext = block.extent
            out.extend(texts[cursor:ext.start])
            out.extend(texts[ext.start:ext.end])
            cursor = ext.end
        out.extend(texts[cursor:])
        return out


def extract_boxed(text: str) -> str | None:
    """Return the payload of the first ``\\boxed{...}`` in ``text``.

    Brace matching is depth-aware so payloads may contain braced groups.
    """
    marker = "\\boxed{"
    at = text.find(marker)
    if at < 0:
        return None
    depth = 1
    start = at + len(marker)
    for i in range(start, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return text[start:i]
    return None


class _Frame:
    __slots__ = ("start", "phase", "open_at", "plans", "steps", "children",
                 "guideline_span", "takeaway_start")

    def __init__(self, start: int):
        self.start = start
        self.phase = "header"  # header -> steps -> takeaway
        self.open_at: int | None = None  # current open plan/step
        self.plans: list[Span] = []
        self.steps: list[Span] = []
        self.children: list[ParallelBlock] = []
        self.guideline_span: Span | None = None
        self.takeaway_start: int | None = None


def parse_document(tokens) -> ReasoningDoc:
    """Parse a token sequence into a :class:`ReasoningDoc`.

    Raises :class:`UnbalancedTag` for unmatched or unclosed tags and
    :class:`MisplacedTag` for tags the grammar does not allow where they
    appear. Cardinality problems (a block with no plans or no steps) are not
    parse errors; the validator reports them.
    """
    texts = token_texts(tokens)
    if not texts:
        raise ValueError("parse_document requires a non-empty token sequence")

    frames: list[_Frame] = []
    blocks: list[ParallelBlock] = []

    for i, tag in tag_events(texts):
        top = frames[-1] if frames else None

        if tag is GUIDELINE_OPEN:
            if top is None:
                frames.append(_Frame(i))
            elif top.phase == "steps" and top.open_at is not None:
                frames.append(_Frame(i))  # nested block inside an open step
            else:
                raise MisplacedTag("block may only open at top level or inside a step", i)
        elif tag is PLAN_OPEN:
            if top is None or top.phase != "header" or top.open_at is not None:
                raise MisplacedTag("plan outside a guideline header", i)
            top.open_at = i
        elif tag is PLAN_CLOSE:
            if top is None or top.phase != "header" or top.open_at is None:
                raise UnbalancedTag("plan close without open plan", i)
            top.plans.append(Span(top.open_at, i + 1))
            top.open_at = None
        elif tag is GUIDELINE_CLOSE:
            if top is None or top.phase != "header":
                raise UnbalancedTag("guideline close without open header", i)
            if top.open_at is not None:
                raise UnbalancedTag("guideline close with an open plan", i)
            top.guideline_span = Span(top.start, i + 1)
            top.phase = "steps"
        elif tag is STEP_OPEN:
            if top is None:
                raise MisplacedTag("step with no enclosing block", i)
            if top.phase != "steps" or top.open_at is not None:
                raise MisplacedTag("step must follow the guideline close", i)
            top.open_at = i
        elif tag is STEP_CLOSE:
            if top is None or top.phase != "steps" or top.open_at is None:
                raise UnbalancedTag("step close without open step", i)
            top.steps.append(Span(top.open_at, i + 1))
            top.open_at = None
        elif tag is TAKEAWAY_OPEN:
            if top is None:
                raise MisplacedTag("takeaway with no enclosing block", i)
            if top.phase != "steps" or top.open_at is not None:
                raise MisplacedTag("takeaway must follow the step region", i)
            top.phase = "takeaway"
            top.takeaway_start = i
        elif tag is TAKEAWAY_CLOSE:
            if top is None or top.phase != "takeaway":
                raise UnbalancedTag("takeaway close without open takeaway", i)
            block = ParallelBlock(
                guideline_span=top.guideline_span,
                plans=top.plans,
                steps=top.steps,
                takeaway_span=Span(top.takeaway_start, i + 1),
                children=top.children,
            )
            frames.pop()
            if frames:
                frames[-1].children.append(block)
            else:
                blocks.append(block)

    if frames:
        top = frames[-1]
        at = top.open_at if top.open_at is not None else top.start
        raise UnbalancedTag("block left unclosed at end of sequence", at)

    length = len(texts)
    if blocks:
        tail = blocks[-1].takeaway_span.end
        epilogue = Span(tail, length) if tail < length else None
    else:
        # With no blocks the whole document is user-facing text.
        epilogue = Span(0, length)
    boxed = None
    if epilogue is not None:
        boxed = extract_boxed(" ".join(texts[epilogue.start:epilogue.end]))
    return ReasoningDoc(
        tokens=texts,
        blocks=blocks,
        epilogue_span=epilogue,
        boxed_answer=boxed,
    )
