"""Tag vocabulary and the token model for parallel-reasoning markup."""

from __future__ import annotations

import re
from enum import Enum
from itertools import compress


class Tag(str, Enum):
    GUIDELINE_OPEN = "<guideline>"
    GUIDELINE_CLOSE = "</guideline>"
    PLAN_OPEN = "<plan>"
    PLAN_CLOSE = "</plan>"
    STEP_OPEN = "<step>"
    STEP_CLOSE = "</step>"
    TAKEAWAY_OPEN = "<takeaway>"
    TAKEAWAY_CLOSE = "</takeaway>"


# Module-level members: on Python 3.11 a ``Tag.X`` lookup goes through
# EnumType's __getattr__ hook (~150 ns), and structure passes test several per tag.
(GUIDELINE_OPEN, GUIDELINE_CLOSE, PLAN_OPEN, PLAN_CLOSE,
 STEP_OPEN, STEP_CLOSE, TAKEAWAY_OPEN, TAKEAWAY_CLOSE) = Tag

TAG_STRINGS = frozenset(t.value for t in Tag)
_TAG_BY_TEXT = {t.value: t for t in Tag}

# Splits a whitespace-free chunk around embedded tag strings.
_TAG_SPLIT = re.compile("(" + "|".join(re.escape(t.value) for t in Tag) + ")")


def tag_of(text: str) -> Tag | None:
    """Return the tag for ``text``, or None for content."""
    return _TAG_BY_TEXT.get(text)


def is_tag(text: str) -> bool:
    return text in TAG_STRINGS


def tag_events(texts: list[str]):
    """Iterator of ``(index, tag)`` over the tag tokens of ``texts``; content
    tokens cost no Python-level step, as the scan runs in ``map`` and ``filter``."""
    tags = list(map(_TAG_BY_TEXT.get, texts))
    return zip(compress(range(len(tags)), tags), filter(None, tags))


class Token(str):
    """One unit of a trace: either a reserved tag or a content word.

    A token is its text, so ``Token("a") == "a"`` and a token goes wherever a
    ``str`` does. ``kind`` and ``tag_id`` are derived from the text; passing
    them only checks that they agree with it.
    """

    __slots__ = ()

    def __new__(cls, text: str, kind: str = "", tag_id: Tag | None = None):
        if not text:
            raise ValueError("token text must be non-empty")
        tag = tag_of(text)
        expected_kind = "tag" if tag is not None else "content"
        if kind and kind != expected_kind:
            raise ValueError(f"token {text!r} must have kind {expected_kind!r}")
        if tag_id is not None and tag_id is not tag:
            raise ValueError(f"token {text!r} carries wrong tag_id")
        return str.__new__(cls, text)

    @property
    def text(self) -> str:
        return str.__str__(self)

    @property
    def tag_id(self) -> Tag | None:
        return _TAG_BY_TEXT.get(self)

    @property
    def is_tag(self) -> bool:
        return self in TAG_STRINGS

    @property
    def kind(self) -> str:
        return "tag" if self in TAG_STRINGS else "content"


def token_texts(tokens) -> list[str]:
    """A list of the tokens' texts; ``str`` items, Tokens included, pass through."""
    return [t if isinstance(t, str) else str(t) for t in tokens]
