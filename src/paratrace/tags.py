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


def tag_scan(texts: list[str] | tuple[str, ...]) -> tuple[list[int], list[Tag]]:
    """The tag tokens of ``texts`` as two lists, their indices and their tags.

    This is the one tag scan: it reads ``texts`` once, and content tokens cost
    no Python-level step, as it runs in ``map``, ``compress`` and ``filter``.
    ``zip`` the lists to read the ``(index, tag)`` events; two lists of ints
    and enum members hold no per-tag tuple for the collector to track."""
    tags = list(map(_TAG_BY_TEXT.get, texts))
    return list(compress(range(len(tags)), tags)), list(filter(None, tags))


def tag_events(texts: list[str] | tuple[str, ...]):
    """Iterator of ``(index, tag)`` over the tag tokens of ``texts``."""
    return zip(*tag_scan(texts))


class Token(str):
    """One unit of a trace, a reserved tag or a content word: its text.

    ``Token("a") == "a"`` and a token goes wherever a ``str`` does; ask
    :func:`tag_of` or :func:`is_tag` which tag, if any, it is.
    """

    __slots__ = ()

    @property
    def text(self) -> str:
        return str.__str__(self)
