"""The tag vocabulary and the token model for parallel-reasoning markup.

A tag is its text: the eight reserved tags are plain ``str`` constants,
listed open then close in :data:`TAGS`, and :func:`is_tag` says whether a
token is one.
"""

from __future__ import annotations

import re
from itertools import compress, count

GUIDELINE_OPEN, GUIDELINE_CLOSE = "<guideline>", "</guideline>"
PLAN_OPEN, PLAN_CLOSE = "<plan>", "</plan>"
STEP_OPEN, STEP_CLOSE = "<step>", "</step>"
TAKEAWAY_OPEN, TAKEAWAY_CLOSE = "<takeaway>", "</takeaway>"
TAGS = (GUIDELINE_OPEN, GUIDELINE_CLOSE, PLAN_OPEN, PLAN_CLOSE,
        STEP_OPEN, STEP_CLOSE, TAKEAWAY_OPEN, TAKEAWAY_CLOSE)

# Each tag's text to its ``TAGS`` object, so scanned tags compare with ``is``.
_TAG_BY_TEXT = {t: t for t in TAGS}
_TAG_SET = frozenset(TAGS)  # a set answers membership faster than the dict

# Splits a whitespace-free chunk around embedded tag strings.
_TAG_SPLIT = re.compile("(" + "|".join(map(re.escape, TAGS)) + ")")


def is_tag(text: str) -> bool:
    return text in _TAG_BY_TEXT


def tag_scan(texts: list[str] | tuple[str, ...]) -> tuple[list[int], list[str]]:
    """The tag tokens of ``texts`` as two lists, their indices and their tags.

    Each tag is the ``TAGS`` object equal to its token, so callers test it
    with ``is``. This is the one tag scan: it iterates ``texts`` once, then
    indexes it at the tags only, and content tokens cost no Python-level
    step, as it runs in ``map`` and ``compress``. ``zip`` the lists to read
    the ``(index, tag)`` events; two lists of ints and shared strings hold
    no per-tag tuple for the collector to track."""
    indices = list(compress(count(), map(_TAG_SET.__contains__, texts)))
    return indices, list(map(_TAG_BY_TEXT.__getitem__, map(texts.__getitem__, indices)))


def tag_events(texts: list[str] | tuple[str, ...]):
    """Iterator of ``(index, tag)`` over the tag tokens of ``texts``."""
    return zip(*tag_scan(texts))


class Token(str):
    """One unit of a trace, a reserved tag or a content word: its text.

    ``Token("a") == "a"`` and a token goes wherever a ``str`` does; a tag
    token equals its constant in :data:`TAGS`, and :func:`is_tag` says
    whether a token is a tag.
    """

    __slots__ = ()

    @property
    def text(self) -> str:
        return str.__str__(self)
