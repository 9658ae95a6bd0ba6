"""Exception types shared across the package."""

from __future__ import annotations


class ParseError(Exception):
    """A token sequence cannot be parsed into a block tree.

    ``index`` is the offending token position.
    """

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (token {index})")
        self.index = index


class UnbalancedTag(ParseError):
    """A close tag without a matching open, or an open tag left unclosed."""


class MisplacedTag(ParseError):
    """A tag in a position the block grammar does not allow."""


class StructureError(Exception):
    """Topology requested for a sequence whose tag structure is broken."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class DoubleRelease(Exception):
    """A cache lease was extended or released after its release, or by a
    cache that did not make it."""


class BudgetExceeded(Exception):
    """Cache insertion cannot fit within the slot budget even after a flush."""


class IllegalSchema(Exception):
    """The pre-branch validator refused to expand branches.

    Carries the partially generated tokens and the event log so callers can
    inspect what happened before the rejection.
    """

    def __init__(self, message: str, tokens=None, events=None):
        super().__init__(message)
        self.tokens = list(tokens or [])
        self.events = list(events or [])


class LedgerExhausted(Exception):
    """A generation run was started without a positive token budget."""


class InputError(Exception):
    """A CLI input file is missing or malformed. ``line`` is 1-based."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)
        self.path = path
        self.line = line
