"""Branch-aware global token accounting.

Every decode step charges one token per active branch against a single
shared budget, so a three-way fork burns the budget three times as fast as
sequential decode. The timeline records the branching factor seen at each
charge for audit and replay.
"""

from __future__ import annotations

from functools import partial
from itertools import count, repeat
from typing import NamedTuple


class LedgerEntry(NamedTuple):
    step: int
    active_branches: int
    charged: int


# Builds a record from a ``(step, active_branches, charged)`` tuple. The
# timeline is stored as two columns of ints, the step being the index, so the
# cyclic collector tracks two lists, not one object per charge.
_entry_record = partial(tuple.__new__, LedgerEntry)


class TokenLedger:
    def __init__(self, max_new_tokens: int):
        if max_new_tokens < 0:
            raise ValueError("max_new_tokens must be non-negative")
        self.max_new_tokens = max_new_tokens
        self.charged = 0
        self._branches: list[int] = []  # active branches at each charge
        self._charges: list[int] = []  # tokens accepted at each charge

    @property
    def remaining(self) -> int:
        return self.max_new_tokens - self.charged

    @property
    def timeline(self) -> tuple[LedgerEntry, ...]:
        """The charges so far as records, built on each read."""
        return tuple(map(_entry_record, zip(count(), self._branches, self._charges)))

    def charge(self, active_branches: int) -> int:
        """Charge one token per active branch, capped by the remaining budget.

        Returns how many tokens were accepted; when it is less than
        ``active_branches``, the caller must truncate the unfunded branches
        in this step.
        """
        if active_branches < 1:
            raise ValueError("active_branches must be >= 1")
        accepted = self.max_new_tokens - self.charged
        if active_branches < accepted:
            accepted = active_branches
        self.charged += accepted
        self._branches.append(active_branches)
        self._charges.append(accepted)
        return accepted

    def charge_rounds(self, active_branches: int, rounds: int) -> int:
        """``rounds`` calls of :meth:`charge` in one: the same timeline and
        ``charged``. Returns the tokens accepted in all."""
        if active_branches < 1:
            raise ValueError("active_branches must be >= 1")
        if rounds < 0:
            raise ValueError("rounds must be >= 0")
        full = min(rounds, (self.max_new_tokens - self.charged) // active_branches)
        self._branches.extend(repeat(active_branches, full))
        self._charges.extend(repeat(active_branches, full))
        self.charged += full * active_branches
        return full * active_branches + sum(self.charge(active_branches)
                                            for _ in range(rounds - full))
