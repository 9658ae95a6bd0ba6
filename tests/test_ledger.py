"""Global token accounting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paratrace import TokenLedger


def test_three_branches_halt_at_budget():
    ledger = TokenLedger(max_new_tokens=100)
    emitted = 0
    while True:
        accepted = ledger.charge(3)
        emitted += accepted
        if accepted < 3:
            break
    assert ledger.charged == 100
    assert emitted == 100
    # 33 full three-way steps plus one partial step.
    assert len([e for e in ledger.timeline if e.charged == 3]) == 33
    assert ledger.timeline[-1].charged == 1


def test_longest_branch_foil_disagrees_by_200():
    """Per-branch accounting (the buggy model) admits 3x the global budget."""
    def longest_branch_total(branches: int, budget: int) -> int:
        per_branch = [0] * branches
        emitted = 0
        while max(per_branch) < budget:
            for b in range(branches):
                per_branch[b] += 1
                emitted += 1
        return emitted

    foil = longest_branch_total(3, 100)
    ledger = TokenLedger(100)
    while ledger.charge(3):
        pass
    assert foil == 300
    assert foil - ledger.charged == 200


def test_single_branch_budget_five():
    ledger = TokenLedger(5)
    accepted = [ledger.charge(1) for _ in range(6)]
    assert accepted == [1, 1, 1, 1, 1, 0]
    assert ledger.charged == 5


def test_zero_budget():
    ledger = TokenLedger(0)
    assert ledger.charge(1) == 0
    assert ledger.remaining == 0


def test_timeline_sums_to_charged():
    ledger = TokenLedger(17)
    for n in (1, 3, 2, 5, 9, 4):
        ledger.charge(n)
    assert sum(e.charged for e in ledger.timeline) == ledger.charged == 17
    assert [e.active_branches for e in ledger.timeline] == [1, 3, 2, 5, 9, 4]
    assert [e.step for e in ledger.timeline] == list(range(6))


def test_invalid_arguments():
    with pytest.raises(ValueError):
        TokenLedger(-1)
    with pytest.raises(ValueError):
        TokenLedger(5).charge(0)
    with pytest.raises(ValueError):
        TokenLedger(5).charge_rounds(0, 2)
    with pytest.raises(ValueError):
        TokenLedger(5).charge_rounds(2, -1)


@given(budget=st.integers(0, 60), before=st.lists(st.integers(1, 5), max_size=4),
       n=st.integers(1, 6), k=st.integers(0, 15))
def test_charge_rounds_is_k_charges(budget, before, n, k):
    """``charge_rounds(n, k)`` leaves the timeline and ``charged`` of k calls
    of ``charge(n)``, after any earlier charges, and returns their sum, also
    when the budget runs out partway."""
    rounds, calls = TokenLedger(budget), TokenLedger(budget)
    for m in before:
        rounds.charge(m)
        calls.charge(m)
    assert rounds.charge_rounds(n, k) == sum(calls.charge(n) for _ in range(k))
    assert (rounds.timeline, rounds.charged) == (calls.timeline, calls.charged)
