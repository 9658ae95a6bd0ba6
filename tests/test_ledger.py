"""Global token accounting."""

import pytest

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
