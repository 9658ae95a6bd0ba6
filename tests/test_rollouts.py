"""Rollout record and batch constraints."""

import pytest

from paratrace import RolloutBatch, RolloutRecord


def rec(rid, group, n=2, reward=None):
    return RolloutRecord(rid, group, tuple(f"t{i}" for i in range(n)),
                         tuple(-0.1 for _ in range(n)), "1", "1", reward)


def test_logprob_alignment_enforced():
    with pytest.raises(ValueError):
        RolloutRecord("r", "g", ("a", "b"), (-0.1,), "1", "1")


def test_reward_range_enforced():
    with pytest.raises(ValueError):
        rec("r", "g", reward=-3.5)
    assert rec("r", "g", reward=-2.0).reward == -2.0


def test_groups_must_be_uniform():
    with pytest.raises(ValueError):
        RolloutBatch(((rec("a", "g1"), rec("b", "g1")), (rec("c", "g2"),)))


def test_group_size_at_least_two():
    with pytest.raises(ValueError):
        RolloutBatch(((rec("a", "g1"),),))


def test_from_records_preserves_order():
    batch = RolloutBatch.from_records(
        [rec("a", "g1"), rec("c", "g2"), rec("b", "g1"), rec("d", "g2")])
    assert [r.record_id for r in batch.records] == ["a", "b", "c", "d"]
    assert batch.group_size == 2


def test_with_rewards_and_record_reader():
    batch = RolloutBatch.from_records([rec("a", "g1"), rec("b", "g1")])
    scored = batch.with_rewards(lambda r: 1.0 if r.record_id == "a" else -1.0)
    assert scored.rewards() == [[1.0, -1.0]]
    row = {"id": "a", "group": "g1", "tokens": ["t0", "t1"], "logprobs": [-0.1, -0.1],
           "pred": "1", "gold": "1"}
    assert RolloutRecord.from_json_dict(row) == rec("a", "g1")
    assert RolloutRecord.from_json_dict(row).reward is None


def test_rewards_require_scoring():
    batch = RolloutBatch.from_records([rec("a", "g1"), rec("b", "g1")])
    with pytest.raises(ValueError):
        batch.rewards()
