"""Rollout records and grouped batches for advantage computation."""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class RolloutRecord:
    """One sampled trajectory with its scoring context."""

    record_id: str
    group_id: str
    tokens: tuple[str, ...]
    logprobs: tuple[float, ...]
    pred: str | None
    gold: str
    reward: float | None = None

    def __post_init__(self):
        if len(self.logprobs) != len(self.tokens):
            raise ValueError(
                f"record {self.record_id!r}: {len(self.logprobs)} log-probs "
                f"for {len(self.tokens)} tokens")
        if self.reward is not None and not -3.0 <= self.reward <= 1.0:
            raise ValueError(f"record {self.record_id!r}: reward {self.reward} "
                             "outside [-3, 1]")

    @classmethod
    def from_json_dict(cls, data: dict) -> "RolloutRecord":
        return cls(record_id=data["id"], group_id=data["group"],
                   tokens=tuple(data["tokens"]), logprobs=tuple(data["logprobs"]),
                   pred=data.get("pred"), gold=data["gold"], reward=data.get("reward"))


@dataclass(frozen=True)
class RolloutBatch:
    """N groups of G records each; group sizes must be uniform."""

    groups: tuple[tuple[RolloutRecord, ...], ...] = field(default=())

    def __post_init__(self):
        if not self.groups:
            raise ValueError("batch has no groups")
        sizes = {len(g) for g in self.groups}
        if len(sizes) != 1:
            raise ValueError(f"ragged groups: sizes {sorted(sizes)}")
        if self.group_size < 2:
            raise ValueError("group size must be >= 2")

    @property
    def group_size(self) -> int:
        return len(self.groups[0])

    @property
    def records(self) -> tuple[RolloutRecord, ...]:
        return tuple(r for g in self.groups for r in g)

    def rewards(self) -> list[list[float]]:
        out = []
        for group in self.groups:
            row = []
            for r in group:
                if r.reward is None:
                    raise ValueError(f"record {r.record_id!r} has no reward")
                row.append(r.reward)
            out.append(row)
        return out

    def with_rewards(self, reward_fn) -> "RolloutBatch":
        """New batch with ``reward_fn(record)`` filled into every record."""
        return RolloutBatch(tuple(
            tuple(replace(r, reward=float(reward_fn(r))) for r in group)
            for group in self.groups))

    @classmethod
    def from_records(cls, records) -> "RolloutBatch":
        """Group records by their group id, preserving first-seen order."""
        by_group: dict[str, list[RolloutRecord]] = {}
        for r in records:
            by_group.setdefault(r.group_id, []).append(r)
        return cls(tuple(tuple(g) for g in by_group.values()))
