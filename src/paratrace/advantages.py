"""Advantage normalization and the policy-gradient surrogates.

Two normalizations are provided. The group-relative form standardizes each
reward against its own group's mean and population std. The parallel-aware
form keeps the group mean as the baseline but divides by the population std
of the whole batch, which stays informative when per-group variance
collapses. In both, a vanishing divisor flags the result as degenerate and
zeroes the advantages instead of dividing; this keeps the outputs exactly
invariant under shifting and positive scaling of the rewards.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .rollouts import RolloutBatch

# Divisors at or below this are treated as zero variance.
EPSILON = 1e-6
# The clipped surrogate's ratio band, [1 - CLIP_LOW, 1 + CLIP_HIGH]: DAPO's
# clip-higher (Yu et al., arXiv:2503.14476), wider above to let rare tokens rise.
CLIP_LOW, CLIP_HIGH = 0.2, 0.28


class GroupAdvantage(NamedTuple):
    advantages: tuple[float, ...]
    mean: float
    std: float
    degenerate: bool


def dapo_advantage(rewards: Sequence[float]) -> GroupAdvantage:
    """Group-relative advantages: (R - mean(group)) / std(group)."""
    if len(rewards) < 2:
        raise ValueError("group must contain at least two rewards")
    (values,), (mean,), std, degenerate = papo_group_values([rewards])
    return GroupAdvantage(values, mean, std, degenerate)


def dynamic_sampling_check(outcomes) -> bool:
    """True iff the number of correct responses is strictly between 0 and G.

    Accepts booleans or numeric rewards (positive means correct).
    """
    flags = [o > 0 for o in outcomes]
    correct = sum(flags)
    return 0 < correct < len(flags)


class BatchAdvantage(NamedTuple):
    advantages: tuple[tuple[float, ...], ...]
    group_means: tuple[float, ...]
    divisor: float
    degenerate: bool


def papo_group_values(reward_groups: Sequence[Sequence[float]]) -> BatchAdvantage:
    """Group-mean baseline, batch-std divisor, over N reward groups."""
    flat = np.asarray([r for g in reward_groups for r in g], dtype=np.float64)
    if flat.size < 2:
        raise ValueError("batch must contain at least two rewards")
    group_means = tuple(float(np.mean(np.asarray(g, dtype=np.float64)))
                        for g in reward_groups)
    divisor = float(flat.std())
    if divisor <= EPSILON:
        advantages = tuple(tuple(0.0 for _ in g) for g in reward_groups)
        return BatchAdvantage(advantages, group_means, divisor, True)
    advantages = tuple(
        tuple(float((r - mean) / divisor) for r in g)
        for g, mean in zip(reward_groups, group_means))
    return BatchAdvantage(advantages, group_means, divisor, False)


class AdvantageTable(NamedTuple):
    """Per-record advantages broadcast over every token of the record."""

    record_ids: tuple[str, ...]
    group_ids: tuple[str, ...]
    advantages: tuple[float, ...]
    token_counts: tuple[int, ...]
    group_means: tuple[float, ...]
    divisor: float
    degenerate: bool

    def rows(self):
        for i, rid in enumerate(self.record_ids):
            yield {"id": rid, "group": self.group_ids[i],
                   "advantage": self.advantages[i],
                   "num_tokens": self.token_counts[i],
                   "group_mean": self.group_means[i],
                   "divisor": self.divisor, "epsilon": EPSILON}


def papo_advantage(batch: RolloutBatch) -> AdvantageTable:
    """Batch-normalized advantage table; every token of a record shares its value."""
    values = papo_group_values(batch.rewards())
    record_ids, group_ids, advantages, counts, means = [], [], [], [], []
    for g, group in enumerate(batch.groups):
        for i, record in enumerate(group):
            record_ids.append(record.record_id)
            group_ids.append(record.group_id)
            advantages.append(values.advantages[g][i])
            counts.append(len(record.tokens))
            means.append(values.group_means[g])
    return AdvantageTable(tuple(record_ids), tuple(group_ids), tuple(advantages),
                          tuple(counts), tuple(means), values.divisor,
                          values.degenerate)


def _aligned(streams, advantages, paired=None) -> tuple[list[np.ndarray], int]:
    """The one alignment rule of the surrogates: per-token advantage rows for
    ``streams``, and their total token count.

    ``advantages`` holds one entry per record, a scalar broadcast over the
    record's tokens or a per-token list. ``paired``, when given, must match
    ``streams`` record for record and token for token. Any mismatch, and
    streams with no tokens at all, raise ``ValueError``.
    """
    if paired is not None:
        if len(paired) != len(streams):
            raise ValueError("old/new streams differ in record count")
        if any(len(p) != len(s) for p, s in zip(paired, streams)):
            raise ValueError("old/new streams differ in token count")
    if len(advantages) != len(streams):
        raise ValueError("advantages and streams differ in record count")
    rows = []
    for adv, stream in zip(advantages, streams):
        if isinstance(adv, (int, float)):
            rows.append(np.full(len(stream), float(adv)))
        elif len(adv) != len(stream):
            raise ValueError("per-token advantages misaligned with stream")
        else:
            rows.append(np.asarray(adv, dtype=np.float64))
    total_tokens = sum(map(len, streams))
    if total_tokens == 0:
        raise ValueError("empty token streams")
    return rows, total_tokens


def dapo_surrogate(old_logprobs: Sequence[Sequence[float]],
                   new_logprobs: Sequence[Sequence[float]],
                   advantages) -> float:
    """Clipped-ratio surrogate loss, token-normalized across the group.

    ``advantages`` may be one scalar per record (broadcast) or per-token
    lists. Returns the loss value; ratios outside the clip band contribute
    the clipped constant, so those tokens carry no gradient.
    """
    rows, total_tokens = _aligned(new_logprobs, advantages, old_logprobs)
    acc = 0.0
    for old, new, a in zip(old_logprobs, new_logprobs, rows):
        ratio = np.exp(np.subtract(new, old, dtype=np.float64))
        clipped = np.minimum(np.maximum(ratio, 1.0 - CLIP_LOW), 1.0 + CLIP_HIGH)
        acc += float(np.minimum(ratio * a, clipped * a).sum())
    return -acc / total_tokens


class PapoSurrogate(NamedTuple):
    loss: float
    sensitivities: tuple[tuple[float, ...], ...]


def papo_surrogate(logprobs: Sequence[Sequence[float]], advantages) -> PapoSurrogate:
    """Strict on-policy surrogate and its gradient contract.

    The value is the negative token-averaged advantage (the policy ratio is
    identically one in value). The gradient contract gives the sensitivity
    of the loss to each token's log-probability: -advantage / total_tokens,
    with no clipping and no importance reweighting, so every token with a
    nonzero advantage receives gradient, structural tags included.
    """
    rows, total_tokens = _aligned(logprobs, advantages)
    loss = -sum(a for row in rows for a in row.tolist()) / total_tokens
    grads = tuple(tuple((-row / total_tokens).tolist()) for row in rows)
    return PapoSurrogate(loss, grads)


def papo_surrogate_frozen(logprobs: Sequence[Sequence[float]],
                          ref_logprobs: Sequence[Sequence[float]],
                          advantages) -> float:
    """The surrogate as a differentiable surface: reference held stop-gradient.

    Evaluating at ``logprobs == ref_logprobs`` recovers the on-policy value;
    finite differences of this function against the frozen reference measure
    the gradient contract of :func:`papo_surrogate`.
    """
    rows, total_tokens = _aligned(logprobs, advantages, ref_logprobs)
    acc = 0.0
    for lp, ref, a in zip(logprobs, ref_logprobs, rows):
        acc += float((a * np.exp(np.subtract(lp, ref, dtype=np.float64))).sum())
    return -acc / total_tokens
