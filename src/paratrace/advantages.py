"""Advantage normalization and the policy-gradient surrogates.

Two normalizations are provided. The group-relative form standardizes each
reward against its own group's mean and population std. The parallel-aware
form keeps the group mean as the baseline but divides by the population std
of the whole batch, which stays informative when per-group variance
collapses. DAPO's group-relative form is the parallel-aware one applied to
a batch of one group, so both return one :class:`Advantages` record. In
both, a divisor at or below ``EPSILON`` zeroes the advantages instead of
dividing; this keeps the outputs exactly invariant under shifting and
positive scaling of the rewards.
"""

from __future__ import annotations

from itertools import chain, repeat
from numbers import Real
from typing import NamedTuple, Sequence

import numpy as np

from .rollouts import RolloutBatch

# Divisors at or below this are treated as zero variance.
EPSILON = 1e-6
# The clipped surrogate's ratio band, [1 - CLIP_LOW, 1 + CLIP_HIGH]: DAPO's
# clip-higher (Yu et al., arXiv:2503.14476), wider above to let rare tokens rise.
CLIP_LOW, CLIP_HIGH = 0.2, 0.28


class Advantages(NamedTuple):
    """One advantage per reward, flat in batch order; each reward's baseline,
    its group's mean; and the divisor, the population std of the batch."""

    advantages: tuple[float, ...]
    baselines: tuple[float, ...]
    divisor: float


def papo_group_values(reward_groups: Sequence[Sequence[float]]) -> Advantages:
    """Group-mean baseline, batch-std divisor, over N reward groups."""
    flat = np.asarray([r for g in reward_groups for r in g], dtype=np.float64)
    if flat.size < 2:
        raise ValueError("batch must contain at least two rewards")
    means = [float(np.mean(np.asarray(g, dtype=np.float64))) for g in reward_groups]
    baselines = tuple(mean for g, mean in zip(reward_groups, means) for _ in g)
    divisor = float(flat.std())
    if divisor <= EPSILON:
        return Advantages((0.0,) * flat.size, baselines, divisor)
    return Advantages(tuple(((flat - baselines) / divisor).tolist()), baselines, divisor)


def dapo_advantage(rewards: Sequence[float]) -> Advantages:
    """Group-relative advantages, (R - mean(group)) / std(group): the
    one-group batch."""
    return papo_group_values([rewards])


def papo_advantage(batch: RolloutBatch) -> Advantages:
    """Batch-normalized advantages, one per record in batch order; every token
    of a record shares its record's value."""
    return papo_group_values(batch.rewards())


def dynamic_sampling_check(outcomes) -> bool:
    """True iff the number of correct responses is strictly between 0 and G.

    Accepts booleans or numeric rewards (positive means correct).
    """
    flags = [o > 0 for o in outcomes]
    correct = sum(flags)
    return 0 < correct < len(flags)


def _aligned(streams, advantages, paired=None) -> tuple[list[float | np.ndarray], int]:
    """The one alignment rule of the surrogates: per-token advantage rows for
    ``streams``, and their total token count.

    ``advantages`` holds one entry per record: a scalar (any ``numbers.Real``,
    numpy scalars included), whose row is one ``float`` broadcast over the
    record's tokens, or a per-token list. ``paired``, when given, must match
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
        if isinstance(adv, Real):
            rows.append(float(adv))
        elif len(adv) != len(stream):
            raise ValueError("per-token advantages misaligned with stream")
        else:
            rows.append(np.asarray(adv, dtype=np.float64))
    total_tokens = sum(map(len, streams))
    if total_tokens == 0:
        raise ValueError("empty token streams")
    return rows, total_tokens


def _floats(stream) -> np.ndarray:
    """``stream`` as a float64 array: an ndarray is cast, anything else read once."""
    if isinstance(stream, np.ndarray):
        return stream.astype(np.float64, copy=False)
    return np.fromiter(stream, np.float64, len(stream))


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
        ratio = np.exp(_floats(new) - _floats(old))
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
    # Left to right, with no step per token; a broadcast row shares one float.
    loss = -sum(chain.from_iterable(repeat(a, len(s)) if isinstance(a, float) else a.tolist()
                                    for a, s in zip(rows, logprobs))) / total_tokens
    grads = tuple((-a / total_tokens,) * len(s) if isinstance(a, float)
                  else tuple((-a / total_tokens).tolist()) for a, s in zip(rows, logprobs))
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
        acc += float((a * np.exp(_floats(lp) - _floats(ref))).sum())
    return -acc / total_tokens
