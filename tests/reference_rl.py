"""Reference implementations of the RL step's hot loops, kept for cross-checks.

These are the earlier scalar forms: a clipped surrogate and a frozen-reference
surrogate that call ``np.exp`` one token at a time, summing in token order,
and a cache flush that walks the tree in post-order with an explicit stack
of ``(node, expanded)`` pairs. They are slow but plainly correct, and share
no code with :mod:`paratrace.advantages` or :meth:`paratrace.RadixCache.flush`.
"""

from __future__ import annotations

import numpy as np

from paratrace import RadixCache


def ref_dapo_surrogate(old_logprobs, new_logprobs, advantages,
                       eps_low: float = 0.2, eps_high: float = 0.28) -> float:
    """Clipped-ratio surrogate, token-normalized, one token at a time."""
    if len(old_logprobs) != len(new_logprobs):
        raise ValueError("old/new streams differ in record count")
    if len(advantages) != len(new_logprobs):
        raise ValueError("advantages and streams differ in record count")
    adv = []
    for a_rec, stream in zip(advantages, new_logprobs):
        if isinstance(a_rec, (int, float)):
            adv.append([float(a_rec)] * len(stream))
        else:
            if len(a_rec) != len(stream):
                raise ValueError("per-token advantages misaligned with stream")
            adv.append([float(a) for a in a_rec])
    total_tokens = sum(len(s) for s in new_logprobs)
    if total_tokens == 0:
        raise ValueError("empty token streams")
    acc = 0.0
    for old, new, a_row in zip(old_logprobs, new_logprobs, adv):
        if len(old) != len(new):
            raise ValueError("old/new streams differ in token count")
        for lo, ln, a in zip(old, new, a_row):
            ratio = float(np.exp(ln - lo))
            clipped = min(max(ratio, 1.0 - eps_low), 1.0 + eps_high)
            acc += min(ratio * a, clipped * a)
    return -acc / total_tokens


def ref_papo_surrogate_frozen(logprobs, ref_logprobs, advantages) -> float:
    """The frozen-reference surrogate on well-aligned streams, one token at a time."""
    total_tokens = sum(len(s) for s in logprobs)
    acc = 0.0
    for lp_row, ref_row, a_rec in zip(logprobs, ref_logprobs, advantages):
        a_row = [a_rec] * len(lp_row) if isinstance(a_rec, (int, float)) else a_rec
        for lp, ref, a in zip(lp_row, ref_row, a_row):
            acc += float(a) * float(np.exp(lp - ref))
    return -acc / total_tokens


def ref_flush(cache: RadixCache) -> int:
    """Evict every unreferenced node of ``cache`` in depth-first post-order."""
    freed = 0
    stack = [(cache._root, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children.values())
            continue
        for tok in list(node.children):
            child = node.children[tok]
            if child.ref_count == 0 and not child.children:
                del node.children[tok]
                freed += 1
    cache.usage -= freed
    return freed
