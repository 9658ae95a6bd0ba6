"""Reference implementations of the RL step's hot loops, kept for cross-checks.

These are the earlier scalar forms: a group-mean, batch-std advantage
normalizer in plain Python floats, a clipped surrogate and a frozen-reference
surrogate that call ``np.exp`` one token at a time, summing in token order,
the three surrogates in the earlier row form, which gives every record a
float64 array of advantages (``np.full`` for a broadcast ``int`` or
``float``) and converts each stream with ``np.subtract``,
a cache flush that walks the id tables in post-order with an explicit stack
of ``(node, expanded)`` pairs and trims edges one token at a time, a reader
that expands the cache's edges into one node per token, and a radix cache
with one node object per token whose leases pin every node on their path.
They are plainly correct, and share no code with
:mod:`paratrace.advantages` or :mod:`paratrace.cache`.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain

import numpy as np

from paratrace import BudgetExceeded, DoubleRelease, RadixCache


def ref_group_advantages(groups, epsilon: float):
    """(advantages, baselines, divisor) over reward groups, flat in batch
    order: each reward's group mean as its baseline, and the population std
    of the whole batch as the divisor, or all-zero advantages when that std
    is at most ``epsilon``."""
    flat = [float(r) for g in groups for r in g]
    if len(flat) < 2:
        raise ValueError("batch must contain at least two rewards")
    baselines = [math.fsum(g) / len(g) for g in groups for _ in g]
    mean = math.fsum(flat) / len(flat)
    divisor = math.sqrt(math.fsum((r - mean) ** 2 for r in flat) / len(flat))
    if divisor <= epsilon:
        return [0.0] * len(flat), baselines, divisor
    return [(r - b) / divisor for r, b in zip(flat, baselines)], baselines, divisor


def ref_dapo_surrogate(old_logprobs, new_logprobs, advantages,
                       eps_low: float, eps_high: float) -> float:
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


def _ref_rows(streams, advantages, paired=None):
    """Per-token float64 advantage rows and the total token count, under the
    surrogates' alignment rule; only ``int`` and ``float`` broadcast."""
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


def ref_row_dapo_surrogate(old_logprobs, new_logprobs, advantages,
                           eps_low: float, eps_high: float) -> float:
    """The clipped surrogate over whole advantage rows."""
    rows, total_tokens = _ref_rows(new_logprobs, advantages, old_logprobs)
    acc = 0.0
    for old, new, a in zip(old_logprobs, new_logprobs, rows):
        ratio = np.exp(np.subtract(new, old, dtype=np.float64))
        clipped = np.minimum(np.maximum(ratio, 1.0 - eps_low), 1.0 + eps_high)
        acc += float(np.minimum(ratio * a, clipped * a).sum())
    return -acc / total_tokens


def ref_row_papo_surrogate(logprobs, advantages):
    """The on-policy loss, summed left to right over the rows' floats, and one
    ``(-advantage / total_tokens)`` sensitivity per token."""
    rows, total_tokens = _ref_rows(logprobs, advantages)
    loss = -sum(chain.from_iterable(map(np.ndarray.tolist, rows))) / total_tokens
    grads = tuple(tuple((-row / total_tokens).tolist()) for row in rows)
    return loss, grads


def ref_row_papo_surrogate_frozen(logprobs, ref_logprobs, advantages) -> float:
    """The frozen-reference surrogate over whole advantage rows."""
    rows, total_tokens = _ref_rows(logprobs, advantages, ref_logprobs)
    acc = 0.0
    for lp, ref, a in zip(logprobs, ref_logprobs, rows):
        acc += float((a * np.exp(np.subtract(lp, ref, dtype=np.float64))).sum())
    return -acc / total_tokens


def _position(cache: RadixCache, lease) -> tuple[int, int]:
    """The node whose edge holds a live lease's end, and the lease's length.
    A split leaves a lease naming the node below the cut, so this climbs the
    parent links to the edge that holds its length, and records the node."""
    node, depth = lease._node, lease._length
    while node and depth <= cache._end[cache._parent[node]]:
        node = cache._parent[node]
    lease._node = node
    return node, depth


def ref_flush(cache: RadixCache) -> int:
    """Evict every unpinned childless token of ``cache`` in depth-first
    post-order over its id tables: a childless edge is trimmed from its end,
    one token at a time, back to its deepest pin, and its node is freed when
    no token is left. A position is pinned when a live lease ends there; a
    pending insertion's lease is live while it reserves."""
    children, end, run, base = cache._children, cache._end, cache._run, cache._base
    pinned = {_position(cache, lease) for lease in cache._leases}
    freed = 0
    stack = [(0, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in children[node].values())
            continue
        kids = children[node]
        for tok in list(kids):
            child = kids[tok]
            if children[child]:
                continue
            while end[child] > end[node] and (child, end[child]) not in pinned:
                end[child] -= 1
                freed += 1
            del run[child][end[child] - base[child]:]
            if end[child] == end[node]:
                del kids[tok]
                cache._free.append(child)
    cache.usage -= freed
    return freed


def cache_tree(cache):
    """The tree below ``cache``'s root as lazy ``(token, pins, subtree)``
    triples, one per token, children in insertion order. A
    :class:`RadixCache` token's pins are the live leases that end at it,
    read off its edges one token at a time; a :class:`PathPinningCache`
    node's are its reference count."""
    if isinstance(cache, PathPinningCache):
        def below(node):
            for tok, child in node.children.items():
                yield tok, child.ref_count, below(child)
        return below(cache._root)
    ends = Counter(_position(cache, lease) for lease in cache._leases)
    children, end, run, base = cache._children, cache._end, cache._run, cache._base

    def below(node, depth):
        """The tokens that follow the position ``(node, depth)``."""
        if depth < end[node]:
            yield run[node][depth - base[node]], ends[node, depth + 1], below(node, depth + 1)
            return
        for tok, child in children[node].items():
            yield tok, ends[child, depth + 1], below(child, depth + 1)
    return below(0, 0)


class _PathNode:
    __slots__ = ("token", "parent", "children", "ref_count")

    def __init__(self, token, parent):
        self.token = token
        self.parent = parent
        self.children: dict[str, _PathNode] = {}
        self.ref_count = 0


class PathLease:
    __slots__ = ("matched", "new_slots", "tip", "length", "released")

    def __init__(self, tip: _PathNode, length: int, matched: int, new_slots: int):
        self.tip = tip
        self.length = length
        self.matched = matched
        self.new_slots = new_slots
        self.released = False

    def __len__(self) -> int:
        return self.length


class PathPinningCache:
    """The radix cache with a reference on every node of each live lease's
    path: insert and release walk the path, and a flush spares the whole
    matched path explicitly. Same public contract as
    :class:`paratrace.RadixCache`."""

    def __init__(self, budget: int):
        self.budget = budget
        self.usage = 0
        self.flush_count = 0
        self._root = _PathNode(None, None)

    def match_prefix(self, tokens) -> int:
        return len(self._descend(tokens)[1])

    def _descend(self, tokens):
        node, path = self._root, []
        for tok in tokens:
            child = node.children.get(tok)
            if child is None:
                break
            node = child
            path.append(child)
        return node, path

    def match_and_insert(self, tokens) -> PathLease:
        tokens = list(tokens)
        node, path = self._descend(tokens)
        matched = len(path)
        need = len(tokens) - matched
        self._reserve(need, protect=path)
        for tok in tokens[matched:]:
            child = _PathNode(tok, node)
            node.children[tok] = child
            node = child
            path.append(child)
        self.usage += need
        for n in path:
            n.ref_count += 1
        return PathLease(node, len(path), matched, need)

    def extend(self, lease: PathLease, token: str) -> int:
        if lease.released:
            raise DoubleRelease("cannot extend a released lease")
        node = lease.tip if lease.length else self._root
        child = node.children.get(token)
        added = 0
        if child is None:
            self._reserve(1, protect=())
            child = _PathNode(token, node)
            node.children[token] = child
            self.usage += 1
            added = 1
        child.ref_count += 1
        lease.tip = child
        lease.length += 1
        lease.new_slots += added
        return added

    def release(self, lease: PathLease) -> None:
        if lease.released:
            raise DoubleRelease("lease already released")
        path = self._lease_path(lease)
        for node in path:
            if node.ref_count <= 0:
                raise DoubleRelease("reference count underflow")
        for node in path:
            node.ref_count -= 1
        lease.released = True

    def flush(self) -> int:
        """Evict every unreferenced childless node in depth-first post-order."""
        freed = 0
        stack = [(self._root, False)]
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
        self.usage -= freed
        return freed

    def _reserve(self, need: int, protect) -> None:
        if need <= self.budget - self.usage:
            return
        for node in protect:
            node.ref_count += 1
        self.flush_count += 1
        self.flush()
        for node in protect:
            node.ref_count -= 1
        if need > self.budget - self.usage:
            raise BudgetExceeded(f"need {need} slots after flush")

    def _lease_path(self, lease: PathLease) -> list[_PathNode]:
        path, node = [], lease.tip
        for _ in range(lease.length):
            path.append(node)
            node = node.parent
        return path[::-1]

    def check_integrity(self) -> None:
        """Each node is pinned at least as often as any child: every lease
        through a child also passes through its parent."""
        count, stack = 0, list(self._root.children.values())
        while stack:
            node = stack.pop()
            count += 1
            if node.ref_count < 0:
                raise AssertionError("negative reference count")
            if node.parent is not self._root and node.parent.ref_count < node.ref_count:
                raise AssertionError("parent pinned less than child")
            stack.extend(node.children.values())
        if count != self.usage or self.usage > self.budget:
            raise AssertionError(f"usage {self.usage}, {count} nodes, budget {self.budget}")
