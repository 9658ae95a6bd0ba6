"""Radix cache with a hard slot budget, held in id tables.

The tree stores one token per node (one slot per cached token). A node is an
integer id, and the root is id 0. Three tables indexed by id hold each node's
children (a dict from token to child id), its parent id and its token. They
hold only ``str`` and ``int`` values, so the cyclic garbage collector tracks
no per-node entry. Freed ids are reused, so the tables never hold more than
``budget + 1`` entries.

Callers acquire leases. A lease is live exactly while it is in its cache's
registry of live leases, and it pins its tip node and so every ancestor of
the tip. No node keeps a count, so no operation walks a lease's path: growing
a lease with :meth:`RadixCache.extend` moves its tip one node down, and
:meth:`RadixCache.release` takes it out of the registry, each in O(1). A
lease the registry does not hold, because it was released or because another
cache made it, is refused with :class:`DoubleRelease`.

Slots are reclaimed only under pressure: when an insertion would overflow the
budget, :meth:`RadixCache.flush` marks the ancestors-or-self of every pinned
tip and frees every other node, before the insertion is retried. These are
the nodes that evicting every unpinned childless node, children before
parents, would remove. The flush takes Python steps only for the kept nodes
and their children, plus one C-level pass over the id table.

If the retry still does not fit, the operation raises
:class:`BudgetExceeded` after the flush: no slot is inserted, no lease is
made or grown, and pinned nodes are untouched, but unpinned nodes may
already have been evicted and the flush is counted.
"""

from __future__ import annotations

from .errors import BudgetExceeded, DoubleRelease


class CacheLease:
    """A path in the cache, pinned at its tip; release exactly once."""

    __slots__ = ("matched", "new_slots", "_tip", "_length")

    def __init__(self, tip: int, matched: int):
        self._tip = tip
        self._length = self.matched = matched
        self.new_slots = 0

    def __len__(self) -> int:
        return self._length


class RadixCache:
    def __init__(self, budget: int):
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self.budget = budget
        self.usage = 0
        self.flush_count = 0
        # Per-node tables, indexed by node id; id 0 is the root.
        self._children: list[dict[str, int]] = [{}]
        self._parent = [0]
        self._token: list[str | None] = [None]
        self._free: list[int] = []
        # The live leases, in the order they were made (a dict for its order).
        self._leases: dict[CacheLease, None] = {}
        # The node an insertion is about to grow from: pinned while it flushes.
        self._protect = 0

    # -- queries ---------------------------------------------------------

    def match_prefix(self, tokens) -> int:
        """Length of the longest stored prefix of ``tokens``. No mutation."""
        return self._descend(tokens)[1]

    def _descend(self, tokens) -> tuple[int, int]:
        """The deepest stored node along ``tokens`` and its depth."""
        children = self._children
        node = depth = 0
        for tok in tokens:
            child = children[node].get(tok)
            if child is None:
                break
            node = child
            depth += 1
        return node, depth

    # -- leases ----------------------------------------------------------

    def match_and_insert(self, tokens) -> CacheLease:
        """Pin ``tokens`` in the cache, inserting the unmatched suffix.

        The new lease pins its tip. If the suffix does not fit, unpinned
        nodes are flushed first, sparing the matched prefix; if it still does
        not fit, raises :class:`BudgetExceeded`, inserting nothing and making
        no lease.
        """
        tokens = list(tokens)
        node, matched = self._descend(tokens)
        self._reserve(len(tokens) - matched, protect=node)
        lease = CacheLease(node, matched)
        self._leases[lease] = None
        # The slots are reserved, so growing the lease cannot flush. The base
        # class's ``extend_run`` is called so that a subclass overriding it
        # sees only its own callers' tokens.
        RadixCache.extend_run(self, lease, tokens[matched:])
        return lease

    def extend(self, lease: CacheLease, token: str) -> int:
        """Grow a lease by one token; returns newly occupied slots (0 or 1)."""
        if lease not in self._leases:
            raise DoubleRelease("cannot extend a lease this cache does not hold")
        node = lease._tip
        kids = self._children[node]
        child = kids.get(token)
        if child is not None:
            lease._tip = child
            lease._length += 1
            return 0
        if self.usage >= self.budget:
            self._reserve(1)  # the lease itself pins ``node``
        # Allocated inline: an inserted slot makes no Python-level call.
        free = self._free
        if free:
            child = free.pop()
            self._children[child] = {}
            self._parent[child] = node
            self._token[child] = token
        else:
            child = len(self._parent)
            self._children.append({})
            self._parent.append(node)
            self._token.append(token)
        kids[token] = child
        self.usage += 1
        lease._tip = child
        lease._length += 1
        lease.new_slots += 1
        return 1

    def extend_run(self, lease: CacheLease, tokens) -> int:
        """Grow a lease by a sequence of tokens exactly as one :meth:`extend`
        per token would: the same flushes and refusal, and the summed return."""
        if tokens and lease not in self._leases:
            raise DoubleRelease("cannot extend a lease this cache does not hold")
        children, parent, token_of, free = self._children, self._parent, self._token, self._free
        node, usage, added, done = lease._tip, self.usage, 0, 0
        try:
            for tok in tokens:
                kids = children[node]
                child = kids.get(tok)
                if child is None:
                    if usage >= self.budget:
                        # The tip pins ``node``; a flush that frees nothing raises.
                        lease._tip, self.usage = node, usage
                        self._reserve(1)
                        usage, free = self.usage, self._free
                    if free:
                        child = free.pop()
                        children[child] = {}
                        parent[child] = node
                        token_of[child] = tok
                    else:
                        child = len(parent)
                        children.append({})
                        parent.append(node)
                        token_of.append(tok)
                    kids[tok] = child
                    usage += 1
                    added += 1
                node = child
                done += 1
        finally:
            lease._tip, self.usage = node, usage
            lease._length += done
            lease.new_slots += added
        return added

    def release(self, lease: CacheLease) -> None:
        """Unpin a lease. A lease this cache does not hold, because it was
        released or another cache made it, raises :class:`DoubleRelease`."""
        try:
            del self._leases[lease]
        except KeyError:
            raise DoubleRelease("lease already released or not made by this cache") from None

    # -- reclamation -----------------------------------------------------

    def flush(self) -> int:
        """Free every node that is not an ancestor-or-self of a pinned tip."""
        parent, children = self._parent, self._children
        kept = {0: None}
        for tip in (self._protect, *[lease._tip for lease in self._leases]):
            while tip not in kept:
                kept[tip] = None
                tip = parent[tip]
        # Cut each unkept child off its kept parent. Every id left unkept,
        # below a cut or free before, is then free: one C-level pass over
        # the table finds them, with no walk of the cut subtrees.
        cuts = [(node, tok) for node in kept for tok, child in children[node].items()
                if child not in kept]
        for node, tok in cuts:
            del children[node][tok]
        self._free = list(set(range(len(parent))).difference(kept))
        freed = self.usage - (len(kept) - 1)
        self.usage = len(kept) - 1
        return freed

    def _reserve(self, need: int, protect: int = 0) -> None:
        if need <= self.budget - self.usage:
            return
        # Pin the node the caller is about to grow from for the duration of
        # the flush; pinning it keeps its ancestors too.
        self._protect = protect
        try:
            self.flush_count += 1
            self.flush()
        finally:
            self._protect = 0
        if need > self.budget - self.usage:
            live = self.usage
            raise BudgetExceeded(
                f"need {need} slots but only {self.budget - live} of "
                f"{self.budget} free after flush ({live} live)")

    # -- integrity (a debugging aid for tests; the CLI never calls it) ----

    def check_integrity(self) -> None:
        children, parent, token, free = self._children, self._parent, self._token, self._free
        if not len(children) == len(parent) == len(token) <= self.budget + 1:
            raise AssertionError(f"tables of {len(children)}, {len(parent)} and "
                                 f"{len(token)} entries for budget {self.budget}")
        depth = {0: 0}
        stack = [0]
        while stack:
            node = stack.pop()
            for tok, child in children[node].items():
                if child in depth:
                    raise AssertionError(f"node {child} is reached twice")
                if parent[child] != node or token[child] != tok:
                    raise AssertionError(f"node {child} disagrees with its parent's entry")
                depth[child] = depth[node] + 1
                stack.append(child)
        if len(depth) - 1 != self.usage:
            raise AssertionError(f"usage {self.usage} != node count {len(depth) - 1}")
        if depth.keys() | free != set(range(len(parent))) or len(depth) + len(free) != len(parent):
            raise AssertionError("an id is neither in the tree nor free exactly once")
        for lease in self._leases:
            if depth.get(lease._tip) != lease._length:
                raise AssertionError(f"a live lease of length {lease._length} has its "
                                     f"tip at depth {depth.get(lease._tip)}")
