"""Reference-counted radix cache with a hard slot budget.

The tree stores one token per node (one slot per cached token). Callers
acquire leases: a lease pins only its tip node with one reference and must
be released exactly once. Slots are reclaimed only under pressure: when an
insertion would overflow the budget, every unreferenced node with no
children is evicted, children before parents, before the insertion is
retried. A pinned tip therefore keeps every one of its ancestors, so no
operation walks a lease's path: growing a lease with
:meth:`RadixCache.extend` moves its pin one node down, and releasing it
unpins one node, each in O(1).

If the retry still does not fit, the operation raises
:class:`BudgetExceeded` after the flush: no slot is inserted, no lease is
made or grown, and live nodes are untouched, but unreferenced nodes may
already have been evicted and the flush is counted.
"""

from __future__ import annotations

from .errors import BudgetExceeded, DoubleRelease


class _Node:
    __slots__ = ("token", "parent", "children", "ref_count")

    def __init__(self, token: str | None, parent: "_Node | None"):
        self.token = token
        self.parent = parent
        self.children: dict[str, _Node] = {}
        self.ref_count = 0


class CacheLease:
    """A path in the cache, pinned at its tip; release exactly once."""

    __slots__ = ("matched", "new_slots", "_tip", "_length", "released")

    def __init__(self, tip: _Node, length: int, matched: int, new_slots: int):
        self._tip = tip
        self._length = length
        self.matched = matched
        self.new_slots = new_slots
        self.released = False

    def __len__(self) -> int:
        return self._length


class RadixCache:
    def __init__(self, budget: int):
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self.budget = budget
        self.usage = 0
        self.flush_count = 0
        self._live_leases = 0
        self._root = _Node(None, None)

    # -- queries ---------------------------------------------------------

    def match_prefix(self, tokens) -> int:
        """Length of the longest stored prefix of ``tokens``. No mutation."""
        return self._descend(tokens)[1]

    def _descend(self, tokens) -> tuple[_Node, int]:
        """The deepest stored node along ``tokens`` and its depth."""
        node = self._root
        depth = 0
        for tok in tokens:
            child = node.children.get(tok)
            if child is None:
                break
            node = child
            depth += 1
        return node, depth

    # -- leases ----------------------------------------------------------

    def match_and_insert(self, tokens) -> CacheLease:
        """Pin ``tokens`` in the cache, inserting the unmatched suffix.

        The new lease pins its tip. If the suffix does not fit, unreferenced
        nodes are flushed first, sparing the matched prefix; if it still does
        not fit, raises :class:`BudgetExceeded`, inserting nothing and making
        no lease.
        """
        tokens = list(tokens)
        node, matched = self._descend(tokens)
        need = len(tokens) - matched
        self._reserve(need, protect=node)
        for tok in tokens[matched:]:
            child = _Node(tok, node)
            node.children[tok] = child
            node = child
        self.usage += need
        node.ref_count += 1
        self._live_leases += 1
        return CacheLease(node, len(tokens), matched, need)

    def extend(self, lease: CacheLease, token: str) -> int:
        """Grow a lease by one token; returns newly occupied slots (0 or 1)."""
        if lease.released:
            raise DoubleRelease("cannot extend a released lease")
        node = lease._tip
        child = node.children.get(token)
        if child is None:
            if self.usage >= self.budget:
                self._reserve(1, protect=node)
            child = _Node(token, node)
            node.children[token] = child
            self.usage += 1
            added = 1
        else:
            added = 0
        node.ref_count -= 1
        child.ref_count += 1
        lease._tip = child
        lease._length += 1
        lease.new_slots += added
        return added

    def release(self, lease: CacheLease) -> None:
        """Unpin a lease's tip. A second release raises :class:`DoubleRelease`."""
        if lease.released:
            raise DoubleRelease("lease already released")
        lease._tip.ref_count -= 1
        self._live_leases -= 1
        lease.released = True

    # -- reclamation -----------------------------------------------------

    def flush(self) -> int:
        """Evict every unreferenced node, children before parents."""
        # Breadth-first listing, visited in reverse: every node comes after
        # all of its descendants, with no recursion on deep chains.
        order = list(self._root.children.values())
        for node in order:
            order.extend(node.children.values())
        freed = 0
        for node in reversed(order):
            if node.ref_count == 0 and not node.children:
                del node.parent.children[node.token]
                freed += 1
        self.usage -= freed
        return freed

    def _reserve(self, need: int, protect: _Node) -> None:
        if need <= self.budget - self.usage:
            return
        # Pin the node the caller is about to grow from for the duration of
        # the flush; pinning it keeps its ancestors too.
        protect.ref_count += 1
        try:
            self.flush_count += 1
            self.flush()
        finally:
            protect.ref_count -= 1
        if need > self.budget - self.usage:
            live = self.usage
            raise BudgetExceeded(
                f"need {need} slots but only {self.budget - live} of "
                f"{self.budget} free after flush ({live} live)")

    # -- integrity (a debugging aid for tests; the CLI never calls it) ----

    def check_integrity(self) -> None:
        count = pins = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.ref_count < 0:
                raise AssertionError("negative reference count")
            pins += node.ref_count
            stack.extend(node.children.values())
            count += len(node.children)
        if pins != self._live_leases:
            raise AssertionError(f"{pins} pins != {self._live_leases} live leases")
        if count != self.usage:
            raise AssertionError(f"usage {self.usage} != node count {count}")
        if self.usage > self.budget:
            raise AssertionError("usage exceeds budget")
