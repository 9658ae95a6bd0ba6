"""Reference-counted radix cache with a hard slot budget.

The tree stores one token per node (one slot per cached token). Callers
acquire leases: a lease pins every node on its path with a reference count
and must be released exactly once. Slots are reclaimed only under pressure:
when an insertion would overflow the budget, all unreferenced nodes are
evicted, children before parents, before the insertion is retried. Live
(referenced) nodes are never evicted; if the retry still does not fit, the
operation fails atomically with :class:`BudgetExceeded`.

Because a live lease already pins its own path, growing it with
:meth:`RadixCache.extend` needs no extra protection during a flush: every
token costs O(1). Only :meth:`RadixCache.match_and_insert` pins its matched
path for the flush, since that path is not referenced yet. A lease's path is
walked once, when it is released.
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
    """A pinned path in the cache; release exactly once."""

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
        self._root = _Node(None, None)

    # -- queries ---------------------------------------------------------

    def match_prefix(self, tokens) -> int:
        """Length of the longest stored prefix of ``tokens``. No mutation."""
        return len(self._descend(tokens)[1])

    def _descend(self, tokens) -> tuple[_Node, list[_Node]]:
        """The deepest stored node along ``tokens`` and the path down to it."""
        node = self._root
        path: list[_Node] = []
        for tok in tokens:
            child = node.children.get(tok)
            if child is None:
                break
            node = child
            path.append(child)
        return node, path

    # -- leases ----------------------------------------------------------

    def match_and_insert(self, tokens) -> CacheLease:
        """Pin ``tokens`` in the cache, inserting the unmatched suffix.

        Reference counts along the whole path are incremented. If the suffix
        does not fit, unreferenced nodes are flushed first; if it still does
        not fit, raises :class:`BudgetExceeded` with the cache unchanged.
        """
        tokens = list(tokens)
        node, path = self._descend(tokens)
        matched = len(path)
        need = len(tokens) - matched
        self._reserve(need, protect=path)
        for tok in tokens[matched:]:
            child = _Node(tok, node)
            node.children[tok] = child
            node = child
            path.append(child)
        self.usage += need
        for n in path:
            n.ref_count += 1
        return CacheLease(node, len(path), matched, need)

    def extend(self, lease: CacheLease, token: str) -> int:
        """Grow a lease by one token; returns newly occupied slots (0 or 1)."""
        if lease.released:
            raise DoubleRelease("cannot extend a released lease")
        node = lease._tip if lease._length else self._root
        child = node.children.get(token)
        if child is None:
            if self.usage >= self.budget:
                self._reserve(1, protect=())
            child = _Node(token, node)
            node.children[token] = child
            self.usage += 1
            added = 1
        else:
            added = 0
        child.ref_count += 1
        lease._tip = child
        lease._length += 1
        lease.new_slots += added
        return added

    def release(self, lease: CacheLease) -> None:
        """Unpin a lease's path. A second release raises :class:`DoubleRelease`."""
        if lease.released:
            raise DoubleRelease("lease already released")
        path = self._lease_path(lease)
        for node in path:
            if node.ref_count <= 0:
                raise DoubleRelease("reference count underflow")
        for node in path:
            node.ref_count -= 1
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

    def _reserve(self, need: int, protect) -> None:
        if need <= self.budget - self.usage:
            return
        # Pin the caller's path for the duration of the flush: it is about
        # to become live, so it must not be reclaimed.
        for node in protect:
            node.ref_count += 1
        try:
            self.flush_count += 1
            self.flush()
        finally:
            for node in protect:
                node.ref_count -= 1
        if need > self.budget - self.usage:
            live = self.usage
            raise BudgetExceeded(
                f"need {need} slots but only {self.budget - live} of "
                f"{self.budget} free after flush ({live} live)")

    def _lease_path(self, lease: CacheLease) -> list[_Node]:
        path: list[_Node] = []
        node = lease._tip
        for _ in range(lease._length):
            path.append(node)
            node = node.parent
        path.reverse()
        return path

    # -- integrity (a debugging aid for tests; the CLI never calls it) ----

    def check_integrity(self) -> None:
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node is not self._root:
                count += 1
                if node.ref_count < 0:
                    raise AssertionError("negative reference count")
                if node.parent is not None and node.parent is not self._root:
                    if node.parent.ref_count < node.ref_count:
                        raise AssertionError("parent pinned less than child")
            stack.extend(node.children.values())
        if count != self.usage:
            raise AssertionError(f"usage {self.usage} != node count {count}")
        if self.usage > self.budget:
            raise AssertionError("usage exceeds budget")
