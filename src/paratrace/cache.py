"""Radix cache with a hard slot budget, held in id tables.

Each cached token takes one slot. Edges hold runs of tokens: a node is an
integer id (the root is 0, with an empty edge), and tables indexed by id hold
its children (keyed by the first token of each child's edge), its parent, and
its edge as a view ``(run, base, end)`` of a token list: depths
``_end[parent]`` to ``end``, with ``run[0]`` at depth ``base + 1``. A split
gives the part above the cut to a new node over the same list, copying no
token, and a childless node's edge ends at its list's end, so a lease at a
leaf's end grows it in place. The collector tracks one list per run, not one
object per token. Every non-root node holds a token and freed ids are reused,
so the tables never exceed ``budget + 1`` entries. Only ``_new`` allocates.

Callers acquire leases. A lease is live exactly while it is in its cache's
registry, and it pins its position, a length on the edge of the node it
names, and so every token above it; it is the only pin, and an insertion
registers its own before it reserves slots. A split leaves the leases above
the cut naming the node below it; each climbs the parent links when next
used. So no operation walks a lease's path or the registry: matching,
inserting or appending a run takes O(1) Python steps plus C-level list work,
and a split or a release O(1). A lease the registry does not hold, because
it was released or another cache made it, is refused with
:class:`DoubleRelease`.

Slots are reclaimed only under pressure: when an insertion would overflow the
budget, :meth:`RadixCache.flush` keeps every token at or above a pinned
position, so each edge keeps its prefix up to its deepest pin, and frees the
rest: the tokens that evicting every unpinned childless token, children
before parents, would remove. It takes Python steps only for the live
leases, the kept nodes and their children, plus one C-level pass over the id
table. If the retry still does not fit, the operation raises
:class:`BudgetExceeded` after the flush: nothing is inserted, no lease is
made or grown and pinned tokens are untouched, but unpinned ones may already
be evicted and the flush is counted.
"""

from __future__ import annotations

from itertools import compress, count
from operator import ne

from .errors import BudgetExceeded, DoubleRelease


class CacheLease:
    """A path in the cache, pinned at its end; release exactly once."""

    __slots__ = ("matched", "new_slots", "_node", "_length")

    def __init__(self, node: int, matched: int):
        self._node = node
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
        self._run: list[list[str]] = [[]]
        self._base = [0]
        self._end = [0]
        self._free: list[int] = []
        # The live leases, in the order they were made (a dict for its order).
        self._leases: dict[CacheLease, None] = {}

    # -- queries ---------------------------------------------------------

    def match_prefix(self, tokens) -> int:
        """Length of the longest stored prefix of ``tokens``. No mutation."""
        return self._match(0, 0, list(tokens), 0)[1]

    def _match(self, node: int, depth: int, tokens: list, i: int) -> tuple[int, int, int]:
        """Follow ``tokens[i:]`` down from the position ``(node, depth)`` as
        far as the tree holds it; returns the position reached and the index
        of the first token not matched. Each edge is compared as one slice."""
        children, run_of, base, end = self._children, self._run, self._base, self._end
        n = len(tokens)
        while i < n:
            if depth == end[node]:
                child = children[node].get(tokens[i])
                if child is None:
                    break
                node = child
            at = depth - base[node]
            k = min(end[node] - depth, n - i)
            edge, want = run_of[node][at:at + k], tokens[i:i + k]
            if edge == want:
                depth += k
                i += k
                continue
            k = next(compress(count(), map(ne, edge, want)))
            return node, depth + k, i + k
        return node, depth, i

    # -- leases ----------------------------------------------------------

    def match_and_insert(self, tokens) -> CacheLease:
        """Pin ``tokens`` in the cache, inserting the unmatched suffix.

        The new lease pins its end. It is registered at the matched prefix
        before the suffix's slots are reserved, so a flush spares that prefix;
        if the suffix still does not fit, the lease is unregistered and
        :class:`BudgetExceeded` raised, inserting nothing and making no lease.
        """
        tokens = list(tokens)
        node, matched, _ = self._match(0, 0, tokens, 0)
        lease = CacheLease(node, matched)
        self._leases[lease] = None
        try:
            self._reserve(len(tokens) - matched)
        except BudgetExceeded:
            del self._leases[lease]
            raise
        # The slots are reserved, so growing the lease cannot flush. The base
        # class's ``extend_run`` is called so that a subclass overriding it
        # sees only its own callers' tokens.
        RadixCache.extend_run(self, lease, tokens[matched:])
        return lease

    def extend(self, lease: CacheLease, token: str) -> int:
        """Grow a lease by one token; returns newly occupied slots (0 or 1)."""
        if lease not in self._leases:
            raise DoubleRelease("cannot extend a lease this cache does not hold")
        parent, end = self._parent, self._end
        node, depth = lease._node, lease._length
        while node and depth <= end[parent[node]]:  # as ``_locate``, inline
            node = parent[node]
        if depth < end[node]:
            if self._run[node][depth - self._base[node]] == token:
                lease._node, lease._length = node, depth + 1
                return 0
        else:
            child = self._children[node].get(token)
            if child is not None:
                lease._node, lease._length = child, depth + 1
                return 0
        lease._node = node
        if self.usage >= self.budget:
            self._reserve(1)  # the lease itself pins its position
        if depth < end[node]:
            node = self._split(node, depth)
        if node and not self._children[node]:
            # The end of a leaf edge, which is its run's end: grow it in place.
            self._run[node].append(token)
            end[node] = depth + 1
            self.usage += 1
            lease._length = depth + 1
            lease.new_slots += 1
            return 1
        child = self._new(node, [token], depth, depth + 1)
        self._children[node][token] = child
        self.usage += 1
        lease._node, lease._length = child, depth + 1
        lease.new_slots += 1
        return 1

    def extend_run(self, lease: CacheLease, tokens) -> int:
        """Grow a lease by a sequence of tokens exactly as one :meth:`extend`
        per token would: the same flushes and refusal, and the summed return.

        The run is matched a slice per edge, and its unmatched rest goes in
        as one new edge or onto the end of the lease's own leaf edge, so
        neither walks the run in Python."""
        tokens = list(tokens)
        if not tokens:
            return 0
        if lease not in self._leases:
            raise DoubleRelease("cannot extend a lease this cache does not hold")
        children, end = self._children, self._end
        node, depth = self._locate(lease), lease._length
        n, i, added = len(tokens), 0, 0
        while True:
            node, depth, i = self._match(node, depth, tokens, i)
            lease._node, lease._length = node, depth
            if i == n:
                break
            free = self.budget - self.usage
            if free <= 0:
                self._reserve(1)  # the lease pins its position; may raise
                continue
            k = min(free, n - i)
            if depth < end[node]:
                node = self._split(node, depth)
            if node and not children[node]:
                self._run[node] += tokens[i:i + k]  # a leaf edge ends at its run's end
                end[node] = depth + k
            else:
                leaf = self._new(node, tokens[i:i + k], depth, depth + k)
                children[node][tokens[i]] = leaf
                node = leaf
            depth += k
            i += k
            self.usage += k
            lease.new_slots += k
            added += k
        return added

    def _locate(self, lease: CacheLease) -> int:
        """The node whose edge holds a lease's end, recorded on the lease: a
        split leaves the lease naming the node below the cut, so climb."""
        parent, end = self._parent, self._end
        node, depth = lease._node, lease._length
        while node and depth <= end[parent[node]]:
            node = parent[node]
        lease._node = node
        return node

    def _split(self, node: int, depth: int) -> int:
        """Cut ``node``'s edge at ``depth``; returns the new node that takes
        the part above. ``node`` keeps its id, its children and the rest of
        its edge; leases above the cut find the new node when next used."""
        parent, run, base, end = self._parent, self._run[node], self._base[node], self._end
        up = parent[node]
        head = self._new(up, run, base, depth)
        self._children[head] = {run[depth - base]: node}
        self._children[up][run[end[up] - base]] = head
        parent[node] = head
        return head

    def _new(self, up: int, run: list, base: int, end: int) -> int:
        """A new childless node under ``up`` over ``run`` to depth ``end``."""
        free = self._free
        if free:
            node = free.pop()
            self._children[node] = {}
            self._parent[node], self._run[node] = up, run
            self._base[node], self._end[node] = base, end
            return node
        self._children.append({})
        self._parent.append(up)
        self._run.append(run)
        self._base.append(base)
        self._end.append(end)
        return len(self._parent) - 1

    def release(self, lease: CacheLease) -> None:
        """Unpin a lease. A lease this cache does not hold, because it was
        released or another cache made it, raises :class:`DoubleRelease`."""
        try:
            del self._leases[lease]
        except KeyError:
            raise DoubleRelease("lease already released or not made by this cache") from None

    # -- reclamation -----------------------------------------------------

    def flush(self) -> int:
        """Free every token that is not at or above a pinned position."""
        parent, children, run, base, end = (self._parent, self._children, self._run,
                                            self._base, self._end)
        deepest = {0: 0}  # node -> the deepest pin on its edge
        for lease in self._leases:
            node, depth = self._locate(lease), lease._length
            if deepest.get(node, -1) < depth:
                deepest[node] = depth
        kept = {0: None}
        for node in deepest:
            while node not in kept:
                kept[node] = None
                node = parent[node]
        # Cut each unkept child off its kept parent. Every id left unkept,
        # below a cut or free before, is then free: one C-level pass over
        # the table finds them, with no walk of the cut subtrees.
        cuts = [(node, tok) for node in kept for tok, child in children[node].items()
                if child not in kept]
        for node, tok in cuts:
            del children[node][tok]
        usage = 0
        for node in kept:
            if node and not children[node]:
                # Kept with no kept child, so pinned itself: trim the edge and
                # its run back to the deepest pin.
                end[node] = deepest[node]
                del run[node][end[node] - base[node]:]
            usage += end[node] - end[parent[node]]
        self._free = list(set(range(len(parent))).difference(kept))
        freed = self.usage - usage
        self.usage = usage
        return freed

    def _reserve(self, need: int) -> None:
        """Free ``need`` slots, flushing if needed, or raise :class:`BudgetExceeded`.
        The caller's lease, registered first, pins the position it grows from."""
        if need <= self.budget - self.usage:
            return
        self.flush_count += 1
        self.flush()
        if need > self.budget - self.usage:
            live = self.usage
            raise BudgetExceeded(
                f"need {need} slots but only {self.budget - live} of "
                f"{self.budget} free after flush ({live} live)")

    # -- integrity (a debugging aid for tests; the CLI never calls it) ----

    def check_integrity(self) -> None:
        children, parent, run, base, end = (self._children, self._parent, self._run,
                                            self._base, self._end)
        sizes = set(map(len, (children, parent, run, base, end)))
        if len(sizes) != 1 or len(parent) > self.budget + 1:
            raise AssertionError(f"tables of {sorted(sizes)} entries for budget {self.budget}")
        tree, stack, tokens = {0}, [0], 0
        while stack:
            node = stack.pop()
            for tok, child in children[node].items():
                if child in tree:
                    raise AssertionError(f"node {child} is reached twice")
                if parent[child] != node:
                    raise AssertionError(f"node {child} disagrees with its parent's entry")
                top, b, edge = end[node], base[child], run[child]
                if not b <= top < end[child] <= b + len(edge):
                    raise AssertionError(f"node {child} has an edge of depths {top} to "
                                         f"{end[child]} over a run from {b} of {len(edge)}")
                if edge[top - b] != tok:
                    raise AssertionError(f"node {child}'s edge does not start with its key")
                if not children[child] and end[child] != b + len(edge):
                    raise AssertionError(f"leaf {child} does not end at its run's end")
                tree.add(child)
                tokens += end[child] - top
                stack.append(child)
        if tokens != self.usage:
            raise AssertionError(f"usage {self.usage} != token count {tokens}")
        free = self._free
        if tree | set(free) != set(range(len(parent))) or len(tree) + len(free) != len(parent):
            raise AssertionError("an id is neither in the tree nor free exactly once")
        for lease in self._leases:
            if lease._node not in tree:
                raise AssertionError(f"a live lease names node {lease._node}, not in the tree")
            if len(lease) > end[self._locate(lease)]:
                raise AssertionError(f"a live lease of length {len(lease)} is below "
                                     f"the edge of node {lease._node}")
