"""Radix cache: leases, budget pressure, reclamation, double-free."""

import gc
import tracemalloc

import pytest

from paratrace import BudgetExceeded, DoubleRelease, RadixCache
from conftest import line_events


class TestMatchAndInsert:
    def test_cold_cache(self):
        cache = RadixCache(budget=10)
        lease = cache.match_and_insert(["a", "b", "c", "d", "e", "f"])
        assert lease.matched == 0
        assert lease.new_slots == 6
        assert cache.usage == 6

    def test_prefix_reuse(self):
        cache = RadixCache(budget=20)
        first = cache.match_and_insert(["a", "b", "c"])
        second = cache.match_and_insert(["a", "b", "c", "d"])
        assert second.matched == 3
        assert second.new_slots == 1
        assert cache.usage == 4
        cache.release(first)
        cache.release(second)

    def test_two_branches_force_flush(self):
        # Shared 6-token prefix, then two 3-token suffixes under budget 10:
        # the second insert only fits after the first branch's released
        # suffix is reclaimed, and the prefix stays stored once.
        cache = RadixCache(budget=10)
        prefix = ["p1", "p2", "p3", "p4", "p5", "p6"]
        root_lease = cache.match_and_insert(prefix)

        branch_a = cache.match_and_insert(prefix + ["a1", "a2", "a3"])
        assert branch_a.matched == 6 and branch_a.new_slots == 3
        assert cache.usage == 9
        cache.release(branch_a)

        branch_b = cache.match_and_insert(prefix + ["b1", "b2", "b3"])
        assert branch_b.matched == 6, "prefix must still be stored once"
        assert branch_b.new_slots == 3
        assert cache.flush_count == 1
        assert cache.usage <= 10
        cache.check_integrity()
        cache.release(branch_b)
        cache.release(root_lease)

    def test_no_flush_without_pressure(self):
        cache = RadixCache(budget=100)
        lease = cache.match_and_insert(["x", "y"])
        cache.release(lease)
        cache.match_and_insert(["z"])
        assert cache.flush_count == 0

    def test_budget_exceeded_is_atomic(self):
        """A refused insert adds no slot, makes no lease and leaves live nodes
        alone. The flush before the refusal still counts, and may already
        have evicted released nodes."""
        for dead, live, refused in [([], ["a", "b", "c"], ["x", "y", "z"]),
                                    (["x", "y"], ["a"], ["p", "q", "r", "s"])]:
            cache = RadixCache(budget=4)
            cache.release(cache.match_and_insert(dead))
            held = cache.match_and_insert(live)
            with pytest.raises(BudgetExceeded):
                cache.match_and_insert(refused)
            assert cache.usage == len(live)
            assert cache.flush_count == 1
            assert cache.match_prefix(live) == len(live)
            assert cache.match_prefix(refused) == 0
            assert cache.match_prefix(["x"]) == 0
            cache.check_integrity()
            cache.release(held)
            cache.check_integrity()

    def test_a_refusal_leaves_no_lease(self):
        """The refused insertion's own lease pinned its matched prefix through
        the flush; once refused, it pins nothing, so everything is freed."""
        cache = RadixCache(budget=4)
        cache.release(cache.match_and_insert(["x", "y"]))
        held = cache.match_and_insert(["a"])
        with pytest.raises(BudgetExceeded):
            cache.match_and_insert(["x", "y", "p", "q", "r"])
        cache.release(held)
        assert cache.flush() == 3
        assert cache.usage == 0
        cache.check_integrity()

    def test_flush_never_evicts_live(self):
        cache = RadixCache(budget=5)
        live = cache.match_and_insert(["a", "b", "c", "d", "e"])
        with pytest.raises(BudgetExceeded):
            cache.match_and_insert(["q"])
        assert cache.match_prefix(["a", "b", "c", "d", "e"]) == 5
        cache.release(live)

    def test_matched_path_protected_during_flush(self):
        cache = RadixCache(budget=5)
        dead = cache.match_and_insert(["x", "y"])
        cache.release(dead)
        lease = cache.match_and_insert(["a", "b", "c"])
        cache.release(lease)  # both chains now reclaimable, usage 5
        again = cache.match_and_insert(["a", "b", "c", "d", "e"])
        # Reclamation must evict the dead chain, not the matched one.
        assert again.matched == 3
        assert again.new_slots == 2
        assert cache.flush_count == 1
        assert cache.match_prefix(["x"]) == 0
        assert cache.usage == 5
        cache.release(again)
        cache.check_integrity()


class TestRelease:
    def test_double_release_raises_and_preserves_state(self):
        cache = RadixCache(budget=10)
        lease = cache.match_and_insert(["a", "b"])
        cache.release(lease)
        usage = cache.usage
        with pytest.raises(DoubleRelease):
            cache.release(lease)
        assert cache.usage == usage
        cache.check_integrity()

    def test_extend_after_release_rejected(self):
        cache = RadixCache(budget=10)
        lease = cache.match_and_insert(["a"])
        cache.release(lease)
        with pytest.raises(DoubleRelease):
            cache.extend(lease, "b")
        with pytest.raises(DoubleRelease):
            cache.extend_run(lease, ["b", "c"])
        assert (cache.usage, len(lease)) == (1, 1)

    def test_lease_from_another_cache_is_refused(self):
        """A lease is live only in the registry of the cache that made it:
        another cache refuses to extend or release it, and both caches stay
        whole."""
        a, b = RadixCache(budget=10), RadixCache(budget=10)
        lease = a.match_and_insert(["x", "y"])
        with pytest.raises(DoubleRelease):
            b.release(lease)
        with pytest.raises(DoubleRelease):
            b.extend(lease, "z")
        a.check_integrity()
        b.check_integrity()
        assert (a.usage, b.usage, len(lease)) == (2, 0, 2)
        assert a.extend(lease, "z") == 1
        a.release(lease)
        a.check_integrity()


class TestExtend:
    def test_extend_inserts_and_shares(self):
        cache = RadixCache(budget=10)
        a = cache.match_and_insert(["p"])
        assert cache.extend(a, "x") == 1
        b = cache.match_and_insert(["p"])
        assert cache.extend(b, "x") == 0, "same continuation shares the node"
        assert cache.usage == 2
        cache.release(a)
        cache.release(b)
        cache.check_integrity()

    def test_extend_from_empty_lease(self):
        cache = RadixCache(budget=3)
        lease = cache.match_and_insert([])
        assert lease.matched == 0 and lease.new_slots == 0
        assert cache.extend(lease, "a") == 1
        assert cache.extend(lease, "b") == 1
        assert cache.usage == 2
        cache.release(lease)

    def test_extend_under_pressure_flushes(self):
        cache = RadixCache(budget=3)
        dead = cache.match_and_insert(["d1", "d2"])
        cache.release(dead)
        lease = cache.match_and_insert(["a"])
        cache.extend(lease, "b")
        cache.extend(lease, "c")  # needs a flush of d1/d2
        assert cache.flush_count >= 1
        assert cache.usage == 3
        cache.release(lease)


class TestDeepChains:
    def test_flush_of_very_long_chain(self):
        # Deeper than the interpreter recursion limit.
        n = 3000
        cache = RadixCache(budget=n)
        lease = cache.match_and_insert([f"t{i}" for i in range(n)])
        cache.release(lease)
        fresh = cache.match_and_insert(["other"])
        assert cache.flush_count == 1
        assert cache.usage == 1
        cache.release(fresh)
        cache.check_integrity()


class TestBudgetInvariant:
    def test_usage_never_exceeds_budget(self):
        cache = RadixCache(budget=8)
        leases = []
        for i in range(6):
            lease = cache.match_and_insert([f"t{i}", f"u{i}"])
            assert cache.usage <= 8
            leases.append(lease)
            if i % 2 == 0:
                cache.release(leases.pop(0))
        cache.check_integrity()


class TestLongLease:
    def test_flush_under_long_lease_frees_only_siblings(self):
        n = 5000
        cache = RadixCache(budget=n + 40)
        lease = cache.match_and_insert([])
        for i in range(n):
            cache.extend(lease, f"t{i}")
        path = [f"t{i}" for i in range(n)]
        # Released siblings hanging off the lease's path at several depths,
        # plus one unrelated chain, fill the budget to the last slot.
        for depth in (0, 1, 2500, n - 1, n):
            side = cache.match_and_insert(path[:depth] + [f"s{depth}a", f"s{depth}b"])
            cache.release(side)
        dead = cache.match_and_insert([f"d{i}" for i in range(30)])
        cache.release(dead)
        assert cache.usage == cache.budget

        assert cache.extend(lease, "next") == 1
        assert cache.flush_count == 1
        assert cache.usage == len(lease) == n + 1
        assert cache.match_prefix(path + ["next"]) == n + 1
        assert cache.match_prefix(["d0"]) == 0
        assert cache.match_prefix(path[:2500] + ["s2500a"]) == 2500
        cache.check_integrity()
        cache.release(lease)
        cache.check_integrity()

    def test_extend_never_walks_the_lease_path(self):
        """A lease pins only its end: growing or releasing a 10,000-token
        lease runs exactly the lines it does for a 10-token one."""
        def work(n):
            cache = RadixCache(budget=n + 1)
            lease = cache.match_and_insert([f"t{i}" for i in range(n)])
            extend = line_events(lambda: cache.extend(lease, "next"))
            release = line_events(lambda: cache.release(lease))
            assert cache.flush_count == 0
            cache.check_integrity()
            return extend, release

        assert work(10) == work(10_000)


class TestIntegrity:
    """Every id is in the tree or free, once; each child entry agrees with
    the child's parent link and the head of its edge; each edge holds at
    least one token and lies inside its run; usage counts the tree's tokens;
    and each live lease's length lies on the edge of a node in the tree."""

    @staticmethod
    def _freed_node(cache, lease):
        dead = cache.match_and_insert(["d", "e"])
        node = dead._node
        cache.release(dead)
        assert cache.flush() == 2
        lease._node = node

    @staticmethod
    def _edge_head(cache, lease):
        node = lease._node
        head = cache._end[cache._parent[node]] - cache._base[node]
        cache._run[node][head] = "z"

    @pytest.mark.parametrize("corrupt", [
        _freed_node,
        lambda cache, lease: cache._parent.__setitem__(lease._node, 0),
        _edge_head,
        lambda cache, lease: cache._end.__setitem__(lease._node, cache._end[lease._node] + 1),
        lambda cache, lease: setattr(lease, "_length", len(lease) + 1),
        lambda cache, lease: setattr(cache, "usage", cache.usage + 1),
    ], ids=["freed-tip", "parent-link", "edge-head", "edge-depth", "lease-depth", "usage-off"])
    def test_corrupt_tables_are_caught(self, corrupt):
        # "a" "b" "c" and "a" "x" split the first edge: the lease ends on the
        # edge "b" "c", below the split node "a".
        cache = RadixCache(budget=10)
        lease = cache.match_and_insert(["a", "b", "c"])
        cache.match_and_insert(["a", "x"])
        cache.match_and_insert([])
        cache.check_integrity()
        assert cache._parent[lease._node] != 0
        corrupt(cache, lease)
        with pytest.raises(AssertionError):
            cache.check_integrity()


class TestRunEdges:
    """A run is matched, inserted and split as one edge, in O(1) Python steps."""

    def test_a_run_costs_the_same_lines_at_any_length(self):
        """Inserting a run as a new edge, growing a leaf edge by a run in
        place, and matching a whole stored run each run the same lines for
        10,000 tokens as for 10."""
        def work(n):
            cache = RadixCache(budget=2 * n)
            tokens = [f"t{i}" for i in range(2 * n)]
            first, second = cache.match_and_insert([]), cache.match_and_insert([])
            inserted = line_events(lambda: cache.extend_run(first, tokens[:n]))
            appended = line_events(lambda: cache.extend_run(first, tokens[n:]))
            matched = line_events(lambda: cache.extend_run(second, tokens))
            assert (len(first), len(second), first.new_slots, second.new_slots,
                    cache.usage) == (2 * n, 2 * n, 2 * n, 0, 2 * n)
            cache.check_integrity()
            return inserted, appended, matched

        assert work(10) == work(10_000)

    def test_a_split_copies_no_tokens(self):
        """Splitting a 100,000-token edge two tokens below its head allocates
        under 64 KB; copying the edge's tokens would take about 800 KB."""
        n = 100_000
        cache = RadixCache(budget=n + 1)
        tokens = [f"t{i}" for i in range(n)]
        lease = cache.match_and_insert(tokens)
        tracemalloc.start()
        try:
            fork = cache.match_and_insert(tokens[:2] + ["x"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (fork.matched, fork.new_slots, cache.usage) == (2, 1, n + 1)
        assert cache.match_prefix(tokens) == n
        assert peak < 64 * 1024, peak
        cache.check_integrity()
        cache.release(lease)

    def test_a_split_does_not_walk_the_leases(self):
        """A split under 1,000 live leases on the cut edge runs exactly the
        lines it does under one, and every lease keeps its length and pins."""
        def work(leases):
            cache = RadixCache(budget=64)
            path = [f"t{i}" for i in range(20)]
            cache.release(cache.match_and_insert(path))
            held = [cache.match_and_insert(path[:5 + i % 10]) for i in range(leases)]
            cutter = cache.match_and_insert(path[:2])
            lines = line_events(lambda: cache.extend(cutter, "x"))
            assert [len(lease) for lease in held] == [5 + i % 10 for i in range(leases)]
            cache.check_integrity()
            cache.release(cutter)
            assert cache.flush() == 1 + 20 - max(len(lease) for lease in held)
            cache.check_integrity()
            return lines

        assert work(1) == work(1_000)


class TestCollector:
    def test_nodes_add_no_tracked_objects(self):
        """Filling a lease with 10,000 tokens leaves as many objects tracked
        by the cyclic collector as filling one with 100."""
        def added(n):
            cache = RadixCache(budget=n)
            tokens = [f"t{i}" for i in range(n)]
            gc.collect()
            before = len(gc.get_objects())
            lease = cache.match_and_insert(tokens[:n // 2])
            for token in tokens[n // 2:]:
                cache.extend(lease, token)
            gc.collect()
            assert cache.usage == n
            return len(gc.get_objects()) - before

        assert abs(added(10_000) - added(100)) <= 4
