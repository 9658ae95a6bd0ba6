"""Mask and position-id construction, oracle equivalence, exports."""

import importlib.util
import json
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paratrace import (AttentionMask, StructureError, build_attention_mask,
                       build_position_ids, corrupt, mask_from_spans_oracle,
                       random_valid_document, topology_stats, validate_structure)
from paratrace import tags, topology, validation
from paratrace.topology import DENSE_LIMIT
from conftest import (E1, E1_FULL, E1_POSITIONS, assert_topology_invariants,
                      e1_expected_mask, line_events, make_corpus)
from reference_structure import ref_attention_mask, ref_position_ids, ref_topology_stats


class TestPositions:
    def test_e1_fixture(self, e1):
        assert build_position_ids(e1) == E1_POSITIONS

    def test_tagless_sequential(self):
        assert build_position_ids(["a", "b", "c", "d", "e"]) == [0, 1, 2, 3, 4]

    def test_single_step_block_is_sequential(self):
        tokens = ["<guideline>", "<plan>", "p", "</plan>", "</guideline>",
                  "<step>", "x", "y", "</step>", "<takeaway>", "t", "</takeaway>"]
        assert build_position_ids(tokens) == list(range(len(tokens)))

    def test_positions_are_ints(self, e1):
        assert all(isinstance(p, int) for p in build_position_ids(e1))

    def test_structure_error_on_unbalanced(self, e1):
        with pytest.raises(StructureError):
            build_position_ids(e1[:-1])

    def test_non_category1_faults_still_build(self, e1):
        # A block without plans is balanced, so topology is still defined.
        tokens = [t for i, t in enumerate(e1) if not 1 <= i <= 6]
        assert build_position_ids(tokens) is not None


class TestMask:
    def test_e1_fixture_bit_for_bit(self, e1):
        assert np.array_equal(build_attention_mask(e1).dense(), e1_expected_mask())

    def test_e1_spot_checks(self, e1):
        mask = build_attention_mask(e1)
        assert not mask.is_visible(13, 9)   # step 2 cannot see step 1
        assert mask.is_visible(16, 9)       # takeaway sees step 1
        assert mask.is_visible(16, 13)      # takeaway sees step 2
        assert not mask.is_visible(9, 13)   # causality

    def test_out_of_range_index_is_refused(self, e1):
        n = len(e1)
        for mask in (build_attention_mask(e1), mask_from_spans_oracle(e1), AttentionMask(n)):
            for i, j in ((100, 5), (13, -9), (-1, 0), (n, 0), (0, n)):
                with pytest.raises(IndexError):
                    mask.is_visible(i, j)

    def test_wide_block_builds_in_small_memory(self):
        """A 1,000-step block blocks 999,000 ordered pairs; the mask stores none."""
        tokens = (["<guideline>", "<plan>", "p", "</plan>", "</guideline>"]
                  + ["<step>", "s", "</step>"] * 1000 + ["<takeaway>", "t", "</takeaway>"])
        tracemalloc.start()
        try:
            mask = build_attention_mask(tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert not mask.is_visible(9, 6) and mask.is_visible(6, 6)

    def test_wide_block_views_enumerate_no_pairs(self, monkeypatch):
        """A 2,043-step block blocks 4.17M ordered pairs; the dense view and
        point queries read the step groups instead, and match the oracle."""
        tokens = (["<guideline>", "<plan>", "p", "</plan>", "</guideline>"]
                  + ["<step>", "</step>"] * 2043
                  + ["<takeaway>", "t", "</takeaway>", "\\boxed{1}"])
        n = len(tokens)
        want = mask_from_spans_oracle(tokens).dense()

        def no_pairs(self, span):
            raise AssertionError("blocked pairs enumerated")
        monkeypatch.setattr(AttentionMask, "_pairs", no_pairs)
        rng = random.Random(0)
        cells = [(i, rng.randrange(i + 1)) for i in (rng.randrange(n) for _ in range(3000))]
        cells += [(8, 5), (8, 6), (8, 7), (4088, 4086), (4088, 4087), (4093, 4088), (n - 1, 0)]
        probe = build_attention_mask(tokens)
        assert [probe.is_visible(i, j) for i, j in cells] == [want[i, j] for i, j in cells]
        assert np.array_equal(build_attention_mask(tokens).dense(), want)

    def test_dense_view_stops_above_the_cap(self):
        mask = build_attention_mask(["w"] * (DENSE_LIMIT + 1))
        with pytest.raises(ValueError, match="dense mask unavailable"):
            mask.dense()

    def test_tagless_causal(self):
        tokens = ["a", "b", "c"]
        assert np.array_equal(build_attention_mask(tokens).dense(),
                              np.tril(np.ones((3, 3), dtype=bool)))

    def test_structure_error_on_unbalanced(self, e1):
        with pytest.raises(StructureError):
            build_attention_mask(["</step>"] + e1)

    def test_additive_view(self, e1):
        add = build_attention_mask(e1).additive()
        assert add[13, 9] == -np.inf
        assert add[16, 9] == 0.0

    def test_coords_export(self, e1):
        data = build_attention_mask(e1).to_coords_dict()
        assert data["length"] == len(e1)
        rects = {(tuple(r["row_span"]), tuple(r["col_span"])) for r in data["blocked"]}
        assert ((8, 12), (12, 15)) in {(a, b) for a, b in rects}
        assert ((12, 15), (8, 12)) in {(a, b) for a, b in rects}

    def test_dense_bitset_export(self):
        tokens = ["a", "b", "c"]
        raw = build_attention_mask(tokens).to_dense_bytes()
        # Rows: 100, 110, 111 -> flat bits 1,0,0,1,1,0,1,1,1 LSB-first.
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        assert list(bits[:9]) == [1, 0, 0, 1, 1, 0, 1, 1, 1]


class TestOracle:
    def test_e1_equivalence(self, e1):
        assert build_attention_mask(e1).same_visibility(mask_from_spans_oracle(e1))

    def test_e1_point_queries_agree(self, e1):
        built, oracle = build_attention_mask(e1), mask_from_spans_oracle(e1)
        cells = [(i, j) for i in range(len(e1)) for j in range(i + 1)]
        assert [oracle.is_visible(i, j) for i, j in cells] == \
            [built.is_visible(i, j) for i, j in cells]
        assert not all(oracle.is_visible(i, j) for i, j in cells)

    def test_tagless_equivalence(self):
        for tokens in ([], ["a", "b"]):
            built, oracle = build_attention_mask(tokens), mask_from_spans_oracle(tokens)
            assert built.same_visibility(oracle), tokens
            assert built.to_dense_bytes() == oracle.to_dense_bytes(), tokens

    def test_random_docs_equivalence(self):
        for tokens in make_corpus(100, seed=3, max_depth=2):
            streaming = build_attention_mask(tokens)
            oracle = mask_from_spans_oracle(tokens)
            assert streaming.same_visibility(oracle), tokens

    def test_dense_made_mask_lists_no_rectangles(self, e1):
        oracle = mask_from_spans_oracle(e1)
        assert oracle.same_visibility(build_attention_mask(e1))
        with pytest.raises(ValueError, match="no blocked rectangles"):
            oracle.blocked
        with pytest.raises(ValueError, match="no blocked rectangles"):
            oracle.to_coords_dict()

    def test_oracle_rejects_unbalanced(self, e1):
        with pytest.raises(StructureError):
            mask_from_spans_oracle(e1[:-1])


class TestStats:
    def test_e1(self, e1):
        stats = topology_stats(e1)
        assert stats.total_tokens == 18
        assert stats.critical_path == 15
        assert stats.compression_ratio == pytest.approx(1.2)
        assert stats.blocks[0].branch_count == 2
        assert stats.blocks[0].longest_step == 4

    @staticmethod
    def forked_doc(branches: int, prefix_len: int = 4, step_len: int = 5,
                   tail_len: int = 3) -> list[str]:
        """Prefix + B identical steps + tail, in canonical tight form."""
        assert prefix_len >= 4 and step_len >= 2 and tail_len >= 2
        prefix = (["<guideline>", "<plan>"]
                  + ["p"] * (prefix_len - 4)
                  + ["</plan>", "</guideline>"])
        step = ["<step>"] + ["s"] * (step_len - 2) + ["</step>"]
        tail = ["<takeaway>"] + ["t"] * (tail_len - 2) + ["</takeaway>"]
        return prefix + step * branches + tail

    def test_three_branch_closed_form(self):
        tokens = self.forked_doc(branches=3, prefix_len=4, step_len=5, tail_len=3)
        stats = topology_stats(tokens)
        assert stats.total_tokens == 22
        assert stats.critical_path == 12
        assert stats.compression_ratio == pytest.approx(22 / 12, abs=1e-12)

    def test_speedup_monotone_in_branch_count(self):
        ratios = [topology_stats(self.forked_doc(b)).compression_ratio
                  for b in range(1, 7)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_purely_sequential(self):
        stats = topology_stats(["a", "b", "c"])
        assert stats.compression_ratio == 1.0
        assert stats.blocks == ()

    def test_empty(self):
        stats = topology_stats([])
        assert stats.total_tokens == 0
        assert stats.compression_ratio == 1.0


class TestJointInvariants:
    def test_e1(self, e1):
        assert_topology_invariants(e1)

    def test_small_corpus(self):
        for tokens in make_corpus(100, seed=7, max_depth=2):
            assert_topology_invariants(tokens)

    def test_nested_fixture(self, e1):
        nested = e1[:11] + list(E1) + e1[11:]
        assert_topology_invariants(nested)


class CountingList(list):
    """A token list that counts the passes made over it."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("builder", [build_attention_mask, build_position_ids,
                                     topology_stats])
def test_builder_scans_its_tokens_once(builder, e1):
    """The validator gate and the walk read one shared tag scan."""
    tokens = CountingList(e1)
    builder(tokens)
    assert tokens.iterations == 1


# -- the shared walk ----------------------------------------------------------

def mask_views(mask) -> tuple:
    """The rectangles, the coords JSON and, up to 300 tokens, the dense bytes."""
    dense = mask.to_dense_bytes() if mask.length <= 300 else None
    return mask.blocked, json.dumps(mask.to_coords_dict()), dense


BUILDERS = {
    "mask": (lambda t: mask_views(build_attention_mask(t)),
             lambda t: mask_views(ref_attention_mask(t))),
    "positions": (build_position_ids, ref_position_ids),
    "stats": (topology_stats, ref_topology_stats),
}


def outcome(fn, tokens):
    try:
        return fn(tokens)
    except StructureError as exc:
        return ("StructureError", exc.index, str(exc))


def assert_builds_like_reference(name: str, tokens) -> None:
    built, reference = BUILDERS[name]
    assert outcome(built, tokens) == outcome(reference, tokens), (name, tokens)


@pytest.fixture
def walks(monkeypatch):
    """The lengths of the sequences walked since the test began, in order:
    every walk makes exactly one tag scan."""
    walked = []

    def counting_scan(texts):
        walked.append(len(texts))
        return tags.tag_scan(texts)
    monkeypatch.setattr(validation, "tag_scan", counting_scan)
    build_position_ids(["a", "b"])  # walk some other sequence first
    walked.clear()
    return walked


class TestSharedWalk:
    def test_three_builders_make_one_walk(self, walks, e1_full):
        for name in BUILDERS:
            assert_builds_like_reference(name, e1_full)
        assert walks == [len(E1_FULL)]

    def test_each_edit_forces_a_new_walk(self, walks, e1):
        tokens = e1
        assert_builds_like_reference("stats", tokens)
        tokens[10] = "beta"  # replaced in place: the length holds
        assert_builds_like_reference("positions", tokens)
        tokens.append("\\boxed{1}")
        assert_builds_like_reference("mask", tokens)
        del tokens[2]
        assert_builds_like_reference("stats", tokens)
        assert walks == [18, 18, 19, 18]
        for name in BUILDERS:
            assert_builds_like_reference(name, list(tokens))
        assert walks == [18, 18, 19, 18], "an equal list reuses the kept walk"

    def test_returned_results_are_not_shared(self, walks, e1):
        positions = build_position_ids(e1)
        positions[0] = 99
        positions.append(5)
        assert build_position_ids(list(E1)) == E1_POSITIONS
        first, second = build_attention_mask(e1), build_attention_mask(list(E1))
        assert first.to_dense_bytes() == second.to_dense_bytes()
        assert first.to_coords_dict() == second.to_coords_dict()
        first.dense()[:] = False
        assert mask_views(second) == mask_views(build_attention_mask(e1)) \
            == mask_views(ref_attention_mask(E1))
        assert walks == [len(E1)]

    def test_a_structure_error_is_never_kept(self, walks, e1):
        broken = ["</step>"] + e1[1:]
        unclosed = e1[:-1] + ["<step>"]
        assert len(broken) == len(unclosed) == len(e1)
        for tokens in (broken, e1, broken, broken, e1, unclosed, e1, unclosed):
            for name in BUILDERS:
                assert_builds_like_reference(name, tokens)
        # Each broken sequence is walked by every builder; the valid one
        # once, as a failed walk leaves the kept one in place.
        assert walks == [18] * (3 * 5 + 1)


EDIT_TOKENS = sorted(tags.TAGS) + ["w", "\\boxed{7}"]


def pool_doc(seed: int) -> list[str]:
    rng = random.Random(seed)
    tokens = random_valid_document(rng, max_depth=2)
    return corrupt(tokens, seed % 6 + 1) if seed % 3 == 0 else tokens


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 99), min_size=3, max_size=3),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.sampled_from([*BUILDERS, "set", "append", "delete", "copy"]),
                          st.integers(0, 10**6), st.sampled_from(EDIT_TOKENS)),
                max_size=30))
def test_builder_calls_between_edits_match_references(seeds, calls):
    """Builder calls over a small pool of lists, edited in place between calls."""
    pool = [pool_doc(seed) for seed in seeds]
    for at, other, op, k, token in calls:
        tokens = pool[at]
        if op in BUILDERS:
            assert_builds_like_reference(op, tokens)
        elif op == "copy":
            pool[at] = list(pool[other])
        elif op == "append":
            tokens.append(token)
        elif tokens:
            if op == "set":
                tokens[k % len(tokens)] = token
            else:
                del tokens[k % len(tokens)]


def perfbench_inputs():
    """The benchmark's seeded trace generators, read from ``perfbench/inputs.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_three_builders_cost_about_one_mask_build():
    """The mask, position ids and stats of one trace, built in turn, cost
    little more than the mask alone: they share the mask's walk."""
    inputs = perfbench_inputs()
    tokens = inputs.long_trace_tokens(random.Random(0), inputs.MIXED_ORDER, 3_000)[0]
    assert len(tokens) == 3_088
    build_position_ids(E1)
    mask_alone = line_events(lambda: build_attention_mask(tokens))
    build_position_ids(E1)
    together = line_events(lambda: (build_attention_mask(tokens), build_position_ids(tokens),
                                    topology_stats(tokens)))
    assert together <= 1.2 * mask_alone, (together, mask_alone)


def test_a_mask_build_costs_little_more_than_one_validator_pass():
    """The validator's pass lays out the mask: a fresh mask build adds to one
    validator call only the scan and the copy of its layout, not a second
    per-tag loop."""
    docs = make_corpus(200, seed=3, max_depth=2)

    def fresh_mask(tokens):
        topology._kept = (None, None)
        build_attention_mask(tokens)

    built = sum(line_events(lambda: fresh_mask(tokens)) for tokens in docs)
    validated = sum(line_events(lambda: validate_structure(tokens)) for tokens in docs)
    assert built <= 1.3 * validated, (built, validated, built / validated)
