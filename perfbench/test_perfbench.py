"""Tests of the benchmark's input generators and span tracer."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import paratrace
import paratrace.cli
import inputs
import run
from paratrace import (RadixCache, ScriptedPolicy, TokenLedger, build_attention_mask,
                       parse_document, run_generation, tokenize, validate_structure)
from tracing import Patches, Tracer
from workloads import Rep


@pytest.mark.parametrize("shapes", [(s,) for s in inputs.SHAPES] + [inputs.MIXED_ORDER])
def test_long_trace_shapes_are_valid(shapes):
    for seed in range(3):
        tokens, rects, answer = inputs.long_trace_tokens(random.Random(seed), shapes, 3_000)
        assert len(tokens) >= 3_000 - 16
        assert [t.text for t in tokenize(" ".join(tokens))] == tokens
        assert validate_structure(tokens).ok
        doc = parse_document(tokens)
        assert doc.boxed_answer == answer
        assert len(build_attention_mask(tokens).blocked) == rects
        assert any(block.children for block in doc.blocks), "nests to depth 2"


def test_long_traces_follow_the_seed():
    first, again, other = inputs.long_traces(5), inputs.long_traces(5), inputs.long_traces(6)
    assert first == again
    assert [t.text for t in first] != [t.text for t in other]
    # Only the words follow the seed, so every seed costs the same.
    assert [(t.shape, t.n_tokens, t.blocked_rects) for t in first] == \
        [(t.shape, t.n_tokens, t.blocked_rects) for t in other]
    for t in first:
        target = inputs.TRACE_LENGTHS[t.length_class]
        assert target - 16 <= t.n_tokens < 2.5 * target


def test_rollout_groups_follow_the_seed():
    groups, budget = inputs.rollout_groups(3)
    assert (groups, budget) == inputs.rollout_groups(3)
    other, other_budget = inputs.rollout_groups(4)
    assert groups != other
    assert budget == other_budget
    assert [[(r.demand, r.max_new_tokens) for r in g.rollouts] for g in groups] == \
        [[(r.demand, r.max_new_tokens) for r in g.rollouts] for g in other]
    for group in groups:
        short = [r for r in group.rollouts if r.max_new_tokens < r.demand]
        assert len(short) == 1, "exactly one member per group is truncated"
        for r in group.rollouts:
            assert r.demand <= budget
            assert len(r.branches) == group.branch_count
            ScriptedPolicy(r.prologue, r.branches, r.takeaway)  # _check_streams


def test_short_rollout_groups_simulate_cleanly():
    groups, budget = inputs.rollout_groups(7)
    cache = RadixCache(budget)
    for group in groups:
        if group.length_class != "len_s":
            continue
        for r in group.rollouts:
            result = run_generation(ScriptedPolicy(r.prologue, r.branches, r.takeaway),
                                    cache, TokenLedger(r.max_new_tokens))
            truncated = any(e.kind == "truncate" for e in result.events)
            assert truncated == (r.max_new_tokens < r.demand)
            if not truncated:
                assert validate_structure(result.doc.texts()).ok
                assert len(result.doc.tokens) == r.demand
        cache.check_integrity()


def test_outcomes_follow_the_seed():
    assert inputs.outcomes(1, 10) == inputs.outcomes(1, 10)
    assert inputs.outcomes(1, 10) != inputs.outcomes(2, 10)
    assert {row["id"] for row in inputs.outcomes(1, 10)} == {f"doc{i:05d}" for i in range(10)}


def test_self_time_subtracts_children_and_patches_undo():
    tracer = Tracer()
    tracer.enabled = tracer.active = True
    original = paratrace.topology.validate_structure
    patches = Patches(paratrace, tracer)
    try:
        assert paratrace.topology.validate_structure is not original
        paratrace.cli.build_position_ids(["a", "\\boxed{1}"])
    finally:
        patches.undo()
    assert paratrace.topology.validate_structure is original
    names, _, dur, self_t, tokens, has_parent = tracer.self_times()
    outer = tracer.name_id["topology.build_position_ids"]
    inner = tracer.name_id["validation.validate_structure"]
    assert list(names) == [outer, inner]
    assert list(has_parent) == [False, True]
    assert self_t[0] == pytest.approx(dur[0] - dur[1])
    assert list(tokens) == [2, 2]


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    layers = run.layer_metrics(Tracer(), Rep(0, 0, [1.0]), {})
    layers["trace.overhead_frac"] = 0.0
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
