"""Shared fixtures: the 18-token reference document, corpus helpers, and
line-event and call-event work counters."""

from __future__ import annotations

import random
import sys

import numpy as np
import pytest

from paratrace import (build_attention_mask, build_position_ids, parse_document,
                       random_valid_document)

# Reference document: one block, two plans, a 4-token and a 3-token step,
# then the takeaway. Hand-derived expectations for it are frozen in tests.
E1 = [
    "<guideline>",
    "<plan>", "1:", "</plan>",
    "<plan>", "2:", "</plan>",
    "</guideline>",
    "<step>", "1:", "alpha", "</step>",
    "<step>", "2:", "</step>",
    "<takeaway>", "done", "</takeaway>",
]

E1_POSITIONS = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 8, 9, 10, 12, 13, 14]

# Same document plus a boxed epilogue, so all six categories pass.
E1_FULL = E1 + ["the", "answer:", "\\boxed{42}"]


@pytest.fixture
def e1():
    return list(E1)


@pytest.fixture
def e1_full():
    return list(E1_FULL)


def e1_expected_mask() -> np.ndarray:
    """Hand-built visibility for E1: causal, steps {8..11} and {12..14} isolated."""
    n = len(E1)
    m = np.tril(np.ones((n, n), dtype=bool))
    m[8:12, 12:15] = False
    m[12:15, 8:12] = False
    return m


def make_corpus(n_docs: int, seed: int, **kwargs) -> list[list[str]]:
    rng = random.Random(seed)
    return [random_valid_document(rng, **kwargs) for _ in range(n_docs)]


@pytest.fixture(scope="session")
def corpus_1000():
    """1,000 random valid documents, L <= 256, up to two nesting levels."""
    docs = make_corpus(1000, seed=20240817, max_depth=2)
    assert all(len(d) <= 256 for d in docs)
    return docs


def step_spans_by_block(tokens):
    """(block, enclosing step span or None) pairs from the parse tree."""
    doc = parse_document(tokens)
    out = []

    def walk(blocks, enclosing):
        for block in blocks:
            out.append((block, enclosing))
            for child in block.children:
                parent_step = next(s for s in block.steps
                                   if s.start <= child.extent.start < s.end)
                walk([child], parent_step)

    walk(doc.blocks, None)
    return out


def assert_topology_invariants(tokens) -> None:
    """Joint mask/position invariants for one structurally valid document."""
    n = len(tokens)
    mask = build_attention_mask(tokens)
    dense = mask.dense()
    pos = np.array(build_position_ids(tokens))

    causal = np.tril(np.ones((n, n), dtype=bool))
    assert not (dense & ~causal).any(), "visibility escapes the causal mask"
    assert dense.diagonal().all(), "diagonal must stay visible"

    for block, enclosing in step_spans_by_block(tokens):
        p_end = int(pos[block.guideline_span.end - 1])
        lengths = []
        for span in block.steps:
            assert pos[span.start] == p_end + 1, "step must restart at p_end + 1"
            lengths.append(int(pos[span.end - 1]) - p_end)
        for a in block.steps:
            for b in block.steps:
                if a is not b:
                    assert not dense[a.start:a.end, b.start:b.end].any(), \
                        "sibling steps must be mutually blocked"
        tw = block.takeaway_span
        if lengths:
            assert pos[tw.start] == p_end + max(lengths) + 1, \
                "join must land one past the longest step"
        horizon = n if enclosing is None else enclosing.end
        for span in block.steps:
            sub = dense[tw.start:horizon, span.start:span.end]
            causal_part = causal[tw.start:horizon, span.start:span.end]
            assert (sub == causal_part).all(), \
                "tokens from the join onward must see every step"

    eq = pos[:, None] == pos[None, :]
    lower = np.tril(np.ones((n, n), dtype=bool), k=-1)
    shared_visible = eq & lower & dense
    assert not shared_visible.any(), \
        "tokens sharing a position must be mutually blocked"

    assert pos.max() <= n - 1
    has_parallel = any(len(b.steps) >= 2 for b, _ in step_spans_by_block(tokens))
    if has_parallel:
        assert pos.max() < n - 1
    else:
        assert pos.max() == n - 1


def line_events(fn) -> int:
    """Python line events while ``fn()`` runs: a work count that no clock perturbs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def python_calls(fn) -> int:
    """Python-level function calls while ``fn()`` runs, C functions not
    counted: the interpreter overhead a hot loop pays, which no clock perturbs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return count
