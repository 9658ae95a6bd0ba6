"""Evaluation metrics."""

import pytest

from paratrace import (avg_at_k, best_at_k, doc_is_parallel, parallel_rate,
                       topology_stats)
from conftest import E1


def test_avg_at_k_arithmetic():
    assert avg_at_k(3, 8) == 0.375
    assert avg_at_k(0, 8) == 0.0
    assert avg_at_k(8, 8) == 1.0


def test_avg_at_k_validation():
    with pytest.raises(ValueError):
        avg_at_k(9, 8)
    with pytest.raises(ValueError):
        avg_at_k(0, 0)


def test_best_at_k():
    assert best_at_k([False, True, False]) is True
    assert best_at_k([False, False]) is False
    assert best_at_k([]) is False


def test_parallel_rate_values():
    assert parallel_rate([True] * 5) == 100.0
    assert parallel_rate([False] * 3) == 0.0
    assert parallel_rate([True] * 13 + [False] * 7) == 65.0


def test_parallel_rate_empty_rejected():
    with pytest.raises(ValueError):
        parallel_rate([])


def test_parallel_predicate_needs_two_steps():
    assert doc_is_parallel(topology_stats(E1)) is True
    single = ["<guideline>", "<plan>", "p", "</plan>", "</guideline>",
              "<step>", "x", "</step>", "<takeaway>", "t", "</takeaway>"]
    assert doc_is_parallel(topology_stats(single)) is False
    assert doc_is_parallel(topology_stats(["plain", "text"])) is False


def test_parallel_predicate_counts_nested_blocks():
    single_outer = ["<guideline>", "<plan>", "p", "</plan>", "</guideline>",
                    "<step>", "x"] + E1 + ["</step>",
                    "<takeaway>", "t", "</takeaway>"]
    assert doc_is_parallel(topology_stats(single_outer)) is True
