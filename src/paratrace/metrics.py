"""Evaluation metrics: avg@k, best@k and the parallel trigger rate.

Speedup is ``topology_stats(...).compression_ratio``, not a metric here."""

from __future__ import annotations

from .topology import TopologyStats


def avg_at_k(correct: int, k: int) -> float:
    """Expected proportion of correct answers among k samples: c / k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= correct <= k:
        raise ValueError(f"correct count {correct} outside [0, {k}]")
    return correct / k


def best_at_k(outcomes) -> bool:
    """True iff at least one of the sampled outcomes is correct."""
    return any(bool(o) for o in outcomes)


def doc_is_parallel(stats: TopologyStats) -> bool:
    """A document, given by its ``topology_stats``, triggers parallelism iff
    some block runs >= 2 branches.

    Single-step blocks decode sequentially, so they do not count; this is
    what separates genuine parallel traces from autoregressive fallback.
    """
    return any(block.branch_count >= 2 for block in stats.blocks)


def parallel_rate(flags) -> float:
    """Percentage of documents flagged as parallel, in [0, 100]."""
    flags = [bool(f) for f in flags]
    if not flags:
        raise ValueError("parallel_rate requires at least one document")
    return 100.0 * sum(flags) / len(flags)
