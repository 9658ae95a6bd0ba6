"""Reward rules and the rejection-sampling filter.

Format-valid outputs score 0.0 on the format channel and then earn +1/-1 on
answer accuracy; format-broken outputs earn a penalty in (0, -2] that scales
with how many of the six structural categories failed, and accuracy is not
granted. The acceptance filter keeps a trajectory only when it is both
answer-correct and format-valid.
"""

from __future__ import annotations

from .validation import CATEGORIES_TOTAL, ValidationReport, validate_structure

PENALTY_SCALE = 2.0
ACCURACY_CORRECT = 1.0
ACCURACY_INCORRECT = -1.0


def exact_boxed_match(pred: str | None, gold: str) -> bool:
    """The answer rule: exact string equality on the boxed payload."""
    return pred == gold


def format_reward(report: ValidationReport) -> float:
    """0.0 when the report is clean, else a penalty in (0, -PENALTY_SCALE]."""
    if report.ok:
        return 0.0
    return -PENALTY_SCALE * report.categories_failed / CATEGORIES_TOTAL


def stage1_reward(report: ValidationReport, pred: str | None, gold: str) -> float:
    """Format penalty when the check fails; otherwise accuracy on top of 0.0."""
    if not report.ok:
        return format_reward(report)
    return stage3_reward(pred, gold)


def stage3_reward(pred: str | None, gold: str) -> float:
    """Accuracy-only reward for already schema-filtered trajectories."""
    return ACCURACY_CORRECT if exact_boxed_match(pred, gold) else ACCURACY_INCORRECT


def accept_filter(tokens, pred: str | None, gold: str) -> bool:
    """Keep a trajectory iff it is answer-correct and format-valid."""
    return exact_boxed_match(pred, gold) and validate_structure(tokens).ok
