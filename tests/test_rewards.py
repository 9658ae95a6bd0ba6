"""Reward rules and the acceptance filter."""

import random

import pytest

from paratrace import (accept_filter, format_reward, stage1_reward, stage3_reward,
                       validate_structure)
from conftest import E1, E1_FULL


def report_failing(n_categories: int):
    """A synthetic report with exactly n categories failed."""
    from paratrace.validation import ValidationReport, Violation
    violations = tuple(Violation(c, 0, "injected") for c in range(1, n_categories + 1))
    return ValidationReport(violations)


class TestFormatReward:
    def test_clean_is_zero(self):
        assert format_reward(report_failing(0)) == 0.0

    def test_one_of_six(self):
        assert format_reward(report_failing(1)) == pytest.approx(-1 / 3)

    def test_all_six_is_band_edge(self):
        assert format_reward(report_failing(6)) == -2.0

    def test_band(self):
        for n in range(1, 7):
            r = format_reward(report_failing(n))
            assert -2.0 <= r < 0.0


class TestStage1:
    def test_pass_and_correct(self):
        assert stage1_reward(report_failing(0), "42", "42") == 1.0

    def test_pass_and_incorrect(self):
        assert stage1_reward(report_failing(0), "41", "42") == -1.0

    def test_fail_masks_accuracy(self):
        assert stage1_reward(report_failing(2), "42", "42") == pytest.approx(-2 / 3)

    def test_missing_pred_is_incorrect(self):
        assert stage1_reward(report_failing(0), None, "42") == -1.0

    def test_image_is_total(self):
        rewards = {stage1_reward(report_failing(n), p, "42")
                   for n in range(0, 7) for p in ("42", "0", None)}
        for r in rewards:
            assert r in (1.0, -1.0) or -2.0 <= r < 0.0


class TestStage3:
    def test_plus_minus_one(self):
        assert stage3_reward("x", "x") == 1.0
        assert stage3_reward("x", "y") == -1.0

    def test_comparator_reflexive_on_boxed_payload(self):
        assert stage3_reward("106^\\circ", "106^\\circ") == 1.0


class TestAcceptFilter:
    def test_truth_table(self):
        valid, gold = E1_FULL, "42"
        invalid = E1_FULL[:-1]  # drops the boxed token
        assert accept_filter(valid, "42", gold) is True
        assert accept_filter(valid, "41", gold) is False
        assert accept_filter(valid, "42.0", gold) is False  # exact, not numeric
        assert accept_filter(invalid, "42", gold) is False
        assert accept_filter(invalid, "41", gold) is False

    def test_correct_but_malformed_rejected(self):
        tokens = [t for t in E1_FULL if t != "</takeaway>"]
        assert accept_filter(tokens, "42", "42") is False

    def test_accept_implies_full_stage1_reward(self):
        rng = random.Random(8)
        from paratrace import random_valid_document
        for _ in range(50):
            tokens = random_valid_document(rng, answer="7")
            if accept_filter(tokens, "7", "7"):
                report = validate_structure(tokens)
                assert stage1_reward(report, "7", "7") == 1.0


def test_format_reward_matches_validator_on_e1():
    assert format_reward(validate_structure(E1_FULL)) == 0.0
    assert format_reward(validate_structure(E1)) == pytest.approx(-1 / 3)
