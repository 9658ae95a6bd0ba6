"""Advantage normalization and surrogate losses."""

import math
import random

import numpy as np
import pytest

from paratrace import (RolloutBatch, RolloutRecord, dapo_advantage, dapo_surrogate,
                       dynamic_sampling_check, papo_advantage, papo_group_values,
                       papo_surrogate, papo_surrogate_frozen)
from paratrace.advantages import EPSILON


def record(rid, group, n_tokens=4, reward=None, pred="1", gold="1"):
    return RolloutRecord(record_id=rid, group_id=group,
                         tokens=tuple(f"t{i}" for i in range(n_tokens)),
                         logprobs=tuple(-0.5 for _ in range(n_tokens)),
                         pred=pred, gold=gold, reward=reward)


class TestDapoAdvantage:
    def test_symmetric_pair(self):
        result = dapo_advantage([1.0, -1.0])
        assert result.advantages[0] == pytest.approx(1.0, abs=1e-5)
        assert result.advantages[1] == pytest.approx(-1.0, abs=1e-5)
        assert result.divisor > EPSILON

    def test_degenerate_group(self):
        result = dapo_advantage([1.0, 1.0])
        assert result.advantages == (0.0, 0.0)
        assert result.divisor <= EPSILON

    def test_four_element_fixture(self):
        result = dapo_advantage([1.0, -1.0, -1.0, -1.0])
        assert result.advantages[0] == pytest.approx(1.732, abs=1e-3)
        for v in result.advantages[1:]:
            assert v == pytest.approx(-0.577, abs=1e-3)
        assert result.baselines[0] == pytest.approx(-0.5)
        assert result.divisor == pytest.approx(0.8660, abs=1e-4)

    def test_population_std_convention(self):
        rewards = [0.0, 1.0, 2.0]
        result = dapo_advantage(rewards)
        assert result.divisor == pytest.approx(float(np.std(rewards)))  # ddof=0

    def test_group_too_small(self):
        with pytest.raises(ValueError):
            dapo_advantage([1.0])


class TestDynamicSampling:
    def test_mixed_group_kept(self):
        assert dynamic_sampling_check([True, True, False, False]) is True

    def test_all_wrong_discarded(self):
        assert dynamic_sampling_check([False] * 4) is False

    def test_all_correct_discarded(self):
        assert dynamic_sampling_check([True] * 4) is False

    def test_accepts_rewards(self):
        assert dynamic_sampling_check([1.0, -1.0, -1.0]) is True
        assert dynamic_sampling_check([1.0, 1.0]) is False


class TestPapoAdvantage:
    def test_two_by_two_fixture(self):
        values = papo_group_values([[1.0, -1.0], [1.0, 1.0]])
        flat = values.advantages
        assert flat[0] == pytest.approx(1.1547, abs=1e-4)
        assert flat[1] == pytest.approx(-1.1547, abs=1e-4)
        assert flat[2] == pytest.approx(0.0, abs=1e-9)
        assert flat[3] == pytest.approx(0.0, abs=1e-9)
        assert values.baselines == (0.0, 0.0, 1.0, 1.0)
        assert values.divisor == pytest.approx(0.8660, abs=1e-4)

    def test_degenerate_batch(self):
        values = papo_group_values([[0.5, 0.5], [0.5, 0.5]])
        assert values.divisor <= EPSILON
        assert values.advantages == (0.0,) * 4

    def test_single_group_matches_dapo(self):
        rng = random.Random(4)
        for _ in range(50):
            rewards = [rng.choice([-1.0, 1.0]) for _ in range(rng.randint(2, 8))]
            assert dapo_advantage(rewards) == papo_group_values([rewards])

    def test_shift_and_scale_invariance(self):
        rng = random.Random(5)
        for _ in range(100):
            groups = [[rng.uniform(-2, 2) for _ in range(3)] for _ in range(4)]
            base = papo_group_values(groups)
            if base.divisor <= EPSILON:
                continue
            shift = rng.uniform(-10, 10)
            scale = rng.uniform(0.1, 50)
            shifted = papo_group_values([[r + shift for r in g] for g in groups])
            scaled = papo_group_values([[r * scale for r in g] for g in groups])
            for a, b, c in zip(base.advantages, shifted.advantages, scaled.advantages):
                assert b == pytest.approx(a, rel=1e-9, abs=1e-12)
                assert c == pytest.approx(a, rel=1e-9, abs=1e-12)

    def test_table_broadcasts_over_tokens(self):
        batch = RolloutBatch(((record("a", "g1", 3, reward=1.0),
                               record("b", "g1", 5, reward=-1.0)),))
        table = papo_advantage(batch)
        # The surrogates broadcast each record's advantage over its tokens.
        grads = papo_surrogate([r.logprobs for r in batch.groups[0]],
                               table.advantages).sensitivities
        assert grads == ((-table.advantages[0] / 8,) * 3,
                         (-table.advantages[1] / 8,) * 5)

    def test_requires_rewards(self):
        batch = RolloutBatch(((record("a", "g1"), record("b", "g1")),))
        with pytest.raises(ValueError):
            papo_advantage(batch)


class TestDapoSurrogate:
    def test_unit_ratio_gives_negative_mean_advantage(self):
        lp = [[-0.1, -0.2], [-0.3, -0.4]]
        loss = dapo_surrogate(lp, lp, [0.5, -1.5])
        assert loss == pytest.approx(-(0.5 + 0.5 - 1.5 - 1.5) / 4)

    def test_ratio_two_clips_high(self):
        old, new = [[0.0]], [[math.log(2.0)]]
        loss = dapo_surrogate(old, new, [1.0])
        assert loss == pytest.approx(-1.28)

    def test_ratio_half_negative_advantage_clips_low(self):
        old, new = [[0.0]], [[math.log(0.5)]]
        loss = dapo_surrogate(old, new, [-1.0])
        assert loss == pytest.approx(0.8)

    def test_stream_validation(self):
        with pytest.raises(ValueError):
            dapo_surrogate([[0.0]], [[0.0], [0.0]], [1.0])
        with pytest.raises(ValueError):
            dapo_surrogate([[0.0, 0.0]], [[0.0]], [1.0])


class TestPapoSurrogate:
    def test_single_record_fixture(self):
        loss, grads = papo_surrogate([[-0.2] * 4], [1.0])
        assert loss == pytest.approx(-1.0)
        assert grads == ((-0.25,) * 4,)

    def test_zero_advantage(self):
        loss, grads = papo_surrogate([[-0.2, -0.3]], [0.0])
        assert loss == 0.0
        assert all(g == 0.0 for row in grads for g in row)

    def test_value_equals_negative_mean_advantage_any_logprobs(self):
        rng = random.Random(6)
        for _ in range(20):
            streams = [[rng.uniform(-3, 0) for _ in range(rng.randint(1, 6))]
                       for _ in range(rng.randint(1, 4))]
            advs = [rng.uniform(-2, 2) for _ in streams]
            loss, _ = papo_surrogate(streams, advs)
            total = sum(len(s) for s in streams)
            expect = -sum(a * len(s) for a, s in zip(advs, streams)) / total
            assert loss == pytest.approx(expect, rel=1e-12)

    def test_value_is_the_per_token_sum_in_order(self):
        """The loss adds the per-token advantages left to right, bit for bit."""
        rng = random.Random(8)
        for _ in range(50):
            streams = [[-0.5] * rng.randint(0, 9) for _ in range(rng.randint(1, 5))]
            if not any(streams):
                streams.append([-0.5])
            advs = [rng.uniform(-3, 3) if rng.random() < 0.5
                    else [rng.uniform(-3, 3) for _ in s] for s in streams]
            loss, _ = papo_surrogate(streams, advs)
            per_token = (a for adv, s in zip(advs, streams)
                         for a in (adv if isinstance(adv, list) else [adv] * len(s)))
            assert loss == -sum(per_token) / sum(map(len, streams))

    def test_gradient_matches_finite_differences(self):
        rng = random.Random(7)
        streams = [[rng.uniform(-2, -0.1) for _ in range(3)] for _ in range(2)]
        advs = [1.25, -0.75]
        _, grads = papo_surrogate(streams, advs)
        h = 1e-5
        for i, stream in enumerate(streams):
            for t in range(len(stream)):
                up = [list(s) for s in streams]
                down = [list(s) for s in streams]
                up[i][t] += h
                down[i][t] -= h
                fd = (papo_surrogate_frozen(up, streams, advs)
                      - papo_surrogate_frozen(down, streams, advs)) / (2 * h)
                assert fd == pytest.approx(grads[i][t], rel=1e-5)
