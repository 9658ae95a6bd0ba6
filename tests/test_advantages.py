"""Advantage normalization and surrogate losses."""

import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paratrace import (RolloutBatch, RolloutRecord, dapo_advantage, dapo_surrogate,
                       dynamic_sampling_check, papo_advantage, papo_group_values,
                       papo_surrogate, papo_surrogate_frozen)
from paratrace.advantages import CLIP_HIGH, CLIP_LOW, EPSILON
from reference_rl import (ref_row_dapo_surrogate, ref_row_papo_surrogate,
                          ref_row_papo_surrogate_frozen)


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


class TestScalarAdvantages:
    @pytest.mark.parametrize("scalar", [np.float32(1.0), np.int64(1), np.float64(1.0),
                                        np.int8(1), True, 1],
                             ids=["float32", "int64", "float64", "int8", "bool", "int"])
    def test_any_real_scalar_broadcasts(self, scalar):
        lp, other = [[0.1, 0.2]], [[0.3, -0.1]]
        assert papo_surrogate(lp, [scalar]) == papo_surrogate(lp, [1.0])
        assert dapo_surrogate(other, lp, [scalar]) == dapo_surrogate(other, lp, [1.0])
        assert (papo_surrogate_frozen(lp, other, [scalar])
                == papo_surrogate_frozen(lp, other, [1.0]))

    def test_a_broadcast_row_shares_one_float(self):
        """Over 4 x 10,000 tokens the sensitivities are four tuples of one
        shared float each: no float object is built per token."""
        streams = [(-0.5,) * 10_000 for _ in range(4)]
        advantages = [0.25, -0.5, 1.0, 0.0]
        tracemalloc.start()
        try:
            loss, grads = papo_surrogate(streams, advantages)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40_000 * sys.getsizeof(0.0) / 2
        assert [len({id(g) for g in row}) for row in grads] == [1] * 4
        assert loss == -sum(a * 10_000 for a in advantages) / 40_000

    def test_an_ndarray_stream_is_not_iterated(self):
        class NoIter(np.ndarray):
            def __iter__(self):
                raise AssertionError("stream read element by element")

        old = np.full(1_000, -1.0).view(NoIter)
        new = np.full(1_000, -0.9).view(NoIter)
        assert math.isfinite(dapo_surrogate([old], [new], [1.0]))
        assert math.isfinite(papo_surrogate_frozen([new], [old], [1.0]))


# -- against the row form in ``reference_rl`` ---------------------------------

_CONTAINERS = {"tuple": tuple, "list": list,
               "f64": lambda v: np.array(v, dtype=np.float64),
               "f32": lambda v: np.array(v, dtype=np.float32)}
_floats = st.floats(-3, 3)
_scalars = st.one_of(_floats, st.integers(-3, 3), st.booleans(),
                     st.floats(-3, 3, width=32).map(np.float32), _floats.map(np.float64),
                     st.integers(-3, 3).map(np.int64))


@st.composite
def surrogate_cases(draw):
    """Streams of 0-6 tokens in each container, and per record a scalar of
    each kind or a per-token list, tuple or array."""
    lengths = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4).filter(any))

    def stream(n):
        values = draw(st.lists(st.floats(-4, 0), min_size=n, max_size=n))
        return _CONTAINERS[draw(st.sampled_from(sorted(_CONTAINERS)))](values)

    def advantage(n):
        per_token = st.lists(_floats, min_size=n, max_size=n).map(
            _CONTAINERS[draw(st.sampled_from(["tuple", "list", "f64"]))])
        return draw(st.one_of(_scalars, per_token))

    return ([stream(n) for n in lengths], [stream(n) for n in lengths],
            [advantage(n) for n in lengths])


def _bits(x: float):
    return type(x), x, math.copysign(1.0, x)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(surrogate_cases())
def test_surrogates_match_the_row_form_bit_for_bit(case):
    """Losses and sensitivities equal the row form's with ``==``, sign of zero
    included; the row form, which refuses numpy scalars, gets their float."""
    old, new, advantages = case
    as_rows = [float(a) if isinstance(a, np.generic) else a for a in advantages]
    assert (_bits(dapo_surrogate(old, new, advantages))
            == _bits(ref_row_dapo_surrogate(old, new, as_rows, CLIP_LOW, CLIP_HIGH)))
    assert (_bits(papo_surrogate_frozen(new, old, advantages))
            == _bits(ref_row_papo_surrogate_frozen(new, old, as_rows)))
    loss, grads = papo_surrogate(new, advantages)
    want_loss, want_grads = ref_row_papo_surrogate(new, as_rows)
    assert _bits(loss) == _bits(want_loss)
    assert ([[_bits(g) for g in row] for row in grads]
            == [[_bits(g) for g in row] for row in want_grads])
    assert type(grads) is tuple and all(type(row) is tuple for row in grads)
