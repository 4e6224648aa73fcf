"""The generator's raw-word draws against a live numpy ``Generator``.

``workload._Draws`` rebuilds numpy's bounded integers, doubles and
``choice(..., replace=False)`` from the PCG64 bit stream. Each test makes
the same calls on both sides from one seed and compares every value, and a
final ``random()`` on each side shows the streams are still in step.
"""

import numpy as np
import pytest

from coflowsched.workload import _Draws

SPANS = [0, 9, 99, 2**31, 2**32 - 2, 2**32 - 1, 2**32, 2**40]


def pair(seed, chunk=7):
    # A small chunk makes every test cross several refills of the word buffer.
    return _Draws(seed, chunk), np.random.default_rng(seed)


def assert_in_step(draws, rng):
    assert draws.random() == rng.random()


@pytest.mark.parametrize("span", SPANS)
def test_scalar_integers_match(span):
    for seed in range(20):
        draws, rng = pair(seed)
        for _ in range(25):
            assert draws.bounded(span) == int(rng.integers(0, span + 1))
        assert_in_step(draws, rng)


@pytest.mark.parametrize("span", SPANS)
def test_block_integers_match(span):
    for seed in range(10):
        draws, rng = pair(seed)
        for size in (1, 2, 5, 40):
            got = [7 + draws.bounded(span) for _ in range(size)]
            assert got == rng.integers(7, 7 + span + 1, size=size).tolist()
        assert_in_step(draws, rng)


class CountingDraws(_Draws):
    words = 0

    def _word(self):
        self.words += 1
        return super()._word()


def test_rejection_heavy_span_rejects_and_still_matches():
    # At 2**31 + 1 values about half of all 32-bit draws are rejected, so 500
    # draws take about 1,000 halves: far more than the 250 words of no rejection.
    span = 2**31
    draws, rng = CountingDraws(3, 7), np.random.default_rng(3)
    got = [draws.bounded(span) for _ in range(500)]
    assert got == rng.integers(0, span + 1, size=500).tolist()
    assert draws.words > 400
    assert_in_step(draws, rng)


@pytest.mark.parametrize("odd", [1, 3, 5])
def test_random_after_odd_number_of_uint32_draws(odd):
    # A double takes a whole word and leaves the pending high half pending.
    for seed in range(10):
        draws, rng = pair(seed)
        for _ in range(odd):
            assert draws.bounded(99) == int(rng.integers(0, 100))
        assert draws.random() == rng.random()
        assert draws.bounded(99) == int(rng.integers(0, 100))
        assert draws.random() == rng.random()
        assert_in_step(draws, rng)


@pytest.mark.parametrize("pop", [1, 4, 10, 150, 10_000])
def test_sample_matches_choice_without_replacement(pop):
    for size in sorted({1, max(1, pop // 3), pop}):
        for seed in range(5):
            draws, rng = pair(seed, chunk=64)
            got = draws.sample(pop, size)
            assert got == rng.choice(pop, size=size, replace=False).tolist()
            assert_in_step(draws, rng)


def test_mixed_call_sequence_matches():
    # The order gen_mix uses: a double, widths, two samples, a size block.
    draws, rng = pair(11)
    for _ in range(50):
        assert draws.random() == rng.random()
        w1 = 1 + draws.bounded(9)
        assert w1 == int(rng.integers(1, 11))
        assert draws.sample(10, w1) == rng.choice(10, size=w1, replace=False).tolist()
        got = [10 + draws.bounded(990) for _ in range(w1 * 3)]
        assert got == rng.integers(10, 1001, size=w1 * 3).tolist()
        assert draws.bounded(2**40) == int(rng.integers(0, 2**40 + 1))
    assert_in_step(draws, rng)
