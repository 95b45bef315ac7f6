"""The stacked user sampler stage by stage, against numpy's public SeedSequence."""

import numpy as np
import pytest

from pass_trihybrid import sampler
from pass_trihybrid.sampler import _CHUNK, uniform_pairs

# one and two 32-bit seed words
SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]
# draw indices on both sides of the first chunk boundary
INDICES = [0, _CHUNK - 1, _CHUNK, _CHUNK + 1]


@pytest.mark.parametrize("seed", SEEDS)
class TestStages:
    def test_pool_rows_equal_seed_sequence(self, seed):
        pool = sampler._pool(seed, 0, _CHUNK + 2)
        assert pool.shape == (4, _CHUNK + 2) and pool.dtype == np.uint32
        for i in INDICES:
            expected = np.random.SeedSequence((seed, i)).pool
            assert np.array_equal(pool[:, i], expected)
            # a pass that starts at draw i numbers its draws from i
            assert np.array_equal(sampler._pool(seed, i, i + 1)[:, 0], expected)

    def test_state_words_equal_generate_state(self, seed):
        state = sampler._state64(sampler._pool(seed, 0, _CHUNK + 2))
        assert state.shape == (4, _CHUNK + 2) and state.dtype == np.uint64
        for i in INDICES:
            expected = np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
            assert np.array_equal(state[:, i], expected)

    def test_counts_around_the_chunk_equal_default_rng(self, seed):
        counts = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]
        reference = np.array(
            [np.random.default_rng((seed, i)).random(2) for i in range(max(counts))]
        )
        for count in counts:
            assert np.array_equal(uniform_pairs(seed, count), reference[:count])


@pytest.mark.parametrize("count", [0, 1, 3, _CHUNK + 1])
def test_output_is_c_contiguous_float64_rows(count):
    # a transposed (2, count) result would make every units[:, 0] read strided
    units = uniform_pairs(424242, count)
    assert units.shape == (count, 2)
    assert units.dtype == np.float64
    assert units.flags.c_contiguous
