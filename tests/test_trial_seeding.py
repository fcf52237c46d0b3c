"""The simulator's trial generators against numpy's own seeding: the one
vectorised SeedSequence pass must give, row for row, the state of
SeedSequence([seed, t]), and each trial's generator must be
default_rng([seed, t]) exactly, in its state and in the draws the
simulator makes."""

import numpy as np
import pytest

from latcf import seeding
from latcf.algebra import PrimeField
from latcf.cfsim import SimConfig, make_pair, run_trials
from latcf.codes import LinearCode
from latcf.lattices import construction_a

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 - 1, 2**96, 2**128 + 3,
         np.int64(2**62 + 11)]


def _config():
    fine = construction_a(LinearCode(PrimeField(3), [[1, 1]]))
    return SimConfig(pair=make_pair(fine, 8.0), K=2, M=1, P=8.0)


def _oracle_states(seed, trials):
    return np.array([np.random.SeedSequence([seed, t]).generate_state(4, np.uint64)
                     for t in trials])


@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_pass_matches_seed_sequence(seed):
    words = seeding.seed_words(seed)
    for trials in (range(301), range(4093, 4099), range(2**32 - 3, 2**32)):
        got = seeding.seed_states(words, trials)
        assert got.dtype == np.uint64 and got.flags.c_contiguous
        assert np.array_equal(got, _oracle_states(seed, trials)), trials


def _same_generator(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    bounds = np.array([2, 3, 4, 7, 9, 1000])
    assert np.array_equal(got.integers(0, bounds), want.integers(0, bounds))
    assert np.array_equal(got.random(5), want.random(5))
    assert np.array_equal(got.standard_normal(5), want.standard_normal(5))


@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_generators_are_default_rng(seed):
    words = seeding.seed_words(seed)
    for t, rng in enumerate(map(seeding._generator, seeding.seed_states(words, range(301)))):
        _same_generator(rng, np.random.default_rng([seed, t]))
    assert t == 300


@pytest.mark.parametrize("seed", [5, 2**96 + 7])
def test_generators_of_a_mid_run_range(seed):
    # a simulator chunk seeds its own trial range, which need not start at 0
    words = seeding.seed_words(seed)
    for trials in (range(7, 23), range(2**32 - 3, 2**32)):
        rngs = list(map(seeding._generator, seeding.seed_states(words, trials)))
        assert len(rngs) == len(trials)
        for t, rng in zip(trials, rngs):
            _same_generator(rng, np.random.default_rng([seed, t]))


def test_trial_index_past_one_word_is_refused():
    # a trial index of 2**32 would take a second entropy word; refused up
    # front, before any trial runs
    config = _config()
    with pytest.raises(ValueError, match=r"trial index 4294967296 is 2\*\*32 or more"):
        run_trials(config, 2**32 + 1, seed=1)


@pytest.mark.parametrize("seed", [-1, -2**70, 1.5, "7", None])
def test_a_bad_seed_is_refused_at_once(seed):
    config = _config()
    with pytest.raises(ValueError, match=r"seed must be a non-negative integer, got "):
        run_trials(config, 3, seed)
