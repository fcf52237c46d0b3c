"""Phase 1's draws against numpy's own calls.

`seeding.trial_draws` takes each trial's messages and dithers from one
random_raw call and decodes them as numpy's Generator does: Lemire's
method for integers(0, bounds) and (word >> 11) * 2**-53 for random().
NEP 19 fixes SeedSequence and PCG64, but not Generator.integers or
random, so the canary below is what catches a numpy release that draws
them differently (the engine oracle would fail too).  A Lemire rejection
shifts a trial's later words; the trial is then redrawn through numpy's
calls.  A rejection is rare: (2**32 mod b) / 2**32 per symbol, which is
2.3e-10 at b = 3 but 1.5e-5 at the primes 64489 and 65027, so the
rejecting trials below were found by a search over seed_states rows
and are pinned.
"""

import numpy as np
import pytest
from numpy.random import PCG64, Generator
from test_trial_engine_oracle import _config, _one_trial

from latcf import cfsim, seeding
from latcf.algebra import PrimeField
from latcf.codes import LinearCode
from latcf.lattices import construction_a

PRIMES = (64489, 65027)  # 2**32 mod p is 64385 and 64000


class _Counting(Generator):
    """A generator that records the trials whose integers() it serves."""

    def __init__(self, state, calls):
        super().__init__(PCG64(seeding._SeedState(state)))
        self.seed_row, self.calls = state, calls

    def integers(self, *args, **kwargs):
        self.calls.append(tuple(self.seed_row))
        return super().integers(*args, **kwargs)


def _count_integers(monkeypatch):
    calls = []
    monkeypatch.setattr(seeding, "_generator", lambda state: _Counting(state, calls))
    return calls


def _rejects(words, bounds) -> bool:
    """Whether numpy's Lemire loop rejects a draw among the 32-bit halves
    of words (low half first), symbol by symbol."""
    halves = [int(w) >> s & 0xFFFFFFFF for w in words for s in (0, 32)]
    return any(u * b & 0xFFFFFFFF < (1 << 32) % b for u, b in zip(halves, map(int, bounds)))


@pytest.mark.parametrize("seed", [0, 2**64 + 5])
@pytest.mark.parametrize("odd", [True, False])
def test_decode_canary(monkeypatch, seed, odd):
    # every bound 2..300 and the pinned primes: 301 symbols, an odd count,
    # leaves half a word in numpy's buffer, which its next calls skip
    bounds = np.array([*range(2, 301), *PRIMES])[:301 if odd else 300]
    calls = _count_integers(monkeypatch)
    trials = range(2000)
    H, W, D, Z = seeding.trial_draws(seeding.seed_words(seed), trials, (3,), bounds, (2, 5), (4,))
    rejecting = []
    for t in trials:
        rng = np.random.default_rng([seed, t])
        assert np.array_equal(H[t], rng.standard_normal(3))
        assert np.array_equal(W[t], rng.integers(0, bounds)), t
        assert np.array_equal(D[t], rng.random((2, 5))), t
        assert np.array_equal(Z[t], rng.standard_normal(4)), t
        words = np.random.default_rng([seed, t])
        words.standard_normal(3)
        if _rejects(words.bit_generator.random_raw(len(bounds) // 2 + odd), bounds):
            rejecting.append(t)
    # integers runs for the trials that reject and no others
    states = seeding.seed_states(seeding.seed_words(seed), trials)
    assert calls == [tuple(states[t]) for t in rejecting]


def test_draws_without_normals_or_messages():
    words = seeding.seed_words(3)
    H, W, D, Z = seeding.trial_draws(words, range(5, 9), None, np.zeros(0, dtype=np.int64), (3,), None)
    assert H is None and Z is None and W.shape == (4, 0)
    for t, row in zip(range(5, 9), D):
        assert np.array_equal(row, np.random.default_rng([3, t]).random(3))


# (prime, mode, M, seed, trial): the trial's message draws reject once
PINNED = [
    (64489, "random", 2, 1, 13946),  # at its first symbol
    (64489, "random", 2, 2**32 + 1, 3635),  # at its last symbol
    (65027, "random", 2, 1, 9882),
    (65027, "unit", 2, 0, 10052),
    (64489, "fixed", 1, 7, 690),
    (65027, "fixed", 1, 0, 1498),
    (64489, "noiseless", 1, 1, 3366),
]


def _records_of_the_oracle(config, seed, trials):
    searched = None
    if config.fixed_H is not None and not config.noiseless:
        searched = [cfsim.best_coefficients(h, config.P, max_norm_cap=config.max_norm_cap)
                    for h in np.asarray(config.fixed_H, dtype=complex)]
    return [rec for t in trials for rec in _one_trial(config, seed, t, searched)]


@pytest.mark.parametrize("p, mode, M, seed, trial", PINNED)
def test_a_rejecting_trial_matches_the_oracle(monkeypatch, p, mode, M, seed, trial):
    fine = construction_a(LinearCode(PrimeField(p), [[1, 1]]))
    config = _config(fine, 2, M, mode)
    bounds = np.full(4, p)  # 2 sources x 2 real parts x n = 1
    rng = np.random.default_rng([seed, trial])
    if mode in ("random", "unit"):
        rng.standard_normal((2, M, 2))
    assert _rejects(rng.bit_generator.random_raw(2), bounds)

    run = cfsim._per_run(config)
    calls = _count_integers(monkeypatch)
    trials = range(trial - 1, trial + 2)  # the rejecting trial between two that do not
    got = cfsim._run_chunk(config, seeding.seed_words(seed), trials, run)
    assert got == _records_of_the_oracle(config, seed, trials)
    assert calls == [tuple(seeding.seed_states(seeding.seed_words(seed), range(trial, trial + 1))[0])]
