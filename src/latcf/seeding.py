"""Each simulator trial's generator, exactly numpy's default_rng([seed, t]),
without building a SeedSequence per trial.

default_rng([seed, t]) is PCG64 seeded from SeedSequence([seed, t]).
generate_state(4, np.uint64).  SeedSequence's algorithm is fixed by
NumPy's stream-compatibility policy (NEP 19), so `seed_states` computes
that state for a simulator chunk's trials at once, in uint32 numpy
arithmetic, and `trial_generators` hands each row to PCG64's seeding.
"""

from __future__ import annotations

from operator import index

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's constants (numpy/random/bit_generator.pyx): a pool of 4
# uint32 words, the hashmix constants A, the mix constants and the output
# hash constants B
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def seed_words(seed) -> list[int]:
    """seed as SeedSequence splits an integer: its 32-bit words, least
    significant first, and [0] for 0."""
    try:
        n = index(seed)
    except TypeError:
        n = -1
    if n < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The count + 1 values hash_const takes over count hashes from init:
    hash k xors with value k and multiplies by value k + 1."""
    c = [init]
    for _ in range(count):
        c.append(c[-1] * mult & _MASK32)
    return np.array(c, dtype=np.uint32)


def _pairwise(c) -> np.ndarray:
    """The mixing pass's hash constants, one per (src, dst) pair with
    src != dst in SeedSequence's order, at [src, dst] of a (pool, pool, 1)
    table; [src, src] is unused and 0."""
    table = np.zeros((_POOL, _POOL, 1), dtype=np.uint32)
    table[~np.eye(_POOL, dtype=bool)] = c[:, None]
    return table


# hash_const over filling the pool, mixing it, and the output state
_A = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL)
_FILL = _A[:_POOL, None], _A[1:_POOL + 1, None]
_MIXING = _pairwise(_A[_POOL:-1]), _pairwise(_A[_POOL + 1:])
_B = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
_OUT = _B[:-1].reshape(2, _POOL, 1), _B[1:].reshape(2, _POOL, 1)


def _hashmix(value, before, after):
    value = (value ^ before) * after
    return value ^ (value >> _SHIFT)


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT)


def seed_states(words: list[int], trials: range) -> np.ndarray:
    """Row i is SeedSequence([seed, trials[i]]).generate_state(4, np.uint64),
    for seed's words and trial indices below 2**32: SeedSequence's steps in
    uint32 numpy arithmetic, each over every trial at once."""
    # entropy shorter than the pool hashes 0 in its place, as the zeros here do
    entropy = np.zeros((max(len(words) + 1, _POOL), len(trials)), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(trials.start, trials.stop, dtype=np.uint32)
    pool = _hashmix(entropy[:_POOL], *_FILL)
    before, after = _MIXING
    for src in range(_POOL):  # word src into every other word, one hash each
        word = pool[src]
        pool = _mix(pool, _hashmix(word, before[src], after[src]))
        pool[src] = word  # which the pass leaves as it was
    last = int(_A[-1])
    for word in entropy[_POOL:]:  # entropy beyond the pool, into every word
        c = _hash_consts(last, _MULT_A, _POOL)
        pool = _mix(pool, _hashmix(word, c[:-1, None], c[1:, None]))
        last = int(c[-1])
    # the state hashes words 0, 1, 2, 3, 0, 1, 2, 3: 8 uint32 per trial,
    # read as 4 little-endian uint64
    state = _hashmix(pool, *_OUT).reshape(2 * _POOL, -1)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class _SeedState(ISeedSequence):
    """One trial's SeedSequence state, for PCG64 to seed itself from as it
    does from a SeedSequence: PCG64 asks for generate_state(4, np.uint64)."""

    __slots__ = ("state",)

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def trial_generators(words: list[int], trials: range):
    """Trial t's generator, equal to default_rng([seed, t]), for each t in
    trials: one seed_states pass over the whole range, made by this call,
    then each generator built as it is asked for (one holds about 860
    bytes)."""
    states = seed_states(words, trials)
    return (Generator(PCG64(_SeedState(state))) for state in states)
