"""Each simulator trial's draws, exactly those of numpy's
default_rng([seed, t]), without building a SeedSequence per trial or
calling numpy's bounded integers and uniform doubles per trial.

default_rng([seed, t]) is PCG64 seeded from SeedSequence([seed, t]).
generate_state(4, np.uint64).  SeedSequence's algorithm is fixed by
NumPy's stream-compatibility policy (NEP 19), so `seed_states` computes
that state for a simulator chunk's trials at once, in uint32 numpy
arithmetic.  Each row goes to PCG64's own seeding.

`trial_draws` makes a chunk's draws in the simulator's order: standard
normals, integers(0, bounds), random() doubles, standard normals.  The
normals stay numpy's calls.  The integers and the doubles come from one
random_raw call per trial, decoded over the whole chunk as numpy's
Generator decodes its 64-bit words: integers(0, bounds) with int64
bounds from 2 to 2**32 takes Lemire's method on 32-bit draws, two per
word, low half first, and random() is (word >> 11) * 2**-53.  Lemire's
method rejects a draw once in a while and numpy then takes the next one,
which shifts every later word of the trial; a trial with a rejected draw
is redrawn from its seed row through numpy's own calls.

NEP 19 fixes SeedSequence and PCG64, but not Generator.integers or
random.  A numpy release that draws them differently fails the decode
canary in tests/test_trial_draws.py and the engine oracle.
"""

from __future__ import annotations

import math
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
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
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
# 0-d arrays: a ufunc takes them faster than a numpy scalar or a Python int
_SHIFT, _L, _R = (np.array(x, dtype=np.uint32) for x in (16, _MIX_L, _MIX_R))
# the same for decoding 64-bit words: their halves, 2**32, and random()'s
# (word >> 11) * 2**-53
_LOW, _HIGH, _WRAP, _DOUBLE_SHIFT = (np.array(x, dtype=np.uint64) for x in (_MASK32, 32, 1 << 32, 11))
_DOUBLE_SCALE = np.array(2.0**-53)


def _hashmix(value, before, after):
    value = (value ^ before) * after
    return value ^ (value >> _SHIFT)


def _mix(x, y):
    r = _L * x - _R * y
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


def _generator(state) -> Generator:
    return Generator(PCG64(_SeedState(state)))


def trial_draws(words: list[int], trials: range, before, bounds: np.ndarray, doubles, after):
    """What default_rng([seed, t]) gives, for each t in trials, from
    standard_normal(before), integers(0, bounds), random(doubles) and
    standard_normal(after), in that order: four arrays of one row per
    trial, each row of the shape asked for, or None for a shape of None.

    bounds is a 1-D int64 array with entries from 2 to 2**32.  Each trial
    makes one random_raw call for its integers and doubles, decoded here
    over every trial at once; a trial whose decode meets a Lemire
    rejection is redrawn through integers and random."""
    states = seed_states(words, trials)
    T, n = len(states), len(bounds)
    k = (n + 1) // 2  # 64-bit words for the integers, two draws per word
    size = k + math.prod(doubles)
    head, tail = (None if s is None else np.empty((T, *s)) for s in (before, after))
    raw = np.empty((T, size), dtype=np.uint64)
    for i, state in enumerate(states):
        rng = _generator(state)
        if head is not None:
            rng.standard_normal(out=head[i])
        raw[i] = rng.bit_generator.random_raw(size)
        if tail is not None:
            rng.standard_normal(out=tail[i])

    # Lemire's method on the 32-bit draws, low half of each word first: the
    # draw times the bound, whose high half is the integer; the draw rejects
    # when the low half falls below 2**32 mod bound
    halves = np.empty((T, 2 * k), dtype=np.uint64)
    np.bitwise_and(raw[:, :k], _LOW, out=halves[:, 0::2])
    np.right_shift(raw[:, :k], _HIGH, out=halves[:, 1::2])
    bound = bounds.astype(np.uint64)
    scaled = halves[:, :n] * bound
    W = (scaled >> _HIGH).view(np.int64)
    D = ((raw[:, k:] >> _DOUBLE_SHIFT) * _DOUBLE_SCALE).reshape(T, *doubles)
    rejecting = np.nonzero((scaled & _LOW) < _WRAP % bound)[0]  # a row per rejection

    for i in sorted(set(rejecting.tolist())):  # numpy's calls, in the same order
        rng = _generator(states[i])
        if head is not None:
            rng.standard_normal(out=head[i])
        W[i] = rng.integers(0, bounds)
        rng.random(out=D[i])
        if tail is not None:
            rng.standard_normal(out=tail[i])
    return head, W, D, tail
