"""Each simulator trial's draws, exactly those of numpy's
default_rng([seed, t]), without building a SeedSequence per trial or
calling numpy's bounded integers and uniform doubles per trial.

default_rng([seed, t]) is PCG64 seeded from SeedSequence([seed, t]).
generate_state(4, np.uint64).  SeedSequence's algorithm is fixed by
NumPy's stream-compatibility policy (NEP 19), so `seed_states` computes
that state for a simulator chunk's trials at once: what the seed's words
alone decide in Python ints, then the trial's word in uint32 numpy
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


def _hash_consts(init: int, mult: int, count: int) -> list[int]:
    """The count + 1 values hash_const takes over count hashes from init:
    hash k xors with value k and multiplies by value k + 1."""
    c = [init]
    for _ in range(count):
        c.append(c[-1] * mult & _MASK32)
    return c


def _pairwise(c) -> np.ndarray:
    """The mixing pass's hash constants, one per (src, dst) pair with
    src != dst in SeedSequence's order, at [src, dst] of a (pool, pool, 1)
    table; [src, src] is unused and 0."""
    table = np.zeros((_POOL, _POOL, 1), dtype=np.uint32)
    table[~np.eye(_POOL, dtype=bool)] = np.array(c, dtype=np.uint32)[:, None]
    return table


# hash_const over filling the pool and mixing it, and over the output state
_A = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL)
_MIXING = _pairwise(_A[_POOL:-1]), _pairwise(_A[_POOL + 1:])
_B = np.array(_hash_consts(_INIT_B, _MULT_B, 2 * _POOL), dtype=np.uint32)
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


def _hashmix_int(value: int, before: int, after: int) -> int:
    value = (value ^ before) * after & _MASK32
    return value ^ value >> 16


def _mix_int(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def seed_states(words: list[int], trials: range) -> np.ndarray:
    """Row i is SeedSequence([seed, trials[i]]).generate_state(4, np.uint64),
    for seed's words and trial indices below 2**32.

    SeedSequence's steps run in order.  Until the trial's word (entropy
    word n = len(words)) first acts, they depend on the seed alone and run
    in Python ints; from there each runs over every trial at once in uint32
    numpy arithmetic."""
    n = len(words)
    t = np.arange(trials.start, trials.stop, dtype=np.uint32)
    A = _A + _hash_consts(_A[-1], _MULT_A, _POOL * (n + 1 - _POOL))[1:]
    # fill the pool with the entropy, padded with zeros to the pool's size;
    # if the trial's word is in the pool, word n here is a stand-in, never read
    pool = [_hashmix_int(w, A[i], A[i + 1]) for i, w in enumerate([*words, 0, 0, 0, 0][:_POOL])]
    into_t = []  # hashes mixed into pool word n before the trial's word acts
    k = _POOL
    for src in range(min(n, _POOL)):  # word src into every other word, one hash each
        for dst in range(_POOL):
            if dst != src:
                h = _hashmix_int(pool[src], A[k], A[k + 1])
                k += 1
                if dst == n:
                    into_t.append(h)
                else:
                    pool[dst] = _mix_int(pool[dst], h)
    if n < _POOL:
        word = _hashmix(t, A[n], A[n + 1])
        for h in into_t:
            word = _mix(word, h)
        pool = np.array(pool, dtype=np.uint32)[:, None]
        before, after = _MIXING
        for src in range(n, _POOL):  # as above, over every trial at once
            if src > n:
                word = pool[src]
            pool = _mix(pool, _hashmix(word, before[src], after[src]))
            pool[src] = word  # which the pass leaves as it was
    else:  # entropy beyond the pool, into every word: the seed's, then the trial's
        for w in words[_POOL:]:
            for dst in range(_POOL):
                pool[dst] = _mix_int(pool[dst], _hashmix_int(w, A[k], A[k + 1]))
                k += 1
        c = np.array(A[k:], dtype=np.uint32)[:, None]
        pool = _mix(np.array(pool, dtype=np.uint32)[:, None], _hashmix(t, c[:-1], c[1:]))
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


def trial_generators(words: list[int], trials: range):
    """Trial t's generator, equal to default_rng([seed, t]), for each t in
    trials: one seed_states pass over the whole range, made by this call,
    then each generator built as it is asked for (one holds about 860
    bytes)."""
    return map(_generator, seed_states(words, trials))


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
