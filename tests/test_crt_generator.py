"""Differential test of the one-product encode and CRT.

`cfsim._crt_points` takes every level's messages, laid end to end, through
one integer product with the lattice's G_q = stack_l(E_l G_l mod q)
(`lattices._generator_mod_q`) mod q.  It replaced one `codes.encode` per
level followed by `CrtMap.forward_vec`, which is kept here as the oracle,
as is the per-level split the engine made of a chunk's message draws and
the `multistage_roundtrip` loop built on them.  The points must be equal
bit for bit, dtype included, on A, D (a chain-ring lift), pi_A rep(2) x
rep(3), pi_D with a Z_4 level, with messages at the alphabet edges and at
the chunk sizes around the real budget."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from latcf import cfsim, cli
from latcf.algebra import ChainRing, PrimeField
from latcf.cfsim import SimConfig, make_pair, multistage_roundtrip
from latcf.codes import LinearCode, NestedCodeChain, encode
from latcf.lattices import (
    _generator_mod_q,
    construction_a,
    construction_d,
    construction_pi_a,
    construction_pi_d,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"

F3 = LinearCode(PrimeField(3), [[1, 1, 1, 0], [0, 1, 2, 1]])
F5 = LinearCode(PrimeField(5), [[1, 2, 3, 4], [0, 1, 1, 2]])
REP2 = LinearCode(PrimeField(2), [[1, 1, 0, 1]])
Z4_FREE = LinearCode(ChainRing(2, 2), [[1, 1, 1, 1], [0, 2, 1, 3]])
Z9_NON_FREE = LinearCode(ChainRing(3, 2), [[3, 0, 6, 3], [0, 3, 3, 6]])
CHAIN = NestedCodeChain(2, [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]], [1, 3])


def _workload(name):
    doc = json.loads((WORKLOADS / f"{name}.json").read_text(encoding="utf-8"))
    return cli.build_construction(doc["construction"])


LATTICES = {
    "A": lambda: construction_a(F3),
    "D": lambda: construction_d(CHAIN, 2),
    "piA rep2 x rep3": lambda: _workload("sim-small"),
    "piA F2 x F3 x F5": lambda: construction_pi_a([REP2, F3, F5]),
    "piD Z4 x F3": lambda: _workload("sim-cosets"),
    "piD Z4 free x Z9 non-free": lambda: construction_pi_d(36, [Z4_FREE, Z9_NON_FREE]),
}


# ---------------------------------------------------------------------------
# the oracle: per-level encode, then forward_vec
# ---------------------------------------------------------------------------


def reference_crt_points(fine, words):
    """The integer CRT points in [0, q) of each level's messages words[l]
    (... x n_l): every level encoded, then combined coordinatewise."""
    return fine.map.forward_vec([encode(code, w) for code, w in zip(fine.codes, words)])


def reference_engine_points(fine, W, K):
    """A chunk's points T x K x (re, im) x N from its message draws W (T x
    K*sum_l 2 n_l, per source, level and real part), split per level."""
    T = len(W)
    cuts = np.cumsum([2 * code.n for code in fine.codes])[:-1]
    return reference_crt_points(fine, [w.reshape(T, K, 2, code.n) for code, w in zip(
        fine.codes, np.split(W.reshape(T, K, -1), cuts, axis=2))])


def reference_multistage(pair, messages, a):
    """multistage_roundtrip's result from the per-level oracle."""
    fine = pair.fine
    points = np.array([reference_crt_points(fine, w_levels) for w_levels in messages])
    a_mod = np.array([int(x) % fine.q for x in a], dtype=np.int64)
    return cfsim._level_messages(fine, cfsim._function_point(a_mod, points, fine.q))


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _bounds(fine, K):
    """Each message's bound in trial_draws' layout: per source, level and real part."""
    return np.concatenate([np.full(2 * code.n, code.alphabet.size) for code in fine.codes] * K)


# ---------------------------------------------------------------------------
# the one product against the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_generator_mod_q_is_the_stacked_idempotent_generators(name):
    fine = LATTICES[name]()
    G = _generator_mod_q(fine)
    assert G is _generator_mod_q(fine)  # built once per lattice
    assert G.dtype == np.int64 and G.shape == (sum(c.n for c in fine.codes), fine.N)
    assert G.min() >= 0 and G.max() < fine.q
    # each row is the CRT point of one generator row alone
    at = 0
    for l, code in enumerate(fine.codes):
        for i in range(code.n):
            unit = [np.zeros(c.n, dtype=np.int64) for c in fine.codes]
            unit[l][i] = 1
            assert G[at].tolist() == reference_crt_points(fine, unit).tolist()
            at += 1


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_points_match_the_per_level_path(name):
    fine = LATTICES[name]()
    rng = np.random.default_rng(len(name))
    for shape in [(), (1,), (7,), (3, 2, 2)]:
        words = [rng.integers(0, c.alphabet.size, size=shape + (c.n,)) for c in fine.codes]
        _same(cfsim._crt_points(fine, np.concatenate(words, axis=-1)), reference_crt_points(fine, words))


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_messages_at_the_alphabet_edges(name):
    fine = LATTICES[name]()
    n = sum(c.n for c in fine.codes)
    sizes = [c.alphabet.size for c in fine.codes for _ in range(c.n)]
    # every symbol at 0 or at size - 1: all 2^n corners when they are few
    corners = itertools.product((0, 1), repeat=n) if n <= 10 else np.random.default_rng(n).integers(0, 2, (512, n))
    W = np.array([[top * (s - 1) for top, s in zip(corner, sizes)] for corner in corners], dtype=np.int64)
    cuts = np.cumsum([c.n for c in fine.codes])[:-1]
    _same(cfsim._crt_points(fine, W), reference_crt_points(fine, np.split(W, cuts, axis=1)))


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_the_engine_layout_matches_the_per_level_split(name):
    fine = LATTICES[name]()
    rng = np.random.default_rng(7)
    for K, M in ((1, 1), (2, 2), (3, 1)):
        config = SimConfig(pair=make_pair(fine, 16.0), K=K, M=M, P=16.0)
        chunk = cfsim._chunk_trials(config)
        order = cfsim._per_run(config)[2]
        bounds = _bounds(fine, K)
        assert np.array_equal(cfsim._per_run(config)[1], bounds)
        for T in sorted({1, max(1, chunk - 1), chunk, chunk + 1}):
            W = rng.integers(0, bounds, size=(T, len(bounds)))
            edges = [np.zeros_like(W), np.tile(bounds - 1, (T, 1))]  # the alphabet edges
            for w in [W] + edges:
                got = cfsim._crt_points(fine, w.reshape(T, K, -1)[:, :, order])
                assert got.shape == (T, K, 2, fine.N)
                _same(got, reference_engine_points(fine, w, K))


@pytest.mark.parametrize("name", ["A", "piA rep2 x rep3", "piA F2 x F3 x F5"])
def test_multistage_roundtrip_is_unchanged(name):
    pair = make_pair(LATTICES[name](), 16.0)
    codes = pair.fine.codes
    rng = np.random.default_rng(11)
    for _ in range(60):
        K = int(rng.integers(1, 4))
        a = rng.integers(-7, 8, size=K).tolist()
        if not any(a):
            a[0] = 1
        # some symbols at the alphabet edges, some outside [0, size)
        messages = [[tuple(rng.choice([0, c.alphabet.size - 1, int(rng.integers(-9, 9))], size=c.n).tolist())
                     for c in codes] for _ in range(K)]
        assert multistage_roundtrip(pair, messages, a) == reference_multistage(pair, messages, a)


def test_multistage_roundtrip_refuses_a_level_of_the_wrong_length():
    pair = make_pair(LATTICES["piA rep2 x rep3"](), 16.0)
    with pytest.raises(ValueError, match=r"^need 2 level messages per source, of lengths \[1, 1\]$"):
        multistage_roundtrip(pair, [[(1, 0), ()]], [1])
