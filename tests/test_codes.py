import itertools
import random

import pytest

from latcf.algebra import ChainRing, GaloisField, PrimeField
from latcf.codes import (
    LinearCode,
    NestedCodeChain,
    codebook,
    contains_codeword,
    encode,
    lift_chain_to_ring_code,
    solve_encoding,
)
from structure_views import level_code


def _random_code(rng, alphabet, n, N):
    rows = [[rng.randrange(alphabet.size) for _ in range(N)] for _ in range(n)]
    return LinearCode(alphabet, rows)


# -------------------- encode --------------------


def test_encode_identity_and_repetition():
    F5 = PrimeField(5)
    ident = LinearCode(F5, [[1, 0], [0, 1]])
    assert encode(ident, (3, 4)) == (3, 4)
    rep = LinearCode(PrimeField(2), [[1, 1]])
    assert encode(rep, (1,)) == (1, 1)
    assert encode(rep, (0,)) == (0, 0)


def test_encode_zero_message():
    rng = random.Random(10)
    for A in (PrimeField(3), ChainRing(2, 3), GaloisField(2, 2, reduction=(1, 1))):
        code = _random_code(rng, A, 2, 4)
        assert encode(code, (0, 0)) == (0,) * 4


def test_encode_length_check():
    code = LinearCode(PrimeField(3), [[1, 2, 0]])
    with pytest.raises(ValueError):
        encode(code, (1, 2))
    with pytest.raises(ValueError, match="generator rows have unequal lengths"):
        LinearCode(PrimeField(3), [[1, 2, 0], [1, 2]])
    with pytest.raises(ValueError, match="a code with no generators needs an explicit block length"):
        LinearCode(PrimeField(3), [])


def test_encode_is_linear():
    rng = random.Random(11)
    alphabets = [PrimeField(5), ChainRing(2, 2), ChainRing(3, 2),
                 GaloisField(3, 2, reduction=(1, 1))]
    for A in alphabets:
        code = _random_code(rng, A, 3, 5)
        for _ in range(250):
            w1 = tuple(rng.randrange(A.size) for _ in range(3))
            w2 = tuple(rng.randrange(A.size) for _ in range(3))
            wsum = tuple(A.add(a, b) for a, b in zip(w1, w2))
            direct = tuple(
                A.add(a, b) for a, b in zip(encode(code, w1), encode(code, w2))
            )
            assert encode(code, wsum) == direct


# -------------------- membership --------------------


def test_contains_matches_brute_force_enumeration():
    rng = random.Random(12)
    alphabets = [PrimeField(2), PrimeField(3), ChainRing(2, 2), ChainRing(2, 3),
                 GaloisField(2, 2, reduction=(1, 1))]
    for A in alphabets:
        for n, N in ((1, 2), (2, 3), (2, 4)):
            code = _random_code(rng, A, n, N)
            truth = set()
            for w in itertools.product(range(A.size), repeat=n):
                truth.add(encode(code, w))
            for _ in range(200):
                x = tuple(rng.randrange(A.size) for _ in range(N))
                want = x in truth
                assert (x in codebook(code)) == want
                assert (solve_encoding(code, x) is not None) == want


def test_contains_repetition_examples():
    rep = LinearCode(PrimeField(2), [[1, 1]])
    assert contains_codeword(rep, (0, 0))
    assert contains_codeword(rep, (1, 1))
    assert not contains_codeword(rep, (1, 0))
    with pytest.raises(ValueError):
        contains_codeword(rep, (1, 0, 0))
    for x in ((1, 0, 0), (1,)):  # a wrong length is named, not truncated or indexed past
        with pytest.raises(ValueError, match="vector length"):
            solve_encoding(rep, x)


def test_zero_generator_code():
    z = LinearCode(PrimeField(3), [], N=2)
    assert codebook(z) == {(0, 0): ()}
    assert contains_codeword(z, (0, 0))
    assert not contains_codeword(z, (0, 1))
    assert contains_codeword(z, (3, 6))  # reduces to zero


def test_solve_recovers_message_full_rank():
    rng = random.Random(13)
    cases = [
        (PrimeField(5), [[1, 0, 2], [0, 1, 3]]),
        (ChainRing(2, 2), [[1, 0, 3], [0, 1, 1]]),
        (ChainRing(3, 2), [[1, 2, 0], [3, 1, 4]]),
        (GaloisField(2, 2, reduction=(1, 1)), [[1, 0, 2], [0, 1, 3]]),
    ]
    for A, rows in cases:
        code = LinearCode(A, rows)
        for _ in range(100):
            w = tuple(rng.randrange(A.size) for _ in range(code.n))
            x = encode(code, w)
            got = solve_encoding(code, x)
            assert got is not None
            assert encode(code, got) == x


def test_solve_handles_non_free_chain_ring_rows():
    # rows with p-multiples: Z_4 code generated by (1,1) and (0,2)
    code = LinearCode(ChainRing(2, 2), [[1, 1], [0, 2]])
    words = set(codebook(code))
    assert words == {(a, b) for a in range(4) for b in range(4) if (a - b) % 2 == 0}
    for x in itertools.product(range(4), repeat=2):
        assert (solve_encoding(code, x) is not None) == (x in words)


# -------------------- nested chains --------------------


def test_build_nested_chain_two_level_example():
    chain = NestedCodeChain(2, [(1, 1), (0, 1)], (1, 2))
    c1 = level_code(chain, 1)
    c2 = level_code(chain, 2)
    assert set(codebook(c1)) == {(0, 0), (1, 1)}
    assert set(codebook(c2)) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_chain_nesting_holds():
    rng = random.Random(14)
    for p in (2, 3, 5):
        for _ in range(20):
            N = rng.randrange(2, 5)
            while True:
                basis = [[rng.randrange(p) for _ in range(N)] for _ in range(N)]
                try:
                    dims = sorted(rng.randrange(N + 1) for _ in range(3))
                    chain = NestedCodeChain(p, basis, dims)
                    break
                except ValueError:
                    continue
            for level in range(1, chain.levels):
                upper = level_code(chain, level + 1)
                for g in level_code(chain, level).G:
                    assert contains_codeword(upper, g)


def test_chain_validation():
    with pytest.raises(ValueError):
        NestedCodeChain(2, [(1, 1), (1, 1)], (1, 2))  # rank 1
    with pytest.raises(ValueError):
        NestedCodeChain(2, [(1, 0), (0, 1)], (2, 1))  # dims decrease
    with pytest.raises(ValueError):
        NestedCodeChain(4, [(1, 0), (0, 1)], (1, 2))  # 4 not prime
    with pytest.raises(ValueError):
        NestedCodeChain(2, [(1, 0), (0, 1)], (1, 3))  # dim > N
    for basis, dims, why in (([], (1,), "empty basis"), ([(1, 0)], (1,), "basis must be 2 vectors of length 2"),
                             ([(1, 0), (0, 1)], (), "need at least one level")):
        with pytest.raises(ValueError, match=why):
            NestedCodeChain(2, basis, dims)


def test_chain_degenerate_dims():
    full = NestedCodeChain(3, [(1, 0), (0, 1)], (2, 2))
    assert len(codebook(level_code(full, 1))) == 9
    zero = NestedCodeChain(2, [(1, 0), (0, 1)], (0,))
    assert set(codebook(level_code(zero, 1))) == {(0, 0)}


# -------------------- chain lift --------------------


def test_lift_two_level_example():
    chain = NestedCodeChain(2, [(1, 1), (0, 1)], (1, 2))
    lifted = lift_chain_to_ring_code(chain, 2)
    assert lifted.alphabet == ChainRing(2, 2)
    words = set(codebook(lifted))
    assert words == {(a, b) for a in range(4) for b in range(4) if a % 2 == b % 2}
    # directly enumerate the per-level sums c1 + 2*c2 mod 4
    sums = set()
    for c1 in codebook(level_code(chain, 1)):
        for c2 in codebook(level_code(chain, 2)):
            sums.add(tuple((x + 2 * y) % 4 for x, y in zip(c1, c2)))
    assert sums == words


def test_lift_single_level_equals_base_code():
    chain = NestedCodeChain(3, [(1, 2, 0), (0, 1, 1), (0, 0, 1)], (2,))
    lifted = lift_chain_to_ring_code(chain, 1)
    assert set(codebook(lifted)) == set(codebook(level_code(chain, 1)))


def test_lift_zero_chain_is_zero_code():
    chain = NestedCodeChain(2, [(1, 0), (0, 1)], (0, 0))
    lifted = lift_chain_to_ring_code(chain, 2)
    assert set(codebook(lifted)) == {(0, 0)}


def test_lift_cardinality():
    rng = random.Random(15)
    for p, dims in ((2, (1, 2)), (2, (1, 1, 2)), (3, (1, 2)), (2, (0, 1, 2))):
        N = max(dims) if max(dims) > 0 else 2
        N = max(N, 2)
        while True:
            basis = [[rng.randrange(p) for _ in range(N)] for _ in range(N)]
            try:
                chain = NestedCodeChain(p, basis, dims)
                break
            except ValueError:
                continue
        e = len(dims)
        lifted = lift_chain_to_ring_code(chain, e)
        expect = 1
        for d in dims:
            expect *= p**d
        assert len(codebook(lifted)) == expect


def test_lift_extends_saturated_chain():
    # e beyond the chain depth reuses the top level
    chain = NestedCodeChain(2, [(1, 1), (0, 1)], (1, 2))
    lifted = lift_chain_to_ring_code(chain, 3)
    assert lifted.alphabet == ChainRing(2, 3)
    assert len(codebook(lifted)) == 2 * 4 * 4
    with pytest.raises(ValueError):
        lift_chain_to_ring_code(chain, 0)


def test_lift_closed_under_addition():
    # the lifted codebook is a group even when carries cross levels
    chain = NestedCodeChain(2, [(1, 1, 0), (0, 1, 1), (0, 0, 1)], (2, 2))
    lifted = lift_chain_to_ring_code(chain, 2)
    words = set(codebook(lifted))
    m = 4
    for a in words:
        for b in words:
            assert tuple((x + y) % m for x, y in zip(a, b)) in words
