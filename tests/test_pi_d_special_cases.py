"""Construction pi_D subsumes A, D and pi_A: each special case, built next
to pi_D over the same level codes, is the same lattice down to its CRT
moduli, parity checks, coset table, enumerated points and `contains`
verdicts.  Also the one Z/p^e alphabet under them: PrimeField(p) is
ChainRing(p, 1), and GaloisField is F_{p^2} only, its inverse
a^(p^2 - 2)."""

import itertools
import random

import numpy as np
import pytest

from latcf.algebra import ChainRing, GaloisField, PrimeField
from latcf.codes import LinearCode, NestedCodeChain, lift_chain_to_ring_code
from latcf.lattices import (
    _checks,
    _coset_reps,
    construction_a,
    construction_d,
    construction_pi_a,
    construction_pi_d,
    contains,
    enumerate_box,
)


def _random_code(rng, A, N):
    n = rng.randrange(0, N + 1)
    return LinearCode(A, [[rng.randrange(A.size) for _ in range(N)] for _ in range(n)], N=N)


def _assert_same_lattice(special, pi_d):
    assert special.ambient == pi_d.ambient == "real"
    assert (special.N, special.moduli, special.q) == (pi_d.N, pi_d.moduli, pi_d.q)
    (H, Q), (H_d, Q_d) = _checks(special), _checks(pi_d)
    assert Q == Q_d and H.dtype == H_d.dtype and np.array_equal(H, H_d)
    assert np.array_equal(_coset_reps(special), _coset_reps(pi_d))
    bounds = [(-special.q, special.q)] * special.N
    assert enumerate_box(special, bounds) == enumerate_box(pi_d, bounds)
    box = list(itertools.product(range(-2 * special.q, 2 * special.q + 1), repeat=special.N))
    assert [contains(special, v) for v in box] == [contains(pi_d, v) for v in box]


def test_the_textbook_codes_are_pi_d():
    # A over rep(2) and pi_A over rep(2) x <(1, 2)> over F_3; D over the
    # chain <(1, 1)> < F_2^2 at L = 2 is the first lift case below
    rep2, f3 = LinearCode(PrimeField(2), [[1, 1]]), LinearCode(PrimeField(3), [[1, 2]])
    _assert_same_lattice(construction_a(rep2), construction_pi_d(2, [rep2]))
    _assert_same_lattice(construction_pi_a([rep2, f3]), construction_pi_d(6, [rep2, f3]))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_construction_a_is_pi_d_over_one_prime(p):
    rng = random.Random(p)
    for N in (1, 2, 3):
        for _ in range(3):
            code = _random_code(rng, PrimeField(p), N)
            _assert_same_lattice(construction_a(code), construction_pi_d(p, [code]))


@pytest.mark.parametrize("primes", [(2, 3), (2, 5), (3, 5)])
def test_construction_pi_a_is_pi_d_with_unit_exponents(primes):
    rng = random.Random(sum(primes))
    for N in (1, 2):
        for _ in range(3):
            codes = [_random_code(rng, PrimeField(p), N) for p in primes]
            _assert_same_lattice(construction_pi_a(codes),
                                 construction_pi_d(primes[0] * primes[1], codes))


@pytest.mark.parametrize("p, basis, dims, L", [
    (2, [(1, 1), (0, 1)], (1, 2), 2),
    (2, [(1, 0, 1), (0, 1, 1), (0, 0, 1)], (1, 2, 3), 3),
    (2, [(1, 0, 1), (0, 1, 1), (0, 0, 1)], (0, 2), 2),
    (3, [(1, 2), (0, 1)], (1, 2), 2),
    (3, [(1, 2), (0, 1)], (1, 1), 1),
])
def test_construction_d_is_pi_d_over_the_lift(p, basis, dims, L):
    chain = NestedCodeChain(p, basis, dims)
    lifted = lift_chain_to_ring_code(chain, L)
    _assert_same_lattice(construction_d(chain, L), construction_pi_d(p**L, [lifted]))


def test_the_special_cases_keep_their_own_preconditions():
    z4 = LinearCode(ChainRing(2, 2), [[1, 1]])
    rep2, rep3 = LinearCode(PrimeField(2), [[1, 1]]), LinearCode(PrimeField(3), [[1, 1]])
    with pytest.raises(ValueError, match="^construction A needs a code over a prime field$"):
        construction_a(z4)
    with pytest.raises(ValueError, match="^every level must be a prime-field code$"):
        construction_pi_a([rep3, z4])
    with pytest.raises(ValueError, match="share a prime factor"):
        construction_pi_a([rep2, LinearCode(PrimeField(2), [[1, 0]])])
    with pytest.raises(ValueError, match=r"do not match the factors \[\(2, 1\), \(3, 1\)\] of q=6"):
        construction_pi_d(6, [rep3, rep2])  # levels out of prime order
    gf4 = LinearCode(GaloisField(2, 2, reduction=(1, 1)), [[1, 2]])
    for build in (construction_a, lambda c: construction_pi_a([c]), lambda c: construction_pi_d(4, [c])):
        with pytest.raises(ValueError, match="is not a chain ring"):
            build(gf4)
    with pytest.raises(ValueError, match="^levels have unequal block lengths$"):
        construction_pi_d(6, [rep2, LinearCode(PrimeField(3), [[1, 1, 1]])])
    with pytest.raises(ValueError, match="^need at least one code$"):
        construction_pi_a([])


# ---------------------------------------------------------------------------
# one Z/p^e alphabet
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1])
def test_prime_field_is_the_chain_ring_with_exponent_one(p):
    F, R = PrimeField(p), ChainRing(p, 1)
    assert F == R and R == F and hash(F) == hash(R)
    assert F != ChainRing(p, 2)
    assert (F.p, F.e, F.size, F.char) == (R.p, R.e, R.size, R.char) == (p, 1, p, p)
    assert repr(F) == f"PrimeField({p})" and repr(R) == f"ChainRing({p}, 1)"
    assert len({F, R}) == 1


def test_construction_a_accepts_a_chain_ring_code_with_exponent_one():
    rows = [[1, 2, 0], [0, 1, 1]]
    lat = construction_a(LinearCode(ChainRing(3, 1), rows))
    _assert_same_lattice(lat, construction_a(LinearCode(PrimeField(3), rows)))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_galois_field_refuses_degree_one(p):
    with pytest.raises(ValueError, match=rf"^GaloisField is F_{{p\^2}} only; F_{p} is PrimeField\({p}\)$"):
        GaloisField(p)
    for f in (1, 3):
        with pytest.raises(ValueError, match=rf"PrimeField\({p}\)"):
            GaloisField(p, f, reduction=(1, 1))


@pytest.mark.parametrize("p, reduction", [(2, (1, 1)), (3, (1, 1)), (5, (2, 0)), (7, (3, 0))])
def test_galois_field_inverse_matches_brute_force(p, reduction):
    F = GaloisField(p, 2, reduction=reduction)
    for a in range(1, F.size):
        brute = [b for b in range(1, F.size) if F.mul(a, b) == F.one]
        assert [F.inv(a)] == brute
        assert F.inv(a + F.size) == brute[0]  # reduced first
    with pytest.raises(ZeroDivisionError):
        F.inv(F.size)
