import math
import random
import tracemalloc

import pytest

from latcf.algebra import (
    ChainRing,
    CrtMap,
    GaloisField,
    PrimeField,
    ResidueFieldMap,
    factor_prime_power,
    factor_rational_prime,
    factorize,
    is_prime,
    kronecker_at_prime,
    make_quadratic_ring,
)
from structure_views import is_zero_divisor, minimal_polynomial

# -------------------- primality / factoring --------------------


def test_is_prime_small_sieve():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 2000):
        if sieve[i]:
            for j in range(2 * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert is_prime(n) == sieve[n]


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(17) == (17, 1)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            factor_prime_power(bad)


def test_factorize():
    rng = random.Random(11)
    for _ in range(200):
        q = rng.randrange(2, 10**6)
        pairs = factorize(q)
        assert math.prod(p**e for p, e in pairs) == q
        assert all(is_prime(p) for p, _ in pairs)
        assert [p for p, _ in pairs] == sorted(p for p, _ in pairs)


# -------------------- finite alphabets --------------------


def _check_ring_axioms(R, rng, trials=200):
    els = list(R.elements())
    for _ in range(trials):
        a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
        assert R.add(a, b) == R.add(b, a)
        assert R.mul(a, b) == R.mul(b, a)
        assert R.add(R.add(a, b), c) == R.add(a, R.add(b, c))
        assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))
        assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
        assert R.add(a, R.neg(a)) == R.zero
        assert R.mul(a, R.one) == a
        assert R.sub(a, b) == R.add(a, R.neg(b))


def test_prime_field_axioms_and_inverses():
    rng = random.Random(0)
    for p in (2, 3, 5, 17):
        F = PrimeField(p)
        _check_ring_axioms(F, rng)
        for a in range(1, p):
            assert F.is_unit(a)
            assert F.mul(a, F.inv(a)) == 1
    assert not PrimeField(7).is_unit(0)
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)


def test_chain_ring_units_and_zero_divisors():
    rng = random.Random(1)
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        ChainRing(2, 0)
    for p, e in ((2, 2), (2, 3), (3, 2), (5, 2)):
        R = ChainRing(p, e)
        _check_ring_axioms(R, rng)
        for a in R.elements():
            if a % p == 0:
                assert not R.is_unit(a)
                assert is_zero_divisor(R, a) == (a != 0)
            else:
                assert R.mul(a, R.inv(a)) == 1
                assert not is_zero_divisor(R, a)


def test_galois_field_gf4_multiplication_table():
    # t^2 = t + 1; elements 0, 1, t, t+1 encoded 0, 1, 2, 3
    F = GaloisField(2, 2, reduction=(1, 1))
    assert F.mul(2, 2) == 3
    assert F.mul(2, 3) == 1
    assert F.mul(3, 3) == 2
    assert F.inv(2) == 3 and F.inv(3) == 2


def test_galois_field_axioms_and_inverses():
    rng = random.Random(2)
    # x^2 = 2 is irreducible mod 5; x^2 = x + 1 irreducible mod 3
    for F in (GaloisField(5, 2, reduction=(2, 0)), GaloisField(3, 2, reduction=(1, 1))):
        _check_ring_axioms(F, rng)
        for a in range(1, F.size):
            assert F.mul(a, F.inv(a)) == F.one
    with pytest.raises(ValueError):
        GaloisField(5, 2, reduction=(4, 0))  # x^2 = 4 has root 2 mod 5
    with pytest.raises(ValueError, match="4 is not prime"):
        GaloisField(4, 2, reduction=(1, 1))
    with pytest.raises(ValueError, match="degree-2 field needs a reduction polynomial"):
        GaloisField(5, 2)


def test_galois_field_irreducibility_matches_a_root_scan():
    # Euler's criterion on the discriminant (and t^2 + t + 1 alone over F_2)
    # against a search for a root, for every reduction polynomial mod every
    # prime below 60
    for p in filter(is_prime, range(60)):
        for const in range(p):
            for lin in range(p):
                if any((x * x - lin * x - const) % p == 0 for x in range(p)):
                    with pytest.raises(ValueError, match="^reduction polynomial is reducible mod p$"):
                        GaloisField(p, 2, reduction=(const, lin))
                else:
                    assert GaloisField(p, 2, reduction=(const, lin)).reduction == (const, lin)


# -------------------- CRT --------------------


def test_crt_frozen_values():
    crt = CrtMap([2, 3])
    assert crt.q == 6
    assert crt.forward((1, 2)) == 5
    assert crt.decompose(7) == ((1, 1), 1)
    assert crt.decompose(5) == ((1, 2), 0)
    assert crt.decompose(-1) == ((1, 2), -1)


def test_crt_bijection_exhaustive():
    for moduli in ([2, 3], [4, 9], [8, 3, 25], [5, 49]):
        crt = CrtMap(moduli)
        seen = {crt.forward(crt.sigma(a)) for a in range(crt.q)}
        assert seen == set(range(crt.q))
        for a in range(crt.q):
            assert crt.forward(crt.sigma(a)) == a


def test_crt_is_ring_homomorphism():
    rng = random.Random(3)
    crt = CrtMap([8, 9, 5])
    for _ in range(300):
        a, b = rng.randrange(crt.q), rng.randrange(crt.q)
        sa, sb = crt.sigma(a), crt.sigma(b)
        assert crt.sigma((a + b) % crt.q) == tuple(
            (x + y) % m for x, y, m in zip(sa, sb, crt.moduli)
        )
        assert crt.sigma(a * b % crt.q) == tuple(
            x * y % m for x, y, m in zip(sa, sb, crt.moduli)
        )


def test_crt_decomposition_identity():
    rng = random.Random(4)
    crt = CrtMap([4, 3, 25])
    for _ in range(500):
        a = rng.randrange(-10**6, 10**6)
        coords, quot = crt.decompose(a)
        assert a == crt.forward(coords) + crt.q * quot
        assert coords == tuple(a % m for m in crt.moduli)


def test_crt_rejects_shared_primes():
    with pytest.raises(ValueError):
        CrtMap([4, 6])
    with pytest.raises(ValueError):
        CrtMap([3, 9])
    with pytest.raises(ValueError, match="need at least one modulus"):
        CrtMap([])
    with pytest.raises(ValueError, match="expected 2 coordinates, got 3"):
        CrtMap([2, 3]).forward((1, 2, 0))


def test_crt_single_level():
    crt = CrtMap([7])
    assert crt.forward((3,)) == 3
    assert crt.decompose(10) == ((3,), 1)


# -------------------- quadratic rings --------------------


def test_xi_convention_by_residue_class():
    r = make_quadratic_ring(-1)  # -1 = 3 mod 4
    assert r.xi_kind == "sqrt(d)" and r.xi_sq == (0, -1) and r.discriminant == -4
    r = make_quadratic_ring(-2)  # -2 = 2 mod 4
    assert r.xi_kind == "sqrt(d)" and r.xi_sq == (0, -2) and r.discriminant == -8
    r = make_quadratic_ring(-15)  # -15 = 1 mod 4
    assert r.xi_kind == "(1+sqrt(d))/2"
    assert r.xi_sq == (1, -4) and r.discriminant == -15
    r = make_quadratic_ring(-3)
    assert r.xi_sq == (1, -1) and r.discriminant == -3


def test_quadratic_ring_validation_and_pid_flag():
    for bad in (0, 1, 4, 12, -4, 18):
        with pytest.raises(ValueError):
            make_quadratic_ring(bad)
    for d in (-1, -2, -3, -7, -11, -19, -43, -67, -163):
        assert make_quadratic_ring(d).is_pid is True
    assert make_quadratic_ring(-5).is_pid is None
    assert make_quadratic_ring(2).is_pid is None
    ring = make_quadratic_ring(-1)
    with pytest.raises(ValueError, match="element from a different ring"):
        ring.coerce(make_quadratic_ring(-3).one)
    with pytest.raises(TypeError, match="cannot coerce 1.5"):
        ring.coerce(1.5)


def test_quad_int_arithmetic_matches_complex_embedding():
    rng = random.Random(5)
    for d in (-1, -2, -3, -7, -15, -5):
        ring = make_quadratic_ring(d)
        for _ in range(100):
            x = ring.element(rng.randrange(-9, 10), rng.randrange(-9, 10))
            y = ring.element(rng.randrange(-9, 10), rng.randrange(-9, 10))
            for got, want in (
                ((x + y).to_complex(), x.to_complex() + y.to_complex()),
                ((x - y).to_complex(), x.to_complex() - y.to_complex()),
                ((x * y).to_complex(), x.to_complex() * y.to_complex()),
            ):
                assert abs(got - want) < 1e-9
            assert x.norm() == pytest.approx(abs(x.to_complex()) ** 2)
            assert (x * x.conj()).b == 0


def test_minimal_polynomial_kills_xi():
    for d in (-1, -2, -3, -7, -15, 5):
        ring = make_quadratic_ring(d)
        c0, c1, c2 = minimal_polynomial(ring)
        xi = ring.element(0, 1)
        assert c2 * (xi * xi) + c1 * xi + c0 * ring.one == ring.zero


# -------------------- prime ideal factorization --------------------


def _root_count(ring, p):
    t, u = ring.xi_sq
    return sum(1 for x in range(p) if (x * x - t * x - u) % p == 0)


def test_splitting_kind_matches_root_count_oracle():
    # the minimal polynomial of xi has 2 roots mod p iff p splits,
    # 1 (double) iff ramified, 0 iff inert
    for d in (-1, -2, -3, -7, -11, -15, -19, -5):
        ring = make_quadratic_ring(d)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            ideals = factor_rational_prime(ring, p)
            nroots = _root_count(ring, p)
            if nroots == 0:
                assert len(ideals) == 1 and ideals[0].kind == "inert"
                assert ideals[0].f == 2
            elif nroots == 1:
                assert len(ideals) == 1 and ideals[0].kind == "ramified"
                assert ideals[0].f == 1
            else:
                assert len(ideals) == 2
                assert all(i.kind == "split" and i.f == 1 for i in ideals)
                assert ideals[0].root < ideals[1].root
                assert ideals[0].conjugate().root == ideals[1].root


def test_gaussian_integer_factorizations():
    ring = make_quadratic_ring(-1)
    (p3,) = factor_rational_prime(ring, 3)
    assert p3.kind == "inert" and p3.residue_size == 9
    p5a, p5b = factor_rational_prime(ring, 5)
    assert p5a.kind == "split" and {p5a.root, p5b.root} == {2, 3}
    (p2,) = factor_rational_prime(ring, 2)
    assert p2.kind == "ramified" and p2.root == 1
    # (2, xi - 1) is the ideal generated by 1 + i
    g = ring.element(1, 1)
    assert p2.contains(g) and p2.contains(g * ring.element(3, -2))
    assert not p2.contains(ring.element(1, 0))
    with pytest.raises(ValueError, match="9 is not prime"):
        factor_rational_prime(ring, 9)


def test_seventeen_splits_in_d_minus_15():
    ring = make_quadratic_ring(-15)
    ideal, conj = factor_rational_prime(ring, 17)
    assert ideal.kind == "split" and ideal.f == 1
    assert ideal.root == 6 and conj.root == 12
    # 6 + sqrt(-15) = 5 + 2*xi generates the same prime: it lies in the
    # ideal and its norm is 51 = 3 * 17
    g = ring.element(5, 2)
    assert ideal.contains(g)
    assert g.norm() == 51
    assert not conj.contains(g)
    assert ideal.residue_size == 17


def test_ideal_membership_closed_under_ring_multiplication():
    rng = random.Random(6)
    for d, p in ((-1, 2), (-1, 5), (-7, 11), (-15, 17), (-3, 7), (-2, 3)):
        ring = make_quadratic_ring(d)
        for ideal in factor_rational_prime(ring, p):
            gens = ideal.generators
            for _ in range(100):
                g = rng.choice(gens)
                r = ring.element(rng.randrange(-8, 9), rng.randrange(-8, 9))
                assert ideal.contains(g * r)
            # index of the ideal in the ring is p^f: count cosets directly
            reps = {
                (ideal.reduce(ring.element(a, b)).a, ideal.reduce(ring.element(a, b)).b)
                for a in range(2 * p)
                for b in range(2 * p)
            }
            assert len(reps) == ideal.residue_size


def test_reduce_is_constant_on_cosets():
    rng = random.Random(7)
    for d, p in ((-1, 5), (-15, 17), (-11, 3)):
        ring = make_quadratic_ring(d)
        for ideal in factor_rational_prime(ring, p):
            for _ in range(100):
                x = ring.element(rng.randrange(-40, 41), rng.randrange(-40, 41))
                for g in ideal.generators:
                    k = ring.element(rng.randrange(-3, 4), rng.randrange(-3, 4))
                    assert ideal.reduce(x + g * k) == ideal.reduce(x)
                assert ideal.contains(x - ideal.reduce(x))


# -------------------- residue field maps --------------------


def test_residue_map_is_field_isomorphism():
    rng = random.Random(8)
    cases = [(-1, 3), (-1, 5), (-1, 2), (-15, 17), (-7, 3), (-2, 5), (-11, 13)]
    for d, p in cases:
        ring = make_quadratic_ring(d)
        for ideal in factor_rational_prime(ring, p):
            rm = ResidueFieldMap(ideal)
            F = rm.field
            assert F.size == ideal.residue_size
            # round trip on every field element
            for fe in F.elements():
                assert rm.to_field(rm.to_ring(fe)) == fe
            # homomorphism on random ring elements
            for _ in range(150):
                x = ring.element(rng.randrange(-30, 31), rng.randrange(-30, 31))
                y = ring.element(rng.randrange(-30, 31), rng.randrange(-30, 31))
                assert rm.to_field(x + y) == F.add(rm.to_field(x), rm.to_field(y))
                assert rm.to_field(x * y) == F.mul(rm.to_field(x), rm.to_field(y))
            # kernel is exactly the ideal
            for _ in range(100):
                x = ring.element(rng.randrange(-30, 31), rng.randrange(-30, 31))
                assert (rm.to_field(x) == 0) == ideal.contains(x)


def test_residue_map_and_reduce_are_inverse_both_ways():
    for d, p in ((-1, 7), (-15, 17)):  # inert, split
        ring = make_quadratic_ring(d)
        ideal = factor_rational_prime(ring, p)[0]
        rm = ResidueFieldMap(ideal)
        assert [rm.to_field(rm.to_ring(i)) for i in range(ideal.residue_size)] == list(range(ideal.residue_size))
        for a in range(-2 * p, 2 * p):
            for b in range(-3, 4):
                x = ring.element(a, b)
                assert rm.to_ring(rm.to_field(x)) == ideal.reduce(x)


def test_residue_map_over_a_large_inert_prime_builds_no_table():
    (ideal,) = factor_rational_prime(make_quadratic_ring(-1), 1019)  # 1019 = 3 mod 4: inert
    tracemalloc.start()
    try:
        rm = ResidueFieldMap(ideal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert rm.field.size == 1019**2
    assert rm.to_ring(1019**2 - 1) == ideal.ring.element(1018, 1018)


def test_residue_map_representative_shapes():
    ring = make_quadratic_ring(-15)
    ideal, _ = factor_rational_prime(ring, 17)
    rm = ResidueFieldMap(ideal)
    assert [rm.to_ring(i).a for i in range(17)] == list(range(17))
    assert all(rm.to_ring(i).b == 0 for i in range(17))

    (inert,) = factor_rational_prime(make_quadratic_ring(-1), 3)
    rm2 = ResidueFieldMap(inert)
    assert len({rm2.to_ring(i) for i in range(9)}) == 9
    assert rm2.to_ring(5) == inert.ring.element(2, 1)  # 5 = 2 + 1*3


def test_kronecker_symbol_squares():
    # (D/p) = 1 iff D is a nonzero square mod p, for odd p
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for D in range(-30, 31):
            if D % p == 0:
                assert kronecker_at_prime(D, p) == 0
            else:
                want = 1 if D % p in squares else -1
                assert kronecker_at_prime(D, p) == want
