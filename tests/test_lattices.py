import itertools
import math
import random
import re

import numpy as np
import pytest

from latcf.algebra import (
    ChainRing,
    CrtMap,
    GaloisField,
    PrimeField,
    ResidueFieldMap,
    factor_rational_prime,
    make_quadratic_ring,
)
from latcf.codes import LinearCode, NestedCodeChain, codebook, lift_chain_to_ring_code
from latcf.lattices import (
    LatticePair,
    construction_a,
    construction_a_ok,
    construction_d,
    construction_pi_a,
    construction_pi_d,
    contains,
    enumerate_box,
    mod_coarse,
    quantize,
)
from structure_views import coarse


def _tile_box(reps, q, bounds):
    """Independent oracle: explicit reps + q*Z^N clipped to the box."""
    out = set()
    for rep in reps:
        ranges = []
        for x, (lo, hi) in zip(rep, bounds):
            kmin = math.ceil((lo - x) / q)
            kmax = math.floor((hi - x) / q)
            ranges.append(range(kmin, kmax + 1))
        for ks in itertools.product(*ranges):
            out.add(tuple(x + q * k for x, k in zip(rep, ks)))
    return out


def _crt_reps(codes, moduli):
    crt = CrtMap(moduli)
    reps = set()
    for combo in itertools.product(*[codebook(c) for c in codes]):
        reps.add(tuple(crt.forward(col) for col in zip(*combo)))
    return reps


def _box_verdicts(lat, bounds):
    return {
        pt
        for pt in itertools.product(*[range(lo, hi + 1) for lo, hi in bounds])
        if contains(lat, pt)
    }


REP2 = LinearCode(PrimeField(2), [[1, 1]])


# -------------------- construction A --------------------


def test_a_repetition_parity_points():
    lat = construction_a(REP2)
    bounds = [(-4, 4)] * 2
    got = _box_verdicts(lat, bounds)
    want = {
        pt
        for pt in itertools.product(range(-4, 5), repeat=2)
        if (pt[0] - pt[1]) % 2 == 0
    }
    assert got == want


def test_a_full_and_zero_codes():
    full = construction_a(LinearCode(PrimeField(3), [[1, 0], [0, 1]]))
    zero = construction_a(LinearCode(PrimeField(3), [], N=2))
    for pt in itertools.product(range(-3, 4), repeat=2):
        assert contains(full, pt)
        assert contains(zero, pt) == (pt[0] % 3 == 0 and pt[1] % 3 == 0)


def test_a_rejects_chain_ring_alphabet():
    with pytest.raises(ValueError):
        construction_a(LinearCode(ChainRing(2, 2), [[1, 1]]))


# -------------------- construction D --------------------


def _eq9_points(chain, L, bounds):
    # unreduced real sums over per-level coefficients, then tile by p^L
    p = chain.p
    slots = [(l, i) for l in range(1, L + 1) for i in range(chain.dims[l - 1])]
    base = set()
    for vals in itertools.product(range(p), repeat=len(slots)):
        v = [0] * chain.N
        for (l, i), a in zip(slots, vals):
            scale = p ** (l - 1) * a
            for j in range(chain.N):
                v[j] += scale * chain.basis[i][j]
        base.add(tuple(v))
    return _tile_box(base, p**L, bounds)


def test_d_single_level_equals_a():
    chain = NestedCodeChain(2, [(1, 1), (0, 1)], (1,))
    lat_d = construction_d(chain, 1)
    lat_a = construction_a(REP2)
    bounds = [(-4, 4)] * 2
    assert _box_verdicts(lat_d, bounds) == _box_verdicts(lat_a, bounds)


def test_d_matches_direct_sum_enumeration():
    cases = [
        (2, [(1, 1), (0, 1)], (1, 2), 2),
        (2, [(1, 1, 0), (0, 1, 1), (0, 0, 1)], (1, 2), 2),
        (3, [(1, 2), (0, 1)], (1, 1), 2),
        (2, [(1, 1), (0, 1)], (0, 1), 2),
    ]
    for p, basis, dims, L in cases:
        chain = NestedCodeChain(p, basis, dims)
        lat = construction_d(chain, L)
        q = p**L
        bounds = [(-q, q)] * chain.N
        assert _box_verdicts(lat, bounds) == _eq9_points(chain, L, bounds)


def test_d_trivial_chains():
    full = NestedCodeChain(2, [(1, 0), (0, 1)], (2, 2))
    lat = construction_d(full, 2)
    for pt in itertools.product(range(-2, 3), repeat=2):
        assert contains(lat, pt)
    empty = NestedCodeChain(2, [(1, 0), (0, 1)], (0,))
    lat0 = construction_d(empty, 1)
    for pt in itertools.product(range(-2, 3), repeat=2):
        assert contains(lat0, pt) == all(x % 2 == 0 for x in pt)


def test_d_depth_check():
    chain = NestedCodeChain(2, [(1, 0), (0, 1)], (1, 2))
    with pytest.raises(ValueError):
        construction_d(chain, 3)
    with pytest.raises(ValueError):
        construction_d(chain, 0)


# -------------------- construction pi_A --------------------


def test_pi_a_two_prime_example():
    full3 = LinearCode(PrimeField(3), [[1, 0], [0, 1]])
    lat = construction_pi_a([REP2, full3])
    assert lat.q == 6
    for pt in itertools.product(range(-6, 7), repeat=2):
        assert contains(lat, pt) == ((pt[0] - pt[1]) % 2 == 0)
    assert contains(lat, (4, 2))


def test_pi_a_oracle_equivalence():
    rng = random.Random(20)
    for _ in range(5):
        codes = []
        for p in (2, 3):
            n = rng.randrange(0, 3)
            codes.append(
                LinearCode(PrimeField(p), [[rng.randrange(p) for _ in range(2)] for _ in range(n)], N=2)
            )
        lat = construction_pi_a(codes)
        bounds = [(-lat.q, lat.q)] * 2
        want = _tile_box(_crt_reps(codes, [2, 3]), lat.q, bounds)
        assert _box_verdicts(lat, bounds) == want


def test_pi_a_validation():
    with pytest.raises(ValueError):
        construction_pi_a([REP2, LinearCode(PrimeField(2), [[1, 0]])])
    with pytest.raises(ValueError):
        construction_pi_a([REP2, LinearCode(PrimeField(3), [[1, 1, 1]])])
    with pytest.raises(ValueError):
        construction_pi_a([LinearCode(ChainRing(2, 2), [[1, 1]])])
    with pytest.raises(ValueError):
        construction_pi_a([])


# -------------------- construction pi_D --------------------


def test_pi_d_oracle_equivalence():
    z4 = LinearCode(ChainRing(2, 2), [[1, 1, 2]])
    f3 = LinearCode(PrimeField(3), [[1, 0, 2], [0, 1, 1]])
    lat = construction_pi_d(12, [z4, f3])
    assert lat.moduli == (4, 3)
    bounds = [(-12, 12)] * 3
    want = _tile_box(_crt_reps([z4, f3], [4, 3]), 12, bounds)
    assert _box_verdicts(lat, bounds) == want


def test_pi_d_reduces_to_a():
    lat_pd = construction_pi_d(2, [REP2])
    lat_a = construction_a(REP2)
    bounds = [(-4, 4)] * 2
    assert _box_verdicts(lat_pd, bounds) == _box_verdicts(lat_a, bounds)


def test_pi_d_subsumes_d_via_lift():
    chain = NestedCodeChain(2, [(1, 1), (0, 1)], (1, 2))
    lat_d = construction_d(chain, 2)
    lat_pd = construction_pi_d(4, [lift_chain_to_ring_code(chain, 2)])
    bounds = [(-8, 8)] * 2
    assert _box_verdicts(lat_d, bounds) == _box_verdicts(lat_pd, bounds)


def test_pi_d_with_unit_exponents_equals_pi_a():
    full3 = LinearCode(PrimeField(3), [[1, 2]])
    lat_pa = construction_pi_a([REP2, full3])
    lat_pd = construction_pi_d(6, [REP2, full3])
    bounds = [(-6, 6)] * 2
    assert _box_verdicts(lat_pa, bounds) == _box_verdicts(lat_pd, bounds)


def test_pi_d_validation():
    with pytest.raises(ValueError):
        construction_pi_d(1, [])
    with pytest.raises(ValueError):
        construction_pi_d(6, [REP2])  # missing the factor-3 code
    with pytest.raises(ValueError):
        # alphabet Z_4 against factor 2^1
        construction_pi_d(2, [LinearCode(ChainRing(2, 2), [[1, 1]])])


# -------------------- construction A over quadratic integers --------------------


def test_a_ok_gaussian_repetition():
    ring = make_quadratic_ring(-1)
    (ideal,) = factor_rational_prime(ring, 2)
    lat = construction_a_ok(REP2, ideal)
    assert lat.ambient == "complex"
    # direct characterization: (x, y) in the lattice iff x - y in the ideal
    for a1, b1, a2, b2 in itertools.product(range(-2, 3), repeat=4):
        x = ring.element(a1, b1)
        y = ring.element(a2, b2)
        assert contains(lat, (x, y)) == ideal.contains(x - y)


def test_a_ok_full_and_zero():
    ring = make_quadratic_ring(-15)
    ideal, _ = factor_rational_prime(ring, 17)
    full = construction_a_ok(
        LinearCode(PrimeField(17), [[1]]), ideal
    )
    zero = construction_a_ok(LinearCode(PrimeField(17), [], N=1), ideal)
    for a in range(-3, 4):
        for b in range(-3, 4):
            x = ring.element(a, b)
            assert contains(full, (x,))
            assert contains(zero, (x,)) == ideal.contains(x)


def test_a_ok_size_mismatch():
    ring = make_quadratic_ring(-1)
    (inert,) = factor_rational_prime(ring, 3)  # residue field size 9
    with pytest.raises(ValueError):
        construction_a_ok(REP2, inert)


@pytest.mark.parametrize("alphabet", [ChainRing(3, 2), GaloisField(3, 2, reduction=(1, 1))],
                         ids=["Z9", "F9-other-reduction"])
def test_a_ok_refuses_a_code_not_over_the_residue_field(alphabet):
    # both have the 9 elements of Z[i]/(3), whose xi squares to -1 = 2
    (inert,) = factor_rational_prime(make_quadratic_ring(-1), 3)
    want = re.escape(f"code alphabet {alphabet!r} is not the residue field GaloisField(3, 2, reduction=(2, 0))")
    with pytest.raises(ValueError, match=want):
        construction_a_ok(LinearCode(alphabet, [[1, 1]]), inert)


def test_a_ok_closed_under_addition():
    ring = make_quadratic_ring(-1)
    ideal, _ = factor_rational_prime(ring, 5)
    code = LinearCode(PrimeField(5), [[1, 2]])
    lat = construction_a_ok(code, ideal)
    pts = enumerate_box(lat, (-2, 2))
    rng = random.Random(21)
    for _ in range(200):
        x = rng.choice(pts)
        y = rng.choice(pts)
        assert contains(lat, tuple(a + b for a, b in zip(x, y)))
        assert contains(lat, tuple(a - b for a, b in zip(x, y)))


# -------------------- contains / enumerate_box --------------------


def test_contains_coarse_point_always_in():
    lats = [
        construction_a(REP2),
        construction_pi_a([REP2, LinearCode(PrimeField(3), [[1, 2]])]),
        construction_pi_d(4, [LinearCode(ChainRing(2, 2), [[1, 3]])]),
    ]
    for lat in lats:
        assert contains(lat, [lat.q] * lat.N)
        assert contains(lat, [0] * lat.N)


def test_contains_input_checks():
    lat = construction_a(REP2)
    with pytest.raises(ValueError):
        contains(lat, (1, 2, 3))
    with pytest.raises(ValueError):
        contains(lat, (0.5, 1))
    for dtype, x in ((np.float32, 0.5), (np.float16, 1.5)):  # not truncated to int
        with pytest.raises(ValueError, match="non-integer entry"):
            contains(lat, np.array([x, x], dtype=dtype))
    assert contains(lat, (3.0, 5.0))  # integral floats accepted
    assert contains(lat, np.array([3.0, 5.0], dtype=np.float32))
    assert contains(lat, [2**70, 2**70])  # beyond int64: reduced as Python ints
    assert not contains(lat, [2**70 + 1, 2**70])


def test_enumerate_box_examples():
    z2 = construction_a(LinearCode(PrimeField(2), [[1, 0], [0, 1]]))
    assert len(enumerate_box(z2, (0, 2))) == 9
    two_z2 = construction_a(LinearCode(PrimeField(2), [], N=2))
    assert set(enumerate_box(two_z2, (0, 2))) == {(0, 0), (0, 2), (2, 0), (2, 2)}
    rep = construction_a(REP2)
    assert set(enumerate_box(rep, (0, 1))) == {(0, 0), (1, 1)}
    assert len(enumerate_box(rep, (0, 2))) == 5
    assert enumerate_box(rep, (np.int64(0), np.int64(2))) == enumerate_box(rep, (0, 2))


def test_enumerate_box_caps_and_bounds():
    lat = construction_a(LinearCode(PrimeField(2), [[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        enumerate_box(lat, (0, 2000))
    with pytest.raises(ValueError):
        enumerate_box(lat, [(0, 1)])
    with pytest.raises(ValueError):
        enumerate_box(lat, (2, 0))
    # inclusive bounds: lo rounds up and hi down, whatever their signs
    rep = construction_a(REP2)
    assert enumerate_box(rep, (0.5, 2.5)) == enumerate_box(rep, (1, 2)) == [(1, 1), (2, 2)]
    assert enumerate_box(rep, (-2.5, -0.5)) == enumerate_box(rep, (-2, -1)) == [(-2, -2), (-1, -1)]
    assert enumerate_box(rep, [(0.5, 2.5), (-0.5, 1.5)]) == [(1, 1), (2, 0)]
    assert enumerate_box(rep, (0.0, 2.0)) == enumerate_box(rep, (0, 2))
    assert enumerate_box(rep, (0.2, 0.8)) == enumerate_box(rep, [(0, 1), (-0.5, -0.1)]) == []


def test_lattice_points_form_group():
    rng = random.Random(22)
    z4 = LinearCode(ChainRing(2, 2), [[1, 2]])
    f3 = LinearCode(PrimeField(3), [[1, 1]])
    lat = construction_pi_d(12, [z4, f3])
    pts = enumerate_box(lat, (-12, 12))
    for _ in range(500):
        x = rng.choice(pts)
        y = rng.choice(pts)
        assert contains(lat, tuple(a + b for a, b in zip(x, y)))
        assert contains(lat, tuple(a - b for a, b in zip(x, y)))


# -------------------- quantize --------------------


def test_quantize_integer_lattice_rounds():
    z2 = construction_a(LinearCode(PrimeField(2), [[1, 0], [0, 1]]))
    assert tuple(quantize(z2, [0.4, -1.6])) == (0, -2)
    # half-integer ties round down
    assert tuple(quantize(z2, [0.5, -0.5])) == (0, -1)


def test_quantize_repetition_example():
    lat = construction_a(REP2)
    assert tuple(quantize(lat, [0.9, 1.1])) == (1, 1)


def test_quantize_fixes_lattice_points():
    rng = random.Random(23)
    lats = [
        construction_a(REP2),
        construction_pi_a([REP2, LinearCode(PrimeField(3), [[1, 2]])]),
        construction_pi_d(4, [LinearCode(ChainRing(2, 2), [[1, 3]])]),
    ]
    for lat in lats:
        pts = enumerate_box(lat, (-2 * lat.q, 2 * lat.q))
        for _ in range(100):
            pt = rng.choice(pts)
            assert tuple(quantize(lat, np.array(pt, dtype=float))) == pt


def test_quantize_is_nearest_against_enumeration():
    rng = random.Random(24)
    lats = [
        construction_a(REP2),
        construction_pi_a([REP2, LinearCode(PrimeField(3), [[1, 2]])]),
        construction_pi_d(12, [LinearCode(ChainRing(2, 2), [[1, 2]]), LinearCode(PrimeField(3), [[1, 1]])]),
    ]
    for lat in lats:
        q = lat.q
        for _ in range(60):
            y = np.array([rng.uniform(-q, q) for _ in range(lat.N)])
            got = quantize(lat, y)
            assert contains(lat, got)
            bounds = [(int(np.floor(c)) - q, int(np.ceil(c)) + q) for c in y]
            best = min(
                sum((a - b) ** 2 for a, b in zip(pt, y))
                for pt in enumerate_box(lat, bounds)
            )
            assert sum((a - b) ** 2 for a, b in zip(got, y)) <= best + 1e-9


def test_quantize_complex_nearest():
    ring = make_quadratic_ring(-1)
    ideal, _ = factor_rational_prime(ring, 5)
    lat = construction_a_ok(LinearCode(PrimeField(5), [[1, 2]]), ideal)
    rng = random.Random(25)
    pts = enumerate_box(lat, (-5, 5))
    for _ in range(30):
        y = np.array(
            [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2)]
        )
        got = quantize(lat, y)
        assert contains(lat, got)
        d_got = sum(abs(g.to_complex() - yj) ** 2 for g, yj in zip(got, y))
        best = min(
            sum(abs(p.to_complex() - yj) ** 2 for p, yj in zip(pt, y))
            for pt in pts
        )
        assert d_got <= best + 1e-9


def test_quantize_complex_fixes_lattice_points():
    ring = make_quadratic_ring(-15)
    ideal, _ = factor_rational_prime(ring, 17)
    lat = construction_a_ok(LinearCode(PrimeField(17), [[1]]), ideal)
    rng = random.Random(26)
    for _ in range(50):
        x = ring.element(rng.randrange(-4, 5), rng.randrange(-4, 5))
        got = quantize(lat, np.array([x.to_complex()]))
        assert got[0] == x


def test_quantize_refuses_entries_beyond_2_53():
    rep = construction_a(REP2)
    ok = construction_a_ok(LinearCode(PrimeField(7), [[1, 3, 5]]),
                           factor_rational_prime(make_quadratic_ring(-3), 7)[0])
    for lat, y in ((rep, [1e20, 0.0]), (ok, [1e19, 0, 0]), (ok, [0, 1j * 2.0**54, 0])):
        with pytest.raises(ValueError, match=r"\|y\| <= 2\*\*53"):
            quantize(lat, y)
    assert tuple(quantize(rep, [2.0**53, 0.0])) == (2**53, 0)
    assert contains(ok, quantize(ok, [2.0**53, 0, 0]))
    assert quantize(ok, [7.0 * 2**50, 0, 0])[0] == make_quadratic_ring(-3).element(7 * 2**50)


def test_quantize_refuses_complex_input_on_a_real_lattice():
    lat = construction_pi_a([REP2, LinearCode(PrimeField(3), [[1, 1]])])
    for y in ([0.6 + 5j, 3.4 - 2j], np.array([0.6, 3.4], dtype=complex)):
        with pytest.raises(ValueError, match="y must be real for a real-ambient lattice"):
            quantize(lat, y)
    assert tuple(quantize(lat, np.array([0.6 + 5j, 3.4 - 2j]).real)) == (2, 2)


def test_quantize_refuses_more_cosets_than_the_cap(monkeypatch):
    monkeypatch.setattr("latcf.lattices._COSET_CAP", 5)
    lat = construction_pi_a([REP2, LinearCode(PrimeField(3), [[1, 1]])])  # 2 x 3 cosets
    with pytest.raises(ValueError, match="^6 cosets exceed the enumeration cap$"):
        quantize(lat, [0.0, 0.0])


def test_quantize_takes_zero_rows():
    rep = construction_a(REP2)
    got = quantize(rep, np.zeros((0, 2)))
    assert got.dtype == np.int64 and got.shape == (0, 2)
    ok = construction_a_ok(LinearCode(PrimeField(7), [[1, 3, 5]]),
                           factor_rational_prime(make_quadratic_ring(-3), 7)[0])
    assert quantize(ok, np.zeros((0, 3), dtype=complex)) == []


# -------------------- mod_coarse --------------------


def test_mod_coarse_example():
    full3 = LinearCode(PrimeField(3), [[1, 0], [0, 1]])
    pair = LatticePair(construction_pi_a([REP2, full3]))
    assert pair.q == 6
    out = mod_coarse(pair, [7, -1])
    assert np.allclose(out, [1, 5])


def test_mod_coarse_idempotent_and_in_cell():
    rng = random.Random(27)
    pair = LatticePair(construction_a(REP2))
    for _ in range(300):
        v = np.array([rng.uniform(-20, 20) for _ in range(2)])
        out = mod_coarse(pair, v)
        assert np.all(out >= 0) and np.all(out < pair.q)
        assert np.allclose(mod_coarse(pair, out), out)
        # the drop is a coarse lattice point
        assert contains(coarse(pair), np.round(v - out))


def test_mod_coarse_respects_scale():
    pair = LatticePair(construction_a(REP2), scale=2.5)
    out = mod_coarse(pair, [5.0 + 0.3, -0.2])
    assert np.allclose(out, [0.3, 5.0 - 0.2])
    assert np.all(out < pair.q * pair.scale)


def test_mod_coarse_complex_input_keeps_the_two_mods_bits():
    # a real lattice reduces the two real parts of a complex input apart,
    # each np.mod written into its view of one complex output: bit for bit
    # the old np.mod(v.real, cell) + 1j * np.mod(v.imag, cell), dtype and
    # 0-d scalar included
    full3 = LinearCode(PrimeField(3), [[1, 0], [0, 1]])
    for scale in (1.0, 0.37, 2.5):
        pair = LatticePair(construction_pi_a([REP2, full3]), scale=scale)
        cell = pair.q * pair.scale
        edges = [0.0, -0.0, cell, -cell, 2 * cell, -7 * cell, np.nextafter(0.0, -1.0),
                 np.nextafter(cell, 0.0), np.nextafter(-cell, 0.0), -1e-300, 1e-300,
                 2.0**52, -(2.0**52), 2.0**52 - 0.5, -(2.0**52) + 0.5, 2.0**52 + 1.0, 2.0**53,
                 np.nextafter(2.0**52, 0.0), 3.5, -3.5]
        rng = np.random.default_rng(int(100 * scale))
        parts = np.array(edges + rng.uniform(-50, 50, 40).tolist() + (rng.uniform(-1, 1, 20) * 2.0**52).tolist())
        re, im = np.meshgrid(parts, parts[::-1])
        cases = [re + 1j * im, (re + 1j * im).T, (re + 1j * im)[::3, 1::2], np.zeros((0, 2), dtype=complex),
                 np.zeros(0, dtype=complex), np.array(complex(-0.0, -cell)), np.array(complex(-1e-17, 2.0**52))]
        for v in cases:
            want = np.mod(v.real, cell) + 1j * np.mod(v.imag, cell)
            got = mod_coarse(pair, v)
            assert type(got) is type(want) and got.dtype == want.dtype and np.shape(got) == np.shape(want)
            assert got.tobytes() == want.tobytes(), v


def test_mod_coarse_complex_cell():
    ring = make_quadratic_ring(-1)
    ideal, _ = factor_rational_prime(ring, 5)
    pair = LatticePair(construction_a_ok(LinearCode(PrimeField(5), [[1]]), ideal))
    rng = random.Random(28)
    for _ in range(100):
        v = np.array([complex(rng.uniform(-9, 9), rng.uniform(-9, 9))])
        out = mod_coarse(pair, v)
        diff = v - out
        # the subtracted part must be an ideal element: integer coords
        # in the ideal basis, recovered numerically
        from latcf.lattices import _reduced_ideal_basis

        u, w = _reduced_ideal_basis(ideal)
        B = np.array(
            [[u.to_complex().real, w.to_complex().real],
             [u.to_complex().imag, w.to_complex().imag]]
        )
        x = np.linalg.solve(B, [diff[0].real, diff[0].imag])
        assert np.allclose(x, np.round(x), atol=1e-9)
        k = np.round(x).astype(int)
        assert ideal.contains(u * int(k[0]) + w * int(k[1]))
        out2 = mod_coarse(pair, out)
        assert np.allclose(out2, out, atol=1e-9)


def test_mod_coarse_complex_takes_rows():
    ideal = factor_rational_prime(make_quadratic_ring(-3), 7)[0]
    pair = LatticePair(construction_a_ok(LinearCode(PrimeField(7), [[1, 3, 5]]), ideal), scale=0.37)
    v = np.random.default_rng(30).normal(size=(4, 3, 2)) @ [5, 5j]
    got = mod_coarse(pair, v)
    assert got.shape == (4, 3)
    for row, out in zip(v, got):
        assert np.allclose(mod_coarse(pair, row), out, rtol=0, atol=1e-12)


def test_nested_pair_coarse_inside_fine():
    lat = construction_pi_d(12, [LinearCode(ChainRing(2, 2), [[1, 2]]), LinearCode(PrimeField(3), [[1, 1]])])
    pair = LatticePair(lat)
    for pt in enumerate_box(coarse(pair), (-12, 12)):
        assert contains(lat, pt)


def test_mod_coarse_complex_matches_per_coordinate_solve():
    from latcf.lattices import _reduced_ideal_basis

    rng = np.random.default_rng(29)
    for d, p, scale in ((-1, 5, 1.0), (-3, 7, 0.37), (-15, 17, 2.5), (-1, 3, 1.0)):
        ideal = factor_rational_prime(make_quadratic_ring(d), p)[0]
        lat = construction_a_ok(LinearCode(ResidueFieldMap(ideal).field, [[1, 1, 1]]), ideal)
        pair = LatticePair(lat, scale=scale)
        u, w = _reduced_ideal_basis(ideal)
        zu, zw = u.to_complex(), w.to_complex()
        B = np.array([[zu.real, zw.real], [zu.imag, zw.imag]]) * scale
        for _ in range(100):
            v = 20 * (rng.normal(size=3) + 1j * rng.normal(size=3))
            want = np.empty_like(v)  # the per-coordinate loop it replaced
            for j, vj in enumerate(v):
                x = np.linalg.solve(B, np.array([vj.real, vj.imag]))
                re, im = B @ (x - np.floor(x))
                want[j] = complex(re, im)
            got = mod_coarse(pair, v)
            assert np.allclose(got, want, rtol=0, atol=1e-12)
            x = np.linalg.solve(B, np.stack([got.real, got.imag]))
            assert np.all(x >= -1e-12) and np.all(x < 1 + 1e-12)  # in the cell
