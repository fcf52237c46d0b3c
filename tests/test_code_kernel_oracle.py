"""Differential test of the Smith-form code kernel against the code it
replaced: Gaussian elimination over a field, an integer echelon form
rebuilt per call over Z/p^e, a rank count mod p, a codebook lookup for
small codes, and per-ambient bodies of `contains` and `enumerate_box`,
kept here verbatim as the oracle.  Membership, solvability, ranks and
box enumerations must agree exactly; messages must be identical where
the preimage is unique and a valid preimage elsewhere."""

import itertools
import json
import math
import numbers
import random
from pathlib import Path

import numpy as np
import pytest

from latcf import cli
from latcf.algebra import (
    ChainRing,
    GaloisField,
    PrimeField,
    ResidueFieldMap,
    factor_rational_prime,
    make_quadratic_ring,
)
from latcf.codes import (
    LinearCode,
    NestedCodeChain,
    _kernel,
    codebook,
    contains_codeword,
    encode,
    solve_encoding,
)
from latcf.lattices import (
    construction_a,
    construction_a_ok,
    construction_d,
    construction_pi_d,
    contains,
    enumerate_box,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"
_ENUM_CAP = 1 << 16
_BOX_CAP = 10**6


# ---------------------------------------------------------------------------
# the oracle: the three eliminations, the codebook switch and the
# per-ambient membership and enumeration bodies as they were
# ---------------------------------------------------------------------------


def reference_contains_codeword(code: LinearCode, x) -> bool:
    """Membership of x in the codebook: enumeration for small codes,
    linear solving above the enumeration cap."""
    if len(x) != code.N:
        raise ValueError(f"vector length {len(x)} != N={code.N}")
    A = code.alphabet
    x = tuple(int(v) % A.size for v in x)
    if code.codebook_bound() <= _ENUM_CAP:
        return x in codebook(code)
    return reference_solve_encoding(code, x) is not None


def reference_solve_encoding(code: LinearCode, x):
    """A message w with w*G = x, or None if x is not a codeword.

    When G has full row rank over a field the solution is unique, which
    is what function decoding relies on.
    """
    A = code.alphabet
    x = [int(v) % A.size for v in x]
    if isinstance(A, ChainRing) and A.e > 1:
        return _solve_mod(code, x)
    return _solve_field(code, x)


def _solve_field(code, x):
    # Gaussian elimination on G^T w = x over a field (prime or Galois)
    A = code.alphabet
    n, N = code.n, code.N
    aug = [[code.G[i][j] for i in range(n)] + [x[j]] for j in range(N)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, N) if aug[i][c] != A.zero), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        scale = A.inv(aug[r][c])
        aug[r] = [A.mul(scale, v) for v in aug[r]]
        for i in range(N):
            if i != r and aug[i][c] != A.zero:
                f = aug[i][c]
                aug[i] = [A.sub(v, A.mul(f, pv)) for v, pv in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == N:
            break
    for i in range(r, N):
        if aug[i][n] != A.zero:
            return None
    w = [A.zero] * n
    for row_idx, c in enumerate(pivots):
        w[c] = aug[row_idx][n]
    return tuple(w)


def _solve_mod(code, x):
    # w*G = x (mod m) as an integer problem: x must lie in the Z-row-span
    # of [G; m*I].  Echelonize with tracked row operations, then peel x
    # off greedily; the multipliers on the G rows give w.
    m = code.alphabet.size
    n, N = code.n, code.N
    rows = [list(r) for r in code.G]
    rows += [[m if j == i else 0 for j in range(N)] for i in range(N)]
    k = len(rows)
    U = [[int(j == i) for j in range(k)] for i in range(k)]
    pivots = []
    r = 0
    for c in range(N):
        while True:
            nz = [i for i in range(r, k) if rows[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(rows[i][c]))
            rows[r], rows[i0] = rows[i0], rows[r]
            U[r], U[i0] = U[i0], U[r]
            if rows[r][c] < 0:
                rows[r] = [-v for v in rows[r]]
                U[r] = [-v for v in U[r]]
            clean = True
            for i in range(r + 1, k):
                q = rows[i][c] // rows[r][c]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                if rows[i][c] != 0:
                    clean = False
            if clean:
                break
        if r < k and rows[r][c] != 0:
            pivots.append((r, c))
            r += 1
    xx = list(x)
    coeff = [0] * k
    for ri, c in pivots:
        if xx[c] % rows[ri][c] != 0:
            return None
        t = xx[c] // rows[ri][c]
        if t:
            xx = [a - t * b for a, b in zip(xx, rows[ri])]
            coeff = [a + t * b for a, b in zip(coeff, U[ri])]
    if any(xx):
        return None
    return tuple(c % m for c in coeff[:n])


def _rank_mod_p(rows, p):
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pr = next((i for i in range(rank, len(mat)) if mat[i][c] % p), None)
        if pr is None:
            continue
        mat[rank], mat[pr] = mat[pr], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(v - f * pv) % p for v, pv in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def reference_contains(lat, v) -> bool:
    """True iff the per-level reductions of v are all codewords."""
    if len(v) != lat.N:
        raise ValueError(f"vector length {len(v)} != N={lat.N}")
    if lat.ambient == "complex":
        ring = lat.ideal.ring
        xs = [ring.coerce(x) for x in v]
        sigma = tuple(lat.map.to_field(x) for x in xs)
        return reference_contains_codeword(lat.codes[0], sigma)
    w = []
    for x in v:
        if not isinstance(x, numbers.Integral) and not float(x).is_integer():
            raise ValueError(f"non-integer entry {x}")
        w.append(int(x))
    return all(
        reference_contains_codeword(code, [x % m for x in w])
        for code, m in zip(lat.codes, lat.moduli)
    )


def reference_enumerate_box(lat, bounds) -> list:
    """All lattice points with coordinates in the inclusive bounds.

    bounds is one (lo, hi) pair for every coordinate or a per-coordinate
    list; for complex lattices the pair bounds both integer coordinates
    of each entry.  Scans through `contains`, so it doubles as a test
    oracle only when checked against an independent construction.
    """
    if len(bounds) == 2 and isinstance(bounds[0], (int, float)):
        bounds = [tuple(bounds)] * lat.N
    bounds = [(int(lo), int(hi)) for lo, hi in bounds]
    if len(bounds) != lat.N:
        raise ValueError("need one bound pair per coordinate")
    if any(hi < lo for lo, hi in bounds):
        raise ValueError("empty bounds")
    sides = [hi - lo + 1 for lo, hi in bounds]
    count = math.prod(sides)
    if lat.ambient == "complex":
        count = count**2
    if count > _BOX_CAP:
        raise ValueError(f"box holds {count} points, cap is {_BOX_CAP}")
    if lat.ambient == "complex":
        ring = lat.ideal.ring
        ranges = []
        for lo, hi in bounds:
            ranges.append([ring.element(a, b) for a in range(lo, hi + 1) for b in range(lo, hi + 1)])
        return [pt for pt in itertools.product(*ranges) if reference_contains(lat, pt)]
    out = []
    for pt in itertools.product(*[range(lo, hi + 1) for lo, hi in bounds]):
        if reference_contains(lat, pt):
            out.append(tuple(pt))
    return out


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------

ALPHABETS = {
    "F2": PrimeField(2),
    "F3": PrimeField(3),
    "F5": PrimeField(5),
    "F7": PrimeField(7),
    "Z4": ChainRing(2, 2),
    "Z8": ChainRing(2, 3),
    "Z9": ChainRing(3, 2),
    "Z25": ChainRing(5, 2),
    "GF4": GaloisField(2, 2, reduction=(1, 1)),
    "GF9": GaloisField(3, 2, reduction=(1, 1)),
    "GF49": GaloisField(7, 2, reduction=(3, 0)),
}


def _generators(rng, A, N):
    """Random, rank-deficient, non-free, zero and full generator sets."""
    size = A.size
    p = A.p
    for n in range(1, min(N, 3) + 1):
        yield [[rng.randrange(size) for _ in range(N)] for _ in range(n)]
    row = [rng.randrange(size) for _ in range(N)]
    yield [row, [A.mul(rng.randrange(1, size), x) for x in row]]  # dependent rows
    if A.char != p:  # zero divisors in the rows: a non-free chain-ring code
        yield [[p * rng.randrange(size) % size for _ in range(N)] for _ in range(2)]
        yield [[rng.randrange(size) for _ in range(N)], [p * x % size for x in row]]
    yield []
    yield [[int(i == j) for j in range(N)] for i in range(N)]


def _codes():
    rng = random.Random(51)
    for name, A in ALPHABETS.items():
        for N in (1, 2, 3, 4):
            for rows in _generators(rng, A, N):
                if A.size ** len(rows) <= 4096:
                    yield name, LinearCode(A, rows, N=N)


def _probes(rng, code, count):
    A = code.alphabet
    for _ in range(count):
        yield tuple(rng.randrange(A.size) for _ in range(code.N))
        w = [rng.randrange(A.size) for _ in range(code.n)]
        yield encode(code, w)


def _check_code(code, probes):
    unique = len(codebook(code)) == code.alphabet.size**code.n
    members = 0
    for x in probes:
        want = reference_solve_encoding(code, x)
        assert contains_codeword(code, x) == reference_contains_codeword(code, x)
        assert contains_codeword(code, x) == (want is not None)
        got = solve_encoding(code, x)
        assert (got is None) == (want is None), (code.G, x)
        if got is None:
            continue
        members += 1
        assert all(type(v) is int for v in got)
        if unique:
            assert got == want, (code.G, x)
        else:
            assert encode(code, got) == tuple(int(v) % code.alphabet.size for v in x)
    return members


def test_codes_agree_with_the_eliminations():
    rng = random.Random(52)
    members = total = 0
    names = set()
    for name, code in _codes():
        names.add(name)
        probes = list(_probes(rng, code, 12))
        members += _check_code(code, probes)
        total += len(probes)
    assert names == set(ALPHABETS)
    assert 0 < members < total  # both outcomes occur


def test_large_prime_codes_agree_with_the_eliminations():
    # residues near 2^31 - 1: int64 sums of N = 8 products would overflow
    p = 2**31 - 1
    rng = random.Random(53)
    A = PrimeField(p)
    code = LinearCode(A, [[p - 1 - rng.randrange(4) for _ in range(8)] for _ in range(3)])
    assert code.codebook_bound() > _ENUM_CAP  # the oracle solves, it does not enumerate
    lat = construction_a(code)
    for _ in range(40):
        w = [p - 1 - rng.randrange(3) for _ in range(3)]
        for x in (encode(code, w), tuple(p - 1 - rng.randrange(3) for _ in range(8))):
            want = reference_solve_encoding(code, x)
            assert solve_encoding(code, x) == want
            assert contains_codeword(code, x) == (want is not None)
            v = [c + p * rng.randrange(-3, 4) for c in x]
            assert contains(lat, v) == reference_contains(lat, v) == (want is not None)


def test_ranks_agree_with_the_elimination():
    rng = random.Random(54)
    for _ in range(500):
        p = rng.choice((2, 3, 5, 7))
        n, N = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[rng.randrange(p) for _ in range(N)] for _ in range(n)]
        if rng.random() < 0.3:
            rows.append([sum(r[j] for r in rows) % p for j in range(N)])
        assert _kernel(LinearCode(PrimeField(p), rows)).rank == _rank_mod_p(rows, p)


def test_nested_chain_rejects_what_the_elimination_rejects():
    rng = random.Random(55)
    for _ in range(200):
        p, N = rng.choice((2, 3)), rng.randrange(1, 5)
        basis = [[rng.randrange(p) for _ in range(N)] for _ in range(N)]
        if _rank_mod_p(basis, p) == N:
            assert NestedCodeChain(p, basis, (N,)).N == N
        else:
            with pytest.raises(ValueError, match="does not span"):
                NestedCodeChain(p, basis, (N,))


# ---------------------------------------------------------------------------
# lattices: all five constructions, A_OK split, inert, ramified and d=-15
# ---------------------------------------------------------------------------


def _workload(name):
    doc = json.loads((WORKLOADS / f"{name}.json").read_text(encoding="utf-8"))
    return cli.build_construction(doc["construction"])


def _a_ok(d, p, rows):
    ideal = factor_rational_prime(make_quadratic_ring(d), p)[0]
    return construction_a_ok(LinearCode(ResidueFieldMap(ideal).field, rows), ideal)


def _lattices():
    chain = NestedCodeChain(2, [(1, 1, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)], (1, 3))
    z8 = LinearCode(ChainRing(2, 3), [[1, 2, 4], [0, 2, 6]])
    return {
        "A F5 [3,2]": construction_a(LinearCode(PrimeField(5), [[1, 0, 2], [0, 1, 3]])),
        "A F3 zero": construction_a(LinearCode(PrimeField(3), [], N=2)),
        "D lifted 2-level": construction_d(chain, 2),
        "piA sim-small": _workload("sim-small"),
        "piD sim-cosets": _workload("sim-cosets"),
        "piD Z8 x F5": construction_pi_d(40, [z8, LinearCode(PrimeField(5), [[1, 4, 2]])]),
        "A_OK d=-3 p=7 split (ok-relay)": _workload("ok-relay"),
        "A_OK d=-1 p=3 inert": _a_ok(-1, 3, [[1, 4]]),
        "A_OK d=-2 p=2 ramified": _a_ok(-2, 2, [[1, 1, 1]]),
        "A_OK d=-15 p=17": _a_ok(-15, 17, [[1, 6]]),
        "A_OK d=-7 p=2 split": _a_ok(-7, 2, [[1, 1, 0], [0, 1, 1]]),
    }


LATTICES = _lattices()


def _points(lat, rng, count):
    """Lattice points moved by small offsets, so both verdicts occur."""
    code = lat.codes[0]
    for _ in range(count):
        w = [rng.randrange(code.alphabet.size) for _ in range(code.n)]
        word = encode(code, w)
        if lat.ambient == "complex":
            ring, (u, v) = lat.ideal.ring, lat.ideal.basis()
            pt = [lat.map.to_ring(c) + u * rng.randrange(-3, 4) + v * rng.randrange(-3, 4)
                  for c in word]
            if rng.random() < 0.5:
                j = rng.randrange(lat.N)
                pt[j] = pt[j] + ring.element(rng.randrange(-2, 3), rng.randrange(-2, 3))
        else:
            words = [encode(c, [rng.randrange(c.alphabet.size) for _ in range(c.n)]) for c in lat.codes]
            pt = [lat.map.forward(col) + lat.q * rng.randrange(-3, 4) for col in zip(*words)]
            if rng.random() < 0.5:
                j = rng.randrange(lat.N)
                pt[j] += rng.randrange(-2, 3)
        yield tuple(pt)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_contains_agrees_with_the_per_level_codebooks(name):
    lat = LATTICES[name]
    rng = random.Random(sum(map(ord, name)))
    verdicts = []
    for pt in _points(lat, rng, 400):
        got = contains(lat, pt)
        assert got == reference_contains(lat, pt), pt
        verdicts.append(got)
    if lat.ambient == "real":
        arr = np.array(pt, dtype=np.int64)
        assert contains(lat, arr) == reference_contains(lat, arr)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_enumerate_box_is_the_scanned_box(name):
    lat = LATTICES[name]
    dims = lat.N * (2 if lat.ambient == "complex" else 1)
    side = min(12, max(2, int(3000 ** (1 / dims))))
    lo = -side // 2
    for bounds in ((lo, lo + side - 1), [(lo + j, lo + j + side - 1) for j in range(lat.N)]):
        got, want = enumerate_box(lat, bounds), reference_enumerate_box(lat, bounds)
        assert got == want
        assert [tuple(map(type, pt)) for pt in got] == [tuple(map(type, pt)) for pt in want]
        if lat.ambient == "complex":
            assert all(type(x.a) is int and type(x.b) is int for pt in got for x in pt)


def test_enumerate_box_spanning_several_blocks():
    # Z^3 keeps every point, so a point lost at a block edge shows; the
    # boxes hold 41^3 = 68921 and 17^4 = 83521 points, two blocks of
    # 2^17 // 3 offsets (3 coordinates, no syndrome) and four of 2^17 // 5
    # (4 coordinates, 1 syndrome)
    full = construction_a(LinearCode(PrimeField(3), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    for lat, side in ((full, 41), (LATTICES["A_OK d=-15 p=17"], 17)):
        bounds = [(-side // 2 + j, -side // 2 + j + side - 1) for j in range(lat.N)]
        assert enumerate_box(lat, bounds) == reference_enumerate_box(lat, bounds)
