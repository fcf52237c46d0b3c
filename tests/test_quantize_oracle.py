"""Differential test of `quantize` and `_coset_reps` against the code they
replaced: a coset table filled one `forward_vec` call per codeword
combination, and a per-codeword, per-coordinate A_OK quantizer scoring
QuadInt candidates, kept here verbatim as the oracle.  A second oracle,
`cosetwise_quantize`, is the quantizer that scored every coset on every
coordinate (cosets x N rounding over q Z, cosets x N x 16 candidates over
an ideal) before quantize moved to one table per (coordinate, residue)
and a gather-sum per coset.  The closest-point search that serves
many-coset real lattices (`_closest_rows`) is held to the first oracle
directly, below the crossover too, on rows built to tie and on rows near
2**52 and 2**53.  Results must agree exactly: the same int64 points for
real lattices, the same QuadInt tuples for A_OK."""

import itertools
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from latcf import cli
from latcf.algebra import (
    ChainRing,
    PrimeField,
    PrimeIdeal,
    QuadInt,
    ResidueFieldMap,
    factor_rational_prime,
    make_quadratic_ring,
)
from latcf.codes import LinearCode, NestedCodeChain, codebook
from latcf.lattices import (
    _TABLE_COSETS,
    LatticeDescriptor,
    _closest_rows,
    _coset_index,
    _coset_reps,
    _gather_sum,
    _ideal_geometry,
    _table_mod_ideal,
    _table_mod_q,
    construction_a,
    construction_a_ok,
    construction_d,
    construction_pi_a,
    construction_pi_d,
    enumerate_box,
    quantize,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"
_COSET_CAP = 10**6


# ---------------------------------------------------------------------------
# the oracle: the coset table and both quantizers as they were
# ---------------------------------------------------------------------------


def reference_coset_reps(lat):
    """All codebook cosets as integer representatives in [0, q)^N."""
    if lat._cosets is None:
        books = [list(codebook(c)) for c in lat.codes]
        total = math.prod(len(b) for b in books)
        if total > _COSET_CAP:
            raise ValueError(f"{total} cosets exceed the enumeration cap")
        reps = np.empty((total, lat.N), dtype=np.int64)
        for i, combo in enumerate(itertools.product(*books)):
            reps[i] = lat.map.forward_vec([np.array(c) for c in combo])
        lat._cosets = reps
    return lat._cosets


def reference_quantize(lat, y):
    if lat.ambient == "complex":
        return _quantize_complex(lat, y)
    y = np.asarray(y, dtype=float)
    if y.shape != (lat.N,):
        raise ValueError(f"expected shape ({lat.N},), got {y.shape}")
    reps = reference_coset_reps(lat)
    q = lat.q
    steps = np.ceil((y[None, :] - reps) / q - 0.5)
    cands = reps + q * steps.astype(np.int64)
    d2 = ((cands - y[None, :]) ** 2).sum(axis=1)
    dmin = float(d2.min())
    tol = 1e-9 * max(1.0, dmin)
    tied = np.flatnonzero(d2 <= dmin + tol)
    best = min(tied, key=lambda i: tuple(cands[i]))
    return cands[best].copy()


def _reduced_ideal_basis(ideal: PrimeIdeal):
    # stops on a repeated (u, v) too: a float mu of +-1/2 can round to +-1
    # both ways and flip the basis forever (Z[w] at p = 13, for one)
    u, v = ideal.basis()
    zu, zv = u.to_complex(), v.to_complex()
    seen = set()
    while True:
        if abs(zu) > abs(zv):
            u, v, zu, zv = v, u, zv, zu
        mu = round((zv * zu.conjugate()).real / abs(zu) ** 2)
        if mu == 0 or (u, v) in seen:
            return u, v
        seen.add((u, v))
        v = v - u * mu
        zv = v.to_complex()


def _nearest_ideal_point(ideal: PrimeIdeal, w: complex) -> QuadInt:
    u, v = _reduced_ideal_basis(ideal)
    zu, zv = u.to_complex(), v.to_complex()
    B = np.array([[zu.real, zv.real], [zu.imag, zv.imag]])
    x = np.linalg.solve(B, np.array([w.real, w.imag]))
    k1, k2 = int(np.floor(x[0])), int(np.floor(x[1]))
    best = None
    for d1 in range(-1, 3):
        for d2 in range(-1, 3):
            cand = u * (k1 + d1) + v * (k2 + d2)
            dist = abs(cand.to_complex() - w)
            key = (round(dist, 12), cand.a, cand.b)
            if best is None or key < best[0]:
                best = (key, cand)
    return best[1]


def _quantize_complex(lat, y):
    y = np.asarray(y, dtype=complex)
    if y.shape != (lat.N,):
        raise ValueError(f"expected shape ({lat.N},), got {y.shape}")
    rm = lat.map
    best = None
    for cw in codebook(lat.codes[0]):
        reps = [rm.to_ring(c) for c in cw]
        cand = [r + _nearest_ideal_point(lat.ideal, yj - r.to_complex())
                for r, yj in zip(reps, y)]
        d2 = sum(abs(c.to_complex() - yj) ** 2 for c, yj in zip(cand, y))
        key = (round(d2, 9),) + tuple(x for c in cand for x in (c.a, c.b))
        if best is None or key < best[0]:
            best = (key, cand)
    return tuple(best[1])


# ---------------------------------------------------------------------------
# the coset-wise quantizer, verbatim: every coset scored on every coordinate
# ---------------------------------------------------------------------------


def cosetwise_quantize(lat: LatticeDescriptor, y):
    """A nearest lattice point to y: an int64 array, or a tuple of QuadInt
    for A_OK.  Each coset rep + Lambda_c^N gives its nearest point per
    coordinate (rounding over q Z, a Babai floor and its 4x4 neighbourhood
    over an ideal).  One tie rule, per coordinate and across cosets:
    squared distances within 1e-9*max(1, dmin) of the minimum tie, and the
    lexicographically smallest integer coordinates win (ring coordinates
    (a, b) for A_OK; real coordinate ties round down).  Entries must be
    finite with |y_j| <= 2**53, beyond which float64 misses integer points.
    """
    complex_ambient = lat.ambient == "complex"
    y = np.asarray(y, dtype=complex if complex_ambient else float)
    if y.shape != (lat.N,):
        raise ValueError(f"expected shape ({lat.N},), got {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    if (np.abs(y) > 2.0**53).any():
        raise ValueError("y must satisfy |y| <= 2**53")
    reps = _coset_reps(lat)
    cands, d2 = (_nearest_mod_ideal if complex_ambient else _nearest_mod_q)(lat, reps, y)
    dmin = float(d2.min())
    tol = 1e-9 * max(1.0, dmin)
    tied = np.flatnonzero(d2 <= dmin + tol)
    best = min(tied, key=lambda i: tuple(cands[i].ravel()))
    if complex_ambient:
        return tuple(lat.ideal.ring.element(a, b) for a, b in cands[best])
    return cands[best].copy()


def _nearest_mod_q(lat: LatticeDescriptor, reps, y):
    steps = np.ceil((y[None, :] - reps) / lat.q - 0.5)
    cands = reps + lat.q * steps.astype(np.int64)
    return cands, ((cands - y[None, :]) ** 2).sum(axis=1)


def _nearest_mod_ideal(lat: LatticeDescriptor, reps, y):
    # ResidueFieldMap: index i0 + i1*p stands for the ring element i0 + i1*xi
    xi = lat.ideal.ring.xi_numeric
    b, a = np.divmod(reps, lat.ideal.p)
    basis, B = _ideal_geometry(lat)[:2]
    w = (y - (a + b * xi)).ravel()
    k = np.floor(np.linalg.solve(B, [w.real, w.imag]))
    base = np.stack([a, b], axis=-1) + (k.T.astype(np.int64) @ basis).reshape(a.shape + (2,))
    offsets = (np.indices((4, 4)).reshape(2, 16).T - 1) @ basis
    offsets = offsets[np.lexsort(offsets.T[::-1])]  # ring coordinates, lexicographic
    cands = base[:, :, None, :] + offsets  # cosets x N x 16 x (a, b)
    diff = cands[..., 0] + cands[..., 1] * xi - y[:, None]
    dist = diff.real**2 + diff.imag**2
    dmin = dist.min(axis=2, keepdims=True)
    pick = (dist <= dmin + 1e-9 * np.maximum(1.0, dmin)).argmax(axis=2)
    dist = np.take_along_axis(dist, pick[..., None], axis=2)[..., 0]
    return base + offsets[pick], dist.cumsum(axis=1)[:, -1]  # summed in coordinate order


# ---------------------------------------------------------------------------
# lattices, each built twice so the oracle never reads the new table
# ---------------------------------------------------------------------------


def _workload(name):
    doc = json.loads((WORKLOADS / f"{name}.json").read_text(encoding="utf-8"))
    return lambda: cli.build_construction(doc["construction"])


def _lifted_d():
    chain = NestedCodeChain(2, [(1, 1, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)], (1, 3))
    return construction_d(chain, 2)


def _a_ok(d, p, rows):
    ideal = factor_rational_prime(make_quadratic_ring(d), p)[0]
    field = ResidueFieldMap(ideal).field
    return lambda: construction_a_ok(LinearCode(field, rows), ideal)


REAL = {
    "A F5 [3,2]": lambda: construction_a(LinearCode(PrimeField(5), [[1, 0, 2], [0, 1, 3]])),
    "D lifted 2-level": _lifted_d,
    "piA sim-small": _workload("sim-small"),
    "piD sim-cosets": _workload("sim-cosets"),
}

A_OK = {
    "d=-3 p=7 split": _a_ok(-3, 7, [[1, 3, 5]]),
    "d=-1 p=5 split": _a_ok(-1, 5, [[1, 2]]),
    "d=-7 p=2 split": _a_ok(-7, 2, [[1, 1, 0], [0, 1, 1]]),
    "d=-1 p=3 inert": _a_ok(-1, 3, [[1, 4]]),
    "d=-2 p=2 ramified": _a_ok(-2, 2, [[1, 1, 1]]),
    "d=-15 p=17 not a PID": _a_ok(-15, 17, [[1, 6]]),
}


def _real_inputs(lat, rng, per_class):
    N, q = lat.N, lat.q
    for scale in (0.3, 1.0, q, 10.0 * q):
        for _ in range(per_class):
            yield rng.normal(0.0, scale, N)
    for _ in range(per_class):  # half-integer grid: exact coordinate and coset ties
        yield rng.integers(-2 * q, 2 * q + 1, N) / 2.0
    yield np.zeros(N)


def _complex_inputs(lat, rng, per_class):
    N, ring = lat.N, lat.ideal.ring
    for scale in (0.3, 1.0, lat.ideal.p, 10.0 * lat.ideal.p):
        for _ in range(per_class):
            yield scale * (rng.normal(size=N) + 1j * rng.normal(size=N))
    for _ in range(per_class):  # halves of ring elements: exact ties
        ab = rng.integers(-2 * lat.ideal.p, 2 * lat.ideal.p + 1, (N, 2))
        yield np.array([ring.element(a, b).to_complex() / 2 for a, b in ab])
    yield np.zeros(N, dtype=complex)


@pytest.mark.parametrize("name", sorted(REAL))
def test_real_quantize_matches_reference(name):
    lat, ref = REAL[name](), REAL[name]()
    rng = np.random.default_rng(sum(map(ord, name)))
    per_class = 60 if len(_coset_reps(lat)) > 1000 else 400
    for y in _real_inputs(lat, rng, per_class):
        got, want = quantize(lat, y), reference_quantize(ref, y)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want), y


@pytest.mark.parametrize("name", sorted(A_OK))
def test_a_ok_quantize_matches_reference(name):
    lat, ref = A_OK[name](), A_OK[name]()
    rng = np.random.default_rng(sum(map(ord, name)))
    per_class = max(8, 700 // len(codebook(lat.codes[0])) // lat.N)
    for y in _complex_inputs(lat, rng, per_class):
        got, want = quantize(lat, y), reference_quantize(ref, y)
        assert type(got) is tuple and all(type(x) is QuadInt for x in got)
        assert all(type(x.a) is int and type(x.b) is int for x in got)
        assert got == want, y


@pytest.mark.parametrize("make", [_workload("sim-cosets"), _lifted_d],
                         ids=["piD sim-cosets", "D lifted 2-level"])
def test_coset_table_matches_reference(make):
    got, want = _coset_reps(make()), reference_coset_reps(make())
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_a_ok_coset_table_holds_residue_indices():
    lat = A_OK["d=-1 p=3 inert"]()
    assert np.array_equal(_coset_reps(lat), np.array(list(codebook(lat.codes[0]))))


def test_a_ok_exact_ties_go_to_smallest_ring_coordinates():
    ring = make_quadratic_ring(-1)
    ideal = factor_rational_prime(ring, 5)[0]  # (5, i - 2), principal: (-2 + i)
    # within one coset: -1 + i/2 is the midpoint of 0 and -2 + i, the only
    # two points of the ideal at distance sqrt(5)/2
    y = np.array([-1 + 0.5j])
    for q in (quantize, reference_quantize):
        assert q(construction_a_ok(LinearCode(PrimeField(5), [], N=1), ideal), y) == (
            ring.element(-2, 1),)
    # across cosets: the full code gives all of Z[i], and -1/2 + i/2 is
    # equally far from 0, -1, i and -1 + i, each in its own coset
    y = np.array([-0.5 + 0.5j])
    for q in (quantize, reference_quantize):
        assert q(construction_a_ok(LinearCode(PrimeField(5), [[1]]), ideal), y) == (
            ring.element(-1, 0),)


def test_non_finite_input_is_refused_on_both_ambients():
    real, ok = REAL["piA sim-small"](), A_OK["d=-3 p=7 split"]()
    for y in ([math.inf, 0.0], [math.nan, 0.0]):
        with pytest.raises(ValueError, match="y must be finite"):
            quantize(real, y)
    for y in ([math.inf, 0, 0], [complex(0, math.nan), 0, 0]):
        with pytest.raises(ValueError, match="y must be finite"):
            quantize(ok, y)


# ---------------------------------------------------------------------------
# the per-(coordinate, residue) table against the coset-wise quantizer
# ---------------------------------------------------------------------------


def _zero_code_a(p, N):
    return lambda: construction_a(LinearCode(PrimeField(p), [], N=N))


def _non_free_pi_d():
    # Z4 and Z9 levels spanned by zero divisors: 2 * 3 = 6 cosets, 36 residues
    z4 = LinearCode(ChainRing(2, 2), [[2, 2, 0, 2, 2, 0, 0, 2]])
    z9 = LinearCode(ChainRing(3, 2), [[3, 0, 6, 3, 3, 0, 3, 6]])
    return construction_pi_d(36, [z4, z9])


def _a_ok_zero_code(d, p, N):
    ideal = factor_rational_prime(make_quadratic_ring(d), p)[0]
    field = ResidueFieldMap(ideal).field
    return lambda: construction_a_ok(LinearCode(field, [], N=N), ideal)


MORE_REAL = {
    "A zero code F_(2^31-1) N=8": _zero_code_a(2**31 - 1, 8),
    "piD q=36 non-free Z4 x Z9": _non_free_pi_d,
}

MORE_A_OK = {
    "d=-3 p=7 N=8": _a_ok(-3, 7, [[1, 3, 5, 2, 0, 1, 4, 6], [0, 1, 2, 3, 4, 5, 6, 1]]),
    "d=-1 p=3 inert zero code": _a_ok_zero_code(-1, 3, 2),
}


@pytest.mark.parametrize("name", sorted({**REAL, **MORE_REAL}))
def test_real_quantize_matches_cosetwise(name):
    make = {**REAL, **MORE_REAL}[name]
    lat, ref = make(), make()
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    per_class = 60 if len(_coset_reps(lat)) > 1000 else 400
    for y in _real_inputs(lat, rng, per_class):
        got, want = quantize(lat, y), cosetwise_quantize(ref, y)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want), y


@pytest.mark.parametrize("name", sorted({**A_OK, **MORE_A_OK}))
def test_a_ok_quantize_matches_cosetwise(name):
    make = {**A_OK, **MORE_A_OK}[name]
    lat, ref = make(), make()
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    per_class = max(60, 2000 // len(_coset_reps(lat)) // lat.N)
    for y in _complex_inputs(lat, rng, per_class):
        got = quantize(lat, y)
        assert all(type(x.a) is int and type(x.b) is int for x in got)
        assert got == cosetwise_quantize(ref, y), y


def test_real_quantize_matches_cosetwise_on_fine_grids():
    # quarter- and third-integer grids put many cosets within the tie tolerance
    for make in (_workload("sim-cosets"), _non_free_pi_d, REAL["A F5 [3,2]"]):
        lat, ref = make(), make()
        rng = np.random.default_rng(7)
        for den in (3, 4):
            for _ in range(150):
                y = rng.integers(-2 * den * lat.q, 2 * den * lat.q + 1, lat.N) / den
                assert np.array_equal(quantize(lat, y), cosetwise_quantize(ref, y)), y


@pytest.mark.parametrize("make, shape", [
    (REAL["piA sim-small"], (1, 6)),       # 6 residues, 6 cosets
    (REAL["piD sim-cosets"], (1, 12)),     # 12 residues, 6912 cosets
    (A_OK["d=-3 p=7 split"], (1, 7)),      # 7 residues, 7 cosets
    (MORE_A_OK["d=-3 p=7 N=8"], (1, 7)),   # 7 residues, 49 cosets
    (_non_free_pi_d, (8, 6)),              # 36 residues, 6 cosets
    (MORE_REAL["A zero code F_(2^31-1) N=8"], (8, 1)),
    (MORE_A_OK["d=-1 p=3 inert zero code"], (2, 1)),  # 9 residues, 1 coset
])
def test_table_is_never_wider_than_the_coset_count(make, shape):
    lat = make()
    residues, index = _coset_index(lat)
    assert residues.shape == shape
    assert index.shape == (lat.N, len(_coset_reps(lat)))
    assert index.min() >= 0 and index.max() < lat.N * shape[1]
    # each entry points at its coset's own residue at that coordinate
    assert np.array_equal(np.broadcast_to(residues, (lat.N, shape[1])).ravel()[index], _coset_reps(lat).T)


@pytest.mark.parametrize("name", ["d=-3 p=7 N=8", "d=-7 p=2 split"])
def test_a_ok_coset_distances_are_bit_identical(name):
    # coordinate-order sums, as the coset-wise cumsum: also for N >= 8
    lat = {**A_OK, **MORE_A_OK}[name]()
    residues, index = _coset_index(lat)
    rng = np.random.default_rng(3)
    for y in _complex_inputs(lat, rng, 20):
        got = _gather_sum(_table_mod_ideal(lat, y[:, None, None])[1], index)[:, 0]
        assert np.array_equal(got, _nearest_mod_ideal(lat, _coset_reps(lat), y)[1]), y


def test_real_coset_distances_sum_in_coordinate_order():
    lat = REAL["piD sim-cosets"]()
    residues, index = _coset_index(lat)
    rng = np.random.default_rng(4)
    for y in _real_inputs(lat, rng, 5):
        cands = _nearest_mod_q(lat, _coset_reps(lat), y)[0]
        want = ((cands - y) ** 2).cumsum(axis=1)[:, -1]
        got = _gather_sum(_table_mod_q(lat, residues, y[:, None])[1][..., None], index)[:, 0]
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the closest-point search against the oracle
# ---------------------------------------------------------------------------


def _systematic(alphabet, k, N, seed):
    rng = np.random.default_rng(seed)
    return LinearCode(alphabet, [[int(i == j) for j in range(k)] + rng.integers(0, alphabet.size, N - k).tolist()
                                 for i in range(k)])


MANY = {  # past the crossover, as sim-cosets' 6,912 cosets are
    "piA F2 [8,4] x F3 [8,6]": lambda: construction_pi_a(  # 11,664 cosets
        [_systematic(PrimeField(2), 4, 8, 1), _systematic(PrimeField(3), 6, 8, 2)]),
    "piD q=36 Z4 [6,3] x Z9 [6,3]": lambda: construction_pi_d(  # 46,656 cosets
        36, [_systematic(ChainRing(2, 2), 3, 6, 3), _systematic(ChainRing(3, 2), 3, 6, 4)]),
}


def _tie_rows(lat):
    """The midpoints v/2 of the shortest nonzero lattice points v in the
    box [-b, b]^N, b <= 4 as large as 10**6 points allow: as near to 0 as
    to v when v is a shortest vector, and v is in another coset unless it
    lies in q Z^N.  Also each midpoint moved by q e_0."""
    b = min(4, int(((10**6) ** (1 / lat.N) - 1) // 2))
    box = np.array(enumerate_box(lat, (-b, b)))
    norms = (box**2).sum(axis=1)
    mids = box[norms == min(norms[norms > 0], default=-1)] / 2.0  # none when the box holds only 0
    return np.concatenate([mids, mids + lat.q * np.eye(lat.N)[0]])


def _huge_rows(lat, rng, count):
    """Rows whose coordinates sit near +-2**52 (on the half-integer grid)
    and +-2**53 (integers below it), all or some of them."""
    N, q = lat.N, lat.q
    rows = []
    for _ in range(count):
        sign = rng.choice([-1.0, 1.0], N)
        at52 = 2.0**52 + rng.integers(-3 * q, 3 * q + 1, N) + rng.integers(0, 2, N) / 2.0
        at53 = 2.0**53 - rng.integers(0, 3 * q + 1, N)
        small = rng.normal(0.0, q, N)
        for big in (at52, at53):
            rows += [sign * big, np.where(rng.random(N) < 0.3, sign * big, small)]
    return np.array(rows + [np.full(N, 2.0**53), np.full(N, -(2.0**53))])


@pytest.mark.parametrize("name", sorted({**REAL, **MORE_REAL, **MANY}))
def test_search_matches_reference(name):
    make = {**REAL, **MORE_REAL, **MANY}[name]
    lat, ref = make(), make()
    rng = np.random.default_rng(sum(map(ord, name)) + 3)
    grids = [rng.integers(-2 * den * lat.q, 2 * den * lat.q + 1, (40, lat.N)) / den for den in (3, 4)]
    rows = np.concatenate([np.array(list(_real_inputs(lat, rng, 30))), *grids, _tie_rows(lat), _huge_rows(lat, rng, 10)])
    assert np.abs(rows).max() == 2.0**53
    got = _closest_rows(lat, rows)
    assert got.dtype == np.int64 and got.shape == rows.shape
    for y, x in zip(rows, got):
        assert np.array_equal(x, reference_quantize(ref, y)), y
        assert np.array_equal(_closest_rows(lat, y[None])[0], x), y  # the walk's own descent


@pytest.mark.parametrize("name", sorted(MANY) + ["piD sim-cosets", "A F5 [3,2]"])
def test_tie_rows_tie_cosets(name):
    lat = {**REAL, **MANY}[name]()
    ties = 0
    for y in _tie_rows(lat):
        d2 = _nearest_mod_q(lat, reference_coset_reps(lat), y)[1]
        ties += np.count_nonzero(d2 <= d2.min() + 1e-9 * max(1.0, d2.min())) > 1
    assert ties >= 2


def test_many_coset_lattices_are_searched():
    for make in MANY.values():
        lat = make()
        assert math.prod(c.codebook_bound() for c in lat.codes) > _TABLE_COSETS
        assert np.array_equal(quantize(lat, np.full(lat.N, 0.5)), _closest_rows(lat, np.full((1, lat.N), 0.5))[0])


def test_zero_code_over_a_large_prime_quantizes_in_bounded_memory():
    tracemalloc.start()
    try:
        lat = MORE_REAL["A zero code F_(2^31-1) N=8"]()
        y = np.full(8, 1.5 * (2**31 - 1))
        got = quantize(lat, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, np.full(8, 2**31 - 1))  # the tie rounds down
    assert peak < 100 * 2**20, peak


# ---------------------------------------------------------------------------
# rows: one call over many rows against the oracle row by row
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted({**REAL, **MORE_REAL}))
def test_real_rows_match_reference_row_by_row(name):
    make = {**REAL, **MORE_REAL}[name]
    lat, ref = make(), make()
    rng = np.random.default_rng(sum(map(ord, name)) + 2)
    rows = np.array(list(_real_inputs(lat, rng, 20)))  # ties on the half-integer grid
    got = quantize(lat, rows)
    assert got.dtype == np.int64 and got.shape == rows.shape
    for y, x in zip(rows, got):
        assert np.array_equal(x, reference_quantize(ref, y)), y
        assert np.array_equal(_closest_rows(lat, y[None])[0], x), y  # the walk's own descent


@pytest.mark.parametrize("name", sorted({**A_OK, **MORE_A_OK}))
def test_a_ok_rows_match_reference_row_by_row(name):
    make = {**A_OK, **MORE_A_OK}[name]
    lat, ref = make(), make()
    rng = np.random.default_rng(sum(map(ord, name)) + 2)
    rows = np.array(list(_complex_inputs(lat, rng, 6)))
    got = quantize(lat, rows)
    assert type(got) is list and len(got) == len(rows)
    for y, x in zip(rows, got):
        assert x == reference_quantize(ref, y), y


def test_rows_keep_the_shape_checks():
    lat = REAL["piA sim-small"]()
    for bad in (np.zeros((2, 3)), np.zeros((2, 2, 2)), np.zeros(3)):
        with pytest.raises(ValueError, match="expected shape"):
            quantize(lat, bad)
    with pytest.raises(ValueError, match="y must be finite"):
        quantize(lat, [[0.0, 0.0], [math.nan, 0.0]])
    with pytest.raises(ValueError, match="2\\*\\*53"):
        quantize(lat, [[0.0, 0.0], [2.0**54, 0.0]])


def test_a_ok_ideal_geometry_is_built_once(monkeypatch):
    import latcf.lattices as lattices

    lat = A_OK["d=-3 p=7 split"]()
    pair = lattices.LatticePair(lat, scale=0.5)
    calls = []
    real_basis = lattices._reduced_ideal_basis
    monkeypatch.setattr(lattices, "_reduced_ideal_basis", lambda ideal: calls.append(ideal) or real_basis(ideal))
    y = np.array([0.3 + 1.1j, -2.0 + 0.5j, 4.2 - 3.3j])
    for _ in range(3):
        quantize(lat, y)
        lattices.mod_coarse(pair, y)
    assert len(calls) == 1


def check_nearest_ideal_point_ends(d, p):
    """The oracle's nearest point of the first ideal above p, against the
    nearest of the ideal's elements a + b*xi with |a|, |b| <= 12."""
    ring = make_quadratic_ring(d)
    ideal = factor_rational_prime(ring, p)[0]
    box = [x for x in (ring.element(a, b) for a in range(-12, 13) for b in range(-12, 13)) if ideal.contains(x)]
    rng = np.random.default_rng(p)
    for w in list(rng.uniform(-3, 3, 30) + 1j * rng.uniform(-3, 3, 30)) + [0j, 0.5 + 0j]:
        x = _nearest_ideal_point(ideal, complex(w))
        assert ideal.contains(x), (d, p, w)
        assert abs(x.to_complex() - w) <= min(abs(y.to_complex() - w) for y in box) + 1e-12, (d, p, w)


def test_nearest_ideal_point_ends_on_ideals_whose_reduction_cycled():
    # Z[w] at p = 13 and 19 and d = -11 at p = 3 flipped the oracle's
    # reduction forever; in a subprocess, a regression fails instead of
    # hanging the suite
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path[:0] = [{src!r}, {tests!r}]\n"
            "from test_quantize_oracle import check_nearest_ideal_point_ends\n"
            "for d, p in ((-3, 13), (-3, 19), (-11, 3)):\n"
            "    check_nearest_ideal_point_ends(d, p)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
