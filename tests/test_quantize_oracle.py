"""Differential test of `quantize` and `_coset_reps` against the code they
replaced: a coset table filled one `forward_vec` call per codeword
combination, and a per-codeword, per-coordinate A_OK quantizer scoring
QuadInt candidates, kept here verbatim as the oracle.  Results must agree
exactly: the same int64 points for real lattices, the same QuadInt
tuples for A_OK."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from latcf import cli
from latcf.algebra import (
    PrimeField,
    PrimeIdeal,
    QuadInt,
    factor_rational_prime,
    make_quadratic_ring,
    residue_field_map,
)
from latcf.codes import LinearCode, build_nested_chain, codebook
from latcf.lattices import (
    _coset_reps,
    construction_a,
    construction_a_ok,
    construction_d,
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
    u, v = ideal.basis()
    zu, zv = u.to_complex(), v.to_complex()
    while True:
        if abs(zu) > abs(zv):
            u, v, zu, zv = v, u, zv, zu
        mu = round((zv * zu.conjugate()).real / abs(zu) ** 2)
        if mu == 0:
            return u, v
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
# lattices, each built twice so the oracle never reads the new table
# ---------------------------------------------------------------------------


def _workload(name):
    doc = json.loads((WORKLOADS / f"{name}.json").read_text(encoding="utf-8"))
    return lambda: cli.build_construction(doc["construction"])


def _lifted_d():
    chain = build_nested_chain(2, [(1, 1, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)], (1, 3))
    return construction_d(chain, 2)


def _a_ok(d, p, rows):
    ideal = factor_rational_prime(make_quadratic_ring(d), p)[0]
    field = residue_field_map(ideal).field
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

