"""The coset table against independent oracles.  `_gather_sum` must give
bit for bit the coordinate-order sums per coset that the coset-wise
quantizer of test_quantize_oracle computes (`_nearest_mod_q`,
`_nearest_mod_ideal`).  quantize must give the same points at every pass
budget as the table path run with a gather through one cumsum over the
gathered N x cosets x R array, also on sim-cosets, which quantize serves
by the closest-point search (`_closest_rows`).  And a tie goes to the
lexicographically smaller point, whichever coset comes first."""

import json
from pathlib import Path

import numpy as np
import pytest
from test_quantize_oracle import _nearest_mod_ideal, _nearest_mod_q

from latcf import cli, lattices
from latcf.algebra import ResidueFieldMap, factor_rational_prime, make_quadratic_ring
from latcf.codes import LinearCode
from latcf.lattices import (
    _TABLE_COSETS,
    _coset_index,
    _coset_reps,
    _gather_sum,
    _quantize_rows,
    _table_mod_ideal,
    _table_mod_q,
    construction_a_ok,
    enumerate_box,
    quantize,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"

# pass budgets: one row per pass, a few, and powers of two up to one pass
# for every row count here
BUDGETS = [1, 7, 64, 2**10, 2**13, 2**17, 2**20]


# ---------------------------------------------------------------------------
# the oracles: the coset-wise sums, and a gather through one cumsum
# ---------------------------------------------------------------------------


def cosetwise_distances(lat, y):
    """Each coset's squared distance per row of y (cosets x R), from the
    coset-wise quantizer's points and distances, summed in coordinate
    order."""
    reps = _coset_reps(lat)
    dist = np.empty((len(reps), len(y)))
    for r, row in enumerate(y):
        if lat.ambient == "complex":
            dist[:, r] = _nearest_mod_ideal(lat, reps, row)[1]
        else:
            dist[:, r] = ((_nearest_mod_q(lat, reps, row)[0] - row) ** 2).cumsum(axis=1)[:, -1]
    return dist


def cumsum_gather_sum(table, index):
    """`_gather_sum`'s result by another route: the whole N x cosets x R
    gather, accumulated over the coordinates in order by one cumsum."""
    N, width, R = table.shape
    return table.reshape(N * width, R)[index].cumsum(axis=0)[-1]


# ---------------------------------------------------------------------------
# lattices and rows
# ---------------------------------------------------------------------------


def _workload(name):
    doc = json.loads((WORKLOADS / f"{name}.json").read_text(encoding="utf-8"))
    return cli.build_construction(doc["construction"])


def _rows(lat, count):
    """count rows, half of them noise and half meant to tie cosets
    exactly: halves of integers for a real lattice (as in
    test_quantize_oracle), and for A_OK the midpoints v/2 of its nonzero
    points v in a small box, shortest first.  The midpoint of a shortest
    v is as near to 0 as to v, so it ties two cosets when v lies outside
    the coarse lattice."""
    rng = np.random.default_rng(20)
    if lat.ambient == "complex":
        scale = 3.0 * lat.ideal.p
        noise = rng.normal(0.0, scale, (count, lat.N)) + 1j * rng.normal(0.0, scale, (count, lat.N))
        box = np.array([[x.to_complex() for x in v] for v in enumerate_box(lat, (-1, 1))])
        ties = box[np.argsort((np.abs(box) ** 2).sum(axis=1), kind="stable")[1:]] / 2.0
    else:
        noise = rng.normal(0.0, 3.0 * lat.q, (count, lat.N))
        ties = rng.integers(-2 * lat.q, 2 * lat.q + 1, (count, lat.N)) / 2.0
    return np.concatenate([noise[: count // 2], ties[: count - count // 2]])


def _table(lat, y):
    residues, index = _coset_index(lat)
    if lat.ambient == "complex":
        return _table_mod_ideal(lat, y.T[:, None])[1], index
    return _table_mod_q(lat, residues[..., None], y.T[:, None])[1], index


def _a_ok_code(d, p, rows):
    ideal = factor_rational_prime(make_quadratic_ring(d), p)[0]
    return construction_a_ok(LinearCode(ResidueFieldMap(ideal).field, rows), ideal)


def _parity_a_ok():
    # the F_2 parity code of length 5 over Z[(1+sqrt(-7))/2] at a prime
    # above 2: 16 cosets over 2 residues, so one row of residues serves N = 5
    return _a_ok_code(-7, 2, [[1, 0, 0, 0, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]])


LATTICES = {
    "sim-cosets": lambda: _workload("sim-cosets"),
    "sim-small": lambda: _workload("sim-small"),
    "ok-relay A_OK": lambda: _workload("ok-relay"),
    "A_OK d=-7 p=2 parity": _parity_a_ok,
}


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the gather and quantize against the oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_gather_sum_matches_the_cosetwise_sums(name):
    lat = LATTICES[name]()
    pool = _rows(lat, 16)
    for R in (0, 1, 3, 16):
        y = pool[:R]
        table, index = _table(lat, y)
        want = cosetwise_distances(lat, y)
        if R == 16:  # some rows tie cosets bit for bit
            assert (np.count_nonzero(want == want.min(axis=0), axis=0) > 1).any()
        assert _same_bits(_gather_sum(table, index), want), R


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_quantize_in_blocks_matches_the_whole_array(monkeypatch, name):
    lat = LATTICES[name]()
    pool = _rows(lat, 16)
    for budget in BUDGETS:
        monkeypatch.setattr(lattices, "_PASS_ELEMENTS", budget)
        for R in (0, 1, 3, 16):
            y = pool[:R]
            # the table path, whatever the coset count, with the oracle's gather
            monkeypatch.setattr(lattices, "_TABLE_COSETS", 10**18)
            monkeypatch.setattr(lattices, "_gather_sum", cumsum_gather_sum)
            want = quantize(lat, y)
            monkeypatch.setattr(lattices, "_TABLE_COSETS", _TABLE_COSETS)
            monkeypatch.setattr(lattices, "_gather_sum", _gather_sum)
            got = quantize(lat, y)
            if lat.ambient == "complex":
                assert got == want, (R, budget)
            else:
                assert _same_bits(got, want), (R, budget)


def test_a_tie_goes_to_the_smaller_point_of_a_later_coset():
    # sim-small's points are the (x, x) + 6 Z^2: (1.5, 1.5) lies 0.5 from
    # both (1, 1) and (2, 2), and coset (2, 2) comes first
    lat = LATTICES["sim-small"]()
    y = np.array([[1.5, 1.5]])
    table, index = _table(lat, y)
    dist = _gather_sum(table, index)[:, 0]
    reps = _coset_reps(lat).tolist()
    first, later = reps.index([2, 2]), reps.index([1, 1])
    assert first < later and dist[first] == dist[later] == dist.min() == 0.5
    assert np.count_nonzero(dist == dist.min()) == 2
    assert _quantize_rows(lat, y).tolist() == [[1, 1]]
    assert quantize(lat, y[0]).tolist() == [1, 1]


def test_sim_cosets_is_searched_and_the_others_are_tabled():
    assert [lattices._searched(LATTICES[name]()) for name in sorted(LATTICES)] == [False, False, True, False]
