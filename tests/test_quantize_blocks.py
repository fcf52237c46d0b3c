"""`_gather_sum` sums each shared residue prefix once through the
lattice's trie (`_coset_trie`), then scores a pass's cosets in blocks of
at most `lattices._PASS_ELEMENTS` gathered table entries and takes each
row's first least coset per block, a later block winning only on a
strictly smaller distance.  The oracle is the whole-array gather-sum and
argmin it replaced, kept here verbatim.  Every budget, with the lattice's
trie and with the plain one-level trie, must give bit-identical
distances, the same picked coset and the same `quantize` output."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from latcf import cli, lattices
from latcf.algebra import PrimeField, ResidueFieldMap, factor_rational_prime, make_quadratic_ring
from latcf.codes import LinearCode
from latcf.lattices import (
    _coset_index,
    _coset_trie,
    _gather_sum,
    _table_mod_ideal,
    _table_mod_q,
    construction_a,
    construction_a_ok,
    enumerate_box,
    quantize,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"

# block budgets: one coset per block, a few, and powers of two up to one
# block for every row count here
BUDGETS = [1, 7, 64, 2**10, 2**13, 2**17, 2**20]


# ---------------------------------------------------------------------------
# the oracle: one gather-sum over all cosets, then argmin
# ---------------------------------------------------------------------------


def whole_gather_sum(table, index):
    """Each coset's squared distance: its residues' table entries summed
    over the coordinates in order (numpy's sum(axis=0) over the gathered
    N x cosets array would go pairwise for N >= 8).  table is N x width,
    or N x width x R for a distance per coset and row (cosets x R)."""
    table = table.reshape(table.shape[0] * table.shape[1], *table.shape[2:])
    dist = table.take(index[0], axis=0)
    for at in index[1:]:
        dist += table.take(at, axis=0)
    return dist


def whole_least_cosets(table, index, rows):
    """The oracle in `_gather_sum`'s shape: the distances, argmin's first
    least coset per row and its distance."""
    dist = whole_gather_sum(table, index)
    pick = dist.argmin(axis=0)
    return dist, pick, dist[pick, rows]


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
    # above 2: 16 cosets, 2 residues, so prefixes of 2, 4 and 8 columns
    return _a_ok_code(-7, 2, [[1, 0, 0, 0, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]])


LATTICES = {
    "sim-cosets": lambda: _workload("sim-cosets"),
    "sim-small": lambda: _workload("sim-small"),
    "ok-relay A_OK": lambda: _workload("ok-relay"),
    "A_OK d=-7 p=2 parity": _parity_a_ok,
}


def _tries(lat):
    """The lattice's trie and the plain one: the first coordinate's
    gather, then every other coordinate per coset."""
    return _coset_trie(lat), (1, _coset_index(lat)[1][0])


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# blocks against the whole array
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_blocks_match_the_whole_array(monkeypatch, name):
    lat = LATTICES[name]()
    pool = _rows(lat, 16)
    for R in (0, 1, 3, 16):
        y, rows = pool[:R], np.arange(R)
        table, index = _table(lat, y)
        want = whole_least_cosets(table, index, rows)
        if R == 16:  # some rows tie cosets bit for bit, and budget 1 splits them over blocks
            assert (np.count_nonzero(want[0] == want[2], axis=0) > 1).any()
        for budget, trie in itertools.product(BUDGETS, _tries(lat)):
            monkeypatch.setattr(lattices, "_PASS_ELEMENTS", budget)
            dist, pick, dmin = _gather_sum(table, index, trie, rows)
            assert _same_bits(dist, want[0]), (R, budget)
            assert _same_bits(pick, want[1]), (R, budget)
            assert _same_bits(dmin, want[2]), (R, budget)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_quantize_in_blocks_matches_the_whole_array(monkeypatch, name):
    lat = LATTICES[name]()
    pool = _rows(lat, 16)
    for budget, trie in itertools.product(BUDGETS, _tries(lat)):
        monkeypatch.setattr(lattices, "_PASS_ELEMENTS", budget)
        monkeypatch.setattr(lattices, "_coset_trie", lambda lat: trie)
        for R in (0, 1, 3, 16):
            y = pool[:R]
            monkeypatch.setattr(lattices, "_gather_sum",
                                lambda table, index, trie, rows: whole_least_cosets(table, index, rows))
            want = quantize(lat, y)
            monkeypatch.setattr(lattices, "_gather_sum", _gather_sum)
            got = quantize(lat, y)
            if lat.ambient == "complex":
                assert got == want, (R, budget)
            else:
                assert _same_bits(got, want), (R, budget)


def test_an_equal_least_in_a_later_block_loses(monkeypatch):
    # cosets 5 and 9 take residue 0 on every coordinate, the only zero
    # entries, so both are at distance 0 and every other coset is farther
    N, width, R, total = 3, 4, 2, 12
    rng = np.random.default_rng(21)
    table = rng.uniform(1.0, 2.0, (N, width, R))
    table[:, 0] = 0.0
    index = rng.integers(1, width, (N, total))
    index[:, [5, 9]] = 0
    index = (index + width * np.arange(N)[:, None]).astype(np.intp)
    rows = np.arange(R)
    want = whole_least_cosets(table, index, rows)
    assert want[1].tolist() == [5, 5]
    # blocks of 1, 2 and 4 cosets split 5 from 9; at 12 they share one
    for block in (1, 2, 4, 12):
        monkeypatch.setattr(lattices, "_PASS_ELEMENTS", block * N * R)
        dist, pick, dmin = _gather_sum(table, index, (1, index[0]), rows)
        assert pick.tolist() == [5, 5], block
        assert _same_bits(dist, want[0]) and _same_bits(dmin, want[2]), block


# ---------------------------------------------------------------------------
# the trie's levels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make, levels", [
    (lambda: _workload("sim-cosets"), 3),  # 12, 144 and 1,728 prefixes of 6,912 cosets
    (_parity_a_ok, 3),                     # 2, 4 and 8 prefixes of 16 cosets
    (lambda: _workload("sim-small"), 1),   # 6 residues, 6 cosets
    (lambda: _workload("ok-relay"), 1),    # 7 residues, 7 cosets
    (lambda: construction_a(LinearCode(PrimeField(2**31 - 1), [], N=8)), 1),  # a table of coset residues
    # the first coordinate merges 49 cosets into 7 prefixes, but a second
    # level would hold all 49
    (lambda: _a_ok_code(-3, 7, [[1, 3, 5, 2, 0, 1, 4, 6], [0, 1, 2, 3, 4, 5, 6, 1]]), 1),
], ids=["sim-cosets", "A_OK parity", "sim-small", "ok-relay A_OK", "A zero code F_(2^31-1)",
        "A_OK d=-3 p=7 N=8"])
def test_trie_levels(make, levels):
    lat = make()
    residues, index = _coset_index(lat)
    width = residues.shape[1]
    got, ids = _coset_trie(lat)
    assert got == levels
    assert ids.dtype == np.intp and ids.shape == (index.shape[1],)
    # a coset's id is the mixed-radix number of its first columns, and the
    # ids of the last level are all taken: the prefixes are the cosets'
    want = np.zeros(index.shape[1], np.intp)
    for j in range(levels):
        want = want * width + index[j] - j * width
    assert np.array_equal(ids, want)
    if levels > 1:
        assert len(np.unique(ids)) == width**levels <= index.shape[1] // 2
    else:
        assert np.array_equal(ids, index[0])

