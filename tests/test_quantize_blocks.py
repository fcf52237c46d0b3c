"""`_gather_sum` scores a pass's cosets in blocks of at most
`lattices._PASS_ELEMENTS` gathered table entries and takes each row's
first least coset per block, a later block winning only on a strictly
smaller distance.  The oracle is the whole-array gather-sum and argmin it
replaced, kept here verbatim.  Every budget must give bit-identical
distances, the same picked coset and the same `quantize` output."""

import json
from pathlib import Path

import numpy as np
import pytest

from latcf import cli, lattices
from latcf.lattices import (
    _coset_index,
    _gather_sum,
    _table_mod_ideal,
    _table_mod_q,
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


LATTICES = {
    "sim-cosets": lambda: _workload("sim-cosets"),
    "sim-small": lambda: _workload("sim-small"),
    "ok-relay A_OK": lambda: _workload("ok-relay"),
}


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
        for budget in BUDGETS:
            monkeypatch.setattr(lattices, "_PASS_ELEMENTS", budget)
            dist, pick, dmin = _gather_sum(table, index, rows)
            assert _same_bits(dist, want[0]), (R, budget)
            assert _same_bits(pick, want[1]), (R, budget)
            assert _same_bits(dmin, want[2]), (R, budget)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_quantize_in_blocks_matches_the_whole_array(monkeypatch, name):
    lat = LATTICES[name]()
    pool = _rows(lat, 16)
    for budget in BUDGETS:
        monkeypatch.setattr(lattices, "_PASS_ELEMENTS", budget)
        for R in (0, 1, 3, 16):
            y = pool[:R]
            monkeypatch.setattr(lattices, "_gather_sum", whole_least_cosets)
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
        dist, pick, dmin = _gather_sum(table, index, rows)
        assert pick.tolist() == [5, 5], block
        assert _same_bits(dist, want[0]) and _same_bits(dmin, want[2]), block
