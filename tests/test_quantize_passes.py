"""`quantize` scores its rows in passes of at most `lattices._PASS_ELEMENTS`
table, candidate and distance elements, `enumerate_box` checks its box in
blocks of the same budget, and the simulator's chunk is one pass of relay
rows.  A pass or block split must not change a result, and on the coset
table the chunk sizes must stay what the simulator's own element budget
gave before the budget moved into `quantize`:
max(1, 2**17 // (2M (cosets + N width))).  A lattice quantize searches
(`_searched`) counts `_SEARCH_ROW_ELEMENTS` per entry of a row's walk
state, N (N + 9) / 2 entries."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from latcf import cfsim, cli, lattices
from latcf.algebra import ChainRing, PrimeField, ResidueFieldMap, factor_rational_prime, make_quadratic_ring
from latcf.cfsim import SimConfig, make_pair
from latcf.codes import LinearCode, NestedCodeChain
from latcf.lattices import (
    _coset_index,
    _ideal_geometry,
    construction_a,
    construction_a_ok,
    construction_d,
    construction_pi_a,
    construction_pi_d,
    enumerate_box,
    quantize,
    rows_per_pass,
)

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"

F3 = LinearCode(PrimeField(3), [[1, 1, 1, 0], [0, 1, 2, 1]])
REP2 = LinearCode(PrimeField(2), [[1, 1, 0, 1]])
Z4_FREE = LinearCode(ChainRing(2, 2), [[1, 1, 1, 1], [0, 2, 1, 3]])
Z9_NON_FREE = LinearCode(ChainRing(3, 2), [[3, 0, 6, 3], [0, 3, 3, 6]])
CHAIN = NestedCodeChain(2, [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]], [1, 3])


def _workload_lattice(name):
    doc = json.loads((WORKLOADS / f"{name}.json").read_text(encoding="utf-8"))
    return cli.build_construction(doc["construction"])


def _sim_cosets_lattice():
    return _workload_lattice("sim-cosets")


# the lattices of tests/test_trial_engine_oracle.py, and sim-cosets
LATTICES = {
    "A": lambda: construction_a(F3),
    "D": lambda: construction_d(CHAIN, 2),
    "piA": lambda: construction_pi_a([REP2, F3]),
    "piD Z4 free x Z9 non-free": lambda: construction_pi_d(36, [Z4_FREE, Z9_NON_FREE]),
    "sim-cosets": _sim_cosets_lattice,
}


def _row_elements(lat):
    """Table, candidate and distance elements of one row: cosets + N *
    width, each A_OK table entry scoring its Babai candidates; or what a
    searched row holds."""
    if lattices._searched(lat):
        return lattices._SEARCH_ROW_ELEMENTS * lat.N * (lat.N + 9) // 2
    residues, index = _coset_index(lat)
    candidates = len(_ideal_geometry(lat)[3]) if lat.ambient == "complex" else 1
    return index.shape[1] + lat.N * residues.shape[1] * candidates


def _passes_of(monkeypatch, lat, rows):
    """Patch the budget down so that a pass holds `rows` rows."""
    monkeypatch.setattr(lattices, "_PASS_ELEMENTS", rows * _row_elements(lat) + 1)
    assert rows_per_pass(lat) == rows


# ---------------------------------------------------------------------------
# a pass split changes no point
# ---------------------------------------------------------------------------


def test_real_rows_across_passes_match_one_row_calls(monkeypatch):
    lat = construction_pi_a([REP2, F3])
    rng = np.random.default_rng(11)
    # the midpoint of a shortest vector v is as near 0 as v; the
    # half-integer grid ties coordinates and cosets; the rest is noise
    box = np.array(enumerate_box(lat, (-6, 6)))
    norms = (box**2).sum(axis=1)
    ties = box[norms == norms[norms > 0].min()] / 2.0
    rows = np.concatenate([ties, rng.integers(-12, 13, size=(40, lat.N)) / 2.0,
                           rng.normal(0.0, 4.0, size=(40, lat.N))])
    alone = [quantize(lat, y) for y in rows]
    for y, x in zip(ties, alone):  # the lexicographically smallest tied point
        d = ((box - y) ** 2).sum(axis=1)
        assert np.count_nonzero(d == d.min()) >= 2
        assert x.tolist() == min(box[d == d.min()].tolist())
    for step in (1, 3, 7):
        _passes_of(monkeypatch, lat, step)
        got = quantize(lat, rows)
        assert got.dtype == np.int64 and got.shape == rows.shape
        for y, x, want in zip(rows, got, alone):
            assert np.array_equal(x, want), (step, y)


def test_a_ok_rows_across_passes_match_one_row_calls(monkeypatch):
    ideal = factor_rational_prime(make_quadratic_ring(-3), 7)[0]
    lat = construction_a_ok(LinearCode(ResidueFieldMap(ideal).field, [[1, 3, 5]]), ideal)
    rng = np.random.default_rng(12)
    rows = (rng.normal(0.0, 3.0, size=(30, lat.N)) + 1j * rng.normal(0.0, 3.0, size=(30, lat.N)))
    rows[:10] = np.round(2 * rows[:10].real) / 2 + 1j * np.round(2 * rows[:10].imag) / 2
    alone = [quantize(lat, y) for y in rows]
    for step in (1, 4):
        _passes_of(monkeypatch, lat, step)
        got = quantize(lat, rows)
        assert type(got) is list and got == alone


def _pass_peaks(lat, draw):
    """tracemalloc peaks of a quantize call over one pass of rows drawn by
    draw(count), and over ten passes."""
    step = rows_per_pass(lat)
    quantize(lat, draw(1)[0])  # the coset table and index

    def peak(count):
        rows = draw(count)
        tracemalloc.start()
        try:
            quantize(lat, rows)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak(step), peak(10 * step)


def test_a_pass_bounds_the_memory_of_a_call():
    lat = _sim_cosets_lattice()
    rng = np.random.default_rng(13)
    one, many = _pass_peaks(lat, lambda count: rng.normal(0.0, 12.0, size=(count, lat.N)))
    assert many <= 1.5 * one, (one, many)


def test_a_table_pass_bounds_the_memory_of_a_call():
    # pi_A from systematic F_2 [8, 4] and F_3 [8, 3] codes: 432 cosets, on
    # the coset table, whose pass holds a distance per coset and row
    lat = construction_pi_a([LinearCode(PrimeField(2), np.hstack([np.eye(4, dtype=int), np.ones((4, 4), int)])),
                             LinearCode(PrimeField(3), np.hstack([np.eye(3, dtype=int), np.arange(15).reshape(3, 5) % 3]))])
    assert not lattices._searched(lat)
    rng = np.random.default_rng(15)
    one, many = _pass_peaks(lat, lambda count: rng.normal(0.0, 6.0, size=(count, lat.N)))
    assert many <= 1.5 * one, (one, many)


def test_an_a_ok_pass_bounds_the_memory_of_a_call():
    # a pass counts the Babai candidates behind each table entry, so it
    # holds about what a real pass holds: well under ten float64 arrays of
    # the whole budget
    lat = _workload_lattice("ok-relay")
    rng = np.random.default_rng(14)
    one, many = _pass_peaks(lat, lambda count: rng.normal(0.0, 3.0, size=(count, lat.N))
                            + 1j * rng.normal(0.0, 3.0, size=(count, lat.N)))
    assert one < 10 * 8 * lattices._PASS_ELEMENTS, one
    assert many <= 1.5 * one, (one, many)


@pytest.mark.parametrize("lat", [
    construction_pi_a([REP2, F3]),
    construction_a_ok(LinearCode(PrimeField(5), [[1, 2]]), factor_rational_prime(make_quadratic_ring(-1), 5)[0]),
], ids=["piA", "A_OK"])
def test_enumerate_box_across_blocks_matches_one_block(monkeypatch, lat):
    bounds = [(-3 + j, 2 + j) for j in range(lat.N)]
    whole = enumerate_box(lat, bounds)
    assert whole
    for budget in (1, 7, 64):  # one offset per block at the least
        monkeypatch.setattr(lattices, "_PASS_ELEMENTS", budget)
        assert enumerate_box(lat, bounds) == whole, budget


# ---------------------------------------------------------------------------
# the simulator's chunk is one pass of relay rows
# ---------------------------------------------------------------------------


def _old_chunk(config, budget):
    return max(1, budget // (2 * config.M * _row_elements(config.pair.fine)))


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_chunk_trials_equal_the_old_element_budget(monkeypatch, name):
    fine = LATTICES[name]()
    for M in (1, 2, 3, 5):
        config = SimConfig(pair=make_pair(fine, 16.0), K=2, M=M, P=16.0)
        assert cfsim._chunk_trials(config) == _old_chunk(config, 2**17), M
        for k in range(21):  # the identity holds at any budget
            monkeypatch.setattr(lattices, "_PASS_ELEMENTS", 2**k)
            assert cfsim._chunk_trials(config) == _old_chunk(config, 2**k), (M, k)
        monkeypatch.undo()


def test_bench_chunk_sizes():
    doc = json.loads((WORKLOADS / "sim-small.json").read_text(encoding="utf-8"))
    small = cli.build_construction(doc["construction"])
    sizes = [cfsim._chunk_trials(SimConfig(pair=make_pair(fine, 16.0), K=2, M=M, P=16.0))
             for fine, M in ((small, 1), (small, 2), (_sim_cosets_lattice(), 2))]
    assert sizes == [3640, 1820, 80]
