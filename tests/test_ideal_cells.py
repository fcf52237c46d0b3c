"""A_OK's ideal geometry: the basis reduction ends on every prime ideal,
and the 4 corners of the Babai floor's cell give the table that 16
candidates gave.

The oracle is the 16-candidate table `_table_mod_ideal` replaced (a
`np.linalg.solve` floor and its 4x4 neighbourhood of basis offsets from
-1 to 2), kept here with that neighbourhood built inline; each table
entry must keep its point and the bits of its distance.  The reduction loop used to stop only when
round(mu) was 0, and it flipped forever on 58 of the 1,341 prime ideals
above p < 200 in the 20 rings below, so the cases that cycled run in a
subprocess with a timeout: a regression fails instead of hanging the
suite."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latcf.algebra import ResidueFieldMap, factor_rational_prime, is_prime, make_quadratic_ring
from latcf.codes import LinearCode
from latcf.lattices import (
    LatticePair,
    _coset_index,
    _ideal_basis,
    _ideal_geometry,
    _reduced_ideal_basis,
    _table_mod_ideal,
    construction_a_ok,
    enumerate_box,
    mod_coarse,
    quantize,
)

RINGS = (-1, -2, -3, -7, -11, -19, -43, -67, -163, -5, -6, -10, -13, -14, -15, -21, -23, -26, -30, -31)
# ideals on which the old loop cycled (the scan below finds 58)
CYCLING = ((-3, 13), (-3, 19), (-3, 31), (-11, 3))


# ---------------------------------------------------------------------------
# the oracles: the reduction loop and the 16-candidate table, as they were
# ---------------------------------------------------------------------------


def old_reduced_ideal_basis(ideal, steps=1000):
    """The old loop, stopping only at round(mu) == 0; None after `steps`
    rounds, where it cycles."""
    u, v = ideal.basis()
    zu, zv = u.to_complex(), v.to_complex()
    for _ in range(steps):
        if abs(zu) > abs(zv):
            u, v, zu, zv = v, u, zv, zu
        mu = round((zv * zu.conjugate()).real / abs(zu) ** 2)
        if mu == 0:
            return u, v
        v = v - u * mu
        zv = v.to_complex()
    return None


def sixteen_candidate_table(lat, residues, y):
    """Nearest point of rep(r) + P to y_j and its squared distance, from a
    Babai floor and its 4x4 neighbourhood in the reduced basis."""
    xi = lat.ideal.ring.xi_numeric
    b, a = np.divmod(residues, lat.ideal.p)
    basis, B = _ideal_basis(lat.ideal)
    offsets = (np.indices((4, 4)).reshape(2, 16).T - 1) @ basis
    offsets = offsets[np.lexsort(offsets.T[::-1])]
    w = y - (a + b * xi)
    k = np.floor(np.linalg.solve(B, [w.real.ravel(), w.imag.ravel()]))
    base = np.stack([a, b], axis=-1) + (k.T.astype(np.int64) @ basis).reshape(w.shape + (2,))
    cands = base[..., None, :] + offsets  # ... x N x width x 16 x (a, b)
    diff = cands[..., 0] + cands[..., 1] * xi - y[..., None]
    dist = (diff.real**2 + diff.imag**2).reshape(-1, len(offsets))  # a row per table entry
    dmin = dist.min(axis=-1, keepdims=True)
    pick = (dist <= dmin + 1e-9 * np.maximum(1.0, dmin)).argmax(axis=-1)
    return base + offsets[pick].reshape(base.shape), dist[np.arange(len(dist)), pick].reshape(w.shape)


def _lagrange_reduced(u, v):
    """|2<u, v>| <= N(u) <= N(v), in integer norms."""
    two_inner = (u + v).norm() - u.norm() - v.norm()
    return abs(two_inner) <= u.norm() <= v.norm()


def _ideals():
    for d in RINGS:
        ring = make_quadratic_ring(d)
        for p in range(2, 200):
            if is_prime(p):
                yield from ((d, p, ideal) for ideal in factor_rational_prime(ring, p))


# ---------------------------------------------------------------------------
# the reduction ends, reduced, and moves no basis that ended before
# ---------------------------------------------------------------------------


def test_reduction_ends_reduced_and_keeps_every_basis_that_ended():
    cycled = 0
    for d, p, ideal in _ideals():
        u, v = _reduced_ideal_basis(ideal)
        assert _lagrange_reduced(u, v), (d, p, ideal)
        old = old_reduced_ideal_basis(ideal)
        if old is None:
            cycled += 1
        else:
            assert (u, v) == old, (d, p, ideal)
    assert cycled == 58


def _lattice(d, p, rows):
    ideal = factor_rational_prime(make_quadratic_ring(d), p)[0]
    return construction_a_ok(LinearCode(ResidueFieldMap(ideal).field, rows), ideal)


def check_cycling_ideal(d, p):
    """quantize and mod_coarse on the first ideal above p, against a
    nearest point over an enumerate_box box and the cell of the reduced
    basis.  Entries |y_j| <= 2 keep every point within |y| of y inside
    the box (|a|, |b| <= 10)."""
    lat = _lattice(d, p, [[1, 5 % p]])
    pts = enumerate_box(lat, (-10, 10))
    box = np.array([[x.to_complex() for x in pt] for pt in pts])
    keys = [tuple(c for x in pt for c in (x.a, x.b)) for pt in pts]
    ring = lat.ideal.ring
    rng = np.random.default_rng(-d * p)
    rows = [rng.uniform(-2, 2, 2) + 1j * rng.uniform(-2, 2, 2) for _ in range(40)]
    # halves and thirds of ring elements: exact and near ties
    rows += [np.array([ring.element(*rng.integers(-3, 4, 2)).to_complex() / k for _ in range(2)])
             for k in (2, 3) for _ in range(20)]
    rows += [np.zeros(2)]
    got = quantize(lat, np.array(rows))
    for y, x in zip(rows, got):
        d2 = (np.abs(box - y) ** 2).sum(axis=1)
        dmin = d2.min()
        tied = np.flatnonzero(d2 <= dmin + 1e-9 * max(1.0, dmin))
        want = min(keys[i] for i in tied)
        assert tuple(c for e in x for c in (e.a, e.b)) == want, (d, p, y)
    u, v = _reduced_ideal_basis(lat.ideal)
    B = np.array([[z.real for z in (u.to_complex(), v.to_complex())],
                  [z.imag for z in (u.to_complex(), v.to_complex())]])
    pair = LatticePair(lat, scale=0.7)
    for y in rows:
        y = 9 * y
        out = mod_coarse(pair, y)
        cell = np.linalg.solve(B * pair.scale, np.stack([out.real, out.imag]))
        assert np.all(cell >= -1e-12) and np.all(cell < 1 + 1e-12), (d, p, y)
        steps = np.linalg.solve(B * pair.scale, np.stack([(y - out).real, (y - out).imag]))
        assert np.allclose(steps, np.round(steps), rtol=0, atol=1e-9), (d, p, y)


def test_quantize_and_mod_coarse_end_on_ideals_that_cycled():
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path[:0] = [{src!r}, {tests!r}]\n"
            "from test_ideal_cells import CYCLING, check_cycling_ideal\n"
            "for d, p in CYCLING:\n"
            "    check_cycling_ideal(d, p)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# four corners against sixteen candidates
# ---------------------------------------------------------------------------


IDEALS = {
    "d=-3 p=7 split": (-3, 7, [[1, 3, 5]]),
    "d=-1 p=5 split": (-1, 5, [[1, 2]]),
    "d=-7 p=2 split": (-7, 2, [[1, 1, 0], [0, 1, 1]]),
    "d=-1 p=3 inert": (-1, 3, [[1, 4]]),
    "d=-3 p=5 inert": (-3, 5, [[1, 7]]),
    "d=-2 p=2 ramified": (-2, 2, [[1, 1, 1]]),
    "d=-3 p=3 ramified": (-3, 3, [[1, 2]]),
    "d=-15 p=17 not a PID": (-15, 17, [[1, 6]]),
    "d=-5 p=3 not a PID": (-5, 3, [[1, 2]]),
    "d=-3 p=13 cycled": (-3, 13, [[1, 5]]),
    "d=-11 p=3 cycled": (-11, 3, [[1, 2]]),
}


def _rows(lat, rng, count):
    """Noise at several scales, halves and thirds of ring elements, and
    points within 1e-12 of an edge of a Babai cell of the reduced basis."""
    N, ring, p = lat.N, lat.ideal.ring, lat.ideal.p
    u, v = (x.to_complex() for x in _reduced_ideal_basis(lat.ideal))
    rows = [s * (rng.normal(size=N) + 1j * rng.normal(size=N)) for s in (0.3, 1.0, p, 10.0 * p)
            for _ in range(count)]
    for k in (2, 3):
        for _ in range(count):
            ab = rng.integers(-2 * p, 2 * p + 1, (N, 2))
            rows.append(np.array([ring.element(a, b).to_complex() / k for a, b in ab]))
    for _ in range(2 * count):
        s, t = rng.integers(-4, 5, (2, N)) + rng.choice([0.0, 0.5, 1 / 3, rng.random()], (2, N))
        edge = rng.integers(2, size=N).astype(bool)  # on a u-edge or a v-edge
        s[edge] = np.round(s[edge])
        t[~edge] = np.round(t[~edge])
        shift = rng.choice([0.0, 1e-12, -1e-12], N) * (1 + 1j)
        rows.append(s * u + t * v + shift)
    return np.array(rows)


@pytest.mark.parametrize("name", sorted(IDEALS))
def test_four_corners_match_sixteen_candidates(name):
    lat = _lattice(*IDEALS[name])
    assert len(_ideal_geometry(lat)[3]) == 4
    residues, _ = _coset_index(lat)
    rng = np.random.default_rng(sum(map(ord, name)))
    rows = _rows(lat, rng, 150)
    for y in (rows.T[:, None], rows.T[:, None, :1]):  # every row at once, and one row
        points, d2 = _table_mod_ideal(lat, y)
        want_points, want_d2 = sixteen_candidate_table(lat, residues[..., None], y)
        assert np.array_equal(points, want_points)
        assert d2.tobytes() == want_d2.tobytes()
