"""The coefficient search's walk against the slow paths it replaced, kept
here as the oracles: a generic G + LDL factorization in Python and the
full Schnorr-Euchner walk over it, and the half walk that folded only
+-1.  `cfsim._factor` must give the same D and R to rounding, and
`cfsim._ellipsoid_points` the same leaves, in mirror pairs (v, -v), from
no more nodes than the full walk; exactly the half walk's leaves, from
fewer nodes over Z[i] and Z[w] and the same nodes where the units are
+-1."""

import math

import numpy as np
import pytest

from latcf import cfsim
from latcf.algebra import QuadraticRing
from latcf.cfsim import best_coefficients

RINGS = ["Z", pytest.param(QuadraticRing(-1), id="Zi"), pytest.param(QuadraticRing(-3), id="Zw"),
         pytest.param(QuadraticRing(-2), id="Zsqrt-2"), pytest.param(QuadraticRing(-7), id="d-7")]


def _form(ring):
    """(t, u, xi) of the walk's norm form for ring."""
    if ring == "Z":
        return 0, 0, None
    t, u = ring.xi_sq
    return t, u, ring.xi_numeric


# ---------------------------------------------------------------------------
# the oracle: the generic G + LDL and the full walk, as they were
# ---------------------------------------------------------------------------


def generic_ldl(h, c, t, u, xi):
    """G = R^T diag(D) R, R unit upper triangular; R[i] = row i of R right
    of the diagonal."""
    basis = (1.0,) if xi is None else (1.0, xi)
    m = len(basis)
    g = [hk.conjugate() * b for hk in h for b in basis]
    n = len(g)
    G = [[-c * (a.real * b.real + a.imag * b.imag) for b in g] for a in g]
    for k in range(0, n, m):
        G[k][k] += 1.0
        if m == 2:
            G[k][k + 1] += t / 2
            G[k + 1][k] += t / 2
            G[k + 1][k + 1] -= u
    D = []
    R = []
    for i in range(n):
        col = [R[k][i - k - 1] for k in range(i)]
        Di = G[i][i] - sum([D[k] * col[k] * col[k] for k in range(i)])
        if not Di > 0:
            # G's least eigenvalue is about 1/(1 + P|h|^2)
            raise ValueError("P*|h|^2 too large for an exact coefficient search")
        D.append(Di)
        R.append([
            (G[i][j] - sum([D[k] * col[k] * R[k][j - k - 1] for k in range(i)])) / Di
            for j in range(i + 1, n)
        ])
    return D, R


def full_walk(h, c, bound, margin, t, u, xi):
    """The leaves (coordinates, norm) and the node count of the full
    walk: every level in zig-zag order from its centre, R read row by
    row."""
    m = 1 if xi is None else 2
    D, R = generic_ldl(h, c, t, u, xi)
    n = len(D)
    e = -u - t * t / 4
    z = [0] * (n + 1)
    centre = [0.0] * n
    step = [0] * n
    lo = [0] * n
    hi = [0] * n
    zlo = [0] * n
    zhi = [0] * n
    dist = [0.0] * (n + 1)
    norm = [0] * (n + 1)
    radius = bound * (1 + margin)
    leaves = []
    nodes = 0
    i, down = n, True
    while True:
        if down:
            i -= 1
            ce = -sum(a * b for a, b in zip(R[i], z[i + 1:n]))
            rem = bound - norm[i + 1]
            if i % m:
                cn, w = 0.0, math.sqrt(rem / e)
            else:
                y = z[i + 1]
                cn, w2 = -t * y / 2, rem - e * y * y
                w = math.sqrt(w2) if w2 > 0 else 0.0
            bot, top = math.floor(cn - w), math.ceil(cn + w)
            x = round(ce)
            x = bot if x < bot else top if x > top else x
            r = top - x if top - x > x - bot else x - bot
            lo[i], hi[i], zlo[i], zhi[i] = bot, top, x - r, x + r
            centre[i], z[i] = ce, x
            step[i] = 1 if ce >= x else -1
            down = False
        nodes += 1
        x = z[i]
        d = x - centre[i]
        q = dist[i + 1] + D[i] * d * d
        if q > radius or not zlo[i] <= x <= zhi[i]:
            i += 1
            if i == n:
                break
        elif lo[i] <= x <= hi[i]:
            nr = norm[i + 1]
            if i % m == 0:
                y = z[i + 1]
                nr += x * x + t * x * y - u * y * y
            if nr <= bound:
                if i:
                    dist[i], norm[i] = q, nr
                    down = True
                    continue
                if nr:
                    leaves.append((q, tuple(z[:n]), nr))
                    radius = min(radius, q * (1 + margin))
        s = step[i]
        z[i] += s
        step[i] = -s - 1 if s > 0 else 1 - s
    return [(v, nr) for q, v, nr in leaves if q <= radius], nodes


def half_walk(h, c, bound, margin, t, u, xi):
    """The leaves and the node count of the walk that folded only +-1:
    a level whose higher coordinates are all 0 counts up from 0, and a
    leaf brings its mirror; the other associates are walked."""
    m = 1 if xi is None else 2
    D, rin, rho0, rho1, wu, wv = cfsim._factor(h, c, t, u, xi)
    n = len(D)
    e = -u - t * t / 4
    z = [0] * (n + 1)
    s0 = [0.0] * (n + 1)
    s1 = [0.0] * (n + 1)
    centre = [0.0] * n
    step = [0] * (n + 1)
    lo = [0] * n
    hi = [0] * n
    zlo = [0] * n
    zhi = [0] * n
    dist = [0.0] * (n + 1)
    norm = [0] * (n + 1)
    radius = bound * (1 + margin)
    leaves = []
    nodes = 0
    floor, ceil, sqrt = math.floor, math.ceil, math.sqrt
    i, down = n, True
    while True:
        if down:
            i -= 1
            y = z[i + 1]
            ce = -(rin[i] * y + (rho0[i] * s0[i + 1] + rho1[i] * s1[i + 1]))
            s0[i] = s0[i + 1] + wu[i + 1] * y
            s1[i] = s1[i + 1] + wv[i + 1] * y
            rem = bound - norm[i + 1]
            if i % m:
                cn, w = 0.0, sqrt(rem / e)
            else:
                cn, w2 = -t * y / 2, rem - e * y * y
                w = sqrt(w2) if w2 > 0 else 0.0
            bot, top = floor(cn - w), ceil(cn + w)
            x, r, step[i] = 0, top, 0
            if step[i + 1] or y:
                x = round(ce)
                x = bot if x < bot else top if x > top else x
                r = top - x if top - x > x - bot else x - bot
                step[i] = 1 if ce >= x else -1
            lo[i], hi[i], zlo[i], zhi[i], centre[i], z[i] = bot, top, x - r, x + r, ce, x
            down = False
        nodes += 1
        x = z[i]
        d = x - centre[i]
        q = dist[i + 1] + D[i] * d * d
        if q > radius or not zlo[i] <= x <= zhi[i]:
            i += 1
            if i == n:
                break
        elif lo[i] <= x <= hi[i]:
            nr = norm[i + 1]
            if i % m == 0:
                y = z[i + 1]
                nr += x * x + t * x * y - u * y * y
            if nr <= bound:
                if i:
                    dist[i], norm[i] = q, nr
                    down = True
                    continue
                if nr:
                    v = z[:n]
                    leaves.append((q, tuple(v), tuple([-x for x in v]), nr))
                    radius = min(radius, q * (1 + margin))
        s = step[i]
        z[i] += s or 1
        if s:
            step[i] = -s - 1 if s > 0 else 1 - s
    return [pt for q, v, mirror, nr in leaves if q <= radius for pt in ((v, nr), (mirror, nr))], nodes


# ---------------------------------------------------------------------------
# differential checks
# ---------------------------------------------------------------------------


def _walk_args(h, P, ring, cap=None):
    """_ellipsoid_points' arguments for (h, P) as _search_rows makes them."""
    t, u, xi = _form(ring)
    d = 1.0 + P * float(np.vdot(h, h).real)
    bound = min(d, cap) if cap is not None else d
    return list(h), P / d, bound, 1e-6 + 1e-12 * d, t, u, xi


def _nodes(monkeypatch, args):
    """The nodes the walk visits: the least _SEARCH_HARD_CAP it passes."""

    def passes(cap):
        with monkeypatch.context() as patch:
            patch.setattr(cfsim, "_SEARCH_HARD_CAP", cap)
            try:
                cfsim._ellipsoid_points(*args)
                return True
            except ValueError:
                return False

    lo, hi = 0, 1
    while not passes(hi):
        lo, hi = hi, 2 * hi
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


@pytest.mark.parametrize("ring", RINGS)
def test_factor_matches_the_generic_ldl(ring):
    t, u, xi = _form(ring)
    rng = np.random.default_rng(18 if ring == "Z" else 18 - ring.d)
    for K in (1, 2, 3, 4):
        for _ in range(60):
            h = (rng.standard_normal(K) + 1j * rng.standard_normal(K)) / math.sqrt(2)
            if rng.integers(4) == 0:
                h = h.real + 0j
            P = float(10.0 ** rng.uniform(-2, 3))
            _, c, _, _, _, _, _ = _walk_args(h, P, ring)
            want_D, want_R = generic_ldl(h.tolist(), c, t, u, xi)
            D, rin, rho0, rho1, wu, wv = cfsim._factor(h.tolist(), c, t, u, xi)
            assert len(D) == len(want_D) == len(rin) and len(wu) == len(D) + 1
            for i, row in enumerate(want_R):
                assert abs(D[i] - want_D[i]) <= 1e-10 * want_D[i], (K, P, i)
                got = [rin[i]] + [rho0[i] * wu[j] + rho1[i] * wv[j] for j in range(i + 2, len(D))]
                scale = max([1.0] + [abs(x) for x in row])
                assert np.allclose(got, row, rtol=0, atol=1e-10 * scale), (K, P, i)


def test_factor_refuses_where_q_is_not_positive_definite():
    # Q's least eigenvalue 1/(1 + 1e17) rounds to 0
    with pytest.raises(ValueError, match=r"^P\*\|h\|\^2 too large for an exact coefficient search$"):
        best_coefficients([1.0], 1e17)
    for ring in ("Z", QuadraticRing(-1), QuadraticRing(-3)):
        t, u, xi = _form(ring)
        for h in ([1.0], [1j], [0.0, 1.0]):  # P|h|^2 = 2^60: 1 - c|h_k|^2 rounds to 0
            args = _walk_args(np.asarray(h, dtype=complex), 2.0**60, ring)
            for factor in (generic_ldl, cfsim._factor):
                with pytest.raises(ValueError, match="too large for an exact coefficient search"):
                    factor(args[0], args[1], t, u, xi)


def _sample(rng, ring, count):
    """(h, P, cap): CN(0, I) and real h at sim-search's P = 64 over Z
    (K = 1..4) and ok-relay's P = 8 over a ring (K = 1..3), scaled h, tie
    channels, and caps."""
    Ks = (1, 2, 3, 4) if ring == "Z" else (1, 2, 3)
    ties = ([1.0, 1.0], [1.0, 1j], [1.0, -1.0, 1j], [0.5 + 0.5j, 1.0])
    for i in range(count):
        K = Ks[i % len(Ks)]
        h = (rng.standard_normal(K) + 1j * rng.standard_normal(K)) / math.sqrt(2)
        kind = rng.integers(4)
        if kind == 1:
            h = h.real + 0j
        elif kind == 2:
            h = np.asarray(ties[rng.integers(len(ties))], dtype=complex)
        P = 64.0 if ring == "Z" else 8.0
        if rng.integers(3) == 0:
            P = float(10.0 ** rng.uniform(-3, 2))
        yield h, P, (None, None, 4.0)[rng.integers(3)]


@pytest.mark.parametrize("ring", RINGS)
def test_walk_leaves_are_mirror_pairs_of_the_full_walks_from_fewer_nodes(ring, monkeypatch):
    rng = np.random.default_rng(180 if ring == "Z" else 180 - ring.d)
    half, full = [], []
    for h, P, cap in _sample(rng, ring, 60):
        args = _walk_args(h, P, ring, cap)
        want, want_nodes = full_walk(*args)
        got = cfsim._ellipsoid_points(*args)
        assert len(got) % 2 == 0
        for (v, nv), (w, nw) in zip(got[0::2], got[1::2]):
            assert w == tuple(-x for x in v) and nv == nw
            assert next(x for x in reversed(v) if x) > 0  # the walk's own half
        assert sorted(got) == sorted(want), (h.tolist(), P, cap)
        nodes = _nodes(monkeypatch, args)
        assert nodes <= want_nodes, (h.tolist(), P, cap)
        half.append(nodes)
        full.append(want_nodes)
    assert sum(half) < 0.8 * sum(full)


def _units_sample(rng, ring, count):
    """_sample's channels, plus ok-relay's (K = 2, P = 8, h ~ CN(0, I))
    and rows at rate 0 (P|h|^2 ~ 1e-20); over Z[i] and Z[w] also rows
    whose best rate can be +inf (P|h|^2 near 1e15, where the margin is
    about 1e3 and the folded walk widens its radius by 2)."""
    yield from _sample(rng, ring, count)
    for _ in range(count):
        yield (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / math.sqrt(2), 8.0, None
    for K in (1, 2, 3):
        h = (rng.standard_normal(K) + 1j * rng.standard_normal(K)) / math.sqrt(2)
        yield h * math.sqrt(1e-20 / 8.0), 8.0, None
        if ring != "Z" and ring.d in (-1, -3):
            yield math.sqrt(rng.uniform(7e14, 2e15) / 8.0) * rng.permutation(np.eye(K))[0] * 1j**K + 0j, 8.0, None


@pytest.mark.parametrize("ring", RINGS)
def test_unit_folded_walk_keeps_the_half_walks_leaves(ring, monkeypatch):
    rng = np.random.default_rng(210 if ring == "Z" else 210 - ring.d)
    folded, half = [], []
    for h, P, cap in _units_sample(rng, ring, 80):
        args = _walk_args(h, P, ring, cap)
        want, want_nodes = half_walk(*args)
        got = cfsim._ellipsoid_points(*args)
        for (v, nv), (w, nw) in zip(got[0::2], got[1::2]):
            assert w == tuple(-x for x in v) and nv == nw
        assert sorted(got) == sorted(want), (h.tolist(), P, cap)
        if args[3] < 1e-3:  # the +inf rows' walks are slow to count
            folded.append(_nodes(monkeypatch, args))
            half.append(want_nodes)
    if ring != "Z" and ring.d in (-1, -3):  # 4 and 6 units
        assert all(f <= g for f, g in zip(folded, half)) and sum(folded) < 0.85 * sum(half)
    else:
        assert folded == half
