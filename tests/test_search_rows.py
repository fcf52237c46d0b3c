"""Batch invariance of the coefficient search: `_search_rows` over R
relays gives, row for row, what `best_coefficients` gives each row alone,
bit for bit (the repr of a, the sign of a zero rate, truncated), and a
refusing row raises the first refusal that the rows alone would raise.
`best_coefficients` itself is pinned by tests/test_search_oracle.py."""

import math

import numpy as np
import pytest

from latcf import cfsim
from latcf.algebra import QuadraticRing
from latcf.cfsim import best_coefficients

RINGS = ["Z", pytest.param(QuadraticRing(-1), id="Zi"), pytest.param(QuadraticRing(-3), id="Zw")]
TIES = ([1.0], [1.0, 1.0], [1.0, 1j], [0.5 + 0.5j, 1.0], [1.0, -1.0], [1j, 1j], [1.0, 1.0, 1.0], [1.0, -1.0, 1j])
# each refuses alone: zero, not finite, and P|h|^2 = 2^56 P, where Q's
# least eigenvalue rounds to 0 (P is a power of 2)
REFUSING = (np.zeros, lambda K: np.full(K, np.nan), lambda K: 2.0**28 * np.eye(K)[0])


def _alone(H, P, ring, cap):
    """Each row through best_coefficients, or (row, message) of the first
    row that refuses."""
    found = []
    for r, h in enumerate(H):
        try:
            found.append(best_coefficients(h, P, ring=ring, max_norm_cap=cap))
        except ValueError as exc:
            return r, str(exc)
    return found


def _batched(H, P, ring, cap):
    try:
        return cfsim._search_rows(H, P, ring, cap)
    except cfsim._RowError as exc:
        return exc.row, str(exc)


def _rows(rng, K, R, P):
    """R channels in C^K: CN(0, I), tie channels, rows at rate 0
    (P|h|^2 ~ 1e-20) and at most one row whose best rate can be +inf
    (P|h|^2 near 1e15; a walk over a ring takes ~30 ms there)."""
    ties = [np.asarray(h, dtype=complex) for h in TIES if len(h) == K]
    rows = []
    for r in range(R):
        kind = rng.integers(5 if r == 0 else 4)
        h = (rng.standard_normal(K) + 1j * rng.standard_normal(K)) / math.sqrt(2)
        if kind == 1 and ties:
            h = ties[rng.integers(len(ties))]
        elif kind == 2:
            h = h * math.sqrt(1e-20 / P)
        elif kind == 4:
            h = math.sqrt(rng.uniform(7e14, 2e15) / P) * rng.permutation(np.eye(K))[0] * (1j if rng.integers(2) else 1)
        rows.append(h)
    return np.array(rows, dtype=complex)


def _same(got, want, case):
    if isinstance(want, tuple):  # (row, message)
        assert got == want, case
        return
    assert len(got) == len(want), case
    for g, w in zip(got, want):
        assert g.a == w.a and repr(g.a) == repr(w.a), case
        assert type(g.a[0]) is type(w.a[0]), case
        assert g.rate == w.rate and math.copysign(1, g.rate) == math.copysign(1, w.rate), case
        assert type(g.rate) is float, case
        assert g.truncated == w.truncated, case


@pytest.mark.parametrize("ring", RINGS)
def test_search_rows_match_each_row_alone(ring):
    rng = np.random.default_rng(16 if ring == "Z" else -ring.d)
    Ks = (1, 2, 3) if ring == "Z" else (1, 2)
    rates, refusals = [], set()
    # P a power of 2 (see REFUSING); sim-search's P = 64 over Z, ok-relay's
    # P = 8 over the rings, where a walk at P = 64 takes ~1 ms
    cases = ((0.5, None), (8.0, 4.0), (64.0 if ring == "Z" else 8.0, None), (16.0, 20.0), (2.0, 1.0))
    for R in range(1, 17):
        for K in Ks:
            for P, cap in cases:
                H = rng.permutation(_rows(rng, K, R, P))
                want = _alone(H, P, ring, cap)
                _same(_batched(H, P, ring, cap), want, (R, K, P, cap, H.tolist()))
                if isinstance(want, tuple):
                    refusals.add(want[1])
                    continue
                rates += [w.rate for w in want]
                if R > 2:  # a refusing row in the middle: the rows before it run
                    middle = R // 2
                    bad = REFUSING[rng.integers(len(REFUSING))](K)
                    H2 = np.concatenate([H[:middle], [bad], H[middle:]])
                    want = _alone(H2, P, ring, cap)
                    assert isinstance(want, tuple) and want[0] == middle
                    refusals.add(want[1])
                    _same(_batched(H2, P, ring, cap), want, (R, K, P, cap, H2.tolist()))
    assert min(rates) < 1e-15 and math.inf in rates  # over Z[w], |w|^2 is not 1 to the last bit
    assert refusals == {"h must be nonzero", "h and P must be finite",
                        "P*|h|^2 too large for an exact coefficient search"}


def test_search_rows_refuse_in_row_order(monkeypatch):
    # a later row's node-budget refusal waits for an earlier row's refusal
    monkeypatch.setattr(cfsim, "_SEARCH_HARD_CAP", 8)  # small walks 7 nodes, big 10
    big = np.array([0.3 + 0.8j, -1.1 + 0.2j, 0.5 - 0.4j])
    small = np.array([1.0, 0.0, 0.0]) + 0j
    assert _batched(np.array([small, big]), 64.0, "Z", None) == (1, "search space too large; lower max_norm_cap")
    assert _batched(np.array([small, np.zeros(3), big]), 64.0, "Z", None) == (1, "h must be nonzero")
    assert _batched(np.array([small, big]), 64.0, "Z", 0.5) == (0, "empty search space; raise max_norm_cap")


def test_call_checks_come_before_any_row():
    # the ring and P belong to the call, so they refuse before a zero row
    with pytest.raises(ValueError, match=r"^unsupported coefficient ring 'Q'$"):
        best_coefficients([0.0], 1.0, ring="Q")
    with pytest.raises(ValueError, match="^coefficient search needs an imaginary quadratic ring$"):
        best_coefficients([0.0], 1.0, ring=QuadraticRing(2))
    for ring in ("Z", QuadraticRing(-1), QuadraticRing(-3)):
        with pytest.raises(ValueError, match="^P must be positive$"):
            best_coefficients([0.0, 0.0], 0.0, ring=ring)
        for H, P in ((np.array([[1.0], [0.0]]) + 0j, 0.0), (np.zeros((2, 1), dtype=complex), -1.0)):
            with pytest.raises(ValueError, match="^P must be positive$") as caught:
                cfsim._search_rows(H, P, ring, None)
            assert not isinstance(caught.value, cfsim._RowError)
    with pytest.raises(cfsim._RowError, match="^h must be nonzero$"):
        cfsim._search_rows(np.zeros((2, 1), dtype=complex), 1.0, QuadraticRing(-1), None)


@pytest.mark.parametrize("ring", RINGS[1:])
def test_ring_filter_cross_is_each_leafs_own_sum(ring, monkeypatch):
    # over O_K the filter's cross of a leaf is sum_k (x + y*xi) conj(h_k),
    # grown from 0j in Python complex arithmetic: the same bits whatever
    # leaves share the row or the batch
    walks, crosses = [], []
    walk, rates = cfsim._ellipsoid_points, cfsim._rates
    monkeypatch.setattr(cfsim, "_ellipsoid_points", lambda *args: walks.append(walk(*args)) or walks[-1])
    monkeypatch.setattr(cfsim, "_rates", lambda cross, *args: crosses.append(list(cross)) or rates(cross, *args))
    xi = ring.xi_numeric
    rng = np.random.default_rng(19)
    checked = 0
    for K in (1, 2, 3):
        for _ in range(12):
            walks.clear(), crosses.clear()
            H = (rng.standard_normal((16, K)) + 1j * rng.standard_normal((16, K))) / math.sqrt(2)
            cfsim._search_rows(H, 8.0, ring, None)
            want = []
            for h, leaves in zip(H.tolist(), walks):
                for v, _ in leaves[0::2]:
                    c = 0j
                    for x, y, hk in zip(v[0::2], v[1::2], h):
                        c = c + (x + y * xi) * hk.conjugate()
                    want.append(c)
            got = crosses[0]
            assert [(c.real.hex(), c.imag.hex()) for c in got] == [(c.real.hex(), c.imag.hex()) for c in want]
            checked += len(got)
    assert checked > 1000
