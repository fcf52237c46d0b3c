"""Differential test of best_coefficients against the exhaustive
searchers it replaced: a meshgrid box for Z and Z[i] and a scalar
itertools.product loop for quadratic rings, kept here verbatim as the
oracle.  Results must agree exactly in a, rate and truncated."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from latcf.algebra import QuadraticRing
from latcf.cfsim import BestCoefficients, best_coefficients, computation_rate

_SEARCH_HARD_CAP = 5 * 10**6


# ---------------------------------------------------------------------------
# the oracle: the three searchers as they were, with their helpers
# ---------------------------------------------------------------------------


def reference_best_coefficients(h, P, ring="Z", max_norm_cap=None):
    h = np.asarray(h, dtype=complex)
    if not np.any(h):
        raise ValueError("h must be nonzero")
    if P <= 0:
        raise ValueError("P must be positive")
    nh = float(np.vdot(h, h).real)
    bound = 1.0 + P * nh
    truncated = False
    if max_norm_cap is not None and bound > max_norm_cap:
        bound = float(max_norm_cap)
        truncated = True
    if ring == "Z":
        return _search_z(h, P, nh, bound, truncated)
    if ring == "Zi":
        return _search_zi(h, P, nh, bound, truncated)
    if isinstance(ring, QuadraticRing):
        return _search_ok(h, P, nh, bound, truncated, ring)
    raise ValueError(f"unsupported coefficient ring {ring!r}")


def _rate_vector(cand, n2, h, P, nh):
    cross = cand @ np.conj(h)
    inner = n2 - P * np.abs(cross) ** 2 / (1.0 + P * nh)
    with np.errstate(divide="ignore"):
        rates = np.maximum(0.0, -np.log2(np.maximum(inner, 1e-300)))
    rates[inner <= 1e-15 * n2] = math.inf
    return rates


def _component_key(x):
    if isinstance(x, complex):
        re, im = x.real, x.imag
        return (abs(re), 0 if re >= 0 else 1, abs(im), 0 if im >= 0 else 1)
    return (abs(x), 0 if x >= 0 else 1)


def _pick(cands, n2, rates):
    top = np.flatnonzero(rates == rates.max())
    best = min(
        top,
        key=lambda i: (n2[i], tuple(_component_key(x) for x in cands[i].tolist())),
    )
    return cands[best], float(rates[best])


def _search_z(h, P, nh, bound, truncated):
    K = len(h)
    B = int(math.floor(math.sqrt(bound)))
    if (2 * B + 1) ** K > _SEARCH_HARD_CAP:
        raise ValueError("search space too large; lower max_norm_cap")
    axes = [np.arange(-B, B + 1)] * K
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, K)
    n2 = (grid * grid).sum(axis=1)
    keep = (n2 > 0) & (n2 <= bound)
    cands, n2 = grid[keep], n2[keep]
    rates = _rate_vector(cands.astype(float), n2.astype(float), h, P, nh)
    a, rate = _pick(cands, n2, rates)
    return BestCoefficients(tuple(int(x) for x in a), rate, truncated)


def _search_zi(h, P, nh, bound, truncated):
    K = len(h)
    B = int(math.floor(math.sqrt(bound)))
    if (2 * B + 1) ** (2 * K) > _SEARCH_HARD_CAP:
        raise ValueError("search space too large; lower max_norm_cap")
    axes = [np.arange(-B, B + 1)] * (2 * K)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2 * K)
    n2 = (grid * grid).sum(axis=1)
    keep = (n2 > 0) & (n2 <= bound)
    grid, n2 = grid[keep], n2[keep]
    cands = grid[:, :K] + 1j * grid[:, K:]
    rates = _rate_vector(cands, n2.astype(float), h, P, nh)
    a, rate = _pick(cands, n2, rates)
    return BestCoefficients(tuple(complex(x) for x in a), rate, truncated)


def _search_ok(h, P, nh, bound, truncated, ring):
    if ring.d > 0:
        raise ValueError("coefficient search needs an imaginary quadratic ring")
    # per-component candidates with norm below the bound
    comps = []
    ymax = int(math.floor(math.sqrt(4.0 * bound / abs(ring.d))))
    for y in range(-ymax, ymax + 1):
        half = math.sqrt(bound)
        lo = int(math.floor(-y / 2 - half)) if ring.xi_is_half else int(math.floor(-half))
        hi = int(math.ceil(-y / 2 + half)) if ring.xi_is_half else int(math.ceil(half))
        for x in range(lo, hi + 1):
            el = ring.element(x, y)
            if el.norm() <= bound:
                comps.append(el)
    K = len(h)
    if len(comps) ** K > _SEARCH_HARD_CAP:
        raise ValueError("search space too large; lower max_norm_cap")
    best = None
    for combo in itertools.product(comps, repeat=K):
        n2 = sum(c.norm() for c in combo)
        if n2 == 0 or n2 > bound:
            continue
        rate = computation_rate(h, combo, P)
        key = (-rate, n2, tuple((abs(c.a), 0 if c.a >= 0 else 1, abs(c.b), 0 if c.b >= 0 else 1) for c in combo))
        if best is None or key < best[0]:
            best = (key, combo, rate)
    if best is None:
        raise ValueError("empty search space; raise max_norm_cap")
    return BestCoefficients(tuple(best[1]), best[2], truncated)


# ---------------------------------------------------------------------------
# differential checks
# ---------------------------------------------------------------------------

POWERS = (0.5, 2.0, 8.0, 16.0, 64.0)
CAPS = (None, 1.0, 4.0)
TIE_CHANNELS = (
    [1.0], [1.0, 1.0], [1.0, 1j], [0.5 + 0.5j, 1.0], [1.0, -1.0], [1j, 1j],
    [1.0, 1.0, 1.0], [1.0, -1.0, 1j],
)
TIE_CHANNELS_OF = {K: [np.asarray(h) for h in TIE_CHANNELS if len(h) == K] for K in (1, 2, 3)}


def _same(h, P, ring="Z", cap=None):
    want = reference_best_coefficients(h, P, ring=ring, max_norm_cap=cap)
    got = best_coefficients(h, P, ring=ring, max_norm_cap=cap)
    assert got.a == want.a, (h, P, ring, cap)
    assert got.rate == want.rate, (h, P, ring, cap)
    assert got.truncated == want.truncated
    assert type(got.a[0]) is type(want.a[0])


def _channels(rng, K, count, complex_h=True):
    H = rng.standard_normal((count, K))
    if complex_h:
        H = (H + 1j * rng.standard_normal((count, K))) / math.sqrt(2)
    return list(H) + TIE_CHANNELS_OF[K]


@pytest.mark.parametrize("K", [1, 2, 3])
def test_integer_search_matches_oracle(K):
    rng = np.random.default_rng(100 + K)
    for h in _channels(rng, K, 6, complex_h=False) + _channels(rng, K, 6):
        for P in POWERS:
            for cap in CAPS:
                _same(h, P, "Z", cap)


def test_gaussian_search_matches_oracle():
    rng = np.random.default_rng(7)
    for K in (1, 2):
        for h in _channels(rng, K, 6):
            for P in POWERS:
                for cap in CAPS:
                    _same(h, P, "Zi", cap)


@pytest.mark.parametrize("d", [-1, -2, -3, -7, -15])
def test_quadratic_search_matches_oracle(d):
    ring = QuadraticRing(d)
    rng = np.random.default_rng(-d)
    for K in (1, 2):
        for h in _channels(rng, K, 3):
            nh = float(np.vdot(h, h).real)
            for P in POWERS:
                for cap in CAPS:
                    # the scalar oracle makes ~(bound)^2 computation_rate
                    # calls at K = 2; keep each case well under a second
                    if K == 2 and min(1 + P * nh, cap or math.inf) > 41:
                        continue
                    _same(h, P, ring, cap)


def test_eisenstein_relay_draws_match_oracle():
    # h ~ CN(0, I_2) at P = 8 over Z[w], as a relay over A_OK sees it
    ring = QuadraticRing(-3)
    rng = np.random.default_rng(2024)
    H = (rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))) / math.sqrt(2)
    for h in H:
        _same(h, 8.0, ring)


def test_unsupported_inputs_raise_as_oracle():
    cases = [
        ([1.0], 1.0, QuadraticRing(2), "imaginary quadratic"),
        ([1.0], 1.0, "Q", "unsupported coefficient ring"),
        ([0.0], 1.0, "Z", "h must be nonzero"),
        ([1.0], 0.0, "Z", "P must be positive"),
    ]
    for h, P, ring, msg in cases:
        for search in (best_coefficients, reference_best_coefficients):
            with pytest.raises(ValueError, match=msg):
                search(h, P, ring=ring)


def test_refusal_for_k6_is_unchanged():
    # bound 1 + 10*6*(56/60) = 57 gives B = 7 and 15^6 points per search
    h = np.full(6, math.sqrt(56 / 60))
    for search in (best_coefficients, reference_best_coefficients):
        with pytest.raises(ValueError, match="search space too large"):
            search(h, 10.0)


@pytest.mark.parametrize("ring", ["Z", "Zi", QuadraticRing(-3)])
def test_cap_below_one_leaves_an_empty_search(ring):
    with pytest.raises(ValueError, match="empty search space; raise max_norm_cap"):
        best_coefficients([1.0, 0.5], 2.0, ring=ring, max_norm_cap=0.5)


def test_k6_search_stays_small():
    # bound 48.5 gives B = 6: the old Z search built all 13^6 grid points
    h = np.full(6, math.sqrt(47.5 / 60))
    tracemalloc.start()
    try:
        res = best_coefficients(h, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.a == (1, 1, 1, 1, 1, 1)
    assert peak < 100 * 2**20
