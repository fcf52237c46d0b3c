"""Differential test of best_coefficients against three oracles, kept
here verbatim: the original searchers (a meshgrid box for Z and a scalar
itertools.product loop for quadratic rings), the norm-pruned
product search that replaced them, without its box-count refusal, and
the two-pass tail that filtered and re-ranked the enumerator's survivors
with vectorised rates.  Results must agree exactly in a, rate and
truncated; against the two-pass tail also in the sign of the rate and
the repr of a."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from latcf import cfsim
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
# the second oracle: the norm-pruned product search, as it was, without
# its refusal of len(components)**K > _SEARCH_HARD_CAP
# ---------------------------------------------------------------------------


def pruned_best_coefficients(h, P, ring="Z", max_norm_cap=None):
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
    x, y, values, norms = _components(ring, bound)
    near = _search(values, norms, h, P, nh, bound)
    n2 = norms[near].sum(axis=1)
    xs, ys = x[near].tolist(), y[near].tolist()
    if isinstance(ring, QuadraticRing):
        cands = [tuple(map(ring.element, xr, yr)) for xr, yr in zip(xs, ys)]
        rates = [computation_rate(h, a, P) for a in cands]
    else:
        cands = xs
        rates = _cross_rate_vector(values[near] @ np.conj(h), n2, P, nh)
    best = min(
        range(len(near)),
        key=lambda i: (
            -rates[i],
            n2[i],
            tuple((abs(a), a < 0, abs(b), b < 0) for a, b in zip(xs[i], ys[i])),
        ),
    )
    return BestCoefficients(tuple(cands[best]), float(rates[best]), truncated)


def _cross_rate_vector(cross, n2, P, nh):
    inner = n2 - P * np.abs(cross) ** 2 / (1.0 + P * nh)
    rates = np.maximum(0.0, -np.log2(np.maximum(inner, 1e-300)))
    rates[inner <= 1e-15 * n2] = math.inf
    return rates


def _components(ring, bound):
    """Coordinates x and y in the Z-basis (1, xi), values x + y*xi and
    integer norms of every ring element with norm <= bound.  Z has y = 0
    and real values."""
    if ring == "Z":
        t, u, ymax, xi = 0, 0, 0, 0.0
    else:
        if not isinstance(ring, QuadraticRing):
            raise ValueError(f"unsupported coefficient ring {ring!r}")
        if ring.d > 0:
            raise ValueError("coefficient search needs an imaginary quadratic ring")
        t, u = ring.xi_sq  # norm(x + y*xi) = x^2 + t*x*y - u*y^2
        ymax = int(math.sqrt(4.0 * max(bound, 0.0) / -ring.d)) + 1
        xi = ring.xi_numeric
    r = int(math.sqrt(max(bound, 0.0))) + ymax  # |x + t*y/2| <= sqrt(bound)
    x = np.arange(-r, r + 1)
    y = np.arange(-ymax, ymax + 1)[:, None]
    grid = x * x + t * x * y - u * y * y
    iy, ix = np.nonzero(grid <= bound)
    x, y = x[ix], y[iy, 0]
    return x, y, x + y * xi, grid[iy, ix]


def _search(values, norms, h, P, nh, bound):
    """Component indices, one row per candidate, of the K-tuples with
    total norm in (0, bound] whose vectorised rate is within 1e-9 of the
    best.

    The K-fold product grows one coordinate at a time: a prefix survives
    only while its norm is within the bound, and it carries
    sum_k a_k conj(h_k), so no candidate matrix is built.
    """
    levels = []
    n2 = np.zeros(1, dtype=np.int64)
    cross = np.zeros(1, dtype=complex)
    for hk in np.conj(h):
        parent, comp = np.nonzero(norms <= (bound - n2)[:, None])
        levels.append((parent, comp))
        n2 = n2[parent] + norms[comp]
        cross = cross[parent] + values[comp] * hk
    if not n2.any():
        raise ValueError("empty search space; raise max_norm_cap")
    rates = _cross_rate_vector(cross, n2, P, nh)
    rates[n2 == 0] = -math.inf
    rows = np.flatnonzero(rates >= rates.max() - 1e-9)
    cols = []
    for parent, comp in reversed(levels):
        cols.append(comp[rows])
        rows = parent[rows]
    return np.stack(cols[::-1], axis=1)


# ---------------------------------------------------------------------------
# the third oracle: the two-pass tail after the Schnorr-Euchner walk, as it
# was, with the computation_rate its quadratic re-rank called
# ---------------------------------------------------------------------------


def twopass_best_coefficients(h, P, ring="Z", max_norm_cap=None):
    h = np.asarray(h, dtype=complex)
    if not np.any(h):
        raise ValueError("h must be nonzero")
    if P <= 0:
        raise ValueError("P must be positive")
    nh = float(np.vdot(h, h).real)
    bound = 1.0 + P * nh
    if not math.isfinite(bound):
        raise ValueError("h and P must be finite")
    truncated = False
    if max_norm_cap is not None and bound > max_norm_cap:
        bound = float(max_norm_cap)
        truncated = True
    if ring == "Z":
        t, u, xi = 0, 0, None
    else:
        if not isinstance(ring, QuadraticRing):
            raise ValueError(f"unsupported coefficient ring {ring!r}")
        if ring.d > 0:
            raise ValueError("coefficient search needs an imaginary quadratic ring")
        t, u = ring.xi_sq  # norm(x + y*xi) = x^2 + t*x*y - u*y^2
        xi = ring.xi_numeric
    if bound < 1:
        raise ValueError("empty search space; raise max_norm_cap")
    # rounding moves Q by about 1e-16 (1 + P|h|^2) Q; 1e-6 covers the
    # 1e-9 rate tolerance
    margin = 1e-6 + 1e-12 * (1.0 + P * nh)
    points, n2 = zip(*cfsim._ellipsoid_points(h.tolist(), P / (1.0 + P * nh), bound, margin, t, u, xi))

    # the tie rule's vectorised rate and 1e-9 filter, in the arithmetic
    # tests/test_search_oracle.py pins: values x + y*xi, cross grown one
    # coordinate at a time
    hc = np.conj(h)
    if xi is None:
        values = np.array(points, dtype=float)
        xs, ys = points, [(0,) * len(h)] * len(points)
    else:
        xy = np.array(points, dtype=np.int64)
        values = xy[:, 0::2] + xy[:, 1::2] * xi
        xs, ys = [p[0::2] for p in points], [p[1::2] for p in points]
    n2 = np.array(n2, dtype=np.int64)
    cross = 0j
    for col, hk in zip(values.T, hc):
        cross = cross + col * hk
    rates = _twopass_rate_vector(cross, n2, P, nh)
    near = (rates >= rates.max() - 1e-9).nonzero()[0]
    n2 = n2[near]
    keep = near.tolist()
    xs, ys = [xs[i] for i in keep], [ys[i] for i in keep]
    if isinstance(ring, QuadraticRing):
        cands = [tuple(map(ring.element, xr, yr)) for xr, yr in zip(xs, ys)]
        rates = [twopass_computation_rate(h, a, P) for a in cands]
    else:
        cands = xs
        rates = _twopass_rate_vector(values[near] @ hc, n2, P, nh)
    best = min(
        range(len(near)),
        key=lambda i: (
            -rates[i],
            n2[i],
            tuple((abs(a), a < 0, abs(b), b < 0) for a, b in zip(xs[i], ys[i])),
        ),
    )
    return BestCoefficients(tuple(cands[best]), float(rates[best]), truncated)


def _twopass_rate_vector(cross, n2, P, nh):
    inner = n2 - P * np.abs(cross) ** 2 / (1.0 + P * nh)
    rates = np.maximum(0.0, -np.log2(np.maximum(inner, 1e-300)))
    rates[inner <= 1e-15 * n2] = math.inf
    return rates


def twopass_computation_rate(h, a, P: float) -> float:
    if P <= 0:
        raise ValueError("P must be positive")
    h = np.asarray(h, dtype=complex)
    av = np.array([x.to_complex() if hasattr(x, "to_complex") else complex(x) for x in a], dtype=complex)
    if h.shape != av.shape:
        raise ValueError(f"h and a have different lengths {h.shape} vs {av.shape}")
    na = float(np.vdot(av, av).real)
    if na == 0.0:
        raise ValueError("a must be nonzero")
    nh = float(np.vdot(h, h).real)
    cross = np.vdot(h, av)
    inner = na - P * abs(cross) ** 2 / (1.0 + P * nh)
    if inner <= 1e-15 * na:
        return math.inf
    return max(0.0, -math.log2(inner))


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
            nh = float(np.vdot(h, h).real)
            for P in POWERS:
                for cap in CAPS:
                    # the scalar oracle makes ~(bound)^2 computation_rate
                    # calls at K = 2; above bound 41 the pruned oracle checks
                    if K == 2 and min(1 + P * nh, cap or math.inf) > 41:
                        _same_as_pruned(h, P, QuadraticRing(-1), cap)
                    else:
                        _same(h, P, QuadraticRing(-1), cap)


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


def test_k6_search_the_box_count_refused_now_runs():
    # bound 1 + 10*6*(56/60) = 57 gives B = 7 and 15^6 box points, which
    # the box count refused; the ball holds 9.8e5 of them
    h = np.full(6, math.sqrt(56 / 60))
    with pytest.raises(ValueError, match="search space too large"):
        reference_best_coefficients(h, 10.0)
    _same_as_pruned(h, 10.0)


def test_non_finite_and_degenerate_inputs_raise():
    # the oracles failed here with numpy's own errors, or ran out of memory
    for h, P in (([np.nan, 1.0], 2.0), ([1.0, np.inf], 2.0), ([1.0], math.inf), ([1.0], math.nan)):
        with pytest.raises(ValueError, match="h and P must be finite"):
            best_coefficients(h, P, max_norm_cap=4.0)
    # Q's least eigenvalue 1/(1 + 1e17) rounds to 0
    with pytest.raises(ValueError, match="too large for an exact coefficient search"):
        best_coefficients([1.0], 1e17)


def test_node_budget_refuses(monkeypatch):
    h = np.array([0.3 + 0.8j, -1.1 + 0.2j, 0.5 - 0.4j])
    assert best_coefficients(h, 64.0).rate > 0
    monkeypatch.setattr(cfsim, "_SEARCH_HARD_CAP", 5)
    with pytest.raises(ValueError, match="search space too large; lower max_norm_cap"):
        best_coefficients(h, 64.0)


@pytest.mark.parametrize("ring", ["Z", pytest.param(QuadraticRing(-1), id="Zi"), QuadraticRing(-3)])
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


# ---------------------------------------------------------------------------
# against the pruned oracle, where the box oracle refuses or is too slow
# ---------------------------------------------------------------------------


def _same_as_pruned(h, P, ring="Z", cap=None):
    want = pruned_best_coefficients(h, P, ring=ring, max_norm_cap=cap)
    got = best_coefficients(h, P, ring=ring, max_norm_cap=cap)
    assert got.a == want.a, (h, P, ring, cap)
    assert got.rate == want.rate, (h, P, ring, cap)
    assert got.truncated == want.truncated
    assert type(got.a[0]) is type(want.a[0])


@pytest.mark.parametrize("K, powers, count", [(4, (2.0, 8.0, 16.0), 6), (5, (2.0, 8.0), 4), (6, (2.0, 10.0), 3)])
def test_integer_search_k4_to_k6_matches_pruned(K, powers, count):
    rng = np.random.default_rng(200 + K)
    H = (rng.standard_normal((count, K)) + 1j * rng.standard_normal((count, K))) / math.sqrt(2)
    for h in list(H) + [H[0].real, np.ones(K)]:
        for P in powers:
            for cap in CAPS:
                _same_as_pruned(h, P, "Z", cap)


def test_gaussian_search_k3_matches_pruned():
    rng = np.random.default_rng(303)
    for h in _channels(rng, 3, 4):
        for P in (0.5, 2.0, 8.0):
            for cap in CAPS:
                _same_as_pruned(h, P, QuadraticRing(-1), cap)


def test_eisenstein_search_above_bound_41_matches_pruned():
    ring = QuadraticRing(-3)
    rng = np.random.default_rng(41)
    H = (rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))) / math.sqrt(2)
    bounds = []
    for h in list(H) + TIE_CHANNELS_OF[2]:
        for P in (16.0, 32.0, 64.0):
            bounds.append(1 + P * float(np.vdot(h, h).real))
            for cap in CAPS:
                _same_as_pruned(h, P, ring, cap)
    assert sum(b > 41 for b in bounds) >= 20


def test_sim_search_draws_match_pruned():
    # h ~ CN(0, I_3) at P = 64, as every relay of sim-search sees it
    rng = np.random.default_rng(64)
    H = (rng.standard_normal((300, 3)) + 1j * rng.standard_normal((300, 3))) / math.sqrt(2)
    for h in H:
        for cap in CAPS:
            _same_as_pruned(h, 64.0, "Z", cap)


@pytest.mark.parametrize("ring", ["Z", pytest.param(QuadraticRing(-1), id="Zi"), QuadraticRing(-3), QuadraticRing(-7)])
def test_rate_near_zero_matches_pruned(ring):
    # at P|h|^2 ~ 1e-17 every rate rounds to 0 and the norm key decides
    # among all ball vectors; at 1e-10 every rate is within the 1e-9
    # tolerance of the best
    for h in ([1.0, 1j], [0.5 + 0.5j, 1.0], [1.0, 1.0, 1.0]):
        for P in (1e-17, 1e-10, 1e-3):
            _same_as_pruned(np.asarray(h), P, ring)


# ---------------------------------------------------------------------------
# against the two-pass tail: every bit of the result
# ---------------------------------------------------------------------------

TEN_RINGS = [QuadraticRing(d) for d in (-1, -2, -3, -5, -6, -7, -11, -15, -19, -43)]
TAIL_CAPS = (None, 1.0, 4.0, 20.0)


def _outcome(search, h, P, ring, cap):
    try:
        return search(h, P, ring=ring, max_norm_cap=cap)
    except ValueError as exc:
        return str(exc)


def _same_bits(h, P, ring, cap):
    """Whether best_coefficients gives the two-pass tail's result, bit for
    bit (or its error); returns the result."""
    want = _outcome(twopass_best_coefficients, h, P, ring, cap)
    got = _outcome(best_coefficients, h, P, ring, cap)
    case = (h.tolist(), P, ring, cap)
    if isinstance(want, str):
        assert got == want, case
        return got
    assert got.a == want.a and repr(got.a) == repr(want.a), case
    assert type(got.a[0]) is type(want.a[0]), case
    assert got.rate == want.rate and math.copysign(1, got.rate) == math.copysign(1, want.rate), case
    assert type(got.rate) is float, case
    assert got.truncated == want.truncated, case
    if isinstance(ring, QuadraticRing):
        assert computation_rate(h, got.a, P) == got.rate, case
    return got


def _tail_inputs(rng, Ks, count):
    """count (h, P, cap): h ~ CN(0, I), real, scaled or a tie channel; P
    log-uniform on [1e-17, 1e3] for a third, on [0.1, 1e3] otherwise."""
    for i in range(count):
        K = Ks[i % len(Ks)]
        kind = rng.integers(6)
        if kind == 0:
            h = rng.standard_normal(K) + 0j
        elif kind == 1 and TIE_CHANNELS_OF.get(K):
            ties = TIE_CHANNELS_OF[K]
            h = np.asarray(ties[rng.integers(len(ties))], dtype=complex)
        else:
            h = (rng.standard_normal(K) + 1j * rng.standard_normal(K)) / math.sqrt(2)
            if kind == 2:
                h *= 10.0 ** rng.uniform(-2, 1)
        P = 10.0 ** (rng.uniform(-17, 3) if rng.integers(3) == 0 else rng.uniform(-1, 3))
        yield h, float(P), TAIL_CAPS[rng.integers(len(TAIL_CAPS))]


def _check_tail(ring, Ks, count, seed):
    # over all tests here: 7800 Z, 4200 Z[i] and 8000 quadratic-ring inputs,
    # and 128 at rate 0 and rate inf
    results = [_same_bits(h, P, ring, cap) for h, P, cap in _tail_inputs(np.random.default_rng(seed), Ks, count)]
    found = [r for r in results if not isinstance(r, str)]
    assert len(found) > 0.9 * count
    rates = [r.rate for r in found]
    assert min(rates) < 1e-9 and max(rates) > 3  # the rate-0 end and the high end
    return found


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_integer_tail_is_bit_identical(K):
    _check_tail("Z", [K], {1: 1500, 2: 1500, 3: 1500, 4: 1200, 5: 1100, 6: 1000}[K], 900 + K)


def test_gaussian_tail_is_bit_identical():
    _check_tail(QuadraticRing(-1), [1, 2, 3], 4200, 910)


@pytest.mark.parametrize("ring", TEN_RINGS, ids=lambda r: f"d{r.d}")
def test_quadratic_tail_is_bit_identical(ring):
    _check_tail(ring, [1, 2, 3], 800, 920 - ring.d)


def test_tail_at_rate_zero_and_rate_inf_is_bit_identical():
    # at P|h|^2 near 1e15 the best vector's inner term falls under
    # 1e-15 |a|^2 (rate inf), or Q stops being positive definite
    P_inf = [float(P) for P in np.geomspace(7e14, 2e15, 6)]
    rates = []
    for h in ([1.0], [1j], [0.5 + 0.5j], [1.0, 0.0]):
        for ring in ("Z", QuadraticRing(-1), QuadraticRing(-3), QuadraticRing(-2)):
            for P in P_inf + [1e-17, 1e-12]:
                res = _same_bits(np.asarray(h, dtype=complex), P, ring, None)
                if not isinstance(res, str):
                    rates.append(res.rate)
    assert math.inf in rates and 0.0 in rates
