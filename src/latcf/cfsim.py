"""Desk-scale compute-and-forward simulation.

K sources transmit dithered nested-lattice codewords over a complex
AWGN channel; each of M relays scales its observation, removes the
dithers, quantizes to the fine lattice and maps the result to a linear
function of the source messages.  Real lattices carry one point per
real part, so a complex symbol transports two independent messages.

Power convention: transmit symbols are uniform over the coarse cell
[0, q*scale)^2 per complex dimension with scale = sqrt(P/(q^2/6)), so
their centered variance is exactly P.  The deterministic cell offset is
known at the relays and does not count as noise.

`run_trials` runs in two phases over chunks of trials, which share what
`_per_run` computes once per call.  Phase 1 makes each trial's random
draws, and nothing else, exactly as its own generator default_rng([seed,
trial]) makes them: H, the messages per source, level and real part, the
dithers, then Z (`seeding.trial_draws`: one vectorised SeedSequence pass,
numpy's standard_normal for H and Z, one random_raw call per trial decoded
as numpy's integers and random decode it, and a trial with a Lemire
rejection redrawn through those calls).  Phase 2 does the chunk's
arithmetic in numpy: every level's encoding and the CRT in one product
with the lattice's G_q mod q, the channel, the relays' scaling and
reduction, the relays' scalars of (h, a, P) (`_relay_scalars`: one
coefficient search over the chunk's relays, `_search_rows`, then alpha,
the analytic noise variance and the zero-divisor flag; under a fixed H
once per call, broadcast over the trials), one `quantize` over every
(trial, relay, real part) row, and the decode check.  A chunk is one
`quantize` pass of relay rows (`rows_per_pass`), so memory does not grow
with the trial count.  Every element goes through the same
floating-point operations, in the same order, as a trial run alone: the
records are a function of (config, seed) only, whatever the chunking.

This engine is the one trial path.  multistage_roundtrip, the noiseless
level-by-level decoding, shares its steps `_crt_points`, `_function_point`
(sum_k a_k t_k mod q) and `_level_messages`.  The one-relay protocol, the
engine's slow path, is the tests' oracle (tests/relay_functions.py).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import QuadraticRing
from .codes import solve_encoding
from .lattices import LatticeDescriptor, LatticePair, _generator_mod_q, mod_coarse, quantize, rows_per_pass
from .seeding import seed_words, trial_draws

_SEARCH_HARD_CAP = 5 * 10**6


# ---------------------------------------------------------------------------
# computation rate and coefficient search
# ---------------------------------------------------------------------------


def computation_rate(h, a, P: float) -> float:
    """Achievable rate log2+(1/(|a|^2 - P|h*a|^2/(1+P|h|^2))) in bits
    per complex channel use; +inf when the inner term vanishes (a
    proportional to h at working precision).  Non-finite h or P, or an
    overflowing 1 + P|h|^2, raise ValueError."""
    if P <= 0:
        raise ValueError("P must be positive")
    h = np.asarray(h, dtype=complex)
    av = _coeffs_to_complex(a)
    if h.shape != av.shape:
        raise ValueError(f"h and a have different lengths {h.shape} vs {av.shape}")
    return _exact_rate(h, av, P, _rate_denominator(h, P))


def _rate_denominator(h, P):
    """1 + P|h|^2, refusing a non-finite h or P, and finite ones whose
    1 + P|h|^2 overflows."""
    den = 1.0 + P * float(np.vdot(h, h).real)
    if not math.isfinite(den):
        if math.isfinite(P) and np.isfinite(h).all():
            raise ValueError("1 + P|h|^2 overflows; lower P or |h|")
        raise ValueError("h and P must be finite")
    return den


def _exact_rate(h, av, P, den):
    """computation_rate for the complex array av, given den = 1 + P|h|^2.
    numpy's vdot and its scalar abs and power set these bits."""
    na = float(np.vdot(av, av).real)
    if na == 0.0:
        raise ValueError("a must be nonzero")
    cross = np.vdot(h, av)
    inner = na - P * abs(cross) ** 2 / den
    if inner <= 1e-15 * na:
        return math.inf
    return max(0.0, -math.log2(inner))


def _coeffs_to_complex(a) -> np.ndarray:
    out = []
    for x in a:
        out.append(x.to_complex() if hasattr(x, "to_complex") else complex(x))
    return np.array(out, dtype=complex)


class BestCoefficients(NamedTuple):
    a: tuple
    rate: float
    truncated: bool


def best_coefficients(h, P: float, ring="Z", max_norm_cap=None) -> BestCoefficients:
    """Rate maximization over nonzero coefficient vectors with squared
    norm at most 1 + P|h|^2 (larger norms cannot beat rate 0).

    ring selects the coefficient alphabet: "Z" for rational integers or
    a QuadraticRing with d < 0, such as QuadraticRing(-1) for the
    Gaussian integers.  The search is exact.  It enumerates the ellipsoid
    Q(a) = |a|^2 - P|sum_k a_k conj(h_k)|^2/(1+P|h|^2) < 1, where the
    rate is -log2 Q, over the integer coordinates of a in Schnorr-Euchner
    order, Q factored in O(K).  As Q(-a) = Q(a) bit for bit it walks one
    of each pair +-a; over Z[i] and Z[w] one of each class of associates,
    each associate then kept on its own Q, whose last bit can differ.  It
    refuses with "search space too large" past _SEARCH_HARD_CAP (5e6)
    nodes of that walk.  Of the vectors within 1e-9 of the best
    filter rate, the least (-rate, norm, per component x + y*xi (|x|,
    x < 0, |y|, y < 0)) wins, with the rate recomputed exactly: when
    every rate is 0 the norm decides, and over O_K the last bit of the
    exact rates decides between associates (a and i*a over Z[i]).

    The filter grows cross = sum_k a_k conj(h_k) one component at a time
    from 0j in Python complex arithmetic, a_k = x over Z, x + y*xi over
    O_K.  Then numpy's array abs and log2, and in Python floats the
    1e-300 floor, max(0, r) keeping r = -0.0 as np.maximum does, the
    1e-15 test for +inf and the 1e-9 filter.  The exact rate is the
    matrix product a @ conj(h), then the same steps, over Z; over O_K
    computation_rate's arithmetic (numpy's vdot and its scalar abs and
    power).  These fix the bits.  If max_norm_cap trims the bound the
    result is flagged truncated.  P <= 0, a NaN cap or another ring raise
    ValueError before h is read; then a zero or non-finite h, a non-finite
    P, and P|h|^2 so large (about 1e15) that Q is no longer positive definite.
    """
    return _search_rows(np.asarray(h, dtype=complex)[None], P, ring, max_norm_cap)[0]


class _RowError(ValueError):
    """A refusal of one relay row (a search's, or a zero noiseless
    vector): the message, and the row."""

    def __init__(self, message, row):
        super().__init__(message)
        self.row = row


def _search_rows(H, P, ring, max_norm_cap, dens=None):
    """best_coefficients of each row h of the complex R x K array H, bit
    for bit.

    The call's checks (P > 0, no NaN cap, the ring) come first.  Then per
    row, in order: its checks, the walk and the filter's cross of each pair
    +-v, so a row's refusal (a _RowError naming the row) comes after every
    earlier row's.  Once over all rows: numpy's abs and log2 of the filter
    and, over Z, of the re-rank (elementwise, so batching keeps the bits).
    Per row: the re-rank's matmul over exactly its near vectors, -v too,
    over Z (BLAS's bits differ for a lone row), _exact_rate per pair over
    O_K, and the tie rule.  A list dens gets each row's 1 + P|h|^2."""
    if P <= 0:
        raise ValueError("P must be positive")
    if max_norm_cap is not None and math.isnan(max_norm_cap):
        raise ValueError("max_norm_cap must not be NaN")
    if ring == "Z":
        t, u, xi = 0, 0, None
    elif not isinstance(ring, QuadraticRing):
        raise ValueError(f"unsupported coefficient ring {ring!r}")
    elif ring.d > 0:
        raise ValueError("coefficient search needs an imaginary quadratic ring")
    else:
        t, u = ring.xi_sq  # norm(x + y*xi) = x^2 + t*x*y - u*y^2
        xi = ring.xi_numeric
    Hc = np.conj(H)
    hl, hcl = H.tolist(), Hc.tolist()
    rows = []  # h, den, truncated, leaves, norms, the half's components
    cross, n2, den = [], [], []  # per leaf
    for r, h in enumerate(H):
        try:
            if not any(hl[r]):  # NaN is nonzero, as for numpy
                raise ValueError("h must be nonzero")
            d = _rate_denominator(h, P)
            bound = d
            truncated = False
            if max_norm_cap is not None and bound > max_norm_cap:
                bound = float(max_norm_cap)
                truncated = True
            if bound < 1:
                raise ValueError("empty search space; raise max_norm_cap")
            # rounding moves Q by about 1e-16 (1 + P|h|^2) Q; 1e-6 covers
            # the 1e-9 rate tolerance
            margin = 1e-6 + 1e-12 * d
            points, norms = zip(*_ellipsoid_points(hl[r], P / d, bound, margin, t, u, xi))
        except ValueError as exc:
            raise _RowError(str(exc), r) from None
        # the filter's cross of v (-v's negates it), one component at a time:
        # x over Z, x + y*xi over O_K
        half = points[0::2]
        comps = half if xi is None else [[x + y * xi for x, y in zip(v[0::2], v[1::2])] for v in half]
        for v in comps:
            c = 0j
            for x, hk in zip(v, hcl[r]):
                c = c + x * hk
            cross.append(c)
        rows.append((h, d, truncated, points, norms, comps))
        n2 += norms[0::2]
        den += [d] * (len(norms) // 2)
        if dens is not None:
            dens.append(d)

    # the filter, then the exact re-rank of the pairs it keeps
    rates = _rates(cross, n2, P, den)
    exact, n2, den, nears, end = [], [], [], [], 0  # over Z, crosses until _rates
    for (h, d, _, points, norms, comps), hc in zip(rows, Hc):
        row = rates[end:end + len(norms) // 2]
        end, top = end + len(row), max(row) - 1e-9
        near = [j for j, rate in enumerate(row) if rate >= top]
        nears.append(near)
        if xi is None:  # both of each pair: BLAS's bits differ for a lone row
            rerank = np.array([points[i] for j in near for i in (2 * j, 2 * j + 1)], dtype=float)
            exact += (rerank @ hc).tolist()[0::2]
            n2 += [norms[2 * j] for j in near]
            den += [d] * len(near)
        else:
            exact += [_exact_rate(h, np.array(comps[j]), P, d) for j in near]
    if xi is None:
        exact = _rates(exact, n2, P, den)

    # the tie rule among each row's best rates: of a tied pair +-v, the
    # greater, whose first nonzero x is positive; then the least norm, then
    # per coordinate 2|x| - (x > 0), which orders as (|x|, x < 0) and so
    # orders components as (|x|, x < 0, |y|, y < 0).  The winner keeps its
    # own exact rate (-0.0 too).
    found, end = [], 0
    for (_, _, truncated, points, norms, _), near in zip(rows, nears):
        rates = exact[end:end + len(near)]
        end += len(near)
        top = max(rates)
        tied = ((2 * j + (points[2 * j] < points[2 * j + 1]), r) for j, r in zip(near, rates) if r == top)
        best, rate = min(tied, key=lambda ir: (norms[ir[0]], [2 * abs(x) - (x > 0) for x in points[ir[0]]]))
        v = points[best]
        a = v if xi is None else tuple(map(ring.element, v[0::2], v[1::2]))
        found.append(BestCoefficients(a, rate, truncated))
    return found


def _rates(cross, n2, P, den):
    """Rates max(0, -log2 max(inner, 1e-300)), +inf where inner <= 1e-15
    |a|^2, with inner = |a|^2 - P|cross|^2/den, |a|^2 = n2 and den each
    element's own 1 + P|h|^2: numpy's abs and log2 over all of cross at
    once, the rest in Python floats.  np.maximum(0.0, r) keeps r = -0.0,
    and so does this."""
    inner = [n - P * (m * m) / d for n, m, d in zip(n2, np.abs(cross).tolist(), den)]
    logs = np.log2([x if x > 1e-300 else 1e-300 for x in inner]).tolist()
    out = []
    for x, n, lg in zip(inner, n2, logs):
        r = -lg
        out.append(math.inf if x <= 1e-15 * n else r if r >= 0.0 else 0.0)
    return out


def _ellipsoid_points(h, c, bound, margin, t, u, xi):
    """(integer coordinates, norm) of the nonzero coefficient vectors
    with norm <= bound whose Q = norm - c|sum_k a_k conj(h_k)|^2 is
    within a factor 1 + margin of the least, in mirror pairs v, -v.

    That holds every vector the 1e-9 rate filter can keep, the rate-0
    case included: when no vector has rate > 1e-9, P|h|^2 < 1, so the
    ball holds only norm-1 vectors, and their Q all lie between the
    least (> 1 - 1e-9) and 1, inside the margin.

    Z has one coordinate x per component; a quadratic ring has (x, y),
    a = x + y*xi, interleaved.  Q (_factor) is enumerated depth first
    from the last coordinate, each level in Schnorr-Euchner (zig-zag)
    order from its centre (O(1) from running sums), inside the interval
    the norm bound leaves.  Q(-v) = Q(v) bit for bit, so a level whose
    higher coordinates are all 0 (centre +-0, symmetric interval) counts
    x = 0, 1, 2, ... up (Q grows with x, so the radius ends it), and a
    leaf brings its mirror.  Z[w] and Z[i] fold all their units: the top
    nonzero component x + y*xi keeps to the sector x >= 1, y >= 0, which
    holds one associate of each element, and a leaf brings its other
    associates, exact integer products by xi.  Their Q can differ from
    the leaf's in the last bits, by less than a factor slack (a quarter
    of the margin, at most 1.25).  So the walk prunes against the radius
    widened by slack, which reaches every class with an associate inside
    the radius, and when a class lies within slack^2 of the final radius
    each associate gets its own Q from the walk's arithmetic (`_walk_q`)
    and is kept on it: the leaves are exactly those of the walk that
    folds only +-1.  _SEARCH_HARD_CAP counts the nodes of this walk.
    """
    m = 1 if xi is None else 2
    D, rin, rho0, rho1, wu, wv = _factor(h, c, t, u, xi)
    n = len(D)
    e = -u - t * t / 4  # norm(x + y*xi) = (x + t*y/2)^2 + e*y^2
    # the units other than +-1: xi (xi^2 = xi - 1) and xi^2 over Z[w], xi (xi^2 = -1) over Z[i]
    turns = {(1, -1): 2, (0, -1): 1}.get((t, u), 0) if m == 2 else 0

    z = [0] * (n + 1)  # z[n] = 0 is the y of Z's top level
    s0 = [0.0] * (n + 1)  # s[i] = sum_{j > i} w_j z_j
    s1 = [0.0] * (n + 1)
    centre = [0.0] * n
    step = [0] * (n + 1)  # 0 (and step[n]): a level counting up from 0
    lo = [0] * n  # the norm bound's interval for z[i]
    hi = [0] * n
    zlo = [0] * n  # every later sibling is outside [lo, hi]
    zhi = [0] * n
    dist = [0.0] * (n + 1)  # Q of the levels above
    norm = [0] * (n + 1)  # norm of the components above
    radius = bound * (1 + margin)  # Q <= norm on the whole ball
    # an associate's Q differs from its class's by rounding, about 1e-16 d
    # relative: margin's 1e-12 d is 1e4 times that, slack a quarter of it
    slack = 1 + min(margin, 1.0) / 4 if turns else 1.0
    limit = radius * slack
    leaves = []
    nodes, budget = 0, _SEARCH_HARD_CAP
    floor, ceil, sqrt = math.floor, math.ceil, math.sqrt
    i, down = n, True
    while True:
        if down:  # enter level i - 1 at the admissible value nearest its centre
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
            x, r, step[i] = 0, top, 0  # all above 0: count up over [-top, top]
            if step[i + 1] or y:
                if turns and bot < 1 and not step[i + 1] and i % 2 == 0:
                    bot = 1  # the top component's x, its y >= 1: the sector
                x = round(ce)
                x = bot if x < bot else top if x > top else x
                r = top - x if top - x > x - bot else x - bot
                step[i] = 1 if ce >= x else -1
            lo[i], hi[i], zlo[i], zhi[i], centre[i], z[i] = bot, top, x - r, x + r, ce, x
            down = False
        nodes += 1
        if nodes > budget:
            raise ValueError("search space too large; lower max_norm_cap")
        x = z[i]
        d = x - centre[i]
        q = dist[i + 1] + D[i] * d * d
        if q > limit or not zlo[i] <= x <= zhi[i]:  # and every later sibling
            i += 1
            if i == n:
                break
        elif lo[i] <= x <= hi[i]:
            nr = norm[i + 1]
            if i % m == 0:  # x completes its component
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
                    limit = radius * slack
        s = step[i]  # next sibling: zig-zag from the centre, or up from 0
        z[i] += s or 1
        if s:
            step[i] = -s - 1 if s > 0 else 1 - s
    if turns:  # each class brings its other associates
        # only a class within a factor slack^2 of the radius needs its
        # associates' own Q; elsewhere the class decides for all of them
        exact = any(radius / slack / slack <= q <= radius * slack for q, _, _ in leaves)
        if exact:
            levels = list(zip(D[::-1], rin[::-1], rho0[::-1], rho1[::-1], wu[:0:-1], wv[:0:-1]))
        classes, leaves = leaves, []
        for q, v, nr in classes:
            if q <= limit:
                leaves.append((q, v, nr))
                for _ in range(turns):  # times xi: x + y*xi -> u*y + (x + t*y)*xi
                    v = tuple([c for x, y in zip(v[0::2], v[1::2]) for c in (u * y, x + t * y)])
                    if exact:
                        q = _walk_q(v, levels)
                        radius = min(radius, q * (1 + margin))
                    leaves.append((q, v, nr))
    return [pt for q, v, nr in leaves if q <= radius for pt in ((v, nr), (tuple([-x for x in v]), nr))]


def _walk_q(v, levels):
    """Q of the coordinates v as _ellipsoid_points' walk computes it at
    its leaf, bit for bit: the same running sums, centres and partial
    sums, level by level from the last coordinate.  levels holds per
    level, from the last, D_i, R_i,i+1, rho0_i, rho1_i and the w of the
    level above."""
    q, a, b, y = 0.0, 0.0, 0.0, 0
    for x, (di, ri, r0, r1, u1, v1) in zip(reversed(v), levels):
        ce = -(ri * y + (r0 * a + r1 * b))
        a, b = a + u1 * y, b + v1 * y
        d = x - ce
        q = q + di * d * d
        y = x
    return q


def _factor(h, c, t, u, xi):
    """Q = sum_i D_i (z_i + sum_{j>i} R_ij z_j)^2 in O(K).  G is the norm
    form, blocks [1] (Z) or [[1, t/2], [t/2, -u]], minus W^T (cI) W, with
    w_j = g_j = conj(h_k)(1, xi) as (re, im).  Eliminating a block leaves
    that shape, C += (C w)(C w)^T / D per pivot, so R_ij = rho_i . w_j past
    i's block.  Returns D, rin (R_i,i+1, 0 at the top), rho0, rho1, and wu,
    wv (0 at level n)."""
    m = 1 if xi is None else 2
    g = [hk.conjugate() * b for hk in h for b in (1.0, xi)[:m]]
    wu, wv = [a.real for a in g], [a.imag for a in g]
    D, rin, rho0, rho1 = [], [], [], []
    c00, c01, c11 = c, 0.0, c
    for k in range(0, len(g), m):
        ux, vx = wu[k], wv[k]
        if k:
            rin.append(rho0[-1] * ux + rho1[-1] * vx)
        p0, p1 = c00 * ux + c01 * vx, c01 * ux + c11 * vx  # C w_x
        dx = 1.0 - (ux * p0 + vx * p1)
        pivots = [(dx, p0, p1)]
        if m == 2 and dx > 0:  # y, with x's pivot taken out of its row (dx <= 0 refuses below)
            uy, vy = wu[k + 1], wv[k + 1]
            q0, q1 = c00 * uy + c01 * vy, c01 * uy + c11 * vy  # C w_y
            sxy = t / 2 - (uy * p0 + vy * p1)
            r = sxy / dx
            rin.append(r)
            pivots.append(((-u - (uy * q0 + vy * q1)) - r * sxy, q0 - r * p0, q1 - r * p1))
        for di, a0, a1 in pivots:
            if not di > 0:
                # G's least eigenvalue is about 1/(1 + P|h|^2)
                raise ValueError("P*|h|^2 too large for an exact coefficient search")
            D.append(di)
            rho0.append(-a0 / di)
            rho1.append(-a1 / di)
            c00, c01, c11 = c00 + a0 * a0 / di, c01 + a0 * a1 / di, c11 + a1 * a1 / di
    return D, rin + [0.0], rho0, rho1, wu + [0.0], wv + [0.0]


# ---------------------------------------------------------------------------
# relay and decode steps
# ---------------------------------------------------------------------------


def _require_real(lat: LatticeDescriptor):
    """The one ambient test of make_pair, the simulator and
    multistage_roundtrip: all of them carry real lattice points."""
    if lat.ambient != "real":
        raise ValueError(f"a real-ambient lattice is needed, got {lat.kind} over {lat.q!r}")


def mmse_alpha(h, a, P: float) -> complex:
    """Minimizer of |alpha|^2 + P|alpha*h - a|^2.  Non-finite h or P, or
    an overflowing 1 + P|h|^2, raise ValueError."""
    h = np.asarray(h, dtype=complex)
    return _alphas_and_variances(h[None], _coeffs_to_complex(a)[None], P, "mmse")[0].item()


def _alphas_and_variances(H, av, P, alpha_mode, dens=None):
    """Each relay's scaling alpha and the analytic variance of its
    effective noise, for the rows h of H and a of av (R x K), both
    functions of (h, a, P) only, given each row's 1 + P|h|^2 in dens or
    not.  np.vdot (its bits are BLAS's) and abs(alpha)**2 (Python's hypot
    and pow) run per row, the rest over all rows at once."""
    if alpha_mode == "mmse":
        den = np.array(dens if dens is not None else [_rate_denominator(h, P) for h in H])
        alpha = P * np.array([np.vdot(h, v) for h, v in zip(H, av)]) / den
    elif alpha_mode == "unit":
        alpha = np.full(len(H), 1.0 + 0.0j)
    else:
        raise ValueError(f"unknown alpha_mode {alpha_mode!r}")
    spread = np.sum(np.abs(alpha[:, None] * H - av) ** 2, axis=-1).tolist()
    return alpha, [abs(al) ** 2 + P * s for al, s in zip(alpha.tolist(), spread)]


def _relay_combine(alpha, y, av, dithers):
    """alpha*y + sum_k a_k u_k, the sources added in order; alpha, the
    a_k and the u_k broadcast against y, so one call serves a block."""
    acc = alpha * y
    for ak, uk in zip(av, dithers):
        acc = acc + ak * uk
    return acc


def _function_point(a, points, q):
    """sum_k a_k t_k mod q, exact in int64, for the coefficient rows a
    (... x K) and the sources' integer points t_k, the rows of points
    (... x K x n)."""
    return np.mod(np.mod(a, q) @ points, q)


def _decoded_points(pair: LatticePair, parts):
    """The fine-lattice points, mod q, nearest the real parts (... x N, at
    signal scale, any strides): one quantize over every part at once."""
    rows = np.divide(parts, pair.scale, dtype=float, order="C")
    return np.mod(quantize(pair.fine, rows.reshape(-1, rows.shape[-1])), pair.fine.q).reshape(rows.shape)


def _level_messages(fine, point):
    """Each level's message read off an integer point: a preimage of the
    point mod m_l under that level's encoding, or None where the
    reduction is no codeword."""
    return tuple(solve_encoding(code, [int(x) % m for x in point])
                 for code, m in zip(fine.codes, fine.moduli))


def _crt_points(fine, words):
    """The integer CRT points in [0, q) (... x N) of the levels' messages,
    laid end to end in the int64 words (... x sum_l n_l): every level
    encoded and the levels combined in one product with G_q mod q."""
    return words @ _generator_mod_q(fine) % fine.q


def multistage_roundtrip(pair: LatticePair, messages, a):
    """Noiseless level-by-level roundtrip over a multi-prime lattice.

    messages[k][l] is source k's level-l message vector; returns the
    tuple of decoded per-level functions, computed by combining the
    sources with integer weights a, reducing mod q, and decoding each
    prime level on its own.
    """
    fine = pair.fine
    _require_real(fine)
    if any(c.alphabet.e > 1 for c in fine.codes):
        raise ValueError("levels must be prime fields")
    if len(a) != len(messages) or not messages:
        raise ValueError("one coefficient per source")
    lengths = [c.n for c in fine.codes]
    if any([len(w) for w in w_levels] != lengths for w_levels in messages):
        raise ValueError(f"need {len(lengths)} level messages per source, of lengths {lengths}")
    words = [[int(x) % c.alphabet.size for c, w in zip(fine.codes, w_levels) for x in w] for w_levels in messages]
    a_mod = np.array([int(x) % fine.q for x in a], dtype=np.int64)
    points = _crt_points(fine, np.array(words, dtype=np.int64))
    out = _level_messages(fine, _function_point(a_mod, points, fine.q))
    if None in out:
        raise ArithmeticError("noiseless reduction left the codebook")
    return out


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------


@dataclass
class SimConfig:
    pair: LatticePair
    K: int
    M: int
    P: float
    alpha_mode: str = "mmse"
    fixed_H: np.ndarray | None = None
    noiseless: bool = False
    max_norm_cap: float | None = None


@dataclass
class TrialRecord:
    trial: int
    relay: int
    a: tuple
    rate_bits: float
    alpha: complex
    noise_var_analytic: float
    noise_var_emp: float
    decode_ok: int
    zero_divisor_flag: int


def make_pair(fine, P: float) -> LatticePair:
    """Nested pair scaled so transmit symbols have variance P."""
    if not (math.isfinite(P) and P > 0):
        raise ValueError(f"P must be positive and finite, got {P!r}")
    _require_real(fine)
    return LatticePair(fine, scale=_power_scale(fine, P))


def _power_scale(fine, P: float) -> float:
    """The scale that gives transmit symbols variance P."""
    return math.sqrt(P / (fine.q**2 / 6.0))


def run_trials(config: SimConfig, trials: int, seed: int):
    """Independent Monte Carlo trials, deterministic in (config, seed):
    trial t draws exactly what its own generator default_rng([seed, t])
    draws, seeded by one vectorised SeedSequence pass per chunk.  seed must
    be a non-negative integer and trials at most 2**32, so that every trial
    index is one 32-bit seed word; both are checked before any work.

    Trials run in chunks of _chunk_trials(config), one quantize pass of
    relay rows each, that take the seed's words, their trial range and
    what _per_run computes once per call (the module docstring has the two
    phases).  The search runs once over the chunk's relays (once per call
    under a fixed channel), walking each relay in trial order; a
    noiseless relay's rounded vector is checked nonzero instead.  So
    errors come in trial order, and a relay's refusal names its trial and
    relay ("trial 3, relay 1: ...", trial 0 under a fixed channel).  The
    records do not depend on the chunking.
    """
    words = seed_words(seed)
    _check_config(config)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > 1 << 32:
        raise ValueError(f"trial index {trials - 1} is 2**32 or more; trials must be <= 2**32")
    run, chunk = _per_run(config), _chunk_trials(config)
    records = []
    for start in range(0, trials, chunk):
        records += _run_chunk(config, words, range(start, min(start + chunk, trials)), run)
    return records


def _check_config(config: SimConfig):
    _require_real(config.pair.fine)
    if config.K < 1 or config.M < 1:
        raise ValueError("need K >= 1 sources and M >= 1 relays")
    if not (math.isfinite(config.P) and config.P > 0):
        raise ValueError(f"P must be positive and finite, got {config.P!r}")
    if config.pair.scale != _power_scale(config.pair.fine, config.P):
        raise ValueError(f"pair.scale {config.pair.scale!r} is not make_pair's for P = {config.P!r}")
    if config.alpha_mode not in ("mmse", "unit"):
        raise ValueError(f"unknown alpha_mode {config.alpha_mode!r}")
    if config.noiseless and config.max_norm_cap is not None:
        raise ValueError("a noiseless run does no coefficient search, so max_norm_cap would be ignored")
    if config.fixed_H is not None:
        H = np.asarray(config.fixed_H, dtype=complex)
        if H.shape != (config.M, config.K):
            raise ValueError(f"fixed_H must be {config.M}x{config.K}")
        if not np.all(np.isfinite(H)):
            raise ValueError("fixed_H must be finite")


def _chunk_trials(config: SimConfig) -> int:
    """Trials per chunk: a trial quantizes 2M rows, and a chunk's rows fill
    at most one quantize pass (one trial at least)."""
    return max(1, rows_per_pass(config.pair.fine) // (2 * config.M))


class _Relays(NamedTuple):
    """What the relays' records take from (h, a, P) alone, one row per
    relay."""

    a: np.ndarray  # R x K int64
    rate: np.ndarray
    alpha: np.ndarray
    noise_var: np.ndarray
    zero_divisor_flag: np.ndarray


def _relay_scalars(config: SimConfig, H, first=0) -> _Relays:
    """Coefficient vector, rate, alpha, analytic noise variance and
    zero-divisor flag of each relay h of H (R x K), row r being relay
    r % M of trial first + r // M.

    One coefficient search runs over all rows (_search_rows), or under a
    noiseless channel each row rounds h.real and is checked nonzero, in
    relay order: so a relay's refusal, which names its trial and relay,
    comes before any later relay's.  Each row's one 1 + P|h|^2 serves its
    rate and alpha.  The rest takes _alphas_and_variances and one numpy
    pass over all relays."""
    P, M = config.P, config.M
    dens = []  # each relay's 1 + P|h|^2
    try:
        if config.noiseless:
            coeffs, rates = [], []
            for r, h in enumerate(H):
                a = tuple(int(x) for x in np.round(h.real))
                if not any(a):
                    raise _RowError("relay coefficient vector is zero", r)
                try:
                    dens.append(_rate_denominator(h, P))
                except ValueError as exc:  # 1 + P|h|^2 overflows
                    raise _RowError(str(exc), r) from None
                rates.append(_exact_rate(h, np.array(a, dtype=complex), P, dens[-1]))
                coeffs.append(a)
        else:
            coeffs, rates, _ = zip(*_search_rows(H, P, "Z", config.max_norm_cap, dens))
    except _RowError as exc:
        raise ValueError(f"trial {first + exc.row // M}, relay {exc.row % M}: {exc}") from None
    a = np.array(coeffs, dtype=np.int64).reshape(len(H), config.K)
    alpha, noise_var = _alphas_and_variances(H, a.astype(complex), P, config.alpha_mode, dens)
    fine = config.pair.fine
    zflag = np.zeros(len(H), dtype=np.int64)
    for code, m in zip(fine.codes, fine.moduli):
        if code.alphabet.e > 1:  # a coefficient nonzero mod m_l that p divides
            zflag |= ((a % m != 0) & (a % m % code.alphabet.p == 0)).any(axis=1)
    return _Relays(a, np.array(rates, dtype=float), alpha, np.array(noise_var), zflag)


def _per_run(config: SimConfig):
    """What every chunk of a run_trials call shares: the relays' scalars
    under a fixed channel (else None), the bounds of a trial's messages in
    draw order, the places of a source's messages as (re, im) x sum_l n_l
    for _crt_points, the coarse cell's side and its mean cell/2*(1+1j)."""
    fixed = None if config.fixed_H is None else _relay_scalars(config, np.asarray(config.fixed_H, dtype=complex))
    sizes, parts = [], []
    for code in config.pair.fine.codes:  # a source draws, per level, n_l real parts, then n_l imaginary
        sizes, parts = sizes + [code.alphabet.size] * (2 * code.n), parts + [0] * code.n + [1] * code.n
    cell = config.pair.fine.q * config.pair.scale
    order = np.argsort(parts, kind="stable").reshape(2, -1)
    return fixed, np.array(sizes * config.K, dtype=np.int64), order, cell, cell / 2.0 * (1 + 1j)


def _run_chunk(config: SimConfig, words, trials: range, run):
    pair, fine = config.pair, config.pair.fine
    K, M, N, T = config.K, config.M, fine.N, len(trials)
    fixed, bounds, order, cell, mean = run

    # phase 1: each trial's draws, in the order of a trial run alone
    # (`trial_draws`): H (real parts, then imaginary parts), the messages
    # (one bound per source, level and real part), the dithers from random(),
    # scaled below as uniform(0, cell) scales them, then Z, zero when noiseless
    H2, W, D, Z2 = trial_draws(words, trials, None if fixed is not None else (2, M, K), bounds,
                               (K, 2, N), None if config.noiseless else (2, M, N))
    if Z2 is None:
        Z2 = np.zeros((T, 2, M, N))

    # phase 2: the chunk's arithmetic, each element as a lone trial computes it;
    # a fixed channel's relays broadcast over the trials (1 x M x ...)
    if fixed is None:
        H = (H2[:, 0] + 1j * H2[:, 1]) / math.sqrt(2)
        relays = _relay_scalars(config, H.reshape(T * M, K), trials[0])
    else:
        H, relays = np.asarray(config.fixed_H, dtype=complex), fixed
    points = _crt_points(fine, W.reshape(T, K, -1)[:, :, order])  # T x K x (re, im) x N
    D = 0.0 + cell * D  # uniform(0, cell) is 0 + cell * random()
    U = D[:, :, 0] + 1j * D[:, :, 1]
    t = (points[:, :, 0] + 1j * points[:, :, 1]) * pair.scale
    X = mod_coarse(pair, t - U)
    Z = (Z2[:, 0] + 1j * Z2[:, 1]) / math.sqrt(2)
    Y = H @ X + Z

    a = relays.a.reshape(-1, M, K)
    av = a.astype(complex)
    alpha = relays.alpha.reshape(-1, M, 1)
    c = alpha * H - av  # alpha*h - a per relay
    z_eq = (c[:, :, None, :] @ X[:, None])[:, :, 0] + alpha * Z
    # the half-open cell gives every x_k the known mean cell/2*(1+1j), whose
    # contribution to the effective noise scales with the cell and must come
    # off before quantizing: sum_k (alpha*h_k - a_k) times that mean, as
    # numpy's scalar complex product rounds it (an array product can differ)
    s = c.sum(axis=-1, keepdims=True)
    offset = (s.real * mean.real - s.imag * mean.imag) + 1j * (s.real * mean.imag + s.imag * mean.real)
    noise_var_emp = np.add.reduce(np.abs(z_eq - offset) ** 2, axis=-1) / N  # np.mean's steps
    y_prime = mod_coarse(pair, _relay_combine(
        alpha, Y, av.transpose(2, 0, 1)[..., None], U.transpose(1, 0, 2)[:, :, None]))
    want = _function_point(a, points.reshape(T, K, 2 * N), fine.q).reshape(T, M, 2, N)
    y_prime = mod_coarse(pair, y_prime - offset)
    got = _decoded_points(pair, y_prime[..., None].view(float).swapaxes(-1, -2))  # T x M x (re, im) x N
    ok = (got == want).all(axis=(-2, -1))

    times = T * M // len(relays.a)  # T under a fixed channel, else 1
    return [
        TrialRecord(trial, m, tuple(a_r), rate, al, var, v, int(d), z)
        for (trial, m), a_r, rate, al, var, z, v, d in zip(
            itertools.product(trials, range(M)), *(x.tolist() * times for x in relays),
            noise_var_emp.ravel().tolist(), ok.ravel().tolist())
    ]
