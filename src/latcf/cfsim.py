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

`run_trials` runs in two phases over chunks of trials.  Phase 1 makes
each trial's random draws, and nothing else, exactly as its own generator
default_rng([seed, trial]) makes them: H, the messages per source, level
and real part, the dithers, then Z (`seeding.trial_draws`).  The
generators are seeded by one vectorised SeedSequence pass over the
chunk's trials; H and Z are numpy's standard_normal calls, and the
messages and dithers come from one random_raw call per trial, decoded
over the chunk as numpy's integers and random decode them (a trial with
a Lemire rejection is redrawn through those calls).  Phase 2 does the
arithmetic of the whole chunk in numpy:
encoding and CRT, the channel, the relays' scaling and reduction, the
relays' scalars of (h, a, P) (alpha, the analytic noise variance, the
zero-divisor flag), one `quantize` over every (trial, relay, real part)
row, and the decode check.  The coefficient search takes the chunk's
relays at once (`_search_rows`): per relay, in trial order, its checks
and walk, then numpy's abs and log2 once over every relay's vectors, and
per relay its exact re-rank and tie rule.  Per relay stay the np.vdot
calls of alpha and abs(alpha)**2, once per relay under a fixed H.  `quantize`
bounds the memory of its own passes, and a chunk is one pass of relay
rows (`rows_per_pass`), so memory does not grow with the trial count.
Every element goes through the same floating-point operations, in the
same order, as a trial run alone: the records are a function of
(config, seed) only, whatever the chunking.

The engine and the per-relay functions share one body per decode step:
`_crt_points`, `_function_point` (sum_k a_k t_k mod q), `_decoded_points`
and `_level_messages`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

import numpy as np

from .algebra import QuadraticRing
from .codes import solve_encoding
from .codes import encode as encode_codeword
from .lattices import LatticePair, contains, mod_coarse, quantize, rows_per_pass
from .seeding import seed_words, trial_draws

_SEARCH_HARD_CAP = 5 * 10**6


# ---------------------------------------------------------------------------
# computation rate and coefficient search
# ---------------------------------------------------------------------------


def computation_rate(h, a, P: float) -> float:
    """Achievable rate log2+(1/(|a|^2 - P|h*a|^2/(1+P|h|^2))) in bits
    per complex channel use; +inf when the inner term vanishes (a
    proportional to h at working precision).  Non-finite h or P raise
    ValueError."""
    if P <= 0:
        raise ValueError("P must be positive")
    h = np.asarray(h, dtype=complex)
    av = _coeffs_to_complex(a)
    if h.shape != av.shape:
        raise ValueError(f"h and a have different lengths {h.shape} vs {av.shape}")
    return _exact_rate(h, av, P, _rate_denominator(h, P))


def _rate_denominator(h, P):
    """1 + P|h|^2, refusing a non-finite h or P."""
    den = 1.0 + P * float(np.vdot(h, h).real)
    if not math.isfinite(den):
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
    rate is -log2 Q, over the integer coordinates of a (Schnorr-Euchner
    order), and refuses with "search space too large" once it visits
    more than _SEARCH_HARD_CAP (5e6) nodes.  Among the K-tuples of ring
    elements whose norms sum to at most the bound, those within 1e-9 of
    the best filter rate are re-ranked by (-rate, norm, per component
    x + y*xi (|x|, x < 0, |y|, y < 0)), with the rate recomputed
    exactly.  So when every rate is 0 the norm decides.  Over O_K the
    associates of a vector (a and i*a over Z[i]) have the same true rate,
    so the last bit of their exact rates decides between them.

    The rate bits are fixed by this arithmetic.  The filter rate grows
    cross = sum_k a_k conj(h_k) one component at a time from 0j: in
    Python complex arithmetic over Z, from numpy's array products
    a_k conj(h_k) over O_K (numpy fuses a multiply-add there,
    Python does not).  It takes numpy's array abs and log2 and does the
    rest in Python floats: the 1e-300 floor, max(0, r) keeping r = -0.0
    as np.maximum does, the 1e-15 test for +inf and the 1e-9 filter.
    The exact rate is the numpy matrix product a @ conj(h), then the
    same steps, over Z; over O_K it is computation_rate's arithmetic
    (numpy's vdot and its scalar abs and power).
    If max_norm_cap trims the bound the result is flagged truncated.
    Non-finite h or P, and P|h|^2 so large (about 1e15) that Q is no
    longer positive definite in floating point, raise ValueError.
    """
    return _search_rows(np.asarray(h, dtype=complex)[None], P, ring, max_norm_cap)[0]


class _RowError(ValueError):
    """A refusal of one relay row (a search's, or a zero noiseless
    vector): the message, and the row."""

    def __init__(self, message, row):
        super().__init__(message)
        self.row = row


def _search_rows(H, P, ring, max_norm_cap):
    """best_coefficients of each row h of the complex R x K array H, bit
    for bit.

    Per row, in order: the checks, the walk and the filter's cross, so a
    row's refusal (a _RowError naming the row) comes after every earlier
    row's.  Once over all rows: numpy's abs and log2 of the filter and,
    over Z, of the re-rank (elementwise, so batching keeps the bits).  Per
    row: the re-rank's matmul over exactly the row's near vectors over Z
    (BLAS's bits depend on the row count), _exact_rate over O_K, and the
    tie rule."""
    Hc = np.conj(H)
    hl, hcl = H.tolist(), Hc.tolist()
    rows = []  # h, what the re-rank keeps, den, truncated, leaves, norms
    cross, n2, den = [], [], []  # per leaf
    for r, h in enumerate(H):
        try:
            if not any(hl[r]):  # NaN is nonzero, as for numpy
                raise ValueError("h must be nonzero")
            if P <= 0:
                raise ValueError("P must be positive")
            d = _rate_denominator(h, P)
            bound = d
            truncated = False
            if max_norm_cap is not None and bound > max_norm_cap:
                bound = float(max_norm_cap)
                truncated = True
            if ring == "Z":
                t, u, xi = 0, 0, None
            elif not isinstance(ring, QuadraticRing):
                raise ValueError(f"unsupported coefficient ring {ring!r}")
            elif ring.d > 0:
                raise ValueError("coefficient search needs an imaginary quadratic ring")
            else:
                t, u = ring.xi_sq  # norm(x + y*xi) = x^2 + t*x*y - u*y^2
                xi = ring.xi_numeric
            if bound < 1:
                raise ValueError("empty search space; raise max_norm_cap")
            # rounding moves Q by about 1e-16 (1 + P|h|^2) Q; 1e-6 covers
            # the 1e-9 rate tolerance
            margin = 1e-6 + 1e-12 * d
            points, norms = zip(*_ellipsoid_points(hl[r], P / d, bound, margin, t, u, xi))
        except ValueError as exc:
            raise _RowError(str(exc), r) from None
        # the filter's cross, grown one component at a time from 0j
        if xi is None:
            keep, terms = Hc[r], hcl[r]
            for v in points:
                c = 0j
                for x, hk in zip(v, terms):
                    c = c + x * hk
                cross.append(c)
        else:
            xy = np.array(points, dtype=np.int64)
            keep = xy[:, 0::2] + xy[:, 1::2] * xi
            for terms in (keep * Hc[r]).tolist():
                c = 0j
                for term in terms:
                    c = c + term
                cross.append(c)
        rows.append((h, keep, d, truncated, points, norms))
        n2 += norms
        den += [d] * len(norms)

    # the filter, then the exact re-rank of the vectors it keeps
    rates = _rates(cross, n2, P, den)
    exact, n2, den, nears, end = [], [], [], [], 0  # over Z, crosses until _rates
    for h, keep, d, _, points, norms in rows:
        near = _near(rates[end:end + len(points)])
        end += len(points)
        nears.append(near)
        if xi is None:
            exact += (np.array([points[i] for i in near], dtype=float) @ keep).tolist()
            n2 += [norms[i] for i in near]
            den += [d] * len(near)
        else:
            exact += [_exact_rate(h, keep[i], P, d) for i in near]
    if xi is None:
        exact = _rates(exact, n2, P, den)

    # the tie rule among each row's best rates: least norm, then per
    # coordinate (|x|, x < 0), which orders components as (|x|, x < 0,
    # |y|, y < 0)
    found, end = [], 0
    for (_, _, _, truncated, points, norms), near in zip(rows, nears):
        rates = exact[end:end + len(near)]
        end += len(near)
        top = max(rates)
        tied = [(i, r) for i, r in zip(near, rates) if r == top]
        best, rate = tied[0] if len(tied) == 1 else min(
            tied, key=lambda ir: (norms[ir[0]], tuple((abs(x), x < 0) for x in points[ir[0]])))
        v = points[best]
        a = v if xi is None else tuple(map(ring.element, v[0::2], v[1::2]))
        found.append(BestCoefficients(a, rate, truncated))
    return found


def _near(rates):
    """Indices of the rates within 1e-9 of the best."""
    top = max(rates) - 1e-9
    return [i for i, r in enumerate(rates) if r >= top]


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
    within a factor 1 + margin of the least.

    That holds every vector the 1e-9 rate filter can keep, the rate-0
    case included: when no vector has rate > 1e-9, P|h|^2 < 1, so the
    ball holds only norm-1 vectors, and their Q all lie between the
    least (> 1 - 1e-9) and 1, inside the margin.

    Z has one coordinate x per component; a quadratic ring has (x, y),
    a = x + y*xi, interleaved.  Q is the real quadratic form G of those
    coordinates, factored G = R^T diag(D) R with R unit upper
    triangular, and enumerated depth first from the last coordinate,
    each level in Schnorr-Euchner (zig-zag) order from its centre,
    inside the interval the norm bound leaves for that coordinate.
    """
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
    R = []  # R[i] = row i of R right of the diagonal
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
    e = -u - t * t / 4  # norm(x + y*xi) = (x + t*y/2)^2 + e*y^2

    z = [0] * (n + 1)  # z[n] = 0 is the y of Z's top level
    centre = [0.0] * n
    step = [0] * n
    lo = [0] * n  # the norm bound's interval for z[i]
    hi = [0] * n
    zlo = [0] * n  # every zig-zag value beyond these is outside [lo, hi]
    zhi = [0] * n
    dist = [0.0] * (n + 1)  # Q of the levels above
    norm = [0] * (n + 1)  # norm of the components above
    radius = bound * (1 + margin)  # Q <= norm on the whole ball
    leaves = []
    nodes, budget = 0, _SEARCH_HARD_CAP
    floor, ceil, sqrt = math.floor, math.ceil, math.sqrt
    i, down = n, True
    while True:
        if down:  # enter level i - 1 at the admissible value nearest its centre
            i -= 1
            ce = -sum(map(mul, R[i], z[i + 1:n]))
            rem = bound - norm[i + 1]
            if i % m:
                cn, w = 0.0, sqrt(rem / e)
            else:
                y = z[i + 1]
                cn, w2 = -t * y / 2, rem - e * y * y
                w = sqrt(w2) if w2 > 0 else 0.0
            bot, top = floor(cn - w), ceil(cn + w)
            x = round(ce)
            x = bot if x < bot else top if x > top else x
            r = top - x if top - x > x - bot else x - bot
            lo[i], hi[i], zlo[i], zhi[i] = bot, top, x - r, x + r
            centre[i], z[i] = ce, x
            step[i] = 1 if ce >= x else -1
            down = False
        nodes += 1
        if nodes > budget:
            raise ValueError("search space too large; lower max_norm_cap")
        x = z[i]
        d = x - centre[i]
        q = dist[i + 1] + D[i] * d * d
        if q > radius or not zlo[i] <= x <= zhi[i]:  # and every later sibling
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
        s = step[i]  # next sibling, in zig-zag order from the centre
        z[i] += s
        step[i] = -s - 1 if s > 0 else 1 - s
    return [(v, nr) for q, v, nr in leaves if q <= radius]


# ---------------------------------------------------------------------------
# protocol pieces
# ---------------------------------------------------------------------------


@dataclass
class SourceState:
    """message is caller bookkeeping; t and u live at signal scale."""

    message: object
    t: np.ndarray
    u: np.ndarray


class RelayOutput(NamedTuple):
    y_prime: np.ndarray
    alpha: complex
    noise_var_analytic: float


class FunctionDecode(NamedTuple):
    t_eq: np.ndarray
    functions: tuple  # per real part, per level: decoded message vector or None
    ok: bool


def _require_real(pair: LatticePair):
    """The per-relay protocol's one guard: encode_source, decode_function
    and multistage_roundtrip carry real lattice points."""
    if pair.fine.ambient != "real":
        raise ValueError("the per-relay protocol needs a real-ambient lattice, "
                         f"got {pair.fine.kind} over {pair.fine.q!r}")


def encode_source(state: SourceState, pair: LatticePair) -> np.ndarray:
    """Transmit signal (t - u) mod coarse."""
    _require_real(pair)
    t = np.asarray(state.t)
    u = np.asarray(state.u)
    for part in ([t.real, t.imag] if np.iscomplexobj(t) else [t]):
        coords = np.asarray(part, dtype=float) / pair.scale
        rounded = np.round(coords)
        if np.max(np.abs(coords - rounded)) > 1e-6:
            raise ValueError("t is not a scaled lattice point")
        if not contains(pair.fine, rounded.astype(np.int64)):
            raise ValueError("t fails fine-lattice membership")
    return mod_coarse(pair, t - u)


def mmse_alpha(h, a, P: float) -> complex:
    """Minimizer of |alpha|^2 + P|alpha*h - a|^2.  Non-finite h or P
    raise ValueError."""
    h = np.asarray(h, dtype=complex)
    return _alphas_and_variances(h[None], _coeffs_to_complex(a)[None], P, "mmse")[0].item()


def relay_process(y, a, dithers, h, P, pair: LatticePair, alpha_mode="mmse") -> RelayOutput:
    """(alpha*y + sum_k a_k u_k) mod coarse, plus the analytic variance
    of the effective noise alpha*z + sum_k (alpha*h_k - a_k) x_k."""
    h = np.asarray(h, dtype=complex)
    av = _coeffs_to_complex(a)
    if not len(av) == len(h) == len(dithers):
        raise ValueError(f"a, h and dithers have lengths {len(av)}, {len(h)}, {len(dithers)}; "
                         "need one per source")
    alpha, noise_var = _alphas_and_variances(h[None], av[None], P, alpha_mode)
    alpha = alpha.item()
    y_prime = _relay_combine(alpha, np.asarray(y, dtype=complex), av, map(np.asarray, dithers))
    return RelayOutput(mod_coarse(pair, y_prime), alpha, noise_var[0])


def _alphas_and_variances(H, av, P, alpha_mode):
    """Each relay's scaling alpha and the analytic variance of its
    effective noise, for the rows h of H and a of av (R x K), both
    functions of (h, a, P) only.  np.vdot (its bits are BLAS's) and
    abs(alpha)**2 (Python's hypot and pow) run per row, the rest over all
    rows at once."""
    if alpha_mode == "mmse":
        den = np.array([_rate_denominator(h, P) for h in H])
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


def decode_function(y_prime, pair: LatticePair, a) -> FunctionDecode:
    """Quantize to the fine lattice, reduce mod coarse, then read the
    per-level codewords off and invert the encodings.

    A failed inversion (reduction is not a codeword, possible only
    through numeric damage given the exact quantizer) is reported, not
    raised.
    """
    _require_real(pair)
    fine = pair.fine
    y_prime = np.asarray(y_prime)
    complex_in = np.iscomplexobj(y_prime)
    parts = np.stack([y_prime.real, y_prime.imag]) if complex_in else y_prime[None]
    points = _decoded_points(pair, parts)
    functions = tuple(_level_messages(fine, pt) for pt in points)
    t_eq = (points[0] + 1j * points[1] if complex_in else points[0]) * pair.scale
    return FunctionDecode(t_eq, functions, all(None not in levels for levels in functions))


def _function_point(a, points, q):
    """sum_k a_k t_k mod q, exact in int64, for the coefficient rows a
    (... x K) and the sources' integer points t_k, the rows of points
    (... x K x n)."""
    return np.mod(np.mod(a, q) @ points, q)


def _decoded_points(pair: LatticePair, parts):
    """The fine-lattice points, mod q, nearest the real parts (... x N, at
    signal scale): one quantize over every part at once."""
    rows = np.asarray(parts, dtype=float) / pair.scale
    return np.mod(quantize(pair.fine, rows.reshape(-1, rows.shape[-1])), pair.fine.q).reshape(rows.shape)


def _level_messages(fine, point):
    """Each level's message read off an integer point: a preimage of the
    point mod m_l under that level's encoding, or None where the
    reduction is no codeword."""
    return tuple(solve_encoding(code, [int(x) % m for x in point])
                 for code, m in zip(fine.codes, fine.moduli))


def _crt_points(fine, words):
    """The integer CRT points in [0, q) of each level's messages words[l]
    (... x n_l): every level encoded, then combined coordinatewise."""
    return fine.map.forward_vec([encode_codeword(code, w) for code, w in zip(fine.codes, words)])


def multistage_roundtrip(pair: LatticePair, messages, a):
    """Noiseless level-by-level roundtrip over a multi-prime lattice.

    messages[k][l] is source k's level-l message vector; returns the
    tuple of decoded per-level functions, computed by combining the
    sources with integer weights a, reducing mod q, and decoding each
    prime level on its own.
    """
    _require_real(pair)
    fine = pair.fine
    if any(c.alphabet.e > 1 for c in fine.codes):
        raise ValueError("levels must be prime fields")
    if len(a) != len(messages) or not messages:
        raise ValueError("one coefficient per source")
    points = []
    for w_levels in messages:
        if len(w_levels) != len(fine.codes):
            raise ValueError(f"need {len(fine.codes)} level messages per source")
        points.append(_crt_points(fine, w_levels))
    a_mod = np.array([int(x) % fine.q for x in a], dtype=np.int64)
    out = _level_messages(fine, _function_point(a_mod, np.array(points), fine.q))
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
        raise ValueError("P must be positive")
    if fine.ambient != "real":
        raise ValueError("make_pair and the simulator need a real-ambient lattice, "
                         f"got {fine.kind} over {fine.q!r}")
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
    relay rows each.  A chunk takes the seed's words and its trial range
    alone, and runs in two phases: the draws of every trial of the chunk,
    in the order H, messages (per source, level, real part), dithers, Z;
    then the chunk's arithmetic in numpy.  The coefficient search runs
    once over the chunk's relays (once over the relays before the first
    trial under a fixed channel), walking each relay in trial order; a
    noiseless relay's rounded vector is checked nonzero instead.  So
    errors come in trial order, and a relay's refusal names its trial and
    relay ("trial 3, relay 1: ...", trial 0 under a fixed channel).
    alpha, the analytic noise variance and the zero-divisor flag take one
    numpy pass over the chunk's relays; only their np.vdot calls and
    abs(alpha)**2 stay per relay.  The records do not depend on the
    chunking.
    """
    words = seed_words(seed)
    _check_config(config)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > 1 << 32:
        raise ValueError(f"trial index {trials - 1} is 2**32 or more; trials must be <= 2**32")
    fixed = None
    if config.fixed_H is not None:
        fixed = _relay_scalars(config, np.asarray(config.fixed_H, dtype=complex))
    chunk = _chunk_trials(config)
    records = []
    for start in range(0, trials, chunk):
        records += _run_chunk(config, words, range(start, min(start + chunk, trials)), fixed)
    return records


def _check_config(config: SimConfig):
    if config.pair.fine.ambient != "real":
        raise ValueError("simulation supports real-ambient lattices")
    if config.K < 1 or config.M < 1:
        raise ValueError("need K >= 1 sources and M >= 1 relays")
    if not (math.isfinite(config.P) and config.P > 0):
        raise ValueError("P must be positive")
    if config.pair.scale != _power_scale(config.pair.fine, config.P):
        raise ValueError(f"pair.scale {config.pair.scale!r} is not make_pair's for P = {config.P!r}")
    if config.alpha_mode not in ("mmse", "unit"):
        raise ValueError(f"unknown alpha_mode {config.alpha_mode!r}")
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
    comes before any later relay's.  The rest takes _alphas_and_variances
    and one numpy pass over all relays."""
    P, M = config.P, config.M
    try:
        if config.noiseless:
            coeffs, rates = [], []
            for r, h in enumerate(H):
                a = tuple(int(x) for x in np.round(h.real))
                if not any(a):
                    raise _RowError("relay coefficient vector is zero", r)
                try:
                    rates.append(computation_rate(h, a, P))
                except ValueError as exc:  # 1 + P|h|^2 overflows
                    raise _RowError(str(exc), r) from None
                coeffs.append(a)
        else:
            coeffs, rates, _ = zip(*_search_rows(H, P, "Z", config.max_norm_cap))
    except _RowError as exc:
        raise ValueError(f"trial {first + exc.row // M}, relay {exc.row % M}: {exc}") from None
    a = np.array(coeffs, dtype=np.int64).reshape(len(H), config.K)
    alpha, noise_var = _alphas_and_variances(H, a.astype(complex), P, config.alpha_mode)
    fine = config.pair.fine
    zflag = np.zeros(len(H), dtype=np.int64)
    for code, m in zip(fine.codes, fine.moduli):
        A = code.alphabet
        if A.e > 1:
            b = a % m
            zflag |= ((b != 0) & (b % A.p == 0)).any(axis=1)
    return _Relays(a, np.array(rates, dtype=float), alpha, np.array(noise_var), zflag)


def _run_chunk(config: SimConfig, words, trials: range, fixed):
    pair = config.pair
    fine = pair.fine
    K, M, N, T = config.K, config.M, fine.N, len(trials)
    cell = fine.q * pair.scale

    # phase 1: each trial's draws, in the order of a trial run alone
    # (`trial_draws`): H (real parts, then imaginary parts), the messages
    # (one bound per source, level and real part), the dithers from random(),
    # scaled below as uniform(0, cell) scales them, then Z, zero when noiseless
    bounds = np.concatenate([np.full(2 * code.n, code.alphabet.size) for code in fine.codes] * K)
    H2, W, D, Z2 = trial_draws(words, trials, None if fixed is not None else (2, M, K), bounds,
                               (K, 2, N), None if config.noiseless else (2, M, N))
    if Z2 is None:
        Z2 = np.zeros((T, 2, M, N))

    # phase 2: the chunk's arithmetic, each element as a lone trial computes it
    if fixed is None:
        H = (H2[:, 0] + 1j * H2[:, 1]) / math.sqrt(2)
        relays = _relay_scalars(config, H.reshape(T * M, K), trials[0])
    else:
        H = np.asarray(config.fixed_H, dtype=complex)
        relays = _Relays(*(np.concatenate([x] * T) for x in fixed))
    cuts = np.cumsum([2 * code.n for code in fine.codes])[:-1]
    points = _crt_points(fine, [w.reshape(T, K, 2, code.n) for code, w in zip(
        fine.codes, np.split(W.reshape(T, K, -1), cuts, axis=2))])  # T x K x (re, im) x N
    D = 0.0 + cell * D  # uniform(0, cell) is 0 + cell * random()
    U = D[:, :, 0] + 1j * D[:, :, 1]
    t = (points[:, :, 0] + 1j * points[:, :, 1]) * pair.scale
    X = mod_coarse(pair, t - U)
    Z = (Z2[:, 0] + 1j * Z2[:, 1]) / math.sqrt(2)
    Y = H @ X + Z

    a = relays.a.reshape(T, M, K)
    av = a.astype(complex)
    alpha = relays.alpha.reshape(T, M, 1)
    c = alpha * H - av  # alpha*h - a per relay
    z_eq = (c[:, :, None, :] @ X[:, None])[:, :, 0] + alpha * Z
    # the half-open cell gives every x_k the known mean cell/2*(1+1j); its
    # deterministic contribution to the effective noise scales with the
    # cell, so it must come off before quantizing
    # sum_k (alpha*h_k - a_k) times that mean, as numpy's scalar complex
    # product rounds it (an array product can round the last bit otherwise)
    s = np.sum(c, axis=-1, keepdims=True)
    mean = cell / 2.0 * (1 + 1j)
    offset = (s.real * mean.real - s.imag * mean.imag) + 1j * (s.real * mean.imag + s.imag * mean.real)
    noise_var_emp = np.mean(np.abs(z_eq - offset) ** 2, axis=-1)
    y_prime = mod_coarse(pair, _relay_combine(
        alpha, Y, np.moveaxis(av, 2, 0)[..., None], np.moveaxis(U, 1, 0)[:, :, None]))
    want = _function_point(a, points.reshape(T, K, 2 * N), fine.q).reshape(T, M, 2, N)
    y_prime = mod_coarse(pair, y_prime - offset)
    got = _decoded_points(pair, np.stack([y_prime.real, y_prime.imag], axis=-2))
    ok = (got == want).all(axis=(-2, -1))

    return [
        TrialRecord(trial, m, tuple(a_r), rate, al, var, v, int(d), z)
        for (trial, m), a_r, rate, al, var, z, v, d in zip(
            itertools.product(trials, range(M)), *(x.tolist() for x in relays),
            noise_var_emp.ravel().tolist(), ok.ravel().tolist())
    ]
