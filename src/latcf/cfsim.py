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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

import numpy as np

from .algebra import ChainRing, QuadraticRing
from .codes import encode as encode_codeword
from .codes import solve_encoding
from .lattices import LatticePair, contains, mod_coarse, quantize

_SEARCH_HARD_CAP = 5 * 10**6


# ---------------------------------------------------------------------------
# computation rate and coefficient search
# ---------------------------------------------------------------------------


def computation_rate(h, a, P: float) -> float:
    """Achievable rate log2+(1/(|a|^2 - P|h*a|^2/(1+P|h|^2))) in bits
    per complex channel use; +inf when the inner term vanishes (a
    proportional to h at working precision)."""
    if P <= 0:
        raise ValueError("P must be positive")
    h = np.asarray(h, dtype=complex)
    av = _coeffs_to_complex(a)
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

    ring selects the coefficient alphabet: "Z" for rational integers,
    "Zi" for Gaussian integers, or a QuadraticRing with d < 0.  The
    search is exact.  It enumerates the ellipsoid
    Q(a) = |a|^2 - P|sum_k a_k conj(h_k)|^2/(1+P|h|^2) < 1, where the
    rate is -log2 Q, over the integer coordinates of a (Schnorr-Euchner
    order), and refuses with "search space too large" once it visits
    more than _SEARCH_HARD_CAP (5e6) nodes.  Among the K-tuples of ring
    elements whose norms sum to at most the bound, those within 1e-9 of
    the best vectorised rate are re-ranked by (-rate, norm, per
    component x + y*xi (|x|, x < 0, |y|, y < 0)), with the rate
    recomputed exactly: vectorised for "Z" and "Zi", by
    computation_rate for a QuadraticRing.  So when every rate is 0 the
    norm decides.
    If max_norm_cap trims the bound the result is flagged truncated.
    Non-finite h or P, and P|h|^2 so large (about 1e15) that Q is no
    longer positive definite in floating point, raise ValueError.
    """
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
        quad = QuadraticRing(-1) if ring == "Zi" else ring
        if not isinstance(quad, QuadraticRing):
            raise ValueError(f"unsupported coefficient ring {ring!r}")
        if quad.d > 0:
            raise ValueError("coefficient search needs an imaginary quadratic ring")
        t, u = quad.xi_sq  # norm(x + y*xi) = x^2 + t*x*y - u*y^2
        xi = quad.xi_numeric
    if bound < 1:
        raise ValueError("empty search space; raise max_norm_cap")
    # rounding moves Q by about 1e-16 (1 + P|h|^2) Q; 1e-6 covers the
    # 1e-9 rate tolerance
    margin = 1e-6 + 1e-12 * (1.0 + P * nh)
    points, n2 = zip(*_ellipsoid_points(h.tolist(), P / (1.0 + P * nh), bound, margin, t, u, xi))

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
    rates = _rate_vector(cross, n2, P, nh)
    near = (rates >= rates.max() - 1e-9).nonzero()[0]
    n2 = n2[near]
    keep = near.tolist()
    xs, ys = [xs[i] for i in keep], [ys[i] for i in keep]
    if isinstance(ring, QuadraticRing):
        cands = [tuple(map(ring.element, xr, yr)) for xr, yr in zip(xs, ys)]
        rates = [computation_rate(h, a, P) for a in cands]
    else:
        cands = values[near].tolist() if ring == "Zi" else xs
        rates = _rate_vector(values[near] @ hc, n2, P, nh)
    best = min(
        range(len(near)),
        key=lambda i: (
            -rates[i],
            n2[i],
            tuple((abs(a), a < 0, abs(b), b < 0) for a, b in zip(xs[i], ys[i])),
        ),
    )
    return BestCoefficients(tuple(cands[best]), float(rates[best]), truncated)


def _rate_vector(cross, n2, P, nh):
    inner = n2 - P * np.abs(cross) ** 2 / (1.0 + P * nh)
    rates = np.maximum(0.0, -np.log2(np.maximum(inner, 1e-300)))
    rates[inner <= 1e-15 * n2] = math.inf
    return rates


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


def encode_source(state: SourceState, pair: LatticePair) -> np.ndarray:
    """Transmit signal (t - u) mod coarse."""
    t = np.asarray(state.t)
    u = np.asarray(state.u)
    _require_fine_point(pair, t)
    return mod_coarse(pair, t - u)


def _require_fine_point(pair: LatticePair, t):
    if pair.fine.ambient != "real":
        raise ValueError("the transmit pipeline works on real-ambient lattices")
    for part in ([t.real, t.imag] if np.iscomplexobj(t) else [t]):
        coords = np.asarray(part, dtype=float) / pair.scale
        rounded = np.round(coords)
        if np.max(np.abs(coords - rounded)) > 1e-6:
            raise ValueError("t is not a scaled lattice point")
        if not contains(pair.fine, rounded.astype(np.int64)):
            raise ValueError("t fails fine-lattice membership")


def mmse_alpha(h, a, P: float) -> complex:
    """Minimizer of |alpha|^2 + P|alpha*h - a|^2."""
    h = np.asarray(h, dtype=complex)
    av = _coeffs_to_complex(a)
    return complex(P * np.vdot(h, av) / (1.0 + P * float(np.vdot(h, h).real)))


def relay_process(y, a, dithers, h, P, pair: LatticePair, alpha_mode="mmse") -> RelayOutput:
    """(alpha*y + sum_k a_k u_k) mod coarse, plus the analytic variance
    of the effective noise alpha*z + sum_k (alpha*h_k - a_k) x_k."""
    h = np.asarray(h, dtype=complex)
    av = _coeffs_to_complex(a)
    if not len(av) == len(h) == len(dithers):
        raise ValueError(f"a, h and dithers have lengths {len(av)}, {len(h)}, {len(dithers)}; "
                         "need one per source")
    if alpha_mode == "mmse":
        alpha = mmse_alpha(h, a, P)
    elif alpha_mode == "unit":
        alpha = 1.0 + 0.0j
    else:
        raise ValueError(f"unknown alpha_mode {alpha_mode!r}")
    noise_var = abs(alpha) ** 2 + P * float(np.sum(np.abs(alpha * h - av) ** 2))
    acc = alpha * np.asarray(y, dtype=complex)
    for ak, uk in zip(av, dithers):
        acc = acc + ak * np.asarray(uk)
    return RelayOutput(mod_coarse(pair, acc), alpha, noise_var)


def decode_function(y_prime, pair: LatticePair, a) -> FunctionDecode:
    """Quantize to the fine lattice, reduce mod coarse, then read the
    per-level codewords off and invert the encodings.

    A failed inversion (reduction is not a codeword, possible only
    through numeric damage given the exact quantizer) is reported, not
    raised.
    """
    fine = pair.fine
    if fine.ambient != "real":
        raise ValueError("function decoding works on real-ambient lattices")
    y_prime = np.asarray(y_prime)
    parts = [y_prime.real, y_prime.imag] if np.iscomplexobj(y_prime) else [y_prime]
    ok = True
    part_funcs = []
    eq_parts = []
    for v in parts:
        pt = quantize(fine, np.asarray(v, dtype=float) / pair.scale)
        pt = np.mod(pt, fine.q)
        eq_parts.append(pt)
        levels = []
        for code, m in zip(fine.codes, fine.moduli):
            w = solve_encoding(code, [int(x) % m for x in pt])
            if w is None:
                ok = False
                levels.append(None)
            else:
                levels.append(tuple(w))
        part_funcs.append(tuple(levels))
    if np.iscomplexobj(y_prime):
        t_eq = (eq_parts[0] + 1j * eq_parts[1]) * pair.scale
    else:
        t_eq = eq_parts[0] * pair.scale
    return FunctionDecode(t_eq, tuple(part_funcs), ok)


def function_decoded(y_prime, pair: LatticePair, a, points) -> bool:
    """Whether each real part of y_prime quantizes, mod q, to the
    integer point sum_k a_k t_k mod q, with points[k] = (re, im) of
    source k's integer CRT point; stops at the first part that misses.

    This is the compute-and-forward function itself: the CRT map is a
    ring isomorphism and every level's encoding is linear, so the point
    matches exactly when every level's codeword matches.  It compares
    codewords, not messages, which chain-ring levels with non-unique
    messages need.
    """
    fine = pair.fine
    a_mod = np.array([int(x) % fine.q for x in a], dtype=np.int64)
    want = np.mod(np.tensordot(a_mod, np.asarray(points, dtype=np.int64), axes=1), fine.q)
    y_prime = np.asarray(y_prime)
    return all(
        np.array_equal(np.mod(quantize(fine, part / pair.scale), fine.q), w)
        for part, w in zip((y_prime.real, y_prime.imag), want)
    )


def function_coefficients(a, moduli):
    """Per-level reductions b^l_k = a_k mod m_l."""
    return tuple(tuple(int(ak) % m for ak in a) for m in moduli)


def combined_message(code, b_level, messages):
    """The linear function sum_k b_k * w_k in the code's message space."""
    A = code.alphabet
    out = [A.zero] * code.n
    for bk, wk in zip(b_level, messages):
        bk = int(bk) % A.size
        for i, wi in enumerate(wk):
            out[i] = A.add(out[i], A.mul(bk, int(wi) % A.size))
    return tuple(out)


def multistage_roundtrip(pair: LatticePair, messages, a):
    """Noiseless level-by-level roundtrip over a multi-prime lattice.

    messages[k][l] is source k's level-l message vector; returns the
    tuple of decoded per-level functions, computed by combining the
    sources with integer weights a, reducing mod q, and decoding each
    prime level on its own.
    """
    fine = pair.fine
    if fine.ambient != "real":
        raise ValueError("needs a real-ambient lattice")
    if any(isinstance(c.alphabet, ChainRing) and c.alphabet.e > 1 for c in fine.codes):
        raise ValueError("levels must be prime fields")
    if len(a) != len(messages) or not messages:
        raise ValueError("one coefficient per source")
    crt = fine.map
    points = []
    for w_levels in messages:
        if len(w_levels) != len(fine.codes):
            raise ValueError(f"need {len(fine.codes)} level messages per source")
        words = [
            np.array(encode_codeword(code, w), dtype=np.int64)
            for code, w in zip(fine.codes, w_levels)
        ]
        points.append(crt.forward_vec(words))
    t_eq = np.mod(sum(int(ak) * pt for ak, pt in zip(a, points)), crt.q)
    out = []
    for code, m in zip(fine.codes, crt.moduli):
        w = solve_encoding(code, [int(x) % m for x in t_eq])
        if w is None:
            raise ArithmeticError("noiseless reduction left the codebook")
        out.append(tuple(w))
    return tuple(out)


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
    return LatticePair(fine, scale=math.sqrt(P / (fine.q**2 / 6.0)))


def run_trials(config: SimConfig, trials: int, seed: int):
    """Independent Monte Carlo trials, run one after another and
    deterministic in (config, seed): each trial seeds its own generator
    from (seed, trial).  A fixed channel is searched once per relay,
    before the first trial.
    """
    _check_config(config)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    searched = None
    if config.fixed_H is not None and not config.noiseless:
        searched = [
            best_coefficients(h, config.P, max_norm_cap=config.max_norm_cap)
            for h in np.asarray(config.fixed_H, dtype=complex)
        ]
    return [rec for t in range(trials) for rec in _one_trial(config, seed, t, searched)]


def _check_config(config: SimConfig):
    if config.pair.fine.ambient != "real":
        raise ValueError("simulation supports real-ambient lattices")
    if config.K < 1 or config.M < 1:
        raise ValueError("need K >= 1 sources and M >= 1 relays")
    if config.P <= 0:
        raise ValueError("P must be positive")
    if config.alpha_mode not in ("mmse", "unit"):
        raise ValueError(f"unknown alpha_mode {config.alpha_mode!r}")
    if config.fixed_H is not None:
        H = np.asarray(config.fixed_H, dtype=complex)
        if H.shape != (config.M, config.K):
            raise ValueError(f"fixed_H must be {config.M}x{config.K}")
        if not np.all(np.isfinite(H)):
            raise ValueError("fixed_H must be finite")


def _one_trial(config: SimConfig, seed: int, trial: int, searched):
    rng = np.random.default_rng([seed, trial])
    pair = config.pair
    fine = pair.fine
    K, M, P = config.K, config.M, config.P
    N = fine.N
    cell = fine.q * pair.scale

    if config.fixed_H is not None:
        H = np.asarray(config.fixed_H, dtype=complex)
    else:
        H = (rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K))) / math.sqrt(2)

    # per source, per level, one message for each real part (this draw
    # order fixes the output for a seed); points[k, part] is the integer
    # CRT point of source k's codewords
    crt = fine.map
    points = np.empty((K, 2, N), dtype=np.int64)
    for k in range(K):
        words = [[], []]
        for code in fine.codes:
            for part in (0, 1):
                w = rng.integers(0, code.alphabet.size, size=code.n)
                words[part].append(encode_codeword(code, w.tolist()))
        points[k] = [crt.forward_vec(w) for w in words]

    dithers = [
        rng.uniform(0.0, cell, size=N) + 1j * rng.uniform(0.0, cell, size=N)
        for _ in range(K)
    ]
    if config.noiseless:
        Z = np.zeros((M, N), dtype=complex)
    else:
        Z = (rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))) / math.sqrt(2)

    X = np.empty((K, N), dtype=complex)
    for k in range(K):
        t = (points[k, 0] + 1j * points[k, 1]) * pair.scale
        X[k] = encode_source(SourceState(None, t, dithers[k]), pair)

    Y = H @ X + Z

    mean_x = cell / 2.0 * (1 + 1j)  # deterministic offset of the coarse cell
    records = []
    for m in range(M):
        h = H[m]
        if config.noiseless:
            a = tuple(int(x) for x in np.round(h.real))
            rate = computation_rate(h, a, P) if any(a) else 0.0
        elif searched is not None:
            a, rate, _ = searched[m]
        else:
            a, rate, _ = best_coefficients(h, P, max_norm_cap=config.max_norm_cap)
        if not any(a):
            raise ValueError("relay coefficient vector is zero")

        out = relay_process(Y[m], a, dithers, h, P, pair, alpha_mode=config.alpha_mode)
        av = np.array(a, dtype=complex)
        z_eq = (out.alpha * h - av) @ X + out.alpha * Z[m]
        offset = np.sum(out.alpha * h - av) * mean_x
        noise_var_emp = float(np.mean(np.abs(z_eq - offset) ** 2))

        # the half-open cell gives every x_k the known mean cell/2*(1+1j);
        # its deterministic contribution to the effective noise scales with
        # the cell, so it must come off before quantizing
        ok = function_decoded(mod_coarse(pair, out.y_prime - offset), pair, a, points)
        zflag = 0
        for code, b_l in zip(fine.codes, function_coefficients(a, fine.moduli)):
            A = code.alphabet
            if isinstance(A, ChainRing) and A.e > 1:
                if any(b != 0 and b % A.p == 0 for b in b_l):
                    zflag = 1
        records.append(
            TrialRecord(
                trial=trial,
                relay=m,
                a=tuple(int(x) for x in a),
                rate_bits=rate,
                alpha=complex(out.alpha),
                noise_var_analytic=out.noise_var_analytic,
                noise_var_emp=noise_var_emp,
                decode_ok=int(ok),
                zero_divisor_flag=zflag,
            )
        )
    return records
