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
    """Exhaustive rate maximization over nonzero coefficient vectors with
    squared norm at most 1 + P|h|^2 (larger norms cannot beat rate 0).

    ring selects the coefficient alphabet: "Z" for rational integers,
    "Zi" for Gaussian integers, or a QuadraticRing with d < 0.  The
    candidates are the K-tuples of ring elements whose norms sum to at
    most the bound.  Those within 1e-9 of the best vectorised rate are
    re-ranked by (-rate, norm, per component x + y*xi (|x|, x < 0, |y|,
    y < 0)), with the rate recomputed exactly: vectorised for "Z" and
    "Zi", by computation_rate for a QuadraticRing.
    If max_norm_cap trims the bound the result is flagged truncated.
    """
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
    if len(norms) ** len(h) > _SEARCH_HARD_CAP:
        raise ValueError("search space too large; lower max_norm_cap")
    near = _search(values, norms, h, P, nh, bound)
    n2 = norms[near].sum(axis=1)
    xs, ys = x[near].tolist(), y[near].tolist()
    if isinstance(ring, QuadraticRing):
        cands = [tuple(map(ring.element, xr, yr)) for xr, yr in zip(xs, ys)]
        rates = [computation_rate(h, a, P) for a in cands]
    else:
        cands = values[near].tolist() if ring == "Zi" else xs
        rates = _rate_vector(values[near] @ np.conj(h), n2, P, nh)
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


def _components(ring, bound):
    """Coordinates x and y in the Z-basis (1, xi), values x + y*xi and
    integer norms of every ring element with norm <= bound.  Z has y = 0
    and real values; "Zi" is QuadraticRing(-1)."""
    if ring == "Z":
        t, u, ymax, xi = 0, 0, 0, 0.0
    else:
        quad = QuadraticRing(-1) if ring == "Zi" else ring
        if not isinstance(quad, QuadraticRing):
            raise ValueError(f"unsupported coefficient ring {ring!r}")
        if quad.d > 0:
            raise ValueError("coefficient search needs an imaginary quadratic ring")
        t, u = quad.xi_sq  # norm(x + y*xi) = x^2 + t*x*y - u*y^2
        ymax = int(math.sqrt(4.0 * max(bound, 0.0) / -quad.d)) + 1
        xi = quad.xi_numeric
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
    rates = _rate_vector(cross, n2, P, nh)
    rates[n2 == 0] = -math.inf
    rows = np.flatnonzero(rates >= rates.max() - 1e-9)
    cols = []
    for parent, comp in reversed(levels):
        cols.append(comp[rows])
        rows = parent[rows]
    return np.stack(cols[::-1], axis=1)


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
