"""The one-relay compute-and-forward protocol, and per-relay views of the
function it decodes, which only the tests use.

The simulator's engine (`cfsim._run_chunk`) runs every relay of a chunk
at once.  This is its slow path, kept here as the oracle: a source's
transmit signal (`encode_source`), one relay's scaling, dither removal
and reduction (`relay_process`), and its quantization and per-level
decoding (`decode_function`), built on the engine's own steps.  Beside
them: the decode check of one relay, and the per-level coefficients and
combined messages that a relay's decoded function should equal.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from latcf.cfsim import (
    _alphas_and_variances,
    _coeffs_to_complex,
    _decoded_points,
    _function_point,
    _level_messages,
    _relay_combine,
    _require_real,
)
from latcf.codes import LinearCode
from latcf.codes import encode as encode_codeword
from latcf.lattices import LatticePair, contains, mod_coarse


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
    _require_real(pair.fine)
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


def decode_function(y_prime, pair: LatticePair) -> FunctionDecode:
    """Quantize to the fine lattice, reduce mod coarse, then read the
    per-level codewords off and invert the encodings.

    A failed inversion (reduction is not a codeword, possible only
    through numeric damage given the exact quantizer) is reported, not
    raised.
    """
    fine = pair.fine
    _require_real(fine)
    y_prime = np.asarray(y_prime)
    complex_in = np.iscomplexobj(y_prime)
    parts = np.stack([y_prime.real, y_prime.imag]) if complex_in else y_prime[None]
    points = _decoded_points(pair, parts)
    functions = tuple(_level_messages(fine, pt) for pt in points)
    t_eq = (points[0] + 1j * points[1] if complex_in else points[0]) * pair.scale
    return FunctionDecode(t_eq, functions, all(None not in levels for levels in functions))


def function_decoded(y_prime, pair: LatticePair, a, points) -> bool:
    """Whether each real part of y_prime quantizes, mod q, to the
    integer point sum_k a_k t_k mod q, with points[k] = (re, im) of
    source k's integer CRT point.

    This is the compute-and-forward function itself: the CRT map is a
    ring isomorphism and every level's encoding is linear, so the point
    matches exactly when every level's codeword matches.  It compares
    codewords, not messages, which chain-ring levels with non-unique
    messages need.
    """
    _require_real(pair.fine)
    q = pair.fine.q
    a_mod = np.array([int(x) % q for x in a], dtype=np.int64)
    points = np.asarray(points, dtype=np.int64)
    want = _function_point(a_mod, points.reshape(len(points), -1), q)
    y_prime = np.asarray(y_prime)
    return bool((_decoded_points(pair, np.stack([y_prime.real, y_prime.imag])).ravel() == want).all())


def function_coefficients(a, moduli):
    """Per-level reductions b^l_k = a_k mod m_l."""
    return tuple(tuple(int(ak) % m for ak in a) for m in moduli)


def combined_message(code, b_level, messages):
    """The linear function sum_k b_k * w_k in the code's message space:
    the encoding of b under the code whose generator rows are the w_k."""
    rows = [[int(x) for x in w] for w in messages]
    return encode_codeword(LinearCode(code.alphabet, rows, N=code.n), [int(b) for b in b_level])
