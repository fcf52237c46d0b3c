"""Per-relay views of the compute-and-forward function that only the tests
use: the decode check of one relay, and the per-level coefficients and
combined messages that a relay's decoded function should equal.

The simulator's engine computes the same check over a whole chunk at
once (`cfsim._run_chunk`); these helpers state it one relay at a time.
"""

import numpy as np

from latcf.cfsim import _decoded_points, _function_point, _require_real
from latcf.codes import LinearCode
from latcf.codes import encode as encode_codeword
from latcf.lattices import LatticePair


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
    _require_real(pair)
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
