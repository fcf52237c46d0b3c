"""Linear codes over the finite alphabets of `algebra`, nested chains of
codes sharing one generator basis, and the lift of a chain to a single
chain-ring code.

Generator matrices are stored row per generator; `encode` left-multiplies
by the message, so outputs have length N.  Every code is linear over
Z/m (m = p^e) once an F_{p^2} symbol c0 + c1*p is read as the pair
(c0, c1), so encoding is one integer matmul w G mod m on message rows,
and a codebook is that matmul over every message.  Each code builds one
Smith-form kernel on first use, its parity checks and systematic inverse
serving membership (`contains_codeword`), message recovery
(`solve_encoding`) and the rank check of `NestedCodeChain`.  Codebooks up
to 2^16 words are enumerated once and cached for the lattice coset tables.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import ChainRing, PrimeField, is_prime

_ENUM_CAP = 1 << 16


class LinearCode:
    """A linear code: message w of length n, codeword w*G of length N."""

    def __init__(self, alphabet, rows, N: int | None = None):
        rows = tuple(tuple(int(x) % alphabet.size for x in r) for r in rows)
        if rows:
            if N is None:
                N = len(rows[0])
            if any(len(r) != N for r in rows):
                raise ValueError("generator rows have unequal lengths")
        elif N is None:
            raise ValueError("a code with no generators needs an explicit block length")
        self.alphabet = alphabet
        self.G = rows
        self.n = len(rows)
        self.N = int(N)
        self._cb = None
        self._words = None
        self._kernel = None
        self._gx = None

    def codebook_bound(self) -> int:
        return self.alphabet.size**self.n

    def __repr__(self):
        return f"LinearCode({self.alphabet!r}, n={self.n}, N={self.N})"


def encode(code: LinearCode, w):
    """Codeword w*G of a message w, or of each row of an array of messages.

    One integer matmul mod m on the F_p-expansion (`_generator`): w is
    reduced into the alphabet, each F_{p^2} symbol split into (c0, c1) and
    joined back after the product.  A 1-D message gives a tuple of ints;
    an array of shape (..., n) gives an int64 array of shape (..., N).
    """
    w = np.asarray(w)
    if w.shape[-1:] != (code.n,):
        raise ValueError(f"message length {w.shape[-1] if w.ndim else 0} != n={code.n}")
    p, m, f = _expansion(code.alphabet)
    G = _generator(code)
    w = w % code.alphabet.size
    if f == 2:
        w = np.stack([w % p, w // p], axis=-1).reshape(*w.shape[:-1], 2 * code.n)
    x = w.astype(G.dtype, copy=False) @ G % m
    if f == 2:
        x = x[..., 0::2] + p * x[..., 1::2]
    return tuple(x.tolist()) if x.ndim == 1 else x.astype(np.int64, copy=False)


def codebook(code: LinearCode) -> dict:
    """Map codeword -> one preimage message; enumerated once, cached."""
    if code._cb is None:
        words, msgs = _codewords(code)
        code._cb = dict(zip(map(tuple, words.tolist()), map(tuple, msgs.tolist())))
    return code._cb


def _codewords(code: LinearCode):
    """The distinct codewords as int64 rows and, for each, the first of its
    messages in lexicographic order: one `encode` matmul over every
    message, enumerated once and cached."""
    if code._words is None:
        if code.codebook_bound() > _ENUM_CAP:
            raise ValueError("codebook too large to enumerate")
        dims = (code.alphabet.size,) * code.n
        msgs = np.indices(dims).reshape(code.n, math.prod(dims)).T
        words = encode(code, msgs)
        first = {}
        for i, word in enumerate(map(tuple, words.tolist())):
            first.setdefault(word, i)
        if len(first) < len(words):
            keep = list(first.values())
            words, msgs = words[keep], msgs[keep]
        code._words = words, msgs
    return code._words


def contains_codeword(code: LinearCode, x) -> bool:
    """Whether x is a codeword, by the parity checks of the code's kernel."""
    k = _kernel(code)
    return k.is_codeword(k.expand(x))


def solve_encoding(code: LinearCode, x):
    """A message w with w*G = x, or None if x is not a codeword.

    Read off the code's Smith-form kernel as w = V (U x / p^v): the unique
    message when G has full row rank over a field or generates a free
    chain-ring code, otherwise one valid preimage.
    """
    k = _kernel(code)
    x = np.array(k.expand(x), dtype=k.H.dtype)
    if not k.is_codeword(x):
        return None
    w = k.V @ (k.U @ x % k.m // k.pv) % k.m
    if k.f == 2:
        w = w[0::2] + k.p * w[1::2]
    return tuple(int(v) for v in w)


def _dtype(m: int, k: int):
    # int64 while k products of residues mod m sum without overflow
    return np.int64 if k * m * m < 2**63 else object


class _Kernel:
    """Smith form U G^T V = diag(p^v) (mod m = p^e) of a code's generator
    matrix G, each pivot the first entry of least p-valuation left.

    A code over F_{p^2} is read through its F_p-expansion (`_generator`).
    x is a codeword iff H x = 0 (mod m),
    H holding p^(e-v_i) U_i for the non-unit pivots and U_i beyond the rank.
    """

    def __init__(self, code: LinearCode):
        p, m, f = self.p, self.m, self.f = _expansion(code.alphabet)
        self.N = code.N
        a = _generator(code).T.tolist()
        rows, cols = len(a), f * code.n
        U = [[int(i == j) for j in range(rows)] for i in range(rows)]
        V = [[int(i == j) for j in range(cols)] for i in range(cols)]
        pv = []  # the pivots p^v_i, each gcd(entry, m)
        for k in range(min(rows, cols)):
            entries = [(math.gcd(a[i][j], m), i, j) for i in range(k, rows) for j in range(k, cols) if a[i][j]]
            if not entries:
                break
            d, i, j = min(entries)
            a[k], a[i], U[k], U[i] = a[i], a[k], U[i], U[k]
            for r in (*a, *V):
                r[k], r[j] = r[j], r[k]
            unit = pow(a[k][k] // d, -1, m)
            a[k] = [x * unit % m for x in a[k]]
            U[k] = [x * unit % m for x in U[k]]
            for i in range(k + 1, rows):
                c = a[i][k] // d
                a[i] = [(x - c * y) % m for x, y in zip(a[i], a[k])]
                U[i] = [(x - c * y) % m for x, y in zip(U[i], U[k])]
            for j in range(k + 1, cols):
                c, a[k][j] = a[k][j] // d, 0
                for r in V:
                    r[j] = (r[j] - c * r[k]) % m
            pv.append(d)
        self.rank = r = len(pv)
        H = [[m // d * x % m for x in U[i]] for i, d in enumerate(pv) if d > 1] + U[r:]
        dt = _dtype(m, max(rows, cols))
        self.H = np.array(H, dtype=dt).reshape(len(H), rows)
        self.U = np.array(U[:r], dtype=dt).reshape(r, rows)
        self.V = np.array([row[:r] for row in V], dtype=dt).reshape(cols, r)
        self.pv = np.array(pv, dtype=dt)

    def expand(self, x) -> list:
        """x reduced into the alphabet, each F_{p^2} symbol as (c0, c1)."""
        if len(x) != self.N:
            raise ValueError(f"vector length {len(x)} != N={self.N}")
        x = [int(v) % self.m**self.f for v in x]
        return [c for s in x for c in divmod(s, self.p)[::-1]] if self.f == 2 else x

    def is_codeword(self, x) -> bool:
        """H x = 0 (mod m) for x as `expand` gives it (or in H's dtype)."""
        return not any(s % self.m for s in (self.H @ np.asarray(x, dtype=self.H.dtype)).tolist())


def _expansion(A):
    """(p, m, f): the alphabet is Z/m with m = p^e (f = 1) or F_{p^2} (f = 2)."""
    return A.p, A.char, 2 if A.size != A.char else 1


def _generator(code: LinearCode) -> np.ndarray:
    """The generator matrix as integers mod m, one row per generator, built
    once per code.  Over F_{p^2} it is the F_p-expansion: the symbol
    c0 + c1*p is the column pair (c0, c1), and each generator row g gives
    the rows g and t*g (t the element of index p), so a message symbol
    c0 + c1*p weighs them by c0 and c1."""
    if code._gx is None:
        A = code.alphabet
        p, m, f = _expansion(A)
        rows = code.G
        if f == 2:
            rows = [[c for s in g for c in (s % p, s // p)]
                    for row in rows for g in (row, [A.mul(p, x) for x in row])]
        code._gx = np.array(rows, dtype=_dtype(m, f * code.n)).reshape(len(rows), f * code.N)
    return code._gx


def _kernel(code: LinearCode) -> _Kernel:
    """The code's Smith-form kernel, built on first use and cached."""
    if code._kernel is None:
        code._kernel = _Kernel(code)
    return code._kernel


class NestedCodeChain:
    """Codes C^1 <= ... <= C^L over F_p cut from one basis of F_p^N.

    C^l is generated by the first dims[l-1] basis vectors, so nesting
    holds by construction.
    """

    def __init__(self, p: int, basis, dims):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        basis = tuple(tuple(int(x) % p for x in row) for row in basis)
        if not basis:
            raise ValueError("empty basis")
        N = len(basis[0])
        if len(basis) != N or any(len(r) != N for r in basis):
            raise ValueError(f"basis must be {N} vectors of length {N}")
        if _kernel(LinearCode(PrimeField(p), basis)).rank != N:
            raise ValueError("basis does not span the full space")
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise ValueError("need at least one level")
        if any(d < 0 or d > N for d in dims):
            raise ValueError(f"dims out of range 0..{N}: {dims}")
        if list(dims) != sorted(dims):
            raise ValueError(f"dims must be nondecreasing: {dims}")
        self.p = p
        self.N = N
        self.basis = basis
        self.dims = dims
        self.levels = len(dims)

    def __repr__(self):
        return f"NestedCodeChain(p={self.p}, N={self.N}, dims={self.dims})"


def lift_chain_to_ring_code(chain: NestedCodeChain, e: int) -> LinearCode:
    """Collapse e levels of a nested chain into one code over Z_{p^e}.

    Generator i enters at the first level l with dims[l-1] >= i and is
    lifted as p^(l-1) * g_i; the Z_{p^e}-span of these rows is exactly
    the set of sums over the per-level codebooks (with coefficient
    carries absorbed by the higher levels).
    """
    if e < 1:
        raise ValueError("need at least one level")
    dims = [chain.dims[min(l, chain.levels) - 1] for l in range(1, e + 1)]
    ring = ChainRing(chain.p, e)
    rows = []
    for i in range(1, dims[-1] + 1):
        lam = next(l for l in range(1, e + 1) if dims[l - 1] >= i)
        scale = chain.p ** (lam - 1)
        rows.append(tuple(scale * g % ring.size for g in chain.basis[i - 1]))
    return LinearCode(ring, rows, N=chain.N)
