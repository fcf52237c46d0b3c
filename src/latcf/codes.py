"""Linear codes over the finite alphabets of `algebra`, nested chains of
codes sharing one generator basis, and the lift of a chain to a single
chain-ring code.

Generator matrices are stored row per generator; `encode` left-multiplies
by the message, so outputs have length N.  Codebooks up to 2^16 words are
enumerated once and cached, which doubles as the message-recovery table
used by the decoder.
"""

from __future__ import annotations

import itertools

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

    def codebook_bound(self) -> int:
        return self.alphabet.size**self.n

    def __repr__(self):
        return f"LinearCode({self.alphabet!r}, n={self.n}, N={self.N})"


def encode(code: LinearCode, w):
    """Codeword w*G with all arithmetic in the code's alphabet."""
    if len(w) != code.n:
        raise ValueError(f"message length {len(w)} != n={code.n}")
    A = code.alphabet
    out = [A.zero] * code.N
    for wi, row in zip(w, code.G):
        wi = int(wi) % A.size
        if wi == A.zero:
            continue
        for j, g in enumerate(row):
            out[j] = A.add(out[j], A.mul(wi, g))
    return tuple(out)


def codebook(code: LinearCode) -> dict:
    """Map codeword -> one preimage message; enumerated once, cached."""
    if code._cb is None:
        if code.codebook_bound() > _ENUM_CAP:
            raise ValueError("codebook too large to enumerate")
        cb = {}
        for w in itertools.product(code.alphabet.elements(), repeat=code.n):
            cb.setdefault(encode(code, w), w)
        code._cb = cb
    return code._cb


def contains_codeword(code: LinearCode, x) -> bool:
    """Membership of x in the codebook: enumeration for small codes,
    linear solving above the enumeration cap."""
    if len(x) != code.N:
        raise ValueError(f"vector length {len(x)} != N={code.N}")
    A = code.alphabet
    x = tuple(int(v) % A.size for v in x)
    if code.codebook_bound() <= _ENUM_CAP:
        return x in codebook(code)
    return solve_encoding(code, x) is not None


def solve_encoding(code: LinearCode, x):
    """A message w with w*G = x, or None if x is not a codeword.

    When G has full row rank over a field the solution is unique, which
    is what function decoding relies on.
    """
    A = code.alphabet
    x = [int(v) % A.size for v in x]
    if isinstance(A, ChainRing) and A.e > 1:
        return _solve_mod(code, x)
    return _solve_field(code, x)


def _solve_field(code, x):
    # Gaussian elimination on G^T w = x over a field (prime or Galois)
    A = code.alphabet
    n, N = code.n, code.N
    aug = [[code.G[i][j] for i in range(n)] + [x[j]] for j in range(N)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, N) if aug[i][c] != A.zero), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        scale = A.inv(aug[r][c])
        aug[r] = [A.mul(scale, v) for v in aug[r]]
        for i in range(N):
            if i != r and aug[i][c] != A.zero:
                f = aug[i][c]
                aug[i] = [A.sub(v, A.mul(f, pv)) for v, pv in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == N:
            break
    for i in range(r, N):
        if aug[i][n] != A.zero:
            return None
    w = [A.zero] * n
    for row_idx, c in enumerate(pivots):
        w[c] = aug[row_idx][n]
    return tuple(w)


def _solve_mod(code, x):
    # w*G = x (mod m) as an integer problem: x must lie in the Z-row-span
    # of [G; m*I].  Echelonize with tracked row operations, then peel x
    # off greedily; the multipliers on the G rows give w.
    m = code.alphabet.size
    n, N = code.n, code.N
    rows = [list(r) for r in code.G]
    rows += [[m if j == i else 0 for j in range(N)] for i in range(N)]
    k = len(rows)
    U = [[int(j == i) for j in range(k)] for i in range(k)]
    pivots = []
    r = 0
    for c in range(N):
        while True:
            nz = [i for i in range(r, k) if rows[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(rows[i][c]))
            rows[r], rows[i0] = rows[i0], rows[r]
            U[r], U[i0] = U[i0], U[r]
            if rows[r][c] < 0:
                rows[r] = [-v for v in rows[r]]
                U[r] = [-v for v in U[r]]
            clean = True
            for i in range(r + 1, k):
                q = rows[i][c] // rows[r][c]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                if rows[i][c] != 0:
                    clean = False
            if clean:
                break
        if r < k and rows[r][c] != 0:
            pivots.append((r, c))
            r += 1
    xx = list(x)
    coeff = [0] * k
    for ri, c in pivots:
        if xx[c] % rows[ri][c] != 0:
            return None
        t = xx[c] // rows[ri][c]
        if t:
            xx = [a - t * b for a, b in zip(xx, rows[ri])]
            coeff = [a + t * b for a, b in zip(coeff, U[ri])]
    if any(xx):
        return None
    return tuple(c % m for c in coeff[:n])


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
        if _rank_mod_p(basis, p) != N:
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

    def level_code(self, level: int) -> LinearCode:
        """The code C^level, levels counted from 1."""
        if not 1 <= level <= self.levels:
            raise ValueError(f"level {level} out of 1..{self.levels}")
        return LinearCode(
            PrimeField(self.p), self.basis[: self.dims[level - 1]], N=self.N
        )

    def __repr__(self):
        return f"NestedCodeChain(p={self.p}, N={self.N}, dims={self.dims})"


def _rank_mod_p(rows, p):
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pr = next((i for i in range(rank, len(mat)) if mat[i][c] % p), None)
        if pr is None:
            continue
        mat[rank], mat[pr] = mat[pr], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(v - f * pv) % p for v, pv in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def build_nested_chain(p: int, basis, dims) -> NestedCodeChain:
    return NestedCodeChain(p, basis, dims)


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
