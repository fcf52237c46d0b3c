"""Lattices built from linear codes.

Every real-ambient lattice here is one of Construction pi_D's:
M(C_1 x ... x C_L) + q Z^N, where the levels are codes over the chain
rings Z/m_l Z for pairwise-coprime prime powers m_l with product q, and M
applies the CRT reconstruction coordinatewise.  M is linear mod q, so
encoding every level and combining the levels is one integer matrix G_q
mod q (`_generator_mod_q`).  Constructions A (one code over F_p), D (a
nested chain over F_p, lifted to one code over Z/p^L) and pi_A (codes
over distinct prime fields) are pi_D's special cases: each checks its own
precondition on the levels and builds the same descriptor, so
membership, enumeration and quantization share one code path.
Complex-ambient lattices (A_OK) replace q Z^N by the N-fold product of a
prime ideal P of a quadratic integer ring.  Membership is one parity
check H v = 0 (mod Q) for both ambients, on the integer coordinates
(Q = q) or on the ring coordinates of each entry (Q = p).  Quantization
takes one of two paths, chosen by the lattice's codebook bound
(`_searched`).  A_OK and a real lattice with few cosets use the coset
table: one table per (coordinate, residue), the nearest point of r + q Z
or of rep(r) + P, then each coset's sum of its entries in coordinate
order.  A real lattice with many cosets uses the closest-point search:
Schnorr-Euchner enumeration in an LLL-reduced basis of M(C_1 x ... x C_L)
+ q Z^N (`_search_basis`), which keeps every point the table could tie
and scores those with the table's arithmetic.  Both paths end in one tie
rule (`_ties`, `_least_points`), so they return the same points.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from .algebra import ChainRing, CrtMap, PrimeIdeal, ResidueFieldMap, factorize
from .codes import LinearCode, NestedCodeChain, _codewords, _dtype, _kernel, lift_chain_to_ring_code

_BOX_CAP = 10**6
# elements one batch holds: a quantize pass or an enumerate_box block
_PASS_ELEMENTS = 1 << 17
# quantize scores every coset up to this codebook bound and searches above
# it (`_searched`), the crossover of the layer sweep in BENCH_27.json
_TABLE_COSETS = 4096
# float64 elements a searched quantize row holds per entry of its walk's
# state, N (N + 9) / 2 entries (`rows_per_pass`)
_SEARCH_ROW_ELEMENTS = 6
# a searched pass of at least this many rows takes their Babai descents in
# numpy, a smaller one in the walk (`_closest_rows`): about where numpy's
# calls per level cost what they save, on sim-cosets' lattice
_NUMPY_DESCENT_ROWS = 8


class LatticeDescriptor:
    """One constructed lattice: levels of codes plus the tiling modulus.

    kind is one of "A", "D", "piA", "piD", "A_OK".  For real lattices q
    is the integer coarse modulus and map the CrtMap over the level
    moduli, the sizes of the codes' alphabets Z/m_l; for A_OK q is the
    prime ideal and map the residue field map.
    """

    def __init__(self, kind, N, codes, ideal=None, chain=None, levels=None):
        self.kind = kind
        self.N = int(N)
        self.codes = tuple(codes)
        self.chain = chain
        self.levels = levels
        if ideal is not None:
            self.ambient = "complex"
            self.ideal = ideal
            self.map = ResidueFieldMap(ideal)
            self.q = ideal
            self.moduli = None
        else:
            self.ambient = "real"
            self.ideal = None
            self.map = CrtMap([c.alphabet.size for c in self.codes])
            self.moduli = self.map.moduli
            self.q = self.map.q
        self._cosets = None
        self._index = None
        self._search = None
        self._geometry = None
        self._residue_points = None
        self._checks = None
        self._generator = None

    def __repr__(self):
        tail = f"ideal={self.ideal!r}" if self.ambient == "complex" else f"q={self.q}"
        return f"LatticeDescriptor({self.kind}, N={self.N}, {tail})"


class LatticePair:
    """Nested pair: fine lattice plus the coarse tiling lattice q Z^N
    (or the ideal power for complex ambient), optionally scaled so the
    coarse cell matches a transmit power budget."""

    def __init__(self, fine: LatticeDescriptor, scale: float = 1.0):
        self.fine = fine
        self.scale = float(scale)
        self.q = fine.q

    def __repr__(self):
        return f"LatticePair(fine={self.fine!r}, scale={self.scale})"


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _levels(codes) -> list:
    """The level codes of a real construction, checked: at least one, each
    over a chain ring Z/p^e, all of one block length.  The descriptor's
    CrtMap refuses alphabets that share a prime."""
    codes = list(codes)
    if not codes:
        raise ValueError("need at least one code")
    N = codes[0].N
    for c in codes:
        if not isinstance(c.alphabet, ChainRing):
            raise ValueError(f"code alphabet {c.alphabet!r} is not a chain ring Z/p^e")
        if c.N != N:
            raise ValueError("levels have unequal block lengths")
    return codes


def construction_a(code: LinearCode) -> LatticeDescriptor:
    """C + p Z^N for a code over a prime field: pi_D with q = p."""
    _levels([code])
    if code.alphabet.e != 1:
        raise ValueError("construction A needs a code over a prime field")
    return LatticeDescriptor("A", code.N, [code])


def construction_d(chain: NestedCodeChain, L: int) -> LatticeDescriptor:
    """p^L Z^N plus all sums of p^(l-1)-scaled level-l codewords.

    Realized through the chain-ring lift: the unreduced real sums over
    the nested codebooks span exactly the Z_{p^L} code generated by the
    lifted rows, tiled by p^L Z^N, which is pi_D with q = p^L.
    """
    if L > chain.levels:
        raise ValueError(f"L={L} exceeds chain depth {chain.levels}")
    codes = _levels([lift_chain_to_ring_code(chain, L)])
    return LatticeDescriptor("D", chain.N, codes, chain=chain, levels=L)


def construction_pi_a(codes) -> LatticeDescriptor:
    """CRT-combined lattice from codes over distinct prime fields: pi_D
    with every exponent 1."""
    codes = _levels(codes)
    for c in codes:
        if c.alphabet.e != 1:
            raise ValueError("every level must be a prime-field code")
    return LatticeDescriptor("piA", codes[0].N, codes)


def construction_pi_d(q: int, codes) -> LatticeDescriptor:
    """CRT-combined lattice from chain-ring codes, one per prime-power
    factor of q (codes listed in ascending prime order)."""
    codes = _levels(codes)
    factors = [(c.alphabet.p, c.alphabet.e) for c in codes]
    if factors != factorize(q):
        raise ValueError(f"code alphabets {factors} do not match the factors {factorize(q)} of q={q}")
    return LatticeDescriptor("piD", codes[0].N, codes)


def construction_a_ok(code: LinearCode, ideal: PrimeIdeal) -> LatticeDescriptor:
    """M(C) + ideal^N inside C^N, M the section of C's alphabet, the residue field."""
    lat = LatticeDescriptor("A_OK", code.N, [code], ideal=ideal)
    if code.alphabet != lat.map.field:
        raise ValueError(f"code alphabet {code.alphabet!r} is not the residue field {lat.map.field!r}")
    return lat


# ---------------------------------------------------------------------------
# membership / enumeration
# ---------------------------------------------------------------------------


def contains(lat: LatticeDescriptor, v) -> bool:
    """True iff v is a lattice point: H v = 0 (mod Q) on its integer
    coordinates, the ring coordinates (a, b) of each entry for A_OK."""
    if len(v) != lat.N:
        raise ValueError(f"vector length {len(v)} != N={lat.N}")
    if lat.ambient == "complex":
        ring = lat.ideal.ring
        coords = [c for x in map(ring.coerce, v) for c in (x.a, x.b)]
    else:
        coords = []
        for x in v:
            if not isinstance(x, numbers.Integral) and not float(x).is_integer():
                raise ValueError(f"non-integer entry {x}")
            coords.append(int(x))
    H, Q = _checks(lat)
    syndrome = H @ np.array([c % Q for c in coords], dtype=H.dtype)
    return not any(s % Q for s in syndrome.tolist())


def _checks(lat: LatticeDescriptor):
    """Parity checks H and modulus Q, v in the lattice iff H v = 0 (mod Q),
    built once per lattice.  Real lattices stack (q/m_l) H_l over the
    levels (Q = q); A_OK composes the code's checks with the residue map of
    a + b*xi, a + b*root (f = 1) or the F_p-expansion (a, b) (f = 2), Q = p.
    """
    if lat._checks is None:
        if lat.ambient == "complex":
            ideal, width = lat.ideal, 2
            Q, H = ideal.p, _kernel(lat.codes[0]).H.tolist()
            if ideal.f == 1:
                H = [[h * c % Q for h in row for c in (1, ideal.root)] for row in H]
        else:
            Q, width = lat.q, 1
            H = [[Q // m * h for h in row] for c, m in zip(lat.codes, lat.moduli) for row in _kernel(c).H.tolist()]
        lat._checks = np.array(H, dtype=_dtype(Q, width * lat.N)).reshape(len(H), width * lat.N), Q
    return lat._checks


def _generator_mod_q(lat: LatticeDescriptor):
    """G_q = stack_l(E_l G_l mod q), E_l the CRT idempotents, built once per
    real lattice: E_l m_l = 0 (mod q), so (concat_l w_l) @ G_q % q is the
    CRT point of the codewords encode(C_l, w_l), its sums below sum n_l q^2."""
    if lat._generator is None:
        rows = [[e * g % lat.q for g in row] for c, e in zip(lat.codes, lat.map._idem) for row in c.G]
        lat._generator = np.array(rows, dtype=_dtype(lat.q, len(rows))).reshape(len(rows), lat.N)
    return lat._generator


def enumerate_box(lat: LatticeDescriptor, bounds) -> list:
    """All lattice points with coordinates in the inclusive bounds, in
    lexicographic order of their integer coordinates; a box that holds no
    integer point gives [].

    bounds is one (lo, hi) pair for every coordinate or a per-coordinate
    list; for complex lattices the pair bounds both integer coordinates
    of each entry.  The whole box goes through the parity check of
    `contains` at once, so it doubles as a test oracle only when checked
    against an independent construction.
    """
    if len(bounds) == 2 and isinstance(bounds[0], numbers.Real):
        bounds = [tuple(bounds)] * lat.N
    if len(bounds) != lat.N:
        raise ValueError("need one bound pair per coordinate")
    if any(hi < lo for lo, hi in bounds):
        raise ValueError("empty bounds")
    bounds = [(math.ceil(lo), math.floor(hi)) for lo, hi in bounds]
    if lat.ambient == "complex":  # the (a, b) coordinates of each entry
        bounds = [b for b in bounds for _ in range(2)]
    sides = [hi - lo + 1 for lo, hi in bounds]
    count = math.prod(sides)
    if count > _BOX_CAP:
        raise ValueError(f"box holds {count} points, cap is {_BOX_CAP}")
    H, Q = _checks(lat)
    lows = [lo for lo, _ in bounds]
    shift, pts = np.array([lo % Q for lo in lows])[:, None], []
    block = max(1, _PASS_ELEMENTS // (len(sides) + len(H)))  # an offset's coordinates and syndromes
    for start in range(0, count, block):  # box offsets in C order, in bounded memory
        idx = np.array(np.unravel_index(np.arange(start, min(start + block, count)), sides))
        hit = ~(H @ ((idx + shift) % Q).astype(H.dtype) % Q).any(axis=0)
        pts += [[i + lo for i, lo in zip(row, lows)] for row in idx[:, hit].T.tolist()]
    if lat.ambient == "complex":
        return [tuple(map(lat.ideal.ring.element, pt[0::2], pt[1::2])) for pt in pts]
    return [tuple(pt) for pt in pts]


# ---------------------------------------------------------------------------
# quantization / reduction
# ---------------------------------------------------------------------------


def _coset_reps(lat: LatticeDescriptor):
    """One row per codebook coset, in itertools.product order over the
    levels: CRT residues in [0, q)^N (real) or residue-field indices
    (A_OK); built once per lattice, for the coset table's `_coset_index`."""
    if lat._cosets is None:
        books = [_codewords(c)[0] for c in lat.codes]
        if lat.ambient == "complex":
            lat._cosets = books[0]
        else:  # level l's codewords along axis l: forward_vec broadcasts the product
            L = len(books)
            axes = [b.reshape((1,) * l + b.shape[:1] + (1,) * (L - 1 - l) + b.shape[1:])
                    for l, b in enumerate(books)]
            lat._cosets = lat.map.forward_vec(axes).reshape(-1, lat.N)
    return lat._cosets


def _coset_index(lat: LatticeDescriptor):
    """The residues quantize tabulates per call and, per coordinate j and
    coset i, the flat position of coset i's residue at j in that N x width
    table; built once per lattice from the cosets (`_coset_reps`).  When
    the residues, q of them (p^f for A_OK), are no more than the cosets,
    one row of them in natural order serves every coordinate, so coset i's
    position at j is j*q plus its residue at j.  Else each coordinate
    tabulates its own coset residues, coset i's in column i, so the table
    never outgrows the cosets x N work it saves."""
    if lat._index is None:
        reps = _coset_reps(lat).T  # N x cosets
        count = math.prod(c.alphabet.size for c in lat.codes)
        if count > reps.shape[1]:
            residues, column = np.ascontiguousarray(reps), np.arange(reps.shape[1])
        else:
            residues, column = np.arange(count)[None, :], reps
        lat._index = residues, (column + residues.shape[1] * np.arange(lat.N)[:, None]).astype(np.intp, order="C")
    return lat._index


def _searched(lat: LatticeDescriptor) -> bool:
    """Whether quantize finds lat's points by the closest-point search
    (`_closest_rows`) rather than the coset table: a real lattice whose
    codebook bound prod_l m_l^(n_l) exceeds _TABLE_COSETS.  The bound is
    read off the generators, so the choice builds nothing, and it is the
    coset count for free codes."""
    return lat.ambient == "real" and math.prod(c.codebook_bound() for c in lat.codes) > _TABLE_COSETS


def quantize(lat: LatticeDescriptor, y):
    """A nearest lattice point to y, or to each row of y.

    y is one vector of length N or an array of rows (R, N), R >= 0.  A
    real lattice gives an int64 array of y's shape; A_OK gives a tuple of
    QuadInt, or a list of them, one per row.  One tie rule: the lattice is
    a union of cosets rep + Lambda_c^N, each coset's point is its nearest
    one coordinate by coordinate (rounding over q Z, real coordinate ties
    rounding down; the best of the 4 corners of a Babai floor's cell in a
    Lagrange-reduced basis over an ideal), its squared distance is the sum
    of its coordinates' in coordinate order, distances within
    1e-9*max(1, dmin) of the row's minimum tie, and the lexicographically
    smallest integer coordinates win (ring coordinates (a, b) for A_OK).

    Two paths give those points.  A_OK and a real lattice with at most
    _TABLE_COSETS cosets (by the codebook bound, `_searched`) score every
    coset: one table per row holds each (coordinate, residue)'s point and
    squared distance, and one gather-sum gives every coset's distance
    (`_quantize_rows`).  A real lattice with more cosets is searched:
    Schnorr-Euchner enumeration in an LLL-reduced basis, from each row's
    Babai point (a pass of _NUMPY_DESCENT_ROWS rows or more descends to
    them in numpy), keeps every point that can be a tied coset's, and the
    table's arithmetic scores just those (`_closest_rows`), so its time
    grows with the points near y, not with the cosets.  Both then pick by
    the tie rule above (`_ties`, `_least_points`).  The rows go in passes of
    rows_per_pass(lat), so memory stays bounded whatever the row count.
    Entries must be finite with |y_j| <= 2**53, beyond which float64
    misses integer points, and real for a real-ambient lattice.
    """
    complex_ambient = lat.ambient == "complex"
    if not complex_ambient and np.iscomplexobj(y):
        raise ValueError("y must be real for a real-ambient lattice; quantize .real and .imag apart")
    y = np.asarray(y, dtype=complex if complex_ambient else float)
    if y.shape[-1:] != (lat.N,) or y.ndim > 2:
        raise ValueError(f"expected shape ({lat.N},) or (rows, {lat.N}), got {y.shape}")
    if not np.abs(y).max(initial=0.0) <= 2.0**53:  # false for nan too
        raise ValueError("y must be finite" if not np.isfinite(y).all() else "y must satisfy |y| <= 2**53")
    flat, step = y.reshape(-1, lat.N), rows_per_pass(lat)
    nearest = _closest_rows if _searched(lat) else _quantize_rows
    best = np.empty(flat.shape + ((2,) if complex_ambient else ()), dtype=np.int64)
    for i in range(0, len(flat), step):
        best[i:i + step] = nearest(lat, flat[i:i + step])
    if complex_ambient:
        element = lat.ideal.ring.element
        rows = [tuple(element(a, b) for a, b in row) for row in best.tolist()]
        return rows[0] if y.ndim == 1 else rows
    return best.reshape(y.shape)


def rows_per_pass(lat: LatticeDescriptor) -> int:
    """Rows quantize scores in one pass (one at least).  A table row takes
    a distance per coset and an N x width table, 4 Babai candidates per
    A_OK entry.  A searched row takes its walk's state from its Babai
    descent (`_babai_leaves`): N (N + 1) / 2 entries of E and N each of u,
    step, mid and partial, each held as a float64 and as a Python float in
    a list, _SEARCH_ROW_ELEMENTS float64 elements per entry with the
    lists' own."""
    if _searched(lat):
        return max(1, _PASS_ELEMENTS // (_SEARCH_ROW_ELEMENTS * lat.N * (lat.N + 9) // 2))
    residues, index = _coset_index(lat)
    candidates = len(_ideal_geometry(lat)[3]) if lat.ambient == "complex" else 1
    return max(1, _PASS_ELEMENTS // (index.shape[1] + lat.N * residues.shape[1] * candidates))


def _quantize_rows(lat: LatticeDescriptor, y):
    """The nearest point to each row of y (R x N) by the coset table: int64
    R x N, or R x N x 2 ring coordinates for A_OK.  The rows ride along the
    last axis of the tables, so each coset's gather takes one contiguous
    run of R entries; the distances take cosets x R entries, and only the
    tied cosets' points are gathered for the tie rule (`_least_points`)."""
    residues, index = _coset_index(lat)
    columns = y.T[:, None]  # N x 1 x R
    points, d2 = (_table_mod_ideal(lat, columns) if lat.ambient == "complex"
                  else _table_mod_q(lat, residues[..., None], columns))  # N x width x R
    dist = _gather_sum(d2, index)  # cosets x R
    rows, cosets = np.nonzero(_ties(dist, dist.min(axis=0)).T)  # grouped by row
    points = points.reshape(points.shape[0] * points.shape[1], *points.shape[2:])  # x, or (a, b), per entry and row
    return _least_points(points[index[:, cosets], rows].swapaxes(0, 1), rows, len(y))


def _gather_sum(table, index):
    """Each coset's squared distance per row (cosets x R), for a table N x
    width x R: its residues' table entries summed over the coordinates in
    order, one coordinate's gather at a time, so a pass never holds the N
    x cosets x R gather."""
    table = table.reshape(table.shape[0] * table.shape[1], table.shape[2])
    dist = table.take(index[0], axis=0)
    for at in index[1:]:
        dist += table.take(at, axis=0)
    return dist


def _ties(dist, dmin):
    """quantize's tie test: which distances lie within 1e-9*max(1, dmin) of
    the least, dmin (broadcast against dist)."""
    return dist <= dmin + 1e-9 * np.maximum(1.0, dmin)


def _least_points(points, owners, count):
    """Per row r < count, the lexicographically smallest of its points,
    quantize's last tie break among the tied ones (`_ties`): points K x N,
    or K x N x 2 ring coordinates, points[k] row owners[k]'s; owners is
    sorted and names every row."""
    if len(points) == count:  # one point per row, no tie to break
        return points
    keys = points.reshape(len(points), math.prod(points.shape[1:]))
    order = np.lexsort((*keys.T[::-1], owners))
    return points[order[np.searchsorted(owners, np.arange(count))]]


def _table_mod_q(lat: LatticeDescriptor, residues, y):
    """Nearest point of r + q Z to y_j and its squared distance, for each
    coordinate j (y is N x 1, or N x 1 x R with residues[..., None]) and
    residue r in that row of residues; any shapes that broadcast."""
    steps = np.ceil((y - residues) / lat.q - 0.5)
    points = residues + lat.q * steps.astype(np.int64)
    return points, (points - y) ** 2


# ---------------------------------------------------------------------------
# the closest-point search
# ---------------------------------------------------------------------------


class _SearchBasis(NamedTuple):
    """What the closest-point search keeps per lattice (`_search_basis`)."""

    basis: np.ndarray  # N x N int64 rows B, LLL-reduced: the points are u B
    rotate: np.ndarray  # Q of B^T = Q R: a row y' maps to its centre row y' Q
    above: list  # above[k] = [R_jk for j < k]
    diag: list  # R_kk
    drift: float  # Delta, the bound on the search's float error (`_search_basis`)


def _search_basis(lat: LatticeDescriptor) -> _SearchBasis:
    """The fine lattice's basis for the closest-point search, built once per
    real lattice: the triangular (Hermite) basis of G_q's rows and q Z^N,
    LLL-reduced at delta = 0.9, and the QR factors of its transpose.

    drift bounds |sqrt(D) - sqrt(e)| for any point the search visits, D
    its float distance to y mod q and e the exact distance of its
    translate to y.  Householder QR is backward stable (Higham, Accuracy
    and Stability of Numerical Algorithms, Thm 19.4, c N^2 u per column),
    and the rotation of y' = y mod q and the walk's sums of N terms add
    N u each, so the residual's error is at most K (||y'|| + ||x||) with
    K = 16 N^3 u (1 + ||B||_F / sigma_min(B)), u = 2^-53, counted
    generously.  ||y'|| <= sqrt(N) q, and ||x|| - ||y'|| is at most the
    square root of the search's largest radius, which the Babai point's
    bound r_B = sqrt(sum R_kk^2) / 2 and the widest table error of a row
    with |y_j| <= 2^53 (`_table_error`: hi - lo <= N W, W = q^2 + 8q + 32
    bounds a coordinate's spread of dev_j) cap at A + 4 Delta, A = (1 +
    1e-9)^2 r_B + sqrt(2 N W); so ||y'|| + ||x|| <= 2 sqrt(N) q + A + 4
    Delta.  np.mod's y' is off y's translate by at most u q per
    coordinate, so Delta = (K (2 sqrt(N) q + A) + sqrt(N) u q) / (1 - 4K).
    """
    if lat._search is None:
        basis = np.array(_lll(_hermite_rows(_generator_mod_q(lat).tolist(), lat.q, lat.N)), dtype=np.int64)
        rotate, R = np.linalg.qr(basis.T.astype(float))
        N, q, u = lat.N, lat.q, 2.0**-53
        spread = np.linalg.norm(basis) / np.linalg.svd(basis.astype(float), compute_uv=False)[-1]
        K = 16 * N**3 * u * (1 + spread)
        diag = np.diag(R).tolist()
        reach = (1 + 1e-9) ** 2 * math.sqrt(sum(d * d for d in diag)) / 2 + math.sqrt(2 * N * (q * q + 8 * q + 32))
        drift = (K * (2 * math.sqrt(N) * q + reach) + math.sqrt(N) * u * q) / (1 - 4 * K)
        lat._search = _SearchBasis(basis, rotate, [R[:k, k].tolist() for k in range(N)], diag, drift)
    return lat._search


def _hermite_rows(rows, q: int, N: int) -> list:
    """An upper-triangular basis of the lattice the integer rows and q Z^N
    span: column by column, q e_j and every row's entry at j merge into one
    pivot by extended-gcd row operations, which leave each row zero at j;
    the entries right of the diagonal stay reduced mod q, as q Z^N is in
    the lattice.  The pivots divide q."""
    rows, basis = [[x % q for x in r] for r in rows], []
    for j in range(N):
        pivot = [0] * j + [q] + [0] * (N - j - 1)
        for r in rows:
            if r[j]:
                g, s, t = _xgcd(pivot[j], r[j])
                a, b = pivot[j] // g, r[j] // g
                pivot, r[:] = ([(s * x + t * z) % q for x, z in zip(pivot, r)],
                               [(b * x - a * z) % q for x, z in zip(pivot, r)])
                pivot[j] = g
        basis.append(pivot)
    return basis


def _xgcd(a: int, b: int):
    """(g, s, t) with g = gcd(a, b) = s a + t b, for a > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b, s0, s1, t0, t1 = b, a - k * b, s1, s0 - k * s1, t1, t0 - k * t1
    return a, s0, t0


def _lll(rows) -> list:
    """An LLL-reduced basis of linearly independent integer rows (Lenstra,
    Lenstra and Lovasz; Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.6.3): float Gram-Schmidt coefficients, taken from one QR
    of the rows and updated in O(n) per swap, and exact integer rows, so the
    result spans the same lattice whatever the rounding."""
    b = [list(r) for r in rows]
    n = len(b)
    R = np.linalg.qr(np.array(b, dtype=float).T, mode="r")
    mu = (R / np.diag(R)[:, None]).T.tolist()  # mu[k][j] = <b_k, b*_j> / |b*_j|^2
    B = (np.diag(R) ** 2).tolist()
    k = 1
    while k < n:
        for l in range(k - 1, -1, -1):  # size-reduce b_k, the whole row once the swap test passes
            m = math.floor(mu[k][l] + 0.5)
            if m:
                b[k] = [x - m * z for x, z in zip(b[k], b[l])]
                mk, ml = mu[k], mu[l]
                for i in range(l):
                    mk[i] -= m * ml[i]
                mk[l] -= m
            # Lovasz at delta = 0.9: 0.99 took about twice as long to
            # reduce, for the same nodes per row
            if l == k - 1 and B[k] < (0.9 - mu[k][l] ** 2) * B[l]:
                break
        else:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        mk, mk1 = mu[k], mu[k - 1]
        for j in range(k - 1):
            mk[j], mk1[j] = mk1[j], mk[j]
        m = mk[k - 1]
        Bk = B[k] + m * m * B[k - 1]
        mk[k - 1] = c = m * B[k - 1] / Bk
        B[k], B[k - 1] = B[k - 1] * B[k] / Bk, Bk
        for i in range(k + 1, n):
            mi = mu[i]
            t = mi[k]
            mi[k] = mi[k - 1] - m * t
            mi[k - 1] = t + c * mi[k]
        k = max(1, k - 1)
    return b


def _closest_rows(lat: LatticeDescriptor, y):
    """The nearest point to each row of y (R x N, R >= 1) by the
    closest-point search, as the coset table would pick it: int64 R x N.

    Each row is reduced mod q, so the search runs near [0, q)^N whatever
    |y|.  Each point x it keeps maps to its coset's table point by the
    table's arithmetic, r = x mod q and r + q ceil((y - r) / q - 0.5) with
    the row's own y, its squared distance summed in coordinate order, and
    the table's tie rule (`_ties`, `_least_points`) picks among them.  So
    the search must keep a point of every coset the table can tie.  The
    table's distance of a coset c is, up to (N - 1) u relative (u =
    2^-53), its exact least distance e_c plus the sum over coordinates of
    dev_j(c_j), the amount by which the table's term for residue c_j
    exceeds the exact least one (`_table_error`: hi and lo bound those sums
    over every coset).  A coset the table ties then has e_c <= rho = (1 +
    2e-9) (e_min + hi) - lo + 2e-9.  The search bounds e_min by its least
    float distance so far, D_best, as (sqrt(D_best) + Delta)^2 (Delta,
    `_search_basis`), and keeps every point within (sqrt(rho) + Delta)^2
    (`_search_leaves`).  A pass of _NUMPY_DESCENT_ROWS rows or more
    descends to its Babai points in numpy first (`_babai_leaves`); the
    same float operations in the walk would cost a Python step per level
    and row."""
    search, q = _search_basis(lat), lat.q
    hi, lo = _table_error(lat, y)
    owners, leaves = [], []
    low = 0 if len(y) >= _NUMPY_DESCENT_ROWS else lat.N - 1
    for r, row in enumerate(zip(*_babai_leaves(search, np.mod(y, q) @ search.rotate, low), hi.tolist(), lo.tolist())):
        kept = _search_leaves(search, *row)
        owners += [r] * len(kept)
        leaves += kept
    residues = np.array(leaves, dtype=np.int64) @ search.basis % q
    owners = np.array(owners, dtype=np.intp)
    points, d2 = _table_mod_q(lat, residues, y[owners])
    dist = d2.cumsum(axis=1)[:, -1]  # in coordinate order
    dmin = np.minimum.reduceat(dist, np.searchsorted(owners, np.arange(len(y))))  # per row
    tied = _ties(dist, dmin[owners])
    return _least_points(points[tied], owners[tied], len(y))


def _table_error(lat: LatticeDescriptor, y):
    """Per row of y, hi >= sum_j max_r dev_j(r) and lo <= sum_j min_r
    dev_j(r), dev_j(r) the table's squared distance from y_j to its point
    of r + q Z (`_table_mod_q`) less the exact least one.

    While its points stay below 2^53, where int64 to float is exact, the
    table errs only in (y_j - r) / q - 0.5, by eta_j <= 3u (|y_j| + q) / q
    + u, which puts its point a step of q off the nearest only when that is
    as near within 2 q eta_j: dev_j lies in [0, 2 q^2 eta_j].  While every
    |y_j| <= 2^32 that bound serves.  A row beyond it has every residue's
    dev_j computed, when q <= 2^16: y mod q is within u q of exact, so each
    residue's exact least term is within 16 u q^2 of the one computed, and
    the table's terms are its own bits.  For a larger q the bound serves
    again, widened where |y_j| > 2^53 - 2q: there a point up to 2q from y_j
    may round to float by 1, (4q + 1) in its term."""
    q, u, N = lat.q, 2.0**-53, lat.N
    size = np.abs(y)
    hi, lo = 6 * q * u * size.sum(axis=1) + 8 * N * q * q * u, np.zeros(len(y))
    if size.max() <= min(2.0**32, 2.0**53 - 2 * q):
        return hi, lo
    if q > 2**16:
        near = (4 * q + 1) * np.count_nonzero(size > 2.0**53 - 2 * q, axis=1)
        return hi + near, lo - near
    wide = np.flatnonzero(size.max(axis=1) > 2.0**32)
    residues, step = np.arange(q), max(1, _PASS_ELEMENTS // (N * q))
    for i in range(0, len(wide), step):  # rows x N x q in bounded memory
        rows = wide[i:i + step]
        terms = _table_mod_q(lat, residues, y[rows][..., None])[1]
        off = np.abs(np.mod(y[rows], q)[..., None] - residues)
        dev = terms - np.minimum(off, q - off) ** 2
        hi[rows] = dev.max(axis=2).sum(axis=1) + 16 * N * q * q * u
        lo[rows] = dev.min(axis=2).sum(axis=1) - 16 * N * q * q * u
    return hi, lo


def _babai_leaves(search: _SearchBasis, centres, low: int):
    """Each row's walk at level low of its descent to the Babai point, the
    first leaf of `_search_leaves` at low = 0: the descent from level N-1
    to low taken for all the rows of centres (R x N, y' Q) at once, in
    numpy's elementwise float arithmetic, which is the walk's own.  Per
    row, in the walk's order: its E rows (None below low), u, step, mid,
    partial and level low's offset y."""
    diag = search.diag
    n, count = len(diag), len(centres)
    u, mid, partial = np.zeros((count, n), dtype=np.int64), np.zeros((count, n)), np.zeros((count, n + 1))
    E = [None] * n
    E[n - 1] = centres
    for k in range(n - 1, low - 1, -1):
        c = mid[:, k] = E[k][:, k] / diag[k]
        m = np.floor(c + 0.5)
        u[:, k] = m
        y = (c - m) * diag[k]
        if k > low:
            partial[:, k] = partial[:, k + 1] + y * y
            E[k - 1] = E[k][:, :k] - m[:, None] * search.above[k]
    step = np.where(mid >= u, 1, -1)
    known = zip(*(e.tolist() for e in E[low:]))
    return ([None] * low + list(e) for e in known), u.tolist(), step.tolist(), mid.tolist(), partial.tolist(), y.tolist()


def _search_leaves(search: _SearchBasis, E: list, u: list, step: list, mid: list, partial: list, y: float,
                   hi: float, lo: float) -> list:
    """The coefficient rows u of the lattice points u B a row keeps
    (`_closest_rows`): Schnorr-Euchner enumeration (Schnorr and Euchner,
    Math. Programming 66, 1994; Agrell, Eriksson, Vardy and Zeger, IEEE
    Trans. Inf. Theory 48(8), 2002), depth first from level N-1 down, each
    level's integers in zig-zag order about its centre mid[k], so the first
    leaf is the Babai point and a level's later siblings are never nearer.
    The walk starts where `_babai_leaves` left the descent, at the lowest
    level k whose E row it holds: E[k][j], j <= k, is centre_j less R_jl
    u_l over the levels l > k, partial[k + 1] the squared offsets of the
    levels above k, step[k] the next zig-zag move at level k and y level
    k's offset.  A leaf within the radius is kept, and a nearer one
    shrinks the radius; the leaves outside the final radius are dropped
    at the end."""
    above, diag, drift = search.above, search.diag, search.drift
    n = len(diag)
    k = E.count(None)
    best = radius = math.inf
    kept = []
    while True:
        d = partial[k + 1] + y * y
        if d <= radius:
            if k:
                m = u[k]
                row = E[k - 1] = [e - r * m for e, r in zip(E[k], above[k])]
                k -= 1
                partial[k + 1] = d
                c = mid[k] = row[k] / diag[k]
                u[k] = m = math.floor(c + 0.5)
                step[k] = 1 if c >= m else -1
                y = (c - m) * diag[k]
                continue
            kept.append((d, tuple(u)))
            if d < best:
                best = d
                rho = (1 + 2e-9) * ((math.sqrt(d) + drift) ** 2 + hi) - lo + 2e-9
                radius = (math.sqrt(rho) + drift) ** 2
        elif k == n - 1:
            return [v for d, v in kept if d <= radius]
        else:
            k += 1
        s = step[k]  # the next integer at level k, zig-zag about its centre
        u[k] += s
        step[k] = -s - 1 if s > 0 else -s + 1
        y = (mid[k] - u[k]) * diag[k]


def _table_mod_ideal(lat: LatticeDescriptor, y):
    """Nearest point of rep(r) + P to y_j, as ring coordinates (a, b), and
    its squared distance, for each coordinate j of y (N x 1 x R) and each
    residue-field index r of its row of the table (`_coset_index`): the
    best of the 4 corners of the Babai floor's cell in the Lagrange-reduced
    basis.  Those hold the nearest point and every point tied with it, also
    when the floor lands in a neighbouring cell, so the floor's last bit
    does not matter."""
    xi = lat.ideal.ring.xi_numeric
    basis, _, to_basis, corners = _ideal_geometry(lat)
    ab, value = _residue_points(lat)
    w = y - value
    k = np.floor(w[..., None].view(np.float64) @ to_basis)
    base = ab + k.astype(np.int64) @ basis
    cands = base[..., None, :] + corners  # N x width x R x 4 x (a, b)
    diff = cands[..., 0] + cands[..., 1] * xi - y[..., None]
    dist = (diff.real**2 + diff.imag**2).reshape(-1, len(corners))  # a row per table entry
    dmin = dist.min(axis=-1, keepdims=True)
    pick = _ties(dist, dmin).argmax(axis=-1)  # the corners go in lexicographic order
    return base + corners[pick].reshape(base.shape), dist[np.arange(len(dist)), pick].reshape(w.shape)


def _residue_points(lat: LatticeDescriptor):
    """Each residue of an A_OK table (`_coset_index`) as ring coordinates
    (a, b) and as the complex a + b*xi, with an axis for the rows; built
    once per lattice."""
    if lat._residue_points is None:
        # ResidueFieldMap: index i0 + i1*p stands for the ring element i0 + i1*xi
        b, a = np.divmod(_coset_index(lat)[0][..., None], lat.ideal.p)
        lat._residue_points = np.stack([a, b], axis=-1), a + b * lat.ideal.ring.xi_numeric
    return lat._residue_points


def _ideal_geometry(lat: LatticeDescriptor):
    """The reduced ideal basis of an A_OK lattice as integer rows of ring
    coordinates and as the columns of a real 2x2 matrix B, the matrix
    taking a row (re, im) to its coordinates in that basis (B's inverse,
    transposed) and the 4 corners of a Babai cell, the basis offsets 0 and
    1 sorted by ring coordinates; built once per lattice."""
    if lat._geometry is None:
        uv = _reduced_ideal_basis(lat.ideal)
        z = [x.to_complex() for x in uv]
        basis = np.array([[x.a, x.b] for x in uv])
        B = np.array([[c.real for c in z], [c.imag for c in z]])
        (b00, b01), (b10, b11) = B.tolist()
        det = b00 * b11 - b01 * b10
        to_basis = np.array([[b11 / det, -b10 / det], [-b01 / det, b00 / det]])
        corners = np.indices((2, 2)).reshape(2, 4).T @ basis
        lat._geometry = basis, B, to_basis, corners[np.lexsort(corners.T[::-1])]
    return lat._geometry


def _reduced_ideal_basis(ideal: PrimeIdeal):
    """A Lagrange-reduced basis (u, v) of the ideal: |2<u, v>| <= N(u) <=
    N(v).  The float loop stops when round(mu) is 0, or when a (u, v)
    comes back: for an exact mu of +-1/2 float error can round it to +-1
    both ways and flip the basis forever, and that cycle's bases are
    reduced."""
    u, v = ideal.basis()
    zu, zv = u.to_complex(), v.to_complex()
    seen = set()
    while True:
        if abs(zu) > abs(zv):
            u, v, zu, zv = v, u, zv, zu
        mu = round((zv * zu.conjugate()).real / abs(zu) ** 2)
        if mu == 0 or (u, v) in seen:
            return u, v
        seen.add((u, v))
        v = v - u * mu
        zv = v.to_complex()


def mod_coarse(pair: LatticePair, v):
    """Reduce v into the half-open fundamental cell of the coarse lattice.

    Over a real lattice a complex input reduces its two real parts
    independently (the simulator sends one real lattice point per part),
    each np.mod written into its view of one complex output.
    """
    if pair.fine.ambient == "complex":  # floor in the reduced ideal basis, as quantize's table does
        _, B, to_basis, _ = _ideal_geometry(pair.fine)
        x = np.asarray(v, dtype=complex)[..., None].view(np.float64) @ to_basis / pair.scale
        z = (x - np.floor(x)) @ B.T * pair.scale
        return z[..., 0] + 1j * z[..., 1]
    v = np.asarray(v)
    cell = pair.q * pair.scale
    if np.iscomplexobj(v):
        out = np.empty_like(v)
        np.mod(v.real, cell, out=out.real)
        np.mod(v.imag, cell, out=out.imag)
        return out[()]
    return np.mod(v.astype(float), cell)

