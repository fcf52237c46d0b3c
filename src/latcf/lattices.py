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
shares its path too: one table per (coordinate, residue), the nearest
point of r + q Z or of rep(r) + P, then each coset's sum of its entries in
coordinate order, each residue prefix the cosets share summed once
(`_coset_trie`) and the other coordinates gathered in cache-sized blocks
of cosets (`quantize`).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .algebra import ChainRing, CrtMap, PrimeIdeal, ResidueFieldMap, factorize
from .codes import LinearCode, NestedCodeChain, _codewords, _dtype, _kernel, lift_chain_to_ring_code

_BOX_CAP = 10**6
_COSET_CAP = 10**6
# elements one batch holds: a quantize pass, the table entries a block of
# its cosets gathers, or an enumerate_box block
_PASS_ELEMENTS = 1 << 17


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
        self._trie = None
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
    if L < 1:
        raise ValueError("need at least one level")
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


def _level_books(lat: LatticeDescriptor):
    """Each level code's codewords (int64 rows) and alphabet size, and the
    coset count, the product of the codebook sizes."""
    books = [_codewords(c)[0] for c in lat.codes]
    total = math.prod(len(b) for b in books)
    if total > _COSET_CAP:
        raise ValueError(f"{total} cosets exceed the enumeration cap")
    return books, [c.alphabet.size for c in lat.codes], total


def _coset_reps(lat: LatticeDescriptor):
    """One row per codebook coset, in itertools.product order over the
    levels: CRT residues in [0, q)^N (real) or residue-field indices (A_OK).
    quantize reads them only for a table of coset residues, when the
    residues outnumber the cosets (`_coset_index`)."""
    if lat._cosets is None:
        books, _, total = _level_books(lat)
        if lat.ambient == "complex":
            lat._cosets = books[0]
        else:  # level l's codewords along axis l: forward_vec broadcasts the product
            L = len(books)
            axes = [b.reshape((1,) * l + b.shape[:1] + (1,) * (L - 1 - l) + b.shape[1:])
                    for l, b in enumerate(books)]
            lat._cosets = lat.map.forward_vec(axes).reshape(total, lat.N)
    return lat._cosets


def _coset_index(lat: LatticeDescriptor):
    """The residues quantize tabulates per call and, per coordinate j and
    coset i, the flat position of coset i's residue at j in that N x width
    table; built once per lattice.  When the residues, q of them (p^f for
    A_OK), are no more than the cosets, every coordinate tabulates all of
    them in the mixed-radix order of their level residues (level l's digit
    in Z/m_l, the first slowest), so coset i's position at j is j*q plus
    that number for its codewords' entries at j, and the coset table is
    never built.  Else each coordinate tabulates its coset residues
    (`_coset_reps`), so the table never outgrows the cosets x N work it
    saves."""
    if lat._index is None:
        books, sizes, total = _level_books(lat)
        count, N = math.prod(sizes), lat.N
        if count > total:
            residues = np.ascontiguousarray(_coset_reps(lat).T)
            index = np.arange(total) + total * np.arange(N)[:, None]
        else:
            # field indices, or the CRT value of every digit tuple
            residues = (np.arange(count) if lat.ambient == "complex"
                        else np.indices(sizes).reshape(len(sizes), count).T @ lat.map._idem % count)[None, :]
            # the first digit plus j*m_0, which the later digits scale to j*q
            index = books[0].T + sizes[0] * np.arange(N)[:, None]
            for b, m in zip(books[1:], sizes[1:]):  # the cosets in itertools.product order
                index = np.add((index * m)[:, :, None], b.T[:, None, :], order="C").reshape(N, -1)
        lat._index = residues, index.astype(np.intp, order="C", copy=False)
    return lat._index


def _coset_trie(lat: LatticeDescriptor):
    """The levels s quantize sums as residue prefixes, and each coset's
    prefix id, built once per lattice from the index (`_coset_index`).
    Level j holds every prefix of table columns over coordinates 0..j,
    width^(j+1) of them, its id the mixed-radix number of its columns: so a
    prefix's parent is its id // width and its last column its id % width,
    and the cosets sharing a prefix share its partial sum.  Level 0 is the
    first coordinate's table itself; level j >= 1 is kept while it holds
    at most half the cosets, as it costs an add per prefix and saves a
    take and an add per coset.  On a table of coset residues, or when the
    pairs of residues outnumber half the cosets, s = 1 and the ids are the
    first coordinate's positions: the plain gather."""
    if lat._trie is None:
        residues, index = _coset_index(lat)
        (N, total), width = index.shape, residues.shape[1]
        levels, ids = 1, index[0]
        while levels < N and 2 * width ** (levels + 1) <= total:
            ids = ids * width + (index[levels] - levels * width)
            levels += 1
        lat._trie = levels, ids
    return lat._trie


def quantize(lat: LatticeDescriptor, y):
    """A nearest lattice point to y, or to each row of y.

    y is one vector of length N or an array of rows (R, N), R >= 0.  A
    real lattice gives an int64 array of y's shape; A_OK gives a tuple of
    QuadInt, or a list of them, one per row.  The lattice is a union of
    cosets rep + Lambda_c^N, so the nearest point of a coset splits into one
    nearest point per coordinate, which depends only on that coordinate's
    residue.  One table per row holds, for each (coordinate, residue), that
    point and its squared distance (rounding over q Z, the best of the 4
    corners of a Babai floor's cell in a Lagrange-reduced basis over an
    ideal); each coset's distance is then its entries summed in coordinate
    order, through an index and a prefix trie built once per lattice: each
    residue prefix of the leading coordinates once, shared by the cosets
    that start with it, then the other coordinates in cache-sized blocks
    of cosets that each pick their rows' least coset, a later block
    winning only on a strictly smaller distance: the same bits and first
    least coset as one gather-sum and argmin over all cosets.  One tie
    rule, per coordinate and across cosets: squared distances within
    1e-9*max(1, dmin) of the row's minimum tie, and the
    lexicographically smallest integer coordinates win (ring
    coordinates (a, b) for A_OK; real coordinate ties round down).  The
    rows go in passes of rows_per_pass(lat), so memory stays bounded
    whatever the row count, and every row of a pass is scored at once;
    only a row with several tied cosets picks its winner in Python.
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
    best = _quantize_rows(lat, flat[:step])
    if len(flat) > step:
        best = np.concatenate([best] + [_quantize_rows(lat, flat[i:i + step])
                                        for i in range(step, len(flat), step)])
    if complex_ambient:
        element = lat.ideal.ring.element
        rows = [tuple(element(a, b) for a, b in row) for row in best.tolist()]
        return rows[0] if y.ndim == 1 else rows
    return best.reshape(y.shape)


def rows_per_pass(lat: LatticeDescriptor) -> int:
    """Rows quantize scores in one pass (one at least): a row takes a distance
    per coset and an N x width table, 4 Babai candidates per A_OK entry.
    The trie's prefix sums (`_coset_trie`), at most three quarters of the
    cosets alive at once, ride on top of that count."""
    residues, index = _coset_index(lat)
    candidates = len(_ideal_geometry(lat)[3]) if lat.ambient == "complex" else 1
    return max(1, _PASS_ELEMENTS // (index.shape[1] + lat.N * residues.shape[1] * candidates))


def _quantize_rows(lat: LatticeDescriptor, y):
    """The nearest point to each row of y (R x N): int64 R x N, or R x N x 2
    ring coordinates for A_OK.  The rows ride along the last axis of the
    tables, so each coset's gather takes one contiguous run of R entries;
    the distances take cosets x R entries."""
    residues, index = _coset_index(lat)
    columns = y.T[:, None]  # N x 1 x R
    points, d2 = (_table_mod_ideal(lat, columns) if lat.ambient == "complex"
                  else _table_mod_q(lat, residues[..., None], columns))  # N x width x R
    rows = np.arange(len(y))
    dist, pick, dmin = _gather_sum(d2, index, _coset_trie(lat), rows)  # cosets x R, R, R
    tied = dist <= dmin + 1e-9 * np.maximum(1.0, dmin)
    # x, or (a, b), per table entry and row; R may be 0
    points = points.reshape(points.shape[0] * points.shape[1], *points.shape[2:])
    best = points[index[:, pick], rows]  # N x R, each row's least distance
    if np.count_nonzero(tied) > len(y):  # rows with several tied cosets
        for r in np.flatnonzero(np.count_nonzero(tied, axis=0) > 1).tolist():
            # lexicographic integer coordinates
            best[:, r] = min(points[index[:, i], r].tolist() for i in np.flatnonzero(tied[:, r]))
    return best.swapaxes(0, 1)


def _gather_sum(table, index, trie, rows):
    """Each coset's squared distance per row (cosets x R), and each row's
    first least coset and its distance (R each), for a table N x width x R,
    the lattice's `_coset_trie` and rows = arange(R).  A coset's distance
    is its residues' table entries summed over the coordinates in order
    (numpy's sum(axis=0) over the gathered N x cosets array would go
    pairwise for N >= 8).  The trie's s levels sum each prefix of
    coordinates 0..s-1 once, its parent's sum plus its last entry,
    broadcast over the table's row for coordinate j, and every coset takes
    its prefix's sum: those sums are fewer than the cosets, and one level
    is the plain first gather.  Coordinates s..N-1 go in cache-sized
    blocks of cosets, at most _PASS_ELEMENTS entries (N - s + 1 per coset
    and row: its prefix's sum and its other coordinates'), and each block
    takes its rows' first least coset while it is still in cache.  A later
    block replaces a row's pick only with a strictly smaller distance:
    argmin's first-index rule over all cosets.  The operands and their
    order are those of the coordinate-order fold, so every distance keeps
    its bits."""
    (N, total), (width, R) = index.shape, table.shape[1:]
    levels, ids = trie
    sums = table[0]
    for j in range(1, levels):
        sums = (sums[:, None] + table[j]).reshape(width ** (j + 1), R)
    dist = sums.take(ids, axis=0)
    table = table.reshape(N * width, R)
    block = _PASS_ELEMENTS // ((N - levels + 1) * R or 1) or 1  # one coset at the least
    for start in range(0, total, block):
        part = dist[start:start + block]
        for at in index[levels:, start:start + block]:
            part += table.take(at, axis=0)
        least = part.argmin(axis=0)
        d = part[least, rows]
        if start:
            less = d < dmin
            pick[less], dmin[less] = least[less] + start, d[less]
        else:
            pick, dmin = least, d
    return dist, pick, dmin


def _table_mod_q(lat: LatticeDescriptor, residues, y):
    """Nearest point of r + q Z to y_j and its squared distance, for each
    coordinate j (y is N x 1, or N x 1 x R with residues[..., None]) and
    residue r in that row of residues."""
    steps = np.ceil((y - residues) / lat.q - 0.5)
    points = residues + lat.q * steps.astype(np.int64)
    return points, (points - y) ** 2


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
    pick = (dist <= dmin + 1e-9 * np.maximum(1.0, dmin)).argmax(axis=-1)
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
    coordinates and as a real 2x2 matrix B (`_ideal_basis`), the matrix
    taking a row (re, im) to its coordinates in that basis (B's inverse,
    transposed) and the 4 corners of a Babai cell, the basis offsets 0 and
    1 sorted by ring coordinates; built once per lattice."""
    if lat._geometry is None:
        basis, B = _ideal_basis(lat.ideal)
        (b00, b01), (b10, b11) = B.tolist()
        det = b00 * b11 - b01 * b10
        to_basis = np.array([[b11 / det, -b10 / det], [-b01 / det, b00 / det]])
        corners = np.indices((2, 2)).reshape(2, 4).T @ basis
        lat._geometry = basis, B, to_basis, corners[np.lexsort(corners.T[::-1])]
    return lat._geometry


def _ideal_basis(ideal: PrimeIdeal):
    """The reduced ideal basis as integer rows of ring coordinates and as
    the columns of a real 2x2 matrix."""
    uv = _reduced_ideal_basis(ideal)
    z = [x.to_complex() for x in uv]
    return np.array([[x.a, x.b] for x in uv]), np.array([[c.real for c in z], [c.imag for c in z]])


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

