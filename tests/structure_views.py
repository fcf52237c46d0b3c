"""Views of the algebra, code and lattice objects that only the tests use:
the zero divisors of Z/p^e, the minimal polynomial of xi, the CRT
residues of an integer vector, one level of a nested code chain and the
coarse lattice of a nested pair."""

import numpy as np

from latcf.algebra import ChainRing, CrtMap, PrimeField, QuadraticRing
from latcf.codes import LinearCode, NestedCodeChain
from latcf.lattices import LatticeDescriptor, LatticePair


def is_zero_divisor(ring: ChainRing, a) -> bool:
    """Whether a is a zero divisor of Z/p^e: a nonzero multiple of p."""
    a = a % ring.size
    return a != 0 and a % ring.p == 0


def minimal_polynomial(ring: QuadraticRing) -> tuple[int, int, int]:
    """Coefficients (c, b, a) of a*x^2 + b*x + c satisfied by xi."""
    t, u = ring.xi_sq
    return (-u, -t, 1)


def sigma_vec(crt: CrtMap, v):
    """The residues of the integer vector v mod each modulus, one int64
    array per level: the inverse of forward_vec composed with reduction."""
    v = np.asarray(v, dtype=np.int64)
    return [v % m for m in crt.moduli]


def level_code(chain: NestedCodeChain, level: int) -> LinearCode:
    """The code C^level of a nested chain, levels counted from 1."""
    if not 1 <= level <= chain.levels:
        raise ValueError(f"level {level} out of 1..{chain.levels}")
    return LinearCode(PrimeField(chain.p), chain.basis[: chain.dims[level - 1]], N=chain.N)


def coarse(pair: LatticePair) -> LatticeDescriptor:
    """The coarse lattice of a nested pair: the fine lattice's levels with
    zero codes, q Z^N or the N-fold ideal."""
    zero_codes = [LinearCode(c.alphabet, [], N=pair.fine.N) for c in pair.fine.codes]
    return LatticeDescriptor(pair.fine.kind, pair.fine.N, zero_codes, ideal=pair.fine.ideal)
