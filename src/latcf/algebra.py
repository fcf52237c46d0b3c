"""Exact modular arithmetic: the chain rings Z/p^e (prime fields are the
e = 1 case), the fields F_{p^2}, CRT product rings, and quadratic integer
rings with prime-ideal residue fields.

All values are immutable after construction and safe to share between
threads.  Elements of the finite alphabets are plain Python ints in
``[0, size)``; quadratic integers are ``QuadInt`` coordinate pairs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Imaginary quadratic fields whose ring of integers is a PID.
_IMAGINARY_PID_D = frozenset({-1, -2, -3, -7, -11, -19, -43, -67, -163})


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_prime_power(m: int) -> tuple[int, int]:
    """Return (p, e) with m = p**e, or raise ValueError."""
    pairs = factorize(m) if m >= 2 else []
    if len(pairs) != 1:
        raise ValueError(f"{m} is not a prime power")
    return pairs[0]


def factorize(q: int) -> list[tuple[int, int]]:
    """Prime factorization of q >= 2 as ordered (p, e) pairs."""
    if q < 2:
        raise ValueError(f"cannot factor {q}; need q >= 2")
    out = []
    r = q
    p = 2
    while p * p <= r:
        if r % p == 0:
            e = 0
            while r % p == 0:
                r //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if r > 1:
        out.append((r, 1))
    return out


# ---------------------------------------------------------------------------
# Finite alphabets: the chain rings Z/p^e (PrimeField(p) is the e = 1 case
# under its own name) and the fields F_{p^2}.  Both share one duck
# interface: p, size, char, zero, one, add, sub, mul, neg, inv, is_unit,
# elements().  The codes module works on integer residues and calls only
# mul, for the F_{p^2} expansion.
# ---------------------------------------------------------------------------


class ChainRing:
    """The finite chain ring Z/p^e Z.

    Units are exactly the residues coprime to p; the zero divisors are the
    nonzero multiples of p.
    """

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("exponent must be >= 1")
        self.p = p
        self.e = e
        self.size = p**e
        self.char = self.size
        self.zero = 0
        self.one = 1 % self.size

    def add(self, a, b):
        return (a + b) % self.size

    def sub(self, a, b):
        return (a - b) % self.size

    def mul(self, a, b):
        return (a * b) % self.size

    def neg(self, a):
        return (-a) % self.size

    def inv(self, a):
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit mod {self.size}")
        return pow(a, -1, self.size)

    def is_unit(self, a):
        return a % self.p != 0

    def elements(self):
        return range(self.size)

    def __eq__(self, other):
        return isinstance(other, ChainRing) and (other.p, other.e) == (self.p, self.e)

    def __hash__(self):
        return hash(("ChainRing", self.p, self.e))

    def __repr__(self):
        return f"ChainRing({self.p}, {self.e})"


class PrimeField(ChainRing):
    """The field Z/pZ with elements 0..p-1: ChainRing(p, 1), and equal to it."""

    def __init__(self, p: int):
        super().__init__(p, 1)

    def __repr__(self):
        return f"PrimeField({self.p})"


class GaloisField:
    """F_{p^2}, with elements encoded as ints in [0, p^2).

    An element x = c0 + c1*p encodes the polynomial c0 + c1*t where t
    satisfies t^2 = lin*t + const, the reduction polynomial, irreducible
    mod p.  f must be 2: F_p is PrimeField(p).
    """

    def __init__(self, p: int, f: int = 1, reduction: tuple[int, int] | None = None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if f != 2:
            raise ValueError(f"GaloisField is F_{{p^2}} only; F_{p} is PrimeField({p})")
        if reduction is None:
            raise ValueError("degree-2 field needs a reduction polynomial")
        const, lin = reduction[0] % p, reduction[1] % p
        if p == 2:  # only t^2 + t + 1 has no root in F_2
            reducible = (const, lin) != (1, 1)
        else:  # Euler's criterion: a root exists iff lin^2 + 4*const is a square
            reducible = pow(lin * lin + 4 * const, (p - 1) // 2, p) != p - 1
        if reducible:
            raise ValueError("reduction polynomial is reducible mod p")
        self.p = p
        self.f = 2
        self.size = p * p
        self.char = p
        self.zero = 0
        self.one = 1
        self.reduction = (const, lin)

    def _split(self, a):
        return a % self.p, (a // self.p) % self.p

    def add(self, a, b):
        a0, a1 = self._split(a)
        b0, b1 = self._split(b)
        return (a0 + b0) % self.p + ((a1 + b1) % self.p) * self.p

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        a0, a1 = self._split(a)
        return (-a0) % self.p + ((-a1) % self.p) * self.p

    def mul(self, a, b):
        a0, a1 = self._split(a)
        b0, b1 = self._split(b)
        const, lin = self.reduction
        hi = a1 * b1
        c0 = (a0 * b0 + hi * const) % self.p
        c1 = (a0 * b1 + a1 * b0 + hi * lin) % self.p
        return c0 + c1 * self.p

    def inv(self, a):
        """a^(p^2 - 2), by square-and-multiply: the units have order p^2 - 1."""
        a %= self.size
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        out, k = self.one, self.size - 2
        while k:
            if k & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            k >>= 1
        return out

    def is_unit(self, a):
        return a % self.size != 0

    def elements(self):
        return range(self.size)

    def __eq__(self, other):
        return isinstance(other, GaloisField) and (other.p, other.reduction) == (self.p, self.reduction)

    def __hash__(self):
        return hash(("GaloisField", self.p, self.reduction))

    def __repr__(self):
        return f"GaloisField({self.p}, 2, reduction={self.reduction})"


# ---------------------------------------------------------------------------
# CRT product rings
# ---------------------------------------------------------------------------


class CrtMap:
    """Ring isomorphism between the product of Z/p_l^{e_l}Z and Z/qZ.

    ``forward`` reconstructs the unique residue mod q from a coordinate
    tuple (extended-Euclid idempotents, O(L) per element); ``sigma`` is the
    inverse composed with reduction mod q, i.e. componentwise reduction,
    defined on all of Z.
    """

    def __init__(self, moduli):
        moduli = tuple(map(int, moduli))
        if not moduli:
            raise ValueError("need at least one modulus")
        primes = [factor_prime_power(m)[0] for m in moduli]
        if len(set(primes)) != len(primes):
            raise ValueError(f"moduli {moduli} share a prime factor")
        self.moduli = moduli
        self.q = math.prod(moduli)
        self.levels = len(moduli)
        # idempotents: E_l = 1 mod m_l, = 0 mod every other modulus
        self._idem = tuple(
            (self.q // m) * pow(self.q // m, -1, m) % self.q if self.q > m else 1
            for m in moduli
        )

    def forward(self, coords) -> int:
        if len(coords) != self.levels:
            raise ValueError(f"expected {self.levels} coordinates, got {len(coords)}")
        return sum(c * e for c, e in zip(coords, self._idem)) % self.q

    def sigma(self, a: int) -> tuple[int, ...]:
        return tuple(a % m for m in self.moduli)

    def decompose(self, a: int) -> tuple[tuple[int, ...], int]:
        """Write a = forward(coords) + q*quotient exactly."""
        coords = self.sigma(a)
        rep = self.forward(coords)
        return coords, (a - rep) // self.q

    # vector helpers used by the lattice constructions (desk scale: the
    # idempotent sums stay far below int64 overflow)

    def forward_vec(self, coord_rows):
        import numpy as np

        rows = [np.asarray(r, dtype=np.int64) for r in coord_rows]
        out = np.zeros_like(rows[0])
        for r, e in zip(rows, self._idem):
            out = out + r * e
        return out % self.q

    def __repr__(self):
        return f"CrtMap(moduli={self.moduli})"


# ---------------------------------------------------------------------------
# Quadratic integer rings
# ---------------------------------------------------------------------------


def _squarefree(d: int) -> bool:
    n = abs(d)
    i = 2
    while i * i <= n:
        if n % (i * i) == 0:
            return False
        i += 1
    return True


@dataclass(frozen=True)
class QuadInt:
    """Element a + b*xi of a quadratic integer ring (exact coordinates)."""

    ring: "QuadraticRing" = field(repr=False)
    a: int
    b: int

    def __add__(self, other):
        other = self.ring.coerce(other)
        return QuadInt(self.ring, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadInt(self.ring, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self.ring.coerce(other))

    def __rsub__(self, other):
        return self.ring.coerce(other) - self

    def __mul__(self, other):
        other = self.ring.coerce(other)
        t, u = self.ring.xi_sq  # xi^2 = t*xi + u
        hi = self.b * other.b
        return QuadInt(
            self.ring,
            self.a * other.a + hi * u,
            self.a * other.b + self.b * other.a + hi * t,
        )

    __rmul__ = __mul__

    def conj(self):
        t, _ = self.ring.xi_sq  # xi + conj(xi) = t
        return QuadInt(self.ring, self.a + self.b * t, -self.b)

    def norm(self) -> int:
        c = self * self.conj()
        assert c.b == 0
        return c.a

    def to_complex(self) -> complex:
        return self.a + self.b * self.ring.xi_numeric

    def __eq__(self, other):
        if isinstance(other, int):
            return self.b == 0 and self.a == other
        return (
            isinstance(other, QuadInt)
            and other.ring.d == self.ring.d
            and (other.a, other.b) == (self.a, self.b)
        )

    def __hash__(self):
        return hash((self.ring.d, self.a, self.b))

    def __repr__(self):
        return f"({self.a}{self.b:+}*xi)"


class QuadraticRing:
    """Z[xi], the ring of integers of Q(sqrt(d)) for square-free d.

    xi is sqrt(d) when d = 2, 3 (mod 4) and (1 + sqrt(d))/2 when
    d = 1 (mod 4).  ``is_pid`` is True for the nine imaginary d where the
    ring is known principal, and None (not asserted) otherwise.
    """

    def __init__(self, d: int):
        if d in (0, 1):
            raise ValueError("d must differ from 0 and 1")
        if not _squarefree(d):
            raise ValueError(f"d={d} is not square-free")
        self.d = d
        self.xi_is_half = d % 4 == 1
        if self.xi_is_half:
            self.xi_kind = "(1+sqrt(d))/2"
            self.xi_sq = (1, (d - 1) // 4)  # xi^2 = xi + (d-1)/4
            self.discriminant = d
        else:
            self.xi_kind = "sqrt(d)"
            self.xi_sq = (0, d)  # xi^2 = d
            self.discriminant = 4 * d
        root = cmath.sqrt(d) if d < 0 else math.sqrt(d)
        self.xi_numeric = (1 + root) / 2 if self.xi_is_half else root
        self.is_pid = True if d in _IMAGINARY_PID_D else None

    def element(self, a: int, b: int = 0) -> QuadInt:
        return QuadInt(self, int(a), int(b))

    def coerce(self, x) -> QuadInt:
        if isinstance(x, QuadInt):
            if x.ring.d != self.d:
                raise ValueError("element from a different ring")
            return x
        if isinstance(x, int):
            return QuadInt(self, x, 0)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    @property
    def zero(self):
        return QuadInt(self, 0, 0)

    @property
    def one(self):
        return QuadInt(self, 1, 0)

    def __eq__(self, other):
        return isinstance(other, QuadraticRing) and other.d == self.d

    def __hash__(self):
        return hash(("QuadraticRing", self.d))

    def __repr__(self):
        return f"QuadraticRing(d={self.d})"


def make_quadratic_ring(d: int) -> QuadraticRing:
    return QuadraticRing(d)


def kronecker_at_prime(D: int, p: int) -> int:
    """Kronecker symbol (D/p) for prime p, the p=2 case split by D mod 8."""
    if p == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 in (1, 7) else -1
    r = D % p
    if r == 0:
        return 0
    return 1 if pow(r, (p - 1) // 2, p) == 1 else -1


@dataclass(frozen=True)
class PrimeIdeal:
    """Prime ideal above the rational prime p in a quadratic integer ring.

    For split and ramified primes the ideal is (p, xi - root) where root
    is a root of xi's minimal polynomial mod p; membership of a + b*xi is
    the linear condition a + b*root = 0 (mod p).  Inert primes give the
    principal ideal (p).
    """

    ring: QuadraticRing
    p: int
    kind: str  # "split" | "inert" | "ramified"
    f: int
    root: int | None

    @property
    def residue_size(self) -> int:
        return self.p**self.f

    @property
    def generators(self) -> tuple[QuadInt, ...]:
        if self.kind == "inert":
            return (self.ring.element(self.p),)
        return (self.ring.element(self.p), self.ring.element(-self.root, 1))

    def contains(self, x: QuadInt) -> bool:
        x = self.ring.coerce(x)
        if self.kind == "inert":
            return x.a % self.p == 0 and x.b % self.p == 0
        return (x.a + x.b * self.root) % self.p == 0

    def reduce(self, x: QuadInt) -> QuadInt:
        """Canonical coset representative of x mod the ideal."""
        x = self.ring.coerce(x)
        if self.kind == "inert":
            return self.ring.element(x.a % self.p, x.b % self.p)
        return self.ring.element((x.a + x.b * self.root) % self.p)

    def conjugate(self) -> "PrimeIdeal":
        if self.kind != "split":
            return self
        t, _ = self.ring.xi_sq  # the two roots sum to t mod p
        other = (t - self.root) % self.p
        return PrimeIdeal(self.ring, self.p, "split", 1, other)

    def basis(self) -> tuple[QuadInt, QuadInt]:
        """Z-basis of the ideal viewed as a rank-2 lattice."""
        if self.kind == "inert":
            return (self.ring.element(self.p), self.ring.element(0, self.p))
        return (self.ring.element(self.p), self.ring.element(-self.root, 1))

    def __repr__(self):
        if self.kind == "inert":
            return f"PrimeIdeal(({self.p}), d={self.ring.d}, inert)"
        return f"PrimeIdeal(({self.p}, xi-{self.root}), d={self.ring.d}, {self.kind})"


def factor_rational_prime(ring: QuadraticRing, p: int) -> tuple[PrimeIdeal, ...]:
    """Prime ideal(s) of the ring above p: one for inert/ramified, the
    conjugate pair (smallest root first) when p splits."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    symbol = kronecker_at_prime(ring.discriminant, p)
    if symbol == -1:
        return (PrimeIdeal(ring, p, "inert", 2, None),)
    t, u = ring.xi_sq
    roots = sorted(x for x in range(p) if (x * x - t * x - u) % p == 0)
    if symbol == 0:
        if len(roots) != 1:
            raise ArithmeticError(f"expected a double root mod {p}, got {roots}")
        return (PrimeIdeal(ring, p, "ramified", 1, roots[0]),)
    if len(roots) != 2:
        raise ArithmeticError(f"expected two roots mod {p}, got {roots}")
    first = PrimeIdeal(ring, p, "split", 1, roots[0])
    return (first, PrimeIdeal(ring, p, "split", 1, roots[1]))


class ResidueFieldMap:
    """The ring isomorphism F_{p^f} -> O_K / ideal and its inverse.

    Field elements are ints in [0, p^f); the representative of index
    i = i0 + i1*p is the ring element i0 + i1*xi (i1 = 0 when f = 1),
    the ideal's canonical coset representative (`PrimeIdeal.reduce`).
    """

    def __init__(self, ideal: PrimeIdeal):
        self.ideal = ideal
        p = ideal.p
        if ideal.f == 1:
            self.field = PrimeField(p)
        else:
            t, u = ideal.ring.xi_sq
            self.field = GaloisField(p, 2, reduction=(u % p, t % p))

    def to_ring(self, fe: int) -> QuadInt:
        b, a = divmod(fe % self.field.size, self.ideal.p)
        return self.ideal.ring.element(a, b)

    def to_field(self, x: QuadInt) -> int:
        r = self.ideal.reduce(x)
        return r.a + r.b * self.ideal.p

    def __repr__(self):
        return f"ResidueFieldMap({self.ideal!r})"
