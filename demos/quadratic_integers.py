"""
========================================
Quadratic integers and prime splitting
========================================

How a rational prime p behaves in Z[xi] for Q(sqrt(d)): it splits into
two conjugate ideals, stays inert, or ramifies — read off the quadratic
character of the discriminant.  The residue ring O_K / p is a field with
p or p^2 elements, and the package hands you that field and its maps.
"""

import itertools

from latcf import (
    ResidueFieldMap,
    factor_rational_prime,
    kronecker_at_prime,
    make_quadratic_ring,
)

ring = make_quadratic_ring(-15)
print("d = -15, xi = (1+sqrt(-15))/2, discriminant", ring.discriminant)

for p in (2, 3, 5, 7, 11, 13, 17):
    ideals = factor_rational_prime(ring, p)
    sym = kronecker_at_prime(ring.discriminant, p)
    names = ", ".join(repr(i) for i in ideals)
    print(f"  p={p:2d}  character {sym:+d}  ->  {ideals[0].kind:8s} {names}")

# the split prime 17: two conjugate ideals, each with 17 residue classes
p17 = factor_rational_prime(ring, 17)
gen = ring.element(5, 2)  # 5 + 2*xi == 6 + sqrt(-15)
print("\n6+sqrt(-15) lies in exactly one of the two ideals above 17:",
      [i.contains(gen) for i in p17])

rm = ResidueFieldMap(p17[0])
print("residue field size:", rm.field.size)
print("representatives of the 17 cosets:", [str(rm.to_ring(i)) for i in range(6)], "...")

# the map is a ring isomorphism; spot-check every pair
bad = 0
for i, j in itertools.product(range(17), repeat=2):
    xi, xj = rm.to_ring(i), rm.to_ring(j)
    bad += rm.to_field(xi + xj) != rm.field.add(i, j)
    bad += rm.to_field(xi * xj) != rm.field.mul(i, j)
print("isomorphism violations over all 17^2 pairs:", bad)

# an inert prime gives a degree-2 extension: O_K / 7 has 49 elements
rm7 = ResidueFieldMap(factor_rational_prime(ring, 7)[0])
print("\np=7 is", rm7.ideal.kind, "-> residue field GF(", rm7.field.size, ")")
two_xi = rm7.to_field(ring.element(0, 2))
print("the class of 2*xi is field element", two_xi,
      "and its square maps consistently:",
      rm7.field.mul(two_xi, two_xi) == rm7.to_field(ring.element(0, 2) * ring.element(0, 2)))
