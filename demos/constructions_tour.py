"""
=============================
Tour of the five constructions
=============================

Build one lattice with each recipe, look at a few points, and poke at
membership, nearest-point quantization, and the coarse modulo map.

Run:  python3 demos/constructions_tour.py
"""

import numpy as np

from latcf import (
    ChainRing,
    LatticePair,
    LinearCode,
    NestedCodeChain,
    PrimeField,
    construction_a,
    construction_a_ok,
    construction_d,
    construction_pi_a,
    construction_pi_d,
    contains,
    enumerate_box,
    factor_rational_prime,
    make_quadratic_ring,
    mod_coarse,
    quantize,
)

###############################################################################
# Construction A: a binary repetition code, lifted to Z^2

rep2 = LinearCode(PrimeField(2), [[1, 1]])
lat_a = construction_a(rep2)
print("A over F_2, repetition code:", lat_a)
print("  points with coordinates in [-2, 2]:")
print(" ", sorted(enumerate_box(lat_a, (-2, 2))))
print("  (3,5) in?", contains(lat_a, [3, 5]), "   (1,0) in?", contains(lat_a, [1, 0]))

###############################################################################
# Construction D: two nested binary codes sharing a generator basis

chain = NestedCodeChain(2, [[1, 1], [0, 1]], [1, 2])
lat_d = construction_d(chain, 2)
print("\nD from a 2-level chain (dims 1 then 2), modulus", lat_d.q)
print("  a few points:", sorted(enumerate_box(lat_d, (0, 3))))

###############################################################################
# pi_A and pi_D: gluing levels with the Chinese remainder map

lat_pia = construction_pi_a(
    [LinearCode(PrimeField(2), [[1, 1]]), LinearCode(PrimeField(3), [[1, 1]])]
)
print("\npi_A with primes 2 and 3:", lat_pia)
print("  x is a point iff x1 == x2 (mod 6); check (7, 1):", contains(lat_pia, [7, 1]))

lat_pid = construction_pi_d(
    12, [LinearCode(ChainRing(2, 2), [[1, 3]]), LinearCode(PrimeField(3), [[1, 1]])]
)
print("pi_D with q = 12 = 4 * 3:", lat_pid, "moduli", lat_pid.moduli)

###############################################################################
# Construction A over a quadratic integer ring

ring = make_quadratic_ring(-15)
ideal = factor_rational_prime(ring, 17)[0]
code17 = LinearCode(PrimeField(17), [[1, 1]])
lat_ok = construction_a_ok(code17, ideal)
print("\nA over Z[(1+sqrt(-15))/2], prime ideal above 17:", lat_ok)
x = [ring.element(5, 2), ring.element(5, 2)]
print("  (6+sqrt(-15), 6+sqrt(-15)) in?", contains(lat_ok, x))

###############################################################################
# Quantization and the coarse cell

y = np.array([0.6, 3.4])
print("\nnearest pi_A point to", y, "is", quantize(lat_pia, y))

pair = LatticePair(lat_pia)  # coarse lattice = 6 Z^2
print("(7, -1) reduced into the coarse cell [0,6)^2:", mod_coarse(pair, np.array([7.0, -1.0])))
