"""Lattices built from linear codes, and a desk-scale compute-and-forward
simulator on top of them.

The pieces, bottom to top:

- `algebra`: the chain rings Z_{p^e} (a prime field is the e = 1 case,
  `PrimeField(p) == ChainRing(p, 1)`), the fields F_{p^2}, the CRT ring
  isomorphism, and quadratic integer rings with prime-ideal
  factorization and residue-field maps.
- `codes`: linear codes over those alphabets, nested chains of codes
  sharing a generator basis, and the lift of a chain to a chain-ring code.
- `lattices`: Construction pi_D, with A, D and pi_A as its special
  cases, and A over a quadratic integer ring (A_OK), plus membership,
  enumeration, nearest-point quantization, and the coarse modulo
  operation.
- `seeding`: each simulator trial's draws, those of numpy's
  default_rng([seed, t]), seeded for many trials in one vectorised pass
  and decoded from one raw call per trial.
- `cfsim`: the compute-and-forward rate formula, an exact coefficient
  search (Schnorr-Euchner enumeration of the ellipsoid of rate > 0), and a
  deterministic Monte Carlo relay simulator.
- `cli`: `latcf construct|member|rate|search|simulate`.
"""

from .algebra import (
    ChainRing,
    CrtMap,
    GaloisField,
    PrimeField,
    PrimeIdeal,
    QuadraticRing,
    ResidueFieldMap,
    factor_rational_prime,
    kronecker_at_prime,
    make_quadratic_ring,
)
from .cfsim import (
    BestCoefficients,
    SimConfig,
    TrialRecord,
    best_coefficients,
    computation_rate,
    make_pair,
    mmse_alpha,
    multistage_roundtrip,
    run_trials,
)
from .codes import (
    LinearCode,
    NestedCodeChain,
    contains_codeword,
    encode,
    lift_chain_to_ring_code,
)
from .lattices import (
    LatticeDescriptor,
    LatticePair,
    construction_a,
    construction_a_ok,
    construction_d,
    construction_pi_a,
    construction_pi_d,
    contains,
    enumerate_box,
    mod_coarse,
    quantize,
)

__version__ = "0.1.0"

__all__ = [
    "BestCoefficients",
    "ChainRing",
    "CrtMap",
    "GaloisField",
    "LatticeDescriptor",
    "LatticePair",
    "LinearCode",
    "NestedCodeChain",
    "PrimeField",
    "PrimeIdeal",
    "QuadraticRing",
    "ResidueFieldMap",
    "SimConfig",
    "TrialRecord",
    "best_coefficients",
    "computation_rate",
    "construction_a",
    "construction_a_ok",
    "construction_d",
    "construction_pi_a",
    "construction_pi_d",
    "contains",
    "contains_codeword",
    "encode",
    "enumerate_box",
    "factor_rational_prime",
    "kronecker_at_prime",
    "lift_chain_to_ring_code",
    "make_pair",
    "make_quadratic_ring",
    "mmse_alpha",
    "mod_coarse",
    "multistage_roundtrip",
    "quantize",
    "run_trials",
]
