"""The simulator's decode check against the verification it replaced, and
pinned `latcf simulate` output for Construction D and piD configs.

`function_decoded` decides a relay's decode_ok with one integer test per
real part: the quantized point mod q against sum_k a_k t_k mod q.  The
reference below is the earlier two-stage check, kept as the oracle:
`decode_function` reads each level's message off the quantized point,
then every level of that point is compared with the re-encoded combined
message.
"""

import hashlib
import json

import numpy as np
import pytest

from latcf import cli
from latcf.algebra import ChainRing, PrimeField
from latcf.codes import LinearCode, NestedCodeChain, codebook, encode
from latcf.lattices import (
    LatticePair,
    construction_a,
    construction_d,
    construction_pi_a,
    construction_pi_d,
    mod_coarse,
)
from relay_functions import combined_message, decode_function, function_coefficients, function_decoded

F2 = LinearCode(PrimeField(2), [[1, 0, 1, 1], [0, 1, 1, 0]])
F3 = LinearCode(PrimeField(3), [[1, 1, 1, 0], [0, 1, 2, 1]])
REP2 = LinearCode(PrimeField(2), [[1, 1, 0, 1]])
Z4 = LinearCode(ChainRing(2, 2), [[1, 1, 1, 1], [0, 2, 1, 3]])
CHAIN = NestedCodeChain(2, [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]], [1, 3])

LATTICES = {
    "A": construction_a(F2),
    "D": construction_d(CHAIN, 2),
    "piA": construction_pi_a([REP2, F3]),
    "piD": construction_pi_d(12, [Z4, F3]),
}


def reference_decoded(y_prime, pair, a, messages):
    """The two-stage check; messages[k][level][part] are message vectors."""
    fine = pair.fine
    decode = decode_function(y_prime, pair)
    if not decode.ok:
        return False
    b_levels = function_coefficients(a, fine.moduli)
    for part, pt in enumerate((decode.t_eq.real, decode.t_eq.imag)):
        coords = np.round(pt / pair.scale).astype(np.int64)
        for li, (code, m) in enumerate(zip(fine.codes, fine.moduli)):
            want = encode(
                code,
                combined_message(code, b_levels[li], [msg[li][part] for msg in messages]),
            )
            if tuple(int(x) % m for x in coords) != want:
                return False
    return True


def test_lifted_d_messages_are_not_unique():
    # the case that needs codewords, not messages, compared
    (code,) = LATTICES["D"].codes
    assert len(codebook(code)) < code.alphabet.size**code.n


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_point_check_matches_two_stage_reference(name):
    fine = LATTICES[name]
    pair = LatticePair(fine, scale=0.8)
    q, N = fine.q, fine.N
    rng = np.random.default_rng(sum(map(ord, name)))
    outcomes = []
    for sigma in (0.05, 0.25, 0.5, 1.0):
        for _ in range(40):
            K = int(rng.integers(1, 4))
            a = [int(x) for x in rng.integers(-3, 4, size=K)]
            if not any(a):
                a[0] = 1
            messages = [
                [
                    [tuple(int(x) for x in rng.integers(0, c.alphabet.size, size=c.n))
                     for _ in range(2)]
                    for c in fine.codes
                ]
                for _ in range(K)
            ]
            points = np.array([
                [
                    fine.map.forward_vec(
                        [encode(c, msg[li][part]) for li, c in enumerate(fine.codes)]
                    )
                    for part in range(2)
                ]
                for msg in messages
            ])
            total = sum(ak * pk for ak, pk in zip(a, points))
            shift = q * rng.integers(-2, 3, size=(2, N))
            noisy = total + shift + sigma * rng.standard_normal((2, N))
            y = mod_coarse(pair, (noisy[0] + 1j * noisy[1]) * pair.scale)
            want = reference_decoded(y, pair, a, messages)
            assert function_decoded(y, pair, a, points) == want
            outcomes.append(want)
    assert set(outcomes) == {True, False}


# sha256 of the CSV `latcf simulate` wrote for these configs before the
# decode check became one integer test per real part
D = {"kind": "D", "chain": {"prime": 2, "N": 4,
                            "basis": [1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1],
                            "dims": [1, 3]}}
PI_D = {"kind": "piD", "q": 12, "codes": [
    {"prime": 2, "power": 2, "N": 4, "n": 2, "rows": [1, 1, 1, 1, 0, 2, 1, 3]},
    {"prime": 3, "power": 1, "N": 4, "n": 2, "rows": [1, 1, 1, 0, 0, 1, 2, 1]},
]}
SIM = {"K": 2, "M": 2, "P": 64.0, "trials": 25, "seed": 5}
SIMS = {
    "random": SIM,
    "fixed": dict(SIM, fixed_H=[[[1.02, 0.1], [0.97, -0.2]], [[0.4, 0.3], [1.1, 0.0]]]),
    "noiseless": dict(SIM, fixed_H=[[[1, 0], [2, 0]], [[1, 0], [-1, 0]]],
                      noiseless=True, alpha_mode="unit"),
}
PINNED = {
    ("D", "random"): "03c4835e594c4102cea57bbfad5e7d5cd74fb3568a1cc97d9ca6afd35a2e14ba",
    ("D", "fixed"): "8ec6766570764c77954c8f660c58e4669e75bb8f070b4d0e02edc7aaeaea3920",
    ("D", "noiseless"): "0b7e3a30f740a633df070250c377fdc74e22b1de92dc028be3c878c2d9c4d044",
    ("piD", "random"): "f70687f216455c79e245a0cdcaee5f51e912972f4a85108ed6cff41aebc1e2eb",
    ("piD", "fixed"): "a8f7123ed17f1271f65ab2d65d5ef48b3e17e7750b58713d4f4e92657e6eaf74",
    ("piD", "noiseless"): "0b7e3a30f740a633df070250c377fdc74e22b1de92dc028be3c878c2d9c4d044",
}


@pytest.mark.parametrize("construction,sim", sorted(PINNED),
                         ids=["-".join(key) for key in sorted(PINNED)])
def test_simulate_csv_is_pinned(tmp_path, construction, sim):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "construction": {"D": D, "piD": PI_D}[construction],
        "simulation": SIMS[sim],
    }))
    out = tmp_path / "run.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED[construction, sim]
