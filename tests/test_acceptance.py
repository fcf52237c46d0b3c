"""Acceptance gate: ten end-to-end criteria, one per test, each printing
a single PASS/FAIL line (visible with -s, or in captured output).

Every check here recomputes its expected values from scratch — plain
modular arithmetic, closed forms, or direct Monte Carlo — rather than
trusting the library's own plumbing.
"""

import itertools
import math
import time

import numpy as np

from latcf import cli
from latcf.algebra import (
    ChainRing,
    CrtMap,
    PrimeField,
    ResidueFieldMap,
    factor_rational_prime,
    factorize,
    kronecker_at_prime,
    make_quadratic_ring,
)
from latcf.cfsim import (
    SimConfig,
    best_coefficients,
    make_pair,
    mmse_alpha,
    multistage_roundtrip,
    run_trials,
)
from latcf.codes import (
    LinearCode,
    NestedCodeChain,
    encode as encode_word,
    lift_chain_to_ring_code,
)
from latcf.lattices import (
    LatticePair,
    construction_a,
    construction_d,
    construction_pi_a,
    construction_pi_d,
    contains,
    enumerate_box,
)
from relay_functions import (
    SourceState,
    combined_message,
    decode_function,
    encode_source,
    function_coefficients,
    relay_process,
)
from structure_views import sigma_vec


def _report(num, label, ok, t0, budget, detail=""):
    elapsed = time.perf_counter() - t0
    extras = f"; {detail}" if detail else ""
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {label} ({elapsed:.2f}s{extras})"
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num:02d} over budget: {elapsed:.2f}s >= {budget}s"


def _rep(p, N=2):
    return LinearCode(PrimeField(p), [[1] * N])


# ---------------------------------------------------------------------------
# 1. closed-form rates through the CLI
# ---------------------------------------------------------------------------


def test_01_rate_closed_forms(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for P in (1, 3, 7, 15):
        assert cli.main(["rate", "--h", "1+0i", "--a", "1", "--power", str(P)]) == 0
        printed = float(capsys.readouterr().out)
        worst = max(worst, abs(printed - math.log2(1 + P)))
    assert cli.main(["rate", "--h", "1+0i,1+0i", "--a", "1,1", "--power", "1"]) == 0
    printed = float(capsys.readouterr().out)
    worst = max(worst, abs(printed - math.log2(1.5)))
    with capsys.disabled():
        _report(1, "closed-form rates via cmd_rate", worst <= 1e-9, t0, 1.0,
                f"max error {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. construction equivalences (point-set equality on boxes)
# ---------------------------------------------------------------------------


def _points(lat):
    q = lat.q
    return frozenset(enumerate_box(lat, (-q, q)))


def test_02_construction_equivalences():
    t0 = time.perf_counter()
    checked = 0

    # single level, e=1: pi_D collapses to construction A
    for code in [_rep(5), _rep(2, 3), LinearCode(PrimeField(3), [[1, 1, 2]])]:
        p = code.alphabet.p
        assert _points(construction_pi_d(p, [code])) == _points(construction_a(code))
        checked += 1

    # single level, e=2 with the lifted chain: pi_D realizes construction D
    chains = [
        NestedCodeChain(2, [[1, 1], [0, 1]], [1, 2]),
        NestedCodeChain(3, [[1, 2], [0, 1]], [1, 1]),
        NestedCodeChain(2, [[1, 1, 0], [0, 1, 1], [0, 0, 1]], [1, 3]),
    ]
    for chain in chains:
        lifted = lift_chain_to_ring_code(chain, 2)
        assert _points(construction_pi_d(chain.p**2, [lifted])) == _points(
            construction_d(chain, 2)
        )
        checked += 1

    # all levels e=1: pi_D collapses to pi_A
    multi = [
        [_rep(2), _rep(3)],
        [_rep(2), _rep(3), _rep(5)],
        [LinearCode(PrimeField(2), [[1, 1, 0]]), LinearCode(PrimeField(5), [[1, 2, 3]])],
    ]
    for codes in multi:
        q = math.prod(c.alphabet.p for c in codes)
        assert _points(construction_pi_d(q, codes)) == _points(construction_pi_a(codes))
        checked += 1

    _report(2, "construction equivalences on side-2q boxes", checked == 9, t0, 10.0,
            f"{checked} point-set identities")


# ---------------------------------------------------------------------------
# 3. membership vs brute-force enumeration
# ---------------------------------------------------------------------------


def _brute_level_words(rows, m, N):
    words = set()
    for w in itertools.product(range(m), repeat=len(rows)):
        words.add(tuple(sum(wi * r[j] for wi, r in zip(w, rows)) % m for j in range(N)))
    return words


def _brute_residue_set(level_rows, moduli, N):
    """All x in [0, q)^N whose reduction mod every m_l is a level-l codeword."""
    q = math.prod(moduli)
    level_words = [_brute_level_words(rows, m, N) for rows, m in zip(level_rows, moduli)]
    kept = set()
    for x in itertools.product(range(q), repeat=N):
        if all(tuple(c % m for c in x) in words for m, words in zip(moduli, level_words)):
            kept.add(x)
    return kept


def test_03_membership_oracle():
    t0 = time.perf_counter()
    cases = [
        (construction_a(_rep(29)), [[[1, 1]]], [29]),
        (construction_a(LinearCode(PrimeField(7), [[1, 3, 2]])), [[[1, 3, 2]]], [7]),
        (construction_pi_a([_rep(2), _rep(3), _rep(5)]), [[[1, 1]]] * 3, [2, 3, 5]),
        (
            construction_pi_d(
                12,
                [LinearCode(ChainRing(2, 2), [[1, 3]]), LinearCode(PrimeField(3), [[1, 1]])],
            ),
            [[[1, 3]], [[1, 1]]],
            [4, 3],
        ),
        (
            construction_pi_d(8, [LinearCode(ChainRing(2, 3), [[1, 5]])]),
            [[[1, 5]]],
            [8],
        ),
    ]
    vectors = 0
    for lat, level_rows, moduli in cases:
        q = lat.q
        residues = _brute_residue_set(level_rows, moduli, lat.N)
        for v in itertools.product(range(-q, q + 1), repeat=lat.N):
            expected = tuple(c % q for c in v) in residues
            assert contains(lat, v) == expected, (lat, v)
            vectors += 1
    _report(3, "membership equals brute-force tiling", vectors > 0, t0, 30.0,
            f"{vectors} vectors across {len(cases)} lattices")


# ---------------------------------------------------------------------------
# 4. CRT ring isomorphism, exhaustively for every q <= 1000
# ---------------------------------------------------------------------------


def test_04_crt_exhaustive():
    t0 = time.perf_counter()
    tested = 0
    for q in range(2, 1001):
        factors = factorize(q)
        if len(factors) > 3:
            continue
        crt = CrtMap([p**e for p, e in factors])
        m = np.array(crt.moduli, dtype=np.int64)
        x = np.arange(q, dtype=np.int64)
        S = np.stack(sigma_vec(crt, x), axis=1)

        # bijectivity: M hits every residue exactly once, and M(sigma(x)) == x
        grids = np.meshgrid(*[np.arange(mi, dtype=np.int64) for mi in m], indexing="ij")
        image = np.sort(crt.forward_vec([g.ravel() for g in grids]))
        assert np.array_equal(image, x), q
        assert np.array_equal(crt.forward_vec([S[:, l] for l in range(len(m))]), x), q

        # ring laws on every pair (a, b), computed in int32 (q^2 < 2^31 here,
        # and int32 % is the cheaper); the index tables are widened to intp
        # once, so the gathers need not convert them
        x32 = x.astype(np.int32)
        add_idx = ((x32[:, None] + x32[None, :]) % q).astype(np.intp)
        mul_idx = ((x32[:, None] * x32[None, :]) % q).astype(np.intp)
        for l, ml in enumerate(m.tolist()):
            col = S[:, l].astype(np.int32)
            assert np.array_equal(col[add_idx], (col[:, None] + col[None, :]) % ml), q
            assert np.array_equal(col[mul_idx], (col[:, None] * col[None, :]) % ml), q
        tested += 1
    _report(4, "CRT bijection + ring laws, exhaustive pairs", tested > 900, t0, 60.0,
            f"{tested} moduli")


# ---------------------------------------------------------------------------
# 5. quadratic-integer splitting and residue fields
# ---------------------------------------------------------------------------


def test_05_quadratic_integer_example():
    t0 = time.perf_counter()
    ring = make_quadratic_ring(-15)
    ideals = factor_rational_prime(ring, 17)
    assert [i.kind for i in ideals] == ["split", "split"]
    # 6 + sqrt(-15) = 5 + 2*xi for xi = (1 + sqrt(-15))/2
    gen = ring.element(5, 2)
    matches = [i for i in ideals if i.contains(gen)]
    assert len(matches) == 1
    ideal = matches[0]
    assert ideal.residue_size == 17

    cosets = {
        ideal.reduce(ring.element(a, b))
        for a in range(-17, 18)
        for b in range(-17, 18)
    }
    assert len(cosets) == 17

    rm = ResidueFieldMap(ideal)
    assert [rm.to_field(rm.to_ring(i)) for i in range(17)] == list(range(17))
    for i, j in itertools.product(range(17), repeat=2):
        xi, xj = rm.to_ring(i), rm.to_ring(j)
        assert rm.to_field(xi + xj) == rm.field.add(i, j)
        assert rm.to_field(xi * xj) == rm.field.mul(i, j)

    # splitting kind matches the quadratic-character oracle
    primes = [p for p in range(2, 100) if all(p % r for r in range(2, p))]
    pairs = 0
    for d in (-1, -2, -3, -7, -11, -15, -19):
        rng_d = make_quadratic_ring(d)
        for p in primes:
            sym = kronecker_at_prime(rng_d.discriminant, p)
            kind = factor_rational_prime(rng_d, p)[0].kind
            assert kind == {1: "split", -1: "inert", 0: "ramified"}[sym], (d, p)
            pairs += 1
    _report(5, "split prime, 17 cosets, field isomorphism, character oracle",
            pairs == 7 * len(primes), t0, 5.0, f"{pairs} (d, p) pairs")


# ---------------------------------------------------------------------------
# 6. noiseless end-to-end compute-and-forward
# ---------------------------------------------------------------------------


def _lattice_for_q(q):
    if q == 5:
        return construction_a(_rep(5))
    return construction_pi_a([_rep(2), _rep(3)])


def test_06_noiseless_end_to_end():
    t0 = time.perf_counter()
    good = 0
    for inst in range(100):
        rng = np.random.default_rng([61, inst])
        q = int(rng.choice([5, 6]))
        fine = _lattice_for_q(q)
        pair = LatticePair(fine)
        K = int(rng.integers(1, 4))
        while True:
            h_int = rng.integers(-3, 4, size=K)
            if np.any(h_int):
                break
        a = [int(v) for v in h_int]
        h = h_int.astype(complex)

        crt = fine.map
        sources, dithers, msgs = [], [], []
        for _ in range(K):
            per_part = []
            point_parts = []
            for _part in range(2):
                levels = [
                    tuple(int(rng.integers(code.alphabet.size)) for _ in range(code.n))
                    for code in fine.codes
                ]
                per_part.append(levels)
                words = [
                    np.array(encode_word(code, w), dtype=np.int64)
                    for code, w in zip(fine.codes, levels)
                ]
                point_parts.append(crt.forward_vec(words))
            t = point_parts[0] + 1j * point_parts[1]
            u = rng.uniform(0, q, size=fine.N) + 1j * rng.uniform(0, q, size=fine.N)
            sources.append(SourceState(message=per_part, t=t, u=u))
            dithers.append(u)
            msgs.append(per_part)

        X = np.stack([encode_source(s, pair) for s in sources])
        y = h @ X  # integer channel, zero noise
        relay = relay_process(y, a, dithers, h, 1.0, pair, alpha_mode="unit")
        assert relay.alpha == 1.0 + 0.0j
        decoded = decode_function(relay.y_prime, pair)
        assert decoded.ok

        b = function_coefficients(a, fine.moduli)
        match = all(
            decoded.functions[part][l]
            == combined_message(code, b[l], [msgs[k][part][l] for k in range(K)])
            for part in range(2)
            for l, code in enumerate(fine.codes)
        )
        good += int(match)
    _report(6, "noiseless decode equals the finite-field function", good == 100, t0,
            5.0, f"{good}/100 instances")


# ---------------------------------------------------------------------------
# 7. multistage equals single-stage
# ---------------------------------------------------------------------------


def test_07_multistage_equals_single_stage():
    t0 = time.perf_counter()
    fine = construction_pi_a([_rep(2), _rep(3)])
    pair = LatticePair(fine)
    crt = fine.map
    good = 0
    for inst in range(100):
        rng = np.random.default_rng([71, inst])
        K = int(rng.integers(1, 4))
        while True:
            a = [int(v) for v in rng.integers(-6, 7, size=K)]
            if any(a):
                break
        messages = [
            [(int(rng.integers(2)),), (int(rng.integers(3)),)] for _ in range(K)
        ]
        per_level = multistage_roundtrip(pair, messages, a)

        # single-stage: combine the mod-6 messages directly
        single = [0, 0]
        for ak, (w2, w3) in zip(a, messages):
            W = crt.forward((w2[0], w3[0]))
            for j in range(2):
                single[j] = (single[j] + ak * W) % 6
        # every coordinate of the repetition codeword carries the message
        reassembled = [crt.forward((per_level[0][0], per_level[1][0]))] * 2
        good += int(reassembled == single)
    _report(7, "per-level decoding reassembles to the mod-q function",
            good == 100, t0, 5.0, f"{good}/100 instances")


# ---------------------------------------------------------------------------
# 8. effective-noise calibration
# ---------------------------------------------------------------------------


def test_08_effective_noise_variance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    q = 6
    samples = 100_000
    worst = 0.0
    fine = construction_pi_a([_rep(2), _rep(3)])
    for _ in range(10):
        K = int(rng.integers(1, 4))
        P = float(10 ** rng.uniform(-0.5, 2.0))
        h = (rng.standard_normal(K) + 1j * rng.standard_normal(K)) / math.sqrt(2)
        a = np.array(best_coefficients(h, P).a, dtype=float)
        alpha = mmse_alpha(h, a, P)
        analytic = abs(alpha) ** 2 + P * float(np.sum(np.abs(alpha * h - a) ** 2))

        cell = q * math.sqrt(P / (q * q / 6.0))
        X = rng.uniform(0, cell, (K, samples)) + 1j * rng.uniform(0, cell, (K, samples))
        z = (rng.standard_normal(samples) + 1j * rng.standard_normal(samples)) / math.sqrt(2)
        z_eq = (alpha * h - a) @ X + alpha * z
        emp = float(np.var(z_eq))
        worst = max(worst, abs(emp - analytic) / analytic)

        reported = relay_process(
            np.zeros(2, dtype=complex), a, [np.zeros(2)] * K, h, P,
            make_pair(fine, P),
        ).noise_var_analytic
        assert abs(reported - analytic) <= 1e-9 * analytic
    _report(8, "empirical effective-noise variance matches the formula",
            worst <= 0.03, t0, 30.0, f"worst relative error {worst:.3%}")


# ---------------------------------------------------------------------------
# 9. failure rate falls with power
# ---------------------------------------------------------------------------


def test_09_failure_rate_monotone_in_power():
    t0 = time.perf_counter()
    fine = construction_pi_a([_rep(2), _rep(3)])
    # nearly integer channel row: the residual self-interference floor is
    # small, so the failure curve actually falls instead of saturating
    H = np.array([[1.02 + 0.05j, 0.98 - 0.05j]])
    trials = 10_000
    rates = []
    for P in (1.0, 4.0, 16.0, 64.0):
        config = SimConfig(pair=make_pair(fine, P), K=2, M=1, P=P, fixed_H=H)
        records = run_trials(config, trials, seed=90)
        rates.append(1.0 - sum(r.decode_ok for r in records) / len(records))
    ok = True
    for lo, hi in zip(rates[1:], rates[:-1]):
        slack = 2.0 * math.sqrt(lo * (1 - lo) / trials + hi * (1 - hi) / trials)
        ok = ok and lo <= hi + slack
    _report(9, "decode failure rate non-increasing in P", ok, t0, 120.0,
            "failure rates " + ", ".join(f"{r:.4f}" for r in rates))


# ---------------------------------------------------------------------------
# 10. what this package deliberately does not reproduce
# ---------------------------------------------------------------------------

OUT_OF_SCOPE = [
    "ensemble goodness (Poltyrev / MSE-quantization) of the constructions",
    "the 0.19 dB spatially-coupled decoding threshold",
    "the 0.5 dB gap-to-capacity of turbo-coded lattices",
    "polar-lattice achievability claims",
]


def test_10_desk_scale_scope():
    t0 = time.perf_counter()
    # asymptotic / large-block results: out of scope by design, covered
    # instead by the finite, exhaustive property checks above
    covered = [n for n in sorted(globals()) if n.startswith("test_0") and n != "test_10_desk_scale_scope"]
    for claim in OUT_OF_SCOPE:
        print(f"  not reproduced at desk scale: {claim}")
    print(f"  covered instead by: {', '.join(covered)}")
    _report(10, "asymptotic claims declared out of scope", len(covered) == 9, t0, 1.0,
            f"{len(OUT_OF_SCOPE)} claims delegated to criteria 1-9")
