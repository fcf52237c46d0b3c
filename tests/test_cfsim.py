import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from latcf import cfsim
from latcf.algebra import CrtMap, PrimeField, factor_rational_prime, make_quadratic_ring
from latcf.cfsim import (
    SimConfig,
    SourceState,
    best_coefficients,
    computation_rate,
    decode_function,
    encode_source,
    make_pair,
    mmse_alpha,
    multistage_roundtrip,
    relay_process,
    run_trials,
)
from latcf.codes import LinearCode, encode
from latcf.lattices import (
    LatticePair,
    construction_a,
    construction_a_ok,
    construction_pi_a,
    mod_coarse,
)
from relay_functions import function_decoded

REP2 = LinearCode(PrimeField(2), [[1, 1]])
REP3 = LinearCode(PrimeField(3), [[1, 1]])
FULL2 = LinearCode(PrimeField(2), [[1, 0], [0, 1]])
FULL3 = LinearCode(PrimeField(3), [[1, 0], [0, 1]])


def _rep6_pair(scale=1.0):
    return LatticePair(construction_pi_a([REP2, REP3]), scale=scale)


def _full6_pair(scale=1.0):
    return LatticePair(construction_pi_a([FULL2, FULL3]), scale=scale)


# -------------------- computation rate --------------------


def test_rate_frozen_values():
    assert computation_rate([1.0], [1], 3.0) == pytest.approx(2.0, abs=1e-12)
    assert computation_rate([1.0, 1.0], [1, 1], 1.0) == pytest.approx(
        math.log2(1.5), abs=1e-12
    )


def test_rate_single_user_closed_form():
    for P in (1.0, 3.0, 7.0, 15.0):
        assert computation_rate([1.0], [1], P) == pytest.approx(
            math.log2(1 + P), abs=1e-9
        )


def test_rate_clamp_and_sentinel():
    # unit-norm a orthogonal to h sits exactly at the clamp boundary
    assert computation_rate([1.0, 0.0], [0, 1], 5.0) == 0.0
    # numerically proportional a and h drive the inner term to zero
    assert computation_rate([1e5], [1], 1e30) == math.inf


def test_rate_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        computation_rate([1.0], [0], 1.0)
    with pytest.raises(ValueError):
        computation_rate([1.0], [1], 0.0)
    with pytest.raises(ValueError):
        computation_rate([1.0, 1.0], [1], 1.0)


def test_non_finite_h_or_power_names_the_cause():
    # computation_rate returned 0.0, and mmse_alpha nan, for these
    cases = (([1.0, math.nan], 16.0), ([1.0, math.inf], 16.0), ([1.0 + 1j * math.nan], 2.0),
             ([1.0], math.nan), ([1.0], math.inf))
    for h, P in cases:
        a = [1] * len(h)
        for fn in (computation_rate, mmse_alpha):
            with pytest.raises(ValueError, match="h and P must be finite"):
                fn(h, a, P)
        with pytest.raises(ValueError, match="h and P must be finite"):
            best_coefficients(h, P)
    # finite h and P whose 1 + P|h|^2 overflows: the overflow is the cause
    overflow = r"^1 \+ P\|h\|\^2 overflows; lower P or \|h\|$"
    for h, P in (([2.0], 1e308), ([1e200, 1.0], 1.0)):
        a = [1] * len(h)
        for fn in (computation_rate, mmse_alpha):
            with pytest.raises(ValueError, match=overflow):
                fn(h, a, P)
        with pytest.raises(ValueError, match=overflow):
            best_coefficients(h, P)


def test_rate_accepts_ring_coefficients():
    ring = make_quadratic_ring(-1)
    a = (ring.element(0, 1),)  # the unit i
    got = computation_rate([1j], a, 3.0)
    assert got == pytest.approx(2.0, abs=1e-12)


# -------------------- coefficient search --------------------


def test_search_scalar_picks_plus_one():
    for P in (0.5, 2.0, 50.0):
        res = best_coefficients([1.0], P)
        assert res.a == (1,)
        assert not res.truncated


def test_search_prefers_matched_pair():
    res = best_coefficients([1.0, 1.0], 10.0)
    assert res.a == (1, 1)
    assert res.rate > computation_rate([1.0, 1.0], [1, 0], 10.0)


def test_search_dominates_rounding():
    rng = random.Random(30)
    for _ in range(25):
        K = rng.randrange(1, 4)
        h = np.array(
            [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(K)]
        )
        P = rng.uniform(0.5, 20)
        res = best_coefficients(h, P)
        guess = np.round(h.real).astype(int)
        if guess.any():
            assert res.rate >= computation_rate(h, guess, P) - 1e-12


def test_search_is_exhaustive():
    rng = random.Random(31)
    for _ in range(5):
        h = np.array([complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2)])
        P = rng.uniform(0.5, 8)
        res = best_coefficients(h, P)
        bound = 1 + P * float(np.vdot(h, h).real)
        B = int(math.floor(math.sqrt(bound)))
        for cand in itertools.product(range(-B, B + 1), repeat=2):
            if any(cand) and sum(c * c for c in cand) <= bound:
                assert res.rate >= computation_rate(h, cand, P) - 1e-12


def test_search_truncation_flag():
    res = best_coefficients([1.0, 1.0], 1000.0, max_norm_cap=9.0)
    assert res.truncated
    assert all(abs(x) <= 3 for x in res.a)
    full = best_coefficients([1.0, 1.0], 1000.0)
    assert full.rate >= res.rate


def test_search_gaussian_and_quadratic_rings():
    # Z[i] is QuadraticRing(-1); the string "Zi" is no ring
    with pytest.raises(ValueError, match="unsupported coefficient ring 'Zi'"):
        best_coefficients([1j], 3.0, ring="Zi")
    ring = make_quadratic_ring(-1)
    res_ok = best_coefficients([1j], 3.0, ring=ring)
    assert res_ok.rate == pytest.approx(2.0, abs=1e-9)
    assert res_ok.a[0].norm() == 1
    with pytest.raises(ValueError):
        best_coefficients([1.0], 1.0, ring=make_quadratic_ring(2))
    with pytest.raises(ValueError):
        best_coefficients([0.0], 1.0)


# -------------------- encoder / relay --------------------


def test_encode_source_examples():
    pair = _full6_pair()
    t = np.array([5.0, 1.0])
    x = encode_source(SourceState(None, t, np.array([2.0, 3.0])), pair)
    assert np.allclose(x, [3.0, 4.0])
    x0 = encode_source(SourceState(None, t, t), pair)
    assert np.allclose(x0, [0.0, 0.0])
    x1 = encode_source(SourceState(None, t, np.zeros(2)), pair)
    assert np.allclose(x1, t)


def test_encode_source_rejects_non_lattice_point():
    pair = _rep6_pair()
    with pytest.raises(ValueError):
        encode_source(SourceState(None, np.array([1.0, 2.0]), np.zeros(2)), pair)
    with pytest.raises(ValueError):
        encode_source(SourceState(None, np.array([0.5, 0.5]), np.zeros(2)), pair)


def test_mmse_alpha_limit_and_optimality():
    assert mmse_alpha([1.0], [1], 1e9) == pytest.approx(1.0, abs=1e-6)
    rng = random.Random(32)
    for _ in range(1000):
        K = rng.randrange(1, 4)
        h = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(K)])
        a = [rng.randrange(-3, 4) for _ in range(K)]
        if not any(a):
            a[0] = 1
        P = rng.uniform(0.1, 30)
        alpha = mmse_alpha(h, a, P)
        var_mmse = abs(alpha) ** 2 + P * float(
            np.sum(np.abs(alpha * h - np.array(a)) ** 2)
        )
        var_unit = 1.0 + P * float(np.sum(np.abs(h - np.array(a)) ** 2))
        assert var_mmse <= var_unit + 1e-9


def test_dithers_cancel_bit_exactly():
    # integer dithers, alpha=1, h=a: the relay input collapses to t_eq
    rng = random.Random(33)
    pair = _rep6_pair()
    for _ in range(1000):
        K = rng.randrange(1, 4)
        a = [rng.randrange(-3, 4) for _ in range(K)]
        if not any(a):
            a[0] = 1
        ts, us, xs = [], [], []
        for _ in range(K):
            base = rng.randrange(6)
            t = np.array([base, base], dtype=float) + 6 * np.array(
                [rng.randrange(-3, 4), rng.randrange(-3, 4)], dtype=float
            )
            u = np.array([rng.randrange(6), rng.randrange(6)], dtype=float)
            ts.append(t)
            us.append(u)
            xs.append(encode_source(SourceState(None, t, u), pair))
        y = sum(ak * xk for ak, xk in zip(a, xs))
        out = relay_process(y, a, us, np.array(a, dtype=float), 4.0, pair, alpha_mode="unit")
        t_eq = mod_coarse(pair, sum(ak * tk for ak, tk in zip(a, ts)))
        assert np.array_equal(out.y_prime, t_eq)


def test_relay_process_reports_variance():
    pair = _rep6_pair()
    h = np.array([1.2 + 0.3j, -0.7 + 1.1j])
    a = [1, -1]
    P = 5.0
    out = relay_process(np.zeros(2, dtype=complex), a, [np.zeros(2)] * 2, h, P, pair)
    alpha = mmse_alpha(h, a, P)
    want = abs(alpha) ** 2 + P * float(np.sum(np.abs(alpha * h - np.array(a)) ** 2))
    assert out.noise_var_analytic == pytest.approx(want, rel=1e-12)
    assert out.alpha == pytest.approx(alpha)


def test_relay_process_checks_lengths():
    pair = _rep6_pair()
    h, y = np.array([1.2 + 0.3j, -0.7 + 1.1j]), np.zeros(2, dtype=complex)
    for a, dithers, mode in (((1, -1), [np.zeros(2)] * 3, "mmse"),
                             ((1,), [np.zeros(2)] * 2, "unit"),
                             ((1, -1), [np.zeros(2)], "unit")):
        with pytest.raises(ValueError, match="a, h and dithers have lengths"):
            relay_process(y, a, dithers, h, 5.0, pair, alpha_mode=mode)


def test_relay_process_refuses_an_unknown_alpha_mode():
    pair = _rep6_pair()
    h, y = np.array([1.2 + 0.3j, -0.7 + 1.1j]), np.zeros(2, dtype=complex)
    with pytest.raises(ValueError, match="^unknown alpha_mode 'zf'$"):
        relay_process(y, (1, -1), [np.zeros(2)] * 2, h, 5.0, pair, alpha_mode="zf")


def test_make_pair_refuses_non_positive_or_non_finite_power():
    fine = construction_pi_a([REP2, REP3])
    for P in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="P must be positive"):
            make_pair(fine, P)
    assert make_pair(fine, 6.0).scale == pytest.approx(1.0)  # q^2/6 = P


def test_a_refused_power_is_named():
    with pytest.raises(ValueError, match="^P must be positive and finite, got nan$"):
        make_pair(construction_pi_a([REP2, REP3]), math.nan)
    with pytest.raises(ValueError, match="^P must be positive and finite, got inf$"):
        run_trials(SimConfig(pair=_rep6_pair(), K=2, M=1, P=math.inf), 3, seed=1)


def test_a_nan_max_norm_cap_is_refused_before_any_row():
    # nan > bound is false, so a NaN cap would drop silently
    for h in ([1.0, 0.5], [0.0, 0.0]):
        with pytest.raises(ValueError, match="^max_norm_cap must not be NaN$"):
            best_coefficients(h, 8.0, max_norm_cap=math.nan)
    assert best_coefficients([1.0, 0.5], 8.0, max_norm_cap=math.inf).truncated is False


# make_pair, run_trials and the per-relay protocol's one refusal of the
# A_OK lattice over PrimeIdeal((7, xi-3), d=-3, split) that these tests build
A_OK_REFUSAL = r"^a real-ambient lattice is needed, got A_OK over PrimeIdeal\(\(7, xi-3\), d=-3, split\)$"


def test_make_pair_names_a_complex_ambient_lattice_as_the_cause():
    # an A_OK lattice tiles by a prime ideal, which has no q^2/6 power scale
    ideal = factor_rational_prime(make_quadratic_ring(-3), 7)[0]
    fine = construction_a_ok(LinearCode(PrimeField(7), [[1, 3, 5]]), ideal)
    with pytest.raises(ValueError, match=A_OK_REFUSAL):
        make_pair(fine, 8.0)


def test_the_per_relay_protocol_refuses_a_complex_ambient_pair_alike():
    # relay_process only scales and reduces, which an ideal supports; the
    # steps that carry real lattice points share one guard
    ideal = factor_rational_prime(make_quadratic_ring(-3), 7)[0]
    pair = LatticePair(construction_a_ok(LinearCode(PrimeField(7), [[1, 3, 5]]), ideal))
    t = np.zeros(3, dtype=complex)
    steps = [
        lambda: encode_source(SourceState(None, t, t), pair),
        lambda: decode_function(t, pair),
        lambda: function_decoded(t, pair, [1, 1], np.zeros((2, 2, 3), dtype=np.int64)),
        lambda: multistage_roundtrip(pair, [[(1,)], [(2,)]], [1, 1]),
    ]
    for step in steps:
        with pytest.raises(ValueError, match=A_OK_REFUSAL):
            step()


def test_effective_noise_variance_monte_carlo():
    rng = np.random.default_rng(34)
    q = 6
    for _ in range(3):
        K = 2
        h = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        a = rng.integers(-2, 3, size=K)
        if not a.any():
            a[0] = 1
        P = float(rng.uniform(1, 10))
        scale = math.sqrt(P / (q**2 / 6.0))
        alpha = mmse_alpha(h, a, P)
        n = 20000
        x = rng.uniform(0, q * scale, (K, n)) + 1j * rng.uniform(0, q * scale, (K, n))
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
        z_eq = (alpha * h - a) @ x + alpha * z
        emp = np.var(z_eq)  # centered complex variance
        want = abs(alpha) ** 2 + P * float(np.sum(np.abs(alpha * h - a) ** 2))
        assert emp == pytest.approx(want, rel=0.08)


# -------------------- function decoding --------------------


def _noiseless_function_run(pair, K, a, rng):
    fine = pair.fine
    messages = []
    points = []
    for _ in range(K):
        per_level = []
        parts = []
        for part in range(2):
            words = []
            lv = []
            for code in fine.codes:
                w = tuple(rng.randrange(code.alphabet.size) for _ in range(code.n))
                lv.append(w)
                words.append(np.array(encode(code, w), dtype=np.int64))
            parts.append(fine.map.forward_vec(words))
            per_level.append(lv)
        messages.append(per_level)  # [part][level]
        points.append((parts[0] + 1j * parts[1]) * pair.scale)
    dithers = [
        np.array([rng.uniform(0, pair.q * pair.scale) for _ in range(fine.N)])
        + 1j * np.array([rng.uniform(0, pair.q * pair.scale) for _ in range(fine.N)])
        for _ in range(K)
    ]
    xs = [
        encode_source(SourceState(None, t, u), pair)
        for t, u in zip(points, dithers)
    ]
    y = sum(ak * xk for ak, xk in zip(a, xs))
    out = relay_process(y, a, dithers, np.array(a, dtype=complex), 9.0, pair, alpha_mode="unit")
    return messages, decode_function(out.y_prime, pair)


def test_noiseless_decode_matches_field_computation():
    rng = random.Random(35)
    pair = _full6_pair(scale=0.75)
    for _ in range(60):
        K = rng.randrange(1, 4)
        a = [rng.randrange(-4, 5) for _ in range(K)]
        if not any(a):
            a[0] = 1
        messages, decode = _noiseless_function_run(pair, K, a, rng)
        assert decode.ok
        for part in range(2):
            for li, code in enumerate(pair.fine.codes):
                A = code.alphabet
                b = [ak % A.size for ak in a]
                want = [A.zero] * code.n
                for k in range(K):
                    w = messages[k][part][li]
                    for i in range(code.n):
                        want[i] = A.add(want[i], A.mul(b[k], w[i]))
                assert decode.functions[part][li] == tuple(want)


def test_decode_single_user_identity_and_zero_messages():
    rng = random.Random(36)
    pair = _full6_pair()
    messages, decode = _noiseless_function_run(pair, 1, [1], rng)
    for part in range(2):
        for li in range(2):
            assert decode.functions[part][li] == messages[0][part][li]
    # zero messages decode to zero for any a
    fine = pair.fine
    zero_y = np.zeros(fine.N, dtype=complex)
    out = decode_function(zero_y, pair)
    for part in range(2):
        for li, code in enumerate(fine.codes):
            assert out.functions[part][li] == (0,) * code.n


def test_decode_invariant_under_coarse_shift():
    rng = random.Random(37)
    pair = _rep6_pair()
    for _ in range(50):
        base = rng.randrange(6)
        t = np.array([base, base], dtype=float)
        shift = 6 * np.array([rng.randrange(-2, 3), rng.randrange(-2, 3)], dtype=float)
        d1 = decode_function(mod_coarse(pair, t), pair)
        d2 = decode_function(mod_coarse(pair, t + shift), pair)
        assert d1.functions == d2.functions


# -------------------- multistage --------------------


def test_multistage_matches_single_stage_crt_oracle():
    rng = random.Random(38)
    pair = _rep6_pair()
    crt = CrtMap([2, 3])
    for _ in range(100):
        K = rng.randrange(1, 4)
        a = [rng.randrange(-6, 7) for _ in range(K)]
        if not any(a):
            a[0] = 1
        messages = [
            [
                tuple(rng.randrange(c.alphabet.size) for _ in range(c.n))
                for c in pair.fine.codes
            ]
            for _ in range(K)
        ]
        levels = multistage_roundtrip(pair, messages, a)
        # single-stage over Z_6: combine CRT-assembled messages directly
        for i in range(pair.fine.codes[0].n):
            W = [crt.forward((messages[k][0][i], messages[k][1][i])) for k in range(K)]
            single = sum(ak % 6 * Wk for ak, Wk in zip(a, W)) % 6
            assert crt.forward((levels[0][i], levels[1][i])) == single


def test_multistage_single_level_matches_decode_function():
    rng = random.Random(39)
    pair = LatticePair(construction_a(FULL2))
    for _ in range(30):
        K = 2
        a = [rng.randrange(-2, 3) for _ in range(K)]
        if not any(a):
            a[0] = 1
        messages = [
            [tuple(rng.randrange(2) for _ in range(2))] for _ in range(K)
        ]
        levels = multistage_roundtrip(pair, messages, a)
        points = [
            np.array(encode(pair.fine.codes[0], m[0]), dtype=float) for m in messages
        ]
        y = mod_coarse(pair, sum(ak * pk for ak, pk in zip(a, points)))
        direct = decode_function(y, pair)
        assert direct.functions[0][0] == levels[0]


def test_multistage_zero_coefficients():
    pair = _rep6_pair()
    messages = [[(1,), (2,)], [(0,), (1,)]]
    levels = multistage_roundtrip(pair, messages, [6, -12])
    assert levels == ((0,), (0,))


def test_multistage_validation():
    pair = _rep6_pair()
    with pytest.raises(ValueError):
        multistage_roundtrip(pair, [[(1,)]], [1, 2])  # coefficient count
    with pytest.raises(ValueError):
        multistage_roundtrip(pair, [[(1,)]], [1])  # missing level message


def test_multistage_refuses_a_chain_ring_level():
    from latcf.algebra import ChainRing
    from latcf.lattices import construction_pi_d

    z4 = LinearCode(ChainRing(2, 2), [[1, 0], [0, 1]])
    pair = LatticePair(construction_pi_d(12, [z4, FULL3]))
    with pytest.raises(ValueError, match="^levels must be prime fields$"):
        multistage_roundtrip(pair, [[(1, 0), (2, 0)], [(0, 1), (1, 1)]], [1, 1])


# -------------------- Monte Carlo harness --------------------


def _basic_config(**kw):
    P = kw.pop("P", 8.0)
    pair = make_pair(construction_pi_a([FULL2, FULL3]), P)
    base = dict(pair=pair, K=2, M=2, P=P)
    base.update(kw)
    return SimConfig(**base)


def test_run_trials_deterministic():
    config = _basic_config()
    r1 = run_trials(config, 6, seed=42)
    r2 = run_trials(config, 6, seed=42)
    assert r1 == r2
    r3 = run_trials(config, 6, seed=43)
    assert r1 != r3


def test_run_trials_validation():
    config = _basic_config()
    with pytest.raises(ValueError):
        run_trials(config, 0, seed=1)
    with pytest.raises(ValueError):
        run_trials(_basic_config(K=0), 1, seed=1)
    with pytest.raises(ValueError):
        run_trials(_basic_config(P=-1.0), 1, seed=1)
    with pytest.raises(ValueError):
        run_trials(_basic_config(fixed_H=np.ones((1, 1))), 1, seed=1)


def test_run_trials_refuses_an_a_ok_pair():
    # make_pair refuses an A_OK lattice; a pair built by hand is refused here
    ideal = factor_rational_prime(make_quadratic_ring(-3), 7)[0]
    pair = LatticePair(construction_a_ok(LinearCode(PrimeField(7), [[1, 3, 5]]), ideal))
    with pytest.raises(ValueError, match=A_OK_REFUSAL):
        run_trials(SimConfig(pair=pair, K=2, M=1, P=8.0), 3, seed=1)


def test_run_trials_refuses_an_unknown_alpha_mode():
    with pytest.raises(ValueError, match="^unknown alpha_mode 'zf'$"):
        run_trials(_basic_config(alpha_mode="zf"), 3, seed=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_run_trials_refuses_a_non_finite_fixed_h(bad):
    H = np.array([[1.0, bad], [2.0, 1.0]])
    with pytest.raises(ValueError, match="^fixed_H must be finite$"):
        run_trials(_basic_config(fixed_H=H), 3, seed=1)


def test_run_trials_refuses_a_pair_scaled_for_another_power():
    # the search and alpha would use P = 64 while the symbols carry P = 1
    fine = construction_pi_a([FULL2, FULL3])
    with pytest.raises(ValueError, match=r"pair\.scale .* is not make_pair's for P = 64\.0"):
        run_trials(SimConfig(pair=make_pair(fine, 1.0), K=2, M=1, P=64.0), 3, seed=1)
    assert len(run_trials(SimConfig(pair=make_pair(fine, 64.0), K=2, M=1, P=64.0), 3, seed=1)) == 3
    for P in (math.nan, math.inf):  # refused as make_pair refuses it, before the scale
        with pytest.raises(ValueError, match="P must be positive"):
            run_trials(SimConfig(pair=make_pair(fine, 8.0), K=2, M=1, P=P), 3, seed=1)


def test_run_trials_refuses_noiseless_with_a_max_norm_cap():
    config = _basic_config(fixed_H=np.array([[1.0, -2.0], [2.0, 1.0]]), noiseless=True,
                           alpha_mode="unit", max_norm_cap=1.5)
    with pytest.raises(ValueError, match="^a noiseless run does no coefficient search, "
                                         "so max_norm_cap would be ignored$"):
        run_trials(config, 3, seed=1)


def test_run_trials_noiseless_integer_channel_always_decodes():
    H = np.array([[1.0, -2.0], [2.0, 1.0]])
    config = _basic_config(fixed_H=H, noiseless=True, alpha_mode="unit")
    records = run_trials(config, 50, seed=5)
    assert len(records) == 100
    assert all(r.decode_ok == 1 for r in records)
    assert all(r.noise_var_emp == 0.0 for r in records)
    assert {r.a for r in records} == {(1, -2), (2, 1)}


# sha256 of repr(records) before noiseless relays took their 1 + P|h|^2 once
NOISELESS_RECORDS = {
    "mmse": "8907deadc44f3c825564aae86ddc9b899c56fa0ac07236a25a3ad5ea6c913fa5",
    "unit": "5fc4bfc2a66929926a223b7e2d4f83fb4d7995963de1aca73e240f8957c2b085",
}


@pytest.mark.parametrize("mode", sorted(NOISELESS_RECORDS))
def test_noiseless_relays_take_one_rate_denominator_each(monkeypatch, mode):
    # one 1 + P|h|^2 per relay serves the rate and alpha; seed 9 rounds
    # every random relay row to a nonzero a
    calls = []
    real = cfsim._rate_denominator
    monkeypatch.setattr(cfsim, "_rate_denominator", lambda h, P: calls.append(P) or real(h, P))
    T, M = 6, 2
    config = _basic_config(K=3, M=M, noiseless=True, alpha_mode=mode)
    records = run_trials(config, T, seed=9)
    assert len(calls) == T * M
    assert hashlib.sha256(repr(records).encode()).hexdigest() == NOISELESS_RECORDS[mode]


def test_run_trials_high_power_mostly_decodes():
    config = _basic_config(P=400.0, fixed_H=np.array([[1.0 + 0.0j, 1.0 + 0.0j]]), M=1)
    records = run_trials(config, 200, seed=11)
    ok = sum(r.decode_ok for r in records) / len(records)
    assert ok > 0.95


def test_run_trials_record_fields():
    config = _basic_config()
    records = run_trials(config, 3, seed=2)
    assert len(records) == 6
    for r in records:
        assert r.relay in (0, 1)
        assert isinstance(r.a, tuple) and len(r.a) == 2
        assert r.rate_bits >= 0.0
        assert r.noise_var_analytic > 0.0
        assert r.decode_ok in (0, 1)
        assert r.zero_divisor_flag == 0  # both levels are prime fields
    assert [r.trial for r in records] == [0, 0, 1, 1, 2, 2]


def test_run_trials_zero_divisor_flagging():
    from latcf.algebra import ChainRing
    from latcf.lattices import construction_pi_d

    z4 = LinearCode(ChainRing(2, 2), [[1, 0], [0, 1]])
    P = 6.0
    pair = make_pair(construction_pi_d(4, [z4]), P)
    # H forces a = (2,): sigma(2) = 2 is a zero divisor mod 4
    config = SimConfig(
        pair=pair, K=1, M=1, P=P,
        fixed_H=np.array([[2.0]]), noiseless=True, alpha_mode="unit",
    )
    records = run_trials(config, 5, seed=3)
    assert all(r.a == (2,) for r in records)
    assert all(r.zero_divisor_flag == 1 for r in records)
    unit_cfg = SimConfig(
        pair=pair, K=1, M=1, P=P,
        fixed_H=np.array([[1.0]]), noiseless=True, alpha_mode="unit",
    )
    assert all(r.zero_divisor_flag == 0 for r in run_trials(unit_cfg, 5, seed=3))
