"""Differential test of the two-phase trial engine against the serial loop
it replaced: `run_trials` running `_one_trial` once per trial, with the
per-relay `relay_process` and `function_decoded` and the symbol-by-symbol
`encode` it called, kept here verbatim as the oracle.  The CSV that
`write_csv` makes of the records must be byte-identical, over every
construction, K, M, channel mode and chunk boundary, and a run that
raises must raise the oracle's error."""

import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from latcf import cfsim, cli
from latcf.algebra import ChainRing, PrimeField
from latcf.cfsim import (
    RelayOutput,
    SimConfig,
    SourceState,
    TrialRecord,
    _coeffs_to_complex,
    computation_rate,
    encode_source,
    make_pair,
    run_trials,
)
from latcf.codes import LinearCode, NestedCodeChain
from latcf.lattices import (
    LatticeDescriptor,
    LatticePair,
    construction_a,
    construction_d,
    construction_pi_a,
    construction_pi_d,
    mod_coarse,
    quantize,
)
from relay_functions import function_coefficients

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"


# ---------------------------------------------------------------------------
# the oracle: the serial trial loop and the helpers it called, as they were
# ---------------------------------------------------------------------------


def reference_encode(code: LinearCode, w):
    """Codeword w*G with all arithmetic in the code's alphabet."""
    if len(w) != code.n:
        raise ValueError(f"message length {len(w)} != n={code.n}")
    A = code.alphabet
    out = [A.zero] * code.N
    for wi, row in zip(w, code.G):
        wi = int(wi) % A.size
        if wi == A.zero:
            continue
        for j, g in enumerate(row):
            out[j] = A.add(out[j], A.mul(wi, g))
    return tuple(out)


def reference_mmse_alpha(h, a, P: float) -> complex:
    """Minimizer of |alpha|^2 + P|alpha*h - a|^2."""
    h = np.asarray(h, dtype=complex)
    av = _coeffs_to_complex(a)
    return complex(P * np.vdot(h, av) / (1.0 + P * float(np.vdot(h, h).real)))


def reference_relay_process(y, a, dithers, h, P, pair: LatticePair, alpha_mode="mmse") -> RelayOutput:
    """(alpha*y + sum_k a_k u_k) mod coarse, plus the analytic variance
    of the effective noise alpha*z + sum_k (alpha*h_k - a_k) x_k."""
    h = np.asarray(h, dtype=complex)
    av = _coeffs_to_complex(a)
    if not len(av) == len(h) == len(dithers):
        raise ValueError(f"a, h and dithers have lengths {len(av)}, {len(h)}, {len(dithers)}; "
                         "need one per source")
    if alpha_mode == "mmse":
        alpha = reference_mmse_alpha(h, a, P)
    elif alpha_mode == "unit":
        alpha = 1.0 + 0.0j
    else:
        raise ValueError(f"unknown alpha_mode {alpha_mode!r}")
    noise_var = abs(alpha) ** 2 + P * float(np.sum(np.abs(alpha * h - av) ** 2))
    acc = alpha * np.asarray(y, dtype=complex)
    for ak, uk in zip(av, dithers):
        acc = acc + ak * np.asarray(uk)
    return RelayOutput(mod_coarse(pair, acc), alpha, noise_var)


def reference_function_decoded(y_prime, pair: LatticePair, a, points) -> bool:
    """Whether each real part of y_prime quantizes, mod q, to the
    integer point sum_k a_k t_k mod q, with points[k] = (re, im) of
    source k's integer CRT point; stops at the first part that misses.
    """
    fine = pair.fine
    a_mod = np.array([int(x) % fine.q for x in a], dtype=np.int64)
    want = np.mod(np.tensordot(a_mod, np.asarray(points, dtype=np.int64), axes=1), fine.q)
    y_prime = np.asarray(y_prime)
    return all(
        np.array_equal(np.mod(quantize(fine, part / pair.scale), fine.q), w)
        for part, w in zip((y_prime.real, y_prime.imag), want)
    )


def reference_run_trials(config: SimConfig, trials: int, seed: int):
    """Independent Monte Carlo trials, run one after another and
    deterministic in (config, seed): each trial seeds its own generator
    from (seed, trial).  A fixed channel is searched once per relay,
    before the first trial.
    """
    _check_config(config)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    searched = None
    if config.fixed_H is not None and not config.noiseless:
        searched = [
            _search(0, m, h, config)  # the first trial stops at a refusal
            for m, h in enumerate(np.asarray(config.fixed_H, dtype=complex))
        ]
    return [rec for t in range(trials) for rec in _one_trial(config, seed, t, searched)]


def _search(trial, relay, h, config):
    """The relay's coefficient search; a refusal names the trial and relay."""
    try:
        return cfsim.best_coefficients(h, config.P, max_norm_cap=config.max_norm_cap)
    except ValueError as exc:
        raise ValueError(f"trial {trial}, relay {relay}: {exc}") from None


def _check_config(config: SimConfig):
    if config.pair.fine.ambient != "real":
        raise ValueError("simulation supports real-ambient lattices")
    if config.K < 1 or config.M < 1:
        raise ValueError("need K >= 1 sources and M >= 1 relays")
    if config.P <= 0:
        raise ValueError("P must be positive")
    if config.alpha_mode not in ("mmse", "unit"):
        raise ValueError(f"unknown alpha_mode {config.alpha_mode!r}")
    if config.fixed_H is not None:
        H = np.asarray(config.fixed_H, dtype=complex)
        if H.shape != (config.M, config.K):
            raise ValueError(f"fixed_H must be {config.M}x{config.K}")
        if not np.all(np.isfinite(H)):
            raise ValueError("fixed_H must be finite")


def _one_trial(config: SimConfig, seed: int, trial: int, searched):
    rng = np.random.default_rng([seed, trial])
    pair = config.pair
    fine = pair.fine
    K, M, P = config.K, config.M, config.P
    N = fine.N
    cell = fine.q * pair.scale

    if config.fixed_H is not None:
        H = np.asarray(config.fixed_H, dtype=complex)
    else:
        H = (rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K))) / math.sqrt(2)

    # per source, per level, one message for each real part (this draw
    # order fixes the output for a seed); points[k, part] is the integer
    # CRT point of source k's codewords
    crt = fine.map
    points = np.empty((K, 2, N), dtype=np.int64)
    for k in range(K):
        words = [[], []]
        for code in fine.codes:
            for part in (0, 1):
                w = rng.integers(0, code.alphabet.size, size=code.n)
                words[part].append(reference_encode(code, w.tolist()))
        points[k] = [crt.forward_vec(w) for w in words]

    dithers = [
        rng.uniform(0.0, cell, size=N) + 1j * rng.uniform(0.0, cell, size=N)
        for _ in range(K)
    ]
    if config.noiseless:
        Z = np.zeros((M, N), dtype=complex)
    else:
        Z = (rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))) / math.sqrt(2)

    X = np.empty((K, N), dtype=complex)
    for k in range(K):
        t = (points[k, 0] + 1j * points[k, 1]) * pair.scale
        X[k] = encode_source(SourceState(None, t, dithers[k]), pair)

    Y = H @ X + Z

    mean_x = cell / 2.0 * (1 + 1j)  # deterministic offset of the coarse cell
    records = []
    for m in range(M):
        h = H[m]
        if config.noiseless:
            a = tuple(int(x) for x in np.round(h.real))
            try:
                rate = computation_rate(h, a, P) if any(a) else 0.0
            except ValueError as exc:  # located as a search's refusal is
                raise ValueError(f"trial {trial}, relay {m}: {exc}") from None
        elif searched is not None:
            a, rate, _ = searched[m]
        else:
            a, rate, _ = _search(trial, m, h, config)
        if not any(a):
            raise ValueError(f"trial {trial}, relay {m}: relay coefficient vector is zero")

        out = reference_relay_process(Y[m], a, dithers, h, P, pair, alpha_mode=config.alpha_mode)
        av = np.array(a, dtype=complex)
        z_eq = (out.alpha * h - av) @ X + out.alpha * Z[m]
        offset = np.sum(out.alpha * h - av) * mean_x
        noise_var_emp = float(np.mean(np.abs(z_eq - offset) ** 2))

        # the half-open cell gives every x_k the known mean cell/2*(1+1j);
        # its deterministic contribution to the effective noise scales with
        # the cell, so it must come off before quantizing
        ok = reference_function_decoded(mod_coarse(pair, out.y_prime - offset), pair, a, points)
        zflag = 0
        for code, b_l in zip(fine.codes, function_coefficients(a, fine.moduli)):
            A = code.alphabet
            if isinstance(A, ChainRing) and A.e > 1:
                if any(b != 0 and b % A.p == 0 for b in b_l):
                    zflag = 1
        records.append(
            TrialRecord(
                trial=trial,
                relay=m,
                a=tuple(int(x) for x in a),
                rate_bits=rate,
                alpha=complex(out.alpha),
                noise_var_analytic=out.noise_var_analytic,
                noise_var_emp=noise_var_emp,
                decode_ok=int(ok),
                zero_divisor_flag=zflag,
            )
        )
    return records


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

F3 = LinearCode(PrimeField(3), [[1, 1, 1, 0], [0, 1, 2, 1]])
REP2 = LinearCode(PrimeField(2), [[1, 1, 0, 1]])
Z4_FREE = LinearCode(ChainRing(2, 2), [[1, 1, 1, 1], [0, 2, 1, 3]])
Z9_NON_FREE = LinearCode(ChainRing(3, 2), [[3, 0, 6, 3], [0, 3, 3, 6]])
CHAIN = NestedCodeChain(2, [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]], [1, 3])

LATTICES = {
    "A": construction_a(F3),
    "D": construction_d(CHAIN, 2),
    "piA": construction_pi_a([REP2, F3]),
    "piD Z4 free x Z9 non-free": construction_pi_d(36, [Z4_FREE, Z9_NON_FREE]),
}
MODES = ("random", "fixed", "noiseless", "unit", "cap")
# one-word seeds, and seeds of 2, 3 and 4 32-bit words: with the trial's
# word, 3, 4 and 5 words of entropy, the last one past SeedSequence's pool of 4
SEEDS = [*range(20), 2**32 + 1, 2**64 + 5, 2**96 + 7]


def _config(fine, K, M, mode, P=16.0):
    H = None
    if mode in ("fixed", "noiseless"):
        rng = np.random.default_rng([K, M])
        H = (rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K))) / math.sqrt(2)
        if mode == "noiseless":  # an integer channel: each row rounds to a nonzero a
            H = np.round(2 * H.real) + 0j
            H[:, 0] = 1
    return SimConfig(
        pair=make_pair(fine, P), K=K, M=M, P=P,
        alpha_mode="unit" if mode in ("unit", "noiseless") else "mmse",
        fixed_H=H, noiseless=mode == "noiseless",
        max_norm_cap=2.5 if mode == "cap" else None,
    )


def _outcome(run, config, trials, seed, path):
    """The CSV bytes of a run, or its error."""
    try:
        records = run(config, trials, seed)
    except ValueError as exc:
        return f"ValueError: {exc}"
    cli.write_csv(records, path)
    return path.read_bytes()


def _assert_same(config, trials, seed, tmp_path):
    want = _outcome(reference_run_trials, config, trials, seed, tmp_path / "oracle.csv")
    got = _outcome(run_trials, config, trials, seed, tmp_path / "engine.csv")
    assert got == want, (trials, seed)
    return want


# ---------------------------------------------------------------------------
# the engine against the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(LATTICES))
@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("M", [1, 3])
def test_engine_matches_oracle(tmp_path, name, K, M):
    for mode in MODES:
        config = _config(LATTICES[name], K, M, mode)
        for seed in SEEDS:
            out = _assert_same(config, 1 + seed % 2, seed, tmp_path)
            assert isinstance(out, bytes), (mode, seed, out)


def _small_chunks(monkeypatch, config):
    """Patch the element budget down until a chunk holds 3 to 6 trials."""
    for k in range(24):
        monkeypatch.setattr("latcf.lattices._PASS_ELEMENTS", 2**k)
        chunk = cfsim._chunk_trials(config)
        if chunk >= 3:
            return chunk
    raise AssertionError("no budget gives 3 trials")


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_chunk_boundaries_match_oracle(tmp_path, monkeypatch, name):
    for mode in ("random", "fixed"):
        config = _config(LATTICES[name], 2, 3, mode)
        chunk = _small_chunks(monkeypatch, config)
        for seed in SEEDS:
            for trials in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
                _assert_same(config, trials, seed, tmp_path)


def _sim_cosets():
    doc = json.loads((WORKLOADS / "sim-cosets.json").read_text(encoding="utf-8"))
    fine = cli.build_construction(doc["construction"])
    return SimConfig(pair=make_pair(fine, 16.0), K=2, M=2, P=16.0)


def test_chunk_boundaries_at_the_real_budget(tmp_path):
    config = _sim_cosets()
    chunk = cfsim._chunk_trials(config)
    assert chunk >= 2
    for seed in SEEDS:
        for trials in (1, chunk - 1, chunk, chunk + 1):
            _assert_same(config, trials, seed, tmp_path)


def test_records_do_not_depend_on_the_chunking(monkeypatch):
    config = _config(LATTICES["piA"], 3, 2, "random")
    whole = run_trials(config, 11, seed=4)
    _small_chunks(monkeypatch, config)
    assert run_trials(config, 11, seed=4) == whole


# ---------------------------------------------------------------------------
# errors and call counts
# ---------------------------------------------------------------------------


def test_zero_coefficient_vector_raises_as_the_oracle(tmp_path):
    fine = LATTICES["piA"]
    fixed = replace(_config(fine, 2, 2, "noiseless"), fixed_H=np.array([[1, 1], [0.3, -0.4]]) + 0j)
    assert _assert_same(fixed, 4, 0, tmp_path) == "ValueError: trial 0, relay 1: relay coefficient vector is zero"
    errors = set()
    for seed in SEEDS:  # a random H rounds to 0 now and then
        out = _assert_same(replace(fixed, fixed_H=None), 4, seed, tmp_path)
        if not isinstance(out, bytes):
            errors.add(out)
    assert len(errors) > 1
    for error in errors:
        assert re.fullmatch(r"ValueError: trial \d+, relay \d+: relay coefficient vector is zero", error), error


def test_noiseless_rate_refusal_names_the_trial_and_relay(tmp_path):
    # 1 + P|h|^2 overflows: computation_rate's refusal, located as a search's
    config = replace(_config(LATTICES["piA"], 2, 2, "noiseless", P=1e308),
                     fixed_H=np.array([[1, 2], [3, 1]]) + 0j)
    want = "trial 0, relay 0: 1 + P|h|^2 overflows; lower P or |h|"
    assert _assert_same(config, 2, 0, tmp_path) == f"ValueError: {want}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        run_trials(config, 1, seed=0)


def test_search_refusal_raises_as_the_oracle(tmp_path, monkeypatch):
    monkeypatch.setattr(cfsim, "_SEARCH_HARD_CAP", 15)  # a search visiting more nodes refuses
    config = _config(LATTICES["piA"], 3, 2, "random", P=64.0)
    outcomes = [_assert_same(config, 3, seed, tmp_path) for seed in SEEDS]
    refused = [o for o in outcomes if not isinstance(o, bytes)]
    assert refused and len(refused) < len(outcomes)
    for error in refused:
        assert re.fullmatch(r"ValueError: trial \d+, relay \d+: search space too large; lower max_norm_cap",
                            error), error


@pytest.mark.parametrize("mode, calls", [("fixed", 3), ("random", 5 * 3), ("noiseless", 0)])
def test_one_search_per_relay_and_trial(monkeypatch, mode, calls):
    # the engine searches through _search_rows, which walks each relay once
    config = _config(LATTICES["piA"], 2, 3, mode)
    counted = []
    walk = cfsim._ellipsoid_points

    def counting(*args):
        counted.append(args)
        return walk(*args)

    monkeypatch.setattr(cfsim, "_ellipsoid_points", counting)
    run_trials(config, 5, seed=2)
    assert len(counted) == calls


@pytest.mark.parametrize("mode, searches", [("fixed", 1), ("noiseless", 1), ("random", 4)])
def test_per_run_work_runs_once_per_call(monkeypatch, mode, searches):
    # 7 trials in chunks of 2: four chunks.  Under a fixed channel the
    # relays' scalars come once per run_trials call, else once per chunk;
    # G_q is built once per lattice, not again by a second call
    fine = construction_pi_a([REP2, F3])  # fresh caches
    config = _config(fine, 2, 3, mode)
    monkeypatch.setattr(cfsim, "_chunk_trials", lambda config: 2)
    scalars, calls, builds = cfsim._relay_scalars, [], []

    def counting(*args):
        calls.append(args)
        return scalars(*args)

    def build(lat, G):
        builds.append(G)
        lat.__dict__["_generator"] = G

    monkeypatch.setattr(cfsim, "_relay_scalars", counting)
    monkeypatch.setattr(LatticeDescriptor, "_generator",
                        property(lambda lat: lat.__dict__["_generator"], build), raising=False)
    first = run_trials(config, 7, seed=3)
    assert len(calls) == searches and len(builds) == 1
    assert run_trials(config, 7, seed=3) == first
    assert len(calls) == 2 * searches and len(builds) == 1
    monkeypatch.undo()
    assert run_trials(config, 7, seed=3) == first  # whatever the chunking


# ---------------------------------------------------------------------------
# the relays' scalars, a chunk at a time
# ---------------------------------------------------------------------------


def reference_relay_scalars(config: SimConfig, h):
    """One relay's (a, rate, alpha, noise_var, zero-divisor flag) as
    _one_trial computes them."""
    P, fine, N = config.P, config.pair.fine, config.pair.fine.N
    if config.noiseless:
        a = tuple(int(x) for x in np.round(h.real))
        rate = computation_rate(h, a, P) if any(a) else 0.0
    else:
        a, rate, _ = cfsim.best_coefficients(h, P, max_norm_cap=config.max_norm_cap)
    if not any(a):
        raise ValueError("relay coefficient vector is zero")
    out = reference_relay_process(np.zeros(N), a, [np.zeros(N)] * len(h), h, P, config.pair,
                                  alpha_mode=config.alpha_mode)
    zflag = 0
    for code, b_l in zip(fine.codes, function_coefficients(a, fine.moduli)):
        A = code.alphabet
        if isinstance(A, ChainRing) and A.e > 1:
            if any(b != 0 and b % A.p == 0 for b in b_l):
                zflag = 1
    return tuple(int(x) for x in a), rate, complex(out.alpha), out.noise_var_analytic, zflag


@pytest.mark.parametrize("name", sorted(LATTICES))
@pytest.mark.parametrize("mode", MODES)
def test_relay_scalars_match_the_per_relay_path(name, mode):
    flags = set()
    for K in (1, 2, 3, 4):
        for M in (1, 3):
            config = _config(LATTICES[name], K, M, mode)
            if config.fixed_H is not None:
                H = np.asarray(config.fixed_H, dtype=complex)
            else:
                rng = np.random.default_rng([K, M, 7])
                H = (rng.standard_normal((40 * M, K)) + 1j * rng.standard_normal((40 * M, K))) / math.sqrt(2)
            got = cfsim._relay_scalars(config, H)
            flags.update(got.zero_divisor_flag.tolist())
            rows = zip(*(x.tolist() for x in got))
            for h, row in zip(H, rows):
                want = reference_relay_scalars(config, h)
                row = (tuple(row[0]),) + tuple(row[1:])
                assert repr(row) == repr(want), (name, mode, K, M, h)
    if name.startswith("piD") and mode == "random":
        assert flags == {0, 1}


@pytest.mark.parametrize("alpha_mode", ["mmse", "unit"])
def test_relay_process_and_mmse_alpha_match_the_oracle(alpha_mode):
    pair = make_pair(LATTICES["piA"], 16.0)
    rng = np.random.default_rng(11)
    for K in (1, 2, 3, 5):
        for _ in range(200):
            h = (rng.standard_normal(K) + 1j * rng.standard_normal(K)) / math.sqrt(2)
            a = tuple(int(x) for x in rng.integers(-4, 5, K))
            P = float(10.0 ** rng.uniform(-3, 4))
            y = rng.standard_normal(pair.fine.N) + 1j * rng.standard_normal(pair.fine.N)
            dithers = [rng.random(pair.fine.N) for _ in range(K)]
            got = cfsim.relay_process(y, a, dithers, h, P, pair, alpha_mode=alpha_mode)
            want = reference_relay_process(y, a, dithers, h, P, pair, alpha_mode=alpha_mode)
            assert repr((got.alpha, got.noise_var_analytic)) == repr((want.alpha, want.noise_var_analytic))
            assert np.array_equal(got.y_prime, want.y_prime)
            assert repr(cfsim.mmse_alpha(h, a, P)) == repr(reference_mmse_alpha(h, a, P))


def test_an_earlier_relays_refusal_raises_before_a_later_relays(tmp_path, monkeypatch):
    # the walks of a chunk's relays run in relay order before any tail, so
    # the first relay to refuse is the one reported, batch or no batch
    monkeypatch.setattr(cfsim, "_SEARCH_HARD_CAP", 15)  # a search visiting more nodes refuses
    config = _config(LATTICES["piA"], 3, 2, "random", P=64.0)
    walk = cfsim._ellipsoid_points
    calls = []

    def counted(*args):
        calls.append(args)
        return walk(*args)

    def second_refuses(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("P*|h|^2 too large for an exact coefficient search")
        return walk(*args)

    later = []
    monkeypatch.setattr(cfsim, "_ellipsoid_points", counted)
    for seed in SEEDS:
        calls.clear()
        try:
            reference_run_trials(config, 3, seed)
        except ValueError as exc:
            # the first two relays pass and a later relay's search refuses
            if len(calls) > 2 and "search space too large" in str(exc):
                later.append(seed)
    assert later
    monkeypatch.setattr(cfsim, "_ellipsoid_points", second_refuses)
    for seed in later:
        outcomes = []
        for run in (reference_run_trials, run_trials):
            calls.clear()
            outcomes.append(_outcome(run, config, 3, seed, tmp_path / "out.csv"))
        want = "ValueError: trial 0, relay 1: P*|h|^2 too large for an exact coefficient search"
        assert outcomes == [want] * 2, seed


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def _peak(config, trials):
    tracemalloc.start()
    try:
        run_trials(config, trials, seed=6)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_grow_with_the_trial_count():
    config = _sim_cosets()
    run_trials(config, 1, seed=6)  # the coset table and other one-time state
    chunk = cfsim._chunk_trials(config)
    one, four = _peak(config, chunk), _peak(config, 4 * chunk)
    assert four <= 1.5 * one, (one, four)
