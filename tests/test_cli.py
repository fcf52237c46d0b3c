"""CLI surface: config schemas, descriptor round-trips, literal parsing,
exit codes, and the CSV contract."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latcf import cli
from latcf.lattices import contains

REP2 = {"prime": 2, "power": 1, "N": 2, "n": 1, "rows": [1, 1]}
REP3 = {"prime": 3, "power": 1, "N": 2, "n": 1, "rows": [1, 1]}
Z4 = {"prime": 2, "power": 2, "N": 2, "n": 1, "rows": [1, 3]}

PI_A6 = {"kind": "piA", "codes": [REP2, REP3]}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


def _run(capsys, args):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_pi_d_factors_q6(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"construction": {"kind": "piD", "q": 6, "codes": [REP2, REP3]}})
    out = tmp_path / "lat.json"
    code, _ = _run(capsys, ["construct", "--config", cfg, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "piD"
    assert doc["moduli"] == [2, 3]
    assert [c["prime"] for c in doc["codes"]] == [2, 3]
    assert all(c["power"] == 1 for c in doc["codes"])


def test_construct_single_chain_ring_level(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"construction": {"kind": "piD", "q": 4, "codes": [Z4]}})
    out = tmp_path / "lat.json"
    assert _run(capsys, ["construct", "--config", cfg, "--out", str(out)])[0] == 0
    doc = json.loads(out.read_text())
    assert doc["moduli"] == [4]
    assert len(doc["codes"]) == 1
    assert doc["codes"][0]["power"] == 2


def test_construct_rejects_q1(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"construction": {"kind": "piD", "q": 1, "codes": [REP2]}})
    out = tmp_path / "lat.json"
    # q >= 2 is a mathematical precondition, not a schema shape issue
    assert _run(capsys, ["construct", "--config", cfg, "--out", str(out)])[0] == 3


def test_construct_schema_violations(tmp_path, capsys):
    out = str(tmp_path / "lat.json")
    bad = [
        {"construction": {"kind": "piD", "q": 6, "codes": [REP2, REP3], "extra": 1}},
        {"construction": {"kind": "piD", "codes": [REP2, REP3]}},  # missing q
        {"construction": {"q": 6, "codes": [REP2, REP3]}},  # missing kind
        {"construction": {"kind": "piZ", "q": 6, "codes": []}},
        {"construction": {"kind": "piD", "q": True, "codes": [REP2]}},
        {"construction": {"kind": "A", "codes": [{**REP2, "rows": [1, 1, 1]}]}},
        {"construction": {"kind": "A", "codes": "nope"}},
        {"wrong_top": {}},
    ]
    for doc in bad:
        cfg = _write(tmp_path, "c.json", doc)
        assert _run(capsys, ["construct", "--config", cfg, "--out", out])[0] == 2
    f17 = {"prime": 17, "power": 1, "N": 2, "n": 1, "rows": [1, 1]}
    named = [
        ({"kind": "A", "codes": [{**REP2, "prime": 4}]}, "construction.codes[0]: 4 is not prime"),
        ({"kind": "D", "chain": {"prime": 2, "N": 2, "basis": [1, 1, 0], "dims": [1, 2]}},
         "construction.chain.basis: expected 4 entries"),
        ({"kind": "A_OK", "quadratic": {"d": -15, "p": 17}, "codes": [f17, f17]},
         "construction.codes: A_OK takes exactly one code"),
        ({"kind": "A", "codes": [REP2, REP2]}, "construction.codes: A takes exactly one code"),
        ({"kind": "D", "chain": {"prime": 4, "N": 2, "basis": [1, 1, 0, 1], "dims": [1, 2]}},
         "construction.chain: 4 is not prime"),
        ({"kind": "A_OK", "quadratic": {"d": -3, "p": 4}, "codes": [f17]},
         "construction.quadratic: 4 is not prime"),
    ]
    for doc, want in named:
        cfg = _write(tmp_path, "c.json", {"construction": doc})
        assert cli.main(["construct", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {want}\n"

    cfg = _write(tmp_path, "broken.json", "{not json")
    assert _run(capsys, ["construct", "--config", cfg, "--out", out])[0] == 2
    assert _run(capsys, ["construct", "--config", str(tmp_path / "absent.json"), "--out", out])[0] == 2


def test_construct_piD_code_mismatch_is_construction_error(tmp_path, capsys):
    # schema-valid codes that do not match the factorization of q
    cfg = _write(tmp_path, "c.json", {"construction": {"kind": "piD", "q": 6, "codes": [REP3, REP2]}})
    assert _run(capsys, ["construct", "--config", cfg, "--out", str(tmp_path / "o.json")])[0] == 3


def test_construct_pi_a_moduli_are_checked_against_the_codes(tmp_path, capsys):
    # piA's optional moduli must be the codes' own, in level order
    plain = tmp_path / "plain.json"
    cfg = _write(tmp_path, "c.json", {"construction": PI_A6})
    assert _run(capsys, ["construct", "--config", cfg, "--out", str(plain)])[0] == 0
    out = tmp_path / "lat.json"
    cfg = _write(tmp_path, "c.json", {"construction": {**PI_A6, "moduli": [2, 3]}})
    assert _run(capsys, ["construct", "--config", cfg, "--out", str(out)])[0] == 0
    assert out.read_bytes() == plain.read_bytes()
    cfg = _write(tmp_path, "c.json", {"construction": {**PI_A6, "moduli": [3, 2]}})
    assert cli.main(["construct", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err == "error: construction.moduli: [3, 2] does not match the codes' [2, 3]\n"
    assert not (tmp_path / "x.json").exists()


def test_construct_deterministic_bytes(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"construction": PI_A6})
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert _run(capsys, ["construct", "--config", cfg, "--out", str(out1)])[0] == 0
    assert _run(capsys, ["construct", "--config", cfg, "--out", str(out2)])[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# member
# ---------------------------------------------------------------------------


def test_member_parity_lattice(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"construction": {"kind": "A", "codes": [REP2]}})
    code, out = _run(capsys, ["member", "--config", cfg, "--vector", "3,5"])
    assert (code, out.strip()) == (0, "in")
    code, out = _run(capsys, ["member", "--config", cfg, "--vector", "1,0"])
    assert (code, out.strip()) == (1, "out")
    assert _run(capsys, ["member", "--config", cfg, "--vector", "0,0"])[0] == 0


def test_member_accepts_descriptor_file(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"construction": {"kind": "A", "codes": [REP2]}})
    desc = tmp_path / "lat.json"
    assert _run(capsys, ["construct", "--config", cfg, "--out", str(desc)])[0] == 0
    assert _run(capsys, ["member", "--config", str(desc), "--vector", "3,5"])[0] == 0
    assert _run(capsys, ["member", "--config", str(desc), "--vector", "1,0"])[0] == 1


def test_member_parse_failures(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"construction": {"kind": "A", "codes": [REP2]}})
    for literal in ["1,x", "1", "1,2,3", "1.5,0", ""]:
        assert _run(capsys, ["member", "--config", cfg, "--vector", literal])[0] == 2


def test_member_complex_ambient(tmp_path, capsys):
    # Gaussian-integer repetition lattice: x in L iff x1 - x2 in (1+i)
    cfg = _write(
        tmp_path,
        "c.json",
        {"construction": {"kind": "A_OK", "quadratic": {"d": -1, "p": 2},
                          "codes": [{"prime": 2, "power": 1, "N": 2, "n": 1, "rows": [1, 1]}]}},
    )
    assert _run(capsys, ["member", "--config", cfg, "--vector", "1+1i,1+1i"])[0] == 0
    assert _run(capsys, ["member", "--config", cfg, "--vector", "1+0i,0+0i"])[0] == 1
    assert _run(capsys, ["member", "--config", cfg, "--vector", "0+0i,0+0i"])[0] == 0
    assert _run(capsys, ["member", "--config", cfg, "--vector", "0+12i,12i"])[0] == 0
    assert _run(capsys, ["member", "--config", cfg, "--vector", "13i,0+0i"])[0] == 1
    assert _run(capsys, ["member", "--config", cfg, "--vector", "1.5+0i,0+0i"])[0] == 2


def test_member_a_ok_literals_are_exact_integers(tmp_path, capsys):
    # A_OK over the split 7 in Z[w], row [1, 3, 5]; 7 lies in the ideal
    cfg = _write(tmp_path, "c.json", {"construction": {
        "kind": "A_OK", "quadratic": {"d": -3, "p": 7},
        "codes": [{"prime": 7, "power": 1, "N": 3, "n": 1, "rows": [1, 3, 5]}]}})
    # 7 * (2**53 + 1): a float would round it off the ideal
    assert _run(capsys, ["member", "--config", cfg, "--vector", "63050394783186951+0i,0+0i,0+0i"]) == (0, "in\n")
    assert _run(capsys, ["member", "--config", cfg, "--vector", "7,7i,-7-14i"]) == (0, "in\n")
    assert _run(capsys, ["member", "--config", cfg, "--vector", "1,0,0"]) == (1, "out\n")
    for tok in ("7.0+0i", "7e0+0i", "1.5+0i", "7+i", "0+-1i", ""):
        assert cli.main(["member", "--config", cfg, "--vector", f"{tok},0,0"]) == 2
        assert capsys.readouterr().err == f"error: ring coordinates must be integers: {tok!r}\n"


# ---------------------------------------------------------------------------
# rate / search
# ---------------------------------------------------------------------------


def test_rate_printed_values(capsys):
    code, out = _run(capsys, ["rate", "--h", "1+0i", "--a", "1", "--power", "3"])
    assert (code, out.strip()) == (0, "2.000000000")
    code, out = _run(capsys, ["rate", "--h", "1+0i,1+0i", "--a", "1,1", "--power", "1"])
    assert code == 0
    assert abs(float(out) - math.log2(1.5)) < 1e-9
    assert len(out.strip().split(".")[1]) == 9


def test_rate_rejects_bad_input(capsys):
    assert _run(capsys, ["rate", "--h", "1+0i", "--a", "0", "--power", "3"])[0] == 2
    assert _run(capsys, ["rate", "--h", "1+0i,2+0i", "--a", "1", "--power", "3"])[0] == 2
    assert _run(capsys, ["rate", "--h", "1 + 0i", "--a", "1", "--power", "3"])[0] == 2
    assert _run(capsys, ["rate", "--h", "1+0j", "--a", "1", "--power", "3"])[0] == 2
    assert _run(capsys, ["rate", "--h", "1+0i", "--a", "1.5", "--power", "3"])[0] == 2


def test_rate_rejects_non_finite_h_and_power_as_search_does(capsys):
    # rate printed 0.000000000 and exited 0 here; nan is no complex
    # literal, but 1e999 is one and overflows to inf
    for h, a, power in (("1+0i,1e999", "1,1", "16"), ("1+0i", "1", "nan"), ("1+0i", "1", "inf")):
        code = cli.main(["rate", "--h", h, "--a", a, "--power", power])
        assert (code, capsys.readouterr().err.strip()) == (2, "error: h and P must be finite")
        code = cli.main(["search", "--h", h, "--power", power])
        assert (code, capsys.readouterr().err.strip()) == (2, "error: h and P must be finite")


def test_complex_literal_grammar(capsys):
    assert cli.parse_complex_token("1.5-2i") == complex(1.5, -2.0)
    assert cli.parse_complex_token("-0.25+3e-1i") == complex(-0.25, 0.3)
    assert cli.parse_complex_token("2") == complex(2.0, 0.0)
    assert cli.parse_complex_token("-3i") == complex(0.0, -3.0)
    # pure imaginary literals with more than one character before i are
    # one number, not two (12i is not 1 and 2i)
    for tok, im in (("12i", 12.0), ("1.5i", 1.5), ("0.5i", 0.5), ("-12i", -12.0), (".5i", 0.5), ("1e3i", 1e3)):
        assert cli.parse_complex_token(tok) == complex(0.0, im)
    assert _run(capsys, ["rate", "--h", "12i,1+0i", "--a", "1,1", "--power", "3"])[0] == 0
    for bad in ["", "i", "1+i", "1+2", "1 + 2i", "2i+1"]:
        with pytest.raises(cli.SchemaError):
            cli.parse_complex_token(bad)
    # float() would take these; README's grammar does not
    for bad in ["1_0", "infinity", "-inf", "nan", "1_0i", "1+2_0i", "\u0663"]:
        with pytest.raises(cli.SchemaError, match=f"^malformed complex literal {re.escape(repr(bad))}$"):
            cli.parse_complex_token(bad)
    for tok, z in (("+3", 3), ("5.", 5), (".5", 0.5), ("-1E2", -100), (" 2 ", 2), ("0x1", None)):
        if z is None:
            with pytest.raises(cli.SchemaError):
                cli.parse_complex_token(tok)
        else:
            assert cli.parse_complex_token(tok) == complex(z, 0.0)
    assert cli.main(["rate", "--h", "1_0,infinity", "--a", "1,1", "--power", "3"]) == 2
    assert capsys.readouterr().err == "error: malformed complex literal '1_0'\n"


def test_integer_literal_grammar(capsys):
    assert cli.parse_int_vector("1, -2,+3,007,-0") == [1, -2, 3, 7, 0]
    for bad in ["1_0", "1.0", "1e3", "", "0x10", "\u0663", "+-1", "1 2"]:
        with pytest.raises(cli.SchemaError, match=f"^expected an integer, got {re.escape(repr(bad))}$"):
            cli.parse_int_vector(f"0,{bad}")
    assert cli.main(["rate", "--h", "1+0i,1", "--a", "1,1_0", "--power", "3"]) == 2
    assert capsys.readouterr().err == "error: expected an integer, got '1_0'\n"


def test_search_prints_best_vector(tmp_path, capsys):
    code, out = _run(capsys, ["search", "--h", "1+0i", "--power", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a: 1"
    assert lines[1] == f"rate_bits: {math.log2(4):.9f}"
    assert lines[2] == "truncated: no"

    cfg = _write(tmp_path, "c.json", {"search": {"max_norm_cap": 2.0}})
    code, out = _run(capsys, ["search", "--h", "1+0i", "--power", "3", "--config", cfg])
    assert code == 0
    assert "truncated: yes" in out

    cfg = _write(tmp_path, "c.json", {"search": {"max_norm_cap": 2.0, "oops": 1}})
    assert _run(capsys, ["search", "--h", "1+0i", "--power", "3", "--config", cfg])[0] == 2


def test_search_cap_below_one_names_the_empty_search(tmp_path, capsys):
    # no nonzero integer vector has norm <= 0.5
    cfg = _write(tmp_path, "c.json", {"search": {"max_norm_cap": 0.5}})
    code = cli.main(["search", "--h", "1,0.5", "--power", "2", "--config", cfg])
    assert code == 2
    assert capsys.readouterr().err == "error: empty search space; raise max_norm_cap\n"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

CSV_HEADER = (
    "trial,relay,a,rate_bits,alpha_re,alpha_im,"
    "noise_var_analytic,noise_var_emp,decode_ok,zero_divisor_flag"
)


def _sim_config(**overrides):
    sim = {"K": 2, "M": 2, "P": 8.0, "trials": 3, "seed": 7}
    sim.update(overrides)
    return {"construction": PI_A6, "simulation": sim}


def test_simulate_csv_shape(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _sim_config())
    out = tmp_path / "run.csv"
    assert _run(capsys, ["simulate", "--config", cfg, "--out", str(out)])[0] == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 2  # trials * relays
    for row in lines[1:]:
        fields = row.split(",")
        assert len(fields) == 10
        assert fields[2].count(";") == 1  # K=2 coefficients
        int(fields[0]), int(fields[1])
        float(fields[3]), float(fields[4]), float(fields[5])
        assert float(fields[6]) > 0
        assert fields[8] in ("0", "1") and fields[9] in ("0", "1")


def test_simulate_seed_determinism(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _sim_config(trials=5, seed=42))
    out1, out2, out3 = (tmp_path / n for n in ["a.csv", "b.csv", "c.csv"])
    assert _run(capsys, ["simulate", "--config", cfg, "--out", str(out1)])[0] == 0
    assert _run(capsys, ["simulate", "--config", cfg, "--out", str(out2)])[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert _run(capsys, ["simulate", "--config", cfg, "--out", str(out3), "--seed", "43"])[0] == 0
    assert out1.read_bytes() != out3.read_bytes()


def test_simulate_negative_seed_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _sim_config())
    out = tmp_path / "x.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: simulation: seed must be a non-negative integer, got -1\n"
    assert not out.exists()
    cfg = _write(tmp_path, "c.json", _sim_config(seed=-1))
    assert _run(capsys, ["simulate", "--config", cfg, "--out", str(out)])[0] == 2


def test_simulate_trials_zero_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _sim_config(trials=0))
    assert _run(capsys, ["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])[0] == 2
    cfg = _write(tmp_path, "c.json", _sim_config())
    assert _run(capsys, ["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv"), "--trials", "0"])[0] == 2


@pytest.mark.parametrize("overrides, args, message", [
    pytest.param({"alpha_mode": "zf"}, [], "unknown alpha_mode 'zf'", id="alpha_mode"),
    pytest.param({"P": 0}, [], "P must be positive and finite, got 0.0", id="P"),
    pytest.param({"trials": 0}, [], "trials must be >= 1", id="trials"),
    pytest.param({}, ["--trials", "0"], "trials must be >= 1", id="--trials"),
    pytest.param({"seed": -1}, [], "seed must be a non-negative integer, got -1", id="seed"),
])
def test_simulate_reports_the_library_refusal_of_a_value(tmp_path, capsys, overrides, args, message):
    # make_pair and run_trials check these values; the CLI reports their
    # refusal before it writes any CSV
    cfg = _write(tmp_path, "c.json", _sim_config(**overrides))
    out = tmp_path / "x.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)] + args) == 2
    assert capsys.readouterr().err == f"error: simulation: {message}\n"
    assert not out.exists()


def test_simulate_trials_override_runs_that_many_trials(tmp_path, capsys):
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    cfg = _write(tmp_path, "c.json", _sim_config(trials=3))
    assert _run(capsys, ["simulate", "--config", cfg, "--out", str(want)])[0] == 0
    cfg = _write(tmp_path, "c.json", _sim_config(trials=5))
    assert _run(capsys, ["simulate", "--config", cfg, "--out", str(got), "--trials", "3"])[0] == 0
    assert got.read_bytes() == want.read_bytes()
    assert len(got.read_text().splitlines()) == 1 + 3 * 2


def test_simulate_noiseless_must_be_a_boolean(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _sim_config(noiseless=1))
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "error: simulation.noiseless: expected true or false\n"


def test_simulate_schema_violations(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    bad = [
        _sim_config(alpha_mode="zf"),
        _sim_config(P=0),
        _sim_config(K=0),
        _sim_config(fixed_H=[[1.0, 0.0]]),  # not M x K x 2
        _sim_config(extra_key=1),
        _sim_config(multistage=True),  # removed key: rejected, not ignored
        {"construction": PI_A6},  # no simulation section
    ]
    for doc in bad:
        cfg = _write(tmp_path, "c.json", doc)
        assert _run(capsys, ["simulate", "--config", cfg, "--out", out])[0] == 2


def test_max_norm_cap_errors_are_the_same_for_search_and_simulate(tmp_path, capsys):
    cases = [
        ({"max_norm_cap": -1.0}, "error: search.max_norm_cap: must be positive\n"),
        ({"max_norm_cap": "4"}, "error: search.max_norm_cap: expected a number\n"),
        ({"max_norm_cap": 4.0, "oops": 1}, "error: search: unknown keys ['oops']\n"),
        ([4.0], "error: search: expected an object\n"),
    ]
    for search, want in cases:
        doc = dict(_sim_config(), search=search)
        cfg = _write(tmp_path, "c.json", doc)
        for args in (["search", "--h", "1,0.5", "--power", "2", "--config", cfg],
                     ["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]):
            assert cli.main(args) == 2
            assert capsys.readouterr().err == want


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "10**400"])
def test_non_finite_config_numbers_are_refused_and_named(tmp_path, capsys, value):
    cfg = _write(tmp_path, "c.json", _sim_config(P=value))
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "error: simulation.P: must be finite\n"
    cfg = _write(tmp_path, "c.json", dict(_sim_config(), search={"max_norm_cap": value}))
    for args in (["search", "--h", "1,0.5", "--power", "2", "--config", cfg],
                 ["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]):
        assert cli.main(args) == 2
        assert capsys.readouterr().err == "error: search.max_norm_cap: must be finite\n"
    assert not (tmp_path / "x.csv").exists()


def test_simulate_search_failure_names_the_simulation(tmp_path, capsys):
    # a valid construction whose coefficient search the cap leaves empty
    doc = dict(_sim_config(), search={"max_norm_cap": 0.5})
    cfg = _write(tmp_path, "c.json", doc)
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: simulation: trial 0, relay 0: empty search space; raise max_norm_cap\n"


def test_simulate_a_ok_is_a_simulation_refusal(tmp_path, capsys):
    # a valid A_OK construction the simulator does not run: exit 2, not 3
    doc = {"construction": ROUND_TRIP_CONFIGS[-1], "simulation": _sim_config()["simulation"]}
    cfg = _write(tmp_path, "c.json", doc)
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("error: simulation: a real-ambient lattice is needed, "
                   "got A_OK over PrimeIdeal((17, xi-6), d=-15, split)\n")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("verb", ["construct", "simulate"])
def test_unwritable_out_is_an_error_naming_the_path(tmp_path, capsys, verb):
    cfg = _write(tmp_path, "c.json", _sim_config())
    out = str(tmp_path / "missing" / "out")
    code = cli.main([verb, "--config", cfg, "--out", out])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and out in err


def test_simulate_k6_runs_to_completion(tmp_path, capsys):
    # bounds up to ~60 over Z^6: the box count refused these searches
    cfg = _write(tmp_path, "c.json", _sim_config(K=6, M=1, P=10.0, trials=20, seed=1))
    out = tmp_path / "x.csv"
    assert _run(capsys, ["simulate", "--config", cfg, "--out", str(out)])[0] == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 20
    assert all(r.split(",")[2].count(";") == 5 for r in rows)


def test_simulate_noiseless_integer_H_all_decode(tmp_path, capsys):
    H = [[[1, 0], [2, 0]], [[2, 0], [1, 0]]]
    cfg = _write(
        tmp_path, "c.json",
        _sim_config(trials=5, fixed_H=H, noiseless=True, alpha_mode="unit"),
    )
    out = tmp_path / "run.csv"
    assert _run(capsys, ["simulate", "--config", cfg, "--out", str(out)])[0] == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 10
    assert all(r[8] == "1" for r in rows)
    assert all(r[9] == "0" for r in rows)
    assert all(float(r[7]) == 0.0 for r in rows)


@pytest.mark.parametrize("cap", [0.5, 1.5, 100.0])
def test_simulate_refuses_noiseless_with_a_max_norm_cap(tmp_path, capsys, cap):
    # a noiseless run does no coefficient search, so the cap would change
    # nothing: the same CSV for every cap, or none
    doc = dict(_sim_config(noiseless=True, alpha_mode="unit"), search={"max_norm_cap": cap})
    cfg = _write(tmp_path, "c.json", doc)
    out = tmp_path / "x.csv"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: simulation: a noiseless run does no coefficient search, "
        "so max_norm_cap would be ignored\n")
    assert not out.exists()


def test_simulate_mid_run_refusal_names_the_trial_and_relay(tmp_path, capsys):
    # a random H whose real part rounds to zero at trial 4, relay 1
    cfg = _write(tmp_path, "c.json", _sim_config(noiseless=True, alpha_mode="unit", trials=5, seed=6))
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: simulation: trial 4, relay 1: relay coefficient vector is zero\n")


def test_simulate_noiseless_rate_refusal_names_the_trial_and_relay(tmp_path, capsys):
    # 1 + P|h|^2 overflows at the first relay's rate
    H = [[[1, 0], [2, 0]], [[3, 0], [1, 0]]]
    cfg = _write(tmp_path, "c.json", _sim_config(P=1e308, fixed_H=H, noiseless=True))
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: simulation: trial 0, relay 0: 1 + P|h|^2 overflows; lower P or |h|\n")


# ---------------------------------------------------------------------------
# descriptor round-trips
# ---------------------------------------------------------------------------

ROUND_TRIP_CONFIGS = [
    {"kind": "A", "codes": [REP2]},
    {"kind": "D", "chain": {"prime": 2, "N": 2, "basis": [1, 1, 0, 1], "dims": [1, 2]}},
    PI_A6,
    {"kind": "piD", "q": 12, "codes": [Z4, REP3]},
    {"kind": "A_OK", "quadratic": {"d": -15, "p": 17, "root": 6},
     "codes": [{"prime": 17, "power": 1, "N": 2, "n": 1, "rows": [1, 1]}]},
]


@pytest.mark.parametrize("construction", ROUND_TRIP_CONFIGS, ids=lambda c: c["kind"])
def test_descriptor_round_trip(tmp_path, capsys, construction):
    original = cli.build_construction(construction)
    cfg = _write(tmp_path, "c.json", {"construction": construction})
    out = tmp_path / "lat.json"
    assert _run(capsys, ["construct", "--config", cfg, "--out", str(out)])[0] == 0
    reparsed = cli.descriptor_from_json(json.loads(out.read_text()))

    assert cli.descriptor_to_json(reparsed) == cli.descriptor_to_json(original)

    rng = np.random.default_rng(5)
    if original.ambient == "real":
        q = original.q
        vectors = rng.integers(-2 * q, 2 * q + 1, size=(1000, original.N))
        for v in vectors:
            assert contains(reparsed, v) == contains(original, v)
    else:
        ring = original.ideal.ring
        coords = rng.integers(-20, 21, size=(1000, original.N, 2))
        for block in coords:
            v = [ring.element(int(a), int(b)) for a, b in block]
            assert contains(reparsed, v) == contains(original, v)


def test_inert_a_ok_descriptor_round_trips_and_answers_member(tmp_path, capsys):
    # an inert prime has one ideal above it, so the descriptor names no root
    construction = {"kind": "A_OK", "quadratic": {"d": -1, "p": 3},
                    "codes": [{"prime": 3, "power": 2, "N": 2, "n": 1, "rows": [1, 5]}]}
    cfg = _write(tmp_path, "c.json", {"construction": construction})
    out = tmp_path / "lat.json"
    assert _run(capsys, ["construct", "--config", cfg, "--out", str(out)])[0] == 0
    doc = json.loads(out.read_text())
    assert doc["quadratic"] == {"d": -1, "p": 3}
    assert cli.descriptor_to_json(cli.descriptor_from_json(doc)) == doc
    assert _run(capsys, ["member", "--config", str(out), "--vector", "0,0"]) == (0, "in\n")
    assert _run(capsys, ["member", "--config", str(out), "--vector", "1,1"]) == (1, "out\n")


def test_round_trip_hits_both_verdicts(tmp_path, capsys):
    # the random sweep above is only meaningful if both verdicts occur
    lat = cli.build_construction(PI_A6)
    rng = np.random.default_rng(5)
    vectors = rng.integers(-12, 13, size=(1000, 2))
    verdicts = {contains(lat, v) for v in vectors}
    assert verdicts == {True, False}


@pytest.mark.parametrize("construction, edits", [
    pytest.param(PI_A6, {"N": 5, "ambient": "complex"}, id="piA-N,ambient"),
    pytest.param(PI_A6, {"ambient": "complex"}, id="piA-ambient"),
    pytest.param(PI_A6, {"N": 2.0}, id="piA-N-not-an-integer"),
    pytest.param(PI_A6, {"moduli": [3, 2]}, id="piA-moduli"),
    pytest.param(ROUND_TRIP_CONFIGS[0], {"moduli": [3]}, id="A-moduli"),
    pytest.param(ROUND_TRIP_CONFIGS[1], {"moduli": [8]}, id="D-moduli"),
    pytest.param(ROUND_TRIP_CONFIGS[3], {"moduli": [3, 4]}, id="piD-moduli"),
    pytest.param(ROUND_TRIP_CONFIGS[3], {"moduli": 12}, id="piD-moduli-not-a-list"),
    pytest.param(ROUND_TRIP_CONFIGS[4], {"N": 3}, id="A_OK-N"),
])
def test_member_rejects_a_descriptor_key_the_lattice_contradicts(tmp_path, capsys, construction, edits):
    # N, ambient and moduli follow from the construction keys; a descriptor
    # that disagrees with them is refused, naming the first such key
    cfg = _write(tmp_path, "c.json", {"construction": construction})
    desc = tmp_path / "lat.json"
    assert _run(capsys, ["construct", "--config", cfg, "--out", str(desc)])[0] == 0
    doc = json.loads(desc.read_text())
    doc.update(edits)
    desc.write_text(json.dumps(doc))
    vector = "0+0i,0+0i" if construction["kind"] == "A_OK" else "0,0"
    code = cli.main(["member", "--config", str(desc), "--vector", vector])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: descriptor.{next(iter(edits))}: "), err


@pytest.mark.parametrize("construction, drop, want", [
    pytest.param(PI_A6, "kind", "descriptor: missing kind", id="no-kind"),
    pytest.param(ROUND_TRIP_CONFIGS[3], "moduli", "descriptor: piD needs moduli", id="piD-no-moduli"),
])
def test_member_refuses_a_descriptor_without_a_needed_key(tmp_path, capsys, construction, drop, want):
    cfg = _write(tmp_path, "c.json", {"construction": construction})
    desc = tmp_path / "lat.json"
    assert _run(capsys, ["construct", "--config", cfg, "--out", str(desc)])[0] == 0
    doc = json.loads(desc.read_text())
    del doc[drop]
    desc.write_text(json.dumps(doc))
    assert cli.main(["member", "--config", str(desc), "--vector", "0,0"]) == 2
    assert capsys.readouterr().err == f"error: {want}\n"


def test_construct_a_ok_power_mismatch(tmp_path, capsys):
    # split prime has residue degree 1; a power-2 code entry is a mismatch
    cfg = _write(
        tmp_path, "c.json",
        {"construction": {"kind": "A_OK", "quadratic": {"d": -15, "p": 17},
                          "codes": [{"prime": 17, "power": 2, "N": 1, "n": 1, "rows": [1]}]}},
    )
    assert cli.main(["construct", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 3
    assert capsys.readouterr().err == "construction error: code alphabet 17^2 does not match the residue field 17^1\n"
    # a root that names no prime above p
    doc = {**ROUND_TRIP_CONFIGS[-1], "quadratic": {"d": -15, "p": 17, "root": 5}}
    cfg = _write(tmp_path, "c.json", {"construction": doc})
    assert cli.main(["construct", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 3
    assert capsys.readouterr().err == "construction error: no prime above 17 with root 5\n"


@pytest.mark.parametrize("argv", [[], ["member", "--config", "x"], ["rate", "--power", "x"]])
def test_main_returns_2_with_argparse_usage_on_a_bad_command_line(capsys, argv):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: latcf") and "error:" in err


def test_main_help_returns_0(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: latcf")


def test_module_entry_point():
    # the child does not see pytest's pythonpath: give it this checkout's src
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "latcf.cli", "rate", "--h", "1+0i", "--a", "1", "--power", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2.000000000"
