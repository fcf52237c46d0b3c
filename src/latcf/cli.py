"""Command-line front end.

Subcommands: construct (config -> lattice descriptor JSON), member
(descriptor + vector -> in/out verdict via exit code), rate (closed-form
computation rate), search (exact coefficient search by enumeration), simulate
(Monte Carlo trials -> CSV).

Config document layout (strict: unknown keys are rejected)::

    {
      "construction": {
        "kind": "A" | "D" | "piA" | "piD" | "A_OK",
        "codes": [{"prime": 2, "power": 1, "N": 2, "n": 1,
                   "rows": [1, 1]}, ...],          # row-major n*N entries
        "q": 12,                                    # piD only
        "moduli": [2, 3],                           # piA, optional cross-check
        "chain": {"prime": 2, "N": 2,               # D only
                  "basis": [1, 1, 0, 1], "dims": [1, 2]},
        "levels": 2,                                # D, default len(dims)
        "quadratic": {"d": -15, "p": 17, "root": 6} # A_OK; root optional
      },
      "simulation": {"K": 2, "M": 2, "P": 8.0, "trials": 100, "seed": 1,
                     "fixed_H": [[[1.0, 0.0], ...], ...],   # [re, im] pairs
                     "alpha_mode": "mmse", "noiseless": false},
      "search": {"max_norm_cap": 100.0}            # not with "noiseless": true
    }

Vector literals are comma-separated integers; complex-ambient lattices
take `a`, `bi`, `a+bi` or `a-bi` tokens, integer coordinates in the ring
basis (1, xi).  Channel literals use `<float>[+|-]<float>i` with no spaces.

Exit codes: 0 success (member: vector is in the lattice), 1 member
verdict "out", 2 schema or literal violation, a file that cannot be read
or written, or a search or simulation the inputs make impossible (e.g. a
coefficient search that visits too many nodes, or whose cap leaves it
empty, or a simulation over an A_OK lattice), 3 construction failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .algebra import ChainRing, ResidueFieldMap, factor_rational_prime, is_prime, make_quadratic_ring
from .cfsim import SimConfig, best_coefficients, computation_rate, make_pair, run_trials
from .codes import LinearCode, NestedCodeChain
from .lattices import (
    LatticeDescriptor,
    construction_a,
    construction_a_ok,
    construction_d,
    construction_pi_a,
    construction_pi_d,
    contains,
)

EXIT_IN = 0
EXIT_OUT = 1
EXIT_SCHEMA = 2
EXIT_CONSTRUCTION = 3


class SchemaError(Exception):
    pass


# ---------------------------------------------------------------------------
# schema plumbing
# ---------------------------------------------------------------------------


def _check_keys(obj, required, optional, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise SchemaError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")


def _get_int(obj, key, where, minimum=None):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{where}.{key}: expected an integer")
    if minimum is not None and v < minimum:
        raise SchemaError(f"{where}.{key}: must be >= {minimum}")
    return v


def _get_prime(obj, key, where):
    p = _get_int(obj, key, where, minimum=2)
    if not is_prime(p):
        raise SchemaError(f"{where}: {p} is not prime")
    return p


def _get_number(obj, key, where, positive=False):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{where}.{key}: expected a number")
    if not abs(v) <= sys.float_info.max:  # json reads NaN, Infinity and ints past a float's range
        raise SchemaError(f"{where}.{key}: must be finite")
    if positive and v <= 0:
        raise SchemaError(f"{where}.{key}: must be positive")
    return float(v)


def _max_norm_cap(doc):
    """search.max_norm_cap of a config document, None when unset."""
    search = doc.get("search", {})
    _check_keys(search, [], ["max_norm_cap"], "search")
    if "max_norm_cap" not in search:
        return None
    return _get_number(search, "max_norm_cap", "search", positive=True)


def _get_int_list(obj, key, where):
    v = obj[key]
    if not isinstance(v, list) or any(
        isinstance(x, bool) or not isinstance(x, int) for x in v
    ):
        raise SchemaError(f"{where}.{key}: expected a list of integers")
    return v


def _get_bool(obj, key, where, default):
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, bool):
        raise SchemaError(f"{where}.{key}: expected true or false")
    return v


# ---------------------------------------------------------------------------
# codes and constructions from JSON
# ---------------------------------------------------------------------------


def _code_from_json(doc, where, alphabet=None):
    _check_keys(doc, ["prime", "power", "N", "n", "rows"], [], where)
    p = _get_prime(doc, "prime", where)
    e = _get_int(doc, "power", where, minimum=1)
    N = _get_int(doc, "N", where, minimum=1)
    n = _get_int(doc, "n", where, minimum=0)
    rows = _get_int_list(doc, "rows", where)
    if len(rows) != n * N:
        raise SchemaError(f"{where}.rows: expected {n * N} entries, got {len(rows)}")
    if alphabet is None:
        alphabet = ChainRing(p, e)
    return LinearCode(alphabet, [rows[i * N:(i + 1) * N] for i in range(n)], N=N)


def _code_to_json(code, prime, power):
    return {
        "prime": prime,
        "power": power,
        "N": code.N,
        "n": code.n,
        "rows": [int(x) for row in code.G for x in row],
    }


def _chain_from_json(doc, where):
    _check_keys(doc, ["prime", "N", "basis", "dims"], [], where)
    p = _get_prime(doc, "prime", where)
    N = _get_int(doc, "N", where, minimum=1)
    basis = _get_int_list(doc, "basis", where)
    dims = _get_int_list(doc, "dims", where)
    if len(basis) != N * N:
        raise SchemaError(f"{where}.basis: expected {N * N} entries")
    return NestedCodeChain(p, [basis[i * N:(i + 1) * N] for i in range(N)], dims)


def _ideal_from_json(doc, where):
    _check_keys(doc, ["d", "p"], ["root"], where)
    d = _get_int(doc, "d", where)
    p = _get_prime(doc, "p", where)
    ring = make_quadratic_ring(d)
    ideals = factor_rational_prime(ring, p)
    if "root" in doc:
        root = _get_int(doc, "root", where)
        for ideal in ideals:
            if ideal.root == root:
                return ideal
        raise ValueError(f"no prime above {p} with root {root}")
    return ideals[0]


def build_construction(doc) -> LatticeDescriptor:
    """Construction section -> descriptor.  Schema faults raise
    SchemaError; mathematical faults raise ValueError."""
    kinds = {
        "A": (["codes"], []),
        "D": (["chain"], ["levels"]),
        "piA": (["codes"], ["moduli"]),
        "piD": (["q", "codes"], []),
        "A_OK": (["quadratic", "codes"], []),
    }
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError("construction: missing kind")
    kind = doc["kind"]
    if kind not in kinds:
        raise SchemaError(f"construction.kind: unknown kind {kind!r}")
    required, optional = kinds[kind]
    _check_keys(doc, ["kind"] + required, optional, "construction")

    if kind == "D":
        chain = _chain_from_json(doc["chain"], "construction.chain")
        levels = (
            _get_int(doc, "levels", "construction", minimum=1)
            if "levels" in doc
            else chain.levels
        )
        return construction_d(chain, levels)

    if kind == "A_OK":
        ideal = _ideal_from_json(doc["quadratic"], "construction.quadratic")
        codes = doc["codes"]
        if not isinstance(codes, list) or len(codes) != 1:
            raise SchemaError("construction.codes: A_OK takes exactly one code")
        entry = codes[0]
        field = ResidueFieldMap(ideal).field
        code = _code_from_json(entry, "construction.codes[0]", alphabet=field)
        if (entry["prime"], entry["power"]) != (ideal.p, ideal.f):
            raise ValueError(
                f"code alphabet {entry['prime']}^{entry['power']} does not match "
                f"the residue field {ideal.p}^{ideal.f}"
            )
        return construction_a_ok(code, ideal)

    codes_doc = doc.get("codes")
    if not isinstance(codes_doc, list) or not codes_doc:
        raise SchemaError("construction.codes: expected a nonempty list")
    codes = [
        _code_from_json(c, f"construction.codes[{i}]") for i, c in enumerate(codes_doc)
    ]
    if kind == "A":
        if len(codes) != 1:
            raise SchemaError("construction.codes: A takes exactly one code")
        return construction_a(codes[0])
    if kind == "piA":
        lat = construction_pi_a(codes)
        if "moduli" in doc:
            moduli = tuple(_get_int_list(doc, "moduli", "construction"))
            if moduli != lat.moduli:
                raise SchemaError(f"construction.moduli: {list(moduli)} does not match "
                                  f"the codes' {list(lat.moduli)}")
        return lat
    q = _get_int(doc, "q", "construction")
    return construction_pi_d(q, codes)


def descriptor_to_json(lat: LatticeDescriptor) -> dict:
    doc = {"kind": lat.kind, "N": lat.N, "ambient": lat.ambient}
    if lat.kind == "D":
        chain = lat.chain
        doc["moduli"] = [int(m) for m in lat.moduli]
        doc["chain"] = {
            "prime": chain.p,
            "N": chain.N,
            "basis": [int(x) for row in chain.basis for x in row],
            "dims": list(chain.dims),
        }
        doc["levels"] = lat.levels
        return doc
    if lat.ambient == "complex":
        ideal = lat.ideal
        doc["quadratic"] = {"d": ideal.ring.d, "p": ideal.p}
        if ideal.root is not None:
            doc["quadratic"]["root"] = ideal.root
        doc["codes"] = [_code_to_json(lat.codes[0], ideal.p, ideal.f)]
        return doc
    doc["moduli"] = [int(m) for m in lat.moduli]
    doc["codes"] = [_code_to_json(c, c.alphabet.p, c.alphabet.e) for c in lat.codes]
    return doc


def descriptor_from_json(doc) -> LatticeDescriptor:
    """The lattice of a descriptor_to_json document, built from its
    construction keys; N, ambient and moduli, which the lattice determines,
    must match it where given (piD's moduli give its q)."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError("descriptor: missing kind")
    derived = ("N", "ambient", "moduli")
    build = {key: value for key, value in doc.items() if key not in derived}
    if doc["kind"] == "piD":
        if doc.get("moduli") is None:
            raise SchemaError("descriptor: piD needs moduli")
        build["q"] = math.prod(_get_int_list(doc, "moduli", "descriptor"))
    lat = build_construction(build)
    built = descriptor_to_json(lat)
    for key in derived:
        if key in doc and json.dumps(doc[key]) != json.dumps(built.get(key)):  # 2.0 is not 2
            raise SchemaError(f"descriptor.{key}: {doc[key]!r} does not match "
                              f"the lattice's {built.get(key)!r}")
    return lat


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

# README's grammar, ASCII digits only: int() and float() would also take
# 1_0, inf, nan and other scripts' digits
_INT_RE = re.compile(r"[+-]?[0-9]+")
_UFLOAT = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_FLOAT = rf"[+-]?{_UFLOAT}"
_COMPLEX_RE = re.compile(rf"({_FLOAT})([+-]{_UFLOAT})i")
_IMAG_RE = re.compile(rf"({_FLOAT})i")
_REAL_RE = re.compile(_FLOAT)
# a ring element's coordinates: a, bi, a+bi or a-bi
_RING_RE = re.compile(r"([+-]?[0-9]+)(?:([+-][0-9]+)i)?|([+-]?[0-9]+)i")


def parse_complex_token(tok: str) -> complex:
    tok = tok.strip()
    if not tok:
        raise SchemaError("empty complex literal")
    m = _COMPLEX_RE.fullmatch(tok)
    if m:
        return complex(float(m.group(1)), float(m.group(2)))
    m = _IMAG_RE.fullmatch(tok)
    if m:
        return complex(0.0, float(m.group(1)))
    if _REAL_RE.fullmatch(tok):
        return complex(float(tok), 0.0)
    raise SchemaError(f"malformed complex literal {tok!r}")


def parse_complex_vector(text: str) -> np.ndarray:
    return np.array([parse_complex_token(t) for t in text.split(",")], dtype=complex)


def parse_int_vector(text: str):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not _INT_RE.fullmatch(tok):
            raise SchemaError(f"expected an integer, got {tok!r}")
        out.append(int(tok))
    return out


def parse_member_vector(text: str, lat: LatticeDescriptor):
    if lat.ambient == "real":
        return parse_int_vector(text)
    out = []
    for tok in text.split(","):
        m = _RING_RE.fullmatch(tok.strip())
        if not m:
            raise SchemaError(f"ring coordinates must be integers: {tok!r}")
        a, b, imag = m.groups()
        out.append(lat.ideal.ring.element(int(a or 0), int(b or imag or 0)))
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None


def _construction_section(doc):
    if isinstance(doc, dict) and "construction" in doc:
        _check_keys(
            doc, ["construction"], ["simulation", "search"], "config"
        )
        return doc["construction"]
    return doc


def _descriptor_from_path(path) -> LatticeDescriptor:
    doc = _load_json(path)
    if isinstance(doc, dict) and "construction" in doc:
        return build_construction(_construction_section(doc))
    return descriptor_from_json(doc)


def cmd_construct(args) -> int:
    doc = _load_json(args.config)
    lat = build_construction(_construction_section(doc))
    payload = json.dumps(descriptor_to_json(lat), sort_keys=True, indent=2) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(payload)
    return EXIT_IN


def cmd_member(args) -> int:
    lat = _descriptor_from_path(args.config)
    vec = parse_member_vector(args.vector, lat)
    if len(vec) != lat.N:
        raise SchemaError(f"vector has {len(vec)} entries, lattice dimension is {lat.N}")
    verdict = contains(lat, vec)
    print("in" if verdict else "out")
    return EXIT_IN if verdict else EXIT_OUT


def cmd_rate(args) -> int:
    h = parse_complex_vector(args.h)
    a = parse_int_vector(args.a)
    try:
        rate = computation_rate(h, a, args.power)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    print(f"{rate:.9f}")
    return EXIT_IN


def cmd_search(args) -> int:
    h = parse_complex_vector(args.h)
    cap = None
    if args.config:
        doc = _load_json(args.config)
        _check_keys(doc, [], ["construction", "simulation", "search"], "config")
        cap = _max_norm_cap(doc)
    try:
        res = best_coefficients(h, args.power, max_norm_cap=cap)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    print("a: " + ",".join(str(x) for x in res.a))
    print(f"rate_bits: {res.rate:.9f}")
    print(f"truncated: {'yes' if res.truncated else 'no'}")
    return EXIT_IN


def _simulation_config(doc):
    """(SimConfig, trials, seed) of a config; make_pair and run_trials check the values' ranges."""
    _check_keys(doc, ["construction", "simulation"], ["search"], "config")
    sim = doc["simulation"]
    _check_keys(
        sim,
        ["K", "M", "P", "trials", "seed"],
        ["fixed_H", "alpha_mode", "noiseless"],
        "simulation",
    )
    K = _get_int(sim, "K", "simulation", minimum=1)
    M = _get_int(sim, "M", "simulation", minimum=1)
    P = _get_number(sim, "P", "simulation")
    trials = _get_int(sim, "trials", "simulation")
    seed = _get_int(sim, "seed", "simulation")
    alpha_mode = sim.get("alpha_mode", "mmse")
    noiseless = _get_bool(sim, "noiseless", "simulation", False)
    fixed_H = None
    if "fixed_H" in sim:
        rows = sim["fixed_H"]
        shaped = isinstance(rows, list) and len(rows) == M and all(isinstance(r, list) and len(r) == K for r in rows)
        if not shaped or not all(isinstance(z, list) and len(z) == 2 and all(
                not isinstance(x, bool) and isinstance(x, (int, float)) for x in z) for r in rows for z in r):
            raise SchemaError("simulation.fixed_H: expected M x K [re, im] pairs")
        fixed_H = np.array([[complex(z[0], z[1]) for z in row] for row in rows], dtype=complex)
    cap = _max_norm_cap(doc)
    fine = build_construction(doc["construction"])
    try:
        pair = make_pair(fine, P)
    except ValueError as exc:
        raise SchemaError(f"simulation: {exc}") from None
    config = SimConfig(
        pair=pair,
        K=K,
        M=M,
        P=P,
        alpha_mode=alpha_mode,
        fixed_H=fixed_H,
        noiseless=noiseless,
        max_norm_cap=cap,
    )
    return config, trials, seed


def write_csv(records, path):
    lines = [
        "trial,relay,a,rate_bits,alpha_re,alpha_im,"
        "noise_var_analytic,noise_var_emp,decode_ok,zero_divisor_flag"
    ]
    for r in records:
        lines.append("%d,%d,%s,%.12g,%.12g,%.12g,%.12g,%.12g,%d,%d" % (
            r.trial, r.relay, ";".join(map(str, r.a)), r.rate_bits, r.alpha.real, r.alpha.imag,
            r.noise_var_analytic, r.noise_var_emp, r.decode_ok, r.zero_divisor_flag))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_simulate(args) -> int:
    doc = _load_json(args.config)
    config, trials, seed = _simulation_config(doc)
    if args.trials is not None:
        trials = args.trials
    if args.seed is not None:
        seed = args.seed
    try:
        records = run_trials(config, trials, seed)
    except ValueError as exc:
        raise SchemaError(f"simulation: {exc}") from None
    write_csv(records, args.out)
    return EXIT_IN


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcf",
        description="lattices from linear codes and a compute-and-forward simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a lattice descriptor from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("member", help="test lattice membership of a vector")
    p.add_argument("--config", required=True, help="descriptor or config JSON")
    p.add_argument("--vector", required=True)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("rate", help="computation rate for h, a, P")
    p.add_argument("--h", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--power", type=float, required=True)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("search", help="exact best-coefficient search (enumeration)")
    p.add_argument("--h", required=True)
    p.add_argument("--power", type=float, required=True)
    p.add_argument("--config", help="optional config providing search.max_norm_cap")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("simulate", help="run Monte Carlo trials and write CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trials", type=int, help="override simulation.trials")
    p.add_argument("--seed", type=int, help="override simulation.seed")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_SCHEMA if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SchemaError, OSError) as exc:  # an OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ValueError, ArithmeticError) as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION


if __name__ == "__main__":
    sys.exit(main())
