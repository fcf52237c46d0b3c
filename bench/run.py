#!/usr/bin/env python3
"""latcf benchmark: end-to-end simulator throughput and a traced per-module run.

    python3 bench/run.py --workload sim-small --seed 3 --seconds 25 --trace 0
    python3 bench/run.py                     # every workload, each in its own process

Workloads (inputs under bench/workloads/; each exists to load one layer):

  sim-small   piA rep(2) x rep(3), K=2, M=1, fixed H, P=16.  The search runs
              once per block and quantization scans 6 cosets, so per-trial
              Python (run_trials, contains, encode, forward_vec,
              solve_encoding) dominates.
  sim-search  same lattice, random H, K=3, M=2, P=64.  Every relay draws a
              fresh h, so the search cache never hits and best_coefficients
              over Z dominates.
  sim-cosets  piD q=12, N=8 from a Z_4 and an F_3 code: 256 * 27 = 6912
              cosets, random H, K=2, M=2, P=16.  quantize and the chain-ring
              solve_encoding dominate; the coset table makes set-up heavy.
  ok-relay    library loop over the complex-ambient code: best_coefficients
              over Z[w] (d=-3) for h in C^2 at P=8, then quantize near the
              A_OK lattice (p=7, N=3, row [1,3,5]).

Load model: closed loop, one client, one process, one thread.  A sim-*
unit is one block of `simulation.trials` trials: `cfsim.run_trials` on the
block seed, then `cli.write_csv`; the next block starts after the previous
returns.  Block b of a run with seed S uses simulator seed S + b * 2**32, so
block 0 is exactly `latcf simulate --config <workload>.json --seed S`.  An
ok-relay unit is one round of `ops_per_round` relay steps drawn from
default_rng([S, round]), except the three quantities of h that set the
search cost (||h||^2, |h_1|^2 / ||h||^2 and the phase between h_1 and
h_2): op i takes their quantiles at point i of an R3 sequence from a
seeded start.  h stays CN(0, I) in law, but every run covers the heavy
search-cost tail evenly; bench/baseline.json compares the spread of ten
runs drawn this way with ten runs of independent draws.

With --trace 0 the run reports the end-to-end metrics.  Every timed
interval (an op, a block, a set-up) is scaled for the speed the shared
host lends the process at that moment, measured by a fixed reference
loop timed after each interval (see hostspeed.py).  Set-up (JSON text
to a ready lattice, fresh objects) runs a fixed number of times per
workload, spread evenly over the timed run, and setup_s is the median.
With --trace 1 the run replays a fixed number of units twice each,
untraced and with spans around the public functions listed in TARGETS,
and reports per-op calls and self time per function (raw wall time),
the sentinel counts, and the tracing overhead.

Correctness: every run recomputes the golden hashes in golden.json (the
CSV of `latcf simulate` at the listed seeds, run in-process through
`cli.main`; for ok-relay the outputs of round 0) and checks that timed
block 0 hashes the same as the CLI at the run's own seed.  A seed that
golden.json does not list reports `unchecked` for itself.  ok-relay also
checks each op: contains(lat, quantize(...)) holds and the reported rate
equals computation_rate(h, a, P).  Any mismatch prints "correct": false
and exits 1.  Without src/latcf next to bench/ the command exits 2 and
prints no result.  Without --workload the command runs every workload in
its own process and ends with one result line for all of them, its
metrics keyed by workload.
"""

from __future__ import annotations

# pin native thread pools before numpy loads; the simulator's own thread
# knob is removed so the load is one thread
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LATCF_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import REFERENCE_NS, HostSpeed, WallClock  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# name -> (input file, set-ups per timed run, units a traced run replays
# per second of --seconds; each unit runs twice, and the rate keeps the
# run near --seconds)
WORKLOADS = {
    "sim-small": ("sim-small.json", 400, 10.0),
    "sim-search": ("sim-search.json", 400, 8.0),
    "sim-cosets": ("sim-cosets.json", 30, 7.0),
    "ok-relay": ("ok-relay.json", 100, 0.45),
}

# (metric name, owner inside latcf, attribute): the public functions the
# traced run wraps, wherever latcf binds them
TARGETS = [
    ("cfsim.run_trials", "cfsim", "run_trials"),
    ("cfsim.best_coefficients", "cfsim", "best_coefficients"),
    ("cfsim.encode_source", "cfsim", "encode_source"),
    ("cfsim.relay_process", "cfsim", "relay_process"),
    ("cfsim.decode_function", "cfsim", "decode_function"),
    ("lattices.quantize", "lattices", "quantize"),
    ("lattices.contains", "lattices", "contains"),
    ("lattices.mod_coarse", "lattices", "mod_coarse"),
    ("codes.solve_encoding", "codes", "solve_encoding"),
    ("codes.encode", "codes", "encode"),
    ("algebra.CrtMap.forward_vec", "algebra.CrtMap", "forward_vec"),
    ("cli.write_csv", "cli", "write_csv"),
]

BLOCK_SEED_STRIDE = 2**32
# the R3 sequence: multiples of rho^-1, rho^-2, rho^-3 (rho the plastic
# number, x^3 = x + 1) fill the unit cube evenly in every prefix
PLASTIC = 1.324717957244746
R3 = np.array([PLASTIC ** -1, PLASTIC ** -2, PLASTIC ** -3])
SETUP_TRACE_REPS = 7  # set-ups before a traced run


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Setup:
    seconds: float
    build_construction_ms: float
    first_quantize_ms: float


@dataclass
class Unit:
    busy_ns: float  # time of the unit's ops, corrected for host speed
    samples_us: list  # per-op time samples, corrected for host speed
    ops: int
    failed: int
    decode_ok: int
    digest: str | None  # sha256 of the unit's outputs, None if an op raised


@dataclass
class Pass:
    units: list = field(default_factory=list)

    @property
    def ops(self):
        return sum(u.ops for u in self.units)

    @property
    def failed(self):
        return sum(u.failed for u in self.units)

    @property
    def busy_s(self):
        return sum(u.busy_ns for u in self.units) / 1e9

    @property
    def samples(self):
        return [s for u in self.units for s in u.samples_us]

    @property
    def digests(self):
        return [u.digest for u in self.units]

    def ops_per_s(self):
        return (self.ops - self.failed) / self.busy_s


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class SimWorkload:
    """A `latcf simulate` config: an op is one trial, a unit one block."""

    def __init__(self, lib, name: str, path: Path, tmp: Path):
        self.lib = lib
        self.name = name
        self.path = path
        self.text = path.read_text(encoding="utf-8")
        sim = json.loads(self.text)["simulation"]
        self.block = sim["trials"]
        self.M = sim["M"]
        self.csv = tmp / f"{name}.csv"
        self.ref_csv = tmp / f"{name}.cli.csv"
        self.problems: list[str] = []
        self.host = WallClock()

    def setup(self):
        lib = self.lib
        t0 = time.perf_counter()
        doc = json.loads(self.text)
        sim = doc["simulation"]
        t1 = time.perf_counter()
        fine = lib.cli.build_construction(doc["construction"])
        t2 = time.perf_counter()
        P = float(sim["P"])
        pair = lib.cfsim.make_pair(fine, P)
        fixed_H = sim.get("fixed_H")
        if fixed_H is not None:
            fixed_H = np.array([[complex(re, im) for re, im in row] for row in fixed_H])
        config = lib.cfsim.SimConfig(
            pair=pair, K=sim["K"], M=sim["M"], P=P,
            alpha_mode=sim.get("alpha_mode", "mmse"), fixed_H=fixed_H,
            max_norm_cap=doc.get("search", {}).get("max_norm_cap"),
        )
        t3 = time.perf_counter()
        lib.lattices.quantize(fine, np.zeros(fine.N))  # builds the coset table
        t4 = time.perf_counter()
        return config, Setup(t4 - t0, (t2 - t1) * 1e3, (t4 - t3) * 1e3)

    def cosets(self, config) -> int:
        return math.prod(len(self.lib.codes.codebook(c)) for c in config.pair.fine.codes)

    def unit(self, config, seed: int, b: int, tracer=None) -> Unit:
        lib = self.lib
        if tracer is not None:
            tracer.op = b
        t0 = time.perf_counter_ns()
        try:
            records = lib.cfsim.run_trials(config, self.block, seed + b * BLOCK_SEED_STRIDE)
            lib.cli.write_csv(records, self.csv)
        except Exception:  # an op that raised counts as failed, the run goes on
            traceback.print_exc(file=sys.stderr)
            busy = (time.perf_counter_ns() - t0) * self.host.factor()
            return Unit(busy, [], self.block, self.block, 0, None)
        busy = (time.perf_counter_ns() - t0) * self.host.factor()
        layout = [(r.trial, r.relay) for r in records]
        if layout != [(t, m) for t in range(self.block) for m in range(self.M)]:
            self.problems.append(f"block {b}: records are not one per (trial, relay)")
        ok = sum(r.decode_ok for r in records)
        return Unit(busy, [busy / 1e3 / self.block], self.block, 0, ok,
                    sha256(self.csv.read_bytes()))

    def reference_digest(self, config, seed: int) -> str | None:
        """sha256 of the CSV `latcf simulate` writes for this seed."""
        argv = ["simulate", "--config", str(self.path), "--out", str(self.ref_csv),
                "--seed", str(seed)]
        if self.lib.cli.main(argv) != 0:
            return None
        return sha256(self.ref_csv.read_bytes())


def gamma_ppf(u: np.ndarray, k: int) -> np.ndarray:
    """Inverse CDF of Gamma(k, 1) for integer k, by bisection."""
    lo, hi = np.zeros_like(u), np.full_like(u, 100.0)
    for _ in range(64):
        mid = (lo + hi) / 2
        term, tail = np.ones_like(mid), np.ones_like(mid)
        for i in range(1, k):
            term = term * mid / i
            tail = tail + term
        below = 1.0 - np.exp(-mid) * tail < u
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return (lo + hi) / 2


class OkRelayWorkload:
    """Relay steps over Z[w]: an op is best_coefficients plus one quantize
    near the A_OK lattice, a unit one round of ops."""

    def __init__(self, lib, name: str, path: Path, tmp: Path):
        self.lib = lib
        self.name = name
        self.text = path.read_text(encoding="utf-8")
        relay = json.loads(self.text)["relay"]
        if relay["K"] != 2:
            raise ValueError("ok-relay draws h in C^2: relay.K must be 2")
        self.P = float(relay["P"])
        self.ring_d = relay["coefficient_ring_d"]
        self.noise_std = float(relay["noise_std"])
        self.block = relay["ops_per_round"]
        self.M = 1  # one relay step per op
        # per-op checks call the originals, so a traced run does not count them
        self.contains = lib.lattices.contains
        self.computation_rate = lib.cfsim.computation_rate
        self.problems: list[str] = []
        self.host = WallClock()

    def setup(self):
        lib = self.lib
        t0 = time.perf_counter()
        doc = json.loads(self.text)
        t1 = time.perf_counter()
        lat = lib.cli.build_construction(doc["construction"])
        t2 = time.perf_counter()
        ring = lib.algebra.make_quadratic_ring(self.ring_d)
        t3 = time.perf_counter()
        lib.lattices.quantize(lat, np.zeros(lat.N, dtype=complex))  # builds the codebook
        t4 = time.perf_counter()
        return (lat, ring), Setup(t4 - t0, (t2 - t1) * 1e3, (t4 - t3) * 1e3)

    def cosets(self, state) -> int:
        lat, _ = state
        return len(self.lib.codes.codebook(lat.codes[0]))

    def inputs(self, lat, seed: int, r: int):
        rng = np.random.default_rng([seed, r])
        R, N = self.block, lat.N
        # h ~ CN(0, I_2) is ||h||^2 ~ Gamma(2, 1), |h_1|^2 / ||h||^2 and
        # (arg h_2 - arg h_1) / 2pi uniform on [0, 1), and a uniform common
        # phase, all independent.  The first three set the search cost;
        # they run through their quantiles along an R3 sequence from a
        # seeded start, so every run covers the heavy cost tail evenly
        start = np.random.default_rng([seed]).random(3)
        u = (start + np.arange(r * R, (r + 1) * R)[:, None] * R3) % 1.0
        norm = np.sqrt(gamma_ppf(u[:, 0], 2))
        phase = rng.uniform(0.0, 2 * np.pi, R)
        H = norm[:, None] * np.stack(
            [np.sqrt(u[:, 1]) * np.exp(1j * phase),
             np.sqrt(1 - u[:, 1]) * np.exp(1j * (phase + 2 * np.pi * u[:, 2]))], axis=1)
        code = lat.codes[0]
        p = code.alphabet.size
        msgs = rng.integers(0, p, size=(R, code.n))
        shifts = rng.integers(-2, 3, size=(R, N, 2))
        noise = self.noise_std * (rng.standard_normal((R, N)) + 1j * rng.standard_normal((R, N)))
        b1, b2 = lat.ideal.basis()
        G = np.array(code.G, dtype=np.int64).reshape(code.n, N)
        sent, Y = [], np.empty((R, N), dtype=complex)
        for j in range(R):
            word = (msgs[j] @ G) % p
            point = tuple(
                lat.map.to_ring(int(word[i])) + b1 * int(shifts[j, i, 0]) + b2 * int(shifts[j, i, 1])
                for i in range(N)
            )
            sent.append(point)
            Y[j] = [x.to_complex() for x in point] + noise[j]
        return H, Y, sent

    def unit(self, state, seed: int, r: int, tracer=None) -> Unit:
        lib = self.lib
        lat, ring = state
        H, Y, sent = self.inputs(lat, seed, r)
        samples, lines, busy, failed, ok = [], [], 0, 0, 0
        for j in range(self.block):
            op = r * self.block + j
            if tracer is not None:
                tracer.op = op
            t0 = time.perf_counter_ns()
            try:
                res = lib.cfsim.best_coefficients(H[j], self.P, ring=ring)
                xq = lib.lattices.quantize(lat, Y[j])
            except Exception:  # an op that raised counts as failed, the run goes on
                traceback.print_exc(file=sys.stderr)
                busy += (time.perf_counter_ns() - t0) * self.host.factor()
                failed += 1
                continue
            dt = (time.perf_counter_ns() - t0) * self.host.factor()
            busy += dt
            samples.append(dt / 1e3)
            rate = self.computation_rate(H[j], res.a, self.P)
            if not math.isclose(rate, res.rate, rel_tol=1e-9, abs_tol=1e-12):
                self.problems.append(f"op {op}: rate {res.rate!r} != computation_rate {rate!r}")
            if not self.contains(lat, xq):
                self.problems.append(f"op {op}: quantize returned a point outside the lattice")
            ok += tuple(xq) == sent[j]
            a = ";".join(f"{x.a}:{x.b}" for x in res.a)
            x = ";".join(f"{c.a}:{c.b}" for c in xq)
            lines.append(f"{op},{a},{format(res.rate, '.12g')},{x}")
        digest = None if failed else sha256(("\n".join(lines) + "\n").encode())
        return Unit(busy, samples, self.block, failed, ok, digest)

    def reference_digest(self, state, seed: int) -> str | None:
        """sha256 of round 0's outputs for this seed."""
        return self.unit(state, seed, 0).digest


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def load_latcf():
    """Import latcf from this checkout's src/, never from site-packages."""
    if not (SRC / "latcf" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import latcf
    from latcf import algebra, cfsim, cli, codes, lattices

    if Path(latcf.__file__).resolve().parent != (SRC / "latcf").resolve():
        return None
    return SimpleNamespace(latcf=latcf, algebra=algebra, codes=codes,
                           lattices=lattices, cfsim=cfsim, cli=cli)


class SetupTimes:
    """Set-up from the JSON text, repeated with fresh objects.

    Timed runs spread a fixed number of set-ups evenly over the run, so
    their median covers the same stretch of machine time as the op
    metrics rather than one second of it.
    """

    def __init__(self, wl):
        self.wl = wl
        self.runs: list[Setup] = []

    def once(self):
        state, s = self.wl.setup()
        f = self.wl.host.factor()
        self.runs.append(Setup(s.seconds * f, s.build_construction_ms * f,
                               s.first_quantize_ms * f))
        return state

    def spread_over(self, count: int, seconds: float):
        """A `between` hook for run_units: after a unit, set up until
        `count` set-ups are due by the elapsed share of `seconds`."""
        done = len(self.runs)

        def between(elapsed):
            due = done + math.ceil(count * min(elapsed / seconds, 1.0))
            while len(self.runs) < due:
                self.once()

        return between

    def median(self) -> Setup:
        return Setup(*(statistics.median(getattr(s, f) for s in self.runs)
                       for f in ("seconds", "build_construction_ms", "first_quantize_ms")))


def run_units(wl, state, seed, seconds, between) -> Pass:
    """Closed loop for `seconds`: unit i+1 starts only after unit i has
    returned.  `between(elapsed)` runs after each unit, outside the timed ops."""
    out, start, i = Pass(), time.perf_counter(), 0
    while time.perf_counter() - start < seconds:
        out.units.append(wl.unit(state, seed, i))
        i += 1
        between(time.perf_counter() - start)
    return out


def add_targets(lib, tracer: Tracer) -> list[str]:
    """Prepare spans around TARGETS; returns the names latcf lacks."""
    namespaces = [lib.latcf, lib.algebra, lib.codes, lib.lattices, lib.cfsim, lib.cli]
    missing = []
    for name, owner_path, attr in TARGETS:
        owner = lib
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        if attr not in vars(owner):
            missing.append(name)
            continue
        tracer.add(name, owner, attr, namespaces)
    return missing


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "commit": git_commit()}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def percentile_stats(samples):
    """Median and p95 (interpolated), with the count of samples beyond p95."""
    if len(samples) < 2:
        v = samples[0] if samples else float("nan")
        return v, v, 0
    p95 = statistics.quantiles(samples, n=20)[-1]
    return statistics.median(samples), p95, sum(s > p95 for s in samples)


def run_workload(lib, name, seed, seconds, trace):
    tmp = OUT / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return _run_workload(lib, name, seed, seconds, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run_workload(lib, name, seed, seconds, trace, tmp):
    file, setups, trace_rate = WORKLOADS[name]
    cls = OkRelayWorkload if name == "ok-relay" else SimWorkload
    wl = cls(lib, name, BENCH / "workloads" / file, tmp)
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "machine": machine(),
            "load": {"model": "closed loop", "clients": 1, "processes": 1,
                     "ops_per_unit": wl.block,
                     "op": "relay step" if name == "ok-relay" else "simulator trial"}}
    print(f"# {name}: seed {seed}, {seconds:g} s, trace {trace}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in info["machine"].items()))
    print(f"# load: closed loop, 1 client, 1 process; unit = {wl.block} ops")

    if not trace:
        wl.host = HostSpeed()
    setup = SetupTimes(wl)
    state = setup.once()

    # golden checks at the listed seeds; they also warm up every code path
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8")).get(name, {})
    checks = {}
    for s, want in sorted(golden.items(), key=lambda kv: int(kv[0])):
        got = wl.reference_digest(state, int(s))
        checks[f"golden seed {s}"] = "pass" if got == want else f"fail (got {got})"

    metrics = {}
    if trace:
        for _ in range(SETUP_TRACE_REPS - 1):
            setup.once()
        attempted, failed, digest = _traced(lib, wl, state, seed, seconds, trace_rate,
                                            setup.median(), checks, metrics)
    else:
        timed = run_units(wl, state, seed, seconds, setup.spread_over(setups, seconds))
        attempted, failed, digest = timed.ops, timed.failed, timed.digests[0]
        p50, p95, beyond = percentile_stats(timed.samples)
        n = len(timed.samples)
        kind = "blocks" if name != "ok-relay" else "ops"
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["ops_per_s"] = (timed.ops_per_s(), "ops/s",
                                f"{timed.ops - timed.failed} ops in {timed.busy_s:.3f} s")
        metrics["op_us_p50"] = (p50, "us", f"{n} {kind}")
        metrics["op_us_p95"] = (p95, "us", f"{n} {kind}, {beyond} beyond p95")
        metrics["setup_s"] = (setup.median().seconds, "s",
                              f"median of {len(setup.runs)} set-ups")
        metrics["peak_rss_mb"] = (rss, "MB", "1 process")
        probe = statistics.median(wl.host.probes) / 1e3
        info["host"] = {"reference_us": REFERENCE_NS / 1e3, "probe_us_p50": probe,
                        "probes": len(wl.host.probes)}
        print(f"# host: reference probe median {probe:.1f} us over {len(wl.host.probes)} "
              f"probes; times are scaled to {REFERENCE_NS / 1e3:g} us")
        metrics["op_fail_frac"] = (failed / max(attempted, 1), "ratio",
                                   f"{failed} of {attempted} ops")
        if name != "ok-relay":
            ref = wl.reference_digest(state, seed)
            checks["timed block 0 == latcf simulate"] = (
                "pass" if ref == digest else f"fail ({digest} vs {ref})")

    listed = golden.get(str(seed))
    checks[f"golden seed {seed} (this run)"] = (
        "unchecked (seed not listed)" if listed is None
        else "pass" if listed == digest else f"fail (got {digest})")
    for i, msg in enumerate(wl.problems[:20]):
        checks[f"op check {i}"] = f"fail ({msg})"
    if threading.active_count() != 1:
        checks["one thread"] = f"fail ({threading.active_count()} threads)"

    correct = all(not v.startswith("fail") for v in checks.values())
    for k, v in checks.items():
        print(f"# check {k}: {v}")
    for k, (v, unit, n) in metrics.items():
        print(f"{k:<44} {v:>14.6g} {unit:<9} ({n})")
    report = dict(info, checks=checks, output_sha256=digest,
                  metrics={k: {"value": v, "unit": u, "samples": n}
                           for k, (v, u, n) in metrics.items()})
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()
                    if k != "op_fail_frac"},
    }
    return result, report


def _traced(lib, wl, state, seed, seconds, trace_rate, setup, checks, metrics):
    """Run each unit untraced and traced, in alternating order so that a
    change in host speed hits both alike; fill the per-layer metrics."""
    count = max(2, round(seconds * trace_rate))
    tracer = Tracer()
    missing = add_targets(lib, tracer)
    plain, traced, left = Pass(), Pass(), set()
    for i in range(count):
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            if not on:
                plain.units.append(wl.unit(state, seed, i))
                continue
            tracer.patch()
            try:
                traced.units.append(wl.unit(state, seed, i, tracer))
            finally:
                left.update(tracer.restore())
    checks["every wrapped name restored"] = "pass" if not left else f"fail ({sorted(left)})"
    checks["traced outputs == untraced outputs"] = (
        "pass" if traced.digests == plain.digests else "fail")
    for name in missing:
        checks[f"traced {name}"] = "skipped (not found)"
    totals = tracer.totals(tracer.save(OUT / f"spans-{wl.name}.npz"))

    ops = traced.ops
    per = f"per op, {ops} ops"
    for name, _, _ in TARGETS:
        calls, self_ns = totals.get(name, (0, 0))
        metrics[f"{name}.calls"] = (calls / ops, "calls/op", per)
        metrics[f"{name}.self_us"] = (self_ns / 1e3 / ops, "us/op", per)
    searches = totals.get("cfsim.best_coefficients", (0, 0))[0]
    relays = ops * wl.M
    decode_ok = sum(u.decode_ok for u in traced.units)
    metrics["cfsim.search_cache_hit_ratio"] = (1 - searches / relays, "ratio",
                                               f"{searches} searches, {relays} relays")
    metrics["cfsim.decode_ok_ratio"] = (decode_ok / relays, "ratio", f"{relays} relays")
    metrics["lattices.quantize.cosets"] = (wl.cosets(state), "count", "lattice")
    metrics["lattices.first_quantize_ms"] = (setup.first_quantize_ms, "ms", "median set-up")
    metrics["cli.build_construction_ms"] = (setup.build_construction_ms, "ms",
                                            "median set-up")
    metrics["trace.overhead_ratio"] = (1 - traced.ops_per_s() / plain.ops_per_s(), "ratio",
                                       f"{plain.ops_per_s():.6g} vs "
                                       f"{traced.ops_per_s():.6g} ops/s")
    return plain.ops + traced.ops, plain.failed + traced.failed, traced.digests[0]


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another; the last
    line combines their results, metrics keyed by workload."""
    bad, results = [], {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            bad.append(name)
        try:
            results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            pass
    if bad:
        print(f"# FAILED: {', '.join(bad)}", file=sys.stderr)
    if len(results) == len(WORKLOADS):
        print(json.dumps({
            "correct": not bad and all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }))
    return 1 if bad else 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload in this process (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", help="also write the full report as JSON here")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    lib = load_latcf()
    if lib is None:
        print(f"error: no latcf sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    result, report = run_workload(lib, args.workload, args.seed, args.seconds, args.trace)
    if args.report:
        Path(args.report).write_text(json.dumps(dict(report, result=result), indent=1) + "\n",
                                     encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
