"""The CSVs `latcf simulate` writes for the bench's sim-* workloads, and
round 0 of the bench's ok-relay op stream, at seeds 1 and 97, hash to the
sha256 values recorded in bench/golden.json: the records stay
byte-identical in a test run, not only in a bench run.  golden.json is
read, never written."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from latcf import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", ["1", "97"])
@pytest.mark.parametrize("workload", ["sim-small", "sim-search", "sim-cosets"])
def test_simulate_csv_matches_the_golden_hash(tmp_path, workload, seed):
    out = tmp_path / f"{workload}-{seed}.csv"
    config = BENCH / "workloads" / f"{workload}.json"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out), "--seed", seed]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[workload][seed]


# bench/run.py pins thread-pool variables when imported, so its ok-relay
# workload recomputes its round-0 digests in a subprocess
OK_RELAY_DIGESTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
wl = run.OkRelayWorkload(run.load_latcf(), "ok-relay", run.BENCH / "workloads" / "ok-relay.json", sys.argv[2])
state, _ = wl.setup()
digests = {seed: wl.reference_digest(state, int(seed)) for seed in ("1", "97")}
print(json.dumps({"digests": digests, "problems": wl.problems}))
"""


def test_ok_relay_round_matches_the_golden_hash(tmp_path):
    done = subprocess.run([sys.executable, "-c", OK_RELAY_DIGESTS, str(BENCH), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["problems"] == []
    assert got["digests"] == GOLDEN["ok-relay"]
