"""The CSVs `latcf simulate` writes for the bench's sim-* workloads, at
seeds 1 and 97, hash to the sha256 values recorded in bench/golden.json:
the records stay byte-identical in a test run, not only in a bench run.
golden.json is read, never written."""

import hashlib
import json
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
