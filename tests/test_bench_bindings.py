"""The benchmark in bench/run.py reaches into latcf by name: the functions
its traced run wraps (TARGETS) and the ones its workloads call as
lib.<module>.<name>.  Read both from the script's syntax tree, without
importing it, and check that every name still resolves."""

import ast
import json
from pathlib import Path

import numpy as np

import latcf
from latcf import algebra, cfsim, cli, codes, lattices  # noqa: F401  (as bench/run.py loads them)

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"
TREE = ast.parse(RUN_PY.read_text(encoding="utf-8"))

CALLED = {
    ("cfsim", "make_pair"), ("cfsim", "SimConfig"), ("cfsim", "run_trials"),
    ("cli", "build_construction"), ("cli", "write_csv"), ("codes", "codebook"),
    ("algebra", "make_quadratic_ring"), ("cfsim", "computation_rate"),
    ("lattices", "contains"), ("lattices", "quantize"),
}


def _owner(path):
    owner = latcf
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def _targets():
    for node in TREE.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no TARGETS")


def _is_lib(node):
    return (isinstance(node, ast.Name) and node.id == "lib") or (
        isinstance(node, ast.Attribute) and node.attr == "lib"
    )


def _lib_uses():
    # lib.<module>.<name> or self.lib.<module>.<name>: how the workloads
    # write every call into latcf
    return {
        (node.value.attr, node.attr)
        for node in ast.walk(TREE)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and _is_lib(node.value.value)
    }


# the one-relay protocol that bench/run.py still traces lives in
# tests/relay_functions.py; add_targets reports a name its module lacks as
# skipped, so these must be absent from cfsim, not left behind as stale aliases
MOVED = {"cfsim.encode_source", "cfsim.relay_process", "cfsim.decode_function"}


def test_traced_targets_resolve():
    targets = _targets()
    assert len(targets) == 12
    assert MOVED <= {name for name, _, _ in targets}
    for name, owner, attr in targets:
        if name in MOVED:
            assert attr not in vars(_owner(owner)), name
        else:
            assert attr in vars(_owner(owner)), name


def test_names_the_workloads_call_resolve():
    uses = _lib_uses()
    assert CALLED <= uses
    for module, name in uses:
        owner = latcf if module == "latcf" else _owner(module)
        assert hasattr(owner, name), (module, name)


def test_ok_relay_lattice_has_what_its_inputs_read():
    # OkRelayWorkload.inputs builds sent points from these attributes of
    # the A_OK lattice, outside the traced library calls
    path = RUN_PY.parent / "workloads" / "ok-relay.json"
    lat = cli.build_construction(json.loads(path.read_text(encoding="utf-8"))["construction"])
    b1, b2 = lat.ideal.basis()
    rep = lat.map.to_ring(0)
    assert {type(b1), type(b2), type(rep)} == {algebra.QuadInt}
    code = lat.codes[0]
    assert np.array(code.G, dtype=np.int64).reshape(code.n, lat.N).shape == (1, 3)
    assert code.alphabet.size == 7
