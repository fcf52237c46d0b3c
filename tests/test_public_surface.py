"""latcf's public surface: every exported name resolves, the export list is
sorted, and the one-relay protocol, which lives in tests/relay_functions.py
as the engine's oracle, is neither exported nor left in cfsim."""

import pytest

import latcf
from latcf import cfsim

MOVED = ("SourceState", "RelayOutput", "FunctionDecode", "encode_source", "relay_process", "decode_function")


def test_every_exported_name_resolves():
    for name in latcf.__all__:
        assert hasattr(latcf, name), name


def test_the_export_list_is_sorted():
    assert latcf.__all__ == sorted(latcf.__all__)


@pytest.mark.parametrize("name", MOVED)
def test_the_one_relay_protocol_is_not_in_the_package(name):
    assert name not in latcf.__all__
    assert not hasattr(latcf, name)
    assert not hasattr(cfsim, name)  # so `from latcf.cfsim import name` fails
