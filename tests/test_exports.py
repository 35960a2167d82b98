"""Every name that a public module lists in __all__ exists, so that a
deleted function cannot stay exported."""

import importlib

import pytest

MODULES = ["crossdock", "crossdock.dispatch", "crossdock.dispatch.wire", "crossdock.costmodel",
           "crossdock.docking", "crossdock.grid", "crossdock.pdb_io"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
