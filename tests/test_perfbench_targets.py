"""The benchmark wraps public library names at run time (perfbench/tracer.py).

A rename or deletion of a wrapped name would break traced benchmark runs
without any other test failing, so this installs and removes every wrapper.
"""

import importlib.util
from pathlib import Path

from heisencalc import aut, braid, cli, heis, pairing, repmatrix, ring, schrodinger

LIB = {"heis": heis, "ring": ring, "aut": aut, "braid": braid, "pairing": pairing,
       "repmatrix": repmatrix, "schrodinger": schrodinger, "cli": cli}


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = load_tracer()
    targets = tracer.targets(LIB)
    assert len(targets) == 44
    before = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    tr = tracer.Tracer()
    try:
        tr.install(targets)
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr, _, _), original in zip(targets, before))
    finally:
        tr.uninstall()
    assert [owner.__dict__[attr] for owner, attr, _, _ in targets] == before
