"""The benchmark's traced run wraps sumsetlab functions by name; every name
it lists must still exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sumsetlab.groups import SubsetMask, build_group
from sumsetlab.replay import replay_solvable_proof

from conftest import symmetric_4_pairs

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_its_module(tracer):
    for layer, names in tracer.TRACED.items():
        home = importlib.import_module(f"sumsetlab.{layer}")
        for name in names:
            owner = home
            for part in name.split("."):
                owner = getattr(owner, part, None)
                assert owner is not None, f"sumsetlab.{layer}.{name}"
            assert callable(owner), f"sumsetlab.{layer}.{name}"


def test_tracer_installs_and_restores_every_name(tracer):
    structure = importlib.import_module("sumsetlab.structure")
    original = structure.derived_series
    t = tracer.Tracer()
    t.install()
    try:
        assert structure.derived_series is not original
    finally:
        t.uninstall()
    assert structure.derived_series is original


def _payload_shape(payload):
    """(nodes, max depth, block checks) walked from a printed trace payload."""
    nodes, deepest, checks = 0, 0, 0
    stack = [(payload, 1)]
    while stack:
        node, depth = stack.pop()
        nodes, deepest = nodes + 1, max(deepest, depth)
        subtraces = [check["subtrace"] for check in node.get("block_checks", ())]
        checks += len(subtraces)
        stack += [(sub, depth + 1) for sub in subtraces]
    return nodes, deepest, checks


def test_proof_shape_counts_what_the_trace_payload_holds(tracer, permutation_groups):
    # the traced run reads block_checks and subtrace as attributes of a trace
    s4 = permutation_groups["symmetric:4"]
    traces = [replay_solvable_proof(s4, a, b) for a, b in symmetric_4_pairs(s4)]
    h5 = build_group("heisenberg:5")
    traces.append(replay_solvable_proof(h5, SubsetMask.from_elements(125, (8, 22, 38, 82)),
                                        SubsetMask.from_elements(125, (34, 42))))
    shapes = [tracer.proof_shape(t) for t in traces]
    assert shapes == [_payload_shape(t.to_json_dict()) for t in traces]
    assert max(depth for _, depth, _ in shapes[:-1]) == 3
    assert shapes[-1] == (5, 2, 4)     # swapped: one check per block of the first set
