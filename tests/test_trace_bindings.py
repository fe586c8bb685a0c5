"""The traced benchmark run can still find every layer entry point.

perfbench/spans.py replaces each (owner, attribute) that its
layer_entry_points() names through owner.__dict__, so a traced method
must stay defined on the class that names it, not inherited from a base
class, and a traced function must stay a module attribute, called
through the module globals the tracer rebinds.
"""

import importlib.util
from pathlib import Path

import numpy as np

from vineshift import rvine

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_entry_point_is_defined_on_its_owner():
    spans = load_spans()
    for owner, attr, span, _ in spans.layer_entry_points():
        assert attr in owner.__dict__, f"{span}: {owner.__name__}.{attr} is not defined there"


def test_fit_goes_through_the_traced_tree_builders():
    # a fit that reached the tree helper without the traced wrappers
    # would report rvine.tree_build as zero seconds, which still passes
    # the benchmark's finiteness check
    spans = load_spans()
    X = np.random.default_rng(0).standard_normal((60, 5))
    with spans.installed(spans.Tracer("bindings")) as tracer:
        rvine.fit_vine(X, truncation=3, family="gaussian")
    assert tracer.counts["rvine.tree_build.calls"] == 3
    assert tracer.counts["statcore.kendall_tau.calls"] > 0
    assert tracer.counts["rvine.fit_vine.calls"] == 1
