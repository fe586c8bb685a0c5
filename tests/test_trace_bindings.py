"""The traced benchmark run can still find every layer entry point.

perfbench/spans.py replaces each (owner, attribute) that its
layer_entry_points() names through owner.__dict__, so a traced method
must stay defined on the class that names it, not inherited from a base
class, and a traced function must stay a module attribute.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_entry_point_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, span, _ in spans.layer_entry_points():
        assert attr in owner.__dict__, f"{span}: {owner.__name__}.{attr} is not defined there"
