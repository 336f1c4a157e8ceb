"""The benchmark's tracer patches slag_lab functions by name.

`slagbench/tracing.py` lists them in `TRACED`; a rename in `slag_lab` would
leave the tracer without the function it wraps. The file is parsed, not
run, so nothing of the benchmark executes here.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "slagbench" / "tracing.py"


def _traced():
    """The `TRACED` table of the tracer, as a literal."""
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_every_traced_slag_lab_name_resolves():
    entries = [(module, name) for module, name, _ in _traced()
               if module.split(".")[0] == "slag_lab"]
    assert ("slag_lab.hessians", "taylor_tensors") in entries
    assert ("slag_lab.hessians", "fourth_order_jet") in entries
    missing = [f"{module}.{name}" for module, name in entries
               if not callable(getattr(importlib.import_module(module), name,
                                       None))]
    assert not missing
