"""The benchmark tracer (perfbench/tracer.py) wraps nevlab functions and
methods by name; a rename in nevlab must fail here, not only in a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module, attr", _traced())
def test_traced_name_resolves(module, attr):
    mod = importlib.import_module(f"nevlab.{module}")
    if "." in attr:
        # the tracer replaces methods through the class __dict__
        cls_name, meth = attr.split(".")
        target = vars(getattr(mod, cls_name)).get(meth)
    else:
        target = getattr(mod, attr, None)
    assert callable(target)
