"""The benchmark tracer (perfbench/tracer.py) wraps nevlab functions and
methods by name; a rename in nevlab must fail here, not only in a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from conftest import run_fresh

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
SHIPPED = ROOT / "scripts" / "configs" / "twisted_cubic.ini"


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


def test_tracer_finds_lazily_loaded_modules(tmp_path):
    """The tracer looks every traced module up in sys.modules right after
    ``import nevlab.cli``, before any command has loaded the numeric layer;
    its spans must still be recorded there (the name lookup above would not
    notice a module missing from sys.modules).  growth integrates without
    adaptive_midpoint, so a cartan run in the same process gives that
    span."""
    script = f"""
import importlib.util, json, sys
import nevlab.cli
spec = importlib.util.spec_from_file_location("perfbench_tracer", {str(TRACER)!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
tracer = module.Tracer()
tracer.install()
codes = [nevlab.cli.main(["verify", name, "--r", "3", "--config", sys.argv[1],
                          "--out", sys.argv[2]]) for name in ("growth", "cartan")]
print(json.dumps({{"codes": codes, "spans": sorted({{s[0] for s in tracer.spans}})}}))
"""
    result = run_fresh(script, str(SHIPPED), str(tmp_path / "out.csv"))
    assert result["codes"] == [0, 0]
    assert {"nevanlinna.adaptive_midpoint",
            "harness.general_position_tuples",
            "harness.verify_height_growth"} <= set(result["spans"])
