"""Import layering: the exact layer (gauss, exterior, curve) and the commands
that stay exact (``check``, ``verify identities``) never load numpy, and the
numeric layer (nevanlinna, harness) loads on first use.  Each case runs in a
fresh interpreter, since the test process has long loaded everything."""

import json
from pathlib import Path

import pytest

from conftest import run_fresh

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ROOT / "scripts" / "configs" / "twisted_cubic.ini"

# Every name the package exported before the numeric layer became lazy.
PUBLIC = {
    "gauss": ["Divisor", "GaussPoly", "GaussRational", "PolyParseError",
              "RootFindingError", "parse_poly", "parse_rational", "poly_gcd",
              "roots", "squarefree_decomposition"],
    "exterior": ["MultiIndex", "WedgeForm", "WedgeVector", "multi_indices",
                 "pair", "pluecker_relations_check", "two_row_identity_sign",
                 "wedge_rows", "HyperplaneConfig", "general_position_tuples"],
    "curve": ["CurveLift", "DegenerateCurveError", "associated",
              "associated_family", "leibniz_partner", "normalize",
              "ramification_divisor", "wronskian"],
    "nevanlinna": ["RadialValue", "SelectorContext", "counting",
                   "height_T", "height_bar", "mu",
                   "pointwise_logderiv_check", "proximity_hyperplane",
                   "proximity_m", "weil"],
    "harness": ["Evaluator", "PairCollection", "SweepReport",
                "balanced_check", "distance_one_collection", "full_sweep",
                "mcquillan_monitor", "telescoping_identity", "verify_cartan",
                "verify_height_growth", "verify_lemma55", "verify_prop62"],
}


@pytest.mark.parametrize("argv", [["check"], ["verify", "identities"]],
                         ids=["check", "identities"])
def test_exact_commands_load_no_numpy(tmp_path, argv):
    result = run_fresh("""
import json, sys
from nevlab.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, "numpy" in sys.modules]))
""", *argv, "--config", str(SHIPPED), "--out", str(tmp_path / "out.txt"))
    assert result == [0, False]


def test_import_loads_no_numpy():
    result = run_fresh("""
import json, sys
import nevlab
print(json.dumps(["numpy" in sys.modules,
                  "nevlab.nevanlinna" in sys.modules,
                  "nevlab.harness" in sys.modules]))
""")
    assert result == [False, True, True]


def test_public_names_resolve():
    """Each public name is the object of its defining module."""
    result = run_fresh("""
import json, sys
import nevlab
from nevlab import nevanlinna
wrong = [name for mod, names in json.loads(sys.argv[1]).items()
         for name in names
         if getattr(nevlab, name, None)
         is not getattr(sys.modules["nevlab." + mod], name)]
print(json.dumps([wrong, nevanlinna.QUAD_TOL]))
""", json.dumps(PUBLIC))
    assert result == [[], 1e-6]
