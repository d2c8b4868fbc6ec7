"""Exact and numeric tools for value distribution of polynomial curves in
projective space: Gaussian-rational polynomial arithmetic, derived curves via
exterior algebra, heights and proximity functions, and a verification harness
for the classical defect-type inequalities.

The package is layered at import time.  The exact layer (gauss, exterior,
curve) has no module-level numpy and is imported with the package.  The
numeric layer (nevanlinna, harness) is registered in ``sys.modules`` through
``importlib.util.LazyLoader`` and bound as package attributes: its code runs,
and imports numpy, on the first attribute access.  So ``nevlab check`` and
``nevlab verify identities`` never load numpy, while code that looks the
numeric modules up in ``sys.modules`` right after ``import nevlab.cli`` (the
benchmark tracer does) still finds them.  The numeric public names
(``nevlab.Evaluator``, ``nevlab.full_sweep``, ...) resolve through the module
``__getattr__``.
"""

import importlib.util
import sys

from .gauss import (
    Divisor,
    GaussPoly,
    GaussRational,
    PolyParseError,
    RootFindingError,
    parse_poly,
    parse_rational,
    poly_gcd,
    roots,
    squarefree_decomposition,
)
from .exterior import (
    HyperplaneConfig,
    MultiIndex,
    PairCollection,
    WedgeForm,
    WedgeVector,
    balanced_check,
    distance_one_collection,
    general_position_tuples,
    multi_indices,
    pair,
    pluecker_relations_check,
    telescoping_identity,
    two_row_identity_sign,
    wedge_rows,
)
from .curve import (
    CurveLift,
    DegenerateCurveError,
    associated,
    associated_family,
    leibniz_partner,
    normalize,
    ramification_divisor,
    wronskian,
)


def _lazy_submodule(name: str):
    """Register the submodule in sys.modules; it executes on first access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


nevanlinna = _lazy_submodule("nevanlinna")
harness = _lazy_submodule("harness")

_NUMERIC = {
    **dict.fromkeys((
        "RadialValue",
        "SelectorContext",
        "counting",
        "height_T",
        "height_bar",
        "mu",
        "pointwise_logderiv_check",
        "proximity_hyperplane",
        "proximity_m",
        "weil",
    ), nevanlinna),
    **dict.fromkeys((
        "Evaluator",
        "SweepReport",
        "full_sweep",
        "mcquillan_monitor",
        "verify_cartan",
        "verify_height_growth",
        "verify_lemma55",
        "verify_prop62",
    ), harness),
}


def __getattr__(name: str):
    if name in _NUMERIC:
        return getattr(_NUMERIC[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
