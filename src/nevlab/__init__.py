"""Exact and numeric tools for value distribution of polynomial curves in
projective space: Gaussian-rational polynomial arithmetic, derived curves via
exterior algebra, heights and proximity functions, and a verification harness
for the classical defect-type inequalities.

The exact layer (gauss, exterior, curve) has no module-level numpy.  The
numeric layer (nevanlinna, harness) and the numpy-free heights module are
registered in ``sys.modules`` through ``importlib.util.LazyLoader`` and bound
as package attributes; their code, and numpy for the numeric layer, load on
first attribute access.  So ``nevlab check`` and ``nevlab verify
identities`` load neither, ``nevlab verify growth`` loads heights but no
numpy, and the benchmark tracer still finds every module in ``sys.modules``
right after ``import nevlab.cli``.
The package re-exports no names; import each from its defining module.
"""

import importlib.util
import sys


def _lazy_submodule(name: str):
    """Register the submodule in sys.modules; it executes on first access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


nevanlinna = _lazy_submodule("nevanlinna")
heights = _lazy_submodule("heights")
harness = _lazy_submodule("harness")

__version__ = "0.1.0"
