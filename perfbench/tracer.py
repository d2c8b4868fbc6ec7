"""Span tracer for nevlab that wraps public functions from outside the package.

Nothing inside ``src/nevlab`` changes: ``install`` replaces every binding of a
traced function in the loaded ``nevlab`` modules (a name imported with
``from .x import f`` is a separate binding of the same object) and the traced
methods on their classes.  Spans stay in memory as
``[name, start, end, parent, attrs]`` lists, parent being the index of the
enclosing span or -1, and are written out by the worker when its run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# (module, attribute) pairs; a dotted attribute is a method on a class.
TRACED = (
    ("cli", "main"),
    ("cli", "parse_config"),
    ("gauss", "poly_gcd"),
    ("gauss", "squarefree_decomposition"),
    ("gauss", "roots"),
    ("exterior", "det_exact"),
    ("exterior", "wedge_rows"),
    ("curve", "associated"),
    ("curve", "leibniz_partner"),
    ("curve", "coordinate_gcd"),
    ("curve", "normalize"),
    ("curve", "wronskian"),
    ("nevanlinna", "adaptive_midpoint"),
    ("nevanlinna", "SelectorContext.select"),
    ("nevanlinna", "SelectorContext.level_lambda_mean"),
    ("nevanlinna", "SelectorContext.minors"),
    ("harness", "general_position_tuples"),
    ("harness", "Evaluator.radial"),
    ("harness", "Evaluator.level_divisor"),
    ("harness", "full_sweep"),
    ("harness", "verify_cartan"),
    ("harness", "verify_lemma55"),
    ("harness", "verify_prop62"),
    ("harness", "verify_height_growth"),
    ("harness", "mcquillan_monitor"),
)


# Functions that recurse through their own module global.  While an outermost
# call runs, that global is the original function again, so inner calls are
# neither recorded nor slowed by the wrapper.
RECURSIVE = ("exterior.det_exact",)


class Tracer:
    """Records one span per outermost call of each traced function; a call
    made while a span of the same name is open is not recorded."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._open: set = set()
        self._quadratures: list = []

    def record(self, name: str, start: float, end: float, attrs=None) -> None:
        """Add a finished top-level span measured by the caller."""
        self.spans.append([name, start, end, -1, attrs])

    def _wrap(self, name: str, fn, around=None, home=None):
        """Wrap fn; ``home`` is the module whose global fn recurses through."""
        attr = name.rsplit(".", 1)[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0,
                   self._stack[-1] if self._stack else -1, None]
            self.spans.append(rec)
            self._stack.append(len(self.spans) - 1)
            self._open.add(name)
            if home is not None:
                setattr(home, attr, fn)
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(fn, rec, args, kwargs)
            finally:
                if home is not None:
                    setattr(home, attr, wrapper)
                rec[2] = time.perf_counter()
                self._open.discard(name)
                self._stack.pop()

        return wrapper

    def _around_midpoint(self, fn, rec, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        g = bound.arguments["g"]
        state = {"evals": 0, "last_sel": {}}

        def counted(theta):
            state["evals"] += len(theta)
            return g(theta)

        bound.arguments["g"] = counted
        self._quadratures.append(state)
        try:
            values, converged, nodes = fn(*bound.args, **bound.kwargs)
        finally:
            self._quadratures.pop()
        unconverged = int(np.size(converged) - np.count_nonzero(converged))
        sel = state["last_sel"].get(nodes)
        rec[4] = {
            "nodes": int(nodes),
            "evals": state["evals"],
            "unconverged": unconverged,
            "cap_hits": int(unconverged > 0
                            and 2 * nodes > bound.arguments["cap"]),
            # selection changes around the circle on the final grid
            "switches": (0 if sel is None
                         else int(np.count_nonzero(sel != np.roll(sel, 1)))),
        }
        return values, converged, nodes

    def _around_select(self, fn, rec, args, kwargs):
        sel, smax = fn(*args, **kwargs)
        rec[4] = {"nodes": int(len(sel))}
        if self._quadratures:
            self._quadratures[-1]["last_sel"][len(sel)] = sel
        return sel, smax

    def _around_tuples(self, fn, rec, args, kwargs):
        config = fn(*args, **kwargs)
        rec[4] = {"tuples": len(config.tuples)}
        return config

    def install(self, package: str = "nevlab") -> None:
        """Wrap every entry of TRACED in the already imported package."""
        arounds = {
            "nevanlinna.adaptive_midpoint": self._around_midpoint,
            "nevanlinna.SelectorContext.select": self._around_select,
            "harness.general_position_tuples": self._around_tuples,
        }
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and key.startswith(package + ".")]
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            mod = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, arounds.get(name)))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original, arounds.get(name),
                                 mod if name in RECURSIVE else None)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
