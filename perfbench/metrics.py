"""Per-layer metrics from the spans of one traced pass.

A per-layer metric name is ``<span name>.<field>``: ``calls`` counts spans,
``s`` sums their durations, ``self_s`` sums durations minus the time covered
by their direct child spans, and any other field sums that attribute of the
spans (see tracer.py).  ALIASES maps the names that do not follow this rule.
"""

from __future__ import annotations

from collections import defaultdict

ALIASES = {
    "cli.import_s": ("cli.import", "s"),
    # counted per quadrature call on its final grid, see Tracer._around_midpoint
    "nevanlinna.SelectorContext.select.switches":
        ("nevanlinna.adaptive_midpoint", "switches"),
}


def span_totals(spans) -> dict:
    """{span name: {"calls", "s", "self_s", attribute...: summed value}}."""
    covered = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, _, attrs) in enumerate(spans):
        t = totals[name]
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += end - start - covered[i]
        for key, value in (attrs or {}).items():
            t[key] += value
    return totals


def layer_value(totals: dict, metric: str):
    """Value of a per-layer metric; 0 when no span of that name occurred."""
    span, field = ALIASES.get(metric) or tuple(metric.rsplit(".", 1))
    return totals.get(span, {}).get(field, 0)
