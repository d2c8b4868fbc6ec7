"""The proof's telescoping as ledgers across commands, with no oracle.

With exterior.telescoping_identity for a_d = m_d (m_0 = 0) and a_d = hbar(d),
verify prop62's direct-route columns give, at every radius,

    sum_{d=1}^{n} (n+1-d) lhs_d = (n+1) m_1 - m_{n+1}      (sweep's m_d)
    cartan rhs - sum_{d=1}^{n} (n+1-d) rhs_d = log|c_W|,

c_W the lowest nonzero coefficient of the Wronskian of the primitive lift,
since hbar(1) = T_1 and hbar(n+1) = N_W + log|c_W| by Jensen's formula.
The lhs ledger combines integrals that are each flagged within tol, so its
budget is tol times the sum of their absolute weights; the rhs ledger's
terms are Jensen heights, exact counting functions and smooth midpoint
means, so its budget is 1e-9 max(1, |log|c_W||).
"""

import json
import math
from pathlib import Path

import pytest

from nevlab.cli import build, parse_config
from nevlab.curve import associated_family
from nevlab.harness import full_sweep, verify_cartan, verify_prop62

ROOT = Path(__file__).resolve().parents[1]


def _config(name):
    if name == "stress_n4":
        text = json.loads((ROOT / "perfbench" / "data" / "stress.json")
                          .read_text(encoding="utf-8"))["configs"][name]["ini"]
    else:
        text = (ROOT / "scripts" / "configs" / f"{name}.ini").read_text(
            encoding="utf-8")
    return parse_config(text)


def _ledgers(name):
    """Per radius of the config: (lhs residual, its budget, rhs residual,
    log|c_W|)."""
    cfg = _config(name)
    x, hp = build(cfg)
    n, radii, tol = x.n, cfg.radii(), cfg.tol
    levels = range(1, n + 1)
    sweep = full_sweep(x, hp, radii, tol).rows
    cartan = verify_cartan(x, hp, radii, tol).rows
    prop62 = verify_prop62(x, hp, levels, radii, tol).rows
    for rep in (sweep, cartan, prop62):
        assert all(row["converged"] for row in rep)
    [wronskian] = associated_family(x)[n + 1].polys()
    log_cw = math.log(abs(complex(wronskian.coeff(wronskian.ord_at_zero()))))
    # |weights| of the m(d) integrals: prop62 row d reads -m_{d-1} + 2 m_d
    # - m_{d+1} (m_0 = 0 is no integral), sweep gives m_1 and m_{n+1}
    weight = sum((n + 1 - d) * (3 if d == 1 else 4) for d in levels) + n + 2
    out = []
    for k, r in enumerate(radii):
        rows = {row["d"]: row for row in prop62 if row["r"] == r}
        lhs = sum((n + 1 - d) * rows[d]["lhs"] for d in levels)
        rhs = sum((n + 1 - d) * rows[d]["rhs"] for d in levels)
        m = sweep[k]
        out.append((lhs - ((n + 1) * m["m_1"] - m[f"m_{n + 1}"]),
                    weight * tol, cartan[k]["rhs"] - rhs - log_cw, log_cw))
    return out


@pytest.mark.parametrize("name", ["stress_n4", "twisted_cubic",
                                  "ramified_line"])
def test_ledgers_close_within_their_budgets(name):
    for lhs_gap, budget, rhs_gap, log_cw in _ledgers(name):
        assert abs(lhs_gap) <= budget
        assert abs(rhs_gap) <= 1e-9 * max(1.0, abs(log_cw))
