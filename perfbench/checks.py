"""Output checks for one command against its stored reference.

A reference is {"exit": int, "text": str} for ``check`` and
{"exit": int, "header": [...], "rows": [[...], ...]} for CSV commands, cells
kept as printed.  Every command reports (rows attempted, rows failed,
problems).  A row fails when it has converged=0, misses a check, or belongs
to a command that exited with a hard error; a problem is a missed check and
makes the run incorrect, while an unconverged row alone does not.
"""

from __future__ import annotations

# Columns that are labels or flags, not quadrature values.
NOT_VALUES = ("r", "d", "converged")


def parse_csv(text: str):
    lines = text.splitlines()
    if not lines:
        return None, []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def split_identity_row(line: str) -> list:
    """identity,level,detail,residual_zero where detail contains commas."""
    head, rest = line.split(",", 1)
    level, rest = rest.split(",", 1)
    detail, flag = rest.rsplit(",", 1)
    return [head, level, detail, flag]


def reference_of(prefix, code, text) -> dict:
    """The reference record for a command's exit code and output text."""
    if prefix[0] == "check":
        return {"exit": code, "text": text}
    if tuple(prefix) == ("verify", "identities"):
        lines = text.splitlines()
        return {"exit": code, "header": lines[0].split(","),
                "rows": [split_identity_row(line) for line in lines[1:]]}
    header, rows = parse_csv(text)
    return {"exit": code, "header": header, "rows": rows}


def row_count(ref: dict) -> int:
    return 1 if "text" in ref else len(ref["rows"])


def check_command(prefix, ref: dict, code, text, tol: float):
    """(attempted, failed, problems) for one command run."""
    attempted = row_count(ref)
    if code not in (0, 2) or text is None:
        return attempted, attempted, [f"hard error (exit {code})"]
    got = reference_of(prefix, code, text)
    if "text" in ref:
        if got != ref:
            return 1, 1, ["check output or exit code differs from reference"]
        return 1, 0, []
    if got["header"] != ref["header"] or len(got["rows"]) != attempted:
        return attempted, attempted, ["columns or row count differ from reference"]
    if tuple(prefix) == ("verify", "identities"):
        return _check_identities(got, ref)
    return _check_values(got, ref, tol)


def _check_identities(got: dict, ref: dict):
    problems = []
    failed = 0
    for row, ref_row in zip(got["rows"], ref["rows"]):
        if row[:3] != ref_row[:3] or row[3] != "1":
            failed += 1
            problems.append(f"identity row {','.join(row)} (residual_zero must be 1)")
    if got["exit"] != (2 if failed else 0):
        problems.append(f"exit {got['exit']} does not match the identity rows")
        failed = len(got["rows"])
    return len(got["rows"]), failed, problems


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= 10 * tol


def _check_values(got: dict, ref: dict, tol: float):
    header = got["header"]
    col = {name: k for k, name in enumerate(header)}
    problems = []
    failed = 0
    unconverged = 0
    for row, ref_row in zip(got["rows"], ref["rows"]):
        v = [float(c) for c in row]
        if not v[col["converged"]]:
            unconverged += 1
            failed += 1
            continue
        miss = []
        if abs(v[col["r"]] - float(ref_row[col["r"]])) > 1e-9 * v[col["r"]]:
            miss.append("radius differs from reference")
        if ref_row[col["converged"]] == "1":
            miss += [f"{name}={row[k]} vs reference {ref_row[k]}"
                     for name, k in col.items() if name not in NOT_VALUES
                     and not _close(v[k], float(ref_row[k]), tol)]
        if "route_gap" in col and v[col["route_gap"]] > 10 * tol:
            miss.append(f"route_gap={row[col['route_gap']]} above 10*tol")
        if "sum_check" in col and not _close(v[col["lhs"]], v[col["sum_check"]], tol):
            miss.append("cartan lhs differs from sum_check by more than 10*tol")
        if miss:
            failed += 1
            problems.append(f"row r={row[col['r']]}: " + "; ".join(miss))
    if got["exit"] != (2 if unconverged else 0):
        problems.append(f"exit {got['exit']} does not match the converged flags")
        failed = len(got["rows"])
    return len(got["rows"]), failed, problems
