"""Command line front end.

nevlab check   --config cfg.ini            validate a configuration
nevlab compute --config cfg.ini --r 10     one radius, full CSV row
nevlab sweep   --config cfg.ini [--out f]  CSV over the config's radius grid
nevlab verify <name> --config cfg.ini      one of: cartan, lemma55, prop62,
                                           growth, mcquillan, identities

Exit status is nonzero only for hard failures: bad configuration, degenerate
curves, exact identities with nonzero residual, or unconverged quadrature.
A negative inequality margin is reported, never treated as an error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import io
import math
import os
import sys
from typing import Optional, Sequence, Tuple

# harness and heights stay behind their lazy module objects (see the
# package docstring): check and verify identities load neither, and verify
# growth loads heights but not harness, or numpy.
from . import harness, heights
from .curve import (
    DegenerateCurveError,
    associated_family,
    leibniz_partner,
    normalize,
)
from .exterior import (
    distance_one_collection,
    general_position_tuples,
    two_row_identity_sign,
)
from .gauss import (
    QUAD_TOL,
    GaussPoly,
    GaussRational,
    PolyParseError,
    RootFindingError,
    parse_poly,
    parse_rational,
    products_sum_to_zero,
)

__all__ = ["RunConfig", "parse_config", "serialize_config", "with_tol", "build",
           "run", "main"]

VERIFY_NAMES = ("cartan", "lemma55", "prop62", "growth", "mcquillan", "identities")


class ConfigError(ValueError):
    pass


class RunConfig:
    """Parsed run configuration: the curve lift, the hyperplane forms, and
    the radius grid (log-spaced between r_min and r_max).  Equal when every
    field is."""

    __slots__ = ("curve", "hyperplanes", "r_min", "r_max", "r_points", "tol")

    def __init__(self, curve: Tuple[GaussPoly, ...],
                 hyperplanes: Tuple[Tuple[GaussRational, ...], ...],
                 r_min: float, r_max: float, r_points: int,
                 tol: float = QUAD_TOL):
        self.curve, self.hyperplanes = curve, hyperplanes
        self.r_min, self.r_max = r_min, r_max
        self.r_points, self.tol = r_points, tol

    def __eq__(self, other):
        if other.__class__ is not RunConfig:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k)
                   for k in self.__slots__)

    @property
    def n(self) -> int:
        return len(self.curve) - 1

    def radii(self) -> list:
        """r_points radii log-spaced from r_min to r_max, with the exponents
        of numpy's logspace: k * step + log10(r_min), the last log10(r_max)."""
        lo, hi = math.log10(self.r_min), math.log10(self.r_max)
        step = (hi - lo) / (self.r_points - 1)
        return ([10.0 ** (k * step + lo) for k in range(self.r_points - 1)]
                + [10.0 ** hi])


def parse_config(text: str) -> RunConfig:
    """Parse an INI configuration.

    [curve]       coords = p0; p1; ...            polynomial grammar
    [hyperplanes] forms  = a0, a1, ...; b0, ...    one form per semicolon
    [sweep]       r_min, r_max, r_points, tol
    """
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"bad INI syntax: {e}") from e
    for section in ("curve", "hyperplanes", "sweep"):
        if section not in cp:
            raise ConfigError(f"missing [{section}] section")

    raw_coords = cp["curve"].get("coords")
    if not raw_coords:
        raise ConfigError("[curve] needs a 'coords' entry")
    coords = []
    for part in (p for p in raw_coords.split(";") if p.strip()):
        try:
            coords.append(parse_poly(part))
        except PolyParseError as e:
            raise ConfigError(f"in [curve] coords, coordinate "
                              f"{len(coords) + 1}: {e}") from e
    if len(coords) < 2:
        raise ConfigError("curve needs at least two coordinates")
    n = len(coords) - 1

    raw_forms = cp["hyperplanes"].get("forms")
    if not raw_forms:
        raise ConfigError("[hyperplanes] needs a 'forms' entry")
    forms = []
    for part in (p for p in raw_forms.split(";") if p.strip()):
        form = []
        for c in part.split(","):
            try:
                form.append(parse_rational(c))
            except PolyParseError as e:
                raise ConfigError(f"in [hyperplanes] form {len(forms) + 1}, "
                                  f"coefficient {len(form) + 1}: {e}") from e
        if len(form) != n + 1:
            raise ConfigError(
                f"form has {len(form)} coefficients, curve needs {n + 1}"
            )
        forms.append(tuple(form))
    if not forms:
        raise ConfigError("empty hyperplane family")

    sweep = cp["sweep"]
    try:
        r_min = sweep.getfloat("r_min")
        r_max = sweep.getfloat("r_max")
        r_points = sweep.getint("r_points")
        tol = sweep.getfloat("tol", fallback=QUAD_TOL)
    except ValueError as e:
        raise ConfigError(f"in [sweep]: {e}") from e
    if r_min is None or r_max is None or r_points is None:
        raise ConfigError("[sweep] needs r_min, r_max, r_points")
    for key, value in (("r_min", r_min), ("r_max", r_max), ("tol", tol)):
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite")
    if r_min <= 0:
        raise ConfigError("r_min must be positive")
    if r_max <= r_min:
        raise ConfigError("r_max must exceed r_min")
    if r_points < 2:
        raise ConfigError("r_points must be at least 2")
    if tol <= 0:
        raise ConfigError("tol must be positive")
    return RunConfig(curve=tuple(coords), hyperplanes=tuple(forms),
                     r_min=r_min, r_max=r_max, r_points=r_points, tol=tol)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) == c."""
    lines = [
        "[curve]",
        "coords = " + "; ".join(str(p) for p in cfg.curve),
        "",
        "[hyperplanes]",
        "forms = " + "; ".join(
            ", ".join(str(c) for c in f) for f in cfg.hyperplanes
        ),
        "",
        "[sweep]",
        f"r_min = {cfg.r_min!r}",
        f"r_max = {cfg.r_max!r}",
        f"r_points = {cfg.r_points}",
        f"tol = {cfg.tol!r}",
        "",
    ]
    return "\n".join(lines)


def with_tol(cfg: RunConfig, tol: Optional[float]) -> RunConfig:
    """cfg with a --tol override (finite and positive) applied, if any."""
    if tol is None:
        return cfg
    if not math.isfinite(tol):
        raise ConfigError("--tol must be finite")
    if tol <= 0:
        raise ConfigError("tol must be positive")
    return RunConfig(cfg.curve, cfg.hyperplanes, cfg.r_min, cfg.r_max,
                     cfg.r_points, tol)


def build(cfg: RunConfig):
    """The primitive, nondegenerate lift and the hyperplane configuration."""
    x = normalize(list(cfg.curve))
    if not x.is_nondegenerate():
        raise DegenerateCurveError(
            "curve image lies in a hyperplane (Wronskian vanishes identically)"
        )
    hp = general_position_tuples(cfg.hyperplanes, cfg.n)
    return x, hp


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_check(cfg: RunConfig, out: Optional[str]) -> int:
    buf = io.StringIO()
    x = normalize(list(cfg.curve))
    primitive = tuple(x.coords) == tuple(cfg.curve)
    buf.write(f"curve: n={cfg.n}, degrees="
              f"{[p.degree for p in x.coords]}\n")
    buf.write(f"primitive lift given: {'yes' if primitive else 'no (reduced)'}\n")
    code = 0
    if x.is_nondegenerate():
        buf.write("nondegenerate: yes (Wronskian not identically zero)\n")
    else:
        buf.write("nondegenerate: NO (image lies in a hyperplane)\n")
        code = 1
    try:
        hp = general_position_tuples(cfg.hyperplanes, cfg.n)
        buf.write(f"hyperplanes: {len(hp.forms)} forms, "
                  f"{len(hp.tuples)} general-position tuples\n")
        buf.write("common zero of all forms: none\n")
    except ValueError as e:
        buf.write(f"hyperplanes: ERROR: {e}\n")
        code = 1
    buf.write(f"radius grid: {cfg.r_points} points in "
              f"[{cfg.r_min:g}, {cfg.r_max:g}], tol={cfg.tol:g}\n")
    _emit(buf.getvalue(), out)
    return code


def _cmd_identities(cfg: RunConfig, out: Optional[str]) -> int:
    """Exact identity battery on the configured curve: the derivative of each
    derived-curve coordinate vector against its closed form, and the two-row
    minor identity for every distance-one pair at every level."""
    x, hp = build(cfg)
    n = x.n
    derivative_rows, two_row_rows = [], []
    failures = 0
    wedges = associated_family(x)
    for d in range(1, n + 1):
        Xd = wedges[d]
        Yp = leibniz_partner(x, d)
        for (ia, p), (_, q) in zip(Xd.coords, Yp.coords):
            ok = p.derivative() == q
            failures += not ok
            derivative_rows.append(f"derivative,{d},{ia.elements},{int(ok)}")
        lower, upper = wedges[d - 1], wedges[d + 1]
        for ia, jb in distance_one_collection(n, d).pairs:
            inter = tuple(sorted(set(ia.elements) & set(jb.elements)))
            union = tuple(sorted(set(ia.elements) | set(jb.elements)))
            ok = products_sum_to_zero([
                (1, Xd.coord(ia.elements), Yp.coord(jb.elements)),
                (-1, Xd.coord(jb.elements), Yp.coord(ia.elements)),
                (-two_row_identity_sign(ia, jb), lower.coord(inter),
                 upper.coord(union))])
            failures += not ok
            two_row_rows.append(
                f"two_row,{d},{ia.elements}|{jb.elements},{int(ok)}"
            )
    rows = ["identity,level,detail,residual_zero"] + derivative_rows + two_row_rows
    _emit("\n".join(rows) + "\n", out)
    return 0 if failures == 0 else 2


def run(command: str, cfg: RunConfig, r: Optional[float] = None,
        out: Optional[str] = None, tol: Optional[float] = None,
        verify_name: Optional[str] = None) -> int:
    cfg = with_tol(cfg, tol)
    if command == "check":
        return _cmd_check(cfg, out)
    if command == "compute":
        if r is None:
            raise ConfigError("compute needs --r")
    elif command == "verify":
        if verify_name not in VERIFY_NAMES:
            raise ConfigError(
                f"unknown verify target {verify_name!r}; "
                f"choose from {', '.join(VERIFY_NAMES)}"
            )
        if verify_name == "identities":
            for flag, value in (("--r", r), ("--tol", tol)):
                if value is not None:
                    raise ConfigError(f"verify identities takes no {flag}")
            return _cmd_identities(cfg, out)
    elif command != "sweep":
        raise ConfigError(f"unknown command {command!r}")

    radii = cfg.radii() if r is None else heights.validate_radii([r], "--r")
    x, hp = build(cfg)
    if command != "verify":
        report = harness.full_sweep(x, hp, radii, tol=cfg.tol)
    elif verify_name == "cartan":
        report = harness.verify_cartan(x, hp, radii, tol=cfg.tol)
    elif verify_name == "lemma55":
        report = harness.verify_lemma55(x, hp, radii, tol=cfg.tol)
    elif verify_name == "growth":
        report = heights.verify_height_growth(x, radii, tol=cfg.tol)
    elif verify_name == "mcquillan":
        report = harness.mcquillan_monitor(x, hp, radii, tol=cfg.tol)
    else:  # prop62, all levels stacked with a level column
        report = harness.verify_prop62(x, hp, range(1, x.n + 1), radii,
                                       tol=cfg.tol)
    _emit(report.to_csv(), out)
    return 0 if report.all_converged() else 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: a build costs about
    ten parses, and parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="nevlab",
        description="Heights, proximities and derived-curve inequality "
                    "checks for polynomial curves in projective space.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True)
    common.add_argument("--out", default=None)
    common.add_argument("--tol", type=float, default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, parents=[common])
               for name in ("check", "compute", "sweep", "verify")}
    parsers["verify"].add_argument("name", choices=VERIFY_NAMES)
    for name in ("compute", "verify"):
        parsers[name].add_argument("--r", type=float, default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # One BLAS thread unless the user set a count: numpy loads later, on the
    # first numeric command, and the numeric layer's small products lose
    # more to a second BLAS thread than they gain.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    args = _parser().parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        return run(args.command, cfg, r=getattr(args, "r", None), out=args.out,
                   tol=args.tol, verify_name=getattr(args, "name", None))
    except (ConfigError, DegenerateCurveError, RootFindingError, ValueError,
            OSError) as e:
        print(f"nevlab: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
