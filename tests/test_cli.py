import math
import warnings
from pathlib import Path

import pytest

import nevlab.curve
import nevlab.harness
import nevlab.nevanlinna
from nevlab.cli import (
    ConfigError,
    RunConfig,
    main,
    parse_config,
    run,
    serialize_config,
)
from nevlab.exterior import WedgeVector
from nevlab.gauss import GaussPoly, RootFindingError

from conftest import mp_height, run_fresh

GOOD = """
[curve]
coords = 1; z; z^2

[hyperplanes]
forms = 1, 0, 0; 0, 1, 0; 0, 0, 1; 1, 1, 1

[sweep]
r_min = 2
r_max = 50
r_points = 3
tol = 1e-6
"""


TWISTED_CUBIC = (Path(__file__).resolve().parents[1] / "scripts" / "configs"
                 / "twisted_cubic.ini")


@pytest.fixture
def cfg():
    return parse_config(GOOD)


class TestConfigParsing:
    def test_fields(self, cfg):
        assert cfg.n == 2
        assert len(cfg.hyperplanes) == 4
        assert cfg.r_points == 3

    def test_radii_log_spaced(self, cfg):
        radii = cfg.radii()
        assert radii[0] == pytest.approx(2.0)
        assert radii[-1] == pytest.approx(50.0)
        ratios = [b / a for a, b in zip(radii, radii[1:])]
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)

    @pytest.mark.parametrize("r_min, r_max, points", [
        (2, 50, 3), (0.5, 100, 30), (2, 1e6, 10), (0.54, 6.1, 17)])
    def test_radii_are_numpy_logspace_to_one_ulp(self, r_min, r_max, points):
        # pure Python, the exponents of np.logspace; only pow may differ
        import numpy as np

        cfg = RunConfig((), (), r_min, r_max, points)
        want = np.logspace(math.log10(r_min), math.log10(r_max), points)
        got = cfg.radii()
        assert all(type(r) is float for r in got)
        assert all(abs(a - b) <= math.ulp(b) for a, b in zip(got, want))

    def test_round_trip(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize(
        "mutation,message",
        [
            ("r_min = 0", "r_min"),
            ("r_min = -3", "r_min"),
            ("r_points = 1", "r_points"),
            ("tol = 0", "tol"),
            ("tol = nan", "tol"),
            ("r_min = nan", "r_min"),
            ("r_max = inf", "r_max"),
        ],
    )
    def test_sweep_validation(self, mutation, message):
        key = mutation.split(" =")[0]
        text = "\n".join(
            mutation if line.startswith(key) else line
            for line in GOOD.splitlines()
        )
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_r_max_must_exceed_r_min(self):
        text = GOOD.replace("r_max = 50", "r_max = 1")
        with pytest.raises(ConfigError, match="r_max"):
            parse_config(text)

    def test_dimension_mismatch(self):
        text = GOOD.replace("1, 0, 0;", "1, 0;")
        with pytest.raises(ConfigError, match="coefficients"):
            parse_config(text)

    def test_grammar_error_reports_position(self):
        text = GOOD.replace("z^2", "z^")
        with pytest.raises(ConfigError, match="column"):
            parse_config(text)

    @pytest.mark.parametrize("old,new,message", [
        ("coords = 1; z; z^2", "coords = 1; z; z^2 + 3z^ + 1",
         "in [curve] coords, coordinate 3: expected integer exponent after "
         "'^' at line 1, column 14"),
        ("coords = 1; z; z^2", "coords = 1; ; z; (z^2",
         "in [curve] coords, coordinate 3: expected ')' at line 1, "
         "column 6"),
        ("0, 0, 1; 1, 1, 1", "0,0,1$; 1, 1, 1",
         "in [hyperplanes] form 3, coefficient 3: unexpected character "
         "'$' at line 1, column 2"),
        ("1, 1, 1\n", "1, 1/0, 1\n",
         "in [hyperplanes] form 4, coefficient 2: zero denominator at "
         "line 1, column 4"),
    ], ids=["coords", "coords-empty-piece", "forms", "forms-last"])
    def test_grammar_error_names_the_piece(self, old, new, message):
        assert old in GOOD
        with pytest.raises(ConfigError) as exc:
            parse_config(GOOD.replace(old, new))
        assert str(exc.value) == message

    def test_missing_section(self):
        with pytest.raises(ConfigError, match="sweep"):
            parse_config("[curve]\ncoords = 1; z\n[hyperplanes]\nforms = 1, 0\n")


class TestRun:
    def test_check_ok(self, cfg, capsys):
        assert run("check", cfg) == 0
        out = capsys.readouterr().out
        assert "nondegenerate: yes" in out

    def test_check_degenerate_curve(self, capsys):
        text = GOOD.replace("coords = 1; z; z^2", "coords = 1; z; 2z")
        code = run("check", parse_config(text))
        assert code == 1
        assert "hyperplane" in capsys.readouterr().out

    def test_compute_csv(self, cfg, capsys):
        assert run("compute", cfg, r=10.0) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("r,T_1,T_2,T_3,m_0,m_1,m_2,m_3,N_W,N_Ram")
        assert len(lines) == 2
        assert lines[1].split(",")[-1] == "1"

    def test_compute_needs_radius(self, cfg):
        with pytest.raises(ConfigError, match="--r"):
            run("compute", cfg)

    def test_sweep_rows(self, cfg, capsys):
        assert run("sweep", cfg) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + cfg.r_points

    def test_sweep_to_file(self, cfg, tmp_path):
        path = tmp_path / "sweep.csv"
        assert run("sweep", cfg, out=str(path)) == 0
        text = path.read_text(encoding="utf-8")
        assert text.startswith("r,")
        assert "\r" not in text

    def test_verify_names(self, cfg, capsys):
        for name in ("cartan", "lemma55", "growth", "mcquillan"):
            assert run("verify", cfg, r=5.0, verify_name=name) == 0
            capsys.readouterr()

    def test_verify_prop62_has_level_column(self, cfg, capsys):
        assert run("verify", cfg, r=5.0, verify_name="prop62") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("d,r,")
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]

    def test_verify_identities(self, cfg, capsys):
        assert run("verify", cfg, verify_name="identities") == 0
        out = capsys.readouterr().out
        assert "two_row" in out
        assert ",0\n" not in out  # no failed residuals

    def test_verify_identities_reports_a_wrong_partner(self, cfg, capsys,
                                                       monkeypatch):
        """A Leibniz partner whose coordinate (0,) is off by one fails that
        derivative row and exactly the two-row pairs that read it, and the
        command exits 2."""
        partner = nevlab.cli.leibniz_partner

        def off_by_one(x, d):
            Y = partner(x, d)
            if d != 1:
                return Y
            return WedgeVector(Y.n, Y.degree, tuple(
                (mi, p + GaussPoly.one() if mi.elements == (0,) else p)
                for mi, p in Y.coords))

        monkeypatch.setattr(nevlab.cli, "leibniz_partner", off_by_one)
        assert run("verify", cfg, verify_name="identities") == 2
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 12
        assert [row.rsplit(",", 1)[0] for row in rows
                if row.endswith(",0")] == [
            "derivative,1,(0,)", "two_row,1,(0,)|(1,)",
            "two_row,1,(0,)|(2,)"]

    def test_verify_unknown_name(self, cfg):
        with pytest.raises(ConfigError, match="unknown verify"):
            run("verify", cfg, verify_name="nope")

    def test_margin_never_errors(self, capsys):
        # degenerate-looking margins still exit 0 as long as quadrature
        # converges; use a tiny radius where margins can go negative
        cfg = parse_config(GOOD.replace("r_min = 2", "r_min = 0.2")
                           .replace("r_max = 50", "r_max = 0.5"))
        assert run("verify", cfg, verify_name="mcquillan") == 0

    def test_tol_override(self, cfg, capsys):
        assert run("compute", cfg, r=5.0, tol=1e-4) == 0
        capsys.readouterr()
        with pytest.raises(ConfigError, match="tol"):
            run("compute", cfg, r=5.0, tol=-1.0)


class TestMain:
    def test_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_text(GOOD, encoding="utf-8")
        assert main(["check", "--config", str(path)]) == 0
        capsys.readouterr()
        out = tmp_path / "row.csv"
        assert main(["compute", "--config", str(path), "--r", "10",
                     "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").count("\n") == 2

    @pytest.mark.parametrize("command", ["check", "sweep"])
    def test_radius_only_for_compute_and_verify(self, tmp_path, capsys,
                                                command):
        path = tmp_path / "cfg.ini"
        path.write_text(GOOD, encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), "--r", "5"])
        assert exc.value.code == 2
        assert "--r" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--r", "--tol"])
    def test_identities_refuses_radius_and_tol(self, tmp_path, capsys, flag):
        path = tmp_path / "cfg.ini"
        path.write_text(GOOD, encoding="utf-8")
        assert main(["verify", "identities", flag, "5",
                     "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"nevlab: error: verify identities takes no {flag}\n")

    def test_one_parser_per_process(self, tmp_path, monkeypatch):
        # the parser is built on the first call and reused; options of one
        # call (--r, --tol, --out, the verify name) do not reach the next
        path = tmp_path / "cfg.ini"
        path.write_text(GOOD, encoding="utf-8")
        seen = []
        monkeypatch.setattr(nevlab.cli, "run",
                            lambda command, cfg, **kw: seen.append(
                                (command, kw)) or 0)
        nevlab.cli._parser.cache_clear()
        out = str(tmp_path / "out.csv")
        for argv in (["verify", "cartan", "--r", "5", "--tol", "1e-4",
                      "--out", out],
                     ["check"], ["compute", "--r", "7"], ["sweep"]):
            assert main(argv + ["--config", str(path)]) == 0
        info = nevlab.cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        none = {"r": None, "out": None, "tol": None, "verify_name": None}
        assert seen == [
            ("verify", {"r": 5.0, "out": out, "tol": 1e-4,
                        "verify_name": "cartan"}),
            ("check", none),
            ("compute", {**none, "r": 7.0}),
            ("sweep", none),
        ]

    @pytest.mark.parametrize("user", [None, "3"], ids=["unset", "user-set"])
    def test_one_blas_thread_unless_set(self, tmp_path, monkeypatch, user):
        path = tmp_path / "cfg.ini"
        path.write_text(GOOD, encoding="utf-8")
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        for name in names:
            monkeypatch.delenv(name, raising=False)
        if user is not None:
            monkeypatch.setenv("OMP_NUM_THREADS", user)
        seen = run_fresh(
            "import json, os, sys\n"
            "from nevlab.cli import main\n"
            "code = main(['check', '--config', sys.argv[1]])\n"
            f"print(json.dumps([code] + [os.environ.get(v) for v in "
            f"{names}]))",
            str(path))
        assert seen == [0, "1", user or "1", "1"]

    def test_missing_config_file(self, capsys):
        assert main(["check", "--config", "/does/not/exist.ini"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_config_is_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(GOOD.replace("r_min = 2", "r_min = -1"),
                        encoding="utf-8")
        assert main(["sweep", "--config", str(path)]) == 1
        assert "r_min" in capsys.readouterr().err

    def test_root_finding_error_is_exit_one(self, tmp_path, capsys,
                                             monkeypatch):
        """A failed root extraction is reported as an error, not a traceback."""
        def failing_roots(p, tol=None):
            raise RootFindingError("root iteration failed to converge", p)

        monkeypatch.setattr(nevlab.curve, "roots", failing_roots)
        path = tmp_path / "ramified.ini"
        path.write_text(GOOD.replace("1; z; z^2", "1; z^2; z^3"),
                        encoding="utf-8")
        # cartan counts the zeros of X^{n+1}; growth extracts no roots
        assert main(["verify", "cartan", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "nevlab: error: root iteration failed to converge\n"


class TestCsvHeader:
    """Each report row is a dict in column order, so the header rests on
    the order in which the builders write their cells."""

    @pytest.mark.parametrize("argv, columns", [
        (["compute"], "r T_1 T_2 T_3 m_0 m_1 m_2 m_3 N_W N_Ram lhs rhs "
                      "margin converged"),
        (["verify", "cartan"], "r lhs rhs margin T_1 N_W m_1 sum_check "
                               "converged"),
        (["verify", "lemma55"], "r lhs rhs margin m_1 m_C hbar_1 hbar_pair "
                                "converged"),
        (["verify", "prop62"], "d r lhs rhs margin lhs_pair rhs_pair "
                               "margin_pair route_gap m_C hbar_pair "
                               "converged"),
        (["verify", "growth"], "r lhs rhs margin T_1 T_2 T_3 excess_1 "
                               "excess_2 excess_3 converged"),
        (["verify", "mcquillan"], "r lhs rhs margin T_1 T_2 mu_int N_Ram "
                                  "normalized converged"),
    ], ids=lambda v: "-".join(v) if isinstance(v, list) else "")
    def test_shipped_twisted_cubic(self, tmp_path, argv, columns):
        out = tmp_path / "out.csv"
        assert main(argv + ["--r", "10", "--config", str(TWISTED_CUBIC),
                            "--out", str(out)]) == 0
        header, *rows = out.read_text(encoding="utf-8").splitlines()
        assert header.split(",") == columns.split()
        assert rows and all(len(row.split(",")) == len(columns.split())
                            for row in rows)


# Every --r refusal, of compute and of each radial verify, reads the one
# radius rule, heights.validate_radii: (argv, id, message) per case.
R_REFUSALS = [
    (command + ["--r", r], f"{command[-1]}-r-{r}",
     f"--r needs r > 0, a finite radius, not {shown}")
    for command in (["compute"], ["verify", "cartan"], ["verify", "growth"],
                    ["verify", "mcquillan"])
    for r, shown in (("-2", "-2.0"), ("0", "0.0"), ("nan", "nan"),
                     ("inf", "inf"))]


class TestNonFinite:
    @pytest.mark.parametrize("argv, message", [
        pytest.param(["check", "--tol", "nan"], "--tol must be finite",
                     id="check-tol-nan"),
        *(pytest.param(argv, message, id=name)
          for argv, name, message in R_REFUSALS),
    ])
    def test_command_line_number_is_exit_one(self, tmp_path, capsys, argv,
                                             message):
        path = tmp_path / "cfg.ini"
        path.write_text(GOOD, encoding="utf-8")
        assert main(argv + ["--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"nevlab: error: {message}\n"

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_harness_rejects_radius(self, cfg, r):
        x = nevlab.curve.normalize(list(cfg.curve))
        with pytest.raises(ValueError, match="finite"):
            nevlab.harness.verify_height_growth(x, [2.0, r])


HUGE_RADIUS = GOOD.replace("coords = 1; z; z^2", "coords = 1; z^40; z^80 + 1")


class TestFloatOverflow:
    """verify growth at radii where |x|^2 overflows a float: the Jensen
    heights scale the reduced norm by r^{-2D}, so every row converges,
    within tol of the mpmath oracle, with no warning and no midpoint
    quadrature.  A midpoint mean that meets the overflow prints as
    non-finite."""

    @staticmethod
    def _growth(tmp_path, monkeypatch, capsys, r):
        calls = []
        monkeypatch.setattr(nevlab.nevanlinna, "adaptive_midpoint",
                            lambda *args, **kwargs: calls.append(args))
        path = tmp_path / "huge.ini"
        path.write_text(HUGE_RADIUS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "growth", "--r", str(r),
                         "--config", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.err, calls) == (0, "", [])
        header, row = captured.out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["converged"] == "1"
        x = nevlab.curve.normalize(list(parse_config(HUGE_RADIUS).curve))
        for d in (1, 2, 3):
            want, quad_err = mp_height(x, d, r)
            assert quad_err < 1e-11
            assert abs(float(cells[f"T_{d}"]) - want) < 1e-6, d
        return cells

    def test_growth_at_huge_radius_warns_nothing(self, tmp_path, monkeypatch,
                                                 capsys):
        # |X^2| overflows a float at r = 53
        cells = self._growth(tmp_path, monkeypatch, capsys, 53)
        assert cells["T_1"] == "317.623353084"

    def test_growth_at_radius_one_million(self, tmp_path, monkeypatch,
                                          capsys):
        # T_1 is 80 log r to every printed digit: |x| = r^80 (1 + O(r^-80))
        cells = self._growth(tmp_path, monkeypatch, capsys, 1e6)
        assert cells["T_1"] == f"{80 * math.log(1e6):.12g}"

    def test_mcquillan_overflow_prints_non_finite_mu(self, tmp_path, capsys):
        # mumax's chart products overflow at every midpoint node at
        # r = 200, so the mu row's mean is not finite, and mu_int says so
        path = tmp_path / "huge.ini"
        path.write_text(HUGE_RADIUS)
        code = main(["verify", "mcquillan", "--r", "200",
                     "--config", str(path)])
        header, row = capsys.readouterr().out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert (code, cells["converged"]) == (2, "0")
        assert not math.isfinite(float(cells["mu_int"]))
