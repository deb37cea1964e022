import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bifree
from bifree import bipartite_num as bp
from bifree import gaussfam as gf
from bifree.cli import main
from bifree.cumulant import gaussian_cumulant_spec, save_spec
from fractions import Fraction
from helpers import (
    conjugate_json_whole,
    density_csv_whole,
    density_json_whole,
    lattice_json_whole,
    lattice_text_whole,
)


def child_env():
    """The environment of a fresh interpreter with this checkout's ``bifree`` importable."""
    src = str(Path(bifree.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def run_child(*args):
    """Run a fresh interpreter with this checkout's ``bifree`` importable."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=child_env(), timeout=120
    )


@pytest.fixture
def cov_file(tmp_path):
    path = tmp_path / "cov.json"
    path.write_text(json.dumps({"n": 1, "m": 1, "matrix": [[1.0, 0.5], [0.5, 1.0]]}))
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    save_spec(
        gaussian_cumulant_spec(1, 1, [[1, Fraction(1, 2)], [Fraction(1, 2), 1]]),
        str(path),
    )
    return str(path)


class TestGaussianCli:
    def test_fisher_golden_text(self, cov_file, capsys):
        assert main(["gaussian", "fisher", "--cov", cov_file]) == 0
        assert capsys.readouterr().out.strip() == "2.6666666667"

    def test_fisher_json(self, cov_file, capsys):
        assert main(["gaussian", "fisher", "--cov", cov_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fisher"] == pytest.approx(8 / 3, rel=1e-11)

    def test_fisher_singular_prints_inf(self, tmp_path, capsys):
        path = tmp_path / "cov.json"
        path.write_text(json.dumps({"n": 1, "m": 1, "matrix": [[1, 1], [1, 1]]}))
        assert main(["gaussian", "fisher", "--cov", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "inf"

    def test_entropy_methods_agree(self, cov_file, capsys):
        assert main(["gaussian", "entropy", "--cov", cov_file]) == 0
        closed = float(capsys.readouterr().out)
        assert (
            main(
                ["gaussian", "entropy", "--cov", cov_file, "--method", "quadrature"]
            )
            == 0
        )
        quad = float(capsys.readouterr().out)
        assert abs(closed - quad) < 1e-6

    def test_entropy_quadrature_singular_json(self, tmp_path, capsys):
        path = tmp_path / "cov.json"
        path.write_text(json.dumps({"n": 1, "m": 1, "matrix": [[1.0, 1.0], [1.0, 1.0]]}))
        args = ["gaussian", "entropy", "--cov", str(path), "--format", "json", "--method", "quadrature"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"entropy": "-inf", "error_bound": "inf", "evaluations": 1, "method": "quadrature"}

    def test_entropy_quadrature_small_eigenvalue(self, tmp_path, capsys):
        # eigenvalues 1.999999 and 1e-6
        path = tmp_path / "cov.json"
        path.write_text(json.dumps({"n": 1, "m": 1, "matrix": [[1, 0.999999], [0.999999, 1]]}))
        args = ["gaussian", "entropy", "--cov", str(path), "--format", "json"]
        assert main(args + ["--method", "quadrature"]) == 0
        quad = json.loads(capsys.readouterr().out)
        assert main(args + ["--method", "closed"]) == 0
        closed = json.loads(capsys.readouterr().out)
        assert abs(quad["entropy"] - closed["entropy"]) <= quad["error_bound"]

    @pytest.mark.parametrize("n, m, matrix", [
        (1, 1, [[1, 0.999999], [0.999999, 1]]),
        (1, 1, [[1, 0.5], [0.5, 1]]),
        (2, 2, np.diag([1e-6, 1e3, 1, 5e-3]).tolist()),
    ])
    def test_entropy_quadrature_bound_covers_printed_value(self, tmp_path, capsys, n, m, matrix):
        # the printed entropy is rounded to 12 digits: its bound must cover that step too
        path = tmp_path / "cov.json"
        path.write_text(json.dumps({"n": n, "m": m, "matrix": matrix}))
        args = ["gaussian", "entropy", "--cov", str(path), "--format", "json", "--method", "quadrature"]
        assert main(args) == 0
        quad = json.loads(capsys.readouterr().out)
        exact = gf.entropy_closed(gf.Covariance(n, m, np.array(matrix)))
        assert abs(quad["entropy"] - exact) <= quad["error_bound"]

    def test_dimension(self, cov_file, capsys):
        assert main(["gaussian", "dimension", "--cov", cov_file]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_dimension_limit(self, cov_file, capsys):
        assert main(["gaussian", "dimension", "--cov", cov_file, "--method", "limit",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "limit"
        assert payload["dimension"] == pytest.approx(2.0, abs=1e-6)

    def test_small_eigenvalue_is_one_decision(self, tmp_path, capsys):
        # eigenvalue ratio 1e-10, above the 1e-12 cut: finite Fisher
        # information and entropy, full dimension; the limit form cannot
        # resolve an eigenvalue this far below its smallest epsilon
        path = tmp_path / "cov.json"
        path.write_text(json.dumps({"n": 1, "m": 1, "matrix": [[1.0, 0.0], [0.0, 1e-10]]}))
        printed = {}
        for argv in (["fisher"], ["entropy"], ["dimension"], ["dimension", "--method", "limit"]):
            assert main(["gaussian", *argv, "--cov", str(path)]) == 0
            printed[" ".join(argv)] = capsys.readouterr().out.strip()
        assert printed == {"fisher": "10000000001", "entropy": "-8.6750483986", "dimension": "2",
                           "dimension --method limit": "1.0000004092"}

    def test_fisher_perturbed(self, cov_file, capsys):
        assert main(["gaussian", "fisher", "--cov", cov_file, "--t", "1.0"]) == 0
        # Tr((A + I)^-1) with eigenvalues 1.5, 2.5
        assert float(capsys.readouterr().out) == pytest.approx(1 / 2.5 + 1 / 1.5)

    def test_moments_with_fock_oracle(self, cov_file, capsys):
        rc = main(
            [
                "gaussian",
                "moments",
                "--cov",
                cov_file,
                "--pattern",
                "l1 r1 l1 r1",
                "--depth",
                "4",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["moment"] == pytest.approx(1.25, abs=1e-10)
        assert payload["fock"] == pytest.approx(1.25, abs=1e-10)

    def test_missing_file_is_validation_error(self, capsys):
        assert main(["gaussian", "fisher", "--cov", "/nonexistent.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_nonconvergence_maps_to_exit_3(self, cov_file, monkeypatch, capsys):
        from bifree.gaussfam import NonConvergenceError

        def stalled(*args, **kwargs):
            raise NonConvergenceError("stalled")

        monkeypatch.setattr(bifree.gaussfam, "entropy_quadrature", stalled)
        rc = main(["gaussian", "entropy", "--cov", cov_file, "--method", "quadrature"])
        assert rc == 3
        assert "stalled" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, TypeError, ValueError])
    def test_internal_error_maps_to_exit_4(self, cov_file, monkeypatch, capsys, error):
        def broken(*args, **kwargs):
            raise error("library bug")

        monkeypatch.setattr(bifree.gaussfam, "fisher", broken)
        assert main(["gaussian", "fisher", "--cov", cov_file]) == 4
        err = capsys.readouterr().err
        assert "Traceback" in err and f"{error.__name__}: library bug" in err

    def test_linalg_error_after_lazy_import_maps_to_exit_4(self, cov_file):
        # numpy is first loaded inside the handler, after main was entered
        code = (
            "import sys\n"
            "import bifree.cli as cli\n"
            "if 'numpy' in sys.modules:\n"
            "    sys.exit(9)\n"
            "loaded = cli._cmd_gaussian_fisher\n"
            "def handler(args):\n"
            "    loaded(args)\n"
            "    import numpy\n"
            "    raise numpy.linalg.LinAlgError('library bug')\n"
            "cli._cmd_gaussian_fisher = handler\n"
            f"sys.exit(cli.main(['gaussian', 'fisher', '--cov', {cov_file!r}]))\n"
        )
        proc = run_child("-c", code)
        assert proc.returncode == 4, proc.stderr
        assert "LinAlgError: library bug" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["gaussian", "entropy", "--method", "quadrature", "--quad-tol", "0"],
        ["gaussian", "entropy", "--method", "quadrature", "--quad-tol", "-1"],
        ["gaussian", "entropy", "--method", "quadrature", "--quad-tol", "nan"],
        ["gaussian", "entropy", "--method", "quadrature", "--quad-tol", "inf"],
        ["gaussian", "fisher", "--t", "nan"],
        ["gaussian", "fisher", "--t", "inf"],
        ["gaussian", "moments", "--pattern", "l"],
        ["gaussian", "moments", "--pattern", "lx"],
        ["gaussian", "moments", "--pattern", "l+1"],
    ])
    def test_bad_numeric_option_exits_2(self, cov_file, capsys, argv):
        assert main(argv + ["--cov", cov_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        if "--pattern" in argv:  # the malformed token is named
            assert repr(argv[-1]) in err


class TestLatticeCli:
    def test_count_and_mobius(self, capsys):
        assert main(["lattice", "--chi", "lrlr"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 14
        assert payload["mobius_0_to_1"] == -5
        assert len(payload["partitions"]) == 14

    def test_bad_chi(self, capsys):
        assert main(["lattice", "--chi", "lrq"]) == 2

    def test_out_refuses_existing_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "lattice.json"
        out.write_text("keep me\n")
        # as if the file appeared after an existence check: only the open may decide
        monkeypatch.setattr(os.path, "exists", lambda path: False)
        assert main(["lattice", "--chi", "lr", "--out", str(out)]) == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert out.read_text() == "keep me\n"
        assert main(["lattice", "--chi", "lr", "--out", str(out), "--force"]) == 0
        assert json.loads(out.read_text())["count"] == 2

    def test_cap_error(self, capsys):
        assert main(["lattice", "--chi", "l" * 13]) == 2

    def test_cap_is_not_an_option(self, capsys):
        assert main(["lattice", "--chi", "lr", "--cap", "4"]) == 2
        assert "--cap" in capsys.readouterr().err


class TestDqCli:
    def test_golden_bipartite(self, capsys):
        assert main(["dq", "--side", "left", "--index", "1", "X1 X1 Y1"]) == 0
        assert capsys.readouterr().out.strip() == "Y1 ⊗ X1 + X1 Y1 ⊗ 1"

    def test_flipped_free(self, capsys):
        rc = main(
            [
                "dq",
                "--side",
                "left",
                "--index",
                "1",
                "--flipped",
                "--mode",
                "free",
                "y1 X1 y1 x1 y2 X1 y3 y1 x2",
            ]
        )
        assert rc == 0
        assert (
            capsys.readouterr().out.strip()
            == "1 ⊗ y1 y1 x1 y2 X1 y3 y1 x2 + X1 x1 ⊗ y1 y1 y2 y3 y1 x2"
        )

    def test_bad_polynomial(self, capsys):
        assert main(["dq", "--side", "left", "--index", "1", "Q7"]) == 2

    def test_zero_denominator_exits_2(self, capsys):
        assert main(["dq", "3/0*X1", "--side", "left"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip() == "error: coefficient has a zero denominator: '3/0'"

    @pytest.mark.parametrize("number", ["abc", "1/2/3"])
    def test_bad_coefficient_exits_2(self, capsys, number):
        assert main(["dq", f"{number}*X1", "--side", "left"]) == 2
        assert capsys.readouterr().err == f"error: coefficient must be a rational, got {number!r}\n"


class TestCumulantCli:
    def test_pair_cumulant(self, spec_file, capsys):
        assert main(["cumulants", "--spec", spec_file, "--word", "X1 Y1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == "1/2"
        assert payload["chi"] == "lr"

    def test_moment(self, spec_file, capsys):
        assert main(["moments", "--spec", spec_file, "--word", "X1 Y1 X1 Y1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == "5/4"

    def test_zero_denominator_in_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        entry = {"pattern": [["l", 1], ["l", 1]], "value": "1/0"}
        path.write_text(json.dumps({"n": 1, "m": 1, "entries": [entry]}))
        assert main(["moments", "--spec", str(path), "--word", "X1 X1"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1 and "field 'value'" in err

    def test_float_value_reads_as_its_text(self, tmp_path, capsys):
        # the JSON number 0.1 is 1/10, as the string "1/10" is
        outputs = []
        for value in (0.1, "1/10"):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({"n": 1, "m": 1, "entries": [
                {"pattern": [["l", 1], ["l", 1]], "value": value}]}))
            assert main(["moments", "--spec", str(path), "--word", "X1 X1"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and json.loads(outputs[0])["value"] == "1/10"

    def test_cumulant_of_no_letters_rejected(self, spec_file, capsys):
        assert main(["cumulants", "--spec", spec_file, "--word", "1"]) == 2
        assert capsys.readouterr().err == "error: cumulants need at least one letter\n"

    def test_moment_of_undeclared_letters_rejected(self, spec_file, capsys):
        assert main(["moments", "--spec", spec_file, "--word", "X5 Y7"]) == 2
        assert "arity" in capsys.readouterr().err

    def test_conjugate_check_passes(self, spec_file, capsys):
        rc = main(
            [
                "conjugate-check",
                "--spec",
                spec_file,
                "--xi",
                "4/3*X1 - 2/3*Y1",
                "--max-degree",
                "5",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["first_failure"] is None

    def test_conjugate_check_negative_degree_exits_2(self, spec_file, capsys):
        argv = ["conjugate-check", "--spec", spec_file, "--xi", "X1", "--max-degree", "-1"]
        assert main(argv) == 2
        assert "max_degree" in capsys.readouterr().err

    def test_conjugate_check_past_degree_bound_exits_2(self, spec_file, capsys):
        # the spec's bound is 10: phi(Z xi) would need degree 11
        argv = ["conjugate-check", "--spec", spec_file, "--xi", "X1", "--max-degree", "10"]
        assert main(argv) == 2
        assert "exceeds bound 10" in capsys.readouterr().err

    def test_conjugate_check_symbol_xi_exits_2(self, spec_file, capsys):
        # phi(xi) has length 1, which no pair sums to, yet the symbol is refused
        argv = ["conjugate-check", "--spec", spec_file, "--xi", "x1"]
        assert main(argv) == 2
        assert "variables only" in capsys.readouterr().err

    @pytest.mark.parametrize("max_degree", ["0", "1"])
    def test_conjugate_check_symbol_xi_at_low_degree_exits_2(self, spec_file, capsys, max_degree):
        # degree 0 reads only phi(xi) and is skipped as 0 = 0: the refusal
        # comes from xi's letters, checked before any word
        argv = ["conjugate-check", "--spec", spec_file, "--xi", "x1", "--max-degree", max_degree]
        assert main(argv) == 2
        assert "variables only" in capsys.readouterr().err

    @pytest.mark.parametrize("xi, line", [("4/3*X1 - 2/3*Y1", "PASS (21 words up to degree 5)"),
                                          ("X1", "FAIL at Y1: 1/2 != 0")], ids=["pass", "fail"])
    def test_conjugate_check_text(self, spec_file, capsys, xi, line):
        argv = ["conjugate-check", "--spec", spec_file, "--xi", xi, "--max-degree", "5"]
        assert main(argv + ["--format", "text"]) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_conjugate_check_reports_failure(self, spec_file, capsys):
        rc = main(
            ["conjugate-check", "--spec", spec_file, "--xi", "X1", "--max-degree", "3"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert payload["first_failure"]["word"] == "Y1"


class TestBipartiteCli:
    def test_make_then_fisher_round_trip(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        rc = main(
            ["bipartite", "make-semicircular", "--c", "0.5", "--n", "96", "--out", str(out)]
        )
        assert rc == 0
        capsys.readouterr()
        assert main(["bipartite", "fisher", "--grid", str(out)]) == 0
        from_file = float(capsys.readouterr().out)
        direct = bp.fisher_numeric(bp.semicircular_density(0.5, bp.GridSpec(96, 96)))
        assert from_file == pytest.approx(direct, rel=1e-9)

    def test_overwrite_needs_force(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        args = ["bipartite", "make-semicircular", "--c", "0.1", "--n", "16", "--out", str(out)]
        assert main(args) == 0
        assert main(args) == 2
        assert main(args + ["--force"]) == 0

    @pytest.mark.parametrize("fmt, existing", [("json", "grid.json"), ("csv", "grid.csv")])
    def test_make_refuses_existing_file(self, tmp_path, monkeypatch, capsys, fmt, existing):
        kept = tmp_path / existing
        kept.write_text("keep me\n")
        # as if the file appeared after an existence check: only the open may decide
        monkeypatch.setattr(os.path, "exists", lambda path: False)
        args = ["bipartite", "make-semicircular", "--c", "0.1", "--n", "16",
                "--out", str(tmp_path / "grid.json"), "--format", fmt]
        assert main(args) == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert kept.read_text() == "keep me\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [existing]
        assert main(args + ["--force"]) == 0
        assert kept.read_text() != "keep me\n"

    def test_conjugate_output_schema(self, tmp_path, capsys):
        out = tmp_path / "field.json"
        rc = main(
            ["bipartite", "conjugate", "--c", "0.3", "--n", "48", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["xi_left"]) == 48
        assert len(payload["xi_right"][0]) == 48

    def test_conjugate_out_matches_field_and_is_kept(self, tmp_path, capsys):
        out = tmp_path / "field.json"
        args = ["bipartite", "conjugate", "--c", "0.3", "--n", "32", "--out", str(out)]
        assert main(args) == 0
        written = out.read_text()
        payload = json.loads(written)
        field = bp.conjugate_field(bp.semicircular_density(0.3, bp.GridSpec(32, 32)))
        assert payload["xi_left"] == field.xi_left.tolist()
        assert payload["xi_right"] == field.xi_right.tolist()
        assert payload["mask"] == field.mask.astype(int).tolist()
        assert main(args) == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert out.read_text() == written

    def test_make_checks_out_before_building(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("the grid was built before --out was checked")

        monkeypatch.setattr(bp, "semicircular_density", fail)
        assert main(["bipartite", "make-semicircular", "--c", "0.5", "--n", "16"]) == 2
        assert "requires --out" in capsys.readouterr().err

    def test_degenerate_c_rejected(self, capsys):
        assert main(["bipartite", "fisher", "--c", "1.0", "--n", "16"]) == 2

    @pytest.mark.parametrize("eps", ["nan", "inf", "0"])
    def test_bad_eps_exits_2(self, capsys, eps):
        assert main(["bipartite", "fisher", "--c", "0.5", "--n", "16", "--eps", eps]) == 2
        assert "eps must be finite and positive" in capsys.readouterr().err

    def test_eps_and_richardson_flags(self, capsys):
        rc = main(
            ["bipartite", "fisher", "--c", "0.5", "--n", "128", "--richardson"]
        )
        assert rc == 0
        sharpened = float(capsys.readouterr().out)
        assert main(["bipartite", "fisher", "--c", "0.5", "--n", "128"]) == 0
        plain = float(capsys.readouterr().out)
        target = 2 / (1 - 0.25)
        assert abs(sharpened - target) < abs(plain - target)

    def test_csv_grid_pair(self, tmp_path, capsys):
        header = tmp_path / "g.json"
        rc = main(
            [
                "bipartite",
                "make-semicircular",
                "--c",
                "0.3",
                "--n",
                "64",
                "--out",
                str(header),
                "--format",
                "csv",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(["bipartite", "fisher", "--grid", str(header)])
        assert rc == 0
        value = float(capsys.readouterr().out)
        assert value == pytest.approx(
            2 / (1 - 0.09), rel=0.1
        )  # coarse grid, loose check

    @pytest.mark.parametrize("command", ["fisher", "conjugate"])
    def test_both_grid_forms_give_the_same_output(self, tmp_path, capsys, command):
        make = ["bipartite", "make-semicircular", "--c", "0.5", "--n", "33", "--out"]
        assert main(make + [str(tmp_path / "inline.json")]) == 0
        assert main(make + [str(tmp_path / "two.json"), "--format", "csv"]) == 0
        capsys.readouterr()
        outs = []
        for name in ("inline.json", "two.json"):
            assert main(["bipartite", command, "--grid", str(tmp_path / name)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


@pytest.mark.parametrize("argv, message", [
    (["--grid", "g.json", "--grid-csv", "g.csv"], "unrecognized arguments: --grid-csv"),
    (["--grid", "g.json", "--c", "0.5"], "argument --c: not allowed with argument --grid"),
    (["--c", "0.5", "--grid", "g.json"], "argument --grid: not allowed with argument --c"),
    ([], "one of the arguments --grid --c is required"),
    (["--n", "16"], "one of the arguments --grid --c is required"),
])
@pytest.mark.parametrize("command", ["fisher", "conjugate"])
def test_grid_source_is_one_of_grid_or_c(capsys, command, argv, message):
    assert main(["bipartite", command, *argv]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("extra, named", [
    ({"values": [[1, 1], [1, 1]]}, "both 'values' and 'values_csv'"),
    ({"values_csv": "../g.csv"}, "field 'values_csv' must be a bare file name"),
    ({"values_csv": "missing.csv"}, "No such file or directory"),
])
def test_bad_values_csv_exits_2(tmp_path, capsys, extra, named):
    (tmp_path / "sub").mkdir()
    (tmp_path / "g.csv").write_text("1,1\n1,1\n")
    (tmp_path / "sub" / "g.csv").write_text("1,1\n1,1\n")
    header = tmp_path / "sub" / "g.json"
    header.write_text(json.dumps({"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": 2, "ny": 2,
                                  "values_csv": "g.csv", **extra}))
    assert main(["bipartite", "fisher", "--grid", str(header)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert named in err


@pytest.mark.parametrize("text", ["1,1\n1\n", "1\n1\n", "1,1,1\n1,1,1\n", "1,1\n1,one\n"],
                         ids=["ragged", "short", "long", "non-numeric"])
def test_bad_csv_rows_exit_2(tmp_path, capsys, text):
    header = tmp_path / "g.json"
    header.write_text(json.dumps({"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": 2, "ny": 2,
                                  "values_csv": "g.csv"}))
    (tmp_path / "g.csv").write_text(text)
    assert main(["bipartite", "fisher", "--grid", str(header)]) == 2
    assert "g.csv: row" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["fisher"], ["conjugate"], ["make-semicircular", "--out"]])
def test_grid_size_below_two_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "g.json"
    argv = ["bipartite", *argv, *([str(out)] if argv[-1] == "--out" else [])]
    assert main(argv + ["--c", "0.5", "--n", "-3"]) == 2
    assert capsys.readouterr().err == "error: need two or more points per axis, got -3 x -3\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["fisher"], ["conjugate"], ["make-semicircular", "--out"]])
def test_grid_too_long_to_hold_exits_2(tmp_path, capsys, argv):
    # at 2**63 points numpy's linspace raises an IndexError, not a ValueError
    out = tmp_path / "g.json"
    argv = ["bipartite", *argv, *([str(out)] if argv[-1] == "--out" else [])]
    n = 2 ** 63
    assert main(argv + ["--c", "0.5", "--n", str(n)]) == 2
    assert capsys.readouterr().err == f"error: a {n} x {n} grid does not fit in memory\n"
    assert not out.exists()


@pytest.mark.parametrize("values", [{"values_csv": "g.csv"}, {"values": [[1, 1], [1, 1]]}],
                         ids=["header", "inline"])
def test_grid_file_size_below_two_exits_2_naming_the_file(tmp_path, capsys, values):
    (tmp_path / "g.csv").write_text("1,1\n1,1\n")
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": -1, "ny": 2,
                                **values}))
    assert main(["bipartite", "fisher", "--grid", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: need two or more points per axis, got -1 x 2\n"


@pytest.mark.parametrize("data, message", [
    (b"1,1\n1,\xff\n", "row 2: could not convert string to float: '\ufffd'"),
    (b"1,1\n1," + b"1" * 200_000 + b"\n", "row 2: field larger than field limit"),
], ids=["undecodable", "field-too-long"])
def test_unreadable_csv_exits_2_naming_both_files(tmp_path, capsys, data, message):
    (tmp_path / "g.csv").write_bytes(data)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": 2, "ny": 2,
                                "values_csv": "g.csv"}))
    assert main(["bipartite", "fisher", "--grid", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {tmp_path / 'g.csv'}: {message}")
    assert len(err.splitlines()) == 1


FILE_ERRORS = [
    (["gaussian", "fisher", "--cov"], {"n": 1, "m": 1}, "covariance JSON field 'matrix' is missing"),
    (["gaussian", "entropy", "--cov"], {"n": 1, "m": 1, "matrix": [[1, 2], [2, 1]]},
     "covariance must be positive semidefinite"),
    (["moments", "--word", "X1", "--spec"], {"n": -1, "m": 1},
     "arities and degree bound must be nonnegative"),
    (["cumulants", "--word", "X1", "--spec"],
     {"n": 1, "m": 1, "entries": [{"pattern": [["x", 1]], "value": "1"}]}, "bad side 'x' in pattern"),
    (["bipartite", "fisher", "--grid"],
     {"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": None, "ny": 2, "values_csv": "v.csv"},
     "grid field 'nx' must be an integer, got None"),
    (["bipartite", "conjugate", "--grid"],
     {"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": 2, "ny": 2, "values": [[0, 0], [0, 0]]},
     "density has zero mass on the grid"),
    (["moments", "--word", "X1 X1", "--spec"],
     {"n": 1, "m": 1, "entries": [{"pattern": [["l", 1], ["l", 1]], "value": "1"},
                                  {"pattern": [["l", 1], ["l", 1]], "value": "2"}]},
     "cumulant spec repeats the pattern (('l', 1), ('l', 1))"),
    # integer fields take JSON integers only: no float, 2.0 included, and no boolean
    (["gaussian", "fisher", "--cov"], {"n": 1.5, "m": 1, "matrix": [[1, 0], [0, 1]]},
     "covariance field 'n' must be an integer, got 1.5"),
    (["gaussian", "dimension", "--cov"], {"n": True, "m": 1, "matrix": [[1, 0], [0, 1]]},
     "covariance field 'n' must be an integer, got True"),
    (["gaussian", "entropy", "--cov"], {"n": 1, "m": 1.0, "matrix": [[1, 0], [0, 1]]},
     "covariance field 'm' must be an integer, got 1.0"),
    (["moments", "--word", "X1 X1", "--spec"],
     {"n": 1, "m": 1, "entries": [{"pattern": [["l", 1.5], ["l", 1]], "value": "1"}]},
     "cumulant spec pattern index must be an integer, got 1.5"),
    (["cumulants", "--word", "X1", "--spec"], {"n": 1, "m": 1, "degree_bound": 4.0},
     "cumulant spec field 'degree_bound' must be an integer, got 4.0"),
    (["bipartite", "fisher", "--grid"],
     {"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": 3.5, "ny": 2, "values": [[1, 1], [1, 1]]},
     "grid field 'nx' must be an integer, got 3.5"),
    (["bipartite", "fisher", "--grid"],
     {"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": 2, "ny": False, "values_csv": "g.csv"},
     "grid field 'ny' must be an integer, got False"),
    # the declared degree bound is capped: _reach is built up to it
    (["moments", "--word", "X1 X1", "--spec"], {"n": 1, "m": 1, "degree_bound": 2 ** 70},
     "degree bound 1180591620717411303424 exceeds the cap 1000"),
    # a pattern pair holding a list is not a pair of JSON scalars
    (["moments", "--word", "X1 X1", "--spec"],
     {"n": 1, "m": 1, "entries": [{"pattern": [[["l"], 1]], "value": "1"}]},
     "cumulant spec entry JSON field 'pattern' is not a list of pairs: [[['l'], 1]]"),
    (["cumulants", "--word", "X1", "--spec"], {"n": 1, "m": 1, "entries": {"pattern": [["l", 1]]}},
     "cumulant spec JSON field 'entries' is not a list: {'pattern': [['l', 1]]}"),
]


@pytest.mark.parametrize("argv, content, message", FILE_ERRORS,
                         ids=[f"{argv[0]}-{i}" for i, (argv, _, _) in enumerate(FILE_ERRORS)])
def test_input_file_error_names_the_file_once(tmp_path, capsys, argv, content, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}") and err.count(str(path)) == 1
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["bipartite", "fisher", "--c", "0.5", "--bogus"],
    ["gaussian", "moments", "--cov", "c.json", "--pattern", "l1", "extra"],
    ["lattice", "--chi", "lr", "--bogus"],
    ["selftest", "--fast", "--bogus"],
])
def test_unrecognized_argument_is_reported_with_the_subcommand_usage(capsys, argv):
    command = " ".join(a for a in argv[:2] if not a.startswith("-"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: bifree {command} ")
    assert f"bifree {command}: error: unrecognized arguments: {argv[-1]}\n" in err


@pytest.mark.parametrize("argv", [["lattice", "--chi", "rlrrllrlrrll"],
                                  ["bipartite", "conjugate", "--c", "0.5", "--n", "128"]])
def test_closed_reader_ends_quietly_with_141(argv):
    # the reader takes 20 bytes and closes the pipe, as `bifree ... | head -c 20` does
    proc = subprocess.Popen([sys.executable, "-m", "bifree.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env())
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_quiet_silences_the_non_product_support_warning(tmp_path):
    # a diagonal band: most of the product of its marginal supports is empty
    x = np.linspace(-1, 1, 48)
    path = tmp_path / "band.json"
    bp.save_density(bp.make_density_grid(x, x, (np.abs(x[:, None] - x[None, :]) < 0.3) * 1.0), str(path))
    loud = run_child("-m", "bifree.cli", "bipartite", "fisher", "--grid", str(path))
    quiet = run_child("-m", "bifree.cli", "bipartite", "fisher", "--grid", str(path), "--quiet")
    assert loud.returncode == quiet.returncode == 0
    assert "NonProductSupportWarning" in loud.stderr and quiet.stderr == ""
    assert quiet.stdout == loud.stdout


class TestStreamedOutputsMatchWholeText:
    """The row-by-row writers give the bytes of one ``json.dumps`` (or one
    joined text) of the full payload, to stdout and to --out."""

    @pytest.mark.parametrize("c, n, extra", [(0.5, 33, []), (-0.3, 20, ["--eps", "0.3"]),
                                             (0.0, 16, ["--richardson"])])
    def test_conjugate(self, tmp_path, capsys, c, n, extra):
        args = ["bipartite", "conjugate", "--c", str(c), "--n", str(n), *extra]
        cfg = bp.FieldConfig(eps=0.3 if "--eps" in extra else None,
                             richardson="--richardson" in extra)
        whole = conjugate_json_whole(bp.semicircular_density(c, bp.GridSpec(n, n)), cfg)
        assert main(args) == 0
        assert capsys.readouterr().out == whole + "\n"
        out = tmp_path / "field.json"
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_text() == whole + "\n"

    @pytest.mark.parametrize("c, n", [(0.5, 33), (-0.3, 16)])
    def test_make_semicircular_json_and_csv(self, tmp_path, capsys, c, n):
        g = bp.semicircular_density(c, bp.GridSpec(n, n))
        make = ["bipartite", "make-semicircular", "--c", str(c), "--n", str(n)]
        out = tmp_path / "grid.json"
        assert main(make + ["--out", str(out)]) == 0
        assert out.read_text() == density_json_whole(g) + "\n"
        header = tmp_path / "two.json"
        assert main(make + ["--format", "csv", "--out", str(header)]) == 0
        header_text, values_text = density_csv_whole(g, "two.csv")
        assert header.read_text() == header_text + "\n"
        with open(tmp_path / "two.csv", encoding="utf-8", newline="") as handle:
            assert handle.read() == values_text

    @pytest.mark.parametrize("chi", ["l", "r", "lr", "rllrl", "lrrlrl", "rlrrllrl", "llllllll"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_lattice(self, tmp_path, capsys, chi, fmt):
        whole = (lattice_json_whole if fmt == "json" else lattice_text_whole)(chi)
        assert main(["lattice", "--chi", chi, "--format", fmt]) == 0
        assert capsys.readouterr().out == whole + "\n"
        out = tmp_path / "lattice.out"
        assert main(["lattice", "--chi", chi, "--format", fmt, "--out", str(out)]) == 0
        assert out.read_text() == whole + "\n"


MALFORMED_INPUTS = [
    (["gaussian", "fisher", "--cov"], {"n": 1, "m": 1}, "field 'matrix'"),
    (["gaussian", "fisher", "--cov"], [[1.0, 0.5], [0.5, 1.0]], "covariance JSON must be an object"),
    (["moments", "--word", "X1", "--spec"], {"m": 1, "entries": []}, "field 'n'"),
    (["moments", "--word", "X1", "--spec"], {"n": 1, "m": 1, "entries": [{"value": "1"}]},
     "field 'pattern'"),
    (["bipartite", "fisher", "--grid"],
     {"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": 2, "values": [[1, 1], [1, 1]]}, "field 'ny'"),
    (["moments", "--word", "X1", "--spec"], {"n": 1, "m": 1, "entries": [{"pattern": 5, "value": "1"}]},
     "field 'pattern'"),
    (["gaussian", "fisher", "--cov"], {"n": None, "m": 1, "matrix": [[1.0, 0.5], [0.5, 1.0]]}, "field 'n'"),
    (["bipartite", "fisher", "--grid"],
     {"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": None, "ny": 2, "values": [[1, 1], [1, 1]]},
     "field 'nx'"),
    (["bipartite", "fisher", "--grid"],
     {"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1, "nx": 2, "ny": None, "values_csv": "values.csv"},
     "field 'ny'"),
]


# the ids pytest gives argv and content alone, so each case keeps its name
@pytest.mark.parametrize("argv, content, named", MALFORMED_INPUTS,
                         ids=[f"argv{i}-content{i}" for i in range(len(MALFORMED_INPUTS))])
def test_malformed_input_file_exits_2(tmp_path, capsys, argv, content, named):
    (tmp_path / "values.csv").write_text("1,1\n1,1\n")  # a header may name it
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert named in err


@pytest.mark.parametrize("argv", [
    ["gaussian", "fisher", "--cov"],
    ["moments", "--word", "X1", "--spec"],
    ["bipartite", "fisher", "--grid"],
])
def test_input_that_is_not_json_exits_2_naming_the_file(tmp_path, capsys, argv):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, ')
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: Expecting property name") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["lattice", "--chi", "lr", "--format", "csv"],
    ["dq", "X1", "--side", "left", "--format", "csv"],
    ["bipartite", "make-semicircular", "--c", "0.5", "--out", "grid.json", "--format", "text"],
])
def test_format_outside_choices_exits_2(capsys, argv):
    assert main(argv) == 2
    assert "invalid choice" in capsys.readouterr().err


class TestSelftest:
    @pytest.mark.parametrize("flags", [[], ["--fast"]], ids=["full", "fast"])
    def test_fast_selftest_passes(self, capsys, flags):
        assert main(["selftest", *flags]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 15

    def test_failing_check_reported_under_optimize(self):
        # the checks raise explicitly, so python -O cannot turn a failure into PASS
        code = (
            "import sys\n"
            "import bifree.selftest as st\n"
            "st.WORKED_LEFT = 'X1 ⊗ X1'\n"
            "checks = [c for c in st.all_checks(True) if c[0] == 'difference-quotient-left']\n"
            "st.all_checks = lambda fast=False: checks\n"
            "sys.exit(st.run_selftest(fast=True))\n"
        )
        proc = run_child("-O", "-c", code)
        assert proc.returncode == 1, proc.stderr
        assert "FAIL difference-quotient-left" in proc.stdout


def test_lattice_leaves_the_rational_modules_out():
    # _io.rational imports fractions on its first call, so lattice never pays for it
    code = ("import sys\nfrom bifree.cli import main\nrc = main(['lattice', '--chi', 'lrlr'])\n"
            "sys.exit(rc or 9 * bool({'fractions', 'decimal'} & set(sys.modules)))\n")
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_scipy_out():
    code = "import sys, bifree\nsys.exit(0 if 'scipy' not in sys.modules else 3)\n"
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr


#: The exact subcommands: none of them needs the numerical layer.
EXACT_ARGV = {
    "lattice": ["lattice", "--chi", "lrlr"],
    "cumulants": ["cumulants", "--spec", "{spec}", "--word", "X1 Y1"],
    "moments": ["moments", "--spec", "{spec}", "--word", "X1 Y1 X1 Y1"],
    "dq": ["dq", "--side", "left", "X1 X1 Y1"],
    "dq-flipped-free": ["dq", "--side", "left", "--flipped", "--mode", "free", "y1 X1 y1 x1"],
    "conjugate-check": ["conjugate-check", "--spec", "{spec}", "--xi", "4/3*X1 - 2/3*Y1",
                        "--max-degree", "3"],
}


@pytest.mark.parametrize("name", list(EXACT_ARGV))
def test_exact_subcommand_leaves_numpy_out(spec_file, name):
    argv = [arg.format(spec=spec_file) for arg in EXACT_ARGV[name]]
    code = (
        "import sys\n"
        "from bifree.cli import main\n"
        f"rc = main({argv!r})\n"
        "sys.exit(rc or (9 if 'numpy' in sys.modules else 0))\n"
    )
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr


_BASE = ("bifree", "bifree.cli", "bifree._io")
_CUMULANT = (*_BASE, "bifree.ncalg", "bifree.bnclattice", "bifree.cumulant")
_GAUSSIAN = (*_BASE, "bifree.bnclattice", "bifree.gaussfam")
_BIPARTITE = (*_BASE, "bifree.bipartite_num")

#: Each invocation and every ``bifree`` module it loads, no more.
LOADED_MODULES = {
    "help": (["--help"], _BASE),
    "lattice-help": (["lattice", "--help"], _BASE),
    "lattice": (["lattice", "--chi", "lrlr"], (*_BASE, "bifree.bnclattice")),
    "cumulants": (["cumulants", "--spec", "{spec}", "--word", "X1 Y1"], _CUMULANT),
    "moments": (["moments", "--spec", "{spec}", "--word", "X1 Y1 X1 Y1"], _CUMULANT),
    "dq": (["dq", "--side", "left", "X1 X1 Y1"], (*_BASE, "bifree.ncalg", "bifree.derivation")),
    "conjugate-check": (
        ["conjugate-check", "--spec", "{spec}", "--xi", "4/3*X1 - 2/3*Y1", "--max-degree", "3"],
        (*_CUMULANT, "bifree.derivation"),
    ),
    "gaussian-fisher": (["gaussian", "fisher", "--cov", "{cov}"], _GAUSSIAN),
    "gaussian-entropy": (["gaussian", "entropy", "--cov", "{cov}", "--method", "quadrature"],
                         _GAUSSIAN),
    "gaussian-dimension": (["gaussian", "dimension", "--cov", "{cov}"], _GAUSSIAN),
    "gaussian-moments": (["gaussian", "moments", "--cov", "{cov}", "--pattern", "l1 r1",
                          "--depth", "2"], _GAUSSIAN),
    "bipartite-fisher": (["bipartite", "fisher", "--c", "0.5", "--n", "17"], _BIPARTITE),
    "bipartite-conjugate": (["bipartite", "conjugate", "--c", "0.5", "--n", "17"], _BIPARTITE),
    "bipartite-make": (["bipartite", "make-semicircular", "--c", "0.5", "--n", "17",
                        "--out", "{tmp}/g.json"], _BIPARTITE),
}


@pytest.mark.parametrize("name", list(LOADED_MODULES))
def test_subcommand_loads_only_its_modules(spec_file, cov_file, tmp_path, name):
    argv, want = LOADED_MODULES[name]
    argv = [arg.format(spec=spec_file, cov=cov_file, tmp=tmp_path) for arg in argv]
    code = (
        "import sys\n"
        "from bifree.cli import main\n"
        f"rc = main({argv!r})\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'bifree')\n"
        "print(loaded, 'numpy' in sys.modules, file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    numerical = {"bifree.gaussfam", "bifree.bipartite_num"} & set(want)
    assert proc.stderr.splitlines()[-1] == f"{sorted(want)} {bool(numerical)}"


def test_exact_layer_loads_whole_on_first_name():
    exact = ("ncalg", "bnclattice", "cumulant", "derivation")
    names = [n for n in PUBLIC_NAMES if n not in (*exact, "gaussfam", "bipartite_num")]
    exact_names = [n for n in names
                   if getattr(bifree, n).__module__.rpartition(".")[2] in exact]
    code = (
        "import sys, bifree\n"
        f"exact, names, exact_names = {exact!r}, {names!r}, {exact_names!r}\n"
        "def loaded():\n"
        "    return [m for m in exact if f'bifree.{m}' in sys.modules]\n"
        "public = [n for n in dir(bifree) if not n.startswith('_')]\n"
        "if loaded() or any(n in vars(bifree) for n in names):\n"
        "    sys.exit(5)\n"
        "bifree.normal_form\n"
        "if loaded() != list(exact) or 'numpy' in sys.modules:\n"
        "    sys.exit(6)\n"
        "bound = [n for n in names if n in vars(bifree)]\n"
        "if bound != exact_names:\n"
        "    sys.exit(7)\n"
        "if any(getattr(bifree, m) is not sys.modules[f'bifree.{m}'] for m in exact):\n"
        "    sys.exit(8)\n"
        "sys.exit(0 if [n for n in dir(bifree) if not n.startswith('_')] == public else 9)\n"
    )
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_exact_module_names_resolve_as_attributes():
    # in this order each module is still unloaded when the package is asked for it
    code = (
        "import importlib, sys, bifree\n"
        "for m in ('bnclattice', 'ncalg', 'derivation', 'cumulant'):\n"
        "    if f'bifree.{m}' in sys.modules:\n"
        "        sys.exit(4)\n"
        "    if getattr(bifree, m) is not importlib.import_module(f'bifree.{m}'):\n"
        "        sys.exit(3)\n"
    )
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_exact_layer_import_leaves_numpy_out_until_first_numerical_name():
    code = (
        "import sys, bifree\n"
        "bifree.cumulant_chi\n"
        "if 'numpy' in sys.modules:\n"
        "    sys.exit(9)\n"
        "from bifree import Covariance\n"
        "# the two numerical modules load together\n"
        "sys.exit(0 if 'bifree.bipartite_num' in sys.modules else 8)\n"
    )
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_exact_subcommand_runs_with_numpy_blocked():
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from bifree.cli import main\n"
        "sys.exit(main(['lattice', '--chi', 'lrlr']))\n"
    )
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 14


#: Every public name of the package before the numerical layer became lazy.
PUBLIC_NAMES = (
    "AlgebraMode BNCPartition ConjugateField ConjugateReport Covariance "
    "CumulantMomentFunctional CumulantSpec DensityGrid FieldConfig FockModel GridSpec "
    "Letter MarginalDensity MomentFunctional NCPolynomial QuotientKind "
    "TableMomentFunctional TensorPoly adjoint_apply bifree_dq bipartite_mode "
    "bipartite_num bnclattice build_fock_model check_mixed_vanishing conjugate_check "
    "conjugate_coeffs conjugate_field cumulant cumulant_chi derivation entropy_closed "
    "entropy_dimension entropy_dimension_limit entropy_quadrature enumerate_bnc "
    "expand_product_last_entry fisher fisher_numeric fisher_perturbed fock_moment "
    "format_poly format_tensor free_dq free_mode gaussfam gaussian_cumulant_spec "
    "gaussian_moment hat_embed hat_zero hilbert_pv is_bnc join lsym lvar marginals "
    "mobius moment_pi moments_from_cumulants mul ncalg normal_form one_partition "
    "parse_poly parse_tensor rsym rvar scalar_identity_residual semicircular_density "
    "sigma_chi star tensor_mul tensor_star zero_partition"
).split()


def test_public_api_is_complete():
    listed = dir(bifree)
    star: dict = {}
    exec("from bifree import *", star)
    assert sorted(bifree.__all__) == sorted(PUBLIC_NAMES)
    assert sorted(n for n in star if not n.startswith("_")) == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        value = getattr(bifree, name)
        scope: dict = {}
        exec(f"from bifree import {name}", scope)
        assert scope[name] is value and star[name] is value
        assert name in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        bifree.no_such_name
    with pytest.raises(ImportError):
        exec("from bifree import no_such_name", {})
