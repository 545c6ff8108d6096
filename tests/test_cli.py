import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import pytest

import cstk
from cstk import cli, oracles, verify
from cstk.formats import format_complex, parse_complex, read_data
from cstk.poly2d import ModeIndex, p_norm
from cstk.specfun import DEFAULT_CONTROL


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def get_value(out, name):
    payload = json.loads(out)
    return parse_complex(dict(payload["rows"])[name])


class TestFormats:
    def test_roundtrip(self):
        for z in [1 + 0j, -0.25 + 0.125j, 3.7e-12 - 2.1e5j, 0.1j]:
            assert parse_complex(format_complex(z)) == z

    def test_plain_real(self):
        assert parse_complex("2.5") == 2.5 + 0j

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_complex("not-a-number")

    def test_read_data(self, tmp_path):
        # the header is the `#` lines before the first data line: a later one, such as an
        # np.savetxt footer, sets nothing
        path = tmp_path / "f.txt"
        path.write_text("# kind=grid beta=1 note\n\n# L=inf\n-1 0.5\n\n# kind=coeffs beta=2\n1 0.5\n")
        assert read_data(path, 2) == ({"kind": "grid", "beta": "1", "L": "inf"}, [["-1", "0.5"], ["1", "0.5"]])
        assert read_data(path, lambda header: 2 if header["kind"] == "grid" else 1)[1] == [["-1", "0.5"], ["1", "0.5"]]
        path.write_text("# kind=grid\n-1 0.5\n0 1 2\n")
        with pytest.raises(ValueError, match="must hold 2 field\\(s\\): '0 1 2'"):
            read_data(path, 2)


class TestEval:
    def test_analytic_kernel_example(self, capsys):
        code, out = run(capsys, "eval", "kernel", "--analytic", "--beta", "0", "--z", "1+0i", "--x", "0")
        assert code == 0
        assert get_value(out, "B_beta(z,x)").real == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_small_z_kernel(self, capsys):
        # printed 0.40234375-1.4365234375i (relative error 2.9) before the generating form
        code, out = run(capsys, "eval", "kernel", "--m", "8", "--beta", "0.5", "--z", "0.01+0.003i", "--x", "0.7")
        assert code == 0
        ref = oracles.kernel_B_mp(8, 0.5, 0.01 + 0.003j, 0.7, dps=80)
        assert abs(get_value(out, "B_{beta,m}(z,x)") - ref) <= 1e-10 * abs(ref)

    def test_poly_trivial(self, capsys):
        code, out = run(capsys, "eval", "poly", "--n", "0", "--m", "0", "--beta", "1", "--z", "2+1i")
        assert code == 0
        assert get_value(out, "H_{n,m}^(beta)") == pytest.approx(1.0)

    def test_overlap_diagonal(self, capsys):
        code, out = run(capsys, "eval", "overlap", "--m", "2", "--beta", "0.5", "--z", "0.3+0.1i", "--w", "0.3+0.1i")
        assert code == 0
        assert get_value(out, "overlap") == pytest.approx(1.0, abs=1e-10)

    def test_weight(self, capsys):
        code, out = run(capsys, "eval", "weight", "--beta", "0", "--x", "0")
        assert code == 0
        assert get_value(out, "omega_beta(x)").real == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)

    def test_weight_past_its_target_exits_3(self, capsys):
        # printed 0.007235 with exit 0 before (mp.pcfd: 0.04199)
        code, out = run(capsys, "eval", "weight", "--beta", "100", "--x", "5")
        assert code == 3 and out == ""

    def test_weight_rejects_negative_beta(self, capsys):
        # printed -0.0142365 with exit 0 before
        code, out = run(capsys, "eval", "weight", "--beta", "-1.5", "--x", "1")
        assert code == 2 and out == ""

    def test_kernel_rejects_negative_beta(self, capsys):
        # warned (sqrt of a negative number) and exited 3 before
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, "eval", "kernel", "--m", "2", "--beta", "-0.5", "--z", "0.3+0.1i", "--x", "0.2")
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            # printed 0.84927179591704516+0i with exit 0 before
            ("overlap", "--m", "0", "--beta", "-0.5", "--z", "1", "--w", "0.5"),
            # warned from the P~ rows and exited 3 before
            ("overlap", "--m", "2", "--beta", "-1.5", "--z", "1", "--w", "0.5"),
            # these three exited 3, after 500 terms or on "leaves the float64 range"
            ("overlap", "--m", "0", "--beta", "nan", "--z", "1", "--w", "0.5"),
            ("kernel", "--m", "1", "--beta", "0.5", "--z", "1", "--x", "nan"),
            ("poly", "--n", "2", "--m", "1", "--beta", "nan", "--z", "1"),
        ],
    )
    def test_rejects_out_of_domain_input(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, "eval", *argv)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("m,beta,z,x", [(2, 1, 3, -12), (2, 1, 3, -20), (0, 0, 6, -5), (0, 0, 3, -8), (2, 0, 1.5, -12)])
    def test_kernel_past_its_target_exits_3(self, capsys, m, beta, z, x):
        # printed 3.919, -3.17e15, -1.96e-8, -9.1e-10 and -6.0e-8 with exit 0 before
        # (relative errors 0.16 to 3.4e18; estimates 10 to 1.1e3)
        args = ["--beta", str(beta), f"--z={z}", f"--x={x}"]
        code, out = run(capsys, "eval", "kernel", "--m", str(m), *args)
        assert code == 3 and out == ""
        if m == 0:
            code, out = run(capsys, "eval", "kernel", "--analytic", *args)
            assert code == 3 and out == ""

    def test_numeric_failure_exit_code(self, capsys):
        code, _ = run(capsys, "--max-terms", "2", "eval", "norm", "--m", "0", "--beta", "0", "--z", "2+0i")
        assert code == 3

    def test_past_float64(self, capsys):
        # exit 1 with an OverflowError traceback, inf with exit 0, and 0+0i with exit 0 before
        code, out = run(capsys, "eval", "poly", "--n", "200", "--m", "5", "--beta", "0.5", "--z", "2")
        assert code == 0
        assert get_value(out, "P~_{n,m}^beta").real == pytest.approx(-1.2056717317652298e-119, rel=1e-13)
        # -inf and nan with exit 0 before: the monomial and the Laguerre factor overflow
        code, out = run(capsys, "eval", "poly", "--n", "1000", "--m", "5", "--beta", "0.5", "--z", "2")
        assert code == 3 and out == ""
        code, out = run(capsys, "--max-terms", "20000", "eval", "norm", "--m", "4", "--beta", "0.5", "--z", "30")
        assert code == 3 and out == ""
        args = ["eval", "overlap", "--m", "4", "--beta", "0.5", "--z", "20", "--w", "20+0.3i"]
        code, out = run(capsys, "--max-terms", "20000", *args)
        assert code == 0
        assert get_value(out, "overlap") == pytest.approx(0.6079839903663026 + 0.18188367616479442j, rel=1e-12)

    def test_overflow_error_exit_code(self, capsys):
        # x_{n,m}! past float64 raised OverflowError out of main
        code = cli.main(["table", "factorials", "--beta", "0", "--nmax", "200", "--mmax", "200"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == "numeric failure: x_{n,m}^beta! leaves the float64 range at n=171, m=0, beta=0.0\n"

    def test_byte_identical_reruns(self, capsys):
        _, out1 = run(capsys, "eval", "overlap", "--m", "1", "--beta", "0.5", "--z", "0.4+0.2i", "--w", "0.1-0.3i")
        _, out2 = run(capsys, "eval", "overlap", "--m", "1", "--beta", "0.5", "--z", "0.4+0.2i", "--w", "0.1-0.3i")
        assert out1 == out2


class TestTable:
    def test_factorial_row(self, capsys):
        code, out = run(capsys, "--format", "csv", "table", "factorials", "--beta", "0", "--nmax", "3", "--mmax", "3")
        assert code == 0
        rows = {tuple(line.split(",")[:2]): line.split(",")[2] for line in out.splitlines()[1:]}
        assert float(rows[("3", "1")]) == pytest.approx(6.0)

    def test_eigenvalue_column(self, capsys):
        code, out = run(capsys, "--format", "csv", "table", "eigenvalues", "--beta", "2", "--nmax", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,x_n^beta"
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        assert vals[0] == 0.0
        assert vals[1:] == [pytest.approx(n + 2.0) for n in range(1, 6)]

    def test_moments(self, capsys):
        code, out = run(capsys, "--format", "csv", "table", "moments", "--beta", "0", "--nmax", "4")
        assert code == 0
        vals = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert vals == [pytest.approx(v) for v in [1.0, 1.0, 2.0, 6.0, 24.0]]

    def test_factorials_past_gamma_overflow(self, capsys):
        # Gamma(beta + n + 1) overflows float64 from n = 71, x_{80,0}! = 2.2e171 does not: it exited 3
        code, out = run(capsys, "--format", "csv", "table", "factorials", "--beta", "100", "--nmax", "80", "--mmax", "2")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 81 * 3
        with mp.workdps(30):
            for n, m, v in rows:
                n, m = int(n), int(m)
                ref = mp.gamma(101 + max(n, m)) / (mp.factorial(min(n, m)) * mp.gamma(101 + m))
                assert abs(float(v) - ref) <= 1e-12 * ref, (n, m)

    @pytest.mark.parametrize("beta, nmax", [(100.0, 80), (0.5, 170)])
    def test_eigenvalues_exact(self, capsys, beta, nmax):
        # x_n = n + beta: the Gamma ratio exited 3 at beta = 100, and printed 170.50000000000003 for x_170
        code, out = run(capsys, "--format", "csv", "table", "eigenvalues", "--beta", str(beta), "--nmax", str(nmax))
        assert code == 0
        vals = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert vals == [0.0] + [n + beta for n in range(1, nmax + 1)]
        assert out.endswith(f"\n{nmax},{nmax + beta:.17g}\n")

    def test_moments_past_float64_name_their_entry(self, capsys):
        code = cli.main(["table", "moments", "--beta", "100", "--nmax", "80"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == "numeric failure: mu_{n+beta} leaves the float64 range at n=71, beta=100.0\n"


class TestTransformCommand:
    def test_ground_state(self, capsys, tmp_path):
        fpath = tmp_path / "f.txt"
        fpath.write_text("# kind=coeffs beta=0\n1\n")
        tpath = tmp_path / "targets.txt"
        tpath.write_text("0+0i\n")
        code, out = run(capsys, "--format", "csv", "transform", "--input", str(fpath), "--m", "0", "--beta", "0", "--targets", str(tpath))
        assert code == 0
        value = parse_complex(out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(1.0, rel=1e-9)

    def test_first_basis_is_linear(self, capsys, tmp_path):
        fpath = tmp_path / "f.txt"
        fpath.write_text("# kind=coeffs beta=0\n0\n1\n")
        tpath = tmp_path / "targets.txt"
        tpath.write_text("0.5+0i\n1+1i\n")
        code, out = run(capsys, "--format", "csv", "transform", "--input", str(fpath), "--m", "0", "--beta", "0", "--targets", str(tpath))
        assert code == 0
        rows = out.splitlines()[1:]
        for line in rows:
            z, v = (parse_complex(p) for p in line.split(","))
            assert v == pytest.approx(z, rel=1e-8)  # P~_{1,0}(z) = z

    def test_parse_error_exit(self, capsys, tmp_path):
        code, _ = run(capsys, "transform", "--input", str(tmp_path / "absent.txt"), "--targets", str(tmp_path / "t.txt"))
        assert code == 2

    def test_bad_grid_file_exit(self, capsys, tmp_path):
        fpath, tpath = tmp_path / "f.txt", tmp_path / "targets.txt"
        fpath.write_text("# kind=grid beta=0\n-1 0.5\nnan 1\n1 0.5\n")
        tpath.write_text("0.5+0i\n")
        assert cli.main(["transform", "--input", str(fpath), "--targets", str(tpath), "--m", "1", "--beta", "0"]) == 2
        assert capsys.readouterr().err == "error: grid x must be finite\n"

    def test_coefficient_file_builds_no_rule(self, capsys, tmp_path, monkeypatch):
        def no_rule(*args, **kwargs):
            raise AssertionError("a coefficient input needs no quadrature rule")

        monkeypatch.setattr(cstk.quadrature, "adaptive_line", no_rule)
        m, beta = 2, 1.5
        coeffs = [1.0, 0.25 - 0.5j, 0.0, -0.75 + 0.125j]
        targets = [0j, 0.6 - 0.8j, -1.7 + 1.1j]
        fpath, tpath = tmp_path / "f.txt", tmp_path / "targets.txt"
        fpath.write_text(f"# kind=coeffs beta={beta}\n" + "".join(format_complex(a) + "\n" for a in coeffs))
        tpath.write_text("".join(format_complex(z) + "\n" for z in targets))
        code, out = run(capsys, "--format", "csv", "transform", "--input", str(fpath), "--m", str(m),
                        "--beta", str(beta), "--targets", str(tpath))
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == len(targets)
        for line, z in zip(rows, targets):
            value = parse_complex(line.split(",")[1])
            p = [complex(p_norm(ModeIndex(n, m, beta), z)) for n in range(len(coeffs))]
            ref = sum(a * pn for a, pn in zip(coeffs, p))
            scale = math.hypot(*map(abs, coeffs)) * math.hypot(*map(abs, p))
            assert abs(value - ref) <= 1e-14 * scale

    def test_grid_file(self, capsys, tmp_path):
        # phi_1(x) = sqrt2 x at beta = 0 maps to P~_{1,0}(z) = z
        xs = [-9.0 + 0.015 * i for i in range(1201)]
        fpath, tpath = tmp_path / "f.txt", tmp_path / "targets.txt"
        fpath.write_text("# kind=grid beta=0\n" + "".join(f"{x!r} {math.sqrt(2.0) * x!r}\n" for x in xs))
        tpath.write_text("0.5+0.25i\n-1-0.5i\n")
        code, out = run(capsys, "--format", "csv", "transform", "--input", str(fpath), "--m", "0", "--beta", "0",
                        "--targets", str(tpath))
        assert code == 0
        for line in out.splitlines()[1:]:
            z, v = (parse_complex(part) for part in line.split(","))
            assert abs(v - z) <= 1e-12


    @pytest.mark.parametrize("kind", ["coeffs", "grid"])
    def test_prints_the_returned_entries(self, capsys, tmp_path, kind):
        m, beta = 4, 0.5
        targets = [0j, 0.6 - 0.8j, -1.7 + 1.1j, 3 + 0.5j]
        fpath, tpath = tmp_path / "f.txt", tmp_path / "targets.txt"
        if kind == "coeffs":
            fpath.write_text(f"# kind=coeffs beta={beta}\n1\n0.25-0.5i\n0\n-0.75+0.125i\n")
        else:
            xs = [-9.0 + 0.015 * i for i in range(1201)]
            fpath.write_text(f"# kind=grid beta={beta}\n" + "".join(f"{x!r} {math.exp(-x * x / 2)!r}\n" for x in xs))
        tpath.write_text("".join(format_complex(z) + "\n" for z in targets))
        code, out = run(capsys, "transform", "--input", str(fpath), "--m", str(m), "--beta", str(beta),
                        "--targets", str(tpath))
        assert code == 0
        f = cstk.transforms.load_sampled(fpath)
        rule = None  # built as cmd_transform builds it
        if kind == "grid":
            rule = cstk.quadrature.adaptive_line(lambda x: cstk.transforms.omega_weight(x, beta), 1e-11, m + 8)
        values = cstk.transforms.apply_transform(f, m, beta, targets, rule)
        assert json.loads(out)["rows"] == [[format_complex(z), format_complex(v)] for z, v in zip(targets, values)]

    def test_past_gamma_overflow(self, capsys, tmp_path):
        # Gamma(beta+1) overflows float64 past beta = 170: exit 3 before; at beta = 400 the values
        # are below the normal float64 range
        fpath, tpath = tmp_path / "f.txt", tmp_path / "targets.txt"
        tpath.write_text("0.5\n")
        fpath.write_text("# kind=coeffs beta=171\n1\n1\n1\n")
        code, out = run(capsys, "transform", "--input", str(fpath), "--m", "2", "--beta", "171", "--targets", str(tpath))
        assert code == 0
        with mp.workdps(50):
            u, b = mp.mpf(0.25), mp.mpf(171)  # sum_{n<=2} P~_{n,2}(0.5), a real value
            ref = (u - mp.sqrt(u) * mp.laguerre(1, 1 + b, u) + mp.sqrt(2) * mp.laguerre(2, b, u)) / mp.sqrt(mp.gamma(b + 3))
            assert abs(get_value(out, "0.5+0i") - ref) <= 1e-13 * ref
        fpath.write_text("# kind=coeffs beta=400\n1\n1\n1\n")
        assert cli.main(["transform", "--input", str(fpath), "--m", "2", "--beta", "400", "--targets", str(tpath)]) == 3

    def test_unchecked_file_values_exit_2(self, capsys, tmp_path):
        # a nan beta printed a value with exit 0: abs(nan - 0.5) > 1e-12 is False
        fpath, tpath = tmp_path / "f.txt", tmp_path / "targets.txt"
        fpath.write_text("# kind=coeffs beta=nan\n1\n0.5\n")
        tpath.write_text("0.5\n")
        assert cli.main(["transform", "--input", str(fpath), "--targets", str(tpath), "--beta", "0.5"]) == 2
        assert capsys.readouterr().err == "error: beta must be non-negative\n"
        fpath.write_text("# kind=coeffs beta=0.5\n1\n")
        tpath.write_text("0.5 1\n")
        assert cli.main(["transform", "--input", str(fpath), "--targets", str(tpath), "--beta", "0.5"]) == 2
        assert "'0.5 1'" in capsys.readouterr().err


class TestVerifyCommand:
    def test_single_suite(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        code, out = run(capsys, "--out", str(out_dir), "verify", "quadrature")
        assert code == 0
        assert "[PASS] quadrature" in out
        payload = json.loads((out_dir / "quadrature.json").read_text())
        assert payload["pass"] is True

    def test_unknown_suite(self, capsys):
        code, _ = run(capsys, "verify", "not-a-suite")
        assert code == 2

    def test_mmax_flag(self, capsys):
        code, out = run(capsys, "verify", "kernel-reduction", "--mmax", "2")
        assert code == 0
        assert "[PASS] kernel-reduction" in out

    def test_flag_the_check_does_not_take(self, capsys):
        code = cli.main(["verify", "quadrature", "--mmax", "2"])
        assert code == 2
        assert "mmax" in capsys.readouterr().err

    def test_all_forwards_mmax(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        code, out = run(capsys, "--out", str(out_dir), "verify", "all", "--mmax", "1")
        assert code == 0
        assert out.count("[PASS]") == len(verify.SUITES)
        for name in ("overlap", "kernel-reduction", "transform", "resolution-identity", "density-positivity"):
            assert json.loads((out_dir / f"{name}.json").read_text())["params"]["mmax"] == 1

    def test_type_error_inside_a_check_surfaces(self, monkeypatch):
        def broken(mmax: int = 4, seed: int = 0):
            if mmax != 4:
                raise TypeError("raised inside the check")
            return verify.check_quadrature(seed=seed)

        monkeypatch.setitem(verify.SUITES, "overlap", broken)
        with pytest.raises(TypeError, match="inside the check"):
            cli.main(["verify", "overlap", "--mmax", "2"])


class TestConfig:
    def test_default_series_policy(self):
        # the CLI restated 1e-13 and 500: specfun's DEFAULT_CONTROL is the one default
        assert cli.CliConfig().series() == DEFAULT_CONTROL

    def test_usage_error(self, capsys):
        code = cli.main(["eval", "poly", "--z", "zzz"])
        assert code == 2

    def test_config_file(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cstk.cfg"
        cfg.write_text("max_terms = 2\n")
        monkeypatch.setenv(cli.ENV_CONFIG, str(cfg))
        code, _ = run(capsys, "eval", "norm", "--m", "0", "--beta", "0", "--z", "2+0i")
        assert code == 3  # budget from config makes the series fail
        monkeypatch.delenv(cli.ENV_CONFIG)
        code, _ = run(capsys, "eval", "norm", "--m", "0", "--beta", "0", "--z", "2+0i")
        assert code == 0

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cstk.cfg"
        cfg.write_text("max_terms = 2\n")
        code, _ = run(capsys, "--config", str(cfg), "--max-terms", "400", "eval", "norm", "--m", "0", "--beta", "0", "--z", "2+0i")
        assert code == 0

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cstk.cfg"
        cfg.write_text("bogus = 1\n")
        code, _ = run(capsys, "--config", str(cfg), "eval", "poly")
        assert code == 2

    def test_polar_grid_options_are_gone(self, capsys, tmp_path):
        # --n-r / --n-theta and their config keys were parsed but read by no command
        code, _ = run(capsys, "eval", "poly", "--n-r", "8")
        assert code == 2
        cfg = tmp_path / "cstk.cfg"
        cfg.write_text("n_r = 8\n")
        code, _ = run(capsys, "--config", str(cfg), "eval", "poly")
        assert code == 2

    def test_output_format_checked(self, capsys, tmp_path):
        # output_format = xml wrote CSV with exit 0
        cfg = tmp_path / "cstk.cfg"
        cfg.write_text("output_format = xml\n")
        assert cli.main(["--config", str(cfg), "eval", "poly"]) == 2
        assert capsys.readouterr().err.startswith("config error: output_format must be json or csv")
        cfg.write_text("output_format = csv\n")
        code, out = run(capsys, "--config", str(cfg), "eval", "poly")
        assert code == 0 and out.startswith("name,value")

    def test_abs_tol_is_gone(self, capsys, tmp_path):
        # abs_tol was parsed but read by no evaluator
        cfg = tmp_path / "cstk.cfg"
        cfg.write_text("abs_tol = 0.5\n")
        code, _ = run(capsys, "--config", str(cfg), "eval", "norm", "--z", "1")
        assert code == 2


def test_import_path_leaves_scipy_and_mpmath_unloaded(tmp_path):
    # a fresh process, as every cstk command is one; a grid transform splines its input in numpy
    fpath, tpath = tmp_path / "f.txt", tmp_path / "targets.txt"
    fpath.write_text("# kind=grid beta=1\n" + "".join(f"{x!r} {math.exp(-x * x)!r}\n" for x in range(-8, 9)))
    tpath.write_text("0.5+0.25i\n")
    probe = (
        "import sys, cstk; from cstk import cli; "
        "code = cli.main(['eval', 'weight', '--beta', '1.7', '--x', '5']); "
        f"code += cli.main(['transform', '--input', {str(fpath)!r}, '--targets', {str(tpath)!r}, '--m', '2', '--beta', '1']); "
        "bad = {'scipy', 'mpmath'} & set(sys.modules); assert code == 0 and not bad, (code, bad)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cstk.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_past_float64_exits_3_under_warnings_as_errors(tmp_path):
    # the transform exited 1 with a RuntimeWarning traceback, and printed nan+nani with exit 0
    # without -W error; the kernel printed inf+0i with exit 0; at |z| = 160, where the rows
    # leave long double, the norm and the kernel exited 1 with a RuntimeWarning traceback
    fpath, tpath = tmp_path / "f.txt", tmp_path / "targets.txt"
    fpath.write_text("# kind=coeffs beta=0.5\n" + "1\n" * 400)
    tpath.write_text("100\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cstk.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    range_msg = "leaves the float64 range"
    for argv, message in (
        (["transform", "--input", str(fpath), "--targets", str(tpath), "--m", "2", "--beta", "0.5"], range_msg),
        (["--max-terms", "20000", "eval", "kernel", "--m", "0", "--beta", "0", "--z", "30", "--x", "40"], range_msg),
        (["--max-terms", "60000", "eval", "norm", "--m", "2", "--beta", "0.5", "--z", "160"], range_msg),
        (["--max-terms", "60000", "eval", "kernel", "--m", "0", "--beta", "0", "--z", "160", "--x", "0"], "misses 1e-10"),
    ):
        for flags in ([], ["-W", "error"]):
            cmd = [sys.executable, *flags, "-m", "cstk.cli", *argv]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 3 and proc.stdout == "", (flags, argv, proc.stderr)
            assert proc.stderr.startswith("numeric failure:") and message in proc.stderr
