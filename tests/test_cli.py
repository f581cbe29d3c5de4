import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import singwald
from singwald import cli as cli_module
from singwald.cli import _TETRAD_HEADER, _covariance, build_parser, run
from singwald.errors import ParseError
from singwald.gaussian import load_matrix, validate_covariance
from singwald.laws import parse_law
from singwald.poly import load_polynomial
from singwald.sampler import WaldSampleConfig, sample_wald
from singwald.tetrad import (
    DataMatrix,
    TetradIndex,
    TetradWald,
    load_data_csv,
    tetrad_index_array,
    wald_tetrad_test,
)
from singwald.verify import VerificationResult, moment_invariance_check

TETRAD_POLY = "1 1 0 0 1\n-1 0 1 1 0\n"
KRON_MAT = (
    "4\n"
    "1 0.5 0.5 0.25\n"
    "0.5 1 0.25 0.5\n"
    "0.5 0.25 1 0.5\n"
    "0.25 0.5 0.5 1\n"
)


@pytest.fixture
def tetrad_files(tmp_path):
    poly = tmp_path / "tetrad.poly"
    poly.write_text(TETRAD_POLY)
    mat = tmp_path / "kron.mat"
    mat.write_text(KRON_MAT)
    return poly, mat


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((500, 4))
    path = tmp_path / "data.csv"
    path.write_text(
        "a,b,c,d\n" + "\n".join(",".join(f"{v:.8f}" for v in row) for row in x) + "\n"
    )
    return path


class TestHelp:
    def test_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name in ("sample", "cdf", "quantile", "classify", "tetrad-test", "verify", "moments"):
            assert name in text

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["no-such-command"])
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run(["cdf", "tetrad", "--grid", "0:1:1", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--threads", "0", "verify"],
            ["verify", "--threads", "-2"],
            ["--threads", "0", "sample", "--poly", "p", "--sigma", "s", "--n", "100"],
            ["cdf", "tetrad", "--grid", "0:1:1", "--threads", "two"],
        ],
    )
    def test_threads_below_one_rejected_at_parse(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "argument --threads" in capsys.readouterr().err

    def test_default_threads_are_the_cpus_this_process_may_use(self, monkeypatch, capsys):
        # One usable CPU of a 64-CPU host: the affinity mask decides.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert run(["cdf", "tetrad", "--grid", "0:1:1"]) == 0
        assert " threads=1\n" in capsys.readouterr().err


class TestCdf:
    def test_golden_tetrad_grid(self, capsys):
        # pinned output format: tab separated, %.12g, t = 0 row present
        assert run(["cdf", "tetrad", "--grid", "0:1:0.25"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "t\tF\n"
            "0\t0\n"
            "0.25\t0.592314212999\n"
            "0.5\t0.771523351469\n"
            "0.75\t0.867245302928\n"
            "1\t0.921690840756\n"
        )

    def test_scaled_chisq_spec(self, capsys):
        assert run(["cdf", "scaled-chisq:0.25:1", "--grid", "0:1:0.5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t\tF"
        t, f = lines[2].split("\t")
        assert float(f) == pytest.approx(0.84270079295, abs=1e-10)

    def test_bad_law_spec(self, capsys):
        assert run(["cdf", "gauss:1", "--grid", "0:1:1"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, field", [
        ("mix2:0.25:nan", "w2"),
        ("mix2:inf:0.2", "w1"),
        ("mix2:nan:0.2", "w1"),
        ("scaled-chisq:nan:1", "scale"),
        ("scaled-chisq:inf:1", "scale"),
    ])
    def test_non_finite_law_parameter_rejected(self, spec, field, capsys):
        assert run(["cdf", spec, "--grid", "0:1:0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad law spec" in captured.err
        assert field in captured.err

    @pytest.mark.parametrize("grid, message", [
        ("0:inf:1", "grid stop must be finite"),
        ("0:nan:1", "grid stop must be finite"),
        ("nan:1:1", "grid start must be finite"),
        ("0:1:inf", "grid step must be finite"),
        ("0:1e308:1e-300", "bad grid"),
    ])
    def test_non_finite_grid_rejected(self, grid, message, capsys):
        assert run(["cdf", "tetrad", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("grid, count", [("0:1:1e-300", "1e+300"), ("0:1e9:1e-9", "1e+18")])
    def test_oversized_grid_names_itself_and_its_point_count(self, grid, count, capsys):
        # numpy's own errors ("Maximum allowed size exceeded", "Unable to
        # allocate 6.94 EiB") name no grid
        assert run(["cdf", "tetrad", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: grid {grid!r} has {count} points, too many to hold\n" in captured.err

    @pytest.mark.parametrize("grid, code", [("-1:1:0.5", 0), ("-inf:0:1", 2)])
    def test_negative_grid_start_parses_like_joined_form(self, grid, code, capsys):
        # argparse would take a separate "-1:1:0.5" for an option
        results = []
        for argv in (["--grid", grid], [f"--grid={grid}"]):
            try:
                status = run(["cdf", "tetrad", *argv])
            except SystemExit as exc:
                status = exc.code
            results.append((status, *capsys.readouterr()))
        assert results[0] == results[1]
        assert results[0][0] == code
        if code == 0:
            rows = results[0][1].strip().split("\n")[1:]
            assert [r.split("\t")[0] for r in rows] == ["-1", "-0.5", "0", "0.5", "1"]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "cdf.tsv"
        assert run(["cdf", "tetrad", "--grid", "0:1:0.5", "--out", str(target)]) == 0
        assert target.read_text().startswith("t\tF\n0\t0\n")

    def test_out_file_that_cannot_be_opened(self, tmp_path):
        # an output fault is an input error (exit 2), not a failed check (1)
        env = dict(os.environ, PYTHONPATH=str(Path(singwald.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "singwald.cli", "--out", str(tmp_path / "missing" / "r.tsv"),
             "cdf", "tetrad", "--grid", "0:1:0.5"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert any(line.startswith("error: ") for line in proc.stderr.splitlines())
        assert "Traceback" not in proc.stderr


class TestQuantile:
    def test_probs_list(self, capsys):
        assert run(["quantile", "scaled-chisq:1:1", "--probs", "0.95,0.99"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "p\tQ"
        assert float(lines[1].split("\t")[1]) == pytest.approx(3.8414588206941254, abs=1e-8)

    def test_small_probability_gives_positive_quantile(self, capsys):
        # the tetrad root at p = 1e-9 is about 6e-19
        assert run(["quantile", "tetrad", "--probs", "1e-9"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1].split("\t")[0] == "1e-09"
        assert float(lines[1].split("\t")[1]) > 0.0

    def test_tetrad_far_lower_tail(self, capsys):
        # the root 2 p^2 / pi, which underflows to 0 at p = 1e-300
        assert run(["quantile", "tetrad", "--probs", "1e-150,1e-300"]) == 0
        rows = capsys.readouterr().out.splitlines()[-2:]
        assert rows == ["1e-150\t6.36619772368e-301", "1e-300\t0"]

    # argparse takes exactly one of --probs and --grid: a usage error, exit 2
    def test_needs_probs_or_grid(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["quantile", "tetrad"])
        assert exc.value.code == 2
        assert "one of the arguments --grid --probs is required" in capsys.readouterr().err

    def test_refuses_probs_with_grid(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["quantile", "tetrad", "--grid", "0.1:0.9:0.1", "--probs", "0.5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --probs: not allowed with argument --grid" in captured.err

    @pytest.mark.parametrize("argv, bad", [
        (["--probs", "0.5,1.5,0.9"], "1.5"),
        (["--grid", "0:1:0.25"], "0"),
        (["--probs", "0.5,abc"], "'0.5,abc'"),
    ])
    def test_bad_probability_writes_nothing(self, argv, bad, capsys):
        assert run(["quantile", "tetrad", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"got {bad}\n" in captured.err

    def test_negative_grid_start_parses_like_joined_form(self, capsys):
        results = []
        for argv in (["--grid", "-0.25:0.5:0.25"], ["--grid=-0.25:0.5:0.25"]):
            results.append((run(["quantile", "tetrad", *argv]), *capsys.readouterr()))
        assert results[0] == results[1]
        assert results[0][0] == 2 and results[0][1] == ""
        assert "got -0.25\n" in results[0][2]


class TestClassify:
    def test_machine_line(self, tetrad_files, capsys):
        poly, mat = tetrad_files
        assert run(["classify", "--quad", str(poly), "--sigma", str(mat)]) == 0
        out = capsys.readouterr().out
        machine = [l for l in out.strip().split("\n") if l.startswith("law=")]
        assert len(machine) == 1
        assert machine[0].startswith("law=beta-fold:2:2 eigenvalues=")
        assert "lower=scaled-chisq:0.25:1" in machine[0]
        assert "upper=scaled-chisq:0.25:4" in machine[0]

    def test_malformed_matrix_line_numbered(self, tmp_path, tetrad_files, capsys):
        poly, _ = tetrad_files
        bad = tmp_path / "bad.mat"
        bad.write_text("2\n1 0\n")
        assert run(["classify", "--quad", str(poly), "--sigma", str(bad)]) == 2
        assert "bad.mat" in capsys.readouterr().err

    def test_malformed_poly_line_numbered(self, tmp_path, tetrad_files, capsys):
        _, mat = tetrad_files
        bad = tmp_path / "bad.poly"
        bad.write_text("1 2 0\n3 0 1\n")
        assert run(["classify", "--quad", str(bad), "--sigma", str(mat)]) == 2
        err = capsys.readouterr().err
        assert "bad.poly:2" in err


# A covariance that parses but fails validation is named like a file that
# does not parse, by sample and classify alike.
_REJECTED_COVARIANCES = {
    "asymmetric": ("2\n1 0.1\n0 1\n", "matrix is asymmetric: max |m - m^T| = 0.1"),
    "not-psd": ("2\n1 2\n2 1\n", "matrix is not positive semidefinite: eigenvalue -1"),
    "non-finite": ("2\n1 nan\nnan 1\n", "covariance contains non-finite entries"),
}


@pytest.mark.parametrize(
    "text, message", _REJECTED_COVARIANCES.values(), ids=_REJECTED_COVARIANCES.keys()
)
def test_covariance_rejection_names_the_file(tmp_path, text, message):
    path = tmp_path / "bad.mat"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        _covariance(str(path))
    assert str(info.value) == f"{path}: {message}"


def test_covariance_of_a_valid_file_is_the_validated_matrix(tetrad_files):
    _, mat = tetrad_files
    cov = _covariance(str(mat))
    np.testing.assert_array_equal(cov.sigma, validate_covariance(load_matrix(mat)).sigma)


@pytest.mark.parametrize("command", ["sample", "classify"])
@pytest.mark.parametrize("kind, text, message", [
    ("mat", "2\n1 0.1\n0 1\n", ": matrix is asymmetric: max |m - m^T| = 0.1"),
    ("mat", "2\n1 2\n2 1\n", ": matrix is not positive semidefinite: eigenvalue -1"),
    ("poly", "nan 1 1\n", ":1: coefficient nan is not finite"),
], ids=["asymmetric-sigma", "not-psd-sigma", "nan-coefficient"])
def test_commands_name_the_rejected_file(command, kind, text, message, tmp_path, tetrad_files,
                                         capsys):
    poly, mat = tetrad_files
    bad = tmp_path / f"bad.{kind}"
    bad.write_text(text)
    poly, mat = (bad, mat) if kind == "poly" else (poly, bad)
    argv = {"sample": ["sample", "--poly", str(poly), "--sigma", str(mat), "--n", "10"],
            "classify": ["classify", "--quad", str(poly), "--sigma", str(mat)]}[command]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {bad}{message}" in captured.err.splitlines()


class TestSample:
    def test_deterministic_given_seed(self, tetrad_files, capsys):
        poly, mat = tetrad_files
        argv = ["sample", "--poly", str(poly), "--sigma", str(mat), "--n", "500", "--seed", "5"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first
        assert len(first.strip().split("\n")) == 500

    def test_seed_changes_output(self, tetrad_files, capsys):
        poly, mat = tetrad_files
        base = ["sample", "--poly", str(poly), "--sigma", str(mat), "--n", "200"]
        assert run(base + ["--seed", "5"]) == 0
        a = capsys.readouterr().out
        assert run(base + ["--seed", "6"]) == 0
        assert capsys.readouterr().out != a

    def test_global_flag_position_irrelevant(self, tetrad_files, capsys):
        poly, mat = tetrad_files
        tail = ["sample", "--poly", str(poly), "--sigma", str(mat), "--n", "200"]
        assert run(["--seed", "5"] + tail) == 0
        a = capsys.readouterr().out
        assert run(tail + ["--seed", "5"]) == 0
        assert capsys.readouterr().out == a

    def test_env_seed_override(self, tetrad_files, capsys, monkeypatch):
        poly, mat = tetrad_files
        tail = ["sample", "--poly", str(poly), "--sigma", str(mat), "--n", "200"]
        monkeypatch.setenv("WALD_SEED", "5")
        assert run(tail) == 0
        a = capsys.readouterr().out
        monkeypatch.delenv("WALD_SEED")
        assert run(tail + ["--seed", "5"]) == 0
        assert capsys.readouterr().out == a

    def test_text_is_percent_17g_of_the_sample(self, tetrad_files, tmp_path, capsys):
        # 300,000 draws span two sampler batches and 19 write blocks.
        poly, mat = tetrad_files
        n, seed = 300_000, 5
        emp = sample_wald(
            load_polynomial(poly), validate_covariance(load_matrix(mat)),
            WaldSampleConfig(n=n, seed=seed),
        )
        values = emp.values.tolist()
        want = "%.17g\n" * n % tuple(values)
        argv = ["sample", "--poly", str(poly), "--sigma", str(mat), "--n", str(n), "--seed", str(seed)]
        assert run(argv + ["--threads", "1"]) == 0
        assert capsys.readouterr().out == want
        assert run(argv + ["--threads", "2"]) == 0
        assert capsys.readouterr().out == want
        out = tmp_path / "sample.txt"
        assert run(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == want.encode("ascii")


def fstring_rows(res) -> str:
    """The rows as a Python f-string writes them, one row at a time: the
    oracle of the numpy row builder."""
    bad = np.atleast_1d(res.degenerate)
    undefined = lambda a: np.where(bad, np.nan, a).tolist()
    rows = zip(
        np.reshape(res.idx, (-1, 4)).tolist(), np.atleast_1d(res.gamma_hat).tolist(),
        undefined(res.t_stat), undefined(res.p_regular), undefined(res.p_singular),
        np.where(bad, "degenerate", res.regime_hint).tolist(),
    )
    return "".join(
        f"{i}\t{j}\t{k}\t{l}\t{gamma:.10g}\t{t:.10g}\t{p_reg:.10g}\t{p_sing:.10g}\t{regime}\n"
        for (i, j, k, l), gamma, t, p_reg, p_sing, regime in rows
    )


def assert_same_lines(got: str, want: str):
    """got == want, failing with the first differing line: a diff of the
    whole text would take minutes."""
    if got == want:
        return
    got, want = got.split("\n"), want.split("\n")
    assert len(got) == len(want)
    assert next(((i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w), None) is None


def one_factor_csv(path, seed: int, p: int = 20, n: int = 1000, constant=None):
    """One-factor data shaped like the benchmark's tetrad scan; column
    ``constant``, if given, holds 1 in every row."""
    rng = np.random.default_rng([seed, 3])
    loadings, noise_sd = rng.uniform(0.5, 1.5, p), np.sqrt(rng.uniform(0.5, 1.5, p))
    x = rng.standard_normal(n)[:, None] * loadings + rng.standard_normal((n, p)) * noise_sd
    if constant is not None:
        x[:, constant] = 1.0
    path.write_text(
        ",".join(f"x{j + 1}" for j in range(p)) + "\n"
        + "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in x)
    )
    return path


class TestTetradTest:
    @pytest.mark.parametrize("seed", [1, 3, 11])
    def test_scan_bytes_match_the_fstring_rows(self, tmp_path, seed, capsys):
        path = one_factor_csv(tmp_path / "d.csv", seed)
        assert run(["tetrad-test", "--data", str(path), "--all"]) == 0
        data = load_data_csv(path)
        want = fstring_rows(wald_tetrad_test(data, tetrad_index_array(data.p)))
        out = capsys.readouterr().out
        assert out.count("\n") == 1 + 14535
        assert_same_lines(out, _TETRAD_HEADER + want)

    def test_degenerate_scan_bytes_match_the_fstring_rows(self, tmp_path, capsys):
        values = np.random.default_rng(12).standard_normal((30, 6))
        values[:, 2] = 3.0
        path = tmp_path / "constant.csv"
        path.write_text("".join(",".join(f"{v:.8f}" for v in row) + "\n" for row in values))
        assert run(["tetrad-test", "--data", str(path), "--all"]) == 0
        data = load_data_csv(path)
        res = wald_tetrad_test(data, tetrad_index_array(data.p))
        assert res.degenerate.sum() == 30  # every tetrad touching column 2
        out = capsys.readouterr().out
        assert "\tnan\tnan\tnan\tdegenerate\n" in out
        assert_same_lines(out, _TETRAD_HEADER + fstring_rows(res))

    def test_two_digit_indices_match_the_fstring_row(self, tmp_path, capsys):
        path = one_factor_csv(tmp_path / "d.csv", 5, p=12, n=40)
        assert run(["tetrad-test", "--data", str(path), "--indices", "10,2,11,0"]) == 0
        data = load_data_csv(path)
        want = fstring_rows(wald_tetrad_test(data, TetradIndex(10, 2, 11, 0)))
        out = capsys.readouterr().out
        assert out.split("\n")[1].startswith("10\t2\t11\t0\t")
        assert out == _TETRAD_HEADER + want

    def test_rows_of_records_built_directly(self):
        rng = np.random.default_rng(20)
        m = 400
        gamma = np.concatenate([
            10.0 ** np.linspace(-300, 300, 200) * rng.uniform(1, 10, 200) * rng.choice([-1, 1], 200),
            [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 12345678905.0, -12345678915.0,
             9.9999999995e-05, 1e-05, 9999999999.5, -1e10, 1e-4],
            rng.standard_normal(m - 212),
        ])
        t_stat = np.concatenate([[np.inf, 0.0, 5e-324, 1e300], rng.chisquare(1, m - 4)])
        p_regular = np.concatenate([[0.0, 1.0, 1e-300, 0.5], rng.uniform(size=m - 4)])
        p_singular = np.concatenate([[1.0, 0.0, 12345678905.0, 9.9999999995e-05], rng.uniform(size=m - 4)])
        # a degenerate tetrad holds NaN statistics, as the kernel writes it
        degenerate = np.zeros(m, dtype=bool)
        degenerate[[7, 300]] = True
        for field in (t_stat, p_regular, p_singular):
            field[degenerate] = np.nan
        rec = TetradWald(
            idx=rng.integers(0, 150, (m, 4)), gamma_hat=gamma, t_stat=t_stat,
            p_regular=p_regular, p_singular=p_singular,
            regime_hint=np.where(rng.uniform(size=m) < 0.3, "near_singular", "regular"),
            degenerate=degenerate,
        )
        text = "".join(cli_module._lines(cli_module._tetrad_columns(rec), 10))
        assert_same_lines(text, fstring_rows(rec))

    def test_float_columns_are_the_records_own_arrays(self):
        # the table prints the kernel's arrays, NaN rows included, and
        # copies none of them
        values = np.random.default_rng(12).standard_normal((30, 6))
        values[:, 2] = 3.0
        res = wald_tetrad_test(DataMatrix(values=values), tetrad_index_array(6))
        assert res.degenerate.any()
        floats = cli_module._tetrad_columns(res)[4:8]
        for column, field in zip(floats, (res.gamma_hat, res.t_stat, res.p_regular, res.p_singular)):
            assert np.shares_memory(column, field)

    def test_single_tetrad_line(self, data_csv, capsys):
        assert run(["tetrad-test", "--data", str(data_csv), "--indices", "0,1,2,3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "i\tj\tk\tl\tgamma\tt\tp_regular\tp_singular\tregime"
        fields = lines[1].split("\t")
        assert fields[:4] == ["0", "1", "2", "3"]
        assert fields[8] in ("regular", "near_singular")

    def test_all_tetrads(self, data_csv, capsys):
        assert run(["tetrad-test", "--data", str(data_csv), "--all"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 3  # header plus three pairings of 4 columns

    # argparse takes exactly one of --indices and --all: a usage error, exit 2
    def test_requires_selection(self, data_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["tetrad-test", "--data", str(data_csv)])
        assert exc.value.code == 2
        assert "one of the arguments --indices --all is required" in capsys.readouterr().err

    def test_refuses_indices_with_all(self, data_csv, capsys):
        # both given once scanned every tetrad and dropped --indices
        with pytest.raises(SystemExit) as exc:
            run(["tetrad-test", "--data", str(data_csv), "--all", "--indices", "0,1,2,3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --indices: not allowed with argument --all" in captured.err

    def test_bad_indices(self, data_csv, capsys):
        assert run(["tetrad-test", "--data", str(data_csv), "--indices", "0,1,2"]) == 2

    def test_constant_column_named_for_single_tetrad(self, tmp_path, capsys):
        values = np.random.default_rng(12).standard_normal((30, 5))
        values[:, 2] = 3.0
        path = tmp_path / "constant.csv"
        path.write_text("".join(",".join(f"{v:.8f}" for v in row) + "\n" for row in values))
        assert run(["tetrad-test", "--data", str(path), "--indices", "0,1,2,3"]) == 2
        err = capsys.readouterr().err
        assert "the tetrad touches zero-variance columns: 2\n" in err
        assert "more data" not in err

    def test_csv_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3,4\n1,2,x,4\n")
        assert run(["tetrad-test", "--data", str(bad), "--all"]) == 2
        assert "bad.csv:2" in capsys.readouterr().err


class TestVerify:
    def test_conjecture_suite_runs_clean(self, capsys):
        code = run(["verify", "--suite", "conjectures", "--n", "5000", "--seed", "3"])
        out = capsys.readouterr().out
        # conjecture failures never gate: exit must be 0 regardless
        assert code == 0
        assert out.startswith("name\ttier\tstatistic")
        assert "conjecture" in out

    def test_theorem_failure_gates_exit(self, monkeypatch, capsys):
        failing = VerificationResult("demo", "theorem", 1.0, 0.5, 10, 1)

        import singwald.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_suite", lambda *a, **k: [failing])
        assert run(["verify", "--suite", "theorems", "--n", "1000"]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_moments_table(self, capsys):
        assert run(["moments", "--sigma", "1.0", "--phi", "0,0.7", "--m", "1,2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("m\\phi")
        first = lines[1].split("\t")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(0.5, abs=1e-10)
        assert float(first[2]) == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("sigma, options, phis, ms", [
        (0.4, ["--phi", "0,0.3,0.7,1.2,1.5", "--m", "1,2,3,4"], [0, 0.3, 0.7, 1.2, 1.5], [1, 2, 3, 4]),
        (2.5, [], [0, 0.3, 0.7, 1.2, 1.5], [1, 2, 3, 4]),  # the default --phi and --m
    ])
    def test_moments_table_bytes(self, sigma, options, phis, ms, capsys):
        # the oracle: the header and one f-string row per m of the table
        table = moment_invariance_check(sigma, phis, ms)
        want = "m\\phi\t" + "\t".join(f"{p:.12g}" for p in phis) + "\n" + "".join(
            f"{m}\t" + "\t".join(f"{v:.12g}" for v in row) + "\n" for m, row in zip(ms, table)
        )
        assert run(["moments", "--sigma", str(sigma), *options]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("option, value", [("--phi", ""), ("--m", "x"), ("--m", "1.5")])
    def test_bad_list_value_names_its_option(self, option, value, capsys):
        assert run(["moments", "--sigma", "1.0", option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {option} must be comma-separated" in captured.err
        assert f"got {value!r}\n" in captured.err


def test_every_table_is_one_call_of_the_one_writer(tetrad_files, data_csv, monkeypatch, capsys):
    # A second renderer of numeric rows would bypass the recording stub.
    writer, calls = cli_module._lines, []

    def recording(columns, digits):
        calls.append(digits)
        return writer(columns, digits)

    monkeypatch.setattr(cli_module, "_lines", recording)
    poly, mat = tetrad_files
    for argv, digits in [
        (["sample", "--poly", str(poly), "--sigma", str(mat), "--n", "100"], 17),
        (["cdf", "tetrad", "--grid", "-1:1:0.5"], 12),
        (["quantile", "tetrad", "--probs", "0.1,0.5"], 12),
        (["moments", "--sigma", "1.0", "--phi", "0,0.7", "--m", "1,2"], 12),
        (["tetrad-test", "--data", str(data_csv), "--all"], 10),
    ]:
        calls.clear()
        assert run(argv) == 0
        assert calls == [digits], argv[0]
        assert capsys.readouterr().out


# Each request is exabytes in size or leaves the float range (a denominator
# that underflows, a moment that overflows), so it fails at once without
# allocating; exit 1 is kept for a failed theorem-tier check.  A numpy
# RuntimeWarning is an error in tier-1 (pyproject.toml): the cause must come
# as one error line.
@pytest.mark.parametrize("argv", [
    ("cdf", "tetrad", "--grid", "0:1e9:1e-9"),
    ("quantile", "tetrad", "--grid", "0.1:0.9:1e-18"),
    ("sample", "--poly", "{poly}", "--sigma", "{mat}", "--n", "1000000000000000000"),
    ("moments", "--sigma", "1e-300"),
    ("moments", "--sigma", "0.7", "--m", "3000"),
])
def test_allocation_and_convergence_failures_exit_two(argv, tetrad_files, capsys):
    poly, mat = tetrad_files
    assert run([tok.format(poly=poly, mat=mat) for tok in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert any(line.startswith("error: ") for line in captured.err.splitlines())
    assert "Traceback" not in captured.err
    assert "Warning" not in captured.err


# Input errors reach run() as one ValueError: exit 2, nothing on stdout,
# and one error line that names the cause.
@pytest.mark.parametrize("argv, wald_seed, cause", [
    (("cdf", "tetrad", "--grid", "a:b:c"), None, "grid must be start:stop:step"),
    (("cdf", "tetrad", "--grid", "0:1:0.5"), "abc", "WALD_SEED must be an integer, got 'abc'"),
    (("moments", "--sigma", "1", "--m", "0"), None, "moment orders must be positive integers"),
    (("moments", "--sigma", "nan"), None, "sigma_param must be finite, got nan"),
    (("moments", "--sigma", "inf"), None, "sigma_param must be finite, got inf"),
    (("tetrad-test", "--data", "{csv}", "--indices=-1,0,1,2"), None,
     "tetrad indices (-1, 0, 1, 2) out of range for p=4 columns"),
    # every node density of the folded-Beta rule underflows to 0
    (("cdf", "beta-fold:2000:2000", "--grid", "0:2000:500"), None, "node masses underflow"),
    (("quantile", "beta-fold:2000:2000", "--probs", "0.5"), None, "node masses underflow"),
    # an empty option is given, not missing
    (("quantile", "tetrad", "--probs", ""), None, "--probs must be comma-separated numbers, got ''"),
    (("quantile", "tetrad", "--grid", ""), None, "grid must be start:stop:step"),
    # quantiles past the largest float
    (("quantile", "scaled-chisq:1e308:1", "--probs", "0.999"), None,
     "the quantile at p=0.999 overflows the float range"),
    (("quantile", "mix2:1e-16:1.7e308", "--probs", "0.999999999999"), None,
     "the quantile at p=0.999999999999 overflows the float range"),
    (("quantile", "scaled-chisq:1.7e308:3", "--probs", "0.5"), None,
     "the quantile at p=0.5 overflows the float range"),
], ids=["grid", "wald-seed", "moment-order", "moment-sigma-nan", "moment-sigma-inf",
        "tetrad-index", "underflow-cdf", "underflow-quantile", "empty-probs", "empty-grid",
        "overflow-quantile-chisq", "overflow-quantile-mix2", "overflow-median-chisq"])
def test_input_error_exits_two_naming_its_cause(argv, wald_seed, cause, data_csv, monkeypatch,
                                                capsys):
    if wald_seed is None:
        monkeypatch.delenv("WALD_SEED", raising=False)
    else:
        monkeypatch.setenv("WALD_SEED", wald_seed)
    assert run([tok.format(csv=data_csv) for tok in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and cause in errors[0]


# A list value that starts with '-' is the option's value, as in the joined
# form OPTION=VALUE, and reaches its own validator; argparse alone would
# stop at "expected one argument".
@pytest.mark.parametrize("argv, cause", [
    (("quantile", "tetrad", "--probs", "-0.5,0.5"), "p must be in (0, 1), got -0.5"),
    (("moments", "--sigma", "0.7", "--phi", "-0.1,0.2"), "phi values must lie in [0, pi/2)"),
    (("moments", "--sigma", "0.7", "--m", "-1,2"), "moment orders must be positive integers"),
    (("tetrad-test", "--data", "{csv}", "--indices", "-1,1,2,3"),
     "tetrad indices (-1, 1, 2, 3) out of range for p=4 columns"),
], ids=["probs", "phi", "m", "indices"])
def test_negative_list_value_reaches_its_validator(argv, cause, data_csv, capsys):
    argv = [tok.format(csv=data_csv) for tok in argv]
    results = []
    for form in (argv, [*argv[:-2], f"{argv[-2]}={argv[-1]}"]):
        results.append((run(form), *capsys.readouterr()))
    assert results[0] == results[1]
    code, out, err = results[0]
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [f"error: {cause}"]


def test_tetrad_cdf_is_one_up_to_the_largest_float(capsys):
    assert run(["cdf", "tetrad", "--grid", "0:1.7e308:4.25e+307"]) == 0
    rows = capsys.readouterr().out.splitlines()[-5:]
    assert [row.split("\t")[1] for row in rows] == ["0", "1", "1", "1", "1"]


# At these scales 2 * scale overflows and t / scale underflows: the chi-square
# log-density is taken in logs and the lower tail from square roots, so Newton
# steps reach the far tail and invert a cdf that keeps its bits.  Below
# y = q / (2 scale) of 1e-200, P(df/2, y) is y^(df/2) / Gamma(df/2 + 1) to far
# below an ulp, which gives the 1e-300 quantile in closed form.
@pytest.mark.parametrize("spec, df, probs", [
    ("scaled-chisq:1.7e308:3", 3, "1e-300,1e-12"),
    ("mix2:1.7e308:0", 1, "1e-300"),
], ids=["scaled-chisq", "mix2"])
def test_lower_quantiles_of_a_chi_square_at_the_largest_scale(spec, df, probs, capsys):
    assert run(["quantile", spec, "--probs", probs]) == 0
    probs = probs.split(",")
    rows = [row.split("\t") for row in capsys.readouterr().out.splitlines()[-len(probs):]]
    assert [p for p, _ in rows] == probs
    a = df / 2.0
    want = math.exp(math.log(2.0) + math.log(1.7e308) + (math.log(1e-300) + math.lgamma(a + 1.0)) / a)
    assert float(rows[0][1]) == pytest.approx(want, rel=1e-11, abs=0.0)
    law = parse_law(spec)
    for p, q in rows:
        assert float(law.cdf(float(q))) == pytest.approx(float(p), rel=1e-10, abs=0.0)


def test_parser_covers_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("sample", "cdf", "quantile", "classify", "tetrad-test", "verify", "moments"):
        assert name in text


def _loaded(code: str, *argv: str) -> list[str]:
    """Every module loaded after running ``code`` in a fresh interpreter,
    sorted."""
    env = dict(os.environ, PYTHONPATH=str(Path(singwald.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code + "; import sys; print('modules:', *sorted(sys.modules))",
         *argv],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.splitlines()[-1].split()[1:]


def _in_packages(modules: list[str], package: str | tuple[str, ...]) -> list[str]:
    """The modules of ``package``, or of each of a tuple of packages."""
    packages = (package,) if isinstance(package, str) else package
    return [m for m in modules if m.split(".")[0] in packages]


def _modules_after(code: str, package: str | tuple[str, ...], *argv: str) -> list[str]:
    """The modules of ``package`` loaded after running ``code`` in a fresh
    interpreter."""
    return _in_packages(_loaded(code, *argv), package)


_RUN_ARGV = "import sys; from singwald.cli import run; assert run(sys.argv[1:]) in (0, 1)"


@pytest.fixture(scope="module")
def loaded_by(tmp_path_factory):
    """The modules loaded by each command of the module-loading checks, by
    argv: each distinct command runs once in a fresh interpreter, and its
    full listing serves every test of this module.  ``()`` is the import of
    the CLI alone."""
    tmp_path = tmp_path_factory.mktemp("commands")
    rng = np.random.default_rng(4)
    np.savetxt(tmp_path / "d.csv", rng.standard_normal((50, 5)), delimiter=",")
    (tmp_path / "q.poly").write_text("1 2 0\n0.5 0 2\n", encoding="utf-8")
    (tmp_path / "s.mat").write_text("2\n1 0.3\n0.3 1\n", encoding="utf-8")
    (tmp_path / "tetrad.poly").write_text(TETRAD_POLY)
    (tmp_path / "kron.mat").write_text(KRON_MAT)
    inputs = {"poly": str(tmp_path / "tetrad.poly"), "kron": str(tmp_path / "kron.mat"),
              "dir": str(tmp_path)}
    listings = {}

    def modules(argv) -> list[str]:
        if argv not in listings:
            if argv:
                # 1 is a failed verify check at this small n; 2 would be an input error
                listings[argv] = _loaded(_RUN_ARGV, *(a.format(**inputs) for a in argv))
            else:
                listings[argv] = _loaded("import singwald.cli")
        return listings[argv]

    return modules


def _law_commands(law):
    return [("cdf", law, "--grid", "0:5:0.5", "--out", "{dir}/F.tsv"),
            ("quantile", law, "--grid", "0.01:0.99:0.07", "--out", "{dir}/Q.tsv")]


_SAMPLE = ("sample", "--poly", "{poly}", "--sigma", "{kron}", "--n", "100", "--out", "{dir}/w.txt")
_TETRAD_SCAN = ("tetrad-test", "--data", "{dir}/d.csv", "--all", "--out", "{dir}/t.tsv")
_LAW_COMMANDS = [
    *_law_commands("mix2:0.25:0.2"),
    *_law_commands("beta-fold:3:1"),
    *_law_commands("beta-fold:2:1"),
    *_law_commands("scaled-chisq:0.25:3"),
    *_law_commands("tetrad"),
]

_NO_SCIPY_COMMANDS = [
    (),  # import alone
    _SAMPLE,
    ("verify", "--suite", "all", "--n", "2000"),
    _TETRAD_SCAN,
    ("classify", "--quad", "{dir}/q.poly", "--sigma", "{dir}/s.mat", "--out", "{dir}/c.txt"),
    ("moments", "--sigma", "1.0", "--phi", "0,0.7", "--m", "1,2"),
    *_LAW_COMMANDS,
]


def _command_id(argv) -> str:
    return "-".join(argv[: 2 if argv[:1] in (("cdf",), ("quantile",)) else 1]) or "import"


@pytest.mark.parametrize("argv", _NO_SCIPY_COMMANDS, ids=_command_id)
def test_no_wald_command_loads_a_scipy_module(argv, loaded_by):
    # the special functions, quadrature rules and root finder are numpy code
    assert _in_packages(loaded_by(argv), "scipy") == []


@pytest.mark.parametrize("argv", _NO_SCIPY_COMMANDS, ids=_command_id)
def test_no_wald_command_loads_a_record_factory_or_a_pool_module(argv, loaded_by):
    # records are plain classes and the thread pool runs on bare threads,
    # so start-up pays for neither the dataclass factory nor the logging
    # and queue modules that concurrent.futures imports
    assert _in_packages(loaded_by(argv), ("dataclasses", "concurrent", "logging", "queue")) == []


# command -> singwald modules it must not load
_UNUSED_MODULES = [
    (_SAMPLE, {"verify", "classify", "tetrad", "laws", "special"}),
    (_TETRAD_SCAN, {"verify", "classify", "sampler", "laws", "gaussian", "poly"}),
    *((argv, {"verify", "poly"}) for argv in _LAW_COMMANDS),
]


@pytest.mark.parametrize(
    "argv, unused", _UNUSED_MODULES, ids=[_command_id(argv) for argv, _ in _UNUSED_MODULES]
)
def test_each_command_loads_only_what_it_runs(argv, unused, loaded_by):
    loaded = _in_packages(loaded_by(argv), "singwald")
    assert "singwald.cli" in loaded
    assert not {f"singwald.{name}" for name in unused} & set(loaded)


def test_tetrad_scan_reads_an_unquoted_csv_without_the_csv_module(tmp_path):
    # the one-pass parse serves the benchmark's file; a quoted field still
    # goes through the csv module
    path = one_factor_csv(tmp_path / "d.csv", 1)
    argv = ("tetrad-test", "--data", str(path), "--all")
    assert _modules_after(_RUN_ARGV, "csv", *argv) == []
    path.write_text(path.read_text().replace("x1,", '"x1",', 1))
    assert _modules_after(_RUN_ARGV, "csv", *argv) == ["csv"]


def test_importing_the_cli_loads_no_other_module(loaded_by):
    assert _in_packages(loaded_by(()), "singwald") == ["singwald", "singwald.cli"]


@pytest.mark.parametrize(
    "module", sorted(info.name for info in pkgutil.iter_modules(singwald.__path__))
)
def test_every_module_imports_alone(module):
    # A fresh interpreter per module: an import cycle fails here whichever
    # module the cycle is entered from.
    loaded = _modules_after(f"import singwald.{module}", "singwald")
    assert f"singwald.{module}" in loaded


def test_classify_names_the_function_whatever_loaded_first():
    code = ("import singwald.verify, singwald; from singwald import classify; "
            "assert callable(classify) and singwald.classify is classify; "
            "import singwald.classify as c; assert c is classify")
    assert "singwald.classify" in _modules_after(code, "singwald")


# The process exit of ``wald``: main() flushes and ends the process with
# os._exit.  stdout is left block-buffered, as for any file or pipe, so the
# final flush carries the last bytes.
_PROCESS_ENV = {
    **{k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "WALD_SEED")},
    "PYTHONPATH": str(Path(singwald.__file__).parents[1]),
}


def _wald_process(*argv, **kwargs) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-m", "singwald.cli", *map(str, argv)],
                            env=_PROCESS_ENV, **kwargs)


def _wald(*argv) -> subprocess.CompletedProcess:
    """``python -m singwald.cli ARGV`` in a fresh process."""
    with _wald_process(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        out, err = proc.communicate(timeout=120)
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err.decode())


@pytest.mark.parametrize("k", [-1000, 1000])
def test_power_of_two_scaled_mix2_tables_raise_no_float_warning(k):
    # weights near either end of the float range keep their law's shape
    s = 2.0**k
    spec = f"mix2:{s * 0.25!r}:{s * 0.2!r}"
    for argv in (["cdf", spec, "--grid", f"0:{s * 40.0!r}:{s * 0.01!r}"],
                 ["quantile", spec, "--probs", "1e-12,1e-9,1e-6,0.999999,0.999999999,0.999999999999"]):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "singwald.cli", *argv],
            env=_PROCESS_ENV, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


def test_tiny_weights_with_a_small_ratio_print_the_mix2_law():
    # a t that overflows t / scale to inf is F = 1, for the scaled chi-square
    # law and for the chi-square-1 fallback of a mix2 ratio below 1e-16
    at_inf = ["0\t0", "10000000000\t1", "20000000000\t1"]
    for argv, rows in [
        (("cdf", "mix2:1e-300:1e-315", "--grid", "0:3e-300:1e-300"),
         ["0\t0", "1e-300\t0.682689492137", "2e-300\t0.84270079295", "3e-300\t0.916735483336"]),
        (("quantile", "mix2:1e-300:1e-315", "--probs", "0.5"), None),
        (("cdf", "scaled-chisq:1e-300:1", "--grid", "0:2e10:1e10"), at_inf),
        (("cdf", "mix2:1e-300:1e-320", "--grid", "0:2e10:1e10"), at_inf),
    ]:
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "singwald.cli", *argv],
            env=_PROCESS_ENV, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert rows is None or proc.stdout.splitlines()[1:] == rows, argv


def _error_lines(stderr: str) -> list[str]:
    assert "Traceback" not in stderr and "Exception ignored" not in stderr
    return [line for line in stderr.splitlines() if line.startswith("error: ")]


_PROCESS_COMMANDS = [
    ("sample", "--poly", "{poly}", "--sigma", "{mat}", "--n", "30000"),
    ("tetrad-test", "--data", "{csv}", "--all"),
    ("verify", "--suite", "conjectures", "--n", "2000"),
    ("cdf", "tetrad", "--grid", "0:3:0.25"),
]


class TestProcessExit:
    @pytest.mark.parametrize("argv", _PROCESS_COMMANDS, ids=_command_id)
    def test_stdout_bytes_equal_an_in_process_run(self, argv, tetrad_files, data_csv,
                                                  capsys):
        poly, mat = tetrad_files
        argv = ["--seed", "5", "--threads", "2",
                *(tok.format(poly=poly, mat=mat, csv=data_csv) for tok in argv)]
        assert run(argv) == 0
        want = capsys.readouterr().out.encode()
        proc = _wald(*argv)
        assert proc.returncode == 0
        assert proc.stdout == want
        assert _error_lines(proc.stderr) == []

    def test_out_file_is_complete(self, tetrad_files, tmp_path, capsys):
        poly, mat = tetrad_files
        argv = ["sample", "--poly", str(poly), "--sigma", str(mat), "--n", "100000", "--seed", "6"]
        assert run(argv) == 0
        want = capsys.readouterr().out.encode()
        target = tmp_path / "w.txt"
        proc = _wald(*argv, "--out", target)
        assert (proc.returncode, proc.stdout) == (0, b"")
        assert target.read_bytes() == want

    @pytest.mark.parametrize("argv, code", [
        (("cdf", "tetrad", "--grid", "0:1:0.5"), 0),
        (("cdf", "no-such-law", "--grid", "0:1:0.5"), 2),
        (("tetrad-test", "--data", "missing.csv", "--all"), 2),
    ], ids=["ok", "bad-law", "missing-file"])
    def test_exit_codes(self, argv, code):
        proc = _wald(*argv)
        assert proc.returncode == code
        assert len(_error_lines(proc.stderr)) == (1 if code == 2 else 0)

    @pytest.mark.parametrize("argv", [("no-such-command",), ("cdf", "tetrad", "--frobnicate")])
    def test_usage_errors_exit_two_through_argparse(self, argv):
        proc = _wald(*argv)
        assert proc.returncode == 2
        assert "usage: wald" in proc.stderr and "Traceback" not in proc.stderr

    def test_failed_theorem_row_exits_one(self):
        code = ("import sys; import singwald.cli as cli; from singwald.verify import "
                "VerificationResult; cli.run_suite = lambda *a, **k: "
                "[VerificationResult('demo', 'theorem', 1.0, 0.5, 10, 1)]; "
                "sys.argv[1:] = ['verify']; cli.main()")
        proc = subprocess.run([sys.executable, "-c", code], env=_PROCESS_ENV,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stdout.startswith("name\ttier\tstatistic")
        assert "FAILED theorem-tier check: demo" in proc.stderr

    def test_pipe_closed_mid_output(self, tetrad_files):
        # wald sample ... | head -c 100: the reader leaves while a write blocks
        poly, mat = tetrad_files
        with _wald_process("sample", "--poly", poly, "--sigma", mat, "--n", "200000",
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read().decode()
            proc.wait(timeout=120)
        assert proc.returncode == 2
        assert len(_error_lines(err)) == 1

    def test_pipe_closed_before_the_final_flush(self):
        # the whole table fits the stdout buffer, so only main's flush writes
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            with _wald_process("cdf", "tetrad", "--grid", "0:1:0.5", stdout=write_end,
                               stderr=subprocess.PIPE) as proc:
                err = proc.communicate(timeout=120)[1].decode()
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert _error_lines(err) == ["error: [Errno 32] Broken pipe"]
