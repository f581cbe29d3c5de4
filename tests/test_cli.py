import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import singwald
from singwald.cli import build_parser, run
from singwald.verify import VerificationResult

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

    def test_needs_probs_or_grid(self, capsys):
        assert run(["quantile", "tetrad"]) == 2

    @pytest.mark.parametrize("argv, bad", [
        (["--probs", "0.5,1.5,0.9"], "1.5"),
        (["--grid", "0:1:0.25"], "0"),
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


class TestTetradTest:
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

    def test_requires_selection(self, data_csv, capsys):
        assert run(["tetrad-test", "--data", str(data_csv)]) == 2

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


# Each request is exabytes in size or leaves the float range (a denominator
# that underflows, a moment that overflows), so it fails at once without
# allocating; exit 1 is kept for a failed theorem-tier check.  A numpy
# RuntimeWarning is an error here: the cause must come as one error line.
@pytest.mark.filterwarnings("error::RuntimeWarning")
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


def test_parser_covers_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("sample", "cdf", "quantile", "classify", "tetrad-test", "verify", "moments"):
        assert name in text


def _scipy_modules_after(code: str, *argv: str) -> list[str]:
    """The ``scipy`` modules loaded after running ``code`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(singwald.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code + "; import sys; "
         "print('scipy:', *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
         *argv],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.splitlines()[-1].split()[1:]


@pytest.fixture
def command_inputs(tetrad_files, tmp_path):
    """Input files for every command in the no-scipy check."""
    rng = np.random.default_rng(4)
    np.savetxt(tmp_path / "d.csv", rng.standard_normal((50, 5)), delimiter=",")
    (tmp_path / "q.poly").write_text("1 2 0\n0.5 0 2\n", encoding="utf-8")
    (tmp_path / "s.mat").write_text("2\n1 0.3\n0.3 1\n", encoding="utf-8")
    poly, mat = tetrad_files
    return {"poly": str(poly), "kron": str(mat), "dir": str(tmp_path)}


def _law_commands(law):
    return [("cdf", law, "--grid", "0:5:0.5", "--out", "{dir}/F.tsv"),
            ("quantile", law, "--grid", "0.01:0.99:0.07", "--out", "{dir}/Q.tsv")]


_NO_SCIPY_COMMANDS = [
    (),  # import alone
    ("sample", "--poly", "{poly}", "--sigma", "{kron}", "--n", "100", "--out", "{dir}/w.txt"),
    ("verify", "--suite", "all", "--n", "2000"),
    ("tetrad-test", "--data", "{dir}/d.csv", "--all", "--out", "{dir}/t.tsv"),
    ("classify", "--quad", "{dir}/q.poly", "--sigma", "{dir}/s.mat", "--out", "{dir}/c.txt"),
    ("moments", "--sigma", "1.0", "--phi", "0,0.7", "--m", "1,2"),
    *_law_commands("mix2:0.25:0.2"),
    *_law_commands("beta-fold:3:1"),
    *_law_commands("beta-fold:2:1"),
    *_law_commands("scaled-chisq:0.25:3"),
    *_law_commands("tetrad"),
]


@pytest.mark.parametrize(
    "argv", _NO_SCIPY_COMMANDS,
    ids=lambda argv: "-".join(argv[: 2 if argv[:1] in (("cdf",), ("quantile",)) else 1]) or "import",
)
def test_no_wald_command_loads_a_scipy_module(argv, command_inputs):
    # the special functions, quadrature rules and root finder are numpy code
    code = "import singwald.cli"
    if argv:
        argv = [a.format(**command_inputs) for a in argv]
        # 1 is a failed verify check at this small n; 2 would be an input error
        code = "import sys; from singwald.cli import run; assert run(sys.argv[1:]) in (0, 1)"
    assert _scipy_modules_after(code, *argv) == []
