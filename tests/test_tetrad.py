import ast
import csv
import math
import re
from itertools import combinations

import mpmath
import numpy as np
import pytest
from conftest import peak_bytes
from hypothesis import HealthCheck, event, given, settings, strategies as st

from singwald.classify import classify
from singwald.cli import run
from singwald.errors import ParseError, content_lines, read_input
from singwald.gaussian import make_generator, validate_covariance
from singwald.laws import (
    EmpiricalDistribution,
    FoldedBetaProduct,
    chi2_sf,
    tetrad_singular_cdf,
)
from singwald.sampler import two_sample_ks
from singwald.special import _BLOCK
from singwald.tetrad import (
    DataMatrix,
    TetradIndex,
    all_tetrads,
    asymptotic_v_normal,
    empirical_covariance,
    load_data_csv,
    tetrad_index_array,
    tetrad_wald,
    wald_tetrad_test,
    zero_variance_columns,
)
from singwald.verify import _bartlett_scatter, _simulate_tetrad_stats

IDX = TetradIndex(0, 1, 2, 3)
HEADER = "i\tj\tk\tl\tgamma\tt\tp_regular\tp_singular\tregime\n"


def tetrad_stat(theta, idx):
    """Reference: the tetrad value and its exact gradient over the pairs
    C = (ik, il, jk, jl)."""
    i, j, k, l = idx.i, idx.j, idx.k, idx.l
    gamma = theta[i, k] * theta[j, l] - theta[i, l] * theta[j, k]
    grad = np.array([theta[j, l], -theta[j, k], -theta[i, l], theta[i, k]])
    return float(gamma), grad


def assert_kernel_matches(theta, idx, gamma):
    """The batched kernel reproduces a tetrad value."""
    res = tetrad_wald(theta, 100, [(idx.i, idx.j, idx.k, idx.l)])
    assert res.gamma_hat[0] == pytest.approx(gamma, abs=1e-14)


def tetrad_pairs(idx):
    """Reference: the covariance pairs in the gradient order C = (ik, il, jk, jl)."""
    i, j, k, l = idx
    return ((i, k), (i, l), (j, k), (j, l))


def v_loop(theta, pairs):
    """Reference: the Gaussian fourth-moment covariance entry by entry."""
    v = np.empty((len(pairs), len(pairs)))
    for r, (a, b) in enumerate(pairs):
        for s, (c, d) in enumerate(pairs):
            v[r, s] = theta[a, c] * theta[b, d] + theta[a, d] * theta[b, c]
    return v


def singular_sf_mp(t):
    """Reference: 1 - F(t) = exp(-2t) - sqrt(2 pi t) * erfc(sqrt(2t)) / 2 for
    the tetrad singular law, at 40 digits."""
    with mpmath.workdps(40):
        t = mpmath.mpf(float(t))
        return float(
            mpmath.exp(-2 * t)
            - mpmath.sqrt(2 * mpmath.pi * t) * mpmath.erfc(mpmath.sqrt(2 * t)) / 2
        )


def row_draw_simulation(theta, n_data, replicates, seed):
    """Reference: leading-tetrad Wald statistics from n_data Gaussian rows per
    replicate, with the per-entry variance loop."""
    pairs = ((0, 2), (0, 3), (1, 2), (1, 3))
    chol = np.linalg.cholesky(theta)
    stats = np.empty(replicates)
    chunk = max(1, int(2e6 // max(n_data, 1)))
    done = stream = 0
    while done < replicates:
        r = min(chunk, replicates - done)
        z = make_generator(seed, stream).standard_normal((r, n_data, 4))
        stream += 1
        xc = z @ chol.T
        xc = xc - xc.mean(axis=1, keepdims=True)
        covs = np.einsum("rni,rnj->rij", xc, xc) / n_data
        gam = covs[:, 0, 2] * covs[:, 1, 3] - covs[:, 0, 3] * covs[:, 1, 2]
        grad = np.stack(
            [covs[:, 1, 3], -covs[:, 1, 2], -covs[:, 0, 3], covs[:, 0, 2]],
            axis=1,
        )
        v = np.empty((r, 4, 4))
        for a_i, (a, b) in enumerate(pairs):
            for b_i, (c, d) in enumerate(pairs):
                v[:, a_i, b_i] = (
                    covs[:, a, c] * covs[:, b, d] + covs[:, a, d] * covs[:, b, c]
                )
        den = np.einsum("ri,rij,rj->r", grad, v, grad)
        stats[done : done + r] = n_data * gam**2 / den
        done += r
    return stats


def write_csv(path, values):
    path.write_text(
        "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in values)
    )
    return path


def single_row(csv, idx, capsys):
    """The data row ``wald tetrad-test --indices`` prints for one tetrad."""
    assert run(["tetrad-test", "--data", str(csv), "--indices",
                f"{idx.i},{idx.j},{idx.k},{idx.l}"]) == 0
    header, row = capsys.readouterr().out.splitlines(keepends=True)
    assert header == HEADER
    return row


def simulate(theta, n, seed):
    chol = np.linalg.cholesky(theta)
    x = make_generator(seed, 0).standard_normal((n, theta.shape[0])) @ chol.T
    return DataMatrix(values=x)


class TestEmpiricalCovariance:
    def test_five_points_by_hand(self):
        x = np.arange(-2.0, 3.0)
        got = empirical_covariance(DataMatrix(values=np.column_stack([x, 2 * x, -x, x * x])))
        np.testing.assert_array_equal(
            got, [[2, 4, -2, 0], [4, 8, -4, 0], [-2, -4, 2, 0], [0, 0, 0, 2.8]]
        )

    def test_constant_column_zeroes_out(self):
        rng = np.random.default_rng(3)
        data = DataMatrix(values=np.column_stack([np.ones(10), rng.standard_normal((10, 3))]))
        got = empirical_covariance(data)
        assert got[0, 0] == 0.0 and np.all(got[0, 1:] == 0.0)

    def test_divisor_is_n(self):
        rng = np.random.default_rng(4)
        first = np.tile([0.0, 1.0], 3)
        data = DataMatrix(values=np.column_stack([first, rng.standard_normal((6, 3))]))
        # centered values +-1/2, so variance is 1/4 with divisor n=6
        assert empirical_covariance(data)[0, 0] == pytest.approx(0.25)

    def test_consistency(self):
        theta = np.array(
            [[1.0, 0.3, 0.0, 0.1], [0.3, 2.0, 0.2, 0.0],
             [0.0, 0.2, 1.5, -0.4], [0.1, 0.0, -0.4, 1.0]]
        )
        data = simulate(theta, 10**6, 30)
        assert np.abs(empirical_covariance(data) - theta).max() < 0.01

    def test_nonfinite_rejected(self):
        values = np.eye(5, 4)
        values[1, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            empirical_covariance(DataMatrix(values=values))


class TestTetradStat:
    def test_unit_cross_pattern(self):
        theta = np.eye(4)
        theta[0, 2] = theta[2, 0] = 1.0
        theta[1, 3] = theta[3, 1] = 1.0
        gamma, grad = tetrad_stat(theta, IDX)
        assert gamma == 1.0
        np.testing.assert_array_equal(grad, [1.0, 0.0, 0.0, 1.0])
        assert_kernel_matches(theta, IDX, 1.0)

    def test_rank_one_pattern_vanishes_everywhere(self):
        # factor structure theta_ij = b_i b_j kills every tetrad
        b = np.array([0.8, -0.5, 1.2, 0.3, 0.7])
        theta = np.outer(b, b) + np.diag(np.full(5, 0.5))
        for idx in all_tetrads(5):
            gamma, grad = tetrad_stat(theta, idx)
            assert gamma == pytest.approx(0.0, abs=1e-14)
            assert_kernel_matches(theta, idx, 0.0)

    def test_block_diagonal_is_doubly_singular(self):
        theta = np.eye(4)
        theta[0, 1] = theta[1, 0] = 0.5
        theta[2, 3] = theta[3, 2] = -0.3
        gamma, grad = tetrad_stat(theta, IDX)
        assert gamma == 0.0
        np.testing.assert_array_equal(grad, np.zeros(4))
        assert_kernel_matches(theta, IDX, 0.0)

    def test_gradient_matches_polynomial(self, tetrad_form):
        # same ordering as the quadratic form on (t_ik, t_il, t_jk, t_jl)
        rng = np.random.default_rng(31)
        theta = rng.standard_normal((4, 4))
        theta = (theta + theta.T) / 2
        gamma, grad = tetrad_stat(theta, IDX)
        coords = np.array([theta[0, 2], theta[0, 3], theta[1, 2], theta[1, 3]])
        assert gamma == pytest.approx(tetrad_form.evaluate(coords))
        np.testing.assert_allclose(grad, tetrad_form.gradient(coords))
        assert_kernel_matches(theta, IDX, tetrad_form.evaluate(coords))

    def test_distinct_indices_required(self):
        with pytest.raises(ValueError, match="distinct"):
            TetradIndex(0, 1, 2, 2)


class TestAsymptoticVariance:
    def test_identity_theta(self):
        v = asymptotic_v_normal(np.eye(4), tetrad_pairs(IDX))
        np.testing.assert_array_equal(v, np.eye(4))

    def test_block_diagonal_kronecker_structure(self):
        b1 = np.array([[1.0, 0.4], [0.4, 2.0]])
        b2 = np.array([[1.5, -0.2], [-0.2, 1.0]])
        theta = np.block(
            [[b1, np.zeros((2, 2))], [np.zeros((2, 2)), b2]]
        )
        v = asymptotic_v_normal(theta, tetrad_pairs(IDX))
        np.testing.assert_allclose(v, np.kron(b1, b2), atol=1e-14)

    def test_diagonal_pair_gives_double_square(self):
        theta = np.diag([2.0, 3.0])
        v = asymptotic_v_normal(theta, [(0, 0)])
        assert v[0, 0] == pytest.approx(2.0 * 4.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            asymptotic_v_normal(np.array([[1.0, 1.0], [0.0, 1.0]]), [(0, 1)])

    def test_matches_entrywise_loop(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((5, 8))
        theta = a @ a.T
        theta = (theta + theta.T) / 2
        pairs = [(0, 2), (4, 1), (3, 3), (2, 0), (1, 4)]
        np.testing.assert_array_equal(
            asymptotic_v_normal(theta, pairs), v_loop(theta, pairs)
        )
        stack = np.stack([theta, 2.0 * theta])
        got = asymptotic_v_normal(stack, np.array([pairs, pairs[::-1]]))
        assert got.shape == (2, 2, 5, 5)
        np.testing.assert_array_equal(got[1, 0], v_loop(2.0 * theta, pairs))
        np.testing.assert_array_equal(got[0, 1], v_loop(theta, pairs[::-1]))
        # verify's Bartlett stacks are symmetric only up to rounding, so each
        # entry must gather theta[a, c], theta[b, d], theta[a, d], theta[b, c]
        # as written, never a transposed twin
        skew = _bartlett_scatter(theta, 40, 3, 4) / 40
        skew = skew + 1e-13 * np.triu(np.ones((5, 5)), 1) * np.abs(skew).max()
        assert not np.array_equal(skew, np.swapaxes(skew, -1, -2))
        for q in (1, 4, 5):
            got = asymptotic_v_normal(skew, pairs[:q])
            for r in range(skew.shape[0]):
                np.testing.assert_array_equal(got[r], v_loop(skew[r], pairs[:q]))


class TestWaldTetradTest:
    def test_scale_invariance_of_statistic(self):
        theta = np.eye(4)
        theta[0, 2] = theta[2, 0] = 0.3
        data = simulate(theta, 2000, 32)
        base = wald_tetrad_test(data, IDX)
        scaled = DataMatrix(values=data.values * np.array([1.0, 3.0, 0.25, 7.0]))
        moved = wald_tetrad_test(scaled, IDX)
        assert moved.t_stat == pytest.approx(base.t_stat, rel=1e-8)

    def test_pvalues_consistent_with_cdf(self):
        theta = np.eye(4)
        data = simulate(theta, 3000, 33)
        rep = wald_tetrad_test(data, IDX)
        assert rep.p_regular == pytest.approx(float(chi2_sf(rep.t_stat, 1)))
        assert rep.p_singular == pytest.approx(
            1.0 - tetrad_singular_cdf(rep.t_stat)
        )
        assert 0.0 <= rep.p_regular <= 1.0 and 0.0 <= rep.p_singular <= 1.0

    def test_regular_point_hinted_regular(self):
        theta = np.eye(4)
        theta[0, 2] = theta[2, 0] = 0.6
        data = simulate(theta, 5000, 34)
        assert wald_tetrad_test(data, IDX).regime_hint == "regular"

    def test_singular_point_hinted_near_singular(self):
        data = simulate(np.eye(4), 5000, 35)
        assert wald_tetrad_test(data, IDX).regime_hint == "near_singular"

    def test_power_against_fixed_alternative(self):
        theta = np.eye(4)
        theta[0, 2] = theta[2, 0] = 0.5
        theta[1, 3] = theta[3, 1] = 0.5
        # gamma = 0.25 != 0: n = 5000 should reject overwhelmingly
        data = simulate(theta, 5000, 36)
        rep = wald_tetrad_test(data, IDX)
        assert rep.p_regular < 1e-6

    def test_degenerate_data_names_constant_columns(self, tmp_path, capsys):
        # constant third and fourth columns zero out the gradient and the
        # variance submatrix exactly
        rng = np.random.default_rng(55)
        values = np.column_stack(
            [rng.standard_normal(10), rng.standard_normal(10), np.ones(10), np.ones(10)]
        )
        assert wald_tetrad_test(DataMatrix(values=values), IDX).degenerate
        csv = write_csv(tmp_path / "constant.csv", values)
        assert run(["tetrad-test", "--data", str(csv), "--indices", "0,1,2,3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("the tetrad touches zero-variance columns: 2, 3\n")
        assert "more data" not in captured.err

    def test_degenerate_data_advises_more_without_constant_column(self, tmp_path, capsys):
        # +-1 columns with (0, 1) orthogonal to (2, 3): every cross
        # covariance, hence the gradient, is exactly zero, and no column is
        # constant
        a = np.tile([1.0, -1.0], 4)
        b = np.tile([1.0, 1.0, -1.0, -1.0], 2)
        c = np.repeat([1.0, -1.0], 4)
        data = DataMatrix(values=np.column_stack([a, b, c, a * b * c]))
        assert zero_variance_columns(data) == []
        assert wald_tetrad_test(data, IDX).degenerate
        csv = write_csv(tmp_path / "orthogonal.csv", data.values)
        assert run(["tetrad-test", "--data", str(csv), "--indices", "0,1,2,3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("collect more data\n")

    def test_one_index_gives_scalars_and_an_index_array_gives_rows(self):
        data = simulate(np.eye(5), 500, 38)
        idx = tetrad_index_array(5)
        scan = wald_tetrad_test(data, idx)
        assert scan.t_stat.shape == scan.degenerate.shape == (15,)
        for r, row in enumerate(idx.tolist()):
            one = wald_tetrad_test(data, TetradIndex(*row))
            assert one.t_stat.shape == one.regime_hint.shape == ()
            assert one.t_stat == scan.t_stat[r]
            assert one.p_singular == scan.p_singular[r]
            assert one.regime_hint == scan.regime_hint[r]

    def test_out_of_range_indices(self):
        data = simulate(np.eye(4), 100, 37)
        with pytest.raises(ValueError, match="out of range"):
            wald_tetrad_test(data, TetradIndex(0, 1, 2, 7))
        with pytest.raises(ValueError, match=r"\(0, 1, 2, -1\) out of range"):
            wald_tetrad_test(data, [[0, 1, 2, 3], [0, 1, 2, -1]])

    def test_index_array_with_a_repeated_column_raises(self):
        # theta00*theta11 - theta01^2 is a determinant, not a tetrad: an
        # array row meets the rule and the message of TetradIndex
        data = simulate(np.eye(4), 100, 37)
        rows = [[0, 1, 2, 3], [0, 2, 1, 3], [0, 1, 0, 1], [3, 3, 1, 2]]
        message = r"^tetrad indices must be distinct, got \(0, 1, 0, 1\)$"
        with pytest.raises(ValueError, match=message):
            wald_tetrad_test(data, rows)
        with pytest.raises(ValueError, match=message):
            TetradIndex(0, 1, 0, 1)
        # the first bad row in a later block is named too
        scan = np.tile([[0, 1, 2, 3]], (_BLOCK + 5, 1))
        scan[_BLOCK + 2] = [2, 1, 2, 3]
        with pytest.raises(ValueError, match=r"got \(2, 1, 2, 3\)$"):
            wald_tetrad_test(data, scan)


class TestBatchedKernel:
    def test_scan_equals_single_tests(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(300)[:, None] * rng.uniform(0.5, 1.5, 6)
        csv = write_csv(tmp_path / "six.csv", x + rng.standard_normal((300, 6)))
        assert run(["tetrad-test", "--data", str(csv), "--all"]) == 0
        scan = capsys.readouterr().out
        rows = [single_row(csv, idx, capsys) for idx in all_tetrads(6)]
        assert len(rows) == 45
        assert scan == HEADER + "".join(rows)

    def test_stack_matches_closed_form(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((40, 4, 7))
        covs = a @ a.transpose(0, 2, 1) / 7
        covs = (covs + covs.transpose(0, 2, 1)) / 2
        n = 300
        tetrads = list(all_tetrads(4))
        res = tetrad_wald(covs, n, [(t.i, t.j, t.k, t.l) for t in tetrads])
        assert res.t_stat.shape == (40, 3)
        assert not res.degenerate.any()
        for r in range(covs.shape[0]):
            for m, idx in enumerate(tetrads):
                gamma, grad = tetrad_stat(covs[r], idx)
                t = n * gamma**2 / (grad @ v_loop(covs[r], tetrad_pairs(idx)) @ grad)
                for got, want in (
                    (res.gamma_hat[r, m], gamma),
                    (res.t_stat[r, m], t),
                ):
                    assert abs(got - want) <= 1e-13 * abs(want)
                assert res.p_regular[r, m] == pytest.approx(chi2_sf(t, 1), rel=1e-12)
                assert res.p_singular[r, m] == pytest.approx(
                    singular_sf_mp(res.t_stat[r, m]), rel=1e-12
                )

    @pytest.mark.parametrize("case", ["random-p7", "block-diagonal", "skewed-bartlett"])
    def test_denominator_and_hint_match_the_fourth_moment_matrix(self, case):
        # the kernel's cofactor-identity denominator against grad^T V grad,
        # and its hint against |grad|^2 and the largest diagonal entry of V,
        # with V built entry by entry
        n = 500
        rng = np.random.default_rng(21)
        if case == "random-p7":
            a = rng.standard_normal((7, 12))
            thetas, idx = (a @ a.T / 12)[None], tetrad_index_array(7)
        elif case == "block-diagonal":
            # every cross covariance between {0, 1} and {2, 3} is near 1e-8
            a, b = rng.standard_normal((2, 2, 5))
            theta = np.zeros((4, 4))
            theta[:2, :2], theta[2:, 2:] = a @ a.T / 5, b @ b.T / 5
            theta[:2, 2:] = 1e-8 * rng.uniform(0.5, 1.5, (2, 2))
            theta[2:, :2] = theta[:2, 2:].T
            thetas = theta[None]
            idx = np.array([[0, 1, 2, 3], [1, 0, 2, 3], [2, 3, 0, 1], [3, 2, 1, 0]])
        else:
            # symmetric only up to rounding, like verify's Bartlett stacks
            a = rng.standard_normal((5, 8))
            theta = a @ a.T
            skew = _bartlett_scatter((theta + theta.T) / 2, 40, 3, 4) / 40
            skew = skew + 1e-13 * np.triu(np.ones((5, 5)), 1) * np.abs(skew).max()
            assert not np.array_equal(skew, np.swapaxes(skew, -1, -2))
            thetas, idx = skew, tetrad_index_array(5)
        res = tetrad_wald(thetas, n, idx)
        scale = np.sqrt(np.log(n) / n)
        for r, theta in enumerate(thetas):
            for m, row in enumerate(idx.tolist()):
                gamma, grad = tetrad_stat(theta, TetradIndex(*row))
                v = v_loop(theta, tetrad_pairs(row))
                t = n * gamma**2 / (grad @ v @ grad)
                assert abs(res.t_stat[r, m] - t) <= 1e-12 * t, (r, row)
                near = grad @ grad < 4.0 * np.diag(v).max() * scale
                assert res.regime_hint[r, m] == ("near_singular" if near else "regular")
        if case == "block-diagonal":
            assert (res.regime_hint == "near_singular").all()

    def test_singular_pvalue_keeps_tail_digits(self):
        # 1 - F(t) loses digits from t ~ 10 and is exactly 0 from t ~ 20;
        # t grows linearly in n, so n sets t near each target.
        rng = np.random.default_rng(12)
        a = rng.standard_normal((4, 6))
        theta = a @ a.T / 6
        t1 = float(tetrad_wald(theta, 1, [(0, 1, 2, 3)]).t_stat[0])
        for target in (10.0, 20.0, 40.0):
            res = tetrad_wald(theta, round(target / t1), [(0, 1, 2, 3)])
            t, p = float(res.t_stat[0]), float(res.p_singular[0])
            assert abs(t / target - 1.0) < 0.05
            want = singular_sf_mp(t)
            assert p > 0.0 and abs(p - want) <= 1e-13 * want, (t, p, want)

    @pytest.mark.parametrize(
        "constant, n_valid, listed",
        [((4, 5), 3, "zero-variance columns: 4, 5"), ((4,), 15, "zero-variance columns: 4")],
        ids=["two-constant", "one-constant"],
    )
    def test_degenerate_scan_keeps_every_valid_row(
        self, tmp_path, capsys, constant, n_valid, listed
    ):
        # a constant column zeroes the estimated variance of every tetrad
        # that touches it; the other tetrads stay valid
        values = np.random.default_rng(3).standard_normal((50, 6))
        values[:, list(constant)] = 1.0 + np.arange(len(constant))
        csv = write_csv(tmp_path / "degenerate.csv", values)
        assert run(["tetrad-test", "--data", str(csv), "--all"]) == 0
        captured = capsys.readouterr()
        header, *rows = captured.out.splitlines(keepends=True)
        assert header == HEADER
        assert len(rows) == 45
        tetrads = list(all_tetrads(6))
        valid = 0
        for idx, row in zip(tetrads, rows):
            if {idx.i, idx.j, idx.k, idx.l}.isdisjoint(constant):
                assert row == single_row(csv, idx, capsys)
                valid += 1
            else:
                fields = row.rstrip("\n").split("\t")
                assert fields[:4] == [str(v) for v in (idx.i, idx.j, idx.k, idx.l)]
                assert float(fields[4]) == 0.0
                assert fields[5:] == ["nan", "nan", "nan", "degenerate"]
        assert valid == n_valid
        assert f"{45 - n_valid} of 45 tetrads are degenerate" in captured.err
        assert listed in captured.err

    def test_scan_holds_its_record_and_one_block(self):
        # p = 30: 82,215 tetrads, six blocks.  One block's temporaries come
        # to about 3.3 MB over the record; those of the whole scan at once,
        # or a (4, 4) variance per tetrad of one block (11 MB), exceed the
        # bound.
        a = np.random.default_rng(30).standard_normal((30, 60))
        theta = a @ a.T / 60
        idx = tetrad_index_array(30)
        tetrad_wald(theta, 1000, idx[:3])
        res, peak = peak_bytes(lambda: tetrad_wald(theta, 1000, idx))
        assert res.t_stat.shape == (82215,)
        record = sum(
            getattr(res, name).nbytes
            for name in ("gamma_hat", "t_stat", "p_regular", "p_singular",
                         "regime_hint", "degenerate")
        )
        assert peak <= record + 384 * _BLOCK, (peak / 2**20, record / 2**20)

    def test_index_array_order(self):
        for p in (4, 5, 7):
            want = []
            for a, b, c, d in combinations(range(p), 4):
                want += [[a, b, c, d], [a, c, b, d], [a, d, b, c]]
            assert tetrad_index_array(p).tolist() == want


class TestBartlettDraw:
    """The calibration simulation draws each empirical covariance exactly from
    its Wishart law instead of from n_data Gaussian rows."""

    THETA = np.array(
        [[1.0, 0.7, 0.3, 0.1], [0.7, 2.0, -0.2, 0.4],
         [0.3, -0.2, 1.5, 0.5], [0.1, 0.4, 0.5, 1.0]]
    )

    def test_simulation_matches_row_draw_law(self):
        theta = np.eye(4)
        theta[0, 1] = theta[1, 0] = 0.7
        theta[0, 2] = theta[2, 0] = 0.3
        new = _simulate_tetrad_stats(theta, 2000, 2000, 5)
        old = row_draw_simulation(theta, 2000, 2000, 5)
        d = two_sample_ks(
            EmpiricalDistribution.from_samples(new), EmpiricalDistribution.from_samples(old)
        )
        # asymptotic 1% critical value of the two-sample KS, equal sizes m
        assert d < 1.628 * np.sqrt(2.0 / 2000)

    def test_scatter_has_exact_wishart_moments(self):
        # the centred scatter S of n Gaussian rows is Wishart(n - 1, theta):
        # E S = (n - 1) theta and Var S_ij = (n - 1)(theta_ij^2 + theta_ii theta_jj)
        n_data, reps = 20, 200_000
        theta = self.THETA
        s = _bartlett_scatter(theta, n_data, reps, 11)
        var = (n_data - 1) * (theta**2 + np.outer(np.diag(theta), np.diag(theta)))
        se = np.sqrt(var / reps) / (n_data - 1)
        mean = s.mean(axis=0) / (n_data - 1)
        assert np.all(np.abs(mean - theta) < 4.0 * se), (mean - theta) / se
        np.testing.assert_allclose(s.var(axis=0), var, rtol=0.03)

    def test_same_seed_same_bits(self):
        a = _simulate_tetrad_stats(self.THETA, 500, 300, 9)
        np.testing.assert_array_equal(a, _simulate_tetrad_stats(self.THETA, 500, 300, 9))
        assert not np.array_equal(a, _simulate_tetrad_stats(self.THETA, 500, 300, 10))


class TestCalibration:
    def test_regular_null_keeps_level(self):
        # one-factor structure with nonzero loadings: gamma = 0, gradient
        # nonzero, so the chi-square-1 reference applies
        from scipy import stats as sps

        from singwald.verify import _simulate_tetrad_stats

        b = np.array([0.9, 0.8, 0.7, 0.6])
        theta = np.outer(b, b) + np.diag([0.5, 0.6, 0.7, 0.8])
        t = _simulate_tetrad_stats(theta, 5000, 2000, 39)
        c05 = sps.chi2.ppf(0.95, 1)
        rate = float((t > c05).mean())
        assert 0.035 <= rate <= 0.065

    def test_power_grows_to_one(self):
        # gamma = 0.25 under the alternative; the rejection rate at n = 5000
        # must exceed 0.99
        from scipy import stats as sps

        from singwald.verify import _simulate_tetrad_stats

        theta = np.eye(4)
        theta[0, 2] = theta[2, 0] = 0.5
        theta[1, 3] = theta[3, 1] = 0.5
        t = _simulate_tetrad_stats(theta, 5000, 500, 7)
        rate = float((t > sps.chi2.ppf(0.95, 1)).mean())
        assert rate > 0.99

    def test_singular_null_is_conservative(self):
        theta = np.block(
            [
                [np.array([[1.0, 0.7], [0.7, 1.0]]), np.zeros((2, 2))],
                [np.zeros((2, 2)), np.eye(2)],
            ]
        )
        from singwald.verify import _simulate_tetrad_stats
        from scipy import stats as sps

        t = _simulate_tetrad_stats(theta, 2000, 2000, 40)
        c05 = sps.chi2.ppf(0.95, 1)
        assert float((t > c05).mean()) <= 0.01


class TestSingularLimitLaw:
    def test_block_diagonal_classifies_as_tetrad_law(self, tetrad_form):
        # the limit of the Wald statistic at a block-diagonal truth is the
        # tetrad singular law for every positive definite block pair
        rng = np.random.default_rng(41)
        for _ in range(10):
            v = rng.uniform(0.3, 3.0, 4)
            r1, r2 = rng.uniform(-0.9, 0.9, 2)
            b1 = np.array(
                [[v[0], r1 * np.sqrt(v[0] * v[1])], [r1 * np.sqrt(v[0] * v[1]), v[1]]]
            )
            b2 = np.array(
                [[v[2], r2 * np.sqrt(v[2] * v[3])], [r2 * np.sqrt(v[2] * v[3]), v[3]]]
            )
            theta = np.block([[b1, np.zeros((2, 2))], [np.zeros((2, 2)), b2]])
            sigma_c = asymptotic_v_normal(theta, tetrad_pairs(IDX))
            cls = classify(tetrad_form.to_quadratic_form(), validate_covariance(sigma_c))
            assert cls.law == FoldedBetaProduct(2, 2)

    def test_cdf_dominance_of_singular_law(self):
        # the singular CDF sits above chi-square-1 pointwise on [0, 50]
        t = np.linspace(0.0, 50.0, 2001)
        gap = chi2_sf(t, 1) - (1.0 - tetrad_singular_cdf(t))
        assert gap.min() >= -1e-9


class TestDataMatrix:
    def test_needs_two_dimensions(self):
        with pytest.raises(ValueError, match="2-d"):
            DataMatrix(values=np.zeros(10))

    def test_needs_four_columns(self):
        with pytest.raises(ValueError, match="4 columns"):
            DataMatrix(values=np.zeros((10, 3)))

    def test_needs_enough_rows(self):
        with pytest.raises(ValueError, match="rows"):
            DataMatrix(values=np.zeros((4, 4)))

    def test_rejects_nan(self):
        values = np.zeros((6, 4))
        values[2, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            DataMatrix(values=values)


class TestCsvLoading:
    @staticmethod
    def load(tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return load_data_csv(path)

    def test_header_detected(self, tmp_path):
        text = "a,b,c,d\n" + "\n".join(
            ",".join(str(float(i + j)) for j in range(4)) for i in range(6)
        )
        data = self.load(tmp_path, text)
        assert data.n == 6
        assert data.values[0].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_no_header(self, tmp_path):
        text = "\n".join("1,2,3,4" for _ in range(6))
        data = self.load(tmp_path, text + "\n")
        assert data.n == 6
        assert data.values[0].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        # '\ufeff1.5' is no number, so the first row would pass for a header
        path = tmp_path / "bom.csv"
        path.write_text("\n".join(f"{i}.5,2,3,{i}" for i in range(8)) + "\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        data = load_data_csv(path)
        assert data.n == 8
        assert data.values[0].tolist() == [0.5, 2.0, 3.0, 0.0]

    def test_ragged_row_line_number(self, tmp_path):
        text = "1,2,3,4\n1,2,3\n"
        with pytest.raises(ParseError, match=r"data\.csv:2"):
            self.load(tmp_path, text)

    def test_bad_cell(self, tmp_path):
        rows = ["1,2,3,4"] * 6
        rows[3] = "1,2,x,4"
        with pytest.raises(ParseError, match=r"data\.csv:4"):
            self.load(tmp_path, "\n".join(rows))

    def test_empty(self, tmp_path):
        with pytest.raises(ParseError, match="no data"):
            self.load(tmp_path, "")

    def test_blank_and_comma_only_lines_skipped(self, tmp_path):
        rows = [f"{i},2,3,{i}.5" for i in range(6)]
        data = self.load(tmp_path, "\n".join(rows[:2] + ["", ",,,", " , "] + rows[2:]) + "\n\n")
        assert data.n == 6
        assert data.values[:, 3].tolist() == [i + 0.5 for i in range(6)]

    def test_comment_before_the_header(self, tmp_path):
        rows = [",".join(str(float(i * j)) for j in range(5)) for i in range(6)]
        data = self.load(tmp_path, "# one-factor data\na,b,c,d,e\n" + "\n".join(rows) + "\n")
        assert data.n == 6 and data.p == 5
        assert data.values[1].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_comment_between_rows_and_after_a_row(self, tmp_path):
        rows = [f"{i},2,3,{i}.5,1" for i in range(6)]
        rows[2] += "  # a trailing note, with a comma"
        data = self.load(tmp_path, "\n".join(rows[:3] + ["# a note"] + rows[3:]) + "\n")
        assert data.n == 6
        assert data.values[:, 3].tolist() == [i + 0.5 for i in range(6)]

    def test_ragged_row_after_a_comment_keeps_its_line_number(self, tmp_path):
        text = "# header comment\n1,2,3,4\n# note\n\n1,2,3 # short row\n"
        with pytest.raises(ParseError, match=r"data\.csv:5: row has 3 fields, expected 4"):
            self.load(tmp_path, text)

    def test_quoted_field_over_two_lines_keeps_later_line_numbers(self, tmp_path):
        # the header's second field spans lines 1-2, so the short row is on line 7
        rows = [f"{i},2,3,{i}.5" for i in range(4)]
        text = 'a,"b\nc",d,e\n' + "\n".join(rows) + "\n13,14,15\n"
        with pytest.raises(ParseError, match=r"data\.csv:7: row has 3 fields, expected 4"):
            self.load(tmp_path, text)
        data = self.load(tmp_path, 'a,"b\nc",d,e\n' + "\n".join(rows) + "\n13,14,15,16\n")
        assert data.n == 5 and data.values[4].tolist() == [13.0, 14.0, 15.0, 16.0]

    def test_data_matrix_rejection_names_the_path(self, tmp_path):
        # a well-formed file of 3 columns parses, and DataMatrix rejects it
        path = tmp_path / "narrow.csv"
        path.write_text("\n".join("1,2,3" for _ in range(6)) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_data_csv(path)
        assert str(info.value).startswith(f"{path}: ")
        assert "need at least 4 columns, got 3" in str(info.value)

    def test_non_finite_value_names_its_line(self, tmp_path):
        rows = ["1,2,3,4"] * 6
        rows[2], rows[4] = "1,2,nan,4", "inf,2,3,4"
        with pytest.raises(ParseError, match=r"data\.csv:4: non-finite numeric field: 'nan'$"):
            self.load(tmp_path, "a,b,c,d\n" + "\n".join(rows) + "\n")

    def test_non_finite_value_before_a_ragged_row_is_the_first_fault(self, tmp_path):
        # faults are reported in file order, a non-finite value among them
        text = "1,2,3,4\n1,2,3,1e999\n1,2,3\n"
        with pytest.raises(ParseError, match=r"data\.csv:2: non-finite numeric field: '1e999'$"):
            self.load(tmp_path, text)

    def test_non_finite_value_in_a_quoted_file_names_its_line(self, tmp_path):
        text = 'a,"b\nc",d,e\n' + "1,2,3,4\n" * 3 + '1,"-inf",3,4\n' + "1,2,3,4\n" * 2
        with pytest.raises(ParseError, match=r"data\.csv:6: non-finite numeric field: '-inf'$"):
            self.load(tmp_path, text)

    @pytest.mark.parametrize("token", ["1_0", "\u0661\u0662", "\uff13.5"])
    def test_python_float_tokens_numpy_refuses_still_parse(self, tmp_path, token):
        rows = [f"{i},2,3,{i}.5" for i in range(6)]
        rows[3] = f"{token},2,3,3.5"
        data = self.load(tmp_path, "\n".join(rows) + "\n")
        assert data.values[3, 0] == float(token)
        assert data.values[[0, 5], 3].tolist() == [0.5, 5.5]


def _reference_load_data_csv(path) -> DataMatrix:
    """The record-by-record reader that ``load_data_csv`` replaced, kept
    verbatim as the reference for its values and its fault messages."""
    path = str(path)
    rows: list[list[float]] = []
    width = None
    lines = list(content_lines(read_input(path)))
    reader = csv.reader(line for _, line in lines)
    consumed = 0
    for row in reader:
        # A quoted field may span lines: the record starts at the first
        # content line the reader had not consumed before it.
        lineno = lines[consumed][0]
        consumed = reader.line_num
        row = [tok.strip() for tok in row]
        if not any(row):
            continue
        first = width is None
        if first:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"row has {len(row)} fields, expected {width}", path, lineno)
        try:
            rows.append([float(tok) for tok in row])
        except ValueError as exc:
            if not first:
                raise ParseError(f"bad numeric field: {exc}", path, lineno) from None
    if not rows:
        raise ParseError("no data rows found", path)
    try:
        return DataMatrix(values=np.array(rows))
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["1e5", ".5", "-0", "+3.", "1E-3", "-0.0", "1e-400", "007"]),
)
_ODD = st.sampled_from([
    "nan", "-inf", "Infinity", "+NaN", "1e999", "1_0", "\u0661\u0662", "\u00a02", "0x10",
    "x", "", "a b", "1 2", '"1.5"', '"a,b"', '"2\n3"', '" 4 "', '"x"',
])
_BLANK = st.sampled_from(["", "   ", ",", ",,,", " , ,", "# a note", "\t# a note, with a comma"])
_PAD = st.sampled_from(["", "", " ", "\t", "  "])


@st.composite
def _csv_files(draw):
    """The text of a CSV file that mixes the input format's features."""
    width = draw(st.integers(3, 5))
    odd_percent = draw(st.sampled_from([0, 0, 0, 2, 10, 40]))
    lines = [draw(_BLANK) for _ in range(draw(st.integers(0, 2)))]
    header = draw(st.sampled_from([None, "names", "one name"]))
    if header is not None:
        names = [f"x{j}" for j in range(width)]
        if header == "one name":
            names = ["1.5"] * (width - 1) + [" y "]
        lines.append(",".join(names))
    for _ in range(draw(st.integers(0, 12))):
        n_fields = width if draw(st.integers(0, 39)) else draw(st.integers(1, 7))
        fields = [
            draw(_PAD) + draw(_ODD if draw(st.integers(0, 99)) < odd_percent else _NUMBER)
            + draw(_PAD)
            for _ in range(n_fields)
        ]
        line = ",".join(fields)
        if not draw(st.integers(0, 9)):
            line += draw(st.sampled_from([" # a note, with a comma", "#"]))
        lines.append(line)
        if not draw(st.integers(0, 7)):
            lines.append(draw(_BLANK))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n", "\n,,\n"]))


def _outcome(load, path):
    try:
        return load(path).values
    except ParseError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_csv_files(), bom=st.booleans())
def test_load_data_csv_matches_the_record_reader(tmp_path_factory, text, bom):
    path = tmp_path_factory.getbasetemp() / "hypothesis.csv"
    path.write_text(text, encoding="utf-8-sig" if bom else "utf-8")
    want = _outcome(_reference_load_data_csv, path)
    got = _outcome(load_data_csv, path)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), got
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        event("a data matrix")
        return
    if got == want:
        assert not got.endswith(": data contains non-finite entries")
        event("the same fault")
        return
    event("a non-finite value named first")
    # the one declared change: a non-finite value is a fault of its line,
    # reported before any fault the reference found later in the file or
    # without a line (its own non-finite message among them)
    loc = re.escape(str(path))
    blamed = re.fullmatch(rf"{loc}:(\d+): non-finite numeric field: (.*)", got)
    assert blamed, (got, want)
    assert not math.isfinite(float(ast.literal_eval(blamed[2])))
    ref_line = re.match(rf"{loc}:(\d+): ", want)
    assert ref_line is None or int(ref_line[1]) > int(blamed[1]), (got, want)


def test_all_tetrads_enumeration():
    idx = list(all_tetrads(4))
    assert len(idx) == 3  # one 4-subset, three pairings
    assert len(list(all_tetrads(5))) == 15
    # pairings of {0,1,2,3}: (01|23), (02|13), (03|12)
    assert {(t.i, t.j, t.k, t.l) for t in idx} == {
        (0, 1, 2, 3),
        (0, 2, 1, 3),
        (0, 3, 1, 2),
    }
