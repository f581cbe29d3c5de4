import numpy as np
import pytest

from singwald.errors import ParseError
from singwald.gaussian import (
    _normal_rows,
    eigenvalues_of_product,
    factor,
    load_matrix,
    make_generator,
    parse_matrix,
    validate_covariance,
)
from singwald.poly import QuadraticForm


def mvn_draws(sigma, n, seed, stream=0):
    """The chunk-wise N(0, sigma) rows of ``_normal_rows``, stacked into one
    (n, k) array."""
    b = factor(validate_covariance(sigma))
    return np.concatenate(list(_normal_rows(make_generator(seed, stream), b, n)))


class TestValidateCovariance:
    def test_identity(self):
        cov = validate_covariance(np.eye(4))
        assert cov.rank == cov.k == 4

    def test_singular_but_valid(self):
        cov = validate_covariance([[1.0, 1.0], [1.0, 1.0]])
        assert cov.rank == 1

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            validate_covariance([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            validate_covariance([[1.0, 0.5], [0.2, 1.0]])

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            validate_covariance(np.diag([1.0, 0.0]))

    def test_tiny_asymmetry_symmetrized(self):
        m = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
        cov = validate_covariance(m)
        np.testing.assert_array_equal(cov.sigma, cov.sigma.T)

    def test_not_square(self):
        with pytest.raises(ValueError, match="^covariance must be square, got shape"):
            validate_covariance(np.ones((2, 3)))

    @pytest.mark.parametrize("k", [-20, 0, 10])
    @pytest.mark.parametrize("m, symmetric", [
        ([[1.0, 0.5], [0.9, 1.0]], False),
        ([[1.0, 0.5], [0.5 + 1e-15, 1.0]], True),
    ], ids=["gross", "1e-15"])
    def test_symmetry_verdict_is_the_forms_at_every_scale(self, m, symmetric, k):
        # Sigma and A share one rule, relative to the largest entry
        m = 4.0**k * np.array(m)
        if symmetric:
            sigma, a = validate_covariance(m).sigma, QuadraticForm(m).a
            assert sigma.tobytes() == a.tobytes() == ((m + m.T) / 2.0).tobytes()
            assert not sigma.flags.writeable and not a.flags.writeable
        else:
            for check in (validate_covariance, QuadraticForm):
                with pytest.raises(ValueError, match=r"^matrix is asymmetric: max \|m - m\^T\| = "):
                    check(m)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            validate_covariance([[1.0, np.nan], [np.nan, 1.0]])

    def test_rank_is_the_factor_column_count(self):
        # a fourth eigenvalue at the rank threshold: one eigendecomposition
        # decides both the rank and the factor's columns
        rng = np.random.default_rng(0)
        for _ in range(2000):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            tiny = 1e-10 * (1.0 + rng.uniform(-1e-6, 1e-6))
            cov = validate_covariance(q @ np.diag([1.0, 0.5, 0.3, tiny]) @ q.T)
            assert cov.rank == factor(cov).shape[1]
            assert factor(cov) is factor(cov)


class TestFactor:
    def test_diagonal(self):
        b = factor(validate_covariance(np.diag([4.0, 9.0])))
        np.testing.assert_allclose(b @ b.T, np.diag([4.0, 9.0]))

    def test_correlated_reconstruction(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        b = factor(validate_covariance(sigma))
        assert np.abs(b @ b.T - sigma).max() < 1e-12

    def test_rank_one_gives_single_column(self):
        b = factor(validate_covariance([[1.0, 1.0], [1.0, 1.0]]))
        assert b.shape == (2, 1)
        assert not b.flags.writeable
        np.testing.assert_allclose(np.abs(b[:, 0]), [1.0, 1.0])


class TestSampling:
    def test_moments_identity(self):
        x = mvn_draws(np.eye(2), 10**6, 7)
        assert np.abs(x.mean(axis=0)).max() < 0.005
        assert np.abs(x.var(axis=0) - 1.0).max() < 0.01

    def test_correlation(self):
        x = mvn_draws(np.array([[1.0, 0.9], [0.9, 1.0]]), 10**6, 8)
        assert abs(np.corrcoef(x.T)[0, 1] - 0.9) < 0.005

    def test_bitwise_determinism(self):
        a = mvn_draws(np.eye(3), 5000, 123)
        b = mvn_draws(np.eye(3), 5000, 123)
        assert a.tobytes() == b.tobytes()

    def test_disjoint_seeds_uncorrelated(self):
        n = 200_000
        a = mvn_draws(np.eye(1), n, 1)[:, 0]
        b = mvn_draws(np.eye(1), n, 2)[:, 0]
        assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / np.sqrt(n)

    def test_stream_index_changes_draws(self):
        a = mvn_draws(np.eye(1), 100, 5, stream=0)
        assert not np.array_equal(a, mvn_draws(np.eye(1), 100, 5, stream=1))

    def test_rank_deficient_stays_on_support(self):
        x = mvn_draws(np.array([[1.0, 1.0], [1.0, 1.0]]), 1000, 3)
        np.testing.assert_allclose(x[:, 0], x[:, 1], rtol=1e-12)

    def test_make_generator_matches_philox_key(self):
        g = make_generator(42, 0)
        ref = np.random.Generator(np.random.Philox(key=[42, 0]))
        assert np.array_equal(g.standard_normal(16), ref.standard_normal(16))

    @pytest.mark.filterwarnings("error")
    def test_every_seed_mod_two_to_the_64_keys_its_own_stream(self):
        # a key word of 2^63 or more must not pass through float64, which
        # would round -1, -7 and 0 to one key and 2^63 + 1 onto 2^63
        seeds = [0, -1, -7, 2**63, 2**63 + 1, 2**64 - 1]
        firsts = {}
        for seed in seeds:
            g = make_generator(seed, stream=3)
            key = g.bit_generator.state["state"]["key"]
            assert [int(word) for word in key] == [seed % 2**64, 3]
            firsts.setdefault(seed % 2**64, set()).add(g.standard_normal())
        # -1 and 2^64 - 1 are one key; the five distinct keys draw apart
        assert [len(draws) for draws in firsts.values()] == [1] * 5
        assert len(set.union(*firsts.values())) == 5


class TestEigenvaluesOfProduct:
    def test_two_by_two_hand_value(self):
        # A = diag(1,-1), Sigma = [[1,.5],[.5,1]]: char. poly gives
        # lambda^2 = 1 - 0.25 = 0.75
        a = QuadraticForm(np.diag([1.0, -1.0]))
        cov = validate_covariance([[1.0, 0.5], [0.5, 1.0]])
        root = np.sqrt(0.75)
        np.testing.assert_allclose(
            eigenvalues_of_product(a, cov), [root, -root], atol=1e-12
        )

    def test_tetrad_kronecker_spectrum(self):
        m = np.kron([[0.0, 1.0], [-1.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]])
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        cov = validate_covariance(np.kron(s, s))
        lams = eigenvalues_of_product(QuadraticForm(m), cov)
        np.testing.assert_allclose(lams, [0.75, 0.75, -0.75, -0.75], atol=1e-10)

    def test_identity_case(self):
        a = QuadraticForm(np.eye(3))
        lams = eigenvalues_of_product(a, validate_covariance(np.eye(3)))
        np.testing.assert_allclose(lams, np.ones(3))

    def test_similarity_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2
        sigma = rng.standard_normal((4, 4))
        sigma = sigma @ sigma.T + 0.5 * np.eye(4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        base = eigenvalues_of_product(QuadraticForm(a), validate_covariance(sigma))
        rotated = eigenvalues_of_product(
            QuadraticForm(q @ a @ q.T), validate_covariance(q @ sigma @ q.T)
        )
        np.testing.assert_allclose(base, rotated, atol=1e-8)

    def test_trace_and_det_identities(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3))
        a = (a + a.T) / 2
        sigma = rng.standard_normal((3, 3))
        sigma = sigma @ sigma.T + 0.5 * np.eye(3)
        lams = eigenvalues_of_product(QuadraticForm(a), validate_covariance(sigma))
        prod = a @ sigma
        assert abs(lams.sum() - np.trace(prod)) < 1e-8 * max(1, abs(np.trace(prod)))
        assert abs(np.prod(lams) - np.linalg.det(prod)) < 1e-6 * max(
            1, abs(np.linalg.det(prod))
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            eigenvalues_of_product(
                QuadraticForm(np.eye(2)), validate_covariance(np.eye(3))
            )

    def test_rank_deficient_reduces(self):
        a = QuadraticForm(np.array([[0.0, 0.5], [0.5, 0.0]]))
        cov = validate_covariance([[1.0, 1.0], [1.0, 1.0]])
        lams = eigenvalues_of_product(a, cov)
        assert lams.shape == (1,)
        np.testing.assert_allclose(lams, [1.0])


class TestMatrixFormat:
    def test_parse(self):
        m = parse_matrix("2\n# comment\n1 0.5\n0.5 1\n")
        np.testing.assert_array_equal(m, [[1.0, 0.5], [0.5, 1.0]])

    def test_missing_rows(self):
        with pytest.raises(ParseError, match="found 1 rows"):
            parse_matrix("2\n1 0\n")

    def test_bad_first_line(self):
        with pytest.raises(ParseError, match=r"<input>:1"):
            parse_matrix("two\n1 0\n0 1\n")

    def test_bad_row_width(self):
        with pytest.raises(ParseError, match=r"<input>:3"):
            parse_matrix("2\n1 0\n0 1 2\n")

    def test_extra_rows(self):
        with pytest.raises(ParseError, match="more than"):
            parse_matrix("1\n1\n2\n")

    def test_empty(self):
        with pytest.raises(ParseError, match="empty"):
            parse_matrix("# nothing\n")

    @pytest.mark.parametrize("text, message", [
        ("0\n", r"^<input>:1: dimension must be positive, got 0$"),
        ("2\n1 0\na b\n", r"^<input>:3: bad matrix row 'a b'$"),
    ])
    def test_bad_dimension_or_row(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_matrix(text)

    def test_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.mat"
        path.write_text("2\n1 0.5\n0.5 1\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        np.testing.assert_array_equal(load_matrix(path), [[1.0, 0.5], [0.5, 1.0]])


def test_sampler_from_factor_couples_pathwise():
    # explicit factor B' = M @ B reproduces x' = M x draw by draw
    sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    base = factor(validate_covariance(sigma))
    m = np.array([[1.0, 1.0], [0.0, 2.0]])
    coupled = m @ base
    x = make_generator(11).standard_normal((500, 2)) @ base.T
    y = make_generator(11).standard_normal((500, 2)) @ coupled.T
    np.testing.assert_allclose(y, x @ m.T, rtol=1e-12, atol=1e-14)
