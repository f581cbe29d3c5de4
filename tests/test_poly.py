import math
import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import peak_bytes
from hypothesis import example, given, settings, strategies as st

from singwald.errors import ParseError
from singwald.poly import (
    _BLOCK,
    HomogeneousPolynomial,
    MonomialForm,
    QuadraticForm,
    _row_quadratic,
    load_polynomial,
    parse_polynomial,
)


def format_polynomial(f: HomogeneousPolynomial) -> str:
    """Serialize to the text format that :func:`parse_polynomial` reads."""
    lines = [f"# {f}"]
    for coeff, exps in f.terms:
        lines.append(format(coeff, ".17g") + " " + " ".join(str(e) for e in exps))
    return "\n".join(lines) + "\n"


class TestEvaluate:
    def test_tetrad_at_1234(self, tetrad_form):
        assert tetrad_form.evaluate([1.0, 2.0, 3.0, 4.0]) == -2.0

    def test_zero_factor(self):
        f = HomogeneousPolynomial.from_terms([(1.0, (1, 1))])
        assert f.evaluate([0.0, 5.0]) == 0.0

    def test_sum_of_squares(self):
        f = HomogeneousPolynomial.from_terms([(1.0, (2, 0)), (1.0, (0, 2))])
        assert f.evaluate([3.0, 4.0]) == 25.0

    def test_batch_rows(self, tetrad_form):
        pts = np.array([[1.0, 2, 3, 4], [1, 0, 0, 1], [0, 0, 0, 0]])
        np.testing.assert_allclose(tetrad_form.evaluate(pts), [-2.0, 1.0, 0.0])

    def test_dimension_mismatch(self, tetrad_form):
        with pytest.raises(ValueError, match="dimension"):
            tetrad_form.evaluate([1.0, 2.0])


class TestGradient:
    def test_product_rule(self):
        f = HomogeneousPolynomial.from_terms([(1.0, (1, 1))])
        np.testing.assert_allclose(f.gradient([2.0, 7.0]), [7.0, 2.0])

    def test_tetrad_gradient_pattern(self, tetrad_form):
        # variables ordered as the four cross covariances (13, 14, 23, 24)
        t13, t14, t23, t24 = 0.3, -1.2, 0.8, 2.0
        np.testing.assert_allclose(
            tetrad_form.gradient([t13, t14, t23, t24]), [t24, -t23, -t14, t13]
        )

    def test_power_rule(self):
        f = HomogeneousPolynomial.from_terms([(1.0, (2, 0)), (1.0, (0, 2))])
        np.testing.assert_allclose(f.gradient([1.0, 1.0]), [2.0, 2.0])

    def test_dimension_mismatch(self, tetrad_form):
        with pytest.raises(ValueError, match="dimension"):
            tetrad_form.gradient([1.0])


class TestScale:
    def test_triple(self):
        f = HomogeneousPolynomial.from_terms([(1.0, (1, 1))]).scale(3.0)
        assert f.terms == ((3.0, (1, 1)),)

    def test_negate_swaps_terms(self):
        f = HomogeneousPolynomial.from_terms([(1.0, (2, 0)), (-1.0, (0, 2))])
        g = f.scale(-1.0)
        assert g.evaluate([2.0, 1.0]) == -f.evaluate([2.0, 1.0]) == -3.0

    def test_linearity_at_point(self, tetrad_form):
        assert tetrad_form.scale(2.0).evaluate([1.0, 2, 3, 4]) == -4.0

    def test_zero_rejected(self, tetrad_form):
        with pytest.raises(ValueError, match="nonzero"):
            tetrad_form.scale(0.0)


class TestComposeLinear:
    def test_hyperbolic_rotation(self):
        f = HomogeneousPolynomial.from_terms([(1.0, (1, 1))])
        g = f.compose_linear([[1.0, 1.0], [1.0, -1.0]])
        assert g.terms == ((1.0, (2, 0)), (-1.0, (0, 2)))

    def test_identity(self):
        f = HomogeneousPolynomial.from_terms([(1.0, (2, 0))])
        assert f.compose_linear(np.eye(2)).terms == f.terms

    def test_diagonal_scaling(self):
        f = HomogeneousPolynomial.from_terms([(1.0, (1, 1))])
        g = f.compose_linear([[2.0, 0.0], [0.0, 3.0]])
        assert g.terms == ((6.0, (1, 1)),)

    def test_singular_rejected(self, tetrad_form):
        with pytest.raises(ValueError, match="singular"):
            tetrad_form.compose_linear(np.ones((4, 4)))

    def test_wrong_shape_rejected(self, tetrad_form):
        with pytest.raises(ValueError, match=r"matrix must be 4x4, got \(3, 3\)"):
            tetrad_form.compose_linear(np.eye(3))

    def test_composition_matches_pointwise(self):
        # f(Bx) evaluated two ways at many points, and the chain rule
        # grad (f o B)(x) = B^T grad f(Bx), both at relative tolerance 1e-10.
        rng = np.random.default_rng(42)
        f = HomogeneousPolynomial.from_terms(
            [(1.5, (3, 0, 0)), (-2.0, (1, 1, 1)), (0.25, (0, 2, 1))]
        )
        b = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
        g = f.compose_linear(b)
        x = rng.standard_normal((150, 3))
        direct = f.evaluate(x @ b.T)
        np.testing.assert_allclose(g.evaluate(x), direct, rtol=1e-10, atol=1e-12)
        expected_grad = f.gradient(x @ b.T) @ b
        np.testing.assert_allclose(g.gradient(x), expected_grad, rtol=1e-10, atol=1e-10)


class TestQuadraticForm:
    def test_tetrad_matrix_is_half_kronecker(self, tetrad_form):
        # x1*x4 - x2*x3 corresponds to half the +-1 Kronecker pattern, since
        # off-diagonal coefficients split across the symmetric pair.
        a = tetrad_form.to_quadratic_form()
        m = np.kron([[0.0, 1.0], [-1.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(a.a, 0.5 * m)

    def test_cross_term_split(self):
        f = HomogeneousPolynomial.from_terms(
            [(1.0, (2, 0)), (2.0, (1, 1)), (1.0, (0, 2))]
        )
        np.testing.assert_array_equal(
            f.to_quadratic_form().a, [[1.0, 1.0], [1.0, 1.0]]
        )

    def test_diagonal_signs(self):
        f = HomogeneousPolynomial.from_terms([(1.0, (2, 0)), (-1.0, (0, 2))])
        np.testing.assert_array_equal(f.to_quadratic_form().a, np.diag([1.0, -1.0]))

    def test_round_trip_exact(self):
        f = HomogeneousPolynomial.from_terms(
            [(0.7, (2, 0, 0)), (-1.25, (1, 1, 0)), (3.0, (0, 1, 1)), (2.0, (0, 0, 2))]
        )
        assert f.to_quadratic_form().to_polynomial().terms == f.terms

    def test_degree_guard(self):
        with pytest.raises(ValueError, match="degree"):
            HomogeneousPolynomial.from_terms([(1.0, (3, 0))]).to_quadratic_form()

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticForm(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            QuadraticForm(np.zeros((2, 2)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="must be square"):
            QuadraticForm(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            QuadraticForm(np.array([[1.0, 0.0], [0.0, bad]]))

    def test_form_value_matches_polynomial(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2
        form = QuadraticForm(a)
        f = form.to_polynomial()
        for _ in range(20):
            x = rng.standard_normal(4)
            assert abs(f.evaluate(x) - x @ a @ x) < 1e-12 * (1 + abs(x @ a @ x))


# Both entry points canonicalize and validate the same way.
ENTRY_POINTS = (
    HomogeneousPolynomial.from_terms,
    lambda terms: HomogeneousPolynomial(terms=tuple(terms)),
)


class TestConstruction:
    def test_merging_duplicates(self):
        for make in ENTRY_POINTS:
            f = make([(1.0, (1, 1)), (2.0, (1, 1))])
            assert f.terms == ((3.0, (1, 1)),)
            assert (f.k, f.d) == (2, 2)

    def test_cancellation_to_zero_rejected(self):
        for make in ENTRY_POINTS:
            with pytest.raises(ValueError, match="zero polynomial"):
                make([(1.0, (1, 1)), (-1.0, (1, 1))])

    def test_inhomogeneous_rejected(self):
        for make in ENTRY_POINTS:
            with pytest.raises(ValueError, match="homogeneous"):
                make([(1.0, (1, 0)), (1.0, (1, 1))])

    def test_constant_rejected(self):
        for make in ENTRY_POINTS:
            with pytest.raises(ValueError, match="degree"):
                make([(1.0, (0, 0))])

    def test_mixed_exponent_counts_rejected(self):
        for make in ENTRY_POINTS:
            with pytest.raises(ValueError, match="exponents, expected"):
                make([(1.0, (1, 1)), (1.0, (2, 0, 0))])

    def test_negative_exponent_rejected(self):
        for make in ENTRY_POINTS:
            with pytest.raises(ValueError, match="negative exponent"):
                make([(1.0, (3, -1))])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        for make in ENTRY_POINTS:
            with pytest.raises(ValueError, match=f"^coefficient {bad} is not finite$"):
                make([(1.0, (1, 1)), (bad, (2, 0))])


# Term lists the parser reads as text and the constructor takes as given.
_AGREEMENT_CASES = {
    "tetrad": [(1.0, (1, 0, 0, 1)), (-1.0, (0, 1, 1, 0))],
    "merged": [(1.0, (1, 1)), (2.0, (1, 1))],
    "zero-first-term": [(0.0, (1, 1)), (2.0, (0, 2))],
    "cancels-to-zero": [(1.0, (1, 1)), (-1.0, (1, 1))],
    "constant": [(1.0, (0, 0))],
    "inhomogeneous": [(1.0, (1, 0)), (1.0, (1, 1))],
    "mixed-counts": [(1.0, (1, 1)), (1.0, (2, 0, 0))],
    "negative-exponent": [(1.0, (3, -1))],
    "zero-term-of-wrong-length": [(1.0, (2, 0)), (0.0, (1, 1, 1))],
    "zero-term-of-wrong-degree": [(1.0, (2, 0)), (0.0, (1, 0))],
    "zero-term-with-negative-exponent": [(1.0, (2, 0)), (0.0, (3, -1))],
    "inhomogeneous-terms-that-cancel": [(1.0, (2, 0)), (1.0, (1, 0)), (-1.0, (1, 0))],
    "nan-coefficient": [(math.nan, (1, 1))],
    "inf-coefficient": [(1.0, (2, 0)), (math.inf, (1, 1))],
}


def _outcome(make):
    """The terms ``make()`` builds, or its error message without the
    ``path:line`` prefix of a parse error."""
    try:
        return make().terms
    except ValueError as exc:
        return re.sub(r"^t\.poly(:\d+)?: ", "", str(exc))


@pytest.mark.parametrize("terms", _AGREEMENT_CASES.values(), ids=_AGREEMENT_CASES.keys())
def test_parser_and_constructor_agree(terms):
    # one term rule: both accept with equal terms, or both give one message
    text = "".join(f"{c!r} {' '.join(map(str, e))}\n" for c, e in terms)
    parsed = _outcome(lambda: parse_polynomial(text, "t.poly"))
    assert parsed == _outcome(lambda: HomogeneousPolynomial.from_terms(terms))


# Random homogeneous polynomials for the property checks.
@st.composite
def polynomials(draw, max_k=4, max_d=4, max_terms=4):
    k = draw(st.integers(min_value=1, max_value=max_k))
    d = draw(st.integers(min_value=1, max_value=max_d))
    n_terms = draw(st.integers(min_value=1, max_value=max_terms))
    terms = []
    for _ in range(n_terms):
        # split degree d over k slots
        exps = [0] * k
        for _ in range(d):
            exps[draw(st.integers(min_value=0, max_value=k - 1))] += 1
        coeff = draw(
            st.floats(
                min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
            ).filter(lambda c: abs(c) > 1e-3)
        )
        terms.append((coeff, tuple(exps)))
    try:
        return HomogeneousPolynomial.from_terms(terms)
    except ValueError:
        # cancellation produced the zero polynomial
        return HomogeneousPolynomial.from_terms([(1.0, tuple([d] + [0] * (k - 1)))])


def loop_evaluate(f, pts):
    """Reference: the value term by term, one numpy pass per factor."""
    out = np.zeros(pts.shape[0])
    for coeff, exps in f.terms:
        term = np.full(pts.shape[0], coeff)
        for j, e in enumerate(exps):
            if e == 1:
                term = term * pts[:, j]
            elif e > 1:
                term = term * pts[:, j] ** e
        out += term
    return out


def loop_gradient(f, pts):
    """Reference: each partial derivative term by term."""
    n = pts.shape[0]
    grad = np.zeros((n, f.k))
    for coeff, exps in f.terms:
        for j, e in enumerate(exps):
            if e == 0:
                continue
            part = np.full(n, coeff * e)
            for l, el in enumerate(exps):
                p = el - 1 if l == j else el
                if p == 1:
                    part = part * pts[:, l]
                elif p > 1:
                    part = part * pts[:, l] ** p
            grad[:, j] += part
    return grad


@given(
    polynomials(max_k=6, max_d=6, max_terms=8),
    st.sampled_from([None, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(  # x1 and x3 absent from every term
    HomogeneousPolynomial.from_terms([(2.0, (0, 3, 0, 1)), (-0.5, (0, 1, 0, 3))]),
    _BLOCK + 1,
    7,
)
@example(HomogeneousPolynomial.from_terms([(1.5, (1, 0)), (-2.0, (0, 1))]), None, 8)
@settings(max_examples=40, deadline=None)
def test_compiled_kernel_matches_term_loops(f, n, point_seed):
    # n = None is a single point; the other sizes straddle block edges.
    # Tolerance 1e-13 * sum_t |c_t m_t(x)|, the reference run on |c| and |x|.
    rng = np.random.default_rng(point_seed)
    x = rng.standard_normal(f.k if n is None else (n, f.k))
    pts = np.atleast_2d(x)
    size = HomogeneousPolynomial(terms=tuple((abs(c), e) for c, e in f.terms))
    value, grad = f.evaluate(x), f.gradient(x)
    if n is None:
        assert isinstance(value, float) and grad.shape == (f.k,)
    else:
        assert value.shape == (n,) and grad.shape == (n, f.k)
    value, grad = np.atleast_1d(value), np.atleast_2d(grad)
    assert np.all(
        np.abs(value - loop_evaluate(f, pts))
        <= 1e-13 * loop_evaluate(size, np.abs(pts))
    )
    assert np.all(
        np.abs(grad - loop_gradient(f, pts))
        <= 1e-13 * loop_gradient(size, np.abs(pts))
    )


def test_kernel_memory_is_blocked(quartic):
    # An unblocked kernel holds a (35, 2^18) monomial buffer, about 73 MB.
    x = np.random.default_rng(5).standard_normal((1 << 18, 4))
    (value, grad), peak = peak_bytes(lambda: (quartic.evaluate(x), quartic.gradient(x)))
    assert value.shape == (1 << 18,) and grad.shape == (1 << 18, 4)
    assert peak < 32 * 2**20, peak / 2**20


def _exact_value(f, row) -> Fraction:
    """f at the float row x in exact arithmetic, from the float coefficients."""
    x = [Fraction(v) for v in row]
    return sum(Fraction(c) * math.prod(x[j] ** e for j, e in enumerate(exps) if e)
               for c, exps in f.terms)


_OCTIC_AND_LINEAR = {
    "octic": HomogeneousPolynomial.from_terms([(1.0, (5, 3)), (-2.0, (2, 6)), (0.7, (8, 0))]),
    "linear": HomogeneousPolynomial.from_terms(
        [(1.5, (1, 0, 0)), (-2.25, (0, 1, 0)), (0.3, (0, 0, 1))]),
}


@pytest.mark.parametrize("name", ["quartic", "tetrad_form", "octic", "linear"])
def test_evaluate_is_within_the_euler_bound_of_exact_arithmetic(name, request):
    # f = x . grad f / d sums R gradient monomials, k products and one
    # division, so |f^ - f| <= (R + d + k + 2) u sum_t |c_t m_t(x)|, u = 2^-53,
    # at 150 random rows and at the 150 rows of a 2^16-row draw where f
    # cancels most against that sum.
    f = _OCTIC_AND_LINEAR.get(name) or request.getfixturevalue(name)
    size = HomogeneousPolynomial(terms=tuple((abs(c), e) for c, e in f.terms))
    rng = np.random.default_rng([31, 3])
    draw = rng.standard_normal((1 << 16, f.k))
    cancel = np.abs(loop_evaluate(f, draw)) / loop_evaluate(size, np.abs(draw))
    x = np.concatenate([rng.standard_normal((150, f.k)), draw[np.argsort(cancel)[:150]]])
    r = len({e[:j] + (e[j] - 1,) + e[j + 1:] for _, e in f.terms for j in range(f.k) if e[j]})
    bound = (r + f.d + f.k + 2) * 2.0**-53 * loop_evaluate(size, np.abs(x))
    value = f.evaluate(x)
    error = np.array([abs(Fraction(v) - _exact_value(f, row)) for v, row in zip(value, x)])
    assert np.all(error <= bound), float(np.max(error / bound))


@given(polynomials(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_scale_commutes_with_eval_and_gradient(f, point_seed):
    rng = np.random.default_rng(point_seed)
    x = rng.standard_normal(f.k)
    c = 3.7
    g = f.scale(c)
    assert g.evaluate(x) == pytest.approx(c * f.evaluate(x), rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(
        g.gradient(x), c * f.gradient(x), rtol=1e-12, atol=1e-12
    )


@given(polynomials(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_euler_identity(f, point_seed):
    # <grad f(x), x> = d * f(x) for a homogeneous degree-d polynomial, with
    # f from the term loop: evaluate() is itself this row dot over d
    rng = np.random.default_rng(point_seed)
    x = rng.standard_normal((100, f.k))
    lhs = np.einsum("ij,ij->i", f.gradient(x), x)
    rhs = f.d * loop_evaluate(f, x)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-9)


class TestMonomialForm:
    def test_requires_positive_exponents(self):
        with pytest.raises(ValueError, match="positive"):
            MonomialForm((1.0, 0.0))
        with pytest.raises(ValueError):
            MonomialForm(())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_exponent_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MonomialForm((1.0, bad))

    def test_degree(self):
        assert MonomialForm((0.5, 1.5, 2.0)).degree == 4.0

    def test_reciprocal_matches_polynomial_ratio(self):
        # for integer exponents the reciprocal identity must agree with the
        # direct ratio grad^T Sigma grad / f^2
        m = MonomialForm((1.0, 2.0))
        f = HomogeneousPolynomial.from_terms([(1.0, (1, 2))])
        sigma = np.array([[1.0, 0.4], [0.4, 2.0]])
        rng = np.random.default_rng(8)
        x = rng.standard_normal((200, 2))
        vals = f.evaluate(x)
        grads = f.gradient(x)
        direct = np.einsum("ij,jk,ik->i", grads, sigma, grads) / vals**2
        np.testing.assert_allclose(m.reciprocal_wald(x, sigma), direct, rtol=1e-9)


def _spread_rows(rng, n, k, layout):
    """(n, k) normals scaled over 1e-100 .. 1e100, in memory ``layout``."""
    shape = (2 * n, 2 * k) if layout == "strided" else (n, k)
    g = rng.standard_normal(shape) * 10.0 ** rng.uniform(-100, 100, shape)
    if layout == "strided":
        return g[::2, ::2]
    return np.asfortranarray(g) if layout == "F" else g


def _random_covariance(rng, k):
    a = rng.standard_normal((k, k))
    return a @ a.T + 0.1 * np.eye(k)


class TestRowQuadratic:
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n", [3, 4, 5, 17, 4095, 4097, 2**14 + 3, 100_000])
    def test_equals_einsum_bit_for_bit(self, n, layout):
        rng = np.random.default_rng([n, len(layout)])
        for k in range(1, 7):
            g = _spread_rows(rng, n, k, layout)
            sigma = _random_covariance(rng, k)
            assert np.array_equal(
                _row_quadratic(g, sigma), np.einsum("ij,jk,ik->i", g, sigma, g)
            ), k

    @pytest.mark.parametrize("n", [1, 2])
    def test_few_rows_sum_in_the_stated_order(self, n):
        # At k = 2 and n <= 2 einsum sums in another order, so the
        # reference is the stated one: (g_j * s_jm) * g_m, j outer, m inner.
        rng = np.random.default_rng(n)
        for k in range(1, 7):
            for _ in range(50):
                g = _spread_rows(rng, n, k, "C")
                sigma = _random_covariance(rng, k)
                want = np.zeros(n)
                for i in range(n):
                    for j in range(k):
                        for m in range(k):
                            want[i] += g[i, j] * sigma[j, m] * g[i, m]
                assert np.array_equal(_row_quadratic(g, sigma), want)

    @pytest.mark.parametrize("n", [3, 4097, 100_000])
    def test_reciprocal_form_equals_einsum_of_the_quotients(self, n):
        rng = np.random.default_rng(n)
        for k in range(1, 7):
            a = rng.uniform(0.1, 3.0, k)
            x = _spread_rows(rng, n, k, "C")
            sigma = _random_covariance(rng, k)
            v = a / x
            assert np.array_equal(
                MonomialForm(tuple(a)).reciprocal_wald(x, sigma),
                np.einsum("ij,jk,ik->i", v, sigma, v),
            ), k


class TestTextFormat:
    def test_parse_with_comments(self, tetrad_form):
        f = parse_polynomial("# tetrad\n1 1 0 0 1\n-1 0 1 1 0  # second term\n")
        assert f.terms == tetrad_form.terms

    def test_dimension_inferred(self):
        f = parse_polynomial("2.5 3 0\n")
        assert f.k == 2 and f.d == 3

    def test_round_trip(self):
            f = HomogeneousPolynomial.from_terms(
                [(1.5, (2, 1, 0)), (-0.25, (0, 1, 2))]
            )
            assert parse_polynomial(format_polynomial(f)).terms == f.terms

    def test_homogeneity_error_has_line(self):
        with pytest.raises(ParseError, match=r"<input>:3"):
            parse_polynomial("# c\n1 2 0\n1 1 0\n")

    def test_bad_coefficient_line(self):
        with pytest.raises(ParseError, match=r"<input>:1.*coefficient"):
            parse_polynomial("x 1 1\n")

    def test_bad_exponent(self):
        with pytest.raises(ParseError, match="exponent"):
            parse_polynomial("1 1 1.5\n")

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match=r"<input>:2"):
            parse_polynomial("1 1 1\n1 2 0 0\n")

    def test_empty_rejected(self):
        with pytest.raises(ParseError, match="no terms"):
            parse_polynomial("# nothing here\n")

    @pytest.mark.parametrize("text, message", [
        ("1 -1 3\n", r"^x\.poly:1: negative exponent -1$"),
        # a constant term: the error from the polynomial comes back naming the path
        ("1 0 0\n", r"^x\.poly: degree must be at least 1$"),
    ])
    def test_bad_term_names_the_path(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_polynomial(text, "x.poly")

    @pytest.mark.parametrize("text, message", [
        ("nan 1 1\n", r"^c\.poly:1: coefficient nan is not finite$"),
        ("1 2 0\ninf 1 1\n", r"^c\.poly:2: coefficient inf is not finite$"),
        ("# overflows\n1e400 1 1\n", r"^c\.poly:2: coefficient inf is not finite$"),
    ], ids=["nan", "inf", "overflow"])
    def test_non_finite_coefficient_names_its_line(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_polynomial(text, "c.poly")

    def test_file_with_byte_order_mark(self, tmp_path, tetrad_form):
        path = tmp_path / "bom.poly"
        path.write_text("1 1 0 0 1\n-1 0 1 1 0\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_polynomial(path).terms == tetrad_form.terms
