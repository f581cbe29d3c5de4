"""Every draw taken in the row chunks of ``gaussian._chunks`` keeps the bytes
of the same draw taken whole.

Each reference below is written from the whole-array expressions the
package used before its draws were streamed: one ``standard_normal`` or
``uniform`` call for all n rows, the arithmetic on the full arrays.  The
sizes sit at the chunk edges: 16383 is one short chunk, 16384 one full
chunk, 16385 a chunk and a row that the tail rule folds into it, and 32769
two chunks and a row.
"""

import numpy as np
import pytest

import singwald.verify as verify
from singwald.classify import sample_canonical
from singwald.gaussian import _chunks, factor, make_generator, validate_covariance
from singwald.laws import FoldedBetaProduct, sample_stable
from singwald.poly import _BLOCK, MonomialForm

SIZES = [100, 16383, 16384, 16385, 32769, 100000]
SIGMA3 = np.array([[1.0, 0.4, -0.2], [0.4, 2.0, 0.3], [-0.2, 0.3, 0.5]])


def mvn_whole(sigma, n: int, seed: int, stream: int = 0) -> np.ndarray:
    b = factor(validate_covariance(sigma))
    return make_generator(seed, stream).standard_normal((n, b.shape[1])) @ b.T


@pytest.fixture
def ks_inputs(monkeypatch):
    """The sorted samples that verify hands to ks_distance, in call order."""
    seen = []
    real = verify.ks_distance

    def spy(emp, law):
        seen.append(emp.values.copy())
        return real(emp, law)

    monkeypatch.setattr(verify, "ks_distance", spy)
    return seen


@pytest.mark.parametrize("n", [0, 1, 100, *range(_BLOCK - 2, _BLOCK + 3), 2 * _BLOCK - 1,
                               2 * _BLOCK, 2 * _BLOCK + 1, 5 * _BLOCK + 7, 10**6])
def test_chunks_tile_the_rows_without_a_short_chunk(n):
    bounds = list(_chunks(n))
    assert [start for start, _ in bounds] == [j * _BLOCK for j in range(len(bounds))]
    assert [stop for _, stop in bounds[:-1]] == [start for start, _ in bounds[1:]]
    assert bounds[-1][1] == n
    sizes = [stop - start for start, stop in bounds]
    assert all(min(_BLOCK, n) <= size < 2 * _BLOCK for size in sizes)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("sigma", [np.eye(1), np.array([[1.0, 0.5], [0.5, 1.0]]), SIGMA3])
def test_mvn_chunks_stack_to_the_whole_draw(sigma, n):
    for stream in (0, 1):
        got = np.concatenate(list(verify._mvn_chunks(sigma, n, 11, stream)))
        assert got.tobytes() == mvn_whole(sigma, n, 11, stream).tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("lams", [[0.7], [1.0, -0.5, 0.25, 2.0], [0.9, -0.3, 0.2, -1.1, 0.6, 0.05]])
def test_sample_canonical(lams, n):
    lams_n = np.asarray(lams) / np.abs(lams).max()
    z2 = make_generator(21).standard_normal((n, lams_n.size)) ** 2
    num = (z2 @ lams_n) ** 2
    den = 4.0 * (z2 @ lams_n**2)
    want = np.sort(num / den)
    assert sample_canonical(lams, n, 21).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("p, sigma", [
    ((0.3, 0.7), np.array([[1.0, 0.5], [0.5, 1.0]])),
    ((1 / 3, 1 / 3, 1 / 3), SIGMA3),
])
def test_cauchy_draws(p, sigma, n, ks_inputs):
    p = np.asarray(p)
    x, y = mvn_whole(sigma, n, 12, 0), mvn_whole(sigma, n, 12, 1)
    draws = (p[None, :] * y / x).sum(axis=1)
    verify.verify_cauchy(p, sigma, n, 12)
    assert ks_inputs[0].tobytes() == np.sort(draws[np.isfinite(draws)]).tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("rho", [0.0, 0.5, 0.8])
def test_negative_weight_draws(rho, n, ks_inputs):
    sigma = np.array([[1.0, rho], [rho, 1.0]])
    q = 4.0 / MonomialForm((1, 1)).reciprocal_wald(mvn_whole(sigma, n, 13) * [1, -1], sigma)
    q = q[np.isfinite(q)]
    expected = (1.0 + 2.0 * rho**2) / (1.0 - rho**2)
    results = verify.counterexample_negative_weights(rho, n, 13)
    # the mean row sums the draws in stream order
    assert results[0].statistic == abs(float(q.mean()) / expected - 1.0)
    if rho == 0.8:
        assert ks_inputs[0].tobytes() == np.sort(q).tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("c", [0.3, 1.0, -0.5])
def test_trig_lemma_draws(c, n, ks_inputs):
    psi = make_generator(14, 0).uniform(0.0, 2.0 * np.pi, n)
    cos2, sin2 = np.cos(psi) ** 2, np.sin(psi) ** 2
    s = (1.0 + c) ** 2 * cos2 * sin2 / (cos2 + c * c * sin2)
    verify.verify_trig_lemma(c, n, 14)
    assert ks_inputs[0].tobytes() == np.sort(s).tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("k1, k2", [(2, 2), (1, 1), (3, 1)])
def test_folded_beta_draws(k1, k2, n):
    rng = make_generator(15)
    r2 = rng.chisquare(k1 + k2, n)
    b = rng.beta(k1 / 2.0, k2 / 2.0, n)
    want = 0.25 * r2 * (2.0 * b - 1.0) ** 2
    got = FoldedBetaProduct(k1, k2)._draw(make_generator(15), n)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("alpha", [0.7, 1.3])
def test_stable_draws(alpha, n):
    z = make_generator(16).standard_normal(n)
    assert sample_stable(alpha, n, 16).tobytes() == (alpha**2 / z**2).tobytes()
