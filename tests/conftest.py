import numpy as np
import pytest

from singwald.poly import HomogeneousPolynomial


@pytest.fixture
def quartic():
    """The 35-term quartic prod_i (Bx)_i, B = N(0, 1)^{4x4} + 3I (seeded)."""
    rng = np.random.default_rng([1, 1])
    b = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
    f = HomogeneousPolynomial.from_terms([(1.0, (1, 1, 1, 1))]).compose_linear(b)
    assert len(f.terms) == 35
    return f
