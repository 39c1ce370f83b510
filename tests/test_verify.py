"""The two numerical helpers of `hooklaw verify` against scipy."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2

from hooklaw import limitlaw
from hooklaw.verify import _chi2_tail, _integral


@pytest.mark.parametrize("dof", [2, 4, 6, 8, 12])
def test_chi2_tail_matches_scipy(dof):
    for x in np.linspace(0.01, 60.0, 600):
        want = chi2.sf(x, dof)
        assert abs(_chi2_tail(float(x), dof) - want) <= 1e-13 * want, (dof, x)


@pytest.mark.parametrize("dof", [0, 1, 5, -2])
def test_chi2_tail_needs_an_even_positive_dof(dof):
    with pytest.raises(ValueError):
        _chi2_tail(3.0, dof)


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 5.0, 60.0])
def test_integral_matches_quad(b):
    want, _ = quad(limitlaw.density, 0.0, b, limit=400)
    assert abs(_integral(limitlaw.density, 0.0, b) - want) <= 1e-13
    want, _ = quad(math.cos, 0.0, b, limit=400)
    assert abs(_integral(math.cos, 0.0, b) - want) <= 1e-13
