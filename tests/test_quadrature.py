import numpy as np
import pytest

from test_mesh import integrate

from boxforms.forms import CellBox, PolyForm, Polynomial
from boxforms.quadrature import box_rule, polyform_values


def quadrature_integral(func, box, order):
    """Quadrature integral of a vectorized scalar function over the box."""
    points, weights = box_rule(box, order)
    return float(np.dot(weights, func(points)))


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8])
def test_gauss_exact_for_polynomials(order):
    """Order q integrates per-axis degree <= 2q-1 exactly (vs rational integrals)."""
    box = CellBox((0, -1), (2, 3))
    for a in range(0, 2 * order, 2):
        for b in range(0, 2 * order - 1, 3):
            if a > 2 * order - 1 or b > 2 * order - 1:
                continue
            poly = Polynomial.monomial(2, (a, b))
            exact = float(integrate(box, poly))
            got = quadrature_integral(lambda pts: pts[:, 0] ** a * pts[:, 1] ** b, box, order)
            assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_weights_sum_to_volume():
    box = CellBox((0, 0, 0), (1, 2, 3))
    _, weights = box_rule(box, 3)
    assert np.sum(weights) == pytest.approx(6.0, rel=1e-14)


def test_polyform_values_match_exact_evaluation():
    form = PolyForm.covector(2, (1,), Polynomial(2, {(2, 1): 3, (0, 0): -1}))
    box = CellBox((0, 0), (1, 1))
    points, _ = box_rule(box, 2)
    vals = polyform_values(form, points)[(1,)]
    for point, value in zip(points, vals):
        expected = 3 * point[0] ** 2 * point[1] - 1
        assert value == pytest.approx(expected, rel=1e-14)


def test_order_validation():
    with pytest.raises(ValueError):
        box_rule(CellBox((0,), (1,)), 0)
