import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from boxforms import fields
from boxforms.fields import CATALOG, constant_solution, manufactured
from boxforms.indices import complement, hodge_sign, multi_indices, wedge_sign


def fd_partial(component, point, axis, h=1e-6):
    lo = point.copy()
    hi = point.copy()
    lo[axis - 1] -= h
    hi[axis - 1] += h
    return (component(hi[None, :])[0] - component(lo[None, :])[0]) / (2 * h)


def fd_exterior_derivative(components, n, point):
    """Central-difference d of a component dict at one point."""
    out = {}
    for alpha, fn in components.items():
        for i in range(1, n + 1):
            s, gamma = wedge_sign((i,), alpha)
            if s == 0:
                continue
            out[gamma] = out.get(gamma, 0.0) + s * fd_partial(fn, point, i)
    return out


def fd_codifferential(components, n, k, point):
    """delta via star / finite-difference d / star with exact signs."""
    starred = {complement(a, n): (hodge_sign(a, n), fn) for a, fn in components.items()}

    def wrap(sign, fn):
        return lambda pts: sign * fn(pts)

    starred_fns = {a: wrap(s, fn) for a, (s, fn) in starred.items()}
    d_starred = fd_exterior_derivative(starred_fns, n, point)
    sign = (-1) ** (n * (k + 1) + 1)
    return {complement(a, n): sign * hodge_sign(a, n) * v for a, v in d_starred.items()}


def interior_points(n, rng, count=4):
    return [np.array([rng.uniform(0.2, 0.8) for _ in range(n)]) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_derivative_against_finite_differences(name):
    entry = manufactured(name)
    rng = np.random.default_rng(0)
    for point in interior_points(entry.n, rng):
        analytic = entry.omega.d_at(point[None, :])
        fd = fd_exterior_derivative(entry.omega.components, entry.n, point)
        keys = set(analytic) | set(fd)
        for alpha in keys:
            a = analytic.get(alpha, np.zeros(1))[0]
            b = fd.get(alpha, 0.0)
            assert a == pytest.approx(b, rel=1e-5, abs=1e-5), (alpha, point)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_delta_d_against_finite_differences(name):
    entry = manufactured(name)
    if entry.k == entry.n:
        for point in interior_points(entry.n, np.random.default_rng(1)):
            assert not entry.delta_d.at(point[None, :])
        return
    rng = np.random.default_rng(1)
    for point in interior_points(entry.n, rng):
        analytic = entry.delta_d.at(point[None, :])
        fd = fd_codifferential(entry.omega.d_components, entry.n, entry.k + 1, point)
        keys = set(analytic) | set(fd)
        for alpha in keys:
            a = analytic.get(alpha, np.zeros(1))[0]
            b = fd.get(alpha, 0.0)
            assert a == pytest.approx(b, rel=1e-4, abs=1e-4), (alpha, point)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_load_is_delta_d_plus_omega(name):
    entry = manufactured(name)
    rng = np.random.default_rng(2)
    pts = np.vstack(interior_points(entry.n, rng))
    w = entry.omega.at(pts)
    dd = entry.delta_d.at(pts)
    f = entry.load.at(pts)
    for alpha in set(w) | set(dd) | set(f):
        lhs = f.get(alpha, np.zeros(len(pts)))
        rhs = w.get(alpha, np.zeros(len(pts))) + dd.get(alpha, np.zeros(len(pts)))
        assert np.allclose(lhs, rhs, atol=1e-12)


def boundary_samples(n, rng, count=6):
    out = []
    for _ in range(count):
        p = np.array([rng.uniform(0, 1) for _ in range(n)])
        axis = rng.integers(1, n + 1)
        p[axis - 1] = float(rng.integers(0, 2))
        out.append((p, axis))
    return out


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_boundary_compatibility_tags(name):
    entry = manufactured(name)
    rng = np.random.default_rng(3)
    for point, axis in boundary_samples(entry.n, rng):
        tangential = set(range(1, entry.n + 1)) - {axis}
        if entry.compatibility == "essential":
            values = entry.omega.at(point[None, :])
        else:
            d_vals = entry.omega.d_at(point[None, :])
            values = {complement(a, entry.n): hodge_sign(a, entry.n) * v
                      for a, v in d_vals.items()}
        for alpha, v in values.items():
            if set(alpha) <= tangential:
                assert abs(v[0]) < 1e-12, (alpha, point)


def test_constant_solution_contract():
    entry = constant_solution(2, 1, (1,), 3.0)
    pts = np.array([[0.3, 0.7], [0.1, 0.2]])
    assert np.allclose(entry.omega.at(pts)[(1,)], 3.0)
    assert entry.omega.d_at(pts) == {}
    assert np.allclose(entry.load.at(pts)[(1,)], 3.0)
    with pytest.raises(ValueError):
        constant_solution(2, 1, (2, 1))


def test_unknown_name_lists_choices():
    with pytest.raises(KeyError, match="available"):
        manufactured("missing")


_SYMPY_FREE = """
import sys
import boxforms
from boxforms import cli
assert "sympy" not in sys.modules, "import boxforms loaded sympy"
assert cli.main(["verify", "--dim", "1"]) == 0
assert "sympy" not in sys.modules, "verify loaded sympy"
entry = boxforms.manufactured("sin2d_k0")
assert "sympy" in sys.modules, "deriving an entry did not use sympy"
assert boxforms.manufactured("sin2d_k0") is entry, "entry derived twice"
"""


def test_sympy_loads_only_with_the_first_catalog_lookup():
    src = Path(fields.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", _SYMPY_FREE], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def _grid_points(n):
    axis = np.linspace(0.0, 1.0, 7)
    return np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n)


def test_scalar_loads_match_closed_forms():
    pts = _grid_points(2)
    x1, x2 = pts[:, 0], pts[:, 1]
    factor = 2 * np.pi ** 2 + 1
    sin = manufactured("sin2d_k0").load.at(pts)
    cos = manufactured("cos2d_k0").load.at(pts)
    assert set(sin) == set(cos) == {()}
    assert np.allclose(sin[()], factor * np.sin(np.pi * x1) * np.sin(np.pi * x2),
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(cos[()], factor * np.cos(np.pi * x1) * np.cos(np.pi * x2),
                       rtol=1e-12, atol=1e-12)


def test_sin2d_k1_derivatives_match_closed_forms():
    entry = manufactured("sin2d_k1")
    pts = _grid_points(2)
    shift = np.pi * (pts[:, 0] - pts[:, 1])
    d_omega = entry.omega.d_at(pts)
    delta_d = entry.delta_d.at(pts)
    assert set(d_omega) == {(1, 2)}
    assert np.allclose(d_omega[(1, 2)], -np.pi * np.sin(shift), rtol=1e-12, atol=1e-12)
    assert set(delta_d) == {(1,), (2,)}
    for alpha in delta_d:
        assert np.allclose(delta_d[alpha], np.pi ** 2 * np.cos(shift), rtol=1e-12, atol=1e-12)


_K1_2D, _K2_2D = [(1,), (2,)], [(1, 2)]
_K1_3D, _K2_3D = [(1,), (2,), (3,)], [(1, 2), (1, 3), (2, 3)]

#: name -> nonzero components of (d omega, delta d omega, load)
_NONZERO = {
    "sin1d_k0": ([(1,)], [()], [()]),
    "sin2d_k0": (_K1_2D, [()], [()]),
    "cos2d_k0": (_K1_2D, [()], [()]),
    "sin2d_k1": (_K2_2D, _K1_2D, _K1_2D),
    "cos2d_k1": (_K2_2D, _K1_2D, _K1_2D),
    "sin2d_k2": ([], [], _K2_2D),
    "sin3d_k1": (_K2_3D, _K1_3D, _K1_3D),
    "sin3d_k2": ([(1, 2, 3)], _K2_3D, _K2_3D),
}


def test_nonzero_components_are_pinned():
    assert sorted(_NONZERO) == sorted(CATALOG)
    for name, (d_keys, dd_keys, load_keys) in _NONZERO.items():
        entry = manufactured(name)
        assert sorted(entry.omega.d_components) == d_keys, name
        assert sorted(entry.delta_d.components) == dd_keys, name
        assert sorted(entry.load.components) == load_keys, name
