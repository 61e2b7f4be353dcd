import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from test_mesh import GRADED, graded_mesh

from boxforms import fields
from boxforms.fields import CATALOG, constant_solution, manufactured
from boxforms.indices import complement, hodge_sign, multi_indices, wedge_sign
from boxforms.mesh import build_grid
from boxforms.quadrature import centered_rule, component_array


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
assert "sympy" not in sys.modules, "deriving an entry loaded sympy"
assert boxforms.manufactured("sin2d_k0") is entry, "entry derived twice"
assert cli.main(["convergence", "--dim", "2", "--k", "0", "--levels", "2"]) == 0
assert "sympy" not in sys.modules, "convergence loaded sympy"
"""


def test_no_command_or_catalog_lookup_loads_sympy():
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


# ---------------------------------------------------------------------------
# sympy reference: the catalog derived as a computer algebra system does it

FAMILIES = ("omega", "d_omega", "delta_d", "load")


def reference_d(parts, n, xs):
    out = {}
    for alpha, expr in parts.items():
        for i in range(1, n + 1):
            dd = expr.diff(xs[i - 1])
            if dd == 0:
                continue
            s, gamma = wedge_sign((i,), alpha)
            if s == 0:
                continue
            out[gamma] = out.get(gamma, 0) + s * dd
    return {a: e for a, e in out.items() if e != 0}


def reference_hodge(parts, n):
    return {complement(a, n): hodge_sign(a, n) * e for a, e in parts.items()}


def reference_codifferential(parts, n, k, xs):
    sign = (-1) ** (n * (k + 1) + 1)
    inner = reference_d(reference_hodge(parts, n), n, xs)
    return {a: sign * e for a, e in reference_hodge(inner, n).items()}


def reference_lambdify(parts, n, xs):
    out = {}
    for alpha, expr in parts.items():
        fn = sp.lambdify(xs, expr, "numpy")

        def wrapper(points, fn=fn):
            vals = fn(*[points[:, i] for i in range(points.shape[1])])
            return np.broadcast_to(np.asarray(vals, dtype=float), (len(points),)).copy()

        out[alpha] = wrapper
    return out


@functools.cache
def reference_entry(name):
    """(xs, {family: {multi-index: sympy expression}}) for each of FAMILIES."""
    n, k, _, text = CATALOG[name]
    xs = sp.symbols(f"x1:{n + 1}")
    parts = {a: sp.sympify(e) for a, e in text.items()}
    d_parts = reference_d(parts, n, xs)
    dd_parts = reference_codifferential(d_parts, n, k + 1, xs) if d_parts else {}
    load_parts = dict(dd_parts)
    for a, e in parts.items():
        load_parts[a] = load_parts.get(a, 0) + e
    return xs, {"omega": parts, "d_omega": d_parts, "delta_d": dd_parts, "load": load_parts}


def derived_terms(name):
    """The term dictionaries behind each family's evaluators."""
    entry = manufactured(name)
    components = {"omega": entry.omega.components, "d_omega": entry.omega.d_components,
                  "delta_d": entry.delta_d.components, "load": entry.load.components}
    return {family: {a: fn.args[0] for a, fn in comps.items()}
            for family, comps in components.items()}


def terms_to_sympy(terms, xs):
    return sum(c * sp.pi ** p * sp.Mul(*[getattr(sp, f)(sp.pi * x)
                                         for f, x in zip(factors, xs) if f != "1"])
               for (p, factors), c in terms.items())


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_term_algebra_equals_the_sympy_derivation(name):
    xs, reference = reference_entry(name)
    derived = derived_terms(name)
    for family in FAMILIES:
        ref, new = reference[family], derived[family]
        assert set(new) == set(ref), (name, family)
        for alpha, terms in new.items():
            assert all(c != 0 for c in terms.values()), (name, family, alpha)
            assert sp.expand(terms_to_sympy(terms, xs) - ref[alpha]) == 0, (name, family, alpha)


def test_closed_form_cancels_to_no_components(monkeypatch):
    # omega = d(sin(pi*x1)*sin(pi*x2)) / pi: d omega cancels term by term
    name = "closed2d_k1"
    monkeypatch.setitem(CATALOG, name, (2, 1, "natural", {(1,): "cos(pi*x1)*sin(pi*x2)",
                                                          (2,): "sin(pi*x1)*cos(pi*x2)"}))
    entry = manufactured(name)
    assert entry.omega.d_components == {} and entry.delta_d.components == {}
    xs, reference = reference_entry(name)
    assert reference["d_omega"] == {}
    for alpha, terms in derived_terms(name)["load"].items():
        assert sp.expand(terms_to_sympy(terms, xs) - reference["load"][alpha]) == 0


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_evaluators_match_the_lambdified_reference(name):
    xs, reference = reference_entry(name)
    entry = manufactured(name)
    points = np.random.default_rng(7).uniform(-0.5, 1.5, size=(200, entry.n))
    evaluate = {"omega": entry.omega.at, "d_omega": entry.omega.d_at,
                "delta_d": entry.delta_d.at, "load": entry.load.at}
    for family in FAMILIES:
        lambdified = reference_lambdify(reference[family], entry.n, xs)
        ref = {a: fn(points) for a, fn in lambdified.items()}
        new = evaluate[family](points)
        assert set(new) == set(ref), (name, family)
        for alpha, values in new.items():
            scale = np.max(np.abs(ref[alpha]))
            assert np.max(np.abs(values - ref[alpha])) <= 1e-13 * scale, (name, family, alpha)


@pytest.mark.parametrize("text, n", [
    ("exp(x1)", 1),
    ("sin(2*pi*x1)", 1),
    ("x1*(1-x1)", 1),
    ("sin(pi*x1)*cos(pi*x1)", 2),
    ("sin(pi*x3)", 2),
    # a valid factor next to an unknown piece: a scan that skipped it would misread the field
    ("sin(pi*x1)*exp(x2)", 2),
    ("2*sin(pi*x1)", 1),
    ("sin(pi*x1)+cos(pi*x2)", 2),
])
def test_catalog_text_outside_the_grammar_is_rejected(monkeypatch, text, n):
    # manufactured() caches by name, so every case gets a name of its own
    name = f"bad_{n}d_{text}"
    monkeypatch.setitem(CATALOG, name, (n, 0, "essential", {(): text}))
    with pytest.raises(ValueError, match=re.escape(repr(name))) as excinfo:
        manufactured(name)
    assert repr(text) in str(excinfo.value)


# -- evaluation on per-axis Gauss coordinates, against the pointwise evaluators


def axis_meshes(n):
    """Uniform, anisotropic and graded meshes of dimension n."""
    anisotropic = {1: [[0, 3]], 2: [[0, 1], [0, 3]], 3: [[0, 2], [0, 1], [0, 1]]}[n]
    return [build_grid([[0, 1]] * n, (3,) * n), build_grid(anisotropic, (4, 2, 3)[:n]),
            graded_mesh(GRADED[f"{n}d"])]


def gauss_points(mesh, order):
    """Every cell's Gauss points, center plus its centered rule, as (cell, point, axis)."""
    return np.stack([np.array([float(c) for c in cell.center])
                     + centered_rule(cell.widths, order)[0] for cell in mesh.cells])


def reference_evaluate(terms, points):
    """Pointwise, one column per (axis, factor), each term's factors multiplied by np.prod."""
    columns = {}
    out = np.zeros(len(points))
    for (p, factors), c in terms.items():
        for i, f in enumerate(factors):
            if f != "1" and (i, f) not in columns:
                columns[i, f] = getattr(np, f)(np.pi * points[:, i])
        trig = [columns[i, f] for i, f in enumerate(factors) if f != "1"]
        out += float(c) * np.pi ** p * np.prod(trig, axis=0)
    return out


def assert_on_axes_match_at(field, mesh, order, derivative=False):
    axes = mesh.gauss_axes(order)
    points = gauss_points(mesh, order).reshape(-1, mesh.n)
    components = field.d_components if derivative else field.components
    got = field.d_on_axes(axes) if derivative else field.on_axes(axes)
    expected = field.d_at(points) if derivative else field.at(points)
    assert set(got) == set(expected) == set(components)
    for alpha, values in got.items():
        assert values.shape == (mesh.n_cells, order ** mesh.n)
        assert np.array_equal(values.ravel(), expected[alpha]), alpha
        fn = components[alpha]
        if isinstance(fn, functools.partial):
            assert np.array_equal(expected[alpha], reference_evaluate(fn.args[0], points)), alpha


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_per_axis_evaluation_equals_the_pointwise_evaluators(name):
    entry = manufactured(name)
    for mesh in axis_meshes(entry.n):
        for order in (2, 5):
            assert_on_axes_match_at(entry.omega, mesh, order)
            assert_on_axes_match_at(entry.omega, mesh, order, derivative=True)
            assert_on_axes_match_at(entry.delta_d, mesh, order)
            assert_on_axes_match_at(entry.load, mesh, order)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_the_load_is_delta_d_omega_then_omega_term_by_term(name):
    # the solver adds delta_d's values to omega's for the load's: the same
    # doubles, since the load sums delta_d's terms and then omega's one term
    entry = manufactured(name)
    load, delta_d, omega = ({alpha: fn.args[0] for alpha, fn in field.components.items()}
                            for field in (entry.load, entry.delta_d, entry.omega))
    assert set(load) == set(delta_d) | set(omega)
    assert all(len(terms) == 1 for terms in omega.values())
    for alpha, terms in load.items():
        first, then = delta_d.get(alpha, {}), omega.get(alpha, {})
        assert not set(first) & set(then)
        assert list(terms.items()) == [*first.items(), *then.items()]
    for mesh in axis_meshes(entry.n):
        for order in (2, 5):
            axes, size = mesh.gauss_axes(order), (mesh.n_cells, order ** entry.n)
            got, first, then = (component_array(field.on_axes(axes), entry.k, entry.n, size)
                                for field in (entry.load, entry.delta_d, entry.omega))
            assert got.tobytes() == (first + then).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_other_callables_are_called_on_the_grid_points(n):
    entry = constant_solution(n, 1, (1,), scale=3.5)
    field = fields.FormField(n, 0, {(): lambda pts: pts[:, 0] * np.exp(pts[:, -1]) - pts[:, 0]})
    for mesh in axis_meshes(n):
        assert_on_axes_match_at(entry.omega, mesh, 5)
        assert_on_axes_match_at(entry.omega, mesh, 5, derivative=True)
        assert_on_axes_match_at(entry.load, mesh, 5)
        assert_on_axes_match_at(field, mesh, 3)
