import contextlib
import os
import subprocess
import sys

from conftest import FractionTableau, oracle_find_feasible, oracle_maximize_homogeneous
from hypothesis import example, given, settings, strategies as st

from polygonality import simplex
from polygonality.simplex import QQ, ZERO, find_feasible, maximize_homogeneous


def test_homogeneous_trivial_zero_optimum():
    # x1 = x2 and x1 = -x2 force x = 0
    res = maximize_homogeneous([[1, -1], [1, 1]], [1, 1])
    assert res.objective == 0
    # duals certify: y.A >= c columnwise
    y = res.duals
    for j, cj in enumerate((1, 1)):
        assert y[0] * [[1, -1], [1, 1]][0][j] + y[1] * [[1, -1], [1, 1]][1][j] + y[2] >= cj


def test_homogeneous_positive_optimum():
    # x1 = x2, maximize x1: optimum 1/2 at x = (1/2, 1/2)
    res = maximize_homogeneous([[1, -1]], [1, 0])
    assert res.objective == QQ(1, 2)
    assert res.x == [QQ(1, 2), QQ(1, 2)]


def test_homogeneous_early_exit_is_feasible():
    res = maximize_homogeneous([[1, -1, 0]], [1, 1, 0], stop_when_positive=True)
    assert res.objective > 0
    x = res.x
    assert x[0] - x[1] == 0 and sum(x) <= 1 and all(v >= 0 for v in x)


def test_homogeneous_redundant_rows():
    rows = [[1, -1], [2, -2], [-1, 1]]
    res = maximize_homogeneous(rows, [1, 1])
    assert res.objective == 1
    assert sum(res.x) == 1 and res.x[0] == res.x[1]


def test_find_feasible_simple():
    # x1 + x2 = 2, x1 - x2 = 0 -> x = (1, 1)
    res = find_feasible([[1, 1], [1, -1]], [2, 0])
    assert res.status == "optimal"
    assert res.x == [1, 1]


def test_find_feasible_negative_rhs_normalized():
    res = find_feasible([[-1, -1]], [-3])
    assert res.status == "optimal"
    assert sum(res.x) == 3


def test_find_feasible_infeasible():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    res = find_feasible([[1, 1], [1, 1]], [1, 2])
    assert res.status == "infeasible"


def test_find_feasible_needs_nonnegativity():
    # x1 - x2 = -1 with x >= 0 is feasible (x2 = 1); x1 alone would not be
    res = find_feasible([[1, -1]], [-1])
    assert res.status == "optimal"
    assert res.x[1] - res.x[0] == 1


def test_degenerate_pivots_terminate():
    # many zero rows on shared columns: Bland's rule must not cycle
    rows = [
        [1, -1, 0, 0],
        [0, 1, -1, 0],
        [0, 0, 1, -1],
        [1, 0, 0, -1],
    ]
    res = maximize_homogeneous(rows, [1, 1, 1, 1])
    assert res.objective == 1
    assert all(v == QQ(1, 4) for v in res.x)


def test_duals_certify_zero_optimum_exactly():
    rows = [[1, -2], [1, 1]]
    c = [3, 5]
    res = maximize_homogeneous(rows, c)
    assert res.objective == 0
    y = res.duals
    for j in range(2):
        lhs = sum((y[i] * rows[i][j] for i in range(2)), ZERO) + y[2]
        assert lhs >= c[j]


def test_fraction_fallback_backend():
    # block gmpy2 in a fresh interpreter: the solver must behave identically on
    # Fraction; reloading the module here instead would leave the modules that
    # imported its functions holding the old ones for the rest of the session
    check = """
import sys
sys.modules["gmpy2"] = None
from fractions import Fraction
import polygonality.simplex as mod
assert mod.QQ is Fraction
assert mod.maximize_homogeneous([[1, -1]], [1, 0]).objective == Fraction(1, 2)
assert mod.find_feasible([[1, 1], [1, -1]], [2, 0]).x == [1, 1]
"""
    src = os.path.dirname(os.path.dirname(simplex.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# -- the integer kernel against the Fraction reference -------------------------


@contextlib.contextmanager
def recorded_pivots(*classes):
    """Record ``(row, column, rows * columns)`` of every pivot, per class."""
    logs = {cls: [] for cls in classes}
    originals = {cls: cls.pivot for cls in classes}

    def recording(cls):
        def pivot(tab, r, col):
            logs[cls].append((r, col, len(tab.rows) * tab.n))
            return originals[cls](tab, r, col)

        return pivot

    for cls in classes:
        cls.pivot = recording(cls)
    try:
        yield logs
    finally:
        for cls in classes:
            cls.pivot = originals[cls]


entries = st.sampled_from([0, 0, 0, 1, -1, 1, 2, -2, 3])


@st.composite
def integer_systems(draw, max_rows=5, max_cols=7):
    """Small integer matrices, some with redundant rows and zero columns."""
    n = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=max_rows))
    if rows and draw(st.booleans()):  # a redundant row: a combination of two others
        a, b = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        s, t = draw(st.sampled_from([-2, -1, 1, 2])), draw(st.sampled_from([-1, 0, 1]))
        rows.insert(draw(st.integers(0, len(rows))), [s * u + t * v for u, v in zip(rows[a], rows[b])])
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):  # zero columns
        for row in rows:
            row[j] = 0
    return rows, n


@st.composite
def homogeneous_lps(draw):
    A, n = draw(integer_systems())
    return A, draw(st.lists(st.sampled_from([-1, 0, 1, 2]), min_size=n, max_size=n))


@st.composite
def feasibility_systems(draw):
    A, n = draw(integer_systems(max_rows=4, max_cols=6))
    if draw(st.booleans()):  # feasible by construction
        x0 = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        return A, [sum(a * v for a, v in zip(row, x0)) for row in A]
    return A, draw(st.lists(st.integers(-3, 3), min_size=len(A), max_size=len(A)))


@settings(max_examples=300, deadline=None)
@given(homogeneous_lps(), st.booleans())
@example(([[1, -1], [2, -2], [-1, 1]], [1, 1]), False)  # redundant rows
@example(([[1, 0, -1], [0, 0, 0]], [1, 1, 0]), True)  # zero row and zero column
def test_maximize_homogeneous_matches_fraction_reference(lp, stop):
    A, c = lp
    with recorded_pivots(simplex._Tableau, FractionTableau) as logs:
        res = maximize_homogeneous(A, c, stop_when_positive=stop)
        x, objective, duals = oracle_maximize_homogeneous(A, c, stop_when_positive=stop)
    assert res.status == "optimal"
    assert (res.x, res.objective) == (x, objective)
    if duals is not None:
        assert res.duals == duals
    assert logs[simplex._Tableau] == logs[FractionTableau]


@settings(max_examples=300, deadline=None)
@given(feasibility_systems())
@example(([[1, 1], [1, 1]], [1, 2]))  # infeasible phase one
@example(([[1, -1], [-1, 1], [2, -2]], [-1, 1, -2]))  # redundant rows, negative rhs
def test_find_feasible_matches_fraction_reference(system):
    A, b = system
    with recorded_pivots(simplex._Tableau, FractionTableau) as logs:
        res = find_feasible(A, b)
        x = oracle_find_feasible(A, b)
    assert res.status == ("infeasible" if x is None else "optimal")
    if x is not None:
        assert res.x == x
    assert logs[simplex._Tableau] == logs[FractionTableau]
