import contextlib
import os
from math import gcd
import subprocess
import sys
from unittest import mock

import pytest
from conftest import (
    FractionTableau,
    fourvertex_base_case,
    oracle_maximize_homogeneous,
)
from hypothesis import example, given, settings, strategies as st

from polygonality import regular, simplex
from polygonality.generators import random_fourvertex_instance, random_regular_instance
from polygonality.simplex import QQ, ZERO, maximize_homogeneous


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
    # the first positive basis, x = (1/2, 1/2, 0) with objective 1, ends the
    # solve, though moving all weight to x3 would reach 1 as well
    res = maximize_homogeneous([[1, -1, 0]], [1, 1, 0])
    assert res.objective > 0 and res.duals == []
    x = res.x
    assert x[0] - x[1] == 0 and sum(x) <= 1 and all(v >= 0 for v in x)


def test_homogeneous_redundant_rows():
    rows = [[1, -1], [2, -2], [-1, 1]]
    res = maximize_homogeneous(rows, [1, 1])
    assert res.objective == 1
    assert sum(res.x) == 1 and res.x[0] == res.x[1]


@pytest.mark.parametrize(
    "A, b, feasible",
    [
        ([[1, 1], [1, -1]], [2, 0], [1, 1]),
        ([[-1, -1]], [-3], None),  # negative right-hand side
        ([[1, -1]], [-1], None),  # feasible only through x2
        ([[1, 1], [1, 1]], [1, 2], False),
    ],
    ids=["simple", "negative-rhs", "needs-nonnegativity", "infeasible"],
)
def test_feasibility_as_a_homogeneous_lp(A, b, feasible):
    # A x = b has a solution x >= 0 exactly when [A | -b] has a nonnegative
    # kernel vector (x, t) with t > 0, and then x / t solves it
    rows = [row + [-rhs] for row, rhs in zip(A, b)]
    c = [0] * len(A[0]) + [1]
    res = maximize_homogeneous(rows, c)
    if feasible is False:
        assert res.objective == 0
        y = res.duals
        for j, cj in enumerate(c):
            assert sum((y[i] * rows[i][j] for i in range(len(rows))), ZERO) + y[-1] >= cj
        return
    assert res.objective > 0
    x = [v / res.x[-1] for v in res.x[:-1]]
    assert [sum(a * v for a, v in zip(row, x)) for row in A] == b
    assert all(v >= 0 for v in x)
    if feasible is not None:
        assert x == feasible


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


@settings(max_examples=300, deadline=None)
@given(homogeneous_lps())
@example(([[1, -1], [2, -2], [-1, 1]], [1, 1]))  # redundant rows
@example(([[1, 0, -1], [0, 0, 0]], [1, 1, 0]))  # zero row and zero column
@example(([[1, 1]], [1, 1]))  # zero optimum
def test_maximize_homogeneous_matches_fraction_reference(lp):
    A, c = lp
    with recorded_pivots(simplex._Tableau, FractionTableau) as logs:
        res = maximize_homogeneous(A, c)
        expected = oracle_maximize_homogeneous(A, c)
    assert tuple(res) == expected
    assert logs[simplex._Tableau] == logs[FractionTableau]


@st.composite
def sparse_systems(draw, max_rows=12, max_cols=24):
    """Sparse integer matrices up to 12 x 24 with density 0.1-0.4, where a row
    often has a zero in the pivot column and goes stale over many pivots."""
    m, n = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    density = draw(st.floats(0.1, 0.4))
    rng = draw(st.randoms(use_true_random=False))
    rows = [
        [rng.choice((1, -1, 2, -2, 3)) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]
    return rows, n, rng


@settings(max_examples=100, deadline=None)
@given(sparse_systems())
def test_maximize_homogeneous_matches_fraction_reference_on_sparse_systems(system):
    A, n, rng = system
    c = [rng.choice((-1, 0, 1, 2)) for _ in range(n)]
    with recorded_pivots(simplex._Tableau, FractionTableau) as logs:
        res = maximize_homogeneous(A, c)
        expected = oracle_maximize_homogeneous(A, c)
    assert tuple(res) == expected
    assert logs[simplex._Tableau] == logs[FractionTableau]


def _coloring_lp(graph):
    """The ``A`` and ``c`` of the one solve of the fractional edge coloring of ``graph``."""
    with mock.patch.object(regular, "maximize_homogeneous", wraps=maximize_homogeneous) as spy:
        regular.fractional_edge_coloring(graph)
    (A, c), kwargs = spy.call_args
    assert spy.call_count == 1 and not kwargs
    return A, c


@pytest.mark.parametrize(
    "graph",
    [
        random_regular_instance(3, 4, 3),
        random_regular_instance(1774479979, 4, 6),
        fourvertex_base_case(random_fourvertex_instance(5)),
    ],
    ids=["k4p3", "k4p6", "fourvertex-base"],
)
def test_coloring_lp_matches_fraction_reference(graph):
    # one balance row per vertex pair after the first, over all-ones costs
    A, c = _coloring_lp(graph)
    pairs = {frozenset(ends) for ends in graph.edges.values()}
    assert len(A) == len(pairs) - 1 and c == [1] * len(c)
    with recorded_pivots(simplex._Tableau, FractionTableau) as logs:
        res = maximize_homogeneous(A, c)
        expected = oracle_maximize_homogeneous(A, c)
    assert tuple(res) == expected and res.objective > 0
    assert logs[simplex._Tableau] == logs[FractionTableau] and logs[FractionTableau]


def test_pivot_leaves_rows_without_the_pivot_column_untouched():
    # slack basis in columns 3-5; pivot on row 0 at column 0, where row 1 has a zero
    rows = [
        [2, 1, 0, 1, 0, 0, 4],
        [0, 3, 1, 0, 1, 0, 6],
        [1, 1, 1, 0, 0, 1, 5],
    ]
    # objective row: reduced costs (1, 1, 0, 0, 0, 0) at the slack basis, value 0
    tab = simplex._Tableau(rows, [3, 4, 5], [1, 1, 0, 0, 0, 0, 0])
    untouched = tab.rows[1]
    tab.pivot(0, 0)
    assert tab.rows[1] is untouched and untouched == [0, 3, 1, 0, 1, 0, 6]
    assert tab.basis == [0, 4, 5]
    assert tab.rows[2] == [0, 1, 2, -1, 0, 2, 6]  # 2*row2 - row0
    assert tab.obj == [0, 1, 0, -1, 0, 0, -4]  # 2*obj - row0
    # a pivot of 3 scales the rows it meets, each kept over its own basic entry
    tab.pivot(1, 1)
    assert tab.rows[1] is untouched and tab.basis == [0, 1, 5]
    assert tab.rows[0] == [6, 0, -1, 3, -1, 0, 6]  # 3*row0 - row1
    over_basic_entry = [QQ(v, tab.rows[0][0]) for v in tab.rows[0]]
    assert over_basic_entry == [1, 0, QQ(-1, 6), QQ(1, 2), QQ(-1, 6), 0, 1]
    # a unit pivot updates the objective row in place, and a row that comes
    # out with a common factor is divided by it
    rows = [[1, 2, 0, 1, 3], [1, 0, 2, 1, 1]]
    tab = simplex._Tableau(rows, [1, 2], [1, 0, 0, 0, 0])
    prow, obj = tab.rows[0], tab.obj
    tab.pivot(0, 0)
    assert tab.rows[0] is prow and tab.basis == [0, 2]
    assert tab.rows[1] == [0, -1, 1, 0, -1]  # (row1 - row0) / 2
    assert tab.obj is obj and obj == [0, -2, 0, -1, -3]  # obj - row0


@settings(max_examples=100, deadline=None)
@given(sparse_systems())
def test_rows_are_primitive_and_over_their_basic_entry_match_the_fraction_tableau(system):
    # after every pivot each row has no common factor and a positive entry in
    # its basic column, and divided by that entry it is the Fraction
    # tableau's row after the same pivots; the objective row is a positive
    # multiple of the reference's
    A, n, rng = system
    c = [rng.choice((-1, 0, 1, 2)) for _ in range(n)]
    states = {simplex._Tableau: [], FractionTableau: []}

    def recording(cls, snapshot):
        pivot = cls.pivot

        def recorded(tab, r, col):
            pivot(tab, r, col)
            states[cls].append(snapshot(tab))

        return mock.patch.object(cls, "pivot", recorded)

    def integer_state(tab):
        return [row[:] for row in tab.rows], tab.basis[:], tab.obj[:]

    def fraction_state(tab):
        return [[*row, v] for row, v in zip(tab.rows, tab.rhs)], [*tab.obj_row, -tab.obj_val]

    with recording(simplex._Tableau, integer_state), recording(FractionTableau, fraction_state):
        maximize_homogeneous(A, c)
        oracle_maximize_homogeneous(A, c)
    assert len(states[simplex._Tableau]) == len(states[FractionTableau])
    for (rows, basis, obj), (ref_rows, ref_obj) in zip(*states.values()):
        assert len(rows) == len(basis) == len(ref_rows)
        for row, b, ref in zip(rows, basis, ref_rows):
            assert gcd(*row) == 1 and row[b] > 0
            assert [QQ(v, row[b]) for v in row] == ref
        scale = next((v / w for v, w in zip(obj, ref_obj) if w), 0)
        assert obj == [w * scale for w in ref_obj]
        assert not any(obj) or scale > 0
