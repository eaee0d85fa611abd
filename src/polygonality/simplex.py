"""Exact simplex for small dense linear programs with integer data.

Linear programs with integer data are solved with Bland's anti-cycling rule on
primitive integer rows.  Every tableau row, right-hand side last, is a list of
Python ints with no common factor; a row's scale is its entry in its basic
column, which stays positive, and the objective row is kept at some positive
scale.  A pivot on ``p = T[r][col]`` negates row ``r`` when ``p < 0``.  Each
other row with ``f = T[i][col] != 0`` becomes ``(a*T[i] - b*T[r]) / g``, with
``a/b = p/f`` in lowest terms and ``g`` the gcd of the result; when ``a`` is
1, as for a unit pivot, only the pivot row's support is touched.  A row with a
zero in the pivot column is not touched.  A row's positive scale cancels out
of every sign and every ratio, so the pivots are the ones rational arithmetic
would make: a basic value is a row's right-hand side over its basic entry.
Rationals (``QQ``, which is fractions.Fraction) are built only for the
returned values.  Problem sizes here are tiny (dozens of rows, a few hundred
columns), so a dense tableau is adequate.

One entry point, :func:`maximize_homogeneous`, asks the package's one
question: is there a nonzero, nonnegative ``x`` in the kernel of an integer
matrix ``A`` with ``c.x > 0``?  It solves ``max c.x`` over ``A x = 0``,
``sum(x) <= 1``, ``x >= 0``.  The zero vector is feasible, so a crash basis
from Gauss-Jordan elimination, which reduces the objective row with the
others, replaces phase one.  Pivoting stops at the first basis whose
objective is positive: its ``x`` answers the question, and any positive
point serves the callers, who scale it to integers.  A run that ends with no
improving column has optimum zero, and its optimal duals are a refutation
certificate.
"""

from __future__ import annotations

from fractions import Fraction as QQ
from itertools import compress
from math import gcd, lcm
from operator import index
from typing import NamedTuple

ZERO = QQ(0)


class SimplexError(Exception):
    pass


class LPResult(NamedTuple):
    x: list
    objective: object  # positive at the first positive basis, else the optimum 0
    duals: list  # empty when the objective is positive

    def integer_x(self) -> list[int]:
        """``x`` scaled by the lcm of its denominators, as ints."""
        scale = lcm(*(val.denominator for val in self.x))
        return [val.numerator * (scale // val.denominator) for val in self.x]


def _eliminate(rows: list[list[int]], heads: list[int], r: int, col: int) -> None:
    """Pivot on ``rows[r][col]`` over primitive integer rows, in place.

    Row ``r`` is negated when its entry is negative.  Each other row with a
    nonzero ``f`` in ``col`` becomes ``(a*row - b*prow) / g``, where ``a/b``
    is ``p/f`` in lowest terms and ``g`` is the gcd of the result; when ``a``
    is 1 only the pivot row's support is touched.  A row with a zero in
    ``col`` is left as it is, the same object.  ``heads[i]`` is the basic
    column of row ``i``, or -1 (its right-hand side) for a row without one,
    and ``col`` becomes the head of row ``r``.  The gcd is taken only where
    it pays: a row that holds 1 at its head is primitive already, and a row
    without a head, whose entries a unit update cannot scale up, is made
    primitive when it becomes the pivot row.
    """
    prow = rows[r]
    if heads[r] < 0:
        g = gcd(*prow)
        if g > 1:
            prow = rows[r] = [v // g for v in prow]
    p = prow[col]
    if p < 0:
        p = -p
        prow = rows[r] = [-v for v in prow]
    support = list(compress(range(len(prow)), prow))
    for i, row in enumerate(rows):
        f = row[col]
        if not f or i == r:
            continue
        if f % p == 0:
            b = f // p
            for j in support:
                row[j] -= b * prow[j]
            if heads[i] < 0:
                continue
        else:
            g = gcd(p, f)
            a, b = p // g, f // g
            row = rows[i] = [a * u - b * v for u, v in zip(row, prow)]
        if row[heads[i]] != 1:
            g = gcd(*row)
            if g > 1:
                rows[i] = [v // g for v in row]
    heads[r] = col


class _Tableau:
    """Integer tableau of primitive rows.

    ``rows[i]`` holds the ``n`` column entries of row ``i`` followed by its
    right-hand side, divided by their gcd; its entry in the column
    ``basis[i]`` is positive, and the other rows are zero there.  ``obj``
    holds the reduced costs followed by minus the objective value, at some
    positive scale.  A row's scale cancels out of every sign and every ratio
    the pivoting rule reads.
    """

    def __init__(self, rows, basis, obj):
        self.rows = rows
        self.basis = basis
        self.n = len(obj) - 1
        self.obj = obj

    def pivot(self, r, col):
        # the objective row, which has no basic column, takes part in every pivot
        self.rows.append(self.obj)
        self.basis.append(-1)
        _eliminate(self.rows, self.basis, r, col)
        self.obj = self.rows.pop()
        self.basis.pop()

    def run(self):
        """Bland-rule pivoting until the objective is positive or every
        stored reduced cost is <= 0."""
        n = self.n
        while self.obj[-1] >= 0:  # the last entry is minus the objective
            col = next((j for j in range(n) if self.obj[j] > 0), None)
            if col is None:
                return
            best_r = None
            for i, row in enumerate(self.rows):
                a = row[col]
                if a <= 0:
                    continue
                if best_r is not None:
                    # ratio rhs / a against the best one, by cross-multiplication
                    lhs, rhs = row[n] * best_a, best_rhs * a
                    if lhs > rhs or (lhs == rhs and self.basis[i] > self.basis[best_r]):
                        continue
                best_r, best_rhs, best_a = i, row[n], a
            if best_r is None:
                raise SimplexError("unbounded linear program")
            self.pivot(best_r, col)

    def objective(self, cost):
        """``sum(cost[b] * x[b])`` over the basis, as one fraction."""
        terms = [(cost[bi], row[-1], row[bi]) for row, bi in zip(self.rows, self.basis) if cost[bi]]
        den = lcm(*(a for _, _, a in terms))
        return QQ(sum(f * rhs * (den // a) for f, rhs, a in terms), den)

    def solution(self, n):
        """Values of the first ``n`` columns at the current basis."""
        x = [ZERO] * n
        for row, bi in zip(self.rows, self.basis):
            if bi < n and row[-1]:
                x[bi] = QQ(row[-1], row[bi])
        return x


def _solve_duals(mat):
    """The solution of the nonsingular system whose equations are the rows
    of ``mat``, right-hand side last, by Gauss-Jordan elimination with
    first-nonzero pivoting."""
    heads = [-1] * len(mat)
    pending = list(range(len(mat)))
    for col in range(len(mat)):
        pr = next((r for r in pending if mat[r][col]), None)
        if pr is not None:
            pending.remove(pr)
            _eliminate(mat, heads, pr, col)
    y = [ZERO] * len(mat)
    for row, col in zip(mat, heads):
        if col >= 0:
            y[col] = QQ(row[-1], row[col])
    return y


def maximize_homogeneous(A, c):
    """``max c.x`` subject to ``A x = 0``, ``sum(x) <= 1``, ``x >= 0``, up to
    the first positive objective.

    ``A`` and ``c`` are integers.  Returns an :class:`LPResult`.  Pivoting
    stops at the first basis with a positive objective, whose ``x`` is
    returned with no duals.  Otherwise the optimum is zero, and ``duals``
    has one multiplier per row of ``A`` plus a final multiplier for the
    normalization row.
    """
    m, n = len(A), len(c)
    # extra slack column, then the right-hand side; the last row is sum(x) + s = 1
    rows = [list(map(index, row)) + [0, 0] for row in A]
    rows.append([1] * (n + 2))
    cost = list(map(index, c)) + [0]
    # Gauss-Jordan crash basis on the homogeneous rows, the objective row
    # reduced with them: the basic solution is x = 0, s = 1, feasible outright.
    rows.append(cost + [0])
    heads = [-1] * m + [n, -1]
    kept: list[int] = []
    for i in range(m):
        row = rows[i]
        col = next(compress(range(n), row), None)
        if col is None:
            continue  # redundant row
        _eliminate(rows, heads, i, col)
        kept.append(i)
    obj = rows.pop()
    kept.append(m)  # the normalization row, its slack basic
    tab = _Tableau([rows[i] for i in kept], [heads[i] for i in kept], obj)
    tab.run()
    objective = tab.objective(cost)
    if objective > 0:
        return LPResult(tab.solution(n), objective, [])
    # y.B = c_B: B's columns are the basic columns of the kept rows of A and
    # of the normalization row, where every column, the slack's too, has a 1
    mat = [
        [(index(A[i][bi]) if bi < n else 0) if i < m else 1 for i in kept] + [cost[bi]]
        for bi in tab.basis
    ]
    duals = [ZERO] * (m + 1)
    for i, y in zip(kept, _solve_duals(mat)):
        duals[i] = y
    return LPResult(tab.solution(n), objective, duals)
