"""Exact simplex for small dense linear programs with integer data.

Linear programs with integer data are solved with Bland's anti-cycling rule
by integer-preserving pivoting (Edmonds 1967, Bareiss 1968).  The tableau
rows, their right-hand sides and the objective row are Python ints, each row
over its own positive denominator ``dens[i]``; ``d`` is the absolute determinant
of the current basis.  A pivot on ``p = T[r][col]`` first brings row ``r``
up to ``d`` (``v * d // dens[r]``, exact) and negates it when ``p < 0``.  It
then replaces only the rows ``i`` with ``f = T[i][col] != 0`` by
``(p*T[i] - f*T[r]) // dens[i]``, a division that is always exact, and gives
them and row ``r`` the denominator ``p``, which becomes the new ``d``; a row
with a zero in the pivot column is not touched.  A row's positive scale
cancels out of every sign and every ratio, so the pivots are the ones
rational arithmetic would make, and no gcd is ever taken.  Rationals
(``QQ``, which is fractions.Fraction) are built only for the returned
values.  Problem sizes here are tiny (dozens of rows, a few hundred
columns), so a dense tableau is adequate.

One entry point, :func:`maximize_homogeneous`, asks the package's one
question: is there a nonzero, nonnegative ``x`` in the kernel of an integer
matrix ``A`` with ``c.x > 0``?  It solves ``max c.x`` over ``A x = 0``,
``sum(x) <= 1``, ``x >= 0``.  The zero vector is feasible, so a crash basis
from Gauss-Jordan elimination replaces phase one.  Pivoting stops at the
first basis whose objective is positive: its ``x`` answers the question, and
any positive point serves the callers, who scale it to integers.  A run that
ends with no improving column has optimum zero, and its optimal duals are a
refutation certificate.
"""

from __future__ import annotations

from fractions import Fraction as QQ
from math import lcm
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


def _eliminate(rows: list[list[int]], dens: list[int], r: int, col: int, d: int) -> int:
    """Integer-preserving pivot on ``rows[r][col]``; ``d`` is the basis determinant.

    Row ``i`` is over its own denominator ``dens[i]``.  Row ``r`` is brought up
    to ``d``, each row with a nonzero entry in ``col`` is updated over its own
    denominator, and the other rows are left as they are.  Updates ``rows``
    and ``dens`` in place and returns the new determinant.
    """
    prow = rows[r]
    if dens[r] != d:
        prow = [v * d // dens[r] for v in prow]
    p = prow[col]
    if p < 0:
        p = -p
        prow = [-v for v in prow]
    rows[r], dens[r] = prow, p
    support = [j for j, v in enumerate(prow) if v]
    for i, row in enumerate(rows):
        f = row[col]
        if not f or i == r:
            continue
        den = dens[i]
        if p == den:  # (p*a - f*b) // p, and f*b is then a multiple of p
            for j in support:
                row[j] -= f * prow[j] // den
        else:
            rows[i] = [(p * a - f * b) // den for a, b in zip(row, prow)]
            dens[i] = p
    return p


class _Tableau:
    """Integer tableau, row ``i`` over its own positive denominator ``dens[i]``.

    ``rows[i]`` holds the ``n`` column entries of row ``i`` followed by its
    right-hand side; ``obj`` holds the reduced costs followed by minus the
    objective value, over ``obj_den`` (``d`` at the start).  ``d`` is the
    absolute determinant of the current basis.
    """

    def __init__(self, rows, dens, basis, obj, d):
        self.rows = rows
        self.dens = dens
        self.basis = basis
        self.n = len(obj) - 1
        self.d = d
        self.obj = obj
        self.obj_den = d

    def pivot(self, r, col):
        # the objective row takes part in every pivot
        self.rows.append(self.obj)
        self.dens.append(self.obj_den)
        self.d = _eliminate(self.rows, self.dens, r, col, self.d)
        self.obj = self.rows.pop()
        self.obj_den = self.dens.pop()
        self.basis[r] = col

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

    def objective(self):
        return QQ(-self.obj[-1], self.obj_den)

    def solution(self, n):
        """Values of the first ``n`` columns at the current basis."""
        x = [ZERO] * n
        for i, bi in enumerate(self.basis):
            if bi < n:
                x[bi] = QQ(self.rows[i][-1], self.dens[i])
        return x


def _solve_duals(columns, cost, basis, nrows):
    """Solve y.B = c_B exactly for the dual vector over the original rows."""
    # transpose system B^T y = c_B, right-hand side as the last entry
    mat = [[columns[bi][i] for i in range(nrows)] + [cost[bi]] for bi in basis]
    dens = [1] * len(mat)
    d = 1
    y = [ZERO] * nrows
    # Gauss-Jordan elimination with first-nonzero pivoting
    rows = list(range(len(mat)))
    piv_cols = []
    for col in range(nrows):
        pr = next((r for r in rows if mat[r][col] != 0), None)
        if pr is None:
            continue
        rows.remove(pr)
        piv_cols.append((pr, col))
        d = _eliminate(mat, dens, pr, col, d)
    for pr, col in piv_cols:
        y[col] = QQ(mat[pr][-1], dens[pr])
    return y


def _integers(values) -> list[int]:
    return [index(v) for v in values]


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
    rows = [_integers(row) + [0, 0] for row in A]
    rows.append([1] * (n + 2))
    cost = _integers(c) + [0]
    # Gauss-Jordan crash basis on the homogeneous rows: the basic solution is
    # x = 0, s = 1, which is feasible outright.
    dens = [1] * (m + 1)
    d = 1
    basis_cols: list[int] = []
    kept: list[int] = []
    for i in range(m):
        row = rows[i]
        col = next((j for j in range(n) if row[j] != 0 and j not in basis_cols), None)
        if col is None:
            continue  # redundant row
        d = _eliminate(rows, dens, i, col, d)
        basis_cols.append(col)
        kept.append(i)
    tab_rows = [rows[i] for i in kept] + [rows[m]]
    tab_dens = [dens[i] for i in kept] + [dens[m]]
    tab_basis = basis_cols + [n]  # slack basic in the normalization row
    # d * (c - c_B B^-1 A), exact once every basic row with a cost is over d
    obj = [d * v for v in cost] + [0]
    for i, bi in enumerate(tab_basis):
        f = cost[bi]
        if f:
            if tab_dens[i] != d:
                tab_rows[i] = [v * d // tab_dens[i] for v in tab_rows[i]]
                tab_dens[i] = d
            obj = [a - f * b for a, b in zip(obj, tab_rows[i])]
    tab = _Tableau(tab_rows, tab_dens, tab_basis, obj, d)
    tab.run()
    objective = tab.objective()
    if objective > 0:
        return LPResult(tab.solution(n), objective, [])
    columns = {}
    for bi in tab.basis:
        col = [(A[kept[i]][bi] if bi < n else 0) for i in range(len(kept))]
        col.append(1)
        columns[bi] = col
    y = _solve_duals(columns, cost, tab.basis, len(kept) + 1)
    duals = [ZERO] * (m + 1)
    for i, orig in enumerate(kept):
        duals[orig] = y[i]
    duals[m] = y[len(kept)]
    return LPResult(tab.solution(n), objective, duals)

