"""Exact simplex for small dense linear programs with integer data.

Standard-form problems ``max c.x  s.t.  A x = b, x >= 0`` with integer
``A``, ``b`` and ``c`` are solved with Bland's anti-cycling rule by
integer-preserving pivoting (Edmonds 1967, Bareiss 1968).  The tableau rows,
their right-hand sides and the objective row are Python ints, each row over
its own positive denominator ``dens[i]``; ``d`` is the absolute determinant
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

Two entry points cover the package's needs:

* :func:`maximize_homogeneous` -- ``max c.x`` over ``A x = 0``, ``sum(x) <= 1``,
  ``x >= 0``.  The zero vector is feasible, so a crash basis from Gauss-Jordan
  elimination replaces phase one.  Optimal duals double as a refutation
  certificate when the optimum is zero.
* :func:`find_feasible` -- phase-one search for ``A x = b, x >= 0``.  The
  artificial column of row ``i`` is never stored: it keeps only its basis
  label ``n + i``, which breaks ratio-test ties as before.  Bland's rule would
  enter an artificial only when no stored column improves, and while the
  objective is negative that already proves the system infeasible.  The
  solve stops at the first basis whose objective is zero; every later pivot,
  and every pivot that would move a leftover artificial out of the basis,
  has ratio zero and so cannot change ``x``.
"""

from __future__ import annotations

from fractions import Fraction as QQ
from operator import index
from typing import NamedTuple

ZERO = QQ(0)


class SimplexError(Exception):
    pass


class _LPFields(NamedTuple):
    status: str  # "optimal" or "infeasible"
    x: list
    objective: object
    duals: list  # one entry per original row


class LPResult(_LPFields):
    """A solve's status, ``x``, objective and duals; ``x`` and ``duals``
    default to a new empty list each."""

    __slots__ = ()

    def __new__(cls, status: str, x: list | None = None, objective=ZERO, duals: list | None = None):
        return super().__new__(
            cls, status, [] if x is None else x, objective, [] if duals is None else duals
        )


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
    absolute determinant of the current basis.  A basis label ``>= n`` names
    a column that is not stored.
    """

    def __init__(self, rows, dens, basis, obj, d):
        self.rows = rows
        self.dens = dens
        self.basis = basis
        self.n = len(obj) - 1
        self.d = d
        self.obj = obj
        self.obj_den = d

    @property
    def positive(self) -> bool:
        return self.obj[-1] < 0

    def pivot(self, r, col):
        # the objective row takes part in every pivot
        self.rows.append(self.obj)
        self.dens.append(self.obj_den)
        self.d = _eliminate(self.rows, self.dens, r, col, self.d)
        self.obj = self.rows.pop()
        self.obj_den = self.dens.pop()
        self.basis[r] = col

    def run(self, stop_when_positive=False, stop_when_zero=False):
        """Bland-rule pivoting until every stored reduced cost is <= 0, or
        until the objective is positive or zero, as the flags ask."""
        n = self.n
        while True:
            if (stop_when_positive and self.positive) or (stop_when_zero and not self.obj[-1]):
                return
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


def maximize_homogeneous(A, c, stop_when_positive=False):
    """``max c.x`` subject to ``A x = 0``, ``sum(x) <= 1``, ``x >= 0``.

    ``A`` and ``c`` are integers.  Returns an :class:`LPResult` whose
    ``duals`` has one multiplier per row of ``A`` plus a final multiplier
    for the normalization row.  When ``stop_when_positive`` is set, pivoting
    stops at the first basis with a positive objective (the duals are then
    not meaningful).
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
    tab.run(stop_when_positive=stop_when_positive)
    duals = [ZERO] * (m + 1)
    if not (stop_when_positive and tab.positive):
        columns = {}
        for bi in tab.basis:
            col = [(A[kept[i]][bi] if bi < n else 0) for i in range(len(kept))]
            col.append(1)
            columns[bi] = col
        y = _solve_duals(columns, cost, tab.basis, len(kept) + 1)
        for i, orig in enumerate(kept):
            duals[orig] = y[i]
        duals[m] = y[len(kept)]
    return LPResult("optimal", tab.solution(n), tab.objective(), duals)


def find_feasible(A, b):
    """Phase-one simplex for integer ``A x = b, x >= 0``; returns LPResult.

    ``status`` is "optimal" with a feasible ``x`` or "infeasible".
    """
    m, n = len(A), (len(A[0]) if A else 0)
    rows = []
    for i in range(m):
        row = _integers(A[i]) + [index(b[i])]
        rows.append([-v for v in row] if row[-1] < 0 else row)
    # the artificial of row i is basic under the label n + i; at that basis the
    # reduced costs of max -sum(artificials) are the column sums
    obj = [sum(col) for col in zip(*rows)] if rows else [0]
    tab = _Tableau(rows, [1] * m, [n + i for i in range(m)], obj, 1)
    tab.run(stop_when_zero=True)
    if tab.obj[-1]:  # no stored column improves a negative objective
        return LPResult("infeasible")
    return LPResult("optimal", tab.solution(n), ZERO, [])
