"""Symbolic matrices whose entries are independent variables or zero.

A matrix is described by its row supports: entry (i, j) is the
variable x[i,j] when column j lies in row i's support and exactly
zero otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import StructuralError
from .exact import Polynomial, Scalar, VarId, mat_rank, poly_det


@dataclass(frozen=True)
class SymbolicMatrix:
    n: int
    supports: tuple[frozenset[int], ...]

    @property
    def k(self) -> int:
        return len(self.supports)

    def entry(self, row: int, col: int) -> Polynomial:
        """Entry at 1-based row index and column label."""
        if not (1 <= row <= self.k):
            raise StructuralError(f"row {row} out of range")
        if not (1 <= col <= self.n):
            raise StructuralError(f"column {col} out of range")
        if col in self.supports[row - 1]:
            return Polynomial.variable(VarId(row, col))
        return Polynomial.zero()

    def minor(self, rows: Sequence[int], cols: Sequence[int]) -> Polynomial:
        """Determinant of the submatrix in the given row/column order."""
        if len(rows) != len(cols):
            raise StructuralError(f"minor needs a square shape, got {rows}x{cols}")
        grid = [[self.entry(r, c) for c in cols] for r in rows]
        return poly_det(grid)

    def evaluate(
        self, assignment: Mapping[VarId, Scalar]
    ) -> tuple[tuple[tuple[Fraction, ...], ...], int]:
        """Numeric matrix at the assignment, plus its exact rank."""
        values = []
        for i in range(1, self.k + 1):
            row = []
            for c in range(1, self.n + 1):
                e = self.entry(i, c)
                row.append(e.evaluate(assignment) if e else Fraction(0))
            values.append(tuple(row))
        grid = tuple(values)
        return grid, mat_rank(grid)


def matrix_from_sets(
    V: Sequence[Iterable[int]], n: int | None = None
) -> SymbolicMatrix:
    """Symbolic matrix of a set system; column count inferred if omitted."""
    rows = [frozenset(int(v) for v in row) for row in V]
    if not rows:
        raise StructuralError("a matrix needs at least one row")
    for row in rows:
        if not row:
            raise StructuralError("empty row support")
    hi = max(max(row) for row in rows)
    if n is None:
        n = hi
    if hi > n or min(min(row) for row in rows) < 1:
        raise StructuralError(f"supports not within [1, {n}]")
    return SymbolicMatrix(n=n, supports=tuple(rows))


def jacobian_det(
    old_vars: Sequence[VarId],
    new_vars: Sequence[VarId],
    subst: Mapping[VarId, Polynomial],
) -> Polynomial:
    """Determinant of the Jacobian of a change of variables.

    ``subst`` writes each old variable as a polynomial in the new
    ones; entry (i, j) of the Jacobian is d(old_i)/d(new_j).
    """
    if len(old_vars) != len(new_vars):
        raise StructuralError("change of variables must be square")
    rows = []
    for old in old_vars:
        expr = subst[old]
        rows.append([expr.derivative(nv) for nv in new_vars])
    return poly_det(rows)
