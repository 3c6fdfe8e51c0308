"""Reference oracles for the tests; not collected, imported by test modules.

``MatrixMatroid`` ranks a matrix of polynomial entries one exact symbolic
minor at a time.  The library reads a vanishing quadratic's limit matroid
as the max-rank pair of two transversal systems
(``wlpoles.poles.Limit.systems``); this oracle ranks the symbolic limit
rows (``wlpoles.poles.Limit.rows``) directly, so the tests can hold the
rule to it.
"""

import itertools
from typing import Mapping, Sequence

from wlpoles.errors import StructuralError
from wlpoles.exact import Polynomial, VarId, mat_rank, poly_det, specialize
from wlpoles.matroids import Matroid
from wlpoles.sampling import seeded_rng


class MatrixMatroid(Matroid):
    """Matroid of a matrix of polynomial entries over the rationals.

    Needed when entries are not algebraically independent (limit
    configurations with a proportional row).  Rank of a column set is
    the largest r with a symbolically nonzero r x r minor; a random
    exact evaluation provides the lower bound cheaply and the minors
    certify it and cap it.
    """

    def __init__(self, n: int, rows: Sequence[Mapping[int, Polynomial]]):
        super().__init__()
        if n < 1 or n > 64:
            raise StructuralError(f"ground size {n} outside [1, 64]")
        self.n = n
        self.ground_mask = (1 << n) - 1
        self.rows = tuple(
            {c: p for c, p in row.items() if not p.is_zero()} for row in rows
        )
        # one integer probe point, and the probe matrix over all n
        # columns evaluated once; a rank query only selects its columns
        self._probe: dict[VarId, int] = {}
        rng = seeded_rng(104729, "matrixmatroid", n, len(self.rows))
        self._probe_rows = specialize(self.rows, n, self._probe, rng)

    def _numeric_rows(self, cols: Sequence[int]) -> list[list]:
        return [[row[c - 1] for c in cols] for row in self._probe_rows]

    def _rank(self, mask: int) -> int:
        cols = [v + 1 for v in range(self.n) if mask >> v & 1]
        if not cols:
            return 0
        r = mat_rank(self._numeric_rows(cols))
        cap = min(len(self.rows), len(cols))
        while r < cap and self._has_nonzero_minor(cols, r + 1):
            r += 1
        return r

    def _has_nonzero_minor(self, cols: Sequence[int], size: int) -> bool:
        for rsel in itertools.combinations(range(len(self.rows)), size):
            live = [c for c in cols if any(c in self.rows[i] for i in rsel)]
            if len(live) < size:
                continue
            for csel in itertools.combinations(live, size):
                grid = [
                    [self.rows[i].get(c, Polynomial.zero()) for c in csel]
                    for i in rsel
                ]
                if not poly_det(grid).is_zero():
                    return True
        return False
