"""Reference oracles for the tests; not collected, imported by test modules.

``MatrixMatroid`` ranks a matrix of polynomial entries one exact symbolic
minor at a time.  The library reads a vanishing quadratic's limit matroid
as the max-rank pair of two transversal systems
(``wlpoles.poles.Limit.systems``); this oracle ranks the symbolic limit
rows (``wlpoles.poles.Limit.rows``) directly, so the tests can hold the
rule to it.

``vanish_on_boundary_witness`` finds an exact point where a factor of R
vanishes and some necklace minor of the diagram's matrix does too, so
the factor's zero set meets the cell's boundary.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from wlpoles.diagrams import WilsonLoopDiagram
from wlpoles.errors import InconsistencyError, StructuralError
from wlpoles.exact import Polynomial, VarId, mat_rank, poly_det, specialize
from wlpoles.matroids import Matroid
from wlpoles.poles import PoleFactor, r_poly_edge
from wlpoles.positroids import diagram_matrix, diagram_matroid, necklace, necklace_minors
from wlpoles.sampling import rand_fraction, seeded_rng


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


@dataclass(frozen=True)
class BoundaryWitness:
    factor: PoleFactor
    assignment: tuple[tuple[VarId, Fraction], ...]
    vanishing_shifts: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "factor": self.factor.to_json(),
            "assignment": {
                f"{vid.row},{vid.col}": str(val) for vid, val in self.assignment
            },
            "vanishing_shifts": list(self.vanishing_shifts),
        }


def vanish_on_boundary_witness(
    W: WilsonLoopDiagram, f: PoleFactor, seed: int = 0
) -> BoundaryWitness:
    """Exact rational point where f vanishes and the point leaves the cell.

    All other entries are random positive rationals; the factor is
    killed by zeroing its entry or imposing the 2x2 proportionality.
    At least one necklace minor must vanish there, which certifies the
    point sits on the cell boundary.
    """
    if f not in r_poly_edge(W).factor_set():
        raise StructuralError(f"factor {f.label()} is not a factor of R({W})")
    supports = W.supports()
    rng = seeded_rng(seed, "witness", str(W), f.label())
    assignment: dict[VarId, Fraction] = {}
    for r0, V in enumerate(supports, start=1):
        for c in sorted(V):
            assignment[VarId(r0, c)] = rand_fraction(rng)
    if f.kind == "var":
        assignment[VarId(f.rows[0], f.cols[0])] = Fraction(0)
    else:
        ra, rb = f.rows
        t = rand_fraction(rng)
        for c in f.cols:
            assignment[VarId(rb, c)] = t * assignment[VarId(ra, c)]
    if f.polynomial().evaluate(assignment) != 0:
        raise InconsistencyError(f"witness failed to kill {f.label()}")

    minors = necklace_minors(diagram_matrix(W), necklace(diagram_matroid(W)))
    shifts = tuple(
        a for a, m in enumerate(minors, start=1) if m.evaluate(assignment) == 0
    )
    if not shifts:
        raise InconsistencyError(
            f"no necklace minor vanishes at the {f.label()} witness of {W};"
            " the factor would not lie on the cell boundary"
        )
    return BoundaryWitness(
        factor=f,
        assignment=tuple(sorted(assignment.items())),
        vanishing_shifts=shifts,
    )
