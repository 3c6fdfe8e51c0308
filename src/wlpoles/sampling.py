"""Deterministic random sampling and positive twistor data.

Every random draw in the package flows through :func:`seeded_rng`, so
a single integer seed reproduces a whole run byte for byte.  A stream
is seeded with the text of its (seed, key) tuple, which ``random``
hashes with the interpreter's builtin sha512, so no OpenSSL library is
loaded.  Randomness only picks the points the exact checks run at,
and the sampled identities hold at every positive sample, so a
certificate whose checks pass depends on the seed only through the
``seed`` field it echoes.  Twistor matrices are built from Vandermonde
rows, which makes every ordered maximal minor positive by construction;
positivity is still verified exactly because downstream certificates
depend on it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import StructuralError
from .exact import clear_row, int_det


def seeded_rng(seed: int, *key) -> random.Random:
    """A Random stream derived from (seed, key) only.

    The stream is seeded with ``str((seed,) + key)``; ``random`` hashes a
    ``str`` seed with sha512 (seeding version 2), the same on every
    platform and Python version, whatever ``PYTHONHASHSEED`` is.  Streams
    differ with their keys, but a certificate whose checks pass depends
    on the draws only through its ``seed`` field.
    """
    return random.Random(str((seed,) + key))


def rand_fraction(rng: random.Random, lo: int = 1, hi: int = 1000) -> Fraction:
    """Positive rational with numerator and denominator in [lo, hi]."""
    return Fraction(rng.randint(lo, hi), rng.randint(lo, hi))


@dataclass(frozen=True)
class TwistorData:
    """External data: n twistor rows plus one gauge row, all exact.

    ``rows`` is an n-tuple of (k+4)-tuples with every ordered maximal
    minor strictly positive.  ``gauge`` is the reference row Z_0 used
    by the localization determinants.  ``cleared`` holds each row, and
    last the gauge row, times the lcm of its denominators, with that
    positive lcm; it is computed once per sample, so the determinants
    below run on integers.  ``memo`` holds values derived from this
    sample alone (``cancel.localize`` keeps each propagator's localized
    row there).  Neither is part of the sample's identity.
    """

    rows: tuple[tuple[Fraction, ...], ...]
    gauge: tuple[Fraction, ...]
    cleared: tuple[tuple[tuple[int, ...], int], ...] = field(init=False, compare=False, repr=False)
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        cleared = tuple((tuple(ints), m) for ints, m in map(clear_row, self.rows + (self.gauge,)))
        object.__setattr__(self, "cleared", cleared)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return len(self.rows[0])

    def check_positive(self) -> None:
        """Verify all ordered maximal minors are positive, exactly.

        Each minor's sign is read on the cleared integer rows: every
        row scale is positive, so it is the sign of the rational minor.
        """
        n, w = self.n, self.width
        if n < w:
            raise StructuralError(f"need at least {w} rows, got {n}")
        rows = [ints for ints, _ in self.cleared[:n]]
        for combo in itertools.combinations(range(n), w):
            if int_det([list(rows[i]) for i in combo]) <= 0:
                raise StructuralError(f"non-positive minor at rows {combo}")


def twistor_data(k: int, n: int, seed: int) -> TwistorData:
    """Seeded positive twistor data for diagrams in W(k, n).

    Rows are scaled Vandermonde vectors (1, t, ..., t^{k+3}) at
    strictly increasing positive rationals t, so ordered maximal
    minors are positive products of differences; the scales keep the
    sample varied without touching signs.  Every t = N/1000 is drawn
    first, the i-th (from 1) with N = 1000 i + a draw from [1, 999];
    then each row's scale a/b draws a, then b, from [1, 1000].  Entry j
    of the row is built from these integers as the one Fraction
    a N^j / (b 1000^j).
    """
    width = k + 4
    rng = seeded_rng(seed, "twistor", k, n)
    numerators = [1000 * i + rng.randint(1, 999) for i in range(1, n + 1)]
    rows = []
    for N in numerators:
        a, b = rng.randint(1, 1000), rng.randint(1, 1000)
        rows.append(tuple(Fraction(a * N**j, b * 1000**j) for j in range(width)))
    gauge = tuple(rand_fraction(rng) for _ in range(width))
    data = TwistorData(rows=tuple(rows), gauge=gauge)
    data.check_positive()
    return data
