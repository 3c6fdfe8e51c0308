"""Seeded randomness and exact positive twistor data."""

import itertools
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wlpoles
from wlpoles.errors import StructuralError
from wlpoles.exact import mat_det
from wlpoles.sampling import TwistorData, rand_fraction, seeded_rng, twistor_data


def test_seeded_rng_deterministic():
    a = [seeded_rng(5, "x", 1).random() for _ in range(3)]
    b = [seeded_rng(5, "x", 1).random() for _ in range(3)]
    c = [seeded_rng(5, "x", 2).random() for _ in range(3)]
    assert a == b
    assert a != c


def test_cli_import_loads_no_openssl():
    """Seeding hashes with the interpreter's builtin sha512, so a fresh
    interpreter that imports the CLI loads neither hashlib nor ssl."""
    src = str(Path(wlpoles.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); import wlpoles.cli; "
        "print(' '.join(sorted({'hashlib', '_hashlib', 'ssl', '_ssl'} & (set(sys.modules) - before))))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_rand_fraction_positive_bounded():
    rng = seeded_rng(0, "t")
    for _ in range(50):
        x = rand_fraction(rng)
        assert 0 < x
        assert x.numerator <= 1000 and x.denominator <= 1000


def test_twistor_positive_minors_brute_force():
    Z = twistor_data(1, 6, seed=3)
    assert Z.n == 6 and Z.width == 5
    Z.check_positive()
    for combo in itertools.combinations(range(6), 5):
        block = [[Fraction(x) for x in Z.rows[i]] for i in combo]
        assert mat_det(block) > 0


def test_twistor_zero_gauge():
    assert any(x != 0 for x in twistor_data(1, 5, seed=0).gauge)


def test_twistor_determinism():
    assert twistor_data(2, 6, seed=9) == twistor_data(2, 6, seed=9)
    assert twistor_data(2, 6, seed=9) != twistor_data(2, 6, seed=10)


def fraction_chain_twistor_rows(k, n, seed):
    """Twistor rows and gauge as a pow/mul chain of Fractions: t = i + 1 +
    r/1000, then scale * t**j; the reference for the integer draws."""
    width = k + 4
    rng = seeded_rng(seed, "twistor", k, n)
    ts = [Fraction(i + 1) + Fraction(rng.randint(1, 999), 1000) for i in range(n)]
    rows = []
    for t in ts:
        scale = rand_fraction(rng)
        rows.append(tuple(scale * t**j for j in range(width)))
    return tuple(rows), tuple(rand_fraction(rng) for _ in range(width))


@pytest.mark.parametrize("k, n", [(1, 6), (2, 7), (3, 9)])
def test_integer_draws_match_the_fraction_chain(k, n):
    for seed in range(20):
        Z = twistor_data(k, n, seed)
        rows, gauge = fraction_chain_twistor_rows(k, n, seed)
        assert (Z.rows, Z.gauge) == (rows, gauge)


def test_cleared_rows_are_positive_integer_multiples():
    Z = twistor_data(2, 7, seed=4)
    assert len(Z.cleared) == Z.n + 1  # the gauge row last
    for (ints, m), row in zip(Z.cleared, Z.rows + (Z.gauge,)):
        assert m > 0 and all(type(x) is int for x in ints)
        assert [Fraction(x, m) for x in ints] == list(row)
    assert not Z.memo


def test_check_positive_fails_on_a_negated_row():
    Z = twistor_data(2, 7, seed=4)
    Z.check_positive()
    rows = list(Z.rows)
    rows[3] = tuple(-x for x in rows[3])
    with pytest.raises(StructuralError, match="non-positive minor"):
        TwistorData(rows=tuple(rows), gauge=Z.gauge).check_positive()
