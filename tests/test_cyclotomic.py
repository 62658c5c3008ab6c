"""Exact cyclotomic arithmetic: canonical reduction, Galois action, conductors.

The independent oracle is arithmetic in Z[t]/(t^n - 1) reduced by sympy's
cyclotomic polynomial: our canonical coefficients, re-expanded to polynomials,
must match sympy's remainder computation for sums and products.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from charverify.cyclotomic import (
    CyclotomicNumber,
    GaloisSubgroup,
    _check_fixedness_int64,
    _column_orders,
    _reduction_rows,
    conductors_from_fixedness,
    divisors,
    galois_fixed_rows,
    unit_residues,
)
from charverify.grouptable import CharacterTable
from charverify.ladic import hd_subgroup

from scalar_oracles import conductor, is_fixed_by, root_of_unity


def test_divisors_and_phi():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    # phi(n) as the number of units mod n
    assert len(unit_residues(1)) == 1
    assert len(unit_residues(12)) == 4
    assert [len(unit_residues(n)) for n in (2, 3, 8, 9)] == [1, 2, 4, 6]


def test_canonical_reduction_small():
    # zeta_3^2 = -1 - zeta_3
    x = root_of_unity(3, 2)
    assert x.coeffs == {0: Fraction(-1), 1: Fraction(-1)}
    # 1 + zeta_5 + ... + zeta_5^4 = 0
    s = CyclotomicNumber(5, {e: Fraction(1) for e in range(5)})
    assert s.is_zero()
    # zeta_6 = 1 + zeta_3 lives in the phi(6)=2 basis
    z6 = root_of_unity(6)
    assert z6 * z6 * z6 == CyclotomicNumber.from_rational(-1)


def test_rational_detection():
    x = root_of_unity(8, 4)  # = -1
    assert x.is_rational() and x.rational_value() == -1
    y = root_of_unity(8, 2) * root_of_unity(8, 2)  # = zeta_4^2 = -1
    assert y == -1 == x
    assert (x - x).is_zero()
    with pytest.raises(ValueError):
        root_of_unity(8).rational_value()


def test_equality_across_orders():
    # zeta_3 written at order 12 equals zeta_3 at order 3
    a = root_of_unity(12, 4)
    b = root_of_unity(3, 1)
    assert a == b
    assert root_of_unity(6, 3) == CyclotomicNumber.from_rational(-1, 4)
    assert root_of_unity(5) != root_of_unity(7)


def test_unhashable():
    with pytest.raises(TypeError):
        hash(root_of_unity(5))
    with pytest.raises(TypeError):
        {root_of_unity(5)}


def test_galois_apply_frozen_example():
    # sigma_2 maps zeta_3 - zeta_3^2 to its negative
    x = root_of_unity(3, 1) - root_of_unity(3, 2)
    assert x.galois(2) == -x
    with pytest.raises(ValueError):
        x.galois(3)
    # identity element of the action
    assert x.galois(1) == x


def test_galois_is_multiplicative():
    x = root_of_unity(12, 1) + 2 * root_of_unity(12, 5)
    for k in (5, 7, 11):
        for j in (5, 7, 11):
            assert x.galois(j).galois(k) == x.galois((k * j) % 12)
    y = root_of_unity(12, 2)
    for k in (5, 7, 11):
        assert (x * y).galois(k) == x.galois(k) * y.galois(k)
        assert (x + y).galois(k) == x.galois(k) + y.galois(k)


def test_conductor_frozen_examples():
    assert conductor(root_of_unity(3) - root_of_unity(3, 2)) == 3
    assert conductor(root_of_unity(8)) == 8
    assert conductor(CyclotomicNumber.from_rational(7, 12)) == 1
    # zeta_4 written at order 8 has conductor 4
    assert conductor(root_of_unity(8, 2)) == 4
    # sqrt(2) = zeta_8 + zeta_8^{-1} has conductor 8
    assert conductor(root_of_unity(8, 1) + root_of_unity(8, 7)) == 8
    # sqrt(-3) = zeta_3 - zeta_3^2 at order 12 still has conductor 3
    x = root_of_unity(12, 4) - root_of_unity(12, 8)
    assert conductor(x) == 3


def test_conductor_never_two_times_odd():
    # Q(zeta_{2m}) = Q(zeta_m) for odd m, and the sweep returns the smaller
    rng = random.Random(7)
    for _ in range(200):
        n = rng.choice([2, 3, 4, 6, 8, 9, 10, 12, 15, 18, 20, 24])
        x = CyclotomicNumber(
            n, {rng.randrange(n): Fraction(rng.randint(-3, 3)) for _ in range(3)}
        )
        assert conductor(x) % 4 != 2


def test_conductor_of_roots_of_unity():
    # a root of exact order m generates Q(zeta_m); the minimal conductor is m,
    # except m = 2 mod 4 where it is m/2
    for n in range(1, 25):
        for k in range(n):
            m = n // math.gcd(k, n)
            expected = m // 2 if m % 4 == 2 else m
            assert conductor(root_of_unity(n, k)) == expected


def test_serialization_round_trip():
    x = root_of_unity(12, 5) * Fraction(3, 2) - root_of_unity(12, 1) + Fraction(1, 3)
    data = x.to_dict()
    assert data["order"] == 12
    assert all(len(t) == 3 for t in data["coeffs"])
    y = CyclotomicNumber(
        data["order"], {e: Fraction(num, den) for e, num, den in data["coeffs"]}
    )
    assert x == y
    assert data == y.to_dict()


def test_galois_subgroup_validation():
    H = GaloisSubgroup(8, [1, 5])
    assert 5 in H and 3 not in H and 13 in H
    with pytest.raises(ValueError):
        GaloisSubgroup(8, [1, 4])  # not coprime
    with pytest.raises(ValueError):
        GaloisSubgroup(8, [5])  # missing identity
    with pytest.raises(ValueError):
        GaloisSubgroup(12, [1, 5, 7])  # not closed (5*7 = 35 = 11 mod 12)
    assert len(GaloisSubgroup.full(12)) == 4


def test_is_fixed_by_requires_matching_modulus():
    x = root_of_unity(8, 2)
    H = GaloisSubgroup(8, [1, 5])
    assert is_fixed_by(x, H)
    with pytest.raises(ValueError):
        is_fixed_by(x, GaloisSubgroup(4, [1]))
    assert not is_fixed_by(root_of_unity(8), H)


# ---------------------------------------------------------------------------
# sympy oracle: arithmetic in Z[t]/(t^n - 1) reduced mod the cyclotomic factor
# ---------------------------------------------------------------------------


def _dict_to_sympy_poly(coeffs, t, sympy):
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * t**e for e, c in coeffs.items()
    )
    return sympy.Poly(expr, t, domain="QQ")


def _to_sympy_poly(x, t, sympy):
    return _dict_to_sympy_poly(x.coeffs, t, sympy)


def _oracle_reduce(poly, n, t, sympy):
    return poly.rem(sympy.Poly(sympy.cyclotomic_poly(n, t), t, domain="QQ"))


def test_arithmetic_against_sympy_oracle():
    import sympy

    t = sympy.symbols("t")
    rng = random.Random(2024)
    checked = 0
    for _ in range(500):
        n = rng.randint(1, 24)
        a_raw = {rng.randrange(n): Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))}
        b_raw = {rng.randrange(n): Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))}
        a = CyclotomicNumber(n, a_raw)
        b = CyclotomicNumber(n, b_raw)
        # oracle works in the quotient ring directly from the raw dicts
        a_poly = _dict_to_sympy_poly(a_raw, t, sympy)
        b_poly = _dict_to_sympy_poly(b_raw, t, sympy)
        modulus = sympy.Poly(t**n - 1, t, domain="QQ")
        for ours, theirs in (
            (a + b, a_poly + b_poly),
            (a * b, (a_poly * b_poly).rem(modulus)),
            (a - b, a_poly - b_poly),
        ):
            got = _to_sympy_poly(ours, t, sympy)
            want = _oracle_reduce(theirs, n, t, sympy)
            assert _oracle_reduce(got, n, t, sympy) == want, (n, a_raw, b_raw)
        checked += 1
    assert checked == 500


def test_galois_against_sympy_oracle():
    import sympy

    t = sympy.symbols("t")
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(2, 20)
        units = [k for k in range(1, n) if math.gcd(k, n) == 1] or [1]
        k = rng.choice(units)
        raw = {rng.randrange(n): Fraction(rng.randint(-3, 3)) for _ in range(2)}
        x = CyclotomicNumber(n, raw)
        # oracle: substitute t -> t^k in the raw polynomial, reduce mod t^n - 1
        image_raw = {}
        for e, c in raw.items():
            ee = (e * k) % n
            image_raw[ee] = image_raw.get(ee, Fraction(0)) + c
        assert x.galois(k) == CyclotomicNumber(n, image_raw)
        got = _to_sympy_poly(x.galois(k), t, sympy)
        raw_poly = _dict_to_sympy_poly(image_raw, t, sympy)
        assert _oracle_reduce(got, n, t, sympy) == _oracle_reduce(raw_poly, n, t, sympy)


@given(st.integers(min_value=1, max_value=20), st.data())
@settings(max_examples=150, deadline=None)
def test_lift_preserves_value_and_conductor(n, data):
    mult = data.draw(st.integers(min_value=1, max_value=4))
    exps = data.draw(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=3))
    coeffs = data.draw(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=len(exps), max_size=len(exps))
    )
    x = CyclotomicNumber(n, dict(zip(exps, map(Fraction, coeffs))))
    y = x.lift(n * mult)
    assert x == y
    assert conductor(x) == conductor(y)


@given(st.integers(min_value=1, max_value=24), st.data())
@settings(max_examples=150, deadline=None)
def test_conductor_element_is_fixed_exactly_by_stabilizer(n, data):
    exps = data.draw(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=3))
    x = CyclotomicNumber(n, {e: Fraction(1) for e in exps})
    c = conductor(x)
    assert n % c == 0
    units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    # fixed by everything congruent to 1 mod c
    assert all(x.galois(k) == x for k in units if k % c == 1 % c)
    # minimality: no proper divisor of c works
    for c2 in divisors(n):
        if c2 < c:
            assert not all(x.galois(k) == x for k in units if k % c2 == 1 % c2)


# ---------------------------------------------------------------------------
# whole-array fixedness against the scalar oracles
# ---------------------------------------------------------------------------


def _random_raw(rng, n, rows=6, cols=5):
    """A sparse random (rows, cols, n) value array; some columns only use
    exponents on the grid of a proper divisor of n, as Dixon columns do."""
    raw = np.zeros((rows, cols, n), dtype=np.int64)
    for j in range(cols):
        o = rng.choice(divisors(n))
        for i in range(rows):
            for e in rng.sample(range(o), min(o, rng.randint(0, 3))):
                raw[i, j, e * (n // o)] = rng.randint(-3, 3)
    return raw


def _value(raw, i, j):
    n = raw.shape[2]
    return CyclotomicNumber(n, {e: Fraction(int(c)) for e, c in enumerate(raw[i, j]) if c})


@pytest.mark.parametrize("n", [1, 2, 4, 6, 8, 9, 12, 15, 20, 24])
def test_galois_fixed_rows_against_scalar_galois(n):
    rng = random.Random(n)
    for _ in range(4):
        raw = _random_raw(rng, n)
        units = unit_residues(n)
        fixed = galois_fixed_rows(raw, units)
        for t, k in enumerate(units):
            for i in range(raw.shape[0]):
                row = [_value(raw, i, j) for j in range(raw.shape[1])]
                assert fixed[t, i] == all(x.galois(k) == x for x in row), (n, k, i)


@pytest.mark.parametrize("n", [1, 3, 4, 10, 12, 18, 24])
def test_row_conductors_and_subgroup_fixedness_against_oracles(n):
    rng = random.Random(100 + n)
    raw = _random_raw(rng, n, rows=10, cols=4)
    rows = [[_value(raw, i, j) for j in range(raw.shape[1])] for i in range(raw.shape[0])]
    # the table passes, on these values and an identity column of degrees
    degrees = np.zeros((raw.shape[0], 1, n), dtype=np.int64)
    degrees[:, 0, 0] = 1
    C = raw.shape[1] + 1
    table = CharacterTable(np.concatenate([degrees, raw], axis=1), [1] * C, [1] + [n] * (C - 1), 1)
    expected = [math.lcm(*(conductor(x) for x in row)) for row in rows]
    assert table.conductors().tolist() == expected
    for d in range(1, 13):
        N = math.lcm(n, d)
        H = hd_subgroup(d, N)
        want = [all(is_fixed_by(x.lift(N), H) for x in row) for row in rows]
        assert table.hd_fixed_rows(d).tolist() == want, d


def test_unit_residues_and_column_orders():
    assert unit_residues(1) == (0,)
    assert unit_residues(12) == (1, 5, 7, 11)
    raw = np.zeros((1, 3, 12), dtype=np.int64)
    raw[0, 1, 6] = 1  # -1: order 2
    raw[0, 2, [4, 8]] = [1, 2]  # in Z[zeta_3]
    assert _column_orders(raw).tolist() == [1, 2, 3]


def test_conductor_sweep_picks_smallest_divisor():
    # unit_residues(12) = (1, 5, 7, 11); a row fixed by sigma_1 and sigma_7
    # only is fixed by every k = 1 mod 3 ({1, 7}) but not by every
    # k = 1 mod 2 or 1 mod 1: its field is Q(zeta_3)
    fixed = np.array([[True], [False], [True], [False]])
    assert conductors_from_fixedness(fixed, 12).tolist() == [3]
    assert conductors_from_fixedness(np.ones((4, 1), dtype=bool), 12).tolist() == [1]


def test_galois_fixed_rows_rejects_non_units():
    raw = np.zeros((1, 1, 6), dtype=np.int64)
    with pytest.raises(ValueError):
        galois_fixed_rows(raw, [2])


@pytest.mark.parametrize("n", [4, 12, 105])
def test_fixedness_int64_guard_boundary(n):
    largest = max(abs(c) for row in _reduction_rows(n) for c in row)
    limit = (2**63 - 1) // (n * largest)
    _check_fixedness_int64(limit, n)  # n * limit * largest < 2^63
    with pytest.raises(OverflowError):
        _check_fixedness_int64(limit + 1, n)


def test_galois_fixed_rows_refuses_overflow_up_front():
    raw = np.zeros((1, 1, 4), dtype=np.int64)
    raw[0, 0, 1] = 2**61  # 4 * 2^61 * 1 = 2^63
    with pytest.raises(OverflowError):
        galois_fixed_rows(raw, [3])
    raw[0, 0, 1] = 2**61 - 1
    assert galois_fixed_rows(raw, [3]).tolist() == [[False]]
