"""Integer q-polynomials: cyclotomic factors, valuations, generic degrees."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charverify.partitions import Partition, partitions_of
from charverify.qpoly import (
    QPolynomial,
    cyclotomic_poly,
    generic_degree_typeA,
)
from scalar_oracles import (
    evaluate,
    fraction_divmod,
    generic_degree_typeA_by_division,
    num_standard_tableaux,
    phi_d_valuation,
    q_int_product,
)


def test_polynomial_basic_arithmetic():
    p = QPolynomial([1, 2])  # 2q + 1
    q = QPolynomial([0, 0, 3])  # 3q^2
    assert (p + q).coeffs == (1, 2, 3)
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert (p - p).is_zero()
    assert evaluate(p**3, 2) == 125
    assert QPolynomial([0, 0, 0]).coeffs == ()
    assert QPolynomial.monomial(4).pretty() == "q^4"


def test_divmod_exact_and_remainder():
    num = QPolynomial([-1, 0, 0, 0, 0, 0, 1])  # q^6 - 1
    den = QPolynomial([-1, 0, 1])  # q^2 - 1
    quo, rem = num.divmod(den)
    assert rem.is_zero()
    assert quo.coeffs == (1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        QPolynomial([1, 1, 1]).exact_div(QPolynomial([-1, 1]))


def test_divmod_matches_fraction_long_division():
    """Integer long division against long division over Q, on seeded random
    integer polynomials with monic and non-monic divisors: equal results
    when the rational quotient is integral, ValueError when it is not."""
    rng = random.Random(8)
    outcomes = {"integral": 0, "raised": 0}
    for _ in range(3000):
        num = QPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 9))])
        lead = rng.choice([1, -1, 2, -2, 3, 6])
        den = QPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 5))] + [lead])
        quo, rem = fraction_divmod(num.coeffs, den.coeffs)
        if all(c.denominator == 1 for c in quo):
            outcomes["integral"] += 1
            assert num.divmod(den) == (QPolynomial(quo), QPolynomial(rem))
        else:
            outcomes["raised"] += 1
            with pytest.raises(ValueError, match="non-integer coefficient"):
                num.divmod(den)
    assert min(outcomes.values()) > 500, outcomes


def test_divmod_non_integral_message():
    with pytest.raises(ValueError, match=r"non-integer coefficient 1/2 "):
        QPolynomial([0, 1]).divmod(QPolynomial([1, 2]))
    with pytest.raises(ValueError, match=r"non-integer coefficient -3/2 "):
        QPolynomial([0, 3]).divmod(QPolynomial([0, -2, 0]))


def test_cyclotomic_poly_frozen_values():
    assert cyclotomic_poly(1).coeffs == (-1, 1)
    assert cyclotomic_poly(2).coeffs == (1, 1)
    assert cyclotomic_poly(3).coeffs == (1, 1, 1)
    assert cyclotomic_poly(4).coeffs == (1, 0, 1)
    assert cyclotomic_poly(6).coeffs == (1, -1, 1)
    # q^4 - q^2 + 1
    assert cyclotomic_poly(12).coeffs == (1, 0, -1, 0, 1)
    assert cyclotomic_poly(12).pretty() == "q^4 - q^2 + 1"


def test_cyclotomic_product_identity():
    # q^n - 1 = prod_{d | n} Phi_d for n up to 30
    for n in range(1, 31):
        prod = QPolynomial([1])
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_poly(d)
        assert prod == QPolynomial.monomial(n) - QPolynomial([1])


def test_cyclotomic_poly_against_sympy():
    import sympy

    t = sympy.symbols("t")
    for n in range(1, 40):
        ours = cyclotomic_poly(n).coeffs
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs]


def test_phi_d_valuation_frozen_example():
    # q^4 + q^3 + q^2 = q^2 (q^2 + q + 1)
    poly = QPolynomial([0, 0, 1, 1, 1])
    assert phi_d_valuation(poly, 3) == 1
    assert phi_d_valuation(poly, 2) == 0
    assert phi_d_valuation(q_int_product([6, 6, 2]), 6) == 2


def test_generic_degree_frozen_values():
    assert generic_degree_typeA((2, 1)).pretty() == "q^2 + q"
    assert generic_degree_typeA((1, 1, 1)).pretty() == "q^3"
    for n in range(1, 9):
        assert generic_degree_typeA((n,)) == QPolynomial([1])


def test_generic_degree_matches_division_route():
    for n in range(0, 10):
        for lam in partitions_of(n):
            assert generic_degree_typeA(lam) == generic_degree_typeA_by_division(lam)


def test_generic_degree_at_one_counts_tableaux():
    for n in range(1, 11):
        for lam in partitions_of(n):
            assert evaluate(generic_degree_typeA(lam), 1) == num_standard_tableaux(lam)


def test_generic_degree_at_prime_powers_sums_to_group_order_factor():
    # sum over lambda of deg(q)^2 * (order of a torus part) is not asserted here;
    # instead check degrees are monic-positive and of degree n(lambda') dual bound
    for lam in partitions_of(6):
        poly = generic_degree_typeA(lam)
        assert poly.coeffs[-1] == 1
        assert evaluate(poly, 2) > 0


def test_in_uch_phid_prime():
    # Phi_2 divides q^2 + q = q Phi_2, so (2,1) is excluded at d = 2
    assert phi_d_valuation(generic_degree_typeA((2, 1)), 2) == 1
    assert phi_d_valuation(generic_degree_typeA((2, 1)), 3) == 0
    assert phi_d_valuation(generic_degree_typeA((3,)), 2) == 0


@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=0, max_size=8),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=0, max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_divmod_reconstructs(num_coeffs, den_coeffs):
    num = QPolynomial(num_coeffs)
    den = QPolynomial(den_coeffs + [1])  # monic divisor
    quo, rem = num.divmod(den)
    # num = quo * den + rem over Q; verify by evaluation at several points
    for x in (Fraction(2), Fraction(-1), Fraction(1, 3)):
        assert evaluate(num, x) == evaluate(quo, x) * evaluate(den, x) + evaluate(rem, x)
    assert len(rem.coeffs) < len(den.coeffs)
