"""Tests for the diagonal-torus Lang-map identities in SL_n."""

import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from charverify.langmap import (
    DiagonalTorusElement,
    FiniteFieldElement,
    enumerate_field,
    jacobi_symbol,
    lang_image,
    modulus_poly,
    principal_cochar_value,
    quadratic_nonresidue,
    sqrt_in_quadratic,
    verify_cor55,
)

from scalar_oracles import (
    cor55_by_multiplication,
    ff_mul,
    ff_pow,
    power_by_multiplication,
    sqrt_by_search,
)

SWEEP_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def ff(p, value, e=1):
    return FiniteFieldElement(p, (value % p,) + (0,) * (e - 1))


def test_sqrt_memo_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError):
            sqrt_in_quadratic(9, 2)
        with pytest.raises(ValueError):
            sqrt_in_quadratic(1, 0)
    # keyed on k mod p; the cached element is immutable
    c = sqrt_in_quadratic(7, 3)
    assert sqrt_in_quadratic(7, 10) is c
    assert ff_mul(c, c) == ff(7, 3, 2)


class TestFieldArithmetic:
    def test_modulus_documented(self):
        assert modulus_poly(2) == (1, 1, 1)  # x^2 + x + 1
        assert quadratic_nonresidue(7) == 3
        assert modulus_poly(7) == (4, 0, 1)  # x^2 - 3
        assert quadratic_nonresidue(3) == 2

    @pytest.mark.parametrize("p", [p for p in SWEEP_PRIMES if p > 2])
    def test_nonresidue_is_nonresidue(self, p):
        t = quadratic_nonresidue(p)
        squares = {(x * x) % p for x in range(1, p)}
        assert t not in squares

    def test_prime_field_mul(self):
        assert ff_mul(ff(7, 3), ff(7, 5)) == ff(7, 1)
        assert ff_mul(ff(5, 2), ff(5, 4)) == ff(5, 3)

    def test_generator_squares_to_nonresidue(self):
        # x * x = t in F_{p^2} = F_p[x]/(x^2 - t).
        p = 7
        x = FiniteFieldElement(p, (0, 1))
        assert ff_mul(x, x) == ff(p, quadratic_nonresidue(p))

    def test_char2_modulus_relation(self):
        # x^2 = x + 1 in F_4.
        x = FiniteFieldElement(2, (0, 1))
        assert ff_mul(x, x) == FiniteFieldElement(2, (1, 1))
        # x has multiplicative order 3.
        assert ff_pow(x, 3) == ff(2, 1)

    def test_cross_degree_equality(self):
        assert ff(7, 3) == ff(7, 3, 2)
        assert ff(7, 3) != ff(7, 4, 2)
        assert hash(ff(7, 3)) == hash(ff(7, 3, 2))

    @pytest.mark.parametrize("p", [3, 7, 13])
    def test_field_group_structure(self, p):
        # Every nonzero element has multiplicative order dividing p^2 - 1.
        one = ff(p, 1, 2)
        for c in enumerate_field(p, 2):
            if c.is_zero:
                continue
            assert ff_pow(c, p * p - 1) == one
            assert ff_mul(c, power_by_multiplication(c, -1)) == one

    def test_pow_negative(self):
        c = FiniteFieldElement(7, (2, 3))
        assert ff_pow(c, -2) == ff_pow(power_by_multiplication(c, -1), 2)
        assert ff_pow(c, 0) == ff(7, 1, 2)

    def test_zero_rejections(self):
        zero = ff(7, 0)
        with pytest.raises(ZeroDivisionError):
            ff_pow(zero, -1)

    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteFieldElement(6, (1,))  # not prime
        with pytest.raises(ValueError):
            FiniteFieldElement(7, (9,))  # not reduced
        with pytest.raises(ValueError):
            FiniteFieldElement(7, (1, 2, 3))  # cubic


class TestSqrtSearch:
    @pytest.mark.parametrize("p", SWEEP_PRIMES)
    def test_all_units_have_roots(self, p):
        for k in range(1, p):
            c = sqrt_in_quadratic(p, k)
            assert ff_mul(c, c) == ff(p, k, 2)

    def test_residues_stay_in_prime_field(self):
        # 2 is a square mod 7 (4^2 = 2), so its root is a prime-field value.
        c = sqrt_in_quadratic(7, 2)
        assert c.coeffs[1] == 0
        # 3 is a non-residue mod 7: the root needs the extension.
        c = sqrt_in_quadratic(7, 3)
        assert c.coeffs[1] != 0

    @pytest.mark.parametrize("p", SWEEP_PRIMES)
    def test_root_table_matches_exhaustive_search(self, p):
        for k in range(p):
            c = sqrt_in_quadratic(p, k)
            expected = sqrt_by_search(p, k)
            assert c == expected and c.coeffs == expected.coeffs, (p, k)
            assert sqrt_in_quadratic(p, k + 3 * p) is c
            assert sqrt_in_quadratic(p, k - p) is c

    def test_key_identity_c_to_2q2(self):
        # c^(2(q-1)) = (c^2)^(q-1) = k^(q-1) = 1 whenever k is a unit of F_q.
        for p in SWEEP_PRIMES:
            for e in (1, 2):
                q = p**e
                for k in range(1, p):
                    c = sqrt_in_quadratic(p, k)
                    assert ff_pow(c, 2 * (q - 1)) == ff(p, 1, 2)


class TestJacobiSymbol:
    def test_frozen_values(self):
        assert jacobi_symbol(3, 7) == -1  # squares mod 7 are {1, 2, 4}
        assert jacobi_symbol(2, 7) == 1
        assert jacobi_symbol(1, 1) == 1

    def test_two_power_convention(self):
        for k in (1, 3, 5, 17):
            for e in (1, 2, 3, 4):
                assert jacobi_symbol(k, 2**e) == 1

    def test_squares_give_one(self):
        for q in (3, 5, 7, 9, 15, 21, 25):
            for k in range(1, q):
                if math.gcd(k, q) == 1:
                    assert jacobi_symbol(k * k, q) == 1

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            jacobi_symbol(21, 9)
        with pytest.raises(ValueError):
            jacobi_symbol(7, 21)
        with pytest.raises(ValueError):
            jacobi_symbol(3, 6)  # even, not a 2-power

    @given(st.integers(-100, 100), st.integers(1, 120))
    @settings(max_examples=300, deadline=None)
    def test_matches_sympy(self, k, q):
        if q % 2 == 0:
            return
        if math.gcd(k, q) != 1:
            return
        assert jacobi_symbol(k, q) == sympy.jacobi_symbol(k, q)

    def test_multiplicative_in_k(self):
        q = 15
        units = [k for k in range(1, q) if math.gcd(k, q) == 1]
        for a in units:
            for b in units:
                assert jacobi_symbol(a * b, q) == jacobi_symbol(
                    a, q
                ) * jacobi_symbol(b, q)


class TestPrincipalCochar:
    def test_identity_at_one(self):
        t = principal_cochar_value(5, ff(7, 1))
        assert t.scalar_value() == ff(7, 1)

    def test_minus_one_n4(self):
        # Exponents 3, 1, -1, -3 are all odd: (-1)^odd = -1 entrywise.
        t = principal_cochar_value(4, ff(7, -1))
        assert t.scalar_value() == ff(7, 6)

    def test_central_element_parity(self):
        # (-1)^(n-1) Id has determinant 1 exactly because n(n-1) is even.
        for n in range(2, 7):
            z = DiagonalTorusElement((ff(7, (-1) ** (n - 1)),) * n)
            expected = 1 if n % 2 == 1 else 6
            assert z.scalar_value() == ff(7, expected)

    def test_frozen_f49_example(self):
        # n = 3, c^2 = 3 in F_49: exponents (2, 0, -2) give diag(3, 1, 3^-1),
        # all entries landing in the prime field F_7.
        c = sqrt_in_quadratic(7, 3)
        t = principal_cochar_value(3, c)
        assert t.entries == (ff(7, 3), ff(7, 1), ff(7, 5))

    def test_exponent_vector(self):
        c = FiniteFieldElement(11, (4, 9))
        t = principal_cochar_value(4, c)
        assert t.entries == tuple(ff_pow(c, m) for m in (3, 1, -1, -3))

    def test_determinant_enforced(self):
        c = ff(7, 2)
        with pytest.raises(ValueError):
            DiagonalTorusElement((c, c))  # det 4 != 1
        with pytest.raises(ValueError):
            principal_cochar_value(1, c)
        with pytest.raises(ValueError):
            principal_cochar_value(3, ff(7, 0))

    def test_determinant_enforced_on_pairs(self):
        # x^2 = 3 in F_49: det(x, x) = 3, det(x, x, 5) = 15 = 1 mod 7.
        x = FiniteFieldElement(7, (0, 1))
        with pytest.raises(ValueError, match="determinant"):
            DiagonalTorusElement((x, x))
        with pytest.raises(ValueError, match="determinant"):
            DiagonalTorusElement((x, ff(7, 3, 2), ff(7, 1)))
        t = DiagonalTorusElement((x, x, ff(7, 5)))
        assert t.entries[2].e == 1
        # F_4: x * (x + 1) = x^2 + x = 1, so det(x, x + 1) = 1 but not det(x, x).
        y = FiniteFieldElement(2, (0, 1))
        DiagonalTorusElement((y, FiniteFieldElement(2, (1, 1))))
        with pytest.raises(ValueError, match="determinant"):
            DiagonalTorusElement((y, y))
        with pytest.raises(TypeError):
            DiagonalTorusElement((ff(7, 3), ff(5, 2)))
        with pytest.raises(ValueError):
            DiagonalTorusElement((ff(7, 1), ff(7, 0)))

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 2), (7, 1), (7, 2), (13, 2)])
    def test_entries_match_element_powers(self, p, e):
        # Values built on coefficient pairs equal FiniteFieldElement powers,
        # entry by entry and degree by degree.
        for c in enumerate_field(p, e):
            if c.is_zero:
                continue
            for n in (2, 3, 5):
                t = principal_cochar_value(n, c)
                powers = tuple(ff_pow(c, m) for m in range(n - 1, -n, -2))
                assert [x.coeffs for x in t.entries] == [x.coeffs for x in powers]
                image = lang_image(t, p**e)
                expected = tuple(ff_pow(x, p**e - 1) for x in powers)
                assert [x.coeffs for x in image.entries] == [x.coeffs for x in expected]


class TestLangImage:
    def test_prime_field_torus_fixed(self):
        # Entries in F_q are Frobenius-fixed: Lang image is the identity.
        t = DiagonalTorusElement((ff(7, 3), ff(7, 5), ff(7, 1)))
        image = lang_image(t, 7)
        assert image.scalar_value() == ff(7, 1)

    def test_frozen_n3_q7(self):
        c = sqrt_in_quadratic(7, 3)
        image = lang_image(principal_cochar_value(3, c), 7)
        assert image.scalar_value() == ff(7, 1)  # 3^6 = 1 mod 7

    def test_frozen_n2_q7(self):
        # c^6 = (c^2)^3 = 27 = -1 mod 7: the image is -Id.
        c = sqrt_in_quadratic(7, 3)
        image = lang_image(principal_cochar_value(2, c), 7)
        assert image.scalar_value() == ff(7, 6)

    def test_q_must_match_characteristic(self):
        t = DiagonalTorusElement((ff(7, 3), ff(7, 5), ff(7, 1)))
        with pytest.raises(ValueError):
            lang_image(t, 5)


class TestCor55a:
    def test_frozen_cases(self):
        assert verify_cor55(3, 7, 1, 3)[0]  # both sides Id
        assert verify_cor55(2, 7, 1, 3)[0]  # both sides -Id

    def test_char2_cases(self):
        for n in range(2, 7):
            for e in (1, 2):
                assert verify_cor55(n, 2, e, 1)[0]

    @pytest.mark.parametrize("p", SWEEP_PRIMES)
    @pytest.mark.parametrize("e", [1, 2])
    def test_full_sweep(self, p, e):
        for n in range(2, 7):
            for k in range(1, p):
                assert verify_cor55(n, p, e, k)[0], (n, p, e, k)

    @pytest.mark.parametrize("p", SWEEP_PRIMES)
    @pytest.mark.parametrize("e", [1, 2])
    def test_prop51a_membership_sweep(self, p, e):
        for n in range(2, 7):
            for k in range(1, p):
                assert verify_cor55(n, p, e, k)[1], (n, p, e, k)

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_cor55(3, 7, 3, 2)  # e out of range
        with pytest.raises(ValueError):
            verify_cor55(3, 7, 1, 14)  # k not a unit
        with pytest.raises(ValueError):
            verify_cor55(3, 8, 1, 3)  # p not prime


class TestIntegerPowers:
    """Square-and-multiply on coefficient integers (``_pow_quadratic``,
    through ``ff_pow``) against repeated multiplication."""

    FIELDS = [(2, 1), (3, 1), (7, 1), (23, 1), (2, 2), (3, 2), (7, 2), (23, 2)]

    @pytest.mark.parametrize("p,e", FIELDS)
    def test_matches_repeated_multiplication(self, p, e):
        order = p**e
        exponents = sorted({0, 1, -1, 2, -2, order - 1, p * p - 2, 528})
        for x in enumerate_field(p, e):
            for k in exponents:
                if x.is_zero and k <= 0:
                    with pytest.raises(ZeroDivisionError):
                        ff_pow(x, k)
                    with pytest.raises(ZeroDivisionError):
                        power_by_multiplication(x, k)
                    continue
                got = ff_pow(x, k)
                assert got == power_by_multiplication(x, k), (x, k)
                assert got.coeffs == power_by_multiplication(x, k).coeffs
                assert got.e == e

    def test_one_element_per_entry(self, monkeypatch):
        """The cocharacter value and its Lang image build each entry once,
        through the trusted constructor, and no element on the way."""
        import charverify.langmap as langmap_mod

        built = []
        original = langmap_mod.FiniteFieldElement._reduced.__func__

        def counting(cls, p, coeffs):
            built.append(coeffs)
            return original(cls, p, coeffs)

        c = FiniteFieldElement(23, (5, 17))
        monkeypatch.setattr(langmap_mod.FiniteFieldElement, "_reduced", classmethod(counting))
        for n in (2, 3, 6):
            built.clear()
            t = principal_cochar_value(n, c)
            assert len(built) == n
            lang_image(t, 23**2)
            assert len(built) == 2 * n

    def test_cor55_matches_oracle_on_default_grid(self):
        for p in SWEEP_PRIMES:
            for e in (1, 2):
                for n in range(2, 7):
                    for k in range(1, p):
                        assert verify_cor55(n, p, e, k) == cor55_by_multiplication(
                            n, p, e, k
                        ), (n, p, e, k)
