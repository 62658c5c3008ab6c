"""Residue-level number theory: orders, squares, subgroup models, root existence.

Brute-force oracles: explicit enumeration of powers, squares and r-th powers
in F_ell^x for every prime in range.
"""

import math

import pytest

from charverify.cyclotomic import GaloisSubgroup
from charverify.ladic import (
    central_product_splits,
    hd_subgroup,
    hell_subgroup,
    is_prime,
    is_prime_power,
    is_square_mod,
    mult_order,
    root_exists_for_integer,
    root_exists_in_Qell,
    sqrt_minus_q_fixed,
    sqrt_q_fixed,
)

from scalar_oracles import hell_residues_by_scan

PRIMES_TO_100 = [p for p in range(2, 101) if is_prime(p)]
ODD_PRIMES_TO_100 = [p for p in PRIMES_TO_100 if p > 2]


def test_is_prime_against_sieve():
    sieve = set()
    is_comp = [False] * 200
    for p in range(2, 200):
        if not is_comp[p]:
            sieve.add(p)
            for m in range(p * p, 200, p):
                is_comp[m] = True
    assert {n for n in range(200) if is_prime(n)} == sieve


def test_prime_power_type():
    assert is_prime_power(9) and is_prime_power(8) and is_prime_power(2)
    assert not is_prime_power(6) and not is_prime_power(12)
    assert not is_prime_power(1) and not is_prime_power(0)
    factorizations = {p**e for p in range(200) if is_prime(p) for e in range(1, 8)}
    assert {q for q in range(200) if is_prime_power(q)} == {q for q in factorizations if q < 200}


def test_mult_order_frozen_examples():
    assert mult_order(2, 7) == 3
    assert mult_order(3, 7) == 6  # oracle: 3,2,6,4,5,1
    assert mult_order(8, 7) == 1  # q = 1 mod ell
    with pytest.raises(ValueError):
        mult_order(7, 7)
    with pytest.raises(ValueError):
        mult_order(3, 9)
    with pytest.raises(ValueError):
        mult_order(3, 2)


def test_mult_order_brute_force():
    for ell in ODD_PRIMES_TO_100:
        for q in range(1, ell):
            d = mult_order(q, ell)
            powers = {pow(q, e, ell) for e in range(1, d)}
            assert 1 not in powers and pow(q, d, ell) == 1
            assert (ell - 1) % d == 0


def test_is_square_mod_frozen_and_brute_force():
    assert is_square_mod(2, 7)  # squares mod 7: {1,2,4}
    assert not is_square_mod(3, 7)
    assert is_square_mod(16, 11)
    with pytest.raises(ValueError):
        is_square_mod(14, 7)
    for ell in ODD_PRIMES_TO_100:
        squares = {(x * x) % ell for x in range(1, ell)}
        for a in range(1, ell):
            assert is_square_mod(a, ell) == (a in squares)


def test_sqrt_fixedness_frozen_examples():
    assert sqrt_q_fixed(2, 7)  # d_7(2) = 3 odd
    assert not sqrt_q_fixed(3, 5)  # d_5(3) = 4 even, and 3 is a non-residue
    assert sqrt_q_fixed(4, 7)  # perfect square
    assert sqrt_minus_q_fixed(3, 7)  # d_7(3) = 6 = 2*3, -3 = 4 = 2^2 mod 7
    assert not sqrt_minus_q_fixed(2, 5)  # -2 = 3 non-residue mod 5
    assert sqrt_minus_q_fixed(4, 5)  # -4 = 1 mod 5


def test_odd_order_implies_sqrt_fixed_sweep():
    """d_ell(q) odd => q is a square; d = 2*odd => -q is a square.

    Exhaustive for odd primes ell <= 200 and prime powers q <= 200, ell not
    dividing q.
    """
    primes = [p for p in range(3, 201) if is_prime(p)]
    prime_powers = [q for q in range(2, 201) if is_prime_power(q)]
    checked = 0
    for ell in primes:
        for q in prime_powers:
            if q % ell == 0:
                continue
            d = mult_order(q, ell)
            if d % 2 == 1:
                assert sqrt_q_fixed(q, ell), (q, ell)
                checked += 1
            elif (d // 2) % 2 == 1:
                assert sqrt_minus_q_fixed(q, ell), (q, ell)
                checked += 1
    assert checked > 1000


def test_hell_subgroup_frozen_examples():
    assert hell_subgroup(5, 8) == frozenset({1, 5})
    assert hell_subgroup(7, 12) == frozenset({1, 7})
    # ell = 1 mod n gives the trivial subgroup
    assert hell_subgroup(13, 12) == frozenset({1})
    assert hell_subgroup(13, 4) == frozenset({1})


def test_hell_subgroup_matches_gcd_scan():
    for ell in ODD_PRIMES_TO_100:
        for n in range(1, 121):
            assert hell_subgroup(ell, n) == hell_residues_by_scan(ell, n), (ell, n)


def test_hell_subgroup_contains_powers_of_ell_brute_force():
    for ell in [3, 5, 7, 11, 13]:
        for n in range(1, 40):
            H = hell_subgroup(ell, n)
            # the ell'-part of n
            n_prime = n
            while n_prime % ell == 0:
                n_prime //= ell
            powers = {pow(ell, e, n_prime) for e in range(0, 50)}
            expected = {
                k % n
                for k in range(1, n + 1)
                if math.gcd(k, n) == 1 and (k % n_prime) in powers
            }
            assert H == frozenset(expected)
            assert H == GaloisSubgroup(n, expected).residues  # closed under products
            if math.gcd(ell, n) == 1:
                assert (ell % n) in H or n == 1


def test_hd_subgroup_frozen_examples():
    assert hd_subgroup(4, 8) == frozenset({1, 5})
    assert hd_subgroup(6, 12) == frozenset({1, 7})
    assert hd_subgroup(3, 12) == frozenset({1, 7})
    assert hd_subgroup(1, 12) == GaloisSubgroup.full(12).residues
    with pytest.raises(ValueError):
        hd_subgroup(5, 12)


def test_hd_subgroup_brute_force():
    """hd_subgroup makes no closure check; rebuilding it from its definition
    through the checking constructor gives the same residues, n = 1 (where
    the residue 1 is 0) included."""
    for n in range(1, 61):
        units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
        for d in range(1, n + 1):
            if n % d == 0:
                expected = GaloisSubgroup(n, [k for k in units if k % d == 1 % d])
                assert hd_subgroup(d, n) == expected.residues, (d, n)
    assert hd_subgroup(1, 1) == frozenset({0})


def test_memoized_functions_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError):
            mult_order(5, 5)
        with pytest.raises(ValueError):
            mult_order(3, 9)
        with pytest.raises(ValueError):
            hd_subgroup(5, 12)
        with pytest.raises(ValueError):
            hd_subgroup(0, 12)
    assert mult_order(12, 5) == mult_order(2, 5) == 4  # keyed on q mod ell


def test_hd_even_odd_coincidence_sweep():
    """{k = 1 mod 2m} = {k = 1 mod m} inside (Z/n)^x for odd m."""
    for m in range(1, 26, 2):
        for n in range(1, 121):
            if n % (2 * m) != 0:
                continue
            assert hd_subgroup(2 * m, n) == hd_subgroup(m, n), (m, n)


def test_hell_inside_hd_when_d_divides_order_sweep():
    """If d | ell - 1 and d | n then the ell-power subgroup fixes zeta_d."""
    for ell in [p for p in range(3, 101) if is_prime(p)]:
        for n in range(1, 121):
            for d in range(1, 13):
                if (ell - 1) % d != 0 or n % d != 0:
                    continue
                Hell = hell_subgroup(ell, n)
                Hd = hd_subgroup(d, n)
                assert Hell <= Hd, (ell, n, d)


def test_root_exists_in_Qell_frozen_examples():
    assert root_exists_in_Qell(2, 3, 7)  # order-3 elements {2,4} are squares mod 7
    assert root_exists_in_Qell(5, 1, 11)  # X^r - 1 always has the root 1
    assert not root_exists_in_Qell(2, 4, 5)  # order-4 elements {2,3}, squares {1,4}
    with pytest.raises(ValueError):
        root_exists_in_Qell(2, 3, 5)  # 3 does not divide 5 - 1
    with pytest.raises(ValueError):
        root_exists_in_Qell(7, 3, 7)  # ell | r rejected


def test_root_exists_in_Qell_brute_force():
    for ell in ODD_PRIMES_TO_100:
        for r in range(1, 8):
            if r % ell == 0:
                continue
            rth_powers = {pow(x, r, ell) for x in range(1, ell)}
            for a in range(1, ell):
                if (ell - 1) % a != 0:
                    continue
                elements_of_order_a = [
                    u for u in range(1, ell) if mult_order(u, ell) == a
                ]
                expected = all(u in rth_powers for u in elements_of_order_a)
                # solvability depends only on the order, so all-vs-any agree
                assert any(u in rth_powers for u in elements_of_order_a) == expected
                assert root_exists_in_Qell(r, a, ell) == expected, (r, a, ell)


def test_root_exists_for_integer_frozen_examples():
    assert root_exists_for_integer(1, 5, 7)
    assert root_exists_for_integer(2, -3, 7)  # -3 = 4 = 2^2 mod 7
    assert not root_exists_for_integer(3, 2, 7)  # cubes mod 7 are {1,6}
    with pytest.raises(ValueError):
        root_exists_for_integer(2, 7, 7)


def test_root_exists_for_integer_brute_force():
    for ell in ODD_PRIMES_TO_100[:15]:
        for r in range(1, 7):
            if r % ell == 0:
                continue
            rth_powers = {pow(x, r, ell) for x in range(1, ell)}
            for b in range(1, ell):
                assert root_exists_for_integer(r, b, ell) == (b in rth_powers)


def test_order_divisor_implies_root_exists_sweep():
    """If a | d_ell(p0^r) then X^r - zeta_a has an ell-adic zero."""
    checked = 0
    for p0 in [p for p in range(2, 51) if is_prime(p)]:
        for ell in [p for p in range(3, 101) if is_prime(p) and p != p0]:
            for r in range(1, 13):
                if r % ell == 0:
                    continue
                d = mult_order(pow(p0, r, ell), ell)
                for a in range(1, d + 1):
                    if d % a == 0:
                        assert root_exists_in_Qell(r, a, ell), (p0, r, ell, a)
                        checked += 1
    assert checked > 10000


def test_central_product_splits_frozen_examples():
    # delta = 1 collapses to the plain root-existence predicate
    assert central_product_splits(1, 3, 2, 7) == root_exists_in_Qell(2, 3, 7)
    # delta = 2, d = 6 = d_7(3): X^2 - zeta_3 over Q_7
    assert central_product_splits(2, 6, 1, 7, p=3)
    # delta = 2, d = 3 = d_7(2): d_0 = 6, X^2 - zeta_3
    assert central_product_splits(2, 3, 1, 7, p=2)
    with pytest.raises(ValueError):
        central_product_splits(2, 5, 1, 7, p=3)  # d is not the order of 3 mod 7
    with pytest.raises(ValueError):
        central_product_splits(4, 3, 1, 7)


def test_central_product_splits_sweep():
    """The split holds for delta in {1,2,3}, p <= 23, r0 <= 8, ell <= 61."""
    checked = 0
    for delta in (1, 2, 3):
        for p in [x for x in range(2, 24) if is_prime(x)]:
            for ell in [x for x in range(3, 62) if is_prime(x) and x != p]:
                for r0 in range(1, 9):
                    if (r0 * delta) % ell == 0:
                        continue
                    d = mult_order(pow(p, r0, ell), ell)
                    assert central_product_splits(delta, d, r0, ell, p=p), (
                        delta,
                        p,
                        ell,
                        r0,
                    )
                    checked += 1
    assert checked > 3000
