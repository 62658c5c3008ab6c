"""Multiplicative number theory modulo odd primes.

Orders d_ell(q), quadratic-residue fixedness of sqrt(q) and sqrt(-q), the
Galois subgroups generated by powers of ell and by k = 1 mod d (as frozen
sets of residues mod n), and root-existence predicates for X^r - zeta_a over
the ell-adic numbers (decided at the residue level; Hensel lifting applies
since ell does not divide r).  q is a plain integer throughout.

The suites ask the same few thousand questions many times over, so the pure
integer functions (orders mod ell, elements of given order, the subgroups
H_d; primality in cyclotomic) are memoized.  Arguments are validated before
the cache is consulted, and a call that raises is never cached.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .cyclotomic import is_prime, unit_residues


def _check_odd_prime(ell: int) -> None:
    if ell == 2 or not is_prime(ell):
        raise ValueError(f"ell must be an odd prime, got {ell}")


def is_prime_power(q: int) -> bool:
    """Whether q = p^e for a prime p and e >= 1."""
    if q < 2:
        return False
    p = next(p for p in range(2, q + 1) if q % p == 0)
    while q % p == 0:
        q //= p
    return q == 1


def mult_order(q: int, ell: int) -> int:
    """The multiplicative order of q modulo ell (an odd prime)."""
    _check_odd_prime(ell)
    q = q % ell
    if q == 0:
        raise ValueError(f"ell = {ell} divides q")
    return _order_mod(q, ell)


@lru_cache(maxsize=None)
def _order_mod(q: int, ell: int) -> int:
    """Order of a validated residue 0 < q < ell modulo the odd prime ell."""
    d, acc = 1, q
    while acc != 1:
        acc = (acc * q) % ell
        d += 1
    assert (ell - 1) % d == 0
    return d


def is_square_mod(a: int, ell: int) -> bool:
    """Euler's criterion: whether a is a quadratic residue modulo ell."""
    _check_odd_prime(ell)
    a = a % ell
    if a == 0:
        raise ValueError(f"ell = {ell} divides a")
    return pow(a, (ell - 1) // 2, ell) == 1


def sqrt_q_fixed(q: int, ell: int) -> bool:
    """Whether sqrt(q) lies in (and is fixed over) Q_ell, i.e. q is a square mod ell."""
    return is_square_mod(q, ell)


def sqrt_minus_q_fixed(q: int, ell: int) -> bool:
    """Whether sqrt(-q) lies in Q_ell, i.e. -q is a square mod ell."""
    return is_square_mod(-q, ell)


def hell_subgroup(ell: int, n: int) -> frozenset[int]:
    """The subgroup of (Z/nZ)^x of residues congruent to a power of ell
    modulo the ell'-part of n (and arbitrary modulo the ell-part), as its
    residues mod n."""
    _check_odd_prime(ell)
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    n_ell = 1
    n_prime = n
    while n_prime % ell == 0:
        n_prime //= ell
        n_ell *= ell
    powers = {1 % n_prime}
    acc = ell % n_prime
    while acc not in powers:
        powers.add(acc)
        acc = (acc * ell) % n_prime
    return frozenset(k for k in unit_residues(n) if k % n_prime in powers)


@lru_cache(maxsize=None)
def hd_subgroup(d: int, n: int) -> frozenset[int]:
    """The subgroup {k in (Z/nZ)^x : k = 1 mod d}, as its residues mod n
    (mod 1, the residue 1 is 0); requires d | n."""
    if n < 1 or d < 1:
        raise ValueError("d and n must be positive")
    if n % d != 0:
        raise ValueError(f"d = {d} must divide the modulus n = {n}")
    return frozenset(k % n for k in range(1, n + 1, d) if math.gcd(k, n) == 1)


def hd_residues(n: int, d: int) -> list[int]:
    """H_d = {k in (Z/NZ)^x : k = 1 mod d} at the common modulus
    N = lcm(n, d), as the sorted residues mod n through which it acts on
    Q(zeta_n); ValueError unless d >= 1."""
    return sorted({k % n for k in hd_subgroup(d, math.lcm(n, d))})


@lru_cache(maxsize=None)
def _element_of_order(a: int, ell: int) -> int:
    """Smallest element of multiplicative order a in F_ell^x; requires a | ell - 1."""
    for u in range(1, ell):
        if mult_order(u, ell) == a:
            return u
    raise AssertionError(f"no element of order {a} mod {ell}")


def root_exists_in_Qell(r: int, a: int, ell: int) -> bool:
    """Whether X^r - zeta_a has a zero in Q_ell (zeta_a of exact order a).

    Decided in F_ell^x: an element u of order a is an r-th power iff
    u^{(ell-1)/gcd(r, ell-1)} = 1; the answer depends only on a, not on the
    choice of u or of a complex embedding.  Requires a | ell - 1 (so that
    zeta_a exists in Q_ell at all) and ell coprime to r (tame case, where the
    residue test Hensel-lifts).
    """
    _check_odd_prime(ell)
    if r < 1 or a < 1:
        raise ValueError("r and a must be positive")
    if r % ell == 0:
        raise ValueError(f"ell = {ell} divides r = {r}")
    if a % ell == 0:
        raise ValueError(f"ell = {ell} divides a = {a}")
    if (ell - 1) % a != 0:
        raise ValueError(f"a = {a} does not divide ell - 1 = {ell - 1}")
    u = _element_of_order(a, ell)
    return pow(u, (ell - 1) // math.gcd(r, ell - 1), ell) == 1


def root_exists_for_integer(r: int, b: int, ell: int) -> bool:
    """Whether X^r - b has a zero in Q_ell, for an integer b coprime to ell.

    Residue-level test b^{(ell-1)/gcd(r, ell-1)} = 1 in F_ell^x, valid in the
    tame case ell coprime to r.
    """
    _check_odd_prime(ell)
    if r < 1:
        raise ValueError("r must be positive")
    if r % ell == 0:
        raise ValueError(f"ell = {ell} divides r = {r}")
    if b % ell == 0:
        raise ValueError(f"ell = {ell} divides b = {b}")
    return pow(b % ell, (ell - 1) // math.gcd(r, ell - 1), ell) == 1


def central_product_splits(
    delta: int, d: int, r0: int, ell: int, p: int | None = None
) -> bool:
    """Whether X^{r0 * delta} - zeta_{d0/delta} has a zero in Q_ell, d0 = lcm(delta, d).

    Here d is the multiplicative order of q = p^{r0} modulo ell (validated
    when p is supplied), and delta in {1, 2, 3}.  delta = 1 collapses to
    root_exists_in_Qell(r0, d, ell).
    """
    if delta not in (1, 2, 3):
        raise ValueError(f"delta must be 1, 2 or 3, got {delta}")
    _check_odd_prime(ell)
    if (r0 * delta) % ell == 0:
        raise ValueError(f"ell = {ell} divides r0 * delta")
    if p is not None:
        if mult_order(pow(p, r0), ell) != d:
            raise ValueError(
                f"d = {d} is not the order of {p}^{r0} modulo {ell}"
            )
    d0 = math.lcm(delta, d)
    return root_exists_in_Qell(r0 * delta, d0 // delta, ell)
