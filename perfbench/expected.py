"""Expected outputs, computed apart from charverify.

Every count here comes from elementary combinatorics or number theory
written in this file: partition numbers, multipartition counts, hook
lengths, the James-Kerber abacus, the textbook degree lists of the Weyl
groups, and multiplicative orders found by repeated multiplication.  The
benchmark compares the program's reports and return values against these
numbers; nothing here imports charverify.
"""

from __future__ import annotations

import math
from functools import lru_cache


# -- elementary number theory -------------------------------------------------


def primes(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by a sieve."""
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]


def prime_powers(hi: int) -> list[int]:
    return [q for q in range(2, hi + 1) if _is_prime_power(q)]


def _is_prime_power(q: int) -> bool:
    p = next(p for p in range(2, q + 1) if q % p == 0)
    while q % p == 0:
        q //= p
    return q == 1


def order_mod(x: int, ell: int) -> int:
    """Multiplicative order of x modulo the prime ell, by stepping powers."""
    x %= ell
    d, acc = 1, x
    while acc != 1:
        acc = acc * x % ell
        d += 1
    return d


def num_divisors(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if n % k == 0)


# -- partitions and multipartitions -------------------------------------------


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by the standard coin-change recursion over part sizes."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


@lru_cache(maxsize=None)
def multipartition_count(m: int, a: int) -> int:
    """N(m, a): m-tuples of partitions of total size a (x^a in P(x)^m)."""
    series = [1] + [0] * a
    for _ in range(m):
        series = [
            sum(series[k] * partition_count(total - k) for k in range(total + 1))
            for total in range(a + 1)
        ]
    return series[a]


def subgroup_irr_count(m: int, a: int) -> int:
    """#Irr G(m,2,a) = (N(m,a) + 3 N(m/2,a/2)) / 2, the last term for even a.

    Twisting by the order-2 linear character pairs off the labels of
    C_m wr S_a; the N(m/2, a/2) labels fixed by the twist split in two.
    """
    fixed = multipartition_count(m // 2, a // 2) if a % 2 == 0 else 0
    total = multipartition_count(m, a) + 3 * fixed
    assert total % 2 == 0
    return total // 2


def partitions_of(n: int):
    """All partitions of n as non-increasing tuples."""

    def rec(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    return list(rec(n, n))


def hook_lengths(parts: tuple) -> list[int]:
    conjugate = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    return [
        parts[i] - j + conjugate[j] - i - 1
        for i in range(len(parts))
        for j in range(parts[i])
    ]


def standard_tableaux(parts: tuple) -> int:
    """f^lambda by the hook-length formula."""
    return math.factorial(sum(parts)) // math.prod(hook_lengths(parts))


def wreath_degree(label: tuple) -> int:
    """chi(1) for a C_m wr S_a label: multinomial times tableau counts."""
    sizes = [sum(p) for p in label]
    out = math.factorial(sum(sizes))
    for parts, size in zip(label, sizes):
        out = out // math.factorial(size) * standard_tableaux(parts)
    return out


def abacus_core(parts: tuple, d: int) -> tuple[tuple, int]:
    """The d-core and d-weight of a partition by the James-Kerber abacus.

    Beads beta_i = lambda_i + (k - 1 - i) sit on d runners by residue; the
    core pushes every runner's beads to its top positions, and the weight
    is the number of single-step pushes that takes.
    """
    k = len(parts)
    beta = [parts[i] + (k - 1 - i) for i in range(k)]
    counts = [0] * d
    for b in beta:
        counts[b % d] += 1
    weight = sum(b // d for b in beta) - sum(c * (c - 1) // 2 for c in counts)
    pushed = sorted(
        (r + j * d for r in range(d) for j in range(counts[r])), reverse=True
    )
    core = tuple(b - (k - 1 - i) for i, b in enumerate(pushed))
    return tuple(p for p in core if p > 0), weight


# -- counts of checks the suites must report ----------------------------------


def _wreath_cells(max_m=12, max_a=4):
    return [(m, a) for m in range(1, max_m + 1) for a in range(1, max_a + 1)]


def _subgroup_cells(sub_max_m=6, sub_max_a=3):
    return [(m, a) for m in range(2, sub_max_m + 1, 2) for a in range(1, sub_max_a + 1)]


def thm41_checks() -> int:
    return sum(multipartition_count(m, a) for m, a in _wreath_cells()) + sum(
        subgroup_irr_count(m, a) for m, a in _subgroup_cells()
    )


def lemma42_checks(max_d: int = 12) -> int:
    def weight(m):
        return sum(1 for d in range(1, max_d + 1) if math.lcm(2, d) % m == 0)

    return sum(
        multipartition_count(m, a) * weight(m) for m, a in _wreath_cells()
    ) + sum(subgroup_irr_count(m, a) * weight(m) for m, a in _subgroup_cells())


def _weyl_degrees(series: str, r: int, twisted: bool) -> list[tuple[int, int]]:
    """Textbook (degree, eps) lists: |G(q)| ~ prod (q^{d_i} - eps_i)."""
    if series == "A":
        return [(k, (-1) ** k if twisted else 1) for k in range(2, r + 2)]
    if series == "B":
        return [(2 * k, 1) for k in range(1, r + 1)]
    return [(2 * k, 1) for k in range(1, r)] + [(r, -1 if twisted else 1)]


def _phi_divides(d: int, degree: int, eps: int) -> bool:
    """Phi_d | q^k - 1 iff d | k;  Phi_d | q^k + 1 iff d | 2k and d does not divide k."""
    if eps == 1:
        return degree % d == 0
    return (2 * degree) % d == 0 and degree % d != 0


def weyl_match_checks(max_rank: int = 5, max_rank_d: int = 4) -> int:
    cases = (
        [("A", r, tw) for r in range(1, max_rank + 1) for tw in (False, True)]
        + [("B", r, False) for r in range(2, max_rank + 1)]
        + [("D", r, tw) for r in range(2, max_rank_d + 1) for tw in (False, True)]
    )
    total = 0
    for series, r, twisted in cases:
        degrees = _weyl_degrees(series, r, twisted)
        top = 2 * max(deg for deg, _ in degrees)
        total += sum(
            1
            for d in range(1, top + 1)
            if any(_phi_divides(d, deg, eps) for deg, eps in degrees)
        )
    return total


def prop75_checks(max_n=10, max_ell=31, qs=(2, 3, 4, 5, 7, 8, 9), rs=(1, 2)) -> int:
    pairs = sum(1 for ell in primes(3, max_ell) for q in qs if q % ell)
    signs = 2
    return pairs * signs * len(rs) * sum(partition_count(n) for n in range(1, max_n + 1))


def cor55_checks(max_p=23, max_n=6) -> int:
    return sum(2 * 2 * (max_n - 1) * (p - 1) for p in primes(2, max_p))


def lemma82_checks(max_p=23, max_r0=8, max_ell=61) -> int:
    return sum(
        1
        for delta in (1, 2, 3)
        for p in primes(2, max_p)
        for ell in primes(3, max_ell)
        if ell != p
        for r0 in range(1, max_r0 + 1)
        if (r0 * delta) % ell
    )


def lemma22_checks(max_ell=200, max_q=200, max_modulus=120, max_d=12) -> int:
    total = 0
    qs = prime_powers(max_q)
    for ell in primes(3, max_ell):
        for q in qs:
            if q % ell == 0:
                continue
            d = order_mod(q, ell)
            if d % 2 == 1 or (d // 2) % 2 == 1:
                total += 1
    total += sum(
        1
        for m in range(1, 26, 2)
        for n in range(1, max_modulus + 1)
        if n % (2 * m) == 0
    )
    total += sum(
        1
        for ell in primes(3, min(max_ell, 100))
        for n in range(1, max_modulus + 1)
        for d in range(1, max_d + 1)
        if (ell - 1) % d == 0 and n % d == 0
    )
    return total


def lemma71_checks(max_ell=100, max_r=20, max_p0=50, max_r_implication=12) -> int:
    total = 0
    for ell in primes(3, max_ell):
        usable_r = sum(1 for r in range(1, max_r + 1) if r % ell)
        total += usable_r * num_divisors(ell - 1)
    for p0 in primes(2, max_p0):
        for ell in primes(3, max_ell):
            if ell == p0:
                continue
            for r in range(1, max_r_implication + 1):
                if r % ell:
                    total += num_divisors(order_mod(pow(p0, r, ell), ell))
    return total


def cor74_checks(max_n=12, max_d=12) -> int:
    """Classes of equal d-core, plus one check per removable d-rim hook."""
    total = 0
    for n in range(1, max_n + 1):
        parts = partitions_of(n)
        for d in range(2, max_d + 1, 2):
            total += len({abacus_core(lam, d)[0] for lam in parts})
            total += sum(hook_lengths(lam).count(d) for lam in parts)
    return total


def suite_checks() -> dict[str, int]:
    """Expected ``checks`` per suite at the default parameters.

    ``lemma72`` and ``table1`` have no entry: their counts come from symbol
    enumeration and the curated data file, which this file does not redo.
    """
    return {
        "thm41": thm41_checks(),
        "lemma42": lemma42_checks(),
        "weyl-match": weyl_match_checks(),
        "prop75": prop75_checks(),
        "cor55": cor55_checks(),
        "lemma82": lemma82_checks(),
        "lemma22": lemma22_checks(),
        "lemma71": lemma71_checks(),
        "cor74": cor74_checks(),
    }
