"""Scalar oracles shared by the tests: one value at a time, through
``cyclotomic.conductor`` and ``cyclotomic.is_fixed_by``; orthogonality as
sums of ``CyclotomicNumber`` products; one group element at a time, through
Python multiplications of native elements; one label at a time, through
``partitions.hooks``, and whole Murnaghan-Nakayama tables from those
one-label hook removals; polynomial long division over ``Fraction``; powers in
F_{p^e}, and the Lang images built from them, through repeated
``FiniteFieldElement`` multiplication, and square roots by exhaustive
search; one partition at a time for prop75, through
``extension_field_typeA``; and the l-power subgroup by a gcd scan."""

import math
from fractions import Fraction

import numpy as np

import charverify.fields as fields_mod
from charverify.cyclotomic import CyclotomicNumber, conductor, is_fixed_by
from charverify.grouptable import FiniteGroup
from charverify.ladic import hd_subgroup
from charverify.langmap import (
    FiniteFieldElement,
    enumerate_field,
    jacobi_symbol,
    sqrt_in_quadratic,
)
from charverify.partitions import hooks, partition_tuples, partitions_of
from charverify.wreath import class_labels


def scalar_row_answers(rows, ds):
    """Per row: (lcm of the scalar conductors of its values, {d: whether
    is_fixed_by holds for every value at the modulus lcm(order, d)}).
    Each distinct value is tested once."""
    cache = {}

    def answers(x):
        key = (x.order, tuple(map(tuple, x.to_triples())))
        if key not in cache:
            fixed = {}
            for d in ds:
                n = math.lcm(x.order, d)
                fixed[d] = is_fixed_by(x.lift(n), hd_subgroup(d, n))
            cache[key] = (conductor(x), fixed)
        return cache[key]

    out = []
    for row in rows:
        per_value = [answers(x) for x in row]
        out.append(
            (
                math.lcm(*(c for c, _ in per_value)),
                {d: all(f[d] for _, f in per_value) for d in ds},
            )
        )
    return out


def pair_mul(m):
    """Multiplication of (color vector, permutation) pairs of C_m wr S_a:
    (f, sigma)(g, tau) = (f + g o sigma^-1, sigma o tau)."""

    def mul(x, y):
        (f, sigma), (g, tau) = x, y
        sigma_inv = [0] * len(f)
        for i, img in enumerate(sigma):
            sigma_inv[img] = i
        h = tuple((f[i] + g[sigma_inv[i]]) % m for i in range(len(f)))
        return h, tuple(sigma[t] for t in tau)

    return mul


def product_mul(muls):
    """Componentwise multiplication of tuples, one factor mul each."""

    def mul(x, y):
        return tuple(mu(u, v) for mu, u, v in zip(muls, x, y))

    return mul


def python_group(group, mul):
    """The FiniteGroup on the elements and generators of a
    ColoredPermGroup, multiplied by ``mul``."""
    return FiniteGroup(
        group.elements,
        mul,
        group.element(group.identity),
        generators=[group.element(t) for t in group.generators],
    )


def hook_op_entries(m, s, c):
    """The (row, col, sign, k) entries of the c-hook removal map from the
    labels of total size s to those of size s - c, one label and one
    component at a time: labels listed by ``partition_tuples``, indices
    found by dictionary lookup of the resulting label."""
    index_small = {lab: i for i, lab in enumerate(partition_tuples(s - c, m))}
    out = []
    for i, lab in enumerate(partition_tuples(s, m)):
        for k in range(m):
            if lab[k].size < c:
                continue
            for _, new_part, height in hooks(lab[k], c):
                new_lab = lab[:k] + (new_part,) + lab[k + 1 :]
                out.append((i, index_small[new_lab], -1 if height % 2 else 1, k))
    return out


def mn_raw_by_hooks(m, a):
    """The (labels, classes, m) int64 value array of C_m wr S_a by the
    Murnaghan-Nakayama recursion, one hook removal at a time
    (``hook_op_entries``), in Python integers: removing the leading c-cycle
    of color j and a c-hook from component k multiplies the smaller column
    by sign * zeta_m^{jk}.  Rows in the order of ``partition_tuples``,
    columns in that of ``wreath.class_labels``."""
    columns = {(): [[1] + [0] * (m - 1)]}
    entries = {}

    def column(cycles):
        if cycles not in columns:
            (c, j), rest = cycles[0], cycles[1:]
            s = sum(x for x, _ in cycles)
            if (s, c) not in entries:
                entries[s, c] = hook_op_entries(m, s, c)
            prev = column(rest)
            out = [[0] * m for _ in partition_tuples(s, m)]
            for row, col, sign, k in entries[s, c]:
                for e, coeff in enumerate(prev[col]):
                    out[row][(e + j * k) % m] += sign * coeff
            columns[cycles] = out
        return columns[cycles]

    table = [column(cls.cycles) for cls in class_labels(m, a)]
    return np.array(table, dtype=np.int64).transpose(1, 0, 2)


def fraction_divmod(num, den):
    """Long division of integer coefficient lists (lowest degree first) over
    the rationals: (quotient, remainder) as lists of ``Fraction``, trailing
    zeros dropped."""
    rem = [Fraction(c) for c in num]
    quo = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    for shift in range(len(quo) - 1, -1, -1):
        factor = rem[shift + len(den) - 1] / den[-1]
        quo[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
    rem = rem[: len(den) - 1]
    for coeffs in (quo, rem):
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
    return quo, rem


def power_by_multiplication(x, exponent):
    """x**exponent by square-and-multiply through ``FiniteFieldElement``
    multiplication, one element per step; a negative exponent first inverts
    x as x**(p^e - 2) by the same loop."""
    if x.is_zero and exponent <= 0:
        raise ZeroDivisionError("zero to a non-positive power")
    if exponent < 0:
        x = power_by_multiplication(x, x.p**x.e - 2)
        exponent = -exponent
    result = FiniteFieldElement.from_int(x.p, 1, x.e)
    while exponent:
        if exponent & 1:
            result = result * x
        x = x * x
        exponent >>= 1
    return result


def cor55_by_multiplication(n, p, e, k):
    """(Jacobi-symbol formula holds, image is central of order dividing 2)
    for the Lang image of diag(c^(n-1), ..., c^(-(n-1))), c a square root of
    k, every power taken by ``power_by_multiplication``."""
    q = p**e
    c = sqrt_in_quadratic(p, k)
    image = [
        power_by_multiplication(power_by_multiplication(c, m), q - 1)
        for m in range(n - 1, -n, -2)
    ]
    if any(x != image[0] for x in image):
        return False, False
    sign = FiniteFieldElement.from_int(p, (-1) ** (n - 1))
    expected = FiniteFieldElement.from_int(p, jacobi_symbol(k, q) ** (n - 1))
    one = FiniteFieldElement.from_int(p, 1)
    return image[0] == expected, image[0] in (one, sign)


def sqrt_by_search(p, k):
    """The first c of ``enumerate_field(p, 2)`` with c * c = k, by testing
    every element with ``FiniteFieldElement`` multiplication."""
    target = FiniteFieldElement.from_int(p, k, 2)
    for c in enumerate_field(p, 2):
        if c * c == target:
            return c
    raise AssertionError(f"no square root of {k} in F_{p}^2")


def prop75_by_partition(eps, n, ell, q, r=1, rule=fields_mod.default_omega_rule):
    """(partition, core, field of the partition, field of the core) for every
    partition of n, in ``partitions_of`` order: cores from ``fields.d_core``
    (so a patched one is seen), fields from ``extension_field_typeA``, one
    partition at a time."""
    qv = q if isinstance(q, int) else q.value
    d_prime = fields_mod.mult_order(eps * qv, ell)
    out = []
    for lam in partitions_of(n):
        core, _ = fields_mod.d_core(lam, d_prime)
        out.append(
            (
                lam.parts,
                core.parts,
                fields_mod.extension_field_typeA(eps, lam, ell, qv, r, rule),
                fields_mod.extension_field_typeA(eps, core, ell, qv, r, rule),
            )
        )
    return out


def hell_residues_by_scan(ell, n):
    """The residues k in 1..n with gcd(k, n) = 1 and k mod n' a power of
    ell, n' the ell'-part of n, reduced mod n."""
    n_prime = n
    while n_prime % ell == 0:
        n_prime //= ell
    powers = {1 % n_prime}
    acc = ell % n_prime
    while acc not in powers:
        powers.add(acc)
        acc = (acc * ell) % n_prime
    return frozenset(
        k % n for k in range(1, n + 1) if math.gcd(k, n) == 1 and (k % n_prime) in powers
    )


def scalar_orthogonality(values, class_sizes, group_order):
    """(row orthogonality, column orthogonality) of a table given as rows of
    ``CyclotomicNumber`` values, as O(r^3) sums of scalar products."""
    rows_ok = cols_ok = True
    for i, chi in enumerate(values):
        for j, psi in enumerate(values):
            acc = CyclotomicNumber.zero()
            for k, size in enumerate(class_sizes):
                acc = acc + size * chi[k] * psi[k].conjugate()
            if acc != (group_order if i == j else 0):
                rows_ok = False
    for k, size in enumerate(class_sizes):
        for l in range(len(class_sizes)):
            acc = CyclotomicNumber.zero()
            for chi in values:
                acc = acc + chi[k] * chi[l].conjugate()
            if acc != (group_order // size if k == l else 0):
                cols_ok = False
    return rows_ok, cols_ok
