"""The split-prime evaluation kernel against its reference passes.

Galois fixedness (``cyclotomic.galois_fixed_rows``) and both orthogonality
relations (``grouptable._orthogonal``) evaluate ``raw`` at every embedding
of Z[zeta_N] into F_p, p = 1 mod N.  The oracles in ``scalar_oracles`` are
the reduction through the power basis (``fixed_rows_by_reduction``) and the
float64 convolution (``conjugate_products``).  They are compared on the
Murnaghan-Nakayama tables of the thm41 grid of at most 400 characters, on
every Dixon table of the default run, on all of these with one entry
changed by +1, and on seeded random arrays: at the int8 extremes, over
several row chunks, and with peaks that need two or more primes.
"""

import math
import random

import numpy as np
import pytest

from charverify import weyl
from charverify.cyclotomic import (
    _PRIME_FLOOR,
    _check_fixedness_int64,
    _column_orders,
    _row_chunks,
    _split_primes,
    divisors,
    galois_fixed_rows,
    is_prime,
    split_prime,
    unit_residues,
)
from charverify.grouptable import CharacterTable, _conjugate_evaluations
from charverify.suites import run_suite
from charverify.wreath import _label_count, get_subgroup_table, get_table

from scalar_oracles import conjugate_products, fixed_rows_by_reduction

# The wreath tables compared are those of the thm41 grid up to this many
# characters; the run itself reads their conductors and fixedness from
# labels and builds none of them.
MAX_WREATH_LABELS = 400


@pytest.fixture(scope="module")
def default_tables():
    """The 40 wreath tables of at most ``MAX_WREATH_LABELS`` characters on
    the thm41 grid, and every Dixon table of the default run: the 9
    G(m,2,a) tables and those weyl-match reads, the last recorded from the
    suite's own calls of ``weyl._dixon_of``."""
    tables = {
        f"C{m}wrS{a}": get_table(m, a)
        for m in range(1, 13)
        for a in range(1, 5)
        if _label_count(m, a) <= MAX_WREATH_LABELS
    }
    tables.update(
        (f"G({m},2,{a})", get_subgroup_table(m, a)) for m in (2, 4, 6) for a in (1, 2, 3)
    )
    original = weyl._dixon_of
    seen = {}

    def recording(group):
        return seen.setdefault(id(group), original(group))

    weyl._dixon_of = recording
    try:
        run_suite("weyl-match")
    finally:
        weyl._dixon_of = original
    tables.update((f"weyl-match {i}", t) for i, t in enumerate(seen.values()))
    return tables


def oracle_orthogonality(table):
    """(rows, columns) verdicts from the oracle's exact sums."""
    raw = table.raw
    L, C, _ = raw.shape
    rows = conjugate_products(raw, table.class_sizes)
    expected = np.zeros_like(rows)
    expected[np.arange(L), np.arange(L), 0] = table.order
    columns = conjugate_products(raw.transpose(1, 0, 2), [1] * L)
    centralizers = np.zeros_like(columns)
    centralizers[np.arange(C), np.arange(C), 0] = [table.order // s for s in table.class_sizes]
    return np.array_equal(rows, expected), np.array_equal(columns, centralizers)


def plus_one(table):
    """The table with one entry changed by +1: coefficient N/o mod N of
    the last character at the class of largest order o, i.e. its value
    plus zeta_o, which is rational only for o <= 2."""
    raw = table.raw.astype(np.int64)
    n = raw.shape[2]
    j = int(np.argmax(table.column_orders))
    raw[-1, j, n // table.column_orders[j] % n] += 1
    return CharacterTable(raw, table.class_sizes, table.class_orders, table.order)


def test_default_run_has_every_table(default_tables):
    names = list(default_tables)
    assert sum(name.startswith("C") for name in names) == 40
    assert sum(name.startswith("G") for name in names) == 9
    assert sum(name.startswith("weyl") for name in names) == 65


def test_fixedness_agrees_on_the_default_tables(default_tables):
    for name, table in default_tables.items():
        units = unit_residues(table.raw.shape[2])
        fixed = galois_fixed_rows(table.raw, units)
        assert np.array_equal(fixed, fixed_rows_by_reduction(table.raw, units)), name


def test_orthogonality_agrees_on_the_default_tables(default_tables):
    for name, table in default_tables.items():
        assert oracle_orthogonality(table) == (True, True), name
        assert table.verify_row_orthogonality(), name
        assert table.verify_column_orthogonality(), name


def test_plus_one_flips_exactly_where_the_oracle_says(default_tables):
    flipped = 0
    for name, table in default_tables.items():
        broken = plus_one(table)
        units = unit_residues(table.raw.shape[2])
        fixed = galois_fixed_rows(broken.raw, units)
        assert np.array_equal(fixed, fixed_rows_by_reduction(broken.raw, units)), name
        flipped += not np.array_equal(fixed, galois_fixed_rows(table.raw, units))
        verdicts = (broken.verify_row_orthogonality(), broken.verify_column_orthogonality())
        assert verdicts == oracle_orthogonality(broken) == (False, False), name
    assert flipped >= 20


# ---------------------------------------------------------------------------
# seeded random value arrays
# ---------------------------------------------------------------------------


def random_raw(seed, rows, cols, n, choices):
    """A (rows, cols, n) int64 value array whose row i is fixed by the
    powers of one random unit k mod n: the coefficients of a column of
    order o are constant on the orbits e -> ek mod o.  Every third row then
    gets one coefficient redrawn, so that fixedness varies."""
    rng = np.random.default_rng(seed)
    orders = rng.choice(divisors(n), size=cols)
    blocks = {o: np.flatnonzero(orders == o) for o in set(orders.tolist())}
    orbit_min = {}
    raw = np.zeros((rows, cols, n), dtype=np.int64)
    for i in range(rows):
        k = int(rng.choice(unit_residues(n)))
        for o, cols_o in blocks.items():
            if (o, k) not in orbit_min:
                group = {pow(k, t, n) for t in range(n)}
                orbit_min[o, k] = [min(e * g % o for g in group) for e in range(o)]
            values = rng.choice(choices, size=(len(cols_o), o))[:, orbit_min[o, k]]
            raw[i, cols_o[:, None], np.arange(0, n, n // o)] = values
        if i % 3 == 0:
            j = int(rng.integers(cols))
            raw[i, j, int(rng.integers(orders[j])) * (n // orders[j])] = rng.choice(choices)
    return raw


def check_against_oracles(raw, weights):
    """Fixedness against the reduction oracle, on the whole array, and the
    kernel's conjugate products against the oracle's sums evaluated at each
    embedding, on the first 100 rows."""
    units = unit_residues(raw.shape[2])
    fixed = galois_fixed_rows(raw, units)
    assert np.array_equal(fixed, fixed_rows_by_reduction(raw, units))
    assert fixed.any() and not fixed.all()
    sums = conjugate_products(raw[:100], weights)
    for p, w, M in _conjugate_evaluations(raw[:100], weights, 2**50):
        powers = np.array([pow(w, e, p) for e in range(sums.shape[2])])
        assert np.array_equal(M, sums % p @ powers % p)


@pytest.mark.parametrize("n", [12, 20, 24])
def test_random_int8_extremes_over_several_chunks(n):
    raw = random_raw(1600 + n, 600, 96, n, (0, 1, -1, 127, -128, 5))
    raw[0, 0, 0], raw[1, 0, 0] = 127, -128
    narrow = raw.astype(np.int8)
    assert narrow.min() == -128 and narrow.max() == 127
    # some column-order block of the fixedness pass, and the first 100 rows
    # of the orthogonality pass, span several row chunks
    orders = _column_orders(narrow)
    widths = [int((orders == o).sum()) * o for o in set(orders.tolist())]
    assert max(len(_row_chunks(600, w)) for w in widths) >= 2
    assert len(_row_chunks(100, 96 * n)) >= 2
    check_against_oracles(narrow, [int(w) for w in np.random.default_rng(n).integers(1, 50, 96)])


@pytest.mark.parametrize("peak,dtype", [(2**20, np.int32), (2**30, np.int32), (2**40, np.int64)])
def test_random_peaks_needing_several_primes(peak, dtype):
    n = 12
    raw = random_raw(peak, 30, 10, n, (0, 1, -1, peak, -peak, 3)).astype(dtype)
    assert len(_split_primes(n, 2 * _check_fixedness_int64(peak, n))) >= 2
    units = unit_residues(n)
    assert np.array_equal(galois_fixed_rows(raw, units), fixed_rows_by_reduction(raw, units))
    if peak < 2**24:  # the oracle's float64 convolution stays exact
        check_against_oracles(raw, [1] * raw.shape[1])


def test_random_plus_one_flips_fixedness():
    rng = random.Random(16)
    raw = random_raw(16, 40, 8, 15, (0, 1, -1, 2))
    units = unit_residues(15)
    before = galois_fixed_rows(raw, units)
    for i in np.flatnonzero(before[1:].any(axis=0))[:10]:
        j = rng.randrange(raw.shape[1])
        broken = raw.copy()
        broken[i, j, 1] += 1  # zeta_15 moves under every sigma_k, k != 1
        after = galois_fixed_rows(broken, units)
        assert np.array_equal(after, fixed_rows_by_reduction(broken, units))
        assert not after[1:, i].any()


# ---------------------------------------------------------------------------
# the prime helper shared with Dixon
# ---------------------------------------------------------------------------


def _least_split_prime_by_scan(modulus, above):
    p = modulus + 1
    while p <= above or (p - 1) % modulus or not is_prime(p):
        p += modulus
    return p


def _least_primitive_root_by_order(p):
    return next(z for z in range(1, p) if len({pow(z, e, p) for e in range(1, p)}) == p - 1)


@pytest.mark.parametrize("modulus", [1, 2, 3, 4, 6, 8, 12, 24, 60])
def test_split_prime_is_the_least_and_its_root_primitive(modulus):
    for above in (1, 2, 10, 97, 2 * 48, 2 * 1920):
        p, z = split_prime(modulus, above)
        assert p == _least_split_prime_by_scan(modulus, above)
        assert z == _least_primitive_root_by_order(p)
    p, z = split_prime(modulus, _PRIME_FLOOR)
    assert p > _PRIME_FLOOR and (p - 1) % modulus == 0 and is_prime(p)
    assert all(pow(z, (p - 1) // q, p) != 1 for q in divisors(p - 1) if is_prime(q))


def test_split_primes_cover_the_bound():
    for bound in (0, 1, _PRIME_FLOOR, 2**63):
        primes = _split_primes(12, bound)
        assert math.prod(p for p, _ in primes) > bound
        assert not primes or math.prod(p for p, _ in primes[:-1]) <= bound
        assert [p for p, _ in primes] == sorted({p for p, _ in primes})
