"""Tests for the generic exact character-table machinery."""

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import charverify
import charverify.grouptable as grouptable
from charverify.cyclotomic import (
    CyclotomicNumber,
    _column_orders,
    _peak,
    conductors_from_fixedness,
    galois_fixed_rows,
    unit_residues,
)
from charverify.grouptable import (
    CharacterTable,
    ColoredPermGroup,
    _charpoly,
    _check_int64,
    _compact_dtype,
    _conjugate_evaluations,
    _nullspace,
    _poly_roots,
    _rref,
    _split_space,
)
from charverify.ladic import hd_residues
from charverify.weyl import group_fingerprint, weyl_group
from charverify.wreath import get_subgroup

from scalar_oracles import (
    FiniteGroup,
    conjugate_products,
    fixed_rows_by_reduction,
    regular_representation,
    root_of_unity,
    scalar_orthogonality,
    table_rows,
)


def dixon(group):
    """The Dixon table of a FiniteGroup, through its regular representation."""
    return CharacterTable.dixon(regular_representation(group))


def perm_mul(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def symmetric_group(n):
    elements = list(itertools.permutations(range(n)))
    gens = []
    for i in range(n - 1):
        p = list(range(n))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    return FiniteGroup(elements, perm_mul, tuple(range(n)), generators=gens)


def cyclic_group(n):
    return FiniteGroup(
        range(n), lambda x, y: (x + y) % n, 0, generators=[1 % n]
    )


def quaternion_group():
    # elements 0..7 = 1, -1, i, -i, j, -j, k, -k
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    idx = {s: e for e, s in enumerate(names)}

    def neg(s):
        return s[1:] if s.startswith("-") else "-" + s

    base = {
        ("1", "1"): "1",
        ("i", "i"): "-1",
        ("j", "j"): "-1",
        ("k", "k"): "-1",
        ("i", "j"): "k",
        ("j", "k"): "i",
        ("k", "i"): "j",
        ("j", "i"): "-k",
        ("k", "j"): "-i",
        ("i", "k"): "-j",
    }

    def mul_names(x, y):
        sx, sy = x.lstrip("-"), y.lstrip("-")
        sign = x.startswith("-") ^ y.startswith("-")
        if sx == "1":
            out = sy
        elif sy == "1":
            out = sx
        elif sx == sy:
            out = "-1"
        else:
            out = base[(sx, sy)]
        return neg(out) if sign else out

    def mul(x, y):
        return idx[mul_names(names[x], names[y])]

    return FiniteGroup(range(8), mul, 0, generators=[idx["i"], idx["j"]])


class TestFiniteGroup:
    def test_s3_basic(self):
        g = symmetric_group(3)
        assert g.order == 6
        assert g.exponent() == 6
        classes = g.conjugacy_classes()
        sizes = [len(c) for c in classes]
        assert sizes == [1, 2, 3]
        assert g.identity in classes[0]

    def test_element_orders_s4(self):
        g = symmetric_group(4)
        orders = sorted(g.element_order(x) for x in g.elements)
        assert orders.count(1) == 1
        assert orders.count(2) == 9  # 6 transpositions + 3 double transpositions
        assert orders.count(3) == 8
        assert orders.count(4) == 6

    def test_inverse(self):
        g = symmetric_group(4)
        for x in g.elements:
            assert g.mul(x, g.inverse(x)) == g.identity

    def test_cyclic_classes(self):
        g = cyclic_group(6)
        classes = g.conjugacy_classes()
        assert [len(c) for c in classes] == [1] * 6

    def test_dihedral_class_count(self):
        # symmetries of a square acting on vertices
        r = (1, 2, 3, 0)
        s = (1, 0, 3, 2)
        elems = set()
        frontier = [tuple(range(4))]
        while frontier:
            x = frontier.pop()
            if x in elems:
                continue
            elems.add(x)
            frontier.extend([perm_mul(x, r), perm_mul(x, s)])
        g = FiniteGroup(elems, perm_mul, tuple(range(4)), generators=[r, s])
        assert g.order == 8
        assert len(g.conjugacy_classes()) == 5


class TestDixon:
    def test_s3_table(self):
        table = dixon(symmetric_group(3))
        assert table.degrees == [1, 1, 2]
        # classes: identity, then 3-cycles (size 2), then transpositions (size 3)
        assert table.class_sizes == [1, 2, 3]
        rows = [[v.rational_value() for v in row] for row in table_rows(table)]
        assert [1, 1, 1] in rows
        assert [1, 1, -1] in rows
        assert [2, -1, 0] in rows

    def test_s4_degrees(self):
        table = dixon(symmetric_group(4))
        assert table.degrees == [1, 1, 2, 3, 3]
        assert table.sum_of_degree_squares() == 24

    def test_c4_values_are_fourth_roots(self):
        table = dixon(cyclic_group(4))
        assert table.degrees == [1, 1, 1, 1]
        # every value is zeta_4^k; the table contains a faithful character
        values = [v for row in table_rows(table) for v in row]
        i = root_of_unity(4, 1)
        assert any(v == i for v in values)
        assert any(v == -1 for v in values)

    def test_quaternion(self):
        table = dixon(quaternion_group())
        assert table.degrees == [1, 1, 1, 1, 2]
        two_dim = table_rows(table)[-1]
        vals = sorted(
            v.rational_value() for v in two_dim
        )
        assert vals == [-2, 0, 0, 0, 2]

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 8, 12])
    def test_cyclic_linear(self, n):
        table = dixon(cyclic_group(n))
        assert table.degrees == [1] * n
        assert table.verify_row_orthogonality()
        assert table.verify_column_orthogonality()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_symmetric_orthogonality(self, n):
        table = dixon(symmetric_group(n))
        assert table.verify_row_orthogonality()
        assert table.verify_column_orthogonality()
        import math

        assert table.sum_of_degree_squares() == math.factorial(n)

    def test_values_are_algebraic_integer_combinations(self):
        # all character values lie in Z[zeta_o] with integer coordinates
        table = dixon(symmetric_group(4))
        for row in table_rows(table):
            for v in row:
                for _, num, den in v.to_triples():
                    assert den == 1

    def test_weyl_fingerprint_separates_dihedral_from_quaternion(self):
        # W(B2) is the dihedral group of order 8; Q8 has the same order,
        # degrees and class sizes, but three classes of elements of order 4
        fp_d = group_fingerprint(weyl_group("B", 2))
        fp_q = group_fingerprint(regular_representation(quaternion_group()))
        assert fp_d[:2] == fp_q[:2] == (8, (1, 1, 1, 1, 2))
        assert fp_d != fp_q

    def test_first_column_is_degree(self):
        table = dixon(quaternion_group())
        for row, deg in zip(table_rows(table), table.degrees):
            assert row[0] == Fraction(deg)


# The three table suites in a fresh interpreter, counting per Dixon table its
# class count and the class matrices its per-class loop computed.
SPLIT_CHILD = """
import json
from charverify import fields, suites
from charverify.grouptable import CharacterTable, ColoredPermGroup

made = [0]
class_matrix = ColoredPermGroup.class_matrix
dixon = CharacterTable.dixon.__func__
tables = []

def counted(self, i):
    made[0] += 1
    return class_matrix(self, i)

def recorded(cls, group):
    before = made[0]
    table = dixon(cls, group)
    tables.append((len(table.degrees), made[0] - before))
    return table

ColoredPermGroup.class_matrix = counted
CharacterTable.dixon = classmethod(recorded)
fields.load_cuspidal_field_data()
failed = [name for name in ("thm41", "lemma42", "weyl-match")
          if suites.run_suite(name).counterexamples]
print(json.dumps({"failed": failed, "tables": tables}))
"""


PERTURBED_GROUPS = {
    "W(B3)": lambda: weyl_group("B", 3),
    "W(B4)": lambda: weyl_group("B", 4),
    "W(A4)": lambda: weyl_group("A", 4),
    "G(4,2,3)": lambda: get_subgroup(4, 3),
    "G(6,2,2)": lambda: get_subgroup(6, 2),
}


class TestDixonSplit:
    def test_seed_and_fallback_both_run_on_the_default_grids(self):
        """Over thm41, lemma42 and weyl-match, the seed combination alone
        separates the characters of some tables and leaves spaces to the
        per-class loop in others, which computes fewer than 100 class
        matrices in all."""
        src = str(Path(charverify.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", SPLIT_CHILD], capture_output=True, text=True, env=env, check=True
        )
        out = json.loads(result.stdout.strip().splitlines()[-1])
        assert out["failed"] == []
        made = [m for r, m in out["tables"] if r > 1]
        assert 0 in made and any(made)
        assert sum(made) < 100

    @pytest.mark.parametrize("name", list(PERTURBED_GROUPS))
    def test_perturbed_seed_is_refused(self, name, monkeypatch):
        """One entry of the seed combination (the first class combination
        Dixon forms) raised by 1 mod p: Dixon raises AssertionError, on
        every one of eight seeded entries, and returns no table."""
        group = PERTURBED_GROUPS[name]()
        r = len(group.conjugacy_classes())
        combination = ColoredPermGroup.class_combination
        rng = random.Random(r)
        for j, k in rng.sample(list(itertools.product(range(r), repeat=2)), 8):
            calls = []

            def perturbed(self, classes, weights):
                out = combination(self, classes, weights)
                if not calls:
                    out[j, k] += 1
                calls.append(classes)
                return out

            monkeypatch.setattr(ColoredPermGroup, "class_combination", perturbed)
            with pytest.raises(AssertionError):
                CharacterTable.dixon(group)
            assert list(calls[0]) == list(range(1, len(calls[0]) + 1)), (name, j, k)
        monkeypatch.undo()
        assert CharacterTable.dixon(group).sum_of_degree_squares() == group.order


    def test_identity_component_is_checked_against_the_degrees(self, monkeypatch):
        """u[0] |G| = chi(1)^2 mod p holds on every table; with the
        identity-class components doubled (the eigenvectors kept), Dixon
        refuses the table."""
        group = weyl_group("B", 3)
        split = grouptable._split_space

        def doubled(*args):
            p = args[-1]
            return [(R, piv, 2 * part % p) for R, piv, part in split(*args)]

        monkeypatch.setattr(grouptable, "_split_space", doubled)
        with pytest.raises(AssertionError, match="disagrees with the degree"):
            CharacterTable.dixon(group)
        monkeypatch.undo()
        assert CharacterTable.dixon(group).degrees == [1, 1, 1, 1, 2, 2, 3, 3, 3, 3]


# ---------------------------------------------------------------------------
# scalar F_p oracles for the int64 kernels of grouptable
# ---------------------------------------------------------------------------


def dihedral_group(n):
    # (rotation r, reflection s) as pairs; (r1, s1)(r2, s2)
    def mul(x, y):
        return ((x[0] + (-y[0] if x[1] else y[0])) % n, x[1] ^ y[1])

    elements = [(r, s) for r in range(n) for s in (0, 1)]
    return FiniteGroup(elements, mul, (0, 0), generators=[(1, 0), (0, 1)])


def orthogonality(table, raw, class_sizes, group_order):
    """Both relations of ``table``'s classes with these values, sizes and
    group order."""
    other = CharacterTable(raw, class_sizes, table.class_orders, group_order)
    return other.verify_row_orthogonality(), other.verify_column_orthogonality()


SMALL_GROUPS = {
    "C6": lambda: cyclic_group(6),
    "S3": lambda: symmetric_group(3),
    "S4": lambda: symmetric_group(4),
    "Q8": quaternion_group,
    "D8": lambda: dihedral_group(4),
    "D10": lambda: dihedral_group(5),
}


class TestOrthogonality:
    """The passes over ``raw`` against the scalar sums of
    ``CyclotomicNumber`` products, on small tables only."""

    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
    def test_matches_scalar_oracle(self, name):
        table = dixon(SMALL_GROUPS[name]())
        order = table.group.order
        assert scalar_orthogonality(table_rows(table), table.class_sizes, order) == (
            True,
            True,
        )
        assert table.verify_row_orthogonality()
        assert table.verify_column_orthogonality()

    @pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
    def test_perturbed_entry_fails_both(self, name):
        table = dixon(SMALL_GROUPS[name]())
        order = table.group.order
        L, C, _ = table.raw.shape
        for i, j in ((L - 1, C - 1), (0, C - 1), (L - 1, 1 % C)):
            raw = table.raw.copy()
            raw[i, j, 0] += 1
            assert orthogonality(table, raw, table.class_sizes, order) == (False, False)
            broken = CharacterTable(raw, table.class_sizes, table.class_orders, order)
            assert scalar_orthogonality(
                table_rows(broken), table.class_sizes, order
            ) == (False, False)

    def test_wrong_class_size_fails(self):
        table = dixon(symmetric_group(3))
        sizes = list(table.class_sizes)
        sizes[-1] += 1
        rows_ok, cols_ok = orthogonality(table, table.raw, sizes, table.group.order)
        assert not rows_ok and not cols_ok

    def test_overflow_refused_up_front(self):
        table = dixon(cyclic_group(6))
        # ``raw`` is stored compact (int8 here): widen before scaling
        wide = table.raw.astype(np.int64)
        raw = wide * 2**24
        with pytest.raises(OverflowError):
            orthogonality(table, raw, table.class_sizes, table.group.order)
        # just inside the float64 range: still exact
        scaled = wide * 2**20
        rows_ok, _ = orthogonality(table, scaled, table.class_sizes, table.group.order * 2**40)
        assert rows_ok


def boundary_table(peak, seed):
    """A hand-built (6, 6, 12) value array with entries drawn from
    {0, +-1, +-(peak - 1), +-peak}: column j has order (1, 2, 3, 4, 6, 12)[j],
    column 0 holds positive degrees, and rows 1, 2 and 3 are made fixed by
    every unit, by k = 1 mod 4 and by k = 1 mod 3, so that the conductors
    and H_d answers vary from row to row."""
    rng = random.Random(seed)
    n, orders = 12, (1, 2, 3, 4, 6, 12)
    choices = (0, 1, -1, peak - 1, 1 - peak, peak, -peak)
    groups = [(1,), unit_residues(n), (1, 5), (1, 7), (1,), (1,)]
    raw = np.zeros((len(groups), len(orders), n), dtype=np.int64)
    for i, group in enumerate(groups):
        raw[i, 0, 0] = rng.choice((1, peak - 1, peak))
        for j, o in enumerate(orders[1:], start=1):
            coeffs = [None] * o
            for e in range(o):
                if coeffs[e] is None:
                    x = rng.choice(choices)
                    for k in group:
                        coeffs[e * k % o] = x
            raw[i, j, :: n // o] = coeffs
    return raw, list(orders)


class TestCompactStore:
    """``raw`` is stored read-only in the smallest signed integer type that
    holds -peak - 1; every pass widens before its arithmetic, so narrow and
    int64 input give the same answers."""

    @pytest.mark.parametrize(
        "peak,dtype",
        [
            (0, np.int8),
            (127, np.int8),
            (128, np.int16),
            (32767, np.int16),
            (32768, np.int32),
            (2**31 - 1, np.int32),
            (2**31, np.int64),
            (2**63 - 1, np.int64),
        ],
    )
    def test_dtype_boundaries(self, peak, dtype):
        assert _compact_dtype(peak) == dtype

    @pytest.mark.parametrize(
        "entry,dtype",
        [
            (127, np.int8),
            (-127, np.int8),
            (128, np.int16),
            (-128, np.int16),
            (32767, np.int16),
            (-32767, np.int16),
            (32768, np.int32),
            (-32768, np.int32),
        ],
    )
    def test_constructor_narrows_to_the_peak(self, entry, dtype):
        raw = np.array([[[1, 0], [entry, 0]]], dtype=np.int64)
        table = CharacterTable(raw, [1, 1], [1, 2], 2)
        assert table.raw.dtype == dtype
        assert table.raw.tolist() == raw.tolist()

    def test_peak_reads_past_the_wrap_of_abs(self):
        values = np.array([3, -128, 127], dtype=np.int8)
        assert np.abs(values).max() == 127  # abs(-128) wraps to -128 in int8
        assert _peak(values) == 128

    def test_refusals(self):
        with pytest.raises(OverflowError):
            _compact_dtype(2**63)
        with pytest.raises(TypeError):
            CharacterTable(np.ones((1, 1, 1)), [1], [1], 1)

    def test_dixon_tables_are_narrowed(self):
        for name, build in sorted(SMALL_GROUPS.items()):
            table = dixon(build())
            assert table.raw.dtype == np.int8, name
            assert not table.raw.flags.writeable, name

    @pytest.mark.parametrize("peak", [127, 128, 32767, 32768])
    def test_narrow_and_int64_input_agree(self, peak):
        wide, orders = boundary_table(peak, seed=peak)
        n = wide.shape[2]
        sizes = [1, 3, 4, 6, 12, 24]
        table = CharacterTable(wide, sizes, orders, 48)
        narrow = table.raw
        assert narrow.dtype == _compact_dtype(peak) != np.int64
        assert _column_orders(narrow).tolist() == _column_orders(wide).tolist() == orders

        units = unit_residues(n)
        assert np.array_equal(galois_fixed_rows(narrow, units), galois_fixed_rows(wide, units))
        assert np.array_equal(galois_fixed_rows(wide, units), fixed_rows_by_reduction(narrow, units))
        conductors = conductors_from_fixedness(galois_fixed_rows(wide, units), n)
        assert table.conductors().tolist() == conductors.tolist()
        assert len(set(conductors.tolist())) > 2
        for d in range(1, 13):
            fixed = galois_fixed_rows(wide, hd_residues(n, d)).all(axis=0)
            assert table.hd_fixed_rows(d).tolist() == fixed.tolist(), d
        with pytest.raises(ValueError):
            table.hd_fixed_rows(0)

        rows = conjugate_products(wide, sizes)
        assert np.array_equal(conjugate_products(narrow, sizes), rows)
        by_class = [1] * wide.shape[0]
        columns = conjugate_products(wide.transpose(1, 0, 2), by_class)
        assert np.array_equal(conjugate_products(narrow.transpose(1, 0, 2), by_class), columns)
        # the kernel's products are the oracle's sums, evaluated at each
        # embedding zeta_12 -> w mod p, on narrow and on int64 input alike
        for values, weights, sums in (
            (wide, sizes, rows),
            (narrow, sizes, rows),
            (wide.transpose(1, 0, 2), by_class, columns),
            (narrow.transpose(1, 0, 2), by_class, columns),
        ):
            products = list(_conjugate_evaluations(values, weights, 2**40))
            assert len(products) == 2 * 2  # two primes above 2^20, the pairs {1, 11}, {5, 7}
            for p, w, M in products:
                powers = np.array([pow(w, e, p) for e in range(sums.shape[2])])
                assert np.array_equal(M, sums % p @ powers % p)
        # a sum of squares of values near the peak: wrapping would show here
        assert int(rows[0, 0].max()) >= (peak - 1) ** 2
        expected = np.zeros_like(rows)
        expected[np.arange(6), np.arange(6), 0] = 48
        assert table.verify_row_orthogonality() == np.array_equal(rows, expected)
        assert not table.verify_column_orthogonality()

        for i, j in np.ndindex(*wide.shape[:2]):
            o = orders[j]
            coeffs = {e: int(wide[i, j, e * n // o]) for e in range(o)}
            assert table.value(i, j) == CyclotomicNumber(o, coeffs), (i, j)

        assert not narrow.flags.writeable
        with pytest.raises(ValueError):
            narrow[0, 0, 0] = 1


def rref_oracle(M, p):
    """Reduced row echelon form by scalar Gauss-Jordan elimination:
    (nonzero rows, pivot columns)."""
    rows = [[x % p for x in row] for row in M]
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def nullspace_oracle(M, p):
    """Kernel basis of M over F_p: one vector per free column, in order."""
    rows, pivots = rref_oracle(M, p)
    n = len(M[0])
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = 1
        for row, c in zip(rows, pivots):
            v[c] = (-row[fc]) % p
        basis.append(v)
    return basis


def charpoly_oracle(M, p):
    """Characteristic polynomial over F_p (scalar Faddeev-LeVerrier),
    lowest coefficient first."""
    n = len(M)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    Mk = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        N = [
            [sum(M[i][t] * Mk[t][j] for t in range(n)) % p for j in range(n)]
            for i in range(n)
        ]
        c = (-pow(k, -1, p) * sum(N[i][i] for i in range(n))) % p
        coeffs[n - k] = c
        Mk = N
        for i in range(n):
            Mk[i][i] = (Mk[i][i] + c) % p
    return coeffs


def poly_roots_oracle(coeffs, p):
    """Roots in F_p of the lowest-first polynomial, by scalar scan."""
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def random_matrices(p, seed, count=12):
    """Seeded square and rectangular matrices mod p; every third one has
    deficient rank (a product through a thinner middle dimension)."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
        k = rng.randint(0, min(n_rows, n_cols) - 1) if t % 3 == 2 else n_cols
        left = [[rng.randrange(p) for _ in range(k)] for _ in range(n_rows)]
        right = [[rng.randrange(p) for _ in range(n_cols)] for _ in range(k)]
        if k == n_cols:
            right = [[int(i == j) for j in range(n_cols)] for i in range(k)]
        out.append(
            [
                [sum(left[i][u] * right[u][j] for u in range(k)) % p for j in range(n_cols)]
                for i in range(n_rows)
            ]
        )
    return out


def random_diagonalizable(p, seed, count=12):
    """Seeded (A, P, D, a): A = P^-1 diag(D) P over F_p, so row t of P is a
    left eigenvector of A with eigenvalue D[t] (c -> c A), every row
    nonzero in column 0; eigenvalues drawn from a few values so that some
    repeat; a holds nonzero weights of the rows."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(1, 6)
        P = [[rng.randrange(1, p)] + [rng.randrange(p) for _ in range(k - 1)] for _ in range(k)]
        if len(rref_oracle(P, p)[1]) < k:
            continue
        values = [rng.randrange(p) for _ in range(rng.randint(1, k))]
        D = [rng.choice(values) for _ in range(k)]
        P_inv = [row[k:] for row in rref_oracle([row + [int(i == j) for j in range(k)] for i, row in enumerate(P)], p)[0]]
        A = [
            [sum(P_inv[i][t] * D[t] * P[t][j] for t in range(k)) % p for j in range(k)]
            for i in range(k)
        ]
        out.append((A, P, D, [rng.randrange(1, p) for _ in range(k)]))
    return out


PRIMES = (7, 101, 7681)


class TestFpKernels:
    @pytest.mark.parametrize("p", PRIMES)
    def test_rref_matches_oracle(self, p):
        for M in random_matrices(p, seed=p):
            R, pivots = _rref(np.array(M), p)
            rows, want_pivots = rref_oracle(M, p)
            assert pivots == want_pivots
            assert R.tolist() == rows

    @pytest.mark.parametrize("p", PRIMES)
    def test_nullspace_matches_oracle(self, p):
        for M in random_matrices(p, seed=p + 1):
            N = _nullspace(np.array(M), p)
            assert N.tolist() == nullspace_oracle(M, p)
            assert len(N) + len(rref_oracle(M, p)[1]) == len(M[0])
            assert not (np.array(M) @ N.T % p).any()

    @pytest.mark.parametrize("p", PRIMES)
    def test_rank_deficient_cases_are_drawn(self, p):
        matrices = random_matrices(p, seed=p)
        deficient = [
            M for M in matrices if len(rref_oracle(M, p)[1]) < min(len(M), len(M[0]))
        ]
        assert len(deficient) >= len(matrices) // 3

    @pytest.mark.parametrize("p", PRIMES)
    def test_charpoly_matches_oracle(self, p):
        for M in random_matrices(p, seed=2 * p, count=30):
            n = min(len(M), len(M[0]), p - 1)
            square = [row[:n] for row in M[:n]]
            assert _charpoly(np.array(square), p) == charpoly_oracle(square, p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_poly_roots_match_oracle(self, p):
        rng = random.Random(5 * p)
        for t in range(20):
            if t % 2:
                coeffs = [rng.randrange(p) for _ in range(rng.randint(1, 6))]
            else:  # split: a product of linear factors x - a
                roots = [rng.randrange(p) for _ in range(rng.randint(0, 5))]
                coeffs = [1]
                for a in roots:
                    coeffs = [
                        (low - a * high) % p
                        for low, high in zip([0] + coeffs, coeffs + [0])
                    ]
                assert _poly_roots(coeffs, p) == sorted(set(roots))
            assert _poly_roots(coeffs, p) == poly_roots_oracle(coeffs, p)

    def test_poly_roots_of_split_polynomial(self):
        # (x - 1)(x - 3)^2 (x - 5) over F_7
        coeffs = charpoly_oracle([[1, 0, 0, 0], [0, 3, 1, 0], [0, 0, 3, 0], [0, 0, 0, 5]], 7)
        assert _poly_roots(coeffs, 7) == [1, 3, 5]

    @pytest.mark.parametrize("p", PRIMES)
    def test_split_space_matches_oracle(self, p):
        """Each space ``_split_space`` returns is the RREF of the kernel of
        A^T - lam (``nullspace_oracle``), one per eigenvalue, ascending, and
        holds the component of u = sum_t a_t P_t in it: on the whole space
        and on a space of F_p^(k+2) spanned by an RREF basis B."""
        repeated = 0
        for A, P, D, a in random_diagonalizable(p, seed=3 * p, count=30):
            k = len(A)
            rng = random.Random(k * p)
            wide = [[rng.randrange(1, p)] + [rng.randrange(p) for _ in range(k + 1)]] + [
                [rng.randrange(p) for _ in range(k + 2)] for _ in range(k - 1)
            ]
            spans = [(np.eye(k, dtype=np.int64), list(range(k)))]
            rows, pivots = rref_oracle(wide, p)
            if len(pivots) == k:
                spans.append((np.array(rows), pivots))
            for B, pivots in spans:
                u = np.array(a) @ np.array(P) @ B % p
                spaces = _split_space(B, pivots, u, np.array(A), p)
                assert len(spaces) == len(set(D))
                for lam, (R, piv, part) in zip(sorted(set(D)), spaces):
                    kernel = nullspace_oracle(
                        [[(A[j][i] - lam * (i == j)) % p for j in range(k)] for i in range(k)], p
                    )
                    want_rows, want_pivots = rref_oracle((np.array(kernel) @ B % p).tolist(), p)
                    assert (R.tolist(), piv) == (want_rows, want_pivots)
                    mine = [a[t] * np.array(P[t]) for t in range(k) if D[t] == lam]
                    assert part.tolist() == (sum(mine) % p @ B % p).tolist()
            repeated += len(set(D)) < k
        assert repeated >= 5

    def test_split_space_refuses_a_component_off_its_space(self):
        B, pivots = np.array([[1, 0, 2], [0, 1, 3]]), [0, 1]
        with pytest.raises(AssertionError):
            _split_space(B, pivots, np.array([1, 0, 0]), np.array([[1, 0], [0, 2]]), 7)

    def test_int64_guard(self):
        _check_int64(49, 7681)  # the largest field the suites use
        _check_int64(1, 2**31)  # n * p^2 = 2^62
        with pytest.raises(OverflowError):
            _check_int64(2, 2**31)  # n * p^2 = 2^63
        with pytest.raises(OverflowError):
            _check_int64(49, 10**9 + 7)
