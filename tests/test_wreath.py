"""Tests for wreath-product character tables, conductors, and restrictions
(the restriction to G(m,2,a) is the oracle in ``scalar_oracles``)."""

import hashlib
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from charverify import cli, partitions, wreath
from charverify.cyclotomic import (
    CyclotomicNumber,
    conductors_from_fixedness,
    unit_residues,
)
from charverify.grouptable import CharacterTable, _compact_dtype
from charverify.ladic import hd_residues
from charverify.partitions import Partition
from charverify.suites import run_suite
from charverify.wreath import (
    MAX_LABELS,
    MAX_TABLE_BYTES,
    _build_raw,
    _check_label_count,
    _check_table_bytes,
    _column_memo,
    _hook_op,
    _label_count,
    _label_index,
    _label_ranks,
    _labels_by_size,
    _max_degree,
    _table_fixed,
    WreathClass,
    class_labels,
    conductor_of_char,
    get_full_group,
    get_subgroup,
    get_subgroup_table,
    get_table,
    h_d_invariant,
    irr_labels,
    table_conductors,
    table_hd_fixed,
)
from scalar_oracles import (
    IndexTwoConstituent,
    char_value,
    colored_type,
    conductor,
    galois_permuted_label,
    hook_op_entries,
    listed_elements,
    mn_raw_by_hooks,
    pair_mul,
    partition_tuples,
    restrict_index2,
    scalar_orthogonality,
    scalar_row_answers,
    table_rows,
    table_value,
    wreath_degree,
    twist_label,
    verify_galois_equivariance,
    wreath_degree,
)

P = Partition
E = P(())


class TestLabelsAndClasses:
    def test_label_count_2_2(self):
        labs = irr_labels(2, 2)
        assert len(labs) == 5
        assert (P((1,)), P((1,))) in labs

    def test_label_count_12_4(self):
        assert len(irr_labels(12, 4)) == 2535

    @pytest.mark.parametrize("m,a", [(1, 4), (2, 3), (3, 2), (4, 2), (5, 3), (6, 4)])
    def test_label_and_class_counts_agree(self, m, a):
        assert len(irr_labels(m, a)) == len(class_labels(m, a))

    def test_class_sizes_sum_to_group_order(self):
        for m, a in [(2, 3), (3, 3), (4, 2), (6, 2)]:
            total = sum(cls.size(m) for cls in class_labels(m, a))
            assert total == m**a * math.factorial(a)

    def test_centralizer_order(self):
        # one 2-cycle of color 1 and one fixed point: z = (2m) * (m)
        cls = WreathClass(((2, 1), (1, 0)))
        assert cls.centralizer_order(2) == 8
        assert cls.size(2) == 2**3 * 6 // 8
        # two 1-cycles of equal color: z = m^2 * 2!
        cls2 = WreathClass(((1, 1), (1, 1)))
        assert cls2.centralizer_order(3) == 18

    def test_class_validation(self):
        with pytest.raises(ValueError):
            WreathClass(((0, 1),))

    @pytest.mark.parametrize("m,a", [(1, 4), (2, 3), (3, 2), (4, 2), (6, 2)])
    def test_element_order_matches_explicit_group(self, m, a):
        group = get_full_group(m, a)
        orders = {}
        for g, o in zip(listed_elements(group), group.powers()[1].tolist()):
            orders.setdefault(colored_type(g, m), set()).add(o)
        assert set(orders) == set(class_labels(m, a))
        for cls, seen in orders.items():
            assert seen == {cls.element_order(m)}, cls


class TestCharacterValues:
    def test_cyclic_base_case(self):
        # m=3, a=1: the label with (1) in component k restricted to a single
        # 1-cycle of color j has value zeta_3^{jk}
        value = char_value((E, P((1,)), E), WreathClass(((1, 1),)), 3)
        assert value == CyclotomicNumber(3, {1: 1})
        value2 = char_value((E, E, P((1,))), WreathClass(((1, 2),)), 3)
        assert value2 == CyclotomicNumber(3, {4: 1})  # zeta^4 = zeta

    def test_symmetric_group_specialization(self):
        # m = 1 recovers the ordinary symmetric-group table
        table = get_table(1, 3)
        lab = (P((2, 1)),)
        vals = {
            cls.cycles: table_value(table, table.label_index[lab], j)
            for j, cls in enumerate(table.classes)
        }
        assert vals[((3, 0),)] == -1
        assert vals[((2, 0), (1, 0))] == 0
        assert vals[((1, 0), (1, 0), (1, 0))] == 2

    def test_hook_sign(self):
        # chi_{(1^2)} on a 2-cycle is -1
        table = get_table(1, 2)
        lab = (P((1, 1)),)
        assert table_value(table, table.label_index[lab], table.class_index[((2, 0),)]) == -1

    @pytest.mark.parametrize("m,a", [(2, 2), (2, 3), (3, 2), (4, 2), (3, 3), (6, 2)])
    def test_degree_formula_matches_identity_value(self, m, a):
        table = get_table(m, a)
        for i, lab in enumerate(table.labels):
            assert table.degrees[i] == wreath_degree(lab)

    @pytest.mark.parametrize("m,a", [(2, 2), (2, 3), (3, 2), (4, 2), (6, 2), (5, 2)])
    def test_sum_of_degree_squares(self, m, a):
        assert get_table(m, a).sum_of_degree_squares() == m**a * math.factorial(a)

    def test_value_argument_validation(self):
        with pytest.raises(ValueError):
            char_value((E, P((1,))), WreathClass(((1, 0),)), 3)  # wrong length
        with pytest.raises(ValueError):
            char_value((E, P((1,)), E), WreathClass(((2, 0),)), 3)  # wrong weight


class TestDixonOracle:
    """The recursion is checked against tables computed from explicit groups."""

    @pytest.mark.parametrize("m,a", [(2, 2), (3, 2), (2, 3), (4, 2)])
    def test_wreath_table_matches_explicit_group(self, m, a):
        table = get_table(m, a)
        group = get_full_group(m, a)
        dixon = CharacterTable.dixon(group)
        assert group.order == m**a * math.factorial(a)
        # identify each Dixon class with a colored cycle type
        rep_types = [colored_type(rep, m) for rep in dixon.class_reps]
        assert sorted(t.cycles for t in rep_types) == sorted(
            c.cycles for c in table.classes
        )
        # every recursion row must occur exactly once among the Dixon rows
        matched = set()
        for i in range(len(table.labels)):
            row = [
                table_value(table, i, table.class_index[t.cycles]) for t in rep_types
            ]
            hits = [
                j
                for j, drow in enumerate(table_rows(dixon))
                if all(u == v for u, v in zip(row, drow))
            ]
            assert len(hits) == 1, f"row {i} matched {hits}"
            matched.add(hits[0])
        assert len(matched) == len(table.labels)

    def test_class_sizes_match_explicit_group(self):
        m, a = 3, 2
        table = get_table(m, a)
        group = get_full_group(m, a)
        for rows in group.conjugacy_classes():
            t = colored_type(group.element(rows[0]), m)
            assert len(rows) == table.class_sizes[table.class_index[t.cycles]]


class TestOrthogonality:
    @pytest.mark.parametrize(
        "m,a", [(1, 4), (2, 2), (2, 4), (3, 3), (4, 2), (5, 2), (6, 2), (6, 3)]
    )
    def test_row_and_column_orthogonality(self, m, a):
        table = get_table(m, a)
        assert table.order == m**a * math.factorial(a)
        assert table.verify_row_orthogonality() and table.verify_column_orthogonality()

    @pytest.mark.parametrize("m,a", [(1, 3), (2, 2), (2, 3), (3, 2), (4, 2)])
    def test_matches_scalar_oracle(self, m, a):
        table = get_table(m, a)
        values = [
            [table_value(table, i, j) for j in range(len(table.classes))]
            for i in range(len(table.labels))
        ]
        order = m**a * math.factorial(a)
        assert scalar_orthogonality(values, table.class_sizes, order) == (True, True)

    @pytest.mark.parametrize("m,a", [(2, 2), (4, 2), (2, 3)])
    def test_subgroup_tables_match_scalar_oracle(self, m, a):
        table = get_subgroup_table(m, a)
        order = table.group.order
        assert table.verify_row_orthogonality() and table.verify_column_orthogonality()
        assert scalar_orthogonality(table_rows(table), table.class_sizes, order) == (
            True,
            True,
        )


class TestGaloisAction:
    def test_permuted_label(self):
        lab = (E, P((1,)), E, E)
        # sigma_3: mu^(j) = lambda^(3j mod 4) since 3^{-1} = 3 mod 4
        assert galois_permuted_label(lab, 4, 3) == (E, E, E, P((1,)))
        with pytest.raises(ValueError):
            galois_permuted_label(lab, 4, 2)

    @pytest.mark.parametrize("m,a", [(2, 3), (3, 2), (4, 2), (5, 2), (6, 2), (6, 3)])
    def test_equivariance_value_level(self, m, a):
        assert verify_galois_equivariance(m, a)

    def test_conductor_frozen_examples(self):
        assert conductor_of_char((E, P((2,)), E, E), 4) == 4
        assert conductor_of_char((P((1,)), P((1,))), 2) == 1
        assert conductor_of_char((P((2, 1)),), 1) == 1
        # component permutation invariance under all of (Z/3)^x
        assert conductor_of_char((P((1,)), P((1,)), P((1,))), 3) == 1
        # moved by sigma_2 mod 3
        assert conductor_of_char((E, P((1,)), E), 3) == 3

    @pytest.mark.parametrize("m", [1, 2])
    def test_small_m_always_rational(self, m):
        for a in range(0, 4):
            for lab in irr_labels(m, a):
                assert conductor_of_char(lab, m) == 1

    @pytest.mark.parametrize("m,a", [(3, 2), (4, 2), (5, 2), (6, 2), (6, 3)])
    def test_label_route_matches_values_route(self, m, a):
        # conductor_of_char reads the label; the table's own pass its values
        by_values = get_table(m, a).conductors()
        for i, lab in enumerate(irr_labels(m, a)):
            assert conductor_of_char(lab, m) == by_values[i]

    @pytest.mark.parametrize("m,a", [(3, 2), (4, 2), (6, 2)])
    def test_values_route_matches_elementwise_conductor(self, m, a):
        # third route: lcm of conductors of the individual table entries
        table = get_table(m, a)
        for i, lab in enumerate(table.labels):
            by_entries = math.lcm(
                *[conductor(table_value(table, i, j)) for j in range(len(table.classes))]
            )
            assert conductor_of_char(lab, m) == by_entries


class TestHdInvariance:
    def test_frozen_false_example(self):
        lab = (E, P((1,)), E, E)
        assert h_d_invariant(lab, 4, d=2) is False
        by_labels = _table_fixed(4, 1, hd_residues(4, 2)).all(axis=0)
        assert not by_labels[irr_labels(4, 1).index(lab)]
        assert h_d_invariant(lab, 4, d=4) is True

    def test_trivial_when_m_divides_d(self):
        # k = 1 mod d forces k = 1 mod m, so every character is fixed
        for m, d in [(2, 2), (3, 3), (4, 4), (3, 6), (4, 8), (6, 6)]:
            for a in (1, 2):
                for lab in irr_labels(m, a):
                    assert h_d_invariant(lab, m, d=d)

    def test_label_route_matches_values_route(self):
        for m, a in [(3, 2), (4, 2), (6, 2), (4, 3)]:
            for d in range(1, 9):
                by_values = get_table(m, a).hd_fixed_rows(d).tolist()
                assert _table_fixed(m, a, hd_residues(m, d)).all(axis=0).tolist() == by_values
                for lab, fixed in zip(irr_labels(m, a), by_values):
                    assert h_d_invariant(lab, m, d=d) is fixed

    def test_residue_class_criterion(self):
        # when m is even, m | 2d but m does not divide d, fixedness under
        # H_[d] is exactly invariance under the shift j -> j * (1 + m/2)
        m, d = 8, 12
        shift = 1 + m // 2
        by_labels = _table_fixed(m, 2, hd_residues(m, d)).all(axis=0)
        for i, lab in enumerate(irr_labels(m, 2)):
            expected = all(
                lab[(j * shift) % m] == lab[j] for j in range(m)
            )
            assert by_labels[i] == expected
            assert h_d_invariant(lab, m, d=d) == expected


class TestIndexTwoRestriction:
    def test_subgroup_structure(self):
        g = get_subgroup(2, 2)
        assert g.order == 4
        assert get_subgroup(4, 3).order == 4**3 * 6 // 2
        with pytest.raises(ValueError):
            get_subgroup(3, 2)

    def test_subgroup_closure(self):
        # the row found for a product is the pair the Python multiplication gives
        g = get_subgroup(4, 2)
        mul = pair_mul(4)
        for x in range(8):
            for y in range(8):
                assert g.element(g.product(x, y)) == mul(g.element(x), g.element(y))

    def test_colored_type(self):
        assert colored_type(((1, 1), (1, 0)), 2).cycles == ((2, 0),)
        assert colored_type(((0, 0), (0, 1)), 2).cycles == ((1, 0), (1, 0))
        assert colored_type(((1, 1, 0), (0, 1, 2)), 3).cycles == (
            (1, 1),
            (1, 1),
            (1, 0),
        )

    def test_twist_label(self):
        lab = (P((1,)), E, P((2,)), E)
        assert twist_label(lab, 4) == (P((2,)), E, P((1,)), E)
        with pytest.raises(ValueError):
            twist_label(lab, 3)

    def test_split_case_klein(self):
        # C_2 wr S_2 restricted to its index-2 subgroup (Klein four group)
        parts = restrict_index2((P((1,)), P((1,))), 2)
        assert [c.tag for c in parts] == ["plus", "minus"]
        assert [c.degree for c in parts] == [1, 1]
        assert all(isinstance(c, IndexTwoConstituent) for c in parts)
        # plus has the lexicographically smaller serialization at the first
        # class where the two rows differ
        k0 = next(
            k
            for k in range(len(parts[0].values))
            if parts[0].values[k].to_dict() != parts[1].values[k].to_dict()
        )
        assert parts[0].values[k0].to_triples() < parts[1].values[k0].to_triples()

    def test_moved_label_restricts_irreducibly(self):
        parts = restrict_index2((P((2,)), E), 2)
        assert len(parts) == 1
        assert parts[0].tag == "full"
        assert parts[0].degree == 1
        assert parts[0].orbit == (E, P((2,)))  # canonical orbit member

    @pytest.mark.parametrize("m,a", [(2, 2), (2, 3), (4, 2), (6, 2)])
    def test_degrees_and_split_criterion(self, m, a):
        for lab in irr_labels(m, a):
            parts = restrict_index2(lab, m)
            if twist_label(lab, m) == lab:
                assert len(parts) == 2
                assert sum(c.degree for c in parts) == wreath_degree(lab)
            else:
                assert len(parts) == 1
                assert parts[0].degree == wreath_degree(lab)

    @pytest.mark.parametrize("m,a", [(2, 2), (4, 2), (2, 3)])
    def test_restriction_norm_oracle(self, m, a):
        # <chi|_H, chi|_H> computed element by element must be 2 for
        # twist-fixed labels and 1 otherwise
        table = get_table(m, a)
        sub = get_subgroup(m, a)
        for lab in table.labels:
            i = table.label_index[lab]
            acc = CyclotomicNumber(1)
            for h in listed_elements(sub):
                t = colored_type(h, m)
                v = table_value(table, i, table.class_index[t.cycles])
                acc = acc + v * v.conjugate()
            norm = acc / sub.order
            expected = 2 if twist_label(lab, m) == lab else 1
            assert norm == expected

    def test_split_values_are_class_functions_of_subgroup(self):
        # split pieces match rows of the independently computed subgroup table
        sub_table = get_subgroup_table(2, 2)
        parts = restrict_index2((P((1,)), P((1,))), 2)
        for c in parts:
            hits = [
                row
                for row in table_rows(sub_table)
                if all(u == v for u, v in zip(c.values, row))
            ]
            assert len(hits) == 1

    def test_split_pieces_sum_to_restriction(self):
        m, a = 4, 2
        table = get_table(m, a)
        sub_table = get_subgroup_table(m, a)
        for lab in table.labels:
            if twist_label(lab, m) != lab:
                continue
            plus, minus = restrict_index2(lab, m)
            i = table.label_index[lab]
            for k, rep in enumerate(sub_table.class_reps):
                t = colored_type(rep, m)
                parent_value = table_value(table, i, table.class_index[t.cycles])
                assert plus.values[k] + minus.values[k] == parent_value


# ---------------------------------------------------------------------------
# whole-table conductors and H_d-fixedness against the scalar oracles
# ---------------------------------------------------------------------------

SUITE_CELLS = [(m, a) for m in range(1, 13) for a in range(1, 5)]
# the 40 suite cells of at most 400 characters, whose full tables the tests
# build to check the label action against the values
TABLE_CELLS = [(m, a) for m, a in SUITE_CELLS if _label_count(m, a) <= 400]
SUBGROUP_CELLS = [(m, a) for m in (2, 4, 6) for a in (1, 2, 3)]


def wreath_value_rows(table):
    """The table's rows as cyclotomic numbers, one object per distinct
    coefficient vector."""
    m = table.m
    vecs, where = np.unique(table.raw.reshape(-1, m), axis=0, return_inverse=True)
    values = [
        CyclotomicNumber(m, {e: Fraction(int(c)) for e, c in enumerate(v) if c}) for v in vecs
    ]
    where = where.reshape(len(table.labels), -1)
    return [[values[k] for k in row] for row in where.tolist()]


class TestWholeTableFixedness:
    @pytest.mark.parametrize("m,a", [(m, a) for m, a in TABLE_CELLS if m <= 6])
    def test_wreath_tables_against_scalar_oracles(self, m, a):
        table = get_table(m, a)
        ds = range(1, 13)
        expected = scalar_row_answers(wreath_value_rows(table), ds)
        assert table_conductors(m, a).tolist() == [c for c, _ in expected]
        for d in ds:
            got = table_hd_fixed(m, a, d).tolist()
            assert got == [f[d] for _, f in expected], d

    @pytest.mark.parametrize("m,a", SUBGROUP_CELLS)
    def test_subgroup_tables_against_scalar_oracles(self, m, a):
        table = get_subgroup_table(m, a)
        ds = range(1, 13)
        expected = scalar_row_answers(table_rows(table), ds)
        assert table.conductors().tolist() == [c for c, _ in expected]
        for d in ds:
            assert table.hd_fixed_rows(d).tolist() == [f[d] for _, f in expected], d

    @pytest.mark.parametrize("m,a", TABLE_CELLS)
    def test_label_route_matches_values_route(self, m, a):
        table = get_table(m, a)
        assert (
            conductors_from_fixedness(_table_fixed(m, a, unit_residues(m)), m).tolist()
            == table.conductors().tolist()
        )
        for d in range(1, 13):
            assert (
                _table_fixed(m, a, hd_residues(m, d)).all(axis=0).tolist()
                == table.hd_fixed_rows(d).tolist()
            ), d

    def test_per_label_wrappers_match_table_passes(self):
        """The per-label and whole-table entries agree with the table's own
        passes, on tables inside and outside TABLE_CELLS: C_11 wr S_3 has
        418 characters."""
        assert _label_count(11, 3) == 418
        for m, a in [(4, 3), (6, 2), (12, 2), (11, 3)]:
            table = get_table(m, a)
            conductors = table.conductors().tolist()
            fixed = table.hd_fixed_rows(2).tolist()
            assert table_conductors(m, a).tolist() == conductors
            assert table_hd_fixed(m, a, 2).tolist() == fixed
            for i, lab in enumerate(irr_labels(m, a)):
                assert conductor_of_char(lab, m) == conductors[i]
                assert h_d_invariant(lab, m, d=2) is fixed[i]


class TestLabelCount:
    def test_count_matches_enumeration(self):
        for m in range(1, 7):
            for a in range(0, 7):
                assert _label_count(m, a) == len(irr_labels(m, a)), (m, a)
        assert _label_count(12, 4) == 2535

    def test_large_query_never_lists_labels(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the label list was built")

        monkeypatch.setattr(wreath, "_labels_by_size", refuse)
        monkeypatch.setattr(wreath, "_label_ranks", refuse)
        monkeypatch.setattr(wreath, "get_table", refuse)
        # one component of size 40 in position 1: moved by every sigma_k,
        # k != 1 mod 12, so the conductor is 12
        lab = (E, P((40,))) + (E,) * 10
        assert conductor_of_char(lab, 12) == 12
        assert h_d_invariant(lab, 12, d=12) is True
        assert h_d_invariant(lab, 12, d=6) is False
        assert cli.main(["--query", "conductor", "((),(40,)" + ",()" * 10 + ")", "12"]) == 0
        assert capsys.readouterr().out.strip().endswith("12")


# The tables the tests build on the suite grid (TABLE_CELLS), and C_1 wr S_5,
# C_1 wr S_6 and C_2 wr S_5, factors of the relative Weyl groups that
# weyl-match predicts.  Their recursions use every c-hook map with
# c <= s <= a.
BUILT_TABLES = TABLE_CELLS + [(1, 5), (1, 6), (2, 5)]
HOOK_OPS = sorted(
    {(m, s, c) for m, a in BUILT_TABLES for s in range(1, a + 1) for c in range(1, s + 1)}
)


class TestHookMaps:
    def test_entries_match_per_label_oracle(self):
        assert len(HOOK_OPS) == 106
        for m, s, c in HOOK_OPS:
            rows, cols, signs, ks = _hook_op(m, s, c)
            assert (rows.dtype, cols.dtype, signs.dtype, ks.dtype) == (
                np.intp, np.intp, np.int64, np.int64
            )
            assert np.all(np.diff(rows) >= 0), (m, s, c)
            got = list(zip(rows.tolist(), cols.tolist(), signs.tolist(), ks.tolist()))
            assert sorted(got) == sorted(hook_op_entries(m, s, c)), (m, s, c)

    def test_label_keys_increase_in_label_order(self):
        for m, s in sorted({(m, s) for m, s, _ in HOOK_OPS} | set(SUITE_CELLS)):
            labels = _labels_by_size(m, s)
            assert labels == list(partition_tuples(s, m)), (m, s)
            keys = _label_index(m, s, _label_ranks(m, s))
            assert np.all(np.diff(keys) > 0), (m, s)
            assert keys.tolist() == list(range(len(labels))), (m, s)

    def test_one_hooks_call_per_partition_and_hook_length(self, monkeypatch):
        calls = []

        def counted(lam, c):
            calls.append((lam.parts, c))
            return partitions.hooks(lam, c)

        monkeypatch.setattr(wreath, "hooks", counted)
        wreath._partition_hooks.cache_clear()
        wreath._hook_op.cache_clear()
        for s in range(1, 6):
            for c in range(1, s + 1):
                _hook_op(3, s, c)
        wreath._partition_hooks.cache_clear()
        wreath._hook_op.cache_clear()
        assert len(calls) == len(set(calls))
        assert sorted(calls) == sorted(
            (lam.parts, c) for n in range(1, 6) for lam in partitions.partitions_of(n)
            for c in range(1, n + 1)
        )


class TestLabelCap:
    def test_boundary(self):
        assert max(_label_count(m, a) for m, a in SUITE_CELLS) == 2535 <= MAX_LABELS
        assert _label_count(12, 6) <= MAX_LABELS < _label_count(12, 7)
        _check_label_count(12, 6)
        with pytest.raises(ValueError, match="cap"):
            _check_label_count(12, 7)

    @pytest.fixture
    def no_listing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("labels or classes were listed")

        for name in ("_labels_by_size", "_label_ranks", "class_labels", "WreathTable"):
            monkeypatch.setattr(wreath, name, refuse)

    def test_refused_before_listing(self, no_listing):
        for call in (
            lambda: irr_labels(12, 7),
            lambda: get_table(12, 7),
            lambda: get_table(40, 12),
            lambda: table_conductors(12, 7),
            lambda: table_hd_fixed(12, 7, 2),
            lambda: _table_fixed(12, 7, unit_residues(12)),
            lambda: _table_fixed(12, 7, hd_residues(12, 2)),
        ):
            with pytest.raises(ValueError, match="cap"):
                call()

    def test_cli_exits_2(self, no_listing, capsys):
        for suite in ("thm41", "lemma42"):
            assert cli.main(["--suite", suite, "--params", "max_m=40,max_a=12"]) == 2
        assert capsys.readouterr().err.count("cap") == 2


class TestEntryDomain:
    """m < 1 or a < 0 is refused with ValueError by every whole-table and
    per-label entry before any count or label is formed, and by the CLI
    with exit code 2."""

    @pytest.mark.parametrize("m,a", [(0, 2), (-1, 2), (0, 0), (2, -1)])
    def test_whole_table_entries(self, m, a):
        for call in (
            lambda: irr_labels(m, a),
            lambda: get_table(m, a),
            lambda: table_conductors(m, a),
            lambda: table_hd_fixed(m, a, 2),
            lambda: _table_fixed(m, a, [1]),
            lambda: _check_label_count(m, a),
        ):
            with pytest.raises(ValueError, match="need m >= 1 and a >= 0"):
                call()

    def test_per_label_entries(self):
        with pytest.raises(ValueError, match="need m >= 1 and a >= 0"):
            conductor_of_char((), 0)
        with pytest.raises(ValueError, match="need m >= 1 and a >= 0"):
            h_d_invariant((), 0, d=2)

    def test_cli_exits_2(self, capsys):
        assert cli.main(["--query", "conductor", "()", "0"]) == 2
        assert "need m >= 1 and a >= 0" in capsys.readouterr().err


class TestTableBytesCap:
    """The cap counts the bytes ``raw`` will take: L * L * m entries at the
    item size of ``_compact_dtype`` of the largest degree."""

    @staticmethod
    def table_bytes(m, a):
        return _label_count(m, a) ** 2 * m * _compact_dtype(_max_degree(m, a)).itemsize

    @pytest.mark.parametrize("m,a", [(1, 0), (4, 0), (1, 7), (2, 6), (3, 5), (5, 3), (12, 2)])
    def test_largest_degree_by_hook_formula(self, m, a):
        assert _max_degree(m, a) == max(wreath_degree(label) for label in partition_tuples(a, m))

    def test_largest_degree_of_the_built_tables(self):
        for m, a in TABLE_CELLS:
            table = get_table(m, a)
            assert _max_degree(m, a) == max(table.degrees), (m, a)
            assert table.raw.nbytes == self.table_bytes(m, a), (m, a)

    def test_boundary(self):
        largest = max(TABLE_CELLS, key=lambda cell: self.table_bytes(*cell))
        assert largest == (10, 3) and self.table_bytes(10, 3) == 330 * 330 * 10
        # every degree of C_m wr S_4 is at most 4! = 24: int8
        assert self.table_bytes(12, 4) == 2535 * 2535 * 12
        for m, a in ((10, 4), (11, 4), (12, 4), (9, 5), (6, 6)):
            assert self.table_bytes(m, a) <= MAX_TABLE_BYTES, (m, a)
            _check_table_bytes(m, a)
        # C_7 wr S_6 would pass at one byte an entry; its degrees need int16
        assert _compact_dtype(_max_degree(7, 6)) == np.int16
        assert _label_count(7, 6) ** 2 * 7 <= MAX_TABLE_BYTES < self.table_bytes(7, 6)
        for m, a in ((10, 5), (7, 6)):
            assert self.table_bytes(m, a) > MAX_TABLE_BYTES, (m, a)
            with pytest.raises(ValueError, match="cap"):
                _check_table_bytes(m, a)

    @pytest.fixture
    def no_building(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the table was built")

        for name in ("_labels_by_size", "class_labels", "_build_raw", "WreathTable"):
            monkeypatch.setattr(wreath, name, refuse)

    def test_refused_before_building(self, no_building):
        # the table's own passes refuse with get_table(m, a)
        for call in (
            lambda: get_table(10, 5),
            lambda: get_table(7, 6),
            lambda: get_table(10, 5).conductors(),
            lambda: get_table(7, 6).hd_fixed_rows(2),
        ):
            with pytest.raises(ValueError, match="cap"):
                call()

    def test_label_route_unaffected(self, no_building):
        label = ((1, 1),) + ((),) * 10 + ((2,),)
        assert conductor_of_char(label, 12) == 12
        assert table_conductors(12, 4).shape == (2535,)


class TestSharedColumns:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_shared_memo_matches_fresh_build(self, m):
        """The shared-memo table and a fresh build are both stored in the
        compact dtype of the largest degree (int8 on this grid) and agree
        with the int64 table of the one-hook-at-a-time recursion."""
        for a in range(1, 5):
            if (m, a) not in TABLE_CELLS:
                continue
            table = get_table(m, a)
            shared = table.raw
            fresh = _build_raw(m, class_labels(m, a), {})
            assert shared.dtype == fresh.dtype == _compact_dtype(max(table.degrees)) == np.int8
            reference = mn_raw_by_hooks(m, a)
            assert reference.dtype == np.int64
            assert np.array_equal(shared.astype(np.int64), reference), (m, a)
            assert np.array_equal(fresh.astype(np.int64), reference), (m, a)

    @pytest.mark.parametrize("m,a", [(1, 4), (3, 2), (4, 3)])
    def test_memo_columns_are_read_only_views_of_the_table(self, m, a):
        table = get_table(m, a)
        memo = _column_memo(m)
        for ci, cls in enumerate(table.classes):
            col = memo[cls.cycles]
            assert np.shares_memory(col, table.raw), cls
            assert np.array_equal(col, table.raw[:, ci, :])
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0, 0] = 7

    def test_column_outside_the_dtype_raises(self):
        """A memo column too large for the dtype the degrees choose is
        refused as it is written, never wrapped: C_2 wr S_2 has degrees at
        most 2 (int8), and its class ((1, 1), (1, 1)) is built from the
        planted column ((1, 1),)."""
        memo = {((1, 1),): np.array([[300, 0], [0, -300]], dtype=np.int64)}
        with pytest.raises(OverflowError, match="leaves the range of int8"):
            _build_raw(2, class_labels(2, 2), memo)

    def test_tables_are_read_only(self):
        table = get_table(3, 2)
        with pytest.raises(ValueError):
            table.raw[0, 0, 0] = 7
        with pytest.raises(ValueError):
            get_subgroup_table(2, 2).raw[0, 0, 0] = 7


# sha256 prefixes of the G(m,2,a) value rows ([[value.to_dict() ...] ...],
# JSON with sorted keys) and of every restrict_index2 result (the Clifford
# restriction oracle of scalar_oracles) over irr_labels(m, a), recorded from
# the tables built before values were stored as a raw array (eagerly built
# cyclotomic rows)
FROZEN_SUBGROUP_DIGESTS = {
    (2, 1): ("3e3fb645af312a27", "c9aac197a9ccdf2d"),
    (2, 2): ("e56c16382a84b237", "8d7ae3cdc52fc643"),
    (2, 3): ("20881473d4e4faae", "54045f8ddbb403dd"),
    (4, 1): ("ecd95b27c2a96a65", "dfd9382974bc14ae"),
    (4, 2): ("0f0d7b8f9439effc", "c9064974fa9bfd01"),
    (4, 3): ("5a9fe491f4185290", "418654afc376e68a"),
    (6, 1): ("5519198cf460eef5", "26ba73433dc11b6b"),
    (6, 2): ("453ddb87d6b24edf", "624cd24afbaa1fa1"),
    (6, 3): ("38b86dbb93f7e21e", "a82b32a4c951b104"),
}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("m,a", SUBGROUP_CELLS)
def test_subgroup_rows_and_restrictions_frozen(m, a):
    table = get_subgroup_table(m, a)
    values = table_rows(table)
    rows = [[v.to_dict() for v in row] for row in values]
    restrictions = [
        [
            [list(p.parts) for p in c.orbit],
            c.tag,
            c.degree,
            c.multiplicity,
            None if c.values is None else [v.to_dict() for v in c.values],
        ]
        for lab in irr_labels(m, a)
        for c in restrict_index2(lab, m)
    ]
    assert (_digest(rows), _digest(restrictions)) == FROZEN_SUBGROUP_DIGESTS[(m, a)]
    assert table.degrees == [int(row[0].rational_value()) for row in values]


class TestSuiteLabelMessages:
    """thm41 and lemma42 look a character's label up only when its check
    fails, and then name it, on a cell of TABLE_CELLS (C_6 wr S_3) and on
    the largest cell of the default grid (C_12 wr S_4)."""

    @pytest.mark.parametrize("m,a", [(6, 3), (12, 4)])
    def test_one_flipped_entry_names_its_label(self, monkeypatch, m, a):
        i = 7
        conductors, hd_fixed = wreath.table_conductors, wreath.table_hd_fixed

        def flipped_conductors(mm, aa):
            out = conductors(mm, aa)
            if (mm, aa) == (m, a):
                out = out.copy()
                out[i] = m + 1
            return out

        def flipped_hd_fixed(mm, aa, d):
            out = hd_fixed(mm, aa, d)
            if (mm, aa, d) == (m, a, m):
                out = out.copy()
                out[i] = not out[i]
            return out

        monkeypatch.setattr(wreath, "table_conductors", flipped_conductors)
        monkeypatch.setattr(wreath, "table_hd_fixed", flipped_hd_fixed)
        grid = {"max_m": m, "max_a": a, "sub_max_m": 2, "sub_max_a": 1}
        label = wreath.irr_labels(m, a)[i]
        assert run_suite("thm41", grid).counterexamples == (
            f"C_{m} wr S_{a}: conductor {m + 1} of {label} does not divide {m}",
        )
        assert run_suite("lemma42", grid).counterexamples == (
            f"C_{m} wr S_{a}: {label} not fixed at d={m}",
        )


def test_thm41_and_lemma42_build_no_wreath_table(monkeypatch):
    """The default thm41 and lemma42 runs read every C_m wr S_a conductor
    and H_d-fixedness from labels: with an empty table cache they construct
    no ``WreathTable``."""
    monkeypatch.setattr(wreath, "get_table", lru_cache(maxsize=None)(get_table.__wrapped__))
    built = []
    init = wreath.WreathTable.__init__

    def counted(self, m, a):
        built.append((m, a))
        init(self, m, a)

    monkeypatch.setattr(wreath.WreathTable, "__init__", counted)
    for name in ("thm41", "lemma42"):
        assert run_suite(name).counterexamples == ()
    assert built == []
