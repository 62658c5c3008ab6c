"""Tests for wreath-product character tables, conductors, and restrictions."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from charverify import cli, wreath
from charverify.cyclotomic import CyclotomicNumber, conductor
from charverify.grouptable import CharacterTable
from charverify.partitions import Partition
from charverify.wreath import (
    VALUES_ROUTE_MAX_LABELS,
    _build_raw,
    _label_count,
    IndexTwoConstituent,
    WreathClass,
    char_value,
    class_labels,
    colored_type,
    conductor_of_char,
    degree,
    galois_permuted_label,
    get_full_group,
    get_subgroup,
    get_subgroup_table,
    get_table,
    h_d_invariant,
    irr_labels,
    restrict_index2,
    sum_of_degree_squares,
    table_conductors,
    table_hd_fixed,
    twist_label,
    verify_galois_equivariance,
    verify_orthogonality,
)
from scalar_oracles import scalar_row_answers

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
        for g in group.elements:
            orders.setdefault(colored_type(g, m), set()).add(group.element_order(g))
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
            cls.cycles: table.value(table.label_index[lab], j)
            for j, cls in enumerate(table.classes)
        }
        assert vals[((3, 0),)] == -1
        assert vals[((2, 0), (1, 0))] == 0
        assert vals[((1, 0), (1, 0), (1, 0))] == 2

    def test_hook_sign(self):
        # chi_{(1^2)} on a 2-cycle is -1
        table = get_table(1, 2)
        lab = (P((1, 1)),)
        assert table.value(table.label_index[lab], table.class_index[((2, 0),)]) == -1

    @pytest.mark.parametrize("m,a", [(2, 2), (2, 3), (3, 2), (4, 2), (3, 3), (6, 2)])
    def test_degree_formula_matches_identity_value(self, m, a):
        table = get_table(m, a)
        for i, lab in enumerate(table.labels):
            assert table.degrees[i] == degree(lab)

    @pytest.mark.parametrize("m,a", [(2, 2), (2, 3), (3, 2), (4, 2), (6, 2), (5, 2)])
    def test_sum_of_degree_squares(self, m, a):
        assert sum_of_degree_squares(m, a) == m**a * math.factorial(a)

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
        reps = [cls[0] for cls in dixon.group.conjugacy_classes()]
        rep_types = [colored_type(rep, m) for rep in reps]
        assert sorted(t.cycles for t in rep_types) == sorted(
            c.cycles for c in table.classes
        )
        # every recursion row must occur exactly once among the Dixon rows
        matched = set()
        for i in range(len(table.labels)):
            row = [
                table.value(i, table.class_index[t.cycles]) for t in rep_types
            ]
            hits = [
                j
                for j, drow in enumerate(dixon.characters)
                if all(u == v for u, v in zip(row, drow))
            ]
            assert len(hits) == 1, f"row {i} matched {hits}"
            matched.add(hits[0])
        assert len(matched) == len(table.labels)

    def test_class_sizes_match_explicit_group(self):
        m, a = 3, 2
        table = get_table(m, a)
        group = get_full_group(m, a)
        for cls_elems in group.conjugacy_classes():
            t = colored_type(cls_elems[0], m)
            assert len(cls_elems) == table.class_sizes[table.class_index[t.cycles]]


class TestOrthogonality:
    @pytest.mark.parametrize(
        "m,a", [(1, 4), (2, 2), (2, 4), (3, 3), (4, 2), (5, 2), (6, 2), (6, 3)]
    )
    def test_row_and_column_orthogonality(self, m, a):
        assert verify_orthogonality(m, a)


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
        for lab in irr_labels(m, a):
            assert conductor_of_char(lab, m, via="label") == conductor_of_char(
                lab, m, via="values"
            )

    @pytest.mark.parametrize("m,a", [(3, 2), (4, 2), (6, 2)])
    def test_values_route_matches_elementwise_conductor(self, m, a):
        # third route: lcm of conductors of the individual table entries
        table = get_table(m, a)
        for i, lab in enumerate(table.labels):
            by_entries = math.lcm(
                *[conductor(table.value(i, j)) for j in range(len(table.classes))]
            )
            assert conductor_of_char(lab, m) == by_entries


class TestHdInvariance:
    def test_frozen_false_example(self):
        lab = (E, P((1,)), E, E)
        assert h_d_invariant(lab, 4, d=2) is False
        assert h_d_invariant(lab, 4, d=2, via="label") is False
        assert h_d_invariant(lab, 4, d=4) is True

    def test_trivial_when_m_divides_d(self):
        # k = 1 mod d forces k = 1 mod m, so every character is fixed
        for m, d in [(2, 2), (3, 3), (4, 4), (3, 6), (4, 8), (6, 6)]:
            for a in (1, 2):
                for lab in irr_labels(m, a):
                    assert h_d_invariant(lab, m, d=d, via="values")

    def test_label_route_matches_values_route(self):
        for m, a in [(3, 2), (4, 2), (6, 2), (4, 3)]:
            for d in range(1, 9):
                for lab in irr_labels(m, a):
                    assert h_d_invariant(lab, m, d=d, via="label") == h_d_invariant(
                        lab, m, d=d, via="values"
                    )

    def test_residue_class_criterion(self):
        # when m is even, m | 2d but m does not divide d, fixedness under
        # H_[d] is exactly invariance under the shift j -> j * (1 + m/2)
        m, d = 8, 12
        shift = 1 + m // 2
        for lab in irr_labels(m, 2):
            expected = all(
                lab[(j * shift) % m] == lab[j] for j in range(m)
            )
            assert h_d_invariant(lab, m, d=d, via="label") == expected


class TestIndexTwoRestriction:
    def test_subgroup_structure(self):
        g = get_subgroup(2, 2)
        assert g.order == 4
        assert get_subgroup(4, 3).order == 4**3 * 6 // 2
        with pytest.raises(ValueError):
            get_subgroup(3, 2)

    def test_subgroup_closure(self):
        g = get_subgroup(4, 2)
        for x in g.elements[:8]:
            for y in g.elements[:8]:
                assert g.mul(x, y) in g.index

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
                assert sum(c.degree for c in parts) == degree(lab)
            else:
                assert len(parts) == 1
                assert parts[0].degree == degree(lab)

    @pytest.mark.parametrize("m,a", [(2, 2), (4, 2), (2, 3)])
    def test_restriction_norm_oracle(self, m, a):
        # <chi|_H, chi|_H> computed element by element must be 2 for
        # twist-fixed labels and 1 otherwise
        table = get_table(m, a)
        sub = get_subgroup(m, a)
        for lab in table.labels:
            i = table.label_index[lab]
            acc = CyclotomicNumber.zero()
            for h in sub.elements:
                t = colored_type(h, m)
                v = table.value(i, table.class_index[t.cycles])
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
                for row in sub_table.characters
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
                parent_value = table.value(i, table.class_index[t.cycles])
                assert plus.values[k] + minus.values[k] == parent_value


# ---------------------------------------------------------------------------
# whole-table conductors and H_d-fixedness against the scalar oracles
# ---------------------------------------------------------------------------

SUITE_CELLS = [(m, a) for m in range(1, 13) for a in range(1, 5)]
VALUES_CELLS = [(m, a) for m, a in SUITE_CELLS if _label_count(m, a) <= VALUES_ROUTE_MAX_LABELS]
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
    @pytest.mark.parametrize("m,a", [(m, a) for m, a in VALUES_CELLS if m <= 6])
    def test_wreath_tables_against_scalar_oracles(self, m, a):
        table = get_table(m, a)
        ds = range(1, 13)
        expected = scalar_row_answers(wreath_value_rows(table), ds)
        assert table_conductors(m, a, via="values").tolist() == [c for c, _ in expected]
        for d in ds:
            got = table_hd_fixed(m, a, d, via="values").tolist()
            assert got == [f[d] for _, f in expected], d

    @pytest.mark.parametrize("m,a", SUBGROUP_CELLS)
    def test_subgroup_tables_against_scalar_oracles(self, m, a):
        table = get_subgroup_table(m, a)
        ds = range(1, 13)
        expected = scalar_row_answers(table.characters, ds)
        assert table.conductors().tolist() == [c for c, _ in expected]
        for d in ds:
            assert table.hd_fixed_rows(d).tolist() == [f[d] for _, f in expected], d

    @pytest.mark.parametrize("m,a", VALUES_CELLS)
    def test_label_route_matches_values_route(self, m, a):
        assert (
            table_conductors(m, a, via="label").tolist()
            == table_conductors(m, a, via="values").tolist()
        )
        for d in range(1, 13):
            assert (
                table_hd_fixed(m, a, d, via="label").tolist()
                == table_hd_fixed(m, a, d, via="values").tolist()
            ), d

    def test_per_label_wrappers_match_table_passes(self):
        for m, a in [(4, 3), (6, 2), (12, 2)]:
            conductors = table_conductors(m, a).tolist()
            fixed = table_hd_fixed(m, a, 2).tolist()
            for i, lab in enumerate(irr_labels(m, a)):
                for via in ("values", "label"):
                    assert conductor_of_char(lab, m, via=via) == conductors[i]
                    assert h_d_invariant(lab, m, d=2, via=via) is fixed[i]

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError):
            table_conductors(2, 2, via="guess")
        with pytest.raises(ValueError):
            h_d_invariant((P((1,)), E), 2, d=1, via="guess")


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
        monkeypatch.setattr(wreath, "partition_tuples", refuse)
        monkeypatch.setattr(wreath, "get_table", refuse)
        # one component of size 40 in position 1: moved by every sigma_k,
        # k != 1 mod 12, so the conductor is 12
        lab = (E, P((40,))) + (E,) * 10
        assert conductor_of_char(lab, 12) == 12
        assert h_d_invariant(lab, 12, d=12) is True
        assert h_d_invariant(lab, 12, d=6) is False
        assert cli.main(["--query", "conductor", "((),(40,)" + ",()" * 10 + ")", "12"]) == 0
        assert capsys.readouterr().out.strip().endswith("12")


class TestSharedColumns:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_shared_memo_matches_fresh_build(self, m):
        for a in range(1, 5):
            if _label_count(m, a) > VALUES_ROUTE_MAX_LABELS:
                continue
            shared = get_table(m, a).raw
            fresh = _build_raw(m, class_labels(m, a), {})
            assert shared.dtype == fresh.dtype == np.int64
            assert np.array_equal(shared, fresh), (m, a)

    def test_tables_are_read_only(self):
        table = get_table(3, 2)
        with pytest.raises(ValueError):
            table.raw[0, 0, 0] = 7
        with pytest.raises(ValueError):
            get_subgroup_table(2, 2).raw[0, 0, 0] = 7


# sha256 prefixes of the G(m,2,a) value rows ([[value.to_dict() ...] ...],
# JSON with sorted keys) and of every restrict_index2 result over
# irr_labels(m, a), recorded from the tables built before values were
# stored as a raw array (eagerly built cyclotomic rows)
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
    rows = [[v.to_dict() for v in row] for row in table.characters]
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
    assert table.degrees == [int(row[0].rational_value()) for row in table.characters]
