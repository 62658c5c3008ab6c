"""The colored-permutation groups that Burnside-Dixon runs on, against the
Python FiniteGroup path: every group the default thm41, lemma42 and
weyl-match grids build, plus S_4, Q_8 and D_8 (= W(B2)); and the cap on the
order of explicitly listed groups."""

import hashlib
import json
from functools import lru_cache

import numpy as np
import pytest

from charverify import cli, cyclotomic, grouptable, weyl, wreath
from charverify.cyclotomic import CyclotomicNumber, _column_orders
from charverify.grouptable import MAX_GROUP_ORDER, CharacterTable, _check_group_order
from charverify.suites import suite_defaults
from charverify.weyl import (
    _dixon_of,
    _predicted_factors,
    _product_group,
    analyze_relative_weyl,
    canonical_regular_word,
    centralizer_group,
    generic_order_phid_valuation,
    max_eigen_multiplicity,
    sp_mul,
    weyl_group,
    weyl_order,
)
from charverify.wreath import get_full_group, get_subgroup
import scalar_oracles
from scalar_oracles import (
    coset_elements,
    full_product_group,
    group_elements,
    listed_elements,
    pair_mul,
    product_mul,
    python_group,
    regular_representation,
    table_value,
)
from test_grouptable import quaternion_group, symmetric_group
from test_weyl import _weyl_match_cases


def default_groups():
    """(label, group, mul) for each distinct group the default thm41,
    lemma42 and weyl-match grids hand to Dixon: the G(m,2,a), the
    centralizers of the canonical words and the series-D even parts of
    the predicted products; ``mul`` multiplies native elements."""
    params = suite_defaults("thm41")
    assert params["sub_max_m"] == suite_defaults("lemma42")["sub_max_m"]
    assert params["sub_max_a"] == suite_defaults("lemma42")["sub_max_a"]
    out = [
        (f"G({m},2,{a})", get_subgroup(m, a), pair_mul(m))
        for m in range(2, params["sub_max_m"] + 1, 2)
        for a in range(1, params["sub_max_a"] + 1)
    ]
    seen = set()
    for series, r, tw, d in _weyl_match_cases():
        case = f"{series}{r}{'~' if tw else ''}, d={d}"
        word = canonical_regular_word(series, r, tw, d)
        entries = [(f"C_W({case})", centralizer_group(series, r, word), sp_mul)]
        if series == "D":
            factors = _predicted_factors(series, r, tw, d)
            groups = tuple(get_full_group(b, k) for b, k in factors)
            mul = product_mul([pair_mul(b) for b, _ in factors])
            entries.append((f"even part({case})", _product_group(groups), mul))
        for label, group, mul in entries:
            if id(group) not in seen:
                seen.add(id(group))
                out.append((label, group, mul))
    return out


@lru_cache(maxsize=None)
def all_groups():
    """The default groups, then S_4, Q_8 and D_8, each with its oracle
    FiniteGroup."""
    out = [
        (label, group, python_group(group, mul)) for label, group, mul in default_groups()
    ]
    for label, fg in (("S4", symmetric_group(4)), ("Q8", quaternion_group())):
        out.append((label, regular_representation(fg), fg))
    d8 = weyl_group("B", 2)
    out.append(("D8", d8, python_group(d8, sp_mul)))
    return tuple(out)


# The default grids give 9 G(m,2,a) and 65 distinct weyl-match groups: one
# Dixon run each (grouptable.dixon.calls on the benchmark's tables workload).
N_DEFAULT = 74


def test_default_grids_build_74_distinct_groups():
    assert len(default_groups()) == N_DEFAULT
    assert [label for label, _, _ in all_groups()[N_DEFAULT:]] == ["S4", "Q8", "D8"]


@pytest.mark.parametrize("k", range(N_DEFAULT + 3))
def test_group_against_python_path(k):
    """Classes with their order, inverses, element orders, powers and every
    class-multiplication coefficient, from the arrays and from one Python
    multiplication at a time."""
    label, group, fg = all_groups()[k]
    assert group.order == fg.order and listed_elements(group) == fg.elements, label
    assert group.element(group.identity) == fg.identity, label
    py_classes = fg.conjugacy_classes()
    classes = group.conjugacy_classes()
    assert [[group.element(g) for g in c] for c in classes] == py_classes, label
    inverses = group.inverses()
    table, orders = group.powers()
    for g, x in enumerate(listed_elements(group)):
        assert group.element(inverses[g]) == fg.inverse(x), (label, x)
        assert orders[g] == fg.element_order(x), (label, x)
        power = fg.identity
        for e in range(orders[g]):
            assert group.element(table[g, e]) == power, (label, x, e)
            power = fg.mul(power, x)
    class_of = {x: j for j, c in enumerate(py_classes) for x in c}
    reps = [c[0] for c in py_classes]
    r = len(py_classes)
    for i, c in enumerate(py_classes):
        expected = np.zeros((r, r), dtype=np.int64)
        for x in c:
            x_inv = fg.inverse(x)
            for col, rep in enumerate(reps):
                expected[class_of[fg.mul(x_inv, rep)], col] += 1
        assert np.array_equal(group.class_matrix(i), expected), (label, i)


def test_greedy_generators_generate():
    # a centralizer's greedy generating set: first rows outside the span
    for label, group, fg in all_groups()[:N_DEFAULT]:
        gens = [group.element(t) for t in group.generators]
        span, frontier = {fg.identity}, [fg.identity]
        while frontier:
            x = frontier.pop()
            for t in gens:
                y = fg.mul(x, t)
                if y not in span:
                    span.add(y)
                    frontier.append(y)
        assert len(span) == group.order, label


def test_centralizers_match_commutation_scan():
    for series, r, tw, d in _weyl_match_cases():
        word = canonical_regular_word(series, r, tw, d)
        scan = sorted(
            u for u in group_elements(series, r) if sp_mul(u, word) == sp_mul(word, u)
        )
        assert listed_elements(centralizer_group(series, r, word)) == scan, (series, r, tw, d)


def test_lookup_refuses_an_element_outside_the_group():
    group = get_subgroup(4, 2)
    perm, color = group.encoding.encode(((1, 0), (0, 1)))  # odd color sum
    with pytest.raises(ValueError):
        group.rows(np.array(perm), np.array(color))


def table_digest(table) -> str:
    """sha256 prefix of a Dixon table's raw array, class sizes, class
    orders and class representatives."""
    payload = [
        list(table.raw.shape),
        table.raw.tolist(),
        table.class_sizes,
        table.class_orders,
        table.class_reps,
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


# Recorded from the tables built before groups were colored-permutation
# arrays (a Python multiplication per pair of elements).
FROZEN_TABLE_DIGESTS = {
    "G(2,2,1)": "a6652fc91b53c9c9",
    "G(2,2,2)": "4444f0d112b4469e",
    "G(2,2,3)": "454bd960ef29fd3d",
    "G(4,2,1)": "9768f697145e6c4b",
    "G(4,2,2)": "6d39664f857bcfdb",
    "G(4,2,3)": "d2198e34997b6d87",
    "G(6,2,1)": "de1587862562f828",
    "G(6,2,2)": "de1e9eb0bf0fe9db",
    "G(6,2,3)": "c1e837b9e170a310",
    "C_W(A1, d=1)": "fca774af41072318",
    "C_W(A2, d=1)": "a6e06dd4468fac20",
    "C_W(A2, d=2)": "34a97920bd6aada2",
    "C_W(A2, d=3)": "0bed849904275e6b",
    "C_W(A3, d=1)": "acac56fc303c1e04",
    "C_W(A3, d=2)": "b063127bc9f0cb0a",
    "C_W(A3, d=3)": "530718be5540d298",
    "C_W(A3, d=4)": "5effc64e6396eee3",
    "C_W(A4, d=1)": "6eaeac5d03a6f361",
    "C_W(A4, d=2)": "40c29002ee6a3ca5",
    "C_W(A4, d=3)": "40b680339bff7609",
    "C_W(A4, d=4)": "8156cd04c7267943",
    "C_W(A4, d=5)": "7e842e4566ca7c92",
    "C_W(A5, d=1)": "300719601ac764b8",
    "C_W(A5, d=2)": "843b4006c0eb1662",
    "C_W(A5, d=3)": "173cc873381a9439",
    "C_W(A5, d=4)": "d8d7abf3d2bc359f",
    "C_W(A5, d=5)": "e2395628e5d1a3d7",
    "C_W(A5, d=6)": "5fc654544cb0acf9",
    "C_W(B2, d=1)": "8d5af1c9a6e3506c",
    "C_W(B2, d=4)": "478e70fba2d21d86",
    "C_W(B3, d=1)": "2978e84217b12653",
    "C_W(B3, d=3)": "d674d8e95fff1199",
    "C_W(B3, d=4)": "a14b8be44c4f9471",
    "C_W(B3, d=6)": "a08758a738f26350",
    "C_W(B4, d=1)": "4b42d54033b695be",
    "C_W(B4, d=3)": "63237c96b52fa503",
    "C_W(B4, d=4)": "4b188039abecdcd0",
    "C_W(B4, d=6)": "10e502e20ea0f933",
    "C_W(B4, d=8)": "b6ef60fa8f1114d2",
    "C_W(B5, d=1)": "9fe3e3af5de9d829",
    "C_W(B5, d=3)": "3863fbe18c7d9c49",
    "C_W(B5, d=4)": "b44fd25fb9330fcc",
    "C_W(B5, d=5)": "4411ee59ce882659",
    "C_W(B5, d=6)": "076240645a8feddd",
    "C_W(B5, d=8)": "4a2a67eb23d80383",
    "C_W(B5, d=10)": "f2c737136dba1f33",
    "C_W(D2, d=1)": "41268da27279e661",
    "even part(D2, d=1)": "3e756761129613d0",
    "C_W(D2~, d=1)": "44fe970b5bad232b",
    "even part(D2~, d=1)": "063a3ac2453bf1f8",
    "even part(D2~, d=4)": "e0722d2c79494fae",
    "C_W(D3, d=1)": "a3ad45399293b806",
    "even part(D3, d=1)": "50e634d17fc69607",
    "C_W(D3, d=2)": "8bb930b2d4eacc15",
    "even part(D3, d=2)": "70feec409981de52",
    "even part(D3, d=3)": "0d1e6cf2b480ba4c",
    "C_W(D3, d=4)": "d30dcaae370005ad",
    "even part(D3, d=4)": "206722d00ce699cc",
    "even part(D3~, d=1)": "1961d72ff918cb14",
    "C_W(D3~, d=6)": "ea1839e2c1e73db3",
    "C_W(D4, d=1)": "57ae1fdd6d64a15b",
    "even part(D4, d=1)": "a6c311da5c49a038",
    "C_W(D4, d=3)": "a75240655e5851fb",
    "even part(D4, d=3)": "d9e2f656d0ec75b0",
    "C_W(D4, d=4)": "9727102ff5c6d8eb",
    "even part(D4, d=4)": "026f5aa3c98f6147",
    "C_W(D4, d=6)": "898c7e481c257846",
    "C_W(D4~, d=1)": "3f511783b6c999e2",
    "even part(D4~, d=1)": "bdf7de398ab7332c",
    "even part(D4~, d=2)": "1e0ef866e446633e",
    "C_W(D4~, d=4)": "7833ac263277c094",
    "even part(D4~, d=4)": "9a3d67cd533898c7",
    "C_W(D4~, d=8)": "d8d6a7c19c8dcd96",
    "even part(D4~, d=8)": "a4b6e918733ffd38",
    "S4": "7df2f96e6a44a33f",
    "Q8": "387003c953f2fa73",
    "D8": "8d5af1c9a6e3506c",
}


def test_tables_frozen():
    got = {label: table_digest(_dixon_of(group)) for label, group, _ in all_groups()}
    assert got == FROZEN_TABLE_DIGESTS


@pytest.mark.parametrize(
    "label,build",
    [
        ("C_W(B4, d=1)", lambda: weyl_group.__wrapped__("B", 4)),
        ("G(4,2,3)", lambda: get_subgroup.__wrapped__(4, 3)),
    ],
)
def test_row_chunks_do_not_change_the_group_passes(monkeypatch, label, build):
    """Classes, inverses, every class matrix, greedy generators and the
    Dixon table of a fresh group agree whether the group passes run in one
    chunk or in chunks of a few rows (one row for the class matrices)."""

    def passes(entries):
        monkeypatch.setattr(cyclotomic, "_CHUNK_ENTRIES", entries)
        group = build()
        n = group.perm.shape[1]
        chunks = len(cyclotomic._row_chunks(group.order, grouptable._ROW_ARRAYS * n))
        classes = group.conjugacy_classes()
        answers = (
            [c.tolist() for c in classes],
            group.inverses().tolist(),
            [group.class_matrix(i).tolist() for i in range(len(classes))],
            group.subgroup(np.arange(group.order)).generators,
        )
        return chunks, answers, CharacterTable.dixon(build())

    one_chunk, answers, table = passes(2**40)
    chunks, tiny_answers, tiny_table = passes(1000)
    assert one_chunk == 1 and chunks >= 10
    assert tiny_answers == answers
    assert tiny_table.raw.dtype == table.raw.dtype == np.int8
    assert np.array_equal(tiny_table.raw, table.raw)
    assert table_digest(tiny_table) == FROZEN_TABLE_DIGESTS[label]


def test_one_value_rule_for_both_kinds_of_table():
    """A column is read in Q(zeta_o), o = ``_column_orders(raw)`` of it: on
    Dixon tables that is the order of the class representative, and on
    C_m wr S_a it gives the values of the Q(zeta_m) reading of ``raw``."""
    for label, group, _ in all_groups():
        table = _dixon_of(group)
        assert _column_orders(table.raw).tolist() == table.class_orders, label
    for m in range(1, 7):
        for a in range(1, 4):
            table = wreath.get_table(m, a)
            raw = table.raw.tolist()
            for i, j in np.ndindex(*table.raw.shape[:2]):
                want = CyclotomicNumber(m, {e: c for e, c in enumerate(raw[i][j]) if c})
                assert table_value(table, i, j) == want, (m, a, i, j)
    for table in (_dixon_of(weyl_group("B", 2)), wreath.get_table(4, 2)):
        with pytest.raises(ValueError):
            table.hd_fixed_rows(0)


def refuse_listing(monkeypatch):
    """Make every enumerator raise, so a missing guard fails at once
    instead of listing a large group."""
    for module in (weyl, wreath):
        monkeypatch.setattr(module, "_permutations", _refuse)
    monkeypatch.setattr(grouptable.ColoredPermGroup, "__init__", _refuse)


def _refuse(*args, **kwargs):
    raise AssertionError("an explicit group was listed")


class TestSizeCap:
    @pytest.fixture
    def no_listing(self, monkeypatch):
        refuse_listing(monkeypatch)

    def test_boundary(self):
        _check_group_order(MAX_GROUP_ORDER, "a group at the cap")
        with pytest.raises(ValueError):
            _check_group_order(MAX_GROUP_ORDER + 1, "a group above the cap")
        assert weyl_order("B", 6) <= MAX_GROUP_ORDER < weyl_order("B", 7)

    def test_weyl_groups_refused_before_listing(self, no_listing):
        for call in (
            lambda: weyl_group("B", 7),
            lambda: weyl_group("A", 8),
            lambda: analyze_relative_weyl("B", 9, False, 2),
            # refused from the order, before the cycle types of the coset
            # (about 10^8 bipartitions of 60) are listed
            lambda: analyze_relative_weyl("B", 60, False, 2),
        ):
            with pytest.raises(ValueError, match="cap"):
                call()

    def test_listing_oracles_refused_before_listing(self, monkeypatch):
        factors = (get_full_group(4, 1),) * 9  # order 4^9
        refuse_listing(monkeypatch)
        monkeypatch.setattr(scalar_oracles, "signed_words", _refuse)
        monkeypatch.setattr(scalar_oracles, "plain_words", _refuse)
        for call in (
            lambda: group_elements("C", 7),
            lambda: group_elements("D", 8),
            lambda: coset_elements("A", 8, True),
            lambda: coset_elements("D", 8, True),
            lambda: full_product_group(factors),
        ):
            with pytest.raises(ValueError, match="cap"):
                call()

    def test_eigenspace_bound_lists_no_group(self, no_listing):
        # a(d) comes from the coset's cycle types, so it answers above the cap
        assert max_eigen_multiplicity("B", 9, False, 2) == 9
        assert generic_order_phid_valuation("B", 9, False, 2) == 9

    def test_wreath_groups_refused_before_listing(self, monkeypatch):
        factors = (get_full_group(4, 1),) * 9  # order 4^9, even part 4^9 / 2
        refuse_listing(monkeypatch)
        for call in (
            lambda: get_full_group(2, 9),
            lambda: get_subgroup(12, 5),
            lambda: _product_group(factors),
        ):
            with pytest.raises(ValueError, match="cap"):
                call()

    def test_cli_exits_2(self, no_listing, capsys):
        assert cli.main(["--query", "weyl", "B", "9", "0", "2"]) == 2
        assert cli.main(["--query", "weyl", "B", "60", "0", "2"]) == 2
        assert cli.main(["--suite", "weyl-match", "--params", "max_rank=9"]) == 2
        assert cli.main(["--suite", "thm41", "--params", "sub_max_a=7"]) == 2
        assert cli.main(["--suite", "lemma42", "--params", "sub_max_m=12,sub_max_a=5"]) == 2
        assert capsys.readouterr().err.count("cap") == 5
