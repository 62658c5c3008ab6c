"""Tests for Weyl-group words, eigenvalue counts, and relative Weyl groups."""

import math
import random
import time
from functools import lru_cache

import numpy as np
import pytest

from charverify import weyl
from charverify.grouptable import CharacterTable
from charverify.suites import run_suite
from charverify.weyl import (
    _dixon_of,
    _factor_tables,
    _orbit_factors,
    _predicted_factors,
    _product_group,
    analyze_relative_weyl,
    canonical_regular_word,
    centralizer_group,
    character_values_hd_fixed,
    eigen_multiplicity,
    generic_degrees,
    generic_order_phid_valuation,
    group_fingerprint,
    max_eigen_multiplicity,
    predicted_relative_weyl,
    relevant_d_values,
    relative_weyl_descriptor,
    sp_cycles,
    sp_identity,
    sp_mul,
    weyl_group,
    weyl_order,
)
from charverify.qpoly import QPolynomial
from charverify.wreath import get_full_group
from charverify.suites import suite_defaults
from scalar_oracles import (
    FiniteGroup,
    coset_cycle_types,
    coset_cycle_types_by_scan,
    max_eigen_multiplicity_by_listing,
    coset_elements,
    full_product_group,
    generic_order_phid_valuation_by_division,
    group_elements,
    listed_elements,
    phi_d_valuation,
    reflection_charpoly,
    regular_representation,
    scalar_row_answers,
    table_rows,
)


class TestWords:
    def test_identity_and_mul(self):
        e = sp_identity(3)
        w = (-2, 1, 3)
        assert sp_mul(e, w) == w
        assert sp_mul(w, e) == w
        # w sends 1 -> -2, 2 -> 1: w^2 sends 1 -> -1
        w2 = sp_mul(w, w)
        assert w2 == (-1, -2, 3)

    def test_mul_associative(self):
        rng = random.Random(7)
        words = list(group_elements("B", 3))
        for _ in range(200):
            u, v, w = rng.choice(words), rng.choice(words), rng.choice(words)
            assert sp_mul(sp_mul(u, v), w) == sp_mul(u, sp_mul(v, w))

    def test_cycles(self):
        assert sp_cycles((-2, 1)) == ((2, -1),)
        assert sp_cycles((2, 3, 1)) == ((3, 1),)
        assert sp_cycles((1, -2, 3)) == ((1, 1), (1, 1), (1, -1))
        assert sp_cycles((2, -1, -3)) == ((2, -1), (1, -1))

    def test_group_orders(self):
        assert weyl_order("B", 2) == 8
        assert weyl_order("C", 2) == 8
        assert weyl_order("D", 3) == 24
        assert weyl_order("A", 3) == 24
        assert weyl_order("D", 4) == 192
        assert len(group_elements("B", 3)) == 48
        assert len(group_elements("D", 3)) == 24
        assert len(coset_elements("D", 3, True)) == 24

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown series"):
            weyl_order("E", 3)
        with pytest.raises(ValueError, match="too small"):
            weyl_order("D", 1)

    def test_weyl_group_closure(self):
        # the row found for a product is the word sp_mul gives
        g = weyl_group("D", 3)
        rng = random.Random(1)
        for _ in range(50):
            x, y = rng.randrange(g.order), rng.randrange(g.order)
            assert g.element(g.product(x, y)) == sp_mul(g.element(x), g.element(y))


class TestCharpoly:
    def _matrix_charpoly(self, w, negate=False):
        import sympy

        n = len(w)
        mat = sympy.zeros(n, n)
        for i, img in enumerate(w):
            mat[abs(img) - 1, i] = (1 if img > 0 else -1) * (-1 if negate else 1)
        t = sympy.Symbol("t")
        return sympy.Poly(mat.charpoly(t), t).all_coeffs()[::-1]

    @pytest.mark.parametrize("series,r", [("B", 3), ("D", 3)])
    def test_block_product_matches_matrix(self, series, r):
        rng = random.Random(3)
        words = list(group_elements(series, r))
        for w in rng.sample(words, 12):
            ours = reflection_charpoly(series, r, False, w)
            theirs = self._matrix_charpoly(w)
            assert list(ours.coeffs) == [int(c) for c in theirs]

    def test_type_a_divides_out_trivial_summand(self):
        r = 3
        q = QPolynomial.monomial(1)
        one = QPolynomial([1])
        for w in group_elements("A", r):
            refl = reflection_charpoly("A", r, False, w)
            full = self._matrix_charpoly(w)
            assert list((refl * (q - one)).coeffs) == [int(c) for c in full]
            assert len(refl.coeffs) - 1 == r

    def test_twisted_a_coset_matrix(self):
        r = 3
        q = QPolynomial.monomial(1)
        one = QPolynomial([1])
        for w in coset_elements("A", r, True):
            refl = reflection_charpoly("A", r, True, w)
            full = self._matrix_charpoly(w, negate=True)
            assert list((refl * (q + one)).coeffs) == [int(c) for c in full]

    @pytest.mark.parametrize(
        "series,r,twisted",
        [("A", 3, False), ("A", 3, True), ("B", 3, False), ("D", 3, False), ("D", 3, True)],
    )
    def test_fast_route_matches_valuation(self, series, r, twisted):
        for w in coset_elements(series, r, twisted):
            poly = reflection_charpoly(series, r, twisted, w)
            for d in range(1, 9):
                assert eigen_multiplicity(series, twisted, w, d) == (
                    phi_d_valuation(poly, d)
                )


class TestEigenvalueCounts:
    @pytest.mark.parametrize(
        "series,r,twisted",
        [
            ("A", 2, False),
            ("A", 4, False),
            ("A", 3, True),
            ("A", 4, True),
            ("B", 2, False),
            ("B", 4, False),
            ("D", 3, False),
            ("D", 4, False),
            ("D", 3, True),
            ("D", 4, True),
        ],
    )
    def test_scan_matches_generic_order(self, series, r, twisted):
        for d in relevant_d_values(series, r, twisted):
            assert max_eigen_multiplicity(series, r, twisted, d) == (
                generic_order_phid_valuation(series, r, twisted, d)
            )

    def test_relevant_d_frozen(self):
        assert relevant_d_values("B", 2, False) == [1, 2, 4]
        assert relevant_d_values("A", 2, False) == [1, 2, 3]
        assert relevant_d_values("D", 4, True) == [1, 2, 3, 4, 6, 8]

    def test_irrelevant_d_has_no_eigenvalue(self):
        # d = 4 never appears for S_3 (degrees 2, 3)
        assert all(
            eigen_multiplicity("A", False, w, 4) == 0
            for w in group_elements("A", 2)
        )

    def test_canonical_word_attains_maximum(self):
        cases = [
            ("A", r, tw) for r in (2, 3, 4) for tw in (False, True)
        ] + [("B", r, False) for r in (2, 3, 4)] + [
            ("D", r, tw) for r in (2, 3, 4) for tw in (False, True)
        ]
        for series, r, twisted in cases:
            for d in relevant_d_values(series, r, twisted):
                w = canonical_regular_word(series, r, twisted, d)
                assert eigen_multiplicity(series, twisted, w, d) == (
                    max_eigen_multiplicity(series, r, twisted, d)
                ), (series, r, twisted, d)

    def test_canonical_word_in_correct_coset(self):
        # twisted D canonical words must have odd sign-change count
        for d in relevant_d_values("D", 4, True):
            w = canonical_regular_word("D", 4, True, d)
            assert sum(1 for x in w if x < 0) % 2 == 1
        for d in relevant_d_values("D", 4, False):
            w = canonical_regular_word("D", 4, False, d)
            assert sum(1 for x in w if x < 0) % 2 == 0

    def test_unattainable_d_raises(self):
        with pytest.raises(ValueError):
            canonical_regular_word("A", 2, False, 4)

    @pytest.mark.parametrize(
        "series,r,twisted",
        [("A", 4, False), ("A", 4, True), ("B", 3, False), ("C", 3, False),
         ("D", 4, False), ("D", 4, True)],
    )
    def test_scan_by_cycle_type_matches_element_scan(self, series, r, twisted):
        # every d, including those with no eigenvalue on the coset
        for d in range(1, 13):
            assert max_eigen_multiplicity(series, r, twisted, d) == max(
                eigen_multiplicity(series, twisted, w, d)
                for w in coset_elements(series, r, twisted)
            ), (series, r, twisted, d)

    def test_scan_rejects_nonpositive_d(self):
        with pytest.raises(ValueError):
            max_eigen_multiplicity("B", 2, False, 0)

    def test_memoized_valuation_matches_fresh_division(self):
        for series, r, twisted in [("A", 5, True), ("B", 5, False), ("D", 4, True)]:
            for d in range(1, 21):
                args = (series, r, twisted, d)
                assert generic_order_phid_valuation(*args) == (
                    generic_order_phid_valuation_by_division(*args)
                )
        hits = generic_order_phid_valuation.cache_info().hits
        generic_order_phid_valuation("B", 5, False, 4)
        assert generic_order_phid_valuation.cache_info().hits == hits + 1

    def test_closed_form_valuation_matches_division_everywhere(self):
        """Every series and twist up to rank 8, every d up to four times
        the largest degree plus 2, against the product of the generic
        degrees divided by Phi_d."""
        cases = [("A", r, tw) for r in range(1, 9) for tw in (False, True)]
        cases += [(s, r, False) for s in ("B", "C") for r in range(1, 9)]
        cases += [("D", r, tw) for r in range(2, 9) for tw in (False, True)]
        checked = positive = 0
        for series, r, twisted in cases:
            top = max(deg for deg, _ in generic_degrees(series, r, twisted))
            for d in range(1, 4 * top + 3):
                want = generic_order_phid_valuation_by_division(series, r, twisted, d)
                assert generic_order_phid_valuation(series, r, twisted, d) == want, (
                    series, r, twisted, d
                )
                checked += 1
                positive += want > 0
        assert checked == 1468 and 0 < positive < checked
        with pytest.raises(ValueError):
            generic_order_phid_valuation("B", 2, False, 0)


class TestRelativeWeyl:
    def test_frozen_cyclic_case(self):
        rep = analyze_relative_weyl("B", 2, False, 4)
        assert rep.computed_order == 4
        assert rep.descriptor == "C_4"
        assert rep.consistent

    def test_frozen_symmetric_case(self):
        rep = analyze_relative_weyl("A", 2, False, 3)
        assert rep.computed_order == 3
        assert rep.consistent

    def test_frozen_full_group_case(self):
        rep = analyze_relative_weyl("B", 3, False, 2)
        assert rep.computed_order == 48
        assert rep.descriptor == "C_2 wr S_3"
        assert rep.consistent

    def test_d4_fingerprint(self):
        fp = group_fingerprint(weyl_group("D", 4))
        assert fp == (
            192,
            (1, 1, 2, 3, 3, 3, 3, 3, 3, 4, 4, 6, 8),
            (
                (1, 1), (1, 2), (6, 2), (6, 2), (6, 2), (12, 2), (12, 2),
                (12, 4), (24, 4), (24, 4), (24, 4), (32, 3), (32, 6),
            ),
        )

    def test_d3_is_symmetric_group_four(self):
        assert group_fingerprint(weyl_group("D", 3)) == (
            24,
            (1, 1, 2, 3, 3),
            ((1, 1), (3, 2), (6, 2), (6, 4), (8, 3)),
        )

    def test_repeated_runs_build_no_new_tables(self):
        run_suite("weyl-match")
        size = _dixon_of.cache_info().currsize
        run_suite("weyl-match")
        assert _dixon_of.cache_info().currsize == size

    def test_equal_arguments_give_the_same_group(self):
        w = canonical_regular_word("B", 3, False, 2)
        assert centralizer_group("B", 3, w) is centralizer_group("B", 3, w)
        groups = tuple(get_full_group(b, k) for b, k in _predicted_factors("D", 4, False, 2))
        assert _product_group(groups) is _product_group(groups)

    def test_different_words_with_one_centralizer_share_the_group(self):
        # a 3-cycle with a fixed point and with a sign-changed fixed point:
        # different canonical words (untwisted and twisted D4, d = 3) whose
        # centralizers are the same six words
        u = canonical_regular_word("D", 4, False, 3)
        v = canonical_regular_word("D", 4, True, 3)
        assert u != v
        cu = centralizer_group("D", 4, u)
        cv = centralizer_group("D", 4, v)
        assert cu.order == 6
        assert cu == cv
        assert _dixon_of(cu) is _dixon_of(cv)

    def test_twisted_a_centralizer_is_plain_centralizer(self):
        # the -P sign commutes with everything
        w = canonical_regular_word("A", 3, True, 1)
        cent = centralizer_group("A", 3, w)
        plain = [
            u for u in group_elements("A", 3) if sp_mul(u, w) == sp_mul(w, u)
        ]
        assert sorted(listed_elements(cent)) == sorted(plain)

    @pytest.mark.parametrize(
        "series,r,twisted",
        [("A", 3, False), ("A", 3, True), ("B", 3, False), ("D", 3, False), ("D", 3, True)],
    )
    def test_analysis_consistent(self, series, r, twisted):
        for d in relevant_d_values(series, r, twisted):
            rep = analyze_relative_weyl(series, r, twisted, d)
            assert rep.consistent, rep

    def test_predicted_group_even_part_is_index_two(self):
        order, _, _ = predicted_relative_weyl("D", 4, False, 2)
        # centralizer of -Id inside W(D_4) is everything
        assert order == 192

    def test_prediction_tells_cyclic_four_from_klein_four(self):
        # B2, d = 4: the prediction is C_4; C_2 x C_2 has the same order,
        # degrees and class sizes, and differs only in element orders
        klein = full_product_group((get_full_group(2, 1), get_full_group(2, 1)))
        assert _predicted_factors("B", 2, False, 4) == [(4, 1)]
        cyclic = predicted_relative_weyl("B", 2, False, 4)
        assert cyclic == (4, (1, 1, 1, 1), ((1, 1), (1, 2), (1, 4), (1, 4)))
        assert cyclic != group_fingerprint(klein)
        assert cyclic[:2] == group_fingerprint(klein)[:2]

    def test_descriptor_shapes(self):
        assert relative_weyl_descriptor("B", 4, False, 4).startswith("C_4")
        assert "even part" in relative_weyl_descriptor("D", 4, False, 2)


class TestHdFixedness:
    def test_cyclic_table_fixedness(self):
        g = FiniteGroup(range(3), lambda x, y: (x + y) % 3, 0, generators=[1])
        group = regular_representation(g)
        # values generate Q(zeta_3): fixed by H_[3] but not by H_[1]
        assert character_values_hd_fixed(group, 3)
        assert not character_values_hd_fixed(group, 1)

    def test_rational_table_always_fixed(self):
        for d in (1, 2, 3, 4):
            assert character_values_hd_fixed(weyl_group("B", 2), d)


def _whole_fingerprint(table):
    """The fingerprint of a group from its own Dixon table."""
    return (
        table.order,
        tuple(sorted(table.degrees)),
        tuple(sorted(zip(table.class_sizes, table.class_orders))),
    )


def _product_rows(tables, ds):
    """Sorted (degree, H_d-fixedness for each d in ``ds``) over the
    characters of the direct product of the groups of ``tables``: one
    character of each factor, degrees multiplying, fixed when every one
    of them is."""
    rows = [(1, (True,) * len(ds))]
    for table in tables:
        fixed = np.array([table.hd_fixed_rows(e) for e in ds]).T.tolist()
        rows = [
            (x * y, tuple(a and b for a, b in zip(f, g)))
            for x, f in rows
            for y, g in zip(table.degrees, fixed)
        ]
    return sorted(rows)


class TestOrbitFactors:
    """Centralizers and series-D products tabulated through their orbit
    factors, against Dixon on the whole group."""

    def _default_groups(self):
        out = []
        for series, r, tw, d in _weyl_match_cases():
            out.append(centralizer_group(series, r, canonical_regular_word(series, r, tw, d)))
            if series == "D":
                factors = _predicted_factors(series, r, tw, d)
                out.append(_product_group(tuple(get_full_group(b, k) for b, k in factors)))
        return list(dict.fromkeys(out))

    def test_factored_answers_match_dixon_on_the_whole_group(self):
        ds = range(1, 13)
        for group in self._default_groups():
            whole = CharacterTable.dixon(group)
            assert math.prod(f.order for f in _orbit_factors(group)) == group.order
            assert group_fingerprint(group) == _whole_fingerprint(whole), group.name
            fixed = np.array([whole.hd_fixed_rows(e) for e in ds]).T.tolist()
            assert _product_rows(_factor_tables(group), ds) == sorted(
                (x, tuple(f)) for x, f in zip(whole.degrees, fixed)
            ), group.name
            for e in ds:
                assert character_values_hd_fixed(group, e) == bool(whole.hd_fixed_rows(e).all())

    def test_21_of_the_86_cells_have_a_factored_centralizer(self):
        cells = _weyl_match_cases()
        split = [
            case for case in cells
            if len(_orbit_factors(centralizer_group(case[0], case[1], canonical_regular_word(*case)))) > 1
        ]
        assert (len(split), len(cells)) == (21, 86)

    def test_sign_changes_of_b2_factor_into_their_points(self):
        w = weyl_group("B", 2)
        signs = centralizer_group("B", 2, (1, -2))
        assert signs.order == 4
        factors = _orbit_factors(signs)
        assert [(f.order, f.perm.shape[1]) for f in factors] == [(2, 1), (2, 1)]
        # -1 alone: two orbits whose projections have order 2 each, and
        # 2 * 2 is not 2, so it is its own single factor
        minus_one = w.subgroup([w.identity, int(w.rows(*map(np.array, w.encoding.encode((-1, -2)))))])
        (only,) = _orbit_factors.__wrapped__(minus_one)
        assert only is minus_one

    def test_a_series_d_even_product_does_not_factor(self):
        factors = _predicted_factors("D", 4, False, 3)
        assert len(factors) == 2
        product = _product_group(tuple(get_full_group(b, k) for b, k in factors))
        (only,) = _orbit_factors.__wrapped__(product)
        assert only is product

    def test_equal_groups_in_two_encodings_cost_one_dixon_miss(self, monkeypatch):
        """W(D4) as words and as the even part of C_2 wr S_4: one element
        set, so one table, whichever is asked for first."""
        dixon_of = lru_cache(maxsize=None)(weyl._dixon_of.__wrapped__)
        monkeypatch.setattr(weyl, "_dixon_of", dixon_of)
        words = weyl_group("D", 4)
        product = _product_group((get_full_group(2, 4),))
        assert type(words.encoding) is not type(product.encoding)
        assert words == product and hash(words) == hash(product)
        assert predicted_relative_weyl("D", 4, False, 1) == group_fingerprint(words)
        assert dixon_of(words) is dixon_of(product)
        assert dixon_of.cache_info().misses == 1


def _weyl_match_cases():
    params = suite_defaults("weyl-match")
    r_max, rd_max = params["max_rank"], params["max_rank_d"]
    cases = (
        [("A", r, tw) for r in range(1, r_max + 1) for tw in (False, True)]
        + [("B", r, False) for r in range(2, r_max + 1)]
        + [("D", r, tw) for r in range(2, rd_max + 1) for tw in (False, True)]
    )
    return [
        (series, r, tw, d)
        for series, r, tw in cases
        for d in relevant_d_values(series, r, tw)
    ]


def test_centralizer_tables_against_scalar_oracles():
    """Per-row conductors and H_d-fixedness of every weyl-match centralizer
    table against the scalar conductor and is_fixed_by of each value."""
    seen = set()
    for series, r, tw, d in _weyl_match_cases():
        group = centralizer_group(series, r, canonical_regular_word(series, r, tw, d))
        if group in seen:
            continue
        seen.add(group)
        table = _dixon_of(group)
        ds = range(1, 13)
        expected = scalar_row_answers(table_rows(table), ds)
        assert table.conductors().tolist() == [c for c, _ in expected], (series, r, tw, d)
        for e in ds:
            got = table.hd_fixed_rows(e).tolist()
            assert got == [f[e] for _, f in expected], (series, r, tw, d, e)
            assert character_values_hd_fixed(group, e) == all(got)
    assert len(seen) > 40


@pytest.mark.parametrize(
    "series,r,twisted,d",
    [case for case in _weyl_match_cases() if case[0] != "D"]
    + [("C",) + case[1:] for case in _weyl_match_cases() if case[0] == "B"],
)
def test_predicted_fingerprint_against_dixon_of_product(series, r, twisted, d):
    """The fingerprint read off the Murnaghan-Nakayama tables of the factors
    equals that of the explicitly listed product group, tabulated whole by
    Dixon."""
    groups = tuple(get_full_group(b, k) for b, k in _predicted_factors(series, r, twisted, d))
    assert predicted_relative_weyl(series, r, twisted, d) == (
        _whole_fingerprint(CharacterTable.dixon(full_product_group(groups)))
    )


class TestCosetCycleTypes:
    """The signed cycle types listed from partitions against the scan over
    every word of the coset, and a(d) by the knapsack over cycle lengths
    against the largest multiplicity over that list."""

    @pytest.mark.parametrize(
        "series,r,twisted",
        sorted({case[:3] for case in _weyl_match_cases()}) + [("B", 1, False), ("B", 6, False)],
    )
    def test_matches_word_scan(self, series, r, twisted):
        assert coset_cycle_types(series, r, twisted) == (
            coset_cycle_types_by_scan(series, r, twisted)
        )

    def test_knapsack_matches_listing(self):
        cases = [("A", r, tw) for r in range(1, 9) for tw in (False, True)]
        cases += [("B", r, False) for r in range(1, 9)]
        cases += [("D", r, tw) for r in range(2, 9) for tw in (False, True)]
        for series, r, twisted in cases:
            # every d with a(d) > 0 is at most twice the largest cycle
            for d in range(1, 2 * r + 5):
                assert max_eigen_multiplicity(series, r, twisted, d) == (
                    max_eigen_multiplicity_by_listing(series, r, twisted, d)
                ), (series, r, twisted, d)

    def test_large_rank_lists_nothing(self):
        start = time.perf_counter()
        assert max_eigen_multiplicity("B", 50, False, 2) == 50
        assert max_eigen_multiplicity("B", 50, False, 4) == 25
        assert time.perf_counter() - start < 0.5
        assert max_eigen_multiplicity("B", 1000, False, 2) == 1000
        assert max_eigen_multiplicity("D", 1000, True, 2) == 999
        assert max_eigen_multiplicity("A", 1000, False, 1) == 1000

    def test_validation(self):
        with pytest.raises(ValueError, match="no graph twist"):
            coset_cycle_types("B", 2, True)
        with pytest.raises(ValueError, match="no graph twist"):
            max_eigen_multiplicity("C", 3, True, 2)
        for series, r in (("A", 0), ("B", 0), ("D", 1)):
            with pytest.raises(ValueError, match="too small"):
                coset_cycle_types(series, r, False)
            with pytest.raises(ValueError, match="too small"):
                max_eigen_multiplicity(series, r, False, 1)
