"""Tests for character-field descriptors and their ell-adic resolution."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charverify.fields import (
    FieldDescriptor,
    FrobeniusClass,
    check_prop75,
    extension_field_typeA,
    frobenius_class_typeA_twisted,
    graph_extension_field_typeA,
    load_cuspidal_field_data,
    table1_consistency,
)
from charverify.ladic import is_prime, mult_order
from charverify.partitions import Partition, d_core, partitions_of, two_core
from charverify.symbols import SymbolBCD, enumerate_symbols, symbol_d_core

from scalar_oracles import prop75_by_partition, prop75_cases, symbol_defect

TRIVIAL = FieldDescriptor.trivial()
SQRT_Q = FieldDescriptor.adjoin_sqrt(1)
SQRT_MINUS_Q = FieldDescriptor.adjoin_sqrt(-1)


class TestFieldDescriptor:
    def test_trivial(self):
        assert TRIVIAL.is_trivial
        assert TRIVIAL.describe() == "Q"
        assert TRIVIAL.join(TRIVIAL) == TRIVIAL

    def test_sqrt_parts_distinct(self):
        assert SQRT_Q != SQRT_MINUS_Q
        assert not SQRT_Q.is_trivial
        assert SQRT_Q.describe() == "Q(sqrt(q))"
        assert SQRT_MINUS_Q.describe() == "Q(sqrt(-q))"

    def test_join_is_union(self):
        both = SQRT_Q.join(SQRT_MINUS_Q)
        assert both.parts == {("sqrt", 1), ("sqrt", -1)}
        assert both == SQRT_MINUS_Q.join(SQRT_Q)
        assert SQRT_Q.join(SQRT_Q) == SQRT_Q

    def test_adjoin_root_symbolic_normalization(self):
        # X**r - 1 always has the root 1; r = 1 adjoins a rational value.
        for r in (1, 2, 3, 7):
            assert FieldDescriptor.adjoin_root(r, FrobeniusClass.ONE).is_trivial
        assert FieldDescriptor.adjoin_root(1, FrobeniusClass.MINUS_Q).is_trivial
        # A square root of -q is recorded as a sqrt part, not a root part.
        assert (
            FieldDescriptor.adjoin_root(2, FrobeniusClass.MINUS_Q)
            == SQRT_MINUS_Q
        )
        nontrivial = FieldDescriptor.adjoin_root(3, FrobeniusClass.MINUS_Q)
        assert nontrivial.parts == {("root", 3, "minus_q")}
        assert nontrivial.describe() == "Q(root[3](-q))"

    def test_adjoin_root_validation(self):
        with pytest.raises(ValueError):
            FieldDescriptor.adjoin_root(0, FrobeniusClass.ONE)
        with pytest.raises(TypeError):
            FieldDescriptor.adjoin_root(2, "minus_q")

    def test_resolve_sqrt(self):
        # 2 is a square mod 7 (3**2 = 2), so sqrt(q) resolves at (7, q=2).
        assert SQRT_Q.resolve(7, 2).is_trivial
        # -2 = 5 mod 7 is a non-square, so sqrt(-q) survives.
        assert SQRT_MINUS_Q.resolve(7, 2) == SQRT_MINUS_Q

    def test_resolve_monotone_idempotent(self):
        both = SQRT_Q.join(SQRT_MINUS_Q)
        once = both.resolve(7, 2)
        assert once == SQRT_MINUS_Q
        assert once.resolve(7, 2) == once  # idempotent
        # Resolution never un-trivializes.
        assert TRIVIAL.resolve(7, 2).is_trivial

    def test_resolve_requires_valid_ell(self):
        # whatever the descriptor holds: a trivial one has no part to check
        for desc in (TRIVIAL, SQRT_Q, SQRT_MINUS_Q):
            with pytest.raises(ValueError):
                desc.resolve(6, 2)  # not prime
            with pytest.raises(ValueError):
                desc.resolve(9, 2)  # not prime
            with pytest.raises(ValueError):
                desc.resolve(2, 3)  # even prime excluded
            with pytest.raises(ValueError):
                desc.resolve(7, 7)  # ell divides q
            with pytest.raises(ValueError):
                desc.resolve(5, 25)  # ell divides q


class TestFrobeniusClass:
    def test_integer_value(self):
        assert FrobeniusClass.ONE.integer_value(5) == 1
        assert FrobeniusClass.MINUS_Q.integer_value(5) == -5

    def test_assignment_frozen_values(self):
        # 2-core of (2,1) is (2,1) itself, size 3 = 3 mod 4.
        assert frobenius_class_typeA_twisted((2, 1)) is FrobeniusClass.MINUS_Q
        # (1,1) is a single vertical domino: its 2-core is empty (the only
        # 2-cores are staircases, of triangular size), so the class is ONE.
        assert two_core((1, 1)) == ()
        assert frobenius_class_typeA_twisted((1, 1)) is FrobeniusClass.ONE
        # 2-core of (4) is empty (two dominoes), size 0.
        assert frobenius_class_typeA_twisted((4,)) is FrobeniusClass.ONE
        assert frobenius_class_typeA_twisted(()) is FrobeniusClass.ONE

    @pytest.mark.parametrize("n", range(1, 13))
    def test_constant_on_two_cores(self, n):
        for lam in partitions_of(n):
            assert frobenius_class_typeA_twisted(
                lam
            ) is frobenius_class_typeA_twisted(two_core(lam))

    def test_pluggable_rule(self):
        flipped = lambda core: (
            FrobeniusClass.ONE
            if core.size % 4 in (2, 3)
            else FrobeniusClass.MINUS_Q
        )
        assert frobenius_class_typeA_twisted((2, 1), flipped) is FrobeniusClass.ONE


class TestGraphExtensionField:
    def test_frozen_values(self):
        # 2-core of (3) is (1): size 1, so trivial.
        assert graph_extension_field_typeA(1, (3,)) == TRIVIAL
        # 2-core of (2,1) has size 3: sqrt(eps * q) with eps = -1.
        assert graph_extension_field_typeA(-1, (2, 1)) == SQRT_MINUS_Q
        assert graph_extension_field_typeA(1, (2, 1)) == SQRT_Q

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_constant_on_two_cores(self, eps, n):
        # The graph-extension field depends only on the 2-core.
        for lam in partitions_of(n):
            assert graph_extension_field_typeA(
                eps, lam
            ) == graph_extension_field_typeA(eps, two_core(lam))

    def test_locus_matches_core_size(self):
        for n in range(9):
            for lam in partitions_of(n):
                irrational = two_core(lam).size % 4 in (2, 3)
                assert (
                    graph_extension_field_typeA(1, lam) == SQRT_Q
                ) == irrational

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            graph_extension_field_typeA(0, (2, 1))


def f0_extension_field(omega, r, ell, q):
    """The field a field-automorphism extension generates over the
    ell-adics: a root of X**r - omega, resolved at (ell, q)."""
    return FieldDescriptor.adjoin_root(r, omega).resolve(ell, q)


class TestF0ExtensionField:
    def test_one_always_trivial(self):
        for r in (1, 2, 5):
            for ell in (3, 7, 11):
                assert f0_extension_field(
                    FrobeniusClass.ONE, r, ell, 4
                ).is_trivial

    def test_frozen_nontrivial(self):
        # -2 = 3 mod 5 is a non-square: X^2 + 2 has no root in the 5-adics.
        field = f0_extension_field(FrobeniusClass.MINUS_Q, 2, 5, 2)
        assert field == SQRT_MINUS_Q

    def test_odd_order_locus_trivial(self):
        # Whenever the order d' of -q mod ell is odd, -q is an even power of
        # a generator, hence an r-th power for r = 2 (and any 2-power r).
        checked = 0
        for ell in (3, 5, 7, 11, 13, 17, 19, 23):
            for q in (2, 3, 4, 5, 7, 8, 9):
                if q % ell == 0:
                    continue
                d_prime = mult_order(-q, ell)
                if d_prime % 2 == 1:
                    assert f0_extension_field(
                        FrobeniusClass.MINUS_Q, 2, ell, q
                    ).is_trivial
                    checked += 1
        assert checked > 10


class TestExtensionFieldTypeA:
    def test_frozen_trivial_cases(self):
        # q = 2, ell = 7: order of 2 mod 7 is 3 (odd), so sqrt(2) is 7-adic.
        assert extension_field_typeA(1, (1, 1), 7, 2, 1).is_trivial
        # eps = -1, (2,1) has omega = -q; -3 = 4 mod 7 is a square of odd
        # order, so both the sqrt part and the root part resolve.
        assert extension_field_typeA(-1, (2, 1), 7, 3, 2).is_trivial

    def test_empty_core_cases_trivial(self):
        for lam in [(4,), (3, 1), (2, 2), (2, 1, 1)]:
            assert two_core(lam).size == 0
            for eps in (1, -1):
                assert extension_field_typeA(eps, lam, 5, 3, 2).is_trivial

    def test_nontrivial_case(self):
        # q = 2, ell = 5: 2 is a non-square mod 5, so sqrt(q) survives.
        field = extension_field_typeA(1, (2, 1), 5, 2, 1)
        assert field == SQRT_Q


def _prop75_grid():
    for ell in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for q in (2, 3, 4, 5, 7, 8, 9):
            if q % ell == 0:
                continue
            yield ell, q


class TestProp75:
    def test_frozen_example(self):
        report = check_prop75(-1, 4, 5, 2, r=2)
        assert report.d_prime == mult_order(-2, 5) == 4
        assert report.failed == ()
        assert len(prop75_cases(report)) == 5  # partitions of 4

    def test_d_prime_one_collapses_everything(self):
        # ell = 3, q = 4: order of 4 mod 3 is 1, every core is empty.
        report = check_prop75(1, 6, 3, 4, r=1)
        assert report.d_prime == 1
        assert report.failed == ()
        assert all(c.core == () for c in prop75_cases(report))

    def test_self_core_cases_trivially_pass(self):
        # When d' > n every partition is its own core.
        report = check_prop75(1, 3, 11, 2, r=1)  # order of 2 mod 11 is 10
        assert report.d_prime == 10
        assert all(c.partition == c.core for c in prop75_cases(report))
        assert report.failed == ()

    @pytest.mark.parametrize("eps", [1, -1])
    def test_full_sweep(self, eps):
        # Extension fields are constant along d'-cores over the whole grid.
        for ell, q in _prop75_grid():
            for n in range(1, 11):
                report = check_prop75(eps, n, ell, q, r=2)
                assert report.failed == (), (
                    f"eps={eps} n={n} ell={ell} q={q}: "
                    f"{report.failures[:3]}"
                )

    @pytest.mark.parametrize(
        "eps,n,ell,q,r",
        [(-1, 8, 5, 2, 2), (1, 9, 7, 2, 3), (-1, 7, 3, 2, 1), (1, 5, 11, 2, 2)],
    )
    def test_one_field_per_distinct_partition(self, monkeypatch, eps, n, ell, q, r):
        import charverify.fields as fields_mod

        calls = []
        original = fields_mod.extension_field_typeA
        symbolic = fields_mod._symbolic_field

        def counting(eps_, parts, *args):
            calls.append(parts)
            return symbolic(eps_, parts, *args)

        # Partitions are grouped by symbolic field once per (eps, size, r,
        # rule): over two calls, one symbolic field per partition of each
        # size met.
        monkeypatch.setattr(fields_mod, "_symbolic_field", counting)
        fields_mod._symbolic_classes.cache_clear()
        for _ in range(2):
            report = check_prop75(eps, n, ell, q, r=r)
        cases = prop75_cases(report)
        sizes = {sum(c.partition) for c in cases} | {sum(c.core) for c in cases}
        assert sorted(calls) == sorted(p.parts for s in sizes for p in partitions_of(s))
        for case in cases:
            expected = original(eps, Partition(case.core), ell, q, r)
            assert case.field_core == expected, case
            assert case.field_char == original(eps, Partition(case.partition), ell, q, r)

    def test_wrong_core_is_caught(self, monkeypatch):
        # q = 2, ell = 5: d' = 4 and the field of (2, 1) is Q(sqrt(q)), since
        # 2 is not a square mod 5.  A d_core that returns the empty partition
        # must make the check fail there, whatever the fields are memoized on.
        import charverify.fields as fields_mod

        assert extension_field_typeA(1, (2, 1), 5, 2, 1) == SQRT_Q
        monkeypatch.setattr(
            fields_mod, "d_core", lambda lam, d: (Partition(), lam.size // d)
        )
        report = check_prop75(1, 3, 5, 2, r=1)
        assert report.d_prime == 4
        assert report.failed
        assert (2, 1) in {case.partition for case in report.failures}

    def test_no_partitions_of(self, monkeypatch):
        import charverify.partitions as partitions_mod

        def refuse(n):
            raise AssertionError("partitions_of was called")

        monkeypatch.setattr(partitions_mod, "partitions_of", refuse)
        partitions_mod._partition_objects.cache_clear()
        report = check_prop75(-1, 10, 7, 3, r=2)
        assert len(prop75_cases(report)) == 42 and report.failed == ()

    def test_memo_key_includes_rule(self):
        # (3,) has 2-core (1): graph part trivial.  At ell = 7, q = 2 the root
        # of X**3 + 2 is not 7-adic (-2 = 5 is not a cube mod 7), so a
        # MINUS_Q rule keeps the root part and a ONE rule does not.
        def always_one(core):
            return FrobeniusClass.ONE

        def always_minus_q(core):
            return FrobeniusClass.MINUS_Q

        root = FieldDescriptor.adjoin_root(3, FrobeniusClass.MINUS_Q)
        for _ in range(2):
            assert extension_field_typeA(-1, (3,), 7, 2, 3, always_one) == TRIVIAL
            assert extension_field_typeA(-1, (3,), 7, 2, 3, always_minus_q) == root
        # (2, 1) is its own 2-core, of size 3: sqrt(-q) = sqrt(-2) is not
        # 7-adic either.
        one, minus_q = (
            {c.partition: c.field_char for c in prop75_cases(check_prop75(-1, 3, 7, 2, 3, rule))}
            for rule in (always_one, always_minus_q)
        )
        assert one == {(3,): TRIVIAL, (2, 1): SQRT_MINUS_Q, (1, 1, 1): TRIVIAL}
        assert minus_q == {(3,): root, (2, 1): SQRT_MINUS_Q.join(root), (1, 1, 1): root}

    def test_failure_reporting_shape(self):
        report = check_prop75(-1, 5, 7, 2, r=3)
        for case in prop75_cases(report):
            lam = Partition(case.partition)
            core, _ = d_core(lam, report.d_prime)
            assert core.parts == case.core


def _always_one(core):
    return FrobeniusClass.ONE


def _always_minus_q(core):
    return FrobeniusClass.MINUS_Q


def _as_tuples(report):
    return [(c.partition, c.core, c.field_char, c.field_core) for c in prop75_cases(report)]


class TestProp75Oracle:
    """``check_prop75`` against the per-partition loop of
    ``scalar_oracles.prop75_by_partition``."""

    def test_matches_oracle_on_suite_grid(self):
        primes = [p for p in range(3, 32) if is_prime(p)]
        for ell in primes:
            for q in (2, 3, 4, 5, 7, 8, 9):
                if q % ell == 0:
                    continue
                for eps in (1, -1):
                    for r in (1, 2):
                        for n in range(1, 11):
                            report = check_prop75(eps, n, ell, q, r)
                            expected = prop75_by_partition(eps, n, ell, q, r)
                            assert _as_tuples(report) == expected, (eps, n, ell, q, r)
                            assert report.checked == len(expected)
                            assert report.failed == ()
                            assert report.failures == ()

    @pytest.mark.parametrize("rule", [_always_one, _always_minus_q])
    def test_matches_oracle_with_custom_rules(self, rule):
        for ell in (5, 7, 11):
            for q in (2, 3, 4):
                for eps in (1, -1):
                    for r in (1, 2, 3):
                        for n in range(1, 9):
                            report = check_prop75(eps, n, ell, q, r, rule)
                            expected = prop75_by_partition(eps, n, ell, q, r, rule)
                            assert _as_tuples(report) == expected, (eps, n, ell, q, r)
                            assert (not report.failed) == all(
                                fc == fk for _, _, fc, fk in expected
                            )

    def test_failures_match_oracle_with_wrong_core(self, monkeypatch):
        import charverify.fields as fields_mod

        monkeypatch.setattr(
            fields_mod, "d_core", lambda lam, d: (Partition(), lam.size // d)
        )
        seen_failure = False
        for ell, q in ((5, 2), (7, 3), (11, 2)):
            for eps in (1, -1):
                for n in range(1, 8):
                    report = check_prop75(eps, n, ell, q, r=2)
                    expected = prop75_by_partition(eps, n, ell, q, 2)
                    assert _as_tuples(report) == expected
                    failed = [row for row in expected if row[2] != row[3]]
                    assert [
                        (c.partition, c.core, c.field_char, c.field_core)
                        for c in report.failures
                    ] == failed
                    assert (not report.failed) == (not failed)
                    seen_failure |= bool(failed)
        assert seen_failure

    def test_cases_built_only_when_read(self, monkeypatch):
        import charverify.fields as fields_mod

        built = []
        original = fields_mod.Prop75Case.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(fields_mod.Prop75Case, "__init__", counting)
        report = check_prop75(-1, 10, 7, 3, r=2)
        assert report.failed == () and report.failures == () and report.checked == 42
        assert built == []
        assert len(prop75_cases(report)) == 42
        assert len(built) == 42


class TestTable1:
    def test_data_file_loads(self):
        data = load_cuspidal_field_data()
        assert len(data["rows"]) == 10
        assert len(data["exceptions"]) == 2
        groups = [row["group"] for row in data["rows"]]
        assert groups.count("E8") == 4
        assert groups.count("F4") == 2

    def test_consistency_passes(self):
        report = table1_consistency()
        assert report.violations == ()
        assert report.rows_checked == 10
        assert report.exceptions_checked == 2
        assert report.numeric_checks > 100

    def test_root_rows_divisibility(self):
        data = load_cuspidal_field_data()
        for row in data["rows"]:
            if row["field"]["kind"] == "root_of_unity":
                k = row["field"]["order"]
                assert all(d % k == 0 for d in row["d_values"]), row

    def test_sqrt_minus_q_row_parity(self):
        data = load_cuspidal_field_data()
        e7_rows = [
            r
            for r in data["rows"]
            if r["field"] == {"kind": "sqrt", "sign": -1}
        ]
        assert len(e7_rows) == 1
        assert e7_rows[0]["group"] == "E7"
        assert all(d % 4 == 2 for d in e7_rows[0]["d_values"])

    def test_violation_detected(self):
        data = load_cuspidal_field_data()
        broken = json.loads(json.dumps(data))
        broken["rows"][0]["d_values"].append(4)  # 4 not divisible by 3
        report = table1_consistency(broken)
        assert report.violations
        assert any("d = 4" in v for v in report.violations)

    def test_malformed_data_rejected(self):
        """A data file of the wrong shape is refused with ValueError before
        any row is checked, never with a KeyError or AttributeError."""
        good = load_cuspidal_field_data()
        row = good["rows"][0]
        no_d_values = {k: v for k, v in row.items() if k != "d_values"}
        malformed = [
            {"rows": []},
            [1, 2],
            {"rows": [{"group": "X"}]},
            {"rows": [no_d_values]},
            {"rows": [dict(row, d_values=[3, "6"])]},
            {"rows": [dict(row, d_values=[0])]},
            {"rows": [dict(row, field={"kind": "root_of_unity"})]},
            {"rows": [row], "exceptions": {"group": "E7"}},
            {"rows": [row], "exceptions": [{"field": {"kind": "sqrt", "sign": 1}}]},
        ]
        for data in malformed:
            with pytest.raises(ValueError):
                table1_consistency(data)
        # an exception row need not list its d values
        assert table1_consistency(good).violations == ()
        assert "d_values" not in good["exceptions"][0]


class TestCorollary76:
    """The symbol side of Corollary 7.6 reduces to this: a symbol and its
    d-core (d odd) have the same 1-core, so any eigenvalue class that
    factors through the 1-core is constant along d-cores.  The lemma72
    suite sweeps the same statement over its grid."""

    def test_sign_factors_through_defect(self):
        # the 1-core keeps the row lengths, hence the defect, and is
        # determined by it
        for rank in range(5):
            for S in enumerate_symbols(rank, max_defect=3):
                core = symbol_d_core(S, 1)
                assert symbol_defect(core) == symbol_defect(S)
                assert core == symbol_d_core(SymbolBCD(range(symbol_defect(S)), ()), 1)

    def test_own_core_pairs(self):
        S = SymbolBCD((0, 4), (1,))
        core = symbol_d_core(S, 3)
        assert core.rank == S.rank - 3
        assert symbol_d_core(core, 1) == symbol_d_core(S, 1)

    def test_mixed_core_pair_skipped(self):
        # Symbols of different defect never share a d-core.
        S1 = SymbolBCD((0, 2), (1,))
        S2 = SymbolBCD((0, 1, 2, 3), ())
        assert symbol_d_core(S1, 3) != symbol_d_core(S2, 3)
        assert symbol_d_core(S1, 1) != symbol_d_core(S2, 1)

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    def test_rank_sweep(self, d):
        checked = 0
        for rank in range(6):
            for S in enumerate_symbols(rank, 3):
                assert symbol_d_core(symbol_d_core(S, d), 1) == symbol_d_core(S, 1), S
                checked += 1
        assert checked > 50

    def test_even_d_rejected(self):
        with pytest.raises(ValueError):
            symbol_d_core(SymbolBCD((0, 2), (1,)), 2)


# --------------------------------------------------------------------------
# Property-based checks
# --------------------------------------------------------------------------

_parts = st.lists(st.integers(1, 8), min_size=0, max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)

# Resolution is defined in the tame case only: r is drawn coprime to ell.
_tame_ell_and_r = st.sampled_from([5, 7, 11, 13]).flatmap(
    lambda ell: st.tuples(
        st.just(ell), st.integers(1, 5).filter(lambda r: r % ell != 0)
    )
)


def test_wild_root_index_rejected():
    # (2, 1) has 2-core (2, 1), so for eps = -1 a root of X**5 - omega with
    # omega != 1 is adjoined, and ell = 5 divides that root index.
    with pytest.raises(ValueError):
        extension_field_typeA(-1, Partition((2, 1)), 5, 2, 5)


class TestProperties:
    @given(_parts, st.sampled_from([1, -1]))
    @settings(max_examples=80, deadline=None)
    def test_graph_field_two_core_invariance(self, parts, eps):
        lam = Partition(parts)
        assert graph_extension_field_typeA(
            eps, lam
        ) == graph_extension_field_typeA(eps, two_core(lam))

    @given(
        _parts,
        st.sampled_from([1, -1]),
        _tame_ell_and_r,
        st.sampled_from([2, 3, 4, 8, 9]),
    )
    @settings(max_examples=80, deadline=None)
    def test_resolution_drops_parts_only(self, parts, eps, ell_and_r, q):
        ell, r = ell_and_r
        if q % ell == 0:
            return
        lam = Partition(parts)
        omega = (
            frobenius_class_typeA_twisted(lam)
            if eps == -1
            else FrobeniusClass.ONE
        )
        symbolic = graph_extension_field_typeA(eps, lam).join(
            FieldDescriptor.adjoin_root(r, omega)
        )
        resolved = extension_field_typeA(eps, lam, ell, q, r)
        assert resolved.parts <= symbolic.parts
        assert resolved.resolve(ell, q) == resolved
