"""Two-row symbols: reduction, rank/defect, odd-d hooks, cores, series."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from charverify.partitions import IllegalHookError
from charverify.symbols import (
    SymbolBCD,
    enumerate_symbols,
    parse_symbol,
    remove_symbol_hook,
    symbol_d_core,
    symbol_hooks,
)
from scalar_oracles import all_terminal_symbols, symbol_defect


def test_construction_and_reduction():
    S = SymbolBCD((0, 2), (1,))
    assert S.rows() == ((0, 2), (1,))
    # common zero prefix is stripped with decrement
    T = SymbolBCD((0, 1, 3), (0, 2))
    assert T.rows() == ((0, 2), (1,))
    assert S == T
    with pytest.raises(ValueError):
        SymbolBCD((2, 2), (0,))
    with pytest.raises(ValueError):
        SymbolBCD((-1, 2), (0,))


def test_rank_and_defect_frozen():
    S = SymbolBCD((0, 2), (1,))
    assert S.rank == 2
    assert symbol_defect(S) == 1
    empty = SymbolBCD((), ())
    assert empty.rank == 0 and symbol_defect(empty) == 0
    assert SymbolBCD((0,), ()).rank == 0
    assert SymbolBCD((1,), ()).rank == 1
    assert SymbolBCD((0, 1), (0, 1)).rank == 0  # reduces to ((),())


def test_rank_defect_shift_invariant():
    rng = random.Random(5)
    for _ in range(100):
        r1 = sorted(rng.sample(range(12), rng.randint(0, 4)))
        r2 = sorted(rng.sample(range(12), rng.randint(0, 4)))
        S = SymbolBCD(r1, r2)
        shifted = SymbolBCD(
            [0] + [x + 1 for x in r1],
            [0] + [x + 1 for x in r2],
        )
        assert S == shifted
        assert S.rank == shifted.rank
        assert symbol_defect(S) == symbol_defect(shifted)


def test_equality_is_unordered():
    assert SymbolBCD((0, 2), (1,)) == SymbolBCD((1,), (0, 2))
    assert hash(SymbolBCD((0, 2), (1,))) == hash(SymbolBCD((1,), (0, 2)))


def test_parse_round_trip():
    for text in ["({0,2},{1})", "({},{})", "({1,4},{})"]:
        S = parse_symbol(text)
        assert parse_symbol(repr(S)) == S
    assert parse_symbol("({0, 2}, {1})") == SymbolBCD((0, 2), (1,))
    with pytest.raises(ValueError):
        parse_symbol("{0,2},{1}")


def test_remove_symbol_hook_basic():
    S = SymbolBCD((1, 2), (0,))
    # the only legal 1-move in row 1 is 1 -> 0; result renormalizes
    T = remove_symbol_hook(S, 1, 1, 1)
    assert T == SymbolBCD((1,), ())
    with pytest.raises(IllegalHookError):
        remove_symbol_hook(S, 1, 2, 1)  # 2 - 1 = 1 occupied
    with pytest.raises(IllegalHookError):
        remove_symbol_hook(S, 2, 0, 1)  # negative target
    with pytest.raises(IllegalHookError):
        remove_symbol_hook(S, 2, 1, 1)  # entry not in row 2
    with pytest.raises(ValueError):
        remove_symbol_hook(S, 1, 2, 2)  # even d rejected
    with pytest.raises(ValueError):
        remove_symbol_hook(S, 3, 2, 1)


def test_hook_moves_drop_rank_by_d():
    for S in enumerate_symbols(4, max_defect=2):
        for d in (1, 3, 5):
            for row, entry in symbol_hooks(S, d):
                T = remove_symbol_hook(S, row, entry, d)
                assert T.rank == S.rank - d, (S, row, entry, d)
                assert symbol_defect(T) == symbol_defect(S)


def test_symbol_d_core_frozen_example():
    # ({0,2},{1}) with d = 1 reduces in two moves to ({0},{})
    S = SymbolBCD((0, 2), (1,))
    core = symbol_d_core(S, 1)
    assert core == SymbolBCD((0,), ())
    assert core.rank == 0
    # a symbol with no d-hooks is its own core
    assert symbol_d_core(core, 1) == core
    assert symbol_d_core(SymbolBCD((0, 1), (1,)), 3) == SymbolBCD((0, 1), (1,))


def test_symbol_d_core_order_independence():
    for rank in range(0, 6):
        for S in enumerate_symbols(rank, max_defect=3):
            for d in (1, 3, 5):
                core = symbol_d_core(S, d)
                assert all_terminal_symbols(S, d) == {core}, (S, d)
                assert (S.rank - core.rank) % d == 0
                assert symbol_hooks(core, d) == []


def test_even_d_rejected():
    with pytest.raises(ValueError):
        symbol_d_core(SymbolBCD((0, 2), (1,)), 2)


def test_same_series_nontrivial_pair():
    # two distinct rank-3 symbols with the same 3-core
    symbols = enumerate_symbols(3, max_defect=3)
    by_core = {}
    for S in symbols:
        by_core.setdefault(symbol_d_core(S, 3), []).append(S)
    matched = [group for group in by_core.values() if len(group) > 1]
    assert matched, "expected at least one nontrivial 3-series at rank 3"
    S1, S2 = matched[0][:2]
    assert S1 != S2 and S1.rank == S2.rank == 3
    # and symbols with distinct 1-cores are not in the same 1-series
    cores1 = {symbol_d_core(S, 1) for S in symbols}
    assert len(cores1) > 1


def test_enumerate_symbols_counts_and_validity():
    for rank in range(0, 6):
        symbols = enumerate_symbols(rank, max_defect=3)
        assert len(symbols) == len(set(symbols))
        for S in symbols:
            assert S.rank == rank
            assert symbol_defect(S) <= 3
            assert S.row1 != S.row2
            # reduced: not both rows contain 0
            assert not (0 in S.row1 and 0 in S.row2)


def test_hook_removal_commutes_with_normalization():
    rng = random.Random(11)
    checked = 0
    while checked < 50:
        r1 = sorted(rng.sample(range(10), rng.randint(1, 4)))
        r2 = sorted(rng.sample(range(10), rng.randint(0, 3)))
        raw1 = [0] + [x + 1 for x in r1]
        raw2 = [0] + [x + 1 for x in r2]
        S_reduced = SymbolBCD(r1, r2)
        S_shifted = SymbolBCD(raw1, raw2)
        assert S_reduced == S_shifted  # same symbol, two input spellings
        moves = symbol_hooks(S_reduced, 1)
        if not moves:
            continue
        row, entry = moves[0]
        assert remove_symbol_hook(S_reduced, row, entry, 1) == remove_symbol_hook(
            S_shifted, row, entry, 1
        )
        checked += 1


def test_lemma72_shadow_rank_le_6():
    """Equal d-cores (odd d <= 7) imply equal 1-cores: exhaustive, defect <= 3."""
    for rank in range(0, 7):
        symbols = enumerate_symbols(rank, max_defect=3)
        one_cores = {id(S): symbol_d_core(S, 1) for S in symbols}
        for d in (3, 5, 7):
            groups = {}
            for S in symbols:
                groups.setdefault(symbol_d_core(S, d), []).append(S)
            for group in groups.values():
                first_core = one_cores[id(group[0])]
                for S in group[1:]:
                    assert one_cores[id(S)] == first_core, (d, group[0], S)


def test_lemma72_suite_one_core_once_per_symbol(monkeypatch):
    """The suite computes each symbol's 1-core once, not once per odd d,
    and still makes its 690 checks without a counterexample."""
    from charverify import symbols as symbols_mod
    from charverify.suites import _suite_lemma72

    one_core_calls = []
    original = symbols_mod.symbol_d_core

    def counting(S, d, *args, **kwargs):
        if d == 1:
            one_core_calls.append(S.rows())
        return original(S, d, *args, **kwargs)

    monkeypatch.setattr(symbols_mod, "symbol_d_core", counting)
    assert _suite_lemma72() == (690, [])
    symbols = {
        S.rows() for rank in range(7) for S in enumerate_symbols(rank, max_defect=3)
    }
    assert sorted(one_core_calls) == sorted(symbols)
