"""Beta-sets, rim hooks, d-cores: frozen values and removal-order invariance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charverify.partitions import (
    BetaSet,
    IllegalHookError,
    Partition,
    apply_two_step_moves,
    beta_set,
    d_core,
    decompose_d_hook,
    hooks,
    partitions_of,
    remove_rim_hook,
    two_core,
)
from scalar_oracles import all_terminal_cores, num_standard_tableaux, partition_tuples


def test_partition_validation():
    assert Partition((3, 1)).parts == (3, 1)
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    assert Partition().size == 0
    with pytest.raises(ValueError):
        Partition((1, 3))
    with pytest.raises(ValueError):
        Partition((3, -1))


def test_parts_must_be_integers():
    """Parts and beads are read with ``operator.index``: numpy integers are
    ints, and a float, even a whole one, is refused instead of truncated."""
    assert Partition(np.array([3, 1, 0])).parts == (3, 1)
    assert all(type(p) is int for p in Partition(np.array([2, 2])).parts)
    assert BetaSet(np.array([4, 1])).beads == (4, 1)
    for parts in ((2.7, 1.2), (2.0, 1), (2, 1, 0.0), np.array([2.0, 1.0]), ("2", "1")):
        with pytest.raises(TypeError):
            Partition(parts)
    with pytest.raises(TypeError):
        d_core((2.7, 1.2), 2)
    with pytest.raises(TypeError):
        BetaSet((4.0, 1))


def test_transpose_and_hooks():
    lam = Partition((3, 1))
    assert lam.transpose().parts == (2, 1, 1)
    assert sorted(lam.hook_lengths()) == [1, 1, 2, 4]
    assert Partition((2, 1)).hook_lengths() == [3, 1, 1]
    assert Partition((1, 1, 1)).n_stat() == 3
    assert Partition((3, 1)).n_stat() == 1


def test_beta_set_frozen_example():
    assert beta_set((3, 1), 2).beads == (4, 1)
    assert beta_set((3, 1), 4).beads == (6, 3, 1, 0)
    with pytest.raises(ValueError):
        beta_set((3, 1), 1)


def test_beta_set_round_trip():
    for n in range(9):
        for lam in partitions_of(n):
            for extra in range(3):
                length = len(lam) + extra
                assert beta_set(lam, length).to_partition() == lam


def test_remove_rim_hook_frozen_example():
    b = BetaSet((4, 1))
    assert remove_rim_hook(b, 4, 2).beads == (2, 1)
    assert remove_rim_hook(b, 4, 2).to_partition() == Partition((1, 1))


def test_remove_rim_hook_illegal_moves():
    b = BetaSet((4, 1))
    with pytest.raises(IllegalHookError):
        remove_rim_hook(b, 3, 1)  # bead not present
    with pytest.raises(IllegalHookError):
        remove_rim_hook(b, 1, 2)  # target negative
    with pytest.raises(IllegalHookError):
        remove_rim_hook(b, 4, 3)  # target occupied
    with pytest.raises(ValueError):
        remove_rim_hook(b, 4, 0)


def test_hooks_frozen_cases():
    # the unique domino of (4,3,1) sits in row 2 (hook lengths contain 2 once)
    lam = Partition((4, 3, 1))
    got = [(res.parts, height) for _, res, height in hooks(lam, 2)]
    assert got == [((4, 1, 1), 0)]
    # the unique 6-hook leaves (2) behind with two beads jumped
    got6 = [(res.parts, height) for _, res, height in hooks(lam, 6)]
    assert got6 == [((2,), 2)]
    # number of d-hooks equals the number of boxes of hook length d
    for d in range(1, 9):
        assert len(hooks(lam, d)) == sum(1 for h in lam.hook_lengths() if h == d)


def test_d_core_frozen_examples():
    assert d_core((3, 1), 2) == (Partition(), 2)
    assert d_core((4, 3, 1), 4) == (Partition(), 2)
    assert d_core((2, 1), 2) == (Partition((2, 1)), 0)
    assert two_core((3, 1)) == Partition()
    assert two_core((2, 1)) == Partition((2, 1))


def test_d_core_order_independence_exhaustive():
    """The abacus core, memoized and asked first, equals the unique terminal
    state of rim-hook removal in every order, for every partition of n <= 12
    and d <= 12; repeated calls share it."""
    for n in range(13):
        for lam in partitions_of(n):
            for d in range(1, 13):
                memo = d_core(lam, d)
                core, weight = memo
                assert all_terminal_cores(lam, d) == {core}, (lam, d)
                assert d_core(lam.parts, d) is memo
                assert lam.size == core.size + d * weight
            assert two_core(lam.parts) is two_core(lam) == d_core(lam, 2)[0]


def test_d_core_memo_rechecks_arguments():
    for _ in range(2):
        with pytest.raises(ValueError):
            d_core((2, 1), 0)
        with pytest.raises(ValueError):
            d_core((1, 2), 2)
        with pytest.raises(ValueError):
            two_core((1, 2))


def test_cor74_suite_builds_no_partitions_of(monkeypatch):
    from charverify import partitions as partitions_mod
    from charverify.suites import _suite_cor74

    def refuse(n):
        raise AssertionError("partitions_of was called")

    monkeypatch.setattr(partitions_mod, "partitions_of", refuse)
    partitions_mod._partition_objects.cache_clear()
    assert _suite_cor74() == (2055, [])


def test_two_core_is_staircase():
    for n in range(13):
        for lam in partitions_of(n):
            core = two_core(lam)
            k = len(core)
            assert core.parts == tuple(range(k, 0, -1))


@given(st.integers(min_value=0, max_value=14), st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=200, deadline=None)
def test_d_core_has_no_hooks(n, d, data):
    pool = list(partitions_of(n))
    lam = data.draw(st.sampled_from(pool))
    core, _ = d_core(lam, d)
    assert hooks(core, d) == []


def test_decompose_d_hook_frozen_examples():
    # single bead: (4), remove the full 4-hook
    b = beta_set((4,), 1)
    assert b.beads == (4,)
    assert decompose_d_hook(b, 4, 4) == [(4, 2), (2, 0)]
    # (3,3,2): beta {5,4,2}, remove 4-hook at bead 5
    b = beta_set((3, 3, 2), 3)
    assert b.beads == (5, 4, 2)
    moves = decompose_d_hook(b, 5, 4)
    assert moves == [(5, 3), (3, 1)]
    end = apply_two_step_moves(b, moves)
    assert end == remove_rim_hook(b, 5, 4)


def test_decompose_d_hook_recomposition_exhaustive():
    """Every even-length hook decomposes into legal 2-steps with the same effect."""
    checked = 0
    for n in range(13):
        for lam in partitions_of(n):
            for d in (2, 4, 6, 8):
                beta = beta_set(lam, len(lam) + d)
                for bead in beta:
                    if bead - d >= 0 and (bead - d) not in beta:
                        moves = decompose_d_hook(beta, bead, d)
                        assert len(moves) == d // 2
                        assert apply_two_step_moves(beta, moves) == remove_rim_hook(
                            beta, bead, d
                        )
                        checked += 1
    assert checked > 500


def test_decompose_d_hook_rejects_odd_and_illegal():
    b = beta_set((4,), 1)
    with pytest.raises(ValueError):
        decompose_d_hook(b, 4, 3)
    with pytest.raises(IllegalHookError):
        decompose_d_hook(b, 3, 2)


def test_partitions_of_counts():
    # partition numbers p(0..12)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n, e in enumerate(expected):
        assert len(list(partitions_of(n))) == e
    assert next(iter(partitions_of(4))) == Partition((4,))


def test_partition_tuples_counts():
    """The label oracle of the wreath tests."""
    # number of r-tuples of partitions of total n: coefficient extraction
    assert len(list(partition_tuples(2, 2))) == 5
    assert len(list(partition_tuples(3, 2))) == 10
    assert len(list(partition_tuples(2, 3))) == 9
    tuples = list(partition_tuples(2, 2))
    assert len(set(tuples)) == len(tuples)


def test_num_standard_tableaux():
    """The tableau-count oracle of the degree tests."""
    assert num_standard_tableaux(Partition((2, 1))) == 2
    assert num_standard_tableaux(Partition((3, 2))) == 5
    assert num_standard_tableaux(Partition((1, 1, 1))) == 1
