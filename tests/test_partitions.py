"""Beta-sets, rim hooks, d-cores: frozen values and removal-order invariance."""

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
    partition_tuples,
    partitions_of,
    remove_rim_hook,
    two_core,
)


def test_partition_validation():
    assert Partition((3, 1)).parts == (3, 1)
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    assert Partition().size == 0
    with pytest.raises(ValueError):
        Partition((1, 3))
    with pytest.raises(ValueError):
        Partition((3, -1))


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
    """The abacus core equals the unique terminal state of rim-hook removal
    in every order, for every partition of n <= 12 and d <= 12."""
    for n in range(13):
        for lam in partitions_of(n):
            for d in range(1, 13):
                core, weight = d_core(lam, d, check_all_orders=True)
                assert lam.size == core.size + d * weight


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
    # number of r-tuples of partitions of total n: coefficient extraction
    assert len(list(partition_tuples(2, 2))) == 5
    assert len(list(partition_tuples(3, 2))) == 10
    assert len(list(partition_tuples(2, 3))) == 9
    tuples = list(partition_tuples(2, 2))
    assert len(set(tuples)) == len(tuples)


def test_partition_tuples_order_matches_fresh_recursion():
    def fresh(n, components):
        if components == 0:
            if n == 0:
                yield ()
            return
        for first_size in range(n, -1, -1):
            for first in partitions_of(first_size):
                for rest in fresh(n - first_size, components - 1):
                    yield (first,) + rest

    for n in range(6):
        for components in range(5):
            assert list(partition_tuples(n, components)) == list(fresh(n, components))
    # the components are drawn from one shared tuple per size
    a, b = next(partition_tuples(3, 2)), next(partition_tuples(3, 3))
    assert a[0] is b[0] and a[1] is b[1]


def test_num_standard_tableaux():
    assert Partition((2, 1)).num_standard_tableaux() == 2
    assert Partition((3, 2)).num_standard_tableaux() == 5
    assert Partition((1, 1, 1)).num_standard_tableaux() == 1
