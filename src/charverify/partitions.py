"""Partitions, beta-sets, rim hooks and d-cores.

A partition is a weakly decreasing tuple of positive integers.  A beta-set of
length L for a partition (lambda_1, ..., lambda_k) with k <= L is the set of
beads {lambda_i + (L - i) : 1 <= i <= L} (parts padded with zeros).  Removing a
rim d-hook is the bead move b -> b - d with b in the set, b - d not in the set.

d-cores are read off the d-runner abacus (G. James and A. Kerber, *The
Representation Theory of the Symmetric Group*, 2.7): sliding every bead as far
up its runner as it goes leaves the core, and the distance slid is the weight.
Rim-hook removal in every order is the tests' oracle for it
(``all_terminal_cores`` in ``tests/scalar_oracles.py``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator


class IllegalHookError(ValueError):
    """Raised when a requested bead move does not correspond to a rim hook."""


class Partition:
    """An integer partition, stored as a weakly decreasing tuple of parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts if p != 0)
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        """The partition with these positive, weakly decreasing parts, made
        without the checks of ``__init__``: only for parts that are so by
        construction."""
        lam = object.__new__(cls)
        object.__setattr__(lam, "parts", parts)
        return lam

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        # Total order used only for deterministic sorting of outputs.
        return (self.size, self.parts) < (other.size, other.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"

    def transpose(self) -> "Partition":
        if not self.parts:
            return Partition()
        return Partition(
            sum(1 for p in self.parts if p > j) for j in range(self.parts[0])
        )

    def hook_lengths(self) -> list[int]:
        """All hook lengths h(i,j) = lambda_i - j + lambda'_j - i - 1 (1-based boxes)."""
        conj = self.transpose().parts
        out = []
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                out.append(p - j + conj[j - 1] - i + 1)
        return out

    def n_stat(self) -> int:
        """The statistic n(lambda) = sum (i-1) * lambda_i."""
        return sum(i * p for i, p in enumerate(self.parts))


class BetaSet:
    """A finite set of distinct non-negative beads, stored sorted decreasing."""

    __slots__ = ("beads",)

    def __init__(self, beads: Iterable[int]):
        beads = tuple(sorted({int(b) for b in beads}, reverse=True))
        if beads and beads[-1] < 0:
            raise ValueError(f"beads must be non-negative: {beads}")
        object.__setattr__(self, "beads", beads)

    def __setattr__(self, name, value):
        raise AttributeError("BetaSet is immutable")

    def __len__(self) -> int:
        return len(self.beads)

    def __iter__(self):
        return iter(self.beads)

    def __contains__(self, b) -> bool:
        return b in self.beads

    def __eq__(self, other) -> bool:
        if isinstance(other, BetaSet):
            return self.beads == other.beads
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.beads)

    def __repr__(self) -> str:
        return f"BetaSet{{{', '.join(map(str, self.beads))}}}"

    @classmethod
    def from_partition(cls, lam: Partition | Iterable[int], length: int) -> "BetaSet":
        lam = lam if isinstance(lam, Partition) else Partition(lam)
        if length < len(lam):
            raise ValueError(f"length {length} < number of parts {len(lam)}")
        padded = lam.parts + (0,) * (length - len(lam))
        return cls(p + (length - 1 - i) for i, p in enumerate(padded))

    def to_partition(self) -> Partition:
        return Partition(
            p
            for p in (b - (len(self.beads) - 1 - i) for i, b in enumerate(self.beads))
            if p > 0
        )


def beta_set(lam, length: int) -> BetaSet:
    """Beta-set of the partition with the given number of beads."""
    return BetaSet.from_partition(lam, length)


def remove_rim_hook(beta: BetaSet, bead: int, d: int) -> BetaSet:
    """Move bead -> bead - d.  Raises IllegalHookError if the move is not legal."""
    if d <= 0:
        raise ValueError(f"hook length must be positive, got {d}")
    if bead not in beta:
        raise IllegalHookError(f"bead {bead} not in {beta}")
    if bead - d < 0:
        raise IllegalHookError(f"bead {bead} - {d} would be negative")
    if bead - d in beta:
        raise IllegalHookError(f"target position {bead - d} occupied in {beta}")
    return BetaSet([b for b in beta if b != bead] + [bead - d])


def hook_height(beta: BetaSet, bead: int, d: int) -> int:
    """Leg length of the rim hook given by bead -> bead - d: beads strictly between."""
    return sum(1 for b in beta if bead - d < b < bead)


def hooks(lam, d: int) -> list[tuple[int, Partition, int]]:
    """All removable rim d-hooks of a partition.

    Returns a list of (bead, resulting partition, height), with the beta-set
    taken at length = number of parts + d, sorted by bead descending.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    beta = beta_set(lam, len(lam) + d)
    out = []
    for b in beta:
        if b - d >= 0 and (b - d) not in beta:
            nxt = remove_rim_hook(beta, b, d)
            out.append((b, nxt.to_partition(), hook_height(beta, b, d)))
    return out


def d_core(lam, d: int) -> tuple[Partition, int]:
    """The d-core and d-weight of a partition.

    Computed on the abacus and memoized on (parts, d), so the returned core
    is shared between calls.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    return _abacus_core(lam.parts, d)


@lru_cache(maxsize=None)
def _abacus_core(parts: tuple[int, ...], d: int) -> tuple[Partition, int]:
    """Core and weight from the bead count on each of the d runners; the
    weight is checked against the size removed once per (parts, d).  The
    core's beads are strictly decreasing, so its parts are weakly
    decreasing and it skips the checks of ``Partition(...)``."""
    length = len(parts) + d
    beads = [p + length - 1 - i for i, p in enumerate(parts)]
    beads += range(d - 1, -1, -1)
    counts = [0] * d
    for b in beads:
        counts[b % d] += 1
    core_beads = sorted(
        (runner + d * level for runner in range(d) for level in range(counts[runner])),
        reverse=True,
    )
    weight = (sum(beads) - sum(core_beads)) // d
    core = Partition._trusted(
        tuple(p for p in (b - (length - 1 - i) for i, b in enumerate(core_beads)) if p > 0)
    )
    removed = sum(parts) - core.size
    assert removed % d == 0
    assert removed // d == weight
    return core, weight


def two_core(lam) -> Partition:
    """The 2-core (always a staircase partition (k, k-1, ..., 1)),
    memoized on the parts."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    return _two_core(lam.parts)


@lru_cache(maxsize=None)
def _two_core(parts: tuple[int, ...]) -> Partition:
    core, _ = _abacus_core(parts, 2)
    assert core.parts == tuple(range(len(core.parts), 0, -1))
    return core


def decompose_d_hook(
    beta: BetaSet, bead: int, d: int
) -> list[tuple[int, int]]:
    """Decompose one rim d-hook (d even) into a sequence of rim 2-hook moves.

    Given a legal move bead -> bead - d on ``beta`` with d even, returns a list
    of bead moves (from, to) with to = from - 2, each legal when applied in
    order, whose composite effect is the original d-hook removal.

    Strategy: take the largest even d_1 with 0 <= d_1 < d and bead - d_1 in
    beta (d_1 = 0 always qualifies).  Positions bead - d_1 - 2, ..., bead - d
    are then all free, so the bead at bead - d_1 (or the original bead when
    d_1 = 0) slides down in 2-steps; if d_1 > 0 the remaining d_1-hook at the
    original bead is decomposed recursively.
    """
    if d <= 0 or d % 2 != 0:
        raise ValueError(f"d must be even and positive, got {d}")
    if bead not in beta:
        raise IllegalHookError(f"bead {bead} not in {beta}")
    if bead - d < 0 or bead - d in beta:
        raise IllegalHookError(f"move {bead} -> {bead - d} not legal on {beta}")
    d1 = max(e for e in range(0, d, 2) if e == 0 or bead - e in beta)
    moves = [(bead - e, bead - e - 2) for e in range(d1, d, 2)]
    if d1 == 0:
        return moves
    intermediate = BetaSet([b for b in beta if b != bead - d1] + [bead - d])
    return moves + decompose_d_hook(intermediate, bead, d1)


def apply_two_step_moves(
    beta: BetaSet, moves: list[tuple[int, int]]
) -> BetaSet:
    """Apply a list of (from, to) bead moves with to = from - 2, checking legality."""
    state = beta
    for frm, to in moves:
        if to != frm - 2:
            raise IllegalHookError(f"move {frm} -> {to} is not a 2-step")
        state = remove_rim_hook(state, frm, 2)
    return state


@lru_cache(maxsize=None)
def _partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(n, 0, -1):
        for rest in _partitions_of(n - first):
            if not rest or rest[0] <= first:
                out.append((first,) + rest)
    return tuple(out)


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, in reverse-lexicographic order ((n) first)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return (Partition(p) for p in _partitions_of(n))


@lru_cache(maxsize=None)
def _partition_objects(n: int) -> tuple[Partition, ...]:
    """The ``Partition`` objects of ``partitions_of(n)``, built once."""
    return tuple(Partition(p) for p in _partitions_of(n))
