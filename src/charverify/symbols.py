"""Two-row symbols for classical-type character combinatorics.

A symbol is an unordered pair of strictly increasing sequences of non-negative
integers, up to the shift equivalence that prepends 0 to both rows after
adding 1 to every entry.  Representatives are kept in reduced form (shift
stripped).  A d-hook move (d odd) replaces an entry b of one row by b - d when
the target is free in that row; cross-row moves are deliberately not modelled.

Rank is sum(entries) - floor(((L - 1) / 2)^2) for L the total number of
entries; defect is |len(row1) - len(row2)|.  Both are shift-invariant.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .partitions import _slid_beads


def _check_row(row: Iterable[int]) -> tuple[int, ...]:
    row = tuple(int(x) for x in row)
    if any(x < 0 for x in row):
        raise ValueError(f"row entries must be non-negative: {row}")
    if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
        raise ValueError(f"row must be strictly increasing: {row}")
    return row


class SymbolBCD:
    """A reduced two-row symbol.  Row order as given is preserved; equality
    and canonical keys treat the pair as unordered."""

    __slots__ = ("row1", "row2")

    def __init__(self, row1: Iterable[int], row2: Iterable[int]):
        r1, r2 = _check_row(row1), _check_row(row2)
        while r1 and r2 and r1[0] == 0 and r2[0] == 0:
            r1 = tuple(x - 1 for x in r1[1:])
            r2 = tuple(x - 1 for x in r2[1:])
        object.__setattr__(self, "row1", r1)
        object.__setattr__(self, "row2", r2)

    def __setattr__(self, name, value):
        raise AttributeError("SymbolBCD is immutable")

    @property
    def rank(self) -> int:
        total = len(self.row1) + len(self.row2)
        return sum(self.row1) + sum(self.row2) - ((total - 1) ** 2 // 4 if total else 0)

    def canonical_key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Unordered canonical form: longer row first, ties lexicographic."""
        a, b = self.row1, self.row2
        if len(a) < len(b) or (len(a) == len(b) and a > b):
            a, b = b, a
        return (a, b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolBCD):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        fmt = lambda row: "{" + ",".join(map(str, row)) + "}"
        return f"({fmt(self.row1)},{fmt(self.row2)})"


def parse_symbol(text: str) -> SymbolBCD:
    """Parse '({0,2},{1})' (spaces allowed, empty rows '{}' allowed)."""
    s = text.strip().replace(" ", "")
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"cannot parse symbol from {text!r}")
    body = s[1:-1]
    rows = []
    depth = 0
    current = ""
    for ch in body:
        if ch == "{":
            depth += 1
            current = ""
        elif ch == "}":
            depth -= 1
            rows.append([int(x) for x in current.split(",") if x != ""])
        elif depth == 1:
            current += ch
    if len(rows) != 2 or depth != 0:
        raise ValueError(f"cannot parse symbol from {text!r}")
    return SymbolBCD(rows[0], rows[1])


def symbol_d_core(S: SymbolBCD, d: int) -> SymbolBCD:
    """The d-core (d odd): the beads of each row slid up that row's own
    d-abacus (James-Kerber 2.7), row order kept, then renormalized.  Removal
    of d-hooks in every order is the tests' oracle
    (``all_terminal_symbols`` in ``tests/scalar_oracles.py``).
    """
    if d <= 0 or d % 2 == 0:
        raise ValueError(f"d must be odd and positive, got {d}")
    core = SymbolBCD(_slid_beads(S.row1, d), _slid_beads(S.row2, d))
    assert (S.rank - core.rank) % d == 0
    return core


def _rows_with_sum(length: int, total: int, min_val: int = 0) -> Iterator[tuple[int, ...]]:
    """Strictly increasing tuples of the given length summing to total."""
    if length == 0:
        if total == 0:
            yield ()
        return
    if length == 1:
        if total >= min_val:
            yield (total,)
        return
    v = min_val
    while True:
        # remaining entries are at least v+1, ..., v+length-1
        rest_min = (length - 1) * v + length * (length - 1) // 2
        if v + rest_min > total:
            break
        for rest in _rows_with_sum(length - 1, total - v, v + 1):
            yield (v,) + rest
        v += 1


def enumerate_symbols(rank: int, max_defect: int = 3) -> list[SymbolBCD]:
    """All reduced symbols of the given rank with defect <= max_defect.

    Each unordered pair is listed once (canonical row order).  Degenerate
    symbols (equal rows) are excluded.
    """
    if rank < 0:
        raise ValueError("rank must be non-negative")
    out = []
    max_len = 2 * rank + max_defect + 4
    for b in range(0, max_len + 1):
        for a in range(b, min(b + max_defect, max_len) + 1):
            total_len = a + b
            target = rank + ((total_len - 1) ** 2 // 4 if total_len else 0)
            min_sum = a * (a - 1) // 2 + b * (b + 1) // 2
            if min_sum > target:
                continue
            for s1 in range(0, target + 1):
                for r1 in _rows_with_sum(a, s1):
                    for r2 in _rows_with_sum(b, target - s1):
                        if 0 in r1 and 0 in r2:
                            continue  # not reduced
                        if a == b and r2 < r1:
                            continue  # unordered pair: emit once
                        if r1 == r2:
                            continue  # degenerate
                        S = SymbolBCD(r1, r2)
                        assert S.rank == rank, (r1, r2, S.rank, rank)
                        out.append(S)
    out.sort(key=lambda S: S.canonical_key())
    return out
