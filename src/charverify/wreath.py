"""Exact character tables of C_m wr S_a and of their index-2 subgroups.

Irreducible characters are labelled by m-tuples of partitions of total size a;
conjugacy classes by colored cycle types (multisets of (length, color) pairs).
Values are computed by the wreath-product Murnaghan-Nakayama recursion with
the cyclic base case j -> zeta_m^{jk}, carried out over the group ring
Z[t]/(t^m - 1) in vectorized integer arithmetic.  ``WreathTable`` is a
``grouptable.CharacterTable`` whose ``raw`` is the (L, C, m) array of those
group-ring coefficients, so its conductors, H_d-fixedness and orthogonality
are the table class's own; it adds the labels and classes.  ``raw`` is compact and
read-only, as every table's is: each column is computed in int64 and
written straight into an array of the smallest signed integer type that
holds the largest degree, which bounds every coefficient.  Recursion
columns depend on m and the class only, so the tables of one m share them,
as views of the compact arrays.

Conductors and H_d-fixedness of C_m wr S_a are read from the labels alone,
for a whole table or one label, at every size: sigma_s permutes components
as mu^(j) = lambda^(j * s^{-1} mod m), so no value is built.  The tests
check this action against the table's own passes over ``raw`` and value by
value on small tables.

For even m, G(m,2,a) denotes the index-2 subgroup of elements whose color sum
is even.  Its exact table comes from Burnside-Dixon on its elements, listed
as colored-permutation arrays of (color vector, permutation) pairs.
C_m wr S_a and G(m,2,a) above
``grouptable.MAX_GROUP_ORDER`` are refused from their order, m^a a! (halved
for G(m,2,a)), before any element is listed; labels of C_m wr S_a are listed
only up to ``MAX_LABELS`` characters, counted by ``_label_count``, and full
tables are built only up to ``MAX_TABLE_BYTES`` of values.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

import numpy as np

from .cyclotomic import _peak, conductors_from_fixedness, unit_residues
from .grouptable import (
    CharacterTable,
    ColoredPermGroup,
    _check_group_order,
    _compact_dtype,
    _permutations,
)
from .ladic import hd_residues
from .partitions import Partition, _partition_objects, _partitions_of, hooks

WreathLabel = tuple  # tuple of Partition, length m


class WreathClass:
    """A colored cycle type: multiset of (length, color) pairs."""

    __slots__ = ("cycles",)

    def __init__(self, cycles):
        cycles = tuple(sorted(((int(c), int(j)) for c, j in cycles), reverse=True))
        if any(c < 1 for c, _ in cycles):
            raise ValueError(f"cycle lengths must be positive: {cycles}")
        object.__setattr__(self, "cycles", cycles)

    def __setattr__(self, name, value):
        raise AttributeError("WreathClass is immutable")

    @property
    def total(self) -> int:
        return sum(c for c, _ in self.cycles)

    def centralizer_order(self, m: int) -> int:
        out = 1
        for (c, j), mult in Counter(self.cycles).items():
            out *= (c * m) ** mult * math.factorial(mult)
        return out

    def size(self, m: int) -> int:
        group_order = m**self.total * math.factorial(self.total)
        assert group_order % self.centralizer_order(m) == 0
        return group_order // self.centralizer_order(m)

    def element_order(self, m: int) -> int:
        """Order of an element of the class: a c-cycle of color j has c-th
        power zeta_m^j on each of its points, so order c * m / gcd(m, j)."""
        return math.lcm(1, *(c * (m // math.gcd(m, j)) for c, j in self.cycles))

    def __eq__(self, other):
        if not isinstance(other, WreathClass):
            return NotImplemented
        return self.cycles == other.cycles

    def __hash__(self):
        return hash(self.cycles)

    def __repr__(self):
        return f"WreathClass{self.cycles}"


# Labels of C_m wr S_a are listed only when there are at most this many
# (ValueError otherwise, from ``_label_count`` before any label is listed).
# The default grids list at most 2535 labels (C_12 wr S_4); C_12 wr S_6, with
# 42614, passes and C_12 wr S_7, with 153960, does not.
MAX_LABELS = 10**5


def _check_label_count(m: int, a: int) -> None:
    """Refuse C_m wr S_a unless m >= 1 and a >= 0, and above MAX_LABELS
    characters, from their count."""
    if m < 1 or a < 0:
        raise ValueError(f"need m >= 1 and a >= 0, got m = {m}, a = {a}")
    count = _label_count(m, a)
    if count > MAX_LABELS:
        raise ValueError(
            f"C{m}wrS{a} has {count} characters, above the cap of "
            f"{MAX_LABELS} on listed wreath labels"
        )


# Full tables are built only when their (L, L, m) ``raw``, at the item size of
# ``_compact_dtype`` of the largest degree, takes at most this many bytes
# (ValueError before anything is built).  C_12 wr S_4 (74 MiB in int8) and
# C_6 wr S_6 (71 MiB in int16) pass, C_7 wr S_6 (273 MiB in int16) does not.
MAX_TABLE_BYTES = 256 * 2**20


def _max_degree(m: int, a: int) -> int:
    """The largest degree of C_m wr S_a by the hook formula: a! over the least
    prod_j H(s_j), s_1 + ... + s_m = a, H(s) the least hook product of s."""
    H = [min(math.prod(Partition(q).hook_lengths()) for q in _partitions_of(s))
         for s in range(a + 1)]
    least = [1] + [math.inf] * a
    for _ in range(min(m, a)):
        least = [min(least[t - s] * H[s] for s in range(t + 1)) for t in range(a + 1)]
    return math.factorial(a) // least[a]


def _check_table_bytes(m: int, a: int) -> None:
    """Refuse the full table of C_m wr S_a above MAX_TABLE_BYTES; one over
    it at one byte an entry is refused before its degrees are bounded."""
    size = _label_count(m, a) ** 2 * m
    if size <= MAX_TABLE_BYTES:
        size *= _compact_dtype(_max_degree(m, a)).itemsize
    if size > MAX_TABLE_BYTES:
        raise ValueError(
            f"the table of C{m}wrS{a} would hold {size / 2**20:.0f} MiB of "
            f"values, above the cap of {MAX_TABLE_BYTES // 2**20} MiB"
        )


def irr_labels(m: int, a: int) -> list[WreathLabel]:
    """All m-tuples of partitions with total size a, in deterministic order."""
    _check_label_count(m, a)
    return list(_labels_by_size(m, a))


@lru_cache(maxsize=None)
def _label_count(m: int, a: int) -> int:
    """The number of m-tuples of partitions of total size a, without
    listing them: the coefficient of x^a in P(x)^m, P(x) = sum_n p(n) x^n."""
    p = [1] + [0] * a
    for part in range(1, a + 1):
        for n in range(part, a + 1):
            p[n] += p[n - part]
    power = [1] + [0] * a
    for _ in range(m):
        power = [sum(power[i] * p[n - i] for i in range(n + 1)) for n in range(a + 1)]
    return power[a]


def class_labels(m: int, a: int) -> list[WreathClass]:
    """All colored cycle types of total weight a, in deterministic order."""
    pairs = [(c, j) for c in range(a, 0, -1) for j in range(m - 1, -1, -1)]

    def rec(remaining: int, start: int):
        if remaining == 0:
            yield ()
            return
        for idx in range(start, len(pairs)):
            c, j = pairs[idx]
            if c <= remaining:
                for rest in rec(remaining - c, idx):
                    yield ((c, j),) + rest

    return [WreathClass(cycles) for cycles in rec(a, 0)]


class WreathTable(CharacterTable):
    """The full exact character table of C_m wr S_a: rows in the order of
    ``irr_labels(m, a)``, columns in that of ``class_labels(m, a)``."""

    def __init__(self, m: int, a: int):
        self.m = m
        self.a = a
        self.labels = list(_labels_by_size(m, a))
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        self.classes = class_labels(m, a)
        self.class_index = {cls.cycles: i for i, cls in enumerate(self.classes)}
        if len(self.labels) != len(self.classes):
            raise AssertionError("label and class counts differ")
        super().__init__(
            _build_raw(m, self.classes, _column_memo(m)),
            [cls.size(m) for cls in self.classes],
            [cls.element_order(m) for cls in self.classes],
            m**a * math.factorial(a),
        )


# Label encoding.  A partition of size n <= s has rank
# P(s) - P(n) + (its position in ``_partitions_of(n)``) at level s, where
# P(n) counts the partitions of size at most n: ranks run over sizes
# descending, then in the order of ``partitions_of``.  The labels of total
# size s are the (L, m) array of their component ranks (``_label_ranks``),
# rows in lexicographic order, i.e. tuples of partitions sorted with each
# component in rank order; the index of a label is an integer function of
# its row (``_label_index``).


@lru_cache(maxsize=None)
def _labels_by_size(m: int, s: int) -> list[WreathLabel]:
    """The labels of total size s, decoded from ``_label_ranks(m, s)``."""
    return list(map(tuple, _rank_partitions(s)[_label_ranks(m, s)].tolist()))


@lru_cache(maxsize=None)
def _rank_partitions(s: int) -> np.ndarray:
    """The ``Partition`` of each rank at level s, as an object array."""
    out = np.empty(len(_rank_sizes(s)), dtype=object)
    for r, lam in enumerate(p for n in range(s, -1, -1) for p in _partition_objects(n)):
        out[r] = lam
    return out


@lru_cache(maxsize=None)
def _rank_sizes(s: int) -> np.ndarray:
    """The size of each rank at level s: s repeated p(s) times, ..., 0 once."""
    return np.repeat(
        np.arange(s, -1, -1), [len(_partitions_of(n)) for n in range(s, -1, -1)]
    )


def _rank_shift(s: int, n: int) -> int:
    """rank at level s minus rank at level n <= s, of any partition of size
    at most n: the number of partitions of sizes n + 1, ..., s."""
    return sum(len(_partitions_of(t)) for t in range(n + 1, s + 1))


@lru_cache(maxsize=None)
def _label_ranks(m: int, s: int) -> np.ndarray:
    """(L, m) component ranks at level s of the labels of total size s, rows
    in the order of ``_labels_by_size(m, s)``, in the smallest signed
    integer type that holds minus the number of ranks (int8 up to s = 9),
    since the arrays of every grid cell stay cached."""
    if m == 0:
        return np.zeros((1 if s == 0 else 0, 0), dtype=np.int8)
    blocks = []
    for t in range(s, -1, -1):
        rest = _label_ranks(m - 1, s - t).astype(np.int64) + _rank_shift(s, s - t)
        first = _rank_shift(s, t) + np.arange(len(_partitions_of(t)))
        blocks.append(
            np.column_stack(
                [np.repeat(first, len(rest)), np.tile(rest, (len(first), 1))]
            )
        )
    out = np.concatenate(blocks).astype(np.min_scalar_type(-len(_rank_sizes(s))))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _rank_offsets(m: int, s: int) -> np.ndarray:
    """(m, s + 1, #ranks) array: entry [k, t, r] counts the labels that agree
    with a given one before component k, leave size t for components k, ...,
    m - 1, and have a rank below r at component k."""
    sizes = _rank_sizes(s)
    out = np.zeros((m, s + 1, len(sizes)), dtype=np.int64)
    for k in range(m):
        for t in range(s + 1):
            below = [_label_count(m - k - 1, t - z) if z <= t else 0 for z in sizes]
            out[k, t, 1:] = np.cumsum(below[:-1])
    return out


def _label_index(m: int, s: int, ranks: np.ndarray) -> np.ndarray:
    """Index in ``_labels_by_size(m, s)`` of each row of component ranks."""
    sizes = _rank_sizes(s)[ranks]
    left = s - (np.cumsum(sizes, axis=1) - sizes)
    return _rank_offsets(m, s)[np.arange(m), left, ranks].sum(axis=1)


@lru_cache(maxsize=None)
def _partition_hooks(n: int, c: int):
    """Rim c-hook removals from each partition of size n, in the order of
    ``_partitions_of(n)``: (hook counts, positions of the results in
    ``_partitions_of(n - c)``, signs (-1)^height), hooks listed in the order
    of ``partitions.hooks``."""
    index = {p: i for i, p in enumerate(_partitions_of(n - c))}
    counts, results, signs = [], [], []
    for lam in _partition_objects(n):
        found = hooks(lam, c)
        counts.append(len(found))
        for _, new_part, height in found:
            results.append(index[new_part.parts])
            signs.append(-1 if height % 2 else 1)
    return counts, results, signs


@lru_cache(maxsize=None)
def _hook_op(m: int, s: int, c: int):
    """Sparse map of c-hook removals, labels(s) -> labels(s - c): entry t
    removes a hook from component ks[t] of label rows[t], leaving label
    cols[t], with sign signs[t] = (-1)^height.  Entries are sorted by row."""
    # the hooks of every rank at level s, results as ranks at level s - c
    counts, results, signs = [], [], []
    for n in range(s, -1, -1):
        if n < c:
            counts += [0] * len(_partitions_of(n))
            continue
        cnt, res, sgn = _partition_hooks(n, c)
        shift = _rank_shift(s - c, n - c)
        counts += cnt
        results += [r + shift for r in res]
        signs += sgn
    counts = np.array(counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    comp = _label_ranks(m, s)
    flat = comp.ravel()
    per_pair = counts[flat]
    pair = np.repeat(np.arange(flat.size), per_pair)
    hook = np.repeat(starts[flat] - (np.cumsum(per_pair) - per_pair), per_pair)
    hook += np.arange(len(pair))
    rows, ks = np.divmod(pair, m)
    small = comp[rows].astype(np.int64) - _rank_shift(s, s - c)
    small[np.arange(len(pair)), ks] = np.array(results, dtype=np.int64)[hook]
    return (
        rows.astype(np.intp),
        _label_index(m, s - c, small).astype(np.intp),
        np.array(signs, dtype=np.int64)[hook],
        ks,
    )


@lru_cache(maxsize=None)
def _column_memo(m: int) -> dict[tuple, np.ndarray]:
    """Columns of the Murnaghan-Nakayama recursion for C_m wr S_s, keyed
    by cycle tuple: the (labels(s), m) values at that class, a read-only
    view of the compact ``raw`` of C_m wr S_s once that table is built
    and an int64 array before.  A column depends on m and the cycles only,
    so the tables of every a share it."""
    return {}


def _build_raw(m: int, classes, memo: dict) -> np.ndarray:
    """The (labels, classes, m) value array over Z[t]/(t^m - 1), read-only,
    in ``grouptable._compact_dtype`` of the largest degree.

    Removing the leading c-cycle of color j from the class and a c-hook from
    component k of the label contributes zeta_m^{jk} times the smaller
    column: one gather of the smaller column's entries at flat positions
    cols*m + (e - jk) mod m, signed in int64, and one sum over each row's
    run of entries.  The gather positions are shared by the columns of one
    (s, c, j) within this call.

    Every coefficient is a signed count of Murnaghan-Nakayama paths, at
    most chi(1) of them, so the identity column, whose entries are the
    degrees, fixes the dtype before any other column is written.  Each
    column is checked against that dtype's range as it is written
    (OverflowError, never a wrap).  Columns are read from and written to
    ``memo``; this table's own columns go in as read-only views of the
    returned array as soon as they are written, so no full-size int64
    table is ever held.
    """
    shifts = np.arange(m)
    gathers = {}

    def gather(s: int, c: int, j: int):
        key = (s, c, j)
        if key not in gathers:
            rows, cols, signs, ks = _hook_op(m, s, c)
            first = np.flatnonzero(np.diff(rows, prepend=-1))
            flat = cols[:, None] * m + (shifts - j * ks[:, None]) % m
            gathers[key] = (flat, signs[:, None], first, rows[first])
        return gathers[key]

    def column(cycles: tuple) -> np.ndarray:
        col = memo.get(cycles)
        if col is not None:
            return col
        if not cycles:
            col = np.zeros((1, m), dtype=np.int64)
            col[0, 0] = 1
        else:
            c, j = cycles[0]
            s = sum(x for x, _ in cycles)
            prev = column(cycles[1:])
            flat, signs, first, nonempty = gather(s, c, j)
            col = np.zeros((_label_count(m, s), m), dtype=np.int64)
            terms = np.multiply(np.take(prev, flat), signs, dtype=np.int64)
            col[nonempty] = np.add.reduceat(terms, first)
        memo[cycles] = col
        return col

    a = classes[0].total
    dtype = _compact_dtype(_peak(column(((1, 0),) * a)))
    low, high = np.iinfo(dtype).min, np.iinfo(dtype).max
    raw = np.empty((_label_count(m, a), len(classes), m), dtype=dtype)
    for ci, cls in enumerate(classes):
        col = column(cls.cycles)
        if col.min() < low or col.max() > high:
            raise OverflowError(f"a column of C{m}wrS{a} leaves the range of {dtype}")
        raw[:, ci, :] = col
        view = raw[:, ci, :]
        view.flags.writeable = False
        memo[cls.cycles] = view
    raw.flags.writeable = False
    # ``column`` refers to itself, so the closures outlive this call until
    # the cycle collector runs; drop the gather positions now
    gathers.clear()
    return raw


@lru_cache(maxsize=None)
def get_table(m: int, a: int) -> WreathTable:
    _check_label_count(m, a)
    _check_table_bytes(m, a)
    return WreathTable(m, a)


def _labels_fixed(comp: np.ndarray, m: int, ks) -> np.ndarray:
    """(len(ks), L) bools for an (L, m) array of component ids (equal ids
    for equal partitions): whether the relabeling by sigma_k fixes each
    label, i.e. whether its row equals the copy with columns permuted by
    j -> j * k^{-1} mod m."""
    j = np.arange(m)
    out = np.ones((len(ks), len(comp)), dtype=bool)
    for t, k in enumerate(ks):
        out[t] = (comp[:, j * pow(k, -1, m) % m] == comp).all(axis=1)
    return out


def _table_fixed(m: int, a: int, ks) -> np.ndarray:
    """(len(ks), #labels) Galois fixedness of every character of C_m wr S_a,
    labels in the order of ``irr_labels(m, a)``."""
    _check_label_count(m, a)
    return _labels_fixed(_label_ranks(m, a), m, ks)


def _label_fixed(label, m: int, ks) -> np.ndarray:
    """(len(ks), 1) Galois fixedness of the one character chi_label."""
    ids: dict = {}
    comp = np.array([[ids.setdefault(p.parts, len(ids)) for p in label]])
    return _labels_fixed(comp, m, ks)


def table_conductors(m: int, a: int) -> np.ndarray:
    """Conductors of all characters of C_m wr S_a, in the order of
    ``irr_labels(m, a)``, from the Galois action on their labels."""
    _check_label_count(m, a)
    return conductors_from_fixedness(_table_fixed(m, a, unit_residues(m)), m)


def table_hd_fixed(m: int, a: int, d: int) -> np.ndarray:
    """For every character of C_m wr S_a (order of ``irr_labels(m, a)``),
    whether it is fixed by every sigma_k with k = 1 mod d, from the Galois
    action on their labels."""
    _check_label_count(m, a)
    return _table_fixed(m, a, hd_residues(m, d)).all(axis=0)


def _check_label(label, m: int):
    """The label as partitions, and its size a.  One label is answered
    above MAX_LABELS too, so only the domain of (m, a) is checked."""
    label = tuple(p if isinstance(p, Partition) else Partition(p) for p in label)
    a = sum(p.size for p in label)
    if m < 1:
        raise ValueError(f"need m >= 1 and a >= 0, got m = {m}, a = {a}")
    if len(label) != m:
        raise ValueError(f"label must have {m} components, got {len(label)}")
    return label, a


def conductor_of_char(label, m: int) -> int:
    """Smallest c | m with all values of chi_label in Q(zeta_c): the least
    c such that every sigma_k, k = 1 mod c, fixes the label, read from the
    label alone (no table and no other label is built)."""
    label, _ = _check_label(label, m)
    fixed = _label_fixed(label, m, unit_residues(m))
    return int(conductors_from_fixedness(fixed, m)[0])


def h_d_invariant(label, m: int, d: int) -> bool:
    """Whether chi_label is fixed by every sigma_k with k = 1 mod d.

    The subgroup is {k in (Z/NZ)^x : k = 1 mod d} at the common modulus
    N = lcm(m, d); its residues act on Q(zeta_m) through their reductions
    mod m.  Read from the label alone, as in :func:`conductor_of_char`.
    """
    label, _ = _check_label(label, m)
    return bool(_label_fixed(label, m, hd_residues(m, d)).all())


# ---------------------------------------------------------------------------
# the explicit groups C_m wr S_a and G(m,2,a)
# ---------------------------------------------------------------------------


class _Pairs:
    """(color vector f, permutation sigma) pairs of C_m wr S_a as colored
    permutations: the pair is the map e_j -> zeta_m^f[sigma(j)] e_sigma(j),
    so perm = sigma and color[j] = f[sigma(j)]; pairs sort by f, then by
    sigma."""

    def __init__(self, m: int, a: int):
        self.radices = (m,) * a + (a,) * a

    def digits(self, perm, color):
        f = np.empty_like(color)
        np.put_along_axis(f, perm, color, axis=-1)
        return np.concatenate([f, perm], axis=-1)

    def encode(self, x):
        f, sigma = x
        return list(sigma), [f[s] for s in sigma]

    def decode(self, perm, color):
        f = [0] * len(perm)
        for s, c in zip(perm.tolist(), color.tolist()):
            f[s] = c
        return tuple(f), tuple(perm.tolist())


def _check_wreath_order(m: int, a: int, even: bool) -> str:
    """Refuse, before listing it, C_m wr S_a (G(m,2,a) with ``even``)
    above the cap on explicit groups; return the group's name."""
    name = f"G({m},2,{a})" if even else f"C{m}wrS{a}"
    _check_group_order(m**a * math.factorial(a) // (2 if even else 1), name)
    return name


def _wreath_group(m: int, a: int, even: bool, generators) -> ColoredPermGroup:
    """C_m wr S_a, or with ``even`` its elements of even color sum, built
    as arrays once its order has passed the cap."""
    name = _check_wreath_order(m, a, even)
    f = np.indices((m,) * a).reshape(a, -1).T
    if even:
        f = f[f.sum(axis=1) % 2 == 0]
    sigma = _permutations(a)
    perm = np.tile(sigma, (len(f), 1))
    color = np.take_along_axis(np.repeat(f, len(sigma), axis=0), perm, axis=1)
    return ColoredPermGroup(perm, color, m, _Pairs(m, a), generators=generators, name=name)


def _transpositions(a: int) -> list:
    """The adjacent transpositions of S_a as uncolored pairs."""
    out = []
    for i in range(a - 1):
        perm = list(range(a))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        out.append((tuple([0] * a), tuple(perm)))
    return out


@lru_cache(maxsize=None)
def get_full_group(m: int, a: int) -> ColoredPermGroup:
    """C_m wr S_a as an explicit group of (color vector, permutation) pairs."""
    if m < 1 or a < 1:
        raise ValueError("need m >= 1 and a >= 1")
    gens = _transpositions(a)
    if m > 1:
        gens.insert(0, (tuple([1] + [0] * (a - 1)), tuple(range(a))))
    return _wreath_group(m, a, False, gens or None)


@lru_cache(maxsize=None)
def get_subgroup(m: int, a: int) -> ColoredPermGroup:
    """G(m,2,a) as an explicit group: color vectors with even sum."""
    if m % 2 != 0:
        raise ValueError("G(m,2,a) requires even m")
    if a < 1:
        raise ValueError("a must be at least 1")
    gens = []
    if m > 2:
        gens.append((tuple([2] + [0] * (a - 1)), tuple(range(a))))
    if a >= 2:
        gens.append((tuple([1, 1] + [0] * (a - 2)), tuple(range(a))))
        gens += _transpositions(a)
    return _wreath_group(m, a, True, gens or None)


@lru_cache(maxsize=None)
def get_subgroup_table(m: int, a: int) -> CharacterTable:
    return CharacterTable.dixon(get_subgroup(m, a))
