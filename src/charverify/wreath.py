"""Exact character tables of C_m wr S_a and their index-2 subgroups.

Irreducible characters are labelled by m-tuples of partitions of total size a;
conjugacy classes by colored cycle types (multisets of (length, color) pairs).
Values are computed by the wreath-product Murnaghan-Nakayama recursion with
the cyclic base case j -> zeta_m^{jk}, carried out over the group ring
Z[t]/(t^m - 1) in vectorized integer arithmetic and reduced to canonical
cyclotomic form on demand.  ``WreathTable.raw`` is the (L, C, m) int64 array
of those group-ring coefficients, the layout that ``grouptable`` Dixon tables
share with N = exponent(G).  Recursion columns depend on m and the class
only, so the tables of one m share them.

Conductors and H_d-fixedness are answered for a whole table at once: on the
values route by ``cyclotomic.galois_fixed_rows`` over ``raw``; on the label
route through the Galois action on labels, sigma_s permuting components as
mu^(j) = lambda^(j * s^{-1} mod m), which is verified value-by-value on every
small table (see tests) and then used for tables with more than
``VALUES_ROUTE_MAX_LABELS`` characters, whose values are never built.

For even m, G(m,2,a) denotes the index-2 subgroup of elements whose color sum
is even.  Restrictions are decomposed by Clifford theory; split constituents
are matched against an independently built exact table of the subgroup
(explicit elements + Burnside-Dixon), which also serves as the oracle for
orthogonality of the split pieces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cyclotomic import (
    CyclotomicNumber,
    _reduction_matrix,
    _reduction_rows,
    conductors_from_fixedness,
    galois_fixed_rows,
    unit_residues,
)
from .grouptable import CharacterTable, FiniteGroup
from .ladic import hd_subgroup
from .partitions import Partition, hooks, partition_tuples

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
        for (c, j), mult in _multiplicities(self.cycles).items():
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


def _multiplicities(items):
    out = {}
    for x in items:
        out[x] = out.get(x, 0) + 1
    return out


def irr_labels(m: int, a: int) -> list[WreathLabel]:
    """All m-tuples of partitions with total size a, in deterministic order."""
    if m < 1 or a < 0:
        raise ValueError("need m >= 1 and a >= 0")
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


def degree(label: WreathLabel, m: int | None = None) -> int:
    """chi(1) = multinomial(a; component sizes) * prod of tableau counts."""
    label = tuple(p if isinstance(p, Partition) else Partition(p) for p in label)
    a = sum(p.size for p in label)
    out = math.factorial(a)
    for p in label:
        out //= math.factorial(p.size)
        out *= p.num_standard_tableaux()
    return out


class WreathTable:
    """The full exact character table of C_m wr S_a."""

    def __init__(self, m: int, a: int):
        self.m = m
        self.a = a
        self.labels = list(_labels_by_size(m, a))
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        self.classes = class_labels(m, a)
        self.class_index = {cls.cycles: i for i, cls in enumerate(self.classes)}
        if len(self.labels) != len(self.classes):
            raise AssertionError("label and class counts differ")
        self.class_sizes = [cls.size(m) for cls in self.classes]
        self.raw = _build_raw(m, self.classes, _column_memo(m))
        ident = self.identity_class_index()
        if np.any(self.raw[:, ident, 1:]):
            raise AssertionError("identity-class values must be integers")
        self.degrees = [int(x) for x in self.raw[:, ident, 0]]
        self._canonical = None

    # -- value access --------------------------------------------------------

    def identity_class_index(self) -> int:
        ident = WreathClass(((1, 0),) * self.a)
        return self.class_index[ident.cycles]

    def value(self, label_idx: int, class_idx: int) -> CyclotomicNumber:
        coeffs = {
            e: Fraction(int(v))
            for e, v in enumerate(self.raw[label_idx, class_idx])
            if v
        }
        return CyclotomicNumber(self.m, coeffs)

    def canonical(self) -> np.ndarray:
        """Values reduced to the power basis of Q(zeta_m): (L, C, phi(m)) ints."""
        if self._canonical is None:
            R = _reduction_matrix(self.m)
            L, C, m = self.raw.shape
            self._canonical = (self.raw.reshape(L * C, m) @ R).reshape(
                L, C, R.shape[1]
            )
        return self._canonical


@lru_cache(maxsize=None)
def _labels_by_size(m: int, s: int) -> list[WreathLabel]:
    return list(partition_tuples(s, m))


@lru_cache(maxsize=None)
def _label_index_by_size(m: int, s: int) -> dict:
    return {lab: i for i, lab in enumerate(_labels_by_size(m, s))}


@lru_cache(maxsize=None)
def _hook_op(m: int, s: int, c: int):
    """Sparse map of c-hook removals, labels(s) -> labels(s - c): entry t
    removes a hook from component ks[t] of label rows[t], leaving label
    cols[t], with sign signs[t] = (-1)^height."""
    labels_s = _labels_by_size(m, s)
    index_small = _label_index_by_size(m, s - c)
    rows, cols, signs, ks = [], [], [], []
    for i, lab in enumerate(labels_s):
        for k in range(m):
            if lab[k].size < c:
                continue
            for _, new_part, height in hooks(lab[k], c):
                new_lab = lab[:k] + (new_part,) + lab[k + 1 :]
                rows.append(i)
                cols.append(index_small[new_lab])
                signs.append(-1 if height % 2 else 1)
                ks.append(k)
    return (
        np.array(rows, dtype=np.intp),
        np.array(cols, dtype=np.intp),
        np.array(signs, dtype=np.int64),
        np.array(ks, dtype=np.int64),
    )


@lru_cache(maxsize=None)
def _column_memo(m: int) -> dict[tuple, np.ndarray]:
    """Columns of the Murnaghan-Nakayama recursion for C_m wr S_s, keyed
    by cycle tuple: the (labels(s), m) values at that class.  A column
    depends on m and the cycles only, so the tables of every a share it."""
    return {}


def _build_raw(m: int, classes, memo: dict) -> np.ndarray:
    """The (labels, classes, m) value array over Z[t]/(t^m - 1).

    Removing the leading c-cycle of color j from the class and a c-hook from
    component k of the label contributes zeta_m^{jk} times the smaller
    column: one gather over every (hook, k) pair, shifted by jk, and one
    scatter-add.  Columns are read from and written to ``memo``; this
    table's own columns go in as views of the returned (read-only) array.
    """
    shifts = np.arange(m)

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
            rows, cols, signs, ks = _hook_op(m, s, c)
            contrib = signs[:, None] * prev[cols[:, None], (shifts - j * ks[:, None]) % m]
            col = np.zeros((len(_labels_by_size(m, s)), m), dtype=np.int64)
            np.add.at(col, rows, contrib)
        memo[cycles] = col
        return col

    a = classes[0].total
    raw = np.zeros((len(_labels_by_size(m, a)), len(classes), m), dtype=np.int64)
    for ci, cls in enumerate(classes):
        raw[:, ci, :] = column(cls.cycles)
    raw.flags.writeable = False
    for ci, cls in enumerate(classes):
        memo[cls.cycles] = raw[:, ci, :]
    return raw


@lru_cache(maxsize=None)
def get_table(m: int, a: int) -> WreathTable:
    return WreathTable(m, a)


def char_value(label, cls, m: int) -> CyclotomicNumber:
    """Exact character value chi_label at the given class of C_m wr S_a."""
    label = tuple(p if isinstance(p, Partition) else Partition(p) for p in label)
    if len(label) != m:
        raise ValueError(f"label must have {m} components, got {len(label)}")
    if not isinstance(cls, WreathClass):
        cls = WreathClass(cls)
    a = sum(p.size for p in label)
    if cls.total != a:
        raise ValueError(
            f"class weight {cls.total} does not match label size {a}"
        )
    table = get_table(m, a)
    return table.value(table.label_index[label], table.class_index[cls.cycles])


# ---------------------------------------------------------------------------
# Galois action on characters
# ---------------------------------------------------------------------------


def galois_permuted_label(label, m: int, s: int):
    """The label of chi^{sigma_s}: mu^(j) = lambda^(j * s^{-1} mod m)."""
    if math.gcd(s, m) != 1:
        raise ValueError(f"s = {s} not coprime to m = {m}")
    s_inv = pow(s, -1, m)
    return tuple(label[(j * s_inv) % m] for j in range(m))


def _galois_matrices(m: int) -> dict[int, np.ndarray]:
    """P_s acting on canonical coordinates: row e -> reduction of e*s mod m."""
    rows = _reduction_rows(m)
    phi = len(rows[0])
    out = {}
    for s in range(1, m + 1):
        if math.gcd(s, m) != 1:
            continue
        P = np.zeros((phi, phi), dtype=np.int64)
        for e in range(phi):
            P[e] = rows[(e * s) % m]
        out[s % m if m > 1 else 1] = P
    return out


def verify_galois_equivariance(m: int, a: int) -> bool:
    """Value-level check that chi^{sigma_s} equals the relabeled character."""
    table = get_table(m, a)
    canon = table.canonical()
    mats = _galois_matrices(m)
    for s, P in mats.items():
        perm = [
            table.label_index[galois_permuted_label(lab, m, s)]
            for lab in table.labels
        ]
        transformed = canon @ P
        if not np.array_equal(transformed, canon[perm]):
            return False
    return True


# Tables with more labels than this answer conductor and fixedness questions
# by the label route, which needs neither the table nor (for one label) the
# list of all labels.
VALUES_ROUTE_MAX_LABELS = 400


def _route(m: int, a: int, via: str) -> str:
    if via not in ("auto", "values", "label"):
        raise ValueError(f"unknown via = {via!r}")
    if via == "auto":
        return "values" if _label_count(m, a) <= VALUES_ROUTE_MAX_LABELS else "label"
    return via


def _labels_fixed(labels, m: int, ks) -> np.ndarray:
    """(len(ks), len(labels)) bools: whether the relabeling by sigma_k
    fixes each label, i.e. whether its array of component ids equals the
    copy with columns permuted by j -> j * k^{-1} mod m."""
    ids: dict = {}
    comp = np.array(
        [[ids.setdefault(p.parts, len(ids)) for p in lab] for lab in labels],
        dtype=np.int64,
    ).reshape(len(labels), m)
    j = np.arange(m)
    out = np.ones((len(ks), len(labels)), dtype=bool)
    for t, k in enumerate(ks):
        out[t] = (comp[:, j * pow(k, -1, m) % m] == comp).all(axis=1)
    return out


def _table_fixed(m: int, a: int, ks, via: str) -> np.ndarray:
    """(len(ks), #labels) Galois fixedness of every character of C_m wr S_a,
    labels in the order of ``irr_labels(m, a)``."""
    if _route(m, a, via) == "values":
        return galois_fixed_rows(get_table(m, a).raw, ks)
    return _labels_fixed(_labels_by_size(m, a), m, ks)


def _label_fixed(label, m: int, a: int, ks, via: str) -> np.ndarray:
    """(len(ks), 1) Galois fixedness of the one character chi_label."""
    if _route(m, a, via) == "values":
        table = get_table(m, a)
        i = table.label_index[label]
        return galois_fixed_rows(table.raw[i : i + 1], ks)
    return _labels_fixed([label], m, ks)


def _hd_residues(m: int, d: int) -> list[int]:
    """H_d = {k in (Z/NZ)^x : k = 1 mod d} at N = lcm(m, d), reduced mod m."""
    if d < 1:
        raise ValueError("d must be positive")
    return sorted({k % m for k in hd_subgroup(d, math.lcm(m, d)).residues})


def table_conductors(m: int, a: int, via: str = "auto") -> np.ndarray:
    """Conductors of all characters of C_m wr S_a, in the order of
    ``irr_labels(m, a)``; ``via`` as in :func:`conductor_of_char`."""
    return conductors_from_fixedness(_table_fixed(m, a, unit_residues(m), via), m)


def table_hd_fixed(m: int, a: int, d: int, via: str = "auto") -> np.ndarray:
    """For every character of C_m wr S_a (order of ``irr_labels(m, a)``),
    whether it is fixed by every sigma_k with k = 1 mod d; ``via`` as in
    :func:`h_d_invariant`."""
    return _table_fixed(m, a, _hd_residues(m, d), via).all(axis=0)


def _check_label(label, m: int, a: int | None):
    label = tuple(p if isinstance(p, Partition) else Partition(p) for p in label)
    if len(label) != m:
        raise ValueError(f"label must have {m} components, got {len(label)}")
    total = sum(p.size for p in label)
    if a is not None and a != total:
        raise ValueError(f"a = {a} does not match label size {total}")
    return label, total


def conductor_of_char(label, m: int, a: int | None = None, via: str = "auto") -> int:
    """Smallest c | m with all values of chi_label in Q(zeta_c).

    via="values": sweep divisors testing Galois fixedness of the label's row
    of the table (requires building the full table).
    via="label": use the component-permutation stabilizer of the label; this
    rests on the relabeling equivariance, which is itself value-tested on all
    small tables.
    via="auto": values when C_m wr S_a has at most VALUES_ROUTE_MAX_LABELS
    characters (counted, not listed), label otherwise.
    """
    label, a = _check_label(label, m, a)
    fixed = _label_fixed(label, m, a, unit_residues(m), via)
    return int(conductors_from_fixedness(fixed, m)[0])


def h_d_invariant(label, m: int, a: int | None = None, d: int = 1, via: str = "auto") -> bool:
    """Whether chi_label is fixed by every sigma_k with k = 1 mod d.

    The subgroup is {k in (Z/NZ)^x : k = 1 mod d} at the common modulus
    N = lcm(m, d); its residues act on Q(zeta_m) through their reductions
    mod m.  ``via`` as in :func:`conductor_of_char`.
    """
    label, a = _check_label(label, m, a)
    return bool(_label_fixed(label, m, a, _hd_residues(m, d), via).all())


# ---------------------------------------------------------------------------
# orthogonality validation (exact, vectorized through float64 integer matmuls)
# ---------------------------------------------------------------------------


def _exactness_guard(table: WreathTable) -> None:
    bound = float(np.abs(table.raw).max())
    group_order = table.m**table.a * math.factorial(table.a)
    if group_order * (table.m * max(bound, 1.0)) ** 2 >= 2**53:
        raise AssertionError("orthogonality sums would exceed exact float range")


def verify_orthogonality(m: int, a: int) -> bool:
    """Row and column orthogonality of the full table, in exact arithmetic.

    The group-ring coefficient arrays are integer matrices; the bilinear sums
    are accumulated with float64 matmuls kept inside the exact-integer range
    (guarded), then reduced modulo the cyclotomic polynomial and compared with
    the expected right-hand sides.
    """
    table = get_table(m, a)
    _exactness_guard(table)
    raw = table.raw.astype(np.float64)
    L, C, _ = raw.shape
    sizes = np.array(table.class_sizes, dtype=np.float64)
    group_order = m**a * math.factorial(a)
    # conjugate: negate exponents mod m.  Coefficient-axis-first contiguous
    # copies keep the per-slice matmuls below on the fast BLAS path.
    conj = np.ascontiguousarray(raw[:, :, (-np.arange(m)) % m].transpose(2, 0, 1))
    weighted = np.ascontiguousarray(
        (raw * sizes[None, :, None]).transpose(2, 0, 1)
    )
    raw = np.ascontiguousarray(raw.transpose(2, 0, 1))
    # rows: sum_g ( sum_c sizes[c] chi_i(c)_e chibar_j(c)_f ) with e+f = g
    R = np.array(_reduction_rows(m), dtype=np.float64)
    row_sums = np.zeros((L, L, R.shape[1]))
    for e in range(m):
        for f in range(m):
            g = (e + f) % m
            block = weighted[e] @ conj[f].T
            row_sums += block[:, :, None] * R[g][None, None, :]
    expected_rows = np.zeros_like(row_sums)
    expected_rows[np.arange(L), np.arange(L), 0] = group_order
    if not np.array_equal(row_sums, expected_rows):
        return False
    # columns: sum_i chi_i(c) chibar_i(c'): expected centralizer_order * delta
    col_sums = np.zeros((C, C, R.shape[1]))
    for e in range(m):
        for f in range(m):
            g = (e + f) % m
            block = raw[e].T @ conj[f]
            col_sums += block[:, :, None] * R[g][None, None, :]
    expected_cols = np.zeros_like(col_sums)
    for c in range(C):
        expected_cols[c, c, 0] = table.classes[c].centralizer_order(m)
    return np.array_equal(col_sums, expected_cols)


def sum_of_degree_squares(m: int, a: int) -> int:
    table = get_table(m, a)
    return int(sum(d * d for d in table.degrees))


# ---------------------------------------------------------------------------
# the index-2 subgroup G(m,2,a) and Clifford restriction
# ---------------------------------------------------------------------------


def twist_label(label, m: int):
    """Tensoring with the sign-of-color-sum linear character shifts components
    by m/2."""
    if m % 2 != 0:
        raise ValueError("twist requires even m")
    half = m // 2
    return tuple(label[(j + half) % m] for j in range(m))


def _make_mul(m: int):
    def mul(x, y):
        (f, sigma), (g, tau) = x, y
        a = len(f)
        sigma_inv = [0] * a
        for i, img in enumerate(sigma):
            sigma_inv[img] = i
        h = tuple((f[i] + g[sigma_inv[i]]) % m for i in range(a))
        comp = tuple(sigma[tau[i]] for i in range(a))
        return (h, comp)

    return mul


def colored_type(element, m: int) -> WreathClass:
    """Colored cycle type of (f, sigma): cycle lengths with color = sum of f."""
    f, sigma = element
    a = len(f)
    seen = [False] * a
    cycles = []
    for start in range(a):
        if seen[start]:
            continue
        length = 0
        color = 0
        i = start
        while not seen[i]:
            seen[i] = True
            color += f[i]
            i = sigma[i]
            length += 1
        cycles.append((length, color % m))
    return WreathClass(cycles)


@lru_cache(maxsize=None)
def get_full_group(m: int, a: int) -> FiniteGroup:
    """C_m wr S_a as an explicit group of (color vector, permutation) pairs."""
    if m < 1 or a < 1:
        raise ValueError("need m >= 1 and a >= 1")
    mul = _make_mul(m)
    elements = [
        (f, sigma)
        for f in itertools.product(range(m), repeat=a)
        for sigma in itertools.permutations(range(a))
    ]
    identity = (tuple([0] * a), tuple(range(a)))
    gens = []
    if m > 1:
        gens.append((tuple([1] + [0] * (a - 1)), tuple(range(a))))
    for i in range(a - 1):
        perm = list(range(a))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append((tuple([0] * a), tuple(perm)))
    if not gens:
        gens = [identity]
    return FiniteGroup(elements, mul, identity, generators=gens, name=f"C{m}wrS{a}")


@lru_cache(maxsize=None)
def get_subgroup(m: int, a: int) -> FiniteGroup:
    """G(m,2,a) as an explicit group: color vectors with even sum."""
    if m % 2 != 0:
        raise ValueError("G(m,2,a) requires even m")
    if a < 1:
        raise ValueError("a must be at least 1")
    mul = _make_mul(m)
    elements = [
        (f, sigma)
        for f in itertools.product(range(m), repeat=a)
        if sum(f) % 2 == 0
        for sigma in itertools.permutations(range(a))
    ]
    identity = (tuple([0] * a), tuple(range(a)))
    gens = []
    vec = [0] * a
    vec[0] = 2 % m
    if any(vec):
        gens.append((tuple(vec), tuple(range(a))))
    if a >= 2:
        vec = [0] * a
        vec[0], vec[1] = 1, 1
        gens.append((tuple(vec), tuple(range(a))))
        for i in range(a - 1):
            perm = list(range(a))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            gens.append((tuple([0] * a), tuple(perm)))
    if not gens:
        gens = [identity]
    return FiniteGroup(elements, mul, identity, generators=gens, name=f"G({m},2,{a})")


@lru_cache(maxsize=None)
def get_subgroup_table(m: int, a: int) -> CharacterTable:
    return CharacterTable.dixon(get_subgroup(m, a))


@dataclass(frozen=True)
class IndexTwoConstituent:
    """One irreducible constituent of a restriction to G(m,2,a)."""

    orbit: tuple  # canonical wreath label of the orbit {label, twisted label}
    tag: str  # "full" for irreducible restrictions, "plus"/"minus" for splits
    degree: int
    multiplicity: int
    values: tuple | None = None  # values on subgroup classes (splits only)


def restrict_index2(label, m: int, a: int | None = None) -> list[IndexTwoConstituent]:
    """Decompose the restriction of chi_label to G(m,2,a) (m even).

    A label moved by the m/2-component shift restricts irreducibly; a fixed
    label splits into two constituents.  The split pieces are located inside
    an independently computed exact table of the subgroup by inner products;
    "plus" is the constituent whose serialized value row is lexicographically
    smaller at the first subgroup class where the two differ.
    """
    if m % 2 != 0:
        raise ValueError("restriction target G(m,2,a) requires even m")
    label = tuple(p if isinstance(p, Partition) else Partition(p) for p in label)
    total = sum(p.size for p in label)
    if a is not None and a != total:
        raise ValueError(f"a = {a} does not match label size {total}")
    a = total
    twisted = twist_label(label, m)
    deg = degree(label)
    if twisted != label:
        orbit = min(label, twisted, key=_label_sort_key)
        return [IndexTwoConstituent(orbit, "full", deg, 1)]
    sub_table = get_subgroup_table(m, a)
    sub_group = sub_table.group
    # chi restricted to subgroup classes, via the parent colored type
    parent = get_table(m, a)
    chi_values = []
    for rep in sub_table.class_reps:
        cls = colored_type(rep, m)
        chi_values.append(
            parent.value(parent.label_index[label], parent.class_index[cls.cycles])
        )
    found = []
    for psi in sub_table.characters:
        acc = CyclotomicNumber.zero()
        for k in range(sub_table.num_classes):
            acc = acc + sub_table.class_sizes[k] * chi_values[k] * psi[k].conjugate()
        mult = acc / sub_group.order
        if not mult.is_rational():
            raise AssertionError("non-rational inner product")
        mult_q = mult.rational_value()
        if mult_q.denominator != 1 or mult_q < 0:
            raise AssertionError(f"bad multiplicity {mult_q}")
        if mult_q:
            found.append((psi, int(mult_q)))
    if [mlt for _, mlt in found] != [1, 1]:
        raise AssertionError(
            f"twist-fixed restriction did not split into two: {found}"
        )
    (psi1, _), (psi2, _) = found
    k0 = next(
        k
        for k in range(sub_table.num_classes)
        if psi1[k].to_dict() != psi2[k].to_dict()
    )
    if _value_key(psi2[k0]) < _value_key(psi1[k0]):
        psi1, psi2 = psi2, psi1
    assert psi1[0].rational_value() + psi2[0].rational_value() == deg
    return [
        IndexTwoConstituent(label, "plus", int(psi1[0].rational_value()), 1, tuple(psi1)),
        IndexTwoConstituent(label, "minus", int(psi2[0].rational_value()), 1, tuple(psi2)),
    ]


def _label_sort_key(label):
    return tuple(p.parts for p in label)


def _value_key(x: CyclotomicNumber):
    return tuple(
        (e, c.numerator, c.denominator) for e, c in sorted(x.coeffs.items())
    )
