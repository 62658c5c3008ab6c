"""Exact character tables of explicit finite groups.

The construction is the classical Burnside-Dixon method: simultaneous
eigenvectors of the class-multiplication matrices over a prime field F_p with
p = 1 mod exponent(G) and p > 2|G|, followed by an exact lift of each value
through the discrete Fourier sum over powers of the class representative.
All lifted values are cyclotomic numbers; orthogonality can then be verified
in exact arithmetic, independently of how a character table was predicted.

Groups are colored-permutation arrays (``ColoredPermGroup``): every group
the package builds is a subgroup of some C_m wr S_n, stored as a
permutation array and a color array with one row per element, in the order
of the sorted native elements.  Classes, inverses, element orders, the
powers of the class representatives and the class-multiplication matrices
all come from array gathers and ``np.searchsorted`` on integer row keys,
never from a multiplication of two elements in Python.  Each such pass over
every element (inverses, conjugation maps, the products behind the greedy
generators and the class matrices) runs over row chunks
(``cyclotomic._row_chunks``) sized for the int64 arrays a row lookup holds
at once, and writes into one preallocated row or count array.  The builders in
``weyl`` and ``wreath`` refuse a group above ``MAX_GROUP_ORDER`` from its
closed-form order, before any element is listed.

The F_p linear algebra runs on numpy int64 arrays.  Each simultaneous
eigenspace is kept as a basis in reduced row echelon form with its pivot
columns, so the coordinates of a class-matrix image in that basis are its
entries at the pivots; the construction checks that those coordinates
rebuild the image and raises AssertionError if they do not.  A space on
which a class matrix acts as a scalar is kept as it is.  The first split is
made once, by a seed combination sum_i z^i M_i of the smallest classes (z
the field's primitive root; Schneider, "Dixon's character table algorithm
revisited", J. Symb. Comput. 9, 1990), built in one pass over their rows;
the class matrices, one at a time, then split only what it left.  Each
space also keeps the component u in it of the identity-class row
e_0 = sum_chi (chi(1)^2/|G|) omega_chi, whose coefficients are nonzero mod
p since p > 2|G|.  A split reads the components of u in the new spaces off
one Krylov pass (u A^e) and the Lagrange basis of the roots; for a simple
root that component is omega_chi times chi(1)^2/|G|, so dividing it by its
entry at the identity class gives the normalized eigenvector with no
elimination.  Only a repeated root takes a nullspace and an RREF.  The
degrees found from the norms of the omega_chi are checked against
u[0] |G| = chi(1)^2 mod p.  Every kernel reduces mod p after at most
max(r, exponent) products of two residues, and the construction refuses up
front (OverflowError) a field in which that sum could leave int64.  The
lift to exact values is one matmul per class with the discrete Fourier
matrix of the representative's order.

``CharacterTable`` is the one exact table class: Dixon builds one, and
``wreath.WreathTable`` is one.  It keeps its values as ``raw``, an (L, C, N)
integer array over Z[t]/(t^N - 1) (N = exponent(G) for Dixon, m for
C_m wr S_a): entry [i, j, e] is the multiplicity of zeta_N^e in the value of
character i at class j.  ``raw`` is compact and read-only: its dtype is the
smallest signed integer type that holds -peak - 1, peak = max|entry|
(``_compact_dtype``; int8 for every table of the default grids).  Dixon
lifts its values straight into that type: every lifted multiplicity is
checked against its character's degree before it is written, and the
largest degree is the table's peak.  No pass does arithmetic in the narrow
type.  Conductors and H_d-fixedness read one
``cyclotomic.galois_fixed_rows`` pass over every unit mod N, made once per
table.  Both orthogonality relations run on the same split-prime
evaluations: one mod-p product per pair of embeddings {j, -j} and prime,
the primes' product above twice the coordinate bound (``_orthogonal``).
Cyclotomic values are read from ``raw`` in Q(zeta_o), o the order of
their column, only when asked for.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .cyclotomic import (
    CyclotomicNumber,
    _column_orders,
    _matmul_mod,
    _peak,
    _reduction_matrix,
    _row_chunks,
    _split_primes,
    conductors_from_fixedness,
    evaluate,
    galois_fixed_rows,
    split_prime,
    unit_residues,
)
from .ladic import hd_residues


# Explicit groups above this order are refused before any element is listed
# (ValueError).  The default suites build groups of order at most 3840
# (W(B5)); W(B6), of order 46080, passes and W(B7), of order 645120, does not.
MAX_GROUP_ORDER = 10**5


# A row lookup holds up to this many int64 arrays the shape of its input at
# once (the composed pair, its digits, keys and positions), so the group
# passes hand ``rows`` chunks of at most _CHUNK_ENTRIES / _ROW_ARRAYS points.
_ROW_ARRAYS = 16


def _check_group_order(order: int, name: str) -> None:
    """Refuse a group above MAX_GROUP_ORDER, from its order alone."""
    if order > MAX_GROUP_ORDER:
        raise ValueError(
            f"{name} has order {order}, above the cap of {MAX_GROUP_ORDER} "
            "on explicitly listed groups"
        )


def _permutations(n: int) -> np.ndarray:
    """All permutations of range(n), an (n!, n) array in lexicographic order."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64).reshape(-1, n)


def _compose(px, cx, py, cy, m: int):
    """(xy)(j) = x(y(j)) on broadcastable stacks of colored permutations:
    the product's permutation and its colors mod m."""
    return (
        np.take_along_axis(px, py, -1),
        (cy + np.take_along_axis(cx, py, -1)) % m,
    )


class ColoredPermGroup:
    """A finite group of colored permutations, as arrays: a subgroup of
    C_m wr S_n.

    Row g of the (|G|, n) arrays ``perm`` and ``color`` is the monomial map
    e_j -> zeta_m^color[g, j] e_perm[g, j], and (xy)(j) = x(y(j)), so
    multiplying every row by one element is a single gather.  An encoding
    names the native elements (signed words, (color vector, permutation)
    pairs, or tuples of those): ``digits`` maps
    colored permutations to digit vectors whose lexicographic order is that
    of the native elements, ``encode``/``decode`` convert one element, and
    ``radices`` bound the digits.  A row's key is its digit vector read in
    that mixed radix; rows are sorted by key, i.e. in the order of
    ``sorted(elements)``, and ``rows`` finds any element's row with
    ``np.searchsorted``.

    Everything Dixon needs before its F_p algebra comes from gathers:
    conjugacy classes are orbits of the generators' conjugation maps,
    inverses and element orders come from array powers, and a
    class-multiplication matrix is one gather and one ``np.bincount``.
    Without given generators, a generating set is chosen greedily.
    """

    def __init__(self, perm, color, m: int, encoding, generators=None, name: str = ""):
        radices = encoding.radices
        if math.prod(radices) >= 2**63:
            raise OverflowError("element keys would overflow int64")
        self._place = np.array(
            [math.prod(radices[i + 1 :]) for i in range(len(radices))], dtype=np.int64
        )
        self.m, self.encoding, self.name = m, encoding, name
        perm = np.asarray(perm, dtype=np.int64)
        color = np.asarray(color, dtype=np.int64) % m
        keys = self._keys(perm, color)
        order = np.argsort(keys, kind="stable")
        self.perm, self.color, self.keys = perm[order], color[order], keys[order]
        if (self.keys[1:] == self.keys[:-1]).any():
            raise ValueError("duplicate elements")
        n = perm.shape[1]
        self.identity = int(self.rows(np.arange(n), np.zeros(n, dtype=np.int64)))
        self._generators = (
            None if generators is None
            else [int(self.rows(*encoding.encode(g))) for g in generators]
        )
        self._classes = None
        self.class_of = None  # row -> class index, set with the classes
        self._inverses = None
        self._elements = None

    @property
    def order(self) -> int:
        return len(self.keys)

    def _keys(self, perm, color) -> np.ndarray:
        return self.encoding.digits(perm, color) @ self._place

    def rows(self, perm, color) -> np.ndarray:
        """The row of each colored permutation along the last axis;
        ValueError if one is not in the group."""
        keys = self._keys(np.asarray(perm), np.asarray(color) % self.m)
        idx = np.searchsorted(self.keys, keys)
        if not (self.keys[np.minimum(idx, self.order - 1)] == keys).all():
            raise ValueError(f"not an element of {self.name or 'the group'}")
        return idx

    def element(self, g: int):
        """Row g as a native element."""
        return self.encoding.decode(self.perm[g], self.color[g])

    @property
    def elements(self) -> list:
        """Every row as a native element, sorted."""
        if self._elements is None:
            self._elements = [self.element(g) for g in range(self.order)]
        return self._elements

    def product(self, x, y) -> np.ndarray:
        """Rows of the products of rows x and y (broadcast)."""
        x, y = np.broadcast_arrays(np.asarray(x), np.asarray(y))
        shape, x, y = x.shape, x.ravel(), y.ravel()

        def product_rows(s):
            xs, ys = x[s], y[s]
            return self.rows(
                *_compose(self.perm[xs], self.color[xs], self.perm[ys], self.color[ys], self.m)
            )

        return self._chunked_rows(x.size, product_rows).reshape(shape)

    def _chunked_rows(self, count: int, rows_of) -> np.ndarray:
        """``rows_of(s)`` for the row chunks s of range(count), written into
        one int64 array; a chunk of colored permutations of n points has at
        most _CHUNK_ENTRIES / (_ROW_ARRAYS n) rows."""
        out = np.empty(count, dtype=np.int64)
        for s in _row_chunks(count, _ROW_ARRAYS * self.perm.shape[1]):
            out[s] = rows_of(s)
        return out

    def subgroup(self, rows, name: str = "") -> "ColoredPermGroup":
        """The subgroup on the given rows, in the same encoding."""
        return ColoredPermGroup(self.perm[rows], self.color[rows], self.m, self.encoding, name=name)

    def inverses(self) -> np.ndarray:
        """Row of the inverse of every row."""
        if self._inverses is None:

            def inverse_rows(s):
                pinv = np.argsort(self.perm[s], axis=1)
                return self.rows(pinv, -np.take_along_axis(self.color[s], pinv, 1))

            self._inverses = self._chunked_rows(self.order, inverse_rows)
        return self._inverses

    def powers(self, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """(table, orders) for the given rows (every row by default):
        orders[k] is the order of g = rows[k], and table[k, e] is the row of
        g^e for e < orders[k] (later columns run on around the cycle)."""
        rows = np.arange(self.order) if rows is None else np.asarray(rows)
        p, c = self.perm[rows], self.color[rows]
        columns = [np.full(len(rows), self.identity)]
        orders = np.zeros(len(rows), dtype=np.int64)
        acc_p, acc_c = p, c
        while not orders.all():
            col = self.rows(acc_p, acc_c)
            orders[(orders == 0) & (col == self.identity)] = len(columns)
            columns.append(col)
            acc_p, acc_c = _compose(acc_p, acc_c, p, c, self.m)
        return np.stack(columns[:-1], axis=1), orders

    @property
    def generators(self) -> list[int]:
        if self._generators is None:
            self._generators = self._greedy_generators()
        return self._generators

    def _greedy_generators(self) -> list[int]:
        """The smallest row outside the span of the rows chosen so far,
        until the span is the group; the span grows by one gather per
        chosen row (right multiplication)."""
        span = np.zeros(self.order, dtype=bool)
        span[self.identity] = True
        gens, maps = [], []
        every = np.arange(self.order)
        while not span.all():
            gens.append(int(np.argmin(span)))
            maps.append(self.product(every, gens[-1]))
            frontier = np.flatnonzero(span)
            while frontier.size:
                hit = np.zeros(self.order, dtype=bool)
                for mp in maps:
                    hit[mp[frontier]] = True
                frontier = np.flatnonzero(hit & ~span)
                span[frontier] = True
        return gens or [self.identity]

    def _conjugation_map(self, t: int) -> np.ndarray:
        """Row of t x t^-1 for every row x."""
        pt, ct = self.perm[t], self.color[t]
        pti = np.argsort(pt)

        def conjugate_rows(s):
            p = self.perm[s]
            return self.rows(pt[p][:, pti], (self.color[s] + ct[p])[:, pti] - ct[pti])

        return self._chunked_rows(self.order, conjugate_rows)

    def conjugacy_classes(self) -> list[np.ndarray]:
        """Classes as ascending row arrays: the identity class first, the
        rest by (size, smallest row), i.e. by size and smallest element.
        Each row takes the smallest row of its orbit under the generators'
        conjugation maps, by propagating minima along the maps."""
        if self._classes is None:
            maps = [self._conjugation_map(t) for t in self.generators]
            label = np.arange(self.order)
            while True:
                prev = label
                for mp in maps:
                    label = np.minimum(label, label[mp])
                label = label[label]
                if np.array_equal(label, prev):
                    break
            reps, where, sizes = np.unique(label, return_inverse=True, return_counts=True)
            ranked = np.lexsort((reps, sizes, reps != self.identity))
            rank = np.empty_like(ranked)
            rank[ranked] = np.arange(len(reps))
            self.class_of = rank[where]
            members = np.argsort(self.class_of, kind="stable")
            self._classes = np.split(members, np.cumsum(sizes[ranked])[:-1])
        return self._classes

    def class_matrix(self, i: int) -> np.ndarray:
        """(M_i)_{jk} = #{x in C_i : x^-1 rep_k in C_j}, rep_k the smallest
        row of class k."""
        return self.class_combination([i], [1])

    def class_combination(self, classes, weights) -> np.ndarray:
        """sum_t weights[t] M_{classes[t]} as int64, in one pass over the
        rows of those classes: their inverses times every representative, a
        chunk of rows at a time, counted by a weighted ``np.bincount``.  The
        float64 counts are exact while |G| max(weights) < 2^53, which is
        checked up front (OverflowError)."""
        if self.order * max(weights) >= 2**53:
            raise OverflowError("weighted class counts leave the exact float64 range")
        classes_all = self.conjugacy_classes()
        r = len(classes_all)
        reps = np.array([c[0] for c in classes_all])
        x = self.inverses()[np.concatenate([classes_all[i] for i in classes])]
        w = np.repeat(np.asarray(weights, dtype=np.float64), [len(classes_all[i]) for i in classes])
        counts = np.zeros(r * r, dtype=np.int64)
        for s in _row_chunks(len(x), _ROW_ARRAYS * r * self.perm.shape[1]):
            hits = self.class_of[self.product(x[s, None], reps)]
            counts += np.bincount(
                (hits * r + np.arange(r)).ravel(), np.repeat(w[s], r), minlength=r * r
            ).astype(np.int64)
        return counts.reshape(r, r)


# ---------------------------------------------------------------------------
# linear algebra over F_p, on int64 arrays
# ---------------------------------------------------------------------------


def _check_int64(n: int, p: int) -> None:
    """Refuse a field whose residues could overflow int64 in these kernels.

    Every kernel reduces mod p after summing at most n products of two
    residues in [0, p), so n * p^2 < 2^63 keeps all intermediates exact.
    """
    if n * p * p >= 2**63:
        raise OverflowError(
            f"sums of {n} products mod {p} overflow int64 (need n*p^2 < 2^63)"
        )


def _rref(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of M over F_p: its nonzero rows and their
    pivot columns."""
    R = np.array(M, dtype=np.int64) % p
    n_rows, n_cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nonzero = R[r:, c].nonzero()[0]
        if nonzero.size == 0:
            continue
        piv = r + int(nonzero[0])
        if piv != r:
            R[[r, piv]] = R[[piv, r]]
        R[r] = R[r] * pow(int(R[r, c]), -1, p) % p
        factors = R[:, c].copy()
        factors[r] = 0
        R -= factors[:, None] * R[r]
        R %= p
        pivots.append(c)
        r += 1
    return R[:r], pivots


def _nullspace(M: np.ndarray, p: int) -> np.ndarray:
    """Basis of the kernel of M over F_p, one vector per row: the free
    columns of the RREF in increasing order, each set to 1 in turn."""
    R, pivots = _rref(M, p)
    n = M.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-R[:, free]).T % p
    return basis


def _charpoly(A: np.ndarray, p: int) -> list[int]:
    """Characteristic polynomial of A over F_p (Faddeev-LeVerrier, needs
    n < p), lowest coefficient first."""
    n = A.shape[0]
    coeffs = [0] * n + [1]
    Mk = np.eye(n, dtype=np.int64)
    for k in range(1, n + 1):
        N = A @ Mk % p
        c = -pow(k, -1, p) * int(N.trace()) % p
        coeffs[n - k] = c
        Mk = N
        Mk.flat[:: n + 1] += c
        Mk %= p
    return coeffs


def _poly_roots(coeffs: Sequence[int], p: int) -> list[int]:
    """All roots in F_p of the polynomial (lowest-first coeffs), by one
    Horner pass over every residue."""
    x = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        acc *= x
        acc += int(c)
        acc %= p
    return np.flatnonzero(acc == 0).tolist()


def _lagrange_basis(roots: Sequence[int], p: int) -> np.ndarray:
    """(s, s) array over F_p: row t holds the coefficients, lowest first, of
    the Lagrange polynomial of the s distinct roots that is 1 at roots[t]
    and 0 at the others.  P(x)/(x - roots[t]) comes from one synthetic
    division of P = prod (x - root), vectorized over t, and its value at
    roots[t] is the denominator."""
    s = len(roots)
    lam = np.array(roots, dtype=np.int64)
    P = np.array([1], dtype=np.int64)
    for a in roots:
        P = (np.concatenate(([0], P)) - a * np.concatenate((P, [0]))) % p
    Q = np.zeros((s, s), dtype=np.int64)
    if s:
        Q[:, s - 1] = 1
    for j in range(s - 1, 0, -1):
        Q[:, j - 1] = (P[j] + lam * Q[:, j]) % p
    at_root = np.zeros(s, dtype=np.int64)
    for j in range(s - 1, -1, -1):
        at_root = (at_root * lam + Q[:, j]) % p
    inverses = np.array([pow(int(v), -1, p) for v in at_root], dtype=np.int64)
    return Q * inverses[:, None] % p


def _split_space(B: np.ndarray, pivots: list[int], u: np.ndarray, A: np.ndarray, p: int) -> list:
    """Split the span of B (RREF rows, pivot columns ``pivots``) into the
    eigenspaces of A, which acts on coordinates by c -> c A, one per root in
    F_p of its characteristic polynomial, ascending; ``u`` is a vector of
    the span.  Each new space is (RREF rows, pivots, component of u in it):
    the components are u L_t(A), one Krylov pass over u's coordinates
    (u A^e for e < s) times the Lagrange basis of the s roots.  A simple
    root's eigenspace is its component divided by its entry at column 0
    (AssertionError when that is 0); a repeated root's is the RREF of the
    kernel of A - lam.  A that is not diagonalizable over F_p loses
    dimensions here, which the caller checks."""
    c = u[pivots]
    if not np.array_equal(c @ B % p, u):
        raise AssertionError("identity-class component leaves its eigenspace")
    charpoly = _charpoly(A, p)
    roots = _poly_roots(charpoly, p)
    krylov = np.empty((len(roots), len(pivots)), dtype=np.int64)
    for e in range(len(roots)):
        krylov[e] = krylov[e - 1] @ A % p if e else c
    parts = _lagrange_basis(roots, p) @ krylov % p @ B % p
    # the derivative of the charpoly at each root: nonzero iff the root is simple
    slope = np.zeros(len(roots), dtype=np.int64)
    x = np.array(roots, dtype=np.int64)
    for e in range(len(charpoly) - 1, 0, -1):
        slope = (slope * x + e * charpoly[e]) % p
    out = []
    eye = np.eye(len(pivots), dtype=np.int64)
    for lam, part, simple in zip(roots, parts, slope != 0):
        if simple:
            if part[0] == 0:
                raise AssertionError("eigenvector vanishes on the identity class")
            out.append((part[None] * pow(int(part[0]), -1, p) % p, [0], part))
        else:
            out.append((*_rref(_nullspace((A.T - lam * eye) % p, p) @ B % p, p), part))
    return out


def _refine(spaces: list, M_T: np.ndarray, p: int) -> list:
    """Split every space of dimension above 1 by the matrix acting as
    v -> v M_T (``_split_space``); a space on which it acts as a scalar is
    kept as it is.  AssertionError if the coordinates of an image do not
    rebuild it, or if the split loses dimensions."""
    new_spaces = []
    for B, pivots, u in spaces:
        if len(pivots) == 1:
            new_spaces.append((B, pivots, u))
            continue
        images = B @ M_T % p
        A = images[:, pivots]  # row j: coordinates of the image of b_j
        if not np.array_equal(A @ B % p, images):
            raise AssertionError("class matrix leaves an eigenspace")
        if (A == A[0, 0] * np.eye(len(pivots), dtype=np.int64)).all():
            new_spaces.append((B, pivots, u))
        else:
            new_spaces += _split_space(B, pivots, u, A, p)
    if sum(len(pivots) for _, pivots, _ in new_spaces) != M_T.shape[0]:
        raise AssertionError("eigenspace refinement lost dimensions")
    return new_spaces


# ---------------------------------------------------------------------------
# exact character tables and the Dixon construction
# ---------------------------------------------------------------------------


def _compact_dtype(peak: int) -> np.dtype:
    """The smallest signed integer type that holds -peak - 1, ..., peak:
    int8 up to 127, int16 up to 32767, and so on; OverflowError above
    int64."""
    dtype = np.min_scalar_type(-peak - 1)
    if dtype.kind != "i":
        raise OverflowError(f"table entries up to {peak} do not fit in int64")
    return dtype


class CharacterTable:
    """An exact character table: the values of L characters on C classes,
    with the classes' sizes and element orders and the group order.

    ``raw`` is the (L, C, N) value array over Z[t]/(t^N - 1): entry
    [i, j, e] is the multiplicity of zeta_N^e in character i at class j.
    The constructor stores it read-only in ``_compact_dtype`` of its peak,
    copying only when the given array is wider (a wreath build and Dixon
    hand over an array that is compact already).  Passes over it widen before any
    arithmetic.  The identity class is the class of element order 1,
    wherever it stands; its values are the degrees.  Every whole-table pass
    is defined here once, on ``raw``: the value view, conductors,
    H_d-fixedness, both orthogonality relations and the degree-square sum.
    A table built by :meth:`dixon` also keeps its ``group`` and the
    ``class_reps`` of its columns.
    """

    def __init__(self, raw: np.ndarray, class_sizes, class_orders, order: int):
        raw = np.asarray(raw)
        if raw.dtype.kind not in "iu":
            raise TypeError(f"table values must be integers, got {raw.dtype}")
        raw = raw.astype(_compact_dtype(_peak(raw)), copy=False)
        raw.flags.writeable = False
        self.raw = raw
        self.class_sizes = list(class_sizes)
        self.class_orders = list(class_orders)
        self.order = order
        identity = self.class_orders.index(1)
        if np.any(raw[:, identity, 1:]):
            raise AssertionError("identity-class values must be integers")
        self.degrees = raw[:, identity, 0].tolist()
        self._column_orders = None
        self._unit_fixed = None

    @classmethod
    def dixon(cls, group) -> "CharacterTable":
        """The table of a ColoredPermGroup, with its ``group`` and the
        ``class_reps`` of its columns, identity class first."""
        classes = group.conjugacy_classes()
        r = len(classes)
        sizes = [len(c) for c in classes]
        rep_rows = np.array([c[0] for c in classes])
        n_g = group.order
        powers, orders = group.powers(rep_rows)
        rep_orders = orders.tolist()
        exponent = math.lcm(*rep_orders)

        # prime field: p = 1 mod exponent, p > 2|G|
        p, z = split_prime(exponent, 2 * n_g)
        _check_int64(max(r, exponent), p)
        class_of = group.class_of
        inv_class = class_of[group.inverses()[rep_rows]]

        # Split the simultaneous eigenspaces.  Each space is an RREF basis
        # (rows) with its pivot columns, so the coordinates of a vector of
        # the span are its entries at the pivots, and the component u in it
        # of the identity-class row e_0 = sum_chi (chi(1)^2/|G|) omega_chi.
        # The seed, sum_i z^i M_i over the classes 1 <= i < t (the smallest,
        # up to 8r elements with the identity, and at least one), splits F_p^r
        # once; the class matrices then split what it left.
        e_0 = np.zeros(r, dtype=np.int64)
        e_0[0] = 1
        spaces = [(np.eye(r, dtype=np.int64), list(range(r)), e_0)]
        if r > 1:
            t = max(2, int(np.searchsorted(np.cumsum(sizes), 8 * r, "right")))
            seed = group.class_combination(range(1, t), [pow(z, i, p) for i in range(1, t)])
            spaces = _refine(spaces, seed.T % p, p)
        for i in range(1, r):
            if all(len(pivots) == 1 for _, pivots, _ in spaces):
                break
            spaces = _refine(spaces, group.class_matrix(i).T % p, p)
        if not all(len(pivots) == 1 for _, pivots, _ in spaces):
            raise AssertionError("class matrices failed to separate characters")

        # An RREF row is normalized at its pivot: omega(identity) = 1 exactly
        # when the pivot is the identity class.
        if any(pivots != [0] for _, pivots, _ in spaces):
            raise AssertionError("eigenvector vanishes on the identity class")
        omegas = np.array([B[0] for B, _, _ in spaces], dtype=np.int64)

        # degrees and values mod p: chi(1)^2 = |G| / sum_k omega_k omega_k' / |C_k|,
        # and independently chi(1)^2 = |G| u[0], u = (chi(1)^2/|G|) omega_chi
        inv_sizes = np.array([pow(s, -1, p) for s in sizes], dtype=np.int64)
        norms = (omegas * omegas[:, inv_class] % p) @ inv_sizes % p
        if not norms.all():
            raise AssertionError("eigenvector has norm 0 mod p")
        squares = np.arange(1, math.isqrt(n_g) + 1, dtype=np.int64) ** 2 % p
        degrees = []
        for s in norms.tolist():
            match = np.flatnonzero(squares == n_g * pow(s, -1, p) % p)
            if match.size == 0:
                raise AssertionError("no integer degree matches mod p")
            degrees.append(int(match[0]) + 1)
        deg_col = np.array(degrees, dtype=np.int64)[:, None]
        if any((n_g * int(u[0]) - d * d) % p for (_, _, u), d in zip(spaces, degrees)):
            raise AssertionError("identity-class component disagrees with the degree")
        rows_mod_p = deg_col * omegas % p * inv_sizes % p

        # exact lift: the multiplicity of w^j on <g> is a Fourier sum over
        # the values at the powers of g, one matmul per class; it is the
        # coefficient of zeta_N^{jN/o} in the raw layout over Z[t]/(t^N - 1)
        raw = np.zeros((r, r, exponent), dtype=_compact_dtype(max(degrees)))
        dft: dict[int, np.ndarray] = {}
        for ci, o in enumerate(rep_orders):
            power_classes = class_of[powers[ci, :o]]
            if o not in dft:
                w = pow(z, (p - 1) // o, p)
                w_powers = np.array([pow(w, e, p) for e in range(o)], dtype=np.int64)
                e = np.arange(o)
                dft[o] = w_powers[-np.outer(e, e) % o] * pow(o, -1, p) % p
            mults = rows_mod_p[:, power_classes] @ dft[o] % p
            if (mults > deg_col).any():
                raise AssertionError("lifted multiplicity exceeds the degree bound")
            raw[:, ci, :: exponent // o] = mults

        # rows by degree, then by the power-basis coordinates of their values
        keys = _row_keys(raw, rep_orders)
        order = sorted(range(r), key=lambda i: (degrees[i], keys[i]))
        table = cls(raw[order], sizes, rep_orders, n_g)
        table.group = group
        table.class_reps = [group.element(g) for g in rep_rows]
        return table

    # -- the value view ------------------------------------------------------

    @property
    def column_orders(self) -> list[int]:
        """Per class, the least o | N such that every nonzero coefficient of
        the column sits at a multiple of N/o (``cyclotomic._column_orders``).
        On a Dixon table that is the order of the class: its coefficients
        are eigenvalue multiplicities, and some character (a constituent of
        the regular one) has a primitive o-th root there.  On C_m wr S_a it
        divides m.  Computed on first read."""
        if self._column_orders is None:
            self._column_orders = _column_orders(self.raw).tolist()
        return self._column_orders

    def value(self, i: int, j: int) -> CyclotomicNumber:
        """The value of character i at class j, written in Q(zeta_o) for o
        the order of column j; the coefficients leave ``raw`` as Python
        integers."""
        o = self.column_orders[j]
        coeffs = self.raw[i, j, :: self.raw.shape[2] // o].tolist()
        return CyclotomicNumber(o, {e: c for e, c in enumerate(coeffs) if c})

    # -- Galois fixedness, one pass over the whole table -------------------

    def fixed_by(self, ks) -> np.ndarray:
        """(len(ks), L) bools: whether sigma_k fixes each character, for
        units k mod N.  Read off the fixedness under every unit mod N, one
        ``galois_fixed_rows`` pass made on first use; ValueError for a k
        that is not a unit mod N."""
        n = self.raw.shape[2]
        units = unit_residues(n)
        if self._unit_fixed is None:
            self._unit_fixed = galois_fixed_rows(self.raw, units)
        at = {k: t for t, k in enumerate(units)}
        rows = [at.get(k % n) for k in ks]
        if None in rows:
            raise ValueError(f"not all of {list(ks)} are units mod {n}")
        return self._unit_fixed[rows]

    def conductors(self) -> np.ndarray:
        """Per character, the smallest c with all its values in Q(zeta_c)."""
        n = self.raw.shape[2]
        return conductors_from_fixedness(self.fixed_by(unit_residues(n)), n)

    def hd_fixed_rows(self, d: int) -> np.ndarray:
        """Per character, whether every sigma_k with k = 1 mod d fixes all
        its values (H_d at the modulus lcm(N, d), whose residues mod N are
        units); ValueError unless d >= 1."""
        return self.fixed_by(hd_residues(self.raw.shape[2], d)).all(axis=0)

    # -- exact verification ------------------------------------------------

    def verify_row_orthogonality(self) -> bool:
        """Whether sum_c |c| chi_i(c) conj(chi_j(c)) = |G| delta_ij (``_orthogonal``)."""
        return _orthogonal(self.raw, self.class_sizes, [self.order] * self.raw.shape[0])

    def verify_column_orthogonality(self) -> bool:
        """Whether sum_i chi_i(c) conj(chi_i(c')) = |G| / |c| delta_cc' (``_orthogonal``)."""
        if any(self.order % size for size in self.class_sizes):
            return False
        centralizers = [self.order // s for s in self.class_sizes]
        return _orthogonal(self.raw.transpose(1, 0, 2), [1] * self.raw.shape[0], centralizers)

    def sum_of_degree_squares(self) -> int:
        return sum(d * d for d in self.degrees)


def _conjugate_evaluations(values: np.ndarray, weights, bound: int):
    """Yield (p, w, M) per prime of ``_split_primes(N, bound)`` and unit j of
    each pair {j, -j} mod N: w = z^((p-1)j/N) is the image of zeta_N, M[x, y]
    that of sum_k weights[k] values[x, k] conj(values[y, k]), one product of
    the evaluations at j with those at -j (conjugation is sigma_{-1})."""
    X, K, n = values.shape
    units = unit_residues(n)
    for p, z in _split_primes(n, bound):
        E = np.empty((len(units), X, K))
        for rows in _row_chunks(X, K * n):
            E[:, rows] = evaluate(values[rows], p, z).transpose(2, 0, 1)
        weighted = np.array([int(w) % p for w in weights], dtype=np.float64)
        for t, j in enumerate(units):
            if 2 * j <= n:
                M = _matmul_mod(E[t] * weighted % p, E[units.index(-j % n)].T, p)
                yield p, pow(z, (p - 1) // n * j, p), M


def _orthogonal(values: np.ndarray, weights, diagonal) -> bool:
    """Whether sum_k weights[k] values[x, k] conj(values[y, k]) = diagonal[x]
    delta_xy exactly.  The difference has coordinates at most B = N max|R_N|
    (total + max diagonal), total = N sum_k |weights[k]| peak_k^2, so it is
    zero iff it vanishes mod primes whose product exceeds 2B (no CRT).
    total >= 2^53 or N total max|R_N| >= 2^63 is refused up front."""
    n = values.shape[2]
    largest = int(np.abs(_reduction_matrix(n)).max())
    total = n * sum(abs(int(w)) * _peak(values[:, k]) ** 2 for k, w in enumerate(weights))
    if total >= 2**53 or n * total * largest >= 2**63:
        raise OverflowError(f"conjugate products mod Phi_{n} refused: bound {total}")
    products = _conjugate_evaluations(values, weights, 2 * n * largest * (total + max(diagonal)))
    return all(np.array_equal(M, np.diag([d % p for d in diagonal])) for p, _, M in products)


def _row_keys(raw: np.ndarray, orders) -> list[tuple]:
    """Per row, the nonzero (exponent, coordinate) pairs of each value in
    the power basis of Q(zeta_o), o the order of its class: the order of
    these keys is the order of the values' canonical serializations.  A
    column's pairs come from ``np.nonzero`` of its reduced block, in row
    order, cut at the row boundaries."""
    L, _, n = raw.shape
    columns = []
    for ci, o in enumerate(orders):
        block = raw[:, ci, :: n // o].astype(np.int64) @ _reduction_matrix(o)
        rows, exps = np.nonzero(block)
        pairs = list(zip(exps.tolist(), block[rows, exps].tolist()))
        cuts = np.searchsorted(rows, np.arange(L + 1)).tolist()
        columns.append([tuple(pairs[a:b]) for a, b in zip(cuts, cuts[1:])])
    return list(zip(*columns))
