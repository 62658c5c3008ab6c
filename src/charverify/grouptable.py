"""Exact character tables of explicit finite groups.

The construction is the classical Burnside-Dixon method: simultaneous
eigenvectors of the class-multiplication matrices over a prime field F_p with
p = 1 mod exponent(G) and p > 2|G|, followed by an exact lift of each value
through the discrete Fourier sum over powers of the class representative.
All lifted values are cyclotomic numbers; orthogonality can then be verified
in exact arithmetic, independently of how a character table was predicted.

The F_p linear algebra runs on numpy int64 arrays.  Each simultaneous
eigenspace is kept as a basis in reduced row echelon form with its pivot
columns, so the coordinates of a class-matrix image in that basis are its
entries at the pivots; the construction checks that those coordinates
rebuild the image and raises AssertionError if they do not.  Every kernel
reduces mod p after at most max(r, exponent) products of two residues, and
the construction refuses up front (OverflowError) a field in which that sum
could leave int64.  The lift to exact values is one matmul per class with
the discrete Fourier matrix of the representative's order.

A table keeps its values as ``raw``, an (L, C, N) int64 array over
Z[t]/(t^N - 1) with N = exponent(G): entry [i, j, e] is the multiplicity of
zeta_N^e in the value of character i at class j.  This is the layout of
``wreath.WreathTable.raw``, so conductors and H_d-fixedness are one pass of
``cyclotomic.galois_fixed_rows`` over either table; ``characters`` (the
values as cyclotomic numbers) is built from ``raw`` only when read.

Groups are given by explicit element sets with a multiplication callable;
elements must be hashable and totally orderable (tuples of ints work).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .cyclotomic import (
    CyclotomicNumber,
    _reduction_matrix,
    row_conductors,
    rows_fixed_by,
)
from .ladic import hd_subgroup, is_prime


class FiniteGroup:
    """An explicit finite group: elements, multiplication, identity."""

    def __init__(
        self,
        elements: Iterable,
        mul: Callable,
        identity,
        generators: Sequence | None = None,
        name: str = "",
    ):
        self.elements = sorted(elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate elements")
        if identity not in self.index:
            raise ValueError("identity not among elements")
        self.mul = mul
        self.identity = identity
        self.name = name
        self.generators = list(generators) if generators is not None else None
        self._inverses: dict = {}
        self._orders: dict = {}
        self._classes: list[list] | None = None
        self._class_of: dict | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def _order_and_inverse(self, g):
        if g not in self._orders:
            prev, acc, n = g, g, 1
            while acc != self.identity:
                prev = acc
                acc = self.mul(acc, g)
                n += 1
            self._orders[g] = n
            self._inverses[g] = prev if n > 1 else g
        return self._orders[g], self._inverses[g]

    def inverse(self, g):
        return self._order_and_inverse(g)[1]

    def element_order(self, g) -> int:
        return self._order_and_inverse(g)[0]

    def exponent(self) -> int:
        """lcm of the element orders; order is a class function, so the
        class representatives suffice."""
        classes = self.conjugacy_classes()
        return math.lcm(*(self.element_order(c[0]) for c in classes))

    def conjugacy_classes(self) -> list[list]:
        """Classes as sorted element lists; identity class first, the rest
        ordered by (size, representative)."""
        if self._classes is not None:
            return self._classes
        conjugators = self.generators if self.generators else self.elements
        conj_pairs = [(t, self.inverse(t)) for t in conjugators]
        seen = set()
        classes = []
        for g in self.elements:
            if g in seen:
                continue
            orbit = {g}
            frontier = [g]
            while frontier:
                x = frontier.pop()
                for t, t_inv in conj_pairs:
                    y = self.mul(self.mul(t, x), t_inv)
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            orbit = sorted(orbit)
            seen.update(orbit)
            classes.append(orbit)
        id_cls = next(c for c in classes if self.identity in c)
        rest = [c for c in classes if c is not id_cls]
        rest.sort(key=lambda c: (len(c), c[0]))
        self._classes = [id_cls] + rest
        self._class_of = {
            g: k for k, cls in enumerate(self._classes) for g in cls
        }
        return self._classes


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
        nonzero = np.flatnonzero(R[r:, c])
        if nonzero.size == 0:
            continue
        piv = r + int(nonzero[0])
        if piv != r:
            R[[r, piv]] = R[[piv, r]]
        R[r] = R[r] * pow(int(R[r, c]), -1, p) % p
        factors = R[:, c].copy()
        factors[r] = 0
        R = (R - np.outer(factors, R[r])) % p
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
        c = -pow(k, -1, p) * int(np.trace(N)) % p
        coeffs[n - k] = c
        Mk = N
        Mk[np.diag_indices(n)] += c
        Mk %= p
    return coeffs


def _poly_roots(coeffs: Sequence[int], p: int) -> list[int]:
    """All roots in F_p of the polynomial (lowest-first coeffs), by one
    Horner pass over every residue."""
    x = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * x + int(c)) % p
    return np.flatnonzero(acc == 0).tolist()


def _primitive_root(p: int) -> int:
    factors = set()
    n = p - 1
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    if n > 1:
        factors.add(n)
    for z in range(2, p):
        if all(pow(z, (p - 1) // f, p) != 1 for f in factors):
            return z
    raise AssertionError("no primitive root found")


# ---------------------------------------------------------------------------
# the Dixon construction
# ---------------------------------------------------------------------------


class CharacterTable:
    """An exact character table: classes, sizes, representative orders and
    values.

    ``raw`` is the (L, C, N) int64 value array over Z[t]/(t^N - 1), N the
    group exponent, with the identity class first; ``characters`` is a view
    of it as cyclotomic numbers.
    """

    def __init__(self, group, class_reps, class_sizes, class_orders, raw):
        self.group = group
        self.class_reps = list(class_reps)
        self.class_sizes = list(class_sizes)
        self.class_orders = list(class_orders)
        self.raw = raw
        raw.flags.writeable = False
        if self.class_orders[0] != 1 or np.any(raw[:, 0, 1:]):
            raise AssertionError("the first class must be the identity class")
        self.degrees = [int(x) for x in raw[:, 0, 0]]
        self._characters = None

    @property
    def num_classes(self) -> int:
        return len(self.class_reps)

    @classmethod
    def dixon(cls, group: FiniteGroup) -> "CharacterTable":
        classes = group.conjugacy_classes()
        r = len(classes)
        sizes = [len(c) for c in classes]
        reps = [c[0] for c in classes]
        n_g = group.order
        exponent = group.exponent()

        # prime field: p = 1 mod exponent, p > 2|G|
        p = exponent + 1
        while p <= 2 * n_g or (p - 1) % exponent != 0 or not is_prime(p):
            p += exponent
        _check_int64(max(r, exponent), p)
        z = _primitive_root(p)

        class_of = group._class_of  # element -> class index, set with the classes
        mul, inverse = group.mul, group.inverse
        inv_class = [class_of[inverse(g)] for g in reps]

        def structure_matrix(i: int) -> np.ndarray:
            # (M_i)_{jk} = #{x in C_i : x^{-1} rep_k in C_j}
            hits = [class_of[mul(inverse(x), g)] for x in classes[i] for g in reps]
            flat = np.array(hits, dtype=np.int64) * r + np.tile(
                np.arange(r, dtype=np.int64), sizes[i]
            )
            return np.bincount(flat, minlength=r * r).reshape(r, r)

        # Split the simultaneous eigenspaces.  Each space is an RREF basis
        # (rows) with its pivot columns, so the coordinates of a vector of
        # the span are its entries at the pivots.
        spaces = [(np.eye(r, dtype=np.int64), list(range(r)))]
        for i in range(1, r):
            if all(len(pivots) == 1 for _, pivots in spaces):
                break
            M_T = structure_matrix(i).T % p
            new_spaces = []
            for B, pivots in spaces:
                if len(pivots) == 1:
                    new_spaces.append((B, pivots))
                    continue
                images = B @ M_T % p
                A = images[:, pivots]  # row j: coordinates of M_i b_j
                if not np.array_equal(A @ B % p, images):
                    raise AssertionError("class matrix leaves an eigenspace")
                eye = np.eye(len(pivots), dtype=np.int64)
                for lam in _poly_roots(_charpoly(A, p), p):
                    kern = _nullspace((A.T - lam * eye) % p, p)
                    if len(kern):
                        new_spaces.append(_rref(kern @ B % p, p))
            if sum(len(pivots) for _, pivots in new_spaces) != r:
                raise AssertionError("eigenspace refinement lost dimensions")
            spaces = new_spaces
        if not all(len(pivots) == 1 for _, pivots in spaces):
            raise AssertionError("class matrices failed to separate characters")

        # An RREF row is normalized at its pivot: omega(identity) = 1 exactly
        # when the pivot is the identity class.
        if any(pivots != [0] for _, pivots in spaces):
            raise AssertionError("eigenvector vanishes on the identity class")
        omegas = np.array([B[0] for B, _ in spaces], dtype=np.int64)

        # degrees and values mod p: chi(1)^2 = |G| / sum_k omega_k omega_k' / |C_k|
        inv_sizes = np.array([pow(s, -1, p) for s in sizes], dtype=np.int64)
        norms = (omegas * omegas[:, inv_class] % p) @ inv_sizes % p
        squares = np.arange(1, math.isqrt(n_g) + 1, dtype=np.int64) ** 2 % p
        degrees = []
        for s in norms.tolist():
            match = np.flatnonzero(squares == n_g * pow(s, -1, p) % p)
            if match.size == 0:
                raise AssertionError("no integer degree matches mod p")
            degrees.append(int(match[0]) + 1)
        deg_col = np.array(degrees, dtype=np.int64)[:, None]
        rows_mod_p = deg_col * omegas % p * inv_sizes % p

        # exact lift: the multiplicity of w^j on <g> is a Fourier sum over
        # the values at the powers of g, one matmul per class; it is the
        # coefficient of zeta_N^{jN/o} in the raw layout over Z[t]/(t^N - 1)
        rep_orders = [group.element_order(g) for g in reps]
        raw = np.zeros((r, r, exponent), dtype=np.int64)
        dft: dict[int, np.ndarray] = {}
        for ci, (g, o) in enumerate(zip(reps, rep_orders)):
            power_classes = []
            acc = group.identity
            for _ in range(o):
                power_classes.append(class_of[acc])
                acc = mul(acc, g)
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
        return cls(group, reps, sizes, rep_orders, raw[order])

    @property
    def characters(self) -> list[tuple[CyclotomicNumber, ...]]:
        """The value rows as cyclotomic numbers, each value written in
        Q(zeta_o) for o the order of its class representative; built from
        ``raw`` on first use."""
        if self._characters is None:
            coords = _class_coordinates(self.raw, self.class_orders)
            columns = [
                [
                    CyclotomicNumber(o, {e: Fraction(c) for e, c in enumerate(row) if c})
                    for row in col.tolist()
                ]
                for o, col in zip(self.class_orders, coords)
            ]
            self._characters = list(zip(*columns))
        return self._characters

    # -- Galois fixedness, one pass over the whole table -------------------

    def conductors(self) -> np.ndarray:
        """Per character, the smallest c with all its values in Q(zeta_c)."""
        return row_conductors(self.raw)

    def hd_fixed_rows(self, d: int) -> np.ndarray:
        """Per character, whether every sigma_k with k = 1 mod d fixes all
        its values (at the modulus lcm(exponent, d))."""
        return rows_fixed_by(self.raw, hd_subgroup(d, math.lcm(self.raw.shape[2], d)))

    # -- exact verification helpers ----------------------------------------

    def verify_row_orthogonality(self) -> bool:
        n_g = self.group.order
        for i, chi in enumerate(self.characters):
            for j, psi in enumerate(self.characters):
                acc = CyclotomicNumber.zero()
                for k in range(self.num_classes):
                    acc = acc + self.class_sizes[k] * chi[k] * psi[k].conjugate()
                expected = n_g if i == j else 0
                if acc != expected:
                    return False
        return True

    def verify_column_orthogonality(self) -> bool:
        n_g = self.group.order
        for k in range(self.num_classes):
            for l in range(self.num_classes):
                acc = CyclotomicNumber.zero()
                for chi in self.characters:
                    acc = acc + chi[k] * chi[l].conjugate()
                expected = n_g // self.class_sizes[k] if k == l else 0
                if acc != expected:
                    return False
        return True

    def sum_of_degree_squares(self) -> int:
        return sum(d * d for d in self.degrees)


def _class_coordinates(raw: np.ndarray, orders) -> list[np.ndarray]:
    """Per class, the (L, phi(o)) power-basis coordinates of its values in
    Q(zeta_o), o the order of the class representative."""
    n = raw.shape[2]
    return [raw[:, ci, :: n // o] @ _reduction_matrix(o) for ci, o in enumerate(orders)]


def _row_keys(raw: np.ndarray, orders) -> list[tuple]:
    """Per row, the nonzero (exponent, coordinate) pairs of each value in
    its class's power basis: the order of these keys is the order of the
    values' canonical serializations."""
    columns = [
        [tuple((e, c) for e, c in enumerate(row) if c) for row in coords.tolist()]
        for coords in _class_coordinates(raw, orders)
    ]
    return list(zip(*columns))
