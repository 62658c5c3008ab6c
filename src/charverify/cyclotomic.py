"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Canonical form: an element of Q(zeta_n) is stored as a sparse mapping
exponent -> Fraction over the power basis 1, zeta_n, ..., zeta_n^{phi(n)-1},
i.e. fully reduced modulo the n-th cyclotomic polynomial.  Elements carry the
order n they were written in; equality across different orders lifts both
sides to the least common multiple.  Elements are deliberately unhashable
(mathematical equality is finer than any per-order normal form).

Whole tables (``grouptable.CharacterTable``) are (L, C, N) integer arrays
``raw``, entry [i, j] = sum_e raw[i, j, e] zeta_N^e, and are evaluated: a
split prime p = 1 mod o (``split_prime``, shared with Burnside-Dixon) maps
Z[zeta_o] / p onto F_p^phi(o), x -> (x(w^j)) for the units j mod o, by one
exact float64 product per 2^16 entries of ``raw`` (``evaluate``).  Primes
above 2^22 are taken until their product exceeds twice the coordinate
bound of the difference tested.  sigma_k is a gather of the evaluations
(:func:`galois_fixed_rows`), whose int64 guard (max|raw| * max|entry of
_reduction_rows(n)| * n < 2^63 at N and at each column order) raises
OverflowError up front.  It is the one routine of the package that tests
Galois fixedness of values; the scalar conductor and fixedness of one
number are the tests' oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .qpoly import cyclotomic_poly

Rational = Fraction


def divisors(n: int) -> list[int]:
    """Positive divisors of n, ascending."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk-scale inputs)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row e = integer coordinates of zeta_n^e in the power basis (length phi(n))."""
    phi = cyclotomic_poly(n).coeffs
    deg = len(phi) - 1
    rows: list[tuple[int, ...]] = []
    for e in range(n):
        if e < deg:
            vec = [0] * deg
            vec[e] = 1
        else:
            shifted = [0] + list(rows[e - 1])
            top = shifted.pop() if len(shifted) > deg else 0
            shifted += [0] * (deg - len(shifted))
            vec = [shifted[i] - top * phi[i] for i in range(deg)]
        rows.append(tuple(vec))
    return tuple(rows)


@lru_cache(maxsize=None)
def _reduction_matrix(n: int) -> np.ndarray:
    """``_reduction_rows(n)`` as a read-only (n, phi(n)) int64 array."""
    R = np.array(_reduction_rows(n), dtype=np.int64)
    R.flags.writeable = False
    return R


class CyclotomicNumber:
    """An element of Q(zeta_n) in canonical reduced form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, raw: Mapping[int, Fraction] | None = None):
        if order <= 0:
            raise ValueError(f"order must be positive, got {order}")
        rows = _reduction_rows(order)
        deg = len(rows[0]) if rows else 0
        acc: dict[int, Fraction] = {}
        for e, c in (raw or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            row = rows[e % order]
            for i, m in enumerate(row):
                if m:
                    acc[i] = acc.get(i, Fraction(0)) + c * m
        object.__setattr__(self, "order", order)
        object.__setattr__(
            self, "coeffs", {i: c for i, c in acc.items() if c != 0}
        )

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CyclotomicNumber":
        return cls(order, {0: Fraction(value)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return set(self.coeffs) <= {0}

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs.get(0, Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def _lift_raw(self, new_order: int) -> dict[int, Fraction]:
        if new_order % self.order != 0:
            raise ValueError(f"cannot lift order {self.order} to {new_order}")
        ratio = new_order // self.order
        return {e * ratio: c for e, c in self.coeffs.items()}

    def lift(self, new_order: int) -> "CyclotomicNumber":
        """Rewrite in Q(zeta_N) for a multiple N of the current order."""
        return CyclotomicNumber(new_order, self._lift_raw(new_order))

    def _pair(self, other: "CyclotomicNumber"):
        if self.order == other.order:
            return self, other
        n = math.lcm(self.order, other.order)
        return self.lift(n), other.lift(n)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other, 1)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._pair(other)
        raw = dict(a.coeffs)
        for e, c in b.coeffs.items():
            raw[e] = raw.get(e, Fraction(0)) + c
        return CyclotomicNumber(a.order, raw)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other, 1)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber(
                self.order, {e: c * other for e, c in self.coeffs.items()}
            )
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._pair(other)
        raw: dict[int, Fraction] = {}
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                e = (e1 + e2) % a.order
                raw[e] = raw.get(e, Fraction(0)) + c1 * c2
        return CyclotomicNumber(a.order, raw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("scalar division by zero")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rational_value() == other
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # equality crosses orders; hashing is deliberately disabled

    # -- Galois action -----------------------------------------------------

    def galois(self, k: int) -> "CyclotomicNumber":
        """Image under zeta_n -> zeta_n^k; requires gcd(k, n) = 1."""
        if math.gcd(k, self.order) != 1:
            raise ValueError(f"k = {k} is not coprime to the order {self.order}")
        return CyclotomicNumber(
            self.order, {(e * k) % self.order: c for e, c in self.coeffs.items()}
        )

    def conjugate(self) -> "CyclotomicNumber":
        return self.galois(self.order - 1 if self.order > 1 else 1)

    # -- serialization -----------------------------------------------------

    def to_triples(self) -> list[list[int]]:
        """Canonical serialization [[exponent, numerator, denominator], ...]."""
        return [
            [e, self.coeffs[e].numerator, self.coeffs[e].denominator]
            for e in sorted(self.coeffs)
        ]

    def to_dict(self) -> dict:
        return {"order": self.order, "coeffs": self.to_triples()}

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                head = "" if abs(c) == 1 else f"{abs(c)}*"
                body = f"{head}zeta{self.order}" + (f"^{e}" if e > 1 else "")
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)


class GaloisSubgroup:
    """A subgroup of (Z/nZ)^x given by its modulus and residue set."""

    __slots__ = ("modulus", "residues")

    def __init__(self, modulus: int, residues: Iterable[int]):
        if modulus <= 0:
            raise ValueError(f"modulus must be positive, got {modulus}")
        res = frozenset(r % modulus for r in residues)
        for r in res:
            if math.gcd(r, modulus) != 1:
                raise ValueError(f"residue {r} not coprime to {modulus}")
        if (1 % modulus) not in res:
            raise ValueError("subgroup must contain 1")
        for a in res:
            for b in res:
                if (a * b) % modulus not in res:
                    raise ValueError(
                        f"residues not closed under multiplication mod {modulus}"
                    )
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "residues", res)

    def __setattr__(self, name, value):
        raise AttributeError("GaloisSubgroup is immutable")

    @classmethod
    def _closed(cls, modulus: int, residues: Iterable[int]) -> "GaloisSubgroup":
        """A subgroup from residues that are closed by construction.

        For callers that build units containing 1 and closed under
        multiplication; skips the O(|H|^2) checks of ``__init__`` but still
        reduces the residues mod ``modulus`` (mod 1, the residue 1 is 0).
        """
        self = object.__new__(cls)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "residues", frozenset(r % modulus for r in residues))
        return self

    @classmethod
    def full(cls, n: int) -> "GaloisSubgroup":
        return cls(n, [k for k in range(1, n + 1) if math.gcd(k, n) == 1])

    def __contains__(self, k: int) -> bool:
        return (k % self.modulus) in self.residues

    def __len__(self) -> int:
        return len(self.residues)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaloisSubgroup):
            return NotImplemented
        return self.modulus == other.modulus and self.residues == other.residues

    def __hash__(self) -> int:
        return hash((self.modulus, self.residues))

    def __repr__(self) -> str:
        return f"GaloisSubgroup(mod {self.modulus}, {sorted(self.residues)})"


# ---------------------------------------------------------------------------
# Galois fixedness of whole value arrays
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def unit_residues(n: int) -> tuple[int, ...]:
    """The units of Z/nZ as residues in [0, n), ascending (mod 1: just 0)."""
    return tuple(k % n for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _peak(values: np.ndarray) -> int:
    """max|entry| of an integer array, as a Python integer (0 if empty):
    read from the extremes, since abs wraps at the dtype's minimum."""
    return max(int(values.max()), -int(values.min())) if values.size else 0


def _check_fixedness_int64(bound: int, n: int) -> int:
    """Refuse raw coefficients (|.| <= bound) whose reduction mod Phi_n could
    leave int64, else return n * bound * max|_reduction_rows(n)|."""
    largest = int(np.abs(_reduction_matrix(n)).max())
    if n * bound * largest >= 2**63:
        raise OverflowError(
            f"reducing coefficients up to {bound} mod Phi_{n} overflows int64 "
            f"(need n * bound * {largest} < 2^63)"
        )
    return n * bound * largest


def _column_orders(raw: np.ndarray) -> np.ndarray:
    """Per column j of an (L, C, N) value array, the least o | N such that
    every nonzero coefficient raw[:, j, e] sits at a multiple e of N/o:
    the column's values then lie in Z[zeta_o].  It reads ``raw`` in its
    own dtype, without a full-size boolean copy."""
    n = raw.shape[2]
    support = np.any(raw, axis=0)
    orders = np.zeros(raw.shape[1], dtype=np.int64)
    for o in divisors(n):
        on_grid = ~support[:, np.arange(n) % (n // o) != 0].any(axis=1)
        orders[(orders == 0) & on_grid] = o
    return orders


# Split primes lie above _PRIME_FLOOR; arrays are read _CHUNK_ENTRIES at a time.
_PRIME_FLOOR = 2**22
_CHUNK_ENTRIES = 2**16


@lru_cache(maxsize=None)
def split_prime(modulus: int, above: int) -> tuple[int, int]:
    """The least prime p > above with p = 1 mod modulus (so p splits
    completely in Q(zeta_modulus)), and the least primitive root mod p."""
    p = above + 1 + (-above) % modulus
    while not is_prime(p):
        p += modulus
    factors = [q for q in divisors(p - 1) if is_prime(q)]
    return p, next(z for z in range(1, p) if all(pow(z, (p - 1) // q, p) != 1 for q in factors))


def _split_primes(modulus: int, bound: int) -> list[tuple[int, int]]:
    """Ascending ``split_prime``s above _PRIME_FLOOR until their product exceeds bound."""
    primes = []
    while math.prod(p for p, _ in primes) <= bound:
        primes.append(split_prime(modulus, primes[-1][0] if primes else _PRIME_FLOOR))
    return primes


def _row_chunks(rows: int, width: int) -> list[slice]:
    """Slices of range(rows) of at most _CHUNK_ENTRIES entries (one row at least)."""
    step = max(1, _CHUNK_ENTRIES // max(width, 1))
    return [slice(s, s + step) for s in range(0, rows, step)]


def _matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p, exactly, for float64 integers in (-p, p): sums stay below 2^53."""
    step = (2**53 - p) // (p - 1) ** 2
    if step < 1:
        raise OverflowError(f"products of residues mod {p} leave the exact float64 range")
    out = np.mod(A[..., :step] @ B[:step], p)
    for s in range(step, A.shape[-1], step):
        out += A[..., s : s + step] @ B[s : s + step]
        np.mod(out, p, out=out)
    return out


@lru_cache(maxsize=None)
def _evaluation_matrix(o: int, p: int, z: int) -> np.ndarray:
    """W[e, t] = w^(e * j_t) mod p, w = z^((p-1)/o), j_t = unit_residues(o)[t]."""
    powers = np.array([pow(z, (p - 1) // o * e, p) for e in range(o)], dtype=np.float64)
    return powers[np.outer(np.arange(o), unit_residues(o)) % o]


def evaluate(block: np.ndarray, p: int, z: int) -> np.ndarray:
    """The (..., phi(o)) images mod p of an (..., o) integer array over
    Z[t]/(t^o - 1) under t -> w^j, j the units mod o: one product.  Entries
    wider than 16 bits are reduced mod p in their own type first."""
    A = block if block.dtype.itemsize <= 2 else block % p
    return _matmul_mod(A.astype(np.float64), _evaluation_matrix(block.shape[-1], p, z), p)


def galois_fixed_rows(raw: np.ndarray, ks: Sequence[int]) -> np.ndarray:
    """(len(ks), L) bools: whether sigma_{ks[t]} fixes every value of row i
    of an (L, C, N) value array.  Columns go by their order o.  sigma_k
    moves the image at w^j to w^(jk) (``evaluate``), and x is fixed iff
    sigma_k(x) - x vanishes mod primes whose product exceeds twice the
    coordinate bound of ``_check_fixedness_int64``; their count is set
    from the peak of ``raw`` and the guards run before any product."""
    L, _, n = raw.shape
    ks = [k % n for k in ks]
    for k in ks:
        if math.gcd(k, n) != 1:
            raise ValueError(f"k = {k} is not a unit mod {n}")
    out = np.ones((len(ks), L), dtype=bool)
    bound = _peak(raw)
    _check_fixedness_int64(bound, n)
    orders = _column_orders(raw)
    blocks = []
    for o in sorted(set(orders.tolist())):
        moving = sorted({k % o for k in ks} - {1 % o})
        if moving:
            blocks.append((o, moving, _split_primes(o, 2 * _check_fixedness_int64(bound, o))))
    for o, moving, primes in blocks:
        cols = np.flatnonzero(orders == o)
        perms = {k: [unit_residues(o).index(j * k % o) for j in unit_residues(o)] for k in moving}
        for p, z in primes:
            for rows in _row_chunks(L, len(cols) * o):
                E = evaluate(raw[rows][:, cols, :: n // o], p, z)
                fixed = {k: (E[..., perm] == E).all(axis=(1, 2)) for k, perm in perms.items()}
                for t, k in enumerate(ks):
                    out[t, rows] &= fixed.get(k % o, True)
    return out


def conductors_from_fixedness(fixed: np.ndarray, n: int) -> np.ndarray:
    """Per-row conductors from per-unit fixedness.

    ``fixed[t, i]`` says whether sigma_k, k = unit_residues(n)[t], fixes
    row i.  A row's conductor is the smallest c | n such that every
    k = 1 mod c fixes it.
    """
    units = unit_residues(n)
    out = np.zeros(fixed.shape[1], dtype=np.int64)
    for c in divisors(n):
        sel = [t for t, k in enumerate(units) if k % c == 1 % c]
        out[(out == 0) & fixed[sel].all(axis=0)] = c
    return out

