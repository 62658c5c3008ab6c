"""Diagonal-torus Lang-map identities in SL_n over small finite fields.

Everything here happens inside the diagonal maximal torus of SL_n over
F_{p^2}: the principal cocharacter sends a field unit ``c`` to

    diag(c^(n-1), c^(n-3), ..., c^(-(n-3)), c^(-(n-1))),

automatically of determinant 1, and the Lang map of a diagonal torus element
is the entrywise (q-1)-th power (t^(-1) * Frobenius(t) for diagonal t).  The
check, :func:`verify_cor55`, takes an integer ``k`` coprime to ``p``, takes a
square root ``c`` of ``k`` in F_{p^2} (the first one in the order of
:func:`enumerate_field`, from one pass over the field per prime), and
confirms that the Lang image of the cocharacter value at ``c`` is the scalar
matrix ``jacobi_symbol(k, q)^(n-1) * Id`` (Corollary 5.5(a)), and that it is
central of order dividing 2 (Proposition 5.1(a)).

Because ``k`` is a prime-field scalar, its square roots always lie in
F_{p^2}; degrees ``e`` in ``{1, 2}`` (so ``q = p`` or ``q = p^2``) are fully
covered without ever leaving the quadratic extension.  Field elements are
represented as polynomials modulo a fixed, documented irreducible: for odd
``p`` the modulus is ``x^2 - t`` with ``t`` the smallest quadratic
non-residue mod ``p``; for ``p = 2`` it is ``x^2 + x + 1``.

Powers are square-and-multiply on coefficient integers.  The cocharacter
value and its Lang image are computed on (c0, c1) coefficient pairs, their
determinant is checked to be 1 on the pairs, and the result is built
through trusted constructors that skip the checks already made; a
``DiagonalTorusElement`` built directly still checks its determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .ladic import is_prime

__all__ = [
    "FiniteFieldElement",
    "DiagonalTorusElement",
    "quadratic_nonresidue",
    "modulus_poly",
    "enumerate_field",
    "sqrt_in_quadratic",
    "jacobi_symbol",
    "principal_cochar_value",
    "lang_image",
    "verify_cor55",
]


@lru_cache(maxsize=None)
def quadratic_nonresidue(p: int) -> int:
    """Smallest quadratic non-residue modulo an odd prime p."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    for t in range(2, p):
        if pow(t, (p - 1) // 2, p) == p - 1:
            return t
    raise AssertionError(f"no non-residue found mod {p}")


def modulus_poly(p: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the fixed irreducible quadratic.

    ``x^2 + x + 1`` for p = 2, else ``x^2 - t`` with t the smallest
    non-residue; both are irreducible over F_p by construction.
    """
    if p == 2:
        return (1, 1, 1)
    return ((-quadratic_nonresidue(p)) % p, 0, 1)


@dataclass(frozen=True, eq=False)
class FiniteFieldElement:
    """An element of F_p or of the fixed quadratic extension F_{p^2}.

    ``coeffs`` holds the reduced polynomial representation, constant term
    first; its length is the field degree (1 or 2).  Equality ignores the
    ambient degree: a prime-field value compares equal to its image in the
    quadratic extension.
    """

    p: int
    coeffs: tuple

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if len(self.coeffs) not in (1, 2):
            raise ValueError("degree must be 1 or 2")
        if any(not (0 <= a < self.p) for a in self.coeffs):
            raise ValueError(f"coefficients not reduced mod {self.p}")

    @classmethod
    def _reduced(cls, p: int, coeffs: tuple) -> "FiniteFieldElement":
        """An element from coefficients reduced mod a prime p, of degree 1 or
        2 by construction: skips the checks of ``__post_init__``."""
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @classmethod
    def from_int(cls, p: int, value: int) -> "FiniteFieldElement":
        """The prime-field element value mod p."""
        return cls(p, (value % p,))

    @property
    def e(self) -> int:
        return len(self.coeffs)

    def _as_pair(self) -> tuple[int, int]:
        """The coefficients in F_{p^2}: (c0, 0) for a prime-field element."""
        coeffs = self.coeffs
        return (coeffs[0], coeffs[1]) if len(coeffs) == 2 else (coeffs[0], 0)

    def _key(self) -> tuple:
        return (self.p, *self._as_pair())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteFieldElement):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def lift(self) -> "FiniteFieldElement":
        """The same element viewed inside the quadratic extension."""
        if self.e == 2:
            return self
        return FiniteFieldElement(self.p, (self.coeffs[0], 0))

    def _pair(self, other: "FiniteFieldElement"):
        if not isinstance(other, FiniteFieldElement) or other.p != self.p:
            raise TypeError(f"cannot combine {self!r} with {other!r}")
        if self.e == other.e:
            return self, other
        return self.lift(), other.lift()

    def __mul__(self, other: "FiniteFieldElement") -> "FiniteFieldElement":
        a, b = self._pair(other)
        p = a.p
        if a.e == 1:
            return FiniteFieldElement(p, ((a.coeffs[0] * b.coeffs[0]) % p,))
        return FiniteFieldElement(p, _mul_quadratic(p, *a.coeffs, *b.coeffs))

    def __pow__(self, exponent: int) -> "FiniteFieldElement":
        """Square-and-multiply on the coefficients; a negative exponent is
        reduced modulo the order p^e - 1 of the unit group."""
        if self.is_zero and exponent <= 0:
            raise ZeroDivisionError("zero to a non-positive power")
        p = self.p
        if exponent < 0:
            exponent %= p**self.e - 1
        if self.e == 1:
            return FiniteFieldElement(p, (pow(self.coeffs[0], exponent, p),))
        return FiniteFieldElement(p, _pow_quadratic(p, *self.coeffs, exponent))

    def __repr__(self) -> str:
        if self.e == 1 or self.coeffs[1] == 0:
            return f"FF({self.coeffs[0]} mod {self.p})"
        return f"FF({self.coeffs[0]} + {self.coeffs[1]}x mod {self.p})"


def _mul_quadratic(p: int, a0: int, a1: int, b0: int, b1: int) -> tuple[int, int]:
    """Coefficients of (a0 + a1 x)(b0 + b1 x) in F_{p^2}, reduced by the
    relation x^2 = s x + t of ``modulus_poly(p)``: x^2 = x + 1 for p = 2,
    x^2 = t (the smallest non-residue) otherwise."""
    s, t = _x_squared(p)
    cross = a1 * b1
    return (a0 * b0 + t * cross) % p, (a0 * b1 + a1 * b0 + s * cross) % p


def _pow_quadratic(p: int, b0: int, b1: int, exponent: int) -> tuple[int, int]:
    """Coefficients of (b0 + b1 x)^exponent in F_{p^2}, exponent >= 0: the
    built-in ``pow`` for a prime-field element, otherwise square-and-multiply
    through ``_mul_quadratic``."""
    if b1 == 0:
        return pow(b0, exponent, p), 0
    r0, r1 = 1, 0
    while exponent:
        if exponent & 1:
            r0, r1 = _mul_quadratic(p, r0, r1, b0, b1)
        exponent >>= 1
        if exponent:
            b0, b1 = _mul_quadratic(p, b0, b1, b0, b1)
    return r0, r1


@lru_cache(maxsize=None)
def _x_squared(p: int) -> tuple[int, int]:
    """(s, t) with x^2 = s x + t modulo ``modulus_poly(p)``."""
    c0, c1, _ = modulus_poly(p)
    return -c1 % p, -c0 % p


def enumerate_field(p: int, e: int) -> Iterator[FiniteFieldElement]:
    """All elements of F_{p^e} in deterministic (lexicographic) order."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if e == 1:
        for a0 in range(p):
            yield FiniteFieldElement._reduced(p, (a0,))
    elif e == 2:
        for a0 in range(p):
            for a1 in range(p):
                yield FiniteFieldElement._reduced(p, (a0, a1))
    else:
        raise ValueError(f"degree must be 1 or 2, got {e}")


def sqrt_in_quadratic(p: int, k: int) -> FiniteFieldElement:
    """First square root of the prime-field scalar k inside F_{p^2}, in the
    order of ``enumerate_field(p, 2)``.

    Every prime-field element has a square root in the quadratic extension
    (adjoining one non-residue root makes all non-residues squares).  The
    roots of all k come from one pass over F_{p^2} per prime, so the same
    element is returned for every k with the same k mod p; p is validated
    on every call.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return _square_roots(p)[k % p]


@lru_cache(maxsize=None)
def _square_roots(p: int) -> tuple[FiniteFieldElement, ...]:
    """Entry k: the first c of ``enumerate_field(p, 2)`` with c * c = k."""
    roots: dict[int, FiniteFieldElement] = {}
    for c in enumerate_field(p, 2):
        s0, s1 = _mul_quadratic(p, *c.coeffs, *c.coeffs)
        if s1 == 0 and s0 not in roots:
            roots[s0] = c
            if len(roots) == p:
                return tuple(roots[k] for k in range(p))
    raise RuntimeError(f"internal error: some k has no square root in F_{p}^2")


def jacobi_symbol(k: int, q: int) -> int:
    """Jacobi symbol (k/q) for odd q, extended by (k/q) := 1 for q a 2-power.

    Requires gcd(k, q) = 1 when q is odd.  Implemented by the standard
    binary reciprocity algorithm.
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    if q & (q - 1) == 0:
        return 1
    if q % 2 == 0:
        raise ValueError(f"q must be odd or a power of 2, got {q}")
    a = k % q
    if math.gcd(a, q) != 1:
        raise ValueError(f"k = {k} is not coprime to q = {q}")
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if q % 8 in (3, 5):
                result = -result
        a, q = q, a
        if a % 4 == 3 and q % 4 == 3:
            result = -result
        a %= q
    assert q == 1
    return result


@dataclass(frozen=True)
class DiagonalTorusElement:
    """A diagonal matrix in SL_n: nonzero entries with product 1."""

    entries: tuple

    def __post_init__(self):
        if len(self.entries) < 2:
            raise ValueError("need at least 2 diagonal entries")
        if any(x.is_zero for x in self.entries):
            raise ValueError("diagonal entries must be nonzero")
        p = self.entries[0].p
        for x in self.entries:
            if not isinstance(x, FiniteFieldElement) or x.p != p:
                raise TypeError(f"cannot combine {self.entries[0]!r} with {x!r}")
        _check_det_one(p, [x._as_pair() for x in self.entries])

    @classmethod
    def _checked(cls, entries: tuple) -> "DiagonalTorusElement":
        """A torus element from nonzero entries over one prime whose
        determinant has been checked to be 1: skips ``__post_init__``."""
        self = object.__new__(cls)
        object.__setattr__(self, "entries", entries)
        return self

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def p(self) -> int:
        return self.entries[0].p

    def scalar_value(self) -> FiniteFieldElement | None:
        """The common entry if the matrix is scalar, else None."""
        first = self.entries[0]
        if all(x == first for x in self.entries):
            return first
        return None

    def __repr__(self) -> str:
        return f"diag{self.entries!r}"


def _check_det_one(p: int, pairs) -> None:
    """Raise unless the product of the (c0, c1) coefficient pairs of
    F_{p^2} elements is 1."""
    d0, d1 = pairs[0]
    for a0, a1 in pairs[1:]:
        d0, d1 = _mul_quadratic(p, d0, d1, a0, a1)
    if (d0, d1) != (1, 0):
        det = FiniteFieldElement._reduced(p, (d0, d1))
        raise ValueError(f"determinant is {det!r}, not 1")


def _torus_from_pairs(p: int, pairs, degrees) -> DiagonalTorusElement:
    """diag of the nonzero F_{p^2} elements with these (c0, c1) pairs, each
    of the given degree: the determinant is checked to be 1 on the pairs,
    then each entry is built once."""
    _check_det_one(p, pairs)
    return DiagonalTorusElement._checked(
        tuple(
            FiniteFieldElement._reduced(p, pair[:e]) for pair, e in zip(pairs, degrees)
        )
    )


def principal_cochar_value(n: int, c: FiniteFieldElement) -> DiagonalTorusElement:
    """The principal-cocharacter value diag(c^(n-1), c^(n-3), ..., c^(-(n-1)))."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if c.is_zero:
        raise ValueError("c must be nonzero")
    p, order = c.p, c.p**c.e - 1
    pairs = [
        _pow_quadratic(p, *c._as_pair(), m if m >= 0 else m % order)
        for m in range(n - 1, -n, -2)
    ]
    return _torus_from_pairs(p, pairs, [c.e] * n)


def lang_image(t: DiagonalTorusElement, q: int) -> DiagonalTorusElement:
    """Lang map t^(-1) * F(t) of a diagonal element, F the q-power Frobenius.

    For diagonal t this is the entrywise (q-1)-th power; entries of t must
    lie in a field stable under the q-power map (any F_{p^e} with p | q is,
    since powering is a ring endomorphism there).
    """
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if q % t.p != 0:
        raise ValueError(f"q = {q} is not a power of the characteristic {t.p}")
    pairs = [_pow_quadratic(t.p, *x._as_pair(), q - 1) for x in t.entries]
    return _torus_from_pairs(t.p, pairs, [len(x.coeffs) for x in t.entries])


def verify_cor55(n: int, p: int, e: int, k: int) -> tuple[bool, bool]:
    """Two checks on one Lang image, computed once: that the Lang image of
    the cocharacter value at sqrt(k) is the scalar jacobi_symbol(k, q)^(n-1)
    * Id, with q = p^e, and that it is central of order dividing 2 (the
    identity or (-1)^(n-1) * Id)."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if e not in (1, 2):
        raise ValueError(f"e must be 1 or 2, got {e}")
    if k % p == 0:
        raise ValueError(f"k = {k} is not a unit mod p = {p}")
    q = p**e
    image = lang_image(principal_cochar_value(n, sqrt_in_quadratic(p, k)), q)
    scalar = image.scalar_value()
    if scalar is None:
        return False, False
    expected = FiniteFieldElement.from_int(p, jacobi_symbol(k, q) ** (n - 1))
    one = FiniteFieldElement.from_int(p, 1)
    minus = FiniteFieldElement.from_int(p, (-1) ** (n - 1))
    return scalar == expected, scalar == one or scalar == minus
