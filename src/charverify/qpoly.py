"""Integer polynomials in q: cyclotomic factors and generic degrees.

Coefficient lists are stored lowest-degree-first.  All arithmetic is exact
over the integers; division helpers verify exactness and raise on failure.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable

from .partitions import Partition


class QPolynomial:
    """A polynomial with integer coefficients, lowest-degree-first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        coeffs = [int(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("QPolynomial is immutable")

    @classmethod
    def monomial(cls, k: int) -> "QPolynomial":
        return cls([0] * k + [1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, QPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == (QPolynomial([other]).coeffs)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPolynomial(
            [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]
        )

    def __neg__(self) -> "QPolynomial":
        return QPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "QPolynomial":
        if isinstance(other, int):
            return QPolynomial([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return QPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPolynomial":
        if n < 0:
            raise ValueError("negative power")
        result = QPolynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "QPolynomial") -> tuple["QPolynomial", "QPolynomial"]:
        """Exact polynomial division with integer output, by integer long
        division.

        Intended for monic divisors (cyclotomic polynomials), where quotient
        and remainder are automatically integral; a quotient coefficient that
        is not an integer raises ValueError rather than rounding.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        den = other.coeffs
        lead = den[-1]
        quo = [0] * max(0, len(rem) - len(den) + 1)
        for shift in range(len(quo) - 1, -1, -1):
            top = rem[shift + len(den) - 1]
            factor, left = divmod(top, lead)
            if left:
                g = math.gcd(top, lead) * (-1 if lead < 0 else 1)
                raise ValueError(
                    f"non-integer coefficient {top // g}/{lead // g} in exact division"
                )
            if factor:
                quo[shift] = factor
                for i, c in enumerate(den):
                    rem[shift + i] -= factor * c
        return QPolynomial(quo), QPolynomial(rem[: len(den) - 1])

    def exact_div(self, other: "QPolynomial") -> "QPolynomial":
        """Division asserting zero remainder and integer quotient."""
        quo, rem = self.divmod(other)
        if not rem.is_zero():
            raise ValueError(f"{self.pretty()} is not divisible by {other.pretty()}")
        return quo

    def pretty(self) -> str:
        """Human-readable form, highest degree first, e.g. 'q^4 - q^2 + 1'."""
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                head = "" if abs(c) == 1 else f"{abs(c)}*"
                body = f"{head}q" + (f"^{k}" if k > 1 else "")
            if not terms:
                terms.append(("-" if c < 0 else "") + body)
            else:
                terms.append(("- " if c < 0 else "+ ") + body)
        return " ".join(terms)

    def __repr__(self) -> str:
        return f"QPolynomial({self.pretty()})"


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> QPolynomial:
    """The d-th cyclotomic polynomial Phi_d, by recursive exact division.

    q^d - 1 = prod over e | d of Phi_e.
    """
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    num = QPolynomial.monomial(d) - QPolynomial([1])
    for e in range(1, d):
        if d % e == 0:
            num = num.exact_div(cyclotomic_poly(e))
    return num


def generic_degree_typeA(lam) -> QPolynomial:
    """Generic degree of the unipotent character labelled by a partition of n.

    Computed exactly as q^{n(lambda)} * prod_e Phi_e^{c_e} with
    c_e = floor(n/e) - #{hook lengths divisible by e}; all c_e are checked to
    be non-negative, so the quotient-of-products never leaves Z[q].
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    n = lam.size
    hooks = lam.hook_lengths()
    out = QPolynomial.monomial(lam.n_stat())
    for e in range(2, n + 1):
        c_e = n // e - sum(1 for h in hooks if h % e == 0)
        if c_e < 0:
            raise AssertionError(f"negative Phi_{e} multiplicity for {lam}")
        if c_e:
            out = out * cyclotomic_poly(e) ** c_e
    return out

