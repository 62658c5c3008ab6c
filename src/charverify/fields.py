"""Rationality rules for extensions of unipotent characters.

This module tracks fields of character values as small formal extensions of a
base field and decides, for a concrete odd prime ``ell`` not dividing ``q``,
which of those extensions collapse inside the ell-adic field.

A :class:`FieldDescriptor` is a finite set of "adjoined elements", each either

* ``sqrt(s*q)`` for a sign ``s`` (square root of ``q`` or of ``-q``), or
* a root ``z`` of ``X**r - w`` where ``w`` is a two-valued Frobenius-eigenvalue
  class (:class:`FrobeniusClass`, either ``1`` or ``-q``).

Joins are computed symbolically first (set union, with the symbolically
rational adjunctions dropped immediately), and resolved ell-adically second:
a square root survives iff its radicand is a non-square modulo ``ell``, a root
of ``X**r - w`` survives iff no such root exists in the ell-adic field (a
residue-level power test in the tame case).

On top of the descriptor algebra the module implements:

* the sign rule for which field a graph-automorphism extension of a
  linear/unitary unipotent character generates -- trivial or ``sqrt(eps*q)``,
  decided by the size of the 2-core of the labelling partition mod 4;
* the two-valued Frobenius-eigenvalue bookkeeping for the same characters
  (constant on 2-cores; the exact value rule is pluggable because only
  constancy is ever used) and, for two-row symbols, a +-1 class that factors
  through the 1-core (equivalently the defect);
* ``check_prop75``: for every partition of ``n``, the full extension field
  over the ell-adics equals that of its d'-core, where d' is the order of
  ``eps*q`` modulo ``ell``;
* ``table1_consistency``: structural and number-theoretic checks on the
  curated table of cuspidal unipotent characters with irrational fields
  (shipped as ``data/cuspidal_fields.json``);
* ``corollary76_consistency``: the symbol eigenvalue class is constant along
  d-cores for odd d.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Callable, Iterable

from .cyclotomic import is_fixed_by, root_of_unity
from .ladic import (
    PrimePower,
    hd_subgroup,
    is_prime,
    is_square_mod,
    mult_order,
    root_exists_for_integer,
)
from .partitions import Partition, d_core, partitions_of, two_core
from .symbols import SymbolBCD, enumerate_symbols, symbol_d_core

__all__ = [
    "FrobeniusClass",
    "FieldDescriptor",
    "default_omega_rule",
    "frobenius_class_typeA_twisted",
    "graph_extension_field_typeA",
    "f0_extension_field",
    "extension_field_typeA",
    "Prop75Case",
    "Prop75Report",
    "check_prop75",
    "load_cuspidal_field_data",
    "Table1Report",
    "table1_consistency",
    "frobenius_sign_symbol",
    "Cor76Report",
    "corollary76_consistency",
]


def _q_value(q) -> int:
    """Accept an int or a PrimePower and return the plain integer value."""
    if isinstance(q, PrimePower):
        return q.value
    q = int(q)
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    return q


def _check_sign(eps: int) -> int:
    if eps not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {eps}")
    return eps


class FrobeniusClass(Enum):
    """Two-valued Frobenius-eigenvalue class: the eigenvalue is 1 or -q."""

    ONE = "one"
    MINUS_Q = "minus_q"

    def integer_value(self, q) -> int:
        """The eigenvalue as an integer once q is supplied."""
        return 1 if self is FrobeniusClass.ONE else -_q_value(q)


@dataclass(frozen=True)
class FieldDescriptor:
    """A formal extension of the base field by finitely many elements.

    ``parts`` is a frozenset of hashable tags:

    * ``("sqrt", s)`` with ``s`` in ``{+1, -1}``: adjoin ``sqrt(s*q)``;
    * ``("root", r, w)`` with ``r >= 2`` and ``w`` a :class:`FrobeniusClass`
      value string: adjoin a root of ``X**r - w``.

    The constructors normalize away adjunctions that are rational for purely
    symbolic reasons (``X**r - 1`` has the root 1; ``r = 1`` adjoins the
    eigenvalue itself, already rational; a square root of ``-q`` is recorded
    uniformly as a sqrt part even when it arrives as a degree-2 root part).
    """

    parts: frozenset = frozenset()

    @classmethod
    def trivial(cls) -> "FieldDescriptor":
        return cls(frozenset())

    @classmethod
    def adjoin_sqrt(cls, sign: int) -> "FieldDescriptor":
        """The extension by sqrt(sign * q)."""
        _check_sign(sign)
        return cls(frozenset({("sqrt", sign)}))

    @classmethod
    def adjoin_root(cls, r: int, omega: FrobeniusClass) -> "FieldDescriptor":
        """The extension by a root of X**r - omega."""
        if r < 1:
            raise ValueError(f"root index must be positive, got {r}")
        if not isinstance(omega, FrobeniusClass):
            raise TypeError(f"omega must be a FrobeniusClass, got {omega!r}")
        if omega is FrobeniusClass.ONE or r == 1:
            return cls.trivial()
        if r == 2:
            return cls.adjoin_sqrt(-1)
        return cls(frozenset({("root", r, omega.value)}))

    @property
    def is_trivial(self) -> bool:
        return not self.parts

    def join(self, other: "FieldDescriptor") -> "FieldDescriptor":
        """The compositum: union of the adjoined parts."""
        if not isinstance(other, FieldDescriptor):
            raise TypeError(f"cannot join with {other!r}")
        return FieldDescriptor(self.parts | other.parts)

    def resolve(self, ell: int, q) -> "FieldDescriptor":
        """Drop every part already contained in the ell-adic field.

        ``ell`` must be an odd prime not dividing ``q`` (and, for root parts,
        not dividing the root index -- the tame case).  Resolution only ever
        removes parts, so it is idempotent and monotone: supplying (ell, q)
        data never un-trivializes a descriptor.
        """
        qv = _q_value(q)
        kept = []
        for part in sorted(self.parts, key=repr):
            if part[0] == "sqrt":
                if not is_square_mod(part[1] * qv, ell):
                    kept.append(part)
            else:
                _, r, omega_tag = part
                value = FrobeniusClass(omega_tag).integer_value(qv)
                if not root_exists_for_integer(r, value, ell):
                    kept.append(part)
        return FieldDescriptor(frozenset(kept))

    def describe(self) -> str:
        """Human-readable rendering, e.g. ``Q`` or ``Q(sqrt(-q))``."""
        if self.is_trivial:
            return "Q"
        names = []
        for part in sorted(self.parts, key=repr):
            if part[0] == "sqrt":
                names.append("sqrt(q)" if part[1] == 1 else "sqrt(-q)")
            else:
                _, r, omega_tag = part
                w = "1" if omega_tag == "one" else "-q"
                names.append(f"root[{r}]({w})")
        return "Q(" + ", ".join(names) + ")"


def default_omega_rule(core: Partition) -> FrobeniusClass:
    """Default eigenvalue-class assignment from a 2-core.

    Only constancy on 2-cores is ever consumed by the checks in this module,
    so the exact value rule is pluggable; the default puts the ``-q`` class
    exactly on the 2-cores of size 2 or 3 mod 4, aligning it with the locus
    where the graph extension field is irrational.
    """
    return (
        FrobeniusClass.MINUS_Q
        if core.size % 4 in (2, 3)
        else FrobeniusClass.ONE
    )


def frobenius_class_typeA_twisted(
    lam, rule: Callable[[Partition], FrobeniusClass] = default_omega_rule
) -> FrobeniusClass:
    """Frobenius-eigenvalue class of the unipotent character labelled ``lam``
    in the twisted linear series: a function of the 2-core only."""
    return rule(two_core(lam))


def graph_extension_field_typeA(eps: int, lam) -> FieldDescriptor:
    """Field generated by a graph-automorphism extension in type A(eps*q).

    Trivial unless the 2-core of ``lam`` has size 2 or 3 mod 4, in which case
    the extension generates ``sqrt(eps*q)``.  Depends on ``lam`` only through
    its 2-core.
    """
    _check_sign(eps)
    core = two_core(lam)
    if core.size % 4 in (2, 3):
        return FieldDescriptor.adjoin_sqrt(eps)
    return FieldDescriptor.trivial()


def f0_extension_field(omega: FrobeniusClass, r: int, ell: int, q) -> FieldDescriptor:
    """Field generated over the ell-adics by a field-automorphism extension.

    The extension adjoins a root ``z`` with ``z**r = omega``; the result is
    trivial iff ``X**r - omega`` already has a root in the ell-adic field.
    """
    return FieldDescriptor.adjoin_root(r, omega).resolve(ell, q)


def extension_field_typeA(
    eps: int,
    lam,
    ell: int,
    q,
    r: int,
    rule: Callable[[Partition], FrobeniusClass] = default_omega_rule,
) -> FieldDescriptor:
    """Full extension field over the ell-adics in type A(eps*q).

    The compositum of the graph-automorphism part (a possible ``sqrt(eps*q)``)
    and the field-automorphism part (a root of ``X**r - omega``), computed
    symbolically and then resolved at (ell, q).  For ``eps = +1`` the
    eigenvalue class is ``1``; for ``eps = -1`` it is read off the 2-core.
    """
    _check_sign(eps)
    omega = (
        frobenius_class_typeA_twisted(lam, rule)
        if eps == -1
        else FrobeniusClass.ONE
    )
    symbolic = graph_extension_field_typeA(eps, lam).join(
        FieldDescriptor.adjoin_root(r, omega)
    )
    return symbolic.resolve(ell, q)


@dataclass(frozen=True)
class Prop75Case:
    """One partition checked against its d'-core."""

    partition: tuple
    core: tuple
    field_char: FieldDescriptor
    field_core: FieldDescriptor

    @property
    def equal(self) -> bool:
        return self.field_char == self.field_core


@dataclass(frozen=True)
class Prop75Report:
    """Sweep result: extension fields are constant along d'-cores."""

    eps: int
    n: int
    ell: int
    q: int
    r: int
    d_prime: int
    cases: tuple

    @property
    def passed(self) -> bool:
        return all(c.equal for c in self.cases)

    @property
    def failures(self) -> tuple:
        return tuple(c for c in self.cases if not c.equal)


def check_prop75(
    eps: int,
    n: int,
    ell: int,
    q,
    r: int = 1,
    rule: Callable[[Partition], FrobeniusClass] = default_omega_rule,
) -> Prop75Report:
    """For every partition of ``n``, compare its ell-adic extension field with
    that of its d'-core, where d' is the multiplicative order of ``eps*q``
    modulo ``ell``."""
    _check_sign(eps)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    qv = _q_value(q)
    d_prime = mult_order(eps * qv, ell)
    # Many partitions share a d'-core, and a partition that is its own core
    # is both: compute the field of each distinct partition once per call.
    by_parts: dict[tuple, FieldDescriptor] = {}

    def field(mu: Partition) -> FieldDescriptor:
        if mu.parts not in by_parts:
            by_parts[mu.parts] = extension_field_typeA(eps, mu, ell, qv, r, rule)
        return by_parts[mu.parts]

    cases = []
    for lam in partitions_of(n):
        core, _ = d_core(lam, d_prime)
        cases.append(
            Prop75Case(
                partition=lam.parts,
                core=core.parts,
                field_char=field(lam),
                field_core=field(core),
            )
        )
    return Prop75Report(
        eps=eps, n=n, ell=ell, q=qv, r=r, d_prime=d_prime, cases=tuple(cases)
    )


# --------------------------------------------------------------------------
# Curated table of cuspidal characters with irrational fields
# --------------------------------------------------------------------------

_DATA_RESOURCE = "data/cuspidal_fields.json"

# (q, ell) pairs used for the number-theoretic side checks: all odd primes
# ell < 50 against all prime powers q <= 9 coprime to ell.
_SWEEP_PRIMES = tuple(p for p in range(3, 50) if is_prime(p))
_SWEEP_QS = (2, 3, 4, 5, 7, 8, 9)


def load_cuspidal_field_data(path: str | None = None) -> dict:
    """Load the curated data file (or a caller-supplied replacement)."""
    if path is not None:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    text = (
        resources.files("charverify").joinpath(_DATA_RESOURCE).read_text("utf-8")
    )
    return json.loads(text)


@dataclass(frozen=True)
class Table1Report:
    """Consistency report for the curated cuspidal-field table."""

    rows_checked: int
    exceptions_checked: int
    numeric_checks: int
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


def _check_root_of_unity_row(row: dict, violations: list) -> int:
    """Every listed d must be divisible by the root order k, and zeta_k must
    be fixed by the subgroup of residues = 1 mod d (verified on the nose in
    the cyclotomic field of order lcm(k, d))."""
    k = row["field"]["order"]
    checks = 0
    for d in row["d_values"]:
        if d % k != 0:
            violations.append(
                f"{row['group']}: d = {d} not divisible by root order {k}"
            )
            continue
        n = math.lcm(k, d)
        zeta = root_of_unity(n, n // k)
        if not is_fixed_by(zeta, hd_subgroup(d, n)):
            violations.append(
                f"{row['group']}: zeta_{k} not fixed by the d = {d} subgroup"
            )
        checks += 1
    return checks


def _check_sqrt_row(
    row: dict, violations: list, *, sign: int, parity: str
) -> int:
    """Parity constraint on the listed d, plus the matching numeric fact:

    * sign -1, parity "2 mod 4": every d = 2 mod 4; and for every sweep pair
      (q, ell) with the order of q mod ell = 2 mod 4, sqrt(-q) is ell-adically
      rational;
    * sign +1, parity "odd": recorded d-parity is odd; and for every sweep
      pair with odd order, sqrt(q) is ell-adically rational.
    """
    checks = 0
    for d in row.get("d_values", ()):
        ok = d % 4 == 2 if parity == "2 mod 4" else d % 2 == 1
        if not ok:
            violations.append(
                f"{row['group']}: d = {d} violates parity '{parity}'"
            )
        checks += 1
    for ell in _SWEEP_PRIMES:
        for qv in _SWEEP_QS:
            if qv % ell == 0:
                continue
            d = mult_order(qv, ell)
            in_locus = d % 4 == 2 if parity == "2 mod 4" else d % 2 == 1
            if not in_locus:
                continue
            if not is_square_mod(sign * qv, ell):
                violations.append(
                    f"{row['group']}: sqrt({'-' if sign < 0 else ''}q) not "
                    f"ell-adically rational at q = {qv}, ell = {ell} "
                    f"(order {d})"
                )
            checks += 1
    return checks


def table1_consistency(data: dict | None = None) -> Table1Report:
    """Check the curated table of cuspidal characters with irrational fields.

    For each main row the field is either a root of unity zeta_k -- in which
    case every listed d must be a multiple of k (so zeta_k is fixed by all
    residues = 1 mod d) -- or sqrt(-q), in which case every listed d must be
    2 mod 4.  The exception characters carry field sqrt(q) and occur only for
    odd d.  Each parity constraint is re-verified against the matching
    number-theoretic fact on a sweep of (q, ell) pairs.
    """
    if data is None:
        data = load_cuspidal_field_data()
    violations: list[str] = []
    numeric = 0
    rows = data.get("rows")
    if not isinstance(rows, list) or not rows:
        raise ValueError("data file has no 'rows' list")
    for row in rows:
        kind = row["field"]["kind"]
        if kind == "root_of_unity":
            numeric += _check_root_of_unity_row(row, violations)
        elif kind == "sqrt" and row["field"]["sign"] == -1:
            numeric += _check_sqrt_row(
                row, violations, sign=-1, parity="2 mod 4"
            )
        else:
            violations.append(
                f"{row.get('group', '?')}: unexpected field kind {row['field']}"
            )
    exceptions = data.get("exceptions", [])
    for row in exceptions:
        if row["field"] != {"kind": "sqrt", "sign": 1}:
            violations.append(
                f"{row.get('group', '?')}: exception field must be sqrt(q)"
            )
            continue
        if row.get("d_parity") != "odd":
            violations.append(
                f"{row.get('group', '?')}: exception d-parity must be 'odd'"
            )
            continue
        numeric += _check_sqrt_row(row, violations, sign=1, parity="odd")
    return Table1Report(
        rows_checked=len(rows),
        exceptions_checked=len(exceptions),
        numeric_checks=numeric,
        violations=tuple(violations),
    )


# --------------------------------------------------------------------------
# Symbol eigenvalue classes along d-cores
# --------------------------------------------------------------------------


def frobenius_sign_symbol(S: SymbolBCD) -> int:
    """Two-valued (+1/-1) eigenvalue class attached to a two-row symbol.

    The class factors through the 1-core, equivalently through the defect
    (removing any hook moves an entry within its row, so row lengths and
    hence the defect never change).  Only this factoring is consumed by the
    consistency check below; the default puts -1 on defects 2 or 3 mod 4.
    """
    core = symbol_d_core(S, 1)
    return -1 if core.defect % 4 in (2, 3) else 1


@dataclass(frozen=True)
class Cor76Report:
    """Eigenvalue classes are constant along d-cores (d odd)."""

    d: int
    checked: int
    skipped: int
    mismatches: tuple

    @property
    def passed(self) -> bool:
        return not self.mismatches


def corollary76_consistency(
    pairs: Iterable[tuple[SymbolBCD, SymbolBCD]] | None = None,
    d: int = 3,
    *,
    rank_bound: int = 5,
    max_defect: int = 3,
) -> Cor76Report:
    """Check that the symbol eigenvalue class is constant on d-cores.

    With explicit ``pairs``, each pair sharing a d-core must get equal
    classes (pairs with different d-cores are vacuously skipped).  Without
    ``pairs``, sweeps every symbol of rank <= ``rank_bound`` and defect <=
    ``max_defect`` against its own d-core.  The check is stronger than the
    class comparison: the 1-cores themselves are required to agree, so any
    1-core-factoring value rule passes or fails together with the default.
    """
    if d <= 0 or d % 2 == 0:
        raise ValueError(f"d must be odd and positive, got {d}")
    if pairs is None:
        pairs = [
            (S, symbol_d_core(S, d))
            for rank in range(rank_bound + 1)
            for S in enumerate_symbols(rank, max_defect)
        ]
    checked = skipped = 0
    mismatches = []
    for S1, S2 in pairs:
        if symbol_d_core(S1, d) != symbol_d_core(S2, d):
            skipped += 1
            continue
        checked += 1
        same_core = symbol_d_core(S1, 1) == symbol_d_core(S2, 1)
        same_sign = frobenius_sign_symbol(S1) == frobenius_sign_symbol(S2)
        if not (same_core and same_sign):
            mismatches.append((S1, S2))
    return Cor76Report(
        d=d, checked=checked, skipped=skipped, mismatches=tuple(mismatches)
    )
