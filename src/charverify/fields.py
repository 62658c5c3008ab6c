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
  constancy is ever used);
* ``check_prop75``: for every partition of ``n``, the full extension field
  over the ell-adics equals that of its d'-core, where d' is the order of
  ``eps*q`` modulo ``ell``;
* ``table1_consistency``: structural and number-theoretic checks on the
  curated table of cuspidal unipotent characters with irrational fields
  (shipped as ``data/cuspidal_fields.json``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from importlib import resources
from typing import Callable

import numpy as np

from .cyclotomic import galois_fixed_rows
from .ladic import (
    PrimePower,
    hd_residues,
    is_prime,
    is_square_mod,
    mult_order,
    root_exists_for_integer,
)
from .partitions import Partition, _partition_objects, _partitions_of, d_core, two_core

__all__ = [
    "FrobeniusClass",
    "FieldDescriptor",
    "default_omega_rule",
    "frobenius_class_typeA_twisted",
    "graph_extension_field_typeA",
    "extension_field_typeA",
    "Prop75Case",
    "Prop75Report",
    "check_prop75",
    "load_cuspidal_field_data",
    "Table1Report",
    "table1_consistency",
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

        ``ell`` must be an odd prime not dividing ``q`` (ValueError
        otherwise, for every descriptor) and, for root parts, not dividing
        the root index -- the tame case.  Resolution only ever
        removes parts, so it is idempotent and monotone: supplying (ell, q)
        data never un-trivializes a descriptor.  Memoized on (descriptor,
        ell, value of q).
        """
        return _resolve(self, ell, _q_value(q))

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


@lru_cache(maxsize=None)
def _resolve(desc: FieldDescriptor, ell: int, qv: int) -> FieldDescriptor:
    if ell == 2 or not is_prime(ell) or qv % ell == 0:
        raise ValueError(f"ell must be an odd prime not dividing q, got ell = {ell}, q = {qv}")
    kept = []
    for part in sorted(desc.parts, key=repr):
        if part[0] == "sqrt":
            if not is_square_mod(part[1] * qv, ell):
                kept.append(part)
        else:
            _, r, omega_tag = part
            value = FrobeniusClass(omega_tag).integer_value(qv)
            if not root_exists_for_integer(r, value, ell):
                kept.append(part)
    return FieldDescriptor(frozenset(kept))


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

    The symbolic field is memoized on (eps, full parts of ``lam``, r, rule),
    so ``rule`` must be a pure function of its partition.  Nothing is keyed
    on the 2-core: prop75 compares partitions that share a 2-core, and such
    a key would make it hold by construction.
    """
    _check_sign(eps)
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    return _symbolic_field(eps, lam.parts, r, rule).resolve(ell, q)


@lru_cache(maxsize=None)
def _symbolic_field(
    eps: int, parts: tuple, r: int, rule: Callable[[Partition], FrobeniusClass]
) -> FieldDescriptor:
    """The unresolved compositum of ``extension_field_typeA``."""
    lam = Partition(parts)
    omega = (
        frobenius_class_typeA_twisted(lam, rule)
        if eps == -1
        else FrobeniusClass.ONE
    )
    return graph_extension_field_typeA(eps, lam).join(
        FieldDescriptor.adjoin_root(r, omega)
    )


# Interned fields, symbolic and resolved: ``_FIELDS[_FIELD_IDS[f]] == f``.
# prop75 groups partitions and compares fields by these integer ids.
_FIELDS: list[FieldDescriptor] = []
_FIELD_IDS: dict[FieldDescriptor, int] = {}


def _field_id(desc: FieldDescriptor) -> int:
    fid = _FIELD_IDS.get(desc)
    if fid is None:
        fid = _FIELD_IDS[desc] = len(_FIELDS)
        _FIELDS.append(desc)
    return fid


@lru_cache(maxsize=None)
def _symbolic_classes(
    eps: int, size: int, r: int, rule: Callable[[Partition], FrobeniusClass]
) -> tuple[tuple[int, tuple[tuple, ...]], ...]:
    """The partitions of ``size`` grouped by their symbolic field
    ``_symbolic_field(eps, parts, r, rule)``: (interned id of the field,
    full parts of each partition with that field) pairs."""
    groups: dict[FieldDescriptor, list] = {}
    for parts in _partitions_of(size):
        groups.setdefault(_symbolic_field(eps, parts, r, rule), []).append(parts)
    return tuple((_field_id(desc), tuple(members)) for desc, members in groups.items())


@lru_cache(maxsize=None)
def _resolved_id(fid: int, ell: int, qv: int) -> int:
    """The interned id of the ell-adic resolution of the field ``fid``."""
    return _field_id(_resolve(_FIELDS[fid], ell, qv))


@dataclass(frozen=True)
class Prop75Case:
    """One partition checked against its d'-core."""

    partition: tuple
    core: tuple
    field_char: FieldDescriptor
    field_core: FieldDescriptor


@dataclass(frozen=True)
class Prop75Report:
    """Sweep result: extension fields are constant along d'-cores.

    Holds the partitions of ``n``, their d'-cores, the interned field id of
    every partition met (by parts) and the indices of the ``failed``
    partitions; the :class:`Prop75Case` objects are built only for
    ``failures`` and on first access to ``cases``."""

    eps: int
    n: int
    ell: int
    q: int
    r: int
    d_prime: int
    partitions: tuple = field(repr=False)
    cores: tuple = field(repr=False)
    field_ids: dict = field(repr=False, compare=False)
    failed: tuple = field(repr=False)

    @property
    def checked(self) -> int:
        """Number of partitions compared with their cores."""
        return len(self.partitions)

    @property
    def passed(self) -> bool:
        return not self.failed

    def _case(self, i: int) -> Prop75Case:
        lam, core = self.partitions[i].parts, self.cores[i].parts
        return Prop75Case(
            partition=lam,
            core=core,
            field_char=_FIELDS[self.field_ids[lam]],
            field_core=_FIELDS[self.field_ids[core]],
        )

    @cached_property
    def cases(self) -> tuple:
        return tuple(self._case(i) for i in range(self.checked))

    @property
    def failures(self) -> tuple:
        return tuple(self._case(i) for i in self.failed)


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
    modulo ``ell``.  Each core comes from :func:`d_core` on every call.  The
    fields of all partitions of ``n`` and of each core size met are read
    into one table by full parts, from the partitions grouped by symbolic
    field (memoized per (eps, size, r, rule)) and each group's resolution
    (memoized per (symbolic field, ell, q)); they are compared as interned
    ids.  ``rule`` must be pure: fields are memoized
    on it (see :func:`extension_field_typeA`)."""
    _check_sign(eps)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    qv = _q_value(q)
    d_prime = mult_order(eps * qv, ell)
    # Field ids by full parts, for every partition of n and of each core
    # size met.
    ids: dict[tuple, int] = {}

    def read_table(size: int) -> None:
        for fid, members in _symbolic_classes(eps, size, r, rule):
            ids.update(dict.fromkeys(members, _resolved_id(fid, ell, qv)))

    read_table(n)
    partitions = _partition_objects(n)
    cores = []
    failed = []
    for i, lam in enumerate(partitions):
        core, _ = d_core(lam, d_prime)
        cores.append(core)
        core_id = ids.get(core.parts)
        if core_id is None:
            read_table(core.size)
            core_id = ids[core.parts]
        if ids[lam.parts] != core_id:
            failed.append(i)
    return Prop75Report(
        eps=eps,
        n=n,
        ell=ell,
        q=qv,
        r=r,
        d_prime=d_prime,
        partitions=partitions,
        cores=tuple(cores),
        field_ids=ids,
        failed=tuple(failed),
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
    be fixed by the subgroup of residues = 1 mod d (verified by
    ``galois_fixed_rows`` on zeta_k as a one-entry value array, the
    subgroup acting through its residues mod k)."""
    k = row["field"]["order"]
    zeta = np.zeros((1, 1, k), dtype=np.int8)
    zeta[0, 0, 1 % k] = 1
    checks = 0
    for d in row["d_values"]:
        if d % k != 0:
            violations.append(
                f"{row['group']}: d = {d} not divisible by root order {k}"
            )
            continue
        if not galois_fixed_rows(zeta, hd_residues(k, d)).all():
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
