"""Finite Weyl groups of classical series and relative Weyl groups of
maximal eigenvalue spaces.

Elements are signed-permutation words: a word w of length r sends coordinate
i+1 to the signed coordinate w[i] (type A uses plain permutations of r+1
coordinates, encoded as all-positive words).  The twisted series are handled
as cosets: for twisted A the coset element acts as the negative of the
permutation matrix, so commutation and cycle data reduce to the plain word;
for twisted D the coset is the odd-sign-change part of the full
signed-permutation group.

The characteristic polynomial on the reflection representation is a product
of cyclotomic-friendly blocks, one per signed cycle (q^c - 1 for a positive
c-cycle, q^c + 1 for a negative one; type A divides out the summand carried
by the all-ones vector).  The zeta_d-eigenvalue multiplicity of an element is
the Phi_d-valuation of that polynomial, available both by exact polynomial
division and by a divisor-counting shortcut (the two are cross-checked in
tests).

For each d, a canonical element with maximal multiplicity is constructed
from cycles of the appropriate length and sign; its centralizer is computed
by a commutation scan, tabulated by Burnside-Dixon, and identified by its
fingerprint (order, sorted degrees, sorted (class size, element order)
pairs) with the predicted product of wreath products C_b wr S_k.  That
fingerprint is read off the factors' cached Murnaghan-Nakayama tables in
series A and B/C, and comes from Dixon on the explicitly built even part of
the product in series D.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .grouptable import CharacterTable, FiniteGroup
from .qpoly import QPolynomial, phi_d_valuation
from .wreath import get_full_group, get_table

SERIES = ("A", "B", "C", "D")


def _canon_series(series: str) -> str:
    s = series.upper()
    if s not in SERIES:
        raise ValueError(f"unknown series {series!r}")
    return "B" if s == "C" else s


def _check_rank(series: str, r: int) -> None:
    low = {"A": 1, "B": 1, "D": 2}[series]
    if r < low:
        raise ValueError(f"rank {r} too small for series {series}")


# ---------------------------------------------------------------------------
# signed-permutation words
# ---------------------------------------------------------------------------


def sp_identity(n: int) -> tuple:
    return tuple(range(1, n + 1))


def sp_mul(u: tuple, v: tuple) -> tuple:
    """(u o v)(i) = u(v(i)), signs multiplying through."""
    return tuple(u[j - 1] if j > 0 else -u[-j - 1] for j in v)


def sp_cycles(w: tuple) -> tuple:
    """Signed cycle type: sorted (length, sign) pairs, sign = product along
    the cycle."""
    n = len(w)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        length, sign, i = 0, 1, start
        while not seen[i]:
            seen[i] = True
            img = w[i]
            if img < 0:
                sign = -sign
            i = abs(img) - 1
            length += 1
        out.append((length, sign))
    return tuple(sorted(out, reverse=True))


def _flip_count(w: tuple) -> int:
    return sum(1 for x in w if x < 0)


@lru_cache(maxsize=None)
def _plain_words(n: int) -> tuple:
    return tuple(
        tuple(p) for p in itertools.permutations(range(1, n + 1))
    )


@lru_cache(maxsize=None)
def _signed_words(r: int) -> tuple:
    out = []
    for p in itertools.permutations(range(1, r + 1)):
        for signs in itertools.product((1, -1), repeat=r):
            out.append(tuple(s * x for s, x in zip(signs, p)))
    return tuple(out)


def group_elements(series: str, r: int) -> tuple:
    """The underlying untwisted Weyl group, as words."""
    series = _canon_series(series)
    _check_rank(series, r)
    if series == "A":
        return _plain_words(r + 1)
    if series == "B":
        return _signed_words(r)
    return tuple(w for w in _signed_words(r) if _flip_count(w) % 2 == 0)


def coset_elements(series: str, r: int, twisted: bool) -> tuple:
    """The words parameterizing the (possibly twisted) coset being scanned."""
    series = _canon_series(series)
    if not twisted:
        return group_elements(series, r)
    if series == "A":
        return _plain_words(r + 1)  # the coset element acts as -P(word)
    if series == "D":
        return tuple(w for w in _signed_words(r) if _flip_count(w) % 2 == 1)
    raise ValueError(f"series {series} has no graph twist here")


def weyl_order(series: str, r: int) -> int:
    series = _canon_series(series)
    _check_rank(series, r)
    if series == "A":
        return math.factorial(r + 1)
    if series == "B":
        return 2**r * math.factorial(r)
    return 2 ** (r - 1) * math.factorial(r)


@lru_cache(maxsize=None)
def weyl_group(series: str, r: int) -> FiniteGroup:
    """The untwisted Weyl group as an explicit FiniteGroup of words."""
    series = _canon_series(series)
    elements = group_elements(series, r)
    n = len(elements[0])
    gens = _weyl_generators(series, r)
    return FiniteGroup(
        elements, sp_mul, sp_identity(n), generators=gens, name=f"W({series}{r})"
    )


def _weyl_generators(series: str, r: int) -> list:
    n = r + 1 if series == "A" else r
    gens = []
    for i in range(n - 1):
        w = list(sp_identity(n))
        w[i], w[i + 1] = w[i + 1], w[i]
        gens.append(tuple(w))
    if series == "B":
        w = list(sp_identity(n))
        w[-1] = -w[-1]
        gens.append(tuple(w))
    elif series == "D":
        if r >= 2:
            w = list(sp_identity(n))
            w[-2], w[-1] = -w[-1], -w[-2]
            gens.append(tuple(w))
    return gens


# ---------------------------------------------------------------------------
# characteristic polynomials on the reflection representation
# ---------------------------------------------------------------------------


def reflection_charpoly(series: str, r: int, twisted: bool, w: tuple) -> QPolynomial:
    """Exact characteristic polynomial of (the coset element of) w."""
    series = _canon_series(series)
    poly = QPolynomial([1])
    q = QPolynomial.monomial(1)
    one = QPolynomial([1])
    for c, sign in sp_cycles(w):
        if series == "A" and twisted:
            # block of -P on a c-cycle: q^c - (-1)^c
            block = q**c - one if c % 2 == 0 else q**c + one
        else:
            block = q**c - one if sign > 0 else q**c + one
        poly = poly * block
    if series == "A":
        poly = poly.exact_div(q + one if twisted else q - one)
    return poly


def eigen_multiplicity(series: str, r: int, twisted: bool, w: tuple, d: int) -> int:
    """Multiplicity of primitive d-th roots of unity as eigenvalues of w,
    by divisor counting on the signed cycle blocks."""
    series = _canon_series(series)
    if d < 1:
        raise ValueError("d must be positive")
    return _type_multiplicity(series, twisted, sp_cycles(w), d)


def _type_multiplicity(series: str, twisted: bool, cycles: tuple, d: int) -> int:
    """The zeta_d-eigenvalue multiplicity shared by every element of the
    signed cycle type ``cycles`` (series canonical, d positive)."""
    total = 0
    for c, sign in cycles:
        if series == "A" and twisted:
            negative = c % 2 == 1
        else:
            negative = sign < 0
        if negative:
            total += 1 if (2 * c) % d == 0 and c % d != 0 else 0
        else:
            total += 1 if c % d == 0 else 0
    if series == "A":
        total -= 1 if d == (2 if twisted else 1) else 0
    return total


def max_eigen_multiplicity(series: str, r: int, twisted: bool, d: int) -> int:
    """a(d): the largest zeta_d-eigenspace dimension over the coset."""
    series = _canon_series(series)
    if d < 1:
        raise ValueError("d must be positive")
    return max(
        _type_multiplicity(series, twisted, cycles, d)
        for cycles in _coset_cycle_types(series, r, twisted)
    )


@lru_cache(maxsize=None)
def _coset_cycle_types(series: str, r: int, twisted: bool) -> tuple:
    """The distinct signed cycle types over the coset, from one scan of
    every element; the multiplicity depends on an element only through
    its type."""
    return tuple(sorted({sp_cycles(w) for w in coset_elements(series, r, twisted)}))


def generic_degrees(series: str, r: int, twisted: bool) -> list[tuple[int, int]]:
    """(degree, sign) pairs so the generic order is prod (q^d_i - eps_i)."""
    series = _canon_series(series)
    _check_rank(series, r)
    if series == "A":
        degs = list(range(2, r + 2))
        if twisted:
            return [(d, 1 if d % 2 == 0 else -1) for d in degs]
        return [(d, 1) for d in degs]
    if series == "B":
        if twisted:
            raise ValueError("series B/C has no graph twist here")
        return [(2 * i, 1) for i in range(1, r + 1)]
    pairs = [(2 * i, 1) for i in range(1, r)]
    pairs.append((r, -1 if twisted else 1))
    return pairs


@lru_cache(maxsize=None)
def generic_order_phid_valuation(series: str, r: int, twisted: bool, d: int) -> int:
    """Phi_d-valuation of prod (q^d_i - eps_i), computed exactly, once."""
    poly = QPolynomial([1])
    q = QPolynomial.monomial(1)
    one = QPolynomial([1])
    for deg, eps in generic_degrees(series, r, twisted):
        poly = poly * (q**deg - one if eps == 1 else q**deg + one)
    return phi_d_valuation(poly, d)


# ---------------------------------------------------------------------------
# canonical d-regular elements
# ---------------------------------------------------------------------------


def _word_from_cycles(n: int, cycles: list[tuple[int, int]]) -> tuple:
    w = list(sp_identity(n))
    pos = 0
    for c, sign in cycles:
        if pos + c > n:
            raise ValueError("cycles exceed available coordinates")
        for i in range(c - 1):
            w[pos + i] = pos + i + 2
        w[pos + c - 1] = sign * (pos + 1)
        pos += c
    return tuple(w)


def _twisted_a_block_length(d: int) -> int:
    """Order of -zeta_d: the cycle length carrying primitive d-th eigenvalues
    of -P(w)."""
    if d % 2 == 1:
        return 2 * d
    if d % 4 == 2:
        return d // 2
    return d


def canonical_regular_word(series: str, r: int, twisted: bool, d: int) -> tuple:
    """A coset element whose zeta_d-eigenspace attains the maximal dimension.

    Raises ValueError when Phi_d does not divide the generic order (no such
    eigenvalue occurs on the coset).
    """
    series = _canon_series(series)
    a_d = generic_order_phid_valuation(series, r, twisted, d)
    if a_d == 0:
        twist_note = " (twisted)" if twisted else ""
        raise ValueError(
            f"Phi_{d} does not divide the generic order of {series}{r}{twist_note}"
        )
    if series == "A":
        n = r + 1
        e = _twisted_a_block_length(d) if twisted else d
        a = n // e
        return _word_from_cycles(n, [(e, 1)] * a)
    # B/C/D: positive d-cycles for odd d, negative d/2-cycles for even d
    if d % 2 == 1:
        c, sign = d, 1
    else:
        c, sign = d // 2, -1
    a = r // c
    cycles = [(c, sign)] * a
    leftover = r - a * c
    if series == "D":
        target = 1 if twisted else 0
        if sum(1 for _, s in cycles if s < 0) % 2 != target:
            if leftover >= 1:
                cycles.append((1, -1))
                leftover -= 1
            else:
                cycles.pop()
                leftover += c
                if sum(1 for _, s in cycles if s < 0) % 2 != target:
                    cycles.append((1, -1))
                    leftover -= 1
    return _word_from_cycles(r, cycles)


# ---------------------------------------------------------------------------
# relative Weyl groups: computed centralizers vs predicted products
# ---------------------------------------------------------------------------


def _generating_set(elements, mul, identity) -> list:
    """A small generating set, found greedily with closure recomputation."""
    gens: list = []
    span = {identity}
    for g in sorted(elements):
        if g in span:
            continue
        gens.append(g)
        frontier = list(span)
        while frontier:
            x = frontier.pop()
            for h in gens:
                y = mul(x, h)
                if y not in span:
                    span.add(y)
                    frontier.append(y)
        if len(span) == len(elements):
            break
    return gens if gens else [identity]


def centralizer_group(series: str, r: int, twisted: bool, x: tuple) -> FiniteGroup:
    """C_W(x) for a coset element x, as an explicit FiniteGroup.

    For twisted A the coset element is -P(x) and the sign commutes with
    everything, so the condition reduces to commutation of words; in every
    series the twist only names the coset x lies in.  The group is cached
    on (series, rank, word) and, below the whole group, on its element set,
    so a repeated centralizer is the same object and its character table
    (keyed on the group in ``_dixon_of``) is built once.
    """
    return _centralizer_of_word(_canon_series(series), r, x)


@lru_cache(maxsize=None)
def _centralizer_of_word(series: str, r: int, x: tuple) -> FiniteGroup:
    elements = group_elements(series, r)
    cent = tuple(sorted(w for w in elements if sp_mul(w, x) == sp_mul(x, w)))
    if len(cent) == len(elements):
        return weyl_group(series, r)
    return _word_group(cent)


@lru_cache(maxsize=None)
def _word_group(elements: tuple) -> FiniteGroup:
    """The group on a sorted tuple of signed-permutation words: one object
    per element set, so words with equal centralizers share a group (and
    its character table in ``_dixon_of``)."""
    n = len(elements[0])
    gens = _generating_set(elements, sp_mul, sp_identity(n))
    return FiniteGroup(
        elements, sp_mul, sp_identity(n), generators=gens, name=f"C({len(elements)})"
    )


@lru_cache(maxsize=None)
def _product_group(factors: tuple[FiniteGroup, ...], even_part: bool = False) -> FiniteGroup:
    """Direct product of wreath-product factors, optionally cut to the
    subgroup where the total color sum is even.  Cached like
    ``centralizer_group``; the factors are the cached wreath groups.  The
    even part is the series-D prediction; the full product is the oracle
    of ``_wreath_product_fingerprint``."""

    def mul(x, y):
        return tuple(g.mul(xg, yg) for g, xg, yg in zip(factors, x, y))

    def parity(x):
        return sum(sum(comp[0]) for comp in x) % 2

    identity = tuple(g.identity for g in factors)
    elements = [
        tup
        for tup in itertools.product(*[g.elements for g in factors])
        if not even_part or parity(tup) == 0
    ]
    if even_part:
        gens = _generating_set(elements, mul, identity)
    else:
        gens = []
        for i, g in enumerate(factors):
            for gen in g.generators or []:
                embedded = list(identity)
                embedded[i] = gen
                gens.append(tuple(embedded))
        if not gens:
            gens = [identity]
    return FiniteGroup(elements, mul, identity, generators=gens)


def _predicted_factors(series: str, r: int, twisted: bool, d: int) -> list:
    """(b, k) for each factor C_b wr S_k of the predicted relative Weyl
    group, in the order of the sorted signed cycle types of the canonical
    word: k c-cycles give b = c in series A and b = 2c otherwise (series
    canonical)."""
    word = canonical_regular_word(series, r, twisted, d)
    base = 1 if series == "A" else 2
    return [(base * c, k) for (c, _), k in sorted(_multiset(sp_cycles(word)).items())]


def predicted_relative_weyl(series: str, r: int, twisted: bool, d: int) -> tuple:
    """The fingerprint, as in :func:`group_fingerprint`, of the
    combinatorial model of the centralizer: the product of the
    ``_predicted_factors`` (its even part in series D)."""
    series = _canon_series(series)
    factors = _predicted_factors(series, r, twisted, d)
    if series == "D":
        groups = tuple(get_full_group(b, k) for b, k in factors)
        return group_fingerprint(_product_group(groups, True))
    return _wreath_product_fingerprint(factors)


def _wreath_product_fingerprint(factors) -> tuple:
    """Fingerprint of the direct product of C_b wr S_k over the (b, k) in
    ``factors``, from the factors' Murnaghan-Nakayama tables: irreducible
    degrees and class sizes multiply, element orders combine by lcm."""
    order, degrees, classes = 1, [1], [(1, 1)]
    for b, k in factors:
        table = get_table(b, k)
        order *= b**k * math.factorial(k)
        degrees = [x * y for x in degrees for y in table.degrees]
        pairs = [(s, cls.element_order(b)) for s, cls in zip(table.class_sizes, table.classes)]
        classes = [(s * t, math.lcm(o, p)) for s, o in classes for t, p in pairs]
    return order, tuple(sorted(degrees)), tuple(sorted(classes))


def relative_weyl_descriptor(series: str, r: int, twisted: bool, d: int) -> str:
    """Human-readable shape of the predicted relative Weyl group."""
    series = _canon_series(series)
    parts = []
    for base, mult in reversed(_predicted_factors(series, r, twisted, d)):
        if base == 1:
            parts.append(f"S_{mult}")
        elif mult == 1:
            parts.append(f"C_{base}")
        else:
            parts.append(f"C_{base} wr S_{mult}")
    body = " x ".join(parts) if parts else "1"
    if series == "D":
        return f"even part of {body}"
    return body


def _multiset(items):
    out = {}
    for x in items:
        out[x] = out.get(x, 0) + 1
    return out


@lru_cache(maxsize=None)
def _dixon_of(group: FiniteGroup) -> CharacterTable:
    return CharacterTable.dixon(group)


def group_fingerprint(group: FiniteGroup) -> tuple:
    """(order, sorted irreducible degrees, sorted (class size,
    representative order) pairs) -- the identification invariant."""
    table = _dixon_of(group)
    return (
        group.order,
        tuple(sorted(table.degrees)),
        tuple(sorted(zip(table.class_sizes, table.class_orders))),
    )


def character_values_hd_fixed(table: CharacterTable, d: int) -> bool:
    """Whether every value of every character is fixed by all sigma_k with
    k = 1 mod d (one pass over the table's value array)."""
    return bool(table.hd_fixed_rows(d).all())


@dataclass(frozen=True)
class RelativeWeylReport:
    series: str
    rank: int
    twisted: bool
    d: int
    eigenspace_dim: int  # a(d) by coset scan
    order_valuation: int  # Phi_d-valuation of the generic order
    canonical_dim: int  # eigenspace dim of the constructed element
    computed_order: int
    predicted_order: int
    fingerprint_match: bool
    characters_hd_fixed: bool
    descriptor: str

    @property
    def consistent(self) -> bool:
        return (
            self.eigenspace_dim == self.order_valuation == self.canonical_dim
            and self.computed_order == self.predicted_order
            and self.fingerprint_match
            and self.characters_hd_fixed
        )


def analyze_relative_weyl(series: str, r: int, twisted: bool, d: int) -> RelativeWeylReport:
    """Run every check for one (series, rank, twist, d): eigenvalue counts by
    scan / generic order / canonical element, centralizer vs predicted
    fingerprints, and Galois stability of the centralizer's characters."""
    series_c = _canon_series(series)
    a_scan = max_eigen_multiplicity(series_c, r, twisted, d)
    a_order = generic_order_phid_valuation(series_c, r, twisted, d)
    word = canonical_regular_word(series_c, r, twisted, d)
    a_word = eigen_multiplicity(series_c, r, twisted, word, d)
    computed = centralizer_group(series_c, r, twisted, word)
    fp_c = group_fingerprint(computed)
    fp_p = predicted_relative_weyl(series_c, r, twisted, d)
    hd_ok = character_values_hd_fixed(_dixon_of(computed), d)
    return RelativeWeylReport(
        series=series.upper(),
        rank=r,
        twisted=twisted,
        d=d,
        eigenspace_dim=a_scan,
        order_valuation=a_order,
        canonical_dim=a_word,
        computed_order=computed.order,
        predicted_order=fp_p[0],
        fingerprint_match=fp_c == fp_p,
        characters_hd_fixed=hd_ok,
        descriptor=relative_weyl_descriptor(series_c, r, twisted, d),
    )


def relevant_d_values(series: str, r: int, twisted: bool) -> list[int]:
    """All d with a(d) >= 1, read from the generic order polynomial."""
    series = _canon_series(series)
    top = 2 * max(deg for deg, _ in generic_degrees(series, r, twisted))
    return [
        d
        for d in range(1, top + 1)
        if generic_order_phid_valuation(series, r, twisted, d) >= 1
    ]
