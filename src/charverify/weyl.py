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
the Phi_d-valuation of that polynomial, computed here by divisor counting on
the signed cycle blocks; the polynomial itself, with exact division, is the
oracle in the tests (``reflection_charpoly`` in ``tests/scalar_oracles.py``).
The multiplicity is additive over the cycles, so the largest one over a
coset, a(d), is a knapsack over cycle lengths that lists no cycle type;
listing the coset's signed cycle types from partitions, and the scan over
every word of the coset, are the tests' oracles.

The groups themselves are ``grouptable.ColoredPermGroup`` arrays: a word is
a colored permutation with m = 2 (m = 1 in type A), so W is a permutation
array and a sign array, rows in the order of the sorted words.  For each d,
a canonical element with maximal multiplicity is constructed from cycles of
the appropriate length and sign; its centralizer is cut out of W by one
vectorized commutation test (wx and xw for every row w, as two gathers, a
row chunk of W at a time), tabulated by Burnside-Dixon, and identified by
its fingerprint (order, sorted degrees, sorted (class size, element order)
pairs) with the predicted product of wreath products C_b wr S_k.

Both fingerprints come from one product helper (``_product_fingerprint``):
orders and degrees multiply, and a class of a direct product has the
product of the class sizes and the lcm of the element orders.  The
predicted one reads the factors' cached Murnaghan-Nakayama tables in
series A and B/C, and in series D Dixon on the even part of the product,
built as arrays.  The computed one reads the Dixon tables of the
centralizer's orbit factors (``_orbit_factors``): the projections onto its
point orbits, each relabelled 0..k-1, when the group is their direct
product (their orders multiply to |G|), and otherwise the group alone.
Its characters are H_d-fixed exactly when every factor's are.  Dixon
tables are cached on the element set (``ColoredPermGroup.element_set``),
so equal groups in different encodings (a centralizer and the even
product it equals, a factor that recurs across cells) share one table.
``sp_mul``, one word product at a time, is the tests' oracle.  A Weyl
group above ``grouptable.MAX_GROUP_ORDER`` is refused, from its order,
before any word is listed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclotomic import _row_chunks
from .grouptable import (
    _ROW_ARRAYS,
    CharacterTable,
    ColoredPermGroup,
    _check_group_order,
    _permutations,
)
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


class _Words:
    """Signed-permutation words of length n as colored permutations
    (m = 2, or m = 1 for the plain words of type A): w[i] = +-(perm[i] + 1),
    negative exactly when color[i] = 1, and words sort by their entries."""

    def __init__(self, n: int):
        self.n = n
        self.radices = (2 * n,) * n

    def digits(self, perm, color):
        return np.where(color == 0, self.n + perm, self.n - 1 - perm)

    def encode(self, w: tuple):
        return [abs(x) - 1 for x in w], [int(x < 0) for x in w]

    def decode(self, perm, color) -> tuple:
        return tuple(-(p + 1) if c else p + 1 for p, c in zip(perm.tolist(), color.tolist()))


def _check_weyl_order(series: str, r: int) -> None:
    """Refuse, before listing it, a Weyl group above the cap on explicit
    groups (series canonical)."""
    _check_group_order(weyl_order(series, r), f"W({series}{r})")


def weyl_order(series: str, r: int) -> int:
    series = _canon_series(series)
    _check_rank(series, r)
    if series == "A":
        return math.factorial(r + 1)
    if series == "B":
        return 2**r * math.factorial(r)
    return 2 ** (r - 1) * math.factorial(r)


@lru_cache(maxsize=None)
def weyl_group(series: str, r: int) -> ColoredPermGroup:
    """The untwisted Weyl group as colored-permutation arrays of words."""
    series = _canon_series(series)
    _check_weyl_order(series, r)
    n = r + 1 if series == "A" else r
    perms = _permutations(n)
    if series == "A":
        perm, color, m = perms, np.zeros_like(perms), 1
    else:
        signs = np.indices((2,) * n).reshape(n, -1).T
        if series == "D":
            signs = signs[signs.sum(axis=1) % 2 == 0]
        perm = np.repeat(perms, len(signs), axis=0)
        color, m = np.tile(signs, (len(perms), 1)), 2
    return ColoredPermGroup(
        perm, color, m, _Words(n), generators=_weyl_generators(series, r),
        name=f"W({series}{r})",
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


def eigen_multiplicity(series: str, twisted: bool, w: tuple, d: int) -> int:
    """Multiplicity of primitive d-th roots of unity as eigenvalues of w,
    by divisor counting on the signed cycle blocks."""
    series = _canon_series(series)
    if d < 1:
        raise ValueError("d must be positive")
    return _type_multiplicity(series, twisted, sp_cycles(w), d)


def _type_multiplicity(series: str, twisted: bool, cycles: tuple, d: int) -> int:
    """The zeta_d-eigenvalue multiplicity shared by every element of the
    signed cycle type ``cycles`` (series canonical, d positive)."""
    return sum(
        _cycle_multiplicity(series, twisted, c, sign, d) for c, sign in cycles
    ) - _summand_multiplicity(series, twisted, d)


def _cycle_multiplicity(series: str, twisted: bool, c: int, sign: int, d: int) -> int:
    """The zeta_d-eigenvalue multiplicity of one signed c-cycle block: one
    when Phi_d divides q^c - 1 (positive) or q^c + 1 (negative), else none.
    In twisted A the matrix is negated, so the odd cycles count as negative."""
    negative = c % 2 == 1 if series == "A" and twisted else sign < 0
    if negative:
        return int((2 * c) % d == 0 and c % d != 0)
    return int(c % d == 0)


def _summand_multiplicity(series: str, twisted: bool, d: int) -> int:
    """Type A divides out the summand carried by the all-ones vector, whose
    eigenvalue is 1 (-1 in the twisted coset)."""
    return int(series == "A" and d == (2 if twisted else 1))


def max_eigen_multiplicity(series: str, r: int, twisted: bool, d: int) -> int:
    """a(d): the largest zeta_d-eigenspace dimension over the coset.

    The multiplicity is a sum over the cycles of a signed cycle type, so
    a(d) is a knapsack over cycle lengths, O(r^2) with no type listed:
    best[s, q] is the largest sum over the signed cycle types of s points
    with q negative cycles mod 2.  Type A fills r + 1 points with positive
    cycles, B/C r points with cycles of either sign, and D keeps an even
    number of negative cycles, an odd number in the twisted coset."""
    series = _canon_series(series)
    if d < 1:
        raise ValueError("d must be positive")
    _check_rank(series, r)
    if series == "B" and twisted:
        raise ValueError("series B/C has no graph twist here")
    n = r + 1 if series == "A" else r
    gain = np.array(
        [[_cycle_multiplicity(series, twisted, c, sign, d) for c in range(1, n + 1)]
         for sign in (1, -1)],
        dtype=float,
    )
    if series == "A":
        gain[1] = -np.inf
    best = np.full((n + 1, 2), -np.inf)
    best[0, 0] = 0
    for s in range(1, n + 1):
        before = best[s - 1 :: -1]  # best[s - c] for c = 1, ..., s
        best[s] = np.maximum(
            (before + gain[0, :s, None]).max(axis=0),
            (before[:, ::-1] + gain[1, :s, None]).max(axis=0),
        )
    top = best[n, int(twisted)] if series == "D" else best[n].max()
    return int(top) - _summand_multiplicity(series, twisted, d)


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
    """Phi_d-valuation of prod (q^deg - eps), read off the degrees:
    q^deg - 1 is the product of Phi_e over e | deg, and q^deg + 1 that over
    e | 2 deg with e not dividing deg.  ValueError unless d >= 1."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    return sum(
        deg % d == 0 if eps == 1 else (2 * deg % d == 0 and deg % d != 0)
        for deg, eps in generic_degrees(series, r, twisted)
    )


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


def centralizer_group(series: str, r: int, x: tuple) -> ColoredPermGroup:
    """C_W(x) for a coset element x, as colored-permutation arrays.

    For twisted A the coset element is -P(x) and the sign commutes with
    everything, so the condition reduces to commutation of words; in every
    series the twist only names the coset x lies in, and the centralizer
    of a twisted-coset element is that of its word.  The group is cached
    on (series, rank, word); centralizers of different words that are one
    set of colored permutations are equal groups, so ``_dixon_of`` builds
    one table for them.
    """
    return _centralizer_of_word(_canon_series(series), r, x)


@lru_cache(maxsize=None)
def _centralizer_of_word(series: str, r: int, x: tuple) -> ColoredPermGroup:
    """One commutation test over all of W, wx and xw as two gathers, in the
    row chunks of the group passes (``cyclotomic._row_chunks``)."""
    group = weyl_group(series, r)
    px, cx = (np.array(v) for v in group.encoding.encode(x))
    P, C = group.perm, group.color
    commute = np.empty(group.order, dtype=bool)
    for s in _row_chunks(group.order, _ROW_ARRAYS * P.shape[1]):
        commute[s] = (P[s][:, px] == px[P[s]]).all(axis=1) & (
            (cx + C[s][:, px]) % group.m == (C[s] + cx[P[s]]) % group.m
        ).all(axis=1)
    if commute.all():
        return group
    return group.subgroup(commute, name=f"C({commute.sum()})")


class _Points:
    """Colored permutations of n points with colors mod m as themselves,
    the digit of point j being perm[j] m + color[j]: the encoding of the
    orbit factors, which are built from arrays and get no generators."""

    def __init__(self, n: int, m: int):
        self.m = m
        self.radices = (n * m,) * n

    def digits(self, perm, color):
        return perm * self.m + color

    def decode(self, perm, color) -> tuple:
        return tuple(perm.tolist()), tuple(color.tolist())


@lru_cache(maxsize=None)
def _orbit_factors(group: ColoredPermGroup) -> tuple:
    """The projections of the group onto its point orbits, each on its
    points relabelled 0..k-1 in order, when the group is their direct
    product; otherwise the group alone.

    A group's orbit of a point is the set of that point's images, so one
    pass over all rows gives every orbit.  The group embeds in the product
    of its projections, and so equals it exactly when the projections'
    orders multiply to |G|.  Cached on the element set, like
    ``_dixon_of``."""
    P, C, m = group.perm, group.color, group.m
    n = P.shape[1]
    reaches = np.zeros((n, n), dtype=bool)
    reaches[P, np.arange(n)] = True  # [i, j]: some element sends j to i
    first = reaches.argmax(axis=0)  # the smallest point of each point's orbit
    if (first == first[0]).all():
        return (group,)
    factors = []
    for start in np.flatnonzero(first == np.arange(n)):
        points = np.flatnonzero(first == start)
        k = len(points)
        relabel = np.zeros(n, dtype=np.int64)
        relabel[points] = np.arange(k)
        encoding = _Points(k, m)
        perm, color = relabel[P[:, points]], C[:, points]
        keys = encoding.digits(perm, color) @ (k * m) ** np.arange(k - 1, -1, -1)
        rows = np.unique(keys, return_index=True)[1]  # a plain unique imports numpy.ma
        factors.append(ColoredPermGroup(perm[rows], color[rows], m, encoding))
    if math.prod(f.order for f in factors) != group.order:
        return (group,)
    return tuple(factors)


class _Product:
    """Tuples of native elements of the factor groups, as colored
    permutations of the disjoint union of their points with colors in the
    common C_m (factor colors scaled by m / m_i); tuples sort factor by
    factor.  A product group is built from arrays and gets no generators,
    so no tuple is ever encoded one at a time."""

    def __init__(self, factors, m: int):
        self.parts = []
        offset = 0
        for g in factors:
            self.parts.append((g.encoding, offset, g.perm.shape[1], m // g.m))
            offset += g.perm.shape[1]
        self.radices = sum((g.encoding.radices for g in factors), ())

    def digits(self, perm, color):
        return np.concatenate(
            [
                enc.digits(perm[..., o : o + k] - o, color[..., o : o + k] // s)
                for enc, o, k, s in self.parts
            ],
            axis=-1,
        )

    def decode(self, perm, color) -> tuple:
        return tuple(
            enc.decode(perm[o : o + k] - o, color[o : o + k] // s)
            for enc, o, k, s in self.parts
        )


@lru_cache(maxsize=None)
def _product_group(factors: tuple) -> ColoredPermGroup:
    """The subgroup of the direct product of wreath-product factors where
    the total color sum is even: the series-D prediction.  Cached like
    ``centralizer_group``; the factors are the cached wreath groups."""
    sizes = [g.order for g in factors]
    _check_group_order(math.prod(sizes) // 2, "the product group")
    m = math.lcm(*(g.m for g in factors))
    rows = np.indices(sizes).reshape(len(factors), -1)  # tuples in sorted order
    offsets = np.cumsum([0] + [g.perm.shape[1] for g in factors])
    perm = np.concatenate([g.perm[i] + o for g, i, o in zip(factors, rows, offsets)], axis=1)
    color = np.concatenate([g.color[i] * (m // g.m) for g, i in zip(factors, rows)], axis=1)
    even = sum(g.color[i].sum(axis=1) for g, i in zip(factors, rows)) % 2 == 0
    return ColoredPermGroup(perm[even], color[even], m, _Product(factors, m))


def _predicted_factors(series: str, r: int, twisted: bool, d: int) -> list:
    """(b, k) for each factor C_b wr S_k of the predicted relative Weyl
    group, in the order of the sorted signed cycle types of the canonical
    word: k c-cycles give b = c in series A and b = 2c otherwise (series
    canonical)."""
    word = canonical_regular_word(series, r, twisted, d)
    base = 1 if series == "A" else 2
    return [(base * c, k) for (c, _), k in sorted(Counter(sp_cycles(word)).items())]


def predicted_relative_weyl(series: str, r: int, twisted: bool, d: int) -> tuple:
    """The fingerprint, as in :func:`group_fingerprint`, of the
    combinatorial model of the centralizer: the product of the
    ``_predicted_factors``, read off their Murnaghan-Nakayama tables, or in
    series D the even part of that product, tabulated by Dixon."""
    series = _canon_series(series)
    factors = _predicted_factors(series, r, twisted, d)
    if series == "D":
        groups = tuple(get_full_group(b, k) for b, k in factors)
        return group_fingerprint(_product_group(groups))
    return _product_fingerprint([get_table(b, k) for b, k in factors])


def _product_fingerprint(tables) -> tuple:
    """Fingerprint of the direct product of the groups of ``tables``:
    orders and irreducible degrees multiply, and a class of the product,
    one class of each factor, has the product of their sizes and the lcm
    of their element orders."""
    order, degrees, classes = 1, [1], [(1, 1)]
    for table in tables:
        order *= table.order
        degrees = [x * y for x in degrees for y in table.degrees]
        pairs = list(zip(table.class_sizes, table.class_orders))
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


@lru_cache(maxsize=None)
def _dixon_of(group: ColoredPermGroup) -> CharacterTable:
    """The Dixon table of a group, one per element set: equal groups, in
    any encoding, are one key (``ColoredPermGroup.element_set``)."""
    return CharacterTable.dixon(group)


def _factor_tables(group: ColoredPermGroup) -> tuple:
    """The Dixon tables of the group's ``_orbit_factors``."""
    return tuple(_dixon_of(factor) for factor in _orbit_factors(group))


def group_fingerprint(group) -> tuple:
    """(order, sorted irreducible degrees, sorted (class size,
    representative order) pairs) -- the identification invariant, read off
    the tables of the group's orbit factors (``_product_fingerprint``)."""
    return _product_fingerprint(_factor_tables(group))


def character_values_hd_fixed(group, d: int) -> bool:
    """Whether every value of every character of the group is fixed by all
    sigma_k with k = 1 mod d.  A character of a direct product is a product
    of characters of the factors, and each character of a factor is one of
    the product's (with the trivial characters of the others), so that
    holds exactly when it does for every orbit factor's table."""
    return all(table.hd_fixed_rows(d).all() for table in _factor_tables(group))


@dataclass(frozen=True)
class RelativeWeylReport:
    series: str
    rank: int
    twisted: bool
    d: int
    eigenspace_dim: int  # a(d) over the coset, by the cycle-length knapsack
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
    """Run every check for one (series, rank, twist, d): eigenvalue counts
    by the coset's cycle lengths / generic order / canonical element,
    centralizer vs predicted fingerprints, and Galois stability of the
    centralizer's characters.  The centralizer step lists W, so a W above
    the cap is refused first."""
    series_c = _canon_series(series)
    _check_weyl_order(series_c, r)
    a_coset = max_eigen_multiplicity(series_c, r, twisted, d)
    a_order = generic_order_phid_valuation(series_c, r, twisted, d)
    word = canonical_regular_word(series_c, r, twisted, d)
    a_word = eigen_multiplicity(series_c, twisted, word, d)
    computed = centralizer_group(series_c, r, word)
    fp_c = group_fingerprint(computed)
    fp_p = predicted_relative_weyl(series_c, r, twisted, d)
    hd_ok = character_values_hd_fixed(computed, d)
    return RelativeWeylReport(
        series=series.upper(),
        rank=r,
        twisted=twisted,
        d=d,
        eigenspace_dim=a_coset,
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
