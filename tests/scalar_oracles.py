"""Scalar oracles shared by the tests: one value at a time, through
``conductor`` and ``is_fixed_by`` on ``CyclotomicNumber`` values, among
them ``root_of_unity``; orthogonality as
sums of ``CyclotomicNumber`` products; groups given by elements and a Python
multiplication (``FiniteGroup``), one group element at a time, and their
regular representations as colored-permutation groups; one label at a time,
through ``partitions.hooks``, and whole Murnaghan-Nakayama tables from those
one-label hook removals; the C_m wr S_a labels as sorted tuples of
partitions, their degrees by the hook length formula, the Galois action on
them checked value by value, and the restriction of a character to
G(m,2,a) by Clifford theory and inner products; polynomial long division
over ``Fraction``, generic degrees by the quotient of q-integer products,
Phi_d-valuations by repeated exact division (among them that of the
generic order of a Weyl group) and characteristic polynomials of Weyl
elements on the reflection representation; the words of Weyl groups and
their cosets, listed as tuples, and the signed cycle types found by
scanning them or listed from
partitions, with a(d) read off that list; the whole direct
product of wreath groups, with its generators; rim-hook and symbol-hook
removal in every order; powers in F_{p^e}, and the Lang images built from them,
through repeated ``FiniteFieldElement`` multiplication, and square roots by
exhaustive search; one partition at a time for prop75, through
``extension_field_typeA``; the l-power subgroup by a gcd scan; and, for
whole value arrays, Galois fixedness by reduction through the power basis
and the conjugate products of the orthogonality relations by float64
convolution, the references for the split-prime evaluation kernel."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

import charverify.fields as fields_mod
from charverify.cyclotomic import (
    CyclotomicNumber,
    GaloisSubgroup,
    _check_fixedness_int64,
    _column_orders,
    _peak,
    _reduction_matrix,
    divisors,
    unit_residues,
)
from charverify.grouptable import ColoredPermGroup, _check_group_order
from charverify.ladic import hd_subgroup
from charverify.langmap import (
    FiniteFieldElement,
    enumerate_field,
    jacobi_symbol,
    sqrt_in_quadratic,
)
from charverify.partitions import (
    BetaSet,
    Partition,
    _partitions_of,
    beta_set,
    hooks,
    partitions_of,
    remove_rim_hook,
)
from charverify.qpoly import QPolynomial, cyclotomic_poly
from charverify.symbols import remove_symbol_hook, symbol_hooks
from charverify.weyl import (
    _canon_series,
    _check_rank,
    _check_weyl_order,
    _Product,
    _type_multiplicity,
    generic_degrees,
    sp_cycles,
)
from charverify.wreath import (
    WreathClass,
    _check_label,
    class_labels,
    get_subgroup_table,
    get_table,
)


def root_of_unity(n: int, k: int = 1) -> CyclotomicNumber:
    """zeta_n^k as an element of Q(zeta_n)."""
    return CyclotomicNumber(n, {k % n: Fraction(1)})


def is_fixed_by(x: CyclotomicNumber, subgroup: GaloisSubgroup) -> bool:
    """Whether every sigma_k, k in the subgroup, fixes x.

    The subgroup modulus must equal the order x is written in; a mismatch is
    an error rather than a silent lift.
    """
    if subgroup.modulus != x.order:
        raise ValueError(
            f"subgroup modulus {subgroup.modulus} != element order {x.order}"
        )
    return all(x.galois(k) == x for k in subgroup.residues)


def conductor(x: CyclotomicNumber) -> int:
    """The smallest c such that x lies in Q(zeta_c).

    Sweeps divisors c of the ambient order ascending and returns the first c
    for which every sigma_k with k = 1 mod c fixes x.  Intersections of
    cyclotomic fields are cyclotomic, so this divisor sweep attains the global
    minimum.  Convention: the smallest such integer is returned, so the result
    is never 2 * (odd).
    """
    n = x.order
    units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    for c in divisors(n):
        if all(x.galois(k) == x for k in units if k % c == 1 % c):
            return c
    raise AssertionError("unreachable: c = n always fixes x")


def scalar_row_answers(rows, ds):
    """Per row: (lcm of the scalar conductors of its values, {d: whether
    is_fixed_by holds for every value at the modulus lcm(order, d)}).
    Each distinct value is tested once."""
    cache = {}

    def answers(x):
        key = (x.order, tuple(map(tuple, x.to_triples())))
        if key not in cache:
            fixed = {}
            for d in ds:
                n = math.lcm(x.order, d)
                fixed[d] = is_fixed_by(x.lift(n), hd_subgroup(d, n))
            cache[key] = (conductor(x), fixed)
        return cache[key]

    out = []
    for row in rows:
        per_value = [answers(x) for x in row]
        out.append(
            (
                math.lcm(*(c for c, _ in per_value)),
                {d: all(f[d] for _, f in per_value) for d in ds},
            )
        )
    return out


def pair_mul(m):
    """Multiplication of (color vector, permutation) pairs of C_m wr S_a:
    (f, sigma)(g, tau) = (f + g o sigma^-1, sigma o tau)."""

    def mul(x, y):
        (f, sigma), (g, tau) = x, y
        sigma_inv = [0] * len(f)
        for i, img in enumerate(sigma):
            sigma_inv[img] = i
        h = tuple((f[i] + g[sigma_inv[i]]) % m for i in range(len(f)))
        return h, tuple(sigma[t] for t in tau)

    return mul


def product_mul(muls):
    """Componentwise multiplication of tuples, one factor mul each."""

    def mul(x, y):
        return tuple(mu(u, v) for mu, u, v in zip(muls, x, y))

    return mul


class FiniteGroup:
    """An explicit finite group: elements, a Python multiplication, identity.

    Its classes, inverses and element orders come from one ``mul`` call at
    a time; it is the oracle of ``ColoredPermGroup``, and
    ``regular_representation`` hands it to ``CharacterTable.dixon``.
    """

    def __init__(self, elements, mul, identity, generators=None, name=""):
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
        self._inverses = {}
        self._orders = {}
        self._classes = None

    @property
    def order(self):
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

    def element_order(self, g):
        return self._order_and_inverse(g)[0]

    def exponent(self):
        """lcm of the element orders; order is a class function, so the
        class representatives suffice."""
        return math.lcm(*(self.element_order(c[0]) for c in self.conjugacy_classes()))

    def conjugacy_classes(self):
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
        return self._classes


class RegularEncoding:
    """The elements of a FiniteGroup as the rows of its regular
    representation: g is the row that sends the identity's index to g's."""

    def __init__(self, group):
        self.group = group
        self.e = group.index[group.identity]
        self.radices = (group.order,)

    def digits(self, perm, color):
        return perm[..., self.e : self.e + 1]

    def encode(self, g):
        group = self.group
        return [group.index[group.mul(g, x)] for x in group.elements], [0] * group.order

    def decode(self, perm, color):
        return self.group.elements[int(perm[self.e])]


def regular_representation(group):
    """A FiniteGroup acting on its element indices by x -> gx, as a
    ColoredPermGroup with m = 1, rows in the order of ``elements``."""
    perm = [[group.index[group.mul(g, x)] for x in group.elements] for g in group.elements]
    return ColoredPermGroup(
        perm, np.zeros((group.order, group.order), dtype=np.int64), 1,
        RegularEncoding(group), generators=group.generators or None, name=group.name,
    )


def table_rows(table):
    """Every row of a CharacterTable as a tuple of its ``value``s."""
    L, C, _ = table.raw.shape
    return [tuple(table.value(i, j) for j in range(C)) for i in range(L)]


def python_group(group, mul):
    """The FiniteGroup on the elements and generators of a
    ColoredPermGroup, multiplied by ``mul``."""
    return FiniteGroup(
        group.elements,
        mul,
        group.element(group.identity),
        generators=[group.element(t) for t in group.generators],
    )


def partition_tuples(n, components):
    """All tuples of ``components`` partitions with total size n, sorted:
    first components by size descending, then in ``partitions_of`` order."""
    if components == 0:
        if n == 0:
            yield ()
        return
    for first_size in range(n, -1, -1):
        for first in partitions_of(first_size):
            for rest in partition_tuples(n - first_size, components - 1):
                yield (first,) + rest


def num_standard_tableaux(lam):
    """The number of standard Young tableaux of shape lam, by the hook
    length formula."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    return math.factorial(lam.size) // math.prod(lam.hook_lengths())


def wreath_degree(label):
    """chi(1) of C_m wr S_a: multinomial(a; component sizes) times the
    tableau counts of the components."""
    label, a = _check_label(label, len(label))
    out = math.factorial(a)
    for p in label:
        out //= math.factorial(p.size)
        out *= num_standard_tableaux(p)
    return out


def char_value(label, cls, m):
    """The value of chi_label at a class of C_m wr S_a, read from the
    table by label and cycle type."""
    label, a = _check_label(label, m)
    if not isinstance(cls, WreathClass):
        cls = WreathClass(cls)
    if cls.total != a:
        raise ValueError(f"class weight {cls.total} does not match label size {a}")
    table = get_table(m, a)
    return table.value(table.label_index[label], table.class_index[cls.cycles])


def galois_permuted_label(label, m, s):
    """The label of chi^{sigma_s}: mu^(j) = lambda^(j * s^{-1} mod m)."""
    if math.gcd(s, m) != 1:
        raise ValueError(f"s = {s} not coprime to m = {m}")
    s_inv = pow(s, -1, m)
    return tuple(label[(j * s_inv) % m] for j in range(m))


def verify_galois_equivariance(m, a):
    """Whether chi^{sigma_s} equals the relabeled character for every unit
    s mod m, value by value: sigma_s moves the coefficient of zeta_m^e to
    e * s, so the image's coefficient at e is raw[..., e * s^{-1} mod m];
    both sides are compared reduced mod Phi_m, in int64."""
    table = get_table(m, a)
    R = _reduction_matrix(m)
    raw = table.raw.astype(np.int64)
    reduced = raw @ R
    e = np.arange(m)
    for s in unit_residues(m):
        perm = [table.label_index[galois_permuted_label(lab, m, s)] for lab in table.labels]
        if not np.array_equal(raw[:, :, e * pow(s, -1, m) % m] @ R, reduced[perm]):
            return False
    return True


def twist_label(label, m):
    """Tensoring with the sign-of-color-sum linear character shifts the
    components by m/2."""
    if m % 2 != 0:
        raise ValueError("twist requires even m")
    half = m // 2
    return tuple(label[(j + half) % m] for j in range(m))


def colored_type(element, m):
    """Colored cycle type of (f, sigma): cycle lengths with color = sum of f."""
    f, sigma = element
    seen = [False] * len(f)
    cycles = []
    for start in range(len(f)):
        if seen[start]:
            continue
        length = color = 0
        i = start
        while not seen[i]:
            seen[i] = True
            color += f[i]
            i = sigma[i]
            length += 1
        cycles.append((length, color % m))
    return WreathClass(cycles)


@dataclass(frozen=True)
class IndexTwoConstituent:
    """One irreducible constituent of a restriction to G(m,2,a)."""

    orbit: tuple  # canonical wreath label of the orbit {label, twisted label}
    tag: str  # "full" for irreducible restrictions, "plus"/"minus" for splits
    degree: int
    multiplicity: int
    values: tuple | None = None  # values on subgroup classes (splits only)


def restrict_index2(label, m):
    """The restriction of chi_label to G(m,2,a) (m even), by Clifford
    theory: a label moved by the m/2-component shift restricts irreducibly;
    a fixed label splits into two constituents, found among the rows of the
    Dixon table of G(m,2,a) by inner products.  "plus" is the constituent
    whose serialized value is lexicographically smaller at the first
    subgroup class where the two differ."""
    if m % 2 != 0:
        raise ValueError("restriction target G(m,2,a) requires even m")
    label, a = _check_label(label, m)
    twisted = twist_label(label, m)
    deg = wreath_degree(label)
    if twisted != label:
        orbit = min(label, twisted, key=lambda lab: tuple(p.parts for p in lab))
        return [IndexTwoConstituent(orbit, "full", deg, 1)]
    sub_table = get_subgroup_table(m, a)
    parent = get_table(m, a)
    row = parent.label_index[label]
    chi_values = [
        parent.value(row, parent.class_index[colored_type(rep, m).cycles])
        for rep in sub_table.class_reps
    ]
    found = []
    for psi in table_rows(sub_table):
        acc = CyclotomicNumber(1)
        for size, chi, value in zip(sub_table.class_sizes, chi_values, psi):
            acc = acc + size * chi * value.conjugate()
        mult = acc / sub_table.order
        if not mult.is_rational():
            raise AssertionError("non-rational inner product")
        mult_q = mult.rational_value()
        if mult_q.denominator != 1 or mult_q < 0:
            raise AssertionError(f"bad multiplicity {mult_q}")
        if mult_q:
            found.append((psi, int(mult_q)))
    if [mlt for _, mlt in found] != [1, 1]:
        raise AssertionError(f"twist-fixed restriction did not split into two: {found}")
    (psi1, _), (psi2, _) = found

    def key(x):
        return tuple((e, c.numerator, c.denominator) for e, c in sorted(x.coeffs.items()))

    k0 = next(k for k, (x, y) in enumerate(zip(psi1, psi2)) if x.to_dict() != y.to_dict())
    if key(psi2[k0]) < key(psi1[k0]):
        psi1, psi2 = psi2, psi1
    assert psi1[0].rational_value() + psi2[0].rational_value() == deg
    return [
        IndexTwoConstituent(label, "plus", int(psi1[0].rational_value()), 1, tuple(psi1)),
        IndexTwoConstituent(label, "minus", int(psi2[0].rational_value()), 1, tuple(psi2)),
    ]


def hook_op_entries(m, s, c):
    """The (row, col, sign, k) entries of the c-hook removal map from the
    labels of total size s to those of size s - c, one label and one
    component at a time: labels listed by ``partition_tuples``, indices
    found by dictionary lookup of the resulting label."""
    index_small = {lab: i for i, lab in enumerate(partition_tuples(s - c, m))}
    out = []
    for i, lab in enumerate(partition_tuples(s, m)):
        for k in range(m):
            if lab[k].size < c:
                continue
            for _, new_part, height in hooks(lab[k], c):
                new_lab = lab[:k] + (new_part,) + lab[k + 1 :]
                out.append((i, index_small[new_lab], -1 if height % 2 else 1, k))
    return out


def mn_raw_by_hooks(m, a):
    """The (labels, classes, m) int64 value array of C_m wr S_a by the
    Murnaghan-Nakayama recursion, one hook removal at a time
    (``hook_op_entries``), in Python integers: removing the leading c-cycle
    of color j and a c-hook from component k multiplies the smaller column
    by sign * zeta_m^{jk}.  Rows in the order of ``partition_tuples``,
    columns in that of ``wreath.class_labels``."""
    columns = {(): [[1] + [0] * (m - 1)]}
    entries = {}

    def column(cycles):
        if cycles not in columns:
            (c, j), rest = cycles[0], cycles[1:]
            s = sum(x for x, _ in cycles)
            if (s, c) not in entries:
                entries[s, c] = hook_op_entries(m, s, c)
            prev = column(rest)
            out = [[0] * m for _ in partition_tuples(s, m)]
            for row, col, sign, k in entries[s, c]:
                for e, coeff in enumerate(prev[col]):
                    out[row][(e + j * k) % m] += sign * coeff
            columns[cycles] = out
        return columns[cycles]

    table = [column(cls.cycles) for cls in class_labels(m, a)]
    return np.array(table, dtype=np.int64).transpose(1, 0, 2)


def fraction_divmod(num, den):
    """Long division of integer coefficient lists (lowest degree first) over
    the rationals: (quotient, remainder) as lists of ``Fraction``, trailing
    zeros dropped."""
    rem = [Fraction(c) for c in num]
    quo = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    for shift in range(len(quo) - 1, -1, -1):
        factor = rem[shift + len(den) - 1] / den[-1]
        quo[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
    rem = rem[: len(den) - 1]
    for coeffs in (quo, rem):
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
    return quo, rem


def q_int_product(degrees):
    """The product of q^k - 1 over the given k."""
    out = QPolynomial([1])
    for k in degrees:
        out = out * (QPolynomial.monomial(k) - QPolynomial([1]))
    return out


def generic_degree_typeA_by_division(lam):
    """The generic degree of the unipotent character labelled by lam, by
    the quotient formula q^{n(lambda)} prod(q^i - 1) / prod(q^h - 1), h the
    hook lengths; the exact division checks integrality."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    num = QPolynomial.monomial(lam.n_stat()) * q_int_product(range(1, lam.size + 1))
    return num.exact_div(q_int_product(lam.hook_lengths()))


def evaluate(poly, x):
    """A QPolynomial at x (int or Fraction), by Horner's rule."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def phi_d_valuation(poly, d):
    """Multiplicity of Phi_d as a factor of a QPolynomial, by repeated exact
    division."""
    if poly.is_zero():
        raise ValueError("zero polynomial has no Phi_d valuation")
    phi = cyclotomic_poly(d)
    val = 0
    while True:
        quo, rem = poly.divmod(phi)
        if not rem.is_zero():
            return val
        poly = quo
        val += 1


def generic_order_phid_valuation_by_division(series, r, twisted, d):
    """The Phi_d-valuation of the generic order prod (q^deg - eps), by
    forming the product and dividing it by Phi_d."""
    poly = QPolynomial([1])
    q = QPolynomial.monomial(1)
    one = QPolynomial([1])
    for deg, eps in generic_degrees(series, r, twisted):
        poly = poly * (q**deg - one if eps == 1 else q**deg + one)
    return phi_d_valuation(poly, d)


def reflection_charpoly(series, r, twisted, w):
    """The exact characteristic polynomial of (the coset element of) the
    signed word w on the reflection representation, one block per signed
    cycle."""
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


@lru_cache(maxsize=None)
def plain_words(n):
    return tuple(itertools.permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def signed_words(r):
    return tuple(
        tuple(s * x for s, x in zip(signs, p))
        for p in itertools.permutations(range(1, r + 1))
        for signs in itertools.product((1, -1), repeat=r)
    )


def group_elements(series, r):
    """The untwisted Weyl group, as a tuple of words."""
    series = _canon_series(series)
    _check_weyl_order(series, r)
    if series == "A":
        return plain_words(r + 1)
    if series == "B":
        return signed_words(r)
    return tuple(w for w in signed_words(r) if sum(x < 0 for x in w) % 2 == 0)


def coset_elements(series, r, twisted):
    """The words of the (possibly twisted) coset: twisted A is -P(word)
    for every plain word, twisted D the odd-sign-change words."""
    series = _canon_series(series)
    if not twisted:
        return group_elements(series, r)
    _check_weyl_order(series, r)
    if series == "A":
        return plain_words(r + 1)
    if series == "D":
        return tuple(w for w in signed_words(r) if sum(x < 0 for x in w) % 2 == 1)
    raise ValueError(f"series {series} has no graph twist here")


def coset_cycle_types_by_scan(series, r, twisted):
    """The distinct signed cycle types over the coset, one word at a time."""
    return tuple(sorted({sp_cycles(w) for w in coset_elements(series, r, twisted)}))


@lru_cache(maxsize=None)
def coset_cycle_types(series, r, twisted):
    """The distinct signed cycle types over the coset (series canonical),
    listed from partitions without listing any element.  Type A: the
    partitions of r + 1, all cycles positive (the twist only negates the
    matrix).  B/C: a partition of the positive cycles and one of the
    negative cycles, of total size r; D keeps the splits with an even
    number of negative cycles, an odd number in the twisted coset."""
    _check_rank(series, r)
    if series == "A":
        return tuple(sorted(tuple((c, 1) for c in p) for p in _partitions_of(r + 1)))
    if series == "B" and twisted:
        raise ValueError("series B/C has no graph twist here")
    return tuple(
        sorted(
            tuple(sorted([(c, 1) for c in pos] + [(c, -1) for c in neg], reverse=True))
            for k in range(r + 1)
            for pos in _partitions_of(r - k)
            for neg in _partitions_of(k)
            if series == "B" or len(neg) % 2 == twisted
        )
    )


def max_eigen_multiplicity_by_listing(series, r, twisted, d):
    """a(d) as the largest multiplicity over the listed signed cycle types."""
    series = _canon_series(series)
    return max(
        _type_multiplicity(series, twisted, cycles, d)
        for cycles in coset_cycle_types(series, r, twisted)
    )


def full_product_group(factors):
    """The whole direct product of the colored-permutation groups
    ``factors``, listed one tuple of native elements at a time and encoded
    one tuple at a time, with the factors' generators placed one factor at
    a time; refused above the cap before anything is listed."""
    _check_group_order(math.prod(g.order for g in factors), "the product group")
    m = math.lcm(*(g.m for g in factors))
    encoding = _Product(factors, m)
    pairs = [encoding.encode(x) for x in itertools.product(*(g.elements for g in factors))]
    identity = [g.element(g.identity) for g in factors]
    gens = [
        tuple(identity[:i] + [g.element(t)] + identity[i + 1 :])
        for i, g in enumerate(factors)
        for t in g.generators
    ]
    perm, color = zip(*pairs)
    return ColoredPermGroup(perm, color, m, encoding, generators=gens)


def normalized(beta):
    """The beta-set with the common shift removed: while 0 is a bead, drop
    it and decrement the others."""
    beads = list(beta.beads)
    while beads and beads[-1] == 0:
        beads = [b - 1 for b in beads[:-1]]
    return BetaSet(beads)


def all_terminal_cores(lam, d):
    """The terminal partitions of every maximal rim d-hook removal sequence
    from lam, explored as a DAG over bead-set states."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    seen, terminals = set(), set()
    stack = [beta_set(lam, len(lam) + d)]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        movable = [b for b in state if b - d >= 0 and (b - d) not in state]
        if not movable:
            terminals.add(normalized(state).to_partition())
        else:
            stack.extend(remove_rim_hook(state, b, d) for b in movable)
    return terminals


def symbol_defect(S):
    """|len(row1) - len(row2)|, unchanged by the shift and by hook moves."""
    return abs(len(S.row1) - len(S.row2))


def all_terminal_symbols(S, d):
    """The terminal symbols of every maximal d-hook removal sequence from
    the symbol S (d odd)."""
    seen, terminals = set(), set()
    stack = [S]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        moves = symbol_hooks(state, d)
        if not moves:
            terminals.add(state)
        else:
            stack.extend(remove_symbol_hook(state, row, entry, d) for row, entry in moves)
    return terminals


def power_by_multiplication(x, exponent):
    """x**exponent by square-and-multiply through ``FiniteFieldElement``
    multiplication, one element per step; a negative exponent first inverts
    x as x**(p^e - 2) by the same loop."""
    if x.is_zero and exponent <= 0:
        raise ZeroDivisionError("zero to a non-positive power")
    if exponent < 0:
        x = power_by_multiplication(x, x.p**x.e - 2)
        exponent = -exponent
    result = FiniteFieldElement(x.p, (1,) + (0,) * (x.e - 1))
    while exponent:
        if exponent & 1:
            result = result * x
        x = x * x
        exponent >>= 1
    return result


def cor55_by_multiplication(n, p, e, k):
    """(Jacobi-symbol formula holds, image is central of order dividing 2)
    for the Lang image of diag(c^(n-1), ..., c^(-(n-1))), c a square root of
    k, every power taken by ``power_by_multiplication``."""
    q = p**e
    c = sqrt_in_quadratic(p, k)
    image = [
        power_by_multiplication(power_by_multiplication(c, m), q - 1)
        for m in range(n - 1, -n, -2)
    ]
    if any(x != image[0] for x in image):
        return False, False
    sign = FiniteFieldElement.from_int(p, (-1) ** (n - 1))
    expected = FiniteFieldElement.from_int(p, jacobi_symbol(k, q) ** (n - 1))
    one = FiniteFieldElement.from_int(p, 1)
    return image[0] == expected, image[0] in (one, sign)


def sqrt_by_search(p, k):
    """The first c of ``enumerate_field(p, 2)`` with c * c = k, by testing
    every element with ``FiniteFieldElement`` multiplication."""
    target = FiniteFieldElement(p, (k % p, 0))
    for c in enumerate_field(p, 2):
        if c * c == target:
            return c
    raise AssertionError(f"no square root of {k} in F_{p}^2")


def prop75_by_partition(eps, n, ell, q, r=1, rule=fields_mod.default_omega_rule):
    """(partition, core, field of the partition, field of the core) for every
    partition of n, in ``partitions_of`` order: cores from ``fields.d_core``
    (so a patched one is seen), fields from ``extension_field_typeA``, one
    partition at a time."""
    qv = q if isinstance(q, int) else q.value
    d_prime = fields_mod.mult_order(eps * qv, ell)
    out = []
    for lam in partitions_of(n):
        core, _ = fields_mod.d_core(lam, d_prime)
        out.append(
            (
                lam.parts,
                core.parts,
                fields_mod.extension_field_typeA(eps, lam, ell, qv, r, rule),
                fields_mod.extension_field_typeA(eps, core, ell, qv, r, rule),
            )
        )
    return out


def hell_residues_by_scan(ell, n):
    """The residues k in 1..n with gcd(k, n) = 1 and k mod n' a power of
    ell, n' the ell'-part of n, reduced mod n."""
    n_prime = n
    while n_prime % ell == 0:
        n_prime //= ell
    powers = {1 % n_prime}
    acc = ell % n_prime
    while acc not in powers:
        powers.add(acc)
        acc = (acc * ell) % n_prime
    return frozenset(
        k % n for k in range(1, n + 1) if math.gcd(k, n) == 1 and (k % n_prime) in powers
    )


def scalar_orthogonality(values, class_sizes, group_order):
    """(row orthogonality, column orthogonality) of a table given as rows of
    ``CyclotomicNumber`` values, as O(r^3) sums of scalar products."""
    rows_ok = cols_ok = True
    for i, chi in enumerate(values):
        for j, psi in enumerate(values):
            acc = CyclotomicNumber(1)
            for k, size in enumerate(class_sizes):
                acc = acc + size * chi[k] * psi[k].conjugate()
            if acc != (group_order if i == j else 0):
                rows_ok = False
    for k, size in enumerate(class_sizes):
        for l in range(len(class_sizes)):
            acc = CyclotomicNumber(1)
            for chi in values:
                acc = acc + chi[k] * chi[l].conjugate()
            if acc != (group_order // size if k == l else 0):
                cols_ok = False
    return rows_ok, cols_ok


def fixed_rows_by_reduction(raw, ks):
    """``cyclotomic.galois_fixed_rows`` by reduction: sigma_k is the index
    permutation e -> ek mod o of each column-order block, and a value is
    fixed iff its permuted and original coefficients reduce through
    ``_reduction_matrix(o)`` to the same coordinates, one int64 matmul per
    moving k mod o, under the same up-front int64 guard."""
    L, _, n = raw.shape
    ks = [k % n for k in ks]
    for k in ks:
        if math.gcd(k, n) != 1:
            raise ValueError(f"k = {k} is not a unit mod {n}")
    out = np.ones((len(ks), L), dtype=bool)
    bound = _peak(raw)
    _check_fixedness_int64(bound, n)
    orders = _column_orders(raw)
    for o in np.unique(orders).tolist():
        moving = sorted({k % o for k in ks} - {1 % o})
        if not moving:
            continue
        _check_fixedness_int64(bound, o)
        values = raw[:, orders == o, :: n // o].reshape(-1, o).astype(np.int64)
        R = _reduction_matrix(o)
        base = values @ R
        e = np.arange(o)
        fixed = {
            k: (values @ R[e * k % o] == base).reshape(L, -1).all(axis=1)
            for k in moving
        }
        for t, k in enumerate(ks):
            if k % o in fixed:
                out[t] &= fixed[k % o]
    return out


def conjugate_products(values, weights):
    """(X, X, phi(N)) power-basis coordinates of
    sum_k weights[k] * values[x, k] * conj(values[y, k]) for an (X, K, N)
    integer array over Z[t]/(t^N - 1): the convolution over the exponents
    as N^2 float64 matmuls, exact below 2^53 (asserted), then one int64
    reduction through ``_reduction_matrix(N)``."""
    n = values.shape[2]
    R = _reduction_matrix(n)
    weights = [int(w) for w in weights]
    highs = values.max(axis=(0, 2)).tolist()
    lows = values.min(axis=(0, 2)).tolist()
    total = n * sum(abs(w) * max(h, -l) ** 2 for w, h, l in zip(weights, highs, lows))
    assert total < 2**53 and n * total * int(np.abs(R).max()) < 2**63, total
    wide = values.astype(np.float64).transpose(2, 0, 1)
    A = np.ascontiguousarray(wide * np.array(weights, dtype=np.float64)[None, None, :])
    # coefficient f of a conjugate is coefficient -f of the value
    B = np.ascontiguousarray(wide[(-np.arange(n)) % n])
    out = np.zeros((n, values.shape[0], values.shape[0]))
    for e in range(n):
        for f in range(n):
            out[(e + f) % n] += A[e] @ B[f].T
    return np.tensordot(out.astype(np.int64), R, axes=(0, 0))
