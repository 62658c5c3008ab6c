"""Named verification suites with desk-scale default parameter ranges.

Each suite runs one exhaustive sweep from the library modules, counts the
individual facts it checks, and collects counterexamples (a suite passes iff
none were found).  The suite names are stable identifiers used by the CLI;
what each one verifies:

================  ==========================================================
``lemma22``       quadratic-residue loci: odd order of q mod ell makes
                  sqrt(q) ell-adically rational, order 2 mod 4 does the same
                  for sqrt(-q); Galois-subgroup containments and the
                  even/odd-modulus coincidence
``lemma71``       root-existence predicate for X**r - zeta_a versus
                  brute-force enumeration of F_ell, plus the order-divisor
                  implication
``lemma82``       the central-product splitting condition holds across the
                  full (delta, p, r0, ell) grid
``thm41``         conductors: every irreducible character of C_m wr S_a and
                  of its even-sign index-2 subgroup has values in Q(zeta_m)
``lemma42``       fixedness: the same characters are fixed by all Galois
                  residues = 1 mod d whenever m divides lcm(2, d)
``cor74``         partitions with equal d-cores (d even) share a 2-core, and
                  every even-hook decomposition into 2-steps recomposes
``lemma72``       symbols with equal d-cores (d odd) share a 1-core
``prop75``        extension fields in type A are constant along d'-cores
``table1``        consistency of the curated cuspidal-field table
``cor55``         Lang-map images of principal-cocharacter values match the
                  Jacobi-symbol formula and land in the centre
``weyl-match``    relative-Weyl-group oracle agrees with the wreath-product
                  prediction, with all character values suitably fixed
================  ==========================================================
"""

from __future__ import annotations

import math
import time

from . import fields as fields_mod
from . import langmap as langmap_mod
from . import partitions as partitions_mod
from . import symbols as symbols_mod
from . import weyl as weyl_mod
from . import wreath as wreath_mod
from .ladic import (
    PrimePower,
    central_product_splits,
    hd_subgroup,
    hell_subgroup,
    is_prime,
    mult_order,
    root_exists_in_Qell,
    sqrt_minus_q_fixed,
    sqrt_q_fixed,
)
from .report import CheckReport

__all__ = ["SUITE_NAMES", "run_suite", "suite_defaults", "suite_description"]


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi + 1) if is_prime(p)]


def _prime_powers(hi: int) -> list[int]:
    out = []
    for q in range(2, hi + 1):
        try:
            PrimePower.from_value(q)
        except ValueError:
            continue
        out.append(q)
    return out


# --------------------------------------------------------------------------
# Suite implementations.  Each returns (checks, counterexamples).
# --------------------------------------------------------------------------


def _suite_lemma22(max_ell=200, max_q=200, max_modulus=120, max_d=12):
    checks, bad = 0, []
    prime_powers = _prime_powers(max_q)
    for ell in _primes(3, max_ell):
        for q in prime_powers:
            if q % ell == 0:
                continue
            d = mult_order(q, ell)
            if d % 2 == 1:
                checks += 1
                if not sqrt_q_fixed(q, ell):
                    bad.append(f"odd order d={d} but sqrt({q}) not in Q_{ell}")
            elif (d // 2) % 2 == 1:
                checks += 1
                if not sqrt_minus_q_fixed(q, ell):
                    bad.append(
                        f"order d={d} (2 mod 4) but sqrt(-{q}) not in Q_{ell}"
                    )
    # {k = 1 mod 2m} = {k = 1 mod m} inside (Z/n)^x for odd m.
    for m in range(1, 26, 2):
        for n in range(1, max_modulus + 1):
            if n % (2 * m) != 0:
                continue
            checks += 1
            if hd_subgroup(2 * m, n) != hd_subgroup(m, n):
                bad.append(f"subgroups mod {2 * m} and {m} differ at n={n}")
    # Powers of ell are = 1 mod d whenever d | ell - 1 (and d | n).
    for ell in _primes(3, min(max_ell, 100)):
        for n in range(1, max_modulus + 1):
            H_ell = None
            for d in range(1, max_d + 1):
                if (ell - 1) % d != 0 or n % d != 0:
                    continue
                if H_ell is None:
                    H_ell = hell_subgroup(ell, n)
                checks += 1
                if not H_ell.residues <= hd_subgroup(d, n).residues:
                    bad.append(
                        f"ell-power subgroup (ell={ell}, n={n}) not inside "
                        f"the d={d} subgroup"
                    )
    return checks, bad


def _suite_lemma71(max_ell=100, max_r=20, max_p0=50, max_r_implication=12):
    checks, bad = 0, []
    # Predicate vs brute force: zeta_a is an r-th power in F_ell iff every
    # (equivalently any) element of order a is.
    for ell in _primes(3, max_ell):
        orders = {u: mult_order(u, ell) for u in range(1, ell)}
        for r in range(1, max_r + 1):
            if r % ell == 0:
                continue
            rth_powers = {pow(x, r, ell) for x in range(1, ell)}
            for a in range(1, ell):
                if (ell - 1) % a != 0:
                    continue
                elements = [u for u in range(1, ell) if orders[u] == a]
                expected = all(u in rth_powers for u in elements)
                checks += 1
                if root_exists_in_Qell(r, a, ell) != expected:
                    bad.append(
                        f"predicate disagrees with enumeration at "
                        f"r={r}, a={a}, ell={ell}"
                    )
    # Order-divisor implication: a | order(p0^r mod ell) forces a root.
    for p0 in _primes(2, max_p0):
        for ell in _primes(3, max_ell):
            if ell == p0:
                continue
            for r in range(1, max_r_implication + 1):
                if r % ell == 0:
                    continue
                d = mult_order(pow(p0, r, ell), ell)
                for a in range(1, d + 1):
                    if d % a != 0:
                        continue
                    checks += 1
                    if not root_exists_in_Qell(r, a, ell):
                        bad.append(
                            f"no root for r={r}, a={a}, ell={ell} despite "
                            f"a | d={d} (p0={p0})"
                        )
    return checks, bad


def _suite_lemma82(max_p=23, max_r0=8, max_ell=61):
    checks, bad = 0, []
    for delta in (1, 2, 3):
        for p in _primes(2, max_p):
            for ell in _primes(3, max_ell):
                if ell == p:
                    continue
                for r0 in range(1, max_r0 + 1):
                    if (r0 * delta) % ell == 0:
                        continue
                    d = mult_order(pow(p, r0, ell), ell)
                    checks += 1
                    if not central_product_splits(delta, d, r0, ell, p=p):
                        bad.append(
                            f"no splitting at delta={delta}, p={p}, "
                            f"r0={r0}, ell={ell} (d={d})"
                        )
    return checks, bad


def _wreath_grid(max_m, max_a):
    """The C_m wr S_a cells, refused up front if one has more characters
    than the cap on listed wreath labels."""
    cells = [(m, a) for m in range(1, max_m + 1) for a in range(1, max_a + 1)]
    for m, a in cells:
        wreath_mod._check_label_count(m, a)
    return cells


def _subgroup_grid(sub_max_m, sub_max_a):
    """The G(m,2,a) cells, refused up front if one is above the cap on
    explicit groups."""
    cells = [(m, a) for m in range(2, sub_max_m + 1, 2) for a in range(1, sub_max_a + 1)]
    for m, a in cells:
        wreath_mod._check_wreath_order(m, a, even=True)
    return cells


def _suite_thm41(max_m=12, max_a=4, sub_max_m=6, sub_max_a=3):
    checks, bad = 0, []
    subgroup_cells = _subgroup_grid(sub_max_m, sub_max_a)
    for m, a in _wreath_grid(max_m, max_a):
        for i, c in enumerate(wreath_mod.table_conductors(m, a).tolist()):
            checks += 1
            if m % c != 0:
                bad.append(
                    f"C_{m} wr S_{a}: conductor {c} of "
                    f"{wreath_mod.irr_labels(m, a)[i]} does not divide {m}"
                )
    for m, a in subgroup_cells:
        table = wreath_mod.get_subgroup_table(m, a)
        for i, c in enumerate(table.conductors().tolist()):
            checks += 1
            if m % c != 0:
                bad.append(
                    f"index-2 subgroup (m={m}, a={a}): conductor {c} of "
                    f"character {i} does not divide {m}"
                )
    return checks, bad


def _suite_lemma42(max_m=12, max_a=4, sub_max_m=6, sub_max_a=3, max_d=12):
    checks, bad = 0, []
    subgroup_cells = _subgroup_grid(sub_max_m, sub_max_a)
    for m, a in _wreath_grid(max_m, max_a):
        for d in range(1, max_d + 1):
            if math.lcm(2, d) % m != 0:
                continue
            for i, ok in enumerate(wreath_mod.table_hd_fixed(m, a, d).tolist()):
                checks += 1
                if not ok:
                    bad.append(
                        f"C_{m} wr S_{a}: {wreath_mod.irr_labels(m, a)[i]} "
                        f"not fixed at d={d}"
                    )
    for m, a in subgroup_cells:
        table = wreath_mod.get_subgroup_table(m, a)
        for d in range(1, max_d + 1):
            if math.lcm(2, d) % m != 0:
                continue
            for i, ok in enumerate(table.hd_fixed_rows(d).tolist()):
                checks += 1
                if not ok:
                    bad.append(
                        f"index-2 subgroup (m={m}, a={a}): character {i} "
                        f"not fixed at d={d}"
                    )
    return checks, bad


def _suite_cor74(max_n=12, max_d=12):
    checks, bad = 0, []
    for n in range(1, max_n + 1):
        parts = partitions_mod._partition_objects(n)
        for d in range(2, max_d + 1, 2):
            groups: dict = {}
            for lam in parts:
                core, _ = partitions_mod.d_core(lam, d)
                groups.setdefault(core, []).append(lam)
            for core, members in groups.items():
                two_cores = {partitions_mod.two_core(lam) for lam in members}
                checks += 1
                if len(two_cores) != 1:
                    bad.append(
                        f"n={n}, d={d}: {d}-core {core.parts} carries "
                        f"distinct 2-cores {sorted(c.parts for c in two_cores)}"
                    )
    # Recomposition: every even-hook decomposition into 2-steps, applied in
    # order, reproduces the single d-hook removal.
    for n in range(1, max_n + 1):
        for lam in partitions_mod._partition_objects(n):
            beta = partitions_mod.beta_set(lam, len(lam.parts) + max_d)
            for d in range(2, max_d + 1, 2):
                for bead in sorted(beta.beads, reverse=True):
                    if bead - d < 0 or bead - d in beta:
                        continue
                    checks += 1
                    moves = partitions_mod.decompose_d_hook(beta, bead, d)
                    direct = partitions_mod.remove_rim_hook(beta, bead, d)
                    replayed = partitions_mod.apply_two_step_moves(beta, moves)
                    if replayed != direct:
                        bad.append(
                            f"decomposition mismatch at lambda={lam.parts}, "
                            f"bead={bead}, d={d}"
                        )
    return checks, bad


def _suite_lemma72(max_rank=6, max_defect=3, max_d=7):
    checks, bad = 0, []
    symbols = [
        S
        for rank in range(max_rank + 1)
        for S in symbols_mod.enumerate_symbols(rank, max_defect)
    ]
    one_cores_of = [symbols_mod.symbol_d_core(S, 1) for S in symbols]
    for d in range(1, max_d + 1, 2):
        cores = (
            one_cores_of
            if d == 1
            else [symbols_mod.symbol_d_core(S, d) for S in symbols]
        )
        groups: dict = {}
        for core, one_core in zip(cores, one_cores_of):
            groups.setdefault(core, set()).add(one_core)
        for core, one_cores in groups.items():
            checks += 1
            if len(one_cores) != 1:
                bad.append(
                    f"d={d}: core {core!r} carries distinct 1-cores "
                    f"{sorted(map(repr, one_cores))}"
                )
    return checks, bad


def _suite_prop75(max_n=10, max_ell=31, qs=(2, 3, 4, 5, 7, 8, 9), rs=(1, 2)):
    checks, bad = 0, []
    for ell in _primes(3, max_ell):
        for q in qs:
            if q % ell == 0:
                continue
            for eps in (1, -1):
                for r in rs:
                    for n in range(1, max_n + 1):
                        report = fields_mod.check_prop75(eps, n, ell, q, r)
                        checks += report.checked
                        for case in report.failures:
                            bad.append(
                                f"field mismatch: eps={eps}, n={n}, "
                                f"ell={ell}, q={q}, r={r}, "
                                f"lambda={case.partition}"
                            )
    return checks, bad


def _suite_table1(data_path=None):
    data = fields_mod.load_cuspidal_field_data(data_path)
    report = fields_mod.table1_consistency(data)
    checks = report.numeric_checks + report.rows_checked
    return checks, list(report.violations)


def _suite_cor55(max_p=23, max_n=6):
    checks, bad = 0, []
    for p in _primes(2, max_p):
        for e in (1, 2):
            for n in range(2, max_n + 1):
                for k in range(1, p):
                    checks += 2
                    jacobi_ok, central_ok = langmap_mod.verify_cor55(n, p, e, k)
                    if not jacobi_ok:
                        bad.append(
                            f"Jacobi-symbol formula fails at "
                            f"n={n}, p={p}, e={e}, k={k}"
                        )
                    if not central_ok:
                        bad.append(
                            f"Lang image not central at "
                            f"n={n}, p={p}, e={e}, k={k}"
                        )
    return checks, bad


def _suite_weyl_match(max_rank=5, max_rank_d=4):
    checks, bad = 0, []
    cases = (
        [("A", r, tw) for r in range(1, max_rank + 1) for tw in (False, True)]
        + [("B", r, False) for r in range(2, max_rank + 1)]
        + [
            ("D", r, tw)
            for r in range(2, max_rank_d + 1)
            for tw in (False, True)
        ]
    )
    for series, r, _ in cases:
        weyl_mod._check_weyl_order(series, r)
    for series, r, twisted in cases:
        for d in weyl_mod.relevant_d_values(series, r, twisted):
            checks += 1
            rep = weyl_mod.analyze_relative_weyl(series, r, twisted, d)
            if not rep.consistent:
                bad.append(
                    f"inconsistent relative Weyl data for "
                    f"series={series}, rank={r}, twisted={twisted}, d={d}"
                )
    return checks, bad


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

_REGISTRY = {
    "lemma22": (
        _suite_lemma22,
        {"max_ell": 200, "max_q": 200, "max_modulus": 120, "max_d": 12},
        "quadratic-residue loci and Galois-subgroup containments",
    ),
    "lemma71": (
        _suite_lemma71,
        {"max_ell": 100, "max_r": 20, "max_p0": 50, "max_r_implication": 12},
        "root-existence predicate vs brute force, order-divisor implication",
    ),
    "lemma82": (
        _suite_lemma82,
        {"max_p": 23, "max_r0": 8, "max_ell": 61},
        "central-product splitting over the full parameter grid",
    ),
    "thm41": (
        _suite_thm41,
        {"max_m": 12, "max_a": 4, "sub_max_m": 6, "sub_max_a": 3},
        "wreath-product and index-2-subgroup character conductors divide m",
    ),
    "lemma42": (
        _suite_lemma42,
        {"max_m": 12, "max_a": 4, "sub_max_m": 6, "sub_max_a": 3, "max_d": 12},
        "the same characters are Galois-fixed whenever m | lcm(2, d)",
    ),
    "cor74": (
        _suite_cor74,
        {"max_n": 12, "max_d": 12},
        "equal even-d-cores share a 2-core; 2-step decompositions recompose",
    ),
    "lemma72": (
        _suite_lemma72,
        {"max_rank": 6, "max_defect": 3, "max_d": 7},
        "symbols with equal odd-d-cores share a 1-core",
    ),
    "prop75": (
        _suite_prop75,
        {"max_n": 10, "max_ell": 31, "qs": (2, 3, 4, 5, 7, 8, 9), "rs": (1, 2)},
        "type-A extension fields constant along d'-cores",
    ),
    "table1": (
        _suite_table1,
        {"data_path": None},
        "curated cuspidal-field table consistency",
    ),
    "cor55": (
        _suite_cor55,
        {"max_p": 23, "max_n": 6},
        "Lang-map images match the Jacobi-symbol formula and are central",
    ),
    "weyl-match": (
        _suite_weyl_match,
        {"max_rank": 5, "max_rank_d": 4},
        "relative-Weyl oracle vs wreath prediction, with fixed characters",
    ),
}

SUITE_NAMES = tuple(_REGISTRY)


def suite_defaults(name: str) -> dict:
    """The default parameters of a suite (a copy)."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return dict(_REGISTRY[name][1])


def suite_description(name: str) -> str:
    if name not in _REGISTRY:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _REGISTRY[name][2]


def run_suite(name: str, params: dict | None = None) -> CheckReport:
    """Run one named suite with optional parameter overrides."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    func, defaults, _ = _REGISTRY[name]
    effective = dict(defaults)
    for key, value in (params or {}).items():
        if key not in defaults:
            raise ValueError(
                f"unknown parameter {key!r} for suite {name!r}; "
                f"valid keys: {sorted(defaults)}"
            )
        effective[key] = value
    start = time.perf_counter()
    checks, counterexamples = func(**effective)
    elapsed = time.perf_counter() - start
    serializable = {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in effective.items()
    }
    return CheckReport(
        name=name,
        params=serializable,
        checks=checks,
        counterexamples=tuple(counterexamples),
        wall_time=elapsed,
    )
