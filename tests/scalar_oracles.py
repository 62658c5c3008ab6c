"""Scalar oracles shared by the table tests: one value at a time, through
``cyclotomic.conductor`` and ``cyclotomic.is_fixed_by``."""

import math

from charverify.cyclotomic import conductor, is_fixed_by
from charverify.ladic import hd_subgroup


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
