"""Per-layer tracing of charverify from outside the program.

``Tracer.install`` replaces the public functions of each traced module, and
a few named methods, with wrappers that time every call.  Each wrapper keeps
a stack of the time its wrapped callees took, so a call's self time is its
duration minus the part its wrapped children cover.  Spans are aggregated
in memory by name (calls, self time, total time, distinct arguments) and
read once the workload has finished.

Modules bind names at import (``from .partitions import d_core``), so a
wrapper is installed under every charverify module name that is bound to the
original; otherwise calls through those names would be missed silently.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = (
    "grouptable",
    "cyclotomic",
    "wreath",
    "weyl",
    "partitions",
    "symbols",
    "fields",
    "ladic",
    "langmap",
    "suites",
    "report",
)

# Element-level callbacks that FiniteGroup stores and calls inside Dixon's
# class computation; wrapping them would move group multiplication out of
# grouptable's self time and multiply the tracing overhead.
UNWRAPPED = {"weyl.sp_mul", "weyl.sp_identity"}

# Span names that differ from "<module>.<function>".
RENAMED = {
    "wreath.h_d_invariant": "wreath.fixedness",
    "wreath.conductor_of_char": "wreath.fixedness",
    "weyl.centralizer_group": "weyl.centralizer",
    "weyl.predicted_relative_weyl": "weyl.predicted",
    "weyl.character_values_hd_fixed": "weyl.hd_fixed",
    "fields.extension_field_typeA": "fields.extension_field",
}

# (module, class, attribute, span name): methods traced besides the
# module-level functions.
METHODS = (
    ("grouptable", "CharacterTable", "dixon", "grouptable.dixon"),
    ("cyclotomic", "CyclotomicNumber", "__eq__", "cyclotomic.eq"),
    ("cyclotomic", "CyclotomicNumber", "galois", "cyclotomic.galois"),
    ("cyclotomic", "CyclotomicNumber", "conjugate", "cyclotomic.galois"),
    ("cyclotomic", "CyclotomicNumber", "lift", "cyclotomic.lift"),
    ("cyclotomic", "GaloisSubgroup", "__init__", "cyclotomic.subgroup"),
    ("wreath", "WreathTable", "__init__", "wreath.table_build"),
)

# Spans whose distinct arguments are counted, to show repeated work.
DISTINCT = ("partitions.d_core", "ladic.mult_order", "langmap.lang_image")

# lru_cache objects whose hit ratio is reported: (module, attribute, metric).
CACHES = (
    ("wreath", "get_table", "wreath.get_table.hit_ratio"),
    ("wreath", "get_subgroup_table", "wreath.get_subgroup_table.hit_ratio"),
    ("wreath", "_hook_op", "wreath.hook_op.hit_ratio"),
    ("weyl", "_dixon_of", "weyl.dixon_of.hit_ratio"),
)


def _module(name: str):
    return sys.modules[f"charverify.{name}"]


def _public_functions(module) -> dict[str, object]:
    """Module-level public callables defined in ``module`` itself.

    Generator functions are left out: their call returns before any of the
    work is done, so a span around the call would time nothing.
    """
    out = {}
    for name, value in vars(module).items():
        if name.startswith("_") or isinstance(value, type) or not callable(value):
            continue
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isgeneratorfunction(getattr(value, "__wrapped__", value)):
            continue
        out[name] = value
    return out


def cache_snapshot() -> dict[str, tuple[int, int]]:
    """(hits, misses) of every reported lru_cache, by metric name."""
    out = {}
    for module, attr, metric in CACHES:
        cached = getattr(_module(module), attr)
        while not hasattr(cached, "cache_info"):
            cached = cached.__wrapped__
        info = cached.cache_info()
        out[metric] = (info.hits, info.misses)
    return out


def cache_deltas(before: dict, after: dict) -> dict[str, dict[str, int]]:
    return {
        metric: {
            "hits": after[metric][0] - before[metric][0],
            "misses": after[metric][1] - before[metric][1],
        }
        for metric in after
    }


class Tracer:
    """Aggregated spans of the wrapped charverify functions."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self._stack = [0.0]

    # -- wrappers ---------------------------------------------------------

    def _wrapper(self, fn, span):
        stack, calls, self_s, total_s = self._stack, self.calls, self.self_s, self.total_s
        clock = time.perf_counter
        seen = self.distinct.get(span)
        named_by_arg = span == "suites.run_suite"

        def traced(*args, **kwargs):
            name = f"suites.{args[0] if args else kwargs['name']}" if named_by_arg else span
            if seen is not None:
                seen.add((args, tuple(sorted(kwargs.items()))))
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - children
                total_s[name] += elapsed

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function under every module name bound to it."""
        replacements: dict[int, object] = {}
        for mod_name in TRACED_MODULES:
            module = _module(mod_name)
            for name, fn in _public_functions(module).items():
                qualified = f"{mod_name}.{name}"
                if qualified not in UNWRAPPED:
                    replacements[id(fn)] = self._wrapper(fn, RENAMED.get(qualified, qualified))
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(_module(mod_name), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrapper(raw.__func__, span)))
            else:
                setattr(cls, attr, self._wrapper(raw, span))
        # Each wrapper holds its original, so the ids stay unique.
        for name, module in sys.modules.items():
            if name.startswith("charverify."):
                namespace = vars(module)
                for attr, value in list(namespace.items()):
                    if id(value) in replacements:
                        namespace[attr] = replacements[id(value)]

    # -- results ------------------------------------------------------------

    def spans(self) -> dict[str, dict]:
        return {
            name: {
                "calls": self.calls[name],
                "self_s": self.self_s[name],
                "total_s": self.total_s[name],
            }
            for name in sorted(self.calls)
        }

    def distinct_counts(self) -> dict[str, int]:
        return {name: len(keys) for name, keys in self.distinct.items()}


def _ratio(numerator: int, denominator: int) -> float:
    """A share of calls; 0.0 when the workload made no call at all."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: dict, distinct: dict, caches: dict, suite_names) -> dict[str, float]:
    """The reported per-layer metrics, from one traced child's aggregates."""

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def module_self(prefix):
        return sum(s["self_s"] for n, s in spans.items() if n.startswith(prefix + "."))

    def hit_ratio(metric):
        c = caches[metric]
        return _ratio(c["hits"], c["hits"] + c["misses"])

    out = {
        "grouptable.dixon.calls": calls("grouptable.dixon"),
        "grouptable.dixon.self_s": self_s("grouptable.dixon"),
        "cyclotomic.subgroup.calls": calls("cyclotomic.subgroup"),
        "cyclotomic.subgroup.self_s": self_s("cyclotomic.subgroup"),
        "cyclotomic.conductor.self_s": self_s("cyclotomic.conductor"),
        "wreath.table_build.calls": calls("wreath.table_build"),
        "wreath.table_build.self_s": self_s("wreath.table_build"),
        "wreath.fixedness.self_s": self_s("wreath.fixedness"),
        "wreath.irr_labels.self_s": self_s("wreath.irr_labels"),
        "weyl.centralizer.self_s": self_s("weyl.centralizer"),
        "weyl.predicted.self_s": self_s("weyl.predicted"),
        "weyl.hd_fixed.self_s": self_s("weyl.hd_fixed"),
        "partitions.d_core.calls": calls("partitions.d_core"),
        "partitions.d_core.distinct_ratio": _ratio(
            distinct["partitions.d_core"], calls("partitions.d_core")
        ),
        "partitions.d_core.self_s": self_s("partitions.d_core"),
        "symbols.symbol_d_core.calls": calls("symbols.symbol_d_core"),
        "symbols.symbol_d_core.self_s": self_s("symbols.symbol_d_core"),
        "fields.extension_field.calls": calls("fields.extension_field"),
        "fields.extension_field.self_s": self_s("fields.extension_field"),
        "fields.check_prop75.self_s": self_s("fields.check_prop75"),
        "ladic.mult_order.calls": calls("ladic.mult_order"),
        "ladic.mult_order.distinct_ratio": _ratio(
            distinct["ladic.mult_order"], calls("ladic.mult_order")
        ),
        "ladic.hd_subgroup.calls": calls("ladic.hd_subgroup"),
        "langmap.lang_image.calls": calls("langmap.lang_image"),
        "langmap.lang_image.distinct_ratio": _ratio(
            distinct["langmap.lang_image"], calls("langmap.lang_image")
        ),
        "report.render.self_s": module_self("report"),
    }
    for _, _, metric in CACHES:
        out[metric] = hit_ratio(metric)
    for module in TRACED_MODULES:
        if module != "report":
            out[f"{module}.self_s"] = module_self(module)
    for name in suite_names:
        out[f"suites.{name}.wall_s"] = spans.get(f"suites.{name}", {}).get("total_s", 0.0)
    return out
