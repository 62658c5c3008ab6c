"""What the benchmark's tracer (``perfbench/tracer.py``) reads of the package:
the ``cache_info()`` of the lru_caches named in its ``CACHES``, the methods
named in its ``METHODS`` (looked up as ``cls.__dict__[attr]``) and the
functions named in its ``RENAMED`` and ``UNWRAPPED``, and the spans named in
its ``DISTINCT``.  If one of them is renamed, moved or loses its cache,
``perfbench/run.py --trace 1`` fails."""

import importlib
import importlib.util
from pathlib import Path

import charverify.weyl  # noqa: F401  (the tracer reads loaded modules)
import charverify.wreath  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_caches_are_lru_caches():
    tracer = _load_tracer()
    assert {(module, attr) for module, attr, _ in tracer.CACHES} == {
        ("wreath", "get_table"),
        ("wreath", "get_subgroup_table"),
        ("wreath", "_hook_op"),
        ("weyl", "_dixon_of"),
    }
    for module, attr, _ in tracer.CACHES:
        cached = getattr(importlib.import_module(f"charverify.{module}"), attr)
        assert callable(getattr(cached, "cache_info", None)), (module, attr)
    snapshot = tracer.cache_snapshot()
    assert set(snapshot) == {metric for _, _, metric in tracer.CACHES}
    assert all(hits >= 0 and misses >= 0 for hits, misses in snapshot.values())


def test_traced_names_exist():
    """Every method the tracer wraps is found in its class's own namespace,
    and every span name it renames or leaves unwrapped is a package
    attribute."""
    tracer = _load_tracer()
    for module, cls_name, attr, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"charverify.{module}"), cls_name)
        assert attr in cls.__dict__, (module, cls_name, attr)
    for qualified in set(tracer.RENAMED) | tracer.UNWRAPPED:
        module, attr = qualified.split(".")
        assert hasattr(importlib.import_module(f"charverify.{module}"), attr), qualified


def test_distinct_spans_are_traced_functions():
    """Every span whose distinct arguments the tracer counts is a public
    function it wraps under exactly that name, so the count is filled."""
    tracer = _load_tracer()
    for name in tracer.DISTINCT:
        module, attr = name.split(".")
        assert module in tracer.TRACED_MODULES, name
        functions = tracer._public_functions(importlib.import_module(f"charverify.{module}"))
        assert attr in functions, name
        assert name not in tracer.RENAMED and name not in tracer.UNWRAPPED, name
