"""Span tracing of slaterkit's public functions, installed from outside the package.

The package binds functions by name at import time (``states`` does
``from .linalg import epsilon_contract``), so a wrapper is useful only
where callers look the name up.  :func:`install` therefore replaces the
target function under every ``slaterkit`` module attribute that holds it,
plus ``scipy.optimize.minimize`` (looked up as an attribute by
``witnesses``), and :func:`uninstall` puts every original back.

Spans live in memory as tuples ``(name, start, end, parent, op, attrs)``
with ``parent`` an index into the same list; :meth:`Tracer.dump` writes
them once the run ends.  Nothing here is active unless installed, so the
timed runs pay nothing for it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

#: functions wrapped in each module; their span names are ``module.function``
TRACED = {
    "linalg": ("epsilon_contract", "youla_canonical", "takagi_canonical", "pfaffian"),
    "states": ("multiparticle_rank_one", "verify_rank_certificate",
               "slater_rank_by_contractions", "project_reduce",
               "two_fermion_rank_below", "two_boson_rank_below"),
    "sectors": ("tensor_from_amps", "amps_from_tensor", "embed_operator"),
    "mixed": ("convex_roof_oracle", "wootters_concurrence", "slater_number_one_test",
              "is_ppt", "bosonic_ppt_separability", "product_vectors_in_range"),
    "witnesses": ("witness_optimize", "infimum_details", "edge_state_decompose",
                  "witness_from_edge", "witness_operator", "canonical_witness_form"),
    "magic": ("kak_decompose",),
    "modes": ("fock_to_qubits", "mode_bipartition_entropy"),
    "io": ("load_any", "dump"),
}
LBFGS = "witnesses.lbfgs"

_SELF_METRICS = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns
                 if fn not in ("project_reduce", "two_fermion_rank_below",
                               "two_boson_rank_below")]
_CALL_ONLY = ["states.project_reduce", "states.two_fermion_rank_below",
              "states.two_boson_rank_below"]

#: per-layer metric names and units, in report order
LAYER_METRICS: dict[str, str] = {}
for _name in _SELF_METRICS:
    LAYER_METRICS[f"{_name}.calls"] = "count"
    LAYER_METRICS[f"{_name}.self_s"] = "s"
LAYER_METRICS["linalg.epsilon_contract.cold_s"] = "s"
for _name in _CALL_ONLY:
    LAYER_METRICS[f"{_name}.calls"] = "count"
LAYER_METRICS.update({
    "mixed.product_vectors_in_range.discarded_roots": "count",
    "mixed.oracle_gap_max": "concurrence",
    f"{LBFGS}.calls": "count",
    f"{LBFGS}.nit": "count",
    f"{LBFGS}.nfev": "count",
    f"{LBFGS}.success_ratio": "fraction",
    "io.load_any.bytes": "bytes",
    "io.dump.bytes": "bytes",
    "cli.import_s": "s",
    "cli.import.scipy_optimize_s": "s",
    "cli.batch.threads": "count",
    "trace.overhead_ratio": "fraction",
})


class Tracer:
    """In-memory span recorder; parents are tracked per thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = "setup"
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seen_keys: set = set()

    def call(self, name: str, fn, args, kwargs, annotate=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        parent = stack[-1] if stack else None
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.spans[index] = (name, start, time.perf_counter(), parent, self.op,
                                 {"raised": True})
            raise
        finally:
            stack.pop()
        end = time.perf_counter()
        attrs = annotate(self, args, kwargs, result) if annotate else None
        self.spans[index] = (name, start, end, parent, self.op, attrs)
        return result

    def first_time(self, key) -> bool:
        with self._lock:
            if key in self._seen_keys:
                return False
            self._seen_keys.add(key)
            return True

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "counters": self.counters,
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# per-function annotations
# ---------------------------------------------------------------------------

def _contract_attrs(tracer, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    d = len(spec.operands[0]) if spec.operands else 0
    key = (spec.pattern, d, len(spec.operands), spec.free_count)
    return {"cold": tracer.first_time(key)}


def _load_attrs(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _dump_attrs(tracer, args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _roots_attrs(tracer, args, kwargs, result):
    return {"discarded": sum(1 for line in result.diagnostics
                             if line.startswith("discarded"))}


def _lbfgs_attrs(tracer, args, kwargs, result):
    return {"nit": int(getattr(result, "nit", 0)), "nfev": int(getattr(result, "nfev", 0)),
            "success": bool(result.success)}


_ANNOTATE = {
    "linalg.epsilon_contract": _contract_attrs,
    "io.load_any": _load_attrs,
    "io.dump": _dump_attrs,
    "mixed.product_vectors_in_range": _roots_attrs,
    LBFGS: _lbfgs_attrs,
}


# ---------------------------------------------------------------------------
# installing and removing wrappers
# ---------------------------------------------------------------------------

def _make_wrapper(tracer: Tracer, name: str, fn):
    annotate = _ANNOTATE.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, annotate)

    traced.perfbench_span = name
    return traced


def _package_modules() -> list:
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "slaterkit" or key.startswith("slaterkit."))]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced function under every name that refers to it.

    Returns the patch list ``[(owner, attribute, original), ...]`` that
    :func:`uninstall` takes.  Functions the package no longer defines are
    skipped, so their metrics read zero.
    """
    import scipy.optimize

    owners = {name: importlib.import_module(f"slaterkit.{name}") for name in TRACED}
    modules = _package_modules()
    patches: list[tuple] = []
    for mod_name, functions in TRACED.items():
        owner = owners[mod_name]
        for fn_name in functions:
            original = getattr(owner, fn_name, None)
            if original is None:
                continue
            wrapper = _make_wrapper(tracer, f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
    original = scipy.optimize.minimize
    patches.append((scipy.optimize, "minimize", original))
    scipy.optimize.minimize = _make_wrapper(tracer, LBFGS, original)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Names under ``slaterkit`` modules or ``scipy.optimize`` still bound to a wrapper."""
    import scipy.optimize

    found = []
    for module in _package_modules() + [scipy.optimize]:
        for attr, value in vars(module).items():
            if hasattr(value, "perfbench_span"):
                found.append(f"{module.__name__}.{attr}")
    return found


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children may overlap one another (threads), so their intervals are
    merged before subtracting, and clipped to the parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent is not None:
            children.setdefault(parent, []).append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(span_sets: list[list], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from span lists (one per process) and extra counters."""
    values = {name: 0.0 for name in LAYER_METRICS}
    lbfgs_ok = 0
    for spans in span_sets:
        for span, own in zip(spans, self_times(spans)):
            name, start, end, attrs = span[0], span[1], span[2], span[5] or {}
            if f"{name}.calls" in values:
                values[f"{name}.calls"] += 1
            if f"{name}.self_s" in values:
                values[f"{name}.self_s"] += own
            if attrs.get("cold"):
                values["linalg.epsilon_contract.cold_s"] += end - start
            if "bytes" in attrs:
                values[f"{name}.bytes"] += attrs["bytes"]
            if "discarded" in attrs:
                values["mixed.product_vectors_in_range.discarded_roots"] += attrs["discarded"]
            if name == LBFGS:
                values[f"{LBFGS}.nit"] += attrs.get("nit", 0)
                values[f"{LBFGS}.nfev"] += attrs.get("nfev", 0)
                lbfgs_ok += attrs.get("success", False)
    calls = values[f"{LBFGS}.calls"]
    values[f"{LBFGS}.success_ratio"] = lbfgs_ok / calls if calls else 0.0
    values.update(counters)
    return values
