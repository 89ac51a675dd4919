"""Per-layer tracing of ``flatknots`` from outside the package.

Each public function of a layer module is replaced, in every
``flatknots.*`` module binding that refers to it, by a wrapper that
counts calls and records spans.  Rebinding every reference catches
cross-module calls made through ``from .words import canonical``.  The
package source is not edited.

A span (function, parent span, start, end) is recorded where a call
enters a layer: at the outermost call, and wherever the caller's layer
differs from the callee's.  A call nested inside its own layer is
counted but not spanned, so its time stays in the enclosing span's self
time; functions whose own self time is a metric are always spanned.
Self time is a span's duration minus the durations of its child spans.
Spans are kept in flat arrays and can be written out at the end.

A counter whose source is missing (a function renamed, a cached helper
removed) reads None instead of failing, so the same tracer runs on
every commit.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from array import array
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "flatknots"
LAYERS = ("words", "embedding", "invariants", "moves", "explore", "corpus", "knots", "laurent", "cli")

# Cached helpers whose hit ratio is reported, by metric name.
CACHES = {"words.canonical.cache_hit_ratio": ("words", "_canonical_cached")}

# Functions whose own self time is a metric.
SPANNED = ("explore.enumerate_words",)

CALL_COUNTS = (
    "words.canonical",
    "embedding.realize",
    "embedding.is_realizable",
    "invariants.cross_chord_number",
    "invariants.trivializing_number",
    "invariants.h_invariant",
    "moves.find_sites",
    "moves.apply_move",
    "knots.kauffman_bracket",
    "laurent.laurent_mul",
    "laurent.laurent_add",
)


def _size(result, exc) -> int:
    return 0 if exc is not None else len(result)


# Observers see each call's result or exception; each adds an amount to
# a named tally.
OBSERVERS: Dict[str, Tuple[Tuple[str, Callable[[object, Optional[BaseException]], int]], ...]] = {
    "embedding.realize": (("accepted", lambda r, e: int(e is None)),),
    "embedding.is_realizable": (("accepted", lambda r, e: int(e is None and r is True)),),
    "moves.find_sites": (("sites_found", _size),),
    "moves.apply_move": (("apply_rejected", lambda r, e: int(e is not None)),),
    "moves.neighbors": (("neighbors_found", _size),),
    "explore.search_class": (
        ("states", lambda r, e: 0 if e else len(r.words)),
        ("new_states", lambda r, e: 0 if e else len(r.words) - 1),
        ("truncated", lambda r, e: int(e is None and bool(r.truncated))),
    ),
}


def _is_public_function(name: str, obj: object, module: str) -> bool:
    return (
        not name.startswith("_")
        and getattr(obj, "__module__", None) == module
        and (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"))
    )


def ratio(part: Optional[float], whole: Optional[float]) -> Optional[float]:
    """part / whole; None when a source is missing, 0 when nothing was attempted."""
    if part is None or whole is None:
        return None
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.calls: List[int] = []
        self.ids: Dict[str, int] = {}
        self.tally: Dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[Tuple[str, int]] = []
        self._patched: List[Tuple[types.ModuleType, str, object]] = []
        self._cache_before: Dict[str, Tuple[int, int]] = {}
        self.layers: Dict[str, types.ModuleType] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            try:
                self.layers[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
        wrappers: Dict[int, Tuple[object, Callable]] = {}
        for layer, module in self.layers.items():
            for name, obj in vars(module).items():
                if _is_public_function(name, obj, module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{name}"))
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(module).items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    setattr(module, name, found[1])
                    self._patched.append((module, name, obj))
        for metric, (layer, helper) in CACHES.items():
            info = self._cache_info(layer, helper)
            if info is not None:
                self._cache_before[metric] = info

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _cache_info(self, layer: str, helper: str) -> Optional[Tuple[int, int]]:
        cached = getattr(self.layers.get(layer), helper, None)
        if cached is None or not hasattr(cached, "cache_info"):
            return None
        info = cached.cache_info()
        return info.hits, info.misses

    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        fid = len(self.names)
        self.ids[name] = fid
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        observers = OBSERVERS.get(name, ())
        for key, _ in observers:
            self.tally.setdefault(key, 0)
        calls, stack, tally = self.calls, self._stack, self.tally
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter
        nested_spans = name in SPANNED

        def observed(args, kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                for key, observe in observers:
                    tally[key] += observe(None, exc)
                raise
            for key, observe in observers:
                tally[key] += observe(result, None)
            return result

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            if stack and stack[-1][0] is layer and not nested_spans:
                return observed(args, kwargs) if observers else fn(*args, **kwargs)
            index = len(span_name)
            span_name.append(fid)
            span_parent.append(stack[-1][1] if stack else -1)
            span_end.append(0.0)
            stack.append((layer, index))
            span_start.append(clock())
            try:
                return observed(args, kwargs) if observers else fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- results ----------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Self time summed per layer and per function."""
        count = len(self.span_name)
        child = [0.0] * count
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        by_function = [0.0] * len(self.names)
        for i in range(count):
            by_function[self.span_name[i]] += ends[i] - starts[i] - child[i]
        by_layer: Dict[str, float] = {layer: 0.0 for layer in self.layers}
        for fid, seconds in enumerate(by_function):
            by_layer[self.layer_of[fid]] += seconds
        return by_layer, dict(zip(self.names, by_function))

    def metrics(self) -> Dict[str, Optional[float]]:
        """Every per-layer metric; None where its source does not exist."""
        by_layer, by_function = self.self_times()

        def calls(name: str) -> Optional[int]:
            return self.calls[self.ids[name]] if name in self.ids else None

        def tally(key: str, *sources: str) -> Optional[int]:
            return self.tally[key] if all(s in self.ids for s in sources) else None

        out: Dict[str, Optional[float]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = by_layer.get(layer)
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = calls(name)
        for metric, (layer, helper) in CACHES.items():
            before, after = self._cache_before.get(metric), self._cache_info(layer, helper)
            if before is None or after is None:
                out[metric] = None
            else:
                hits, misses = after[0] - before[0], after[1] - before[1]
                out[metric] = ratio(hits, hits + misses)
        decisions = None
        if "embedding.realize" in self.ids and "embedding.is_realizable" in self.ids:
            decisions = calls("embedding.realize") + calls("embedding.is_realizable")
        out["embedding.accept_ratio"] = ratio(
            tally("accepted", "embedding.realize", "embedding.is_realizable"), decisions
        )
        out["moves.sites_found"] = tally("sites_found", "moves.find_sites")
        applied, rejected = calls("moves.apply_move"), tally("apply_rejected", "moves.apply_move")
        out["moves.apply_move.rejected"] = rejected
        out["moves.apply_ratio"] = ratio(
            None if applied is None else applied - rejected, applied
        )
        out["explore.search_class.states"] = tally("states", "explore.search_class")
        out["explore.search_class.truncated"] = tally("truncated", "explore.search_class")
        out["explore.new_state_ratio"] = ratio(
            tally("new_states", "explore.search_class"),
            tally("neighbors_found", "moves.neighbors"),
        )
        for name in SPANNED:
            out[f"{name}.self_s"] = by_function.get(name)
        return out

    def write_spans(self, path) -> None:
        """One JSON header line (function names, span count), then the raw
        arrays: names and parents as int64, starts and ends as float64."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "spans": len(self.span_name)}
            handle.write((json.dumps(header) + "\n").encode())
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(handle)
