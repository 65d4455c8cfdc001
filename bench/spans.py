"""Span recording at the boundaries between finitetop's layers.

A traced worker replaces each listed public function, wherever a finitetop
module has bound it, with a wrapper that records a span around the call.
Calls between layers then pass through the wrapper too, so the spans cover
the program's own layer crossings without changing its source.  Spans are
folded into totals as they close, per layer function and per item, because
a run makes millions of them.

A span's self time is its duration minus the durations of the spans nested
directly inside it.
"""

from __future__ import annotations

import gc
import sys

# (module, function) pairs wrapped in a traced run.  spaces.from_preorder is
# timed by a separate pass instead (see worker.preorder_pass), so that
# census.enumerate_topologies keeps its whole time.
LAYER_FUNCTIONS = (
    ("spaces", "product"),
    ("operators", "alpha_topology"),
    ("operators", "set_class"),
    ("operators", "hull"),
    ("covers", "check_property"),
    ("maps", "enumerate_maps"),
    ("maps", "verify_fm1"),
    ("census", "profile"),
    ("census", "space_id"),
    ("census", "write_census"),
    ("census", "read_census"),
    ("verifier", "run_suite"),
)

# functions whose lru_cache counters feed hit ratios and cache sizes
CACHED = ("operators.alpha_topology", "operators.set_class", "covers.check_property")


class Tracer:
    def __init__(self, now) -> None:
        self.now = now
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.items: dict[str, dict[str, list]] = {}  # item -> name -> [calls, self_s]
        self.counts: dict[str, int] = {}
        self.item = None
        self.originals: dict[str, object] = {}
        self._stack: list[float] = []
        self.cache_start: dict[str, list[int]] = {}
        self._gc_start = 0.0
        self.gc_collections = 0
        self.gc_pause_s = 0.0

    # --- spans ------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        stack = self._stack
        stack.append(0.0)
        now = self.now
        t0 = now()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = now() - t0
            own = dur - stack.pop()
            if stack:
                stack[-1] += dur
            rec = self.totals.get(name)
            if rec is None:
                rec = self.totals[name] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += own
            if self.item is not None:
                per = self.items.setdefault(self.item, {})
                rec = per.get(name)
                if rec is None:
                    rec = per[name] = [0, 0.0]
                rec[0] += 1
                rec[1] += own

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def reset(self) -> None:
        """Forget what was recorded so far, such as the work of set-up."""
        self.totals.clear()
        self.items.clear()
        self.counts.clear()
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self.cache_start = self.cache_counters()

    # --- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.startswith("finitetop")]
        for mod_name, fn_name in LAYER_FUNCTIONS:
            owner = sys.modules[f"finitetop.{mod_name}"]
            original = getattr(owner, fn_name, None)
            if original is None:
                continue
            label = f"{mod_name}.{fn_name}"
            self.originals[label] = original
            wrapper = self._wrapper(label, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        gc.callbacks.append(self._on_gc)
        self.cache_start = self.cache_counters()

    def _wrapper(self, label: str, original):
        call = self.call
        if label == "verifier.run_suite":
            def wrapper(suite, *args, **kwargs):
                return call(f"{label}.{suite}", original, suite, *args, **kwargs)
        elif label == "maps.verify_fm1":
            def wrapper(*args, **kwargs):
                verdict = call(label, original, *args, **kwargs)
                if verdict != "not-applicable":
                    self.count("maps.verify_fm1.applicable")
                return verdict
        elif label == "maps.enumerate_maps":
            # the maps are made as the caller iterates, inside its span;
            # count them rather than time them
            def wrapper(*args, **kwargs):
                for f in original(*args, **kwargs):
                    self.count("maps.enumerate_maps.maps")
                    yield f
        else:
            def wrapper(*args, **kwargs):
                return call(label, original, *args, **kwargs)
        wrapper.__wrapped__ = original
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self.now()
        else:
            self.gc_collections += 1
            self.gc_pause_s += self.now() - self._gc_start

    # --- caches -------------------------------------------------------------

    def cache_counters(self) -> dict[str, list[int]]:
        """[hits, misses, entries] of every cached layer function."""
        out = {}
        for label in CACHED:
            info = getattr(self.originals.get(label), "cache_info", None)
            if info is not None:
                ci = info()
                out[label] = [ci.hits, ci.misses, ci.currsize]
        return out

    def summary(self) -> dict:
        now = self.cache_counters()
        caches = {
            label: [
                now[label][0] - self.cache_start.get(label, [0, 0])[0],
                now[label][1] - self.cache_start.get(label, [0, 0])[1],
                now[label][2],
            ]
            for label in now
        }
        return {
            "totals": self.totals,
            "counts": self.counts,
            "caches": caches,
            "gc": [self.gc_collections, self.gc_pause_s],
        }
