"""In-memory span recorder and the wrappers that patch twobridge's layer boundaries.

The benchmark adds no code to the package.  It measures each layer from
outside by replacing a public function with a wrapper that records a span
(name, start, end, parent) and installing that wrapper under every name a
caller uses: ``enumeration`` calls ``cg_condition`` through its own import,
so ``enumeration.cg_condition`` is patched as well as
``casson_gordon.cg_condition``.  :func:`patched` undoes every replacement on
exit, even when the traced code raises.

Self time of a span is its duration minus the durations of its direct
child spans.  Busy time of a name is the summed duration of its outermost
spans (a span nested inside another span of the same name is not counted
twice).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

# (span name, home module, attribute, modules that call the function through
# a name of their own).  Every module is a submodule of ``twobridge``.
SPANS = (
    ("casson_gordon.cg_condition", "casson_gordon", "cg_condition", ("enumeration", "cli")),
    ("casson_gordon.weighted_count", "casson_gordon", "weighted_count", ("cli",)),
    ("enumeration.conjecture_scan", "enumeration", "conjecture_scan", ()),
    ("enumeration.scan_p", "enumeration", "_scan_single_p", ()),
    ("enumeration.enumerate_classes", "enumeration", "enumerate_classes", ()),
    ("enumeration.ribbon_table", "enumeration", "ribbon_table", ()),
    ("enumeration.amphicheiral_crosscheck", "enumeration", "amphicheiral_crosscheck", ()),
    ("families.is_family_member", "families", "is_family_member", ("enumeration",)),
    ("families.partial_knot", "families", "partial_knot", ()),
    ("families.build_family_index", "families", "build_family_index", ("enumeration",)),
    ("conway.cf_eval", "conway", "cf_eval", ("enumeration", "families", "cli")),
    ("conway.canonical_class", "conway", "canonical_class", ("enumeration", "families")),
    ("cli.execute", "cli", "execute", ()),
)

# Leaf functions called too often for a span each: only their calls are counted.
COUNTERS = (
    ("casson_gordon.floor_sum", "casson_gordon", "floor_sum", ()),
)

# Spans whose first positional argument is kept (the p of each scanned determinant).
KEEP_ARG = frozenset({"enumeration.scan_p"})


class Tracer:
    """Spans and call counts of one traced repetition, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.args: dict[int, object] = {}
        self.counts: Counter[str] = Counter()
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(
        self,
        fn: Callable,
        name: str,
        observe: Callable[[object], None] | None = None,
        keep_arg: bool = False,
    ) -> Callable:
        """Wrap ``fn`` so that each call records one span named ``name``."""
        nid = self._id(name)
        stack, names, parents = self._stack, self.name_id, self.parent
        starts, ends, kept = self.start, self.end, self.args
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            if keep_arg:
                kept[i] = args[0]
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return _like(wrapper, fn)

    def counter(self, fn: Callable, name: str) -> Callable:
        """Wrap ``fn`` so that each call only increments ``counts[name]``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return _like(wrapper, fn)

    def __len__(self) -> int:
        return len(self.start)

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` (outermost spans) and ``self_s``."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        mask = [0] * n  # bit k set when an ancestor span has name id k
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += dur[i]
                mask[i] = mask[par] | (1 << self.name_id[par])
        for i in range(n):
            nid = self.name_id[i]
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            if not (mask[i] >> nid) & 1:
                row["busy_s"] += dur[i]
        return out

    def children_of(self, name: str) -> dict[int, float]:
        """Duration of the direct children of every span named ``name``, by span index."""
        nid = self._ids.get(name)
        out: dict[int, float] = {}
        if nid is None:
            return out
        for i in range(len(self.start)):
            par = self.parent[i]
            if par >= 0 and self.name_id[par] == nid:
                out[par] = out.get(par, 0.0) + self.end[i] - self.start[i]
        return out

    def child_names(self, name: str) -> Counter[str]:
        """Number of direct children of spans named ``name``, by child name."""
        nid = self._ids.get(name)
        out: Counter[str] = Counter()
        for i in range(len(self.start)):
            par = self.parent[i]
            if par >= 0 and self.name_id[par] == nid:
                out[self.names[self.name_id[i]]] += 1
        return out

    def spans_named(self, name: str) -> Iterator[int]:
        nid = self._ids.get(name)
        return (i for i in range(len(self.start)) if self.name_id[i] == nid)

    def write(self, path) -> None:
        """Write every span as ``name_id parent start end`` lines after a JSON header."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            header = {"names": self.names, "counts": dict(self.counts), "columns": "name_id parent start end"}
            fh.write(json.dumps(header) + "\n")
            fh.writelines(
                f"{self.name_id[i]} {self.parent[i]} {self.start[i]:.9f} {self.end[i]:.9f}\n"
                for i in range(len(self.start))
            )


def _like(wrapper: Callable, fn: Callable) -> Callable:
    functools.update_wrapper(wrapper, fn)
    for attr in ("cache_clear", "cache_info"):  # lru_cache controls stay reachable
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


def _miss_counter(fn: Callable, counts: Counter, name: str) -> Callable:
    """Wrap an lru_cache function so that ``counts[name + ".misses"]`` counts its cache misses.

    Counted per call, because a ``cache_clear`` between calls resets ``cache_info``.
    """
    key = f"{name}.misses"

    def wrapper(*args, **kwargs):
        before = fn.cache_info().misses
        try:
            return fn(*args, **kwargs)
        finally:
            counts[key] += fn.cache_info().misses - before

    return _like(wrapper, fn)


def _module(name: str):
    return importlib.import_module(f"twobridge.{name}")


def _observe_cg(tracer: Tracer) -> Callable[[object], None]:
    counts = tracer.counts

    def observe(report) -> None:
        if report.passes:
            counts["cg_condition.passes"] += 1
        elif report.first_failure == 1:
            counts["cg_condition.fail_r1"] += 1

    return observe


@contextmanager
def patched(tracer: Tracer) -> Iterator[list[str]]:
    """Install the tracer's wrappers at every boundary; restore the originals on exit.

    Yields the boundary names that could not be patched because the code
    no longer has them (their metrics read 0).
    """
    saved: list[tuple[object, str, object]] = []
    missing: list[str] = []
    try:
        for table, make in ((SPANS, "span"), (COUNTERS, "counter")):
            for name, home, attr, callers in table:
                original = getattr(_module(home), attr, None)
                if original is None:
                    missing.append(f"{home}.{attr}")
                    continue
                if make == "counter":
                    wrapper = tracer.counter(original, name)
                else:
                    observe = _observe_cg(tracer) if name == "casson_gordon.cg_condition" else None
                    inner = _miss_counter(original, tracer.counts, name) if hasattr(original, "cache_info") else original
                    wrapper = tracer.span(inner, name, observe, keep_arg=name in KEEP_ARG)
                for mod_name in (home,) + callers:
                    mod = _module(mod_name)
                    if getattr(mod, attr, None) is not original:
                        missing.append(f"{mod_name}.{attr}")
                        continue
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        yield missing
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)

