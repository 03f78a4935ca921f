"""Per-module tracing from outside the program.

install() wraps the public functions of the seven gdmagic modules, and a few
hot methods, in the process that calls it; the benchmark calls it only in a
forked child that runs one traced operation. Coarse calls become spans
(name, start, end, parent). Hot calls, which run up to millions of times a
pass, only add to a counter of calls and nanoseconds.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = ("abelian", "graphs", "products", "magic", "constructors", "solver", "cli")

# module -> names wrapped as counters instead of spans
HOT = {
    "abelian": ("GroupSpec.add", "GroupSpec.sub", "GroupSpec.neg",
                "CyclicFactorSplit.from_pair", "CyclicFactorSplit.to_pair"),
    "graphs": ("Graph.from_edges", "find_isomorphism"),
    "magic": ("weight", "weight_mismatch", "verify"),
}

# graphs on at most this many vertices count as naive-search verify calls
SMALL_GRAPH = 8


def _search_tag(args, kwargs, result):
    opts = args[2] if len(args) > 2 else kwargs.get("opts")
    mode = getattr(opts, "mode", "first")
    if opts is not None and not opts.use_pruning:
        tag = "naive"
    elif opts is not None and opts.jobs > 1:
        tag = "jobs2"
    elif mode == "count":
        tag = "count"
    elif mode == "first":
        tag = "first_found" if result else "first_none"
    else:
        tag = mode
    return tag, result if isinstance(result, int) else len(result)


def _verify_certificate_tag(args, kwargs, result):
    return ("accept" if result[0] else "reject"), None


TAGGERS = {"solver.search_labelings": _search_tag,
           "magic.verify_certificate": _verify_certificate_tag}


class Trace:
    """Spans and counters of one process. A span is a list
    [name, parent, start_ns, end_ns, tag, value, verify_ns]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, list[int]] = {}

    def span(self, fn, name):
        tagger = TAGGERS.get(name)
        spans, stack, now = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, now(), 0, None, None, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = now()
                stack.pop()
            if tagger is not None:
                record[4], record[5] = tagger(args, kwargs, result)
            return result
        return wrapper

    def counter(self, fn, name):
        calls = self.counters.setdefault(name, [0, 0])
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                calls[0] += 1
                calls[1] += now() - start
        return wrapper

    def verify_counter(self, fn):
        """magic.verify: counted apart for small graphs, and its time added
        to every open span so that labelers' self time can leave it out."""
        every = self.counters.setdefault("magic.verify", [0, 0])
        small = self.counters.setdefault("magic.verify.small", [0, 0])
        spans, stack, now = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(g, *args, **kwargs):
            start = now()
            try:
                return fn(g, *args, **kwargs)
            finally:
                took = now() - start
                for c in (every, small) if g.n <= SMALL_GRAPH else (every,):
                    c[0] += 1
                    c[1] += took
                for k in stack:
                    spans[k][6] += took
        return wrapper

    def from_edges_counter(self, fn):
        calls = self.counters.setdefault("graphs.from_edges", [0, 0])
        edges_in = self.counters.setdefault("graphs.from_edges.edges", [0, 0])
        now = time.perf_counter_ns

        def wrapper(n, edges):
            edges = list(edges)
            start = now()
            try:
                return fn(n, edges)
            finally:
                calls[0] += 1
                calls[1] += now() - start
                edges_in[0] += len(edges)
        return staticmethod(wrapper)

    def wrap(self, module: str, name: str, fn):
        full = f"{module}.{name}"
        if full == "magic.verify":
            return self.verify_counter(fn)
        if full == "graphs.Graph.from_edges":
            return self.from_edges_counter(fn)
        if name in HOT.get(module, ()):
            return self.counter(fn, full)
        return self.span(fn, full)

    def install(self) -> None:
        """Wrap every public function of the seven modules and rebind each
        module-level name that refers to it, so that calls through names
        imported by other modules are seen too."""
        package = importlib.import_module("gdmagic")
        mods = {m: importlib.import_module(f"gdmagic.{m}") for m in MODULES}
        replaced = {}
        for short, mod in mods.items():
            public = getattr(mod, "__all__", ("run",))
            for name in public:
                fn = getattr(mod, name)
                if callable(fn) and not isinstance(fn, type) and fn.__module__ == mod.__name__:
                    replaced[id(fn)] = (fn, self.wrap(short, name, fn))
            for dotted in HOT.get(short, ()):
                if "." in dotted:
                    cls_name, meth = dotted.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    setattr(cls, meth, self.wrap(short, dotted, fn))
        for mod in (package, *mods.values()):
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def export(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}
