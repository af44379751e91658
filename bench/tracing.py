"""Per-layer tracing from outside the package.

Tracer.install() replaces the public functions named in TRACED with
wrappers that record spans in memory: name, start, end, parent span and
command id. A function is patched on its defining module or class and in
every package module that imported it by name, so calls made inside the
package are caught too. The functions passed to harness.replicate are
wrapped as well, so the replica work that runs in worker threads keeps
replicate as its parent. Inside a sample_wishart call the generator it
gets from RngStream.generator is handed over behind a proxy that counts
the entries each draw returns. Nothing inside src/ is changed.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import threading
import time
from collections import defaultdict

PACKAGE_MODULES = ("cli", "harness", "graphcore", "geom", "trees", "sbm", "urns")

# layer -> public names; "Class.method" entries are patched on the class
TRACED = {
    "cli": ("main",),
    "harness": ("replicate", "power_from_samples", "ks_distance",
                "ks_distance_cdf", "tv_lower_bound"),
    "graphcore": ("RngStream.generator", "Graph.from_edges", "bfs_order"),
    "geom": ("sample_er", "sample_rgg", "sample_sphere", "threshold", "h_map",
             "signed_triangle_stat", "sample_wishart", "tr_cubed",
             "triangle_count"),
    "trees": ("grow", "root_confidence_set", "branch_weights",
              "root_finding_success", "max_degree"),
    "sbm": ("sample_sbm", "genie_recover"),
    "urns": ("urn_run_batch", "limit_law_check"),
}

REDUCERS = ("harness.power_from_samples", "harness.ks_distance",
            "harness.ks_distance_cdf", "harness.tv_lower_bound")

# functions whose returned graph is measured for store_bytes_per_edge; a
# graph is counted once, by the outermost of these calls that returns it
PRODUCERS = {"geom.sample_er", "geom.sample_rgg", "geom.h_map",
             "sbm.sample_sbm", "trees.grow", "graphcore.Graph.from_edges"}

FN_SPAN = "harness.replicate.fn"

# (metric name, unit) in the order they are reported
PER_LAYER = (
    ("cli.main.self_ms", "ms"),
    ("harness.replicate.replicas", "replicas/op"),
    ("harness.replicate.self_ms", "ms"),
    ("harness.replicate.parallelism", "x"),
    ("harness.reduce.self_ms", "ms"),
    ("graphcore.RngStream.generator.calls", "calls/op"),
    ("graphcore.RngStream.generator.us_per_call", "us"),
    ("graphcore.Graph.from_edges.self_ms", "ms"),
    ("graphcore.bfs_order.self_ms", "ms"),
    ("graphcore.store_bytes_per_edge", "B/edge"),
    ("geom.sample_er.us_per_call", "us"),
    ("geom.sample_rgg.us_per_call", "us"),
    ("geom.sample_sphere.us_per_call", "us"),
    ("geom.threshold.calls", "calls/op"),
    ("geom.threshold.us_per_call", "us"),
    ("geom.h_map.us_per_call", "us"),
    ("geom.signed_triangle_stat.us_per_call", "us"),
    ("geom.sample_wishart.us_per_call", "us"),
    ("geom.sample_wishart.entries_drawn", "entries/call"),
    ("geom.tr_cubed.us_per_call", "us"),
    ("geom.triangle_count.us_per_call", "us"),
    ("trees.grow.calls", "calls/op"),
    ("trees.grow.us_per_vertex", "us"),
    ("trees.root_confidence_set.us_per_call", "us"),
    ("trees.branch_weights.us_per_call", "us"),
    ("trees.root_finding_success.self_ms", "ms"),
    ("trees.max_degree.us_per_call", "us"),
    ("sbm.sample_sbm.us_per_call", "us"),
    ("sbm.genie_recover.us_per_call", "us"),
    ("urns.urn_run_batch.ns_per_draw", "ns"),
    ("urns.limit_law_check.self_ms", "ms"),
    ("trace.replicas_per_s", "replicas/s"),
)


def _graph_bytes(g) -> tuple[int, int]:
    """ndarray bytes held by a Graph or Tree, and its edge count."""
    total = 0
    for slot in ("adj", "_edges", "parent"):
        arr = getattr(g, slot, None)
        total += getattr(arr, "nbytes", 0)
    return total, int(g.m)


def _work(name: str, args, result):
    """Work done by one call, computed from its arguments or result."""
    if name == "trees.grow":
        return result.n
    if name == "urns.urn_run_batch":
        steps, runs = args[1], args[2]
        return steps * runs
    return None


class _CountingGenerator:
    """Generator proxy that adds the size of every array (or 1 for every
    scalar) a draw returns to the calling thread's `drawn` count."""

    def __init__(self, gen, local):
        self._gen = gen
        self._local = local

    def __getattr__(self, attr):
        method = getattr(self._gen, attr)
        if not callable(method):
            return method

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self._local.drawn += getattr(out, "size", 1)
            return out
        return draw


class Tracer:
    """In-memory span recorder; spans are (id, parent, cmd, name, t0, t1).

    install() patches the package and uninstall() restores it.
    """

    def __init__(self):
        self.spans = []
        self.work = defaultdict(int)  # name -> summed work count
        self.graph_bytes = 0
        self.graph_edges = 0
        self.cmd = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()  # guards work and graph_* across threads
        self._undo = []

    # -- recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add_work(self, name, work) -> None:
        with self._lock:
            self.work[name] += work

    def _call(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        producer = name in PRODUCERS
        if producer:
            self._local.producing = getattr(self._local, "producing", 0) + 1
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            if producer:
                self._local.producing -= 1
            self.spans.append((sid, parent, self.cmd, name, t0, t1))
        if producer and self._local.producing == 0:
            g = getattr(result, "graph", None) or getattr(result, "tree", None) or result
            nbytes, edges = _graph_bytes(g)
            with self._lock:
                self.graph_bytes += nbytes
                self.graph_edges += edges
        work = _work(name, args, result)
        if work is not None:
            self._add_work(name, work)
        return result

    def _wrap(self, name, fn):
        if name == "harness.replicate":
            return self._wrap_replicate(fn)
        if name == "geom.sample_wishart":
            return self._wrap_wishart(fn)
        if name == "graphcore.RngStream.generator":
            return self._wrap_generator(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def _wrap_replicate(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(body, replicas, *args, **kwargs):
            owner = []  # replicate's span id, read by the worker threads

            def traced_body(stream):
                return tracer._call(FN_SPAN, body, (stream,), {},
                                    parent=owner[0])

            def run(*a, **kw):
                owner.append(tracer._stack()[-1])
                return fn(traced_body, *a, **kw)

            tracer._add_work("harness.replicate", replicas)
            return tracer._call("harness.replicate", run,
                                (replicas,) + args, kwargs)
        return traced

    def _wrap_wishart(self, fn):
        """Count the entries drawn by generators handed out inside the call."""
        name, local = "geom.sample_wishart", self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local.drawn = 0
            try:
                return self._call(name, fn, args, kwargs)
            finally:
                self._add_work(name, local.drawn)
                local.drawn = None
        return traced

    def _wrap_generator(self, fn):
        name, local = "graphcore.RngStream.generator", self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = self._call(name, fn, args, kwargs)
            if getattr(local, "drawn", None) is not None:
                return _CountingGenerator(gen, local)
            return gen
        return traced

    # -- patching

    def install(self, package) -> None:
        modules = {m: getattr(package, m) for m in PACKAGE_MODULES}
        modules["__init__"] = package
        for layer, names in TRACED.items():
            home = modules[layer]
            for qual in names:
                name = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    setattr(cls, attr, wrapped)
                    self._undo.append((cls, attr, raw))
                    continue
                original = getattr(home, qual)
                wrapped = self._wrap(name, original)
                for mod in modules.values():
                    if getattr(mod, qual, None) is original:
                        setattr(mod, qual, wrapped)
                        self._undo.append((mod, qual, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output

    def write(self, path) -> None:
        """Write the spans as gzipped CSV (id,parent,cmd,name,t0_ns,t1_ns)."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("id,parent,cmd,name,t0_ns,t1_ns\n")
            for sid, parent, cmd, name, t0, t1 in self.spans:
                fh.write(f"{sid},{'' if parent is None else parent},{cmd},"
                         f"{name},{t0},{t1}\n")

    def metrics(self, commands: int, replicas_per_s: float) -> tuple[dict, list]:
        """Per-layer metrics and the names of those whose functions were
        never called (reported as 0)."""
        calls = defaultdict(int)
        total = defaultdict(int)   # inclusive ns
        own = defaultdict(int)     # self ns
        children = defaultdict(list)
        for sid, parent, _, name, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        for sid, parent, _, name, t0, t1 in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
            own[name] += t1 - t0 - _covered(t0, t1, children.get(sid, ()))

        def per_call(name, scale):
            return total[name] / calls[name] / scale if calls[name] else None

        def self_ms(*names):
            n = sum(calls[x] for x in names)
            return sum(own[x] for x in names) / n / 1e6 if n else None

        def per_op(value):
            return value / commands if value and commands else None

        work = self.work
        rep = "harness.replicate"
        values = {
            "cli.main.self_ms": self_ms("cli.main"),
            "harness.replicate.replicas": per_op(work[rep]),
            "harness.replicate.self_ms": self_ms(rep),
            "harness.replicate.parallelism": (total[FN_SPAN] / total[rep]
                                              if total[rep] else None),
            "harness.reduce.self_ms": self_ms(*REDUCERS),
            "graphcore.store_bytes_per_edge": (
                self.graph_bytes / self.graph_edges if self.graph_edges
                else None),
            "geom.sample_wishart.entries_drawn": (
                work["geom.sample_wishart"] / calls["geom.sample_wishart"]
                if calls["geom.sample_wishart"] else None),
            "trees.grow.us_per_vertex": (
                total["trees.grow"] / work["trees.grow"] / 1e3
                if work["trees.grow"] else None),
            "urns.urn_run_batch.ns_per_draw": (
                total["urns.urn_run_batch"] / work["urns.urn_run_batch"]
                if work["urns.urn_run_batch"] else None),
            "trace.replicas_per_s": replicas_per_s,
        }
        for metric, _ in PER_LAYER:
            if metric in values:
                continue
            name, _, stat = metric.rpartition(".")
            if stat == "us_per_call":
                values[metric] = per_call(name, 1e3)
            elif stat == "self_ms":
                values[metric] = self_ms(name)
            elif stat == "calls":
                values[metric] = per_op(calls[name])
            else:
                raise KeyError(metric)
        not_called = [m for m, v in values.items() if v is None]
        out = {m: {"value": float(values[m] or 0.0), "unit": unit}
               for m, unit in PER_LAYER}
        return out, not_called


def _covered(t0: int, t1: int, intervals) -> int:
    """Length of [t0, t1] covered by the union of the intervals; child
    spans from worker threads overlap, hence the union."""
    covered = 0
    end = t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            covered += b - a
            end = b
    return covered
