"""Per-layer spans around the public functions of every frobcirc module.

The tracer wraps each public function of the layer modules, in every
namespace of the package that holds it, plus `Circulant` construction and
its public methods.  Each call is a span; a span's self time is its duration
minus the time of the spans it caused.  Counts that describe the work (BFS
levels, settled vertices, scanned units) are computed from the arguments and
return values, after the span has ended, and their cost is kept out of every
span's self time.
"""

import importlib
import inspect
from collections import defaultdict
from math import gcd
from time import perf_counter

import numpy as np

LAYERS = ("numtheory", "classifier", "circulant", "_kernels", "rotation", "gamma", "harts", "cli")
CIRCULANT_METHODS = (
    "neighbors",
    "is_connected",
    "is_connected_gcd",
    "is_independent_set",
    "is_vertex_cut",
    "diameter",
    "eccentricity",
    "reachable_from",
)


class Frame:
    __slots__ = ("name", "child_s", "bfs", "rotation_checks")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.bfs = []  # settled-vertex counts of the BFS calls made directly
        self.rotation_checks = 0


class Tracer:
    def __init__(self):
        self.stack: list[Frame] = []
        self.patches = []  # (namespace, attribute, original) to undo
        self.reset()

    def reset(self):
        """Start a new round: zero every counter."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.bfs_at = defaultdict(int)  # BFS calls by the circulant span that made them
        self.problems: list[str] = []

    # ------------------------------------------------------------- wrapping

    def wrap(self, name, fn, after=None):
        stack = self.stack

        def span(*args, **kwargs):
            frame = Frame(name)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - frame.child_s
                self.total_s[name] += dt
                if stack:
                    stack[-1].child_s += dt
            if after is not None:
                t1 = perf_counter()
                after(frame, args, result)
                if stack:  # keep the counting out of the caller's self time
                    stack[-1].child_s += perf_counter() - t1
            return result

        span.__wrapped__ = fn
        return span

    def install(self):
        """Wrap every layer in place; returns the number of functions wrapped."""
        modules = {name: importlib.import_module(f"frobcirc.{name}") for name in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("frobcirc")]
        after = {
            "kernels.bfs_distances": self._after_bfs,
            "kernels.semiregular_scan": self._after_semiregular,
            "circulant.is_connected": self._after_is_connected,
            "rotation.is_complete_rotation": self._after_rotation_check,
            "rotation.find_all_rotations": self._after_find_all_rotations,
        }
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported from elsewhere: wrapped under its home layer
                name = f"{layer.lstrip('_')}.{attr}"  # metric names start with a letter
                wrapped[id(obj)] = (obj, self.wrap(name, obj, after.get(name)))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if not attr.startswith("_") and id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patch(ns, attr, wrapped[id(obj)][1])
        circulant = modules["circulant"].Circulant
        self._patch(circulant, "__init__", self.wrap("circulant.Circulant", circulant.__init__))
        for meth in CIRCULANT_METHODS:
            name = f"circulant.{meth}"
            self._patch(circulant, meth, self.wrap(name, getattr(circulant, meth), after.get(name)))
        return len(wrapped) + 1 + len(CIRCULANT_METHODS)

    def _patch(self, ns, attr, value):
        self.patches.append((ns, attr, vars(ns)[attr]))
        setattr(ns, attr, value)

    def uninstall(self):
        """Put every wrapped function back."""
        while self.patches:
            ns, attr, original = self.patches.pop()
            setattr(ns, attr, original)

    # ------------------------------------------------------- derived counts

    def _after_bfs(self, frame, args, dist):
        n, conn = args[0], args[1]
        reached = dist[dist >= 0]
        settled = int(reached.size)
        per_level = np.bincount(reached) if settled else np.zeros(1, np.int64)
        c = self.counts
        c["kernels.bfs_distances.levels"] += int(reached.max()) + 1 if settled else 0
        c["kernels.bfs_distances.vertices_settled"] += settled
        c["kernels.bfs_distances.edges_scanned"] += settled * len(conn)
        peak = int(per_level.max()) * len(conn)
        key = "kernels.bfs_distances.peak_frontier_edges"
        c[key] = max(c[key], peak)
        owner = next((f for f in reversed(self.stack) if f.name.startswith("circulant.")), None)
        if owner is None:
            self.problems.append(f"BFS on n={n} made outside any circulant span")
        else:
            owner.bfs.append(settled)
            self.bfs_at[owner.name] += 1

    def _after_semiregular(self, frame, args, result):
        n, subgroup = args[0], args[1]
        self.counts["kernels.semiregular_scan.products"] += (len(subgroup) - 1) * (n - 1)

    def _after_is_connected(self, frame, args, result):
        g = args[0]
        divisor = g.n
        for s in g.conn:
            divisor = gcd(divisor, s)
        for settled in frame.bfs:
            if (settled == g.n) != (divisor == 1):
                self.problems.append(
                    f"is_connected BFS on n={g.n} settled {settled}, but gcd(n, S) = {divisor}"
                )

    def _after_rotation_check(self, frame, args, result):
        parent = self.stack[-1] if self.stack else None
        if parent is not None and parent.name == "rotation.find_all_rotations":
            parent.rotation_checks += 1

    def _after_find_all_rotations(self, frame, args, result):
        self.counts["rotation.find_all_rotations.units_scanned"] += frame.rotation_checks

    # -------------------------------------------------------------- results

    def snapshot(self) -> dict:
        """Every counter of the round, by metric name."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.total_s"] = self.total_s[name]
        out.update(self.counts)
        for name, n in self.bfs_at.items():
            out[f"{name}.bfs_calls"] = n
        attributed = sum(self.bfs_at.values())
        made = self.calls.get("kernels.bfs_distances", 0)
        if attributed != made:
            self.problems.append(
                f"kernels.bfs_distances.calls = {made}, circulant spans counted {attributed}"
            )
        return out
