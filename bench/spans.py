"""Span tracing at the module boundaries of the acamsim package.

Every public function of the layer modules (and the few methods listed in
``METHODS``) is replaced, in every acamsim namespace that binds it, by a
wrapper that records one span: name, start, end, parent span and the id of
the workload operation it belongs to. Wrapping the name in the calling
module's namespace matters because the modules import functions by name
(``trees`` calls its own binding of ``search_many``). Spans stay in memory
and are written out once, at the end of the run. Nothing under ``src/`` is
changed; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from array import array

LAYERS = ("devices", "cell", "array", "tables", "trees", "cost", "cli")

# Methods that do a layer's work but are not module-level functions.
METHODS = (("trees", "TreeTable", "encode_many"),
           ("array", "ArraySpec", "conductance_matrices"))

# Peak memory is sampled with tracemalloc inside these spans only: tracing
# every allocation would slow the Python-heavy layers.
MEMORY_PROBED = ("array.search_many",)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0
        # one entry per finished span, in the order spans end
        self.span_id = array("q")
        self.parent = array("q")
        self.name_id = array("q")
        self.op_id = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.counts: dict[str, float] = {}
        self.peak_bytes: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self):
        for layer in LAYERS:
            importlib.import_module(f"acamsim.{layer}")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "acamsim" or name.startswith("acamsim.")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"acamsim.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[f"acamsim.{layer}"], cls_name)
            fn = cls.__dict__[attr]
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, f"{layer}.{attr}"))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        probe_memory = name in MEMORY_PROBED
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            if probe_memory:
                tracemalloc.start()
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                self.span_id.append(sid)
                self.parent.append(parent)
                self.name_id.append(name_id)
                self.op_id.append(self.op)
                self.start_ns.append(t0)
                self.end_ns.append(t1)
                if probe_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)
            if count is not None:
                count(self.counts, fn, args, kwargs, out)
            return out

        return wrapper

    # -- output -------------------------------------------------------------

    def write(self, path: str):
        """Write every span as CSV: id, parent, op, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            for k in range(len(self.span_id)):
                fh.write(f"{self.span_id[k]},{self.parent[k]},{self.op_id[k]},"
                         f"{self.names[self.name_id[k]]},{self.start_ns[k]},"
                         f"{self.end_ns[k]}\n")

    def summary(self, nested=()) -> dict:
        """Per-name calls, total, exclusive and layer-self seconds.

        A span's exclusive time is its duration minus the time its child
        spans cover (children run inside the parent, one thread, so they do
        not overlap). Its layer-self time adds back the layer-self time of
        children in the same layer, so a module's internal helpers count
        toward their caller. A layer's self time is the sum of exclusive
        times of its spans. For each (name, ancestor) pair in ``nested`` it
        counts the spans of that name that run inside a span of the ancestor.
        """
        n = len(self.span_id)
        index = {self.span_id[k]: k for k in range(n)}
        dur = [self.end_ns[k] - self.start_ns[k] for k in range(n)]
        layer = [self.names[self.name_id[k]].split(".", 1)[0] for k in range(n)]
        excl = list(dur)
        for k in range(n):
            par = index.get(self.parent[k])
            if par is not None:
                excl[par] -= dur[k]
        layer_self = list(excl)
        for k in range(n):  # children end, and are listed, before parents
            par = index.get(self.parent[k])
            if par is not None and layer[par] == layer[k]:
                layer_self[par] += layer_self[k]
        by_name: dict[str, dict] = {}
        by_layer = {name: 0.0 for name in LAYERS}
        curves_from_array = 0
        for k in range(n):
            name = self.names[self.name_id[k]]
            s = by_name.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "excl_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += dur[k] * 1e-9
            s["excl_s"] += excl[k] * 1e-9
            par = index.get(self.parent[k])
            if par is None or self.name_id[par] != self.name_id[k]:
                s["self_s"] += layer_self[k] * 1e-9
            by_layer[layer[k]] += excl[k] * 1e-9
            if layer[k] == "devices" and par is not None and layer[par] == "array":
                curves_from_array += dur[k]
        inside = {}
        for name, ancestor in nested:
            hits = 0
            for k in range(n):
                if self.names[self.name_id[k]] != name:
                    continue
                par = index.get(self.parent[k])
                while par is not None and self.names[self.name_id[par]] != ancestor:
                    par = index.get(self.parent[par])
                hits += par is not None
            inside[(name, ancestor)] = hits
        return {"by_name": by_name, "by_layer": by_layer, "nested": inside,
                "curves_from_array_s": curves_from_array * 1e-9,
                "counts": dict(self.counts),
                "peak_mib": {k: v / 2 ** 20 for k, v in self.peak_bytes.items()},
                "spans": n}


# ---------------------------------------------------------------------------
# counters taken at the same boundaries as the spans
# ---------------------------------------------------------------------------

def _add(counts: dict, key: str, value: float):
    counts[key] = counts.get(key, 0) + value


def _count_row_conductances(counts, fn, args, kwargs, out):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    a = bound["a"]
    _add(counts, "array.cell_evals", out.shape[0] * a.rows * a.cols)


def _count_search_many(counts, fn, args, kwargs, out):
    _add(counts, "array.search_many.matched_pairs", int(out.sum()))
    _add(counts, "array.search_many.pairs", out.size)


def _count_make_array(counts, fn, args, kwargs, out):
    _add(counts, "array.make_array.cells", out.rows * out.cols)


def _count_lower(counts, fn, args, kwargs, out):
    _add(counts, "tables.lower.cells", sum(len(row) for row in out))


def _count_program(counts, fn, args, kwargs, out):
    _add(counts, "devices.program.pulses", out.iterations)


def _count_compile_rules(counts, fn, args, kwargs, out):
    _add(counts, "tables.compile_rules.rows", out.n_rows)


def _count_inputs(key):
    def count(counts, fn, args, kwargs, out):
        _add(counts, key, len(out))
    return count


COUNTERS = {
    "array.row_conductances": _count_row_conductances,
    "array.search_many": _count_search_many,
    "array.make_array": _count_make_array,
    "tables.lower_to_conductances": _count_lower,
    "devices.program_memristor": _count_program,
    "tables.compile_rules": _count_compile_rules,
    "trees.encode_many": _count_inputs("trees.encode_many.inputs"),
    "trees.classify_many": _count_inputs("trees.classify_many.inputs"),
}
