"""Per-layer tracing of erctopo, installed from outside the library.

``Tracer.install()`` wraps, at run time, the public calls of every erctopo
module; no source file changes.  A layer is an erctopo module (kernel,
spaces, sets, ercs, metric, hyperspace, oracle, registry, cli).

* Spans.  Each wrapped call is a span: name, start, end, parent and the op
  it belongs to.  A span's self time is its duration minus the time its
  child spans cover; a layer's self time is the sum over its spans.  Spans
  of module-level functions outside kernel and spaces and of
  ``CReal.approx`` are kept as records and written out at the end; the hot
  spans (kernel and spaces functions, ``poll``, ``step``, enumerator reads,
  space methods) are aggregated only, because there are millions of them.
* Machine ``step`` methods, enumerator ``step`` methods and the step
  closures handed to ``enumerate_step``/``enumerate_function`` are spans of
  the module that defines them, so ``kernel.poll`` self time is the
  scheduling loop alone.
* Counters only (no timing) for ``Fraction`` arithmetic and comparisons;
  enumerator reads are counted and timed as one aggregate span.

Wrappers pass straight through while ``enabled`` is false, so benchmark
checks and set-up are not traced.  Installation lasts for the life of the
process.
"""

from __future__ import annotations

import fractions
import json
import sys
import types
from collections import defaultdict
from time import perf_counter

from erctopo import kernel, metric
from erctopo.kernel import Machine, MonotoneEnumerator, SemidecisionProcess

LAYERS = ("kernel", "spaces", "sets", "ercs", "metric", "hyperspace",
          "oracle", "registry", "cli")

_FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
                 "__rfloordiv__", "__mod__", "__rmod__", "__pow__", "__neg__",
                 "__abs__", "__lt__", "__le__", "__gt__", "__ge__", "__eq__")

_ENUM_READS = ("between", "listing", "count", "quiescent", "advance")
_ERCS_SEARCHES = ("basis_search", "compact_base", "closed_subspace_compact_base",
                  "locally_closed_compact_base", "compact_neighborhood_search")
MAX_SPAN_RECORDS = 200_000


def _layer_of(module_name: str) -> str:
    short = module_name.rsplit(".", 1)[-1]
    return short if short in LAYERS else "bench"


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)   # by layer and key
        self.records: list[list] = []
        self.dropped = 0
        self.fraction_ops = 0
        self._stack: list[list] = []        # [child_time, record_index]
        self._wrapped: dict[int, object] = {}
        self._enum_depth = 0
        self._approx_depth = 0
        self._metric_certs: list = []       # certificate machines of this op
        self._accepted: set[int] = set()
        self._bracket_machines: set[type] = set()
        self._searches: list = []
        self.closing_depth_sum = 0

    # -- span core ----------------------------------------------------------

    def _span(self, fn, name: str, key: str, layer: str, record: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.counts[key] += 1
            stack = tracer._stack
            idx = -1
            if record:
                if len(tracer.records) < MAX_SPAN_RECORDS:
                    parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                    idx = len(tracer.records)
                    tracer.records.append([tracer.op_id, name, 0.0, 0.0, parent])
                else:
                    tracer.dropped += 1
            frame = [0.0, idx]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                own = took - frame[0]
                tracer.self_s[layer] += own
                tracer.self_s[key] += own
                if stack:
                    stack[-1][0] += took
                if idx >= 0:
                    tracer.records[idx][2] = start
                    tracer.records[idx][3] = end

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        mods = [m for n, m in sorted(sys.modules.items())
                if n.startswith("erctopo.") and m is not None]
        for mod in mods:
            self._wrap_module_functions(mod)
        for mod in mods:
            self._wrap_module_classes(mod)
        # rebind every imported reference to a wrapped function
        for mod in mods + [sys.modules["erctopo"]] + list(extra_modules):
            for name, value in list(vars(mod).items()):
                w = self._wrapped.get(id(value))
                if w is not None and w is not value:
                    setattr(mod, name, w)
        self._wrap_kernel()
        self._wrap_fractions()

    def _wrap_module_functions(self, mod) -> None:
        layer = _layer_of(mod.__name__)
        hot = layer in ("kernel", "spaces")
        for name, fn in list(vars(mod).items()):
            if (name.startswith("_") or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != mod.__name__):
                continue
            key = f"{layer}.{name}"
            if layer == "spaces" and "point" not in name:
                key = "spaces.calculus"
            if mod is kernel and name in ("enumerate_step", "enumerate_function"):
                w = self._span(self._closure_wrapping(fn), key, key, layer, False)
            elif layer == "ercs" and name in _ERCS_SEARCHES:
                w = self._span(fn, key, "ercs.searches", layer, True)
            elif layer == "sets":
                w = self._span(self._count_processes(fn), key, key, layer, True)
            elif layer == "hyperspace" and name == "forall_located":
                w = self._span(self._collect_search(fn), key, key, layer, True)
            else:
                w = self._span(fn, key, key, layer, not hot)
            self._wrapped[id(fn)] = w
            setattr(mod, name, w)

    def _wrap_module_classes(self, mod) -> None:
        layer = _layer_of(mod.__name__)
        for cname, cls in list(vars(mod).items()):
            if not isinstance(cls, type) or cls.__module__ != mod.__name__:
                continue
            if issubclass(cls, (BaseException, Machine, MonotoneEnumerator)):
                continue  # steps are handled by _wrap_kernel
            if issubclass(cls, metric.CReal):
                if "approx" in cls.__dict__:
                    setattr(cls, "approx", self._span(
                        self._collect_bracket_machine(cls.__dict__["approx"]),
                        "metric.approx", "metric.approx", layer, True))
                continue
            if layer not in ("spaces", "oracle", "ercs", "hyperspace"):
                continue
            for name, fn in list(cls.__dict__.items()):
                if name.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if layer in ("spaces", "oracle"):
                    key = "spaces.decode" if name == "decode" else "spaces.calculus"
                else:
                    key = f"{layer}.{cname}.{name}"
                setattr(cls, name, self._span(fn, key, key, layer, False))

    def _closure_wrapping(self, make):
        """enumerate_step/enumerate_function: the step closure becomes a span
        of the module that wrote it."""
        tracer = self

        def wrapped_make(fn, *args, **kwargs):
            layer = _layer_of(getattr(fn, "__module__", "") or "")
            key = f"{layer}.enum_step"
            return make(tracer._span(fn, key, key, layer, False), *args, **kwargs)

        return wrapped_make

    def _count_processes(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.enabled and isinstance(out, SemidecisionProcess):
                tracer.counts["sets.processes_created"] += 1
            return out

        return counted

    def _collect_search(self, fn):
        tracer = self

        def collected(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.enabled:
                tracer._searches.append(out)
            return out

        return collected

    def _collect_bracket_machine(self, fn):
        """CReal.approx: remember the class of the real's bracket machine (it
        is not a certificate) and count the precision bits asked by
        outermost calls."""
        tracer = self

        def collected(real, k, *args, **kwargs):
            if not tracer.enabled:
                return fn(real, k, *args, **kwargs)
            machine = getattr(real, "machine", None)
            if machine is not None:
                tracer._bracket_machines.add(type(machine))
            if not tracer._approx_depth:
                tracer.counts["metric.bits"] += k
            tracer._approx_depth += 1
            try:
                return fn(real, k, *args, **kwargs)
            finally:
                tracer._approx_depth -= 1

        return collected

    def _wrap_kernel(self) -> None:
        tracer = self

        # machines created, per defining module
        init = Machine.__dict__["__init__"]

        def machine_init(m, *args, **kwargs):
            if tracer.enabled:
                layer = _layer_of(type(m).__module__)
                tracer.counts["kernel.machines_created"] += 1
                tracer.counts[f"{layer}.machines_created"] += 1
                if layer == "metric":
                    tracer._metric_certs.append(m)
            return init(m, *args, **kwargs)

        setattr(Machine, "__init__", machine_init)

        # poll: the scheduling loop; acceptance of metric certificates
        for cls in _all_subclasses(SemidecisionProcess):
            if "poll" in cls.__dict__:
                setattr(cls, "poll", self._span(
                    self._note_acceptance(cls.__dict__["poll"]),
                    "kernel.poll", "kernel.poll", "kernel", False))

        # enumerator reads: counted once per consumer read
        for name in _ENUM_READS:
            setattr(MonotoneEnumerator, name, self._enum_read(
                MonotoneEnumerator.__dict__[name], name))

        # step methods of machines and enumerators, including classes that
        # are created later inside function bodies
        for base in (Machine, MonotoneEnumerator):
            for cls in _all_subclasses(base):
                self._wrap_step(cls)

        def hook(cls, **kwargs):
            owner = Machine if issubclass(cls, Machine) else MonotoneEnumerator
            super(owner, cls).__init_subclass__(**kwargs)
            tracer._wrap_step(cls)

        for base in (Machine, MonotoneEnumerator):
            base.__init_subclass__ = classmethod(hook)

    def _wrap_step(self, cls) -> None:
        fn = cls.__dict__.get("step")
        if not isinstance(fn, types.FunctionType):
            return
        layer = _layer_of(cls.__module__)
        key = f"{layer}.step" if issubclass(cls, Machine) else f"{layer}.enum_step"
        setattr(cls, "step", self._span(fn, key, key, layer, False))

    def _note_acceptance(self, poll):
        tracer = self

        def noted(proc, fuel):
            stage = poll(proc, fuel)
            if (stage is not None and tracer.enabled
                    and type(proc).__module__ == metric.__name__):
                tracer._accepted.add(id(proc))   # kept alive in _metric_certs
            return stage

        return noted

    def _enum_read(self, fn, name: str):
        tracer = self
        timed = self._span(fn, "kernel.enum", "kernel.enum", "kernel", False)
        itemised = name in ("between", "listing")

        def read(enum, *args):
            if not tracer.enabled:
                return fn(enum, *args)
            if tracer._enum_depth:
                if name != "advance":
                    return fn(enum, *args)
                # advance runs step methods, whose own reads are consumer
                # reads again
                depth, tracer._enum_depth = tracer._enum_depth, 0
                try:
                    return fn(enum, *args)
                finally:
                    tracer._enum_depth = depth
            tracer._enum_depth += 1
            try:
                out = timed(enum, *args)
            finally:
                tracer._enum_depth -= 1
            if itemised:
                tracer.counts["kernel.enum.reads"] += 1
                if out:
                    tracer.counts["kernel.enum.items"] += len(out)
                    tracer.counts["kernel.enum.hits"] += 1
            return out

        return read

    def _wrap_fractions(self) -> None:
        tracer = self
        for name in _FRACTION_OPS:
            orig = fractions.Fraction.__dict__.get(name)
            if orig is None:
                continue

            def counted(a, *rest, _orig=orig):
                if tracer.enabled:
                    tracer.fraction_ops += 1
                return _orig(a, *rest)

            setattr(fractions.Fraction, name, counted)

    # -- per-op bookkeeping ---------------------------------------------------

    def run_op(self, op_id: int, name: str, run):
        """Run one op as a root span (layer ``bench``)."""
        self.op_id = op_id
        self.enabled = True
        span = self._span(run, f"op.{name}", "bench.op", "bench", True)
        try:
            return span()
        finally:
            self.enabled = False
            self._end_op()

    def _end_op(self) -> None:
        certs = [m for m in self._metric_certs if type(m) not in self._bracket_machines]
        self.counts["metric.certs"] += len(certs)
        self.counts["metric.certs_accepted"] += sum(
            1 for m in certs if id(m) in self._accepted)
        for search in self._searches:
            if search.closing_depth is not None:
                self.closing_depth_sum += search.closing_depth
        self._metric_certs.clear()
        self._accepted.clear()
        self._searches.clear()

    def write_records(self, path: str) -> None:
        with open(path, "w") as fh:
            for op, name, start, end, parent in self.records:
                fh.write(json.dumps({"op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    # -- per-layer metrics ------------------------------------------------------

    def metrics(self, ops: int, traced_wall: float, untraced_wall: float) -> dict:
        c, s = self.counts, self.self_s
        reads = c["kernel.enum.reads"]
        bits = c["metric.bits"]
        certs = c["metric.certs"]
        return {
            "kernel.step.calls": (sum(v for k, v in c.items()
                                      if k.endswith(".step")), "count"),
            "kernel.poll.calls": (c["kernel.poll"], "count"),
            "kernel.poll.self_s": (s["kernel.poll"], "s"),
            "kernel.enum.reads": (reads, "count"),
            "kernel.enum.items": (c["kernel.enum.items"], "count"),
            "kernel.enum.read_hit_ratio": (
                c["kernel.enum.hits"] / reads if reads else 0.0, "ratio"),
            "kernel.enum.self_s": (s["kernel.enum"], "s"),
            "kernel.self_s": (s["kernel"], "s"),
            "kernel.machines_created": (c["kernel.machines_created"], "count"),
            "sets.machines_created": (c["sets.machines_created"], "count"),
            "ercs.machines_created": (c["ercs.machines_created"], "count"),
            "metric.machines_created": (c["metric.machines_created"], "count"),
            "hyperspace.machines_created": (c["hyperspace.machines_created"], "count"),
            "fractions.ops": (self.fraction_ops, "count"),
            "fractions.ops_per_op": (self.fraction_ops / ops, "count/op"),
            "spaces.decode.calls": (c["spaces.decode"], "count"),
            "spaces.calculus.calls": (c["spaces.calculus"], "count"),
            "spaces.self_s": (s["spaces"], "s"),
            "oracle.self_s": (s["oracle"], "s"),
            "sets.processes_created": (c["sets.processes_created"], "count"),
            "sets.self_s": (s["sets"], "s"),
            "ercs.searches": (c["ercs.searches"], "count"),
            "ercs.self_s": (s["ercs"], "s"),
            "metric.approx.calls": (c["metric.approx"], "count"),
            "metric.approx.self_s": (s["metric.approx"], "s"),
            "metric.self_s": (s["metric"], "s"),
            "metric.machines_per_bit": (
                c["metric.machines_created"] / bits if bits else 0.0, "count/bit"),
            "metric.cert_yield": (
                c["metric.certs_accepted"] / certs if certs else 0.0, "ratio"),
            "hyperspace.step.calls": (c["hyperspace.step"], "count"),
            "hyperspace.closing_depth_sum": (self.closing_depth_sum, "count"),
            "hyperspace.self_s": (s["hyperspace"], "s"),
            "cli.self_s": (s["cli"], "s"),
            "registry.get.calls": (c["registry.registry_get"], "count"),
            "trace.overhead": (traced_wall / untraced_wall, "ratio"),
        }


def _all_subclasses(cls):
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out
