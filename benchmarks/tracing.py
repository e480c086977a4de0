"""Span tracing of ctact from the outside, without touching its source.

``instrument`` rebinds, for the duration of a ``with`` block, the module
globals through which one ctact module calls into another: in every loaded
``ctact.*`` module, each global function defined in a *different* ctact
module, each dict of such functions (kind registries), and each public
function of the module itself (so ``cli.main`` and intra-module public calls
such as ``attack.run_attack`` get spans too).  The span's layer is the
module that defines the function, with the ``_ops`` layer named ``ops``.

Calls into ``_ops`` are leaves and run millions of times per pass, so they
are aggregated (count and time) instead of kept as single spans.  Every
other call is kept as a span record up to ``Tracer.max_kept`` records per
run and always aggregated.  A layer's self time is its spans' duration minus
the time covered by their child spans; the benchmark's own loop is the root
frame of each pass, in layer ``bench``, so the layer self times add up to
the traced pass time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import types
from collections import Counter
from time import perf_counter_ns as clock

PACKAGE = "ctact"
LEAF_MODULE = "ctact._ops"


def layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self, max_kept: int = 100_000):
        self.max_kept = max_kept
        self.spans: list = []    # (pass, span id, parent id, name, layer, start ns, end ns)
        self.stats: dict = {}    # name -> [layer, calls, total ns, self ns]
        self.counts: Counter = Counter()
        self.dropped = 0
        self.tag = ""            # command label the benchmark is running
        self._stack: list = []   # open frames: [span id, start ns, child ns]
        self._next_id = 0
        self.pass_index = 0      # set by the benchmark; shared by a pass's spans

    def _acc(self, name: str, layer: str) -> list:
        acc = self.stats.get(name)
        if acc is None:
            acc = self.stats[name] = [layer, 0, 0, 0]
        return acc

    @contextlib.contextmanager
    def root(self):
        """A timed region: the root frame, whose self time is the benchmark's own."""
        frame = [0, clock(), 0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = clock()
            self._stack.pop()
            duration = end - frame[1]
            acc = self._acc("bench", "bench")
            acc[1] += 1
            acc[2] += duration
            acc[3] += duration - frame[2]

    def span(self, fn, name: str, layer: str, hook=None):
        """Wrap ``fn`` so each call records a span.

        ``hook(tracer, arguments, result)`` may return a label that is
        appended to the span name, and may update ``tracer.counts``.
        ``arguments`` is the bound-argument mapping of the call.
        """
        stack = self._stack
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            self._next_id += 1
            frame = [self._next_id, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            duration = end - frame[1]
            parent[2] += duration
            full = name
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                label = hook(self, bound.arguments, result)
                if label:
                    full = f"{name}[{label}]"
            acc = self._acc(full, layer)
            acc[1] += 1
            acc[2] += duration
            acc[3] += duration - frame[2]
            if len(self.spans) < self.max_kept:
                self.spans.append((self.pass_index, frame[0], parent[0], full, layer,
                                   frame[1], end))
            else:
                self.dropped += 1
            return result

        return wrapper

    def leaf(self, fn, name: str, layer: str):
        """Aggregate-only wrapper for functions that call no wrapped code."""
        stack = self._stack
        acc = self._acc(name, layer)

        @functools.wraps(fn)
        def wrapper(*args):
            start = clock()
            result = fn(*args)
            elapsed = clock() - start
            acc[1] += 1
            acc[2] += elapsed
            acc[3] += elapsed
            stack[-1][2] += elapsed
            return result

        return wrapper

    def layer_self_ns(self) -> Counter:
        totals: Counter = Counter()
        for layer, _, _, self_ns in self.stats.values():
            totals[layer] += self_ns
        return totals

    def calls(self, name: str) -> int:
        return sum(acc[1] for key, acc in self.stats.items()
                   if key == name or key.startswith(name + "["))

    def write(self, path) -> None:
        """Write the kept spans as CSV, then one aggregate row per name."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pass,span,parent,name,layer,start_ns,end_ns\n")
            for record in self.spans:
                fh.write(",".join(map(str, record)) + "\n")
            fh.write("\nname,layer,calls,total_ns,self_ns\n")
            for name, (layer, calls, total, self_ns) in sorted(self.stats.items()):
                fh.write(f"{name},{layer},{calls},{total},{self_ns}\n")


# -- hooks: labels and counts at specific boundaries ---------------------------

_GRID_NAMES = {1601: "dense", 1001: "wide"}


def _uniformity_label(tracer, arguments, result):
    size = len(arguments["grid"])
    mode = "protected" if arguments["protected"] else "unprotected"
    return f"{_GRID_NAMES.get(size, f'n{size}')}.{mode}"


def _trace_eval_count(tracer, arguments, result):
    tracer.counts["harness.traced_ops"] += result[0].length


def _profile_count(tracer, arguments, result):
    tracer.counts["attack.observations"] += (
        len(arguments["classes"]) * int(arguments["n_profiling"]))


def _attack_count(tracer, arguments, result):
    tracer.counts["attack.observations"] += int(arguments["n_measurements"])


def _tag_label(tracer, arguments, result):
    return tracer.tag


HOOKS = {
    "harness.check_uniformity": _uniformity_label,
    "harness.trace_eval": _trace_eval_count,
    "attack.profile_phase": _profile_count,
    "attack.run_attack": _attack_count,
    "attack.attack_experiment": _tag_label,
    "cli.main": _tag_label,
}


def _wrap(tracer: Tracer, fn):
    layer = layer_of(fn.__module__)
    name = f"{layer}.{fn.__name__}"
    if fn.__module__ == LEAF_MODULE:
        return tracer.leaf(fn, name, layer)
    return tracer.span(fn, name, layer, HOOKS.get(name))


def _is_ctact_function(value) -> bool:
    return (isinstance(value, types.FunctionType)
            and (value.__module__ or "").split(".")[0] == PACKAGE)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind cross-module call sites of every loaded ctact module."""
    wrappers: dict = {}  # one wrapper per function, shared by all its call sites
    patches = []

    def wrapper_for(fn):
        if fn not in wrappers:
            wrappers[fn] = _wrap(tracer, fn)
        return wrappers[fn]

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    for module in modules:
        public = set(getattr(module, "__all__", ()))
        for attr, value in list(vars(module).items()):
            if _is_ctact_function(value):
                if value.__module__ != module.__name__ or attr in public:
                    patches.append((module, attr, value, wrapper_for(value)))
            elif (isinstance(value, dict) and value
                  and all(_is_ctact_function(v) for v in value.values())
                  and any(v.__module__ != module.__name__ for v in value.values())):
                replacement = {k: wrapper_for(v) for k, v in value.items()}
                patches.append((module, attr, value, replacement))
    for module, attr, _, replacement in patches:
        setattr(module, attr, replacement)
    try:
        yield tracer
    finally:
        for module, attr, original, _ in reversed(patches):
            setattr(module, attr, original)
