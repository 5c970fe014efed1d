"""Outside-in span tracing of the cknlab layers.

The tracer wraps every public function (module-level, no leading
underscore) of each cknlab layer, and the scipy solvers as bound in
``manifold`` and ``critical``.  ``from .x import f`` binds a copy of
``f`` in the importing module, so a wrapper is installed by rebinding
the name in every loaded cknlab module that holds the original object.
``uninstall`` puts the originals back.

Each call records one span: name, start, end, parent span, whether it
is the outermost active call of its name (for recursive functions),
and the exception type if it raised.  Spans stay in memory, in flat
arrays, until ``aggregate`` or ``write_spans`` reads them.
"""

from __future__ import annotations

import array
import csv
import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np

LAYERS = (
    "params",
    "fields",
    "functionals",
    "transforms",
    "manifold",
    "stability",
    "critical",
    "cli",
)
# scipy solvers, traced under the layer whose module calls them
SOLVERS = (
    ("manifold", "minimize"),
    ("manifold", "minimize_scalar"),
    ("critical", "minimize_scalar"),
)
_MARK = "__perfbench_traced__"


def _points(counts, name, args, kwargs, result):
    # computed, not measured: radial nodes x angular nodes of the field
    u = args[0] if args else kwargs["u"]
    psi = getattr(u, "psi_nodes", None)
    counts[name + ".points"] += len(u.grid.nodes) * (1 if psi is None else len(psi))


def _solver_stats(counts, name, args, kwargs, result):
    counts[name + ".nfev"] += int(getattr(result, "nfev", 0))
    counts[name + ".nit"] += int(getattr(result, "nit", 0))


def _scan_usage(counts, name, args, kwargs, result):
    counts[name + ".used"] += result.used_count
    counts[name + ".samples"] += result.sample_count


# span name -> (hook(counts, name, args, kwargs, result) run after a normal
# return, the counter names it adds)
POST_HOOKS = {
    "functionals.weighted_grad_pnorm": (_points, ("points",)),
    "functionals.weighted_lq_norm": (_points, ("points",)),
    "stability.k_upper_scan": (_scan_usage, ("used", "samples")),
}
SOLVER_HOOK = (_solver_stats, ("nfev", "nit"))


def is_traced(obj) -> bool:
    return getattr(obj, _MARK, False)


def _cknlab_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "cknlab" or name.startswith("cknlab.")
    ]


def traced_bindings() -> list:
    """(module, attribute) pairs in loaded cknlab modules that hold a wrapper."""
    return [
        (mod.__name__, attr)
        for mod in _cknlab_modules()
        for attr, val in vars(mod).items()
        if is_traced(val)
    ]


class Tracer:
    """Records spans for the cknlab layers while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self._hook_stats: dict[str, tuple] = {}
        self._saved: list = []
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans and counters; the installed wrappers stay."""
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.outer = array.array("b")
        self.errors: dict[int, str] = {}
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth = [0] * len(self.names)

    # -- installation -------------------------------------------------------

    def _register(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _wrap(self, name: str, fn, hook):
        nid = self._register(name)
        post, stats = hook or (None, ())
        self._hook_stats[name] = stats
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            i = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.outer.append(tracer._depth[nid] == 0)
            tracer.end.append(0.0)
            tracer._depth[nid] += 1
            stack.append(i)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.errors[i] = type(exc).__name__
                raise
            finally:
                tracer.end[i] = clock()
                stack.pop()
                tracer._depth[nid] -= 1
            if post is not None:
                post(tracer.counts, name, args, kwargs, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        # id(original) -> (original, wrapper); holding the original keeps its id unique
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cknlab.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(name, obj, POST_HOOKS.get(name)))
        for mod in _cknlab_modules():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, attr in SOLVERS:
            mod = sys.modules[f"cknlab.{layer}"]
            obj = getattr(mod, attr)
            self._saved.append((mod, attr, obj))
            setattr(mod, attr, self._wrap(f"{layer}.{attr}", obj, SOLVER_HOOK))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, obj = self._saved.pop()
            setattr(mod, attr, obj)

    # -- reading ------------------------------------------------------------

    def _arrays(self):
        return (
            np.array(self.name_id, dtype=np.intc),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
            np.array(self.parent, dtype=np.intc),
            np.array(self.outer, dtype=bool),
        )

    def span_self_times(self) -> np.ndarray:
        """Per span: duration minus the durations of its direct children."""
        _, start, end, parent, _ = self._arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def aggregate(self) -> dict:
        """Per registered span name: calls, self_s, incl_s and raised errors.

        incl_s sums outermost calls only, so a recursive function's
        inner calls are not counted twice.  Counters from the post hooks
        are added under their own keys, zero when the hook never ran.
        """
        nid, start, end, _, outer = self._arrays()
        dur = end - start
        self_t = self.span_self_times()
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=self_t, minlength=k)
        incl_s = np.bincount(nid[outer], weights=dur[outer], minlength=k)
        stats = {
            name: {
                "calls": int(calls[i]),
                "self_s": float(self_s[i]),
                "incl_s": float(incl_s[i]),
                "errors": Counter(),
                **{stat: 0 for stat in self._hook_stats.get(name, ())},
            }
            for i, name in enumerate(self.names)
        }
        for i, exc_name in self.errors.items():
            stats[self.names[nid[i]]]["errors"][exc_name] += 1
        for key, value in self.counts.items():
            span, stat = key.rsplit(".", 1)
            stats[span][stat] = value
        return stats

    def write_spans(self, path) -> None:
        """Write every recorded span as CSV: index, name, start, end, parent, error."""
        nid, start, end, parent, _ = self._arrays()
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "error"])
            for i in range(len(nid)):
                writer.writerow(
                    [
                        i,
                        self.names[nid[i]],
                        repr(float(start[i])),
                        repr(float(end[i])),
                        int(parent[i]),
                        self.errors.get(i, ""),
                    ]
                )
