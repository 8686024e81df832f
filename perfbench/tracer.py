"""Outside-in tracing: wrap the library's public functions from the outside.

`Tracer.install()` replaces every public function of each layer module with
a timing wrapper, and rebinds every alias of the same function object in
every `flagmatroids.*` namespace (modules that did `from .x import f`, and
the package's re-exports), so calls through any name are seen.  The
`__post_init__` of `GFMatrix`, `Matroid` and `FlagMatroid` is wrapped too,
which counts constructions.  Nothing in the library is edited.

`bitset` and `errors` are not layers: their functions stay unwrapped, so
their time lands in the self time of the calling layer.  Private helpers
(leading underscore) are likewise charged to the public function above them.

Spans (function, start, end, parent span) are kept in memory in flat arrays
and written out by `write_spans` after the run.  A function's self time is
its duration minus the durations of the wrapped calls made directly inside
it.  Wrapping only happens in a traced run; untraced runs never import this
module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = (
    "cli",
    "jsonio",
    "representability",
    "lifts_majors",
    "flag_core",
    "matroid_core",
    "gf_linalg",
    "graphic",
)
CONSTRUCTED = (("gf_linalg", "GFMatrix"), ("matroid_core", "Matroid"), ("flag_core", "FlagMatroid"))

# is_lift is timed per method, so each characterisation gets its own entry.
LIFT = "lifts_majors.is_lift"
LIFT_METHODS = ("flats", "duals", "closures", "bases")


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.calls: list[int] = []
        self.errors: list[int] = []
        self.non_null: list[int] = []
        self.inclusive: list[float] = []
        self.self_time: list[float] = []
        self.depth: list[int] = []
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span, time in child spans, fid, start]

    def _fid(self, name: str) -> int:
        self.names.append(name)
        for col in (self.calls, self.errors, self.non_null, self.depth):
            col.append(0)
        self.inclusive.append(0.0)
        self.self_time.append(0.0)
        return len(self.names) - 1

    def _begin(self, fid: int) -> list:
        span = len(self.span_fn)
        self.span_fn.append(fid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [span, 0.0, fid, 0.0]
        self.stack.append(frame)
        self.depth[fid] += 1
        frame[3] = time.perf_counter()
        return frame

    def _end(self, frame: list) -> None:
        t1 = time.perf_counter()
        span, child, fid, t0 = frame
        self.stack.pop()
        dur = t1 - t0
        self.span_start[span] = t0
        self.span_end[span] = t1
        self.depth[fid] -= 1
        if not self.depth[fid]:  # outermost activation: recursion counted once
            self.inclusive[fid] += dur
        self.self_time[fid] += dur - child
        if self.stack:
            self.stack[-1][1] += dur

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        if name == LIFT:
            fids = {m: self._fid(f"{LIFT}.{m}") for m in LIFT_METHODS}

            def pick(args, kwargs):
                return fids.get(kwargs.get("method", args[2] if len(args) > 2 else "flats"))
        else:
            fid = self._fid(name)

            def pick(args, kwargs):
                return fid
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fid = pick(args, kwargs) if tracer.active else None
            if fid is None:
                return fn(*args, **kwargs)
            frame = tracer._begin(fid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[fid] += 1
                raise
            finally:
                tracer.calls[fid] += 1
                tracer._end(frame)
            if result is not None:
                tracer.non_null[fid] += 1
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """A generator's work happens on each resume, so each resume is a
        span; the call is counted once, when the generator is created."""
        fid = self._fid(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                yield from fn(*args, **kwargs)
                return
            tracer.calls[fid] += 1
            it = fn(*args, **kwargs)
            while True:
                frame = tracer._begin(fid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                except BaseException:
                    tracer.errors[fid] += 1
                    raise
                finally:
                    tracer._end(frame)
                yield item

        return wrapper

    def install(self) -> None:
        import flagmatroids

        modules = {layer: importlib.import_module(f"flagmatroids.{layer}") for layer in LAYERS}
        wrapped: dict[int, tuple[object, object]] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(inspect.unwrap(obj), "__module__", None) != mod.__name__:
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for layer, cls_name in CONSTRUCTED:
            cls = getattr(modules[layer], cls_name)
            cls.__post_init__ = self._wrap(f"{layer}.{cls_name}", cls.__post_init__)
        namespaces = [flagmatroids] + [
            m for name, m in sys.modules.items() if name.startswith("flagmatroids.")
        ]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])

    # --- results -------------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            ids = [i for i, n in enumerate(self.names) if n.split(".")[0] == layer]
            out[f"{layer}.calls"] = sum(self.calls[i] for i in ids)
            out[f"{layer}.self_s"] = sum(self.self_time[i] for i in ids)
            out[f"{layer}.errors"] = sum(self.errors[i] for i in ids)
        return out

    def function_stats(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "calls": self.calls[i],
                "errors": self.errors[i],
                "non_null": self.non_null[i],
                "s": self.inclusive[i],
                "self_s": self.self_time[i],
            }
            for i, name in enumerate(self.names)
        }

    def child_calls(self, parent: str, child: str) -> int:
        """Spans of `child` whose direct parent span is `parent`."""
        p, c = self.names.index(parent), self.names.index(child)
        fn, up = self.span_fn, self.span_parent
        return sum(1 for s in range(len(fn)) if fn[s] == c and up[s] >= 0 and fn[up[s]] == p)

    def write_spans(self, path) -> int:
        """Write spans as tab-separated name, start, end, parent span index;
        times in seconds from the first span.  Returns the span count."""
        base = self.span_start[0] if len(self.span_start) else 0.0
        names = self.names
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\n")
            for s in range(len(self.span_fn)):
                fh.write(
                    f"{s}\t{names[self.span_fn[s]]}\t{self.span_start[s] - base:.7f}"
                    f"\t{self.span_end[s] - base:.7f}\t{self.span_parent[s]}\n"
                )
        return len(self.span_fn)
