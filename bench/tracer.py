"""Span tracer installed from outside the package.

``Tracer.install`` rebinds chosen public functions of the ``bachain``
modules to timing wrappers, in the defining module and in every other
``bachain`` module that imported the same object (``enumerator``'s
``canonical_shell_tails`` is also a global of ``extension``, for example).
``Tracer.uninstall`` puts the originals back, so untraced passes run the
unmodified program.

Each wrapped call records one span: name, start, end, duration and the
span that was open when it started.  Spans live in flat arrays while a
pass runs and are written out only when the benchmark ends.  A wrapped
generator gets one span per (consumer span, generator) pair whose
duration is the time spent inside ``next()``; its start and end are the
first and last ``next()``.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter


class Tracer:
    """Collects spans for the functions listed in ``targets``.

    ``targets`` maps ``"module.function"`` (module relative to the
    ``bachain`` package) to ``(kind, on_return)``: kind is ``"call"`` or
    ``"gen"``; ``on_return(tracer, span_id, args, kwargs, result)``, if
    given, is called after the span closes and may store facts in
    ``tracer.info``.
    """

    def __init__(self, package: str, targets: dict):
        self.package = package
        self.targets = targets
        self.names: list[str] = []
        self._originals: list[tuple[object, str, object]] = []
        self.reset()

    # -- span storage -----------------------------------------------------

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.dur = array("d")
        self.info: dict[int, object] = {}
        self.yields: dict[int, int] = {}
        self._gen_spans: dict[tuple[int, int], int] = {}
        self._stack: list[int] = []

    def _open(self, nid: int) -> int:
        sid = len(self.dur)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.dur.append(0.0)
        return sid

    # -- wrappers ---------------------------------------------------------

    def _wrap_call(self, nid: int, fn, on_return):
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(nid)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1
                tracer.dur[sid] = t1 - t0
            if on_return is not None:
                on_return(tracer, sid, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_gen(self, nid: int, fn):
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            key = (parent, nid)
            sid = tracer._gen_spans.get(key)
            if sid is None:
                sid = tracer._open(nid)
                tracer._gen_spans[key] = sid
                tracer.yields[sid] = 0
            busy = 0.0
            count = 0
            first = 0.0
            last = 0.0
            try:
                while True:
                    stack.append(sid)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        last = perf_counter()
                        stack.pop()
                        busy += last - t0
                        if not first:
                            first = t0
                    count += 1
                    yield item
            finally:
                gen.close()
                if not tracer.start[sid]:
                    tracer.start[sid] = first
                tracer.end[sid] = last
                tracer.dur[sid] += busy
                tracer.yields[sid] += count

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == self.package or
                                           name.startswith(self.package + "."))}
        for target, (kind, on_return) in self.targets.items():
            mod_name, fn_name = target.rsplit(".", 1)
            home = modules[f"{self.package}.{mod_name}"]
            original = getattr(home, fn_name)
            if target not in self.names:
                self.names.append(target)
            nid = self.names.index(target)
            wrapper = (self._wrap_gen(nid, original) if kind == "gen"
                       else self._wrap_call(nid, original, on_return))
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._originals):
            setattr(mod, attr, value)
        self._originals = []

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = list(self.dur)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.dur[sid]
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, one per span."""
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\tstart_s\tend_s\tdur_s\n")
            t0 = min(self.start) if len(self.start) else 0.0
            for sid in range(len(self.dur)):
                fh.write(f"{sid}\t{self.names[self.name_id[sid]]}\t"
                         f"{self.parent[sid]}\t{self.start[sid] - t0:.9f}\t"
                         f"{self.end[sid] - t0:.9f}\t{self.dur[sid]:.9f}\n")
