"""Per-layer tracing by wrapping asyntrace's public functions from outside.

Each wrapped function records a span (id, parent id, job, name, start, end)
and adds its self time, its span time minus the time of its child spans, to
a per-name total.  A function that other modules import by name (such as
``normal_form`` in ``state_space``, ``async_system`` and ``cli``) is replaced
in every module that holds it.  ``TraceMonoid.index`` and
``TraceMonoid.pairs`` are hot and only counted.  Spans are kept in memory
while ``keep_spans`` is set and written out by the benchmark when it ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, function) pairs that get a span; the layers are the modules
SPANS = {
    "trace_core": ("make_monoid", "make_hom", "normal_form", "normalize", "apply_word"),
    "fpcm_cat": ("product", "coproduct", "equalizer", "coequalizer", "limit", "colimit", "tupling", "cotupling"),
    "state_space": ("make_space", "make_space_morphism", "product", "equalizer", "limit", "saturate",
                    "build_presentation", "colimit", "space_tupling"),
    "async_system": ("validate_system", "make_system", "make_morphism", "morphism_violations", "product",
                     "limit", "colimit", "reachable", "unfold", "classify"),
    "interchange": ("parse", "dumps"),
    "cli": ("main",),
}
COUNTED_METHODS = (("trace_core", "TraceMonoid", "index"), ("trace_core", "TraceMonoid", "pairs"))


# Work done, counted where it happens: span name -> (args, result) -> counts
WORK = {
    "trace_core.normal_form": lambda args, res: {"trace_core.normal_form.letters": len(args[0])},
    "fpcm_cat.product": lambda args, res: {"fpcm_cat.product.gens": len(res.monoid.events),
                                           "fpcm_cat.product.pairs": len(res.monoid.independence)},
    "state_space.saturate": lambda args, res: {"state_space.saturate.states": len(res.space.states),
                                               "state_space.saturate.frontier": len(res.frontier)},
    "interchange.parse": lambda args, res: {"interchange.parse.bytes": len(args[0].encode())},
    "interchange.dumps": lambda args, res: {"interchange.dumps.bytes": len(res.encode())},
}


class Tracer:
    def __init__(self):
        self.stack = []  # [child seconds, span id] per open span
        self.spans = []  # (id, parent id, job, name, start, end)
        self.keep_spans = True
        self.job = 0
        self.self_s = Counter()  # name -> self seconds, since the last take()
        self.counts = Counter()  # name.calls and work counts, since the last take()
        self._undo = []

    def take(self):
        """Self seconds and counts since the previous call."""
        self_s, counts = self.self_s, self.counts
        self.self_s, self.counts = Counter(), Counter()
        return self_s, counts

    def _span(self, name, fn):
        stack = self.stack
        clock = time.perf_counter
        tracer = self
        calls = name + ".calls"
        work = WORK.get(name)

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans) if tracer.keep_spans else -1
            parent = stack[-1][1] if stack else None
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = end - start
                if stack:
                    stack[-1][0] += span
                tracer.self_s[name] += span - frame[0]
                tracer.counts[calls] += 1
                if tracer.keep_spans:
                    tracer.spans.append((sid, parent, tracer.job, name, start, end))
            if work is not None:
                tracer.counts.update(work(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        tracer = self
        calls = name + ".calls"

        def wrapper(*args):
            tracer.counts[calls] += 1
            return fn(*args)

        return wrapper

    def install(self):
        import asyntrace.cli  # noqa: F401  (loads every layer)

        mods = {n: m for n, m in sys.modules.items() if n == "asyntrace" or n.startswith("asyntrace.")}
        for layer, names in SPANS.items():
            home = mods["asyntrace." + layer]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._span(f"{layer}.{fname}", orig)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, orig))
        for layer, cls_name, meth in COUNTED_METHODS:
            cls = getattr(mods["asyntrace." + layer], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._counter(f"{layer}.{cls_name}.{meth}", orig))
            self._undo.append((cls, meth, orig))
        return self

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()
