"""Span recording around the public callables of the cdwlab layers.

``Tracer.install`` replaces every public module-level function of the
layer modules, in every layer module that binds it, by a wrapper that
records a span (id, name, parent id, start, end).  Spans stay in memory;
the caller writes them out.  Nothing under ``src/`` is edited: the
wrapping happens at run time, from the benchmark's own files.
"""

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "model", "evolver", "sinegordon", "variational",
          "tunneling", "curves")
PACKAGE = "cdwlab"
# called once per CSV value (81,600 times per pendulum-kink artifact): a
# span there would cost more than the work it times
UNTRACED = {"curves.format_number"}


class Tracer:
    """In-memory span recorder; spans are [id, name, parent, start, end]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, parent, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return traced

    def install(self):
        """Wrap the public functions of every layer module."""
        modules = [importlib.import_module("%s.%s" % (PACKAGE, m))
                   for m in LAYERS]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(PACKAGE + ".")):
                    continue
                name = "%s.%s" % (obj.__module__.split(".", 1)[1],
                                  obj.__name__)
                if name in UNTRACED:
                    continue
                key = id(obj)
                if key not in wrappers:
                    wrappers[key] = self.wrap(name, obj)
                self._restore.append((module, attr, obj))
                setattr(module, attr, wrappers[key])

    def uninstall(self):
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore = []


def layer_of(name):
    return name.split(".", 1)[0]


def children(spans):
    kids = {}
    for span in spans:
        kids.setdefault(span[2], []).append(span)
    return kids


def self_times(spans):
    """Self time per span id: duration minus the time its children cover.

    Children of one span run one after another on one thread, so the
    covered time is the sum of their durations."""
    kids = children(spans)
    out = {}
    for sid, _, _, start, end in spans:
        covered = sum(k[4] - k[3] for k in kids.get(sid, ()))
        out[sid] = (end - start) - covered
    return out


def layer_self_times(spans):
    """Total self time per layer name."""
    own = self_times(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        layer = layer_of(span[1])
        if layer in out:
            out[layer] += own[span[0]]
    return out


def covered_time(spans, layers):
    """Time inside spans of the given layers, not counting a span twice
    when an ancestor is itself in those layers."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for span in spans:
        if layer_of(span[1]) not in layers:
            continue
        parent = span[2]
        nested = False
        while parent is not None:
            if layer_of(by_id[parent][1]) in layers:
                nested = True
                break
            parent = by_id[parent][2]
        if not nested:
            total += span[4] - span[3]
    return total


def durations(spans, name):
    return [s[4] - s[3] for s in spans if s[1] == name]


def check_nesting(spans):
    """Reasons the span tree is malformed; empty when every span is
    closed, lies inside its parent and has non-negative self time."""
    by_id = {s[0]: s for s in spans}
    bad = ["span %d %s not closed" % (s[0], s[1]) for s in spans
           if s[4] is None or s[4] < s[3]]
    if bad:
        return bad
    for sid, name, parent, start, end in spans:
        if parent is not None and not (
                by_id[parent][3] <= start and end <= by_id[parent][4]):
            bad.append("span %d %s outside parent %d" % (sid, name, parent))
    for sid, value in self_times(spans).items():
        if value < 0:
            bad.append("span %d has negative self time" % sid)
    return bad
