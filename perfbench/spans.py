"""In-memory span tracing of hexacent's public functions, from outside.

A Tracer replaces each target function with a wrapper that records a span
(name, start, end, parent, root) in every module that binds the function's
name, so `from .hexagon import inscribe` call sites are traced too.  Self
time is a span's duration minus the time its child spans cover.  A target
the package no longer has is listed in `missing`; it does not stop the run.
"""

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, root index]
        self.counters = defaultdict(int)
        self.missing = []
        self._stack = []
        self._undo = []

    def _enter(self, name):
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else i
        self.spans.append([name, time.perf_counter(), None, parent, root])
        self._stack.append(i)
        return i

    def _exit(self, i):
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block, e.g. a workload operation."""
        i = self._enter(name)
        try:
            yield
        finally:
            self._exit(i)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(i)
            if counter is not None:
                key, amount = counter(args, result)
                self.counters[key] += amount
            return result

        return traced

    def install(self, targets):
        """targets: (span name, module, attribute, counter or None); an
        attribute "Class.method" is patched on the class."""
        self.missing = []
        # import every module first, so that none of them binds a wrapper
        # that uninstall() would not know about
        modules = {}
        for _, module, attr, _ in targets:
            try:
                modules[module] = importlib.import_module(module)
            except ImportError:
                self.missing.append("%s.%s" % (module, attr))
        for name, module, attr, counter in targets:
            if module not in modules:
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = modules[module]
            if owner_name:
                owner = getattr(owner, owner_name, None)
            fn = getattr(owner, leaf, None)
            if not callable(fn):
                self.missing.append("%s.%s" % (module, attr))
                continue
            wrapped = self._wrap(name, fn, counter)
            if owner_name:
                self._patch(owner, leaf, wrapped)
                continue
            package = module.split(".")[0]
            for mname, m in list(sys.modules.items()):
                if mname.split(".")[0] != package:
                    continue
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def self_times(self, where=lambda span: True):
        """{span name: (self seconds summed, calls)} over the spans for
        which where(span) holds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for i, span in enumerate(self.spans):
            if where(span):
                out[span[0]][0] += span[2] - span[1] - child[i]
                out[span[0]][1] += 1
        return {k: tuple(v) for k, v in out.items()}

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path):
        """One JSON object per span, then the counters and missing list."""
        with open(path, "w") as fh:
            for name, start, end, parent, root in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "root": root}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters),
                                 "missing": self.missing}) + "\n")
