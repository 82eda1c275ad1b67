"""Span-and-counter tracer that instruments polystab from outside.

The tracer replaces public functions and methods of the polystab modules with
wrappers that record a span (name, start, end, parent) and update counters
from the arguments and return values the wrapper sees.  Nothing in the
program changes: `span` and `counter` patch attributes after import and
`restore` puts every original back.  A function that another module
imported by name (``from .quadrature import triangle_rule``) is patched in
every loaded polystab module that holds the same object.

Per-point helpers such as ``Polytope.boundary_distance`` are deliberately not
wrapped: the properness certificate calls that one about 10^7 times.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    """Collects nested spans and counters while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []        # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.missing: list = []      # targets absent from this version of the program
        self._stack: list = []
        self._patched: list = []     # (owner, attribute, original raw attribute)

    # -- recording -----------------------------------------------------------

    def count(self, name, n=1):
        self.counts[name] += n

    def record_max(self, name, value):
        self.maxima[name] = max(self.maxima[name], float(value))

    def _call(self, name, fn, on_return, args, kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            self._stack.pop()
        if on_return is not None:
            on_return(self, args, kwargs, result)
        return result

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, make):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapped = make(raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def span(self, module, qualname, name, on_return=None):
        """Time every call of `module.qualname` as span `name`."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._call(name, fn, on_return, args, kwargs)
            return wrapper
        self._install(module, qualname, make)

    def counter(self, module, qualname, on_return):
        """Update counters on every call of `module.qualname`, without a span."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_return(self, args, kwargs, result)
                return result
            return wrapper
        self._install(module, qualname, make)

    def _install(self, module, qualname, make):
        mod = sys.modules.get(module)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or attr not in vars(owner):
            self.missing.append(f"{module}.{qualname}")
            return
        if owner_name:
            self._patch(owner, attr, make)
            return
        original = vars(owner)[attr]
        # patch every polystab module that imported the same function by name
        for mod_name, other in sorted(sys.modules.items()):
            if other is None or not (mod_name == "polystab" or mod_name.startswith("polystab.")):
                continue
            for key, val in list(vars(other).items()):
                if val is original:
                    self._patch(other, key, make)

    def restore(self):
        """Put every patched attribute back, most recent first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Total self time per span name: duration minus the child spans' durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += (end - start) - c
        return dict(out)

    def top_level_time(self):
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)
