"""Span tracing for the traced run, installed from outside the program.

``Tracer.install()`` wraps every public function defined in the ``confpp``
modules, at every binding that holds it (``processes.k_inverse`` is the same
object as ``transforms.k_inverse``), plus ``Configuration.__post_init__``.
Each wrapped call records a span: name, site count, start, end and parent.
A span's self time is its duration minus the time its child spans cover.

Three leaf boundaries are hit hundreds of thousands of times per run:
building a configuration, the Strauss evaluator (wrapped by wrapping the
spec that ``strauss_spec`` returns) and the identity's test function ``h``
(wrapped where ``verify_mecke`` / ``verify_gnz`` receive it).  They count
calls and time, and charge that time to their parent span, but are not
stored one by one, so memory stays flat.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import time

import numpy as np

import confpp
from confpp import cli, core, generators, processes, samplers, transforms, \
    two_type

MODULES = (core, transforms, two_type, processes, generators, samplers, cli)


def _sites(args):
    """Site count of the first discrete-lattice operand, else None."""
    for a in args[:2]:
        n = getattr(a, "n_sites", None)
        if n is None:
            n = getattr(getattr(a, "ground", None), "n_sites", None)
        if isinstance(n, int):
            return n
    return None


class Tracer:
    def __init__(self):
        self.spans = []      # (id, parent id, name, n, start, end)
        self.totals = {}     # (name, n) -> [calls, self s, inclusive s]
        self.operator_bytes = 0
        self.top_level = 0.0  # seconds inside calls that have no parent
        self._stack = []     # per open span: [id, child seconds]
        self._next_id = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs, keep):
        n = _sites(args) if keep else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent[1] += dur
            else:
                self.top_level += dur
            tot = self.totals.setdefault((name, n), [0, 0.0, 0.0])
            tot[0] += 1
            tot[1] += dur - frame[1]
            tot[2] += dur
            if keep:
                self.spans.append((frame[0], parent[0] if parent else None,
                                   name, n, t0, t1))

    def _wrap(self, name, fn, keep=True, hook=None):
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            result = call(name, fn, args, kwargs, keep)
            if keep and isinstance(getattr(result, "matrix", None),
                                   np.ndarray):
                self.operator_bytes += result.matrix.nbytes
            return result
        return wrapper

    # -- installation ------------------------------------------------------

    def _hooks(self, fn):
        """``(target, hook)`` that reach the hot leaf callables."""
        if fn is samplers.strauss_spec:
            def strauss(*args, **kwargs):
                spec = fn(*args, **kwargs)
                # replace() keeps any other field, such as a batched form
                return dataclasses.replace(spec, evaluator=self._wrap(
                    "samplers.papangelou", spec.evaluator, keep=False))
            return strauss, None
        if fn in (samplers.verify_mecke, samplers.verify_gnz):
            sig = inspect.signature(fn)
            if "h" in sig.parameters:
                def h_hook(args, kwargs):
                    bound = sig.bind(*args, **kwargs)
                    bound.arguments["h"] = self._wrap(
                        "samplers.h", bound.arguments["h"], keep=False)
                    return bound.args, bound.kwargs
                return fn, h_hook
        return fn, None

    def install(self):
        bindings = [confpp] + list(MODULES)
        for mod in MODULES:
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                target, hook = self._hooks(fn)
                wrapper = self._wrap(f"{mod.__name__.split('.')[-1]}.{attr}",
                                     target, hook=hook)
                for holder in bindings:
                    for name, val in list(vars(holder).items()):
                        if val is fn:
                            self._undo.append((holder, name, fn))
                            setattr(holder, name, wrapper)
        post_init = core.Configuration.__post_init__
        self._undo.append((core.Configuration, "__post_init__", post_init))
        core.Configuration.__post_init__ = self._wrap(
            "core.Configuration", post_init, keep=False)

    def uninstall(self):
        for holder, name, val in reversed(self._undo):
            setattr(holder, name, val)
        self._undo.clear()

    # -- reading -----------------------------------------------------------

    def value(self, name, kind, n=None):
        """Summed ``calls``, ``s`` (self) or ``incl`` over matching spans."""
        col = {"calls": 0, "s": 1, "incl": 2}[kind]
        return sum(tot[col] for (nm, nn), tot in self.totals.items()
                   if nm == name and (n is None or nn == n))

    @property
    def self_sum(self):
        return sum(tot[1] for tot in self.totals.values())

    def write(self, path, meta):
        names = sorted({s[2] for s in self.spans})
        index = {nm: i for i, nm in enumerate(names)}
        doc = dict(meta, names=names,
                   columns=["id", "parent", "name", "n", "start", "end"],
                   spans=[[s[0], s[1], index[s[2]], s[3], s[4], s[5]]
                          for s in self.spans],
                   totals=[[nm, n, *tot] for (nm, n), tot
                           in sorted(self.totals.items(), key=str)])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
