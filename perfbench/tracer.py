"""Span recorder for the traced run.

``install()`` wraps the public functions of every cstk module and rebinds
each wrapped function wherever a cstk module holds it: under its own module,
under every ``from .x import f`` name in the other modules, and as a value of
module-level dicts such as ``verify.SUITES``.  Nothing is installed unless a
traced run asks for it, so untraced runs call the program unchanged.

Each call records a span (name, start, end, parent) in flat arrays that stay
in memory until the run ends, plus, for the calls the per-layer metrics
count, the number of elements it was handed or returned.
``gamma_fn``, ``rgamma`` and ``pochhammer`` are left unwrapped: they are scalar
arithmetic plumbing that costs less per call than a span does.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("specfun", "quadrature", "measures", "poly2d", "coherent", "transforms", "verify")
_PLUMBING = {"gamma_fn", "rgamma", "pochhammer"}

# positional index of the argument whose size counts as the call's elements
_ELEM_ARG = {
    "specfun.laguerre": 2,
    "specfun.pcf_D": 1,
    "specfun.hyp_pfq": 2,
    "poly2d.h_poly": 1,
    "transforms.omega_weight": 0,
    "transforms.apply_transform": 3,
}

# calls whose element count is the size of what they return
_RESULT_ELEMS = {"quadrature.adaptive_line": lambda rule: len(rule.nodes)}


class Recorder:
    """Spans of one traced run, stored column-wise."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.elems = array("q")
        self.distinct = array("q")  # distinct hyp_pfq arguments, -1 elsewhere
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, name: str, func):
        nid = self._id(name)
        elem_pos = _ELEM_ARG.get(name)
        result_elems = _RESULT_ELEMS.get(name)
        count_distinct = name == "specfun.hyp_pfq"
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(self.start)
            n_el, n_distinct = 1, -1
            if elem_pos is not None and len(args) > elem_pos:
                arg = args[elem_pos]
                n_el = len(arg) if isinstance(arg, (list, tuple)) else int(np.size(arg))
                if count_distinct:
                    n_distinct = int(np.unique(np.asarray(arg)).size)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.elems.append(n_el)
            self.distinct.append(n_distinct)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if result_elems is not None:
                self.elems[idx] = result_elems(result)
            return result

        return traced

    def span(self, name: str):
        """Context manager recording one benchmark-side span (e.g. a pass)."""
        return _Span(self, self._id(name))

    # -- summaries -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds, self seconds, elements, distinct."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n) if n else np.zeros(0)
        end = np.frombuffer(self.end, dtype=float, count=n) if n else np.zeros(0)
        dur = end - start
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n) if n else np.zeros(0, dtype=np.int32)
        child_time = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time
        ids = np.frombuffer(self.name_id, dtype=np.int32, count=n) if n else np.zeros(0, dtype=np.int32)
        elems = np.frombuffer(self.elems, dtype=np.int64, count=n) if n else np.zeros(0, dtype=np.int64)
        distinct = np.frombuffer(self.distinct, dtype=np.int64, count=n) if n else np.zeros(0, dtype=np.int64)
        out = {}
        for i, name in enumerate(self.names):
            sel = ids == i
            if not np.any(sel):
                continue
            out[name] = {
                "calls": int(np.sum(sel)),
                "incl_s": float(np.sum(dur[sel])),
                "self_s": float(np.sum(self_time[sel])),
                "elems": int(np.sum(elems[sel])),
                "distinct": int(np.sum(distinct[sel])),
                "durations": dur[sel],
                "elem_list": elems[sel],
            }
        return out


class _Span:
    def __init__(self, rec: Recorder, nid: int):
        self.rec, self.nid = rec, nid

    def __enter__(self):
        rec = self.rec
        self.idx = len(rec.start)
        rec.name_id.append(self.nid)
        rec.parent.append(rec._stack[-1] if rec._stack else -1)
        rec.elems.append(1)
        rec.distinct.append(-1)
        rec.end.append(0.0)
        rec._stack.append(self.idx)
        rec.start.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        self.rec.end[self.idx] = time.perf_counter()
        self.rec._stack.pop()
        return False


def install(cstk_package) -> Recorder:
    """Wrap every public function of the cstk layers and rebind all references."""
    rec = Recorder()
    modules = [getattr(cstk_package, name) for name in LAYERS]
    replacements = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for fname in getattr(mod, "__all__", ()):
            func = getattr(mod, fname, None)
            if not inspect.isfunction(func) or func.__module__ != mod.__name__ or fname in _PLUMBING:
                continue
            replacements[id(func)] = rec.wrap(f"{layer}.{fname}", func)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if id(value) in replacements and inspect.isfunction(value):
                setattr(mod, key, replacements[id(value)])
            elif isinstance(value, dict):
                for dkey, dval in list(value.items()):
                    if inspect.isfunction(dval) and id(dval) in replacements:
                        value[dkey] = replacements[id(dval)]
    return rec
