"""Span tracing installed from outside the program.

`Tracer.install` wraps the public functions of every lshlab module, plus the
public methods that carry the hot work (hash evaluation, family draws and the
per-class `collision_codes`), by rebinding module globals. The program's
source is never touched. Each call becomes a span: name, parent span, the
benchmark pass that caused it, start and end. Spans live in compact arrays
while the run lasts and are written out at the end; self times are derived
from them afterwards (a span's duration minus the time its children cover).
"""

from __future__ import annotations

import array
import functools
import inspect
import time

import numpy as np

LAYERS = ("points", "hashing", "spectral", "sampling", "bounds", "annindex", "verify", "cli")

# Hot public methods, named by the layer metric they feed.
_METHODS = (
    ("HashFunction", "__call__", "hashing.eval"),
    ("HashFamily", "draw", "hashing.draw"),
    ("HashFamily", "sample", "hashing.sample"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.pass_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.current = -1
        self.current_pass = -1
        # Counters fed from call results; only the deterministic count window
        # of a run adds to them, so they repeat exactly at a fixed seed.
        self.counting = False
        self.counters: dict[str, float] = {}
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount=1) -> None:
        if self.counting:
            self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, span_name: str, fn, on_result=None):
        nid = self._intern(span_name)
        clock = time.perf_counter
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tr.current
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(parent)
            tr.pass_id.append(tr.current_pass)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.current = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = clock()
                tr.start[idx] = t0
                tr.current = parent
            if on_result is not None:
                on_result(tr, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self, package, hooks=None) -> None:
        """Wrap every public function of each layer module of `package`.

        `hooks` maps a span name to a callback `(tracer, result)` that turns
        a call's result into counters.
        """
        hooks = hooks or {}
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        replaced = {}  # original function -> its wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                span = f"{layer}.{attr}"
                replaced[obj] = self.wrap(span, obj, hooks.get(span))

        # Rebind every reference: module globals (covers `from .x import y`),
        # the package namespace, and function tables such as verify's suite map.
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, attr, replaced[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in replaced:
                            self._set_item(obj, key, replaced[val])

        hashing = modules["hashing"]
        for cls_name, meth, span in _METHODS:
            cls = getattr(hashing, cls_name)
            self._set(cls, meth, self.wrap(span, vars(cls)[meth], hooks.get(span)))
        for cls in [hashing.HashFunction, *_subclasses(hashing.HashFunction)]:
            if "collision_codes" in vars(cls):
                orig = vars(cls)["collision_codes"]
                self._set(cls, "collision_codes", self.wrap("hashing.collision_codes", orig))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class SpanTable:
    """Derived views over a tracer's spans: durations, self times, and
    per-pass sums of either, restricted to named span groups."""

    def __init__(self, tracer: Tracer, n_passes: int, window: int):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.pass_id = a["pass_id"]
        self.dur = a["end"] - a["start"]
        self.n_passes = n_passes
        self.window = window
        has_parent = self.parent >= 0
        child_sum = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_time = self.dur - child_sum

    def _mask(self, group) -> np.ndarray:
        ids = [self.names.index(n) for n in group if n in self.names]
        return np.isin(self.name, ids), ids

    def _outermost(self, group) -> np.ndarray:
        """Spans of the group with no ancestor in the group, so recursive or
        mutually nested calls are not counted twice."""
        mask, ids = self._mask(group)
        nested = np.zeros(len(self.name), dtype=bool)
        anc = self.parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                break
            safe = np.where(live, anc, 0)
            nested |= live & np.isin(self.name[safe], ids)
            anc = np.where(live, self.parent[safe], -1)
        return mask & ~nested

    def _per_pass(self, mask, values) -> np.ndarray:
        sel = mask & (self.pass_id >= 0)
        return np.bincount(
            self.pass_id[sel], weights=values[sel], minlength=self.n_passes
        )[: self.n_passes]

    def total_per_pass(self, group) -> float:
        """Mean over passes of the wall time spent inside the group."""
        return float(np.mean(self._per_pass(self._outermost(group), self.dur)))

    def self_per_pass(self, group) -> float:
        """Mean over passes of the group's self time."""
        mask, _ = self._mask(group)
        return float(np.mean(self._per_pass(mask, self.self_time)))

    def calls(self, group) -> int:
        """Number of spans of the group caused by the count window's passes."""
        mask, _ = self._mask(group)
        return int(np.count_nonzero(mask & (self.pass_id >= 0) & (self.pass_id < self.window)))

    def layer_self_per_pass(self, layer: str) -> float:
        group = [n for n in self.names if n.startswith(layer + ".")]
        return self.self_per_pass(group)
