"""Span recording around the calls into qgame's layers.

Wrapping happens from the benchmark's side, under the name by which a
caller reaches a function: every public function of a qgame module is
replaced in each qgame namespace that binds it. That covers a module's
calls to its own functions (``search.sweep_beta`` calling
``find_pure_ne``), names imported from another module (``search`` binds
``mesh_angle_array``), calls through a module object (``search`` reaches
``_kernels.pure_ne_pairs`` through ``_kernels``) and the ``qgame`` package
namespace the benchmark calls through. Functions captured before wrapping,
such as the checks in ``verify.ALL_CHECKS``, stay unwrapped.

Spans carry a name, start, end, parent and operation id; they stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


def layer_name(fn) -> str:
    """'search.find_pure_ne' for qgame.search.find_pure_ne (leading '_' dropped)."""
    return f"{fn.__module__.rsplit('.', 1)[-1].lstrip('_')}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, fn):
        name = layer_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "op": self.op, "parent": self._stack[-1] if self._stack else None}
            span["id"] = len(self.spans)
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            count = _COUNTERS.get(name)
            if count is not None:
                span["count"] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public qgame function in every qgame namespace that binds it."""
        mods = [m for n, m in sys.modules.items() if n == "qgame" or n.startswith("qgame.")]
        wrapped = {}
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not (value.__module__ or "").startswith("qgame."):
                    continue
                if value not in wrapped:
                    wrapped[value] = self.wrap(value)
                setattr(mod, attr, wrapped[value])


def _pairs_count(args, result):
    return len(result.pairs)


def _strategies_count(args, result):
    return int(result.shape[0])


def _mesh_pairs(args, result):
    return int(args[0].shape[0]) ** 2


_COUNTERS = {
    "search.find_pure_ne": _pairs_count,
    "mesh.mesh_angle_array": _strategies_count,
    "kernels.pure_ne_pairs": _mesh_pairs,
    "kernels.payoff_tables": _mesh_pairs,
    "kernels.payoff_tables_matrix": _mesh_pairs,
}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0) for s in spans}
