"""Per-layer timing from outside the program: wrap public functions, record spans.

``Tracer.install`` replaces every module attribute of ``artigen`` that refers
to a traced function (``artigen.basis.fit_bases`` and the
``artigen.pipeline.fit_bases`` that pipeline code calls) with a wrapper
that records a span: name, start, end, parent span and the id of the
operation it belongs to. Counts that a wrapper derives from a call's
arguments or result, such as ``single_simulation.pairs``, are labelled
"computed" in the README: they are not counters kept by the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np

MB = 2 ** 20


def _sim_counts(a, result):
    if a["joint"].is_fixed or a["ref"].n_faces == 0:
        return {}
    entries = (a["n_steps"] + 1) * a["mov"].n_vertices * a["ref"].n_faces
    return {"pairs": entries, "dense_mb": ("max", entries * 8 / MB)}


def _correct_counts(a, result):
    _, before, after = result
    return {"improved": int(after.l_phy < before.l_phy)}


def _coeff_counts(a, result):
    # rounds run: every improving round appended to cd_history; a round that
    # did not improve ended the loop without appending
    improving = len(result.cd_history) - 1
    tol = a.get("tol", 1e-8)
    last_gain = (result.cd_history[-2] - result.cd_history[-1]) if improving else None
    stopped_on_worse = result.converged and (last_gain is None or last_gain >= tol)
    return {"rounds": improving + int(stopped_on_worse),
            "converged": int(result.converged)}


def _sync_counts(a, result):
    return {"iters": len(result.objective_history) - 2}


def _points(a, result):
    return {"points": np.asarray(a["points"]).size // 3}


def _pair_counts(a, result):
    return {"pairs": len(a["gen"]) * len(a["ref"])}


# (module, function, derived counts); every function of the per-layer table
TRACED = [
    ("physics", "single_simulation", _sim_counts),
    ("physics", "correct_shape", _correct_counts),
    ("physics", "physics_losses", None),
    ("physics", "grad_phy_wrt_vertices", None),
    ("basis", "fit_bases", None),
    ("basis", "fit_coefficient", _coeff_counts),
    ("basis", "basis_objective_and_grad", None),
    ("basis", "chamfer_distance", None),
    ("basis", "fit_gmm", None),
    ("sync", "synchronize", _sync_counts),
    ("cage", "build_cage", None),
    ("cage", "weight_matrix", _points),
    ("cage", "smooth_weights", None),
    ("pipeline", "build_deformable", None),
    ("pipeline", "load_model", None),
    ("pipeline", "save_model", None),
    ("mesh", "load_obj", None),
    ("mesh", "save_obj", None),
    ("mesh", "sample_surface", None),
    ("metrics", "pairwise_chamfer", _pair_counts),
    ("metrics", "one_nna", None),
    ("metrics", "jsd", None),
]


@dataclass
class Span:
    name: str
    op: int
    span: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = 0
        self._patched: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        self._op += 1

    def _wrap(self, name, fn, derive):
        sig = inspect.signature(fn) if derive else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].span if self._stack else None
            sp = Span(name, self._op, len(self.spans), parent, time.perf_counter())
            self.spans.append(sp)
            self._stack.append(sp)
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = time.perf_counter()
                self._stack.pop()
            if derive:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                sp.counts = derive(bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        originals = {}
        for mod, fname, derive in TRACED:
            fn = getattr(importlib.import_module(f"artigen.{mod}"), fname)
            originals[id(fn)] = (fn, self._wrap(f"{mod}.{fname}", fn, derive))
        for modname, module in list(sys.modules.items()):
            if not (modname == "artigen" or modname.startswith("artigen.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def per_layer(self, n_ops: int, names: list[str]) -> dict[str, float]:
        """The named ``<module>.<function>.<stat>`` metrics, per traced operation."""
        child = {}
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] = child.get(sp.parent, 0.0) + sp.end - sp.start
        agg: dict[str, dict[str, float]] = {}
        for mod, fname, _ in TRACED:
            agg[f"{mod}.{fname}"] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        for sp in self.spans:
            a = agg[sp.name]
            dur = sp.end - sp.start
            a["calls"] += 1
            a["total_s"] += dur
            a["self_s"] += dur - child.get(sp.span, 0.0)
            for key, val in sp.counts.items():
                if isinstance(val, tuple):
                    a[key] = max(a.get(key, 0.0), val[1])
                else:
                    a[key] = a.get(key, 0) + val
        out = {}
        for metric in names:
            layer, _, stat = metric.rpartition(".")
            a = agg[layer]
            if stat.endswith("_ratio"):
                num = a.get(stat[:-len("_ratio")], 0)
                out[metric] = num / a["calls"] if a["calls"] else 0.0
            elif stat == "dense_mb":
                out[metric] = a.get(stat, 0.0)
            else:
                out[metric] = a.get(stat, 0) / n_ops
        return out

    def dump(self) -> list[dict]:
        return [{"name": s.name, "op": s.op, "span": s.span, "parent": s.parent,
                 "start": s.start, "end": s.end, **s.counts} for s in self.spans]

