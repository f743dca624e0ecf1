"""Span tracing of crossloc from outside the package.

``Tracer.install`` replaces every public function of every crossloc module
with a timing wrapper, in every module namespace that binds it, so calls
made inside the package (``estimator`` calling ``matching.score_matrix``,
``gradcheck`` calling it too) are caught.  Each call becomes one span:
name, start, end, parent span, op id and whether it raised.  Spans live in
flat arrays in memory and are written to disk once, when the run ends.

A few functions also carry a hook that records counts taken from their
arguments and result (matrix entries, matches kept, RANSAC inliers); the
per-layer report and its identity checks read those.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

# The layers: every module of the package that does work (errors does none).
LAYERS = (
    "cli",
    "io",
    "simulator",
    "matching",
    "lifting",
    "geometry",
    "estimator",
    "metrics",
    "losses",
    "gradcheck",
    "trainer",
)

SOLVERS = ("geometry.solve_similarity", "geometry.solve_orthogonal")


def _ransac_extra(args, result):
    cfg = args["cfg"]
    refit = int(cfg.refit_on_inliers and result.inlier_count >= 2)
    return (result.inlier_count, len(args["ground_planar"]), refit, cfg.iterations)


# name -> (args, result) -> tuple of counts stored on the span
HOOKS = {
    "matching.row_softmax": lambda a, r: (a["m"].size,),
    "matching.col_softmax": lambda a, r: (a["m"].size,),
    "matching.mask_ground_columns": lambda a, r: (
        int(np.count_nonzero(a["valid"])),
        int(np.size(a["valid"])),
    ),
    "matching.top_n_flat_indices": lambda a, r: (a["flat_probs"].size,),
    "matching.sample_correspondences": lambda a, r: (len(r),),
    "estimator.build_correspondences": lambda a, r: (len(r.matches),),
    "estimator.ransac_estimate": _ransac_extra,
}


class Tracer:
    """Wraps crossloc's public functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("i")
        self.op = array("q")
        self.raised = array("b")
        self.extras: dict[int, tuple] = {}
        self.hook_errors: list[str] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._wrappers = None  # id of original function -> its wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch in the wrappers; they are made once, so a reinstall keeps
        adding to the same spans under the same names."""
        modules = {layer: importlib.import_module(f"crossloc.{layer}") for layer in LAYERS}
        if self._wrappers is None:
            self._wrappers = {}
            for layer, module in modules.items():
                for attr, obj in vars(module).items():
                    if (
                        inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and not attr.startswith("_")
                    ):
                        self._wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [importlib.import_module("crossloc"), *modules.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        hook = HOOKS.get(qualname)
        signature = inspect.signature(fn) if hook else None
        start, end, parent = self.start, self.end, self.parent
        name, op, raised, stack = self.name, self.op, self.raised, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            op.append(self.op_id)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                raised[idx] = 1
                stack.pop()
                raise
            end[idx] = clock()
            stack.pop()
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.extras[idx] = hook(bound.arguments, result)
                except (KeyError, AttributeError, TypeError) as exc:
                    self.hook_errors.append(f"{qualname}: {type(exc).__name__}: {exc}")
            return result

        return traced

    # -- output -------------------------------------------------------------

    def spans(self) -> dict:
        """The recorded spans as numpy columns."""
        return {
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def write(self, path) -> None:
        """Write every span (and the counted extras) to one .npz file."""
        idx = np.array(sorted(self.extras), dtype=np.int64)
        width = max((len(v) for v in self.extras.values()), default=0)
        extras = np.full((len(idx), width), np.nan)
        for row, i in enumerate(idx):
            vals = self.extras[int(i)]
            extras[row, : len(vals)] = vals
        np.savez_compressed(
            path,
            names=np.array(self.names),
            extra_index=idx,
            extras=extras,
            **self.spans(),
        )


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    dur = spans["end"] - spans["start"]
    child = spans["parent"] >= 0
    covered = np.bincount(
        spans["parent"][child], weights=dur[child], minlength=len(dur)
    )
    return dur - covered


class Report:
    """Per-name call counts and self times, plus the hook-derived counts."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans()
        self.names = tracer.names
        self.spans = spans
        self.extras = tracer.extras
        n = len(self.names)
        self.calls = np.bincount(spans["name"], minlength=n)
        self.self_s = np.bincount(spans["name"], weights=self_times(spans), minlength=n)
        self._ids = {name: i for i, name in enumerate(self.names)}

    def ncalls(self, qualname: str) -> int:
        i = self._ids.get(qualname)
        return 0 if i is None else int(self.calls[i])

    def self_ms(self, key: str) -> float:
        """Self time of one function, or of a whole layer when key ends in '.'."""
        return 1e3 * float(sum(
            s for name, s in zip(self.names, self.self_s)
            if name == key or (key.endswith(".") and name.startswith(key))
        ))

    def indices(self, qualname: str, ok_only: bool = True) -> np.ndarray:
        hit = self.spans["name"] == self._ids.get(qualname, -1)
        if ok_only:
            hit &= self.spans["raised"] == 0
        return np.flatnonzero(hit)

    def extra_sum(self, qualname: str, column: int) -> int:
        return int(sum(
            self.extras[int(i)][column] for i in self.indices(qualname) if int(i) in self.extras
        ))

    def ransac_counts(self) -> dict:
        """Solver calls, completed iterations, redraws and refits inside RANSAC,
        with the per-call identity and inequality checks."""
        parent = self.spans["parent"]
        name = self.spans["name"]
        raised = self.spans["raised"]
        solver_ids = [self._ids.get(s, -1) for s in SOLVERS]
        count_id = self._ids.get("estimator.count_inliers", -1)
        counts = {"solver_calls": 0, "completed": 0, "redraws": 0, "refits": 0}
        violations = []
        for r in self.indices("estimator.ransac_estimate"):
            if int(r) not in self.extras:
                continue
            inliers, kept, refit, iterations = self.extras[int(r)]
            children = np.flatnonzero(parent == r)
            solves = children[np.isin(name[children], solver_ids)]
            completed = int(np.count_nonzero(name[children] == count_id))
            hypotheses = solves[:-1] if refit else solves
            redraws = int(raised[hypotheses].sum())
            if len(solves) != completed + redraws + refit:
                violations.append(f"span {r}: {len(solves)} solver calls != "
                                  f"{completed} + {redraws} + {refit}")
            if inliers > kept:
                violations.append(f"span {r}: {inliers} inliers > {kept} kept")
            if completed != iterations and len(hypotheses) < 10 * iterations:
                violations.append(f"span {r}: {completed} of {iterations} iterations")
            counts["solver_calls"] += len(solves)
            counts["completed"] += completed
            counts["redraws"] += redraws
            counts["refits"] += refit
        counts["violations"] = violations
        return counts

    def kept_violations(self) -> list:
        """Every build_correspondences call keeps at most what it sampled."""
        parent = self.spans["parent"]
        sample_ids = self.indices("matching.sample_correspondences")
        sampled_by_parent = {
            int(parent[i]): self.extras[int(i)][0] for i in sample_ids if int(i) in self.extras
        }
        bad = []
        for b in self.indices("estimator.build_correspondences"):
            if int(b) not in self.extras:
                continue
            kept = self.extras[int(b)][0]
            sampled = sampled_by_parent.get(int(b))
            if sampled is None or kept > sampled:
                bad.append(f"span {b}: kept {kept} of {sampled} sampled")
        return bad
