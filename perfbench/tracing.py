"""Spans and counts around calls into pourplan's layers.

The traced run replaces module-level functions with wrappers that open a
span per call.  Spans nest strictly (the pipeline is single-threaded), so a
span's self time is its duration minus the durations of its direct
children, and the self times of all spans under one operation add up to
that operation's traced time.  Nothing under ``src/`` is edited: the
wrappers are installed on the imported modules and removed again.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, layer, counter).  Functions are wrapped where the
# calling module looks them up: names imported with ``from x import f``
# are wrapped in the importing module, ``mod.f`` calls in ``mod``.
# ``counter`` names a count incremented per call, or a function of the
# call's result returning {count name: increment}.
SPANS = [
    # planner
    ("pourplan.planner", "plan", "planner", None),
    ("pourplan.planner", "transfer_objective", "planner.transfer", None),
    ("pourplan.planner", "transfer_values", "planner.transfer", None),
    ("pourplan.planner", "solve_qp", "qp",
     lambda sol: {"qp.calls": 1, "qp.iterations": sol.iterations}),
    ("pourplan.planner", "rollout", "fluid.rollout", "fluid.rollout.calls"),
    ("pourplan.geometry.GeomTables", "interp_many", "geometry.interp",
     "geometry.interp.calls"),
    ("pourplan.collision", "deepest_contacts", "collision", None),
    ("pourplan.collision", "min_separation", "collision", None),
    ("pourplan.planner", "forward_kinematics", "robot", "robot.fk_calls"),
    ("pourplan.robot", "forward_kinematics", "robot", "robot.fk_calls"),
    ("pourplan.planner", "jacobians", "robot", None),
    ("pourplan.planner", "lean_azimuth", "robot", None),
    ("pourplan.planner", "geom_world_poses", "robot", None),
    ("pourplan.planner", "point_jacobian", "robot", None),
    ("pourplan.robot", "point_jacobian", "robot", None),
    # oracle stages, as bound in pourplan.oracle
    ("pourplan.oracle", "simulate_pour", "oracle",
     lambda res: {"oracle.particles": res.n_particles,
                  "oracle.cells": res.config.nx * res.config.ny}),
    ("pourplan.oracle", "_bilinear_scatter", "oracle.p2g", None),
    ("pourplan.oracle", "_bilinear_gather", "oracle.g2p", None),
    ("pourplan.oracle", "_extrapolate", "oracle.extrapolate", None),
    ("pourplan.oracle", "_project_clean", "oracle.project", "oracle.substeps"),
    ("pourplan.oracle", "spsolve", "oracle.pressure_solve", None),
    ("pourplan.oracle", "_container_solid_mask", "oracle.solid_mask", None),
    ("pourplan.oracle", "_static_solid_mask", "oracle.solid_mask", None),
    ("pourplan.oracle", "_points_in_polygon", "oracle.containment", None),
    ("pourplan.oracle", "_segments_cross", "oracle.containment", None),
    ("pourplan.oracle", "_push_off_boundary", "oracle.containment", None),
    # post-processing, tables
    ("pourplan.oracle", "extract_training_samples", "oracle.extract", None),
    ("pourplan.oracle", "measured_series", "oracle.extract", None),
    ("pourplan.cli", "build_tables", "geometry.build_tables", None),
]

# count-only wrappers: no span, so they cost almost nothing per call
COUNTS = [
    ("pourplan.collision", "check_pair", None, "collision.pair_checks"),
    ("pourplan.planner", "gather_contacts", None,
     lambda cs: {"collision.contacts": len(cs)}),
    ("pourplan.planner", "_qp_objective_at", None, "planner.steps_tried"),
]

# every public function of pourplan.fileio is one layer
FILEIO_MODULE = "pourplan.fileio"


def _resolve(path: str):
    """Module or class named by a dotted path, or None when it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Strictly nested spans plus counters, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = Counter()
        self.self_time = defaultdict(float)
        self._stack = []         # [span index, start, child time]
        self._restore = []
        self.absent = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        start = time.perf_counter()
        self.spans.append([name, start, None, parent])
        self._stack.append([idx, start, 0.0])

    def close(self) -> float:
        end = time.perf_counter()
        idx, start, child = self._stack.pop()
        self.spans[idx][2] = end
        dur = end - start
        self.self_time[self.spans[idx][0]] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def count(self, name: str, inc=1) -> None:
        self.counts[name] += inc

    # -- wrapping ------------------------------------------------------------
    def wrap(self, owner, attr: str, layer: str | None, counter=None) -> None:
        """Replace ``owner.attr`` by a wrapper that opens a span named
        ``layer`` (none when it is None) and applies ``counter``."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer is None:
                result = fn(*args, **kwargs)
            else:
                tracer.open(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close()
            _apply(tracer, counter, result)
            return result

        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer boundary; note those the program no longer has."""
        for path, attr, layer, counter in SPANS + COUNTS:
            owner = _resolve(path)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.absent.append(f"{path}.{attr}")
                continue
            self.wrap(owner, attr, layer, counter)
        fileio = _resolve(FILEIO_MODULE)
        if fileio is None:
            self.absent.append(FILEIO_MODULE)
            return
        for name, fn in list(vars(fileio).items()):
            if (callable(fn) and not name.startswith("_")
                    and getattr(fn, "__module__", None) == FILEIO_MODULE
                    and not isinstance(fn, type)):
                self.wrap(fileio, name, "fileio")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _apply(tracer: Tracer, counter, result) -> None:
    if counter is None:
        return
    if isinstance(counter, str):
        tracer.count(counter)
        return
    for name, inc in counter(result).items():
        tracer.count(name, inc)
