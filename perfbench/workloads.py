"""The benchmark's three workloads.

A workload prepares its inputs in ``prepare`` (repeated, timed as set-up),
may do one-time set-up in ``setup_once``, and then yields rounds of
operations.  Every round holds the same operations in the same order, so
the share of failed operations does not depend on how many rounds a run
fits in.  Inputs come from ``numpy.random.default_rng((seed, round))``; no
operation repeats the input of an earlier one in the same run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from pourplan import cli
from pourplan import fileio as io
from pourplan import oracle
from pourplan import presets
from pourplan import robot
from pourplan.geometry import GeomTables, container_capacity

import checks

# bound before any tracing wrapper is installed, so checks never add spans
forward_kinematics = robot.forward_kinematics

# block heights at which the straight start ramp passes inside the 0.03 m
# contact query margin (it clears the default 0.26 m block by 0.0308 m)
RAISED_BLOCKS = (0.275, 0.285)


@dataclasses.dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not."""

    kind: str
    inputs: dict
    run: object                      # () -> result
    check: object                    # result -> list of failure messages
    timed: bool = True               # enters the per-operation median
    known_fault: bool = False        # fails today because of a program fault
    outcome: dict = dataclasses.field(default_factory=dict)  # set by check


def _cli(argv):
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"pourplan {argv[0]} exited {rc}")


class Workload:
    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def rng(self, round_no: int):
        # SeedSequence takes non-negative entropy only
        return np.random.default_rng((self.seed % 2 ** 63, round_no))

    def prepare(self) -> None:
        """Profile, spill tables, reference coefficients and the robot."""
        profile = presets.cylinder_profile()
        io.write_profile(self.path("cylinder.json"), profile)
        _cli(["tables", "--profile", self.path("cylinder.json"),
              "--out", self.path("tables.npz")])
        self.tables = GeomTables.load(self.path("tables.npz"))
        io.write_coeffs(self.path("coeffs.json"),
                        presets.reference_coeffs("cylinder"),
                        self.tables.container_id, rmse=None, n_samples=None)
        self.coeffs, _ = io.read_coeffs(self.path("coeffs.json"))
        self.profile = profile

    def setup_once(self) -> None:
        pass

    def block_problem(self, name: str, fill: float, block_height: float,
                      upright: bool = False):
        """Write the block-benchmark problem bundle; return (problem, path)."""
        problem = presets.block_benchmark(self.tables, self.coeffs,
                                          fill_fraction=fill, n=100)
        problem = dataclasses.replace(
            problem, world=presets.block_world(block_height=block_height))
        if upright:
            problem = dataclasses.replace(problem,
                                          q_prepour=problem.q_start.copy())
        io.write_robot(self.path(f"{name}.robot.json"), problem.chain)
        io.write_world(self.path(f"{name}.world.json"), problem.world)
        path = self.path(f"{name}.problem.json")
        io.write_problem(path, problem, f"{name}.robot.json",
                         f"{name}.world.json", "tables.npz", "coeffs.json")
        return problem, path


class BlockPlan(Workload):
    """N = 100 plans through ``pourplan plan``, in-process."""

    def round(self, r: int):
        rng = self.rng(r)
        ops = []
        for k, height in enumerate(RAISED_BLOCKS):
            fill = float(rng.uniform(0.40, 0.60))
            ops.append(self._plan_op(f"r{r}k{k}", "raised", fill, height))
        # the upright start fails every time (the planner's damping does not
        # shift g), on inputs that depend on the round only
        ops.append(self._plan_op(f"r{r}up", "upright", 0.5 + 0.01 * r, 0.26,
                                 upright=True))
        return ops

    def _plan_op(self, name, kind, fill, height, upright=False):
        problem, problem_path = self.block_problem(name, fill, height, upright)
        out = self.path(f"{name}.trajectory.csv")

        def run():
            _cli(["plan", "--problem", problem_path, "--out", out])
            with open(self.path(f"{name}.trajectory.report.json")) as f:
                return json.load(f)

        def check(report):
            return checks.plan_failures(checks.read_csv_columns(out), report,
                                        problem, forward_kinematics)

        return Op(kind=f"plan-{kind}",
                  inputs={"fill": fill, "block_height": height,
                          "upright": upright},
                  run=run, check=check, known_fault=upright)


def training_motion(rng) -> oracle.MotionSchedule:
    """Leaning ramp of the identification loop with a fixed 3.7 s duration.

    Angles, the mid-ramp knee and the fill come from the seed; the timing
    is fixed so that every pour simulates the same span of time.
    """
    th_end = math.radians(rng.uniform(90.0, 150.0))
    knee = 0.3 + rng.uniform(0.3, 0.7) * 2.9
    th_mid = th_end * rng.uniform(0.35, 0.65)
    return oracle.MotionSchedule(t=[0.0, 0.3, knee, 3.2, 3.7],
                                 x=[0.13] * 5, y=[0.16] * 5,
                                 theta=[0.0, 0.0, th_mid, th_end, th_end])


class TrainPours(Workload):
    """Three training pours and their extraction, a fit, one held-out pour."""

    TRAIN = 3
    DOMAIN = (0.0, 0.32, 0.0, 0.32)   # pourplan simulate's default extent

    def round(self, r: int):
        rng = self.rng(r)
        ops, sample_paths = [], []
        for k in range(self.TRAIN + 1):
            name = f"r{r}p{k}"
            motion = training_motion(rng)
            fill = float(rng.uniform(0.50, 0.60))
            sim_seed = int(rng.integers(2 ** 31))
            io.write_motion(self.path(f"{name}.motion.csv"), motion)
            if k < self.TRAIN:
                sample_paths.append(self.path(f"{name}.samples.csv"))
                ops.append(self._train_op(name, fill, sim_seed))
            else:
                heldout = (name, fill, sim_seed)
        ops.append(self._fit_op(f"r{r}", sample_paths))
        ops.append(self._heldout_op(*heldout, self.path(f"r{r}.coeffs.json")))
        return ops

    def _simulate(self, name, fill, sim_seed):
        frames = self.path(f"{name}.npz")
        _cli(["simulate", "--profile", self.path("cylinder.json"),
              "--motion", self.path(f"{name}.motion.csv"), "--out", frames,
              "--fill-fraction", repr(fill), "--seed", str(sim_seed)])
        return frames

    def _frame_positions(self, frames):
        with np.load(frames) as z:
            return list(z["positions"])

    def _table_arrays(self):
        with np.load(self.path("tables.npz")) as z:
            return {k: z[k] for k in ("theta", "vol_levels", "dh")}

    def _train_op(self, name, fill, sim_seed):
        samples = self.path(f"{name}.samples.csv")

        def run():
            frames = self._simulate(name, fill, sim_seed)
            _cli(["extract", "--frames", frames, "--out", samples])
            return frames

        def check(frames):
            fails = checks.frames_failures(self._frame_positions(frames),
                                           self.DOMAIN)
            if len(checks.read_csv_columns(samples)["vol_m3"]) < 1:
                fails.append("pour yielded no training tuple")
            return fails

        return Op(kind="pour-train",
                  inputs={"fill": fill, "sim_seed": sim_seed},
                  run=run, check=check)

    def _fit_op(self, name, sample_paths):
        out = self.path(f"{name}.coeffs.json")

        def run():
            _cli(["fit", "--samples", *sample_paths,
                  "--tables", self.path("tables.npz"), "--out", out])
            with open(out) as f:
                return json.load(f)

        def check(doc):
            tables = self._table_arrays()
            cols = [checks.read_csv_columns(p) for p in sample_paths]
            samples = {k: np.concatenate([c[k] for c in cols]) for k in cols[0]}
            fails = checks.capacity_failures(float(tables["vol_levels"][-1]),
                                             0.03, 0.10)
            coeffs = [doc["coefficients"][k] for k in "abcdef"]
            return fails + checks.fit_failures(samples, tables, coeffs)

        return Op(kind="fit", inputs={"samples": len(sample_paths)},
                  run=run, check=check, timed=False)

    def _heldout_op(self, name, fill, sim_seed, coeffs_path):
        def run():
            frames = self._simulate(name, fill, sim_seed)
            return frames, oracle.measured_series(io.read_frames(frames))

        def check(result):
            frames, series = result
            tables = self._table_arrays()
            with open(coeffs_path) as f:
                doc = json.load(f)
            # recorded, not counted as a failure: with three training pours
            # the fit extrapolates past its tilt range on some seeds
            # (seed 3: 1.13), so a failure here would depend on the seed
            op.outcome["heldout_rel_rmse"] = checks.heldout_rel_rmse(
                series, tables, [doc["coefficients"][k] for k in "abcdef"])
            return checks.frames_failures(self._frame_positions(frames),
                                          self.DOMAIN)

        op = Op(kind="pour-heldout",
                inputs={"fill": fill, "sim_seed": sim_seed},
                run=run, check=check)
        return op


class ValidatePour(Workload):
    """Replays of one planned pour in the 128^2 validation scene."""

    SETTLE_S = 2.0

    def setup_once(self) -> None:
        problem, problem_path = self.block_problem("validate", 0.5, 0.26)
        out = self.path("validate.trajectory.csv")
        _cli(["plan", "--problem", problem_path, "--out", out])
        # the container poses projected on the pour plane, as
        # ``pourplan validate`` does
        cols = checks.read_csv_columns(out)
        Q = np.column_stack([cols[f"q{j}_rad"] for j in range(problem.chain.dof)])
        pos = np.array([forward_kinematics(problem.chain, q).container[:3, 3]
                        for q in Q])
        sign = np.where(np.abs(cols["phi_rad"]) <= 0.5 * math.pi, 1.0, -1.0)
        self.motion = oracle.MotionSchedule(
            t=cols["t_s"], x=pos[:, 0], y=pos[:, 2],
            theta=sign * cols["theta_rad"]).extended(self.SETTLE_S)
        self.scene = presets.validation_scene(problem.world)
        self.fill = problem.fluid0.vol / container_capacity(self.profile)
        self.world = problem.world

    def round(self, r: int):
        oracle_seed = int(self.rng(r).integers(2 ** 31))
        config = presets.validation_sim_config(oracle_seed)
        block = next(self._rect(pose, shape) for name, shape, pose
                     in self.world.obstacles if name == "block")

        def run():
            result = oracle.simulate_pour(self.profile, self.motion, config,
                                          scene=self.scene,
                                          fill_fraction=self.fill)
            return result, oracle.quality(result)

        def check(out):
            result, q = out
            op.outcome["catch_fraction"] = q
            return checks.validation_failures(
                [f.positions for f in result.frames], block, config.domain,
                self.world.target_region, q)

        op = Op(kind="pour-validate", inputs={"oracle_seed": oracle_seed},
                run=run, check=check)
        return [op]

    @staticmethod
    def _rect(pose, shape):
        """The box's cross-section in the pour plane, as a polygon."""
        cx, _, cz = pose[:3, 3]
        hx, _, hz = shape.half_extents
        return np.array([[cx - hx, cz - hz], [cx + hx, cz - hz],
                         [cx + hx, cz + hz], [cx - hx, cz + hz]])


WORKLOADS = {
    "block-plan": BlockPlan,
    "train-pours": TrainPours,
    "validate-pour": ValidatePour,
}
