"""Command-line pipeline: tables, simulate, extract, fit, predict, plan,
validate, report.

Every command writes its artifacts plus a run manifest; on failure the
partially written outputs are removed and the process exits 1 with a
structured error naming the stage.  Exit code 2 signals usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import fileio as io
from . import oracle as oc
from . import planner as pl
from . import robot as rb
from .fluid import (FluidState, bernoulli_speed, fit_coefficients,
                    outflow_speed, rollout)
from .geometry import GeomTables, build_tables
from .oracle import MotionSchedule, SimConfig
from .planner import SolverSettings

ENV_SETTINGS = "POURPLAN_SETTINGS"
ENV_SEED = "POURPLAN_SEED"


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


def _manifest_path(out_path) -> str:
    return str(out_path) + ".manifest.json"


def cmd_tables(args, outputs):
    profile = io.read_profile(args.profile)
    tables = build_tables(profile, theta_step=math.radians(args.theta_step_deg),
                          grid_cell=args.grid_cell,
                          theta_max=math.radians(args.theta_max_deg))
    outputs.append(args.out)
    tables.save(args.out)
    io.write_manifest(_manifest_path(args.out), "tables",
                      {"profile": args.profile}, outputs,
                      {"theta_step_deg": args.theta_step_deg,
                       "grid_cell": args.grid_cell,
                       "theta_max_deg": args.theta_max_deg,
                       "container_id": tables.container_id},
                      args.t_begin)
    outputs.append(_manifest_path(args.out))
    return 0


def cmd_simulate(args, outputs):
    profile = io.read_profile(args.profile)
    motion = io.read_motion(args.motion)
    seed = args.seed if args.seed is not None else int(os.environ.get(ENV_SEED, 0))
    cfg = SimConfig(nx=args.grid, ny=args.grid,
                    domain=(0.0, args.extent, 0.0, args.extent),
                    dt=args.dt, frame_dt=args.frame_dt,
                    viscosity=args.viscosity,
                    particles_per_cell=args.particles_per_cell, seed=seed)
    result = oc.simulate_pour(profile, motion, cfg,
                              fill_fraction=args.fill_fraction)
    outputs.append(args.out)
    io.write_frames(args.out, result)
    io.write_manifest(_manifest_path(args.out), "simulate",
                      {"profile": args.profile, "motion": args.motion},
                      outputs,
                      {**io.simconfig_to_dict(cfg),
                       "fill_fraction": args.fill_fraction,
                       "n_particles": result.n_particles,
                       "vol0_m3": result.vol0},
                      args.t_begin)
    outputs.append(_manifest_path(args.out))
    return 0


def cmd_extract(args, outputs):
    result = io.read_frames(args.frames)
    samples = oc.extract_training_samples(result)
    outputs.append(args.out)
    io.write_samples(args.out, samples)
    degraded = [i for i, s in enumerate(samples) if s.degraded]
    io.write_manifest(_manifest_path(args.out), "extract",
                      {"frames": args.frames}, outputs,
                      {"n_samples": len(samples),
                       "linear_fallback_rows": degraded},
                      args.t_begin)
    outputs.append(_manifest_path(args.out))
    return 0


def cmd_fit(args, outputs):
    samples = []
    for p in args.samples:
        samples.extend(io.read_samples(p))
    tables = GeomTables.load(args.tables)
    try:
        fit = fit_coefficients(samples, tables)
    except ValueError as exc:
        raise StageError("fit", str(exc)) from exc
    outputs.append(args.out)
    io.write_coeffs(args.out, fit.coeffs, tables.container_id,
                    material=args.material, rmse=fit.rmse,
                    n_samples=fit.n_samples)
    io.write_manifest(_manifest_path(args.out), "fit",
                      {f"samples{i}": p for i, p in enumerate(args.samples)},
                      outputs,
                      {"tables": args.tables, "rmse": fit.rmse,
                       "n_samples": fit.n_samples},
                      args.t_begin)
    outputs.append(_manifest_path(args.out))
    return 0


def _thetas_from_csv(path, robot_path=None):
    """Leaning angles and times from a trajectory or motion CSV."""
    with open(path) as f:
        header = f.readline().strip().split(",")
    if "theta_rad" in header:
        if "q0_rad" in header:
            data = io.read_trajectory(path)
            return data["t"], data["theta"]
        motion = io.read_motion(path)
        return motion.t, motion.theta
    if robot_path is None:
        raise StageError("predict",
                         "CSV has no theta column; provide --robot to compute "
                         "leaning angles from joint columns")
    data = io.read_trajectory(path)
    chain = io.read_robot(robot_path)
    thetas = []
    for q in data["Q"]:
        fk = rb.forward_kinematics(chain, q)
        thetas.append(rb.lean_azimuth(fk.container).theta)
    return data["t"], np.array(thetas)


def cmd_predict(args, outputs):
    t, thetas = _thetas_from_csv(args.trajectory, args.robot)
    if len(t) < 2:
        raise StageError("predict", "need at least two trajectory samples")
    if np.any(np.diff(t) <= 0):
        raise StageError("predict",
                         "trajectory times must be strictly increasing")
    coeffs, cdoc = io.read_coeffs(args.coeffs)
    tables = GeomTables.load(args.tables)
    if cdoc.get("container_id") not in (None, tables.container_id):
        raise StageError("predict",
                         f"container mismatch: coefficients for "
                         f"{cdoc.get('container_id')}, tables for "
                         f"{tables.container_id}")
    dt = float(t[1] - t[0])
    traj = rollout(FluidState(vol=args.vol0), thetas, dt, tables, coeffs)
    outputs.append(args.out)
    io.write_columns(args.out, io.PREDICTION_HEADER,
                     [t, thetas, traj.vol, traj.v_out])
    io.write_manifest(_manifest_path(args.out), "predict",
                      {"trajectory": args.trajectory, "coeffs": args.coeffs,
                       "tables": args.tables},
                      outputs, {"vol0_m3": args.vol0,
                                "clamp_events": traj.clamp_events},
                      args.t_begin)
    outputs.append(_manifest_path(args.out))
    return 0


def cmd_plan(args, outputs):
    problem = io.read_problem(args.problem)
    settings_path = args.settings or os.environ.get(ENV_SETTINGS)
    settings = io.read_settings(settings_path) if settings_path \
        else SolverSettings()
    traj, fluid, report = pl.plan(problem, settings)
    kin = pl.kinematics_along(problem.chain, traj.Q)
    landings = pl.landing_along(problem, kin, fluid).point
    outputs.append(args.out)
    io.write_trajectory(args.out, traj, fluid, kin, landings)
    report_path = args.report or (os.path.splitext(args.out)[0] + ".report.json")
    outputs.append(report_path)
    with open(report_path, "w") as f:
        json.dump(report.to_dict(), f, indent=2)
        f.write("\n")
    io.write_manifest(_manifest_path(args.out), "plan",
                      {"problem": args.problem,
                       "settings": settings_path or ""},
                      outputs, report.to_dict(), args.t_begin)
    outputs.append(_manifest_path(args.out))
    if not report.converged:
        print("warning: planner did not converge; best iterate written",
              file=sys.stderr)
    return 0


def cmd_validate(args, outputs):
    problem = io.read_problem(args.problem)
    data = io.read_trajectory(args.trajectory)
    coeffs_doc_path = None
    # container consistency: tables id must match the coefficient file
    with open(args.problem) as f:
        pdoc = json.load(f)
    base = os.path.dirname(os.path.abspath(args.problem))
    cpath = pdoc["coefficients"]
    cpath = cpath if os.path.isabs(cpath) else os.path.join(base, cpath)
    _, cdoc = io.read_coeffs(cpath)
    if cdoc.get("container_id") != problem.tables.container_id:
        raise StageError("validate",
                         f"container mismatch: coefficients for "
                         f"{cdoc.get('container_id')!r}, tables for "
                         f"{problem.tables.container_id!r}")

    # project the planned container poses onto the vertical pour plane
    from . import presets
    phis = data["phi"]
    planar = np.abs(np.sin(phis)) * np.abs(np.sin(data["theta"]))
    if np.max(planar) > 0.25:
        raise StageError("validate",
                         "trajectory leaves the x-z pour plane; the 2D "
                         "oracle cannot validate it")
    chain = problem.chain
    xs, ys, ths = [], [], []
    for i, q in enumerate(data["Q"]):
        fk = rb.forward_kinematics(chain, q)
        pos = fk.container[:3, 3]
        th = data["theta"][i]
        sign = 1.0 if abs(phis[i]) <= 0.5 * math.pi else -1.0
        xs.append(pos[0])
        ys.append(pos[2])
        ths.append(sign * th)
    motion = MotionSchedule(t=data["t"], x=xs, y=ys, theta=ths)
    motion = motion.extended(args.settle)

    profile = io.read_profile(args.profile)
    scene = presets.validation_scene(problem.world)
    seed = args.seed if args.seed is not None else int(os.environ.get(ENV_SEED, 0))
    cfg = presets.validation_sim_config(seed)
    vol0 = problem.fluid0.vol
    from .geometry import container_capacity
    fill = vol0 / container_capacity(profile)
    result = oc.simulate_pour(profile, motion, cfg, scene=scene,
                              fill_fraction=fill)
    q = oc.quality(result)

    outputs.append(args.out)
    counts = np.array([[(ps.stage == s).sum() for s in (0, 1, 2)]
                       for ps in result.frames])
    io.write_columns(args.out, io.CATCH_HEADER,
                     [result.times, *counts.T,
                      counts[:, 2] / result.n_particles])
    io.write_manifest(_manifest_path(args.out), "validate",
                      {"problem": args.problem, "trajectory": args.trajectory,
                       "profile": args.profile},
                      outputs,
                      {"quality": q, "settle_s": args.settle, "seed": seed,
                       "n_particles": result.n_particles},
                      args.t_begin, extra={"quality": q})
    outputs.append(_manifest_path(args.out))
    print(f"quality {q:.4f}")
    return 0


def cmd_report(args, outputs):
    tables = GeomTables.load(args.tables)
    coeffs, _ = io.read_coeffs(args.coeffs)
    if args.frames:
        result = io.read_frames(args.frames)
        series = oc.measured_series(result)
        th, dh = series["theta"], series["dh"]
        outputs.append(args.out)
        io.write_columns(args.out, io.MEASURED_TRACE_HEADER,
                         [series["t"], series["v_out"], _bernoulli(dh), th, dh,
                          outflow_speed(coeffs, th, series["vol"], tables)])
        mode = "measured"
        inputs = {"frames": args.frames}
    elif args.motion:
        motion = io.read_motion(args.motion)
        n = max(int(round(motion.duration / args.dt)) + 1, 2)
        t = np.linspace(0.0, motion.duration, n)
        thetas = np.interp(t, motion.t, motion.theta)
        traj = rollout(FluidState(vol=args.vol0), thetas, float(t[1] - t[0]),
                       tables, coeffs)
        dh = tables.interp_many(thetas, traj.vol)["dh"]
        outputs.append(args.out)
        io.write_columns(args.out, io.ROLLOUT_TRACE_HEADER,
                         [t, traj.v_out, _bernoulli(dh), thetas, dh, traj.vol])
        mode = "rollout"
        inputs = {"motion": args.motion}
    else:
        raise StageError("report", "need --frames or --motion")
    io.write_manifest(_manifest_path(args.out), "report",
                      {**inputs, "tables": args.tables, "coeffs": args.coeffs},
                      outputs, {"mode": mode}, args.t_begin)
    outputs.append(_manifest_path(args.out))
    return 0


def _bernoulli(dh) -> np.ndarray:
    """Head-driven speed per sample, with negative heads read as zero."""
    return np.array([bernoulli_speed(max(float(d), 0.0)) for d in dh])


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pourplan",
        description="Plan and validate robot-arm pouring trajectories")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tables", help="precompute container spill tables")
    t.add_argument("--profile", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--theta-step-deg", type=float, default=1.0)
    t.add_argument("--theta-max-deg", type=float, default=180.0)
    t.add_argument("--grid-cell", type=float, default=1e-3)
    t.set_defaults(func=cmd_tables)

    s = sub.add_parser("simulate", help="run one 2D oracle pour")
    s.add_argument("--profile", required=True)
    s.add_argument("--motion", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--fill-fraction", type=float, default=0.5)
    s.add_argument("--grid", type=int, default=96)
    s.add_argument("--extent", type=float, default=0.32)
    s.add_argument("--dt", type=float, default=2e-3)
    s.add_argument("--frame-dt", type=float, default=0.05)
    s.add_argument("--viscosity", type=float, default=0.01)
    s.add_argument("--particles-per-cell", type=int, default=6)
    s.add_argument("--seed", type=int, default=None)
    s.set_defaults(func=cmd_simulate)

    e = sub.add_parser("extract", help="training tuples from frame dumps")
    e.add_argument("--frames", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_extract)

    f = sub.add_parser("fit", help="identify outflow-speed coefficients")
    f.add_argument("--samples", nargs="+", required=True)
    f.add_argument("--tables", required=True)
    f.add_argument("--out", required=True)
    f.add_argument("--material", default="water")
    f.set_defaults(func=cmd_fit)

    pr = sub.add_parser("predict", help="roll the reduced model along a trajectory")
    pr.add_argument("--trajectory", required=True,
                    help="trajectory or motion CSV (theta column or q columns)")
    pr.add_argument("--coeffs", required=True)
    pr.add_argument("--tables", required=True)
    pr.add_argument("--vol0", type=float, required=True)
    pr.add_argument("--robot", default=None)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_predict)

    pl_ = sub.add_parser("plan", help="optimize a pouring trajectory")
    pl_.add_argument("--problem", required=True)
    pl_.add_argument("--settings", default=None)
    pl_.add_argument("--out", required=True)
    pl_.add_argument("--report", default=None)
    pl_.set_defaults(func=cmd_plan)

    v = sub.add_parser("validate", help="oracle-simulate a planned trajectory")
    v.add_argument("--problem", required=True)
    v.add_argument("--trajectory", required=True)
    v.add_argument("--profile", required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--settle", type=float, default=2.0)
    v.add_argument("--seed", type=int, default=None)
    v.set_defaults(func=cmd_validate)

    r = sub.add_parser("report", help="plot-ready traces of model variables")
    r.add_argument("--tables", required=True)
    r.add_argument("--coeffs", required=True)
    r.add_argument("--frames", default=None)
    r.add_argument("--motion", default=None)
    r.add_argument("--vol0", type=float, default=1e-4)
    r.add_argument("--dt", type=float, default=0.05)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.t_begin = time.perf_counter()
    outputs: list = []
    try:
        return args.func(args, outputs)
    except StageError as exc:
        _cleanup(outputs)
        print(json.dumps({"stage": exc.stage, "error": str(exc)}),
              file=sys.stderr)
        return 1
    except Exception as exc:  # computation failure: clean partial outputs
        _cleanup(outputs)
        print(json.dumps({"stage": args.command, "error": str(exc),
                          "type": type(exc).__name__}), file=sys.stderr)
        return 1


def _cleanup(outputs):
    for p in outputs:
        try:
            if os.path.exists(p):
                os.remove(p)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
