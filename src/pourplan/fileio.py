"""File formats: profiles, tables, coefficients, samples, motion, worlds,
robots, problems, trajectories, frame dumps and run manifests.

JSON for structured configs, CSV with unit-bearing headers for tabular
data, NPZ for binary grids and frame dumps.  All floats are written with
repr-exact formatting so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import time
from dataclasses import dataclass

import numpy as np
import scipy

from . import __version__
from . import collision as coll
from . import robot as rb
from .fluid import FluidState, OutflowCoeffs, TrainingSample
from .geometry import ContainerProfile, GeomTables, load_profile, profile_to_dict
from .oracle import MotionSchedule, ParticleSet, SimConfig, SimResult, SimScene
from .planner import PlanningProblem, SolverSettings, WorldModel

FMT = "%.17g"


def _fnum(x) -> str:
    return FMT % float(x)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def read_profile(path) -> ContainerProfile:
    with open(path) as f:
        return load_profile(json.load(f))


def write_profile(path, profile: ContainerProfile) -> None:
    with open(path, "w") as f:
        json.dump(profile_to_dict(profile), f, indent=2)
        f.write("\n")


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def write_coeffs(path, coeffs: OutflowCoeffs, container_id: str,
                 material: str = "water", rmse: float | None = None,
                 n_samples: int | None = None) -> None:
    doc = {
        "container_id": container_id,
        "material": material,
        "coefficients": {k: getattr(coeffs, k) for k in "abcdef"},
        "training_rmse_m_per_s": rmse,
        "n_samples": n_samples,
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def read_coeffs(path):
    with open(path) as f:
        doc = json.load(f)
    coeffs = OutflowCoeffs(**{k: float(doc["coefficients"][k]) for k in "abcdef"})
    return coeffs, doc


# ---------------------------------------------------------------------------
# training samples
# ---------------------------------------------------------------------------

SAMPLE_HEADER = ["v_out_next_m_per_s", "theta_next_rad", "vol_m3", "dh_m"]


def write_samples(path, samples) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(SAMPLE_HEADER)
        for s in samples:
            w.writerow([_fnum(s.v_out_next), _fnum(s.theta_next),
                        _fnum(s.vol), _fnum(s.dh)])


def read_samples(path) -> list:
    out = []
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r)
        if header[:4] != SAMPLE_HEADER:
            raise ValueError(f"unexpected sample CSV header {header}")
        for row in r:
            out.append(TrainingSample(v_out_next=float(row[0]),
                                      theta_next=float(row[1]),
                                      vol=float(row[2]), dh=float(row[3])))
    return out


# ---------------------------------------------------------------------------
# motion schedules
# ---------------------------------------------------------------------------

MOTION_HEADER = ["t_s", "x_m", "y_m", "theta_rad"]


def write_motion(path, motion: MotionSchedule) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(MOTION_HEADER)
        for i in range(len(motion.t)):
            w.writerow([_fnum(motion.t[i]), _fnum(motion.x[i]),
                        _fnum(motion.y[i]), _fnum(motion.theta[i])])


def read_motion(path) -> MotionSchedule:
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r)
        if header[:4] != MOTION_HEADER:
            raise ValueError(f"unexpected motion CSV header {header}")
        rows = np.array([[float(v) for v in row] for row in r])
    return MotionSchedule(t=rows[:, 0], x=rows[:, 1], y=rows[:, 2],
                          theta=rows[:, 3])


# ---------------------------------------------------------------------------
# frame dumps
# ---------------------------------------------------------------------------

def write_frames(path, result: SimResult) -> None:
    F = len(result.frames)
    n = result.n_particles
    pos = np.stack([f.positions for f in result.frames])
    vel = np.stack([f.velocities for f in result.frames])
    stage = np.stack([f.stage for f in result.frames])
    scene = result.scene
    np.savez_compressed(
        path,
        version=np.array(1),
        times=result.times,
        poses=result.poses,
        positions=pos,
        velocities=vel,
        stage=stage,
        vol0=np.array(result.vol0),
        profile_json=np.array(json.dumps(profile_to_dict(result.profile))),
        config_json=np.array(json.dumps(simconfig_to_dict(result.config))),
        motion_t=result.motion.t, motion_x=result.motion.x,
        motion_y=result.motion.y, motion_theta=result.motion.theta,
        target_region=(scene.target_region if scene.target_region is not None
                       else np.zeros((0, 2))),
    )


def read_frames(path) -> SimResult:
    with np.load(path, allow_pickle=False) as z:
        profile = load_profile(json.loads(str(z["profile_json"])))
        config = SimConfig(**json.loads(str(z["config_json"])))
        motion = MotionSchedule(t=z["motion_t"], x=z["motion_x"],
                                y=z["motion_y"], theta=z["motion_theta"])
        frames = [ParticleSet(z["positions"][i].copy(),
                              z["velocities"][i].copy(),
                              z["stage"][i].copy())
                  for i in range(len(z["times"]))]
        region = z["target_region"]
        scene = SimScene(target_region=region if len(region) else None)
        return SimResult(frames=frames, times=z["times"].copy(),
                         poses=z["poses"].copy(), config=config,
                         profile=profile, motion=motion,
                         vol0=float(z["vol0"]), scene=scene)


def simconfig_to_dict(cfg: SimConfig) -> dict:
    return {
        "nx": cfg.nx, "ny": cfg.ny, "domain": list(cfg.domain), "dt": cfg.dt,
        "frame_dt": cfg.frame_dt, "gravity": cfg.gravity,
        "viscosity": cfg.viscosity, "rho": cfg.rho,
        "flip_blend": cfg.flip_blend,
        "particles_per_cell": cfg.particles_per_cell,
        "wall_thickness": cfg.wall_thickness,
        "max_substeps": cfg.max_substeps, "seed": cfg.seed,
    }


# ---------------------------------------------------------------------------
# shapes / worlds / robots
# ---------------------------------------------------------------------------

def _shape_to_dict(shape) -> dict:
    if isinstance(shape, coll.Sphere):
        return {"type": "sphere", "radius": shape.radius}
    if isinstance(shape, coll.Capsule):
        return {"type": "capsule", "p0": list(shape.p0), "p1": list(shape.p1),
                "radius": shape.radius}
    if isinstance(shape, coll.Box):
        return {"type": "box", "half_extents": list(shape.half_extents)}
    raise ValueError(f"unknown shape {shape!r}")


def _shape_from_dict(d) -> object:
    t = d["type"]
    if t == "sphere":
        return coll.Sphere(float(d["radius"]))
    if t == "capsule":
        return coll.Capsule(tuple(d["p0"]), tuple(d["p1"]), float(d["radius"]))
    if t == "box":
        return coll.Box(tuple(d["half_extents"]))
    raise ValueError(f"unknown shape type {t!r}")


def write_world(path, world: WorldModel) -> None:
    doc = {
        "obstacles": [
            {"name": name, "shape": _shape_to_dict(shape),
             "pose": np.asarray(pose).tolist()}
            for name, shape, pose in world.obstacles
        ],
        "target_opening_center_m": world.o_t.tolist(),
        "target_region_polygon_m": (world.target_region.tolist()
                                    if world.target_region is not None else None),
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def read_world(path) -> WorldModel:
    with open(path) as f:
        doc = json.load(f)
    obstacles = [(o["name"], _shape_from_dict(o["shape"]),
                  np.array(o["pose"], dtype=float))
                 for o in doc["obstacles"]]
    region = doc.get("target_region_polygon_m")
    return WorldModel(obstacles=obstacles,
                      o_t=np.array(doc["target_opening_center_m"], dtype=float),
                      target_region=np.array(region) if region else None)


def write_robot(path, chain: rb.KinematicChain) -> None:
    doc = {
        "name": chain.name,
        "base": np.asarray(chain.base).tolist(),
        "grasp": np.asarray(chain.grasp).tolist(),
        "joints": [
            {"name": j.name, "kind": j.kind, "axis": list(j.axis),
             "origin": np.asarray(j.origin).tolist(),
             "lower": j.lower, "upper": j.upper, "v_max": j.v_max}
            for j in chain.joints
        ],
        "link_geoms": [
            {"link": g.link, "name": g.name, "shape": _shape_to_dict(g.shape),
             "local_pose": np.asarray(g.local_pose).tolist()}
            for g in chain.link_geoms
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def read_robot(path) -> rb.KinematicChain:
    with open(path) as f:
        doc = json.load(f)
    joints = [rb.Joint(kind=j["kind"], axis=tuple(j["axis"]),
                       origin=np.array(j["origin"], dtype=float),
                       lower=float(j["lower"]), upper=float(j["upper"]),
                       v_max=float(j["v_max"]), name=j.get("name", ""))
              for j in doc["joints"]]
    geoms = [rb.LinkGeom(link=g["link"], shape=_shape_from_dict(g["shape"]),
                         local_pose=np.array(g["local_pose"], dtype=float),
                         name=g.get("name", ""))
             for g in doc.get("link_geoms", [])]
    return rb.KinematicChain(joints=joints,
                             grasp=np.array(doc["grasp"], dtype=float),
                             link_geoms=geoms,
                             base=np.array(doc["base"], dtype=float),
                             name=doc.get("name", "arm"))


# ---------------------------------------------------------------------------
# planning problems / settings
# ---------------------------------------------------------------------------

def write_problem(path, problem: PlanningProblem, robot_path, world_path,
                  tables_path, coeffs_path) -> None:
    doc = {
        "robot": str(robot_path),
        "world": str(world_path),
        "tables": str(tables_path),
        "coefficients": str(coeffs_path),
        "initial_volume_m3": problem.fluid0.vol,
        "n": problem.n,
        "tau_s": problem.tau,
        "theta_final_rad": problem.theta_final,
        "penalty_mode": problem.penalty_mode,
        "q_start": problem.q_start.tolist(),
        "q_prepour": problem.q_prepour.tolist(),
        "weights": list(problem.weights),
        "collision_margin_m": problem.collision_margin,
        "adjacency": [sorted(p) for p in problem.adjacency],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def read_problem(path, coeffs=None) -> PlanningProblem:
    base = os.path.dirname(os.path.abspath(path))
    with open(path) as f:
        doc = json.load(f)

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    chain = read_robot(resolve(doc["robot"]))
    world = read_world(resolve(doc["world"]))
    tables = GeomTables.load(resolve(doc["tables"]))
    if coeffs is None:
        coeffs, _ = read_coeffs(resolve(doc["coefficients"]))
    return PlanningProblem(
        chain=chain, world=world, tables=tables, coeffs=coeffs,
        fluid0=FluidState(vol=float(doc["initial_volume_m3"])),
        n=int(doc["n"]), tau=float(doc["tau_s"]),
        theta_final=float(doc["theta_final_rad"]),
        penalty_mode=doc.get("penalty_mode", "al"),
        q_start=np.array(doc["q_start"], dtype=float),
        q_prepour=np.array(doc["q_prepour"], dtype=float),
        weights=tuple(doc.get("weights", (1.0, 1.0, 0.1))),
        collision_margin=float(doc.get("collision_margin_m", 0.005)),
        adjacency={frozenset(p) for p in doc.get("adjacency", [])},
    )


def read_settings(path) -> SolverSettings:
    with open(path) as f:
        return SolverSettings(**json.load(f))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def trajectory_header(dof: int) -> list:
    return (["t_s"] + [f"q{j}_rad" for j in range(dof)]
            + ["theta_rad", "phi_rad", "vol_m3", "v_out_m_per_s",
               "land_x_m", "land_y_m", "land_z_m"])


def write_trajectory(path, traj, fluid, kin, landings) -> None:
    dof = traj.Q.shape[1]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(trajectory_header(dof))
        times = traj.times
        for i in range(traj.n):
            row = [_fnum(times[i])]
            row += [_fnum(v) for v in traj.Q[i]]
            row += [_fnum(kin[i].theta), _fnum(kin[i].phi),
                    _fnum(fluid.vol[i]), _fnum(fluid.v_out[i])]
            row += [_fnum(v) for v in landings[i]]
            w.writerow(row)


def read_trajectory(path):
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r)
        rows = np.array([[float(v) for v in row] for row in r])
    dof = len([h for h in header if h.startswith("q")])
    t = rows[:, 0]
    Q = rows[:, 1:1 + dof]
    cols = {name: rows[:, i] for i, name in enumerate(header)}
    return {"t": t, "Q": Q, "theta": cols["theta_rad"], "phi": cols["phi_rad"],
            "vol": cols["vol_m3"], "v_out": cols["v_out_m_per_s"]}


# ---------------------------------------------------------------------------
# per-sample traces: predictions, catch counts, report traces
# ---------------------------------------------------------------------------

PREDICTION_HEADER = ["t_s", "theta_rad", "vol_m3", "v_out_m_per_s"]
CATCH_HEADER = ["t_s", "n_source", "n_free", "n_target", "frac_target"]
MEASURED_TRACE_HEADER = ["t_s", "v_out_meas_m_per_s", "bernoulli_m_per_s",
                         "theta_rad", "dh_meas_m", "g_model_m_per_s"]
ROLLOUT_TRACE_HEADER = ["t_s", "v_out_model_m_per_s", "bernoulli_m_per_s",
                        "theta_rad", "dh_table_m", "vol_m3"]


def write_columns(path, header, columns) -> None:
    """CSV of equal-length numeric columns; NaN is written as an empty cell."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow(["" if math.isnan(v) else _fnum(v) for v in row])


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------

def write_manifest(path, command: str, inputs: dict, outputs: list,
                   config_echo: dict, t_begin: float,
                   extra: dict | None = None) -> None:
    doc = {
        "command": command,
        "inputs": {str(p): sha256_file(p) for p in inputs.values()
                   if p and os.path.exists(str(p))},
        "outputs": [str(p) for p in outputs],
        "config": config_echo,
        "versions": {
            "pourplan": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "elapsed_s": time.perf_counter() - t_begin,
    }
    if extra:
        doc.update(extra)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True, default=str)
        f.write("\n")
