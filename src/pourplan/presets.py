"""Canonical containers, robot, scenes and benchmark problems.

Everything here is plain construction code shared by tests, experiment
scripts and the example config generator; physical sizes are desk scale.
"""

from __future__ import annotations

import math

import numpy as np

from . import collision as coll
from . import robot as rb
from .fluid import FluidState, OutflowCoeffs
from .geometry import ContainerProfile, GeomTables, load_profile
from .oracle import MotionSchedule, SimConfig, SimScene
from .planner import PlanningProblem, WorldModel


def cylinder_profile(radius: float = 0.03, height: float = 0.10,
                     name: str = "cylinder-cup") -> ContainerProfile:
    r, h = radius, height
    return load_profile({
        "name": name,
        "units": "m",
        "vertices": [[-r, 0.0], [r, 0.0], [r, h], [-r, h], [-r, 0.0]],
        "lip_index": 2,
    })


def oval_profile(belly_radius: float = 0.040, height: float = 0.10,
                 lip_radius: float = 0.020, n_arc: int = 24,
                 name: str = "oval-cup") -> ContainerProfile:
    """Egg-shaped cross-section: wide belly narrowing to the opening chord."""
    b = height / 2.0
    zc = b
    t_open = math.asin(min(lip_radius / belly_radius, 1.0))
    ts = np.linspace(t_open, math.pi, n_arc)
    xs = belly_radius * np.sin(ts)
    zs = zc + b * np.cos(ts)
    right = np.stack([xs, zs], axis=1)
    left = right[::-1] * np.array([-1.0, 1.0])
    verts = [right[i] for i in range(len(right))]
    for v in left:
        if abs(v[0] - verts[-1][0]) > 1e-12 or abs(v[1] - verts[-1][1]) > 1e-12:
            verts.append(v)
    verts.append(right[0])
    return load_profile({
        "name": name,
        "units": "m",
        "vertices": [list(map(float, v)) for v in verts],
        "lip_index": 0,
    })


def wide_beaker_profile(radius: float = 0.05, height: float = 0.12,
                        name: str = "catch-beaker") -> ContainerProfile:
    return cylinder_profile(radius, height, name=name)


def reference_coeffs(kind: str = "cylinder") -> OutflowCoeffs:
    """Physically motivated fixed coefficients for model-shape studies.

    The head term dominates for belly-shaped cups; straight cups lean on the
    wall-slide term once tipped past horizontal.
    """
    if kind == "cylinder":
        return OutflowCoeffs(a=0.3, d=2.0)
    if kind == "oval":
        return OutflowCoeffs(a=1.0, d=0.3)
    raise ValueError(f"unknown coefficient preset {kind!r}")


def default_arm() -> rb.KinematicChain:
    """Six-joint desk arm with capsule link geometry and a carried cup."""
    J, T = rb.Joint, rb.transform
    joints = [
        J("revolute", (0, 0, 1), T((0, 0, 0.08)), -2.9, 2.9, 2.0, "base_yaw"),
        J("revolute", (0, 1, 0), T((0, 0, 0.14)), -2.1, 2.1, 2.0, "shoulder"),
        J("revolute", (0, 1, 0), T((0.26, 0, 0)), -2.6, 2.6, 2.0, "elbow"),
        J("revolute", (0, 1, 0), T((0.26, 0, 0)), -2.6, 2.6, 2.5, "wrist_pitch"),
        J("revolute", (1, 0, 0), T((0.06, 0, 0)), -2.9, 2.9, 3.0, "wrist_roll"),
        J("revolute", (0, 1, 0), T((0.05, 0, 0)), -2.6, 2.6, 3.0, "flange"),
    ]
    link_geoms = [
        rb.LinkGeom(1, coll.Capsule((0.0, 0, 0), (0.26, 0, 0), 0.035),
                    rb.transform(), "upper_arm"),
        rb.LinkGeom(2, coll.Capsule((0.0, 0, 0), (0.26, 0, 0), 0.030),
                    rb.transform(), "forearm"),
        rb.LinkGeom(4, coll.Sphere(0.04), rb.transform(), "wrist"),
        rb.LinkGeom("container", coll.Capsule((0, 0, 0.01), (0, 0, 0.09), 0.036),
                    rb.transform(), "cup"),
    ]
    grasp = rb.transform((0.06, 0.0, -0.02))
    return rb.KinematicChain(joints=joints, grasp=grasp,
                             link_geoms=link_geoms, name="desk-arm-6dof")


def arm_adjacency() -> set:
    """Body pairs exempt from self-collision checks (adjacent or grasped)."""
    return {
        frozenset(("upper_arm", "forearm")),
        frozenset(("forearm", "wrist")),
        frozenset(("wrist", "cup")),
        frozenset(("forearm", "cup")),
    }


def _box_pose(center) -> np.ndarray:
    T = np.eye(4)
    T[:3, 3] = center
    return T


def block_world(x_block: float = 0.30, block_height: float = 0.26,
                x_target: float = 0.50) -> WorldModel:
    """Tall block between the arm and a catch beaker; pour plane is y = 0."""
    beaker_r, beaker_h = 0.05, 0.12
    o_t = np.array([x_target, 0.0, beaker_h + 0.005])
    obstacles = [
        ("floor", coll.Box((0.8, 0.8, 0.02)), _box_pose((0.3, 0.0, -0.02))),
        ("block", coll.Box((0.02, 0.07, block_height / 2.0)),
         _box_pose((x_block, 0.0, block_height / 2.0))),
        ("beaker", coll.Box((beaker_r + 0.006, beaker_r + 0.006, beaker_h / 2.0)),
         _box_pose((x_target, 0.0, beaker_h / 2.0))),
    ]
    target_region = np.array([
        [x_target - beaker_r, 0.005],
        [x_target + beaker_r, 0.005],
        [x_target + beaker_r, beaker_h],
        [x_target - beaker_r, beaker_h],
    ])
    return WorldModel(obstacles=obstacles, o_t=o_t, target_region=target_region)


# joint-space anchors for the block benchmark, found by a clearance-aware
# reach search over the default arm; start holds the cup nearly upright
# before the block, pre-pour holds it tilted over the beaker
BENCH_Q_START = np.array([0.0, -0.37, -2.22, 2.42, 0.0, 0.0])
BENCH_Q_PREPOUR = np.array([0.0, -0.479, 0.231, 2.081, 0.0, 0.0])


def block_benchmark(tables: GeomTables, coeffs: OutflowCoeffs,
                    fill_fraction: float = 0.5, n: int = 100,
                    tau: float = 8.0) -> PlanningProblem:
    """Pour across a tall block into a beaker, matching the 2D oracle scene."""
    chain = default_arm()
    world = block_world()
    vol0 = fill_fraction * tables.v_max
    theta_final = math.radians(105.0)

    return PlanningProblem(
        chain=chain,
        world=world,
        tables=tables,
        coeffs=coeffs,
        fluid0=FluidState(vol=vol0),
        n=n,
        tau=tau,
        theta_final=theta_final,
        penalty_mode="al",
        q_start=BENCH_Q_START.copy(),
        q_prepour=BENCH_Q_PREPOUR.copy(),
        weights=(1.0, 1.0, 0.1),
        collision_margin=0.005,
        adjacency=arm_adjacency(),
    )


# ---------------------------------------------------------------------------
# 2D oracle scenes
# ---------------------------------------------------------------------------

def training_sim_config(seed: int = 0) -> SimConfig:
    return SimConfig(nx=96, ny=96, domain=(0.0, 0.32, 0.0, 0.32), dt=2e-3,
                     frame_dt=0.05, viscosity=0.01, particles_per_cell=6,
                     seed=seed)


def training_motion(seed: int, hold_pos=(0.13, 0.16)) -> MotionSchedule:
    """Random monotone leaning ramp used for training/test pours."""
    rng = np.random.default_rng(seed)
    th_end = math.radians(rng.uniform(90.0, 150.0))
    ramp_t = rng.uniform(2.2, 3.5)
    mid_frac = rng.uniform(0.3, 0.7)
    th_mid = th_end * rng.uniform(0.35, 0.65)
    x, y = hold_pos
    return MotionSchedule(
        t=[0.0, 0.3, 0.3 + mid_frac * ramp_t, 0.3 + ramp_t, 0.8 + ramp_t],
        x=[x] * 5, y=[y] * 5,
        theta=[0.0, 0.0, th_mid, th_end, th_end])


def validation_scene(world: WorldModel,
                     beaker: ContainerProfile | None = None) -> SimScene:
    """2D cross-section of the benchmark world in the pour plane y = 0."""
    beaker = beaker or wide_beaker_profile()
    solids = []
    walls = []
    for name, shape, pose in world.obstacles:
        if name == "beaker":
            # replace the solid box by the beaker's open walls so liquid can
            # enter; its local origin sits at the world position of the box base
            bx = pose[0, 3]
            wall = beaker.wall_polyline() + np.array([bx, 0.0])
            walls.append((wall, 0.004))
            continue
        if not isinstance(shape, coll.Box):
            continue
        cx, cy, cz = pose[:3, 3]
        hx, hy, hz = shape.half_extents
        if abs(cy) > hy:   # out of the pour plane
            continue
        solids.append(np.array([
            [cx - hx, cz - hz], [cx + hx, cz - hz],
            [cx + hx, cz + hz], [cx - hx, cz + hz],
        ]))
    return SimScene(solid_polygons=solids, wall_polylines=walls,
                    target_region=world.target_region)


def validation_sim_config(seed: int = 0) -> SimConfig:
    return SimConfig(nx=128, ny=128, domain=(0.0, 0.64, 0.0, 0.64), dt=2e-3,
                     frame_dt=0.05, viscosity=0.01, particles_per_cell=6,
                     seed=seed)
