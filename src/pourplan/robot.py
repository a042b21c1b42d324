"""Serial-chain kinematics: forward pass, lean/azimuth extraction, Jacobians.

A chain is an ordered list of revolute/prismatic joints, each with a fixed
parent offset transform, a motion axis in its own frame, position limits and
a velocity limit.  The carried container hangs off the last link through a
fixed grasp transform; its symmetry axis is the container-frame z-axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fluid import LeanAzimuth


def transform(translation=(0.0, 0.0, 0.0), rpy=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Homogeneous transform from a translation and roll-pitch-yaw angles."""
    r, p, y = rpy
    cr, sr = math.cos(r), math.sin(r)
    cp, sp = math.cos(p), math.sin(p)
    cy, sy = math.cos(y), math.sin(y)
    R = np.array([
        [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
        [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
        [-sp, cp * sr, cp * cr],
    ])
    T = np.eye(4)
    T[:3, :3] = R
    T[:3, 3] = translation
    return T


def _axis_rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    x, y, z = axis
    c, s = math.cos(angle), math.sin(angle)
    C = 1.0 - c
    return np.array([
        [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
        [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
        [z * x * C - y * s, z * y * C + x * s, c + z * z * C],
    ])


@dataclass(frozen=True)
class Joint:
    kind: str                 # "revolute" | "prismatic"
    axis: tuple
    origin: np.ndarray        # parent offset (4, 4)
    lower: float
    upper: float
    v_max: float
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("revolute", "prismatic"):
            raise ValueError(f"unknown joint kind {self.kind!r}")
        if not self.lower < self.upper:
            raise ValueError("joint limits must be a proper interval")
        if self.v_max <= 0:
            raise ValueError("velocity limit must be positive")

    def motion(self, q: float) -> np.ndarray:
        T = np.eye(4)
        axis = np.asarray(self.axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        if self.kind == "revolute":
            T[:3, :3] = _axis_rotation(axis, q)
        else:
            T[:3, 3] = axis * q
        return T


@dataclass(frozen=True)
class LinkGeom:
    """Collision shape rigidly attached to a link frame (or the container)."""

    link: int | str           # link index, or "container"
    shape: object
    local_pose: np.ndarray
    name: str = ""


@dataclass
class KinematicChain:
    joints: list
    grasp: np.ndarray = field(default_factory=lambda: np.eye(4))
    link_geoms: list = field(default_factory=list)
    base: np.ndarray = field(default_factory=lambda: np.eye(4))
    name: str = "arm"

    @property
    def dof(self) -> int:
        return len(self.joints)

    @property
    def lower(self) -> np.ndarray:
        return np.array([j.lower for j in self.joints])

    @property
    def upper(self) -> np.ndarray:
        return np.array([j.upper for j in self.joints])

    @property
    def v_max(self) -> np.ndarray:
        return np.array([j.v_max for j in self.joints])

    def clip(self, q: np.ndarray) -> np.ndarray:
        return np.clip(q, self.lower, self.upper)


@dataclass
class FKResult:
    link_poses: list          # world transform after each joint
    ee: np.ndarray            # last link frame
    container: np.ndarray     # ee @ grasp
    joint_origins: np.ndarray  # (n, 3) world joint positions
    joint_axes: np.ndarray     # (n, 3) world motion axes


@dataclass
class RobotTrajectory:
    """Joint trajectory sampled at N uniform times over duration tau."""

    Q: np.ndarray             # (N, dof)
    tau: float

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        if self.Q.ndim != 2 or len(self.Q) < 3:
            raise ValueError("need at least 3 trajectory samples")
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    @property
    def n(self) -> int:
        return len(self.Q)

    @property
    def dt(self) -> float:
        return self.tau / (self.n - 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.tau, self.n)


def forward_kinematics(chain: KinematicChain, q) -> FKResult:
    q = np.asarray(q, dtype=float)
    if q.shape != (chain.dof,):
        raise ValueError(f"expected {chain.dof} joint values, got {q.shape}")
    T = chain.base.copy()
    poses = []
    origins = np.zeros((chain.dof, 3))
    axes = np.zeros((chain.dof, 3))
    for i, joint in enumerate(chain.joints):
        T = T @ joint.origin
        axis = np.asarray(joint.axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        origins[i] = T[:3, 3]
        axes[i] = T[:3, :3] @ axis
        T = T @ joint.motion(q[i])
        poses.append(T.copy())
    ee = poses[-1]
    return FKResult(link_poses=poses, ee=ee, container=ee @ chain.grasp,
                    joint_origins=origins, joint_axes=axes)


def geom_world_poses(chain: KinematicChain, fk: FKResult):
    """World poses of all attached collision shapes at one configuration."""
    out = []
    for g in chain.link_geoms:
        parent = fk.container if g.link == "container" else fk.link_poses[g.link]
        out.append((g.name or f"geom{g.link}", g.shape, parent @ g.local_pose))
    return out


def lean_azimuth(pose: np.ndarray) -> LeanAzimuth:
    """Leaning angle of the container axis from world up, and tilt azimuth.

    phi is zero by convention when the axis is vertical (the azimuth is
    undefined there).
    """
    a = np.asarray(pose, dtype=float)[:3, 2]
    a = a / np.linalg.norm(a)
    h = math.hypot(a[0], a[1])
    theta = math.atan2(h, a[2])
    phi = math.atan2(a[1], a[0]) if h > 1e-12 else 0.0
    return LeanAzimuth(theta=theta, phi=phi)


def point_jacobian(chain: KinematicChain, fk: FKResult, link: int | str,
                   world_point) -> np.ndarray:
    """Position Jacobian (3, dof) of a world point rigidly tied to a link."""
    p = np.asarray(world_point, dtype=float)
    last = chain.dof - 1 if link == "container" else link
    J = np.zeros((3, chain.dof))
    for i in range(last + 1):
        if chain.joints[i].kind == "revolute":
            J[:, i] = np.cross(fk.joint_axes[i], p - fk.joint_origins[i])
        else:
            J[:, i] = fk.joint_axes[i]
    return J


@dataclass
class Jacobians:
    J_pos: np.ndarray          # (3, dof) container-origin position Jacobian
    J_ee: np.ndarray           # (6, dof) spatial Jacobian at the end effector
    dtheta_dq: np.ndarray      # (dof,)
    dphi_dq: np.ndarray        # (dof,)
    degenerate: bool           # vertical axis: phi (and theta) rate undefined


def jacobians(chain: KinematicChain, fk: FKResult) -> Jacobians:
    """Geometric Jacobians plus lean-angle and azimuth rates at the
    configuration whose forward kinematics is ``fk``.

    At theta = 0 the azimuth is undefined; both angle rates are reported as
    zero with the degenerate flag set.
    """
    p_ee = fk.ee[:3, 3]
    J_ee = np.zeros((6, chain.dof))
    for i, joint in enumerate(chain.joints):
        if joint.kind == "revolute":
            J_ee[:3, i] = np.cross(fk.joint_axes[i], p_ee - fk.joint_origins[i])
            J_ee[3:, i] = fk.joint_axes[i]
        else:
            J_ee[:3, i] = fk.joint_axes[i]

    a = fk.container[:3, 2]
    a = a / np.linalg.norm(a)
    h2 = a[0] * a[0] + a[1] * a[1]
    h = math.sqrt(h2)
    dtheta = np.zeros(chain.dof)
    dphi = np.zeros(chain.dof)
    degenerate = h < 1e-9
    for i, joint in enumerate(chain.joints):
        if joint.kind != "revolute":
            continue
        da = np.cross(fk.joint_axes[i], a)
        if not degenerate:
            dh = (a[0] * da[0] + a[1] * da[1]) / h
            dtheta[i] = (a[2] * dh - h * da[2]) / (h2 + a[2] * a[2])
            dphi[i] = (a[0] * da[1] - a[1] * da[0]) / h2
    J_pos = point_jacobian(chain, fk, "container", fk.container[:3, 3])
    return Jacobians(J_pos=J_pos, J_ee=J_ee, dtheta_dq=dtheta, dphi_dq=dphi,
                     degenerate=degenerate)


def solve_reach(chain: KinematicChain, target_pos, theta_target: float,
                phi_target: float, q0, iters: int = 200,
                pos_tol: float = 1e-5) -> np.ndarray:
    """Damped least-squares reach: container origin position plus tilt.

    Utility for constructing start/pre-pour configurations; not a general
    inverse-kinematics solver.
    """
    q = np.asarray(q0, dtype=float).copy()
    target_pos = np.asarray(target_pos, dtype=float)
    a_target = np.array([
        math.sin(theta_target) * math.cos(phi_target),
        math.sin(theta_target) * math.sin(phi_target),
        math.cos(theta_target),
    ])
    for _ in range(iters):
        fk = forward_kinematics(chain, q)
        jac = jacobians(chain, fk)
        a = fk.container[:3, 2]
        err_pos = target_pos - fk.container[:3, 3]
        err_axis = a_target - a
        J_axis = np.zeros((3, chain.dof))
        for i, joint in enumerate(chain.joints):
            if joint.kind == "revolute":
                J_axis[:, i] = np.cross(fk.joint_axes[i], a)
        J = np.vstack([jac.J_pos, 0.2 * J_axis])
        err = np.concatenate([err_pos, 0.2 * err_axis])
        if np.linalg.norm(err_pos) < pos_tol and np.linalg.norm(err_axis) < 1e-4:
            break
        dq = np.linalg.solve(J @ J.T + 1e-6 * np.eye(6), err)
        q = chain.clip(q + J.T @ dq)
    return q
