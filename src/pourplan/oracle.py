"""2D particle-grid incompressible fluid simulator (PIC/FLIP hybrid).

Desk-scale cross-section oracle used two ways: generating training tuples
for the reduced outflow model, and validating planned pours by the fraction
of particles that end up inside the target container.  The solver is a
low-order MAC-grid scheme: particle-to-grid transfer, gravity, explicit
viscosity, pressure projection with free-surface and moving-solid
boundaries, FLIP-blended grid-to-particle transfer, and RK2 advection.
Particle count is conserved exactly; escapees are clamped to the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .fluid import TrainingSample
from .geometry import ContainerProfile, fill_level, container_capacity, _points_in_polygon

AIR, FLUID, SOLID = 0, 1, 2

STAGE_SOURCE, STAGE_FREE, STAGE_TARGET = 0, 1, 2


@dataclass
class SimConfig:
    nx: int = 64
    ny: int = 64
    domain: tuple = (0.0, 0.45, 0.0, 0.45)   # x0, x1, y0, y1 (m)
    dt: float = 2e-3                          # integration step
    frame_dt: float = 0.05                    # output/classification rate
    gravity: float = 9.81
    viscosity: float = 0.01                   # dynamic viscosity tag (Pa s)
    rho: float = 1000.0                       # reference density (kg/m^3)
    flip_blend: float = 0.9
    particles_per_cell: int = 6
    wall_thickness: float = None              # defaults to 1.2 cells
    separation_strength: float = 0.6          # de-clustering step (cells)
    separation_deadband: float = 1.1          # occupancy ratio before acting
    max_substeps: int = 10
    seed: int = 0

    def __post_init__(self):
        hx = (self.domain[1] - self.domain[0]) / self.nx
        hy = (self.domain[3] - self.domain[2]) / self.ny
        if abs(hx - hy) > 1e-12:
            raise ValueError("domain must give square cells")
        if self.wall_thickness is None:
            self.wall_thickness = 1.2 * hx

    @property
    def h(self) -> float:
        return (self.domain[1] - self.domain[0]) / self.nx


@dataclass
class MotionSchedule:
    """Container pose samples (t, x, y, theta); linear interpolation between."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        if not np.all(np.diff(self.t) > 0):
            raise ValueError("motion times must be strictly increasing")

    @property
    def duration(self) -> float:
        return float(self.t[-1])

    def pose(self, time: float):
        return (float(np.interp(time, self.t, self.x)),
                float(np.interp(time, self.t, self.y)),
                float(np.interp(time, self.t, self.theta)))

    def velocity(self, time: float, eps: float = 1e-4):
        p0 = self.pose(max(self.t[0], time - eps))
        p1 = self.pose(min(self.t[-1], time + eps))
        span = min(self.t[-1], time + eps) - max(self.t[0], time - eps)
        if span <= 0:
            return (0.0, 0.0, 0.0)
        return tuple((b - a) / span for a, b in zip(p0, p1))

    def extended(self, hold: float) -> "MotionSchedule":
        """Append a settle window holding the final pose."""
        return MotionSchedule(
            t=np.concatenate([self.t, [self.t[-1] + hold]]),
            x=np.concatenate([self.x, self.x[-1:]]),
            y=np.concatenate([self.y, self.y[-1:]]),
            theta=np.concatenate([self.theta, self.theta[-1:]]),
        )


@dataclass
class SimScene:
    """Static 2D solids and the target region in the simulation plane."""

    solid_polygons: list = field(default_factory=list)      # filled regions
    wall_polylines: list = field(default_factory=list)      # (verts, thickness)
    target_region: np.ndarray | None = None


@dataclass
class ParticleSet:
    positions: np.ndarray
    velocities: np.ndarray
    stage: np.ndarray

    def copy(self) -> "ParticleSet":
        return ParticleSet(self.positions.copy(), self.velocities.copy(),
                           self.stage.copy())


@dataclass
class SimResult:
    frames: list               # list of ParticleSet
    times: np.ndarray
    poses: np.ndarray          # (F, 3) container pose per frame
    config: SimConfig
    profile: ContainerProfile
    motion: MotionSchedule
    vol0: float                # 3D revolved volume of the initial fill
    scene: SimScene
    projection_volume_drift: float = 0.0   # |integrated net flux| / area

    @property
    def n_particles(self) -> int:
        return len(self.frames[0].positions)


class CFLError(RuntimeError):
    pass


def _segment_distance_field(grid_x, grid_y, polyline):
    """Min distance from every grid node to an open polyline."""
    px = grid_x.ravel()
    py = grid_y.ravel()
    best = np.full(px.shape, np.inf)
    for k in range(len(polyline) - 1):
        a = polyline[k]
        b = polyline[k + 1]
        ab = b - a
        denom = float(ab @ ab)
        if denom < 1e-18:
            d2 = (px - a[0]) ** 2 + (py - a[1]) ** 2
        else:
            t = np.clip(((px - a[0]) * ab[0] + (py - a[1]) * ab[1]) / denom, 0.0, 1.0)
            d2 = (px - (a[0] + t * ab[0])) ** 2 + (py - (a[1] + t * ab[1])) ** 2
        best = np.minimum(best, d2)
    return np.sqrt(best).reshape(grid_x.shape)


def _transform2d(points, pose):
    # container tilts toward +x for positive theta: local (px, pz) maps to
    # world (px cos + pz sin, -px sin + pz cos) + translation
    x, y, th = pose
    c, s = math.cos(th), math.sin(th)
    return (np.stack([points[:, 0] * c + points[:, 1] * s,
                      -points[:, 0] * s + points[:, 1] * c], axis=1)
            + np.array([x, y]))


def _push_off_boundary(points, poly, depth):
    """Move points to at least ``depth`` inside the polygon boundary.

    Points outside the polygon are pulled in through the nearest boundary
    point; points already deeper than ``depth`` are untouched.
    """
    closed = np.vstack([poly, poly[:1]])
    out = points.copy()
    best_d2 = np.full(len(points), np.inf)
    best_q = np.zeros_like(points)
    for k in range(len(closed) - 1):
        a, b = closed[k], closed[k + 1]
        ab = b - a
        denom = float(ab @ ab)
        if denom < 1e-18:
            continue
        t = np.clip(((points[:, 0] - a[0]) * ab[0]
                     + (points[:, 1] - a[1]) * ab[1]) / denom, 0.0, 1.0)
        q = a[None, :] + t[:, None] * ab[None, :]
        d2 = ((points - q) ** 2).sum(axis=1)
        better = d2 < best_d2
        best_d2 = np.where(better, d2, best_d2)
        best_q[better] = q[better]
    inside = _points_in_polygon(points[:, 0], points[:, 1], poly)
    delta = points - best_q
    norms = np.linalg.norm(delta, axis=1)
    signed_depth = np.where(inside, norms, -norms)
    need = signed_depth < depth
    if np.any(need):
        # walk toward the interior centroid: for convex cross-sections this
        # gains depth even in corners where two walls meet
        centroid = poly.mean(axis=0)
        to_c = centroid[None, :] - points[need]
        dist_c = np.linalg.norm(to_c, axis=1)
        dirs = to_c / np.maximum(dist_c, 1e-12)[:, None]
        step_len = np.minimum(depth - signed_depth[need], dist_c)
        out[need] = points[need] + dirs * step_len[:, None]
    return out


def _segments_cross(p0, p1, a, b):
    """Whether each segment p0[i]->p1[i] crosses segment a->b (widened)."""
    # widen the gate slightly along its axis so corner exits at the lip count
    axis = b - a
    a = a - 0.1 * axis
    b = b + 0.1 * axis

    def orient(o, p, q):
        return ((p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1])
                - (p[..., 1] - o[..., 1]) * (q[..., 0] - o[..., 0]))

    d1 = orient(a[None, :], b[None, :], p0)
    d2 = orient(a[None, :], b[None, :], p1)
    d3 = orient(p0, p1, np.broadcast_to(a, p0.shape))
    d4 = orient(p0, p1, np.broadcast_to(b, p0.shape))
    return ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))


class _Grid:
    """Precomputed cell/face geometry for one configuration."""

    def __init__(self, config: SimConfig):
        self.cfg = config
        self.h = config.h
        x0, _, y0, _ = config.domain
        self.x0, self.y0 = x0, y0
        nx, ny = config.nx, config.ny
        self.cell_x = x0 + (np.arange(nx) + 0.5) * self.h
        self.cell_y = y0 + (np.arange(ny) + 0.5) * self.h
        self.cx, self.cy = np.meshgrid(self.cell_x, self.cell_y, indexing="ij")
        # face centers
        self.ux, self.uy = np.meshgrid(x0 + np.arange(nx + 1) * self.h,
                                       self.cell_y, indexing="ij")
        self.vx, self.vy = np.meshgrid(self.cell_x,
                                       y0 + np.arange(ny + 1) * self.h, indexing="ij")


def _static_solid_mask(grid: _Grid, scene: SimScene) -> np.ndarray:
    nx, ny = grid.cfg.nx, grid.cfg.ny
    mask = np.zeros((nx, ny), dtype=bool)
    # closed domain: one-cell border walls
    mask[0, :] = mask[-1, :] = True
    mask[:, 0] = mask[:, -1] = True
    for poly in scene.solid_polygons:
        inside = _points_in_polygon(grid.cx.ravel(), grid.cy.ravel(),
                                    np.asarray(poly, dtype=float))
        mask |= inside.reshape(nx, ny)
    for verts, thickness in scene.wall_polylines:
        d = _segment_distance_field(grid.cx, grid.cy, np.asarray(verts, dtype=float))
        mask |= d < thickness
    return mask


def _container_solid_mask(grid: _Grid, profile: ContainerProfile, pose,
                          thickness: float) -> np.ndarray:
    """Container wall cells, biased outward so the interior keeps its size.

    Cells near the wall polyline are solid unless their center sits clearly
    inside the interior polygon; that keeps the spill sill at the true lip
    height instead of one wall thickness above it.
    """
    wall = profile.wall_polyline()
    wall_w = _transform2d(wall, pose)
    d = _segment_distance_field(grid.cx, grid.cy, wall_w)
    near = d < max(thickness, 0.8 * grid.h)
    poly_w = _transform2d(profile.vertices, pose)
    inside = _points_in_polygon(grid.cx.ravel(), grid.cy.ravel(), poly_w)
    inside = inside.reshape(grid.cx.shape)
    # bias the wall outward: keep cells clearly inside the boundary free so
    # the spill sill stays near the true lip height (particle-level
    # leak-proofing is handled analytically, not by the raster)
    core = inside & (d > 0.35 * grid.h)
    return near & ~core


def _bilinear_scatter(px, py, values, x0, y0, h, shape):
    """Accumulate particle values onto a node grid with hat weights."""
    gx = (px - x0) / h
    gy = (py - y0) / h
    i0 = np.clip(np.floor(gx).astype(int), 0, shape[0] - 2)
    j0 = np.clip(np.floor(gy).astype(int), 0, shape[1] - 2)
    fx = np.clip(gx - i0, 0.0, 1.0)
    fy = np.clip(gy - j0, 0.0, 1.0)
    acc = np.zeros(shape)
    wsum = np.zeros(shape)
    for di, dj, w in ((0, 0, (1 - fx) * (1 - fy)), (1, 0, fx * (1 - fy)),
                      (0, 1, (1 - fx) * fy), (1, 1, fx * fy)):
        np.add.at(acc, (i0 + di, j0 + dj), w * values)
        np.add.at(wsum, (i0 + di, j0 + dj), w)
    return acc, wsum


def _bilinear_gather(field_, px, py, x0, y0, h):
    shape = field_.shape
    gx = np.clip((px - x0) / h, 0.0, shape[0] - 1 - 1e-9)
    gy = np.clip((py - y0) / h, 0.0, shape[1] - 1 - 1e-9)
    i0 = np.floor(gx).astype(int)
    j0 = np.floor(gy).astype(int)
    fx = gx - i0
    fy = gy - j0
    return (field_[i0, j0] * (1 - fx) * (1 - fy)
            + field_[i0 + 1, j0] * fx * (1 - fy)
            + field_[i0, j0 + 1] * (1 - fx) * fy
            + field_[i0 + 1, j0 + 1] * fx * fy)


def _extrapolate(field_, valid, sweeps: int = 3):
    """Fill invalid faces with the mean of valid neighbors, a few rings out."""
    f = field_.copy()
    ok = valid.copy()
    for _ in range(sweeps):
        if ok.all():
            break
        acc = np.zeros_like(f)
        cnt = np.zeros_like(f)
        for axis, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
            shifted = np.roll(f, shift, axis=axis)
            shifted_ok = np.roll(ok, shift, axis=axis)
            if axis == 0:
                edge = 0 if shift == 1 else -1
                shifted_ok[edge, :] = False
            else:
                edge = 0 if shift == 1 else -1
                shifted_ok[:, edge] = False
            acc += np.where(shifted_ok, shifted, 0.0)
            cnt += shifted_ok
        newly = (~ok) & (cnt > 0)
        f[newly] = acc[newly] / cnt[newly]
        ok |= newly
    return f


def _project_clean(u, v, cell_type, h, div_target=None):
    """Pressure projection: drive the divergence to a target on fluid cells.

    Standard 5-point MAC scheme: air cells hold zero potential, faces into
    solids keep the solid velocity imposed before the solve.  A nonzero
    ``div_target`` lets clustered cells expand (density correction).
    """
    nx, ny = cell_type.shape
    fluid = cell_type == FLUID
    if not fluid.any():
        return u, v
    idx = -np.ones((nx, ny), dtype=int)
    fl = np.argwhere(fluid)
    idx[fluid] = np.arange(len(fl))
    i, j = fl[:, 0], fl[:, 1]

    div = (u[1:, :] - u[:-1, :] + v[:, 1:] - v[:, :-1]) / h
    if div_target is not None:
        div = div - div_target

    deg = np.zeros(len(fl))
    off_rows, off_cols, off_vals = [], [], []
    for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        ni, nj = i + di, j + dj
        t = cell_type[ni, nj]
        deg += (t != SOLID)
        isfl = t == FLUID
        off_rows.append(np.arange(len(fl))[isfl])
        off_cols.append(idx[ni[isfl], nj[isfl]])
        off_vals.append(-np.ones(int(isfl.sum())))
    rows = np.concatenate([np.arange(len(fl))] + off_rows)
    cols = np.concatenate([np.arange(len(fl))] + off_cols)
    # the tiny diagonal shift keeps fully enclosed pockets (pure Neumann
    # blocks) nonsingular
    vals = np.concatenate([np.maximum(deg, 1.0) + 1e-9] + off_vals)
    A = sparse.csr_matrix((vals, (rows, cols)), shape=(len(fl), len(fl)))
    q = spsolve(A, -div[i, j] * h)

    qgrid = np.zeros((nx, ny))
    qgrid[fluid] = q

    not_solid = cell_type != SOLID
    # x faces between interior cell pairs
    open_x = not_solid[:-1, :] & not_solid[1:, :] & (fluid[:-1, :] | fluid[1:, :])
    dq_x = qgrid[1:, :] - qgrid[:-1, :]
    u[1:-1, :] = np.where(open_x, u[1:-1, :] - dq_x, u[1:-1, :])
    open_y = not_solid[:, :-1] & not_solid[:, 1:] & (fluid[:, :-1] | fluid[:, 1:])
    dq_y = qgrid[:, 1:] - qgrid[:, :-1]
    v[:, 1:-1] = np.where(open_y, v[:, 1:-1] - dq_y, v[:, 1:-1])
    return u, v


def simulate_pour(profile: ContainerProfile, motion: MotionSchedule,
                  config: SimConfig, scene: SimScene | None = None,
                  fill_fraction: float = 0.5) -> SimResult:
    """Run one pour and record particle frames at the configured rate.

    The source container follows the motion schedule as a moving no-slip
    solid; static scene solids and the domain border close the world.  The
    initial fill is quiescent liquid filling the given fraction of the
    container's revolved volume.  Substeps split automatically when a step
    would move a particle more than one cell (CFL rule); if the cap is hit
    the run aborts.
    """
    if not 0.0 < fill_fraction <= 1.0:
        raise ValueError("fill_fraction must lie in (0, 1]")
    scene = scene or SimScene()
    grid = _Grid(config)
    h = config.h
    nx, ny = config.nx, config.ny
    rng = np.random.default_rng(config.seed)

    static_solid = _static_solid_mask(grid, scene)

    # ---- seed particles in the (possibly tilted) container ----
    x0_pose = motion.pose(0.0)
    theta0 = x0_pose[2]
    capacity = container_capacity(profile)
    vol0 = fill_fraction * capacity
    level0 = fill_level(profile, vol0, theta=theta0)
    poly0 = _transform2d(profile.vertices, x0_pose)
    cont_solid0 = _container_solid_mask(grid, profile, x0_pose,
                                        config.wall_thickness)
    inside0 = _points_in_polygon(grid.cx.ravel(), grid.cy.ravel(), poly0)
    inside0 = inside0.reshape(nx, ny) & ~static_solid & ~cont_solid0
    below = grid.cy < (x0_pose[1] + level0 - 0.35 * h)
    seed_cells = np.argwhere(inside0 & below)
    if len(seed_cells) == 0:
        raise ValueError("no seedable cells: container fill too small for the grid")
    ppc = config.particles_per_cell
    base = np.repeat(seed_cells, ppc, axis=0).astype(float)
    jitter = rng.uniform(0.08, 0.92, size=(len(base), 2))
    pos = np.stack([grid.x0 + (base[:, 0] + jitter[:, 0]) * h,
                    grid.y0 + (base[:, 1] + jitter[:, 1]) * h], axis=1)
    # seeds in boundary cells can stick out of the exact interior; pull them
    # in so the analytic containment covers every particle from frame zero
    pos = _push_off_boundary(pos, poly0, 0.2 * h)
    vel = np.zeros_like(pos)
    n_particles = len(pos)

    duration = motion.duration
    n_frames = int(round(duration / config.frame_dt)) + 1
    frames, times, poses = [], [], []
    lip_i = profile.lip_index
    mirror_i = profile.mirror_lip_index()
    opening_local = np.array([profile.vertices[lip_i],
                              profile.vertices[mirror_i]])

    def classify(p):
        pose_now = motion.pose(t_now)
        poly = _transform2d(profile.vertices, pose_now)
        stage = np.full(len(p), STAGE_FREE, dtype=np.int8)
        src = _points_in_polygon(p[:, 0], p[:, 1], poly)
        stage[src] = STAGE_SOURCE
        if scene.target_region is not None:
            tgt = _points_in_polygon(p[:, 0], p[:, 1],
                                     np.asarray(scene.target_region, dtype=float))
            stage[tgt & ~src] = STAGE_TARGET
        return stage

    t_now = 0.0
    frame_no = 0
    next_frame_t = 0.0
    projection_flux = 0.0

    while True:
        if t_now >= next_frame_t - 1e-9:
            frames.append(ParticleSet(pos.copy(), vel.copy(), classify(pos)))
            times.append(t_now)
            poses.append(motion.pose(t_now))
            frame_no += 1
            next_frame_t = frame_no * config.frame_dt
            if frame_no >= n_frames:
                break

        # ---- one base step with CFL substepping ----
        remaining = min(config.dt, next_frame_t - t_now)
        vmax = float(np.abs(vel).max(initial=0.0))
        n_sub = max(1, int(math.ceil(vmax * remaining / h)))
        if n_sub > config.max_substeps:
            raise CFLError(
                f"CFL violation at t={t_now:.3f}s: speed {vmax:.2f} m/s needs "
                f"{n_sub} substeps (cap {config.max_substeps})")
        dt_sub = remaining / n_sub
        for _ in range(n_sub):
            pose_now = motion.pose(t_now)
            vel_pose = motion.velocity(t_now)
            cont_solid = _container_solid_mask(grid, profile, pose_now,
                                               config.wall_thickness)
            solid = static_solid | cont_solid

            # particle-to-grid (MAC faces): u nodes at (i h, (j+1/2) h),
            # v nodes at ((i+1/2) h, j h)
            ux0, uy0 = grid.x0, grid.y0 + 0.5 * h
            vx0, vy0 = grid.x0 + 0.5 * h, grid.y0
            u_acc, u_w = _bilinear_scatter(pos[:, 0], pos[:, 1], vel[:, 0],
                                           ux0, uy0, h, (nx + 1, ny))
            v_acc, v_w = _bilinear_scatter(pos[:, 0], pos[:, 1], vel[:, 1],
                                           vx0, vy0, h, (nx, ny + 1))
            u = np.where(u_w > 1e-12, u_acc / np.maximum(u_w, 1e-12), 0.0)
            v = np.where(v_w > 1e-12, v_acc / np.maximum(v_w, 1e-12), 0.0)
            u_valid = u_w > 1e-12
            v_valid = v_w > 1e-12
            # FLIP reference state: everything after this point (gravity,
            # viscosity, boundaries, projection) belongs to the delta
            u_old = _extrapolate(u, u_valid)
            v_old = _extrapolate(v, v_valid)

            # cell classification from particle occupancy
            ci = np.clip(((pos[:, 0] - grid.x0) / h).astype(int), 0, nx - 1)
            cj = np.clip(((pos[:, 1] - grid.y0) / h).astype(int), 0, ny - 1)
            occupancy = np.zeros((nx, ny), dtype=int)
            np.add.at(occupancy, (ci, cj), 1)
            cell_type = np.where(solid, SOLID,
                                 np.where(occupancy > 0, FLUID, AIR)).astype(np.int8)

            # forces; kinematic viscosity nu = mu / rho as explicit diffusion
            v -= config.gravity * dt_sub
            if config.viscosity > 0:
                k = (config.viscosity / config.rho) * dt_sub / (h * h)
                k = min(k, 0.24)
                for f_ in (u, v):
                    lap = (np.roll(f_, 1, 0) + np.roll(f_, -1, 0)
                           + np.roll(f_, 1, 1) + np.roll(f_, -1, 1) - 4 * f_)
                    f_ += k * lap

            # non-penetration at solid faces: clamp the normal component
            # one-sidedly so tangential sliding along stepped walls survives
            omega = vel_pose[2]
            cxp, cyp = pose_now[0], pose_now[1]
            u_wall = vel_pose[0] - omega * (grid.uy - cyp)
            v_wall = vel_pose[1] + omega * (grid.vx - cxp)
            solid_pad = np.pad(solid, 1, constant_values=True)
            cont_pad = np.pad(cont_solid, 1, constant_values=False)
            u_solid_left = solid_pad[0:nx + 1, 1:ny + 1]
            u_solid_right = solid_pad[1:nx + 2, 1:ny + 1]
            v_solid_below = solid_pad[1:nx + 1, 0:ny + 1]
            v_solid_above = solid_pad[1:nx + 1, 1:ny + 2]
            u_cont = (cont_pad[0:nx + 1, 1:ny + 1]
                      | cont_pad[1:nx + 2, 1:ny + 1])
            v_cont = (cont_pad[1:nx + 1, 0:ny + 1]
                      | cont_pad[1:nx + 1, 1:ny + 2])
            u_ref = np.where(u_cont, u_wall, 0.0)
            v_ref = np.where(v_cont, v_wall, 0.0)

            def clamp_faces(u, v):
                u = np.where(u_solid_left, np.maximum(u, u_ref), u)
                u = np.where(u_solid_right, np.minimum(u, u_ref), u)
                v = np.where(v_solid_below, np.maximum(v, v_ref), v)
                v = np.where(v_solid_above, np.minimum(v, v_ref), v)
                return u, v

            u, v = clamp_faces(u, v)
            u_valid |= u_solid_left | u_solid_right
            v_valid |= v_solid_below | v_solid_above

            u, v = _project_clean(u, v, cell_type, h)
            u, v = clamp_faces(u, v)

            # net volume creation of the projected field over fluid cells,
            # integrated over the run (projection conservation diagnostic)
            fluid_cells = cell_type == FLUID
            div_after = (u[1:, :] - u[:-1, :] + v[:, 1:] - v[:, :-1]) / h
            projection_flux += float(div_after[fluid_cells].sum()) * h * h * dt_sub
            u_ext = _extrapolate(u, u_valid)
            v_ext = _extrapolate(v, v_valid)

            # grid-to-particle: FLIP delta blended with PIC
            du_grid = u_ext - u_old
            dv_grid = v_ext - v_old
            pic_u = _bilinear_gather(u_ext, pos[:, 0], pos[:, 1], ux0, uy0, h)
            pic_v = _bilinear_gather(v_ext, pos[:, 0], pos[:, 1], vx0, vy0, h)
            dlt_u = _bilinear_gather(du_grid, pos[:, 0], pos[:, 1], ux0, uy0, h)
            dlt_v = _bilinear_gather(dv_grid, pos[:, 0], pos[:, 1], vx0, vy0, h)
            alpha = config.flip_blend
            vel = np.stack([
                alpha * (vel[:, 0] + dlt_u) + (1 - alpha) * pic_u,
                alpha * (vel[:, 1] + dlt_v) + (1 - alpha) * pic_v,
            ], axis=1)

            # RK2 advection in the grid field
            mid_x = pos[:, 0] + 0.5 * dt_sub * pic_u
            mid_y = pos[:, 1] + 0.5 * dt_sub * pic_v
            mu = _bilinear_gather(u_ext, mid_x, mid_y, ux0, uy0, h)
            mv = _bilinear_gather(v_ext, mid_x, mid_y, vx0, vy0, h)
            pos_before = pos
            pos = pos + dt_sub * np.stack([mu, mv], axis=1)


            # positional de-clustering: particles in clearly overfull cells
            # drift down the local count gradient (keeps thin sheets mobile
            # without injecting momentum)
            ppc = config.particles_per_cell
            occ2 = np.zeros((nx, ny))
            c2i = np.clip(((pos[:, 0] - grid.x0) / h).astype(int), 0, nx - 1)
            c2j = np.clip(((pos[:, 1] - grid.y0) / h).astype(int), 0, ny - 1)
            np.add.at(occ2, (c2i, c2j), 1.0)
            dens_p = _bilinear_gather(occ2, pos[:, 0], pos[:, 1],
                                      grid.x0 + 0.5 * h, grid.y0 + 0.5 * h, h)
            crowded = dens_p > config.separation_deadband * ppc
            if np.any(crowded):
                gx_f = np.zeros_like(occ2)
                gy_f = np.zeros_like(occ2)
                gx_f[1:-1, :] = (occ2[2:, :] - occ2[:-2, :]) * 0.5
                gy_f[:, 1:-1] = (occ2[:, 2:] - occ2[:, :-2]) * 0.5
                gxp = _bilinear_gather(gx_f, pos[crowded, 0], pos[crowded, 1],
                                       grid.x0 + 0.5 * h, grid.y0 + 0.5 * h, h)
                gyp = _bilinear_gather(gy_f, pos[crowded, 0], pos[crowded, 1],
                                       grid.x0 + 0.5 * h, grid.y0 + 0.5 * h, h)
                disp = -(config.separation_strength * h / ppc
                         * np.stack([gxp, gyp], axis=1))
                mag = np.linalg.norm(disp, axis=1)
                cap = 0.45 * h
                scale = np.where(mag > cap, cap / np.maximum(mag, 1e-30), 1.0)
                cand = pos[crowded] + disp * scale[:, None]
                # never de-cluster into a solid cell
                ti = np.clip(((cand[:, 0] - grid.x0) / h).astype(int), 0, nx - 1)
                tj = np.clip(((cand[:, 1] - grid.y0) / h).astype(int), 0, ny - 1)
                ok = ~solid[ti, tj]
                rows = np.where(crowded)[0][ok]
                pos[rows] = cand[ok]

            # analytic containment: a particle inside the container may only
            # exit through the opening edge.  Both raster stair-step sifting
            # and the wall sweeping past a slow particle are undone by
            # carrying the particle rigidly with the container.
            pose_next = motion.pose(t_now + dt_sub)
            poly_now = _transform2d(profile.vertices, pose_now)
            poly_next = _transform2d(profile.vertices, pose_next)
            lip_seg = _transform2d(opening_local, pose_next)
            in_before = _points_in_polygon(pos_before[:, 0], pos_before[:, 1],
                                           poly_now)
            in_after = _points_in_polygon(pos[:, 0], pos[:, 1], poly_next)
            escaped = np.where(in_before & ~in_after)[0]
            if len(escaped):
                legit = _segments_cross(pos_before[escaped], pos[escaped],
                                        lip_seg[0], lip_seg[1])
                revert = escaped[~legit]
                if len(revert):
                    # project back just inside the wall, keep tangential
                    # motion, and drop the wall-ward velocity component so
                    # the particle slides instead of pressing in again
                    d_esc = pos[revert] - pos_before[revert]
                    pos[revert] = _push_off_boundary(pos[revert], poly_next,
                                                     0.25 * h)
                    norms = np.linalg.norm(d_esc, axis=1)
                    ok = norms > 1e-12
                    d_hat = np.zeros_like(d_esc)
                    d_hat[ok] = d_esc[ok] / norms[ok, None]
                    into = np.einsum("ij,ij->i", vel[revert], d_hat)
                    vel[revert] -= np.maximum(into, 0.0)[:, None] * d_hat

            # keep particles inside the domain and out of solids
            x_lo = grid.x0 + 1.001 * h
            x_hi = grid.x0 + (nx - 1.001) * h
            y_lo = grid.y0 + 1.001 * h
            y_hi = grid.y0 + (ny - 1.001) * h
            pos[:, 0] = np.clip(pos[:, 0], x_lo, x_hi)
            pos[:, 1] = np.clip(pos[:, 1], y_lo, y_hi)
            ci = np.clip(((pos[:, 0] - grid.x0) / h).astype(int), 0, nx - 1)
            cj = np.clip(((pos[:, 1] - grid.y0) / h).astype(int), 0, ny - 1)
            stuck = solid[ci, cj]
            if np.any(stuck):
                which = np.where(stuck)[0]
                in_poly = in_before[which] | _points_in_polygon(
                    pos[which, 0], pos[which, 1], poly_next)
                # interior particles caught in the thin inner wall band get
                # nudged back toward the interior, keeping their velocity
                inner = which[in_poly]
                if len(inner):
                    pos[inner] = _push_off_boundary(pos[inner], poly_next,
                                                    0.55 * h)
                # exterior stuck particles (static solids, outer wall band):
                # revert to the pre-step position, else snap to the nearest
                # free cell on their own side of the boundary
                outer = which[~in_poly]
                if len(outer):
                    prev = pos_before[outer]
                    ki = np.clip(((prev[:, 0] - grid.x0) / h).astype(int), 0, nx - 1)
                    kj = np.clip(((prev[:, 1] - grid.y0) / h).astype(int), 0, ny - 1)
                    ok = ~solid[ki, kj]
                    pos[outer[ok]] = prev[ok]
                    rest = outer[~ok]
                    if len(rest):
                        free_idx = np.argwhere(~solid)
                        free_pts = np.stack([
                            grid.x0 + (free_idx[:, 0] + 0.5) * h,
                            grid.y0 + (free_idx[:, 1] + 0.5) * h], axis=1)
                        free_in = _points_in_polygon(free_pts[:, 0],
                                                     free_pts[:, 1], poly_next)
                        cand_pts = free_pts[~free_in] if (~free_in).any() else free_pts
                        for p_idx in rest:
                            d2 = ((cand_pts[:, 0] - pos[p_idx, 0]) ** 2
                                  + (cand_pts[:, 1] - pos[p_idx, 1]) ** 2)
                            pos[p_idx] = cand_pts[int(np.argmin(d2))]
                            vel[p_idx] = 0.0
            t_now += dt_sub

    area0 = n_particles / config.particles_per_cell * h * h
    return SimResult(frames=frames, times=np.array(times),
                     poses=np.array(poses), config=config, profile=profile,
                     motion=motion, vol0=vol0, scene=scene,
                     projection_volume_drift=abs(projection_flux) / area0)


# ---------------------------------------------------------------------------
# post-processing
# ---------------------------------------------------------------------------

INNER_BAND = 0.008  # meters outside the polygon still counted as inside


def _inside_container(points, profile, pose, pad: float = INNER_BAND) -> np.ndarray:
    """Inside the container region: the polygon plus an absolute band.

    The band keeps particles resting against the rasterized wall (which sits
    just outside the exact boundary) classified as inside.
    """
    poly_w = _transform2d(profile.vertices, pose)
    inside = _points_in_polygon(points[:, 0], points[:, 1], poly_w)
    if pad > 0:
        closed = np.vstack([poly_w, poly_w[:1]])
        d = _segment_distance_field(points[:, 0], points[:, 1], closed)
        inside |= d < pad
    return inside


def _departure_series(result: SimResult):
    """Departure events per frame, confirmed by a one-frame lookahead.

    Surface particles jittering across the boundary return within a frame;
    genuine outflow stays outside.  Each particle is counted at most once
    across the whole run.  Yields (frame, leaving mask, previous inside
    count).
    """
    n_frames = len(result.frames)
    inside = [_inside_container(result.frames[f].positions, result.profile,
                                result.poses[f])
              for f in range(n_frames)]
    departed = np.zeros(result.n_particles, dtype=bool)
    for f in range(1, n_frames):
        crossing = inside[f - 1] & ~inside[f] & ~departed
        if f + 1 < n_frames:
            crossing &= ~inside[f + 1]
        departed |= crossing
        yield f, crossing, int(inside[f - 1].sum())


def free_surface_points(result: SimResult, frame: int):
    """Topmost occupied cell per column inside the container region."""
    cfg = result.config
    grid = _Grid(cfg)
    h = cfg.h
    pose = result.poses[frame]
    p = result.frames[frame].positions
    inside = _inside_container(p, result.profile, pose)
    if not inside.any():
        return np.zeros((0, 2))
    pts = p[inside]
    ci = np.clip(((pts[:, 0] - grid.x0) / h).astype(int), 0, cfg.nx - 1)
    cj = np.clip(((pts[:, 1] - grid.y0) / h).astype(int), 0, cfg.ny - 1)
    top = {}
    for i, j in zip(ci, cj):
        if i not in top or j > top[i]:
            top[i] = j
    cols = sorted(top)
    return np.array([[grid.x0 + (i + 0.5) * h, grid.y0 + (top[i] + 1.0) * h]
                     for i in cols])


def _surface_head(result: SimResult, frame: int):
    """Head height above the lip from a cubic free-surface fit.

    Falls back to a linear fit (flagged) when fewer than 4 surface points
    exist.
    """
    pose = result.poses[frame]
    lip_local = result.profile.lip
    lip_w = _transform2d(lip_local[None, :], pose)[0]
    pts = free_surface_points(result, frame)
    if len(pts) == 0:
        return 0.0, False
    degraded = len(pts) < 4
    order = 1 if degraded else 3
    # Polynomial.fit maps x onto [-1, 1] internally, keeping the cubic fit
    # well conditioned on narrow surface spans
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.RankWarning
                              if hasattr(np, "exceptions")
                              else np.RankWarning)
        poly = np.polynomial.Polynomial.fit(pts[:, 0], pts[:, 1],
                                            min(order, max(1, len(pts) - 1)))
    y_surf = float(poly(lip_w[0]))
    return max(0.0, y_surf - lip_w[1]), degraded


def extract_training_samples(result: SimResult) -> list[TrainingSample]:
    """Identification tuples from departing particles, one per active frame.

    A particle departs when it leaves the container's region between two
    consecutive frames; each particle is counted at most once per run.  The
    sample speed is the mean speed of that frame's departing particles,
    read from the frame before departure so the free-fall after crossing
    the boundary does not contaminate it.  The head height comes from the
    free-surface fit of the previous frame and the volume is the previous
    frame's revolved-volume estimate.
    """
    if len(result.frames) < 2:
        raise ValueError("need at least 2 frames")
    count0 = None
    samples = []
    for f, leaving, n_inside_prev in _departure_series(result):
        if count0 is None:
            count0 = max(n_inside_prev, 1)
        if not leaving.any():
            continue
        vol_prev = result.vol0 * n_inside_prev / count0
        speeds = np.linalg.norm(result.frames[f - 1].velocities[leaving],
                                axis=1)
        dh, degraded = _surface_head(result, f - 1)
        samples.append(TrainingSample(
            v_out_next=float(speeds.mean()),
            theta_next=float(abs(result.poses[f][2])),
            vol=vol_prev,
            dh=dh,
            degraded=degraded,
        ))
    return samples


def measured_series(result: SimResult):
    """Per-frame ground-truth traces for reporting and model evaluation.

    Returns dict of arrays over frames 1..F-1: time, theta, v_out (nan when
    no particle departs), vol of the previous frame, measured head height.
    """
    n_frames = len(result.frames)
    t = np.zeros(n_frames - 1)
    theta = np.zeros(n_frames - 1)
    v_out = np.full(n_frames - 1, np.nan)
    vol = np.zeros(n_frames - 1)
    dh = np.zeros(n_frames - 1)
    n_dep = np.zeros(n_frames - 1, dtype=int)
    count0 = None
    for f, leaving, n_inside_prev in _departure_series(result):
        if count0 is None:
            count0 = max(n_inside_prev, 1)
        t[f - 1] = result.times[f]
        theta[f - 1] = abs(result.poses[f][2])
        vol[f - 1] = result.vol0 * n_inside_prev / count0
        dh[f - 1], _ = _surface_head(result, f - 1)
        if leaving.any():
            speeds = np.linalg.norm(result.frames[f - 1].velocities[leaving],
                                    axis=1)
            v_out[f - 1] = float(speeds.mean())
            n_dep[f - 1] = int(leaving.sum())
    return {"t": t, "theta": theta, "v_out": v_out, "vol": vol, "dh": dh,
            "n_departed": n_dep}


def quality(result: SimResult, target_region=None) -> float:
    """Fraction of all particles whose final position lies in the target."""
    region = target_region if target_region is not None else result.scene.target_region
    if region is None:
        raise ValueError("no target region given")
    p = result.frames[-1].positions
    inside = _points_in_polygon(p[:, 0], p[:, 1], np.asarray(region, dtype=float))
    return float(inside.sum()) / len(p)


def kinetic_energy(ps: ParticleSet) -> float:
    return 0.5 * float((ps.velocities ** 2).sum())
