"""Output checks computed apart from the program.

Each function returns a list of failure messages; an empty list passes.
Geometry, interpolation and least squares are done here with plain NumPy,
so a fault in the program's own collision, table or fit code cannot hide
behind itself.  Body poses are the one exception: they come from
``pourplan.robot.forward_kinematics``, which the planner checks do not
exercise in any other way.
"""

from __future__ import annotations

import csv
import math

import numpy as np

GRAVITY = 9.81
# points sampled along each capsule axis for the clearance check
AXIS_SAMPLES = 257
# absolute slack for quantities that are exact up to rounding
EXACT = 1e-9


def read_csv_columns(path) -> dict:
    """CSV file with a header row as {column name: float array}."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    data = np.array([[float(v) if v else math.nan for v in r] for r in body])
    data = data.reshape(len(body), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


# ---------------------------------------------------------------------------
# block-plan
# ---------------------------------------------------------------------------

def _point_box_sd(points, pose, half):
    """Signed distance of world points (k, 3) to a box; negative inside."""
    local = (points - pose[:3, 3]) @ pose[:3, :3]
    q = np.abs(local) - np.asarray(half, dtype=float)
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.minimum(q.max(axis=1), 0.0)
    return outside + inside


def _point_segment_dist(points, a, b):
    d = b - a
    dd = float(d @ d)
    s = np.zeros(len(points)) if dd < 1e-30 else \
        np.clip((points - a) @ d / dd, 0.0, 1.0)
    return np.linalg.norm(points - (a + s[:, None] * d), axis=1)


def _body_axes(chain, fk):
    """(name, p0, p1, radius) in world coordinates for every link shape."""
    out = []
    for g in chain.link_geoms:
        parent = fk.container if g.link == "container" else fk.link_poses[g.link]
        pose = parent @ g.local_pose
        shape = g.shape
        if hasattr(shape, "p0"):
            p0 = pose[:3, :3] @ np.asarray(shape.p0, dtype=float) + pose[:3, 3]
            p1 = pose[:3, :3] @ np.asarray(shape.p1, dtype=float) + pose[:3, 3]
        else:
            p0 = p1 = pose[:3, 3].copy()
        out.append((g.name, p0, p1, float(shape.radius)))
    return out


def clearance(problem, Q, forward_kinematics):
    """Smallest separation along a trajectory, and its sampling error bound.

    Each body's axis (a sphere's centre) is sampled at ``AXIS_SAMPLES``
    points; every point's distance to each obstacle box, or to the axis
    of each non-adjacent body, minus both radii, bounds the true
    separation from above by at most half the sample spacing.
    """
    boxes = [(pose, shape.half_extents)
             for _, shape, pose in problem.world.obstacles]
    s = np.linspace(0.0, 1.0, AXIS_SAMPLES)
    worst, spacing = math.inf, 0.0
    for q in np.asarray(Q, dtype=float):
        bodies = _body_axes(problem.chain, forward_kinematics(problem.chain, q))
        for i, (name, p0, p1, r) in enumerate(bodies):
            pts = p0 + s[:, None] * (p1 - p0)
            spacing = max(spacing, float(np.linalg.norm(p1 - p0)) / (len(s) - 1))
            for pose, half in boxes:
                worst = min(worst, float(_point_box_sd(pts, pose, half).min()) - r)
            for name_b, q0, q1, rb in bodies[i + 1:]:
                if frozenset((name, name_b)) in problem.adjacency:
                    continue
                sep = float(_point_segment_dist(pts, q0, q1).min()) - r - rb
                worst = min(worst, sep)
    return worst, 0.5 * spacing + EXACT


def plan_failures(cols: dict, report: dict, problem, forward_kinematics) -> list:
    """Checks on a planned trajectory CSV and its report."""
    chain = problem.chain
    dof = chain.dof
    Q = np.column_stack([cols[f"q{j}_rad"] for j in range(dof)])
    fails = []
    if len(Q) != problem.n:
        fails.append(f"trajectory has {len(Q)} samples, expected {problem.n}")
    if np.abs(Q[0] - problem.q_start).max() > EXACT:
        fails.append("trajectory does not start at q_start")
    if np.any(Q < chain.lower - EXACT) or np.any(Q > chain.upper + EXACT):
        fails.append("joint limits violated")
    step_max = chain.v_max * problem.tau / (problem.n - 1)
    excess = float((np.abs(np.diff(Q, axis=0)) - step_max).max())
    if excess > EXACT:
        fails.append(f"velocity limit exceeded by {excess:.3g} rad per step")
    clear, tol = clearance(problem, Q, forward_kinematics)
    if clear < 0.0:
        fails.append(f"clearance {clear:.4f} m < 0")
    reported = float(report["min_clearance"])
    if not reported - EXACT <= clear <= reported + tol:
        fails.append(f"clearance {clear:.6f} m disagrees with reported "
                     f"{reported:.6f} m (sampling error {tol:.1e} m)")
    if np.any(np.diff(cols["vol_m3"]) > 0.0):
        fails.append("volume increases")
    frac = float(report["predicted_pour_fraction"])
    if not 0.0 <= frac <= 1.0:
        fails.append(f"predicted pour fraction {frac} outside [0, 1]")
    return fails


# ---------------------------------------------------------------------------
# train-pours
# ---------------------------------------------------------------------------

def frames_failures(positions, domain) -> list:
    """Particle frames: one count throughout, finite, inside the domain."""
    x0, x1, y0, y1 = domain
    fails = []
    counts = sorted({len(p) for p in positions})
    if len(counts) != 1:
        fails.append(f"particle count changes across frames: {counts}")
    for k, p in enumerate(positions):
        p = np.asarray(p, dtype=float)
        if not np.all(np.isfinite(p)):
            fails.append(f"frame {k}: non-finite positions")
            break
        if (p[:, 0].min() < x0 or p[:, 0].max() > x1
                or p[:, 1].min() < y0 or p[:, 1].max() > y1):
            fails.append(f"frame {k}: particle outside the domain")
            break
    return fails


def capacity_failures(v_max: float, radius: float, height: float) -> list:
    expected = math.pi * radius * radius * height
    if abs(v_max - expected) > 1e-9 * expected:
        return [f"table capacity {v_max:.6e} m^3 != pi r^2 h = {expected:.6e}"]
    return []


def _locate(grid, q):
    idx = np.clip(np.searchsorted(grid, q, side="right") - 1, 0, len(grid) - 2)
    w = np.clip((q - grid[idx]) / (grid[idx + 1] - grid[idx]), 0.0, 1.0)
    return idx, w


def table_dh(tables: dict, thetas, vols):
    """Bilinear interpolation of the head table at (theta, vol)."""
    th = np.asarray(tables["theta"], dtype=float)
    vl = np.asarray(tables["vol_levels"], dtype=float)
    g = np.asarray(tables["dh"], dtype=float)
    ti, tw = _locate(th, np.clip(np.asarray(thetas, dtype=float), th[0], th[-1]))
    vi, vw = _locate(vl, np.clip(np.asarray(vols, dtype=float), 0.0, vl[-1]))
    return (g[ti, vi] * (1 - tw) * (1 - vw) + g[ti + 1, vi] * tw * (1 - vw)
            + g[ti, vi + 1] * (1 - tw) * vw + g[ti + 1, vi + 1] * tw * vw)


def design_matrix(dh, thetas):
    """Outflow-speed model: cubic in sqrt(2 g dh) plus cubic in the slide term."""
    b = np.sqrt(2.0 * GRAVITY * np.asarray(dh, dtype=float))
    s = np.sin(np.maximum(np.asarray(thetas, dtype=float) - 0.5 * math.pi, 0.0))
    return np.column_stack([b, b ** 2, b ** 3, s, s ** 2, s ** 3])


def fit_failures(samples: dict, tables: dict, coeffs) -> list:
    """Fitted coefficients against lstsq on the benchmark's own design matrix."""
    X = design_matrix(table_dh(tables, samples["theta_next_rad"],
                               samples["vol_m3"]), samples["theta_next_rad"])
    ref, *_ = np.linalg.lstsq(X, samples["v_out_next_m_per_s"], rcond=None)
    coeffs = np.asarray(coeffs, dtype=float)
    scale = float(np.abs(ref).max())
    if not np.allclose(coeffs, ref, rtol=1e-6, atol=1e-9 * scale):
        return [f"coefficients {np.round(coeffs, 6).tolist()} differ from "
                f"lstsq {np.round(ref, 6).tolist()}"]
    return []


def heldout_rel_rmse(series: dict, tables: dict, coeffs) -> float:
    """Relative RMSE of the model speed against measured outflow speeds."""
    v = series["v_out"]
    mask = np.isfinite(v) & (np.nan_to_num(v) > 0)
    th = series["theta"][mask]
    pred = np.maximum(design_matrix(table_dh(tables, th, series["vol"][mask]), th)
                      @ np.asarray(coeffs, dtype=float), 0.0)
    gt = v[mask]
    return float(np.sqrt(np.mean((pred - gt) ** 2)) / np.sqrt(np.mean(gt ** 2)))


# ---------------------------------------------------------------------------
# validate-pour
# ---------------------------------------------------------------------------

def _rect(poly):
    poly = np.asarray(poly, dtype=float)
    x0, y0 = poly.min(axis=0)
    x1, y1 = poly.max(axis=0)
    on_edge = (np.isclose(poly[:, 0], x0) | np.isclose(poly[:, 0], x1)) & \
              (np.isclose(poly[:, 1], y0) | np.isclose(poly[:, 1], y1))
    if len(poly) != 4 or not on_edge.all():
        raise ValueError("region is not an axis-aligned rectangle")
    return x0, x1, y0, y1


def count_in_rect(points, poly) -> int:
    x0, x1, y0, y1 = _rect(poly)
    p = np.asarray(points, dtype=float)
    return int(((p[:, 0] > x0) & (p[:, 0] < x1)
                & (p[:, 1] > y0) & (p[:, 1] < y1)).sum())


def validation_failures(positions, block, domain, target, quality: float) -> list:
    """Particle conservation, final positions, and the catch count."""
    fails = []
    counts = sorted({len(p) for p in positions})
    if len(counts) != 1:
        fails.append(f"particle count not conserved: {counts}")
    final = np.asarray(positions[-1], dtype=float)
    if count_in_rect(final, block):
        fails.append(f"{count_in_rect(final, block)} particles inside the block")
    x0, x1, y0, y1 = domain
    if (final[:, 0].min() < x0 or final[:, 0].max() > x1
            or final[:, 1].min() < y0 or final[:, 1].max() > y1):
        fails.append("particle outside the domain")
    caught = count_in_rect(final, target)
    if abs(quality * len(final) - caught) > 1e-6:
        fails.append(f"quality {quality} != own catch count {caught}/{len(final)}")
    return fails
