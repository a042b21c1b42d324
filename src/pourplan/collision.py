"""Analytic collision queries between spheres, capsules and boxes.

Contacts use a single signed-distance convention: ``sd = <n, a - b>`` where
``a`` sits on body A, ``b`` on body B and ``n`` points from B toward A.  The
stored depth is ``d = -sd``, so penetrating pairs have d > 0 and separated
pairs inside the query margin carry their separation as negative d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

DEGENERATE_NORMAL = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class Sphere:
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("sphere radius must be positive")


@dataclass(frozen=True)
class Capsule:
    p0: tuple
    p1: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("capsule radius must be positive")


@dataclass(frozen=True)
class Box:
    half_extents: tuple

    def __post_init__(self):
        if np.any(np.asarray(self.half_extents) <= 0):
            raise ValueError("box half extents must be positive")


Shape = Sphere | Capsule | Box


@dataclass
class Contact:
    a: np.ndarray          # witness point on body A (world)
    b: np.ndarray          # witness point on body B (world)
    n: np.ndarray          # unit normal, from B toward A
    d: float               # penetration depth; negative = separation
    degenerate: bool = False
    body_a: object = None
    body_b: object = None

    @property
    def signed_distance(self) -> float:
        return -self.d

    def swapped(self) -> "Contact":
        return Contact(a=self.b.copy(), b=self.a.copy(), n=-self.n, d=self.d,
                       degenerate=self.degenerate,
                       body_a=self.body_b, body_b=self.body_a)


def _pose_parts(pose: np.ndarray):
    pose = np.asarray(pose, dtype=float)
    return pose[:3, :3], pose[:3, 3]


def _as_segment(shape, pose):
    R, t = _pose_parts(pose)
    if isinstance(shape, Sphere):
        return t, t, shape.radius
    p0 = R @ np.asarray(shape.p0, dtype=float) + t
    p1 = R @ np.asarray(shape.p1, dtype=float) + t
    return p0, p1, shape.radius


def _closest_segment_segment(p0, p1, q0, q1):
    """Closest points between two segments (Ericson, real-time CD)."""
    d1 = p1 - p0
    d2 = q1 - q0
    r = p0 - q0
    a = d1 @ d1
    e = d2 @ d2
    f = d2 @ r
    if a < 1e-18 and e < 1e-18:
        return p0, q0
    if a < 1e-18:
        t = np.clip(f / e, 0.0, 1.0)
        return p0, q0 + t * d2
    c = d1 @ r
    if e < 1e-18:
        s = np.clip(-c / a, 0.0, 1.0)
        return p0 + s * d1, q0
    b = d1 @ d2
    denom = a * e - b * b
    s = np.clip((b * f - c * e) / denom, 0.0, 1.0) if denom > 1e-18 else 0.0
    t = (b * s + f) / e
    if t < 0.0:
        t = 0.0
        s = np.clip(-c / a, 0.0, 1.0)
    elif t > 1.0:
        t = 1.0
        s = np.clip((b - c) / a, 0.0, 1.0)
    return p0 + s * d1, q0 + t * d2


def _capsule_capsule(sa, pa, sb, pb):
    p0, p1, ra = _as_segment(sa, pa)
    q0, q1, rb = _as_segment(sb, pb)
    ca, cb = _closest_segment_segment(p0, p1, q0, q1)
    delta = ca - cb
    dist = float(np.linalg.norm(delta))
    degenerate = dist < 1e-12
    n = DEGENERATE_NORMAL.copy() if degenerate else delta / dist
    sd = dist - (ra + rb)
    a = ca - ra * n
    b = cb + rb * n
    return Contact(a=a, b=b, n=n, d=-sd, degenerate=degenerate)


def _point_box_signed(p_local, half):
    """Signed distance of a point to a box in its frame, with witness point.

    Negative inside.  Also returns the outward normal in the box frame.
    """
    half = np.asarray(half, dtype=float)
    outside = np.maximum(np.abs(p_local) - half, 0.0)
    if np.any(outside > 0):
        closest = np.clip(p_local, -half, half)
        delta = p_local - closest
        dist = float(np.linalg.norm(delta))
        n = delta / dist
        return dist, closest, n
    # inside: exit through the nearest face
    gaps = half - np.abs(p_local)
    k = int(np.argmin(gaps))
    n = np.zeros(3)
    n[k] = math.copysign(1.0, p_local[k]) if p_local[k] != 0 else 1.0
    closest = p_local.copy()
    closest[k] = n[k] * half[k]
    return -float(gaps[k]), closest, n


def _deepest_segment_param_in_box(a_l, d_l, half):
    """Max over s in [0,1] of the inside-depth min_k(h_k -+ x_k(s)).

    The inside margin is a min of 6 linear functions of s, so the maximum is
    attained at an endpoint or a pairwise crossing; all are enumerated.
    """
    # inside margin per face: f(s) = h_k - sign * (a_k + s d_k)
    coeffs = []
    for k in range(3):
        for sign in (1.0, -1.0):
            coeffs.append((half[k] - sign * a_l[k], -sign * d_l[k]))
    cand = {0.0, 1.0}
    for (c1, m1), (c2, m2) in combinations(coeffs, 2):
        dm = m1 - m2
        if abs(dm) > 1e-15:
            s = (c2 - c1) / dm
            if 0.0 < s < 1.0:
                cand.add(s)
    best_s, best_val = 0.0, -np.inf
    for s in cand:
        val = min(c + m * s for c, m in coeffs)
        if val > best_val:
            best_s, best_val = s, val
    return best_s, best_val


def _closest_segment_param_to_box(a_l, d_l, half, iters: int = 90):
    """Ternary search of the convex distance-to-box along the segment."""
    def dist(s):
        sd, _, _ = _point_box_signed(a_l + s * d_l, half)
        return max(sd, 0.0)

    lo, hi = 0.0, 1.0
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if dist(m1) <= dist(m2):
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi)


def _capsule_box(sc, pc, sb, pb):
    p0, p1, r = _as_segment(sc, pc)
    Rb, tb = _pose_parts(pb)
    half = np.asarray(sb.half_extents, dtype=float)
    a_l = Rb.T @ (p0 - tb)
    d_l = Rb.T @ (p1 - p0)

    s_in, depth_in = _deepest_segment_param_in_box(a_l, d_l, half)
    if depth_in > 0.0:
        x = a_l + s_in * d_l
        _, closest, n_l = _point_box_signed(x, half)
        n = Rb @ n_l
        a = Rb @ x + tb - r * n
        b = Rb @ closest + tb
        return Contact(a=a, b=b, n=n, d=r + depth_in)

    s = _closest_segment_param_to_box(a_l, d_l, half)
    x = a_l + s * d_l
    sd_pt, closest, n_l = _point_box_signed(x, half)
    if sd_pt <= 1e-12:  # touching the surface
        n = Rb @ n_l
        a = Rb @ x + tb - r * n
        b = Rb @ closest + tb
        return Contact(a=a, b=b, n=n, d=r)
    n = Rb @ n_l
    a = Rb @ x + tb - r * n
    b = Rb @ closest + tb
    return Contact(a=a, b=b, n=n, d=-(sd_pt - r))


def _box_vertices(half):
    h = np.asarray(half, dtype=float)
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    return signs * h


def _box_box_separation(sa, pa, sb, pb, iters: int = 3000, tol: float = 1e-14):
    """Closest points between two separated boxes by alternating projection.

    Stops on witness-point movement, not distance change: tangential sliding
    along flat faces shrinks the distance quadratically slower than the
    points move.
    """
    Ra, ta = _pose_parts(pa)
    Rb, tb = _pose_parts(pb)
    ha = np.asarray(sa.half_extents, dtype=float)
    hb = np.asarray(sb.half_extents, dtype=float)

    def proj(p, R, t, h):
        return R @ np.clip(R.T @ (p - t), -h, h) + t

    p = ta.copy()
    q = tb.copy()
    for _ in range(iters):
        p_new = proj(q, Ra, ta, ha)
        q_new = proj(p_new, Rb, tb, hb)
        move = max(float(np.max(np.abs(p_new - p))), float(np.max(np.abs(q_new - q))))
        p, q = p_new, q_new
        if move < tol:
            break
    return p, q, float(np.linalg.norm(p - q))


def _box_box(sa, pa, sb, pb):
    Ra, ta = _pose_parts(pa)
    Rb, tb = _pose_parts(pb)
    ha = np.asarray(sa.half_extents, dtype=float)
    hb = np.asarray(sb.half_extents, dtype=float)

    axes = [Ra[:, i] for i in range(3)] + [Rb[:, i] for i in range(3)]
    for i in range(3):
        for j in range(3):
            cr = np.cross(Ra[:, i], Rb[:, j])
            nrm = np.linalg.norm(cr)
            if nrm > 1e-9:
                axes.append(cr / nrm)

    center_delta = ta - tb
    best_overlap, best_axis = np.inf, None
    separated = False
    for ax in axes:
        ra = float(np.sum(np.abs(ax @ Ra) * ha))
        rb = float(np.sum(np.abs(ax @ Rb) * hb))
        dist = float(abs(ax @ center_delta))
        overlap = ra + rb - dist
        if overlap < 0:
            separated = True
            break
        if overlap < best_overlap:
            best_overlap = overlap
            best_axis = ax if ax @ center_delta >= 0 else -ax

    if separated:
        p, q, dist = _box_box_separation(sa, pa, sb, pb)
        degenerate = dist < 1e-12
        n = DEGENERATE_NORMAL.copy() if degenerate else (p - q) / dist
        return Contact(a=p, b=q, n=n, d=-dist, degenerate=degenerate)

    n = best_axis  # points from B toward A
    # witness points: deepest supports along the contact axis
    va = _box_vertices(ha) @ Ra.T + ta
    vb = _box_vertices(hb) @ Rb.T + tb
    a_pt = va[np.argmin(va @ n)]
    b_pt = vb[np.argmax(vb @ n)]
    return Contact(a=a_pt, b=b_pt, n=n, d=float(best_overlap))


def check_pair(shape_a: Shape, pose_a, shape_b: Shape, pose_b,
               margin: float = 0.0) -> Contact | None:
    """Deepest contact between two shapes, or the closest pair within margin.

    Returns None when the pair is separated by more than ``margin``.
    Coincident centers produce a degenerate contact with the +z normal.
    """
    swap = False
    a, b = shape_a, shape_b
    pa, pb = pose_a, pose_b
    if isinstance(a, Box) and not isinstance(b, Box):
        a, b, pa, pb, swap = b, a, pb, pa, True

    if isinstance(a, Box) and isinstance(b, Box):
        contact = _box_box(a, pa, b, pb)
    elif isinstance(b, Box):
        contact = _capsule_box(a, pa, b, pb)
    else:
        contact = _capsule_capsule(a, pa, b, pb)

    if swap:
        contact = contact.swapped()
    if contact.d < -margin:
        return None
    return contact


def deepest_contacts(obstacles, bodies, margin: float = 0.0,
                     adjacency=None) -> list[Contact]:
    """Per-pair deepest contacts between moving bodies and the world.

    ``obstacles`` and ``bodies`` are sequences of (name, shape, pose4x4).
    Body-vs-body pairs listed in ``adjacency`` (set of frozensets of names)
    are skipped; each remaining pair contributes at most one contact, the
    deepest.  Body A of every contact is the moving body.
    """
    adjacency = adjacency or set()
    out = []
    for name_b, shape_b, pose_b in bodies:
        for name_o, shape_o, pose_o in obstacles:
            c = check_pair(shape_b, pose_b, shape_o, pose_o, margin=margin)
            if c is not None:
                c.body_a, c.body_b = name_b, name_o
                out.append(c)
    for (na, sa, pa), (nb, sb, pb) in combinations(bodies, 2):
        if frozenset((na, nb)) in adjacency:
            continue
        c = check_pair(sa, pa, sb, pb, margin=margin)
        if c is not None:
            c.body_a, c.body_b = na, nb
            out.append(c)
    return out


def min_separation(obstacles, bodies, adjacency=None,
                   margin: float = 1.0) -> float:
    """Smallest signed distance over all checked pairs (positive = clear)."""
    contacts = deepest_contacts(obstacles, bodies, margin=margin,
                                adjacency=adjacency)
    if not contacts:
        return margin
    return min(c.signed_distance for c in contacts)
