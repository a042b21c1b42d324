"""Axisymmetric container profiles and precomputed spill tables.

A container is described by the closed polyline of its axial cross-section
(the plane containing the symmetry axis), with one boundary vertex marked as
the pouring lip.  From that profile we precompute, over a grid of leaning
angles and liquid volumes, the outflow cross-section area A, the head height
dh between the free surface and the lip, and the outflow centroid e.  The
tables are populated by sweeping horizontal water levels through a rasterized
cross-section (a watershed-style fill seeded at the lip) and reconstructing
3D quantities by revolving the axisymmetric profile.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

GRAVITY = 9.81
SYMMETRY_TOL = 1e-9

TABLE_FORMAT_VERSION = 1


class ProfileError(ValueError):
    """Raised for invalid container profile descriptions."""


class TableBuildError(RuntimeError):
    """Raised when the raster fill cannot produce usable tables."""


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContainerProfile:
    """Closed cross-section polyline in the (x, z) plane, symmetric in x.

    ``vertices`` excludes the repeated closing vertex.  The symmetry axis is
    the local z-axis by convention.  ``lip_index`` marks the pouring lip; the
    boundary edge joining the lip and its mirror image is the opening.
    """

    name: str
    vertices: np.ndarray  # (n, 2), meters
    lip_index: int

    @property
    def lip(self) -> np.ndarray:
        """Lip position, normalized to the +x half plane."""
        v = self.vertices[self.lip_index].copy()
        if v[0] < 0:
            v[0] = -v[0]
        return v

    @property
    def lip_radius(self) -> float:
        return float(abs(self.vertices[self.lip_index, 0]))

    @property
    def axis(self) -> np.ndarray:
        return np.array([0.0, 0.0, 1.0])

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        xs, zs = self.vertices[:, 0], self.vertices[:, 1]
        return float(xs.min()), float(xs.max()), float(zs.min()), float(zs.max())

    def closed_boundary(self) -> np.ndarray:
        return np.vstack([self.vertices, self.vertices[:1]])

    def mirror_lip_index(self) -> int:
        lip = self.vertices[self.lip_index]
        target = np.array([-lip[0], lip[1]])
        d = np.linalg.norm(self.vertices - target, axis=1)
        return int(np.argmin(d))

    def wall_polyline(self) -> np.ndarray:
        """Boundary with the opening edge removed: lip -> bottom -> mirror lip."""
        n = len(self.vertices)
        i, j = self.lip_index, self.mirror_lip_index()
        # walk from lip away from the mirror vertex so the opening edge is skipped
        if (i + 1) % n == j:
            order = [(i - k) % n for k in range(n)]
        else:
            order = [(i + k) % n for k in range(n)]
        return self.vertices[order]

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.vertices.astype(np.float64).tobytes())
        h.update(str(self.lip_index).encode())
        return h.hexdigest()[:12]


def _segments_intersect(p1, p2, p3, p4) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(p3, p4, p1), orient(p3, p4, p2)
    d3, d4 = orient(p1, p2, p3), orient(p1, p2, p4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    return False


def load_profile(spec: dict) -> ContainerProfile:
    """Validate a structured profile description.

    Expects keys ``name``, ``units`` ("m"), ``vertices`` (closed: first ==
    last), ``lip_index``.  Checks closure, simplicity, mirror symmetry about
    the z axis, and that the opening edge (lip to mirrored lip) exists.
    """
    units = spec.get("units", "m")
    if units != "m":
        raise ProfileError(f"unsupported units {units!r}; profiles must be in meters")
    verts = np.asarray(spec["vertices"], dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 4:
        raise ProfileError("vertices must be an (n, 2) list with n >= 4")
    if not np.allclose(verts[0], verts[-1], atol=0.0):
        raise ProfileError("open boundary: first vertex must equal last vertex")
    verts = verts[:-1]
    n = len(verts)
    if len(np.unique(np.round(verts, 12), axis=0)) != n:
        raise ProfileError("boundary repeats a vertex")

    # simple polygon: no crossing between non-adjacent edges
    closed = np.vstack([verts, verts[:1]])
    for i in range(n):
        for j in range(i + 1, n):
            if abs(i - j) <= 1 or (i == 0 and j == n - 1):
                continue
            if _segments_intersect(closed[i], closed[i + 1], closed[j], closed[j + 1]):
                raise ProfileError("self-intersecting boundary")

    mirrored = verts * np.array([-1.0, 1.0])
    for v in mirrored:
        if np.min(np.linalg.norm(verts - v, axis=1)) > SYMMETRY_TOL:
            raise ProfileError(
                f"profile not symmetric about the axis within {SYMMETRY_TOL} m"
            )

    lip_index = int(spec["lip_index"])
    if not 0 <= lip_index < n:
        raise ProfileError("lip_index out of range")

    prof = ContainerProfile(name=str(spec.get("name", "container")),
                            vertices=verts, lip_index=lip_index)
    i, j = lip_index, prof.mirror_lip_index()
    if prof.lip_radius > SYMMETRY_TOL:
        adjacent = (i + 1) % n == j or (j + 1) % n == i
        if not adjacent:
            raise ProfileError(
                "opening edge not found: lip and its mirror vertex must be "
                "joined by a boundary edge"
            )
    return prof


def profile_to_dict(profile: ContainerProfile) -> dict:
    return {
        "name": profile.name,
        "units": "m",
        "vertices": np.vstack([profile.vertices, profile.vertices[:1]]).tolist(),
        "lip_index": profile.lip_index,
    }


# ---------------------------------------------------------------------------
# rasterization
# ---------------------------------------------------------------------------

@dataclass
class _Raster:
    cell: float
    xs: np.ndarray          # (k,) cell-center x of interior cells (lip component)
    zs: np.ndarray          # (k,) cell-center z
    s: np.ndarray           # (kh,) radial distance of half-profile cells (x > 0)
    z_half: np.ndarray      # (kh,) z of half-profile cells


def _points_in_polygon(px: np.ndarray, pz: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Vectorized even-odd rule point-in-polygon test."""
    inside = np.zeros(px.shape, dtype=bool)
    n = len(poly)
    for i in range(n):
        x1, z1 = poly[i]
        x2, z2 = poly[(i + 1) % n]
        cond = (pz < z1) != (pz < z2)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = x1 + (pz - z1) * (x2 - x1) / (z2 - z1)
        hit = cond & (px < xcross)
        inside ^= hit
    return inside


def rasterize_interior(profile: ContainerProfile, grid_cell: float,
                       min_cells: int = 64) -> _Raster:
    """Rasterize the cross-section interior and keep the lip-connected component.

    The grid is aligned so x = 0 falls on a cell boundary, which keeps the
    raster mirror-symmetric.  Fails if the grid is too coarse or the lip is
    not adjacent to the filled interior.
    """
    x0, x1, z0, z1 = profile.bbox
    if grid_cell <= 0:
        raise ValueError("grid_cell must be positive")
    if min(x1 - x0, z1 - z0) / grid_cell < 20:
        raise TableBuildError(
            "grid too coarse: need >= 20 cells across the smallest profile dimension"
        )
    nx = int(math.ceil((x1 - x0) / grid_cell)) + 2
    nz = int(math.ceil((z1 - z0) / grid_cell)) + 2
    ix0 = math.floor(x0 / grid_cell) - 1
    iz0 = math.floor(z0 / grid_cell) - 1
    cx = (ix0 + np.arange(nx) + 0.5) * grid_cell
    cz = (iz0 + np.arange(nz) + 0.5) * grid_cell
    gx, gz = np.meshgrid(cx, cz, indexing="ij")
    inside = _points_in_polygon(gx.ravel(), gz.ravel(), profile.vertices)
    inside = inside.reshape(gx.shape)

    labels, nlab = ndimage.label(inside)
    if nlab == 0:
        raise TableBuildError("grid too coarse: interior fill is empty")
    lip = profile.lip
    d2 = (gx - lip[0]) ** 2 + (gz - lip[1]) ** 2
    d2 = np.where(inside, d2, np.inf)
    if not np.isfinite(d2.min()):
        raise TableBuildError("lip not reachable by fill")
    lip_cell = np.unravel_index(int(np.argmin(d2)), d2.shape)
    if math.sqrt(d2[lip_cell]) > 3.0 * grid_cell:
        raise TableBuildError("lip not reachable by fill")
    component = labels == labels[lip_cell]
    if component.sum() < min_cells:
        raise TableBuildError(
            f"grid too coarse: fill touches {int(component.sum())} cells "
            f"(minimum {min_cells})"
        )
    xs = gx[component]
    zs = gz[component]
    half = xs > 0
    return _Raster(cell=grid_cell, xs=xs, zs=zs, s=xs[half], z_half=zs[half])


# ---------------------------------------------------------------------------
# water levels at a leaning angle
# ---------------------------------------------------------------------------

def _revolved_volumes(raster: _Raster, theta: float, levels: np.ndarray) -> np.ndarray:
    """Volume of {interior, world-height <= level} by revolving the half profile.

    A half-profile cell at radius s spans the azimuth arc where the revolved
    point sits below the level; the arc half-angle has the closed form
    arccos(clip(c/s)) with c = (z cos(theta) - level) / sin(theta).
    """
    s, z = raster.s, raster.z_half
    dv = 2.0 * s * raster.cell ** 2  # per unit arc angle (both half-arcs)
    st, ct = math.sin(theta), math.cos(theta)
    if abs(st) < 1e-12:
        below = (z * ct)[None, :] <= levels[:, None] + 1e-15
        return (below * (math.pi * dv)[None, :]).sum(axis=1)
    c = (z[None, :] * ct - levels[:, None]) / st
    ratio = np.clip(c / s[None, :], -1.0, 1.0)
    psi = np.arccos(ratio)
    return (psi * dv[None, :]).sum(axis=1)


def _disc_segment(r: float, x_min: float) -> tuple[float, float]:
    """Area and centroid-x of the disc segment {x >= x_min} of radius r."""
    if x_min >= r:
        return 0.0, r
    if x_min <= -r:
        return math.pi * r * r, 0.0
    area = r * r * math.acos(x_min / r) - x_min * math.sqrt(r * r - x_min * x_min)
    cx = (2.0 / 3.0) * (r * r - x_min * x_min) ** 1.5 / area
    return area, cx


def _outflow_at_levels(profile: ContainerProfile, theta: float,
                       levels: np.ndarray):
    """Head height, opening-disc coverage area and tilt-frame centroid per level."""
    r = profile.lip_radius
    x_lip, z_lip = profile.lip
    st, ct = math.sin(theta), math.cos(theta)
    z_lip_world = -x_lip * st + z_lip * ct
    dh = np.maximum(0.0, levels - z_lip_world)
    A = np.zeros_like(levels)
    ex = np.zeros_like(levels)
    ez = np.zeros_like(levels)
    for k, zs in enumerate(levels):
        if st < 1e-12:
            # horizontal opening disc: covered all at once when the surface
            # reaches the lip plane
            if zs >= z_lip_world - 1e-12:
                a, cx = math.pi * r * r, 0.0
            else:
                a, cx = 0.0, r
        else:
            x_min = (z_lip * ct - zs) / st
            a, cx = _disc_segment(r, x_min)
        A[k] = a
        # centroid of the covered opening region, rotated into the tilt frame
        ex[k] = cx * ct + z_lip * st
        ez[k] = -cx * st + z_lip * ct
    return dh, A, ex, ez


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

@dataclass
class GeomTables:
    """Lookup tables A(theta, vol), dh(theta, vol), e(theta, vol).

    All grids are (n_theta, n_vol).  ``ex``/``ez`` give the outflow centroid
    in the tilt-plane frame (azimuth rotation applied separately).  Volume
    levels are shared across leaning angles and strictly increasing.
    """

    container_id: str
    theta: np.ndarray
    vol_levels: np.ndarray
    A: np.ndarray
    dh: np.ndarray
    ex: np.ndarray
    ez: np.ndarray
    grid_cell: float
    theta_step: float
    lip_local: np.ndarray
    version: int = TABLE_FORMAT_VERSION

    @property
    def v_max(self) -> float:
        return float(self.vol_levels[-1])

    @property
    def theta_max(self) -> float:
        return float(self.theta[-1])

    def _locate(self, grid: np.ndarray, q: np.ndarray):
        idx = np.searchsorted(grid, q, side="right") - 1
        idx = np.clip(idx, 0, len(grid) - 2)
        w = (q - grid[idx]) / (grid[idx + 1] - grid[idx])
        return idx, np.clip(w, 0.0, 1.0)

    def interp_many(self, thetas: np.ndarray, vols: np.ndarray) -> dict:
        """Bilinear interpolation plus exact in-cell slopes of the interpolant.

        Volumes clamp to [0, v_max]; angles must lie inside the sampled range.
        """
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        vols = np.atleast_1d(np.asarray(vols, dtype=float))
        if np.any(thetas < self.theta[0] - 1e-12) or np.any(thetas > self.theta[-1] + 1e-12):
            raise ValueError(
                f"leaning angle outside sampled range [0, {self.theta[-1]:.4f}] rad"
            )
        if np.any(vols < -1e-15):
            raise ValueError("volume must be nonnegative")
        vq = np.clip(vols, 0.0, self.v_max)
        ti, tw = self._locate(self.theta, np.clip(thetas, self.theta[0], self.theta[-1]))
        vi, vw = self._locate(self.vol_levels, vq)
        out = {}
        dt_grid = self.theta[ti + 1] - self.theta[ti]
        dv_grid = self.vol_levels[vi + 1] - self.vol_levels[vi]
        for name in ("A", "dh", "ex", "ez"):
            g = getattr(self, name)
            f00 = g[ti, vi]
            f10 = g[ti + 1, vi]
            f01 = g[ti, vi + 1]
            f11 = g[ti + 1, vi + 1]
            val = (f00 * (1 - tw) * (1 - vw) + f10 * tw * (1 - vw)
                   + f01 * (1 - tw) * vw + f11 * tw * vw)
            out[name] = val
            out["d" + name + "_dtheta"] = ((f10 - f00) * (1 - vw) + (f11 - f01) * vw) / dt_grid
            out["d" + name + "_dvol"] = ((f01 - f00) * (1 - tw) + (f11 - f10) * tw) / dv_grid
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            container_id=np.array(self.container_id),
            theta=self.theta,
            vol_levels=self.vol_levels,
            A=self.A,
            dh=self.dh,
            ex=self.ex,
            ez=self.ez,
            grid_cell=np.array(self.grid_cell),
            theta_step=np.array(self.theta_step),
            lip_local=self.lip_local,
            version=np.array(self.version),
        )

    @classmethod
    def load(cls, path) -> "GeomTables":
        with np.load(path, allow_pickle=False) as z:
            version = int(z["version"])
            if version != TABLE_FORMAT_VERSION:
                raise ValueError(f"unsupported table file version {version}")
            return cls(
                container_id=str(z["container_id"]),
                theta=z["theta"].copy(),
                vol_levels=z["vol_levels"].copy(),
                A=z["A"].copy(),
                dh=z["dh"].copy(),
                ex=z["ex"].copy(),
                ez=z["ez"].copy(),
                grid_cell=float(z["grid_cell"]),
                theta_step=float(z["theta_step"]),
                lip_local=z["lip_local"].copy(),
                version=version,
            )


def build_tables(profile: ContainerProfile,
                 theta_step: float = math.radians(1.0),
                 grid_cell: float = 1e-3,
                 theta_max: float = math.pi,
                 n_vol_levels: int | None = None) -> GeomTables:
    """Precompute spill tables by sweeping water levels at each leaning angle.

    For each sampled angle the rasterized interior (flood-filled from the
    lip) is swept with horizontal water levels one grid cell apart; each
    level yields one (A, theta, vol) entry plus dh and the outflow centroid.
    Entries are then resampled onto a volume grid shared by all angles.
    """
    if theta_step <= 0:
        raise ValueError("theta_step must be positive")
    raster = rasterize_interior(profile, grid_cell)
    thetas = np.arange(0.0, theta_max + 0.5 * theta_step, theta_step)
    cell = raster.cell

    v_max = float(_revolved_volumes(raster, 0.0, np.array([np.inf]))[0])
    if n_vol_levels is None:
        x0, x1, z0, z1 = profile.bbox
        extent = math.hypot(x1 - x0, z1 - z0)
        n_vol_levels = int(np.clip(round(1.2 * extent / cell), 60, 240))
    vol_grid = np.linspace(0.0, v_max, n_vol_levels)

    A = np.zeros((len(thetas), n_vol_levels))
    dh = np.zeros_like(A)
    ex = np.zeros_like(A)
    ez = np.zeros_like(A)

    # world heights of both half planes bound the level sweep
    for i, th in enumerate(thetas):
        st, ct = math.sin(th), math.cos(th)
        zw_all = np.concatenate([-raster.s * st + raster.z_half * ct,
                                 raster.s * st + raster.z_half * ct])
        lo, hi = zw_all.min() - cell, zw_all.max() + 1.5 * cell
        levels = np.arange(lo, hi, cell)
        vols = _revolved_volumes(raster, th, levels)
        vols = np.maximum.accumulate(vols)
        vols[0] = 0.0
        vols[-1] = v_max
        # invert vol(level), then evaluate the analytic outflow quantities
        level_of_vol = np.interp(vol_grid, vols, levels)
        dh_i, A_i, ex_i, ez_i = _outflow_at_levels(profile, th, level_of_vol)
        A[i], dh[i], ex[i], ez[i] = A_i, dh_i, ex_i, ez_i

    # empty container never pours
    A[:, 0] = 0.0
    dh[:, 0] = 0.0

    return GeomTables(
        container_id=f"{profile.name}-{profile.content_hash()}",
        theta=thetas,
        vol_levels=vol_grid,
        A=A,
        dh=dh,
        ex=ex,
        ez=ez,
        grid_cell=grid_cell,
        theta_step=theta_step,
        lip_local=profile.lip,
    )


def fill_level(profile: ContainerProfile, vol: float,
               grid_cell: float = 1e-3, theta: float = 0.0) -> float:
    """Free-surface height (container-origin frame) holding the given volume.

    ``theta`` is the leaning angle; the level is measured along the world
    vertical with the container rotated about its local origin.
    """
    raster = rasterize_interior(profile, grid_cell)
    theta = abs(theta)
    st, ct = math.sin(theta), math.cos(theta)
    zw = np.concatenate([-raster.s * st + raster.z_half * ct,
                         raster.s * st + raster.z_half * ct])
    lo = zw.min() - grid_cell
    hi = zw.max() + 1.5 * grid_cell
    levels = np.arange(lo, hi, grid_cell)
    vols = _revolved_volumes(raster, theta, levels)
    vols = np.maximum.accumulate(vols)
    if vol > vols[-1] + 1e-12:
        raise ValueError(f"requested volume {vol} exceeds capacity {vols[-1]}")
    return float(np.interp(vol, vols, levels))


def container_capacity(profile: ContainerProfile, grid_cell: float = 1e-3) -> float:
    """Total revolved interior volume."""
    raster = rasterize_interior(profile, grid_cell)
    return float(_revolved_volumes(raster, 0.0, np.array([np.inf]))[0])
