"""Reduced two-variable fluid model for pouring.

The fluid inside the source container is summarized by its remaining volume
and the mean outflow speed.  The outflow speed is modeled as a cubic
polynomial in two physically motivated features: the head-driven speed
sqrt(2 g dh) and the wall-slide factor sin(max(theta - pi/2, 0)).  The six
coefficients are identified from simulated pour data by linear least
squares.  Volume evolves by explicit Euler through the tabulated outflow
cross-section area, and liquid leaving the container follows a gravity
parabola anchored at the outflow centroid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GRAVITY, GeomTables

FEATURE_NAMES = ("head_speed", "head_speed^2", "head_speed^3",
                 "slide_sin", "slide_sin^2", "slide_sin^3")


@dataclass
class FluidState:
    """Global fluid descriptors: volume (m^3) and mean outflow speed (m/s)."""

    vol: float
    v_out: float = 0.0

    def __post_init__(self):
        if self.vol < 0:
            raise ValueError("vol must be nonnegative")
        if self.v_out < 0:
            raise ValueError("v_out must be nonnegative")


@dataclass
class OutflowCoeffs:
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0
    e: float = 0.0
    f: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d, self.e, self.f])

    @classmethod
    def from_array(cls, arr) -> "OutflowCoeffs":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (6,) or not np.all(np.isfinite(arr)):
            raise ValueError("need six finite coefficients")
        return cls(*arr.tolist())


@dataclass
class TrainingSample:
    """One identification tuple: next-step outflow speed and its predictors."""

    v_out_next: float
    theta_next: float
    vol: float
    dh: float
    degraded: bool = False  # surface fit fell back to linear

    def __post_init__(self):
        if self.v_out_next < 0:
            raise ValueError("v_out_next must be nonnegative")
        if self.dh < 0:
            raise ValueError("dh must be nonnegative")


@dataclass
class LeanAzimuth:
    """Container orientation: leaning angle from vertical plus tilt azimuth."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi + 1e-12:
            raise ValueError("theta must lie in [0, pi]")
        if not -math.pi - 1e-12 < self.phi <= math.pi + 1e-12:
            raise ValueError("phi must lie in (-pi, pi]")


@dataclass
class FluidTrajectory:
    """Discretized fluid descriptors along a pour."""

    vol: np.ndarray
    v_out: np.ndarray
    thetas: np.ndarray
    dt: float
    clamp_events: int = 0


@dataclass
class FitResult:
    coeffs: OutflowCoeffs
    rmse: float
    n_samples: int


def bernoulli_speed(dh: float) -> float:
    """Head-driven speed sqrt(2 g dh)."""
    if dh < 0:
        raise ValueError("dh must be nonnegative")
    return math.sqrt(2.0 * GRAVITY * dh)


def slide_factor(theta: float) -> float:
    return math.sin(max(theta - 0.5 * math.pi, 0.0))


def _features(dh, theta):
    """Design-matrix rows for the six-coefficient speed model."""
    b = np.sqrt(2.0 * GRAVITY * np.asarray(dh, dtype=float))
    s = np.sin(np.maximum(np.asarray(theta, dtype=float) - 0.5 * math.pi, 0.0))
    return np.stack([b, b ** 2, b ** 3, s, s ** 2, s ** 3], axis=-1)


def outflow_speed(coeffs: OutflowCoeffs, theta, vol, tables: GeomTables):
    """Model speed clamped to be nonnegative, at one sample or an array."""
    thetas = np.atleast_1d(np.asarray(theta, dtype=float))
    q = tables.interp_many(thetas, vol)
    v = np.maximum(_features(q["dh"], thetas) @ coeffs.as_array(), 0.0)
    return v if np.ndim(theta) else float(v[0])


def rollout(state0: FluidState, thetas, dt: float,
            tables: GeomTables, coeffs: OutflowCoeffs) -> FluidTrajectory:
    """Integrate the pour over a leaning-angle schedule.

    Volume is non-increasing and clamped at zero; negative model speeds are
    clamped and counted in ``clamp_events``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    thetas = np.asarray(thetas, dtype=float)
    n = len(thetas)
    vol = np.empty(n)
    v = np.empty(n)
    vol[0], v[0] = state0.vol, state0.v_out
    carr = coeffs.as_array()
    clamps = 0
    for i in range(n - 1):
        q = tables.interp_many(thetas[i + 1], vol[i])
        raw = float(_features(float(q["dh"][0]), thetas[i + 1]) @ carr)
        if raw < 0.0:
            clamps += 1
            raw = 0.0
        v[i + 1] = raw
        vol[i + 1] = max(0.0, vol[i] - float(q["A"][0]) * raw * dt)
    return FluidTrajectory(vol=vol, v_out=v, thetas=thetas.copy(), dt=dt,
                           clamp_events=clamps)


def fit_coefficients(samples, tables: GeomTables) -> FitResult:
    """Least-squares identification of the six speed-model coefficients.

    Features are evaluated in the deployed form: the head height comes from
    the tables at (theta_next, vol), so training and prediction share one
    feature space.  Solved by orthogonal factorization; a rank-deficient
    design matrix raises with the offending feature columns named.
    """
    samples = list(samples)
    if len(samples) < 6:
        raise ValueError(f"insufficient samples: need >= 6, got {len(samples)}")
    thetas = np.array([s.theta_next for s in samples])
    vols = np.array([s.vol for s in samples])
    y = np.array([s.v_out_next for s in samples])
    q = tables.interp_many(thetas, vols)
    X = _features(q["dh"], thetas)

    col_scale = np.linalg.norm(X, axis=0)
    dead = [FEATURE_NAMES[i] for i in range(6) if col_scale[i] < 1e-14]
    if dead:
        raise ValueError(f"rank-deficient design matrix: zero feature columns {dead}")
    if np.linalg.matrix_rank(X, tol=1e-10 * col_scale.max()) < 6:
        # name the columns that QR pivoting ranks as dependent
        from scipy.linalg import qr
        _, R, piv = qr(X, mode="economic", pivoting=True)
        diag = np.abs(np.diag(R))
        weak = [FEATURE_NAMES[piv[i]] for i in range(6)
                if diag[i] < 1e-10 * diag[0]]
        raise ValueError(f"rank-deficient design matrix: dependent feature "
                         f"columns {weak}")

    beta, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = X @ beta - y
    rmse = float(np.sqrt(np.mean(resid ** 2)))
    return FitResult(coeffs=OutflowCoeffs.from_array(beta), rmse=rmse,
                     n_samples=len(samples))


@dataclass
class Landing:
    """Flight parabolas of the mean outflow at a batch of samples.

    The liquid leaves the outflow centroid E with velocity V and follows
    C(t) = g/2 t^2 + V t + E.  ``t`` and ``point`` are NaN at samples whose
    parabola never reaches the target altitude.  The derivatives of the
    landing point are set only when asked for.
    """

    origin: np.ndarray            # (n, 3) outflow centroid E
    velocity: np.ndarray          # (n, 3) initial velocity V
    t: np.ndarray                 # (n,) flight time to the target altitude
    point: np.ndarray             # (n, 3) landing point C(t)
    table: dict                   # spill-table query at (theta, vol)
    d_theta: np.ndarray | None = None   # (n, 3) d point / d theta
    d_phi: np.ndarray | None = None     # (n, 3) d point / d phi
    d_pos: np.ndarray | None = None     # (n, 3, 3) d point / d position


def flight_landing(tables: GeomTables, thetas, phis, positions, vols, speeds,
                   o_t, jacobians: bool = False) -> Landing:
    """Where the outflow parabola of each sample meets the altitude of O_T.

    Each sample gives the leaning angle theta, the tilt azimuth phi, the
    container position, the remaining volume and the outflow speed.  The
    outflow direction lies in the tilt plane: horizontal below a 90-degree
    lean, then (sin theta, 0, cos theta); the centroid offset e(theta, vol)
    comes from the tables.  Both are turned by the azimuth rotation about
    world z.  The flight time is the smallest nonnegative root of
    <g, C(t) - O_T> = 0.  With ``jacobians`` the landing point is
    differentiated in theta, phi and position at fixed volume and speed,
    through the flight time as well.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    pos = np.asarray(positions, dtype=float).reshape(-1, 3)
    speeds = np.atleast_1d(np.asarray(speeds, dtype=float))
    o_t = np.asarray(o_t, dtype=float)
    q = tables.interp_many(thetas, vols)
    c, s = np.cos(phis), np.sin(phis)

    def turn(x, z):                 # R(phi) (x, 0, z)
        return np.stack([c * x, s * x, z], axis=-1)

    def turn_rate(x):               # dR/dphi (x, 0, z)
        return np.stack([-s * x, c * x, np.zeros_like(x)], axis=-1)

    tilt = np.maximum(thetas, 0.5 * math.pi)
    V = speeds[:, None] * turn(np.sin(tilt), np.cos(tilt))
    E = pos + turn(q["ex"], q["ez"])

    # <g, C(t) - O_T> = a2 t^2 + a1 t + a0 with g = (0, 0, -GRAVITY)
    a2 = 0.5 * GRAVITY * GRAVITY
    a1 = -GRAVITY * V[:, 2]
    a0 = -GRAVITY * (E[:, 2] - o_t[2])
    disc = a1 * a1 - 4.0 * a2 * a0
    sq = np.sqrt(np.maximum(disc, 0.0))
    lo = (-a1 - sq) / (2.0 * a2)
    hi = (-a1 + sq) / (2.0 * a2)
    t = np.where(lo >= -1e-12, lo, np.where(hi >= -1e-12, hi, np.nan))
    t = np.where(disc < 0, np.nan, np.maximum(t, 0.0))
    grav = np.array([0.0, 0.0, -GRAVITY])
    point = 0.5 * ((t * t)[:, None] * grav) + t[:, None] * V + E
    land = Landing(origin=E, velocity=V, t=t, point=point, table=q)
    if not jacobians:
        return land

    # a change dC of the curve at fixed t moves the landing by
    # dC + C'(t) dt, with dt from keeping <g, C(t) - O_T> = 0
    rate = t[:, None] * grav + V
    denom = rate @ grav
    steep = np.abs(denom) > 1e-9
    denom = np.where(steep, denom, 1.0)

    def landing_rate(dC):
        dt = np.where(steep, -(dC @ grav) / denom, 0.0)
        return dC + rate * dt[:, None]

    past = (thetas >= 0.5 * math.pi)[:, None]
    dV_dtheta = np.where(past, speeds[:, None]
                         * turn(np.cos(thetas), -np.sin(thetas)), 0.0)
    land.d_theta = landing_rate(t[:, None] * dV_dtheta
                                + turn(q["dex_dtheta"], q["dez_dtheta"]))
    land.d_phi = landing_rate(
        t[:, None] * speeds[:, None] * turn_rate(np.sin(tilt))
        + turn_rate(q["ex"]))
    dt_dpos = np.where(steep[:, None], -grav / denom[:, None], 0.0)
    land.d_pos = np.eye(3) + rate[:, :, None] * dt_dpos[:, None, :]
    return land
