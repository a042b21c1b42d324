"""Decoupled spacetime trajectory optimizer for pouring.

Alternates two updates: the fluid trajectory is refreshed by forward rollout
of the reduced model at every inner iteration, and the joint trajectory is
stepped by a damped SQP iteration whose QP subproblem combines a
Gauss-Newton expansion of the liquid-transfer objective, an exact Laplacian
smoothness Hessian, soft collision penalties (L1 slack or augmented
Lagrangian), hard joint/velocity limit rows, and Levenberg-Marquardt
damping.  Collision contacts are refreshed in the outer loop; damping
adapts on step quality, increasing on rejected steps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import collision as coll
from .fluid import (FluidState, FluidTrajectory, Landing, OutflowCoeffs,
                    flight_landing, rollout)
from .geometry import GeomTables
from .qp import QPProblem, solve_qp
from .robot import (KinematicChain, RobotTrajectory, forward_kinematics,
                    geom_world_poses, jacobians, lean_azimuth, point_jacobian)


@dataclass
class WorldModel:
    """Static obstacles, the target opening center, and the catch region."""

    obstacles: list                      # (name, shape, pose4x4)
    o_t: np.ndarray                      # target opening center (3,)
    target_region: np.ndarray | None = None   # 2D polygon in the pour plane

    def __post_init__(self):
        self.o_t = np.asarray(self.o_t, dtype=float)


@dataclass
class PlanningProblem:
    chain: KinematicChain
    world: WorldModel
    tables: GeomTables
    coeffs: OutflowCoeffs
    fluid0: FluidState
    n: int = 100
    tau: float = 8.0
    theta_final: float = 0.5 * math.pi
    penalty_mode: str = "al"             # "al" | "l1"
    q_start: np.ndarray | None = None
    q_prepour: np.ndarray | None = None
    weights: tuple = (1.0, 1.0, 0.1)     # transfer, guide, smoothness
    collision_margin: float = 0.005
    adjacency: set = field(default_factory=set)

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 trajectory samples")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.penalty_mode not in ("al", "l1"):
            raise ValueError("penalty_mode must be 'al' or 'l1'")
        if not np.all(np.isfinite(self.world.o_t)):
            raise ValueError("target opening center must be finite")

    @property
    def dt(self) -> float:
        return self.tau / (self.n - 1)


@dataclass
class SolverSettings:
    damping: float = 1.0                 # initial trust-region damping k
    eps: float = 1e-4                    # step max-norm convergence threshold
    eta: float = 10.0                    # L1 penalty weight
    mu: float = 100.0                    # AL quadratic weight
    max_outer: int = 60
    max_inner: int = 25
    qp_tol: float = 1e-10
    damping_min: float = 1e-8
    damping_max: float = 1e8
    penalty_max: float = 1e8

    def __post_init__(self):
        if self.damping <= 0 or self.eps <= 0 or self.eta <= 0 or self.mu <= 0:
            raise ValueError("damping, eps, eta, mu must be positive")


@dataclass
class PlanReport:
    converged: bool
    outer_iterations: int
    inner_iterations: int
    qp_iterations: int
    rejected_steps: int
    cost_transfer: float
    cost_guide: float
    cost_smoothness: float
    cost_penalty: float
    max_violation: float
    min_clearance: float
    predicted_pour_fraction: float
    clamp_events: int
    wall_time: float
    message: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# cost terms
# ---------------------------------------------------------------------------

def smoothness_cost(Q):
    """Joint-space Laplacian penalty with its exact constant Hessian."""
    Q = np.asarray(Q, dtype=float)
    n, dof = Q.shape
    if n < 3:
        raise ValueError("need at least 3 samples")
    lap = Q[:-2] - 2.0 * Q[1:-1] + Q[2:]
    value = 0.5 * float((lap ** 2).sum())
    D = np.zeros((n - 2, n))
    idx = np.arange(n - 2)
    D[idx, idx] = 1.0
    D[idx, idx + 1] = -2.0
    D[idx, idx + 2] = 1.0
    H_small = D.T @ D
    H = np.kron(H_small, np.eye(dof))
    grad = (H @ Q.reshape(-1)).reshape(n, dof)
    return value, grad, H


@dataclass
class TimestepKin:
    theta: float
    phi: float
    dtheta: np.ndarray
    dphi: np.ndarray
    pos: np.ndarray
    J_pos: np.ndarray
    fk: object


def kinematics_along(chain: KinematicChain, Q) -> list:
    out = []
    for q in np.asarray(Q, dtype=float):
        fk = forward_kinematics(chain, q)
        la = lean_azimuth(fk.container)
        jac = jacobians(chain, fk)
        out.append(TimestepKin(theta=la.theta, phi=la.phi,
                               dtheta=jac.dtheta_dq, dphi=jac.dphi_dq,
                               pos=fk.container[:3, 3], J_pos=jac.J_pos, fk=fk))
    return out


def landing_along(problem: PlanningProblem, kin, P: FluidTrajectory,
                  jacobians: bool = False) -> Landing:
    """Outflow landing at the target altitude for every trajectory sample."""
    return flight_landing(problem.tables, [k.theta for k in kin],
                          [k.phi for k in kin], [k.pos for k in kin],
                          P.vol, P.v_out, problem.world.o_t, jacobians)


def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
    n, dof, _ = blocks.shape
    H = np.zeros((n * dof, n * dof))
    H.reshape(n, dof, n, dof)[np.arange(n), :, np.arange(n), :] = blocks
    return H


def _transfer_terms(kin, P: FluidTrajectory, problem: PlanningProblem,
                    derivatives: bool = False):
    """Weighted transfer and guide values at a fixed fluid trajectory.

    With ``derivatives`` also their gradient (n, dof) and Gauss-Newton
    Hessian in flat Q; otherwise those two are None.
    """
    land = landing_along(problem, kin, P, jacobians=derivatives)
    A = land.table["A"]
    hit = np.isfinite(land.t)
    r = np.where(hit[:, None], land.point - problem.world.o_t, 0.0)
    r2 = (r * r).sum(axis=1)
    w_obj, w_guide, _ = problem.weights
    w = w_obj * np.maximum(A, 0.0)
    transfer = float(w @ r2)
    dth = kin[-1].theta - problem.theta_final
    guide = w_guide * dth * dth
    if not derivatives:
        return transfer, guide, None, None

    dtheta = np.array([k.dtheta for k in kin])            # (n, dof)
    dphi = np.array([k.dphi for k in kin])
    J_pos = np.array([k.J_pos for k in kin])              # (n, 3, dof)
    J_r = (land.d_theta[:, :, None] * dtheta[:, None, :]
           + land.d_phi[:, :, None] * dphi[:, None, :]
           + land.d_pos @ J_pos)
    J_r = np.where(hit[:, None, None], J_r, 0.0)
    grad = (w_obj * (land.table["dA_dtheta"] * r2)[:, None] * dtheta
            + 2.0 * w[:, None] * np.einsum("nkd,nk->nd", J_r, r))
    blocks = 2.0 * w[:, None, None] * np.einsum("nki,nkj->nij", J_r, J_r)
    grad[-1] += 2.0 * w_guide * dth * kin[-1].dtheta
    blocks[-1] += 2.0 * w_guide * np.outer(kin[-1].dtheta, kin[-1].dtheta)
    return transfer, guide, grad, _block_diagonal(blocks)


def transfer_objective(Q, P: FluidTrajectory, problem: PlanningProblem,
                       kin=None):
    """Liquid-transfer cost, gradient and Gauss-Newton Hessian in Q.

    The fluid trajectory P is held fixed (decoupled update).  Each timestep
    weights the squared miss distance of the flight parabola, evaluated
    where it reaches the target-opening altitude, by the outflow area; the
    final sample adds the guiding term pulling the leaning angle to its
    target.  The two pieces carry the problem's transfer and guide weights.
    Timesteps with zero area or no altitude crossing contribute nothing.
    Gradients flow through the leaning angle, azimuth and container
    position; the Hessian keeps only first-order residual terms so it stays
    positive semi-definite.
    """
    if kin is None:
        kin = kinematics_along(problem.chain, np.asarray(Q, dtype=float))
    transfer, guide, grad, H = _transfer_terms(kin, P, problem,
                                               derivatives=True)
    return transfer + guide, grad, H


@dataclass
class LinearContact:
    """One linearized separation constraint tied to a single timestep."""

    timestep: int
    sd: float                  # signed distance minus safety margin
    grad: np.ndarray           # d(sd)/dq at that timestep (dof,)
    key: tuple                 # persistent identity across outer iterations


@dataclass
class PenaltyQP:
    """A penalty as QP terms in x = [q, t]: 1/2 x'Hx + g'x + const subject
    to A x >= b and t >= 0, with the slacks that minimize it at the anchor."""

    H: np.ndarray
    g: np.ndarray
    const: float
    A: np.ndarray
    b: np.ndarray
    slacks: np.ndarray


@dataclass
class PenaltyModel:
    """Soft penalty on linearized separation constraints c = sd + G dq >= 0.

    dq is the flat trajectory change from the linearization point.  L1
    charges eta * max(0, -c).  AL charges mu u^2 - lambda u at the best
    slack t >= 0, u = c - t: mu c^2 - lambda c below c = lambda / (2 mu) and
    -lambda^2 / (4 mu) above it.  The merit, its gradient and the QP terms
    all come from these formulas.
    """

    mode: str
    sd: np.ndarray             # (m,) constraint values at the linearization
    G: np.ndarray              # (m, n*dof) constraint gradients
    eta: float
    mu: float
    lambdas: np.ndarray        # (m,) AL multipliers

    def merit(self, dq_flat) -> float:
        c = self.sd + self.G @ dq_flat
        if self.mode == "l1":
            return float(self.eta * np.maximum(0.0, -c).sum())
        lam, mu = self.lambdas, self.mu
        return float(np.where(c >= lam / (2.0 * mu), -lam ** 2 / (4.0 * mu),
                              mu * c ** 2 - lam * c).sum())

    @property
    def value(self) -> float:
        """Merit at the linearization point."""
        return self.merit(np.zeros(self.G.shape[1]))

    @property
    def grad(self) -> np.ndarray:
        """Merit gradient in flat Q at the linearization point."""
        c = self.sd
        if self.mode == "l1":
            dpen = np.where(c < 0.0, -self.eta, 0.0)
        else:
            dpen = np.where(c < self.lambdas / (2.0 * self.mu),
                            2.0 * self.mu * c - self.lambdas, 0.0)
        return dpen @ self.G

    def qp_terms(self, q_anchor, damping: float = 0.0) -> PenaltyQP:
        """The penalty as QP terms with constraints c = sd + G (q - q_anchor).

        L1 adds the slack cost eta * t and rows G q + t >= -(sd - G q_anchor).
        AL adds mu u^2 - lambda u for u = [G, -I] x + sd - G q_anchor, as one
        product of that matrix with itself.  The slacks minimize the terms at
        q = q_anchor; for AL they include the ``damping`` the QP puts on
        every diagonal entry.
        """
        m, nq = self.G.shape
        b = self.sd - self.G @ q_anchor
        if self.mode == "l1":
            return PenaltyQP(
                H=np.zeros((nq + m, nq + m)),
                g=np.concatenate([np.zeros(nq), np.full(m, self.eta)]),
                const=0.0, A=np.hstack([self.G, np.eye(m)]), b=-b,
                slacks=np.maximum(0.0, -self.sd))
        lam, mu = self.lambdas, self.mu
        U = np.hstack([self.G, -np.eye(m)])
        return PenaltyQP(
            H=2.0 * mu * (U.T @ U), g=U.T @ (2.0 * mu * b - lam),
            const=float(mu * b @ b - lam @ b), A=np.zeros((0, nq + m)),
            b=np.zeros(0),
            slacks=np.maximum(0.0, (2.0 * mu * self.sd - lam)
                              / (2.0 * mu + damping)))


def collision_penalty(lin_contacts, mode: str, params, n: int,
                      dof: int) -> PenaltyModel:
    """Soft-penalty model of the linearized separation constraints.

    ``params`` carries eta (L1 weight), mu (AL weight) and per-contact
    multipliers lambdas.
    """
    m = len(lin_contacts)
    G = np.zeros((m, n * dof))
    steps = np.array([lc.timestep for lc in lin_contacts], dtype=int)
    G[np.arange(m)[:, None], steps[:, None] * dof + np.arange(dof)] = \
        np.reshape([lc.grad for lc in lin_contacts], (m, dof))
    return PenaltyModel(
        mode=mode, sd=np.array([lc.sd for lc in lin_contacts], dtype=float),
        G=G, eta=float(params.get("eta", 1.0)),
        mu=float(params.get("mu", 1.0)),
        lambdas=np.asarray(params.get("lambdas", np.zeros(m)), dtype=float))


@dataclass
class PenaltySchedule:
    """Penalty weights and AL multipliers carried across outer iterations.

    Each refresh raises the active weight tenfold, up to ``cap``, when the
    summed violation did not at least halve since the last refresh.  In AL
    mode every contact then updates the multiplier of its (body, obstacle)
    pair as lambda <- max(0, lambda - 2 mu sd).
    """

    mode: str
    eta: float
    mu: float
    cap: float
    multipliers: dict = field(default_factory=dict)
    v_prev: float | None = None

    def refresh(self, contacts, n: int, dof: int) -> PenaltyModel:
        violation = float(sum(max(0.0, -lc.sd) for lc in contacts))
        if (self.v_prev is not None and violation > 1e-9
                and violation > 0.5 * self.v_prev):
            if self.mode == "l1":
                self.eta = min(self.eta * 10.0, self.cap)
            else:
                self.mu = min(self.mu * 10.0, self.cap)
        if self.mode == "al":
            for lc in contacts:
                key = lc.key[1:]
                lam = self.multipliers.get(key, 0.0)
                self.multipliers[key] = max(0.0, lam - 2.0 * self.mu * lc.sd)
        self.v_prev = violation
        return self.model(contacts, n, dof)

    def model(self, contacts, n: int, dof: int) -> PenaltyModel:
        lambdas = np.array([self.multipliers.get(lc.key[1:], 0.0)
                            for lc in contacts])
        return collision_penalty(contacts, self.mode,
                                 {"eta": self.eta, "mu": self.mu,
                                  "lambdas": lambdas}, n, dof)


# ---------------------------------------------------------------------------
# contact gathering
# ---------------------------------------------------------------------------

def gather_contacts(problem: PlanningProblem, Q, kin=None):
    """Deepest contact per (body, obstacle) pair and timestep, linearized.

    The separation value is shifted by the safety margin so the constraint
    reads sd - margin >= 0.  The gradient treats both witness points as
    rigidly attached to their bodies.
    """
    Q = np.asarray(Q, dtype=float)
    if kin is None:
        kin = kinematics_along(problem.chain, Q)
    margin = problem.collision_margin
    out = []
    geoms = problem.chain.link_geoms
    for i, k in enumerate(kin):
        bodies = geom_world_poses(problem.chain, k.fk)
        contacts = coll.deepest_contacts(problem.world.obstacles, bodies,
                                         margin=2.0 * margin + 0.02,
                                         adjacency=problem.adjacency)
        for c in contacts:
            body_names = [b[0] for b in bodies]
            link_a = geoms[body_names.index(c.body_a)].link
            J_a = point_jacobian(problem.chain, k.fk, link_a, c.a)
            if c.body_b in body_names:
                link_b = geoms[body_names.index(c.body_b)].link
                J_b = point_jacobian(problem.chain, k.fk, link_b, c.b)
            else:
                J_b = np.zeros_like(J_a)
            grad = c.n @ (J_a - J_b)
            out.append(LinearContact(timestep=i,
                                     sd=c.signed_distance - margin,
                                     grad=grad,
                                     key=(i, c.body_a, c.body_b)))
    return out


def min_clearance_along(problem: PlanningProblem, Q, kin=None) -> float:
    """Smallest raw separation over all timesteps and checked pairs."""
    if kin is None:
        kin = kinematics_along(problem.chain, np.asarray(Q, dtype=float))
    worst = np.inf
    for k in kin:
        bodies = geom_world_poses(problem.chain, k.fk)
        sep = coll.min_separation(problem.world.obstacles, bodies,
                                  adjacency=problem.adjacency)
        worst = min(worst, sep)
    return float(worst)


# ---------------------------------------------------------------------------
# the planner
# ---------------------------------------------------------------------------

def default_initial_trajectory(problem: PlanningProblem) -> np.ndarray:
    """Straight joint-space ramp from the start pose to the pre-pour pose."""
    if problem.q_start is None or problem.q_prepour is None:
        raise ValueError("problem must provide q_start and q_prepour")
    w = np.linspace(0.0, 1.0, problem.n)[:, None]
    return (1.0 - w) * problem.q_start[None, :] + w * problem.q_prepour[None, :]


def _rollout_for(problem: PlanningProblem, kin) -> FluidTrajectory:
    thetas = np.array([k.theta for k in kin])
    return rollout(problem.fluid0, thetas, problem.dt, problem.tables,
                   problem.coeffs)


def _merit(problem, Q, kin, pen: PenaltyModel, q_ref) -> float:
    """True merit at Q with its own fluid rollout."""
    P = _rollout_for(problem, kin)
    transfer, guide, _, _ = _transfer_terms(kin, P, problem)
    reg, _, _ = smoothness_cost(Q)
    return transfer + guide + problem.weights[2] * reg + pen.merit(
        Q.reshape(-1) - q_ref)


@dataclass
class _Limits:
    """Hard QP constraints on the joints: bounds with the first sample
    pinned, and velocity rows -vmax dt <= q_{i+1} - q_i <= vmax dt."""

    lb: np.ndarray
    ub: np.ndarray
    A: np.ndarray
    c: np.ndarray

    @classmethod
    def build(cls, problem: PlanningProblem, q_first) -> "_Limits":
        n, dof = problem.n, problem.chain.dof
        lb = np.tile(problem.chain.lower, n)
        ub = np.tile(problem.chain.upper, n)
        lb[:dof] = ub[:dof] = q_first
        diff = np.eye(n * dof, k=dof)[:-dof] - np.eye(n * dof)[:-dof]
        A = np.stack([diff, -diff], axis=1).reshape(-1, n * dof)
        c = np.repeat(np.tile(-problem.chain.v_max * problem.dt, n - 1), 2)
        return cls(lb=lb, ub=ub, A=A, c=c)


def _qp_model(H_q, g_q, qf, pen: PenaltyModel, damping: float,
              limits: _Limits):
    """Damped QP in x = [q, t] around the current point qf.

    Joins the quadratic model of the smooth terms, the penalty's QP terms
    and the hard limits; Levenberg-Marquardt damping goes on the whole
    diagonal.  Returns the problem and the penalty's slacks at qf.
    """
    terms = pen.qp_terms(qf, damping)
    N, m = len(qf), len(terms.slacks)
    H = terms.H
    H[:N, :N] += H_q
    H[np.diag_indices(N + m)] += damping
    g = terms.g
    g[:N] += g_q - H_q @ qf
    qp = QPProblem(
        H=H, g=g, lb=np.concatenate([limits.lb, np.zeros(m)]),
        ub=np.concatenate([limits.ub, np.full(m, np.inf)]),
        A=np.vstack([np.hstack([limits.A, np.zeros((len(limits.A), m))]),
                     terms.A]),
        c=np.concatenate([limits.c, terms.b]))
    return qp, terms.slacks


def plan(problem: PlanningProblem, settings: SolverSettings | None = None,
         Q0=None):
    """Run the decoupled spacetime optimization.

    Outer iterations refresh collision contacts and penalty schedules;
    inner iterations refresh the fluid rollout, build the damped QP model,
    solve it and accept or reject the step by the trust-region ratio of
    true to predicted merit decrease.
    Returns (RobotTrajectory, FluidTrajectory, PlanReport).
    """
    settings = settings or SolverSettings()
    t0 = time.perf_counter()
    n, dof = problem.n, problem.chain.dof
    Q = np.asarray(default_initial_trajectory(problem) if Q0 is None else Q0,
                   dtype=float).copy()
    if Q.shape != (n, dof):
        raise ValueError(f"Q0 must have shape ({n}, {dof})")
    lo, hi = problem.chain.lower, problem.chain.upper
    if np.any(Q < lo - 1e-12) or np.any(Q > hi + 1e-12):
        raise ValueError("initial trajectory violates joint limits")

    w_reg = problem.weights[2]
    _, _, H_reg = smoothness_cost(Q)
    limits = _Limits.build(problem, Q[0])
    schedule = PenaltySchedule(problem.penalty_mode, settings.eta,
                               settings.mu, settings.penalty_max)
    damping = settings.damping
    outer_used = inner_total = qp_iters = rejected = 0
    converged = False
    kin = kinematics_along(problem.chain, Q)

    for outer in range(1, settings.max_outer + 1):
        outer_used = outer
        q_ref = Q.reshape(-1).copy()
        pen = schedule.refresh(gather_contacts(problem, Q, kin), n, dof)

        for _ in range(settings.max_inner):
            inner_total += 1
            # the QP model at Q, and the true merit there
            qf = Q.reshape(-1)
            P = _rollout_for(problem, kin)
            val_t, grad_t, H_t = transfer_objective(Q, P, problem, kin)
            reg, grad_reg, _ = smoothness_cost(Q)
            m_cur = val_t + w_reg * reg + pen.merit(qf - q_ref)
            H_q = H_t + w_reg * H_reg
            qp, slacks = _qp_model(
                H_q, grad_t.reshape(-1) + w_reg * grad_reg.reshape(-1), qf,
                pen, damping, limits)

            x0 = np.concatenate([qf, np.zeros(len(slacks))])
            sol = solve_qp(qp, x0=x0, tol=settings.qp_tol)
            qp_iters += sol.iterations
            Q_star = sol.x[:n * dof].reshape(n, dof)
            if float(np.abs(Q_star - Q).max()) < settings.eps:
                break

            # trust-region test: true against predicted decrease
            kin_star = kinematics_along(problem.chain, Q_star)
            m_new = _merit(problem, Q_star, kin_star, pen, q_ref)
            x_cur = np.concatenate([qf, slacks])
            model_cur = float(0.5 * x_cur @ qp.H @ x_cur + qp.g @ x_cur)
            model_new = float(0.5 * sol.x @ qp.H @ sol.x + qp.g @ sol.x)
            denom = model_cur - model_new
            rho = (m_cur - m_new) / denom if denom > 1e-15 else \
                (1.0 if m_new < m_cur else -1.0)

            if rho > 0.0:
                Q = Q_star
                kin = kin_star
                if rho > 0.75:
                    damping = max(damping * 0.5, settings.damping_min)
                elif rho < 0.25:
                    damping = min(damping * 2.0, settings.damping_max)
            else:
                rejected += 1
                damping = min(damping * 2.0, settings.damping_max)
                if damping >= settings.damping_max:
                    break

        if float(np.abs(Q.reshape(-1) - q_ref).max()) < settings.eps \
                and outer > 1:
            converged = True
            break

    P = _rollout_for(problem, kin)
    transfer, guide, _, _ = _transfer_terms(kin, P, problem)
    reg, _, _ = smoothness_cost(Q)
    pen = schedule.model(gather_contacts(problem, Q, kin), n, dof)
    report = PlanReport(
        converged=converged,
        outer_iterations=outer_used,
        inner_iterations=inner_total,
        qp_iterations=qp_iters,
        rejected_steps=rejected,
        cost_transfer=transfer,
        cost_guide=float(guide),
        cost_smoothness=float(reg),
        cost_penalty=pen.value,
        max_violation=float(np.maximum(0.0, -pen.sd).max(initial=0.0)),
        min_clearance=min_clearance_along(problem, Q, kin),
        predicted_pour_fraction=float(1.0 - P.vol[-1] / max(P.vol[0], 1e-30)),
        clamp_events=P.clamp_events,
        wall_time=time.perf_counter() - t0,
        message="" if converged else
        "outer iteration cap reached without convergence",
    )
    return RobotTrajectory(Q=Q, tau=problem.tau), P, report
