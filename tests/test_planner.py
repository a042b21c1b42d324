import math

import numpy as np
import pytest

from pourplan import planner as PL
from pourplan import presets as PR
from pourplan import robot as rb
from pourplan.fluid import FluidState, OutflowCoeffs, rollout
from pourplan.planner import (LinearContact, PlanningProblem, SolverSettings,
                              WorldModel, collision_penalty, plan,
                              smoothness_cost, transfer_objective)


@pytest.fixture(scope="module")
def small_problem(cylinder_tables):
    """Benchmark problem shrunk to a fast size."""
    prob = PR.block_benchmark(cylinder_tables,
                              PR.reference_coeffs("cylinder"),
                              n=20, tau=6.0)
    return prob


def fd_gradient(fun, Q, h=1e-6):
    g = np.zeros_like(Q)
    for i in range(Q.shape[0]):
        for d in range(Q.shape[1]):
            Qp, Qm = Q.copy(), Q.copy()
            Qp[i, d] += h
            Qm[i, d] -= h
            g[i, d] = (fun(Qp) - fun(Qm)) / (2 * h)
    return g


class TestSmoothness:
    def test_linear_trajectory_zero(self):
        Q = np.outer(np.linspace(0, 1, 9), np.array([1.0, -2.0, 0.5]))
        v, g, H = smoothness_cost(Q)
        assert v == pytest.approx(0.0, abs=1e-24)

    def test_single_kink_value(self):
        v, _, _ = smoothness_cost(np.array([[0.0], [1.0], [0.0]]))
        assert v == pytest.approx(2.0)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        Q = rng.normal(size=(7, 3))
        _, g, H = smoothness_cost(Q)
        fd = fd_gradient(lambda q: smoothness_cost(q)[0], Q)
        assert np.abs(g - fd).max() <= 1e-8 * max(1.0, np.abs(fd).max())

    def test_hessian_consistent(self):
        rng = np.random.default_rng(1)
        Q = rng.normal(size=(6, 2))
        v, g, H = smoothness_cost(Q)
        q = Q.reshape(-1)
        assert v == pytest.approx(0.5 * q @ H @ q, rel=1e-12)


class TestTransferObjective:
    def test_no_outflow_reduces_to_guide(self, small_problem):
        prob = small_problem
        # upright everywhere: zero area, objective = guide term only
        Q = np.tile(prob.q_start, (prob.n, 1))
        kin = PL.kinematics_along(prob.chain, Q)
        P = rollout(prob.fluid0, np.array([k.theta for k in kin]), prob.dt,
                    prob.tables, prob.coeffs)
        v, g, H = transfer_objective(Q, P, prob)
        dth = kin[-1].theta - prob.theta_final
        assert v == pytest.approx(prob.weights[1] * dth * dth, rel=1e-9)

    def test_gradient_matches_fd(self, small_problem):
        prob = small_problem
        rng = np.random.default_rng(3)
        worst = 0.0
        checked = 0
        Q0 = PL.default_initial_trajectory(prob)
        while checked < 8:
            Q = Q0 + rng.normal(scale=0.02, size=Q0.shape)
            Q = np.clip(Q, prob.chain.lower, prob.chain.upper)
            kin = PL.kinematics_along(prob.chain, Q)
            P = rollout(prob.fluid0, np.array([k.theta for k in kin]),
                        prob.dt, prob.tables, prob.coeffs)
            v, g, _ = transfer_objective(Q, P, prob)
            if v <= 1e-12:
                continue
            fd = fd_gradient(
                lambda q: transfer_objective(q, P, prob)[0], Q, h=1e-7)
            scale = max(np.abs(fd).max(), 1e-9)
            worst = max(worst, float(np.abs(g - fd).max()) / scale)
            checked += 1
        assert worst <= 1e-4

    def test_hessian_is_psd(self, small_problem):
        prob = small_problem
        Q = PL.default_initial_trajectory(prob)
        kin = PL.kinematics_along(prob.chain, Q)
        P = rollout(prob.fluid0, np.array([k.theta for k in kin]), prob.dt,
                    prob.tables, prob.coeffs)
        _, _, H = transfer_objective(Q, P, prob)
        eig = np.linalg.eigvalsh(0.5 * (H + H.T))
        assert eig.min() >= -1e-9


class TestCollisionPenalty:
    def contact(self, i, sd, grad, dof=3):
        g = np.zeros(dof)
        g[:len(grad)] = grad
        return LinearContact(timestep=i, sd=sd, grad=g, key=(i, "a", "b"))

    def test_no_contacts_zero(self):
        model = collision_penalty([], "l1", {"eta": 10.0}, n=4, dof=3)
        assert model.value == 0.0
        assert np.all(model.grad == 0.0)

    def test_l1_value(self):
        model = collision_penalty([self.contact(1, -0.01, [1.0])], "l1",
                                  {"eta": 10.0}, n=4, dof=3)
        assert model.value == pytest.approx(0.1)

    def test_al_value_zero_multiplier(self):
        model = collision_penalty(
            [self.contact(0, -0.01, [1.0])], "al",
            {"mu": 100.0, "lambdas": np.zeros(1)}, n=2, dof=3)
        assert model.value == pytest.approx(0.01)

    def test_al_value_with_multiplier(self):
        # c above lambda/(2 mu): analytic minimum over the slack
        model = collision_penalty(
            [self.contact(0, 0.5, [1.0])], "al",
            {"mu": 10.0, "lambdas": np.array([2.0])}, n=2, dof=3)
        assert model.value == pytest.approx(-(2.0 ** 2) / (4 * 10.0))

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        n, dof = 5, 3
        contacts = [
            LinearContact(timestep=int(rng.integers(n)),
                          sd=float(rng.uniform(-0.05, 0.05)),
                          grad=rng.normal(size=dof),
                          key=(i, "a", "b"))
            for i in range(6)
        ]
        for mode, params in (("l1", {"eta": 7.0}),
                             ("al", {"mu": 40.0,
                                     "lambdas": rng.uniform(0, 2, 6)})):
            model = collision_penalty(contacts, mode, params, n, dof)
            dq0 = np.zeros(n * dof)

            def value_at(dq):
                return model.merit(dq)

            h = 1e-7
            worst = 0.0
            for j in range(n * dof):
                dp, dm = dq0.copy(), dq0.copy()
                dp[j] += h
                dm[j] -= h
                fd = (value_at(dp) - value_at(dm)) / (2 * h)
                worst = max(worst, abs(fd - model.grad[j]) / max(1.0, abs(fd)))
            assert worst <= 1e-4, mode

    def test_qp_terms_equal_merit_at_anchor(self):
        # with no damping and its own slacks, the QP model of the penalty
        # at the anchor must equal the merit there, row constraints held
        rng = np.random.default_rng(7)
        n, dof = 6, 3
        for trial in range(20):
            m = int(rng.integers(1, 9))
            contacts = [
                LinearContact(timestep=int(rng.integers(n)),
                              sd=float(rng.uniform(-0.05, 0.05)),
                              grad=rng.normal(size=dof), key=(j, "a", "b"))
                for j in range(m)]
            q_anchor = rng.normal(size=n * dof)
            for mode, params in (("l1", {"eta": 7.0}),
                                 ("al", {"mu": 40.0,
                                         "lambdas": rng.uniform(0, 4, m)})):
                model = collision_penalty(contacts, mode, params, n, dof)
                qp = model.qp_terms(q_anchor, damping=0.0)
                x = np.concatenate([q_anchor, qp.slacks])
                value = 0.5 * x @ qp.H @ x + qp.g @ x + qp.const
                assert value == pytest.approx(model.merit(np.zeros(n * dof)),
                                              rel=1e-9, abs=1e-12), mode
                assert np.all(qp.slacks >= 0.0)
                assert np.all(qp.A @ x >= qp.b - 1e-12), mode

    def test_qp_slacks_minimize_the_terms(self):
        # at the anchor no other nonnegative slack gives a lower QP value
        rng = np.random.default_rng(8)
        n, dof, m = 4, 2, 5
        contacts = [LinearContact(timestep=int(rng.integers(n)),
                                  sd=float(rng.uniform(-0.05, 0.05)),
                                  grad=rng.normal(size=dof), key=(j, "a", "b"))
                    for j in range(m)]
        q_anchor = rng.normal(size=n * dof)
        for mode, params in (("l1", {"eta": 3.0}),
                             ("al", {"mu": 25.0,
                                     "lambdas": rng.uniform(0, 2, m)})):
            model = collision_penalty(contacts, mode, params, n, dof)
            qp = model.qp_terms(q_anchor)

            def value(t):
                x = np.concatenate([q_anchor, t])
                return 0.5 * x @ qp.H @ x + qp.g @ x

            best = value(qp.slacks)
            for _ in range(200):
                t = np.maximum(0.0, qp.slacks + rng.normal(scale=0.02, size=m))
                x = np.concatenate([q_anchor, t])
                if np.all(qp.A @ x >= qp.b - 1e-12):
                    assert value(t) >= best - 1e-12, mode


class TestPlan:
    def test_already_optimal_fixed_point(self, cylinder_tables):
        # constant pose, tilt equal to the target, no outflow, no obstacles
        chain = PR.default_arm()
        q_hold = PR.BENCH_Q_START.copy()
        fk = rb.forward_kinematics(chain, q_hold)
        theta_hold = rb.lean_azimuth(fk.container).theta
        world = WorldModel(obstacles=[], o_t=np.array([0.5, 0.0, 0.1]))
        prob = PlanningProblem(
            chain=chain, world=world, tables=cylinder_tables,
            coeffs=PR.reference_coeffs("cylinder"),
            fluid0=FluidState(vol=0.3 * cylinder_tables.v_max),
            n=12, tau=4.0, theta_final=theta_hold,
            q_start=q_hold, q_prepour=q_hold,
            adjacency=PR.arm_adjacency())
        traj, fluid, report = plan(prob, SolverSettings(max_outer=10))
        assert report.converged
        assert report.outer_iterations <= 2
        assert np.abs(traj.Q - q_hold[None, :]).max() <= 1e-4
        assert np.all(fluid.vol == fluid.vol[0])

    def test_guiding_term_drives_tilt(self, cylinder_tables):
        # start far from the target angle with zero outflow everywhere:
        # the guide term must still pull the final sample toward it
        chain = PR.default_arm()
        world = WorldModel(obstacles=[], o_t=np.array([0.45, 0.0, 0.12]))
        prob = PlanningProblem(
            chain=chain, world=world, tables=cylinder_tables,
            coeffs=PR.reference_coeffs("cylinder"),
            fluid0=FluidState(vol=0.4 * cylinder_tables.v_max),
            n=14, tau=5.0, theta_final=math.radians(105.0),
            q_start=PR.BENCH_Q_START.copy(),
            q_prepour=PR.BENCH_Q_START.copy(),   # no initial ramp at all
            adjacency=PR.arm_adjacency())
        traj, fluid, report = plan(prob, SolverSettings(max_outer=40,
                                                        max_inner=30))
        kin = PL.kinematics_along(chain, traj.Q)
        theta0 = PL.kinematics_along(chain, traj.Q[:1])[0].theta
        gap_before = abs(theta0 - prob.theta_final)
        gap_after = abs(kin[-1].theta - prob.theta_final)
        assert gap_after < math.radians(25.0)
        assert gap_after < gap_before - math.radians(40.0)
        assert fluid.vol[-1] < fluid.vol[0]  # outflow actually began

    @pytest.mark.slow
    def test_block_benchmark_small(self, small_problem):
        traj, fluid, report = plan(small_problem,
                                   SolverSettings(max_outer=60, max_inner=25))
        assert report.converged
        assert report.min_clearance >= 0.0
        dq = np.abs(np.diff(traj.Q, axis=0)) / small_problem.dt
        assert np.all(dq <= small_problem.chain.v_max[None, :] * (1 + 1e-9))
        assert np.all(traj.Q >= small_problem.chain.lower - 1e-12)
        assert np.all(traj.Q <= small_problem.chain.upper + 1e-12)
        assert report.predicted_pour_fraction > 0.8

    def test_rejects_bad_initial(self, small_problem):
        Q0 = PL.default_initial_trajectory(small_problem)
        Q0[3] = small_problem.chain.upper + 1.0
        with pytest.raises(ValueError, match="joint limits"):
            plan(small_problem, Q0=Q0)
