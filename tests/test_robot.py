import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pourplan import presets as PR
from pourplan import robot as R


@pytest.fixture(scope="module")
def arm():
    return PR.default_arm()


class TestForwardKinematics:
    def test_home_pose_is_offset_composition(self, arm):
        fk = R.forward_kinematics(arm, np.zeros(arm.dof))
        T = arm.base.copy()
        for j in arm.joints:
            T = T @ j.origin
        assert fk.ee == pytest.approx(T)

    def test_single_revolute_quarter_turn(self):
        chain = R.KinematicChain(
            joints=[R.Joint("revolute", (0, 0, 1), R.transform(),
                            -math.pi, math.pi, 1.0)],
            grasp=R.transform((1.0, 0, 0)))
        fk = R.forward_kinematics(chain, np.array([math.pi / 2]))
        assert fk.container[:3, 3] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_dimension_mismatch(self, arm):
        with pytest.raises(ValueError, match="joint values"):
            R.forward_kinematics(arm, np.zeros(arm.dof + 1))

    def test_rigidity(self, arm):
        # pairwise distances of points tied to one link are q-invariant
        rng = np.random.default_rng(0)
        local = rng.uniform(-0.1, 0.1, size=(4, 3))
        dists = None
        for _ in range(10):
            q = rng.uniform(arm.lower, arm.upper)
            fk = R.forward_kinematics(arm, q)
            T = fk.link_poses[2]
            world = (T[:3, :3] @ local.T).T + T[:3, 3]
            d = np.linalg.norm(world[:, None] - world[None, :], axis=-1)
            if dists is None:
                dists = d
            assert d == pytest.approx(dists, abs=1e-12)


class TestLeanAzimuth:
    def test_upright(self):
        la = R.lean_azimuth(np.eye(4))
        assert la.theta == 0.0 and la.phi == 0.0

    def test_tilt_toward_x(self):
        la = R.lean_azimuth(R.transform(rpy=(0, math.pi / 2, 0)))
        assert la.theta == pytest.approx(math.pi / 2)
        assert la.phi == pytest.approx(0.0, abs=1e-12)

    def test_tilt_toward_minus_y(self):
        a = np.array([0, -math.sin(2 * math.pi / 3), math.cos(2 * math.pi / 3)])
        P = np.eye(4)
        P[:3, 2] = a
        la = R.lean_azimuth(P)
        assert la.theta == pytest.approx(2 * math.pi / 3, rel=1e-12)
        assert la.phi == pytest.approx(-math.pi / 2, rel=1e-12)


class TestJacobians:
    def test_matches_finite_differences(self, arm):
        rng = np.random.default_rng(2)
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            q = rng.uniform(0.9 * arm.lower, 0.9 * arm.upper)
            jac = R.jacobians(arm, R.forward_kinematics(arm, q))
            if jac.degenerate:
                continue
            for k in range(arm.dof):
                qp, qm = q.copy(), q.copy()
                qp[k] += h
                qm[k] -= h
                fp = R.forward_kinematics(arm, qp)
                fm = R.forward_kinematics(arm, qm)
                dpos = (fp.container[:3, 3] - fm.container[:3, 3]) / (2 * h)
                lp, lm = R.lean_azimuth(fp.container), R.lean_azimuth(fm.container)
                dth = (lp.theta - lm.theta) / (2 * h)
                err = max(
                    float(np.abs(dpos - jac.J_pos[:, k]).max()) / max(1.0, np.abs(dpos).max()),
                    abs(dth - jac.dtheta_dq[k]) / max(1.0, abs(dth)),
                )
                dphi = lp.phi - lm.phi
                if abs(dphi) < 1.0:  # skip azimuth wraparound
                    err = max(err, abs(dphi / (2 * h) - jac.dphi_dq[k])
                              / max(1.0, abs(dphi / (2 * h))))
                worst = max(worst, err)
        assert worst <= 1e-5

    def test_prismatic_column_is_axis(self):
        chain = R.KinematicChain(
            joints=[R.Joint("prismatic", (0, 0, 1), R.transform(),
                            -1.0, 1.0, 1.0),
                    R.Joint("revolute", (0, 1, 0), R.transform((0.3, 0, 0)),
                            -2.0, 2.0, 1.0)])
        fk = R.forward_kinematics(chain, np.array([0.2, 0.4]))
        jac = R.jacobians(chain, fk)
        assert jac.J_ee[:3, 0] == pytest.approx(fk.joint_axes[0])
        assert jac.J_ee[3:, 0] == pytest.approx([0.0, 0.0, 0.0])

    def test_vertical_axis_flags_degenerate(self, arm):
        jac = R.jacobians(arm, R.forward_kinematics(arm, np.zeros(arm.dof)))
        assert jac.degenerate
        assert np.all(jac.dphi_dq == 0.0)

    @given(seed=st.integers(0, 10 ** 6))
    def test_lean_continuity_away_from_vertical(self, arm, seed):
        rng = np.random.default_rng(seed)
        q = rng.uniform(0.8 * arm.lower, 0.8 * arm.upper)
        fk = R.forward_kinematics(arm, q)
        la = R.lean_azimuth(fk.container)
        if la.theta < 0.1:
            return
        dq = rng.normal(size=arm.dof)
        dq *= 1e-6 / np.linalg.norm(dq)
        la2 = R.lean_azimuth(R.forward_kinematics(arm, q + dq).container)
        assert abs(la2.theta - la.theta) < 1e-4


class TestTrajectoryType:
    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            R.RobotTrajectory(Q=np.zeros((2, 3)), tau=1.0)

    def test_dt(self):
        traj = R.RobotTrajectory(Q=np.zeros((5, 2)), tau=2.0)
        assert traj.dt == pytest.approx(0.5)
        assert traj.times[-1] == pytest.approx(2.0)


class TestSolveReach:
    def test_position_and_tilt(self, arm):
        target = np.array([0.35, 0.05, 0.25])
        q = R.solve_reach(arm, target, math.radians(70), 0.2,
                          np.array([0.2, -0.4, 0.3, 1.0, 0.0, 0.0]))
        fk = R.forward_kinematics(arm, q)
        la = R.lean_azimuth(fk.container)
        assert fk.container[:3, 3] == pytest.approx(target, abs=2e-3)
        assert la.theta == pytest.approx(math.radians(70), abs=0.02)
