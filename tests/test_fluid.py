import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pourplan import fluid as F
from pourplan import geometry as G

GRAV = 9.81


class TestBernoulli:
    def test_zero_head(self):
        assert F.bernoulli_speed(0.0) == 0.0

    def test_reference_value(self):
        assert F.bernoulli_speed(0.05) == pytest.approx(0.9905, abs=1e-4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            F.bernoulli_speed(-0.01)


class TestOutflowSpeed:
    def test_zero_model(self, cylinder_tables):
        v = F.outflow_speed(F.OutflowCoeffs(), 1.6, 1e-4, cylinder_tables)
        assert v == 0.0

    def test_pure_head_term_matches_bernoulli(self, cylinder_tables):
        theta, vol = math.radians(110), 0.3 * cylinder_tables.v_max
        dh = cylinder_tables.interp_many(theta, vol)["dh"][0]
        v = F.outflow_speed(F.OutflowCoeffs(a=1.0), theta, vol, cylinder_tables)
        assert v == pytest.approx(F.bernoulli_speed(dh), rel=1e-12)

    def test_slide_terms_dead_below_horizontal(self, cylinder_tables):
        theta = math.radians(60)
        vol = 0.9 * cylinder_tables.v_max
        for coeffs in (F.OutflowCoeffs(d=2.0), F.OutflowCoeffs(e=1.0),
                       F.OutflowCoeffs(f=-3.0)):
            assert F.outflow_speed(coeffs, theta, vol, cylinder_tables) == 0.0

    def test_clamped_nonnegative(self, cylinder_tables):
        v = F.outflow_speed(F.OutflowCoeffs(a=-5.0), math.radians(110),
                            0.5 * cylinder_tables.v_max, cylinder_tables)
        assert v == 0.0


class TestStep:
    """One forward-Euler step: a two-sample rollout."""

    @staticmethod
    def step(vol, theta_next, dt, tables, coeffs):
        traj = F.rollout(F.FluidState(vol=vol), [0.0, theta_next], dt, tables,
                         coeffs)
        return traj.vol[1], traj.v_out[1]

    def test_no_outflow_section_keeps_volume(self, cylinder_tables):
        vol0 = 0.3 * cylinder_tables.v_max
        vol, _ = self.step(vol0, math.radians(10), 0.05, cylinder_tables,
                           F.OutflowCoeffs(a=1.0, d=1.0))
        assert vol == vol0

    def test_forward_euler_arithmetic(self, synthetic_tables):
        # A = 2e-4 at (theta=0.1, vol=1e-5); force v = 0.5 via the head term
        tab = synthetic_tables
        dh = tab.interp_many(0.1, 1.0e-5)["dh"][0]
        coeffs = F.OutflowCoeffs(a=0.5 / F.bernoulli_speed(dh))
        vol, v_out = self.step(1.0e-5, 0.1, 0.01, tab, coeffs)
        assert v_out == pytest.approx(0.5, rel=1e-12)
        assert vol == pytest.approx(1.0e-5 - 2.0e-4 * 0.5 * 0.01, rel=1e-12)

    def test_clamp_at_empty(self, synthetic_tables):
        vol, _ = self.step(1e-8, 0.3, 10.0, synthetic_tables,
                           F.OutflowCoeffs(a=5.0))
        assert vol == 0.0

    def test_dt_positive(self, synthetic_tables):
        with pytest.raises(ValueError):
            self.step(1e-5, 0.1, 0.0, synthetic_tables, F.OutflowCoeffs())


class TestRollout:
    def test_constant_upright_keeps_volume(self, cylinder_tables):
        thetas = np.zeros(40)
        traj = F.rollout(F.FluidState(vol=0.5 * cylinder_tables.v_max),
                         thetas, 0.05, cylinder_tables,
                         F.OutflowCoeffs(a=1.0, d=1.0))
        assert np.all(traj.vol == traj.vol[0])

    def test_cylinder_speed_nondecreasing_over_outflow(self, cylinder_tables):
        thetas = np.linspace(0, math.radians(150), 100)
        traj = F.rollout(F.FluidState(vol=0.6 * cylinder_tables.v_max),
                         thetas, 2.0 / 99, cylinder_tables,
                         F.OutflowCoeffs(a=0.3, d=2.0))
        prev_vol = np.concatenate([[traj.vol[0]], traj.vol[:-1]])
        flow = (traj.v_out > 0) & (prev_vol > 1e-9)
        dv = np.diff(traj.v_out[np.where(flow)[0]])
        assert np.all(dv >= -1e-6 * traj.v_out.max())

    def test_oval_speed_rises_then_falls(self, oval_tables):
        thetas = np.linspace(0, math.radians(150), 100)
        traj = F.rollout(F.FluidState(vol=0.6 * oval_tables.v_max),
                         thetas, 2.0 / 99, oval_tables,
                         F.OutflowCoeffs(a=1.0, d=0.3))
        prev_vol = np.concatenate([[traj.vol[0]], traj.vol[:-1]])
        idx = np.where((traj.v_out > 0) & (prev_vol > 1e-9))[0]
        v = traj.v_out[idx]
        peak = int(np.argmax(v))
        assert 0 < peak < len(v) - 1
        tol = 1e-6 * v.max()
        assert np.all(np.diff(v[:peak + 1]) >= -tol)
        assert np.all(np.diff(v[peak:]) <= tol)

    def test_deterministic(self, cylinder_tables):
        thetas = np.linspace(0, 2.0, 50)
        a = F.rollout(F.FluidState(vol=1e-4), thetas, 0.05, cylinder_tables,
                      F.OutflowCoeffs(a=0.8, d=1.0))
        b = F.rollout(F.FluidState(vol=1e-4), thetas, 0.05, cylinder_tables,
                      F.OutflowCoeffs(a=0.8, d=1.0))
        assert a.vol.tobytes() == b.vol.tobytes()
        assert a.v_out.tobytes() == b.v_out.tobytes()

    @given(vol0=st.floats(1e-6, 2.8e-4), end=st.floats(0.1, math.pi),
           seed=st.integers(0, 10 ** 6))
    def test_volume_never_increases(self, cylinder_tables, vol0, end, seed):
        rng = np.random.default_rng(seed)
        thetas = np.sort(rng.uniform(0.0, end, 30))
        traj = F.rollout(F.FluidState(vol=vol0), thetas, 0.05,
                         cylinder_tables, F.OutflowCoeffs(a=1.0, d=1.5))
        assert np.all(np.diff(traj.vol) <= 1e-18)
        assert np.all(traj.vol >= 0.0)
        assert np.all(traj.v_out >= 0.0)


class TestFit:
    def make_samples(self, tables, coeffs, n=50, seed=0):
        rng = np.random.default_rng(seed)
        thetas = rng.uniform(math.radians(40), math.radians(150), n)
        vols = rng.uniform(0.05, 1.0, n) * tables.v_max
        q = tables.interp_many(thetas, vols)
        X = F._features(q["dh"], thetas)
        v = X @ coeffs.as_array()
        return [F.TrainingSample(v_out_next=max(float(vi), 0.0),
                                 theta_next=float(t), vol=float(vo),
                                 dh=float(d))
                for vi, t, vo, d in zip(v, thetas, vols, q["dh"])]

    def test_exact_recovery(self, cylinder_tables):
        true = F.OutflowCoeffs(1.0, 0.5, -0.2, 0.3, 0.0, 0.0)
        samples = self.make_samples(cylinder_tables, true)
        fit = F.fit_coefficients(samples, cylinder_tables)
        err = np.abs(fit.coeffs.as_array() - true.as_array())
        assert err.max() <= 1e-8 * max(1.0, np.abs(true.as_array()).max())

    def test_zero_targets_zero_coeffs(self, cylinder_tables):
        samples = self.make_samples(cylinder_tables, F.OutflowCoeffs())
        fit = F.fit_coefficients(samples, cylinder_tables)
        assert np.abs(fit.coeffs.as_array()).max() <= 1e-10
        assert fit.rmse <= 1e-12

    def test_insufficient_samples(self, cylinder_tables):
        samples = self.make_samples(cylinder_tables, F.OutflowCoeffs(a=1.0))[:5]
        with pytest.raises(ValueError, match="insufficient"):
            F.fit_coefficients(samples, cylinder_tables)

    def test_rank_deficiency_names_columns(self, cylinder_tables):
        # below-horizontal samples kill every slide feature
        rng = np.random.default_rng(1)
        thetas = rng.uniform(math.radians(55), math.radians(85), 30)
        vols = rng.uniform(0.3, 1.0, 30) * cylinder_tables.v_max
        q = cylinder_tables.interp_many(thetas, vols)
        samples = [F.TrainingSample(v_out_next=1.0, theta_next=float(t),
                                    vol=float(v), dh=float(d))
                   for t, v, d in zip(thetas, vols, q["dh"])]
        with pytest.raises(ValueError, match="slide_sin"):
            F.fit_coefficients(samples, cylinder_tables)

    def test_residual_beats_zero_model(self, cylinder_tables):
        rng = np.random.default_rng(2)
        true = F.OutflowCoeffs(0.8, 0.1, 0.0, 1.0, 0.2, 0.0)
        samples = self.make_samples(cylinder_tables, true, n=120, seed=3)
        # corrupt targets with noise
        noisy = [F.TrainingSample(v_out_next=s.v_out_next + abs(rng.normal(0, 0.05)),
                                  theta_next=s.theta_next, vol=s.vol, dh=s.dh)
                 for s in samples]
        fit = F.fit_coefficients(noisy, cylinder_tables)
        y = np.array([s.v_out_next for s in noisy])
        zero_rmse = float(np.sqrt(np.mean(y ** 2)))
        assert fit.rmse <= zero_rmse + 1e-12


def land(tables, theta, phi=0.0, pos=(0.0, 0.0, 0.0), vol=1e-4, speed=1.0,
         o_t=(0.0, 0.0, 0.0), jacobians=False):
    return F.flight_landing(tables, [theta], [phi], [pos], [vol], [speed],
                            np.asarray(o_t, dtype=float), jacobians)


@pytest.fixture(scope="module")
def point_tables():
    """Tables over [0, pi] whose outflow centroid sits at the container
    origin, so the parabola starts at the given position."""
    z = np.zeros((2, 2))
    return G.GeomTables(container_id="point", theta=np.array([0.0, math.pi]),
                        vol_levels=np.array([0.0, 1e-3]), A=z, dh=z, ex=z,
                        ez=z, grid_cell=1e-3, theta_step=math.pi,
                        lip_local=np.zeros(2))


class TestFlightCurve:
    def test_zero_azimuth_identity(self, cylinder_tables):
        theta = math.radians(120)
        lnd = land(cylinder_tables, theta)
        q = cylinder_tables.interp_many(theta, 1e-4)
        assert np.allclose(lnd.velocity[0],
                           [math.sin(theta), 0.0, math.cos(theta)])
        assert np.allclose(lnd.origin[0], [q["ex"][0], 0.0, q["ez"][0]])

    def test_below_horizontal_is_horizontal(self, cylinder_tables):
        lnd = land(cylinder_tables, math.radians(60))
        assert lnd.velocity[0] == pytest.approx([1.0, 0.0, 0.0])

    def test_past_horizontal_direction(self, cylinder_tables):
        lnd = land(cylinder_tables, math.radians(120))
        assert lnd.velocity[0] == pytest.approx([0.8660254, 0.0, -0.5],
                                                abs=1e-6)

    def test_azimuth_rotates_direction(self, cylinder_tables):
        lnd = land(cylinder_tables, math.radians(120), phi=math.pi / 2)
        assert lnd.velocity[0] == pytest.approx([0.0, 0.8660254, -0.5],
                                                abs=1e-6)

    def test_speed_preserved(self, cylinder_tables):
        lnd = land(cylinder_tables, math.radians(100), phi=0.7,
                   pos=(0.1, 0.2, 0.3), speed=0.37)
        assert np.linalg.norm(lnd.velocity[0]) == pytest.approx(0.37,
                                                                rel=1e-12)

    @given(v=st.floats(0.0, 3.0), drop=st.floats(0.0, 2.0))
    def test_horizontal_velocity_constant(self, point_tables, v, drop):
        lnd = land(point_tables, math.radians(100), phi=0.3,
                   pos=(0.1, -0.2, 0.5), speed=v, o_t=(0.0, 0.0, 0.5 - drop))
        t, V, E, C = lnd.t[0], lnd.velocity[0], lnd.origin[0], lnd.point[0]
        assert C[0] == pytest.approx(E[0] + V[0] * t, rel=1e-12, abs=1e-15)
        assert C[1] == pytest.approx(E[1] + V[1] * t, rel=1e-12, abs=1e-15)
        assert C[2] == pytest.approx(E[2] + V[2] * t - 0.5 * GRAV * t * t,
                                     rel=1e-12, abs=1e-12)
        assert C[2] == pytest.approx(0.5 - drop, abs=1e-12)

    def test_jacobians_match_finite_differences(self, cylinder_tables):
        args = dict(phi=0.4, pos=np.array([0.1, 0.2, 0.5]), vol=1e-4,
                    speed=0.8, o_t=(0.3, 0.0, 0.1))
        h = 1e-7
        for theta in (math.radians(75), math.radians(101), math.radians(131)):
            lnd = land(cylinder_tables, theta, jacobians=True, **args)

            def at(**kw):
                return land(cylinder_tables, kw.pop("theta", theta),
                            **{**args, **kw}).point[0]

            fd_theta = (at(theta=theta + h) - at(theta=theta - h)) / (2 * h)
            phi = args["phi"]
            fd_phi = (at(phi=phi + h) - at(phi=phi - h)) / (2 * h)
            fd_pos = np.column_stack([
                (at(pos=args["pos"] + h * e) - at(pos=args["pos"] - h * e))
                / (2 * h) for e in np.eye(3)])
            for got, fd in ((lnd.d_theta[0], fd_theta), (lnd.d_phi[0], fd_phi),
                            (lnd.d_pos[0], fd_pos)):
                assert got == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestTimeToAltitude:
    def test_free_fall(self, point_tables):
        t = land(point_tables, 0.5, pos=(0, 0, 0.2), speed=0.5,
                 o_t=(1.0, 0.0, 0.0)).t[0]
        assert t == pytest.approx(math.sqrt(2 * 0.2 / GRAV), rel=1e-9)
        assert t == pytest.approx(0.2019, abs=2e-4)

    def test_same_altitude_root_zero(self, point_tables):
        t = land(point_tables, 0.5, pos=(0, 0, 0.5), speed=1.0,
                 o_t=(2.0, 0.0, 0.5)).t[0]
        assert t == 0.0

    def test_below_and_descending_none(self, point_tables):
        # leaning fully over, the outflow points straight down
        lnd = land(point_tables, math.pi, pos=(0, 0, 0.4), speed=1.0,
                   o_t=(0.0, 0.0, 0.5))
        assert lnd.velocity[0][2] == pytest.approx(-1.0)
        assert np.isnan(lnd.t[0])
        assert np.all(np.isnan(lnd.point[0]))
