"""Each output check passes on a sound input and flags a broken one."""

import math

import numpy as np
import pytest

import checks
from pourplan import fluid, planner, presets, robot


# -- block-plan --------------------------------------------------------------

@pytest.fixture(scope="module")
def ramp(tables):
    """The default start ramp: clear of the block, as the program reports."""
    problem = presets.block_benchmark(tables, presets.reference_coeffs(), n=20)
    Q = planner.default_initial_trajectory(problem)
    cols = {f"q{j}_rad": Q[:, j] for j in range(Q.shape[1])}
    cols["vol_m3"] = np.linspace(1.4e-4, 0.2e-4, len(Q))
    report = {"min_clearance": planner.min_clearance_along(problem, Q),
              "predicted_pour_fraction": 0.86}
    return problem, cols, report


def plan_failures(problem, cols, report):
    return checks.plan_failures(cols, report, problem, robot.forward_kinematics)


def test_plan_check_passes_on_the_ramp(ramp):
    problem, cols, report = ramp
    assert report["min_clearance"] > 0.03
    assert plan_failures(problem, cols, report) == []


def test_clearance_agrees_with_the_program_within_sampling_error(ramp):
    problem, cols, report = ramp
    Q = np.column_stack([cols[f"q{j}_rad"] for j in range(6)])
    own, tol = checks.clearance(problem, Q, robot.forward_kinematics)
    assert report["min_clearance"] - 1e-9 <= own <= report["min_clearance"] + tol
    assert tol < 1e-3


def test_trajectory_shifted_into_the_block_is_flagged(ramp):
    problem, cols, report = ramp
    # every body 5 cm closer to the block's upper edge: the ramp passes
    # 1.6 cm inside the block
    chain = problem.chain
    d = 0.05 / math.sqrt(2.0)
    sunk = robot.KinematicChain(joints=chain.joints, grasp=chain.grasp,
                                link_geoms=chain.link_geoms,
                                base=robot.transform((d, 0.0, -d)),
                                name=chain.name)
    shifted = planner.PlanningProblem(**{**problem.__dict__, "chain": sunk})
    fails = plan_failures(shifted, cols, report)
    assert any("< 0" in f for f in fails)
    assert any("disagrees" in f for f in fails)


def test_clearance_that_disagrees_with_the_report_is_flagged(ramp):
    problem, cols, report = ramp
    lying = {**report, "min_clearance": report["min_clearance"] + 0.01}
    assert any("disagrees" in f for f in plan_failures(problem, cols, lying))


@pytest.mark.parametrize("breakage, message", [
    ("start", "q_start"), ("limits", "joint limits"),
    ("velocity", "velocity limit"), ("volume", "volume increases"),
    ("fraction", "pour fraction"),
])
def test_each_plan_property_is_checked(ramp, breakage, message):
    problem, cols, report = ramp
    cols = {k: v.copy() for k, v in cols.items()}
    if breakage == "start":
        cols["q0_rad"][0] += 1e-6
    elif breakage == "limits":
        cols["q1_rad"][10] = problem.chain.upper[1] + 0.01
    elif breakage == "velocity":
        cols["q3_rad"][5:] += 2.6 * problem.tau / (problem.n - 1)
    elif breakage == "volume":
        cols["vol_m3"][7] = cols["vol_m3"][6] + 1e-12
    else:
        report = {**report, "predicted_pour_fraction": 1.0 + 1e-9}
    assert any(message in f for f in plan_failures(problem, cols, report))


# -- train-pours -------------------------------------------------------------

def frames(n_frames=5, n=300, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.01, 0.31, size=(n, 2)) for _ in range(n_frames)]


def test_frame_check_passes_on_sound_frames():
    assert checks.frames_failures(frames(), (0.0, 0.32, 0.0, 0.32)) == []


def test_frame_with_one_particle_dropped_is_flagged():
    fr = frames()
    fr[3] = fr[3][:-1]
    fails = checks.frames_failures(fr, (0.0, 0.32, 0.0, 0.32))
    assert any("particle count" in f for f in fails)


@pytest.mark.parametrize("value", [math.nan, 0.33, -0.001])
def test_non_finite_or_escaped_particle_is_flagged(value):
    fr = frames()
    fr[2][17, 1] = value
    assert checks.frames_failures(fr, (0.0, 0.32, 0.0, 0.32))


def test_capacity_check(tables):
    assert checks.capacity_failures(tables.v_max, 0.03, 0.10) == []
    assert checks.capacity_failures(tables.v_max * (1 + 1e-6), 0.03, 0.10)


@pytest.fixture(scope="module")
def fitted(tables):
    """Synthetic training tuples and the program's fit of them."""
    rng = np.random.default_rng(3)
    thetas = rng.uniform(1.2, 2.4, 80)
    vols = rng.uniform(0.1, 0.9, 80) * tables.v_max
    dh = tables.interp_many(thetas, vols)["dh"]
    speed = (0.8 * np.sqrt(2 * 9.81 * dh)
             + 0.3 * np.sin(np.maximum(thetas - 0.5 * math.pi, 0.0))
             + rng.uniform(0.0, 0.02, 80))
    samples = [fluid.TrainingSample(v_out_next=float(v), theta_next=float(t),
                                    vol=float(q), dh=0.0)
               for v, t, q in zip(speed, thetas, vols)]
    coeffs = fluid.fit_coefficients(samples, tables).coeffs.as_array()
    cols = {"v_out_next_m_per_s": speed, "theta_next_rad": thetas,
            "vol_m3": vols}
    arrays = {"theta": tables.theta, "vol_levels": tables.vol_levels,
              "dh": tables.dh}
    return cols, arrays, coeffs


def test_fit_check_agrees_with_the_program(fitted):
    cols, arrays, coeffs = fitted
    assert checks.fit_failures(cols, arrays, coeffs) == []


def test_perturbed_coefficient_vector_is_flagged(fitted):
    cols, arrays, coeffs = fitted
    bad = coeffs.copy()
    bad[4] *= 1.0 + 1e-4
    assert checks.fit_failures(cols, arrays, bad)


def test_table_interpolation_matches_the_program(tables):
    rng = np.random.default_rng(5)
    th = rng.uniform(0.0, math.pi, 50)
    vol = rng.uniform(0.0, tables.v_max, 50)
    arrays = {"theta": tables.theta, "vol_levels": tables.vol_levels,
              "dh": tables.dh}
    np.testing.assert_allclose(checks.table_dh(arrays, th, vol),
                               tables.interp_many(th, vol)["dh"],
                               rtol=0, atol=1e-15)


def test_heldout_rmse_is_zero_for_a_perfect_model_and_one_for_none(fitted):
    cols, arrays, coeffs = fitted
    X = checks.design_matrix(
        checks.table_dh(arrays, cols["theta_next_rad"], cols["vol_m3"]),
        cols["theta_next_rad"])
    series = {"v_out": X @ coeffs, "theta": cols["theta_next_rad"],
              "vol": cols["vol_m3"]}
    assert checks.heldout_rel_rmse(series, arrays, coeffs) < 1e-12
    assert checks.heldout_rel_rmse(series, arrays, np.zeros(6)) == \
        pytest.approx(1.0)


# -- validate-pour -----------------------------------------------------------

BLOCK = np.array([[0.28, 0.0], [0.32, 0.0], [0.32, 0.26], [0.28, 0.26]])
TARGET = np.array([[0.45, 0.005], [0.55, 0.005], [0.55, 0.12], [0.45, 0.12]])
DOMAIN = (0.0, 0.64, 0.0, 0.64)


def pour_frames():
    rng = np.random.default_rng(7)
    final = np.vstack([rng.uniform([0.46, 0.01], [0.54, 0.10], size=(24, 2)),
                       rng.uniform([0.02, 0.30], [0.62, 0.60], size=(576, 2))])
    return [rng.uniform(0.02, 0.62, size=(600, 2)) for _ in range(3)] + [final]


def test_validation_check_passes_on_the_right_catch_count():
    assert checks.validation_failures(pour_frames(), BLOCK, DOMAIN, TARGET,
                                      24 / 600) == []


def test_wrong_catch_count_is_flagged():
    fails = checks.validation_failures(pour_frames(), BLOCK, DOMAIN, TARGET,
                                       25 / 600)
    assert any("catch count" in f for f in fails)


def test_particle_in_the_block_or_lost_is_flagged():
    fr = pour_frames()
    fr[-1][100] = (0.30, 0.10)
    assert any("inside the block" in f for f in
               checks.validation_failures(fr, BLOCK, DOMAIN, TARGET, 24 / 600))
    fr = pour_frames()
    fr[1] = fr[1][1:]
    assert any("not conserved" in f for f in
               checks.validation_failures(fr, BLOCK, DOMAIN, TARGET, 24 / 600))
