import json
import math
import os

import numpy as np
import pytest

from pourplan import cli
from pourplan import fileio as io
from pourplan import fluid as F
from pourplan import geometry as G
from pourplan import oracle as O
from pourplan import planner as PL
from pourplan import presets as PR


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, cylinder_tables):
    d = tmp_path_factory.mktemp("cli")
    prof = PR.cylinder_profile()
    io.write_profile(d / "cylinder.json", prof)
    cylinder_tables.save(d / "tables.npz")

    # synthetic samples from known coefficients
    true = F.OutflowCoeffs(1.0, 0.5, -0.2, 0.3, 0.0, 0.0)
    rng = np.random.default_rng(0)
    thetas = rng.uniform(math.radians(40), math.radians(150), 50)
    vols = rng.uniform(0.05, 1.0, 50) * cylinder_tables.v_max
    q = cylinder_tables.interp_many(thetas, vols)
    X = F._features(q["dh"], thetas)
    v = np.maximum(X @ true.as_array(), 0.0)
    samples = [F.TrainingSample(float(vi), float(t), float(vo), float(dh))
               for vi, t, vo, dh in zip(v, thetas, vols, q["dh"])]
    io.write_samples(d / "samples.csv", samples)

    motion = O.MotionSchedule(
        t=[0.0, 0.5, 2.5, 3.0], x=[0.13] * 4, y=[0.16] * 4,
        theta=[0.0, 0.0, math.radians(120), math.radians(120)])
    io.write_motion(d / "motion.csv", motion)
    return d


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


class TestFit:
    def test_fit_recovers_synthetic(self, workdir):
        out = workdir / "coeffs.json"
        rc = cli.main(["fit", "--samples", str(workdir / "samples.csv"),
                       "--tables", str(workdir / "tables.npz"),
                       "--out", str(out)])
        assert rc == 0
        coeffs, doc = io.read_coeffs(out)
        expect = np.array([1.0, 0.5, -0.2, 0.3, 0.0, 0.0])
        assert np.abs(coeffs.as_array() - expect).max() <= 1e-8
        assert os.path.exists(str(out) + ".manifest.json")

    def test_fit_failure_cleans_outputs(self, workdir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("v_out_next_m_per_s,theta_next_rad,vol_m3,dh_m\n"
                       "1.0,0.5,1e-5,0.01\n")
        out = tmp_path / "coeffs.json"
        rc = cli.main(["fit", "--samples", str(bad),
                       "--tables", str(workdir / "tables.npz"),
                       "--out", str(out)])
        assert rc == 1
        assert not out.exists()


class TestPredict:
    def test_zero_coefficients_constant_volume(self, workdir, tmp_path,
                                               cylinder_tables):
        coeffs_path = tmp_path / "zero.json"
        io.write_coeffs(coeffs_path, F.OutflowCoeffs(),
                        cylinder_tables.container_id, rmse=0.0)
        out = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--trajectory", str(workdir / "motion.csv"),
                       "--coeffs", str(coeffs_path),
                       "--tables", str(workdir / "tables.npz"),
                       "--vol0", "1e-4", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        vols = [float(r.split(",")[2]) for r in rows[1:]]
        assert all(v == vols[0] for v in vols)

    def test_container_mismatch_refused(self, workdir, tmp_path):
        coeffs_path = tmp_path / "other.json"
        io.write_coeffs(coeffs_path, F.OutflowCoeffs(a=1.0), "other-container")
        out = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--trajectory", str(workdir / "motion.csv"),
                       "--coeffs", str(coeffs_path),
                       "--tables", str(workdir / "tables.npz"),
                       "--vol0", "1e-4", "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_decreasing_times_refused(self, workdir, tmp_path, capsys,
                                      cylinder_tables):
        # a trajectory CSV running backwards in time would be integrated
        # with a negative step and gain volume
        traj = tmp_path / "backwards.csv"
        rows = [",".join(io.trajectory_header(1))]
        for k in range(5):
            rows.append(",".join(str(v) for v in (
                -0.1 * k, 0.0, math.radians(100 + 5 * k), 0.0, 0.0, 0.0,
                "nan", "nan", "nan")))
        traj.write_text("\n".join(rows) + "\n")
        coeffs_path = tmp_path / "c.json"
        io.write_coeffs(coeffs_path, F.OutflowCoeffs(a=1.0, d=1.0),
                        cylinder_tables.container_id)
        out = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--trajectory", str(traj),
                       "--coeffs", str(coeffs_path),
                       "--tables", str(workdir / "tables.npz"),
                       "--vol0", "1e-4", "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["stage"] == "predict"
        assert "increasing" in err["error"]


class TestPlan:
    def test_landing_columns_match_objective(self, workdir, tmp_path,
                                             cylinder_tables):
        # land_x/y/z are o_t plus the landing residual the planner's
        # transfer objective weighs by the outflow area
        prob = PR.block_benchmark(cylinder_tables,
                                  PR.reference_coeffs("cylinder"), n=16,
                                  tau=6.0)
        io.write_robot(tmp_path / "robot.json", prob.chain)
        io.write_world(tmp_path / "world.json", prob.world)
        io.write_coeffs(tmp_path / "coeffs.json", prob.coeffs,
                        cylinder_tables.container_id)
        io.write_problem(tmp_path / "problem.json", prob, "robot.json",
                         "world.json", str(workdir / "tables.npz"),
                         "coeffs.json")
        (tmp_path / "settings.json").write_text(
            json.dumps({"max_outer": 2, "max_inner": 3}))
        out = tmp_path / "traj.csv"
        assert cli.main(["plan", "--problem", str(tmp_path / "problem.json"),
                         "--settings", str(tmp_path / "settings.json"),
                         "--out", str(out)]) == 0
        report = json.loads((tmp_path / "traj.report.json").read_text())
        data = io.read_trajectory(out)
        cols = np.genfromtxt(out, delimiter=",", names=True)
        land = np.column_stack([cols["land_x_m"], cols["land_y_m"],
                                cols["land_z_m"]])

        kin = PL.kinematics_along(prob.chain, data["Q"])
        fluid = F.rollout(prob.fluid0, data["theta"], prob.dt,
                          cylinder_tables, prob.coeffs)
        assert fluid.vol == pytest.approx(data["vol"], rel=1e-12, abs=1e-18)
        residual = PL.landing_along(prob, kin, fluid).point - prob.world.o_t
        assert np.array_equal(np.isnan(land), np.isnan(residual))
        hit = ~np.isnan(land[:, 0])
        assert land[hit] == pytest.approx(prob.world.o_t + residual[hit],
                                          rel=1e-12, abs=1e-15)

        A = cylinder_tables.interp_many(data["theta"], data["vol"])["A"]
        pouring = hit & (A > 0)
        assert pouring.sum() >= 3
        miss2 = ((land[pouring] - prob.world.o_t) ** 2).sum(axis=1)
        transfer = prob.weights[0] * float(A[pouring] @ miss2)
        assert report["cost_transfer"] == pytest.approx(transfer, rel=1e-9)


class TestTables:
    def test_tables_roundtrip(self, workdir, tmp_path):
        out = tmp_path / "tab.npz"
        rc = cli.main(["tables", "--profile", str(workdir / "cylinder.json"),
                       "--out", str(out), "--theta-step-deg", "5",
                       "--grid-cell", "0.002"])
        assert rc == 0
        tab = G.GeomTables.load(out)
        assert tab.A.shape[0] == 37


class TestSimulateExtractReport:
    @pytest.mark.slow
    def test_pipeline_determinism(self, workdir, tmp_path):
        frames_a = tmp_path / "a.npz"
        frames_b = tmp_path / "b.npz"
        args = ["simulate", "--profile", str(workdir / "cylinder.json"),
                "--motion", str(workdir / "motion.csv"),
                "--fill-fraction", "0.5", "--grid", "64",
                "--extent", "0.30", "--frame-dt", "0.1", "--seed", "5"]
        assert cli.main(args + ["--out", str(frames_a)]) == 0
        assert cli.main(args + ["--out", str(frames_b)]) == 0

        sa = tmp_path / "sa.csv"
        sb = tmp_path / "sb.csv"
        assert cli.main(["extract", "--frames", str(frames_a),
                         "--out", str(sa)]) == 0
        assert cli.main(["extract", "--frames", str(frames_b),
                         "--out", str(sb)]) == 0
        assert sa.read_bytes() == sb.read_bytes()

        # measured-mode report runs on the frame dump
        coeffs_path = tmp_path / "c.json"
        io.write_coeffs(coeffs_path, F.OutflowCoeffs(a=1.0), "x")
        rep = tmp_path / "traces.csv"
        assert cli.main(["report", "--tables", str(workdir / "tables.npz"),
                         "--coeffs", str(coeffs_path),
                         "--frames", str(frames_a),
                         "--out", str(rep)]) == 0
        header = rep.read_text().splitlines()[0]
        assert header.split(",") == [
            "t_s", "v_out_meas_m_per_s", "bernoulli_m_per_s", "theta_rad",
            "dh_meas_m", "g_model_m_per_s"]

    def test_report_rollout_mode(self, workdir, tmp_path):
        coeffs_path = tmp_path / "c.json"
        io.write_coeffs(coeffs_path, F.OutflowCoeffs(a=0.5, d=1.0), "x")
        rep = tmp_path / "synth.csv"
        rc = cli.main(["report", "--tables", str(workdir / "tables.npz"),
                       "--coeffs", str(coeffs_path),
                       "--motion", str(workdir / "motion.csv"),
                       "--vol0", "1.5e-4", "--out", str(rep)])
        assert rc == 0
        rows = rep.read_text().strip().splitlines()
        assert rows[0].split(",")[1] == "v_out_model_m_per_s"
        assert len(rows) > 30


class TestFileFormats:
    def test_world_roundtrip(self, tmp_path):
        world = PR.block_world()
        io.write_world(tmp_path / "w.json", world)
        back = io.read_world(tmp_path / "w.json")
        assert back.o_t == pytest.approx(world.o_t)
        assert len(back.obstacles) == len(world.obstacles)
        assert back.obstacles[1][1].half_extents == pytest.approx(
            world.obstacles[1][1].half_extents)

    def test_robot_roundtrip(self, tmp_path):
        arm = PR.default_arm()
        io.write_robot(tmp_path / "r.json", arm)
        back = io.read_robot(tmp_path / "r.json")
        assert back.dof == arm.dof
        assert back.grasp == pytest.approx(arm.grasp)
        q = np.array([0.3, -0.4, 0.8, 0.2, 0.1, -0.5])
        from pourplan.robot import forward_kinematics
        assert forward_kinematics(back, q).container == pytest.approx(
            forward_kinematics(arm, q).container)

    def test_problem_roundtrip(self, tmp_path, cylinder_tables):
        prob = PR.block_benchmark(cylinder_tables,
                                  PR.reference_coeffs("cylinder"), n=20)
        io.write_robot(tmp_path / "robot.json", prob.chain)
        io.write_world(tmp_path / "world.json", prob.world)
        cylinder_tables.save(tmp_path / "tables.npz")
        io.write_coeffs(tmp_path / "coeffs.json", prob.coeffs,
                        cylinder_tables.container_id)
        io.write_problem(tmp_path / "problem.json", prob, "robot.json",
                         "world.json", "tables.npz", "coeffs.json")
        back = io.read_problem(tmp_path / "problem.json")
        assert back.n == prob.n
        assert back.theta_final == pytest.approx(prob.theta_final)
        assert back.q_start == pytest.approx(prob.q_start)
        assert back.adjacency == prob.adjacency

    def test_samples_roundtrip(self, tmp_path):
        samples = [F.TrainingSample(0.5, 1.2, 1e-4, 0.01),
                   F.TrainingSample(0.0, 0.3, 2e-4, 0.0)]
        io.write_samples(tmp_path / "s.csv", samples)
        back = io.read_samples(tmp_path / "s.csv")
        assert len(back) == 2
        assert back[0].v_out_next == 0.5
        assert back[1].dh == 0.0
