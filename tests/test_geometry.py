import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pourplan import geometry as G
from pourplan import presets as PR

R, H = 0.03, 0.10


def cyl_spec(r=R, h=H):
    return {"name": "cyl", "units": "m",
            "vertices": [[-r, 0.0], [r, 0.0], [r, h], [-r, h], [-r, 0.0]],
            "lip_index": 2}


def disc_area_oracle(r_lip, x_min, n=4000):
    """Raster estimate of the covered opening-disc area {x >= x_min}."""
    xs = np.linspace(-r_lip, r_lip, n)
    ys = np.linspace(-r_lip, r_lip, n)
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    covered = (gx * gx + gy * gy <= r_lip * r_lip) & (gx >= x_min)
    return covered.sum() * cell


def query(tables, theta, vol):
    """One interp_many sample as scalars."""
    return {k: float(v[0]) for k, v in tables.interp_many(theta, vol).items()}


class TestLoadProfile:
    def test_rectangle_valid(self):
        prof = G.load_profile(cyl_spec())
        assert prof.lip_radius == pytest.approx(R)
        assert prof.lip[1] == pytest.approx(H)

    def test_open_boundary_rejected(self):
        spec = cyl_spec()
        spec["vertices"] = spec["vertices"][:-1]
        with pytest.raises(G.ProfileError, match="open boundary"):
            G.load_profile(spec)

    def test_oval_valid(self):
        prof = PR.oval_profile()
        assert prof.lip_radius == pytest.approx(0.020, abs=1e-9)

    def test_asymmetric_rejected(self):
        spec = cyl_spec()
        spec["vertices"][1] = [R + 1e-6, 0.0]
        with pytest.raises(G.ProfileError, match="symmetric"):
            G.load_profile(spec)

    def test_self_intersection_rejected(self):
        spec = {"name": "bow", "units": "m", "lip_index": 0,
                "vertices": [[-0.03, 0.0], [0.03, 0.1], [0.03, 0.0],
                             [-0.03, 0.1], [-0.03, 0.0]]}
        with pytest.raises(G.ProfileError):
            G.load_profile(spec)

    def test_units_checked(self):
        spec = cyl_spec()
        spec["units"] = "cm"
        with pytest.raises(G.ProfileError, match="units"):
            G.load_profile(spec)


class TestBuildTables:
    def test_below_brim_no_outflow(self, cylinder_tables):
        s = query(cylinder_tables, 0.0, 0.5 * cylinder_tables.v_max)
        assert s["A"] == 0.0
        assert s["dh"] == 0.0

    def test_full_brim_matches_opening_disc(self, cylinder_tables):
        # fine-raster oracle of the fully covered opening disc
        oracle = disc_area_oracle(R, -R)
        s = query(cylinder_tables, 0.0, cylinder_tables.v_max)
        assert s["A"] == pytest.approx(oracle, abs=2 * (1e-3) ** 2)
        assert s["A"] == pytest.approx(math.pi * R * R, rel=1e-6)

    def test_tilted_past_vertical_outflow_positive(self, cylinder_tables):
        vol = 0.05 * cylinder_tables.v_max
        s = query(cylinder_tables, math.radians(120), vol)
        # oracle: any liquid at 120 degrees touches the opening plane
        theta = math.radians(120)
        z_lip_w = -R * math.sin(theta) + H * math.cos(theta)
        level = G.fill_level(PR.cylinder_profile(), vol, theta=theta)
        x_min = (H * math.cos(theta) - level) / math.sin(theta)
        assert disc_area_oracle(R, x_min) > 0
        assert s["A"] > 0
        assert s["dh"] == pytest.approx(level - z_lip_w, abs=2e-3)

    def test_segment_area_matches_raster_oracle(self, cylinder_tables):
        theta = math.radians(110)
        vol = 0.3 * cylinder_tables.v_max
        level = G.fill_level(PR.cylinder_profile(), vol, theta=theta)
        x_min = (H * math.cos(theta) - level) / math.sin(theta)
        s = query(cylinder_tables, theta, vol)
        assert s["A"] == pytest.approx(disc_area_oracle(R, x_min), rel=0.02)

    def test_grid_too_coarse(self, cylinder_profile):
        with pytest.raises(G.TableBuildError, match="coarse"):
            G.build_tables(cylinder_profile, grid_cell=0.02)

    def test_theta_step_positive(self, cylinder_profile):
        with pytest.raises(ValueError):
            G.build_tables(cylinder_profile, theta_step=0.0)

    def test_monotone_area_past_vertical(self, cylinder_tables, oval_tables):
        for tab in (cylinder_tables, oval_tables):
            i90 = np.searchsorted(tab.theta, math.pi / 2 - 1e-12)
            diffs = np.diff(tab.A[i90:], axis=1)
            assert np.all(diffs >= -1e-15)

    def test_area_dh_zero_sets_match(self, cylinder_tables, oval_tables):
        # A = 0 exactly where dh = 0, up to one volume level
        for tab in (cylinder_tables, oval_tables):
            mismatch = (tab.A > 0) != (tab.dh > 0)
            for i, j in np.argwhere(mismatch):
                nb = tab.A[i, max(j - 1, 0):j + 2]
                assert (nb == 0).any() and (nb > 0).any()

    def test_refinement_convergence(self, cylinder_profile):
        coarse = G.build_tables(cylinder_profile, theta_step=math.radians(5.0),
                                grid_cell=2e-3)
        fine = G.build_tables(cylinder_profile, theta_step=math.radians(5.0),
                              grid_cell=1e-3)
        # compare on the coarse grid nodes
        scale = coarse.A.max()
        for i, th in enumerate(coarse.theta):
            fine_vals = fine.interp_many(np.full_like(coarse.vol_levels, th),
                                         coarse.vol_levels)["A"]
            assert np.all(np.abs(fine_vals - coarse.A[i]) <= 0.05 * scale)

    def test_volume_levels_strictly_increasing(self, cylinder_tables):
        assert np.all(np.diff(cylinder_tables.vol_levels) > 0)


class TestLookup:
    def test_exact_at_sample_points(self, cylinder_tables):
        tab = cylinder_tables
        i, j = 37, 80
        s = query(tab, float(tab.theta[i]), float(tab.vol_levels[j]))
        assert s["A"] == pytest.approx(tab.A[i, j], abs=1e-18)
        assert s["dh"] == pytest.approx(tab.dh[i, j], abs=1e-18)

    def test_bilinear_midpoint(self, synthetic_tables):
        tab = synthetic_tables
        s = query(tab, 0.05, 1.5e-5)
        # midpoint of grid values (1, 2, 2, 3)e-4
        assert s["A"] == pytest.approx(2.0e-4)
        s = query(tab, 0.15, 1.5e-5)
        assert s["A"] == pytest.approx(3.0e-4)

    def test_quad_average(self, synthetic_tables):
        # four nodes (1,2,3,4)e-4 sit at theta 0..0.1, vol 1e-5..2e-5 region
        tab = synthetic_tables
        got = tab.interp_many(np.array([0.05]), np.array([1.5e-5]))["A"][0]
        expect = np.mean([1.0, 2.0, 2.0, 3.0]) * 1e-4
        assert got == pytest.approx(expect)

    def test_empty_container(self, cylinder_tables):
        for th in (0.0, 1.0, 2.0):
            s = query(cylinder_tables, th, 0.0)
            assert s["A"] == 0.0 and s["dh"] == 0.0

    def test_overfull_clamps(self, cylinder_tables):
        top = query(cylinder_tables, 0.5, cylinder_tables.v_max)
        over = query(cylinder_tables, 0.5, 2.0 * cylinder_tables.v_max)
        assert over["A"] == pytest.approx(top["A"])

    def test_theta_range_checked(self, cylinder_tables):
        with pytest.raises(ValueError, match="angle"):
            cylinder_tables.interp_many(-0.2, 1e-5)
        with pytest.raises(ValueError, match="angle"):
            cylinder_tables.interp_many(math.pi + 0.2, 1e-5)

    def test_negative_volume_rejected(self, cylinder_tables):
        with pytest.raises(ValueError):
            cylinder_tables.interp_many(0.5, -1e-9)

    def test_partials_are_finite(self, cylinder_tables):
        # inside a cell the interpolant is linear along each axis, so its
        # slope equals the difference quotient across the cell interior
        tab = cylinder_tables
        rng = np.random.default_rng(0)
        for _ in range(50):
            i = rng.integers(len(tab.theta) - 1)
            j = rng.integers(len(tab.vol_levels) - 1)
            t0, t1 = tab.theta[i], tab.theta[i + 1]
            v0, v1 = tab.vol_levels[j], tab.vol_levels[j + 1]
            th = rng.uniform(t0 + 0.25 * (t1 - t0), t0 + 0.75 * (t1 - t0))
            vol = rng.uniform(v0 + 0.25 * (v1 - v0), v0 + 0.75 * (v1 - v0))
            s = query(tab, th, vol)
            dt, dv = 0.2 * (t1 - t0), 0.2 * (v1 - v0)
            for name in ("A", "dh", "ex", "ez"):
                for key, lo, hi, step in (
                        ("_dtheta", query(tab, th - dt, vol),
                         query(tab, th + dt, vol), dt),
                        ("_dvol", query(tab, th, vol - dv),
                         query(tab, th, vol + dv), dv)):
                    slope = s["d" + name + key]
                    assert np.isfinite(slope)
                    fd = (hi[name] - lo[name]) / (2 * step)
                    scale = np.abs(getattr(tab, name)).max() / step
                    assert abs(slope - fd) <= 1e-9 * scale

    @given(th=st.floats(0.0, math.pi), volfrac=st.floats(0.0, 1.0),
           dth_u=st.floats(-1.0, 1.0), dv_u=st.floats(-1.0, 1.0))
    def test_lookup_lipschitz(self, cylinder_tables, th, volfrac, dth_u, dv_u):
        tab = cylinder_tables
        dt_grid = tab.theta[1] - tab.theta[0]
        dv_grid = tab.vol_levels[1] - tab.vol_levels[0]
        L_th = np.abs(np.diff(tab.A, axis=0)).max() / dt_grid
        L_v = np.abs(np.diff(tab.A, axis=1)).max() / dv_grid
        vol = volfrac * tab.v_max
        d_th = dth_u * 0.4 * dt_grid
        d_v = dv_u * 0.4 * dv_grid
        th2 = np.clip(th + d_th, 0.0, tab.theta[-1])
        v2 = np.clip(vol + d_v, 0.0, tab.v_max)
        a1 = tab.interp_many(np.array([th]), np.array([vol]))["A"][0]
        a2 = tab.interp_many(np.array([th2]), np.array([v2]))["A"][0]
        bound = L_th * abs(th2 - th) + L_v * abs(v2 - vol) + 1e-15
        assert abs(a2 - a1) <= bound * (1 + 1e-9)


class TestRoundTrip:
    def test_save_load_bit_exact(self, cylinder_tables, tmp_path):
        p = tmp_path / "tables.npz"
        cylinder_tables.save(p)
        loaded = G.GeomTables.load(p)
        for name in ("theta", "vol_levels", "A", "dh", "ex", "ez"):
            a = getattr(cylinder_tables, name)
            b = getattr(loaded, name)
            assert a.tobytes() == b.tobytes()
        assert loaded.container_id == cylinder_tables.container_id
        assert loaded.grid_cell == cylinder_tables.grid_cell


class TestFillLevel:
    def test_upright_half_cylinder(self, cylinder_profile):
        vol = 0.5 * math.pi * R * R * H
        level = G.fill_level(cylinder_profile, vol)
        assert level == pytest.approx(H / 2, abs=2e-3)

    def test_capacity(self, cylinder_profile):
        cap = G.container_capacity(cylinder_profile)
        assert cap == pytest.approx(math.pi * R * R * H, rel=1e-6)

    def test_over_capacity_raises(self, cylinder_profile):
        with pytest.raises(ValueError, match="capacity"):
            G.fill_level(cylinder_profile, 1.0)
