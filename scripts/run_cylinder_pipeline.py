#!/usr/bin/env python3
"""End-to-end identification pipeline on the cylinder cup.

Builds spill tables, runs a batch of randomized oracle pours, extracts
training tuples, fits the outflow model, evaluates held-out pours, and
emits plot-ready trace CSVs. All artifacts land in the output directory.
"""

import argparse
import math
import os
import sys
import time

import numpy as np

from pourplan import cli
from pourplan import fileio as io
from pourplan import fluid as F
from pourplan import geometry as G
from pourplan import oracle as O
from pourplan import presets as PR


def training_motion(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    th_end = math.radians(rng.uniform(95.0, 150.0))
    ramp_t = rng.uniform(2.4, 3.6)
    mid = 0.8 + rng.uniform(0.3, 0.7) * ramp_t
    th_mid = th_end * rng.uniform(0.35, 0.65)
    motion = O.MotionSchedule(
        t=[0.0, 0.8, mid, 0.8 + ramp_t, 1.4 + ramp_t],
        x=[0.13] * 5, y=[0.16] * 5,
        theta=[0.0, 0.0, th_mid, th_end, th_end])
    return motion, float(rng.uniform(0.48, 0.65))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/cylinder")
    ap.add_argument("--n-train", type=int, default=10)
    ap.add_argument("--n-test", type=int, default=3)
    ap.add_argument("--seed0", type=int, default=500)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    t0 = time.perf_counter()

    profile = PR.cylinder_profile()
    profile_path = os.path.join(args.out, "cylinder.json")
    io.write_profile(profile_path, profile)

    tables_path = os.path.join(args.out, "tables.npz")
    rc = cli.main(["tables", "--profile", profile_path, "--out", tables_path])
    if rc:
        return rc
    tables = G.GeomTables.load(tables_path)
    print(f"tables built ({time.perf_counter() - t0:.0f}s)")

    sample_paths = []
    test_frame_paths = []
    for k in range(args.n_train + args.n_test):
        motion, fill = training_motion(args.seed0 + k)
        motion_path = os.path.join(args.out, f"motion{k:02d}.csv")
        io.write_motion(motion_path, motion)
        frames_path = os.path.join(args.out, f"pour{k:02d}.npz")
        is_test = k >= args.n_train
        rc = cli.main(["simulate", "--profile", profile_path,
                       "--motion", motion_path, "--out", frames_path,
                       "--fill-fraction", f"{fill}",
                       "--frame-dt", "0.2" if is_test else "0.05",
                       "--seed", str(k)])
        if rc:
            return rc
        if is_test:
            test_frame_paths.append(frames_path)
        else:
            samples_path = os.path.join(args.out, f"samples{k:02d}.csv")
            rc = cli.main(["extract", "--frames", frames_path,
                           "--out", samples_path])
            if rc:
                return rc
            sample_paths.append(samples_path)
        print(f"pour {k} done ({time.perf_counter() - t0:.0f}s)")

    coeffs_path = os.path.join(args.out, "coeffs.json")
    rc = cli.main(["fit", "--samples", *sample_paths,
                   "--tables", tables_path, "--out", coeffs_path])
    if rc:
        return rc
    coeffs, doc = io.read_coeffs(coeffs_path)
    print("fitted coefficients:", np.round(coeffs.as_array(), 3),
          "train RMSE:", round(doc["training_rmse_m_per_s"], 4))

    for frames_path in test_frame_paths:
        result = io.read_frames(frames_path)
        series = O.measured_series(result)
        mask = ~np.isnan(series["v_out"]) & (np.nan_to_num(series["v_out"]) > 0)
        pred = F.outflow_speed(coeffs, series["theta"][mask],
                               series["vol"][mask], tables)
        gt = series["v_out"][mask]
        rel = np.sqrt(np.mean((pred - gt) ** 2)) / np.sqrt(np.mean(gt ** 2))
        print(f"{os.path.basename(frames_path)}: {int(mask.sum())} points, "
              f"held-out relative RMSE {rel * 100:.1f}%")
        traces_path = frames_path.replace(".npz", ".traces.csv")
        cli.main(["report", "--tables", tables_path, "--coeffs", coeffs_path,
                  "--frames", frames_path, "--out", traces_path])

    print(f"total {time.perf_counter() - t0:.0f}s; artifacts in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
