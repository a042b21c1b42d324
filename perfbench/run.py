#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the pourplan pipeline.

    python3 perfbench/run.py --workload block-plan --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``pourplan`` from its
``src/`` directory.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (set-up time, median wall time per
operation, peak memory); with ``--trace 1`` they are the per-layer ones,
measured with spans around calls into the program's modules.  One line of
JSON per operation goes to standard error.
"""

import os
import sys
import time

T_START = time.perf_counter()

# One BLAS/OpenMP thread, set before NumPy loads: OpenBLAS's own threads
# make planner times depend on whatever else runs on the machine.  The
# program's environment overrides are cleared; seeds are passed explicitly.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("POURPLAN_SETTINGS", "POURPLAN_SEED", "POURPLAN_DEBUG_CONTAIN"):
    os.environ.pop(_var, None)

import argparse
import json
import resource
import shutil
import statistics
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
# set-up repetitions whose median enters setup_s
SETUP_REPEATS = 3

PER_OP_TIMES = [
    "collision", "robot", "qp", "fluid.rollout", "geometry.interp",
    "planner.transfer", "oracle.p2g", "oracle.g2p", "oracle.extrapolate",
    "oracle.project", "oracle.pressure_solve", "oracle.solid_mask",
    "oracle.containment", "oracle.extract", "fileio",
]
SELF_TIMES = {"planner": "planner.self_s", "oracle": "oracle.self_s",
              "bench": "bench.self_s"}
PER_OP_COUNTS = [
    "collision.pair_checks", "collision.contacts", "robot.fk_calls",
    "qp.calls", "qp.iterations", "fluid.rollout.calls",
    "geometry.interp.calls", "oracle.substeps", "oracle.particles",
    "oracle.cells",
]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import pourplan from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "pourplan", "__init__.py")):
        sys.exit(f"perfbench: no pourplan sources under {SRC}")
    sys.path.insert(0, SRC)
    import pourplan
    where = os.path.dirname(os.path.abspath(pourplan.__file__))
    if where != os.path.join(SRC, "pourplan"):
        sys.exit(f"perfbench: pourplan imported from {where}, not {SRC}")
    import workloads
    return workloads


def median(values):
    return float(statistics.median(values)) if values else 0.0


def run_op(op, tracer):
    """Time one operation, then check its result apart from the timing."""
    layers = counts = None
    if tracer:
        before_t, before_c = dict(tracer.self_time), dict(tracer.counts)
        tracer.open("bench")
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        result, error = op.run(), None
    except Exception as exc:  # a failing operation is counted, not fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if tracer:
        traced = tracer.close()
        layers = {k: v - before_t.get(k, 0.0) for k, v in tracer.self_time.items()
                  if v - before_t.get(k, 0.0) > 0.0}
        counts = {k: v - before_c.get(k, 0) for k, v in tracer.counts.items()
                  if v != before_c.get(k, 0)}
        residual = abs(sum(layers.values()) - traced)
        if residual > 1e-6 * max(traced, 1.0):
            raise AssertionError(f"layer self times miss {residual:.3g} s")
    if error is None:
        try:
            failures = op.check(result)
        except Exception as exc:
            failures = [f"check raised {type(exc).__name__}: {exc}"]
    else:
        failures = [error]
    rec = {"kind": op.kind, "inputs": op.inputs, "wall_s": wall, "cpu_s": cpu,
           "ok": not failures, "failures": failures,
           "known_fault": op.known_fault, "timed": op.timed,
           "outcome": op.outcome}
    if tracer:
        rec.update(traced_s=traced, layers=layers, counts=counts)
        if isinstance(result, dict) and "rejected_steps" in result:
            rec["report"] = {k: result[k] for k in
                             ("inner_iterations", "rejected_steps",
                              "qp_iterations", "min_clearance")}
    return rec


def per_layer_metrics(records, setup_build_s):
    """Per-layer means over the timed operations (those in ``op_s``)."""
    timed = [r for r in records if r["timed"]]
    ops = len(timed)
    total_t, total_c = {}, {}
    for rec in timed:
        for k, v in rec["layers"].items():
            total_t[k] = total_t.get(k, 0.0) + v
        for k, v in rec["counts"].items():
            total_c[k] = total_c.get(k, 0) + v
    m = {}
    for layer in PER_OP_TIMES:
        m[f"{layer}.s"] = (total_t.get(layer, 0.0) / ops, "s")
    for layer, name in SELF_TIMES.items():
        m[name] = (total_t.get(layer, 0.0) / ops, "s")
    for name in PER_OP_COUNTS:
        m[name] = (total_c.get(name, 0) / ops, "count")
    plans = [r["report"] for r in timed if "report" in r]
    tried = total_c.get("planner.steps_tried", 0)
    rejected = sum(p["rejected_steps"] for p in plans)
    m["planner.inner_iterations"] = (
        sum(p["inner_iterations"] for p in plans) / ops, "count")
    m["planner.accepted_steps"] = ((tried - rejected) / ops, "count")
    m["planner.accept_ratio"] = ((tried - rejected) / tried if tried else 0.0,
                                 "fraction")
    m["geometry.build_tables.s"] = (median(setup_build_s), "s")
    m["trace.op_s"] = (median([r["wall_s"] for r in timed]), "s")
    m["op.cpu_s"] = (median([r["cpu_s"] for r in timed]), "s")
    for name in ("oracle.catch_fraction", "fluid.heldout_rel_rmse"):
        key = name.split(".")[1]
        m[name] = (median([r["outcome"][key] for r in timed
                           if key in r["outcome"]]), "fraction")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = import_program()
    import_s = time.perf_counter() - T_START
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(wl.WORKLOADS)}")

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        for name in tracer.absent:
            print(f"perfbench: layer absent: {name}", file=sys.stderr)

    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    try:
        workload = wl.WORKLOADS[args.workload](args.seed, work)
        if tracer:
            tracer.open("setup")
        prepare_s, build_s = [], []
        for rep in range(SETUP_REPEATS):
            # a fresh directory each time: rewriting an existing file on
            # ext4 waits for that file's pending writeback, which made
            # set-up time depend on the disk's load
            workload.work = os.path.join(work, f"setup{rep}")
            os.makedirs(workload.work)
            before = tracer.self_time["geometry.build_tables"] if tracer else 0.0
            t0 = time.perf_counter()
            workload.prepare()
            prepare_s.append(time.perf_counter() - t0)
            if tracer:
                build_s.append(tracer.self_time["geometry.build_tables"] - before)
        t0 = time.perf_counter()
        workload.setup_once()
        once_s = time.perf_counter() - t0
        if tracer:
            tracer.close()
        setup_s = import_s + median(prepare_s) + once_s
        print(json.dumps({"setup": {"import_s": import_s, "prepare_s": prepare_s,
                                    "once_s": once_s}}),
              file=sys.stderr, flush=True)

        records = []
        t_loop = time.perf_counter()
        r = 0
        while True:
            t_round = time.perf_counter()
            for op in workload.round(r):
                rec = run_op(op, tracer)
                rec["round"] = r
                records.append(rec)
                print(json.dumps(rec), file=sys.stderr, flush=True)
            r += 1
            now = time.perf_counter()
            # whole rounds only; stop before one that would overrun
            if now - t_loop + (now - t_round) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not rec["ok"] for rec in records)
    correct = all(rec["ok"] or rec["known_fault"] for rec in records)
    timed = [rec["wall_s"] for rec in records if rec["timed"]]
    if tracer:
        tracer.uninstall()
        metrics = per_layer_metrics(records, build_s)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "absent": tracer.absent, "operations": records,
                       "spans": tracer.spans}, f)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": (setup_s, "s"), "op_s": (median(timed), "s"),
                   "peak_rss_mb": (peak_mb, "MB")}
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
