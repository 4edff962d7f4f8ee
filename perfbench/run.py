"""Run one heisencalc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, measured with no wrappers installed; with --trace 1 they
are the per-layer ones, from passes run with the wrappers of tracer.py.
The line before it records the machine and the sample counts.  See
README.md for every metric and workload.
"""

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import bench  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ["mcg_words", "ring_scatter", "weil", "cli_cold"]
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 7
SETUP_PROBES = 3  # probes before and after each set-up of a normalized workload
# at least 3 passes and enough ops for >= 10 latency samples beyond p90
MIN_PASSES = 3
MIN_OPS = 110


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def build(args, workdir, env):
    module = __import__(args.workload)
    if args.workload == "cli_cold":
        return module.build(args.seed, args.size, workdir=workdir, env=env)
    return module.build(args.seed, args.size)


def timed_setup(wl):
    """Import, fixture load and warm-up: (raw seconds, reported seconds).

    A normalized workload's set-up is scaled by probes run just before and
    after it.
    """
    before = [bench.probe_s() for _ in range(SETUP_PROBES)] if wl.normalize else []
    t0 = time.perf_counter()
    lib = bench.load(wl.modules)
    wl.setup(lib)
    raw = time.perf_counter() - t0
    if not wl.normalize:
        return lib, raw, raw
    after = [bench.probe_s() for _ in range(SETUP_PROBES)]
    return lib, raw, raw * bench.host_factor(before + after)


def probe_setup(args):
    """Fresh-interpreter mode: print the raw and reported set-up time."""
    _, raw, value = timed_setup(build(args, None, None))
    print(raw, value)


def setup_samples(args, wl, env):
    if wl.probe_code is not None:
        cmd = [sys.executable, "-c", wl.probe_code]
    else:
        cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size]
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        fields = [float(x) for x in proc.stdout.split()]
        out.append(tuple(fields[-2:]) if wl.probe_code is None else (fields[-1],) * 2)
    return out


def machine_info():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import importlib.metadata
    import importlib.util
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    blas = []
    spec = importlib.util.find_spec("numpy")
    if spec and spec.origin:
        libs = os.path.join(os.path.dirname(os.path.dirname(spec.origin)), "numpy.libs")
        if os.path.isdir(libs):
            blas = sorted(f for f in os.listdir(libs) if "blas" in f.lower())
    return {"cpu": cpu, "nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy_version, "blas": blas,
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))}


def timing_values(setup, per_pass):
    """setup_s, wall_s, op_p50_ms and op_p90_ms from set-up samples and
    each pass's op latencies."""
    latencies = [t for lat in per_pass for t in lat]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(lat) for lat in per_pass),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * bench.percentile(latencies, 90),
    }


def end_to_end(args, wl, env):
    samples = setup_samples(args, wl, env)
    lib = {}
    if wl.probe_code is None:
        lib, raw, value = timed_setup(wl)
        samples.append((raw, value))
    min_passes = max(MIN_PASSES, -(-MIN_OPS // len(wl.ops)))
    passes = bench.run_passes(wl, lib, args.seconds, min_passes)
    scaled = [bench.latencies(p) for p in passes]
    values = timing_values([v for _, v in samples], scaled)
    who = resource.RUSAGE_CHILDREN if wl.probe_code else resource.RUSAGE_SELF
    values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    latencies = [t for lat in scaled for t in lat]
    info = {"passes": len(passes), "ops_per_pass": len(wl.ops),
            "ops_timed": len(latencies),
            "ops_beyond_p90": sum(1 for t in latencies if t > values["op_p90_ms"] / 1000),
            "setup_samples": samples,
            "pass_wall_s": [p.wall for p in passes],
            "op_ms": {op.name: 1000 * statistics.median(lat[i] for lat in scaled)
                      for i, op in enumerate(wl.ops)}}
    if wl.normalize:
        info["raw"] = timing_values([r for r, _ in samples],
                                    [p.latencies for p in passes])
        info["probe_s"] = statistics.median(t for p in passes for t in p.probes)
        info["ref_probe_s"] = bench.REF_PROBE_S
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return passes, metrics, info


def traced(args, wl, env):
    """Alternate untraced and traced passes; per-layer values from the traced.

    The overhead of tracing is the traced pass's wall time minus the
    untraced pass's, as medians over the pairs run.
    """
    lib = bench.load(wl.modules)
    wl.setup(lib)
    twl = dataclasses.replace(wl, ops=wl.traced_ops or wl.ops)
    layer_runs, plain_passes, overheads, passes = [], [], [], []
    start = time.perf_counter()
    while True:
        plain = bench.run_pass(twl, lib)
        tr = tracer.Tracer()
        tr.install(tracer.targets(lib))
        try:
            traced_pass = bench.run_pass(twl, lib)
        finally:
            tr.uninstall()
        passes += [plain, traced_pass]
        plain_passes.append(plain)
        values = tracer.layer_values(tr)
        values["fail_frac"] = ((traced_pass.failed + traced_pass.defects)
                               / traced_pass.attempted)
        layer_runs.append(values)
        overheads.append(traced_pass.wall - plain.wall)
        if time.perf_counter() - start + plain.wall + traced_pass.wall > args.seconds:
            break
    values = {k: statistics.median(run[k] for run in layer_runs) for k in layer_runs[0]}
    values["trace.overhead_s"] = statistics.median(overheads)
    if wl.trace_metrics is not None:
        extra_pass, extra = wl.trace_metrics(lib, env, plain_passes)
        passes.append(extra_pass)
        values.update(extra)
    else:
        values.update(dict.fromkeys(CLI_METRICS, 0.0))
    info = {"traced_passes": len(layer_runs),
            "untraced_pass_wall_s": [p.wall for p in plain_passes]}
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    return passes, metrics, info


CLI_METRICS = {"cli.interp_ms": "ms", "cli.import_ms": "ms",
               "cli.import_numpy_ms": "ms", "cli.main_ms": "ms",
               "cli.tracebacks": "count", "cli.exit_mismatch": "count"}


def layer_unit(name):
    for metric, unit, _ in tracer.LAYER_METRICS:
        if metric == name:
            return unit
    return {**tracer.DERIVED_UNITS, **CLI_METRICS,
            "fail_frac": "ratio", "trace.overhead_s": "s"}[name]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: a few ops per workload, for the self-test")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "heisencalc", "__init__.py")):
        print(f"error: no heisencalc sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    os.environ.update({k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")})
    sys.path.insert(0, SRC)
    if args.probe_setup:
        probe_setup(args)
        return 0

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        wl = build(args, workdir, env)
        calibration = [bench.calibration_s()]
        run = traced if args.trace else end_to_end
        passes, metrics, info = run(args, wl, env)
        calibration.append(bench.calibration_s())
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = sorted({f for p in passes for f in p.failures})
    for line in failures[:20]:
        print(f"failed op: {line}", file=sys.stderr)
    info.update(machine_info())
    info.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "calibration_s": calibration,
                 "known_defects": sum(p.defects for p in passes)})
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
