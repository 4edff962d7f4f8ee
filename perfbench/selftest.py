"""Self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

1. A tiny-size run of every workload, untraced and traced, must print a
   result line with exactly the declared metric names and no failed op.
2. A deliberately corrupted result in every workload must count as failed.
3. Scaling to the reference host speed uses the probes around each op.
"""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench  # noqa: E402
import run  # noqa: E402


def check_metric_names(spec):
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=600, cwd=ROOT)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, proc.stderr)
            got = set(result["metrics"])
            assert got == declared[trace], (workload, trace, got ^ declared[trace])
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def _corrupt_matrix(M):
    first = M.entries[0]
    bumped = first[0] + first[0].one(M.genus)
    return dataclasses.replace(M, entries=((bumped,) + first[1:],) + M.entries[1:])


def _corrupt_poly(P):
    return P + P.one(P.genus)


def _corrupt_intertwiner(out):
    U, residual = out
    U = U.copy()
    U[0, 0] += 0.5
    return U, residual


def _corrupt_reply(reply):
    return dataclasses.replace(reply, out=reply.out.replace("1", "2"))


CORRUPTIONS = {
    "mcg_words": ("D^2", _corrupt_matrix),
    "ring_scatter": ("p0*q0", _corrupt_poly),
    "weil": ("weil N3 g1 a", _corrupt_intertwiner),
    "cli_cold": ("mul json", _corrupt_reply),
}


def check_corruption_fails():
    env = run.child_env()
    os.environ.update(env)
    sys.path.insert(0, run.SRC)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        for workload, (target, corrupt) in CORRUPTIONS.items():
            args = run.argparse.Namespace(workload=workload, seed=7, size="tiny")
            wl = run.build(args, workdir, env)
            lib = bench.load(wl.modules)
            wl.setup(lib)
            clean = bench.run_pass(wl, lib)
            ops = [dataclasses.replace(op, run=lambda ctx, f=op.run: corrupt(f(ctx)))
                   if op.name == target else op for op in wl.ops]
            assert len(ops) == len(wl.ops) and any(op.name == target for op in ops)
            bad = bench.run_pass(dataclasses.replace(wl, ops=ops), lib)
            assert clean.failed == 0 and bad.failed >= 1, (workload, bad.failures)
            print(f"ok  {workload}: corrupted '{target}' counted as failed "
                  f"({bad.failures[0][:60]}...)")


def check_host_scaling():
    """Latencies scale by the probes around each op, and only if probed."""
    ref = bench.REF_PROBE_S
    res = bench.PassResult(latencies=[1.0] * 6)
    assert bench.latencies(res) == res.latencies
    # full host speed up to the fourth op, half speed from there on
    res.probes = [ref] * 4 + [2 * ref] * 3
    got = bench.latencies(res)
    assert all(abs(a - b) < 1e-12 for a, b in zip(got, [1, 1, 1, 2 / 3, 0.5, 0.5])), got
    print("ok  latencies scaled to the reference host speed by nearby probes")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_host_scaling()
    check_metric_names(spec)
    check_corruption_fails()
    print("selftest passed")


if __name__ == "__main__":
    main()
