"""Core of the benchmark: ops, passes over an op list, and statistics.

A workload is a fixed, seeded list of ops run by one client in a closed
loop: each op starts when the previous one ends.  An op's latency covers
only the library call it makes; its check runs afterwards, untimed.  An
op whose outcome matches a defect the library is documented to have today
counts in fail_frac but not as a failure of the run.

Host speed drifts on a shared machine: for tens of seconds at a time every
op of a pure-Python workload runs up to twice as slow, so no statistic of the
raw times of one run steadies them.  Such a workload runs a short fixed
pure-Python loop (the probe) before each op and after the last one, and
each op's latency is scaled to the reference host speed by the probes
around it: latency * REF_PROBE_S / median(probes nearby).
"""

import gc
import importlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Op:
    name: str
    run: Callable            # ctx -> result; ctx maps earlier op names to results
    check: Callable          # (result, ctx) -> bool
    # outcome (a result or an exception) -> True if it is the seed defect
    defect: Optional[Callable] = None


@dataclass
class Workload:
    name: str
    modules: list            # heisencalc modules the ops call
    ops: list
    setup: Callable          # lib -> None: fixture load and first-call warm-up
    # Python source timed in a fresh interpreter instead of setup(), or None
    probe_code: Optional[str] = None
    # ops run by the traced passes instead of `ops`, or None
    traced_ops: Optional[list] = None
    # (lib, env, untraced traced-op passes) -> extra per-layer values, or None
    trace_metrics: Optional[Callable] = None
    # scale latencies to the reference host speed by the probe
    normalize: bool = False


def load(names):
    return {n: importlib.import_module(f"heisencalc.{n}") for n in names}


@dataclass
class PassResult:
    wall: float = 0.0
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    defects: int = 0
    failures: list = field(default_factory=list)
    results: Optional[dict] = None
    probes: list = field(default_factory=list)  # before each op, after the last


def run_pass(wl, lib, keep=False):
    """Run the op list once; keep=True keeps each op's result by name."""
    gc.collect()
    ctx = {"lib": lib}
    res = PassResult(results=ctx if keep else None)
    for op in wl.ops:
        if wl.normalize:
            res.probes.append(probe_s())
        t0 = time.perf_counter()
        try:
            outcome = op.run(ctx)
            raised = False
        except Exception as exc:  # the op's failure is counted, not raised
            outcome, raised = exc, True
        dt = time.perf_counter() - t0
        res.wall += dt
        res.latencies.append(dt)
        res.attempted += 1
        ok = False
        if not raised:
            ctx[op.name] = outcome
            try:
                ok = bool(op.check(outcome, ctx))
            except Exception:  # a check that cannot run is a failed check
                ok = False
        if ok:
            continue
        if op.defect is not None and op.defect(outcome):
            res.defects += 1
        else:
            res.failed += 1
            res.failures.append(f"{op.name}: {outcome!r}"[:300])
    if wl.normalize:
        res.probes.append(probe_s())
    return res


# The probe's fastest time on a 2-vCPU Intel Xeon (Sapphire Rapids) VM with
# Python 3.11; normalized times read as times on that machine when quiet.
REF_PROBE_S = 0.0012
# An op's host speed is the median of the PROBE_WINDOW probes before it and
# the PROBE_WINDOW after it.
PROBE_WINDOW = 2


def probe_s():
    """Time of a fixed pure-Python loop of about a millisecond."""
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter() - t0


def host_factor(probes):
    return REF_PROBE_S / statistics.median(probes)


def latencies(res):
    """A pass's op latencies, at the reference host speed if it was probed."""
    if not res.probes:
        return res.latencies
    return [t * host_factor(res.probes[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW])
            for i, t in enumerate(res.latencies)]


def percentile(values, q):
    """q-th percentile (0 < q < 100), linear between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_passes(wl, lib, seconds, min_passes):
    """Repeat the op list while another pass still fits in `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, lib))
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + passes[-1].wall > seconds:
            return passes


def calibration_s():
    """Time of a fixed pure-Python loop, recorded next to every result."""
    t0 = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - t0
