"""cli_cold: one fresh `python -m heisencalc.cli` process per request.

Requests run one at a time and cover every subcommand with small seeded
inputs, checking exit code and stdout, plus malformed inputs that must exit
1 or 2 without a traceback and, for domain errors, with one line on
stderr.  A request costs far more than its arithmetic: interpreter start
and `import heisencalc.cli` (numpy included) dominate, and no other
workload measures them.
"""

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import bench
from bench import Op, Workload
import oracle

PROBE = ("import time; t0 = time.perf_counter(); import heisencalc.cli; "
         "print(time.perf_counter() - t0)")


@dataclass
class Reply:
    code: int
    out: str
    err: str


def run_cold(argv, env):
    proc = subprocess.run([sys.executable, "-m", "heisencalc.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    return Reply(proc.returncode, proc.stdout, proc.stderr)


def run_inprocess(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error in the CLI is what is measured
            traceback.print_exc()
            code = 1
    return Reply(code, out.getvalue(), err.getvalue())


def _clean(reply, code):
    return reply.code == code and "Traceback" not in reply.err


def _ok_json(want):
    return lambda r, ctx: _clean(r, 0) and json.loads(r.out) == want


def _ok_text(want):
    return lambda r, ctx: _clean(r, 0) and r.out == want + "\n"


def _all_pass(r, ctx):
    lines = r.out.splitlines()
    return _clean(r, 0) and lines and all(line.endswith(": pass") for line in lines)


def _domain_error(r, ctx):
    lines = r.err.splitlines()
    return _clean(r, 1) and len(lines) == 1 and lines[0].startswith("error: ")


def _usage_error(r, ctx):
    lines = r.err.splitlines()
    return _clean(r, 2) and lines and ": error: " in lines[-1]


def _witness_traceback(r):
    """Seed defect: aut --witness with a malformed object raises."""
    return r.code == 1 and "Traceback" in r.err and (
        "KeyError" in r.err or "TypeError" in r.err)


def _identity_strings(n):
    return {"rows": n, "cols": n,
            "entries": [["1" if i == j else "0" for j in range(n)] for i in range(n)]}


def _aut_json(delta, S):
    return {"delta": list(delta), "S": [list(r) for r in S]}


def _is_inverse_pair(a, b):
    delta, S = oracle.aut_compose((a["delta"], a["S"]), (b["delta"], b["S"]))
    n = len(delta)
    return not any(delta) and S == [[int(i == j) for j in range(n)] for i in range(n)]


def _small_poly(rng, genus, terms):
    out = {}
    while len(out) < terms:
        coords = tuple(rng.randint(-2, 2) for _ in range(2 * genus))
        out[(rng.randint(-3, 3), coords)] = rng.choice((-2, -1, 1, 2))
    return out


def _schrodinger_ok(N, g, elem):
    want = oracle.schrodinger_entries(N, g, elem)

    def ok(r, ctx):
        if not _clean(r, 0):
            return False
        rows = json.loads(r.out)
        return all(abs(complex(*rows[i][j]) - want.get((i, j), 0)) < 1e-9
                   for i in range(N ** g) for j in range(N ** g))
    return ok


def _unitary_ok(r, ctx):
    if not _clean(r, 0):
        return False
    U = [[complex(*z) for z in row] for row in json.loads(r.out)]
    n = len(U)
    return all(abs(sum(U[i][k] * U[j][k].conjugate() for k in range(n)) - (i == j)) < 1e-8
               for i in range(n) for j in range(n))


def requests(rng, records_path, tiny=False):
    """[(label, argv, check(reply, replies so far), exit code, defect or None)]."""
    reqs = []

    def add(label, argv, check, code=0, defect=None):
        reqs.append((label, argv, check, code, defect))

    for g, n in [(1, 2), (2, 3)]:
        letters = [(rng.choice([f"s{i}" for i in range(1, n)]
                               + [f"{x}{i}" for i in range(1, g + 1) for x in "ab"]),
                    rng.choice((-2, -1, 1, 2))) for _ in range(10)]
        x = oracle.phi(g, letters)
        add(f"phi g{g}", ["phi", "--genus", str(g), "--strands", str(n),
                          oracle.letters_str(letters)],
            _ok_json({"word": oracle.word_str(x), "pair": oracle.pair_str(x)}))
    p, q = _small_poly(rng, 1, 5), _small_poly(rng, 1, 4)
    add("mul json", ["mul", oracle.poly_str(p), oracle.poly_str(q)],
        _ok_json(oracle.poly_json(oracle.pmul(p, q))))
    add("mul plain", ["mul", "--plain", oracle.poly_str(q), oracle.poly_str(p)],
        _ok_text(oracle.poly_str(oracle.pmul(q, p))))
    p2, q2 = _small_poly(rng, 2, 4), _small_poly(rng, 2, 4)
    add("mul abelian", ["mul", "--genus", "2", "--specialize", "abelian",
                        oracle.poly_str(p2), oracle.poly_str(q2)],
        _ok_json(oracle.spec_json(oracle.spec_abelian(oracle.pmul(p2, q2)))))
    N = rng.randint(2, 6)
    add("specialize torsion", ["specialize", "--genus", "2", "--specialize",
                               f"torsion{N}", oracle.poly_str(p2)],
        _ok_json(oracle.spec_json(oracle.spec_torsion(p2, N))))

    g, kind = rng.randint(1, 3), rng.choice("ab")
    index = rng.randint(1, g)
    twist = _aut_json(*oracle.twist(g, kind, index))
    add("aut twist", ["aut", "--genus", str(g), "--twist", kind, "--index", str(index)],
        _ok_json(twist))
    add("aut inverse", ["aut", "--genus", str(g), "--twist", kind, "--index",
                        str(index), "--inverse"],
        lambda r, ctx, t=twist: _clean(r, 0) and _is_inverse_pair(t, json.loads(r.out)))
    h = (0, tuple(rng.randint(-3, 3) for _ in range(4)))
    add("aut inner", ["aut", "--genus", "2", "--inner", oracle.pair_str(h)],
        _ok_json(_aut_json(*oracle.inner_aut(h[1]))))
    add("aut witness", ["aut", "--witness", json.dumps(_aut_json(*oracle.inner_aut(h[1])))],
        _ok_json({"word": oracle.word_str(h), "pair": oracle.pair_str(h)}))
    add("morita twist", ["morita", "--genus", str(g), "--twist", kind,
                         "--index", str(index)], _ok_json(twist))
    add("morita bounding pair", ["morita", "--bounding-pair", "--genus", "2"],
        _ok_json(_aut_json([2, 0, 0, 0], oracle.inner_aut((0, 0, 0, 0))[1])))

    add("matrix boundary moriyama", ["matrix", "boundary", "--specialize", "moriyama"],
        _ok_json(_identity_strings(3)))
    if not tiny:
        add("matrix separating moriyama",
            ["matrix", "separating", "--genus", "2", "--specialize", "moriyama"],
            _ok_json(_identity_strings(10)))
        add("matrix aba latex", ["matrix", "aba", "--latex"],
            lambda r, ctx: _clean(r, 0) and r.out.startswith("\\begin{pmatrix}\n")
            and r.out.count("\\\\") == 2 and r.out.count("&") == 6)
        add("compose ta tb ta", ["compose", "ta", "tb", "ta"],
            lambda r, ctx: _clean(r, 0) and json.loads(r.out)["rows"] == 3)
        add("compose tb ta tb", ["compose", "tb", "ta", "tb"],
            lambda r, ctx: _clean(r, 0) and r.out == ctx["compose ta tb ta"].out)

    s_entry = {oracle.from_kappa(kap, xy): c for kap, xy, c in
               [(0, (0, 0), 1), (0, (0, 1), -1), (-2, (0, 0), 1),
                (-2, (-1, 1), 1), (-2, (-1, 0), -1)]}
    add("pairing builtin", ["pairing", "--builtin", "s-entry"],
        _ok_json(oracle.poly_json(s_entry)))
    records, want = [], {}
    for _ in range(rng.randint(4, 8)):
        signs = [rng.choice((1, -1)) for _ in range(3)]
        letters = [(rng.choice(("s1", "a1", "b1")), rng.choice((-1, 1)))
                   for _ in range(rng.randint(0, 6))]
        records.append({"s1": signs[0], "s2": signs[1], "sl": signs[2],
                        "loop": oracle.letters_str(letters)})
        want = oracle.padd(want, {oracle.phi(1, letters): signs[0] * signs[1] * signs[2]})
    with open(records_path, "w") as fh:
        json.dump(records, fh)
    add("pairing fixture", ["pairing", "--fixture", records_path],
        _ok_json(oracle.poly_json(want)))

    N, g = rng.randint(2, 5), rng.randint(1, 2)
    elem = (rng.randint(-5, 5), tuple(rng.randint(-4, 4) for _ in range(2 * g)))
    add("schrodinger element", ["schrodinger", "--N", str(N), "--genus", str(g),
                                "--element", oracle.pair_str(elem)],
        _schrodinger_ok(N, g, elem))
    add("schrodinger weil", ["schrodinger", "--N", "3", "--weil", rng.choice("ab")],
        _unitary_ok)
    add("schrodinger verify", ["schrodinger", "--N", str(rng.randint(2, 5))], _all_pass)
    add("verify", ["verify", "--genus", str(rng.randint(1, 3)),
                   "--strands", str(rng.randint(2, 4))], _all_pass)
    if not tiny:
        add("verify all", ["verify", "--all"], _all_pass)

    add("bad expression", ["mul", "a ^"], _domain_error, 1)
    add("bad braid letter", ["phi", "--strands", "2", "s3"], _domain_error, 1)
    add("bad specialization", ["specialize", "--specialize", "torsionX", "u"],
        _domain_error, 1)
    add("bad N", ["schrodinger", "--N", "1", "--element", "u"], _domain_error, 1)
    add("bad matrix name", ["compose", "ta", "nosuch"], _usage_error, 2)
    add("witness {}", ["aut", "--witness", "{}"], _domain_error, 1, _witness_traceback)
    add("witness [1]", ["aut", "--witness", "[1]"], _domain_error, 1, _witness_traceback)
    return reqs


def _median_ms(cmd, env, runs=5):
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, capture_output=True, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def _import_ms(env, runs=3):
    """Cumulative import time of heisencalc.cli and of numpy, from -X importtime."""
    cli_ms, numpy_ms = [], []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import heisencalc.cli"], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1000
        cli_ms.append(cumulative["heisencalc.cli"])
        numpy_ms.append(cumulative.get("numpy", 0.0))
    return statistics.median(cli_ms), statistics.median(numpy_ms)


def build(seed, size="full", workdir=None, env=None):
    rng = random.Random(seed)
    tiny = size == "tiny"
    reqs = requests(rng, os.path.join(workdir, "records.json"), tiny)
    cold = [Op(label, lambda ctx, argv=argv: run_cold(argv, env), check, defect)
            for label, argv, check, _, defect in reqs]
    warm = [Op(label, lambda ctx, argv=argv: run_inprocess(ctx["lib"]["cli"], argv),
               check, defect)
            for label, argv, check, _, defect in reqs]

    def trace_metrics(lib, env, warm_passes):
        """One cold pass and the cli.* metrics: interpreter floor, import
        cost, warm calls through cli.main, and the cold replies."""
        wl = Workload("cli_cold", [], cold, None)
        cold_pass = bench.run_pass(wl, lib, keep=True)
        replies = cold_pass.results
        import_ms, numpy_ms = _import_ms(env)
        return cold_pass, {
            "cli.interp_ms": _median_ms([sys.executable, "-c", "pass"], env),
            "cli.import_ms": import_ms,
            "cli.import_numpy_ms": numpy_ms,
            "cli.main_ms": 1000 * statistics.median(
                t for p in warm_passes for t in p.latencies),
            "cli.tracebacks": sum("Traceback" in replies[label].err
                                  for label, *_ in reqs),
            "cli.exit_mismatch": sum(replies[label].code != code
                                     for label, _, _, code, _ in reqs),
        }

    return Workload("cli_cold", ["heis", "ring", "aut", "braid", "pairing",
                                 "repmatrix", "schrodinger", "cli"],
                    cold, lambda lib: None, probe_code=PROBE,
                    traced_ops=warm, trace_metrics=trace_metrics)
