import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from heisencalc import braid, cli, heis, repmatrix, ring
from tests_helpers import cold_constants  # noqa: F401 (a fixture)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_phi(capsys):
    code, out = run(capsys, "phi", "--genus", "1", "--strands", "2",
                    "a1^-1 b1 a1^-1 b1")
    assert code == 0
    assert json.loads(out)["word"] == "u^2 a1^-2 b1^2"


def test_phi_plain(capsys):
    code, out = run(capsys, "phi", "--plain", "a1^-1 b1 a1^-1 b1")
    assert code == 0
    assert out.strip() == "u^2 a1^-2 b1^2"


def test_mul(capsys):
    code, out = run(capsys, "mul", "--plain", "a b", "b^-1 a^-1")
    assert code == 0
    assert out.strip() == "1"


def test_mul_huge_exponents(capsys):
    # u-exponents 10^9 apart and coordinates 10^6: cost follows the terms
    t0 = time.perf_counter()
    code, out = run(capsys, "mul", "--genus", "1", "u^1000000000 + 1 - u^-1000000000 a",
                    "u^1000000000 + a^1000000 b^1000000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert out == json.dumps([
        {"k": 0, "coords": [1, 0], "c": -1},
        {"k": 1000000000, "coords": [0, 0], "c": 1},
        {"k": 2000000000, "coords": [0, 0], "c": 1},
        {"k": 999001000000, "coords": [1000001, 1000000], "c": -1},
        {"k": 1000000000000, "coords": [1000000, 1000000], "c": 1},
        {"k": 1001000000000, "coords": [1000000, 1000000], "c": 1}]) + "\n"


def test_boundary_moriyama_is_identity(capsys):
    code, out = run(capsys, "matrix", "boundary", "--specialize", "moriyama")
    assert code == 0
    data = json.loads(out)
    assert data["entries"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_matrix_json_schema(capsys):
    code, out = run(capsys, "matrix", "ta")
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == 3 and data["cols"] == 3
    assert "twist" in data and "entries" in data


def test_matrix_latex(capsys):
    code, out = run(capsys, "matrix", "tb", "--latex")
    assert code == 0
    assert out.startswith("\\begin{pmatrix}")


def test_specialized_latex(capsys):
    """--latex renders a specialized result in LaTeX: the lifts as words and
    a matrix as a pmatrix, as for unspecialized results."""
    assert run(capsys, "mul", "--specialize", "torsion3", "--latex", "a", "b") == (0, "a b\n")
    assert run(capsys, "specialize", "--genus", "2", "--specialize", "torsion5", "--latex",
               "u^7 a1^-2 b2 - 2 u a2") == (0, "-2 u a_{2} + u^{2} a_{1}^{-2} b_{2}\n")
    assert run(capsys, "matrix", "boundary", "--specialize", "moriyama", "--latex") == (
        0, "\\begin{pmatrix}\n1 & 0 & 0 \\\\\n0 & 1 & 0 \\\\\n0 & 0 & 1\n\\end{pmatrix}\n")
    code, out = run(capsys, "compose", "ta", "tb", "--specialize", "abelian", "--latex")
    rows = repmatrix.specialize_matrix(repmatrix.compose_twisted(repmatrix.matrix_Ta(),
                                                                 repmatrix.matrix_Tb()), "abelian")
    assert code == 0 and out == repmatrix.matrix_latex(rows) + "\n"
    assert "a^{-1}" in out and "a1" not in out
    # plain and JSON output of a specialized result are not LaTeX
    assert run(capsys, "mul", "--specialize", "torsion3", "--plain", "a", "b") == (0, "a1 b1\n")


@pytest.mark.parametrize("fmt", [[], ["--json"], ["--plain"], ["--latex"],
                                 ["--specialize", "moriyama"]])
@pytest.mark.parametrize("name", list(cli.BUILTIN_MATRICES))
def test_matrix_is_compose_of_one_name(capsys, name, fmt):
    genus = ["--genus", "2"] if name == "separating" else []
    assert run(capsys, "matrix", name, *genus, *fmt) == \
        run(capsys, "compose", name, *genus, *fmt)


def test_matrix_unknown_name_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["matrix", "nosuch"])
    assert exc.value.code == 2
    # argparse wraps the usage to the terminal width
    assert " ".join(capsys.readouterr().err.split()) == (
        "usage: heisencalc matrix [-h] [--genus GENUS] [--specialize SPECIALIZE] "
        "[--json | --plain | --latex] {ta,tb,aba,boundary,separating} "
        "heisencalc matrix: error: argument name: invalid choice: 'nosuch' "
        "(choose from 'ta', 'tb', 'aba', 'boundary', 'separating')")


def test_compose_matches_aba(capsys):
    code, out = run(capsys, "compose", "ta", "tb", "ta")
    _, out2 = run(capsys, "matrix", "aba")
    assert code == 0
    assert json.loads(out)["entries"] == json.loads(out2)["entries"]


def test_specialize(capsys):
    code, out = run(capsys, "specialize", "--specialize", "torsion3",
                    "--plain", "u^3")
    assert code == 0
    assert out.strip() == "1"


def test_specialize_torsion_word_form(capsys):
    code, out = run(capsys, "specialize", "--specialize", "torsion5",
                    "--plain", "a b")
    assert code == 0
    assert out == "a1 b1\n"


def test_morita_d_word(capsys):
    code, out = run(capsys, "morita", "--d", "1", "--word", "a1 b1 a1^-1 b1^-1")
    assert code == 0
    assert out == "2\n"


@pytest.mark.parametrize("argv", [["mul", "--plain", "a01 b1"], ["phi", "--plain", "a01 b1"],
                                  ["mul", "--genus", "2", "a1 b02"],
                                  ["morita", "--d", "1", "--word", "a01 b1"],
                                  ["morita", "--d", "1", "--word", "a1 b001"]])
def test_letter_index_with_leading_zero_refused(capsys, argv):
    # every reader of a word letter refuses a01, which is not a1 under another name
    assert one_line_error(capsys, *argv)


# Every reader reads one token grammar (heis): ASCII digits only, no leading
# zero in an index or a torsion order.  Each row is a refused spelling, the
# ASCII spelling it imitates and what that prints; FIXTURE stands for a
# pairing fixture file whose one record has the loop in the next argument.
READERS = [
    (["mul", "--genus", "11", "--plain", "a1\u0661"],
     ["mul", "--genus", "11", "--plain", "a11"], "a11\n"),
    (["mul", "--plain", "u^\u0663"], ["mul", "--plain", "u^3"], "u^3\n"),
    (["mul", "--plain", "\u0663 a"], ["mul", "--plain", "3 a"], "3 a1\n"),
    (["specialize", "--specialize", "torsion\u0665", "u"],
     ["specialize", "--specialize", "torsion5", "u"], "[[[1, [0, 0]], 1]]\n"),
    (["mul", "--specialize", "torsion00005", "u^7"],
     ["mul", "--specialize", "torsion5", "u^7"], "[[[2, [0, 0]], 1]]\n"),
    (["phi", "--strands", "3", "s01"], ["phi", "--strands", "3", "s1"],
     '{"word": "u", "pair": "(1; 0,0)"}\n'),
    (["phi", "--strands", "12", "s1\u0661"], ["phi", "--strands", "12", "s11"],
     '{"word": "u", "pair": "(1; 0,0)"}\n'),
    (["aut", "--inner", "(\u0663; 1, 0)"], ["aut", "--inner", "(3; 1, 0)"],
     '{"delta": [0, 2], "S": [[1, 0], [0, 1]]}\n'),
    (["morita", "--d", "11", "--word", "a1\u0661 b11"],
     ["morita", "--d", "11", "--word", "a11 b11"], "1\n"),
    (["pairing", "--plain", "FIXTURE", "s01"], ["pairing", "--plain", "FIXTURE", "s1"], "u\n"),
    # the genus-1 matrices exist at genus 1 only
    (["compose", "ta", "--genus", "3", "--specialize", "moriyama"],
     ["compose", "ta", "--genus", "1", "--specialize", "moriyama"],
     '{"rows": 3, "cols": 3, "entries": [["1", "1", "-1 + u"], ["0", "1", "0"], '
     '["0", "-1", "1"]]}\n'),
    (["matrix", "boundary", "--genus", "2", "--plain", "--specialize", "moriyama"],
     ["matrix", "boundary", "--plain", "--specialize", "moriyama"],
     "[1, 0, 0]\n[0, 1, 0]\n[0, 0, 1]\n"),
]


def _with_fixture(tmp_path, argv):
    if "FIXTURE" not in argv:
        return argv
    i = argv.index("FIXTURE")
    path = tmp_path / "records.json"
    path.write_text(json.dumps([{"s1": 1, "s2": 1, "sl": 1, "loop": argv[i + 1]}]))
    return argv[:i] + ["--fixture", str(path)]


@pytest.mark.parametrize("bad, good, out", READERS)
def test_every_reader_refuses_what_its_ascii_spelling_is_not(capsys, tmp_path, bad, good, out):
    assert one_line_error(capsys, *_with_fixture(tmp_path, bad))
    assert run(capsys, *_with_fixture(tmp_path, good)) == (0, out)


_VERIFY_N3 = "".join(f"{name}: pass\n" for name in [
    "unitary[u]", "unitary[a1]", "unitary[b1]",
    *(f"hom[{x},{y}]" for x in ("u", "a1", "b1") for y in ("u", "a1", "b1")), "commutator[1]"])


# Integer options read ASCII digits with an optional minus, as every word
# reader does.  Each row is a refused spelling, its ASCII spelling, and the
# exit code and stdout of that.
@pytest.mark.parametrize("bad, good, want", [
    (["mul", "--genus", "\u0662", "--plain", "a2"], ["mul", "--genus", "2", "--plain", "a2"],
     (0, "a2\n")),
    (["mul", "--genus", " 2_0", "--plain", "a2"], ["mul", "--genus", "20", "--plain", "a2"],
     (1, "")),
    (["mul", "--genus", "+2", "--plain", "a2"], ["mul", "--genus", "2", "--plain", "a2"],
     (0, "a2\n")),
    (["phi", "--strands", "\u0663", "s2"], ["phi", "--strands", "3", "s2"],
     (0, '{"word": "u", "pair": "(1; 0,0)"}\n')),
    (["schrodinger", "--N", "\u0663"], ["schrodinger", "--N", "3"], (0, _VERIFY_N3)),
    (["morita", "--d", "\u0661", "--word", "a1 b1"], ["morita", "--d", "1", "--word", "a1 b1"],
     (0, "1\n")),
    (["aut", "--twist", "a", "--index", "\u0661"], ["aut", "--twist", "a", "--index", "1"],
     (0, '{"delta": [0, -1], "S": [[1, -1], [0, 1]]}\n')),
])
def test_integer_options_are_ascii(capsys, bad, good, want):
    with pytest.raises(SystemExit) as exc:
        cli.main(bad)
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert run(capsys, *good) == want


@pytest.mark.parametrize("argv", [["--d", "0", "--word", "a0 b0"], ["--d", "-1", "--word", "a1"],
                                  ["--d", "0", "--word", "a1 b1"], ["--d", "1", "--word", "a0"],
                                  ["--d", "1", "--word", "a1 b0"]])
def test_morita_d_refuses_handle_zero(capsys, argv):
    # handles count from 1, as in mul and phi, which refuse a0
    assert one_line_error(capsys, "morita", *argv)


def test_morita_d_huge_exponent(capsys):
    # the word is read once; exponents are never expanded into letters
    t0 = time.perf_counter()
    code, out = run(capsys, "morita", "--d", "1", "--word", "a1^1000000000 b1")
    assert (code, out) == (0, "1000000000\n")
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("argv", [["morita", "--bounding-pair"],
                                  ["schrodinger", "--N", "3"], ["verify"]])
def test_format_flags_only_where_rendered(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--plain"])
    assert exc.value.code == 2


def one_line_error(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    return (code == 1 and captured.out == "" and len(lines) == 1
            and lines[0].startswith("error: "))


@pytest.mark.parametrize("witness", [
    "{}", "[1]", "null", '{"delta": [], "S": []}',
    '{"delta": [0,0], "S": [[1,0],[0,"x"]]}',
    # a symplectic witness of genus 17, refused like --genus 17
    pytest.param(json.dumps({"delta": [0] * 34, "S": [[int(i == j) for j in range(34)]
                                                     for i in range(34)]}), id="genus17")])
def test_aut_witness_malformed(capsys, witness):
    assert one_line_error(capsys, "aut", "--witness", witness)


@pytest.mark.parametrize("data", [
    [{"s1": 1}], {"a": 1}, [{"s1": 1, "s2": 1, "sl": 1, "loop": 5}],
    # signs must be ints: 1.0 and true would pass a test s in (1, -1)
    [{"s1": 1.0, "s2": 1, "sl": 1, "loop": "a1"}],
    [{"s1": 1, "s2": True, "sl": 1, "loop": "a1"}]])
def test_pairing_fixture_malformed(capsys, tmp_path, data):
    path = tmp_path / "records.json"
    path.write_text(json.dumps(data))
    assert one_line_error(capsys, "pairing", "--fixture", str(path))


def test_pairing_builtin(capsys):
    code, out = run(capsys, "pairing", "--builtin", "ta-wb-wa", "--plain")
    assert code == 0
    assert out.strip() == "u^2 a1^-2 b1^2"


def test_pairing_fixture_file(capsys, tmp_path):
    path = tmp_path / "records.json"
    path.write_text(json.dumps([
        {"s1": -1, "s2": 1, "sl": -1, "loop": "s1^-1 a1^-1 b1"},
        {"s1": 1, "s2": -1, "sl": 1, "loop": "a1^-1 b1"},
    ]))
    code, out = run(capsys, "pairing", "--fixture", str(path), "--plain")
    assert code == 0
    assert out.strip() == "u^-1 a1^-1 b1 - a1^-1 b1"


def test_schrodinger_element(capsys):
    code, out = run(capsys, "schrodinger", "--N", "2", "--element", "u")
    assert code == 0
    data = json.loads(out)
    assert abs(data[0][0][1] - 1.0) < 1e-12  # e^{i pi / 2} = i


def test_schrodinger_verify(capsys):
    code, out = run(capsys, "schrodinger", "--N", "3", "--genus", "1")
    assert code == 0
    assert "FAIL" not in out


def test_schrodinger_weil(capsys):
    code, out = run(capsys, "schrodinger", "--N", "3", "--weil", "b")
    assert code == 0
    assert len(json.loads(out)) == 3


def test_schrodinger_element_excludes_weil(capsys):
    # one mode per call: --weil is never silently dropped for --element
    with pytest.raises(SystemExit) as exc:
        cli.main(["schrodinger", "--N", "3", "--element", "a1", "--weil", "b"])
    assert exc.value.code == 2
    assert "not allowed with argument --element" in capsys.readouterr().err


def test_verify_all(capsys):
    code, out = run(capsys, "verify", "--all", "--genus", "2", "--strands", "3")
    assert code == 0
    assert "FAIL" not in out
    assert "braid identity" in out


@pytest.mark.usefixtures("cold_constants")
def test_verify_all_builds_composites_once(capsys, monkeypatch):
    # Ta Tb Ta and Tb Ta Tb (2 each), then the boundary twist as the fourth
    # power of the aba already built (3): 7 twisted compositions
    calls = []
    honest = repmatrix.compose_twisted

    def counted(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(repmatrix, "compose_twisted", counted)
    code, out = run(capsys, "verify", "--all")
    assert code == 0 and "FAIL" not in out
    assert len(calls) == 7


@pytest.mark.usefixtures("cold_constants")
def test_compose_builds_each_constant_once(capsys, monkeypatch):
    # D^8 as eight copies of one boundary twist: Ta Tb Ta (2) and its fourth
    # power (3) are built once, then the seven compositions of the copies
    calls = []
    honest = repmatrix.compose_twisted

    def counted(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(repmatrix, "compose_twisted", counted)
    code, out = run(capsys, "compose", *["boundary"] * 8, "--json")
    assert code == 0 and len(calls) == 12


def test_schrodinger_verify_large_N(capsys):
    # the verifier reads the monomial form: N^g = 40000 needs no dense matrix
    code, out = run(capsys, "schrodinger", "--N", "200", "--genus", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5 + 25 + 2
    assert all(line.endswith(": pass") for line in lines)


def test_aut_and_morita(capsys):
    code, out = run(capsys, "aut", "--twist", "a")
    assert code == 0
    assert json.loads(out) == {"delta": [0, -1], "S": [[1, -1], [0, 1]]}
    code, out = run(capsys, "morita", "--bounding-pair", "--genus", "2")
    assert code == 0
    assert json.loads(out)["delta"] == [2, 0, 0, 0]


@pytest.mark.parametrize("argv", [
    ["aut", "--twist", "a", "--inner", "b"], ["aut", "--inner", "a", "--witness", "{}"],
    ["aut", "--twist", "b", "--witness", "{}"], ["aut"], ["aut", "--inverse"],
    ["morita", "--d", "1", "--bounding-pair", "--twist", "a"],
    ["morita", "--d", "1", "--twist", "a"], ["morita", "--bounding-pair", "--twist", "b"],
    ["morita", "--d", "0", "--bounding-pair"], ["morita"], ["morita", "--word", "a1"],
    ["pairing", "--fixture", "records.json", "--builtin", "s-entry", "--plain"], ["pairing"],
])
def test_aut_and_morita_modes_exclusive_and_required(capsys, argv):
    # two modes, or none, are usage errors: no mode is silently dropped
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_aut_witness(capsys):
    twist = json.dumps({"delta": [2, 0], "S": [[1, 0], [0, 1]]})
    code, out = run(capsys, "aut", "--witness", twist, "--plain")
    assert code == 0
    assert out.strip() == "b1^-1"


def test_aut_witness_of_the_inverse(capsys):
    # --inverse applies before the witness is taken, as in --twist and --inner
    code, J = run(capsys, "aut", "--inner", "a1 b1^2")
    assert code == 0
    code, out = run(capsys, "aut", "--witness", J, "--inverse")
    assert code == 0
    assert json.loads(out) == {"word": "u^-2 a1^-1 b1^-2", "pair": "(0; -1,-2)"}
    code, out = run(capsys, "aut", "--witness", J)
    assert json.loads(out)["pair"] == "(0; 1,2)"


def test_domain_error_exit_code(capsys):
    code, _ = run(capsys, "matrix", "separating", "--genus", "1")
    assert code == 1
    code, _ = run(capsys, "mul", "bad ( expr")
    assert code == 1


def test_size_limits_exit_1(capsys):
    assert one_line_error(capsys, "mul", "(1 + a)^100000000000")
    # n <= MAX_POWER, but a step would multiply more than MAX_POWER_STEP term pairs
    for argv in (["--genus", "4", "(a1+b1+a2+b2+a3+b3+a4+b4)^16"],
                 ["((a+b)^16)^8"], ["((a+b)^16)^16"]):
        t0 = time.perf_counter()
        assert one_line_error(capsys, "mul", *argv), argv
        assert time.perf_counter() - t0 < 1.0, argv
    # juxtaposed factors and further mul operands are bounded like powers:
    # 26455 x 26455 term pairs, refused once both operands are built
    big = "(a1+b1+a2+b2+a3+b3+a4+b4)^8"
    for argv in ([f"{big} {big}"], [big, big]):
        t0 = time.perf_counter()
        assert one_line_error(capsys, "mul", "--genus", "4", *argv), argv
        assert time.perf_counter() - t0 < 2.0, argv
    assert one_line_error(capsys, "schrodinger", "--N", "1000000", "--genus", "3")
    assert one_line_error(capsys, "schrodinger", "--N", "2", "--genus", "16")
    assert one_line_error(capsys, "schrodinger", "--N", "1000000", "--genus", "3",
                          "--weil", "a")


def test_mul_operands_bound(capsys, monkeypatch):
    # (1 + a)^8 has 9 terms: 81 term pairs are admitted at a bound of 81
    monkeypatch.setattr(ring, "MAX_POWER_STEP", 81)
    code, out = run(capsys, "mul", "--plain", "(1 + a)^8", "(1 + a)^8")
    assert code == 0
    assert out == run(capsys, "mul", "--plain", "(1 + a)^16")[1]
    monkeypatch.setattr(ring, "MAX_POWER_STEP", 80)
    assert one_line_error(capsys, "mul", "(1 + a)^8", "(1 + a)^8")


def test_genus_bound_exit_1(capsys):
    # refused before any element is built: a huge genus returns at once
    for cmd in (["mul", "a"], ["phi", "s1"], ["aut", "--twist", "a"],
                ["morita", "--bounding-pair"], ["matrix", "separating"],
                ["compose", "ta"], ["specialize", "--specialize", "abelian", "a"],
                ["pairing", "--builtin", "s-entry"], ["schrodinger", "--N", "2"],
                ["verify"]):
        # MAX_GENUS + 1 first: without the bound, 10**9 would exhaust memory
        for genus in (str(heis.MAX_GENUS + 1), "0", "-1", str(10 ** 9)):
            assert one_line_error(capsys, *cmd, "--genus", genus), (cmd, genus)
    code, _ = run(capsys, "mul", "--genus", str(heis.MAX_GENUS), "a1 b16")
    assert code == 0


def test_strands_bound_exit_1(capsys):
    # refused before any relation is built: a huge strand count returns at once
    for cmd in (["verify"], ["phi", "s1"]):
        for strands in (str(braid.MAX_STRANDS + 1), "1", "0", str(10 ** 9)):
            assert one_line_error(capsys, *cmd, "--strands", strands), (cmd, strands)
    code, _ = run(capsys, "phi", "--strands", str(braid.MAX_STRANDS),
                  f"s{braid.MAX_STRANDS - 1}")
    assert code == 0


def _run_fresh(code):
    """Run code in a fresh interpreter: (its stderr, the names in sys.modules
    afterwards)."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(' '.join(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        check=True, timeout=120)
    return proc.stderr, set(proc.stdout.splitlines()[-1].split())


def _loaded_after(code):
    """Run code in a fresh interpreter; the names in sys.modules afterwards."""
    return _run_fresh(code)[1]


def _leaves_numpy_loaded(code):
    return "numpy" in _loaded_after(code)


def _main(*argv):
    return f"from heisencalc import cli; assert cli.main({list(argv)!r}) == 0"


@pytest.mark.parametrize("code, numpy", [
    ("import heisencalc", False),
    ("import heisencalc.cli", False),
    (_main("mul", "a b", "b^-1"), False),
    (_main("phi", "s1 a1^-1 b1"), False),
    (_main("matrix", "aba", "--latex"), False),
    (_main("verify", "--genus", "2", "--strands", "3"), False),
    (_main("schrodinger", "--N", "3"), True),
    (_main("verify", "--all"), True),
])
def test_numpy_only_for_numerical_commands(code, numpy):
    # the exact layers never need floating point, so they never pay for numpy
    assert _leaves_numpy_loaded(code) == numpy


@pytest.mark.parametrize("argv", [["--N", "1", "--element", "u"], ["--N", "0", "--weil", "a"],
                                  ["--N", "-3", "--genus", "2"]])
def test_small_N_refused_before_numpy(argv):
    # the refusal needs no floating point: exit 1, one line, numpy never loaded
    stderr, loaded = _run_fresh(
        f"from heisencalc import cli; assert cli.main({['schrodinger', *argv]!r}) == 1")
    assert stderr == "error: N must be >= 2\n"
    assert "numpy" not in loaded


@pytest.mark.parametrize("argv, modules", [
    (["phi", "s1 a1^-1 b1"], {"heis", "braid"}),
    (["mul", "a b", "b^-1"], {"heis", "ring"}),
    (["mul", "--specialize", "torsion5", "a b"], {"heis", "ring"}),
    (["mul", "--latex", "a b"], {"heis", "ring"}),
    (["specialize", "--specialize", "abelian", "a b"], {"heis", "ring"}),
    (["aut", "--twist", "a"], {"heis", "aut"}),
    (["aut", "--inner", "a1"], {"heis", "aut"}),
    (["morita", "--d", "1", "--word", "a1 b1"], {"heis", "aut"}),
    (["morita", "--bounding-pair"], {"heis", "aut"}),
    (["matrix", "aba", "--latex"], {"heis", "aut", "ring", "repmatrix"}),
    (["compose", "ta", "tb", "--specialize", "moriyama"], {"heis", "aut", "ring", "repmatrix"}),
    (["pairing", "--builtin", "s-entry"], {"heis", "braid", "ring", "pairing"}),
    (["schrodinger", "--N", "3", "--element", "u"], {"heis", "aut", "schrodinger"}),
    (["schrodinger", "--N", "3", "--weil", "a"], {"heis", "aut", "schrodinger"}),
    (["verify", "--genus", "2"], {"heis", "braid"}),
    (["verify", "--all"], {"heis", "braid", "aut", "ring", "repmatrix", "schrodinger"}),
])
def test_each_command_imports_only_its_modules(argv, modules):
    loaded = _loaded_after(_main(*argv))
    ours = {m.split(".", 1)[1] for m in loaded if m.startswith("heisencalc.")}
    assert ours == modules | {"cli"}
    numerical = "schrodinger" in modules
    assert ("numpy" in loaded) == numerical
    # numpy imports inspect itself; the package imports neither
    assert "dataclasses" not in loaded and ("inspect" in loaded) <= numerical


def test_cold_import_loads_the_package_heis_and_cli_only():
    loaded = _loaded_after("import heisencalc.cli")
    assert {m for m in loaded if m.startswith("heisencalc")} == {
        "heisencalc", "heisencalc.heis", "heisencalc.cli"}
    assert not {"dataclasses", "inspect", "numpy"} & loaded


def test_package_attributes_import_their_modules():
    loaded = _loaded_after(
        "from heisencalc import HeisElement, HeisPolynomial, HeisAutomorphism, BraidWord\n"
        "from heisencalc import heis, ring, aut, braid\n"
        "assert HeisElement is heis.HeisElement and HeisPolynomial is ring.HeisPolynomial\n"
        "assert HeisAutomorphism is aut.HeisAutomorphism and BraidWord is braid.BraidWord")
    assert {"heisencalc.ring", "heisencalc.aut", "heisencalc.braid"} <= loaded
    import heisencalc
    assert not hasattr(heisencalc, "NoSuchName")


@pytest.mark.parametrize("cmd", [["schrodinger", "--N", "3", "--weil", "a"],
                                 ["schrodinger", "--N", "3"], ["verify"]])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "x"])
def test_tolerance_must_be_finite_and_nonnegative(capsys, cmd, tol):
    with pytest.raises(SystemExit) as exc:
        cli.main([*cmd, "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_deep_nesting_is_one_line_error(capsys):
    assert one_line_error(capsys, "mul", "(" * 3000 + "a" + ")" * 3000)
    assert one_line_error(capsys, "aut", "--witness", "[" * 100000 + "]" * 100000)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2


def test_output_deterministic(capsys):
    _, out1 = run(capsys, "matrix", "boundary")
    _, out2 = run(capsys, "matrix", "boundary")
    assert out1 == out2


_TEXT = st.text(alphabet="uab12^-+() ;,", max_size=10)


@st.composite
def cli_argv(draw):
    """Random argv for one subcommand, with small genus, N and strings."""
    cmd = draw(st.sampled_from(["phi", "mul", "aut", "morita", "matrix", "compose",
                                "specialize", "pairing", "schrodinger", "verify", "?"]))
    small = st.sampled_from(["-1", "0", "1", "2", "3", "x"])
    genus = ["--genus", draw(small)]
    fmt = draw(st.sampled_from([[], ["--json"], ["--plain"], ["--latex"]]))
    text = draw(_TEXT)
    builtin = st.sampled_from(list(cli.BUILTIN_MATRICES) + ["nope"])
    if cmd == "phi":
        return [cmd, *genus, "--strands", draw(small), *fmt, text]
    if cmd == "mul":
        return [cmd, *genus, *fmt, text, draw(_TEXT)]
    if cmd == "aut":
        choice = draw(st.sampled_from([["--twist", draw(st.sampled_from("abc"))],
                                       ["--inner", text], ["--witness", text],
                                       ["--witness", '{"delta": [0, 2], "S": [[1, 0], [0, 1]]}'],
                                       []]))
        extra = draw(st.sampled_from([[], ["--inverse"], ["--index", draw(small)]]))
        return [cmd, *genus, *fmt, *choice, *extra]
    if cmd == "morita":
        choice = draw(st.sampled_from([["--bounding-pair"], ["--twist", "b"],
                                       ["--d", draw(small), "--word", text], []]))
        return [cmd, *genus, *choice]
    if cmd == "matrix":
        return [cmd, draw(builtin), *genus, *fmt]
    if cmd == "compose":
        return [cmd, *draw(st.lists(builtin, min_size=1, max_size=3)), *genus, *fmt]
    if cmd == "specialize":
        name = draw(st.sampled_from(["moriyama", "abelian", "torsion3", "torsion", "torsion0", "x"]))
        return [cmd, *genus, "--specialize", name, *fmt, text]
    if cmd == "pairing":
        choice = draw(st.sampled_from([["--builtin", "s-entry"], ["--builtin", "ta-wb-wa"],
                                       ["--fixture", os.devnull],
                                       ["--fixture", os.path.join(os.devnull, "x")], []]))
        return [cmd, *genus, *fmt, *choice]
    N = ["--N", draw(st.sampled_from(["-1", "0", "1", "2", "3", "4"]))]
    low_genus = ["--genus", draw(st.sampled_from(["0", "1", "2"]))]
    tol = draw(st.sampled_from([[], ["--tol", "1e-3"], ["--tol", "nan"], ["--tol", "x"]]))
    if cmd == "schrodinger":
        choice = draw(st.sampled_from([["--element", text], ["--weil", "a"], ["--weil", "b"], []]))
        return [cmd, *N, *low_genus, *choice, *tol]
    if cmd == "verify":
        extra = draw(st.sampled_from([[], ["--all"], ["--strands", draw(small)]]))
        return [cmd, *genus, *extra, *tol]
    return [text, *fmt]


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cli_argv())
def test_cli_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
