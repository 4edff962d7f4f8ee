"""Command line front end.

Every subcommand wraps one family of library operations.  Output is JSON by
default; on the commands that render group elements or sums, --plain gives
the human-readable word-form rendering and --latex the display-math
rendering of matrices and sums.  Exit codes: 0 success, 1 domain
error (bad input values, failed verification), 2 usage error.

Each command imports the modules it runs inside its own function, so a
fresh process compiles only those, and only schrodinger and verify --all
load numpy.
"""

import argparse
import functools
import json
import math
import re
import sys

from . import heis


def _add_format_flags(sp):
    fmt = sp.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json")
    fmt.add_argument("--plain", dest="fmt", action="store_const", const="plain")
    fmt.add_argument("--latex", dest="fmt", action="store_const", const="latex")
    sp.set_defaults(fmt="json")


def _emit_poly(p, fmt):  # a HeisPolynomial or a SpecializedPolynomial
    print(json.dumps(p.to_json()) if fmt == "json" else p.render(fmt == "latex"))


BUILTIN_MATRICES = {
    "ta": lambda rm, genus: rm.matrix_Ta(),
    "tb": lambda rm, genus: rm.matrix_Tb(),
    "aba": lambda rm, genus: rm.matrix_TaTbTa(),
    "boundary": lambda rm, genus: rm.matrix_boundary_twist(),
    "separating": lambda rm, genus: rm.matrix_separating_twist(genus),
}


def cmd_phi(args):
    from . import braid
    braid.check_strands(args.strands)
    w = braid.BraidWord.parse(args.genus, args.strands, args.word)
    x = braid.phi(w)
    if args.fmt == "json":
        print(json.dumps({"word": x.word_str(), "pair": x.pair_str()}))
    else:
        print(x.word_str())


def cmd_mul(args):  # specialize EXPR is mul with one operand
    from . import ring
    result = ring.parse_poly(args.genus, args.exprs[0])
    for text in args.exprs[1:]:
        result = ring.bounded_product(result, ring.parse_poly(args.genus, text))
    if args.specialize:
        result = ring.specialize(result, ring.quotient(args.specialize))
    _emit_poly(result, args.fmt)


def cmd_aut(args):
    from . import aut
    if args.twist:
        phi = aut.twist_aut(args.genus, args.twist, args.index)
    elif args.inner is not None:
        phi = aut.inner_of(heis.parse_element(args.genus, args.inner))
    else:
        phi = aut.HeisAutomorphism.from_json(json.loads(args.witness))
    phi = phi.inverse() if args.inverse else phi
    if args.witness is None:
        print(json.dumps(phi.to_json()))
        return 0
    h = aut.inner_witness(phi)
    if h is None:
        print("not inner", file=sys.stderr)
        return 1
    print(h.word_str() if args.fmt != "json"
          else json.dumps({"word": h.word_str(), "pair": h.pair_str()}))
    return 0


def cmd_morita(args):
    from . import aut
    if args.d is not None:
        print(aut.morita_d(args.d, heis.parse_word(args.word)))
        return 0
    if args.bounding_pair:
        table = aut.bounding_pair_table(args.genus)
    else:
        table = aut.twist_pi1_table(args.genus, args.twist, args.index)
    phi = aut.morita_crossed_hom(args.genus, table)
    print(json.dumps(phi.to_json()))
    return 0


def cmd_compose(args):
    from . import repmatrix
    names = args.names if args.cmd == "compose" else [args.name]  # matrix NAME
    if args.genus != 1 and set(names) != {"separating"}:
        raise ValueError(f"ta, tb, aba and boundary need genus 1, got {args.genus}")
    mats = [BUILTIN_MATRICES[name](repmatrix, args.genus) for name in names]
    M = functools.reduce(repmatrix.compose_twisted, mats)
    rows = repmatrix.specialize_matrix(M, args.specialize) if args.specialize else M.entries
    if args.fmt == "latex":
        print(repmatrix.matrix_latex(rows))
    elif args.fmt == "json":
        print(json.dumps(M.to_json() if not args.specialize else {
            "rows": M.rows, "cols": M.cols, "entries": [[str(p) for p in row] for row in rows]}))
    else:
        print(repmatrix.matrix_str(rows) if args.specialize else M)


def cmd_pairing(args):
    from . import pairing
    if args.builtin:  # the one other mode is --fixture, whose path may be ''
        records = pairing.worked_records(args.builtin, args.genus)
    else:
        with open(args.fixture) as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError("fixture must be a JSON list of records")
        records = [pairing.IntersectionRecord.from_json(args.genus, d)
                   for d in data]
    _emit_poly(pairing.evaluate_pairing(records, args.genus, args.mode), args.fmt)


def cmd_schrodinger(args):
    if args.N < 2:  # refused before numpy is loaded
        raise ValueError("N must be >= 2")
    from . import aut, schrodinger  # numpy: only the numerical commands load it
    if args.element:
        h = heis.parse_element(args.genus, args.element)
        U = schrodinger.schrodinger_matrix(args.N, args.genus, h)
        print(json.dumps(schrodinger.matrix_to_json(U)))
        return 0
    if args.weil:
        phi = aut.twist_aut(args.genus, args.weil, 1)
        phi = aut.HeisAutomorphism._of(args.genus, (0,) * (2 * args.genus), phi.S)
        U = schrodinger.weil_intertwiner(args.N, args.genus, phi)
        res = schrodinger.weil_residual(args.N, args.genus, phi, U)
        if not res <= args.tol:
            print(f"residual {res:.3e} above tolerance", file=sys.stderr)
            return 1
        print(json.dumps(schrodinger.matrix_to_json(U)))
        return 0
    return _report(schrodinger.verify_schrodinger_rep(args.N, args.genus, tol=args.tol))


def cmd_verify(args):
    from . import braid
    braid.check_strands(args.strands)
    checks = heis.verify_presentation(args.genus)
    checks.extend(braid.verify_bellingeri(args.genus, args.strands))
    if args.all:
        from . import repmatrix, schrodinger
        checks.extend(repmatrix.verify_builtin_matrices())
        checks.extend(schrodinger.verify_schrodinger_rep(3, 1, tol=args.tol))
    return _report(checks)


def _report(checks):
    for name, ok in checks:
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in checks) else 1


def integer(text):
    """An integer option: ASCII digits and an optional minus (unlike int())."""
    if not re.fullmatch(heis.INTEGER, text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def tolerance(text):
    """The --tol value: a finite float >= 0 (anything else is a usage error)."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return value


def build_parser():
    ap = argparse.ArgumentParser(prog="heisencalc",
                                 description="Exact Heisenberg-group calculator")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("phi", help="image of a braid word in the group")
    sp.add_argument("--genus", type=integer, default=1)
    sp.add_argument("--strands", type=integer, default=2)
    sp.add_argument("word")
    _add_format_flags(sp)
    sp.set_defaults(fn=cmd_phi)

    sp = sub.add_parser("mul", help="multiply group ring expressions")
    sp.add_argument("--genus", type=integer, default=1)
    sp.add_argument("--specialize")
    sp.add_argument("exprs", nargs="+")
    _add_format_flags(sp)
    sp.set_defaults(fn=cmd_mul)

    sp = sub.add_parser("aut", help="automorphisms: twists, inner, witnesses")
    sp.add_argument("--genus", type=integer, default=1)
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--twist", choices=["a", "b"])
    mode.add_argument("--inner")
    mode.add_argument("--witness")
    sp.add_argument("--index", type=integer, default=1)
    sp.add_argument("--inverse", action="store_true")
    _add_format_flags(sp)
    sp.set_defaults(fn=cmd_aut)

    sp = sub.add_parser("morita", help="crossed homomorphism from a pi_1 action")
    sp.add_argument("--genus", type=integer, default=2)
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--bounding-pair", action="store_true")
    mode.add_argument("--twist", choices=["a", "b"])
    mode.add_argument("--d", type=integer)
    sp.add_argument("--index", type=integer, default=1)
    sp.add_argument("--word", default="")
    sp.set_defaults(fn=cmd_morita)

    sp = sub.add_parser("matrix", help="built-in twist matrices")
    sp.add_argument("name", choices=list(BUILTIN_MATRICES))
    sp.add_argument("--genus", type=integer, default=1)
    sp.add_argument("--specialize")
    _add_format_flags(sp)
    sp.set_defaults(fn=cmd_compose)

    sp = sub.add_parser("compose", help="twisted composite of built-in matrices")
    sp.add_argument("names", nargs="+", choices=list(BUILTIN_MATRICES))
    sp.add_argument("--genus", type=integer, default=1)
    sp.add_argument("--specialize")
    _add_format_flags(sp)
    sp.set_defaults(fn=cmd_compose)

    sp = sub.add_parser("specialize", help="specialize a group ring expression")
    sp.add_argument("--genus", type=integer, default=1)
    sp.add_argument("--specialize", required=True)
    sp.add_argument("exprs", nargs=1, metavar="expr")
    _add_format_flags(sp)
    sp.set_defaults(fn=cmd_mul)

    sp = sub.add_parser("pairing", help="evaluate intersection pairing data")
    sp.add_argument("--genus", type=integer, default=1)
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--fixture", help="path to a JSON list of records")
    mode.add_argument("--builtin", choices=["ta-wb-wa", "ta-wb-vab", "s-entry"])
    sp.add_argument("--mode", choices=["paper-formula", "oriented"],
                    default="paper-formula")
    _add_format_flags(sp)
    sp.set_defaults(fn=cmd_pairing)

    sp = sub.add_parser("schrodinger", help="finite representation matrices")
    sp.add_argument("--N", type=integer, required=True)
    sp.add_argument("--genus", type=integer, default=1)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--element")
    mode.add_argument("--weil", choices=["a", "b"])
    sp.add_argument("--tol", type=tolerance, default=1e-10)
    sp.set_defaults(fn=cmd_schrodinger)

    sp = sub.add_parser("verify", help="run the relation and matrix checks")
    sp.add_argument("--genus", type=integer, default=1)
    sp.add_argument("--strands", type=integer, default=2)
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--tol", type=tolerance, default=1e-10)
    sp.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        heis.check_genus(args.genus)
        code = args.fn(args)
    # RecursionError: input nested too deeply for the parsers
    except (ValueError, ArithmeticError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
