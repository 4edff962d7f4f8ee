"""weil: the numerical layer, with the exact layers idle.

schrodinger_matrix products on seeded elements, verify_schrodinger_rep with
a seeded generator, and weil_intertwiner + weil_residual for the twists a,
b and a o b at each (N, g) below, plus weil_cocycle at small N.  An op fails
if its residual exceeds 1e-10 or its result is not unitary.  (5, 2) is
dominated by a dense SVD of a (2g+1)N^2g x N^2g system; the first SVDs in a
process pay BLAS thread start-up, which set-up absorbs.
"""

import random

from bench import Op, Workload
import oracle

FULL_SIZES = [(5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (4, 2), (5, 2)]
TINY_SIZES = [(3, 1), (3, 2)]
TOL = 1e-10


def _symplectic(aut, g, kinds):
    """Composite of the standard twists along a1/b1, with zero delta."""
    phi = aut.identity_aut(g)
    for kind in kinds:
        phi = phi.compose(aut.twist_aut(g, kind, 1))
    return aut.HeisAutomorphism(g, (0,) * (2 * g), phi.S)


def _unitary(np, U):
    return np.abs(U @ U.conj().T - np.eye(U.shape[0])).max() < 1e-8


def build(seed, size="full"):
    rng = random.Random(seed)
    tiny = size == "tiny"
    ops = []

    def lib(ctx, name):
        return ctx["lib"][name]

    for N, g in TINY_SIZES if tiny else FULL_SIZES:
        pairs = []
        for _ in range(6):
            x, y = [(rng.randint(-9, 9), tuple(rng.randint(-9, 9) for _ in range(2 * g)))
                    for _ in range(2)]
            pairs.append((x, y))

        def products(ctx, N=N, g=g, pairs=pairs):
            sch, heis = lib(ctx, "schrodinger"), lib(ctx, "heis")
            out = []
            for x, y in pairs:
                hx, hy = heis.HeisElement(g, *x), heis.HeisElement(g, *y)
                Mx = sch.schrodinger_matrix(N, g, hx)
                out.append((Mx, Mx @ sch.schrodinger_matrix(N, g, hy),
                            sch.schrodinger_matrix(N, g, hx * hy)))
            return out

        def products_ok(out, ctx, N=N, g=g, pairs=pairs):
            for (x, _), (Mx, prod, direct) in zip(pairs, out):
                want = oracle.schrodinger_entries(N, g, x)
                if abs(prod - direct).max() > 1e-9 or any(
                        abs(Mx[r, c] - want.get((r, c), 0)) > 1e-9
                        for r in range(N ** g) for c in range(N ** g)):
                    return False
            return True
        ops.append(Op(f"matrices N{N} g{g}", products, products_ok))

        ops.append(Op(f"verify N{N} g{g}",
                      lambda ctx, N=N, g=g, s=rng.randrange(2 ** 32):
                      lib(ctx, "schrodinger").verify_schrodinger_rep(
                          N, g, tol=TOL, rng=lib(ctx, "np").random.default_rng(s)),
                      lambda rep, ctx: all(ok for _, ok in rep)))
        for kinds in ("a", "b", "ab"):
            def solve(ctx, N=N, g=g, kinds=kinds):
                sch = lib(ctx, "schrodinger")
                phi = _symplectic(lib(ctx, "aut"), g, kinds)
                U = sch.weil_intertwiner(N, g, phi)
                return U, sch.weil_residual(N, g, phi, U)
            ops.append(Op(f"weil N{N} g{g} {kinds}", solve,
                          lambda out, ctx: out[1] <= TOL and _unitary(lib(ctx, "np"), out[0])))

    for N, g, first, second in [(3, 1, "a", "b")] if tiny else \
            [(3, 1, "a", "b"), (5, 1, "b", "a"), (3, 2, "a", "b")]:
        def cocycle(ctx, N=N, g=g, first=first, second=second):
            aut = lib(ctx, "aut")
            return lib(ctx, "schrodinger").weil_cocycle(
                N, g, _symplectic(aut, g, first), _symplectic(aut, g, second))
        ops.append(Op(f"cocycle N{N} g{g}", cocycle,
                      lambda lam, ctx: abs(abs(lam) - 1) < 1e-8))

    def setup(lib_modules):
        import numpy
        lib_modules["np"] = numpy
        sch, aut_mod = lib_modules["schrodinger"], lib_modules["aut"]
        for N, g in [(3, 1), (3, 2)] if tiny else [(7, 1), (4, 2), (7, 1)]:
            phi = _symplectic(aut_mod, g, "a")
            U = sch.weil_intertwiner(N, g, phi)
            sch.weil_residual(N, g, phi, U)
        sch.verify_schrodinger_rep(3, 1)

    return Workload("weil", ["heis", "aut", "schrodinger"], ops, setup)
