"""ring_scatter: the ring layer on the opposite data shape, read-heavy.

Seeded group-ring expressions at genus 1..3 with many coordinate fibres
and a narrow u-span (the mirror image of mcg_words), up to 300 x 300 terms.
Each goes through parse_poly, one product, a small (expr)^n and all three
specializations, each checked to be a ring homomorphism on that product.
Also braid.phi on long seeded words, verify_bellingeri (g <= 3, n <= 4),
heis.parse_element and verify_presentation, and evaluate_pairing on
seeded records.  A representation tuned for mcg_words must show here if
it costs scattered inputs or the read path.
"""

import random

from bench import Op, Workload
import oracle

# (genus, terms in p, terms in q): scattered coordinates, k in [-1, 1].
FULL_SHAPES = [(1, 300, 300), (1, 120, 200), (1, 40, 60),
               (2, 200, 200), (2, 60, 90), (3, 120, 120), (3, 30, 50)]
TINY_SHAPES = [(1, 12, 10), (2, 8, 6)]


def _scattered_poly(rng, genus, terms, radius, kmax=1):
    out = {}
    while len(out) < terms:
        coords = tuple(rng.randint(-radius, radius) for _ in range(2 * genus))
        out[(rng.randint(-kmax, kmax), coords)] = rng.choice((-3, -2, -1, 1, 2, 3))
    return out


def _braid_letters(rng, genus, strands, length):
    names = [f"s{i}" for i in range(1, strands)]
    names += [f"{x}{i}" for i in range(1, genus + 1) for x in "ab"]
    return [(rng.choice(names), rng.choice((-2, -1, 1, 2))) for _ in range(length)]


def _spec_check(kind, order, p, q, n, truth_p):
    """Op checking one specialization s on (P, Q, P Q, R, R^n)."""
    spec = {"moriyama": oracle.spec_moriyama, "abelian": oracle.spec_abelian,
            "torsion": lambda x: oracle.spec_torsion(x, order)}[kind]

    def run(ctx):
        ring = ctx["lib"]["ring"]
        fn = {"moriyama": ring.specialize_moriyama,
              "abelian": ring.specialize_abelianize,
              "torsion": lambda x: ring.specialize_torsion(x, order)}[kind]
        P, Q, PQ = ctx[p], ctx[q], ctx[f"{p}*{q}"]
        R, Rn = ctx[f"{p}/small"], ctx[f"{p}/power"]
        sp, sq, sr = fn(P), fn(Q), fn(R)
        sn = sr
        for _ in range(n - 1):
            sn = sn * sr
        return sp, sp * sq == fn(PQ), sn == fn(Rn)

    def check(out, ctx):
        sp, hom_product, hom_power = out
        return hom_product and hom_power and dict(sp.terms) == spec(truth_p)
    return Op(f"spec {kind} {p}", run, check)


def build(seed, size="full"):
    rng = random.Random(seed)
    tiny = size == "tiny"
    ops = []
    truth = {}

    def ring(ctx):
        return ctx["lib"]["ring"]

    for idx, (g, tp, tq) in enumerate(TINY_SHAPES if tiny else FULL_SHAPES):
        radius = 8 if g == 1 else 4 if g == 2 else 3
        p, q = f"p{idx}", f"q{idx}"
        truth[p] = _scattered_poly(rng, g, tp, radius)
        truth[q] = _scattered_poly(rng, g, tq, radius)
        small, n = _scattered_poly(rng, g, 8, 2), 3
        for name in (p, q):
            text = oracle.poly_str(truth[name])
            ops.append(Op(name, lambda ctx, g=g, t=text: ring(ctx).parse_poly(g, t),
                          lambda P, ctx, name=name: oracle.from_library(P) == truth[name]))
        ops.append(Op(f"{p}*{q}", lambda ctx, p=p, q=q: ctx[p] * ctx[q],
                      lambda PQ, ctx: len(PQ.terms) > 0))
        small_text = oracle.poly_str(small)
        ops.append(Op(f"{p}/small", lambda ctx, g=g, t=small_text: ring(ctx).parse_poly(g, t),
                      lambda R, ctx, s=small: oracle.from_library(R) == s))
        power_text = f"({small_text})^{n}"
        ops.append(Op(f"{p}/power",
                      lambda ctx, g=g, t=power_text: ring(ctx).parse_poly(g, t),
                      lambda Rn, ctx: len(Rn.terms) > 0))
        for kind, order in (("moriyama", 0), ("abelian", 0), ("torsion", rng.randint(2, 7))):
            ops.append(_spec_check(kind, order, p, q, n, truth[p]))

    # braid.phi on long seeded words, against the reference product.
    for i, (g, strands, length) in enumerate(
            [(1, 2, 40)] if tiny else [(1, 2, 1500), (2, 3, 1500), (3, 4, 1500)]):
        letters = _braid_letters(rng, g, strands, length)
        text = oracle.letters_str(letters)
        want = oracle.phi(g, letters)

        def run_phi(ctx, g=g, strands=strands, text=text):
            braid = ctx["lib"]["braid"]
            return braid.phi(braid.BraidWord.parse(g, strands, text))
        ops.append(Op(f"phi {i}", run_phi,
                      lambda x, ctx, want=want: (x.k, x.coords) == want))
    for g in (1, 2) if tiny else (1, 2, 3):
        for n in (2, 3) if tiny else (2, 3, 4):
            ops.append(Op(f"bellingeri g{g} n{n}",
                          lambda ctx, g=g, n=n: ctx["lib"]["braid"].verify_bellingeri(g, n),
                          lambda rep, ctx: rep and all(ok for _, ok in rep)))

    # heis: parsing in both notations, and the presentation.
    for i in range(4 if tiny else 20):
        g = rng.randint(1, 3)
        elem = (rng.randint(-9, 9), tuple(rng.randint(-9, 9) for _ in range(2 * g)))
        text = oracle.word_str(elem) if i % 2 else oracle.pair_str(elem)
        ops.append(Op(f"parse element {i}",
                      lambda ctx, g=g, t=text: ctx["lib"]["heis"].parse_element(g, t),
                      lambda x, ctx, e=elem: (x.k, x.coords) == e))
    for g in (1, 2, 3):
        ops.append(Op(f"presentation g{g}",
                      lambda ctx, g=g: ctx["lib"]["heis"].verify_presentation(g),
                      lambda rep, ctx: all(ok for _, ok in rep)))

    # pairing on seeded intersection records (genus 1, two strands).
    for i in range(2 if tiny else 12):
        records = []
        for _ in range(24):
            signs = [rng.choice((1, -1)) for _ in range(3)]
            records.append((signs, _braid_letters(rng, 1, 2, rng.randint(0, 12))))
        want = {}
        for signs, letters in records:
            want = oracle.padd(want, {oracle.phi(1, letters): signs[0] * signs[1] * signs[2]})

        def run_pairing(ctx, records=records):
            lib = ctx["lib"]
            recs = [lib["pairing"].IntersectionRecord(
                        s[0], s[1], s[2],
                        lib["braid"].BraidWord.parse(1, 2, oracle.letters_str(w)))
                    for s, w in records]
            return lib["pairing"].evaluate_pairing(recs, 1)
        ops.append(Op(f"pairing {i}", run_pairing,
                      lambda P, ctx, want=want: oracle.from_library(P) == want))

    def setup(lib):
        ring_mod = lib["ring"]
        P = ring_mod.parse_poly(2, "(u - a1^-1 b2) (1 + b1)^2")
        ring_mod.specialize_torsion(P * P, 3)
        ring_mod.specialize_abelianize(P)
        ring_mod.specialize_moriyama(P)
        lib["braid"].verify_bellingeri(2, 3)
        lib["heis"].verify_presentation(1)
        lib["pairing"].evaluate_pairing(lib["pairing"].worked_records("s-entry"))

    return Workload("ring_scatter", ["heis", "ring", "aut", "braid", "pairing"],
                    ops, setup, normalize=True)
