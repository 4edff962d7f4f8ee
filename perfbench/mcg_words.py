"""mcg_words: exact mapping-class matrices, what the paper computes.

Ops: the built-in matrices and their inverses (checked by the round trip);
boundary powers D^2..D^8, each one more twisted composition with D, read
back in the u^2 = 1 quotient, where each must be the identity, and in the
abelian and u^3 = 1 quotients; the separating twist at g=2,3 composed with
itself; JSON and LaTeX renderings of D^8 and of the g=3 square; the braid relation and the chain relations
(TaTb)^6 = (TaTbTa)^4 = D; seeded words in Ta^+-1, Tb^+-1, each paired
with a twin that has a trivial relator spliced in, so the two must agree.
Word length is capped at 4: random length-8 words already range from 1.5
to 88 ms.

The op count (35) puts p90 among the samples of D^5 and p50 among the
mid-size fixed ops (builds, renderings, chain relations).  Large compositions follow host speed least,
and the short seeded words stay below both quantiles for every seed, so
neither quantile jumps between ops of different cost.

The data has few coordinate fibres and a wide u-span (D^8: up to 405 terms
per entry on 9 fibres, u-span 52, 5-bit coefficients).  No numpy runs.
"""

import json
import random

from bench import Op, Workload
import oracle

# Letters Ta (0), Tb (1), Ta^-1 (2), Tb^-1 (3); trivial relators x x^-1.
# (The braid relation has an op of its own; spliced into a word it would
# more than double the word's cost spread.)
RELATORS = [[0, 2], [1, 3], [2, 0], [3, 1]]
INVERSE_LETTER = {0: 2, 1: 3, 2: 0, 3: 1}


def _random_word(rng, length):
    word = []
    while len(word) < length:
        x = rng.randrange(4)
        if not word or INVERSE_LETTER[x] != word[-1]:
            word.append(x)
    return word


def _evaluate(rm, ctx, word):
    letters = [ctx["ta"], ctx["tb"], ctx["inverse ta"], ctx["inverse tb"]]
    M = letters[word[0]]
    for x in word[1:]:
        M = rm.compose_twisted(M, letters[x])
    return M


def _same(M, N):
    return M.entries == N.entries and M.source_twist == N.source_twist


def _is_identity(M):
    n = M.rows
    return (M.source_twist.is_identity()
            and all(oracle.from_library(M.entries[i][j])
                    == ({(0, (0,) * (2 * M.genus)): 1} if i == j else {})
                    for i in range(n) for j in range(M.cols)))


def _moriyama_identity(rows):
    return all(p.terms == (((0, 1),) if i == j else ())
               for i, row in enumerate(rows) for j, p in enumerate(row))


def _json_matches(text, M):
    data = json.loads(text)
    return (data["rows"] == M.rows and data["cols"] == M.cols
            and all(data["entries"][i][j]
                    == oracle.poly_json(oracle.from_library(M.entries[i][j]))
                    for i in range(M.rows) for j in range(M.cols)))


def _latex_matches(text, M):
    lines = text.split("\n")
    body = lines[1:-1]
    return (lines[0] == "\\begin{pmatrix}" and lines[-1] == "\\end{pmatrix}"
            and len(body) == M.rows
            and all(line.count("&") == M.cols - 1 for line in body))


def _no_unit_pivot(outcome):
    return isinstance(outcome, ValueError) and "no unit pivot" in str(outcome)


def build(seed, size="full"):
    rng = random.Random(seed)
    tiny = size == "tiny"
    top_power = 3 if tiny else 8
    sep_genera = [2] if tiny else [2, 3]
    n_words, word_len = (2, 3) if tiny else (2, 4)

    def rm(ctx):
        return ctx["lib"]["repmatrix"]

    ops = []
    fixture_of = {"ta": "m_a", "tb": "m_b", "aba": "action_aba",
                  "boundary": "boundary_twist"}
    makers = {"ta": "matrix_Ta", "tb": "matrix_Tb", "aba": "matrix_TaTbTa",
              "boundary": "matrix_boundary_twist"}
    for name, maker in makers.items():
        ops.append(Op(name, lambda ctx, m=maker: getattr(rm(ctx), m)(),
                      lambda M, ctx, f=fixture_of[name]:
                      M.entries == rm(ctx).fixture_matrix(f).entries))
    for g in sep_genera:
        ops.append(Op(f"sep{g}", lambda ctx, g=g: rm(ctx).matrix_separating_twist(g),
                      lambda M, ctx: _moriyama_identity(
                          rm(ctx).specialize_matrix(M, "moriyama"))))

    # Inverses, checked by the round trip.  The boundary and separating
    # twists have no unit pivot today ("no unit pivot in column 0"), a
    # documented seed defect.
    for name in list(makers) + [f"sep{g}" for g in sep_genera]:
        defect = _no_unit_pivot if name == "boundary" or name.startswith("sep") else None
        ops.append(Op(f"inverse {name}",
                      lambda ctx, n=name: rm(ctx).rep_matrix_inverse(ctx[n]),
                      lambda inv, ctx, n=name: _is_identity(
                          rm(ctx).compose_twisted(ctx[n], inv)), defect))

    # Boundary powers, each read back in the u^2 = 1 quotient, where it
    # must be the identity.
    powers = [f"D^{k}" for k in range(2, top_power + 1)]
    for k in range(2, top_power + 1):
        prev = "boundary" if k == 2 else f"D^{k - 1}"
        ops.append(Op(f"D^{k}",
                      lambda ctx, prev=prev: rm(ctx).compose_twisted(ctx[prev], ctx["boundary"]),
                      lambda M, ctx: M.source_twist.is_identity()))
    ops.append(Op("read moriyama D^2..",
                  lambda ctx: [rm(ctx).specialize_matrix(ctx[p], "moriyama") for p in powers],
                  lambda reads, ctx: all(_moriyama_identity(rows) for rows in reads)))
    for target, order, spec in (("abelian", 0, oracle.spec_abelian),
                                ("torsion", 3, lambda p: oracle.spec_torsion(p, 3))):
        ops.append(Op(f"read {target} D^2..",
                      lambda ctx, t=target, o=order: [
                          rm(ctx).specialize_matrix(ctx[p], t, o) for p in powers],
                      lambda reads, ctx, spec=spec: all(
                          dict(s.terms) == spec(oracle.from_library(e))
                          for p, rows in zip(powers, reads)
                          for s, e in zip(sum(rows, []), sum(map(list, ctx[p].entries), [])))))
    for g in sep_genera:
        ops.append(Op(f"sep{g}^2",
                      lambda ctx, g=g: rm(ctx).compose_twisted(ctx[f"sep{g}"], ctx[f"sep{g}"]),
                      lambda M, ctx: M.source_twist.is_identity() and _moriyama_identity(
                          rm(ctx).specialize_matrix(M, "moriyama"))))
    for name in (f"D^{top_power}", f"sep{sep_genera[-1]}^2"):
        for fmt, render, matches in (
                ("json", lambda ctx, M: json.dumps(M.to_json()), _json_matches),
                ("latex", lambda ctx, M: rm(ctx).matrix_latex(M), _latex_matches)):
            ops.append(Op(f"read {fmt} {name}", lambda ctx, r=render, n=name: r(ctx, ctx[n]),
                          lambda text, ctx, m=matches, n=name: m(text, ctx[n])))

    # Relations of the mapping class group.
    ops.append(Op("braid relation",
                  lambda ctx: (_evaluate(rm(ctx), ctx, [0, 1, 0]),
                               _evaluate(rm(ctx), ctx, [1, 0, 1])),
                  lambda pair, ctx: _same(*pair)))
    ops.append(Op("chain (TaTb)^6", lambda ctx: _evaluate(rm(ctx), ctx, [0, 1] * 6),
                  lambda M, ctx: _same(M, ctx["boundary"])))
    ops.append(Op("chain (TaTbTa)^4", lambda ctx: _evaluate(rm(ctx), ctx, [0, 1, 0] * 4),
                  lambda M, ctx: _same(M, ctx["boundary"])))

    # Seeded words, each checked against its relator-spliced twin.  They run
    # last, so that the ops before them see the same heap for every seed.
    for i in range(n_words):
        word = _random_word(rng, word_len)
        pos = rng.randrange(word_len + 1)
        twin = word[:pos] + rng.choice(RELATORS) + word[pos:]
        ops.append(Op(f"word {i}", lambda ctx, w=word: _evaluate(rm(ctx), ctx, w),
                      lambda M, ctx: True))
        ops.append(Op(f"twin {i}", lambda ctx, w=twin: _evaluate(rm(ctx), ctx, w),
                      lambda M, ctx, i=i: _same(M, ctx[f"word {i}"])))

    def setup(lib):
        rmod = lib["repmatrix"]
        D = rmod.matrix_boundary_twist()
        rmod.matrix_latex(rmod.compose_twisted(D, rmod.matrix_Ta()))
        rmod.rep_matrix_inverse(rmod.matrix_Tb())
        rmod.matrix_separating_twist(2).to_json()

    return Workload("mcg_words", ["heis", "ring", "aut", "repmatrix"], ops, setup,
                    normalize=True)
