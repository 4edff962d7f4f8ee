"""Pinned plain and LaTeX renderings of words, sums and their images.

Exact example strings, plus a reference formatter written here from the
rendering rules: the word normal form u^kappa a1^l1 b1^m1 ... with kappa =
k - sum l_i m_i, exponent 1 omitted, zero exponents dropped, '1' for the
empty word; LaTeX braces every exponent and writes a_{i}, b_{i}, or plain
a, b at genus 1; sums in canonical order, '1' words absorbed into the
coefficient, '-' glued to the first term and ' - ' / ' + ' between terms.
"""

import random

from heisencalc import repmatrix as rm, ring
from heisencalc.heis import HeisElement
from heisencalc.ring import HeisPolynomial, parse_poly


def ref_word(kappa, coords, latex=False):
    genus = len(coords) // 2
    letters = [("u", kappa)]
    for i in range(genus):
        for x, e in (("a", coords[2 * i]), ("b", coords[2 * i + 1])):
            if not latex:
                name = f"{x}{i + 1}"
            elif genus == 1:
                name = x
            else:
                name = f"{x}_{{{i + 1}}}"
            letters.append((name, e))
    out = []
    for name, e in letters:
        if e == 1:
            out.append(name)
        elif e:
            out.append(f"{name}^{{{e}}}" if latex else f"{name}^{e}")
    return " ".join(out) or "1"


def ref_sum(items):
    """items: (rendered word, nonzero coefficient) in print order."""
    text = ""
    for word, c in items:
        body = str(abs(c)) if word == "1" else word if abs(c) == 1 else f"{abs(c)} {word}"
        if text:
            text += (" - " if c < 0 else " + ") + body
        else:
            text = ("-" if c < 0 else "") + body
    return text or "0"


def kappa(elem):
    return elem.k - sum(elem.coords[2 * i] * elem.coords[2 * i + 1]
                        for i in range(elem.genus))


EXAMPLES = [
    # (genus, expression, str, poly_latex, moriyama, abelian)
    (1, "u^2 a^-2 b^2", "u^2 a1^-2 b1^2", "u^{2} a^{-2} b^{2}", "1", "a1^-2 b1^2"),
    (1, "2 - 3 a b^-1 + u", "-3 a1 b1^-1 + 2 + u", "-3 a b^{-1} + 2 + u",
     "-1 + u", "3 - 3 a1 b1^-1"),
    (1, "-u^-1 b + 4", "-u^-1 b1 + 4", "-u^{-1} b + 4", "4 - u", "4 - b1"),
    (1, "0", "0", "0", "0", "0"),
    (2, "a1 b1 - b1 a1", "-u^-2 a1 b1 + a1 b1", "-u^{-2} a_{1} b_{1} + a_{1} b_{1}",
     "0", "0"),
    (2, "u a1 b1 + 3 u^2 b2^-1", "3 u^2 b2^-1 + u a1 b1",
     "3 u^{2} b_{2}^{-1} + u a_{1} b_{1}", "3 + u", "3 b2^-1 + a1 b1"),
    (3, "a3^-2 b2 - 2 u^3 a1 b3^5", "b2 a3^-2 - 2 u^3 a1 b3^5",
     "b_{2} a_{3}^{-2} - 2 u^{3} a_{1} b_{3}^{5}", "1 - 2 u", "b2 a3^-2 - 2 a1 b3^5"),
]


def test_render_examples():
    for genus, text, plain, latex, mori, abel in EXAMPLES:
        p = parse_poly(genus, text)
        assert str(p) == plain
        assert rm.poly_latex(p) == latex
        assert str(ring.specialize_moriyama(p)) == mori
        assert str(ring.specialize_abelianize(p)) == abel
    assert HeisElement(1, 2, (-2, 2)).word_str() == "u^6 a1^-2 b1^2"
    assert HeisElement(3, 0, (0, 0, 0, 1, -2, 0)).word_str() == "b2 a3^-2"
    assert HeisElement(2, 0, (0,) * 4).word_str() == "1"


def test_render_matches_reference():
    rng = random.Random(2718)
    for _ in range(400):
        genus = rng.choice((1, 2, 3))
        terms = [(HeisElement(genus, rng.randint(-4, 4),
                              tuple(rng.choice((-2, -1, 0, 0, 1, 1, 3))
                                    for _ in range(2 * genus))),
                  rng.choice((-3, -1, 1, 1, 2)))
                 for _ in range(rng.randint(0, 5))]
        p = HeisPolynomial(genus, terms)
        ordered = sorted(p.terms.items(), key=lambda t: (t[0].k,) + t[0].coords)
        for elem, _ in ordered:
            assert elem.word_str() == ref_word(kappa(elem), elem.coords)
        assert str(p) == ref_sum([(ref_word(kappa(e), e.coords), c)
                                  for e, c in ordered])
        assert rm.poly_latex(p) == ref_sum([(ref_word(kappa(e), e.coords, True), c)
                                            for e, c in ordered])
        # every quotient prints u^((k - quadratic(x)) mod N) and x's letters, as text and
        # as LaTeX: moriyama places u^kappa with no coordinates, abelian is N = 1
        mori = ring.specialize_moriyama(p)
        abel = ring.specialize_abelianize(p)
        for latex in (False, True):
            assert mori.render(latex) == ref_sum([("u" if key else "1", c)
                                                  for key, c in mori.terms])
            assert abel.render(latex) == ref_sum([(ref_word(0, key, latex), c)
                                                  for key, c in abel.terms])
            for N in range(1, 9):
                s = ring.specialize_torsion(p, N)
                assert s.render(latex) == ref_sum([
                    (ref_word(kappa(HeisElement(genus, k, x)) % N, x, latex), c)
                    for (k, x), c in s.terms])
