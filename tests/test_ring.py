import random
import re
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from heisencalc import aut, heis, repmatrix as rm, ring
from heisencalc.heis import HeisElement
from heisencalc.ring import HeisPolynomial, parse_poly
from tests_helpers import (dense_mat_mul, loop_fibre_mul, random_twist_aut,
                           reference_quotient, reference_spec_add,
                           reference_spec_mul, reference_specialize)


def random_poly(rng, genus, nterms=3, span=4):
    terms = []
    for _ in range(rng.randint(0, nterms)):
        elem = HeisElement(genus, rng.randint(-span, span),
                           tuple(rng.randint(-span, span) for _ in range(2 * genus)))
        terms.append((elem, rng.randint(-5, 5)))
    return HeisPolynomial(genus, terms)


small_elem = st.builds(lambda k, l, m: HeisElement(1, k, (l, m)),
                       st.integers(-4, 4), st.integers(-3, 3), st.integers(-3, 3))
small_poly = st.lists(st.tuples(small_elem, st.integers(-4, 4)), max_size=4).map(
    lambda ts: HeisPolynomial(1, ts))


def test_zero_terms_dropped():
    e = heis.identity(1)
    p = HeisPolynomial(1, [(e, 3), (e, -3)])
    assert p.is_zero()
    assert str(p) == "0"


def test_parse_paper_style_entries():
    p = parse_poly(1, "(u^-1 - 1) a^-1 b")
    q = (HeisPolynomial.monomial(heis.u(1, -1)) - HeisPolynomial.one(1)) \
        * HeisPolynomial.monomial(heis.gen_a(1, 1, -1)) \
        * HeisPolynomial.monomial(heis.gen_b(1, 1))
    assert p == q
    assert parse_poly(1, "u^2 a^-2 b^2") == HeisPolynomial.monomial(
        heis.parse_element(1, "u^2 a1^-2 b1^2"))
    assert parse_poly(1, "2 u^-1 b - b 2 u^-1") == HeisPolynomial.zero(1)
    assert parse_poly(1, "(1 - u)^2") == parse_poly(1, "1 - 2 u + u^2")


def test_parse_noncommutative_order():
    # a b and b a differ by a central u^2
    assert parse_poly(1, "a b") == parse_poly(1, "u^2 b a")
    assert parse_poly(1, "a b") != parse_poly(1, "b a")


def test_parse_rejects():
    with pytest.raises(ValueError):
        parse_poly(1, "a +")
    with pytest.raises(ValueError):
        parse_poly(1, "(a")
    with pytest.raises(ValueError):
        parse_poly(1, "(1 + a)^-1")
    with pytest.raises(ValueError):
        parse_poly(1, "x + 1")
    # an expression that ends early names the end of input
    for text in ("", "-", "a +", "3 -", "("):
        with pytest.raises(ValueError, match="^expression ends where a term is expected$"):
            parse_poly(1, text)


def test_power_step_bound(monkeypatch):
    # the last step of (1 + a)^16 multiplies 16 x 2 term pairs
    monkeypatch.setattr(ring, "MAX_POWER_STEP", 32)
    assert parse_poly(1, "(1 + a)^16") == parse_poly(1, "(1 + a)^8") * parse_poly(1, "(1 + a)^8")
    monkeypatch.setattr(ring, "MAX_POWER_STEP", 31)
    with pytest.raises(ValueError, match="term products"):
        parse_poly(1, "(1 + a)^16")
    assert parse_poly(1, "(1 + a)^15") == parse_poly(1, "(1 + a)^5") * parse_poly(1, "(1 + a)^10")


def test_product_bound(monkeypatch):
    # juxtaposed factors are bounded like power steps: 9 x 9 term pairs here
    monkeypatch.setattr(ring, "MAX_POWER_STEP", 81)
    assert parse_poly(1, "(1 + a)^8 (1 + a)^8") == parse_poly(1, "(1 + a)^16")
    monkeypatch.setattr(ring, "MAX_POWER_STEP", 80)
    with pytest.raises(ValueError, match="product needs more than 80 term products"):
        parse_poly(1, "(1 + a)^8 (1 + a)^8")
    # a product of one-term factors stays within any bound of at least 1
    monkeypatch.setattr(ring, "MAX_POWER_STEP", 1)
    assert parse_poly(1, "2 a b u") == parse_poly(1, "2 u a b")


def test_power_of_sum_is_capped():
    n = ring.MAX_POWER
    assert parse_poly(1, f"(1 + u)^{n}") == parse_poly(1, "1 + u") * parse_poly(1, f"(1 + u)^{n - 1}")
    assert parse_poly(1, "(1 + a)^0") == HeisPolynomial.one(1)
    # refused before looping: a huge exponent returns at once
    for text in (f"(1 + a)^{n + 1}", "(a)^999999999999999999"):
        with pytest.raises(ValueError, match="expr"):
            parse_poly(1, text)
    # generator powers are closed form and not capped
    assert parse_poly(1, "a^1000000") == HeisPolynomial.monomial(heis.gen_a(1, 1, 10 ** 6))


@given(small_poly, small_poly, small_poly)
@settings(max_examples=60, derandomize=True, database=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


@given(small_poly)
@settings(derandomize=True, database=None)
def test_one_and_zero(p):
    one, zero = HeisPolynomial.one(1), HeisPolynomial.zero(1)
    assert p * one == p
    assert one * p == p
    assert p + zero == p
    assert p * zero == zero


@given(small_poly)
@settings(derandomize=True, database=None)
def test_str_parse_round_trip(p):
    assert parse_poly(1, str(p)) == p


def test_str_parse_round_trip_of_large_sums():
    # every entry of D^8, and a genus-2 product of 16,843 terms over many fibres
    D = rm.matrix_boundary_twist()
    power = D
    for _ in range(7):
        power = rm.compose_twisted(power, D)
    for row in power.entries:
        for p in row:
            assert parse_poly(1, str(p)) == p
    p = (parse_poly(2, "(1 + a1 - b1 + a2 - b2 + u a1 b2)^4")
         * parse_poly(2, "(1 - a1^-1 + b1^-1 + a2^-1 - u b2^-1 + a1 b1)^4"))
    assert sum(map(len, p.fibres.values())) == 16843
    assert parse_poly(2, str(p)) == p


def test_parse_time_grows_with_the_sum():
    """A sum is read in one pass: 4 times the terms take well under 6 times
    as long (the least of 3 runs each, in the process's CPU time, so that
    another process on the same cores does not count, and the two texts in
    turn, so that a slow spell of the host does not fall on one side only)."""
    rng = random.Random(0)
    texts = [" + ".join(f"{rng.randint(1, 9)} u^{rng.randint(-3, 3)} a^{rng.randint(-40, 40)} "
                        f"b^{rng.randint(-40, 40)}" for _ in range(n)) for n in (2000, 8000)]
    times = [[], []]
    for _ in range(3):
        for text, runs in zip(texts, times):
            t0 = time.process_time()
            parse_poly(1, text)
            runs.append(time.process_time() - t0)
    short, long = map(min, times)
    assert long < 6 * short


def whole_text_word(text):
    """heis.parse_word's scan as a letter loop over the whole text, no pieces."""
    word, pos = [], 0
    for m in heis.LETTER.finditer(text):
        if text[pos:m.start()].strip():
            raise ValueError(f"bad element syntax near {text[pos:m.start()]!r}")
        word.append((m[1], int(m[2]) if m[2] else 1))
        pos = m.end()
    if text[pos:].strip():
        raise ValueError(f"bad element syntax near {text[pos:]!r}")
    return word


def whole_text_tokens(text):
    """ring._tokens as a token loop over the whole text, no pieces."""
    tokens, pos = [], 0
    for m in ring._EXPR_TOKEN.finditer(text):
        if m.start() != pos:
            break
        kind = m.lastgroup
        tokens.append((kind, m[kind] if kind == "sym" else int(m[kind])) if kind else (m[4], None))
        pos = m.end()
    if text[pos:].strip():
        raise ValueError(f"bad expression near {text[pos:]!r}")
    return [(None, None)] + tokens[::-1]


def outcome(read, text):
    try:
        return read(text)
    except ValueError as e:
        return f"ValueError: {e}"


READER_SPACES = "\t\n\x1c\xa0 \u2003\u3000"
READER_CHARS = "uabs0123456789\u0663^-+(),!" + READER_SPACES
# fragments that make well-formed words and expressions likely
READER_PIECES = ["u", "a", "b", "s", "a1", "b2", "s3", "a01", "u^2", "a1^-3", "^", "^-", "7",
                 "12", "\u0663", "-", "+", "(", ")", ",", "!"] + list(READER_SPACES)
reader_texts = st.one_of(st.text(READER_CHARS, max_size=40),
                         st.lists(st.sampled_from(READER_PIECES), max_size=30).map("".join))


@given(reader_texts)
@settings(max_examples=400, derandomize=True, database=None)
@example("a1 ! b1")
@example("a1 + 2 u^ 3")
@example("s1 x2 b1")
@example("s1  a1b1 ,")
@example("a1b1" * 20)
def test_readers_match_whole_text_scans(text):
    """Read piece by piece through the memo, each reader returns the tokens,
    or raises the message, of one scan of the whole text, on the first read
    and on a read from the memo."""
    for read, whole in ((heis.parse_word, whole_text_word), (ring._tokens, whole_text_tokens)):
        expected = outcome(whole, text)
        assert outcome(read, text) == expected
        assert outcome(read, text) == expected
    assert outcome(heis.parse_word.__wrapped__, text) == outcome(whole_text_word, text)


def test_reader_whitespace_is_regex_whitespace():
    """str.split() cuts at the code points that \\s matches, and at no other."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = [m.start() for m in re.finditer(r"\s", every)]
    assert spaces == [i for i, c in enumerate(every) if c.isspace()]
    assert "".join(every.split()) == every.translate(dict.fromkeys(spaces))


def test_reader_results_are_fresh_lists():
    for read, text in ((heis.parse_word, "a1^2 b1 u"), (ring._tokens, "2 a1^2 - (b1 + u)")):
        first = read(text)
        expected = list(first)
        first.append(("x", 0))
        first[0] = ("y", 0)
        assert read(text) == expected


def test_reader_memo_is_bounded():
    """The memo keeps at most 4096 pieces, and no piece past 64 characters."""
    pairs = ([("a1", 1), ("b1", 1)], [("sym", "a1"), ("sym", "b1")])
    for read, letter, pair in zip((heis.parse_word, ring._scan), ("a1^{}", "u^{}"), pairs):
        read.memo.cache_clear()
        assert len(read(" ".join(letter.format(i) for i in range(10_000)))) >= 10_000
        assert read.memo.cache_info().currsize == 4096
        read.memo.cache_clear()
        assert read("a1b1" * 10_000) == pair * 10_000
        assert read.memo.cache_info().currsize == 0


@given(small_poly)
@settings(derandomize=True, database=None)
def test_json_round_trip(p):
    # one {"k", "coords", "c"} per term, in pair form, ordered by (k, coords)
    terms = sorted([e.k, list(e.coords), c] for e, c in p.terms.items())
    assert p.to_json() == [{"k": k, "coords": x, "c": c} for k, x, c in terms]


def test_specialization_examples():
    # moriyama kills the handle generators through the word form
    p = parse_poly(1, "u^2 a^-2 b^2")
    assert ring.specialize_moriyama(p).is_one()
    assert str(ring.specialize_moriyama(parse_poly(1, "u a b"))) == "u"
    # abelianization forgets u
    q = parse_poly(1, "a b - u^2 b a")
    assert ring.specialize_abelianize(q).is_zero()
    # torsion keeps the group structure with k reduced
    assert str(ring.specialize_torsion(parse_poly(1, "a b"), 5)) == "a1 b1"
    t = ring.specialize_torsion(parse_poly(1, "u^3"), 3)
    assert t.is_one()
    assert not ring.specialize_torsion(parse_poly(1, "u^3"), 4).is_one()


def test_moriyama_uses_word_exponent():
    # pair form (k; l, m) has word exponent k - l m; with k = 1, l = m = 1
    # the word form is a b, which has no central part
    elem = HeisElement(1, 1, (1, 1))
    p = HeisPolynomial.monomial(elem)
    assert ring.specialize_moriyama(p).is_one()


def test_specializations_are_ring_homs_bulk():
    rng = random.Random(7)
    maps = [ring.specialize_moriyama, ring.specialize_abelianize,
            lambda p: ring.specialize_torsion(p, 4)]
    for _ in range(1000):
        g = rng.choice((1, 2))
        p, q = random_poly(rng, g), random_poly(rng, g)
        for fn in maps:
            assert fn(p + q) == fn(p) + fn(q)
            assert fn(p * q) == fn(p) * fn(q)
        assert ring.specialize_moriyama(HeisPolynomial.one(g)).is_one()


def test_specialized_str_parses_back():
    rng = random.Random(9)
    for _ in range(300):
        g = rng.choice((1, 2, 3))
        p = random_poly(rng, g, nterms=5)
        for q in (ring.MORIYAMA, ring.ABELIAN, ring.torsion(rng.randint(1, 7))):
            s = ring.specialize(p, q)
            assert ring.specialize(parse_poly(g, str(s)), q) == s


def test_quotient_names():
    assert ring.quotient("moriyama") == ring.MORIYAMA
    assert ring.quotient("abelian") == ring.ABELIAN
    assert ring.quotient("torsion5") == ring.quotient("torsion", 5) == ring.torsion(5)
    for bad in ("torsion", "torsionX", "moriyama2", ""):
        with pytest.raises(ValueError):
            ring.quotient(bad)
    with pytest.raises(ValueError):
        ring.quotient("torsion0")


def test_aut_apply_poly_is_ring_hom():
    rng = random.Random(8)
    tau = aut.twist_aut(1, "a")
    for _ in range(300):
        p, q = random_poly(rng, 1), random_poly(rng, 1)
        assert ring.aut_apply_poly(tau, p * q) == \
            ring.aut_apply_poly(tau, p) * ring.aut_apply_poly(tau, q)
        assert ring.aut_apply_poly(tau, p + q) == \
            ring.aut_apply_poly(tau, p) + ring.aut_apply_poly(tau, q)


# ---------------------------------------------------------------------------
# The product against a term-by-term reference, on three data shapes: few
# coordinate fibres with a wide u-span (mapping-class matrix entries), many
# fibres with a narrow u-span (scattered sums), and few fibres whose terms
# sit in dense clusters about 10^12 apart, with coefficients up to 2^80.
# ---------------------------------------------------------------------------

def reference_mul(p, q):
    """{HeisElement: coeff} of p q, with one group product per pair of terms."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = e1 * e2
            terms[e] = terms.get(e, 0) + c1 * c2
    return {e: c for e, c in terms.items() if c}


@st.composite
def shaped_polys(draw, genus, count):
    """count polynomials of one genus, all of one shape."""
    shape = draw(st.sampled_from(["wide", "scattered", "sparse"]))
    coeff, size = st.integers(-3, 3), 12
    if shape == "scattered":
        fibre = st.tuples(*[st.integers(-3, 3)] * (2 * genus))
        k = st.integers(-1, 1)
    else:
        fibre = st.sampled_from(draw(st.lists(
            st.tuples(*[st.integers(-2, 2)] * (2 * genus)), min_size=1, max_size=3)))
        k = st.integers(-30, 30)
    if shape == "sparse":
        # slot widths beyond 8 bytes, and fibres cut into runs and single terms
        k = st.builds(lambda cluster, offset: cluster * 10 ** 12 + offset,
                      st.integers(-1, 1), st.integers(-3, 3))
        coeff, size = st.integers(-2 ** 80, 2 ** 80), 16
    term = st.tuples(st.builds(lambda k, x: HeisElement(genus, k, x), k, fibre), coeff)
    return [HeisPolynomial(genus, draw(st.lists(term, max_size=size)))
            for _ in range(count)]


genus_and_polys = st.integers(1, 3).flatmap(
    lambda g: st.tuples(st.just(g), shaped_polys(g, 3)))


@given(genus_and_polys)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_mul_matches_term_by_term_reference(case):
    genus, (p, q, r) = case
    for x, y in ((p, q), (q, p), (p, r), (p, p)):
        prod = x * y
        assert prod.terms == reference_mul(x, y)
        assert all(prod.terms.values())
    zero = HeisPolynomial.zero(genus)
    assert (p * zero).is_zero() and (zero * p).is_zero()
    # every term cancels
    assert (p * q + (-p) * q).is_zero()
    assert (p * (q - q)).is_zero()


@given(genus_and_polys)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_mul_ring_axioms_by_shape(case):
    genus, (p, q, r) = case
    one = HeisPolynomial.one(genus)
    assert p * one == p == one * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


@given(genus_and_polys, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_aut_apply_poly_is_ring_hom_by_shape(case, rng):
    genus, (p, q, _) = case
    tau = random_twist_aut(rng, genus)
    image = lambda x: ring.aut_apply_poly(tau, x)
    assert image(p * q) == image(p) * image(q)
    assert image(p + q) == image(p) + image(q)
    assert image(HeisPolynomial.one(genus)) == HeisPolynomial.one(genus)
    assert image(p).terms == {tau.apply(e): c for e, c in p.terms.items()}


def _stored_canonically(p):
    """No stored fibre is empty and no stored coefficient is 0."""
    return all(f and all(f.values()) for f in p.fibres.values())


@given(genus_and_polys, st.randoms(use_true_random=False), st.integers(-3, 3))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_fibre_storage_invariants(case, rng, n):
    genus, (p, q, _) = case
    tau = random_twist_aut(rng, genus)
    elem = HeisElement(genus, rng.randint(-5, 5),
                       tuple(rng.randint(-2, 2) for _ in range(2 * genus)))
    image = lambda x: ring.aut_apply_poly(tau, x)
    for x in (p + q, p - q, p - p, p + (-p), -p, p * n, p * 0, p * elem, n * p,
              p * q, p * q - q * p, p * q + (-p) * q, image(p), image(p - p)):
        assert _stored_canonically(x)
    # terms is a fresh dict on every access
    before = p.terms
    view = p.terms
    view[heis.u(genus, 99)] = 5
    for e in before:
        view[e] = 0
    assert p.terms == before and p == HeisPolynomial(genus, before)
    # the same value built in different orders
    pairs = list(p.terms.items()) + list(q.terms.items())
    a, b = HeisPolynomial(genus, pairs), HeisPolynomial(genus, pairs[::-1])
    assert a == b == p + q == q + p
    assert hash(a) == hash(b) == hash(p + q) == hash(q + p)


# _PACKED_OMEGA for each omega path of _mul_into: packed columns at every
# twisted product, and the default threshold, below which most operands of
# these tests stay on the term-by-term sum
OMEGA_THRESHOLDS = (1, ring._PACKED_OMEGA)


# Genus-1 operands for each path of _fibre_mul, with omega(x, y) = +-1 or +-2 between
# fibres, so nonzero mod 3, 5 and 7: a single-term left operand (_translated),
# fibres of single terms, and fibres of 4 and 5 consecutive terms (packed runs).
# In the last row, mod 5 the two packed sums of fibre (1, 1) of the first product
# cancel, so that fibre is empty before its runs are decoded.
OMEGA_OPERANDS = [("a", "b", "b + 2 a b"),
                  ("a + 2 u b", "b - a b", "u^2 a + a b^2"),
                  ("(1 + u + u^2 + u^3 + u^4) a + b", "(1 - 2 u + 3 u^2 - u^3) b + a b",
                   "u a + (2 - u^2) b"),
                  ("a - u^2 b", "(1 + u + u^2 + u^3) a + (1 + u + u^2 + u^3) b", "b - u^2 a")]


# Genus-1 operands of the aligned accumulators.  In the first row the fibre
# a b of p q sums to zero at both ends, so it is trimmed; the second has only
# negative exponents.  In the last two, 1 + u + u^2 + u^3 + u^K a times
# 1 + u + u^2 + u^3 + u^L a takes accumulators of K + L + 5 slots, four pairs
# of pieces against 25 term pairs: K + L = 395 is just inside the guard at 64 slots
# per term pair, K + L = 396 (both 198) just outside it.
ALIGNED_OPERANDS = [("(1 + u + u^2 + u^3) a + u^2 (1 + u + u^2 + u^3) b",
                     "(1 + u + u^2 + u^3) b - (1 + u + 2 u^2 + u^3) a",
                     "u^2 a b - u^5 (1 + u) a^-1 + u^3 - u^8"),
                    ("u^-9 (1 - 2 u + u^2 + 3 u^3) a^-1 + u^-12 b - u^-20 (1 - u + u^2 - u^3)",
                     "u^-3 (2 - u - u^2 + 4 u^3) b^-1 - u^-7 a",
                     "u^-30 (1 + u + u^2 + u^3 + u^4) a b"),
                    ("1 + u + u^2 + u^3 + u^197 a", "1 + u + u^2 + u^3 + u^198 a",
                     "1 + u + u^2 + u^3 + u^197 a"),
                    ("1 + u + u^2 + u^3 + u^198 a", "1 + u + u^2 + u^3 + u^198 a",
                     "1 + u + u^2 + u^3 + u^197 a")]


def _spaced(step, coeffs):
    """Text of the sum of c u^(step i) over the coefficients c, i from 0."""
    return " + ".join(f"({c}) u^{step * i}" for i, c in enumerate(coeffs))


# Genus-1 operands of the aligned accumulators whose fibres skip empty slots:
# four terms 7, 8, 9, 10 and 60 slots apart, and a 2-term and a 3-term fibre
# 1,000 slots apart beside a dense 200-term fibre, which keeps each side within
# _SLOTS_PER_TERM slots per term.  Each fibre is one packed run.
SPARSE_OPERANDS = [(f"({_spaced(7, (1, 2, -1, 3))}) a + ({_spaced(8, (1, -1, 1, 2))}) b",
                    f"{_spaced(9, (2, -1, 1, -1))} + ({_spaced(10, (1, 1, -3, 1))}) a b",
                    f"({_spaced(60, (1, 1, -1, 2))}) b - u^60 a + {_spaced(1, range(1, 11))}"),
                   (f"(1 - u^1000) a + (1 + u^1000 - u^2000) b + {_spaced(1, range(1, 201))}",
                    f"{_spaced(1, [(-1) ** i * (i % 4 + 1) for i in range(200)])} - (2 + u^1000) b",
                    f"(u^3 + u^1003 - 2 u^2003) a b - {_spaced(1, range(200, 0, -1))}")]


def omega_examples(to_args, rows=OMEGA_OPERANDS):
    """hypothesis examples at moduli 3, 5 and 7 of every row of operand
    texts: to_args(N, polys) gives the test's arguments."""
    def decorate(test):
        for N in (3, 5, 7):
            for texts in rows:
                test = example(*to_args(N, tuple(parse_poly(1, t) for t in texts)))(test)
        return test
    return decorate


quotients = (st.sampled_from([("moriyama", 0), ("abelian", 0)])
             | st.tuples(st.just("torsion"), st.integers(1, 7)))


@given(genus_and_polys, quotients)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@omega_examples(lambda N, polys: ((1, polys), ("torsion", N)))
def test_specialized_kernel_matches_per_pair_reference(case, quot):
    """SpecializedPolynomial's fibre kernel against one key product per pair
    of terms, on both data shapes, at genus 1-3, in every quotient, on both
    omega paths (see OMEGA_THRESHOLDS)."""
    genus, (p, q, r) = case
    name, N = quot
    Q = ring.quotient(name, N)
    zero = HeisPolynomial.zero(genus)
    one_key = reference_specialize(HeisPolynomial.one(genus), name, N)
    pairs = ((p, q), (q, p), (p, r), (p, p), (p, zero), (zero, q), (p, -p), (p, q - q))
    for threshold in OMEGA_THRESHOLDS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ring, "_PACKED_OMEGA", threshold)
            for x, y in pairs:
                sx, sy = ring.specialize(x, Q), ring.specialize(y, Q)
                rx, ry = reference_specialize(x, name, N), reference_specialize(y, name, N)
                for s, ref in ((sx, rx), (sx * sy, reference_spec_mul(rx, ry, name, N)),
                               (sx + sy, reference_spec_add(rx, ry))):
                    # terms is sorted by key, and equal to the reference
                    assert s.terms == tuple(sorted(ref.items()))
                    assert s.is_zero() == (not ref)
                    assert s.is_one() == (ref == one_key)
                    assert all(f and all(f.values()) for f in s.fibres.values())
                # the same values built another way: equal, with equal hashes
                for s, t in ((sx * sy, ring.specialize(x * y, Q)), (sx + sy, sy + sx)):
                    assert s == t and hash(s) == hash(t)
            # full cancellation
            sp, sq = ring.specialize(p, Q), ring.specialize(q, Q)
            assert (sp * sq + ring.specialize(-p, Q) * sq).is_zero()


@given(genus_and_polys)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_abelian_products_match_torsion1(case):
    """u -> 1 is the quotient mod u^1: placed by summing each fibre or by
    reducing every k mod 1, products and sums have the same fibres."""
    genus, (p, q, r) = case
    for x, y in ((p, q), (q, p), (p, r), (p, p), (p, -p)):
        a = [ring.specialize(z, ring.ABELIAN) for z in (x, y)]
        t = [ring.specialize(z, ring.torsion(1)) for z in (x, y)]
        assert a[0].fibres == t[0].fibres
        assert (a[0] * a[1]).fibres == (t[0] * t[1]).fibres
        assert (a[0] + a[1]).fibres == (t[0] + t[1]).fibres


def test_specialized_ops_with_other_types_are_type_errors():
    s = ring.specialize(parse_poly(1, "a + u"), ring.ABELIAN)
    for other in (2, parse_poly(1, "a + u")):
        with pytest.raises(TypeError, match="expected a SpecializedPolynomial"):
            s + other
        with pytest.raises(TypeError, match="expected a SpecializedPolynomial"):
            s * other
    with pytest.raises(ValueError, match="target mismatch"):
        s * ring.specialize(parse_poly(1, "a + u"), ring.torsion(1))


@given(genus_and_polys, quotients)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@omega_examples(lambda N, polys: ((1, polys), ("torsion", N)))
@omega_examples(lambda N, polys: ((1, polys), ("torsion", N)), ALIGNED_OPERANDS)
@omega_examples(lambda N, polys: ((1, polys), ("torsion", N)), SPARSE_OPERANDS)
def test_packed_kernel_matches_loop_reference(case, quot):
    """The packed kernel against the term-pair loop, with the modulus of
    the full ring and of each quotient, on both omega paths, also where
    the aligned accumulators are trimmed at both ends, hold only negative
    exponents, wrap past the modulus, just fit the guard or are packed from
    fibres that skip many slots."""
    genus, (p, q, r) = case
    for modulus in (0, ring.quotient(*quot).modulus):
        for x, y in ((p, q), (q, p), (p, r), (p, p), (p, -p)):
            want = loop_fibre_mul(x.fibres, y.fibres, modulus)
            for threshold in OMEGA_THRESHOLDS:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(ring, "_PACKED_OMEGA", threshold)
                    assert ring._fibre_mul(x.fibres, y.fibres, modulus) == want


@given(st.integers(1, 2).flatmap(lambda g: st.tuples(st.just(g), shaped_polys(g, 12))),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_mat_mul_matches_dense_by_shape(case, rng):
    """A 2x3 times 3x2 product, each entry one packed sum, against the
    product of every pair of entries by the loop reference."""
    genus, polys = case
    rng.shuffle(polys)
    ident = aut.identity_aut(genus)
    A = rm.RepMatrix(genus, (tuple(polys[0:3]), tuple(polys[3:6])), ident)
    B = rm.RepMatrix(genus, (tuple(polys[6:8]), tuple(polys[8:10]), tuple(polys[10:12])), ident)
    product = rm.mat_mul(A, B)
    assert product == dense_mat_mul(A, B)
    assert all(_stored_canonically(p) for row in product for p in row)


@st.composite
def key_slot_operands(draw, n, count):
    """count fibres {coords: {k: c}} with n coordinates, over a few
    coordinate tuples that mix 0 and +-1 with values up to a top of at most
    2^40, or of 2^(8 w - 2) for slots of w = 1, 2, 4, 8 bytes, whose double
    just needs the next width (or 2^66, past 8 bytes); k near 0 or up to
    +-2^70, and coefficients that pack into 1-byte to 11-byte slots."""
    top = draw(st.one_of(st.integers(2, 2 ** 40),
                         st.sampled_from([2 ** 6, 2 ** 14, 2 ** 30, 2 ** 62, 2 ** 66])))
    coord = st.one_of(st.sampled_from([0, 1, -1, top, -top]), st.integers(-top, top))
    xs = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=4))
    k = st.one_of(st.integers(-6, 6), st.integers(-2 ** 70, 2 ** 70))
    c = st.one_of(st.integers(-3, 3), st.integers(-2 ** 40, 2 ** 40))
    terms = st.lists(st.tuples(st.sampled_from(xs), k, c), max_size=14)
    return [_summed(draw(terms)) for _ in range(count)]


def _summed(terms, modulus=0):
    """Fibres of the sum of the terms (coords, k, c), each k reduced mod a
    nonzero modulus."""
    fibres = {}
    for x, k, c in terms:
        f = fibres.setdefault(x, {})
        k = k % modulus if modulus else k
        f[k] = f.get(k, 0) + c
    fibres = {x: {k: c for k, c in f.items() if c} for x, f in fibres.items()}
    return {x: f for x, f in fibres.items() if f}


# (coordinates, modulus): the full ring at genus 1-3 and 16, and each
# quotient as SpecializedPolynomial multiplies in it (moriyama's placed
# terms have no coordinates; abelian is modulus 1, as torsion1 is)
kernel_cases = st.one_of(
    st.tuples(st.sampled_from([2, 4, 6, 32]), st.just(0)),
    st.just((0, 2)),
    st.tuples(st.sampled_from([2, 4, 6]), st.just(1)),
    st.tuples(st.sampled_from([2, 4, 6]), st.integers(1, 7)))


@given(kernel_cases.flatmap(lambda case: st.tuples(st.just(case[1]),
                                                   key_slot_operands(case[0], 3))))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@omega_examples(lambda N, polys: ((N, tuple(p.fibres for p in polys)),))
def test_key_slots_match_loop_reference(case):
    """Integer keys against the term-pair loop: coordinate slots at every
    width, k far beyond any slot, omega of either sign reduced mod N, and
    terms whose sums cancel, on both omega paths (with coordinates of 2^66,
    packed omega slots are wider than 8 bytes)."""
    modulus, (p, q, r) = case
    neg = {x: {k: -c for k, c in f.items()} for x, f in p.items()}
    for x, y in ((p, q), (q, p), (p, r), (p, p), (p, neg), (neg, p)):
        want = loop_fibre_mul(x, y, modulus)
        # placed operands, each k already reduced
        placed = [tuple(_summed(((z, k, c) for z, f in o.items() for k, c in f.items()), modulus)
                        for o in (x, y))] if modulus else []
        for threshold in OMEGA_THRESHOLDS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ring, "_PACKED_OMEGA", threshold)
                for a, b in [(x, y)] + placed:
                    assert ring._fibre_mul(a, b, modulus) == want


def _scattered(rng, genus, terms, radius):
    """Fibres of terms random terms, coordinates in [-radius, radius]."""
    return _summed((tuple(rng.randint(-radius, radius) for _ in range(2 * genus)),
                    rng.randint(-1, 1), rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(terms))


@pytest.mark.parametrize("genus, radii", [(2, (3, 3)), (3, (2, 2)), (4, (2, 2)),
                                          (2, (2 ** 66, 2 ** 66)), (2, (1, 2 ** 66))])
def test_packed_omega_above_threshold(genus, radii):
    """Scattered products of 60 by 30 terms, in either order, whose
    flattened operand holds at least _PACKED_OMEGA runs, in the full ring
    and mod 1-7, against the term-pair loop; coordinates of 2^66 make the
    packed omega slots wider than 8 bytes, also when only the operand
    that is not flattened has them."""
    rng = random.Random(genus)
    p, q = _scattered(rng, genus, 60, radii[0]), _scattered(rng, genus, 30, radii[1])
    assert min(map(len, (p, q))) >= ring._PACKED_OMEGA
    for modulus in range(8):
        for x, y in ((p, q), (q, p)):
            assert ring._fibre_mul(x, y, modulus) == loop_fibre_mul(x, y, modulus)


# Genus-2 operands with packed runs and single terms, whose omega(x, y) spans
# -5..9 between fibres: below 0 and past every modulus of the test
REDUCTION_OPERANDS = ("(1 + u + u^2 - u^3 + 2 u^4) a1 b2^2 + 3 a2^-2 b1 - u^-1 a1^3 + b1^-2 a2",
                      "(2 - u + u^2 - u^3 + u^4) b1^3 a2 + a1^-1 b2^-3 - u^5 a2^2 + u^-3 b1 b2")


@pytest.mark.parametrize("threshold", OMEGA_THRESHOLDS)
@pytest.mark.parametrize("N", [3, 5, 7])
def test_mul_into_reduces_omega_mod_N(N, threshold, monkeypatch):
    """Under a modulus N, _mul_into places every product with omega already
    reduced mod N, on both omega paths (see OMEGA_THRESHOLDS), so that its
    exponent lies in [lo, hi) = [lo(p) + lo(q), hi(p) + hi(q) + N): in term
    mode in the top of its key, and aligned (packed) in the slots of an
    accumulator from base = lo to below hi - lo."""
    monkeypatch.setattr(ring, "_PACKED_OMEGA", threshold)
    p, q = (parse_poly(2, text).fibres for text in REDUCTION_OPERANDS)
    omegas = [heis.omega(x, y) for x in p for y in q]
    assert min(omegas) < 0 and max(omegas) >= 7
    layout = ring._key_layout(4, list(p) + list(q))
    ks = [[k for f in fibres.values() for k in f] for fibres in (p, q)]
    lo, hi = min(ks[0]) + min(ks[1]), max(ks[0]) + max(ks[1]) + N
    width, base, (packed,) = ring._operands([([(0, p)], [(0, q)])], 4, N)
    assert base == lo and width == ring._slot_width(ring._l1_norm(p) * ring._l1_norm(q))
    top = layout[3]
    terms = [[(x, f, 0) for x, f in fibres.items()] for fibres in (p, q)]
    for w, (left, right) in ((0, terms), (width, packed)):
        if w:  # each operand has a fibre of 5 terms packed into one run
            for fibres, packed in ((p, left), (q, right)):
                assert sum(map(len, fibres.values())) > sum(len(runs) for _, runs, _ in packed)
        acc = {}
        ring._mul_into(acc, left, right, layout, N, w, base)
        assert acc
        if w:
            assert all(v.bit_length() // (8 * w) < hi - lo for v in acc.values())
        else:
            assert all(lo <= key >> top < hi for key in acc)


# Placed terms: single-term fibres with negative k; terms that meet mod 5 (and
# under u -> 1) and cancel, so their fibre is dropped; and zero coefficients
PLACE_EXAMPLES = ["u^-7 a + 2 u^-3 b - u^-1 a b + 5 u^-12 - u^-4 a^-2 b^3",
                  "u^-2 a - u^3 a + u^4 b - 2 u^-1 b + u^-6 b + 3 a b - 3 u^5 a b",
                  [(-3, (1, 0), 0), (2, (1, 0), 4), (-1, (0, 1), 0), (0, (1, 1), 0)]]


@pytest.mark.parametrize("example", PLACE_EXAMPLES)
@pytest.mark.parametrize("quot", [("moriyama", 0), ("abelian", 0)]
                         + [("torsion", N) for N in range(1, 8)])
def test_place_examples(example, quot):
    """Each quotient's place against one key per term."""
    if isinstance(example, str):
        p = parse_poly(1, example)
    else:  # terms (k, coords, c) given to HeisPolynomial, zeros included
        p = HeisPolynomial(1, [(HeisElement(1, k, x), c) for k, x, c in example])
        assert p.fibres == {(1, 0): {2: 4}}
    s = ring.specialize(p, ring.quotient(*quot))
    assert dict(s.terms) == reference_specialize(p, *quot)
    assert all(f and all(f.values()) for f in s.fibres.values())


@given(st.sampled_from([1, 2, 3, 16]).flatmap(
    lambda g: st.tuples(st.just(g), key_slot_operands(2 * g, 12))))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example((1, [parse_poly(1, t).fibres for row in ALIGNED_OPERANDS[:2] + OMEGA_OPERANDS[2:]
              for t in row]))
@example((1, [parse_poly(1, t).fibres for row in SPARSE_OPERANDS * 2
              for t in row]))
def test_mat_mul_key_slots_match_dense(case):
    """A 2x3 times 3x2 product, row and column tags included, against the
    product of every pair of entries by the loop reference; in the examples,
    every entry sum is one aligned accumulator, in the second packed from
    fibres that skip many slots."""
    genus, fibres = case
    polys = [HeisPolynomial._of(genus, f) for f in fibres]
    ident = aut.identity_aut(genus)
    A = rm.RepMatrix(genus, (tuple(polys[0:3]), tuple(polys[3:6])), ident)
    B = rm.RepMatrix(genus, (tuple(polys[6:8]), tuple(polys[8:10]), tuple(polys[10:12])), ident)
    assert rm.mat_mul(A, B) == dense_mat_mul(A, B)


@pytest.mark.parametrize("coeff", [128, -129, 2 ** 70])
def test_mat_mul_by_zero_matrix(coeff):
    """A zero factor bounds every slot by 0: the other factor's wide
    coefficients are not packed, and the product is zero."""
    ident = aut.identity_aut(1)
    run = HeisPolynomial._of(1, {(0, 0): {0: 1, 1: 1, 2: 1, 3: coeff}})
    wide = rm.RepMatrix(1, ((run,),), ident)
    zero = rm.RepMatrix(1, ((HeisPolynomial.zero(1),),), ident)
    for A, B in ((wide, zero), (zero, wide)):
        assert rm.mat_mul(A, B) == dense_mat_mul(A, B) == zero.entries


def test_mat_mul_tags_past_one_byte():
    """Row and column indices past 127 widen the slots of small coordinates:
    200 x 1 times 1 x 2, and 2 x 1 times 1 x 200, of single-term fibres in
    term mode (k above the tags in each key), and of fibres of four terms in
    aligned accumulators."""
    ident = aut.identity_aut(1)
    for text, aligned in (("{c} a - u^{i} b + 1", False), ("{c} a - u^{j} b + (1 - u)^3", True)):
        entries = [parse_poly(1, text.format(c=i % 5 + 1, i=i, j=i % 7)) for i in range(200)]
        tall = rm.RepMatrix(1, tuple((p,) for p in entries), ident)
        wide = rm.RepMatrix(1, (tuple(entries),), ident)
        row = rm.RepMatrix(1, ((entries[7], entries[199]),), ident)
        column = rm.RepMatrix(1, ((entries[7],), (entries[199],)), ident)
        for A, B in ((tall, row), (column, wide)):
            products = [([(i, e[0].fibres) for i, e in enumerate(A.entries)], list(enumerate(
                b.fibres for b in B.entries[0])))]
            assert bool(ring._operands(products, 2)[0]) == aligned
            assert rm.mat_mul(A, B) == dense_mat_mul(A, B)


SLOT_SCALES = [1, 2 ** 3, 2 ** 12, 2 ** 28, 2 ** 60, 2 ** 100]


@pytest.mark.parametrize("scale", SLOT_SCALES)
def test_every_slot_width(scale):
    """Products whose coefficient bound needs 1, 2, 4, 8 and more than 8
    bytes a slot, with signs that borrow across slots, in aligned
    accumulators whose lowest and highest slots are negative or positive."""
    p = parse_poly(1, "1 - u + 3 u^2 - u^3 + u^4 - 2 u^5 + a") * scale
    q = parse_poly(1, "-1 - u^-1 + u^-2 - 3 u^-3 + u^-4 + b - u b") * scale
    for x, y in ((p, q), (q, p), (p, p), (q, -q), (-p, q)):
        assert ring._operands([([(0, x.fibres)], [(0, y.fibres)])], 2)[0]
        assert (x * y).fibres == loop_fibre_mul(x.fibres, y.fibres)
    assert ring._slot_width(2 ** 7 - 1) == 1 and ring._slot_width(2 ** 7) == 2
    assert ring._slot_width(2 ** 15) == 4 and ring._slot_width(2 ** 63 - 1) == 8
    assert ring._slot_width(2 ** 63) == 9 and ring._slot_width(2 ** 80) == 11


SPLIT_MODULI = [0, 3, 7, 40, 64]


@pytest.mark.parametrize("modulus", SPLIT_MODULI)
def test_split_runs_under_modulus(modulus):
    """Packed products whose operand fibres skip more than 8 slots, each
    fibre packed whole.  Each output fibre is one aligned accumulator, and
    the constant fibre keeps a gap of more than 8 empty slots between its
    terms, but at moduli 3 and 7, where every fibre wraps past the modulus
    many times; at 40 its last terms wrap onto the first."""
    p = parse_poly(1, "1 + 2 u + u^2 - u^3 + 3 u^20 - u^21 + u^22 + u^23"
                      " + a - u a + 2 u^2 a + u^3 a")
    q = parse_poly(1, "1 - u + u^2 + 2 u^3 + u^17 + u^18 - u^19 + u^20"
                      " + u^30 b - u^31 b + u^32 b + 3 u^33 b")
    for x, y in ((p, q), (q, p), (p, p)):
        out = ring._fibre_mul(x.fibres, y.fibres, modulus)
        assert out == loop_fibre_mul(x.fibres, y.fibres, modulus)
        ks = sorted(out[(0, 0)])
        assert modulus in (3, 7) or max(b - a for a, b in zip(ks, ks[1:])) > 8


def test_slot_by_slot_fallback(monkeypatch):
    """With no slot format, as on a big-endian host, every slot is written
    and read one by one: the key, matrix, slot width and run checks again."""
    monkeypatch.setattr(ring, "_FORMATS", {})
    test_key_slots_match_loop_reference()
    test_mat_mul_key_slots_match_dense()
    for scale in SLOT_SCALES:
        test_every_slot_width(scale)
    for modulus in SPLIT_MODULI:
        test_split_runs_under_modulus(modulus)


def test_sparse_accumulators_run_in_term_mode():
    """A 200-term scattered genus-2 polynomial with one dense fibre would
    take aligned accumulators of 133 slots per term pair, past the guard:
    its square and the square of the 2 x 2 matrix of it run in term mode,
    equal to the loop references, and the square stays within twice the
    tracemalloc peak of the kernel that summed packed runs under their
    exponents and merged them (10,324,268 bytes, Python 3.11; tracing the
    matrix product too would take seconds).  The last two rows of
    ALIGNED_OPERANDS just fit the guard, or just miss it."""
    p = _scattered(random.Random(0), 2, 200, 4)
    p[(0,) * 4] = {k: 1 + k % 3 for k in range(8)}
    assert ring._operands([([(0, p)], [(0, p)])], 4)[:2] == (0, None)
    P = HeisPolynomial._of(2, p)
    P * P
    tracemalloc.start()
    try:
        square = P * P
        assert tracemalloc.get_traced_memory()[1] < 2 * 10_324_268
    finally:
        tracemalloc.stop()
    assert square.fibres == loop_fibre_mul(p, p)
    M = rm.RepMatrix(2, ((P, P), (P, P)), aut.identity_aut(2))
    assert ring._operands([([(0, p), (1, p)], [(0, p), (1, p)])], 4)[:2] == (0, None)
    assert rm.mat_mul(M, M) == dense_mat_mul(M, M)
    for texts, inside in zip(ALIGNED_OPERANDS[2:], (True, False)):
        x, y = (parse_poly(1, t).fibres for t in texts[:2])
        assert bool(ring._operands([([(0, x)], [(0, y)])], 2)[0]) == inside


def test_sparse_exponents_cost_terms():
    """Exponents far apart would leave aligned accumulators sparse, so the
    products run in term mode: the cost follows the terms and not the
    u-span or the coordinates.  One fibre of 200 terms 9 slots apart,
    squared, is one fibre pair of 3,583 slots against 40,000 term pairs,
    so it runs aligned, as one packed run a side.  One of 400 terms 10,000
    slots apart would pass that count too (7,980,001 slots against 160,000
    term pairs), but packed whole each side would take 10,000 slots per
    term, so its square runs in term mode."""
    p = parse_poly(1, "u^100000 + 1 + u + u^2 + u^3 + u^4 - u^-100000 a")
    q = parse_poly(1, "u^1000000000000000 + a^1000000 b^1000000 + 1 - u - u^2 + u^3")
    t0 = time.perf_counter()
    spaced = {(0, 0): {9 * i: 1 + i % 3 for i in range(200)}}
    width, _, ((left, right),) = ring._operands([([(0, spaced)], [(0, spaced)])], 2)
    assert width and [runs for _, runs, _ in left + right] == [{0: ring._pack_run(
        spaced[(0, 0)].items(), 0, 1792, width)}] * 2
    assert ring._fibre_mul(spaced, spaced) == loop_fibre_mul(spaced, spaced)
    far = {(0, 0): {10000 * i: 1 + i % 3 for i in range(400)}}
    assert ring._operands([([(0, far)], [(0, far)])], 2)[:2] == (0, None)
    assert ring._fibre_mul(far, far) == loop_fibre_mul(far, far)
    for x, y in ((p, p), (p, q), (q, q), (q, p)):
        assert ring._operands([([(0, x.fibres)], [(0, y.fibres)])], 2)[:2] == (0, None)
        assert (x * y).terms == reference_mul(x, y)
    M = rm.RepMatrix(1, ((p, q), (q, p)), aut.identity_aut(1))
    assert rm.mat_mul(M, M) == dense_mat_mul(M, M)
    assert time.perf_counter() - t0 < 2.0


def test_guard_runs_before_packing():
    """The mode is chosen before any fibre is packed: a fibre of 5 terms
    reaching u^50000000, times 1 + u + u^2 + u^3, would take an accumulator
    of 50,000,004 slots for 20 term pairs, so the product runs in term
    mode, and its traced peak stays under 1 MiB (3,307 bytes for the
    kernel that cut fibres at gaps, Python 3.11), not the 210 MB that
    packing every fibre whole before the guard takes."""
    p = parse_poly(1, "1 + u + u^2 + u^3 + u^50000000")
    q = parse_poly(1, "1 + u + u^2 + u^3")
    assert ring._operands([([(0, p.fibres)], [(0, q.fibres)])], 2) == (
        0, None, [tuple([((0, 0), f.fibres[(0, 0)], 0)] for f in (p, q))])
    tracemalloc.start()
    try:
        product = p * q
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()
    assert product.fibres == loop_fibre_mul(p.fibres, q.fibres)


@given(genus_and_polys, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_element_times_polynomial_both_orders(case, rng):
    genus, (p, _, _) = case
    h = HeisElement(genus, rng.randint(-5, 5),
                    tuple(rng.randint(-3, 3) for _ in range(2 * genus)))
    assert h * p == HeisPolynomial.monomial(h) * p
    assert p * h == p * HeisPolynomial.monomial(h)


def test_element_times_other_type_is_type_error():
    with pytest.raises(TypeError):
        heis.u(1) * "x"


def test_mul_cancellation_examples():
    # the cross terms of (1 + u)(1 - u) cancel inside one fibre
    assert parse_poly(1, "(1 + u)(1 - u)") == parse_poly(1, "1 - u^2")
    # a b and u^2 b a are the same group element, so this factor is zero
    assert (parse_poly(2, "a1 b1 - u^2 b1 a1") * parse_poly(2, "a2 + u")).is_zero()
    # a b (from the fibre pair a, b) cancels u^2 b a (from the pair b, a)
    assert parse_poly(1, "(a + b)(b - u^2 a)") == parse_poly(1, "b^2 - u^2 a^2")
