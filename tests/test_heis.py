import random

import pytest
from hypothesis import given, strategies as st

from heisencalc import aut, heis
from heisencalc.heis import HeisElement
from tests_helpers import reference_from_word


def random_element(rng, genus, span=6):
    return HeisElement(genus, rng.randint(-span, span),
                       tuple(rng.randint(-span, span) for _ in range(2 * genus)))


coords2 = st.tuples(st.integers(-8, 8), st.integers(-8, 8))
elem1 = st.builds(lambda k, c: HeisElement(1, k, c), st.integers(-8, 8), coords2)


def test_omega_basis():
    # omega(a_i, b_j) is the Kronecker delta, antisymmetric
    assert heis.omega((1, 0), (0, 1)) == 1
    assert heis.omega((0, 1), (1, 0)) == -1
    assert heis.omega((1, 0, 0, 0), (0, 0, 0, 1)) == 0
    assert heis.omega((1, 0), (1, 0)) == 0


def test_product_formula():
    x = HeisElement(1, 2, (1, 3))
    y = HeisElement(1, -1, (2, -1))
    z = x * y
    assert z.k == 2 - 1 + (1 * (-1) - 3 * 2)
    assert z.coords == (3, 2)


def test_commutator_is_central_square():
    g = 2
    for i in range(1, g + 1):
        a, b = heis.gen_a(g, i), heis.gen_b(g, i)
        comm = a * b * a.inverse() * b.inverse()
        assert comm == heis.u(g, 2)
    assert heis.gen_a(g, 1) * heis.gen_b(g, 2) == heis.gen_b(g, 2) * heis.gen_a(g, 1)
    # the letter table by name: the aliases a, b of a1, b1, and u to a power
    assert heis.generator(1, "a") == heis.gen_a(1, 1) == HeisElement(1, 0, (1, 0))
    assert heis.generator(1, "b", -2) == heis.gen_b(1, 1, -2) == HeisElement(1, 0, (0, -2))
    assert heis.generator(2, "u", 3) == heis.u(2, 3) == HeisElement(2, 3, (0, 0, 0, 0))


@given(elem1, elem1, elem1)
def test_associativity(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(elem1)
def test_inverse(x):
    assert x * x.inverse() == heis.identity(1)
    assert x.inverse() * x == heis.identity(1)


@given(elem1, st.integers(-5, 5))
def test_central_u_commutes(x, m):
    uu = heis.u(1, m)
    assert uu * x == x * uu


@given(elem1, st.integers(0, 6))
def test_power(x, n):
    acc = heis.identity(1)
    for _ in range(n):
        acc = acc * x
    assert x ** n == acc
    assert x ** (-n) == acc.inverse()


def test_power_closed_form():
    rng = random.Random(41)
    for g in (1, 2, 3):
        x = random_element(rng, g)
        for n in range(-5, 6):
            acc = heis.identity(g)
            for _ in range(abs(n)):
                acc = acc * (x if n > 0 else x.inverse())
            assert x ** n == acc
    assert heis.gen_a(1, 1) ** 10**9 == HeisElement(1, 0, (10**9, 0))
    x = heis.u(2) * heis.gen_a(2, 2) * heis.gen_b(2, 2)
    assert x == HeisElement(2, 2, (0, 0, 1, 1))
    assert x ** -10**9 == HeisElement(2, -2 * 10**9, (0, 0, -10**9, -10**9))


@given(elem1, elem1)
def test_conjugate(h, x):
    # conjugation by h is the inner automorphism of h
    assert aut.inner_of(h).apply(x) == h * x * h.inverse()


@given(elem1)
def test_word_pair_round_trip(x):
    kappa, coords = x.k - heis.quadratic(x.coords), x.coords
    word = [("u", kappa)]
    for i in range(1):
        word.append((f"a{i + 1}", coords[2 * i]))
        word.append((f"b{i + 1}", coords[2 * i + 1]))
    assert heis.from_word(1, word) == x
    assert heis.parse_element(1, x.word_str()) == x
    assert heis.parse_element(1, x.pair_str()) == x


def test_word_str_examples():
    x = heis.parse_element(1, "u^2 a1^-2 b1^2")
    assert x == HeisElement(1, -2, (-2, 2))
    assert x.word_str() == "u^2 a1^-2 b1^2"
    assert heis.identity(1).word_str() == "1"
    assert heis.parse_element(2, "a2 b1^-1").coords == (0, -1, 1, 0)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        heis.parse_element(1, "c^2")
    with pytest.raises(ValueError):
        heis.parse_element(1, "(1; 2)")  # wrong coordinate count
    for genus, name, message in [(1, "x", "unknown generator 'x'"),
                                 (1, "s1", "unknown generator 's1'"),
                                 (1, "a0", "index 0 out of range for genus 1"),
                                 (1, "a2", "index 2 out of range for genus 1"),
                                 (0, "a1", "genus must be >= 1")]:
        with pytest.raises(ValueError) as exc:
            heis.generator(genus, name)
        assert str(exc.value) == message


def test_from_word_matches_letter_products():
    """The closed form against one generator element per letter
    (reference_from_word): seeded words at genus 1-4 of length 0-40 over every
    spelling of a name (u, a, b, a<i>, b<i>), exponents in -5..5 with 0, and
    in every fourth word one letter at +-2^70."""
    rng = random.Random(20261020)
    for genus in (1, 2, 3, 4):
        names = ("u", "a", "b") + heis.generator_names(genus)[1:]
        for n in range(300):
            word = [(rng.choice(names), rng.randint(-5, 5)) for _ in range(rng.randint(0, 40))]
            if word and n % 4 == 0:
                word[rng.randrange(len(word))] = (rng.choice(names), rng.choice((1, -1)) << 70)
            x = heis.from_word(genus, word)
            assert x == reference_from_word(genus, word)
            assert (x.genus, type(x.k), type(x.coords)) == (genus, int, tuple)
    assert heis.from_word(2, iter([("a", 2), ("b2", 1), ("u", -1)])) == \
        reference_from_word(2, [("a", 2), ("b2", 1), ("u", -1)])


@pytest.mark.parametrize("genus, word", [
    (1, [("a0", 1)]), (2, [("a3", 1)]), (2, [("c1", 1)]), (2, [("s1", 1)]),
    (1, [("", 1)]), (2, [("a1", 2), ("b", 1), ("a3", -1)]), (1, [("a01", 1)]),
    (0, [("a1", 1)]), (0, [("u", 1)]), (-1, [("c1", 1)])])
def test_from_word_errors_match_letter_products(genus, word):
    """A name outside the table, or a genus below 1 with a non-empty word,
    raises as reference_from_word does: same type and message, the genus
    before any letter."""
    with pytest.raises(Exception) as got:
        heis.from_word(genus, word)
    with pytest.raises(Exception) as want:
        reference_from_word(genus, word)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_presentation_small_genus():
    for g in (1, 2, 3):
        report = heis.verify_presentation(g)
        assert report and all(ok for _, ok in report)


def test_bulk_random_properties():
    rng = random.Random(20260823)
    for _ in range(2000):
        g = rng.choice((1, 2, 3))
        x, y, z = (random_element(rng, g) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert (x * y).inverse() == y.inverse() * x.inverse()
        kappa, coords = x.k - heis.quadratic(x.coords), x.coords
        assert x.k == kappa + sum(coords[2 * i] * coords[2 * i + 1]
                                  for i in range(g))
