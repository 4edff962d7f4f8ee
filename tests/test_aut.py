import random

import pytest
from hypothesis import given, strategies as st

from heisencalc import aut, heis
from heisencalc.aut import HeisAutomorphism
from heisencalc.heis import HeisElement
from tests_helpers import block_count_morita_d, reference_twist_aut


def random_aut(rng, genus):
    """Random automorphism: a word in the standard twists plus an inner part."""
    phi = aut.identity_aut(genus)
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice("ab")
        idx = rng.randint(1, genus)
        t = aut.twist_aut(genus, kind, idx)
        phi = phi.compose(t if rng.random() < 0.5 else t.inverse())
    h = HeisElement(genus, 0, tuple(rng.randint(-2, 2) for _ in range(2 * genus)))
    return phi.compose(aut.inner_of(h))


def random_element(rng, genus, span=5):
    return HeisElement(genus, rng.randint(-span, span),
                       tuple(rng.randint(-span, span) for _ in range(2 * genus)))


def test_twist_aut_values():
    ta = aut.twist_aut(1, "a")
    assert ta.delta == (0, -1)
    assert ta.S == ((1, -1), (0, 1))
    tb = aut.twist_aut(1, "b")
    assert tb.delta == (1, 0)
    assert tb.S == ((1, 0), (1, 1))
    a, b = heis.gen_a(1, 1), heis.gen_b(1, 1)
    assert ta.apply(a) == a
    assert ta.apply(b) == HeisElement(1, -1, (-1, 1))
    assert tb.apply(b) == b
    assert tb.apply(a) == HeisElement(1, 1, (1, 1))


def test_apply_is_homomorphism():
    rng = random.Random(11)
    for _ in range(500):
        g = rng.choice((1, 2))
        phi = random_aut(rng, g)
        x, y = random_element(rng, g), random_element(rng, g)
        assert phi.apply(x * y) == phi.apply(x) * phi.apply(y)
        assert phi.apply(heis.u(g)) == heis.u(g)


def test_compose_and_inverse():
    rng = random.Random(12)
    for _ in range(200):
        g = rng.choice((1, 2))
        f, h = random_aut(rng, g), random_aut(rng, g)
        x = random_element(rng, g)
        assert h.compose(f).apply(x) == h.apply(f.apply(x))
        assert f.compose(f.inverse()).is_identity()
        assert f.inverse().compose(f).is_identity()


def test_rejects_non_symplectic():
    with pytest.raises(ValueError):
        HeisAutomorphism(1, (0, 0), ((1, 0), (0, 2)))


def test_derived_automorphisms_unchecked_inputs_checked():
    """compose, inverse, identity_aut and inner_of build their results with
    no symplectic check, and each is symplectic by construction; the
    constructor, from_json and morita_crossed_hom still refuse a
    non-symplectic S."""
    rng = random.Random(7)
    for g in (1, 2, 3):
        f, h = random_aut(rng, g), random_aut(rng, g)
        for derived in (f.compose(h), f.inverse(), aut.identity_aut(g),
                        aut.inner_of(random_element(rng, g))):
            assert aut.is_symplectic(derived.S, g)
            assert HeisAutomorphism(g, derived.delta, derived.S) == derived
    with pytest.raises(ValueError, match="not symplectic"):
        HeisAutomorphism(1, (0, 0), ((1, 1), (0, 2)))
    with pytest.raises(ValueError, match="not symplectic"):
        HeisAutomorphism.from_json({"delta": [0, 0], "S": [[1, 1], [0, 2]]})
    with pytest.raises(ValueError, match="not symplectic"):
        aut.morita_crossed_hom(1, {"a1": heis.parse_word("a1^2"), "b1": heis.parse_word("b1")})


def reference_J(genus):
    J = [[0] * (2 * genus) for _ in range(2 * genus)]
    for i in range(genus):
        J[2 * i][2 * i + 1], J[2 * i + 1][2 * i] = 1, -1
    return J


def reference_matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


def reference_transpose(A):
    return [list(col) for col in zip(*A)]


def reference_is_symplectic(S, genus):
    J = reference_J(genus)
    return reference_matmul(reference_matmul(reference_transpose(S), J), S) == J


def symplectic_and_near_misses(rng, genus):
    """A symplectic S from a twist word, the same S with one entry moved by
    +-1 (almost never symplectic), and a random small integer matrix."""
    n = 2 * genus
    S = [list(r) for r in random_aut(rng, genus).S]
    moved = [row[:] for row in S]
    moved[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1))
    noise = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
    return S, moved, noise


def test_is_symplectic_matches_reference():
    rng = random.Random(15)
    seen = {True: 0, False: 0}
    for _ in range(600):
        g = rng.choice((1, 2, 3))
        for S in symplectic_and_near_misses(rng, g):
            want = reference_is_symplectic(S, g)
            seen[want] += 1
            assert aut.is_symplectic(tuple(map(tuple, S)), g) == want
            if want:
                HeisAutomorphism(g, (0,) * (2 * g), tuple(map(tuple, S)))
            else:
                with pytest.raises(ValueError):
                    HeisAutomorphism(g, (0,) * (2 * g), tuple(map(tuple, S)))
    # genus 1 noise matrices with determinant 1 are symplectic
    assert seen[True] > 700 and seen[False] > 1000


def test_inverse_matches_reference():
    rng = random.Random(16)
    for _ in range(300):
        g = rng.choice((1, 2, 3))
        phi = random_aut(rng, g)
        J = reference_J(g)
        minus_J = [[-x for x in row] for row in J]
        Sinv = reference_matmul(reference_matmul(minus_J, reference_transpose(phi.S)), J)
        delta = tuple(-sum(phi.delta[k] * Sinv[k][j] for k in range(2 * g))
                      for j in range(2 * g))
        inv = phi.inverse()
        assert inv.S == tuple(map(tuple, Sinv))
        assert inv.delta == delta
        assert phi.compose(inv).is_identity()


def test_inner_of_and_witness():
    rng = random.Random(13)
    for _ in range(200):
        g = rng.choice((1, 2))
        h = HeisElement(g, rng.randint(-3, 3),
                        tuple(rng.randint(-3, 3) for _ in range(2 * g)))
        phi = aut.inner_of(h)
        x = random_element(rng, g)
        assert phi.apply(x) == h * x * h.inverse()
        w = aut.inner_witness(phi)
        assert w is not None
        assert aut.inner_of(w) == phi
    # odd delta or nontrivial S is not inner
    assert aut.inner_witness(aut.twist_aut(1, "a")) is None
    assert aut.inner_witness(HeisAutomorphism(1, (1, 0),
                                              ((1, 0), (0, 1)))) is None


def test_inner_witness_iff_identity_S_and_even_delta():
    # the round trip inner_of(h) == phi alone decides: inner iff S = I, delta even
    rng = random.Random(17)
    for _ in range(300):
        g = rng.randint(1, 3)
        phi = aut.identity_aut(g)
        for _ in range(rng.randint(0, 3)):
            phi = phi.compose(aut.twist_aut(g, rng.choice("ab"), rng.randint(1, g)))
        delta = tuple(d + rng.randint(-3, 3) for d in phi.delta)
        phi = HeisAutomorphism(g, delta, phi.S)
        inner = phi.S == aut.identity_aut(g).S and not any(d % 2 for d in delta)
        w = aut.inner_witness(phi)
        assert (w is not None) == inner
        assert w is None or aut.inner_of(w) == phi


def test_inner_witness_example():
    phi = HeisAutomorphism(2, (2, 0, 0, 0), aut.identity_aut(2).S)
    w = aut.inner_witness(phi)
    assert w == HeisElement(2, 0, (0, -1, 0, 0))


def test_morita_d_examples():
    # single generators have no self linking
    assert aut.morita_d(1, [("a1", 1)]) == 0
    assert aut.morita_d(1, [("b1", 1)]) == 0
    # one positive block a b contributes +1
    assert aut.morita_d(1, [("a1", 1), ("b1", 1)]) == 1
    # the commutator [a, b]
    assert aut.morita_d(1, [("a1", 1), ("b1", 1), ("a1", -1), ("b1", -1)]) == 2
    # letters from other handles are ignored
    assert aut.morita_d(1, [("a2", 5), ("a1", 1), ("b2", -1), ("b1", 1)]) == 1
    assert aut.morita_d(2, [("a1", 1), ("b1", 1)]) == 0
    # exponents are never expanded into letters
    assert aut.morita_d(1, [("a1", 10 ** 9), ("b1", 1)]) == 10 ** 9
    assert aut.morita_d(1, [("b1", 7), ("a1", 10 ** 9), ("a1", -10 ** 9)]) == 0


# unreduced words in the letters of handles 1-3, zero exponents included
free_words = st.lists(st.tuples(st.sampled_from(heis.generator_names(3)[1:]),
                                st.integers(-5, 5)), max_size=14)


@given(free_words)
def test_morita_d_matches_block_count(word):
    for i in (1, 2, 3, 4):
        assert aut.morita_d(i, word) == block_count_morita_d(i, word)
    assert sum(aut.morita_d(i, word) for i in (1, 2, 3)) == heis.from_word(3, word).k


def block_count_delta(genus, table):
    """delta from Morita's block formula: sum_i d_i(image) - d_i(generator)."""
    return tuple(sum(block_count_morita_d(i, table[name])
                     - block_count_morita_d(i, [(name, 1)]) for i in range(1, genus + 1))
                 for name in heis.generator_names(genus)[1:])


def invert_word(word):
    return [(name, -exp) for name, exp in reversed(word)]


def compose_tables(outer, inner):
    """The pi_1 action 'outer after inner': each letter of an inner image word
    is replaced by its outer image (inverted for a negative exponent)."""
    def image(name, exp):
        word = outer[name] if exp > 0 else invert_word(outer[name])
        return word * abs(exp)
    return {c: [x for name, exp in w for x in image(name, exp)]
            for c, w in inner.items()}


def test_crossed_hom_matches_block_count():
    tables = [aut.twist_pi1_table(g, kind, idx) for g in (1, 2, 3, 4)
              for kind in "ab" for idx in range(1, g + 1)]
    tables += [aut.bounding_pair_table(g) for g in (2, 3, 4)]
    for table in tables:
        g = len(table) // 2
        assert aut.morita_crossed_hom(g, table).delta == block_count_delta(g, table)
    rng = random.Random(17)
    for _ in range(200):
        g = rng.randint(1, 3)
        table = {c: [(c, 1)] for c in heis.generator_names(g)[1:]}
        phi = aut.identity_aut(g)
        for _ in range(rng.randint(1, 5)):
            kind, idx = rng.choice("ab"), rng.randint(1, g)
            step = aut.twist_pi1_table(g, kind, idx)
            table = compose_tables(table, step)
            phi = phi.compose(aut.twist_aut(g, kind, idx))
        crossed = aut.morita_crossed_hom(g, table)
        assert crossed.delta == block_count_delta(g, table)
        assert crossed == phi


def test_crossed_hom_rejects_bad_letters_in_order():
    # a u letter multiplies out, but never reaches delta without an error
    with pytest.raises(ValueError, match="bad letter 'u'"):
        aut.morita_crossed_hom(1, {"a1": [("a1", 1), ("u", 1)], "b1": [("b1", 1)]})
    with pytest.raises(ValueError, match="bad letter 'a'"):
        aut.morita_crossed_hom(1, {"a1": [("a", 1)], "b1": [("u", 3), ("b1", 1)]})
    # unknown generators first, then the symplectic check, then the letters
    with pytest.raises(ValueError, match="unknown generator"):
        aut.morita_crossed_hom(1, {"a1": [("u", 1)], "b1": [("x1", 1)]})
    with pytest.raises(ValueError, match="not symplectic"):
        aut.morita_crossed_hom(1, {"a1": [("u", 1)], "b1": [("b1", 1)]})


def test_crossed_hom_matches_twists():
    # twist_aut is derived from the pi_1 action; the oracle is written out by hand
    for g in (1, 2, 3, 4):
        for kind in ("a", "b"):
            for idx in range(1, g + 1):
                assert aut.twist_aut(g, kind, idx) == reference_twist_aut(g, kind, idx)


def test_bounding_pair_value():
    phi = aut.morita_crossed_hom(2, aut.bounding_pair_table(2))
    assert phi.delta == (2, 0, 0, 0)
    assert phi.S == aut.identity_aut(2).S
    w = aut.inner_witness(phi)
    assert w is not None and aut.inner_of(w) == phi


def test_crossed_hom_composition_law():
    # delta of a composite: delta_{g o f} = delta_f + delta_g o S_f
    rng = random.Random(14)
    for _ in range(1000):
        g = rng.choice((1, 2))
        f, h = random_aut(rng, g), random_aut(rng, g)
        comp = h.compose(f)
        n = 2 * g
        expected = tuple(
            f.delta[j] + sum(h.delta[k] * f.S[k][j] for k in range(n))
            for j in range(n))
        assert comp.delta == expected
        assert comp.S == tuple(
            tuple(sum(h.S[i][k] * f.S[k][j] for k in range(n)) for j in range(n))
            for i in range(n))


def test_json_round_trip():
    phi = aut.twist_aut(2, "b", 2)
    assert HeisAutomorphism.from_json(phi.to_json()) == phi
