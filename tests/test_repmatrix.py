import functools
import math
import random
import time

import pytest

from heisencalc import aut, heis, repmatrix as rm, ring
from heisencalc.heis import HeisElement
from heisencalc.ring import HeisPolynomial, parse_poly
from tests_helpers import (cold_constants, dense_mat_mul,  # noqa: F401 (a fixture)
                           random_monomial_matrix, random_twist_aut)


def test_basis_enumerate_genus1():
    assert rm.basis_enumerate(1, 2) == [(2, 0), (0, 2), (1, 1)]
    assert len(rm.basis_enumerate(1, 3)) == 4


def test_basis_enumerate_counts_and_order():
    for g in (1, 2, 3):
        for n in (2, 3):
            out = rm.basis_enumerate(g, n)
            assert len(out) == math.comb(2 * g + n - 1, n)
            assert len(set(out)) == len(out)
            assert all(sum(k) == n and len(k) == 2 * g for k in out)
    out = rm.basis_enumerate(2, 2)
    assert out[:3] == [(2, 0, 0, 0), (0, 2, 0, 0), (1, 1, 0, 0)]
    # middle blocks: first-handle tethers against the other handles
    assert out[3:5] == [(1, 0, 1, 0), (1, 0, 0, 1)]
    assert out[5:7] == [(0, 1, 1, 0), (0, 1, 0, 1)]


def test_basis_enumerate_n2_order_genus3():
    assert rm.basis_enumerate(3, 2) == [
        # w(a1), w(b1), v(a1, b1)
        (2, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0),
        # v(a1, e) for e over a2, b2, a3, b3
        (1, 0, 1, 0, 0, 0), (1, 0, 0, 1, 0, 0), (1, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1),
        # v(b1, e) likewise
        (0, 1, 1, 0, 0, 0), (0, 1, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1),
        # the indices not involving the first handle, lexicographic, largest first
        (0, 0, 2, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 1, 0, 1, 0), (0, 0, 1, 0, 0, 1),
        (0, 0, 0, 2, 0, 0), (0, 0, 0, 1, 1, 0), (0, 0, 0, 1, 0, 1),
        (0, 0, 0, 0, 2, 0), (0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 0, 2)]
    # other n keep the plain order
    assert rm.basis_enumerate(3, 3) == sorted(rm.basis_enumerate(3, 3), reverse=True)


def recursive_basis_enumerate(g, n):
    """Reference weak compositions of n into 2g parts, built slot by slot with
    the largest first entry first, then the n = 2 block sort."""
    def recurse(remaining, slots):
        if slots == 1:
            return [(remaining,)]
        return [(c,) + rest for c in range(remaining, -1, -1)
                for rest in recurse(remaining - c, slots - 1)]
    out = recurse(n, 2 * g)
    if n == 2:
        out.sort(key=lambda index: rm._FIRST_HANDLE_ORDER[index[:2]])
    return out


def test_basis_enumerate_matches_recursion():
    for g in range(1, 6):
        for n in range(2, 5):
            assert rm.basis_enumerate(g, n) == recursive_basis_enumerate(g, n), (g, n)


def test_twist_matrix_entries():
    Ma, Mb = rm.matrix_Ta(), rm.matrix_Tb()
    assert Ma.entry(0, 1) == parse_poly(1, "u^2 a^-2 b^2")
    assert Ma.entry(0, 2) == parse_poly(1, "(u^-1 - 1) a^-1 b")
    assert Ma.entry(2, 1) == parse_poly(1, "-a^-1 b")
    assert Mb.entry(0, 0) == parse_poly(1, "u^-2 b^2")
    assert Mb.entry(1, 2) == parse_poly(1, "1 - u^-1")
    assert Ma.source_twist == aut.twist_aut(1, "a").inverse()
    assert Mb.source_twist == aut.twist_aut(1, "b").inverse()


def test_moriyama_of_Ma():
    rows = rm.specialize_matrix(rm.matrix_Ta(), "moriyama")
    expect = [["1", "1", "u - 1"], ["0", "1", "0"], ["0", "-1", "1"]]
    got = [[str(p) for p in row] for row in rows]
    assert got == [[str(ring.specialize_moriyama(parse_poly(1, s)))
                    for s in row] for row in expect]


def test_braid_relation_identity():
    Ma, Mb = rm.matrix_Ta(), rm.matrix_Tb()
    left = rm.compose_twisted(rm.compose_twisted(Ma, Mb), Ma)
    right = rm.compose_twisted(rm.compose_twisted(Mb, Ma), Mb)
    assert left.entries == right.entries
    assert left.source_twist == right.source_twist
    assert left.entries == rm.fixture_matrix("action_aba").entries


def test_matrix_TaTbTa_entries():
    A = rm.matrix_TaTbTa()
    assert A.entries == rm.fixture_matrix("action_aba").entries
    assert A.entry(0, 0).is_zero()
    assert A.entry(2, 2) == parse_poly(1, "u^-1 a^-1 b")
    assert A.entry(1, 1) == parse_poly(1, "1 + (u^-3 - u^-2) a^-1 - u^-5 a^-2")
    # the induced automorphism has order 4
    g_H = A.source_twist.inverse()
    assert g_H.delta == (0, -2)
    assert g_H.S == ((0, -1), (1, 0))
    p = g_H
    for _ in range(3):
        p = p.compose(g_H)
    assert p.is_identity()


def test_boundary_twist():
    Md = rm.matrix_boundary_twist()
    assert Md.source_twist.is_identity()
    fixture = rm.fixture_matrix("boundary_twist")
    mismatches = [(i, j) for i in range(3) for j in range(3)
                  if Md.entry(i, j) != fixture.entry(i, j)]
    assert mismatches == []
    assert Md.entry(0, 0) == parse_poly(
        1, "u^-8 b^2 + u^-4 a^-2 - u a^-2 b^2 + (u^-1 - u^-2) a^-2 b "
           "+ (u^-3 - u^-4) a^-1 b^2 + (u^-4 - u^-5) a^-1 b")
    assert rm.is_specialized_identity(rm.specialize_matrix(Md, "moriyama"))


@pytest.mark.usefixtures("cold_constants")
def test_boundary_twist_folds_aba_once(monkeypatch):
    # Ta Tb Ta (2 twisted compositions), then its fourth power (3)
    calls = []
    honest = rm.compose_twisted

    def counted(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(rm, "compose_twisted", counted)
    rm.matrix_boundary_twist()
    assert len(calls) == 5


@pytest.mark.usefixtures("cold_constants")
def test_verify_builtin_matrices_builds_aba_once(monkeypatch):
    # Ta Tb Ta and Tb Ta Tb (2 each), then the boundary twist as the fourth
    # power of the aba already built (3): 7 twisted compositions
    calls = []
    honest = rm.compose_twisted

    def counted(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(rm, "compose_twisted", counted)
    checks = rm.verify_builtin_matrices()
    assert [label for label, _ in checks] == [
        "braid identity", "braid identity matches fixture",
        "boundary twist matches fixture", "boundary twist dies in the u-quotient"]
    assert all(ok for _, ok in checks)
    assert len(calls) == 7


def test_identity_shift_is_a_no_op():
    """shift_matrix by the identity returns its matrix, and a composite after
    D or a separating twist, whose twists are the identity, is still the
    product with every entry moved by that identity."""
    D, sep = rm.matrix_boundary_twist(), rm.matrix_separating_twist(2)
    for Fg, Ff in ((D, D), (D, rm.matrix_Ta()), (sep, sep)):
        ident = aut.identity_aut(Fg.genus)
        assert Fg.source_twist.is_identity() and rm.shift_matrix(Ff, ident) is Ff
        moved = tuple(tuple(ring.aut_apply_poly(ident, p) for p in row) for row in Ff.entries)
        M = rm.compose_twisted(Fg, Ff)
        assert M.entries == dense_mat_mul(Fg, rm.RepMatrix(Ff.genus, moved, ident))
        assert M.source_twist == Ff.source_twist
    # a twist that is not the identity still moves the entries
    assert rm.shift_matrix(sep, aut.twist_aut(2, "a", 1)).entries != sep.entries


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_separating_twist(g):
    M = rm.matrix_separating_twist(g)
    size, mid = len(rm.basis_enumerate(g, 2)), 2 * g - 2
    assert (M.rows, M.cols) == (size, size)
    assert M.source_twist.is_identity()
    Md = rm.matrix_boundary_twist()
    blocks = rm.fixture_matrix("separating_blocks")
    assert (blocks.rows, blocks.cols) == (2, 2)
    assert str(blocks.entry(1, 1)) == str(parse_poly(
        1, "1 - b + u^-2 + u^-2 a^-1 b - u^-2 a^-1"))
    # each genus-1 block at its indices, and the identity elsewhere
    expected = {(i, j): Md.entry(i, j) for i in range(3) for j in range(3)}
    for t in range(mid):
        at = (3 + t, 3 + mid + t)
        expected.update({(i, j): blocks.entry(r, c) for r, i in enumerate(at)
                         for c, j in enumerate(at)})
    for i in range(size):
        for j in range(size):
            one = HeisPolynomial.one(1) if i == j else HeisPolynomial.zero(1)
            assert M.entry(i, j) == rm.embed_poly(expected.get((i, j), one), g)
    assert rm.is_specialized_identity(rm.specialize_matrix(M, "moriyama"))
    with pytest.raises(ValueError):
        rm.matrix_separating_twist(1)


def test_separating_twist_genus3_moriyama():
    M = rm.matrix_separating_twist(3)
    assert (M.rows, M.cols) == (21, 21)
    assert rm.is_specialized_identity(rm.specialize_matrix(M, "moriyama"))


def test_separating_square_matches_dense_product():
    for g in (2, 3):
        S = rm.matrix_separating_twist(g)
        shifted = [[ring.aut_apply_poly(S.source_twist.inverse(), p) for p in row]
                   for row in S.entries]
        reference = dense_mat_mul(S, rm.RepMatrix(g, tuple(map(tuple, shifted)),
                                                  aut.identity_aut(g)))
        assert rm.compose_twisted(S, S).entries == reference


def test_separating_square_genus8_time():
    S = rm.matrix_separating_twist(8)
    t0 = time.perf_counter()
    square = rm.compose_twisted(S, S)
    assert time.perf_counter() - t0 < 3.0
    assert rm.is_specialized_identity(rm.specialize_matrix(square, "moriyama"))


def test_mat_mul_rectangular_with_zero_rows_and_columns():
    rng = random.Random(23)
    zero = HeisPolynomial.zero(2)
    for _ in range(20):
        A = [list(row) for row in random_monomial_matrix(rng, 2, 4).entries[:3]]
        B = [list(row) for row in random_monomial_matrix(rng, 2, 5).entries[:4]]
        A[rng.randrange(3)] = [zero] * 4  # a zero row of A
        for row in A:
            row[1] = zero  # a zero column of A
        B[rng.randrange(4)] = [zero] * 5  # a zero row of B
        column = rng.randrange(5)
        for row in B:
            row[column] = zero  # a zero column of B
        A = rm.RepMatrix(2, tuple(map(tuple, A)), aut.identity_aut(2))
        B = rm.RepMatrix(2, tuple(map(tuple, B)), aut.identity_aut(2))
        product = rm.mat_mul(A, B)
        assert (len(product), len(product[0])) == (3, 5)
        assert product == dense_mat_mul(A, B)


def test_shift_functoriality():
    rng = random.Random(21)
    for _ in range(100):
        M = random_monomial_matrix(rng, 1, 2)
        t1 = aut.twist_aut(1, rng.choice("ab"))
        t2 = aut.twist_aut(1, rng.choice("ab")).inverse()
        lhs = rm.shift_matrix(M, t1.compose(t2))
        rhs = rm.shift_matrix(rm.shift_matrix(M, t1), t2)
        assert lhs.entries == rhs.entries
        assert lhs.source_twist == rhs.source_twist
        ident = rm.shift_matrix(M, aut.identity_aut(1))
        assert ident.entries == M.entries


def test_shift_respects_products():
    rng = random.Random(22)
    for _ in range(50):
        A = random_monomial_matrix(rng, 1, 2)
        B = random_monomial_matrix(rng, 1, 2)
        tau = aut.twist_aut(1, rng.choice("ab"))
        prod = rm.RepMatrix(1, rm.mat_mul(A, B), aut.identity_aut(1))
        assert rm.shift_matrix(prod, tau).entries == rm.mat_mul(
            rm.shift_matrix(A, tau), rm.shift_matrix(B, tau))


def _word(*letters):
    """Twisted composite of the matrices in letters, left to right."""
    M = letters[0]
    for L in letters[1:]:
        M = rm.compose_twisted(M, L)
    return M


def _same(M, N):
    return M.entries == N.entries and M.source_twist == N.source_twist


def test_chain_relation_and_boundary_is_central():
    Ma, Mb, D = rm.matrix_Ta(), rm.matrix_Tb(), rm.matrix_boundary_twist()
    # the chain relation (Ta Tb)^6 = (Ta Tb Ta)^4 = D
    assert _same(_word(*[Ma, Mb] * 6), D)
    assert _same(_word(*[Ma, Mb, Ma] * 4), D)
    # D commutes with both generators
    for T in (Ma, Mb):
        assert _same(_word(D, T), _word(T, D))


def test_compose_twisted_matches_definition():
    """Mat(g o f) = Mat(g) . g_H(Mat(f)), g_H the inverse of Fg's sourceTwist,
    applied entrywise; the composite's twist is tau_f o tau_g."""
    rng = random.Random(25)
    for _ in range(60):
        g = rng.choice((1, 2))
        Fg = rm.RepMatrix(g, random_monomial_matrix(rng, g, 2).entries,
                          random_twist_aut(rng, g))
        Ff = rm.RepMatrix(g, random_monomial_matrix(rng, g, 2).entries,
                          random_twist_aut(rng, g))
        g_H = Fg.source_twist.inverse()
        twisted = rm.RepMatrix(g, tuple(tuple(ring.aut_apply_poly(g_H, p) for p in row)
                                        for row in Ff.entries), aut.identity_aut(g))
        comp = rm.compose_twisted(Fg, Ff)
        assert comp.entries == rm.mat_mul(Fg, twisted)
        assert comp.source_twist == Ff.source_twist.compose(Fg.source_twist)


def test_compose_with_identity():
    Ma = rm.matrix_Ta()
    I = rm.identity_matrix(1, 3)
    assert rm.compose_twisted(Ma, I).entries == Ma.entries
    assert rm.compose_twisted(I, Ma).entries == Ma.entries


def test_matrix_inverse():
    for M in (rm.matrix_Ta(), rm.matrix_Tb(), rm.matrix_TaTbTa()):
        inv = rm.rep_matrix_inverse(M)
        comp = rm.compose_twisted(M, inv)
        assert comp.entries == rm.identity_matrix(1, 3).entries
        assert comp.source_twist.is_identity()
        comp2 = rm.compose_twisted(inv, M)
        assert comp2.entries == rm.identity_matrix(1, 3).entries
        assert comp2.source_twist.is_identity()
    # a product of four shipped twists inverts too
    rng = random.Random(31)
    word = [rng.choice((rm.matrix_Ta(), rm.matrix_Tb())) for _ in range(4)]
    M = functools.reduce(rm.compose_twisted, word)
    assert rm.compose_twisted(M, rm.rep_matrix_inverse(M)).entries == \
        rm.identity_matrix(1, 3).entries


@pytest.mark.parametrize("build", [rm.matrix_boundary_twist,
                                   lambda: rm.matrix_separating_twist(2)])
def test_matrix_inverse_without_unit_pivot(build):
    # the boundary and separating twists have no single-term unit in column 0
    with pytest.raises(ValueError, match="no unit pivot in column 0"):
        rm.rep_matrix_inverse(build())


def test_untwist_synthetic():
    rng = random.Random(23)
    for _ in range(100):
        g = rng.choice((1, 2))
        h1 = HeisElement(g, rng.randint(-2, 2),
                         tuple(rng.randint(-2, 2) for _ in range(2 * g)))
        h2 = HeisElement(g, rng.randint(-2, 2),
                         tuple(rng.randint(-2, 2) for _ in range(2 * g)))
        M1 = rm.RepMatrix(g, random_monomial_matrix(rng, g, 2).entries,
                          aut.inner_of(h1).inverse())
        M2 = rm.RepMatrix(g, random_monomial_matrix(rng, g, 2).entries,
                          aut.inner_of(h2).inverse())
        composite = rm.compose_twisted(M1, M2)
        lhs = rm.untwist(composite, h1 * h2)
        rhs = rm.mat_mul(rm.untwist(M1, h1), rm.untwist(M2, h2))
        assert lhs.entries == rhs
    # identity matrix with an inner twist untwists to h times the identity
    h = HeisElement(1, 0, (1, 2))
    M = rm.RepMatrix(1, rm.identity_matrix(1, 3).entries,
                     aut.inner_of(h).inverse())
    U = rm.untwist(M, h)
    assert U.entry(0, 0) == HeisPolynomial.monomial(h)
    assert U.entry(0, 1).is_zero()
    # central h: twist is trivially inner, untwist is a scalar
    hu = heis.u(1, 3)
    Mu = rm.RepMatrix(1, rm.matrix_boundary_twist().entries,
                      aut.inner_of(hu).inverse())
    assert rm.untwist(Mu, hu).entries == rm.scalar_mul(Mu, hu).entries
    with pytest.raises(ValueError):
        rm.untwist(rm.matrix_Ta(), heis.identity(1))


def test_json_and_latex_export():
    Ma = rm.matrix_Ta()
    data = Ma.to_json()
    assert (data["rows"], data["cols"]) == (3, 3)
    assert data["twist"] == Ma.source_twist.to_json()
    # the entry u^2 a1^-2 b1^2 in pair form
    assert data["entries"][0][1] == [{"k": -2, "coords": [-2, 2], "c": 1}]
    tex = rm.matrix_latex(Ma)
    assert tex.startswith("\\begin{pmatrix}")
    assert "u^{2} a^{-2} b^{2}" in tex
