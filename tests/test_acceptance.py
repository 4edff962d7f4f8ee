"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with pytest -s to see the lines; they are also printed on failure.
"""

import math
import random
import time

import numpy as np
import pytest

from heisencalc import aut, braid, heis, pairing, repmatrix as rm, ring, schrodinger as sch
from heisencalc.heis import HeisElement
from heisencalc.ring import HeisPolynomial, parse_poly


def _report(name, ok, elapsed, limit):
    status = "pass" if ok and elapsed < limit else "FAIL"
    print(f"[{status}] {name} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, name
    assert elapsed < limit, f"{name} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_presentation_and_quotient():
    t0 = time.monotonic()
    ok = True
    for g in (1, 2, 3):
        ok &= all(r for _, r in heis.verify_presentation(g))
        for n in (2, 3, 4):
            ok &= all(r for _, r in braid.verify_bellingeri(g, n))
    _report("1 presentation & quotient relations", ok, time.monotonic() - t0, 1.0)


def test_criterion_2_braid_relation_identity():
    t0 = time.monotonic()
    Ma, Mb = rm.matrix_Ta(), rm.matrix_Tb()
    left = rm.compose_twisted(rm.compose_twisted(Ma, Mb), Ma)
    right = rm.compose_twisted(rm.compose_twisted(Mb, Ma), Mb)
    fixture = rm.fixture_matrix("action_aba")
    ok = (left.entries == right.entries and left.entries == fixture.entries)
    _report("2 braid-relation identity", ok, time.monotonic() - t0, 1.0)


def test_criterion_3_boundary_twist():
    t0 = time.monotonic()
    Md = rm.matrix_boundary_twist()
    ok = rm.is_specialized_identity(rm.specialize_matrix(Md, "moriyama"))
    fixture = rm.fixture_matrix("boundary_twist")
    mismatches = [(i, j) for i in range(3) for j in range(3)
                  if Md.entry(i, j) != fixture.entry(i, j)]
    for i, j in mismatches:
        print(f"  entry ({i},{j}) computed {Md.entry(i, j)} "
              f"!= transcribed {fixture.entry(i, j)}")
    ok &= not mismatches
    _report("3 boundary twist", ok, time.monotonic() - t0, 5.0)


def test_criterion_4_separating_twist():
    t0 = time.monotonic()
    M = rm.matrix_separating_twist(2)
    ok = (M.rows, M.cols) == (10, 10)
    Md = rm.matrix_boundary_twist()
    ok &= all(M.entry(i, j) == rm.embed_poly(Md.entry(i, j), 2)
              for i in range(3) for j in range(3))
    # the 2x2 block [[p, r], [q, s]], embedded at genus 2
    (p, r), (q, s) = (tuple(rm.embed_poly(x, 2) for x in row)
                      for row in rm.fixture_matrix("separating_blocks").entries)
    ok &= p == parse_poly(2, "-a^-1 b + u^-2 b + u^-2 a^-1")
    ok &= q == parse_poly(2, "1 - a + u^-2 - u^-2 a^-1")
    ok &= r == parse_poly(2, "a^-1 (-b + b^2 + u^-2 - u^-2 b)")
    ok &= s == parse_poly(2, "1 - b + u^-2 + u^-2 a^-1 b - u^-2 a^-1")
    for t in range(2):
        ok &= M.entry(3 + t, 3 + t) == p
        ok &= M.entry(3 + t, 5 + t) == r
        ok &= M.entry(5 + t, 3 + t) == q
        ok &= M.entry(5 + t, 5 + t) == s
    for i in range(10):
        for j in range(10):
            in_lam = i < 3 and j < 3
            in_mid = 3 <= i < 7 and 3 <= j < 7
            if not (in_lam or in_mid):
                expected = HeisPolynomial.one(2) if i == j else HeisPolynomial.zero(2)
                ok &= M.entry(i, j) == expected
    ok &= rm.is_specialized_identity(rm.specialize_matrix(M, "moriyama"))
    _report("4 separating twist", ok, time.monotonic() - t0, 5.0)


def test_criterion_5_pairing_fixtures():
    t0 = time.monotonic()
    cases = [
        ("ta-wb-wa", "u^2 a^-2 b^2"),
        ("ta-wb-vab", "(u^-1 - 1) a^-1 b"),
        ("s-entry", "1 - b + u^-2 + u^-2 a^-1 b - u^-2 a^-1"),
    ]
    ok = all(pairing.evaluate_pairing(pairing.worked_records(name))
             == parse_poly(1, want) for name, want in cases)
    _report("5 pairing fixtures", ok, time.monotonic() - t0, 1.0)


def test_criterion_6_morita_crossed_hom():
    t0 = time.monotonic()
    bp = aut.morita_crossed_hom(2, aut.bounding_pair_table(2))
    ok = bp.delta == (2, 0, 0, 0) and bp.S == aut.identity_aut(2).S
    rng = random.Random(60)
    from tests_helpers import random_twist_aut
    for _ in range(1000):
        g = rng.choice((1, 2))
        f = random_twist_aut(rng, g)
        h = random_twist_aut(rng, g)
        comp = h.compose(f)
        n = 2 * g
        ok &= comp.delta == tuple(
            f.delta[j] + sum(h.delta[k] * f.S[k][j] for k in range(n))
            for j in range(n))
    _report("6 Morita crossed homomorphism", ok, time.monotonic() - t0, 30.0)


def test_criterion_7_schrodinger():
    t0 = time.monotonic()
    ok = True
    for N in range(2, 9):
        for g in (1, 2):
            ok &= all(r for _, r in sch.verify_schrodinger_rep(N, g, tol=1e-9))
    for N in (3, 4, 5):
        for kind in ("a", "b"):
            t = aut.twist_aut(1, kind)
            phi = aut.HeisAutomorphism(1, (0, 0), t.S)
            U = sch.weil_intertwiner(N, 1, phi)
            ok &= sch.weil_residual(N, 1, phi, U) < 1e-10
    phi_a = aut.HeisAutomorphism(1, (0, 0), aut.twist_aut(1, "a").S)
    phi_b = aut.HeisAutomorphism(1, (0, 0), aut.twist_aut(1, "b").S)
    for N in (3, 4, 5):
        ok &= abs(abs(sch.weil_cocycle(N, 1, phi_a, phi_b)) - 1) < 1e-10
    _report("7 Schrodinger & Weil", ok, time.monotonic() - t0, 30.0)


def test_criterion_8_property_suites():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(80)

    def elem(g, span=6):
        return HeisElement(g, rng.randint(-span, span),
                           tuple(rng.randint(-span, span) for _ in range(2 * g)))

    for _ in range(10000):
        g = rng.choice((1, 2))
        x, y, z = elem(g), elem(g), elem(g)
        ok &= (x * y) * z == x * (y * z)
        ok &= heis.u(g) * x == x * heis.u(g)
        ok &= heis.parse_element(g, x.word_str()) == x

    def poly(g):
        return HeisPolynomial(g, [(elem(g, 3), rng.randint(-4, 4))
                                  for _ in range(rng.randint(0, 3))])

    maps = [ring.specialize_moriyama, ring.specialize_abelianize,
            lambda p: ring.specialize_torsion(p, 5)]
    for _ in range(1000):
        g = rng.choice((1, 2))
        p, q = poly(g), poly(g)
        for fn in maps:
            ok &= fn(p + q) == fn(p) + fn(q)
            ok &= fn(p * q) == fn(p) * fn(q)

    from tests_helpers import random_monomial_matrix
    for _ in range(100):
        M = random_monomial_matrix(rng, 1, 2)
        t1 = aut.twist_aut(1, rng.choice("ab"))
        t2 = aut.twist_aut(1, rng.choice("ab")).inverse()
        lhs = rm.shift_matrix(M, t1.compose(t2))
        rhs = rm.shift_matrix(rm.shift_matrix(M, t1), t2)
        ok &= lhs.entries == rhs.entries

        h1 = HeisElement(1, rng.randint(-2, 2),
                         (rng.randint(-2, 2), rng.randint(-2, 2)))
        h2 = HeisElement(1, rng.randint(-2, 2),
                         (rng.randint(-2, 2), rng.randint(-2, 2)))
        M1 = rm.RepMatrix(1, random_monomial_matrix(rng, 1, 2).entries,
                          aut.inner_of(h1).inverse())
        M2 = rm.RepMatrix(1, random_monomial_matrix(rng, 1, 2).entries,
                          aut.inner_of(h2).inverse())
        composite = rm.compose_twisted(M1, M2)
        ok &= rm.untwist(composite, h1 * h2).entries == rm.mat_mul(
            rm.untwist(M1, h1), rm.untwist(M2, h2))
    _report("8 property suites", ok, time.monotonic() - t0, 30.0)
