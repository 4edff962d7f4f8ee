import time
import tracemalloc

import numpy as np
import pytest

from heisencalc import aut, heis, schrodinger as sch
from heisencalc.heis import HeisElement
from tests_helpers import (dense_products_ok, dense_verify_schrodinger_rep,
                           dense_weil_residual, exp_schrodinger_matrix,
                           loop_schrodinger_matrix, svd_weil_intertwiner)


def sp_word(genus, kinds):
    """Symplectic part of a composite of the standard twists along a1/b1."""
    phi = aut.identity_aut(genus)
    for kind in kinds:
        phi = phi.compose(aut.twist_aut(genus, kind, 1))
    return aut.HeisAutomorphism(genus, (0,) * (2 * genus), phi.S)


WORDS = ["", "a", "b", "ab", "bab"]


def test_central_element_is_scalar():
    for N in (2, 3, 5):
        U = sch.schrodinger_matrix(N, 1, heis.u(1))
        assert np.abs(U - np.exp(1j * np.pi / N) * np.eye(N)).max() < 1e-12


def test_b_generator_is_diagonal():
    N = 5
    U = sch.schrodinger_matrix(N, 1, heis.gen_b(1, 1))
    expect = np.diag([np.exp(2j * np.pi * s / N) for s in range(N)])
    assert np.abs(U - expect).max() < 1e-12


def test_a_generator_is_shift():
    N = 4
    U = sch.schrodinger_matrix(N, 1, heis.gen_a(1, 1))
    psi = np.zeros(N)
    psi[2] = 1.0
    # (U psi)(s) = psi(s + 1): the spike moves from 2 to 1
    out = U @ psi
    assert abs(out[1] - 1.0) < 1e-12
    assert np.abs(np.delete(out, 1)).max() < 1e-12


def test_rejects_small_N():
    with pytest.raises(ValueError):
        sch.schrodinger_matrix(1, 1, heis.u(1))


def test_dense_size_cap():
    # refused sizes only: the check runs before anything is allocated
    with pytest.raises(ValueError, match="dense array"):
        sch.schrodinger_matrix(10 ** 6, 3, heis.u(3))
    with pytest.raises(ValueError, match="dense array"):
        sch.weil_intertwiner(10 ** 6, 3, aut.identity_aut(3))
    # (3g + 8) N^(2g) entries: N=39 is admitted at g=2, N=40 is not, and it
    # is refused before its working arrays exist
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense array"):
            sch.weil_intertwiner(40, 2, aut.identity_aut(2))
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()
    assert 16 * 14 * 39 ** 4 <= sch.MAX_DENSE_BYTES < 16 * 14 * 40 ** 4
    # MAX_DENSE_BYTES covers (2g+1) N^(4g) complex entries at N=7 g=2 and N=3 g=3
    assert 16 * 5 * 7 ** 8 <= sch.MAX_DENSE_BYTES
    assert 16 * 7 * 3 ** 12 <= sch.MAX_DENSE_BYTES
    phi = sp_word(2, "ab")
    U = sch.weil_intertwiner(8, 2, phi)
    assert sch.weil_residual(8, 2, phi, U) <= 1e-10


def test_rep_property_all_N():
    for N in range(2, 9):
        for g in (1, 2):
            report = sch.verify_schrodinger_rep(N, g)
            bad = [name for name, ok in report if not ok]
            assert not bad, f"N={N}, g={g}: {bad}"


def test_random_check_reports_failure(monkeypatch):
    report = dict(sch.verify_schrodinger_rep(3, 1, rng=np.random.default_rng(5)))
    assert report["random[200]"]
    # break the first product whose left factor has |k| >= 2: a random
    # pair, since the generator checks only multiply elements with k in {0, 1}
    honest, broken = HeisElement.__mul__, []

    def mul(self, other):
        out = honest(self, other)
        if abs(self.k) >= 2 and not broken:
            broken.append(self)
            return HeisElement(out.genus, out.k + 1, out.coords)
        return out

    monkeypatch.setattr(HeisElement, "__mul__", mul)
    report = sch.verify_schrodinger_rep(3, 1, rng=np.random.default_rng(5))
    assert len(broken) == 1
    assert [name for name, ok in report if not ok] == ["random[200]"]
    assert [name for name, _ in report].count("random[200]") == 1


def report_names(g):
    names = [name for name, _ in heis.generators(g)]
    return ([f"unitary[{n}]" for n in names]
            + [f"hom[{n1},{n2}]" for n1 in names for n2 in names]
            + [f"commutator[{i}]" for i in range(1, g + 1)] + ["random[200]"])


def elem(g, row):
    return HeisElement(g, row[0], tuple(row[1:]))


@pytest.mark.parametrize("N, g", [(N, g) for g in (1, 2, 3) for N in range(2, 9)])
def test_batched_products_match_dense_reference(N, g):
    report = sch.verify_schrodinger_rep(N, g, rng=np.random.default_rng(N + 10 * g))
    assert [name for name, _ in report] == report_names(g)
    assert all(ok for _, ok in report)
    # seeded pairs with five kinds of product: honest, swapped (y x), k off
    # by one, a1 off by one with k moved so every phase stays (only the
    # columns are wrong), and b1 off by one (the phases of some rows stay)
    rng = np.random.default_rng(100 + N + 10 * g)
    rows = rng.integers(-6, 7, size=(2, 15, 2 * g + 1))
    xs, ys = [[elem(g, r) for r in side.tolist()] for side in rows]

    def product(i, x, y):
        if i % 5 == 1:
            return y * x
        xy = x * y
        k, c = xy.k, list(xy.coords)
        if i % 5 == 2:
            k += 1
        elif i % 5 == 3:
            k, c[0] = k - c[1], c[0] + 1
        elif i % 5 == 4:
            c[1] += 1
        return HeisElement(g, k, tuple(c))

    xys = [product(i, x, y) for i, (x, y) in enumerate(zip(xs, ys))]
    ok = sch._products_ok(N, g, *(sch._pack(N, e) for e in (xs, ys, xys)), 1e-9)
    want = dense_products_ok(N, g, xs, ys, xys)
    assert ok.tolist() == want
    # the honest products pass and the off-by-one ones never do; a swapped
    # product fails exactly when omega(x, y) is not 0 mod N
    assert want[::5] == [True] * 3
    assert want[2::5] + want[3::5] + want[4::5] == [False] * 9
    assert want[1::5] == [heis.omega(x.coords, y.coords) % N == 0
                          for x, y in zip(xs[1::5], ys[1::5])]


def test_random_check_reports_swapped_product(monkeypatch):
    # swap one random product: the generator checks only multiply elements
    # with k in {0, 1}, and a swap shows only when omega(x, y) != 0 mod N
    # (a k off by one is test_random_check_reports_failure)
    N, g = 5, 2
    honest, broken = HeisElement.__mul__, []

    def mul(self, other):
        if (abs(self.k) >= 2 and not broken
                and heis.omega(self.coords, other.coords) % N):
            broken.append(self)
            return honest(other, self)
        return honest(self, other)

    monkeypatch.setattr(HeisElement, "__mul__", mul)
    report = sch.verify_schrodinger_rep(N, g, rng=np.random.default_rng(7))
    assert len(broken) == 1
    assert [name for name, ok in report if not ok] == ["random[200]"]


def test_random_check_builds_no_dense_matrix(monkeypatch):
    # neither the generator checks nor the random products build a matrix
    calls = []
    dense = sch.schrodinger_matrix

    def counted(*args):
        calls.append(args)
        return dense(*args)

    monkeypatch.setattr(sch, "schrodinger_matrix", counted)
    for N, g in [(3, 1), (4, 2)]:
        sch.verify_schrodinger_rep(N, g)
        sch.verify_schrodinger_rep(N, g, rng=np.random.default_rng(3))
    assert calls == []


def plain(report):
    return [(name, bool(ok)) for name, ok in report]


@pytest.mark.parametrize("seed, tol", [(None, 1e-10), (11, 1e-10), (None, 1e-12),
                                       (11, 1e-12), (None, 0.0)])
@pytest.mark.parametrize("N, g", [(N, g) for g in (1, 2, 3) for N in range(2, 9)])
def test_verifier_matches_dense_oracle(N, g, seed, tol):
    # tol = 0 fails every generator check on both sides: it pins that each
    # check compares against tol (random[200] keeps its fixed 1e-9)
    def run(verify):
        return plain(verify(N, g, tol, None if seed is None else np.random.default_rng(seed)))

    report = run(sch.verify_schrodinger_rep)
    assert report == run(dense_verify_schrodinger_rep)
    assert [name for name, _ in report] == report_names(g)[:len(report)]
    assert len(report) == len(report_names(g)) - (seed is None)


def corrupt_random_k(honest, broken):
    # k off by one in the first product whose left factor has |k| >= 2: a
    # random pair, since the generator checks only multiply k in {0, 1}
    def mul(self, other):
        out = honest(self, other)
        if abs(self.k) >= 2 and not broken:
            broken.append(self)
            return HeisElement(out.genus, out.k + 1, out.coords)
        return out
    return mul


def swap_random(honest, broken, N=5):
    # y x for the first random pair whose swap shows: omega(x, y) != 0 mod N
    def mul(self, other):
        if (abs(self.k) >= 2 and not broken
                and heis.omega(self.coords, other.coords) % N):
            broken.append(self)
            return honest(other, self)
        return honest(self, other)
    return mul


def corrupt_generator_product(honest, broken, g=2):
    # a1 b2 with its central exponent off by one: a generator pair
    a1, b2 = heis.generator(g, "a1"), heis.generator(g, "b2")

    def mul(self, other):
        out = honest(self, other)
        if self == a1 and other == b2:
            broken.append(self)
            return HeisElement(out.genus, out.k + 1, out.coords)
        return out
    return mul


@pytest.mark.parametrize("fault, want", [
    (corrupt_random_k, ["random[200]"]),
    (swap_random, ["random[200]"]),
    (corrupt_generator_product, ["hom[a1,b2]"]),
])
def test_verifier_faults_match_dense_oracle(monkeypatch, fault, want):
    N, g = 5, 2
    reports = []
    for verify in (sch.verify_schrodinger_rep, dense_verify_schrodinger_rep):
        broken = []
        monkeypatch.setattr(HeisElement, "__mul__", fault(HeisElement.__mul__, broken))
        reports.append(plain(verify(N, g, 1e-10, np.random.default_rng(7))))
        monkeypatch.undo()
        assert len(broken) == 1
    assert reports[0] == reports[1]
    assert [name for name, ok in reports[0] if not ok] == want


def verifier_bytes(N, g, rng):
    """What the verifier's size check counts: 24 bytes (an int64 column and
    a complex phase) per state for each of x, y and xy of every pair."""
    return 3 * 24 * ((2 * g + 1) ** 2 + (200 if rng else 0)) * N ** g


# the largest admitted N at g = 1, 2, 3, without and with a random generator
VERIFIER_LIMITS = {False: [(828504, 1), (546, 2), (53, 3)],
                   True: [(35677, 1), (182, 2), (31, 3)]}


def test_verifier_size_cap(monkeypatch):
    for rng, limits in VERIFIER_LIMITS.items():
        for N, g in limits:
            assert verifier_bytes(N, g, rng) <= sch.MAX_DENSE_BYTES
            assert verifier_bytes(N + 1, g, rng) > sch.MAX_DENSE_BYTES
    # N=2 is refused from genus 14 on; genus 13 is admitted
    assert verifier_bytes(2, 13, False) <= sch.MAX_DENSE_BYTES
    assert verifier_bytes(2, 14, False) > sch.MAX_DENSE_BYTES
    refused = [(N + 1, g, rng) for rng, limits in VERIFIER_LIMITS.items()
               for N, g in limits]
    refused += [(2, 14, False), (2, 16, False), (2, 10 ** 6, False), (10 ** 6, 3, False),
                (10 ** 6, 3, True)]
    # each refused before any array is built
    tracemalloc.start()
    try:
        for N, g, rng in refused:
            tracemalloc.reset_peak()
            with pytest.raises(ValueError, match="verifier rows"):
                sch.verify_schrodinger_rep(
                    N, g, rng=np.random.default_rng(0) if rng else None)
            assert tracemalloc.get_traced_memory()[1] < 2 ** 20, (N, g, rng)
    finally:
        tracemalloc.stop()
    # the verifier counts exactly verifier_bytes: with a cap of that many
    # bytes, N is admitted and N + 1 is refused
    for N, g, rng in [(40, 2, False), (7, 3, True)]:
        monkeypatch.setattr(sch, "MAX_DENSE_BYTES", verifier_bytes(N, g, rng))
        sch.verify_schrodinger_rep(N, g, rng=np.random.default_rng(0) if rng else None)
        with pytest.raises(ValueError, match="verifier rows"):
            sch.verify_schrodinger_rep(N + 1, g, rng=np.random.default_rng(0) if rng else None)


@pytest.mark.parametrize("N, g", [(120, 1), (11, 2), (5, 3), (4096, 1), (64, 2), (16, 3)])
def test_verifier_working_set_within_budget(N, g):
    # the count the size cap uses covers what the verifier holds at once; the
    # interpreter's own allocations (about 0.1 MB) outweigh the count without
    # the random products below N^g = 4096 or so
    for rng in [True, False] if N ** g >= 4096 else [True]:
        tracemalloc.start()
        try:
            report = sch.verify_schrodinger_rep(
                N, g, rng=np.random.default_rng(1) if rng else None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(ok for _, ok in report)
        assert peak <= verifier_bytes(N, g, rng), rng


@pytest.mark.parametrize("N, g, word", [(3, 1, "a"), (7, 1, "ab"), (4, 2, "bab"),
                                        (5, 2, "ab"), (3, 3, "ab")])
def test_weil_residual_matches_dense_formula(N, g, word):
    phi = sp_word(g, word)
    U = sch.weil_intertwiner(N, g, phi)
    assert dense_weil_residual(N, g, phi, U) <= 1e-10
    assert abs(sch.weil_residual(N, g, phi, U) - dense_weil_residual(N, g, phi, U)) <= 1e-12
    # a perturbed U, so that neither residual is 0
    rng = np.random.default_rng(N + g)
    V = U + 1e-3 * (rng.standard_normal(U.shape) + 1j * rng.standard_normal(U.shape))
    want = dense_weil_residual(N, g, phi, V)
    assert want > 1e-4
    assert abs(sch.weil_residual(N, g, phi, V) - want) <= 1e-12


def test_rep_property_random_pairs():
    rng = np.random.default_rng(31)
    for _ in range(200):
        N = int(rng.integers(2, 7))
        g = int(rng.integers(1, 3))
        x = HeisElement(g, int(rng.integers(-6, 7)),
                        tuple(int(rng.integers(-5, 6)) for _ in range(2 * g)))
        y = HeisElement(g, int(rng.integers(-6, 7)),
                        tuple(int(rng.integers(-5, 6)) for _ in range(2 * g)))
        lhs = sch.schrodinger_matrix(N, g, x) @ sch.schrodinger_matrix(N, g, y)
        rhs = sch.schrodinger_matrix(N, g, x * y)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_matrix_matches_loop_reference():
    rng = np.random.default_rng(33)
    for _ in range(200):
        N = int(rng.integers(2, 8))
        g = int(rng.integers(1, 4 if N <= 3 else 3))
        h = HeisElement(g, int(rng.integers(-40, 41)),
                        tuple(int(c) for c in rng.integers(-30, 31, 2 * g)))
        assert np.abs(sch.schrodinger_matrix(N, g, h)
                      - loop_schrodinger_matrix(N, g, h)).max() < 1e-9
    # exponents past int64 are reduced exactly before any array is built
    big = HeisElement(2, 7 + 6 * 10 ** 30, (3 + 3 * 10 ** 25, -4, 5, 2 - 6 * 10 ** 40))
    small = HeisElement(2, 7, (3, -4, 5, 2))
    assert np.abs(sch.schrodinger_matrix(3, 2, big)
                  - sch.schrodinger_matrix(3, 2, small)).max() < 1e-12


@pytest.mark.parametrize("g", [1, 2, 3])
def test_matrix_phases_bitwise_equal_per_entry_exp(g):
    # the phase table gives exactly the floats of np.exp at each exponent
    rng = np.random.default_rng(40 + g)
    for N in range(2, 14):
        h = HeisElement(g, int(rng.integers(-60, 61)),
                        tuple(int(c) for c in rng.integers(-40, 41, 2 * g)))
        assert np.array_equal(sch.schrodinger_matrix(N, g, h), exp_schrodinger_matrix(N, g, h))


def test_cached_arrays_are_read_only():
    for N, g in [(2, 1), (5, 2), (3, 3)]:
        for a in sch._layout(N, g):
            with pytest.raises(ValueError):
                a[0] = 0
            with pytest.raises(ValueError):
                a += 0
    assert sch._layout.cache_info().maxsize <= 16


def test_cache_keeps_no_large_array():
    # the N^(2g) states of a Weil solve are per call: once it returns, only
    # the small per-(N, g) arrays stay (the N^(2g) states alone are 12.5 MB)
    phi = sp_word(2, "ab")
    sch._layout.cache_clear()
    tracemalloc.start()
    try:
        sch.weil_intertwiner(25, 2, phi)
        assert tracemalloc.get_traced_memory()[0] < 2 ** 20
    finally:
        tracemalloc.stop()
    assert sch._layout.cache_info().currsize == 1


def test_depends_on_word_form_reduction():
    rng = np.random.default_rng(32)
    for _ in range(100):
        N = int(rng.integers(2, 7))
        k = int(rng.integers(-9, 10))
        l = int(rng.integers(-6, 7))
        m = int(rng.integers(-6, 7))
        h = HeisElement(1, k, (l, m))
        kappa = h.k - heis.quadratic(h.coords)
        lr, mr = l % N, m % N
        reduced = HeisElement(1, kappa % (2 * N) + lr * mr, (lr, mr))
        assert np.abs(sch.schrodinger_matrix(N, 1, h)
                      - sch.schrodinger_matrix(N, 1, reduced)).max() < 1e-9


def test_weil_identity():
    U = sch.weil_intertwiner(3, 1, aut.identity_aut(1))
    assert np.abs(U - np.eye(3)).max() < 1e-10


def test_weil_rejects_delta():
    with pytest.raises(ValueError):
        sch.weil_intertwiner(3, 1, aut.twist_aut(1, "a"))


def test_weil_transvections():
    for N in (3, 4, 5):
        for kind in ("a", "b"):
            phi = sp_word(1, kind)
            U = sch.weil_intertwiner(N, 1, phi)
            assert sch.weil_residual(N, 1, phi, U) < 1e-10
            assert np.abs(U @ U.conj().T - np.eye(N)).max() < 1e-10
            flat = U.reshape(-1)
            pivot = flat[np.abs(flat) > 1e-8][0]
            assert abs(pivot.imag) < 1e-10 and pivot.real > 0


def test_weil_genus2():
    phi = sp_word(2, "a")
    U = sch.weil_intertwiner(3, 2, phi)
    assert sch.weil_residual(3, 2, phi, U) < 1e-10


def test_cocycle():
    phi_a = sp_word(1, "a")
    phi_b = sp_word(1, "b")
    for N in (3, 4, 5):
        lam = sch.weil_cocycle(N, 1, phi_a, phi_b)
        assert abs(abs(lam) - 1) < 1e-10
    assert abs(sch.weil_cocycle(4, 1, phi_a, aut.identity_aut(1)) - 1) < 1e-10
    lam = sch.weil_cocycle(5, 1, phi_a, phi_a.inverse())
    assert abs(abs(lam) - 1) < 1e-10


def test_matrix_json():
    U = sch.schrodinger_matrix(2, 1, heis.u(1))
    data = sch.matrix_to_json(U)
    assert len(data) == 2 and len(data[0]) == 2
    assert abs(data[0][0][0] - np.cos(np.pi / 2)) < 1e-12


@pytest.mark.parametrize("N, g, words", [
    *[(N, 1, WORDS) for N in (2, 3, 4, 5, 6, 7, 11, 13)],
    *[(N, 2, WORDS) for N in (2, 3, 4)],
    (5, 2, ["ab"]),
])
def test_weil_matches_svd_reference(N, g, words):
    for word in words:
        phi = sp_word(g, word)
        U = sch.weil_intertwiner(N, g, phi)
        assert np.abs(U - svd_weil_intertwiner(N, g, phi)).max() <= 1e-9, word


@pytest.mark.parametrize("N, g", [(7, 2), (3, 3)])
def test_weil_intertwines_random_elements(N, g):
    phi = sp_word(g, "ab")
    lifted = sch.finite_lift(phi, N)
    U = sch.weil_intertwiner(N, g, phi)
    assert np.abs(U @ U.conj().T - np.eye(N ** g)).max() < 1e-10
    assert sch.weil_residual(N, g, phi, U) <= 1e-10
    rng = np.random.default_rng(N * 10 + g)
    for _ in range(50):
        h = HeisElement(g, int(rng.integers(-20, 21)),
                        tuple(int(c) for c in rng.integers(-9, 10, 2 * g)))
        lhs = U @ sch.schrodinger_matrix(N, g, h)
        rhs = sch.schrodinger_matrix(N, g, lifted.apply(h)) @ U
        assert np.abs(lhs - rhs).max() < 1e-10


def test_weil_time():
    phi = sp_word(2, "ab")
    sch.weil_intertwiner(7, 2, phi)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        sch.weil_intertwiner(7, 2, phi)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1


def test_weil_memory():
    # a (2g+1) N^(2g) x N^(2g) system at N=7 g=2 would be about 461 MB
    tracemalloc.start()
    try:
        sch.weil_intertwiner(7, 2, sp_word(2, "ab"))
        assert tracemalloc.get_traced_memory()[1] < 64 * 2 ** 20
    finally:
        tracemalloc.stop()


def test_cocycle_genus2():
    lam = sch.weil_cocycle(3, 2, sp_word(2, "a"), sp_word(2, "b"))
    assert abs(abs(lam) - 1) < 1e-10
