"""Shared random generators and reference oracles for the test suite."""

import itertools
import operator

import numpy as np
import pytest

from heisencalc import aut, heis, repmatrix as rm, schrodinger as sch
from heisencalc.heis import HeisElement
from heisencalc.ring import HeisPolynomial


@pytest.fixture
def cold_constants():
    """The genus-1 matrix constants, each built once per process, cleared:
    a test that counts the compositions building them counts them all,
    whatever ran before it."""
    for constant in (rm.matrix_Ta, rm.matrix_Tb, rm.matrix_TaTbTa, rm.matrix_boundary_twist):
        constant.cache_clear()


def reference_twist_aut(genus, kind, index=1):
    """The automorphism of a standard twist, written out by hand: along a_i,
    delta is -1 on b_i and S sends b_i -> b_i - a_i; along b_i, delta is +1
    on a_i and S sends a_i -> a_i + b_i."""
    n = 2 * genus
    delta = [0] * n
    S = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ia, ib = 2 * (index - 1), 2 * (index - 1) + 1
    if kind == "a":
        delta[ib] = -1
        S[ia][ib] = -1   # image of b_i picks up -a_i
    else:
        delta[ia] = 1
        S[ib][ia] = 1    # image of a_i picks up +b_i
    return aut.HeisAutomorphism(genus, tuple(delta), tuple(tuple(r) for r in S))


def reference_generator(genus, name, e):
    """One letter's element, by index arithmetic on its name, not through
    heis.letter_slots: 'u', 'a<i>' or 'b<i>', 'a'/'b' meaning index 1."""
    if name == "u":
        return heis.u(genus, e)
    if name[:1] not in ("a", "b") or not heis.NAME.fullmatch(name):
        raise ValueError(f"unknown generator {name!r}")
    i = int(name[1:] or 1)
    if not 1 <= i <= genus:
        raise ValueError(f"index {i} out of range for genus {genus}")
    coords = [0] * (2 * genus)
    coords[2 * i - 2 + (name[0] == "b")] = e
    return HeisElement(genus, 0, tuple(coords))


def reference_from_word(genus, word):
    """A word multiplied out one letter at a time: the product, from the
    identity, of one reference_generator(genus, name, e) element per letter."""
    result = heis.identity(genus)
    for name, e in word:
        result = result * reference_generator(genus, name, e)
    return result


def block_count_morita_d(i, word):
    """Reference handle-i self-linking count, Morita's block formula: project
    the word to (a_i, b_i), free-reduce it, split it into single letters, then
    greedily into blocks a_i^nu b_i^mu with nu, mu in {-1, 0, 1}, and return
    sum_{j,k} iota_{jk} nu_j mu_k with iota_{jk} = +1 for j <= k, -1 otherwise.
    Quadratic in the number of letters: short words only."""
    target_a, target_b = f"a{i}", f"b{i}"
    for name, _ in word:
        if not (name[0] in "ab" and name[1:].isdigit()):
            raise ValueError(f"bad letter {name!r} in free-group word")
    reduced = []
    for name, exp in word:
        if name not in (target_a, target_b) or exp == 0:
            continue
        if reduced and reduced[-1][0] == name:
            merged = reduced.pop()[1] + exp
            if merged:
                reduced.append((name, merged))
        else:
            reduced.append((name, exp))
    letters = [(name, 1 if exp > 0 else -1) for name, exp in reduced
               for _ in range(abs(exp))]
    nus, mus = [], []
    pos = 0
    while pos < len(letters):
        if letters[pos][0] == target_a:
            nus.append(letters[pos][1])
            pos += 1
            if pos < len(letters) and letters[pos][0] == target_b:
                mus.append(letters[pos][1])
                pos += 1
            else:
                mus.append(0)
        else:
            nus.append(0)
            mus.append(letters[pos][1])
            pos += 1
    return sum((1 if j <= k else -1) * nu * mu
               for j, nu in enumerate(nus) for k, mu in enumerate(mus))


def random_twist_aut(rng, genus):
    """Random composite of standard twists and an inner automorphism."""
    phi = aut.identity_aut(genus)
    for _ in range(rng.randint(0, 4)):
        t = aut.twist_aut(genus, rng.choice("ab"), rng.randint(1, genus))
        phi = phi.compose(t if rng.random() < 0.5 else t.inverse())
    h = HeisElement(genus, 0,
                    tuple(rng.randint(-2, 2) for _ in range(2 * genus)))
    return phi.compose(aut.inner_of(h))


def random_monomial_matrix(rng, genus, size):
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size):
            e = HeisElement(genus, rng.randint(-3, 3),
                            tuple(rng.randint(-2, 2) for _ in range(2 * genus)))
            row.append(HeisPolynomial.monomial(e, rng.choice((-1, 1))))
        rows.append(tuple(row))
    return rm.RepMatrix(genus, tuple(rows), aut.identity_aut(genus))


def loop_schrodinger_matrix(N, g, h):
    """Reference Schrodinger matrix, one Python loop step per state."""
    p, q = h.coords[::2], h.coords[1::2]
    states = list(itertools.product(range(N), repeat=g))
    index = {s: i for i, s in enumerate(states)}
    M = np.zeros((N ** g, N ** g), dtype=complex)
    central = np.exp(1j * np.pi * (h.k + sum(a * b for a, b in zip(p, q))) / N)
    for i, s in enumerate(states):
        phase = central * np.exp(2j * np.pi * sum(b * c for b, c in zip(q, s)) / N)
        M[i, index[tuple((c + a) % N for c, a in zip(s, p))]] = phase
    return M


def exp_schrodinger_matrix(N, g, h):
    """Reference Schrodinger matrix with each phase evaluated on its own:
    row s holds np.exp(1j * pi / N * e) in column s + p mod N, for the
    integer e = k + p.q + 2 q.s reduced mod 2N in Python."""
    p, q = h.coords[::2], h.coords[1::2]
    states = list(itertools.product(range(N), repeat=g))
    index = {s: i for i, s in enumerate(states)}
    M = np.zeros((N ** g, N ** g), dtype=complex)
    for i, s in enumerate(states):
        e = (h.k + sum(map(operator.mul, p, q)) + 2 * sum(map(operator.mul, q, s))) % (2 * N)
        M[i, index[tuple((c + a) % N for c, a in zip(s, p))]] = np.exp(1j * np.pi / N * e)
    return M


def svd_weil_intertwiner(N, g, phi):
    """Reference Weil intertwiner from a dense null space, for tests only.

    Stacks the intertwining conditions U pi(h) = pi(phi~ h) U over the
    generators h, with loop-built matrices, into one (2g+1) N^(2g) x N^(2g)
    system on vec(U), checks that its null space is one dimensional, and
    normalizes the null vector to a unitary whose first nonzero entry
    (row-major scan) is real and positive.  O(N^(6g)) work: small sizes only.
    """
    lifted = sch.finite_lift(phi, N)
    dim = N ** g
    eye = np.eye(dim)
    blocks = []
    for _, h in heis.generators(g):
        A = loop_schrodinger_matrix(N, g, h)
        B = loop_schrodinger_matrix(N, g, lifted.apply(h))
        # vec is row-major: vec(U A) = (I kron A^T) vec U, vec(B U) = (B kron I) vec U
        blocks.append(np.kron(eye, A.T) - np.kron(B, eye))
    _, svals, vh = np.linalg.svd(np.vstack(blocks), full_matrices=False)
    if svals[-1] > 1e-10 or svals[-2] < 1e-6:
        raise ArithmeticError(
            f"intertwiner space is not one dimensional "
            f"(smallest singular values {svals[-1]:.3e}, {svals[-2]:.3e})")
    U = vh[-1].conj().reshape(dim, dim) * np.sqrt(dim)
    flat = U.reshape(-1)
    pivot = flat[np.abs(flat) > 1e-8][0]
    return U * (abs(pivot) / pivot)


def dense_products_ok(N, g, xs, ys, xys):
    """Reference product check, one dense matrix product per triple: whether
    pi(x) pi(y) is within 1e-9 of pi(xy) in every entry."""
    return [np.abs(sch.schrodinger_matrix(N, g, x) @ sch.schrodinger_matrix(N, g, y)
                   - sch.schrodinger_matrix(N, g, xy)).max() < 1e-9
            for x, y, xy in zip(xs, ys, xys)]


def dense_verify_schrodinger_rep(N, g, tol=1e-10, rng=None):
    """Reference representation verifier on dense matrices: the same report
    as schrodinger.verify_schrodinger_rep (names, order and results), with
    every check one dense matrix product, np.linalg.inv for the commutators
    and dense_products_ok for the 200 random products.  O(g^2 N^(3g)) work:
    small sizes only."""
    report = []
    gens = heis.generators(g)
    mats = {name: sch.schrodinger_matrix(N, g, x) for name, x in gens}
    eye = np.eye(N ** g)
    for name, _ in gens:
        U = mats[name]
        report.append((f"unitary[{name}]",
                       np.abs(U @ U.conj().T - eye).max() < tol))
    for n1, x1 in gens:
        for n2, x2 in gens:
            lhs = mats[n1] @ mats[n2]
            rhs = sch.schrodinger_matrix(N, g, x1 * x2)
            report.append((f"hom[{n1},{n2}]", np.abs(lhs - rhs).max() < tol))
    for i in range(1, g + 1):
        A, B = mats[f"a{i}"], mats[f"b{i}"]
        comm = A @ B @ np.linalg.inv(A) @ np.linalg.inv(B)
        target = np.exp(2j * np.pi / N) * eye
        report.append((f"commutator[{i}]", np.abs(comm - target).max() < tol))
    if rng is not None:
        # the same draws as the verifier: k in [-5, 5], coords in [-4, 4]
        x, y = np.concatenate([rng.integers(-5, 6, size=(2, 200, 1)),
                               rng.integers(-4, 5, size=(2, 200, 2 * g))], axis=2)
        xs, ys = [[HeisElement(g, r[0], tuple(r[1:])) for r in side.tolist()]
                  for side in (x, y)]
        report.append(("random[200]", all(dense_products_ok(
            N, g, xs, ys, [a * b for a, b in zip(xs, ys)]))))
    return report


def dense_weil_residual(N, g, phi, U):
    """Reference Weil residual: max |U A - B U| over the generators h, with
    A = pi(h) and B = pi(phi~ h) as dense matrices."""
    lifted = sch.finite_lift(phi, N)
    worst = 0.0
    for _, h in heis.generators(g):
        A = sch.schrodinger_matrix(N, g, h)
        B = sch.schrodinger_matrix(N, g, lifted.apply(h))
        worst = max(worst, np.abs(U @ A - B @ U).max())
    return worst


def loop_fibre_mul(left, right, modulus=0):
    """Reference fibre product, term pair by term pair: (k, x)(l, y) is
    (k + l + omega(x, y), x + y), omega always added, then every k reduced
    mod a nonzero modulus."""
    out = {}
    for x, fx in left.items():
        for y, fy in right.items():
            w = heis.omega(x, y)
            acc = out.setdefault(tuple(map(operator.add, x, y)), {})
            for k, c in fx.items():
                for l, d in fy.items():
                    key = (k + l + w) % modulus if modulus else k + l + w
                    acc[key] = acc.get(key, 0) + c * d
    out = {z: {k: c for k, c in f.items() if c} for z, f in out.items()}
    return {z: f for z, f in out.items() if f}


def dense_mat_mul(A, B):
    """Reference matrix product: every (i, j, k), zero entries included,
    each product by loop_fibre_mul."""
    zero = HeisPolynomial.zero(A.genus)
    entries = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = zero
            for k in range(A.cols):
                acc = acc + HeisPolynomial._of(A.genus, loop_fibre_mul(
                    A.entries[i][k].fibres, B.entries[k][j].fibres))
            row.append(acc)
        entries.append(tuple(row))
    return tuple(entries)


def _add_coords(x, y):
    return tuple(map(operator.add, x, y))


def reference_quotient(name, N=0):
    """Reference quotient ring 'moriyama', 'abelian' or 'torsion' (with N), one
    key per term and one key product per pair of terms: (key of a group
    element, product of two keys)."""
    if name == "moriyama":
        return (lambda e: (e.k - heis.quadratic(e.coords)) % 2,
                lambda x, y: (x + y) % 2)
    if name == "abelian":
        return lambda e: e.coords, _add_coords
    return (lambda e: (e.k % N, e.coords),
            lambda x, y: ((x[0] + y[0] + heis.omega(x[1], y[1])) % N,
                          _add_coords(x[1], y[1])))


def _reference_sum(pairs):
    out = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def reference_specialize(p, name, N=0):
    """{key: coeff} of the image of p, one key per term."""
    key, _ = reference_quotient(name, N)
    return _reference_sum((key(e), c) for e, c in p.terms.items())


def reference_spec_mul(s, t, name, N=0):
    """{key: coeff} of s t for {key: coeff} s and t, one key product per pair."""
    _, mul = reference_quotient(name, N)
    return _reference_sum((mul(k1, k2), c1 * c2)
                          for k1, c1 in s.items() for k2, c2 in t.items())


def reference_spec_add(s, t):
    return _reference_sum(list(s.items()) + list(t.items()))
