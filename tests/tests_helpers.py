"""Shared random generators and reference oracles for the test suite."""

import itertools

import numpy as np

from heisencalc import aut, heis, repmatrix as rm, schrodinger as sch
from heisencalc.heis import HeisElement
from heisencalc.ring import HeisPolynomial


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
