"""Finite Schrodinger representations and numerical Weil intertwiners.

The group acts unitarily on functions on (Z/N)^g: the element with central
exponent k and coordinates p, q (p over the a generators, q over the b
generators) acts by

    [pi(h) psi](s) = exp(i pi (k + p.q) / N) exp(2 i pi q.s / N) psi(s + p).

Everything here is floating point with explicit tolerances; the intertwiner
for a symplectic automorphism is found as the null space of a stacked linear
system and is checked to be one dimensional before use.  Dense arrays above
MAX_DENSE_BYTES are refused before anything is allocated.
"""

import itertools

import numpy as np

from . import heis
from .aut import HeisAutomorphism

# The Weil system at N=7 g=2 (about 461 MB) fits; at N=8 g=2 (1.3 GB) it does not.
MAX_DENSE_BYTES = 2 ** 29


def _check_dense(N, g, power, count=1):
    """Refuse N < 2, and count * N^power complex entries above MAX_DENSE_BYTES."""
    if N < 2:
        raise ValueError("N must be >= 2")
    # N^64 alone exceeds the budget, so a larger power need not be computed
    if 16 * count * N ** min(power, 64) > MAX_DENSE_BYTES:
        raise ValueError(f"N={N}, genus {g}: dense array over {MAX_DENSE_BYTES} bytes")


def _states(N, g):
    return list(itertools.product(range(N), repeat=g))


def schrodinger_matrix(N, g, h):
    """Unitary matrix of a group element on C^(N^g).

    Row index is the evaluation point s, column index the shifted point
    s + p mod N, so that matrices multiply in the same order as group
    elements.
    """
    _check_dense(N, g, 2 * g)
    if h.genus != g:
        raise ValueError("genus mismatch")
    p, q = h.coords[::2], h.coords[1::2]
    states = _states(N, g)
    index = {s: i for i, s in enumerate(states)}
    dim = N ** g
    M = np.zeros((dim, dim), dtype=complex)
    central = np.exp(1j * np.pi * (h.k + sum(a * b for a, b in zip(p, q))) / N)
    for i, s in enumerate(states):
        phase = central * np.exp(2j * np.pi * sum(b * c for b, c in zip(q, s)) / N)
        target = tuple((c + a) % N for c, a in zip(s, p))
        M[i, index[target]] = phase
    return M


def finite_lift(phi, N):
    """Correct a symplectic automorphism so it descends to the finite model.

    The matrices only depend on the word normal form of an element reduced
    mod (2N, N), and the central phase involves the quadratic form p.q,
    which a symplectic map does not preserve.  For odd N the map
    (k, x) -> (k, Sx) therefore fails to act on the finite quotient; adding
    N times the parity defect of the quadratic form to the central exponent
    repairs it.  For even N no correction is needed.
    """
    if N % 2 == 0:
        return phi
    # the image S e_j of a basis vector is column j of S; the quadratic form
    # vanishes on e_j, so the defect is that of S e_j alone
    delta = tuple(N * (heis.quadratic(col) % 2) for col in zip(*phi.S))
    return HeisAutomorphism(phi.genus, delta, phi.S)


def verify_schrodinger_rep(N, g, tol=1e-10, rng=None):
    """Check the representation property and the central commutator phase.

    Returns a list of (description, bool).  Covers all generator pairs,
    unitarity of the generator images, and the commutator of each a_i, b_i
    pair landing on exp(2 i pi / N) times the identity.  With rng, 200
    random products are checked too and reported as the one entry
    'random[200]', true only if all of them pass.
    """
    report = []
    gens = heis.generators(g)
    mats = {name: schrodinger_matrix(N, g, x) for name, x in gens}
    dim = N ** g
    eye = np.eye(dim)
    for name, _ in gens:
        U = mats[name]
        report.append((f"unitary[{name}]",
                       np.abs(U @ U.conj().T - eye).max() < tol))
    for n1, x1 in gens:
        for n2, x2 in gens:
            lhs = mats[n1] @ mats[n2]
            rhs = schrodinger_matrix(N, g, x1 * x2)
            report.append((f"hom[{n1},{n2}]", np.abs(lhs - rhs).max() < tol))
    for i in range(1, g + 1):
        A, B = mats[f"a{i}"], mats[f"b{i}"]
        comm = A @ B @ np.linalg.inv(A) @ np.linalg.inv(B)
        target = np.exp(2j * np.pi / N) * eye
        report.append((f"commutator[{i}]", np.abs(comm - target).max() < tol))
    if rng is not None:
        all_ok = True
        for _ in range(200):
            x = heis.HeisElement(g, int(rng.integers(-5, 6)),
                                 tuple(int(rng.integers(-4, 5))
                                       for _ in range(2 * g)))
            y = heis.HeisElement(g, int(rng.integers(-5, 6)),
                                 tuple(int(rng.integers(-4, 5))
                                       for _ in range(2 * g)))
            ok = np.abs(schrodinger_matrix(N, g, x) @ schrodinger_matrix(N, g, y)
                        - schrodinger_matrix(N, g, x * y)).max() < 1e-9
            all_ok = all_ok and ok
        report.append(("random[200]", all_ok))
    return report


def _generator_pairs(N, g, phi):
    """[(pi(h), pi(phi~ h))] over the generators h, with phi~ = finite_lift(phi, N)."""
    lifted = finite_lift(phi, N)
    return [(schrodinger_matrix(N, g, h), schrodinger_matrix(N, g, lifted.apply(h)))
            for _, h in heis.generators(g)]


def weil_intertwiner(N, g, phi, tol_null=1e-10, tol_gap=1e-6):
    """Unitary U with U pi(h) = pi(phi(h)) U for all h, up to phase.

    phi must have zero delta part (it must factor through the symplectic
    group).  The intertwining conditions over the group generators stack
    into one linear system on vec(U); the null space must be exactly one
    dimensional, otherwise an ArithmeticError reports both tested singular
    values.  The returned unitary is normalized so its first nonzero entry
    (row-major scan) is real and positive.  The system has (2g+1) N^(4g)
    entries; a ValueError refuses it above MAX_DENSE_BYTES.
    """
    if any(phi.delta):
        raise ValueError("automorphism must have zero delta part")
    if phi.genus != g:
        raise ValueError("genus mismatch")
    _check_dense(N, g, 4 * g, 2 * g + 1)
    dim = N ** g
    eye = np.eye(dim)
    blocks = []
    for A, B in _generator_pairs(N, g, phi):
        # vec is row-major: vec(U A) = (I kron A^T) vec U, vec(B U) = (B kron I) vec U
        blocks.append(np.kron(eye, A.T) - np.kron(B, eye))
    system = np.vstack(blocks)
    # only vh is read: the reduced SVD skips the left singular vectors
    _, svals, vh = np.linalg.svd(system, full_matrices=False)
    if svals[-1] > tol_null or svals[-2] < tol_gap:
        raise ArithmeticError(
            f"intertwiner space is not one dimensional "
            f"(smallest singular values {svals[-1]:.3e}, {svals[-2]:.3e})")
    U = vh[-1].conj().reshape(dim, dim)
    # scale to a unitary (the null vector has unit Frobenius norm)
    U = U * np.sqrt(dim)
    flat = U.reshape(-1)
    pivot = flat[np.abs(flat) > 1e-8][0]
    U = U * (abs(pivot) / pivot)
    if np.abs(U @ U.conj().T - np.eye(dim)).max() > 1e-8:
        raise ArithmeticError("normalized intertwiner is not unitary")
    return U


def weil_residual(N, g, phi, U):
    """Largest intertwining defect over the generators."""
    worst = 0.0
    for A, B in _generator_pairs(N, g, phi):
        worst = max(worst, np.abs(U @ A - B @ U).max())
    return worst


def weil_cocycle(N, g, phi1, phi2):
    """Phase lambda with U(phi1 o phi2) = lambda U(phi1) U(phi2)."""
    U1 = weil_intertwiner(N, g, phi1)
    U2 = weil_intertwiner(N, g, phi2)
    U12 = weil_intertwiner(N, g, phi1.compose(phi2))
    prod = U1 @ U2
    lam = np.trace(U12 @ prod.conj().T) / prod.shape[0]
    return lam


def matrix_to_json(U):
    return [[[float(z.real), float(z.imag)] for z in row] for row in U]
