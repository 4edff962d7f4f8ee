"""Finite Schrodinger representations and Weil intertwiners.

The group acts unitarily on functions on (Z/N)^g: the element with central
exponent k and coordinates p, q (p over the a generators, q over the b
generators) acts by

    [pi(h) psi](s) = exp(i pi (k + p.q) / N) exp(2 i pi q.s / N) psi(s + p).

So pi(h) is monomial; every matrix here is built from that form over int64
arrays of states s, indexed row-major, and Weil intertwiners are averages
over the finite group.  Arrays above MAX_DENSE_BYTES are refused up front.
"""

import numpy as np

from . import heis
from .aut import HeisAutomorphism

# 512 MiB: Schrodinger matrices up to N^g = 5792, the representation verifier
# up to N=2048 g=1, N=42 g=2, N=11 g=3, Weil up to N=39 g=2, N=11 g=3
MAX_DENSE_BYTES = 2 ** 29


def _check_dense(N, g, power, count=1):
    """Refuse N < 2, and count * N^power complex entries above MAX_DENSE_BYTES."""
    if N < 2:
        raise ValueError("N must be >= 2")
    # N^64 alone exceeds the budget, so a larger power need not be computed
    if 16 * count * N ** min(power, 64) > MAX_DENSE_BYTES:
        raise ValueError(f"N={N}, genus {g}: dense array over {MAX_DENSE_BYTES} bytes")


def _states(N, g):
    """The points of (Z/N)^g as the rows of an int64 array, in index order."""
    return np.indices((N,) * g).reshape(g, -1).T


def _monomial(N, k, p, q, s):
    """Column and phase of the one nonzero entry in row s of pi(k; p, q).

    The int64 arrays k (...,) and p, q, s (..., g) broadcast.  The column is
    the state s + p mod N, the phase exp(i pi (k + p.q + 2 q.s) / N).
    """
    e = (k + (q * (p + 2 * s)).sum(-1)) % (2 * N)
    return (s + p) % N, np.exp(1j * np.pi / N * e)


def _pack(N, elems):
    """Rows (k, coords) of the elements as an int64 array, reduced mod 2N.

    The phase depends on k, p, q mod 2N only; reducing first keeps int64 exact.
    """
    return np.array([[c % (2 * N) for c in (h.k, *h.coords)] for h in elems],
                    dtype=np.int64)


def _rows(N, g, x):
    """Column index and phase of the one entry in each row of pi(h), per h.

    x holds one small int64 row (k, coords) per h; both results have shape
    (len(x), N^g).
    """
    x = x[:, None]
    col, phase = _monomial(N, x[..., 0], x[..., 1::2], x[..., 2::2], _states(N, g))
    return col @ N ** np.arange(g - 1, -1, -1), phase


def schrodinger_matrix(N, g, h):
    """Unitary matrix of a group element on C^(N^g).

    Row index is the evaluation point s, column index the shifted point
    s + p mod N, so that matrices multiply in the same order as group
    elements.
    """
    _check_dense(N, g, 2 * g)
    if h.genus != g:
        raise ValueError("genus mismatch")
    col, phase = _rows(N, g, _pack(N, [h]))
    M = np.zeros((N ** g, N ** g), dtype=complex)
    M[np.arange(N ** g), col[0]] = phase[0]
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


def _products_ok(N, g, x, y, xy):
    """Per row, whether pi(x) pi(y) = pi(xy), on the monomial form.

    x, y and xy hold one element per row, as in _rows.  Row s of pi(x) pi(y)
    has its one entry in column col_y(col_x(s)), with phase
    ph_x(s) ph_y(col_x(s)): the column must be that of pi(xy) and the phase
    within 1e-9 of its phase.  No matrix is built.
    """
    ok = np.empty(len(x), dtype=bool)
    # pairs per pass: about 2^10 (pair, state) entries, so the arrays stay small
    step = max(1, 2 ** 10 // N ** g)
    for i in range(0, len(x), step):
        rows = slice(i, i + step)
        col_x, ph_x = _rows(N, g, x[rows])
        col_y, ph_y = _rows(N, g, y[rows])
        col, ph = _rows(N, g, xy[rows])
        ok[rows] = ((np.take_along_axis(col_y, col_x, 1) == col).all(1)
                    & (np.abs(ph_x * np.take_along_axis(ph_y, col_x, 1) - ph)
                       < 1e-9).all(1))
    return ok


def verify_schrodinger_rep(N, g, tol=1e-10, rng=None):
    """Check the representation property and the central commutator phase.

    Returns a list of (description, bool).  Covers all generator pairs,
    unitarity of the generator images, and the commutator of each a_i, b_i
    pair landing on exp(2 i pi / N) times the identity, on dense matrices
    and to tol.  With rng, 200 random products are checked too and reported
    as the one entry 'random[200]', true only if all of them pass; these are
    checked on the monomial form (column and phase of each row, no matrix),
    with the phases compared to a fixed 1e-9, not tol.  The working set,
    2g + 6 dense N^g x N^g arrays, is refused above MAX_DENSE_BYTES before
    any of them is built.
    """
    # the 2g generator matrices and at most 5.1 more arrays of their size at
    # once (tracemalloc at N^g = 120..1024, g = 1..9: 5.00 to 5.08), each
    # check's arrays released before the next check builds its own
    _check_dense(N, g, 2 * g, 2 * g + 6)
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
            del lhs, rhs  # released before the next check builds its own
    for i in range(1, g + 1):
        A, B = mats[f"a{i}"], mats[f"b{i}"]
        comm = A @ B @ np.linalg.inv(A) @ np.linalg.inv(B)
        target = np.exp(2j * np.pi / N) * eye
        report.append((f"commutator[{i}]", np.abs(comm - target).max() < tol))
        del comm, target
    if rng is not None:
        # rows (k, coords): k in [-5, 5], coords in [-4, 4]
        x, y = np.concatenate([rng.integers(-5, 6, size=(2, 200, 1)),
                               rng.integers(-4, 5, size=(2, 200, 2 * g))], axis=2)
        xy = _pack(N, [heis.HeisElement(g, a[0], tuple(a[1:]))
                       * heis.HeisElement(g, b[0], tuple(b[1:]))
                       for a, b in zip(x.tolist(), y.tolist())])
        report.append(("random[200]", bool(_products_ok(N, g, x, y, xy).all())))
    return report


def weil_intertwiner(N, g, phi):
    """Unitary U with U pi(h) = pi(phi~ h) U for all h, phi~ = finite_lift(phi, N).

    phi must have zero delta part and genus g, else a ValueError.  By Schur's
    lemma the sum T of pi(phi~(0, x)) E_0j pi(0, x)^-1 over x in (Z/N)^(2g) is
    N^g conj(U0[0, j]) U0 for a unitary intertwiner U0.  Each term is one
    entry (pi(h) is monomial), so a trial of j costs O(N^(2g)).  The first j
    with T[0, j] != 0 is U0's first nonzero entry; U is T scaled to make it
    real and positive.  A non-unitary U raises ArithmeticError; the working
    arrays, (3g + 8) N^(2g) complex entries, are refused above MAX_DENSE_BYTES.
    """
    if any(phi.delta):
        raise ValueError("automorphism must have zero delta part")
    if phi.genus != g:
        raise ValueError("genus mismatch")
    _check_dense(N, g, 2 * g, 3 * g + 8)
    lifted = finite_lift(phi, N)
    x = _states(N, 2 * g)
    p, q = x[:, ::2], x[:, 1::2]
    # phi~(0, x) = (delta.x, Sx); times E_0j it keeps column 0: row r = -(Sx)_a mod N
    y = x @ np.array(lifted.S).T % (2 * N)
    r = -y[:, ::2] % N
    _, left = _monomial(N, x @ np.array(lifted.delta), y[:, ::2], y[:, 1::2], r)
    for j, state in enumerate(_states(N, g)):
        # E_0j pi(0, x)^-1 keeps column j of pi(0, x), conjugated: row c = j - p
        c = (state - p) % N
        T = np.zeros((N,) * (2 * g), dtype=complex)
        np.add.at(T, (*r.T, *c.T), left * _monomial(N, 0, p, q, c)[1].conj())
        T = T.reshape(N ** g, -1)
        # T[0, j] = N^g |U0[0, j]|^2 is 0 or >= 1 (row 0 is flat on its support)
        if T[0, j].real > 0.5:
            break
    else:
        raise ArithmeticError("intertwiner average vanishes on row 0")
    U = T / np.sqrt(N ** g * T[0, j].real)
    if np.abs(U @ U.conj().T - np.eye(N ** g)).max() > 1e-8:
        raise ArithmeticError("normalized intertwiner is not unitary")
    return U


def weil_residual(N, g, phi, U):
    """Largest defect of U pi(h) = pi(phi~ h) U over the generators h.

    pi(h) is monomial, so U pi(h) is U with column s scaled by ph(s) and moved
    to col(s), and pi(phi~ h) U is U with rows gathered by col' and scaled by
    ph': O(N^(2g)) per generator, no matrix product.
    """
    lifted = finite_lift(phi, N)
    gens = [h for _, h in heis.generators(g)]
    cols, phases = _rows(N, g, _pack(N, gens))
    cols2, phases2 = _rows(N, g, _pack(N, [lifted.apply(h) for h in gens]))
    worst = 0.0
    for col, ph, col2, ph2 in zip(cols, phases, cols2, phases2):
        UA = np.empty_like(U)
        UA[:, col] = U * ph
        worst = max(worst, np.abs(UA - ph2[:, None] * U[col2]).max())
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
