"""Finite Schrodinger representations and Weil intertwiners.

The group acts unitarily on functions on (Z/N)^g: the element with central
exponent k and coordinates p, q (p over the a generators, q over the b
generators) acts by

    [pi(h) psi](s) = exp(i pi (k + p.q) / N) exp(2 i pi q.s / N) psi(s + p).

So pi(h) is monomial; every matrix and check here works on that form over
int64 arrays of states s, indexed row-major, and Weil intertwiners are
averages over the finite group.  The exponent of a phase is an integer mod
2N, so every phase is gathered from the 2N-entry table exp(i pi e / N).
Arrays above MAX_DENSE_BYTES are refused up front.
"""

import functools

import numpy as np

from . import heis
from .aut import HeisAutomorphism

# 512 MiB: Schrodinger matrices up to N^g = 5792, Weil up to N=39 g=2, N=11 g=3,
# the verifier up to N=546 g=2, N=53 g=3, N=2 g=13; the slowest admitted verify
# requests, `schrodinger --N 3 --genus 9` and `--N 2 --genus 13`, take about
# 1.5 s each (whole process, 2-core Xeon)
MAX_DENSE_BYTES = 2 ** 29


def _check_size(N, g, power, entry_bytes, what="dense array"):
    """Refuse N < 2, and N^power entries of entry_bytes each above MAX_DENSE_BYTES."""
    if N < 2:
        raise ValueError("N must be >= 2")
    # N^64 alone exceeds the budget, so a larger power need not be computed
    if entry_bytes * N ** min(power, 64) > MAX_DENSE_BYTES:
        raise ValueError(f"N={N}, genus {g}: {what} over {MAX_DENSE_BYTES} bytes")


def _states(N, g):
    """The points of (Z/N)^g as the rows of an int64 array, in index order."""
    return np.indices((N,) * g).reshape(g, -1).T


@functools.lru_cache(maxsize=16)
def _layout(N, g):
    """Read-only constants of (N, g): the states _states(N, g), the row-major
    weights N^(g-1), ..., N, 1, and the phase table exp(i pi e / N) for
    e = 0, ..., 2N - 1.  Kept for the last 16 pairs; the states of one pair
    are at most about 6.6 MB, where the verifier admits N = 828504 at genus 1."""
    arrays = (_states(N, g), N ** np.arange(g - 1, -1, -1),
              np.exp(1j * np.pi / N * np.arange(2 * N)))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _monomial(phases, k, p, q, s):
    """Column and phase of the one nonzero entry in row s of pi(k; p, q).

    phases is the table of _layout(N, g).  The int64 arrays k (...,) and
    p, q, s (..., g) broadcast.  The column is the state s + p mod N, the
    phase exp(i pi (k + p.q + 2 q.s) / N).
    """
    N = len(phases) // 2
    e = (k + (q * (p + 2 * s)).sum(-1)) % (2 * N)
    return (s + p) % N, phases[e]


def _pack(N, elems):
    """Rows (k, coords) of the elements as an int64 array, reduced mod 2N.

    The phase depends on k, p, q mod 2N only; reducing first keeps int64 exact.
    """
    return np.array([c % (2 * N) for h in elems for c in (h.k, *h.coords)],
                    dtype=np.int64).reshape(len(elems), -1)


def _rows(N, g, x):
    """Column index and phase of the one entry in each row of pi(h), per h.

    x holds one small int64 row (k, coords) per h; both results have shape
    (len(x), N^g).
    """
    states, weights, phases = _layout(N, g)
    x = x[:, None]
    col, phase = _monomial(phases, x[..., 0], x[..., 1::2], x[..., 2::2], states)
    return col @ weights, phase


def schrodinger_matrix(N, g, h):
    """Unitary matrix of a group element on C^(N^g).

    Row index is the evaluation point s, column index the shifted point
    s + p mod N, so that matrices multiply in the same order as group
    elements.
    """
    _check_size(N, g, 2 * g, 16)
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
    return HeisAutomorphism._of(phi.genus, delta, phi.S)


def _compose(x, y):
    """Rows (column, phase) of pi(x) pi(y) from those of pi(x) and pi(y): row
    s has column col_y(col_x(s)) and phase ph_x(s) ph_y(col_x(s))."""
    (col_x, ph_x), (col_y, ph_y) = x, y
    return np.take_along_axis(col_y, col_x, -1), ph_x * np.take_along_axis(ph_y, col_x, -1)


def _products_ok(N, g, x, y, xy, tol, table=None):
    """Per row of x, y and xy (packed elements), whether pi(x) pi(y) = pi(xy)
    on the monomial form: the same columns, and phases within tol.  With a
    table of rows (column, phase), x and y are indices into it instead."""
    ok = np.empty(len(x), dtype=bool)
    # pairs per pass: about 2^10 (pair, state) entries, so the arrays stay small
    step = max(1, 2 ** 10 // N ** g)
    for i in range(0, len(x), step):
        rows = slice(i, i + step)
        col, ph = _compose(*[_rows(N, g, f[rows]) if table is None
                             else tuple(t[f[rows]] for t in table) for f in (x, y)])
        col_xy, ph_xy = _rows(N, g, xy[rows])
        ok[rows] = (col == col_xy).all(1) & (np.abs(ph - ph_xy) < tol).all(1)
    return ok


def verify_schrodinger_rep(N, g, tol=1e-10, rng=None):
    """Check the representation property and the central commutator phase.

    Returns a list of (description, bool): unitarity of the generator images,
    every generator pair, and the commutator of each a_i, b_i pair landing on
    exp(2 i pi / N) times the identity, to tol.  With rng, 200 random
    products too, as the one entry 'random[200]', with phases to a fixed
    1e-9.  Every check reads the monomial form, O(g N^g) per pair, and the
    rows of x, y and xy of every pair (an int64 column and a complex phase
    per state) are refused above MAX_DENSE_BYTES before any is computed.
    """
    pairs = (2 * g + 1) ** 2 + (200 if rng is not None else 0)
    _check_size(N, g, g, 3 * 24 * pairs, "verifier rows")
    gens = heis.generators(g)
    x = _pack(N, [h for _, h in gens])
    col, ph = _rows(N, g, x)
    unitary = ((np.sort(col, 1) == np.arange(N ** g)).all(1)
               & (np.abs(np.abs(ph) ** 2 - 1) < tol).all(1))
    left, right = np.divmod(np.arange(len(gens) ** 2), len(gens))
    hom = _products_ok(N, g, left, right,
                       _pack(N, [x1 * x2 for _, x1 in gens for _, x2 in gens]), tol, (col, ph))
    # A B A^-1 B^-1 = c I as A B = c B A, every handle at once (a_i, b_i: rows 2i-1, 2i)
    A, B = (col[1::2], ph[1::2]), (col[2::2], ph[2::2])
    (col_ab, ph_ab), (col_ba, ph_ba) = _compose(A, B), _compose(B, A)
    comm = ((col_ab == col_ba).all(1)
            & (np.abs(ph_ab - np.exp(2j * np.pi / N) * ph_ba) < tol).all(1))
    report = [(f"unitary[{name}]", bool(ok)) for (name, _), ok in zip(gens, unitary)]
    report += [(f"hom[{gens[i][0]},{gens[j][0]}]", bool(h)) for i, j, h in zip(left, right, hom)]
    report += [(f"commutator[{i}]", bool(ok)) for i, ok in enumerate(comm, 1)]
    if rng is not None:
        # rows (k, coords): k in [-5, 5], coords in [-4, 4]
        x, y = np.concatenate([rng.integers(-5, 6, size=(2, 200, 1)),
                               rng.integers(-4, 5, size=(2, 200, 2 * g))], axis=2)
        xy = _pack(N, [heis.HeisElement(g, a[0], tuple(a[1:]))
                       * heis.HeisElement(g, b[0], tuple(b[1:]))
                       for a, b in zip(x.tolist(), y.tolist())])
        report.append(("random[200]", bool(_products_ok(N, g, x, y, xy, 1e-9).all())))
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
    _check_size(N, g, 2 * g, 16 * (3 * g + 8))
    lifted = finite_lift(phi, N)
    states, _, phases = _layout(N, g)
    x = _states(N, 2 * g)  # per call: the cache keeps no N^(2g) array
    p, q = x[:, ::2], x[:, 1::2]
    # phi~(0, x) = (delta.x, Sx); times E_0j it keeps column 0: row r = -(Sx)_a mod N
    y = x @ np.array(lifted.S).T % (2 * N)
    r = -y[:, ::2] % N
    _, left = _monomial(phases, x @ np.array(lifted.delta), y[:, ::2], y[:, 1::2], r)
    for j, state in enumerate(states):
        # E_0j pi(0, x)^-1 keeps column j of pi(0, x), conjugated: row c = j - p
        c = (state - p) % N
        T = np.zeros((N,) * (2 * g), dtype=complex)
        np.add.at(T, (*r.T, *c.T), left * _monomial(phases, 0, p, q, c)[1].conj())
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
    # tr(U12 (U1 U2)^H) / N^g, as one elementwise sum
    return np.vdot(U1 @ U2, U12) / len(U12)


def matrix_to_json(U):
    return [[[float(z.real), float(z.imag)] for z in row] for row in U]
