"""Matrices of twisted module maps over the Heisenberg group ring.

A RepMatrix acts on column coordinate vectors of a free right module.  It
carries a sourceTwist automorphism tau recording that the map is linear only
after the module action on the source is precomposed with tau.  Shifting by
tau multiplies nothing; it applies tau^-1 entrywise.  Two maps compose by

    Mat(g o f) = Mat(g) . g_H(Mat(f)),

where g_H is the automorphism induced by g (the inverse of the sourceTwist
stored on Mat(g)).

The module ships the explicit twist matrices for the genus-1 two-point
module (basis w(a), w(b), v(a,b)), the boundary twist computed as a 4-fold
shifted product, each built once per process, and the higher genus
separating twist in block form.
"""

import functools
import itertools

from . import aut, heis, ring
from .heis import HeisElement
from .ring import HeisPolynomial, poly_latex


class RepMatrix(heis.Record):
    # entries: rows of tuples of HeisPolynomial; source_twist: HeisAutomorphism
    __slots__ = ("genus", "entries", "source_twist")

    def __init__(self, genus, entries, source_twist):
        if source_twist.genus != genus:
            raise ValueError("twist genus mismatch")
        cols = len(entries[0]) if entries else 0
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for p in row:
                if p.genus != genus:
                    raise ValueError("entry genus mismatch")
        self._init(genus, entries, source_twist)

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0

    def entry(self, i, j):
        return self.entries[i][j]

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "twist": self.source_twist.to_json(),
            "entries": [[p.to_json() for p in row] for row in self.entries],
        }

    def __str__(self):
        return matrix_str(self.entries)


def matrix_from_strings(genus, rows):
    """Build an untwisted RepMatrix from a list of lists of expression strings."""
    entries = tuple(tuple(ring.parse_poly(genus, s) for s in row) for row in rows)
    return RepMatrix(genus, entries, aut.identity_aut(genus))


def identity_matrix(genus, size):
    one, zero = HeisPolynomial.one(genus), HeisPolynomial.zero(genus)
    entries = tuple(tuple(one if i == j else zero for j in range(size))
                    for i in range(size))
    return RepMatrix(genus, entries, aut.identity_aut(genus))


def mat_mul(A, B):
    """Matrix product of the underlying entry arrays, over nonzero entries
    only: each column of A and each row of B is listed once as its nonzero
    entries, and ring.fibre_mat_mul forms each entry as one sum."""
    if A.cols != B.rows:
        raise ValueError("dimension mismatch")
    if A.genus != B.genus:
        raise ValueError("genus mismatch")
    a_columns, b_rows = ([[(i, e.fibres) for i, e in enumerate(line) if e.fibres] for line in lines]
                         for lines in (zip(*A.entries), B.entries))
    zero = HeisPolynomial.zero(A.genus)
    entries = []
    for sums in ring.fibre_mat_mul(a_columns, b_rows, A.rows):
        row = [zero] * B.cols
        for j, f in sums.items():
            row[j] = HeisPolynomial._of(A.genus, f)
        entries.append(tuple(row))
    return tuple(entries)


def shift_matrix(M, tau):
    """Precompose the source action with tau: applies tau^-1 entrywise; the
    identity leaves M as it is."""
    if tau.is_identity():
        return M
    inv = tau.inverse()
    entries = tuple(tuple(p if p.is_zero() else ring.aut_apply_poly(inv, p) for p in row)
                    for row in M.entries)
    return RepMatrix(M.genus, entries, M.source_twist.compose(tau))


def compose_twisted(Fg, Ff):
    """Matrix of the composite g o f: Mat(g) . g_H(Mat(f)).

    g_H, the automorphism induced by g, is the inverse of the sourceTwist
    stored on Fg, so g_H(Mat(f)) is Ff shifted by that sourceTwist.
    """
    shifted = shift_matrix(Ff, Fg.source_twist)
    return RepMatrix(Fg.genus, mat_mul(Fg, shifted), shifted.source_twist)


def matrix_inverse_entries(M):
    """Two-sided inverse of the plain entry matrix over the group ring.

    Gaussian elimination on the augmented rows [M | I], looking for
    single-term pivots with coefficient +-1 (units of the group ring);
    raises if none is available at some step.  Sufficient for the twist
    matrices shipped here.
    """
    n = M.rows
    if n != M.cols:
        raise ValueError("only square matrices are invertible")
    g = M.genus
    rows = [list(row) + list(unit) for row, unit in zip(M.entries, identity_matrix(g, n).entries)]
    for col in range(n):
        pivot = None
        for row in range(col, n):
            terms = [(k, x, c) for x, f in rows[row][col].fibres.items() for k, c in f.items()]
            if len(terms) == 1 and terms[0][2] in (1, -1):
                k, x, coeff = terms[0]
                pivot = (row, coeff, HeisElement(g, k, x))
                break
        if pivot is None:
            raise ValueError(f"no unit pivot in column {col}")
        prow, coeff, elem = pivot
        rows[col], rows[prow] = rows[prow], rows[col]
        inv = HeisPolynomial.monomial(elem.inverse(), coeff)
        rows[col] = [inv * p for p in rows[col]]
        for row in range(n):
            if row == col or rows[row][col].is_zero():
                continue
            factor = rows[row][col]
            rows[row] = [a - factor * b for a, b in zip(rows[row], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


def rep_matrix_inverse(M):
    """RepMatrix of the inverse mapping class.

    If M represents f with induced automorphism f_H (the inverse of its
    sourceTwist), the inverse map has matrix f_H^-1(Mat(f)^-1) and
    sourceTwist f_H, so that compose_twisted(M, rep_matrix_inverse(M)) is
    the identity with identity twist.
    """
    plain = RepMatrix(M.genus, matrix_inverse_entries(M), aut.identity_aut(M.genus))
    return shift_matrix(plain, M.source_twist.inverse())


def specialize_matrix(M, target, order=0):
    """Entrywise image in ring.quotient(target, order); returns a list of lists."""
    q = ring.quotient(target, order)
    return [[ring.specialize(p, q) for p in row] for row in M.entries]


def is_specialized_identity(rows):
    return all(p.is_one() if i == j else p.is_zero()
               for i, row in enumerate(rows) for j, p in enumerate(row))


# ---------------------------------------------------------------------------
# Basis bookkeeping.
# ---------------------------------------------------------------------------

# Rank of the first handle's exponents (l1, m1) in the n = 2 block order.
_FIRST_HANDLE_ORDER = {(2, 0): 0, (0, 2): 1, (1, 1): 2, (1, 0): 3, (0, 1): 4, (0, 0): 5}


def basis_enumerate(g, n):
    """Ordered multi-indices (weak compositions of n into 2g parts).

    The order is lexicographic, largest first.  For n = 2 it is then stably
    sorted into the block order used by the explicit matrices: w(a1), w(b1),
    v(a1, b1), then v(a1, e) for e over a2, b2, ..., bg, then v(b1, e)
    likewise, then the indices not involving the first handle.
    """
    if g < 1 or n < 2:
        raise ValueError("need g >= 1 and n >= 2")
    # count vectors of the sorted n-multisets of slots, which come largest first
    slots = range(2 * g)
    out = [tuple(map(c.count, slots))
           for c in itertools.combinations_with_replacement(slots, n)]
    if n == 2:
        out.sort(key=lambda index: _FIRST_HANDLE_ORDER[index[:2]])
    return out


# ---------------------------------------------------------------------------
# Built-in matrices.
# ---------------------------------------------------------------------------

@functools.cache
def fixture_matrix(name):
    """Transcribed genus-1 reference matrix by name, as a plain (untwisted) RepMatrix."""
    import importlib.resources  # only the fixture matrices need these two
    import json
    text = (importlib.resources.files("heisencalc")
            .joinpath("fixtures/twist_matrices.json").read_text())
    return matrix_from_strings(1, json.loads(text)[name])


def _standard_twist(kind):
    """Twist along the a or b curve, genus 1, two points."""
    return RepMatrix(1, fixture_matrix("m_" + kind).entries, aut.twist_aut(1, kind).inverse())


@functools.cache
def matrix_Ta():
    return _standard_twist("a")


@functools.cache
def matrix_Tb():
    return _standard_twist("b")


@functools.cache
def matrix_TaTbTa():
    """The braid-relation composite Ta Tb Ta, folded once."""
    Ma = matrix_Ta()
    return functools.reduce(compose_twisted, (Ma, matrix_Tb(), Ma))


@functools.cache
def matrix_boundary_twist():
    """Boundary twist: four copies of the aba matrix shifted along powers
    of the induced order-4 automorphism, multiplied together."""
    return _boundary_twist(matrix_TaTbTa())


def _boundary_twist(aba):
    """The fourth twisted power of aba, which carries the identity twist (the
    boundary twist acts trivially on the group); that is asserted."""
    result = functools.reduce(compose_twisted, [aba] * 4)
    if not result.source_twist.is_identity():
        raise ArithmeticError("boundary twist acquired a nontrivial twist")
    return result


def verify_builtin_matrices():
    """[(label, ok)] checks of the genus-1 matrices: the braid relation
    Ta Tb Ta = Tb Ta Tb, aba and the boundary twist against their fixtures,
    and the boundary twist in the u-quotient.  The aba built for the braid
    relation is reused for the boundary twist."""
    Mb = matrix_Tb()
    aba, bab = matrix_TaTbTa(), functools.reduce(compose_twisted, (Mb, matrix_Ta(), Mb))
    Md = _boundary_twist(aba)
    return [("braid identity", aba.entries == bab.entries),
            ("braid identity matches fixture",
             aba.entries == fixture_matrix("action_aba").entries),
            ("boundary twist matches fixture",
             Md.entries == fixture_matrix("boundary_twist").entries),
            ("boundary twist dies in the u-quotient",
             is_specialized_identity(specialize_matrix(Md, "moriyama")))]


def embed_poly(p, genus):
    """Embed a genus-1 polynomial into the first handle at higher genus."""
    if p.genus == genus:
        return p
    if p.genus != 1:
        raise ValueError("can only embed genus-1 polynomials")
    pad = (0,) * (2 * genus - 2)
    return HeisPolynomial._of(genus, {x + pad: f for x, f in p.fibres.items()})


def matrix_separating_twist(g):
    """Block matrix of the twist along a separating curve around the first
    handle, at genus g >= 2 with two points.

    Blocks follow basis_enumerate(g, 2): the genus-1 boundary twist on the
    leading three indices and the genus-1 separating_blocks on each pair
    v(a1, e), v(b1, e), both embedded by embed_poly; the rest is the identity.
    """
    if g < 2:
        raise ValueError("separating twist needs genus >= 2")
    size = len(basis_enumerate(g, 2))
    mid = 2 * g - 2
    zero, one = HeisPolynomial.zero(g), HeisPolynomial.one(g)
    entries = [[zero] * size for _ in range(size)]
    blocks = [(matrix_boundary_twist(), (0, 1, 2))]
    blocks += [(fixture_matrix("separating_blocks"), (3 + t, 3 + mid + t)) for t in range(mid)]
    for block, at in blocks:
        for i, row in zip(at, block.entries):
            for j, p in zip(at, row):
                entries[i][j] = embed_poly(p, g)
    for i in range(3 + 2 * mid, size):
        entries[i][i] = one
    return RepMatrix(g, tuple(tuple(row) for row in entries),
                     aut.identity_aut(g))


# ---------------------------------------------------------------------------
# Untwisting.
# ---------------------------------------------------------------------------

def untwist(M, h):
    """Remove an inner sourceTwist by right-multiplying entries by h.

    Requires sourceTwist(M) = inner_of(h)^-1.  The results compose as an
    honest (untwisted) representation: untwist(M1 o M2) equals
    untwist(M1) . untwist(M2) with h values multiplied.
    """
    if M.source_twist != aut.inner_of(h).inverse():
        raise ValueError("sourceTwist is not the inverse inner automorphism of h")
    return RepMatrix(M.genus, scalar_mul(M, h).entries, aut.identity_aut(M.genus))


def scalar_mul(M, h):
    """Entrywise right multiplication by a group element."""
    entries = tuple(tuple(p * h for p in row) for row in M.entries)
    return RepMatrix(M.genus, entries, M.source_twist)


# ---------------------------------------------------------------------------
# Text and LaTeX export.
# ---------------------------------------------------------------------------

def matrix_str(rows):  # of a RepMatrix, or of a specialized one
    return "\n".join("[" + ", ".join(map(str, row)) + "]" for row in rows)


def matrix_latex(M):  # a RepMatrix, or the rows of a specialized one
    rows = [" & ".join(poly_latex(p) for p in row) for row in getattr(M, "entries", M)]
    return "\\begin{pmatrix}\n" + " \\\\\n".join(rows) + "\n\\end{pmatrix}"
