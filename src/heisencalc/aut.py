"""Orientation-preserving automorphisms of the discrete Heisenberg group.

Every automorphism fixing the central generator u is a pair (delta, S) with
delta a linear form on H_1 and S a symplectic matrix, acting by

    (k, x) -> (k + delta(x), S x).

The module also computes the crossed homomorphism delta from an action on the
fundamental group (the central exponent of each image word), inner
automorphisms and their witnesses, and ships the standard twist actions on
pi_1 as built-in tables.
"""

import functools

from . import heis
from .heis import HeisElement


def is_symplectic(S, genus):
    """S^T J S == J: omega(S e_i, S e_j) = omega(e_i, e_j) on the columns of S.

    omega(e_i, e_j) is (-1)^i when j = i ^ 1 and 0 otherwise; both sides are
    antisymmetric, so only i < j is checked.
    """
    cols = list(zip(*S))
    n = 2 * genus
    return all(heis.omega(cols[i], cols[j]) == (j == i ^ 1) * (-1) ** i
               for i in range(n) for j in range(i + 1, n))


class HeisAutomorphism(heis.Record):
    # delta: its values on a1, b1, ..., ag, bg; S: 2g x 2g integer rows
    __slots__ = ("genus", "delta", "S")

    def __init__(self, genus, delta, S):
        n = 2 * genus
        if len(delta) != n or len(S) != n or any(len(r) != n for r in S):
            raise ValueError("dimension mismatch in automorphism data")
        if not is_symplectic(S, genus):
            raise ValueError("S is not symplectic")
        self._init(genus, delta, S)

    @classmethod
    def _of(cls, genus, delta, S):  # S is symplectic by construction: not checked
        return cls.__new__(cls)._init(genus, delta, S)

    def apply(self, x):
        if x.genus != self.genus:
            raise ValueError("genus mismatch")
        k = x.k + sum(d * c for d, c in zip(self.delta, x.coords))
        coords = tuple(sum(self.S[i][j] * x.coords[j] for j in range(len(x.coords)))
                       for i in range(len(x.coords)))
        return HeisElement(self.genus, k, coords)

    def compose(self, f):
        """Return self composed after f (apply f first)."""
        if self.genus != f.genus:
            raise ValueError("genus mismatch")
        n = 2 * self.genus
        S = tuple(tuple(sum(self.S[i][k] * f.S[k][j] for k in range(n))
                        for j in range(n)) for i in range(n))
        delta = tuple(f.delta[j] + sum(self.delta[k] * f.S[k][j] for k in range(n))
                      for j in range(n))
        return HeisAutomorphism._of(self.genus, delta, S)

    def inverse(self):
        n = 2 * self.genus
        S = self.S
        # S^-1 = -J S^T J for symplectic S, entrywise
        Sinv = tuple(tuple((-1) ** (i + j) * S[j ^ 1][i ^ 1] for j in range(n))
                     for i in range(n))
        delta = tuple(-sum(self.delta[k] * Sinv[k][j] for k in range(n))
                      for j in range(n))
        return HeisAutomorphism._of(self.genus, delta, Sinv)

    def is_identity(self):
        return self == identity_aut(self.genus)

    def to_json(self):
        return {"delta": list(self.delta), "S": [list(r) for r in self.S]}

    @classmethod
    def from_json(cls, data):
        """Inverse of to_json; ValueError unless data has that shape."""
        try:
            delta, S = data["delta"], data["S"]
            ok = (S and all(type(x) is int for x in delta)
                  and all(type(x) is int for row in S for x in row))
        except (KeyError, TypeError):
            ok = False
        if not ok:
            raise ValueError('automorphism JSON must be {"delta": [int, ...], '
                             '"S": [[int, ...], ...]}')
        heis.check_genus(max(len(S) // 2, 1))  # one row: a dimension mismatch below
        S = tuple(tuple(r) for r in S)
        return cls(len(S) // 2, tuple(delta), S)


def identity_aut(genus):
    n = 2 * genus
    S = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return HeisAutomorphism._of(genus, (0,) * n, S)


def inner_of(h):
    """The inner automorphism x -> h x h^-1, given by delta(y) = 2 omega(hbar, y)."""
    S = identity_aut(h.genus).S  # its rows are the basis vectors e_j
    delta = tuple(2 * heis.omega(h.coords, e) for e in S)
    return HeisAutomorphism._of(h.genus, delta, S)


def inner_witness(phi):
    """Return h with inner_of(h) = phi, or None if phi is not inner.

    The coordinates of h are solved from delta via the duality
    delta(y) = 2 omega(hbar, y); phi is inner iff the solution maps back to
    phi, which fails when S is not the identity or a delta value is odd.
    """
    # hbar = J delta / 2, entrywise hbar_k = (-1)^k delta_{k^1} / 2
    coords = tuple((-1) ** k * phi.delta[k ^ 1] // 2 for k in range(2 * phi.genus))
    h = HeisElement(phi.genus, 0, coords)
    return h if inner_of(h) == phi else None


# ---------------------------------------------------------------------------
# Free-group words on the letters a1, b1, ..., ag, bg.  Their images in the
# Heisenberg group are multiplied out by heis.from_word, the quotient map that
# braid.phi also uses; the crossed homomorphism of an action on pi_1 is the
# central exponent of each image word.
# ---------------------------------------------------------------------------

def _check_letters(word):
    for name, _ in word:
        # a or b with an index in the heis grammar; handles count from 1
        if name[:1] not in ("a", "b") or name[1:] in ("", "0") or not heis.NAME.fullmatch(name):
            raise ValueError(f"bad letter {name!r} in free-group word")


def morita_d(i, word):
    """The handle-i self-linking count of a free-group word: the central
    exponent k of its letters a_i^e and b_i^f, multiplied out at genus 1.

    This is Morita's count over the greedy blocks a_i^nu b_i^mu.  For each
    letter let P and Q be the sums of the a- and b-exponents before it, and V
    and M the totals.  Multiplying out adds omega(prefix, letter) at each
    letter, so k = sum_b f P - sum_a e Q.  Each pair of an a-letter and a
    b-letter adds e f to exactly one of the two sums, whichever comes first,
    so sum_a e Q = V M - sum_b f P and k = sum_b f (2P - V).  That is
    sum_{j<=k} nu_j mu_k - sum_{j>k} nu_j mu_k: the block of each b-letter
    has nu-prefix P, counting its paired a, and V - P is the nu left after
    it.  The sum does not change under free reduction, so none is needed.
    """
    if i < 1:
        raise ValueError(f"handle index must be >= 1, got {i}")
    _check_letters(word)
    handle = (f"a{i}", f"b{i}")
    return heis.from_word(1, [(name[0], exp) for name, exp in word
                              if name in handle]).k


def morita_crossed_hom(genus, tables):
    """Automorphism induced by an action on the free generators of pi_1.

    tables maps each generator name 'a1', 'b1', ... to its image word (a list
    of (name, exponent) pairs).  Each image word is multiplied out once: its
    coordinates are a column of the symplectic part, and its central exponent
    is the value of delta, which is sum_i morita_d(i, image).
    """
    names = heis.generator_names(genus)[1:]
    images = [heis.from_word(genus, tables[name]) for name in names]
    S = tuple(zip(*(x.coords for x in images)))
    phi = HeisAutomorphism(genus, tuple(x.k for x in images), S)  # checks S is symplectic
    for name in names:
        _check_letters(tables[name])
    return phi


# ---------------------------------------------------------------------------
# Built-in twist data.  A twist is given by its action on pi_1: the twist
# along a_i fixes a_i and sends b_i to a_i^-1 b_i; the twist along b_i fixes
# b_i and sends a_i to a_i b_i.  The handedness is pinned by the requirement
# that the induced matrices satisfy the braid relation (see the repmatrix
# tests); the Heisenberg automorphism is derived from the action by
# morita_crossed_hom.
# ---------------------------------------------------------------------------

def twist_pi1_table(genus, kind, index=1):
    """pi_1 action of the twist along a_index ('a') or b_index ('b')."""
    if kind not in ("a", "b") or not 1 <= index <= genus:
        raise ValueError("bad twist specification")
    table = {name: heis.parse_word(name) for name in heis.generator_names(genus)[1:]}
    a, b = f"a{index}", f"b{index}"
    name, text = (b, f"{a}^-1 {b}") if kind == "a" else (a, f"{a} {b}")
    table[name] = heis.parse_word(text)
    return table


@functools.cache
def twist_aut(genus, kind, index=1):
    """The Heisenberg automorphism induced by a standard twist.

    Along a_i: delta takes value -1 on b_i, the symplectic part sends
    b_i -> b_i - a_i.  Along b_i: delta takes value +1 on a_i, the symplectic
    part sends a_i -> a_i + b_i.
    """
    return morita_crossed_hom(genus, twist_pi1_table(genus, kind, index))


def bounding_pair_table(genus=2):
    """pi_1 action of a standard genus-one bounding pair (needs genus >= 2).

    a_1 is conjugated by the commutator [a_2, b_2]; a_2 and b_2 are conjugated
    by [a_2, b_2] a_1 b_1 a_1^-1; everything else is fixed.
    """
    if genus < 2:
        raise ValueError("bounding pair needs genus >= 2")
    table = {name: heis.parse_word(name) for name in heis.generator_names(genus)[1:]}
    table.update((name, heis.parse_word(text)) for name, text in [
        ("a1", "a2 b2 a2^-1 b2^-1 a1"),
        ("a2", "a2 b2 a2^-1 b2^-1 a1 b1 a1^-1 a2 a1 b1^-1 a1^-1 b2 a2 b2^-1 a2^-1"),
        ("b2", "a2 b2 a2^-1 b2^-1 a1 b1 a1^-1 b2 a1 b1^-1 a1^-1 b2 a2 b2^-1 a2^-1")])
    return table
