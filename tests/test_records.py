"""The immutable value classes: read-only fields, equality within one class,
hashing, repr, copies, and dataclasses.replace."""

import copy
import dataclasses
import pickle

import pytest

from heisencalc import aut, braid, heis, pairing, repmatrix as rm, ring


def _word():
    return braid.BraidWord.parse(1, 2, "s1 a1^-1")


def _records():
    """One instance of each record class, built twice: (first, second)."""
    def build():
        return [heis.HeisElement(1, 2, (3, -4)),
                aut.twist_aut(1, "a"),
                _word(),
                pairing.IntersectionRecord(1, -1, 1, _word()),
                ring.torsion(5),
                ring.specialize(ring.parse_poly(1, "a + 2 u"), ring.ABELIAN),
                rm.matrix_from_strings(1, [["1 + a", "0"]])]
    return list(zip(build(), build()))


REPRS = [
    "HeisElement(genus=1, k=2, coords=(3, -4))",
    "HeisAutomorphism(genus=1, delta=(0, -1), S=((1, -1), (0, 1)))",
    "BraidWord(genus=1, strands=2, letters=(('s1', 1), ('a1', -1)))",
    "IntersectionRecord(sgn_p1=1, sgn_p2=-1, sgn_loop=1, "
    "loop=BraidWord(genus=1, strands=2, letters=(('s1', 1), ('a1', -1))))",
    "Quotient(name='torsion5', modulus=5)",
    "SpecializedPolynomial(quotient=Quotient(name='abelian', modulus=1), "
    "genus=1, fibres={(1, 0): {0: 1}, (0, 0): {0: 2}})",
    "RepMatrix(genus=1, entries=((HeisPolynomial(1 + a1), HeisPolynomial(0)),), "
    "source_twist=HeisAutomorphism(genus=1, delta=(0, 0), S=((1, 0), (0, 1))))",
]


@pytest.mark.parametrize("pair, text", zip(_records(), REPRS))
def test_record_semantics(pair, text):
    a, b = pair
    assert a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == text
    field = type(a).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(a, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    # equal only within one class: never to the tuple of its fields
    assert a != tuple(getattr(a, name) for name in type(a).__slots__)
    assert copy.copy(a) == copy.deepcopy(a) == a


def test_records_pickle():
    x = heis.HeisElement(2, 1, (1, 0, 0, 1))
    M = rm.matrix_Ta()
    assert pickle.loads(pickle.dumps(x)) == x and pickle.loads(pickle.dumps(M)) == M


def test_element_equality_and_hash():
    x = heis.HeisElement(2, 1, (1, 0, 0, 1))
    assert x != (2, 1, (1, 0, 0, 1)) and x != heis.HeisElement(2, 1, (1, 0, 0, 2))
    assert x != heis.HeisElement(2, 2, (1, 0, 0, 1))
    assert hash(x) == hash(heis.HeisElement(2, 1, (1, 0, 0, 1)))
    assert len({x, heis.HeisElement(2, 1, (1, 0, 0, 1)), heis.u(2)}) == 2


def test_record_checks_its_fields():
    with pytest.raises(ValueError):
        heis.HeisElement(1, 0, (1, 2, 3))
    with pytest.raises(ValueError):
        heis.HeisElement(0, 0, ())
    with pytest.raises(ValueError):
        braid.BraidWord(1, 1, ())
    with pytest.raises(ValueError):
        pairing.IntersectionRecord(1, 2, 1, _word())


def test_torsion_quotients_are_interchangeable():
    # each torsion(N) is a new object: equality and hash ignore its functions
    q, r = ring.torsion(5), ring.torsion(5)
    assert q is not r and q == r and hash(q) == hash(r)
    assert q != ring.torsion(6)
    p = ring.specialize(ring.parse_poly(1, "1 + a"), q)
    s = ring.specialize(ring.parse_poly(1, "u^4 b - a"), r)
    want = ring.specialize(ring.parse_poly(1, "(1 + a) (u^4 b - a)"), ring.torsion(5))
    assert p * s == want and str(p * s) == str(want)


def test_dataclasses_replace_builds_through_the_constructor():
    M = rm.matrix_from_strings(1, [["1", "a"]])
    N = dataclasses.replace(M, entries=((M.entries[0][1], M.entries[0][0]),))
    assert N.entries == (M.entries[0][::-1],) and N.source_twist == M.source_twist
    with pytest.raises(ValueError):  # the constructor's checks still run
        dataclasses.replace(M, entries=((M.entries[0][0],), ()))
    x = dataclasses.replace(heis.HeisElement(1, 2, (3, -4)), k=0)
    assert x == heis.HeisElement(1, 0, (3, -4))


def test_product_is_a_constructed_element():
    # __mul__ builds its result without __init__: it must still be an
    # ordinary element, and a genus mismatch must still be refused
    x, y = heis.HeisElement(2, 1, (1, 0, 0, 1)), heis.HeisElement(2, -3, (2, 5, -1, 0))
    built = heis.HeisElement(2, 1 - 3 + 5 + 1, (3, 5, -1, 1))
    xy = x * y
    assert type(xy) is heis.HeisElement
    assert xy == built and not xy != built and hash(xy) == hash(built)
    assert repr(xy) == repr(built) and xy.word_str() == built.word_str()
    assert copy.copy(xy) == copy.deepcopy(xy) == pickle.loads(pickle.dumps(xy)) == built
    assert {xy: 1}[built] == 1
    with pytest.raises(AttributeError):
        xy.k = 0
    for a, b in ((x, heis.u(1)), (heis.gen_a(3, 1), x)):
        with pytest.raises(ValueError, match="genus mismatch"):
            a * b
