import pytest

from heisencalc import braid, pairing, ring
from heisencalc.braid import BraidWord
from heisencalc.pairing import IntersectionRecord


def test_configuration_sign():
    # the oriented convention: one record contributes -s1 s2 sl phi(loop)
    loop = BraidWord(1, 2, ())
    for signs, want in [((1, 1, 1), -1), ((-1, -1, 1), -1), ((-1, 1, -1), -1),
                        ((1, -1, 1), 1)]:
        got = pairing.evaluate_pairing([IntersectionRecord(*signs, loop)], mode="oriented")
        assert got == ring.HeisPolynomial.one(1) * want


def test_record_validation():
    with pytest.raises(ValueError):
        IntersectionRecord(2, 1, 1, BraidWord(1, 2, ()))
    with pytest.raises(ValueError):
        IntersectionRecord(1, 1, 1, BraidWord(1, 3, ()))


def test_worked_value_single_point():
    got = pairing.evaluate_pairing(pairing.worked_records("ta-wb-wa"))
    assert got == ring.parse_poly(1, "u^2 a^-2 b^2")


def test_worked_value_two_points():
    got = pairing.evaluate_pairing(pairing.worked_records("ta-wb-vab"))
    assert got == ring.parse_poly(1, "(u^-1 - 1) a^-1 b")


def test_worked_value_five_points():
    got = pairing.evaluate_pairing(pairing.worked_records("s-entry"))
    assert got == ring.parse_poly(1, "1 - b + u^-2 + u^-2 a^-1 b - u^-2 a^-1")


def test_oriented_mode_is_negative():
    for name in ("ta-wb-wa", "ta-wb-vab", "s-entry"):
        recs = pairing.worked_records(name)
        assert pairing.evaluate_pairing(recs, mode="oriented") == \
            -pairing.evaluate_pairing(recs, mode="paper-formula")
    with pytest.raises(ValueError):
        pairing.evaluate_pairing([], mode="nonsense")


def test_sum_merges_records():
    loop = BraidWord.parse(1, 2, "s1 a1")
    recs = [IntersectionRecord(1, 1, 1, loop), IntersectionRecord(1, -1, 1, loop),
            IntersectionRecord(-1, -1, 1, loop)]
    assert pairing.evaluate_pairing(recs) == ring.HeisPolynomial.monomial(braid.phi(loop))
    with pytest.raises(ValueError, match="record genus mismatch"):
        pairing.evaluate_pairing(recs, genus=2)


def test_additivity():
    r1 = pairing.worked_records("ta-wb-vab")
    r2 = pairing.worked_records("ta-wb-wa")
    assert pairing.evaluate_pairing(r1 + r2) == \
        pairing.evaluate_pairing(r1) + pairing.evaluate_pairing(r2)
    assert pairing.evaluate_pairing([]).is_zero()


def test_json_round_trip():
    # the s-entry records as a fixture file holds them
    data = [{"s1": 1, "s2": 1, "sl": 1, "loop": ""},
            {"s1": -1, "s2": 1, "sl": 1,
             "loop": "s1^-1 b1^-1 a1 b1 a1^-1 b1 a1 b1^-1 a1^-1 b1 s1"},
            {"s1": 1, "s2": 1, "sl": 1, "loop": "s1^-1 a1 b1^-1 a1^-1 b1 s1"},
            {"s1": 1, "s2": 1, "sl": 1, "loop": "s1^-1 a1^-1 b1 a1 b1^-1 a1^-1 b1 s1"},
            {"s1": -1, "s2": 1, "sl": 1, "loop": "s1^-1 b1^-1 a1^-1 b1 s1"}]
    assert [IntersectionRecord.from_json(1, d) for d in data] == pairing.worked_records("s-entry")
