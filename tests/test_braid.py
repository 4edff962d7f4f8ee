import hashlib

import pytest

from heisencalc import aut, braid, heis
from heisencalc.braid import BraidWord


def test_parse_and_str():
    w = BraidWord.parse(1, 2, "s1 a1^-1 b1 s1^-1")
    assert w.letters == (("s1", 1), ("a1", -1), ("b1", 1), ("s1", -1))
    assert str(w) == "s1 a1^-1 b1 s1^-1"
    assert str(BraidWord(1, 2, ())) == "1"


def test_name_validation():
    with pytest.raises(ValueError):
        BraidWord.parse(1, 2, "s2")
    with pytest.raises(ValueError):
        BraidWord.parse(1, 2, "a2")
    with pytest.raises(ValueError):
        BraidWord(1, 1, ())


@pytest.mark.parametrize("genus, strands", [(1, 2), (2, 3), (3, 5), (1, 200)])
def test_name_check_messages(genus, strands):
    """Letters outside the lookup tables fall back to the per-letter checks,
    with their messages; the aliases s, a and b are s1, a1 and b1, and s
    letters past the table of MAX_STRANDS are read by their index."""
    messages = {"u": "unknown braid generator 'u'",
                "x1": "unknown braid generator 'x1'",
                "s01": "unknown braid generator 's01'",
                "s0": f"'s0' out of range for {strands} strands",
                f"s{strands}": f"'s{strands}' out of range for {strands} strands",
                f"a{genus + 1}": f"'a{genus + 1}' out of range for genus {genus}",
                f"b{genus + 1}": f"'b{genus + 1}' out of range for genus {genus}"}
    for name, message in messages.items():
        with pytest.raises(ValueError) as err:
            BraidWord(genus, strands, (("s1", 1), ("a1", -1), (name, 2)))
        assert str(err.value) == message
    w = BraidWord(genus, strands, (("s", 1), ("a", -1), ("b", 2), (f"s{strands - 1}", 2)))
    assert braid.phi(w) == heis.parse_element(genus, "u^3 a1^-1 b1^2")
    with pytest.raises(ValueError, match="out of range for genus 0"):
        BraidWord(0, strands, (("a", 1),))


def test_inverse():
    w = BraidWord.parse(1, 2, "s1 a1 b1^-2")
    wi = w.inverse()
    assert wi.letters == (("b1", 2), ("a1", -1), ("s1", -1))
    assert braid.phi(w * wi).is_identity()


def test_phi_values():
    w = BraidWord.parse(1, 2, "a1^-1 b1 a1^-1 b1")
    assert braid.phi(w) == heis.parse_element(1, "u^2 a1^-2 b1^2")
    assert braid.phi(BraidWord.parse(1, 2, "s1 s1")) == heis.u(1, 2)
    assert braid.phi(BraidWord.parse(1, 3, "s1 s2^-1")).is_identity()
    # half twists all map to the same central element
    w2 = BraidWord.parse(2, 4, "s3 a2 s1^-1")
    assert braid.phi(w2) == heis.gen_a(2, 2)


def test_phi_kernel_elements():
    # the squared commutator relation sends [a, b] to u^2, matching s1^2
    w = BraidWord.parse(1, 2, "a1 b1 a1^-1 b1^-1 s1^-2")
    assert braid.phi(w).is_identity()


def test_bellingeri_all_pass():
    for g in (1, 2, 3):
        for n in (2, 3, 4, 5):
            report = braid.verify_bellingeri(g, n)
            assert report
            bad = [label for label, ok in report if not ok]
            assert not bad, f"failed relations at g={g}, n={n}: {bad}"


def test_relation_families_present():
    labels = [label for label, _, _ in braid.bellingeri_relations(2, 4)]
    for family in ("BR1", "BR2", "CR1", "CR2", "CR3", "SCR"):
        assert any(l.startswith(family) for l in labels)
    # genus 1 has no CR3 instances (needs r < s)
    labels1 = [label for label, _, _ in braid.bellingeri_relations(1, 3)]
    assert not any(l.startswith("CR3") for l in labels1)


def _digest(x):
    return hashlib.sha256(repr(x).encode()).hexdigest()


@pytest.mark.parametrize("genus, strands, digest", [
    (1, 2, "ce5627e7caa07025d6e8742f603dfdb672f9c690c3a4b2608730e859efcb8c37"),
    (2, 4, "45e9fb3f0d2ba67ebde4fbbc18a37fa2802ff4f49037369f37e8629c896c89fd"),
    (3, 5, "08a3e70490cd5c86aeb43948ceabf2465975010cfc35cef1e90c3c026c0ad37a"),
    (16, 128, "e90bf6dab0062de6f362e956b11ec6078db46dedd4d95f083ccc946ce3f6ceac")],
    ids=["1-2", "2-4", "3-5", "16-128"])
def test_relation_and_table_words_pinned(genus, strands, digest):
    """The words themselves, not only their labels: phi passes any relation
    whose two sides are written alike.  Each digest is of the repr of the
    (name, exponent) letters, as the tuple literals first wrote them."""
    relations = braid.bellingeri_relations(genus, strands)
    assert _digest([(l, a.letters, b.letters) for l, a, b in relations]) == digest
    tables = ([aut.bounding_pair_table(g) for g in (2, 3)]
              + [aut.twist_pi1_table(g, k, i) for g in (1, 2, 3)
                 for k in "ab" for i in range(1, g + 1)])
    assert _digest(tables) == (
        "fe385ef9d22fe92f2f567d4c94f63ec1729ce2791177583b3167cafe64a77966")
    assert _digest([heis.verify_presentation(g) for g in (1, 2, 3, 16)]) == (
        "d7c7a792d0a6ab3bd09e5ecd88c0bd563c04de0044cefa251660dcb0e49cb4bd")
