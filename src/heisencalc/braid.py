"""Surface braid group words and the quotient map to the Heisenberg group.

Words are sequences of generators s1..s(n-1) (half twists) and a1..ag, b1..bg
(handle generators), read by heis.parse_word like every other word: letters
in the heis grammar (ASCII index, no leading zero, 's' and 'a' mean s1 and
a1), each with an optional exponent, juxtaposed or spaced.  Words are never
rewritten, only their images are normalized.  The quotient map phi sends
every s_i to the central generator u and a_j, b_j to the corresponding
Heisenberg lifts.  verify_bellingeri checks that phi respects every instance
of the defining relations of the group.
"""

from . import heis

# Largest strand count the command line accepts; verify_bellingeri builds
# about n^2/2 relation instances up front, and at n = 128 and genus 16 it
# checks 12,561 of them in about 0.7 s (n = 256: 41,041 in 2.0 s; 2-core Xeon).
MAX_STRANDS = 128
# the index of s and of s1 .. s(MAX_STRANDS - 1), which BraidWord reads by lookup
_S_INDEX = {"s": 1} | {f"s{i}": i for i in range(1, MAX_STRANDS)}


def check_strands(strands):
    """Refuse a strand count outside 2..MAX_STRANDS before any word is built."""
    if not 2 <= strands <= MAX_STRANDS:
        raise ValueError(f"strands must be in 2..{MAX_STRANDS}, got {strands}")


class BraidWord(heis.Record):
    __slots__ = ("genus", "strands", "letters")  # letters: (name, exponent) pairs

    def __init__(self, genus, strands, letters):
        if strands < 2:
            raise ValueError("need at least 2 strands")
        handles = heis.letter_slots(genus)
        for name, _ in letters:
            if name != "u" and name in handles or _S_INDEX.get(name, strands) < strands:
                continue
            if name == "u" or not heis.NAME.fullmatch(name):
                raise ValueError(f"unknown braid generator {name!r}")
            if name[0] != "s":  # an a or b letter in range is in handles
                raise ValueError(f"{name!r} out of range for genus {genus}")
            if not 1 <= int(name[1:] or 1) < strands:
                raise ValueError(f"{name!r} out of range for {strands} strands")
        self._init(genus, strands, letters)

    def __mul__(self, other):
        if (self.genus, self.strands) != (other.genus, other.strands):
            raise ValueError("braid parameter mismatch")
        return BraidWord(self.genus, self.strands, self.letters + other.letters)

    def inverse(self):
        return BraidWord(self.genus, self.strands,
                         tuple((name, -exp) for name, exp in reversed(self.letters)))

    def __str__(self):
        return " ".join([heis.letter(name, exp) for name, exp in self.letters]) or "1"

    @classmethod
    def parse(cls, genus, strands, text):
        """Parse text such as 's1 a1^-1 b1 s1^-1' (see heis.parse_word)."""
        return cls(genus, strands, tuple(heis.parse_word(text)))


def phi(w):
    """Image of a braid word in the Heisenberg group: each s_i reads as u."""
    return heis.from_word(w.genus, [("u" if name[0] == "s" else name, exp)
                                    for name, exp in w.letters])


def bellingeri_relations(genus, strands):
    """All instances of the defining relations at the given parameters.

    Returns (label, left word, right word), each word written as text and read
    by BraidWord.parse.  The relation families are the braid relations among
    the s_i, the commutation relations between handle generators and the s_i,
    and the mixed relations tying the two kinds together.
    """
    g, n = genus, strands
    handles = range(1, g + 1)
    # (BR1) distant half twists commute
    texts = [(f"BR1[{i},{j}]", f"s{i} s{j}", f"s{j} s{i}")
             for i in range(1, n) for j in range(i + 2, n)]
    # (BR2) adjacent half twists braid
    texts += [(f"BR2[{i},{i + 1}]", f"s{i} s{i + 1} s{i}", f"s{i + 1} s{i} s{i + 1}")
              for i in range(1, n - 1)]
    # (CR1) handle generators commute with s_i, i > 1
    texts += [(f"CR1[{x}{r},s{i}]", f"{x}{r} s{i}", f"s{i} {x}{r}")
              for r in handles for i in range(2, n) for x in "ab"]
    # (CR2) x commutes with s1 x s1
    texts += [(f"CR2[{x}{r}]", f"{x}{r} s1 {x}{r} s1", f"s1 {x}{r} s1 {x}{r}")
              for r in handles for x in "ab"]
    # (CR3) x_r commutes with s1^-1 y_s s1 for r < s
    texts += [(f"CR3[{x}{r},{y}{s}]", f"{x}{r} s1^-1 {y}{s} s1", f"s1^-1 {y}{s} s1 {x}{r}")
              for r in handles for s in range(r + 1, g + 1) for x in "ab" for y in "ab"]
    # (SCR) s1 b_r s1 a_r s1 = a_r s1 b_r
    texts += [(f"SCR[{r}]", f"s1 b{r} s1 a{r} s1", f"a{r} s1 b{r}") for r in handles]
    return [(label, BraidWord.parse(g, n, lhs), BraidWord.parse(g, n, rhs))
            for label, lhs, rhs in texts]


def verify_bellingeri(genus, strands):
    """Check phi(lhs) = phi(rhs) for every relation instance.

    Returns a list of (label, bool).
    """
    return [(label, phi(lhs) == phi(rhs))
            for label, lhs, rhs in bellingeri_relations(genus, strands)]
