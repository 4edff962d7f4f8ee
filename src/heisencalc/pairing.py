"""Evaluation of the intersection pairing from combinatorial data.

Each transverse intersection contributes a signed group-ring monomial: the
product of two arc-level signs, a permutation sign, and the image under phi
of the loop traced through the tethers and cycles.  The module only sums
these contributions; producing the intersection records from curve diagrams
is out of scope.

Two sign modes are available.  The default "paper-formula" mode sums
sgn_p1 . sgn_p2 . sgn_loop . phi(loop); the "oriented" mode includes the
extra global -1 coming from the orientation conventions on configuration
spaces, so it computes the negative of the first.
"""

from . import braid, heis
from .braid import BraidWord
from .ring import HeisPolynomial


class IntersectionRecord(heis.Record):
    __slots__ = ("sgn_p1", "sgn_p2", "sgn_loop", "loop")

    def __init__(self, sgn_p1, sgn_p2, sgn_loop, loop):
        for s in (sgn_p1, sgn_p2, sgn_loop):
            if type(s) is not int or s not in (1, -1):
                raise ValueError("signs must be +1 or -1")
        if loop.strands != 2:
            raise ValueError("loops live in the two-point configuration space")
        self._init(sgn_p1, sgn_p2, sgn_loop, loop)

    @classmethod
    def from_json(cls, genus, data):
        """A record read from JSON; ValueError unless data has its shape."""
        try:
            s1, s2, sl, loop = data["s1"], data["s2"], data["sl"], data["loop"]
        except (KeyError, TypeError):
            raise ValueError('record must be {"s1", "s2", "sl", "loop"}') from None
        if not isinstance(loop, str):
            raise ValueError("record loop must be a braid word string")
        return cls(s1, s2, sl, BraidWord.parse(genus, 2, loop))


def evaluate_pairing(records, genus=1, mode="paper-formula"):
    """Sum the signed phi-images of a list of IntersectionRecord."""
    if mode not in ("paper-formula", "oriented"):
        raise ValueError(f"unknown sign mode {mode!r}")
    if any(rec.loop.genus != genus for rec in records):
        raise ValueError("record genus mismatch")
    mode_sign = -1 if mode == "oriented" else 1
    return HeisPolynomial(genus, [(braid.phi(rec.loop), mode_sign * rec.sgn_p1 * rec.sgn_p2
                                   * rec.sgn_loop) for rec in records])


def _rec(genus, s1, s2, sl, text):
    return IntersectionRecord(s1, s2, sl, BraidWord.parse(genus, 2, text))


def worked_records(name, genus=1):
    """Record sets for the three worked pairing values.

    'ta-wb-wa': the single intersection point pairing the twisted w(b)
    class with the dual w(a) class.  'ta-wb-vab': the two points against
    the dual v(a, b) class.  's-entry': the five points giving the s
    scalar of the separating twist.
    """
    if name == "ta-wb-wa":
        return [_rec(genus, -1, -1, 1, "a1^-1 b1 s1^-1 a1^-1 b1 s1")]
    if name == "ta-wb-vab":
        return [_rec(genus, -1, 1, -1, "s1^-1 a1^-1 b1"),
                _rec(genus, 1, -1, 1, "a1^-1 b1")]
    if name == "s-entry":
        return [
            _rec(genus, 1, 1, 1, ""),
            _rec(genus, -1, 1, 1,
                 "s1^-1 b1^-1 a1 b1 a1^-1 b1 a1 b1^-1 a1^-1 b1 s1"),
            _rec(genus, 1, 1, 1, "s1^-1 a1 b1^-1 a1^-1 b1 s1"),
            _rec(genus, 1, 1, 1, "s1^-1 a1^-1 b1 a1 b1^-1 a1^-1 b1 s1"),
            _rec(genus, -1, 1, 1, "s1^-1 b1^-1 a1^-1 b1 s1"),
        ]
    raise ValueError(f"unknown fixture {name!r}")
