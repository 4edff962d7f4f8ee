"""Exact arithmetic in the discrete Heisenberg group of a genus-g surface.

The group is Z x H_1, where H_1 is free abelian of rank 2g with symplectic
basis a_1, b_1, ..., a_g, b_g, and the product is twisted by the intersection
form omega:

    (k, x) (l, y) = (k + l + omega(x, y), x + y),

with omega(a_i, b_j) the Kronecker delta.  Elements are stored in pair form
(k, coords) with coords = (l_1, m_1, ..., l_g, m_g).  The word normal form
u^kappa a_1^{l_1} b_1^{m_1} ... a_g^{l_g} b_g^{m_g} is a derived view, with
kappa = k - sum_i l_i m_i.  Words multiply out in closed form, letter by
letter: omega(x, e a_i) = -e x[b_i] and omega(x, e b_i) = e x[a_i].
"""

import functools
import operator
import re
import types

# Largest genus the command line accepts; at genus 16 the separating twist
# matrix (528 x 528) builds and renders in about 0.6 s, and its square
# (compose separating separating) in about 0.9 s (2-core Xeon VM).
MAX_GENUS = 16


# The token grammar of every reader of words, expressions and quotient names,
# in ASCII digits only (\d and int() also read the digits of other scripts).
# An index has no leading zero, so each letter has one spelling.
DIGITS = "[0-9]+"
INTEGER = f"-?{DIGITS}"
INDEX = "0|[1-9][0-9]*"
# a letter: u, or a, b or s with an index (none: 1), and no digit after it
NAME = re.compile(f"(?:u|[abs](?:{INDEX})?)(?![0-9])")
LETTER = re.compile(rf"({NAME.pattern})(?:\^({INTEGER}))?")
# the pair form, compiled on its first use
PAIR = rf"\(\s*({INTEGER})\s*;\s*((?:{INTEGER}(?:\s*,\s*{INTEGER})*)?)\s*\)"
MEMO_PIECES, PIECE_CHARS = 4096, 64  # the memo of each reader: most pieces, longest piece


def check_genus(genus):
    """Refuse a genus outside 1..MAX_GENUS before anything of that size is built."""
    if not 1 <= genus <= MAX_GENUS:
        raise ValueError(f"genus must be in 1..{MAX_GENUS}, got {genus}")


def omega(coords_x, coords_y):
    """Symplectic form on coordinate vectors (l1, m1, ..., lg, mg)."""
    if len(coords_x) != len(coords_y):
        raise ValueError("genus mismatch in symplectic form")
    total = 0
    for i in range(0, len(coords_x), 2):
        total += coords_x[i] * coords_y[i + 1] - coords_x[i + 1] * coords_y[i]
    return total


def quadratic(coords):
    """sum_i l_i m_i: the pair-form k minus the word-form kappa."""
    return sum(map(operator.mul, coords[::2], coords[1::2]))


_set = object.__setattr__
_new = object.__new__


class Record:
    """Base of the immutable value classes: the fields are __slots__, set once
    by __init__ through _init.  Instances equal and hash by the values of
    _fields (default: all of them), only within one class; repr shows those."""
    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            _set(self, name, value)
        return self

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._key = operator.attrgetter(*cls._fields)
        # what dataclasses.replace(record, name=value) reads of each field
        cls.__dataclass_fields__ = {name: types.SimpleNamespace(
            name=name, init=True, _field_type=None) for name in cls.__slots__}

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class HeisElement(Record):
    """(k, coords) at a genus; __init__, == and hash are written out for speed."""
    __slots__ = ("genus", "k", "coords")

    def __init__(self, genus, k, coords):
        if genus < 1:
            raise ValueError("genus must be >= 1")
        if len(coords) != 2 * genus:
            raise ValueError(f"expected {2 * genus} coordinates, got {len(coords)}")
        _set(self, "genus", genus)
        _set(self, "k", k)
        _set(self, "coords", coords)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # equal coordinates have one length, so one genus
        return self.k == other.k and self.coords == other.coords

    def __hash__(self):
        return hash((self.genus, self.k, self.coords))

    def __mul__(self, other):
        if not isinstance(other, HeisElement):
            return NotImplemented
        if self.genus != other.genus:
            raise ValueError("genus mismatch")
        # a product of two valid elements of one genus is valid: no __init__
        out = _new(HeisElement)
        _set(out, "genus", self.genus)
        _set(out, "k", self.k + other.k + omega(self.coords, other.coords))
        _set(out, "coords", tuple(map(operator.add, self.coords, other.coords)))
        return out

    def inverse(self):
        return HeisElement(self.genus, -self.k, tuple(-c for c in self.coords))

    def __pow__(self, n):
        # omega(x, x) = 0, so (k, x)^n = (nk, nx) for every integer n.
        return HeisElement(self.genus, n * self.k, tuple(n * c for c in self.coords))

    def is_identity(self):
        return self.k == 0 and all(c == 0 for c in self.coords)

    def word_str(self, latex=False):
        """Word normal form, e.g. 'u^2 a1^-2 b1^2', or in LaTeX 'u^{2} a^{-2} b^{2}'."""
        return word(self.k - quadratic(self.coords), letters(self.coords, latex), latex)

    def pair_str(self):
        return f"({self.k}; {','.join(str(c) for c in self.coords)})"

    def __str__(self):
        return self.word_str()


def identity(genus):
    return HeisElement(genus, 0, (0,) * (2 * genus))


def u(genus, power=1):
    return HeisElement(genus, power, (0,) * (2 * genus))


def gen_a(genus, i, power=1):
    """The lift of a_i, with 1 <= i <= genus."""
    return generator(genus, f"a{i}", power)


def gen_b(genus, i, power=1):
    """The lift of b_i, with 1 <= i <= genus."""
    return generator(genus, f"b{i}", power)


@functools.cache
def generator_names(genus, latex=False):
    """Names of u, a_1, b_1, ..., a_g, b_g: 'u', 'a1', 'b1', ... as plain text,
    'u', 'a_{1}', 'b_{1}', ... in LaTeX ('u', 'a', 'b' at genus 1).

    Built once per genus and style, since the word renderer reads it per element.
    """
    if latex:
        index = [""] if genus == 1 else [f"_{{{i}}}" for i in range(1, genus + 1)]
    else:
        index = [str(i) for i in range(1, genus + 1)]
    return ("u",) + tuple(x + i for i in index for x in "ab")


def letter(name, e, latex=False):
    """The letter name to the power e != 0: 'a1^-2', 'a^{-2}' in LaTeX, 'a1' for e = 1."""
    return name if e == 1 else f"{name}^{{{e}}}" if latex else f"{name}^{e}"


def letters(coords, latex=False):
    """The letters a_i^l_i b_i^m_i of a word normal form, e.g. 'a1^-2 b1^2'
    (LaTeX 'a^{-2} b^{2}'), or '' when coords is zero."""
    names = generator_names(len(coords) // 2, latex)
    return " ".join([letter(names[i], e, latex) for i, e in enumerate(coords, 1) if e])


def word(kappa, text, latex=False):
    """The one word renderer: u^kappa, then the letters text (see letters),
    or '1' for the empty word.  A sum builds the letters once per fibre."""
    if not kappa:
        return text or "1"
    return f"{letter('u', kappa, latex)} {text}" if text else letter("u", kappa, latex)


def generators(genus):
    """The generators as [(name, element)]: u, a1, b1, ..., ag, bg."""
    return [(name, generator(genus, name)) for name in generator_names(genus)]


def generator(genus, name, power=1):
    """Generator by name: 'u', 'a<i>' or 'b<i>' ('a'/'b' mean index 1), to a power;
    from_word of one letter."""
    return from_word(genus, [(name, power)])


@functools.cache
def letter_slots(genus):
    """{name: (slot, partner, sign)} of every letter at genus, shared and read only:
    slot is the index in generator_names (u 0, a_i 2i - 1, b_i 2i); 'a', 'b' are a1, b1."""
    names = generator_names(genus)
    slots = {name: (s, s + 1, -1) if s % 2 else (s, s - 1, 1) for s, name in enumerate(names)}
    return slots | {"u": (0, 0, 0)} | dict(zip("ab", map(slots.get, names[1:3])))


def from_word(genus, word):
    """Multiply out a word of (generator name, exponent) in closed form: a letter^e adds
    e to x[slot] and omega(x, e a_i) = -e x[b_i], omega(x, e b_i) = e x[a_i] to k."""
    if genus < 1:
        raise ValueError("genus must be >= 1")
    slots, k, x = letter_slots(genus), 0, [0] * (2 * genus + 1)  # x[0]: the power of u
    for name, e in word:
        slot, partner, sign = slots.get(name) or _unknown(genus, name)
        k += sign * e * x[partner]
        x[slot] += e
    return HeisElement(genus, k + x[0], tuple(x[1:]))


def _unknown(genus, name):  # the miss of from_word: a name letter_slots(genus) lacks
    if m := re.fullmatch(f"[ab]({INDEX})", name):
        raise ValueError(f"index {m[1]} out of range for genus {genus}")
    raise ValueError(f"unknown generator {name!r}")


def reader(scan):
    """Read text through scan (text -> list, raising ValueError) by whitespace pieces, which
    no token spans, each scanned once into a bounded memo of tuples, into a new list.  A bad
    piece, or one past PIECE_CHARS, sends the whole text to scan, whose error names its place."""
    @functools.wraps(scan)
    def read(text):
        pieces = text.split()
        try:
            if max(map(len, pieces), default=0) <= PIECE_CHARS:
                return functools.reduce(operator.iconcat, map(read.memo, pieces), [])
        except ValueError:
            pass
        return scan(text)
    read.memo = functools.lru_cache(MEMO_PIECES)(lambda piece: tuple(scan(piece)))
    return read


@reader
def parse_word(text):
    """Split 'u^2 a1^-2 b1' into [(letter name, exponent)]; names are not checked
    beyond the grammar, and juxtaposed letters ('a1b1') are two letters."""
    word = []
    pos = 0
    for m in LETTER.finditer(text):
        if text[pos:m.start()].strip():
            raise ValueError(f"bad element syntax near {text[pos:m.start()]!r}")
        word.append((m.group(1), int(m.group(2)) if m.group(2) else 1))
        pos = m.end()
    if text[pos:].strip():
        raise ValueError(f"bad element syntax near {text[pos:]!r}")
    return word


def parse_element(genus, text):
    """Parse either word form 'u^2 a1^-2 b1^2' or pair form '(k; l1,m1,...)'."""
    text = text.strip()
    if text.startswith("("):
        m = re.fullmatch(PAIR, text)
        if not m:
            raise ValueError(f"bad pair form: {text!r}")
        coords = tuple(int(c) for c in m.group(2).split(",")) if m.group(2) else ()
        return HeisElement(genus, int(m.group(1)), coords)
    return identity(genus) if text == "1" else from_word(genus, parse_word(text))


def verify_presentation(genus):
    """Check the defining relations of the group for the given genus.

    Relations: u is central, a_i b_i = u^2 b_i a_i, and a_i b_j = b_j a_i
    for i != j, each side read by parse_element.  Returns a list of
    (relation as text, bool).
    """
    relations = [(f"u {x}", f"{x} u") for x in generator_names(genus)]
    relations += [(f"a{i} b{j}", f"u^2 b{j} a{i}" if i == j else f"b{j} a{i}")
                  for i in range(1, genus + 1) for j in range(1, genus + 1)]
    return [(f"{lhs} = {rhs}", parse_element(genus, lhs) == parse_element(genus, rhs))
            for lhs, rhs in relations]
