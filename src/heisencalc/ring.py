"""Sparse exact arithmetic in the integral group ring of the Heisenberg group.

A polynomial is a finite map from group elements to nonzero integer
coefficients.  Multiplication works per coordinate fibre: the terms of each
operand are grouped by their H_1 coordinates, and for each pair of fibres the
u-exponents convolve as plain integers, shifted by omega of the pair; all
coefficients and exponents are arbitrary-precision.  The module also provides
the three specialization homomorphisms (to Z[u]/(u^2-1), to the commutative
Laurent ring, and to the central N-torsion quotient) and the entrywise action
of Heisenberg automorphisms.
"""

from dataclasses import dataclass, field
import operator
import re

from . import heis
from .heis import HeisElement


def _add_terms(terms, pairs):
    """Add each (key, coeff) of pairs into the dict terms, dropping zeros."""
    for key, coeff in pairs:
        new = terms.get(key, 0) + coeff
        if new:
            terms[key] = new
        else:
            terms.pop(key, None)
    return terms


def _fibres(terms):
    """Group {HeisElement: coeff} by coordinate fibre: {coords: {k: coeff}}."""
    fibres = {}
    for e, c in terms.items():
        fibres.setdefault(e.coords, {})[e.k] = c
    return fibres


def _add_coords(x, y):
    return tuple(map(operator.add, x, y))


def format_sum(pairs, latex=False):
    """Render (HeisElement, nonzero coeff) pairs, in the given order, as a
    signed sum such as '-2 u a1 + 3 - b1^-1'; '0' when there are none."""
    parts = []
    for elem, coeff in pairs:
        word = elem.word_str(latex)
        size = abs(coeff)
        body = str(size) if word == "1" else word if size == 1 else f"{size} {word}"
        parts.append(("- " if coeff < 0 else "+ ") + body)
    if not parts:
        return "0"
    text = " ".join(parts)
    # the leading sign: "+ " is dropped and "- " becomes "-"
    return text[2:] if text[0] == "+" else "-" + text[2:]


class HeisPolynomial:
    """Element of the group ring, held as {HeisElement: nonzero int}."""

    __slots__ = ("genus", "terms")

    def __init__(self, genus, terms=None):
        self.genus = genus
        self.terms = {}
        if terms:
            pairs = terms.items() if isinstance(terms, dict) else list(terms)
            if any(elem.genus != genus for elem, _ in pairs):
                raise ValueError("genus mismatch")
            _add_terms(self.terms, pairs)

    @classmethod
    def zero(cls, genus):
        return cls(genus)

    @classmethod
    def one(cls, genus):
        return cls.monomial(heis.identity(genus))

    @classmethod
    def monomial(cls, elem, coeff=1):
        return cls(elem.genus, {elem: coeff})

    def _check(self, other):
        if not isinstance(other, HeisPolynomial):
            raise TypeError("expected a HeisPolynomial")
        if self.genus != other.genus:
            raise ValueError("genus mismatch")

    def __add__(self, other):
        self._check(other)
        out = HeisPolynomial(self.genus)
        out.terms = _add_terms(dict(self.terms), other.terms.items())
        return out

    def __neg__(self):
        out = HeisPolynomial(self.genus)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            out = HeisPolynomial(self.genus)
            if other:
                out.terms = {e: c * other for e, c in self.terms.items()}
            return out
        if isinstance(other, HeisElement):
            other = HeisPolynomial.monomial(other)
        self._check(other)
        # (k, x)(l, y) = (k + l + omega(x, y), x + y): omega and x + y are
        # computed once per pair of fibres, the u-exponents convolve as ints
        out_fibres = {}
        right = [(y, list(fy.items())) for y, fy in _fibres(other.terms).items()]
        for x, fx in _fibres(self.terms).items():
            for y, fy in right:
                w = heis.omega(x, y)
                acc = out_fibres.setdefault(_add_coords(x, y), {})
                for k, c in fx.items():
                    k += w
                    for l, d in fy:
                        acc[k + l] = acc.get(k + l, 0) + c * d
        out = HeisPolynomial(self.genus)
        out.terms = {HeisElement(self.genus, k, z): c
                     for z, acc in out_fibres.items() for k, c in acc.items() if c}
        return out

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        if isinstance(other, HeisElement):
            return HeisPolynomial.monomial(other) * self
        return NotImplemented

    def __eq__(self, other):
        return (isinstance(other, HeisPolynomial)
                and self.genus == other.genus and self.terms == other.terms)

    def __hash__(self):
        return hash((self.genus, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        """Terms in the canonical order: lexicographic on (k, coords)."""
        return sorted(self.terms.items(), key=lambda item: item[0].sort_key())

    def __str__(self):
        return format_sum(self.sorted_terms())

    def __repr__(self):
        return f"HeisPolynomial({self})"

    def to_json(self):
        return [{"k": e.k, "coords": list(e.coords), "c": c}
                for e, c in self.sorted_terms()]

    @classmethod
    def from_json(cls, genus, data):
        """Inverse of to_json; ValueError unless data has that shape."""
        n = 2 * genus
        try:
            ok = isinstance(data, list) and all(
                type(t["k"]) is int and type(t["c"]) is int and len(t["coords"]) == n
                and all(type(x) is int for x in t["coords"]) for t in data)
        except (KeyError, TypeError):
            ok = False
        if not ok:
            raise ValueError(f'polynomial JSON must be [{{"k": int, "coords": [{n} ints], '
                             '"c": int}, ...]')
        return cls(genus, [(HeisElement(genus, t["k"], tuple(t["coords"])), t["c"])
                           for t in data])


# ---------------------------------------------------------------------------
# Expression parsing.  Grammar (whitespace-insensitive):
#   expr    := ['-'] product (('+'|'-') product)*
#   product := factor+                      (juxtaposition is multiplication)
#   factor  := integer | symbol ['^' int] | '(' expr ')' ['^' int]
#   symbol  := 'u' | 'a' | 'b' | 'a<i>' | 'b<i>'
# ---------------------------------------------------------------------------

# Largest n accepted in (expr)^n; each step is one full product.
MAX_POWER = 16

_EXPR_TOKEN = re.compile(r"\s*(?:(\d+)|([uab]\d*)|(\^-?\d+)|([+\-()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _EXPR_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"bad expression near {text[pos:]!r}")
            break
        if m.group(1):
            tokens.append(("int", int(m.group(1))))
        elif m.group(2):
            tokens.append(("sym", m.group(2)))
        elif m.group(3):
            tokens.append(("pow", int(m.group(3)[1:])))
        else:
            tokens.append((m.group(4), None))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, genus, tokens):
        self.genus = genus
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse_expr(self):
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        elif self.peek()[0] == "+":
            self.next()
        result = self.parse_product() * sign
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            term = self.parse_product()
            result = result + (term if op == "+" else -term)
        return result

    def parse_product(self):
        result = self.parse_factor()
        while self.peek()[0] in ("int", "sym", "("):
            result = result * self.parse_factor()
        return result

    def parse_factor(self):
        kind, value = self.next()
        if kind == "int":
            return HeisPolynomial.monomial(heis.identity(self.genus), value)
        if kind == "sym":
            power = 1
            if self.peek()[0] == "pow":
                power = self.next()[1]
            return HeisPolynomial.monomial(heis.generator(self.genus, value, power))
        if kind == "(":
            inner = self.parse_expr()
            if self.next()[0] != ")":
                raise ValueError("unbalanced parentheses")
            if self.peek()[0] == "pow":
                power = self.next()[1]
                if not 0 <= power <= MAX_POWER:
                    raise ValueError(f"(expr)^n needs 0 <= n <= {MAX_POWER}; "
                                     "negative powers only on group generators")
                result = HeisPolynomial.one(self.genus)
                for _ in range(power):
                    result = result * inner
                return result
            return inner
        raise ValueError(f"unexpected token {kind!r}")


def parse_poly(genus, text):
    """Parse a polynomial expression such as '(u^-1 - 1) a^-1 b + u^2'."""
    parser = _Parser(genus, _tokenize(text))
    result = parser.parse_expr()
    if parser.pos != len(parser.tokens):
        raise ValueError("trailing tokens in expression")
    return result


# ---------------------------------------------------------------------------
# Specializations.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Quotient:
    """A quotient ring of the group ring, named as on the command line.

    'moriyama' is Z[u]/(u^2-1), keyed by the word-form u-exponent mod 2.
    'abelian' is the commutative Laurent ring (u -> 1), keyed by coords.
    'torsion<N>' is the group ring of the central quotient by u^N, keyed by
    (k mod N, coords) with k the pair-form exponent.

    keys maps a {HeisElement: coeff} dict to its (key, coeff) pairs, key_mul
    multiplies two keys, and lift(genus, key) is a group element with that
    key, which is what a specialized sum prints.
    """
    name: str
    order: int  # N for torsion, else 0
    keys: object = field(compare=False, repr=False)
    key_mul: object = field(compare=False, repr=False)
    lift: object = field(compare=False, repr=False)


MORIYAMA = Quotient(
    "moriyama", 0,
    lambda terms: [((e.k - heis.quadratic(e.coords)) % 2, c) for e, c in terms.items()],
    lambda x, y: (x + y) % 2,
    lambda genus, key: HeisElement(genus, key, (0,) * (2 * genus)))

ABELIAN = Quotient(
    "abelian", 0,
    lambda terms: [(e.coords, c) for e, c in terms.items()],
    _add_coords,
    lambda genus, key: HeisElement(genus, heis.quadratic(key), key))


def torsion(N):
    """The quotient by the central subgroup generated by u^N."""
    if N < 1:
        raise ValueError("N must be >= 1")

    def lift(genus, key):
        # the lift whose word-form u-exponent lies in [0, N)
        q = heis.quadratic(key[1])
        return HeisElement(genus, q + (key[0] - q) % N, key[1])

    return Quotient(
        f"torsion{N}", N,
        lambda terms: [((e.k % N, e.coords), c) for e, c in terms.items()],
        lambda x, y: ((x[0] + y[0] + heis.omega(x[1], y[1])) % N,
                      _add_coords(x[1], y[1])),
        lift)


def quotient(name, order=0):
    """The quotient called 'moriyama', 'abelian' or 'torsion<N>'; the name
    'torsion' takes N from order."""
    if name == "moriyama":
        return MORIYAMA
    if name == "abelian":
        return ABELIAN
    if name.startswith("torsion") and (name[7:].isdigit() or name == "torsion" and order):
        return torsion(int(name[7:] or order))
    raise ValueError(f"unknown specialization {name!r}")


@dataclass(frozen=True)
class SpecializedPolynomial:
    """Image of a group-ring element in a Quotient.

    terms is a sorted tuple of (key, coeff), keys as described on Quotient.
    """
    quotient: Quotient
    genus: int
    terms: tuple

    @classmethod
    def _build(cls, q, genus, pairs):
        return cls(q, genus, tuple(sorted(_add_terms({}, pairs).items())))

    def _check(self, other):
        if (self.quotient, self.genus) != (other.quotient, other.genus):
            raise ValueError("specialization target mismatch")

    def __add__(self, other):
        self._check(other)
        return SpecializedPolynomial._build(self.quotient, self.genus,
                                            self.terms + other.terms)

    def __mul__(self, other):
        self._check(other)
        mul = self.quotient.key_mul
        return SpecializedPolynomial._build(
            self.quotient, self.genus,
            [(mul(k1, k2), c1 * c2) for k1, c1 in self.terms for k2, c2 in other.terms])

    def is_one(self):
        return self.terms == tuple(self.quotient.keys({heis.identity(self.genus): 1}))

    def is_zero(self):
        return not self.terms

    def __str__(self):
        lift = self.quotient.lift
        return format_sum((lift(self.genus, key), c) for key, c in self.terms)


def specialize(p, q):
    """Image of the group-ring element p in the Quotient q."""
    return SpecializedPolynomial._build(q, p.genus, q.keys(p.terms))


def specialize_moriyama(p):
    """Ring homomorphism killing all a_i, b_i and imposing u^2 = 1.

    Each group element goes to u^kappa where kappa is the central exponent of
    its word normal form (the pair-form k corrected by sum l_i m_i).
    """
    return specialize(p, MORIYAMA)


def specialize_abelianize(p):
    """Ring homomorphism u -> 1 onto the commutative Laurent ring."""
    return specialize(p, ABELIAN)


def specialize_torsion(p, N):
    """Quotient by the central subgroup generated by u^N (reduce k mod N)."""
    return specialize(p, torsion(N))


def aut_apply_poly(tau, p):
    """Apply an automorphism to every group element of a polynomial.

    tau(k, x) = (k + delta(x), Sx), so tau is applied to one term per
    coordinate fibre x and the other terms of the fibre move by the same
    delta(x).  tau is a bijection, so no two terms merge.
    """
    out = HeisPolynomial(p.genus)
    moves = {}  # x -> (delta(x), Sx)
    for e, c in p.terms.items():
        move = moves.get(e.coords)
        if move is None:
            image = tau.apply(e)
            moves[e.coords] = image.k - e.k, image.coords
        else:
            image = HeisElement(p.genus, e.k + move[0], move[1])
        out.terms[image] = c
    return out
