"""Sparse exact arithmetic in the integral group ring of the Heisenberg group.

A polynomial is stored as its coordinate fibres {coords: {k: nonzero int}}.
One kernel, _fibre_mul, multiplies in the group ring and in its quotients:
omega and the coordinate sum are computed once per pair of fibres, and the
u-exponents convolve as plain (arbitrary-precision) integers.  The module
also provides the three specialization homomorphisms (to Z[u]/(u^2-1), to
the commutative Laurent ring, and to the central N-torsion quotient) and the
entrywise action of Heisenberg automorphisms.
"""

from dataclasses import dataclass, field
import operator
import re

from . import heis
from .heis import HeisElement


def _pruned(fibres, modulus=0):
    """New fibres with each k reduced mod a nonzero modulus, and no zeros."""
    out = {}
    for x, f in fibres.items():
        if modulus:
            reduced = {}
            for k, c in f.items():
                reduced[k % modulus] = reduced.get(k % modulus, 0) + c
            f = reduced
        f = {k: c for k, c in f.items() if c}
        if f:
            out[x] = f
    return out


def _collect(pairs):
    """Fibres of the sum of ((coords, k), coeff) pairs."""
    fibres = {}
    for (x, k), c in pairs:
        f = fibres.setdefault(x, {})
        f[k] = f.get(k, 0) + c
    return _pruned(fibres)


def _add_fibres(left, right):
    """Fibres of a sum.  Stored fibres are never written: a fibre that both
    operands have is rebuilt, any other is shared."""
    out = dict(left)
    for x, fy in right.items():
        if x in out:
            fx = dict(out.pop(x))
            for k, c in fy.items():
                fx[k] = fx.get(k, 0) + c
            fy = {k: c for k, c in fx.items() if c}
        if fy:
            out[x] = fy
    return out


def _fibre_mul(left, right, twisted=True, modulus=0):
    """Fibres of the product: (k, x)(l, y) = (k + l + omega(x, y), x + y),
    without omega unless twisted, then every k reduced mod a nonzero modulus.
    omega and x + y are computed once per pair of fibres."""
    out = {}
    right = [(y, list(fy.items())) for y, fy in right.items()]
    for x, fx in left.items():
        for y, fy in right:
            w = heis.omega(x, y) if twisted else 0
            if modulus:  # fewer distinct k + l + w to fold in _pruned
                w %= modulus
            acc = out.setdefault(tuple(map(operator.add, x, y)), {})
            for k, c in fx.items():
                k += w
                for l, d in fy:
                    acc[k + l] = acc.get(k + l, 0) + c * d
    return _pruned(out, modulus)


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
    """Element of the group ring, stored as fibres {coords: {k: nonzero int}}
    that are shared between polynomials and never written after construction.
    terms is the {HeisElement: coeff} view, built on each access."""

    __slots__ = ("genus", "fibres")

    def __init__(self, genus, terms=None):
        pairs = terms.items() if isinstance(terms, dict) else list(terms or ())
        if any(elem.genus != genus for elem, _ in pairs):
            raise ValueError("genus mismatch")
        self.genus, self.fibres = genus, _collect(((e.coords, e.k), c) for e, c in pairs)

    @property
    def terms(self):
        return {HeisElement(self.genus, k, x): c
                for x, f in self.fibres.items() for k, c in f.items()}

    @classmethod
    def _of(cls, genus, fibres):
        out = cls.__new__(cls)
        out.genus, out.fibres = genus, fibres
        return out

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
        return self._of(self.genus, _add_fibres(self.fibres, other.fibres))

    def __neg__(self):
        return self._of(self.genus, {x: {k: -c for k, c in f.items()}
                                     for x, f in self.fibres.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._of(self.genus, {x: {k: c * other for k, c in f.items()}
                                         for x, f in self.fibres.items()} if other else {})
        if isinstance(other, HeisElement):
            other = HeisPolynomial.monomial(other)
        self._check(other)
        return self._of(self.genus, _fibre_mul(self.fibres, other.fibres))

    def __rmul__(self, other):
        if isinstance(other, HeisElement):
            return HeisPolynomial.monomial(other) * self
        return self * other if isinstance(other, int) else NotImplemented

    def __eq__(self, other):
        return (isinstance(other, HeisPolynomial)
                and self.genus == other.genus and self.fibres == other.fibres)

    def __hash__(self):
        return hash((self.genus, frozenset((x, frozenset(f.items()))
                                           for x, f in self.fibres.items())))

    def is_zero(self):
        return not self.fibres

    def sorted_terms(self):
        """Terms in the canonical order: lexicographic on (k, coords)."""
        if not self.fibres:  # most entries of a large twist matrix
            return []
        return [(HeisElement(self.genus, k, x), c) for k, x, c in
                sorted((k, x, c) for x, f in self.fibres.items() for k, c in f.items())]

    def __str__(self):
        return format_sum(self.sorted_terms())

    def __repr__(self):
        return f"HeisPolynomial({self})"

    def to_json(self):
        return [{"k": e.k, "coords": list(e.coords), "c": c} for e, c in self.sorted_terms()]

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
    """A quotient ring of the group ring, named as on the command line, as
    kernel parameters and a map of terms.  'torsion<N>' (modulo u^N) places
    (k, x) at (x, k mod N), twisted, modulus N; 'moriyama' (Z[u]/(u^2-1)) at
    ((), k - quadratic(x) mod 2), the word-form exponent, untwisted, modulus
    2; 'abelian' (u -> 1) at (x, 0), untwisted.  place(coords, k) is the
    placed (coords, k), key(coords, k) its printed and sorted key, and
    lift(genus, key) a group element with that key, which a sum prints.
    """
    name: str
    modulus: int
    twisted: bool
    place: object = field(compare=False, repr=False)
    key: object = field(compare=False, repr=False)
    lift: object = field(compare=False, repr=False)


MORIYAMA = Quotient(
    "moriyama", 2, False,
    lambda x, k: ((), (k - heis.quadratic(x)) % 2),
    lambda x, k: k,
    lambda genus, key: HeisElement(genus, key, (0,) * (2 * genus)))

ABELIAN = Quotient(
    "abelian", 0, False,
    lambda x, k: (x, 0),
    lambda x, k: x,
    lambda genus, key: HeisElement(genus, heis.quadratic(key), key))


def torsion(N):
    """The quotient by the central subgroup generated by u^N."""
    if N < 1:
        raise ValueError("N must be >= 1")

    def lift(genus, key):
        # the lift whose word-form u-exponent lies in [0, N)
        q = heis.quadratic(key[1])
        return HeisElement(genus, q + (key[0] - q) % N, key[1])

    return Quotient(f"torsion{N}", N, True, lambda x, k: (x, k % N),
                    lambda x, k: (k, x), lift)


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
    """Image of a group-ring element in a Quotient, stored as the fibres of
    its placed terms; terms is the sorted tuple of (key, coeff), built on
    each access."""
    quotient: Quotient
    genus: int
    fibres: dict

    @property
    def terms(self):
        key = self.quotient.key
        return tuple(sorted((key(x, k), c) for x, f in self.fibres.items() for k, c in f.items()))

    def __hash__(self):
        return hash((self.quotient, self.genus, self.terms))

    def _target(self, other):
        if (self.quotient, self.genus) != (other.quotient, other.genus):
            raise ValueError("specialization target mismatch")
        return self.quotient

    def __add__(self, other):
        return SpecializedPolynomial(self._target(other), self.genus,
                                     _add_fibres(self.fibres, other.fibres))

    def __mul__(self, other):
        q = self._target(other)
        return SpecializedPolynomial(q, self.genus, _fibre_mul(
            self.fibres, other.fibres, q.twisted, q.modulus))

    def is_one(self):
        return self == specialize(HeisPolynomial.one(self.genus), self.quotient)

    def is_zero(self):
        return not self.fibres

    def __str__(self):
        lift = self.quotient.lift
        return format_sum((lift(self.genus, key), c) for key, c in self.terms)


def specialize(p, q):
    """Image of the group-ring element p in the Quotient q."""
    return SpecializedPolynomial(q, p.genus, _collect(
        (q.place(x, k), c) for x, f in p.fibres.items() for k, c in f.items()))


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
    """Apply an automorphism to every group element of a polynomial:
    tau(k, x) = (k + delta(x), Sx) is applied once per coordinate fibre, to
    (0, x), and every k of the fibre moves by delta(x).  tau is a bijection,
    so no two fibres merge."""
    out = {}
    for x, f in p.fibres.items():
        image = tau.apply(HeisElement(p.genus, 0, x))
        out[image.coords] = {k + image.k: c for k, c in f.items()}
    return HeisPolynomial._of(p.genus, out)
