"""Sparse exact arithmetic in the integral group ring of the Heisenberg group.

A polynomial is stored as its coordinate fibres {coords: {k: nonzero int}}.
One kernel multiplies in the group ring, in its quotients (_fibre_mul) and
in matrix products (fibre_mat_mul), with each term (k, x) an integer key:

- packing: but in term mode (width 0, see _operands), a fibre is cut where
  it skips more than _GAP slots (below _MIN_RUN terms, into its terms), and
  the terms c u^k of each piece from lo become one integer, the sum of
  c 2^(8 width (k - lo)) (Kronecker substitution), with L1(left) L1(right)
  < 2^(8 width - 1) bounding every slot of every sum;
- keys: the coordinates in fixed biased slots below top, and k 2^top in
  term mode, so (k, x)(l, y) has the key key(x, k) + key(y, l) +
  omega(x, y) 2^top.  omega against every run of the operand of more
  fibres is computed once per fibre of the other, from columns of dual
  coordinates, each packed into one integer from _PACKED_OMEGA runs on;
- output: in term mode summed under the keys and grouped by coordinates;
  packed, one integer per output fibre from one base exponent, at most
  _SLOTS_PER_PAIR slots per term pair, to which each pair of runs adds its
  product shifted to its exponent; trimmed, and all decoded at once.

A single-term operand translates the other's fibres instead.  The module
also provides the three specialization homomorphisms (to Z[u]/(u^2-1), to
the commutative Laurent ring, and to the central N-torsion quotient), each
applied once per fibre, and the entrywise action of Heisenberg
automorphisms.
"""

import itertools
import operator
import re
import sys

from . import heis
from .heis import HeisElement


def _pruned(fibres, modulus=0):
    """Fibres with each k reduced mod a nonzero modulus and no zeros, in a
    new dict; a single-term fibre is placed at once, and a fibre is filtered
    only when it holds a zero (else, with no modulus, it is the input's own)."""
    out = {}
    for x, f in fibres.items():
        if modulus:
            if len(f) == 1:
                (k, c), = f.items()
                f = {k % modulus: c}
            else:
                reduced = {}
                for k, c in f.items():
                    reduced[k % modulus] = reduced.get(k % modulus, 0) + c
                f = reduced
        if 0 in f.values():
            f = {k: c for k, c in f.items() if c}
        if f:
            out[x] = f
    return out


def _sum_fibres(summands):
    """Fibres of the sum of the fibres in summands.  Stored fibres are never
    written: a fibre that one summand alone has is shared, any other is
    summed into a new one."""
    summands = iter(summands)
    out, summed = dict(next(summands, {})), {}
    for fibres in summands:
        for x, f in fibres.items():
            if x not in out:
                out[x] = f
                continue
            g = summed.get(x) or summed.setdefault(x, dict(out[x]))
            for k, c in f.items():
                g[k] = g.get(k, 0) + c
    for x, g in summed.items():
        g = out[x] = {k: c for k, c in g.items() if c}
        if not g:
            del out[x]
    return out


# Signed slot formats by slot width in bytes, for writing and reading
# packed runs and keys through a memoryview (native order, so little-endian
# hosts only; other widths and hosts go slot by slot).
_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"} if sys.byteorder == "little" else {}

# A packed run never skips more than this many empty slots in a row.
_GAP = 8

# Fibres of fewer terms are not packed.
_MIN_RUN = 4


def _slot_width(bound):
    """Bytes per packed slot holding any integer of absolute value at most
    bound: 1, 2, 4 or 8, and beyond 8 the least that suffices."""
    size = (bound.bit_length() + 8) // 8
    return size if size > 8 else 1 << (size - 1).bit_length()


def _bias(n, width):
    """The packed run of n slots that all hold 2^(8 width - 1): added, it
    leaves no slot negative, and XOR then toggles two's complement slots."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pack_run(terms, lo, n, width):
    """sum of c 2^(8 width (k - lo)) over the (k, c) in terms, all k in
    [lo, lo + n): the slots are written in two's complement and the bias
    put back by XOR (see _bias)."""
    data, bias = bytearray(n * width), _bias(n, width)
    if width in _FORMATS:
        slots = memoryview(data).cast(_FORMATS[width])
        for k, c in terms:
            slots[k - lo] = c
    else:
        for k, c in terms:
            data[(k - lo) * width:(k - lo + 1) * width] = c.to_bytes(width, "little", signed=True)
    return (int.from_bytes(data, "little") ^ bias) - bias


def _cut(f, width):
    """Runs {lo: the sum of c 2^(8 width (k - lo))} of a fibre {k: c}, cut
    where it skips more than _GAP slots (a run of one term is c)."""
    terms = sorted(f.items())
    cuts = [i for i in range(1, len(terms)) if terms[i][0] - terms[i - 1][0] > _GAP]
    return {p[0][0]: _pack_run(p, p[0][0], p[-1][0] - p[0][0] + 1, width) if p[1:] else p[0][1]
            for p in (terms[i:j] for i, j in zip([0] + cuts, cuts + [len(terms)]))}


def _key_layout(n, coords, tags=0):
    """(width, shifts, bias, top) of the keys k 2^top + bias + the sum of
    x_j 2^shifts[j], with n slots of width bytes that hold every x + y over
    coords and every tag up to tags; bias holds 2^(8 width - 1) in each slot
    so that keys add slot by slot, and k takes the top, which needs no bound."""
    width = _slot_width(max(2 * max(map(abs, itertools.chain.from_iterable(coords)), default=0),
                            tags))
    return width, range(0, 8 * width * n, 8 * width), _bias(n, width), 8 * width * n


# Most slots per term pair that aligned accumulators may take, S times the
# pairs of pieces (see _operands; pairs of fibres would miss fibres cut into
# many pieces): over seeds 1, 101, 701, 911 and 2001, the 17 packing products
# of mcg_words read 1.7 to 60.9 (median 21.3), those of ring_scatter up to
# 48.2, and one dense fibre among 200 scattered genus-2 terms, squared, 135.
_SLOTS_PER_PAIR = 64


def _operands(products, n, modulus=0):
    """(width, base, pairs) for the sum of products, pairs of left and right
    [(tag, fibres)], each side of pairs flat as [(x, runs, tag)] (see
    _mul_into).  Aligned, runs are a fibre of _MIN_RUN terms cut (see _cut)
    or a shorter one, in slots that hold the sum of L1(left) L1(right), each
    the largest of its side, from base lo(left) + lo(right) - n cmax(left)
    cmax(right) (that bound of |omega| left out mod N).  Term mode (0, None,
    runs the fibres) with no fibre of _MIN_RUN terms, or if S = span(left) +
    span(right) + (2 |omega| + 1, or N) slots per pair of runs exceed
    _SLOTS_PER_PAIR per term pair, summed over products."""
    def pairs(operands):
        return sum(a * b for a, b in ([sum(len(r) for _, r, _ in side) for side in pair]
                                      for pair in operands))
    terms = [tuple([(x, f, tag) for tag, fibres in side for x, f in fibres.items()]
                   for side in pair) for pair in products]
    if max((len(f) for pair in terms for side in pair for _, f, _ in side), default=0) < _MIN_RUN:
        return 0, None, terms
    width = _slot_width(sum(a * b for a, b in (
        [max(_l1_norm(fibres) for _, fibres in side) for side in pair] for pair in products)))
    runs = [tuple([(x, _cut(f, width) if len(f) >= _MIN_RUN else f, tag) for x, f, tag in side]
                  for side in pair) for pair in terms]
    sides = [[e for pair in terms for e in pair[i]] for i in (0, 1)]
    lo, hi = ([g(map(g, (f for _, f, _ in side))) for side in sides] for g in (min, max))
    cmax = [max(map(abs, itertools.chain.from_iterable(x for x, _, _ in side)), default=0)
            for side in sides]
    bound = 0 if modulus else n * cmax[0] * cmax[1]
    slots = hi[0] - lo[0] + hi[1] - lo[1] + (modulus or 2 * bound + 1)
    if slots * pairs(runs) > _SLOTS_PER_PAIR * pairs(terms):
        return 0, None, terms
    return width, lo[0] + lo[1] - bound, runs


# A flattened operand of at least this many runs takes omega from packed
# columns (see _mul_into); below it, summing the columns term by term is faster.
_PACKED_OMEGA = 24


def _mul_into(acc, left, right, layout, modulus=0, width=0, base=0):
    """Add the product of left and right, packed at width, to acc:
    (k, x)(l, y) = (k + l + omega(x, y), x + y), tags included, omega
    reduced into [0, N) mod a modulus N and left out mod 1.  At width 0 acc
    is {key(x, k) + key(y, l) + omega 2^top: c}, else {key(x + y): sum from
    exponent base}, to which runs from k and l add their product shifted by
    8 width (k + l + omega - base) bits.  The operand of more fibres is
    flattened into columns, one entry per run: keys, exponents, coefficients
    and the n coordinates of dual(y), omega(x, y) being x[::2] + x[1::2]
    dotted with dual(y) (negated for a flat left); per fibre x of the other,
    omega against every run sums the columns scaled by the nonzero x_j, from
    _PACKED_OMEGA runs on packed (see _pack_run) and read by one _slots call."""
    _, shifts, bias, top = layout
    kshift = 0 if width else top  # an exponent counts slots, or sits at the top of a key
    bits = 8 * width
    add, mul, lshift, repeat = operator.add, operator.mul, operator.lshift, itertools.repeat
    sign = 1
    if len(left) > len(right):
        left, right, sign = right, left, -1
    packed = modulus != 1 and sum(len(runs) for _, runs, _ in right) >= _PACKED_OMEGA
    scale = 0 if modulus == 1 else sign if packed else sign << kshift
    keys, exps, coeffs, duals = [], [], [], []
    for y, runs, tag in right:
        key = sum(map(lshift, y, shifts)) + tag
        offset = -base if width else key  # a term's key holds its exponent
        dual = tuple(map(mul, y[1::2] + tuple(map(operator.neg, y[::2])), repeat(scale)))
        keys += [key] * len(runs)
        exps += [(lo << kshift) + offset for lo in runs]
        coeffs += runs.values()
        duals += [dual] * len(runs)
    duals = list(zip(*duals)) if scale else []
    if packed and duals:
        cmax = max(map(abs, itertools.chain.from_iterable(
            x for x, _, _ in itertools.chain(left, right))))
        slot = _slot_width(len(duals) * cmax * cmax)
        duals = [_pack_run(enumerate(column), 0, len(keys), slot) for column in duals]
        wbias, size = _bias(len(keys), slot), len(keys) * slot
    get = acc.get
    for x, runs, tag in left:
        xs = x[::2] + x[1::2]
        if not (duals and any(xs)):
            xexps = exps
        elif packed:
            omegas = sum(dual * xj for xj, dual in zip(xs, duals) if xj)
            omegas = _slots([(omegas + wbias) ^ wbias], [size], slot)
            if modulus:
                omegas = map(operator.mod, omegas, repeat(modulus))
            xexps = list(map(add, exps, map(lshift, omegas, repeat(kshift))))
        else:
            omegas = None
            for xj, dual in zip(xs, duals):
                if xj:
                    scaled = map(mul, dual, repeat(xj))
                    omegas = scaled if omegas is None else map(add, omegas, scaled)
            if modulus:
                omegas = map(operator.mod, omegas, repeat(modulus << kshift))
            xexps = list(map(add, exps, omegas))
        key = sum(map(lshift, x, shifts)) + bias + tag
        for lo, v in runs.items():
            if width:
                for k, e, d in zip(keys, xexps, coeffs):
                    k += key
                    acc[k] = get(k, 0) + ((v * d) << bits * (e + lo))
            else:
                lo = key + (lo << top)
                for k, d in zip(xexps, coeffs):
                    k += lo
                    acc[k] = get(k, 0) + v * d


def _slots(codes, sizes, width):
    """The slots of width bytes of unbiased codes (see _bias), lowest first,
    each code of its size in bytes: written out at once and read back at
    once as signed slots (slot by slot past 8 bytes or on other hosts)."""
    data = b"".join(map(int.to_bytes, codes, sizes, itertools.repeat("little")))
    if width in _FORMATS:
        return memoryview(data).cast(_FORMATS[width]).tolist()
    return [int.from_bytes(data[i:i + width], "little", signed=True)
            for i in range(0, len(data), width)]


def _unpack(acc, layout, width=0, base=0, modulus=0):
    """Fibres of the sum that acc holds (see _mul_into), each k reduced mod
    a nonzero modulus: grouped by coords at width 0, else trimmed to the
    nonzero slots, from the lowest set bit (each slot holds |c| < 2^(8 width
    - 1)) to the top of the bit length; decoded at once, then all coords."""
    cwidth, shifts, bias, top = layout
    mask, shift, fibres, spans = (1 << top) - 1, 8 * width, {}, []
    if width:
        for key, v in acc.items():
            if v:
                j = ((v & -v).bit_length() - 1) // shift  # the lowest nonzero slot
                spans.append((key, base + j, v.bit_length() // shift - j + 1, v >> shift * j))
    else:
        for key, v in acc.items():
            if v:
                z, k = key & mask, (key >> top) % modulus if modulus else key >> top
                f = fibres.get(z)
                if f is None:
                    fibres[z] = {k: v}
                else:
                    v += f.pop(k, 0)  # only under a modulus is k in f
                    if v:
                        f[k] = v
    if spans:
        biases = {n: _bias(n, width) for n in {n for _, _, n, _ in spans}}  # by length
        slots, end = _slots([(v + biases[n]) ^ biases[n] for _, _, n, v in spans],
                            [width * n for _, _, n, _ in spans], width), 0
        for z, lo, n, _ in spans:
            cs, end = slots[end:end + n], end + n
            fibres[z] = dict(itertools.compress(zip(range(lo, lo + n), cs), cs))
        fibres = _pruned(fibres, modulus) if modulus else fibres
    codes = map(operator.xor, fibres, itertools.repeat(bias))
    coords = (zip(*[iter(_slots(codes, itertools.repeat(top // 8), cwidth))] * len(shifts)) if top
              else [()] * len(fibres))
    out = dict(zip(coords, fibres.values()))
    return out if all(fibres.values()) else {x: f for x, f in out.items() if f}


def _l1_norm(fibres):
    """Sum of the absolute values of the coefficients."""
    return sum(map(abs, itertools.chain.from_iterable(map(dict.values, fibres.values()))))


def _single(fibres):
    """(coords, k, c) of the only term of fibres, or None."""
    if len(fibres) == 1:
        (x, f), = fibres.items()
        if len(f) == 1:
            (k, c), = f.items()
            return x, k, c
    return None


def _translated(term, fibres, on_left, modulus):
    """Fibres of term * fibres (or fibres * term unless on_left): each fibre
    moves as a whole, with no packing."""
    x, k, c = term
    out = {}
    for y, f in fibres.items():
        w = k + ((heis.omega(x, y) if on_left else heis.omega(y, x)) if modulus != 1 else 0)
        out[tuple(map(operator.add, x, y))] = {l + w: c * d for l, d in f.items()}
    return _pruned(out, modulus) if modulus else out


def _fibre_mul(left, right, modulus=0):
    """Fibres of the product (see _mul_into), every k reduced mod a nonzero
    modulus.  A single-term operand translates the other's fibres."""
    if not (left and right):
        return {}
    for one, other, on_left in ((left, right, True), (right, left, False)):
        term = _single(one)
        if term:
            return _translated(term, other, on_left, modulus)
    n = len(next(iter(left)))
    layout = _key_layout(n, itertools.chain(left, right))
    width, base, ((left, right),) = _operands([([(0, left)], [(0, right)])], n, modulus)
    acc = {}
    _mul_into(acc, left, right, layout, modulus, width, base)
    return _unpack(acc, layout, width, base, modulus)


def fibre_mat_mul(a_columns, b_rows, rows):
    """Entries of a matrix product over the fibres of its nonzero entries:
    a_columns lists the nonzero (row, fibres) of each column of A, of rows
    rows, and b_rows those (column, fibres) of each row of B.  Row i of the
    result is {j: fibres}, one sum over k of A_ik B_kj (see _mul_into), each
    term tagged with i and j in two key slots past the coordinates."""
    entries = [f for line in a_columns + b_rows for _, f in line]
    n = len(next(iter(entries[0]))) if entries else 0
    last = max((j for row in b_rows for j, _ in row), default=0)
    layout = _key_layout(n + 2, itertools.chain.from_iterable(entries), max(rows, last))
    row_tag, column_tag = layout[1][n:]
    products = [([(i << row_tag, f) for i, f in column], [(j << column_tag, f) for j, f in row])
                for column, row in zip(a_columns, b_rows) if column and row]
    width, base, pairs = _operands(products, n)
    acc = {}
    for left, right in pairs:
        _mul_into(acc, left, right, layout, 0, width, base)
    out = [{} for _ in range(rows)]
    for x, f in _unpack(acc, layout, width, base).items():
        out[x[n]].setdefault(x[n + 1], {})[x[:n]] = f
    return out


def format_sum(pairs):
    """Render (word, nonzero coeff) pairs, in the given order, as a signed
    sum such as '-2 u a1 + 3 - b1^-1'; '0' when there are none."""
    parts = []
    for word, coeff in pairs:
        size = abs(coeff)
        body = str(size) if word == "1" else word if size == 1 else f"{size} {word}"
        parts.append(("- " if coeff < 0 else "+ ") + body)
    if not parts:
        return "0"
    text = " ".join(parts)
    # the leading sign: "+ " is dropped and "- " becomes "-"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _sorted_terms(fibres):
    """(k, coords, c) of every term, lexicographic on (k, coords)."""
    return sorted([(k, x, c) for x, f in fibres.items() for k, c in f.items()])


def poly_latex(p):
    return p.render(latex=True)


class HeisPolynomial:
    """Element of the group ring, stored as fibres {coords: {k: nonzero int}}
    that are shared between polynomials and never written after construction.
    terms is the {HeisElement: coeff} view, built on each access."""

    __slots__ = ("genus", "fibres")

    def __init__(self, genus, terms=None):
        fibres = {}
        for elem, c in terms.items() if isinstance(terms, dict) else terms or ():
            if elem.genus != genus:
                raise ValueError("genus mismatch")
            f = fibres.setdefault(elem.coords, {})
            f[elem.k] = f.get(elem.k, 0) + c
        self.genus, self.fibres = genus, _pruned(fibres)

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
        return self._of(self.genus, _sum_fibres([self.fibres, other.fibres]))

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

    def render(self, latex=False):
        """The terms as a sum in word form, in the order of _sorted_terms: each
        term adds its u-power to its fibre's letters, built once per fibre."""
        if not self.fibres:  # most entries of a large twist matrix
            return "0"
        words = {x: (heis.quadratic(x), heis.letters(x, latex)) for x in self.fibres}
        return format_sum((heis.word(k - words[x][0], words[x][1], latex), c)
                          for k, x, c in _sorted_terms(self.fibres))

    __str__ = render

    def __repr__(self):
        return f"HeisPolynomial({self})"

    def to_json(self):
        return [{"k": k, "coords": list(x), "c": c} for k, x, c in _sorted_terms(self.fibres)]


# ---------------------------------------------------------------------------
# Expression parsing.  Grammar (whitespace-insensitive):
#   expr    := ['+'|'-'] product (('+'|'-') product)*    (summed once)
#   product := factor+                      (juxtaposition is multiplication)
#   factor  := term | '(' expr ')' ['^' int]
#   term    := (integer | symbol ['^' int])+   (a longest run: c h, h = heis.from_word(letters))
#   symbol  := 'u' | 'a' | 'b' | 'a<i>' | 'b<i>'   (heis.NAME, ASCII digits)
# ---------------------------------------------------------------------------

# Largest n accepted in (expr)^n; each step is one full product.
MAX_POWER = 16
# Most term pairs one parsed product may multiply (a juxtaposition, a mul
# operand, a step of (expr)^n); the slowest admitted step, 6528 x 30
# scattered terms at genus 16, takes about 1.3 s (2-core Xeon VM).
MAX_POWER_STEP = 200_000


def bounded_product(left, right, what="product"):
    """left * right, refused before it runs above MAX_POWER_STEP term pairs."""
    pairs = sum(map(len, left.fibres.values())) * sum(map(len, right.fibres.values()))
    if pairs > MAX_POWER_STEP:
        raise ValueError(f"{what} needs more than {MAX_POWER_STEP} term products in one step")
    return left * right


_EXPR_TOKEN = re.compile(rf"\s*(?:(?P<int>{heis.DIGITS})|(?P<sym>{heis.NAME.pattern})"
                         rf"|\^(?P<pow>{heis.INTEGER})|([+\-()]))")


def _tokens(text):
    """The tokens of text, the next one last, over an end (None, None) that no
    rule accepts: ('int', n), ('sym', name), ('pow', n) or (c, None), c in '+-()'."""
    tokens, pos = [], 0
    for m in _EXPR_TOKEN.finditer(text):
        if m.start() != pos:
            break
        kind = m.lastgroup  # None for one of '+-()'
        tokens.append((kind, m[kind] if kind == "sym" else int(m[kind])) if kind else (m[4], None))
        pos = m.end()
    if text[pos:].strip():
        raise ValueError(f"bad expression near {text[pos:]!r}")
    return [(None, None)] + tokens[::-1]


def parse_poly(genus, text):
    """Parse a polynomial expression such as '(u^-1 - 1) a^-1 b + u^2'."""
    tokens = _tokens(text)

    def expr():
        if tokens[-1][0] not in ("+", "-"):
            tokens.append(("+", None))  # the first product may be unsigned
        summands = []
        while tokens[-1][0] in ("+", "-"):
            summands.append((product() if tokens.pop()[0] == "+" else -product()).fibres)
        return HeisPolynomial._of(genus, _sum_fibres(summands))

    def product():
        result = factor()
        while tokens[-1][0] in ("int", "sym", "("):
            result = bounded_product(result, factor())
        return result

    def factor():
        if tokens[-1][0] in ("int", "sym"):
            c, word = 1, []
            while tokens[-1][0] in ("int", "sym"):
                kind, value = tokens.pop()
                if kind == "int":
                    c *= value
                else:
                    word.append((value, tokens.pop()[1] if tokens[-1][0] == "pow" else 1))
            h = heis.from_word(genus, word)
            return HeisPolynomial._of(genus, {h.coords: {h.k: c}} if c else {})
        kind = tokens.pop()[0]
        if kind != "(":
            raise ValueError(f"unexpected token {kind!r}" if kind
                             else "expression ends where a term is expected")
        inner = expr()
        if tokens.pop()[0] != ")":
            raise ValueError("unbalanced parentheses")
        if tokens[-1][0] != "pow":
            return inner
        power = tokens.pop()[1]
        if not 0 <= power <= MAX_POWER:
            raise ValueError(f"(expr)^n needs 0 <= n <= {MAX_POWER}; "
                             "negative powers only on group generators")
        result = HeisPolynomial.one(genus)
        for _ in range(power):
            result = bounded_product(result, inner, f"(expr)^{power}")
        return result

    result = expr()
    if len(tokens) > 1:
        raise ValueError("trailing tokens in expression")
    return result


# ---------------------------------------------------------------------------
# Specializations.
# ---------------------------------------------------------------------------

class Quotient(heis.Record):
    """A quotient ring of the group ring, named as on the command line, as
    a modulus and a map of fibres; omega vanishes mod 1.  'torsion<N>'
    (modulo u^N) places (k, x) at (x, k mod N), modulus N; 'moriyama'
    (Z[u]/(u^2-1)) at ((), k - quadratic(x) mod 2), the word-form exponent,
    modulus 2; 'abelian' (u -> 1) at (x, 0), modulus 1.  place(fibres) is
    the fibres of the placed terms, key(coords, k) the printed and sorted
    key of a placed term, and lift(genus, key) a group element with that
    key, which a sum prints.
    """
    __slots__ = ("name", "modulus", "place", "key", "lift")
    _fields = ("name", "modulus")  # so two torsion(N) are interchangeable

    def __init__(self, name, modulus, place, key, lift):
        self._init(name, modulus, place, key, lift)


def _place_moriyama(fibres):
    sums = [0, 0]
    for x, f in fibres.items():
        q = sum(map(operator.mul, x[::2], x[1::2]))  # heis.quadratic(x), inline
        for k, c in f.items():
            sums[(k - q) % 2] += c
    f = {k: c for k, c in enumerate(sums) if c}
    return {(): f} if f else {}


def _place_abelian(fibres):
    return {x: {0: c} for x, c in zip(fibres, map(sum, map(dict.values, fibres.values()))) if c}


MORIYAMA = Quotient(
    "moriyama", 2, _place_moriyama,
    lambda x, k: k,
    lambda genus, key: HeisElement(genus, key, (0,) * (2 * genus)))

ABELIAN = Quotient(
    "abelian", 1, _place_abelian,
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

    return Quotient(f"torsion{N}", N, lambda fibres: _pruned(fibres, N),
                    lambda x, k: (k, x), lift)


def quotient(name, order=0):
    """The quotient called 'moriyama', 'abelian' or 'torsion<N>'; the name
    'torsion' takes N from order."""
    if name == "moriyama":
        return MORIYAMA
    if name == "abelian":
        return ABELIAN
    if re.fullmatch(f"torsion({heis.INDEX})?", name) and (name[7:] or order):
        return torsion(int(name[7:] or order))
    raise ValueError(f"unknown specialization {name!r}")


class SpecializedPolynomial(heis.Record):
    """Image of a group-ring element in a Quotient, stored as the fibres of
    its placed terms; terms is the sorted tuple of (key, coeff), built on
    each access."""
    __slots__ = ("quotient", "genus", "fibres")

    def __init__(self, quotient, genus, fibres):
        self._init(quotient, genus, fibres)

    @property
    def terms(self):
        key = self.quotient.key
        return tuple(sorted((key(x, k), c) for x, f in self.fibres.items() for k, c in f.items()))

    def __hash__(self):
        return hash((self.quotient, self.genus, self.terms))

    def _target(self, other):
        if not isinstance(other, SpecializedPolynomial):
            raise TypeError("expected a SpecializedPolynomial")
        if (self.quotient, self.genus) != (other.quotient, other.genus):
            raise ValueError("specialization target mismatch")
        return self.quotient

    def __add__(self, other):
        return SpecializedPolynomial(self._target(other), self.genus,
                                     _sum_fibres([self.fibres, other.fibres]))

    def __mul__(self, other):
        q = self._target(other)
        return SpecializedPolynomial(q, self.genus,
                                     _fibre_mul(self.fibres, other.fibres, q.modulus))

    def is_one(self):
        return self == specialize(HeisPolynomial.one(self.genus), self.quotient)

    def is_zero(self):
        return not self.fibres

    def render(self, latex=False):
        """The sum of the lifts of the terms in word form, in the order of terms."""
        lift = self.quotient.lift
        return format_sum((lift(self.genus, key).word_str(latex), c) for key, c in self.terms)

    __str__ = render

    def to_json(self):
        return self.terms


def specialize(p, q):
    """Image of the group-ring element p in the Quotient q."""
    return SpecializedPolynomial(q, p.genus, q.place(p.fibres))


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
