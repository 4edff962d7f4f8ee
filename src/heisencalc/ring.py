"""Sparse exact arithmetic in the integral group ring of the Heisenberg group.

A polynomial is stored as its coordinate fibres {coords: {k: nonzero int}}.
One kernel multiplies in the group ring, in its quotients (_fibre_mul) and
in matrix products (fibre_mat_mul), with each term (k, x) an integer key:

- packing: a fibre is cut where it skips more than _GAP slots, and the
  terms c u^k of a piece of at least _MIN_RUN terms from lo become one
  integer, the sum of c 2^(8 width (k - lo)) (Kronecker substitution), with
  L1(left) L1(right) < 2^(8 width - 1), which bounds every slot of every
  partial sum; other terms stay single;
- keys: the key of a run is lo 2^top plus the coordinates in fixed biased
  slots below top, so (k, x)(l, y) has the key key(x, k) + key(y, l) +
  omega(x, y) 2^top, and a pair of runs costs one product and one sum.
  omega against every run of the operand of more fibres is computed once
  per fibre of the other, from columns of that operand's dual coordinates,
  each packed into one integer from _PACKED_OMEGA runs on;
- output: products are summed while packed under their keys, grouped by
  coordinates and summed into runs; the runs of every output fibre, then
  the coordinates of all of them, are each decoded in one pass.

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

# Fibres, and pieces of fibres, of fewer terms are not packed.
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
    """Runs {lo: packed} of a fibre {k: c}: it is cut where it skips more
    than _GAP slots, pieces of at least _MIN_RUN terms are packed, and the
    others left as single terms."""
    terms = sorted(f.items())
    cuts = [i for i in range(1, len(terms)) if terms[i][0] - terms[i - 1][0] > _GAP]
    runs = {}
    for i, j in zip([0] + cuts, cuts + [len(terms)]):
        if j - i < _MIN_RUN:
            runs.update(terms[i:j])
        else:
            lo = terms[i][0]
            runs[lo] = _pack_run(terms[i:j], lo, terms[j - 1][0] - lo + 1, width)
    return runs


def _pack(fibres, width, tag=0):
    """[(x, runs, tag)] of fibres, with tag a key offset (see _mul_into).
    Runs {lo: packed} stand for the terms c u^k with sum of
    c 2^(8 width (k - lo)) = packed; single terms stay as they are (see _cut)."""
    return [(x, f if len(f) < _MIN_RUN else _cut(f, width), tag) for x, f in fibres.items()]


def _key_layout(n, coords, tags=0):
    """(width, shifts, bias, top) of the keys k 2^top + bias + the sum of
    x_j 2^shifts[j], with n slots of width bytes that hold every x + y over
    coords and every tag up to tags; bias holds 2^(8 width - 1) in each slot
    so that keys add slot by slot, and k takes the top, which needs no bound."""
    width = _slot_width(max(2 * max(map(abs, itertools.chain.from_iterable(coords)), default=0),
                            tags))
    return width, range(0, 8 * width * n, 8 * width), _bias(n, width), 8 * width * n


# A flattened operand of at least this many runs takes omega from packed
# columns (see _mul_into); below it, summing the columns term by term is faster.
_PACKED_OMEGA = 24


def _mul_into(acc, left, right, layout, modulus=0):
    """Add the product of packed left and right to acc {key: packed sum}:
    (k, x)(l, y) = (k + l + omega(x, y), x + y) has the key
    key(x, k) + key(y, l) + omega(x, y) 2^top, tags included, omega reduced
    mod a nonzero modulus and left out mod 1.  The operand of more
    fibres is flattened into columns, one entry per run: keys, coefficients
    and the n coordinates of dual(y), with omega(x, y) the dot product of
    x[::2] + x[1::2] and dual(y) (negated for a flat left).  Per fibre x of
    the other operand, omega against every run is one sum of the columns
    scaled by the nonzero x_j, and each pair of runs costs one product.
    From _PACKED_OMEGA runs on, each column is one packed run (see _pack_run)
    in slots that hold any omega, and the sum is read back by one _slots
    call; below that, the columns hold dual(y) 2^top and are summed term by
    term."""
    _, shifts, bias, top = layout
    add, mul, lshift, repeat = operator.add, operator.mul, operator.lshift, itertools.repeat
    sign = 1
    if len(left) > len(right):
        left, right, sign = right, left, -1
    packed = modulus != 1 and sum(len(runs) for _, runs, _ in right) >= _PACKED_OMEGA
    scale = 0 if modulus == 1 else sign if packed else sign << top
    keys, coeffs, duals = [], [], []
    for y, runs, tag in right:
        key = sum(map(lshift, y, shifts)) + tag
        dual = tuple(map(mul, y[1::2] + tuple(map(operator.neg, y[::2])), repeat(scale)))
        for lo, c in runs.items():
            keys.append(key + (lo << top))
            coeffs.append(c)
            duals.append(dual)
    duals = list(zip(*duals)) if scale else []
    if packed and duals:
        cmax = max(map(abs, itertools.chain.from_iterable(
            x for x, _, _ in itertools.chain(left, right))))
        width = _slot_width(len(duals) * cmax * cmax)
        duals = [_pack_run(enumerate(column), 0, len(keys), width) for column in duals]
        wbias, size = _bias(len(keys), width), len(keys) * width
    get = acc.get
    for x, runs, tag in left:
        xs = x[::2] + x[1::2]
        if not (duals and any(xs)):
            xkeys = keys
        elif packed:
            omegas = sum(dual * xj for xj, dual in zip(xs, duals) if xj)
            omegas = _slots([(omegas + wbias) ^ wbias], [size], width)
            if modulus:
                omegas = map(operator.mod, omegas, repeat(modulus))
            xkeys = list(map(add, keys, map(lshift, omegas, repeat(top))))
        else:
            omegas = None
            for xj, dual in zip(xs, duals):
                if xj:
                    scaled = map(mul, dual, repeat(xj))
                    omegas = scaled if omegas is None else map(add, omegas, scaled)
            if modulus:
                omegas = map(operator.mod, omegas, repeat(modulus << top))
            xkeys = list(map(add, keys, omegas))
        key = sum(map(lshift, x, shifts)) + bias + tag
        for lo, v in runs.items():
            lo = key + (lo << top)
            for k, d in zip(xkeys, coeffs):
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


def _runs(sums, width):
    """Disjoint packed runs [lo, hi, packed] that add up to sums
    {lo: packed}: the sums sorted by lo, each added to the run before it
    unless that would skip more than _GAP slots."""
    shift = 8 * width
    # a packed sum of |value| < 2^(8 width m) holds at most m slots
    spans = sorted((o, o + v.bit_length() // shift, v) for o, v in sums.items())
    runs = [list(spans[0])]
    for o, top, v in spans[1:]:
        run = runs[-1]
        if o > run[1] + _GAP:
            runs.append([o, top, v])
        else:
            run[1] = max(run[1], top)
            run[2] += v << (shift * (o - run[0]))
    return runs


def _unpack(acc, layout, width, modulus=0):
    """Fibres of the sum that acc holds (see _mul_into): the sums are grouped
    by coords, each k reduced mod a nonzero modulus, and the sums of more
    than one slot (width 0: none) added while packed into runs (see _runs).
    The runs of all fibres are decoded at once, then the coords of all fibres."""
    cwidth, shifts, bias, top = layout
    mask = (1 << top) - 1
    fibres = {}
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
    half = 1 << (8 * width - 1) if width else 0
    wide = [(z, _runs(f, width)) for z, f in fibres.items()
            if max(map(abs, f.values()), default=0) >= half] if width else []
    if wide:
        runs = [run for _, rs in wide for run in rs]
        biases = {n: _bias(n, width) for n in {hi - lo + 1 for lo, hi, _ in runs}}  # by length
        slots = _slots([(v + biases[hi - lo + 1]) ^ biases[hi - lo + 1] for lo, hi, v in runs],
                       [width * (hi - lo + 1) for lo, hi, _ in runs], width)
        end = 0
        for z, rs in wide:
            f = {}
            for lo, hi, _ in rs:
                cs, end = slots[end:end + hi - lo + 1], end + hi - lo + 1
                f.update(itertools.compress(zip(range(lo, hi + 1), cs), cs))
            fibres[z] = _pruned({z: f}, modulus).get(z, {}) if modulus else f
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
    term = _single(left)
    if term:
        return _translated(term, right, True, modulus)
    term = _single(right)
    if term:
        return _translated(term, left, False, modulus)
    layout = _key_layout(len(next(iter(left))), itertools.chain(left, right))
    # with no fibre to pack, every sum is one slot
    width = (_slot_width(_l1_norm(left) * _l1_norm(right))
             if max(map(len, itertools.chain(left.values(), right.values()))) >= _MIN_RUN else 0)
    acc = {}
    _mul_into(acc, _pack(left, width), _pack(right, width), layout, modulus)
    return _unpack(acc, layout, width, modulus)


def fibre_mat_mul(a_rows, b_rows):
    """Entries of a matrix product over the fibres of its nonzero entries:
    a_rows and b_rows list each row's nonzero (column, fibres), and each
    row of the result is {column: fibres}.  The product is one sum over k
    of column k of A times row k of B (see _mul_into), with each entry's
    row i or column j tagged in two slots past the coordinates, so that
    the terms at (i, j) sum to entry (i, j); the sum is unpacked once."""
    entries = [f for row in a_rows + b_rows for _, f in row]
    n = len(next(iter(entries[0]))) if entries else 0
    last = max((j for row in b_rows for j, _ in row), default=0)
    layout = _key_layout(n + 2, itertools.chain.from_iterable(entries), max(len(a_rows), last))
    # no slot of any entry's sum exceeds this bound in absolute value
    bound = (max((sum(_l1_norm(f) for _, f in row) for row in a_rows), default=0)
             * max((_l1_norm(f) for row in b_rows for _, f in row), default=0))
    if not bound:  # A or B is zero; the other's coefficients need not fit a slot
        return [{} for _ in a_rows]
    width = _slot_width(bound)
    row_tag, column_tag = layout[1][n:]
    a_columns = [[] for _ in b_rows]
    for i, row in enumerate(a_rows):
        for k, f in row:
            a_columns[k] += _pack(f, width, i << row_tag)
    acc = {}
    for column, row in zip(a_columns, b_rows):
        if column and row:
            _mul_into(acc, column, [t for j, f in row for t in _pack(f, width, j << column_tag)],
                      layout)
    out = [{} for _ in a_rows]
    for x, f in _unpack(acc, layout, width).items():
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
