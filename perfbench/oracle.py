"""Independent reference arithmetic used to check the library's outputs.

Nothing here imports heisencalc.  Group elements are plain pairs
(k, coords) with the product (k, x)(l, y) = (k + l + omega(x, y), x + y);
group-ring elements are dicts {(k, coords): nonzero int}.  The text
renderers follow the library's documented output formats, so generated
inputs can be fed to the parser and CLI outputs compared as strings.
"""

import cmath


def omega(x, y):
    return sum(x[i] * y[i + 1] - x[i + 1] * y[i] for i in range(0, len(x), 2))


def hmul(a, b):
    return (a[0] + b[0] + omega(a[1], b[1]),
            tuple(s + t for s, t in zip(a[1], b[1])))


def identity(genus):
    return (0, (0,) * (2 * genus))


def generator(genus, name, power=1):
    """'u', 'a<i>' or 'b<i>' raised to power, as a pair."""
    if name == "u":
        return (power, (0,) * (2 * genus))
    coords = [0] * (2 * genus)
    coords[2 * (int(name[1:]) - 1) + (name[0] == "b")] = power
    return (0, tuple(coords))


def kappa(elem):
    """Central exponent of the word normal form u^kappa prod a_i^l b_i^m."""
    k, x = elem
    return k - sum(x[i] * x[i + 1] for i in range(0, len(x), 2))


def from_kappa(kap, coords):
    return (kap + sum(coords[i] * coords[i + 1]
                      for i in range(0, len(coords), 2)), tuple(coords))


def word_str(elem):
    """Word form as the library prints it: 'u^-2 a1^3 b2', or '1'."""
    kap = kappa(elem)
    x = elem[1]
    parts = []
    if kap:
        parts.append("u" if kap == 1 else f"u^{kap}")
    for i in range(0, len(x), 2):
        for letter, e in (("a", x[i]), ("b", x[i + 1])):
            if e:
                name = f"{letter}{i // 2 + 1}"
                parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts) if parts else "1"


def pair_str(elem):
    return f"({elem[0]}; {','.join(str(c) for c in elem[1])})"


def phi(genus, letters):
    """Image of a braid word [(name, exp)]: s_i -> u, a_j, b_j -> lifts."""
    out = identity(genus)
    for name, exp in letters:
        img = generator(genus, "u" if name[0] == "s" else name, exp)
        out = hmul(out, img)
    return out


def letters_str(letters):
    return " ".join(n if e == 1 else f"{n}^{e}" for n, e in letters)


# ---------------------------------------------------------------------------
# Group-ring elements.
# ---------------------------------------------------------------------------

def padd(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def pmul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = hmul(e1, e2)
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def poly_str(p):
    """Text in the library's plain format, sorted by (k, coords)."""
    if not p:
        return "0"
    text = ""
    for elem, c in sorted(p.items(), key=lambda t: (t[0][0],) + t[0][1]):
        word = word_str(elem)
        body = (str(abs(c)) if word == "1"
                else word if abs(c) == 1 else f"{abs(c)} {word}")
        if not text:
            text = ("-" if c < 0 else "") + body
        else:
            text += f" {'-' if c < 0 else '+'} {body}"
    return text


def poly_json(p):
    return [{"k": e[0], "coords": list(e[1]), "c": c}
            for e, c in sorted(p.items(), key=lambda t: (t[0][0],) + t[0][1])]


def from_library(poly):
    """Convert a library HeisPolynomial into the dict form used here."""
    return {(e.k, e.coords): c for e, c in poly.terms.items()}


def _collect(pairs):
    out = {}
    for key, c in pairs:
        v = out.get(key, 0) + c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def spec_moriyama(p):
    return _collect((kappa(e) % 2, c) for e, c in p.items())


def spec_abelian(p):
    return _collect((e[1], c) for e, c in p.items())


def spec_torsion(p, n):
    return _collect(((e[0] % n, e[1]), c) for e, c in p.items())


def spec_json(s):
    """Specialized terms as the CLI prints them: [[key, coeff], ...]."""
    def plain(key):
        return [plain(k) for k in key] if isinstance(key, tuple) else key
    return [[plain(k), c] for k, c in sorted(s.items())]


# ---------------------------------------------------------------------------
# Automorphisms (delta, S) acting by (k, x) -> (k + delta.x, S x).
# ---------------------------------------------------------------------------

def twist(genus, kind, index):
    n = 2 * genus
    delta = [0] * n
    S = [[int(i == j) for j in range(n)] for i in range(n)]
    ia, ib = 2 * (index - 1), 2 * (index - 1) + 1
    if kind == "a":
        delta[ib] = -1
        S[ia][ib] = -1
    else:
        delta[ia] = 1
        S[ib][ia] = 1
    return delta, S


def aut_compose(outer, inner):
    """outer after inner, by the same rule as a product of affine maps."""
    (d1, S1), (d2, S2) = outer, inner
    n = len(d1)
    S = [[sum(S1[i][k] * S2[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    delta = [d2[j] + sum(d1[k] * S2[k][j] for k in range(n)) for j in range(n)]
    return delta, S


def inner_aut(coords):
    n = len(coords)
    delta = []
    for j in range(n):
        basis = [0] * n
        basis[j] = 1
        delta.append(2 * omega(coords, basis))
    return delta, [[int(i == j) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# Finite Schrodinger model on C^(N^g).
# ---------------------------------------------------------------------------

def schrodinger_entries(N, g, elem):
    """Nonzero entries {(row, col): phase} of the matrix of elem."""
    k, x = elem
    p, q = x[0::2], x[1::2]
    central = k + sum(a * b for a, b in zip(p, q))
    out = {}
    for row in range(N ** g):
        s = [(row // N ** (g - 1 - i)) % N for i in range(g)]
        t = [(si + pi) % N for si, pi in zip(s, p)]
        col = sum(ti * N ** (g - 1 - i) for i, ti in enumerate(t))
        out[(row, col)] = cmath.exp(
            1j * cmath.pi * central / N
            + 2j * cmath.pi * sum(b * c for b, c in zip(q, s)) / N)
    return out
