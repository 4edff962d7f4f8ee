"""Exact computations with the discrete Heisenberg group of a surface.

Subpackages cover the group itself (heis), its integral group ring (ring),
its automorphisms and crossed homomorphisms (aut), surface braid words and
the quotient map to the group (braid), twisted representation matrices
(repmatrix), the intersection pairing (pairing), and finite Schrodinger
representations with Weil intertwiners (schrodinger).

Importing the package loads none of them; the four classes below are
package attributes that import their module when first read.
"""

__version__ = "0.1.0"

_HOMES = {"HeisElement": "heis", "HeisPolynomial": "ring",
          "HeisAutomorphism": "aut", "BraidWord": "braid"}


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{_HOMES[name]}", fromlist=[name]), name)
