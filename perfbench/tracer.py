"""Run-time spans around the library's public functions.

The benchmark installs these wrappers from its own files; the library is
not edited.  Each span records calls, busy time (outermost call of a name
only, so recursion and nesting under the same name are not counted twice)
and self time (busy time minus the time child spans cover).  Post-hooks
add the counts the per-layer metrics need.  Element-level arithmetic
(HeisElement.__mul__, heis.omega) is not wrapped: a span there would cost
more than the work, so ring.mul counts its term products instead.
"""

import json
import time
from collections import defaultdict


def _poly_shape(p):
    """(fibres, u-span, coefficient bits) of a group-ring element."""
    if not p.terms:
        return 0, 0, 0
    ks = [e.k for e in p.terms]
    fibres = len({e.coords for e in p.terms})
    bits = max(abs(c).bit_length() for c in p.terms.values())
    return fibres, max(ks) - min(ks), bits


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(int)
        self.peak = defaultdict(float)
        self._stack = []      # [name, child time] of open spans
        self._active = set()  # names with an open span
        self._saved = []

    def wrap(self, fn, name, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            if name in tracer._active:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            tracer._stack.append(frame)
            tracer._active.add(name)
            failed = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                dur = time.perf_counter() - t0
                tracer._stack.pop()
                tracer._active.discard(name)
                tracer.calls[name] += 1
                tracer.busy[name] += dur
                tracer.self_time[name] += dur - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                if failed:
                    tracer.count[name + ".failed"] += 1
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """Replace each (owner, attribute, span name, hook) by a wrapper."""
        for owner, attr, name, hook in targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(original.__func__, name, hook))
            else:
                wrapped = self.wrap(original, name, hook)
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def bump(self, key, n=1):
        self.count[key] += n

    def high(self, key, value):
        if value > self.peak[key]:
            self.peak[key] = value


# ---------------------------------------------------------------------------
# Hooks.
# ---------------------------------------------------------------------------

def _ring_mul(tr, args, result):
    left, right = args
    if isinstance(right, int):
        return
    right_terms = len(right.terms) if hasattr(right, "terms") else 1
    tr.bump("ring.term_products", len(left.terms) * right_terms)
    tr.bump("ring.terms_out", len(result.terms))
    for operand in (left, right):
        if hasattr(operand, "terms"):
            fibres, span, bits = _poly_shape(operand)
            tr.high("ring.operand_fibres_max", fibres)
            tr.high("ring.operand_u_span_max", span)
            tr.high("ring.coeff_bits_max", bits)


def _compose(tr, args, result):
    tr.high("repmatrix.entry_terms_max",
            max((len(p.terms) for row in result.entries for p in row), default=0))


def _render(tr, args, result):
    text = result if isinstance(result, str) else json.dumps(result)
    tr.bump("repmatrix.render.bytes", len(text.encode()))


def _phi(tr, args, result):
    tr.bump("braid.phi.letters", len(args[0].letters))


def _bellingeri(tr, args, result):
    tr.bump("braid.relations_checked", len(result))
    tr.bump("braid.relations_failed", sum(1 for _, ok in result if not ok))


def _pairing(tr, args, result):
    tr.bump("pairing.records", len(args[0]))


def _weil(tr, args, result):
    N, g = args[0], args[1]
    tr.high("schrodinger.weil.system_bytes", 16 * (2 * g + 1) * N ** (4 * g))


def _residual(tr, args, result):
    tr.high("schrodinger.residual_max", float(result))


def _verify(tr, args, result):
    tr.bump("schrodinger.verify.failed", sum(1 for _, ok in result if not ok))


def targets(lib):
    """Wrap list for the loaded library modules in dict lib (name -> module)."""
    out = []

    def add(owner, names, span, hook=None):
        for attr in names:
            out.append((owner, attr, span, hook))

    heis, ring, aut = lib.get("heis"), lib.get("ring"), lib.get("aut")
    if heis:
        add(heis, ["parse_element", "verify_presentation", "from_word",
                   "generator", "identity", "u", "gen_a", "gen_b"], "heis")
    if ring:
        poly = ring.HeisPolynomial
        add(poly, ["__mul__"], "ring.mul", _ring_mul)
        add(poly, ["__add__"], "ring.add")
        add(ring, ["aut_apply_poly"], "ring.aut_apply")
        add(ring, ["parse_poly"], "ring.parse")
        add(ring, ["specialize_moriyama", "specialize_abelianize",
                   "specialize_torsion"], "ring.specialize")
    if aut:
        add(aut.HeisAutomorphism, ["apply", "compose", "inverse",
                                   "is_identity", "from_json"], "aut")
        add(aut, ["twist_aut", "identity_aut", "inner_of", "inner_witness",
                  "morita_d", "morita_crossed_hom", "is_symplectic",
                  "twist_pi1_table", "bounding_pair_table"], "aut")
    if "braid" in lib:
        add(lib["braid"], ["phi"], "braid.phi", _phi)
        add(lib["braid"], ["verify_bellingeri"], "braid.verify", _bellingeri)
    if "pairing" in lib:
        add(lib["pairing"], ["evaluate_pairing"], "pairing.eval", _pairing)
    if "repmatrix" in lib:
        rm = lib["repmatrix"]
        add(rm, ["compose_twisted"], "repmatrix.compose", _compose)
        add(rm, ["specialize_matrix"], "repmatrix.specialize")
        add(rm, ["matrix_latex", "poly_latex"], "repmatrix.render", _render)
        add(rm.RepMatrix, ["to_json", "__str__"], "repmatrix.render", _render)
        add(rm, ["rep_matrix_inverse"], "repmatrix.inverse")
    if "schrodinger" in lib:
        sch = lib["schrodinger"]
        add(sch, ["schrodinger_matrix"], "schrodinger.matrix")
        add(sch, ["weil_intertwiner"], "schrodinger.weil", _weil)
        add(sch, ["weil_residual"], "schrodinger.residual", _residual)
        add(sch, ["verify_schrodinger_rep"], "schrodinger.verify", _verify)
    if "cli" in lib:
        add(lib["cli"], ["main"], "cli.main")
    return out


LAYER_METRICS = [
    # (metric, unit, source): source is (table, key) read from a Tracer.
    ("ring.mul.calls", "count", ("calls", "ring.mul")),
    ("ring.mul.busy_s", "s", ("busy", "ring.mul")),
    ("ring.mul.self_s", "s", ("self_time", "ring.mul")),
    ("ring.term_products", "count", ("count", "ring.term_products")),
    ("ring.terms_out", "count", ("count", "ring.terms_out")),
    ("ring.operand_fibres_max", "count", ("peak", "ring.operand_fibres_max")),
    ("ring.operand_u_span_max", "count", ("peak", "ring.operand_u_span_max")),
    ("ring.coeff_bits_max", "bits", ("peak", "ring.coeff_bits_max")),
    ("ring.add.calls", "count", ("calls", "ring.add")),
    ("ring.add.busy_s", "s", ("busy", "ring.add")),
    ("ring.aut_apply.calls", "count", ("calls", "ring.aut_apply")),
    ("ring.aut_apply.busy_s", "s", ("busy", "ring.aut_apply")),
    ("ring.parse.calls", "count", ("calls", "ring.parse")),
    ("ring.parse.busy_s", "s", ("busy", "ring.parse")),
    ("ring.specialize.calls", "count", ("calls", "ring.specialize")),
    ("ring.specialize.busy_s", "s", ("busy", "ring.specialize")),
    ("repmatrix.compose.calls", "count", ("calls", "repmatrix.compose")),
    ("repmatrix.compose.busy_s", "s", ("busy", "repmatrix.compose")),
    ("repmatrix.compose.self_s", "s", ("self_time", "repmatrix.compose")),
    ("repmatrix.entry_terms_max", "count", ("peak", "repmatrix.entry_terms_max")),
    ("repmatrix.specialize.busy_s", "s", ("busy", "repmatrix.specialize")),
    ("repmatrix.render.calls", "count", ("calls", "repmatrix.render")),
    ("repmatrix.render.busy_s", "s", ("busy", "repmatrix.render")),
    ("repmatrix.render.bytes", "bytes", ("count", "repmatrix.render.bytes")),
    ("repmatrix.inverse.calls", "count", ("calls", "repmatrix.inverse")),
    ("repmatrix.inverse.failed", "count", ("count", "repmatrix.inverse.failed")),
    ("heis.calls", "count", ("calls", "heis")),
    ("heis.busy_s", "s", ("busy", "heis")),
    ("aut.calls", "count", ("calls", "aut")),
    ("aut.busy_s", "s", ("busy", "aut")),
    ("braid.phi.calls", "count", ("calls", "braid.phi")),
    ("braid.phi.letters", "count", ("count", "braid.phi.letters")),
    ("braid.phi.busy_s", "s", ("busy", "braid.phi")),
    ("braid.relations_checked", "count", ("count", "braid.relations_checked")),
    ("braid.relations_failed", "count", ("count", "braid.relations_failed")),
    ("pairing.eval.calls", "count", ("calls", "pairing.eval")),
    ("pairing.eval.busy_s", "s", ("busy", "pairing.eval")),
    ("pairing.records", "count", ("count", "pairing.records")),
    ("schrodinger.matrix.calls", "count", ("calls", "schrodinger.matrix")),
    ("schrodinger.matrix.busy_s", "s", ("busy", "schrodinger.matrix")),
    ("schrodinger.weil.calls", "count", ("calls", "schrodinger.weil")),
    ("schrodinger.weil.busy_s", "s", ("busy", "schrodinger.weil")),
    ("schrodinger.verify.calls", "count", ("calls", "schrodinger.verify")),
    ("schrodinger.verify.busy_s", "s", ("busy", "schrodinger.verify")),
    ("schrodinger.weil.system_bytes", "bytes_computed",
     ("peak", "schrodinger.weil.system_bytes")),
    ("schrodinger.residual_max", "abs", ("peak", "schrodinger.residual_max")),
    ("schrodinger.verify.failed", "count", ("count", "schrodinger.verify.failed")),
]


def layer_values(tr):
    """Per-layer metric values {name: number} read from one traced pass."""
    values = {name: getattr(tr, table)[key]
              for name, _, (table, key) in LAYER_METRICS}
    products = values["ring.term_products"]
    values["ring.merge_ratio"] = values["ring.terms_out"] / products if products else 0.0
    busy = values["ring.mul.busy_s"]
    values["ring.term_products_per_s"] = products / busy if busy else 0.0
    return values


DERIVED_UNITS = {"ring.merge_ratio": "ratio", "ring.term_products_per_s": "1/s"}
