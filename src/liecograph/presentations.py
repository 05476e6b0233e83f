"""Input presentations.

DgcaPresentation: a free graded-commutative algebra on generators of degree
>= 2 with optional monomial relations g^k = 0 and a differential given by a
polynomial per generator.  Monomials are tuples of generator names sorted by
table order; products normalize through elements.graded_sort (Koszul signs,
odd squares vanish), and relation powers vanish.

DgccPresentation: a coalgebra given by a named basis per degree with reduced
coproduct and differential structure constants.

File format (line oriented, # comments; each rel, diff, codiff, coprod and
cap line at most once):
    gen x deg 2            cogen x deg 2
    rel x^2 = 0            coprod y = x (x) x   (also accepts the ⊗ glyph)
    diff y = x^2           codiff y = 2 * x
    cap weight 5 degree 12
A right-hand side is 0, the empty sum, or terms joined by + and - (the first
sign optional).  A term is an optional leading coefficient n or n/m, then
optionally *, then its body: factors name or name^k separated by * or blanks
for diff, a (x) b for coprod, one class name for codiff.  A name starts with
a letter or _; a class name may contain * after that.

The first gen, rel or diff statement makes the file an algebra, the first
cogen, coprod or codiff a coalgebra; a statement of the other kind is a
ParseError at its line.  Error messages echo names, lines and numbers
through clipped_repr, so each stays one short line.
"""

import math
import re
from fractions import Fraction

from .elements import _slotwise, graded_sort
from .errors import InvalidPresentation, ParseError
from .linalg import add_into

DEFAULT_CAP_WEIGHT = 5
DEFAULT_CAP_DEGREE = 12

# most factors a diff term may have: a term is expanded into a tuple of its
# factors, and the d^2 check costs about the square of its length
MAX_FACTORS = 256


def multisets(items, degree, max_degree, max_size=None, max_mult=None):
    """Nonempty multisets over items, as tuples in the order of items, of
    total degree (degree[x] summed) at most max_degree, with at most max_size
    elements and each x at most max_mult[x] times (unbounded where None or
    absent).  Depth-first order: each multiset comes right before its
    extensions.  Iterative, so a multiset may be longer than the recursion
    limit."""
    items = list(items)
    max_mult = max_mult or {}
    out = []
    # (multiset, its degree, multiplicity of its last item items[start],
    # start); depth first on an explicit stack, each node's extensions
    # pushed in reverse so they come off it in order
    stack = [((), 0, 0, 0)]
    while stack:
        cur, deg, run, start = stack.pop()
        if cur:
            out.append(cur)
        if len(cur) == max_size:
            continue
        ext = []
        for j in range(start, len(items)):
            x = items[j]
            d = deg + degree[x]
            m = run + 1 if cur and j == start else 1
            if d <= max_degree and m <= max_mult.get(x, m):
                ext.append((cur + (x,), d, m, j))
        stack += reversed(ext)
    return out


def _invalid(template, *fields):
    """InvalidPresentation(template.format(*fields)), each field (a name, a
    degree or a power from the input) shown through clipped_repr."""
    return InvalidPresentation(template.format(*map(clipped_repr, fields)))


def _declared(pairs, what):
    """(names in order, {name: degree}) of declared (name, degree) pairs; a
    repeated name or a degree < 1 is an InvalidPresentation."""
    names, degree = [], {}
    for name, deg in pairs:
        if name in degree:
            raise _invalid(f"duplicate {what} {{}}", name)
        if deg < 1:
            raise _invalid(f"{what} {{}} has degree {{}} < 1", name, deg)
        names.append(name)
        degree[name] = deg
    return names, degree


class DgcaPresentation:
    def __init__(self, gens, relations=None, differentials=None,
                 cap_weight=DEFAULT_CAP_WEIGHT, cap_degree=DEFAULT_CAP_DEGREE):
        self.gen_names, self.gen_degree = _declared(gens, "generator")
        self.order = {n: i for i, n in enumerate(self.gen_names)}
        self.relations = dict(relations or {})  # name -> power k (g^k = 0)
        for name, k in self.relations.items():
            if name not in self.gen_degree:
                raise _invalid("relation on unknown {}", name)
            if k < 2:
                raise _invalid("relation power {} < 2 on {}", k, name)
        # differential: name -> {monomial: Fraction}
        self.differentials = {}
        for name, poly in (differentials or {}).items():
            if name not in self.gen_degree:
                raise _invalid("differential on unknown {}", name)
            self.differentials[name] = {m: Fraction(c) for m, c in poly.items() if c}
        self.cap_weight = cap_weight
        self.cap_degree = cap_degree
        self._validate()

    # -- monomial arithmetic ------------------------------------------------

    def monomial_degree(self, m):
        return sum(self.gen_degree[x] for x in m)

    def normalize_monomial(self, seq):
        """Sort a factor sequence, returning (monomial, sign); sign 0 if it
        vanishes (odd square or relation power)."""
        m, sign = graded_sort(seq, self.gen_degree, self.order)
        for x, k in self.relations.items():
            if m.count(x) >= k:
                return m, 0
        return m, sign

    def multiply(self, m1, m2):
        """Product of two monomials: (monomial, sign) with sign possibly 0."""
        return self.normalize_monomial(m1 + m2)

    def poly_multiply(self, p1, p2):
        out = {}
        for m1, c1 in p1.items():
            for m2, c2 in p2.items():
                m, s = self.multiply(m1, m2)
                if s:
                    add_into(out, m, s * c1 * c2)
        return out

    def _power_caps(self):
        """{generator: its highest nonzero power}: 1 for odd degree, k - 1
        for g^k = 0; absent where unbounded."""
        return {g: 1 if self.gen_degree[g] % 2 else self.relations[g] - 1
                for g in self.gen_names
                if self.gen_degree[g] % 2 or g in self.relations}

    def monomials(self, max_degree):
        """All basis monomials of the augmentation ideal with degree bound,
        deterministically ordered (by degree, then lexicographically)."""
        out = multisets(self.gen_names, self.gen_degree, max_degree,
                        max_mult=self._power_caps())
        out.sort(key=lambda m: (self.monomial_degree(m),
                                tuple(self.order[x] for x in m)))
        return out

    def monomial_counts(self, max_degree):
        """The number of monomials(max_degree) in each degree 0..max_degree,
        as a list, counted without listing them: the coefficients of the
        product over generators g of (1 - t^((c + 1) |g|)) / (1 - t^|g|), c
        the power cap of g, with the constant term dropped."""
        counts = [1] + [0] * max_degree
        caps = self._power_caps()
        for g in self.gen_names:
            e = self.gen_degree[g]
            for d in range(e, max_degree + 1):
                counts[d] += counts[d - e]
            if g in caps:
                top = (caps[g] + 1) * e
                for d in range(max_degree, top - 1, -1):
                    counts[d] -= counts[d - top]
        counts[0] = 0
        return counts

    def differential_of_monomial(self, m):
        """Leibniz extension: {monomial: Fraction}."""
        out = {}
        dg = self.differentials
        for raw, c in _slotwise(m, self.gen_degree,
                                lambda g: dg.get(g, {}).items()):
            m2, s2 = self.normalize_monomial(raw)
            if s2:
                add_into(out, m2, s2 * c)
        return out

    def differential_of_poly(self, p):
        out = {}
        for m, c in p.items():
            for m2, c2 in self.differential_of_monomial(m).items():
                add_into(out, m2, c * c2)
        return out

    def _validate(self):
        for name, poly in self.differentials.items():
            want = self.gen_degree[name] + 1
            for m, _ in poly.items():
                for x in m:
                    if x not in self.gen_degree:
                        raise _invalid("unknown generator {} in diff {}", x,
                                       name)
                if self.monomial_degree(m) != want:
                    raise _invalid("diff {} has a term of degree {}, "
                                   "expected {}", name,
                                   self.monomial_degree(m), want)
                if self.normalize_monomial(m)[1] == 0:
                    raise _invalid("diff {} contains a vanishing monomial {}",
                                   name, "*".join(m))
        for name in self.differentials:
            if self.differential_of_poly(self.differentials[name]):
                raise _invalid("d^2 != 0 on generator {}", name)
        for name, k in self.relations.items():
            # ideal stability: g^(k-1) dg = 0 in the quotient.  An odd
            # g^(k-1) with k > 2 is 0; else it kills the terms that hold g
            # and is injective, up to one sign per monomial, on the others.
            rest = {m: c for m, c in self.differentials.get(name, {}).items()
                    if name not in m}
            power_vanishes = k > 2 and self.gen_degree[name] % 2
            if not power_vanishes and self.poly_multiply({(): 1}, rest):
                raise _invalid("relation {}^{} = 0 is not "
                               "differential-stable", name, k)

    def is_simply_connected(self):
        return all(d >= 2 for d in self.gen_degree.values())

    def __repr__(self):
        return ("DgcaPresentation(%s)" %
                ", ".join(f"{g}:{self.gen_degree[g]}" for g in self.gen_names))


class DgccPresentation:
    """Coalgebra data: named basis classes with degrees, reduced coproduct
    coprod[c] = [(coeff, a, b), ...] and differential codiff[c] = [(coeff, a)].
    Construction checks degrees, codiff^2 = 0, coassociativity of the
    reduced coproduct and co-Leibniz: codiff is a coderivation of it,
        coprod(codiff c) = (codiff (x) 1 + (-1)^|a| 1 (x) codiff) coprod c
    on each term a (x) b, the transpose of d(ab) = d(a) b + (-1)^|a| a d(b)."""

    def __init__(self, classes, coprod=None, codiff=None,
                 cap_weight=DEFAULT_CAP_WEIGHT, cap_degree=DEFAULT_CAP_DEGREE):
        self.class_names, self.class_degree = _declared(classes, "class")
        self.coprod = {c: [(Fraction(k), a, b) for (k, a, b) in terms if k]
                       for c, terms in (coprod or {}).items()}
        self.codiff = {c: [(Fraction(k), a) for (k, a) in terms if k]
                       for c, terms in (codiff or {}).items()}
        self.cap_weight = cap_weight
        self.cap_degree = cap_degree
        self._validate()

    def _validate(self):
        for c, terms in self.coprod.items():
            if c not in self.class_degree:
                raise _invalid("coprod on unknown {}", c)
            for k, a, b in terms:
                if a not in self.class_degree or b not in self.class_degree:
                    raise _invalid("coprod {} uses unknown classes", c)
                if (self.class_degree[a] + self.class_degree[b]
                        != self.class_degree[c]):
                    raise _invalid("coprod {}: degrees of {},{} do not add "
                                   "up", c, a, b)
        for c, terms in self.codiff.items():
            if c not in self.class_degree:
                raise _invalid("codiff on unknown {}", c)
            for k, a in terms:
                if a not in self.class_degree:
                    raise _invalid("codiff {} uses unknown {}", c, a)
                if self.class_degree[a] != self.class_degree[c] - 1:
                    raise _invalid("codiff {} -> {} is not degree -1", c, a)
            dd = {}
            for k, a in terms:
                for k2, b in self.codiff.get(a, ()):
                    add_into(dd, b, k * k2)
            if dd:
                raise _invalid("codiff^2 != 0 on class {}", c)
        # coassociativity of the reduced coproduct: no Koszul sign enters
        for c, terms in self.coprod.items():
            left, right = {}, {}
            for k, a, b in terms:
                for k2, a1, a2 in self.coprod.get(a, ()):
                    add_into(left, (a1, a2, b), k * k2)
                for k2, b1, b2 in self.coprod.get(b, ()):
                    add_into(right, (a, b1, b2), k * k2)
            if left != right:
                raise _invalid("coprod is not coassociative on class {}", c)
        for c in self.class_names:
            left, right = {}, {}
            for k, a in self.codiff.get(c, ()):
                for k2, a1, a2 in self.coprod.get(a, ()):
                    add_into(left, (a1, a2), k * k2)
            for k, a, b in self.coprod.get(c, ()):
                for k2, a2 in self.codiff.get(a, ()):
                    add_into(right, (a2, b), k * k2)
                sgn = (-1) ** self.class_degree[a]
                for k2, b2 in self.codiff.get(b, ()):
                    add_into(right, (a, b2), sgn * k * k2)
            if left != right:
                raise _invalid(
                    "codiff is not a coderivation of coprod on class {}", c)

    def __repr__(self):
        return ("DgccPresentation(%s)" %
                ", ".join(f"{c}:{self.class_degree[c]}" for c in self.class_names))


# ---------------------------------------------------------------------------
# file format

_GEN_RE = re.compile(r"^(co)?gen\s+(\w[\w*]*)\s+deg\s+(\d+)$")
_REL_RE = re.compile(r"^rel\s+(\w+)\s*\^\s*(\d+)\s*=\s*0$")
_DEF_RE = re.compile(r"^(diff|codiff|coprod)\s+(\w[\w*]*)\s*=\s*(.*)$")
_CAP_RE = re.compile(r"^cap\s+weight\s+(\d+)\s+degree\s+(\d+)$")

# Right-hand sides (see the module docstring).  Every run of blanks is read
# by one quantifier before the next token, so matching is linear.
_FACTOR = r"([^\W\d]\w*)(?:\s*\^\s*(\d+))?"
_CLASS = r"([^\W\d][\w*]*)"
_BODY = {
    "diff": rf"({_FACTOR}(?:(?:\s*\*\s*|\s+){_FACTOR})*)",
    "coprod": rf"{_CLASS}\s*(?:\(x\)|⊗)\s*{_CLASS}",
    "codiff": _CLASS,
}
_TERM = {kind: re.compile(
    rf"([+-]?)\s*(?:(\d+(?:/\d+)?)(?:\s*\*)?\s*)?{body}\s*")
    for kind, body in _BODY.items()}


def parse_rational(text, line=None, col=None):
    """The Fraction of a literal `n` or `n/m`; a zero denominator is a
    ParseError at the given line and column."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"invalid number {clipped_repr(text)}", line,
                         col) from None


def clipped_repr(x):
    """repr(x) of a str or an int, or its length in characters or digits once
    that is over 20, so that an error message stays one short line (digits
    counted without str(), which refuses ints past the str-digit limit)."""
    if isinstance(x, str):
        return repr(x) if len(x) <= 20 else f"of {len(x)} characters"
    if abs(x) < 10 ** 20:
        return repr(x)
    d = int(math.log10(abs(x))) + 1  # the digit count, or one off it
    return f"of {d + (10 ** d <= abs(x)) - (10 ** (d - 1) > abs(x))} digits"


def parse_int(text, line=None, col=None):
    """The int of a literal; a malformed one, or one longer than Python's
    integer-string limit, is a ParseError at the given line and column."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"invalid integer {clipped_repr(text)}", line=line,
                         col=col) from None


def _parse_terms(text, kind, lineno):
    """The terms of a `kind` (diff, coprod or codiff) right-hand side, in
    order: [(Fraction, *groups of its body)].  Any text left unread is a
    ParseError at lineno."""
    text = text.strip()
    if text == "0":
        return []
    term, out, pos = _TERM[kind], [], 0
    while True:
        m = term.match(text, pos)
        if not m or (out and not m.group(1)):
            raise ParseError(f"{kind} right-hand side: cannot read text "
                             f"{clipped_repr(text[pos:])}", line=lineno)
        coeff = parse_rational(m.group(2) or "1", lineno)
        out.append((-coeff if m.group(1) == "-" else coeff, *m.groups()[2:]))
        pos = m.end()
        if pos == len(text):
            return out


def parse_polynomial(text, lineno=None, max_factors=MAX_FACTORS):
    """A `diff` right-hand side: rational coefficients, factors `name` or
    `name^k` separated by `*` or blanks.  Returns {tuple-of-names
    (unsorted): Fraction}.  A term with more than max_factors factors, or
    more than MAX_FACTORS, is a ParseError, raised before its powers are
    expanded."""
    out, limit = {}, min(max_factors, MAX_FACTORS)
    for coeff, body, *_ in _parse_terms(text, "diff", lineno):
        factors = []
        for f in re.finditer(_FACTOR, body):
            power = parse_int(f.group(2) or "1", lineno)
            if len(factors) + power > limit:
                raise ParseError(f"a term has more than "
                                 f"{clipped_repr(limit)} factors", line=lineno)
            factors += [f.group(1)] * power
        add_into(out, tuple(factors), coeff)
    return out


def _once(first, key, lineno):
    """Record that `key` is defined at lineno; a second definition is a
    ParseError there that names the first."""
    if key in first:
        raise ParseError(f"repeated {clipped_repr(key)} (first at line "
                         f"{first[key]})", line=lineno)
    first[key] = lineno


# the kind of file each statement belongs in
_FILE_KIND = {**dict.fromkeys(("gen", "rel", "diff"), "an algebra"),
              **dict.fromkeys(("cogen", "coprod", "codiff"), "a coalgebra")}


def parse_presentation(text):
    """Parse a presentation file into a DgcaPresentation or, when its first
    statement of a kind is a coalgebra's, a DgccPresentation."""
    decls, rels, diff_lines, first = [], {}, [], {}
    terms = {"coprod": {}, "codiff": {}}  # kind -> {class: its terms}
    cap_w, cap_d = DEFAULT_CAP_WEIGHT, DEFAULT_CAP_DEGREE
    file_kind = by = None  # the kind of file and the statement that fixed it
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword = line.split(None, 1)[0]
        if keyword in _FILE_KIND and file_kind is None:
            file_kind, by = _FILE_KIND[keyword], f"{keyword} at line {lineno}"
        elif _FILE_KIND.get(keyword, file_kind) != file_kind:
            raise ParseError(f"{keyword} line in {file_kind} file ({by})",
                             line=lineno)
        if m := _GEN_RE.match(line):
            decls.append((m.group(2), parse_int(m.group(3), lineno)))
        elif m := _REL_RE.match(line):
            _once(first, f"rel {m.group(1)}", lineno)
            rels[m.group(1)] = parse_int(m.group(2), lineno)
        elif m := _DEF_RE.match(line):
            kind, name, rhs = m.groups()
            _once(first, f"{kind} {name}", lineno)
            if kind == "diff":  # read below, once the degrees are known
                diff_lines.append((name, rhs, lineno))
            else:
                terms[kind][name] = _parse_terms(rhs, kind, lineno)
        elif m := _CAP_RE.match(line):
            _once(first, "cap", lineno)
            cap_w, cap_d = (parse_int(m.group(1), lineno),
                            parse_int(m.group(2), lineno))
        else:
            raise ParseError(f"unrecognized line {clipped_repr(raw)}",
                             line=lineno)
    # a term of diff y has degree deg y + 1, so at most deg y + 1 factors
    degree = dict(decls)
    diffs = {}
    for name, rhs, lineno in diff_lines:
        if name not in degree:
            raise _invalid("differential on unknown {}", name)
        diffs[name] = parse_polynomial(rhs, lineno, degree[name] + 1)
    if file_kind == "a coalgebra":
        return DgccPresentation(decls, terms["coprod"], terms["codiff"],
                                cap_weight=cap_w, cap_degree=cap_d)
    return DgcaPresentation(decls, rels, diffs, cap_weight=cap_w, cap_degree=cap_d)
