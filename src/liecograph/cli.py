"""Command-line front end.

Verbs: pair, cobracket, normalize, iszero, lie-normalize, harrison, pi, ss,
dual-check, enumerate.  Expressions accept bar words (a|b|c), graph literals
(G[3; 1->2, 2->3](a,b,c)), bracket literals ([[a,b],c]) and product literals
((a*b)*c), with rational coefficients.  Output is tab-separated plain text;
identical invocations produce byte-identical output.  Exit codes: 0 success,
1 input error, 2 cap too small.
"""

import argparse
import os
import re
import sys

from .errors import (
    ArityMismatch,
    CapExceeded,
    CapTooSmall,
    LiecographError,
    ParseError,
    UnknownGenerator,
)
from .elements import GeneratorTable, GraphElement, TreeElement
from .graphcoalg import (_standard_bracketing, cobracket, graphify,
                         is_zero_in_E, to_bar_basis)
from .liealg import lie_normal_form
from .linalg import spectral_pages
from .pairing import element_pair
from .presentations import (
    DEFAULT_CAP_DEGREE,
    DEFAULT_CAP_WEIGHT,
    DgcaPresentation,
    DgccPresentation,
    clipped_repr,
    parse_int,
    parse_presentation,
    parse_rational,
)
from .functors import (
    build_E,
    check_duality,
    harrison_shuffle_model,
    rational_homotopy,
)
from .shapes import SGraph, enumerate_graphs, enumerate_trees


# ---------------------------------------------------------------------------
# expression parsing

# deepest bracket, parenthesis or product nesting an expression may have;
# far above any weight the library computes with, and far below Python's
# recursion limit
MAX_NESTING = 64

# most pages `ss --pages` lists; every page past the weight span repeats the
# last one, so larger values only print the same lines again
MAX_PAGES = 10**6

_TOKEN_RE = re.compile(
    r"\s*(->|\d+/\d+|\d+|[A-Za-z_]\w*|[|\[\](),;*+-])")


def _tokenize(text):
    tokens = []  # (token, column)
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or not m.group(1):
            if text[pos:].strip() == "":
                break
            raise ParseError(f"cannot tokenize {clipped_repr(text[pos:])}",
                             line=1, col=pos + 1)
        tokens.append((m.group(1), m.start(1) + 1))
        pos = m.end()
    return tokens


class _ExprParser:
    """Linear combinations of graph-side or tree-side atoms."""

    def __init__(self, text, table, kind="auto"):
        self.text = text
        self.table = table
        self.kind = kind
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0  # brackets and parentheses open around self.pos

    def peek(self, ahead=0):
        i = self.pos + ahead
        return self.toks[i][0] if i < len(self.toks) else None

    def take(self, expect=None):
        if self.pos >= len(self.toks):
            raise ParseError("unexpected end of expression", line=1,
                             col=len(self.text) + 1)
        tok, col = self.toks[self.pos]
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, found {clipped_repr(tok)}",
                             line=1, col=col)
        self.pos += 1
        return tok, col

    def parse(self):
        out = None
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        while self.pos < len(self.toks):
            col = self.toks[self.pos][1]
            el = self.parse_term(sign)
            if out is not None and type(el) is not type(out):
                raise ParseError("a sum of graph-side and tree-side terms",
                                 line=1, col=col)
            out = el if out is None else out.add(el)
            if self.peek() in ("+", "-"):
                sign = -1 if self.take()[0] == "-" else 1
                if self.pos >= len(self.toks):
                    raise ParseError("dangling sign at end of expression",
                                     line=1, col=len(self.text) + 1)
            elif self.pos < len(self.toks):
                tok, col = self.toks[self.pos]
                raise ParseError(f"unexpected token {clipped_repr(tok)}",
                                 line=1, col=col)
        if out is None:
            raise ParseError("empty expression", line=1, col=1)
        return out

    def parse_term(self, sign):
        coeff = sign
        while re.fullmatch(r"\d+/\d+|\d+", self.peek() or ""):
            tok, col = self.take()
            coeff *= parse_rational(tok, 1, col)
            if self.peek() == "*":
                self.take()
        el = self.parse_atom()
        return el.scale(coeff)

    def parse_atom(self):
        tok = self.peek()
        if tok == "G":
            return self.parse_graph_literal()
        if tok in ("[", "("):
            return self.parse_tree()
        if tok is not None and re.fullmatch(r"[A-Za-z_]\w*", tok):
            if self.peek(1) == "*":
                return self.parse_tree()
            return self.parse_bar_word()
        t, col = self.toks[self.pos] if self.pos < len(self.toks) else ("", 1)
        raise ParseError(f"cannot parse atom at {clipped_repr(t)}", line=1,
                         col=col)

    def _check_name(self, name, col):
        if name not in self.table:
            raise UnknownGenerator(
                f"unknown generator {clipped_repr(name)} (column {col})")

    def parse_bar_word(self):
        names = []
        name, col = self.take()
        self._check_name(name, col)
        names.append(name)
        while self.peek() == "|":
            self.take()
            name, col = self.take()
            self._check_name(name, col)
            names.append(name)
        if len(names) == 1 and self.kind == "tree":
            return TreeElement.leaf(self.table, names[0])
        return graphify(tuple(names), self.table)

    def take_int(self):
        tok, col = self.take()
        if not re.fullmatch(r"\d+", tok):
            raise ParseError(f"expected an integer, found {clipped_repr(tok)}",
                             line=1, col=col)
        return parse_int(tok, 1, col)

    def parse_graph_literal(self):
        self.take("G")
        self.take("[")
        n = self.take_int()
        self.take(";")
        edges = []
        while self.peek() != "]":
            a = self.take_int()
            self.take("->")
            b = self.take_int()
            edges.append((a, b))
            if self.peek() == ",":
                self.take()
        self.take("]")
        self.take("(")
        labels = []
        while self.peek() != ")":
            name, col = self.take()
            self._check_name(name, col)
            labels.append(name)
            if self.peek() == ",":
                self.take()
        self.take(")")
        if len(labels) != n:
            raise ArityMismatch(
                f"graph on {n} vertices given {len(labels)} labels")
        return GraphElement.from_term(self.table, SGraph(n, edges), labels)

    def _open(self, tok):
        col = self.take(tok)[1]
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nested deeper than {MAX_NESTING} levels",
                line=1, col=col)

    def _join(self, left, right, col):
        """Node (left, right) from two (node, height) pairs.  Trees taller
        than MAX_NESTING are refused here, so the recursive term helpers
        never meet them."""
        height = max(left[1], right[1]) + 1
        if height > MAX_NESTING:
            raise ParseError(
                f"expression nested deeper than {MAX_NESTING} levels",
                line=1, col=col)
        return (left[0], right[0]), height

    def parse_bracket(self):
        self._open("[")
        left = self.parse_tree_node()
        col = self.take(",")[1]
        right = self.parse_tree_node()
        self.take("]")
        self.depth -= 1
        return self._join(left, right, col)

    def parse_tree_node(self):
        """(node, height).  Products associate to the left: a*b*c parses as
        (a*b)*c."""
        node = self.parse_tree_unit()
        while self.peek() == "*":
            col = self.take()[1]
            node = self._join(node, self.parse_tree_unit(), col)
        return node

    def parse_tree_unit(self):
        tok = self.peek()
        if tok == "[":
            return self.parse_bracket()
        if tok == "(":
            self._open("(")
            node = self.parse_tree_node()
            self.take(")")
            self.depth -= 1
            return node
        name, col = self.take()
        if not re.fullmatch(r"[A-Za-z_]\w*", name):
            raise ParseError("expected a generator, found "
                             f"{clipped_repr(name)}", line=1, col=col)
        self._check_name(name, col)
        return name, 0

    def parse_tree(self):
        return TreeElement.from_term(self.table, self.parse_tree_node()[0])


def parse_expression(text, table, kind="auto"):
    """Parse a rational combination of bar words / graph literals (GraphElement)
    or bracket / product literals (TreeElement); kind "graph" or "tree" also
    refuses an expression of the other side."""
    el = _ExprParser(text, table, kind).parse()
    if kind != "auto" and (kind == "graph") != isinstance(el, GraphElement):
        raise ParseError(
            f"{clipped_repr(text)} is not a {kind}-side expression")
    return el


def _parse_gens(spec):
    """'a:2,b:3' -> GeneratorTable."""
    gens = {}
    for item in re.finditer(r"[^,]+", spec):
        part, col = item.group().strip(), item.start() + 1
        if not part:
            continue
        m = re.fullmatch(r"([A-Za-z_]\w*):(\d+)", part)
        if not m:
            raise ParseError("cannot parse generator spec "
                             f"{clipped_repr(part)}", line=1, col=col)
        name, deg = m.group(1), parse_int(m.group(2), 1, col + m.start(2))
        if name in gens:
            raise ParseError(f"duplicate generator {clipped_repr(name)}",
                             line=1, col=col)
        if deg < 1:
            raise ParseError(f"generator {clipped_repr(name)} has degree "
                             f"{deg} < 1", line=1, col=col)
        gens[name] = deg
    if not gens:
        raise ParseError("no generators given")
    return GeneratorTable(gens.items())


def _table_from_args(args):
    if getattr(args, "gens", None):
        return _parse_gens(args.gens)
    if getattr(args, "alg", None):
        A = _load(args.alg, DgcaPresentation)
        return GeneratorTable([(n, A.gen_degree[n]) for n in A.gen_names])
    raise ParseError("a generator table is required (--gens or --alg)")


# ---------------------------------------------------------------------------
# formatting

def _fmt_graph_key(key):
    (n, edges), labels = key
    es = ",".join(f"{a}->{b}" for a, b in edges)
    return f"G[{n}; {es}]({','.join(labels)})"


def _fmt_tree_key(key):
    if isinstance(key, str):
        return key
    return f"[{_fmt_tree_key(key[0])},{_fmt_tree_key(key[1])}]"


def _int_arg(text, flag):
    """The int of a command-line value (None stays None); a malformed one is
    a ParseError naming the flag."""
    if text is None:
        return None
    try:
        return parse_int(text)
    except ParseError as e:
        raise ParseError(f"{flag}: {e}") from None


def _cap_arg(text, source):
    """A cap from a flag or the environment (None stays None).  It must be
    >= 0: no size is negative, so a negative cap would lift it altogether."""
    v = _int_arg(text, source)
    if v is not None and v < 0:
        raise ParseError(
            f"{source}: a cap must be >= 0, got {clipped_repr(text)}")
    return v


def _caps_from_args(args, default):
    """(weight, degree) caps: the flags, else LIECOGRAPH_CAP_OVERRIDE, else
    the verb's default pair."""
    cw = _cap_arg(args.cap_weight, "--cap-weight")
    cd = _cap_arg(args.cap_degree, "--cap-degree")
    env = os.environ.get("LIECOGRAPH_CAP_OVERRIDE")
    if env:
        parts = env.split(",")
        if len(parts) != 2:
            raise ParseError(f"LIECOGRAPH_CAP_OVERRIDE value "
                             f"{clipped_repr(env)} is not 'weight,degree'")
        ew, ed = (_cap_arg(x, "LIECOGRAPH_CAP_OVERRIDE") for x in parts)
        cw = cw if cw is not None else ew
        cd = cd if cd is not None else ed
    return (cw if cw is not None else default[0],
            cd if cd is not None else default[1])


def _parse_window(text):
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m:
        raise ParseError(
            f"window must look like 2..8, got {clipped_repr(text)}")
    lo, hi = (parse_int(m.group(i), 1, m.start(i) + 1) for i in (1, 2))
    if lo > hi:
        raise ParseError(f"empty window {clipped_repr(text)}")
    return lo, hi


# ---------------------------------------------------------------------------
# verbs

def _num(c):
    """str of a coefficient, or CapExceeded past the integer-string limit."""
    try:
        return str(c)
    except ValueError:
        raise CapExceeded("a coefficient is past Python's integer-string "
                          "limit") from None


def _cmd_pair(args, out):
    table = _table_from_args(args)
    g = parse_expression(args.graph, table, kind="graph")
    t = parse_expression(args.tree, table, kind="tree")
    out.write(f"{_num(element_pair(g, t))}\n")
    return 0


def _cmd_cobracket(args, out):
    table = _table_from_args(args)
    g = parse_expression(args.expr, table, kind="graph")
    lines = sorted((_fmt_graph_key(k1), _fmt_graph_key(k2), c)
                   for (k1, k2), c in cobracket(g).terms.items())
    out.write("".join(f"{_num(c)}\t{a}\t{b}\n" for a, b, c in lines))
    return 0


def _cmd_normalize(args, out):
    table = _table_from_args(args)
    g = parse_expression(args.expr, table, kind="graph")
    coords = to_bar_basis(g)
    out.write("".join(f"{'|'.join(w)}\t{_num(coords[w])}\n"
                      for w in sorted(coords, key=lambda w: (len(w), w))))
    return 0


def _cmd_iszero(args, out):
    table = _table_from_args(args)
    g = parse_expression(args.expr, table, kind="graph")
    flag, witness = is_zero_in_E(g)
    if flag:
        out.write("zero\n")
    else:
        out.write("nonzero\n# witness tensor term: " + " (x) ".join(
            map(_fmt_graph_key, witness[0])) + f" -> {_num(witness[1])}\n")
    return 0


def _cmd_lie_normalize(args, out):
    table = _table_from_args(args)
    t = parse_expression(args.expr, table, kind="tree")
    nf = lie_normal_form(t)
    out.write("".join(f"{_fmt_tree_key(_standard_bracketing(table, w))}\t"
                      f"{_num(c)}\n" for w, c in sorted(nf.terms.items())))
    return 0


_KIND = {DgcaPresentation: "an algebra", DgccPresentation: "a coalgebra"}


def _load(path, cls):
    """Parse the presentation file at path; it must be of class cls."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text ({e.reason} at byte "
                         f"{e.start})")
    P = parse_presentation(text)
    if not isinstance(P, cls):
        raise ParseError(f"{path} is not {_KIND[cls]} presentation")
    return P


def _cmd_dims(args, out):
    """pi: the rational homotopy dimensions; harrison: the shuffle model's
    homology; one line per degree of the window."""
    A = _load(args.file, DgcaPresentation)
    lo, hi = _parse_window(args.window)
    if args.verb == "pi":
        cw, cd = _caps_from_args(args, (hi + 1, hi))
        dims = rational_homotopy(A, (lo, hi), cap_weight=cw, cap_degree=cd,
                                 oracle=args.oracle)
    else:
        cw, cd = _caps_from_args(args, (hi + 2, hi + 1))
        dims = harrison_shuffle_model(A, cw, cd).homology((lo, hi))
    out.write(f"# caps: weight={cw} degree={cd}\n")
    out.write("".join(f"{d}\t{dims[d]}\n" for d in range(lo, hi + 1)))
    return 0


def _cmd_ss(args, out):
    A = _load(args.file, DgcaPresentation)
    lo, hi = _parse_window(args.window)
    cw, cd = _caps_from_args(args, (hi + 2, hi + 1))
    max_page = _int_arg(args.pages, "--pages")
    if not 0 <= max_page <= MAX_PAGES:
        raise ParseError(f"--pages must be in 0..{MAX_PAGES}, "
                         f"got {clipped_repr(args.pages)}")
    E = build_E(A, cw, cd)
    pages = spectral_pages(E.complex, max_page, window=(lo, hi))
    out.write(f"# caps: weight={cw} degree={cd}\n")
    for r, page in enumerate(pages):
        if r == 0 or page is not pages[r - 1]:  # else a repeat of the last
            rows = [f"\t{w}\t{d}\t{page[(w, d)]}\n" for (w, d) in sorted(page)]
        for row in rows:
            out.write(f"{r}{row}")
    return 0


def _cmd_dual_check(args, out):
    A = _load(args.algebra, DgcaPresentation)
    C = _load(args.coalgebra, DgccPresentation)
    cw, cd = _caps_from_args(args, (DEFAULT_CAP_WEIGHT, DEFAULT_CAP_DEGREE))
    rep = check_duality(A, C, cw, cd)
    out.write(f"# caps: weight={cw} degree={cd}\n")
    if rep.passed:
        out.write("pass\n")
        return 0
    out.write("FAIL\n")
    for v in rep.violations:
        out.write(f"# {v}\n")
    return 1


def _cmd_enumerate(args, out):
    n = _int_arg(args.weight, "weight")
    if args.kind == "graphs":
        for G in enumerate_graphs(n):
            out.write(",".join(f"{a}->{b}" for a, b in G.edges) + "\n")
    else:
        for T in enumerate_trees(n):
            out.write(repr(T).replace(" ", "") + "\n")
    return 0


# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """A malformed command line is an input error: one stderr line, exit 1."""

    def error(self, message):
        self.exit(1, f"error: usage: {self.prog}: {message}\n")


def _build_parser():
    p = _ArgumentParser(
        prog="liecograph",
        description="graph coalgebra / Lie coalgebra calculator")
    sub = p.add_subparsers(dest="verb", required=True)

    def add_table_opts(sp):
        sp.add_argument("--gens", help="inline generator table, e.g. a:2,b:3")
        sp.add_argument("--alg", help="algebra presentation file for the table")

    def add_cap_opts(sp):
        sp.add_argument("--cap-weight")
        sp.add_argument("--cap-degree")

    sp = sub.add_parser("pair", help="configuration pairing of two expressions")
    sp.add_argument("graph")
    sp.add_argument("tree")
    add_table_opts(sp)
    sp.set_defaults(func=_cmd_pair)

    for verb, fn in (("cobracket", _cmd_cobracket),
                     ("normalize", _cmd_normalize),
                     ("iszero", _cmd_iszero),
                     ("lie-normalize", _cmd_lie_normalize)):
        sp = sub.add_parser(verb)
        sp.add_argument("expr")
        add_table_opts(sp)
        sp.set_defaults(func=fn)

    sp = sub.add_parser("pi", help="rational homotopy dimensions")
    sp.add_argument("file")
    sp.add_argument("--window", default="2..8")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the shuffle model")
    add_cap_opts(sp)
    sp.set_defaults(func=_cmd_dims)

    sp = sub.add_parser("harrison", help="shuffle-model homology")
    sp.add_argument("file")
    sp.add_argument("--window", default="1..6")
    add_cap_opts(sp)
    sp.set_defaults(func=_cmd_dims)

    sp = sub.add_parser("ss", help="weight-filtration spectral sequence pages")
    sp.add_argument("file")
    sp.add_argument("--window", default="1..6")
    sp.add_argument("--pages", default="2")
    add_cap_opts(sp)
    sp.set_defaults(func=_cmd_ss)

    sp = sub.add_parser("dual-check", help="algebra/coalgebra duality report")
    sp.add_argument("algebra")
    sp.add_argument("coalgebra")
    add_cap_opts(sp)
    sp.set_defaults(func=_cmd_dual_check)

    sp = sub.add_parser("enumerate", help="list basis shapes of a weight")
    sp.add_argument("kind", choices=["graphs", "trees"])
    sp.add_argument("weight")
    sp.set_defaults(func=_cmd_enumerate)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except CapTooSmall as e:
        print(f"error: cap-too-small: {e}", file=sys.stderr)
        return 2
    except LiecographError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
