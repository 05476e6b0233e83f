"""Every cache derived from a generator table lives and dies with that table
(GeneratorTable.memo): running the builders and normal forms on fresh tables
leaves every module-level container of the library at its old size, and no
memo value refers back to its table, so a dropped bundle frees its table
without the cycle collector."""

import gc
import importlib
import pkgutil
import tracemalloc
import weakref

import pytest

import liecograph
from liecograph import functors
from liecograph.elements import GeneratorTable, TreeElement
from liecograph.functors import (
    build_E,
    check_duality,
    dualize,
    rational_homotopy,
)
from liecograph.graphcoalg import cobracket, graphify, to_bar_basis
from liecograph.liealg import lie_normal_form
from liecograph.presentations import parse_presentation

from conftest import graph_key_cobracket


def module_container_sizes():
    """{module.name: len} of every module-level dict, list and set of the
    library (dunders aside)."""
    sizes = {}
    for info in pkgutil.iter_modules(liecograph.__path__):
        module = importlib.import_module(f"liecograph.{info.name}")
        for name, value in vars(module).items():
            if not name.startswith("__") and isinstance(
                    value, (dict, list, set)):
                sizes[f"{info.name}.{name}"] = len(value)
    return sizes


def test_module_level_containers_do_not_grow():
    before = module_container_sizes()
    # the Sullivan S^2 model and a table under names no other test uses, so
    # a cache keyed on names or degrees would have to grow here
    A = parse_presentation("gen u7 deg 2\ngen v7 deg 3\ndiff v7 = u7^2\n")
    build_E(A, 4, 6)
    rational_homotopy(A, (2, 4))
    check_duality(A, dualize(A, 6), 3, 6)
    table = GeneratorTable([("p7", 2), ("q7", 3)])
    assert to_bar_basis(graphify(("q7", "p7", "p7"), table))
    assert lie_normal_form(TreeElement.from_term(
        table, (("q7", "p7"), "p7"))).terms
    del A, table
    gc.collect()
    assert module_container_sizes() == before


@pytest.mark.parametrize("builder", [
    "build_G", "build_E", "harrison_shuffle_model", "build_L"])
def test_table_dies_with_its_bundle(builder):
    """With the cycle collector off, dropping a bundle frees its table and
    every memo on it.  build_E drops each pairing block once its content's
    words are solved, and clears its block, word, column and bracketing
    memos once it is built; its key cobracket rebuilds the blocks it reads,
    and still equals the long graph's cobracket.  build_L solves its blocks
    by forward substitution, and builds no rows."""
    A = parse_presentation("gen x deg 2\ngen y deg 2\ngen z deg 3\n"
                           "diff z = x*y\n")
    source = dualize(A, 6) if builder == "build_L" else A
    gc.collect()
    gc.disable()
    try:
        bundle = getattr(functors, builder)(source, 4, 6)
        table = bundle.table
        blocks = table.memo("bar_quotient").values()
        if builder == "build_L":
            assert blocks and not any("rows" in vars(q) for q in blocks)
        if builder == "build_E":
            assert not any(table.memo(name) for name in (
                "bar_quotient", "word", "tree_column", "standard_bracketing"))
            for word in bundle.key_bidegree:
                assert bundle.key_cobracket(word) == graph_key_cobracket(
                    table, word), word
            assert any("rows" in vars(q) for q in blocks)
        ref = weakref.ref(table)
        del bundle, table, blocks
        assert ref() is None
    finally:
        gc.enable()


def test_long_graphs_leave_no_canonical_plans():
    """Shapes past six vertices are planned on each call and kept nowhere:
    a cobracket of a 600-vertex long graph, which canonicalises long graphs
    of every length, holds under 1 MB once its result is dropped."""
    table = GeneratorTable([("p7", 2), ("q7", 4)])
    g = graphify(("p7", "q7") * 300, table)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(cobracket(g).terms) == 600
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2 ** 20


XYZ = "gen x deg 2\ngen y deg 2\ngen z deg 3\ndiff z = x*y\n"


def test_build_E_holds_one_block_at_a_time():
    """build_E drops each pairing block once its content's words are solved:
    build_E(xyz, 9, 8) holds at most 0.8 MB of traced allocations (1.97-2.01
    MB when every block kept its rows; now 0.60-0.66 MB with the body run
    alone in a fresh process on CPython 3.10 to 3.13, 0.51-0.53 MB inside
    the suite on 3.11)."""
    A = parse_presentation(XYZ)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        E = build_E(A, 9, 8)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert E.key_bidegree
    assert held < 0.8 * 2 ** 20, f"held {held / 2 ** 20:.2f} MB"


def test_homotopy_with_oracle_peak_memory():
    """rational_homotopy drops E once its homology is read, before the
    oracle is built: at (2, 8) with the oracle it peaks at most 1.35 MB of
    traced allocations (2.76-2.79 MB when E and its blocks lived on; now
    1.15-1.21 MB in a fresh process on CPython 3.10 to 3.13, 0.95 MB inside
    the suite on 3.11)."""
    A = parse_presentation(XYZ)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pi = rational_homotopy(A, (2, 8), oracle=True)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert pi == {2: 2, 3: 1, **dict.fromkeys(range(4, 9), 0)}
    assert peak < 1.35 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MB"
