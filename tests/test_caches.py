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
    every memo on it.  build_E's bar blocks have built rows; build_L solves
    its blocks by forward substitution, and builds no rows."""
    A = parse_presentation("gen x deg 2\ngen y deg 2\ngen z deg 3\n"
                           "diff z = x*y\n")
    source = dualize(A, 6) if builder == "build_L" else A
    gc.collect()
    gc.disable()
    try:
        bundle = getattr(functors, builder)(source, 4, 6)
        table = bundle.table
        rows = ["rows" in vars(q)
                for q in table.memo("bar_quotient").values()]
        if builder in ("build_E", "build_L"):
            assert rows and any(rows) == (builder == "build_E")
        ref = weakref.ref(table)
        del bundle, table
        assert ref() is None
    finally:
        gc.enable()


def test_long_graphs_leave_no_canonical_plans():
    """Shapes past six vertices (paths) are canonicalised on each call and
    kept nowhere: a cobracket of a 600-vertex long graph, which canonicalises
    paths of every length, holds under 1 MB once its result is dropped."""
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
