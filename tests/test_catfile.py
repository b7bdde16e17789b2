"""Category description files."""

from fractions import Fraction

import pytest

from cgm.catfile import parse_cat_file
from cgm.errors import DanglingEdge, ParseError, SymbolicObjects
from cgm.indexcat import STAR, ObjectId, WPath


def test_parse_free_category():
    cat = parse_cat_file("""
# lock protocol graph
kind free
objects free critical
gen lock : free -> critical
gen unlock : critical -> free
""")
    assert cat.kind == "free"
    m = cat.path(["lock", "unlock"])
    assert m.src == ObjectId("free") and m.tgt == ObjectId("free")


def test_parse_table_category():
    graph = "objects a b c\ngen f : a -> b\ngen g : b -> c\n"
    cat = parse_cat_file("kind table\n" + graph)
    # the free category on the graph, once the graph has no cycle
    assert cat.kind == "free"
    assert cat.morphisms() == parse_cat_file("kind free\n" + graph).morphisms()
    assert [m for m in cat.morphisms() if m.word == WPath(("f", "g"))] == [cat.path(["f", "g"])]


@pytest.mark.parametrize("edges", [
    "gen l : a -> a\n",
    "gen f : a -> b\ngen g : b -> a\n",
    "gen f : a -> b\ngen g : b -> c\ngen h : c -> b\n",  # a cycle after a chain
])
def test_parse_table_refuses_a_cycle(edges):
    with pytest.raises(SymbolicObjects, match="^graph has unbounded paths; cannot tabulate$"):
        parse_cat_file("kind table\nobjects a b c\n" + edges)
    assert parse_cat_file("kind free\nobjects a b c\n" + edges).kind == "free"


def test_parse_table_takes_a_long_chain():
    n = 2000
    cat = parse_cat_file(f"kind table\nobjects {' '.join(f'o{i}' for i in range(n))}\n"
                         + "".join(f"gen g{i} : o{i} -> o{i + 1}\n" for i in range(n - 1)))
    whole = cat.path([f"g{i}" for i in range(n - 1)])
    assert (whole.src, whole.tgt) == (ObjectId("o0"), ObjectId(f"o{n - 1}"))


def test_parse_monoid_categories():
    nat = parse_cat_file("kind monoid\nmonoid nat-plus\n")
    assert nat.compose(nat.elem(2), nat.elem(3)).word.value == 5
    prob = parse_cat_file("kind monoid\nmonoid prob-sat\n")
    out = prob.compose(prob.elem(Fraction(7, 10)), prob.elem(Fraction(5, 10)))
    assert out.word.value == Fraction(1)
    assert prob.identity(STAR).word.value == Fraction(0)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_cat_file("kind nonsense\n")
    with pytest.raises(ParseError):
        parse_cat_file("kind monoid\n")  # missing monoid line
    with pytest.raises(ParseError):
        parse_cat_file("objects a\ngen broken\n")
    with pytest.raises(DanglingEdge):
        parse_cat_file("objects a\ngen f : a -> b\n")
    with pytest.raises(ParseError):
        parse_cat_file("kind free\n")  # no objects
