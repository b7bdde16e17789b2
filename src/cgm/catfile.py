"""Line-oriented category description files (.cat).

    kind free|table|monoid
    objects a b c
    gen f : a -> b
    monoid nat-plus|nat-times|prob-sat

`table` builds the free category on the graph and materializes it as an
explicit finite table (the graph must be acyclic).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .indexcat import IndexCategory, free_category, monoid_to_category, tabulate_free
from .instances.ahl import sat_add

_MONOIDS = {
    "nat-plus": dict(op=lambda a, b: a + b, unit=0, sample=tuple(range(6))),
    "nat-times": dict(op=lambda a, b: a * b, unit=1, sample=tuple(range(1, 5))),
    "prob-sat": dict(op=sat_add, unit=Fraction(0),
                     sample=(Fraction(0), Fraction(1, 10), Fraction(1, 2),
                             Fraction(7, 10), Fraction(1))),
}


def parse_cat_file(text: str) -> IndexCategory:
    kind = "free"
    objects: list[str] = []
    edges: list[tuple[str, str, str]] = []
    monoid_name: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        head = fields[0]
        if head == "kind":
            if len(fields) != 2 or fields[1] not in ("free", "table", "monoid"):
                raise ParseError("kind must be free, table, or monoid", lineno, 1)
            kind = fields[1]
        elif head == "objects":
            objects.extend(fields[1:])
        elif head == "gen":
            # gen name : src -> tgt
            rest = line[len("gen"):].strip()
            try:
                name, arrow = rest.split(":", 1)
                src, tgt = arrow.split("->", 1)
            except ValueError:
                raise ParseError("expected `gen name : src -> tgt`", lineno, 1)
            edges.append((name.strip(), src.strip(), tgt.strip()))
        elif head == "monoid":
            if len(fields) != 2 or fields[1] not in _MONOIDS:
                raise ParseError(
                    f"monoid must be one of {', '.join(_MONOIDS)}", lineno, 1)
            monoid_name = fields[1]
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, 1)

    if kind == "monoid":
        if monoid_name is None:
            raise ParseError("kind monoid needs a `monoid` line", 1, 1)
        spec = _MONOIDS[monoid_name]
        return monoid_to_category(spec["op"], spec["unit"], spec["sample"])
    if not objects:
        raise ParseError("no objects declared", 1, 1)
    free = free_category(objects, edges)
    if kind == "table":
        return tabulate_free(free)
    return free
