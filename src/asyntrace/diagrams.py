"""Finite diagram shapes and their instances over monoids, spaces or systems.

A shape is a finite graph (objects plus named arrows) standing for the free
category it generates.  Commutativity constraints between composites are not
representable; the (co)limit drivers only ever quantify over the generating
arrows, which is all the standard constructions need.
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import MalformedDiagram
from .value import Value


class DiagramShape(Value, frozen=True):
    def __init__(self, objects: tuple[str, ...], arrows: tuple[tuple[str, str, str], ...]) -> None:
        self.__dict__.update(objects=objects, arrows=arrows)  # an arrow is (name, source, target)


def validate_shape(s: DiagramShape) -> list[str]:
    problems = []
    if len(set(s.objects)) != len(s.objects):
        problems.append("duplicate object names")
    names = [a[0] for a in s.arrows]
    if len(set(names)) != len(names):
        problems.append("duplicate arrow names")
    objs = set(s.objects)
    for name, src, dst in s.arrows:
        if src not in objs:
            problems.append(f"arrow {name!r}: dangling endpoint {src!r}")
        if dst not in objs:
            problems.append(f"arrow {name!r}: dangling endpoint {dst!r}")
    return problems


def refuse(problems: list[str], error: type = MalformedDiagram) -> None:
    """Raise ``error`` naming the ``problems``, if there are any."""
    if problems:
        raise error("; ".join(problems))


def discrete(n: int) -> DiagramShape:
    return DiagramShape(tuple(f"o{i}" for i in range(n)), ())


def parallel_pair() -> DiagramShape:
    return DiagramShape(("src", "dst"), (("f", "src", "dst"), ("g", "src", "dst")))


def span() -> DiagramShape:
    return DiagramShape(("apex", "left", "right"), (("l", "apex", "left"), ("r", "apex", "right")))


def cospan() -> DiagramShape:
    return DiagramShape(("left", "right", "apex"), (("l", "left", "apex"), ("r", "right", "apex")))


class Cone(Value):
    """A limit or colimit of a diagram: its apex, and one leg per diagram
    object.  For a limit each leg goes out of the apex to its object; for a
    colimit each goes into the apex from its object."""

    def __init__(self, apex: object, legs: dict) -> None:
        self.apex, self.legs = apex, legs  # legs: diagram object -> morphism


class Diagram(Value):
    """A shape's objects and arrows sent to monoids and homs, to spaces and
    their morphisms, or to systems and theirs."""

    def __init__(self, shape: DiagramShape, on_objects: dict, on_arrows: dict) -> None:
        self.shape, self.on_objects, self.on_arrows = shape, on_objects, on_arrows

    def problems(self, noun: str, check_arrow: Callable, check_object: Optional[Callable] = None) -> list[str]:
        """The shape's problems, ``check_object``'s, each missing object, and
        per shape arrow: its absence, endpoints other than its objects', and
        ``check_arrow``'s, which may read its ends as valid objects, so it
        runs only between assigned objects without problems.  ``noun`` names
        the objects; monoids have homs."""
        out = validate_shape(self.shape)
        sound = set()
        for o, x in self.on_objects.items():
            found = [] if check_object is None else check_object(x)
            out.extend(f"object {o!r}: {p}" for p in found)
            if not found:
                sound.add(o)
        for o in self.shape.objects:
            if o not in self.on_objects:
                out.append(f"object {o!r} has no {noun} assigned")
        for name, src, dst in self.shape.arrows:
            a = self.on_arrows.get(name)
            if a is None:
                out.append(f"arrow {name!r} has no {'hom' if noun == 'monoid' else 'morphism'} assigned")
                continue
            fits = src in sound and dst in sound
            for end, o, x in (("source", src, a.source), ("target", dst, a.target)):
                y = self.on_objects.get(o, x)
                if x is not y and x != y:
                    out.append(f"arrow {name!r}: {end} {noun} mismatch")
                    fits = False
            if fits:
                out.extend(f"arrow {name!r}: {p}" for p in check_arrow(a))
        return out

    def map(self, on_object: Callable, on_arrow: Callable) -> Diagram:
        """The diagram along a functor, over every object and every shape arrow."""
        return Diagram(
            self.shape,
            {o: on_object(x) for o, x in self.on_objects.items()},
            {name: on_arrow(self.on_arrows[name]) for name, _, _ in self.shape.arrows},
        )
