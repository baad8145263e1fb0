"""Finite diagram shapes and monoid-valued diagram instances.

A shape is a finite graph (objects plus named arrows) standing for the free
category it generates.  Commutativity constraints between composites are not
representable; the (co)limit drivers only ever quantify over the generating
arrows, which is all the standard constructions need.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trace_core import BasicHom, TraceMonoid


@dataclass(frozen=True)
class DiagramShape:
    objects: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]  # (name, source, target)


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


def discrete(n: int) -> DiagramShape:
    return DiagramShape(tuple(f"o{i}" for i in range(n)), ())


def parallel_pair() -> DiagramShape:
    return DiagramShape(("src", "dst"), (("f", "src", "dst"), ("g", "src", "dst")))


def span() -> DiagramShape:
    return DiagramShape(("apex", "left", "right"), (("l", "apex", "left"), ("r", "apex", "right")))


def cospan() -> DiagramShape:
    return DiagramShape(("left", "right", "apex"), (("l", "left", "apex"), ("r", "right", "apex")))


@dataclass
class MonoidDiagram:
    shape: DiagramShape
    on_objects: dict[str, TraceMonoid]
    on_arrows: dict[str, BasicHom]

    def problems(self, flag=None) -> list[str]:
        from .fpcm_cat import Category
        from .trace_core import _invalid_pair, is_independence_preserving

        out = validate_shape(self.shape)
        for o in self.shape.objects:
            if o not in self.on_objects:
                out.append(f"object {o!r} has no monoid assigned")
        for name, src, dst in self.shape.arrows:
            h = self.on_arrows.get(name)
            if h is None:
                out.append(f"arrow {name!r} has no hom assigned")
                continue
            if src in self.on_objects and h.source != self.on_objects[src]:
                out.append(f"arrow {name!r}: source monoid mismatch")
            if dst in self.on_objects and h.target != self.on_objects[dst]:
                out.append(f"arrow {name!r}: target monoid mismatch")
            if flag is Category.FPCM_PAR and not is_independence_preserving(h):
                out.append(f"arrow {name!r}: not independence-preserving")
            bad = _invalid_pair(h)
            if bad is not None:
                out.append(f"arrow {name!r}: independent pair {bad!r} maps to a non-commuting pair")
        return out


def validate_diagram(d, flag=None) -> list[str]:
    """Diagnostics for any diagram object exposing ``problems``."""
    return d.problems(flag)
