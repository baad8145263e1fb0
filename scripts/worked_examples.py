#!/usr/bin/env python3
"""Walk through the bundled fixture examples from the library API.

Run from the repository root:

    python3 scripts/worked_examples.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from asyntrace import interchange as ix
from asyntrace import async_system as asys
from asyntrace.diagrams import Diagram, discrete
from asyntrace.fpcm_cat import (
    Category,
    coequalizer,
    product,
    right_adjoint_R,
)
from asyntrace.trace_core import equivalent, normal_form

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def main():
    mutex = ix.parse_file(FIXTURES / "mutex.json").get("mutex")
    print("mutual exclusion monoid:", mutex)
    w1, w2 = tuple("adecc"), tuple("accde")
    print(f"  normal form of {''.join(w1)}: {''.join(normal_form(w1, mutex))}")
    print(f"  adecc ~ accde: {equivalent(w1, w2, mutex)}")
    print()

    b = ix.parse_file(FIXTURES / "product.json")
    res = product([b.get("ma"), b.get("mb")], Category.FPCM)
    print("product of two one-generator free monoids:")
    print("  generators:", ", ".join(res.monoid.events))
    print("  independent pairs:", res.monoid.pairs())
    par = product([b.get("ma"), b.get("mb")], Category.FPCM_PAR)
    print("  same product with partial independence:", par.monoid.pairs())
    print()

    b = ix.parse_file(FIXTURES / "coequalizer.json")
    f, g = b.get("f"), b.get("g")
    plain = coequalizer(f, g)
    print("coequalizer of the collapsing pair:")
    print("  generators:", plain.monoid.events, "classes:", plain.classes)
    strict = coequalizer(f, g, Category.FPCM_PAR)
    print("  independence-preserving version:", strict.monoid.events or "trivial")
    print()

    c3 = right_adjoint_R(
        ["1", "g", "h"], [["1", "g", "h"], ["g", "h", "1"], ["h", "1", "g"]]
    )
    print("right adjoint on the cyclic group of order 3:")
    print("  generators:", c3.monoid.events, "pairs:", c3.monoid.pairs())
    print()

    b = ix.parse_file(FIXTURES / "systems.json")
    a, bb = b.get("A"), b.get("B")
    cone = asys.product([a, bb])
    print("product of two one-step systems:")
    print("  states:", len(cone.apex.states), "initial:", cone.apex.initial)
    print("  runs to depth 2:")
    for trace, state in asys.unfold(cone.apex, 2):
        print(f"    {'.'.join(trace) or '(empty)'} -> {state}")

    d = Diagram(discrete(2), {"o0": a, "o1": bb}, {})
    cocone, sat = asys.colimit(d, bound=3)
    print("coproduct of the same systems (bound 3):")
    print("  status:", sat.status, "states:", len(cocone.apex.states))
    print("  glued initial:", cocone.apex.initial)


if __name__ == "__main__":
    main()
