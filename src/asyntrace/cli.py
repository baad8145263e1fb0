"""Command line front end.

All commands read a JSON bundle, run one construction, and print either a
human-readable report (``--format text``, the default) or a self-contained
JSON bundle with the results (``--format json``).  Output is deterministic:
the same inputs always produce byte-identical output.

Exit codes: 0 on success, 1 on a domain error (invalid homomorphism,
diamond violation, size limit, ...), 2 on usage, parse, or schema errors.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import async_system as asys
from . import fpcm_cat
from . import interchange as ix
from . import state_space as ss
from .diagrams import MonoidDiagram
from .errors import (
    DanglingReference,
    NotIndependencePreserving,
    ParseError,
    SchemaError,
    TraceError,
)
from .fpcm_cat import Category
from .state_space import SpaceDiagram
from .trace_core import (
    STAR,
    check_word,
    is_independence_preserving,
    normal_form,
)


def _category(name: str) -> Category:
    return Category(name)


def parse_word(text: str, monoid) -> list[str]:
    """Split a word on whitespace or commas; a single unrecognized token is
    retried as a string of one-character events."""
    toks = text.split()
    if not toks or not all(t in monoid.events for t in toks):
        toks = [t for t in re.split(r"[\s,]+", text.strip()) if t]
        if len(toks) == 1 and toks[0] not in monoid.events:
            if all(c in monoid.events for c in toks[0]):
                toks = list(toks[0])
    check_word(toks, monoid)
    return toks


def render_word(letters) -> str:
    return ".".join(letters) if letters else "(empty)"


def _render_term(t) -> str:
    if isinstance(t, str):
        return t
    g, tr = t
    return f"{g}@{'.'.join(tr)}" if tr else g


class _Writer:
    """Collects result documents, inventing names for supporting objects so
    the output bundle is self-contained."""

    def __init__(self):
        self.docs: dict = {}
        self._seen: list = []  # (name, kind, object)

    def _fresh(self, hint: str) -> str:
        name, i = hint, 2
        while name in self.docs:
            name = f"{hint}_{i}"
            i += 1
        return name

    def _find(self, kind, obj):
        for name, k, o in self._seen:
            if k == kind and o == obj:
                return name
        return None

    def monoid(self, m, hint="monoid") -> str:
        name = self._find("monoid", m)
        if name is None:
            name = self._fresh(hint)
            self.docs[name] = ix.monoid_doc(m)
            self._seen.append((name, "monoid", m))
        return name

    def hom(self, h, name: str) -> None:
        self.docs[name] = ix.hom_doc(h, self.monoid(h.source), self.monoid(h.target))

    def space(self, s, hint="space") -> str:
        name = self._find("space", s)
        if name is None:
            name = self._fresh(hint)
            self.docs[name] = ix.space_doc(s, self.monoid(s.monoid, hint + "_monoid"))
            self._seen.append((name, "space", s))
        return name

    def space_morphism(self, m, name: str) -> None:
        self.docs[name] = ix.space_morphism_doc(m, self.space(m.source), self.space(m.target))

    def system(self, a, hint="system") -> str:
        name = self._find("system", a)
        if name is None:
            name = self._fresh(hint)
            self.docs[name] = ix.system_doc(a)
            self._seen.append((name, "system", a))
        return name

    def system_morphism(self, m, name: str) -> None:
        self.docs[name] = ix.system_morphism_doc(m, self.system(m.source), self.system(m.target))

    def seed(self, name: str, kind: str, obj) -> None:
        """Register an input object under its bundle name."""
        if self._find(kind, obj) is not None:
            return
        if kind == "monoid":
            self.docs[name] = ix.monoid_doc(obj)
        elif kind == "space":
            self.monoid(obj.monoid, name + "_monoid")
            self.docs[name] = ix.space_doc(obj, self.monoid(obj.monoid))
        elif kind == "system":
            self.docs[name] = ix.system_doc(obj)
        else:
            raise ValueError(kind)
        self._seen.append((name, kind, obj))


def _emit(args, writer, summary, lines) -> None:
    if args.format == "json":
        payload = {"version": ix.VERSION, "documents": writer.docs if writer else {}}
        if summary:
            payload["summary"] = summary
        text = ix.dumps(payload)
    else:
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Command handlers


def cmd_normalize(args, bundle):
    m = bundle.get(args.monoid, "monoid")
    word = parse_word(args.word, m)
    nf = normal_form(word, m)
    summary = {"input": word, "normal_form": list(nf), "rendered": render_word(nf)}
    return None, summary, [render_word(nf)]


def cmd_equiv(args, bundle):
    m = bundle.get(args.monoid, "monoid")
    left = normal_form(parse_word(args.left, m), m)
    right = normal_form(parse_word(args.right, m), m)
    eq = left == right
    summary = {
        "equivalent": eq,
        "left_normal_form": list(left),
        "right_normal_form": list(right),
    }
    return None, summary, ["equivalent" if eq else "not equivalent"]


def cmd_hom_check(args, bundle):
    h = bundle.get(args.hom, "hom")
    ip = is_independence_preserving(h)
    if _category(args.category) is Category.FPCM_PAR and not ip:
        raise NotIndependencePreserving(
            f"hom {args.hom!r} is not a morphism in the {args.category} category"
        )
    summary = {"valid": True, "independence_preserving": ip}
    lines = [
        "valid basic homomorphism",
        f"independence-preserving: {'yes' if ip else 'no'}",
    ]
    return None, summary, lines


def cmd_monoid_product(args, bundle):
    flag = _category(args.category)
    w = _Writer()
    ms = []
    for name in args.objects:
        m = bundle.get(name, "monoid")
        w.seed(name, "monoid", m)
        ms.append(m)
    res = fpcm_cat.product(ms, flag)
    w.seed("result", "monoid", res.monoid)
    for i, p in enumerate(res.projections):
        w.hom(p, f"proj_{i}")
    summary = {"events": list(res.monoid.events), "category": args.category}
    lines = [f"product events: {', '.join(res.monoid.events) or '(none)'}"]
    return w, summary, lines


def cmd_monoid_coproduct(args, bundle):
    flag = _category(args.category)
    w = _Writer()
    ms = []
    for name in args.objects:
        m = bundle.get(name, "monoid")
        w.seed(name, "monoid", m)
        ms.append(m)
    res = fpcm_cat.coproduct(ms, flag)
    w.seed("result", "monoid", res.monoid)
    for i, inj in enumerate(res.injections):
        w.hom(inj, f"inj_{i}")
    summary = {"events": list(res.monoid.events), "category": args.category}
    lines = [f"coproduct events: {', '.join(res.monoid.events) or '(none)'}"]
    return w, summary, lines


def cmd_monoid_equalize(args, bundle):
    flag = _category(args.category)
    f = bundle.get(args.left, "hom")
    g = bundle.get(args.right, "hom")
    w = _Writer()
    sub, incl = fpcm_cat.equalizer(f, g, flag)
    w.seed("result", "monoid", sub)
    w.hom(incl, "include")
    summary = {"events": list(sub.events), "category": args.category}
    lines = [f"equalizer events: {', '.join(sub.events) or '(none)'}"]
    return w, summary, lines


def cmd_monoid_coequalize(args, bundle):
    flag = _category(args.category)
    f = bundle.get(args.left, "hom")
    g = bundle.get(args.right, "hom")
    w = _Writer()
    res = fpcm_cat.coequalizer(f, g, flag)
    w.seed("result", "monoid", res.monoid)
    w.hom(res.quotient, "quotient")
    summary = {
        "events": list(res.monoid.events),
        "classes": {e: c for e, c in sorted(res.classes.items())},
        "category": args.category,
    }
    lines = [f"coequalizer events: {', '.join(res.monoid.events) or '(none)'}"]
    for e, c in sorted(res.classes.items()):
        lines.append(f"  {e} -> {c if c is not None else '(identity)'}")
    return w, summary, lines


def _monoid_diagram(bundle, name) -> MonoidDiagram:
    d = bundle.get(name, "diagram")
    if not isinstance(d, MonoidDiagram):
        raise SchemaError(f"diagram {name!r} is not a monoid diagram")
    return d


def cmd_monoid_limit(args, bundle):
    flag = _category(args.category)
    d = _monoid_diagram(bundle, args.diagram)
    cone = fpcm_cat.limit(d, flag)
    w = _Writer()
    w.seed("result", "monoid", cone.apex)
    for o in sorted(cone.legs):
        w.hom(cone.legs[o], f"leg_{o}")
    summary = {"events": list(cone.apex.events), "category": args.category}
    lines = [f"limit events: {', '.join(cone.apex.events) or '(none)'}"]
    return w, summary, lines


def cmd_monoid_colimit(args, bundle):
    flag = _category(args.category)
    d = _monoid_diagram(bundle, args.diagram)
    cocone = fpcm_cat.colimit(d, flag)
    w = _Writer()
    w.seed("result", "monoid", cocone.apex)
    for o in sorted(cocone.legs):
        w.hom(cocone.legs[o], f"leg_{o}")
    summary = {"events": list(cocone.apex.events), "category": args.category}
    lines = [f"colimit events: {', '.join(cocone.apex.events) or '(none)'}"]
    return w, summary, lines


def cmd_radjoint(args, bundle):
    t = bundle.get(args.table, "monoid_table")
    res = fpcm_cat.right_adjoint_R(t.elements, t.table)
    w = _Writer()
    w.seed("result", "monoid", res.monoid)
    summary = {
        "events": list(res.monoid.events),
        "identity": res.identity,
        "counit": dict(sorted(res.counit.items())),
    }
    lines = [f"generators: {', '.join(res.monoid.events) or '(none)'}"]
    return w, summary, lines


def cmd_space_product(args, bundle):
    flag = _category(args.category)
    w = _Writer()
    spaces = []
    for name in args.objects:
        s = bundle.get(name, "space")
        w.seed(name, "space", s)
        spaces.append(s)
    res = ss.product(spaces, flag)
    w.seed("result", "space", res.space)
    for i, p in enumerate(res.projections):
        w.space_morphism(p, f"proj_{i}")
    summary = {
        "states": list(res.space.states),
        "events": list(res.space.monoid.events),
        "category": args.category,
    }
    lines = [
        f"product states: {len(res.space.states)}",
        f"product events: {len(res.space.monoid.events)}",
    ]
    return w, summary, lines


def cmd_space_equalize(args, bundle):
    flag = _category(args.category)
    m1 = bundle.get(args.left, "space_morphism")
    m2 = bundle.get(args.right, "space_morphism")
    sub, incl = ss.equalizer(m1, m2, flag)
    w = _Writer()
    w.seed("result", "space", sub)
    w.space_morphism(incl, "include")
    summary = {"states": list(sub.states), "events": list(sub.monoid.events)}
    lines = [f"equalizer states: {', '.join(sub.states) or '(none)'}"]
    return w, summary, lines


def _space_diagram(bundle, name) -> SpaceDiagram:
    d = bundle.get(name, "diagram")
    if not isinstance(d, SpaceDiagram):
        raise SchemaError(f"diagram {name!r} is not a state-space diagram")
    return d


def cmd_space_limit(args, bundle):
    flag = _category(args.category)
    d = _space_diagram(bundle, args.diagram)
    cone = ss.limit(d, flag)
    w = _Writer()
    w.seed("result", "space", cone.apex)
    for o in sorted(cone.legs):
        w.space_morphism(cone.legs[o], f"leg_{o}")
    summary = {"states": list(cone.apex.states), "events": list(cone.apex.monoid.events)}
    lines = [f"limit states: {len(cone.apex.states)}"]
    return w, summary, lines


def cmd_space_colimit(args, bundle):
    flag = _category(args.category)
    d = _space_diagram(bundle, args.diagram)
    res = ss.colimit(d, flag, bound=args.bound)
    sat = res.saturation
    w = _Writer()
    w.seed("result", "space", sat.space)
    for o in sorted(res.cocone.legs):
        w.space_morphism(res.cocone.legs[o], f"leg_{o}")
    frontier = [_render_term(t) for t in sat.frontier]
    summary = {
        "status": sat.status,
        "states": list(sat.space.states),
        "class_map": dict(sorted(sat.class_map.items())),
        "frontier": frontier,
    }
    lines = [
        f"status: {sat.status}",
        f"colimit states: {len(sat.space.states)}",
    ]
    if frontier:
        lines.append("frontier: " + ", ".join(frontier))
    return w, summary, lines


def cmd_asys_validate(args, bundle):
    a = bundle.get(args.system, "system")
    cls = asys.classify(a)
    summary = {"valid": True, "classification": cls}
    return None, summary, ["valid weak asynchronous system", f"classification: {cls}"]


def cmd_asys_classify(args, bundle):
    a = bundle.get(args.system, "system")
    cls = asys.classify(a)
    return None, {"classification": cls}, [cls]


def cmd_asys_morphism_check(args, bundle):
    m = bundle.get(args.morphism, "system_morphism")
    poly = asys.is_polygonal(m)
    summary = {"valid": True, "polygonal": poly}
    return None, summary, ["valid system morphism", f"polygonal: {'yes' if poly else 'no'}"]


def cmd_asys_polygonal_check(args, bundle):
    m = bundle.get(args.morphism, "system_morphism")
    poly = asys.is_polygonal(m)
    return None, {"polygonal": poly}, ["polygonal" if poly else "not polygonal"]


def cmd_asys_product(args, bundle):
    flag = _category(args.category)
    w = _Writer()
    systems = []
    for name in args.objects:
        a = bundle.get(name, "system")
        w.seed(name, "system", a)
        systems.append(a)
    cone = asys.product(systems, flag)
    w.seed("result", "system", cone.apex)
    for o in sorted(cone.legs):
        w.system_morphism(cone.legs[o], f"proj_{o}")
    summary = {
        "states": list(cone.apex.states),
        "initial": None if cone.apex.initial == STAR else cone.apex.initial,
        "events": list(cone.apex.monoid.events),
    }
    lines = [
        f"product states: {len(cone.apex.states)}",
        f"product events: {len(cone.apex.monoid.events)}",
    ]
    return w, summary, lines


def _system_diagram(bundle, name) -> asys.SystemDiagram:
    d = bundle.get(name, "diagram")
    if not isinstance(d, asys.SystemDiagram):
        raise SchemaError(f"diagram {name!r} is not a system diagram")
    return d


def cmd_asys_limit(args, bundle):
    flag = _category(args.category)
    d = _system_diagram(bundle, args.diagram)
    cone = asys.limit(d, flag)
    w = _Writer()
    w.seed("result", "system", cone.apex)
    for o in sorted(cone.legs):
        w.system_morphism(cone.legs[o], f"leg_{o}")
    summary = {
        "states": list(cone.apex.states),
        "initial": None if cone.apex.initial == STAR else cone.apex.initial,
    }
    lines = [f"limit states: {len(cone.apex.states)}"]
    return w, summary, lines


def cmd_asys_colimit(args, bundle):
    flag = _category(args.category)
    d = _system_diagram(bundle, args.diagram)
    cocone, sat = asys.colimit(d, flag, bound=args.bound)
    w = _Writer()
    w.seed("result", "system", cocone.apex)
    for o in sorted(cocone.legs):
        w.system_morphism(cocone.legs[o], f"leg_{o}")
    frontier = [_render_term(t) for t in sat.frontier]
    summary = {
        "status": sat.status,
        "states": list(cocone.apex.states),
        "initial": None if cocone.apex.initial == STAR else cocone.apex.initial,
        "class_map": dict(sorted(sat.class_map.items())),
        "frontier": frontier,
    }
    lines = [f"status: {sat.status}", f"colimit states: {len(cocone.apex.states)}"]
    if frontier:
        lines.append("frontier: " + ", ".join(frontier))
    return w, summary, lines


def cmd_asys_reach(args, bundle):
    a = bundle.get(args.system, "system")
    r = asys.reachable(a)
    w = _Writer()
    w.seed("result", "system", r)
    summary = {"states": list(r.states), "removed": len(a.states) - len(r.states)}
    lines = [f"reachable states: {len(r.states)} of {len(a.states)}"]
    return w, summary, lines


def cmd_asys_unfold(args, bundle):
    a = bundle.get(args.system, "system")
    rows = asys.unfold(a, args.depth)
    summary = {"traces": [[list(t), s] for t, s in rows]}
    lines = [f"{render_word(t)} -> {s}" for t, s in rows] or ["(no runs)"]
    return None, summary, lines


def cmd_iso_check(args, bundle):
    left = bundle.get(args.left)
    right = bundle.get(args.right)
    lk, rk = bundle.kinds[args.left], bundle.kinds[args.right]
    if lk != rk or lk not in ("monoid", "space"):
        raise SchemaError("iso-check needs two monoids or two state spaces")
    if lk == "monoid":
        emap = fpcm_cat.monoids_isomorphic(left, right)
        found = emap is not None
        summary = {"isomorphic": found}
        if found:
            summary["events"] = dict(sorted(emap.items()))
    else:
        res = ss.is_isomorphic(left, right)
        found = res is not None
        summary = {"isomorphic": found}
        if found:
            emap, smap = res
            summary["events"] = dict(sorted(emap.items()))
            summary["states"] = dict(sorted(smap.items()))
    return None, summary, ["isomorphic" if found else "not isomorphic"]


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(p):
    p.add_argument("bundle", help="path to a JSON bundle")
    p.add_argument("--output", help="write output to this file instead of stdout")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_category(p):
    p.add_argument("--category", choices=("fpcm", "fpcm-par"), default="fpcm")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="asyntrace")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="canonical form of a word")
    _add_common(p)
    p.add_argument("--monoid", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("equiv", help="decide trace equivalence of two words")
    _add_common(p)
    p.add_argument("--monoid", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("hom-check", help="validate a basic homomorphism")
    _add_common(p)
    _add_category(p)
    p.add_argument("--hom", required=True)
    p.set_defaults(func=cmd_hom_check)

    p = sub.add_parser("radjoint", help="reflect a finite monoid table")
    _add_common(p)
    p.add_argument("--table", required=True)
    p.set_defaults(func=cmd_radjoint)

    p = sub.add_parser("iso-check", help="search for an isomorphism")
    _add_common(p)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=cmd_iso_check)

    mon = sub.add_parser("monoid", help="monoid category constructions")
    msub = mon.add_subparsers(dest="subcommand", required=True)
    for name, func, style in (
        ("product", cmd_monoid_product, "objects"),
        ("coproduct", cmd_monoid_coproduct, "objects"),
        ("equalize", cmd_monoid_equalize, "pair"),
        ("coequalize", cmd_monoid_coequalize, "pair"),
        ("limit", cmd_monoid_limit, "diagram"),
        ("colimit", cmd_monoid_colimit, "diagram"),
    ):
        p = msub.add_parser(name)
        _add_common(p)
        _add_category(p)
        if style == "objects":
            p.add_argument("--objects", nargs="+", required=True)
        elif style == "pair":
            p.add_argument("--left", required=True)
            p.add_argument("--right", required=True)
        else:
            p.add_argument("--diagram", required=True)
        p.set_defaults(func=func)

    spc = sub.add_parser("space", help="state-space constructions")
    ssub = spc.add_subparsers(dest="subcommand", required=True)
    for name, func, style in (
        ("product", cmd_space_product, "objects"),
        ("equalize", cmd_space_equalize, "pair"),
        ("limit", cmd_space_limit, "diagram"),
        ("colimit", cmd_space_colimit, "diagram"),
    ):
        p = ssub.add_parser(name)
        _add_common(p)
        _add_category(p)
        if style == "objects":
            p.add_argument("--objects", nargs="+", required=True)
        elif style == "pair":
            p.add_argument("--left", required=True)
            p.add_argument("--right", required=True)
        else:
            p.add_argument("--diagram", required=True)
            if name == "colimit":
                p.add_argument("--bound", type=int, default=8)
        p.set_defaults(func=func)

    asp = sub.add_parser("asys", help="weak asynchronous system constructions")
    asub = asp.add_subparsers(dest="subcommand", required=True)

    for name, func in (
        ("validate", cmd_asys_validate),
        ("classify", cmd_asys_classify),
        ("reach", cmd_asys_reach),
    ):
        p = asub.add_parser(name)
        _add_common(p)
        p.add_argument("--system", required=True)
        p.set_defaults(func=func)

    p = asub.add_parser("unfold")
    _add_common(p)
    p.add_argument("--system", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_asys_unfold)

    for name, func in (
        ("morphism-check", cmd_asys_morphism_check),
        ("polygonal-check", cmd_asys_polygonal_check),
    ):
        p = asub.add_parser(name)
        _add_common(p)
        p.add_argument("--morphism", required=True)
        p.set_defaults(func=func)

    p = asub.add_parser("product")
    _add_common(p)
    p.add_argument("--objects", nargs="+", required=True)
    p.add_argument("--category", choices=("fpcm", "fpcm-par"), default="fpcm-par")
    p.set_defaults(func=cmd_asys_product)

    p = asub.add_parser("limit")
    _add_common(p)
    p.add_argument("--diagram", required=True)
    p.add_argument("--category", choices=("fpcm", "fpcm-par"), default="fpcm-par")
    p.set_defaults(func=cmd_asys_limit)

    p = asub.add_parser("colimit")
    _add_common(p)
    p.add_argument("--diagram", required=True)
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--category", choices=("fpcm", "fpcm-par"), default="fpcm-par")
    p.set_defaults(func=cmd_asys_colimit)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        bundle = ix.parse_file(args.bundle)
        writer, summary, lines = args.func(args, bundle)
    except (ParseError, SchemaError, DanglingReference) as exc:
        sys.stderr.write(f"asyntrace: error [{exc.code}]: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"asyntrace: error: {exc}\n")
        return 2
    except TraceError as exc:
        sys.stderr.write(f"asyntrace: error [{exc.code}]: {exc}\n")
        return 1
    _emit(args, writer, summary, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
