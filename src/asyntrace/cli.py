"""Command line front end.

All commands read a JSON bundle, run one construction, and print either a
human-readable report (``--format text``, the default) or a self-contained
JSON bundle with the results (``--format json``).  Output is deterministic:
the same inputs always produce byte-identical output.

Exit codes: 0 on success, 1 on a domain error (invalid homomorphism,
diamond violation, size limit, ...), 2 on usage, parse, or schema errors.

Every command is one row of ``COMMANDS``: its words, its handler and its
options.  A line that names a row and gives one bundle and that row's
options, each once by its exact name with a value argparse is certain to
take, is scanned against the row alone, into the namespace the argparse
tree would make of it, without importing argparse.  The tree, built once
per process by one loop over the table, parses every other line: help,
errors, abbreviations, ``--opt=value``, ``--``, repeated options.  The
shared code fetches the documents that a row's option style names, writes
the output bundle and emits it, so a handler holds only its construction,
its summary and its text lines.
"""

from __future__ import annotations

import contextlib
import functools
import re
import sys
import types
from typing import Callable, NamedTuple, Sequence

from . import async_system as asys
from . import fpcm_cat
from . import interchange as ix
from . import state_space as ss
from .errors import (
    DanglingReference,
    NotIndependencePreserving,
    ParseError,
    SchemaError,
    TraceError,
)
from .fpcm_cat import Category
from .trace_core import (
    STAR,
    check_word,
    is_independence_preserving,
    normal_form,
)


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


class _Writer:
    """Collects result documents, inventing names for supporting objects so
    the output bundle is self-contained.  No document takes a ``reserved``
    name unless it is written there by name."""

    def __init__(self, reserved=()):
        self.docs: dict = {}
        self._reserved = set(reserved)
        self._seen: list = []  # (name, object)

    def _fresh(self, hint: str) -> str:
        name, i = hint, 2
        while name in self.docs or name in self._reserved:
            name = f"{hint}_{i}"
            i += 1
        return name

    def name(self, kind: str, obj, hint: str) -> str:
        """The name of ``obj``'s document: the one it was written under, or
        else that of an equal object written earlier; failing both, ``obj``
        is written now under ``hint`` or a fresh name made from it."""
        for n, o in self._seen:
            if o is obj:
                return n
        for n, o in self._seen:
            if o == obj:
                return n
        return self.write(kind, obj, self._fresh(hint), hint)

    def write(self, kind: str, obj, name: str, hint: str) -> str:
        """Write ``obj``, a document of ``kind``, under ``name``; a space's
        monoid is named from ``hint``."""
        if kind == "monoid":
            doc = ix.monoid_doc(obj)
        elif kind == "space":
            doc = ix.space_doc(obj, self.name("monoid", obj.monoid, hint + "_monoid"))
        else:
            doc = ix.system_doc(obj)
        self.docs[name] = doc
        self._seen.append((name, obj))
        return name

    def morphism(self, kind: str, m, name: str) -> None:
        """Write ``m``, a morphism between documents of ``kind``, under ``name``."""
        source, target = self.name(kind, m.source, kind), self.name(kind, m.target, kind)
        self.docs[name] = KINDS[kind][1](m, source, target)


_SLICE = 1 << 20  # characters per write


def _emit(args, writer, summary, lines) -> None:
    if args.format == "json":
        payload = {"version": ix.VERSION, "documents": writer.docs if writer else {}}
        if summary:
            payload["summary"] = summary
        text = ix.dumps(payload)
    else:
        text = "\n".join(lines) + "\n"
    # in slices, so that a text file never encodes a second copy of all of it
    with open(args.output, "w", encoding="utf-8") if args.output else contextlib.nullcontext(sys.stdout) as fh:
        for i in range(0, len(text), _SLICE):
            fh.write(text[i : i + _SLICE])


class Output(NamedTuple):
    """What a handler computed: the JSON summary and the text lines, and,
    for a construction, its result and the morphisms written after it."""

    summary: dict
    lines: list
    result: object = None
    morphisms: Sequence = ()  # (document name, morphism) pairs


def _listing(names) -> str:
    return ", ".join(names) or "(none)"


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _numbered(prefix, morphisms) -> list:
    return [(f"{prefix}_{i}", m) for i, m in enumerate(morphisms)]


def _legs(prefix, legs) -> list:
    return [(f"{prefix}_{o}", legs[o]) for o in sorted(legs)]


def _initial(a):
    return None if a.initial == STAR else a.initial


# ---------------------------------------------------------------------------
# Command handlers.  A handler whose command has an option style gets the
# documents its options name (a list for "objects", two morphisms for
# "pair", a diagram for "diagram"); any other handler gets the bundle.


def cmd_normalize(args, bundle):
    m = bundle.get(args.monoid, "monoid")
    word = parse_word(args.word, m)
    nf = normal_form(word, m)
    summary = {"input": word, "normal_form": nf, "rendered": render_word(nf)}
    return Output(summary, [render_word(nf)])


def cmd_equiv(args, bundle):
    m = bundle.get(args.monoid, "monoid")
    left = normal_form(parse_word(args.left, m), m)
    right = normal_form(parse_word(args.right, m), m)
    eq = left == right
    summary = {
        "equivalent": eq,
        "left_normal_form": left,
        "right_normal_form": right,
    }
    return Output(summary, ["equivalent" if eq else "not equivalent"])


def cmd_hom_check(args, bundle):
    h = bundle.get(args.hom, "hom")
    ip = is_independence_preserving(h)
    if Category(args.category) is Category.FPCM_PAR and not ip:
        raise NotIndependencePreserving(
            f"hom {args.hom!r} is not a morphism in the {args.category} category"
        )
    summary = {"valid": True, "independence_preserving": ip}
    return Output(summary, ["valid basic homomorphism", f"independence-preserving: {_yes(ip)}"])


def cmd_radjoint(args, bundle):
    t = bundle.get(args.table, "monoid_table")
    res = fpcm_cat.right_adjoint_R(t.elements, t.table)
    summary = {
        "events": res.monoid.events,
        "identity": res.identity,
        "counit": res.counit,
    }
    return Output(summary, [f"generators: {_listing(res.monoid.events)}"], res.monoid)


def cmd_iso_check(args, bundle):
    left, right = bundle.get(args.left), bundle.get(args.right)
    lk, rk = bundle.kinds[args.left], bundle.kinds[args.right]
    if lk != rk or lk not in ("monoid", "space"):
        raise SchemaError("iso-check needs two monoids or two state spaces")
    if lk == "monoid":
        emap = fpcm_cat.monoids_isomorphic(left, right)
        maps = None if emap is None else (emap,)
    else:
        maps = ss.is_isomorphic(left, right)
    summary = {"isomorphic": maps is not None, **dict(zip(("events", "states"), maps or ()))}
    return Output(summary, ["isomorphic" if maps is not None else "not isomorphic"])


def _monoid_output(what, m, args, morphisms, **more) -> Output:
    summary = {"events": m.events, "category": args.category, **more}
    return Output(summary, [f"{what} events: {_listing(m.events)}"], m, morphisms)


def cmd_monoid_product(args, monoids):
    res = fpcm_cat.product(monoids, Category(args.category))
    return _monoid_output("product", res.monoid, args, _numbered("proj", res.projections))


def cmd_monoid_coproduct(args, monoids):
    res = fpcm_cat.coproduct(monoids, Category(args.category))
    return _monoid_output("coproduct", res.monoid, args, _numbered("inj", res.injections))


def cmd_monoid_equalize(args, f, g):
    sub, incl = fpcm_cat.equalizer(f, g, Category(args.category))
    return _monoid_output("equalizer", sub, args, [("include", incl)])


def cmd_monoid_coequalize(args, f, g):
    res = fpcm_cat.coequalizer(f, g, Category(args.category))
    classes = dict(sorted(res.classes.items()))
    out = _monoid_output("coequalizer", res.monoid, args, [("quotient", res.quotient)], classes=classes)
    out.lines.extend(f"  {e} -> {c if c is not None else '(identity)'}" for e, c in classes.items())
    return out


def cmd_monoid_limit(args, d):
    cone = fpcm_cat.limit(d, Category(args.category))
    return _monoid_output("limit", cone.apex, args, _legs("leg", cone.legs))


def cmd_monoid_colimit(args, d):
    cocone = fpcm_cat.colimit(d, Category(args.category))
    return _monoid_output("colimit", cocone.apex, args, _legs("leg", cocone.legs))


def _colimit_output(sat, apex, legs, **more) -> Output:
    frontier = sat.frontier_names()
    summary = {
        "status": sat.status,
        "states": apex.states,
        "class_map": sat.class_map,
        "frontier": frontier,
        **more,
    }
    lines = [f"status: {sat.status}", f"colimit states: {len(apex.states)}"]
    if frontier:
        lines.append("frontier: " + ", ".join(frontier))
    return Output(summary, lines, apex, _legs("leg", legs))


def cmd_space_product(args, spaces):
    res = ss.product(spaces, Category(args.category))
    s = res.space
    summary = {"states": s.states, "events": s.monoid.events, "category": args.category}
    lines = [f"product states: {len(s.states)}", f"product events: {len(s.monoid.events)}"]
    return Output(summary, lines, s, _numbered("proj", res.projections))


def cmd_space_equalize(args, m1, m2):
    sub, incl = ss.equalizer(m1, m2, Category(args.category))
    summary = {"states": sub.states, "events": sub.monoid.events}
    return Output(summary, [f"equalizer states: {_listing(sub.states)}"], sub, [("include", incl)])


def cmd_space_limit(args, d):
    cone = ss.limit(d, Category(args.category))
    summary = {"states": cone.apex.states, "events": cone.apex.monoid.events}
    return Output(summary, [f"limit states: {len(cone.apex.states)}"], cone.apex, _legs("leg", cone.legs))


def cmd_space_colimit(args, d):
    res = ss.colimit(d, Category(args.category), bound=args.bound)
    return _colimit_output(res.saturation, res.saturation.space, res.cocone.legs)


def cmd_asys_validate(args, bundle):
    cls = asys.classify(bundle.get(args.system, "system"))
    summary = {"valid": True, "classification": cls}
    return Output(summary, ["valid weak asynchronous system", f"classification: {cls}"])


def cmd_asys_classify(args, bundle):
    cls = asys.classify(bundle.get(args.system, "system"))
    return Output({"classification": cls}, [cls])


def cmd_asys_reach(args, bundle):
    a = bundle.get(args.system, "system")
    r = asys.reachable(a)
    summary = {"states": r.states, "removed": len(a.states) - len(r.states)}
    return Output(summary, [f"reachable states: {len(r.states)} of {len(a.states)}"], r)


def cmd_asys_unfold(args, bundle):
    rows = asys.unfold(bundle.get(args.system, "system"), args.depth)
    summary = {"traces": rows}
    return Output(summary, [f"{render_word(t)} -> {s}" for t, s in rows] or ["(no runs)"])


def cmd_asys_morphism_check(args, bundle):
    poly = asys.is_polygonal(bundle.get(args.morphism, "system_morphism"))
    summary = {"valid": True, "polygonal": poly}
    return Output(summary, ["valid system morphism", f"polygonal: {_yes(poly)}"])


def cmd_asys_polygonal_check(args, bundle):
    poly = asys.is_polygonal(bundle.get(args.morphism, "system_morphism"))
    return Output({"polygonal": poly}, ["polygonal" if poly else "not polygonal"])


def cmd_asys_product(args, systems):
    cone = asys.product(systems)
    a = cone.apex
    summary = {"states": a.states, "initial": _initial(a), "events": a.monoid.events}
    lines = [f"product states: {len(a.states)}", f"product events: {len(a.monoid.events)}"]
    return Output(summary, lines, a, _legs("proj", cone.legs))


def cmd_asys_limit(args, d):
    cone = asys.limit(d)
    a = cone.apex
    summary = {"states": a.states, "initial": _initial(a)}
    return Output(summary, [f"limit states: {len(a.states)}"], a, _legs("leg", cone.legs))


def cmd_asys_colimit(args, d):
    cocone, sat = asys.colimit(d, bound=args.bound)
    return _colimit_output(sat, cocone.apex, cocone.legs, initial=_initial(cocone.apex))


# ---------------------------------------------------------------------------
# The command table


class Command(NamedTuple):
    words: tuple  # the command words: one, or a group and a subcommand
    kind: str | None  # document kind that a style reads and the result is
    handler: Callable
    options: str | tuple  # a style ("objects", "pair", "diagram") or option names
    category: bool = False  # whether it takes --category (before its other options)
    extra: tuple = ()  # options after the style's
    help: str | None = None


COMMANDS = (
    Command(("normalize",), None, cmd_normalize, ("--monoid", "--word"), help="canonical form of a word"),
    Command(("equiv",), None, cmd_equiv, ("--monoid", "--left", "--right"),
            help="decide trace equivalence of two words"),
    Command(("hom-check",), None, cmd_hom_check, ("--hom",), True, help="validate a basic homomorphism"),
    Command(("radjoint",), "monoid", cmd_radjoint, ("--table",), help="reflect a finite monoid table"),
    Command(("iso-check",), None, cmd_iso_check, ("--left", "--right"), help="search for an isomorphism"),
    Command(("monoid", "product"), "monoid", cmd_monoid_product, "objects", True),
    Command(("monoid", "coproduct"), "monoid", cmd_monoid_coproduct, "objects", True),
    Command(("monoid", "equalize"), "monoid", cmd_monoid_equalize, "pair", True),
    Command(("monoid", "coequalize"), "monoid", cmd_monoid_coequalize, "pair", True),
    Command(("monoid", "limit"), "monoid", cmd_monoid_limit, "diagram", True),
    Command(("monoid", "colimit"), "monoid", cmd_monoid_colimit, "diagram", True),
    Command(("space", "product"), "space", cmd_space_product, "objects", True),
    Command(("space", "equalize"), "space", cmd_space_equalize, "pair", True),
    Command(("space", "limit"), "space", cmd_space_limit, "diagram", True),
    Command(("space", "colimit"), "space", cmd_space_colimit, "diagram", True, ("--bound",)),
    Command(("asys", "validate"), "system", cmd_asys_validate, ("--system",)),
    Command(("asys", "classify"), "system", cmd_asys_classify, ("--system",)),
    Command(("asys", "reach"), "system", cmd_asys_reach, ("--system",)),
    Command(("asys", "unfold"), "system", cmd_asys_unfold, ("--system", "--depth")),
    Command(("asys", "morphism-check"), "system", cmd_asys_morphism_check, ("--morphism",)),
    Command(("asys", "polygonal-check"), "system", cmd_asys_polygonal_check, ("--morphism",)),
    Command(("asys", "product"), "system", cmd_asys_product, "objects"),
    Command(("asys", "limit"), "system", cmd_asys_limit, "diagram"),
    Command(("asys", "colimit"), "system", cmd_asys_colimit, "diagram", extra=("--bound",)),
)

GROUPS = {
    "monoid": "monoid category constructions",
    "space": "state-space constructions",
    "asys": "weak asynchronous system constructions",
}

STYLES = {"objects": ("--objects",), "pair": ("--left", "--right"), "diagram": ("--diagram",)}

# argparse settings by option name; any other option is a required string
OPTIONS = {
    "--output": {"help": "write output to this file instead of stdout"},
    "--format": {"choices": ("text", "json"), "default": "text"},
    "--category": {"choices": ("fpcm", "fpcm-par"), "default": "fpcm"},
    "--objects": {"nargs": "+", "required": True},
    "--bound": {"type": int, "default": 8},
    "--depth": {"type": int, "required": True},
}

# per document kind: the name of its diagrams and the maker of its morphisms' documents
KINDS = {
    "monoid": ("monoid", ix.hom_doc),
    "space": ("state-space", ix.space_morphism_doc),
    "system": ("system", ix.system_morphism_doc),
}

_ROWS = {cmd.words: cmd for cmd in COMMANDS}


def _options(cmd: Command) -> dict:
    """``cmd``'s options after its bundle, in help order, with their ``OPTIONS`` settings."""
    names = ("--output", "--format", *(("--category",) if cmd.category else ()),
             *STYLES.get(cmd.options, cmd.options), *cmd.extra)
    return {name: OPTIONS.get(name, {"required": True}) for name in names}


def _add_command(sub, cmd: Command) -> None:
    p = sub.add_parser(cmd.words[-1], **({"help": cmd.help} if cmd.help else {}))
    p.add_argument("bundle", help="path to a JSON bundle")
    for name, settings in _options(cmd).items():
        p.add_argument(name, **settings)
    p.set_defaults(cmd=cmd)


def build_parser():
    """A fresh argparse parser with one subcommand per row of ``COMMANDS``."""
    import argparse

    top = argparse.ArgumentParser(prog="asyntrace")
    sub = top.add_subparsers(dest="command", required=True)
    groups: dict = {}
    for cmd in COMMANDS:
        parent = sub
        if len(cmd.words) == 2:
            group = cmd.words[0]
            if group not in groups:
                grp = sub.add_parser(group, help=GROUPS[group])
                groups[group] = grp.add_subparsers(dest="subcommand", required=True)
            parent = groups[group]
        _add_command(parent, cmd)
    return top


@functools.cache
def _tree():
    """The tree that ``_parse`` falls back on, built once per process."""
    return build_parser()


def _scan(argv: list):
    """The namespace that the tree makes of ``argv`` when that is certain,
    else None: the first one or two words name a row, and the rest is one
    bundle and that row's options, each once by its exact name, the required
    ones all there, each with a value (for ``nargs``, those up to the next
    option) that takes its type and choices; no value starts with ``-``."""
    cmd = _ROWS.get(tuple(argv[:1])) or _ROWS.get(tuple(argv[:2]))
    if cmd is None:
        return None
    options, given, bundles = _options(cmd), {}, []
    i, n = len(cmd.words), len(argv)
    while i < n:
        word, i = argv[i], i + 1
        if word[:1] != "-":
            bundles.append(word)
            continue
        settings = options.get(word)
        if settings is None or word in given:
            return None
        many, end = "nargs" in settings, i
        while end < n and argv[end][:1] != "-" and (many or end == i):
            end += 1
        if end == i:
            return None
        value, i = argv[i:end] if many else argv[i], end
        if "type" in settings:
            try:  # argparse's own conversion, so what it refuses goes to the tree
                value = settings["type"](value)
            except ValueError:
                return None
        if value not in settings.get("choices", (value,)):
            return None
        given[word] = value
    if len(bundles) != 1 or any(s.get("required") and name not in given for name, s in options.items()):
        return None
    ns = dict(zip(("command", "subcommand"), cmd.words), bundle=bundles[0], cmd=cmd)
    ns.update((name[2:].replace("-", "_"), given.get(name, s.get("default"))) for name, s in options.items())
    return types.SimpleNamespace(**ns)


def _parse(argv):
    """``parse_args(argv)`` of the tree, which parses only what ``_scan`` does not take."""
    argv = sys.argv[1:] if argv is None else list(argv)
    return _scan(argv) or _tree().parse_args(argv)


def _inputs(cmd: Command, args, bundle) -> tuple:
    """The documents that the options of ``cmd``'s style name."""
    if cmd.options == "objects":
        return ([bundle.get(name, cmd.kind) for name in args.objects],)
    if cmd.options == "pair":
        morphism = ix.MORPHISM_KINDS[cmd.kind]
        return bundle.get(args.left, morphism), bundle.get(args.right, morphism)
    d = bundle.get(args.diagram, "diagram")
    if bundle.bases[args.diagram] != cmd.kind:
        raise SchemaError(f"diagram {args.diagram!r} is not a {KINDS[cmd.kind][0]} diagram")
    return (d,)


def _write(cmd: Command, args, inputs, out: Output) -> _Writer:
    """The output bundle: the ``--objects`` inputs under their names, the
    result under ``result``, then its morphisms under theirs.  An input whose
    name is one of those, or that equals an earlier input, is written under
    a fresh name or not again."""
    w = _Writer(("result", *(name for name, _ in out.morphisms)))
    if cmd.options == "objects":
        for name, obj in zip(args.objects, inputs[0]):
            w.name(cmd.kind, obj, name)
    w.write(cmd.kind, out.result, "result", "result")
    for name, m in out.morphisms:
        w.morphism(cmd.kind, m, name)
    return w


def main(argv=None) -> int:
    args = _parse(argv)
    cmd, writer = args.cmd, None
    try:
        bundle = ix.parse_file(args.bundle)
        inputs = _inputs(cmd, args, bundle) if cmd.options in STYLES else (bundle,)
        out = cmd.handler(args, *inputs)
        if out.result is not None:
            writer = _write(cmd, args, inputs, out)
        _emit(args, writer, out.summary, out.lines)
    except (ParseError, SchemaError, DanglingReference) as exc:
        sys.stderr.write(f"asyntrace: error [{exc.code}]: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"asyntrace: error: {exc}\n")
        return 2
    except TraceError as exc:
        sys.stderr.write(f"asyntrace: error [{exc.code}]: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
