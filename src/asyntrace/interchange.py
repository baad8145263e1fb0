"""JSON interchange format (version 1).

A bundle is ``{"version": 1, "documents": {name: doc, ...}}``.  Document
kinds: monoid, hom, space, space_morphism, system, system_morphism, shape,
diagram, monoid_table.  Cross-references are by document name within the
bundle.  ``null`` encodes the empty trace for event images and star for
states/initials; star-valued action entries are omitted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from . import async_system as asys
from . import state_space as ss
from .diagrams import Diagram, DiagramShape, validate_shape
from .errors import DanglingReference, ParseError, SchemaError
from .trace_core import STAR, BasicHom, TraceMonoid, make_hom, make_monoid

VERSION = 1

# per object kind, the kind of its morphisms; a diagram is over one of these
MORPHISM_KINDS = {"monoid": "hom", "space": "space_morphism", "system": "system_morphism"}


@dataclass
class MonoidTable:
    elements: tuple[str, ...]
    table: tuple[tuple[str, ...], ...]


@dataclass
class Bundle:
    documents: dict  # name -> parsed object
    kinds: dict  # name -> kind string
    bases: dict = field(default_factory=dict)  # diagram name -> its base, the "over" field

    def get(self, name: str, kind: Optional[str] = None):
        if not isinstance(name, str):
            raise SchemaError(f"document reference {name!r} is not a string")
        if name not in self.documents:
            raise DanglingReference(f"no document named {name!r}")
        if kind is not None and self.kinds[name] != kind:
            raise SchemaError(
                f"document {name!r} has kind {self.kinds[name]!r}, expected {kind!r}"
            )
        return self.documents[name]


def _require(doc, field, typ, where):
    if field not in doc:
        raise SchemaError(f"{where}: missing field {field!r}")
    v = doc[field]
    if typ is not None and not isinstance(v, typ):
        raise SchemaError(f"{where}: field {field!r} has wrong type")
    return v


def _names(doc, field, where) -> list:
    """Required list of event, state or object names."""
    names = _require(doc, field, list, where)
    if not all(isinstance(x, str) for x in names):
        raise SchemaError(f"{where}: field {field!r} must hold only strings")
    return names


def _tuples(doc, field, size, where) -> list:
    """Optional list of ``size``-element lists of names, as tuples."""
    items = doc.get(field, [])
    if not isinstance(items, list):
        raise SchemaError(f"{where}: field {field!r} has wrong type")
    for item in items:
        if not (isinstance(item, list) and len(item) == size and all(isinstance(x, str) for x in item)):
            raise SchemaError(f"{where}: {field!r} entry {item!r} is not a list of {size} strings")
    return [tuple(item) for item in items]


def _name_map(doc, field, where) -> dict:
    """Required object mapping names to a name or ``null``."""
    mapping = _require(doc, field, dict, where)
    if not all(v is None or isinstance(v, str) for v in mapping.values()):
        raise SchemaError(f"{where}: values of field {field!r} must be strings or null")
    return mapping


def _parse_monoid(doc, bundle, where) -> TraceMonoid:
    return make_monoid(_names(doc, "events", where), _tuples(doc, "independence", 2, where))


def _parse_hom(doc, bundle, where) -> BasicHom:
    src = bundle.get(_require(doc, "source", str, where), "monoid")
    tgt = bundle.get(_require(doc, "target", str, where), "monoid")
    return make_hom(src, tgt, _name_map(doc, "image", where))


def _parse_space(doc, bundle, where) -> ss.StateSpace:
    monoid = bundle.get(_require(doc, "monoid", str, where), "monoid")
    states = _names(doc, "states", where)
    action = {}
    for x, row in _require(doc, "action", dict, where).items():
        if not isinstance(row, dict) or not all(isinstance(y, str) for y in row.values()):
            raise SchemaError(f"{where}: action row {x!r} must map events to state names")
        for e, y in row.items():
            action[(x, e)] = y
    return ss.make_space(monoid, states, action)


def _parse_space_morphism(doc, bundle, where) -> ss.StateSpaceMorphism:
    src = bundle.get(_require(doc, "source", str, where), "space")
    tgt = bundle.get(_require(doc, "target", str, where), "space")
    events = _name_map(doc, "events", where)
    states = _name_map(doc, "states", where)
    monoid_part = make_hom(src.monoid, tgt.monoid, dict(events))
    state_part = {x: (STAR if v is None else v) for x, v in states.items()}
    return ss.make_space_morphism(src, tgt, monoid_part, state_part)


def _parse_system(doc, bundle, where) -> asys.WeakAsyncSystem:
    states = _names(doc, "states", where)
    initial = doc.get("initial")
    if initial is not None and not isinstance(initial, str):
        raise SchemaError(f"{where}: field 'initial' must be a string or null")
    monoid = make_monoid(_names(doc, "events", where), _tuples(doc, "independence", 2, where))
    transitions = {}
    for s, e, t in _tuples(doc, "transitions", 3, where):
        if (s, e) in transitions:
            raise SchemaError(f"{where}: duplicate transition on ({s!r}, {e!r})")
        transitions[(s, e)] = t
    return asys.make_system(states, STAR if initial is None else initial, monoid, transitions)


def _parse_system_morphism(doc, bundle, where) -> ss.StateSpaceMorphism:
    src = bundle.get(_require(doc, "source", str, where), "system")
    tgt = bundle.get(_require(doc, "target", str, where), "system")
    events = _name_map(doc, "events", where)
    states = _name_map(doc, "states", where)
    state_part = {x: (STAR if v is None else v) for x, v in states.items()}
    return asys.make_morphism(src, tgt, dict(events), state_part)


def _parse_shape(doc, bundle, where) -> DiagramShape:
    objects = _names(doc, "objects", where)
    arrows = tuple(_tuples(doc, "arrows", 3, where))
    shape = DiagramShape(tuple(objects), arrows)
    problems = validate_shape(shape)
    if problems:
        raise SchemaError(f"{where}: " + "; ".join(problems))
    return shape


def _parse_diagram(doc, bundle, where) -> Diagram:
    shape = bundle.get(_require(doc, "shape", str, where), "shape")
    over = _require(doc, "over", str, where)
    objects = _require(doc, "objects", dict, where)
    arrows = doc.get("arrows", {})
    if not isinstance(arrows, dict):
        raise SchemaError(f"{where}: field 'arrows' has wrong type")
    if over not in MORPHISM_KINDS:
        raise SchemaError(f"{where}: unknown diagram base {over!r}")
    d = Diagram(
        shape,
        {o: bundle.get(n, over) for o, n in objects.items()},
        {a: bundle.get(n, MORPHISM_KINDS[over]) for a, n in arrows.items()},
    )
    # the shape only: parsing checked every object and arrow as it built them
    problems = d.problems(over, lambda a: [])
    if problems:
        raise SchemaError(f"{where}: " + "; ".join(problems))
    return d


def _parse_table(doc, bundle, where) -> MonoidTable:
    elements = _names(doc, "elements", where)
    table = _require(doc, "table", list, where)
    if not all(isinstance(row, list) and all(isinstance(x, str) for x in row) for row in table):
        raise SchemaError(f"{where}: field 'table' must be a list of lists of strings")
    return MonoidTable(tuple(elements), tuple(tuple(row) for row in table))


# per document kind: its pass and its parser.  Passes run in order, so a
# document refers only to kinds of earlier passes, whatever the document order.
_KINDS = {
    "monoid": (0, _parse_monoid),
    "shape": (0, _parse_shape),
    "monoid_table": (0, _parse_table),
    "hom": (1, _parse_hom),
    "space": (1, _parse_space),
    "system": (1, _parse_system),
    "space_morphism": (2, _parse_space_morphism),
    "system_morphism": (2, _parse_system_morphism),
    "diagram": (3, _parse_diagram),
}


def parse(text: str) -> Bundle:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError("top level must be an object")
    if raw.get("version") != VERSION:
        raise SchemaError(f"unsupported version {raw.get('version')!r}")
    docs = raw.get("documents")
    if not isinstance(docs, dict):
        raise SchemaError("missing 'documents' object")
    bundle = Bundle({}, {})
    for name, doc in docs.items():
        if not isinstance(doc, dict) or "kind" not in doc:
            raise SchemaError(f"document {name!r}: missing 'kind'")
        kind = doc["kind"]
        if not isinstance(kind, str) or kind not in _KINDS:
            raise SchemaError(f"document {name!r}: unknown kind {kind!r}")
    # a stable sort: documents of one pass are parsed in document order
    for name, doc in sorted(docs.items(), key=lambda item: _KINDS[item[1]["kind"]][0]):
        kind = doc["kind"]
        bundle.documents[name] = _KINDS[kind][1](doc, bundle, f"document {name!r}")
        bundle.kinds[name] = kind
        if kind == "diagram":
            bundle.bases[name] = doc["over"]
    return bundle


def parse_file(path) -> Bundle:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


# ---------------------------------------------------------------------------
# Serialization


def monoid_doc(m: TraceMonoid) -> dict:
    return {
        "kind": "monoid",
        "events": m.events,
        "independence": m.pairs(),
    }


def hom_doc(h: BasicHom, source: str, target: str) -> dict:
    return {
        "kind": "hom",
        "source": source,
        "target": target,
        "image": _image(h),
    }


def _image(h: BasicHom) -> dict:
    """``h``'s image of each source event; a short image raises ``InvalidHom``."""
    events = h.source.events
    if len(h.image) < len(events):
        h(events[len(h.image)])
    return h.mapping


def _state_map(m) -> dict:
    """A morphism's image of each source state, star written as ``None``."""
    states = m.source.states
    return {x: None if y == STAR else y for x, y in zip(states, map(m.state, states))}


def space_doc(s: ss.StateSpace, monoid: str) -> dict:
    action: dict = {}
    for (x, e), y in s.action.items():
        action.setdefault(x, {})[e] = y
    return {"kind": "space", "monoid": monoid, "states": s.states, "action": action}


def space_morphism_doc(m: ss.StateSpaceMorphism, source: str, target: str) -> dict:
    return {
        "kind": "space_morphism",
        "source": source,
        "target": target,
        "events": {e: m.monoid_part(e) for e in m.source.monoid.events},
        "states": _state_map(m),
    }


def system_doc(a: asys.WeakAsyncSystem) -> dict:
    return {
        "kind": "system",
        "states": a.states,
        "initial": None if a.initial == STAR else a.initial,
        "events": a.monoid.events,
        "independence": a.monoid.pairs(),
        # flat (state, event, target) rows: tuples with a str first sort on CPython's fast path
        "transitions": sorted(map(tuple.__add__, a.action, zip(a.action.values()))),
    }


def system_morphism_doc(m: ss.StateSpaceMorphism, source: str, target: str) -> dict:
    return {
        "kind": "system_morphism",
        "source": source,
        "target": target,
        "events": dict(zip(m.source.monoid.events, m.monoid_part.image)),
        "states": _state_map(m),
    }


def shape_doc(s: DiagramShape) -> dict:
    return {
        "kind": "shape",
        "objects": s.objects,
        "arrows": s.arrows,
    }


def dumps(payload: dict) -> str:
    """``payload`` as ``json.dumps(payload, sort_keys=True, indent=2)`` writes
    it, plus a newline, byte for byte.  ``indent`` forces ``json``'s
    pure-Python encoder, so this writer appends string pieces to one list,
    joined once: no byte is copied again per nesting level.  Dict keys are
    sorted.  A name is plain when it is printable ASCII without ``"`` or
    ``\\``, which JSON writes as it is.  A list of equal-width rows of plain
    names, a list of at least ``_BULK`` of them, a dict of at least
    ``_BULK`` of them to them or ``None``, or to non-empty dicts of them to
    them (a space's action), is checked by one pass over its joined names
    and written by joins whose separators carry the quotes; a ``None`` goes
    through the placeholder ``"\\x00"``, which no plain name holds.  A dict
    is tried as a map of maps only when its first value, in key order, is a
    dict of str values.  Anything else, a row list with a name that is not
    plain included, is written item by item, each string quoted by
    ``json``'s C quoting.  A key that is not a str, or a value
    that is not a str, int, bool, None, dict, list or tuple, raises
    ``TypeError``."""
    out: list = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


# the bytes of plain names: printable ASCII but for the quote and the backslash
_PLAIN = bytes(c for c in range(0x20, 0x7F) if c not in b'"\\')
_HOLE = {None: "\0"}  # a None value of a name map, written as a name until replaced by null
_BULK = 8  # a shorter list or map is written item by item, which costs less than a check and a join


def _plain(names: str, holes: int = 0) -> bool:
    """Whether ``names`` is plain but for exactly ``holes`` placeholder NULs."""
    return names.isascii() and names.encode().translate(None, _PLAIN) == b"\0" * holes


def _write(v, nl: str, out: list) -> None:
    """Append to ``out`` the pieces of ``v``, at the indentation ``nl`` (a newline and spaces) opens."""
    if isinstance(v, str):
        out.append(_quote(v))
    elif v is None or v is True or v is False:
        out.append("null" if v is None else "true" if v else "false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif not isinstance(v, (dict, list, tuple)):
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
    elif not v:
        out.append("{}" if isinstance(v, dict) else "[]")
    elif isinstance(v, dict):
        inner = nl + "  "
        keys = sorted(v)
        first = v[keys[0]] if len(keys) >= _BULK else ()
        if first is None or isinstance(first, str):  # maybe a name map
            values = list(map(v.__getitem__, keys))
            try:  # TypeError: a key or value that is not a str, or a value that is unhashable
                filled = list(map(_HOLE.get, values, values))
                plain = _plain("".join(keys) + "".join(filled), values.count(None))
            except TypeError:
                plain = False
            if plain:
                body = '"' + ('",' + inner + '"').join(map('": "'.join, zip(keys, filled))) + '"'
                out += "{", inner, body.replace('"\0"', "null"), nl, "}"
                return
        elif type(first) is dict and set(map(type, first.values())) == {str}:  # maybe a map of name maps
            try:  # TypeError: a value that is not a dict, or a key or name that is not a str
                rows = list(map(sorted, map(dict.items, map(v.__getitem__, keys))))
                plain = all(rows) and _plain("".join(keys) + "".join(chain.from_iterable(chain.from_iterable(rows))))
            except TypeError:
                plain = False
            if plain:
                inner2 = inner + "  "
                bodies = map(('",' + inner2 + '"').join, map(map, repeat('": "'.join), rows))
                sep = '"' + inner + "}," + inner + '"'
                out += "{", inner, '"', sep.join(map(('": {' + inner2 + '"').join, zip(keys, bodies))), '"', inner, "}", nl, "}"
                return
        for i, k in enumerate(keys):
            out.append(("," if i else "{") + inner + _quote(k) + ": ")
            _write(v[k], inner, out)
        out.append(nl + "}")
    else:
        inner = nl + "  "
        sep = "," + inner
        try:  # TypeError: an element that is not a str; ValueError: rows of unequal widths
            if not isinstance(v[0], (list, tuple)):
                q = '"' if len(v) >= _BULK and _plain("".join(v)) else ""
                out += "[", inner, q, (q + sep + q).join(v if q else map(_quote, v)), q, nl, "]"
                return
            (width,) = set(map(len, v))
            if width and set(map(type, v)) <= {list, tuple} and _plain("".join(map("".join, v))):
                between = '"' + inner + "]" + sep + "[" + inner + '  "'
                out += "[", inner, "[", inner, '  "', between.join(map(('"' + sep + '  "').join, v)), '"' + inner, "]", nl, "]"
                return
        except (TypeError, ValueError):
            pass
        for i, x in enumerate(v):
            out.append(sep if i else "[" + inner)
            _write(x, inner, out)
        out.append(nl + "]")
