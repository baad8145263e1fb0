import json

import pytest

from asyntrace.diagrams import (
    Diagram,
    DiagramShape,
    cospan,
    discrete,
    parallel_pair,
    span,
    validate_shape,
)
from asyntrace.async_system import WeakAsyncSystem
from asyntrace.async_system import diagram_problems as system_problems
from asyntrace.cli import main
from asyntrace.fpcm_cat import Category, diagram_problems
from asyntrace.state_space import diagram_problems as space_problems
from asyntrace.trace_core import free_monoid, make_hom, make_monoid


class TestShapes:
    def test_builtin_shapes_validate(self):
        for shape in (discrete(0), discrete(3), parallel_pair(), span(), cospan()):
            assert validate_shape(shape) == []

    def test_duplicate_objects(self):
        s = DiagramShape(("a", "a"), ())
        assert "duplicate object names" in validate_shape(s)

    def test_dangling_arrow(self):
        s = DiagramShape(("a",), (("f", "a", "zzz"),))
        assert any("dangling" in p for p in validate_shape(s))

    def test_duplicate_arrow_names(self):
        s = DiagramShape(("a", "b"), (("f", "a", "b"), ("f", "b", "a")))
        assert "duplicate arrow names" in validate_shape(s)


class TestMonoidDiagram:
    def test_well_formed(self):
        src, tgt = free_monoid("a"), free_monoid("b")
        f = make_hom(src, tgt, {"a": "b"})
        g = make_hom(src, tgt, {"a": None})
        d = Diagram(parallel_pair(), {"src": src, "dst": tgt}, {"f": f, "g": g})
        assert diagram_problems(d) == []

    def test_missing_assignments(self):
        d = Diagram(parallel_pair(), {}, {})
        problems = diagram_problems(d)
        assert any("no monoid" in p for p in problems)
        assert any("no hom" in p for p in problems)

    def test_endpoint_mismatch(self):
        src, tgt = free_monoid("a"), free_monoid("b")
        f = make_hom(src, tgt, {"a": "b"})
        d = Diagram(
            DiagramShape(("x", "y"), (("f", "x", "y"),)),
            {"x": tgt, "y": tgt},
            {"f": f},
        )
        assert any("source monoid mismatch" in p for p in diagram_problems(d))

    def test_fpcm_par_flags_collapsing_arrow(self):
        src = make_monoid("ab", [("a", "b")])
        tgt = free_monoid("c")
        h = make_hom(src, tgt, {"a": "c", "b": "c"})
        d = Diagram(
            DiagramShape(("x", "y"), (("h", "x", "y"),)),
            {"x": src, "y": tgt},
            {"h": h},
        )
        assert diagram_problems(d) == []
        assert any(
            "independence-preserving" in p
            for p in diagram_problems(d, Category.FPCM_PAR)
        )


class TestOneDiagramType:
    def test_system_messages_keep_their_order(self):
        # object checks, then missing objects, then the arrow lines
        broken = WeakAsyncSystem(free_monoid("a"), ("s",), {}, "t")
        d = Diagram(parallel_pair(), {"src": broken}, {"f": None})
        assert system_problems(d) == [
            "object 'src': initial state 't' unknown",
            "object 'dst' has no system assigned",
            "arrow 'f' has no morphism assigned",
            "arrow 'g' has no morphism assigned",
        ]

    def test_space_nouns(self):
        d = Diagram(parallel_pair(), {}, {})
        assert space_problems(d) == [
            "object 'src' has no space assigned",
            "object 'dst' has no space assigned",
            "arrow 'f' has no morphism assigned",
            "arrow 'g' has no morphism assigned",
        ]

    def test_map_reads_only_the_shape_arrows(self):
        src, tgt = free_monoid("a"), free_monoid("b")
        f = make_hom(src, tgt, {"a": "b"})
        d = Diagram(DiagramShape(("x", "y"), (("f", "x", "y"),)), {"x": src, "y": tgt}, {"f": f, "extra": None})
        mapped = d.map(lambda m: m.events, lambda h: h.image)
        assert mapped.on_objects == {"x": ("a",), "y": ("b",)}
        assert mapped.on_arrows == {"f": ("b",)}

    @pytest.mark.parametrize("objects", [{}, {"o0": "s"}])
    def test_cli_refuses_a_diagram_of_another_base(self, tmp_path, capsys, objects):
        shape = {"kind": "shape", "objects": list(objects), "arrows": []}
        docs = {
            "m": {"kind": "monoid", "events": ["a"], "independence": []},
            "s": {"kind": "space", "monoid": "m", "states": ["x"], "action": {}},
            "shape": shape,
            "d": {"kind": "diagram", "shape": "shape", "over": "space", "objects": objects, "arrows": {}},
        }
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps({"version": 1, "documents": docs}))
        assert main(["monoid", "limit", str(bundle), "--diagram", "d"]) == 2
        assert capsys.readouterr().err == "asyntrace: error [SchemaError]: diagram 'd' is not a monoid diagram\n"
        assert main(["space", "limit", str(bundle), "--diagram", "d"]) == 0
