"""Exception hierarchy shared by all modules.

Every error carries a stable ``code`` (the class name) so the CLI can emit
machine-readable failures.
"""


class TraceError(Exception):
    @property
    def code(self) -> str:
        return type(self).__name__


class DuplicateEvent(TraceError):
    pass


class ReflexivePair(TraceError):
    pass


class UnknownEvent(TraceError):
    pass


class UnknownState(TraceError):
    pass


class InvalidHom(TraceError):
    pass


class MonoidMismatch(TraceError):
    pass


class NotParallel(TraceError):
    pass


class NotIndependencePreserving(TraceError):
    pass


class MalformedRelation(TraceError):
    pass


class NotAMonoid(TraceError):
    pass


class MalformedDiagram(TraceError):
    pass


class NotAMorphism(TraceError):
    pass


class InvalidSystem(TraceError):
    pass


class InvalidSpace(TraceError):
    pass


class SizeLimit(TraceError):
    pass


class InvalidBound(TraceError):
    """A negative saturation bound or unfold depth."""


class ParseError(TraceError):
    pass


class SchemaError(TraceError):
    pass


class DanglingReference(TraceError):
    pass
