"""The base of the package's value classes: records of their constructor's
parameters."""

from operator import attrgetter


class Value:
    """A record whose fields are the parameters of its class's ``__init__``,
    which stores each under its own name.

    ``==``, between instances of one class, and ``repr`` read the fields
    alone, not caches in the instance ``__dict__``.  A class made with
    ``frozen=True`` is hashable by its fields and refuses to set or delete an
    attribute, so its ``__init__`` writes the instance ``__dict__``.
    """

    def __init_subclass__(cls, frozen: bool = False) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        cls._field_values = attrgetter(*cls._fields)
        if frozen:
            cls.__hash__ = Value._hash
            cls.__setattr__ = cls.__delattr__ = Value._refuse

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._field_values
        return self is other or values(self) == values(other)

    def _hash(self) -> int:
        return hash(self._field_values(self))

    def _refuse(self, name: str, *value) -> None:
        raise AttributeError(f"cannot set or delete {name!r} of a frozen {type(self).__name__}")

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"
