"""The frozen base of the package's value records.

A record class declares its fields as annotations, in order; a class-level
value on an annotation (``den: int = 1``) is that field's default.  The base
builds each class's ``__init__`` once, from those fields, and supplies what
``@dataclass(frozen=True)`` generated, without the import cost of
``dataclasses`` (which loads ``inspect``).

The built ``__init__`` takes every field as a parameter, sets it with
``object.__setattr__`` (plain assignment raises) and ends in
``__post_init__`` for a class that defines one, where the class validates
its fields.  It is compiled from source, as the decorator's was: a generic
``*args`` initialiser costs 300-1,700 ns more per object, and the search
builds ~11.7k ``CharRep``s per pass.  The stores do not go through
``self.__dict__``: touching it gives every instance a dict of its own, 160
instead of 97 bytes per instance under tracemalloc.
"""

from __future__ import annotations

from operator import attrgetter


def _build_init(cls, fields: tuple[str, ...]):
    """cls's __init__: the fields in order, each class-level value a default."""
    given = [name in cls.__dict__ for name in fields]
    if given != sorted(given):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    body = [f"    _set(self, {name!r}, {name})" for name in fields]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    namespace = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(fields)}):\n" + "\n".join(body), namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(cls.__dict__[name] for name in fields if name in cls.__dict__)
    return init


class Record:
    """Immutable value whose fields are its class's annotations, in order.

    Records are equal when they are of one class and their fields are equal,
    and hash as the tuple of their fields; repr is ``Name(field=value, ...)``.
    A record class has at least two fields, so ``_values`` returns a tuple,
    and writes no ``__init__`` of its own.
    """

    def __init_subclass__(cls) -> None:
        if "__init__" in cls.__dict__:
            raise TypeError(f"{cls.__name__} is a record: its __init__ is built from its fields")
        # a class's own annotations: since Python 3.10 a subclass does not see its base's
        cls._fields = tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)
        cls.__init__ = _build_init(cls, cls._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def replace(self, **changes):
        """A copy with the named fields changed, built by ``__init__``, so the
        class's checks run on it again."""
        values = dict(zip(self._fields, self._values(self)))
        values.update(changes)
        return self.__class__(**values)
