"""The frozen base of the package's value records.

A record class declares its fields as annotations and writes its own
``__init__``, which sets each field with ``object.__setattr__`` (plain
assignment raises) and ends in ``__post_init__`` where the class validates
its fields.  The base supplies what ``@dataclass(frozen=True)`` generated,
without the import cost of ``dataclasses`` (which loads ``inspect``) or the
per-class ``exec`` of generated methods.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Immutable value whose fields are its class's annotations, in order.

    Records are equal when they are of one class and their fields are equal,
    and hash as the tuple of their fields; repr is ``Name(field=value, ...)``.
    A record class has at least two fields, so ``_values`` returns a tuple.
    """

    def __init_subclass__(cls) -> None:
        # a class's own annotations: since Python 3.10 a subclass does not see its base's
        cls._fields = tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)

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
