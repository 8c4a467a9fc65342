"""Record classes whose methods are written in source.

`dataclasses` compiles each class's `__init__`, `__eq__`, `__repr__`
and the rest from generated text when the class is defined, a cost
every process that imports the class pays again. The toolkit's records
share these two bases instead: each names the fields that `==`,
`repr` and `hash` read in `_fields`, its constructor's arguments first
and in order, and writes its own `__init__`.
"""


class Record:
    """A mutable record: `==` compares the `_fields` of two records of
    one class as tuples, and `repr` shows them as a dataclass does. A
    class that defines `__eq__` alone is unhashable, as a record whose
    fields may change should be."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({shown})"


class FrozenRecord(Record):
    """An immutable record, hashed by its fields. `__setattr__` refuses
    every assignment, so `__init__` stores the fields with
    `vars(self).update(...)`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    def replace(self, **changes):
        """A new record of this class with `changes` in place of those
        fields, checked by the constructor like any other."""
        return self.__class__(**dict(zip(self._fields, self._values()), **changes))
