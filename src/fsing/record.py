"""Plain record classes: field-wise equality and a readable repr over __slots__.

The package's result and input records (witnesses, certificates, reports,
parsed files, configurations) subclass :class:`Record` or, when their
instances must not change after construction, :class:`FrozenRecord`.  Each
subclass lists its fields in ``__slots__``, in constructor order, and writes
its own ``__init__``.  The bases then give what a dataclass would:

- ``==`` compares the fields of two instances of the same class, and
  returns NotImplemented for any other class;
- ``repr`` reads ``Name(field=value, ...)``;
- a plain record is unhashable, like any mutable value;
- a frozen record hashes by its fields, and assigning or deleting a field
  raises AttributeError.  Its ``__init__`` writes through
  ``object.__setattr__``.

Defining the classes generates and compiles no code at import.
"""


class Record:
    """Base of the mutable records; see the module docstring."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"


class FrozenRecord(Record):
    """Base of the immutable, hashable records; see the module docstring."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
