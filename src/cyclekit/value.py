"""The common base of the library's immutable values.

A value class names its fields in ``__slots__`` and stores them in its own
positional ``__init__`` with ``object.__setattr__``.  The base gives every
such class a ``Name(field=value, ...)`` repr, equality with instances of
the same class only, a hash of the field values, fields that cannot be
assigned or deleted, and pickling and copying that restore the stored
fields without running ``__init__`` (and its validation) again.  The
pickled state is the field dict a frozen dataclass wrote, so pickles of
either form load into the other.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    __slots__ = ()

    # The field values as a tuple; each subclass gets a C-level getter.
    _fields = staticmethod(lambda value: ())

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if len(names) > 1:
            cls._fields = staticmethod(attrgetter(*names))
        elif names:
            get = attrgetter(*names)
            cls._fields = staticmethod(lambda value: (get(value),))

    def __repr__(self) -> str:
        pairs = zip(self.__slots__, self._fields(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> dict:
        return dict(zip(self.__slots__, self._fields(self)))

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
