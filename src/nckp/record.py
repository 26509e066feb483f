"""Immutable value records without `dataclasses`.

A subclass names its fields in __slots__, in constructor order, and sets
them in its own __init__ through `_set` (object.__setattr__, the one way
past the frozen __setattr__).  Record supplies what a frozen dataclass
would: equality between records of the same class, a hash, the dataclass
repr, AttributeError on assignment and deletion, and pickling and copying
through the positional constructor.  Importing `dataclasses` (and with it
`inspect`) took 9.5-13 ms on a 2-vCPU machine, paid before a sampler's
first line; this module imports only `operator`.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    """Base of the frozen value classes; subclasses have two or more fields."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__
        cls._values = attrgetter(*cls.__slots__)  # a tuple, for 2+ fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)
