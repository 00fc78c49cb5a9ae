"""Base of the package's immutable value classes, without ``dataclasses``, ``finite`` and ``worst``."""

import math


class Record:
    """Frozen value: each subclass's ``__init__`` checks its arguments and
    stores them into ``__dict__`` in field order, which equality, hash and
    repr read.  Equal only to a record of the same class."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(self.__dict__.values()) == tuple(other.__dict__.values())

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}" for name, value in self.__dict__.items()])
        return f"{self.__class__.__qualname__}({fields})"


def finite(value, what: str):
    """value if finite, else ValueError(f"non-finite {what}"); OverflowError for an exact value past doubles.
    Value classes check fields inline: verify builds 100,000s of records a run, and a call per field adds
    130-330 ns a record on CPython 3.10 and 30-100 ns on 3.11 and 3.13 (timeit, best of 7)."""
    if not math.isfinite(value):
        raise ValueError(f"non-finite {what}")
    return value


def worst(values):
    """The largest of values (the object itself), or 0.0 if none is larger; a NaN anywhere wins."""
    largest = 0.0
    for value in values:
        if value > largest or value != value:  # a NaN stays the worst
            largest = value
    return largest
