"""The base of the package's validated value types.

A record with nothing to check is a ``typing.NamedTuple``.  A type whose
constructor checks its arguments derives from :class:`Value` instead: a
slotted class whose ``__init__`` stores its parameters with ``_set`` and
checks them.  Unlike a dataclass, which compiles each method it generates,
neither form compiles more than a NamedTuple's ``__new__`` at import.
"""

__all__ = ["Value"]


class Value:
    """Frozen attributes, a repr, value equality, hashing, pickling and
    ``_replace``, over ``_fields``: the parameters of the subclass's
    ``__init__``, in order.  Attributes derived from them are not fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        """A copy with ``changes``, built and checked by ``__init__`` as a new value is."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values()
