"""The base class of the immutable value types.

A value type lists its fields in ``__slots__``, in the order of its
constructor's parameters, sets each one once in ``__init__`` through
``object.__setattr__``, and writes its own ``__eq__``, ``__hash__`` and
order methods.  This base turns every later assignment or deletion into an
``AttributeError`` and gives the ``repr``, pattern-matching, copy and pickle
support over the fields.  Records that are only read are ``NamedTuple``s.
No class of the package is a dataclass: importing :mod:`dataclasses` and
generating its methods took about a sixth of each command's start-up.
"""


class Frozen:
    """Immutable base of the ``__slots__`` value types."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
