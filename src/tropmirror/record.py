"""Frozen records: immutable classes with value equality, built without exec.

``@frozen`` reads the field names, in order, from the class annotations and
the defaults from class attributes of the same names.  It adds ``__init__``,
``__eq__``, ``__hash__``, ``__repr__`` (unless the class defines one),
``__setattr__`` and ``__delattr__`` as closures over the field names, so
decorating a class compiles no source.  (The standard library's frozen data
classes generate and ``exec`` source for each class, about a millisecond
per class at import.)  The behaviour is the same as theirs:

* ``__init__`` binds positional and keyword arguments like a signature with
  those fields, then calls ``__post_init__`` if the class defines one, which
  may normalize a field with ``object.__setattr__``;
* ``==`` compares the field tuples of two instances of the same class (any
  other pair is ``NotImplemented``), and ``hash`` is ``hash`` of the field
  tuple, so sets and dicts of records iterate in the same order;
* assigning or deleting any attribute raises ``FrozenInstanceError``;
* instances keep a ``__dict__``, so ``functools.cached_property`` works, and
  a record rebuilt from its fields starts with nothing cached.

The field names, in order, are ``cls._fields``.

Fields are stored with ``object.__setattr__``, never through
``self.__dict__``: reading ``__dict__`` gives every instance its own dict
object, which costs memory on the many small records.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Raised on assigning to or deleting an attribute of a frozen record."""


def frozen(cls):
    """Make ``cls`` a frozen record over its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    n = len(names)
    positions = tuple(enumerate(names))
    qualname = cls.__qualname__
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")
    # The field tuple, read by one C-level call (attrgetter of one name
    # returns the bare value, so that case builds the 1-tuple itself).
    if n == 1:
        (only,) = names
        fields = lambda self: (getattr(self, only),)  # noqa: E731
    else:
        fields = attrgetter(*names)

    def bind(args, kwargs):
        if len(args) > n:
            raise TypeError(f"{qualname}() takes {n} positional arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{qualname}() missing required argument: {name!r}")
        for name in kwargs:
            if name in names:
                raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
            raise TypeError(f"{qualname}() got an unexpected keyword argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for i, name in positions:
            _set(self, name, args[i])
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls._fields = names
    cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = __repr__
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls
