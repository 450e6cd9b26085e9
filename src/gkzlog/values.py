"""Immutable value classes: one base in place of frozen dataclasses.

A subclass of :class:`Value` declares its fields as annotations, in
order, and a class attribute of the same name is that field's default.
``derived`` (a class keyword) names fields that the constructor does not
take: the ``__post_init__`` validation hook sets them, and they count in
equality, hashing and the repr like any other field.  Once per class,
``__init_subclass__`` builds as closures over the field names

- the constructor, by position or keyword, which then runs the class's
  ``__post_init__`` if it has one;
- equality (same class, equal field values) and the hash of the tuple of
  field values;
- the repr ``Name(field=value, ...)``;

and assigning or deleting any attribute raises ``AttributeError``.  No
source is generated and nothing is imported, so a class costs no more to
define than its own body.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """Base of a frozen value class; see the module docstring."""

    def __init_subclass__(cls, derived=(), **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        params = tuple(name for name in fields if name not in derived)
        defaults = {name: cls.__dict__[name] for name in params if name in cls.__dict__}
        post_init = getattr(cls, "__post_init__", None)
        name = cls.__qualname__
        if len(fields) == 1:
            first = attrgetter(fields[0])
            values = lambda self: (first(self),)
        else:
            values = attrgetter(*fields)

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != len(params):
                if len(args) > len(params):
                    raise TypeError(f"{name}() takes {len(params)} arguments, got {len(args)}")
                given = dict(zip(params, args))
                for key, value in kwargs.items():
                    if key not in params or key in given:
                        raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
                    given[key] = value
                missing = [key for key in params if key not in given and key not in defaults]
                if missing:
                    raise TypeError(f"{name}() missing required arguments {missing}")
                args = [given.get(key, defaults.get(key)) for key in params]
            self.__dict__.update(zip(params, args))
            if post_init is not None:
                post_init(self)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        def __repr__(self):
            shown = ", ".join(f"{key}={value!r}" for key, value in zip(fields, values(self)))
            return f"{self.__class__.__qualname__}({shown})"

        for method in (__init__, __eq__, __hash__, __repr__):
            if method.__name__ not in cls.__dict__:
                setattr(cls, method.__name__, method)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
