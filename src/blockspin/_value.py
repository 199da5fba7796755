"""Frozen value types without `dataclasses`.

`frozen` gives a class the contract of `@dataclass(frozen=True)`: fields
from its own annotations, in order; defaults as class attributes; an
`__init__` (unless the class defines one) that calls `__post_init__`; field
equality within one class, `hash` of the field tuple, a `Name(f=...)` repr,
`__match_args__`, and `FrozenInstanceError` on assignment or deletion.
Importing `dataclasses` loads `inspect`, `ast`, `dis` and `tokenize`, and
each decorated class exec-compiles six methods: a start-up cost that every
short CLI job would pay before its first result.  Instances keep their
`__dict__`, so `cached_property` works on them.

`hash` and `pickle` reach every field, as with `dataclasses`: a value that
holds a read-only view (`StabilizerCode.recovery_table` and
`ConcatenatedTiling.addresses`, both `MappingProxyType`) still compares by
value but raises on `hash()` and on `pickle.dumps`.
"""

from operator import attrgetter


def _frozen_error(message: str) -> AttributeError:
    from dataclasses import FrozenInstanceError  # the error path alone loads it

    return FrozenInstanceError(message)


def _bind(name: str, fields: tuple[str, ...], defaults: dict, args: tuple, kwargs: dict) -> list:
    """The field values of a call, in field order: positional arguments,
    then keywords, then defaults; raises TypeError as a function would."""
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
    values = dict(zip(fields, args))
    for key, value in kwargs.items():
        if key not in fields:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in values:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values[key] = value
    values = {**defaults, **values}
    missing = [f for f in fields if f not in values]
    if missing:
        raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
    return [values[f] for f in fields]


def frozen(cls: type) -> type:
    """`cls` as a frozen value type (see the module docstring)."""
    fields = tuple(cls.__annotations__)
    defaults = {f: vars(cls)[f] for f in fields if f in vars(cls)}
    if len(fields) == 1:  # attrgetter of one name returns the value, not a 1-tuple
        get = attrgetter(fields[0])

        def values(obj):
            return (get(obj),)
    else:
        values = attrgetter(*fields)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(fields):
            args = _bind(cls.__qualname__, fields, defaults, args, kwargs)
        self.__dict__.update(zip(fields, args))
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        items = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{type(self).__qualname__}({items})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise _frozen_error(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen_error(f"cannot delete field {name!r}")

    methods = [__repr__, __eq__, __hash__, __setattr__, __delattr__]
    if "__init__" not in vars(cls):
        methods.append(__init__)
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = fields
    return cls


def replace(obj, **changes):
    """A copy of the frozen value `obj` with the given fields changed, built
    through its constructor (as `dataclasses.replace`)."""
    return type(obj)(**{**{f: getattr(obj, f) for f in obj.__match_args__}, **changes})
