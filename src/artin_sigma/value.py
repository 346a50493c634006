"""The base of the package's value classes.

A value class lists its fields in ``_fields``.  ``Value.__init__`` takes
them by position or by name, stores each under its name, and raises
``TypeError`` for a missing, unknown, repeated or extra field; a class that
validates its arguments or gives a field a default has its own ``__init__``,
which calls it once after its checks.  ``Value`` gives it equality over the
fields, for instances of the same class only, and a ``repr`` naming them.
A class is frozen unless it is declared with ``frozen=False``: a frozen one
is hashed by the tuple of its fields and refuses attribute assignment with
``AttributeError``; a mutable one is not hashable.  The fields go straight
into the instance dictionary, or, for a class whose ``__slots__`` are its
fields, through the slot descriptors.  ``functools.cached_property`` writes
to the instance dictionary, so it works on frozen classes.

Plain classes on this base load no module beyond ``operator`` and compile
nothing when they are defined, which keeps ``inspect`` and ``ast`` out of
every CLI process.
"""

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple = ()
    _setters = None  # the slot setters of a class without an instance dictionary

    def __init_subclass__(cls, frozen=True, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # the tuple of the field values; attrgetter of one name returns the value
        cls._key = property(get if len(cls._fields) > 1 else lambda self: (get(self),))
        if not cls.__dictoffset__:
            cls._setters = tuple(cls.__dict__[name].__set__ for name in cls._fields)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = _arguments(type(self), args, kwargs)
        if self._setters is None:
            instance = self.__dict__
            for name, value in zip(self._fields, args):
                instance[name] = value
        else:
            for store, value in zip(self._setters, args):
                store(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which a frozen class needs
        return type(self), self._key

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _arguments(cls, args: tuple, kwargs: dict) -> tuple:
    """The field values in ``_fields`` order, the positional ones first."""
    fields, name = cls._fields, cls.__qualname__
    try:
        args += tuple(map(kwargs.pop, fields[len(args):]))
    except KeyError as exc:
        raise TypeError(f"{name}() missing field {exc.args[0]!r}") from None
    for key in kwargs:
        raise TypeError(f"{name}() got {'a repeated' if key in fields else 'an unknown'} "
                        f"field {key!r}")
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
    return args
