"""The base of the package's value classes.

A value class lists its fields in ``_fields`` and sets them in its
``__init__``.  ``Value`` gives it equality over those fields, for instances
of the same class only, and a ``repr`` naming them.  A class is frozen unless
it is declared with ``frozen=False``: a frozen one is hashed by the tuple of
its fields, refuses attribute assignment with ``AttributeError`` and sets its
fields in ``__init__`` with ``object.__setattr__``; a mutable one is not
hashable.  ``functools.cached_property`` writes to the instance dictionary,
so it works on frozen classes.

Plain classes on this base load no module beyond ``operator`` and compile
nothing when they are defined, which keeps ``inspect`` and ``ast`` out of
every CLI process.
"""

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, frozen=True, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # the tuple of the field values; attrgetter of one name returns the value
        cls._key = property(get if len(cls._fields) > 1 else lambda self: (get(self),))
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

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
