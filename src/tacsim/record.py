"""Value records: the ``__init__``, ``==`` and ``repr`` of a dataclass, with no
code generated per class.

A ``Record`` subclass lists its fields as class annotations, in order; a class
attribute of the same name is the field's default, and a ``fresh(make)``
default is made anew for each instance.  ``__init__`` takes the fields by
position or keyword, then calls ``__post_init__`` if the class has one.
Records are equal when they are of the same class and their fields are
equal.  ``class C(Record, frozen=True)`` makes C's fields read-only and its
instances hashable by value.
"""

from operator import attrgetter


class fresh:
    """A default that ``make()`` builds anew for each instance."""

    def __init__(self, make):
        self.make = make


def _refuse(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


class Record:
    _fields = ()

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = (*cls._fields, *cls.__annotations__)
        cls._names = frozenset(fields)
        # the field values as one tuple (attrgetter gives a bare value for one name)
        values = (attrgetter(*fields) if len(fields) > 1
                  else lambda obj: tuple(getattr(obj, name) for name in fields))
        cls._values = staticmethod(values)
        defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        cls._fresh = {name: d.make for name, d in defaults.items() if isinstance(d, fresh)}
        cls._defaults = {name: d for name, d in defaults.items() if name not in cls._fresh}
        cls._checked = hasattr(cls, "__post_init__")
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
            cls.__hash__ = lambda self: hash(values(self))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if args:
            if len(args) > len(fields):
                raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(args)}")
            given = fields[: len(args)]
            if not kwargs.keys().isdisjoint(given):
                raise TypeError(f"{cls.__name__}() got multiple values for {sorted(kwargs.keys() & given)}")
            kwargs.update(zip(given, args))
        if not kwargs.keys() <= cls._names:
            raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs.keys() - cls._names)}")
        values = {**cls._defaults, **kwargs}
        if len(values) < len(fields):
            for name in fields:
                if name not in values:
                    if name not in cls._fresh:
                        raise TypeError(f"{cls.__name__}() missing argument {name!r}")
                    values[name] = cls._fresh[name]()
        self.__dict__.update(values)
        if cls._checked:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


def astuple(record) -> tuple:
    """The record's field values, in order."""
    return record._values(record)


def replace(record, **changes):
    """A new record of the same class: ``record``'s fields, but for ``changes``,
    through ``__init__`` and so through ``__post_init__``'s checks."""
    return type(record)(**dict(zip(record._fields, record._values(record)), **changes))
