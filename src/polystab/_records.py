"""Base classes of the package's records.

Each record writes its own `__init__`.  A `@dataclass` would generate and
compile three to six methods when its class is created, 0.7-0.9 ms each
time, and every CLI run creates its classes anew; creating a subclass of
these bases compiles nothing.
"""


class Record:
    """Plain record: attributes as `__init__` sets them, compared by identity."""

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """Record whose attributes cannot be assigned or deleted.  `__init__` sets
    them with `vars(self).update(...)`; `functools.cached_property` still
    caches, since it writes to the instance dict too."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")


class Value(Frozen):
    """Frozen record compared and hashed by its attributes, in `__init__` order."""

    def _key(self):
        return tuple(vars(self).values())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())
