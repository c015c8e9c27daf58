"""The shared base of the package's immutable value classes.

A subclass names its fields in ``_fields`` and sets them in its own
``__init__`` with ``object.__setattr__``.  Values of one class with equal
field tuples are equal, a value hashes as its field tuple, and its repr is
``Name(a=..., b=...)``.  Memos of ``cached_property`` live in the instance
``__dict__``, which none of these reads.
"""

from .errors import FrozenInstanceError


class Frozen:
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
