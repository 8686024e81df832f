"""`Frozen`, the base of the validated immutable classes; it needs no `dataclasses`."""


class Frozen:
    """Immutable, with the names the class annotates as its fields.  Each
    `__init__` validates its arguments and writes the fields once into
    `__dict__`, as `cached_property` does.  A class whose constructions
    perfbench's tracer counts does this in `__post_init__`, which it wraps.
    Equality, hash and repr are those of a frozen dataclass with the fields."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
