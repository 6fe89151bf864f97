"""Frozen records, as ``@dataclass(frozen=True)`` makes them, without importing it.

The standard library's dataclass module loads ``inspect``, ``ast``, ``dis``,
``tokenize`` and ``copy``, and decorating a class costs about a millisecond; a
command runs in one process, so both are part of its cost. :func:`record` gives
a class of annotated fields what the package's records use of a frozen
dataclass: an ``__init__`` taking the fields in order, a field's class attribute
its default, that then runs ``__post_init__``; ``__eq__`` with the same class
only and ``__hash__`` of the field tuple; the dataclass ``repr`` and
``__match_args__``; and fields that cannot be assigned or deleted. ``__init__``,
``__eq__`` and ``__hash__`` are generated source, the code a dataclass gets, so a
record costs what a dataclass does.
"""


class FrozenInstanceError(AttributeError):
    """A record's field was assigned or deleted."""


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


def record(cls):
    """Make ``cls``, whose annotations are its fields, a frozen record."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    given = [name in cls.__dict__ for name in names]
    if given != sorted(given):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    fields, others = "".join(f"self.{n}," for n in names), "".join(f"other.{n}," for n in names)
    source = (
        f"def __init__(self, {', '.join(names)}):\n"
        + "".join(f"  _set(self, {name!r}, {name})\n" for name in names)
        + ("  self.__post_init__()\n" if hasattr(cls, "__post_init__") else "")
        + "def __eq__(self, other):\n"
        "  if other.__class__ is self.__class__:\n"
        f"    return ({fields}) == ({others})\n"
        "  return NotImplemented\n"
        f"def __hash__(self):\n  return hash(({fields}))\n"
    )
    namespace = {"__name__": cls.__module__, "_set": object.__setattr__}
    exec(source, namespace)
    for name in ("__init__", "__eq__", "__hash__"):
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, namespace[name])
    cls.__init__.__defaults__ = tuple(cls.__dict__[n] for n, has in zip(names, given) if has)
    cls.__repr__, cls.__setattr__, cls.__delattr__ = _repr, _setattr, _delattr
    cls.__match_args__ = names
    return cls


def replace(obj, /, **changes):
    """A new record of ``obj``'s class, its fields with ``changes``, checked again."""
    fields = {name: getattr(obj, name) for name in obj.__match_args__}
    fields.update(changes)
    return obj.__class__(**fields)
