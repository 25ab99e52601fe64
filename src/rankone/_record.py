"""Immutable record classes, built without generating code.

@record reads a class's fields from its own annotations, in order, with a
default wherever the class body assigns the field a value, and installs
one shared __init__, __eq__, __hash__ and __repr__ (those of a frozen
dataclass, written once) and a __setattr__/__delattr__ that refuse. A
class that writes its own __init__ keeps it; the shared one binds its
arguments as a dataclass does, then calls the class's __post_init__.
"""

__all__ = ["record", "replace"]


def _init(self, *args, **kwargs):
    cls = type(self)
    names = cls._fields
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
    values, defaults = self.__dict__, cls._defaults
    values.update(zip(names, args))
    for name in names[len(args):]:
        if name in kwargs:
            values[name] = kwargs.pop(name)
        elif name in defaults:
            values[name] = defaults[name]
        else:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
    for name in kwargs:
        what = "repeated" if name in names else "unexpected"
        raise TypeError(f"{cls.__name__}() got a {what} argument {name!r}")
    if cls._post_init is not None:
        cls._post_init(self)


def _values(self):
    return tuple([getattr(self, name) for name in self._fields])


def _eq(self, other):
    return _values(self) == _values(other) if type(other) is type(self) else NotImplemented


def _hash(self):
    return hash(_values(self))


def _repr(self):
    fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
    return f"{type(self).__qualname__}({fields})"


def _refuse(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")


def record(cls):
    """Make cls an immutable record of the fields it annotates."""
    cls._fields = tuple(cls.__annotations__)
    cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
    cls._post_init = cls.__dict__.get("__post_init__")
    if "__init__" not in cls.__dict__:
        cls.__init__ = _init
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


def replace(obj, **changes):
    """A copy of the record obj with the named fields changed."""
    values = {name: getattr(obj, name) for name in obj._fields}
    values.update(changes)
    return type(obj)(**values)
