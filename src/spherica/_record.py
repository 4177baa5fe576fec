"""Frozen value records without ``dataclasses``.

``@record`` gives a class with annotated fields what ``dataclass(frozen=True)``
gave the package: the field repr, equality with the same class only, the
hash of the field tuple, and AttributeError on assigning or deleting an
attribute.  A class without its own ``__init__`` gets one that takes the
fields in order, with class attributes as defaults; an own ``__init__``
sets every field through ``object.__setattr__``.  It exists so that the
CLI's cold start does not import dataclasses and, with it, inspect.
"""


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    names = tuple(cls.__annotations__)
    own = lambda obj: "(" + "".join(f"{obj}.{n}, " for n in names) + ")"
    # generated like dataclass's, so a call costs what the dataclass's did
    src = (
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return {own('self')} == {own('other')}\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        f"    return hash({own('self')})\n"
    )
    if "__init__" not in cls.__dict__:
        params = ", ".join(f"{n}=cls.{n}" if hasattr(cls, n) else n for n in names)
        src += f"def __init__(self, {params}):\n" + "".join(
            f"    setfield(self, {n!r}, {n})\n" for n in names
        )
    ns = {"cls": cls, "setfield": object.__setattr__}
    exec(src, ns)
    for name in ("__eq__", "__hash__", "__init__"):
        if name in ns:
            setattr(cls, name, ns[name])

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({fields})"

    cls.__repr__ = __repr__
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls
