"""The immutable base of every report, band, delay and sample container."""


class Frozen:
    """A value object whose fields are its __slots__, each set once by __init__.

    Setting or deleting an attribute raises AttributeError; repr leaves out
    the fields named in _hidden.  Instances of one class are equal, and hash
    alike, when their fields are; an array holder restores object's __eq__
    and __hash__.  pickle and copy call the class again on the fields.
    """

    __slots__ = ()
    _hidden = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = (f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()
