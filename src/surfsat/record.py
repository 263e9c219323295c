"""The value base of the result records.  A record keeps its fields in
``__slots__`` (those not starting with ``_``), sets them in its own
``__init__`` and never again, and gets ``==`` (within its class), ``hash``
and ``repr`` over them, narrowed by ``_compared`` and ``_shown``."""


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        fields = tuple([name for name in cls.__slots__ if name[0] != "_"])
        cls._shown = cls.__dict__.get("_shown", fields)
        cls._compared = cls.__dict__.get("_compared", cls._shown)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._shown])
        return f"{self.__class__.__qualname__}({shown})"
