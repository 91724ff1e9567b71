"""Immutable value records.

A record class lists its fields in __slots__ and is built by position, in
that order.  It refuses assignment, and compares and hashes as the tuple
of its field values, so it hashes only when all its fields do: one with a
dict field (a composition table, say) is unhashable.  A class that
normalizes its arguments (lists to tuples, a copy of a dict) does so in
its own __init__ before calling Record's.  A class that caches a
property adds "__dict__" to its __slots__ to hold the cache, and one that
is weakly referenced adds "__weakref__"; neither is a field.

Certificate, the named verdict of one check, is the record every module's
certificates and the command line's report lines are made of.
"""


class Record:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__
                            if name not in ("__dict__", "__weakref__"))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} "
                            f"fields, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


class Certificate(Record):
    """One check's name, whether it passed, and its first failures."""

    __slots__ = ("name", "ok", "detail")

    def __init__(self, name, ok, detail=""):
        super().__init__(name, ok, detail)

    @classmethod
    def of(cls, name, report):
        """Passes iff the check's report is empty; names its first three failures."""
        return cls(name, not report, "; ".join(report[:3]))
