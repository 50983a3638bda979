"""Immutable value records, set up without code generation: a frozen
dataclass ``exec``s six methods per class, a measurable share of CLI start-up."""


class Record:
    """Fields are the annotated names of the class and its bases, in order.
    ``__init__`` takes them by position or name, then runs ``__post_init__``,
    which may replace a field through ``object.__setattr__``.  Records are
    immutable, and compare and hash by class and field values."""

    _fields = ()  # extended by each subclass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # from Python 3.10 on, a class's __annotations__ holds its own names only
        cls._fields = tuple(dict.fromkeys((*cls._fields, *cls.__annotations__)))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args))
        unknown = [k for k in kwargs if k not in fields or k in values]
        if len(args) > len(fields) or unknown or len(values) + len(kwargs) < len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}, got "
                            f"{len(args)} by position and {list(kwargs)} by name")
        values.update(kwargs)
        vars(self).update((f, values[f]) for f in fields)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _asdict(self) -> dict:
        return {f: getattr(self, f) for f in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(self._asdict().values()) == tuple(other._asdict().values())

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

    def __repr__(self):
        items = ", ".join(f"{f}={v!r}" for f, v in self._asdict().items())
        return f"{type(self).__qualname__}({items})"
