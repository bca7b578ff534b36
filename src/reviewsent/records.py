"""The base of the package's checked records.

A checked record is two classes: a ``typing.NamedTuple`` that declares
the fields, and the public subclass, whose ``__new__`` checks the values
and builds the tuple; the subclass declares ``__slots__ = ()`` unless it
keeps caches in a ``__dict__``. A NamedTuple class is far cheaper to
create than a dataclass, and needs no ``dataclasses`` import, which
costs each CLI process about 10 ms of start-up.
"""

from typing import get_type_hints

# the default of a mapping field: each record gets a new empty dict, as a
# NamedTuple default would be one dict shared by every record
NEW_DICT = object()


class Checked:
    """Mixin of a checked record: every way of building one checks it.

    NamedTuple's ``_make``, and so ``_replace``, call ``tuple.__new__``,
    which would skip the subclass's checks; here they call the class.
    Unpickling and ``copy`` call ``__new__`` already.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def mistyped(what: str, record: tuple) -> str:
    """The error text naming the first field of ``record`` whose value's
    type is not exactly the declared one (a ``bool`` is no ``int`` and a
    ``datetime`` no ``date``); a field declared as a generic may hold any."""
    types = get_type_hints(type(record))
    for name, value in zip(record._fields, record):
        if isinstance(types[name], type) and type(value) is not types[name]:
            return f"{what}: {name} must be {types[name].__name__}, not {type(value).__name__}"
